//! Sampled simulation: SimPoint-weighted execution with error bounds,
//! checkpointed warm-state reuse, and a cross-workload predicted
//! fast-forward.
//!
//! Exact simulation replays every dynamic op through the cycle model. For
//! long traces most of that work is redundant — program phases repeat —
//! so this module partitions each thread's [`TraceView`] into fixed-size
//! intervals (free range arithmetic on the shared trace arena), clusters
//! the intervals' basic-block vectors with deterministic k-means
//! ([`p10_trace::simpoint`]), simulates only one representative interval
//! per cluster, and reconstitutes whole-trace activity, cycle
//! attribution, and power as cluster-weight sums.
//!
//! Four mechanisms keep the representative measurements honest:
//!
//! * **Functional warming** ([`p10_uarch::FunctionalWarmer`]): every op
//!   up to a measured boundary is replayed timing-free through the
//!   caches, TLBs, and branch predictor, and each detailed run starts
//!   from the [`WarmState`] snapshot at its interval boundary
//!   ([`Core::with_state`]); cache state warms over far more ops than
//!   any affordable detailed warmup prefix could cover.
//! * A short **detailed warmup prefix** per representative, delta'd out
//!   checkpoint-free (pipeline-local transients the functional warmer
//!   cannot see).
//! * **Cold-prefix detailing**: the leading intervals are measured
//!   outright until consecutive CPIs agree within `COLD_TOL_REL` —
//!   the cold-start transient executes steady-state code and so has no
//!   BBV signature.
//! * **Miss-augmented BBVs**: each interval's functionally-warmed
//!   L1D/L2/L3 per-op miss rates (× `MISS_FEATURE_WEIGHT`) extend its
//!   BBV, so transient and steady intervals of the same code cluster
//!   apart.
//!
//! Warming itself is the dominant cost of a sampled *sweep*, so it is
//! checkpointed and shared through a [`CkptStore`]: warmer snapshots at
//! measured interval boundaries are serialized
//! ([`FunctionalWarmer::to_bytes`]) into content-keyed blobs whose key is
//! the *warm-relevant* config projection ([`crate::runner::warm_projection`])
//! plus a trace signature — so a sweep over latency/queue/width variants
//! warms once per warm-equivalence class, not once per config, and a
//! repeated run (or the next round of bound mode) jumps straight to each
//! boundary instead of replaying the prefix. A corrupt or truncated
//! checkpoint decodes to `None` and falls back to re-warming. The same
//! store memoizes interval measurements for its lifetime, in memory only,
//! so reuse never reaches past the store a caller passes.
//!
//! Every sampled estimate carries a **statistical error bound**: the
//! spread of each cluster (BBV distance of members to their
//! representative, zero for members measured directly) is converted to
//! a CPI/power deviation through the observed sensitivity between
//! representatives, combined across clusters as independent terms,
//! floored by a model-error allowance that grows with the skipped share
//! (`bound_floor_rel`), plus a boundary-residue term
//! `BOUNDARY_RESIDUE_CYCLES / (interval_ops · CPI)` for the
//! per-measurement granularity error. Differential tests assert the
//! measured error against exact simulation stays inside the printed
//! bound. [`SamplingMode::Bound`] inverts the relationship: it grows the
//! cluster budget round by round — reusing prior rounds' checkpoints and
//! memoized measurements — until the claimed bound meets a target.
//!
//! [`fit_cross_workload`] fits linear counter→CPI and counter→power
//! predictors (Gram-cached forward selection from `p10-powermodel`) on
//! the measured intervals [`cross_workload_rows`] collects from several
//! benchmarks, so a *new* workload can fast-forward from its first
//! interval alone ([`run_benchmark_predicted`]): its other intervals are *predicted*
//! from cheap functional-trace features, and the reported bound
//! incorporates the leave-one-out cross-validated error.
//!
//! Exact mode remains the byte-identical reference: an engine only
//! routes through this module when its [`runner::Engine::sampling`] mode
//! is non-exact, so `figures all` output without `--sampling` is
//! unchanged.

use crate::runner;
use crate::scenario::{self, ScenarioResult};
use crate::store::{self, Store};
use p10_isa::{DynOp, OpClass, TraceView};
use p10_power::PowerModel;
use p10_powermodel::{forward_select_loo, CvModel, Dataset, FitOptions};
use p10_trace::simpoint::{simpoints_weighted, WeightedSimpoints};
use p10_uarch::{
    Activity, ActivityTrace, Core, CoreConfig, CycleAttribution, FunctionalWarmer, SimResult,
    WarmState,
};
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// BBV code-region buckets (matches the tracestudy granularity).
const BBV_BUCKETS: usize = 64;
/// Clustering seed: fixed so sampled points are content-addressable.
const KMEANS_SEED: u64 = 11;
/// Two-sided ~95% normal quantile for the cluster-spread bound term.
const Z_95: f64 = 1.96;
/// Minimum relative-error allowance added to every bound even at full
/// coverage: covers warmup residue and reconstitution rounding.
const BOUND_FLOOR_MIN_REL: f64 = 0.01;
/// Extra floor per unit of *skipped* op share: sensitivity-model error
/// the cluster-spread term cannot see only matters for intervals that
/// were not measured. Calibrated against the differential grid in
/// `tests/sampling_diff.rs`.
const BOUND_FLOOR_SKIP_REL: f64 = 0.07;
/// Safety factor on the cross-workload predictor's cross-validated error
/// term.
const CV_SAFETY: f64 = 1.5;
/// Weight on the functional miss-rate features appended to each BBV:
/// chosen so a cold-vs-warm miss-rate gap (tenths of a miss per op)
/// separates intervals about as strongly as a real code-phase change.
const MISS_FEATURE_WEIGHT: f64 = 4.0;
/// Cold-start escape: the leading intervals are simulated in detail until
/// two consecutive measurements agree within this relative CPI change —
/// the cold-start transient (caches filling for the first time) has no
/// BBV signature, so clustering alone cannot see it.
const COLD_TOL_REL: f64 = 0.25;
/// Residual cycles a per-interval measurement can be off by regardless of
/// interval content: the gap between functionally-warmed and true
/// detailed state at the interval boundary (prefetch timing, in-flight
/// misses). Measured empirically against exact prefix differences
/// (~225–270 cycles per boundary on the low-CPI study workloads at
/// interval 2500, where full-coverage runs expose the residue directly);
/// enters the bound as `RESIDUE / (interval_ops · CPI)`, so short
/// low-CPI intervals honestly report large uncertainty while long
/// intervals (where the residue amortizes) stay tight.
const BOUNDARY_RESIDUE_CYCLES: f64 = 300.0;
/// In-memory checkpoint blobs a memory-only [`CkptStore`] keeps per warm
/// class; a save into a full class evicts that class's lowest boundary
/// (the cheapest to replay). Blobs grow with the cache lines warmed so
/// far: 142–905 KB, 278 KB on average (39.9 MB over 140 saves in 10
/// classes in the 300k-op `figures sampling` study), so a class holds at
/// most 3.3 MB and 1.3 MB on average. A store with a disk tier keeps no
/// blobs in memory: the disk tier and the page cache already serve its
/// loads.
const CKPT_MEMO_CAP: usize = 4;

/// Detailed-interval count [`BOUND_FLOOR_SKIP_REL`] was calibrated at:
/// the differential grid in `tests/sampling_diff.rs` measures ~4
/// intervals per run, so at 4 the scale factor is exactly 1.
const BOUND_FLOOR_REF_INTERVALS: f64 = 4.0;

/// The model-error floor on a sampled bound: a fixed minimum plus a term
/// proportional to the share of ops that were never measured in detail.
/// The skip term shrinks with the square root of the number of intervals
/// that *were* measured — each detailed interval is an independent probe
/// of the phase behavior the skipped ops are extrapolated from, so a
/// 64-interval sweep that measured 16 of them extrapolates from far more
/// evidence than the 4-interval grid the allowance was calibrated on.
/// Full coverage is honestly tight; heavy extrapolation from a single
/// anchor is honestly loose (the scale is capped at 2x).
fn bound_floor_rel(skipped_share: f64, measured_intervals: usize) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let evidence = (measured_intervals.max(1)) as f64;
    let scale = (BOUND_FLOOR_REF_INTERVALS / evidence).sqrt().min(2.0);
    BOUND_FLOOR_MIN_REL + BOUND_FLOOR_SKIP_REL * skipped_share.clamp(0.0, 1.0) * scale
}

/// How the engine should execute simulation points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingMode {
    /// Simulate every op — the byte-identical reference path.
    Exact,
    /// Simulate one representative interval per BBV cluster and
    /// reconstitute whole-trace results as cluster-weight sums.
    SimPoints {
        /// Ops per interval (per thread).
        interval_ops: usize,
        /// Maximum clusters (k-means k).
        k: usize,
        /// Architectural warmup ops simulated before each representative
        /// and delta'd out of its counters (0 = cold).
        warmup_ops: usize,
    },
    /// Target-bound auto-tuning: grow the cluster budget round by round
    /// (reusing checkpoints and memoized interval measurements between
    /// rounds) until the reported error bound meets the target, every
    /// interval is measured, or the budget cannot grow further.
    Bound {
        /// Target relative error bound in milli-percent (`5%` = 5000),
        /// kept integral so the mode stays `Copy + Eq` and
        /// round-trippable through [`SamplingMode::describe`].
        target_mpct: u32,
    },
}

impl SamplingMode {
    /// Parses a `--sampling` argument: `exact` | `bound:PCT`, where `PCT`
    /// is a relative error target in percent (`0 < PCT <= 100`, fractions
    /// and a trailing `%` accepted). [`SamplingMode::SimPoints`] has no
    /// text form to parse; callers build it in code.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the accepted grammar when the text
    /// does not parse or a field is out of range.
    pub fn parse(text: &str) -> Result<SamplingMode, String> {
        let err =
            || format!("bad sampling mode '{text}': expected exact | bound:PCT (0 < PCT <= 100)");
        let mut parts = text.split(':');
        let head = parts.next().ok_or_else(err)?;
        let fields: Vec<&str> = parts.collect();
        match (head, fields.len()) {
            ("exact", 0) => Ok(SamplingMode::Exact),
            ("bound", 1) => {
                let raw = fields[0].strip_suffix('%').unwrap_or(fields[0]);
                let pct: f64 = raw.parse().map_err(|_| err())?;
                if !pct.is_finite() || pct <= 0.0 || pct > 100.0 {
                    return Err(err());
                }
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let target_mpct = (pct * 1000.0).round() as u32;
                if target_mpct == 0 {
                    return Err(err());
                }
                Ok(SamplingMode::Bound { target_mpct })
            }
            _ => Err(err()),
        }
    }

    /// Canonical text form; keys the result cache (a different mode is a
    /// different point) and round-trips through [`SamplingMode::parse`]
    /// for the modes the CLI accepts.
    #[must_use]
    pub fn describe(&self) -> String {
        match *self {
            SamplingMode::Exact => "exact".to_owned(),
            SamplingMode::SimPoints {
                interval_ops,
                k,
                warmup_ops,
            } => format!("simpoints:{interval_ops}:{k}:{warmup_ops}"),
            SamplingMode::Bound { target_mpct } => {
                let mut pct = format!("{:.3}", f64::from(target_mpct) / 1000.0);
                while pct.ends_with('0') {
                    pct.pop();
                }
                if pct.ends_with('.') {
                    pct.pop();
                }
                format!("bound:{pct}")
            }
        }
    }

    /// Whether this mode is the exact reference path.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        *self == SamplingMode::Exact
    }
}

/// What sampled execution measured and how much it claims to be worth.
///
/// All fields are plain numbers (no `Option`) so the struct serializes
/// stably into the on-disk result cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplingStats {
    /// The mode text ([`SamplingMode::describe`]).
    pub mode: String,
    /// Intervals the trace was partitioned into.
    pub intervals: u64,
    /// Clusters actually formed (≤ k).
    pub clusters: u64,
    /// Dynamic ops across all threads.
    pub total_ops: u64,
    /// Ops whose timing was measured directly (representative intervals).
    pub simulated_ops: u64,
    /// Ops covered only by reconstitution (`total_ops - simulated_ops`).
    pub skipped_ops: u64,
    /// Extra warmup ops fed to the simulator (delta'd out of results).
    pub warmup_ops: u64,
    /// Estimated whole-trace cycles per instruction.
    pub cpi_est: f64,
    /// Estimated whole-trace core power (W, per-cycle intensive).
    pub power_est: f64,
    /// Relative error bound claimed for `cpi_est` (fraction).
    pub cpi_bound_rel: f64,
    /// Relative error bound claimed for `power_est` (fraction).
    pub power_bound_rel: f64,
    /// Cross-workload prediction: leave-one-out CV error of the CPI
    /// predictor (%); 0 for the other modes.
    pub cv_cpi_error_pct: f64,
    /// Cross-workload prediction: leave-one-out CV error of the power
    /// predictor (%); 0 for the other modes.
    pub cv_power_error_pct: f64,
    /// Cross-workload prediction: intervals filled in by prediction
    /// rather than by a detailed measurement; 0 for the other modes.
    pub predicted_intervals: u64,
}

/// A scenario result produced by sampled execution, with its statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampledScenario {
    /// The reconstituted whole-trace result (same shape as exact).
    pub result: ScenarioResult,
    /// What was simulated, skipped, and claimed.
    pub stats: SamplingStats,
}

/// Records the `[obs]` counters/gauge for one sampled point. The engine
/// calls this on cache hits too, so a warm run's summary still reports
/// what the cached points covered.
pub fn record_obs(stats: &SamplingStats) {
    p10_obs::counter("sim.sample.intervals", stats.intervals);
    p10_obs::counter("sim.sample.clusters", stats.clusters);
    p10_obs::counter("sim.sample.simulated_ops", stats.simulated_ops);
    p10_obs::counter("sim.sample.skipped_ops", stats.skipped_ops);
    if stats.total_ops > 0 {
        #[allow(clippy::cast_precision_loss)]
        p10_obs::gauge(
            "sim.sample.coverage",
            stats.simulated_ops as f64 / stats.total_ops as f64,
        );
    }
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

/// One warm class's in-memory checkpoint blobs, by interval boundary.
type ClassBlobs = HashMap<usize, Arc<Vec<u8>>>;

/// Content-keyed store for functional-warming checkpoints and per-class
/// warm feature vectors.
///
/// Blobs are keyed by *warm-equivalence class* — the FNV-64 of
/// [`crate::runner::warm_projection`] of the config plus a trace
/// signature and the interval size — and by interval boundary index, so
/// every config in a sweep that shares warm-relevant geometry shares one
/// set of checkpoints. Blobs live in exactly one tier: on disk when the
/// store has a directory (a [`Store`]: raw `P10WARM2` blobs, whose codec
/// carries its own checksum, and framed JSON feature vectors; persistent
/// across runs, and the page cache makes in-process reloads cheap),
/// otherwise in an in-memory memo capped per warm class. Either way what
/// a class finds depends only on that class's own saves, so hit counts do
/// not depend on how concurrent jobs interleave as long as no two
/// concurrent jobs share a class.
///
/// The store also memoizes interval measurements, by the content key of
/// (timing projection, trace signature, interval geometry, index), for
/// its own lifetime and in memory only: bound mode's later rounds and a
/// repeated run on the same store re-measure nothing, while a fresh store
/// measures (and warms) from scratch.
///
/// All traffic is counted per store (`ckpt_hits`/`ckpt_misses`/
/// `ckpt_bytes`/`warm_passes`) *and* mirrored into the process-wide
/// `[obs]` counters `sampling.ckpt_*` / `sampling.warm_passes`, with
/// `sampling.meas_memo_hits` / `sampling.meas_computes` for the
/// measurement memo; tests construct private stores so the counts are
/// exact even with other tests running in parallel.
pub struct CkptStore {
    disk: Option<Store>,
    blobs: Mutex<HashMap<u64, ClassBlobs>>,
    feats: Mutex<HashMap<u64, Arc<Vec<f64>>>>,
    measurements: Mutex<HashMap<u64, RepMeasurement>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
    warm_passes: AtomicU64,
}

impl CkptStore {
    /// A store with an optional disk tier (`None` = in-memory only).
    #[must_use]
    pub fn new(dir: Option<PathBuf>) -> Self {
        CkptStore {
            disk: dir.map(|d| Store::new(d, "sampling.ckpt_rejects")),
            blobs: Mutex::new(HashMap::new()),
            feats: Mutex::new(HashMap::new()),
            measurements: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            warm_passes: AtomicU64::new(0),
        }
    }

    /// Checkpoints served from this store (memo or disk).
    #[must_use]
    pub fn ckpt_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Warm-state requests that found no usable checkpoint.
    #[must_use]
    pub fn ckpt_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Stored checkpoints that were found but failed to decode (corrupt,
    /// truncated, or written in an older format), and warm-feature files
    /// that were found but did not parse or held the wrong number of
    /// intervals; each is recomputed and overwritten under the same name.
    #[must_use]
    pub fn ckpt_rejects(&self) -> u64 {
        self.disk.as_ref().map_or(0, Store::rejects)
    }

    /// Total checkpoint bytes serialized through this store.
    #[must_use]
    pub fn ckpt_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Whole-trace functional warming passes actually executed (the
    /// per-class feature pre-pass); a sweep over N configs in C
    /// warm-equivalence classes performs exactly C of these.
    #[must_use]
    pub fn warm_passes(&self) -> u64 {
        self.warm_passes.load(Ordering::Relaxed)
    }

    fn blob_name(class: u64, idx: usize) -> String {
        format!("ckpt-{class:016x}-{idx}.bin")
    }

    fn feat_name(class: u64) -> String {
        format!("feat-{class:016x}.json")
    }

    /// Loads the warmer checkpointed at interval boundary `idx` for the
    /// given warm class, if one exists and decodes under `cfg`. A disk
    /// blob that exists but does not decode counts as a reject
    /// (`sampling.ckpt_rejects`, emitted only when one happens); a memo
    /// blob is this process's own encoding for this class.
    fn load(&self, cfg: &CoreConfig, class: u64, idx: usize) -> Option<FunctionalWarmer> {
        let decode = |b: &[u8]| {
            p10_obs::counter("sampling.ckpt_decode_bytes", b.len() as u64);
            FunctionalWarmer::from_bytes(cfg, b)
        };
        let w = match &self.disk {
            Some(disk) => disk.read(&Self::blob_name(class, idx), decode).hit()?,
            None => {
                let blob = self
                    .blobs
                    .lock()
                    .expect("ckpt memo poisoned")
                    .get(&class)?
                    .get(&idx)
                    .cloned()?;
                decode(&blob)?
            }
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        p10_obs::counter("sampling.ckpt_hits", 1);
        Some(w)
    }

    /// Serializes and stores a checkpoint at interval boundary `idx`:
    /// on disk when the store has a directory, else in the memo. Disk
    /// writes are best-effort ([`Store::write`], errors ignored).
    fn save(&self, class: u64, idx: usize, w: &FunctionalWarmer) {
        let bytes = w.to_bytes();
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        p10_obs::counter("sampling.ckpt_bytes", bytes.len() as u64);
        if let Some(disk) = &self.disk {
            disk.write(&Self::blob_name(class, idx), &bytes);
            return;
        }
        let mut m = self.blobs.lock().expect("ckpt memo poisoned");
        let class_blobs = m.entry(class).or_default();
        if class_blobs.len() >= CKPT_MEMO_CAP {
            let first = *class_blobs.keys().min().expect("full memo");
            class_blobs.remove(&first);
        }
        class_blobs.insert(idx, Arc::new(bytes));
    }

    /// Checkpoint blobs held in memory (always 0 for a store with a disk
    /// tier).
    #[cfg(test)]
    fn memo_blobs(&self) -> usize {
        self.blobs
            .lock()
            .expect("ckpt memo poisoned")
            .values()
            .map(HashMap::len)
            .sum()
    }

    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        p10_obs::counter("sampling.ckpt_misses", 1);
    }

    /// The per-interval warm miss-rate features for one warm class,
    /// computing (and persisting) them on first use. `expected_len`
    /// guards against a stale vector from a different interval count; a
    /// feature file that exists but does not decode or has the wrong
    /// length counts as a reject and is recomputed.
    fn warm_features_cached(
        &self,
        class: u64,
        expected_len: usize,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> Arc<Vec<f64>> {
        if let Some(f) = self.feats.lock().expect("feat memo poisoned").get(&class) {
            if f.len() == expected_len {
                return Arc::clone(f);
            }
        }
        let fname = Self::feat_name(class);
        let stored = self.disk.as_ref().and_then(|disk| {
            disk.read(&fname, |b| {
                store::decode_json::<Vec<f64>>(b).filter(|v| v.len() == expected_len)
            })
            .hit()
        });
        let v = stored.unwrap_or_else(|| {
            let v = compute();
            debug_assert_eq!(v.len(), expected_len, "warm feature pass length");
            self.warm_passes.fetch_add(1, Ordering::Relaxed);
            p10_obs::counter("sampling.warm_passes", 1);
            if let Some(disk) = &self.disk {
                disk.write_json(&fname, &v);
            }
            v
        });
        let a = Arc::new(v);
        self.feat_put(class, Arc::clone(&a));
        a
    }

    /// Memoizes a class's features, replacing only that class's entry
    /// (one small vector per class, so no cap).
    fn feat_put(&self, class: u64, feats: Arc<Vec<f64>>) {
        self.feats
            .lock()
            .expect("feat memo poisoned")
            .insert(class, feats);
    }

    /// The interval measurement under `key`, running `measure` on the
    /// first request. Like [`runner::Engine::cached`], concurrent misses
    /// on one key both measure, so jobs of one pool batch must not share
    /// a trace.
    fn measurement(&self, key: &str, measure: impl FnOnce() -> RepMeasurement) -> RepMeasurement {
        let key = runner::fnv1a64(key.as_bytes());
        let hit = self
            .measurements
            .lock()
            .expect("measurement memo poisoned")
            .get(&key)
            .cloned();
        if let Some(m) = hit {
            p10_obs::counter("sampling.meas_memo_hits", 1);
            return m;
        }
        let m = measure();
        p10_obs::counter("sampling.meas_computes", 1);
        self.measurements
            .lock()
            .expect("measurement memo poisoned")
            .insert(key, m.clone());
        m
    }
}

/// Appends one op's warm-relevant identity (pc, memory address, branch
/// target/direction) to a signature buffer.
fn sig_op(buf: &mut Vec<u8>, op: &DynOp) {
    buf.extend_from_slice(&op.pc.to_le_bytes());
    match op.mem {
        Some(m) => {
            buf.extend_from_slice(&m.addr.to_le_bytes());
            buf.push(m.size);
        }
        None => {
            buf.extend_from_slice(&u64::MAX.to_le_bytes());
            buf.push(0);
        }
    }
    match op.branch {
        Some(b) => {
            buf.extend_from_slice(&b.target.to_le_bytes());
            buf.push(u8::from(b.taken));
        }
        None => {
            buf.extend_from_slice(&u64::MAX.to_le_bytes());
            buf.push(0xff);
        }
    }
}

/// A cheap content signature of the per-thread views: exact lengths plus
/// a strided op sample (≤ ~2k ops per thread, always including the
/// last). Two traces that collide here *and* in every exact length are
/// the same trace for all practical purposes.
fn views_sig(name: &str, views: &[TraceView]) -> u64 {
    let mut buf = Vec::new();
    buf.extend_from_slice(name.as_bytes());
    buf.push(0);
    buf.extend_from_slice(&(views.len() as u64).to_le_bytes());
    for v in views {
        buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
        let stride = (v.len() / 2048).max(1);
        for i in (0..v.len()).step_by(stride) {
            sig_op(&mut buf, &v.op(i));
        }
        if let Some(last) = v.len().checked_sub(1) {
            sig_op(&mut buf, &v.op(last));
        }
    }
    runner::fnv1a64(&buf)
}

/// The warm-equivalence-class key: configs whose
/// [`crate::runner::warm_projection`] matches share checkpoints for the
/// same trace and interval size.
fn warm_class_key(cfg: &CoreConfig, name: &str, views: &[TraceView], interval_ops: usize) -> u64 {
    let proj = serde_json::to_string(&runner::warm_projection(cfg)).expect("config serializes");
    let vsig = views_sig(name, views);
    runner::fnv1a64(format!("warm|{proj}|{vsig:016x}|{interval_ops}").as_bytes())
}

/// One interval of the partitioned run: per-thread zero-copy slices plus
/// the combined BBV.
struct Interval {
    /// Per-thread `[i*I, (i+1)*I)` windows (threads clipped individually;
    /// some may be empty near a short thread's end).
    slices: Vec<TraceView>,
    /// Ops across all thread slices.
    ops: u64,
    /// Normalized basic-block vector over all thread slices, augmented
    /// with weighted functional-warming miss rates (see [`partition`]).
    bbv: Vec<f64>,
    /// Per-op functional L1D/L2/L3 miss rates at this interval's position
    /// in the trace (from the clustering pre-pass).
    warm_miss: [f64; 3],
}

/// Partitions per-thread views into op-index-aligned intervals and
/// computes each interval's combined BBV.
///
/// The BBV is augmented with three microarchitectural features: the
/// interval's per-op L1D/L2/L3 miss rates measured by a functional
/// warming pre-pass over the whole trace. A cold-start transient (caches
/// filling for the first time) executes the *same code* as steady state
/// — identical on a pure code-signature BBV — but misses at a very
/// different rate, so these features let k-means give the transient its
/// own cluster, a representative that is measured equally cold, and a
/// visible contribution to the error bound.
///
/// The pre-pass itself is cached in `store` per warm-equivalence class:
/// a sweep over N configs in C classes replays the whole trace C times,
/// not N times.
fn partition(
    cfg: &CoreConfig,
    name: &str,
    views: &[TraceView],
    interval_ops: usize,
    store: &CkptStore,
) -> Vec<Interval> {
    let max_len = views.iter().map(TraceView::len).max().unwrap_or(0);
    let n = max_len.div_ceil(interval_ops);
    let mut ivs: Vec<Interval> = (0..n)
        .map(|i| {
            let slices: Vec<TraceView> =
                views.iter().map(|v| v.interval(interval_ops, i)).collect();
            let ops: u64 = slices.iter().map(|s| s.len() as u64).sum();
            let mut bbv = vec![0.0f64; BBV_BUCKETS];
            for s in &slices {
                for op in s.iter() {
                    bbv[((op.pc >> 4) as usize) % BBV_BUCKETS] += 1.0;
                }
            }
            let norm: f64 = bbv.iter().sum();
            if norm > 0.0 {
                for x in &mut bbv {
                    *x /= norm;
                }
            }
            // Every window below `n` holds ops from the longest thread,
            // so interval index == window index (no filtering needed).
            Interval {
                slices,
                ops,
                bbv,
                warm_miss: [0.0; 3],
            }
        })
        .collect();
    let class = warm_class_key(cfg, name, views, interval_ops);
    let feats = store.warm_features_cached(class, 3 * n, || {
        let mut warmer = FunctionalWarmer::new(cfg);
        let mut prev = Activity::default();
        let mut out = Vec::with_capacity(3 * n);
        for iv in &ivs {
            warmer.observe(&iv.slices);
            let cur = *warmer.activity();
            let d = cur.delta(&prev);
            prev = cur;
            #[allow(clippy::cast_precision_loss)]
            let per_op = |misses: u64| misses as f64 / iv.ops.max(1) as f64;
            out.push(per_op(d.l1d_misses));
            out.push(per_op(d.l2_misses));
            out.push(per_op(d.l3_misses));
        }
        p10_obs::counter("sampling.warm_ops", warmer.ops());
        out
    });
    for (iv, chunk) in ivs.iter_mut().zip(feats.chunks(3)) {
        iv.warm_miss = [chunk[0], chunk[1], chunk[2]];
        for m in iv.warm_miss {
            iv.bbv.push(m * MISS_FEATURE_WEIGHT);
        }
    }
    ivs
}

fn bbv_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// One simulated representative interval with warmup delta'd out.
/// Memoized per [`CkptStore`] (bound mode re-runs reuse them across
/// rounds).
#[derive(Debug, Clone)]
struct RepMeasurement {
    /// Interval index in the partition.
    interval: usize,
    /// Counters attributable to the representative interval alone.
    activity: Activity,
    /// Cycle attribution of the same window (sums to `activity.cycles`).
    attribution: CycleAttribution,
    /// CPI of the representative.
    cpi: f64,
    /// Core power (W) of the representative window.
    power: f64,
    /// Warmup ops that were simulated and subtracted back out.
    warmup_ops: u64,
}

/// Simulates interval `idx` of the partition on `cfg`, starting from the
/// functionally-warmed `state` (caches, TLBs, predictor as of the
/// interval's position in the trace), with `warmup_ops` of detailed
/// pipeline warmup per thread, checkpoint-free: the window
/// `[start - warmup, end)` is simulated once, the warmup prefix
/// `[start - warmup, start)` once more, and the prefix's counters are
/// subtracted (saturating). The detailed prefix fills short-lived state
/// (window occupancy, miss queues, store drain) that functional warming
/// cannot; its ops are already inside `state`, and replaying them is
/// harmless because cache/predictor training is idempotent for a repeat.
fn simulate_interval(
    cfg: &CoreConfig,
    views: &[TraceView],
    interval_ops: usize,
    idx: usize,
    warmup_ops: usize,
    state: &WarmState,
) -> RepMeasurement {
    let _sp = p10_obs::event_span(&format!("interval:{idx}"));
    let run = |slices: Vec<TraceView>| -> SimResult {
        let ops: u64 = slices.iter().map(|s| s.len() as u64).sum();
        Core::with_state(cfg.clone(), state.clone()).run(slices, ops * 8 + 100_000)
    };
    let mut full = Vec::new();
    let mut warm = Vec::new();
    for v in views {
        let start = v.len().min(idx.saturating_mul(interval_ops));
        let end = v.len().min(start + interval_ops);
        let wstart = start.saturating_sub(warmup_ops);
        full.push(v.slice(wstart..end));
        warm.push(v.slice(wstart..start));
    }
    let warmup: u64 = warm.iter().map(|s| s.len() as u64).sum();
    let full = run(full.into_iter().filter(|s| !s.is_empty()).collect());
    let (activity, attribution) = if warmup == 0 {
        (full.activity, full.attribution)
    } else {
        let pre = run(warm.into_iter().filter(|s| !s.is_empty()).collect());
        let activity = full.activity.delta(&pre.activity);
        (
            activity,
            attribution_delta(&full.attribution, &pre.attribution, activity.cycles),
        )
    };
    let power = PowerModel::for_config(cfg).evaluate(&activity).core_total();
    RepMeasurement {
        interval: idx,
        cpi: activity.cpi(),
        power,
        activity,
        attribution,
        warmup_ops: warmup,
    }
}

/// Per-bucket saturating difference of two attributions, re-balanced so
/// the result still partitions exactly `cycles` (the invariant
/// `CycleAttribution::total() == Activity::cycles` that `cycleprof`
/// asserts). Rounding slack lands in `idle`; if the non-idle buckets
/// overshoot, the overshoot is shaved off the largest buckets.
fn attribution_delta(
    full: &CycleAttribution,
    pre: &CycleAttribution,
    cycles: u64,
) -> CycleAttribution {
    rebalance(
        CycleAttribution {
            active: full.active.saturating_sub(pre.active),
            mma_gated: full.mma_gated.saturating_sub(pre.mma_gated),
            issue_limited: full.issue_limited.saturating_sub(pre.issue_limited),
            memory_bound: full.memory_bound.saturating_sub(pre.memory_bound),
            dispatch_stalled: full.dispatch_stalled.saturating_sub(pre.dispatch_stalled),
            fetch_stalled: full.fetch_stalled.saturating_sub(pre.fetch_stalled),
            idle: 0,
        },
        cycles,
    )
}

/// Sets `idle` so the buckets sum to exactly `cycles`; shaves any
/// non-idle overshoot off the largest buckets first.
fn rebalance(mut a: CycleAttribution, cycles: u64) -> CycleAttribution {
    a.idle = 0;
    let mut excess = a.total().saturating_sub(cycles);
    while excess > 0 {
        let buckets = [
            &mut a.active,
            &mut a.mma_gated,
            &mut a.issue_limited,
            &mut a.memory_bound,
            &mut a.dispatch_stalled,
            &mut a.fetch_stalled,
        ];
        let largest = buckets
            .into_iter()
            .max_by_key(|b| **b)
            .expect("six buckets");
        let cut = (*largest).min(excess);
        if cut == 0 {
            break;
        }
        *largest -= cut;
        excess -= cut;
    }
    a.idle = cycles.saturating_sub(a.total());
    a
}

/// The cluster-spread error bound for one metric (CPI or power).
///
/// Sensitivity `λ` is the steepest observed metric-per-BBV-distance slope
/// between representative pairs (regularized so identical BBVs with
/// different metrics don't explode it); each cluster contributes a
/// deviation `σ_c = λ · rms(BBV distance of members to representative)`,
/// weighted by the cluster's share and combined as independent terms at
/// ~95% confidence. `floor` ([`bound_floor_rel`]) covers the error modes
/// cluster spread cannot see.
#[allow(clippy::too_many_arguments)]
fn spread_bound_rel(
    metric_of: impl Fn(&RepMeasurement) -> f64,
    estimate: f64,
    reps: &[RepMeasurement],
    sp: &WeightedSimpoints,
    ivs: &[Interval],
    measured: &[Option<RepMeasurement>],
    total_ops: u64,
    floor: f64,
) -> f64 {
    let mut lambda = 0.0f64;
    for (i, a) in reps.iter().enumerate() {
        for b in reps.iter().skip(i + 1) {
            let d = bbv_dist(&ivs[a.interval].bbv, &ivs[b.interval].bbv).max(1e-3);
            lambda = lambda.max((metric_of(a) - metric_of(b)).abs() / d);
        }
    }
    let mut var = 0.0f64;
    for (rep, members) in reps.iter().zip(sp.members.iter()) {
        let cluster_ops: f64 = members.iter().map(|&i| ivs[i].ops as f64).sum();
        if cluster_ops <= 0.0 {
            continue;
        }
        // Members with their own detailed measurement (the cold prefix
        // and the representative itself) contribute zero deviation.
        let ms: f64 = members
            .iter()
            .map(|&i| {
                if measured[i].is_some() {
                    return 0.0;
                }
                let d = bbv_dist(&ivs[i].bbv, &ivs[rep.interval].bbv);
                ivs[i].ops as f64 * d * d
            })
            .sum::<f64>()
            / cluster_ops;
        let sigma = lambda * ms.sqrt();
        let share = cluster_ops / total_ops as f64;
        var += (share * sigma) * (share * sigma);
    }
    Z_95 * var.sqrt() / estimate.abs().max(1e-12) + floor
}

/// Names of the functional-trace features the cross-workload predictor
/// predicts from.
fn feature_names() -> Vec<String> {
    [
        "load_frac",
        "store_frac",
        "branch_frac",
        "mul_div_frac",
        "vsx_frac",
        "mma_frac",
        "flops_per_op",
        "uniq_lines_per_op",
        "uniq_pages_per_op",
        "prefixed_frac",
        "warm_l1d_miss_rate",
        "warm_l2_miss_rate",
        "warm_l3_miss_rate",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect()
}

/// Fast-forward features of one interval — computable without the cycle
/// model (static trace mix plus the functional-warming miss rates),
/// which is the whole point of a predicted fast-forward.
fn interval_features(iv: &Interval) -> Vec<f64> {
    let n = iv.ops.max(1) as f64;
    let mut counts = [0u64; 6]; // load store branch muldiv vsx mma
    let mut flops = 0u64;
    let mut prefixed = 0u64;
    let mut lines: HashSet<u64> = HashSet::new();
    let mut pages: HashSet<u64> = HashSet::new();
    for s in &iv.slices {
        for op in s.iter() {
            match op.class {
                OpClass::Load => counts[0] += 1,
                OpClass::Store => counts[1] += 1,
                OpClass::Branch => counts[2] += 1,
                OpClass::IntMul | OpClass::IntDiv => counts[3] += 1,
                OpClass::VsxSimple | OpClass::VsxFp => counts[4] += 1,
                OpClass::Mma(_) | OpClass::MmaMove => counts[5] += 1,
                _ => {}
            }
            flops += u64::from(op.flops);
            prefixed += u64::from(op.prefixed);
            if let Some(m) = op.mem {
                lines.insert(m.addr >> 7);
                pages.insert(m.addr >> 12);
            }
        }
    }
    let mut row: Vec<f64> = counts.iter().map(|&c| c as f64 / n).collect();
    row.push(flops as f64 / n);
    row.push(lines.len() as f64 / n);
    row.push(pages.len() as f64 / n);
    row.push(prefixed as f64 / n);
    row.extend(iv.warm_miss);
    row
}

/// Everything [`reconstitute`] produces: the whole-trace result, the
/// headline estimates, and the raw synthesis ingredients
/// ([`synthesize_trace`] turns them into a windowed activity trace).
struct Reconstituted {
    result: ScenarioResult,
    cpi_est: f64,
    power_est: f64,
    /// Per-interval `(scale, source activity)` terms whose weighted sum
    /// is the reconstituted activity (before pinning).
    terms: Vec<(f64, Activity)>,
    /// Estimated cycles each interval contributes, in trace order.
    interval_cycles: Vec<f64>,
}

/// Reconstitutes a whole-trace [`ScenarioResult`] from per-interval CPI /
/// power assignments plus the representatives' counter shapes.
///
/// `cpi_of(i)` / `power_of(i)` give interval `i`'s assigned values (its
/// own detailed measurement when it has one, a cross-workload prediction
/// when one was made, otherwise its representative's measurement). Counters
/// other than `cycles`/`completed` are scaled per interval from its
/// measurement source — predictions only move the headline cycles/power,
/// the counter *mix* always comes from simulation.
#[allow(clippy::too_many_arguments)]
fn reconstitute(
    cfg: &CoreConfig,
    name: &str,
    views: &[TraceView],
    ivs: &[Interval],
    measured: &[Option<RepMeasurement>],
    cluster_of: &[usize],
    reps: &[RepMeasurement],
    cpi_of: &dyn Fn(usize) -> f64,
    power_of: &dyn Fn(usize) -> f64,
) -> Reconstituted {
    let total_ops: u64 = ivs.iter().map(|iv| iv.ops).sum();
    // Whole-trace cycles: per-interval op counts times assigned CPI.
    let interval_cycles: Vec<f64> = ivs
        .iter()
        .enumerate()
        .map(|(i, iv)| iv.ops as f64 * cpi_of(i))
        .collect();
    let cycles_est: f64 = interval_cycles.iter().sum();
    let cpi_est = cycles_est / total_ops.max(1) as f64;
    // Power is per-cycle intensive: cycle-weighted mean of assignments.
    let power_est: f64 = interval_cycles
        .iter()
        .enumerate()
        .map(|(i, c)| c * power_of(i))
        .sum::<f64>()
        / cycles_est.max(1e-12);

    // Counter mix per interval: its own measurement when detailed,
    // otherwise its cluster's representative, scaled to the interval's
    // op share.
    let mut terms: Vec<(f64, Activity)> = Vec::new();
    let mut attr_terms: Vec<(f64, CycleAttribution)> = Vec::new();
    for (i, iv) in ivs.iter().enumerate() {
        let m = measured[i].as_ref().unwrap_or(&reps[cluster_of[i]]);
        let scale = iv.ops as f64 / m.activity.completed.max(1) as f64;
        terms.push((scale, m.activity));
        attr_terms.push((scale, m.attribution));
    }
    let mut activity = Activity::weighted_sum(&terms);
    // Pin the invariants exact mode guarantees: completed equals the op
    // budget, and cycles match the (possibly predicted) estimate.
    activity.completed = total_ops;
    activity.cycles = cycles_est.round().max(1.0) as u64;
    let attribution = rebalance(attribution_weighted_sum(&attr_terms), activity.cycles);

    let power = PowerModel::for_config(cfg).evaluate(&activity);
    let result = ScenarioResult {
        workload: name.to_owned(),
        config: cfg.name.clone(),
        sim: SimResult {
            config_name: cfg.name.clone(),
            threads: views.len(),
            activity,
            per_thread_completed: views.iter().map(|v| v.len() as u64).collect(),
            attribution,
        },
        power,
    };
    Reconstituted {
        result,
        cpi_est,
        power_est,
        terms,
        interval_cycles,
    }
}

/// Element-wise weighted sum of attribution buckets (rounded).
fn attribution_weighted_sum(terms: &[(f64, CycleAttribution)]) -> CycleAttribution {
    let f = |get: fn(&CycleAttribution) -> u64| -> u64 {
        terms
            .iter()
            .map(|(w, a)| w * get(a) as f64)
            .sum::<f64>()
            .round()
            .max(0.0) as u64
    };
    CycleAttribution {
        active: f(|a| a.active),
        mma_gated: f(|a| a.mma_gated),
        issue_limited: f(|a| a.issue_limited),
        memory_bound: f(|a| a.memory_bound),
        dispatch_stalled: f(|a| a.dispatch_stalled),
        fetch_stalled: f(|a| a.fetch_stalled),
        idle: f(|a| a.idle),
    }
}

/// A forward-only cursor over the functional warming of one trace under
/// one warm-equivalence class, backed by checkpoints in a [`CkptStore`].
///
/// `state_at(idx)` yields the warm state at the start of interval `idx`,
/// loading the exact-boundary checkpoint when one exists, otherwise
/// jumping to the nearest earlier checkpoint and replaying only the gap
/// — and saving a new checkpoint at `idx` so the next run (or the next
/// config in the class, or the next bound-mode round) skips the replay
/// entirely. Ops after the last measured boundary are never replayed.
struct WarmCursor<'a> {
    cfg: &'a CoreConfig,
    ivs: &'a [Interval],
    store: &'a CkptStore,
    class: u64,
    warmer: FunctionalWarmer,
    pos: usize,
}

impl<'a> WarmCursor<'a> {
    fn new(cfg: &'a CoreConfig, ivs: &'a [Interval], store: &'a CkptStore, class: u64) -> Self {
        WarmCursor {
            cfg,
            ivs,
            store,
            class,
            warmer: FunctionalWarmer::new(cfg),
            pos: 0,
        }
    }

    /// The warm state at the start of interval `idx` (ascending calls
    /// only). Boundary 0 is cold and never checkpointed.
    fn state_at(&mut self, idx: usize) -> &WarmState {
        assert!(idx >= self.pos, "warm cursor moves forward only");
        if idx > self.pos {
            if let Some(w) = self.store.load(self.cfg, self.class, idx) {
                self.warmer = w;
                self.pos = idx;
            } else {
                self.store.note_miss();
                // Jump to the nearest earlier checkpoint, then replay
                // only the remaining gap.
                for j in (self.pos + 1..idx).rev() {
                    if let Some(w) = self.store.load(self.cfg, self.class, j) {
                        self.warmer = w;
                        self.pos = j;
                        break;
                    }
                }
                let before = self.warmer.ops();
                while self.pos < idx {
                    self.warmer.observe(&self.ivs[self.pos].slices);
                    self.pos += 1;
                }
                p10_obs::counter("sampling.warm_ops", self.warmer.ops() - before);
                self.store.save(self.class, idx, &self.warmer);
            }
        }
        self.warmer.state()
    }
}

/// The shared sampled-measurement machinery: partition, cluster, and
/// measure (cold prefix + representatives) through the checkpoint-backed
/// warm cursor and the store's interval-measurement memo.
struct SampleCore {
    ivs: Vec<Interval>,
    total_ops: u64,
    sp: WeightedSimpoints,
    measured: Vec<Option<RepMeasurement>>,
    reps: Vec<RepMeasurement>,
    cluster_of: Vec<usize>,
    simulated_ops: u64,
    warmup_total: u64,
}

fn sample_core(
    cfg: &CoreConfig,
    name: &str,
    views: &[TraceView],
    interval_ops: usize,
    k: usize,
    warmup_ops: usize,
    store: &CkptStore,
) -> SampleCore {
    let ivs = partition(cfg, name, views, interval_ops, store);
    let total_ops: u64 = ivs.iter().map(|iv| iv.ops).sum();
    let bbvs: Vec<Vec<f64>> = ivs.iter().map(|iv| iv.bbv.clone()).collect();
    let weights: Vec<f64> = ivs.iter().map(|iv| iv.ops as f64).collect();
    let sp = if k >= ivs.len() {
        // At least one requested cluster per interval: bypass k-means —
        // it merges identical-BBV intervals whose true CPIs can still
        // differ, which would leave ops skipped under an understated
        // bound when the caller asked for full coverage. Measure every
        // interval directly instead (bound mode relies on this as its
        // measure-everything terminal round).
        let total: f64 = weights.iter().sum();
        WeightedSimpoints {
            selection: p10_trace::Selection {
                picks: weights
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (i, *w / total))
                    .collect(),
            },
            members: (0..ivs.len()).map(|i| vec![i]).collect(),
        }
    } else {
        simpoints_weighted(&bbvs, &weights, k, KMEANS_SEED)
    };

    // Measure the representatives on a single forward pass over the
    // trace: warming advances through the checkpoint-backed cursor (so a
    // warm-class repeat jumps boundary to boundary instead of replaying),
    // and each measurement is memoized in the store by (timing
    // projection, trace signature, interval geometry), so bound mode's
    // later rounds pay only for the representatives they add.
    let rep_set: HashSet<usize> = sp.selection.picks.iter().map(|&(rep, _)| rep).collect();
    let class = warm_class_key(cfg, name, views, interval_ops);
    let vsig = views_sig(name, views);
    let timing_json =
        serde_json::to_string(&runner::timing_projection(cfg)).expect("config serializes");
    let mut cursor = WarmCursor::new(cfg, &ivs, store, class);
    let mut measured: Vec<Option<RepMeasurement>> = (0..ivs.len()).map(|_| None).collect();
    // The cold-start transient — caches and predictor filling for the
    // very first time — has no BBV signature, so a warm representative
    // cannot stand in for the leading intervals. Detail them until two
    // consecutive measurements agree (capped at a quarter of the trace).
    let cold_cap = (ivs.len() / 4).max(1);
    let mut prev_cold_cpi: Option<f64> = None;
    let mut cold_done = false;
    for (idx, slot) in measured.iter_mut().enumerate() {
        let want_cold = !cold_done && idx < cold_cap;
        if want_cold || rep_set.contains(&idx) {
            let key =
                format!("sampmeas|{timing_json}|{vsig:016x}|{interval_ops}|{warmup_ops}|{idx}");
            let m = store.measurement(&key, || {
                simulate_interval(
                    cfg,
                    views,
                    interval_ops,
                    idx,
                    warmup_ops,
                    cursor.state_at(idx),
                )
            });
            *slot = Some(m);
        }
        if want_cold {
            let cpi = slot.as_ref().expect("just measured").cpi;
            if let Some(prev) = prev_cold_cpi {
                if (cpi - prev).abs() / cpi.max(1e-9) < COLD_TOL_REL {
                    cold_done = true;
                }
            }
            prev_cold_cpi = Some(cpi);
        }
    }
    let reps: Vec<RepMeasurement> = sp
        .selection
        .picks
        .iter()
        .map(|&(rep, _)| measured[rep].clone().expect("representative was measured"))
        .collect();
    let simulated_ops: u64 = measured
        .iter()
        .enumerate()
        .filter(|(_, m)| m.is_some())
        .map(|(i, _)| ivs[i].ops)
        .sum();
    let warmup_total: u64 = measured.iter().flatten().map(|r| r.warmup_ops).sum();

    // Interval -> cluster assignment for per-interval value lookup.
    let mut cluster_of = vec![0usize; ivs.len()];
    for (ci, members) in sp.members.iter().enumerate() {
        for &m in members {
            cluster_of[m] = ci;
        }
    }
    SampleCore {
        ivs,
        total_ops,
        sp,
        measured,
        reps,
        cluster_of,
        simulated_ops,
        warmup_total,
    }
}

/// Runs pre-built per-thread views in the given sampling mode, warming
/// through `store` and memoizing interval measurements in it (a private
/// store gives exact checkpoint-traffic counts regardless of what runs in
/// parallel).
///
/// Exact mode delegates to [`scenario::run_traces`] (bit-identical to the
/// reference path) with trivial stats; sampled modes partition, cluster,
/// simulate representatives, and reconstitute.
///
/// # Panics
///
/// Panics if `views` contains no ops (nothing to sample).
#[must_use]
pub fn run_traces_sampled_with(
    cfg: &CoreConfig,
    name: &str,
    views: Vec<TraceView>,
    mode: &SamplingMode,
    store: &CkptStore,
) -> SampledScenario {
    let total_ops: u64 = views.iter().map(|v| v.len() as u64).sum();
    assert!(total_ops > 0, "sampled run of an empty trace");
    match *mode {
        SamplingMode::Exact => {
            let result = scenario::run_traces(cfg, name, views);
            let stats = SamplingStats {
                mode: "exact".to_owned(),
                intervals: 0,
                clusters: 0,
                total_ops,
                simulated_ops: total_ops,
                skipped_ops: 0,
                warmup_ops: 0,
                cpi_est: result.sim.cpi(),
                power_est: result.core_power(),
                cpi_bound_rel: 0.0,
                power_bound_rel: 0.0,
                cv_cpi_error_pct: 0.0,
                cv_power_error_pct: 0.0,
                predicted_intervals: 0,
            };
            SampledScenario { result, stats }
        }
        _ => run_sampled_full(cfg, name, &views, mode, store).0,
    }
}

/// Raw cycle-placement ingredients of a sampled result, for synthesizing
/// a windowed [`ActivityTrace`] without re-simulating anything.
struct SynthParts {
    terms: Vec<(f64, Activity)>,
    interval_cycles: Vec<f64>,
}

/// Dispatches a non-exact mode to its runner, returning the synthesis
/// ingredients alongside the scenario.
fn run_sampled_full(
    cfg: &CoreConfig,
    name: &str,
    views: &[TraceView],
    mode: &SamplingMode,
    store: &CkptStore,
) -> (SampledScenario, SynthParts) {
    match *mode {
        SamplingMode::SimPoints {
            interval_ops,
            k,
            warmup_ops,
        } => run_simpoints(cfg, name, views, interval_ops, k, warmup_ops, store),
        SamplingMode::Bound { target_mpct } => run_bound(cfg, name, views, target_mpct, store),
        SamplingMode::Exact => unreachable!("exact handled by the caller"),
    }
}

/// The shared SimPoints machinery behind `simpoints:` and `bound:`.
fn run_simpoints(
    cfg: &CoreConfig,
    name: &str,
    views: &[TraceView],
    interval_ops: usize,
    k: usize,
    warmup_ops: usize,
    store: &CkptStore,
) -> (SampledScenario, SynthParts) {
    let SampleCore {
        ivs,
        total_ops,
        sp,
        measured,
        reps,
        cluster_of,
        simulated_ops,
        warmup_total,
    } = sample_core(cfg, name, views, interval_ops, k, warmup_ops, store);

    // Per-interval resolution: an interval's own detailed measurement
    // wins; otherwise its cluster's representative.
    let cpi_of = |i: usize| {
        measured[i]
            .as_ref()
            .map_or_else(|| reps[cluster_of[i]].cpi, |m| m.cpi)
    };
    let power_of = |i: usize| {
        measured[i]
            .as_ref()
            .map_or_else(|| reps[cluster_of[i]].power, |m| m.power)
    };
    let rec = reconstitute(
        cfg,
        name,
        views,
        &ivs,
        &measured,
        &cluster_of,
        &reps,
        &cpi_of,
        &power_of,
    );
    let Reconstituted {
        result,
        cpi_est,
        power_est,
        terms,
        interval_cycles,
    } = rec;

    // Boundary residue: per-interval measurement can be off by a
    // roughly constant number of cycles (functional-vs-detailed state
    // gap at the window edges), which is relatively large only when
    // intervals are short and CPI is low.
    #[allow(clippy::cast_precision_loss)]
    let boundary_rel = BOUNDARY_RESIDUE_CYCLES / (interval_ops as f64 * cpi_est.max(1e-3));
    #[allow(clippy::cast_precision_loss)]
    let floor = bound_floor_rel(
        (total_ops - simulated_ops) as f64 / total_ops.max(1) as f64,
        measured.iter().flatten().count(),
    );
    let cpi_bound = boundary_rel
        + spread_bound_rel(
            |r| r.cpi,
            cpi_est,
            &reps,
            &sp,
            &ivs,
            &measured,
            total_ops,
            floor,
        );
    let power_bound = boundary_rel
        + spread_bound_rel(
            |r| r.power,
            power_est,
            &reps,
            &sp,
            &ivs,
            &measured,
            total_ops,
            floor,
        );

    (
        SampledScenario {
            result,
            stats: SamplingStats {
                mode: format!("simpoints:{interval_ops}:{k}:{warmup_ops}"),
                intervals: ivs.len() as u64,
                clusters: sp.selection.len() as u64,
                total_ops,
                simulated_ops,
                skipped_ops: total_ops - simulated_ops,
                warmup_ops: warmup_total,
                cpi_est,
                power_est,
                cpi_bound_rel: cpi_bound,
                power_bound_rel: power_bound,
                cv_cpi_error_pct: 0.0,
                cv_power_error_pct: 0.0,
                predicted_intervals: 0,
            },
        },
        SynthParts {
            terms,
            interval_cycles,
        },
    )
}

/// Target-bound auto-tuning: run SimPoints with a doubling cluster
/// budget until the claimed bound meets the target, every interval is
/// measured, or the budget reaches the interval count. Rounds reuse
/// prior rounds' interval measurements (engine result cache) and warm
/// checkpoints (`store`), so round N+1 pays only for the representatives
/// it adds.
fn run_bound(
    cfg: &CoreConfig,
    name: &str,
    views: &[TraceView],
    target_mpct: u32,
    store: &CkptStore,
) -> (SampledScenario, SynthParts) {
    let max_len = views.iter().map(TraceView::len).max().unwrap_or(0);
    let interval_ops = (max_len / 64).max(2_500);
    let warmup_ops = interval_ops / 8;
    let target = f64::from(target_mpct) / 100_000.0;
    let n_intervals = max_len.div_ceil(interval_ops);
    let mut k = 4usize.min(n_intervals.max(1));
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let (mut s, parts) = run_simpoints(cfg, name, views, interval_ops, k, warmup_ops, store);
        let bound = s.stats.cpi_bound_rel.max(s.stats.power_bound_rel);
        if bound <= target {
            p10_obs::counter("sampling.bound_rounds", rounds);
            s.stats.mode = SamplingMode::Bound { target_mpct }.describe();
            return (s, parts);
        }
        if s.stats.skipped_ops == 0 || k >= n_intervals {
            break;
        }
        k = (k * 2).min(n_intervals);
    }
    // Even full interval coverage leaves the per-interval boundary
    // residue above the requested target: sampling cannot promise the
    // bound at this budget. Degrade to exact execution, which meets any
    // target by construction — the graceful small-budget endpoint.
    p10_obs::counter("sampling.bound_rounds", rounds);
    let total_ops: u64 = views.iter().map(|v| v.len() as u64).sum();
    let result = scenario::run_traces(cfg, name, views.to_vec());
    let activity = result.sim.activity;
    let stats = SamplingStats {
        mode: SamplingMode::Bound { target_mpct }.describe(),
        intervals: 1,
        clusters: 1,
        total_ops,
        simulated_ops: total_ops,
        skipped_ops: 0,
        warmup_ops: 0,
        cpi_est: result.sim.cpi(),
        power_est: result.core_power(),
        cpi_bound_rel: 0.0,
        power_bound_rel: 0.0,
        cv_cpi_error_pct: 0.0,
        cv_power_error_pct: 0.0,
        predicted_intervals: 0,
    };
    #[allow(clippy::cast_precision_loss)]
    let parts = SynthParts {
        terms: vec![(1.0, activity)],
        interval_cycles: vec![activity.cycles as f64],
    };
    (SampledScenario { result, stats }, parts)
}

/// Synthesizes a windowed [`ActivityTrace`] for a sampled result by
/// laying the per-interval activity terms end to end on the estimated
/// cycle axis and slicing at window boundaries.
///
/// Exactness contract (`trace.total() == activity`): cumulative weighted
/// sums are monotone per field (weights only grow window to window), so
/// per-window saturating deltas telescope to the full-weight sum, which
/// is the reconstituted activity for every field except the two pinned
/// ones — `cycles` is overwritten with exact window widths and the
/// `completed` rounding residue is settled against the final windows.
fn synthesize_trace(activity: &Activity, parts: &SynthParts, window_cycles: u64) -> ActivityTrace {
    assert!(window_cycles > 0, "window_cycles must be positive");
    let total_cycles = activity.cycles;
    if total_cycles == 0 {
        return ActivityTrace {
            window_cycles,
            windows: Vec::new(),
        };
    }
    // Cumulative end position of each interval on the cycle axis,
    // rescaled so the last boundary lands exactly on the pinned total.
    let raw_total: f64 = parts.interval_cycles.iter().sum();
    #[allow(clippy::cast_precision_loss)]
    let scale = if raw_total > 0.0 {
        total_cycles as f64 / raw_total
    } else {
        0.0
    };
    let mut bounds = Vec::with_capacity(parts.interval_cycles.len());
    let mut acc = 0.0f64;
    for c in &parts.interval_cycles {
        acc += c * scale;
        bounds.push(acc);
    }
    #[allow(clippy::cast_precision_loss)]
    if let Some(last) = bounds.last_mut() {
        *last = total_cycles as f64;
    }
    let nwin = usize::try_from(total_cycles.div_ceil(window_cycles)).expect("window count fits");
    let mut windows = Vec::with_capacity(nwin);
    let mut prev_cum = Activity::default();
    for w in 0..nwin {
        let start_cycle = w as u64 * window_cycles;
        let end_cycle = (start_cycle + window_cycles).min(total_cycles);
        #[allow(clippy::cast_precision_loss)]
        let end = end_cycle as f64;
        let wterms: Vec<(f64, Activity)> = parts
            .terms
            .iter()
            .enumerate()
            .map(|(i, &(tw, a))| {
                let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
                let hi = bounds[i];
                let span = hi - lo;
                let covered = if span <= 0.0 {
                    f64::from(u8::from(end >= hi))
                } else {
                    ((end - lo) / span).clamp(0.0, 1.0)
                };
                (tw * covered, a)
            })
            .collect();
        let cum = Activity::weighted_sum(&wterms);
        let mut win = cum.delta(&prev_cum);
        prev_cum = cum;
        win.cycles = end_cycle - start_cycle;
        windows.push(win);
    }
    // Settle the `completed` rounding residue (the only field whose
    // reconstituted total is pinned rather than the weighted sum).
    let sum: u64 = windows.iter().map(|w| w.completed).sum();
    if sum < activity.completed {
        if let Some(last) = windows.last_mut() {
            last.completed += activity.completed - sum;
        }
    } else {
        let mut excess = sum - activity.completed;
        for w in windows.iter_mut().rev() {
            if excess == 0 {
                break;
            }
            let cut = w.completed.min(excess);
            w.completed -= cut;
            excess -= cut;
        }
    }
    ActivityTrace {
        window_cycles,
        windows,
    }
}

/// Runs a non-exact sampled simulation *and* synthesizes the windowed
/// activity trace the DSE replay layer consumes — the sampled twin of
/// recording a run with [`p10_uarch::ActivityRecorder`]. The trace's
/// window totals fold back to exactly the reconstituted activity
/// (`trace.total() == result.sim.activity`), preserving the recording
/// contract downstream replay asserts.
///
/// # Panics
///
/// Panics on an exact mode (record exactly instead), an empty trace, or
/// `window_cycles == 0`.
#[must_use]
pub fn run_traces_sampled_traced(
    cfg: &CoreConfig,
    name: &str,
    views: Vec<TraceView>,
    mode: &SamplingMode,
    window_cycles: u64,
    store: &CkptStore,
) -> (SampledScenario, ActivityTrace) {
    assert!(!mode.is_exact(), "traced sampling needs a non-exact mode");
    let total_ops: u64 = views.iter().map(|v| v.len() as u64).sum();
    assert!(total_ops > 0, "sampled run of an empty trace");
    let (s, parts) = run_sampled_full(cfg, name, &views, mode, store);
    let trace = synthesize_trace(&s.result.sim.activity, &parts, window_cycles);
    (s, trace)
}

fn min_max(vals: impl Iterator<Item = f64>) -> (f64, f64) {
    vals.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

/// Linear CPI/power predictors fitted across *several* workloads'
/// measured intervals, so a new workload can fast-forward from one
/// representative interval ([`run_benchmark_predicted`]). Predictions are clamped
/// to the training range; the reported bounds carry the leave-one-out
/// cross-validated error with the usual safety factor.
pub struct CrossWorkloadModel {
    cpi: CvModel,
    power: CvModel,
    cpi_range: (f64, f64),
    power_range: (f64, f64),
    /// Detailed interval measurements the predictors were fitted on.
    pub training_rows: usize,
}

impl CrossWorkloadModel {
    /// Leave-one-out CV error of the CPI predictor (%).
    #[must_use]
    pub fn cv_cpi_error_pct(&self) -> f64 {
        self.cpi.cv_error_pct
    }

    /// Leave-one-out CV error of the power predictor (%).
    #[must_use]
    pub fn cv_power_error_pct(&self) -> f64 {
        self.power.cv_error_pct
    }
}

/// One detailed interval measurement as a cross-workload training row:
/// the interval's fast-forward features and its measured CPI and power.
#[derive(Debug)]
pub struct TrainingRow {
    features: Vec<f64>,
    cpi: f64,
    power: f64,
}

/// Collects one benchmark's cross-workload training rows: the benchmark
/// is partitioned, clustered, and measured exactly as a sampled run
/// would (sharing `store` checkpoints and memoized measurements with those
/// runs), and every detailed interval becomes a row, in interval order.
/// Benchmarks are independent, so their rows can be collected in
/// parallel and fitted together with [`fit_cross_workload`].
#[must_use]
pub fn cross_workload_rows(
    cfg: &CoreConfig,
    bench: &Benchmark,
    seed: u64,
    max_ops: u64,
    interval_ops: usize,
    k: usize,
    store: &CkptStore,
) -> Vec<TrainingRow> {
    let views = scenario::benchmark_views(cfg, bench, seed, max_ops);
    let core = sample_core(
        cfg,
        &bench.name,
        &views,
        interval_ops,
        k,
        interval_ops / 8,
        store,
    );
    core.measured
        .iter()
        .flatten()
        .map(|m| TrainingRow {
            features: interval_features(&core.ivs[m.interval]),
            cpi: m.cpi,
            power: m.power,
        })
        .collect()
}

/// Fits the cross-workload predictors on training rows (in the order
/// given). Returns `None` with fewer than four rows or when forward
/// selection finds no usable feature.
#[must_use]
pub fn fit_cross_workload(rows: &[TrainingRow], max_features: usize) -> Option<CrossWorkloadModel> {
    if rows.len() < 4 {
        return None;
    }
    let mut cpi_data = Dataset::new(feature_names());
    let mut power_data = Dataset::new(feature_names());
    for r in rows {
        cpi_data.push(r.features.clone(), r.cpi);
        power_data.push(r.features.clone(), r.power);
    }
    let opts = FitOptions::default();
    let (cpi, power) = forward_select_loo(&cpi_data, max_features, opts)
        .zip(forward_select_loo(&power_data, max_features, opts))?;
    Some(CrossWorkloadModel {
        cpi,
        power,
        cpi_range: min_max(rows.iter().map(|r| r.cpi)),
        power_range: min_max(rows.iter().map(|r| r.power)),
        training_rows: rows.len(),
    })
}

/// Fast-forwards a benchmark through a [`CrossWorkloadModel`]: only the
/// anchor interval — the medoid, whose feature row sits closest to the
/// trace's mean feature vector, so it represents steady state rather
/// than the cold-start transient — is simulated in detail (sharing its
/// memo key and warm-state checkpoints in `store` with
/// [`run_traces_sampled_with`]'s interval measurements); every other
/// interval's CPI and power come from the cross-workload predictors,
/// rescaled by the anchor's measured-over-predicted ratio so the
/// workload-level offset is calibrated out.
/// The counter mix is scaled from the anchor, so this is the cheapest —
/// and loosest — mode; its bounds carry the predictors' CV error.
///
/// # Panics
///
/// Panics if the benchmark produces no ops.
#[must_use]
pub fn run_benchmark_predicted(
    cfg: &CoreConfig,
    bench: &Benchmark,
    seed: u64,
    max_ops: u64,
    interval_ops: usize,
    model: &CrossWorkloadModel,
    store: &CkptStore,
) -> SampledScenario {
    let views = scenario::benchmark_views(cfg, bench, seed, max_ops);
    let ivs = partition(cfg, &bench.name, &views, interval_ops, store);
    let total_ops: u64 = ivs.iter().map(|iv| iv.ops).sum();
    assert!(total_ops > 0, "predicted run of an empty trace");
    let warmup_ops = interval_ops / 8;
    let rows: Vec<Vec<f64>> = ivs.iter().map(interval_features).collect();
    let dim = rows[0].len();
    #[allow(clippy::cast_precision_loss)]
    let mean: Vec<f64> = (0..dim)
        .map(|j| rows.iter().map(|r| r[j]).sum::<f64>() / rows.len() as f64)
        .collect();
    let anchor_idx = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let d: f64 = r.iter().zip(&mean).map(|(a, b)| (a - b) * (a - b)).sum();
            (i, d)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .map(|(i, _)| i)
        .expect("non-empty partition");
    let vsig = views_sig(&bench.name, &views);
    let timing_json =
        serde_json::to_string(&runner::timing_projection(cfg)).expect("config serializes");
    let class = warm_class_key(cfg, &bench.name, &views, interval_ops);
    let mut cursor = WarmCursor::new(cfg, &ivs, store, class);
    let key =
        format!("sampmeas|{timing_json}|{vsig:016x}|{interval_ops}|{warmup_ops}|{anchor_idx}");
    let m0 = store.measurement(&key, || {
        simulate_interval(
            cfg,
            &views,
            interval_ops,
            anchor_idx,
            warmup_ops,
            cursor.state_at(anchor_idx),
        )
    });
    let mut measured: Vec<Option<RepMeasurement>> = (0..ivs.len()).map(|_| None).collect();
    let anchor_warmup = m0.warmup_ops;
    measured[anchor_idx] = Some(m0.clone());
    let reps = vec![m0];
    let cluster_of = vec![0usize; ivs.len()];
    let clamp = |v: f64, (lo, hi): (f64, f64)| v.max(lo).min(hi);
    // Anchor-ratio calibration: the anchor interval is measured in
    // detail anyway, so the ratio between its measured CPI/power and the
    // model's prediction for that same interval captures the workload-
    // level offset the cross-workload fit cannot (training workloads can
    // sit at a very different operating point than the target). The
    // ratio is clamped so a degenerate anchor prediction cannot blow up
    // every other interval.
    let anchor = &reps[0];
    let anchor_row = &rows[anchor_idx];
    let scale = |measured: f64, raw: f64, range: (f64, f64)| {
        let base = clamp(raw, range);
        if base.abs() > 1e-9 {
            (measured / base).clamp(0.1, 10.0)
        } else {
            1.0
        }
    };
    let cpi_scale = scale(
        anchor.cpi,
        model.cpi.model.predict(anchor_row),
        model.cpi_range,
    );
    let power_scale = scale(
        anchor.power,
        model.power.model.predict(anchor_row),
        model.power_range,
    );
    let predicted: Vec<Option<(f64, f64)>> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            if i == anchor_idx {
                return None;
            }
            Some((
                clamp(model.cpi.model.predict(row), model.cpi_range) * cpi_scale,
                clamp(model.power.model.predict(row), model.power_range) * power_scale,
            ))
        })
        .collect();
    let cpi_of = |i: usize| {
        measured[i]
            .as_ref()
            .map_or_else(|| predicted[i].expect("predicted").0, |m| m.cpi)
    };
    let power_of = |i: usize| {
        measured[i]
            .as_ref()
            .map_or_else(|| predicted[i].expect("predicted").1, |m| m.power)
    };
    let rec = reconstitute(
        cfg,
        &bench.name,
        &views,
        &ivs,
        &measured,
        &cluster_of,
        &reps,
        &cpi_of,
        &power_of,
    );
    let simulated_ops = ivs[anchor_idx].ops;
    let skipped_ops = total_ops - simulated_ops;
    #[allow(clippy::cast_precision_loss)]
    let floor = bound_floor_rel(skipped_ops as f64 / total_ops as f64, 1);
    #[allow(clippy::cast_precision_loss)]
    let boundary_rel = BOUNDARY_RESIDUE_CYCLES / (interval_ops as f64 * rec.cpi_est.max(1e-3));
    SampledScenario {
        result: rec.result,
        stats: SamplingStats {
            mode: format!("xlearned:{interval_ops}"),
            intervals: ivs.len() as u64,
            clusters: 1,
            total_ops,
            simulated_ops,
            skipped_ops,
            warmup_ops: anchor_warmup,
            cpi_est: rec.cpi_est,
            power_est: rec.power_est,
            cpi_bound_rel: boundary_rel + model.cpi.cv_error_pct / 100.0 * CV_SAFETY + floor,
            power_bound_rel: boundary_rel + model.power.cv_error_pct / 100.0 * CV_SAFETY + floor,
            cv_cpi_error_pct: model.cpi.cv_error_pct,
            cv_power_error_pct: model.power.cv_error_pct,
            predicted_intervals: (ivs.len() - 1) as u64,
        },
    }
}

/// [`run_traces_sampled_with`] over a benchmark's per-thread-seeded
/// views — the sampled twin of [`scenario::run_benchmark`].
#[must_use]
pub fn run_benchmark_sampled(
    cfg: &CoreConfig,
    bench: &Benchmark,
    seed: u64,
    max_ops: u64,
    mode: &SamplingMode,
    store: &CkptStore,
) -> SampledScenario {
    run_traces_sampled_with(
        cfg,
        &bench.name,
        scenario::benchmark_views(cfg, bench, seed, max_ops),
        mode,
        store,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_uarch::AblationGroup;
    use p10_workloads::specint_like;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn simpoints_mode() -> SamplingMode {
        SamplingMode::SimPoints {
            interval_ops: 1_000,
            k: 4,
            warmup_ops: 125,
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        for text in ["exact", "bound:5", "bound:2.5", "bound:0.25"] {
            let m = SamplingMode::parse(text).expect("parses");
            assert_eq!(m.describe(), text);
        }
        // SimPoints has no CLI text, but still describes itself for cache
        // keys and the study's stdout.
        assert_eq!(simpoints_mode().describe(), "simpoints:1000:4:125");
        // A trailing percent sign is tolerated and normalized away.
        assert_eq!(
            SamplingMode::parse("bound:5%").expect("parses"),
            SamplingMode::Bound { target_mpct: 5_000 }
        );
        assert_eq!(
            SamplingMode::parse("bound:100").expect("parses"),
            SamplingMode::Bound {
                target_mpct: 100_000
            }
        );
        for bad in [
            "",
            "simpoint",
            "simpoints",
            "simpoints:1000:8:125",
            "simpoints:800:4",
            "simpoints:800:4:0",
            "simpoints:0:4",
            "simpoints:100:0",
            "simpoints:100:4:5:6",
            "learned:100",
            "learned:1000:4",
            "learned:1000:4:4",
            "exact:1",
            "simpoints:x:4",
            "bound",
            "bound:",
            "bound:0",
            "bound:0.0001",
            "bound:abc",
            "bound:101",
            "bound:-3",
            "bound:nan",
            "bound:inf",
            "bound:5:6",
            "bound:150%",
        ] {
            assert!(SamplingMode::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn bound_floor_grows_with_skipped_share() {
        assert!((bound_floor_rel(0.0, 4) - BOUND_FLOOR_MIN_REL).abs() < 1e-12);
        assert!(bound_floor_rel(1.0, 4) > bound_floor_rel(0.5, 4));
        assert!(
            bound_floor_rel(2.0, 4) <= bound_floor_rel(1.0, 4) + 1e-12,
            "clamped"
        );
        // At the calibration scale the evidence factor is exactly 1; more
        // measured intervals tighten, a lone anchor loosens (capped 2x).
        assert!(
            (bound_floor_rel(1.0, 4) - BOUND_FLOOR_MIN_REL - BOUND_FLOOR_SKIP_REL).abs() < 1e-12
        );
        assert!(bound_floor_rel(0.8, 16) < bound_floor_rel(0.8, 4));
        assert!(
            (bound_floor_rel(1.0, 1) - BOUND_FLOOR_MIN_REL - 2.0 * BOUND_FLOOR_SKIP_REL).abs()
                < 1e-12
        );
    }

    #[test]
    fn exact_mode_is_the_reference_path_with_trivial_stats() {
        let b = &specint_like()[8];
        let cfg = CoreConfig::power10();
        let s = run_benchmark_sampled(
            &cfg,
            b,
            1,
            4_000,
            &SamplingMode::Exact,
            &CkptStore::new(None),
        );
        let reference = scenario::run_benchmark(&cfg, b, 1, 4_000);
        assert_eq!(
            serde_json::to_string(&s.result).expect("json"),
            serde_json::to_string(&reference).expect("json"),
        );
        assert_eq!(s.stats.simulated_ops, s.stats.total_ops);
        assert_eq!(s.stats.skipped_ops, 0);
        assert_eq!(s.stats.cpi_bound_rel, 0.0);
    }

    #[test]
    fn sampled_run_covers_every_op_and_holds_its_invariants() {
        let b = &specint_like()[8];
        let cfg = CoreConfig::power10();
        let s = run_benchmark_sampled(&cfg, b, 1, 6_100, &simpoints_mode(), &CkptStore::new(None));
        assert_eq!(s.stats.total_ops, 6_100);
        assert_eq!(
            s.stats.simulated_ops + s.stats.skipped_ops,
            s.stats.total_ops
        );
        assert_eq!(s.stats.intervals, 7, "6100 ops @ 1000 = 6 full + tail");
        assert!(s.stats.clusters >= 1 && s.stats.clusters <= 4);
        assert!(s.stats.simulated_ops < s.stats.total_ops, "must skip work");
        // Reconstitution invariants exact results guarantee.
        assert_eq!(s.result.sim.activity.completed, 6_100);
        assert_eq!(
            s.result.sim.attribution.total(),
            s.result.sim.activity.cycles
        );
        assert_eq!(s.result.sim.total_completed(), 6_100);
        assert!(s.stats.cpi_est > 0.0 && s.stats.power_est > 0.0);
        assert!(s.stats.cpi_bound_rel >= BOUND_FLOOR_MIN_REL);
    }

    #[test]
    fn sampling_is_deterministic() {
        let b = &specint_like()[7];
        let cfg = CoreConfig::power10();
        let run =
            || run_benchmark_sampled(&cfg, b, 3, 5_000, &simpoints_mode(), &CkptStore::new(None));
        let (a, b2) = (run(), run());
        assert_eq!(
            serde_json::to_string(&a).expect("json"),
            serde_json::to_string(&b2).expect("json"),
        );
    }

    #[test]
    fn rebalance_partitions_exactly() {
        let a = CycleAttribution {
            active: 50,
            memory_bound: 60,
            ..CycleAttribution::default()
        };
        // Overshoot: 110 > 100 shaves the largest bucket.
        let r = rebalance(a, 100);
        assert_eq!(r.total(), 100);
        assert_eq!(r.memory_bound, 50);
        assert_eq!(r.idle, 0);
        // Undershoot: slack lands in idle.
        let r = rebalance(a, 200);
        assert_eq!(r.total(), 200);
        assert_eq!(r.idle, 90);
        // Degenerate: fewer cycles than any bucket can absorb.
        let r = rebalance(a, 0);
        assert_eq!(r.total(), 0);
    }

    #[test]
    fn sweep_warms_once_per_warm_class() {
        let store = CkptStore::new(None);
        let p10 = CoreConfig::power10();
        let views = scenario::benchmark_views(&p10, &specint_like()[6], 2, 4_000);
        // Eight configs, deliberately spanning fewer warm-equivalence
        // classes: queue sizes and latencies are timing-only, while cache
        // geometry / TLB / prefetcher changes are warm-relevant.
        let mut queues = p10.clone();
        queues.apply(AblationGroup::Queues);
        let mut slow_mul = p10.clone();
        slow_mul.mul_latency += 1;
        let mut big_iq = p10.clone();
        big_iq.issue_queue_entries *= 2;
        let mut small_l2 = p10.clone();
        small_l2.l2.size_bytes /= 2;
        let mut big_tlb = p10.clone();
        big_tlb.tlb_entries *= 4;
        let mut no_pf = p10.clone();
        no_pf.prefetch_streams = 0;
        let mut big_erat = p10.clone();
        big_erat.erat_entries *= 2;
        let cfgs = [
            p10.clone(),
            queues,
            slow_mul,
            big_iq,
            small_l2,
            big_tlb,
            no_pf,
            big_erat,
        ];
        let classes: HashSet<String> = cfgs
            .iter()
            .map(|c| serde_json::to_string(&runner::warm_projection(c)).expect("json"))
            .collect();
        assert!(
            classes.len() < cfgs.len(),
            "sweep must contain warm-equivalent configs ({} classes)",
            classes.len()
        );
        let mode = SamplingMode::SimPoints {
            interval_ops: 1_000,
            k: 3,
            warmup_ops: 0,
        };
        for cfg in &cfgs {
            let s = run_traces_sampled_with(cfg, "warmclass", views.clone(), &mode, &store);
            assert_eq!(s.result.sim.activity.completed, 4_000);
        }
        // The whole-trace warming pre-pass ran once per class — not once
        // per config.
        assert_eq!(store.warm_passes(), classes.len() as u64);
    }

    #[test]
    fn checkpoints_are_reused_across_runs_and_memo_runs_are_identical() {
        let store = CkptStore::new(None);
        let cfg = CoreConfig::power10();
        let views = scenario::benchmark_views(&cfg, &specint_like()[5], 9, 6_000);
        let cold = SamplingMode::SimPoints {
            interval_ops: 1_000,
            k: 3,
            warmup_ops: 0,
        };
        let s1 = run_traces_sampled_with(&cfg, "ckptreuse", views.clone(), &cold, &store);
        assert!(store.ckpt_bytes() > 0, "run 1 must write checkpoints");
        assert!(store.ckpt_misses() > 0, "run 1 starts from nothing");
        let hits_after_run1 = store.ckpt_hits();
        // Same trace and warm class, different warmup: the measurement
        // cache keys differ, so the intervals are genuinely re-simulated
        // — from run 1's checkpoints instead of replayed warming.
        let warm = SamplingMode::SimPoints {
            interval_ops: 1_000,
            k: 3,
            warmup_ops: 125,
        };
        let s2 = run_traces_sampled_with(&cfg, "ckptreuse", views.clone(), &warm, &store);
        assert!(
            store.ckpt_hits() > hits_after_run1,
            "run 2 must load run 1's checkpoints"
        );
        assert_eq!(s2.result.sim.activity.completed, 6_000);
        // An identical re-run on the same store is served from its
        // measurement memo and is byte-identical.
        let s1b = run_traces_sampled_with(&cfg, "ckptreuse", views, &cold, &store);
        assert_eq!(
            serde_json::to_string(&s1).expect("json"),
            serde_json::to_string(&s1b).expect("json"),
        );
    }

    #[test]
    fn fresh_stores_share_no_measurements() {
        // Two private stores running the same trace and mode each warm
        // and measure from scratch: same result, same checkpoint traffic.
        let cfg = CoreConfig::power10();
        let views = scenario::benchmark_views(&cfg, &specint_like()[4], 7, 6_000);
        let mode = SamplingMode::SimPoints {
            interval_ops: 1_000,
            k: 3,
            warmup_ops: 0,
        };
        let run = || {
            let store = CkptStore::new(None);
            let s = run_traces_sampled_with(&cfg, "isolation", views.clone(), &mode, &store);
            let json = serde_json::to_string(&s).expect("json");
            (json, (store.ckpt_misses(), store.ckpt_bytes()))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.0, b.0, "results must be byte-equal");
        assert!(a.1 .0 > 0 && a.1 .1 > 0, "a fresh store warms: {:?}", a.1);
        assert_eq!(a.1, b.1, "(ckpt_misses, ckpt_bytes) of store A vs B");
    }

    #[test]
    fn corrupt_disk_checkpoint_falls_back_to_rewarm() {
        let dir = std::env::temp_dir().join(format!("p10ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CoreConfig::power10();
        let store = CkptStore::new(Some(dir.clone()));
        let mut w = FunctionalWarmer::new(&cfg);
        let views = scenario::benchmark_views(&cfg, &specint_like()[3], 4, 512);
        w.observe(&views);
        store.save(7, 3, &w);
        // A fresh store (cold memo) restores it from disk.
        let fresh = CkptStore::new(Some(dir.clone()));
        assert!(fresh.load(&cfg, 7, 3).is_some());
        assert_eq!(fresh.ckpt_hits(), 1);
        // Truncate the blob on disk: the next fresh store must treat it
        // as a miss, not panic or return garbage.
        let path = dir.join(CkptStore::blob_name(7, 3));
        let bytes = std::fs::read(&path).expect("checkpoint file exists");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let fresh2 = CkptStore::new(Some(dir.clone()));
        assert!(fresh2.load(&cfg, 7, 3).is_none());
        assert_eq!(fresh2.ckpt_hits(), 0);
        assert_eq!(
            fresh2.ckpt_rejects(),
            1,
            "a present but bad blob is a reject"
        );
        // A missing blob is a plain miss, not a reject.
        assert!(fresh2.load(&cfg, 7, 4).is_none());
        assert_eq!(fresh2.ckpt_rejects(), 1);
        // Re-warming overwrites the blob under the same name; the healed
        // blob is a hit.
        fresh2.save(7, 3, &w);
        assert!(fresh2.load(&cfg, 7, 3).is_some());
        assert_eq!((fresh2.ckpt_hits(), fresh2.ckpt_rejects()), (1, 1));
        // A warm-feature file that is truncated, or holds the wrong
        // number of intervals, is recomputed once, counted as a reject
        // and overwritten; a fresh store then serves the healed file.
        let feats = vec![0.25, 0.5, 0.75];
        let feat_path = dir.join(CkptStore::feat_name(9));
        for bad in ["[0.25, 0.5", "[0.25, 0.5]"] {
            std::fs::write(&feat_path, bad).expect("write bad feature file");
            let store = CkptStore::new(Some(dir.clone()));
            let got = store.warm_features_cached(9, feats.len(), || feats.clone());
            assert_eq!(*got, feats, "{bad}");
            assert_eq!(
                (store.warm_passes(), store.ckpt_rejects()),
                (1, 1),
                "{bad}: one recompute, one reject"
            );
            let healed = CkptStore::new(Some(dir.clone()));
            let got = healed.warm_features_cached(9, feats.len(), || {
                panic!("{bad}: the healed file must be served from disk")
            });
            assert_eq!(*got, feats, "{bad}");
            assert_eq!((healed.warm_passes(), healed.ckpt_rejects()), (0, 0));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn feature_file_with_a_changed_digit_is_a_reject() {
        let dir = scratch_dir("feat-digit");
        let feats = vec![0.25, 0.5, 0.75];
        let _ = CkptStore::new(Some(dir.clone())).warm_features_cached(9, 3, || feats.clone());
        // 0.25 -> 0.35: still three numbers, so the length check passes.
        let path = dir.join(CkptStore::feat_name(9));
        let text = std::fs::read_to_string(&path).expect("feature file written");
        assert!(text.starts_with("[0.25,"), "{text}");
        std::fs::write(&path, text.replacen('2', "3", 1)).expect("change digit");
        let store = CkptStore::new(Some(dir.clone()));
        let got = store.warm_features_cached(9, 3, || feats.clone());
        assert_eq!(*got, feats, "a changed digit must not decode");
        assert_eq!((store.ckpt_rejects(), store.warm_passes()), (1, 1));
        let healed = CkptStore::new(Some(dir.clone()));
        let got = healed.warm_features_cached(9, 3, || panic!("the healed file must hit"));
        assert_eq!(*got, feats);
        assert_eq!((healed.ckpt_rejects(), healed.warm_passes()), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One way to damage a stored entry.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        /// Cut the entry at a random length.
        Truncate,
        /// Flip one random bit, trailer included.
        FlipBit,
        /// Replace it with a well-formed entry of another shape or format.
        Skew,
    }

    /// Applies `damage` to the file at `path`; `skew` is the replacement.
    fn damage(rng: &mut SmallRng, path: &std::path::Path, damage: Damage, skew: &[u8]) {
        let mut bytes = std::fs::read(path).expect("entry exists");
        match damage {
            Damage::Truncate => bytes.truncate(rng.gen_range(0..bytes.len())),
            Damage::FlipBit => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
            Damage::Skew => bytes = skew.to_vec(),
        }
        std::fs::write(path, &bytes).expect("damage entry");
    }

    /// `body` as a JSON store entry: the text plus its trailer line.
    fn framed(body: &str) -> Vec<u8> {
        format!(
            "{body}\nfnv1a64:{:016x}\n",
            runner::fnv1a64(body.as_bytes())
        )
        .into_bytes()
    }

    /// A `P10WARM2` blob relabelled as the older `P10WARM1` format, with
    /// its checksum fixed up so only the version tells it apart.
    fn warm1_blob(blob: &[u8]) -> Vec<u8> {
        let mut old = blob.to_vec();
        assert_eq!(&old[..8], b"P10WARM2");
        old[..8].copy_from_slice(b"P10WARM1");
        let n = old.len() - 8;
        let sum = runner::fnv1a64(&old[..n]);
        old[n..].copy_from_slice(&sum.to_le_bytes());
        old
    }

    /// Decode fuzzing at the store boundary: each of the three kinds of
    /// persisted entry, damaged at random, must read as a counted reject
    /// (never a panic or a different value) and heal on the recompute.
    #[test]
    fn damaged_entries_are_counted_rejects_that_heal() {
        const ROUNDS: usize = 40;
        const DAMAGES: [Damage; 3] = [Damage::Truncate, Damage::FlipBit, Damage::Skew];
        let mut rng = SmallRng::seed_from_u64(0x5707e);
        let dir = scratch_dir("fuzz");

        // Result-cache entries, through the engine that heals them.
        let engine = || {
            runner::Engine::new(runner::EngineConfig {
                disk_cache: Some(dir.join("cache")),
                ..runner::EngineConfig::default()
            })
        };
        let value: Vec<u64> = (0..64).map(|i| i * 977 + 54).collect();
        let _: Vec<u64> = engine().cached("plant", "point", || value.clone());
        let entry = dir
            .join("cache")
            .join(format!("{:016x}.json", runner::fnv1a64(b"point")));
        let skew = framed(r#"{"v":[1,2,3]}"#);
        for round in 0..ROUNDS {
            let d = DAMAGES[round % 3];
            damage(&mut rng, &entry, d, &skew);
            let eng = engine();
            let got: Vec<u64> = eng.cached("reread", "point", || value.clone());
            assert_eq!(got, value, "round {round} {d:?}");
            let c = eng.cache_counts();
            assert_eq!(
                (c.disk_decode_errors, c.disk_hits, c.computes),
                (1, 0, 1),
                "round {round} {d:?}: one counted reject, one recompute"
            );
            let healed = engine();
            let _: Vec<u64> = healed.cached("healed", "point", || panic!("round {round} healed"));
            assert_eq!(healed.cache_counts().disk_hits, 1, "round {round} {d:?}");
        }

        // Warm-feature vectors and P10WARM2 checkpoints, through the
        // checkpoint store that heals them.
        let ckpt_dir = dir.join("ckpt");
        let feats: Vec<f64> = (0..24).map(|i| f64::from(i) * 0.037 + 0.5).collect();
        let cfg = CoreConfig::power10();
        let mut warmer = FunctionalWarmer::new(&cfg);
        warmer.observe(&scenario::benchmark_views(&cfg, &specint_like()[3], 4, 512));
        let blob = warmer.to_bytes();
        let seeded = CkptStore::new(Some(ckpt_dir.clone()));
        let _ = seeded.warm_features_cached(9, feats.len(), || feats.clone());
        seeded.save(7, 3, &warmer);
        let feat_path = ckpt_dir.join(CkptStore::feat_name(9));
        let blob_path = ckpt_dir.join(CkptStore::blob_name(7, 3));
        let feat_skew = framed(r#"{"feats":[0.5]}"#);
        let blob_skew = warm1_blob(&blob);
        for round in 0..ROUNDS {
            let d = DAMAGES[round % 3];
            damage(&mut rng, &feat_path, d, &feat_skew);
            damage(&mut rng, &blob_path, d, &blob_skew);
            let store = CkptStore::new(Some(ckpt_dir.clone()));
            let got = store.warm_features_cached(9, feats.len(), || feats.clone());
            assert_eq!(*got, feats, "round {round} {d:?}");
            assert!(store.load(&cfg, 7, 3).is_none(), "round {round} {d:?}");
            assert_eq!(
                (store.ckpt_rejects(), store.warm_passes(), store.ckpt_hits()),
                (2, 1, 0),
                "round {round} {d:?}: two counted rejects, one recompute"
            );
            store.save(7, 3, &warmer);
            let healed = CkptStore::new(Some(ckpt_dir.clone()));
            let got = healed.warm_features_cached(9, feats.len(), || {
                panic!("round {round}: healed features must hit")
            });
            assert_eq!(*got, feats);
            let back = healed.load(&cfg, 7, 3).expect("healed blob decodes");
            assert_eq!(back.to_bytes(), blob);
            assert_eq!((healed.ckpt_rejects(), healed.warm_passes()), (0, 0));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_warmer_keeps_warming_byte_identically_at_smt2() {
        // A SPECint-like workload at SMT2 fills the L3 only partly, so
        // most lines stay default and are absent from the blob.
        let mut cfg = CoreConfig::power10();
        cfg.smt = p10_uarch::SmtMode::Smt2;
        let views = scenario::benchmark_views(&cfg, &specint_like()[3], 4, 40_000);
        let upto = |a: usize, b: usize| -> Vec<TraceView> {
            views
                .iter()
                .map(|v| v.slice(v.len() * a / 4..v.len() * b / 4))
                .collect()
        };
        let mut direct = FunctionalWarmer::new(&cfg);
        direct.observe(&upto(0, 2));
        let blob = direct.to_bytes();
        let mut restored = FunctionalWarmer::from_bytes(&cfg, &blob).expect("own blob decodes");
        assert_eq!(restored.to_bytes(), blob);
        let lines: u64 = [&cfg.l1i, &cfg.l1d, &cfg.l2, &cfg.l3]
            .iter()
            .map(|c| c.size_bytes / u64::from(c.line_bytes))
            .sum();
        // A dense line section alone would take 18 bytes per line.
        assert!(
            (blob.len() as u64) < 18 * lines / 4,
            "{} bytes for {lines} lines",
            blob.len()
        );
        for (a, b) in [(2, 3), (3, 4)] {
            direct.observe(&upto(a, b));
            restored.observe(&upto(a, b));
            assert_eq!(direct.to_bytes(), restored.to_bytes());
        }
    }

    /// A fresh, empty scratch directory unique to this test process.
    fn scratch_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("p10ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn disk_tier_store_keeps_no_blobs_in_memory() {
        let dir = scratch_dir("nomemo");
        let cfg = CoreConfig::power10();
        let views = scenario::benchmark_views(&cfg, &specint_like()[5], 9, 6_000);
        let mode = SamplingMode::SimPoints {
            interval_ops: 1_000,
            k: 3,
            warmup_ops: 0,
        };
        let store = CkptStore::new(Some(dir.clone()));
        let _ = run_traces_sampled_with(&cfg, "nomemo", views, &mode, &store);
        assert!(store.ckpt_bytes() > 0, "the run must write checkpoints");
        assert_eq!(
            store.memo_blobs(),
            0,
            "a disk-tier store must not memo blobs"
        );
        // A reload is served from disk and still counts as a hit.
        let mut w = FunctionalWarmer::new(&cfg);
        w.observe(&scenario::benchmark_views(&cfg, &specint_like()[3], 4, 512));
        store.save(7, 3, &w);
        let hits = store.ckpt_hits();
        assert!(store.load(&cfg, 7, 3).is_some());
        assert_eq!(store.ckpt_hits(), hits + 1);
        assert_eq!(store.memo_blobs(), 0);
        // A memory-only store keeps the same blob in its memo.
        let mem = CkptStore::new(None);
        mem.save(7, 3, &w);
        assert_eq!(mem.memo_blobs(), 1);
        assert!(mem.load(&cfg, 7, 3).is_some());
        assert_eq!(mem.ckpt_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_memo_hits_do_not_depend_on_save_interleaving() {
        let cfg = CoreConfig::power10();
        let mut w = FunctionalWarmer::new(&cfg);
        w.observe(&scenario::benchmark_views(&cfg, &specint_like()[3], 4, 512));
        // Two classes of 40 saves each: 80 saves overflow a store-wide
        // memo of 64, so a shared eviction would make what each class
        // keeps depend on the order the two classes saved in.
        const SAVES: usize = 40;
        let per_class_hits = |order: &[(u64, usize)]| {
            let store = CkptStore::new(None);
            for &(class, idx) in order {
                store.save(class, idx, &w);
            }
            [1u64, 2].map(|class| {
                (1..=SAVES)
                    .filter(|&idx| store.load(&cfg, class, idx).is_some())
                    .collect::<Vec<_>>()
            })
        };
        let interleaved: Vec<(u64, usize)> = (1..=SAVES).flat_map(|i| [(1, i), (2, i)]).collect();
        let one_then_other: Vec<(u64, usize)> = [1u64, 2]
            .iter()
            .flat_map(|&c| (1..=SAVES).map(move |i| (c, i)))
            .collect();
        let kept = per_class_hits(&interleaved);
        assert_eq!(kept, per_class_hits(&one_then_other));
        // Each class keeps its highest boundaries.
        let highest: Vec<usize> = (SAVES - CKPT_MEMO_CAP + 1..=SAVES).collect();
        assert_eq!(kept, [highest.clone(), highest]);
    }

    #[test]
    fn concurrent_same_key_checkpoint_saves_land_whole() {
        let dir = scratch_dir("race");
        let cfg = CoreConfig::power10();
        let mut w = FunctionalWarmer::new(&cfg);
        w.observe(&scenario::benchmark_views(
            &cfg,
            &specint_like()[3],
            4,
            2_000,
        ));
        let store = CkptStore::new(Some(dir.clone()));
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    store.save(7, 3, &w);
                });
            }
        });
        let back = CkptStore::new(Some(dir.clone()))
            .load(&cfg, 7, 3)
            .expect("the surviving blob must decode");
        assert_eq!(back.to_bytes(), w.to_bytes());
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir exists")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert_eq!(leftovers, Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_workload_fit_on_parallel_rows_matches_serial_training() {
        let cfg = CoreConfig::power10();
        let suite = specint_like();
        let benches = &suite[0..4];
        // Each side has its own store, so both measure every interval:
        // the parallel side on the pool, the serial side in order.
        let pool = runner::Engine::new(runner::EngineConfig {
            jobs: 4,
            ..runner::EngineConfig::default()
        });
        let store = CkptStore::new(None);
        let rows: Vec<TrainingRow> = pool
            .run_jobs_par(benches, |_, b| {
                cross_workload_rows(&cfg, b, 13, 5_000, 1_000, 3, &store)
            })
            .into_iter()
            .flatten()
            .collect();
        let par = fit_cross_workload(&rows, 4).expect("enough training rows");
        let serial_store = CkptStore::new(None);
        let serial_rows: Vec<TrainingRow> = benches
            .iter()
            .flat_map(|b| cross_workload_rows(&cfg, b, 13, 5_000, 1_000, 3, &serial_store))
            .collect();
        let serial = fit_cross_workload(&serial_rows, 4).expect("enough training rows");
        assert_eq!(par.training_rows, serial.training_rows);
        assert_eq!(
            par.cv_cpi_error_pct().to_bits(),
            serial.cv_cpi_error_pct().to_bits()
        );
        assert_eq!(
            par.cv_power_error_pct().to_bits(),
            serial.cv_power_error_pct().to_bits()
        );
        for r in &rows {
            assert_eq!(
                par.cpi.model.predict(&r.features).to_bits(),
                serial.cpi.model.predict(&r.features).to_bits()
            );
            assert_eq!(
                par.power.model.predict(&r.features).to_bits(),
                serial.power.model.predict(&r.features).to_bits()
            );
        }
    }

    #[test]
    fn bound_mode_meets_its_target_or_measures_everything() {
        let store = CkptStore::new(None);
        let cfg = CoreConfig::power10();
        let views = scenario::benchmark_views(&cfg, &specint_like()[4], 5, 30_000);
        let mode = SamplingMode::Bound { target_mpct: 8_000 };
        let s = run_traces_sampled_with(&cfg, "boundmode", views, &mode, &store);
        assert_eq!(s.stats.mode, "bound:8");
        assert_eq!(s.result.sim.activity.completed, 30_000);
        let bound = s.stats.cpi_bound_rel.max(s.stats.power_bound_rel);
        assert!(
            bound <= 0.08 || s.stats.skipped_ops == 0,
            "bound {bound} missed the target with {} ops skipped",
            s.stats.skipped_ops
        );
    }

    #[test]
    fn traced_sampling_partitions_activity_exactly() {
        let b = &specint_like()[8];
        let cfg = CoreConfig::power10();
        let views = scenario::benchmark_views(&cfg, b, 1, 6_100);
        let store = CkptStore::new(None);
        let (s, trace) =
            run_traces_sampled_traced(&cfg, &b.name, views, &simpoints_mode(), 500, &store);
        assert_eq!(trace.window_cycles, 500);
        assert_eq!(
            trace.total(),
            s.result.sim.activity,
            "windows must fold back to the reconstituted activity"
        );
        let cycle_sum: u64 = trace.windows.iter().map(|w| w.cycles).sum();
        assert_eq!(cycle_sum, s.result.sim.activity.cycles);
        for w in &trace.windows[..trace.windows.len() - 1] {
            assert_eq!(w.cycles, 500, "every window but the last is full");
        }
    }

    #[test]
    fn bound_fallback_to_exact_is_byte_identical_and_traceable() {
        // An impossible target at a tiny budget forces the bound loop's
        // exact fallback; the result must match the reference run
        // byte-for-byte and still synthesize a partition-exact trace.
        let b = &specint_like()[8];
        let cfg = CoreConfig::power10();
        let views = scenario::benchmark_views(&cfg, b, 1, 6_100);
        let mode = SamplingMode::Bound { target_mpct: 100 };
        let exact = scenario::run_traces(&cfg, &b.name, views.clone());
        let store = CkptStore::new(None);
        let (s, trace) = run_traces_sampled_traced(&cfg, &b.name, views, &mode, 500, &store);
        assert_eq!(s.stats.mode, "bound:0.1");
        assert_eq!(s.stats.skipped_ops, 0);
        assert_eq!(s.stats.cpi_bound_rel, 0.0);
        assert_eq!(
            serde_json::to_string(&exact).expect("serialize"),
            serde_json::to_string(&s.result).expect("serialize"),
            "exact fallback must be the reference result"
        );
        assert_eq!(trace.total(), s.result.sim.activity);
        let cycle_sum: u64 = trace.windows.iter().map(|w| w.cycles).sum();
        assert_eq!(cycle_sum, s.result.sim.activity.cycles);
    }

    #[test]
    fn cross_workload_model_predicts_an_unseen_benchmark() {
        let store = CkptStore::new(None);
        let cfg = CoreConfig::power10();
        let suite = specint_like();
        let rows: Vec<TrainingRow> = suite[0..3]
            .iter()
            .flat_map(|b| cross_workload_rows(&cfg, b, 11, 5_000, 1_000, 3, &store))
            .collect();
        let model = fit_cross_workload(&rows, 4).expect("enough training rows");
        assert!(model.training_rows >= 4);
        let s = run_benchmark_predicted(&cfg, &suite[3], 11, 5_000, 1_000, &model, &store);
        assert_eq!(s.stats.mode, "xlearned:1000");
        assert_eq!(s.result.sim.activity.completed, s.stats.total_ops);
        assert_eq!(s.stats.intervals, 5);
        assert_eq!(s.stats.predicted_intervals, 4);
        assert_eq!(s.stats.clusters, 1);
        assert!(s.stats.simulated_ops < s.stats.total_ops);
        assert!(s.stats.cpi_est > 0.0 && s.stats.power_est > 0.0);
        assert!(s.stats.cpi_bound_rel > 0.0 && s.stats.power_bound_rel > 0.0);
        assert_eq!(
            s.result.sim.attribution.total(),
            s.result.sim.activity.cycles
        );
    }
}
