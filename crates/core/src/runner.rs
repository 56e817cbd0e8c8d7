//! Parallel experiment-execution engine with a content-addressed result
//! cache.
//!
//! Every figure driver ultimately fans out `(CoreConfig, Benchmark, seed,
//! max_ops)` simulation points; this module runs those points across a
//! [`std::thread::scope`] worker pool (std-only — no external thread-pool
//! dependency) while keeping results bit-identical to the serial path and
//! output ordering stable.
//!
//! Two cache layers sit in front of the simulator:
//!
//! * an **in-process memo** so one `figures all` run never simulates the
//!   same point twice (e.g. the Fig. 12 bottom-up study re-reads the same
//!   windowed runs for all 39 component targets), and
//! * an optional **on-disk JSON cache** ([`crate::store::Store`]) so a
//!   warm re-run skips already-simulated points.
//!
//! Keys are content hashes of the full serialized configuration plus the
//! workload identity, seed, and op budget — a config tweak, new seed, or
//! different budget is a different point.
//!
//! Besides the points, both layers hold whole results under content keys
//! of their inputs: APEX reports (`powerstudies`), DSE recordings and
//! shards, the Fig. 6 models, and the typed result of every `figures`
//! driver that runs no benchmark points (all but `apex-speedup`, a
//! wall-clock measurement), so a warm `figures all` simulates almost
//! nothing. Per-job wall-clock timing and a
//! progress line (on stderr, so `--json` stdout stays parseable) make
//! long runs observable.
//!
//! An engine also carries the run's [`SamplingMode`] and its warm-state
//! [`CkptStore`], so an exact and a sampled engine can coexist in one
//! process.

use crate::sampling::{CkptStore, SamplingMode};
use crate::scenario::{run_benchmark, ScenarioResult, SuiteResult};
use crate::store::Store;
use p10_uarch::{CoreConfig, Scheduler};
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How an [`Engine`] should run jobs and cache results.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// Directory for the on-disk JSON cache; `None` disables it (the
    /// in-process memo is always on).
    pub disk_cache: Option<PathBuf>,
    /// Print a per-job progress/timing line to stderr.
    pub progress: bool,
}

/// Snapshot of an [`Engine`]'s cache-layer activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCounts {
    /// In-process memo hits.
    pub memo_hits: u64,
    /// On-disk cache hits.
    pub disk_hits: u64,
    /// Points actually simulated (both caches missed).
    pub computes: u64,
    /// Disk entries that existed but failed to decode (corrupt, or
    /// written in another format) and were recomputed.
    pub disk_decode_errors: u64,
}

#[derive(Default)]
struct CacheStats {
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
    computes: AtomicU64,
}

/// The execution engine: a worker-pool runner plus the two cache layers,
/// the sampling mode its benchmark points run in, and the checkpoint
/// store sampled runs warm through.
pub struct Engine {
    jobs: usize,
    disk: Option<Store>,
    progress: bool,
    memo: Mutex<HashMap<String, Box<dyn Any + Send + Sync>>>,
    stats: CacheStats,
    sampling: SamplingMode,
    ckpt: CkptStore,
}

impl Engine {
    /// Builds an exact engine with a memory-only checkpoint store from a
    /// configuration. A `jobs` of `0` means one worker per available CPU.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        let jobs = if config.jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            config.jobs
        };
        Engine {
            jobs,
            disk: config
                .disk_cache
                .map(|dir| Store::new(dir, "cache.disk_decode_errors")),
            progress: config.progress,
            memo: Mutex::new(HashMap::new()),
            stats: CacheStats::default(),
            sampling: SamplingMode::Exact,
            ckpt: CkptStore::new(None),
        }
    }

    /// This engine, running its benchmark points in `mode`.
    #[must_use]
    pub fn with_sampling(mut self, mode: SamplingMode) -> Self {
        self.sampling = mode;
        self
    }

    /// This engine, warming sampled runs through `store`.
    #[must_use]
    pub fn with_ckpt_store(mut self, store: CkptStore) -> Self {
        self.ckpt = store;
        self
    }

    /// The mode [`Engine::run_benchmark`] and the DSE recordings run in.
    #[must_use]
    pub fn sampling(&self) -> SamplingMode {
        self.sampling
    }

    /// The checkpoint store sampled runs on this engine warm through.
    #[must_use]
    pub fn ckpt_store(&self) -> &CkptStore {
        &self.ckpt
    }

    /// The worker-pool width this engine runs with.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The effective configuration this engine was built with (`jobs`
    /// already resolved to a concrete worker count).
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        EngineConfig {
            jobs: self.jobs,
            disk_cache: self.disk.as_ref().map(|s| s.dir().to_path_buf()),
            progress: self.progress,
        }
    }

    /// Cache-layer activity so far.
    #[must_use]
    pub fn cache_counts(&self) -> CacheCounts {
        CacheCounts {
            memo_hits: self.stats.memo_hits.load(Ordering::Relaxed),
            disk_hits: self.stats.disk_hits.load(Ordering::Relaxed),
            computes: self.stats.computes.load(Ordering::Relaxed),
            disk_decode_errors: self.disk.as_ref().map_or(0, Store::rejects),
        }
    }

    /// Order-preserving parallel map: applies `f` to every item on a
    /// scoped worker pool and returns results in item order.
    ///
    /// With one worker (or one item) this degenerates to a plain serial
    /// map, so results are bit-identical either way; `f` only ever sees
    /// `(index, item)` and must not depend on execution order.
    ///
    /// Counters stay job-count-invariant only if the jobs of one batch
    /// share no [`Engine::cached`] key and no warm-equivalence class
    /// (`sampling::CkptStore`): there is no in-flight dedup, so two jobs
    /// racing on one key both compute it and both count the compute, and
    /// two jobs on one warm class both warm it. Chain such work inside
    /// one job instead. Jobs may share a trace-arena key only at equal
    /// `max_ops` (the arena dedups those; a longer request racing a
    /// shorter one makes the grow count order-dependent). Fold `f64`
    /// results in item order after the join, and write `[obs]` gauges
    /// (last write wins) on the calling thread.
    pub fn run_jobs_par<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            let start = Instant::now();
            let out: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
            if n > 0 {
                p10_obs::counter("engine.worker00.jobs", n as u64);
                p10_obs::counter(
                    "engine.worker00.busy_us",
                    (start.elapsed().as_secs_f64() * 1e6) as u64,
                );
            }
            return out;
        }
        let pool_start = Instant::now();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for w in 0..workers {
                let (next, slots, f) = (&next, &slots, &f);
                s.spawn(move || {
                    p10_obs::set_thread_name(&format!("worker{w:02}"));
                    let mut done = 0u64;
                    let mut busy_us = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // How long the job sat queued before a worker
                        // picked it up (all jobs enqueue at pool start).
                        p10_obs::observe("runner.queue_wait", pool_start.elapsed().as_secs_f64());
                        let job_start = Instant::now();
                        let r = f(i, &items[i]);
                        busy_us += (job_start.elapsed().as_secs_f64() * 1e6) as u64;
                        *slots[i].lock().expect("result slot poisoned") = Some(r);
                        done += 1;
                    }
                    p10_obs::counter(&format!("engine.worker{w:02}.jobs"), done);
                    p10_obs::counter(&format!("engine.worker{w:02}.busy_us"), busy_us);
                    // Drain now: the thread-local buffer's exit-time drain
                    // may run after the scope has already returned.
                    p10_obs::flush();
                });
            }
        });
        slots
            .into_iter()
            .map(|c| {
                c.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker completed every claimed job")
            })
            .collect()
    }

    /// Memoized computation: returns the cached value for `key` if any
    /// layer holds it, otherwise runs `compute`, stores the result in
    /// both layers, and returns it.
    ///
    /// `label` is only for the progress line. Results must be
    /// deterministic functions of the key — the engine trusts the caller
    /// that equal keys mean equal results.
    ///
    /// Concurrent callers are not deduplicated: two threads that miss on
    /// the same key at once both run `compute`, and `cache.computes`
    /// counts both. Jobs of one [`Engine::run_jobs_par`] batch must
    /// therefore not share a key if their counters are to match a serial
    /// run's.
    pub fn cached<T, F>(&self, label: &str, key: &str, compute: F) -> T
    where
        T: Clone + Serialize + Deserialize + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let key = format!("{:016x}", fnv1a64(key.as_bytes()));
        if let Some(hit) = self.memo_get::<T>(&key) {
            self.stats.memo_hits.fetch_add(1, Ordering::Relaxed);
            p10_obs::counter("cache.memo_hits", 1);
            self.progress_line(label, "memo hit");
            return hit;
        }
        let name = format!("{key}.json");
        if let Some(hit) = self
            .disk
            .as_ref()
            .and_then(|s| s.read_json::<T>(&name).hit())
        {
            self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
            p10_obs::counter("cache.disk_hits", 1);
            self.memo_put(&key, hit.clone());
            self.progress_line(label, "disk hit");
            return hit;
        }
        let start = Instant::now();
        let sp = p10_obs::event_span(&format!("job:{label}"));
        let value = compute();
        sp.finish();
        let secs = start.elapsed().as_secs_f64();
        self.stats.computes.fetch_add(1, Ordering::Relaxed);
        p10_obs::counter("cache.computes", 1);
        p10_obs::observe("engine.compute_s", secs);
        self.progress_line(label, &format!("{secs:.2}s"));
        if let Some(store) = &self.disk {
            // Best-effort: a failed write leaves a miss, the result stands.
            store.write_json(&name, &value);
        }
        self.memo_put(&key, value.clone());
        value
    }

    /// Runs `f`, printing a per-job timing line (subject to the progress
    /// setting) — for expensive steps that are not cacheable points.
    pub fn timed<R>(&self, label: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.progress_line(label, &format!("{:.2}s", start.elapsed().as_secs_f64()));
        r
    }

    /// One (config, benchmark, seed, ops) simulation point through the
    /// cache.
    ///
    /// This is the single dispatch point for sampled execution: on an
    /// engine with a non-exact [`Engine::sampling`] mode, the point is
    /// simulated sampled through the engine's checkpoint store and cached
    /// as a [`crate::sampling::SampledScenario`] under a key extended
    /// with the mode text — sampled and exact results never collide, and
    /// the sampling `[obs]` counters are recorded even on cache hits.
    #[must_use]
    pub fn run_benchmark(
        &self,
        cfg: &CoreConfig,
        bench: &Benchmark,
        seed: u64,
        max_ops: u64,
    ) -> ScenarioResult {
        let label = format!(
            "{} @ {} x{} seed={seed} ops={max_ops}",
            bench.name,
            cfg.name,
            cfg.smt.threads()
        );
        let mode = self.sampling;
        if !mode.is_exact() {
            let key = format!(
                "{}|{}",
                point_key(cfg, bench, seed, max_ops),
                mode.describe()
            );
            let sampled: crate::sampling::SampledScenario =
                self.cached(&format!("{label} [{}]", mode.describe()), &key, || {
                    crate::sampling::run_traces_sampled_with(
                        cfg,
                        &bench.name,
                        crate::scenario::benchmark_views(cfg, bench, seed, max_ops),
                        &mode,
                        &self.ckpt,
                    )
                });
            crate::sampling::record_obs(&sampled.stats);
            return relabel(sampled.result, cfg);
        }
        relabel(
            self.cached(&label, &point_key(cfg, bench, seed, max_ops), || {
                run_benchmark(cfg, bench, seed, max_ops)
            }),
            cfg,
        )
    }

    /// Runs a whole suite on one configuration across the worker pool,
    /// result order matching the suite order (same as the serial path).
    #[must_use]
    pub fn run_suite(
        &self,
        cfg: &CoreConfig,
        suite: &[Benchmark],
        seed: u64,
        max_ops: u64,
    ) -> SuiteResult {
        SuiteResult {
            config: cfg.name.clone(),
            results: self.run_jobs_par(suite, |_, b| self.run_benchmark(cfg, b, seed, max_ops)),
        }
    }

    fn memo_get<T: Clone + 'static>(&self, key: &str) -> Option<T> {
        self.memo
            .lock()
            .expect("memo poisoned")
            .get(key)
            .and_then(|v| v.downcast_ref::<T>())
            .cloned()
    }

    fn memo_put<T: Send + Sync + 'static>(&self, key: &str, value: T) {
        self.memo
            .lock()
            .expect("memo poisoned")
            .insert(key.to_owned(), Box::new(value));
    }

    fn progress_line(&self, label: &str, outcome: &str) {
        if self.progress {
            p10_obs::progress(label, outcome);
        } else {
            p10_obs::mark(label, outcome);
        }
    }
}

/// Re-stamps a cached result with the requesting config's display name.
/// The cache key is the timing projection, so the entry may have been
/// computed under a different label; the simulation payload is
/// identical by construction and only the embedded names need fixing
/// for the result to be byte-identical to a fresh run.
fn relabel(mut result: ScenarioResult, cfg: &CoreConfig) -> ScenarioResult {
    result.config = cfg.name.clone();
    result.sim.config_name = cfg.name.clone();
    result
}

/// The canonical timing-relevant projection of a configuration: the
/// subset of [`CoreConfig`] that can change what the cycle-level
/// simulator produces.
///
/// Two fields are normalized away: `name` is a display label, and the
/// `scheduler` variants are proven bit-identical (`scheduler_diff.rs`
/// pins this across presets, suites, and a random-program property).
/// Everything else — widths, queue depths, cache geometry, SMT mode,
/// predictor sizes, `unified_regfile`, MMA — feeds the timing model
/// and stays in the key. Configs that agree on this projection produce
/// identical [`p10_uarch::SimResult`]s (modulo the embedded config
/// name), so they can share one detailed simulation.
#[must_use]
pub fn timing_projection(cfg: &CoreConfig) -> CoreConfig {
    let mut canon = cfg.clone();
    canon.name = String::new();
    canon.scheduler = Scheduler::EventDriven;
    canon
}

/// The canonical *warm-relevant* projection of a configuration: the
/// subset of [`CoreConfig`] that can change what functional warming
/// produces (cache/TLB/predictor content), which is strictly smaller
/// than the timing projection.
///
/// Functional warming replays ops through the caches, MMU, and branch
/// predictor only — so table **geometries** and **capacities** matter
/// (cache size/ways/line, predictor entries, ERAT/TLB entries, prefetch
/// streams, `perfect_l2`, SMT thread count), while every pure *timing*
/// parameter (latencies, widths, queue depths, ports, MMA, penalties)
/// does not. Configs that agree on this projection — e.g. a whole
/// queue-depth ablation sweep — produce bit-identical warm state and
/// can share one warm-state checkpoint (`sampling::CkptStore` keys on
/// it).
#[must_use]
pub fn warm_projection(cfg: &CoreConfig) -> CoreConfig {
    let mut canon = timing_projection(cfg);
    // Frontend and backend widths/queues: timing-only.
    canon.fetch_policy = p10_uarch::FetchPolicy::RoundRobin;
    canon.fetch_width = 0;
    canon.fetch_buffer = 0;
    canon.decode_width = 0;
    canon.fusion = false;
    canon.itable_entries = 0;
    canon.dispatch_width = 0;
    canon.completion_width = 0;
    canon.unified_regfile = false;
    canon.issue_queue_entries = 0;
    canon.issue_lookahead = 0;
    canon.int_slices = 0;
    canon.vsx_units = 0;
    canon.vsx_fp_latency = 0;
    canon.mul_latency = 0;
    canon.div_latency = 0;
    canon.branch_slices = 0;
    canon.mma = None;
    canon.load_ports = 0;
    canon.store_ports = 0;
    canon.load_bytes = 0;
    canon.load_queue = 0;
    canon.store_queue = 0;
    canon.load_miss_queue = 0;
    canon.store_merge = false;
    canon.store_drain_per_cycle = 0;
    // Latencies and penalties: timing-only (the warmer never charges
    // cycles; checkpoint decode re-derives them from the live config).
    canon.walk_latency = 0;
    canon.mem_latency = 0;
    canon.ea_tagged_l1 = false;
    canon.branch.mispredict_penalty = 0;
    canon.l1i.latency = 0;
    canon.l1d.latency = 0;
    canon.l2.latency = 0;
    canon.l3.latency = 0;
    canon
}

/// Stable content key for one simulation point: the canonical
/// timing-relevant projection of the configuration
/// ([`timing_projection`]) and the serialized benchmark, plus seed and
/// op budget. Keying on the projection rather than the full config
/// means two configs that differ only in non-timing fields (the
/// display name, the scheduler flavor) share one cache entry instead
/// of each paying for a full simulation.
#[must_use]
pub fn point_key(cfg: &CoreConfig, bench: &Benchmark, seed: u64, max_ops: u64) -> String {
    format!(
        "scenario|{}|{}|{seed}|{max_ops}",
        serde_json::to_string(&timing_projection(cfg)).expect("config serializes"),
        serde_json::to_string(bench).expect("benchmark serializes"),
    )
}

/// 64-bit FNV-1a, the engine's content-key digest.
pub use p10_isa::fnv1a64;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn scratch_dir(tag: &str) -> PathBuf {
        static UNIQ: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "p10sim-runner-{tag}-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn parallel_map_preserves_order() {
        let eng = Engine::new(EngineConfig {
            jobs: 4,
            ..EngineConfig::default()
        });
        let items: Vec<u64> = (0..100).collect();
        let out = eng.run_jobs_par(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn memo_skips_recompute() {
        let eng = Engine::new(EngineConfig::default());
        let calls = AtomicU32::new(0);
        for _ in 0..3 {
            let v: u64 = eng.cached("memo-test", "k", || {
                calls.fetch_add(1, Ordering::Relaxed);
                7
            });
            assert_eq!(v, 7);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn disk_cache_survives_a_fresh_engine() {
        let dir = scratch_dir("disk");
        let mk = || {
            Engine::new(EngineConfig {
                disk_cache: Some(dir.clone()),
                ..EngineConfig::default()
            })
        };
        let cold: Vec<f64> = mk().cached("cold", "point", || vec![1.5, 2.0, -3.25]);
        let warm: Vec<f64> = mk().cached("warm", "point", || panic!("must hit the disk cache"));
        assert_eq!(cold, warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vector for FNV-1a 64: hash of empty input is the
        // offset basis; "a" is a published test value.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn cache_counts_track_each_layer() {
        let dir = scratch_dir("counts");
        let eng = Engine::new(EngineConfig {
            disk_cache: Some(dir.clone()),
            ..EngineConfig::default()
        });
        let _: u64 = eng.cached("a", "k1", || 1); // compute
        let _: u64 = eng.cached("b", "k1", || panic!("memo must hit")); // memo
        let fresh = Engine::new(EngineConfig {
            disk_cache: Some(dir.clone()),
            ..EngineConfig::default()
        });
        let _: u64 = fresh.cached("c", "k1", || panic!("disk must hit")); // disk
        assert_eq!(
            eng.cache_counts(),
            CacheCounts {
                memo_hits: 1,
                computes: 1,
                ..CacheCounts::default()
            }
        );
        assert_eq!(fresh.cache_counts().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_counted_and_recomputed() {
        let dir = scratch_dir("corrupt");
        let eng = Engine::new(EngineConfig {
            disk_cache: Some(dir.clone()),
            ..EngineConfig::default()
        });
        let cold: Vec<u64> = eng.cached("plant", "point", || vec![4, 5, 6]);
        assert_eq!(cold, vec![4, 5, 6]);
        // Truncate the planted entry to simulate a torn/corrupted file.
        let key = format!("{:016x}", fnv1a64(b"point"));
        let path = dir.join(format!("{key}.json"));
        let text = std::fs::read_to_string(&path).expect("entry written");
        std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");

        let fresh = Engine::new(EngineConfig {
            disk_cache: Some(dir.clone()),
            ..EngineConfig::default()
        });
        let calls = AtomicU32::new(0);
        let warm: Vec<u64> = fresh.cached("reread", "point", || {
            calls.fetch_add(1, Ordering::Relaxed);
            vec![4, 5, 6]
        });
        assert_eq!(warm, cold, "corrupt entry must fall back to recompute");
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let counts = fresh.cache_counts();
        assert_eq!(counts.disk_decode_errors, 1);
        assert_eq!(counts.disk_hits, 0);
        assert_eq!(counts.computes, 1);
        // The recompute rewrote the entry, so a third engine disk-hits.
        let third = Engine::new(EngineConfig {
            disk_cache: Some(dir.clone()),
            ..EngineConfig::default()
        });
        let _: Vec<u64> = third.cached("healed", "point", || panic!("entry must be healed"));
        assert_eq!(third.cache_counts().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_that_is_not_utf8_is_counted_and_recomputed() {
        let dir = scratch_dir("not-utf8");
        let mk = || {
            Engine::new(EngineConfig {
                disk_cache: Some(dir.clone()),
                ..EngineConfig::default()
            })
        };
        let _: Vec<u64> = mk().cached("plant", "point", || vec![7, 8]);
        // Flip the high bit of the first byte: the entry is no longer UTF-8.
        let path = dir.join(format!("{:016x}.json", fnv1a64(b"point")));
        let mut bytes = std::fs::read(&path).expect("entry written");
        bytes[0] ^= 0x80;
        std::fs::write(&path, &bytes).expect("flip");
        let fresh = mk();
        let warm: Vec<u64> = fresh.cached("reread", "point", || vec![7, 8]);
        assert_eq!(warm, vec![7, 8]);
        assert_eq!(fresh.cache_counts().disk_decode_errors, 1);
        assert_eq!(fresh.cache_counts().computes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_with_a_changed_digit_is_counted_and_recomputed() {
        let dir = scratch_dir("digit");
        let mk = || {
            Engine::new(EngineConfig {
                disk_cache: Some(dir.clone()),
                ..EngineConfig::default()
            })
        };
        let value = vec![54.540_f64, 12.25];
        let _: Vec<f64> = mk().cached("plant", "point", || value.clone());
        // 54.54 -> 74.54: still valid JSON of the right shape, and the
        // same length.
        let path = dir.join(format!("{:016x}.json", fnv1a64(b"point")));
        let text = std::fs::read_to_string(&path).expect("entry written");
        assert!(text.starts_with("[54.54"), "{text}");
        std::fs::write(&path, text.replacen('5', "7", 1)).expect("change digit");
        let fresh = mk();
        let warm: Vec<f64> = fresh.cached("reread", "point", || value.clone());
        assert_eq!(warm, value, "a changed digit must not decode");
        let counts = fresh.cache_counts();
        assert_eq!(
            (counts.disk_decode_errors, counts.disk_hits, counts.computes),
            (1, 0, 1)
        );
        let third = mk();
        let _: Vec<f64> = third.cached("healed", "point", || panic!("entry must be healed"));
        assert_eq!(third.cache_counts().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Names in `dir` that look like leftover temp files.
    fn temp_leftovers(dir: &std::path::Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .expect("dir exists")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|n| n.contains(".tmp."))
            .collect()
    }

    #[test]
    fn concurrent_same_key_disk_writes_land_whole() {
        let dir = scratch_dir("race");
        let value: Vec<u64> = (0..20_000).collect();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    // A private engine per thread: every thread misses its
                    // memo and writes the same disk entry concurrently.
                    let eng = Engine::new(EngineConfig {
                        disk_cache: Some(dir.clone()),
                        ..EngineConfig::default()
                    });
                    start.wait();
                    let _: Vec<u64> = eng.cached("race", "point", || value.clone());
                });
            }
        });
        let fresh = Engine::new(EngineConfig {
            disk_cache: Some(dir.clone()),
            ..EngineConfig::default()
        });
        let back: Vec<u64> = fresh.cached("reread", "point", || panic!("entry must decode"));
        assert_eq!(back, value);
        assert_eq!(fresh.cache_counts().disk_decode_errors, 0);
        assert_eq!(temp_leftovers(&dir), Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn power_only_config_variants_share_one_cache_entry() {
        let eng = Engine::new(EngineConfig::default());
        let bench = p10_workloads::specint_like().remove(0);
        let a = CoreConfig::power10();
        let mut b = a.clone();
        b.name = "POWER10-renamed".into();
        b.scheduler = Scheduler::Polled;
        assert_eq!(
            point_key(&a, &bench, 1, 2000),
            point_key(&b, &bench, 1, 2000)
        );

        let ra = eng.run_benchmark(&a, &bench, 1, 2000);
        let rb = eng.run_benchmark(&b, &bench, 1, 2000);
        let counts = eng.cache_counts();
        assert_eq!(counts.computes, 1, "second variant must not re-simulate");
        assert_eq!(counts.memo_hits, 1);
        // The hit is relabeled for the requesting config, so it is
        // indistinguishable from a fresh simulation of `b`.
        assert_eq!(rb.config, "POWER10-renamed");
        assert_eq!(rb.sim.config_name, "POWER10-renamed");
        assert_eq!(rb.sim.activity, ra.sim.activity);
        assert_eq!(
            serde_json::to_string(&rb.power).expect("report serializes"),
            serde_json::to_string(&ra.power).expect("report serializes"),
        );
    }

    /// The process-wide total of one `[obs]` counter so far.
    fn obs_counter(name: &str) -> u64 {
        p10_obs::summary().counter(name)
    }

    #[test]
    fn exact_and_sampled_engines_coexist_in_one_process() {
        let bench = p10_workloads::specint_like().remove(2);
        let cfg = CoreConfig::power10();
        let (seed, ops) = (3, 20_000);
        let mode = SamplingMode::Bound {
            target_mpct: 50_000,
        };
        let exact = Engine::new(EngineConfig::default());
        let sampled = Engine::new(EngineConfig::default()).with_sampling(mode);
        assert!(exact.sampling().is_exact());
        assert_eq!(sampled.sampling(), mode);

        // The exact engine is the reference path.
        let json = |r: &ScenarioResult| serde_json::to_string(r).expect("result serializes");
        let reference = run_benchmark(&cfg, &bench, seed, ops);
        assert_eq!(
            json(&exact.run_benchmark(&cfg, &bench, seed, ops)),
            json(&reference)
        );

        // The sampled engine caches a `SampledScenario` under the key
        // extended with the mode text.
        let first = sampled.run_benchmark(&cfg, &bench, seed, ops);
        let key = format!("{}|{}", point_key(&cfg, &bench, seed, ops), mode.describe());
        let stored: crate::sampling::SampledScenario = sampled.cached("probe", &key, || {
            panic!("the sampled point must be cached under the mode-extended key")
        });
        assert_eq!(json(&stored.result), json(&first));
        assert_eq!(stored.stats.mode, "bound:50");
        assert!(stored.stats.skipped_ops > 0, "{:?}", stored.stats);
        assert_ne!(json(&first), json(&reference), "sampled must not be exact");

        // A memo hit still records the sampling counters, and is relabeled
        // for the requesting config.
        let before = obs_counter("sim.sample.intervals");
        let mut renamed = cfg.clone();
        renamed.name = "POWER10-sampled".into();
        let hit = sampled.run_benchmark(&renamed, &bench, seed, ops);
        assert!(obs_counter("sim.sample.intervals") >= before + stored.stats.intervals);
        assert_eq!(hit.config, "POWER10-sampled");
        assert_eq!(hit.sim.config_name, "POWER10-sampled");
        assert_eq!(hit.sim.activity, first.sim.activity);
        assert_eq!(sampled.cache_counts().computes, 1);
        assert_eq!(sampled.cache_counts().memo_hits, 2);
        // The exact engine never saw the sampled point.
        assert_eq!(exact.cache_counts().computes, 1);
        assert_eq!(exact.cache_counts().memo_hits, 0);
        // Warming went through the sampled engine's own store.
        assert!(sampled.ckpt_store().warm_passes() > 0);
        assert_eq!(exact.ckpt_store().warm_passes(), 0);
    }

    #[test]
    fn config_readback_reports_resolved_settings() {
        let dir = scratch_dir("readback");
        let eng = Engine::new(EngineConfig {
            jobs: 3,
            disk_cache: Some(dir.clone()),
            progress: true,
        });
        let cfg = eng.config();
        assert_eq!(cfg.jobs, 3);
        assert_eq!(cfg.disk_cache.as_deref(), Some(dir.as_path()));
        assert!(cfg.progress);
        // jobs: 0 resolves to a concrete count.
        assert!(Engine::new(EngineConfig::default()).config().jobs >= 1);
    }

    #[test]
    fn warm_projection_keeps_geometry_and_drops_timing() {
        let wp = |c: &CoreConfig| {
            serde_json::to_string(&warm_projection(c)).expect("projection serializes")
        };
        let base = CoreConfig::power9();
        // Queue depths, widths, and pure latencies never touch warm state.
        let mut queues = base.clone();
        queues.name = "P9+Queues".into();
        queues.apply(p10_uarch::AblationGroup::Queues);
        assert_eq!(
            wp(&base),
            wp(&queues),
            "queue ablation must share a warm class"
        );
        let mut lat = base.clone();
        lat.l1d.latency = 1;
        lat.mem_latency = 777;
        lat.walk_latency = 3;
        lat.branch.mispredict_penalty = 99;
        assert_eq!(wp(&base), wp(&lat), "latencies must share a warm class");
        // Capacities and geometries do.
        let mut l2 = base.clone();
        l2.apply(p10_uarch::AblationGroup::L2Cache);
        assert_ne!(wp(&base), wp(&l2));
        let mut bp = base.clone();
        bp.apply(p10_uarch::AblationGroup::BranchOperation);
        assert_ne!(wp(&base), wp(&bp));
        let mut tlb = base.clone();
        tlb.tlb_entries *= 4;
        assert_ne!(wp(&base), wp(&tlb));
    }
}
