//! The SERMiner derating studies: Fig. 13 (per-testcase derating) and
//! Fig. 14 (POWER9 vs POWER10 derating versus VT).

use crate::runner::Engine;
use p10_rtlsim::{run_detailed, Roi, RtlReport, ToggleDensity};
use p10_serminer::{derating_curve, derating_row, DeratingCurve, DeratingRow};
use p10_uarch::CoreConfig;
use p10_workloads::microbench::{derating_grid, DataInit, MicrobenchSpec};
use p10_workloads::{chopstix, specint_like, Benchmark};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

fn detailed(cfg: &CoreConfig, traces: Vec<p10_isa::TraceView>, init: DataInit) -> RtlReport {
    let toggle = match init {
        DataInit::Zero => ToggleDensity::zero_init(),
        DataInit::Random => ToggleDensity::random_init(),
    };
    let mut cfg = cfg.clone();
    cfg.smt = match traces.len() {
        1 => p10_uarch::SmtMode::St,
        2 => p10_uarch::SmtMode::Smt2,
        _ => p10_uarch::SmtMode::Smt4,
    };
    run_detailed(&cfg, traces, Roi::new(500, 2_000_000), toggle)
}

/// A memo whose map lock covers only the lookup: each key owns a
/// once-cell, so callers of one key wait for its single computation while
/// callers of other keys compute concurrently.
struct OnceMemo<V> {
    cells: Mutex<HashMap<u64, Arc<OnceLock<V>>>>,
}

impl<V: Clone> OnceMemo<V> {
    fn new() -> Self {
        OnceMemo {
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// The value for `key`, computing it on first use. The flag is `true`
    /// for the one caller whose `compute` ran.
    fn get_or_compute(&self, key: u64, compute: impl FnOnce() -> V) -> (V, bool) {
        let cell = Arc::clone(
            self.cells
                .lock()
                .expect("once memo poisoned")
                .entry(key)
                .or_default(),
        );
        let mut computed = false;
        let v = cell.get_or_init(|| {
            computed = true;
            compute()
        });
        (v.clone(), computed)
    }
}

/// A detailed run of one grid testcase, memoized process-wide.
///
/// Fig. 13 on POWER10 and the Fig. 14 POWER10 pass run the same leading
/// grid specs at the same op budget; since grid traces and the detailed
/// simulator are both deterministic, the report is fully determined by
/// `(config, spec, ops)` and can be shared. Concurrent pool jobs on one
/// key simulate it once (one `detailed_misses`, the rest hits); jobs on
/// different keys do not wait on each other.
fn grid_detailed(cfg: &CoreConfig, spec: &MicrobenchSpec, ops: u64) -> Arc<RtlReport> {
    let run = || {
        let traces: Vec<p10_isa::TraceView> = (0..spec.smt)
            .map(|t| spec.trace_view_or_panic(13 + u64::from(t), ops))
            .collect();
        detailed(cfg, traces, spec.init)
    };
    static MEMO: OnceLock<OnceMemo<Arc<RtlReport>>> = OnceLock::new();
    let key = {
        use std::hash::{Hash, Hasher};
        let mut h = p10_isa::Fnv1aHasher::new();
        serde_json::to_string(cfg)
            .expect("config json")
            .hash(&mut h);
        spec.hash(&mut h);
        ops.hash(&mut h);
        h.finish()
    };
    let (r, computed) = MEMO
        .get_or_init(OnceMemo::new)
        .get_or_compute(key, || Arc::new(run()));
    let counter = if computed {
        "trace.arena.detailed_misses"
    } else {
        "trace.arena.detailed_hits"
    };
    p10_obs::counter(counter, 1);
    r
}

/// The Fig. 13 dataset: derating per testcase (the Microprobe-style grid
/// plus SPEC proxy workloads).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig13 {
    /// Per-testcase rows, microbenchmarks first, then SPEC proxies.
    pub rows: Vec<DeratingRow>,
}

/// One Fig. 13 testcase.
enum Testcase {
    /// A Microprobe-style grid point. The ST/SMT labels describe the
    /// original testcase family; the kernels run on the configured core.
    Grid(MicrobenchSpec),
    /// The top hot-function proxy of a suite member (random data).
    Spec(Benchmark),
}

/// Runs Fig. 13 on a configuration: one pool job per testcase, rows in
/// testcase order.
#[must_use]
pub fn run_fig13(engine: &Engine, cfg: &CoreConfig, ops: u64, spec_benches: usize) -> Fig13 {
    let cases: Vec<Testcase> = derating_grid()
        .into_iter()
        .map(Testcase::Grid)
        .chain(
            specint_like()
                .into_iter()
                .take(spec_benches)
                .map(Testcase::Spec),
        )
        .collect();
    let rows = engine.run_jobs_par(&cases, |_, case| match case {
        Testcase::Grid(spec) => Some(derating_row(&spec.name(), &grid_detailed(cfg, spec, ops))),
        Testcase::Spec(b) => {
            let set = chopstix::extract(b.workload(29), ops.min(40_000), 3);
            set.proxies.first().map(|p| {
                let r = detailed(cfg, vec![p.trace(ops)], DataInit::Random);
                derating_row(&format!("{}_spec", b.name), &r)
            })
        }
    });
    Fig13 {
        rows: rows.into_iter().flatten().collect(),
    }
}

/// The Fig. 14 dataset: derating-vs-VT curves for POWER9 and POWER10,
/// merged across the same workload set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig14 {
    /// POWER9 curve.
    pub p9: DeratingCurve,
    /// POWER10 curve.
    pub p10: DeratingCurve,
}

impl Fig14 {
    /// Runtime-derating difference (P10 − P9) at a VT.
    #[must_use]
    pub fn runtime_gap_at(&self, vt: f64) -> f64 {
        let find = |c: &DeratingCurve| {
            c.runtime_by_vt
                .iter()
                .find(|(v, _)| (v - vt).abs() < 1e-9)
                .map_or(0.0, |&(_, d)| d)
        };
        find(&self.p10) - find(&self.p9)
    }
}

/// Runs Fig. 14 across the derating grid workloads: both configs' grid
/// runs go to the pool as one batch.
#[must_use]
pub fn run_fig14(engine: &Engine, ops: u64, vts: &[f64]) -> Fig14 {
    const SPECS: usize = 6;
    let cfgs = [CoreConfig::power9(), CoreConfig::power10()];
    let points: Vec<(&CoreConfig, MicrobenchSpec)> = cfgs
        .iter()
        .flat_map(|c| derating_grid().into_iter().take(SPECS).map(move |s| (c, s)))
        .collect();
    let reports = engine.run_jobs_par(&points, |_, &(cfg, spec)| grid_detailed(cfg, &spec, ops));
    let mut curves = cfgs.iter().zip(reports.chunks(SPECS)).map(|(cfg, rs)| {
        let refs: Vec<&RtlReport> = rs.iter().map(Arc::as_ref).collect();
        derating_curve(&cfg.name, &refs, vts)
    });
    let p9 = curves.next().expect("two curves");
    let p10 = curves.next().expect("two curves");
    Fig14 { p9, p10 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EngineConfig;

    #[test]
    fn once_memo_computes_a_key_once_for_concurrent_callers() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Barrier;
        let memo = OnceMemo::new();
        let runs = AtomicU32::new(0);
        let start = Barrier::new(4);
        let got: Vec<(Arc<u64>, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        memo.get_or_compute(7, || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Arc::new(42)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        let misses = got.iter().filter(|(_, computed)| *computed).count();
        assert_eq!((misses, got.len() - misses), (1, 3));
        assert!(got.iter().all(|(v, _)| Arc::ptr_eq(v, &got[0].0)));
    }

    #[test]
    fn once_memo_computes_distinct_keys_concurrently() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        // Each key's computation announces itself, then waits for the
        // other's: if the map lock were held across a computation, the
        // second could not start before the first's wait timed out.
        let memo = OnceMemo::new();
        let (tx_a, rx_a) = channel();
        let (tx_b, rx_b) = channel();
        let overlapped = |tx: std::sync::mpsc::Sender<()>, rx: std::sync::mpsc::Receiver<()>| {
            move || {
                let _ = tx.send(());
                rx.recv_timeout(Duration::from_secs(10)).is_ok()
            }
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| memo.get_or_compute(1, overlapped(tx_a, rx_b)));
            let b = s.spawn(|| memo.get_or_compute(2, overlapped(tx_b, rx_a)));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(
            (a, b),
            ((true, true), (true, true)),
            "computations did not overlap"
        );
    }

    #[test]
    fn fig13_rows_cover_grid_and_spec() {
        let f = run_fig13(
            &Engine::new(EngineConfig::default()),
            &CoreConfig::power10(),
            6_000,
            1,
        );
        assert_eq!(f.rows.len(), 12 + 1);
        for r in &f.rows {
            assert!(r.static_pct >= 0.0 && r.static_pct <= 100.0);
            // More aggressive VT classifies more latches vulnerable, so
            // runtime derating shrinks as VT rises.
            assert!(r.runtime_vt10 >= r.runtime_vt50);
            assert!(r.runtime_vt50 >= r.runtime_vt90);
        }
    }

    #[test]
    fn fig14_p10_runtime_derating_exceeds_p9() {
        let f = run_fig14(
            &Engine::new(EngineConfig::default()),
            6_000,
            &[0.1, 0.5, 0.9],
        );
        for vt in [0.1, 0.5, 0.9] {
            assert!(
                f.runtime_gap_at(vt) > 0.0,
                "P10 runtime derating must exceed P9 at VT={vt}"
            );
        }
    }
}
