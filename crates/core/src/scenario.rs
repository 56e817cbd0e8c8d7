//! Joint performance + power scenario execution.

use p10_isa::TraceView;
use p10_power::{PowerModel, PowerReport};
use p10_uarch::{Core, CoreConfig, CoreWork, SimResult, SmtMode};
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// Result of running one workload on one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Workload name.
    pub workload: String,
    /// Configuration name.
    pub config: String,
    /// Timing result.
    pub sim: SimResult,
    /// Power evaluation of the same window.
    pub power: PowerReport,
}

impl ScenarioResult {
    /// Aggregate instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.sim.ipc()
    }

    /// Core power (excludes the L2/L3 nest).
    #[must_use]
    pub fn core_power(&self) -> f64 {
        self.power.core_total()
    }

    /// Performance per watt (IPC / core power), iso-frequency.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        let p = self.core_power();
        if p <= 0.0 {
            0.0
        } else {
            self.ipc() / p
        }
    }
}

/// Builds `threads` staggered thread streams of `bench`'s workload seeded
/// `seed` as zero-copy views: **one** trace synthesis, then per-thread
/// `[skip, skip + max_ops)` windows by range arithmetic on the shared
/// buffer — no per-thread clone, no O(skip) `drain`.
///
/// The synthesis cap is padded to the SMT8 depth (`max_ops + 7 * 997`)
/// regardless of `threads`, so a sweep over SMT modes at one op budget
/// reuses a single arena buffer instead of growing it once per mode; by
/// the prefix property the shallower views are unaffected.
///
/// Element-identical to the clone-and-drain `staggered_traces` reference
/// (pinned by tests): with the full trace `F` capped at or beyond the
/// deepest needed cap, thread `t`'s legacy trace is exactly `F[min(skip, e) .. e]` where
/// `e = min(skip + max_ops, |F_legacy|)`, whether the program runs to its
/// cap or halts early. (`|F_legacy|` is recovered as
/// `min(|F|, skip + max_ops)` since `F` extends at least that far.)
#[must_use]
pub fn staggered_views(
    bench: &Benchmark,
    seed: u64,
    threads: usize,
    max_ops: u64,
) -> Vec<TraceView> {
    if threads == 0 {
        return Vec::new();
    }
    let deepest = max_ops + (threads as u64 - 1).max(7) * 997;
    let full = bench.trace_view_or_panic(seed, deepest);
    (0..threads)
        .map(|t| {
            let skip = t * 997;
            let end = full.len().min(skip + max_ops as usize);
            full.slice(skip.min(end)..end)
        })
        .collect()
}

/// Builds `threads` equal-length traces of one workload, thread `t`
/// starting `t * 997` dynamic instructions into the run.
///
/// A `Workload` is already synthesized (its generator seed is baked into
/// the program and memory image), so per-thread variation comes from
/// phase offsets rather than re-seeding: each thread replays the same
/// program from a different point, which is how rate-mode copies actually
/// interleave on hardware.
///
/// This is the clone-and-drain reference that tests pin
/// [`staggered_views`] against: it executes each thread's ops with
/// [`p10_isa::Machine::run_with`], outside any trace storage.
#[cfg(test)]
fn staggered_traces(
    workload: &p10_workloads::Workload,
    threads: usize,
    max_ops: u64,
) -> Vec<Vec<p10_isa::DynOp>> {
    (0..threads)
        .map(|t| {
            let skip = t as u64 * 997;
            let mut ops = Vec::new();
            workload
                .machine
                .clone()
                .run_with(&workload.program, max_ops + skip, |op| ops.push(op))
                .expect("workload executes");
            ops.drain(..ops.len().min(skip as usize));
            ops
        })
        .collect()
}

/// Runs one benchmark with per-thread seed variation (SMT threads run
/// *different* instances, like real rate-mode runs).
#[must_use]
pub fn run_benchmark(
    cfg: &CoreConfig,
    bench: &Benchmark,
    seed: u64,
    max_ops: u64,
) -> ScenarioResult {
    run_traces(cfg, &bench.name, benchmark_views(cfg, bench, seed, max_ops))
}

/// The per-thread trace views [`run_benchmark`] simulates: one workload
/// instance per SMT thread, seeds offset by thread index. Shared with the
/// sampled-execution path so exact and sampled runs of one point see the
/// same op streams.
#[must_use]
pub fn benchmark_views(
    cfg: &CoreConfig,
    bench: &Benchmark,
    seed: u64,
    max_ops: u64,
) -> Vec<TraceView> {
    (0..cfg.smt.threads())
        .map(|t| bench.trace_view_or_panic(seed + t as u64 * 101, max_ops))
        .collect()
}

/// Runs pre-built traces on the configuration and evaluates power.
#[must_use]
pub fn run_traces(cfg: &CoreConfig, name: &str, traces: Vec<TraceView>) -> ScenarioResult {
    let total_ops: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let (sim, work) = Core::new(cfg.clone()).run_counted(traces, total_ops * 8 + 100_000, None);
    record_detailed_obs(&sim, &work);
    let power = PowerModel::for_config(cfg).evaluate(&sim.activity);
    ScenarioResult {
        workload: name.to_owned(),
        config: cfg.name.clone(),
        sim,
        power,
    }
}

/// Emits one detailed run's `sim.*` counters and the core's `core.*`
/// work counts.
pub(crate) fn record_detailed_obs(sim: &SimResult, work: &CoreWork) {
    p10_obs::counter("sim.runs", 1);
    p10_obs::counter("sim.cycles", sim.activity.cycles);
    p10_obs::counter("sim.instructions", sim.activity.completed);
    for (name, value) in work.as_pairs() {
        p10_obs::counter(name, value);
    }
}

/// Results for a whole suite on one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteResult {
    /// Configuration name.
    pub config: String,
    /// Per-benchmark results.
    pub results: Vec<ScenarioResult>,
}

impl SuiteResult {
    /// Arithmetic-mean core power across the suite.
    #[must_use]
    pub fn mean_core_power(&self) -> f64 {
        let n = self.results.len().max(1) as f64;
        self.results
            .iter()
            .map(ScenarioResult::core_power)
            .sum::<f64>()
            / n
    }

    /// Result for a named workload.
    #[must_use]
    pub fn result(&self, workload: &str) -> Option<&ScenarioResult> {
        self.results.iter().find(|r| r.workload == workload)
    }
}

/// Suite-level comparison (new vs baseline) — the Table I quantities.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SuiteComparison {
    /// Geomean performance ratio (new / baseline).
    pub perf_ratio: f64,
    /// Mean core-power ratio (new / baseline).
    pub power_ratio: f64,
    /// Performance-per-watt ratio.
    pub efficiency_ratio: f64,
}

impl SuiteComparison {
    /// Compares `new` against `baseline` (per-benchmark ratio geomean for
    /// performance, mean-power ratio for power).
    ///
    /// # Panics
    ///
    /// Panics if the suites cover different benchmark sets — silently
    /// dropping unmatched benchmarks would make `perf_ratio` a geomean
    /// over a different set than `power_ratio`'s means (see
    /// [`SuiteComparison::try_between`] for the checked form).
    #[must_use]
    pub fn between(baseline: &SuiteResult, new: &SuiteResult) -> SuiteComparison {
        SuiteComparison::try_between(baseline, new).expect("suites must cover the same benchmarks")
    }

    /// Checked comparison: errors when the suites' benchmark sets differ,
    /// naming the unmatched benchmarks.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when a benchmark of `new`
    /// is missing from `baseline` or vice versa.
    pub fn try_between(
        baseline: &SuiteResult,
        new: &SuiteResult,
    ) -> Result<SuiteComparison, String> {
        let missing_from = |from: &SuiteResult, of: &SuiteResult| {
            of.results
                .iter()
                .filter(|r| from.result(&r.workload).is_none())
                .map(|r| r.workload.clone())
                .collect::<Vec<_>>()
        };
        let no_baseline = missing_from(baseline, new);
        let no_new = missing_from(new, baseline);
        if !no_baseline.is_empty() || !no_new.is_empty() {
            return Err(format!(
                "mismatched suites: missing from baseline {no_baseline:?}, missing from new {no_new:?}"
            ));
        }
        let perf_ratio = geomean(new.results.iter().filter_map(|r| {
            baseline
                .result(&r.workload)
                .map(|b| r.ipc() / b.ipc().max(1e-12))
        }));
        let power_ratio = new.mean_core_power() / baseline.mean_core_power().max(1e-12);
        Ok(SuiteComparison {
            perf_ratio,
            power_ratio,
            efficiency_ratio: perf_ratio / power_ratio.max(1e-12),
        })
    }
}

/// Geometric mean of an iterator of positive values (0 if empty).
#[must_use]
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Convenience: a POWER10 config in a given SMT mode.
#[must_use]
pub fn power10_smt(smt: SmtMode) -> CoreConfig {
    let mut c = CoreConfig::power10();
    c.smt = smt;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Engine, EngineConfig};
    use p10_workloads::{arena, specint_like};

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn scenario_produces_consistent_result() {
        let b = &specint_like()[8]; // exchangeish: small and fast
        let r = run_benchmark(&CoreConfig::power10(), b, 1, 20_000);
        assert_eq!(r.workload, "exchangeish");
        assert!(r.ipc() > 0.5);
        assert!(r.core_power() > 0.0);
        assert!(r.efficiency() > 0.0);
        assert_eq!(r.sim.activity.completed, 20_000);
    }

    #[test]
    fn smt4_runs_four_threads() {
        let b = &specint_like()[8];
        let cfg = power10_smt(SmtMode::Smt4);
        let r = run_benchmark(&cfg, b, 1, 5_000);
        assert_eq!(r.sim.threads, 4);
        assert_eq!(r.sim.activity.completed, 20_000);
    }

    #[test]
    fn smt_threads_see_divergent_traces() {
        let w = specint_like()[8].workload(1);
        let traces = staggered_traces(&w, 4, 2_000);
        assert_eq!(traces.len(), 4);
        for t in &traces {
            assert_eq!(t.len(), 2_000);
        }
        let rendered: Vec<String> = traces
            .iter()
            .map(|t| serde_json::to_string(t).expect("json"))
            .collect();
        for i in 1..rendered.len() {
            assert_ne!(
                rendered[0], rendered[i],
                "thread {i} must not replay thread 0's exact trace"
            );
        }
        // Determinism still holds: rebuilding gives identical traces.
        let again = staggered_traces(&w, 4, 2_000);
        assert_eq!(serde_json::to_string(&again[3]).expect("json"), rendered[3]);
    }

    #[test]
    fn staggered_views_are_zero_copy_and_element_identical() {
        // A seed no other test uses, so this test owns the arena entry.
        let b = &specint_like()[8];
        let w = b.workload(424_242);
        // The reference path executes outside the arena, so the views'
        // padded synthesis is this entry's only one.
        let views = staggered_views(b, 424_242, 4, 2_000);
        let legacy = staggered_traces(&w, 4, 2_000);
        assert_eq!(views.len(), legacy.len());
        for (v, t) in views.iter().zip(legacy.iter()) {
            assert!(v.iter().eq(t.iter().copied()));
        }
        // Zero-copy: every thread's view windows the same shared buffer.
        for v in &views[1..] {
            assert!(v.shares_storage(&views[0]));
        }
        // No per-thread op-buffer allocation: the four thread streams
        // cost exactly one synthesis, and repeating the call allocates
        // nothing new — the entry's synth count stays at one and the
        // views still alias the original storage.
        let key = w.content_hash();
        let (_, _, synths) = arena::global().entry_stats(key).expect("entry exists");
        assert_eq!(synths, 1, "4 thread views must synthesize once");
        let again = staggered_views(b, 424_242, 4, 2_000);
        assert!(again[0].shares_storage(&views[0]));
        let (_, _, synths) = arena::global().entry_stats(key).expect("entry exists");
        assert_eq!(synths, 1);
    }

    #[test]
    fn sweep_synthesizes_each_trace_once_per_process() {
        // A figures-all-shaped sweep: every SMT mode of both cores over a
        // few benchmarks at one op budget. Each thread's workload (one
        // generator key per benchmark, seed and thread) must be built
        // once and its trace synthesized once for the whole sweep; every
        // later request is served without building anything.
        let suite = specint_like();
        let seed = 776_001;
        for b in &suite[7..10] {
            for base in [CoreConfig::power9(), CoreConfig::power10()] {
                for smt in [SmtMode::St, SmtMode::Smt2, SmtMode::Smt4] {
                    let mut cfg = base.clone();
                    cfg.smt = smt;
                    let _ = run_benchmark(&cfg, b, seed, 3_000);
                }
            }
        }
        for b in &suite[7..10] {
            for t in 0..4 {
                let thread_seed = seed + t * 101;
                let (key, builds) = arena::global()
                    .alias_stats(b.generator_key(thread_seed))
                    .expect("sweep requested every thread's trace");
                assert_eq!(
                    builds, 1,
                    "{} thread {t}: workload built more than once",
                    b.name
                );
                assert_eq!(key, b.workload(thread_seed).content_hash());
                let (_, _, synths) = arena::global()
                    .entry_stats(key)
                    .expect("sweep populated the arena");
                assert_eq!(
                    synths, 1,
                    "{} thread {t}: trace synthesized more than once",
                    b.name
                );
            }
        }
    }

    #[test]
    fn concurrent_runs_share_the_arena_and_stay_bit_identical() {
        let suite = specint_like();
        let b = &suite[8];
        let seed = 555_123;
        let cfg = CoreConfig::power10();
        let sequential = run_benchmark(&cfg, b, seed, 2_000);
        let reference = serde_json::to_string(&sequential).expect("json");
        let results: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| run_benchmark(&cfg, b, seed, 2_000)))
                .collect();
            handles
                .into_iter()
                .map(|h| serde_json::to_string(&h.join().expect("no panic")).expect("json"))
                .collect()
        });
        for r in &results {
            assert_eq!(*r, reference, "concurrent run diverged");
        }
        let w = b.workload(seed);
        let (_, _, synths) = arena::global()
            .entry_stats(w.content_hash())
            .expect("entry exists");
        assert_eq!(synths, 1, "concurrent equal-cap requests must dedup");
    }

    mod view_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// For random (seed, max_ops, threads), the zero-copy view
            /// stream is element-identical to the legacy clone+drain
            /// path, including the early-halt edge cases.
            #[test]
            fn views_match_clone_drain(
                seed in 0u64..64,
                max_ops in 1u64..4_000,
                threads in 1usize..5,
            ) {
                let b = &specint_like()[8];
                let legacy = staggered_traces(&b.workload(seed), threads, max_ops);
                let views = staggered_views(b, seed, threads, max_ops);
                prop_assert_eq!(legacy.len(), views.len());
                for (t, v) in legacy.iter().zip(views.iter()) {
                    prop_assert_eq!(t, &v.iter().collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn mismatched_suites_are_rejected() {
        let suite = specint_like();
        let engine = Engine::new(EngineConfig::default());
        let a = engine.run_suite(&CoreConfig::power10(), &suite[8..9], 3, 5_000);
        let b = engine.run_suite(&CoreConfig::power9(), &suite[7..9], 3, 5_000);
        let err = SuiteComparison::try_between(&a, &b).unwrap_err();
        assert!(err.contains("mismatched suites"), "{err}");
        assert!(err.contains(&suite[7].name), "{err}");
        // And both orientations are checked.
        assert!(SuiteComparison::try_between(&b, &a).is_err());
    }

    #[test]
    fn comparison_of_identical_suites_is_unity() {
        let suite = &specint_like()[8..9];
        let a = Engine::new(EngineConfig::default()).run_suite(
            &CoreConfig::power10(),
            suite,
            3,
            10_000,
        );
        let cmp = SuiteComparison::between(&a, &a);
        assert!((cmp.perf_ratio - 1.0).abs() < 1e-9);
        assert!((cmp.power_ratio - 1.0).abs() < 1e-9);
        assert!((cmp.efficiency_ratio - 1.0).abs() < 1e-9);
    }
}
