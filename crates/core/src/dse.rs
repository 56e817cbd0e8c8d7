//! Incremental design-space exploration: thousand-config sweeps that
//! never simulate the same work twice.
//!
//! A DSE grid point is a [`CoreConfig`] (timing axes) plus
//! [`PowerKnobs`] (power-model / DVFS / WOF axes). Three reuse tiers
//! keep the sweep cheap, each bit-identical to naively simulating
//! every point:
//!
//! 1. **Simulation-key canonicalization** — the grid is partitioned
//!    into equivalence classes by
//!    [`crate::runner::timing_projection`]: only the `CoreConfig`
//!    fields that can change what the cycle-level simulator produces.
//!    One representative per class is simulated; every other point in
//!    the class replays its recording.
//! 2. **Activity-trace replay** — the representative runs span-observed
//!    with a [`p10_uarch::record::ActivityRecorder`], producing a
//!    windowed [`p10_uarch::record::ActivityTrace`] (cached in-memory
//!    and content-addressed on disk through the PR-1 engine). Points
//!    that differ only in power-model/DVFS/WOF constants re-evaluate
//!    the recorded windows through `p10_power` and replay the resulting
//!    power series through the `p10_powermgmt` governor — microseconds
//!    per point, no simulation (the EnergAIzer move).
//! 3. **Shards in the result cache** — grid points are sharded across
//!    the worker pool; each finished shard's results are one
//!    content-keyed [`Engine::cached`] entry, so a killed sweep resumes
//!    exactly where it left off (a torn entry is a counted decode error
//!    that recomputes) and the final frontier is byte-identical to an
//!    uninterrupted run.
//!
//! The output is a perf/watt Pareto frontier with the paper's
//! POWER9→POWER10 endpoints located on it (`figures dse` renders the
//! JSON + markdown artifact).

use crate::runner::{fnv1a64, timing_projection, Engine};
use crate::scenario::{benchmark_views, geomean, record_detailed_obs, ScenarioResult};
use p10_power::{DesignStyle, PowerModel, PowerReport};
use p10_powermgmt::governor::GovernorConfig;
use p10_powermgmt::replay::replay_power_series;
use p10_uarch::record::{ActivityRecorder, ActivityTrace};
use p10_uarch::{Core, CoreConfig, SimResult, SmtMode};
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Power-model / DVFS / WOF knobs of one grid point — the axes that
/// never require re-simulation, only trace replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerKnobs {
    /// Short label, unique within a knob grid (becomes part of the
    /// point name).
    pub label: String,
    /// Design-discipline override for the power model; `None` infers
    /// the style from the config (unified register file ⇒ POWER10
    /// clock-gated-by-default).
    pub style: Option<DesignStyle>,
    /// WOF socket power budget, as a multiple of the typical table's.
    pub budget_scale: f64,
    /// Maximum boost frequency (GHz).
    pub fmax: f64,
    /// Voltage/frequency curve slope (V per GHz).
    pub vf_slope: f64,
}

impl PowerKnobs {
    /// The typical WOF table, inferred design style.
    #[must_use]
    pub fn nominal() -> Self {
        PowerKnobs {
            label: "auto-b100-f48-s08".to_owned(),
            style: None,
            budget_scale: 1.0,
            fmax: 4.8,
            vf_slope: 0.08,
        }
    }

    /// The default 24-setting knob grid: 2 design styles × 3 power
    /// budgets × 2 boost ceilings × 2 VF slopes.
    #[must_use]
    pub fn grid() -> Vec<PowerKnobs> {
        let mut out = Vec::new();
        for style in [None, Some(DesignStyle::Legacy)] {
            for &budget_scale in &[0.8, 1.0, 1.2] {
                for &fmax in &[4.4, 4.8] {
                    for &vf_slope in &[0.06, 0.08] {
                        let tag = match style {
                            None => "auto",
                            Some(_) => "legacy",
                        };
                        out.push(PowerKnobs {
                            label: format!(
                                "{tag}-b{:03.0}-f{:02.0}-s{:02.0}",
                                budget_scale * 100.0,
                                fmax * 10.0,
                                vf_slope * 100.0
                            ),
                            style,
                            budget_scale,
                            fmax,
                            vf_slope,
                        });
                    }
                }
            }
        }
        out
    }

    /// The governor configuration these knobs describe.
    #[must_use]
    pub fn governor(&self) -> GovernorConfig {
        let mut g = GovernorConfig::typical();
        g.wof.power_budget *= self.budget_scale;
        g.wof.fmax = self.fmax;
        g.wof.vf.slope = self.vf_slope;
        g
    }
}

/// One design-space grid point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DsePoint {
    /// Unique point name (timing label + knob label).
    pub name: String,
    /// Timing axes.
    pub core: CoreConfig,
    /// Power / DVFS / WOF axes.
    pub knobs: PowerKnobs,
    /// Marks the paper's POWER9/POWER10 endpoints for the frontier
    /// rendering.
    pub paper: bool,
}

/// Sweep parameters shared by every point.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Workload seed.
    pub seed: u64,
    /// Op budget per benchmark per thread.
    pub max_ops: u64,
    /// Recording window width in cycles (also the governor's control
    /// interval during replay).
    pub window_cycles: u64,
    /// Grid points per result-cache shard.
    pub shard_points: usize,
}

impl DseConfig {
    /// Defaults: 512-cycle windows, 32-point shards.
    #[must_use]
    pub fn new(seed: u64, max_ops: u64) -> Self {
        DseConfig {
            seed,
            max_ops,
            window_cycles: 512,
            shard_points: 32,
        }
    }
}

/// One benchmark's recorded simulation at a class representative: the
/// timing result plus the windowed activity trace every point of the
/// class replays.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecordedRun {
    /// Detailed-simulation result (identical for every config in the
    /// timing class, modulo the embedded display name).
    pub sim: SimResult,
    /// Fixed-window activity deltas; their element-wise sum equals
    /// `sim.activity` (the recording contract, `DESIGN.md` §10).
    pub trace: ActivityTrace,
}

/// Evaluated metrics of one grid point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DsePointResult {
    /// Point name (from [`DsePoint`]).
    pub name: String,
    /// Timing-class content hash (shared by every point that replays
    /// the same recording).
    pub class: String,
    /// Knob label.
    pub knobs: String,
    /// SMT threads.
    pub threads: usize,
    /// Paper-endpoint marker.
    pub paper: bool,
    /// Geomean IPC across the suite (iso-frequency, from the detailed
    /// simulation).
    pub ipc: f64,
    /// Mean governed core frequency (GHz) across suite windows.
    pub mean_freq: f64,
    /// Iso-frequency core power in model units (suite mean).
    pub core_power: f64,
    /// Delivered performance: geomean over the suite of
    /// `IPC × f0 × perf_scale` (GHz·IPC pseudo-BIPS under the
    /// governed frequency and throttle).
    pub perf: f64,
    /// Governed socket power (WOF-table watts, suite mean).
    pub power: f64,
    /// `perf / power`.
    pub perf_per_watt: f64,
}

/// Deterministic sweep statistics (identical cold, warm, or resumed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DseStats {
    /// Grid points evaluated.
    pub points: u64,
    /// Distinct timing classes (detailed simulations per benchmark).
    pub classes: u64,
    /// Points deduplicated into an existing class (`points - classes`).
    pub class_dedup: u64,
    /// Points whose evaluation was pure trace replay — no simulation of
    /// their own (`points - classes`; the engine's cache counters track
    /// whether the class recordings themselves were warm).
    pub replay_hits: u64,
    /// Benchmarks in the suite.
    pub benches: u64,
    /// Result-cache shards the grid was split into.
    pub shards: u64,
}

/// Process-dependent reuse accounting for this invocation (differs
/// between cold, warm, and resumed runs; never part of the artifact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DseRunStats {
    /// Shards evaluated in this process.
    pub shards_computed: u64,
    /// Shards served from the result cache.
    pub shards_resumed: u64,
    /// Class recordings actually simulated here (engine cache misses).
    pub recordings_simulated: u64,
}

/// The sweep artifact: every point, the Pareto frontier, and the
/// deterministic statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DseResult {
    /// Per-point metrics, in grid order.
    pub points: Vec<DsePointResult>,
    /// Indices into `points` on the perf/watt Pareto frontier, sorted
    /// by ascending power.
    pub frontier: Vec<usize>,
    /// Deterministic sweep statistics.
    pub stats: DseStats,
}

/// A [`DseResult`] plus this invocation's process-dependent reuse
/// accounting.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// The deterministic artifact.
    pub result: DseResult,
    /// What this process actually had to do.
    pub run: DseRunStats,
}

/// Content hash of a config's timing class: two configs with equal
/// hashes produce identical detailed simulations (modulo display name)
/// and share one recording.
#[must_use]
pub fn timing_class(core: &CoreConfig) -> String {
    let canon = serde_json::to_string(&timing_projection(core)).expect("config serializes");
    format!("{:016x}", fnv1a64(canon.as_bytes()))
}

/// Records one benchmark at a class representative: a detailed,
/// span-observed simulation producing both the timing result and the
/// windowed activity trace. Mirrors `scenario::run_traces` exactly
/// (same views, same cycle cap, same counters), with the recorder
/// riding along on the span path.
#[must_use]
pub fn record_benchmark(
    cfg: &CoreConfig,
    bench: &Benchmark,
    seed: u64,
    max_ops: u64,
    window_cycles: u64,
) -> RecordedRun {
    let traces = benchmark_views(cfg, bench, seed, max_ops);
    let total_ops: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let mut rec = ActivityRecorder::new(window_cycles);
    let (sim, work) =
        Core::new(cfg.clone()).run_counted(traces, total_ops * 8 + 100_000, Some(&mut rec));
    record_detailed_obs(&sim, &work);
    p10_obs::counter("sim.observed_runs", 1);
    let trace = rec.finish(&sim.activity);
    debug_assert_eq!(trace.total(), sim.activity, "recording contract");
    RecordedRun { sim, trace }
}

/// The sampled twin of [`record_benchmark`]: runs the benchmark through
/// [`crate::sampling::run_traces_sampled_traced`] (SimPoint measurement
/// with warming checkpointed in `store`) and synthesizes the windowed activity
/// trace from the reconstituted per-interval cycle placement. The trace
/// upholds the same recording contract (`trace.total() == sim.activity`)
/// downstream replay relies on, so every replay tier works unchanged on
/// sampled recordings.
///
/// # Panics
///
/// Panics if `mode` is exact — exact recording goes through
/// [`record_benchmark`].
#[must_use]
pub fn record_benchmark_sampled(
    cfg: &CoreConfig,
    bench: &Benchmark,
    seed: u64,
    max_ops: u64,
    window_cycles: u64,
    mode: &crate::sampling::SamplingMode,
    store: &crate::sampling::CkptStore,
) -> RecordedRun {
    let views = benchmark_views(cfg, bench, seed, max_ops);
    let (s, trace) = crate::sampling::run_traces_sampled_traced(
        cfg,
        &bench.name,
        views,
        mode,
        window_cycles,
        store,
    );
    crate::sampling::record_obs(&s.stats);
    p10_obs::counter("sim.runs", 1);
    p10_obs::counter("sim.cycles", s.result.sim.activity.cycles);
    p10_obs::counter("sim.instructions", s.result.sim.activity.completed);
    debug_assert_eq!(trace.total(), s.result.sim.activity, "recording contract");
    RecordedRun {
        sim: s.result.sim,
        trace,
    }
}

/// Reconstructs the exact [`crate::scenario::run_benchmark`] result for
/// `cfg` from a recording of its timing class — byte-identical to a
/// fresh detailed simulation (pinned by `tests/dse_diff.rs`).
#[must_use]
pub fn scenario_from_recording(
    run: &RecordedRun,
    cfg: &CoreConfig,
    workload: &str,
) -> ScenarioResult {
    let mut sim = run.sim.clone();
    sim.config_name = cfg.name.clone();
    let power = PowerModel::for_config(cfg).evaluate(&sim.activity);
    ScenarioResult {
        workload: workload.to_owned(),
        config: cfg.name.clone(),
        sim,
        power,
    }
}

/// The cache-key suffix of an engine's sampling mode: empty when exact
/// (exact keys unchanged — existing caches stay valid), else the mode
/// text, so sampled and exact entries never alias.
fn mode_suffix(engine: &Engine) -> String {
    let mode = engine.sampling();
    if mode.is_exact() {
        String::new()
    } else {
        format!("|{}", mode.describe())
    }
}

fn recorded_run(
    engine: &Engine,
    core: &CoreConfig,
    bench: &Benchmark,
    cfg: &DseConfig,
    simulated: &AtomicU64,
) -> RecordedRun {
    // An engine with a non-exact sampling mode records each class
    // through sampled measurement.
    let sampling = Some(engine.sampling()).filter(|m| !m.is_exact());
    let key = format!(
        "dse_trace|{}|{}|{}|{}|{}{}",
        serde_json::to_string(&timing_projection(core)).expect("config serializes"),
        serde_json::to_string(bench).expect("benchmark serializes"),
        cfg.seed,
        cfg.max_ops,
        cfg.window_cycles,
        mode_suffix(engine),
    );
    let label = format!(
        "dse record {} @ class {} x{} ops={}",
        bench.name,
        timing_class(core),
        core.smt.threads(),
        cfg.max_ops
    );
    engine.cached(&label, &key, || {
        simulated.fetch_add(1, Ordering::Relaxed);
        match &sampling {
            Some(m) => record_benchmark_sampled(
                core,
                bench,
                cfg.seed,
                cfg.max_ops,
                cfg.window_cycles,
                m,
                engine.ckpt_store(),
            ),
            None => record_benchmark(core, bench, cfg.seed, cfg.max_ops, cfg.window_cycles),
        }
    })
}

fn point_model(point: &DsePoint) -> PowerModel {
    match point.knobs.style {
        Some(style) => PowerModel::with_style(&point.core, style),
        None => PowerModel::for_config(&point.core),
    }
}

/// Evaluates one grid point from its class recordings: power-model
/// window replay plus a governor pass over the active-power series.
fn eval_point(
    point: &DsePoint,
    recordings: &BTreeMap<(String, String), RecordedRun>,
    suite: &[Benchmark],
    ref_active: f64,
) -> DsePointResult {
    let class = timing_class(&point.core);
    let model = point_model(point);
    let gov = point.knobs.governor();
    let f0 = gov.wof.vf.f0;
    let mut ipcs = Vec::with_capacity(suite.len());
    let mut perfs = Vec::with_capacity(suite.len());
    let (mut power_sum, mut core_power_sum, mut freq_sum) = (0.0, 0.0, 0.0);
    for bench in suite {
        let run = &recordings[&(class.clone(), bench.name.clone())];
        let series: Vec<f64> = model
            .evaluate_windows(&run.trace.windows)
            .iter()
            .map(PowerReport::active)
            .collect();
        let out = replay_power_series(&gov, &series, ref_active);
        let ipc = run.sim.ipc();
        ipcs.push(ipc);
        perfs.push(ipc * f0 * out.perf_scale);
        power_sum += out.mean_power;
        freq_sum += out.mean_freq;
        core_power_sum += model.evaluate(&run.sim.activity).core_total();
    }
    let n = suite.len().max(1) as f64;
    let perf = geomean(perfs.into_iter());
    let power = power_sum / n;
    DsePointResult {
        name: point.name.clone(),
        class,
        knobs: point.knobs.label.clone(),
        threads: point.core.smt.threads(),
        paper: point.paper,
        ipc: geomean(ipcs.into_iter()),
        mean_freq: freq_sum / n,
        core_power: core_power_sum / n,
        perf,
        power,
        perf_per_watt: if power > 0.0 { perf / power } else { 0.0 },
    }
}

/// `a` Pareto-dominates `b`: no worse on both axes, better on one.
fn dominates(a: &DsePointResult, b: &DsePointResult) -> bool {
    a.perf >= b.perf && a.power <= b.power && (a.perf > b.perf || a.power < b.power)
}

/// Indices of the perf/watt Pareto frontier (maximize perf, minimize
/// power), sorted by ascending power then name.
#[must_use]
pub fn pareto_frontier(points: &[DsePointResult]) -> Vec<usize> {
    let mut frontier: Vec<usize> = (0..points.len())
        .filter(|&i| !points.iter().any(|other| dominates(other, &points[i])))
        .collect();
    frontier.sort_by(|&a, &b| {
        points[a]
            .power
            .partial_cmp(&points[b].power)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| points[a].name.cmp(&points[b].name))
    });
    frontier
}

fn shard_key(
    engine: &Engine,
    shard: &[DsePoint],
    suite: &[Benchmark],
    cfg: &DseConfig,
    ref_active: f64,
) -> String {
    format!(
        "dse_shard|{}|{}|{}|{}|{}|{:016x}{}",
        serde_json::to_string(shard).expect("points serialize"),
        serde_json::to_string(suite).expect("suite serializes"),
        cfg.seed,
        cfg.max_ops,
        cfg.window_cycles,
        ref_active.to_bits(),
        mode_suffix(engine),
    )
}

/// Runs one sweep: record one trace per (timing class, benchmark),
/// replay every grid point, cache each shard's results, and return the
/// Pareto frontier. Deterministic: the result is
/// byte-identical whether the caches were cold, warm, or mid-sweep.
#[must_use]
pub fn run_dse(
    engine: &Engine,
    grid: &[DsePoint],
    suite: &[Benchmark],
    cfg: &DseConfig,
) -> DseOutcome {
    // Tier 2: partition into timing classes, one representative each.
    let mut classes: BTreeMap<String, CoreConfig> = BTreeMap::new();
    for p in grid {
        classes
            .entry(timing_class(&p.core))
            .or_insert_with(|| p.core.clone());
    }
    // Tier 1: record class traces across the worker pool (content-keyed
    // in the engine's memo + disk cache).
    let jobs: Vec<(&String, &CoreConfig, &Benchmark)> = classes
        .iter()
        .flat_map(|(class, core)| suite.iter().map(move |b| (class, core, b)))
        .collect();
    let simulated = AtomicU64::new(0);
    let recorded = engine.run_jobs_par(&jobs, |_, (_, core, bench)| {
        recorded_run(engine, core, bench, cfg, &simulated)
    });
    let mut recordings: BTreeMap<(String, String), RecordedRun> = BTreeMap::new();
    for ((class, _, bench), run) in jobs.iter().zip(recorded) {
        recordings.insert(((*class).clone(), bench.name.clone()), run);
    }
    // The grid-wide WOF reference: the busiest recording's active power
    // under its inferred-style model (deterministic in the grid, so it
    // participates in every shard key).
    let mut ref_active = 0.0_f64;
    for ((class, _), run) in &recordings {
        let active = PowerModel::for_config(&classes[class])
            .evaluate(&run.sim.activity)
            .active();
        ref_active = ref_active.max(active);
    }
    let ref_active = ref_active.max(1e-9);

    // Tier 3: shard replay, each shard one result-cache entry.
    let shards: Vec<&[DsePoint]> = grid.chunks(cfg.shard_points.max(1)).collect();
    let computed = AtomicU64::new(0);
    let outputs: Vec<Vec<DsePointResult>> = engine.run_jobs_par(&shards, |i, shard| {
        let label = format!("dse shard {i} ({} points)", shard.len());
        engine.cached(
            &label,
            &shard_key(engine, shard, suite, cfg, ref_active),
            || {
                computed.fetch_add(1, Ordering::Relaxed);
                shard
                    .iter()
                    .map(|p| eval_point(p, &recordings, suite, ref_active))
                    .collect()
            },
        )
    });

    let points: Vec<DsePointResult> = outputs.concat();
    let frontier = pareto_frontier(&points);
    let stats = DseStats {
        points: grid.len() as u64,
        classes: classes.len() as u64,
        class_dedup: (grid.len() - classes.len()) as u64,
        replay_hits: (grid.len() - classes.len()) as u64,
        benches: suite.len() as u64,
        shards: shards.len() as u64,
    };
    let shards_computed = computed.into_inner();
    let run = DseRunStats {
        shards_computed,
        shards_resumed: shards.len() as u64 - shards_computed,
        recordings_simulated: simulated.into_inner(),
    };
    record_obs(&stats, &run);
    DseOutcome {
        result: DseResult {
            points,
            frontier,
            stats,
        },
        run,
    }
}

fn record_obs(stats: &DseStats, run: &DseRunStats) {
    p10_obs::counter("dse.points", stats.points);
    p10_obs::counter("dse.classes", stats.classes);
    p10_obs::counter("dse.class_dedup", stats.class_dedup);
    p10_obs::counter("dse.replay_hits", stats.replay_hits);
    p10_obs::counter("dse.shards_computed", run.shards_computed);
    p10_obs::counter("dse.shards_resumed", run.shards_resumed);
    p10_obs::counter("dse.recordings_simulated", run.recordings_simulated);
}

/// The benchmarks the default grid sweeps: a three-workload slice of
/// the SPECint-like suite (kept small so detailed simulation cost is
/// per-class, not per-suite-member).
#[must_use]
pub fn default_suite() -> Vec<Benchmark> {
    let mut suite = p10_workloads::specint_like();
    suite.truncate(3);
    suite
}

/// The acceptance-criteria grid: fetch width × instruction window ×
/// L2 geometry × SMT (24 timing classes) × the 24-setting knob grid,
/// plus the paper's POWER9/POWER10 endpoints at nominal knobs —
/// 578 points, ≥ 95% pure replay.
#[must_use]
pub fn default_grid() -> Vec<DsePoint> {
    let base = CoreConfig::power10();
    let mut grid = Vec::new();
    for &fetch in &[6u32, 8] {
        for &itable in &[256u32, 512] {
            for &l2_div in &[2u64, 1] {
                for smt in [SmtMode::St, SmtMode::Smt2, SmtMode::Smt4] {
                    for knobs in PowerKnobs::grid() {
                        let mut core = base.clone();
                        core.fetch_width = fetch;
                        core.itable_entries = itable;
                        core.l2.size_bytes = base.l2.size_bytes / l2_div;
                        core.smt = smt;
                        let smt_tag = match smt {
                            SmtMode::St => "st",
                            SmtMode::Smt2 => "smt2",
                            SmtMode::Smt4 => "smt4",
                        };
                        core.name = format!("f{fetch}-w{itable}-l2d{l2_div}-{smt_tag}",);
                        grid.push(DsePoint {
                            name: format!("{}-{}", core.name, knobs.label),
                            core,
                            knobs,
                            paper: false,
                        });
                    }
                }
            }
        }
    }
    for preset in [CoreConfig::power9(), CoreConfig::power10()] {
        grid.push(DsePoint {
            name: format!("{} (paper)", preset.name),
            core: preset,
            knobs: PowerKnobs::nominal(),
            paper: true,
        });
    }
    grid
}

/// Renders the frontier as a markdown table, marking the paper's
/// endpoints.
#[must_use]
pub fn frontier_markdown(result: &DseResult) -> String {
    let mut out = String::new();
    out.push_str(
        "| point | class | SMT | IPC | freq (GHz) | perf | power (W) | perf/W | |\n\
         |---|---|---:|---:|---:|---:|---:|---:|---|\n",
    );
    for &i in &result.frontier {
        let p = &result.points[i];
        out.push_str(&format!(
            "| {} | {} | {} | {:.3} | {:.2} | {:.3} | {:.1} | {:.4} | {} |\n",
            p.name,
            &p.class[..8],
            p.threads,
            p.ipc,
            p.mean_freq,
            p.perf,
            p.power,
            p.perf_per_watt,
            if p.paper { "**paper**" } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(name: &str, perf: f64, power: f64) -> DsePointResult {
        DsePointResult {
            name: name.to_owned(),
            class: "c".to_owned(),
            knobs: "k".to_owned(),
            threads: 1,
            paper: false,
            ipc: 1.0,
            mean_freq: 4.0,
            core_power: power,
            perf,
            power,
            perf_per_watt: perf / power,
        }
    }

    #[test]
    fn sampled_recording_upholds_the_recording_contract() {
        let cfg = CoreConfig::power10();
        let bench = &p10_workloads::specint_like()[2];
        let mode = crate::sampling::SamplingMode::SimPoints {
            interval_ops: 1_000,
            k: 3,
            warmup_ops: 125,
        };
        let store = crate::sampling::CkptStore::new(None);
        let run = record_benchmark_sampled(&cfg, bench, 7, 5_000, 400, &mode, &store);
        assert_eq!(run.trace.total(), run.sim.activity, "recording contract");
        assert_eq!(run.trace.window_cycles, 400);
        let cycle_sum: u64 = run.trace.windows.iter().map(|w| w.cycles).sum();
        assert_eq!(cycle_sum, run.sim.activity.cycles);
        // The sampled recording replays through the same path as an
        // exact one.
        let scen = scenario_from_recording(&run, &cfg, &bench.name);
        assert_eq!(scen.sim.activity, run.sim.activity);
    }

    #[test]
    fn frontier_sorted_by_power() {
        let points = vec![
            result_with("hot", 3.0, 30.0),
            result_with("cool", 1.0, 5.0),
            result_with("dominated", 0.9, 6.0),
            result_with("mid", 2.0, 12.0),
        ];
        let f = pareto_frontier(&points);
        let names: Vec<&str> = f.iter().map(|&i| points[i].name.as_str()).collect();
        assert_eq!(names, vec!["cool", "mid", "hot"]);
    }

    #[test]
    fn default_grid_meets_acceptance_shape() {
        let grid = default_grid();
        assert!(grid.len() >= 500, "grid has {} points", grid.len());
        let classes: std::collections::HashSet<String> =
            grid.iter().map(|p| timing_class(&p.core)).collect();
        // ≥ 90% of points must be pure replay (class dedup).
        let replay = grid.len() - classes.len();
        assert!(
            replay * 10 >= grid.len() * 9,
            "{replay} replays of {} points",
            grid.len()
        );
        // Point names are unique (frontier rows are unambiguous).
        let names: std::collections::HashSet<&str> = grid.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names.len(), grid.len());
        assert_eq!(grid.iter().filter(|p| p.paper).count(), 2);
    }

    #[test]
    fn knob_grid_is_at_least_eight_settings() {
        let knobs = PowerKnobs::grid();
        assert!(knobs.len() >= 8);
        let labels: std::collections::HashSet<&str> =
            knobs.iter().map(|k| k.label.as_str()).collect();
        assert_eq!(labels.len(), knobs.len());
    }
}
