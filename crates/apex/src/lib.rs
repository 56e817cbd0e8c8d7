//! # p10-apex
//!
//! The APEX (Awan Power Extractor) analog: accelerated power extraction
//! via periodically sampled switching counters (paper §III-C).
//!
//! APEX instruments the design with LFSR switching counters and extracts
//! their values in batches at configurable intervals, producing power
//! estimates "on the fly using pre-extracted activity signal groupings
//! and associated effective capacitance" — a ~5000× speedup over software
//! RTL simulation *at identical accuracy* for the tracked signals.
//!
//! The analog here:
//!
//! * [`run_apex`] drives the same cycle model as `p10-rtlsim`, but instead
//!   of per-cycle latch bookkeeping it reads the hardware-style counters
//!   once per extraction window ([`WindowSample`]) and computes the
//!   simplified power estimate per window. The windows are recorded by
//!   [`ActivityRecorder`], the one windowed-activity observer, which the
//!   design-space sweep also replays from. Identical accuracy on tracked
//!   counters is by construction — the same counters are read, just less
//!   often — and the `window_sums_equal_final_counters` test verifies it.
//! * [`measure_speedup`] times detailed vs accelerated extraction on the
//!   same workload (the paper's 5000× came from hardware acceleration;
//!   the software-vs-software analog shows the same asymmetry, smaller).
//! * [`core_model`]/[`chip_model`] build the Fig. 10 configurations: the
//!   core-only model with infinite L2 versus the full chip model with the
//!   real cache/memory hierarchy, and [`fig10_snippet`] produces one
//!   snippet's pair of points of the power-vs-IPC scatter for
//!   SPECint-like snippets in SMT2 mode.
//! * [`lfsr`] implements the LFSR counters themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lfsr;

use p10_power::{PowerModel, PowerReport};
use p10_rtlsim::{run_detailed, Roi, ToggleDensity};
use p10_uarch::{Activity, ActivityRecorder, Core, CoreConfig, SimResult, SmtMode};
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One extraction window: the batch readout of all switching counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowSample {
    /// First cycle of the window (exclusive of prior windows).
    pub start_cycle: u64,
    /// Last cycle included.
    pub end_cycle: u64,
    /// Counter deltas over the window.
    pub activity: Activity,
    /// On-the-fly simplified power estimate (core total).
    pub power_estimate: f64,
}

/// The result of an accelerated (APEX-style) run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApexReport {
    /// Timing result.
    pub sim: SimResult,
    /// Per-window samples (the "signal event trace" at window granularity;
    /// each sample doubles as a checkpoint for deep-dive debug).
    pub windows: Vec<WindowSample>,
    /// Power over the full run from the final counter state.
    pub power: PowerReport,
}

impl ApexReport {
    /// Sum of per-window activity — must equal the final counters
    /// (identical accuracy on tracked signals).
    #[must_use]
    pub fn windows_total(&self) -> Activity {
        self.windows
            .iter()
            .fold(Activity::default(), |acc, w| acc.sum(&w.activity))
    }
}

/// Runs the accelerated extraction: counters are read out every
/// `window_cycles` (the paper's configurable batch interval).
///
/// The windows come from [`ActivityRecorder`], the same recorder the
/// design-space sweep replays from: it rides the event-driven scheduler's
/// fast path and splits fast-forwarded idle stretches exactly at window
/// boundaries, so the samples match per-cycle extraction bit for bit.
/// Each window then gets its cycle stamps and one power evaluation.
///
/// # Panics
///
/// Panics if `window_cycles` is zero, or on the conditions of
/// [`Core::run_counted`].
#[must_use]
pub fn run_apex(
    cfg: &CoreConfig,
    traces: Vec<p10_isa::TraceView>,
    window_cycles: u64,
    max_cycles: u64,
) -> ApexReport {
    let model = PowerModel::for_config(cfg);
    let mut recorder = ActivityRecorder::new(window_cycles);
    let (sim, work) = Core::new(cfg.clone()).run_counted(traces, max_cycles, Some(&mut recorder));
    // The recorder takes spans, so every live step reached it as one
    // `on_cycle` call and every fast-forwarded cycle inside a span.
    p10_obs::counter("sim.observed_runs", 1);
    p10_obs::counter("sim.observed_live_cycles", work.live_steps);
    p10_obs::counter("sim.observed_span_cycles", work.ff_cycles);
    for (name, value) in work.as_pairs() {
        p10_obs::counter(name, value);
    }
    let mut end_cycle = 0;
    let windows = recorder
        .finish(&sim.activity)
        .windows
        .into_iter()
        .map(|activity| {
            let start_cycle = end_cycle + 1;
            end_cycle += activity.cycles;
            WindowSample {
                start_cycle,
                end_cycle,
                activity,
                power_estimate: model.evaluate(&activity).core_total(),
            }
        })
        .collect();
    let power = model.evaluate(&sim.activity);
    ApexReport {
        sim,
        windows,
        power,
    }
}

/// Timing comparison of detailed (RTLSim) versus accelerated (APEX)
/// power extraction on the same workload.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SpeedupReport {
    /// Wall-clock seconds for the detailed run.
    pub detailed_secs: f64,
    /// Wall-clock seconds for the accelerated run.
    pub apex_secs: f64,
    /// Detailed / accelerated ratio.
    pub speedup: f64,
    /// Cycles the accelerated run simulated (deterministic, unlike the
    /// wall-clock fields — what byte-identical output checks can print).
    pub cycles: u64,
    /// Counter windows the accelerated run extracted (deterministic).
    pub windows: u64,
}

/// Measures the extraction speedup on one workload trace.
///
/// The paper reports ~5000× for hardware-accelerated simulation against
/// software RTL simulation; the software-vs-software analog here shows
/// the same direction with a smaller constant.
#[must_use]
pub fn measure_speedup(
    cfg: &CoreConfig,
    trace: &p10_isa::TraceView,
    max_cycles: u64,
) -> SpeedupReport {
    let t0 = Instant::now();
    let _ = run_detailed(
        cfg,
        vec![trace.clone()],
        Roi::new(0, max_cycles),
        ToggleDensity::default(),
    );
    let detailed_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let apex = run_apex(cfg, vec![trace.clone()], 4096, max_cycles);
    let apex_secs = t1.elapsed().as_secs_f64();

    SpeedupReport {
        detailed_secs,
        apex_secs,
        speedup: detailed_secs / apex_secs.max(1e-9),
        cycles: apex.sim.activity.cycles,
        windows: apex.windows.len() as u64,
    }
}

/// The Fig. 10 "core model": the core simulated with an infinite L2
/// behind the L1s.
#[must_use]
pub fn core_model(mut cfg: CoreConfig) -> CoreConfig {
    cfg.perfect_l2 = true;
    cfg.name = format!("{}-core-model", cfg.name);
    cfg
}

/// The Fig. 10 "chip model": the full cache and memory hierarchy.
#[must_use]
pub fn chip_model(mut cfg: CoreConfig) -> CoreConfig {
    cfg.perfect_l2 = false;
    cfg.name = format!("{}-chip-model", cfg.name);
    cfg
}

/// Which simulation model produced a Fig. 10 point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ApexModel {
    /// Core + infinite L2.
    Core,
    /// Full chip hierarchy.
    Chip,
}

/// One scatter point of Fig. 10.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Point {
    /// Benchmark name.
    pub bench: String,
    /// Snippet (simpoint-like) index.
    pub snippet: u32,
    /// Which model.
    pub model: ApexModel,
    /// Aggregate IPC (SMT2).
    pub ipc: f64,
    /// Core power.
    pub core_power: f64,
}

/// One snippet of the Fig. 10 experiment: simpoint-like snippet `snippet`
/// of a benchmark in SMT2 mode, run on the core model and on the chip
/// model (in that order). Snippets are independent, so the experiment
/// runs one per pool job (`p10_core::powerstudies::run_fig10`).
#[must_use]
pub fn fig10_snippet(b: &Benchmark, snippet: u32, ops_per_snippet: u64) -> [Fig10Point; 2] {
    let mut base = CoreConfig::power10();
    base.smt = SmtMode::Smt2;
    let traces: Vec<p10_isa::TraceView> = (0..2)
        .map(|t| b.trace_view_or_panic(1000 + u64::from(snippet) * 17 + t, ops_per_snippet))
        .collect();
    [
        (ApexModel::Core, core_model(base.clone())),
        (ApexModel::Chip, chip_model(base)),
    ]
    .map(|(model, cfg)| {
        let report = run_apex(&cfg, traces.clone(), 4096, ops_per_snippet * 40);
        Fig10Point {
            bench: b.name.clone(),
            snippet,
            model,
            ipc: report.sim.ipc(),
            core_power: report.power.core_total(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_workloads::specint_like;

    fn trace(bench: usize, ops: u64) -> p10_isa::TraceView {
        specint_like()[bench].workload(5).trace_view_or_panic(ops)
    }

    #[test]
    fn window_sums_equal_final_counters() {
        // APEX's central claim: batch extraction loses nothing on tracked
        // signals.
        let cfg = CoreConfig::power10();
        let r = run_apex(&cfg, vec![trace(8, 12_000)], 1000, 1_000_000);
        let total = r.windows_total();
        assert_eq!(total.completed, r.sim.activity.completed);
        assert_eq!(total.l1d_accesses, r.sim.activity.l1d_accesses);
        assert_eq!(total.vsx_flops, r.sim.activity.vsx_flops);
        assert_eq!(total.cycles, r.sim.activity.cycles);
        assert!(r.windows.len() > 3);
    }

    #[test]
    fn apex_is_much_faster_than_detailed() {
        // The paper's claim (§III-C) on deterministic work: the detailed
        // methodology pays latch bookkeeping for every cycle, APEX one
        // power evaluation per extraction window plus one for the run.
        // The wall-clock ratio is a release-build measurement (the
        // `apex.speedup` gauge of `figures apex-speedup`).
        let cfg = CoreConfig::power10();
        let t = trace(8, 20_000);
        let detailed = run_detailed(
            &cfg,
            vec![t.clone()],
            Roi::new(0, 1_000_000),
            ToggleDensity::default(),
        );
        let apex = run_apex(&cfg, vec![t], 4096, 1_000_000);
        let groups = PowerModel::for_config(&cfg).components().len() as u64;
        let evaluations = (apex.windows.len() as u64 + 1) * groups;
        let ratio = detailed.bookkeeping_ops as f64 / evaluations as f64;
        assert!(
            ratio > 3.0,
            "accelerated extraction must win clearly: {} bookkeeping ops vs {evaluations} \
             power evaluations ({ratio:.1}x)",
            detailed.bookkeeping_ops
        );
    }

    #[test]
    fn chip_model_shows_memory_effects_core_model_hides() {
        // A memory-hostile workload must look different between the two
        // models (the gray points of Fig. 10).
        let mcf = &specint_like()[2]; // mcfish
        let t = mcf.workload(9).trace_view_or_panic(10_000);
        let base = CoreConfig::power10();
        let core = run_apex(&core_model(base.clone()), vec![t.clone()], 4096, 10_000_000);
        let chip = run_apex(&chip_model(base), vec![t], 4096, 10_000_000);
        assert!(
            core.sim.ipc() > chip.sim.ipc() * 1.5,
            "infinite L2 must flatter a memory-bound snippet: core {} chip {}",
            core.sim.ipc(),
            chip.sim.ipc()
        );
    }

    #[test]
    fn fig10_produces_paired_points() {
        let b = &specint_like()[8];
        for snippet in 0..2 {
            let [core, chip] = fig10_snippet(b, snippet, 4_000);
            assert_eq!((core.model, chip.model), (ApexModel::Core, ApexModel::Chip));
            for p in [&core, &chip] {
                assert_eq!((p.bench.as_str(), p.snippet), (b.name.as_str(), snippet));
                assert!(p.ipc > 0.0 && p.core_power > 0.0);
            }
        }
    }
}
