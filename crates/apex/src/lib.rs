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
//!   of per-cycle latch bookkeeping it snapshots the hardware-style
//!   counters once per extraction window ([`WindowSample`]) and computes
//!   the simplified power estimate per window. Identical accuracy on
//!   tracked counters is by construction — the same counters are read,
//!   just less often — and the `window_sums_equal_final_counters` test
//!   verifies it.
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
use p10_uarch::{Activity, Core, CoreConfig, SimResult, SmtMode, SpanObserver};
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

/// The span-aware window extractor behind [`run_apex`].
///
/// Extraction windows close on exact cycle boundaries
/// (`last_cycle + window_cycles`). A fast-forwarded span that straddles
/// one or more boundaries is split *exactly* with
/// [`Activity::span_prefix`] (span deltas are homogeneous, so the split
/// is lossless integer arithmetic), making every [`WindowSample`]
/// bit-identical to per-cycle extraction.
struct WindowExtractor<'m> {
    model: &'m PowerModel,
    window_cycles: u64,
    windows: Vec<WindowSample>,
    /// Cumulative activity at the last window close.
    last: Activity,
    last_cycle: u64,
    /// Cumulative activity through the last delivered cycle.
    cum: Activity,
    /// Observation-effectiveness counters: cycles delivered live vs via
    /// closed-form spans.
    live_cycles: u64,
    span_cycles: u64,
}

impl WindowExtractor<'_> {
    fn close_window(&mut self, cycle: u64, cum: Activity) {
        let delta = cum.delta(&self.last);
        let power_estimate = self.model.evaluate(&delta).core_total();
        self.windows.push(WindowSample {
            start_cycle: self.last_cycle + 1,
            end_cycle: cycle,
            activity: delta,
            power_estimate,
        });
        self.last = cum;
        self.last_cycle = cycle;
    }
}

impl SpanObserver for WindowExtractor<'_> {
    fn on_cycle(&mut self, cycle: u64, act: &Activity) {
        self.live_cycles += 1;
        self.cum = *act;
        if cycle - self.last_cycle >= self.window_cycles {
            self.close_window(cycle, *act);
        }
    }

    fn on_span(&mut self, start: u64, len: u64, delta: &Activity) {
        self.span_cycles += len;
        let end = start + len - 1;
        // Cumulative activity through `start - 1`.
        let base = self.cum;
        let mut boundary = self.last_cycle + self.window_cycles;
        while boundary <= end {
            let cum_at = base.sum(&delta.span_prefix(len, boundary - start + 1));
            self.close_window(boundary, cum_at);
            boundary = self.last_cycle + self.window_cycles;
        }
        self.cum = base.sum(delta);
    }
}

/// Runs the accelerated extraction: counters are read out every
/// `window_cycles` (the paper's configurable batch interval).
///
/// Rides the event-driven scheduler's fast path: fast-forwarded idle
/// stretches arrive as closed-form spans and are split exactly at window
/// boundaries, so the samples match per-cycle extraction bit for bit.
#[must_use]
pub fn run_apex<T: Into<p10_isa::TraceView>>(
    cfg: &CoreConfig,
    traces: Vec<T>,
    window_cycles: u64,
    max_cycles: u64,
) -> ApexReport {
    let model = PowerModel::for_config(cfg);
    let mut extractor = WindowExtractor {
        model: &model,
        window_cycles,
        windows: Vec::new(),
        last: Activity::default(),
        last_cycle: 0,
        cum: Activity::default(),
        live_cycles: 0,
        span_cycles: 0,
    };

    let sim = Core::new(cfg.clone()).run_spanned(traces, max_cycles, &mut extractor);
    p10_obs::counter("sim.observed_live_cycles", extractor.live_cycles);
    p10_obs::counter("sim.observed_span_cycles", extractor.span_cycles);
    let mut windows = extractor.windows;
    let last = extractor.last;
    let last_cycle = extractor.last_cycle;
    // Final partial window.
    let delta = sim.activity.delta(&last);
    if delta.cycles > 0 {
        windows.push(WindowSample {
            start_cycle: last_cycle + 1,
            end_cycle: sim.activity.cycles,
            activity: delta,
            power_estimate: model.evaluate(&delta).core_total(),
        });
    }
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
pub fn measure_speedup(cfg: &CoreConfig, trace: &p10_isa::Trace, max_cycles: u64) -> SpeedupReport {
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
        .map(|t| {
            b.workload(1000 + u64::from(snippet) * 17 + t)
                .trace_view_or_panic(ops_per_snippet)
        })
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

    fn trace(bench: usize, ops: u64) -> p10_isa::Trace {
        specint_like()[bench].workload(5).trace_or_panic(ops)
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
        let cfg = CoreConfig::power10();
        let t = trace(8, 20_000);
        let s = measure_speedup(&cfg, &t, 1_000_000);
        assert!(
            s.speedup > 3.0,
            "accelerated extraction must win clearly, got {:.1}x",
            s.speedup
        );
    }

    #[test]
    fn chip_model_shows_memory_effects_core_model_hides() {
        // A memory-hostile workload must look different between the two
        // models (the gray points of Fig. 10).
        let mcf = &specint_like()[2]; // mcfish
        let t = mcf.workload(9).trace_or_panic(10_000);
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

    /// Property tests driving random live/span delivery patterns through
    /// the window extractor — the `window_sums_equal_final_counters`
    /// invariant under arbitrary span tilings, not just the one tiling
    /// the simulator happens to produce for a given workload.
    mod span_window_properties {
        use super::*;
        use proptest::prelude::*;

        /// One random observer delivery: either a live cycle with
        /// arbitrary counter bumps, or a homogeneous fast-forward span
        /// (only the four counters the span contract allows, each at a
        /// constant per-cycle rate).
        #[derive(Debug, Clone, Copy)]
        enum Delivery {
            Live {
                completed: u64,
                l1d: u64,
                flops: u64,
            },
            Span {
                len: u64,
                mma: bool,
                stall: bool,
                occ: u64,
            },
        }

        fn arb_delivery() -> impl Strategy<Value = Delivery> {
            prop_oneof![
                (0u64..6, 0u64..4, 0u64..9).prop_map(|(completed, l1d, flops)| {
                    Delivery::Live {
                        completed,
                        l1d,
                        flops,
                    }
                }),
                (1u64..300, 0u64..2, 0u64..2, 0u64..400).prop_map(|(len, mma, stall, occ)| {
                    Delivery::Span {
                        len,
                        mma: mma == 1,
                        stall: stall == 1,
                        occ,
                    }
                }),
            ]
        }

        fn fresh<'m>(model: &'m PowerModel, window_cycles: u64) -> WindowExtractor<'m> {
            WindowExtractor {
                model,
                window_cycles,
                windows: Vec::new(),
                last: Activity::default(),
                last_cycle: 0,
                cum: Activity::default(),
                live_cycles: 0,
                span_cycles: 0,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A span-fed extractor must produce bit-identical windows to
            /// a per-cycle-fed one (spans replayed via `span_prefix`),
            /// and closed windows plus the trailing partial must sum to
            /// the final counters.
            #[test]
            fn random_span_patterns_window_exactly(
                deliveries in proptest::collection::vec(arb_delivery(), 1..60),
                window_cycles in 1u64..64,
            ) {
                let model = PowerModel::for_config(&CoreConfig::power10());
                let mut spanned = fresh(&model, window_cycles);
                let mut per_cycle = fresh(&model, window_cycles);
                let mut cum = Activity::default();
                let mut cycle = 0u64;
                for d in &deliveries {
                    match *d {
                        Delivery::Live { completed, l1d, flops } => {
                            cycle += 1;
                            cum.cycles += 1;
                            cum.completed += completed;
                            cum.l1d_accesses += l1d;
                            cum.vsx_flops += flops;
                            spanned.on_cycle(cycle, &cum);
                            per_cycle.on_cycle(cycle, &cum);
                        }
                        Delivery::Span { len, mma, stall, occ } => {
                            let delta = Activity {
                                cycles: len,
                                mma_powered_cycles: if mma { len } else { 0 },
                                dispatch_stall_cycles: if stall { len } else { 0 },
                                window_occupancy_acc: occ * len,
                                ..Activity::default()
                            };
                            let base = cum;
                            spanned.on_span(cycle + 1, len, &delta);
                            for k in 1..=len {
                                per_cycle.on_cycle(cycle + k, &base.sum(&delta.span_prefix(len, k)));
                            }
                            cycle += len;
                            cum = base.sum(&delta);
                        }
                    }
                }
                prop_assert_eq!(spanned.windows.len(), per_cycle.windows.len());
                for (s, c) in spanned.windows.iter().zip(per_cycle.windows.iter()) {
                    prop_assert_eq!(s.start_cycle, c.start_cycle);
                    prop_assert_eq!(s.end_cycle, c.end_cycle);
                    prop_assert_eq!(s.activity, c.activity);
                    prop_assert_eq!(
                        s.power_estimate.to_bits(),
                        c.power_estimate.to_bits(),
                        "window power must be bit-identical"
                    );
                    prop_assert_eq!(s.end_cycle - s.start_cycle + 1, window_cycles);
                    prop_assert_eq!(s.activity.cycles, window_cycles);
                }
                // Closed windows + trailing partial tile the run exactly.
                let mut total = spanned
                    .windows
                    .iter()
                    .fold(Activity::default(), |acc, w| acc.sum(&w.activity));
                total = total.sum(&cum.delta(&spanned.last));
                prop_assert_eq!(total, cum);
                prop_assert_eq!(spanned.last_cycle + cum.delta(&spanned.last).cycles, cycle);
            }
        }
    }
}
