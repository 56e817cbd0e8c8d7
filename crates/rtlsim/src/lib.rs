//! # p10-rtlsim
//!
//! The "RTLSim" analog: detailed, slow, latch-accurate simulation with
//! Powerminer-style switching reports (paper §III-B).
//!
//! In the paper, RTLSim runs the evolving RTL directly and Powerminer
//! extracts logic-activity statistics (clock gating %, potential vs
//! observed latch switching, ghost switching) without the expensive full
//! Einspower physical-design flow. Here, [`run_detailed`] drives the
//! cycle model with a *per-cycle* observer that performs latch-group
//! bookkeeping for all 39 power components — deliberately paying the
//! per-cycle cost that the APEX analog (`p10-apex`) avoids, so the
//! relative speedup of counter-based extraction is measurable.
//!
//! The measurement applies to a *region of interest*: a warmup prefix is
//! excluded, mirroring the paper's per-workload measurement windows
//! computed from baseline runs.
//!
//! ## Example
//!
//! ```
//! use p10_rtlsim::{run_detailed, Roi, ToggleDensity};
//! use p10_uarch::CoreConfig;
//! use p10_workloads::specint_like;
//!
//! let bench = &specint_like()[8];
//! let trace = bench.workload(1).trace_or_panic(8_000);
//! let report = run_detailed(
//!     &CoreConfig::power10(),
//!     vec![trace],
//!     Roi::new(2_000, 100_000),
//!     ToggleDensity::default(),
//! );
//! assert!(report.powerminer.clock_enable_pct > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use p10_power::{ComponentKind, GroupActivity, PowerModel, PowerReport};
use p10_uarch::{Activity, Core, CoreConfig, SimResult, SpanObserver};
use serde::{Deserialize, Serialize};

/// Region of interest: cycles to skip (warmup) and the cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Roi {
    /// Warmup cycles excluded from measurement.
    pub warmup_cycles: u64,
    /// Maximum total cycles to simulate.
    pub max_cycles: u64,
}

impl Roi {
    /// Creates a region of interest.
    #[must_use]
    pub fn new(warmup_cycles: u64, max_cycles: u64) -> Self {
        Roi {
            warmup_cycles,
            max_cycles,
        }
    }
}

/// Data toggle density: the probability that a latched bit actually
/// changes value when written. Zero-initialized testcases toggle far less
/// than random-data ones (paper §III-E varies exactly this).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ToggleDensity(pub f64);

impl Default for ToggleDensity {
    fn default() -> Self {
        ToggleDensity(0.5)
    }
}

impl ToggleDensity {
    /// Density for zero-initialized data.
    #[must_use]
    pub fn zero_init() -> Self {
        ToggleDensity(0.06)
    }

    /// Density for random-initialized data.
    #[must_use]
    pub fn random_init() -> Self {
        ToggleDensity(0.5)
    }
}

/// Per-latch-group switching statistics over the region of interest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatchGroupStats {
    /// Which component the group belongs to.
    pub kind: ComponentKind,
    /// Latch population.
    pub latches: f64,
    /// Latch-cycles with clock enabled / total latch-cycles.
    pub clock_enable_fraction: f64,
    /// Potential switching: latch-cycles clock-enabled (data refreshed
    /// whether or not it changes) per latch per cycle.
    pub potential_switching: f64,
    /// Observed switching: latch value actually changed, per latch per
    /// cycle.
    pub observed_switching: f64,
    /// Ghost switching: data-input toggles with no corresponding write,
    /// per latch per cycle.
    pub ghost_switching: f64,
}

/// The Powerminer-style aggregate report (the metrics the paper says were
/// continuously tracked: % clock enabled, potential latch switching,
/// observed latch switching ratio).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerminerReport {
    /// Percentage of latch clocks enabled (inverse of % clock gating).
    pub clock_enable_pct: f64,
    /// Potential latch switching per latch per cycle.
    pub potential_switching: f64,
    /// Observed latch switching per latch per cycle.
    pub observed_switching: f64,
    /// Observed/potential ratio.
    pub observed_ratio: f64,
    /// Ghost switching per latch per cycle.
    pub ghost_switching: f64,
    /// Total latches in the design.
    pub total_latches: f64,
}

/// Per-slice (64-latch macro) statistics — the latch-accurate layer.
///
/// Within a group, utilization is not uniform: some macros are hot on
/// every op, others nearly idle. The detailed simulation tracks each
/// 64-latch slice separately with an exponential hot-to-cold utilization
/// profile, giving downstream consumers (SERMiner) a realistic per-latch
/// switching distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SliceStats {
    /// Component this slice belongs to.
    pub kind: ComponentKind,
    /// Latches in the slice (64, except a possibly-smaller tail).
    pub latches: f64,
    /// Clock-enable fraction of this slice.
    pub clock_enable: f64,
    /// Observed switching per latch per cycle in this slice.
    pub switching: f64,
}

/// The result of a detailed RTLSim-analog run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RtlReport {
    /// Timing result over the full run.
    pub sim: SimResult,
    /// Activity measured inside the region of interest only.
    pub roi_activity: Activity,
    /// Power evaluated over the region of interest.
    pub power: PowerReport,
    /// Per-group switching statistics.
    pub groups: Vec<LatchGroupStats>,
    /// Per-slice (64-latch) statistics for the latch-accurate layer.
    pub slices: Vec<SliceStats>,
    /// The aggregate Powerminer report.
    pub powerminer: PowerminerReport,
    /// Per-cycle-equivalent bookkeeping operations the detailed
    /// methodology accounts for (the "cost" of latch-accurate simulation
    /// that APEX avoids). The span-aware observer performs the underlying
    /// group/slice evaluation once per homogeneous run of cycles, but
    /// this counter stays per-cycle so reports are independent of how
    /// the scheduler delivered the cycles.
    pub bookkeeping_ops: u64,
}

/// The span-aware latch bookkeeper behind [`run_detailed`].
///
/// Live cycles are accumulated one at a time; fast-forwarded spans are
/// folded in closed form. To keep every `f64` accumulator **bit-identical**
/// no matter how the scheduler delivers the cycles, consecutive cycles
/// with an identical per-cycle activity delta are coalesced into *runs*
/// (a span is just a pre-coalesced run, and idle stretches stepped by the
/// polled scheduler coalesce into the same runs), and each run's
/// group/slice contributions are evaluated once and scaled by the run
/// length — linear in components per run instead of per cycle.
struct LatchBookkeeper {
    model: PowerModel,
    /// Slice layout, group-major: group `g` owns slices
    /// `group_start[g]..group_start[g + 1]` (one entry past the last group).
    group_start: Vec<usize>,
    /// Latches per 64-latch slice.
    slice_latches: Vec<f64>,
    /// Hot-to-cold utilization weight per slice (averaging 1 per group).
    slice_weight: Vec<f64>,
    idle_floor: f64,
    idle_floor_is_flat: bool,
    warmup: u64,
    warmup_snapshot: Option<Activity>,
    /// Cumulative activity through the last delivered cycle.
    prev: Activity,
    /// Total cycles per *distinct* per-cycle delta. Steady-state kernels
    /// cycle through a handful of delta patterns, so folding once per
    /// distinct delta (at [`flush_run`](Self::flush_run)) instead of once
    /// per consecutive run turns the per-slice accounting from
    /// `O(runs × slices)` into `O(distinct deltas × slices)`. A `BTreeMap`
    /// keeps the fold order deterministic (floating-point accumulation is
    /// order-sensitive), independent of when each delta first appeared —
    /// which also makes the polled and event-driven schedulers agree by
    /// construction, however differently they fragment the run stream.
    runs: std::collections::BTreeMap<Activity, u64>,
    /// Group statistics of the delta being folded (one buffer, reused).
    stats: Vec<GroupActivity>,
    /// Per-group accumulators: [enabled_latch_cycles, events, latch_cycles].
    acc: Vec<[f64; 3]>,
    /// Per-slice enabled latch-cycles.
    slice_enable: Vec<f64>,
    /// Per-slice written latch-cycles.
    slice_switching: Vec<f64>,
    bookkeeping_ops: u64,
}

impl LatchBookkeeper {
    fn new(model: PowerModel, warmup: u64) -> Self {
        // Per-slice layout with an exponential hot-to-cold utilization
        // profile within each group.
        let hot_cold_lambda = match model.style() {
            // Fine-grained gating concentrates activity: cold macros go
            // fully dark, so the hot-to-cold spread is much wider.
            p10_power::DesignStyle::ClockGatedByDefault => 6.0,
            p10_power::DesignStyle::Legacy => 3.0,
        };
        let mut group_start = vec![0];
        let mut slice_latches = Vec::new();
        let mut slice_weight = Vec::new();
        for spec in model.components() {
            let n_slices = ((spec.latches / 64.0).ceil() as usize).max(1);
            // Normalize the profile so the weights average to 1 per group.
            let lambda = hot_cold_lambda / n_slices as f64;
            let weights: Vec<f64> = (0..n_slices).map(|j| (-lambda * j as f64).exp()).collect();
            let mean: f64 = weights.iter().sum::<f64>() / n_slices as f64;
            for (j, w) in weights.iter().enumerate() {
                let latches = if j + 1 == n_slices {
                    spec.latches - 64.0 * (n_slices as f64 - 1.0)
                } else {
                    64.0
                };
                slice_latches.push(latches.max(1.0));
                slice_weight.push(w / mean);
            }
            group_start.push(slice_latches.len());
        }
        let tech = p10_power::TechParams::for_style(model.style());
        let idle_floor_is_flat = matches!(model.style(), p10_power::DesignStyle::Legacy);
        let n_groups = model.components().len();
        let n_slices = slice_latches.len();
        LatchBookkeeper {
            model,
            group_start,
            slice_latches,
            slice_weight,
            idle_floor: tech.idle_clock_enable,
            idle_floor_is_flat,
            warmup,
            warmup_snapshot: None,
            prev: Activity::default(),
            runs: std::collections::BTreeMap::new(),
            stats: Vec::with_capacity(n_groups),
            acc: vec![[0.0f64; 3]; n_groups],
            slice_enable: vec![0.0; n_slices],
            slice_switching: vec![0.0; n_slices],
            bookkeeping_ops: 0,
        }
    }

    /// Credits `n` cycles of per-cycle delta `d` to the delta's tally.
    fn push_run(&mut self, d: Activity, n: u64) {
        *self.runs.entry(d).or_insert(0) += n;
    }

    /// Folds the accumulated delta tallies into the group and slice
    /// accumulators: group stats are evaluated once per distinct
    /// per-cycle delta and scaled by its total cycle count
    /// (toggle/clock-enable/ghost accounting in closed form).
    ///
    /// A slice's terms depend on its group only through the group's write
    /// rate and clock enable, so those are computed once per (delta,
    /// group) and the group's contiguous slices are swept in one tight
    /// loop. Every accumulator still receives its additions in delta
    /// order, so the sums are the same floats as a per-slice evaluation.
    fn flush_run(&mut self) {
        let runs = std::mem::take(&mut self.runs);
        let n_slices = self.slice_latches.len() as u64;
        let (flat, floor) = (self.idle_floor_is_flat, self.idle_floor);
        for (d, n) in runs {
            let nf = n as f64;
            self.model.group_stats(&d, &mut self.stats);
            for (gi, g) in self.stats.iter().enumerate() {
                let acc = &mut self.acc[gi];
                acc[0] += g.clock_enable * g.latches * nf;
                acc[1] += g.events_per_cycle * nf;
                acc[2] += g.latches * nf;

                let write_rate = (g.events_per_cycle * 64.0 / g.latches.max(1.0)).min(1.0);
                let above_floor = (g.clock_enable - floor).max(0.0);
                let slices = self.group_start[gi]..self.group_start[gi + 1];
                let columns = self.slice_latches[slices.clone()]
                    .iter()
                    .zip(&self.slice_weight[slices.clone()])
                    .zip(
                        self.slice_enable[slices.clone()]
                            .iter_mut()
                            .zip(&mut self.slice_switching[slices]),
                    );
                for ((&latches, &weight), (enable_acc, switching_acc)) in columns {
                    // Clock-enable distribution across slices differs by
                    // design style: the legacy design's global clock spine
                    // keeps every slice at least at the idle floor (clock
                    // gating added after the fact), while the
                    // clocks-off-by-default design gates each slice
                    // individually — cold slices sit near zero.
                    let enable = if flat {
                        (floor + above_floor * weight).min(1.0)
                    } else {
                        (g.clock_enable * weight).min(1.0)
                    };
                    *enable_acc += enable * latches * nf;
                    *switching_acc += (write_rate * weight).min(enable.max(1e-12)) * latches * nf;
                }
            }
            self.bookkeeping_ops += (self.stats.len() as u64 + n_slices) * n;
        }
    }
}

impl SpanObserver for LatchBookkeeper {
    fn on_cycle(&mut self, cycle: u64, act: &Activity) {
        if cycle == self.warmup {
            self.warmup_snapshot = Some(*act);
        }
        if cycle <= self.warmup {
            self.prev = *act;
            return;
        }
        let d = act.delta(&self.prev);
        self.prev = *act;
        self.push_run(d, 1);
    }

    fn on_span(&mut self, start: u64, len: u64, delta: &Activity) {
        let end = start + len - 1;
        let mut measured = *delta;
        let mut measured_len = len;
        if start <= self.warmup {
            // ROI-warmup boundary: split the span exactly at the warmup
            // cycle so the snapshot equals what per-cycle stepping takes.
            let pre_len = (self.warmup - start + 1).min(len);
            let pre = delta.span_prefix(len, pre_len);
            self.prev = self.prev.sum(&pre);
            if self.warmup <= end {
                self.warmup_snapshot = Some(self.prev);
            }
            if pre_len == len {
                return;
            }
            measured = measured.delta(&pre);
            measured_len = len - pre_len;
        }
        let per_cycle = measured.span_prefix(measured_len, 1);
        self.prev = self.prev.sum(&measured);
        self.push_run(per_cycle, measured_len);
    }
}

/// Runs the detailed latch-accurate simulation.
///
/// Latch bookkeeping across all 39 component groups rides the span-aware
/// observer: live cycles (and, under the polled scheduler, every cycle)
/// are evaluated per homogeneous run, and fast-forwarded idle stretches
/// arrive as closed-form spans — linear in components per span instead of
/// per cycle, with the ROI-warmup boundary split exactly. The accumulated
/// per-group statistics become the Powerminer report, bit-identical to
/// per-cycle stepping.
#[must_use]
pub fn run_detailed<T: Into<p10_isa::TraceView>>(
    cfg: &CoreConfig,
    traces: Vec<T>,
    roi: Roi,
    toggle: ToggleDensity,
) -> RtlReport {
    let mut keeper = LatchBookkeeper::new(PowerModel::for_config(cfg), roi.warmup_cycles);

    let (sim, work) = Core::new(cfg.clone()).run_counted(traces, roi.max_cycles, Some(&mut keeper));
    keeper.flush_run();
    // The bookkeeper takes spans, so every live step reached it as one
    // `on_cycle` call and every fast-forwarded cycle inside a span.
    p10_obs::counter("sim.observed_runs", 1);
    p10_obs::counter("sim.observed_live_cycles", work.live_steps);
    p10_obs::counter("sim.observed_span_cycles", work.ff_cycles);
    for (name, value) in work.as_pairs() {
        p10_obs::counter(name, value);
    }

    let LatchBookkeeper {
        model,
        group_start,
        slice_latches,
        warmup_snapshot,
        acc,
        slice_enable,
        slice_switching,
        bookkeeping_ops,
        ..
    } = keeper;
    p10_obs::counter("rtlsim.fold_ops", bookkeeping_ops);

    let warmup = warmup_snapshot.unwrap_or_default();
    let roi_activity = sim.activity.delta(&warmup);
    let power = model.evaluate(&roi_activity);

    let ghost_factor = model_ghost_factor(&model);
    let groups: Vec<LatchGroupStats> = model
        .components()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let latch_cycles = acc[i][2].max(1.0);
            let enable = acc[i][0] / latch_cycles;
            // Each event writes a slice of the group's latches; observed
            // switching scales with the data toggle density.
            let writes_per_latch_cycle = (acc[i][1] * 64.0 / latch_cycles).min(enable.max(0.0));
            LatchGroupStats {
                kind: s.kind,
                latches: s.latches,
                clock_enable_fraction: enable,
                potential_switching: enable,
                observed_switching: writes_per_latch_cycle * toggle.0,
                ghost_switching: writes_per_latch_cycle * toggle.0 * ghost_factor,
            }
        })
        .collect();

    let roi_cycles = roi_activity.cycles.max(1) as f64;
    let slices: Vec<SliceStats> = model
        .components()
        .iter()
        .zip(group_start.windows(2))
        .flat_map(|(spec, range)| (range[0]..range[1]).map(move |si| (spec.kind, si)))
        .map(|(kind, si)| {
            let latches = slice_latches[si];
            SliceStats {
                kind,
                latches,
                clock_enable: slice_enable[si] / (latches * roi_cycles),
                switching: slice_switching[si] / (latches * roi_cycles) * toggle.0,
            }
        })
        .collect();

    let total_latches: f64 = groups.iter().map(|g| g.latches).sum();
    let wavg = |f: &dyn Fn(&LatchGroupStats) -> f64| -> f64 {
        groups.iter().map(|g| f(g) * g.latches).sum::<f64>() / total_latches.max(1.0)
    };
    let potential = wavg(&|g| g.potential_switching);
    let observed = wavg(&|g| g.observed_switching);
    let powerminer = PowerminerReport {
        clock_enable_pct: wavg(&|g| g.clock_enable_fraction) * 100.0,
        potential_switching: potential,
        observed_switching: observed,
        observed_ratio: if potential > 0.0 {
            observed / potential
        } else {
            0.0
        },
        ghost_switching: wavg(&|g| g.ghost_switching),
        total_latches,
    };

    RtlReport {
        sim,
        roi_activity,
        power,
        groups,
        slices,
        powerminer,
        bookkeeping_ops,
    }
}

fn model_ghost_factor(model: &PowerModel) -> f64 {
    p10_power::TechParams::for_style(model.style()).ghost_factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_workloads::specint_like;

    fn trace(ops: u64) -> p10_isa::Trace {
        specint_like()[8].workload(3).trace_or_panic(ops)
    }

    #[test]
    fn roi_excludes_warmup() {
        let cfg = CoreConfig::power10();
        let r = run_detailed(
            &cfg,
            vec![trace(12_000)],
            Roi::new(1_000, 1_000_000),
            ToggleDensity::default(),
        );
        assert!(r.roi_activity.cycles < r.sim.activity.cycles);
        assert!(r.roi_activity.completed < r.sim.activity.completed);
        assert!(r.roi_activity.completed > 0);
    }

    #[test]
    fn p10_gates_clocks_harder_than_p9() {
        let t = trace(15_000);
        let p9 = run_detailed(
            &CoreConfig::power9(),
            vec![t.clone()],
            Roi::new(500, 1_000_000),
            ToggleDensity::default(),
        );
        let p10 = run_detailed(
            &CoreConfig::power10(),
            vec![t],
            Roi::new(500, 1_000_000),
            ToggleDensity::default(),
        );
        assert!(
            p10.powerminer.clock_enable_pct < p9.powerminer.clock_enable_pct,
            "P10 {}% must be below P9 {}%",
            p10.powerminer.clock_enable_pct,
            p9.powerminer.clock_enable_pct
        );
        // And its ghost switching is lower too.
        assert!(p10.powerminer.ghost_switching < p9.powerminer.ghost_switching);
    }

    #[test]
    fn toggle_density_scales_observed_switching() {
        let t = trace(10_000);
        let cfg = CoreConfig::power10();
        let zero = run_detailed(
            &cfg,
            vec![t.clone()],
            Roi::new(500, 1_000_000),
            ToggleDensity::zero_init(),
        );
        let rand = run_detailed(
            &cfg,
            vec![t],
            Roi::new(500, 1_000_000),
            ToggleDensity::random_init(),
        );
        assert!(
            rand.powerminer.observed_switching > 3.0 * zero.powerminer.observed_switching,
            "random {} vs zero {}",
            rand.powerminer.observed_switching,
            zero.powerminer.observed_switching
        );
        // Potential switching (clock enables) is data-independent.
        assert!(
            (rand.powerminer.potential_switching - zero.powerminer.potential_switching).abs()
                < 1e-9
        );
    }

    #[test]
    fn observed_never_exceeds_potential() {
        let cfg = CoreConfig::power9();
        let r = run_detailed(
            &cfg,
            vec![trace(10_000)],
            Roi::new(500, 1_000_000),
            ToggleDensity::random_init(),
        );
        for g in &r.groups {
            assert!(
                g.observed_switching <= g.potential_switching + 1e-9,
                "{:?}: observed {} > potential {}",
                g.kind,
                g.observed_switching,
                g.potential_switching
            );
        }
        assert!(r.powerminer.observed_ratio <= 1.0);
        assert!(r.powerminer.observed_ratio > 0.0);
    }

    #[test]
    fn bookkeeping_cost_scales_with_cycles() {
        let cfg = CoreConfig::power10();
        let short = run_detailed(
            &cfg,
            vec![trace(4_000)],
            Roi::new(100, 1_000_000),
            ToggleDensity::default(),
        );
        let long = run_detailed(
            &cfg,
            vec![trace(16_000)],
            Roi::new(100, 1_000_000),
            ToggleDensity::default(),
        );
        assert!(long.bookkeeping_ops > 2 * short.bookkeeping_ops);
        assert_eq!(long.groups.len(), 39);
    }
}
