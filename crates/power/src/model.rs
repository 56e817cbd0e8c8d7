//! The power model proper: maps activity counters onto the 39 components.

use crate::components::{build_components, ComponentKind, ComponentSpec};
use crate::report::{ComponentPower, PowerReport};
use crate::tech::{DesignStyle, TechParams};
use p10_uarch::{Activity, CoreConfig};

/// Per-component activity for one evaluation window.
#[derive(Debug, Clone, Copy, Default)]
struct UnitActivity {
    /// Fraction of the unit's capacity used (drives clock-gate opening).
    duty: f64,
    /// Logic events per cycle (drives data + ghost switching).
    events: f64,
    /// Per-event switching energy (relative units).
    event_energy: f64,
    /// Array accesses per cycle (drives array power).
    accesses: f64,
    /// Register-file word-port accesses per cycle.
    rf_words: f64,
    /// Directly computed energy per cycle (e.g. flops × energy/flop).
    direct: f64,
}

/// Latch-group activity summary exposed to the RTLSim/Powerminer analog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupActivity {
    /// Which component.
    pub kind: ComponentKind,
    /// Latch budget of the group.
    pub latches: f64,
    /// Capacity-normalized duty in [0, 1].
    pub duty: f64,
    /// Logic events per cycle.
    pub events_per_cycle: f64,
    /// Fraction of the group's latch clocks enabled per cycle.
    pub clock_enable: f64,
}

/// An Einspower-like component power model bound to one core
/// configuration.
#[derive(Debug, Clone)]
pub struct PowerModel {
    cfg: CoreConfig,
    specs: Vec<ComponentSpec>,
    tech: TechParams,
    style: DesignStyle,
}

impl PowerModel {
    /// Builds the model for a configuration, inferring the design style
    /// (POWER10 discipline iff the unified register file is present).
    #[must_use]
    pub fn for_config(cfg: &CoreConfig) -> Self {
        Self::with_style(cfg, DesignStyle::infer(cfg))
    }

    /// Builds the model with an explicit design style.
    #[must_use]
    pub fn with_style(cfg: &CoreConfig, style: DesignStyle) -> Self {
        PowerModel {
            cfg: cfg.clone(),
            specs: build_components(cfg),
            tech: TechParams::for_style(style),
            style,
        }
    }

    /// The component specs (39 entries).
    #[must_use]
    pub fn components(&self) -> &[ComponentSpec] {
        &self.specs
    }

    /// The design style in use.
    #[must_use]
    pub fn style(&self) -> DesignStyle {
        self.style
    }

    /// Per-component latch-group statistics for one activity window:
    /// `(kind, latches, duty, events_per_cycle, clock_enable_fraction)`.
    ///
    /// This is the interface the RTLSim/Powerminer analog uses to produce
    /// latch-level switching reports without re-deriving the activity
    /// mapping. The groups replace `out`'s contents, in component order,
    /// so a caller folding many windows reuses one buffer.
    pub fn group_stats(&self, act: &Activity, out: &mut Vec<GroupActivity>) {
        out.clear();
        out.extend(self.specs.iter().map(|s| {
            let ua = self.unit_activity(s.kind, act);
            let gated_off = s.kind.is_power_gated() && act.mma_ops == 0;
            let enable = if gated_off {
                0.0
            } else {
                (self.tech.idle_clock_enable + self.tech.active_clock_enable * ua.duty).min(1.0)
            };
            GroupActivity {
                kind: s.kind,
                latches: s.latches,
                duty: ua.duty,
                events_per_cycle: ua.events,
                clock_enable: enable,
            }
        }));
    }

    /// Evaluates the power for one activity window.
    #[must_use]
    pub fn evaluate(&self, act: &Activity) -> PowerReport {
        let components: Vec<ComponentPower> = self
            .specs
            .iter()
            .map(|s| self.component_power(s, act))
            .collect();
        // Idle baseline: zero activity over the same window.
        let idle = Activity {
            cycles: act.cycles.max(1),
            ..Activity::default()
        };
        let idle_total: f64 = self
            .specs
            .iter()
            .map(|s| self.component_power(s, &idle).total())
            .sum();
        PowerReport {
            components,
            cycles: act.cycles,
            idle_total,
        }
    }

    /// Replay entry point: evaluates each window of a recorded activity
    /// trace independently, returning the per-window reports in order.
    ///
    /// This is how a design-space sweep prices a power-only config
    /// change: the windows come from one detailed simulation (recorded
    /// via `p10_uarch::record::ActivityRecorder`) and every power-model
    /// variant re-evaluates them without touching the simulator. By the
    /// recording contract, evaluating the element-wise sum of the
    /// windows reproduces the naive path's whole-run report exactly.
    #[must_use]
    pub fn evaluate_windows(&self, windows: &[Activity]) -> Vec<PowerReport> {
        windows.iter().map(|w| self.evaluate(w)).collect()
    }

    fn component_power(&self, spec: &ComponentSpec, act: &Activity) -> ComponentPower {
        let t = &self.tech;
        let ua = self.unit_activity(spec.kind, act);
        let gated_off_fraction = if spec.kind.is_power_gated() {
            // Power gating: the unit contributes clock/leakage only while
            // the gate is open. The cycle model reports the actual powered
            // window (wake latency + idle hysteresis included).
            if act.cycles == 0 {
                1.0
            } else {
                1.0 - (act.mma_powered_cycles as f64 / act.cycles as f64).min(1.0)
            }
        } else {
            0.0
        };
        let on = 1.0 - gated_off_fraction;

        let enable = (t.idle_clock_enable + t.active_clock_enable * ua.duty).min(1.0);
        let clock = spec.latches / 1000.0 * enable * t.e_latch_clock * on;
        let data = ua.events * ua.event_energy * t.e_data_switch + ua.direct;
        let ghost = ua.events * ua.event_energy * t.e_data_switch * t.ghost_factor;
        let array = ua.accesses * (1.0 + spec.array_kb).sqrt() * t.e_array_access;
        let regfile = ua.rf_words * t.e_regfile_port;
        let leakage = (spec.latches * t.leak_per_latch + spec.array_kb * t.leak_per_kb) * on;

        ComponentPower {
            kind: spec.kind,
            clock,
            data,
            ghost,
            array,
            regfile,
            leakage,
        }
    }

    /// Maps global activity counters to one component's activity.
    #[allow(clippy::too_many_lines)]
    fn unit_activity(&self, kind: ComponentKind, act: &Activity) -> UnitActivity {
        let c = act.cycles.max(1) as f64;
        let cfg = &self.cfg;
        let per = |n: u64| n as f64 / c;
        let duty_of = |n: u64, capacity: u32| (n as f64 / c / f64::from(capacity.max(1))).min(1.0);
        let mut ua = UnitActivity::default();
        match kind {
            ComponentKind::FetchControl => {
                ua.events = per(act.fetched + act.wrong_path_fetched);
                ua.event_energy = 1.0;
                ua.duty = duty_of(act.fetched + act.wrong_path_fetched, cfg.fetch_width);
            }
            ComponentKind::ICacheArray => {
                // Wrong-path fetch re-reads the array too.
                let wrong_path_groups = act.wrong_path_fetched / u64::from(cfg.fetch_width.max(1));
                ua.accesses = per(act.icache_accesses + wrong_path_groups);
                ua.duty = duty_of(act.icache_accesses + wrong_path_groups, 1);
            }
            ComponentKind::BranchDirection => {
                ua.accesses = per(act.icache_accesses); // read per fetch group
                ua.duty = duty_of(act.icache_accesses, 1);
            }
            ComponentKind::BranchIndirect => {
                ua.accesses = per(act.branch_predictions) / 8.0; // indirect subset
                ua.duty = (per(act.branch_predictions) / 8.0).min(1.0);
            }
            ComponentKind::ReturnStack => {
                ua.events = per(act.branch_ops) / 8.0;
                ua.event_energy = 0.5;
                ua.duty = ua.events.min(1.0);
            }
            ComponentKind::Predecode => {
                ua.events = per(act.fetched);
                ua.event_energy = 0.6;
                ua.duty = duty_of(act.fetched, cfg.fetch_width);
            }
            ComponentKind::InstructionBuffer => {
                ua.events = per(act.fetched + act.decoded);
                ua.event_energy = 0.8;
                ua.duty = duty_of(act.fetched, cfg.fetch_width);
            }
            ComponentKind::Decode => {
                // A fused pair does one operation's worth of decode work.
                ua.events = per(act.decoded - act.fused_pairs.min(act.decoded));
                ua.event_energy = 2.0;
                ua.duty = duty_of(act.decoded, cfg.decode_width);
            }
            ComponentKind::FusionLogic => {
                if cfg.fusion {
                    ua.events = per(act.decoded);
                    ua.event_energy = 0.5;
                    ua.duty = duty_of(act.decoded, cfg.decode_width);
                }
            }
            ComponentKind::Dispatch => {
                ua.events = per(act.dispatched - act.fused_pairs.min(act.dispatched));
                ua.event_energy = 1.5;
                ua.duty = duty_of(act.dispatched, cfg.dispatch_width);
            }
            ComponentKind::InstructionTable => {
                ua.events = per(act.dispatched + act.completed);
                ua.event_energy = 2.5;
                ua.duty = (act.mean_window_occupancy() / f64::from(cfg.itable_entries)).min(1.0);
            }
            ComponentKind::RenameMapper => {
                ua.events = per(act.dispatched);
                ua.event_energy = 1.2;
                ua.duty = duty_of(act.dispatched, cfg.dispatch_width);
            }
            ComponentKind::IssueQueue => {
                ua.events = per(act.dispatched + act.issued);
                // Reservation stations move operand data per event.
                ua.event_energy = if cfg.unified_regfile { 1.2 } else { 3.5 };
                ua.duty = duty_of(act.issued, cfg.dispatch_width);
            }
            ComponentKind::RegfileGpr => {
                ua.rf_words = per(act.regfile_reads + act.regfile_writes) * 0.6;
                ua.duty = duty_of(act.issued, cfg.dispatch_width);
            }
            ComponentKind::RegfileVsr => {
                // 128-bit accesses: two words per port.
                ua.rf_words = per(act.regfile_reads + act.regfile_writes) * 0.4 * 2.0;
                ua.duty = duty_of(act.vsx_fp_ops + act.vsx_simple_ops, cfg.vsx_units);
            }
            ComponentKind::BypassNetwork => {
                ua.events = per(act.issued);
                ua.event_energy = 1.0;
                ua.duty = duty_of(act.issued, cfg.int_slices + cfg.vsx_units);
            }
            ComponentKind::AluSlices => {
                ua.events = per(act.alu_ops);
                ua.event_energy = 2.0;
                ua.duty = duty_of(act.alu_ops, cfg.int_slices);
            }
            ComponentKind::MulUnit => {
                ua.events = per(act.mul_ops);
                ua.event_energy = 4.0;
                ua.duty = per(act.mul_ops).min(1.0);
            }
            ComponentKind::DivUnit => {
                ua.events = per(act.div_ops);
                ua.event_energy = 8.0;
                ua.duty = (per(act.div_ops) * f64::from(cfg.div_latency)).min(1.0);
            }
            ComponentKind::BranchExec => {
                ua.events = per(act.branch_ops);
                ua.event_energy = 1.0;
                ua.duty = duty_of(act.branch_ops, cfg.branch_slices);
            }
            ComponentKind::VsxPipes => {
                ua.events = per(act.vsx_simple_ops);
                ua.event_energy = 2.5;
                ua.direct = per(act.vsx_flops) * self.tech.e_vsx_flop;
                ua.duty = duty_of(act.vsx_fp_ops + act.vsx_simple_ops, cfg.vsx_units);
            }
            ComponentKind::MmaGrid => {
                ua.direct = per(act.mma_flops) * self.tech.e_mma_flop;
                ua.duty = per(act.mma_active_cycles).min(1.0);
            }
            ComponentKind::MmaAccumulators => {
                ua.events = per(act.mma_ops + act.mma_moves);
                ua.event_energy = 6.0; // 512-bit accumulator update
                ua.duty = per(act.mma_active_cycles).min(1.0);
            }
            ComponentKind::LsuAgen => {
                ua.events = per(act.loads + act.stores);
                ua.event_energy = 1.8;
                ua.duty = duty_of(act.loads + act.stores, cfg.load_ports + cfg.store_ports);
            }
            ComponentKind::LoadQueue => {
                ua.events = per(act.loads) * 2.0;
                ua.event_energy = 1.0;
                ua.duty = duty_of(act.loads, cfg.load_ports);
            }
            ComponentKind::StoreQueue => {
                ua.events = per(act.stores) * 2.0 + per(act.store_forwards);
                ua.event_energy = 1.5;
                ua.duty = duty_of(act.stores, cfg.store_ports);
            }
            ComponentKind::LoadMissQueue => {
                ua.events = per(act.l1d_misses);
                ua.event_energy = 1.0;
                ua.duty = per(act.l1d_misses).min(1.0);
            }
            ComponentKind::L1DArray => {
                ua.accesses = per(act.l1d_accesses);
                ua.duty = duty_of(act.l1d_accesses, cfg.load_ports + cfg.store_ports);
            }
            ComponentKind::Erat => {
                // The power-hungry CAM lookup: this is where EA-tagging
                // saves energy.
                ua.direct = per(act.ierat_lookups + act.derat_lookups) * self.tech.e_erat_lookup;
                ua.events = per(act.erat_misses);
                ua.event_energy = 3.0;
                ua.duty = per(act.ierat_lookups + act.derat_lookups).min(1.0);
            }
            ComponentKind::Tlb => {
                ua.accesses = per(act.erat_misses);
                ua.duty = per(act.erat_misses).min(1.0);
            }
            ComponentKind::PrefetchEngine => {
                ua.events = per(act.prefetches_issued + act.l1d_misses);
                ua.event_energy = 1.0;
                ua.duty = per(act.prefetches_issued).min(1.0);
            }
            ComponentKind::StoreDrain => {
                ua.events = per(act.stores + act.store_merges);
                ua.event_energy = 1.2;
                ua.duty = duty_of(act.stores, cfg.store_drain_per_cycle);
            }
            ComponentKind::Completion => {
                ua.events = per(act.completed - act.fused_pairs.min(act.completed) / 2);
                ua.event_energy = 0.8;
                ua.duty = duty_of(act.completed, cfg.completion_width);
            }
            ComponentKind::SprUnit => {
                ua.duty = 0.02;
            }
            ComponentKind::PervasiveClock => {
                // Clock distribution runs whenever the core clocks run.
                ua.duty = 1.0;
            }
            ComponentKind::L2Array => {
                ua.accesses = per(act.l2_accesses);
                ua.duty = per(act.l2_accesses).min(1.0);
            }
            ComponentKind::L2Control => {
                ua.events = per(act.l2_accesses);
                ua.event_energy = 2.0;
                ua.duty = per(act.l2_accesses).min(1.0);
            }
            ComponentKind::L3Array => {
                ua.accesses = per(act.l3_accesses);
                ua.duty = per(act.l3_accesses).min(1.0);
            }
            ComponentKind::L3Control => {
                ua.events = per(act.l3_accesses);
                ua.event_energy = 2.5;
                ua.duty = per(act.l3_accesses).min(1.0);
            }
        }
        ua
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activity(cycles: u64) -> Activity {
        Activity {
            cycles,
            completed: cycles * 2,
            fetched: cycles * 2,
            decoded: cycles * 2,
            dispatched: cycles * 2,
            issued: cycles * 2,
            alu_ops: cycles,
            branch_ops: cycles / 4,
            branch_predictions: cycles / 4,
            icache_accesses: cycles / 2,
            loads: cycles / 3,
            stores: cycles / 6,
            l1d_accesses: cycles / 2,
            regfile_reads: cycles * 3,
            regfile_writes: cycles * 2,
            window_occupancy_acc: cycles * 64,
            ..Activity::default()
        }
    }

    #[test]
    fn more_activity_never_less_dynamic_power() {
        let cfg = CoreConfig::power10();
        let m = PowerModel::for_config(&cfg);
        let low = m.evaluate(&activity(1000));
        let mut hi_act = activity(1000);
        hi_act.alu_ops *= 2;
        hi_act.loads *= 2;
        hi_act.l1d_accesses *= 2;
        hi_act.vsx_flops = 4000;
        hi_act.vsx_fp_ops = 1000;
        let hi = m.evaluate(&hi_act);
        assert!(hi.total() > low.total());
    }

    #[test]
    fn idle_power_is_clock_floor_plus_leakage() {
        let cfg = CoreConfig::power10();
        let m = PowerModel::for_config(&cfg);
        let idle = m.evaluate(&Activity {
            cycles: 1000,
            ..Activity::default()
        });
        assert!(idle.total() > 0.0, "idle core still burns clock + leakage");
        assert!(idle.active() < 1e-9, "no activity means no active power");
        assert!(idle.leakage() > 0.0);
    }

    #[test]
    fn mma_fully_gated_when_unused() {
        let cfg = CoreConfig::power10();
        let m = PowerModel::for_config(&cfg);
        let r = m.evaluate(&activity(1000));
        assert_eq!(r.component(ComponentKind::MmaGrid), 0.0);
        assert_eq!(r.component(ComponentKind::MmaAccumulators), 0.0);

        let mut act = activity(1000);
        act.mma_ops = 500;
        act.mma_flops = 500 * 32;
        act.mma_active_cycles = 400;
        let r2 = m.evaluate(&act);
        assert!(r2.component(ComponentKind::MmaGrid) > 0.0);
    }

    #[test]
    fn erat_power_tracks_lookups() {
        let cfg = CoreConfig::power9();
        let m = PowerModel::for_config(&cfg);
        let mut few = activity(1000);
        few.derat_lookups = 10;
        let mut many = few;
        many.derat_lookups = 1000;
        many.ierat_lookups = 1000;
        let r_few = m.evaluate(&few);
        let r_many = m.evaluate(&many);
        let dynamic = |r: &crate::PowerReport| {
            r.components
                .iter()
                .find(|c| c.kind == ComponentKind::Erat)
                .unwrap()
                .dynamic()
        };
        assert!(dynamic(&r_many) > dynamic(&r_few) * 5.0);
    }

    #[test]
    fn legacy_style_burns_more_clock_at_idle() {
        let cfg9 = CoreConfig::power9();
        let cfg10 = CoreConfig::power10();
        let idle = Activity {
            cycles: 1000,
            ..Activity::default()
        };
        let p9 = PowerModel::for_config(&cfg9).evaluate(&idle);
        // Evaluate the *POWER10-sized* design with legacy discipline to
        // isolate the discipline effect.
        let p10_legacy = PowerModel::with_style(&cfg10, DesignStyle::Legacy).evaluate(&idle);
        let p10 = PowerModel::for_config(&cfg10).evaluate(&idle);
        assert!(p10.total() < p10_legacy.total());
        assert!(p9.total() > 0.0);
    }

    #[test]
    fn report_has_39_components() {
        let cfg = CoreConfig::power10();
        let r = PowerModel::for_config(&cfg).evaluate(&activity(100));
        assert_eq!(r.components.len(), 39);
    }

    #[test]
    fn ghost_fraction_matches_style() {
        let cfg = CoreConfig::power9();
        let m = PowerModel::for_config(&cfg);
        let r = m.evaluate(&activity(1000));
        let decode = r
            .components
            .iter()
            .find(|cmp| cmp.kind == ComponentKind::Decode)
            .unwrap();
        assert!(decode.ghost > 0.0);
        assert!((decode.ghost / decode.data - 0.30).abs() < 1e-9);
    }
}
