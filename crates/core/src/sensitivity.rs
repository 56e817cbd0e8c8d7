//! Design-choice sensitivity: each POWER10 efficiency mechanism toggled
//! *off* in isolation on the full POWER10 configuration, measuring what
//! it individually buys in performance and core power.
//!
//! This is the ablation view DESIGN.md calls out for the paper's §II-B
//! mechanisms: instruction fusion, EA-tagged L1 caches, store gathering,
//! the stream prefetcher, the long-history branch predictor, and the
//! unified register file's clock-gating discipline.

use crate::runner::Engine;
use crate::scenario::geomean;
use p10_uarch::CoreConfig;
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// One toggleable design choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DesignChoice {
    /// Decode-time instruction fusion (>200 pair types).
    Fusion,
    /// Effective-address-tagged L1 caches (translate only on miss).
    EaTaggedL1,
    /// Store gathering in the store queue.
    StoreMerge,
    /// The hardware stream prefetcher.
    Prefetcher,
    /// The long-history (TAGE-like) direction predictor component.
    LongHistoryPredictor,
    /// Dual store-queue drain (2 entries/cycle to the caches).
    DualStoreDrain,
}

impl DesignChoice {
    /// All choices, in presentation order.
    pub const ALL: [DesignChoice; 6] = [
        DesignChoice::Fusion,
        DesignChoice::EaTaggedL1,
        DesignChoice::StoreMerge,
        DesignChoice::Prefetcher,
        DesignChoice::LongHistoryPredictor,
        DesignChoice::DualStoreDrain,
    ];

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DesignChoice::Fusion => "instruction fusion",
            DesignChoice::EaTaggedL1 => "EA-tagged L1",
            DesignChoice::StoreMerge => "store gathering",
            DesignChoice::Prefetcher => "stream prefetcher",
            DesignChoice::LongHistoryPredictor => "long-history predictor",
            DesignChoice::DualStoreDrain => "dual store drain",
        }
    }

    /// Returns POWER10 with this choice disabled.
    #[must_use]
    pub fn disabled_in(self, base: &CoreConfig) -> CoreConfig {
        let mut c = base.clone();
        c.name = format!("{}-no-{:?}", base.name, self);
        match self {
            DesignChoice::Fusion => c.fusion = false,
            DesignChoice::EaTaggedL1 => c.ea_tagged_l1 = false,
            DesignChoice::StoreMerge => c.store_merge = false,
            DesignChoice::Prefetcher => c.prefetch_streams = 0,
            DesignChoice::LongHistoryPredictor => c.branch.long_history_entries = 0,
            DesignChoice::DualStoreDrain => c.store_drain_per_cycle = 1,
        }
        c
    }
}

/// Measured effect of one design choice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensitivityRow {
    /// The choice.
    pub choice: DesignChoice,
    /// Label for display.
    pub label: String,
    /// Suite geomean performance loss when disabled (fraction; positive
    /// means the mechanism helps performance).
    pub perf_benefit: f64,
    /// Mean core-power increase when disabled (fraction; positive means
    /// the mechanism saves power).
    pub power_benefit: f64,
    /// Energy-efficiency benefit (perf benefit compounded with power).
    pub efficiency_benefit: f64,
}

/// Runs the sensitivity study over a suite.
#[must_use]
pub fn run_sensitivity(
    engine: &Engine,
    suite: &[Benchmark],
    seed: u64,
    ops: u64,
) -> Vec<SensitivityRow> {
    let base_cfg = CoreConfig::power10();
    let base = engine.run_suite(&base_cfg, suite, seed, ops).results;
    DesignChoice::ALL
        .iter()
        .map(|&choice| {
            let cfg = choice.disabled_in(&base_cfg);
            let disabled = engine.run_suite(&cfg, suite, seed, ops).results;
            let perf = geomean(
                base.iter()
                    .zip(disabled.iter())
                    .map(|(on, off)| on.ipc() / off.ipc().max(1e-12)),
            ) - 1.0;
            let p_on: f64 = base
                .iter()
                .map(super::scenario::ScenarioResult::core_power)
                .sum::<f64>();
            let p_off: f64 = disabled
                .iter()
                .map(super::scenario::ScenarioResult::core_power)
                .sum::<f64>();
            // Positive when the mechanism lowers power at iso work:
            // compare energy per instruction (power x cpi).
            let epi_on: f64 = base
                .iter()
                .map(|r| r.core_power() * r.sim.cpi())
                .sum::<f64>();
            let epi_off: f64 = disabled
                .iter()
                .map(|r| r.core_power() * r.sim.cpi())
                .sum::<f64>();
            let power_benefit = p_off / p_on.max(1e-12) - 1.0;
            let efficiency_benefit = epi_off / epi_on.max(1e-12) - 1.0;
            SensitivityRow {
                choice,
                label: choice.label().to_owned(),
                perf_benefit: perf,
                power_benefit,
                efficiency_benefit,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EngineConfig;
    use p10_workloads::specint_like;

    #[test]
    fn each_mechanism_helps_energy_efficiency() {
        let suite = specint_like();
        // A representative slice keeps the test quick.
        let rows = run_sensitivity(
            &Engine::new(EngineConfig::default()),
            &suite[..4],
            42,
            12_000,
        );
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.efficiency_benefit > -0.02,
                "{} must not hurt energy/instruction: {}",
                r.label,
                r.efficiency_benefit
            );
        }
        // Fusion and EA-tagging are the flagship mechanisms: both must
        // show clear benefit on at least one axis.
        let fusion = rows
            .iter()
            .find(|r| r.choice == DesignChoice::Fusion)
            .unwrap();
        assert!(fusion.perf_benefit > 0.0 || fusion.efficiency_benefit > 0.01);
        let ea = rows
            .iter()
            .find(|r| r.choice == DesignChoice::EaTaggedL1)
            .unwrap();
        assert!(
            ea.efficiency_benefit > 0.02,
            "EA tagging must save energy: {}",
            ea.efficiency_benefit
        );
    }

    #[test]
    fn disabled_configs_differ_from_base() {
        let base = CoreConfig::power10();
        for c in DesignChoice::ALL {
            let d = c.disabled_in(&base);
            assert_ne!(d, base, "{c:?} toggle must change the config");
        }
    }
}
