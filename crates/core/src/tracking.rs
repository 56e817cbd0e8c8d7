//! The §III-B project-tracking dashboard: the metrics the paper says
//! were continuously tracked during POWER10 development — IPC, core
//! power, core efficiency, latch count, % clock enabled, potential latch
//! switching, and observed latch switching ratio — computed for any
//! configuration over the suite.

use crate::runner::Engine;
use p10_rtlsim::{run_detailed, Roi, RtlReport, ToggleDensity};
use p10_uarch::CoreConfig;
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// The §III-B tracked-metric row for one design snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrackingRow {
    /// Configuration name.
    pub config: String,
    /// Suite-mean instructions per cycle.
    pub ipc: f64,
    /// Suite-mean core power.
    pub core_power: f64,
    /// Core efficiency (IPC per unit power).
    pub core_efficiency: f64,
    /// Latches in the core design.
    pub latches: f64,
    /// % of latch clocks enabled (inverse of % clock gating).
    pub clock_enabled_pct: f64,
    /// Potential latch switching (per latch per cycle).
    pub potential_switching: f64,
    /// Observed / potential latch switching ratio.
    pub observed_ratio: f64,
}

/// Computes the tracking row of each configuration over a suite subset.
///
/// Every `(config, benchmark)` detailed run is one pool job; each row's
/// suite means are then summed in suite order, so rows are bit-identical
/// at any worker count.
#[must_use]
pub fn track(
    engine: &Engine,
    cfgs: &[CoreConfig],
    suite: &[Benchmark],
    seed: u64,
    ops: u64,
) -> Vec<TrackingRow> {
    let jobs: Vec<(&CoreConfig, &Benchmark)> = cfgs
        .iter()
        .flat_map(|c| suite.iter().map(move |b| (c, b)))
        .collect();
    let samples = engine.run_jobs_par(&jobs, |_, &(cfg, b)| {
        let trace = b.trace_view_or_panic(seed, ops);
        Sample::of(&run_detailed(
            cfg,
            vec![trace],
            Roi::new(500, ops * 40),
            ToggleDensity::default(),
        ))
    });
    let n = suite.len();
    cfgs.iter()
        .enumerate()
        .map(|(i, cfg)| row(cfg, &samples[i * n..(i + 1) * n]))
        .collect()
}

/// The tracked quantities of one detailed run.
struct Sample {
    ipc: f64,
    power: f64,
    clock_pct: f64,
    potential: f64,
    observed: f64,
    latches: f64,
}

impl Sample {
    fn of(r: &RtlReport) -> Self {
        Sample {
            ipc: r.roi_activity.ipc(),
            power: r.power.core_total(),
            clock_pct: r.powerminer.clock_enable_pct,
            potential: r.powerminer.potential_switching,
            observed: r.powerminer.observed_switching,
            latches: r.powerminer.total_latches,
        }
    }
}

/// Folds one configuration's per-benchmark samples, in suite order, into
/// its row.
fn row(cfg: &CoreConfig, samples: &[Sample]) -> TrackingRow {
    let mut ipc = 0.0;
    let mut power = 0.0;
    let mut clock_pct = 0.0;
    let mut potential = 0.0;
    let mut observed = 0.0;
    let mut latches = 0.0;
    for s in samples {
        ipc += s.ipc;
        power += s.power;
        clock_pct += s.clock_pct;
        potential += s.potential;
        observed += s.observed;
        latches = s.latches;
    }
    let n = samples.len().max(1) as f64;
    let (ipc, power) = (ipc / n, power / n);
    TrackingRow {
        config: cfg.name.clone(),
        ipc,
        core_power: power,
        core_efficiency: ipc / power.max(1e-12),
        latches,
        clock_enabled_pct: clock_pct / n,
        potential_switching: potential / n,
        observed_ratio: if potential > 0.0 {
            observed / potential
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EngineConfig;
    use p10_workloads::specint_like;

    #[test]
    fn tracking_dashboard_shows_the_development_story() {
        let suite = specint_like();
        let sel = &suite[7..9];
        let [p9, p10]: [TrackingRow; 2] = track(
            &Engine::new(EngineConfig::default()),
            &[CoreConfig::power9(), CoreConfig::power10()],
            sel,
            42,
            6_000,
        )
        .try_into()
        .expect("one row per config");
        // The §III-B narrative: POWER10 has MORE latches yet LESS clock
        // enabled, higher IPC, lower power, much better efficiency.
        assert!(
            p10.latches > p9.latches,
            "{} vs {}",
            p10.latches,
            p9.latches
        );
        assert!(p10.clock_enabled_pct < p9.clock_enabled_pct);
        assert!(p10.ipc > p9.ipc);
        assert!(p10.core_power < p9.core_power);
        assert!(p10.core_efficiency > p9.core_efficiency * 1.8);
        assert!(p10.observed_ratio <= 1.0 && p10.observed_ratio > 0.0);
    }
}
