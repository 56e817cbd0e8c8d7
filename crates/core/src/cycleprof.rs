//! The `figures profile` experiment: per-workload cycle attribution.
//!
//! The paper's methodology instruments the machine and reasons from the
//! counters; this module does the same for the simulator itself, using
//! the always-on [`CycleAttribution`] the pipeline maintains (no per-cycle
//! RTLSim observer required). For each configuration it runs the suite
//! through the cached engine — sharing simulation points with Table I and
//! the figure drivers — and reports where every cycle went.
//!
//! Under a sampled execution mode (`--sampling`, [`crate::sampling`])
//! the engine hands back *reconstituted* attributions — ops-weighted
//! sums of per-interval terms — but the partition invariant these rows
//! rely on survives sampling: buckets still sum exactly to the
//! (estimated) total cycles, so every `share` column still adds to 100%.

use crate::runner::run_suite_par;
use p10_uarch::{CoreConfig, CycleAttribution};
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// Cycle attribution of one (workload, configuration) point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileRow {
    /// Workload name.
    pub workload: String,
    /// Configuration name.
    pub config: String,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Aggregate instructions per cycle.
    pub ipc: f64,
    /// Where the cycles went (buckets sum to `cycles`).
    pub attribution: CycleAttribution,
}

impl ProfileRow {
    /// One bucket as a percentage of total cycles.
    #[must_use]
    pub fn share(&self, bucket_value: u64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            100.0 * bucket_value as f64 / self.cycles as f64
        }
    }
}

/// Runs the suite on each configuration and collects one [`ProfileRow`]
/// per (workload, configuration) point, in suite-then-config order.
#[must_use]
pub fn run_profile(
    configs: &[CoreConfig],
    suite: &[Benchmark],
    seed: u64,
    max_ops: u64,
) -> Vec<ProfileRow> {
    let mut rows = Vec::new();
    for cfg in configs {
        let sr = run_suite_par(cfg, suite, seed, max_ops);
        for r in &sr.results {
            debug_assert_eq!(r.sim.attribution.total(), r.sim.activity.cycles);
            rows.push(ProfileRow {
                workload: r.workload.clone(),
                config: r.config.clone(),
                cycles: r.sim.activity.cycles,
                ipc: r.ipc(),
                attribution: r.sim.attribution,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_workloads::specint_like;

    #[test]
    fn profile_rows_cover_suite_times_configs() {
        let suite = &specint_like()[..2];
        let configs = [CoreConfig::power9(), CoreConfig::power10()];
        let rows = run_profile(&configs, suite, 42, 4000);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(
                row.attribution.total(),
                row.cycles,
                "{} @ {}: buckets must sum to cycles",
                row.workload,
                row.config
            );
            assert!(row.cycles > 0);
            assert!(row.ipc > 0.0);
            let active_share = row.share(row.attribution.active);
            assert!((0.0..=100.0).contains(&active_share));
        }
        assert_eq!(rows[0].config, rows[1].config);
        assert_ne!(rows[0].config, rows[2].config);
    }
}
