//! The wasted-instruction (flush-reduction) study.
//!
//! The paper (§II-B): POWER10's branch-prediction improvements reduce
//! wasted/flushed instructions by 25% on average for SPECint and up to
//! 38% for interpreted languages and business analytics.

use crate::runner::Engine;
use crate::scenario::run_benchmark;
use p10_uarch::CoreConfig;
use p10_workloads::suite::{extended_groups, specint_like};
use p10_workloads::{Benchmark, WorkloadGroup};
use serde::{Deserialize, Serialize};

/// Per-workload flush comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlushRow {
    /// Workload name.
    pub workload: String,
    /// Workload group.
    pub group: WorkloadGroup,
    /// Wasted (wrong-path) instructions per completed instruction, POWER9.
    pub p9_waste_per_inst: f64,
    /// Same for POWER10.
    pub p10_waste_per_inst: f64,
}

impl FlushRow {
    /// Fractional reduction (positive = POWER10 wastes less).
    #[must_use]
    pub fn reduction(&self) -> f64 {
        1.0 - self.p10_waste_per_inst / self.p9_waste_per_inst.max(1e-12)
    }
}

/// The full flush study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlushStudy {
    /// Per-workload rows.
    pub rows: Vec<FlushRow>,
}

impl FlushStudy {
    /// Mean reduction over a workload group subset.
    #[must_use]
    pub fn mean_reduction(&self, filter: impl Fn(WorkloadGroup) -> bool) -> f64 {
        let v: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| filter(r.group))
            .map(FlushRow::reduction)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// Mean SPECint reduction (paper: 25%).
    #[must_use]
    pub fn specint_reduction(&self) -> f64 {
        self.mean_reduction(|g| g == WorkloadGroup::SpecIntLike)
    }

    /// Mean interpreted/analytics reduction (paper: 38%).
    #[must_use]
    pub fn interpreted_reduction(&self) -> f64 {
        self.mean_reduction(|g| matches!(g, WorkloadGroup::Interpreted | WorkloadGroup::Analytics))
    }
}

fn waste(cfg: &CoreConfig, b: &Benchmark, seed: u64, ops: u64) -> f64 {
    let r = run_benchmark(cfg, b, seed, ops);
    r.sim.activity.wrong_path_fetched as f64 / r.sim.activity.completed.max(1) as f64
}

/// Runs the flush study over the SPECint-like suite plus the extended
/// workload groups: one pool job per workload, POWER9 then POWER10 inside
/// the job (so the second run reuses the first's traces), rows in
/// workload order.
#[must_use]
pub fn run_flush_study(engine: &Engine, seed: u64, ops: u64) -> FlushStudy {
    let p9 = CoreConfig::power9();
    let p10 = CoreConfig::power10();
    let workloads: Vec<Benchmark> = specint_like()
        .into_iter()
        .chain(extended_groups())
        .collect();
    let rows = engine.run_jobs_par(&workloads, |_, b| FlushRow {
        workload: b.name.clone(),
        group: b.group,
        p9_waste_per_inst: waste(&p9, b, seed, ops),
        p10_waste_per_inst: waste(&p10, b, seed, ops),
    });
    FlushStudy { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EngineConfig;

    #[test]
    fn flush_reductions_match_paper_shape() {
        let s = run_flush_study(&Engine::new(EngineConfig::default()), 42, 25_000);
        let spec = s.specint_reduction();
        let interp = s.interpreted_reduction();
        // Paper: 25% SPECint, 38% interpreted/analytics. Shape gate:
        // both large and positive.
        assert!(spec > 0.15, "SPECint reduction {spec}");
        assert!(interp > 0.15, "interpreted reduction {interp}");
        // Every SPECint workload individually improves.
        for r in s
            .rows
            .iter()
            .filter(|r| r.group == WorkloadGroup::SpecIntLike)
        {
            assert!(
                r.reduction() > 0.0,
                "{} regressed: {}",
                r.workload,
                r.reduction()
            );
        }
    }
}
