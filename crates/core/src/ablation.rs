//! The Fig. 4 experiment: performance effect of each POWER9→POWER10
//! design-change group, for ST and SMT4 ("SMT8" at the full-core level),
//! averaged over the SPECint-like suite, with maximum gains across the
//! extended workload groups (the stars in Fig. 4).
//!
//! Paper averages for SMT8 SPECint: branch ≈4%, latency+BW ≈10%,
//! L2 ≈9%, decode+double-VSX ≈5%, queues ≈4%; ML/analytics workloads gain
//! close to 2× from the doubled VSX units alone.

use crate::runner;
use crate::scenario::geomean;
use p10_uarch::{AblationGroup, CoreConfig, SmtMode};
use p10_workloads::suite::extended_groups;
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-group result row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// The design-change group label (Fig. 4 x-axis).
    pub group: String,
    /// Mean ST gain over the SPECint-like suite (fraction, e.g. 0.04).
    pub st_gain: f64,
    /// Mean SMT4 gain over the suite.
    pub smt_gain: f64,
    /// Maximum gain observed across all workload groups (the star).
    pub max_gain: f64,
    /// Which workload produced the maximum gain.
    pub max_workload: String,
}

/// The full Fig. 4 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4 {
    /// One row per design-change group, in Fig. 4 order.
    pub rows: Vec<AblationRow>,
}

/// The configs Fig. 4 measures in one SMT mode: the POWER9 base, then
/// each group applied cumulatively in Fig. 4 order.
fn cumulative_configs(mode: SmtMode) -> Vec<CoreConfig> {
    let mut base = CoreConfig::power9();
    base.smt = mode;
    let mut steps = vec![base];
    for group in AblationGroup::ALL {
        let prev = steps.last().expect("the base config");
        let mut cfg = prev.clone();
        cfg.apply(group);
        cfg.name = format!("{}+{:?}", prev.name, group);
        steps.push(cfg);
    }
    steps
}

/// Runs the Fig. 4 ablation: groups applied cumulatively in Fig. 4 order,
/// measuring each group's incremental gain.
///
/// Every config is built first, so all points run as one pool batch: the
/// suite in ST and SMT4, plus the extended groups in SMT4 (the stars),
/// deduplicated by [`runner::point_key`]. A job is one warm-equivalence
/// class (warm projection × benchmark) with its points in group order —
/// `Queues` changes no warm-relevant field — so a sampled run warms each
/// class once. The gains are folded in group order after the join.
#[must_use]
pub fn run_fig4(suite: &[Benchmark], seed: u64, ops: u64) -> Fig4 {
    let extended = extended_groups();
    let modes = [
        (cumulative_configs(SmtMode::St), suite.iter().collect()),
        (
            cumulative_configs(SmtMode::Smt4),
            suite.iter().chain(&extended).collect::<Vec<&Benchmark>>(),
        ),
    ];

    // slots[mode][step][benchmark]: the point's job and its position there.
    let mut jobs: Vec<Vec<(&CoreConfig, &Benchmark)>> = Vec::new();
    let mut by_key: HashMap<String, (usize, usize)> = HashMap::new();
    let mut by_class: HashMap<String, usize> = HashMap::new();
    let mut slots: Vec<Vec<Vec<(usize, usize)>>> = Vec::new();
    for (cfgs, benches) in &modes {
        let mut mode_slots = Vec::new();
        for cfg in cfgs {
            let mut step_slots = Vec::new();
            for &b in benches {
                let key = runner::point_key(cfg, b, seed, ops);
                let slot = *by_key.entry(key).or_insert_with(|| {
                    let class = format!(
                        "{}|{}",
                        serde_json::to_string(&runner::warm_projection(cfg))
                            .expect("config serializes"),
                        b.name
                    );
                    let job = *by_class.entry(class).or_insert_with(|| {
                        jobs.push(Vec::new());
                        jobs.len() - 1
                    });
                    jobs[job].push((cfg, b));
                    (job, jobs[job].len() - 1)
                });
                step_slots.push(slot);
            }
            mode_slots.push(step_slots);
        }
        slots.push(mode_slots);
    }
    let ipcs = runner::run_jobs_par(&jobs, |_, job| {
        job.iter()
            .map(|&(cfg, b)| runner::engine().run_benchmark(cfg, b, seed, ops).ipc())
            .collect::<Vec<f64>>()
    });
    let ipc: Vec<Vec<Vec<f64>>> = slots
        .iter()
        .map(|by_step| {
            by_step
                .iter()
                .map(|row| row.iter().map(|&(job, pos)| ipcs[job][pos]).collect())
                .collect()
        })
        .collect();
    // Each benchmark's IPC ratio from `step - 1` to `step` in mode `m`.
    let ratios = |m: usize, step: usize| {
        ipc[m][step]
            .iter()
            .zip(&ipc[m][step - 1])
            .map(|(new, old)| new / old.max(1e-12))
    };

    let rows = AblationGroup::ALL
        .iter()
        .enumerate()
        .map(|(g, group)| {
            let step = g + 1;
            let mut max_gain = f64::MIN;
            let mut max_workload = String::new();
            for (b, ratio) in modes[1].1.iter().zip(ratios(1, step)) {
                if ratio - 1.0 > max_gain {
                    max_gain = ratio - 1.0;
                    max_workload = b.name.clone();
                }
            }
            AblationRow {
                group: group.label().to_owned(),
                st_gain: geomean(ratios(0, step)) - 1.0,
                smt_gain: geomean(ratios(1, step).take(suite.len())) - 1.0,
                max_gain,
                max_workload,
            }
        })
        .collect();
    Fig4 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_workloads::specint_like;

    #[test]
    fn fig4_has_five_positive_aggregate_rows() {
        // Small op budget keeps the test quick; shape only.
        let suite = specint_like();
        let f = run_fig4(&suite[..4], 7, 12_000);
        assert_eq!(f.rows.len(), 5);
        let total: f64 = f.rows.iter().map(|r| (1.0 + r.smt_gain).ln()).sum();
        assert!(
            total.exp() > 1.1,
            "cumulative SMT gain must be substantial, got {}",
            total.exp()
        );
        for r in &f.rows {
            assert!(r.max_gain >= r.smt_gain - 1e-9);
            assert!(!r.max_workload.is_empty());
        }
    }
}
