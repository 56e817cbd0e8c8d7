//! Tracepoints versus Simpoints (paper §III-A).
//!
//! The paper argues BBV-based Simpoints miss phases that basic-block
//! vectors cannot see — LLC misses, periodicity, and the behaviour of
//! interpreted languages where the code mix barely changes while
//! performance swings. The adversarial case here is a *phased pointer
//! chase*: identical code, data-driven cache phases. Epoch performance
//! counters (from APEX windows) feed Tracepoints; BBVs from the
//! functional trace feed Simpoints; both project CPI and are compared to
//! the full-run truth.

use crate::runner::Engine;
use p10_apex::run_apex;
use p10_trace::simpoint::{bbv_intervals, simpoints};
use p10_trace::tracepoints::{tracepoints, Epoch, TracepointConfig};
use p10_uarch::CoreConfig;
use p10_workloads::Workload;
use serde::{Deserialize, Serialize};

/// The comparison result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceStudy {
    /// True full-run CPI.
    pub full_cpi: f64,
    /// CPI projected from the Simpoint selection.
    pub simpoint_cpi: f64,
    /// CPI projected from the Tracepoint selection.
    pub tracepoint_cpi: f64,
    /// Relative errors (fractions).
    pub simpoint_error: f64,
    /// Relative error of the Tracepoint estimate.
    pub tracepoint_error: f64,
    /// Number of epochs/intervals considered.
    pub epochs: usize,
}

/// Runs the study on a workload. `epoch_ops` is both the BBV interval
/// and, via matching windowing, the counter epoch.
#[must_use]
pub fn run_trace_study(
    engine: &Engine,
    cfg: &CoreConfig,
    workload: &Workload,
    total_ops: u64,
    epoch_ops: usize,
    clusters: usize,
) -> TraceStudy {
    let trace = engine.timed(&format!("trace {} ops={total_ops}", workload.name), || {
        workload.trace_view_or_panic(total_ops)
    });
    let bbvs = engine.timed("tracestudy bbv intervals", || {
        let mut bbvs = bbv_intervals(trace.iter(), epoch_ops, 64);
        // This study aligns BBV intervals 1:1 with equal-size counter
        // epochs, so the ragged partial tail (which has no matching
        // epoch) is dropped here — the sampled-execution engine is the
        // consumer that keeps it, with an ops-proportional weight.
        if !trace.len().is_multiple_of(epoch_ops) {
            bbvs.pop();
        }
        bbvs
    });

    // Timing epochs: drive the cycle model and cut windows at epoch_ops
    // completed instructions (approximated by small cycle windows folded
    // into per-epoch aggregates).
    let report = engine.timed(&format!("apex {} @ {}", workload.name, cfg.name), || {
        run_apex(cfg, vec![trace], 64, total_ops * 40)
    });
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut per_epoch_cpi: Vec<f64> = Vec::new();
    let mut acc = p10_uarch::Activity::default();
    for w in &report.windows {
        acc = acc.sum(&w.activity);
        if acc.completed >= epoch_ops as u64 {
            let cpi = acc.cpi();
            epochs.push(Epoch {
                metrics: vec![
                    cpi,
                    acc.l1d_misses as f64 / acc.completed.max(1) as f64,
                    acc.branch_mispredicts as f64 / acc.completed.max(1) as f64,
                ],
            });
            per_epoch_cpi.push(cpi);
            acc = p10_uarch::Activity::default();
        }
    }
    let n = epochs.len().min(bbvs.len());
    let epochs = &epochs[..n];
    let per_epoch_cpi = &per_epoch_cpi[..n];
    let bbvs = &bbvs[..n];

    let full_cpi = per_epoch_cpi.iter().sum::<f64>() / n.max(1) as f64;
    let sp = simpoints(bbvs, clusters, 11);
    let tp = tracepoints(
        epochs,
        &TracepointConfig {
            bins: clusters.max(2),
            sub_bins: 2,
            budget: clusters.max(2) * 2,
        },
    );
    let simpoint_cpi = sp.weighted_estimate(per_epoch_cpi);
    let tracepoint_cpi = tp.weighted_estimate(per_epoch_cpi);
    TraceStudy {
        full_cpi,
        simpoint_cpi,
        tracepoint_cpi,
        simpoint_error: (simpoint_cpi - full_cpi).abs() / full_cpi.max(1e-12),
        tracepoint_error: (tracepoint_cpi - full_cpi).abs() / full_cpi.max(1e-12),
        epochs: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EngineConfig;
    use p10_workloads::suite::phased_pointer_chase;

    #[test]
    fn tracepoints_beat_simpoints_on_phased_interpreted_like_code() {
        let w = phased_pointer_chase(2_000);
        let s = run_trace_study(
            &Engine::new(EngineConfig::default()),
            &CoreConfig::power10(),
            &w,
            60_000,
            1_500,
            3,
        );
        assert!(s.epochs >= 8, "need phases to compare, got {}", s.epochs);
        assert!(
            s.tracepoint_error < 0.10,
            "tracepoint error {}",
            s.tracepoint_error
        );
        assert!(
            s.tracepoint_error <= s.simpoint_error + 1e-9,
            "tracepoints {} must beat BBV simpoints {}",
            s.tracepoint_error,
            s.simpoint_error
        );
    }
}
