//! SMT throughput scaling: how aggregate throughput grows from ST to
//! SMT4 on each half-core, POWER9 vs POWER10.
//!
//! Table I's "SMT per core: 8-way" and the paper's SMT8 result rows rest
//! on the machine actually scaling with threads; POWER10's deeper
//! instruction window, larger queues and doubled load/store bandwidth
//! are what keep extra threads fed.

use crate::runner::Engine;
use p10_uarch::{CoreConfig, SmtMode};
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// One (machine, SMT level) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmtPoint {
    /// Configuration name.
    pub config: String,
    /// Hardware threads.
    pub threads: usize,
    /// Suite-mean aggregate IPC.
    pub aggregate_ipc: f64,
    /// Throughput relative to the same machine at ST.
    pub scaling: f64,
}

/// The SMT scaling dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmtScaling {
    /// Points for both machines at ST/SMT2/SMT4.
    pub points: Vec<SmtPoint>,
}

impl SmtScaling {
    /// The scaling factor for a machine at a thread count.
    #[must_use]
    pub fn scaling_of(&self, config: &str, threads: usize) -> f64 {
        self.points
            .iter()
            .find(|p| p.config == config && p.threads == threads)
            .map_or(0.0, |p| p.scaling)
    }
}

/// Runs the SMT scaling study over a suite subset.
#[must_use]
pub fn run_smt_scaling(engine: &Engine, suite: &[Benchmark], seed: u64, ops: u64) -> SmtScaling {
    let mut points = Vec::new();
    for base in [CoreConfig::power9(), CoreConfig::power10()] {
        let mut st_ipc = 0.0;
        for smt in [SmtMode::St, SmtMode::Smt2, SmtMode::Smt4] {
            let mut cfg = base.clone();
            cfg.smt = smt;
            let mean_ipc: f64 = engine
                .run_suite(&cfg, suite, seed, ops)
                .results
                .iter()
                .map(crate::scenario::ScenarioResult::ipc)
                .sum::<f64>()
                / suite.len().max(1) as f64;
            if smt == SmtMode::St {
                st_ipc = mean_ipc;
            }
            points.push(SmtPoint {
                config: base.name.clone(),
                threads: smt.threads(),
                aggregate_ipc: mean_ipc,
                scaling: mean_ipc / st_ipc.max(1e-12),
            });
        }
    }
    SmtScaling { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EngineConfig;
    use p10_workloads::specint_like;

    #[test]
    fn smt_scaling_shape() {
        let suite = specint_like();
        // A mixed subset: one compute-bound, one memory-bound, one middle.
        let sel: Vec<_> = [8usize, 2, 7].iter().map(|&i| suite[i].clone()).collect();
        let s = run_smt_scaling(&Engine::new(EngineConfig::default()), &sel, 42, 8_000);
        assert_eq!(s.points.len(), 6);
        for cfg in ["POWER9", "POWER10"] {
            // More threads never reduce aggregate throughput.
            let s1 = s.scaling_of(cfg, 1);
            let s2 = s.scaling_of(cfg, 2);
            let s4 = s.scaling_of(cfg, 4);
            assert!((s1 - 1.0).abs() < 1e-9);
            assert!(s2 >= 1.0, "{cfg} SMT2 scaling {s2}");
            assert!(s4 >= s2 * 0.95, "{cfg} SMT4 scaling {s4} vs SMT2 {s2}");
            // And scaling is sub-linear (shared resources).
            assert!(s4 < 4.0);
        }
        // POWER10's deeper machine sustains SMT at least as well as
        // POWER9.
        assert!(
            s.scaling_of("POWER10", 4) >= s.scaling_of("POWER9", 4) * 0.9,
            "P10 SMT4 {} vs P9 {}",
            s.scaling_of("POWER10", 4),
            s.scaling_of("POWER9", 4)
        );
    }
}
