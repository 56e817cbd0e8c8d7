//! Table I: chip features and the headline efficiency projections.

use crate::runner::run_suite_par;
use crate::scenario::SuiteComparison;
use p10_uarch::{CoreConfig, SmtMode};
use p10_workloads::Benchmark;
use serde::{Deserialize, Serialize};

/// The measured Table I quantities (features come straight from the
/// configuration; efficiency rows are measured on the suite).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// SMT ways per core (the full SMT8 core = 2 modeled halves).
    pub smt_per_core: u32,
    /// L2 per SMT8 core, MiB.
    pub l2_per_core_mib: f64,
    /// TLB entries relative to POWER9 (paper: 4×).
    pub mmu_ratio: f64,
    /// Core performance/watt ratio vs POWER9 (paper: 2.6×).
    pub perf_per_watt_core: f64,
    /// Socket energy-efficiency ratio vs POWER9 (paper: up to 3×): the
    /// core ratio compounded by SMT scaling headroom.
    pub socket_efficiency: f64,
    /// Underlying perf and power ratios.
    pub perf_ratio: f64,
    /// Mean core-power ratio (new / baseline).
    pub power_ratio: f64,
}

/// Measures Table I on the suite. ST rows capture the core-level 2.6×;
/// the socket row additionally runs SMT4 (the throughput configuration
/// dense sockets actually ship).
#[must_use]
pub fn run_table1(suite: &[Benchmark], seed: u64, ops: u64) -> Table1 {
    let p9 = CoreConfig::power9();
    let p10 = CoreConfig::power10();
    let st = SuiteComparison::between(
        &run_suite_par(&p9, suite, seed, ops),
        &run_suite_par(&p10, suite, seed, ops),
    );
    // Socket view: SMT4 halves (SMT8 cores), where POWER10's deeper
    // queues and bandwidth stretch further.
    let mut p9s = p9.clone();
    p9s.smt = SmtMode::Smt2;
    let mut p10s = p10.clone();
    p10s.smt = SmtMode::Smt2;
    let smt = SuiteComparison::between(
        &run_suite_par(&p9s, suite, seed, ops / 2),
        &run_suite_par(&p10s, suite, seed, ops / 2),
    );
    Table1 {
        smt_per_core: 8,
        l2_per_core_mib: 2.0 * p10.l2.size_bytes as f64 / (1 << 20) as f64,
        mmu_ratio: f64::from(p10.tlb_entries) / f64::from(p9.tlb_entries),
        perf_per_watt_core: st.efficiency_ratio,
        socket_efficiency: smt.efficiency_ratio,
        perf_ratio: st.perf_ratio,
        power_ratio: st.power_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_workloads::specint_like;

    #[test]
    fn table1_headline_bands() {
        let suite = specint_like();
        let t = run_table1(&suite[..6], 42, 20_000);
        assert_eq!(t.smt_per_core, 8);
        assert!((t.l2_per_core_mib - 2.0).abs() < 1e-9);
        assert!((t.mmu_ratio - 4.0).abs() < 1e-9);
        // Core perf/W near the paper's 2.6x (shape band).
        assert!(
            t.perf_per_watt_core > 1.8 && t.perf_per_watt_core < 3.5,
            "core efficiency {}",
            t.perf_per_watt_core
        );
        assert!(t.perf_ratio > 1.1);
        assert!(t.power_ratio < 0.75);
    }
}
