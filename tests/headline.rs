//! End-to-end headline gates: the paper's top-line claims must hold in
//! shape whenever the whole stack is assembled.

use p10sim::core::gemm::run_fig5;
use p10sim::core::runner::run_suite_par;
use p10sim::core::scenario::SuiteComparison;
use p10sim::uarch::CoreConfig;
use p10sim::workloads::specint_like;

#[test]
fn power10_efficiency_headline() {
    // Paper: ~1.3x throughput at ~0.5x power = 2.6x perf/W (core level,
    // SPECint, iso voltage/frequency). Shape bands, not third decimals.
    let suite = specint_like();
    let p9 = run_suite_par(&CoreConfig::power9(), &suite, 42, 15_000);
    let p10 = run_suite_par(&CoreConfig::power10(), &suite, 42, 15_000);
    let cmp = SuiteComparison::between(&p9, &p10);
    assert!(
        cmp.perf_ratio > 1.15 && cmp.perf_ratio < 1.7,
        "perf ratio {} outside the ~1.3x band",
        cmp.perf_ratio
    );
    assert!(
        cmp.power_ratio > 0.35 && cmp.power_ratio < 0.70,
        "power ratio {} outside the ~0.5x band",
        cmp.power_ratio
    );
    assert!(
        cmp.efficiency_ratio > 2.0 && cmp.efficiency_ratio < 3.4,
        "efficiency ratio {} outside the ~2.6x band",
        cmp.efficiency_ratio
    );
}

#[test]
fn every_benchmark_gains_perf_and_saves_power() {
    let suite = specint_like();
    let p9 = run_suite_par(&CoreConfig::power9(), &suite, 7, 12_000);
    let p10 = run_suite_par(&CoreConfig::power10(), &suite, 7, 12_000);
    for (a, b) in p9.results.iter().zip(p10.results.iter()) {
        assert!(
            b.ipc() > a.ipc(),
            "{} must not regress: P9 {} vs P10 {}",
            a.workload,
            a.ipc(),
            b.ipc()
        );
        assert!(
            b.core_power() < a.core_power(),
            "{} power must drop: P9 {} vs P10 {}",
            a.workload,
            a.core_power(),
            b.core_power()
        );
    }
}

#[test]
fn fig5_gemm_headline() {
    let f = run_fig5(25_000);
    // Orderings that define the figure.
    assert!(f.p10_mma.flops_per_cycle > f.p10_vsu.flops_per_cycle);
    assert!(f.p10_vsu.flops_per_cycle > f.p9_vsu.flops_per_cycle);
    // Both POWER10 points cost less core power than the POWER9 baseline.
    assert!(f.p10_vsu.core_power < f.p9_vsu.core_power);
    assert!(f.p10_mma.core_power < f.p9_vsu.core_power);
    // MMA utilization beats VSU utilization (87.1% vs 62.1% in the paper).
    assert!(f.p10_mma.peak_utilization > f.p10_vsu.peak_utilization);
}

#[test]
fn mma_disabled_config_behaves_like_p10_without_grid() {
    let suite = specint_like();
    let b = &suite[8];
    let with = p10sim::core::scenario::run_benchmark(&CoreConfig::power10(), b, 3, 10_000);
    let without =
        p10sim::core::scenario::run_benchmark(&CoreConfig::power10_no_mma(), b, 3, 10_000);
    // SPECint code never touches the MMA: identical performance, and the
    // gated unit costs nothing, so power matches too.
    assert!((with.ipc() - without.ipc()).abs() < 1e-9);
    assert!((with.core_power() - without.core_power()).abs() < 1e-6);
}
