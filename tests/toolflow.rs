//! Cross-crate tool-flow tests: the paper's methodology pipelines
//! (Figs. 7–9) wired end to end — application → proxies → detailed
//! simulation → accelerated extraction → counter power models → hardware
//! proxy selection.

use p10sim::apex::run_apex;
use p10sim::core::powerstudies::{build_dataset, counter_features, Target};
use p10sim::core::runner::{Engine, EngineConfig};
use p10sim::powermodel::{fit, forward_select, FitOptions};
use p10sim::rtlsim::{run_detailed, Roi, ToggleDensity};
use p10sim::uarch::CoreConfig;
use p10sim::workloads::{chopstix, specint_like};

/// The full §III flow: extract proxies from an application, run them
/// through detailed RTL-style simulation, cross-check with accelerated
/// extraction, and fit a counter power model on the windows.
#[test]
fn proxy_to_power_model_pipeline() {
    let cfg = CoreConfig::power10();
    let bench = &specint_like()[9]; // xzish: concentrated
    let workload = bench.workload(23);

    // 1. Chopstix: hot-function proxies with coverage accounting.
    let proxies = chopstix::extract(workload, 25_000, 5);
    assert!(proxies.coverage > 0.8, "coverage {}", proxies.coverage);
    let hot = &proxies.proxies[0];

    // 2. Detailed (RTLSim + Powerminer) run of the hottest proxy.
    let trace = hot.trace(8_000);
    let detailed = run_detailed(
        &cfg,
        vec![trace.clone()],
        Roi::new(500, 1_000_000),
        ToggleDensity::default(),
    );
    assert!(detailed.powerminer.clock_enable_pct > 0.0);
    assert!(detailed.powerminer.observed_ratio <= 1.0);

    // 3. APEX: same workload, batch extraction; tracked counters must
    //    agree exactly with the detailed run's totals.
    let apex = run_apex(&cfg, vec![trace], 2048, 1_000_000);
    assert_eq!(
        apex.sim.activity.completed, detailed.sim.activity.completed,
        "identical accuracy on tracked signals"
    );
    assert_eq!(
        apex.windows_total().l1d_accesses,
        apex.sim.activity.l1d_accesses
    );

    // 4. Counter power model fitted on APEX windows of suite runs.
    let data = build_dataset(
        &Engine::new(EngineConfig::default()),
        &cfg,
        &specint_like()[7..10],
        &[1],
        10_000,
        512,
        Target::ActivePower,
    );
    let order = forward_select(&data, 6, FitOptions::default());
    let model = fit(&data, &order, FitOptions::default()).expect("fit");
    assert!(model.mean_abs_pct_error(&data) < 10.0);

    // 5. The fitted model predicts the proxy's window power sensibly.
    let (_, feats) = counter_features(&apex.windows[1].activity);
    let predicted = model.predict(&feats);
    assert!(predicted.is_finite() && predicted > 0.0);
}

/// Windowed measurement discipline: the region of interest excludes
/// warmup, exactly like the paper's per-workload measurement windows.
#[test]
fn roi_windows_are_consistent_across_modes() {
    let cfg = CoreConfig::power9();
    let trace = specint_like()[8].workload(5).trace_view_or_panic(10_000);
    let detailed = run_detailed(
        &cfg,
        vec![trace.clone()],
        Roi::new(1_000, 1_000_000),
        ToggleDensity::default(),
    );
    assert!(detailed.roi_activity.completed > 0);
    assert!(detailed.roi_activity.completed < detailed.sim.activity.completed);
    // Power over the ROI only.
    assert!(detailed.power.core_total() > 0.0);
}

/// The 39-component bottom-up decomposition stays in sync with the
/// top-level power across the whole flow.
#[test]
fn component_power_sums_to_total() {
    let cfg = CoreConfig::power10();
    let trace = specint_like()[7].workload(3).trace_view_or_panic(10_000);
    let apex = run_apex(&cfg, vec![trace], 4096, 1_000_000);
    let total = apex.power.total();
    let sum: f64 = apex.power.components.iter().map(|c| c.total()).sum();
    assert!((total - sum).abs() < 1e-9 * total.max(1.0));
    assert_eq!(apex.power.components.len(), 39);
}
