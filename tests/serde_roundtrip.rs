//! Serde round-trips for the public data types: experiment artifacts are
//! JSON (the `figures --json` output); everything a downstream tool
//! consumes must survive serialize → deserialize unchanged.

use p10sim::isa::{DynOp, Machine, ProgramBuilder, Reg};
use p10sim::uarch::{Activity, CoreConfig};

#[test]
fn core_config_roundtrip() {
    for cfg in [
        CoreConfig::power9(),
        CoreConfig::power10(),
        CoreConfig::power10_no_mma(),
    ] {
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: CoreConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(cfg, back);
    }
}

#[test]
fn program_and_trace_roundtrip() {
    let mut b = ProgramBuilder::new();
    b.li(Reg::gpr(4), 25);
    b.mtctr(Reg::gpr(4));
    let top = b.bind_label();
    b.addi(Reg::gpr(3), Reg::gpr(3), 1);
    b.ld(Reg::gpr(5), Reg::gpr(3), 64);
    b.bdnz(top);
    let p = b.build();

    let json = serde_json::to_string(&p).expect("serialize program");
    let p2: p10sim::isa::Program = serde_json::from_str(&json).expect("deserialize program");
    assert_eq!(p.insts(), p2.insts());

    // Deserialized programs execute identically.
    let t1 = Machine::new().run(&p, 10_000).unwrap();
    let t2 = Machine::new().run(&p2, 10_000).unwrap();
    assert_eq!(t1, t2);

    // The executed ops themselves round-trip.
    let ops: Vec<DynOp> = t1.iter().collect();
    let tj = serde_json::to_string(&ops).expect("serialize ops");
    let back: Vec<DynOp> = serde_json::from_str(&tj).expect("deserialize ops");
    assert_eq!(ops, back);
}

#[test]
fn activity_and_power_report_roundtrip() {
    let mut act = Activity {
        cycles: 1234,
        completed: 2345,
        ..Activity::default()
    };
    act.mma_flops = 999;
    let json = serde_json::to_string(&act).unwrap();
    let back: Activity = serde_json::from_str(&json).unwrap();
    assert_eq!(act, back);

    let report = p10sim::power::PowerModel::for_config(&CoreConfig::power10()).evaluate(&act);
    let rj = serde_json::to_string(&report).unwrap();
    let rb: p10sim::power::PowerReport = serde_json::from_str(&rj).unwrap();
    // JSON prints the shortest round-trippable float, which can differ in
    // the last ULP from the computed value — compare with tolerance.
    assert_eq!(report.components.len(), rb.components.len());
    for (x, y) in report.components.iter().zip(rb.components.iter()) {
        assert_eq!(x.kind, y.kind);
        assert!((x.total() - y.total()).abs() < 1e-9);
    }
    assert!((report.total() - rb.total()).abs() < 1e-9);
    assert!((report.idle_total - rb.idle_total).abs() < 1e-9);
}

#[test]
fn obs_summary_roundtrip() {
    use p10sim::obs::{
        CounterSummary, GaugeSummary, HistEntry, HistSummary, PhaseSummary, Summary,
    };
    let mut hist = HistSummary::default();
    for v in [0.001, 0.25, 3.0] {
        hist.record(v);
    }
    let s = Summary {
        total_wall_s: 12.5,
        phases: vec![PhaseSummary {
            name: "fig2".to_owned(),
            wall_s: 1.25,
            calls: 1,
        }],
        counters: vec![CounterSummary {
            name: "sim.runs".to_owned(),
            value: 40,
        }],
        gauges: vec![GaugeSummary {
            name: "apex.speedup".to_owned(),
            value: 9.5,
        }],
        histograms: vec![HistEntry {
            name: "engine.compute_s".to_owned(),
            hist,
        }],
    };
    let json = serde_json::to_string(&s).expect("serialize summary");
    let back: Summary = serde_json::from_str(&json).expect("deserialize summary");
    assert_eq!(s, back);
}

#[test]
fn cycle_attribution_and_profile_row_roundtrip() {
    use p10sim::core::cycleprof::ProfileRow;
    use p10sim::uarch::CycleAttribution;
    let attr = CycleAttribution {
        active: 100,
        mma_gated: 7,
        issue_limited: 13,
        memory_bound: 29,
        dispatch_stalled: 5,
        fetch_stalled: 3,
        idle: 43,
    };
    assert_eq!(attr.total(), 200);
    let json = serde_json::to_string(&attr).expect("serialize attribution");
    let back: CycleAttribution = serde_json::from_str(&json).expect("deserialize attribution");
    assert_eq!(attr, back);

    let row = ProfileRow {
        workload: "mcfish".to_owned(),
        config: "power10".to_owned(),
        cycles: 200,
        ipc: 1.375,
        attribution: attr,
    };
    let rj = serde_json::to_string(&row).expect("serialize row");
    let rb: ProfileRow = serde_json::from_str(&rj).expect("deserialize row");
    assert_eq!(row.workload, rb.workload);
    assert_eq!(row.config, rb.config);
    assert_eq!(row.cycles, rb.cycles);
    assert!((row.ipc - rb.ipc).abs() < 1e-9);
    assert_eq!(row.attribution, rb.attribution);
}

#[test]
fn cache_counts_and_speedup_report_roundtrip() {
    let counts = p10sim::core::runner::CacheCounts {
        memo_hits: 11,
        disk_hits: 4,
        computes: 9,
        disk_decode_errors: 1,
    };
    let json = serde_json::to_string(&counts).expect("serialize counts");
    let back: p10sim::core::runner::CacheCounts =
        serde_json::from_str(&json).expect("deserialize counts");
    assert_eq!(counts, back);

    let report = p10sim::apex::SpeedupReport {
        detailed_secs: 4.5,
        apex_secs: 0.5,
        speedup: 9.0,
        cycles: 123_456,
        windows: 31,
    };
    let rj = serde_json::to_string(&report).expect("serialize report");
    let rb: p10sim::apex::SpeedupReport = serde_json::from_str(&rj).expect("deserialize report");
    assert_eq!(report.cycles, rb.cycles);
    assert_eq!(report.windows, rb.windows);
    assert!((report.speedup - rb.speedup).abs() < 1e-9);
    assert!((report.detailed_secs - rb.detailed_secs).abs() < 1e-9);
    assert!((report.apex_secs - rb.apex_secs).abs() < 1e-9);
}

#[test]
fn experiment_artifacts_roundtrip() {
    // The figure data types downstream tools consume.
    let fig2 = p10sim::pipedepth::run_fig2(&p10sim::pipedepth::DepthParams::default(), &[]);
    let j = serde_json::to_string(&fig2).unwrap();
    let back: p10sim::pipedepth::Fig2 = serde_json::from_str(&j).unwrap();
    assert_eq!(fig2.points.len(), back.points.len());
    assert_eq!(fig2.optimal_fo4(1.0), back.optimal_fo4(1.0));

    let scaling = p10sim::core::socket::SocketScaling::default();
    let sj = serde_json::to_string(&scaling).unwrap();
    let sb: p10sim::core::socket::SocketScaling = serde_json::from_str(&sj).unwrap();
    assert!((scaling.core_count_ratio - sb.core_count_ratio).abs() < 1e-12);
}
