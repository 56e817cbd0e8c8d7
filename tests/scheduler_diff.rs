//! Differential tests: the event-driven scheduler must be observationally
//! identical to the polled reference — same `SimResult`, byte for byte,
//! on every configuration preset and workload family the repo ships.
//!
//! The event-driven path (completion calendar, wakeup lists, idle-cycle
//! fast-forward) is a pure simulator-performance optimization; any
//! divergence here is a scheduler bug, not a modeling change.

use p10sim::isa::{Cond, Inst, ProgramBuilder, Reg};
use p10sim::uarch::{Core, CoreConfig, FetchPolicy, Scheduler, SimResult, SmtMode};
use p10sim::workloads::{
    microbench::{derating_grid, generate},
    specint_like,
};
use proptest::prelude::*;

/// Runs the same traces under one scheduler setting.
fn run_with(
    cfg: &CoreConfig,
    scheduler: Scheduler,
    traces: &[p10sim::isa::TraceView],
) -> SimResult {
    let mut cfg = cfg.clone();
    cfg.scheduler = scheduler;
    Core::new(cfg).run(traces.to_vec(), 50_000_000)
}

/// Asserts both schedulers produce a byte-identical serialized result,
/// and returns its digest line: `<FNV-1a-64 of the result> <label> @
/// <config> <SMT mode>`.
fn assert_schedulers_agree(
    cfg: &CoreConfig,
    traces: &[p10sim::isa::TraceView],
    label: &str,
) -> String {
    let polled = run_with(cfg, Scheduler::Polled, traces);
    let event = run_with(cfg, Scheduler::EventDriven, traces);
    let pj = serde_json::to_string(&polled).expect("serialize polled");
    let ej = serde_json::to_string(&event).expect("serialize event-driven");
    assert_eq!(
        pj, ej,
        "scheduler divergence on {label} @ {}: polled {} cycles vs event-driven {} cycles",
        cfg.name, polled.activity.cycles, event.activity.cycles
    );
    let digest = p10sim::core::runner::fnv1a64(pj.as_bytes());
    format!("{digest:016x} {label} @ {} {:?}", cfg.name, cfg.smt)
}

/// Checks a grid's digest lines against `tests/goldens/<name>`. Agreement
/// of the two schedulers cannot see a change that moves both alike; the
/// committed digests can. A mismatch names each moved config as
/// `label: golden -> got` and prints the whole new file, which replaces
/// the golden only for an intended change.
fn assert_digests_match(name: &str, got: &[String]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let got_text: String = got.iter().map(|l| format!("{l}\n")).collect();
    if got_text == golden {
        return;
    }
    let by_label = |text: &str| -> std::collections::BTreeMap<String, String> {
        text.lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(digest, label)| (label.to_owned(), digest.to_owned()))
            .collect()
    };
    let (want, have) = (by_label(&golden), by_label(&got_text));
    let labels: std::collections::BTreeSet<_> = want.keys().chain(have.keys()).collect();
    let show = |v: Option<&String>| v.map_or("absent".to_owned(), String::clone);
    let moved: String = labels
        .into_iter()
        .filter(|&l| want.get(l) != have.get(l))
        .map(|l| format!("  {l}: {} -> {}\n", show(want.get(l)), show(have.get(l))))
        .collect();
    panic!("{name}: SimResult digests moved:\n{moved}new file:\n{got_text}");
}

/// Every core preset, in both plain and SMT variants.
fn presets() -> Vec<CoreConfig> {
    let mut v = vec![
        CoreConfig::power9(),
        CoreConfig::power10(),
        CoreConfig::power10_no_mma(),
    ];
    let mut smt2 = CoreConfig::power10();
    smt2.smt = SmtMode::Smt2;
    v.push(smt2);
    let mut smt4 = CoreConfig::power9();
    smt4.smt = SmtMode::Smt4;
    v.push(smt4);
    v
}

fn smt_mode(threads: u8) -> SmtMode {
    match threads {
        1 => SmtMode::St,
        2 => SmtMode::Smt2,
        _ => SmtMode::Smt4,
    }
}

/// Fixed-seed regression: every preset × every SPECint-like benchmark,
/// plus the ALU-bound, miss-bound and SMT4 throughput extremes.
#[test]
fn schedulers_agree_on_specint_suite() {
    let mut digests = Vec::new();
    for cfg in presets() {
        let threads = cfg.smt.threads();
        for bench in specint_like() {
            let traces: Vec<_> = (0..threads)
                .map(|t| bench.workload(42 + t as u64).trace_view_or_panic(3_000))
                .collect();
            digests.push(assert_schedulers_agree(&cfg, &traces, &bench.name));
        }
    }
    for (label, cfg, traces) in throughput_scenarios() {
        digests.push(assert_schedulers_agree(&cfg, &traces, label));
    }
    assert_digests_match("scheduler-specint.digests", &digests);
}

/// Fixed-seed regression: every preset × every Fig. 13 derating
/// microbench (each spec runs at its intended SMT level).
#[test]
fn schedulers_agree_on_microbench_grid() {
    let mut digests = Vec::new();
    for base in [
        CoreConfig::power9(),
        CoreConfig::power10(),
        CoreConfig::power10_no_mma(),
    ] {
        for spec in derating_grid() {
            let mut cfg = base.clone();
            cfg.smt = smt_mode(spec.smt);
            let traces: Vec<_> = (0..spec.smt)
                .map(|t| generate(&spec, 7 + u64::from(t)).trace_view_or_panic(3_000))
                .collect();
            digests.push(assert_schedulers_agree(&cfg, &traces, &spec.name()));
        }
    }
    assert_digests_match("scheduler-microbench.digests", &digests);
}

/// The always-on cycle-attribution counters ride inside `SimResult`, so
/// the byte-identity assertions above already cover them implicitly; this
/// pins the stronger invariants by name on the Fig. 13 grid: the buckets
/// partition the cycle count exactly, the `active` bucket equals the
/// issue-activity counter, and the whole partition is independent of the
/// scheduler (the fast-forward path attributes skipped stretches in
/// closed form and must land on the same buckets as per-cycle stepping).
#[test]
fn cycle_attribution_is_scheduler_invariant_on_microbench_grid() {
    for base in [CoreConfig::power9(), CoreConfig::power10()] {
        for spec in derating_grid() {
            let mut cfg = base.clone();
            cfg.smt = smt_mode(spec.smt);
            let traces: Vec<_> = (0..spec.smt)
                .map(|t| generate(&spec, 7 + u64::from(t)).trace_view_or_panic(3_000))
                .collect();
            let polled = run_with(&cfg, Scheduler::Polled, &traces);
            let event = run_with(&cfg, Scheduler::EventDriven, &traces);
            let label = format!("{} @ {}", spec.name(), cfg.name);
            assert_eq!(
                polled.attribution, event.attribution,
                "attribution must be scheduler-invariant on {label}"
            );
            assert_eq!(
                polled.attribution.total(),
                polled.activity.cycles,
                "buckets must partition the cycles on {label}"
            );
            assert_eq!(
                polled.attribution.active, polled.activity.active_cycles,
                "active bucket must equal the activity counter on {label}"
            );
        }
    }
}

/// MMA power-gating interacts with the idle-cycle fast-forward (the
/// closed-form `mma_powered_cycles` accounting), so GEMM kernels get
/// their own regression point on every MMA-capable preset.
#[test]
fn schedulers_agree_on_mma_kernels() {
    use p10sim::kernels::gemm::{dgemm_mma, dgemm_vsu, int8gemm_mma};
    let p10 = CoreConfig::power10();
    for (name, w) in [
        ("dgemm_mma", dgemm_mma(64)),
        ("int8gemm_mma", int8gemm_mma(64)),
        ("dgemm_vsu", dgemm_vsu(64)),
    ] {
        let traces = vec![w.trace_view_or_panic(4_000)];
        assert_schedulers_agree(&p10, &traces, name);
    }
    // The no-MMA preset cannot execute MMA ops; cover it with the VSU
    // variant only.
    let traces = vec![dgemm_vsu(64).trace_view_or_panic(4_000)];
    assert_schedulers_agree(&CoreConfig::power10_no_mma(), &traces, "dgemm_vsu");
}

/// A loop that parks `waiting` ops behind a miss chain (its second load,
/// the address add before it and `waiting - 2` dependents of it), then
/// (optionally) a fusible dependent-ALU pair, then `ready` independent
/// ALU ops. With `waiting` near `issue_lookahead` the pair and the
/// independent ops sit just inside or just beyond the scheduler's reach
/// while the chain is outstanding, so they are ready but visible to the
/// select network only once the frontier moves.
fn reach_boundary_trace(waiting: u16, fused_pair: bool, ready: u16) -> p10sim::isa::TraceView {
    let mut b = ProgramBuilder::new();
    b.li(Reg::gpr(1), 0x100_0000);
    b.li(Reg::gpr(2), 5);
    b.mtctr(Reg::gpr(2));
    let top = b.bind_label();
    b.ld(Reg::gpr(3), Reg::gpr(1), 0);
    b.add(Reg::gpr(5), Reg::gpr(3), Reg::gpr(1));
    b.ld(Reg::gpr(4), Reg::gpr(5), 4096);
    for _ in 2..waiting {
        b.add(Reg::gpr(20), Reg::gpr(4), Reg::gpr(4));
    }
    if fused_pair {
        b.addi(Reg::gpr(11), Reg::gpr(11), 1);
        b.add(Reg::gpr(12), Reg::gpr(11), Reg::gpr(11));
    }
    for k in 0..ready {
        let r = Reg::gpr(13 + k % 6);
        b.addi(r, r, 1);
    }
    b.addi(Reg::gpr(1), Reg::gpr(1), 1 << 16);
    b.bdnz(top);
    p10sim::isa::Machine::new()
        .run(&b.build(), 100_000)
        .expect("reach-boundary program runs")
}

/// Waiting-op counts around a reach: two short of filling it, filling it,
/// and two past it.
fn around(reach: u32) -> impl Iterator<Item = u16> {
    let reach = u16::try_from(reach).expect("reach fits");
    reach - 2..=reach + 2
}

/// Ready independent ALU ops queued just beyond the issue lookahead (48 on
/// POWER9, 96 on POWER10) behind a long miss chain: they must become
/// candidates exactly when the polled scan would see them, and the
/// fast-forward must idle over them while they are out of reach.
#[test]
fn schedulers_agree_on_ready_ops_beyond_the_reach() {
    for mut cfg in [CoreConfig::power9(), CoreConfig::power10()] {
        cfg.prefetch_streams = 0;
        for waiting in around(cfg.issue_lookahead) {
            let traces = vec![reach_boundary_trace(waiting, false, 12)];
            assert_schedulers_agree(&cfg, &traces, &format!("{waiting} waiting + 12 ready"));
        }
    }
}

/// A fused dependent-ALU pair whose head is the last op inside the reach
/// and whose partner is the first beyond it (and every neighboring
/// split): the partner issues with its head from outside the reach.
#[test]
fn schedulers_agree_on_a_fused_pair_straddling_the_reach() {
    let mut cfg = CoreConfig::power10();
    cfg.prefetch_streams = 0;
    for waiting in around(cfg.issue_lookahead) {
        let traces = vec![reach_boundary_trace(waiting, true, 4)];
        let label = format!("{waiting} waiting + fused pair");
        assert_schedulers_agree(&cfg, &traces, &label);
        let fused = run_with(&cfg, Scheduler::EventDriven, &traces)
            .activity
            .fused_pairs;
        assert!(fused > 0, "the pair must fuse on {label}");
    }
}

/// SMT4 under ICount fetch: four threads, each parking a different number
/// of ops around the reach, share one candidate set.
#[test]
fn schedulers_agree_on_reach_boundaries_in_smt4_icount() {
    for base in [CoreConfig::power9(), CoreConfig::power10()] {
        let mut cfg = base.clone();
        cfg.smt = SmtMode::Smt4;
        cfg.fetch_policy = FetchPolicy::ICount;
        cfg.prefetch_streams = 0;
        let reach = u16::try_from(cfg.issue_lookahead).expect("reach fits");
        let traces: Vec<_> = [reach / 4, reach / 2, reach, reach + 1]
            .into_iter()
            .enumerate()
            .map(|(t, waiting)| reach_boundary_trace(waiting, t % 2 == 0, 8))
            .collect();
        assert_schedulers_agree(&cfg, &traces, "smt4 icount reach boundaries");
    }
}

/// Independent adds in a counted loop: issue-width bound, almost no stall
/// cycles, so the event-driven scheduler has nothing to fast-forward.
fn alu_loop_trace(iters: i64) -> p10sim::isa::TraceView {
    let mut b = ProgramBuilder::new();
    b.li(Reg::gpr(4), iters);
    b.mtctr(Reg::gpr(4));
    let top = b.bind_label();
    for r in 5..13u16 {
        b.addi(Reg::gpr(r), Reg::gpr(r), 1);
    }
    b.bdnz(top);
    p10sim::isa::Machine::new()
        .run(&b.build(), 50_000_000)
        .expect("ALU loop runs")
}

/// A dependent page-stride load chase: the next address depends on the
/// loaded value (zero, so the walk stays a plain stride), so every
/// iteration serializes behind a miss and nearly every cycle is idle,
/// the fast-forward's best case. `seed` moves the chase to its own region.
fn page_chase_trace(iters: i64, seed: i64) -> p10sim::isa::TraceView {
    let mut b = ProgramBuilder::new();
    b.li(Reg::gpr(1), 0x20_0000 + seed * 0x40_0000);
    b.li(Reg::gpr(4), iters);
    b.mtctr(Reg::gpr(4));
    let top = b.bind_label();
    b.ld(Reg::gpr(2), Reg::gpr(1), 0);
    b.add(Reg::gpr(1), Reg::gpr(1), Reg::gpr(2));
    b.addi(Reg::gpr(1), Reg::gpr(1), 4096);
    b.bdnz(top);
    p10sim::isa::Machine::new()
        .run(&b.build(), 50_000_000)
        .expect("page chase runs")
}

/// The scheduler's two extremes and their SMT mix: an ALU loop on
/// POWER10, a page chase on POWER10 without prefetch, and four staggered
/// chases on SMT4.
fn throughput_scenarios() -> Vec<(&'static str, CoreConfig, Vec<p10sim::isa::TraceView>)> {
    let mut no_prefetch = CoreConfig::power10();
    no_prefetch.prefetch_streams = 0;
    let mut smt4 = CoreConfig::power10();
    smt4.smt = SmtMode::Smt4;
    vec![
        (
            "alu loop",
            CoreConfig::power10(),
            vec![alu_loop_trace(40_000)],
        ),
        ("page chase", no_prefetch, vec![page_chase_trace(20_000, 0)]),
        (
            "smt4 page chases",
            smt4,
            (0..4)
                .map(|t| page_chase_trace(6_000 + 500 * t, t))
                .collect(),
        ),
    ]
}

/// Span-aware observer that checks the delivery stream tiles the run:
/// live cycles and spans arrive contiguously, in order, and together
/// account for every simulated cycle exactly once.
struct TilingObserver {
    next_cycle: u64,
    live_cycles: u64,
    span_cycles: u64,
}

impl TilingObserver {
    fn new() -> Self {
        TilingObserver {
            next_cycle: 1,
            live_cycles: 0,
            span_cycles: 0,
        }
    }
}

impl p10sim::uarch::SpanObserver for TilingObserver {
    fn on_cycle(&mut self, cycle: u64, _act: &p10sim::uarch::Activity) {
        assert_eq!(
            cycle, self.next_cycle,
            "live cycles arrive densely, in order"
        );
        self.next_cycle += 1;
        self.live_cycles += 1;
    }

    fn on_span(&mut self, start: u64, len: u64, delta: &p10sim::uarch::Activity) {
        assert_eq!(start, self.next_cycle, "spans arrive densely, in order");
        assert!(len > 0, "empty spans are never delivered");
        assert_eq!(delta.cycles, len, "a span delta covers exactly its cycles");
        self.next_cycle += len;
        self.span_cycles += len;
    }
}

/// A per-cycle observer: it opts out of spans, so the scheduler replays
/// every fast-forwarded stretch one cycle at a time through `on_cycle`.
struct PerCycle<F>(F);

impl<F: FnMut(u64, &p10sim::uarch::Activity)> p10sim::uarch::SpanObserver for PerCycle<F> {
    fn on_cycle(&mut self, cycle: u64, act: &p10sim::uarch::Activity) {
        (self.0)(cycle, act);
    }

    fn on_span(&mut self, _start: u64, _len: u64, _delta: &p10sim::uarch::Activity) {
        unreachable!("a per-cycle observer never receives spans");
    }

    fn wants_spans(&self) -> bool {
        false
    }
}

/// Observation must not perturb the simulation. Runs the same traces
/// three ways on the event-driven scheduler — unobserved, under a
/// span-aware observer, and under a per-cycle observer —
/// and demands byte-identical `SimResult`s (activity + attribution)
/// plus a delivery stream that tiles the run.
///
/// Tests build with debug assertions enabled, so every fast-forwarded
/// span in here is additionally cross-checked inside the simulator
/// against a cycle-by-cycle replay of the skipped stretch
/// (`cross_check_spans`) — this is the wiring point for that invariant.
fn assert_observation_is_transparent(
    cfg: &CoreConfig,
    traces: &[p10sim::isa::TraceView],
    label: &str,
) {
    let mut cfg = cfg.clone();
    cfg.scheduler = Scheduler::EventDriven;
    let plain = Core::new(cfg.clone()).run(traces.to_vec(), 50_000_000);
    let mut tiling = TilingObserver::new();
    let spanned = Core::new(cfg.clone()).run_spanned(traces.to_vec(), 50_000_000, &mut tiling);
    let mut per_cycle_calls = 0u64;
    let per_cycle = Core::new(cfg.clone()).run_spanned(
        traces.to_vec(),
        50_000_000,
        &mut PerCycle(|_, _: &_| per_cycle_calls += 1),
    );

    let pj = serde_json::to_string(&plain).expect("serialize plain");
    let sj = serde_json::to_string(&spanned).expect("serialize spanned");
    let cj = serde_json::to_string(&per_cycle).expect("serialize per-cycle");
    assert_eq!(
        pj, sj,
        "span observer must not perturb the run on {label} @ {}",
        cfg.name
    );
    assert_eq!(
        pj, cj,
        "per-cycle observer must not perturb the run on {label} @ {}",
        cfg.name
    );
    assert_eq!(
        plain.attribution, spanned.attribution,
        "attribution must be observation-invariant on {label} @ {}",
        cfg.name
    );
    assert_eq!(
        tiling.live_cycles + tiling.span_cycles,
        plain.activity.cycles,
        "span deliveries must tile the run on {label} @ {}",
        cfg.name
    );
    assert_eq!(
        per_cycle_calls, plain.activity.cycles,
        "per-cycle observer must see every cycle on {label} @ {}",
        cfg.name
    );
}

/// Observed-vs-unobserved differential grid: every preset (P9/P10
/// families across SMT modes) × every SPECint-like benchmark, plus the
/// ALU-bound, miss-bound and SMT4 throughput extremes.
#[test]
fn observed_runs_match_unobserved_on_specint_suite() {
    for cfg in presets() {
        let threads = cfg.smt.threads();
        for bench in specint_like() {
            let traces: Vec<_> = (0..threads)
                .map(|t| bench.workload(42 + t as u64).trace_view_or_panic(3_000))
                .collect();
            assert_observation_is_transparent(&cfg, &traces, &bench.name);
        }
    }
    for (label, cfg, traces) in throughput_scenarios() {
        assert_observation_is_transparent(&cfg, &traces, label);
    }
}

/// Observed-vs-unobserved differential grid: P9/P10 × every Fig. 13
/// derating microbench at its intended SMT level.
#[test]
fn observed_runs_match_unobserved_on_microbench_grid() {
    for base in [CoreConfig::power9(), CoreConfig::power10()] {
        for spec in derating_grid() {
            let mut cfg = base.clone();
            cfg.smt = smt_mode(spec.smt);
            let traces: Vec<_> = (0..spec.smt)
                .map(|t| generate(&spec, 7 + u64::from(t)).trace_view_or_panic(3_000))
                .collect();
            assert_observation_is_transparent(&cfg, &traces, &spec.name());
        }
    }
}

/// The latch-accurate RTL-sim analog and APEX's windowed counter
/// extraction both consume the span stream; the simulation each embeds
/// must still be the plain, unobserved one, bit for bit, on both
/// processor generations and on the ALU-bound, miss-bound and SMT4
/// extremes.
#[test]
fn rtlsim_observed_sim_matches_plain_run() {
    use p10sim::rtlsim::{run_detailed, Roi, ToggleDensity};
    let mut cases = Vec::new();
    for cfg in [CoreConfig::power9(), CoreConfig::power10()] {
        for bench_idx in [2usize, 8] {
            let bench = &specint_like()[bench_idx];
            let traces = vec![bench.workload(42).trace_view_or_panic(2_000)];
            cases.push((bench.name.clone(), cfg.clone(), traces));
        }
    }
    cases.extend(
        throughput_scenarios()
            .into_iter()
            .map(|(label, cfg, traces)| (label.to_owned(), cfg, traces)),
    );
    for (label, cfg, traces) in cases {
        let plain = Core::new(cfg.clone()).run(traces.clone(), 50_000_000);
        let plain = serde_json::to_string(&plain).expect("serialize plain sim");
        let rtl = run_detailed(
            &cfg,
            traces.clone(),
            Roi::new(200, 50_000_000),
            ToggleDensity::random_init(),
        );
        assert_eq!(
            serde_json::to_string(&rtl.sim).expect("serialize RTL-sim sim"),
            plain,
            "RTL-sim observation must not perturb the simulation for {label} @ {}",
            cfg.name
        );
        let apex = p10sim::apex::run_apex(&cfg, traces, 4096, 50_000_000);
        assert_eq!(
            serde_json::to_string(&apex.sim).expect("serialize APEX sim"),
            plain,
            "APEX observation must not perturb the simulation for {label} @ {}",
            cfg.name
        );
    }
}

/// A per-cycle observer must also agree: the fast-forward path replays
/// skipped cycles one at a time for the observer, and the observer must see every cycle exactly once with
/// monotonically consistent counters.
#[test]
fn observed_run_sees_every_cycle_under_both_schedulers() {
    let bench = &specint_like()[2]; // mcf-like: memory-bound, long idles
    let trace = bench.workload(42).trace_view_or_panic(2_000);
    let mut logs: Vec<Vec<(u64, u64)>> = Vec::new();
    for scheduler in [Scheduler::Polled, Scheduler::EventDriven] {
        let mut cfg = CoreConfig::power10();
        cfg.scheduler = scheduler;
        let mut log = Vec::new();
        let r = Core::new(cfg).run_spanned(
            vec![trace.clone()],
            50_000_000,
            &mut PerCycle(|cycle, act: &p10sim::uarch::Activity| {
                log.push((cycle, act.completed));
            }),
        );
        assert_eq!(
            log.len() as u64,
            r.activity.cycles,
            "one callback per cycle"
        );
        for (i, &(cycle, _)) in log.iter().enumerate() {
            assert_eq!(cycle, i as u64 + 1, "cycles arrive densely, in order");
        }
        logs.push(log);
    }
    assert_eq!(
        logs[0], logs[1],
        "identical per-cycle completion trajectory"
    );
}

/// The latch-accurate RTL-sim analog consumes the per-cycle observer
/// stream; its whole report must be unchanged by the scheduler knob.
#[test]
fn rtlsim_report_is_scheduler_invariant() {
    use p10sim::rtlsim::{run_detailed, Roi, ToggleDensity};
    let bench = &specint_like()[8]; // exchangeish: compact and fast
    let trace = bench.workload(42).trace_view_or_panic(2_000);
    let mut reports = Vec::new();
    for scheduler in [Scheduler::Polled, Scheduler::EventDriven] {
        let mut cfg = CoreConfig::power10();
        cfg.scheduler = scheduler;
        let report = run_detailed(
            &cfg,
            vec![trace.clone()],
            Roi::new(200, 50_000_000),
            ToggleDensity::random_init(),
        );
        reports.push(serde_json::to_string(&report).expect("serialize report"));
    }
    assert_eq!(
        reports[0], reports[1],
        "RTL-sim report must not depend on scheduler"
    );
}

/// The latch-accurate report against fixed values: FNV-1a-64 digests of
/// the full-precision serialized `RtlReport`. Unlike the scheduler
/// comparison above, a change to the bookkeeper's fold that shifts every
/// run equally still fails here. The three runs cover the legacy design's
/// flat idle-floor slice branch (POWER9) and the clock-gated branch
/// (POWER10) in ST and SMT2.
#[test]
fn rtlsim_report_matches_golden_digests() {
    use p10sim::core::runner::fnv1a64;
    use p10sim::rtlsim::{run_detailed, Roi, ToggleDensity};
    let bench = &specint_like()[8];
    let trace = |seed| bench.workload(seed).trace_view_or_panic(4_000);
    let mut smt2 = CoreConfig::power10();
    smt2.smt = SmtMode::Smt2;
    let cases = [
        ("power9 st", CoreConfig::power9(), vec![trace(42)]),
        ("power10 st", CoreConfig::power10(), vec![trace(42)]),
        ("power10 smt2", smt2, vec![trace(42), trace(43)]),
    ];
    let digests: Vec<(&str, String)> = cases
        .into_iter()
        .map(|(label, cfg, traces)| {
            let report = run_detailed(
                &cfg,
                traces,
                Roi::new(200, 50_000_000),
                ToggleDensity::random_init(),
            );
            let json = serde_json::to_string(&report).expect("serialize report");
            (label, format!("{:016x}", fnv1a64(json.as_bytes())))
        })
        .collect();
    let golden = [
        ("power9 st", "34a30b5ca649b625"),
        ("power10 st", "62d450fbac957644"),
        ("power10 smt2", "cf53c98aa64bb219"),
    ];
    let got: Vec<(&str, &str)> = digests.iter().map(|(l, d)| (*l, d.as_str())).collect();
    assert_eq!(got, golden, "RTL-sim report digests moved");
}

/// Random-program property: for arbitrary short loopy programs the two
/// schedulers serialize to identical bytes. Complements the fixed-seed
/// regressions above with shrinking on failure.
mod random_programs {
    use super::*;

    fn arb_body_op() -> impl Strategy<Value = Inst> {
        prop_oneof![
            (3u16..20, 3u16..20, 3u16..20).prop_map(|(t, a, b)| Inst::Add {
                rt: Reg::gpr(t),
                ra: Reg::gpr(a),
                rb: Reg::gpr(b)
            }),
            (3u16..20, 3u16..20, -64i64..64).prop_map(|(t, a, imm)| Inst::Addi {
                rt: Reg::gpr(t),
                ra: Reg::gpr(a),
                imm
            }),
            (3u16..20, 3u16..20).prop_map(|(t, a)| Inst::Mulld {
                rt: Reg::gpr(t),
                ra: Reg::gpr(a),
                rb: Reg::gpr(a)
            }),
            (3u16..20, 0i64..64).prop_map(|(t, d)| Inst::Ld {
                rt: Reg::gpr(t),
                ra: Reg::gpr(1),
                disp: d * 8
            }),
            (3u16..20, 0i64..64).prop_map(|(s, d)| Inst::Std {
                rs: Reg::gpr(s),
                ra: Reg::gpr(1),
                disp: d * 8
            }),
            (3u16..20, -32i64..32).prop_map(|(a, imm)| Inst::Cmpi {
                bf: Reg::cr(0),
                ra: Reg::gpr(a),
                imm
            }),
        ]
    }

    fn trace_of(body: &[Inst], iters: i64) -> p10sim::isa::TraceView {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x20_0000);
        b.li(Reg::gpr(2), iters);
        b.mtctr(Reg::gpr(2));
        let top = b.bind_label();
        for inst in body {
            if let Inst::Cmpi { .. } = inst {
                b.push(*inst);
                let skip = b.label();
                b.bc(Cond::Eq, Reg::cr(0), skip);
                b.addi(Reg::gpr(3), Reg::gpr(3), 1);
                b.bind(skip);
            } else {
                b.push(*inst);
            }
        }
        b.bdnz(top);
        let mut m = p10sim::isa::Machine::new();
        m.run(&b.build(), 200_000)
            .expect("generated programs are valid")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn schedulers_agree_on_random_programs(
            body in proptest::collection::vec(arb_body_op(), 1..16),
            iters in 1i64..30,
            smt in 1usize..3,
        ) {
            let trace = trace_of(&body, iters);
            for mut cfg in [CoreConfig::power9(), CoreConfig::power10()] {
                cfg.smt = if smt == 1 { SmtMode::St } else { SmtMode::Smt2 };
                let traces = vec![trace.clone(); smt];
                let polled = run_with(&cfg, Scheduler::Polled, &traces);
                let event = run_with(&cfg, Scheduler::EventDriven, &traces);
                prop_assert_eq!(
                    serde_json::to_string(&polled).expect("serialize"),
                    serde_json::to_string(&event).expect("serialize")
                );
            }
        }
    }
}
