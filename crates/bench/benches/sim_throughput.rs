//! `sim-throughput`: raw core-model scheduling throughput, reported as
//! simulated Mcycles/s and simulated Mops/s for an ALU-bound, a
//! cache-miss-bound, and an SMT4 workload, under both the `Polled`
//! (reference) and `EventDriven` schedulers.
//!
//! Each scenario also runs in the two *observed* modes — full latch
//! bookkeeping (`rtlsim-detailed`) and windowed counter extraction
//! (`apex-windowed`) — so the cost of riding the span-aware observer
//! stream is tracked alongside the bare scheduler numbers. The traces
//! are acquired before timing starts, so the `wall s` column is pure
//! simulation time.
//!
//! Every scenario is also a cross-check: both schedulers must simulate
//! the same cycles and ops, and every observed run the event-driven
//! run's cycles.
//!
//! Besides the human-readable table on stdout, the bench writes
//! `crates/bench/BENCH_pipeline.json` — schema
//! `p10sim-bench-pipeline/v7` (`schema`, `samples_per_point`, `results`).
//! Its rows are best-of-5 over runs of 20–60 ms and vary by up to ~2×
//! from run to run on a shared host, so the file is a cross-check and
//! an order-of-magnitude record, not a regression gate.
//! Trace synthesis, sampled execution, the design-space sweep and
//! checkpoint reuse are measured by the repository benchmark's traced
//! pass on its real workloads, not here.
//!
//! Run with `cargo bench -p p10-bench --bench sim_throughput`.

use p10_isa::{Machine, ProgramBuilder, Reg, TraceView};
use p10_uarch::{Core, CoreConfig, Scheduler, SimResult, SmtMode};
use p10_workloads::Workload;
use serde::Serialize;
use std::time::Instant;

const MAX_CYCLES: u64 = 100_000_000;
const MAX_TRACE_OPS: u64 = 50_000_000;
const SAMPLES: usize = 5;

/// Independent adds in a counted loop: issue-width bound, almost no
/// stall cycles — the event-driven scheduler's worst case.
fn alu_bound(iters: i64) -> Workload {
    let mut b = ProgramBuilder::new();
    b.li(Reg::gpr(4), iters);
    b.mtctr(Reg::gpr(4));
    let top = b.bind_label();
    for k in 0..8u16 {
        let r = 5 + (k % 20);
        b.addi(Reg::gpr(r), Reg::gpr(r), 1);
    }
    b.bdnz(top);
    Workload::new(
        "bench_alu_bound".to_owned(),
        b.build(),
        Machine::new(),
        Vec::new(),
    )
}

/// A dependent page-stride load chain: the next address depends on the
/// loaded value (which is zero, so the walk stays a plain stride), so
/// every iteration serializes behind a memory miss — nearly every cycle
/// is idle, the fast-forward best case.
fn cache_miss_bound(iters: i64, seed: u64) -> Workload {
    let mut b = ProgramBuilder::new();
    b.li(Reg::gpr(1), 0x20_0000 + (seed * 0x40_0000) as i64);
    b.li(Reg::gpr(4), iters);
    b.mtctr(Reg::gpr(4));
    let top = b.bind_label();
    b.ld(Reg::gpr(2), Reg::gpr(1), 0);
    b.add(Reg::gpr(1), Reg::gpr(1), Reg::gpr(2)); // address <- loaded 0
    b.addi(Reg::gpr(1), Reg::gpr(1), 4096); // new page/line every iter
    b.bdnz(top);
    Workload::new(
        format!("bench_chase_{iters}_{seed}"),
        b.build(),
        Machine::new(),
        Vec::new(),
    )
}

struct Scenario {
    name: &'static str,
    cfg: CoreConfig,
    workloads: Vec<Workload>,
}

fn scenarios() -> Vec<Scenario> {
    let p10 = CoreConfig::power10;
    let mut no_prefetch = p10();
    no_prefetch.prefetch_streams = 0;
    let mut smt4 = p10();
    smt4.smt = SmtMode::Smt4;
    vec![
        Scenario {
            name: "alu_bound",
            cfg: p10(),
            workloads: vec![alu_bound(40_000)],
        },
        Scenario {
            name: "cache_miss_bound",
            cfg: no_prefetch,
            workloads: vec![cache_miss_bound(20_000, 0)],
        },
        Scenario {
            name: "smt4_mixed",
            cfg: smt4,
            workloads: (0..4)
                .map(|t| cache_miss_bound(6_000 + 500 * t, t as u64))
                .collect(),
        },
    ]
}

#[derive(Debug, Serialize)]
struct BenchResult {
    workload: String,
    scheduler: String,
    /// What rides on the simulation: "unobserved" (bare scheduler),
    /// "rtlsim-detailed" (per-cycle latch bookkeeping over the span
    /// stream) or "apex-windowed" (windowed counter extraction).
    mode: String,
    threads: usize,
    sim_cycles: u64,
    sim_ops: u64,
    wall_s: f64,
    mcycles_per_s: f64,
    mops_per_s: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    schema: String,
    samples_per_point: u64,
    results: Vec<BenchResult>,
}

/// One observation mode: how the simulation is driven and what consumes
/// the observer stream while the clock runs.
#[derive(Clone, Copy)]
enum Mode {
    /// Bare scheduler, no observer attached.
    Unobserved,
    /// Latch-accurate bookkeeping (`p10_rtlsim::run_detailed`).
    RtlsimDetailed,
    /// Windowed counter extraction (`p10_apex::run_apex`).
    ApexWindowed,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Unobserved => "unobserved",
            Mode::RtlsimDetailed => "rtlsim-detailed",
            Mode::ApexWindowed => "apex-windowed",
        }
    }

    fn run(self, cfg: &CoreConfig, traces: &[TraceView]) -> SimResult {
        match self {
            Mode::Unobserved => Core::new(cfg.clone()).run(traces.to_vec(), MAX_CYCLES),
            Mode::RtlsimDetailed => {
                use p10_rtlsim::{run_detailed, Roi, ToggleDensity};
                run_detailed(
                    cfg,
                    traces.to_vec(),
                    Roi::new(0, MAX_CYCLES),
                    ToggleDensity::default(),
                )
                .sim
            }
            Mode::ApexWindowed => p10_apex::run_apex(cfg, traces.to_vec(), 4096, MAX_CYCLES).sim,
        }
    }
}

fn measure(s: &Scenario, traces: &[TraceView], scheduler: Scheduler, mode: Mode) -> BenchResult {
    let mut cfg = s.cfg.clone();
    cfg.scheduler = scheduler;
    let reference = mode.run(&cfg, traces); // warm-up + stats
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        let r = mode.run(&cfg, traces);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(
            r.activity.cycles, reference.activity.cycles,
            "non-deterministic simulation"
        );
        best = best.min(dt);
    }
    let cycles = reference.activity.cycles;
    let ops = reference.total_completed();
    BenchResult {
        workload: s.name.to_owned(),
        scheduler: format!("{scheduler:?}"),
        mode: mode.name().to_owned(),
        threads: traces.len(),
        sim_cycles: cycles,
        sim_ops: ops,
        wall_s: best,
        mcycles_per_s: cycles as f64 / best / 1e6,
        mops_per_s: ops as f64 / best / 1e6,
    }
}

fn main() {
    let mut results = Vec::new();
    println!(
        "{:<18} {:<12} {:<16} {:>12} {:>10} {:>12} {:>10}",
        "workload", "scheduler", "mode", "sim cycles", "wall s", "Mcycles/s", "Mops/s"
    );
    let print_row = |r: &BenchResult| {
        println!(
            "{:<18} {:<12} {:<16} {:>12} {:>10.4} {:>12.2} {:>10.2}",
            r.workload, r.scheduler, r.mode, r.sim_cycles, r.wall_s, r.mcycles_per_s, r.mops_per_s
        );
    };
    for s in scenarios() {
        let traces: Vec<TraceView> = s
            .workloads
            .iter()
            .map(|w| w.trace_view_or_panic(MAX_TRACE_OPS))
            .collect();
        let polled = measure(&s, &traces, Scheduler::Polled, Mode::Unobserved);
        let event = measure(&s, &traces, Scheduler::EventDriven, Mode::Unobserved);
        assert_eq!(
            (polled.sim_cycles, polled.sim_ops),
            (event.sim_cycles, event.sim_ops),
            "{}: Polled and EventDriven must simulate the same cycles and ops",
            s.name
        );
        print_row(&polled);
        print_row(&event);
        let speedup = polled.wall_s / event.wall_s;
        println!("{:<18} event-driven speedup: {speedup:.2}x", s.name);
        // Observed modes ride the event-driven span stream; comparing
        // their rows against the unobserved EventDriven row above shows
        // the cost of observation itself.
        let event_cycles = event.sim_cycles;
        results.extend([polled, event]);
        for mode in [Mode::RtlsimDetailed, Mode::ApexWindowed] {
            let r = measure(&s, &traces, Scheduler::EventDriven, mode);
            assert_eq!(
                r.sim_cycles, event_cycles,
                "{}: observing with {} must not change the cycle count",
                s.name, r.mode
            );
            print_row(&r);
            results.push(r);
        }
    }

    let report = BenchReport {
        schema: "p10sim-bench-pipeline/v7".to_owned(),
        samples_per_point: SAMPLES as u64,
        results,
    };
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_pipeline.json");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out, json).expect("write bench report");
    println!("wrote {out}");
}
