//! Quickstart: write a small POWER-like program, execute it functionally,
//! then replay it through the POWER9 and POWER10 cycle models and compare
//! performance, power, and energy efficiency.
//!
//! Run with: `cargo run --release --example quickstart`

use p10sim::core::scenario::run_traces;
use p10sim::isa::{Machine, ProgramBuilder, Reg};
use p10sim::uarch::CoreConfig;

fn main() {
    // 1. Build a program: a counted loop summing a small array.
    let mut b = ProgramBuilder::new();
    b.li(Reg::gpr(1), 0x10_0000); // array base
    b.li(Reg::gpr(3), 0); //          accumulator
    b.li(Reg::gpr(4), 5_000); //      iterations
    b.mtctr(Reg::gpr(4));
    let top = b.bind_label();
    b.ld(Reg::gpr(5), Reg::gpr(1), 0);
    b.add(Reg::gpr(3), Reg::gpr(3), Reg::gpr(5));
    b.addi(Reg::gpr(1), Reg::gpr(1), 8);
    b.bdnz(top);
    let program = b.build();

    // 2. Execute functionally: full architectural state, and the dynamic-op
    //    trace as the by-product, stored compactly as a `TraceView`.
    let mut machine = Machine::new();
    for i in 0..5_000u64 {
        machine.mem.write_u64(0x10_0000 + i * 8, i);
    }
    let trace = machine.run(&program, 1_000_000).expect("program runs");
    println!(
        "functional result: sum = {} over {} dynamic instructions",
        machine.gpr(3),
        trace.len()
    );

    // 3. Replay the same trace through both timing models (a cloned view
    //    shares the trace's storage; no op is copied).
    println!(
        "\n{:<10} {:>8} {:>10} {:>12} {:>12}",
        "machine", "IPC", "cycles", "core power", "perf/watt"
    );
    let mut rows = Vec::new();
    for cfg in [CoreConfig::power9(), CoreConfig::power10()] {
        let r = run_traces(&cfg, "quickstart", vec![trace.clone()]);
        println!(
            "{:<10} {:>8.2} {:>10} {:>12.1} {:>12.4}",
            r.config,
            r.ipc(),
            r.sim.activity.cycles,
            r.core_power(),
            r.efficiency()
        );
        rows.push(r);
    }
    let eff = rows[1].efficiency() / rows[0].efficiency();
    println!(
        "\nPOWER10 delivers {:.2}x the performance-per-watt of POWER9 on this loop.",
        eff
    );
}
