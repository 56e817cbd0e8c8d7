//! Write your own kernel in textual assembly, run it functionally, and
//! compare POWER9 vs POWER10 — including an MMA variant.
//!
//! Run with: `cargo run --release --example custom_kernel`

use p10sim::core::scenario::run_traces;
use p10sim::isa::asm::assemble;
use p10sim::isa::Machine;
use p10sim::uarch::CoreConfig;

const VSU_KERNEL: &str = "
    # dot-product-ish VSX loop: 2 FMAs per iteration
    li r1, 0x100000        # x
    li r2, 0x140000        # y
    li r4, 4000
    mtctr r4
loop:
    lxv vs34, 0(r1)
    lxv vs35, 0(r2)
    xvmaddadp vs40, vs34, vs35
    xvmaddadp vs41, vs34, vs35
    addi r1, r1, 16
    addi r2, r2, 16
    bdnz loop
";

const MMA_KERNEL: &str = "
    # the same math pressure as 8 rank-1 updates per iteration
    li r1, 0x100000
    li r2, 0x140000
    li r4, 4000
    mtctr r4
    xxsetaccz acc0
    xxsetaccz acc1
loop:
    lxvp vs34, 0(r1)
    lxvp vs36, 0(r2)
    xvf64gerpp acc0, vs34, vs36
    xvf64gerpp acc1, vs34, vs37
    addi r1, r1, 32
    addi r2, r2, 32
    bdnz loop
";

fn main() {
    for (name, src) in [("VSX kernel", VSU_KERNEL), ("MMA kernel", MMA_KERNEL)] {
        let program = assemble(src).expect("kernel assembles");
        let mut m = Machine::new();
        for i in 0..40_000u64 {
            m.mem.write_f64(0x10_0000 + i * 8, (i % 17) as f64 * 0.5);
            m.mem.write_f64(0x14_0000 + i * 8, (i % 13) as f64 * 0.25);
        }
        // The executed trace, as a view both timing models replay.
        let trace = m.run(&program, 10_000_000).expect("kernel runs");
        println!("== {name} ({} dynamic instructions) ==", trace.len());
        for cfg in [CoreConfig::power9(), CoreConfig::power10()] {
            if name == "MMA kernel" && cfg.mma.is_none() {
                println!("{:<10} (no MMA facility — kernel not runnable)", cfg.name);
                continue;
            }
            let r = run_traces(&cfg, name, vec![trace.clone()]);
            println!(
                "{:<10} {:>6.2} flops/cycle   IPC {:>5.2}   core power {:>7.1}",
                r.config,
                r.sim.activity.flops_per_cycle(),
                r.ipc(),
                r.core_power()
            );
        }
        println!();
    }
    println!("Swap in your own assembly above — the full mnemonic list is in");
    println!("`p10_isa::asm` (scalar, VSX, MMA, branches, memory).");
}
