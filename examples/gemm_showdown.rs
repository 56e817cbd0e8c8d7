//! GEMM showdown: the same DGEMM math in vector (VSU) code and in MMA
//! outer-product code, replayed on POWER9 and POWER10 — the Fig. 5 story
//! as a runnable demo, plus the per-instruction density that explains it.
//!
//! Run with: `cargo run --release --example gemm_showdown`

use p10sim::core::scenario::run_traces;
use p10sim::kernels::gemm::{bf16gemm_mma, dgemm_mma, dgemm_vsu, int8gemm_mma, sgemm_mma};
use p10sim::uarch::CoreConfig;

fn main() {
    let ops = 60_000u64;
    let p9 = CoreConfig::power9();
    let p10 = CoreConfig::power10();

    println!(
        "{:<26} {:>10} {:>10} {:>11} {:>11}",
        "kernel @ machine", "flops/cyc", "% of peak", "flops/inst", "core power"
    );

    let mut baseline_power = 0.0;
    let mut baseline_fpc = 0.0;
    let cases: Vec<(&CoreConfig, p10sim::workloads::Workload, f64)> = vec![
        (&p9, dgemm_vsu(1 << 40), f64::from(p9.vsx_peak_dp_flops())),
        (&p10, dgemm_vsu(1 << 40), f64::from(p10.vsx_peak_dp_flops())),
        (&p10, dgemm_mma(1 << 40), f64::from(p10.mma_peak_dp_flops())),
        (&p10, sgemm_mma(1 << 40), 64.0),     // SP peak on the grid
        (&p10, bf16gemm_mma(1 << 40), 64.0),  // BF16: 2-deep dots in f32
        (&p10, int8gemm_mma(1 << 40), 128.0), // INT8 op-equivalents
    ];
    for (cfg, kernel, peak) in cases {
        let trace = kernel.trace_view_or_panic(ops);
        let flops_per_inst = trace.total_flops() as f64 / trace.len() as f64;
        let r = run_traces(cfg, &kernel.name, vec![trace]);
        let fpc = r.sim.activity.flops_per_cycle();
        println!(
            "{:<26} {:>10.2} {:>9.1}% {:>11.2} {:>11.1}",
            format!("{} @ {}", kernel.name, cfg.name),
            fpc,
            fpc / peak * 100.0,
            flops_per_inst,
            r.core_power()
        );
        if kernel.name == "dgemm_vsu" && cfg.name == "POWER9" {
            baseline_power = r.core_power();
            baseline_fpc = fpc;
        } else if kernel.name == "dgemm_mma" {
            println!(
                "    -> {:.2}x the flops/cycle of the POWER9 VSU baseline at {:+.1}% core power",
                fpc / baseline_fpc,
                (r.core_power() / baseline_power - 1.0) * 100.0
            );
        }
    }

    println!("\nWhy MMA wins: one xvf64gerpp performs 16 flops from two VSR reads,");
    println!("with partial sums living in the accumulators instead of round-tripping");
    println!("through the register file — more math per instruction, less data movement.");
}
