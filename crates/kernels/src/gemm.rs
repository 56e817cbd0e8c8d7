//! Register-blocked GEMM micro-kernels.
//!
//! The Fig. 5 experiment compares an OpenBLAS-representative DGEMM inner
//! kernel in two code styles at iso math-per-iteration:
//!
//! * **VSU style** ([`dgemm_vsu`]): a 4×8 C tile held in sixteen 128-bit
//!   accumulator VSRs, per-k rank-1 update via splats and `xvmaddadp`.
//!   Runs on both POWER9 (peak 8 DP flops/cycle) and POWER10 (16).
//! * **MMA style** ([`dgemm_mma`]): an 8×8 C tile held in all eight
//!   512-bit accumulators, per-k rank-1 update via `xvf64gerpp` fed by
//!   32-byte `lxvp` loads. POWER10 only (peak 32 DP flops/cycle).
//!
//! Single-precision ([`sgemm_vsu`], [`sgemm_mma`] — the paper's 8×16 MMA
//! SGEMM panel), bfloat16 ([`bf16gemm_mma`]) and INT8 ([`int8gemm_mma`])
//! variants cover the Fig. 6 and socket-level reduced-precision
//! projections.
//!
//! All kernels run as endless loops over L1-contained A/B panels
//! (wrap-around offset masking), exactly like the paper's proxy workloads;
//! bound execution with `max_ops`.

use p10_isa::{Inst, Reg};
use p10_workloads::Workload;

/// Base address of the A panel.
const A_BASE: i64 = 0x0100_0000;
/// Base address of the B panel.
const B_BASE: i64 = 0x0110_0000;
/// Offset mask keeping each panel within 16 KiB (L1-contained).
const PANEL_MASK: i64 = 0x3fff & !63;

struct KernelBuilder {
    w: p10_workloads::WorkloadBuilder,
}

impl KernelBuilder {
    fn new(seed: u64) -> Self {
        KernelBuilder {
            w: p10_workloads::WorkloadBuilder::new(seed),
        }
    }

    /// Emits the shared prologue: panel bases, offset counter, wrap mask,
    /// endless loop counter. Returns nothing; registers are fixed:
    /// r3=A base, r9=B base, r4=offset, r7=mask, r10/r11 current pointers.
    fn prologue(&mut self, iterations: i64) {
        let b = &mut self.w.b;
        b.li(Reg::gpr(3), A_BASE);
        b.li(Reg::gpr(9), B_BASE);
        b.li(Reg::gpr(4), 0);
        b.li(Reg::gpr(7), PANEL_MASK);
        b.li(Reg::gpr(30), iterations);
        b.mtctr(Reg::gpr(30));
    }

    /// Computes wrapped A/B pointers for the current offset (3 ALU ops).
    fn pointers(&mut self) {
        let b = &mut self.w.b;
        b.push(Inst::And {
            rt: Reg::gpr(6),
            ra: Reg::gpr(4),
            rb: Reg::gpr(7),
        });
        b.add(Reg::gpr(10), Reg::gpr(3), Reg::gpr(6));
        b.add(Reg::gpr(11), Reg::gpr(9), Reg::gpr(6));
    }

    fn init_panels(&mut self) {
        // Fill both panels with nonzero doubles so functional math is
        // meaningful.
        for i in 0..(16 * 1024 / 8) as u64 {
            let av = f64::to_bits(0.5 + (i % 97) as f64 * 0.125);
            let bv = f64::to_bits(1.0 - (i % 53) as f64 * 0.0625);
            self.w.init_word(A_BASE as u64 + i * 8, av);
            self.w.init_word(B_BASE as u64 + i * 8, bv);
        }
    }

    fn finish(self, name: &str) -> Workload {
        self.w.finish(name)
    }
}

/// DGEMM inner kernel, VSU (vector) style: 4×8 C tile, 64 flops per
/// k-step. `iterations` bounds the endless loop (use a huge value and cap
/// with `max_ops`).
#[must_use]
pub fn dgemm_vsu(iterations: i64) -> Workload {
    let mut k = KernelBuilder::new(11);
    k.prologue(iterations);
    k.init_panels();
    let top = k.w.b.bind_label();
    k.pointers();
    {
        let b = &mut k.w.b;
        // A column: 4 doubles.
        b.lxv(Reg::vsr(32), Reg::gpr(10), 0);
        b.lxv(Reg::vsr(33), Reg::gpr(10), 16);
        // B row: 8 doubles in 4 VSRs.
        for (i, disp) in [0i64, 16, 32, 48].iter().enumerate() {
            b.lxv(Reg::vsr(52 + i as u16), Reg::gpr(11), *disp);
        }
        // Splat each A element (4 splats).
        for i in 0..4u16 {
            b.push(Inst::Xxspltd {
                xt: Reg::vsr(56 + i),
                xa: Reg::vsr(32 + i / 2),
                uim: (i % 2) as u8,
            });
        }
        // 16 FMAs: C[i][jp] += a_i * b[jp].
        for i in 0..4u16 {
            for jp in 0..4u16 {
                b.push(Inst::Xvmaddadp {
                    xt: Reg::vsr(36 + i * 4 + jp),
                    xa: Reg::vsr(56 + i),
                    xb: Reg::vsr(52 + jp),
                });
            }
        }
        b.addi(Reg::gpr(4), Reg::gpr(4), 64);
        b.bdnz(top);
    }
    k.finish("dgemm_vsu")
}

/// DGEMM inner kernel, MMA style: 8×8 C tile in all eight accumulators,
/// 128 flops per k-step, fed by 32-byte `lxvp` loads.
#[must_use]
pub fn dgemm_mma(iterations: i64) -> Workload {
    let mut k = KernelBuilder::new(12);
    k.prologue(iterations);
    k.init_panels();
    {
        let b = &mut k.w.b;
        for a in 0..8 {
            b.push(Inst::Xxsetaccz { at: Reg::acc(a) });
        }
    }
    let top = k.w.b.bind_label();
    k.pointers();
    {
        let b = &mut k.w.b;
        // A column: 8 doubles via two 32-byte paired loads (vs32..35).
        b.push(Inst::Lxvp {
            xt: Reg::vsr(32),
            ra: Reg::gpr(10),
            disp: 0,
        });
        b.push(Inst::Lxvp {
            xt: Reg::vsr(34),
            ra: Reg::gpr(10),
            disp: 32,
        });
        // B row: 8 doubles via two paired loads (vs36..39).
        b.push(Inst::Lxvp {
            xt: Reg::vsr(36),
            ra: Reg::gpr(11),
            disp: 0,
        });
        b.push(Inst::Lxvp {
            xt: Reg::vsr(38),
            ra: Reg::gpr(11),
            disp: 32,
        });
        // 8 rank-1 updates: acc(4r+c) covers C rows 4r..4r+4, cols 2c..2c+2.
        for r in 0..2u16 {
            for c in 0..4u16 {
                b.push(Inst::Xvf64gerpp {
                    at: Reg::acc(4 * r + c),
                    xa: Reg::vsr(32 + 2 * r),
                    xb: Reg::vsr(36 + c),
                });
            }
        }
        b.addi(Reg::gpr(4), Reg::gpr(4), 64);
        b.bdnz(top);
    }
    k.finish("dgemm_mma")
}

/// SGEMM inner kernel, VSU style: 8×8 C tile using 4-lane `xvmaddasp`,
/// 128 flops per k-step.
#[must_use]
pub fn sgemm_vsu(iterations: i64) -> Workload {
    let mut k = KernelBuilder::new(13);
    k.prologue(iterations);
    k.init_panels();
    let top = k.w.b.bind_label();
    k.pointers();
    {
        let b = &mut k.w.b;
        // A column: 8 floats in 2 VSRs.
        b.lxv(Reg::vsr(32), Reg::gpr(10), 0);
        b.lxv(Reg::vsr(33), Reg::gpr(10), 16);
        // B row: 8 floats in 2 VSRs.
        b.lxv(Reg::vsr(52), Reg::gpr(11), 0);
        b.lxv(Reg::vsr(53), Reg::gpr(11), 16);
        // Two splat-ish shuffles standing in for the lane broadcasts.
        b.push(Inst::Xxspltd {
            xt: Reg::vsr(56),
            xa: Reg::vsr(32),
            uim: 0,
        });
        b.push(Inst::Xxspltd {
            xt: Reg::vsr(57),
            xa: Reg::vsr(33),
            uim: 1,
        });
        // 16 single-precision FMAs (8 flops each).
        for i in 0..16u16 {
            b.push(Inst::Xvmaddasp {
                xt: Reg::vsr(36 + i),
                xa: Reg::vsr(56 + (i % 2)),
                xb: Reg::vsr(52 + (i % 2)),
            });
        }
        b.addi(Reg::gpr(4), Reg::gpr(4), 64);
        b.bdnz(top);
    }
    k.finish("sgemm_vsu")
}

/// SGEMM inner kernel, MMA style: the paper's 8×16 panel — eight
/// accumulators as 2 row blocks × 4 col blocks of `xvf32gerpp`,
/// 256 flops per k-step.
#[must_use]
pub fn sgemm_mma(iterations: i64) -> Workload {
    let mut k = KernelBuilder::new(14);
    k.prologue(iterations);
    k.init_panels();
    {
        let b = &mut k.w.b;
        for a in 0..8 {
            b.push(Inst::Xxsetaccz { at: Reg::acc(a) });
        }
    }
    let top = k.w.b.bind_label();
    k.pointers();
    {
        let b = &mut k.w.b;
        // A column: 8 floats in 2 VSRs.
        b.lxv(Reg::vsr(32), Reg::gpr(10), 0);
        b.lxv(Reg::vsr(33), Reg::gpr(10), 16);
        // B row: 16 floats in 4 VSRs via paired loads.
        b.push(Inst::Lxvp {
            xt: Reg::vsr(36),
            ra: Reg::gpr(11),
            disp: 0,
        });
        b.push(Inst::Lxvp {
            xt: Reg::vsr(38),
            ra: Reg::gpr(11),
            disp: 32,
        });
        for r in 0..2u16 {
            for c in 0..4u16 {
                b.push(Inst::Xvf32gerpp {
                    at: Reg::acc(4 * r + c),
                    xa: Reg::vsr(32 + r),
                    xb: Reg::vsr(36 + c),
                });
            }
        }
        b.addi(Reg::gpr(4), Reg::gpr(4), 64);
        b.bdnz(top);
    }
    k.finish("sgemm_mma")
}

/// INT8 GEMM inner kernel on the MMA: eight `xvi8ger4pp` per step
/// (4-deep dot products), 1024 int-op-equivalents per k4-step.
#[must_use]
pub fn int8gemm_mma(iterations: i64) -> Workload {
    let mut k = KernelBuilder::new(15);
    k.prologue(iterations);
    k.init_panels();
    {
        let b = &mut k.w.b;
        for a in 0..8 {
            b.push(Inst::Xxsetaccz { at: Reg::acc(a) });
        }
    }
    let top = k.w.b.bind_label();
    k.pointers();
    {
        let b = &mut k.w.b;
        b.push(Inst::Lxvp {
            xt: Reg::vsr(32),
            ra: Reg::gpr(10),
            disp: 0,
        });
        b.push(Inst::Lxvp {
            xt: Reg::vsr(36),
            ra: Reg::gpr(11),
            disp: 0,
        });
        b.push(Inst::Lxvp {
            xt: Reg::vsr(38),
            ra: Reg::gpr(11),
            disp: 32,
        });
        for r in 0..2u16 {
            for c in 0..4u16 {
                b.push(Inst::Xvi8ger4pp {
                    at: Reg::acc(4 * r + c),
                    xa: Reg::vsr(32 + r),
                    xb: Reg::vsr(36 + c),
                });
            }
        }
        b.addi(Reg::gpr(4), Reg::gpr(4), 64);
        b.bdnz(top);
    }
    k.finish("int8gemm_mma")
}

/// BF16 GEMM inner kernel on the MMA: eight `xvbf16ger2pp` per step
/// (2-deep dot products accumulated in f32), 512 flops per k2-step —
/// the reduced-precision AI format the paper highlights alongside INT8.
#[must_use]
pub fn bf16gemm_mma(iterations: i64) -> Workload {
    let mut k = KernelBuilder::new(21);
    k.prologue(iterations);
    k.init_panels();
    {
        let b = &mut k.w.b;
        for a in 0..8 {
            b.push(Inst::Xxsetaccz { at: Reg::acc(a) });
        }
    }
    let top = k.w.b.bind_label();
    k.pointers();
    {
        let b = &mut k.w.b;
        // A panel: 8 rows × 2 bf16 each, 2 VSRs via one paired load.
        b.push(Inst::Lxvp {
            xt: Reg::vsr(32),
            ra: Reg::gpr(10),
            disp: 0,
        });
        // B panel: 16 columns × 2 bf16 each, 4 VSRs.
        b.push(Inst::Lxvp {
            xt: Reg::vsr(36),
            ra: Reg::gpr(11),
            disp: 0,
        });
        b.push(Inst::Lxvp {
            xt: Reg::vsr(38),
            ra: Reg::gpr(11),
            disp: 32,
        });
        for r in 0..2u16 {
            for c in 0..4u16 {
                b.push(Inst::Xvbf16ger2pp {
                    at: Reg::acc(4 * r + c),
                    xa: Reg::vsr(32 + r),
                    xb: Reg::vsr(36 + c),
                });
            }
        }
        b.addi(Reg::gpr(4), Reg::gpr(4), 64);
        b.bdnz(top);
    }
    k.finish("bf16gemm_mma")
}

/// A small *finite* DGEMM (C = A·B over an 8×8 tile, K steps) in MMA
/// style, storing C to memory at the end — used to validate kernel math
/// against a scalar reference.
#[must_use]
pub fn dgemm_mma_finite(k_steps: i64, c_base: u64) -> Workload {
    let mut k = KernelBuilder::new(16);
    k.prologue(k_steps);
    k.init_panels();
    {
        let b = &mut k.w.b;
        for a in 0..8 {
            b.push(Inst::Xxsetaccz { at: Reg::acc(a) });
        }
    }
    let top = k.w.b.bind_label();
    k.pointers();
    {
        let b = &mut k.w.b;
        b.push(Inst::Lxvp {
            xt: Reg::vsr(32),
            ra: Reg::gpr(10),
            disp: 0,
        });
        b.push(Inst::Lxvp {
            xt: Reg::vsr(34),
            ra: Reg::gpr(10),
            disp: 32,
        });
        b.push(Inst::Lxvp {
            xt: Reg::vsr(36),
            ra: Reg::gpr(11),
            disp: 0,
        });
        b.push(Inst::Lxvp {
            xt: Reg::vsr(38),
            ra: Reg::gpr(11),
            disp: 32,
        });
        for r in 0..2u16 {
            for c in 0..4u16 {
                b.push(Inst::Xvf64gerpp {
                    at: Reg::acc(4 * r + c),
                    xa: Reg::vsr(32 + 2 * r),
                    xb: Reg::vsr(36 + c),
                });
            }
        }
        b.addi(Reg::gpr(4), Reg::gpr(4), 64);
        b.bdnz(top);
    }
    // Epilogue: de-prime accumulators and store C (8 rows x 8 cols).
    {
        let b = &mut k.w.b;
        b.li(Reg::gpr(12), c_base as i64);
        for a in 0..8u16 {
            b.push(Inst::Xxmfacc { at: Reg::acc(a) });
            for row in 0..4u16 {
                b.stxv(
                    Reg::vsr(4 * a + row),
                    Reg::gpr(12),
                    i64::from(a) * 64 + i64::from(row) * 16,
                );
            }
        }
    }
    k.finish("dgemm_mma_finite")
}

/// Scalar reference for the finite MMA DGEMM above: returns the expected
/// C grid given the panel initialization and `k_steps`.
#[must_use]
pub fn dgemm_reference(k_steps: usize) -> [[f64; 8]; 8] {
    let a_at = |i: u64| 0.5 + (i % 97) as f64 * 0.125;
    let b_at = |i: u64| 1.0 - (i % 53) as f64 * 0.0625;
    let mut c = [[0.0f64; 8]; 8];
    for step in 0..k_steps as u64 {
        let off = (step * 64) & (PANEL_MASK as u64);
        let base = off / 8;
        for (i, ci) in c.iter_mut().enumerate() {
            for (j, cij) in ci.iter_mut().enumerate() {
                *cij += a_at(base + i as u64) * b_at(base + j as u64);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_isa::OpClass;

    #[test]
    fn all_kernels_run_endlessly() {
        for w in [
            dgemm_vsu(1 << 40),
            dgemm_mma(1 << 40),
            sgemm_vsu(1 << 40),
            sgemm_mma(1 << 40),
            int8gemm_mma(1 << 40),
            bf16gemm_mma(1 << 40),
        ] {
            let t = w.trace_view_or_panic(5_000);
            assert_eq!(t.len(), 5_000, "{} must loop", w.name);
            assert!(t.total_flops() > 0, "{} must do flops", w.name);
        }
    }

    #[test]
    fn mma_kernel_does_more_flops_per_instruction() {
        let vsu = dgemm_vsu(1 << 40).trace_view_or_panic(20_000);
        let mma = dgemm_mma(1 << 40).trace_view_or_panic(20_000);
        let fpi_vsu = vsu.total_flops() as f64 / vsu.len() as f64;
        let fpi_mma = mma.total_flops() as f64 / mma.len() as f64;
        assert!(
            fpi_mma > 2.5 * fpi_vsu,
            "MMA flops/inst {fpi_mma} must dwarf VSU {fpi_vsu}"
        );
    }

    #[test]
    fn dgemm_kernels_do_identical_math_per_k_step() {
        // 64 flops per k-step VSU, 128 per k-step MMA, but VSU covers a
        // 4x8 tile vs MMA 8x8: flops per C element per k are equal (2).
        let vsu = dgemm_vsu(1 << 40).trace_view_or_panic(30_000);
        let mma = dgemm_mma(1 << 40).trace_view_or_panic(30_000);
        let per_iter = |t: &p10_isa::TraceView, tile: f64| {
            // flops per branch (= per k-step), normalized by tile size
            let iters = t.iter().filter(|o| o.class == OpClass::Branch).count() as f64;
            t.total_flops() as f64 / iters / tile
        };
        let v = per_iter(&vsu, 32.0);
        let m = per_iter(&mma, 64.0);
        assert!(
            (v - m).abs() < 0.1,
            "per-element work differs: vsu {v} mma {m}"
        );
    }

    #[test]
    fn finite_mma_dgemm_matches_scalar_reference() {
        let c_base = 0x0200_0000u64;
        let k_steps = 37;
        let w = dgemm_mma_finite(k_steps, c_base);
        let mut m = w.machine.clone();
        m.run(&w.program, 1_000_000).expect("kernel must run");
        let expect = dgemm_reference(k_steps as usize);
        // C layout: acc a = rows 4*(a/4*?)... acc(4r+c): rows 4r..4r+4,
        // cols 2c..2c+2; each acc row is one VSR = 2 doubles, stored at
        // c_base + a*64 + row*16.
        for r_blk in 0..2u64 {
            for c_blk in 0..4u64 {
                let a = 4 * r_blk + c_blk;
                for row in 0..4u64 {
                    for col in 0..2u64 {
                        let addr = c_base + a * 64 + row * 16 + col * 8;
                        let got = m.mem.read_f64(addr);
                        let want = expect[(4 * r_blk + row) as usize][(2 * c_blk + col) as usize];
                        assert!(
                            (got - want).abs() < 1e-9,
                            "C[{}][{}] = {got}, want {want}",
                            4 * r_blk + row,
                            2 * c_blk + col
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bf16_kernel_uses_bf16_mma_ops_and_outpaces_sgemm() {
        let bf16 = bf16gemm_mma(1 << 40).trace_view_or_panic(10_000);
        let bf16_ops = bf16
            .iter()
            .filter(|o| o.class == OpClass::Mma(p10_isa::MmaKind::Bf16))
            .count();
        assert!(bf16_ops > 1_000);
        // Per-instruction math density: bf16 (64 fl/inst) doubles fp32
        // (32 fl/inst) at identical loop structure.
        let sp = sgemm_mma(1 << 40).trace_view_or_panic(10_000);
        let fpi = |t: &p10_isa::TraceView| t.total_flops() as f64 / t.len() as f64;
        assert!(
            fpi(&bf16) > 1.7 * fpi(&sp),
            "bf16 {} vs sgemm {}",
            fpi(&bf16),
            fpi(&sp)
        );
    }

    #[test]
    fn int8_kernel_uses_int8_mma_ops() {
        let t = int8gemm_mma(1 << 40).trace_view_or_panic(5_000);
        let int8_ops = t
            .iter()
            .filter(|o| o.class == OpClass::Mma(p10_isa::MmaKind::I8))
            .count();
        assert!(int8_ops > 500);
    }
}
