//! MMA instructions as building blocks beyond GEMM.
//!
//! The paper (§II-C): "MMA instructions are more fine-grained than a
//! complete matrix multiply unit and they can also be used as the
//! building blocks of other computations such as convolution, triangular
//! solve and discrete fourier transform." This module implements all
//! three on the modeled MMA facility, each validated against a scalar
//! reference:
//!
//! * [`conv3x3_mma_finite`] — a direct 3×3 convolution tile computed as
//!   a sequence of `xvf32gerpp` rank-1 updates over input channels and
//!   taps (no explicit im2col buffer).
//! * [`trsm_mma_finite`] — a unit-lower-triangular solve `L·X = B` with
//!   MMA `xvf64gernp` trailing updates.
//! * [`dft8_mma_finite`] — an 8-point real-input DFT as two small GEMMs
//!   against the cosine/sine twiddle matrices.

use p10_isa::{Inst, Reg};
use p10_workloads::{Workload, WorkloadBuilder};

/// Base address for kernel inputs.
const IN_BASE: u64 = 0x0400_0000;
/// Base address for kernel weights/matrices.
const W_BASE: u64 = 0x0410_0000;
/// Base address for kernel outputs (read back via the `*_read_output`
/// helpers).
pub const OUT_BASE: u64 = 0x0420_0000;

fn f32_init(w: &mut WorkloadBuilder, addr: u64, vals: &[f32]) {
    for (i, pair) in vals.chunks(2).enumerate() {
        let lo = pair[0].to_bits() as u64;
        let hi = pair.get(1).map_or(0, |v| v.to_bits()) as u64;
        w.init_word(addr + 8 * i as u64, lo | (hi << 32));
    }
}

fn f64_init(w: &mut WorkloadBuilder, addr: u64, vals: &[f64]) {
    for (i, v) in vals.iter().enumerate() {
        w.init_word(addr + 8 * i as u64, v.to_bits());
    }
}

/// Input geometry of the convolution demo: 4 input channels, 6×6 input,
/// 4 output channels, 4 output positions along one row.
pub const CONV_CIN: usize = 4;
/// Output channels.
pub const CONV_COUT: usize = 4;
/// Input edge length.
pub const CONV_IN_W: usize = 6;

/// Deterministic convolution test data: `(input, weights)`.
///
/// `input[ci][y][x]`, `weights[co][ci][dy][dx]`.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn conv_test_data() -> (Vec<f32>, Vec<f32>) {
    let input: Vec<f32> = (0..CONV_CIN * CONV_IN_W * CONV_IN_W)
        .map(|i| ((i * 7 + 3) % 13) as f32 * 0.25 - 1.0)
        .collect();
    let weights: Vec<f32> = (0..CONV_COUT * CONV_CIN * 9)
        .map(|i| ((i * 5 + 1) % 11) as f32 * 0.125 - 0.5)
        .collect();
    (input, weights)
}

/// Scalar reference: one output row of 4 positions at `y = 1`,
/// `O[co][x] = Σ_{ci,dy,dx} W[co][ci][dy][dx] · I[ci][y+dy-1][x+dx-1]`
/// for x in 1..5 (valid positions with the 3×3 window).
#[must_use]
#[allow(clippy::needless_range_loop)] // tensor index symmetry
pub fn conv_reference() -> [[f32; 4]; 4] {
    let (input, weights) = conv_test_data();
    let i_at = |ci: usize, y: usize, x: usize| input[(ci * CONV_IN_W + y) * CONV_IN_W + x];
    let w_at = |co: usize, ci: usize, dy: usize, dx: usize| {
        weights[((co * CONV_CIN + ci) * 3 + dy) * 3 + dx]
    };
    let mut out = [[0.0f32; 4]; 4];
    for co in 0..4 {
        for x in 0..4 {
            let mut acc = 0.0f32;
            for ci in 0..CONV_CIN {
                for dy in 0..3 {
                    for dx in 0..3 {
                        acc = w_at(co, ci, dy, dx).mul_add(i_at(ci, dy, x + dx), acc);
                    }
                }
            }
            out[co][x] = acc;
        }
    }
    out
}

/// Builds the finite MMA convolution kernel: 36 rank-1 updates
/// (4 channels × 9 taps), one `xvf32gerpp` each: the a-vector is the
/// 4-output-channel weight column for the tap, the b-vector is the 4
/// sliding input positions the tap touches. Output stored at
/// [`OUT_BASE`] as a 4×4 f32 grid (co-major).
#[must_use]
pub fn conv3x3_mma_finite() -> Workload {
    let (input, weights) = conv_test_data();
    let mut w = WorkloadBuilder::new(41);
    f32_init(&mut w, IN_BASE, &input);
    // Weight columns laid out per (ci, dy, dx): 4 f32 = W[0..4][ci][tap].
    let mut wcols = Vec::new();
    for ci in 0..CONV_CIN {
        for dy in 0..3 {
            for dx in 0..3 {
                for co in 0..4 {
                    wcols.push(weights[((co * CONV_CIN + ci) * 3 + dy) * 3 + dx]);
                }
            }
        }
    }
    f32_init(&mut w, W_BASE, &wcols);

    {
        let b = &mut w.b;
        b.li(Reg::gpr(1), IN_BASE as i64);
        b.li(Reg::gpr(2), W_BASE as i64);
        b.li(Reg::gpr(3), OUT_BASE as i64);
        b.push(Inst::Xxsetaccz { at: Reg::acc(0) });
        let mut k = 0i64;
        for ci in 0..CONV_CIN {
            for dy in 0..3usize {
                for dx in 0..3usize {
                    // a: weight column for this tap.
                    b.lxv(Reg::vsr(34), Reg::gpr(2), k * 16);
                    // b: 4 sliding input values I[ci][dy][dx..dx+4]
                    // (output row y=1 uses input rows dy, unpadded).
                    let off = ((ci * CONV_IN_W + dy) * CONV_IN_W + dx) * 4;
                    b.lxv(Reg::vsr(36), Reg::gpr(1), off as i64);
                    b.push(Inst::Xvf32gerpp {
                        at: Reg::acc(0),
                        xa: Reg::vsr(34),
                        xb: Reg::vsr(36),
                    });
                    k += 1;
                }
            }
        }
        b.push(Inst::Xxmfacc { at: Reg::acc(0) });
        for row in 0..4 {
            b.stxv(Reg::vsr(row), Reg::gpr(3), i64::from(row) * 16);
        }
    }
    w.finish("conv3x3_mma")
}

/// Reads the convolution output grid from a machine that ran the kernel.
#[must_use]
pub fn conv_read_output(m: &p10_isa::Machine) -> [[f32; 4]; 4] {
    let mut out = [[0.0f32; 4]; 4];
    for (co, row) in out.iter_mut().enumerate() {
        for (x, v) in row.iter_mut().enumerate() {
            *v = m.mem.read_f32(OUT_BASE + (co * 16 + x * 4) as u64);
        }
    }
    out
}

/// Size of the triangular system.
pub const TRSM_N: usize = 8;
/// Right-hand-side columns (one accumulator row-pair wide).
pub const TRSM_RHS: usize = 2;

/// Deterministic TRSM test data `(l, b)`: `l` unit-lower-triangular
/// row-major 8×8, `b` 8×2 row-major.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn trsm_test_data() -> (Vec<f64>, Vec<f64>) {
    let mut l = vec![0.0f64; TRSM_N * TRSM_N];
    for i in 0..TRSM_N {
        l[i * TRSM_N + i] = 1.0;
        for j in 0..i {
            l[i * TRSM_N + j] = ((i * 3 + j * 5 + 1) % 7) as f64 * 0.125 - 0.375;
        }
    }
    let b: Vec<f64> = (0..TRSM_N * TRSM_RHS)
        .map(|i| ((i * 11 + 2) % 9) as f64 * 0.5 - 2.0)
        .collect();
    (l, b)
}

/// Scalar forward substitution reference: solves `L · X = B`.
#[must_use]
pub fn trsm_reference() -> Vec<f64> {
    let (l, b) = trsm_test_data();
    let mut x = b;
    for i in 0..TRSM_N {
        for j in 0..i {
            let lij = l[i * TRSM_N + j];
            for c in 0..TRSM_RHS {
                x[i * TRSM_RHS + c] -= lij * x[j * TRSM_RHS + c];
            }
        }
    }
    x
}

/// Builds the MMA triangular solve: X rows are produced top-down; after
/// each block of one row, the trailing rows are updated with
/// `xvf64gernp` rank-1 updates (`B[i..] -= L[i..,row] ⊗ X[row]`).
///
/// For clarity the kernel processes one row at a time with 4-row
/// trailing-update blocks; X is stored to [`OUT_BASE`] (8×2 f64,
/// row-major).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn trsm_mma_finite() -> Workload {
    let (l, b) = trsm_test_data();
    let mut w = WorkloadBuilder::new(43);
    f64_init(&mut w, W_BASE, &l);
    f64_init(&mut w, IN_BASE, &b);

    {
        let bu = &mut w.b;
        bu.li(Reg::gpr(1), IN_BASE as i64); // B / X in place
        bu.li(Reg::gpr(2), W_BASE as i64); // L
        bu.li(Reg::gpr(3), OUT_BASE as i64);
        // Copy B into the output area; the solve updates in place there.
        for i in 0..(TRSM_N * TRSM_RHS) as i64 {
            bu.ld(Reg::gpr(5), Reg::gpr(1), i * 8);
            bu.std(Reg::gpr(5), Reg::gpr(3), i * 8);
        }
        // Row-by-row forward substitution: row i's X equals the current
        // residual (unit diagonal); then subtract its outer product with
        // the L column below.
        for i in 0..TRSM_N {
            let rows_below = TRSM_N - 1 - i;
            if rows_below == 0 {
                break;
            }
            // b-vector: X[i][0..2] (one VSR).
            bu.lxv(Reg::vsr(36), Reg::gpr(3), (i * TRSM_RHS * 8) as i64);
            // Trailing rows in blocks of up to 4.
            let mut r = i + 1;
            while r < TRSM_N {
                let blk = (TRSM_N - r).min(4);
                // a-vector: L[r..r+4][i] — gathered column into memory is
                // awkward; instead materialize via 4 scalar loads into a
                // staging buffer, then two lxv (even pair) reads.
                for k in 0..4usize {
                    let src = if k < blk {
                        ((r + k) * TRSM_N + i) * 8
                    } else {
                        // pad with zeros from a scratch slot
                        (TRSM_N * TRSM_N) * 8
                    };
                    bu.ld(Reg::gpr(6), Reg::gpr(2), src as i64);
                    bu.std(
                        Reg::gpr(6),
                        Reg::gpr(2),
                        ((TRSM_N * TRSM_N + 2) * 8 + k * 8) as i64,
                    );
                }
                let stage = ((TRSM_N * TRSM_N + 2) * 8) as i64;
                bu.lxv(Reg::vsr(34), Reg::gpr(2), stage);
                bu.lxv(Reg::vsr(35), Reg::gpr(2), stage + 16);
                // acc = current residual rows r..r+4 (2 cols).
                bu.push(Inst::Xxsetaccz { at: Reg::acc(0) });
                for k in 0..4usize {
                    let addr = ((r + k.min(blk - 1)) * TRSM_RHS * 8) as i64;
                    let _ = addr;
                }
                // Load residual rows into backing VSRs then prime.
                for k in 0..4usize {
                    let row = if k < blk { r + k } else { TRSM_N - 1 };
                    bu.lxv(Reg::vsr(k as u16), Reg::gpr(3), (row * TRSM_RHS * 8) as i64);
                }
                bu.push(Inst::Xxmtacc { at: Reg::acc(0) });
                // acc -= L-col x X[i]
                bu.push(Inst::Xvf64gernp {
                    at: Reg::acc(0),
                    xa: Reg::vsr(34),
                    xb: Reg::vsr(36),
                });
                bu.push(Inst::Xxmfacc { at: Reg::acc(0) });
                for k in 0..blk {
                    bu.stxv(
                        Reg::vsr(k as u16),
                        Reg::gpr(3),
                        ((r + k) * TRSM_RHS * 8) as i64,
                    );
                }
                r += blk;
            }
        }
    }
    // Scratch zero slot for padding.
    w.init_word(W_BASE + (TRSM_N * TRSM_N) as u64 * 8, 0);
    w.finish("trsm_mma")
}

/// Reads the TRSM solution from a machine that ran the kernel.
#[must_use]
pub fn trsm_read_output(m: &p10_isa::Machine) -> Vec<f64> {
    (0..TRSM_N * TRSM_RHS)
        .map(|i| m.mem.read_f64(OUT_BASE + i as u64 * 8))
        .collect()
}

/// DFT length.
pub const DFT_N: usize = 8;

/// Deterministic DFT input.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn dft_test_input() -> Vec<f64> {
    (0..DFT_N).map(|i| ((i * 5 + 1) % 7) as f64 - 3.0).collect()
}

/// Scalar reference DFT: returns `(re, im)` of `X[k] = Σ x[n]·e^{-2πikn/N}`.
#[must_use]
pub fn dft_reference() -> (Vec<f64>, Vec<f64>) {
    let x = dft_test_input();
    let mut re = vec![0.0; DFT_N];
    let mut im = vec![0.0; DFT_N];
    for k in 0..DFT_N {
        for (n, &v) in x.iter().enumerate() {
            let ang = -2.0 * std::f64::consts::PI * (k * n) as f64 / DFT_N as f64;
            re[k] += v * ang.cos();
            im[k] += v * ang.sin();
        }
    }
    (re, im)
}

/// Builds the MMA DFT: the real and imaginary twiddle matrices (8×8) are
/// multiplied by the input vector via `xvf64gerpp` rank-1 updates —
/// exactly a (8×8)·(8×1) GEMM pair. Outputs: re at [`OUT_BASE`], im at
/// `OUT_BASE + 64`.
#[must_use]
pub fn dft8_mma_finite() -> Workload {
    let x = dft_test_input();
    let mut w = WorkloadBuilder::new(47);
    // Twiddles stored column-major: column n holds e^{-2πikn/N} over k,
    // so step n is the rank-1 update twiddle_col(n) ⊗ [x[n], x[n]].
    let mut cos_cols = Vec::new();
    let mut sin_cols = Vec::new();
    for n in 0..DFT_N {
        for k in 0..DFT_N {
            let ang = -2.0 * std::f64::consts::PI * (k * n) as f64 / DFT_N as f64;
            cos_cols.push(ang.cos());
            sin_cols.push(ang.sin());
        }
    }
    f64_init(&mut w, W_BASE, &cos_cols);
    f64_init(&mut w, W_BASE + 512, &sin_cols);
    // Input duplicated per column for the 2-wide b-vector: [x[n], x[n]].
    let dup: Vec<f64> = x.iter().flat_map(|&v| [v, v]).collect();
    f64_init(&mut w, IN_BASE, &dup);

    {
        let b = &mut w.b;
        b.li(Reg::gpr(1), IN_BASE as i64);
        b.li(Reg::gpr(2), W_BASE as i64);
        b.li(Reg::gpr(3), OUT_BASE as i64);
        for (part, tw_off, out_off) in [(0u16, 0i64, 0i64), (1, 512, 64)] {
            let _ = part;
            // Two accumulators cover k = 0..4 and 4..8 (columns 0..2 used).
            b.push(Inst::Xxsetaccz { at: Reg::acc(0) });
            b.push(Inst::Xxsetaccz { at: Reg::acc(1) });
            for n in 0..DFT_N as i64 {
                b.push(Inst::Lxvp {
                    xt: Reg::vsr(34),
                    ra: Reg::gpr(2),
                    disp: tw_off + n * 64,
                });
                b.push(Inst::Lxvp {
                    xt: Reg::vsr(38),
                    ra: Reg::gpr(2),
                    disp: tw_off + n * 64 + 32,
                });
                b.lxv(Reg::vsr(36), Reg::gpr(1), n * 16);
                b.push(Inst::Xvf64gerpp {
                    at: Reg::acc(0),
                    xa: Reg::vsr(34),
                    xb: Reg::vsr(36),
                });
                b.push(Inst::Xvf64gerpp {
                    at: Reg::acc(1),
                    xa: Reg::vsr(38),
                    xb: Reg::vsr(36),
                });
            }
            b.push(Inst::Xxmfacc { at: Reg::acc(0) });
            b.push(Inst::Xxmfacc { at: Reg::acc(1) });
            // Column 0 of each accumulator row holds X[k]; rows are 2
            // doubles wide — store the full rows, the reader picks col 0.
            for k in 0..4 {
                b.stxv(Reg::vsr(k), Reg::gpr(3), out_off + i64::from(k) * 16);
                b.stxv(
                    Reg::vsr(4 + k),
                    Reg::gpr(3),
                    out_off + 256 + i64::from(k) * 16,
                );
            }
        }
    }
    w.finish("dft8_mma")
}

/// Reads the DFT result from a machine that ran the kernel.
#[must_use]
pub fn dft_read_output(m: &p10_isa::Machine) -> (Vec<f64>, Vec<f64>) {
    let read_part = |base: u64| -> Vec<f64> {
        let mut out = Vec::with_capacity(DFT_N);
        for k in 0..4u64 {
            out.push(m.mem.read_f64(base + k * 16));
        }
        for k in 0..4u64 {
            out.push(m.mem.read_f64(base + 256 + k * 16));
        }
        out
    };
    (read_part(OUT_BASE), read_part(OUT_BASE + 64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(w: &Workload) -> p10_isa::Machine {
        let mut m = w.machine.clone();
        m.run(&w.program, 10_000_000).expect("kernel runs");
        m
    }

    #[test]
    fn convolution_matches_scalar_reference() {
        let w = conv3x3_mma_finite();
        let m = run(&w);
        let got = conv_read_output(&m);
        let want = conv_reference();
        for co in 0..4 {
            for x in 0..4 {
                assert!(
                    (got[co][x] - want[co][x]).abs() < 1e-4,
                    "O[{co}][{x}] = {}, want {}",
                    got[co][x],
                    want[co][x]
                );
            }
        }
    }

    #[test]
    fn triangular_solve_matches_forward_substitution() {
        let w = trsm_mma_finite();
        let m = run(&w);
        let got = trsm_read_output(&m);
        let want = trsm_reference();
        for (i, (g, wv)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - wv).abs() < 1e-9,
                "X[{}][{}] = {g}, want {wv}",
                i / TRSM_RHS,
                i % TRSM_RHS
            );
        }
        // And the solution actually satisfies L X = B.
        let (l, b) = trsm_test_data();
        for i in 0..TRSM_N {
            for c in 0..TRSM_RHS {
                let mut acc = 0.0;
                for j in 0..TRSM_N {
                    acc += l[i * TRSM_N + j] * got[j * TRSM_RHS + c];
                }
                assert!((acc - b[i * TRSM_RHS + c]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dft_matches_scalar_reference() {
        let w = dft8_mma_finite();
        let m = run(&w);
        let (re, im) = dft_read_output(&m);
        let (re_ref, im_ref) = dft_reference();
        for k in 0..DFT_N {
            assert!(
                (re[k] - re_ref[k]).abs() < 1e-9,
                "Re X[{k}] = {}, want {}",
                re[k],
                re_ref[k]
            );
            assert!(
                (im[k] - im_ref[k]).abs() < 1e-9,
                "Im X[{k}] = {}, want {}",
                im[k],
                im_ref[k]
            );
        }
        // Parseval sanity: energy preserved (×N).
        let x = dft_test_input();
        let e_time: f64 = x.iter().map(|v| v * v).sum();
        let e_freq: f64 = re.iter().zip(im.iter()).map(|(r, i)| r * r + i * i).sum();
        assert!((e_freq - e_time * DFT_N as f64).abs() < 1e-6);
    }

    #[test]
    fn kernels_use_the_mma_grid() {
        for w in [conv3x3_mma_finite(), trsm_mma_finite(), dft8_mma_finite()] {
            let mut m = w.machine.clone();
            let t = m.run(&w.program, 10_000_000).unwrap();
            let mma_ops = t.iter().filter(|o| o.is_mma_compute()).count();
            assert!(mma_ops > 0, "{} must use the grid", w.name);
        }
    }
}
