//! Functional (architectural) execution.
//!
//! [`Machine`] holds full architectural state and executes [`Program`]s,
//! producing the dynamic-op trace ([`TraceView`]) that the timing model
//! replays.
//!
//! ## Accumulator/VSR aliasing
//!
//! In the real ISA each 512-bit accumulator `acc i` overlays VSRs
//! `4i..4i+4`. The executor models the data movement exactly (`xxmfacc`
//! copies the accumulator into its backing VSRs, `xxmtacc` the reverse) and
//! synthesizes the corresponding *dependence* edges: after an `xxmfacc`,
//! reads of a backing VSR also list the accumulator as a source, so the
//! timing model sees the true producer.

use crate::dynop::{BranchInfo, BranchKind, DynOp, MemRef, MmaKind, OpClass};
use crate::inst::Inst;
use crate::mem::SparseMemory;
use crate::program::Program;
use crate::reg::{Acc, Reg};
use crate::view::{TraceBuilder, TraceView};
use std::fmt;

/// The link-register sentinel that means "return to host": a top-level
/// `blr` (or `bctr` to this address) halts execution.
pub const HALT_ADDR: u64 = 0xffff_0000_0000_0000;

/// Errors during functional execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An indirect branch targeted an address outside the program.
    InvalidBranchTarget {
        /// Address of the faulting branch.
        pc: u64,
        /// The invalid target address.
        target: u64,
    },
    /// `xvf64gerpp` requires an even-numbered starting VSR for its pair.
    OddF64GerPair {
        /// Address of the faulting instruction.
        pc: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InvalidBranchTarget { pc, target } => {
                write!(f, "invalid branch target {target:#x} at pc {pc:#x}")
            }
            ExecError::OddF64GerPair { pc } => {
                write!(f, "xvf64gerpp with odd VSR pair start at pc {pc:#x}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// An architectural machine: registers, accumulators, and sparse memory.
#[derive(Debug, Clone)]
pub struct Machine {
    gpr: [u64; 32],
    vsr: [[u64; 2]; 64],
    acc: [Acc; 8],
    cr: [u8; 8],
    ctr: u64,
    lr: u64,
    /// Memory is public state: workloads pre-initialize data here.
    pub mem: SparseMemory,
    /// Which accumulators have been `xxmfacc`-ed so their backing VSRs
    /// carry an accumulator dependence.
    acc_backing_live: [bool; 8],
    executed: u64,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl std::hash::Hash for Machine {
    /// Hashes the full architectural state (registers, accumulators,
    /// special registers, memory image, execution count) — the machine
    /// half of a workload's content key for trace memoization.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.gpr.hash(state);
        self.vsr.hash(state);
        self.acc.hash(state);
        self.cr.hash(state);
        self.ctr.hash(state);
        self.lr.hash(state);
        self.mem.hash(state);
        self.acc_backing_live.hash(state);
        self.executed.hash(state);
    }
}

impl Machine {
    /// Creates a machine with zeroed registers, `lr` set to [`HALT_ADDR`],
    /// and empty memory.
    #[must_use]
    pub fn new() -> Self {
        Machine {
            gpr: [0; 32],
            vsr: [[0; 2]; 64],
            acc: [Acc::zero(); 8],
            cr: [0; 8],
            ctr: 0,
            lr: HALT_ADDR,
            mem: SparseMemory::new(),
            acc_backing_live: [false; 8],
            executed: 0,
        }
    }

    /// Reads GPR `n`.
    #[must_use]
    pub fn gpr(&self, n: u16) -> u64 {
        self.gpr[n as usize]
    }

    /// Writes GPR `n`.
    pub fn set_gpr(&mut self, n: u16, v: u64) {
        self.gpr[n as usize] = v;
    }

    /// Reads VSR `n` as two 64-bit words `[low, high]`.
    #[must_use]
    pub fn vsr(&self, n: u16) -> [u64; 2] {
        self.vsr[n as usize]
    }

    /// Writes VSR `n`.
    pub fn set_vsr(&mut self, n: u16, v: [u64; 2]) {
        self.vsr[n as usize] = v;
    }

    /// Reads accumulator `n`.
    #[must_use]
    pub fn acc(&self, n: u16) -> Acc {
        self.acc[n as usize]
    }

    /// Reads CR field `n` (low 3 bits: LT=4, GT=2, EQ=1).
    #[must_use]
    pub fn cr(&self, n: u16) -> u8 {
        self.cr[n as usize]
    }

    /// The count register.
    #[must_use]
    pub fn ctr(&self) -> u64 {
        self.ctr
    }

    /// The link register.
    #[must_use]
    pub fn lr(&self) -> u64 {
        self.lr
    }

    /// Total instructions executed over the machine's lifetime.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Runs `program` from its first instruction until it halts (falls off
    /// the end or returns to [`HALT_ADDR`]) or `max_ops` instructions have
    /// executed, whichever comes first. Returns the dynamic-op trace,
    /// written op by op into compact storage ([`TraceBuilder`]): this is
    /// the one way to execute a program into a [`TraceView`].
    ///
    /// `max_ops` as a normal stopping condition is deliberate: the paper's
    /// proxy workloads are *endless* L1-contained loops measured over a
    /// window (§III-A).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid indirect-branch targets or malformed
    /// MMA register pairs; the machine state reflects execution up to the
    /// faulting instruction.
    pub fn run(&mut self, program: &Program, max_ops: u64) -> Result<TraceView, ExecError> {
        let mut b = TraceBuilder::with_capacity(max_ops.min(1 << 20) as usize);
        self.run_with(program, max_ops, |op| b.push(op))?;
        Ok(b.finish())
    }

    /// Like [`Machine::run`], but hands each executed op to `emit` in
    /// program order instead of storing it — the stream `run` builds its
    /// view from, and an independent reference for checking that view.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`]; `emit` has seen every op before the fault.
    pub fn run_with(
        &mut self,
        program: &Program,
        max_ops: u64,
        mut emit: impl FnMut(DynOp),
    ) -> Result<(), ExecError> {
        let mut idx = 0usize;
        let mut ops = 0u64;
        while idx < program.len() && ops < max_ops {
            let (op, next) = self.step(program, idx)?;
            emit(op);
            ops += 1;
            self.executed += 1;
            match next {
                NextPc::Seq => idx += 1,
                NextPc::Index(i) => idx = i,
                NextPc::Halt => break,
            }
        }
        Ok(())
    }

    fn set_cr_cmp(&mut self, bf: Reg, a: i64, b: i64) {
        let f = match a.cmp(&b) {
            std::cmp::Ordering::Less => 0b100,
            std::cmp::Ordering::Greater => 0b010,
            std::cmp::Ordering::Equal => 0b001,
        };
        self.cr[bf.index() as usize] = f;
    }

    /// Adds `r` as a source of `op`; if `r` is a backing VSR of a live
    /// accumulator, also adds the accumulator.
    fn read_vsr_src(&self, op: &mut DynOp, v: u16) {
        op.add_src(Reg::vsr(v));
        if v < 32 && self.acc_backing_live[(v / 4) as usize] {
            op.add_src(Reg::acc(v / 4));
        }
    }

    fn ea(&self, ra: Reg, disp: i64) -> u64 {
        self.gpr[ra.index() as usize].wrapping_add(disp as u64)
    }

    /// Executes the instruction at `idx`, returning its dynamic op and the
    /// next control-flow step.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, program: &Program, idx: usize) -> Result<(DynOp, NextPc), ExecError> {
        let inst = program.insts()[idx];
        let pc = program.addr_of(idx);
        let seq_addr = program.addr_of(idx + 1);
        let mut op;
        let mut next = NextPc::Seq;

        macro_rules! alu3 {
            ($rt:expr, $ra:expr, $rb:expr, $f:expr) => {{
                op = DynOp::new(pc, OpClass::IntAlu);
                op.add_src($ra);
                op.add_src($rb);
                op.set_dst($rt);
                let val = $f(
                    self.gpr[$ra.index() as usize],
                    self.gpr[$rb.index() as usize],
                );
                self.gpr[$rt.index() as usize] = val;
            }};
        }

        match inst {
            Inst::Addi { rt, ra, imm } => {
                op = DynOp::new(pc, OpClass::IntAlu);
                op.add_src(ra);
                op.set_dst(rt);
                self.gpr[rt.index() as usize] =
                    self.gpr[ra.index() as usize].wrapping_add(imm as u64);
            }
            Inst::Li { rt, imm } => {
                op = DynOp::new(pc, OpClass::IntAlu);
                op.set_dst(rt);
                self.gpr[rt.index() as usize] = imm as u64;
            }
            Inst::Add { rt, ra, rb } => alu3!(rt, ra, rb, |a: u64, b: u64| a.wrapping_add(b)),
            Inst::Sub { rt, ra, rb } => alu3!(rt, ra, rb, |a: u64, b: u64| a.wrapping_sub(b)),
            Inst::And { rt, ra, rb } => alu3!(rt, ra, rb, |a: u64, b: u64| a & b),
            Inst::Or { rt, ra, rb } => alu3!(rt, ra, rb, |a: u64, b: u64| a | b),
            Inst::Xor { rt, ra, rb } => alu3!(rt, ra, rb, |a: u64, b: u64| a ^ b),
            Inst::Neg { rt, ra } => {
                op = DynOp::new(pc, OpClass::IntAlu);
                op.add_src(ra);
                op.set_dst(rt);
                self.gpr[rt.index() as usize] =
                    (self.gpr[ra.index() as usize] as i64).wrapping_neg() as u64;
            }
            Inst::Sldi { rt, ra, sh } => {
                op = DynOp::new(pc, OpClass::IntAlu);
                op.add_src(ra);
                op.set_dst(rt);
                self.gpr[rt.index() as usize] = self.gpr[ra.index() as usize] << (sh & 63);
            }
            Inst::Srdi { rt, ra, sh } => {
                op = DynOp::new(pc, OpClass::IntAlu);
                op.add_src(ra);
                op.set_dst(rt);
                self.gpr[rt.index() as usize] = self.gpr[ra.index() as usize] >> (sh & 63);
            }
            Inst::Mulld { rt, ra, rb } => {
                op = DynOp::new(pc, OpClass::IntMul);
                op.add_src(ra);
                op.add_src(rb);
                op.set_dst(rt);
                self.gpr[rt.index() as usize] = (self.gpr[ra.index() as usize] as i64)
                    .wrapping_mul(self.gpr[rb.index() as usize] as i64)
                    as u64;
            }
            Inst::Divd { rt, ra, rb } => {
                op = DynOp::new(pc, OpClass::IntDiv);
                op.add_src(ra);
                op.add_src(rb);
                op.set_dst(rt);
                let a = self.gpr[ra.index() as usize] as i64;
                let b = self.gpr[rb.index() as usize] as i64;
                // Architecturally undefined for b == 0 or overflow; the
                // model defines the result as 0.
                self.gpr[rt.index() as usize] = if b == 0 || (a == i64::MIN && b == -1) {
                    0
                } else {
                    (a / b) as u64
                };
            }
            Inst::Cmp { bf, ra, rb } => {
                op = DynOp::new(pc, OpClass::IntAlu);
                op.add_src(ra);
                op.add_src(rb);
                op.set_dst(bf);
                self.set_cr_cmp(
                    bf,
                    self.gpr[ra.index() as usize] as i64,
                    self.gpr[rb.index() as usize] as i64,
                );
            }
            Inst::Cmpi { bf, ra, imm } => {
                op = DynOp::new(pc, OpClass::IntAlu);
                op.add_src(ra);
                op.set_dst(bf);
                self.set_cr_cmp(bf, self.gpr[ra.index() as usize] as i64, imm);
            }

            // ---- loads ----
            Inst::Lbz { rt, ra, disp } => {
                let addr = self.ea(ra, disp);
                op = DynOp::new(pc, OpClass::Load);
                op.add_src(ra);
                op.set_dst(rt);
                op.mem = Some(MemRef { addr, size: 1 });
                self.gpr[rt.index() as usize] = u64::from(self.mem.read_u8(addr));
            }
            Inst::Lwz { rt, ra, disp } => {
                let addr = self.ea(ra, disp);
                op = DynOp::new(pc, OpClass::Load);
                op.add_src(ra);
                op.set_dst(rt);
                op.mem = Some(MemRef { addr, size: 4 });
                self.gpr[rt.index() as usize] = u64::from(self.mem.read_u32(addr));
            }
            Inst::Ld { rt, ra, disp } => {
                let addr = self.ea(ra, disp);
                op = DynOp::new(pc, OpClass::Load);
                op.add_src(ra);
                op.set_dst(rt);
                op.mem = Some(MemRef { addr, size: 8 });
                self.gpr[rt.index() as usize] = self.mem.read_u64(addr);
            }
            Inst::Ldx { rt, ra, rb } => {
                let addr =
                    self.gpr[ra.index() as usize].wrapping_add(self.gpr[rb.index() as usize]);
                op = DynOp::new(pc, OpClass::Load);
                op.add_src(ra);
                op.add_src(rb);
                op.set_dst(rt);
                op.mem = Some(MemRef { addr, size: 8 });
                self.gpr[rt.index() as usize] = self.mem.read_u64(addr);
            }

            // ---- stores ----
            Inst::Stb { rs, ra, disp } => {
                let addr = self.ea(ra, disp);
                op = DynOp::new(pc, OpClass::Store);
                op.add_src(rs);
                op.add_src(ra);
                op.mem = Some(MemRef { addr, size: 1 });
                self.mem.write_u8(addr, self.gpr[rs.index() as usize] as u8);
            }
            Inst::Stw { rs, ra, disp } => {
                let addr = self.ea(ra, disp);
                op = DynOp::new(pc, OpClass::Store);
                op.add_src(rs);
                op.add_src(ra);
                op.mem = Some(MemRef { addr, size: 4 });
                self.mem
                    .write_u32(addr, self.gpr[rs.index() as usize] as u32);
            }
            Inst::Std { rs, ra, disp } => {
                let addr = self.ea(ra, disp);
                op = DynOp::new(pc, OpClass::Store);
                op.add_src(rs);
                op.add_src(ra);
                op.mem = Some(MemRef { addr, size: 8 });
                self.mem.write_u64(addr, self.gpr[rs.index() as usize]);
            }
            Inst::Stdu { rs, ra, disp } => {
                let addr = self.ea(ra, disp);
                op = DynOp::new(pc, OpClass::Store);
                op.add_src(rs);
                op.add_src(ra);
                op.set_dst(ra); // update form writes the base register
                op.mem = Some(MemRef { addr, size: 8 });
                self.mem.write_u64(addr, self.gpr[rs.index() as usize]);
                self.gpr[ra.index() as usize] = addr;
            }

            // ---- vector memory ----
            Inst::Lxv { xt, ra, disp } => {
                let addr = self.ea(ra, disp);
                op = DynOp::new(pc, OpClass::Load);
                op.add_src(ra);
                op.set_dst(xt);
                op.mem = Some(MemRef { addr, size: 16 });
                self.vsr[xt.index() as usize] = self.mem.read_u128_words(addr);
            }
            Inst::Lxvx { xt, ra, rb } => {
                let addr =
                    self.gpr[ra.index() as usize].wrapping_add(self.gpr[rb.index() as usize]);
                op = DynOp::new(pc, OpClass::Load);
                op.add_src(ra);
                op.add_src(rb);
                op.set_dst(xt);
                op.mem = Some(MemRef { addr, size: 16 });
                self.vsr[xt.index() as usize] = self.mem.read_u128_words(addr);
            }
            Inst::Lxvp { xt, ra, disp } => {
                let addr = self.ea(ra, disp);
                op = DynOp::new(pc, OpClass::Load);
                op.add_src(ra);
                op.set_dst(xt);
                op.set_dst2(Reg::vsr(xt.index() + 1));
                op.mem = Some(MemRef { addr, size: 32 });
                self.vsr[xt.index() as usize] = self.mem.read_u128_words(addr);
                self.vsr[xt.index() as usize + 1] = self.mem.read_u128_words(addr + 16);
            }
            Inst::Lxvdsx { xt, ra, rb } => {
                let addr =
                    self.gpr[ra.index() as usize].wrapping_add(self.gpr[rb.index() as usize]);
                op = DynOp::new(pc, OpClass::Load);
                op.add_src(ra);
                op.add_src(rb);
                op.set_dst(xt);
                op.mem = Some(MemRef { addr, size: 8 });
                let d = self.mem.read_u64(addr);
                self.vsr[xt.index() as usize] = [d, d];
            }
            Inst::Stxv { xs, ra, disp } => {
                let addr = self.ea(ra, disp);
                op = DynOp::new(pc, OpClass::Store);
                self.read_vsr_src(&mut op, xs.index());
                op.add_src(ra);
                op.mem = Some(MemRef { addr, size: 16 });
                self.mem
                    .write_u128_words(addr, self.vsr[xs.index() as usize]);
            }
            Inst::Stxvp { xs, ra, disp } => {
                let addr = self.ea(ra, disp);
                op = DynOp::new(pc, OpClass::Store);
                self.read_vsr_src(&mut op, xs.index());
                self.read_vsr_src(&mut op, xs.index() + 1);
                op.add_src(ra);
                op.mem = Some(MemRef { addr, size: 32 });
                self.mem
                    .write_u128_words(addr, self.vsr[xs.index() as usize]);
                self.mem
                    .write_u128_words(addr + 16, self.vsr[xs.index() as usize + 1]);
            }

            // ---- VSX arithmetic ----
            Inst::Xvadddp { xt, xa, xb } => {
                op = self.vsx_dp2(pc, xt, xa, xb, 2, |a, b, _| a + b);
            }
            Inst::Xvmuldp { xt, xa, xb } => {
                op = self.vsx_dp2(pc, xt, xa, xb, 2, |a, b, _| a * b);
            }
            Inst::Xvmaddadp { xt, xa, xb } => {
                op = self.vsx_dp2(pc, xt, xa, xb, 4, |a, b, t| a.mul_add(b, t));
            }
            Inst::Xvmaddasp { xt, xa, xb } => {
                op = DynOp::new(pc, OpClass::VsxFp);
                self.read_vsr_src(&mut op, xa.index());
                self.read_vsr_src(&mut op, xb.index());
                self.read_vsr_src(&mut op, xt.index());
                op.set_dst(xt);
                op.flops = 8;
                let (a, b, t) = (
                    self.vsr[xa.index() as usize],
                    self.vsr[xb.index() as usize],
                    self.vsr[xt.index() as usize],
                );
                let mut out = [0u64; 2];
                for w in 0..2 {
                    let mut word = 0u64;
                    for lane in 0..2 {
                        let fa = f32::from_bits((a[w] >> (32 * lane)) as u32);
                        let fb = f32::from_bits((b[w] >> (32 * lane)) as u32);
                        let ft = f32::from_bits((t[w] >> (32 * lane)) as u32);
                        word |= u64::from(fa.mul_add(fb, ft).to_bits()) << (32 * lane);
                    }
                    out[w] = word;
                }
                self.vsr[xt.index() as usize] = out;
            }
            Inst::Xxlxor { xt, xa, xb } => {
                op = DynOp::new(pc, OpClass::VsxSimple);
                self.read_vsr_src(&mut op, xa.index());
                self.read_vsr_src(&mut op, xb.index());
                op.set_dst(xt);
                let (a, b) = (self.vsr[xa.index() as usize], self.vsr[xb.index() as usize]);
                self.vsr[xt.index() as usize] = [a[0] ^ b[0], a[1] ^ b[1]];
            }
            Inst::Xxspltd { xt, xa, uim } => {
                op = DynOp::new(pc, OpClass::VsxSimple);
                self.read_vsr_src(&mut op, xa.index());
                op.set_dst(xt);
                let d = self.vsr[xa.index() as usize][(uim & 1) as usize];
                self.vsr[xt.index() as usize] = [d, d];
            }

            // ---- MMA ----
            Inst::Xxsetaccz { at } => {
                op = DynOp::new(pc, OpClass::MmaMove);
                op.set_dst(at);
                self.acc[at.index() as usize] = Acc::zero();
                self.acc_backing_live[at.index() as usize] = false;
            }
            Inst::Xvf64gerpp { at, xa, xb } => {
                op = self.f64_ger(pc, at, xa, xb, 1.0)?;
            }
            Inst::Xvf64gernp { at, xa, xb } => {
                op = self.f64_ger(pc, at, xa, xb, -1.0)?;
            }
            Inst::Xvf32gerpp { at, xa, xb } => {
                op = DynOp::new(pc, OpClass::Mma(MmaKind::F32));
                op.add_src(xa);
                op.add_src(xb);
                op.add_src(at);
                op.set_dst(at);
                op.flops = MmaKind::F32.ops_per_inst() as u16;
                let fa = vsr_as_f32(self.vsr[xa.index() as usize]);
                let fb = vsr_as_f32(self.vsr[xb.index() as usize]);
                let mut g = self.acc[at.index() as usize].as_f32_grid();
                for i in 0..4 {
                    for j in 0..4 {
                        g[i][j] = fa[i].mul_add(fb[j], g[i][j]);
                    }
                }
                self.acc[at.index() as usize].set_f32_grid(g);
            }
            Inst::Xvbf16ger2pp { at, xa, xb } => {
                op = DynOp::new(pc, OpClass::Mma(MmaKind::Bf16));
                op.add_src(xa);
                op.add_src(xb);
                op.add_src(at);
                op.set_dst(at);
                op.flops = MmaKind::Bf16.ops_per_inst() as u16;
                let ha = vsr_as_bf16(self.vsr[xa.index() as usize]);
                let hb = vsr_as_bf16(self.vsr[xb.index() as usize]);
                let mut g = self.acc[at.index() as usize].as_f32_grid();
                for i in 0..4 {
                    for j in 0..4 {
                        // Products and the accumulate are single precision
                        // (the bf16 inputs widen losslessly to f32).
                        g[i][j] = ha[2 * i].mul_add(hb[2 * j], g[i][j]);
                        g[i][j] = ha[2 * i + 1].mul_add(hb[2 * j + 1], g[i][j]);
                    }
                }
                self.acc[at.index() as usize].set_f32_grid(g);
            }
            Inst::Xvi8ger4pp { at, xa, xb } => {
                op = DynOp::new(pc, OpClass::Mma(MmaKind::I8));
                op.add_src(xa);
                op.add_src(xb);
                op.add_src(at);
                op.set_dst(at);
                op.flops = MmaKind::I8.ops_per_inst() as u16;
                let ba = vsr_as_i8(self.vsr[xa.index() as usize]);
                let bb = vsr_as_i8(self.vsr[xb.index() as usize]);
                let mut g = self.acc[at.index() as usize].as_i32_grid();
                for i in 0..4 {
                    for j in 0..4 {
                        let mut dot = 0i32;
                        for k in 0..4 {
                            dot = dot
                                .wrapping_add(i32::from(ba[4 * i + k]) * i32::from(bb[4 * j + k]));
                        }
                        g[i][j] = g[i][j].wrapping_add(dot);
                    }
                }
                self.acc[at.index() as usize].set_i32_grid(g);
            }
            Inst::Xxmfacc { at } => {
                op = DynOp::new(pc, OpClass::MmaMove);
                op.add_src(at);
                op.set_dst(at);
                let a = self.acc[at.index() as usize];
                for (r, row) in a.rows.iter().enumerate() {
                    self.vsr[4 * at.index() as usize + r] = *row;
                }
                self.acc_backing_live[at.index() as usize] = true;
            }
            Inst::Xxmtacc { at } => {
                op = DynOp::new(pc, OpClass::MmaMove);
                for r in 0..4 {
                    op.add_src(Reg::vsr(4 * at.index() + r));
                }
                op.set_dst(at);
                let mut a = Acc::zero();
                for (r, row) in a.rows.iter_mut().enumerate() {
                    *row = self.vsr[4 * at.index() as usize + r];
                }
                self.acc[at.index() as usize] = a;
                self.acc_backing_live[at.index() as usize] = false;
            }

            // ---- branches ----
            Inst::B { target } => {
                let t = program.resolve(target);
                op = DynOp::new(pc, OpClass::Branch);
                op.branch = Some(BranchInfo {
                    kind: BranchKind::Direct,
                    taken: true,
                    target: program.addr_of(t),
                });
                next = NextPc::Index(t);
            }
            Inst::Bc { cond, bf, target } => {
                let taken = cond.eval(self.cr[bf.index() as usize]);
                let t = program.resolve(target);
                op = DynOp::new(pc, OpClass::Branch);
                op.add_src(bf);
                op.branch = Some(BranchInfo {
                    kind: BranchKind::Conditional,
                    taken,
                    target: if taken { program.addr_of(t) } else { seq_addr },
                });
                if taken {
                    next = NextPc::Index(t);
                }
            }
            Inst::Bdnz { target } => {
                self.ctr = self.ctr.wrapping_sub(1);
                let taken = self.ctr != 0;
                let t = program.resolve(target);
                op = DynOp::new(pc, OpClass::Branch);
                op.add_src(Reg::ctr());
                op.set_dst(Reg::ctr());
                op.branch = Some(BranchInfo {
                    kind: BranchKind::Counter,
                    taken,
                    target: if taken { program.addr_of(t) } else { seq_addr },
                });
                if taken {
                    next = NextPc::Index(t);
                }
            }
            Inst::Bctr => {
                let target = self.ctr;
                op = DynOp::new(pc, OpClass::Branch);
                op.add_src(Reg::ctr());
                op.branch = Some(BranchInfo {
                    kind: BranchKind::Indirect,
                    taken: true,
                    target,
                });
                next = resolve_indirect(program, pc, target)?;
            }
            Inst::Bl { target } => {
                let t = program.resolve(target);
                self.lr = seq_addr;
                op = DynOp::new(pc, OpClass::Branch);
                op.set_dst(Reg::lr());
                op.branch = Some(BranchInfo {
                    kind: BranchKind::Call,
                    taken: true,
                    target: program.addr_of(t),
                });
                next = NextPc::Index(t);
            }
            Inst::Blr => {
                let target = self.lr;
                op = DynOp::new(pc, OpClass::Branch);
                op.add_src(Reg::lr());
                op.branch = Some(BranchInfo {
                    kind: BranchKind::Return,
                    taken: true,
                    target,
                });
                next = resolve_indirect(program, pc, target)?;
            }

            // ---- special register moves ----
            Inst::Mtctr { ra } => {
                op = DynOp::new(pc, OpClass::MoveSpr);
                op.add_src(ra);
                op.set_dst(Reg::ctr());
                self.ctr = self.gpr[ra.index() as usize];
            }
            Inst::Mtlr { ra } => {
                op = DynOp::new(pc, OpClass::MoveSpr);
                op.add_src(ra);
                op.set_dst(Reg::lr());
                self.lr = self.gpr[ra.index() as usize];
            }
            Inst::Mflr { rt } => {
                op = DynOp::new(pc, OpClass::MoveSpr);
                op.add_src(Reg::lr());
                op.set_dst(rt);
                self.gpr[rt.index() as usize] = self.lr;
            }

            Inst::Nop => {
                op = DynOp::new(pc, OpClass::Nop);
            }
            Inst::MmaWakeHint => {
                op = DynOp::new(pc, OpClass::Hint);
            }
        }

        op.prefixed = inst.is_prefixed();
        Ok((op, next))
    }

    /// Shared implementation of the double-precision `ger` forms:
    /// `acc[i][j] += sign * a[i] * b[j]`.
    fn f64_ger(
        &mut self,
        pc: u64,
        at: Reg,
        xa: Reg,
        xb: Reg,
        sign: f64,
    ) -> Result<DynOp, ExecError> {
        if !xa.index().is_multiple_of(2) {
            return Err(ExecError::OddF64GerPair { pc });
        }
        let mut op = DynOp::new(pc, OpClass::Mma(MmaKind::F64));
        op.add_src(Reg::vsr(xa.index()));
        op.add_src(Reg::vsr(xa.index() + 1));
        op.add_src(xb);
        op.add_src(at);
        op.set_dst(at);
        op.flops = MmaKind::F64.ops_per_inst() as u16;
        let lo = self.vsr[xa.index() as usize];
        let hi = self.vsr[xa.index() as usize + 1];
        let a = [
            f64::from_bits(lo[0]),
            f64::from_bits(lo[1]),
            f64::from_bits(hi[0]),
            f64::from_bits(hi[1]),
        ];
        let bw = self.vsr[xb.index() as usize];
        let b = [f64::from_bits(bw[0]), f64::from_bits(bw[1])];
        let mut g = self.acc[at.index() as usize].as_f64_grid();
        for i in 0..4 {
            for j in 0..2 {
                g[i][j] = (sign * a[i]).mul_add(b[j], g[i][j]);
            }
        }
        self.acc[at.index() as usize].set_f64_grid(g);
        Ok(op)
    }

    /// Shared implementation of 2-lane double-precision VSX arithmetic.
    fn vsx_dp2(
        &mut self,
        pc: u64,
        xt: Reg,
        xa: Reg,
        xb: Reg,
        flops: u16,
        f: impl Fn(f64, f64, f64) -> f64,
    ) -> DynOp {
        let mut op = DynOp::new(pc, OpClass::VsxFp);
        self.read_vsr_src(&mut op, xa.index());
        self.read_vsr_src(&mut op, xb.index());
        if flops == 4 {
            // FMA reads the target as the addend.
            self.read_vsr_src(&mut op, xt.index());
        }
        op.set_dst(xt);
        op.flops = flops;
        let (a, b, t) = (
            self.vsr[xa.index() as usize],
            self.vsr[xb.index() as usize],
            self.vsr[xt.index() as usize],
        );
        let mut out = [0u64; 2];
        for lane in 0..2 {
            let r = f(
                f64::from_bits(a[lane]),
                f64::from_bits(b[lane]),
                f64::from_bits(t[lane]),
            );
            out[lane] = r.to_bits();
        }
        self.vsr[xt.index() as usize] = out;
        op
    }
}

fn vsr_as_f32(w: [u64; 2]) -> [f32; 4] {
    [
        f32::from_bits(w[0] as u32),
        f32::from_bits((w[0] >> 32) as u32),
        f32::from_bits(w[1] as u32),
        f32::from_bits((w[1] >> 32) as u32),
    ]
}

/// Widens a bf16 value (high 16 bits of an f32) to f32. Exact: bf16 is a
/// truncated f32.
#[must_use]
pub fn bf16_to_f32(bits: u16) -> f32 {
    f32::from_bits(u32::from(bits) << 16)
}

/// Narrows an f32 to bf16 with round-to-nearest-even on the discarded
/// 16 bits (the conversion AI frameworks use when writing bf16 tensors).
#[must_use]
pub fn f32_to_bf16(v: f32) -> u16 {
    let bits = v.to_bits();
    if v.is_nan() {
        // Preserve NaN; force a quiet payload bit so truncation cannot
        // produce an infinity.
        return ((bits >> 16) | 0x0040) as u16;
    }
    let round_bit = 0x8000u32;
    let lsb = (bits >> 16) & 1;
    ((bits + (round_bit - 1) + lsb) >> 16) as u16
}

fn vsr_as_bf16(w: [u64; 2]) -> [f32; 8] {
    let mut out = [0f32; 8];
    for (i, o) in out.iter_mut().enumerate() {
        let word = w[i / 4];
        *o = bf16_to_f32((word >> (16 * (i % 4))) as u16);
    }
    out
}

fn vsr_as_i8(w: [u64; 2]) -> [i8; 16] {
    let mut out = [0i8; 16];
    for (i, o) in out.iter_mut().enumerate() {
        let word = w[i / 8];
        *o = (word >> (8 * (i % 8))) as u8 as i8;
    }
    out
}

fn resolve_indirect(program: &Program, pc: u64, target: u64) -> Result<NextPc, ExecError> {
    if target == HALT_ADDR {
        return Ok(NextPc::Halt);
    }
    match program.index_of(target) {
        Some(i) => Ok(NextPc::Index(i)),
        None => Err(ExecError::InvalidBranchTarget { pc, target }),
    }
}

#[derive(Debug, Clone, Copy)]
enum NextPc {
    Seq,
    Index(usize),
    Halt,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn run(b: ProgramBuilder) -> (Machine, TraceView) {
        let p = b.build();
        let mut m = Machine::new();
        let t = m.run(&p, 100_000).expect("program must execute");
        (m, t)
    }

    #[test]
    fn arithmetic_basics() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 7);
        b.li(Reg::gpr(2), 5);
        b.add(Reg::gpr(3), Reg::gpr(1), Reg::gpr(2));
        b.sub(Reg::gpr(4), Reg::gpr(1), Reg::gpr(2));
        b.mulld(Reg::gpr(5), Reg::gpr(1), Reg::gpr(2));
        b.push(Inst::Divd {
            rt: Reg::gpr(6),
            ra: Reg::gpr(1),
            rb: Reg::gpr(2),
        });
        let (m, t) = run(b);
        assert_eq!(m.gpr(3), 12);
        assert_eq!(m.gpr(4), 2);
        assert_eq!(m.gpr(5), 35);
        assert_eq!(m.gpr(6), 1);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn divide_by_zero_defined_as_zero() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 7);
        b.li(Reg::gpr(2), 0);
        b.push(Inst::Divd {
            rt: Reg::gpr(3),
            ra: Reg::gpr(1),
            rb: Reg::gpr(2),
        });
        let (m, _) = run(b);
        assert_eq!(m.gpr(3), 0);
    }

    #[test]
    fn ctr_loop_and_branch_outcomes() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(3), 0);
        b.li(Reg::gpr(4), 4);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.addi(Reg::gpr(3), Reg::gpr(3), 1);
        b.bdnz(top);
        let (m, t) = run(b);
        assert_eq!(m.gpr(3), 4);
        let branches: Vec<_> = t.iter().filter_map(|o| o.branch).collect();
        assert_eq!(branches.len(), 4);
        assert!(branches[..3].iter().all(|b| b.taken));
        assert!(!branches[3].taken);
    }

    #[test]
    fn memory_roundtrip_through_loads_stores() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x8000);
        b.li(Reg::gpr(2), 0x1234_5678);
        b.std(Reg::gpr(2), Reg::gpr(1), 16);
        b.ld(Reg::gpr(3), Reg::gpr(1), 16);
        let (m, t) = run(b);
        assert_eq!(m.gpr(3), 0x1234_5678);
        let loads: Vec<_> = t.iter().filter(|o| o.is_load()).collect();
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].mem.unwrap().addr, 0x8010);
    }

    #[test]
    fn stdu_updates_base() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x9000);
        b.li(Reg::gpr(2), 42);
        b.push(Inst::Stdu {
            rs: Reg::gpr(2),
            ra: Reg::gpr(1),
            disp: -32,
        });
        let (m, _) = run(b);
        assert_eq!(m.gpr(1), 0x9000 - 32);
        assert_eq!(m.mem.read_u64(0x9000 - 32), 42);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new();
        let func = b.label();
        b.push(Inst::Mflr { rt: Reg::gpr(10) }); // save HALT_ADDR
        b.bl(func);
        b.li(Reg::gpr(4), 9); // executed after return
        b.push(Inst::Mtlr { ra: Reg::gpr(10) });
        b.blr(); // top-level return halts (lr == HALT_ADDR)
        b.bind(func);
        b.li(Reg::gpr(3), 8);
        b.blr();
        let (m, t) = run(b);
        assert_eq!(m.gpr(3), 8);
        assert_eq!(m.gpr(4), 9);
        let kinds: Vec<_> = t.iter().filter_map(|o| o.branch.map(|b| b.kind)).collect();
        assert_eq!(
            kinds,
            vec![BranchKind::Call, BranchKind::Return, BranchKind::Return]
        );
    }

    #[test]
    fn bctr_to_invalid_target_is_error() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x3); // misaligned / out of program
        b.mtctr(Reg::gpr(1));
        b.push(Inst::Bctr);
        let p = b.build();
        let mut m = Machine::new();
        assert!(matches!(
            m.run(&p, 100),
            Err(ExecError::InvalidBranchTarget { .. })
        ));
    }

    #[test]
    fn vsx_fma_computes_2_lanes() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x8000);
        b.lxv(Reg::vsr(34), Reg::gpr(1), 0);
        b.lxv(Reg::vsr(35), Reg::gpr(1), 16);
        b.push(Inst::Xxlxor {
            xt: Reg::vsr(36),
            xa: Reg::vsr(36),
            xb: Reg::vsr(36),
        });
        b.push(Inst::Xvmaddadp {
            xt: Reg::vsr(36),
            xa: Reg::vsr(34),
            xb: Reg::vsr(35),
        });
        let p = b.build();
        let mut m = Machine::new();
        m.mem.write_f64(0x8000, 2.0);
        m.mem.write_f64(0x8008, 3.0);
        m.mem.write_f64(0x8010, 10.0);
        m.mem.write_f64(0x8018, 100.0);
        let t = m.run(&p, 100).unwrap();
        let r = m.vsr(36);
        assert_eq!(f64::from_bits(r[0]), 20.0);
        assert_eq!(f64::from_bits(r[1]), 300.0);
        assert_eq!(t.total_flops(), 4);
    }

    #[test]
    fn mma_f32_outer_product_matches_reference() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x8000);
        b.lxv(Reg::vsr(34), Reg::gpr(1), 0);
        b.lxv(Reg::vsr(35), Reg::gpr(1), 16);
        b.push(Inst::Xxsetaccz { at: Reg::acc(0) });
        b.push(Inst::Xvf32gerpp {
            at: Reg::acc(0),
            xa: Reg::vsr(34),
            xb: Reg::vsr(35),
        });
        b.push(Inst::Xvf32gerpp {
            at: Reg::acc(0),
            xa: Reg::vsr(34),
            xb: Reg::vsr(35),
        });
        let p = b.build();
        let mut m = Machine::new();
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let bv = [10.0f32, 20.0, 30.0, 40.0];
        for i in 0..4 {
            m.mem.write_f32(0x8000 + 4 * i as u64, a[i]);
            m.mem.write_f32(0x8010 + 4 * i as u64, bv[i]);
        }
        m.run(&p, 100).unwrap();
        let g = m.acc(0).as_f32_grid();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(g[i][j], 2.0 * a[i] * bv[j], "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn mma_bf16_rank2_matches_reference() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x8000);
        b.lxv(Reg::vsr(34), Reg::gpr(1), 0);
        b.lxv(Reg::vsr(35), Reg::gpr(1), 16);
        b.push(Inst::Xxsetaccz { at: Reg::acc(2) });
        b.push(Inst::Xvbf16ger2pp {
            at: Reg::acc(2),
            xa: Reg::vsr(34),
            xb: Reg::vsr(35),
        });
        let p = b.build();
        let mut m = Machine::new();
        // Powers of two and small sums of them are exact in bf16.
        let a = [1.0f32, -2.0, 0.5, 4.0, 3.0, -0.25, 8.0, 1.5];
        let bv = [2.0f32, 0.5, -1.0, 4.0, 0.75, 16.0, -0.5, 2.5];
        for i in 0..8 {
            let ha = f32_to_bf16(a[i]);
            let hb = f32_to_bf16(bv[i]);
            m.mem.write_bytes(0x8000 + 2 * i as u64, &ha.to_le_bytes());
            m.mem.write_bytes(0x8010 + 2 * i as u64, &hb.to_le_bytes());
        }
        let t = m.run(&p, 100).unwrap();
        let g = m.acc(2).as_f32_grid();
        for i in 0..4 {
            for j in 0..4 {
                // 2-deep dot: a-row i = {a[2i], a[2i+1]}, b-row j likewise.
                let want = a[2 * i] * bv[2 * j] + a[2 * i + 1] * bv[2 * j + 1];
                assert_eq!(g[i][j], want, "mismatch at ({i},{j})");
            }
        }
        // One xvbf16ger2pp = 32 MACs = 64 flops.
        assert_eq!(t.total_flops(), 64);
    }

    #[test]
    fn bf16_conversion_round_trips_and_rounds_to_even() {
        // Values representable in bf16 round-trip exactly.
        for v in [
            0.0f32,
            1.0,
            -2.5,
            0.15625,
            2.0f32.powi(100),
            -(2.0f32.powi(-100)),
        ] {
            assert_eq!(bf16_to_f32(f32_to_bf16(v)), v, "round-trip {v}");
        }
        // 1.0 + 2^-8 is exactly halfway between two bf16 values; RNE picks
        // the even mantissa (1.0).
        let halfway = f32::from_bits(0x3F80_8000);
        assert_eq!(bf16_to_f32(f32_to_bf16(halfway)), 1.0);
        // Just above halfway rounds up to the next bf16 step (1 + 2^-7).
        let above = f32::from_bits(0x3F80_8001);
        assert_eq!(bf16_to_f32(f32_to_bf16(above)), 1.0 + 1.0 / 128.0);
        // NaN stays NaN, never becomes an infinity.
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
        // Infinities pass through.
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
    }

    #[test]
    fn mma_f64_pair_must_be_even() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Xvf64gerpp {
            at: Reg::acc(0),
            xa: Reg::vsr(33),
            xb: Reg::vsr(40),
        });
        let p = b.build();
        let mut m = Machine::new();
        assert!(matches!(
            m.run(&p, 10),
            Err(ExecError::OddF64GerPair { .. })
        ));
    }

    #[test]
    fn mma_f64_outer_product() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x8000);
        b.lxv(Reg::vsr(34), Reg::gpr(1), 0);
        b.lxv(Reg::vsr(35), Reg::gpr(1), 16);
        b.lxv(Reg::vsr(36), Reg::gpr(1), 32);
        b.push(Inst::Xxsetaccz { at: Reg::acc(1) });
        b.push(Inst::Xvf64gerpp {
            at: Reg::acc(1),
            xa: Reg::vsr(34),
            xb: Reg::vsr(36),
        });
        let p = b.build();
        let mut m = Machine::new();
        let a = [1.5f64, -2.0, 3.0, 0.5];
        let bv = [4.0f64, -8.0];
        for (i, v) in a.iter().enumerate() {
            m.mem.write_f64(0x8000 + 8 * i as u64, *v);
        }
        m.mem.write_f64(0x8020, bv[0]);
        m.mem.write_f64(0x8028, bv[1]);
        m.run(&p, 100).unwrap();
        let g = m.acc(1).as_f64_grid();
        for i in 0..4 {
            for j in 0..2 {
                assert_eq!(g[i][j], a[i] * bv[j]);
            }
        }
    }

    #[test]
    fn mma_i8_rank4_dot() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x8000);
        b.lxv(Reg::vsr(34), Reg::gpr(1), 0);
        b.lxv(Reg::vsr(35), Reg::gpr(1), 16);
        b.push(Inst::Xxsetaccz { at: Reg::acc(2) });
        b.push(Inst::Xvi8ger4pp {
            at: Reg::acc(2),
            xa: Reg::vsr(34),
            xb: Reg::vsr(35),
        });
        let p = b.build();
        let mut m = Machine::new();
        let av: [i8; 16] = [1, 2, 3, 4, -1, -2, -3, -4, 5, 5, 5, 5, 0, 0, 0, 1];
        let bv: [i8; 16] = [2, 2, 2, 2, 1, 0, 1, 0, -3, 3, -3, 3, 7, 7, 7, 7];
        for i in 0..16 {
            m.mem.write_u8(0x8000 + i as u64, av[i] as u8);
            m.mem.write_u8(0x8010 + i as u64, bv[i] as u8);
        }
        m.run(&p, 100).unwrap();
        let g = m.acc(2).as_i32_grid();
        for i in 0..4 {
            for j in 0..4 {
                let mut expect = 0i32;
                for k in 0..4 {
                    expect += i32::from(av[4 * i + k]) * i32::from(bv[4 * j + k]);
                }
                assert_eq!(g[i][j], expect, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn xxmfacc_moves_to_backing_vsrs_and_adds_dependence() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Xxsetaccz { at: Reg::acc(0) });
        b.push(Inst::Xxmfacc { at: Reg::acc(0) });
        b.li(Reg::gpr(1), 0x8000);
        b.stxv(Reg::vsr(2), Reg::gpr(1), 0); // vs2 backs acc0
        let p = b.build();
        let mut m = Machine::new();
        m.set_vsr(2, [0xdead, 0xbeef]); // stale value, must be overwritten
        let t = m.run(&p, 100).unwrap();
        assert_eq!(m.vsr(2), [0, 0]);
        // The store must carry an acc0 dependence.
        let store = t.iter().find(|o| o.is_store()).unwrap();
        assert!(store.sources().any(|r| r == Reg::acc(0)));
    }

    #[test]
    fn xxmtacc_primes_from_backing_vsrs() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Xxmtacc { at: Reg::acc(1) });
        let p = b.build();
        let mut m = Machine::new();
        for r in 0..4u16 {
            m.set_vsr(4 + r, [u64::from(r) + 1, 0]);
        }
        m.run(&p, 10).unwrap();
        assert_eq!(m.acc(1).rows[0], [1, 0]);
        assert_eq!(m.acc(1).rows[3], [4, 0]);
    }

    #[test]
    fn lxvp_loads_32_bytes_into_pair() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x8000);
        b.push(Inst::Lxvp {
            xt: Reg::vsr(40),
            ra: Reg::gpr(1),
            disp: 0,
        });
        let p = b.build();
        let mut m = Machine::new();
        m.mem.write_u64(0x8000, 1);
        m.mem.write_u64(0x8008, 2);
        m.mem.write_u64(0x8010, 3);
        m.mem.write_u64(0x8018, 4);
        let t = m.run(&p, 10).unwrap();
        assert_eq!(m.vsr(40), [1, 2]);
        assert_eq!(m.vsr(41), [3, 4]);
        let ld = t.iter().find(|o| o.is_load()).unwrap();
        assert_eq!(ld.mem.unwrap().size, 32);
        assert_eq!(ld.dest2(), Some(Reg::vsr(41)));
    }

    #[test]
    fn max_ops_stops_endless_loop() {
        let mut b = ProgramBuilder::new();
        let top = b.bind_label();
        b.addi(Reg::gpr(1), Reg::gpr(1), 1);
        b.b(top);
        let p = b.build();
        let mut m = Machine::new();
        let t = m.run(&p, 1000).unwrap();
        assert_eq!(t.len(), 1000);
        assert_eq!(m.executed(), 1000);
    }

    #[test]
    fn run_views_exactly_the_ops_run_with_emits() {
        // Loads and stores at moving addresses, and a counted branch
        // taken on all but its last execution.
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x8000);
        b.li(Reg::gpr(4), 50);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.ld(Reg::gpr(3), Reg::gpr(1), 0);
        b.std(Reg::gpr(3), Reg::gpr(1), 8);
        b.addi(Reg::gpr(1), Reg::gpr(1), 16);
        b.bdnz(top);
        let p = b.build();
        let mut emitted = Vec::new();
        let mut reference = Machine::new();
        reference
            .run_with(&p, 1_000, |op| emitted.push(op))
            .unwrap();
        let mut m = Machine::new();
        let view = m.run(&p, 1_000).unwrap();
        assert_eq!(view.len(), 203);
        assert!(view.iter().eq(emitted));
        assert_eq!(m.executed(), reference.executed());

        // A fault surfaces from `run` as the error `run_with` returns.
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x3);
        b.mtctr(Reg::gpr(1));
        b.push(Inst::Bctr);
        let p = b.build();
        let want = Machine::new().run_with(&p, 100, |_| {}).unwrap_err();
        assert_eq!(Machine::new().run(&p, 100).unwrap_err(), want);
    }
}
