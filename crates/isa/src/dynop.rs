//! Dynamic operations: the trace records consumed by the timing model.
//!
//! A [`DynOp`] is one executed instruction with all dynamic information
//! resolved: source/destination registers (packed), memory address and size,
//! branch outcome and target, and the work it represents (flops / MACs).
//! The cycle-level model in `p10-uarch` replays these without re-executing
//! semantics.

use crate::reg::Reg;
use serde::{Deserialize, Serialize};

/// Maximum number of register sources carried per dynamic op.
pub const MAX_SRCS: usize = 4;

/// Execution-resource class of a dynamic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Simple integer ALU op (1-cycle class).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (long latency, unpipelined).
    IntDiv,
    /// Any branch (details in [`DynOp::branch`]).
    Branch,
    /// Memory load (details in [`DynOp::mem`]).
    Load,
    /// Memory store (details in [`DynOp::mem`]).
    Store,
    /// VSX simple (logical/permute/splat) op.
    VsxSimple,
    /// VSX floating-point arithmetic (add/mul/FMA); flops in
    /// [`DynOp::flops`].
    VsxFp,
    /// MMA outer-product op executing on the accelerator grid.
    Mma(MmaKind),
    /// MMA accumulator move / prime / zero.
    MmaMove,
    /// Move to/from special register (CTR/LR).
    MoveSpr,
    /// No-op (still fetched/decoded/completed).
    Nop,
    /// Hint (e.g. MMA wake): consumes front-end slots only.
    Hint,
}

/// Data type executed by an MMA outer-product instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MmaKind {
    /// Double-precision `ger` (4×2 grid, 16 flops per op).
    F64,
    /// Single-precision `ger` (4×4 grid, 32 flops per op).
    F32,
    /// Bfloat16 rank-2 `ger` (4×4 grid of f32, 32 MACs per op).
    Bf16,
    /// INT8 rank-4 `ger` (4×4 grid, 64 MACs per op).
    I8,
}

impl MmaKind {
    /// Floating-point operations (or MAC-equivalents for INT8) performed by
    /// one instruction of this kind.
    #[must_use]
    pub fn ops_per_inst(self) -> u32 {
        match self {
            MmaKind::F64 => 16,
            MmaKind::F32 => 32,
            MmaKind::Bf16 => 64, // 32 MACs = 64 flops
            MmaKind::I8 => 128,  // 64 MACs = 128 int ops
        }
    }
}

/// Kind of branch, for predictor modeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchKind {
    /// Unconditional direct branch.
    Direct,
    /// Conditional direct branch.
    Conditional,
    /// Counter-based loop branch (`bdnz`).
    Counter,
    /// Indirect branch through CTR.
    Indirect,
    /// Call (`bl`): pushes a return address.
    Call,
    /// Return (`blr`): indirect through LR, predictable via a return stack.
    Return,
}

/// Resolved outcome of a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Branch kind.
    pub kind: BranchKind,
    /// Whether the branch was taken.
    pub taken: bool,
    /// The address of the next instruction actually executed.
    pub target: u64,
}

/// Resolved memory access of a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRef {
    /// Effective (virtual) byte address.
    pub addr: u64,
    /// Access size in bytes (1–32).
    pub size: u8,
}

/// One executed instruction with dynamic information resolved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynOp {
    /// Instruction address.
    pub pc: u64,
    /// Resource class.
    pub class: OpClass,
    /// Packed source registers (0 = empty slot); see [`Reg::packed`].
    pub srcs: [u16; MAX_SRCS],
    /// Packed destination register (0 = none).
    pub dst: u16,
    /// Packed second destination register (0 = none) — used by update-form
    /// memory ops and paired (32-byte) vector loads.
    pub dst2: u16,
    /// Memory access, for loads/stores.
    pub mem: Option<MemRef>,
    /// Branch outcome, for branches.
    pub branch: Option<BranchInfo>,
    /// Floating-point (or int-MAC-equivalent) operations this op performs.
    pub flops: u16,
    /// Whether the static instruction used the prefixed (8-byte) encoding.
    pub prefixed: bool,
}

impl DynOp {
    /// A blank op of the given class at `pc` (no operands).
    #[must_use]
    pub fn new(pc: u64, class: OpClass) -> Self {
        DynOp {
            pc,
            class,
            srcs: [0; MAX_SRCS],
            dst: 0,
            dst2: 0,
            mem: None,
            branch: None,
            flops: 0,
            prefixed: false,
        }
    }

    /// Adds a source register (ignores duplicates and full slots are a
    /// logic error caught by `debug_assert`).
    pub fn add_src(&mut self, r: Reg) {
        let p = r.packed();
        for s in &mut self.srcs {
            if *s == p {
                return;
            }
            if *s == 0 {
                *s = p;
                return;
            }
        }
        debug_assert!(false, "more than {MAX_SRCS} sources on one op");
    }

    /// Sets the destination register.
    pub fn set_dst(&mut self, r: Reg) {
        self.dst = r.packed();
    }

    /// Sets the second destination register.
    pub fn set_dst2(&mut self, r: Reg) {
        self.dst2 = r.packed();
    }

    /// Iterator over the populated source registers.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().filter_map(|&p| Reg::from_packed(p))
    }

    /// The destination register, if any.
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        Reg::from_packed(self.dst)
    }

    /// The second destination register, if any.
    #[must_use]
    pub fn dest2(&self) -> Option<Reg> {
        Reg::from_packed(self.dst2)
    }

    /// Whether this op is a load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.class == OpClass::Load
    }

    /// Whether this op is a store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.class == OpClass::Store
    }

    /// Whether this op is a branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        self.class == OpClass::Branch
    }

    /// Whether this op executes on the MMA grid.
    #[must_use]
    pub fn is_mma_compute(&self) -> bool {
        matches!(self.class, OpClass::Mma(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_src_dedups_and_fills_slots() {
        let mut op = DynOp::new(0, OpClass::IntAlu);
        op.add_src(Reg::gpr(1));
        op.add_src(Reg::gpr(1));
        op.add_src(Reg::gpr(2));
        let srcs: Vec<_> = op.sources().collect();
        assert_eq!(srcs, vec![Reg::gpr(1), Reg::gpr(2)]);
    }

    #[test]
    fn dst_accessors() {
        let mut op = DynOp::new(0, OpClass::Load);
        assert_eq!(op.dest(), None);
        op.set_dst(Reg::gpr(3));
        op.set_dst2(Reg::gpr(4));
        assert_eq!(op.dest(), Some(Reg::gpr(3)));
        assert_eq!(op.dest2(), Some(Reg::gpr(4)));
    }

    #[test]
    fn class_predicates() {
        assert!(DynOp::new(0, OpClass::Load).is_load());
        assert!(DynOp::new(0, OpClass::Store).is_store());
        assert!(DynOp::new(0, OpClass::Branch).is_branch());
        assert!(DynOp::new(0, OpClass::Mma(MmaKind::F32)).is_mma_compute());
        assert!(!DynOp::new(0, OpClass::MmaMove).is_mma_compute());
    }

    #[test]
    fn mma_ops_per_inst() {
        assert_eq!(MmaKind::F64.ops_per_inst(), 16);
        assert_eq!(MmaKind::F32.ops_per_inst(), 32);
        assert_eq!(MmaKind::Bf16.ops_per_inst(), 64);
        assert_eq!(MmaKind::I8.ops_per_inst(), 128);
    }
}
