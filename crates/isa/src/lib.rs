//! # p10-isa
//!
//! A POWER-like instruction set architecture used throughout the `p10sim`
//! reproduction of the ISCA 2021 paper *Energy Efficiency Boost in the
//! AI-Infused POWER10 Processor*.
//!
//! The crate provides four layers:
//!
//! 1. **Static instructions** ([`Inst`]) — a compact, typed subset of the
//!    Power ISA v3.1 that covers what the paper's workloads exercise: scalar
//!    integer arithmetic, branches (conditional, counter-based, indirect),
//!    loads/stores (1–32 bytes, including the new paired 32-byte vector
//!    forms), 128-bit VSX SIMD arithmetic, and the Matrix-Multiply Assist
//!    (MMA) outer-product facility with its eight 512-bit accumulators.
//! 2. **Programs** ([`Program`], [`ProgramBuilder`]) — label-resolved
//!    instruction sequences, the unit that workload generators produce and
//!    the functional machine executes.
//! 3. **Functional execution** ([`Machine`]) — an architectural simulator
//!    with full register and (sparse) memory state. Running a program
//!    ([`Machine::run`]) yields its dynamic-operation trace as a
//!    [`TraceView`].
//! 4. **Dynamic operations** ([`DynOp`]) — the resolved per-instruction
//!    records (operand registers, memory addresses, branch outcomes, flop
//!    counts) that the cycle-level model in `p10-uarch` consumes. This is the
//!    classic trace-driven split: functional correctness here, timing there.
//!    A trace is stored compactly ([`TraceBuilder`], [`TraceView`]): one
//!    8-byte record per op over a table of interned static parts; there is
//!    no other trace type.
//!
//! Instruction **fusion** legality (the paper reports >200 fusible pair
//! types detected at pre-decode) is defined at the ISA level in [`fusion`]
//! so that the decode model and the tests share one source of truth.
//!
//! ## Example
//!
//! ```
//! use p10_isa::{ProgramBuilder, Machine, Reg};
//!
//! // sum the integers 1..=10 in r3, using a count-down loop on CTR
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::gpr(3), 0);
//! b.li(Reg::gpr(4), 10);
//! b.mtctr(Reg::gpr(4));
//! let top = b.bind_label();
//! b.add(Reg::gpr(3), Reg::gpr(3), Reg::gpr(4));
//! b.addi(Reg::gpr(4), Reg::gpr(4), -1);
//! b.bdnz(top);
//! let prog = b.build();
//!
//! let mut m = Machine::new();
//! let trace = m.run(&prog, 1_000).unwrap();
//! assert_eq!(m.gpr(3), 55);
//! assert!(trace.len() > 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod dynop;
mod exec;
mod fnv;
pub mod fusion;
mod inst;
mod mem;
mod program;
mod reg;
mod view;

pub use dynop::{BranchInfo, BranchKind, DynOp, MemRef, MmaKind, OpClass, MAX_SRCS};
pub use exec::{bf16_to_f32, f32_to_bf16, ExecError, Machine, HALT_ADDR};
pub use fnv::{fnv1a64, Fnv1aHasher};
pub use inst::{Cond, Inst};
pub use mem::SparseMemory;
pub use program::{Label, Program, ProgramBuilder, ProgramError, CODE_BASE};
pub use reg::{Acc, Reg, RegClass, ARCH_REG_COUNT};
pub use view::{TraceBuilder, TraceView};
