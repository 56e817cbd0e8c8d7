//! # p10-uarch
//!
//! A cycle-level, trace-driven, out-of-order SMT core model configurable
//! between POWER9-like and POWER10-like micro-architectures — the
//! simulation substrate for the `p10sim` reproduction of the ISCA 2021
//! POWER10 energy-efficiency paper.
//!
//! The modeled core is the paper's SMT4-equivalent half of an SMT8 core
//! (Fig. 3). Every mechanism the paper credits for the POWER10 efficiency
//! gain is an explicit configuration switch:
//!
//! * branch-prediction resources and the new long-history/indirect
//!   predictors ([`BranchConfig`]),
//! * decode width 6→8 with instruction pairing and >200-pair fusion,
//! * removal of reservation stations in favour of the unified sliced
//!   register file,
//! * EA-tagged L1 caches (translation only on miss),
//! * doubled VSX units and load/store bandwidth (32-byte accesses),
//! * 4× L2, 4× TLB, deeper queues and instruction window,
//! * the inline MMA accelerator (4×4 grid, eight 512-bit accumulators).
//!
//! Simulation produces an [`Activity`] record — the per-unit event counts
//! that the `p10-power` component power model converts into energy.
//!
//! ## Example
//!
//! ```
//! use p10_isa::{Machine, ProgramBuilder, Reg};
//! use p10_uarch::{Core, CoreConfig};
//!
//! // A tiny counted loop, functionally executed into a trace...
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::gpr(4), 100);
//! b.mtctr(Reg::gpr(4));
//! let top = b.bind_label();
//! b.addi(Reg::gpr(3), Reg::gpr(3), 1);
//! b.bdnz(top);
//! let prog = b.build();
//! let trace = p10_isa::Machine::new().run(&prog, 10_000).unwrap();
//!
//! // ...then replayed through the POWER10 timing model.
//! let result = Core::new(CoreConfig::power10()).run(vec![trace], 100_000);
//! assert!(result.ipc() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
pub mod cache;
mod config;
mod pipeline;
pub mod record;
mod stats;
mod tlb;
pub mod warm;
mod wire;

pub use branch::{BranchPredictor, Prediction};
pub use cache::{Cache, HitLevel, MemHierarchy, StreamPrefetcher};
pub use config::{
    AblationGroup, BranchConfig, CacheConfig, CoreConfig, FetchPolicy, MmaConfig, Scheduler,
    SmtMode,
};
pub use pipeline::{Core, CoreWork, SpanObserver};
pub use record::{ActivityRecorder, ActivityTrace};
pub use stats::{Activity, CycleAttribution, SimResult};
pub use tlb::{Mmu, TranslateSide};
pub use warm::{FunctionalWarmer, WarmState};
