//! A runnable workload: program, pre-initialized memory, and metadata.
//!
//! Its trace is a [`TraceView`], executed by [`Machine::run`] and served
//! through the process-wide arena ([`Workload::trace_view`]), or
//! executed outside it ([`Workload::trace_uncached`]).

use crate::arena::TraceSource;
use p10_isa::{ExecError, Fnv1aHasher, Machine, Program, TraceView};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// A named span of instructions forming a "function" of the workload
/// (used by the Chopstix-style proxy extractor).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionSpan {
    /// Function name.
    pub name: String,
    /// First instruction index (inclusive).
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
}

impl FunctionSpan {
    /// Whether an instruction index falls inside this function.
    #[must_use]
    pub fn contains(&self, idx: usize) -> bool {
        (self.start..self.end).contains(&idx)
    }
}

/// A fully prepared workload.
///
/// Workloads are immutable once built: trace synthesis is memoized
/// process-wide behind [`Workload::content_hash`] (see [`crate::arena`]),
/// so mutating the program or machine after the first trace request is
/// unsupported. A workload's memory image can be megabytes, so a trace
/// of a generator workload is best requested through its generator
/// ([`crate::Benchmark::trace_view_or_panic`]), which builds the
/// workload only to synthesize the trace.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (e.g. `"mcfish"`).
    pub name: String,
    /// The program.
    pub program: Program,
    /// The machine with memory pre-initialized (registers reset).
    pub machine: Machine,
    /// Function spans for hot-function analysis (may be empty).
    pub functions: Vec<FunctionSpan>,
    /// Lazily computed content hash (the arena key).
    fingerprint: OnceLock<u64>,
}

impl Workload {
    /// Assembles a workload from its parts.
    #[must_use]
    pub fn new(
        name: String,
        program: Program,
        machine: Machine,
        functions: Vec<FunctionSpan>,
    ) -> Self {
        Workload {
            name,
            program,
            machine,
            functions,
            fingerprint: OnceLock::new(),
        }
    }

    /// A stable FNV-1a digest of the full workload content — name,
    /// program, pre-initialized machine state (including the memory
    /// image), and function spans. Two workloads with equal hashes
    /// produce identical traces; this keys the process-wide trace arena.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = Fnv1aHasher::new();
            self.name.hash(&mut h);
            self.program.hash(&mut h);
            self.machine.hash(&mut h);
            for f in &self.functions {
                f.name.hash(&mut h);
                f.start.hash(&mut h);
                f.end.hash(&mut h);
            }
            h.finish()
        })
    }

    /// Functionally executes the workload for up to `max_ops` dynamic
    /// instructions on a copy of its machine ([`Machine::run`]), bypassing
    /// the arena — the synthesis the arena memoizes.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors.
    pub fn trace_uncached(&self, max_ops: u64) -> Result<TraceView, ExecError> {
        self.machine.clone().run(&self.program, max_ops)
    }

    /// A zero-copy view of the first `max_ops` executed ops, served from
    /// the process-wide trace arena: the first request for this workload
    /// synthesizes, every later request (equal, shorter, or stagger-offset
    /// slices of it) is range arithmetic on the shared buffer.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors.
    pub fn trace_view(&self, max_ops: u64) -> Result<TraceView, ExecError> {
        crate::arena::global()
            .view_or_synth(self.content_hash(), max_ops, |cap| self.trace_uncached(cap))
    }

    /// Like [`Workload::trace_view`] but panics on error, for generator
    /// code paths where failure is a bug.
    ///
    /// # Panics
    ///
    /// Panics if functional execution fails.
    #[must_use]
    pub fn trace_view_or_panic(&self, max_ops: u64) -> TraceView {
        self.trace_view(max_ops)
            .unwrap_or_else(|e| panic!("workload {} failed to execute: {e}", self.name))
    }
}

impl TraceSource for Workload {
    fn content_key(&self) -> u64 {
        self.content_hash()
    }

    /// Executes on the workload's own machine: no copy of the memory
    /// image is made, and the image is freed with the workload.
    fn into_trace(self, cap: u64) -> Result<TraceView, ExecError> {
        let mut machine = self.machine;
        machine.run(&self.program, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_isa::{ProgramBuilder, Reg};

    #[test]
    fn function_span_contains() {
        let f = FunctionSpan {
            name: "f".into(),
            start: 4,
            end: 8,
        };
        assert!(!f.contains(3));
        assert!(f.contains(4));
        assert!(f.contains(7));
        assert!(!f.contains(8));
    }

    #[test]
    fn trace_replays_from_pristine_machine() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(3), 1);
        b.addi(Reg::gpr(3), Reg::gpr(3), 2);
        let w = Workload::new("t".into(), b.build(), Machine::new(), vec![]);
        let t1 = w.trace_uncached(100).unwrap();
        let t2 = w.trace_uncached(100).unwrap();
        assert_eq!(t1.len(), 2);
        assert!(!t1.shares_storage(&t2));
        assert_eq!(t1, t2, "tracing must be repeatable");
    }

    #[test]
    fn content_hash_keys_on_every_part() {
        let build = |imm: i64, name: &str, mem_val: Option<u64>| {
            let mut b = ProgramBuilder::new();
            b.li(Reg::gpr(3), imm);
            let mut m = Machine::new();
            if let Some(v) = mem_val {
                m.mem.write_u64(0x1000, v);
            }
            Workload::new(name.into(), b.build(), m, vec![])
        };
        let base = build(1, "w", None);
        assert_eq!(base.content_hash(), build(1, "w", None).content_hash());
        assert_ne!(base.content_hash(), build(2, "w", None).content_hash());
        assert_ne!(base.content_hash(), build(1, "x", None).content_hash());
        assert_ne!(base.content_hash(), build(1, "w", Some(7)).content_hash());
        // Function spans are part of the key too.
        let mut spanned = build(1, "w", None);
        spanned.functions.push(FunctionSpan {
            name: "f".into(),
            start: 0,
            end: 1,
        });
        let spanned = Workload::new(
            spanned.name.clone(),
            spanned.program.clone(),
            spanned.machine.clone(),
            spanned.functions.clone(),
        );
        assert_ne!(base.content_hash(), spanned.content_hash());
    }

    #[test]
    fn suite_content_hash_is_pinned() {
        // The content hash keys the trace arena and every cache entry
        // derived from a workload: memory-image or program encoding
        // changes must not move it.
        let w = crate::specint_like()[2].workload(42);
        assert_eq!(w.content_hash(), 0x6981_819c_ea05_8d94);
    }

    #[test]
    fn trace_view_matches_trace_with_and_without_arena() {
        let w = crate::specint_like()[8].workload(31_337);
        // The executed ops, collected without any trace storage.
        let mut direct = Vec::new();
        w.machine
            .clone()
            .run_with(&w.program, 1_500, |op| direct.push(op))
            .unwrap();
        let view = w.trace_view(1_500).unwrap();
        assert!(
            view.iter().eq(direct.iter().copied()),
            "arena view must be bit-identical"
        );
        assert!(w.trace_uncached(1_500).unwrap().iter().eq(direct));
    }
}
