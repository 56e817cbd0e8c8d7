//! Compact, program-indexed trace storage and zero-copy views into it.
//!
//! Almost every byte of a [`DynOp`] repeats its static instruction: the
//! pc, class, registers, flops, prefix bit, access size and branch kind
//! are the same on every execution. Only three fields change from one
//! execution to the next: a load or store's address, and a branch's
//! taken bit and target. So a trace is stored as
//!
//! - a **template table**: each distinct static part, interned once per
//!   trace as a 32-byte template; and
//! - one fixed-stride 8-byte **record** per op: a `u32` template index
//!   whose top bit is the branch's taken bit, plus the low half of the
//!   op's `u64` payload — the memory address of a load or store, else
//!   the target of a branch, else 0. The payload's high half is part of
//!   the template: one static instruction's addresses and targets almost
//!   always share it, and an op whose high half differs simply interns
//!   another template.
//!
//! [`TraceView::op`] rebuilds an op by value from its record and
//! template, so every consumer sees exactly the op that was pushed.
//! Interning works on values ([`TraceBuilder::push`]) for any source of
//! ops, including hand-built ones. An op with both a memory access and a
//! branch (no instruction executes as one) keeps its branch target beside
//! its template, and round-trips too.
//!
//! A [`TraceView`] is an `(Arc<storage>, offset, len)` triple: many views
//! share one immutable storage, so slicing a trace — SMT stagger offsets,
//! chopstix/simpoint windows, shorter-`max_ops` reuse — is range
//! arithmetic, never a copy. Functional execution writes ops straight
//! into a [`TraceBuilder`] ([`crate::Machine::run_with`]), so a
//! synthesized trace never exists as a `Vec<DynOp>`; a plain [`Trace`] or
//! `Vec<DynOp>` converts via `From` by interning its ops.
//!
//! Views compare equal iff they denote the same op sequence, regardless
//! of which storage backs them; [`TraceView::shares_storage`] is the
//! identity test used by allocation-regression tests.

use crate::dynop::{BranchInfo, BranchKind, DynOp, MemRef, OpClass, Trace, MAX_SRCS};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// The taken bit in a record's template word.
const TAKEN: u32 = 1 << 31;

/// Slots in the builder's per-pc memo (a power of two).
const PC_MEMO: usize = 4096;

/// One op's dynamic part.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Template index, with the branch's taken bit in [`TAKEN`].
    word: u32,
    /// The low half of the payload.
    low: u32,
}

/// One op's static part, plus the high half of its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Template {
    pc: u64,
    srcs: [u16; MAX_SRCS],
    dst: u16,
    dst2: u16,
    flops: u16,
    high: u32,
    class: OpClass,
    mem_size: Option<u8>,
    branch: Option<BranchKind>,
    prefixed: bool,
}

const _: () = assert!(std::mem::size_of::<Record>() == 8 && std::mem::size_of::<Template>() <= 32);

/// Splits an op into its template, taken bit, payload low half, and the
/// branch target of an op that also accesses memory (else 0).
fn split(op: &DynOp) -> (Template, bool, u32, u64) {
    let (payload, target) = match (op.mem, op.branch) {
        (Some(m), Some(b)) => (m.addr, b.target),
        (Some(m), None) => (m.addr, 0),
        (None, Some(b)) => (b.target, 0),
        (None, None) => (0, 0),
    };
    let template = Template {
        pc: op.pc,
        srcs: op.srcs,
        dst: op.dst,
        dst2: op.dst2,
        flops: op.flops,
        high: (payload >> 32) as u32,
        class: op.class,
        mem_size: op.mem.map(|m| m.size),
        branch: op.branch.map(|b| b.kind),
        prefixed: op.prefixed,
    };
    let taken = op.branch.is_some_and(|b| b.taken);
    (template, taken, payload as u32, target)
}

/// The immutable storage many views share.
#[derive(Debug, Default)]
struct Storage {
    templates: Vec<Template>,
    /// Branch targets of templates that also access memory, indexed like
    /// `templates`; empty until such a template exists, then as long as
    /// `templates` (0 for every other template).
    targets: Vec<u64>,
    records: Vec<Record>,
}

impl Storage {
    fn target(&self, template: u32) -> u64 {
        self.targets.get(template as usize).copied().unwrap_or(0)
    }

    #[inline]
    fn op(&self, idx: usize) -> DynOp {
        let r = self.records[idx];
        let tidx = r.word & !TAKEN;
        let t = &self.templates[tidx as usize];
        let payload = u64::from(t.high) << 32 | u64::from(r.low);
        DynOp {
            pc: t.pc,
            class: t.class,
            srcs: t.srcs,
            dst: t.dst,
            dst2: t.dst2,
            mem: t.mem_size.map(|size| MemRef {
                addr: payload,
                size,
            }),
            branch: t.branch.map(|kind| BranchInfo {
                kind,
                taken: r.word & TAKEN != 0,
                target: if t.mem_size.is_some() {
                    self.target(tidx)
                } else {
                    payload
                },
            }),
            flops: t.flops,
            prefixed: t.prefixed,
        }
    }
}

/// Interns ops, one at a time, into compact trace storage.
#[derive(Debug)]
pub struct TraceBuilder {
    storage: Storage,
    index: HashMap<(Template, u64), u32>,
    /// The last template seen at each pc (direct-mapped by pc, checked
    /// by equality), in front of `index`.
    last: Box<[u32; PC_MEMO]>,
}

impl TraceBuilder {
    /// An empty builder with room for `ops` records.
    #[must_use]
    pub fn with_capacity(ops: usize) -> Self {
        TraceBuilder {
            storage: Storage {
                records: Vec::with_capacity(ops),
                ..Storage::default()
            },
            index: HashMap::new(),
            last: Box::new([u32::MAX; PC_MEMO]),
        }
    }

    /// Appends one op.
    ///
    /// # Panics
    ///
    /// Panics if the trace has more than 2³¹ distinct templates.
    pub fn push(&mut self, op: DynOp) {
        let (template, taken, low, target) = split(&op);
        let slot = (op.pc >> 2) as usize & (PC_MEMO - 1);
        let s = &mut self.storage;
        let memo = self.last[slot];
        let hit = s.templates.get(memo as usize) == Some(&template) && s.target(memo) == target;
        let idx = if hit {
            memo
        } else {
            let idx = *self.index.entry((template, target)).or_insert_with(|| {
                let idx = u32::try_from(s.templates.len())
                    .ok()
                    .filter(|&i| i < TAKEN)
                    .expect("at most 2^31 templates per trace");
                s.templates.push(template);
                if target != 0 || !s.targets.is_empty() {
                    s.targets.resize(idx as usize, 0);
                    s.targets.push(target);
                }
                idx
            });
            self.last[slot] = idx;
            idx
        };
        s.records.push(Record {
            word: idx | if taken { TAKEN } else { 0 },
            low,
        });
    }

    /// Freezes the storage into a view of every pushed op.
    #[must_use]
    pub fn finish(self) -> TraceView {
        let mut storage = self.storage;
        storage.records.shrink_to_fit();
        storage.templates.shrink_to_fit();
        storage.targets.shrink_to_fit();
        let len = storage.records.len();
        TraceView {
            storage: Arc::new(storage),
            offset: 0,
            len,
        }
    }
}

/// A borrowed-by-refcount window into immutable compact trace storage.
#[derive(Debug, Clone)]
pub struct TraceView {
    storage: Arc<Storage>,
    offset: usize,
    len: usize,
}

impl TraceView {
    /// The `idx`-th op of the view, rebuilt by value.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[must_use]
    #[inline]
    pub fn op(&self, idx: usize) -> DynOp {
        assert!(
            idx < self.len,
            "op {idx} out of bounds for view of length {}",
            self.len
        );
        self.storage.op(self.offset + idx)
    }

    /// The ops in this view, in program (retirement) order, rebuilt by
    /// value.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DynOp> + '_ {
        (self.offset..self.offset + self.len).map(|i| self.storage.op(i))
    }

    /// Number of dynamic operations in the view.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view of `range` (relative to this view), sharing storage.
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted or extends past `len()`.
    #[must_use]
    pub fn slice(&self, range: Range<usize>) -> TraceView {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds for view of length {}",
            self.len
        );
        TraceView {
            storage: Arc::clone(&self.storage),
            offset: self.offset + range.start,
            len: range.end - range.start,
        }
    }

    /// Whether two views are windows into the same underlying storage
    /// (regardless of range). This is the test that stagger offsets and
    /// prefix reuse are zero-copy: derived views must share storage with
    /// their parent, not own a private copy.
    #[must_use]
    pub fn shares_storage(&self, other: &TraceView) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// Bytes held by the whole underlying storage (records plus
    /// templates), whatever range this view covers.
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        let s = &self.storage;
        (s.records.len() * std::mem::size_of::<Record>()
            + s.templates.len() * std::mem::size_of::<Template>()
            + s.targets.len() * std::mem::size_of::<u64>()) as u64
    }

    /// Materializes the view into an owned [`Trace`].
    #[must_use]
    pub fn to_trace(&self) -> Trace {
        self.iter().collect()
    }

    /// Total flops (and int-MAC-equivalents) in the view.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.iter().map(|o| u64::from(o.flops)).sum()
    }

    /// Splits the view into consecutive `interval_ops`-sized windows,
    /// each sharing this view's storage (pure range arithmetic — this is
    /// what makes sampled execution's interval partitioning free on the
    /// trace arena). The final window is the ragged tail when the length
    /// is not a multiple of `interval_ops`; every op lands in exactly one
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ops` is zero.
    #[must_use]
    pub fn intervals(&self, interval_ops: usize) -> Vec<TraceView> {
        assert!(interval_ops > 0, "interval_ops must be positive");
        (0..self.len)
            .step_by(interval_ops)
            .map(|start| self.slice(start..self.len.min(start + interval_ops)))
            .collect()
    }

    /// The `idx`-th `interval_ops`-sized window of the view, clipped to
    /// the view's bounds (possibly empty for out-of-range indices) —
    /// [`TraceView::intervals`] element access without materializing the
    /// whole partition.
    #[must_use]
    pub fn interval(&self, interval_ops: usize, idx: usize) -> TraceView {
        assert!(interval_ops > 0, "interval_ops must be positive");
        let start = self.len.min(idx.saturating_mul(interval_ops));
        let end = self.len.min(start.saturating_add(interval_ops));
        self.slice(start..end)
    }
}

impl PartialEq for TraceView {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && ((self.shares_storage(other) && self.offset == other.offset)
                || self.iter().eq(other.iter()))
    }
}

impl FromIterator<DynOp> for TraceView {
    fn from_iter<T: IntoIterator<Item = DynOp>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut b = TraceBuilder::with_capacity(iter.size_hint().0);
        for op in iter {
            b.push(op);
        }
        b.finish()
    }
}

impl From<Trace> for TraceView {
    fn from(t: Trace) -> Self {
        t.ops.into_iter().collect()
    }
}

impl From<Vec<DynOp>> for TraceView {
    fn from(ops: Vec<DynOp>) -> Self {
        ops.into_iter().collect()
    }
}

impl From<&Trace> for TraceView {
    fn from(t: &Trace) -> Self {
        t.ops.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;
    use proptest::prelude::*;

    fn ops(n: usize) -> Vec<DynOp> {
        (0..n)
            .map(|i| DynOp::new(i as u64 * 4, OpClass::IntAlu))
            .collect()
    }

    fn collect(v: &TraceView) -> Vec<DynOp> {
        v.iter().collect()
    }

    #[test]
    fn full_view_round_trips() {
        let t = Trace { ops: ops(5) };
        let v = TraceView::from(t.clone());
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        assert_eq!(collect(&v), t.ops);
        assert_eq!(v.to_trace().ops, t.ops);
        assert_eq!(v.op(3), t.ops[3]);
    }

    #[test]
    fn a_loop_stores_one_template_per_static_op() {
        // Ten iterations of a three-op loop: a load whose address moves,
        // an add, and a branch taken on all but the last iteration.
        let mut b = TraceBuilder::with_capacity(30);
        let mut want = Vec::new();
        for i in 0..10u64 {
            let mut ld = DynOp::new(0x100, OpClass::Load);
            ld.set_dst(Reg::gpr(3));
            ld.mem = Some(MemRef {
                addr: 0x8000 + 8 * i,
                size: 8,
            });
            let mut add = DynOp::new(0x104, OpClass::IntAlu);
            add.add_src(Reg::gpr(3));
            let mut br = DynOp::new(0x108, OpClass::Branch);
            let taken = i < 9;
            br.branch = Some(BranchInfo {
                kind: BranchKind::Counter,
                taken,
                target: if taken { 0x100 } else { 0x10c },
            });
            for op in [ld, add, br] {
                b.push(op);
                want.push(op);
            }
        }
        let v = b.finish();
        assert_eq!(collect(&v), want);
        assert_eq!(v.storage.templates.len(), 3);
        assert_eq!(
            v.storage_bytes(),
            (30 * std::mem::size_of::<Record>() + 3 * std::mem::size_of::<Template>()) as u64
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_op_panics() {
        let v = TraceView::from(ops(4)).slice(1..3);
        let _ = v.op(2);
    }

    #[test]
    fn slice_is_range_arithmetic_on_shared_storage() {
        let v = TraceView::from(ops(10));
        let mid = v.slice(3..7);
        assert_eq!(mid.len(), 4);
        assert_eq!(mid.op(0).pc, 12);
        assert_eq!(mid.op(3).pc, 24);
        assert!(mid.shares_storage(&v));
        // Nested slicing composes offsets.
        let inner = mid.slice(1..3);
        assert_eq!(collect(&inner), collect(&v)[4..6]);
        assert!(inner.shares_storage(&v));
    }

    #[test]
    fn empty_slice_is_fine() {
        let v = TraceView::from(ops(4));
        assert!(v.slice(2..2).is_empty());
        assert!(v.slice(4..4).is_empty());
        assert!(TraceView::from(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_slice_panics() {
        let v = TraceView::from(ops(4));
        let _ = v.slice(2..5);
    }

    #[test]
    fn equality_is_by_content_not_storage() {
        let a = TraceView::from(ops(6));
        let b = TraceView::from(ops(6));
        assert_eq!(a, b);
        assert!(!a.shares_storage(&b));
        assert_ne!(a.slice(0..5), b);
        // Same storage, different windows of equal length: by content.
        assert_ne!(a.slice(0..2), a.slice(1..3));
        assert_eq!(a.slice(1..3), b.slice(1..3));
    }

    #[test]
    fn intervals_partition_the_view_with_ragged_tail() {
        let v = TraceView::from(ops(10));
        let parts = v.intervals(4);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 4);
        assert_eq!(parts[1].len(), 4);
        assert_eq!(parts[2].len(), 2, "ragged tail kept");
        // Every window is zero-copy and they reassemble the exact view.
        let mut all = Vec::new();
        for (i, p) in parts.iter().enumerate() {
            assert!(p.shares_storage(&v));
            assert_eq!(p, &v.interval(4, i));
            all.extend(p.iter());
        }
        assert_eq!(all, collect(&v));
        // Exactly-divisible views have no tail; out-of-range interval
        // access clips to empty.
        assert_eq!(v.intervals(5).len(), 2);
        assert!(v.interval(4, 3).is_empty());
        assert!(v.interval(4, usize::MAX / 2).is_empty());
    }

    #[test]
    fn total_flops_matches_trace() {
        let mut v = ops(3);
        v[1].flops = 7;
        let trace = Trace { ops: v };
        assert_eq!(TraceView::from(&trace).total_flops(), trace.total_flops());
    }

    /// A hand-built op from raw parts: the static fields come from a
    /// small pool, so ops often share a pc and differ in one field.
    fn arb_op() -> impl Strategy<Value = DynOp> {
        (0u64..6, 0u8..4, 0u16..3, 0u8..32, 0u64..u64::MAX).prop_map(
            |(pc, class, reg, bits, dynamic)| {
                let (shape, taken, flops) = (bits & 3, bits & 4 != 0, bits >> 3);
                let class = [
                    OpClass::IntAlu,
                    OpClass::Load,
                    OpClass::Branch,
                    OpClass::Store,
                ][usize::from(class)];
                let mut op = DynOp::new(0x1000 + 4 * pc, class);
                if reg > 0 {
                    op.add_src(Reg::gpr(reg));
                    op.set_dst(Reg::gpr(reg + 1));
                }
                op.flops = u16::from(flops);
                op.prefixed = flops == 3;
                // Shape: bit 0 gives a memory access, bit 1 a branch —
                // both at once on some ops, neither on others.
                if shape & 1 != 0 {
                    op.mem = Some(MemRef {
                        addr: dynamic,
                        size: 1 << (dynamic % 6),
                    });
                }
                if shape & 2 != 0 {
                    op.branch = Some(BranchInfo {
                        kind: if taken {
                            BranchKind::Conditional
                        } else {
                            BranchKind::Indirect
                        },
                        taken,
                        target: dynamic.rotate_left(7),
                    });
                }
                op
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Interning round-trips any op sequence, and every slice of it.
        #[test]
        fn interning_round_trips_hand_built_ops(
            ops in proptest::collection::vec(arb_op(), 0..200),
            cut in 0usize..200,
        ) {
            let v = TraceView::from(ops.clone());
            prop_assert_eq!(v.len(), ops.len());
            for (i, op) in ops.iter().enumerate() {
                prop_assert_eq!(&v.op(i), op);
            }
            let cut = cut.min(ops.len());
            prop_assert_eq!(collect(&v.slice(cut..ops.len())), ops[cut..].to_vec());
            // Templates are the distinct ops with dynamic fields cleared.
            prop_assert!(v.storage.templates.len() <= ops.len());
        }
    }
}
