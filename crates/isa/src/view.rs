//! Zero-copy trace views over shared op storage.
//!
//! A [`TraceView`] is an `(Arc<Vec<DynOp>>, offset, len)` triple: many
//! views share one immutable op buffer, so slicing a trace — SMT stagger
//! offsets, chopstix/simpoint windows, shorter-`max_ops` reuse — is range
//! arithmetic instead of a clone plus an O(n) `drain`. The timing model
//! ([`Core::run`](../p10_uarch) and friends) consumes views; a plain
//! [`Trace`] or `Vec<DynOp>` converts via `From` by moving its `Vec` into
//! the `Arc`: one buffer move, never a copy. (An `Arc<[DynOp]>` would
//! copy the ops into a fresh exact-size allocation on every conversion,
//! so every trace-arena miss would briefly hold its trace twice.)
//!
//! Views compare equal iff they denote the same op sequence, regardless
//! of which buffer backs them; [`TraceView::shares_storage`] is the
//! identity test used by allocation-regression tests.

use crate::dynop::{DynOp, Trace};
use std::ops::{Index, Range};
use std::sync::Arc;

/// A borrowed-by-refcount window into an immutable dynamic-op buffer.
#[derive(Debug, Clone)]
pub struct TraceView {
    storage: Arc<Vec<DynOp>>,
    offset: usize,
    len: usize,
}

impl TraceView {
    /// A view of an entire shared buffer.
    #[must_use]
    pub fn new(storage: Arc<Vec<DynOp>>) -> Self {
        let len = storage.len();
        TraceView {
            storage,
            offset: 0,
            len,
        }
    }

    /// The ops in this view, in program (retirement) order.
    #[must_use]
    #[inline]
    pub fn ops(&self) -> &[DynOp] {
        &self.storage[self.offset..self.offset + self.len]
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

    /// Whether two views are windows into the same underlying buffer
    /// (regardless of range). This is the test that stagger offsets and
    /// prefix reuse are zero-copy: derived views must share storage with
    /// their parent, not own a private clone.
    #[must_use]
    pub fn shares_storage(&self, other: &TraceView) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// Materializes the view into an owned [`Trace`] (copies the ops).
    #[must_use]
    pub fn to_trace(&self) -> Trace {
        Trace {
            ops: self.ops().to_vec(),
        }
    }

    /// Total flops (and int-MAC-equivalents) in the view.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.ops().iter().map(|o| u64::from(o.flops)).sum()
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

impl Index<usize> for TraceView {
    type Output = DynOp;

    #[inline]
    fn index(&self, idx: usize) -> &DynOp {
        &self.ops()[idx]
    }
}

impl PartialEq for TraceView {
    fn eq(&self, other: &Self) -> bool {
        self.ops() == other.ops()
    }
}

impl From<Trace> for TraceView {
    fn from(t: Trace) -> Self {
        TraceView::from(t.ops)
    }
}

impl From<Vec<DynOp>> for TraceView {
    fn from(ops: Vec<DynOp>) -> Self {
        TraceView::new(Arc::new(ops))
    }
}

impl From<&Trace> for TraceView {
    fn from(t: &Trace) -> Self {
        TraceView::from(t.ops.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynop::OpClass;

    fn ops(n: usize) -> Vec<DynOp> {
        (0..n)
            .map(|i| DynOp::new(i as u64 * 4, OpClass::IntAlu))
            .collect()
    }

    #[test]
    fn full_view_round_trips() {
        let t = Trace { ops: ops(5) };
        let v = TraceView::from(t.clone());
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        assert_eq!(v.ops(), &t.ops[..]);
        assert_eq!(v.to_trace().ops, t.ops);
    }

    #[test]
    fn conversion_moves_the_buffer_without_copying() {
        let t = Trace { ops: ops(1000) };
        let before = t.ops.as_ptr();
        let v = TraceView::from(t);
        assert_eq!(v.ops().as_ptr(), before, "From<Trace> must move, not copy");
        let raw = ops(1000);
        let before = raw.as_ptr();
        assert_eq!(TraceView::from(raw).ops().as_ptr(), before);
    }

    #[test]
    fn slice_is_range_arithmetic_on_shared_storage() {
        let v = TraceView::from(ops(10));
        let mid = v.slice(3..7);
        assert_eq!(mid.len(), 4);
        assert_eq!(mid[0].pc, 12);
        assert_eq!(mid[3].pc, 24);
        assert!(mid.shares_storage(&v));
        // Nested slicing composes offsets.
        let inner = mid.slice(1..3);
        assert_eq!(inner.ops(), &v.ops()[4..6]);
        assert!(inner.shares_storage(&v));
    }

    #[test]
    fn empty_slice_is_fine() {
        let v = TraceView::from(ops(4));
        assert!(v.slice(2..2).is_empty());
        assert!(v.slice(4..4).is_empty());
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
            assert_eq!(p.ops(), v.interval(4, i).ops());
            all.extend_from_slice(p.ops());
        }
        assert_eq!(&all[..], v.ops());
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
}
