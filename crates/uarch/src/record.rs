//! Activity-trace recording: capture a run's per-window [`Activity`]
//! deltas so power/DVFS/WOF sweeps can replay the run without
//! re-simulating (EnergAIzer-style decoupling of activity capture from
//! power evaluation).
//!
//! [`ActivityRecorder`] is a [`SpanObserver`] that slices a simulation
//! into fixed-width cycle windows. Event-driven span deltas are split
//! exactly at window boundaries with [`Activity::span_prefix`], so the
//! recorded trace is identical whether the scheduler delivered
//! per-cycle callbacks or closed-form spans. The contract replay
//! consumers rely on (see `DESIGN.md` §10):
//!
//! 1. Windows partition the run: window *i* covers cycles
//!    `i*window_cycles + 1 ..= (i+1)*window_cycles`, except the last,
//!    which may be shorter.
//! 2. The element-wise sum of all window deltas equals the run's final
//!    cumulative [`Activity`] — no count is lost or duplicated at a
//!    window boundary.
//! 3. Every window delta is a valid [`Activity`] in its own right
//!    (non-negative counters, `cycles` = the window's width), so a
//!    power model may evaluate each window independently.

use crate::pipeline::SpanObserver;
use crate::stats::Activity;
use serde::{Deserialize, Serialize};

/// A recorded run: fixed-width windows of per-unit activity deltas.
///
/// This is the compact replay form — everything a power model or the
/// power-management governor needs, with the cycle-level simulation
/// already paid for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityTrace {
    /// Window width in cycles (every window but the last covers
    /// exactly this many cycles).
    pub window_cycles: u64,
    /// Per-window activity deltas, in cycle order.
    pub windows: Vec<Activity>,
}

impl ActivityTrace {
    /// Element-wise sum of all windows; by the recording contract this
    /// equals the run's final cumulative [`Activity`].
    #[must_use]
    pub fn total(&self) -> Activity {
        self.windows
            .iter()
            .fold(Activity::default(), |acc, w| acc.sum(w))
    }
}

/// A [`SpanObserver`] that records fixed-width activity windows.
///
/// Attach to [`crate::Core::run_spanned`], then call
/// [`ActivityRecorder::finish`] with the run's final activity to close
/// the trailing partial window and obtain the [`ActivityTrace`].
#[derive(Debug)]
pub struct ActivityRecorder {
    window_cycles: u64,
    windows: Vec<Activity>,
    /// Cumulative activity at the last closed window boundary.
    last: Activity,
    /// Cycle of the last closed window boundary.
    last_cycle: u64,
    /// Cumulative activity through the last delivered cycle.
    cum: Activity,
}

impl ActivityRecorder {
    /// A recorder slicing the run into `window_cycles`-wide windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    #[must_use]
    pub fn new(window_cycles: u64) -> Self {
        assert!(window_cycles > 0, "window_cycles must be positive");
        ActivityRecorder {
            window_cycles,
            windows: Vec::new(),
            last: Activity::default(),
            last_cycle: 0,
            cum: Activity::default(),
        }
    }

    fn close_window(&mut self, cycle: u64, cum: Activity) {
        self.windows.push(cum.delta(&self.last));
        self.last = cum;
        self.last_cycle = cycle;
    }

    /// Consumes the recorder, closing the final partial window against
    /// the run's final cumulative activity.
    #[must_use]
    pub fn finish(mut self, final_activity: &Activity) -> ActivityTrace {
        let tail = final_activity.delta(&self.last);
        if tail.cycles > 0 {
            self.windows.push(tail);
        }
        ActivityTrace {
            window_cycles: self.window_cycles,
            windows: self.windows,
        }
    }
}

impl SpanObserver for ActivityRecorder {
    fn on_cycle(&mut self, cycle: u64, act: &Activity) {
        self.cum = *act;
        if cycle - self.last_cycle >= self.window_cycles {
            self.close_window(cycle, *act);
        }
    }

    fn on_span(&mut self, start: u64, len: u64, delta: &Activity) {
        let end = start + len - 1;
        let base = self.cum;
        // Split the homogeneous span exactly at each window boundary it
        // crosses. `boundary >= start` always holds: a cycle at or past
        // the previous boundary would already have closed that window.
        let mut boundary = self.last_cycle + self.window_cycles;
        while boundary <= end {
            let cum_at = base.sum(&delta.span_prefix(len, boundary - start + 1));
            self.close_window(boundary, cum_at);
            boundary = self.last_cycle + self.window_cycles;
        }
        self.cum = base.sum(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_mixed_cycles_and_spans() {
        let mut rec = ActivityRecorder::new(4);
        let mut cum = Activity::default();
        // Three live cycles.
        for c in 1..=3u64 {
            cum.cycles += 1;
            cum.fetched += 2;
            rec.on_cycle(c, &cum);
        }
        // A homogeneous 10-cycle span (3 issued per cycle).
        let delta = Activity {
            cycles: 10,
            issued: 30,
            ..Activity::default()
        };
        rec.on_span(4, 10, &delta);
        cum = cum.sum(&delta);
        let trace = rec.finish(&cum);

        // Windows: [1..4], [5..8], [9..12], [13..13].
        assert_eq!(trace.windows.len(), 4);
        for w in &trace.windows[..3] {
            assert_eq!(w.cycles, 4);
        }
        assert_eq!(trace.windows[3].cycles, 1);
        // The boundary split is exact: window 0 holds 3 live cycles plus
        // the span's first cycle.
        assert_eq!(trace.windows[0].fetched, 6);
        assert_eq!(trace.windows[0].issued, 3);
        assert_eq!(trace.total(), cum);
    }

    #[test]
    fn run_ending_on_boundary_adds_no_empty_window() {
        let mut rec = ActivityRecorder::new(2);
        let mut cum = Activity::default();
        for c in 1..=4u64 {
            cum.cycles += 1;
            rec.on_cycle(c, &cum);
        }
        let trace = rec.finish(&cum);
        assert_eq!(trace.windows.len(), 2);
        assert_eq!(trace.total(), cum);
    }

    #[test]
    fn span_wider_than_several_windows_splits_exactly() {
        let mut rec = ActivityRecorder::new(3);
        let delta = Activity {
            cycles: 12,
            completed: 24,
            ..Activity::default()
        };
        rec.on_span(1, 12, &delta);
        let trace = rec.finish(&delta);
        assert_eq!(trace.windows.len(), 4);
        for w in &trace.windows {
            assert_eq!(w.cycles, 3);
            assert_eq!(w.completed, 6);
        }
        assert_eq!(trace.total(), delta);
    }

    /// Property tests driving random live/span delivery patterns through
    /// the recorder — the window-sums-equal-final-counters invariant
    /// under arbitrary span tilings, not just the one tiling the
    /// simulator happens to produce for a given workload.
    mod span_window_properties {
        use super::*;
        use proptest::prelude::*;

        /// One random observer delivery: either a live cycle with
        /// arbitrary counter bumps, or a homogeneous fast-forward span
        /// (only the four counters the span contract allows, each at a
        /// constant per-cycle rate).
        #[derive(Debug, Clone, Copy)]
        enum Delivery {
            Live {
                completed: u64,
                l1d: u64,
                flops: u64,
            },
            Span {
                len: u64,
                mma: bool,
                stall: bool,
                occ: u64,
            },
        }

        fn arb_delivery() -> impl Strategy<Value = Delivery> {
            prop_oneof![
                (0u64..6, 0u64..4, 0u64..9).prop_map(|(completed, l1d, flops)| {
                    Delivery::Live {
                        completed,
                        l1d,
                        flops,
                    }
                }),
                (1u64..300, 0u64..2, 0u64..2, 0u64..400).prop_map(|(len, mma, stall, occ)| {
                    Delivery::Span {
                        len,
                        mma: mma == 1,
                        stall: stall == 1,
                        occ,
                    }
                }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A span-fed recorder must produce identical windows to a
            /// per-cycle-fed one (spans replayed via `span_prefix`), and
            /// closed windows plus the trailing partial must sum to the
            /// final counters.
            #[test]
            fn random_span_patterns_window_exactly(
                deliveries in proptest::collection::vec(arb_delivery(), 1..60),
                window_cycles in 1u64..64,
            ) {
                let mut spanned = ActivityRecorder::new(window_cycles);
                let mut per_cycle = ActivityRecorder::new(window_cycles);
                let mut cum = Activity::default();
                let mut cycle = 0u64;
                for d in &deliveries {
                    match *d {
                        Delivery::Live { completed, l1d, flops } => {
                            cycle += 1;
                            cum.cycles += 1;
                            cum.completed += completed;
                            cum.l1d_accesses += l1d;
                            cum.vsx_flops += flops;
                            spanned.on_cycle(cycle, &cum);
                            per_cycle.on_cycle(cycle, &cum);
                        }
                        Delivery::Span { len, mma, stall, occ } => {
                            let delta = Activity {
                                cycles: len,
                                mma_powered_cycles: if mma { len } else { 0 },
                                dispatch_stall_cycles: if stall { len } else { 0 },
                                window_occupancy_acc: occ * len,
                                ..Activity::default()
                            };
                            let base = cum;
                            spanned.on_span(cycle + 1, len, &delta);
                            for k in 1..=len {
                                per_cycle.on_cycle(cycle + k, &base.sum(&delta.span_prefix(len, k)));
                            }
                            cycle += len;
                            cum = base.sum(&delta);
                        }
                    }
                }
                prop_assert_eq!(&spanned.windows, &per_cycle.windows);
                prop_assert_eq!(spanned.last_cycle, per_cycle.last_cycle);
                // Every closed window spans exactly `window_cycles`.
                for w in &spanned.windows {
                    prop_assert_eq!(w.cycles, window_cycles);
                }
                prop_assert_eq!(
                    spanned.last_cycle,
                    spanned.windows.len() as u64 * window_cycles
                );
                // Closed windows + trailing partial tile the run exactly.
                let tail = cum.delta(&spanned.last);
                prop_assert_eq!(spanned.last_cycle + tail.cycles, cycle);
                let trace = spanned.finish(&cum);
                prop_assert_eq!(trace.total(), cum);
            }
        }
    }
}
