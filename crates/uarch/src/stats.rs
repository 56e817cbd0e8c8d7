//! Activity counters and simulation results.
//!
//! Every micro-architectural event that matters for power is counted here.
//! The power model (`p10-power`) converts these counts into per-component
//! energy; the Powerminer/APEX analogs aggregate them at different
//! granularities. Counters are plain `u64`s so they can be diffed, summed
//! and serialized cheaply.

use serde::{Deserialize, Serialize};

macro_rules! activity_struct {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// Per-unit activity counters accumulated during simulation.
        ///
        /// The ordering (derived, lexicographic in declaration order) has
        /// no physical meaning; it exists so deltas can key deterministic
        /// ordered maps (the detailed simulator folds its latch
        /// bookkeeping per *distinct* per-cycle delta).
        #[derive(
            Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct Activity {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl Activity {
            /// Element-wise sum.
            #[must_use]
            pub fn sum(&self, other: &Activity) -> Activity {
                Activity { $($field: self.$field + other.$field,)+ }
            }

            /// Element-wise difference (`self - other`), saturating at zero.
            #[must_use]
            pub fn delta(&self, earlier: &Activity) -> Activity {
                Activity { $($field: self.$field.saturating_sub(earlier.$field),)+ }
            }

            /// The counters as `(name, value)` pairs, in declaration order.
            #[must_use]
            pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)+]
            }

            /// Scales a *homogeneous* span delta of `len` cycles down to
            /// its first `prefix` cycles, exactly.
            ///
            /// Span deltas delivered by `SpanObserver::on_span` change
            /// every counter at a constant per-cycle rate, so each field
            /// is divisible by `len` and the prefix is exact integer
            /// arithmetic — this is what lets consumers split a span at
            /// an arbitrary interior cycle (extraction-window or
            /// ROI-warmup boundaries) without losing a single count.
            ///
            /// # Panics
            ///
            /// Panics if `len` is zero or `prefix > len`; debug builds
            /// also assert the homogeneity (divisibility) of every field.
            #[must_use]
            pub fn span_prefix(&self, len: u64, prefix: u64) -> Activity {
                assert!(len > 0 && prefix <= len, "prefix {prefix} of span len {len}");
                Activity {
                    $($field: {
                        debug_assert_eq!(
                            self.$field % len,
                            0,
                            concat!(stringify!($field), " must be homogeneous over the span"),
                        );
                        self.$field / len * prefix
                    },)+
                }
            }

            /// Number of counters.
            #[must_use]
            pub fn len() -> usize {
                [$(stringify!($field),)+].len()
            }

            /// Element-wise weighted sum of `(weight, activity)` terms,
            /// rounded to the nearest count (negative sums clamp to 0).
            ///
            /// This is the reconstitution primitive of sampled execution:
            /// a whole-trace activity estimate is the per-cluster
            /// representatives scaled by `cluster_ops / representative_ops`
            /// and summed.
            #[must_use]
            pub fn weighted_sum(terms: &[(f64, Activity)]) -> Activity {
                #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Activity {
                    $($field: terms
                        .iter()
                        .map(|(w, a)| w * a.$field as f64)
                        .sum::<f64>()
                        .round()
                        .max(0.0) as u64,)+
                }
            }
        }
    };
}

activity_struct! {
    /// Cycles simulated.
    cycles,
    /// Instructions completed (architectural work).
    completed,
    /// Instructions fetched (correct path).
    fetched,
    /// Estimated wrong-path instructions fetched after mispredictions.
    wrong_path_fetched,
    /// Correct-path instructions squashed from the pipeline by flushes.
    flushed,
    /// I-cache accesses (one per fetch group).
    icache_accesses,
    /// I-cache misses.
    icache_misses,
    /// Instruction-side address translations (ERAT lookups).
    ierat_lookups,
    /// Instructions decoded.
    decoded,
    /// Instruction pairs fused at decode.
    fused_pairs,
    /// Ops dispatched into the backend.
    dispatched,
    /// Cycles in which dispatch was blocked by a full resource.
    dispatch_stall_cycles,
    /// Ops issued to execution units.
    issued,
    /// Simple integer ALU operations executed.
    alu_ops,
    /// Integer multiply operations executed.
    mul_ops,
    /// Integer divide operations executed.
    div_ops,
    /// Branch operations executed.
    branch_ops,
    /// Conditional/indirect branches that were predicted.
    branch_predictions,
    /// Branch mispredictions (direction or target).
    branch_mispredicts,
    /// VSX simple (logical/permute) operations executed.
    vsx_simple_ops,
    /// VSX floating-point operations executed.
    vsx_fp_ops,
    /// Floating-point operations (flops) performed by the VSX units.
    vsx_flops,
    /// MMA outer-product instructions executed.
    mma_ops,
    /// Flop/MAC-equivalents performed by the MMA grid.
    mma_flops,
    /// MMA accumulator move/prime operations.
    mma_moves,
    /// Cycles in which the MMA unit was active.
    mma_active_cycles,
    /// Cycles the MMA power-gate was open (unit powered on).
    mma_powered_cycles,
    /// Cycles MMA ops stalled waiting for the unit to power on.
    mma_wake_stall_cycles,
    /// Register-file read ports exercised.
    regfile_reads,
    /// Register-file write ports exercised.
    regfile_writes,
    /// Loads executed.
    loads,
    /// Stores executed.
    stores,
    /// Store-queue entries merged into a neighbour (gathered stores).
    store_merges,
    /// Loads forwarded from the store queue.
    store_forwards,
    /// D-side L1 accesses.
    l1d_accesses,
    /// D-side L1 misses.
    l1d_misses,
    /// Data-side address translations (ERAT lookups).
    derat_lookups,
    /// ERAT misses (either side) that consulted the TLB.
    erat_misses,
    /// TLB misses that triggered a table walk.
    tlb_misses,
    /// L2 accesses.
    l2_accesses,
    /// L2 misses.
    l2_misses,
    /// L3 accesses.
    l3_accesses,
    /// L3 misses (memory accesses).
    l3_misses,
    /// Prefetches issued by the stream prefetcher.
    prefetches_issued,
    /// Prefetched lines that were later used.
    prefetch_hits,
    /// Completion-stage slots used.
    completion_slots,
    /// Sum over cycles of occupied instruction-table entries
    /// (divide by `cycles` for mean occupancy).
    window_occupancy_acc,
    /// Cycles in which at least one op issued (core "active" cycles).
    active_cycles,
    /// Pipeline-hold cycles while an I-ERAT/TLB walk was pending.
    itlb_stall_cycles,
}

impl Activity {
    /// Instructions per cycle (completed / cycles).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.completed as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.cycles as f64 / self.completed as f64
        }
    }

    /// Total flops (VSX + MMA) per cycle.
    #[must_use]
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.vsx_flops + self.mma_flops) as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate (mispredicts / predictions).
    #[must_use]
    pub fn branch_mispredict_rate(&self) -> f64 {
        if self.branch_predictions == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branch_predictions as f64
        }
    }

    /// Mean instruction-window occupancy.
    #[must_use]
    pub fn mean_window_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.window_occupancy_acc as f64 / self.cycles as f64
        }
    }
}

/// Where every simulated cycle went — a mutually-exclusive partition of
/// `Activity::cycles` into bottleneck buckets, maintained by the pipeline
/// at a cost of a few comparisons per cycle (no per-cycle observer
/// needed).
///
/// Each cycle lands in exactly the **first** matching bucket:
///
/// 1. [`active`](Self::active) — at least one op issued (equals
///    `Activity::active_cycles`).
/// 2. [`mma_gated`](Self::mma_gated) — nothing issued because an MMA op
///    stalled waking the power-gated MMA unit.
/// 3. [`memory_bound`](Self::memory_bound) — nothing issued with at least
///    one demand load miss outstanding in the LMQ (covers both
///    dependents waiting on miss data and loads blocked by a full LMQ).
/// 4. [`issue_limited`](Self::issue_limited) — no miss outstanding; a
///    ready op was within the issue lookahead but structural limits
///    (ports, busy dividers, lookahead window) blocked it.
/// 5. [`dispatch_stalled`](Self::dispatch_stalled) — nothing ready and no
///    miss outstanding, but dispatch was blocked by a full backend
///    resource and made no progress.
/// 6. [`fetch_stalled`](Self::fetch_stalled) — none of the above and
///    fetch delivered nothing while a thread still had instructions to
///    fetch (i-cache miss / iTLB walk / redirect shadow).
/// 7. [`idle`](Self::idle) — everything else: execution-latency waits,
///    ramp-up and drain tails. These are exactly the stretches the
///    event-driven scheduler fast-forwards over, so the same cycles are
///    attributed in closed form there (scheduler-identical by test).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleAttribution {
    /// Cycles in which at least one op issued.
    pub active: u64,
    /// No-issue cycles blocked on the MMA power-gate wake latency.
    pub mma_gated: u64,
    /// No-issue cycles with a ready op in reach (structural issue limit).
    pub issue_limited: u64,
    /// No-issue cycles with a demand L1 miss outstanding.
    pub memory_bound: u64,
    /// No-issue cycles with dispatch blocked and making no progress.
    pub dispatch_stalled: u64,
    /// No-issue cycles with fetch delivering nothing despite pending work.
    pub fetch_stalled: u64,
    /// Remaining cycles: pure latency waits and ramp/drain tails (the
    /// fast-forwardable stretches under the event-driven scheduler).
    pub idle: u64,
}

impl CycleAttribution {
    /// Sum of all buckets; always equals `Activity::cycles` for a
    /// completed run (asserted in debug builds).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.active
            + self.mma_gated
            + self.issue_limited
            + self.memory_bound
            + self.dispatch_stalled
            + self.fetch_stalled
            + self.idle
    }

    /// The buckets as `(name, value)` pairs, in declaration order.
    #[must_use]
    pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("active", self.active),
            ("mma_gated", self.mma_gated),
            ("issue_limited", self.issue_limited),
            ("memory_bound", self.memory_bound),
            ("dispatch_stalled", self.dispatch_stalled),
            ("fetch_stalled", self.fetch_stalled),
            ("idle", self.idle),
        ]
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// The configuration name this run used.
    pub config_name: String,
    /// Number of hardware threads that ran.
    pub threads: usize,
    /// Aggregate activity counters.
    pub activity: Activity,
    /// Instructions completed per thread.
    pub per_thread_completed: Vec<u64>,
    /// Cycle-level bottleneck attribution (partitions `activity.cycles`).
    pub attribution: CycleAttribution,
}

impl SimResult {
    /// Aggregate instructions per cycle across all threads.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.activity.ipc()
    }

    /// Aggregate cycles per instruction.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        self.activity.cpi()
    }

    /// Total dynamic ops completed across all threads.
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.per_thread_completed.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_delta_are_elementwise() {
        let a = Activity {
            cycles: 10,
            completed: 20,
            ..Activity::default()
        };
        let b = Activity {
            cycles: 5,
            completed: 7,
            ..Activity::default()
        };
        let s = a.sum(&b);
        assert_eq!(s.cycles, 15);
        assert_eq!(s.completed, 27);
        let d = s.delta(&b);
        assert_eq!(d.cycles, 10);
        assert_eq!(d.completed, 20);
    }

    #[test]
    fn delta_saturates() {
        let a = Activity::default();
        let b = Activity {
            cycles: 5,
            ..Activity::default()
        };
        assert_eq!(a.delta(&b).cycles, 0);
    }

    #[test]
    fn derived_rates() {
        let mut a = Activity::default();
        assert_eq!(a.ipc(), 0.0);
        assert_eq!(a.cpi(), 0.0);
        a.cycles = 100;
        a.completed = 250;
        a.vsx_flops = 300;
        a.mma_flops = 100;
        a.branch_predictions = 50;
        a.branch_mispredicts = 5;
        a.window_occupancy_acc = 12_800;
        assert!((a.ipc() - 2.5).abs() < 1e-12);
        assert!((a.cpi() - 0.4).abs() < 1e-12);
        assert!((a.flops_per_cycle() - 4.0).abs() < 1e-12);
        assert!((a.branch_mispredict_rate() - 0.1).abs() < 1e-12);
        assert!((a.mean_window_occupancy() - 128.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_sum_scales_and_rounds_elementwise() {
        let a = Activity {
            cycles: 100,
            completed: 40,
            ..Activity::default()
        };
        let b = Activity {
            cycles: 7,
            loads: 3,
            ..Activity::default()
        };
        let s = Activity::weighted_sum(&[(2.5, a), (1.0, b)]);
        assert_eq!(s.cycles, 257);
        assert_eq!(s.completed, 100);
        assert_eq!(s.loads, 3);
        // 2.5 * 7 = 17.5 rounds to 18.
        assert_eq!(Activity::weighted_sum(&[(2.5, b)]).cycles, 18);
        assert_eq!(Activity::weighted_sum(&[]), Activity::default());
    }

    #[test]
    fn pairs_cover_every_counter() {
        let a = Activity::default();
        let pairs = a.as_pairs();
        assert_eq!(pairs.len(), Activity::len());
        assert!(pairs.iter().any(|(n, _)| *n == "mma_flops"));
        assert!(pairs.iter().any(|(n, _)| *n == "l2_misses"));
    }

    #[test]
    fn attribution_total_sums_every_bucket() {
        let attr = CycleAttribution {
            active: 1,
            mma_gated: 2,
            issue_limited: 4,
            memory_bound: 8,
            dispatch_stalled: 16,
            fetch_stalled: 32,
            idle: 64,
        };
        assert_eq!(attr.total(), 127);
        let pairs = attr.as_pairs();
        assert_eq!(pairs.len(), 7);
        assert_eq!(pairs.iter().map(|(_, v)| v).sum::<u64>(), attr.total());
        assert_eq!(pairs[0], ("active", 1));
        assert_eq!(pairs[6], ("idle", 64));
    }
}
