//! The cycle-level out-of-order SMT pipeline.
//!
//! Trace-driven: each hardware thread replays a [`DynOp`] stream produced
//! by functional execution (or by a statistical workload generator). Every
//! cycle the model runs, in order: completion, execution progress, issue,
//! decode/dispatch (with fusion), and fetch (with branch prediction and
//! I-cache/I-ERAT effects).
//!
//! Mispredicted branches stall fetch for their thread until the branch
//! executes plus the redirect penalty; the wrong-path fetch work the real
//! front end would have performed in that window is estimated and counted
//! in [`Activity::wrong_path_fetched`] (that is the paper's
//! "wasted/flushed instructions" metric).

use crate::branch::BranchPredictor;
use crate::cache::MemHierarchy;
use crate::config::{CoreConfig, Scheduler};
use crate::stats::{Activity, CycleAttribution, SimResult};
use crate::tlb::{Mmu, TranslateSide};
use crate::warm::WarmState;
use p10_isa::fusion::{self, FusionKind};
use p10_isa::{DynOp, MmaKind, OpClass, TraceView, ARCH_REG_COUNT, MAX_SRCS};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Span-aware observer of a simulation run.
///
/// Live (stepped) cycles arrive one at a time through
/// [`on_cycle`](Self::on_cycle) with the *cumulative* activity counters.
/// Idle stretches the event-driven scheduler fast-forwards over arrive as
/// closed-form *spans* through [`on_span`](Self::on_span) instead of being
/// replayed cycle by cycle — this is what lets the power-extraction stack
/// (RTLSim/APEX analogs) ride the fast path.
///
/// ## The span contract
///
/// `on_span(start, len, delta)` covers cycles `start ..= start + len - 1`
/// and `delta` is exactly the element-wise difference between the
/// cumulative [`Activity`] after and before the span. Spans are
/// **homogeneous**: every counter changes at a constant per-cycle rate, so
/// each field of `delta` is divisible by `len` and
/// [`Activity::span_prefix`] can split a span at any interior cycle
/// exactly (stretches where the MMA power-gate closes mid-way are emitted
/// as two spans, split at the gate-off cycle). Only four counters can be
/// non-zero in a span delta: `cycles`, `mma_powered_cycles`,
/// `dispatch_stall_cycles` and `window_occupancy_acc` — nothing fetches,
/// issues or completes during a fast-forwarded stretch.
///
/// Deliveries are contiguous and in order: the cycles seen via `on_cycle`
/// plus the cycles covered by `on_span` partition `1 ..= cycles` with no
/// gaps or overlaps. Under the polled scheduler (or when
/// [`wants_spans`](Self::wants_spans) is `false`) everything arrives via
/// `on_cycle`.
///
/// In debug builds the scheduler cross-checks every span against a
/// cycle-by-cycle replay of the same stretch (the accumulated per-cycle
/// deltas must equal the span delta exactly).
pub trait SpanObserver {
    /// Called after every live (stepped) cycle with the cumulative
    /// activity counters.
    fn on_cycle(&mut self, cycle: u64, act: &Activity);

    /// Called for a fast-forwarded stretch covering cycles
    /// `start ..= start + len - 1` with the closed-form activity delta
    /// over the stretch (see the trait docs for the homogeneity
    /// guarantees).
    fn on_span(&mut self, start: u64, len: u64, delta: &Activity);

    /// Whether this observer accepts spans. Returning `false` makes the
    /// scheduler replay fast-forwarded stretches one cycle at a time
    /// through [`on_cycle`](Self::on_cycle), so the observer sees every
    /// cycle's cumulative activity.
    fn wants_spans(&self) -> bool {
        true
    }
}

/// Observer borrow threaded through the run loop (`None` when running
/// unobserved).
type Observer<'a> = Option<&'a mut dyn SpanObserver>;

/// Deterministic work counts of one run: what the simulator did to
/// produce a [`SimResult`], not what the modeled core did. They repeat
/// exactly from run to run, so they can gate simulator performance
/// without wall-clock noise. They stay out of [`Activity`] (which feeds
/// the power model) and out of the serialized [`SimResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreWork {
    /// Cycles stepped through the whole pipeline.
    pub live_steps: u64,
    /// Issue-order and candidate entries the issue stage examined.
    pub issue_scan: u64,
    /// Completion-calendar insertions.
    pub calendar_pushes: u64,
    /// Completion-calendar removals.
    pub calendar_pops: u64,
    /// Wakeup-list entries walked on producer completion.
    pub wakeup_walks: u64,
    /// Load-miss-queue expiry sweeps.
    pub lmq_sweeps: u64,
    /// Idle stretches fast-forwarded.
    pub ff_spans: u64,
    /// Cycles those stretches covered.
    pub ff_cycles: u64,
    /// Dispatch needs computed (fusion pairing and queue needs of a
    /// fetch-buffer head); a head retried while blocked reuses its needs.
    pub dispatch_plans: u64,
}

impl CoreWork {
    /// `(counter name, value)` pairs, named `core.*`.
    #[must_use]
    pub fn as_pairs(&self) -> [(&'static str, u64); 9] {
        [
            ("core.live_steps", self.live_steps),
            ("core.issue_scan", self.issue_scan),
            ("core.calendar_pushes", self.calendar_pushes),
            ("core.calendar_pops", self.calendar_pops),
            ("core.wakeup_walks", self.wakeup_walks),
            ("core.lmq_sweeps", self.lmq_sweeps),
            ("core.ff_spans", self.ff_spans),
            ("core.ff_cycles", self.ff_cycles),
            ("core.dispatch_plans", self.dispatch_plans),
        ]
    }
}

const NO_SLOT: u32 = u32::MAX;

/// Hardware threads a core runs at most (SMT4).
const MAX_THREADS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UopState {
    Waiting,
    Executing { done_at: u64 },
    Done,
}

#[derive(Debug, Clone)]
struct InFlight {
    class: OpClass,
    /// Source registers read at issue.
    srcs: u8,
    /// The op writes a register at retire.
    has_dest: bool,
    /// Index of the op in its thread's trace.
    idx: usize,
    tid: u8,
    seq: u64,
    fetch_cycle: u64,
    state: UopState,
    mispredicted: bool,
    /// Slot of the fused partner (this op is the pair head).
    pair: u32,
    /// This op is the second of a fused pair.
    is_pair_second: bool,
    /// This store op owns a store-queue entry (false for the second store
    /// of a fused pair that shares its head's entry).
    owns_sq: bool,
    active: bool,
}

/// The event-driven scheduler's issue-candidate set, kept per event.
///
/// The select network sees the oldest `issue_lookahead` waiting ops (the
/// *reach*); the candidates are the ready ones among them, in program
/// order. Seqs grow in dispatch order, so the reach is a seq prefix of
/// the waiting ops. Its end, the frontier, only moves forward: ops enter
/// the reach at the back when an op inside it issues or when one
/// dispatches into a reach that is not full, and leave only by issuing.
/// Per-slot state is dense, indexed by slab slot, so wakeup and issue
/// touch a few bytes per op rather than an [`InFlight`].
#[derive(Debug, Default)]
struct Candidates {
    /// Per slot: seq of the waiting op it holds, 0 once that op issued
    /// (seqs start at 1).
    wait_seq: Vec<u64>,
    /// Per slot: producers still outstanding.
    waiting_on: Vec<u8>,
    /// Per slot: every producer resolved (mirrors `deps_ready`).
    ready: Vec<bool>,
    /// Waiting ops past the frontier as (slot, seq), program order. A
    /// fused partner that issued with its head is dropped when popped.
    beyond: VecDeque<(u32, u64)>,
    /// Waiting ops inside the reach: `min(reach, waiting ops)`.
    in_reach: u32,
    /// Seq of the last op the frontier passed; every waiting op at or
    /// below it is inside the reach.
    frontier: u64,
    /// Ready ops inside the reach, program order: the issue candidates.
    ready_in_reach: Vec<u32>,
}

impl Candidates {
    /// Sizes the per-slot state for a newly allocated slab slot.
    fn grow(&mut self) {
        self.wait_seq.push(0);
        self.waiting_on.push(0);
        self.ready.push(false);
    }

    /// A newly dispatched op waits on `waiting_on` producers. It enters
    /// the reach at once if there is room, else queues past the frontier;
    /// returns the entries passed (as [`Candidates::fill`]).
    fn dispatch(&mut self, slot: u32, seq: u64, waiting_on: u8, reach: u32) -> u64 {
        let s = slot as usize;
        self.wait_seq[s] = seq;
        self.waiting_on[s] = waiting_on;
        self.ready[s] = waiting_on == 0;
        if self.in_reach < reach && self.beyond.is_empty() {
            self.pass(slot, seq);
            1
        } else {
            self.beyond.push_back((slot, seq));
            0
        }
    }

    /// Moves the frontier past `(slot, seq)`, taking the op into the reach
    /// if it is still waiting.
    fn pass(&mut self, slot: u32, seq: u64) {
        self.frontier = seq;
        if self.wait_seq[slot as usize] == seq {
            self.in_reach += 1;
            if self.ready[slot as usize] {
                self.ready_in_reach.push(slot);
            }
        }
    }

    /// One producer of `(slot, seq)` completed.
    fn wake(&mut self, slot: u32, seq: u64) {
        let s = slot as usize;
        // A consumer may have left Waiting already (fused-pair partner
        // issued with its head); its remaining registrations are moot.
        if self.wait_seq[s] != seq {
            return;
        }
        self.waiting_on[s] -= 1;
        if self.waiting_on[s] == 0 {
            debug_assert!(!self.ready[s]);
            self.ready[s] = true;
            if seq <= self.frontier {
                let wait_seq = &self.wait_seq;
                let at = match self.ready_in_reach.last() {
                    Some(&c) if wait_seq[c as usize] > seq => self
                        .ready_in_reach
                        .partition_point(|&c| wait_seq[c as usize] < seq),
                    _ => self.ready_in_reach.len(),
                };
                self.ready_in_reach.insert(at, slot);
            }
        }
    }

    /// The op in `slot` started executing. Its `ready_in_reach` entry, if
    /// any, is dropped by the issue loop; the freed reach place is
    /// refilled by the next [`Candidates::fill`].
    fn issue(&mut self, slot: u32) {
        let s = slot as usize;
        if self.wait_seq[s] <= self.frontier {
            self.in_reach -= 1;
        }
        self.wait_seq[s] = 0;
        self.ready[s] = false;
    }

    /// Moves the frontier forward until the reach holds `reach` waiting
    /// ops or none is left past it; returns the entries passed.
    fn fill(&mut self, reach: u32) -> u64 {
        let mut passed = 0;
        while self.in_reach < reach {
            let Some((slot, seq)) = self.beyond.pop_front() else {
                break;
            };
            passed += 1;
            self.pass(slot, seq);
        }
        passed
    }
}

/// Wheel buckets: completions due within this many cycles of their
/// issue skip the heap.
const WHEEL: u64 = 64;

/// Completion calendar: executing ops keyed by the cycle they turn Done.
///
/// A completion due fewer than [`WHEEL`] cycles after its issue goes to
/// that cycle's bucket of a timing wheel, whose occupancy is one bit per
/// bucket; later ones (memory misses) go to a min-heap. Every cycle that
/// holds a completion is stepped, because fast-forward stops at the
/// earliest one, so the bucket drained at cycle `c` holds exactly the
/// completions due at `c`.
#[derive(Debug)]
struct Calendar {
    wheel: Vec<Vec<u32>>,
    /// Bit `b` set: `wheel[b]` is non-empty.
    occupied: u64,
    far: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            wheel: vec![Vec::new(); WHEEL as usize],
            occupied: 0,
            far: BinaryHeap::new(),
        }
    }
}

impl Calendar {
    /// Books `slot` to turn Done at cycle `at`, issued at cycle `now`.
    fn push(&mut self, now: u64, at: u64, slot: u32) {
        debug_assert!(at > now);
        if at - now < WHEEL {
            let b = (at % WHEEL) as usize;
            self.wheel[b].push(slot);
            self.occupied |= 1 << b;
        } else {
            self.far.push(Reverse((at, slot)));
        }
    }

    /// The earliest booked cycle, once every completion due at or
    /// before `now` has been drained.
    fn next_after(&self, now: u64) -> Option<u64> {
        // Wheel entries are due in `now + 1 ..= now + WHEEL - 1`: the
        // first occupied bucket from `now + 1` on is the earliest.
        let near = (self.occupied != 0).then(|| {
            let start = ((now + 1) % WHEEL) as u32;
            now + 1 + u64::from(self.occupied.rotate_right(start).trailing_zeros())
        });
        let far = self.far.peek().map(|&Reverse((at, _))| at);
        match (near, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Moves the slots due at cycle `now` into `out`.
    fn drain_due(&mut self, now: u64, out: &mut Vec<u32>) {
        let b = (now % WHEEL) as usize;
        if self.occupied & (1 << b) != 0 {
            out.append(&mut self.wheel[b]);
            self.occupied &= !(1 << b);
        }
        while let Some(&Reverse((at, slot))) = self.far.peek() {
            if at > now {
                break;
            }
            debug_assert_eq!(at, now, "completion cycles are never skipped");
            self.far.pop();
            out.push(slot);
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct FetchedOp {
    /// Index of the op in its thread's trace.
    idx: usize,
    /// The op, rebuilt once at fetch for dispatch and install.
    op: DynOp,
    mispredicted: bool,
    fetch_cycle: u64,
}

#[derive(Debug)]
struct ThreadState {
    ops: TraceView,
    fetch_idx: usize,
    fetch_buffer: VecDeque<FetchedOp>,
    fetch_stall_until: u64,
    /// An in-flight mispredicted branch blocks fetch.
    mispredict_pending: bool,
    completed: u64,
    rob: VecDeque<u32>,
    lq_used: u32,
    sq_used: u32,
    /// In-window stores (seq, addr, size, executed) for forwarding checks.
    store_window: VecDeque<(u64, u64, u8, bool)>,
    /// Per-arch-reg rename: packed reg -> (slot, seq).
    rename: Vec<(u32, u64)>,
    /// The last computed dispatch needs, keyed by (head trace index,
    /// partner buffered); see [`Core::dispatch_needs`].
    dispatch_needs: Option<(usize, bool, DispatchPlan)>,
}

impl ThreadState {
    fn new(ops: TraceView) -> Self {
        ThreadState {
            ops,
            fetch_idx: 0,
            fetch_buffer: VecDeque::new(),
            fetch_stall_until: 0,
            mispredict_pending: false,
            completed: 0,
            rob: VecDeque::new(),
            lq_used: 0,
            sq_used: 0,
            store_window: VecDeque::new(),
            rename: vec![(NO_SLOT, 0); usize::from(ARCH_REG_COUNT) + 1],
            dispatch_needs: None,
        }
    }

    fn fetch_done(&self) -> bool {
        self.fetch_idx >= self.ops.len()
    }

    fn fully_done(&self) -> bool {
        self.fetch_done() && self.fetch_buffer.is_empty() && self.rob.is_empty()
    }
}

/// A drained (post-commit) store awaiting its cache write.
#[derive(Debug, Clone, Copy)]
struct PendingStore {
    tid: u8,
    addr: u64,
    size: u8,
    seq: u64,
    /// Store-queue entries this drain slot releases.
    sq_entries: u8,
}

/// The cycle-level core model.
///
/// Construct with a [`CoreConfig`], then call [`Core::run`] with one trace
/// per hardware thread.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    predictor: BranchPredictor,
    mem: MemHierarchy,
    mmu: Mmu,
    act: Activity,
    attr: CycleAttribution,
    threads: Vec<ThreadState>,
    slab: Vec<InFlight>,
    /// Per slab slot: (slot, seq) of the op's producers; a producer that
    /// retired or is Done is resolved. Read only by `deps_ready`, so it
    /// lives apart from the hot `InFlight` fields.
    deps: Vec<[(u32, u64); MAX_SRCS]>,
    free_slots: Vec<u32>,
    /// Waiting ops in program order as (slot, seq), compacted and
    /// rescanned every cycle. Polled scheduler only.
    issue_order: VecDeque<(u32, u64)>,
    window_used: u32,
    issue_queue_used: u32,
    cycle: u64,
    seq: u64,
    div_busy_until: u64,
    /// MMA power-gate state: the cycle the unit is (or will be) ready, or
    /// `None` while gated off.
    mma_ready_at: Option<u64>,
    /// Last cycle an MMA op used the grid (for idle gating).
    mma_last_use: u64,
    /// Outstanding L1D miss completion times (load-miss queue).
    lmq: Vec<u64>,
    /// Earliest `lmq` completion time (`u64::MAX` when empty): the queue
    /// is swept only once an entry has expired.
    lmq_next: u64,
    drain_queue: VecDeque<PendingStore>,
    /// The thread round-robin stages start at this cycle, in
    /// `0..threads`; it advances by one every cycle.
    rr_offset: usize,
    /// Completion calendar. Event-driven scheduler only.
    calendar: Calendar,
    /// Scratch: slots whose completion falls due this cycle.
    scratch_due: Vec<u32>,
    /// Per-producer-slot wakeup lists: (consumer slot, consumer seq)
    /// registered at dispatch, fired on the producer's Done transition.
    /// Event-driven scheduler only.
    wakeup: Vec<Vec<(u32, u64)>>,
    /// Incremental issue-candidate set. Event-driven scheduler only.
    cands: Candidates,
    /// Scratch: threads with a mispredicted branch resolving this cycle.
    scratch_resolved: Vec<(usize, u64)>,
    /// Scratch: issue candidates for the current cycle (polled).
    scratch_slots: Vec<u32>,
    work: CoreWork,
}

impl Core {
    /// Creates a core in the given configuration.
    #[must_use]
    pub fn new(cfg: CoreConfig) -> Self {
        let state = WarmState::new(&cfg);
        Core::with_state(cfg, state)
    }

    /// Creates a core whose caches, TLBs, and branch predictor start
    /// from `state` (see [`crate::warm::FunctionalWarmer`]) instead of
    /// cold. The pipeline itself (window, queues, calendar) starts empty
    /// either way.
    #[must_use]
    pub fn with_state(cfg: CoreConfig, state: WarmState) -> Self {
        let WarmState {
            predictor,
            mem,
            mmu,
        } = state;
        Core {
            predictor,
            mem,
            mmu,
            act: Activity::default(),
            attr: CycleAttribution::default(),
            threads: Vec::new(),
            slab: Vec::new(),
            deps: Vec::new(),
            free_slots: Vec::new(),
            issue_order: VecDeque::new(),
            window_used: 0,
            issue_queue_used: 0,
            cycle: 0,
            seq: 0,
            div_busy_until: 0,
            mma_ready_at: None,
            mma_last_use: 0,
            lmq: Vec::new(),
            lmq_next: u64::MAX,
            drain_queue: VecDeque::new(),
            rr_offset: 0,
            calendar: Calendar::default(),
            scratch_due: Vec::new(),
            wakeup: Vec::new(),
            cands: Candidates::default(),
            scratch_resolved: Vec::new(),
            scratch_slots: Vec::new(),
            work: CoreWork::default(),
            cfg,
        }
    }

    fn event_driven(&self) -> bool {
        self.cfg.scheduler == Scheduler::EventDriven
    }

    /// The configuration this core models.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Runs one trace per hardware thread to completion (or `max_cycles`)
    /// and returns the results.
    ///
    /// # Panics
    ///
    /// Panics if more traces are supplied than the configured SMT mode
    /// supports, or if no traces are supplied.
    pub fn run(self, traces: Vec<TraceView>, max_cycles: u64) -> SimResult {
        self.run_counted(traces, max_cycles, None).0
    }

    /// Like [`Core::run`], but delivers the simulation to a span-aware
    /// observer: live cycles via [`SpanObserver::on_cycle`] and
    /// fast-forwarded idle stretches via [`SpanObserver::on_span`] with
    /// their closed-form activity delta — so observation no longer forces
    /// per-cycle replay of the event-driven scheduler's skipped cycles.
    ///
    /// # Panics
    ///
    /// Panics if more traces are supplied than the configured SMT mode
    /// supports, or if no traces are supplied.
    pub fn run_spanned(
        self,
        traces: Vec<TraceView>,
        max_cycles: u64,
        observer: &mut dyn SpanObserver,
    ) -> SimResult {
        self.run_counted(traces, max_cycles, Some(observer)).0
    }

    /// Like [`Core::run_spanned`] (or [`Core::run`] when `observer` is
    /// `None`), and also returns the run's [`CoreWork`] counts.
    ///
    /// # Panics
    ///
    /// Panics if more traces are supplied than the configured SMT mode
    /// supports, or if no traces are supplied.
    pub fn run_counted(
        mut self,
        traces: Vec<TraceView>,
        max_cycles: u64,
        mut observer: Option<&mut dyn SpanObserver>,
    ) -> (SimResult, CoreWork) {
        assert!(!traces.is_empty(), "at least one thread trace required");
        assert!(
            traces.len() <= self.cfg.smt.threads(),
            "{} traces exceed SMT mode capacity {}",
            traces.len(),
            self.cfg.smt.threads()
        );
        self.threads = traces.into_iter().map(ThreadState::new).collect();

        let event_driven = self.event_driven();
        while self.cycle < max_cycles && !self.threads.iter().all(ThreadState::fully_done) {
            self.step();
            self.act.cycles = self.cycle;
            if let Some(obs) = observer.as_deref_mut() {
                obs.on_cycle(self.cycle, &self.act);
            }
            if event_driven && self.cycle < max_cycles {
                self.fast_forward(max_cycles, &mut observer);
            }
        }
        self.act.cycles = self.cycle;
        debug_assert_eq!(
            self.attr.total(),
            self.act.cycles,
            "cycle attribution must partition the cycle count"
        );

        let sim = SimResult {
            config_name: self.cfg.name.clone(),
            threads: self.threads.len(),
            per_thread_completed: self.threads.iter().map(|t| t.completed).collect(),
            activity: self.act,
            attribution: self.attr,
        };
        (sim, self.work)
    }

    fn step(&mut self) {
        self.cycle += 1;
        self.work.live_steps += 1;
        self.mma_gate_tick();
        if self.lmq_next <= self.cycle {
            self.work.lmq_sweeps += 1;
            self.lmq.retain(|&t| t > self.cycle);
            self.lmq_next = self.lmq.iter().copied().min().unwrap_or(u64::MAX);
        }
        self.drain_stores();
        self.complete();
        match self.cfg.scheduler {
            Scheduler::Polled => self.advance_execution_polled(),
            Scheduler::EventDriven => self.advance_execution_event(),
        }
        let wake_pre = self.act.mma_wake_stall_cycles;
        let issue = self.issue();
        let mma_wake_fired = self.act.mma_wake_stall_cycles > wake_pre;
        let dispatched_pre = self.act.dispatched;
        let dispatch_stall_pre = self.act.dispatch_stall_cycles;
        self.decode_dispatch();
        let dispatch_blocked = self.act.dispatch_stall_cycles > dispatch_stall_pre
            && self.act.dispatched == dispatched_pre;
        let fetched_pre = self.act.fetched;
        self.fetch();
        let fetch_progress = self.act.fetched > fetched_pre;
        self.act.window_occupancy_acc += u64::from(self.window_used);
        self.advance_rr(1);

        // Cycle attribution: exactly one bucket per cycle, first match
        // wins (see `CycleAttribution` for the bucket definitions).
        if issue.issued_any {
            self.attr.active += 1;
        } else if mma_wake_fired {
            self.attr.mma_gated += 1;
        } else if !self.lmq.is_empty() {
            // Before issue_limited: a zero-issue cycle with a demand miss
            // outstanding is memory-bound even if some op was nominally
            // ready (e.g. a load blocked only by a full LMQ).
            self.attr.memory_bound += 1;
        } else if issue.saw_ready {
            self.attr.issue_limited += 1;
        } else if dispatch_blocked {
            self.attr.dispatch_stalled += 1;
        } else if !fetch_progress && self.threads.iter().any(|t| !t.fetch_done()) {
            self.attr.fetch_stalled += 1;
        } else {
            self.attr.idle += 1;
        }
    }

    /// MMA power-gate bookkeeping: count powered cycles and gate the unit
    /// off after the firmware-selected idle window (§IV-A). Runs at the
    /// top of every cycle, including fast-forwarded idle ones.
    fn mma_gate_tick(&mut self) {
        if let (Some(ready), Some(mma)) = (self.mma_ready_at, self.cfg.mma) {
            self.act.mma_powered_cycles += 1;
            let idle_from = self.mma_last_use.max(ready);
            if self.cycle > idle_from + u64::from(mma.idle_gate_cycles) {
                self.mma_ready_at = None;
            }
        }
    }

    /// Idle-cycle fast-forward (event-driven scheduler). After a stepped
    /// cycle, if nothing can drain, complete, execute, issue, dispatch or
    /// fetch before some future cycle T, jump straight to T-1 and account
    /// the skipped cycles in closed form — the exact state changes
    /// cycle-by-cycle stepping would have made. With an observer attached
    /// the skipped cycles are replayed individually instead so it sees
    /// every cycle's cumulative activity.
    fn fast_forward(&mut self, max_cycles: u64, observer: &mut Observer<'_>) {
        // Anything actionable next cycle means no skip. The tests run
        // cheapest first; `plan_dispatch` comes last.
        if !self.drain_queue.is_empty() {
            return;
        }
        // Ready ops block the skip only if the select network can see
        // them: an op past the lookahead reach cannot issue, and `issue`
        // touches nothing (no MMA wake, no `active_cycles`) before the
        // readiness test, so idling over it is exact. The candidate
        // window is static across the skipped stretch — nothing
        // dispatches, issues, retires or wakes before the horizon.
        if !self.cands.ready_in_reach.is_empty() {
            return;
        }
        // Idle until the earliest future event: a completion on the
        // calendar or a fetch stall expiring.
        let mut horizon = max_cycles.saturating_add(1);
        if let Some(at) = self.calendar.next_after(self.cycle) {
            if at <= self.cycle + 1 {
                return; // a completion next cycle
            }
            horizon = horizon.min(at);
        } else if self.threads.iter().all(ThreadState::fully_done) {
            // A finished run must not skip: the outer loop stops at the
            // last worked cycle, exactly like the polled scheduler. (An
            // executing op keeps its thread unfinished.)
            return;
        }
        for t in &self.threads {
            if let Some(&slot) = t.rob.front() {
                if self.slab[slot as usize].state == UopState::Done {
                    return; // retirement makes progress
                }
            }
            if !t.fetch_done()
                && !t.mispredict_pending
                && t.fetch_buffer.len() < self.cfg.fetch_buffer as usize
            {
                if t.fetch_stall_until > self.cycle + 1 {
                    horizon = horizon.min(t.fetch_stall_until);
                } else {
                    return; // fetch makes progress next cycle
                }
            }
        }
        let target = (horizon - 1).min(max_cycles);
        if target <= self.cycle {
            return;
        }
        let mut dispatch_blocked_threads = 0u64;
        for tid in 0..self.threads.len() {
            if !self.threads[tid].fetch_buffer.is_empty() {
                if self.plan_dispatch(tid).is_some() {
                    return; // dispatch makes progress next cycle
                }
                dispatch_blocked_threads += 1;
            }
        }

        let skipped = target - self.cycle;
        self.work.ff_spans += 1;
        self.work.ff_cycles += skipped;
        // The whole stretch lands in one attribution bucket: nothing
        // issues or is ready (skip precondition), the LMQ is static (its
        // entries are calendar completion times, all >= the horizon), and
        // dispatch/fetch blockedness cannot change before the horizon —
        // so the per-cycle classifier in `step` would pick the same
        // bucket every cycle. Evaluating it once keeps the closed form
        // identical to polled stepping.
        let stall = if !self.lmq.is_empty() {
            StallKind::MemoryBound
        } else if dispatch_blocked_threads > 0 {
            StallKind::DispatchStalled
        } else if self.threads.iter().any(|t| !t.fetch_done()) {
            StallKind::FetchStalled
        } else {
            StallKind::Idle
        };
        if let Some(obs) = observer.as_deref_mut() {
            if !obs.wants_spans() {
                // Per-cycle mode: replay the stretch one cycle at a time
                // so the observer misses nothing.
                for _ in 0..skipped {
                    self.idle_tick(dispatch_blocked_threads, stall);
                    self.act.cycles = self.cycle;
                    obs.on_cycle(self.cycle, &self.act);
                }
                return;
            }
        }
        // Closed-form equivalent of `skipped` idle_tick calls.
        let start = self.cycle + 1;
        #[cfg(debug_assertions)]
        let saved_mma_ready = self.mma_ready_at;
        // Cycles of the stretch during which the MMA unit stays powered
        // (the prefix up to and including the gate-off cycle). This is the
        // only rate change inside a stretch, so it is also where a span
        // must be split to stay homogeneous.
        let mut powered = 0u64;
        if let (Some(ready), Some(mma)) = (self.mma_ready_at, self.cfg.mma) {
            let idle_from = self.mma_last_use.max(ready);
            // mma_gate_tick counts the powered cycle before checking
            // the gate, so the gate-off cycle itself is still powered.
            let gate_off = idle_from + u64::from(mma.idle_gate_cycles) + 1;
            debug_assert!(gate_off > self.cycle);
            powered = skipped.min(gate_off - self.cycle);
            self.act.mma_powered_cycles += powered;
            if target >= gate_off {
                self.mma_ready_at = None;
            }
        }
        self.act.dispatch_stall_cycles += dispatch_blocked_threads * skipped;
        self.act.window_occupancy_acc += u64::from(self.window_used) * skipped;
        *self.attr_bucket(stall) += skipped;
        self.advance_rr(skipped);
        self.cycle = target;
        if observer.is_some() || cfg!(debug_assertions) {
            let window_used = u64::from(self.window_used);
            let span_delta = |len: u64, mma_powered: bool| Activity {
                cycles: len,
                mma_powered_cycles: if mma_powered { len } else { 0 },
                dispatch_stall_cycles: dispatch_blocked_threads * len,
                window_occupancy_acc: window_used * len,
                ..Activity::default()
            };
            // ≤ 2 homogeneous sub-spans, split at the MMA gate-off cycle.
            let spans = [
                (start, powered, span_delta(powered, true)),
                (
                    start + powered,
                    skipped - powered,
                    span_delta(skipped - powered, false),
                ),
            ];
            #[cfg(debug_assertions)]
            self.cross_check_spans(saved_mma_ready, dispatch_blocked_threads, target, &spans);
            if let Some(obs) = observer.as_deref_mut() {
                for (s, len, delta) in &spans {
                    if *len > 0 {
                        obs.on_span(*s, *len, delta);
                    }
                }
            }
        }
        // `lmq` entries expiring inside the skipped stretch need no
        // per-cycle action: the queue is only read by load issue, and the
        // next real step's retain drops everything `<= cycle` first —
        // identical to having stepped the retain each cycle.
    }

    /// One fast-forwarded idle cycle, stepped explicitly (observer mode):
    /// exactly the state a full `step()` changes on a cycle where nothing
    /// drains, completes, executes, issues, dispatches or fetches.
    fn idle_tick(&mut self, dispatch_blocked_threads: u64, stall: StallKind) {
        self.cycle += 1;
        self.mma_gate_tick();
        self.act.dispatch_stall_cycles += dispatch_blocked_threads;
        self.act.window_occupancy_acc += u64::from(self.window_used);
        *self.attr_bucket(stall) += 1;
        self.advance_rr(1);
    }

    /// Debug-build cross-check of the span closed form: replays the
    /// fast-forwarded stretch one cycle at a time (the exact per-cycle
    /// accounting `idle_tick`/`mma_gate_tick` would have performed) and
    /// asserts that each emitted span delta equals the sum of its
    /// replayed per-cycle deltas — the invariant every [`SpanObserver`]
    /// relies on.
    #[cfg(debug_assertions)]
    fn cross_check_spans(
        &self,
        saved_mma_ready: Option<u64>,
        dispatch_blocked_threads: u64,
        target: u64,
        spans: &[(u64, u64, Activity)],
    ) {
        let window_used = u64::from(self.window_used);
        let mut mma_ready = saved_mma_ready;
        let mut covered = 0u64;
        for (s, len, delta) in spans {
            let mut acc = Activity::default();
            for c in *s..s + len {
                // One replayed idle cycle: cycle count, MMA gate tick,
                // dispatch-stall and window-occupancy accounting.
                acc.cycles += 1;
                if let (Some(ready), Some(mma)) = (mma_ready, self.cfg.mma) {
                    acc.mma_powered_cycles += 1;
                    let idle_from = self.mma_last_use.max(ready);
                    if c > idle_from + u64::from(mma.idle_gate_cycles) {
                        mma_ready = None;
                    }
                }
                acc.dispatch_stall_cycles += dispatch_blocked_threads;
                acc.window_occupancy_acc += window_used;
            }
            assert_eq!(
                &acc,
                delta,
                "span [{s}, {}] delta must equal its cycle-by-cycle replay",
                s + len - 1
            );
            covered += len;
            // Homogeneity: every counter is divisible by the span length,
            // so consumers can split the span at any interior cycle.
            if *len > 0 {
                for (name, v) in delta.as_pairs() {
                    assert_eq!(v % len, 0, "{name} must be homogeneous over the span");
                }
            }
        }
        let first = spans.iter().map(|(s, _, _)| *s).min().unwrap_or(target);
        assert_eq!(covered, target - first + 1, "spans must tile the stretch");
        assert_eq!(
            mma_ready, self.mma_ready_at,
            "replayed MMA gate state must match the closed form"
        );
    }

    fn attr_bucket(&mut self, stall: StallKind) -> &mut u64 {
        match stall {
            StallKind::MemoryBound => &mut self.attr.memory_bound,
            StallKind::DispatchStalled => &mut self.attr.dispatch_stalled,
            StallKind::FetchStalled => &mut self.attr.fetch_stalled,
            StallKind::Idle => &mut self.attr.idle,
        }
    }

    /// Thread ids in this cycle's round-robin order, starting at
    /// `rr_offset`.
    fn rr_order(&self) -> impl Iterator<Item = usize> {
        (self.rr_offset..self.threads.len()).chain(0..self.rr_offset)
    }

    /// Moves the round-robin start `cycles` threads on.
    fn advance_rr(&mut self, cycles: u64) {
        let n = self.threads.len() as u64;
        let next = self.rr_offset as u64 + cycles;
        // A single step wraps at most to 0; only a skip needs a division.
        let next = match next.cmp(&n) {
            std::cmp::Ordering::Less => next,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => next % n,
        };
        self.rr_offset = next as usize;
    }

    // ---- completion ----

    fn complete(&mut self) {
        let mut budget = self.cfg.completion_width;
        let mut progressed = true;
        while budget > 0 && progressed {
            progressed = false;
            for tid in self.rr_order() {
                if budget == 0 {
                    break;
                }
                let Some(&slot) = self.threads[tid].rob.front() else {
                    continue;
                };
                if self.slab[slot as usize].state != UopState::Done {
                    continue;
                }
                self.retire(tid, slot);
                budget -= 1;
                progressed = true;
            }
        }
    }

    /// The trace op the entry in `slot` holds.
    fn op(&self, slot: u32) -> DynOp {
        let e = &self.slab[slot as usize];
        self.threads[usize::from(e.tid)].ops.op(e.idx)
    }

    fn retire(&mut self, tid: usize, slot: u32) {
        let e = &mut self.slab[slot as usize];
        debug_assert!(e.active);
        e.active = false;
        let (class, has_dest, seq) = (e.class, e.has_dest, e.seq);
        let owns_sq = u8::from(e.owns_sq);
        debug_assert!(
            !self.event_driven() || self.wakeup[slot as usize].is_empty(),
            "retiring producer with unfired wakeups"
        );
        self.threads[tid].rob.pop_front();
        self.free_slots.push(slot);
        self.window_used -= 1;
        self.threads[tid].completed += 1;
        self.act.completed += 1;
        self.act.completion_slots += 1;
        if has_dest {
            self.act.regfile_writes += 1;
        }

        match class {
            OpClass::Load => {
                self.threads[tid].lq_used -= 1;
            }
            OpClass::Store => {
                let m = self.op(slot).mem.expect("store has mem");
                // Store gathering: merge with the tail of the drain queue
                // when adjacent (POWER10), retiring up to two SQ entries
                // per cycle worth of work in one drain slot.
                let merged = self.cfg.store_merge
                    && self.drain_queue.back().is_some_and(|p| {
                        p.tid == tid as u8
                            && p.addr + u64::from(p.size) == m.addr
                            && u32::from(p.size) + u32::from(m.size) <= 64
                    });
                if merged {
                    let back = self.drain_queue.back_mut().expect("checked above");
                    back.size += m.size;
                    back.sq_entries += owns_sq;
                    self.act.store_merges += 1;
                } else {
                    self.drain_queue.push_back(PendingStore {
                        tid: tid as u8,
                        addr: m.addr,
                        size: m.size,
                        seq,
                        sq_entries: owns_sq,
                    });
                }
            }
            _ => {}
        }
    }

    fn drain_stores(&mut self) {
        for _ in 0..self.cfg.store_drain_per_cycle {
            let Some(p) = self.drain_queue.pop_front() else {
                break;
            };
            let tid = p.tid as usize;
            // EA-tagged L1: translate only on L1 miss; RA-tagged: the
            // translation already happened at issue.
            let (_lat, lvl) = self.mem.access_data(p.addr, &mut self.act);
            if self.cfg.ea_tagged_l1 && lvl != crate::cache::HitLevel::L1 {
                self.mmu
                    .translate(p.addr, TranslateSide::Data, &mut self.act);
            }
            self.threads[tid].sq_used = self.threads[tid]
                .sq_used
                .saturating_sub(u32::from(p.sq_entries));
            // Remove from the forwarding window. Stores retire — and
            // therefore drain — in per-thread seq order, so the window's
            // front holds everything up to `p.seq`: pop from the front
            // instead of scanning. A merged drain slot carries the seq of
            // its *oldest* store; its younger merged partners (which the
            // scan version leaked forever) are swept out by the thread's
            // next drain.
            let sw = &mut self.threads[tid].store_window;
            while let Some(&(s, ..)) = sw.front() {
                if s > p.seq {
                    break;
                }
                sw.pop_front();
            }
        }
    }

    // ---- execution progress ----

    /// Reference (polled) execution advance: scan the whole slab for ops
    /// whose latency elapsed.
    fn advance_execution_polled(&mut self) {
        let cycle = self.cycle;
        self.scratch_resolved.clear();
        for e in &mut self.slab {
            if !e.active {
                continue;
            }
            if let UopState::Executing { done_at } = e.state {
                if done_at <= cycle {
                    e.state = UopState::Done;
                    if e.mispredicted {
                        self.scratch_resolved
                            .push((usize::from(e.tid), e.fetch_cycle));
                    }
                }
            }
        }
        self.resolve_mispredicts();
    }

    /// Event-driven execution advance: pop only the ops whose completion
    /// fires this cycle off the calendar and wake their consumers.
    fn advance_execution_event(&mut self) {
        let cycle = self.cycle;
        self.scratch_resolved.clear();
        let mut due = std::mem::take(&mut self.scratch_due);
        self.calendar.drain_due(cycle, &mut due);
        self.work.calendar_pops += due.len() as u64;
        // The order within a cycle is immaterial: wakeups land in a
        // seq-sorted candidate set and mispredict resolution commutes.
        for &slot in &due {
            // Calendar entries are never stale: an executing op is pushed
            // exactly once, and its slot can only be recycled after retire,
            // which requires the Done transition made here first.
            let e = &mut self.slab[slot as usize];
            debug_assert!(e.active);
            let UopState::Executing { done_at } = e.state else {
                unreachable!("calendar entry for non-executing op")
            };
            debug_assert!(done_at <= cycle);
            e.state = UopState::Done;
            if e.mispredicted {
                self.scratch_resolved
                    .push((usize::from(e.tid), e.fetch_cycle));
            }
            self.fire_wakeups(slot);
        }
        due.clear();
        self.scratch_due = due;
        self.resolve_mispredicts();
    }

    /// A producer became Done: notify the consumers registered against it.
    fn fire_wakeups(&mut self, producer: u32) {
        let list = &mut self.wakeup[producer as usize];
        self.work.wakeup_walks += list.len() as u64;
        for (cslot, cseq) in list.drain(..) {
            self.cands.wake(cslot, cseq);
        }
    }

    /// Applies the fetch-redirect effects of mispredicted branches that
    /// finished executing this cycle (collected in `scratch_resolved`).
    fn resolve_mispredicts(&mut self) {
        for i in 0..self.scratch_resolved.len() {
            let (tid, fetch_cycle) = self.scratch_resolved[i];
            let t = &mut self.threads[tid];
            // Fetch stops at the first mispredicted branch, so at most one
            // is in flight per thread; resolving it unblocks fetch.
            t.mispredict_pending = false;
            let penalty = u64::from(self.predictor.mispredict_penalty());
            t.fetch_stall_until = t.fetch_stall_until.max(self.cycle + penalty);
            self.act.branch_mispredicts += 1;
            // Estimate of wrong-path work the real front end performed
            // between fetching the branch and the redirect completing.
            // The fetch-side run-ahead is bounded: once the front end backs
            // up (e.g. behind a long cache miss) wrong-path fetch stops, so
            // the window is capped at a fixed horizon.
            let run_ahead = (self.cycle - fetch_cycle).min(16);
            let window = run_ahead + penalty;
            self.act.wrong_path_fetched += window * u64::from(self.cfg.fetch_width) / 2;
            self.act.flushed += window * u64::from(self.cfg.fetch_width) / 2;
        }
        self.scratch_resolved.clear();
    }

    // ---- issue ----

    fn dep_ready(&self, dep: (u32, u64)) -> bool {
        let (slot, seq) = dep;
        if slot == NO_SLOT {
            return true;
        }
        let e = &self.slab[slot as usize];
        !e.active || e.seq != seq || e.state == UopState::Done
    }

    fn deps_ready(&self, slot: u32, ignore: Option<u32>) -> bool {
        self.deps[slot as usize]
            .iter()
            .all(|&d| d.0 == NO_SLOT || Some(d.0) == ignore || self.dep_ready(d))
    }

    fn issue(&mut self) -> IssueSummary {
        let mut units = IssueUnits::new(&self.cfg);
        let (issued_any, saw_ready) = match self.cfg.scheduler {
            Scheduler::Polled => self.issue_polled(&mut units),
            Scheduler::EventDriven => self.issue_event(&mut units),
        };
        if issued_any {
            self.act.active_cycles += 1;
        }
        if units.mma_active {
            self.act.mma_active_cycles += 1;
        }
        IssueSummary {
            issued_any,
            saw_ready,
        }
    }

    /// How many of the oldest waiting ops the select network sees.
    fn reach(&self) -> u32 {
        self.cfg.issue_lookahead.max(1)
    }

    /// Reference (polled) issue: compact the queue and rescan the oldest
    /// `reach` waiting ops for ready ones every cycle. Returns
    /// `(issued_any, saw_ready)`.
    fn issue_polled(&mut self, units: &mut IssueUnits) -> (bool, bool) {
        let slab = &self.slab;
        self.work.issue_scan += self.issue_order.len() as u64;
        self.issue_order.retain(|&(s, q)| {
            let e = &slab[s as usize];
            e.active && e.seq == q && e.state == UopState::Waiting
        });
        // The scheduler considers the oldest `reach` still-waiting ops —
        // ready or not — mirroring a real select network's span.
        let reach = self.reach() as usize;
        self.scratch_slots.clear();
        self.scratch_slots
            .extend(self.issue_order.iter().take(reach).map(|&(s, _)| s));
        let mut issued_any = false;
        let mut saw_ready = false;
        for i in 0..self.scratch_slots.len() {
            let slot = self.scratch_slots[i];
            self.work.issue_scan += 1;
            let e = &self.slab[slot as usize];
            if !e.active || e.state != UopState::Waiting || !self.deps_ready(slot, None) {
                continue;
            }
            saw_ready = true;
            issued_any |= self.try_issue(slot, units);
        }
        (issued_any, saw_ready)
    }

    /// Event-driven issue: walk only the ready ops inside the reach, then
    /// move the frontier past the places the issued ones freed. Returns
    /// `(issued_any, saw_ready)`.
    fn issue_event(&mut self, units: &mut IssueUnits) -> (bool, bool) {
        #[cfg(debug_assertions)]
        self.cross_check_candidates();
        // Nothing joins the candidates during the loop: wakeups ran before
        // it and the refill runs after it, so this cycle's candidate set
        // is the one a full scan finds at its start.
        let n = self.cands.ready_in_reach.len();
        let mut kept = 0;
        let mut issued_any = false;
        for i in 0..n {
            let slot = self.cands.ready_in_reach[i];
            self.work.issue_scan += 1;
            if self.cands.wait_seq[slot as usize] == 0 {
                continue; // a fused partner that issued with its head
            }
            debug_assert!(self.deps_ready(slot, None));
            if self.try_issue(slot, units) {
                issued_any = true;
            } else {
                self.cands.ready_in_reach[kept] = slot;
                kept += 1;
            }
        }
        debug_assert_eq!(self.cands.ready_in_reach.len(), n);
        self.cands.ready_in_reach.truncate(kept);
        if issued_any {
            let reach = self.reach();
            self.work.issue_scan += self.cands.fill(reach);
        }
        (issued_any, n > 0)
    }

    /// Debug-build cross-check of the incremental candidate set against a
    /// full scan, run every live cycle and mirroring `cross_check_spans`:
    /// the reach holds the oldest `reach` waiting ops, and the candidates
    /// are the ready ones among them in program order, which is what the
    /// polled scheduler finds. The scan merges the per-thread ROBs (each
    /// in seq order) by seq.
    #[cfg(debug_assertions)]
    fn cross_check_candidates(&self) {
        let mut pos = [0usize; MAX_THREADS];
        let mut cands = self.cands.ready_in_reach.iter();
        let mut in_reach = 0;
        while in_reach < self.reach() {
            // The oldest not yet visited waiting op of any thread.
            let mut oldest: Option<(u64, usize, u32)> = None;
            for (tid, t) in self.threads.iter().enumerate() {
                while let Some(&slot) = t.rob.get(pos[tid]) {
                    let e = &self.slab[slot as usize];
                    if e.state == UopState::Waiting {
                        if oldest.is_none_or(|(seq, ..)| e.seq < seq) {
                            oldest = Some((e.seq, tid, slot));
                        }
                        break;
                    }
                    pos[tid] += 1;
                }
            }
            let Some((_, tid, slot)) = oldest else {
                break;
            };
            pos[tid] += 1;
            in_reach += 1;
            if self.deps_ready(slot, None) {
                assert_eq!(
                    cands.next(),
                    Some(&slot),
                    "issue candidates must equal a full scan at cycle {}",
                    self.cycle
                );
            }
        }
        assert_eq!(
            cands.next(),
            None,
            "issue candidates must equal a full scan at cycle {}",
            self.cycle
        );
        assert_eq!(
            self.cands.in_reach, in_reach,
            "reach must hold the oldest waiting ops at cycle {}",
            self.cycle
        );
    }

    /// Starts the ready op in `slot` if a unit is free this cycle, with its
    /// fused partner when that is ready too; returns whether it issued. A
    /// blocked MMA op still opens the power gate.
    fn try_issue(&mut self, slot: u32, units: &mut IssueUnits) -> bool {
        let (class, tid) = {
            let e = &self.slab[slot as usize];
            (e.class, usize::from(e.tid))
        };
        let done_at = match class {
            OpClass::Hint => {
                // The architected MMA wake-up hint powers the unit on
                // ahead of use, hiding the wake latency (§IV-A).
                if self.cfg.mma.is_some() {
                    self.power_mma_on();
                }
                Some(self.cycle)
            }
            OpClass::Nop => Some(self.cycle), // complete immediately
            OpClass::IntAlu | OpClass::MoveSpr => take(&mut units.int).then_some(self.cycle + 1),
            OpClass::IntMul => {
                take(&mut units.int).then_some(self.cycle + u64::from(self.cfg.mul_latency))
            }
            OpClass::IntDiv => {
                if self.div_busy_until <= self.cycle && take(&mut units.int) {
                    self.div_busy_until = self.cycle + u64::from(self.cfg.div_latency);
                    Some(self.cycle + u64::from(self.cfg.div_latency))
                } else {
                    None
                }
            }
            OpClass::Branch => take(&mut units.branch).then_some(self.cycle + 1),
            OpClass::VsxSimple => take(&mut units.vsx).then_some(self.cycle + 2),
            OpClass::VsxFp => {
                take(&mut units.vsx).then_some(self.cycle + u64::from(self.cfg.vsx_fp_latency))
            }
            OpClass::Mma(kind) => {
                let lanes = match kind {
                    MmaKind::F64 => 8,
                    MmaKind::F32 | MmaKind::Bf16 | MmaKind::I8 => 16,
                };
                let mma = self.cfg.mma.expect("mma op requires mma unit");
                if !self.mma_powered_on() {
                    // Demand wake: the op waits out the power-on.
                    self.power_mma_on();
                    self.act.mma_wake_stall_cycles += 1;
                    None
                } else if units.mma_lanes >= lanes {
                    units.mma_lanes -= lanes;
                    units.mma_active = true;
                    self.mma_last_use = self.cycle;
                    // Back-to-back accumulator chaining is short; the
                    // full result latency applies to non-acc consumers
                    // (xxmfacc), modeled via the MmaMove latency below.
                    Some(self.cycle + u64::from(mma.acc_chain_latency))
                } else {
                    None
                }
            }
            OpClass::MmaMove => {
                if self.cfg.mma.is_some() && !self.mma_powered_on() {
                    self.power_mma_on();
                    self.act.mma_wake_stall_cycles += 1;
                    None
                } else if take(&mut units.mma_move) {
                    let lat = self.cfg.mma.map_or(2, |m| u64::from(m.result_latency));
                    self.mma_last_use = self.cycle;
                    Some(self.cycle + lat)
                } else {
                    None
                }
            }
            OpClass::Load => {
                if (self.lmq.len() as u32) < self.cfg.load_miss_queue && take(&mut units.load) {
                    Some(self.issue_load(slot, tid))
                } else {
                    None
                }
            }
            OpClass::Store => {
                if take(&mut units.store) {
                    Some(self.issue_store(slot, tid))
                } else {
                    None
                }
            }
        };
        let Some(done_at) = done_at else {
            return false;
        };
        self.start_execution(slot, done_at);

        // Fused pair: if the partner's other deps are ready, execute it
        // together with the head (zero-latency dependent execution). A
        // fused dependent op finishes with its head.
        let pair = self.slab[slot as usize].pair;
        if pair != NO_SLOT {
            let p = &self.slab[pair as usize];
            if p.active && p.state == UopState::Waiting && self.deps_ready(pair, Some(slot)) {
                match p.class {
                    OpClass::Store => {
                        // Second of a fused store pair: shares the head's
                        // address-generation; mark executed.
                        let seq = p.seq;
                        if let Some(s) = self.threads[tid]
                            .store_window
                            .iter_mut()
                            .find(|s| s.0 == seq)
                        {
                            s.3 = true;
                        }
                        self.act.stores += 1;
                    }
                    OpClass::Branch => self.act.branch_ops += 1,
                    _ => self.act.alu_ops += 1,
                }
                // No regfile-read or unit-op recount for the partner.
                self.begin_execution(pair, done_at);
                self.act.issued += 1;
            }
        }
        true
    }

    /// Whether the MMA unit is powered and ready this cycle.
    fn mma_powered_on(&self) -> bool {
        self.mma_ready_at.is_some_and(|r| r <= self.cycle)
    }

    /// Opens the MMA power gate (idempotent while powering on).
    fn power_mma_on(&mut self) {
        if self.mma_ready_at.is_none() {
            let wake = self.cfg.mma.map_or(0, |m| u64::from(m.wake_latency));
            self.mma_ready_at = Some(self.cycle + wake);
        }
    }

    /// The Waiting→Executing transition, shared by an issued op and its
    /// fused partner: frees the issue-queue entry and, under the
    /// event-driven scheduler, leaves the candidate set and books the
    /// completion on the calendar.
    fn begin_execution(&mut self, slot: u32, done_at: u64) {
        let e = &mut self.slab[slot as usize];
        debug_assert_eq!(e.state, UopState::Waiting);
        e.state = UopState::Executing { done_at };
        // Issue-queue entry is freed once the op issues (reservation
        // stations and issue queues alike hold ops only until issue).
        if !e.is_pair_second {
            self.issue_queue_used = self.issue_queue_used.saturating_sub(1);
        }
        if self.event_driven() {
            self.cands.issue(slot);
            // Ops whose latency already elapsed (Nop/Hint complete "this"
            // cycle) are still observed Done only on the next advance.
            self.calendar
                .push(self.cycle, done_at.max(self.cycle + 1), slot);
            self.work.calendar_pushes += 1;
        }
    }

    fn start_execution(&mut self, slot: u32, done_at: u64) {
        self.begin_execution(slot, done_at);
        let (class, srcs) = {
            let e = &self.slab[slot as usize];
            (e.class, u64::from(e.srcs))
        };
        self.act.issued += 1;
        self.act.regfile_reads += srcs;
        match class {
            OpClass::IntAlu | OpClass::MoveSpr => self.act.alu_ops += 1,
            OpClass::IntMul => self.act.mul_ops += 1,
            OpClass::IntDiv => self.act.div_ops += 1,
            OpClass::Branch => self.act.branch_ops += 1,
            OpClass::VsxSimple => self.act.vsx_simple_ops += 1,
            OpClass::VsxFp => {
                self.act.vsx_fp_ops += 1;
                self.act.vsx_flops += u64::from(self.op(slot).flops);
            }
            OpClass::Mma(_) => {
                self.act.mma_ops += 1;
                self.act.mma_flops += u64::from(self.op(slot).flops);
            }
            OpClass::MmaMove => self.act.mma_moves += 1,
            OpClass::Load => self.act.loads += 1,
            OpClass::Store => self.act.stores += 1,
            OpClass::Nop | OpClass::Hint => {}
        }
    }

    fn issue_load(&mut self, slot: u32, tid: usize) -> u64 {
        let m = self.op(slot).mem.expect("load has mem");
        let seq = self.slab[slot as usize].seq;

        // Translation policy: RA-tagged L1 translates on every access.
        let mut extra = 0u64;
        if !self.cfg.ea_tagged_l1 {
            extra += u64::from(
                self.mmu
                    .translate(m.addr, TranslateSide::Data, &mut self.act),
            );
        }

        // Store-to-load forwarding from older stores in this thread.
        let mut forward = false;
        let mut conflict_unready = false;
        for &(sseq, saddr, ssize, sexec) in self.threads[tid].store_window.iter().rev() {
            if sseq >= seq {
                continue;
            }
            let s_end = saddr + u64::from(ssize);
            let l_end = m.addr + u64::from(m.size);
            let overlap = saddr < l_end && m.addr < s_end;
            if !overlap {
                continue;
            }
            let contains = saddr <= m.addr && l_end <= s_end;
            if sexec && contains {
                forward = true;
            } else {
                conflict_unready = true;
            }
            break; // youngest older overlapping store decides
        }

        if forward {
            self.act.store_forwards += 1;
            return self.cycle + u64::from(self.cfg.l1d.latency) + extra;
        }
        if conflict_unready {
            // Conservative: wait a few cycles and replay through the cache.
            extra += 4;
        }

        let (lat, lvl) = self.mem.access_data(m.addr, &mut self.act);
        let missed_l1 = lvl != crate::cache::HitLevel::L1;
        if missed_l1 {
            if self.cfg.ea_tagged_l1 {
                extra += u64::from(
                    self.mmu
                        .translate(m.addr, TranslateSide::Data, &mut self.act),
                );
            }
            let done = self.cycle + u64::from(lat) + extra;
            self.lmq.push(done);
            self.lmq_next = self.lmq_next.min(done);
            done
        } else {
            self.cycle + u64::from(lat) + extra
        }
    }

    fn issue_store(&mut self, slot: u32, tid: usize) -> u64 {
        let m = self.op(slot).mem.expect("store has mem");
        let seq = self.slab[slot as usize].seq;
        let mut extra = 0u64;
        if !self.cfg.ea_tagged_l1 {
            extra += u64::from(
                self.mmu
                    .translate(m.addr, TranslateSide::Data, &mut self.act),
            );
        }
        // Address generation done; data considered available one cycle
        // later. The cache write happens post-completion at drain.
        if let Some(s) = self.threads[tid]
            .store_window
            .iter_mut()
            .find(|s| s.0 == seq)
        {
            s.3 = true;
        }
        self.cycle + 1 + extra
    }

    // ---- decode + dispatch ----

    fn decode_dispatch(&mut self) {
        let mut budget = self.cfg.decode_width;
        let mut blocked = [false; MAX_THREADS];
        let mut progressed = true;
        while budget > 0 && progressed {
            progressed = false;
            for tid in self.rr_order() {
                if budget == 0 {
                    break;
                }
                if blocked[tid] || self.threads[tid].fetch_buffer.is_empty() {
                    continue;
                }
                match self.try_dispatch_one(tid) {
                    DispatchOutcome::Dispatched { fused } => {
                        budget -= 1;
                        if fused {
                            self.act.fused_pairs += 1;
                        }
                        progressed = true;
                    }
                    DispatchOutcome::Blocked => {
                        blocked[tid] = true;
                        self.act.dispatch_stall_cycles += 1;
                    }
                }
            }
        }
    }

    /// Checks whether the head of `tid`'s fetch buffer (plus fused
    /// partner) fits the window/issue-queue/LQ/SQ this cycle, returning
    /// the dispatch footprint, or `None` when a resource blocks. Shared by
    /// [`Core::try_dispatch_one`] and the fast-forward dispatch-progress
    /// check; it changes no simulated state.
    fn plan_dispatch(&mut self, tid: usize) -> Option<DispatchPlan> {
        let plan = self.dispatch_needs(tid);
        let pair_count: u32 = if plan.fuse.is_some() { 2 } else { 1 };
        // Resource checks.
        if self.window_used + pair_count > self.cfg.itable_entries {
            return None;
        }
        let iq_needed = match plan.fuse {
            Some(k) if k.single_issue_entry() => 1,
            Some(_) => 2,
            None => 1,
        };
        if self.issue_queue_used + iq_needed > self.cfg.issue_queue_entries {
            return None;
        }
        let t = &self.threads[tid];
        if t.lq_used + plan.lq_need > self.cfg.load_queue_per_thread()
            || t.sq_used + plan.sq_need > self.cfg.store_queue_per_thread()
        {
            return None;
        }
        Some(plan)
    }

    /// What dispatching the head of `tid`'s fetch buffer (plus fused
    /// partner) needs. The needs depend only on the head's trace index
    /// and on whether a partner is buffered behind it, so they are kept
    /// per thread under that key: a head that stays blocked re-checks only
    /// the resource counts.
    fn dispatch_needs(&mut self, tid: usize) -> DispatchPlan {
        // Peek head (and successor for fusion). The fetch buffer holds
        // consecutive trace ops.
        let t = &self.threads[tid];
        let head = t.fetch_buffer.front().expect("caller checked");
        let head_idx = head.idx;
        let has_second = self.cfg.fusion && t.fetch_buffer.len() >= 2;
        if let Some((idx, second, plan)) = t.dispatch_needs {
            if (idx, second) == (head_idx, has_second) {
                return plan;
            }
        }
        let head_op = &head.op;
        let second_op = has_second.then(|| &t.fetch_buffer[1].op);
        let fuse = second_op.and_then(|second| fusion::classify_pair(head_op, second));
        let second_op = second_op.filter(|_| fuse.is_some());
        let needs_lq = |op: &DynOp| u32::from(op.is_load());
        let needs_sq = |op: &DynOp| u32::from(op.is_store());
        let lq_need = needs_lq(head_op) + second_op.map_or(0, needs_lq);
        // A fused store pair of small stores shares one SQ entry.
        let shared_sq = fuse == Some(FusionKind::StorePair)
            && second_op.is_some_and(|second| fusion::store_pair_single_sq_entry(head_op, second));
        let sq_need = if shared_sq {
            1
        } else {
            needs_sq(head_op) + second_op.map_or(0, needs_sq)
        };
        let plan = DispatchPlan {
            fuse,
            shared_sq,
            lq_need,
            sq_need,
        };
        self.work.dispatch_plans += 1;
        self.threads[tid].dispatch_needs = Some((head_idx, has_second, plan));
        plan
    }

    fn try_dispatch_one(&mut self, tid: usize) -> DispatchOutcome {
        let Some(plan) = self.plan_dispatch(tid) else {
            return DispatchOutcome::Blocked;
        };

        // Commit: pop and install.
        let head = self.threads[tid].fetch_buffer.pop_front().expect("checked");
        let head_slot = self.install(tid, head, false, true);
        self.threads[tid].lq_used += plan.lq_need;
        self.threads[tid].sq_used += plan.sq_need;
        if let Some(kind) = plan.fuse {
            let second = self.threads[tid].fetch_buffer.pop_front().expect("checked");
            let second_slot = self.install(tid, second, kind.single_issue_entry(), !plan.shared_sq);
            self.slab[head_slot as usize].pair = second_slot;
            self.act.decoded += 2;
            self.act.dispatched += 2;
            DispatchOutcome::Dispatched { fused: true }
        } else {
            self.act.decoded += 1;
            self.act.dispatched += 1;
            DispatchOutcome::Dispatched { fused: false }
        }
    }

    fn install(&mut self, tid: usize, f: FetchedOp, is_pair_second: bool, owns_sq: bool) -> u32 {
        self.seq += 1;
        let seq = self.seq;
        let slot = self
            .free_slots
            .pop()
            .unwrap_or(u32::try_from(self.slab.len()).expect("slab fits u32 slots"));
        let event_driven = self.event_driven();
        let t = &self.threads[tid];
        let op = &f.op;
        let (class, dests, store) = (
            op.class,
            [op.dest(), op.dest2()],
            op.is_store().then(|| op.mem.expect("store has mem")),
        );
        let mut deps = [(NO_SLOT, 0u64); MAX_SRCS];
        let mut srcs = 0u8;
        let mut waiting_on = 0u8;
        for (i, src) in op.sources().enumerate() {
            srcs += 1;
            let (pslot, pseq) = t.rename[usize::from(src.packed())];
            if pslot != NO_SLOT {
                let e = &self.slab[pslot as usize];
                if e.active && e.seq == pseq {
                    deps[i] = (pslot, pseq);
                    // A producer not yet Done must wake this op when it
                    // finishes (event-driven scheduler); resolved ones
                    // need no tracking.
                    if event_driven && e.state != UopState::Done {
                        waiting_on += 1;
                        self.wakeup[pslot as usize].push((slot, seq));
                    }
                }
            }
        }
        let entry = InFlight {
            class,
            srcs,
            has_dest: dests[0].is_some(),
            idx: f.idx,
            tid: tid as u8,
            seq,
            fetch_cycle: f.fetch_cycle,
            state: UopState::Waiting,
            mispredicted: f.mispredicted,
            pair: NO_SLOT,
            is_pair_second,
            owns_sq,
            active: true,
        };
        if slot as usize == self.slab.len() {
            self.slab.push(entry);
            self.deps.push(deps);
            self.wakeup.push(Vec::new());
            self.cands.grow();
        } else {
            debug_assert!(self.wakeup[slot as usize].is_empty());
            self.slab[slot as usize] = entry;
            self.deps[slot as usize] = deps;
        }
        // Update rename map for destinations.
        let t = &mut self.threads[tid];
        for d in dests.into_iter().flatten() {
            t.rename[usize::from(d.packed())] = (slot, seq);
        }
        t.rob.push_back(slot);
        if let Some(m) = store {
            t.store_window.push_back((seq, m.addr, m.size, false));
        }
        self.window_used += 1;
        if !is_pair_second {
            self.issue_queue_used += 1;
        }
        if event_driven {
            let reach = self.reach();
            self.work.issue_scan += self.cands.dispatch(slot, seq, waiting_on, reach);
        } else {
            self.issue_order.push_back((slot, seq));
        }
        slot
    }

    // ---- fetch ----

    fn fetch(&mut self) {
        let n = self.threads.len();
        match self.cfg.fetch_policy {
            crate::config::FetchPolicy::RoundRobin => {
                for tid in self.rr_order() {
                    self.fetch_thread(tid);
                }
            }
            crate::config::FetchPolicy::ICount => {
                // Fewest in-flight (fetch buffer + ROB) first, ties in
                // thread order.
                let mut order = [0usize; MAX_THREADS];
                let order = &mut order[..n];
                for (tid, o) in order.iter_mut().enumerate() {
                    *o = tid;
                }
                order.sort_unstable_by_key(|&t| {
                    (
                        self.threads[t].fetch_buffer.len() + self.threads[t].rob.len(),
                        t,
                    )
                });
                for &tid in order.iter() {
                    self.fetch_thread(tid);
                }
            }
        }
    }

    fn fetch_thread(&mut self, tid: usize) {
        {
            let t = &self.threads[tid];
            if t.fetch_done() || t.mispredict_pending || t.fetch_stall_until > self.cycle {
                return;
            }
            if t.fetch_buffer.len() >= self.cfg.fetch_buffer as usize {
                return;
            }
        }

        // One I-cache access per fetch group.
        let pc = self.threads[tid].ops.op(self.threads[tid].fetch_idx).pc;
        if !self.cfg.ea_tagged_l1 {
            let extra = self.mmu.translate(pc, TranslateSide::Inst, &mut self.act);
            if extra > 0 {
                self.act.itlb_stall_cycles += u64::from(extra);
                self.threads[tid].fetch_stall_until = self.cycle + u64::from(extra);
                return;
            }
        }
        let (lat, hit) = self.mem.access_inst(pc, &mut self.act);
        if !hit {
            if self.cfg.ea_tagged_l1 {
                let extra = self.mmu.translate(pc, TranslateSide::Inst, &mut self.act);
                self.act.itlb_stall_cycles += u64::from(extra);
                self.threads[tid].fetch_stall_until =
                    self.cycle + u64::from(lat) + u64::from(extra);
            } else {
                self.threads[tid].fetch_stall_until = self.cycle + u64::from(lat);
            }
            return;
        }

        let mut slots = self.cfg.fetch_width;
        while slots > 0 {
            let t = &self.threads[tid];
            if t.fetch_done() || t.fetch_buffer.len() >= self.cfg.fetch_buffer as usize {
                break;
            }
            let idx = t.fetch_idx;
            let op = t.ops.op(idx);
            let (prefixed, pc, branch) = (op.prefixed, op.pc, op.branch);
            let cost = if prefixed { 2 } else { 1 };
            if cost > slots {
                break;
            }
            slots -= cost;
            self.threads[tid].fetch_idx += 1;
            self.act.fetched += 1;

            let mut mispredicted = false;
            if let Some(info) = branch {
                let fallthrough = pc + 4;
                let pred = self
                    .predictor
                    .predict_and_train(tid, pc, &info, fallthrough);
                if pred.predicted {
                    self.act.branch_predictions += 1;
                }
                mispredicted = !pred.correct;
            }
            let fetched = FetchedOp {
                idx,
                op,
                mispredicted,
                fetch_cycle: self.cycle,
            };
            let is_taken_branch = branch.is_some_and(|b| b.taken);
            self.threads[tid].fetch_buffer.push_back(fetched);
            if mispredicted {
                // Fetch stalls here until the branch resolves; at most one
                // mispredicted branch is in flight per thread.
                self.threads[tid].mispredict_pending = true;
                break;
            }
            if is_taken_branch {
                break; // cannot fetch past a taken branch this cycle
            }
        }
    }
}

/// Issue resources still free this cycle.
#[derive(Debug)]
struct IssueUnits {
    int: u32,
    branch: u32,
    vsx: u32,
    load: u32,
    store: u32,
    mma_lanes: u32,
    mma_move: u32,
    /// An MMA op started on the grid this cycle.
    mma_active: bool,
}

impl IssueUnits {
    fn new(cfg: &CoreConfig) -> Self {
        IssueUnits {
            int: cfg.int_slices,
            branch: cfg.branch_slices,
            vsx: cfg.vsx_units,
            load: cfg.load_ports,
            store: cfg.store_ports,
            mma_lanes: cfg.mma.map_or(0, |m| m.grid_lanes),
            mma_move: 1,
            mma_active: false,
        }
    }
}

/// Takes one unit from a free count; false when none is left.
fn take(free: &mut u32) -> bool {
    if *free > 0 {
        *free -= 1;
        true
    } else {
        false
    }
}

/// What the issue stage saw this cycle (input to cycle attribution).
#[derive(Debug, Clone, Copy)]
struct IssueSummary {
    /// At least one op started execution.
    issued_any: bool,
    /// At least one candidate within the lookahead had its deps resolved
    /// (whether or not a structural limit then blocked it).
    saw_ready: bool,
}

/// Which attribution bucket a fast-forwarded idle stretch belongs to
/// (static across the stretch — see `fast_forward`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallKind {
    MemoryBound,
    DispatchStalled,
    FetchStalled,
    Idle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchOutcome {
    Dispatched { fused: bool },
    Blocked,
}

/// Resource footprint of dispatching one fetch-buffer head (+ partner).
#[derive(Debug, Clone, Copy)]
struct DispatchPlan {
    fuse: Option<FusionKind>,
    /// The fused pair is a store pair sharing one SQ entry.
    shared_sq: bool,
    lq_need: u32,
    sq_need: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmtMode;
    use p10_isa::{Inst, Machine, ProgramBuilder, Reg, TraceView};

    /// An L1-contained counted loop of `iters` iterations with `body_alus`
    /// independent adds per iteration.
    fn alu_loop_trace(iters: i64, body_alus: u16) -> TraceView {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), iters);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        for k in 0..body_alus {
            let r = 5 + (k % 20);
            b.addi(Reg::gpr(r), Reg::gpr(r), 1);
        }
        b.bdnz(top);
        let prog = b.build();
        Machine::new().run(&prog, 10_000_000).expect("loop runs")
    }

    fn run_cfg(cfg: CoreConfig, trace: TraceView) -> SimResult {
        Core::new(cfg).run(vec![trace], 10_000_000)
    }

    #[test]
    fn all_ops_complete() {
        let t = alu_loop_trace(100, 8);
        let n = t.len() as u64;
        let r = run_cfg(CoreConfig::power10(), t);
        assert_eq!(r.activity.completed, n);
        assert_eq!(r.per_thread_completed, vec![n]);
    }

    #[test]
    fn ipc_is_superscalar_on_independent_alus() {
        let t = alu_loop_trace(2000, 8);
        let r = run_cfg(CoreConfig::power10(), t);
        assert!(
            r.ipc() > 2.0,
            "independent ALU loop should run superscalar, ipc = {}",
            r.ipc()
        );
        assert!(r.ipc() <= 8.0);
    }

    #[test]
    fn dependent_chain_is_serialized() {
        // One long dependent chain: IPC near 1 even on a wide core
        // (fusion pairs adjacent dependent adds, capping at ~2).
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), 2000);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        for _ in 0..8 {
            b.addi(Reg::gpr(5), Reg::gpr(5), 1);
        }
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 1_000_000).unwrap();
        let mut cfg = CoreConfig::power10();
        cfg.fusion = false;
        let r = run_cfg(cfg, t);
        assert!(
            r.ipc() < 1.6,
            "dependent chain must serialize, ipc = {}",
            r.ipc()
        );
    }

    #[test]
    fn power10_outperforms_power9_on_wide_loop() {
        let t = alu_loop_trace(3000, 10);
        let r9 = run_cfg(CoreConfig::power9(), t.clone());
        let r10 = run_cfg(CoreConfig::power10(), t);
        assert!(
            r10.ipc() > r9.ipc(),
            "P10 ipc {} must beat P9 ipc {}",
            r10.ipc(),
            r9.ipc()
        );
    }

    #[test]
    fn fusion_detects_dependent_pairs() {
        // Adjacent dependent adds (fusible) plus cmp+branch pairs.
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), 500);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.addi(Reg::gpr(5), Reg::gpr(5), 1);
        b.add(Reg::gpr(6), Reg::gpr(5), Reg::gpr(5)); // depends on previous
        b.cmpi(Reg::cr(0), Reg::gpr(6), 0);
        let skip = b.label();
        b.bc(p10_isa::Cond::Lt, Reg::cr(0), skip); // cmp+branch pair
        b.bind(skip);
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 1_000_000).unwrap();
        let r10 = run_cfg(CoreConfig::power10(), t.clone());
        assert!(r10.activity.fused_pairs > 500, "P10 must fuse pairs");
        let r9 = run_cfg(CoreConfig::power9(), t);
        assert_eq!(r9.activity.fused_pairs, 0, "P9 has no fusion");
    }

    #[test]
    fn ea_tagging_cuts_translations() {
        let t = alu_loop_trace(1000, 6);
        let p9 = run_cfg(CoreConfig::power9(), t.clone());
        let p10 = run_cfg(CoreConfig::power10(), t);
        // P9 translates on every fetch group; P10 only on L1 misses.
        assert!(
            p10.activity.ierat_lookups < p9.activity.ierat_lookups / 10,
            "EA tagging must slash I-side translations: p9={} p10={}",
            p9.activity.ierat_lookups,
            p10.activity.ierat_lookups
        );
    }

    #[test]
    fn loads_and_stores_flow_through_lsu() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x10_0000);
        b.li(Reg::gpr(4), 200);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.std(Reg::gpr(5), Reg::gpr(1), 0);
        b.std(Reg::gpr(5), Reg::gpr(1), 8);
        b.ld(Reg::gpr(6), Reg::gpr(1), 0);
        b.addi(Reg::gpr(1), Reg::gpr(1), 64);
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 1_000_000).unwrap();
        let r = run_cfg(CoreConfig::power10(), t);
        assert_eq!(r.activity.stores, 400);
        assert_eq!(r.activity.loads, 200);
        assert!(r.activity.store_merges > 0, "adjacent stores should merge");
        assert!(r.activity.l1d_accesses > 0);
    }

    #[test]
    fn store_forwarding_happens() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x10_0000);
        b.li(Reg::gpr(4), 100);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.std(Reg::gpr(5), Reg::gpr(1), 0);
        b.ld(Reg::gpr(6), Reg::gpr(1), 0); // same address: forward
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 1_000_000).unwrap();
        let r = run_cfg(CoreConfig::power10(), t);
        assert!(
            r.activity.store_forwards > 50,
            "same-address load must forward, got {}",
            r.activity.store_forwards
        );
    }

    #[test]
    fn mispredicts_counted_on_data_dependent_branches() {
        // Branch on a pseudo-random bit: unpredictable.
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(2), 0x12345);
        b.li(Reg::gpr(4), 2000);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        // xorshift-ish scramble
        b.push(Inst::Srdi {
            rt: Reg::gpr(3),
            ra: Reg::gpr(2),
            sh: 1,
        });
        b.push(Inst::Xor {
            rt: Reg::gpr(2),
            ra: Reg::gpr(3),
            rb: Reg::gpr(2),
        });
        b.push(Inst::Sldi {
            rt: Reg::gpr(3),
            ra: Reg::gpr(2),
            sh: 3,
        });
        b.push(Inst::Xor {
            rt: Reg::gpr(2),
            ra: Reg::gpr(3),
            rb: Reg::gpr(2),
        });
        b.push(Inst::And {
            rt: Reg::gpr(5),
            ra: Reg::gpr(2),
            rb: Reg::gpr(6),
        });
        b.cmpi(Reg::cr(0), Reg::gpr(5), 0);
        let skip = b.label();
        b.bc(p10_isa::Cond::Eq, Reg::cr(0), skip);
        b.addi(Reg::gpr(7), Reg::gpr(7), 1);
        b.bind(skip);
        b.bdnz(top);
        let mut m = Machine::new();
        m.set_gpr(6, 4); // mask bit 2
        let t = m.run(&b.build(), 1_000_000).unwrap();
        let r = run_cfg(CoreConfig::power10(), t);
        assert!(
            r.activity.branch_mispredicts > 100,
            "pseudo-random branch must mispredict, got {}",
            r.activity.branch_mispredicts
        );
        assert!(r.activity.wrong_path_fetched > 0);
        assert!(r.activity.flushed > 0);
    }

    #[test]
    fn p10_flushes_less_than_p9() {
        // Long-period pattern (period 24) that exceeds POWER9's local
        // history window but not POWER10's.
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), 12_000);
        b.mtctr(Reg::gpr(4));
        b.li(Reg::gpr(2), 0);
        let top = b.bind_label();
        b.addi(Reg::gpr(2), Reg::gpr(2), 1);
        b.cmpi(Reg::cr(0), Reg::gpr(2), 24);
        let skip = b.label();
        b.bc(p10_isa::Cond::Ne, Reg::cr(0), skip);
        b.li(Reg::gpr(2), 0);
        b.bind(skip);
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 10_000_000).unwrap();
        let r9 = run_cfg(CoreConfig::power9(), t.clone());
        let r10 = run_cfg(CoreConfig::power10(), t);
        assert!(
            r10.activity.branch_mispredicts < r9.activity.branch_mispredicts / 2,
            "P10 long-history predictor must capture the period-24 pattern: p9={} p10={}",
            r9.activity.branch_mispredicts,
            r10.activity.branch_mispredicts
        );
        assert!(
            r10.activity.wrong_path_fetched < r9.activity.wrong_path_fetched,
            "P10 must waste fewer fetches"
        );
    }

    #[test]
    fn smt2_two_threads_both_complete() {
        let t1 = alu_loop_trace(500, 6);
        let t2 = alu_loop_trace(700, 4);
        let (n1, n2) = (t1.len() as u64, t2.len() as u64);
        let mut cfg = CoreConfig::power10();
        cfg.smt = SmtMode::Smt2;
        let r = Core::new(cfg).run(vec![t1, t2], 10_000_000);
        assert_eq!(r.per_thread_completed, vec![n1, n2]);
        assert_eq!(r.activity.completed, n1 + n2);
    }

    #[test]
    fn smt2_throughput_beats_st_on_stall_heavy_code() {
        // Memory-latency-bound pointer chase: SMT2 overlaps stalls.
        let chase = |seed: u64| -> TraceView {
            let mut b = ProgramBuilder::new();
            b.li(Reg::gpr(1), 0x20_0000 + (seed * 0x4_0000) as i64);
            b.li(Reg::gpr(4), 300);
            b.mtctr(Reg::gpr(4));
            let top = b.bind_label();
            b.ld(Reg::gpr(2), Reg::gpr(1), 0);
            b.add(Reg::gpr(3), Reg::gpr(3), Reg::gpr(2));
            b.addi(Reg::gpr(1), Reg::gpr(1), 4096); // new page/line every iter
            b.bdnz(top);
            Machine::new().run(&b.build(), 1_000_000).unwrap()
        };
        let mut st_cfg = CoreConfig::power10();
        st_cfg.prefetch_streams = 0;
        let st = Core::new(st_cfg.clone()).run(vec![chase(0)], 10_000_000);
        let mut smt_cfg = st_cfg;
        smt_cfg.smt = SmtMode::Smt2;
        let smt = Core::new(smt_cfg).run(vec![chase(0), chase(1)], 10_000_000);
        assert!(
            smt.ipc() > st.ipc() * 1.3,
            "SMT2 must overlap stalls: st={} smt={}",
            st.ipc(),
            smt.ipc()
        );
    }

    #[test]
    fn mma_kernel_executes_on_grid() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x10_0000);
        b.li(Reg::gpr(4), 200);
        b.mtctr(Reg::gpr(4));
        b.push(Inst::Xxsetaccz { at: Reg::acc(0) });
        b.push(Inst::Xxsetaccz { at: Reg::acc(1) });
        let top = b.bind_label();
        b.lxv(Reg::vsr(34), Reg::gpr(1), 0);
        b.lxv(Reg::vsr(35), Reg::gpr(1), 16);
        b.lxv(Reg::vsr(36), Reg::gpr(1), 32);
        b.push(Inst::Xvf64gerpp {
            at: Reg::acc(0),
            xa: Reg::vsr(34),
            xb: Reg::vsr(36),
        });
        b.push(Inst::Xvf64gerpp {
            at: Reg::acc(1),
            xa: Reg::vsr(34),
            xb: Reg::vsr(36),
        });
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 1_000_000).unwrap();
        let r = run_cfg(CoreConfig::power10(), t);
        assert_eq!(r.activity.mma_ops, 400);
        assert_eq!(r.activity.mma_flops, 400 * 16);
        assert!(r.activity.mma_active_cycles > 0);
        assert!(r.activity.flops_per_cycle() > 4.0);
    }

    #[test]
    fn max_cycles_bounds_runaway() {
        let t = alu_loop_trace(100_000, 4);
        let r = Core::new(CoreConfig::power10()).run(vec![t], 50);
        assert_eq!(r.activity.cycles, 50);
    }

    #[test]
    #[should_panic(expected = "exceed SMT mode capacity")]
    fn too_many_threads_panics() {
        let t = alu_loop_trace(10, 1);
        let cfg = CoreConfig::power10(); // ST mode
        let _ = Core::new(cfg).run(vec![t.clone(), t], 100);
    }

    #[test]
    fn window_occupancy_tracked() {
        let t = alu_loop_trace(1000, 8);
        let r = run_cfg(CoreConfig::power10(), t);
        let occ = r.activity.mean_window_occupancy();
        assert!(occ > 1.0 && occ <= 512.0, "occupancy {occ} out of range");
    }
}

#[cfg(test)]
mod calendar_tests {
    use super::*;

    #[test]
    fn wheel_and_heap_entries_drain_exactly_at_their_cycle() {
        // Booked at cycle 100: two due next cycle, one at the wheel's far
        // edge (its bucket index wraps below theirs), one past the wheel.
        let mut cal = Calendar::default();
        let edge = 100 + WHEEL - 1;
        cal.push(100, 101, 1);
        cal.push(100, edge, 2);
        cal.push(100, edge + 1, 3);
        cal.push(100, 101, 4);
        let mut due = Vec::new();
        for (now, next, slots) in [
            (101, Some(101), vec![1, 4]),
            (edge, Some(edge), vec![2]),
            (edge + 1, Some(edge + 1), vec![3]),
        ] {
            assert_eq!(cal.next_after(now - 1), next);
            due.clear();
            cal.drain_due(now, &mut due);
            assert_eq!(due, slots, "due at cycle {now}");
        }
        assert_eq!(cal.next_after(edge + 1), None);
    }
}

#[cfg(test)]
mod gating_tests {
    use super::*;
    use p10_isa::{Inst, Machine, ProgramBuilder, Reg, TraceView};

    fn mma_burst_program(prelude_alus: u16, hint: bool) -> TraceView {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), 2_000);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.addi(Reg::gpr(5), Reg::gpr(5), 1);
        b.bdnz(top);
        if hint {
            b.push(Inst::MmaWakeHint);
        }
        // Post-loop scalar work that covers (or not) the wake window.
        for k in 0..prelude_alus {
            let r = 6 + (k % 8);
            b.addi(Reg::gpr(r), Reg::gpr(r), 1);
        }
        b.push(Inst::Xxsetaccz { at: Reg::acc(0) });
        b.li(Reg::gpr(6), 200);
        b.mtctr(Reg::gpr(6));
        let kloop = b.bind_label();
        b.push(Inst::Xvf64gerpp {
            at: Reg::acc(0),
            xa: Reg::vsr(34),
            xb: Reg::vsr(36),
        });
        b.bdnz(kloop);
        Machine::new().run(&b.build(), 1_000_000).unwrap()
    }

    #[test]
    fn cold_mma_use_pays_wake_latency() {
        let t = mma_burst_program(4, false);
        let r = Core::new(CoreConfig::power10()).run(vec![t], 1_000_000);
        assert!(
            r.activity.mma_wake_stall_cycles >= 32,
            "cold MMA start must stall, got {}",
            r.activity.mma_wake_stall_cycles
        );
        assert!(r.activity.mma_powered_cycles > 0);
        // The unit was gated during the long scalar prelude.
        assert!(r.activity.mma_powered_cycles < r.activity.cycles);
    }

    #[test]
    fn wake_hint_hides_the_latency() {
        // Hint placed a long scalar stretch before the MMA burst: the
        // unit powers on in the shadow of that work.
        let cold =
            Core::new(CoreConfig::power10()).run(vec![mma_burst_program(200, false)], 1_000_000);
        let hinted =
            Core::new(CoreConfig::power10()).run(vec![mma_burst_program(200, true)], 1_000_000);
        assert!(
            hinted.activity.mma_wake_stall_cycles < cold.activity.mma_wake_stall_cycles,
            "hint must cut wake stalls: cold {} hinted {}",
            cold.activity.mma_wake_stall_cycles,
            hinted.activity.mma_wake_stall_cycles
        );
        assert_eq!(hinted.activity.completed, cold.activity.completed + 1);
    }

    #[test]
    fn specint_code_never_powers_the_mma() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), 3_000);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.addi(Reg::gpr(5), Reg::gpr(5), 1);
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 1_000_000).unwrap();
        let r = Core::new(CoreConfig::power10()).run(vec![t], 1_000_000);
        assert_eq!(r.activity.mma_powered_cycles, 0);
        assert_eq!(r.activity.mma_wake_stall_cycles, 0);
    }
}

#[cfg(test)]
mod smt_policy_tests {
    use super::*;
    use crate::config::{FetchPolicy, SmtMode};
    use p10_isa::{Machine, ProgramBuilder, Reg, TraceView};

    fn compute_trace(ops: u64) -> TraceView {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), i64::MAX / 2);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        for k in 0..8u16 {
            b.addi(Reg::gpr(5 + k % 8), Reg::gpr(5 + k % 8), 1);
        }
        b.bdnz(top);
        Machine::new().run(&b.build(), ops).unwrap()
    }

    fn memory_trace(ops: u64) -> TraceView {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x40_0000);
        b.li(Reg::gpr(4), i64::MAX / 2);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.ld(Reg::gpr(2), Reg::gpr(1), 0);
        b.add(Reg::gpr(3), Reg::gpr(3), Reg::gpr(2));
        b.addi(Reg::gpr(1), Reg::gpr(1), 4096);
        b.bdnz(top);
        Machine::new().run(&b.build(), ops).unwrap()
    }

    #[test]
    fn icount_favors_the_fast_thread() {
        // One compute thread + one memory-stalled thread: ICOUNT should
        // let the compute thread retire more than round-robin does, at
        // equal-or-better total throughput.
        let run = |policy: FetchPolicy| {
            let mut cfg = CoreConfig::power10();
            cfg.smt = SmtMode::Smt2;
            cfg.fetch_policy = policy;
            cfg.prefetch_streams = 0;
            Core::new(cfg).run(vec![compute_trace(20_000), memory_trace(20_000)], 60_000)
        };
        let rr = run(FetchPolicy::RoundRobin);
        let ic = run(FetchPolicy::ICount);
        // Bounded-cycle run: compare per-thread progress.
        assert!(
            ic.per_thread_completed[0] >= rr.per_thread_completed[0],
            "ICOUNT must not starve the fast thread: rr {:?} ic {:?}",
            rr.per_thread_completed,
            ic.per_thread_completed
        );
        let total_rr: u64 = rr.per_thread_completed.iter().sum();
        let total_ic: u64 = ic.per_thread_completed.iter().sum();
        assert!(
            total_ic as f64 >= total_rr as f64 * 0.95,
            "ICOUNT throughput must be competitive: {total_rr} vs {total_ic}"
        );
    }
}

#[cfg(test)]
mod corner_tests {
    use super::*;
    use crate::config::SmtMode;
    use p10_isa::{Inst, Machine, ProgramBuilder, Reg, TraceView};

    #[test]
    fn divides_serialize_on_the_unpipelined_unit() {
        // Back-to-back independent divides: throughput limited by the
        // divider being busy, not by dependencies.
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 1000);
        b.li(Reg::gpr(2), 7);
        b.li(Reg::gpr(4), 100);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        for t in 0..4u16 {
            b.push(Inst::Divd {
                rt: Reg::gpr(10 + t),
                ra: Reg::gpr(1),
                rb: Reg::gpr(2),
            });
        }
        b.bdnz(top);
        let t = Machine::new().run(&b.build(), 100_000).unwrap();
        let cfg = CoreConfig::power10();
        let div_lat = u64::from(cfg.div_latency);
        let r = Core::new(cfg).run(vec![t], 10_000_000);
        // 400 divides, each occupying the divider for div_latency cycles.
        assert!(
            r.activity.cycles >= 400 * div_lat,
            "divides must serialize: {} cycles for 400 divides of {div_lat}",
            r.activity.cycles
        );
    }

    #[test]
    fn prefixed_instructions_consume_two_fetch_slots() {
        // A loop of prefixed (large-immediate) li ops fetches at half
        // rate; compare against plain adds.
        let make = |prefixed: bool| -> TraceView {
            let mut b = ProgramBuilder::new();
            b.li(Reg::gpr(4), 1500);
            b.mtctr(Reg::gpr(4));
            let top = b.bind_label();
            for k in 0..8u16 {
                if prefixed {
                    b.li(Reg::gpr(5 + k % 8), 1 << 20); // prefixed form
                } else {
                    b.li(Reg::gpr(5 + k % 8), 1); // plain form
                }
            }
            b.bdnz(top);
            Machine::new().run(&b.build(), 1_000_000).unwrap()
        };
        let plain = Core::new(CoreConfig::power10()).run(vec![make(false)], 10_000_000);
        let pfx = Core::new(CoreConfig::power10()).run(vec![make(true)], 10_000_000);
        assert_eq!(plain.activity.completed, pfx.activity.completed);
        assert!(
            pfx.activity.cycles as f64 > plain.activity.cycles as f64 * 1.15,
            "prefixed fetch must cost more: {} vs {}",
            plain.activity.cycles,
            pfx.activity.cycles
        );
    }

    #[test]
    fn lmq_limits_outstanding_misses() {
        // A stream of independent far-apart loads: memory-level
        // parallelism is capped by the load-miss queue.
        let make_trace = || {
            let mut b = ProgramBuilder::new();
            b.li(Reg::gpr(1), 0x100_0000);
            b.li(Reg::gpr(4), 400);
            b.mtctr(Reg::gpr(4));
            let top = b.bind_label();
            for k in 0..4u16 {
                b.ld(Reg::gpr(10 + k), Reg::gpr(1), i64::from(k) * 1_048_576);
            }
            b.addi(Reg::gpr(1), Reg::gpr(1), 8192);
            b.bdnz(top);
            Machine::new().run(&b.build(), 1_000_000).unwrap()
        };
        let mut narrow = CoreConfig::power10();
        narrow.prefetch_streams = 0;
        narrow.load_miss_queue = 1;
        let mut wide = narrow.clone();
        wide.load_miss_queue = 12;
        let r1 = Core::new(narrow).run(vec![make_trace()], 10_000_000);
        let r12 = Core::new(wide).run(vec![make_trace()], 10_000_000);
        assert!(
            r1.activity.cycles as f64 > r12.activity.cycles as f64 * 1.5,
            "MLP must be LMQ-limited: lmq1 {} vs lmq12 {}",
            r1.activity.cycles,
            r12.activity.cycles
        );
    }

    #[test]
    fn smt4_runs_four_threads_fairly() {
        let mk = |seed: i64| {
            let mut b = ProgramBuilder::new();
            b.li(Reg::gpr(4), 1000 + seed);
            b.mtctr(Reg::gpr(4));
            let top = b.bind_label();
            for k in 0..6u16 {
                b.addi(Reg::gpr(5 + k), Reg::gpr(5 + k), 1);
            }
            b.bdnz(top);
            Machine::new().run(&b.build(), 25_000).unwrap()
        };
        let mut cfg = CoreConfig::power10();
        cfg.smt = SmtMode::Smt4;
        let traces = vec![mk(0), mk(1), mk(2), mk(3)];
        let lens: Vec<u64> = traces.iter().map(|t| t.len() as u64).collect();
        let r = Core::new(cfg).run(traces, 10_000_000);
        assert_eq!(r.per_thread_completed, lens);
        assert_eq!(r.threads, 4);
    }

    #[test]
    fn fused_store_pair_uses_single_sq_entry() {
        // Two 8-byte stores to consecutive addresses with a tiny store
        // queue: with fusion the pair shares one entry, so POWER10 with
        // SQ=2/thread makes progress a no-fusion config chokes on.
        let mk = || {
            let mut b = ProgramBuilder::new();
            b.li(Reg::gpr(1), 0x20_0000);
            b.li(Reg::gpr(4), 800);
            b.mtctr(Reg::gpr(4));
            let top = b.bind_label();
            b.std(Reg::gpr(5), Reg::gpr(1), 0);
            b.std(Reg::gpr(5), Reg::gpr(1), 8);
            b.addi(Reg::gpr(1), Reg::gpr(1), 64);
            b.bdnz(top);
            Machine::new().run(&b.build(), 1_000_000).unwrap()
        };
        let mut fused = CoreConfig::power10();
        fused.store_queue = 4; // 2 per thread in ST accounting
        let mut unfused = fused.clone();
        unfused.fusion = false;
        let rf = Core::new(fused).run(vec![mk()], 10_000_000);
        let ru = Core::new(unfused).run(vec![mk()], 10_000_000);
        assert_eq!(rf.activity.completed, ru.activity.completed);
        assert!(rf.activity.fused_pairs > 700, "pairs must fuse");
        assert!(
            rf.activity.cycles <= ru.activity.cycles,
            "shared SQ entries must not be slower: fused {} vs unfused {}",
            rf.activity.cycles,
            ru.activity.cycles
        );
    }

    #[test]
    fn wrong_path_estimate_zero_without_branches() {
        let mut b = ProgramBuilder::new();
        for _ in 0..500 {
            b.addi(Reg::gpr(5), Reg::gpr(5), 1);
        }
        let t = Machine::new().run(&b.build(), 10_000).unwrap();
        let r = Core::new(CoreConfig::power10()).run(vec![t], 100_000);
        assert_eq!(r.activity.wrong_path_fetched, 0);
        assert_eq!(r.activity.branch_mispredicts, 0);
    }
}

#[cfg(test)]
mod attribution_tests {
    use super::*;
    use p10_isa::{Inst, Machine, ProgramBuilder, Reg, TraceView};

    fn alu_trace(iters: i64) -> TraceView {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(4), iters);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        for k in 0..8u16 {
            b.addi(Reg::gpr(5 + k % 8), Reg::gpr(5 + k % 8), 1);
        }
        b.bdnz(top);
        Machine::new().run(&b.build(), 1_000_000).unwrap()
    }

    fn chase_trace() -> TraceView {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x40_0000);
        b.li(Reg::gpr(4), 300);
        b.mtctr(Reg::gpr(4));
        let top = b.bind_label();
        b.ld(Reg::gpr(2), Reg::gpr(1), 0);
        b.add(Reg::gpr(3), Reg::gpr(3), Reg::gpr(2));
        b.addi(Reg::gpr(1), Reg::gpr(1), 4096);
        b.bdnz(top);
        Machine::new().run(&b.build(), 1_000_000).unwrap()
    }

    fn mma_cold_trace() -> TraceView {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Xxsetaccz { at: Reg::acc(0) });
        b.li(Reg::gpr(6), 100);
        b.mtctr(Reg::gpr(6));
        let kloop = b.bind_label();
        b.push(Inst::Xvf64gerpp {
            at: Reg::acc(0),
            xa: Reg::vsr(34),
            xb: Reg::vsr(36),
        });
        b.bdnz(kloop);
        Machine::new().run(&b.build(), 1_000_000).unwrap()
    }

    fn assert_partitions(r: &SimResult) {
        assert_eq!(
            r.attribution.total(),
            r.activity.cycles,
            "attribution must partition the cycle count ({:?})",
            r.attribution
        );
        assert_eq!(
            r.attribution.active, r.activity.active_cycles,
            "active bucket must equal the existing active_cycles counter"
        );
    }

    #[test]
    fn buckets_partition_cycles_on_every_preset() {
        for (trace, mma_only) in [
            (alu_trace(1000), false),
            (chase_trace(), false),
            (mma_cold_trace(), true), // P9 has no MMA unit to run it on
        ] {
            for cfg in [CoreConfig::power9(), CoreConfig::power10()] {
                if mma_only && cfg.mma.is_none() {
                    continue;
                }
                for sched in [Scheduler::Polled, Scheduler::EventDriven] {
                    let mut cfg = cfg.clone();
                    cfg.scheduler = sched;
                    let r = Core::new(cfg).run(vec![trace.clone()], 10_000_000);
                    assert_partitions(&r);
                }
            }
        }
    }

    #[test]
    fn memory_bound_code_attributes_to_memory() {
        let mut cfg = CoreConfig::power10();
        cfg.prefetch_streams = 0;
        let r = Core::new(cfg).run(vec![chase_trace()], 10_000_000);
        assert_partitions(&r);
        assert!(
            r.attribution.memory_bound > r.activity.cycles / 2,
            "a page-striding pointer chase should be mostly memory-bound: {:?} of {} cycles",
            r.attribution,
            r.activity.cycles
        );
    }

    #[test]
    fn cold_mma_start_attributes_gated_cycles() {
        let r = Core::new(CoreConfig::power10()).run(vec![mma_cold_trace()], 1_000_000);
        assert_partitions(&r);
        assert!(
            r.attribution.mma_gated > 0,
            "a cold MMA burst must show gated cycles: {:?}",
            r.attribution
        );
    }

    #[test]
    fn compute_code_is_mostly_active() {
        let r = Core::new(CoreConfig::power10()).run(vec![alu_trace(2000)], 10_000_000);
        assert_partitions(&r);
        assert!(
            r.attribution.active > r.activity.cycles / 2,
            "an L1-resident ALU loop should be mostly active: {:?}",
            r.attribution
        );
    }

    /// Counts `on_cycle` calls and opts out of spans, so the scheduler
    /// replays every fast-forwarded stretch one cycle at a time.
    struct PerCycle(u64);

    impl SpanObserver for PerCycle {
        fn on_cycle(&mut self, _cycle: u64, _act: &Activity) {
            self.0 += 1;
        }

        fn on_span(&mut self, _start: u64, _len: u64, _delta: &Activity) {
            unreachable!("a per-cycle observer never receives spans");
        }

        fn wants_spans(&self) -> bool {
            false
        }
    }

    #[test]
    fn attribution_identical_with_observer_replay() {
        // The observer path replays fast-forwarded stretches one cycle at
        // a time; the attribution must come out the same either way.
        let mut cfg = CoreConfig::power10();
        cfg.scheduler = Scheduler::EventDriven;
        let plain = Core::new(cfg.clone()).run(vec![chase_trace()], 10_000_000);
        let mut per_cycle = PerCycle(0);
        let observed = Core::new(cfg).run_spanned(vec![chase_trace()], 10_000_000, &mut per_cycle);
        assert_eq!(per_cycle.0, observed.activity.cycles, "one call per cycle");
        assert_eq!(plain.attribution, observed.attribution);
        assert_partitions(&observed);
    }
}
