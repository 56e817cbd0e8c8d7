//! The process-wide, content-keyed trace arena.
//!
//! Every experiment in the matrix replays the same workloads: ablation,
//! sensitivity, and SMT-scaling sweeps all ask for the same (workload,
//! max-ops) traces, once per config × per SMT thread × per run. Before
//! the arena, each request re-interpreted the program through
//! `p10_isa::exec` from scratch. The arena memoizes synthesis behind a
//! content key (FNV-1a over the workload's name, program, machine image,
//! and function spans), so each distinct trace is synthesized **once per
//! process** and every later request — including shorter-`max_ops`
//! requests and SMT stagger offsets — is served as a zero-copy
//! [`TraceView`] into the trace's shared compact storage (a template
//! table plus one 16-byte record per op; see [`p10_isa::TraceView`]).
//! Synthesis writes each executed op straight into that storage, and a
//! miss keeps the storage it was handed, so the arena holds exactly one
//! copy of each trace, even while it is being published; no
//! `Vec<DynOp>` of the trace ever exists.
//!
//! ## Longest-prefix reuse
//!
//! Functional execution is deterministic, so the trace capped at `n` ops
//! is a strict prefix of the trace capped at `m >= n` ops. A cached
//! 60 060-op trace therefore serves *every* shorter request as
//! `view.slice(0..n)`. If the program halted before its cap (the entry is
//! *exhausted*), the cached trace is complete and serves requests of
//! any length. Only a longer-than-cached request on a non-exhausted entry
//! re-synthesizes (at the new, larger cap, replacing the entry) — so for
//! a given key the synthesized cap strictly increases, and each
//! (workload, max-ops) pair is synthesized at most once per process.
//!
//! ## Concurrency
//!
//! The map is striped across [`STRIPES`] mutexes keyed by content hash.
//! A stripe's lock is held *across* synthesis, so concurrent requests for
//! the same key from the experiment worker pool dedup: exactly one
//! synthesizes, the rest hit. With equal `max_ops`, hit/miss counts are
//! therefore deterministic regardless of thread interleaving.
//!
//! The process-global arena is published as an `Arc` via [`global`];
//! `[obs]` counters `trace.arena.hits` / `.misses` / `.ops` / `.bytes` make the
//! win visible in every run's summary: `.ops` counts synthesis work (ops
//! executed into the arena), `.bytes` the storage those ops occupy.

use p10_isa::{ExecError, TraceView};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of lock stripes in the arena map.
pub const STRIPES: usize = 16;

/// One memoized trace.
#[derive(Debug, Clone)]
struct Entry {
    /// A view of the whole synthesized trace (its storage is shared with
    /// every view handed out).
    view: TraceView,
    /// The `max_ops` cap the trace was synthesized under.
    cap: u64,
    /// How many times this key has been synthesized (1 + grows).
    synths: u32,
}

impl Entry {
    /// Whether the program halted before its cap — the trace is complete
    /// and serves requests of any length.
    fn exhausted(&self) -> bool {
        (self.view.len() as u64) < self.cap
    }

    /// The first `min(max_ops, len)` ops.
    fn prefix(&self, max_ops: u64) -> TraceView {
        let take = (max_ops as usize).min(self.view.len());
        self.view.slice(0..take)
    }
}

/// Aggregate arena counters (monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Requests served from a cached trace.
    pub hits: u64,
    /// Requests that synthesized (first request for a key, or a grow).
    pub misses: u64,
    /// Total ops synthesized into the arena.
    pub ops: u64,
    /// Total bytes of trace storage (records plus templates) synthesized
    /// into the arena.
    pub bytes: u64,
}

/// A content-keyed, lock-striped memo of synthesized traces.
#[derive(Debug, Default)]
pub struct TraceArena {
    stripes: [Mutex<HashMap<u64, Entry>>; STRIPES],
    hits: AtomicU64,
    misses: AtomicU64,
    ops: AtomicU64,
    bytes: AtomicU64,
}

impl TraceArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        TraceArena::default()
    }

    /// Returns a zero-copy view of the first `min(max_ops, trace len)`
    /// ops of the trace identified by `key`, synthesizing through
    /// `synth(cap)` only when no cached trace can serve the request.
    ///
    /// `synth` must be deterministic in `cap` and satisfy the prefix
    /// property (`synth(a)` is a prefix of `synth(b)` for `a <= b`) —
    /// both hold for functional execution of a fixed workload.
    ///
    /// # Errors
    ///
    /// Propagates a synthesis error; nothing is cached in that case.
    pub fn view_or_synth(
        &self,
        key: u64,
        max_ops: u64,
        synth: impl FnOnce(u64) -> Result<TraceView, ExecError>,
    ) -> Result<TraceView, ExecError> {
        let stripe = &self.stripes[(key as usize) % STRIPES];
        let mut map = stripe.lock().expect("arena stripe poisoned");
        let prior = match map.get(&key) {
            Some(e) if e.cap >= max_ops || e.exhausted() => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                p10_obs::counter("trace.arena.hits", 1);
                return Ok(e.prefix(max_ops));
            }
            Some(e) => e.synths,
            None => 0,
        };
        // Miss (first request) or grow (longer request than the cached
        // cap on a non-exhausted trace): synthesize under the stripe
        // lock so concurrent requests for this key dedup.
        let sp = p10_obs::event_span(&format!("synth:{key:016x} cap={max_ops}"));
        let view = synth(max_ops)?;
        sp.finish();
        self.misses.fetch_add(1, Ordering::Relaxed);
        p10_obs::counter("trace.arena.misses", 1);
        let synthesized_ops = view.len() as u64;
        self.ops.fetch_add(synthesized_ops, Ordering::Relaxed);
        p10_obs::counter("trace.arena.ops", synthesized_ops);
        let synthesized_bytes = view.storage_bytes();
        self.bytes.fetch_add(synthesized_bytes, Ordering::Relaxed);
        p10_obs::counter("trace.arena.bytes", synthesized_bytes);
        let entry = Entry {
            view,
            cap: max_ops,
            synths: prior + 1,
        };
        let prefix = entry.prefix(max_ops);
        map.insert(key, entry);
        Ok(prefix)
    }

    /// Aggregate hit/miss/bytes counters.
    #[must_use]
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Per-entry accounting for a key: `(cap, trace len, synth count)`.
    #[must_use]
    pub fn entry_stats(&self, key: u64) -> Option<(u64, usize, u32)> {
        let map = self.stripes[(key as usize) % STRIPES]
            .lock()
            .expect("arena stripe poisoned");
        map.get(&key).map(|e| (e.cap, e.view.len(), e.synths))
    }

    /// Number of distinct keys resident in the arena.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("arena stripe poisoned").len())
            .sum()
    }
}

/// The process-global arena, shared by every worker-pool job.
#[must_use]
pub fn global() -> Arc<TraceArena> {
    static GLOBAL: OnceLock<Arc<TraceArena>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(TraceArena::new())))
}

/// Process-wide memo of *constructed* workloads, keyed by generator
/// identity (benchmark name, signature, seed).
///
/// Re-synthesizing a trace was only half the per-job waste: constructing
/// the workload itself (program generation plus writing the memory
/// image — ~11 ms for a cache-hostile footprint) repeated per config ×
/// per SMT thread too, and the *content* hash can only be computed from a
/// constructed workload. Sharing one `Arc<Workload>` per generator key
/// amortizes construction, the lazily computed content fingerprint, and
/// (through it) the trace arena lookup across the whole sweep.
///
/// Construction is deterministic, so sharing is observationally identical.
pub fn memoized_workload(
    key: u64,
    build: impl FnOnce() -> crate::Workload,
) -> Arc<crate::Workload> {
    type MemoStripe = Mutex<HashMap<u64, Arc<crate::Workload>>>;
    static MEMO: OnceLock<[MemoStripe; STRIPES]> = OnceLock::new();
    let stripes = MEMO.get_or_init(Default::default);
    let mut map = stripes[(key as usize) % STRIPES]
        .lock()
        .expect("workload memo stripe poisoned");
    if let Some(w) = map.get(&key) {
        p10_obs::counter("trace.arena.workload_hits", 1);
        return Arc::clone(w);
    }
    p10_obs::counter("trace.arena.workload_misses", 1);
    let w = Arc::new(build());
    map.insert(key, Arc::clone(&w));
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specint_like;
    use std::sync::atomic::AtomicU32;

    fn short_workload() -> Arc<crate::Workload> {
        specint_like()[8].workload(777)
    }

    #[test]
    fn memoizes_one_synthesis_per_key() {
        let arena = TraceArena::new();
        let w = short_workload();
        let synths = AtomicU32::new(0);
        let mut views = Vec::new();
        for _ in 0..4 {
            let v = arena
                .view_or_synth(1, 500, |cap| {
                    synths.fetch_add(1, Ordering::Relaxed);
                    w.trace_uncached(cap)
                })
                .unwrap();
            views.push(v);
        }
        assert_eq!(synths.load(Ordering::Relaxed), 1);
        assert_eq!(arena.stats().hits, 3);
        assert_eq!(arena.stats().misses, 1);
        assert_eq!(arena.entry_stats(1), Some((500, 500, 1)));
        for v in &views[1..] {
            assert_eq!(v, &views[0]);
            assert!(v.shares_storage(&views[0]), "hits must share storage");
        }
    }

    #[test]
    fn a_miss_moves_the_synthesized_buffer_into_the_arena() {
        // Synthesis writes compact storage once; the arena keeps that
        // storage, and neither the miss nor a later hit builds a second
        // buffer of the trace.
        let arena = TraceArena::new();
        let w = short_workload();
        let mut synthesized = None;
        let view = arena
            .view_or_synth(2, 900, |cap| {
                let v = w.trace_uncached(cap)?;
                synthesized = Some(v.clone());
                Ok(v)
            })
            .unwrap();
        let synthesized = synthesized.expect("a miss synthesizes");
        assert!(view.shares_storage(&synthesized), "a miss must not copy");
        let hit = arena.view_or_synth(2, 900, |_| panic!("hit")).unwrap();
        assert!(hit.shares_storage(&synthesized));
        assert_eq!(arena.stats().bytes, synthesized.storage_bytes());
    }

    #[test]
    fn longest_prefix_serves_shorter_requests() {
        let arena = TraceArena::new();
        let w = short_workload();
        let long = arena
            .view_or_synth(9, 2_000, |cap| w.trace_uncached(cap))
            .unwrap();
        let short = arena
            .view_or_synth(9, 700, |_| panic!("must not re-synthesize"))
            .unwrap();
        assert_eq!(short.len(), 700);
        assert!(short.shares_storage(&long));
        assert_eq!(short, long.slice(0..700));
        assert_eq!(
            arena.stats(),
            ArenaStats {
                hits: 1,
                misses: 1,
                ops: 2_000,
                bytes: long.storage_bytes(),
            }
        );
    }

    #[test]
    fn staggered_thread_views_cost_one_buffer_of_bytes() {
        // SMT stagger shape: one deep synthesis, then per-thread offset
        // windows. The byte counter must record exactly one storage —
        // per-thread clones would have multiplied it by the thread count.
        let arena = TraceArena::new();
        let w = short_workload();
        let max_ops = 400usize;
        let deepest = (max_ops + 7 * 997) as u64;
        let views: Vec<TraceView> = (0..4)
            .map(|t| {
                let full = arena
                    .view_or_synth(11, deepest, |cap| w.trace_uncached(cap))
                    .unwrap();
                let skip = t * 997;
                let end = full.len().min(skip + max_ops);
                full.slice(skip.min(end)..end)
            })
            .collect();
        assert_eq!(arena.stats().ops, deepest);
        assert_eq!(
            arena.stats().bytes,
            views[0].storage_bytes(),
            "4 thread streams must allocate exactly one shared storage"
        );
        assert_eq!(arena.stats().misses, 1);
        for v in &views[1..] {
            assert!(v.shares_storage(&views[0]));
        }
    }

    #[test]
    fn grow_replaces_entry_and_prefix_is_stable() {
        let arena = TraceArena::new();
        let w = short_workload();
        let short = arena
            .view_or_synth(3, 300, |cap| w.trace_uncached(cap))
            .unwrap();
        let long = arena
            .view_or_synth(3, 1_200, |cap| w.trace_uncached(cap))
            .unwrap();
        assert_eq!(long.len(), 1_200);
        assert_eq!(long.slice(0..300), short, "prefix property");
        assert_eq!(arena.entry_stats(3), Some((1_200, 1_200, 2)));
        // The grown trace now serves the original request as a hit.
        let again = arena
            .view_or_synth(3, 300, |_| panic!("must not re-synthesize"))
            .unwrap();
        assert!(again.shares_storage(&long));
    }

    #[test]
    fn exhausted_entry_serves_any_length() {
        let arena = TraceArena::new();
        // A tiny two-op program: cap 50 exhausts it.
        let mut b = p10_isa::ProgramBuilder::new();
        b.li(p10_isa::Reg::gpr(3), 1);
        b.addi(p10_isa::Reg::gpr(3), p10_isa::Reg::gpr(3), 2);
        let w = crate::Workload::new("tiny".into(), b.build(), p10_isa::Machine::new(), vec![]);
        let v = arena
            .view_or_synth(4, 50, |cap| w.trace_uncached(cap))
            .unwrap();
        assert_eq!(v.len(), 2);
        // A *longer* request must not re-synthesize: the trace is the
        // whole program.
        let v2 = arena
            .view_or_synth(4, 5_000, |_| panic!("must not re-synthesize"))
            .unwrap();
        assert_eq!(v2.len(), 2);
        assert!(v2.shares_storage(&v));
    }

    #[test]
    fn synthesis_error_caches_nothing() {
        let arena = TraceArena::new();
        let err = arena.view_or_synth(5, 10, |_| {
            Err(ExecError::InvalidBranchTarget { pc: 0, target: 0 })
        });
        assert!(err.is_err());
        assert_eq!(arena.entries(), 0);
        // The next request synthesizes normally.
        let w = short_workload();
        let v = arena
            .view_or_synth(5, 10, |cap| w.trace_uncached(cap))
            .unwrap();
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn concurrent_same_key_requests_dedup_deterministically() {
        let arena = Arc::new(TraceArena::new());
        let w = Arc::new(short_workload());
        let synths = Arc::new(AtomicU32::new(0));
        const N: usize = 8;
        let views: Vec<TraceView> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    let (arena, w, synths) =
                        (Arc::clone(&arena), Arc::clone(&w), Arc::clone(&synths));
                    scope.spawn(move || {
                        arena
                            .view_or_synth(42, 800, |cap| {
                                synths.fetch_add(1, Ordering::Relaxed);
                                w.trace_uncached(cap)
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Exactly one synthesis regardless of interleaving; every other
        // request is a hit on the same shared storage.
        assert_eq!(synths.load(Ordering::Relaxed), 1);
        let stats = arena.stats();
        assert_eq!((stats.hits, stats.misses), ((N - 1) as u64, 1));
        assert_eq!(stats.ops, 800);
        assert_eq!(stats.bytes, views[0].storage_bytes());
        for v in &views[1..] {
            assert!(v.shares_storage(&views[0]));
            assert_eq!(v, &views[0]);
        }
    }
}
