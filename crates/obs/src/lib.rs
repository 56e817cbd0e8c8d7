//! # p10-obs
//!
//! Structured tracing and metrics for the p10sim stack — std-only, no
//! external dependencies beyond the vendored serde.
//!
//! The paper's methodology is an observability story (RTLSim latch
//! tracking, APEX counter extraction, M1-linked power models); this crate
//! gives the *simulator's own runtime* the same treatment:
//!
//! * **Spans** time phases (`let s = span!("run_suite"); ...; s.finish()`)
//!   and aggregate into a per-phase wall-time table.
//! * **Counters / gauges / histograms** aggregate named metrics (cache
//!   hits, jobs per worker, per-job compute seconds, ...).
//! * **A trace sink** ([`init`] with a trace path, driven by
//!   `figures --trace-out`) records every span, counter
//!   increment, gauge and mark as a [`TraceEvent`], and [`finalize`]
//!   writes them as one Chrome trace-event file loadable in
//!   `chrome://tracing`/Perfetto (one track per named worker thread; see
//!   [`chrome`]). Events buffer in memory until then.
//! * **[`summary`]/[`render_summary`]** produce the end-of-run table the
//!   `figures` driver prints on stderr.
//! * **[`ledger`]** makes runs durable: one append-only JSON-lines
//!   [`ledger::RunRecord`] per `figures` run, with trend reporting and
//!   perf-regression gating on top (`figures obsreport`).
//!
//! ## Threading model
//!
//! All recording goes to **thread-local buffers**; nothing takes a lock
//! on the hot path, so the parallel runner's workers never contend (and
//! simulation stays bit-identical — recording has no feedback into the
//! model). Buffers drain into the global aggregate when a thread exits
//! (scoped workers) or on [`flush`].
//!
//! With no sink configured, events are dropped at the recording site and
//! only the cheap metric aggregation remains; the crate is safe to call
//! from any thread at any time, before or after [`init`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod ledger;

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded event, as the trace sink buffers it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Microseconds since the recorder was created.
    pub t_us: u64,
    /// Small per-thread id (assignment order, not OS tid).
    pub thread: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A span finished.
    Span {
        /// Phase name.
        name: String,
        /// Wall-clock duration in microseconds.
        dur_us: u64,
    },
    /// A counter was incremented.
    Count {
        /// Counter name.
        name: String,
        /// Increment amount.
        delta: u64,
    },
    /// A gauge was set.
    Gauge {
        /// Gauge name.
        name: String,
        /// New value.
        value: f64,
    },
    /// A point event (e.g. one runner job finishing).
    Mark {
        /// Event label.
        name: String,
        /// Free-form detail (e.g. "disk hit" or "1.24s").
        detail: String,
    },
}

/// Value-distribution summary kept per histogram name.
///
/// `buckets[i]` counts samples with `2^i <= value * 1e6 < 2^(i+1)`
/// (log2 buckets over micro-units, clamped at the ends), so second-scale
/// timings and small ratios both land on usable resolution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Log2 micro-unit buckets.
    pub buckets: [u64; 16],
}

impl Default for HistSummary {
    fn default() -> Self {
        HistSummary {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; 16],
        }
    }
}

impl HistSummary {
    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        let micro = (value * 1e6).max(1.0);
        let idx = (micro.log2().floor() as i64).clamp(0, 15) as usize;
        self.buckets[idx] += 1;
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &HistSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Aggregated wall time of one span name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Span name.
    pub name: String,
    /// Total wall-clock seconds across all finishes.
    pub wall_s: f64,
    /// Number of finishes.
    pub calls: u64,
}

/// One counter total.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSummary {
    /// Counter name.
    pub name: String,
    /// Total across all threads.
    pub value: u64,
}

/// One gauge's last-written value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSummary {
    /// Gauge name.
    pub name: String,
    /// Last value set.
    pub value: f64,
}

/// One histogram's distribution summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistEntry {
    /// Histogram name.
    pub name: String,
    /// Distribution summary.
    pub hist: HistSummary,
}

/// End-of-run aggregate: everything the summary table renders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Summary {
    /// Wall-clock seconds since the recorder was created.
    pub total_wall_s: f64,
    /// Per-phase wall times, in first-seen order.
    pub phases: Vec<PhaseSummary>,
    /// Counter totals, sorted by name.
    pub counters: Vec<CounterSummary>,
    /// Gauges (last value wins), sorted by name.
    pub gauges: Vec<GaugeSummary>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistEntry>,
}

impl Summary {
    /// Total of the named counter; 0 when the run never counted it.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Last value of the named gauge, if the run set it.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The share of `hits` in `hits + misses`, each side the sum of its
    /// named counters; `None` when both sides are zero.
    #[must_use]
    pub fn share(&self, hits: &[&str], misses: &[&str]) -> Option<f64> {
        let sum = |names: &[&str]| names.iter().map(|n| self.counter(n)).sum::<u64>();
        let (h, m) = (sum(hits), sum(misses));
        #[allow(clippy::cast_precision_loss)]
        (h + m > 0).then(|| h as f64 / (h + m) as f64)
    }

    /// Each runner worker slot's `(slot, jobs, busy seconds)`, from its
    /// `engine.<slot>.jobs` and `engine.<slot>.busy_us` counters, in slot
    /// order.
    #[must_use]
    pub fn workers(&self) -> Vec<(&str, u64, f64)> {
        self.counters
            .iter()
            .filter_map(|c| {
                let slot = c.name.strip_prefix("engine.")?.strip_suffix(".jobs")?;
                #[allow(clippy::cast_precision_loss)]
                let busy_s = self.counter(&format!("engine.{slot}.busy_us")) as f64 / 1e6;
                Some((slot, c.value, busy_s))
            })
            .collect()
    }
}

// ---- the recorder ----

#[derive(Default)]
struct Agg {
    phase_order: Vec<String>,
    phases: BTreeMap<String, (f64, u64)>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, HistSummary>,
}

/// The trace sink: events accumulate until [`finalize`] sorts them into
/// tracks and writes the complete trace-event file (the format needs a
/// closing bracket, so it cannot stream). `events` is `None` once written.
struct Sink {
    path: PathBuf,
    events: Mutex<Option<Vec<TraceEvent>>>,
}

struct Recorder {
    start: Instant,
    sink: Option<Sink>,
    agg: Mutex<Agg>,
    progress_seq: AtomicU64,
    progress_lock: Mutex<()>,
    next_thread_id: AtomicU64,
    thread_names: Mutex<BTreeMap<u64, String>>,
}

impl Recorder {
    fn new(trace_path: Option<PathBuf>) -> Self {
        let sink = trace_path.and_then(|p| match std::fs::File::create(&p) {
            Ok(_) => Some(Sink {
                path: p,
                events: Mutex::new(Some(Vec::new())),
            }),
            Err(e) => {
                eprintln!("[obs] cannot open trace file {}: {e}", p.display());
                None
            }
        });
        Recorder {
            start: Instant::now(),
            sink,
            agg: Mutex::new(Agg::default()),
            progress_seq: AtomicU64::new(0),
            progress_lock: Mutex::new(()),
            next_thread_id: AtomicU64::new(0),
            thread_names: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder::new(None))
}

/// Installs the process-wide recorder, with a trace sink that writes
/// every recorded event to `trace_path` as a Chrome trace (`None`: no
/// event recording; metrics still aggregate). First caller wins; returns
/// `false` if a recorder already existed (in which case the requested
/// sink is **not** attached). Call before any recording, e.g. first
/// thing in `main`.
pub fn init(trace_path: Option<PathBuf>) -> bool {
    let mut created = false;
    RECORDER.get_or_init(|| {
        created = true;
        Recorder::new(trace_path)
    });
    created
}

/// Whether a trace sink is attached (events are recorded).
#[must_use]
pub fn trace_enabled() -> bool {
    recorder().sink.is_some()
}

// ---- thread-local buffering ----

struct Local {
    thread_id: u64,
    events: Vec<TraceEvent>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    hists: Vec<(String, HistSummary)>,
    phases: Vec<(String, f64, u64)>,
}

impl Local {
    fn new() -> Self {
        Local {
            thread_id: recorder().next_thread_id.fetch_add(1, Ordering::Relaxed),
            events: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            phases: Vec::new(),
        }
    }

    fn drain(&mut self) {
        let Some(r) = RECORDER.get() else { return };
        if !self.events.is_empty() {
            if let Some(sink) = &r.sink {
                // Events after finalization have no file to land in.
                if let Some(events) = sink.events.lock().expect("trace sink poisoned").as_mut() {
                    events.append(&mut self.events);
                }
            }
            self.events.clear();
        }
        if self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.phases.is_empty()
        {
            return;
        }
        let mut agg = r.agg.lock().expect("obs aggregate poisoned");
        for (name, v) in self.counters.drain(..) {
            *agg.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in self.gauges.drain(..) {
            agg.gauges.insert(name, v);
        }
        for (name, h) in self.hists.drain(..) {
            agg.hists.entry(name).or_default().merge(&h);
        }
        for (name, secs, calls) in self.phases.drain(..) {
            if !agg.phases.contains_key(&name) {
                agg.phase_order.push(name.clone());
            }
            let e = agg.phases.entry(name).or_insert((0.0, 0));
            e.0 += secs;
            e.1 += calls;
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.drain();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

fn with_local(f: impl FnOnce(&mut Local)) {
    // During thread teardown the TLS slot may already be gone; the Drop
    // impl has drained it by then, so losing the record is acceptable.
    let _ = LOCAL.try_with(|l| f(&mut l.borrow_mut()));
}

fn bump<T>(list: &mut Vec<(String, T)>, name: &str, apply: impl FnOnce(&mut T), init: T) {
    match list.iter_mut().find(|(n, _)| n == name) {
        Some((_, v)) => apply(v),
        None => {
            let mut v = init;
            apply(&mut v);
            list.push((name.to_owned(), v));
        }
    }
}

fn emit(local: &mut Local, kind: EventKind) {
    let r = recorder();
    if r.sink.is_none() {
        return;
    }
    local.events.push(TraceEvent {
        t_us: r.now_us(),
        thread: local.thread_id,
        kind,
    });
}

// ---- the recording API ----

/// Times a phase; created by [`span`] (or the `span!` macro). Records on
/// [`Span::finish`] or on drop.
#[must_use = "a span records its duration when finished or dropped"]
pub struct Span {
    name: String,
    start: Instant,
    finished: bool,
}

/// Starts timing a named phase.
pub fn span(name: &str) -> Span {
    Span {
        name: name.to_owned(),
        start: Instant::now(),
        finished: false,
    }
}

/// Starts timing a named phase (macro form: `span!("run_suite")`).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// A sink-only span: emits a [`EventKind::Span`] trace event on finish
/// (or drop) without entering the `[obs]` phase table — for
/// high-cardinality work items (one span per runner job, per trace-arena
/// synthesis, per sampled detailed interval) that a Chrome trace wants
/// as individual slices but the end-of-run summary must not drown in.
/// Free when no trace sink is attached.
#[must_use = "an event span records its duration when finished or dropped"]
pub struct EventSpan {
    name: Option<String>,
    start: Instant,
}

/// Starts a sink-only span (see [`EventSpan`]).
pub fn event_span(name: &str) -> EventSpan {
    EventSpan {
        name: trace_enabled().then(|| name.to_owned()),
        start: Instant::now(),
    }
}

impl EventSpan {
    /// Stops the span, emitting its trace event (if a sink is attached).
    pub fn finish(self) {}
}

impl Drop for EventSpan {
    fn drop(&mut self) {
        let Some(name) = self.name.take() else { return };
        let dur_us = (self.start.elapsed().as_secs_f64() * 1e6) as u64;
        with_local(|l| emit(l, EventKind::Span { name, dur_us }));
    }
}

/// Names the calling thread for trace display: Chrome-format traces
/// render one track per named thread (threads sharing a name — e.g. the
/// runner's `workerNN` slots across successive pools — merge into one
/// track). Unnamed threads keep their numeric id.
pub fn set_thread_name(name: &str) {
    let r = recorder();
    with_local(|l| {
        r.thread_names
            .lock()
            .expect("thread names poisoned")
            .insert(l.thread_id, name.to_owned());
    });
}

impl Span {
    fn record(&mut self) -> f64 {
        if self.finished {
            return 0.0;
        }
        self.finished = true;
        let secs = self.start.elapsed().as_secs_f64();
        let name = std::mem::take(&mut self.name);
        with_local(|l| {
            emit(
                l,
                EventKind::Span {
                    name: name.clone(),
                    dur_us: (secs * 1e6) as u64,
                },
            );
            l.phases.push((name, secs, 1));
        });
        secs
    }

    /// Stops the span and returns its wall-clock seconds.
    pub fn finish(mut self) -> f64 {
        self.record()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

/// Adds `delta` to the named counter.
pub fn counter(name: &str, delta: u64) {
    with_local(|l| {
        emit(
            l,
            EventKind::Count {
                name: name.to_owned(),
                delta,
            },
        );
        bump(&mut l.counters, name, |v| *v += delta, 0);
    });
}

/// Sets the named gauge (last write wins at aggregation).
pub fn gauge(name: &str, value: f64) {
    with_local(|l| {
        emit(
            l,
            EventKind::Gauge {
                name: name.to_owned(),
                value,
            },
        );
        bump(&mut l.gauges, name, |v| *v = value, value);
    });
}

/// Records one sample into the named histogram.
pub fn observe(name: &str, value: f64) {
    with_local(|l| {
        bump(
            &mut l.hists,
            name,
            |h| h.record(value),
            HistSummary::default(),
        );
    });
}

/// Records a point event (trace sink only; no aggregate).
pub fn mark(name: &str, detail: &str) {
    if !trace_enabled() {
        return;
    }
    with_local(|l| {
        emit(
            l,
            EventKind::Mark {
                name: name.to_owned(),
                detail: detail.to_owned(),
            },
        );
    });
}

/// Records a point event *and* echoes the classic numbered progress line
/// (`[runner #N] label: outcome`) to stderr — the structured replacement
/// for the runner's former raw `eprintln!`.
///
/// The sequence number is taken and the line written under one process
/// lock, as a single pre-formatted `write`: concurrent workers can
/// neither splice characters into each other's lines (an unbuffered
/// `eprintln!` writes each format fragment separately) nor print out of
/// sequence order.
pub fn progress(label: &str, outcome: &str) {
    let r = recorder();
    {
        let _serialized = r.progress_lock.lock().expect("progress lock poisoned");
        let n = r.progress_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let line = format!("[runner #{n}] {label}: {outcome}\n");
        let _ = std::io::stderr().lock().write_all(line.as_bytes());
    }
    mark(label, outcome);
}

/// Drains the calling thread's buffers into the global aggregate and the
/// trace sink. Threads that already exited (scoped workers) drained
/// automatically on exit.
pub fn flush() {
    with_local(Local::drain);
}

/// Flushes the calling thread and, with a trace sink attached, writes the
/// complete Chrome trace-event file (threads that already exited drained
/// on exit). Idempotent — the first call wins; events recorded afterwards
/// are dropped. Call it last thing before process exit.
pub fn finalize() {
    flush();
    let Some(r) = RECORDER.get() else { return };
    let Some(sink) = &r.sink else { return };
    let Some(events) = sink.events.lock().expect("trace sink poisoned").take() else {
        return;
    };
    let names = r
        .thread_names
        .lock()
        .expect("thread names poisoned")
        .clone();
    if let Err(e) = std::fs::write(&sink.path, chrome::render(&events, &names)) {
        eprintln!(
            "[obs] cannot write chrome trace {}: {e}",
            sink.path.display()
        );
    }
}

/// Flushes and snapshots the aggregate state.
#[must_use]
pub fn summary() -> Summary {
    flush();
    let r = recorder();
    let agg = r.agg.lock().expect("obs aggregate poisoned");
    Summary {
        total_wall_s: r.start.elapsed().as_secs_f64(),
        phases: agg
            .phase_order
            .iter()
            .map(|name| {
                let (wall_s, calls) = agg.phases[name];
                PhaseSummary {
                    name: name.clone(),
                    wall_s,
                    calls,
                }
            })
            .collect(),
        counters: agg
            .counters
            .iter()
            .map(|(name, &value)| CounterSummary {
                name: name.clone(),
                value,
            })
            .collect(),
        gauges: agg
            .gauges
            .iter()
            .map(|(name, &value)| GaugeSummary {
                name: name.clone(),
                value,
            })
            .collect(),
        histograms: agg
            .hists
            .iter()
            .map(|(name, &hist)| HistEntry {
                name: name.clone(),
                hist,
            })
            .collect(),
    }
}

/// Renders the end-of-run summary table (every line `[obs]`-prefixed, so
/// it stays out of the way of parseable stdout).
#[must_use]
pub fn render_summary(s: &Summary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "[obs] ---- run summary ----");
    if !s.phases.is_empty() {
        let _ = writeln!(
            out,
            "[obs] {:<28} {:>9} {:>7} {:>6}",
            "phase", "wall", "share", "calls"
        );
        let mut covered = 0.0;
        for p in &s.phases {
            covered += p.wall_s;
            let share = if s.total_wall_s > 0.0 {
                100.0 * p.wall_s / s.total_wall_s
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "[obs]   {:<26} {:>8.2}s {:>6.1}% {:>6}",
                p.name, p.wall_s, share, p.calls
            );
        }
        let _ = writeln!(
            out,
            "[obs] phases cover {covered:.2}s of {:.2}s wall",
            s.total_wall_s
        );
    }
    for c in &s.counters {
        let _ = writeln!(out, "[obs] counter {:<32} {:>12}", c.name, c.value);
    }
    for g in &s.gauges {
        let _ = writeln!(out, "[obs] gauge   {:<32} {:>12.3}", g.name, g.value);
    }
    for h in &s.histograms {
        let _ = writeln!(
            out,
            "[obs] hist    {:<32} n={} mean={:.4} min={:.4} max={:.4}",
            h.name,
            h.hist.count,
            h.hist.mean(),
            h.hist.min,
            h.hist.max
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global, so these tests share one aggregate;
    // each uses its own metric names and asserts only on deltas/presence.

    #[test]
    fn counters_aggregate_across_threads() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        counter("test.counters_aggregate", 2);
                    }
                    // Drain explicitly: `thread::scope` unblocks when the
                    // closure returns, which can race the TLS destructor
                    // that would otherwise drain this thread's buffer.
                    flush();
                });
            }
        });
        assert_eq!(summary().counter("test.counters_aggregate"), 4 * 10 * 2);
    }

    #[test]
    fn span_records_a_phase_and_returns_duration() {
        let sp = span("test.span_phase");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let secs = sp.finish();
        assert!(secs >= 0.004, "span measured {secs}s");
        let sum = summary();
        let p = sum
            .phases
            .iter()
            .find(|p| p.name == "test.span_phase")
            .expect("phase present");
        assert!(p.wall_s >= 0.004);
        assert_eq!(p.calls, 1);
    }

    #[test]
    fn histogram_tracks_distribution() {
        for v in [0.5, 1.5, 3.0] {
            observe("test.hist", v);
        }
        let sum = summary();
        let h = &sum
            .histograms
            .iter()
            .find(|h| h.name == "test.hist")
            .expect("histogram present")
            .hist;
        assert_eq!(h.count, 3);
        assert!((h.sum - 5.0).abs() < 1e-12);
        assert!((h.min - 0.5).abs() < 1e-12);
        assert!((h.max - 3.0).abs() < 1e-12);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn gauge_last_write_wins() {
        gauge("test.gauge", 1.0);
        gauge("test.gauge", 42.5);
        assert_eq!(summary().gauge("test.gauge"), Some(42.5));
        assert_eq!(summary().gauge("test.gauge_never_set"), None);
    }

    #[test]
    fn hist_summary_merge_is_lossless_on_count_sum_min_max() {
        let mut a = HistSummary::default();
        let mut b = HistSummary::default();
        for v in [1.0, 2.0] {
            a.record(v);
        }
        for v in [0.25, 8.0] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert!((a.sum - 11.25).abs() < 1e-12);
        assert!((a.min - 0.25).abs() < 1e-12);
        assert!((a.max - 8.0).abs() < 1e-12);
    }

    #[test]
    fn render_summary_mentions_each_section() {
        let s = Summary {
            total_wall_s: 2.0,
            phases: vec![PhaseSummary {
                name: "fig2".into(),
                wall_s: 1.5,
                calls: 1,
            }],
            counters: vec![CounterSummary {
                name: "cache.disk_hits".into(),
                value: 7,
            }],
            gauges: vec![GaugeSummary {
                name: "apex.speedup".into(),
                value: 12.0,
            }],
            histograms: vec![],
        };
        let text = render_summary(&s);
        assert!(text.contains("fig2"));
        assert!(text.contains("cache.disk_hits"));
        assert!(text.contains("apex.speedup"));
        assert!(text.lines().all(|l| l.starts_with("[obs]")));
    }

    #[test]
    fn trace_event_serializes_to_one_json_line() {
        let e = TraceEvent {
            t_us: 123,
            thread: 0,
            kind: EventKind::Mark {
                name: "job".into(),
                detail: "disk hit".into(),
            },
        };
        let line = serde_json::to_string(&e).expect("serialize");
        assert!(!line.contains('\n'));
        let back: TraceEvent = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, e);
    }
}
