//! The traced probe: calls each layer's public functions on a workload's
//! inputs and records a span around every call.
//!
//! Spans live in memory in the probe's own small recorder, not in
//! `p10_obs`, so the program's counters are not disturbed, and are written
//! once at the end as a Chrome trace-event file (loadable in Perfetto).
//! Every layer span is a child of the root `probe` span; the root's self
//! time — probe wall not covered by any layer — is `probe.other_s`.
//!
//! Each probe pass runs in a fresh process (`benchmark probe ...`) so the
//! trace arena and the engine's in-process memo start empty, as they do
//! for a `figures` run.

use crate::check::as_f64;
use crate::workloads::Probe;
use p10_apex::run_apex;
use p10_core::dse::{self, PowerKnobs, RecordedRun};
use p10_core::runner::{point_key, Engine, EngineConfig};
use p10_core::sampling::{run_traces_sampled_with, CkptStore, SamplingMode};
use p10_core::scenario::{benchmark_views, ScenarioResult};
use p10_isa::TraceView;
use p10_power::{PowerModel, PowerReport};
use p10_powermgmt::governor::GovernorConfig;
use p10_powermgmt::replay::replay_power_series;
use p10_rtlsim::{run_detailed, Roi, ToggleDensity};
use p10_uarch::record::{ActivityRecorder, ActivityTrace};
use p10_uarch::{Activity, Core, CoreConfig, FunctionalWarmer, SimResult, SmtMode, SpanObserver};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Window width of the APEX extraction (the Fig. 10 batch interval).
const APEX_WINDOW: u64 = 4096;
/// Recording window width (`dse::DseConfig`'s default).
const RECORD_WINDOW: u64 = 512;
/// Warm-up cycles excluded from the rtlsim region of interest.
const RTL_WARMUP: u64 = 500;

/// One recorded span; `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
    pub parent: Option<usize>,
}

/// Exact work counts the probe takes along the way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Cycles the core stepped live while recording.
    pub live_cycles: u64,
    /// Cycles it fast-forwarded as closed-form spans while recording.
    pub span_cycles: u64,
    /// Activity windows evaluated by the power model.
    pub windows: u64,
}

/// A finished probe pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Span 0 is the root `probe` span; empty when spans were off.
    pub spans: Vec<Span>,
    pub wall_s: f64,
    pub counts: Counts,
}

/// The in-memory span recorder. With spans off it only times the whole
/// pass, which measures the recorder's own overhead by difference.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        let spans = if enabled {
            vec![Span {
                name: "probe".to_owned(),
                start_us: 0.0,
                dur_us: 0.0,
                parent: None,
            }]
        } else {
            Vec::new()
        };
        Recorder {
            enabled,
            origin: Instant::now(),
            spans,
        }
    }

    /// Runs `f` inside a span named `name`, a child of the root.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.origin.elapsed();
        let r = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_owned(),
            start_us: start.as_secs_f64() * 1e6,
            dur_us: (end - start).as_secs_f64() * 1e6,
            parent: Some(0),
        });
        r
    }

    pub fn finish(mut self, counts: Counts) -> Trace {
        let wall = self.origin.elapsed();
        if let Some(root) = self.spans.first_mut() {
            root.dur_us = wall.as_secs_f64() * 1e6;
        }
        Trace {
            spans: self.spans,
            wall_s: wall.as_secs_f64(),
            counts,
        }
    }
}

impl Trace {
    /// Self time per span name, in seconds: each span's duration minus the
    /// part its child spans cover, summed over spans of one name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent.filter(|&p| p < own.len()) {
                own[p] -= s.dur_us;
            }
        }
        let mut out = BTreeMap::new();
        for (s, us) in self.spans.iter().zip(own) {
            *out.entry(s.name.clone()).or_insert(0.0) += us / 1e6;
        }
        out
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_us / 1e6)
    }

    /// The Chrome trace-event form: one complete ("X") event per span on
    /// one track, with the parent's index in `args`, and the pass's wall
    /// time and counts under `otherData`.
    pub fn to_chrome(&self, workload: &str, seed: u64) -> Value {
        let mut events = vec![json!({
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": format!("benchmark probe: {workload} seed {seed}")},
        })];
        for (i, s) in self.spans.iter().enumerate() {
            events.push(json!({
                "name": s.name.clone(),
                "cat": s.name.split('.').next().unwrap_or("probe").to_owned(),
                "ph": "X",
                "ts": s.start_us,
                "dur": s.dur_us,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": s.parent},
            }));
        }
        json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": workload,
                "seed": seed,
                "wall_s": self.wall_s,
                "live_cycles": self.counts.live_cycles,
                "span_cycles": self.counts.span_cycles,
                "windows": self.counts.windows,
            },
        })
    }

    /// Reads back [`Trace::to_chrome`]'s output.
    ///
    /// # Errors
    ///
    /// A document that is not in that shape.
    pub fn from_chrome(v: &Value) -> Result<Trace, String> {
        let other = v.get("otherData").ok_or("trace has no otherData")?;
        let num = |o: &Value, k: &str| o.get(k).and_then(as_f64);
        let count = |k: &str| match other.get(k) {
            Some(Value::U64(n)) => Ok(*n),
            _ => Err(format!("trace otherData lacks count `{k}`")),
        };
        let mut spans = Vec::new();
        for e in v
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or("trace has no traceEvents")?
        {
            if e.get("ph") != Some(&Value::Str("X".to_owned())) {
                continue;
            }
            let name = match e.get("name") {
                Some(Value::Str(n)) => n.clone(),
                _ => return Err("span without a name".to_owned()),
            };
            let parent = match e.get("args").and_then(|a| a.get("parent")) {
                Some(Value::U64(p)) => Some(usize::try_from(*p).map_err(|_| "bad parent")?),
                _ => None,
            };
            spans.push(Span {
                name,
                start_us: num(e, "ts").ok_or("span without ts")?,
                dur_us: num(e, "dur").ok_or("span without dur")?,
                parent,
            });
        }
        Ok(Trace {
            spans,
            wall_s: num(other, "wall_s").ok_or("trace otherData lacks wall_s")?,
            counts: Counts {
                live_cycles: count("live_cycles")?,
                span_cycles: count("span_cycles")?,
                windows: count("windows")?,
            },
        })
    }
}

/// Runs one probe pass over `kind`'s inputs. `scratch` receives the
/// probe's result cache and checkpoint store.
///
/// # Errors
///
/// A layer returned something inconsistent (a cache entry that did not
/// read back, a checkpoint that did not decode).
pub fn run(kind: Probe, seed: u64, ops: u64, scratch: &Path, spans: bool) -> Result<Trace, String> {
    let mut rec = Recorder::new(spans);
    let mut counts = Counts::default();
    match kind {
        Probe::Suite => probe_suite(&mut rec, &mut counts, seed, ops, scratch)?,
        Probe::Sampling => probe_sampling(&mut rec, seed, ops, scratch)?,
        Probe::Dse => probe_dse(&mut rec, &mut counts, seed, ops, scratch)?,
    }
    Ok(rec.finish(counts))
}

/// Forwards to an inner observer, counting live and fast-forwarded cycles.
struct Counting<'a> {
    inner: &'a mut dyn SpanObserver,
    live: u64,
    span: u64,
}

impl SpanObserver for Counting<'_> {
    fn on_cycle(&mut self, cycle: u64, act: &Activity) {
        self.live += 1;
        self.inner.on_cycle(cycle, act);
    }

    fn on_span(&mut self, start: u64, len: u64, delta: &Activity) {
        self.span += len;
        self.inner.on_span(start, len, delta);
    }

    fn wants_spans(&self) -> bool {
        self.inner.wants_spans()
    }
}

/// The cycle cap `scenario::run_traces` gives a run of these views.
fn cycle_cap(views: &[TraceView]) -> u64 {
    views.iter().map(|v| v.len() as u64).sum::<u64>() * 8 + 100_000
}

fn engine(dir: &Path) -> Engine {
    Engine::new(EngineConfig {
        jobs: 1,
        disk_cache: Some(dir.to_path_buf()),
        progress: false,
    })
}

/// A span-observed run with an activity recorder, as `dse` records a
/// timing class.
fn record(
    rec: &mut Recorder,
    counts: &mut Counts,
    cfg: &CoreConfig,
    views: Vec<TraceView>,
    max_cycles: u64,
) -> (SimResult, ActivityTrace) {
    let (sim, trace, live, span) = rec.span("record.activity", || {
        let mut recorder = ActivityRecorder::new(RECORD_WINDOW);
        let mut counting = Counting {
            inner: &mut recorder,
            live: 0,
            span: 0,
        };
        let sim = Core::new(cfg.clone()).run_spanned(views, max_cycles, &mut counting);
        let (live, span) = (counting.live, counting.span);
        let trace = recorder.finish(&sim.activity);
        (sim, trace, live, span)
    });
    counts.live_cycles += live;
    counts.span_cycles += span;
    (sim, trace)
}

/// Evaluates the recorded windows and the whole run under `model`, then
/// replays the windows' active power through the WOF governor.
fn power_and_wof(
    rec: &mut Recorder,
    counts: &mut Counts,
    model: impl FnOnce() -> PowerModel,
    gov: &GovernorConfig,
    trace: &ActivityTrace,
    activity: &Activity,
    ref_active: Option<f64>,
) -> PowerReport {
    let (report, series) = rec.span("power.evaluate_windows", || {
        let model = model();
        let series: Vec<f64> = model
            .evaluate_windows(&trace.windows)
            .iter()
            .map(PowerReport::active)
            .collect();
        (model.evaluate(activity), series)
    });
    counts.windows += trace.windows.len() as u64;
    let reference = ref_active.unwrap_or_else(|| report.active());
    black_box(rec.span("wof.replay", || {
        replay_power_series(gov, &series, reference)
    }));
    report
}

/// Writes `value` through one engine's disk cache and reads it back
/// through a fresh engine on the same directory.
fn cache_round_trip<T>(
    rec: &mut Recorder,
    writer: &Engine,
    reader: &Engine,
    key: &str,
    value: T,
) -> Result<(), String>
where
    T: Clone + serde::Serialize + serde::Deserialize + Send + Sync + 'static,
{
    let written: T = rec.span("runner.cache_write", || {
        writer.cached("probe", key, || value)
    });
    let mut missed = false;
    black_box(rec.span("runner.cache_read", || {
        reader.cached("probe", key, || {
            missed = true;
            written.clone()
        })
    }));
    if missed {
        return Err(format!("cache entry {key} did not read back"));
    }
    Ok(())
}

/// `figures all`'s inputs: the SPECint-like suite on POWER9 and POWER10.
fn probe_suite(
    rec: &mut Recorder,
    counts: &mut Counts,
    seed: u64,
    ops: u64,
    scratch: &Path,
) -> Result<(), String> {
    let (writer, reader) = (
        engine(&scratch.join("cache")),
        engine(&scratch.join("cache")),
    );
    let suite = p10_workloads::specint_like();
    for cfg in [CoreConfig::power9(), CoreConfig::power10()] {
        for bench in &suite {
            let views = rec.span("workloads.synth", || {
                benchmark_views(&cfg, bench, seed, ops)
            });
            let max_cycles = cycle_cap(&views);
            let sim = rec.span("core.run", || {
                Core::new(cfg.clone()).run(views.clone(), max_cycles)
            });
            black_box(rec.span("rtlsim.detailed", || {
                run_detailed(
                    &cfg,
                    views.clone(),
                    Roi::new(RTL_WARMUP, max_cycles),
                    ToggleDensity::default(),
                )
            }));
            black_box(rec.span("apex.extract", || {
                run_apex(&cfg, views.clone(), APEX_WINDOW, max_cycles)
            }));
            let (_, trace) = record(rec, counts, &cfg, views, max_cycles);
            let power = power_and_wof(
                rec,
                counts,
                || PowerModel::for_config(&cfg),
                &GovernorConfig::typical(),
                &trace,
                &sim.activity,
                None,
            );
            let result = ScenarioResult {
                workload: bench.name.clone(),
                config: cfg.name.clone(),
                sim,
                power,
            };
            let key = point_key(&cfg, bench, seed, ops);
            cache_round_trip(rec, &writer, &reader, &key, result)?;
        }
    }
    Ok(())
}

/// The interval `figures sampling` uses at this budget (its default
/// `simpoints` mode: 64 intervals, at least 2500 ops each).
fn study_interval(ops: u64) -> usize {
    usize::try_from(ops / 64).unwrap_or(usize::MAX).max(2500)
}

/// The study's three workloads: exact reference, a checkpointing warm
/// pass, and sampled runs on an empty and on a filled checkpoint store.
fn probe_sampling(rec: &mut Recorder, seed: u64, ops: u64, scratch: &Path) -> Result<(), String> {
    let cfg = CoreConfig::power10();
    let suite = p10_workloads::specint_like();
    let interval = study_interval(ops);
    let mode = SamplingMode::SimPoints {
        interval_ops: interval,
        k: 8,
        warmup_ops: interval / 8,
    };
    // The engine memoizes interval measurements process-wide, keyed by
    // (among others) the warmup length; checkpoints are keyed without it.
    // Filling the store one warmup op longer therefore leaves the same
    // checkpoints but no memoized measurements, so the measure pass
    // simulates every interval from checkpoints as a rerun process would.
    let fill_mode = SamplingMode::SimPoints {
        interval_ops: interval,
        k: 8,
        warmup_ops: interval / 8 + 1,
    };
    let ckpt_dir = scratch.join("ckpt");
    for bench in &suite[7..10] {
        let views = rec.span("workloads.synth", || {
            benchmark_views(&cfg, bench, seed, ops)
        });
        let max_cycles = cycle_cap(&views);
        black_box(rec.span("sampling.exact_ref", || {
            Core::new(cfg.clone()).run(views.clone(), max_cycles)
        }));
        warm_with_checkpoints(rec, &cfg, &views, interval)?;
        black_box(rec.span("sampling.fill", || {
            let store = CkptStore::new(Some(ckpt_dir.clone()));
            run_traces_sampled_with(&cfg, &bench.name, views.clone(), &fill_mode, &store)
        }));
        black_box(rec.span("sampling.measure", || {
            let store = CkptStore::new(Some(ckpt_dir.clone()));
            run_traces_sampled_with(&cfg, &bench.name, views.clone(), &mode, &store)
        }));
    }
    Ok(())
}

/// Functional warming interval by interval, encoding the warmer at every
/// interval boundary and decoding the blob back.
fn warm_with_checkpoints(
    rec: &mut Recorder,
    cfg: &CoreConfig,
    views: &[TraceView],
    interval: usize,
) -> Result<(), String> {
    let longest = views.iter().map(TraceView::len).max().unwrap_or(0);
    let intervals = longest.div_ceil(interval);
    let mut warmer = FunctionalWarmer::new(cfg);
    for i in 0..intervals {
        rec.span("warm.observe", || {
            let slices: Vec<TraceView> = views
                .iter()
                .map(|v| v.slice((i * interval).min(v.len())..((i + 1) * interval).min(v.len())))
                .collect();
            warmer.observe(&slices);
        });
        if i + 1 < intervals {
            let blob = rec.span("ckpt.encode", || warmer.to_bytes());
            let restored = rec
                .span("ckpt.decode", || FunctionalWarmer::from_bytes(cfg, &blob))
                .ok_or("a fresh checkpoint did not decode")?;
            if restored.ops() != warmer.ops() {
                return Err("a decoded checkpoint lost its replay position".to_owned());
            }
        }
    }
    Ok(())
}

/// `figures dse`'s inputs: one timing class per SMT depth, each recorded
/// once and replayed under every power-knob setting.
fn probe_dse(
    rec: &mut Recorder,
    counts: &mut Counts,
    seed: u64,
    ops: u64,
    scratch: &Path,
) -> Result<(), String> {
    let (writer, reader) = (
        engine(&scratch.join("cache")),
        engine(&scratch.join("cache")),
    );
    let suite = dse::default_suite();
    let knobs = PowerKnobs::grid();
    for smt in [SmtMode::St, SmtMode::Smt2, SmtMode::Smt4] {
        let mut core = CoreConfig::power10();
        core.smt = smt;
        for bench in &suite {
            let views = rec.span("workloads.synth", || {
                benchmark_views(&core, bench, seed, ops)
            });
            let max_cycles = cycle_cap(&views);
            black_box(rec.span("core.run", || {
                Core::new(core.clone()).run(views.clone(), max_cycles)
            }));
            let (sim, trace) = record(rec, counts, &core, views, max_cycles);
            let ref_active = rec.span("power.evaluate_windows", || {
                PowerModel::for_config(&core)
                    .evaluate(&sim.activity)
                    .active()
            });
            for k in &knobs {
                let model = || match k.style {
                    Some(style) => PowerModel::with_style(&core, style),
                    None => PowerModel::for_config(&core),
                };
                black_box(power_and_wof(
                    rec,
                    counts,
                    model,
                    &k.governor(),
                    &trace,
                    &sim.activity,
                    Some(ref_active),
                ));
            }
            let key = format!(
                "probe|dse|{}|{}|{seed}|{ops}",
                dse::timing_class(&core),
                bench.name
            );
            cache_round_trip(rec, &writer, &reader, &key, RecordedRun { sim, trace })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, dur_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_us,
            dur_us,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Trace {
            spans: vec![
                span("probe", 0.0, 10e6, None),
                span("core.run", 1e6, 4e6, Some(0)),
                span("core.run", 5e6, 2e6, Some(0)),
                span("ckpt.encode", 7e6, 1e6, Some(0)),
                span("ckpt.inner", 7.2e6, 0.5e6, Some(3)),
            ],
            wall_s: 10.0,
            counts: Counts::default(),
        };
        let st = t.self_times();
        assert!((st["probe"] - 3.0).abs() < 1e-9);
        assert!((st["core.run"] - 6.0).abs() < 1e-9);
        assert!((st["ckpt.encode"] - 0.5).abs() < 1e-9);
        assert!((st["ckpt.inner"] - 0.5).abs() < 1e-9);
        assert!((st.values().sum::<f64>() - t.wall_s).abs() < 1e-9);
        assert!((t.total_s("core.run") - 6.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_spans_cover_the_wall_and_round_trip_through_chrome() {
        let mut rec = Recorder::new(true);
        let x = rec.span("core.run", || (0..10_000u64).sum::<u64>());
        assert_eq!(x, 49_995_000);
        rec.span("power.evaluate_windows", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let counts = Counts {
            live_cycles: 3,
            span_cycles: 4,
            windows: 5,
        };
        let t = rec.finish(counts);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(t.total_s("power.evaluate_windows") >= 0.002);
        let chrome = t.to_chrome("all", 7);
        let text = serde_json::to_string(&chrome).expect("render");
        let back = Trace::from_chrome(&serde_json::parse(&text).expect("parse")).expect("shape");
        assert_eq!(back.counts, counts);
        assert_eq!(back.spans.len(), 3);
        assert_eq!(back.spans[2].name, "power.evaluate_windows");
        assert_eq!(back.spans[2].parent, Some(0));
        assert!((back.wall_s - t.wall_s).abs() < 1e-12);
        assert!(Trace::from_chrome(&json!({"traceEvents": []})).is_err());
    }

    #[test]
    fn disabled_recorder_keeps_no_spans() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("core.run", || 5), 5);
        let t = rec.finish(Counts::default());
        assert!(t.spans.is_empty() && t.wall_s >= 0.0);
    }

    #[test]
    fn study_interval_matches_the_figures_default() {
        assert_eq!(study_interval(300_000), 4687);
        assert_eq!(study_interval(3_000_000), 46_875);
        assert_eq!(study_interval(20_000), 2500);
    }
}
