//! The persistent run ledger: durable, queryable flight records.
//!
//! Every `figures` run appends one [`RunRecord`] — a single JSON line —
//! to `<ledger dir>/ledger.jsonl`. The record makes the `[obs]` stderr
//! summary durable, as is, next to the run's identity
//! (content-addressed config/workload/sampling keys) and its machine and
//! build metadata. Rates — cache and trace-arena hit rates, sampling
//! coverage, worker busy fractions — are not stored: readers derive
//! them from the summary's counters ([`Summary::share`],
//! [`Summary::workers`]). Wall-clock data lives *only* here and on
//! stderr — experiment stdout stays byte-identical whether the ledger is
//! on or off.
//!
//! On top of the history sit [`comparable`] (which prior runs are
//! apples-to-apples with the latest) and [`gate`] (the perf-regression
//! check behind `figures obsreport --gate PCT`).
//!
//! Appends are one `write` call of one line to a file opened in append
//! mode, so concurrent runs interleave whole records; [`read`] skips any
//! line that fails to parse (torn writes, foreign schema) rather than
//! failing the whole history.

use crate::Summary;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Schema version stamped into every record. v3 dropped v2's derived
/// `cache`/`arena`/`sampling`/`workers` sections, which repeated the
/// summary's counters; v2 lines still parse (the extra fields are
/// ignored), v1 lines do not and are skipped by [`read`].
pub const SCHEMA: u32 = 3;

/// File name of the append-only ledger inside the ledger directory.
pub const LEDGER_FILE: &str = "ledger.jsonl";

/// Where the run ledger lives unless `figures --ledger-dir` says
/// otherwise: `target/p10sim-ledger`.
#[must_use]
pub fn default_dir() -> PathBuf {
    Path::new("target").join("p10sim-ledger")
}

/// 64-bit FNV-1a over a string, rendered as 16 hex digits — the
/// content-addressing primitive for run/config/workload keys (stable
/// across runs and Rust versions, unlike `DefaultHasher`).
#[must_use]
pub fn content_key(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The machine a run executed on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineInfo {
    /// Host name (`HOSTNAME`/`HOST` env; `unknown` when absent).
    pub host: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available CPUs at run time.
    pub cpus: u64,
}

impl MachineInfo {
    /// Detects the current machine.
    #[must_use]
    pub fn detect() -> Self {
        MachineInfo {
            host: std::env::var("HOSTNAME")
                .or_else(|_| std::env::var("HOST"))
                .unwrap_or_else(|_| "unknown".to_owned()),
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        }
    }
}

/// The build that produced a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuildInfo {
    /// Workspace package version.
    pub version: String,
    /// `debug` or `release` (from `debug_assertions`).
    pub profile: String,
}

impl BuildInfo {
    /// Detects the current build.
    #[must_use]
    pub fn detect() -> Self {
        BuildInfo {
            version: env!("CARGO_PKG_VERSION").to_owned(),
            profile: if cfg!(debug_assertions) {
                "debug".to_owned()
            } else {
                "release".to_owned()
            },
        }
    }
}

/// One durable flight record: the `[obs]` summary plus run identity and
/// provenance. Appended as one JSON line per `figures` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Record schema version ([`SCHEMA`]).
    pub schema: u32,
    /// Content-addressed run id (experiment + keys + start time + pid).
    pub run_id: String,
    /// Experiment selector that ran (`all`, `fig4`, ...).
    pub experiment: String,
    /// Content key of the resolved engine/trace configuration.
    pub config_key: String,
    /// Content key of the workload surface (experiment list + op budget).
    pub workload_key: String,
    /// Sampling mode text (`exact`, `simpoints:I:K:W`, ...).
    pub sampling_key: String,
    /// Op budget per workload.
    pub ops: u64,
    /// Resolved worker-pool width.
    pub jobs: u64,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// Total run wall time in seconds.
    pub wall_s: f64,
    /// Machine metadata.
    pub machine: MachineInfo,
    /// Build metadata.
    pub build: BuildInfo,
    /// The full end-of-run aggregate (phases, counters, gauges,
    /// histograms).
    pub summary: Summary,
}

/// Identity fields for building a [`RunRecord`] (everything not derived
/// from the [`Summary`]).
#[derive(Debug, Clone)]
pub struct RunIdentity {
    /// Experiment selector (`all`, `fig4`, ...).
    pub experiment: String,
    /// Pre-hash text of the resolved configuration.
    pub config_text: String,
    /// Pre-hash text of the workload surface.
    pub workload_text: String,
    /// Sampling mode text.
    pub sampling_key: String,
    /// Op budget per workload.
    pub ops: u64,
    /// Resolved worker-pool width.
    pub jobs: u64,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
}

impl RunRecord {
    /// Builds a record from run identity plus the end-of-run [`Summary`].
    #[must_use]
    pub fn from_summary(id: &RunIdentity, summary: Summary) -> Self {
        let config_key = content_key(&id.config_text);
        let workload_key = content_key(&id.workload_text);
        let run_id = content_key(&format!(
            "{}|{}|{}|{}|{}|{}",
            id.experiment,
            config_key,
            workload_key,
            id.sampling_key,
            id.started_unix_ms,
            std::process::id()
        ));
        RunRecord {
            schema: SCHEMA,
            run_id,
            experiment: id.experiment.clone(),
            config_key,
            workload_key,
            sampling_key: id.sampling_key.clone(),
            ops: id.ops,
            jobs: id.jobs,
            started_unix_ms: id.started_unix_ms,
            wall_s: summary.total_wall_s,
            machine: MachineInfo::detect(),
            build: BuildInfo::detect(),
            summary,
        }
    }

    /// Wall seconds of the named phase, if the run recorded it.
    #[must_use]
    pub fn phase_wall_s(&self, name: &str) -> Option<f64> {
        self.summary
            .phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.wall_s)
    }
}

/// Appends one record to `dir/ledger.jsonl` (creating the directory as
/// needed) and returns the ledger path. One line, one `write` call.
///
/// # Errors
///
/// Propagates directory-creation, serialization, and write failures.
pub fn append(dir: &Path, record: &RunRecord) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(LEDGER_FILE);
    let line = serde_json::to_string(record)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    f.write_all(format!("{line}\n").as_bytes())?;
    Ok(path)
}

/// Reads the full run history from `dir/ledger.jsonl`, oldest first,
/// and the number of non-empty lines it skipped. A missing ledger is an
/// empty history; lines that are not UTF-8 or fail to parse (torn
/// concurrent writes, flipped bytes, foreign schemas) are skipped, so one
/// bad line costs only its own record.
///
/// # Errors
///
/// Propagates read failures other than the file not existing.
pub fn read(dir: &Path) -> std::io::Result<(Vec<RunRecord>, usize)> {
    let path = dir.join(LEDGER_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let lines = bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty());
    let parsed: Vec<Option<RunRecord>> = lines
        .map(|l| serde_json::from_str(std::str::from_utf8(l).ok()?).ok())
        .collect();
    let skipped = parsed.iter().filter(|r| r.is_none()).count();
    Ok((parsed.into_iter().flatten().collect(), skipped))
}

/// The prior runs that are apples-to-apples with `latest`: same
/// experiment selector, op budget, and sampling mode. (Config keys may
/// differ across machines — worker counts — without breaking wall-time
/// comparability, so they are reported but not filtered on.)
#[must_use]
pub fn comparable<'a>(prior: &'a [RunRecord], latest: &RunRecord) -> Vec<&'a RunRecord> {
    prior
        .iter()
        .filter(|r| {
            r.experiment == latest.experiment
                && r.ops == latest.ops
                && r.sampling_key == latest.sampling_key
        })
        .collect()
}

/// One gated wall-time regression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Regression {
    /// `total`, or the regressed experiment phase's name.
    pub phase: String,
    /// Baseline wall seconds.
    pub baseline_s: f64,
    /// Latest wall seconds.
    pub latest_s: f64,
    /// `(latest/baseline - 1) * 100`.
    pub delta_pct: f64,
}

/// The perf gate: compares `latest` against `baseline` and returns every
/// wall-time regression beyond `pct` percent — the total, and each phase
/// present in both runs. Deltas smaller than `min_s` seconds are noise
/// and never gate, whatever their percentage (short phases jitter).
/// An empty result is a pass.
#[must_use]
pub fn gate(baseline: &RunRecord, latest: &RunRecord, pct: f64, min_s: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    let mut check = |phase: &str, base: f64, new: f64| {
        if new > base * (1.0 + pct / 100.0) && new - base > min_s {
            out.push(Regression {
                phase: phase.to_owned(),
                baseline_s: base,
                latest_s: new,
                delta_pct: if base > 0.0 {
                    (new / base - 1.0) * 100.0
                } else {
                    f64::INFINITY
                },
            });
        }
    };
    check("total", baseline.wall_s, latest.wall_s);
    for p in &latest.summary.phases {
        if let Some(base) = baseline.phase_wall_s(&p.name) {
            check(&p.name, base, p.wall_s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterSummary, PhaseSummary};

    fn scratch_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static UNIQ: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "p10sim-ledger-{tag}-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn summary_with(phases: &[(&str, f64)], counters: &[(&str, u64)]) -> Summary {
        Summary {
            total_wall_s: phases.iter().map(|(_, w)| w).sum(),
            phases: phases
                .iter()
                .map(|&(name, wall_s)| PhaseSummary {
                    name: name.into(),
                    wall_s,
                    calls: 1,
                })
                .collect(),
            counters: counters
                .iter()
                .map(|&(name, value)| CounterSummary {
                    name: name.into(),
                    value,
                })
                .collect(),
            gauges: vec![],
            histograms: vec![],
        }
    }

    fn identity(experiment: &str) -> RunIdentity {
        RunIdentity {
            experiment: experiment.into(),
            config_text: "jobs=2|cache=on".into(),
            workload_text: "all|ops=2000".into(),
            sampling_key: "exact".into(),
            ops: 2000,
            jobs: 2,
            started_unix_ms: 1_700_000_000_000,
        }
    }

    fn record(experiment: &str, phases: &[(&str, f64)]) -> RunRecord {
        RunRecord::from_summary(
            &identity(experiment),
            summary_with(
                phases,
                &[
                    ("cache.memo_hits", 3),
                    ("cache.disk_hits", 1),
                    ("cache.computes", 4),
                    ("trace.arena.hits", 6),
                    ("trace.arena.misses", 2),
                    ("sampling.ckpt_hits", 7),
                    ("sampling.ckpt_misses", 2),
                    ("sampling.ckpt_bytes", 9000),
                    ("sampling.warm_passes", 2),
                    ("engine.worker00.jobs", 5),
                    ("engine.worker00.busy_us", 500_000),
                    ("engine.worker01.jobs", 3),
                    ("engine.worker01.busy_us", 250_000),
                ],
            ),
        )
    }

    #[test]
    fn run_record_round_trips_through_serde() {
        let r = record("all", &[("fig2", 0.5), ("fig4", 1.5)]);
        let line = serde_json::to_string(&r).expect("serialize");
        assert!(!line.contains('\n'), "one record must be one line");
        let back: RunRecord = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, r);
    }

    #[test]
    fn from_summary_derives_traffic_and_workers() {
        let r = record("all", &[("fig2", 0.5), ("fig4", 1.5)]);
        assert_eq!(r.schema, SCHEMA);
        assert!((r.wall_s - 2.0).abs() < 1e-12);
        let s = &r.summary;
        assert_eq!(s.counter("cache.memo_hits"), 3);
        assert_eq!(s.counter("cache.never_counted"), 0);
        let cache = s.share(&["cache.memo_hits", "cache.disk_hits"], &["cache.computes"]);
        assert_eq!(cache, Some(0.5));
        assert_eq!(
            s.share(&["trace.arena.hits"], &["trace.arena.misses"]),
            Some(0.75)
        );
        assert_eq!(
            s.share(&["sim.sample.simulated_ops"], &["sim.sample.skipped_ops"]),
            None,
            "exact runs sample nothing"
        );
        let workers = s.workers();
        assert_eq!(workers.len(), 2);
        let (slot, jobs, busy_s) = workers[0];
        assert_eq!((slot, jobs), ("worker00", 5));
        assert!((busy_s - 0.5).abs() < 1e-12);
        assert!(
            (busy_s / r.wall_s - 0.25).abs() < 1e-12,
            "0.5s of 2.0s wall"
        );
        assert_eq!(r.phase_wall_s("fig4"), Some(1.5));
        assert_eq!(r.phase_wall_s("fig9"), None);
        assert_eq!(r.config_key, content_key("jobs=2|cache=on"));
    }

    #[test]
    fn schema_2_lines_parse_and_give_the_same_rates() {
        // A v2 record repeated the summary's counters in four derived
        // sections; a v3 reader ignores them and derives the same rates.
        let mut v2 = serde_json::to_string(&record("all", &[("fig2", 0.5), ("fig4", 1.5)]))
            .expect("serialize")
            .replacen("\"schema\":3", "\"schema\":2", 1);
        let sections = concat!(
            "\"cache\":{\"memo_hits\":3,\"disk_hits\":1,\"computes\":4,\"disk_decode_errors\":0},",
            "\"arena\":{\"hits\":6,\"misses\":2,\"bytes\":0,\"hit_rate\":0.75},",
            "\"sampling\":{\"intervals\":0,\"clusters\":0,\"simulated_ops\":0,\"skipped_ops\":0,",
            "\"coverage\":1.0,\"ckpt_hits\":7,\"ckpt_misses\":2,\"ckpt_bytes\":9000,\"warm_passes\":2},",
            "\"workers\":[{\"worker\":\"worker00\",\"jobs\":5,\"busy_s\":0.5,\"busy_frac\":0.25},",
            "{\"worker\":\"worker01\",\"jobs\":3,\"busy_s\":0.25,\"busy_frac\":0.125}],",
        );
        let at = v2.find("\"summary\":").expect("summary field");
        v2.insert_str(at, sections);
        let old = serde_json::parse(&v2).expect("a v2 line is JSON");
        let num = |section: &str, i: Option<usize>, key: &str| -> f64 {
            let mut v = old.get(section).expect("v2 section");
            if let Some(i) = i {
                v = &v.as_array().expect("v2 workers")[i];
            }
            serde_json::from_value(v.get(key).expect("v2 field")).expect("number")
        };
        let r: RunRecord = serde_json::from_str(&v2).expect("a v2 line still parses");
        assert_eq!(r.schema, 2);
        let s = &r.summary;
        for (name, section, key) in [
            ("cache.memo_hits", "cache", "memo_hits"),
            ("cache.disk_hits", "cache", "disk_hits"),
            ("cache.computes", "cache", "computes"),
            ("sampling.ckpt_hits", "sampling", "ckpt_hits"),
            ("sampling.warm_passes", "sampling", "warm_passes"),
        ] {
            #[allow(clippy::cast_precision_loss)]
            let counted = s.counter(name) as f64;
            assert_eq!(counted, num(section, None, key), "{name}");
        }
        let arena = s.share(&["trace.arena.hits"], &["trace.arena.misses"]);
        assert_eq!(arena, Some(num("arena", None, "hit_rate")));
        let coverage = s.share(&["sim.sample.simulated_ops"], &["sim.sample.skipped_ops"]);
        assert_eq!(coverage.unwrap_or(1.0), num("sampling", None, "coverage"));
        assert_eq!(s.workers().len(), 2);
        for (i, (_, jobs, busy_s)) in s.workers().into_iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let jobs = jobs as f64;
            assert_eq!(jobs, num("workers", Some(i), "jobs"));
            assert_eq!(busy_s, num("workers", Some(i), "busy_s"));
            assert_eq!(busy_s / r.wall_s, num("workers", Some(i), "busy_frac"));
        }
    }

    #[test]
    fn ledger_appends_and_reads_back_across_runs() {
        let dir = scratch_dir("appendread");
        assert_eq!(read(&dir).expect("missing ledger reads empty"), (vec![], 0));
        let a = record("all", &[("fig2", 0.5)]);
        let b = record("all", &[("fig2", 0.4)]);
        let c = record("fig4", &[("fig4", 1.0)]);
        for r in [&a, &b, &c] {
            append(&dir, r).expect("append");
        }
        let runs = read(&dir).expect("read back");
        assert_eq!(runs, (vec![a.clone(), b.clone(), c.clone()], 0));
        // A torn/corrupt line is skipped, not fatal.
        let path = dir.join(LEDGER_FILE);
        let mut text = std::fs::read_to_string(&path).expect("ledger text");
        text.push_str("{\"torn\":");
        std::fs::write(&path, text).expect("plant torn line");
        let (runs, skipped) = read(&dir).expect("read with torn line");
        assert_eq!((runs.len(), skipped), (3, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_byte_costs_only_its_own_record() {
        let dir = scratch_dir("flipbyte");
        let a = record("all", &[("fig2", 0.5)]);
        let b = record("all", &[("fig2", 0.4)]);
        let c = record("fig4", &[("fig4", 1.0)]);
        for r in [&a, &b, &c] {
            append(&dir, r).expect("append");
        }
        // Flip the high bit of a byte in the middle of the second line:
        // that line is no longer UTF-8, the other two still are.
        let path = dir.join(LEDGER_FILE);
        let mut bytes = std::fs::read(&path).expect("ledger bytes");
        let first_nl = bytes.iter().position(|&b| b == b'\n').expect("first line");
        let second_nl = first_nl
            + 1
            + bytes[first_nl + 1..]
                .iter()
                .position(|&b| b == b'\n')
                .expect("second line");
        bytes[(first_nl + second_nl) / 2] ^= 0x80;
        std::fs::write(&path, bytes).expect("plant flipped byte");
        assert_eq!(read(&dir).expect("read with flipped byte"), (vec![a, c], 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn comparable_filters_on_experiment_ops_and_sampling() {
        let latest = record("all", &[("fig2", 0.4)]);
        let same = record("all", &[("fig2", 0.5)]);
        let other_exp = record("fig4", &[("fig4", 1.0)]);
        let mut other_ops = record("all", &[("fig2", 0.5)]);
        other_ops.ops = 60_000;
        let mut other_mode = record("all", &[("fig2", 0.5)]);
        other_mode.sampling_key = "simpoints:100:4:12".into();
        let prior = vec![same.clone(), other_exp, other_ops, other_mode];
        let pool = comparable(&prior, &latest);
        assert_eq!(pool, vec![&same]);
    }

    #[test]
    fn gate_fails_a_synthetically_slowed_run_and_passes_a_repeat() {
        let baseline = record("all", &[("fig2", 0.5), ("fig4", 1.5)]);
        // Repeat run with noise-level jitter: passes a 50% gate.
        let repeat = record("all", &[("fig2", 0.55), ("fig4", 1.45)]);
        assert_eq!(gate(&baseline, &repeat, 50.0, 0.05), vec![]);
        // Synthetically slowed run: total and fig4 both regress.
        let slowed = record("all", &[("fig2", 0.5), ("fig4", 3.5)]);
        let regs = gate(&baseline, &slowed, 50.0, 0.05);
        let phases: Vec<&str> = regs.iter().map(|r| r.phase.as_str()).collect();
        assert_eq!(phases, vec!["total", "fig4"]);
        assert!((regs[0].delta_pct - 100.0).abs() < 1e-9);
        // Faster runs never gate.
        let faster = record("all", &[("fig2", 0.1), ("fig4", 0.2)]);
        assert_eq!(gate(&baseline, &faster, 0.0, 0.0), vec![]);
    }

    #[test]
    fn gate_min_s_floor_suppresses_short_phase_jitter() {
        let baseline = record("all", &[("fig2", 0.010)]);
        // 3x slower but only 20ms absolute: below the 50ms noise floor.
        let jitter = record("all", &[("fig2", 0.030)]);
        assert_eq!(gate(&baseline, &jitter, 50.0, 0.05), vec![]);
        // The same ratio above the floor gates.
        let real = record("all", &[("fig2", 3.0)]);
        assert_eq!(gate(&baseline, &real, 50.0, 0.05).len(), 2);
    }

    #[test]
    fn content_key_is_stable() {
        assert_eq!(content_key(""), "cbf29ce484222325");
        assert_eq!(content_key("a"), "af63dc4c8601ec8c");
        assert_eq!(content_key("a"), content_key("a"));
        assert_ne!(content_key("a"), content_key("b"));
    }
}
