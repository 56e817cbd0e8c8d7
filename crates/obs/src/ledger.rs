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
//! mode, so concurrent runs interleave whole records. Each line ends in
//! its checksum, ` fnv1a64:<16 hex>` over the record's JSON (the result
//! store's trailer convention, on one line), so [`read`] tells an intact
//! record from a damaged one: a line that is torn, has a changed byte or
//! digit, or comes from an older schema is counted and skipped rather
//! than read as a wrong value or failing the whole history.

use crate::Summary;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Schema version stamped into every record. v4 frames each line with
/// its checksum ([`unframe`]); lines of v1–v3 carry none and count as
/// unreadable. (v3 dropped v2's derived `cache`/`arena`/`sampling`/
/// `workers` sections, which repeated the summary's counters.)
pub const SCHEMA: u32 = 4;

/// What separates a ledger line's JSON from its checksum.
const FRAME: &str = " fnv1a64:";

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

/// The JSON of one framed ledger line (without its newline): `None`
/// unless the line ends in ` fnv1a64:<16 hex>` and those digits are the
/// [`content_key`] of the text before them.
#[must_use]
pub fn unframe(line: &str) -> Option<&str> {
    let (json, sum) = line.rsplit_once(FRAME)?;
    (sum == content_key(json)).then_some(json)
}

/// Appends one record to `dir/ledger.jsonl` (creating the directory as
/// needed) and returns the ledger path. One framed line, one `write`
/// call.
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
    f.write_all(format!("{line}{FRAME}{}\n", content_key(&line)).as_bytes())?;
    Ok(path)
}

/// Reads the full run history from `dir/ledger.jsonl`, oldest first,
/// and the number of non-empty lines it skipped. A missing ledger is an
/// empty history; lines that are not UTF-8, lack a matching checksum
/// ([`unframe`]) or fail to parse (torn writes, flipped bytes, older
/// schemas) are skipped, so one bad line costs only its own record.
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
        .map(|l| serde_json::from_str(unframe(std::str::from_utf8(l).ok()?)?).ok())
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

    /// One way to damage a ledger line.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        /// Cut the line at a random length (a torn append).
        Truncate,
        /// Flip one random bit of the line, checksum included.
        FlipBit,
        /// Change one decimal digit of the record to another digit.
        ChangeDigit,
        /// Flip one bit of the checksum's hex digits.
        FlipChecksum,
        /// Replace it with a well-formed line of another format: an
        /// unframed schema-3 record, or a framed line that is no record.
        Skew,
    }

    /// SplitMix64: a seeded, dependency-free source of test randomness.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random index below `n`.
    fn below(state: &mut u64, n: usize) -> usize {
        (next(state) % n as u64) as usize
    }

    /// Damages `line` (no newline): never into one that holds a newline,
    /// which would make one damaged line read as two.
    fn damage(rng: &mut u64, line: &[u8], damage: Damage, round: usize) -> Vec<u8> {
        let mut bytes = line.to_vec();
        let sum_at = bytes.len() - 16;
        let flip = |bytes: &mut Vec<u8>, i: usize, rng: &mut u64| loop {
            let flipped = bytes[i] ^ (1 << below(rng, 8));
            if flipped != b'\n' {
                bytes[i] = flipped;
                return;
            }
        };
        match damage {
            Damage::Truncate => bytes.truncate(1 + below(rng, bytes.len() - 1)),
            Damage::FlipBit => {
                let i = below(rng, bytes.len());
                flip(&mut bytes, i, rng);
            }
            Damage::ChangeDigit => {
                let digits: Vec<usize> = (0..sum_at - FRAME.len())
                    .filter(|&i| bytes[i].is_ascii_digit())
                    .collect();
                let i = digits[below(rng, digits.len())];
                bytes[i] = b'0' + (bytes[i] - b'0' + 1 + below(rng, 9) as u8) % 10;
            }
            Damage::FlipChecksum => {
                let i = sum_at + below(rng, 16);
                flip(&mut bytes, i, rng);
            }
            Damage::Skew if round.is_multiple_of(2) => {
                let json = unframe(std::str::from_utf8(line).expect("utf-8")).expect("intact");
                bytes = json
                    .replacen("\"schema\":4", "\"schema\":3", 1)
                    .into_bytes();
            }
            Damage::Skew => {
                let json = "{\"torn\":1}";
                bytes = format!("{json}{FRAME}{}", content_key(json)).into_bytes();
            }
        }
        bytes
    }

    #[test]
    fn a_flipped_byte_costs_only_its_own_record() {
        let dir = scratch_dir("flipbyte");
        let records = [
            record("all", &[("fig2", 0.5)]),
            record("all", &[("fig2", 0.4)]),
            record("fig4", &[("fig4", 1.0)]),
        ];
        for r in &records {
            append(&dir, r).expect("append");
        }
        let path = dir.join(LEDGER_FILE);
        let intact = std::fs::read(&path).expect("ledger bytes");
        let lines: Vec<&[u8]> = intact
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .collect();
        assert_eq!(read(&dir).expect("intact ledger"), (records.to_vec(), 0));
        let kinds = [
            Damage::Truncate,
            Damage::FlipBit,
            Damage::ChangeDigit,
            Damage::FlipChecksum,
            Damage::Skew,
        ];
        let mut rng = 0x5eed_u64;
        for round in 0..200 {
            let kind = kinds[round % kinds.len()];
            let victim = below(&mut rng, lines.len());
            let mut text = Vec::new();
            for (i, line) in lines.iter().enumerate() {
                if i == victim {
                    text.extend(damage(&mut rng, line, kind, round / kinds.len()));
                } else {
                    text.extend_from_slice(line);
                }
                // A torn last line may also lose its newline.
                if i + 1 < lines.len() || !round.is_multiple_of(3) {
                    text.push(b'\n');
                }
            }
            std::fs::write(&path, &text).expect("plant damaged line");
            let mut kept = records.to_vec();
            kept.remove(victim);
            assert_eq!(
                read(&dir).expect("read damaged ledger"),
                (kept, 1),
                "round {round}: {kind:?} on line {victim}"
            );
        }
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
