//! `benchmark`: times the `figures` CLI end to end and, in a separate
//! traced pass, layer by layer. See `README.md` next to this package.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark run [--seed N] [--seconds S] [--out FILE]
//! benchmark compare A.json B.json
//! ```
//!
//! The first form measures one workload and prints one JSON object as the
//! last line of stdout: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `run` measures every workload
//! (round-robin) plus the traced pass and writes every sample to a results
//! file; `compare` gives a verdict per workload and end-to-end metric for
//! two such files.

mod check;
mod child;
mod probe;
mod stats;
mod workloads;

use check::{as_f64, Obs};
use child::{Measured, StateDirs, WorkDir};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use workloads::{Output, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// Untimed set-up reps per workload and invocation; `setup_s` is their
/// median.
const SETUPS: usize = 3;
/// Set-up reps per workload in `benchmark run`, whose set-up samples
/// `compare` judges by their quartiles: three samples are too few.
const RUN_SETUPS: usize = 6;
/// Absolute allowance `compare` adds to `setup_s`'s relative bound.
const SETUP_FLOOR_S: f64 = 0.2;
/// A single-workload invocation ends within this, including set-up.
const INVOCATION_BUDGET: Duration = Duration::from_secs(165);
/// Longest one `figures` or probe child may run.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);
/// Bytes per MB in every MB metric (RSS is reported by the kernel in kB).
const MB: f64 = 1024.0 * 1024.0;

fn usage() -> i32 {
    eprintln!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      benchmark run [--seed N] [--seconds S] [--out FILE]\n\
         \x20      benchmark compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    2
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        _ => cmd_workload(&args),
    };
    std::process::exit(code);
}

/// `--flag value` pairs; `None` on a flag outside `allowed` or without a
/// value.
fn flags<'a>(args: &'a [String], allowed: &[&str]) -> Option<BTreeMap<&'a str, &'a str>> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            eprintln!("error: unexpected argument '{flag}'");
            return None;
        }
        let Some(value) = it.next() else {
            eprintln!("error: {flag} needs a value");
            return None;
        };
        out.insert(flag.as_str(), value.as_str());
    }
    Some(out)
}

fn parse_or<T: std::str::FromStr>(f: &BTreeMap<&str, &str>, key: &str, default: T) -> Option<T> {
    match f.get(key) {
        None => Some(default),
        Some(v) => v.parse().ok().or_else(|| {
            eprintln!("error: invalid {key} value '{v}'");
            None
        }),
    }
}

/// The seconds a run measures: `--seconds`, else `run_seconds` from
/// `BENCHMARK.json`.
fn parse_seconds(f: &BTreeMap<&str, &str>) -> Option<f64> {
    let default = manifest()
        .ok()
        .and_then(|m| match m.get("run_seconds") {
            Some(Value::U64(s)) => Some(*s as f64),
            _ => None,
        })
        .unwrap_or(30.0);
    parse_or(f, "--seconds", default).filter(|s: &f64| s.is_finite() && *s > 0.0)
}

/// The repository root (this package's parent directory).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

fn manifest() -> Result<Value, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What every measuring command needs: the `figures` binary, a scratch
/// dir, and the worker count.
struct Ctx {
    figures: PathBuf,
    target: PathBuf,
    work: WorkDir,
    jobs: usize,
    deadline: Option<Instant>,
}

impl Ctx {
    /// Builds the release `figures` binary from the repository's own
    /// workspace into the target dir this binary runs from, so `figures`
    /// is the sibling of `current_exe()`.
    fn prepare(deadline: Option<Instant>) -> Result<Ctx, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("benchmark binary is not in a cargo target dir")?
            .to_path_buf();
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "-p",
                "p10-bench",
                "--bin",
                "figures",
            ])
            .arg("--manifest-path")
            .arg(repo_root().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building figures failed ({status})"));
        }
        let work = WorkDir::create(&target.join("benchmark-work"))
            .and_then(|w| std::fs::create_dir_all(w.path().join("logs")).map(|()| w))
            .map_err(|e| format!("scratch dir: {e}"))?;
        Ok(Ctx {
            figures: exe.with_file_name("figures"),
            work,
            target,
            jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            deadline,
        })
    }

    fn timeout(&self) -> Duration {
        self.deadline.map_or(CHILD_TIMEOUT, |d| {
            d.saturating_duration_since(Instant::now())
                .min(CHILD_TIMEOUT)
        })
    }

    fn out_of_time(&self, needed: Duration) -> bool {
        self.deadline.is_some_and(|d| Instant::now() + needed > d)
    }

    fn log_stem(&self, tag: &str) -> PathBuf {
        self.work.path().join("logs").join(tag)
    }
}

/// One `figures` run that passed every output check.
struct Checked {
    measured: Measured,
    stdout: Vec<u8>,
    obs: Option<Obs>,
}

/// Runs `w` once on `dirs` and checks it: exit status, the committed
/// stdout digest, and for the sampling study that every measured error
/// stays within its printed bound.
fn figures_run(
    ctx: &Ctx,
    w: &Workload,
    dirs: &StateDirs,
    tag: &str,
    obs: bool,
) -> Result<Checked, String> {
    let stem = ctx.log_stem(tag);
    let obs_path = stem.with_extension("obs.json");
    let mut cmd = Command::new(&ctx.figures);
    child::hermetic(&mut cmd)
        .args(w.figures_args())
        .arg("--jobs")
        .arg(ctx.jobs.to_string())
        .arg("--ledger-dir")
        .arg(&dirs.ledger)
        .env("P10SIM_CACHE_DIR", &dirs.cache)
        .env("P10SIM_CKPT_DIR", &dirs.ckpt);
    if obs {
        cmd.arg("--obs-json").arg(&obs_path);
    }
    let measured = child::supervise(&mut cmd, &stem, ctx.timeout())
        .map_err(|e| format!("{tag}: cannot run figures: {e}"))?;
    if !measured.success {
        return Err(format!(
            "{tag}: figures {} after {:.1}s\n{}",
            if measured.timed_out {
                "timed out"
            } else {
                "failed"
            },
            measured.wall_s,
            child::stderr_tail(&stem, 15)
        ));
    }
    let stdout = std::fs::read(stem.with_extension("out")).map_err(|e| format!("{tag}: {e}"))?;
    let digest = check::output_digest(w.output, &stdout).map_err(|e| format!("{tag}: {e}"))?;
    if digest != w.digest {
        return Err(format!(
            "{tag}: stdout digest {digest:016x}, expected {:016x}",
            w.digest
        ));
    }
    if w.output == Output::SamplingJson {
        let (_, payload) = check::split_sampling(&stdout)?;
        let acc = check::sampling_accuracy(&payload)?;
        if acc.err_over_bound_max > 1.0 {
            return Err(format!(
                "{tag}: a measured error exceeds its printed bound ({:.3}x)",
                acc.err_over_bound_max
            ));
        }
    }
    let obs = if obs {
        let text =
            std::fs::read_to_string(&obs_path).map_err(|e| format!("{tag}: obs json: {e}"))?;
        Some(Obs::parse(&text).map_err(|e| format!("{tag}: {e}"))?)
    } else {
        None
    };
    Ok(Checked {
        measured,
        stdout,
        obs,
    })
}

/// One repetition of a workload: a first run and its rerun, both checked.
struct Rep {
    /// The first run's wall time alone.
    first_wall_s: f64,
    /// Both runs together: wall and CPU time add up, peak RSS is the
    /// larger one, and disk counts what both left under the rep's root.
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    disk_mb: f64,
    /// The first run's stdout (the rerun's passed the same digest check).
    stdout: Vec<u8>,
    /// The first run's summary with the rerun's counts added.
    obs: Option<Obs>,
}

/// Runs `w` the way a user meets it, under `root`: a first run on empty
/// cache and checkpoint dirs, then a rerun on what the first run left
/// there. Either failing check fails the rep.
fn rep_run(ctx: &Ctx, w: &Workload, root: &Path, tag: &str, obs: bool) -> Result<Rep, String> {
    std::fs::create_dir_all(root).map_err(|e| format!("{tag}: {e}"))?;
    let first = figures_run(
        ctx,
        w,
        &StateDirs::under(root, "first"),
        &format!("{tag}-first"),
        obs,
    )?;
    let rerun = figures_run(
        ctx,
        w,
        &StateDirs::under(root, "rerun"),
        &format!("{tag}-rerun"),
        obs,
    )?;
    let (a, b) = (&first.measured, &rerun.measured);
    let obs = first.obs.map(|mut o| {
        o.merge(&rerun.obs.unwrap_or_default());
        o
    });
    #[allow(clippy::cast_precision_loss)]
    Ok(Rep {
        first_wall_s: a.wall_s,
        wall_s: a.wall_s + b.wall_s,
        cpu_s: a.cpu_s + b.cpu_s,
        peak_rss_mb: a.peak_rss_mb.max(b.peak_rss_mb),
        disk_mb: child::dir_bytes(root) as f64 / MB,
        stdout: first.stdout,
        obs,
    })
}

/// Reps (and traced-pass steps) attempted and failed for one workload.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn count<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            eprintln!("[benchmark] FAILED {e}");
        })
        .ok()
    }
}

/// The end-to-end samples of one workload.
struct Timed {
    w: &'static Workload,
    /// Per metric, in `END_TO_END` order.
    samples: [Vec<f64>; 5],
    /// The first run's share of each timed rep's `wall_s`.
    first_wall_s: Vec<f64>,
    /// The first rep's exact counters; later reps must match them.
    counters: Option<BTreeMap<String, u64>>,
    last_rep_s: f64,
    tally: Tally,
}

impl Timed {
    fn new(w: &'static Workload) -> Timed {
        Timed {
            w,
            samples: Default::default(),
            first_wall_s: Vec::new(),
            counters: None,
            last_rep_s: 0.0,
            tally: Tally::default(),
        }
    }

    /// Set-up: one untimed, checked rep in fresh state dirs that are
    /// discarded afterwards, so every timed rep finds the binary, the
    /// page cache and the allocator warm.
    fn setup(&mut self, ctx: &Ctx, k: usize) {
        let tag = format!("{}-setup{k}", self.w.name);
        let root = ctx.work.path().join(&tag);
        let start = Instant::now();
        let run = rep_run(ctx, self.w, &root, &tag, false);
        let setup_s = start.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&root);
        if self.tally.count(run).is_some() {
            self.samples[4].push(setup_s);
        }
    }

    /// One timed, checked rep on fresh state dirs.
    fn rep(&mut self, ctx: &Ctx, i: usize) {
        let tag = format!("{}-rep{i}", self.w.name);
        let root = ctx.work.path().join(&tag);
        let run = rep_run(ctx, self.w, &root, &tag, true);
        let _ = std::fs::remove_dir_all(&root);
        let run = run.and_then(|c| {
            let exact: BTreeMap<String, u64> = c
                .obs
                .as_ref()
                .map(|o| {
                    o.exact_counters()
                        .into_iter()
                        .map(|(k, v)| (k.to_owned(), v))
                        .collect()
                })
                .unwrap_or_default();
            match &self.counters {
                Some(first) if *first != exact => Err(format!(
                    "{tag}: obs counters differ from the first rep's: {}",
                    diff_counters(first, &exact)
                )),
                _ => {
                    self.counters.get_or_insert(exact);
                    Ok(c)
                }
            }
        });
        if let Some(r) = self.tally.count(run) {
            for (s, v) in
                self.samples[..4]
                    .iter_mut()
                    .zip([r.wall_s, r.cpu_s, r.peak_rss_mb, r.disk_mb])
            {
                s.push(v);
            }
            self.first_wall_s.push(r.first_wall_s);
            self.last_rep_s = r.wall_s;
        }
    }

    /// Median wall time of the first run and of the rerun, for stderr.
    fn split(&self) -> String {
        let reruns: Vec<f64> = self.samples[0]
            .iter()
            .zip(&self.first_wall_s)
            .map(|(rep, first)| rep - first)
            .collect();
        format!(
            "first run {:.3}s, rerun {:.3}s (medians)",
            stats::median(&self.first_wall_s),
            stats::median(&reruns)
        )
    }
}

fn diff_counters(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> String {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    keys.into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .map(|k| format!("{k} {:?} -> {:?}", a.get(k), b.get(k)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Measures `ws` end to end: `setups` set-ups each, then timed reps
/// round-robin — each round starting one workload later — until
/// `seconds` per workload have been measured.
fn measure(ctx: &Ctx, ws: &[&'static Workload], seconds: f64, setups: usize) -> Vec<Timed> {
    let mut timed: Vec<Timed> = ws.iter().copied().map(Timed::new).collect();
    for k in 0..setups {
        for t in &mut timed {
            t.setup(ctx, k);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let budget = seconds * ws.len() as f64;
    let start = Instant::now();
    for round in 0.. {
        let n = timed.len();
        let before: usize = timed.iter().map(|t| t.samples[0].len()).sum();
        for j in 0..n {
            timed[(round + j) % n].rep(ctx, round);
        }
        let after: usize = timed.iter().map(|t| t.samples[0].len()).sum();
        let round_s: f64 = timed.iter().map(|t| t.last_rep_s).sum();
        let elapsed = start.elapsed().as_secs_f64();
        // A round in which every run failed would only fail again.
        if after == before
            || elapsed + round_s > budget
            || ctx.out_of_time(Duration::from_secs_f64(round_s * 1.5))
        {
            break;
        }
    }
    timed
}

/// The per-layer metrics of one workload's traced pass: one checked
/// `--obs-json` rep (first run plus rerun) for the program's exact
/// counters, then the probe with spans off and with spans on.
fn traced(
    ctx: &Ctx,
    w: &'static Workload,
    seed: u64,
    tally: &mut Tally,
) -> Option<Vec<(&'static str, f64)>> {
    let tag = format!("{}-obs", w.name);
    let root = ctx.work.path().join(&tag);
    let run = rep_run(ctx, w, &root, &tag, true);
    let _ = std::fs::remove_dir_all(&root);
    let run = tally.count(run)?;
    let obs = run.obs.unwrap_or_default();
    let accuracy = match w.output {
        Output::SamplingJson => check::split_sampling(&run.stdout)
            .and_then(|(_, p)| check::sampling_accuracy(&p))
            .ok(),
        Output::Text => None,
    };
    let traces = ctx.target.join("benchmark-traces");
    let trace_file = traces.join(format!("{}.json", w.name));
    let off = tally.count(probe_child(
        ctx,
        w,
        seed,
        false,
        &ctx.log_stem(&format!("{}-probe-off", w.name))
            .with_extension("json"),
    ))?;
    let on = tally.count(
        std::fs::create_dir_all(&traces)
            .map_err(|e| e.to_string())
            .and_then(|()| probe_child(ctx, w, seed, true, &trace_file)),
    )?;
    report_layers(w, &on, &trace_file);
    let parallelism = run.cpu_s / run.wall_s.max(1e-9);
    Some(layer_metrics(&on, off.wall_s, &obs, accuracy, parallelism))
}

/// Maps a traced pass onto the `PER_LAYER` metrics, in their order: probe
/// self times, probe counts, and the obs run's counters. A layer the
/// workload never reaches reads 0.
fn layer_metrics(
    on: &probe::Trace,
    off_wall_s: f64,
    obs: &Obs,
    accuracy: Option<check::Accuracy>,
    parallelism: f64,
) -> Vec<(&'static str, f64)> {
    let st = on.self_times();
    let s = |name: &str| st.get(name).copied().unwrap_or(0.0);
    let core_run = on.total_s("core.run");
    let overhead = |name: &str| {
        let t = on.total_s(name);
        if t > 0.0 {
            t - core_run
        } else {
            0.0
        }
    };
    #[allow(clippy::cast_precision_loss)]
    let c = |name: &str| obs.counter(name) as f64;
    #[allow(clippy::cast_precision_loss)]
    let per_live = if on.counts.live_cycles > 0 {
        core_run * 1e9 / on.counts.live_cycles as f64
    } else {
        0.0
    };
    let acc = |f: fn(&check::Accuracy) -> f64| accuracy.as_ref().map_or(0.0, f);
    #[allow(clippy::cast_precision_loss)]
    let values: [(&str, f64); 51] = [
        ("workloads.synth_s", s("workloads.synth")),
        ("workloads.arena_hits", c("trace.arena.hits")),
        ("workloads.arena_misses", c("trace.arena.misses")),
        ("workloads.arena_mb", c("trace.arena.bytes") / MB),
        ("core.run_s", core_run),
        ("core.ns_per_live_cycle", per_live),
        ("core.live_cycles", on.counts.live_cycles as f64),
        ("core.span_cycles", on.counts.span_cycles as f64),
        ("core.sim_cycles", c("sim.cycles")),
        ("core.sim_ops", c("sim.instructions")),
        ("core.runs", c("sim.runs")),
        ("rtlsim.overhead_s", overhead("rtlsim.detailed")),
        ("apex.overhead_s", overhead("apex.extract")),
        ("record.overhead_s", overhead("record.activity")),
        ("observers.live_cycles", c("sim.observed_live_cycles")),
        ("observers.span_cycles", c("sim.observed_span_cycles")),
        ("observers.span_hit_rate", obs.gauge("sim.span_hit_rate")),
        ("warm.observe_s", s("warm.observe")),
        ("warm.passes", c("sampling.warm_passes")),
        ("ckpt.encode_s", s("ckpt.encode")),
        ("ckpt.decode_s", s("ckpt.decode")),
        ("ckpt.hits", c("sampling.ckpt_hits")),
        ("ckpt.misses", c("sampling.ckpt_misses")),
        ("ckpt.mb", c("sampling.ckpt_bytes") / MB),
        ("sampling.fill_s", s("sampling.fill")),
        ("sampling.measure_s", s("sampling.measure")),
        ("sampling.exact_ref_s", s("sampling.exact_ref")),
        ("sampling.detail_ops", c("sim.sample.simulated_ops")),
        ("sampling.skipped_ops", c("sim.sample.skipped_ops")),
        ("sampling.coverage", obs.gauge("sim.sample.coverage")),
        ("sampling.bound_rounds", c("sampling.bound_rounds")),
        ("sampling.cpi_err_pct_max", acc(|a| a.cpi_err_pct_max)),
        ("sampling.err_over_bound_max", acc(|a| a.err_over_bound_max)),
        ("sampling.cpi_bound_pct_mean", acc(|a| a.cpi_bound_pct_mean)),
        ("power.evaluate_windows_s", s("power.evaluate_windows")),
        ("power.windows", on.counts.windows as f64),
        ("wof.replay_s", s("wof.replay")),
        ("dse.recordings", c("dse.recordings_simulated")),
        ("dse.replay_hits", c("dse.replay_hits")),
        ("dse.shards_computed", c("dse.shards_computed")),
        ("runner.cache_write_s", s("runner.cache_write")),
        ("runner.cache_read_s", s("runner.cache_read")),
        ("runner.disk_hits", c("cache.disk_hits")),
        ("runner.computes", c("cache.computes")),
        ("runner.decode_errors", c("cache.disk_decode_errors")),
        ("runner.queue_wait_s", obs.hist_sum("runner.queue_wait")),
        ("runner.busy_frac", obs.mean_busy_frac()),
        ("runner.parallelism", parallelism),
        ("probe.wall_s", on.wall_s),
        ("probe.other_s", s("probe")),
        (
            "probe.trace_overhead_pct",
            (on.wall_s - off_wall_s) / off_wall_s.max(1e-9) * 100.0,
        ),
    ];
    values.to_vec()
}

/// One probe pass in a fresh process (cold arena, empty engine memo).
fn probe_child(
    ctx: &Ctx,
    w: &Workload,
    seed: u64,
    spans: bool,
    out: &Path,
) -> Result<probe::Trace, String> {
    let tag = format!("{}-probe-{}", w.name, if spans { "on" } else { "off" });
    let scratch = ctx.work.path().join(&tag);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    child::hermetic(&mut cmd)
        .args(["probe", "--workload", w.name, "--seed", &seed.to_string()])
        .args(["--spans", if spans { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .arg("--scratch")
        .arg(&scratch);
    let stem = ctx.log_stem(&tag);
    let m = child::supervise(&mut cmd, &stem, ctx.timeout()).map_err(|e| format!("{tag}: {e}"))?;
    let _ = std::fs::remove_dir_all(&scratch);
    if !m.success {
        return Err(format!(
            "{tag}: probe failed\n{}",
            child::stderr_tail(&stem, 15)
        ));
    }
    let text = std::fs::read_to_string(out).map_err(|e| format!("{tag}: {e}"))?;
    let v = serde_json::parse(&text).map_err(|e| format!("{tag}: {e}"))?;
    probe::Trace::from_chrome(&v).map_err(|e| format!("{tag}: {e}"))
}

/// Prints the probe's per-layer self times on stderr.
fn report_layers(w: &Workload, t: &probe::Trace, file: &Path) {
    let st = t.self_times();
    let mut rows: Vec<(&String, &f64)> = st.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    eprintln!(
        "[benchmark] {} probe: {:.3}s wall, self time per layer:",
        w.name, t.wall_s
    );
    for (name, secs) in rows {
        eprintln!(
            "[benchmark]   {name:<24} {secs:>9.4}s {:>6.1}%",
            secs * 100.0 / t.wall_s.max(1e-9)
        );
    }
    let other = st.get("probe").copied().unwrap_or(0.0);
    let covered = 100.0 * (1.0 - other / t.wall_s.max(1e-9));
    eprintln!(
        "[benchmark]   layers cover {covered:.2}% of the probe wall{}; trace: {}",
        if covered < 98.0 { " (below 98%)" } else { "" },
        file.display()
    );
}

/// The one-line JSON result: run counts and each metric's value and unit.
fn result_line(tally: Tally, metrics: &[(&str, f64)]) -> String {
    let metrics: Vec<(String, Value)> = metrics
        .iter()
        .map(|&(name, v)| {
            let unit = workloads::unit_of(name).expect("known metric");
            let value = if v.is_finite() { v } else { 0.0 };
            (name.to_owned(), json!({"value": value, "unit": unit}))
        })
        .collect();
    // Nothing attempted is a failure, never a vacuous success.
    json!({
        "correct": tally.failed == 0 && tally.attempted > 0,
        "attempted": tally.attempted.max(1),
        "failed": tally.failed.max(u64::from(tally.attempted == 0)),
        "metrics": Value::Object(metrics),
    })
    .to_string()
}

fn e2e_medians(t: &Timed) -> Vec<(&'static str, f64)> {
    END_TO_END
        .iter()
        .zip(&t.samples)
        .map(|((name, _), xs)| (*name, stats::median(xs)))
        .collect()
}

/// `benchmark --workload NAME ...`: one workload, one result line.
fn cmd_workload(args: &[String]) -> i32 {
    let Some(f) = flags(args, &["--workload", "--seed", "--seconds", "--trace"]) else {
        return usage();
    };
    let Some(w) = f.get("--workload").and_then(|n| workloads::find(n)) else {
        eprintln!("error: --workload must name one of the workloads");
        return usage();
    };
    let (Some(seed), Some(seconds), Some(trace)) = (
        parse_or(&f, "--seed", 42u64),
        parse_seconds(&f),
        parse_or(&f, "--trace", 0u8).filter(|t| *t <= 1),
    ) else {
        return usage();
    };
    let ctx = match Ctx::prepare(Some(Instant::now() + INVOCATION_BUDGET)) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let line = if trace == 1 {
        let mut tally = Tally::default();
        let metrics = traced(&ctx, w, seed, &mut tally)
            .unwrap_or_else(|| PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect());
        result_line(tally, &metrics)
    } else {
        let timed = measure(&ctx, &[w], seconds, SETUPS);
        let t = &timed[0];
        eprintln!(
            "[benchmark] {}: {} timed reps, {} set-ups, {} of {} reps failed; {}",
            w.name,
            t.samples[0].len(),
            t.samples[4].len(),
            t.tally.failed,
            t.tally.attempted,
            t.split()
        );
        result_line(t.tally, &e2e_medians(t))
    };
    println!("{line}");
    0
}

fn host_info() -> Value {
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".to_owned(), |h| h.trim().to_owned());
    let root = repo_root();
    // A checkout that is not a repository must not report the revision of
    // a repository it happens to sit in.
    let git_rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    json!({"nproc": nproc, "hostname": hostname, "git_rev": git_rev})
}

/// `benchmark run`: every workload end to end, round-robin, then every
/// traced pass; every sample goes to the results file.
fn cmd_run(args: &[String]) -> i32 {
    let Some(f) = flags(args, &["--seed", "--seconds", "--out"]) else {
        return usage();
    };
    let (Some(seed), Some(seconds)) = (parse_or(&f, "--seed", 42u64), parse_seconds(&f)) else {
        return usage();
    };
    let ctx = match Ctx::prepare(None) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let out = f
        .get("--out")
        .map_or_else(|| ctx.target.join("benchmark-results.json"), PathBuf::from);
    let all: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let timed = measure(&ctx, &all, seconds, RUN_SETUPS);
    let mut failed = 0;
    let mut results = Vec::new();
    for t in timed {
        let mut tally = t.tally;
        let layers = traced(&ctx, t.w, seed, &mut tally).unwrap_or_default();
        failed += tally.failed;
        println!(
            "{} ({} of {} reps failed; {})",
            t.w.name,
            tally.failed,
            tally.attempted,
            t.split()
        );
        let mut e2e = Vec::new();
        for ((name, unit), xs) in END_TO_END.iter().zip(&t.samples) {
            let (q1, q3) = stats::quartiles(xs);
            let med = stats::median(xs);
            println!(
                "  {name:<28} {med:>12.4} {unit:<6} q1 {q1:.4} q3 {q3:.4} n={}",
                xs.len()
            );
            e2e.push((
                (*name).to_owned(),
                json!({"unit": unit, "median": med, "q1": q1, "q3": q3, "samples": xs}),
            ));
        }
        let mut layer = Vec::new();
        for (name, v) in &layers {
            let unit = workloads::unit_of(name).expect("known metric");
            println!("  {name:<28} {v:>12.4} {unit}");
            layer.push(((*name).to_owned(), json!({"unit": unit, "value": v})));
        }
        results.push(json!({
            "name": t.w.name,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "end_to_end": Value::Object(e2e),
            "per_layer": Value::Object(layer),
        }));
    }
    let doc = json!({
        "schema": "p10-benchmark-results/1",
        "host": host_info(),
        "seed": seed,
        "seconds": seconds,
        "workloads": results,
    });
    let text = serde_json::to_string_pretty(&doc).expect("results render");
    if let Err(e) = std::fs::write(&out, text + "\n") {
        eprintln!("error: {}: {e}", out.display());
        return 1;
    }
    println!("results: {}", out.display());
    i32::from(failed > 0)
}

/// One workload's entry of a results file.
struct Entry {
    e2e: BTreeMap<String, Vec<f64>>,
    layers: BTreeMap<String, (String, f64)>,
}

fn read_results(path: &str) -> Result<(u64, BTreeMap<String, Entry>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let seed = match doc.get("seed") {
        Some(Value::U64(s)) => *s,
        _ => return Err(format!("{path}: no seed")),
    };
    let mut out = BTreeMap::new();
    for w in doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or(format!("{path}: no workloads"))?
    {
        let Some(Value::Str(name)) = w.get("name") else {
            return Err(format!("{path}: workload without a name"));
        };
        let mut e2e = BTreeMap::new();
        for (metric, v) in w
            .get("end_to_end")
            .and_then(Value::as_object)
            .unwrap_or_default()
        {
            let samples = v
                .get("samples")
                .and_then(Value::as_array)
                .unwrap_or_default();
            e2e.insert(metric.clone(), samples.iter().filter_map(as_f64).collect());
        }
        let mut layers = BTreeMap::new();
        for (metric, v) in w
            .get("per_layer")
            .and_then(Value::as_object)
            .unwrap_or_default()
        {
            if let (Some(Value::Str(unit)), Some(x)) =
                (v.get("unit"), v.get("value").and_then(as_f64))
            {
                layers.insert(metric.clone(), (unit.clone(), x));
            }
        }
        out.insert(name.clone(), Entry { e2e, layers });
    }
    Ok((seed, out))
}

/// `benchmark compare A.json B.json`: a verdict per workload and
/// end-to-end metric (B against A, with the committed bounds), and an
/// exact check of every per-layer count. Exits 1 on any "worse" verdict
/// or differing count.
fn cmd_compare(args: &[String]) -> i32 {
    let [a_path, b_path] = args else {
        return usage();
    };
    let loaded = manifest().and_then(|m| {
        let bounds: BTreeMap<String, f64> = m
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|e| match (e.get("name"), e.get("bound").and_then(as_f64)) {
                (Some(Value::Str(n)), Some(b)) => Some((n.clone(), b)),
                _ => None,
            })
            .collect();
        Ok((bounds, read_results(a_path)?, read_results(b_path)?))
    });
    let (bounds, (seed_a, a), (seed_b, b)) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mut bad = 0;
    for (name, ea) in &a {
        let Some(eb) = b.get(name) else {
            println!("{name}: missing from {b_path}");
            bad += 1;
            continue;
        };
        for (metric, _) in END_TO_END {
            let bound = bounds.get(metric).copied().unwrap_or(0.0);
            let floor = if metric == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let samples = |e: &Entry| e.e2e.get(metric).cloned().unwrap_or_default();
            let (xa, xb) = (samples(ea), samples(eb));
            let v = stats::verdict(&xa, &xb, bound, floor);
            bad += usize::from(v == stats::Verdict::Worse);
            println!(
                "{name:<14} {metric:<12} {:>10.4} -> {:>10.4}  spread {:>5.1}% / {:>5.1}%  bound {:>4.1}%  {}",
                stats::median(&xa),
                stats::median(&xb),
                stats::rel_spread(&xa) * 100.0,
                stats::rel_spread(&xb) * 100.0,
                bound * 100.0,
                v.label()
            );
        }
        if seed_a != seed_b {
            continue;
        }
        for (metric, (unit, va)) in &ea.layers {
            if unit != "count" {
                continue;
            }
            match eb.layers.get(metric) {
                Some((_, vb)) if vb == va => {}
                other => {
                    bad += 1;
                    println!(
                        "{name:<14} {metric} differs: {va} -> {:?}",
                        other.map(|(_, v)| v)
                    );
                }
            }
        }
    }
    if seed_a != seed_b {
        println!("seeds differ ({seed_a} vs {seed_b}): per-layer counts not compared");
    }
    i32::from(bad > 0)
}

/// `benchmark probe ...`: one probe pass, written as a Chrome trace.
/// Spawned by the traced pass; not meant to be run by hand.
fn cmd_probe(args: &[String]) -> i32 {
    let Some(f) = flags(
        args,
        &["--workload", "--seed", "--spans", "--out", "--scratch"],
    ) else {
        return usage();
    };
    let (Some(w), Some(seed), Some(spans), Some(out), Some(scratch)) = (
        f.get("--workload").and_then(|n| workloads::find(n)),
        parse_or(&f, "--seed", 42u64),
        parse_or(&f, "--spans", 1u8).filter(|s| *s <= 1),
        f.get("--out"),
        f.get("--scratch"),
    ) else {
        return usage();
    };
    let result = probe::run(w.probe, seed, w.ops, Path::new(scratch), spans == 1).and_then(|t| {
        let text = serde_json::to_string(&t.to_chrome(w.name, seed)).expect("trace renders");
        std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))
    });
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            Tally {
                attempted: 9,
                failed: 0,
            },
            &[("wall_s", 1.2034), ("setup_s", 0.8127)],
        );
        let v = serde_json::parse(&line).expect("json");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Value::U64(9)));
        assert_eq!(v.get("failed"), Some(&Value::U64(0)));
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value"), Some(&Value::F64(1.2034)));
        assert_eq!(wall.get("unit"), Some(&Value::Str("s".to_owned())));
        // Nothing attempted is a failure, never a vacuous success.
        let empty = serde_json::parse(&result_line(Tally::default(), &[])).expect("json");
        assert_eq!(empty.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(empty.get("attempted"), Some(&Value::U64(1)));
        assert_eq!(empty.get("failed"), Some(&Value::U64(1)));
    }

    #[test]
    fn layer_metrics_follow_the_per_layer_table() {
        let span = |name: &str, dur_us: f64| probe::Span {
            name: name.to_owned(),
            start_us: 0.0,
            dur_us,
            parent: Some(0),
        };
        let on = probe::Trace {
            spans: vec![
                probe::Span {
                    name: "probe".to_owned(),
                    start_us: 0.0,
                    dur_us: 10e6,
                    parent: None,
                },
                span("core.run", 2e6),
                span("record.activity", 3e6),
                span("workloads.synth", 1e6),
            ],
            wall_s: 10.0,
            counts: probe::Counts {
                live_cycles: 1000,
                span_cycles: 9000,
                windows: 4,
            },
        };
        let obs = Obs::parse(r#"{"counters": [{"name": "sim.runs", "value": 20}]}"#).expect("obs");
        let m = layer_metrics(&on, 8.0, &obs, None, 1.5);
        assert!(m
            .iter()
            .map(|(n, _)| *n)
            .eq(PER_LAYER.iter().map(|(n, _)| *n)));
        let get = |name: &str| m.iter().find(|(n, _)| *n == name).expect("metric").1;
        assert_eq!(get("core.runs"), 20.0);
        assert_eq!(get("ckpt.hits"), 0.0);
        assert!((get("record.overhead_s") - 1.0).abs() < 1e-9);
        assert_eq!(get("rtlsim.overhead_s"), 0.0);
        assert!((get("core.ns_per_live_cycle") - 2e6).abs() < 1e-3);
        assert!((get("probe.other_s") - 4.0).abs() < 1e-9);
        assert!((get("probe.trace_overhead_pct") - 25.0).abs() < 1e-9);
        assert_eq!(get("runner.parallelism"), 1.5);
    }

    #[test]
    fn flags_reject_unknown_and_dangling_arguments() {
        let args = |xs: &[&str]| xs.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let ok = args(&["--workload", "dse", "--seed", "3"]);
        let f = flags(&ok, &["--workload", "--seed"]).expect("valid");
        assert_eq!(f["--seed"], "3");
        assert!(flags(&args(&["--bogus", "1"]), &["--seed"]).is_none());
        assert!(flags(&args(&["--seed"]), &["--seed"]).is_none());
    }
}
