//! Regenerates every table and figure of the paper.
//!
//! Usage:
//! ```text
//! figures <experiment> [--json] [--ops N] [--out DIR] [--jobs N] [--no-cache] [--trace-out FILE] [--trace-format jsonl|chrome] [--obs-json FILE] [--ledger-dir DIR] [--no-ledger] [--sampling MODE]
//! figures obsreport [--ledger-dir DIR] [--baseline SEL] [--gate PCT] [--min-s SECS]
//! ```
//! `--out DIR` also writes each experiment's JSON payload (what `--json`
//! prints after the header) to `DIR/<exp>.json`. `--jobs N` sets the
//! worker-pool width (default: all CPUs) and `--no-cache` disables the
//! on-disk result cache (`target/p10sim-cache`, override with
//! `P10SIM_CACHE_DIR`); see `p10_core::runner`. `--sampling MODE`
//! selects how the engine runs its benchmark points: `exact` (default,
//! byte-identical reference) or `bound:PCT` (grow the cluster count until
//! the reported error bound is at most PCT percent) — see
//! `p10_core::sampling`. Only the experiments marked `sampled` in
//! `EXPERIMENTS` run engine benchmark points; a non-exact mode on any
//! other single experiment is a usage error. Sampled runs persist
//! warm-state checkpoints under the engine's disk cache (override the
//! directory with `P10SIM_CKPT_DIR`), so sweeps re-warm once per
//! warm-equivalence class instead of once per config.
//! `--trace-out FILE` writes an event trace via `p10_obs` — JSON lines
//! by default, or a `chrome://tracing`/Perfetto-loadable trace-event
//! file with `--trace-format chrome` (which needs `--trace-out`); either
//! way an end-of-run summary table lands on stderr. `--obs-json FILE`
//! additionally serializes that summary as one JSON object for scripts.
//! `dse` keeps its class recordings and shard results in the result
//! cache, so a killed or concurrent sweep reuses what is on disk.
//!
//! Every run also appends one `RunRecord` JSON line (identity, provenance
//! and the `[obs]` summary) to the persistent run ledger
//! (`target/p10sim-ledger/`, overridable with `--ledger-dir`, disabled
//! with `--no-ledger`) — see `p10_obs::ledger`. The `obsreport`
//! pseudo-experiment reads that history back: it prints
//! wall-time/cache/coverage trends for the latest run against a
//! baseline (`--baseline` selects one; default is the previous
//! comparable run), derived from each record's summary counters, and
//! with `--gate PCT` exits non-zero when the latest run regressed more
//! than `PCT` percent (deltas under `--min-s` seconds never gate). It
//! takes only the four flags in its usage line; any other flag is a
//! usage error, as are its own flags on any other experiment.
//! `<experiment>` is a name in `EXPERIMENTS`, `obsreport`, or `all` (the
//! default) — every experiment marked for `all`, in table order. Each
//! driver receives only the op budget. `dse` (the design-space Pareto
//! sweep), `profile` (the cycle-attribution tables) and `sampling` (the
//! exact-vs-sampled error/speedup study, whose wall-clock numbers vary
//! run to run) run on demand only, which keeps `all`'s stdout stable
//! across additions.
//!
//! Stdout discipline: ledger, trace, and obs-json outputs never touch
//! experiment stdout — `figures all` stdout is byte-identical with all
//! of them enabled or disabled (wall-clock data lives on stderr and in
//! the ledger only).

use p10_bench::{suite, FULL_OPS};
use p10_core::dse;
use p10_core::powerstudies::{
    build_dataset, build_datasets, run_fig10, run_fig11, run_fig12, run_fig15a, run_fig15b, Target,
};
use p10_core::runner;
use p10_core::sampling::{self, SamplingMode};
use p10_core::{ablation, flush, gemm, inference, rasstudy, scenario, socket, table1, tracestudy};
use p10_kernels::models::{bert_large, resnet50};
use p10_powermgmt::wof;
use p10_uarch::CoreConfig;
use p10_workloads::microbench::derating_grid;
use p10_workloads::suite::extended_groups;
use p10_workloads::{chopstix, Benchmark};
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::path::{Path, PathBuf};

/// An experiment: its name, its driver, whether `all` runs it, and
/// whether it runs engine benchmark points (and so honours `--sampling`).
type Experiment = (&'static str, fn(u64) -> Report, bool, bool);

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 25] = [
    ("table1", do_table1, true, true),
    ("fig2", do_fig2, true, false),
    ("fig4", do_fig4, true, true),
    ("fig5", do_fig5, true, false),
    ("fig6", do_fig6, true, false),
    ("socket", do_socket, true, false),
    ("fig10", do_fig10, true, false),
    ("fig11", do_fig11, true, false),
    ("fig12", do_fig12, true, false),
    ("fig13", do_fig13, true, false),
    ("fig14", do_fig14, true, false),
    ("fig15a", do_fig15a, true, false),
    ("fig15b", do_fig15b, true, false),
    ("flushes", do_flushes, true, false),
    ("coverage", do_coverage, true, false),
    ("apex-speedup", do_apex_speedup, true, false),
    ("wof", do_wof, true, true),
    ("tracepoints", do_tracepoints, true, false),
    ("sensitivity", do_sensitivity, true, true),
    ("smt", do_smt, true, true),
    ("tracking", do_tracking, true, false),
    ("droop", do_droop, true, false),
    ("dse", do_dse, false, true),
    ("profile", do_profile, false, true),
    ("sampling", do_sampling, false, true),
];

/// What one experiment produced: a header both forms share, the
/// human-readable text, and the `--json` payload (`--out` writes exactly
/// the payload).
struct Report {
    head: String,
    text: String,
    json: String,
}

impl Report {
    fn new(title: &str, paper: &str) -> Self {
        Report {
            head: format!("\n=== {title} ===\n    paper reference: {paper}\n"),
            text: String::new(),
            json: String::new(),
        }
    }

    /// Appends one line to the text.
    fn line(&mut self, line: String) {
        self.text += &line;
        self.text.push('\n');
    }

    /// Finishes the report with `value` as a pretty-printed payload.
    fn json(mut self, value: &impl serde::Serialize) -> Self {
        self.json = pretty(value);
        self
    }
}

/// `value` as one pretty-printed JSON document plus a newline.
fn pretty(value: &impl serde::Serialize) -> String {
    format!("{}\n", serde_json::to_string_pretty(value).expect("json"))
}

/// A driver's typed result through the engine's result cache, so a rerun
/// on a warm cache simulates nothing. The content key is the experiment
/// name plus `inputs`: every argument the driver passes and every preset
/// the library call builds inside itself.
fn driver_cached<T>(name: &str, inputs: &serde_json::Value, compute: impl FnOnce() -> T) -> T
where
    T: Clone + Serialize + Deserialize + Send + Sync + 'static,
{
    runner::cached(name, &format!("{name}|{inputs}"), compute)
}

/// A configuration as a key input: its timing projection, as in
/// `runner::point_key`, and the display name the results print.
fn config_input(cfg: &CoreConfig) -> serde_json::Value {
    json!([cfg.name, runner::timing_projection(cfg)])
}

struct Opts {
    json: bool,
    ops: u64,
    out: Option<PathBuf>,
    jobs: usize,
    no_cache: bool,
    trace_out: Option<PathBuf>,
    trace_format: Option<p10_obs::TraceFormat>,
    obs_json: Option<PathBuf>,
    ledger_dir: Option<PathBuf>,
    no_ledger: bool,
    baseline: Option<String>,
    gate: Option<f64>,
    min_s: Option<f64>,
    sampling: SamplingMode,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: figures <experiment> [--json] [--ops N] [--out DIR] [--jobs N] [--no-cache] [--trace-out FILE] [--trace-format jsonl|chrome] [--obs-json FILE] [--ledger-dir DIR] [--no-ledger] [--sampling MODE]"
    );
    eprintln!(
        "       figures obsreport [--ledger-dir DIR] [--baseline SEL] [--gate PCT] [--min-s SECS]"
    );
    eprintln!("sampling modes: exact | bound:PCT (0 < PCT <= 100)");
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, ..)| name).collect();
    eprintln!("experiments: {} obsreport all", names.join(" "));
    std::process::exit(2);
}

/// The flags `obsreport` reads, any other flag being an error there:
/// `--ledger-dir`, then the three no other experiment reads.
const OBSREPORT_FLAGS: [&str; 4] = ["--ledger-dir", "--baseline", "--gate", "--min-s"];

/// Parses a `--trace-format` value.
fn parse_trace_format(v: &str) -> p10_obs::TraceFormat {
    match v {
        "jsonl" | "json-lines" => p10_obs::TraceFormat::JsonLines,
        "chrome" => p10_obs::TraceFormat::Chrome,
        other => usage_error(&format!(
            "invalid trace format '{other}' (expected jsonl or chrome)"
        )),
    }
}

/// Parses the command line strictly: malformed values and unknown
/// experiments or flags abort with a clear message instead of silently
/// running something else.
fn parse_args(args: &[String]) -> (String, Opts) {
    let mut what: Option<String> = None;
    let mut given: Vec<&str> = Vec::new();
    let mut opts = Opts {
        json: false,
        ops: FULL_OPS,
        out: None,
        jobs: 0,
        no_cache: false,
        trace_out: None,
        trace_format: None,
        obs_json: None,
        ledger_dir: None,
        no_ledger: false,
        baseline: None,
        gate: None,
        min_s: None,
        sampling: SamplingMode::Exact,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg.starts_with('-') {
            given.push(arg);
        }
        let mut flag_value = |name: &str| -> String {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
                .clone()
        };
        match arg {
            "--json" => opts.json = true,
            "--no-cache" => opts.no_cache = true,
            "--ops" => {
                let v = flag_value("--ops");
                opts.ops = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --ops value '{v}'")));
                if opts.ops == 0 {
                    usage_error("--ops must be positive");
                }
            }
            "--jobs" => {
                let v = flag_value("--jobs");
                opts.jobs = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --jobs value '{v}'")));
                if opts.jobs == 0 {
                    usage_error("--jobs must be positive");
                }
            }
            "--out" => opts.out = Some(PathBuf::from(flag_value("--out"))),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(flag_value("--trace-out"))),
            "--trace-format" => {
                opts.trace_format = Some(parse_trace_format(&flag_value("--trace-format")));
            }
            "--obs-json" => opts.obs_json = Some(PathBuf::from(flag_value("--obs-json"))),
            "--ledger-dir" => opts.ledger_dir = Some(PathBuf::from(flag_value("--ledger-dir"))),
            "--no-ledger" => opts.no_ledger = true,
            "--baseline" => opts.baseline = Some(flag_value("--baseline")),
            "--gate" => {
                let v = flag_value("--gate");
                opts.gate = Some(
                    v.parse()
                        .ok()
                        .filter(|p: &f64| p.is_finite() && *p >= 0.0)
                        .unwrap_or_else(|| usage_error(&format!("invalid --gate value '{v}'"))),
                );
            }
            "--min-s" => {
                let v = flag_value("--min-s");
                opts.min_s = Some(
                    v.parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage_error(&format!("invalid --min-s value '{v}'"))),
                );
            }
            "--sampling" => {
                let v = flag_value("--sampling");
                opts.sampling = SamplingMode::parse(&v).unwrap_or_else(|e| usage_error(&e));
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag '{flag}'")),
            exp => {
                if what.is_some() {
                    usage_error(&format!("more than one experiment given ('{exp}')"));
                }
                if exp != "all"
                    && exp != "obsreport"
                    && !EXPERIMENTS.iter().any(|&(name, ..)| name == exp)
                {
                    usage_error(&format!("unknown experiment '{exp}'"));
                }
                what = Some(exp.to_owned());
            }
        }
        i += 1;
    }
    let what = what.unwrap_or_else(|| "all".to_owned());
    if what == "obsreport" {
        if let Some(flag) = given.iter().find(|f| !OBSREPORT_FLAGS.contains(f)) {
            usage_error(&format!(
                "{flag} does not apply to the obsreport experiment"
            ));
        }
    } else if given.iter().any(|f| OBSREPORT_FLAGS[1..].contains(f)) {
        usage_error("--gate/--baseline/--min-s only apply to the obsreport experiment");
    }
    if opts.trace_format.is_some() && opts.trace_out.is_none() {
        usage_error("--trace-format only applies with --trace-out");
    }
    let ignores_sampling = EXPERIMENTS
        .iter()
        .any(|&(name, _, _, sampled)| name == what && !sampled);
    if !opts.sampling.is_exact() && ignores_sampling {
        let sampled: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|&&(.., sampled)| sampled)
            .map(|&(name, ..)| name)
            .collect();
        usage_error(&format!(
            "--sampling only applies to all and to {}",
            sampled.join(" ")
        ));
    }
    (what, opts)
}

/// The engine every experiment runs on, built from the flags and the two
/// environment variables `figures` reads. The result cache lives in
/// `P10SIM_CACHE_DIR` (default `target/p10sim-cache`; none with
/// `--no-cache`). Warm-state checkpoints go to a non-empty
/// `P10SIM_CKPT_DIR` — with or without `--no-cache` — else to
/// `<result cache>/warm`, else to memory only.
fn build_engine(opts: &Opts) -> runner::Engine {
    let disk_cache = (!opts.no_cache).then(|| {
        std::env::var_os("P10SIM_CACHE_DIR")
            .map_or_else(|| Path::new("target").join("p10sim-cache"), PathBuf::from)
    });
    let ckpt_dir = std::env::var("P10SIM_CKPT_DIR")
        .ok()
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
        .or_else(|| disk_cache.as_ref().map(|d| d.join("warm")));
    runner::Engine::new(runner::EngineConfig {
        jobs: opts.jobs,
        disk_cache,
        progress: true,
    })
    .with_sampling(opts.sampling)
    .with_ckpt_store(sampling::CkptStore::new(ckpt_dir))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (what, opts) = parse_args(&args);
    let started_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);

    // obsreport is pure ledger analysis: no recorder, engine, or
    // simulation — read the history, report, and exit.
    if what == "obsreport" {
        std::process::exit(do_obsreport(&opts));
    }

    // Observability first, so every later span/counter lands in the same
    // recorder.
    p10_obs::init(&p10_obs::ObsConfig {
        trace_path: opts.trace_out.clone(),
        trace_format: opts.trace_format.unwrap_or_default(),
    });
    p10_obs::set_thread_name("main");

    let sampling_key = opts.sampling.describe();
    if !opts.sampling.is_exact() {
        eprintln!("[figures] sampled execution: {sampling_key}");
    }

    // All experiment drivers run on the shared engine: a worker pool plus
    // in-process memo and (unless --no-cache) the on-disk result cache,
    // in the --sampling mode.
    runner::install(build_engine(&opts));
    let eng_cfg = runner::engine().config();
    eprintln!(
        "[figures] {} worker(s), disk cache {}",
        eng_cfg.jobs,
        eng_cfg
            .disk_cache
            .as_ref()
            .map_or_else(|| "off".to_owned(), |d| d.display().to_string())
    );

    let experiments: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|&&(name, _, in_all, _)| if what == "all" { in_all } else { name == what })
        .collect();

    for &&(e, driver, ..) in &experiments {
        let sp = p10_obs::span(e);
        let report = driver(opts.ops);
        let secs = sp.finish();
        let body = if opts.json {
            &report.json
        } else {
            &report.text
        };
        print!("{}{body}", report.head);
        eprintln!("[figures] {e}: {secs:.2}s");
        if let Some(dir) = &opts.out {
            let path = dir.join(format!("{e}.json"));
            if let Err(err) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &report.json))
            {
                eprintln!("error: cannot write artifact {}: {err}", path.display());
                std::process::exit(1);
            }
            println!("    [artifact: {}/{e}.json]", dir.display());
        }
    }

    // Derived gauges, each the share of hits in hits + misses:
    // - observation effectiveness: observed simulation cycles delivered as
    //   closed-form spans instead of live steps (rtlsim/apex observers);
    // - trace-arena effectiveness: trace requests served zero-copy from a
    //   cached buffer;
    // - sampled-execution coverage: trace ops whose timing was simulated
    //   rather than reconstituted from a cluster representative;
    // - warm-checkpoint effectiveness: boundary states restored from a
    //   saved checkpoint instead of replayed from scratch.
    let s = p10_obs::summary();
    for (gauge, hits, misses) in [
        (
            "sim.span_hit_rate",
            "sim.observed_span_cycles",
            "sim.observed_live_cycles",
        ),
        (
            "trace.arena.hit_rate",
            "trace.arena.hits",
            "trace.arena.misses",
        ),
        (
            "sim.sample.coverage",
            "sim.sample.simulated_ops",
            "sim.sample.skipped_ops",
        ),
        (
            "sampling.ckpt.hit_rate",
            "sampling.ckpt_hits",
            "sampling.ckpt_misses",
        ),
    ] {
        if let Some(rate) = s.share(&[hits], &[misses]) {
            p10_obs::gauge(gauge, rate);
        }
    }
    // Worker utilization: each worker slot's busy seconds as a fraction
    // of total run wall time.
    if s.total_wall_s > 0.0 {
        for (slot, _, busy_s) in s.workers() {
            p10_obs::gauge(&format!("runner.{slot}.busy_frac"), busy_s / s.total_wall_s);
        }
    }

    // Flush thread-local buffers and print the run summary (phase wall
    // times, cache layer hits, per-worker job counts) on stderr — stdout
    // stays reserved for the deterministic experiment output.
    let final_summary = p10_obs::summary();
    eprint!("{}", p10_obs::render_summary(&final_summary));

    // Machine-readable mirrors of that summary: --obs-json (one JSON
    // object) and the persistent run ledger (one RunRecord line).
    if let Some(path) = &opts.obs_json {
        match serde_json::to_string(&final_summary) {
            Ok(line) => {
                if let Err(e) = std::fs::write(path, format!("{line}\n")) {
                    eprintln!("[figures] cannot write obs json {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("[figures] cannot serialize obs summary: {e}"),
        }
    }
    if !opts.no_ledger {
        let names: Vec<&str> = experiments.iter().map(|e| e.0).collect();
        let identity = p10_obs::ledger::RunIdentity {
            experiment: what.clone(),
            config_text: format!(
                "jobs={}|disk_cache={}|sampling={sampling_key}",
                eng_cfg.jobs,
                eng_cfg.disk_cache.is_some()
            ),
            workload_text: format!("{}|ops={}", names.join(","), opts.ops),
            sampling_key: sampling_key.clone(),
            ops: opts.ops,
            jobs: eng_cfg.jobs as u64,
            started_unix_ms,
        };
        let record = p10_obs::ledger::RunRecord::from_summary(&identity, final_summary);
        let dir = opts
            .ledger_dir
            .clone()
            .unwrap_or_else(p10_obs::ledger::default_dir);
        match p10_obs::ledger::append(&dir, &record) {
            Ok(path) => eprintln!(
                "[figures] ledger: run {} appended to {}",
                record.run_id,
                path.display()
            ),
            Err(e) => eprintln!("[figures] ledger append failed ({}): {e}", dir.display()),
        }
    }

    // Last: a Chrome-format trace buffers in memory and is written here.
    p10_obs::finalize();
}

/// Selects the baseline run for `obsreport`: `--baseline` as a 1-based
/// index into the comparable pool (1 = oldest) or a `run_id` prefix;
/// without `--baseline`, the most recent comparable prior run.
fn pick_baseline<'a>(
    pool: &[&'a p10_obs::ledger::RunRecord],
    selector: Option<&str>,
) -> Result<Option<&'a p10_obs::ledger::RunRecord>, String> {
    let Some(sel) = selector else {
        return Ok(pool.last().copied());
    };
    if let Ok(idx) = sel.parse::<usize>() {
        return idx
            .checked_sub(1)
            .and_then(|i| pool.get(i).copied())
            .map(Some)
            .ok_or_else(|| {
                format!(
                    "--baseline index {sel} out of range (pool has {} comparable runs)",
                    pool.len()
                )
            });
    }
    pool.iter()
        .find(|r| r.run_id.starts_with(sel))
        .copied()
        .map(Some)
        .ok_or_else(|| format!("no comparable run with id prefix '{sel}'"))
}

/// The rates `obsreport` shows for one run, from its summary's counters:
/// the result-cache hit rate, the trace-arena hit rate and the sampling
/// coverage (1.0 when nothing was sampled).
fn run_rates(s: &p10_obs::Summary) -> (f64, f64, f64) {
    let cache = s.share(&["cache.memo_hits", "cache.disk_hits"], &["cache.computes"]);
    let arena = s.share(&["trace.arena.hits"], &["trace.arena.misses"]);
    let coverage = s.share(&["sim.sample.simulated_ops"], &["sim.sample.skipped_ops"]);
    (
        cache.unwrap_or(0.0),
        arena.unwrap_or(0.0),
        coverage.unwrap_or(1.0),
    )
}

/// The `obsreport` driver: reads ledger history, prints the latest run's
/// wall-time/cache/coverage trends against a baseline, and applies the
/// `--gate` regression check. Returns the process exit code.
fn do_obsreport(opts: &Opts) -> i32 {
    use p10_obs::ledger;
    let dir = opts.ledger_dir.clone().unwrap_or_else(ledger::default_dir);
    let runs = match ledger::read(&dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot read ledger {}: {e}", dir.display());
            return 1;
        }
    };
    println!("=== obsreport: {} ({} runs) ===", dir.display(), runs.len());
    let Some(latest) = runs.last() else {
        println!("ledger is empty; run any `figures` experiment first");
        return i32::from(opts.gate.is_some());
    };
    let prior = &runs[..runs.len() - 1];
    let pool = ledger::comparable(prior, latest);
    println!(
        "latest: run {}  experiment={} ops={} sampling={} jobs={}  [{} {}, {} cpus]",
        latest.run_id,
        latest.experiment,
        latest.ops,
        latest.sampling_key,
        latest.jobs,
        latest.build.profile,
        latest.machine.arch,
        latest.machine.cpus
    );

    // Short history of comparable runs, oldest first (latest included).
    println!(
        "history ({} comparable runs, oldest first):",
        pool.len() + 1
    );
    println!(
        "  {:>3} {:<16} {:>9} {:>7} {:>7} {:>9} {:>11} {:>5}",
        "#", "run", "wall", "cache%", "arena%", "coverage", "ckpt h/m", "warms"
    );
    for (i, r) in pool.iter().chain(std::iter::once(&latest)).enumerate() {
        let (cache, arena, coverage) = run_rates(&r.summary);
        println!(
            "  {:>3} {:<16} {:>8.2}s {:>6.1}% {:>6.1}% {:>9.3} {:>5}/{:<5} {:>5}",
            i + 1,
            r.run_id,
            r.wall_s,
            cache * 100.0,
            arena * 100.0,
            coverage,
            r.summary.counter("sampling.ckpt_hits"),
            r.summary.counter("sampling.ckpt_misses"),
            r.summary.counter("sampling.warm_passes")
        );
    }

    let baseline = match pick_baseline(&pool, opts.baseline.as_deref()) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let Some(baseline) = baseline else {
        println!("no comparable prior run to compare against");
        if opts.gate.is_some() {
            eprintln!("error: --gate needs a comparable baseline run in the ledger");
            return 1;
        }
        return 0;
    };

    // Per-phase wall-time trend vs the baseline.
    println!("trend vs baseline {}:", baseline.run_id);
    println!(
        "  {:<46} {:>9} {:>9} {:>8}",
        "phase", "baseline", "latest", "delta"
    );
    let delta_pct = |base: f64, new: f64| {
        if base > 0.0 {
            (new / base - 1.0) * 100.0
        } else {
            0.0
        }
    };
    for p in &latest.summary.phases {
        if let Some(base) = baseline.phase_wall_s(&p.name) {
            println!(
                "  {:<46} {:>8.2}s {:>8.2}s {:>+7.1}%",
                p.name,
                base,
                p.wall_s,
                delta_pct(base, p.wall_s)
            );
        }
    }
    println!(
        "  {:<46} {:>8.2}s {:>8.2}s {:>+7.1}%",
        "total",
        baseline.wall_s,
        latest.wall_s,
        delta_pct(baseline.wall_s, latest.wall_s)
    );
    let (base, last) = (&baseline.summary, &latest.summary);
    let ((base_cache, base_arena, base_cov), (cache, arena, cov)) =
        (run_rates(base), run_rates(last));
    println!(
        "cache hit rate {:.1}% -> {:.1}%   arena hit rate {:.1}% -> {:.1}%   coverage {:.3} -> {:.3}",
        base_cache * 100.0,
        cache * 100.0,
        base_arena * 100.0,
        arena * 100.0,
        base_cov,
        cov
    );
    let trend = |name: &str| format!("{} -> {}", base.counter(name), last.counter(name));
    println!(
        "ckpt hits {}   misses {}   bytes {}   warm passes {}",
        trend("sampling.ckpt_hits"),
        trend("sampling.ckpt_misses"),
        trend("sampling.ckpt_bytes"),
        trend("sampling.warm_passes")
    );
    for (slot, jobs, busy_s) in last.workers() {
        let busy_frac = if latest.wall_s > 0.0 {
            busy_s / latest.wall_s
        } else {
            0.0
        };
        println!(
            "worker {slot:<10} jobs={jobs:<4} busy={busy_s:.2}s ({:.0}% of wall)",
            busy_frac * 100.0
        );
    }

    let Some(pct) = opts.gate else { return 0 };
    let min_s = opts.min_s.unwrap_or(0.05);
    let regressions = ledger::gate(baseline, latest, pct, min_s);
    if regressions.is_empty() {
        println!("gate: PASS (no wall-time regression beyond {pct}% and {min_s:.2}s)");
        return 0;
    }
    for row in &regressions {
        println!(
            "gate: REGRESSION {} {:.2}s -> {:.2}s ({:+.1}% > {pct}%)",
            row.phase, row.baseline_s, row.latest_s, row.delta_pct
        );
    }
    println!("gate: FAIL ({} regression(s))", regressions.len());
    1
}

fn do_table1(ops: u64) -> Report {
    let mut r = Report::new(
        "Table I — chip features & efficiency projections",
        "2.6x core perf/W, up to 3x socket",
    );
    let t = table1::run_table1(&suite(), 42, ops);
    r.line(format!(
        "SMT per core                  : {}",
        t.smt_per_core
    ));
    r.line(format!(
        "L2 per SMT8 core              : {:.1} MiB (paper: 2 MiB)",
        t.l2_per_core_mib
    ));
    r.line(format!(
        "MMU (TLB) ratio vs POWER9     : {:.1}x (paper: 4x)",
        t.mmu_ratio
    ));
    r.line(format!(
        "Core perf ratio               : {:.2}x (paper: ~1.3x)",
        t.perf_ratio
    ));
    r.line(format!(
        "Core power ratio              : {:.2}x (paper: ~0.5x)",
        t.power_ratio
    ));
    r.line(format!(
        "Core performance/watt         : {:.2}x (paper: 2.6x)",
        t.perf_per_watt_core
    ));
    r.line(format!(
        "Socket-view efficiency (SMT2) : {:.2}x (paper: up to 3x)",
        t.socket_efficiency
    ));
    r.json(&t)
}

fn do_fig2(_: u64) -> Report {
    let mut r = Report::new(
        "Fig. 2 — optimal pipeline depth",
        "optimum stable at 27 FO4 for 0.5x-1.0x power targets",
    );
    let f = p10_pipedepth::run_fig2(&p10_pipedepth::DepthParams::default(), &[0.25]);
    for &t in &f.power_targets {
        r.line(format!(
            "power target {t:.2}x: optimal FO4 = {}",
            f.optimal_fo4(t)
        ));
    }
    r.line("curve (target=1.0): fo4 -> BIPS".to_owned());
    for p in f
        .points
        .iter()
        .filter(|p| (p.power_target - 1.0).abs() < 1e-9)
        .step_by(4)
    {
        r.line(format!("  {:>4.0}  {:.3}", p.fo4, p.bips));
    }
    r.json(&f)
}

fn do_fig4(ops: u64) -> Report {
    let mut r = Report::new(
        "Fig. 4 — per-design-change performance gains",
        "SMT8 SPECint: branch 4%, lat+BW 10%, L2 9%, decode+VSX 5%, queues 4%",
    );
    let f = ablation::run_fig4(&suite(), 42, ops / 2);
    r.line(format!(
        "{:<20} {:>8} {:>8} {:>8}  max workload",
        "group", "ST", "SMT", "max"
    ));
    for row in &f.rows {
        r.line(format!(
            "{:<20} {:>7.1}% {:>7.1}% {:>7.1}%  {}",
            row.group,
            row.st_gain * 100.0,
            row.smt_gain * 100.0,
            row.max_gain * 100.0,
            row.max_workload
        ));
    }
    r.json(&f)
}

fn do_fig5(ops: u64) -> Report {
    let mut r = Report::new(
        "Fig. 5 — DGEMM flops/cycle & core power",
        "P10 VSU 1.95x @ -32.2%; P10 MMA 5.47x @ -24.1%; 62.1%/87.1% of peak",
    );
    let presets = [CoreConfig::power9(), CoreConfig::power10()].map(|c| config_input(&c));
    let f = driver_cached("fig5", &json!({"presets": presets, "ops": ops}), || {
        gemm::run_fig5(ops)
    });
    for p in [&f.p9_vsu, &f.p10_vsu, &f.p10_mma] {
        r.line(format!(
            "{:<24} {:>6.2} flops/cyc ({:>5.1}% of peak)  core power {:>7.1}",
            p.label,
            p.flops_per_cycle,
            p.peak_utilization * 100.0,
            p.core_power
        ));
    }
    r.line(format!(
        "VSU speedup {:.2}x (paper 1.95x)   power {:+.1}% (paper -32.2%)",
        f.vsu_speedup(),
        f.vsu_power_delta() * 100.0
    ));
    r.line(format!(
        "MMA speedup {:.2}x (paper 5.47x)   power {:+.1}% (paper -24.1%)",
        f.mma_speedup(),
        f.mma_power_delta() * 100.0
    ));
    r.json(&f)
}

/// Fig. 6 for one model, through the engine cache (the socket experiment
/// needs the same runs, and warm re-runs skip them entirely).
fn fig6_cached(model: &p10_kernels::models::ModelGraph, kernel_ops: u64) -> inference::Fig6Model {
    runner::cached(
        &format!("fig6 {} ops={kernel_ops}", model.name),
        &format!(
            "fig6|{}|{kernel_ops}",
            serde_json::to_string(model).expect("model serializes")
        ),
        || inference::run_fig6(model, kernel_ops),
    )
}

fn do_fig6(ops: u64) -> Report {
    let mut r = Report::new(
        "Fig. 6 — end-to-end inference",
        "ResNet-50: 2.25x/3.55x; BERT-Large: 2.08x/3.64x (no-MMA/MMA)",
    );
    let models = [resnet50(100), bert_large(8, 384)];
    let figs = runner::run_jobs_par(&models, |_, m| fig6_cached(m, ops / 2));
    for f in &figs {
        r.line(format!("-- {} --", f.model));
        r.line(format!(
            "{:<16} {:>12} {:>12} {:>7} {:>10}",
            "config", "instructions", "cycles", "CPI", "GEMM-ratio"
        ));
        for run in [&f.p9, &f.p10_no_mma, &f.p10_mma] {
            r.line(format!(
                "{:<16} {:>12.3e} {:>12.3e} {:>7.3} {:>10.2}",
                run.config,
                run.instructions,
                run.cycles,
                run.cpi(),
                run.gemm_inst_ratio
            ));
        }
        r.line(format!(
            "speedups: no-MMA {:.2}x, MMA {:.2}x",
            f.speedup_no_mma(),
            f.speedup_mma()
        ));
    }
    // One document per model.
    r.json = figs.iter().map(pretty).collect();
    r
}

fn do_socket(ops: u64) -> Report {
    let mut r = Report::new(
        "Socket-level AI projections",
        "up to 10x FP32 and 21x INT8 over POWER9",
    );
    let p10 = CoreConfig::power10();
    let models = [resnet50(100), bert_large(8, 384)];
    let projections = runner::run_jobs_par(&models, |_, model| {
        let f = fig6_cached(model, ops / 2);
        let int8: inference::InferenceRun = runner::cached(
            &format!("int8 {} ops={}", model.name, ops / 2),
            &format!(
                "int8|{}|{}|{}",
                serde_json::to_string(model).expect("model serializes"),
                serde_json::to_string(&p10).expect("config serializes"),
                ops / 2
            ),
            || inference::compose_int8(model, &p10, ops / 2),
        );
        socket::project_socket_measured(&f, &int8, &socket::SocketScaling::default())
    });
    for p in &projections {
        r.line(format!(
            "{:<12} core {:.2}x  socket FP32 {:.1}x (paper up to 10x)  INT8 {:.1}x (paper up to 21x)",
            p.model, p.core_speedup, p.fp32_socket_speedup, p.int8_socket_speedup
        ));
    }
    // One document per model.
    r.json = projections.iter().map(pretty).collect();
    r
}

fn do_fig10(ops: u64) -> Report {
    let mut r = Report::new(
        "Fig. 10 — core-model vs chip-model power/IPC scatter",
        "memory-bound simpoints diverge between models",
    );
    let (benches, snippets, snippet_ops) = (suite(), 4, ops / 10);
    // `fig10_snippet` runs SMT2 POWER10 as the core and the chip model.
    let mut smt2 = CoreConfig::power10();
    smt2.smt = p10_uarch::SmtMode::Smt2;
    let models = [
        p10_apex::core_model(smt2.clone()),
        p10_apex::chip_model(smt2),
    ]
    .map(|c| config_input(&c));
    let inputs =
        json!({"suite": benches, "snippets": snippets, "ops": snippet_ops, "presets": models});
    let pts = driver_cached("fig10", &inputs, || {
        run_fig10(&benches, snippets, snippet_ops)
    });
    r.line(format!(
        "{:<14} {:>4} {:>6} {:>8} {:>10}",
        "bench", "snip", "model", "IPC", "core power"
    ));
    for p in &pts {
        r.line(format!(
            "{:<14} {:>4} {:>6} {:>8.3} {:>10.1}",
            p.bench,
            p.snippet,
            match p.model {
                p10_apex::ApexModel::Core => "core",
                p10_apex::ApexModel::Chip => "chip",
            },
            p.ipc,
            p.core_power
        ));
    }
    r.json(&pts)
}

/// The Fig. 11 and 15(a) dataset — windowed POWER10 runs of the suite at
/// seeds 1 and 2, half the op budget each, in 512-cycle windows, fitted to
/// active power — as its key inputs and its build.
fn fig11_dataset(ops: u64) -> (serde_json::Value, impl FnOnce() -> p10_powermodel::Dataset) {
    let (cfg, benches, seeds, run_ops, window, target) = (
        CoreConfig::power10(),
        suite(),
        [1, 2],
        ops / 2,
        512,
        Target::ActivePower,
    );
    let inputs = json!({
        "config": config_input(&cfg),
        "suite": benches,
        "seeds": seeds,
        "ops": run_ops,
        "window": window,
        "target": target,
    });
    let build = move || build_dataset(&cfg, &benches, &seeds, run_ops, window, target);
    (inputs, build)
}

fn do_fig11(ops: u64) -> Report {
    let mut r = Report::new(
        "Fig. 11 — M1-linked power model error vs #inputs",
        "error falls with inputs; <2.5% active at max inputs",
    );
    let (dataset, build) = fig11_dataset(ops);
    let max_inputs = 12;
    let inputs = json!({"dataset": dataset, "max_inputs": max_inputs});
    let curves = driver_cached("fig11", &inputs, || {
        let data = runner::timed("fig11 dataset", build);
        runner::timed("fig11 regression", || run_fig11(&data, max_inputs))
    });
    for c in &curves {
        r.line(format!("-- {} --", c.label));
        for p in &c.points {
            r.line(format!(
                "  inputs {:>2}: test err {:>6.2}%  train err {:>6.2}%",
                p.inputs, p.test_error_pct, p.train_error_pct
            ));
        }
    }
    r.json(&curves)
}

fn do_fig12(ops: u64) -> Report {
    let mut r = Report::new(
        "Fig. 12 — top-down vs bottom-up power models",
        "models differ by 3.42% on average; 72 events total bottom-up",
    );
    let cfg = CoreConfig::power10();
    let benches = &suite()[..6];
    let (seeds, run_ops, window, top_down, per_component) = ([1], ops / 3, 512, 12, 3);
    // One windowed-run pass feeds all 40 targets (total + 39 components).
    let targets: Vec<Target> = std::iter::once(Target::TotalPower)
        .chain((0..39).map(Target::Component))
        .collect();
    let inputs = json!({
        "config": config_input(&cfg),
        "suite": benches,
        "seeds": seeds,
        "ops": run_ops,
        "window": window,
        "targets": targets,
        "top_down_inputs": top_down,
        "per_component_inputs": per_component,
    });
    let f = driver_cached("fig12", &inputs, || {
        let mut datasets = build_datasets(&cfg, benches, &seeds, run_ops, window, &targets);
        let total = datasets.remove(0);
        run_fig12(&total, &datasets, top_down, per_component)
    });
    r.line(format!(
        "model difference   : {:.2}% (paper 3.42%)",
        f.mean_model_difference_pct
    ));
    r.line(format!(
        "bottom-up events   : {} across 39 components (paper 72)",
        f.bottom_up_events
    ));
    r.line(format!("top-down events    : {}", f.top_down_events));
    r.line(format!(
        "held-out error     : top-down {:.2}%, bottom-up {:.2}%",
        f.top_down_error_pct, f.bottom_up_error_pct
    ));
    r.json(&f)
}

fn do_fig13(ops: u64) -> Report {
    let mut r = Report::new(
        "Fig. 13 — derating per testcase",
        "VT=10% leaves ~25% vulnerable; VT=90% ~52%",
    );
    let (cfg, run_ops, spec_benches) = (CoreConfig::power10(), ops / 6, 3);
    // `run_fig13` runs the derating grid and the first suite members.
    let inputs = json!({
        "config": config_input(&cfg),
        "ops": run_ops,
        "grid": derating_grid(),
        "spec": &suite()[..spec_benches],
    });
    let f = driver_cached("fig13", &inputs, || {
        rasstudy::run_fig13(&cfg, run_ops, spec_benches)
    });
    r.line(format!(
        "{:<20} {:>8} {:>8} {:>8} {:>8}",
        "testcase", "static", "VT=10%", "VT=50%", "VT=90%"
    ));
    for row in &f.rows {
        r.line(format!(
            "{:<20} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            row.testcase, row.static_pct, row.runtime_vt10, row.runtime_vt50, row.runtime_vt90
        ));
    }
    r.json(&f)
}

fn do_fig14(ops: u64) -> Report {
    let mut r = Report::new(
        "Fig. 14 — POWER9 vs POWER10 derating vs VT",
        "P10 runtime derating higher (6%→21% gap); static ~10% lower",
    );
    let (run_ops, vts) = (ops / 6, [0.1, 0.3, 0.5, 0.7, 0.9]);
    // `run_fig14` runs POWER9 and POWER10 on the derating grid.
    let presets = [CoreConfig::power9(), CoreConfig::power10()].map(|c| config_input(&c));
    let inputs = json!({"ops": run_ops, "vts": vts, "presets": presets, "grid": derating_grid()});
    let f = driver_cached("fig14", &inputs, || rasstudy::run_fig14(run_ops, &vts));
    r.line(format!(
        "static derating: P9 {:.1}%  P10 {:.1}%",
        f.p9.static_pct, f.p10.static_pct
    ));
    r.line(format!(
        "{:>6} {:>10} {:>10} {:>8}",
        "VT", "P9 runtime", "P10 runtime", "gap"
    ));
    for ((vt, r9), (_, r10)) in f.p9.runtime_by_vt.iter().zip(f.p10.runtime_by_vt.iter()) {
        r.line(format!(
            "{:>5.0}% {:>9.1}% {:>9.1}% {:>+7.1}%",
            vt * 100.0,
            r9,
            r10,
            r10 - r9
        ));
    }
    r.json(&f)
}

fn do_fig15a(ops: u64) -> Report {
    let mut r = Report::new(
        "Fig. 15(a) — power-proxy error vs #counters",
        "16 counters → 9.8% active-power error (<5% incl. static)",
    );
    let (dataset, build) = fig11_dataset(ops);
    let max_counters = 16;
    let inputs = json!({"dataset": dataset, "max_counters": max_counters});
    let sweep = driver_cached("fig15a", &inputs, || run_fig15a(&build(), max_counters));
    for p in &sweep {
        r.line(format!(
            "  counters {:>2}: active-power err {:>6.2}%",
            p.inputs, p.test_error_pct
        ));
    }
    r.json(&sweep)
}

fn do_fig15b(ops: u64) -> Report {
    let mut r = Report::new(
        "Fig. 15(b) — proxy error vs time granularity",
        "predicting every >=50 cycles is near-best; finer degrades fast",
    );
    let (cfg, bench, run_ops) = (CoreConfig::power10(), &suite()[8], ops / 2);
    let (windows, proxy_inputs, carryover) = ([8, 16, 32, 64, 128, 256, 512], 8, 0.35);
    let inputs = json!({
        "config": config_input(&cfg),
        "bench": bench,
        "ops": run_ops,
        "windows": windows,
        "proxy_inputs": proxy_inputs,
        "carryover": carryover,
    });
    let pts = driver_cached("fig15b", &inputs, || {
        run_fig15b(&cfg, bench, run_ops, &windows, proxy_inputs, carryover)
    });
    for p in &pts {
        r.line(format!(
            "  window {:>4} cycles: err {:>6.2}%",
            p.window_cycles, p.error_pct
        ));
    }
    r.json(&pts)
}

fn do_flushes(ops: u64) -> Report {
    let mut r = Report::new(
        "Flush study — wasted instructions",
        "-25% SPECint, -38% interpreted/analytics",
    );
    let (seed, run_ops) = (42, ops / 2);
    // The study runs POWER9 and POWER10 on the suite and the extended groups.
    let presets = [CoreConfig::power9(), CoreConfig::power10()].map(|c| config_input(&c));
    let workloads: Vec<Benchmark> = suite().into_iter().chain(extended_groups()).collect();
    let inputs = json!({"seed": seed, "ops": run_ops, "presets": presets, "workloads": workloads});
    let s = driver_cached("flushes", &inputs, || flush::run_flush_study(seed, run_ops));
    for row in &s.rows {
        r.line(format!(
            "{:<16} P9 {:>6.3} P10 {:>6.3} waste/inst  reduction {:>6.1}%",
            row.workload,
            row.p9_waste_per_inst,
            row.p10_waste_per_inst,
            row.reduction() * 100.0
        ));
    }
    r.line(format!(
        "SPECint mean reduction      : {:.1}% (paper 25%)",
        s.specint_reduction() * 100.0
    ));
    r.line(format!(
        "interpreted/analytics mean  : {:.1}% (paper 38%)",
        s.interpreted_reduction() * 100.0
    ));
    r.json(&s)
}

fn do_coverage(ops: u64) -> Report {
    let mut r = Report::new(
        "Proxy coverage — Chopstix top-10 hot functions",
        "coverage 41% (gcc) to 99% (xz), ~70% average",
    );
    let (benches, seed, top_n) = (suite(), 23, 10);
    let inputs = json!({"suite": benches, "seed": seed, "ops": ops, "top_n": top_n});
    let rows = driver_cached("coverage", &inputs, || {
        let workloads: Vec<_> = benches.iter().map(|b| b.workload(seed)).collect();
        runner::run_jobs_par(&workloads, |_, w| chopstix::coverage_row(w, ops, top_n))
    });
    let mut sum = 0.0;
    for row in &rows {
        r.line(format!(
            "{:<16} proxies {:>2}  coverage {:>5.1}%",
            row.workload,
            row.proxies,
            row.coverage * 100.0
        ));
        sum += row.coverage;
    }
    r.line(format!(
        "average coverage: {:.1}% (paper ~70%)",
        sum / rows.len() as f64 * 100.0
    ));
    r.json(&rows)
}

fn do_apex_speedup(ops: u64) -> Report {
    let mut r = Report::new(
        "APEX speedup — detailed vs counter-based extraction",
        "~5000x on AWAN hardware; software analog shows the asymmetry",
    );
    let b = &suite()[8];
    let t = b.workload(5).trace_or_panic(ops / 2);
    let s = p10_apex::measure_speedup(&CoreConfig::power10(), &t, 10_000_000);
    // Wall-clock numbers vary run to run; they go to the obs summary on
    // stderr so stdout stays byte-identical across runs.
    p10_obs::gauge("apex.detailed_s", s.detailed_secs);
    p10_obs::gauge("apex.apex_s", s.apex_secs);
    p10_obs::gauge("apex.speedup", s.speedup);
    eprintln!(
        "[figures] apex-speedup wall clock: detailed {:.3}s vs APEX {:.3}s -> {:.1}x",
        s.detailed_secs, s.apex_secs, s.speedup
    );
    r.line(format!(
        "APEX extracted {} counter windows over {} cycles (detailed run reads every cycle)",
        s.windows, s.cycles
    ));
    r.json(&json!({
        "cycles": s.cycles,
        "windows": s.windows,
    }))
}

fn do_profile(ops: u64) -> Report {
    let mut r = Report::new(
        "Cycle-attribution profile",
        "SS III methodology turned on the simulator itself: where cycles go",
    );
    let configs = [CoreConfig::power9(), CoreConfig::power10()];
    let rows = p10_core::cycleprof::run_profile(&configs, &suite(), 42, ops);
    r.line(format!(
        "{:<16} {:<10} {:>12} {:>6} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "workload",
        "config",
        "cycles",
        "IPC",
        "active",
        "mma",
        "mem",
        "issue",
        "disp",
        "fetch",
        "idle"
    ));
    for row in &rows {
        let a = row.attribution;
        r.line(format!(
            "{:<16} {:<10} {:>12} {:>6.2} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            row.workload,
            row.config,
            row.cycles,
            row.ipc,
            row.share(a.active),
            row.share(a.mma_gated),
            row.share(a.memory_bound),
            row.share(a.issue_limited),
            row.share(a.dispatch_stalled),
            row.share(a.fetch_stalled),
            row.share(a.idle)
        ));
    }
    r.json(&rows)
}

fn do_wof(ops: u64) -> Report {
    let mut r = Report::new(
        "WOF — workload-optimized frequency",
        "light workloads boost under the envelope; MMA gating reclaims leakage",
    );
    // Effective capacitance ratios from measured suite dynamic power.
    let cfg = CoreConfig::power10();
    let results = scenario::run_suite(&cfg, &suite(), 42, ops / 3);
    let ref_power = results
        .results
        .iter()
        .map(|res| res.power.active())
        .fold(0.0f64, f64::max);
    let wcfg = wof::WofConfig::typical();
    let mut rows = Vec::new();
    for res in &results.results {
        let ceff = wof::ceff_ratio(res.power.active(), ref_power);
        let d = wof::solve(&wcfg, ceff, 0.0);
        let d_gated = wof::solve(&wcfg, ceff, 2.0);
        rows.push(json!({
            "workload": res.workload,
            "ceff": ceff,
            "freq_ghz": d.point.freq,
            "boost": d.boost,
            "freq_with_mma_gated": d_gated.point.freq,
        }));
        r.line(format!(
            "{:<16} Ceff {:>5.2}  f = {:.2} GHz (boost {:>5.2}x), {:.2} GHz with MMA gated",
            res.workload, ceff, d.point.freq, d.boost, d_gated.point.freq
        ));
    }
    r.json(&rows)
}

fn do_sensitivity(ops: u64) -> Report {
    let mut r = Report::new(
        "Design-choice sensitivity",
        "SS II-B mechanisms toggled off one at a time on POWER10",
    );
    let rows = p10_core::sensitivity::run_sensitivity(&suite(), 42, ops / 2);
    r.line(format!(
        "{:<26} {:>10} {:>10} {:>12}",
        "mechanism", "perf", "power", "energy/inst"
    ));
    for row in &rows {
        r.line(format!(
            "{:<26} {:>+9.1}% {:>+9.1}% {:>+11.1}%",
            row.label,
            row.perf_benefit * 100.0,
            row.power_benefit * 100.0,
            row.efficiency_benefit * 100.0
        ));
    }
    r.json(&rows)
}

fn do_smt(ops: u64) -> Report {
    let mut r = Report::new(
        "SMT throughput scaling",
        "Table I: 8-way SMT per core; deeper P10 queues sustain threads",
    );
    let suite = suite();
    let sel: Vec<_> = [8usize, 2, 7, 0]
        .iter()
        .map(|&i| suite[i].clone())
        .collect();
    let s = p10_core::smtscale::run_smt_scaling(&sel, 42, ops / 4);
    r.line(format!(
        "{:<10} {:>8} {:>14} {:>9}",
        "machine", "threads", "aggregate IPC", "scaling"
    ));
    for p in &s.points {
        r.line(format!(
            "{:<10} {:>8} {:>14.3} {:>8.2}x",
            p.config, p.threads, p.aggregate_ipc, p.scaling
        ));
    }
    r.json(&s)
}

fn do_tracking(ops: u64) -> Report {
    let mut r = Report::new(
        "SS III-B tracked metrics",
        "IPC, core power, efficiency, latches, % clock enabled, switching",
    );
    let cfgs = [CoreConfig::power9(), CoreConfig::power10()];
    let (benches, seed, run_ops) = (&suite()[..4], 42, ops / 6);
    let inputs = json!({
        "configs": cfgs.iter().map(config_input).collect::<Vec<_>>(),
        "suite": benches,
        "seed": seed,
        "ops": run_ops,
    });
    let rows = driver_cached("tracking", &inputs, || {
        p10_core::tracking::track(&cfgs, benches, seed, run_ops)
    });
    r.line(format!(
        "{:<10} {:>6} {:>10} {:>11} {:>10} {:>9} {:>10} {:>9}",
        "machine", "IPC", "core pwr", "efficiency", "latches", "clk-en%", "potential", "obs/pot"
    ));
    for row in &rows {
        r.line(format!(
            "{:<10} {:>6.2} {:>10.1} {:>11.5} {:>10.0} {:>8.1}% {:>10.3} {:>9.2}",
            row.config,
            row.ipc,
            row.core_power,
            row.core_efficiency,
            row.latches,
            row.clock_enabled_pct,
            row.potential_switching,
            row.observed_ratio
        ));
    }
    r.json(&rows)
}

/// The workload-transition droop result; its fields are the `--json`
/// payload.
#[derive(Clone, Serialize, Deserialize)]
struct Droop {
    max_droop_unprotected: f64,
    max_droop_with_dds: f64,
    engagements: u32,
    windows: usize,
}

fn do_droop(ops: u64) -> Report {
    let mut r = Report::new(
        "Workload-transition droop",
        "SS IV-B: sudden workload change droops the rail; the DDS clips it",
    );
    use p10_powermgmt::throttle::{demand_from_power, simulate_droop, DroopSensor, PdnModel};
    let (cfg, bench, scalar_seed) = (CoreConfig::power10(), &suite()[8], 3);
    let (window, max_cycles) = (256, 10_000_000);
    let (pdn, sensor) = (PdnModel::default(), DroopSensor::default());
    let inputs = json!({
        "config": config_input(&cfg),
        "scalar": bench,
        "scalar_seed": scalar_seed,
        "scalar_ops": ops / 8,
        "dgemm_mma_ops": ops / 4,
        "window": window,
        "max_cycles": max_cycles,
        "pdn": pdn,
        "sensor": sensor,
    });
    let d = driver_cached("droop", &inputs, || {
        // Real transition: idle-ish scalar loop into the MMA DGEMM kernel.
        let scalar = bench.workload(scalar_seed).trace_or_panic(ops / 8);
        let mut ops_list = scalar.ops;
        let kernel = p10_kernels::gemm::dgemm_mma(1 << 40).trace_or_panic(ops / 4);
        // The kernel workload uses its own memory image; for the droop
        // demand we only need the power series, so run the two phases
        // separately.
        let model = p10_power::PowerModel::for_config(&cfg);
        let phase_power = |trace: p10_isa::Trace| -> Vec<f64> {
            let report = p10_apex::run_apex(&cfg, vec![trace], window, max_cycles);
            report
                .windows
                .iter()
                .map(|w| model.evaluate(&w.activity).core_total())
                .collect()
        };
        ops_list.truncate(ops as usize / 8);
        let mut powers = phase_power(p10_isa::Trace { ops: ops_list });
        let p_ref = powers.iter().copied().fold(0.0f64, f64::max).max(1.0);
        powers.extend(phase_power(kernel));
        let demand = demand_from_power(&powers, p_ref);
        let free = simulate_droop(&pdn, None, &demand);
        let protected = simulate_droop(&pdn, Some(&sensor), &demand);
        Droop {
            max_droop_unprotected: free.max_droop,
            max_droop_with_dds: protected.max_droop,
            engagements: protected.engagements,
            windows: demand.len(),
        }
    });
    r.line(format!(
        "scalar -> MMA-kernel transition over {} power windows:",
        d.windows
    ));
    r.line(format!(
        "worst droop without DDS {:.1}%  |  with DDS {:.1}% ({} engagements)",
        d.max_droop_unprotected * 100.0,
        d.max_droop_with_dds * 100.0,
        d.engagements
    ));
    // The one compact payload.
    r.json = format!("{}\n", serde_json::to_string(&d).expect("json"));
    r
}

fn do_dse(ops: u64) -> Report {
    let mut r = Report::new(
        "DSE — perf/watt Pareto frontier over the design space",
        "2.6x core perf/W: locate the POWER9 -> POWER10 jump on the frontier",
    );
    let grid = dse::default_grid();
    let suite = dse::default_suite();
    // Recordings and shard results are engine result-cache entries, so a
    // killed sweep resumes from the disk cache.
    let cfg = dse::DseConfig::new(42, ops);
    let sp = p10_obs::span("dse.sweep");
    let outcome = dse::run_dse(runner::engine(), &grid, &suite, &cfg);
    let wall = sp.finish();
    let res = &outcome.result;
    let s = res.stats;
    // Wall-clock accounting stays on stderr so stdout is deterministic.
    eprintln!(
        "[figures] dse: {} points in {wall:.2}s — {} recordings simulated, {} shards computed, {} resumed",
        s.points,
        outcome.run.recordings_simulated,
        outcome.run.shards_computed,
        outcome.run.shards_resumed
    );
    #[allow(clippy::cast_precision_loss)]
    if outcome.run.recordings_simulated > 0 && s.classes > 0 {
        // Cold run: detailed simulation dominates the wall, so a naive
        // per-config re-simulation would cost ~points/classes as much.
        p10_obs::gauge("dse.est_naive_speedup", s.points as f64 / s.classes as f64);
    }
    r.line(format!(
        "grid: {} points | {} timing classes | {} benchmarks | {} shards",
        s.points, s.classes, s.benches, s.shards
    ));
    #[allow(clippy::cast_precision_loss)]
    let replay_pct = s.replay_hits as f64 * 100.0 / s.points.max(1) as f64;
    r.line(format!(
        "reuse: {} points pure replay ({replay_pct:.1}%), {} detailed simulations ({} classes x {} benchmarks)",
        s.replay_hits,
        s.classes * s.benches,
        s.classes,
        s.benches
    ));
    r.line(format!(
        "\nPareto frontier ({} of {} points):",
        res.frontier.len(),
        s.points
    ));
    r.text.push_str(&dse::frontier_markdown(res));
    let paper: Vec<&dse::DsePointResult> = res.points.iter().filter(|p| p.paper).collect();
    r.text.push('\n');
    for p in &paper {
        let on = res.frontier.iter().any(|&i| res.points[i].name == p.name);
        r.line(format!(
            "paper endpoint {:<18} perf {:>7.3}  power {:>6.1} W  perf/W {:.4}  [{}]",
            p.name,
            p.perf,
            p.power,
            p.perf_per_watt,
            if on { "on frontier" } else { "dominated" }
        ));
    }
    if let [p9, p10] = paper.as_slice() {
        r.line(format!(
            "POWER10 vs POWER9 perf/W: {:.2}x (paper: 2.6x core)",
            p10.perf_per_watt / p9.perf_per_watt.max(1e-12)
        ));
    }
    r.json(res)
}

/// The study's default interval: ~64 intervals across the op budget. The
/// floor keeps per-interval measurement above the granularity where
/// boundary residue dominates; small budgets therefore degrade gracefully
/// toward exact (fewer intervals, most of them simulated).
fn study_interval_ops(ops: u64) -> usize {
    usize::try_from(ops / 64).unwrap_or(usize::MAX).max(2500)
}

/// The study's default cluster budget.
const STUDY_K: usize = 8;

/// The study mode when `--sampling` is exact: the default interval and
/// cluster budget with a 1/8-interval warmup.
fn default_sampling_mode(ops: u64) -> SamplingMode {
    let interval_ops = study_interval_ops(ops);
    SamplingMode::SimPoints {
        interval_ops,
        k: STUDY_K,
        warmup_ops: interval_ops / 8,
    }
}

/// One job of the sampling study's job graph.
enum StudyJob<'a> {
    /// Exact reference, then the sampled estimate, then — when `bound`
    /// is set — the target-bound demo, chained in the same job because
    /// it reuses this workload's interval measurements and checkpoints.
    Study {
        bench: &'a Benchmark,
        bound: Option<SamplingMode>,
    },
    /// Cross-workload training rows of one non-study workload.
    Train(&'a Benchmark),
}

/// What one study job measured.
struct StudyRun {
    exact_cpi: f64,
    exact_power: f64,
    exact_s: f64,
    sampled: sampling::SampledScenario,
    sampled_s: f64,
    /// The target-bound demo's result and wall time.
    bound: Option<(sampling::SampledScenario, f64)>,
}

enum StudyOut {
    Study(Box<StudyRun>),
    Train(Vec<sampling::TrainingRow>),
}

fn do_sampling(ops: u64) -> Report {
    let mut r = Report::new(
        "Sampled simulation — exact vs SimPoint-weighted execution",
        "representative-interval sampling with statistical error bounds",
    );
    // The study always runs both sides itself (uncached, so wall times
    // are honest): exact as ground truth, sampled in the engine's mode
    // (or a budget-scaled default when the engine is exact).
    let engine = runner::engine();
    let mode = Some(engine.sampling())
        .filter(|m| !m.is_exact())
        .unwrap_or_else(|| default_sampling_mode(ops));
    let cfg = CoreConfig::power10();
    let suite = suite();
    let benches = &suite[7..10];
    r.head += &format!("mode: {}  ops/workload: {}\n", mode.describe(), ops);
    // Cross-workload fast-forward geometry: the default interval and
    // cluster budget (bound mode, the only other study mode, has none).
    let (xi, xk) = (study_interval_ops(ops), STUDY_K);
    // Target-bound auto-tuning demo: instead of fixing K, grow it until
    // the reported error bound meets a target. Later rounds reuse the
    // warm checkpoints and cached interval measurements earlier rounds
    // (and the study run of the same workload) persisted, so each round
    // only pays for its newly measured intervals. Skipped when the CLI
    // already asked for bound mode — the main table covered it then.
    let bound_target = (!matches!(mode, SamplingMode::Bound { .. }))
        .then_some(SamplingMode::Bound { target_mpct: 5_000 });
    let store = engine.ckpt_store();

    // One flat job graph on the worker pool: a study job per workload
    // (the first, longest one chaining the bound demo), then a
    // training-row job per cross-workload training benchmark. Each job
    // owns one distinct trace, so no two jobs share an engine cache key
    // or a warm class, and every counter is independent of `--jobs`.
    // Per-row walls are therefore measured while other jobs run.
    let jobs: Vec<StudyJob> = benches
        .iter()
        .enumerate()
        .map(|(i, bench)| StudyJob::Study {
            bench,
            bound: bound_target.filter(|_| i == 0),
        })
        .chain(suite[..7].iter().map(StudyJob::Train))
        .collect();
    let outs = engine.run_jobs_par(&jobs, |_, job| match *job {
        StudyJob::Study { bench, bound } => {
            let t0 = std::time::Instant::now();
            let exact = scenario::run_benchmark(&cfg, bench, 42, ops);
            let exact_s = t0.elapsed().as_secs_f64();
            let t1 = std::time::Instant::now();
            let sampled = sampling::run_benchmark_sampled(&cfg, bench, 42, ops, &mode);
            let sampled_s = t1.elapsed().as_secs_f64();
            let bound = bound.map(|target| {
                let t2 = std::time::Instant::now();
                let s = sampling::run_benchmark_sampled(&cfg, bench, 42, ops, &target);
                (s, t2.elapsed().as_secs_f64())
            });
            StudyOut::Study(Box::new(StudyRun {
                exact_cpi: exact.sim.cpi(),
                exact_power: exact.core_power(),
                exact_s,
                sampled,
                sampled_s,
                bound,
            }))
        }
        StudyJob::Train(bench) => StudyOut::Train(sampling::cross_workload_rows(
            &cfg, bench, 42, ops, xi, xk, store,
        )),
    });
    let mut runs = Vec::new();
    let mut training_rows = Vec::new();
    for out in outs {
        match out {
            StudyOut::Study(run) => runs.push(run),
            StudyOut::Train(rows) => training_rows.extend(rows),
        }
    }

    // Results print (and reach `[obs]`) in the serial order, whatever
    // order the jobs finished in.
    let mut rows = Vec::new();
    let mut all_ok = true;
    let mut speedup_sum = 0.0;
    for (b, run) in benches.iter().zip(&runs) {
        let s = &run.sampled;
        let (exact_s, sampled_s) = (run.exact_s, run.sampled_s);
        sampling::record_obs(&s.stats);

        let cpi_err = (s.stats.cpi_est - run.exact_cpi).abs() / run.exact_cpi.max(1e-12);
        let power_err = (s.stats.power_est - run.exact_power).abs() / run.exact_power.max(1e-12);
        let within = cpi_err <= s.stats.cpi_bound_rel && power_err <= s.stats.power_bound_rel;
        let speedup = exact_s / sampled_s.max(1e-9);
        all_ok &= within;
        speedup_sum += speedup;
        rows.push(json!({
            "workload": b.name,
            "mode": s.stats.mode,
            "exact_cpi": run.exact_cpi,
            "sampled_cpi": s.stats.cpi_est,
            "cpi_rel_err": cpi_err,
            "cpi_bound_rel": s.stats.cpi_bound_rel,
            "exact_core_power": run.exact_power,
            "sampled_core_power": s.stats.power_est,
            "power_rel_err": power_err,
            "power_bound_rel": s.stats.power_bound_rel,
            "simulated_ops": s.stats.simulated_ops,
            "skipped_ops": s.stats.skipped_ops,
            "intervals": s.stats.intervals,
            "clusters": s.stats.clusters,
            "exact_s": exact_s,
            "sampled_s": sampled_s,
            "speedup": speedup,
            "within_bound": within,
        }));
        r.line(format!(
            "{:<16} CPI {:>6.3} -> {:>6.3} (err {:>4.1}% <= bound {:>4.1}%)  \
             power {:>6.1} -> {:>6.1} W (err {:>4.1}% <= bound {:>4.1}%)  {}",
            b.name,
            run.exact_cpi,
            s.stats.cpi_est,
            cpi_err * 100.0,
            s.stats.cpi_bound_rel * 100.0,
            run.exact_power,
            s.stats.power_est,
            power_err * 100.0,
            s.stats.power_bound_rel * 100.0,
            if within { "OK" } else { "VIOLATED" }
        ));
        r.line(format!(
            "{:<16} simulated {}/{} ops over {} intervals ({} clusters)  \
             wall {:.2}s -> {:.2}s  speedup {:.1}x",
            "",
            s.stats.simulated_ops,
            s.stats.total_ops,
            s.stats.intervals,
            s.stats.clusters,
            exact_s,
            sampled_s,
            speedup
        ));
    }
    #[allow(clippy::cast_precision_loss)]
    let mean_speedup = speedup_sum / rows.len() as f64;
    r.line(format!(
        "error bound check: {}  mean speedup {:.1}x",
        if all_ok { "OK" } else { "VIOLATED" },
        mean_speedup
    ));

    let bound = runs[0].bound.as_ref().map(|(s, wall)| {
        let b = &benches[0];
        let wall = *wall;
        sampling::record_obs(&s.stats);
        let (exact_cpi, exact_power, exact_s) =
            (runs[0].exact_cpi, runs[0].exact_power, runs[0].exact_s);
        let cpi_err = (s.stats.cpi_est - exact_cpi).abs() / exact_cpi.max(1e-12);
        let power_err = (s.stats.power_est - exact_power).abs() / exact_power.max(1e-12);
        r.line(format!(
            "bound:5 on {:<12} -> {}  CPI err {:>4.1}% <= bound {:>4.1}%  \
             power err {:>4.1}% <= bound {:>4.1}%  simulated {}/{}  wall {:.2}s ({:.1}x)",
            b.name,
            s.stats.mode,
            cpi_err * 100.0,
            s.stats.cpi_bound_rel * 100.0,
            power_err * 100.0,
            s.stats.power_bound_rel * 100.0,
            s.stats.simulated_ops,
            s.stats.total_ops,
            wall,
            exact_s / wall.max(1e-9)
        ));
        json!({
            "workload": b.name,
            "mode": s.stats.mode,
            "cpi_rel_err": cpi_err,
            "cpi_bound_rel": s.stats.cpi_bound_rel,
            "power_rel_err": power_err,
            "power_bound_rel": s.stats.power_bound_rel,
            "simulated_ops": s.stats.simulated_ops,
            "total_ops": s.stats.total_ops,
            "clusters": s.stats.clusters,
        })
    });

    // Cross-workload fast-forward: fit interval-level CPI/power
    // predictors on the seven non-study workloads' measured intervals,
    // then estimate the last study workload from its functional-warming
    // features alone — one anchor interval simulated, everything else
    // predicted. Only the fit and this estimate run after the join.
    let xw = sampling::fit_cross_workload(&training_rows, 4).map(|model| {
        let b = &benches[2];
        let s = sampling::run_benchmark_predicted(&cfg, b, 42, ops, xi, &model, store);
        sampling::record_obs(&s.stats);
        let (exact_cpi, exact_power) = (runs[2].exact_cpi, runs[2].exact_power);
        let cpi_err = (s.stats.cpi_est - exact_cpi).abs() / exact_cpi.max(1e-12);
        let power_err = (s.stats.power_est - exact_power).abs() / exact_power.max(1e-12);
        r.line(format!(
            "cross-workload ({} rows, cv cpi {:.1}% power {:.1}%) predicts {:<12} \
             CPI {:>6.3} (err {:>4.1}%)  power {:>6.1} W (err {:>4.1}%)  [{}]",
            model.training_rows,
            model.cv_cpi_error_pct(),
            model.cv_power_error_pct(),
            b.name,
            s.stats.cpi_est,
            cpi_err * 100.0,
            s.stats.power_est,
            power_err * 100.0,
            s.stats.mode
        ));
        json!({
            "workload": b.name,
            "mode": s.stats.mode,
            "training_rows": model.training_rows,
            "cv_cpi_error_pct": model.cv_cpi_error_pct(),
            "cv_power_error_pct": model.cv_power_error_pct(),
            "cpi_rel_err": cpi_err,
            "power_rel_err": power_err,
        })
    });

    // Warm-state checkpoint traffic across all of the above. A cold run
    // reports misses and warm passes; a repeat run (same budget, shared
    // P10SIM_CKPT_DIR or disk cache) reports hits and zero warm passes.
    r.line(format!(
        "checkpoints: {} hit(s), {} miss(es), {} bytes, {} warm pass(es)",
        store.ckpt_hits(),
        store.ckpt_misses(),
        store.ckpt_bytes(),
        store.warm_passes()
    ));
    r.json(&json!({
        "rows": rows,
        "bound": bound,
        "cross_workload": xw,
        "checkpoints": {
            "hits": store.ckpt_hits(),
            "misses": store.ckpt_misses(),
            "bytes": store.ckpt_bytes(),
            "warm_passes": store.warm_passes(),
        },
    }))
}

fn do_tracepoints(ops: u64) -> Report {
    let mut r = Report::new(
        "Tracepoints vs Simpoints",
        "counter-histogram epochs beat BBVs on phased/interpreted code",
    );
    let (cfg, phase_nodes, epoch_ops, clusters) = (CoreConfig::power10(), 2_000, 1_500, 3);
    let inputs = json!({
        "config": config_input(&cfg),
        "phased_pointer_chase": phase_nodes,
        "ops": ops,
        "epoch_ops": epoch_ops,
        "clusters": clusters,
    });
    let s = driver_cached("tracepoints", &inputs, || {
        let w = p10_workloads::suite::phased_pointer_chase(phase_nodes);
        tracestudy::run_trace_study(&cfg, &w, ops, epoch_ops, clusters)
    });
    r.line(format!(
        "full CPI {:.3} | simpoint est {:.3} (err {:.1}%) | tracepoint est {:.3} (err {:.1}%)",
        s.full_cpi,
        s.simpoint_cpi,
        s.simpoint_error * 100.0,
        s.tracepoint_cpi,
        s.tracepoint_error * 100.0
    ));
    r.json(&s)
}
