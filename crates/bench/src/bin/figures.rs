//! Regenerates every table and figure of the paper.
//!
//! Usage:
//! ```text
//! figures <experiment> [--json] [--ops N] [--out DIR] [--jobs N] [--no-cache] [--trace-out FILE] [--trace-format jsonl|chrome] [--obs-json FILE] [--ledger-dir DIR] [--no-ledger] [--sampling MODE]
//! figures obsreport [--ledger-dir DIR] [--baseline SEL] [--gate PCT] [--min-s SECS]
//! ```
//! `--out DIR` captures each experiment's stdout into `DIR/<exp>.json`
//! as well as printing it. `--jobs N` sets the worker-pool width
//! (default: all CPUs) and `--no-cache` disables the on-disk result
//! cache (`target/p10sim-cache`, override with `P10SIM_CACHE_DIR`); see
//! `p10_core::runner`. `--sampling MODE` selects sampled execution for
//! every simulation point routed through the engine: `exact` (default,
//! byte-identical reference), `simpoints:INTERVAL:K[:WARMUP]`, or
//! `bound:PCT` (grow the cluster count until the reported error bound
//! is at most PCT percent) — see `p10_core::sampling`. Sampled runs
//! persist warm-state checkpoints under the engine's disk cache
//! (override the directory with `P10SIM_CKPT_DIR`), so sweeps re-warm
//! once per warm-equivalence class instead of once per config.
//! `--trace-out FILE` writes an event trace via `p10_obs` — JSON lines
//! by default, or a `chrome://tracing`/Perfetto-loadable trace-event
//! file with `--trace-format chrome`; either way an end-of-run summary
//! table lands on stderr. `--obs-json FILE` additionally serializes that
//! summary as one JSON object for scripts.
//!
//! Every run also appends one `RunRecord` JSON line to the persistent
//! run ledger (`target/p10sim-ledger/`, overridable with `--ledger-dir`,
//! disabled with `--no-ledger`) — see `p10_obs::ledger`. The `obsreport`
//! pseudo-experiment reads that history back: it prints
//! wall-time/cache/coverage trends for the latest run against a
//! baseline (`--baseline` selects one; default is the previous
//! comparable run) and with `--gate PCT` exits non-zero when the latest
//! run regressed more than `PCT` percent (deltas under `--min-s` seconds
//! never gate). `<experiment>` is a name in `EXPERIMENTS`, `obsreport`,
//! or `all` (the default) — every experiment marked for `all`, in table
//! order. `dse` (the design-space Pareto sweep), `profile` (the
//! cycle-attribution tables) and `sampling` (the exact-vs-sampled
//! error/speedup study, whose wall-clock numbers vary run to run) run on
//! demand only, which keeps `all`'s stdout stable across additions.
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
use p10_workloads::{chopstix, Benchmark};
use serde_json::json;

/// An experiment: its name, its driver, and whether `all` runs it.
type Experiment = (&'static str, fn(&Opts), bool);

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 25] = [
    ("table1", do_table1, true),
    ("fig2", do_fig2, true),
    ("fig4", do_fig4, true),
    ("fig5", do_fig5, true),
    ("fig6", do_fig6, true),
    ("socket", do_socket, true),
    ("fig10", do_fig10, true),
    ("fig11", do_fig11, true),
    ("fig12", do_fig12, true),
    ("fig13", do_fig13, true),
    ("fig14", do_fig14, true),
    ("fig15a", do_fig15a, true),
    ("fig15b", do_fig15b, true),
    ("flushes", do_flushes, true),
    ("coverage", do_coverage, true),
    ("apex-speedup", do_apex_speedup, true),
    ("wof", do_wof, true),
    ("tracepoints", do_tracepoints, true),
    ("sensitivity", do_sensitivity, true),
    ("smt", do_smt, true),
    ("tracking", do_tracking, true),
    ("droop", do_droop, true),
    ("dse", do_dse, false),
    ("profile", do_profile, false),
    ("sampling", do_sampling, false),
];

struct Opts {
    json: bool,
    ops: u64,
    out: Option<std::path::PathBuf>,
    jobs: usize,
    no_cache: bool,
    trace_out: Option<std::path::PathBuf>,
    trace_format: Option<p10_obs::TraceFormat>,
    obs_json: Option<std::path::PathBuf>,
    ledger_dir: Option<std::path::PathBuf>,
    no_ledger: bool,
    baseline: Option<String>,
    gate: Option<f64>,
    min_s: Option<f64>,
    sampling: Option<SamplingMode>,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: figures <experiment> [--json] [--ops N] [--out DIR] [--jobs N] [--no-cache] [--trace-out FILE] [--trace-format jsonl|chrome] [--obs-json FILE] [--ledger-dir DIR] [--no-ledger] [--sampling MODE]"
    );
    eprintln!(
        "       figures obsreport [--ledger-dir DIR] [--baseline SEL] [--gate PCT] [--min-s SECS]"
    );
    eprintln!("sampling modes: exact | simpoints:INTERVAL:K[:WARMUP] | bound:PCT (0 < PCT <= 100)");
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, ..)| name).collect();
    eprintln!("experiments: {} obsreport all", names.join(" "));
    std::process::exit(2);
}

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
        sampling: None,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
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
            "--out" => opts.out = Some(std::path::PathBuf::from(flag_value("--out"))),
            "--trace-out" => {
                opts.trace_out = Some(std::path::PathBuf::from(flag_value("--trace-out")));
            }
            "--trace-format" => {
                opts.trace_format = Some(parse_trace_format(&flag_value("--trace-format")));
            }
            "--obs-json" => {
                opts.obs_json = Some(std::path::PathBuf::from(flag_value("--obs-json")));
            }
            "--ledger-dir" => {
                opts.ledger_dir = Some(std::path::PathBuf::from(flag_value("--ledger-dir")));
            }
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
                opts.sampling = Some(SamplingMode::parse(&v).unwrap_or_else(|e| usage_error(&e)));
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
    if what != "obsreport"
        && (opts.gate.is_some() || opts.baseline.is_some() || opts.min_s.is_some())
    {
        usage_error("--gate/--baseline/--min-s only apply to the obsreport experiment");
    }
    (what, opts)
}

/// With `--out DIR`, re-runs the experiment as a child process in
/// `--json` mode and stores its stdout as `DIR/<name>.json` (the run
/// itself still prints human-readable output first). Experiments are
/// deterministic, so the artifact matches what was just shown — and the
/// child shares the parent's warm on-disk cache, so it skips the
/// simulations the parent just ran.
fn write_artifact(opts: &Opts, name: &str) {
    let Some(dir) = &opts.out else { return };
    std::fs::create_dir_all(dir).expect("create --out dir");
    let exe = std::env::current_exe().expect("own path");
    let mut args = vec![
        name.to_owned(),
        "--json".to_owned(),
        "--no-ledger".to_owned(),
        "--ops".to_owned(),
        opts.ops.to_string(),
    ];
    if opts.jobs != 0 {
        args.push("--jobs".to_owned());
        args.push(opts.jobs.to_string());
    }
    if opts.no_cache {
        args.push("--no-cache".to_owned());
    }
    if let Some(mode) = &opts.sampling {
        args.push("--sampling".to_owned());
        args.push(mode.describe());
    }
    // The child is a throwaway re-run for the JSON payload: it gets no
    // trace, obs-json, or ledger of its own.
    let output = std::process::Command::new(exe)
        .args(&args)
        .output()
        .expect("re-run experiment for artifact");
    assert!(
        output.status.success(),
        "artifact run for {name} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The experiment prints its header before the JSON payload; keep
    // only the payload (first line starting with '{' or '[').
    let text = String::from_utf8_lossy(&output.stdout);
    let payload_start = text
        .lines()
        .scan(0usize, |off, line| {
            let this = *off;
            *off += line.len() + 1;
            Some((this, line))
        })
        .find(|(_, line)| line.starts_with('{') || line.starts_with('['))
        .map_or(0, |(off, _)| off);
    std::fs::write(dir.join(format!("{name}.json")), &text[payload_start..])
        .expect("write artifact");
    println!("    [artifact: {}/{name}.json]", dir.display());
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

    // Sampling mode: --sampling, else exact. Installed once before any
    // experiment runs; the engine's benchmark dispatch consults it for
    // every simulation point.
    let sampling_key = opts
        .sampling
        .map_or_else(|| "exact".to_owned(), |m| m.describe());
    if let Some(mode) = opts.sampling {
        sampling::set_mode(mode);
        if !mode.is_exact() {
            eprintln!("[figures] sampled execution: {}", mode.describe());
        }
    }

    // All experiment drivers run on the shared engine: a worker pool plus
    // in-process memo and (unless --no-cache) the on-disk result cache.
    runner::configure(runner::EngineConfig {
        jobs: opts.jobs,
        disk_cache: (!opts.no_cache).then(runner::default_cache_dir),
        progress: true,
    });
    eprintln!(
        "[figures] {} worker(s), disk cache {}",
        runner::engine().jobs(),
        if opts.no_cache {
            "off".to_owned()
        } else {
            runner::default_cache_dir().display().to_string()
        }
    );

    let experiments: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|&&(name, _, in_all)| if what == "all" { in_all } else { name == what })
        .collect();

    for &&(e, driver, _) in &experiments {
        let sp = p10_obs::span(e);
        driver(&opts);
        let secs = sp.finish();
        eprintln!("[figures] {e}: {secs:.2}s");
        write_artifact(&opts, e);
    }

    // Observation effectiveness: the share of observed simulation cycles
    // delivered as closed-form spans instead of live steps (1.0 = every
    // observed cycle rode the fast path). Derived from the counters the
    // rtlsim/apex observers record, then shown as a gauge in the summary.
    let s = p10_obs::summary();
    let total = |name: &str| {
        s.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let live = total("sim.observed_live_cycles");
    let span = total("sim.observed_span_cycles");
    if live + span > 0 {
        #[allow(clippy::cast_precision_loss)]
        p10_obs::gauge("sim.span_hit_rate", span as f64 / (live + span) as f64);
    }

    // Trace-arena effectiveness: the share of trace requests served
    // zero-copy from a cached buffer (1.0 = every request after the first
    // synthesis of each distinct trace).
    let arena_hits = total("trace.arena.hits");
    let arena_misses = total("trace.arena.misses");
    if arena_hits + arena_misses > 0 {
        #[allow(clippy::cast_precision_loss)]
        p10_obs::gauge(
            "trace.arena.hit_rate",
            arena_hits as f64 / (arena_hits + arena_misses) as f64,
        );
    }

    // Sampled-execution coverage: the fraction of trace ops whose timing
    // was simulated directly rather than reconstituted from a cluster
    // representative (1.0 = exact execution).
    let sampled = total("sim.sample.simulated_ops");
    let skipped = total("sim.sample.skipped_ops");
    if sampled + skipped > 0 {
        #[allow(clippy::cast_precision_loss)]
        p10_obs::gauge(
            "sim.sample.coverage",
            sampled as f64 / (sampled + skipped) as f64,
        );
    }

    // Warm-checkpoint effectiveness: the share of boundary-state requests
    // served from a saved checkpoint instead of replayed from scratch
    // (1.0 = every warm prefix after the first run of each class).
    let ck_hits = total("sampling.ckpt_hits");
    let ck_misses = total("sampling.ckpt_misses");
    if ck_hits + ck_misses > 0 {
        #[allow(clippy::cast_precision_loss)]
        p10_obs::gauge(
            "sampling.ckpt.hit_rate",
            ck_hits as f64 / (ck_hits + ck_misses) as f64,
        );
    }

    // Worker utilization: each worker slot's busy seconds as a fraction
    // of total run wall time (derived from the busy_us counters the
    // runner records per pool).
    if s.total_wall_s > 0.0 {
        for c in &s.counters {
            if let Some(slot) = c
                .name
                .strip_prefix("engine.")
                .and_then(|r| r.strip_suffix(".busy_us"))
            {
                #[allow(clippy::cast_precision_loss)]
                p10_obs::gauge(
                    &format!("runner.{slot}.busy_frac"),
                    c.value as f64 / 1e6 / s.total_wall_s,
                );
            }
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
        let eng_cfg = runner::engine().config();
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
        println!(
            "  {:>3} {:<16} {:>8.2}s {:>6.1}% {:>6.1}% {:>9.3} {:>5}/{:<5} {:>5}",
            i + 1,
            r.run_id,
            r.wall_s,
            r.cache.hit_rate() * 100.0,
            r.arena.hit_rate * 100.0,
            r.sampling.coverage,
            r.sampling.ckpt_hits,
            r.sampling.ckpt_misses,
            r.sampling.warm_passes
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
    println!(
        "cache hit rate {:.1}% -> {:.1}%   arena hit rate {:.1}% -> {:.1}%   coverage {:.3} -> {:.3}",
        baseline.cache.hit_rate() * 100.0,
        latest.cache.hit_rate() * 100.0,
        baseline.arena.hit_rate * 100.0,
        latest.arena.hit_rate * 100.0,
        baseline.sampling.coverage,
        latest.sampling.coverage
    );
    println!(
        "ckpt hits {} -> {}   misses {} -> {}   bytes {} -> {}   warm passes {} -> {}",
        baseline.sampling.ckpt_hits,
        latest.sampling.ckpt_hits,
        baseline.sampling.ckpt_misses,
        latest.sampling.ckpt_misses,
        baseline.sampling.ckpt_bytes,
        latest.sampling.ckpt_bytes,
        baseline.sampling.warm_passes,
        latest.sampling.warm_passes
    );
    for w in &latest.workers {
        println!(
            "worker {:<10} jobs={:<4} busy={:.2}s ({:.0}% of wall)",
            w.worker,
            w.jobs,
            w.busy_s,
            w.busy_frac * 100.0
        );
    }

    let Some(pct) = opts.gate else { return 0 };
    let min_s = opts.min_s.unwrap_or(0.05);
    let regressions = ledger::gate(baseline, latest, pct, min_s);
    if regressions.is_empty() {
        println!("gate: PASS (no wall-time regression beyond {pct}% and {min_s:.2}s)");
        return 0;
    }
    for r in &regressions {
        println!(
            "gate: REGRESSION {} {:.2}s -> {:.2}s ({:+.1}% > {pct}%)",
            r.phase, r.baseline_s, r.latest_s, r.delta_pct
        );
    }
    println!("gate: FAIL ({} regression(s))", regressions.len());
    1
}

fn header(title: &str, paper: &str) {
    println!("\n=== {title} ===");
    println!("    paper reference: {paper}");
}

fn do_table1(o: &Opts) {
    header(
        "Table I — chip features & efficiency projections",
        "2.6x core perf/W, up to 3x socket",
    );
    let t = table1::run_table1(&suite(), 42, o.ops);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&t).expect("json"));
        return;
    }
    println!("SMT per core                  : {}", t.smt_per_core);
    println!(
        "L2 per SMT8 core              : {:.1} MiB (paper: 2 MiB)",
        t.l2_per_core_mib
    );
    println!(
        "MMU (TLB) ratio vs POWER9     : {:.1}x (paper: 4x)",
        t.mmu_ratio
    );
    println!(
        "Core perf ratio               : {:.2}x (paper: ~1.3x)",
        t.perf_ratio
    );
    println!(
        "Core power ratio              : {:.2}x (paper: ~0.5x)",
        t.power_ratio
    );
    println!(
        "Core performance/watt         : {:.2}x (paper: 2.6x)",
        t.perf_per_watt_core
    );
    println!(
        "Socket-view efficiency (SMT2) : {:.2}x (paper: up to 3x)",
        t.socket_efficiency
    );
}

fn do_fig2(o: &Opts) {
    header(
        "Fig. 2 — optimal pipeline depth",
        "optimum stable at 27 FO4 for 0.5x-1.0x power targets",
    );
    let f = p10_pipedepth::run_fig2(&p10_pipedepth::DepthParams::default(), &[0.25]);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&f).expect("json"));
        return;
    }
    for &t in &f.power_targets {
        println!("power target {t:.2}x: optimal FO4 = {}", f.optimal_fo4(t));
    }
    println!("curve (target=1.0): fo4 -> BIPS");
    for p in f
        .points
        .iter()
        .filter(|p| (p.power_target - 1.0).abs() < 1e-9)
        .step_by(4)
    {
        println!("  {:>4.0}  {:.3}", p.fo4, p.bips);
    }
}

fn do_fig4(o: &Opts) {
    header(
        "Fig. 4 — per-design-change performance gains",
        "SMT8 SPECint: branch 4%, lat+BW 10%, L2 9%, decode+VSX 5%, queues 4%",
    );
    let f = ablation::run_fig4(&suite(), 42, o.ops / 2);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&f).expect("json"));
        return;
    }
    println!(
        "{:<20} {:>8} {:>8} {:>8}  max workload",
        "group", "ST", "SMT", "max"
    );
    for r in &f.rows {
        println!(
            "{:<20} {:>7.1}% {:>7.1}% {:>7.1}%  {}",
            r.group,
            r.st_gain * 100.0,
            r.smt_gain * 100.0,
            r.max_gain * 100.0,
            r.max_workload
        );
    }
}

fn do_fig5(o: &Opts) {
    header(
        "Fig. 5 — DGEMM flops/cycle & core power",
        "P10 VSU 1.95x @ -32.2%; P10 MMA 5.47x @ -24.1%; 62.1%/87.1% of peak",
    );
    let f = gemm::run_fig5(o.ops);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&f).expect("json"));
        return;
    }
    for p in [&f.p9_vsu, &f.p10_vsu, &f.p10_mma] {
        println!(
            "{:<24} {:>6.2} flops/cyc ({:>5.1}% of peak)  core power {:>7.1}",
            p.label,
            p.flops_per_cycle,
            p.peak_utilization * 100.0,
            p.core_power
        );
    }
    println!(
        "VSU speedup {:.2}x (paper 1.95x)   power {:+.1}% (paper -32.2%)",
        f.vsu_speedup(),
        f.vsu_power_delta() * 100.0
    );
    println!(
        "MMA speedup {:.2}x (paper 5.47x)   power {:+.1}% (paper -24.1%)",
        f.mma_speedup(),
        f.mma_power_delta() * 100.0
    );
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

fn do_fig6(o: &Opts) {
    header(
        "Fig. 6 — end-to-end inference",
        "ResNet-50: 2.25x/3.55x; BERT-Large: 2.08x/3.64x (no-MMA/MMA)",
    );
    let models = [resnet50(100), bert_large(8, 384)];
    let figs = runner::run_jobs_par(&models, |_, m| fig6_cached(m, o.ops / 2));
    for f in figs {
        if o.json {
            println!("{}", serde_json::to_string_pretty(&f).expect("json"));
            continue;
        }
        println!("-- {} --", f.model);
        println!(
            "{:<16} {:>12} {:>12} {:>7} {:>10}",
            "config", "instructions", "cycles", "CPI", "GEMM-ratio"
        );
        for r in [&f.p9, &f.p10_no_mma, &f.p10_mma] {
            println!(
                "{:<16} {:>12.3e} {:>12.3e} {:>7.3} {:>10.2}",
                r.config,
                r.instructions,
                r.cycles,
                r.cpi(),
                r.gemm_inst_ratio
            );
        }
        println!(
            "speedups: no-MMA {:.2}x, MMA {:.2}x",
            f.speedup_no_mma(),
            f.speedup_mma()
        );
    }
}

fn do_socket(o: &Opts) {
    header(
        "Socket-level AI projections",
        "up to 10x FP32 and 21x INT8 over POWER9",
    );
    let p10 = CoreConfig::power10();
    let models = [resnet50(100), bert_large(8, 384)];
    let projections = runner::run_jobs_par(&models, |_, model| {
        let f = fig6_cached(model, o.ops / 2);
        let int8: inference::InferenceRun = runner::cached(
            &format!("int8 {} ops={}", model.name, o.ops / 2),
            &format!(
                "int8|{}|{}|{}",
                serde_json::to_string(model).expect("model serializes"),
                serde_json::to_string(&p10).expect("config serializes"),
                o.ops / 2
            ),
            || inference::compose_int8(model, &p10, o.ops / 2),
        );
        socket::project_socket_measured(&f, &int8, &socket::SocketScaling::default())
    });
    for p in projections {
        if o.json {
            println!("{}", serde_json::to_string_pretty(&p).expect("json"));
            continue;
        }
        println!(
            "{:<12} core {:.2}x  socket FP32 {:.1}x (paper up to 10x)  INT8 {:.1}x (paper up to 21x)",
            p.model, p.core_speedup, p.fp32_socket_speedup, p.int8_socket_speedup
        );
    }
}

fn do_fig10(o: &Opts) {
    header(
        "Fig. 10 — core-model vs chip-model power/IPC scatter",
        "memory-bound simpoints diverge between models",
    );
    let pts = run_fig10(&suite(), 4, o.ops / 10);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&pts).expect("json"));
        return;
    }
    println!(
        "{:<14} {:>4} {:>6} {:>8} {:>10}",
        "bench", "snip", "model", "IPC", "core power"
    );
    for p in &pts {
        println!(
            "{:<14} {:>4} {:>6} {:>8.3} {:>10.1}",
            p.bench,
            p.snippet,
            match p.model {
                p10_apex::ApexModel::Core => "core",
                p10_apex::ApexModel::Chip => "chip",
            },
            p.ipc,
            p.core_power
        );
    }
}

fn fig11_dataset(o: &Opts) -> p10_powermodel::Dataset {
    build_dataset(
        &CoreConfig::power10(),
        &suite(),
        &[1, 2],
        o.ops / 2,
        512,
        Target::ActivePower,
    )
}

fn do_fig11(o: &Opts) {
    header(
        "Fig. 11 — M1-linked power model error vs #inputs",
        "error falls with inputs; <2.5% active at max inputs",
    );
    let data = runner::timed("fig11 dataset", || fig11_dataset(o));
    let curves = runner::timed("fig11 regression", || run_fig11(&data, 12));
    if o.json {
        println!("{}", serde_json::to_string_pretty(&curves).expect("json"));
        return;
    }
    for c in &curves {
        println!("-- {} --", c.label);
        for p in &c.points {
            println!(
                "  inputs {:>2}: test err {:>6.2}%  train err {:>6.2}%",
                p.inputs, p.test_error_pct, p.train_error_pct
            );
        }
    }
}

fn do_fig12(o: &Opts) {
    header(
        "Fig. 12 — top-down vs bottom-up power models",
        "models differ by 3.42% on average; 72 events total bottom-up",
    );
    let cfg = CoreConfig::power10();
    let sweep_suite = suite();
    // One windowed-run pass feeds all 40 targets (total + 39 components).
    let targets: Vec<Target> = std::iter::once(Target::TotalPower)
        .chain((0..39).map(Target::Component))
        .collect();
    let mut datasets = build_datasets(&cfg, &sweep_suite[..6], &[1], o.ops / 3, 512, &targets);
    let total = datasets.remove(0);
    let components = datasets;
    let f = run_fig12(&total, &components, 12, 3);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&f).expect("json"));
        return;
    }
    println!(
        "model difference   : {:.2}% (paper 3.42%)",
        f.mean_model_difference_pct
    );
    println!(
        "bottom-up events   : {} across 39 components (paper 72)",
        f.bottom_up_events
    );
    println!("top-down events    : {}", f.top_down_events);
    println!(
        "held-out error     : top-down {:.2}%, bottom-up {:.2}%",
        f.top_down_error_pct, f.bottom_up_error_pct
    );
}

fn do_fig13(o: &Opts) {
    header(
        "Fig. 13 — derating per testcase",
        "VT=10% leaves ~25% vulnerable; VT=90% ~52%",
    );
    let f = rasstudy::run_fig13(&CoreConfig::power10(), o.ops / 6, 3);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&f).expect("json"));
        return;
    }
    println!(
        "{:<20} {:>8} {:>8} {:>8} {:>8}",
        "testcase", "static", "VT=10%", "VT=50%", "VT=90%"
    );
    for r in &f.rows {
        println!(
            "{:<20} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            r.testcase, r.static_pct, r.runtime_vt10, r.runtime_vt50, r.runtime_vt90
        );
    }
}

fn do_fig14(o: &Opts) {
    header(
        "Fig. 14 — POWER9 vs POWER10 derating vs VT",
        "P10 runtime derating higher (6%→21% gap); static ~10% lower",
    );
    let f = rasstudy::run_fig14(o.ops / 6, &[0.1, 0.3, 0.5, 0.7, 0.9]);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&f).expect("json"));
        return;
    }
    println!(
        "static derating: P9 {:.1}%  P10 {:.1}%",
        f.p9.static_pct, f.p10.static_pct
    );
    println!(
        "{:>6} {:>10} {:>10} {:>8}",
        "VT", "P9 runtime", "P10 runtime", "gap"
    );
    for ((vt, r9), (_, r10)) in f.p9.runtime_by_vt.iter().zip(f.p10.runtime_by_vt.iter()) {
        println!(
            "{:>5.0}% {:>9.1}% {:>9.1}% {:>+7.1}%",
            vt * 100.0,
            r9,
            r10,
            r10 - r9
        );
    }
}

fn do_fig15a(o: &Opts) {
    header(
        "Fig. 15(a) — power-proxy error vs #counters",
        "16 counters → 9.8% active-power error (<5% incl. static)",
    );
    let data = fig11_dataset(o);
    let sweep = run_fig15a(&data, 16);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&sweep).expect("json"));
        return;
    }
    for p in &sweep {
        println!(
            "  counters {:>2}: active-power err {:>6.2}%",
            p.inputs, p.test_error_pct
        );
    }
}

fn do_fig15b(o: &Opts) {
    header(
        "Fig. 15(b) — proxy error vs time granularity",
        "predicting every >=50 cycles is near-best; finer degrades fast",
    );
    let pts = run_fig15b(
        &CoreConfig::power10(),
        &suite()[8],
        o.ops / 2,
        &[8, 16, 32, 64, 128, 256, 512],
        8,
        0.35,
    );
    if o.json {
        println!("{}", serde_json::to_string_pretty(&pts).expect("json"));
        return;
    }
    for p in &pts {
        println!(
            "  window {:>4} cycles: err {:>6.2}%",
            p.window_cycles, p.error_pct
        );
    }
}

fn do_flushes(o: &Opts) {
    header(
        "Flush study — wasted instructions",
        "-25% SPECint, -38% interpreted/analytics",
    );
    let s = flush::run_flush_study(42, o.ops / 2);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&s).expect("json"));
        return;
    }
    for r in &s.rows {
        println!(
            "{:<16} P9 {:>6.3} P10 {:>6.3} waste/inst  reduction {:>6.1}%",
            r.workload,
            r.p9_waste_per_inst,
            r.p10_waste_per_inst,
            r.reduction() * 100.0
        );
    }
    println!(
        "SPECint mean reduction      : {:.1}% (paper 25%)",
        s.specint_reduction() * 100.0
    );
    println!(
        "interpreted/analytics mean  : {:.1}% (paper 38%)",
        s.interpreted_reduction() * 100.0
    );
}

fn do_coverage(o: &Opts) {
    header(
        "Proxy coverage — Chopstix top-10 hot functions",
        "coverage 41% (gcc) to 99% (xz), ~70% average",
    );
    let workloads: Vec<_> = suite().iter().map(|b| b.workload(23)).collect();
    let rows = runner::run_jobs_par(&workloads, |_, w| chopstix::coverage_row(w, o.ops, 10));
    if o.json {
        println!("{}", serde_json::to_string_pretty(&rows).expect("json"));
        return;
    }
    let mut sum = 0.0;
    for r in &rows {
        println!(
            "{:<16} proxies {:>2}  coverage {:>5.1}%",
            r.workload,
            r.proxies,
            r.coverage * 100.0
        );
        sum += r.coverage;
    }
    println!(
        "average coverage: {:.1}% (paper ~70%)",
        sum / rows.len() as f64 * 100.0
    );
}

fn do_apex_speedup(o: &Opts) {
    header(
        "APEX speedup — detailed vs counter-based extraction",
        "~5000x on AWAN hardware; software analog shows the asymmetry",
    );
    let b = &suite()[8];
    let t = b.workload(5).trace_or_panic(o.ops / 2);
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
    if o.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "cycles": s.cycles,
                "windows": s.windows,
            }))
            .expect("json")
        );
        return;
    }
    println!(
        "APEX extracted {} counter windows over {} cycles (detailed run reads every cycle)",
        s.windows, s.cycles
    );
}

fn do_profile(o: &Opts) {
    header(
        "Cycle-attribution profile",
        "SS III methodology turned on the simulator itself: where cycles go",
    );
    let configs = [CoreConfig::power9(), CoreConfig::power10()];
    let rows = p10_core::cycleprof::run_profile(&configs, &suite(), 42, o.ops);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&rows).expect("json"));
        return;
    }
    println!(
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
    );
    for r in &rows {
        let a = r.attribution;
        println!(
            "{:<16} {:<10} {:>12} {:>6.2} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            r.workload,
            r.config,
            r.cycles,
            r.ipc,
            r.share(a.active),
            r.share(a.mma_gated),
            r.share(a.memory_bound),
            r.share(a.issue_limited),
            r.share(a.dispatch_stalled),
            r.share(a.fetch_stalled),
            r.share(a.idle)
        );
    }
}

fn do_wof(o: &Opts) {
    header(
        "WOF — workload-optimized frequency",
        "light workloads boost under the envelope; MMA gating reclaims leakage",
    );
    // Effective capacitance ratios from measured suite dynamic power.
    let cfg = CoreConfig::power10();
    let results = scenario::run_suite(&cfg, &suite(), 42, o.ops / 3);
    let ref_power = results
        .results
        .iter()
        .map(|r| r.power.active())
        .fold(0.0f64, f64::max);
    let wcfg = wof::WofConfig::typical();
    let mut rows = Vec::new();
    for r in &results.results {
        let ceff = wof::ceff_ratio(r.power.active(), ref_power);
        let d = wof::solve(&wcfg, ceff, 0.0);
        let d_gated = wof::solve(&wcfg, ceff, 2.0);
        rows.push(json!({
            "workload": r.workload,
            "ceff": ceff,
            "freq_ghz": d.point.freq,
            "boost": d.boost,
            "freq_with_mma_gated": d_gated.point.freq,
        }));
        if !o.json {
            println!(
                "{:<16} Ceff {:>5.2}  f = {:.2} GHz (boost {:>5.2}x), {:.2} GHz with MMA gated",
                r.workload, ceff, d.point.freq, d.boost, d_gated.point.freq
            );
        }
    }
    if o.json {
        println!("{}", serde_json::to_string_pretty(&rows).expect("json"));
    }
}

fn do_sensitivity(o: &Opts) {
    header(
        "Design-choice sensitivity",
        "SS II-B mechanisms toggled off one at a time on POWER10",
    );
    let rows = p10_core::sensitivity::run_sensitivity(&suite(), 42, o.ops / 2);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&rows).expect("json"));
        return;
    }
    println!(
        "{:<26} {:>10} {:>10} {:>12}",
        "mechanism", "perf", "power", "energy/inst"
    );
    for r in &rows {
        println!(
            "{:<26} {:>+9.1}% {:>+9.1}% {:>+11.1}%",
            r.label,
            r.perf_benefit * 100.0,
            r.power_benefit * 100.0,
            r.efficiency_benefit * 100.0
        );
    }
}

fn do_smt(o: &Opts) {
    header(
        "SMT throughput scaling",
        "Table I: 8-way SMT per core; deeper P10 queues sustain threads",
    );
    let suite = suite();
    let sel: Vec<_> = [8usize, 2, 7, 0]
        .iter()
        .map(|&i| suite[i].clone())
        .collect();
    let s = p10_core::smtscale::run_smt_scaling(&sel, 42, o.ops / 4);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&s).expect("json"));
        return;
    }
    println!(
        "{:<10} {:>8} {:>14} {:>9}",
        "machine", "threads", "aggregate IPC", "scaling"
    );
    for p in &s.points {
        println!(
            "{:<10} {:>8} {:>14.3} {:>8.2}x",
            p.config, p.threads, p.aggregate_ipc, p.scaling
        );
    }
}

fn do_tracking(o: &Opts) {
    header(
        "SS III-B tracked metrics",
        "IPC, core power, efficiency, latches, % clock enabled, switching",
    );
    let suite = suite();
    let sel = &suite[..4];
    let rows = p10_core::tracking::track(
        &[CoreConfig::power9(), CoreConfig::power10()],
        sel,
        42,
        o.ops / 6,
    );
    if o.json {
        println!("{}", serde_json::to_string_pretty(&rows).expect("json"));
        return;
    }
    println!(
        "{:<10} {:>6} {:>10} {:>11} {:>10} {:>9} {:>10} {:>9}",
        "machine", "IPC", "core pwr", "efficiency", "latches", "clk-en%", "potential", "obs/pot"
    );
    for r in &rows {
        println!(
            "{:<10} {:>6.2} {:>10.1} {:>11.5} {:>10.0} {:>8.1}% {:>10.3} {:>9.2}",
            r.config,
            r.ipc,
            r.core_power,
            r.core_efficiency,
            r.latches,
            r.clock_enabled_pct,
            r.potential_switching,
            r.observed_ratio
        );
    }
}

fn do_droop(o: &Opts) {
    header(
        "Workload-transition droop",
        "SS IV-B: sudden workload change droops the rail; the DDS clips it",
    );
    use p10_powermgmt::throttle::{demand_from_power, simulate_droop, DroopSensor, PdnModel};
    // Real transition: idle-ish scalar loop into the MMA DGEMM kernel.
    let scalar = suite()[8].workload(3).trace_or_panic(o.ops / 8);
    let mut ops_list = scalar.ops;
    let kernel = p10_kernels::gemm::dgemm_mma(1 << 40).trace_or_panic(o.ops / 4);
    // The kernel workload uses its own memory image; for the droop demand
    // we only need the power series, so run the two phases separately.
    let cfg = CoreConfig::power10();
    let model = p10_power::PowerModel::for_config(&cfg);
    let phase_power = |trace: p10_isa::Trace| -> Vec<f64> {
        let report = p10_apex::run_apex(&cfg, vec![trace], 256, 10_000_000);
        report
            .windows
            .iter()
            .map(|w| model.evaluate(&w.activity).core_total())
            .collect()
    };
    ops_list.truncate(o.ops as usize / 8);
    let mut powers = phase_power(p10_isa::Trace { ops: ops_list });
    let p_ref = powers.iter().copied().fold(0.0f64, f64::max).max(1.0);
    powers.extend(phase_power(kernel));
    let demand = demand_from_power(&powers, p_ref);
    let pdn = PdnModel::default();
    let free = simulate_droop(&pdn, None, &demand);
    let protected = simulate_droop(&pdn, Some(&DroopSensor::default()), &demand);
    if o.json {
        println!(
            "{}",
            serde_json::json!({
                "max_droop_unprotected": free.max_droop,
                "max_droop_with_dds": protected.max_droop,
                "engagements": protected.engagements,
                "windows": demand.len(),
            })
        );
        return;
    }
    println!(
        "scalar -> MMA-kernel transition over {} power windows:",
        demand.len()
    );
    println!(
        "worst droop without DDS {:.1}%  |  with DDS {:.1}% ({} engagements)",
        free.max_droop * 100.0,
        protected.max_droop * 100.0,
        protected.engagements
    );
}

fn do_dse(o: &Opts) {
    header(
        "DSE — perf/watt Pareto frontier over the design space",
        "2.6x core perf/W: locate the POWER9 -> POWER10 jump on the frontier",
    );
    let grid = dse::default_grid();
    let suite = dse::default_suite();
    let mut cfg = dse::DseConfig::new(42, o.ops);
    // The shard journal rides in the disk-cache dir; entries are
    // content-keyed (grid + suite + budget), so one file serves every
    // sweep and a killed run resumes from it. --no-cache disables it
    // along with the result cache.
    if !o.no_cache {
        cfg.journal = Some(runner::default_cache_dir().join("dse-journal.jsonl"));
    }
    let sp = p10_obs::span("dse.sweep");
    let outcome = dse::run_dse(runner::engine(), &grid, &suite, &cfg);
    let wall = sp.finish();
    let r = &outcome.result;
    let s = r.stats;
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
    if o.json {
        println!("{}", serde_json::to_string_pretty(r).expect("json"));
        return;
    }
    println!(
        "grid: {} points | {} timing classes | {} benchmarks | {} shards",
        s.points, s.classes, s.benches, s.shards
    );
    #[allow(clippy::cast_precision_loss)]
    let replay_pct = s.replay_hits as f64 * 100.0 / s.points.max(1) as f64;
    println!(
        "reuse: {} points pure replay ({replay_pct:.1}%), {} detailed simulations ({} classes x {} benchmarks)",
        s.replay_hits,
        s.classes * s.benches,
        s.classes,
        s.benches
    );
    println!(
        "\nPareto frontier ({} of {} points):",
        r.frontier.len(),
        s.points
    );
    print!("{}", dse::frontier_markdown(r));
    let paper: Vec<&dse::DsePointResult> = r.points.iter().filter(|p| p.paper).collect();
    println!();
    for p in &paper {
        let on = r.frontier.iter().any(|&i| r.points[i].name == p.name);
        println!(
            "paper endpoint {:<18} perf {:>7.3}  power {:>6.1} W  perf/W {:.4}  [{}]",
            p.name,
            p.perf,
            p.power,
            p.perf_per_watt,
            if on { "on frontier" } else { "dominated" }
        );
    }
    if let [p9, p10] = paper.as_slice() {
        println!(
            "POWER10 vs POWER9 perf/W: {:.2}x (paper: 2.6x core)",
            p10.perf_per_watt / p9.perf_per_watt.max(1e-12)
        );
    }
}

/// The default study mode when the CLI didn't ask for a specific one:
/// ~64 intervals across the op budget with a 1/8-interval warmup. The
/// interval floor keeps per-interval measurement above the granularity
/// where boundary residue dominates; small budgets therefore degrade
/// gracefully toward exact (fewer intervals, most of them simulated).
fn default_sampling_mode(ops: u64) -> SamplingMode {
    let interval_ops = usize::try_from(ops / 64).unwrap_or(usize::MAX).max(2500);
    SamplingMode::SimPoints {
        interval_ops,
        k: 8,
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

fn do_sampling(o: &Opts) {
    header(
        "Sampled simulation — exact vs SimPoint-weighted execution",
        "representative-interval sampling with statistical error bounds",
    );
    // The study always runs both sides itself (uncached, so wall times
    // are honest): exact as ground truth, sampled in the CLI's mode (or
    // a budget-scaled default when the CLI mode is exact/absent).
    let mode = o
        .sampling
        .filter(|m| !m.is_exact())
        .unwrap_or_else(|| default_sampling_mode(o.ops));
    let cfg = CoreConfig::power10();
    let suite = suite();
    let benches = &suite[7..10];
    println!("mode: {}  ops/workload: {}", mode.describe(), o.ops);
    // Cross-workload fast-forward geometry: the study mode's interval and
    // cluster budget, or the budget-scaled default's.
    let (xi, xk) = match mode {
        SamplingMode::SimPoints {
            interval_ops, k, ..
        } => (interval_ops, k),
        _ => match default_sampling_mode(o.ops) {
            SamplingMode::SimPoints {
                interval_ops, k, ..
            } => (interval_ops, k),
            _ => unreachable!("default mode is simpoints"),
        },
    };
    // Target-bound auto-tuning demo: instead of fixing K, grow it until
    // the reported error bound meets a target. Later rounds reuse the
    // warm checkpoints and cached interval measurements earlier rounds
    // (and the study run of the same workload) persisted, so each round
    // only pays for its newly measured intervals. Skipped when the CLI
    // already asked for bound mode — the main table covered it then.
    let bound_target = (!matches!(mode, SamplingMode::Bound { .. }))
        .then(|| SamplingMode::parse("bound:5").expect("static mode"));
    let store = sampling::CkptStore::process_default();

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
    let outs = runner::run_jobs_par(&jobs, |_, job| match *job {
        StudyJob::Study { bench, bound } => {
            let t0 = std::time::Instant::now();
            let exact = scenario::run_benchmark(&cfg, bench, 42, o.ops);
            let exact_s = t0.elapsed().as_secs_f64();
            let t1 = std::time::Instant::now();
            let sampled = sampling::run_benchmark_sampled(&cfg, bench, 42, o.ops, &mode);
            let sampled_s = t1.elapsed().as_secs_f64();
            let bound = bound.map(|target| {
                let t2 = std::time::Instant::now();
                let s = sampling::run_benchmark_sampled(&cfg, bench, 42, o.ops, &target);
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
            &cfg, bench, 42, o.ops, xi, xk, store,
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
        if !o.json {
            println!(
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
            );
            println!(
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
            );
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let mean_speedup = speedup_sum / rows.len() as f64;
    if !o.json {
        println!(
            "error bound check: {}  mean speedup {:.1}x",
            if all_ok { "OK" } else { "VIOLATED" },
            mean_speedup
        );
    }

    let bound = runs[0].bound.as_ref().map(|(s, wall)| {
        let b = &benches[0];
        let wall = *wall;
        sampling::record_obs(&s.stats);
        let (exact_cpi, exact_power, exact_s) =
            (runs[0].exact_cpi, runs[0].exact_power, runs[0].exact_s);
        let cpi_err = (s.stats.cpi_est - exact_cpi).abs() / exact_cpi.max(1e-12);
        let power_err = (s.stats.power_est - exact_power).abs() / exact_power.max(1e-12);
        if !o.json {
            println!(
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
            );
        }
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
        let s = sampling::run_benchmark_predicted(&cfg, b, 42, o.ops, xi, &model, store);
        sampling::record_obs(&s.stats);
        let (exact_cpi, exact_power) = (runs[2].exact_cpi, runs[2].exact_power);
        let cpi_err = (s.stats.cpi_est - exact_cpi).abs() / exact_cpi.max(1e-12);
        let power_err = (s.stats.power_est - exact_power).abs() / exact_power.max(1e-12);
        if !o.json {
            println!(
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
            );
        }
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
    let ckpt = json!({
        "hits": store.ckpt_hits(),
        "misses": store.ckpt_misses(),
        "bytes": store.ckpt_bytes(),
        "warm_passes": store.warm_passes(),
    });
    if o.json {
        let payload = json!({
            "rows": rows,
            "bound": bound,
            "cross_workload": xw,
            "checkpoints": ckpt,
        });
        println!("{}", serde_json::to_string_pretty(&payload).expect("json"));
        return;
    }
    println!(
        "checkpoints: {} hit(s), {} miss(es), {} bytes, {} warm pass(es)",
        store.ckpt_hits(),
        store.ckpt_misses(),
        store.ckpt_bytes(),
        store.warm_passes()
    );
}

fn do_tracepoints(o: &Opts) {
    header(
        "Tracepoints vs Simpoints",
        "counter-histogram epochs beat BBVs on phased/interpreted code",
    );
    let w = p10_workloads::suite::phased_pointer_chase(2_000);
    let s = tracestudy::run_trace_study(&CoreConfig::power10(), &w, o.ops, 1_500, 3);
    if o.json {
        println!("{}", serde_json::to_string_pretty(&s).expect("json"));
        return;
    }
    println!(
        "full CPI {:.3} | simpoint est {:.3} (err {:.1}%) | tracepoint est {:.3} (err {:.1}%)",
        s.full_cpi,
        s.simpoint_cpi,
        s.simpoint_error * 100.0,
        s.tracepoint_cpi,
        s.tracepoint_error * 100.0
    );
}
