//! Regenerates every table and figure of the paper.
//!
//! Usage:
//! ```text
//! figures <experiment> [--json] [--ops N] [--out DIR] [--jobs N] [--no-cache] [--trace-out FILE] [--obs-json FILE] [--ledger-dir DIR] [--no-ledger] [--sampling MODE]
//! figures obsreport [--ledger-dir DIR] [--baseline SEL] [--gate PCT] [--min-s SECS]
//! ```
//! `<experiment>` is a name in `EXPERIMENTS`, `obsreport`, or `all` (the
//! default): every experiment marked for `all`, in table order. `dse`,
//! `profile` and `sampling` (whose wall-clock numbers vary run to run) run
//! on demand only, which keeps `all`'s stdout stable across additions.
//!
//! Each experiment is a `compute(engine, ops) -> T` and a
//! `render(&T, &mut Text)`. A driver receives the engine `main` builds
//! (worker pool, result cache, sampling mode, checkpoint store) and the
//! op budget, nothing else. `T` serialized is the `--json`
//! payload, which `--out DIR` also writes to `DIR/<exp>.json`; `fig6` and
//! `socket` print one document per model and `droop` one compact line.
//! The experiments marked cached keep `T` as one result-cache entry, keyed
//! by [`driver_key`], so a warm rerun simulates nothing. The committed
//! `tests/goldens/` hold `all`'s stdout, and a unit test renders every
//! `all` experiment from the golden payloads back to the golden text.
//!
//! `--jobs N` sets the worker-pool width (default: all CPUs); `--no-cache`
//! disables the on-disk result cache (`target/p10sim-cache`, override with
//! `P10SIM_CACHE_DIR`); see `p10_core::runner`. `--sampling MODE` is
//! `exact` (the default) or `bound:PCT` (grow the cluster count until the
//! error bound is at most PCT percent), see `p10_core::sampling`; an
//! experiment not marked sampled rejects it when run alone. Sampled runs
//! keep warm-state checkpoints under the cache (or `P10SIM_CKPT_DIR`).
//! `--trace-out FILE` writes the `p10_obs` event trace as a
//! Perfetto-loadable Chrome trace; `--obs-json FILE` writes the
//! end-of-run `[obs]` summary that stderr shows.
//!
//! Every run appends one `RunRecord` line to the run ledger
//! (`target/p10sim-ledger/` or `--ledger-dir`, none with `--no-ledger`;
//! see `p10_obs::ledger`). `obsreport` reads it
//! back: wall-time/cache/coverage trends of the latest run against a
//! baseline (`--baseline`; default the previous comparable run), and with
//! `--gate PCT` a non-zero exit when it regressed more than PCT percent
//! (deltas under `--min-s` seconds never gate). It takes only the flags
//! of its usage line, and no other experiment takes `--baseline`, `--gate`
//! or `--min-s`. Ledger, trace and obs-json output never
//! touch stdout: wall-clock data lives on stderr and in the ledger only.

#![forbid(unsafe_code)]

use p10_core::dse;
use p10_core::powerstudies::{
    build_dataset, build_datasets, run_fig10, run_fig11, run_fig12, run_fig15a, run_fig15b, Target,
};
use p10_core::runner::{self, Engine};
use p10_core::sampling::{self, SamplingMode};
use p10_core::{ablation, flush, gemm, inference, rasstudy, scenario, socket, table1, tracestudy};
use p10_kernels::models::{bert_large, resnet50};
use p10_powermgmt::throttle::{demand_from_power, simulate_droop, DroopSensor, PdnModel};
use p10_powermgmt::wof;
use p10_uarch::CoreConfig;
use p10_workloads::microbench::derating_grid;
use p10_workloads::suite::extended_groups;
use p10_workloads::{chopstix, specint_like, Benchmark};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The default op budget per workload (`--ops`).
const FULL_OPS: u64 = 60_000;
/// The smallest `--ops` budget: below it the `fig12` and `fig15b` fits get
/// too few windows and sampled SMT points get empty threads.
const MIN_OPS: u64 = 100;

/// An experiment: its name; its driver, which renders into the text and
/// returns the `--json` payload; whether `all` runs it, whether it runs
/// engine benchmark points (and so honours `--sampling`), and whether its
/// result is one result-cache entry, keyed by [`driver_key`]; and its
/// header.
type Experiment = (&'static str, Driver, bool, bool, bool, Head);

type Driver = fn(&Run<'_>, &mut Text) -> String;

/// An experiment header's title and paper reference.
type Head = (&'static str, &'static str);

/// Every experiment, in the order `all` runs them. Each driver joins a
/// `compute(engine, ops) -> T` and a `render(&T, &mut Text)` through
/// [`Run::run`].
#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 25] = [
    ("table1", |x, r| x.run(pretty, compute_table1, render_table1, r), true, true, false,
        ("Table I — chip features & efficiency projections", "2.6x core perf/W, up to 3x socket")),
    ("fig2", |x, r| x.run(pretty, compute_fig2, render_fig2, r), true, false, false,
        ("Fig. 2 — optimal pipeline depth", "optimum stable at 27 FO4 for 0.5x-1.0x power targets")),
    ("fig4", |x, r| x.run(pretty, compute_fig4, render_fig4, r), true, true, false,
        ("Fig. 4 — per-design-change performance gains", "SMT8 SPECint: branch 4%, lat+BW 10%, L2 9%, decode+VSX 5%, queues 4%")),
    ("fig5", |x, r| x.run(pretty, gemm::run_fig5, render_fig5, r), true, false, true,
        ("Fig. 5 — DGEMM flops/cycle & core power", "P10 VSU 1.95x @ -32.2%; P10 MMA 5.47x @ -24.1%; 62.1%/87.1% of peak")),
    ("fig6", |x, r| x.run(per_item, compute_fig6, render_fig6, r), true, false, false,
        ("Fig. 6 — end-to-end inference", "ResNet-50: 2.25x/3.55x; BERT-Large: 2.08x/3.64x (no-MMA/MMA)")),
    ("socket", |x, r| x.run(per_item, compute_socket, render_socket, r), true, false, false,
        ("Socket-level AI projections", "up to 10x FP32 and 21x INT8 over POWER9")),
    ("fig10", |x, r| x.run(pretty, compute_fig10, render_fig10, r), true, false, true,
        ("Fig. 10 — core-model vs chip-model power/IPC scatter", "memory-bound simpoints diverge between models")),
    ("fig11", |x, r| x.run(pretty, compute_fig11, render_fig11, r), true, false, true,
        ("Fig. 11 — M1-linked power model error vs #inputs", "error falls with inputs; <2.5% active at max inputs")),
    ("fig12", |x, r| x.run(pretty, compute_fig12, render_fig12, r), true, false, true,
        ("Fig. 12 — top-down vs bottom-up power models", "models differ by 3.42% on average; 72 events total bottom-up")),
    ("fig13", |x, r| x.run(pretty, compute_fig13, render_fig13, r), true, false, true,
        ("Fig. 13 — derating per testcase", "VT=10% leaves ~25% vulnerable; VT=90% ~52%")),
    ("fig14", |x, r| x.run(pretty, compute_fig14, render_fig14, r), true, false, true,
        ("Fig. 14 — POWER9 vs POWER10 derating vs VT", "P10 runtime derating higher (6%→21% gap); static ~10% lower")),
    ("fig15a", |x, r| x.run(pretty, compute_fig15a, render_fig15a, r), true, false, true,
        ("Fig. 15(a) — power-proxy error vs #counters", "16 counters → 9.8% active-power error (<5% incl. static)")),
    ("fig15b", |x, r| x.run(pretty, compute_fig15b, render_fig15b, r), true, false, true,
        ("Fig. 15(b) — proxy error vs time granularity", "predicting every >=50 cycles is near-best; finer degrades fast")),
    ("flushes", |x, r| x.run(pretty, compute_flushes, render_flushes, r), true, false, true,
        ("Flush study — wasted instructions", "-25% SPECint, -38% interpreted/analytics")),
    ("coverage", |x, r| x.run(pretty, compute_coverage, render_coverage, r), true, false, true,
        ("Proxy coverage — Chopstix top-10 hot functions", "coverage 41% (gcc) to 99% (xz), ~70% average")),
    ("apex-speedup", |x, r| x.run(pretty, compute_apex_speedup, render_apex_speedup, r), true, false, false,
        ("APEX speedup — detailed vs counter-based extraction", "~5000x on AWAN hardware; software analog shows the asymmetry")),
    ("wof", |x, r| x.run(pretty, compute_wof, render_wof, r), true, true, false,
        ("WOF — workload-optimized frequency", "light workloads boost under the envelope; MMA gating reclaims leakage")),
    ("tracepoints", |x, r| x.run(pretty, compute_tracepoints, render_tracepoints, r), true, false, true,
        ("Tracepoints vs Simpoints", "counter-histogram epochs beat BBVs on phased/interpreted code")),
    ("sensitivity", |x, r| x.run(pretty, compute_sensitivity, render_sensitivity, r), true, true, false,
        ("Design-choice sensitivity", "SS II-B mechanisms toggled off one at a time on POWER10")),
    ("smt", |x, r| x.run(pretty, compute_smt, render_smt, r), true, true, false,
        ("SMT throughput scaling", "Table I: 8-way SMT per core; deeper P10 queues sustain threads")),
    ("tracking", |x, r| x.run(pretty, compute_tracking, render_tracking, r), true, false, true,
        ("SS III-B tracked metrics", "IPC, core power, efficiency, latches, % clock enabled, switching")),
    ("droop", |x, r| x.run(compact, compute_droop, render_droop, r), true, false, true,
        ("Workload-transition droop", "SS IV-B: sudden workload change droops the rail; the DDS clips it")),
    ("dse", |x, r| x.run(pretty, compute_dse, render_dse, r), false, true, false,
        ("DSE — perf/watt Pareto frontier over the design space", "2.6x core perf/W: locate the POWER9 -> POWER10 jump on the frontier")),
    ("profile", |x, r| x.run(pretty, compute_profile, render_profile, r), false, true, false,
        ("Cycle-attribution profile", "SS III methodology turned on the simulator itself: where cycles go")),
    ("sampling", |x, r| x.run(pretty, compute_sampling, render_sampling, r), false, true, false,
        ("Sampled simulation — exact vs SimPoint-weighted execution", "representative-interval sampling with statistical error bounds")),
];

/// The human-readable form of an experiment: a header, which the `--json`
/// form prints too, and the body.
struct Text {
    head: String,
    body: String,
}

impl Text {
    fn new(title: &str, paper: &str) -> Self {
        Text {
            head: format!("\n=== {title} ===\n    paper reference: {paper}\n"),
            body: String::new(),
        }
    }

    /// Appends one line to the body.
    fn line(&mut self, line: String) {
        self.body += &line;
        self.body.push('\n');
    }
}

/// A `--json` payload: the result as one pretty-printed document.
fn pretty(value: &serde_json::Value) -> String {
    format!("{}\n", serde_json::to_string_pretty(value).expect("json"))
}

/// A `--json` payload: one pretty document per element of a list result
/// (`fig6`, `socket`: one per model).
fn per_item(list: &serde_json::Value) -> String {
    let items = list.as_array().expect("a list result");
    items.iter().map(pretty).collect()
}

/// A `--json` payload: the result as one compact line (`droop`).
fn compact(value: &serde_json::Value) -> String {
    format!("{value}\n")
}

/// Where a driver's result comes from.
enum Run<'a> {
    /// Computed on the engine for the experiment name at the op budget,
    /// through the engine's result cache when the flag is set.
    Compute(&'a Engine, &'static str, u64, bool),
    /// The result a payload printed.
    #[cfg(test)]
    Replay(serde_json::Value),
}

impl Run<'_> {
    /// Renders the typed result into `text` and returns its `--json`
    /// payload (`--out` writes exactly the payload). `T` is what the result
    /// cache stores.
    fn run<T: Clone + Serialize + Deserialize + Send + Sync + 'static>(
        &self,
        payload: fn(&serde_json::Value) -> String,
        compute: fn(&Engine, u64) -> T,
        render: fn(&T, &mut Text),
        text: &mut Text,
    ) -> String {
        let result = match *self {
            Run::Compute(engine, name, ops, true) => {
                engine.cached(name, &driver_key(name, ops), || compute(engine, ops))
            }
            Run::Compute(engine, _, ops, false) => compute(engine, ops),
            #[cfg(test)]
            Run::Replay(ref value) => serde_json::from_value(value).expect("payload holds T"),
        };
        render(&result, text);
        payload(&serde_json::to_value(&result).expect("result serializes"))
    }
}

/// The result-cache key of a cached experiment: its name, the op budget
/// (the only argument a driver receives) and [`preset_digest`].
fn driver_key(name: &str, ops: u64) -> String {
    format!("{name}|{ops}|{:016x}", preset_digest())
}

/// `tracepoints`' phased pointer chase: nodes per phase.
const PHASE_NODES: u64 = 2_000;

/// What every cached result depends on besides its name and op budget:
/// this file's source, so an edit to any driver constant rekeys every
/// entry, and the presets the library calls build inside themselves.
/// Computed once per process.
fn preset_digest() -> u64 {
    static DIGEST: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *DIGEST.get_or_init(|| {
        let mut smt2 = CoreConfig::power10();
        smt2.smt = p10_uarch::SmtMode::Smt2;
        let presets = serde_json::json!([
            CoreConfig::power9(),
            CoreConfig::power10(),
            p10_apex::core_model(smt2.clone()),
            p10_apex::chip_model(smt2),
            specint_like(),
            extended_groups(),
            derating_grid(),
            p10_workloads::suite::phased_pointer_chase(PHASE_NODES).content_hash(),
            PdnModel::default(),
            DroopSensor::default(),
        ]);
        let source = include_str!("figures.rs");
        runner::fnv1a64(format!("{source}{presets}").as_bytes())
    })
}

struct Opts {
    json: bool,
    ops: u64,
    out: Option<PathBuf>,
    jobs: usize,
    no_cache: bool,
    trace_out: Option<PathBuf>,
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
        "usage: figures <experiment> [--json] [--ops N] [--out DIR] [--jobs N] [--no-cache] [--trace-out FILE] [--obs-json FILE] [--ledger-dir DIR] [--no-ledger] [--sampling MODE]"
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
    } else if opts.ops < MIN_OPS {
        usage_error(&format!("--ops must be at least {MIN_OPS}"));
    }
    let ignores_sampling = EXPERIMENTS
        .iter()
        .any(|&(name, _, _, sampled, ..)| name == what && !sampled);
    if !opts.sampling.is_exact() && ignores_sampling {
        let sampled: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|&&(_, _, _, sampled, ..)| sampled)
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
fn build_engine(opts: &Opts) -> Engine {
    let disk_cache = (!opts.no_cache).then(|| {
        std::env::var_os("P10SIM_CACHE_DIR")
            .map_or_else(|| Path::new("target").join("p10sim-cache"), PathBuf::from)
    });
    let ckpt_dir = std::env::var("P10SIM_CKPT_DIR")
        .ok()
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
        .or_else(|| disk_cache.as_ref().map(|d| d.join("warm")));
    Engine::new(runner::EngineConfig {
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
    p10_obs::init(opts.trace_out.clone());
    p10_obs::set_thread_name("main");

    let sampling_key = opts.sampling.describe();
    if !opts.sampling.is_exact() {
        eprintln!("[figures] sampled execution: {sampling_key}");
    }

    // Every experiment driver runs on this one engine: a worker pool plus
    // in-process memo and (unless --no-cache) the on-disk result cache,
    // in the --sampling mode.
    let engine = build_engine(&opts);
    let eng_cfg = engine.config();
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
        .filter(|&&(name, _, in_all, ..)| if what == "all" { in_all } else { name == what })
        .collect();

    for &&(e, driver, _, _, cached, (title, paper)) in &experiments {
        let sp = p10_obs::span(e);
        let mut text = Text::new(title, paper);
        let payload = driver(&Run::Compute(&engine, e, opts.ops, cached), &mut text);
        let secs = sp.finish();
        let body = if opts.json { &payload } else { &text.body };
        print!("{}{body}", text.head);
        eprintln!("[figures] {e}: {secs:.2}s");
        if let Some(dir) = &opts.out {
            let path = dir.join(format!("{e}.json"));
            if let Err(err) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &payload))
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

    // Last: the Chrome trace buffers in memory and is written here.
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
    let (runs, skipped) = match ledger::read(&dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot read ledger {}: {e}", dir.display());
            return 1;
        }
    };
    let (n, dir_text) = (runs.len(), dir.display());
    println!("=== obsreport: {dir_text} ({n} runs, {skipped} unreadable lines) ===");
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

fn compute_table1(engine: &Engine, ops: u64) -> table1::Table1 {
    table1::run_table1(engine, &specint_like(), 42, ops)
}

fn render_table1(t: &table1::Table1, r: &mut Text) {
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
}

fn compute_fig2(_: &Engine, _: u64) -> p10_pipedepth::Fig2 {
    p10_pipedepth::run_fig2(&p10_pipedepth::DepthParams::default(), &[0.25])
}

fn render_fig2(f: &p10_pipedepth::Fig2, r: &mut Text) {
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
}

fn compute_fig4(engine: &Engine, ops: u64) -> ablation::Fig4 {
    ablation::run_fig4(engine, &specint_like(), 42, ops / 2)
}

fn render_fig4(f: &ablation::Fig4, r: &mut Text) {
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
}

fn render_fig5(f: &gemm::Fig5, r: &mut Text) {
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
}

/// Fig. 6 for one model, through the engine cache (the socket experiment
/// needs the same runs, and warm re-runs skip them entirely).
fn fig6_cached(
    engine: &Engine,
    model: &p10_kernels::models::ModelGraph,
    kernel_ops: u64,
) -> inference::Fig6Model {
    engine.cached(
        &format!("fig6 {} ops={kernel_ops}", model.name),
        &format!(
            "fig6|{}|{kernel_ops}",
            serde_json::to_string(model).expect("model serializes")
        ),
        || inference::run_fig6(model, kernel_ops),
    )
}

fn compute_fig6(engine: &Engine, ops: u64) -> Vec<inference::Fig6Model> {
    let models = [resnet50(100), bert_large(8, 384)];
    engine.run_jobs_par(&models, |_, m| fig6_cached(engine, m, ops / 2))
}

fn render_fig6(figs: &Vec<inference::Fig6Model>, r: &mut Text) {
    for f in figs {
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
}

fn compute_socket(engine: &Engine, ops: u64) -> Vec<socket::SocketProjection> {
    let p10 = CoreConfig::power10();
    let models = [resnet50(100), bert_large(8, 384)];
    engine.run_jobs_par(&models, |_, model| {
        let f = fig6_cached(engine, model, ops / 2);
        let int8: inference::InferenceRun = engine.cached(
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
    })
}

fn render_socket(projections: &Vec<socket::SocketProjection>, r: &mut Text) {
    for p in projections {
        r.line(format!(
            "{:<12} core {:.2}x  socket FP32 {:.1}x (paper up to 10x)  INT8 {:.1}x (paper up to 21x)",
            p.model, p.core_speedup, p.fp32_socket_speedup, p.int8_socket_speedup
        ));
    }
}

/// Fig. 10: four snippets of each suite member at a tenth of the budget;
/// `fig10_snippet` runs SMT2 POWER10 as the core and the chip model.
fn compute_fig10(engine: &Engine, ops: u64) -> Vec<p10_apex::Fig10Point> {
    run_fig10(engine, &specint_like(), 4, ops / 10)
}

fn render_fig10(pts: &Vec<p10_apex::Fig10Point>, r: &mut Text) {
    r.line(format!(
        "{:<14} {:>4} {:>6} {:>8} {:>10}",
        "bench", "snip", "model", "IPC", "core power"
    ));
    for p in pts {
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
}

/// The Fig. 11 and 15(a) dataset: windowed POWER10 runs of the suite at
/// seeds 1 and 2, half the op budget each, in 512-cycle windows, fitted to
/// active power.
fn fig11_dataset(engine: &Engine, ops: u64) -> p10_powermodel::Dataset {
    let cfg = CoreConfig::power10();
    build_dataset(
        engine,
        &cfg,
        &specint_like(),
        &[1, 2],
        ops / 2,
        512,
        Target::ActivePower,
    )
}

fn compute_fig11(engine: &Engine, ops: u64) -> Vec<p10_core::powerstudies::Fig11Curve> {
    let data = engine.timed("fig11 dataset", || fig11_dataset(engine, ops));
    engine.timed("fig11 regression", || run_fig11(&data, 12))
}

fn render_fig11(curves: &Vec<p10_core::powerstudies::Fig11Curve>, r: &mut Text) {
    for c in curves {
        r.line(format!("-- {} --", c.label));
        for p in &c.points {
            r.line(format!(
                "  inputs {:>2}: test err {:>6.2}%  train err {:>6.2}%",
                p.inputs, p.test_error_pct, p.train_error_pct
            ));
        }
    }
}

fn compute_fig12(engine: &Engine, ops: u64) -> p10_core::powerstudies::Fig12 {
    // One windowed-run pass feeds all 40 targets (total + 39 components).
    let targets: Vec<Target> = std::iter::once(Target::TotalPower)
        .chain((0..39).map(Target::Component))
        .collect();
    let cfg = CoreConfig::power10();
    let mut datasets = build_datasets(
        engine,
        &cfg,
        &specint_like()[..6],
        &[1],
        ops / 3,
        512,
        &targets,
    );
    let total = datasets.remove(0);
    run_fig12(&total, &datasets, 12, 3)
}

fn render_fig12(f: &p10_core::powerstudies::Fig12, r: &mut Text) {
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
}

fn compute_fig13(engine: &Engine, ops: u64) -> rasstudy::Fig13 {
    rasstudy::run_fig13(engine, &CoreConfig::power10(), ops / 6, 3)
}

fn render_fig13(f: &rasstudy::Fig13, r: &mut Text) {
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
}

fn compute_fig14(engine: &Engine, ops: u64) -> rasstudy::Fig14 {
    rasstudy::run_fig14(engine, ops / 6, &[0.1, 0.3, 0.5, 0.7, 0.9])
}

fn render_fig14(f: &rasstudy::Fig14, r: &mut Text) {
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
}

fn compute_fig15a(engine: &Engine, ops: u64) -> Vec<p10_powermodel::SweepPoint> {
    run_fig15a(&fig11_dataset(engine, ops), 16)
}

fn render_fig15a(sweep: &Vec<p10_powermodel::SweepPoint>, r: &mut Text) {
    for p in sweep {
        r.line(format!(
            "  counters {:>2}: active-power err {:>6.2}%",
            p.inputs, p.test_error_pct
        ));
    }
}

fn compute_fig15b(_: &Engine, ops: u64) -> Vec<p10_core::powerstudies::GranularityPoint> {
    let windows = [8, 16, 32, 64, 128, 256, 512];
    run_fig15b(
        &CoreConfig::power10(),
        &specint_like()[8],
        ops / 2,
        &windows,
        8,
        0.35,
    )
}

fn render_fig15b(pts: &Vec<p10_core::powerstudies::GranularityPoint>, r: &mut Text) {
    for p in pts {
        r.line(format!(
            "  window {:>4} cycles: err {:>6.2}%",
            p.window_cycles, p.error_pct
        ));
    }
}

fn compute_flushes(engine: &Engine, ops: u64) -> flush::FlushStudy {
    flush::run_flush_study(engine, 42, ops / 2)
}

fn render_flushes(s: &flush::FlushStudy, r: &mut Text) {
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
}

fn compute_coverage(engine: &Engine, ops: u64) -> Vec<chopstix::CoverageRow> {
    // Each job builds its own workload (extraction needs the program and
    // image), so only the pool's in-flight workloads are resident.
    engine.run_jobs_par(&specint_like(), |_, b| {
        chopstix::coverage_row(b.workload(23), ops, 10)
    })
}

fn render_coverage(rows: &Vec<chopstix::CoverageRow>, r: &mut Text) {
    let mut sum = 0.0;
    for row in rows {
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
}

/// What `apex-speedup` prints; its wall-clock numbers go to stderr only.
#[derive(Clone, Serialize, Deserialize)]
struct ApexSpeedup {
    cycles: u64,
    windows: u64,
}

fn compute_apex_speedup(_: &Engine, ops: u64) -> ApexSpeedup {
    let b = &specint_like()[8];
    let t = b.trace_view_or_panic(5, ops / 2);
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
    ApexSpeedup {
        cycles: s.cycles,
        windows: s.windows,
    }
}

fn render_apex_speedup(s: &ApexSpeedup, r: &mut Text) {
    r.line(format!(
        "APEX extracted {} counter windows over {} cycles (detailed run reads every cycle)",
        s.windows, s.cycles
    ));
}

fn compute_profile(engine: &Engine, ops: u64) -> Vec<p10_core::cycleprof::ProfileRow> {
    let configs = [CoreConfig::power9(), CoreConfig::power10()];
    p10_core::cycleprof::run_profile(engine, &configs, &specint_like(), 42, ops)
}

fn render_profile(rows: &Vec<p10_core::cycleprof::ProfileRow>, r: &mut Text) {
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
    for row in rows {
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
}

/// One workload's WOF operating point.
#[derive(Clone, Serialize, Deserialize)]
struct WofRow {
    workload: String,
    ceff: f64,
    freq_ghz: f64,
    boost: f64,
    freq_with_mma_gated: f64,
}

fn compute_wof(engine: &Engine, ops: u64) -> Vec<WofRow> {
    // Effective capacitance ratios from measured suite dynamic power.
    let results = engine.run_suite(&CoreConfig::power10(), &specint_like(), 42, ops / 3);
    let ref_power = results
        .results
        .iter()
        .map(|res| res.power.active())
        .fold(0.0f64, f64::max);
    let wcfg = wof::WofConfig::typical();
    let row = |res: &scenario::ScenarioResult| {
        let ceff = wof::ceff_ratio(res.power.active(), ref_power);
        let d = wof::solve(&wcfg, ceff, 0.0);
        WofRow {
            workload: res.workload.clone(),
            ceff,
            freq_ghz: d.point.freq,
            boost: d.boost,
            freq_with_mma_gated: wof::solve(&wcfg, ceff, 2.0).point.freq,
        }
    };
    results.results.iter().map(row).collect()
}

fn render_wof(rows: &Vec<WofRow>, r: &mut Text) {
    for w in rows {
        r.line(format!(
            "{:<16} Ceff {:>5.2}  f = {:.2} GHz (boost {:>5.2}x), {:.2} GHz with MMA gated",
            w.workload, w.ceff, w.freq_ghz, w.boost, w.freq_with_mma_gated
        ));
    }
}

fn compute_sensitivity(engine: &Engine, ops: u64) -> Vec<p10_core::sensitivity::SensitivityRow> {
    p10_core::sensitivity::run_sensitivity(engine, &specint_like(), 42, ops / 2)
}

fn render_sensitivity(rows: &Vec<p10_core::sensitivity::SensitivityRow>, r: &mut Text) {
    r.line(format!(
        "{:<26} {:>10} {:>10} {:>12}",
        "mechanism", "perf", "power", "energy/inst"
    ));
    for row in rows {
        r.line(format!(
            "{:<26} {:>+9.1}% {:>+9.1}% {:>+11.1}%",
            row.label,
            row.perf_benefit * 100.0,
            row.power_benefit * 100.0,
            row.efficiency_benefit * 100.0
        ));
    }
}

fn compute_smt(engine: &Engine, ops: u64) -> p10_core::smtscale::SmtScaling {
    let suite = specint_like();
    let sel: Vec<_> = [8usize, 2, 7, 0]
        .iter()
        .map(|&i| suite[i].clone())
        .collect();
    p10_core::smtscale::run_smt_scaling(engine, &sel, 42, ops / 4)
}

fn render_smt(s: &p10_core::smtscale::SmtScaling, r: &mut Text) {
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
}

fn compute_tracking(engine: &Engine, ops: u64) -> Vec<p10_core::tracking::TrackingRow> {
    let cfgs = [CoreConfig::power9(), CoreConfig::power10()];
    p10_core::tracking::track(engine, &cfgs, &specint_like()[..4], 42, ops / 6)
}

fn render_tracking(rows: &Vec<p10_core::tracking::TrackingRow>, r: &mut Text) {
    r.line(format!(
        "{:<10} {:>6} {:>10} {:>11} {:>10} {:>9} {:>10} {:>9}",
        "machine", "IPC", "core pwr", "efficiency", "latches", "clk-en%", "potential", "obs/pot"
    ));
    for row in rows {
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
}

/// The workload-transition droop result.
#[derive(Clone, Serialize, Deserialize)]
struct Droop {
    max_droop_unprotected: f64,
    max_droop_with_dds: f64,
    engagements: u32,
    windows: usize,
}

fn compute_droop(_: &Engine, ops: u64) -> Droop {
    let (cfg, window, max_cycles) = (CoreConfig::power10(), 256, 10_000_000);
    // Real transition: idle-ish scalar loop into the MMA DGEMM kernel.
    let scalar = specint_like()[8].trace_view_or_panic(3, ops / 8);
    let kernel = p10_kernels::gemm::dgemm_mma(1 << 40).trace_view_or_panic(ops / 4);
    // The kernel workload uses its own memory image; for the droop
    // demand we only need the power series, so run the two phases
    // separately.
    let model = p10_power::PowerModel::for_config(&cfg);
    let phase_power = |trace: p10_isa::TraceView| -> Vec<f64> {
        let report = p10_apex::run_apex(&cfg, vec![trace], window, max_cycles);
        report
            .windows
            .iter()
            .map(|w| model.evaluate(&w.activity).core_total())
            .collect()
    };
    let mut powers = phase_power(scalar);
    let p_ref = powers.iter().copied().fold(0.0f64, f64::max).max(1.0);
    powers.extend(phase_power(kernel));
    let demand = demand_from_power(&powers, p_ref);
    let pdn = PdnModel::default();
    let free = simulate_droop(&pdn, None, &demand);
    let protected = simulate_droop(&pdn, Some(&DroopSensor::default()), &demand);
    Droop {
        max_droop_unprotected: free.max_droop,
        max_droop_with_dds: protected.max_droop,
        engagements: protected.engagements,
        windows: demand.len(),
    }
}

fn render_droop(d: &Droop, r: &mut Text) {
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
}

fn compute_dse(engine: &Engine, ops: u64) -> dse::DseResult {
    // Recordings and shard results are engine result-cache entries, so a
    // killed sweep resumes from the disk cache.
    let cfg = dse::DseConfig::new(42, ops);
    let sp = p10_obs::span("dse.sweep");
    let outcome = dse::run_dse(engine, &dse::default_grid(), &dse::default_suite(), &cfg);
    let wall = sp.finish();
    let s = outcome.result.stats;
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
    outcome.result
}

fn render_dse(res: &dse::DseResult, r: &mut Text) {
    let s = res.stats;
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
    r.body.push_str(&dse::frontier_markdown(res));
    let paper: Vec<&dse::DsePointResult> = res.points.iter().filter(|p| p.paper).collect();
    r.body.push('\n');
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

/// What one study job measured: its row, the bound demo's when the job
/// ran it, and the statistics of each for `[obs]`.
enum StudyOut {
    Study(Box<(StudyRow, Option<BoundRow>, Vec<sampling::SamplingStats>)>),
    Train(Vec<sampling::TrainingRow>),
}

/// The sampling study. Its payload omits the `#[serde(skip)]` fields,
/// which only the text prints.
#[derive(Clone, Serialize, Deserialize)]
struct SamplingStudy {
    #[serde(skip)]
    mode: String,
    #[serde(skip)]
    ops: u64,
    rows: Vec<StudyRow>,
    bound: Option<BoundRow>,
    cross_workload: Option<CrossWorkloadRow>,
    checkpoints: Checkpoints,
}

/// Exact versus sampled on one study workload.
#[derive(Clone, Serialize, Deserialize)]
struct StudyRow {
    workload: String,
    mode: String,
    exact_cpi: f64,
    sampled_cpi: f64,
    cpi_rel_err: f64,
    cpi_bound_rel: f64,
    exact_core_power: f64,
    sampled_core_power: f64,
    power_rel_err: f64,
    power_bound_rel: f64,
    simulated_ops: u64,
    skipped_ops: u64,
    intervals: u64,
    clusters: u64,
    exact_s: f64,
    sampled_s: f64,
    speedup: f64,
    within_bound: bool,
}

/// The target-bound demo on the first study workload.
#[derive(Clone, Serialize, Deserialize)]
struct BoundRow {
    workload: String,
    mode: String,
    cpi_rel_err: f64,
    cpi_bound_rel: f64,
    power_rel_err: f64,
    power_bound_rel: f64,
    simulated_ops: u64,
    total_ops: u64,
    clusters: u64,
    #[serde(skip)]
    wall_s: f64,
}

/// The cross-workload prediction of the last study workload.
#[derive(Clone, Serialize, Deserialize)]
struct CrossWorkloadRow {
    workload: String,
    mode: String,
    training_rows: usize,
    cv_cpi_error_pct: f64,
    cv_power_error_pct: f64,
    cpi_rel_err: f64,
    power_rel_err: f64,
    #[serde(skip)]
    sampled_cpi: f64,
    #[serde(skip)]
    sampled_core_power: f64,
}

/// Warm-state checkpoint traffic across the whole study.
#[derive(Clone, Serialize, Deserialize)]
struct Checkpoints {
    hits: u64,
    misses: u64,
    bytes: u64,
    warm_passes: u64,
}

/// The relative errors of a sampled estimate's CPI and power.
fn rel_errs(stats: &sampling::SamplingStats, exact_cpi: f64, exact_power: f64) -> (f64, f64) {
    (
        (stats.cpi_est - exact_cpi).abs() / exact_cpi.max(1e-12),
        (stats.power_est - exact_power).abs() / exact_power.max(1e-12),
    )
}

fn compute_sampling(engine: &Engine, ops: u64) -> SamplingStudy {
    // The study always runs both sides itself (uncached, so wall times
    // are honest): exact as ground truth, sampled in the engine's mode
    // (or a budget-scaled default when the engine is exact).
    let mode = Some(engine.sampling())
        .filter(|m| !m.is_exact())
        .unwrap_or_else(|| default_sampling_mode(ops));
    let cfg = CoreConfig::power10();
    let suite = specint_like();
    let benches = &suite[7..10];
    // Cross-workload fast-forward geometry: the default interval and
    // cluster budget (bound mode, the only other study mode, has none).
    let (xi, xk) = (study_interval_ops(ops), STUDY_K);
    // Target-bound auto-tuning demo: instead of fixing K, grow it until
    // the reported error bound meets a target. Later rounds reuse the
    // warm checkpoints and interval measurements that earlier rounds (and
    // the study run of the same workload) left in the store, so each round
    // only pays for its newly measured intervals. Skipped when the CLI
    // already asked for bound mode — the main table covered it then.
    let bound_target = (!matches!(mode, SamplingMode::Bound { .. }))
        .then_some(SamplingMode::Bound { target_mpct: 5_000 });
    let store = engine.ckpt_store();

    // One flat job graph on the worker pool: a study job per workload
    // (the first, longest one chaining the bound demo), then a
    // training-row job per cross-workload training benchmark. Each job
    // owns one distinct trace, so no two jobs share a measurement key or
    // a warm class, and every counter is independent of `--jobs`.
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
            let sampled = sampling::run_benchmark_sampled(&cfg, bench, 42, ops, &mode, store);
            let sampled_s = t1.elapsed().as_secs_f64();
            let (exact_cpi, exact_power) = (exact.sim.cpi(), exact.core_power());
            let s = &sampled.stats;
            let (cpi_err, power_err) = rel_errs(s, exact_cpi, exact_power);
            let row = StudyRow {
                workload: bench.name.clone(),
                mode: s.mode.clone(),
                exact_cpi,
                sampled_cpi: s.cpi_est,
                cpi_rel_err: cpi_err,
                cpi_bound_rel: s.cpi_bound_rel,
                exact_core_power: exact_power,
                sampled_core_power: s.power_est,
                power_rel_err: power_err,
                power_bound_rel: s.power_bound_rel,
                simulated_ops: s.simulated_ops,
                skipped_ops: s.skipped_ops,
                intervals: s.intervals,
                clusters: s.clusters,
                exact_s,
                sampled_s,
                speedup: exact_s / sampled_s.max(1e-9),
                within_bound: cpi_err <= s.cpi_bound_rel && power_err <= s.power_bound_rel,
            };
            let bound = bound.map(|target| {
                let t2 = std::time::Instant::now();
                let s = sampling::run_benchmark_sampled(&cfg, bench, 42, ops, &target, store).stats;
                let wall_s = t2.elapsed().as_secs_f64();
                let (cpi_err, power_err) = rel_errs(&s, exact_cpi, exact_power);
                let row = BoundRow {
                    workload: bench.name.clone(),
                    mode: s.mode.clone(),
                    cpi_rel_err: cpi_err,
                    cpi_bound_rel: s.cpi_bound_rel,
                    power_rel_err: power_err,
                    power_bound_rel: s.power_bound_rel,
                    simulated_ops: s.simulated_ops,
                    total_ops: s.total_ops,
                    clusters: s.clusters,
                    wall_s,
                };
                (row, s)
            });
            let (bound, bound_stats) = bound.unzip();
            let stats = std::iter::once(sampled.stats).chain(bound_stats).collect();
            StudyOut::Study(Box::new((row, bound, stats)))
        }
        StudyJob::Train(bench) => StudyOut::Train(sampling::cross_workload_rows(
            &cfg, bench, 42, ops, xi, xk, store,
        )),
    });
    let (mut rows, mut bound, mut training_rows) = (Vec::new(), None, Vec::new());
    for out in outs {
        match out {
            StudyOut::Study(study) => {
                let (row, demo, stats) = *study;
                // `[obs]` gauges are last-write-wins, so the main thread
                // records, in job order.
                stats.iter().for_each(sampling::record_obs);
                rows.push(row);
                bound = bound.or(demo);
            }
            StudyOut::Train(more) => training_rows.extend(more),
        }
    }

    // Cross-workload fast-forward: fit interval-level CPI/power
    // predictors on the seven non-study workloads' measured intervals,
    // then estimate the last study workload from its functional-warming
    // features alone — one anchor interval simulated, everything else
    // predicted. Only the fit and this estimate run after the join.
    let cross_workload = sampling::fit_cross_workload(&training_rows, 4).map(|model| {
        let b = &benches[2];
        let s = sampling::run_benchmark_predicted(&cfg, b, 42, ops, xi, &model, store).stats;
        sampling::record_obs(&s);
        let (cpi_err, power_err) = rel_errs(&s, rows[2].exact_cpi, rows[2].exact_core_power);
        CrossWorkloadRow {
            workload: b.name.clone(),
            mode: s.mode,
            training_rows: model.training_rows,
            cv_cpi_error_pct: model.cv_cpi_error_pct(),
            cv_power_error_pct: model.cv_power_error_pct(),
            cpi_rel_err: cpi_err,
            power_rel_err: power_err,
            sampled_cpi: s.cpi_est,
            sampled_core_power: s.power_est,
        }
    });

    // Warm-state checkpoint traffic across all of the above. A cold run
    // reports misses and warm passes; a repeat run (same budget, shared
    // P10SIM_CKPT_DIR or disk cache) reports hits and zero warm passes.
    SamplingStudy {
        mode: mode.describe(),
        ops,
        rows,
        bound,
        cross_workload,
        checkpoints: Checkpoints {
            hits: store.ckpt_hits(),
            misses: store.ckpt_misses(),
            bytes: store.ckpt_bytes(),
            warm_passes: store.warm_passes(),
        },
    }
}

fn render_sampling(study: &SamplingStudy, r: &mut Text) {
    r.head += &format!("mode: {}  ops/workload: {}\n", study.mode, study.ops);
    for row in &study.rows {
        r.line(format!(
            "{:<16} CPI {:>6.3} -> {:>6.3} (err {:>4.1}% <= bound {:>4.1}%)  \
             power {:>6.1} -> {:>6.1} W (err {:>4.1}% <= bound {:>4.1}%)  {}",
            row.workload,
            row.exact_cpi,
            row.sampled_cpi,
            row.cpi_rel_err * 100.0,
            row.cpi_bound_rel * 100.0,
            row.exact_core_power,
            row.sampled_core_power,
            row.power_rel_err * 100.0,
            row.power_bound_rel * 100.0,
            if row.within_bound { "OK" } else { "VIOLATED" }
        ));
        r.line(format!(
            "{:<16} simulated {}/{} ops over {} intervals ({} clusters)  \
             wall {:.2}s -> {:.2}s  speedup {:.1}x",
            "",
            row.simulated_ops,
            row.simulated_ops + row.skipped_ops,
            row.intervals,
            row.clusters,
            row.exact_s,
            row.sampled_s,
            row.speedup
        ));
    }
    let all_ok = study.rows.iter().all(|row| row.within_bound);
    #[allow(clippy::cast_precision_loss)]
    let mean_speedup =
        study.rows.iter().map(|row| row.speedup).sum::<f64>() / study.rows.len() as f64;
    r.line(format!(
        "error bound check: {}  mean speedup {:.1}x",
        if all_ok { "OK" } else { "VIOLATED" },
        mean_speedup
    ));
    if let Some(b) = &study.bound {
        r.line(format!(
            "bound:5 on {:<12} -> {}  CPI err {:>4.1}% <= bound {:>4.1}%  \
             power err {:>4.1}% <= bound {:>4.1}%  simulated {}/{}  wall {:.2}s ({:.1}x)",
            b.workload,
            b.mode,
            b.cpi_rel_err * 100.0,
            b.cpi_bound_rel * 100.0,
            b.power_rel_err * 100.0,
            b.power_bound_rel * 100.0,
            b.simulated_ops,
            b.total_ops,
            b.wall_s,
            study.rows[0].exact_s / b.wall_s.max(1e-9)
        ));
    }
    if let Some(x) = &study.cross_workload {
        r.line(format!(
            "cross-workload ({} rows, cv cpi {:.1}% power {:.1}%) predicts {:<12} \
             CPI {:>6.3} (err {:>4.1}%)  power {:>6.1} W (err {:>4.1}%)  [{}]",
            x.training_rows,
            x.cv_cpi_error_pct,
            x.cv_power_error_pct,
            x.workload,
            x.sampled_cpi,
            x.cpi_rel_err * 100.0,
            x.sampled_core_power,
            x.power_rel_err * 100.0,
            x.mode
        ));
    }
    let c = &study.checkpoints;
    r.line(format!(
        "checkpoints: {} hit(s), {} miss(es), {} bytes, {} warm pass(es)",
        c.hits, c.misses, c.bytes, c.warm_passes
    ));
}

fn compute_tracepoints(engine: &Engine, ops: u64) -> tracestudy::TraceStudy {
    let w = p10_workloads::suite::phased_pointer_chase(PHASE_NODES);
    tracestudy::run_trace_study(engine, &CoreConfig::power10(), &w, ops, 1_500, 3)
}

fn render_tracepoints(s: &tracestudy::TraceStudy, r: &mut Text) {
    r.line(format!(
        "full CPI {:.3} | simpoint est {:.3} (err {:.1}%) | tracepoint est {:.3} (err {:.1}%)",
        s.full_cpi,
        s.simpoint_cpi,
        s.simpoint_error * 100.0,
        s.tracepoint_cpi,
        s.tracepoint_error * 100.0
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `figures all --ops 2000 --no-cache --no-ledger` stdout, as text and
    /// with `--json`.
    const TEXT: &str = include_str!("../../../../tests/goldens/all-2000.txt");
    const JSON: &str = include_str!("../../../../tests/goldens/all-2000.json");

    /// The value a payload printed: its one document, or the list of the
    /// documents `per_item` printed.
    fn parse(payload: &str) -> serde_json::Value {
        let doc = |d: &str| serde_json::parse(d).expect("payload parses");
        let mut docs: Vec<_> = payload.split_inclusive("\n}\n").map(doc).collect();
        if docs.len() == 1 {
            docs.remove(0)
        } else {
            serde_json::Value::Array(docs)
        }
    }

    #[test]
    fn every_experiment_renders_the_golden_text_from_the_golden_payload() {
        let all: Vec<&Experiment> = EXPERIMENTS.iter().filter(|e| e.2).collect();
        let sections: Vec<&str> = JSON.split("\n=== ").skip(1).collect();
        assert_eq!(
            sections.len(),
            all.len(),
            "one golden section per experiment"
        );
        let (mut text, mut json) = (String::new(), String::new());
        for (&&(name, driver, _, _, _, (title, paper)), section) in all.iter().zip(sections) {
            // Each section is the rest of the title line, the paper
            // reference line, then the payload.
            let payload = section.splitn(3, '\n').nth(2).expect(name);
            let mut rendered = Text::new(title, paper);
            let reprinted = driver(&Run::Replay(parse(payload)), &mut rendered);
            text += &format!("{}{}", rendered.head, rendered.body);
            json += &format!("{}{reprinted}", rendered.head);
        }
        assert!(text == TEXT, "rendered text differs from the golden");
        assert!(json == JSON, "reprinted payloads differ from the golden");
    }

    #[test]
    fn text_only_fields_stay_out_of_the_payload() {
        let x = CrossWorkloadRow {
            workload: "xzish".into(),
            mode: "xlearned:2500".into(),
            training_rows: 56,
            cv_cpi_error_pct: 3.1,
            cv_power_error_pct: 9.3,
            cpi_rel_err: 0.186,
            power_rel_err: 0.114,
            sampled_cpi: 0.587,
            sampled_core_power: 109.8,
        };
        let value = serde_json::to_value(&x).expect("serializes");
        let keys: Vec<&str> = value
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "workload",
                "mode",
                "training_rows",
                "cv_cpi_error_pct",
                "cv_power_error_pct",
                "cpi_rel_err",
                "power_rel_err"
            ]
        );
        let back: CrossWorkloadRow = serde_json::from_value(&value).expect("deserializes");
        assert_eq!(
            (
                back.training_rows,
                back.sampled_cpi,
                back.sampled_core_power
            ),
            (56, 0.0, 0.0)
        );
    }

    #[test]
    fn driver_keys_are_distinct_follow_ops_and_carry_the_preset_digest() {
        let digest = format!("|{:016x}", preset_digest());
        let cached: Vec<&str> = EXPERIMENTS.iter().filter(|e| e.4).map(|e| e.0).collect();
        assert_eq!(cached.len(), 13);
        // The key names no sampling mode, so it is sound only while no
        // experiment that runs sampled benchmark points is also cached.
        for e in EXPERIMENTS.iter().filter(|e| e.3) {
            assert!(!e.4, "{} is both sampled and cached", e.0);
        }
        let keys: std::collections::BTreeSet<String> =
            cached.iter().map(|name| driver_key(name, 2000)).collect();
        assert_eq!(keys.len(), cached.len(), "driver keys collide: {keys:?}");
        for name in cached {
            assert_ne!(driver_key(name, 2000), driver_key(name, 2001), "{name}");
            assert!(driver_key(name, 2000).ends_with(&digest), "{name}");
        }
    }
}
