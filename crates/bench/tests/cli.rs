//! CLI contract of the `figures` driver: bad input fails loudly instead
//! of silently running the wrong experiment or op budget.

use std::process::Command;

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = figures().args(args).output().expect("run figures");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{args:?} stderr must mention '{needle}', got: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?} stderr must show usage, got: {stderr}"
    );
}

#[test]
fn malformed_ops_fails_loudly() {
    assert_usage_error(&["table1", "--ops", "sixty-thousand"], "invalid --ops");
    assert_usage_error(&["table1", "--ops"], "--ops requires a value");
    assert_usage_error(&["table1", "--ops", "0"], "--ops must be positive");
}

#[test]
fn unknown_experiment_fails_loudly() {
    assert_usage_error(&["fig99"], "unknown experiment 'fig99'");
}

#[test]
fn unknown_flag_fails_loudly() {
    assert_usage_error(&["table1", "--opps", "60000"], "unknown flag '--opps'");
    assert_usage_error(
        &["table1", "--no-trace-arena"],
        "unknown flag '--no-trace-arena'",
    );
}

#[test]
fn malformed_jobs_fails_loudly() {
    assert_usage_error(&["table1", "--jobs", "many"], "invalid --jobs");
    assert_usage_error(&["table1", "--jobs", "0"], "--jobs must be positive");
}

#[test]
fn malformed_sampling_bound_fails_loudly() {
    // Every malformed bound spec must exit 2 with the usage text, never
    // fall back to a default target silently.
    for bad in [
        "bound",
        "bound:",
        "bound:abc",
        "bound:0",
        "bound:-3",
        "bound:101",
        "bound:nan",
        "bound:5:6",
        "simpoints:800:4",
    ] {
        assert_usage_error(
            &["table1", "--sampling", bad],
            &format!("bad sampling mode '{bad}'"),
        );
    }
    assert_usage_error(&["table1", "--sampling"], "--sampling requires a value");
}

/// The JSON payload printed after the human-readable header: everything
/// from the first '{'/'[' line to the end of stdout.
fn json_payload(stdout: &str) -> serde_json::Value {
    let start = stdout
        .lines()
        .scan(0usize, |off, line| {
            let this = *off;
            *off += line.len() + 1;
            Some((this, line))
        })
        .find(|(_, l)| l.starts_with('{') || l.starts_with('['))
        .map(|(off, _)| off)
        .expect("JSON payload on stdout");
    serde_json::from_str(&stdout[start..]).expect("payload parses as JSON")
}

/// An object field that must be an unsigned integer.
fn field_u64(v: &serde_json::Value, key: &str) -> u64 {
    match v.get(key) {
        Some(serde_json::Value::U64(n)) => *n,
        other => panic!("field {key} must be u64, got {other:?}"),
    }
}

#[test]
fn quick_experiment_runs_parallel_with_progress() {
    // fig2 is analytic (no core-model simulation), so it is fast even in
    // a test; the engine banner must appear on stderr and JSON on stdout.
    let out = figures()
        .args(["fig2", "--json", "--jobs", "2", "--no-cache"])
        .output()
        .expect("run figures");
    assert!(out.status.success(), "fig2 run failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2 worker(s)") && stderr.contains("disk cache off"),
        "engine banner missing: {stderr}"
    );
    assert!(
        stderr.contains("[figures] fig2:"),
        "per-experiment timing line missing: {stderr}"
    );
    assert!(
        stderr.contains("[obs] ---- run summary ----"),
        "end-of-run obs summary missing: {stderr}"
    );
    json_payload(&String::from_utf8_lossy(&out.stdout));
}

#[test]
fn apex_speedup_stdout_is_deterministic() {
    // Wall-clock timings moved to stderr/obs; two cold runs must print
    // byte-identical stdout (the cycles/windows line is simulation state).
    let run = || {
        let out = figures()
            .args(["apex-speedup", "--ops", "4000", "--no-cache"])
            .output()
            .expect("run figures");
        assert!(out.status.success(), "apex-speedup run failed: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("apex-speedup wall clock"),
            "wall-clock line must move to stderr"
        );
        out.stdout
    };
    let first = run();
    assert!(
        String::from_utf8_lossy(&first).contains("counter windows over"),
        "deterministic summary line missing: {}",
        String::from_utf8_lossy(&first)
    );
    assert_eq!(
        first,
        run(),
        "apex-speedup stdout must not vary between identical runs"
    );
}

#[test]
fn profile_reports_buckets_that_sum_to_cycles() {
    let out = figures()
        .args(["profile", "--json", "--ops", "2000", "--no-cache"])
        .output()
        .expect("run figures");
    assert!(out.status.success(), "profile run failed: {out:?}");
    let payload = json_payload(&String::from_utf8_lossy(&out.stdout));
    let rows = payload.as_array().expect("profile payload is an array");
    assert!(!rows.is_empty(), "profile must produce rows");
    for row in rows {
        let cycles = field_u64(row, "cycles");
        let attr = row
            .get("attribution")
            .and_then(serde_json::Value::as_object)
            .expect("attribution object");
        let total: u64 = attr
            .iter()
            .map(|(k, v)| match v {
                serde_json::Value::U64(n) => *n,
                other => panic!("bucket {k} must be u64, got {other:?}"),
            })
            .sum();
        assert_eq!(
            total, cycles,
            "attribution buckets must partition the cycles: {row:?}"
        );
    }
}

/// A unique scratch path under the system temp dir.
fn scratch(tag: &str, leaf: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static UNIQ: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "p10sim-cli-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d.join(leaf)
}

#[test]
fn chrome_trace_is_valid_and_tracks_workers() {
    let path = scratch("chrome", "trace.json");
    let out = figures()
        .args([
            "table1",
            "--json",
            "--ops",
            "800",
            "--jobs",
            "2",
            "--no-cache",
            "--no-ledger",
            "--trace-out",
        ])
        .arg(&path)
        .output()
        .expect("run figures");
    assert!(out.status.success(), "chrome-traced run failed: {out:?}");
    let text = std::fs::read_to_string(&path).expect("chrome trace written");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain events");

    let field_str = |v: &serde_json::Value, key: &str| -> String {
        match v.get(key) {
            Some(serde_json::Value::Str(s)) => s.clone(),
            other => panic!("field {key} must be a string, got {other:?}"),
        }
    };
    // Validity: every event on a (pid, tid) track, ts monotonic per track.
    let mut last_ts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut phases = Vec::new();
    let mut track_names = Vec::new();
    for e in events.iter() {
        let tid = field_u64(e, "tid");
        let ts = field_u64(e, "ts");
        let prev = last_ts.entry(tid).or_insert(0);
        assert!(*prev <= ts, "ts must be monotonic per track: {e:?}");
        *prev = ts;
        let ph = field_str(e, "ph");
        if ph == "X" && field_str(e, "name") == "table1" {
            phases.push(tid);
        }
        if ph == "M" {
            track_names.push(field_str(e.get("args").expect("metadata args"), "name"));
        }
    }
    assert_eq!(phases.len(), 1, "one table1 slice expected");
    for want in ["main", "worker00", "worker01"] {
        assert!(
            track_names.iter().any(|n| n == want),
            "track '{want}' missing from {track_names:?}"
        );
    }
    // Per-job slices carry the job category for Perfetto filtering.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.get("cat"), Some(serde_json::Value::Str(c)) if c == "job")),
        "job slices missing from trace"
    );
}

#[test]
fn ledger_records_runs_and_gate_passes_on_repeat() {
    let dir = scratch("ledger", "");
    let run = || {
        let out = figures()
            .args(["fig2", "--json", "--no-cache", "--ledger-dir"])
            .arg(&dir)
            .output()
            .expect("run figures");
        assert!(out.status.success(), "fig2 run failed: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("[figures] ledger: run"),
            "ledger append note missing from stderr"
        );
    };
    run();
    run();
    let text = std::fs::read_to_string(dir.join("ledger.jsonl")).expect("ledger written");
    let records: Vec<serde_json::Value> = text
        .lines()
        .map(|l| {
            let json = p10_obs::ledger::unframe(l)
                .unwrap_or_else(|| panic!("ledger line without its checksum: {l:?}"));
            serde_json::from_str(json).unwrap_or_else(|e| panic!("bad ledger line {l:?}: {e}"))
        })
        .collect();
    assert_eq!(records.len(), 2, "one record per run");
    for r in &records {
        assert_eq!(field_u64(r, "schema"), u64::from(p10_obs::ledger::SCHEMA));
        assert!(
            matches!(r.get("experiment"), Some(serde_json::Value::Str(s)) if s == "fig2"),
            "experiment field wrong: {r:?}"
        );
        assert!(r.get("machine").is_some() && r.get("summary").is_some());
    }
    // A repeat run at the same speed passes a generous gate.
    let report = figures()
        .args(["obsreport", "--gate", "10000", "--ledger-dir"])
        .arg(&dir)
        .output()
        .expect("run obsreport");
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert_eq!(
        report.status.code(),
        Some(0),
        "repeat run must pass the gate: {stdout}"
    );
    assert!(
        stdout.contains("gate: PASS"),
        "missing PASS verdict: {stdout}"
    );
}

/// Builds a synthetic ledger record with a given per-phase profile,
/// exercising the same `RunRecord` path `figures` uses.
fn synthetic_record(phases: &[(&str, f64)]) -> p10_obs::ledger::RunRecord {
    let summary = p10_obs::Summary {
        total_wall_s: phases.iter().map(|(_, w)| w).sum(),
        phases: phases
            .iter()
            .map(|&(name, wall_s)| p10_obs::PhaseSummary {
                name: name.into(),
                wall_s,
                calls: 1,
            })
            .collect(),
        ..p10_obs::Summary::default()
    };
    p10_obs::ledger::RunRecord::from_summary(
        &p10_obs::ledger::RunIdentity {
            experiment: "all".into(),
            config_text: "jobs=2".into(),
            workload_text: "all|ops=2000".into(),
            sampling_key: "exact".into(),
            ops: 2000,
            jobs: 2,
            started_unix_ms: 1_700_000_000_000,
        },
        summary,
    )
}

#[test]
fn obsreport_gate_fails_on_synthetically_slowed_run() {
    let dir = scratch("gate", "");
    let baseline = synthetic_record(&[("fig2", 0.5), ("fig4", 1.5)]);
    let slowed = synthetic_record(&[("fig2", 0.5), ("fig4", 4.5)]);
    p10_obs::ledger::append(&dir, &baseline).expect("append baseline");
    p10_obs::ledger::append(&dir, &slowed).expect("append slowed");
    let report = |gate: &str| {
        figures()
            .args(["obsreport", "--gate", gate, "--ledger-dir"])
            .arg(&dir)
            .output()
            .expect("run obsreport")
    };
    let out = report("50");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "slowed run must fail the gate: {stdout}"
    );
    assert!(
        stdout.contains("gate: FAIL"),
        "missing FAIL verdict: {stdout}"
    );
    assert!(
        stdout.contains("REGRESSION total") && stdout.contains("REGRESSION fig4"),
        "regressed phases must be named: {stdout}"
    );
    // Appending a recovered run flips the verdict back to PASS.
    let recovered = synthetic_record(&[("fig2", 0.5), ("fig4", 1.5)]);
    p10_obs::ledger::append(&dir, &recovered).expect("append recovered");
    let out = report("50");
    assert_eq!(
        out.status.code(),
        Some(0),
        "recovered run must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn stdout_is_byte_identical_with_flight_recorder_enabled() {
    // The acceptance invariant: ledger + Chrome trace + obs-json must
    // have zero effect on experiment stdout.
    let plain = figures()
        .args(["table1", "--ops", "800", "--no-cache", "--no-ledger"])
        .output()
        .expect("plain run");
    assert!(plain.status.success(), "plain run failed: {plain:?}");
    let instrumented = figures()
        .args(["table1", "--ops", "800", "--no-cache", "--ledger-dir"])
        .arg(scratch("ident", ""))
        .arg("--trace-out")
        .arg(scratch("ident-trace", "trace.json"))
        .arg("--obs-json")
        .arg(scratch("ident-obs", "obs.json"))
        .output()
        .expect("instrumented run");
    assert!(
        instrumented.status.success(),
        "instrumented run failed: {instrumented:?}"
    );
    assert_eq!(
        plain.stdout, instrumented.stdout,
        "flight-recorder outputs must not perturb stdout"
    );
}

#[test]
fn retired_env_aliases_are_ignored() {
    // Flags are the only way to set these; the environment variables that
    // used to alias them must change neither stdout nor the file system.
    let run = |env: &[(&str, std::ffi::OsString)]| {
        let mut cmd = figures();
        for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("P10SIM_")) {
            cmd.env_remove(k);
        }
        let out = cmd
            .args(["table1", "--ops", "800", "--no-cache", "--no-ledger"])
            .envs(env.iter().map(|(k, v)| (k, v)))
            .output()
            .expect("run figures");
        assert!(out.status.success(), "run failed: {out:?}");
        out.stdout
    };
    let clean = run(&[]);
    let dir = scratch("aliases", "");
    let trace = dir.join("trace.jsonl");
    let obs = dir.join("obs.json");
    let ledger = dir.join("ledger");
    let aliased = run(&[
        ("P10SIM_SAMPLING", "bound:5".into()),
        ("P10SIM_JOBS", "1".into()),
        ("P10SIM_TRACE_ARENA", "0".into()),
        ("P10SIM_TRACE", trace.clone().into_os_string()),
        ("P10SIM_OBS_JSON", obs.clone().into_os_string()),
        ("P10SIM_LEDGER", ledger.clone().into_os_string()),
    ]);
    assert_eq!(clean, aliased, "a retired env alias changed stdout");
    for path in [&trace, &obs, &ledger] {
        assert!(!path.exists(), "{} was created", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The payload without wall-clock fields (`*_s`, `speedup`), which are
/// the only ones allowed to vary between runs.
fn strip_walls(v: &serde_json::Value) -> serde_json::Value {
    use serde_json::Value;
    match v {
        Value::Object(entries) => Value::Object(
            entries
                .iter()
                .filter(|(k, _)| !(k.ends_with("_s") || k == "speedup"))
                .map(|(k, v)| (k.clone(), strip_walls(v)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(strip_walls).collect()),
        other => other.clone(),
    }
}

/// Runs `figures` with `args` plus `--no-ledger --jobs N --obs-json`,
/// with no inherited `P10SIM_*` variable but those in `env`. Returns
/// stdout and every `[obs]` counter except the per-worker `engine.*`
/// ones.
fn run_counted(
    args: &[&str],
    jobs: &str,
    env: &[(&str, &std::path::Path)],
) -> (String, Vec<(String, u64)>) {
    let obs = scratch(&format!("jobs{jobs}-obs"), "obs.json");
    let mut cmd = figures();
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("P10SIM_")) {
        cmd.env_remove(k);
    }
    cmd.envs(env.iter().copied());
    let out = cmd
        .args(args)
        .args(["--no-ledger", "--jobs", jobs, "--obs-json"])
        .arg(&obs)
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "{args:?} --jobs {jobs} failed: {out:?}"
    );
    let summary: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&obs).expect("obs json written"))
            .expect("obs json parses");
    let counters = summary
        .get("counters")
        .and_then(serde_json::Value::as_array)
        .expect("counters array")
        .iter()
        .map(|c| {
            let name = match c.get("name") {
                Some(serde_json::Value::Str(s)) => s.clone(),
                other => panic!("counter name must be a string, got {other:?}"),
            };
            (name, field_u64(c, "value"))
        })
        .filter(|(name, _)| !name.starts_with("engine."))
        .collect();
    let _ = std::fs::remove_dir_all(obs.parent().expect("scratch dir"));
    (String::from_utf8_lossy(&out.stdout).into_owned(), counters)
}

/// The sampling study at `--jobs 1` and `--jobs 2`, each with a fresh
/// checkpoint dir (`disk_tier`) or a memory-only store: the payload
/// without wall fields and the counters must not depend on the job count.
fn assert_sampling_study_invariant(ops: &str, disk_tier: bool) {
    let args = ["sampling", "--ops", ops, "--no-cache", "--json"];
    let run = |jobs: &str| {
        let ckpt = disk_tier.then(|| scratch(&format!("jobs{jobs}-ckpt"), ""));
        let env: Vec<_> = ckpt
            .iter()
            .map(|d| ("P10SIM_CKPT_DIR", d.as_path()))
            .collect();
        let (stdout, counters) = run_counted(&args, jobs, &env);
        if let Some(dir) = ckpt {
            let _ = std::fs::remove_dir_all(dir);
        }
        (strip_walls(&json_payload(&stdout)), counters)
    };
    let (serial_payload, serial_counters) = run("1");
    let (pool_payload, pool_counters) = run("2");
    assert_eq!(serial_payload, pool_payload, "payload differs at --jobs 2");
    if !disk_tier {
        let hits = field_u64(
            serial_payload
                .get("checkpoints")
                .expect("checkpoints field"),
            "hits",
        );
        assert!(hits > 0, "no memo hits to compare: {serial_payload:?}");
    }
    assert!(
        serial_counters
            .iter()
            .any(|(n, _)| n == "sampling.ckpt_misses"),
        "checkpoint counters missing: {serial_counters:?}"
    );
    assert_eq!(
        serial_counters, pool_counters,
        "counters differ at --jobs 2"
    );
}

#[test]
fn sampling_study_is_invariant_to_the_job_count() {
    // The study runs as one job graph on the worker pool; its payload and
    // every counter but the per-worker `engine.*` ones must not depend on
    // how many workers ran it.
    assert_sampling_study_invariant("20000", true);
}

#[test]
fn sampling_study_is_invariant_to_the_job_count_in_memory() {
    // Same, with a memory-only checkpoint store: its memo evicts per warm
    // class, so checkpoint hits do not depend on job interleaving either.
    // At 100k ops the study's classes overflow the memo and still hit.
    assert_sampling_study_invariant("100000", false);
}

#[test]
fn pool_drivers_are_invariant_to_the_job_count() {
    // Each of these drivers runs its independent points on the worker
    // pool and folds the results in input order (`fig4` as one batch).
    for driver in [
        "fig4", "fig5", "fig10", "fig13", "fig14", "flushes", "coverage", "tracking",
    ] {
        let args = [driver, "--ops", "3000", "--no-cache"];
        let (serial_out, serial_counters) = run_counted(&args, "1", &[]);
        let (pool_out, pool_counters) = run_counted(&args, "2", &[]);
        assert!(!serial_out.is_empty(), "{driver} printed nothing");
        assert_eq!(serial_out, pool_out, "{driver} stdout differs at --jobs 2");
        assert_eq!(
            serial_counters, pool_counters,
            "{driver} counters differ at --jobs 2"
        );
    }
}

/// A counter's value, 0 when the run never touched it.
fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// The result-cache entries in `dir`.
fn cache_entries(dir: &std::path::Path) -> std::collections::BTreeSet<std::path::PathBuf> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .map(|e| e.expect("dir entry").path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn cached_drivers_rerun_from_the_cache_and_heal() {
    // Each driver's result is a result-cache entry: a rerun on a warm
    // cache prints the cold bytes, text and --json, without simulating.
    let cache = scratch("driver-cache", "");
    let env = [("P10SIM_CACHE_DIR", cache.as_path())];
    let mut written = std::collections::HashMap::new();
    for driver in [
        "fig5",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15a",
        "fig15b",
        "flushes",
        "coverage",
        "tracepoints",
        "tracking",
        "droop",
    ] {
        let text = [driver, "--ops", "3000"];
        let json = [driver, "--ops", "3000", "--json"];
        let before = cache_entries(&cache);
        let (cold_text, _) = run_counted(&text, "2", &env);
        let new: Vec<_> = cache_entries(&cache).difference(&before).cloned().collect();
        written.insert(driver, new);
        let (cold_json, _) =
            run_counted(&[driver, "--ops", "3000", "--json", "--no-cache"], "2", &[]);
        for (args, cold) in [(&text[..], &cold_text), (&json[..], &cold_json)] {
            let (warm, counters) = run_counted(args, "2", &env);
            assert_eq!(&warm, cold, "{args:?} warm stdout differs from cold");
            for name in ["sim.runs", "sim.observed_runs", "trace.arena.misses"] {
                assert_eq!(
                    counter(&counters, name),
                    0,
                    "{args:?} warm run counted {name}"
                );
            }
        }
    }

    // Damage two entries one fig15a run reads: its own result (truncated)
    // and one of the APEX reports behind its dataset, which fig11's cold
    // run wrote (the high bit of its first byte flipped). Both count as
    // decode errors, recompute to the same bytes and heal.
    let result = &written["fig15a"];
    assert_eq!(
        result.len(),
        1,
        "fig15a's cold run wrote its result only: {result:?}"
    );
    let bytes = std::fs::read(&result[0]).expect("fig15a entry");
    std::fs::write(&result[0], &bytes[..bytes.len() / 2]).expect("truncate");
    // An APEX report is an object; fig11's own result is an array.
    let report = written["fig11"]
        .iter()
        .find(|p| std::fs::read(p).expect("fig11 entry").first() == Some(&b'{'))
        .expect("an APEX report entry");
    let mut bytes = std::fs::read(report).expect("report entry");
    bytes[0] ^= 0x80;
    std::fs::write(report, &bytes).expect("flip");
    let args = ["fig15a", "--ops", "3000"];
    let (cold, _) = run_counted(&args, "2", &[]);
    for errors in [2, 0] {
        let (out, counters) = run_counted(&args, "2", &env);
        assert_eq!(out, cold, "fig15a stdout changed on a damaged cache");
        assert_eq!(counter(&counters, "cache.disk_decode_errors"), errors);
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn gate_flag_outside_obsreport_fails_loudly() {
    assert_usage_error(&["table1", "--gate", "50"], "--gate/--baseline");
    assert_usage_error(&["table1", "--min-s", "1"], "--min-s only apply");
    assert_usage_error(&["obsreport", "--gate", "many"], "invalid --gate");
    // obsreport reads only the ledger; a run flag would be silently ignored.
    for args in [
        &["--json"][..],
        &["--ops", "5"],
        &["--out", "arts"],
        &["--jobs", "2"],
        &["--no-cache"],
        &["--sampling", "bound:5"],
        &["--trace-out", "t.json"],
        &["--obs-json", "obs.json"],
        &["--no-ledger"],
    ] {
        let mut argv = vec!["obsreport"];
        argv.extend_from_slice(args);
        let needle = format!("{} does not apply to the obsreport experiment", args[0]);
        assert_usage_error(&argv, &needle);
    }
    // The trace is always a Chrome trace; there is no format to pick.
    assert_usage_error(
        &["fig2", "--trace-format", "chrome"],
        "unknown flag '--trace-format'",
    );
}

#[test]
fn sampling_outside_sampled_experiments_fails_loudly() {
    // These experiments run no engine benchmark points, so a sampled mode
    // would change nothing; it is refused instead of silently ignored.
    for exp in ["fig2", "droop", "coverage"] {
        assert_usage_error(&[exp, "--sampling", "bound:5"], "--sampling only applies");
    }
    let out = figures()
        .args(["fig2", "--sampling", "exact", "--no-cache", "--no-ledger"])
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "exact mode is always accepted: {out:?}"
    );
}

#[test]
fn sampling_reaches_every_sampled_experiment() {
    for exp in [
        "table1",
        "fig4",
        "wof",
        "sensitivity",
        "smt",
        "dse",
        "profile",
        "sampling",
    ] {
        let args = [exp, "--ops", "2000", "--no-cache", "--sampling", "bound:50"];
        let (_, counters) = run_counted(&args, "2", &[]);
        let intervals = counters
            .iter()
            .find(|(name, _)| name == "sim.sample.intervals")
            .map_or(0, |&(_, v)| v);
        assert!(intervals > 0, "{exp} ran no sampled interval: {counters:?}");
    }
}

/// Number of `ckpt-*.bin` checkpoint blobs directly under `dir`.
fn ckpt_blobs(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.starts_with("ckpt-") && name.ends_with(".bin")
            })
            .count()
    })
}

#[test]
fn checkpoint_store_follows_the_documented_precedence() {
    // A non-empty P10SIM_CKPT_DIR wins, with or without --no-cache; else
    // checkpoints go to `<result cache>/warm`; else they stay in memory.
    use std::path::Path;
    let case = |env: &[(&str, &str)], no_cache: bool, check: &dyn Fn(&Path)| {
        let root = scratch("ckpt-precedence", "");
        let mut cmd = figures();
        for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("P10SIM_")) {
            cmd.env_remove(k);
        }
        cmd.current_dir(&root).envs(env.iter().copied()).args([
            "sampling",
            "--ops",
            "8000",
            "--no-ledger",
            "--jobs",
            "1",
        ]);
        if no_cache {
            cmd.arg("--no-cache");
        }
        let out = cmd.output().expect("run figures");
        assert!(out.status.success(), "{env:?} failed: {out:?}");
        check(&root);
        let _ = std::fs::remove_dir_all(&root);
    };
    case(&[], false, &|root| {
        assert!(ckpt_blobs(&root.join("target/p10sim-cache/warm")) > 0);
    });
    case(&[("P10SIM_CACHE_DIR", "cache")], false, &|root| {
        assert!(ckpt_blobs(&root.join("cache/warm")) > 0);
        assert!(!root.join("target").exists());
    });
    let empty_ckpt = [("P10SIM_CACHE_DIR", "cache"), ("P10SIM_CKPT_DIR", "")];
    case(&empty_ckpt, false, &|root| {
        assert!(
            ckpt_blobs(&root.join("cache/warm")) > 0,
            "empty means unset"
        );
    });
    let both = [("P10SIM_CACHE_DIR", "cache"), ("P10SIM_CKPT_DIR", "ck")];
    case(&both, false, &|root| {
        assert!(ckpt_blobs(&root.join("ck")) > 0);
        assert_eq!(ckpt_blobs(&root.join("cache/warm")), 0);
    });
    case(&both, true, &|root| {
        assert!(ckpt_blobs(&root.join("ck")) > 0);
        assert!(
            !root.join("cache").exists(),
            "--no-cache writes no result cache"
        );
    });
    case(&[("P10SIM_CACHE_DIR", "cache")], true, &|root| {
        let left: Vec<_> = std::fs::read_dir(root).expect("scratch dir").collect();
        assert!(
            left.is_empty(),
            "a memory-only store writes nothing: {left:?}"
        );
    });
}

/// Splits `--json --out` stdout into `(artifact path, payload)` pairs:
/// each experiment prints its header, its payload, then the artifact
/// line.
fn payloads_and_artifacts(stdout: &str) -> Vec<(std::path::PathBuf, String)> {
    stdout
        .split("\n=== ")
        .skip(1)
        .map(|section| {
            let (body, artifact) = section
                .trim_end_matches('\n')
                .rsplit_once("\n    [artifact: ")
                .expect("artifact line");
            let start = body
                .find("\n{")
                .or_else(|| body.find("\n["))
                .expect("payload after the header");
            (
                std::path::PathBuf::from(artifact.trim_end_matches(']')),
                format!("{}\n", &body[start + 1..]),
            )
        })
        .collect()
}

#[test]
fn out_artifacts_equal_the_json_payload() {
    let dir = scratch("out", "");
    let run = |args: &[&str]| {
        let out = figures()
            .args(args)
            .args(["--ops", "2000", "--no-cache", "--no-ledger", "--out"])
            .arg(&dir)
            .output()
            .expect("run figures");
        assert!(out.status.success(), "{args:?} failed: {out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let mut checked = Vec::new();
    for exp in ["all", "dse", "profile", "sampling"] {
        for (path, payload) in payloads_and_artifacts(&run(&[exp, "--json"])) {
            let artifact = std::fs::read_to_string(&path).expect("artifact written");
            assert_eq!(artifact, payload, "{} differs", path.display());
            checked.push(path);
        }
    }
    assert_eq!(checked.len(), 25, "one artifact per experiment");
    // Without --json the artifact is still the JSON payload.
    let json_fig4 = std::fs::read_to_string(dir.join("fig4.json")).expect("fig4 artifact");
    let text = run(&["fig4"]);
    assert!(text.contains("[artifact: "), "{text}");
    let again = std::fs::read_to_string(dir.join("fig4.json")).expect("fig4 artifact");
    assert_eq!(again, json_fig4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_out_dir_fails_cleanly() {
    // A regular file where `--out` needs a directory: the experiment
    // runs, then writing its artifact fails with an error, not a panic.
    let file = scratch("out-unwritable", "file");
    std::fs::write(&file, "").expect("create regular file");
    let out = figures()
        .args(["fig2", "--no-cache", "--no-ledger", "--out"])
        .arg(file.join("sub"))
        .output()
        .expect("run figures");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "must exit 1, got: {stderr}");
    let artifact = file.join("sub").join("fig2.json");
    assert!(
        stderr.contains(&format!(
            "error: cannot write artifact {}: ",
            artifact.display()
        )),
        "stderr must name the artifact, got: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
    let _ = std::fs::remove_dir_all(file.parent().expect("scratch dir"));
}

/// A file under the repository's `tests/goldens/`.
fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A counter golden under `tests/goldens/`, as `run_counted` returns
/// counters.
fn golden_counters(name: &str) -> Vec<(String, u64)> {
    let by_name = serde_json::parse(&golden(name)).expect("golden parses");
    by_name
        .as_object()
        .expect("counter golden is an object")
        .iter()
        .map(|(name, _)| (name.clone(), field_u64(&by_name, name)))
        .collect()
}

/// One `name: golden -> got` line per counter that moved, with `absent`
/// for a counter only one side has; empty when the two sets agree.
fn counter_diff(golden: &[(String, u64)], got: &[(String, u64)]) -> String {
    let golden: std::collections::BTreeMap<_, _> = golden.iter().cloned().collect();
    let got: std::collections::BTreeMap<_, _> = got.iter().cloned().collect();
    let show = |v: Option<&u64>| v.map_or("absent".to_owned(), u64::to_string);
    let names: std::collections::BTreeSet<_> = golden.keys().chain(got.keys()).collect();
    names
        .into_iter()
        .filter(|&n| golden.get(n) != got.get(n))
        .map(|n| format!("  {n}: {} -> {}\n", show(golden.get(n)), show(got.get(n))))
        .collect()
}

#[test]
fn stdout_and_counters_match_the_committed_goldens() {
    // Fixed values recorded once, so a change that shifts serial and pool
    // runs alike still fails, and more work in any counted layer fails by
    // name. Regenerate them only for an intended change (see README).
    // Stdout is compared byte for byte; `sampling`'s as its payload
    // without wall-clock fields.
    let runs: [(&[&str], &str, &str); 4] = [
        (
            &["all", "--ops", "2000"],
            "all-2000.txt",
            "all-2000.counters.json",
        ),
        (
            &["all", "--ops", "2000", "--json"],
            "all-2000.json",
            "all-2000.counters.json",
        ),
        (
            &["dse", "--ops", "2000"],
            "dse-2000.txt",
            "dse-2000.counters.json",
        ),
        (
            &["sampling", "--ops", "20000", "--json"],
            "sampling-20000.json",
            "sampling-20000.counters.json",
        ),
    ];
    for jobs in ["1", "2"] {
        for (args, stdout_golden, counters_golden) in runs {
            let args = [args, &["--no-cache"]].concat();
            let (stdout, counters) = run_counted(&args, jobs, &[]);
            let expected = golden(stdout_golden);
            let same = if args[0] == "sampling" {
                strip_walls(&json_payload(&stdout))
                    == serde_json::parse(&expected).expect("golden parses")
            } else {
                stdout == expected
            };
            let moved = counter_diff(&golden_counters(counters_golden), &counters);
            assert!(
                same && moved.is_empty(),
                "{args:?} --jobs {jobs}: stdout {} {stdout_golden}; counters that \
                 moved from {counters_golden}:\n{moved}",
                if same { "matches" } else { "differs from" }
            );
        }
    }
}

#[test]
fn a_warm_sampling_rerun_decodes_what_the_cold_run_encoded() {
    // The cold golden run decodes no checkpoint. A rerun on the checkpoint
    // directory it filled restores every blob it wrote, byte for byte,
    // replays no warming and prints the golden estimates.
    let ckpt = scratch("warm-rerun-ckpt", "");
    let env = [("P10SIM_CKPT_DIR", ckpt.as_path())];
    let args = ["sampling", "--ops", "20000", "--no-cache", "--json"];
    let cold = golden_counters("sampling-20000.counters.json");
    let (_, first) = run_counted(&args, "2", &env);
    let moved = counter_diff(&cold, &first);
    assert!(moved.is_empty(), "a checkpoint directory moved:\n{moved}");
    let (stdout, warm) = run_counted(&args, "2", &env);
    let expected = [
        ("sampling.ckpt_decode_bytes", "sampling.ckpt_bytes"),
        ("sampling.ckpt_hits", "sampling.ckpt_misses"),
    ]
    .map(|(read, written)| (read.to_owned(), counter(&cold, written)));
    let checkpoint_work: Vec<_> = warm
        .into_iter()
        .filter(|(n, _)| n.starts_with("sampling.ckpt") || n == "sampling.warm_ops")
        .collect();
    let moved = counter_diff(&expected, &checkpoint_work);
    assert!(
        moved.is_empty(),
        "warm rerun checkpoint work, expected -> got:\n{moved}"
    );
    let payload = strip_walls(&json_payload(&stdout));
    let golden = serde_json::parse(&golden("sampling-20000.json")).expect("golden parses");
    for key in ["rows", "bound", "cross_workload"] {
        assert_eq!(payload.get(key), golden.get(key), "{key} differs warm");
    }
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn too_small_op_budgets_fail_loudly() {
    // Each of these panicked in a model fit or a sampled run of an empty
    // thread before `--ops` had a floor.
    for args in [
        &["fig12", "--ops", "10"][..],
        &["fig15b", "--ops", "50"],
        &["all", "--ops", "1"],
        &["table1", "--ops", "1", "--sampling", "bound:50"],
        &["fig4", "--ops", "1", "--sampling", "bound:50"],
        &["smt", "--ops", "1", "--sampling", "bound:50"],
        &["smt", "--ops", "3", "--sampling", "bound:50"],
        &["fig15b", "--ops", "99"],
    ] {
        assert_usage_error(args, "--ops must be at least 100");
    }
    // The floor itself runs, in both modes.
    for args in [
        &["fig12", "--ops", "100"][..],
        &["fig15b", "--ops", "100"],
        &["smt", "--ops", "100", "--sampling", "bound:50"],
    ] {
        let out = figures()
            .args(args)
            .args(["--no-cache", "--no-ledger"])
            .output()
            .expect("run figures");
        assert!(out.status.success(), "{args:?} failed: {out:?}");
    }
}

#[test]
fn another_op_budget_misses_the_driver_cache() {
    let cache = scratch("driver-key", "");
    let env = [("P10SIM_CACHE_DIR", cache.as_path())];
    let _ = run_counted(&["fig13", "--ops", "3000"], "2", &env);
    let (_, warm) = run_counted(&["fig13", "--ops", "3000"], "2", &env);
    assert_eq!(counter(&warm, "cache.computes"), 0, "warm rerun computed");
    let (_, other) = run_counted(&["fig13", "--ops", "3001"], "2", &env);
    assert!(
        counter(&other, "cache.computes") > 0,
        "--ops 3001 was served from the --ops 3000 entry"
    );
    let _ = std::fs::remove_dir_all(&cache);
}
