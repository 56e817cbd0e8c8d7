//! Determinism guarantees of the parallel experiment engine: the worker
//! pool and both cache layers must be invisible in the numbers.

use p10_core::runner::{point_key, Engine, EngineConfig};
use p10_core::scenario::{self, ScenarioResult};
use p10_uarch::CoreConfig;
use p10_workloads::specint_like;

const OPS: u64 = 8_000;
const SEED: u64 = 42;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("p10sim-engine-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn parallel_suite_matches_serial_bit_for_bit() {
    let suite = &specint_like()[6..10];
    let cfg = CoreConfig::power10();

    let serial: Vec<ScenarioResult> = suite
        .iter()
        .map(|b| scenario::run_benchmark(&cfg, b, SEED, OPS))
        .collect();
    let parallel = Engine::new(EngineConfig {
        jobs: 4,
        ..EngineConfig::default()
    })
    .run_suite(&cfg, suite, SEED, OPS);

    assert_eq!(parallel.config, cfg.name);
    let serial_json = serde_json::to_string(&serial).expect("json");
    let parallel_json = serde_json::to_string(&parallel.results).expect("json");
    assert_eq!(
        serial_json, parallel_json,
        "parallel results must be identical to the serial path, in order"
    );
}

#[test]
fn disk_cache_hit_is_byte_identical_to_cold_run() {
    let suite = specint_like();
    let bench = &suite[8];
    let cfg = CoreConfig::power10();
    let dir = scratch_dir("cache");
    let key = point_key(&cfg, bench, SEED, OPS);

    let cold_engine = Engine::new(EngineConfig {
        disk_cache: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let cold: ScenarioResult = cold_engine.cached("cold", &key, || {
        scenario::run_benchmark(&cfg, bench, SEED, OPS)
    });

    // A fresh engine has an empty memo, so this must come from disk; the
    // closure panicking proves the point was not re-simulated.
    let warm_engine = Engine::new(EngineConfig {
        disk_cache: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let warm: ScenarioResult =
        warm_engine.cached("warm", &key, || panic!("cache must prevent re-simulation"));

    assert_eq!(
        serde_json::to_string(&cold).expect("json"),
        serde_json::to_string(&warm).expect("json"),
        "a cache hit must render byte-identically to the cold run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memo_hit_is_byte_identical_and_skips_work() {
    let suite = specint_like();
    let bench = &suite[9];
    let cfg = CoreConfig::power9();
    let engine = Engine::new(EngineConfig::default());

    let cold = engine.run_benchmark(&cfg, bench, SEED, OPS);
    let key = point_key(&cfg, bench, SEED, OPS);
    let warm: ScenarioResult =
        engine.cached("memo", &key, || panic!("memo must prevent re-simulation"));
    assert_eq!(
        serde_json::to_string(&cold).expect("json"),
        serde_json::to_string(&warm).expect("json")
    );
}

#[test]
fn run_suite_entrypoint_is_deterministic_across_calls() {
    // The engine's suite entrypoint: two calls (second one memo-warm)
    // must agree exactly.
    let suite = &specint_like()[..3];
    let cfg = CoreConfig::power10();
    let engine = Engine::new(EngineConfig::default());
    let a = engine.run_suite(&cfg, suite, SEED, OPS);
    let b = engine.run_suite(&cfg, suite, SEED, OPS);
    assert_eq!(
        serde_json::to_string(&a).expect("json"),
        serde_json::to_string(&b).expect("json")
    );
    let names: Vec<&str> = a.results.iter().map(|r| r.workload.as_str()).collect();
    let expected: Vec<&str> = suite.iter().map(|b| b.name.as_str()).collect();
    assert_eq!(names, expected, "suite order must be preserved");
}
