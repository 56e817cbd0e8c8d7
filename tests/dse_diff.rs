//! Differential and crash-recovery tests of the incremental DSE engine.
//!
//! The sweep's whole premise is that replaying a recorded activity trace
//! is *bit-identical* to re-running the detailed simulation — otherwise
//! the thousand-config grid quietly reports different numbers than the
//! naive per-config path it replaces. These tests pin that contract,
//! and pin that a killed sweep resumes from the shard results in the
//! engine's result cache without recomputing finished work or perturbing
//! a single byte of the result.

use p10sim::core::dse::{self, DseConfig, DsePoint, DsePointResult, PowerKnobs};
use p10sim::core::runner::{Engine, EngineConfig};
use p10sim::core::sampling::SamplingMode;
use p10sim::core::scenario;
use p10sim::uarch::{CoreConfig, SmtMode};
use p10sim::workloads::specint_like;

const SEED: u64 = 42;
const OPS: u64 = 3_000;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("p10sim-dse-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Tier-1 contract: a `PowerReport` (and the whole `ScenarioResult`)
/// reconstructed from a class recording renders byte-identically to a
/// full re-simulation — across presets, SMT modes, and workloads.
#[test]
fn replay_from_recording_matches_resimulation_bytes() {
    let suite = specint_like();
    let benches = &suite[..2];
    for preset in [CoreConfig::power9(), CoreConfig::power10()] {
        for smt in [SmtMode::St, SmtMode::Smt2, SmtMode::Smt4] {
            let mut cfg = preset.clone();
            cfg.smt = smt;
            cfg.name = format!("{}-x{}", preset.name, smt.threads());
            for bench in benches {
                let rec = dse::record_benchmark(&cfg, bench, SEED, OPS, 512);
                let label = format!("{} @ {}", bench.name, cfg.name);
                assert_eq!(
                    rec.trace.total(),
                    rec.sim.activity,
                    "recording contract: window deltas must sum to the final counters on {label}"
                );
                let replayed = dse::scenario_from_recording(&rec, &cfg, &bench.name);
                let full = scenario::run_benchmark(&cfg, bench, SEED, OPS);
                assert_eq!(
                    serde_json::to_string(&replayed).expect("json"),
                    serde_json::to_string(&full).expect("json"),
                    "replayed result must be byte-identical to re-simulation on {label}"
                );
            }
        }
    }
}

/// A small grid with several timing classes and knob settings: enough
/// shards to kill a sweep in the middle of one.
fn small_grid() -> Vec<DsePoint> {
    let base = CoreConfig::power10();
    let mut grid = Vec::new();
    for &fetch in &[6u32, 8] {
        for smt in [SmtMode::St, SmtMode::Smt2] {
            for knobs in PowerKnobs::grid().into_iter().take(6) {
                let mut core = base.clone();
                core.fetch_width = fetch;
                core.smt = smt;
                core.name = format!("f{fetch}-x{}", smt.threads());
                grid.push(DsePoint {
                    name: format!("{}-{}", core.name, knobs.label),
                    core,
                    knobs,
                    paper: false,
                });
            }
        }
    }
    grid
}

/// Tier-3 contract: a mid-sweep kill leaves some shard entries of the
/// result cache missing and one torn. A fresh engine on the same cache
/// must serve the intact shards, recompute only the missing and torn ones
/// (counting the torn entry as a decode error), and produce a
/// byte-identical artifact.
#[test]
fn killed_sweep_resumes_from_the_result_cache_byte_identically() {
    let dir = scratch_dir("resume");
    let engine = || {
        Engine::new(EngineConfig {
            jobs: 2,
            disk_cache: Some(dir.clone()),
            progress: false,
        })
    };
    let grid = small_grid();
    let suite = dse::default_suite();
    let mut cfg = DseConfig::new(SEED, 2_000);
    cfg.shard_points = 4;
    let shards = grid.len().div_ceil(cfg.shard_points) as u64;
    assert!(shards >= 4, "grid must span several shards");
    let json = |o: &dse::DseOutcome| serde_json::to_string(&o.result).expect("json");

    let full = dse::run_dse(&engine(), &grid, &suite, &cfg);
    assert_eq!(full.run.shards_computed, shards);
    assert_eq!(full.run.shards_resumed, 0);

    // Simulate the kill: the shard entries are the cache files that hold
    // a list of point results (the others hold class recordings). Lose
    // two and tear a third in half.
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            let text = std::fs::read_to_string(p).expect("cache entry");
            serde_json::from_str::<Vec<DsePointResult>>(&text).is_ok()
        })
        .collect();
    entries.sort();
    assert_eq!(entries.len() as u64, shards);
    let lost = 2;
    for p in &entries[..lost] {
        std::fs::remove_file(p).expect("drop shard entry");
    }
    let text = std::fs::read(&entries[lost]).expect("shard entry");
    std::fs::write(&entries[lost], &text[..text.len() / 2]).expect("tear shard entry");

    let fresh = engine();
    let resumed = dse::run_dse(&fresh, &grid, &suite, &cfg);
    assert_eq!(resumed.run.recordings_simulated, 0);
    assert_eq!(
        resumed.run.shards_computed,
        lost as u64 + 1,
        "only the missing shards and the torn one may recompute"
    );
    assert_eq!(resumed.run.shards_resumed, shards - lost as u64 - 1);
    assert_eq!(fresh.cache_counts().disk_decode_errors, 1, "the torn entry");
    assert_eq!(
        json(&resumed),
        json(&full),
        "the resumed artifact must be byte-identical to the uninterrupted run"
    );

    // The resumed run healed the cache: a third run computes nothing.
    let healed = engine();
    let warm = dse::run_dse(&healed, &grid, &suite, &cfg);
    assert_eq!(warm.run.shards_computed, 0);
    assert_eq!(warm.run.shards_resumed, shards);
    assert_eq!(warm.run.recordings_simulated, 0);
    assert_eq!(healed.cache_counts().disk_decode_errors, 0);
    assert_eq!(json(&warm), json(&full));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sampling mode is the engine's: an exact and a sampled engine sweep
/// the same grid in one process over one disk cache. The sampled engine
/// records every class itself (`dse::record_benchmark_sampled`, warming
/// in its own checkpoint store) and caches its shards under keys the
/// exact entries never answer, and fresh engines of either mode disk-hit
/// only their own.
#[test]
fn sampled_engine_records_under_keys_of_its_own() {
    let dir = scratch_dir("sampled");
    let engine = |mode: SamplingMode| {
        Engine::new(EngineConfig {
            jobs: 2,
            disk_cache: Some(dir.clone()),
            progress: false,
        })
        .with_sampling(mode)
    };
    let bound = SamplingMode::Bound {
        target_mpct: 50_000,
    };
    let grid: Vec<DsePoint> = small_grid()
        .into_iter()
        .filter(|p| p.core.smt == SmtMode::St)
        .collect();
    let suite = &specint_like()[2..3];
    let cfg = DseConfig::new(SEED, 20_000);
    let json = |o: &dse::DseOutcome| serde_json::to_string(&o.result).expect("json");

    let (exact, sampled) = (engine(SamplingMode::Exact), engine(bound));
    let e = dse::run_dse(&exact, &grid, suite, &cfg);
    let s = dse::run_dse(&sampled, &grid, suite, &cfg);
    let recordings = e.run.recordings_simulated;
    assert!(recordings > 0);
    assert_eq!(
        s.run.recordings_simulated, recordings,
        "the sampled sweep must not reuse exact recordings"
    );
    assert_eq!(sampled.cache_counts().disk_hits, 0);
    assert!(sampled.ckpt_store().warm_passes() > 0);
    assert_eq!(exact.ckpt_store().warm_passes(), 0);
    assert_ne!(json(&s), json(&e), "sampled recordings must be estimates");

    for (mode, outcome) in [(SamplingMode::Exact, &e), (bound, &s)] {
        let fresh = engine(mode);
        let again = dse::run_dse(&fresh, &grid, suite, &cfg);
        assert_eq!(again.run.recordings_simulated, 0, "{}", mode.describe());
        assert_eq!(again.run.shards_computed, 0, "{}", mode.describe());
        assert_eq!(
            fresh.cache_counts().disk_hits,
            recordings + again.result.stats.shards
        );
        assert_eq!(json(&again), json(outcome), "{}", mode.describe());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
