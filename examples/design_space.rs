//! Design-space exploration: the pipeline-depth study (Fig. 2) and an
//! incremental perf/watt sweep through the `dse` engine — how the
//! methodology picks design points before committing silicon.
//!
//! The sweep covers two grids in one run: fetch width × SMT at the
//! POWER10 instruction window, and again at half that window, plus the
//! paper's two presets. Timing classes are simulated once and every other
//! point is priced by activity-trace replay, so the knob axes cost a
//! fraction of the classes.
//!
//! Run with: `cargo run --release --example design_space`

use p10sim::core::dse::{self, DseConfig, DsePoint, PowerKnobs};
use p10sim::core::runner;
use p10sim::pipedepth::{run_fig2, DepthParams};
use p10sim::uarch::{CoreConfig, SmtMode};

/// Fetch width × SMT at POWER10, with the instruction window at full or
/// half size, across the full power/DVFS/WOF knob grid.
fn fetch_smt_grid(half_window: bool) -> Vec<DsePoint> {
    let base = CoreConfig::power10();
    let mut grid = Vec::new();
    for &fetch in &[6u32, 8] {
        for smt in [SmtMode::St, SmtMode::Smt2, SmtMode::Smt4] {
            for knobs in PowerKnobs::grid() {
                let mut core = base.clone();
                core.fetch_width = fetch;
                core.smt = smt;
                let window = if half_window {
                    core.itable_entries = base.itable_entries / 2;
                    "-whalf"
                } else {
                    ""
                };
                let smt_tag = match smt {
                    SmtMode::St => "st",
                    SmtMode::Smt2 => "smt2",
                    SmtMode::Smt4 => "smt4",
                };
                core.name = format!("f{fetch}{window}-{smt_tag}");
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

fn main() {
    // --- Fig. 2: where should the pipeline depth sit? ---
    println!("== Optimal pipeline depth (relative BIPS vs FO4/stage) ==");
    let fig2 = run_fig2(&DepthParams::default(), &[0.25, 0.15]);
    print!("{:>6}", "fo4");
    for &t in &fig2.power_targets {
        print!("{t:>8.2}x");
    }
    println!();
    for &fo4 in fig2.fo4_grid.iter().step_by(4) {
        print!("{fo4:>6.0}");
        for &t in &fig2.power_targets {
            let p = fig2
                .points
                .iter()
                .find(|p| (p.fo4 - fo4).abs() < 1e-9 && (p.power_target - t).abs() < 1e-9)
                .expect("point in sweep");
            print!("{:>9.3}", p.bips);
        }
        println!();
    }
    for &t in &fig2.power_targets {
        println!("  optimum at {t:.2}x power: {} FO4", fig2.optimal_fo4(t));
    }
    println!("  (the paper's finding: stable at ~27 FO4 for the targets of interest,");
    println!("   shifting shallower only for very low power envelopes)\n");

    // --- Incremental DSE: the perf/watt frontier over both grids ---
    println!("== Incremental perf/watt exploration (dse engine) ==");
    let engine = runner::Engine::new(runner::EngineConfig {
        jobs: 0,
        disk_cache: Some(std::path::Path::new("target").join("p10sim-cache")),
        progress: false,
    });
    let cfg = DseConfig::new(42, 20_000);
    let mut grid = fetch_smt_grid(false);
    grid.extend(fetch_smt_grid(true));
    for preset in [CoreConfig::power9(), CoreConfig::power10()] {
        grid.push(DsePoint {
            name: format!("{} (paper)", preset.name),
            core: preset,
            knobs: PowerKnobs::nominal(),
            paper: true,
        });
    }
    let outcome = dse::run_dse(&engine, &grid, &dse::default_suite(), &cfg);
    let r = &outcome.result;
    println!(
        "evaluated {} points ({} timing classes, {} pure replay)",
        r.stats.points, r.stats.classes, r.stats.replay_hits
    );
    println!(
        "this process simulated {} recordings and computed {} result-cache shards ({} resumed)\n",
        outcome.run.recordings_simulated, outcome.run.shards_computed, outcome.run.shards_resumed
    );
    print!("{}", dse::frontier_markdown(r));

    let paper: Vec<&dse::DsePointResult> = r.points.iter().filter(|p| p.paper).collect();
    if let [p9, p10] = paper.as_slice() {
        println!(
            "\nPOWER10 vs POWER9 perf/W: {:.2}x (paper: 2.6x core)",
            p10.perf_per_watt / p9.perf_per_watt
        );
    }
}
