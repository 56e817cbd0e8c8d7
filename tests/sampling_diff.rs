//! Differential tests: sampled execution must stay inside its own
//! printed error bound against exact simulation — on every preset and
//! workload it claims to handle, including ragged (non-divisible) op
//! budgets — and must be deterministic.
//!
//! The sampled path is a simulator-performance optimization with an
//! explicit accuracy contract (see `DESIGN.md`); a violation here means
//! the *bound* is wrong, which is worse than the estimate being wrong.

use p10sim::core::sampling::{
    run_benchmark_sampled, run_traces_sampled_with, CkptStore, SampledScenario, SamplingMode,
};
use p10sim::core::scenario;
use p10sim::isa::{Cond, Inst, ProgramBuilder, Reg};
use p10sim::uarch::{CoreConfig, SmtMode};
use p10sim::workloads::specint_like;
use proptest::prelude::*;

fn rel_err(est: f64, truth: f64) -> f64 {
    (est - truth).abs() / truth.abs().max(1e-12)
}

/// Runs one benchmark exact and sampled on a fresh checkpoint store,
/// asserting the accuracy contract and the coverage invariants, and
/// returns the sampled run.
fn assert_within_bound(
    cfg: &CoreConfig,
    bench_idx: usize,
    ops: u64,
    mode: &SamplingMode,
) -> SampledScenario {
    let suite = specint_like();
    let bench = &suite[bench_idx];
    let exact = scenario::run_benchmark(cfg, bench, 42, ops);
    let s = run_benchmark_sampled(cfg, bench, 42, ops, mode, &CkptStore::new(None));
    let label = format!("{} @ {} [{}]", bench.name, cfg.name, mode.describe());

    // Coverage invariants: every op is either simulated or skipped, the
    // attribution partitions the estimated cycles, and the result claims
    // exactly the exact run's op count.
    assert_eq!(
        s.stats.simulated_ops + s.stats.skipped_ops,
        s.stats.total_ops,
        "op coverage must partition on {label}"
    );
    assert_eq!(
        s.result.sim.activity.completed, exact.sim.activity.completed,
        "sampled run must claim the same op count on {label}"
    );
    assert_eq!(
        s.result.sim.attribution.total(),
        s.result.sim.activity.cycles,
        "attribution must partition the cycles on {label}"
    );

    // The accuracy contract: measured error within the printed bound.
    let cpi_err = rel_err(s.stats.cpi_est, exact.sim.cpi());
    let power_err = rel_err(s.stats.power_est, exact.core_power());
    assert!(
        cpi_err <= s.stats.cpi_bound_rel,
        "CPI error {:.1}% exceeds bound {:.1}% on {label}",
        cpi_err * 100.0,
        s.stats.cpi_bound_rel * 100.0
    );
    assert!(
        power_err <= s.stats.power_bound_rel,
        "power error {:.1}% exceeds bound {:.1}% on {label}",
        power_err * 100.0,
        s.stats.power_bound_rel * 100.0
    );
    s
}

/// The PR's workload slice (leela / exchange / xz analogues): one cache
/// warm-up heavy, one tight and predictable, one compressible-data mix.
const BENCHES: [usize; 3] = [7, 8, 9];

/// Fixed grid: both presets x the workload slice, SimPoints mode, with a
/// deliberately non-divisible op budget so the ragged tail is always
/// exercised.
#[test]
fn simpoints_stays_within_bound_on_preset_grid() {
    let mode = SamplingMode::SimPoints {
        interval_ops: 1000,
        k: 4,
        warmup_ops: 125,
    };
    for cfg in [CoreConfig::power9(), CoreConfig::power10()] {
        for idx in BENCHES {
            assert_within_bound(&cfg, idx, 6100, &mode);
        }
    }
}

/// Target-bound auto-tuning honors the same accuracy contract, and in
/// addition must either achieve the requested bound or degrade to full
/// measurement (skipped_ops == 0) — never report a bound above target
/// while ops remain unmeasured.
#[test]
fn bound_mode_meets_its_target_or_measures_everything() {
    let mode = SamplingMode::Bound {
        target_mpct: 10_000,
    };
    let suite = specint_like();
    for cfg in [CoreConfig::power9(), CoreConfig::power10()] {
        for idx in BENCHES {
            let s = assert_within_bound(&cfg, idx, 12_300, &mode);
            assert_eq!(s.stats.mode, "bound:10", "resolved mode label");
            assert!(
                s.stats.cpi_bound_rel <= 0.10 || s.stats.skipped_ops == 0,
                "{} @ {}: bound {:.1}% above target with {} ops unmeasured",
                suite[idx].name,
                cfg.name,
                s.stats.cpi_bound_rel * 100.0,
                s.stats.skipped_ops
            );
        }
    }
}

/// SMT partitioning: per-thread views are sliced at the same op indices,
/// so the invariants must hold with multiple threads too.
#[test]
fn simpoints_stays_within_bound_under_smt2() {
    let mut cfg = CoreConfig::power10();
    cfg.smt = SmtMode::Smt2;
    let mode = SamplingMode::SimPoints {
        interval_ops: 1000,
        k: 4,
        warmup_ops: 125,
    };
    for idx in BENCHES {
        assert_within_bound(&cfg, idx, 6100, &mode);
    }
}

/// Same inputs, same mode -> byte-identical serialized results and stats
/// (k-means seeding, representative choice, and reconstitution are all
/// deterministic).
#[test]
fn sampling_is_deterministic_end_to_end() {
    let cfg = CoreConfig::power10();
    let suite = specint_like();
    let mode = SamplingMode::SimPoints {
        interval_ops: 1000,
        k: 4,
        warmup_ops: 125,
    };
    let run = || run_benchmark_sampled(&cfg, &suite[7], 42, 6100, &mode, &CkptStore::new(None));
    let (a, b) = (run(), run());
    assert_eq!(
        serde_json::to_string(&a.result).expect("serialize"),
        serde_json::to_string(&b.result).expect("serialize")
    );
    assert_eq!(
        serde_json::to_string(&a.stats).expect("serialize"),
        serde_json::to_string(&b.stats).expect("serialize")
    );
}

/// Exact mode through the sampled entry point is the reference path:
/// identical result, trivial stats.
#[test]
fn exact_mode_is_byte_identical_to_the_reference() {
    let cfg = CoreConfig::power10();
    let suite = specint_like();
    let exact = scenario::run_benchmark(&cfg, &suite[8], 42, 6100);
    let s = run_benchmark_sampled(
        &cfg,
        &suite[8],
        42,
        6100,
        &SamplingMode::Exact,
        &CkptStore::new(None),
    );
    assert_eq!(
        serde_json::to_string(&exact).expect("serialize"),
        serde_json::to_string(&s.result).expect("serialize")
    );
    assert_eq!(s.stats.skipped_ops, 0);
    assert_eq!(s.stats.simulated_ops, s.stats.total_ops);
}

/// Property: on arbitrary small programs the sampled path never violates
/// its invariants or its bound. Programs are generated the same way as
/// the scheduler differential (loop bodies of ALU/memory/branch ops), so
/// shrinking reduces failures to a minimal body.
mod random_programs {
    use super::*;

    fn arb_body_op() -> impl Strategy<Value = Inst> {
        prop_oneof![
            (3u16..20, 3u16..20, 3u16..20).prop_map(|(t, a, b)| Inst::Add {
                rt: Reg::gpr(t),
                ra: Reg::gpr(a),
                rb: Reg::gpr(b)
            }),
            (3u16..20, 3u16..20, -64i64..64).prop_map(|(t, a, imm)| Inst::Addi {
                rt: Reg::gpr(t),
                ra: Reg::gpr(a),
                imm
            }),
            (3u16..20, 0i64..64).prop_map(|(t, d)| Inst::Ld {
                rt: Reg::gpr(t),
                ra: Reg::gpr(1),
                disp: d * 8
            }),
            (3u16..20, 0i64..64).prop_map(|(s, d)| Inst::Std {
                rs: Reg::gpr(s),
                ra: Reg::gpr(1),
                disp: d * 8
            }),
            (3u16..20, -32i64..32).prop_map(|(a, imm)| Inst::Cmpi {
                bf: Reg::cr(0),
                ra: Reg::gpr(a),
                imm
            }),
        ]
    }

    fn trace_of(body: &[Inst], iters: i64) -> p10sim::isa::TraceView {
        let mut b = ProgramBuilder::new();
        b.li(Reg::gpr(1), 0x20_0000);
        b.li(Reg::gpr(2), iters);
        b.mtctr(Reg::gpr(2));
        let top = b.bind_label();
        for inst in body {
            if let Inst::Cmpi { .. } = inst {
                b.push(*inst);
                let skip = b.label();
                b.bc(Cond::Eq, Reg::cr(0), skip);
                b.addi(Reg::gpr(3), Reg::gpr(3), 1);
                b.bind(skip);
            } else {
                b.push(*inst);
            }
        }
        b.bdnz(top);
        let mut m = p10sim::isa::Machine::new();
        m.run(&b.build(), 200_000)
            .expect("generated programs are valid")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sampled_runs_hold_invariants_on_random_programs(
            body in proptest::collection::vec(arb_body_op(), 1..16),
            iters in 20i64..120,
        ) {
            let cfg = CoreConfig::power10();
            let views = vec![trace_of(&body, iters)];
            let total_ops: u64 = views.iter().map(|v| v.len() as u64).sum();
            let exact = scenario::run_traces(&cfg, "random", views.clone());
            let mode = SamplingMode::SimPoints { interval_ops: 500, k: 3, warmup_ops: 50 };
            let s = run_traces_sampled_with(&cfg, "random", views, &mode, &CkptStore::new(None));
            prop_assert_eq!(s.stats.total_ops, total_ops);
            prop_assert_eq!(s.stats.simulated_ops + s.stats.skipped_ops, total_ops);
            prop_assert_eq!(s.result.sim.activity.completed, total_ops);
            prop_assert_eq!(s.result.sim.attribution.total(), s.result.sim.activity.cycles);
            let cpi_err = rel_err(s.stats.cpi_est, exact.sim.cpi());
            prop_assert!(
                cpi_err <= s.stats.cpi_bound_rel,
                "CPI error {:.1}% exceeds bound {:.1}%",
                cpi_err * 100.0,
                s.stats.cpi_bound_rel * 100.0
            );
        }
    }
}
