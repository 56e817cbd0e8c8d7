//! Property-based tests on core invariants (proptest).

use p10sim::isa::{Cond, Inst, Machine, ProgramBuilder, Reg, TraceView};
use p10sim::power::PowerModel;
use p10sim::uarch::{Activity, Core, CoreConfig};
use proptest::prelude::*;

/// Strategy: a random straight-line-plus-loop program over a safe
/// register/memory window.
pub fn arb_body_op() -> impl Strategy<Value = Inst> {
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
        (3u16..20, 3u16..20, 3u16..20).prop_map(|(t, a, b)| Inst::Xor {
            rt: Reg::gpr(t),
            ra: Reg::gpr(a),
            rb: Reg::gpr(b)
        }),
        (3u16..20, 3u16..20).prop_map(|(t, a)| Inst::Mulld {
            rt: Reg::gpr(t),
            ra: Reg::gpr(a),
            rb: Reg::gpr(a)
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

pub fn build_program(body: &[Inst], iters: i64) -> p10sim::isa::Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::gpr(1), 0x20_0000);
    b.li(Reg::gpr(2), iters);
    b.mtctr(Reg::gpr(2));
    let top = b.bind_label();
    for inst in body {
        if let Inst::Cmpi { .. } = inst {
            // Pair each compare with a short forward branch so CR writes
            // feed real control flow.
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
    b.build()
}

fn run_functional(program: &p10sim::isa::Program) -> (Machine, TraceView) {
    let mut m = Machine::new();
    for i in 0..256u64 {
        m.mem
            .write_u64(0x20_0000 + i * 8, i.wrapping_mul(0x1234_5678));
    }
    let t = m
        .run(program, 200_000)
        .expect("generated programs are valid");
    (m, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Functional execution is deterministic.
    #[test]
    fn functional_execution_deterministic(body in proptest::collection::vec(arb_body_op(), 1..20), iters in 1i64..40) {
        let p = build_program(&body, iters);
        let (m1, t1) = run_functional(&p);
        let (m2, t2) = run_functional(&p);
        prop_assert_eq!(t1.len(), t2.len());
        prop_assert_eq!(t1, t2);
        for r in 0..32 {
            prop_assert_eq!(m1.gpr(r), m2.gpr(r));
        }
    }

    /// The pipeline retires exactly the trace it is given, on any config,
    /// and the cycle count is bounded below by ops/width.
    #[test]
    fn pipeline_completes_all_ops(body in proptest::collection::vec(arb_body_op(), 1..16), iters in 1i64..30) {
        let p = build_program(&body, iters);
        let (_, trace) = run_functional(&p);
        let n = trace.len() as u64;
        for cfg in [CoreConfig::power9(), CoreConfig::power10()] {
            let width = u64::from(cfg.completion_width);
            let r = Core::new(cfg).run(vec![trace.clone()], 10_000_000);
            prop_assert_eq!(r.activity.completed, n);
            prop_assert!(r.activity.cycles >= n / width);
        }
    }

    /// Timing is deterministic: same trace, same config, same cycles.
    #[test]
    fn pipeline_deterministic(body in proptest::collection::vec(arb_body_op(), 1..12), iters in 1i64..20) {
        let p = build_program(&body, iters);
        let (_, trace) = run_functional(&p);
        let a = Core::new(CoreConfig::power10()).run(vec![trace.clone()], 10_000_000);
        let b = Core::new(CoreConfig::power10()).run(vec![trace], 10_000_000);
        prop_assert_eq!(a.activity, b.activity);
    }

    /// Power-model additivity and monotonicity: doubling every activity
    /// counter (at fixed cycles) never lowers dynamic power.
    #[test]
    fn power_monotone_in_activity(scale in 2u64..5) {
        let cfg = CoreConfig::power10();
        let model = PowerModel::for_config(&cfg);
        let mut base = Activity {
            cycles: 10_000,
            completed: 12_000,
            ..Activity::default()
        };
        base.fetched = 12_500;
        base.decoded = 12_500;
        base.dispatched = 12_500;
        base.issued = 12_500;
        base.alu_ops = 8_000;
        base.loads = 2_000;
        base.l1d_accesses = 2_500;
        base.regfile_reads = 20_000;
        base.regfile_writes = 9_000;
        let mut scaled = base;
        scaled.completed *= scale;
        scaled.fetched *= scale;
        scaled.decoded *= scale;
        scaled.dispatched *= scale;
        scaled.issued *= scale;
        scaled.alu_ops *= scale;
        scaled.loads *= scale;
        scaled.l1d_accesses *= scale;
        scaled.regfile_reads *= scale;
        scaled.regfile_writes *= scale;
        let p0 = model.evaluate(&base);
        let p1 = model.evaluate(&scaled);
        prop_assert!(p1.total() >= p0.total());
        prop_assert!(p1.active() >= p0.active());
    }

    /// LFSR counters recover any count below the period exactly.
    #[test]
    fn lfsr_count_roundtrip(n in 0u64..65_534) {
        use p10sim::apex::lfsr::Lfsr16;
        let start = Lfsr16::new();
        let mut c = start;
        c.tick_n(n);
        prop_assert_eq!(u64::from(c.count_since(&start)), n);
    }

    /// WOF is monotone: heavier workloads never get a higher frequency.
    #[test]
    fn wof_monotone(c1 in 0.3f64..2.0, c2 in 0.3f64..2.0) {
        use p10sim::powermgmt::wof::{solve, WofConfig};
        let cfg = WofConfig::typical();
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let d_light = solve(&cfg, lo, 0.0);
        let d_heavy = solve(&cfg, hi, 0.0);
        prop_assert!(d_light.point.freq >= d_heavy.point.freq - 1e-9);
    }
}

mod cache_props {
    use p10sim::uarch::{Activity, Cache, CacheConfig, CoreConfig, MemHierarchy};
    use proptest::prelude::*;

    fn small_cache_cfg() -> CacheConfig {
        CacheConfig {
            size_bytes: 4 * 128 * 4, // 4 sets, 4 ways
            ways: 4,
            line_bytes: 128,
            latency: 1,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Immediately re-accessing an address always hits (MRU retention).
        #[test]
        fn mru_is_never_evicted_by_its_own_access(addrs in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut c = Cache::new(&small_cache_cfg());
            for a in addrs {
                c.access(a);
                prop_assert!(c.probe(a), "address {a:#x} must be resident right after access");
            }
        }

        /// A strictly larger cache (same geometry otherwise) never misses
        /// more on any access sequence (LRU inclusion property).
        #[test]
        fn bigger_cache_never_misses_more(addrs in proptest::collection::vec(0u64..1_000_000, 1..300)) {
            // Same set count, 4x the ways: the classic LRU stack/inclusion
            // property guarantees the bigger cache never misses more.
            let small = small_cache_cfg();
            let big = CacheConfig {
                size_bytes: small.size_bytes * 4,
                ways: small.ways * 4,
                ..small
            };
            let mut cs = Cache::new(&small);
            let mut cb = Cache::new(&big);
            let mut miss_s = 0u32;
            let mut miss_b = 0u32;
            for a in addrs {
                if !cs.access(a).hit { miss_s += 1; }
                if !cb.access(a).hit { miss_b += 1; }
            }
            // Higher associativity with same sets: classic LRU inclusion.
            prop_assert!(miss_b <= miss_s, "bigger {miss_b} vs smaller {miss_s}");
        }

        /// Hierarchy invariants hold on arbitrary access streams:
        /// misses never exceed accesses at any level, and L3 traffic never
        /// exceeds L2 misses.
        #[test]
        fn hierarchy_counter_invariants(addrs in proptest::collection::vec(0u64..(1u64<<24), 1..400)) {
            let cfg = CoreConfig::power9();
            let mut h = MemHierarchy::new(&cfg);
            let mut act = Activity::default();
            for a in &addrs {
                h.access_data(*a, &mut act);
            }
            prop_assert!(act.l1d_misses <= act.l1d_accesses);
            prop_assert!(act.l2_misses <= act.l2_accesses);
            prop_assert!(act.l3_misses <= act.l3_accesses);
            prop_assert!(act.l3_accesses == act.l2_misses);
            prop_assert!(act.l2_accesses >= act.l1d_misses);
            prop_assert_eq!(act.l1d_accesses, addrs.len() as u64);
        }
    }
}

mod asm_props {
    use super::{arb_body_op, build_program};
    use p10sim::isa::asm::{assemble, disassemble};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Disassemble → assemble is the identity on instruction streams,
        /// for arbitrary generated programs (including branches/labels).
        #[test]
        fn disassemble_assemble_roundtrip(body in proptest::collection::vec(arb_body_op(), 1..24), iters in 1i64..20) {
            let p = build_program(&body, iters);
            let text = disassemble(&p);
            let p2 = assemble(&text).map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
            prop_assert_eq!(p.insts(), p2.insts());
        }
    }
}

mod compact_traces {
    use p10sim::isa::{DynOp, Machine, Program, TraceView};
    use p10sim::kernels::{extra, gemm};
    use p10sim::workloads::{chopstix, microbench, specint_like, Workload};

    /// Ops per trace.
    const OPS: u64 = 5_000;

    /// The ops functional execution emits, one by one through
    /// `run_with`, collected outside any trace storage.
    fn executed(machine: &Machine, program: &Program) -> Vec<DynOp> {
        let mut ops = Vec::new();
        machine
            .clone()
            .run_with(program, OPS, |op| ops.push(op))
            .expect("runs");
        ops
    }

    fn assert_rebuilds(name: &str, executed: &[DynOp], view: &TraceView) {
        assert_eq!(view.len(), executed.len(), "{name}: length");
        for (i, (got, want)) in view.iter().zip(executed).enumerate() {
            assert_eq!(&got, want, "{name}: op {i}");
        }
    }

    /// A workload's trace as `exec` produces it, against the arena's
    /// compact view of it.
    fn check(w: &Workload) {
        let ops = executed(&w.machine, &w.program);
        assert_rebuilds(&w.name, &ops, &w.trace_view_or_panic(OPS));
    }

    /// Every op of every SPECint-like, microbench, Chopstix-proxy and
    /// kernel trace rebuilds from compact storage equal to the `DynOp`
    /// that functional execution produced.
    #[test]
    fn every_op_rebuilds_exactly() {
        for b in specint_like() {
            check(&b.workload(3));
            // Chopstix proxies are traced outside the arena.
            for p in chopstix::extract(b.workload(3), 20_000, 2).proxies {
                let ops = executed(&p.machine, &p.program);
                assert_rebuilds(&p.name, &ops, &p.trace(OPS));
            }
        }
        for spec in microbench::training_grid()
            .into_iter()
            .chain(microbench::derating_grid())
        {
            check(&microbench::generate(&spec, 7));
        }
        for w in [
            gemm::dgemm_vsu(1 << 40),
            gemm::dgemm_mma(1 << 40),
            gemm::sgemm_vsu(1 << 40),
            gemm::sgemm_mma(1 << 40),
            gemm::int8gemm_mma(1 << 40),
            gemm::bf16gemm_mma(1 << 40),
            extra::conv3x3_mma_finite(),
            extra::trsm_mma_finite(),
            extra::dft8_mma_finite(),
        ] {
            check(&w);
        }
    }
}
