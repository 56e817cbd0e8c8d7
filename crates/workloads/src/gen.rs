//! Workload synthesis building blocks.
//!
//! [`WorkloadBuilder`] wraps a program builder plus deferred memory
//! initialization (including *label fixups* so jump tables in data memory
//! can hold code addresses resolved at build time). [`synthesize`] turns a
//! behavioural [`Signature`] into a runnable [`Workload`] — every
//! benchmark in [`crate::suite`] is one signature.

use crate::workload::{FunctionSpan, Workload};
use p10_isa::{Cond, Inst, Label, Machine, ProgramBuilder, Reg};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Data-segment base address for synthesized workloads.
pub const DATA_BASE: u64 = 0x100_0000;

/// Behavioural signature of a synthetic benchmark.
///
/// Each field is a knob over one micro-architectural behaviour; the suite
/// in [`crate::suite`] documents which real-benchmark trait each setting
/// mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Signature {
    /// Number of indirect-dispatch handlers ("hot functions"); 0 disables
    /// the dispatch block.
    pub handlers: usize,
    /// Zipf skew of handler weights (higher = more concentrated).
    pub zipf_alpha: f64,
    /// Fraction of conditional branches whose outcome is data-random
    /// (0.0 = fully predictable periodic patterns, 1.0 = coin flips).
    pub branch_entropy: f64,
    /// Data footprint in KiB (streamed loads sweep this).
    pub footprint_kb: u64,
    /// Pointer-chase loads per iteration (dependent, cache-hostile when
    /// the ring exceeds the caches).
    pub chase_loads: u32,
    /// Strided loads per iteration.
    pub stride_loads: u32,
    /// Stores per iteration (emitted in adjacent pairs when >= 2, making
    /// them fusable/gatherable).
    pub stores: u32,
    /// Dependent integer ALU chain length per iteration.
    pub int_chain: u32,
    /// Independent integer ALU ops per iteration.
    pub int_parallel: u32,
    /// Integer multiplies per iteration.
    pub muls: u32,
    /// VSX double-precision FMAs per iteration.
    pub vsx_fmas: u32,
    /// Conditional branches per iteration.
    pub branches: u32,
    /// Leaf functions called (bl/blr) per iteration — exercises the
    /// return stack.
    pub calls: u32,
    /// Extra padding blocks per handler, to spread code and pressure the
    /// L1I.
    pub code_padding: u32,
}

impl std::hash::Hash for Signature {
    /// Hashes every knob (floats by bit pattern) — with the benchmark
    /// name and generator seed, this identifies the exact workload a
    /// signature synthesizes: the generator key a trace request looks up
    /// in the trace arena without building the workload
    /// ([`crate::Benchmark::generator_key`]).
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.handlers.hash(state);
        self.zipf_alpha.to_bits().hash(state);
        self.branch_entropy.to_bits().hash(state);
        self.footprint_kb.hash(state);
        self.chase_loads.hash(state);
        self.stride_loads.hash(state);
        self.stores.hash(state);
        self.int_chain.hash(state);
        self.int_parallel.hash(state);
        self.muls.hash(state);
        self.vsx_fmas.hash(state);
        self.branches.hash(state);
        self.calls.hash(state);
        self.code_padding.hash(state);
    }
}

impl Default for Signature {
    fn default() -> Self {
        Signature {
            handlers: 0,
            zipf_alpha: 1.0,
            branch_entropy: 0.3,
            footprint_kb: 64,
            chase_loads: 0,
            stride_loads: 4,
            stores: 2,
            int_chain: 4,
            int_parallel: 6,
            muls: 1,
            vsx_fmas: 0,
            branches: 3,
            calls: 1,
            code_padding: 0,
        }
    }
}

/// Builder pairing a program with deferred memory initialization.
#[derive(Debug)]
pub struct WorkloadBuilder {
    /// The underlying program builder.
    pub b: ProgramBuilder,
    mem_words: Vec<(u64, u64)>,
    fixups: Vec<(u64, Label)>,
    functions: Vec<FunctionSpan>,
    rng: SmallRng,
}

impl WorkloadBuilder {
    /// Creates a builder with a deterministic RNG.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        WorkloadBuilder {
            b: ProgramBuilder::new(),
            mem_words: Vec::new(),
            fixups: Vec::new(),
            functions: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Schedules a 64-bit memory write applied before execution.
    pub fn init_word(&mut self, addr: u64, value: u64) {
        self.mem_words.push((addr, value));
    }

    /// Schedules writing the *code address* of `label` at `addr`.
    pub fn init_code_ptr(&mut self, addr: u64, label: Label) {
        self.fixups.push((addr, label));
    }

    /// Records that instructions `[start, end)` form a named function.
    pub fn record_function(&mut self, name: &str, start: usize, end: usize) {
        self.functions.push(FunctionSpan {
            name: name.to_owned(),
            start,
            end,
        });
    }

    /// Access to the deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Finalizes into a [`Workload`].
    #[must_use]
    pub fn finish(self, name: &str) -> Workload {
        let program = self.b.build();
        let mut machine = Machine::new();
        for (addr, val) in self.mem_words {
            machine.mem.write_u64(addr, val);
        }
        for (addr, label) in self.fixups {
            machine.mem.write_u64(addr, program.resolve_addr(label));
        }
        Workload::new(name.to_owned(), program, machine, self.functions)
    }
}

// Register conventions inside synthesized loops:
//   r1  = streaming data pointer      r2  = xorshift state
//   r3  = pointer-chase cursor        r5  = scratch
//   r6  = periodic counter            r7  = accumulator
//   r8  = jump-table base             r9..r27 = ALU working set
//   r28 = footprint base              r29 = footprint limit

/// Emits a xorshift step on `r2` (3 dependent ALU ops).
fn emit_scramble(b: &mut ProgramBuilder) {
    b.push(Inst::Srdi {
        rt: Reg::gpr(5),
        ra: Reg::gpr(2),
        sh: 7,
    });
    b.push(Inst::Xor {
        rt: Reg::gpr(2),
        ra: Reg::gpr(2),
        rb: Reg::gpr(5),
    });
    b.push(Inst::Sldi {
        rt: Reg::gpr(5),
        ra: Reg::gpr(2),
        sh: 9,
    });
    b.push(Inst::Xor {
        rt: Reg::gpr(2),
        ra: Reg::gpr(2),
        rb: Reg::gpr(5),
    });
}

/// Synthesizes a workload from a behavioural signature.
///
/// The program layout is: prologue (constants, counter), main loop
/// (scramble → dispatch → calls → loads → stores → compute → branches),
/// with handlers and leaf functions after the main loop. The loop runs
/// `iterations` times (use a large value and bound execution with
/// `max_ops` instead — the paper's proxies are endless loops).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn synthesize(name: &str, sig: &Signature, seed: u64, iterations: i64) -> Workload {
    let mut w = WorkloadBuilder::new(seed ^ 0x5eed);
    let footprint = sig.footprint_kb.max(1) * 1024;
    let table_base = DATA_BASE + footprint + 4096;
    let ring_base = table_base + 8 * 64;

    // ---- prologue ----
    {
        let b = &mut w.b;
        b.li(Reg::gpr(1), DATA_BASE as i64);
        b.li(Reg::gpr(28), DATA_BASE as i64);
        b.li(Reg::gpr(29), (DATA_BASE + footprint) as i64);
        b.li(Reg::gpr(2), 0x9e37_79b9_7f4a_i64 ^ (seed as i64 & 0xffff));
        b.li(Reg::gpr(3), ring_base as i64);
        b.li(Reg::gpr(6), 0);
        b.li(Reg::gpr(7), 0);
        b.li(Reg::gpr(8), table_base as i64);
        for r in 9..28 {
            b.li(Reg::gpr(r), i64::from(r) * 3 + 1);
        }
        b.li(Reg::gpr(26), 11); // dispatch-walk stride (coprime with 64)
        b.li(Reg::gpr(30), iterations);
        b.mtctr(Reg::gpr(30));
    }

    // Labels we need before emitting the loop body.
    let join = w.b.label();
    let handler_labels: Vec<Label> = (0..sig.handlers).map(|_| w.b.label()).collect();
    let leaf_labels: Vec<Label> = (0..sig.calls.max(1) as usize)
        .map(|_| w.b.label())
        .collect();

    // Zipf-weighted jump table (64 slots).
    if sig.handlers > 0 {
        let weights: Vec<f64> = (0..sig.handlers)
            .map(|r| 1.0 / ((r + 1) as f64).powf(sig.zipf_alpha))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut slots = Vec::with_capacity(64);
        for (h, wgt) in weights.iter().enumerate() {
            let n = ((wgt / total) * 64.0).round().max(1.0) as usize;
            for _ in 0..n {
                slots.push(h);
            }
        }
        slots.truncate(64);
        while slots.len() < 64 {
            slots.push(0);
        }
        for (i, h) in slots.iter().enumerate() {
            w.init_code_ptr(table_base + 8 * i as u64, handler_labels[*h]);
        }
    }

    // ---- main loop ----
    let top = w.b.bind_label();
    let loop_start = w.b.len();
    {
        let b = &mut w.b;
        emit_scramble(b);

        // Periodic counter.
        b.addi(Reg::gpr(6), Reg::gpr(6), 1);

        // Indirect dispatch through the jump table. Real dispatch streams
        // (interpreters, virtual calls) are mostly repeating with rare
        // excursions, so the slot index follows a deterministic walk and,
        // with probability 2^-gate_bits (scaled by the entropy knob),
        // jumps to a fully random slot. A long-context indirect predictor
        // learns the walk; a short-context one cannot disambiguate it.
        if sig.handlers > 0 {
            let gate_bits = (4.0 - sig.branch_entropy * 4.0).round().clamp(1.0, 4.0) as u8;
            // t = (r2 >> 29) & ((1 << gate_bits) - 1)
            b.push(Inst::Srdi {
                rt: Reg::gpr(4),
                ra: Reg::gpr(2),
                sh: 29,
            });
            b.push(Inst::Sldi {
                rt: Reg::gpr(4),
                ra: Reg::gpr(4),
                sh: 64 - gate_bits,
            });
            b.push(Inst::Srdi {
                rt: Reg::gpr(4),
                ra: Reg::gpr(4),
                sh: 64 - gate_bits,
            });
            // v = (t != 0) as mask source: (t | -t) >> 63
            b.push(Inst::Neg {
                rt: Reg::gpr(5),
                ra: Reg::gpr(4),
            });
            b.push(Inst::Or {
                rt: Reg::gpr(5),
                ra: Reg::gpr(5),
                rb: Reg::gpr(4),
            });
            b.push(Inst::Srdi {
                rt: Reg::gpr(5),
                ra: Reg::gpr(5),
                sh: 63,
            });
            // r5 = 63 * (1 - v): all-ones 6-bit mask iff t == 0
            b.li(Reg::gpr(4), 1);
            b.sub(Reg::gpr(4), Reg::gpr(4), Reg::gpr(5));
            b.push(Inst::Sldi {
                rt: Reg::gpr(5),
                ra: Reg::gpr(4),
                sh: 6,
            });
            b.sub(Reg::gpr(5), Reg::gpr(5), Reg::gpr(4));
            // rand6 = (r2 >> 13) & 63, gated by the mask
            b.push(Inst::Srdi {
                rt: Reg::gpr(4),
                ra: Reg::gpr(2),
                sh: 13,
            });
            b.push(Inst::Sldi {
                rt: Reg::gpr(4),
                ra: Reg::gpr(4),
                sh: 58,
            });
            b.push(Inst::Srdi {
                rt: Reg::gpr(4),
                ra: Reg::gpr(4),
                sh: 58,
            });
            b.push(Inst::And {
                rt: Reg::gpr(4),
                ra: Reg::gpr(4),
                rb: Reg::gpr(5),
            });
            // slot = ((11 * iter) ^ gated_rand) & 63, times 8
            b.mulld(Reg::gpr(5), Reg::gpr(6), Reg::gpr(26)); // r26 = 11
            b.push(Inst::Xor {
                rt: Reg::gpr(5),
                ra: Reg::gpr(5),
                rb: Reg::gpr(4),
            });
            b.push(Inst::Sldi {
                rt: Reg::gpr(5),
                ra: Reg::gpr(5),
                sh: 58,
            });
            b.push(Inst::Srdi {
                rt: Reg::gpr(5),
                ra: Reg::gpr(5),
                sh: 55,
            });
            b.push(Inst::Ldx {
                rt: Reg::gpr(4),
                ra: Reg::gpr(8),
                rb: Reg::gpr(5),
            });
            b.push(Inst::Mtctr { ra: Reg::gpr(4) });
            b.push(Inst::Bctr);
        }
    }
    // Dispatch lands back here.
    if sig.handlers > 0 {
        w.b.bind(join);
    } else {
        // keep the label bound to satisfy the builder
        w.b.bind(join);
    }

    {
        let b = &mut w.b;
        // Leaf calls (predictable alternation).
        for k in 0..sig.calls as usize {
            b.bl(leaf_labels[k % leaf_labels.len()]);
        }

        // Pointer chase (dependent loads through the ring).
        for _ in 0..sig.chase_loads {
            b.ld(Reg::gpr(3), Reg::gpr(3), 0);
        }

        // Strided loads sweeping the footprint: one cache line per load,
        // advancing by the full group each iteration, so the working set
        // is re-visited once the sweep wraps (this is what makes L2
        // capacity matter).
        for k in 0..sig.stride_loads {
            b.ld(
                Reg::gpr(9 + (k % 4) as u16),
                Reg::gpr(1),
                i64::from(k) * 128,
            );
        }
        if sig.stride_loads > 0 {
            b.addi(Reg::gpr(1), Reg::gpr(1), i64::from(sig.stride_loads) * 128);
        }

        // Wrap the streaming pointer at the footprint limit.
        // cmp r1, r29 ; blt nowrap ; mr r1, r28
        let bb = &mut *w.b.push(Inst::Cmp {
            bf: Reg::cr(2),
            ra: Reg::gpr(1),
            rb: Reg::gpr(29),
        });
        let nowrap = bb.label();
        bb.bc(Cond::Lt, Reg::cr(2), nowrap);
        bb.addi(Reg::gpr(1), Reg::gpr(28), 0);
        bb.bind(nowrap);

        // Stores (adjacent pairs are fusable / gatherable).
        for k in 0..sig.stores {
            bb.std(Reg::gpr(7), Reg::gpr(28), 512 + i64::from(k) * 8);
        }

        // Dependent integer chain.
        for _ in 0..sig.int_chain {
            bb.addi(Reg::gpr(7), Reg::gpr(7), 1);
        }
        // Independent integer ops (r9..r15; r16..r19 are reserved for the
        // periodic branch counters).
        for k in 0..sig.int_parallel {
            let r = 9 + (k % 7) as u16;
            bb.addi(Reg::gpr(r), Reg::gpr(r), 3);
        }
        for _ in 0..sig.muls {
            bb.mulld(Reg::gpr(24), Reg::gpr(24), Reg::gpr(25));
        }

        // VSX block.
        for k in 0..sig.vsx_fmas {
            let xt = 40 + (k % 8) as u16;
            bb.push(Inst::Xvmaddadp {
                xt: Reg::vsr(xt),
                xa: Reg::vsr(32),
                xb: Reg::vsr(33),
            });
        }
    }

    // Conditional branches with controlled entropy.
    let random_branches = (f64::from(sig.branches) * sig.branch_entropy).round() as u32;
    for k in 0..sig.branches {
        let b = &mut w.b;
        if k < random_branches {
            // Data-random but biased: test two scrambled bits, branch
            // taken ~75% of the time (real data-dependent branches are
            // biased, not coin flips; predictors get them wrong on the
            // ~25% minority outcomes).
            b.push(Inst::Srdi {
                rt: Reg::gpr(5),
                ra: Reg::gpr(2),
                sh: (13 + k * 3) as u8 & 63,
            });
            b.push(Inst::Sldi {
                rt: Reg::gpr(5),
                ra: Reg::gpr(5),
                sh: 62,
            });
            b.cmpi(Reg::cr(0), Reg::gpr(5), 0);
            let skip = b.label();
            b.bc(Cond::Eq, Reg::cr(0), skip);
            b.addi(Reg::gpr(7), Reg::gpr(7), 5);
            b.bind(skip);
        } else {
            // Periodic: a private mod-P counter; the branch is taken P-1
            // out of P times. Short periods are learnable by any history
            // predictor; long periods (24+) exceed the base predictor's
            // history window and reward POWER10's long-history component.
            let periods = [5i64, 24, 12, 7, 48, 9];
            let pk = (k - random_branches) as usize;
            let reg = Reg::gpr(16 + (pk % 4) as u16);
            let period = periods[pk % periods.len()];
            b.addi(reg, reg, 1);
            b.cmpi(Reg::cr(0), reg, period);
            let wrap = b.label();
            b.bc(Cond::Lt, Reg::cr(0), wrap); // taken P-1 of P times
            b.li(reg, 0);
            b.addi(Reg::gpr(7), Reg::gpr(7), 5);
            b.bind(wrap);
        }
    }

    w.b.bdnz(top);
    let after_loop = w.b.label();
    w.b.b(after_loop);
    let loop_end = w.b.len();
    w.record_function("main_loop", loop_start, loop_end);

    // ---- handlers ----
    for (h, label) in handler_labels.iter().enumerate() {
        let start = w.b.len();
        w.b.bind(*label);
        // Handler body: a few ops, heavier for low-ranked (rare) handlers,
        // plus code padding for icache pressure.
        let body = 4 + (h % 5) as u32 + sig.code_padding * 8;
        for k in 0..body {
            let r = 9 + (k % 7) as u16;
            w.b.addi(Reg::gpr(r), Reg::gpr(r), i64::from(h as u32 + 1));
        }
        w.b.b(join);
        let end = w.b.len();
        w.record_function(&format!("handler_{h}"), start, end);
    }

    // ---- leaf functions ----
    for (i, label) in leaf_labels.iter().enumerate() {
        let start = w.b.len();
        w.b.bind(*label);
        for k in 0..3 {
            let r = 20 + ((i + k) % 6) as u16;
            w.b.addi(Reg::gpr(r), Reg::gpr(r), 7);
        }
        w.b.blr();
        let end = w.b.len();
        w.record_function(&format!("leaf_{i}"), start, end);
    }

    w.b.bind(after_loop);
    w.b.nop();

    // ---- memory initialization ----
    // Pointer-chase ring: shuffled permutation over the footprint.
    if sig.chase_loads > 0 {
        let nodes = ((sig.footprint_kb * 1024) / 128).clamp(16, 65_536) as usize;
        let mut order: Vec<u64> = (0..nodes as u64).collect();
        // Fisher-Yates with the builder's RNG.
        for i in (1..order.len()).rev() {
            let j = w.rng().gen_range(0..=i);
            order.swap(i, j);
        }
        for i in 0..nodes {
            let from = ring_base + order[i] * 128;
            let to = ring_base + order[(i + 1) % nodes] * 128;
            w.init_word(from, to);
        }
    }
    // Streamed data: fill with values.
    for k in 0..(footprint / 8).min(4096) {
        let v = k.wrapping_mul(0x2545_f491_4f6c_dd1d);
        w.init_word(DATA_BASE + k * 8, v);
    }

    w.finish(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_workload_executes() {
        let sig = Signature::default();
        let w = synthesize("basic", &sig, 42, 1 << 40);
        let t = w.trace_view(20_000).expect("must execute");
        assert_eq!(t.len(), 20_000, "endless loop bounded by max_ops");
    }

    #[test]
    fn deterministic_given_seed() {
        let sig = Signature {
            handlers: 4,
            chase_loads: 2,
            ..Signature::default()
        };
        // Executed outside the arena, so the two traces are compared op by
        // op rather than found to share one buffer.
        let a = synthesize("d", &sig, 7, 1 << 40).trace_uncached(5_000);
        let b = synthesize("d", &sig, 7, 1 << 40).trace_uncached(5_000);
        assert_eq!(a.expect("runs"), b.expect("runs"));
    }

    #[test]
    fn different_seeds_differ() {
        let sig = Signature {
            handlers: 4,
            branch_entropy: 0.8,
            ..Signature::default()
        };
        let a = synthesize("d", &sig, 1, 1 << 40).trace_view_or_panic(5_000);
        let b = synthesize("d", &sig, 2, 1 << 40).trace_view_or_panic(5_000);
        assert_ne!(a, b);
    }

    #[test]
    fn dispatch_produces_indirect_branches() {
        let sig = Signature {
            handlers: 8,
            ..Signature::default()
        };
        let w = synthesize("ind", &sig, 3, 1 << 40);
        let t = w.trace_view_or_panic(10_000);
        let indirect = t
            .iter()
            .filter(|o| {
                o.branch
                    .is_some_and(|bi| bi.kind == p10_isa::BranchKind::Indirect)
            })
            .count();
        assert!(indirect > 50, "dispatch must emit bctr, got {indirect}");
    }

    #[test]
    fn calls_produce_call_return_pairs() {
        let sig = Signature {
            calls: 2,
            ..Signature::default()
        };
        let t = synthesize("c", &sig, 3, 1 << 40).trace_view_or_panic(10_000);
        let calls = t
            .iter()
            .filter(|o| {
                o.branch
                    .is_some_and(|bi| bi.kind == p10_isa::BranchKind::Call)
            })
            .count();
        let rets = t
            .iter()
            .filter(|o| {
                o.branch
                    .is_some_and(|bi| bi.kind == p10_isa::BranchKind::Return)
            })
            .count();
        assert!(calls > 100);
        assert!((calls as i64 - rets as i64).abs() <= 2);
    }

    #[test]
    fn chase_loads_follow_the_ring() {
        let sig = Signature {
            chase_loads: 2,
            footprint_kb: 256,
            ..Signature::default()
        };
        let t = synthesize("chase", &sig, 5, 1 << 40).trace_view_or_panic(20_000);
        // Chase loads must produce loads at non-monotonic addresses.
        let mut chase_addrs: Vec<u64> = t
            .iter()
            .filter(|o| o.is_load())
            .filter_map(|o| o.mem)
            .map(|m| m.addr)
            .collect();
        assert!(chase_addrs.len() > 100);
        chase_addrs.dedup();
        assert!(chase_addrs.len() > 50);
    }

    #[test]
    fn functions_recorded_with_spans() {
        let sig = Signature {
            handlers: 6,
            calls: 2,
            ..Signature::default()
        };
        let w = synthesize("fs", &sig, 9, 1 << 40);
        assert!(w.functions.iter().any(|f| f.name == "main_loop"));
        assert_eq!(
            w.functions
                .iter()
                .filter(|f| f.name.starts_with("handler_"))
                .count(),
            6
        );
        for f in &w.functions {
            assert!(f.start < f.end, "span {f:?} must be non-empty");
            assert!(f.end <= w.program.len());
        }
    }

    #[test]
    fn branch_entropy_controls_predictability() {
        // More entropy => more distinct branch-direction randomness. We
        // check via the functional trace: the fraction of taken outcomes
        // of random branches hovers near 50%.
        let sig = Signature {
            branches: 4,
            branch_entropy: 1.0,
            ..Signature::default()
        };
        let t = synthesize("e", &sig, 11, 1 << 40).trace_view_or_panic(30_000);
        let cond: Vec<bool> = t
            .iter()
            .filter_map(|o| o.branch)
            .filter(|bi| bi.kind == p10_isa::BranchKind::Conditional)
            .map(|bi| bi.taken)
            .collect();
        let taken = cond.iter().filter(|&&x| x).count() as f64 / cond.len() as f64;
        assert!(
            taken > 0.25 && taken < 0.75,
            "random branches should be balanced-ish, got {taken}"
        );
    }
}
