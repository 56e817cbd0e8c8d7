//! Microprobe-style parametric microbenchmarks.
//!
//! The paper uses synthetic test cases generated by Microprobe for power
//! characterization and SERMiner derating studies, varying SMT level,
//! dependency distance (DD0/DD1) and latch data initialization
//! (zero/random) — see §III-E and Fig. 13. This module generates the same
//! parameter grid as runnable workloads.

use crate::gen::{WorkloadBuilder, DATA_BASE};
use crate::workload::Workload;
use p10_isa::{Inst, Reg, TraceView};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Latch/data initialization for the testcase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataInit {
    /// All-zero data: minimal data switching.
    Zero,
    /// Random data: high data switching.
    Random,
}

/// Operation mix of the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpMix {
    /// Integer ALU only.
    Int,
    /// VSX floating point.
    Vsx,
    /// Integer + memory.
    Memory,
    /// Integer + VSX + memory.
    Mixed,
}

/// A microbenchmark specification point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MicrobenchSpec {
    /// Hardware threads intended to run this kernel (1, 2 or 4).
    pub smt: u8,
    /// Dependency distance: 0 = each op depends on the previous one,
    /// 1 = alternating chains (more ILP).
    pub dep_distance: u8,
    /// Data initialization.
    pub init: DataInit,
    /// Operation mix.
    pub mix: OpMix,
}

impl MicrobenchSpec {
    /// Canonical name, e.g. `"smt2_dd0_random"` (the Fig. 13 x-axis
    /// labels).
    #[must_use]
    pub fn name(&self) -> String {
        let smt = match self.smt {
            1 => "st".to_owned(),
            n => format!("smt{n}"),
        };
        let init = match self.init {
            DataInit::Zero => "zero",
            DataInit::Random => "random",
        };
        format!("{smt}_dd{}_{init}", self.dep_distance)
    }

    /// The generator key of [`generate`]`(self, seed)`: FNV-1a over the
    /// spec and seed, which determine the workload.
    fn generator_key(&self, seed: u64) -> u64 {
        let mut h = p10_isa::Fnv1aHasher::new();
        "microbench".hash(&mut h);
        self.hash(&mut h);
        seed.hash(&mut h);
        h.finish()
    }

    /// A zero-copy view of the first `max_ops` ops of this spec's
    /// workload seeded `seed`, served from the process-wide trace arena.
    /// The derating studies replay the same grid specs across core
    /// configs; the workload is built only when its trace must be
    /// synthesized, and freed once the trace is stored.
    ///
    /// # Panics
    ///
    /// Panics if functional execution fails (a generator bug).
    #[must_use]
    pub fn trace_view_or_panic(&self, seed: u64, max_ops: u64) -> TraceView {
        crate::arena::global()
            .view_or_build(self.generator_key(seed), max_ops, || generate(self, seed))
            .unwrap_or_else(|e| panic!("microbench {} failed to execute: {e}", self.name()))
    }
}

/// Generates the microbenchmark workload for one spec (one thread's
/// program; run `spec.smt` copies with distinct seeds for SMT), counted
/// in the `workloads.builds` counter. Nothing is memoized; callers that
/// need only the trace use [`MicrobenchSpec::trace_view_or_panic`].
#[must_use]
pub fn generate(spec: &MicrobenchSpec, seed: u64) -> Workload {
    p10_obs::counter("workloads.builds", 1);
    let mut w = WorkloadBuilder::new(seed);
    let ops_per_iter = 24u32;

    // Register working set initialization.
    let init_vals: Vec<i64> = (0..16)
        .map(|i| match spec.init {
            DataInit::Zero => 0,
            DataInit::Random => {
                let r: i64 = w.rng().gen();
                r.wrapping_add(i)
            }
        })
        .collect();
    {
        let b = &mut w.b;
        b.li(Reg::gpr(1), DATA_BASE as i64);
        for (i, v) in init_vals.iter().enumerate() {
            // Large random immediates use prefixed li; that is fine.
            b.li(Reg::gpr(8 + i as u16), *v & 0xffff);
        }
        b.li(Reg::gpr(30), i64::MAX / 2);
        b.mtctr(Reg::gpr(30));
    }
    let top = w.b.bind_label();
    {
        let b = &mut w.b;
        for k in 0..ops_per_iter {
            // Dependency pattern: DD0 reuses one register; DD1 alternates.
            let chains = u16::from(spec.dep_distance) + 1;
            let r = 8 + (k as u16 % chains);
            match spec.mix {
                OpMix::Int => {
                    b.addi(Reg::gpr(r), Reg::gpr(r), 1);
                }
                OpMix::Vsx => {
                    let xt = 40 + (k as u16 % (2 * chains));
                    b.push(Inst::Xvmaddadp {
                        xt: Reg::vsr(xt),
                        xa: Reg::vsr(32),
                        xb: Reg::vsr(33),
                    });
                }
                OpMix::Memory => {
                    if k % 3 == 0 {
                        b.ld(Reg::gpr(r), Reg::gpr(1), i64::from(k) * 8);
                    } else if k % 3 == 1 {
                        b.std(Reg::gpr(r), Reg::gpr(1), 256 + i64::from(k) * 8);
                    } else {
                        b.addi(Reg::gpr(r), Reg::gpr(r), 1);
                    }
                }
                OpMix::Mixed => {
                    if k % 4 == 0 {
                        b.ld(Reg::gpr(r), Reg::gpr(1), i64::from(k) * 8);
                    } else if k % 4 == 1 {
                        let xt = 40 + (k as u16 % 4);
                        b.push(Inst::Xvmaddadp {
                            xt: Reg::vsr(xt),
                            xa: Reg::vsr(32),
                            xb: Reg::vsr(33),
                        });
                    } else {
                        b.addi(Reg::gpr(r), Reg::gpr(r), 1);
                    }
                }
            }
        }
        b.bdnz(top);
    }

    // Data memory initialization.
    for i in 0..256u64 {
        let v = match spec.init {
            DataInit::Zero => 0u64,
            DataInit::Random => w.rng().gen(),
        };
        w.init_word(DATA_BASE + i * 8, v);
    }

    w.finish(&spec.name())
}

/// The Fig. 13 testcase grid: {ST, SMT2, SMT4} × {DD0, DD1} ×
/// {zero, random}, `Mixed` op mix (12 points, plus the SPEC proxies which
/// the caller appends).
#[must_use]
pub fn derating_grid() -> Vec<MicrobenchSpec> {
    let mut v = Vec::new();
    for smt in [1u8, 2, 4] {
        for dd in [0u8, 1] {
            for init in [DataInit::Random, DataInit::Zero] {
                v.push(MicrobenchSpec {
                    smt,
                    dep_distance: dd,
                    init,
                    mix: OpMix::Mixed,
                });
            }
        }
    }
    v
}

/// A broad training corpus of microbenchmark specs for the power-model
/// experiments (all mixes × DD × init).
#[must_use]
pub fn training_grid() -> Vec<MicrobenchSpec> {
    let mut v = Vec::new();
    for mix in [OpMix::Int, OpMix::Vsx, OpMix::Memory, OpMix::Mixed] {
        for dd in [0u8, 1] {
            for init in [DataInit::Zero, DataInit::Random] {
                for smt in [1u8, 2] {
                    v.push(MicrobenchSpec {
                        smt,
                        dep_distance: dd,
                        init,
                        mix,
                    });
                }
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_fig13_convention() {
        let s = MicrobenchSpec {
            smt: 2,
            dep_distance: 0,
            init: DataInit::Random,
            mix: OpMix::Mixed,
        };
        assert_eq!(s.name(), "smt2_dd0_random");
        let st = MicrobenchSpec {
            smt: 1,
            dep_distance: 1,
            init: DataInit::Zero,
            mix: OpMix::Int,
        };
        assert_eq!(st.name(), "st_dd1_zero");
    }

    #[test]
    fn derating_grid_is_twelve_points() {
        let g = derating_grid();
        assert_eq!(g.len(), 12);
        let mut names: Vec<_> = g.iter().map(MicrobenchSpec::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn all_microbenches_execute() {
        for spec in training_grid() {
            let w = generate(&spec, 3);
            let t = w.trace_view(2_000).unwrap();
            assert_eq!(t.len(), 2_000, "{} must loop", spec.name());
        }
    }

    #[test]
    fn dd1_has_more_ilp_than_dd0() {
        // DD1 alternates two chains, so dependent-chain length halves.
        let dd0 = generate(
            &MicrobenchSpec {
                smt: 1,
                dep_distance: 0,
                init: DataInit::Zero,
                mix: OpMix::Int,
            },
            1,
        );
        let t = dd0.trace_view(1_000).unwrap();
        // Every int op writes r8 in DD0.
        let int_ops: Vec<_> = t
            .iter()
            .filter(|o| o.class == p10_isa::OpClass::IntAlu && o.dest().is_some())
            .collect();
        let all_same = int_ops
            .iter()
            .filter(|o| o.dest() == Some(Reg::gpr(8)))
            .count();
        assert!(all_same > int_ops.len() * 2 / 3);
    }

    #[test]
    fn vsx_mix_emits_vector_ops() {
        let w = generate(
            &MicrobenchSpec {
                smt: 1,
                dep_distance: 1,
                init: DataInit::Random,
                mix: OpMix::Vsx,
            },
            9,
        );
        let t = w.trace_view(2_000).unwrap();
        let vsx = t.iter().filter(|o| o.class == p10_isa::OpClass::VsxFp);
        assert!(vsx.count() as f64 / t.len() as f64 > 0.5);
    }
}
