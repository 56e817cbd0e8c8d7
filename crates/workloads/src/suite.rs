//! The synthetic benchmark suite.
//!
//! Ten SPECint-like benchmarks plus interpreted/analytics and ML/HPC
//! groups. Each benchmark is a behavioural [`Signature`] chosen to mirror
//! a documented trait of its namesake (e.g. `mcfish` is a pointer-chaser
//! with a cache-hostile footprint; `xzish` concentrates execution in a
//! couple of hot functions the way xz does — the paper cites xz at 99%
//! proxy coverage and gcc at 41%).

use crate::gen::{synthesize, Signature};
use crate::workload::Workload;
use p10_isa::TraceView;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Workload groups the paper reports on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadGroup {
    /// SPECint-CPU2017-like general-purpose integer code.
    SpecIntLike,
    /// Interpreted languages (Python-like dispatch loops).
    Interpreted,
    /// Business analytics (branchy, data-dependent).
    Analytics,
    /// Commercial / transaction-processing-like mixes.
    Commercial,
    /// Machine-learning / SIMD-heavy compute.
    MlCompute,
    /// HPC floating-point kernels.
    Hpc,
}

/// A named benchmark generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Benchmark {
    /// Benchmark name.
    pub name: String,
    /// Which group it belongs to.
    pub group: WorkloadGroup,
    /// Weight in suite-level aggregates.
    pub weight: f64,
    /// The behavioural signature.
    pub signature: Signature,
}

impl Benchmark {
    /// Builds the benchmark as a runnable workload (counted in the
    /// `workloads.builds` counter).
    ///
    /// Nothing is memoized: a workload's memory image can be megabytes,
    /// and a sweep requests hundreds. Callers that need only the trace
    /// use [`Benchmark::trace_view_or_panic`], which builds the workload
    /// only to synthesize it; this is for callers that need the program
    /// or the image itself (proxy extraction).
    #[must_use]
    pub fn workload(&self, seed: u64) -> Workload {
        p10_obs::counter("workloads.builds", 1);
        synthesize(&self.name, &self.signature, seed, 1 << 40)
    }

    /// The generator key of [`Benchmark::workload`]`(seed)`: FNV-1a over
    /// the name, signature and seed, which determine the workload.
    #[must_use]
    pub fn generator_key(&self, seed: u64) -> u64 {
        let mut h = p10_isa::Fnv1aHasher::new();
        self.name.hash(&mut h);
        self.signature.hash(&mut h);
        seed.hash(&mut h);
        h.finish()
    }

    /// A zero-copy view of the first `max_ops` ops of the workload
    /// seeded `seed`, served from the process-wide trace arena. The
    /// workload is built only when its trace must be synthesized (the
    /// first request, or a longer one), and freed once the trace is
    /// stored.
    ///
    /// # Panics
    ///
    /// Panics if functional execution fails (a generator bug).
    #[must_use]
    pub fn trace_view_or_panic(&self, seed: u64, max_ops: u64) -> TraceView {
        crate::arena::global()
            .view_or_build(self.generator_key(seed), max_ops, || self.workload(seed))
            .unwrap_or_else(|e| panic!("workload {} failed to execute: {e}", self.name))
    }
}

fn bench(name: &str, group: WorkloadGroup, sig: Signature) -> Benchmark {
    Benchmark {
        name: name.to_owned(),
        group,
        weight: 1.0,
        signature: sig,
    }
}

/// The ten SPECint-like benchmarks.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn specint_like() -> Vec<Benchmark> {
    use WorkloadGroup::SpecIntLike as G;
    vec![
        // perlbench-like: interpreter dispatch, branchy, moderate memory.
        bench(
            "perlish",
            G,
            Signature {
                handlers: 32,
                zipf_alpha: 0.9,
                branch_entropy: 0.25,
                footprint_kb: 512,
                chase_loads: 0,
                stride_loads: 3,
                stores: 2,
                int_chain: 5,
                int_parallel: 5,
                muls: 1,
                vsx_fmas: 0,
                branches: 5,
                calls: 2,
                code_padding: 1,
            },
        ),
        // gcc-like: execution spread over many functions, big code.
        bench(
            "gccish",
            G,
            Signature {
                handlers: 80,
                zipf_alpha: 0.3,
                branch_entropy: 0.2,
                footprint_kb: 1024,
                chase_loads: 0,
                stride_loads: 1,
                stores: 1,
                int_chain: 2,
                int_parallel: 2,
                muls: 0,
                vsx_fmas: 0,
                branches: 2,
                calls: 1,
                code_padding: 4,
            },
        ),
        // mcf-like: pointer chasing over a huge footprint.
        bench(
            "mcfish",
            G,
            Signature {
                handlers: 0,
                zipf_alpha: 1.0,
                branch_entropy: 0.18,
                footprint_kb: 4096,
                chase_loads: 2,
                stride_loads: 2,
                stores: 1,
                int_chain: 3,
                int_parallel: 3,
                muls: 0,
                vsx_fmas: 0,
                branches: 3,
                calls: 0,
                code_padding: 0,
            },
        ),
        // omnetpp-like: event simulation, memory plus branches.
        bench(
            "omnetish",
            G,
            Signature {
                handlers: 6,
                zipf_alpha: 0.7,
                branch_entropy: 0.25,
                footprint_kb: 320,
                chase_loads: 4,
                stride_loads: 2,
                stores: 2,
                int_chain: 3,
                int_parallel: 3,
                muls: 0,
                vsx_fmas: 0,
                branches: 2,
                calls: 0,
                code_padding: 1,
            },
        ),
        // xalancbmk-like: virtual dispatch heavy.
        bench(
            "xalanish",
            G,
            Signature {
                handlers: 10,
                zipf_alpha: 1.1,
                branch_entropy: 0.22,
                footprint_kb: 384,
                chase_loads: 4,
                stride_loads: 2,
                stores: 2,
                int_chain: 3,
                int_parallel: 4,
                muls: 0,
                vsx_fmas: 0,
                branches: 3,
                calls: 1,
                code_padding: 1,
            },
        ),
        // x264-like: predictable compute with SIMD.
        bench(
            "x264ish",
            G,
            Signature {
                handlers: 4,
                zipf_alpha: 1.5,
                branch_entropy: 0.08,
                footprint_kb: 192,
                chase_loads: 0,
                stride_loads: 6,
                stores: 3,
                int_chain: 3,
                int_parallel: 8,
                muls: 2,
                vsx_fmas: 4,
                branches: 3,
                calls: 1,
                code_padding: 0,
            },
        ),
        // deepsjeng-like: search with hard branches and recursion.
        bench(
            "deepsjengish",
            G,
            Signature {
                handlers: 8,
                zipf_alpha: 1.0,
                branch_entropy: 0.35,
                footprint_kb: 512,
                chase_loads: 0,
                stride_loads: 3,
                stores: 2,
                int_chain: 5,
                int_parallel: 5,
                muls: 1,
                vsx_fmas: 0,
                branches: 6,
                calls: 3,
                code_padding: 0,
            },
        ),
        // leela-like: mixed compute and memory.
        bench(
            "leelaish",
            G,
            Signature {
                handlers: 4,
                zipf_alpha: 1.0,
                branch_entropy: 0.22,
                footprint_kb: 288,
                chase_loads: 3,
                stride_loads: 2,
                stores: 2,
                int_chain: 3,
                int_parallel: 4,
                muls: 1,
                vsx_fmas: 0,
                branches: 3,
                calls: 1,
                code_padding: 0,
            },
        ),
        // exchange2-like: tight, extremely predictable integer loops.
        bench(
            "exchangeish",
            G,
            Signature {
                handlers: 0,
                zipf_alpha: 1.0,
                branch_entropy: 0.25,
                footprint_kb: 24,
                chase_loads: 0,
                stride_loads: 2,
                stores: 2,
                int_chain: 6,
                int_parallel: 8,
                muls: 1,
                vsx_fmas: 0,
                branches: 4,
                calls: 1,
                code_padding: 0,
            },
        ),
        // xz-like: execution concentrated in a couple of hot loops.
        bench(
            "xzish",
            G,
            Signature {
                handlers: 2,
                zipf_alpha: 2.0,
                branch_entropy: 0.15,
                footprint_kb: 1024,
                chase_loads: 0,
                stride_loads: 4,
                stores: 2,
                int_chain: 5,
                int_parallel: 6,
                muls: 1,
                vsx_fmas: 0,
                branches: 4,
                calls: 0,
                code_padding: 2,
            },
        ),
    ]
}

/// The extra workload groups the paper references: interpreted languages
/// and business analytics (which see a 38% flush reduction), and ML /
/// HPC compute (which gain ~2x from the doubled VSX units).
#[must_use]
pub fn extended_groups() -> Vec<Benchmark> {
    vec![
        bench(
            "pythonish",
            WorkloadGroup::Interpreted,
            Signature {
                handlers: 48,
                zipf_alpha: 0.9,
                branch_entropy: 0.25,
                footprint_kb: 1024,
                chase_loads: 1,
                stride_loads: 2,
                stores: 2,
                int_chain: 4,
                int_parallel: 3,
                muls: 0,
                vsx_fmas: 0,
                branches: 6,
                calls: 2,
                code_padding: 1,
            },
        ),
        bench(
            "analyticsish",
            WorkloadGroup::Analytics,
            Signature {
                handlers: 32,
                zipf_alpha: 0.8,
                branch_entropy: 0.22,
                footprint_kb: 4096,
                chase_loads: 2,
                stride_loads: 4,
                stores: 2,
                int_chain: 3,
                int_parallel: 4,
                muls: 1,
                vsx_fmas: 0,
                branches: 6,
                calls: 1,
                code_padding: 1,
            },
        ),
        bench(
            "commercialish",
            WorkloadGroup::Commercial,
            Signature {
                handlers: 24,
                zipf_alpha: 0.9,
                branch_entropy: 0.3,
                footprint_kb: 2048,
                chase_loads: 2,
                stride_loads: 3,
                stores: 4,
                int_chain: 3,
                int_parallel: 4,
                muls: 1,
                vsx_fmas: 0,
                branches: 5,
                calls: 2,
                code_padding: 2,
            },
        ),
        bench(
            "mlish",
            WorkloadGroup::MlCompute,
            Signature {
                handlers: 0,
                zipf_alpha: 1.0,
                branch_entropy: 0.05,
                footprint_kb: 2048,
                chase_loads: 0,
                stride_loads: 6,
                stores: 2,
                int_chain: 2,
                int_parallel: 3,
                muls: 0,
                vsx_fmas: 12,
                branches: 1,
                calls: 0,
                code_padding: 0,
            },
        ),
        bench(
            "hpcish",
            WorkloadGroup::Hpc,
            Signature {
                handlers: 0,
                zipf_alpha: 1.0,
                branch_entropy: 0.05,
                footprint_kb: 8192,
                chase_loads: 0,
                stride_loads: 8,
                stores: 4,
                int_chain: 2,
                int_parallel: 2,
                muls: 0,
                vsx_fmas: 8,
                branches: 1,
                calls: 0,
                code_padding: 0,
            },
        ),
    ]
}

/// The classic `daxpy` kernel (`y[i] += a * x[i]`), the well-known code
/// kernel the paper names among its early proxy set.
#[must_use]
pub fn daxpy(n_elements: u32) -> Workload {
    use p10_isa::{Inst, Reg};
    let mut w = crate::gen::WorkloadBuilder::new(1);
    let x_base = crate::gen::DATA_BASE;
    let y_base = crate::gen::DATA_BASE + u64::from(n_elements) * 8 + 1024;
    {
        let b = &mut w.b;
        b.li(Reg::gpr(1), x_base as i64);
        b.li(Reg::gpr(2), y_base as i64);
        b.li(Reg::gpr(3), i64::from(n_elements / 2)); // 2 elems per vector op
        b.mtctr(Reg::gpr(3));
        b.push(Inst::Lxvdsx {
            xt: Reg::vsr(32),
            ra: Reg::gpr(1),
            rb: Reg::gpr(0),
        }); // splat a = x[0]
        let top = b.bind_label();
        b.lxv(Reg::vsr(33), Reg::gpr(1), 0);
        b.lxv(Reg::vsr(34), Reg::gpr(2), 0);
        b.push(Inst::Xvmaddadp {
            xt: Reg::vsr(34),
            xa: Reg::vsr(32),
            xb: Reg::vsr(33),
        });
        b.stxv(Reg::vsr(34), Reg::gpr(2), 0);
        b.addi(Reg::gpr(1), Reg::gpr(1), 16);
        b.addi(Reg::gpr(2), Reg::gpr(2), 16);
        b.bdnz(top);
    }
    for i in 0..u64::from(n_elements) {
        w.init_word(x_base + i * 8, f64::to_bits(i as f64 * 0.5));
        w.init_word(y_base + i * 8, f64::to_bits(1.0));
    }
    w.finish("daxpy")
}

/// A *phased* pointer-chase workload: the same code alternates between an
/// L1-resident ring region and a scattered, cache-hostile region purely
/// through the pointer data — so Basic Block Vectors are identical across
/// phases while performance swings heavily. This is the adversarial case
/// for Simpoint-style BBV clustering that the paper's Tracepoints
/// methodology handles (§III-A).
#[must_use]
pub fn phased_pointer_chase(phase_nodes: u64) -> Workload {
    use p10_isa::Reg;
    let mut w = crate::gen::WorkloadBuilder::new(77);
    let ring_base = crate::gen::DATA_BASE;
    {
        let b = &mut w.b;
        b.li(Reg::gpr(3), ring_base as i64);
        b.li(Reg::gpr(30), i64::MAX / 2);
        b.mtctr(Reg::gpr(30));
        let top = b.bind_label();
        // One chase load plus a little compute: identical code forever.
        b.ld(Reg::gpr(3), Reg::gpr(3), 0);
        b.addi(Reg::gpr(7), Reg::gpr(7), 1);
        b.add(Reg::gpr(8), Reg::gpr(8), Reg::gpr(7));
        b.bdnz(top);
    }
    // Phase A: `phase_nodes` hops inside a dense 8 KiB region (L1 hits).
    // Phase B: `phase_nodes` hops spread over 16 MiB (misses). The last
    // node of each phase links to the first node of the next; B links
    // back to A, forming one big ring.
    let dense_stride = 128u64;
    let sparse_stride = 1 << 16; // 64 KiB jumps: TLB + cache hostile
    let a0 = ring_base;
    let b0 = ring_base + (1 << 22);
    for i in 0..phase_nodes {
        let cur = a0 + (i % 64) * dense_stride + (i / 64) * 8;
        let next = if i + 1 < phase_nodes {
            a0 + ((i + 1) % 64) * dense_stride + ((i + 1) / 64) * 8
        } else {
            b0
        };
        w.init_word(cur, next);
    }
    for i in 0..phase_nodes {
        let cur = b0 + i * sparse_stride;
        let next = if i + 1 < phase_nodes {
            b0 + (i + 1) * sparse_stride
        } else {
            a0
        };
        w.init_word(cur, next);
    }
    w.finish("phased_chase")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_ten_distinct_benchmarks() {
        let s = specint_like();
        assert_eq!(s.len(), 10);
        let mut names: Vec<_> = s.iter().map(|b| b.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn all_benchmarks_execute() {
        for b in specint_like().iter().chain(extended_groups().iter()) {
            let w = b.workload(17);
            let t = w
                .trace_view(5_000)
                .unwrap_or_else(|e| panic!("{} failed: {e}", b.name));
            assert_eq!(t.len(), 5_000, "{} must run endlessly", b.name);
        }
    }

    #[test]
    fn signatures_differ_across_suite() {
        let s = specint_like();
        for i in 0..s.len() {
            for j in (i + 1)..s.len() {
                assert_ne!(
                    s[i].signature, s[j].signature,
                    "{} and {} share a signature",
                    s[i].name, s[j].name
                );
            }
        }
    }

    #[test]
    fn mcfish_is_memory_hostile_and_exchangeish_is_not() {
        let s = specint_like();
        let mcf = s.iter().find(|b| b.name == "mcfish").unwrap();
        let exch = s.iter().find(|b| b.name == "exchangeish").unwrap();
        assert!(mcf.signature.footprint_kb > 64 * exch.signature.footprint_kb / 2);
        assert!(mcf.signature.chase_loads > 0);
        assert_eq!(exch.signature.chase_loads, 0);
    }

    #[test]
    fn daxpy_computes_axpy() {
        let w = daxpy(64);
        let mut m = w.machine.clone();
        m.run(&w.program, 100_000).unwrap();
        // y[i] = 1.0 + a * x[i], a = x[0] = 0.0 -> y unchanged = 1.0
        assert_eq!(
            m.mem.read_f64(crate::gen::DATA_BASE + 64 * 8 + 1024 + 8),
            1.0
        );
    }

    #[test]
    fn mlish_is_vsx_heavy() {
        let b = extended_groups()
            .into_iter()
            .find(|b| b.name == "mlish")
            .unwrap();
        let t = b.workload(5).trace_view_or_panic(10_000);
        let vsx = t.iter().filter(|o| o.class == p10_isa::OpClass::VsxFp);
        let vsx_frac = vsx.count() as f64 / t.len() as f64;
        assert!(vsx_frac > 0.2, "mlish vsx fraction {vsx_frac}");
    }
}
