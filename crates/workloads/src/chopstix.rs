//! Chopstix-style proxy extraction.
//!
//! The paper (§III-A) generates SPECint proxy workloads by extracting the
//! top-10 most-executed functions of each benchmark and turning each into
//! an L1-contained, endless loop runnable on RTLSim in real mode, with
//! coverage between 41% (gcc) and 99% (xz). This module reproduces the
//! pipeline against the synthetic suite:
//!
//! 1. functionally trace the workload,
//! 2. attribute dynamic instructions to the workload's function spans,
//! 3. take the top-N functions and report coverage,
//! 4. package each function body as a self-looping proxy program
//!    (out-of-span control flow is neutralized, the body is wrapped in an
//!    endless counted loop, and the original memory image is carried
//!    along — the "code and data state captured from memory").

use crate::workload::Workload;
use p10_isa::{Inst, Label, Machine, Program, ProgramBuilder, Reg, TraceBuilder, TraceView};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One extracted proxy workload.
#[derive(Debug, Clone)]
pub struct Proxy {
    /// `"<workload>/<function>"`.
    pub name: String,
    /// The L1-contained endless-loop program.
    pub program: Program,
    /// The memory image to run it against.
    pub machine: Machine,
    /// Fraction of the application's dynamic instructions this function
    /// accounted for (its weight in suite-level projections).
    pub weight: f64,
    /// Dynamic instructions observed in this function during tracing.
    pub dynamic_ops: u64,
}

impl Proxy {
    /// Traces the proxy for `max_ops` dynamic instructions, straight
    /// into compact trace storage.
    ///
    /// # Panics
    ///
    /// Panics if the proxy fails to execute (a bug in extraction).
    #[must_use]
    pub fn trace(&self, max_ops: u64) -> TraceView {
        let mut m = self.machine.clone();
        let mut b = TraceBuilder::with_capacity(max_ops.min(1 << 20) as usize);
        m.run_with(&self.program, max_ops, |op| b.push(op))
            .unwrap_or_else(|e| panic!("proxy {} failed: {e}", self.name));
        b.finish()
    }
}

/// The result of proxy extraction for one workload.
#[derive(Debug, Clone)]
pub struct ProxySet {
    /// Extracted proxies, hottest first.
    pub proxies: Vec<Proxy>,
    /// Fraction of dynamic instructions covered by the extracted set.
    pub coverage: f64,
    /// Total dynamic instructions traced.
    pub total_dynamic: u64,
}

/// Summary row for coverage reporting (the paper's 41%–99% table).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoverageRow {
    /// Workload name.
    pub workload: String,
    /// Number of proxies extracted.
    pub proxies: usize,
    /// Dynamic coverage in [0, 1].
    pub coverage: f64,
}

/// Extracts the top-`top_n` hottest functions of `workload` as proxies,
/// tracing `trace_ops` dynamic instructions to rank them.
#[must_use]
pub fn extract(workload: &Workload, trace_ops: u64, top_n: usize) -> ProxySet {
    let trace = workload.trace_view_or_panic(trace_ops);
    let total = trace.len() as u64;

    // Attribute dynamic ops to function spans by instruction index.
    let mut counts: HashMap<usize, u64> = HashMap::new();
    for op in trace.iter() {
        if let Some(idx) = workload.program.index_of(op.pc) {
            if let Some(fi) = workload.functions.iter().position(|f| f.contains(idx)) {
                *counts.entry(fi).or_insert(0) += 1;
            }
        }
    }
    let mut ranked: Vec<(usize, u64)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(top_n);

    let covered: u64 = ranked.iter().map(|(_, c)| c).sum();
    let proxies = ranked
        .iter()
        .map(|&(fi, ops)| {
            let f = &workload.functions[fi];
            Proxy {
                name: format!("{}/{}", workload.name, f.name),
                program: loopify(&workload.program, f.start, f.end),
                machine: workload.machine.clone(),
                weight: if total == 0 {
                    0.0
                } else {
                    ops as f64 / total as f64
                },
                dynamic_ops: ops,
            }
        })
        .collect();

    ProxySet {
        proxies,
        coverage: if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        },
        total_dynamic: total,
    }
}

/// Copies instructions `[start, end)` of `program` into a fresh program
/// wrapped in an endless counted loop. Control flow that leaves the span
/// (calls, returns, indirect branches, out-of-span targets) is
/// neutralized to `nop`; in-span direct branches are re-targeted.
fn loopify(program: &Program, start: usize, end: usize) -> Program {
    let mut b = ProgramBuilder::new();
    // Endless outer loop (the proxy runs until the measurement window
    // closes).
    b.li(Reg::gpr(31), i64::MAX / 2);
    b.mtctr(Reg::gpr(31));
    let top = b.bind_label();

    // Map in-span branch-target indices to fresh labels.
    let mut target_labels: HashMap<usize, Label> = HashMap::new();
    for idx in start..end {
        if let Some(t) = direct_target(program, program.insts()[idx]) {
            if (start..end).contains(&t) {
                target_labels.entry(t).or_insert_with(|| b.label());
            }
        }
    }

    for idx in start..end {
        if let Some(&l) = target_labels.get(&idx) {
            b.bind(l);
        }
        let inst = program.insts()[idx];
        let rewritten = match inst {
            Inst::B { target } | Inst::Bc { target, .. } => {
                let t = program.resolve(target);
                if let Some(&l) = target_labels.get(&t) {
                    match inst {
                        Inst::B { .. } => Inst::B { target: l },
                        Inst::Bc { cond, bf, .. } => Inst::Bc {
                            cond,
                            bf,
                            target: l,
                        },
                        _ => unreachable!(),
                    }
                } else {
                    Inst::Nop
                }
            }
            // The proxy owns CTR for its outer loop; counted/indirect
            // control flow and call/return leave the span semantics.
            Inst::Bdnz { .. } | Inst::Bctr | Inst::Bl { .. } | Inst::Blr | Inst::Mtctr { .. } => {
                Inst::Nop
            }
            other => other,
        };
        b.push(rewritten);
    }

    b.bdnz(top);
    b.build()
}

fn direct_target(program: &Program, inst: Inst) -> Option<usize> {
    match inst {
        Inst::B { target } | Inst::Bc { target, .. } | Inst::Bdnz { target } => {
            Some(program.resolve(target))
        }
        _ => None,
    }
}

/// Runs extraction on one workload and reports its row of the coverage
/// table (the paper's §III-A numbers). Rows are independent, so the
/// table's workloads can be extracted concurrently.
#[must_use]
pub fn coverage_row(workload: &Workload, trace_ops: u64, top_n: usize) -> CoverageRow {
    let set = extract(workload, trace_ops, top_n);
    CoverageRow {
        workload: workload.name.clone(),
        proxies: set.proxies.len(),
        coverage: set.coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::specint_like;

    fn workload(name: &str) -> std::sync::Arc<Workload> {
        specint_like()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap()
            .workload(23)
    }

    #[test]
    fn extraction_finds_hot_functions_and_reports_coverage() {
        let w = workload("perlish");
        let set = extract(&w, 40_000, 10);
        assert!(!set.proxies.is_empty());
        assert!(set.proxies.len() <= 10);
        assert!(set.coverage > 0.5 && set.coverage <= 1.0);
        // Hottest first.
        for pair in set.proxies.windows(2) {
            assert!(pair[0].dynamic_ops >= pair[1].dynamic_ops);
        }
    }

    #[test]
    fn proxies_execute_endlessly() {
        let w = workload("xzish");
        let set = extract(&w, 30_000, 5);
        for p in &set.proxies {
            let t = p.trace(5_000);
            assert_eq!(t.len(), 5_000, "proxy {} must loop endlessly", p.name);
        }
    }

    #[test]
    fn concentrated_workload_covers_more_than_spread_one() {
        // The paper: xz ~99% (concentrated) vs gcc ~41% (spread).
        let xz = extract(&workload("xzish"), 40_000, 10);
        let gcc = extract(&workload("gccish"), 40_000, 10);
        assert!(
            xz.coverage > gcc.coverage,
            "xzish {} must exceed gccish {}",
            xz.coverage,
            gcc.coverage
        );
        assert!(xz.coverage > 0.9, "xzish coverage {}", xz.coverage);
        assert!(gcc.coverage < 0.75, "gccish coverage {}", gcc.coverage);
    }

    #[test]
    fn proxy_op_mix_resembles_source_function() {
        let w = workload("x264ish");
        let set = extract(&w, 40_000, 3);
        let p = &set.proxies[0];
        let t = p.trace(10_000).to_trace();
        // The proxy should still do real work, not just nops.
        let nop_frac = t.fraction(|o| o.class == p10_isa::OpClass::Nop);
        assert!(nop_frac < 0.5, "proxy mostly nops: {nop_frac}");
    }

    #[test]
    fn coverage_row_names_its_workload() {
        for name in ["xzish", "exchangeish"] {
            let row = coverage_row(&workload(name), 20_000, 10);
            assert_eq!(row.workload, name);
            assert!(row.proxies > 0 && row.coverage > 0.0);
        }
    }
}

#[cfg(test)]
mod weight_tests {
    use super::*;
    use crate::suite::specint_like;

    #[test]
    fn proxy_weights_equal_coverage() {
        let w = specint_like()[9].workload(23); // xzish
        let set = extract(&w, 30_000, 10);
        let weight_sum: f64 = set.proxies.iter().map(|p| p.weight).sum();
        assert!(
            (weight_sum - set.coverage).abs() < 1e-9,
            "weights {weight_sum} must sum to coverage {}",
            set.coverage
        );
    }

    #[test]
    fn more_proxies_never_reduce_coverage() {
        let w = specint_like()[1].workload(23); // gccish: spread
        let small = extract(&w, 30_000, 3);
        let big = extract(&w, 30_000, 10);
        assert!(big.coverage >= small.coverage - 1e-12);
        assert!(big.proxies.len() >= small.proxies.len());
    }

    #[test]
    fn suite_weighted_projection_from_proxies() {
        // The paper's use: project suite-level numbers from proxy traces
        // weighted by their application share. Verify the plumbing: a
        // weighted mix of per-proxy IPC-proxy metrics is finite and
        // bounded by the per-proxy extremes.
        let w = specint_like()[0].workload(23);
        let set = extract(&w, 30_000, 8);
        let metrics: Vec<f64> = set
            .proxies
            .iter()
            .map(|p| {
                let t = p.trace(4_000).to_trace();
                t.fraction(|o| o.is_load())
            })
            .collect();
        let total_w: f64 = set.proxies.iter().map(|p| p.weight).sum();
        let proj: f64 = set
            .proxies
            .iter()
            .zip(metrics.iter())
            .map(|(p, m)| p.weight / total_w * m)
            .sum();
        let lo = metrics.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = metrics.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(proj >= lo - 1e-12 && proj <= hi + 1e-12);
    }
}
