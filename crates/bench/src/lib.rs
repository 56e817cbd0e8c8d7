//! # p10-bench
//!
//! Figure regeneration and the core-model throughput bench for the
//! `p10sim` reproduction.
//!
//! * The [`figures`](../figures/index.html) binary
//!   (`cargo run --release -p p10-bench --bin figures -- all`) regenerates
//!   every table and figure of the paper, printing the same rows/series
//!   the paper reports (and `--json` for machine-readable output). See
//!   `EXPERIMENTS.md` at the repository root for paper-vs-measured values.
//! * The `sim_throughput` bench
//!   (`cargo bench -p p10-bench --bench sim_throughput`) times the core
//!   model per scheduler and observer, cross-checks their cycle counts,
//!   and writes `BENCH_pipeline.json`. CI runs it.
//!
//! This library crate hosts the suite and op budget `figures` uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use p10_workloads::{specint_like, Benchmark};

/// The default op budget per workload for full figure regeneration.
pub const FULL_OPS: u64 = 60_000;

/// The standard suite used by the figure regenerators.
#[must_use]
pub fn suite() -> Vec<Benchmark> {
    specint_like()
}
