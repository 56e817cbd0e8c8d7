//! # p10-bench
//!
//! Benchmark harness and figure regeneration for the `p10sim`
//! reproduction.
//!
//! * The [`figures`](../figures/index.html) binary
//!   (`cargo run --release -p p10-bench --bin figures -- all`) regenerates
//!   every table and figure of the paper, printing the same rows/series
//!   the paper reports (and `--json` for machine-readable output). See
//!   `EXPERIMENTS.md` at the repository root for paper-vs-measured values.
//! * The Criterion benches (`cargo bench`) time the simulation substrate
//!   itself (detailed-vs-APEX extraction, kernel replay) and run
//!   scaled-down versions of each experiment. They are run by hand; CI
//!   only compiles them, through clippy. The plain `sim_throughput`
//!   bench (core-model throughput per scheduler and observer) is the one
//!   CI runs, for its scheduler cross-check and its report.
//!
//! This library crate hosts shared helpers for both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use p10_workloads::{specint_like, Benchmark};

/// The default op budget per workload for full figure regeneration.
pub const FULL_OPS: u64 = 60_000;

/// A reduced op budget for quick (bench-harness) runs.
pub const QUICK_OPS: u64 = 12_000;

/// The standard suite used by the figure regenerators.
#[must_use]
pub fn suite() -> Vec<Benchmark> {
    specint_like()
}

/// A small slice of the suite for timing-oriented benches.
#[must_use]
pub fn small_suite() -> Vec<Benchmark> {
    let mut s = specint_like();
    s.truncate(3);
    s
}
