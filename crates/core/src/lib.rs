//! # p10-core
//!
//! The top-level library of the `p10sim` reproduction: scenario presets,
//! suite runners, and the experiment drivers that regenerate every table
//! and figure of the ISCA 2021 POWER10 paper.
//!
//! * [`scenario`] — run a workload (or the whole suite) on a configured
//!   core, producing joint performance + power results.
//! * [`ablation`] — the Fig. 4 study: per-design-change performance gains.
//! * [`inference`] — the Fig. 6 study: ResNet-50 / BERT-Large end-to-end
//!   inference on POWER9, POWER10−MMA, POWER10+MMA.
//! * [`gemm`] — the Fig. 5 study: DGEMM flops/cycle and core power.
//! * [`socket`] — socket-level scaling (cores per socket, system factors)
//!   for the 10×/21× AI claims and Table I.
//! * [`flush`] — the wasted-instruction (flush-reduction) study.
//! * [`runner`] — the parallel experiment engine and result cache every
//!   driver runs on.
//! * [`store`] — the one on-disk byte store the result cache and the
//!   checkpoint store persist through.
//! * [`sampling`] — SimPoint-weighted sampled execution with error
//!   bounds (opt-in via `--sampling`) and a cross-workload predicted
//!   fast-forward.
//! * [`cycleprof`] — the `figures profile` experiment: per-workload
//!   cycle-attribution tables from the pipeline's always-on counters.
//!
//! ## Quickstart
//!
//! ```no_run
//! use p10_core::runner::run_suite_par;
//! use p10_core::scenario::SuiteComparison;
//! use p10_uarch::CoreConfig;
//! use p10_workloads::specint_like;
//!
//! let suite = specint_like();
//! let p9 = run_suite_par(&CoreConfig::power9(), &suite, 42, 120_000);
//! let p10 = run_suite_par(&CoreConfig::power10(), &suite, 42, 120_000);
//! let cmp = SuiteComparison::between(&p9, &p10);
//! println!(
//!     "perf {:.2}x power {:.2}x efficiency {:.2}x",
//!     cmp.perf_ratio, cmp.power_ratio, cmp.efficiency_ratio
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cycleprof;
pub mod dse;
pub mod flush;
pub mod gemm;
pub mod inference;
pub mod powerstudies;
pub mod rasstudy;
pub mod runner;
pub mod sampling;
pub mod scenario;
pub mod sensitivity;
pub mod smtscale;
pub mod socket;
pub mod store;
pub mod table1;
pub mod tracestudy;
pub mod tracking;
