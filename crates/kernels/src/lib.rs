//! # p10-kernels
//!
//! Dense linear-algebra kernels and AI-model workload graphs for the
//! `p10sim` reproduction.
//!
//! * [`gemm`] — register-blocked GEMM micro-kernels in three code styles:
//!   the VSU (vector) style that runs on both POWER9 and POWER10, and the
//!   MMA outer-product style (FP64, FP32, INT8) that exploits the POWER10
//!   accelerator. These are real programs for the functional machine; the
//!   Fig. 5 experiment replays them through the cycle model.
//! * [`models`] — layer-accurate GEMM-shape graphs for ResNet-50 (im2col
//!   convolutions) and BERT-Large (attention + FFN), the two inference
//!   workloads of Fig. 6.
//!
//! ## Example
//!
//! ```
//! use p10_kernels::gemm::{dgemm_mma, dgemm_vsu};
//!
//! let vsu = dgemm_vsu(64);
//! let mma = dgemm_mma(64);
//! // Both kernels perform the same mathematical work per iteration.
//! let t_vsu = vsu.trace_view_or_panic(10_000);
//! let t_mma = mma.trace_view_or_panic(10_000);
//! assert!(t_mma.total_flops() > 0);
//! assert!(t_vsu.total_flops() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extra;
pub mod gemm;
pub mod models;
