//! The benchmark kernel suite of the paper's Table 3.
//!
//! Ten sparse tensor algebra expressions — SpMV, Plus3, SDDMM,
//! MatTransMul, Residual, TTV, TTM, MTTKRP, InnerProd, Plus2 — each with
//! the formats of §8.1 (CSR/CSC for matrices, CSF for most 3-tensors, the
//! CSR-like uncompressed-compressed-compressed format for InnerProd and
//! Plus2, dense operands for SDDMM/MTTKRP) and a schedule exercising the
//! paper's scheduling language: `environment` parallelization factors,
//! on-chip `precompute` staging, and `accelerate`d reductions.
//!
//! Plus3 is mapped as an *iterated two-input addition* (§8.1: mapping it
//! natively would only use half of Capstan at a time), which is why a
//! [`Kernel`] is a sequence of [`Stage`]s.

pub mod defs;
pub mod runner;

pub use defs::{
    innerprod, mattransmul, mttkrp, plus2, plus3, residual, sddmm, spmv, suite, ttm, ttv, Kernel,
    Stage,
};
pub use runner::{merge_stats, stage_hints, KernelResult, StageRun, WalkedStage};
