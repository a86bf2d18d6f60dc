//! The Stardust compiler: sparse tensor algebra → Spatial parallel patterns.
//!
//! This crate implements the paper's contribution (CGO 2025):
//!
//! - [`context`] — the user-facing program API of Fig. 5: tensor
//!   declarations carrying formats with explicit on-/off-chip memory
//!   regions (§5.1), and the tensor algebra expression.
//! - [`schedule`] — the scheduling language: TACO's `split_up`,
//!   `split_down`, `fuse`, `reorder`, `precompute` (Table 1) plus the new
//!   `map`, `accelerate`, and `environment` commands that bind
//!   sub-computations to backend patterns (§5.2, Table 2).
//! - [`contraction`] — iterator contraction sets and the `lowerIter`
//!   rewrite rules of Fig. 10 that choose between dense `Foreach`/`Reduce`
//!   iteration, position loops, and bit-vector `Scan` co-iteration.
//! - [`memory`] — the fine-grained memory analysis of §6: binding each
//!   tensor sub-array (`pos`/`crd`/`vals` per level) to dense/sparse
//!   DRAM/SRAM, FIFOs, registers, or bit vectors, with allocation levels
//!   and transfer placement.
//! - [`lower`] — the lowering emitter that combines the above into a
//!   [`stardust_spatial::SpatialProgram`].
//! - [`pipeline`] — the end-to-end [`pipeline::Compiler`] producing a
//!   [`pipeline::CompiledKernel`], plus helpers to bind real tensor data
//!   into the Spatial interpreter and read results back.

pub mod context;
pub mod contraction;
pub mod error;
pub mod lower;
pub mod memory;
pub mod pipeline;
pub mod schedule;

pub use context::{Program, ProgramBuilder, TensorDecl};
pub use contraction::{contraction_op, lower_iter, ContractionOp, IterFormat, IterStrategy};
pub use error::CompileError;
pub use memory::{ArrayBinding, ArrayRole, MemoryPlan};
pub use pipeline::{CompiledKernel, Compiler, ImageCache};
pub use schedule::Scheduler;
