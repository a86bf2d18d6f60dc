//! A Spatial-like parallel-pattern IR with executable semantics.
//!
//! Stardust lowers scheduled CIN to the Spatial programming model
//! (Koeplinger et al., PLDI 2018): `Foreach`/`Reduce` parallel patterns
//! with explicit parallelization factors, explicit DRAM/SRAM/FIFO/register
//! memories, and Capstan's declarative-sparse `Scan` patterns over packed
//! bit vectors (paper §3.2, Fig. 7 and Fig. 9).
//!
//! Because the authors' Spatial/SARA/Capstan toolchain is closed, this
//! crate gives the IR *executable semantics*: the [`interp`] module runs a
//! [`SpatialProgram`] against DRAM contents, producing both results (so
//! compiled kernels can be checked against the CIN oracle) and an event
//! trace ([`interp::ExecStats`]) that the Capstan simulator turns into
//! cycle counts. The [`printer`] renders Fig.-11-style Spatial source,
//! which drives the paper's lines-of-code comparison (Table 3).
//!
//! Execution goes through a two-stage compilation pipeline: the
//! [`resolve`] link pass interns names into dense slots and flattens
//! expression trees into an arena, then the [`bytecode`] pass lowers
//! the resolved tree into a flat op vector with explicit jump targets
//! and fused superinstructions. The interpreting [`Machine`] runs the
//! bytecode with a non-recursive dispatch loop and never hashes a
//! string on its hot path; compiled artifacts are shared behind `Arc`
//! (and cached by [`ProgramCache`]) so harness sweeps re-bind machines
//! without re-linking. The original name-keyed walker
//! ([`ReferenceMachine`]) is preserved as the differential-testing
//! oracle and benchmark baseline: it shares no code with the link pass,
//! the lowering, or the machine state it checks.
//!
//! The [`analysis`] module is the static layer over the lowered form:
//! a structural verifier gating every compile, effect summaries the
//! shard planner uses, and the vector classifier.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod bytecode;
pub mod faults;
pub mod interp;
pub mod ir;
pub mod pool;
pub mod printer;
pub mod reference;
pub mod resolve;
pub mod shard;
pub mod validate;
pub mod vector;

pub use analysis::{effects_of_span, verify, Effects, VerifyCtx, VerifyError};
pub use bytecode::{CompiledProgram, ProgramCache, VecClass};
pub use faults::{FaultParseError, FaultPlan};
pub use interp::{
    BudgetResource, CancelFlag, DramImage, DramImageBuilder, ExecStats, Machine, RunBudget,
    RunError, DRAM_WORD_BYTES,
};
pub use ir::{BinSOp, Counter, MemDecl, MemKind, SExpr, ScanOp, SpatialProgram, SpatialStmt};
pub use pool::{MachinePool, PoolOccupancy, PoolStats, PooledMachine};
pub use printer::print_program;
pub use reference::ReferenceMachine;
pub use resolve::{resolve, DramLayout, DramRegion, ResolvedProgram, Slot, SymbolTable};
pub use shard::{
    auto_shard_count, auto_shard_count_for, run_contained, CompiledShards, NotShardable,
    ShardError, ShardPlan, ShardedRun, MIN_TRIPS_PER_SHARD, VECTOR_SHARD_DISCOUNT,
};
pub use validate::{validate, ValidationError};
