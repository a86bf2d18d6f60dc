//! Compiler and execution error taxonomy.
//!
//! Every fallible path in the pipeline surfaces one of three families,
//! all carried by [`CompileError`]:
//!
//! 1. **Compile-time** — the program itself is rejected before any
//!    execution: [`CompileError::Ir`] (expression/index algebra),
//!    [`CompileError::Schedule`] (a scheduling command did not apply),
//!    [`CompileError::UndeclaredTensor`], [`CompileError::NoLoweringRule`]
//!    (per §7.1 these would fall back to the host on a real deployment),
//!    and [`CompileError::Verify`] (the static bytecode verifier
//!    rejected the lowered artifact — always a compiler bug, carried
//!    as a typed [`VerifyError`]).
//! 2. **Binding/memory** — [`CompileError::Memory`]: the memory
//!    analysis could not place an array, an input dataset is missing or
//!    mis-formatted, or a read-back output violates its format
//!    invariants. These are diagnosable from the message alone and
//!    carry no machine state.
//! 3. **Execution** — a run started and did not finish cleanly.
//!    [`CompileError::Execution`] wraps the interpreter's structured
//!    [`RunError`] (out-of-bounds, FIFO underflow,
//!    [`RunError::BudgetExceeded`] from a fuel/DRAM/deadline budget,
//!    [`RunError::InjectedFault`] from the `spatial::faults` harness),
//!    preserving the variant so callers can distinguish a deterministic
//!    budget abort from a transient injected fault.
//!    [`CompileError::ExecutionPanic`] is a panic *contained* at an
//!    execution boundary (pooled execution, a sweep worker): the
//!    machine involved is poisoned and quarantined by its pool, and the
//!    payload message is preserved here instead of unwinding the
//!    process.
//!
//! Retry guidance: `ExecutionPanic` and `Execution(InjectedFault)` are
//! transient — `CompiledKernel::execute_image_with` retries them once
//! on a fresh machine. `Execution(BudgetExceeded)` is deterministic
//! (the same run will exhaust the same budget) and is never retried.

use std::error::Error;
use std::fmt;

use stardust_ir::IrError;
use stardust_spatial::{RunError, ShardError, VerifyError};

/// Errors produced by the Stardust compiler and execution harness.
/// See the module docs for the full taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// An error bubbled up from the IR layer.
    Ir(IrError),
    /// A scheduling command did not apply to the statement.
    Schedule(String),
    /// A tensor was referenced but not declared in the program.
    UndeclaredTensor(String),
    /// The memory analysis could not bind an array.
    Memory(String),
    /// The lowering rewrite system had no rule for a pattern (which, per
    /// §7.1, would fall back to the host on a real deployment).
    NoLoweringRule(String),
    /// The static bytecode verifier rejected the lowered program: a
    /// structural invariant (body spans and their nesting, slot
    /// extents, expression stack discipline) does not hold. Always a
    /// compiler bug, never a user-program error; the typed
    /// [`VerifyError`] pinpoints the offending op.
    Verify(VerifyError),
    /// A run aborted with a structured interpreter error — including
    /// budget exhaustion ([`RunError::BudgetExceeded`]) and injected
    /// faults ([`RunError::InjectedFault`]). The variant is preserved
    /// so callers can make retry decisions.
    Execution(RunError),
    /// A panic contained at an execution boundary (pooled run, sweep
    /// worker); the payload message survives, the process does not
    /// unwind, and the machine involved is quarantined by its pool.
    ExecutionPanic(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Ir(e) => write!(f, "{e}"),
            CompileError::Schedule(m) => write!(f, "scheduling error: {m}"),
            CompileError::UndeclaredTensor(t) => write!(f, "undeclared tensor {t}"),
            CompileError::Memory(m) => write!(f, "memory analysis error: {m}"),
            CompileError::NoLoweringRule(m) => write!(f, "no lowering rule: {m}"),
            CompileError::Verify(e) => write!(f, "bytecode verification failed: {e}"),
            CompileError::Execution(e) => write!(f, "simulation error: {e}"),
            CompileError::ExecutionPanic(m) => write!(f, "execution panicked: {m}"),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Ir(e) => Some(e),
            CompileError::Execution(e) => Some(e),
            CompileError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IrError> for CompileError {
    fn from(e: IrError) -> Self {
        CompileError::Ir(e)
    }
}

impl From<RunError> for CompileError {
    fn from(e: RunError) -> Self {
        CompileError::Execution(e)
    }
}

impl From<ShardError> for CompileError {
    fn from(e: ShardError) -> Self {
        match e {
            ShardError::Run(err) => CompileError::Execution(err),
            ShardError::Panic(msg) => CompileError::ExecutionPanic(msg),
        }
    }
}

impl From<VerifyError> for CompileError {
    fn from(e: VerifyError) -> Self {
        CompileError::Verify(e)
    }
}

impl CompileError {
    /// Whether a retry on a fresh machine could plausibly succeed:
    /// `true` for contained panics and one-shot injected faults,
    /// `false` for everything deterministic (budget exhaustion rides a
    /// configured limit; compile/binding errors need a code change).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            CompileError::ExecutionPanic(_)
                | CompileError::Execution(RunError::InjectedFault { .. })
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(CompileError::Schedule("bad".into())
            .to_string()
            .contains("bad"));
        assert!(CompileError::UndeclaredTensor("T".into())
            .to_string()
            .contains('T'));
        assert!(CompileError::NoLoweringRule("x".into())
            .to_string()
            .contains("rule"));
        assert!(CompileError::ExecutionPanic("boom".into())
            .to_string()
            .contains("boom"));
    }

    #[test]
    fn verify_keeps_structured_source() {
        let e = CompileError::from(VerifyError::MissingHalt);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("verification failed"));
        assert!(!e.is_transient());
    }

    #[test]
    fn from_ir_error_keeps_source() {
        let e = CompileError::from(IrError::UnknownTensor("B".into()));
        assert!(e.source().is_some());
        assert!(e.to_string().contains('B'));
    }

    #[test]
    fn execution_keeps_structured_source() {
        let e = CompileError::from(RunError::BudgetExceeded {
            resource: stardust_spatial::BudgetResource::Steps,
            limit: 10,
        });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("step budget"));
        assert!(!e.is_transient());
        assert!(CompileError::Execution(RunError::InjectedFault {
            site: "step 3".into()
        })
        .is_transient());
        assert!(CompileError::ExecutionPanic("x".into()).is_transient());
    }
}
