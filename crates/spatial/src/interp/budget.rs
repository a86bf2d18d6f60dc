//! Run budgets and run errors: the resource limits a run is armed
//! with, the countdowns the hot loops charge, and the typed outcomes.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::Machine;
use crate::faults;

/// Errors raised while executing a Spatial program.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A memory name was referenced but never declared/allocated.
    UnknownMemory(String),
    /// An access fell outside a memory's capacity.
    OutOfBounds {
        /// Memory name.
        mem: String,
        /// Offending word index.
        index: i64,
        /// Memory capacity in words.
        len: usize,
    },
    /// A FIFO was dequeued while empty.
    FifoUnderflow(String),
    /// A variable was read before being bound.
    UnboundVar(String),
    /// A negative index or length was computed.
    NegativeIndex {
        /// Where the negative value appeared.
        context: String,
        /// The value.
        value: f64,
    },
    /// A [`crate::DramImage`] built for one compiled program was bound to a
    /// machine running an incompatible one.
    ImageMismatch,
    /// [`Machine::run`] was handed a program other than the one the
    /// machine was compiled for. Nothing ran; the machine is untouched.
    ForeignProgram,
    /// A `Div` or `Mod` was evaluated with a zero divisor.
    DivisionByZero,
    /// A [`RunBudget`] resource was exhausted mid-run. The machine's
    /// state is abandoned partway through the program — callers must
    /// treat it as poisoned (the [`crate::MachinePool`] quarantines it
    /// automatically).
    BudgetExceeded {
        /// Which budgeted resource ran out.
        resource: BudgetResource,
        /// The configured limit (steps, words, or deadline millis;
        /// `0` for cancellation, which has no numeric limit).
        limit: u64,
    },
    /// A fault injected by the [`crate::faults`] harness fired. Only
    /// produced when a [`crate::faults::FaultPlan`] is installed —
    /// production runs never see this variant.
    InjectedFault {
        /// Where the injected fault fired (step count or alloc site).
        site: String,
    },
}

/// The resource that a [`RunError::BudgetExceeded`] ran out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetResource {
    /// Interpreter steps (loop-body executions / "fuel").
    Steps,
    /// DRAM words touched (bulk + random reads and writes).
    DramWords,
    /// The wall-clock deadline passed.
    Deadline,
    /// The run's [`CancelFlag`] was raised.
    Cancelled,
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetResource::Steps => write!(f, "step budget"),
            BudgetResource::DramWords => write!(f, "DRAM word budget"),
            BudgetResource::Deadline => write!(f, "deadline"),
            BudgetResource::Cancelled => write!(f, "cancellation"),
        }
    }
}

/// A shared cancellation flag: one cheap atomic, checked on loop
/// back-edges (amortized — every [`INTERRUPT_MASK`]+1 steps on the hot
/// paths), so an external controller can stop a runaway run without
/// killing the thread. Clone freely; all clones observe one flag.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, unraised flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag: every machine running under a [`RunBudget`]
    /// carrying this flag aborts with
    /// [`RunError::BudgetExceeded`]`{resource: Cancelled, ..}` at its
    /// next back-edge check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Resource limits for one run, turning runaway kernels into structured
/// [`RunError::BudgetExceeded`] results instead of hangs. The default
/// is unlimited on every axis, and an unlimited budget costs nothing
/// measurable on the interpreter hot paths (fuel lives in a register,
/// interrupt checks amortize over [`INTERRUPT_MASK`]+1 steps).
///
/// A "step" is one loop-body execution — exactly what
/// [`crate::ExecStats::node_trips`] counts, summed over nodes — so the
/// completes-or-aborts predicate is identical across both execution
/// engines: a run finishes iff its total trip count fits the fuel.
/// Budgets are armed at [`Machine::run`] entry and persist on the
/// machine until [`Machine::reset`] (pool check-in clears them, so
/// recycled machines never inherit limits).
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Maximum loop-body executions ("fuel"); `None` = unlimited.
    pub max_steps: Option<u64>,
    /// Maximum DRAM words touched (bulk + random, reads + writes).
    pub max_dram_words: Option<u64>,
    /// Wall-clock deadline, measured from run entry.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation flag, checked on loop back-edges.
    pub cancel: Option<CancelFlag>,
}

impl RunBudget {
    /// An explicitly unlimited budget (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Builder: cap interpreter steps.
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Builder: cap DRAM words touched.
    pub fn with_max_dram_words(mut self, words: u64) -> Self {
        self.max_dram_words = Some(words);
        self
    }

    /// Builder: set a wall-clock deadline from run entry.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: attach a cancellation flag.
    pub fn with_cancel(mut self, cancel: CancelFlag) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Whether any axis is limited (used to skip arming entirely).
    pub fn is_limited(&self) -> bool {
        self.max_steps.is_some()
            || self.max_dram_words.is_some()
            || self.deadline.is_some()
            || self.cancel.is_some()
    }
}

/// Deadline/cancel checks amortize: they run when `fuel & INTERRUPT_MASK
/// == 0`, i.e. every 4096 steps, keeping `Instant::now()` and the shared
/// atomic off the per-iteration path.
pub(crate) const INTERRUPT_MASK: u64 = 0xFFF;

/// What hitting zero fuel means: the step budget, or a one-shot
/// injected fault from the [`crate::faults`] harness min-folded into
/// the same countdown (zero extra hot-path cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FuelCause {
    Budget,
    InjectedError,
    InjectedPanic,
}

/// Builds the out-of-fuel outcome. `#[cold]` keeps the construction
/// (and the injected-fault consumption) off the hot loops.
#[cold]
#[allow(
    clippy::panic,
    reason = "the fault harness's forced panic; only an installed FaultPlan arms it"
)]
pub(crate) fn exhausted_fuel(cause: FuelCause, limit: u64) -> RunError {
    match cause {
        FuelCause::Budget => RunError::BudgetExceeded {
            resource: BudgetResource::Steps,
            limit,
        },
        FuelCause::InjectedError => {
            faults::consume_error();
            RunError::InjectedFault {
                site: format!("step {limit}"),
            }
        }
        FuelCause::InjectedPanic => {
            faults::consume_panic();
            panic!("injected fault: forced panic at step {limit}")
        }
    }
}

/// The amortized deadline/cancel check shared by every engine.
#[cold]
pub(crate) fn check_interrupts(
    deadline_at: Option<Instant>,
    deadline_ms: u64,
    cancel: Option<&CancelFlag>,
) -> Result<(), RunError> {
    if let Some(c) = cancel {
        if c.is_cancelled() {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::Cancelled,
                limit: 0,
            });
        }
    }
    if let Some(d) = deadline_at {
        if Instant::now() >= d {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::Deadline,
                limit: deadline_ms,
            });
        }
    }
    Ok(())
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownMemory(m) => write!(f, "unknown memory {m}"),
            RunError::OutOfBounds { mem, index, len } => {
                write!(f, "index {index} out of bounds for {mem} of {len} words")
            }
            RunError::FifoUnderflow(m) => write!(f, "dequeue from empty FIFO {m}"),
            RunError::UnboundVar(v) => write!(f, "unbound variable {v}"),
            RunError::NegativeIndex { context, value } => {
                write!(f, "negative index {value} in {context}")
            }
            RunError::ImageMismatch => {
                write!(
                    f,
                    "DRAM image does not match the machine's compiled program"
                )
            }
            RunError::DivisionByZero => write!(f, "division by zero in Spatial expression"),
            RunError::ForeignProgram => {
                write!(f, "program is not the one this machine was compiled for")
            }
            RunError::BudgetExceeded { resource, limit } => match resource {
                BudgetResource::Steps => write!(f, "run exceeded its step budget of {limit}"),
                BudgetResource::DramWords => {
                    write!(f, "run exceeded its DRAM budget of {limit} words")
                }
                BudgetResource::Deadline => {
                    write!(f, "run exceeded its deadline of {limit} ms")
                }
                BudgetResource::Cancelled => write!(f, "run was cancelled"),
            },
            RunError::InjectedFault { site } => {
                write!(f, "injected fault fired at {site}")
            }
        }
    }
}

impl Error for RunError {}

impl Machine {
    /// Arms the countdown fields from the configured budget and any
    /// installed [`crate::faults`] plan. One-shot injected step faults
    /// are min-folded into the fuel countdown so the hot loops pay for
    /// exactly one compare-and-decrement regardless of what is armed.
    pub(super) fn arm_budget(&mut self) {
        let plan = faults::active();
        let mut fuel = self.budget.max_steps.unwrap_or(u64::MAX);
        let mut cause = FuelCause::Budget;
        if let Some(p) = &plan {
            if let Some(n) = p.max_steps {
                fuel = fuel.min(n);
            }
            if let Some(n) = p.error_at_step {
                if n <= fuel {
                    fuel = n;
                    cause = FuelCause::InjectedError;
                }
            }
            if let Some(n) = p.panic_at_step {
                if n <= fuel {
                    fuel = n;
                    cause = FuelCause::InjectedPanic;
                }
            }
        }
        self.fuel = fuel;
        self.fuel_cause = cause;
        self.step_limit = fuel;
        self.dram_fuel = self.budget.max_dram_words.unwrap_or(u64::MAX);
        self.alloc_fuel = plan.as_ref().and_then(|p| p.fail_alloc).unwrap_or(u64::MAX);
        self.deadline_at = self.budget.deadline.map(|d| Instant::now() + d);
        self.interrupts = self.deadline_at.is_some() || self.budget.cancel.is_some();
    }

    /// Charges one interpreter step ("fuel") and runs the amortized
    /// deadline/cancel check. Called once per loop-body execution —
    /// exactly the [`crate::ExecStats::node_trips`] sites — so the
    /// completes-or-aborts predicate is engine-identical.
    #[inline(always)]
    pub(super) fn charge_step(&mut self) -> Result<(), RunError> {
        if self.fuel == 0 {
            return Err(exhausted_fuel(self.fuel_cause, self.step_limit));
        }
        self.fuel -= 1;
        if self.interrupts && self.fuel & INTERRUPT_MASK == 0 {
            check_interrupts(
                self.deadline_at,
                self.deadline_ms(),
                self.budget.cancel.as_ref(),
            )?;
        }
        Ok(())
    }

    /// The configured deadline in milliseconds (for error messages).
    pub(super) fn deadline_ms(&self) -> u64 {
        self.budget
            .deadline
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }

    /// Charges `words` against the DRAM-word budget.
    #[inline(always)]
    pub(super) fn charge_dram(&mut self, words: u64) -> Result<(), RunError> {
        match self.dram_fuel.checked_sub(words) {
            Some(rest) => {
                self.dram_fuel = rest;
                Ok(())
            }
            None => Err(RunError::BudgetExceeded {
                resource: BudgetResource::DramWords,
                limit: self.budget.max_dram_words.unwrap_or(0),
            }),
        }
    }
}
