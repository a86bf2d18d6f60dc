//! Deterministic fault injection for the interpreter stack.
//!
//! The robustness story — fuel budgets, poisoned-machine quarantine,
//! retry-on-fresh-machine — is only trustworthy if it is *tested*
//! against real mid-run failures. This module lets tests force those
//! failures at exact, reproducible points:
//!
//! - a **panic** after the Nth interpreter step ([`FaultPlan::panic_at_step`]),
//! - a structured [`crate::RunError::InjectedFault`] after the Nth step
//!   ([`FaultPlan::error_at_step`]),
//! - a failure of the Nth on-chip allocation ([`FaultPlan::fail_alloc`]),
//! - a shrunken step budget that forces
//!   [`crate::RunError::BudgetExceeded`] ([`FaultPlan::max_steps`]).
//!
//! A plan is installed per thread ([`with_plan`] /
//! [`FaultPlan::install`]) and consulted when a machine arms its budget
//! at run entry; step faults are min-folded into the same fuel
//! countdown the budget uses, so injection adds **zero** hot-path cost
//! and nothing at all when no plan is installed. The step/alloc faults
//! are **one-shot**: firing consumes them, so a retry on a fresh
//! machine (the pipeline's retry-once recovery policy) runs fault-free —
//! exactly the scenario the recovery suites must prove byte-identical
//! to a never-faulted baseline. The budget shrink (`max_steps`) is
//! persistent: it models a standing resource limit, not a transient
//! fault.
//!
//! Plans can also come from the environment (`STARDUST_FAULTS`, parsed
//! by [`FaultPlan::from_env`], same spirit as the vendored proptest's
//! `PROPTEST_CASES`), which is how the CI fault-injection job keys the
//! chaos sweeps without recompiling.

use std::cell::RefCell;
use std::error::Error;
use std::fmt;

/// A malformed `STARDUST_FAULTS` specification. Unknown keys are
/// **errors**, not ignored: a typo'd chaos plan (`eror_at=100`) that
/// silently parsed to "no faults" would let a CI chaos sweep pass
/// vacuously, proving nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultParseError {
    /// A key that is not one of `panic_at`, `error_at`, `fail_alloc`,
    /// `max_steps`.
    UnknownKey(String),
    /// A value that did not parse as a `u64`.
    InvalidValue {
        /// The key whose value was rejected.
        key: String,
        /// The rejected raw value.
        value: String,
    },
    /// A pair with no `=` separator.
    MissingSeparator(String),
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultParseError::UnknownKey(k) => write!(
                f,
                "STARDUST_FAULTS: unknown key {k:?} \
                 (expected panic_at, error_at, fail_alloc, or max_steps)"
            ),
            FaultParseError::InvalidValue { key, value } => {
                write!(f, "STARDUST_FAULTS: value {value:?} for {key} is not a u64")
            }
            FaultParseError::MissingSeparator(pair) => {
                write!(f, "STARDUST_FAULTS: {pair:?} has no key=value separator")
            }
        }
    }
}

impl Error for FaultParseError {}

/// A deterministic set of faults to inject into subsequent runs on the
/// installing thread. All fields default to `None` (no fault).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic when a run executes this many steps (one-shot).
    pub panic_at_step: Option<u64>,
    /// Return [`crate::RunError::InjectedFault`] at this step (one-shot).
    pub error_at_step: Option<u64>,
    /// Fail the Nth on-chip allocation of a run, 0-based (one-shot).
    pub fail_alloc: Option<u64>,
    /// Clamp every armed step budget to this value (persistent),
    /// forcing [`crate::RunError::BudgetExceeded`] on longer runs.
    pub max_steps: Option<u64>,
}

thread_local! {
    static PLAN: RefCell<Option<FaultPlan>> = const { RefCell::new(None) };
}

impl FaultPlan {
    /// Installs this plan on the current thread, replacing any previous
    /// plan. Returns a guard that restores the previous plan when
    /// dropped (panic-safe — a fired injected panic still uninstalls).
    pub fn install(self) -> FaultGuard {
        let prev = PLAN.with(|p| p.replace(Some(self)));
        FaultGuard { prev }
    }

    /// Parses a plan from the `STARDUST_FAULTS` environment variable:
    /// comma-separated `key=value` pairs with keys `panic_at`,
    /// `error_at`, `fail_alloc`, and `max_steps` (e.g.
    /// `STARDUST_FAULTS=error_at=100,fail_alloc=2`).
    ///
    /// Returns `Ok(None)` when the variable is unset or empty.
    ///
    /// # Errors
    ///
    /// [`FaultParseError`] on any malformed pair — **including unknown
    /// keys**. Callers (the CI chaos suites) must surface this loudly:
    /// treating a typo'd plan as "no faults" would let a chaos sweep
    /// pass as a no-op.
    pub fn from_env() -> Result<Option<FaultPlan>, FaultParseError> {
        match std::env::var("STARDUST_FAULTS") {
            Ok(raw) => Self::parse(&raw),
            Err(_) => Ok(None),
        }
    }

    /// Parses the `STARDUST_FAULTS` pair syntax from a string (the
    /// testable core of [`FaultPlan::from_env`]). `Ok(None)` for an
    /// empty/whitespace/comma-only string.
    ///
    /// # Errors
    ///
    /// See [`FaultPlan::from_env`].
    pub fn parse(raw: &str) -> Result<Option<FaultPlan>, FaultParseError> {
        let mut plan = FaultPlan::default();
        let mut any = false;
        for pair in raw.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| FaultParseError::MissingSeparator(pair.to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            let value: u64 = value.parse().map_err(|_| FaultParseError::InvalidValue {
                key: key.to_string(),
                value: value.to_string(),
            })?;
            match key {
                "panic_at" => plan.panic_at_step = Some(value),
                "error_at" => plan.error_at_step = Some(value),
                "fail_alloc" => plan.fail_alloc = Some(value),
                "max_steps" => plan.max_steps = Some(value),
                other => return Err(FaultParseError::UnknownKey(other.to_string())),
            }
            any = true;
        }
        Ok(any.then_some(plan))
    }
}

/// Restores the previously installed plan (usually none) on drop.
#[derive(Debug)]
pub struct FaultGuard {
    prev: Option<FaultPlan>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        PLAN.with(|p| *p.borrow_mut() = prev);
    }
}

/// Runs `f` with `plan` installed on this thread, uninstalling it
/// afterwards (including when `f` panics).
pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    let _guard = plan.install();
    f()
}

/// Clears any installed plan on this thread.
pub fn clear() {
    PLAN.with(|p| *p.borrow_mut() = None);
}

/// The plan consulted when a machine arms its budget at run entry.
/// Cold path — called once per run, not per step.
pub(crate) fn active() -> Option<FaultPlan> {
    PLAN.with(|p| p.borrow().clone())
}

/// Consumes the one-shot step-error fault (called when it fires).
pub(crate) fn consume_error() {
    PLAN.with(|p| {
        if let Some(plan) = p.borrow_mut().as_mut() {
            plan.error_at_step = None;
        }
    });
}

/// Consumes the one-shot step-panic fault (called just before the
/// panic unwinds).
pub(crate) fn consume_panic() {
    PLAN.with(|p| {
        if let Some(plan) = p.borrow_mut().as_mut() {
            plan.panic_at_step = None;
        }
    });
}

/// Consumes the one-shot allocation fault (called when it fires).
pub(crate) fn consume_alloc() {
    PLAN.with(|p| {
        if let Some(plan) = p.borrow_mut().as_mut() {
            plan.fail_alloc = None;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_guard_restore() {
        assert_eq!(active(), None);
        {
            let _g = FaultPlan {
                error_at_step: Some(3),
                ..FaultPlan::default()
            }
            .install();
            assert_eq!(active().and_then(|p| p.error_at_step), Some(3));
            {
                let _inner = FaultPlan {
                    panic_at_step: Some(9),
                    ..FaultPlan::default()
                }
                .install();
                assert_eq!(active().and_then(|p| p.panic_at_step), Some(9));
                assert_eq!(active().and_then(|p| p.error_at_step), None);
            }
            // Inner guard restored the outer plan.
            assert_eq!(active().and_then(|p| p.error_at_step), Some(3));
        }
        assert_eq!(active(), None);
    }

    #[test]
    fn one_shot_consumption() {
        let _g = FaultPlan {
            error_at_step: Some(1),
            fail_alloc: Some(0),
            max_steps: Some(7),
            ..FaultPlan::default()
        }
        .install();
        consume_error();
        consume_alloc();
        let left = active().expect("plan installed");
        assert_eq!(left.error_at_step, None);
        assert_eq!(left.fail_alloc, None);
        // The budget clamp is persistent.
        assert_eq!(left.max_steps, Some(7));
    }

    #[test]
    fn env_parse_shapes() {
        // from_env reads the process env; exercise the parser through a
        // scoped variable. Tests in this crate run single-threaded per
        // test binary env mutation is still racy in general, so keep
        // the variable name unique to this test.
        std::env::set_var("STARDUST_FAULTS", "error_at=5, max_steps=100");
        let plan = FaultPlan::from_env()
            .expect("valid plan")
            .expect("plan present");
        assert_eq!(plan.error_at_step, Some(5));
        assert_eq!(plan.max_steps, Some(100));
        assert_eq!(plan.panic_at_step, None);
        std::env::remove_var("STARDUST_FAULTS");
        assert_eq!(FaultPlan::from_env(), Ok(None));
    }

    /// A typo'd chaos plan must be a hard error, never a silent no-op:
    /// unknown keys, bad values, and missing separators all surface as
    /// typed [`FaultParseError`]s.
    #[test]
    fn malformed_plans_are_typed_errors_not_no_ops() {
        // The regression: an unknown key used to return `None`, which
        // callers could not distinguish from "no plan requested".
        assert_eq!(
            FaultPlan::parse("eror_at=100"),
            Err(FaultParseError::UnknownKey("eror_at".to_string()))
        );
        // A typo in *one* pair of an otherwise-valid plan still fails.
        assert_eq!(
            FaultPlan::parse("error_at=100,fail_aloc=2"),
            Err(FaultParseError::UnknownKey("fail_aloc".to_string()))
        );
        assert_eq!(
            FaultPlan::parse("error_at=ten"),
            Err(FaultParseError::InvalidValue {
                key: "error_at".to_string(),
                value: "ten".to_string(),
            })
        );
        assert_eq!(
            FaultPlan::parse("error_at"),
            Err(FaultParseError::MissingSeparator("error_at".to_string()))
        );
        // Empty and separator-only strings are "no plan", not errors.
        assert_eq!(FaultPlan::parse(""), Ok(None));
        assert_eq!(FaultPlan::parse(" , ,"), Ok(None));
        // The errors render actionable messages.
        let msg = FaultPlan::parse("eror_at=1").unwrap_err().to_string();
        assert!(msg.contains("eror_at") && msg.contains("expected"), "{msg}");
    }
}
