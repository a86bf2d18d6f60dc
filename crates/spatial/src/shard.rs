//! Intra-kernel parallelism: shard one kernel's outer loop across
//! pooled machines.
//!
//! Every optimization before this one made *per-measurement* overhead
//! vanish — rebinding is O(outputs) and pooled checkout is
//! nnz-independent — but a single large kernel still executed on one
//! core. Sparse tensor contractions partition cleanly along the outer
//! coordinate dimension (SpDISTAL's row/coordinate blocks), and the
//! lowered Spatial kernels here already *are* outer loops over
//! slot-resolved tensor slices, so this module splits that loop:
//!
//! 1. [`ShardPlan::analyze`] proves one of a [`CompiledProgram`]'s
//!    top-level `Foreach` loops over a constant integral `Range` safe
//!    to shard — no loop-carried on-chip state, no reads of
//!    body-written DRAM inside the loop, prefix DRAM writes disjoint
//!    from the body's, and (for a non-trailing candidate) a suffix
//!    that depends on nothing the body defines — or reports a typed
//!    [`NotShardable`] reason so callers fall back to serial
//!    execution. The trailing statement is tried first; when it is not
//!    provable, earlier top-level loops are candidates too, with the
//!    prefix/suffix obligations discharged by the compiled program's
//!    effect summaries ([`crate::analysis::effects_of_span`]).
//! 2. [`ShardPlan::compile`] rewrites the loop bounds into `n`
//!    contiguous-slice sub-programs (plus a zero-trip *baseline*
//!    program). Only literal bounds change, so every shard interns the
//!    parent's names in the parent's order and computes the parent's
//!    `DramLayout` — and therefore binds the parent's [`DramImage`]
//!    input segment with zero copies.
//! 3. [`CompiledShards::run_pooled`] checks out up to `n` pooled
//!    machines without blocking ([`MachinePool::try_checkout_n`]
//!    semantics: degraded grants run shards round-robin rather than
//!    waiting), runs them under `std::thread::scope` with the caller's
//!    [`RunBudget`] and fault plan, then merges output segments and
//!    [`ExecStats`] so the result is **bitwise identical** to a serial
//!    run of the parent program.
//!
//! # Why the merge is exact
//!
//! *Iteration values.* Shardability requires integral constant bounds
//! (magnitude < 2⁵⁰) and an integral step, so the engines' `v += step`
//! f64 accumulation is exact and a shard's patched lower bound
//! `lo + start·step` is bit-equal to the value serial iteration would
//! have reached.
//!
//! *DRAM words.* Every machine runs with a write log armed — a bitset
//! over the output segment recording exactly the words its program
//! stored. Runtime DRAM stores are pure overwrites, so replaying each
//! shard's logged words *in shard order* onto the baseline machine
//! reproduces serial last-write-wins without requiring shards to write
//! disjoint regions.
//!
//! *Stats.* Each shard re-runs the (DRAM-silent, deterministic)
//! prefix, so `Σ shard stats` counts the prefix `n` times. The
//! baseline program — the same source with a zero-trip outer loop —
//! measures exactly one prefix, and the merge subtracts `n − 1`
//! baselines: `merged = Σ shards − (n−1)·baseline`.
//!
//! *Prefix and suffix replay.* Each shard program is the full source
//! with only the candidate loop's bounds patched, so every shard (and
//! the baseline) re-runs the statements before *and after* the loop.
//! The analysis makes that replay exact: prefix DRAM writes are
//! disjoint from body writes and deterministic, so every shard logs
//! identical words for them; the suffix depends on nothing the body
//! defines, so it computes identical values on every machine, and its
//! stores land after the body's in every program just as they do
//! serially.
//!
//! *Errors.* Within a shard, iterations run in serial order, and the
//! analysis guarantees iteration-state independence, so the
//! lowest-indexed failing shard fails at exactly the point serial
//! would have failed first — that error is what [`run_pooled`]
//! propagates. The only intentionally non-identical dimensions are the
//! [`RunBudget`], which is armed *per shard* (documented at the call
//! sites): a budget generous enough for the serial run is generous
//! enough for every shard — and, for a non-trailing candidate, the
//! *choice* of error when both a body slice and the (deterministic)
//! suffix would fail: the baseline hits the suffix failure while
//! running concurrently with the shards, and its error takes
//! precedence, whereas serial would have reported the earliest body
//! failure. The failing run still fails either way.
//!
//! [`run_pooled`]: CompiledShards::run_pooled

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use crate::bytecode::CompiledProgram;
use crate::faults::{self, FaultPlan};
use crate::interp::{DramImage, ExecStats, Machine, RunBudget, RunError};
use crate::ir::{Counter, SExpr, SpatialStmt};
use crate::pool::{MachinePool, PoolOccupancy, PooledMachine};
use crate::resolve::Slot;

/// Loop bounds above this magnitude lose the exact-f64-integer
/// guarantee the bound-patching math relies on (2⁵⁰ leaves headroom
/// below the 2⁵³ exact-integer limit for `lo + trips·step`).
const MAX_EXACT_BOUND: f64 = (1i64 << 50) as f64;

/// Why a program cannot be sharded. Every variant is a *fallback*
/// signal, not a failure: callers run the program serially instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NotShardable {
    /// The program has no `accel` statements.
    EmptyBody,
    /// The last top-level statement is not a loop.
    TrailingStatementNotLoop,
    /// The last top-level statement is a `Reduce` — splitting it would
    /// reorder the f64 fold.
    TopLevelReduction,
    /// The outer loop iterates a `Scan` counter, not a `Range`.
    NonRangeCounter,
    /// A `Range` bound is not a literal constant.
    NonConstBounds,
    /// A `Range` bound constant is not an integer (or is NaN/∞), so
    /// patched bounds would not be bit-exact.
    NonIntegralBound,
    /// The `Range` step is zero or negative.
    NonPositiveStep,
    /// A bound's magnitude is ≥ 2⁵⁰, past the exact-integer headroom.
    BoundsOutOfRange,
    /// A statement before the candidate loop writes a DRAM array the
    /// loop body also writes — shards re-run the prefix, so a later
    /// shard's replayed prefix store would clobber an earlier shard's
    /// body store. (Prefix writes to arrays the body never touches are
    /// fine: every shard replays them identically.)
    PrefixWritesDram {
        /// The written DRAM array.
        mem: String,
    },
    /// The loop body reads a DRAM array the body also writes, so an
    /// iteration could observe another slice's stores.
    BodyReadsWrittenDram {
        /// The read-and-written DRAM array.
        mem: String,
    },
    /// A statement after the candidate loop depends on state the loop
    /// body defines (a variable it binds, on-chip state it allocates
    /// or writes, or a DRAM array it writes), so each shard's suffix
    /// replay would observe only its own slice.
    SuffixDependsOnBody {
        /// The loop-defined name the suffix depends on.
        name: String,
    },
    /// The loop body mutates on-chip state (memory write, FIFO
    /// enq/deq, register set, reduction) that is not allocated in the
    /// same iteration scope — loop-carried state serial iterations
    /// would share.
    BodyMutatesSharedChip {
        /// The mutated on-chip memory.
        mem: String,
    },
    /// The loop body reads an on-chip memory that *some* iteration
    /// path allocates but the current scope has not — the read would
    /// observe a previous iteration's (or the prefix's) contents.
    BodyReadsStaleChip {
        /// The read on-chip memory.
        mem: String,
    },
    /// The loop body reads a variable bound by a *different* iteration
    /// scope of the body (loop-carried binding).
    BodyReadsLoopCarriedVar {
        /// The variable.
        var: String,
    },
}

impl fmt::Display for NotShardable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NotShardable::EmptyBody => write!(f, "program has no accel statements"),
            NotShardable::TrailingStatementNotLoop => {
                write!(f, "last top-level statement is not a loop")
            }
            NotShardable::TopLevelReduction => {
                write!(f, "outer loop is a Reduce (splitting reorders the fold)")
            }
            NotShardable::NonRangeCounter => write!(f, "outer loop counter is not a Range"),
            NotShardable::NonConstBounds => write!(f, "outer Range bounds are not constants"),
            NotShardable::NonIntegralBound => {
                write!(f, "outer Range bound is not an exact integer")
            }
            NotShardable::NonPositiveStep => write!(f, "outer Range step is not positive"),
            NotShardable::BoundsOutOfRange => {
                write!(f, "outer Range bound magnitude exceeds 2^50")
            }
            NotShardable::PrefixWritesDram { mem } => {
                write!(
                    f,
                    "statement before the candidate loop writes DRAM {mem:?} the body also writes"
                )
            }
            NotShardable::BodyReadsWrittenDram { mem } => {
                write!(f, "loop body reads body-written DRAM {mem:?}")
            }
            NotShardable::SuffixDependsOnBody { name } => {
                write!(
                    f,
                    "statement after the candidate loop depends on loop-defined state {name:?}"
                )
            }
            NotShardable::BodyMutatesSharedChip { mem } => {
                write!(f, "loop body mutates shared on-chip state {mem:?}")
            }
            NotShardable::BodyReadsStaleChip { mem } => write!(
                f,
                "loop body reads on-chip memory {mem:?} allocated by another iteration scope"
            ),
            NotShardable::BodyReadsLoopCarriedVar { var } => {
                write!(f, "loop body reads loop-carried variable {var:?}")
            }
        }
    }
}

impl std::error::Error for NotShardable {}

/// An error from a contained run ([`run_contained`]) — of one machine
/// or of a sharded stage: either the [`RunError`] (for shards, identical
/// to what serial execution would have produced first) or a contained
/// panic.
#[derive(Debug, Clone)]
pub enum ShardError {
    /// A shard's interpreter error.
    Run(RunError),
    /// A shard's execution panicked; the payload message. The
    /// panicking machine was quarantined by the pool.
    Panic(String),
}

impl ShardError {
    /// Whether one clean retry is warranted: injected faults and
    /// contained panics are transient by the fault-injection contract;
    /// deterministic interpreter errors and budget aborts are not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ShardError::Panic(_) | ShardError::Run(RunError::InjectedFault { .. })
        )
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Run(e) => write!(f, "shard execution failed: {e}"),
            ShardError::Panic(msg) => write!(f, "shard execution panicked: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<RunError> for ShardError {
    fn from(e: RunError) -> Self {
        ShardError::Run(e)
    }
}

/// A proven-shardable program: the parent, the candidate loop's source
/// statement index, and the outer `Range`'s resolved integral bounds.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    parent: Arc<CompiledProgram>,
    /// Index of the candidate loop in the source `accel` block.
    stmt_idx: usize,
    lo: i64,
    hi_int: i64,
    step: i64,
    trips: u64,
    /// Whether any loop inside the candidate carries a non-`None`
    /// [`crate::VecClass`] — i.e. a shard's hot loop runs chunked, so
    /// [`auto_shard_count_for`] discounts its trips.
    vectorized: bool,
}

impl ShardPlan {
    /// Proves one of `parent`'s top-level loops shardable or explains
    /// why not. The trailing statement is tried first (and its typed
    /// rejection is what an all-candidates failure reports); when it
    /// does not prove, every earlier top-level `Foreach` is tried in
    /// reverse order. Per candidate, the proof obligations:
    ///
    /// - the statement is a `Foreach` over
    ///   `Range { min: Const, max: Const, step ≥ 1 }` with integral
    ///   bounds of magnitude < 2⁵⁰ (exact f64 integer arithmetic);
    /// - the *prefix* (statements before the loop, re-run by every
    ///   shard) writes no DRAM array the loop body writes — proven
    ///   from the compiled effect summaries
    ///   ([`crate::analysis::effects_of_span`]);
    /// - the loop body never reads body-written DRAM, never mutates
    ///   on-chip state allocated outside its own iteration scope,
    ///   never reads on-chip state another iteration scope allocates,
    ///   and never reads a variable bound by another iteration scope —
    ///   i.e. iterations are state-independent;
    /// - the *suffix* (statements after the loop, also re-run by every
    ///   shard) depends on nothing the body defines: no body-bound
    ///   variable, no body-allocated or body-written chip slot, no
    ///   body-written DRAM array — again from the effect summaries.
    pub fn analyze(parent: &Arc<CompiledProgram>) -> Result<ShardPlan, NotShardable> {
        let src = parent.source();
        if src.accel.is_empty() {
            return Err(NotShardable::EmptyBody);
        }
        let trailing = Self::analyze_at(parent, src.accel.len() - 1);
        let mut err = match trailing {
            Ok(plan) => return Ok(plan),
            Err(e) => e,
        };
        for idx in (0..src.accel.len() - 1).rev() {
            if !matches!(src.accel[idx], SpatialStmt::Foreach { .. }) {
                continue;
            }
            match Self::analyze_at(parent, idx) {
                Ok(plan) => return Ok(plan),
                // When the trailing statement was not even a loop, a
                // real candidate's rejection is the informative one.
                Err(e) => {
                    if matches!(err, NotShardable::TrailingStatementNotLoop) {
                        err = e;
                    }
                }
            }
        }
        Err(err)
    }

    /// Runs the per-candidate proof obligations for the top-level
    /// statement at source index `idx` (see [`ShardPlan::analyze`]).
    fn analyze_at(parent: &Arc<CompiledProgram>, idx: usize) -> Result<ShardPlan, NotShardable> {
        let src = parent.source();
        let (counter, outer_body) = match src.accel.get(idx) {
            None => return Err(NotShardable::EmptyBody),
            Some(SpatialStmt::Foreach { counter, body, .. }) => (counter, body),
            Some(SpatialStmt::Reduce { .. }) => return Err(NotShardable::TopLevelReduction),
            Some(_) => return Err(NotShardable::TrailingStatementNotLoop),
        };
        let (var, min, max, step) = match counter {
            Counter::Range {
                var,
                min,
                max,
                step,
            } => (var.as_str(), min, max, *step),
            _ => return Err(NotShardable::NonRangeCounter),
        };
        if step < 1 {
            return Err(NotShardable::NonPositiveStep);
        }
        let lo = const_bound(min)?;
        let hi_int = const_bound(max)?;
        let trips = if hi_int <= lo {
            0
        } else {
            ((hi_int - lo) as u64).div_ceil(step as u64)
        };

        // The candidate's op span: spans are indexed by source statement.
        let spans = parent.stmt_spans();
        let (cand_start, cand_end) = spans[idx];
        let (ops, eops, fused) = (parent.ops(), parent.eops(), parent.fused());
        let syms = parent.syms();
        let cand = crate::analysis::effects_of_span(
            ops,
            eops,
            fused,
            cand_start as usize..cand_end as usize,
        );

        // Prefix obligation: re-run DRAM writes must be disjoint from
        // the body's, or a later shard's replayed prefix store would
        // clobber an earlier shard's body store.
        if cand_start > 0 {
            let prefix = crate::analysis::effects_of_span(ops, eops, fused, 0..cand_start as usize);
            if let Some(&slot) = prefix.dram_writes.intersection(&cand.dram_writes).next() {
                return Err(NotShardable::PrefixWritesDram {
                    mem: syms.dram_name(slot).to_string(),
                });
            }
        }

        // Suffix obligation: nothing the body defines may flow into
        // the statements after the loop — each shard re-runs them, and
        // they must compute identical values on every machine. The
        // outer loop variable is exempt: the dispatch loop restores
        // its pre-loop binding on exit, so the suffix observes the
        // prefix's value (or unbound), identically everywhere.
        let suffix_start = cand_end as usize;
        let suffix_end = spans.last().map_or(suffix_start, |&(_, e)| e as usize);
        if suffix_start < suffix_end {
            let suffix =
                crate::analysis::effects_of_span(ops, eops, fused, suffix_start..suffix_end);
            let outer_var = (0..syms.var_count() as Slot).find(|&s| syms.var_name(s) == var);
            let dep = suffix
                .var_uses
                .intersection(&cand.var_defs)
                .find(|&&s| Some(s) != outer_var)
                .map(|&s| syms.var_name(s).to_string())
                .or_else(|| {
                    suffix
                        .chip_reads
                        .intersection(&cand.chip_writes)
                        .next()
                        .map(|&s| syms.chip_name(s).to_string())
                })
                .or_else(|| {
                    suffix
                        .dram_reads
                        .intersection(&cand.dram_writes)
                        .next()
                        .map(|&s| syms.dram_name(s).to_string())
                });
            if let Some(name) = dep {
                return Err(NotShardable::SuffixDependsOnBody { name });
            }
        }

        let meta = BodyMeta::collect(outer_body);
        let mut bound: HashSet<&str> = HashSet::new();
        bound.insert(var);
        let mut local: HashSet<&str> = HashSet::new();
        meta.check_stmts(outer_body, &mut bound, &mut local)?;

        let vectorized = (cand_start as usize..cand_end as usize)
            .any(|pc| parent.vec_class(pc) != crate::VecClass::None);

        Ok(ShardPlan {
            parent: Arc::clone(parent),
            stmt_idx: idx,
            lo,
            hi_int,
            step,
            trips,
            vectorized,
        })
    }

    /// Outer-loop iteration count.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Whether the candidate loop contains vector-eligible inner loops
    /// (see [`auto_shard_count_for`]).
    pub fn vectorized(&self) -> bool {
        self.vectorized
    }

    /// Source `accel` index of the candidate loop this plan splits.
    pub fn stmt_idx(&self) -> usize {
        self.stmt_idx
    }

    /// Compiles `n`-way shards (clamped to `1..=max(1, trips)`): `n`
    /// sub-programs whose outer bounds cover contiguous slices of the
    /// iteration space, plus the zero-trip baseline. They differ from
    /// the parent in two literal bounds and a name, so DRAM slot
    /// interning and the `DramLayout` are identical and the parent's
    /// [`DramImage`] binds directly.
    pub fn compile(&self, n: usize) -> CompiledShards {
        let n = n
            .max(1)
            .min(usize::try_from(self.trips).unwrap_or(usize::MAX).max(1));
        let base = self.trips / n as u64;
        let rem = (self.trips % n as u64) as usize;
        let mut shards = Vec::with_capacity(n);
        let mut start = 0u64;
        for k in 0..n {
            let len = base + u64::from(k < rem);
            let end = start + len;
            // i64 is safe: end ≤ trips and lo + trips·step ≤ hi < 2⁵⁰.
            let s_lo = self.lo + start as i64 * self.step;
            let s_hi = self.lo + end as i64 * self.step;
            shards.push(Arc::new(self.patched(
                &format!("__shard{k}of{n}"),
                s_lo,
                // The last shard keeps the original upper bound (the
                // values coincide for integral bounds; this preserves
                // the program text byte-for-byte at the boundary).
                if k + 1 == n { self.hi_int } else { s_hi },
            )));
            start = end;
        }
        let baseline = Arc::new(self.patched("__shard_baseline", self.lo, self.lo));
        CompiledShards {
            parent: Arc::clone(&self.parent),
            shards,
            baseline,
        }
    }

    /// The parent source with the candidate loop's `Range` bounds
    /// replaced by `[lo, hi)` and the name suffixed for debuggability.
    fn patched(&self, suffix: &str, lo: i64, hi: i64) -> CompiledProgram {
        let mut src = self.parent.source().clone();
        src.name.push_str(suffix);
        if let Some(SpatialStmt::Foreach {
            counter: Counter::Range { min, max, .. },
            ..
        }) = src.accel.get_mut(self.stmt_idx)
        {
            *min = SExpr::Const(lo as f64);
            *max = SExpr::Const(hi as f64);
        }
        CompiledProgram::compile(&src)
    }
}

/// Minimum outer-loop trips one shard must own before the split pays
/// for its pooled checkout, prefix re-run, and write-log merge. Below
/// `2 ×` this, [`auto_shard_count`] keeps the run serial.
pub const MIN_TRIPS_PER_SHARD: u64 = 256;

/// Picks a shard count from a proven trip count and the pool's current
/// occupancy — the sizing policy behind "auto" sharding (a serving
/// layer's `shards == 0`):
///
/// - at most one shard per [`MIN_TRIPS_PER_SHARD`] trips, so tiny
///   loops stay serial rather than paying `n` prefix re-runs to split
///   a few iterations;
/// - at most the pool's current machine count (idle machines, or the
///   shard-vector width for a pool that has not grown yet) — splitting
///   wider than the pool forces round-robin with no added parallelism;
/// - at most the host's available parallelism.
///
/// Returns `1` (serial) whenever any cap says splitting is not worth
/// it. Pure policy: callers decide whether a `1` means "skip the
/// sharded executor entirely".
pub fn auto_shard_count(trips: u64, occ: &PoolOccupancy) -> usize {
    let slots = occ.idle.max(occ.shards).max(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let by_trips = usize::try_from(trips / MIN_TRIPS_PER_SHARD).unwrap_or(usize::MAX);
    by_trips.min(slots).min(cores).max(1)
}

/// Trip discount applied by [`auto_shard_count_for`] when the
/// candidate loop is vector-eligible: a chunked shard retires its
/// iterations roughly this factor faster than the scalar model behind
/// [`MIN_TRIPS_PER_SHARD`] assumes (measured chunk speedups on the
/// bench kernels run 1.3–2.8×; 2 is the conservative round number), so
/// a vectorized shard needs proportionally more trips before the
/// split's fixed overhead amortizes.
pub const VECTOR_SHARD_DISCOUNT: u64 = 2;

/// Vector-aware sizing: like [`auto_shard_count`], but when the plan's
/// candidate loop is proven vector-eligible the trip count is divided
/// by [`VECTOR_SHARD_DISCOUNT`] first — chunked shards finish sooner,
/// so the same trip count justifies fewer shards.
pub fn auto_shard_count_for(plan: &ShardPlan, occ: &PoolOccupancy) -> usize {
    let trips = if plan.vectorized() {
        plan.trips() / VECTOR_SHARD_DISCOUNT
    } else {
        plan.trips()
    };
    auto_shard_count(trips, occ)
}

/// Integral constant bound with exact-f64 headroom, or the typed
/// rejection.
fn const_bound(e: &SExpr) -> Result<i64, NotShardable> {
    match e {
        SExpr::Const(v) => {
            if v.fract() != 0.0 || v.is_nan() {
                Err(NotShardable::NonIntegralBound)
            } else if v.abs() >= MAX_EXACT_BOUND {
                Err(NotShardable::BoundsOutOfRange)
            } else {
                Ok(*v as i64)
            }
        }
        _ => Err(NotShardable::NonConstBounds),
    }
}

/// Body-wide facts the scoped walk consults.
struct BodyMeta<'a> {
    /// DRAM arrays the loop body writes anywhere. (Prefix and suffix
    /// writes are checked separately against the effect summaries; a
    /// body read of an array only the prefix or suffix writes is safe,
    /// because each shard replays the prefix before — and the suffix
    /// after — its body slice, exactly as serial orders them.)
    written_drams: HashSet<&'a str>,
    /// Variables bound anywhere *inside* the outer-loop body. A read
    /// of a name outside this set resolves to the prefix (or the shard
    /// loop variable), which is iteration-independent.
    body_vars: HashSet<&'a str>,
    /// On-chip names `Alloc`'d anywhere inside the body. A read of one
    /// of these outside the current iteration scope would observe
    /// another iteration's contents.
    body_allocs: HashSet<&'a str>,
}

impl<'a> BodyMeta<'a> {
    fn collect(body: &'a [SpatialStmt]) -> BodyMeta<'a> {
        let mut written_drams = HashSet::new();
        let mut body_vars = HashSet::new();
        let mut body_allocs = HashSet::new();
        for stmt in body {
            stmt.visit(&mut |s| match s {
                SpatialStmt::Store { dst, .. }
                | SpatialStmt::StreamStore { dst, .. }
                | SpatialStmt::StoreScalar { dst, .. } => {
                    written_drams.insert(dst.as_str());
                }
                SpatialStmt::Bind { var, .. } => {
                    body_vars.insert(var.as_str());
                }
                SpatialStmt::Alloc(decl) => {
                    body_allocs.insert(decl.name.as_str());
                }
                SpatialStmt::Foreach { counter, .. } | SpatialStmt::Reduce { counter, .. } => {
                    body_vars.extend(counter.bound_vars());
                }
                _ => {}
            });
        }
        BodyMeta {
            written_drams,
            body_vars,
            body_allocs,
        }
    }

    /// Scoped shardability walk. `bound` holds variables surely bound
    /// in the current iteration scope; `local` holds on-chip names
    /// surely `Alloc`'d in it. Nested loop bodies get *clones* of both
    /// sets: a nested loop may run zero trips, so its bindings and
    /// allocations must not validate uses after it — while same-scope
    /// statements (unconditionally executed) propagate forward.
    fn check_stmts(
        &self,
        stmts: &[SpatialStmt],
        bound: &mut HashSet<&'a str>,
        local: &mut HashSet<&'a str>,
    ) -> Result<(), NotShardable> {
        for stmt in stmts {
            self.check_stmt(stmt, bound, local)?;
        }
        Ok(())
    }

    fn check_stmt(
        &self,
        stmt: &SpatialStmt,
        bound: &mut HashSet<&'a str>,
        local: &mut HashSet<&'a str>,
    ) -> Result<(), NotShardable> {
        match stmt {
            SpatialStmt::Alloc(decl) => {
                if let Some(name) = self.body_allocs.get(decl.name.as_str()) {
                    local.insert(name);
                }
                Ok(())
            }
            SpatialStmt::Bind { var, value } => {
                self.check_expr(value, bound, local)?;
                if let Some(name) = self.body_vars.get(var.as_str()) {
                    bound.insert(name);
                }
                Ok(())
            }
            SpatialStmt::Load {
                dst,
                src,
                start,
                end,
                ..
            } => {
                self.check_chip_mutation(dst, local)?;
                self.check_dram_read(src)?;
                self.check_expr(start, bound, local)?;
                self.check_expr(end, bound, local)
            }
            SpatialStmt::Store {
                offset, src, len, ..
            } => {
                // The DRAM write itself is fine (logged + merged);
                // reading the source SRAM follows the stale rule.
                self.check_chip_read(src, local)?;
                self.check_expr(offset, bound, local)?;
                self.check_expr(len, bound, local)
            }
            SpatialStmt::StreamStore {
                offset, fifo, len, ..
            } => {
                // Draining the FIFO mutates it.
                self.check_chip_mutation(fifo, local)?;
                self.check_expr(offset, bound, local)?;
                self.check_expr(len, bound, local)
            }
            SpatialStmt::StoreScalar { index, value, .. } => {
                self.check_expr(index, bound, local)?;
                self.check_expr(value, bound, local)
            }
            SpatialStmt::WriteMem {
                mem, index, value, ..
            } => {
                self.check_chip_mutation(mem, local)?;
                self.check_expr(index, bound, local)?;
                self.check_expr(value, bound, local)
            }
            SpatialStmt::RmwAdd { mem, index, value } => {
                self.check_chip_mutation(mem, local)?;
                self.check_expr(index, bound, local)?;
                self.check_expr(value, bound, local)
            }
            SpatialStmt::SetReg { reg, value } => {
                self.check_chip_mutation(reg, local)?;
                self.check_expr(value, bound, local)
            }
            SpatialStmt::Enq { fifo, value } => {
                self.check_chip_mutation(fifo, local)?;
                self.check_expr(value, bound, local)
            }
            SpatialStmt::GenBitVector {
                dst,
                src,
                src_start,
                count,
                dim,
            } => {
                self.check_chip_mutation(dst, local)?;
                // The source may be a FIFO (drained by the gather), so
                // conservatively treat it as mutated too.
                self.check_chip_mutation(src, local)?;
                self.check_expr(src_start, bound, local)?;
                self.check_expr(count, bound, local)?;
                self.check_expr(dim, bound, local)
            }
            SpatialStmt::Foreach { counter, body, .. } => {
                self.check_counter(counter, bound, local)?;
                let mut child_bound = bound.clone();
                let mut child_local = local.clone();
                for v in counter.bound_vars() {
                    if let Some(name) = self.body_vars.get(v) {
                        child_bound.insert(name);
                    }
                }
                self.check_stmts(body, &mut child_bound, &mut child_local)
            }
            SpatialStmt::Reduce {
                reg,
                counter,
                body,
                expr,
                ..
            } => {
                // The accumulator is read and written across the
                // reduction's own iterations — that is fine *within*
                // one shard iteration, but the register must belong to
                // the enclosing iteration scope.
                self.check_chip_mutation(reg, local)?;
                self.check_counter(counter, bound, local)?;
                let mut child_bound = bound.clone();
                let mut child_local = local.clone();
                for v in counter.bound_vars() {
                    if let Some(name) = self.body_vars.get(v) {
                        child_bound.insert(name);
                    }
                }
                self.check_stmts(body, &mut child_bound, &mut child_local)?;
                self.check_expr(expr, &mut child_bound, &mut child_local)
            }
            SpatialStmt::Comment(_) => Ok(()),
        }
    }

    fn check_counter(
        &self,
        counter: &Counter,
        bound: &mut HashSet<&'a str>,
        local: &mut HashSet<&'a str>,
    ) -> Result<(), NotShardable> {
        match counter {
            Counter::Range { min, max, .. } => {
                self.check_expr(min, bound, local)?;
                self.check_expr(max, bound, local)
            }
            Counter::Scan2 { bv_a, bv_b, .. } => {
                self.check_chip_read(bv_a, local)?;
                self.check_chip_read(bv_b, local)
            }
        }
    }

    fn check_expr(
        &self,
        e: &SExpr,
        bound: &mut HashSet<&'a str>,
        local: &mut HashSet<&'a str>,
    ) -> Result<(), NotShardable> {
        match e {
            SExpr::Const(_) => Ok(()),
            SExpr::Var(name) => {
                if bound.contains(name.as_str()) || !self.body_vars.contains(name.as_str()) {
                    Ok(())
                } else {
                    Err(NotShardable::BodyReadsLoopCarriedVar { var: name.clone() })
                }
            }
            SExpr::ReadMem { mem, index, .. } => {
                // A name is either a DRAM array or an on-chip memory;
                // both rules compose (each is vacuous for the other).
                self.check_dram_read(mem)?;
                self.check_chip_read(mem, local)?;
                self.check_expr(index, bound, local)
            }
            SExpr::Deq(fifo) => self.check_chip_mutation(fifo, local),
            SExpr::RegRead(reg) => self.check_chip_read(reg, local),
            SExpr::Binary { lhs, rhs, .. } => {
                self.check_expr(lhs, bound, local)?;
                self.check_expr(rhs, bound, local)
            }
            SExpr::Neg(inner) => self.check_expr(inner, bound, local),
            SExpr::Select {
                cond,
                if_true,
                if_false,
            } => {
                self.check_expr(cond, bound, local)?;
                self.check_expr(if_true, bound, local)?;
                self.check_expr(if_false, bound, local)
            }
        }
    }

    /// On-chip state mutation: the name must have been `Alloc`'d in
    /// the current iteration scope, else the mutation is loop-carried.
    fn check_chip_mutation(
        &self,
        name: &str,
        local: &HashSet<&'a str>,
    ) -> Result<(), NotShardable> {
        if local.contains(name) {
            Ok(())
        } else {
            Err(NotShardable::BodyMutatesSharedChip {
                mem: name.to_string(),
            })
        }
    }

    /// On-chip read: prefix-allocated state is constant across
    /// iterations (the prefix only ever writes it before the loop) and
    /// fine to read; state allocated *somewhere* in the body must be
    /// allocated in the current scope or the read observes another
    /// iteration.
    fn check_chip_read(&self, name: &str, local: &HashSet<&'a str>) -> Result<(), NotShardable> {
        if self.body_allocs.contains(name) && !local.contains(name) {
            Err(NotShardable::BodyReadsStaleChip {
                mem: name.to_string(),
            })
        } else {
            Ok(())
        }
    }

    /// DRAM read inside the body: rejected if the body writes the
    /// same array anywhere (an iteration could observe another slice's
    /// stores).
    fn check_dram_read(&self, name: &str) -> Result<(), NotShardable> {
        if self.written_drams.contains(name) {
            Err(NotShardable::BodyReadsWrittenDram {
                mem: name.to_string(),
            })
        } else {
            Ok(())
        }
    }
}

/// `n` compiled shard sub-programs plus the zero-trip baseline, ready
/// to run against any [`DramImage`] built for the parent.
#[derive(Debug, Clone)]
pub struct CompiledShards {
    parent: Arc<CompiledProgram>,
    shards: Vec<Arc<CompiledProgram>>,
    baseline: Arc<CompiledProgram>,
}

/// One shard's successful result, extracted off its machine so a
/// worker can hand the machine back before its next round-robin shard.
struct ShardOut {
    stats: ExecStats,
    /// Write-log bitset over the output segment.
    log: Vec<u64>,
    /// Written words in ascending index order (one per set bit).
    words: Vec<f64>,
    /// Wall seconds for this shard's bind + run + extraction, measured
    /// on its worker. Contention-free only when workers don't
    /// oversubscribe cores (e.g. `capacity = Some(1)` serializes them)
    /// — the bench harness uses that mode to compute the critical-path
    /// speedup from honest per-shard times.
    seconds: f64,
}

/// A completed sharded run: the merged machine (outputs readable
/// exactly as after a serial run) plus the merged stats.
pub struct ShardedRun<'p> {
    /// The merge target: a pooled machine whose output segment and
    /// folded stats are bitwise identical to a serial run's. Read
    /// outputs through it and drop it to return it to the pool.
    pub machine: PooledMachine<'p>,
    /// The merged [`ExecStats`] (also installed on `machine`).
    pub stats: ExecStats,
    /// Number of shard sub-programs executed.
    pub shards: usize,
    /// Number of machines the pool granted (workers); `< shards` means
    /// the capacity fallback ran shards round-robin.
    pub workers: usize,
    /// Per-shard wall seconds (bind + run + output extraction),
    /// indexed by shard. Only contention-free — and therefore usable
    /// for critical-path math — when workers didn't oversubscribe
    /// cores (run with `capacity = Some(1)` for clean times).
    pub shard_seconds: Vec<f64>,
    /// Wall seconds of the zero-trip baseline run (the prefix — on a
    /// parallel machine it overlaps the shards).
    pub baseline_seconds: f64,
    /// Wall seconds of the output + stats merge (strictly after every
    /// shard on any machine).
    pub merge_seconds: f64,
}

impl CompiledShards {
    /// Number of shard sub-programs.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The parent these shards were compiled from.
    pub fn parent(&self) -> &Arc<CompiledProgram> {
        &self.parent
    }

    /// Runs the shards on pooled machines and merges the results.
    ///
    /// - `image` is bound to every shard machine: all of them share
    ///   the one `Arc` input segment, zero copies.
    /// - `capacity` bounds total pool checkouts as in
    ///   [`MachinePool::try_checkout_n`]: a degraded grant of `m < n`
    ///   machines runs shards round-robin (`worker w` runs shards
    ///   `w, w+m, …` sequentially) instead of blocking.
    /// - `budget` is armed **per shard** (and once for the baseline).
    ///   Step/word budgets therefore bound each slice, not the sum —
    ///   a budget generous enough for serial is generous enough here.
    /// - The caller's installed fault plan is cloned into each worker
    ///   thread, and a shard whose failure is transient (injected
    ///   fault or contained panic) is retried exactly once on a fresh
    ///   machine; the poisoned one is quarantined by the pool.
    ///
    /// On success the returned [`ShardedRun::machine`] holds output
    /// words and stats bitwise identical to a serial run. On error the
    /// propagated [`ShardError`] is the lowest-indexed failing shard's
    /// (= the error serial execution would have hit first), with a
    /// prefix (baseline) failure taking precedence.
    pub fn run_pooled<'p>(
        &self,
        image: &DramImage,
        pool: &'p MachinePool,
        budget: &RunBudget,
        capacity: Option<u64>,
    ) -> Result<ShardedRun<'p>, ShardError> {
        let n = self.shards.len();
        let machines = pool.try_checkout_each(&self.shards, capacity, false);
        let m = machines.len();
        debug_assert!(m >= 1, "try_checkout_each grants at least one machine");
        let plan = faults::active();

        // Baseline result slot, filled on the caller thread inside the
        // scope so the (tiny) prefix-only run overlaps the shards.
        let mut baseline_res: Option<Result<(PooledMachine<'p>, ExecStats, f64), ShardError>> =
            None;
        let mut worker_outs: Vec<Vec<(usize, Result<ShardOut, ShardError>)>> = Vec::new();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(m);
            for (w, guard) in machines.into_iter().enumerate() {
                let shards = &self.shards;
                let plan = plan.clone();
                handles.push(scope.spawn(move || {
                    let _guard = plan.map(FaultPlan::install);
                    let mut guard = guard;
                    let mut outs = Vec::new();
                    for k in (w..n).step_by(m) {
                        if k != w {
                            // A machine runs one program: trade this
                            // worker's machine for one compiled for
                            // shard `k`, returning the old one first so
                            // the worker's checkout slot stays one.
                            drop(guard);
                            guard = pool.checkout(&shards[k]);
                        }
                        // The transient one-shot fault was consumed
                        // from this worker's plan clone, so the retry
                        // runs clean.
                        let res = retry_once(pool, &shards[k], &mut guard, |m| {
                            run_one_shard(m, &shards[k], image, budget)
                        });
                        let failed = res.is_err();
                        outs.push((k, res));
                        if failed {
                            // The run aborted mid-program; the machine
                            // is poisoned and this worker's later
                            // shards cannot change the outcome.
                            break;
                        }
                    }
                    (outs, guard)
                }));
            }

            baseline_res = Some(self.run_baseline(pool, image, budget));

            for handle in handles {
                match handle.join() {
                    Ok((outs, guard)) => {
                        worker_outs.push(outs);
                        // Keep shard machines alive until after the
                        // merge? Not needed: outputs were extracted
                        // per shard. Return the machine to the pool.
                        drop(guard);
                    }
                    Err(payload) => {
                        worker_outs.push(vec![(
                            usize::MAX,
                            Err(ShardError::Panic(panic_message(&*payload))),
                        )]);
                    }
                }
            }
        });

        let (mut target, baseline_stats, baseline_seconds) = match baseline_res {
            Some(Ok(triple)) => triple,
            Some(Err(e)) => return Err(e),
            None => unreachable!("baseline runs inside the scope"),
        };

        // Order results by shard index; propagate the lowest failure.
        let mut by_shard: Vec<Option<ShardOut>> = Vec::new();
        by_shard.resize_with(n, || None);
        let mut first_err: Option<(usize, ShardError)> = None;
        for (k, res) in worker_outs.into_iter().flatten() {
            match res {
                Ok(out) => {
                    if k < n {
                        by_shard[k] = Some(out);
                    }
                }
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(fk, _)| k < *fk) {
                        first_err = Some((k, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }

        let merge_start = Instant::now();
        let mut shard_stats = Vec::with_capacity(n);
        let mut shard_seconds = Vec::with_capacity(n);
        for (k, slot) in by_shard.iter_mut().enumerate() {
            let out = slot
                .as_mut()
                .unwrap_or_else(|| unreachable!("shard {k} neither succeeded nor failed"));
            target.shard_apply_output(&out.words, &out.log);
            shard_stats.push(std::mem::take(&mut out.stats));
            shard_seconds.push(out.seconds);
        }
        let merged = merge_shard_stats(&shard_stats, &baseline_stats);
        target.shard_set_stats(merged.clone());
        let merge_seconds = merge_start.elapsed().as_secs_f64();

        Ok(ShardedRun {
            machine: target,
            stats: merged,
            shards: n,
            workers: m,
            shard_seconds,
            baseline_seconds,
            merge_seconds,
        })
    }

    /// Runs the zero-trip baseline on the caller thread: its post-run
    /// output segment holds exactly the prefix's and suffix's
    /// (deterministic, body-independent — proven by analysis) stores,
    /// which every shard's log replays identically, and its stats are
    /// exactly one prefix + suffix execution. Retried once on
    /// transient failure like any shard.
    fn run_baseline<'p>(
        &self,
        pool: &'p MachinePool,
        image: &DramImage,
        budget: &RunBudget,
    ) -> Result<(PooledMachine<'p>, ExecStats, f64), ShardError> {
        let start = Instant::now();
        let mut guard = pool.checkout(&self.baseline);
        let res = retry_once(pool, &self.baseline, &mut guard, |m| {
            run_one(m, &self.baseline, image, budget, false)
        });
        res.map(|stats| (guard, stats, start.elapsed().as_secs_f64()))
    }
}

/// Runs one shard program on a worker machine with the write log
/// armed, and extracts the logged words so the machine can go back to
/// the pool before the merge.
fn run_one_shard(
    machine: &mut Machine,
    prog: &Arc<CompiledProgram>,
    image: &DramImage,
    budget: &RunBudget,
) -> Result<ShardOut, ShardError> {
    let start = Instant::now();
    let stats = run_one(machine, prog, image, budget, true)?;
    let log = machine.shard_take_write_log();
    let out = machine.shard_output_words();
    let mut words = Vec::new();
    for (w, &mask) in log.iter().enumerate() {
        let mut rem = mask;
        let base = w * 64;
        while rem != 0 {
            let ix = base + rem.trailing_zeros() as usize;
            words.push(out[ix]);
            rem &= rem - 1;
        }
    }
    Ok(ShardOut {
        stats,
        log,
        words,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Runs `run` on the checked-out machine; on a transient failure swaps
/// in a fresh checkout (dropping the poisoned machine quarantines it)
/// and runs exactly once more.
fn retry_once<'p, T>(
    pool: &'p MachinePool,
    prog: &Arc<CompiledProgram>,
    guard: &mut PooledMachine<'p>,
    run: impl Fn(&mut Machine) -> Result<T, ShardError>,
) -> Result<T, ShardError> {
    let res = run(guard);
    if res.as_ref().is_err_and(|e| e.is_transient()) {
        *guard = pool.checkout(prog);
        return run(guard);
    }
    res
}

/// One shard-side execution: rebind, budget, contained run.
fn run_one(
    machine: &mut Machine,
    prog: &Arc<CompiledProgram>,
    image: &DramImage,
    budget: &RunBudget,
    arm_log: bool,
) -> Result<ExecStats, ShardError> {
    machine.clear_exec_state();
    machine.shard_bind_image(image)?;
    machine.set_budget(budget.clone());
    if arm_log {
        machine.shard_arm_write_log();
    }
    run_contained(machine, prog.source())
}

/// Runs `machine` on `program` with **panic containment**: a panic
/// inside the interpreter — real or injected by the [`crate::faults`]
/// harness — is caught here and returned as [`ShardError::Panic`]
/// instead of unwinding the caller (or a shard scope). The machine is
/// poisoned either way, so a pool quarantines it at check-in and the
/// contained state can never be recycled — which is what makes the
/// `AssertUnwindSafe` sound: nothing the panic tore through is ever
/// observed again.
pub fn run_contained(
    machine: &mut Machine,
    program: &crate::ir::SpatialProgram,
) -> Result<ExecStats, ShardError> {
    match catch_unwind(AssertUnwindSafe(|| machine.run(program))) {
        Ok(Ok(stats)) => Ok(stats),
        Ok(Err(e)) => Err(ShardError::Run(e)),
        Err(payload) => Err(ShardError::Panic(panic_message(&*payload))),
    }
}

/// Best-effort extraction of a contained panic's message (the payload
/// of a `panic!` is `&str` or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `Σ shards − (n−1)·baseline`: every shard re-ran the prefix, the
/// baseline measured exactly one prefix (its outer loop runs zero
/// trips, contributing nothing — the bounds are constants, so even
/// bound evaluation is ALU-free). Zero-valued map entries are
/// preserved (a zero-length bulk access still creates its key), and
/// node vectors are re-trimmed to the canonical trailing-zero-free
/// form.
fn merge_shard_stats(shards: &[ExecStats], baseline: &ExecStats) -> ExecStats {
    let mut sum = ExecStats::default();
    for s in shards {
        sum.merge(s);
    }
    let extra = shards.len().saturating_sub(1) as u64;
    sub_map(&mut sum.dram_reads, &baseline.dram_reads, extra);
    sub_map(&mut sum.dram_writes, &baseline.dram_writes, extra);
    sub_node(&mut sum.node_trips, &baseline.node_trips, extra);
    sub_node(
        &mut sum.node_dram_read_words,
        &baseline.node_dram_read_words,
        extra,
    );
    sub_node(
        &mut sum.node_dram_write_words,
        &baseline.node_dram_write_words,
        extra,
    );
    sum.dram_random_reads -= extra * baseline.dram_random_reads;
    sum.dram_random_writes -= extra * baseline.dram_random_writes;
    sum.alu_ops -= extra * baseline.alu_ops;
    sum.sram_reads -= extra * baseline.sram_reads;
    sum.sram_writes -= extra * baseline.sram_writes;
    sum.shuffle_accesses -= extra * baseline.shuffle_accesses;
    sum.fifo_enqs -= extra * baseline.fifo_enqs;
    sum.fifo_deqs -= extra * baseline.fifo_deqs;
    sum.scan_bits -= extra * baseline.scan_bits;
    sum.scan_emits -= extra * baseline.scan_emits;
    sum.bv_gen_bits -= extra * baseline.bv_gen_bits;
    sum.reduce_elems -= extra * baseline.reduce_elems;
    sum
}

/// Subtracts `extra` copies of the baseline's per-array counts. Every
/// shard's map is a superset of the baseline's keys (each shard re-ran
/// the prefix), so subtraction never needs to create a key, and
/// entries that reach zero stay — serial's fold keeps them too.
fn sub_map(into: &mut HashMap<String, u64>, baseline: &HashMap<String, u64>, extra: u64) {
    for (k, v) in baseline {
        if let Some(slot) = into.get_mut(k) {
            *slot -= extra * v;
        }
    }
}

/// Subtracts `extra` copies of the baseline's per-node counters, then
/// re-trims trailing zeros so the vector stays canonical.
fn sub_node(into: &mut Vec<u64>, baseline: &[u64], extra: u64) {
    for (slot, v) in into.iter_mut().zip(baseline) {
        *slot -= extra * v;
    }
    while into.last() == Some(&0) {
        into.pop();
    }
}
