//! A pool of reusable [`Machine`]s for serving loops and sweep
//! executors.
//!
//! Fresh-machine construction is allocator-bound: [`Machine`] state is a
//! handful of multi-MB flat arenas (DRAM output segment, on-chip word
//! and bitset arenas), so a sweep that binds a fresh machine per
//! measurement spends its fixed cost in `malloc`, not in binding. A
//! [`MachinePool`] keeps finished machines keyed by their compiled
//! program, scrubs them at check-in (execution state cleared, input
//! segment unbound so no idle machine pins its last dataset's
//! [`DramImage`] words), and hands them back out at O(outputs) or less
//! — the checked-out machine is indistinguishable from a fresh
//! [`Machine::from_compiled`], which `crates/spatial/tests/pool.rs`
//! property-tests across engines.
//!
//! The pool is sharded: every OS thread is assigned a home shard (a
//! process-wide dense thread index modulo the shard count), check-out
//! and check-in touch the home shard's lock first, and other shards are
//! only visited with non-blocking `try_lock` steals when the home shard
//! has nothing to offer. A [`MachinePool::new`] pool sizes its shard
//! vector from the threads actually observed touching it — growing in
//! powers of two up to [`MAX_SHARDS`] — rather than from
//! `available_parallelism`, so sweeps running more workers than cores
//! still give every worker a private shard instead of colliding on the
//! steal path. Growth preserves existing home assignments: a thread
//! with dense index `i` homes at shard `i` whenever `i` is below the
//! shard count, and power-of-two growth only ever raises that count.
//! In steady state a sweep worker never contends on a lock: it reuses
//! the machine it checked in on its previous iteration.
//!
//! **Fault isolation:** a machine whose last run aborted for any reason
//! — a structured [`RunError`], a budget exhaustion, or a panic that
//! unwound through the guard — is *poisoned*
//! ([`Machine::poisoned`]) and is quarantined at check-in: dropped on
//! the floor and tallied in [`PoolStats::quarantined`], never recycled.
//! The next checkout simply constructs a fresh machine, so one fault
//! can never leak partial execution state into a later measurement.
//!
//! Lifecycle:
//!
//! 1. **checkout** — [`MachinePool::checkout`] (or
//!    [`MachinePool::checkout_bound`], which follows with
//!    [`Machine::bind_image`]) pops an idle machine for the program, or
//!    constructs one on demand; the pool grows to the concurrency
//!    actually used, O(threads × distinct programs).
//! 2. **use** — the returned [`PooledMachine`] guard derefs to
//!    [`Machine`]; run it like any other machine.
//! 3. **check-in** — dropping the guard scrubs the machine (execution
//!    state cleared, inputs unbound; arenas kept) and parks it on the
//!    dropping thread's home shard.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

use crate::bytecode::CompiledProgram;
use crate::interp::{DramImage, Machine, RunError};

/// Idle machines kept per (shard, program) free list. A sweep at `t`
/// threads parks at most `t` machines per program, so this only bounds
/// pathological churn (e.g. thousands of guards dropped on one thread).
const MAX_IDLE_PER_KEY: usize = 32;

/// Hard ceiling on observed-thread shard growth: beyond this many live
/// threads, workers share shards (modulo) rather than growing further.
pub const MAX_SHARDS: usize = 256;

/// Process-wide dense thread index, assigned on a thread's first pool
/// interaction. Indexing shards by thread (not by a hash of anything
/// per-checkout) is what gives each sweep worker a private fast path.
static THREAD_COUNTER: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_INDEX: usize = THREAD_COUNTER.fetch_add(1, Ordering::Relaxed);
}

/// Idle machines, keyed by compiled-program identity (`Arc` address;
/// every pooled machine holds the `Arc`, keeping the address stable).
type Shard = HashMap<usize, Vec<Machine>>;

/// Cumulative pool counters (monotonic; never reset by [`MachinePool::clear`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Machines constructed because no idle one was available.
    pub created: u64,
    /// Checkouts served by resetting an idle machine.
    pub reused: u64,
    /// Machines discarded at check-in because their last run aborted
    /// (error or panic) — see [`Machine::poisoned`].
    pub quarantined: u64,
    /// Runs on this pool that failed transiently and were retried once
    /// on a fresh checkout ([`MachinePool::record_retry`]).
    pub retried: u64,
    /// Runs on this pool that failed for good — a deterministic error,
    /// or a retry that failed again ([`MachinePool::record_abort`]).
    pub aborted: u64,
}

/// An instantaneous occupancy snapshot of a [`MachinePool`]: how many
/// machines are live in guards right now, how many sit idle on shards,
/// and the cumulative [`PoolStats`] alongside. This is the pool-side
/// half of a serving layer's metrics — `checked_out / (checked_out +
/// idle)` is the pool utilization a load test watches.
///
/// The fields are read from independent atomics/locks, so a snapshot
/// taken under concurrent traffic is approximate (each field is exact
/// at *some* instant, but not all at the same one) — fine for metrics,
/// not a synchronization primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolOccupancy {
    /// Machines currently held by live [`PooledMachine`] guards.
    pub checked_out: u64,
    /// Idle machines parked across all shards.
    pub idle: usize,
    /// Current shard count.
    pub shards: usize,
    /// Cumulative counters.
    pub stats: PoolStats,
}

/// A grow-on-demand pool of reusable [`Machine`]s. See the module docs
/// for the sharding and lifecycle story. Shareable across threads by
/// reference (`std::thread::scope`) or behind an `Arc`/`OnceLock`.
#[derive(Debug)]
pub struct MachinePool {
    /// Shard vector behind a `RwLock` so [`MachinePool::new`] pools can
    /// grow it to the observed thread count; steady-state traffic only
    /// ever takes the (uncontended) read side.
    shards: RwLock<Vec<Mutex<Shard>>>,
    /// `true` for [`MachinePool::with_shards`] pools: the shard count
    /// is pinned and never grows.
    fixed: bool,
    created: AtomicU64,
    reused: AtomicU64,
    quarantined: AtomicU64,
    retried: AtomicU64,
    aborted: AtomicU64,
    /// Machines currently out in live [`PooledMachine`] guards
    /// (decremented on check-in *and* on [`PooledMachine::detach`] —
    /// a detached machine has left the pool's custody either way).
    checked_out: AtomicU64,
}

impl MachinePool {
    /// A pool that sizes its shards from the threads actually observed
    /// using it: each new worker thread grows the shard vector (in
    /// powers of two, capped at [`MAX_SHARDS`]) until every live
    /// worker has a private home shard — even when the sweep runs more
    /// threads than `available_parallelism` reports cores.
    pub fn new() -> Self {
        Self::build(1, false)
    }

    /// A pool with an explicit, fixed shard count (min 1). One shard is
    /// a plain mutex-guarded pool — useful in tests that need
    /// deterministic reuse.
    pub fn with_shards(shards: usize) -> Self {
        Self::build(shards.max(1), true)
    }

    fn build(shards: usize, fixed: bool) -> Self {
        MachinePool {
            shards: RwLock::new((0..shards).map(|_| Mutex::new(Shard::new())).collect()),
            fixed,
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            checked_out: AtomicU64::new(0),
        }
    }

    /// Read access to the shard vector, first growing it (for
    /// non-fixed pools) so the calling thread's dense index fits —
    /// power-of-two growth, so threads already below the old count
    /// keep their home shard (`i % len == i` stays true for them).
    /// Lock poisoning is survived by recovering the guard: a panic
    /// elsewhere never takes the pool down with it.
    fn shards(&self) -> RwLockReadGuard<'_, Vec<Mutex<Shard>>> {
        let idx = THREAD_INDEX.with(|i| *i);
        if !self.fixed {
            let want = (idx + 1).next_power_of_two().min(MAX_SHARDS);
            let cur = self.shards.read().unwrap_or_else(|e| e.into_inner()).len();
            if cur < want {
                let mut shards = self.shards.write().unwrap_or_else(|e| e.into_inner());
                while shards.len() < want {
                    shards.push(Mutex::new(Shard::new()));
                }
            }
        }
        self.shards.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The calling thread's home shard under a given shard count.
    fn home_shard(len: usize) -> usize {
        THREAD_INDEX.with(|i| *i) % len
    }

    /// Pops an idle machine for `key`: home shard first (blocking lock
    /// — uncontended in steady state), then non-blocking steals from
    /// the siblings.
    fn take(&self, key: usize) -> Option<Machine> {
        let shards = self.shards();
        let home = Self::home_shard(shards.len());
        if let Ok(mut shard) = shards[home].lock() {
            if let Some(m) = shard.get_mut(&key).and_then(Vec::pop) {
                return Some(m);
            }
        }
        for (i, slot) in shards.iter().enumerate() {
            if i == home {
                continue;
            }
            if let Ok(mut shard) = slot.try_lock() {
                if let Some(m) = shard.get_mut(&key).and_then(Vec::pop) {
                    return Some(m);
                }
            }
        }
        None
    }

    /// Pops an idle (check-in-scrubbed) machine for `compiled` or
    /// constructs a fresh one, wrapped in the check-in-on-drop guard.
    /// Parked machines carry no dataset (inputs unbound) and no
    /// execution state — only their DRAM output segment is stale,
    /// which `clear_outputs` is `true` to zero (skip it only when a
    /// `bind_image`, which refills the segment, immediately follows).
    fn checkout_raw(
        &self,
        compiled: &Arc<CompiledProgram>,
        clear_outputs: bool,
    ) -> PooledMachine<'_> {
        self.checked_out.fetch_add(1, Ordering::Relaxed);
        self.checkout_reserved(compiled, clear_outputs)
    }

    /// The take-or-construct half of [`MachinePool::checkout_raw`], for
    /// a checkout slot already counted into `checked_out` by
    /// [`MachinePool::reserve_slots`] — the guard's drop decrements
    /// either way, so reservation and release stay balanced.
    fn checkout_reserved(
        &self,
        compiled: &Arc<CompiledProgram>,
        clear_outputs: bool,
    ) -> PooledMachine<'_> {
        let key = Arc::as_ptr(compiled) as usize;
        let machine = match self.take(key) {
            Some(mut m) => {
                if clear_outputs {
                    m.clear_outputs();
                }
                self.reused.fetch_add(1, Ordering::Relaxed);
                m
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                Machine::from_compiled(Arc::clone(compiled))
            }
        };
        PooledMachine {
            pool: self,
            key,
            machine: Some(machine),
        }
    }

    /// Reserves up to `want` checkout slots against an optional cap on
    /// concurrently checked-out machines, **never blocking and never
    /// granting zero**: when the cap leaves no headroom the caller
    /// still gets one slot, because the degraded-but-live option
    /// (running a sharded kernel serially) always beats parking the
    /// request until machines free up — a sharded run that *waited*
    /// for N slots under a per-tenant in-flight cap could starve
    /// forever against its own tenant's traffic. One CAS loop on the
    /// live-guard counter; `None` capacity grants everything.
    fn reserve_slots(&self, want: usize, capacity: Option<u64>) -> usize {
        debug_assert!(want >= 1, "reserve_slots wants at least one slot");
        let Some(cap) = capacity else {
            self.checked_out.fetch_add(want as u64, Ordering::Relaxed);
            return want;
        };
        loop {
            let cur = self.checked_out.load(Ordering::Relaxed);
            let grant = (want as u64).min(cap.saturating_sub(cur).max(1));
            if self
                .checked_out
                .compare_exchange(cur, cur + grant, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return grant as usize;
            }
        }
    }

    /// Checks out one machine per program in `programs` (shard
    /// sub-programs are distinct compiled artifacts), granted
    /// left-to-right, without ever blocking: the grant is clamped to
    /// the headroom `capacity` leaves over machines already checked
    /// out, **but never below one** — a caller holding fewer shards
    /// than it asked for falls back to fewer-way (down to serial)
    /// execution instead of waiting for slots that its own in-flight
    /// work may be occupying. `clear_outputs` as on checkout: pass
    /// `false` only when a `bind_image` immediately follows.
    pub(crate) fn try_checkout_each(
        &self,
        programs: &[Arc<CompiledProgram>],
        capacity: Option<u64>,
        clear_outputs: bool,
    ) -> Vec<PooledMachine<'_>> {
        if programs.is_empty() {
            return Vec::new();
        }
        let granted = self.reserve_slots(programs.len(), capacity);
        programs[..granted]
            .iter()
            .map(|p| self.checkout_reserved(p, clear_outputs))
            .collect()
    }

    /// Checks out a machine for `compiled`, indistinguishable from a
    /// fresh [`Machine::from_compiled`] (machines are scrubbed at
    /// check-in; checkout only zero-fills the stale output segment).
    /// The guard checks the machine back in on drop.
    pub fn checkout(&self, compiled: &Arc<CompiledProgram>) -> PooledMachine<'_> {
        self.checkout_raw(compiled, true)
    }

    /// [`MachinePool::checkout`] followed by [`Machine::bind_image`]:
    /// the pooled serving-loop step — one image re-bind on a recycled
    /// machine, O(outputs) with no allocation (the redundant
    /// pre-bind output zero-fill is skipped: `bind_image` refills the
    /// segment).
    ///
    /// # Errors
    ///
    /// [`RunError::ImageMismatch`] when the image was built for a
    /// different compiled program (the machine still returns to the
    /// pool).
    pub fn checkout_bound(
        &self,
        compiled: &Arc<CompiledProgram>,
        image: &DramImage,
    ) -> Result<PooledMachine<'_>, RunError> {
        let mut machine = self.checkout_raw(compiled, false);
        machine.bind_image(image)?;
        Ok(machine)
    }

    /// Returns a machine to the dropping thread's home shard, scrubbed
    /// first: execution state cleared and the input segment unbound,
    /// so an idle machine never pins its last dataset's multi-MB
    /// `DramImage` segment in memory (and the next checkout pays at
    /// most an output zero-fill). **Poisoned** machines, whose last
    /// run aborted partway, are discarded instead of parked
    /// (quarantined and counted — recycling one would leak partial
    /// execution state into a later run).
    fn check_in(&self, key: usize, mut machine: Machine) {
        if machine.poisoned() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            return;
        }
        machine.clear_exec_state();
        machine.unbind_inputs();
        let shards = self.shards();
        if let Ok(mut shard) = shards[Self::home_shard(shards.len())].lock() {
            let idle = shard.entry(key).or_default();
            if idle.len() < MAX_IDLE_PER_KEY {
                idle.push(machine);
            }
        };
    }

    /// Counts one transient failure retried on a fresh checkout. The
    /// recovery policy lives with the executor that owns the retry;
    /// the count lives here so it is per pool, beside the quarantine
    /// it caused.
    pub fn record_retry(&self) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one run that failed for good.
    pub fn record_abort(&self) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            created: self.created.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
        }
    }

    /// An instantaneous [`PoolOccupancy`] snapshot: live guards, idle
    /// machines, shard count, and the cumulative counters. The serving
    /// layer publishes this in its stats; the load-test CI job records
    /// it in `serve-summary.json`.
    pub fn occupancy(&self) -> PoolOccupancy {
        PoolOccupancy {
            checked_out: self.checked_out.load(Ordering::Relaxed),
            idle: self.idle(),
            shards: self.shard_count(),
            stats: self.stats(),
        }
    }

    /// The current shard count (grows with observed threads on
    /// [`MachinePool::new`] pools).
    pub fn shard_count(&self) -> usize {
        self.shards.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Idle machines currently parked across all shards.
    pub fn idle(&self) -> usize {
        self.shards
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|s| {
                s.lock()
                    .map(|shard| shard.values().map(Vec::len).sum())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Drops every idle machine (checked-out guards are unaffected).
    pub fn clear(&self) {
        for slot in self.shards.read().unwrap_or_else(|e| e.into_inner()).iter() {
            if let Ok(mut shard) = slot.lock() {
                shard.clear();
            }
        }
    }
}

impl Default for MachinePool {
    fn default() -> Self {
        Self::new()
    }
}

/// A checked-out [`Machine`]: derefs to the machine, returns it to the
/// pool on drop. Use [`PooledMachine::detach`] to keep the machine and
/// skip the check-in.
#[derive(Debug)]
pub struct PooledMachine<'p> {
    pool: &'p MachinePool,
    key: usize,
    machine: Option<Machine>,
}

impl PooledMachine<'_> {
    /// Takes the machine out of the guard; it will not return to the
    /// pool (and no longer counts as checked out).
    pub fn detach(mut self) -> Machine {
        let machine = self.machine.take().expect("machine present until drop");
        self.pool.checked_out.fetch_sub(1, Ordering::Relaxed);
        machine
    }
}

impl Deref for PooledMachine<'_> {
    type Target = Machine;
    fn deref(&self) -> &Machine {
        self.machine.as_ref().expect("machine present until drop")
    }
}

impl DerefMut for PooledMachine<'_> {
    fn deref_mut(&mut self) -> &mut Machine {
        self.machine.as_mut().expect("machine present until drop")
    }
}

impl Drop for PooledMachine<'_> {
    fn drop(&mut self) {
        if let Some(machine) = self.machine.take() {
            self.pool.checked_out.fetch_sub(1, Ordering::Relaxed);
            self.pool.check_in(self.key, machine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{SExpr, SpatialProgram, SpatialStmt};

    fn program(name: &str) -> Arc<CompiledProgram> {
        let mut p = SpatialProgram::new(name);
        p.add_dram("out", 4);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::Const(1.0),
        });
        p.assign_ids();
        Arc::new(CompiledProgram::compile(&p))
    }

    /// Checkout clamps to capacity headroom, degrades to one slot
    /// rather than zero (the no-deadlock guarantee), and releases every
    /// reserved slot when the guards drop.
    #[test]
    fn try_checkout_n_clamps_to_headroom_but_never_zero() {
        let pool = MachinePool::with_shards(1);
        let progs = [program("a"), program("b"), program("c"), program("d")];

        let all = pool.try_checkout_each(&progs, None, true);
        assert_eq!(all.len(), 4, "no capacity cap grants the full ask");
        assert_eq!(pool.occupancy().checked_out, 4);
        drop(all);
        assert_eq!(pool.occupancy().checked_out, 0);

        let held = pool.try_checkout_each(&progs, Some(6), true);
        assert_eq!(held.len(), 4);
        let partial = pool.try_checkout_each(&progs, Some(6), true);
        assert_eq!(partial.len(), 2, "grant clamps to remaining headroom");
        assert_eq!(pool.occupancy().checked_out, 6);

        let fallback = pool.try_checkout_each(&progs, Some(6), true);
        assert_eq!(
            fallback.len(),
            1,
            "zero headroom still grants one slot instead of blocking"
        );
        drop((held, partial, fallback));
        assert_eq!(pool.occupancy().checked_out, 0);
    }

    /// The multi-program form hands out one machine per program in
    /// order, truncated (never blocked) by the capacity cap.
    #[test]
    fn try_checkout_each_grants_prefix_under_capacity() {
        let pool = MachinePool::with_shards(1);
        let progs = [program("a"), program("b"), program("c")];
        let got = pool.try_checkout_each(&progs, Some(2), true);
        assert_eq!(got.len(), 2);
        assert!(Arc::ptr_eq(got[0].compiled(), &progs[0]));
        assert!(Arc::ptr_eq(got[1].compiled(), &progs[1]));
        drop(got);
        assert_eq!(pool.occupancy().checked_out, 0);
        assert!(pool.try_checkout_each(&[], Some(2), true).is_empty());
    }
}
