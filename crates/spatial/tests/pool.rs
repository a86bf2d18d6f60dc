//! Machine-pool reuse correctness: a machine checked out of a
//! [`MachinePool`] after an **arbitrary prior run** must be
//! byte-identical — DRAM contents and `ExecStats` alike — to a fresh
//! [`Machine::from_compiled`], and must agree with the string-keyed
//! [`ReferenceMachine`] oracle. This is the invariant that
//! lets the sweep executor serve every measurement from recycled
//! machines and still gate bitwise identity against the fresh-machine
//! baseline.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use stardust_spatial::ir::MemDecl;
use stardust_spatial::{
    faults, CompiledProgram, Counter, DramImage, FaultPlan, Machine, MachinePool, MemKind,
    RunBudget, RunError, SExpr, SpatialProgram, SpatialStmt,
};

const SIZE: usize = 16;

/// A program that reads both input arrays and writes DRAM through all
/// three store paths (bulk, stream, scalar), parameterized by seed so
/// the property sweep covers different shapes — the same generator the
/// `DramImage` aliasing tests use.
fn writing_program(seed: u64) -> SpatialProgram {
    let mut rng = TestRng::for_test(&format!("pool-{seed}"));
    let mut p = SpatialProgram::new(format!("pool_{seed}"));
    p.add_dram("in0", SIZE);
    p.add_dram("in1", SIZE);
    p.add_dram("out0", SIZE);
    p.add_dram("out1", SIZE);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, SIZE)));
    p.accel.push(SpatialStmt::Load {
        dst: "s".into(),
        src: "in0".into(),
        start: SExpr::Const(0.0),
        end: SExpr::Const(SIZE as f64),
        par: 1,
    });
    let n = 1 + rng.below(SIZE as u64 - 1);
    p.accel.push(SpatialStmt::Store {
        dst: "out0".into(),
        offset: SExpr::Const(0.0),
        src: "s".into(),
        len: SExpr::Const(n as f64),
        par: 1,
    });
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(rng.below(SIZE as u64) as f64)),
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out1".into(),
            index: SExpr::var("i"),
            value: SExpr::add(
                SExpr::read_random("in1", SExpr::var("i")),
                SExpr::Const(rng.below(8) as f64),
            ),
        }],
    });
    p.assign_ids();
    p
}

fn inputs(seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let mut rng = TestRng::for_test(&format!("pool-inputs-{seed}"));
    ["in0", "in1"]
        .into_iter()
        .map(|name| {
            let data: Vec<f64> = (0..SIZE).map(|_| rng.below(32) as f64 - 8.0).collect();
            (name, data)
        })
        .collect()
}

fn build_image(compiled: &Arc<CompiledProgram>, writes: &[(&str, Vec<f64>)]) -> DramImage {
    let mut b = DramImage::builder(Arc::clone(compiled));
    for (name, data) in writes {
        let slot = compiled.syms().dram_slot(name).expect("declared");
        b.write(slot, data).expect("fits");
    }
    b.finish()
}

fn dram_bits(m: &Machine, name: &str) -> Vec<u64> {
    m.dram(name).unwrap().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pool-reuse property: dirty a pooled machine with an
    /// arbitrary prior run (arbitrary dataset), check it out again for
    /// a different dataset, and require the rerun to be byte-identical
    /// — every DRAM array and the full `ExecStats` — to a fresh
    /// machine, and in agreement with the string-keyed reference
    /// oracle.
    #[test]
    fn pooled_checkout_matches_fresh_machine(
        seed in 0u64..50_000,
        prior_seed in 0u64..50_000,
    ) {
        let p = writing_program(seed);
        let compiled = Arc::new(CompiledProgram::compile(&p));
        let prior_image = build_image(&compiled, &inputs(prior_seed));
        let target_writes = inputs(seed.wrapping_add(1));
        let target_image = build_image(&compiled, &target_writes);

        // One shard: the checked-in machine is deterministically the
        // one the next checkout receives.
        let pool = MachinePool::with_shards(1);
        {
            let mut dirty = pool
                .checkout_bound(&compiled, &prior_image)
                .expect("prior checkout");
            dirty.run(&p).expect("prior run");
        }
        prop_assert_eq!(pool.stats().created, 1);

        let mut pooled = pool
            .checkout_bound(&compiled, &target_image)
            .expect("target checkout");
        prop_assert_eq!(pool.stats().reused, 1, "checkout did not reuse");
        let pooled_stats = pooled.run(&p).expect("pooled run");

        let mut fresh = Machine::from_compiled(Arc::clone(&compiled));
        fresh.bind_image(&target_image).expect("fresh bind");
        let fresh_stats = fresh.run(&p).expect("fresh run");

        prop_assert_eq!(&pooled_stats, &fresh_stats, "stats diverge on reuse");
        for d in &p.drams {
            prop_assert_eq!(
                dram_bits(&pooled, &d.name),
                dram_bits(&fresh, &d.name),
                "DRAM {} diverges between pooled and fresh machine",
                &d.name
            );
        }

        // The oracle: the string-keyed reference walker agrees too.
        let mut reference = stardust_spatial::ReferenceMachine::new(&p);
        for (name, data) in &target_writes {
            reference.write_dram(name, data).expect("mirror dram");
        }
        let ref_stats = reference.run(&p).expect("reference engine runs");
        prop_assert_eq!(&pooled_stats, &ref_stats, "stats diverge from reference");
        for d in &p.drams {
            let r: Vec<u64> = reference
                .dram(&d.name)
                .expect("dram present")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(
                dram_bits(&pooled, &d.name),
                r,
                "DRAM {} diverges from reference",
                &d.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The abort-recovery property: interrupt a pooled run at a random
    /// fuel count, return the machine to the pool, and require the next
    /// checkout to behave byte-identically to a fresh machine. An
    /// interrupted (budget-aborted) machine is poisoned, so the pool
    /// must quarantine it — never recycle it — and the re-checkout gets
    /// a newly built machine; a run the fuel happened to cover completes
    /// normally and its machine is recycled as usual. Either way the
    /// rerun's DRAM and stats must land exactly on the fresh baseline.
    #[test]
    fn interrupted_runs_are_quarantined_and_reruns_match_fresh(
        seed in 0u64..50_000,
        fuel in 1u64..24,
    ) {
        let p = writing_program(seed);
        let compiled = Arc::new(CompiledProgram::compile(&p));
        let image = build_image(&compiled, &inputs(seed));

        let mut fresh = Machine::from_compiled(Arc::clone(&compiled));
        fresh.bind_image(&image).expect("fresh bind");
        let fresh_stats = fresh.run(&p).expect("fresh run");

        let pool = MachinePool::with_shards(1);
        let interrupted = {
            let mut m = pool
                .checkout_bound(&compiled, &image)
                .expect("first checkout");
            m.set_budget(RunBudget::default().with_max_steps(fuel));
            // When the CI chaos sweep sets STARDUST_FAULTS, the
            // interrupting run additionally faces that plan (installed
            // fresh per case, dropped before the recovery checkout) —
            // an injected fault must quarantine exactly like a budget
            // abort does.
            let env_plan = FaultPlan::from_env().expect("STARDUST_FAULTS is malformed");
            let run = {
                let _guard = env_plan.map(FaultPlan::install);
                m.run(&p)
            };
            match run {
                Ok(stats) => {
                    prop_assert_eq!(&stats, &fresh_stats, "budgeted complete run diverges");
                    prop_assert!(!m.poisoned());
                    false
                }
                Err(RunError::BudgetExceeded { .. }) | Err(RunError::InjectedFault { .. }) => {
                    prop_assert!(m.poisoned(), "interrupted machine must be poisoned");
                    true
                }
                Err(other) => {
                    prop_assert!(false, "unexpected error {other:?}");
                    unreachable!()
                }
            }
        };
        let stats = pool.stats();
        if interrupted {
            prop_assert_eq!(stats.quarantined, 1, "interrupted machine not quarantined");
            prop_assert_eq!(pool.idle(), 0, "poisoned machine leaked into the pool");
        } else {
            prop_assert_eq!(stats.quarantined, 0);
            prop_assert_eq!(pool.idle(), 1);
        }

        // The next checkout — a fresh build after quarantine, a recycled
        // machine otherwise — must be byte-identical to a fresh machine.
        let mut next = pool
            .checkout_bound(&compiled, &image)
            .expect("re-checkout");
        let next_stats = next.run(&p).expect("post-interrupt run");
        prop_assert_eq!(&next_stats, &fresh_stats, "post-interrupt stats diverge");
        for d in &p.drams {
            prop_assert_eq!(
                dram_bits(&next, &d.name),
                dram_bits(&fresh, &d.name),
                "post-interrupt DRAM {} diverges from fresh",
                &d.name
            );
        }
        let stats = pool.stats();
        if interrupted {
            prop_assert_eq!(stats.created, 2, "quarantine must force a fresh build");
        } else {
            prop_assert_eq!(stats.reused, 1, "clean machine must be recycled");
        }
    }
}

/// A machine that panics mid-run (via the fault-injection harness) is
/// poisoned by the unwind and quarantined on check-in; the next
/// checkout builds a fresh machine that runs clean.
#[test]
fn panicked_machines_are_quarantined() {
    let p = writing_program(11);
    let compiled = Arc::new(CompiledProgram::compile(&p));
    let image = build_image(&compiled, &inputs(11));
    let pool = MachinePool::with_shards(1);

    let plan = FaultPlan {
        panic_at_step: Some(0),
        ..FaultPlan::default()
    };
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        faults::with_plan(plan, || {
            let mut m = pool
                .checkout_bound(&compiled, &image)
                .expect("checkout before panic");
            let _ = m.run(&p);
        });
    }));
    assert!(unwound.is_err(), "the injected panic must unwind");

    let stats = pool.stats();
    assert_eq!(stats.quarantined, 1, "panicked machine not quarantined");
    assert_eq!(pool.idle(), 0, "panicked machine leaked into the pool");

    let mut m = pool
        .checkout_bound(&compiled, &image)
        .expect("post-panic checkout");
    m.run(&p).expect("post-panic run is clean");
    assert_eq!(pool.stats().created, 2, "recovery must use a fresh machine");
}

/// Sequential checkouts create once, then recycle.
#[test]
fn checkout_creates_then_reuses() {
    let p = writing_program(1);
    let compiled = Arc::new(CompiledProgram::compile(&p));
    let pool = MachinePool::with_shards(1);
    for _ in 0..3 {
        let m = pool.checkout(&compiled);
        drop(m);
    }
    let stats = pool.stats();
    assert_eq!(stats.created, 1);
    assert_eq!(stats.reused, 2);
    assert_eq!(pool.idle(), 1);
    pool.clear();
    assert_eq!(pool.idle(), 0);
}

/// Two compiled programs keep separate free lists even in one shard.
#[test]
fn distinct_programs_do_not_share_machines() {
    let p1 = writing_program(2);
    let p2 = writing_program(3);
    let c1 = Arc::new(CompiledProgram::compile(&p1));
    let c2 = Arc::new(CompiledProgram::compile(&p2));
    let pool = MachinePool::with_shards(1);
    drop(pool.checkout(&c1));
    drop(pool.checkout(&c2));
    assert_eq!(pool.stats().created, 2, "c2 must not receive c1's machine");
    assert_eq!(pool.idle(), 2);
    drop(pool.checkout(&c1));
    drop(pool.checkout(&c2));
    assert_eq!(pool.stats().reused, 2);
}

/// A machine can only ever run its checkout program, so one that has
/// run — and one that refused a foreign program — goes back on its
/// key's free list and serves the next checkout.
#[test]
fn machines_that_ran_are_pooled_again() {
    let p1 = writing_program(4);
    let p2 = writing_program(5);
    let compiled = Arc::new(CompiledProgram::compile(&p1));
    let pool = MachinePool::with_shards(1);
    {
        let mut m = pool.checkout(&compiled);
        m.run(&p1).expect("own program runs");
        assert_eq!(m.run(&p2), Err(RunError::ForeignProgram));
    }
    assert_eq!(pool.idle(), 1, "a clean machine must return to the pool");
    drop(pool.checkout(&compiled));
    let stats = pool.stats();
    assert_eq!(stats.created, 1);
    assert_eq!(stats.reused, 1);
    assert_eq!(stats.quarantined, 0);
}

/// `checkout_bound` rejects an image built for a different program and
/// still returns the (clean) machine to the pool.
#[test]
fn checkout_bound_rejects_mismatched_image() {
    let p1 = writing_program(6);
    let p2 = writing_program(7);
    let c1 = Arc::new(CompiledProgram::compile(&p1));
    let c2 = Arc::new(CompiledProgram::compile(&p2));
    let image = build_image(&c1, &inputs(6));
    let pool = MachinePool::with_shards(1);
    match pool.checkout_bound(&c2, &image) {
        Err(RunError::ImageMismatch) => {}
        other => panic!("expected ImageMismatch, got {other:?}"),
    }
    assert_eq!(pool.idle(), 1, "the clean machine must return to the pool");
}

/// A detached machine never returns to the pool.
#[test]
fn detached_machines_leave_the_pool() {
    let p = writing_program(8);
    let compiled = Arc::new(CompiledProgram::compile(&p));
    let pool = MachinePool::with_shards(1);
    let m = pool.checkout(&compiled).detach();
    drop(m);
    assert_eq!(pool.idle(), 0);
}

/// The pool is shared across scoped threads: concurrent workers check
/// out, run, and check in without losing a measurement, and every
/// checkout is accounted as created or reused.
#[test]
fn pool_serves_concurrent_workers() {
    let p = writing_program(9);
    let compiled = Arc::new(CompiledProgram::compile(&p));
    let image = build_image(&compiled, &inputs(9));
    let pool = MachinePool::new();

    let mut expected = Machine::from_compiled(Arc::clone(&compiled));
    expected.bind_image(&image).expect("bind");
    expected.run(&p).expect("runs");
    let want: Vec<Vec<u64>> = p
        .drams
        .iter()
        .map(|d| dram_bits(&expected, &d.name))
        .collect();

    const THREADS: usize = 4;
    const ITERS: usize = 8;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ITERS {
                    let mut m = pool.checkout_bound(&compiled, &image).expect("checkout");
                    m.run(&p).expect("runs");
                    for (d, bits) in p.drams.iter().zip(&want) {
                        assert_eq!(
                            &dram_bits(&m, &d.name),
                            bits,
                            "worker diverged on {}",
                            d.name
                        );
                    }
                }
            });
        }
    });
    let stats = pool.stats();
    assert_eq!(
        stats.created + stats.reused,
        (THREADS * ITERS) as u64,
        "every checkout must be accounted"
    );
    assert!(
        pool.idle() as u64 <= stats.created,
        "more idle machines than were ever created"
    );
}

/// `occupancy()` tracks live checkouts: `checked_out` rises while a
/// guard is alive, falls on check-in (machine parked as idle) and on
/// `detach` (machine leaves the pool without parking). The serving
/// layer reads this snapshot to report pool pressure, so the counter
/// must never drift.
#[test]
fn occupancy_tracks_checkouts_and_detach() {
    let p = writing_program(10);
    let compiled = Arc::new(CompiledProgram::compile(&p));
    let image = build_image(&compiled, &inputs(10));
    let pool = MachinePool::with_shards(1);

    let start = pool.occupancy();
    assert_eq!(start.checked_out, 0);
    assert_eq!(start.idle, 0);
    assert_eq!(start.shards, 1);

    {
        let _a = pool.checkout_bound(&compiled, &image).expect("checkout a");
        let _b = pool.checkout(&compiled);
        let live = pool.occupancy();
        assert_eq!(live.checked_out, 2, "two guards are alive");
        assert_eq!(live.idle, 0);
        assert_eq!(live.stats.created, 2);
    }
    let parked = pool.occupancy();
    assert_eq!(parked.checked_out, 0, "check-in must decrement");
    assert_eq!(parked.idle, 2, "both machines parked as idle");

    // Detach decrements the live count without parking the machine.
    let m = pool.checkout(&compiled).detach();
    let after_detach = pool.occupancy();
    assert_eq!(after_detach.checked_out, 0, "detach must decrement");
    assert_eq!(after_detach.idle, 1, "detached machine never parks");
    drop(m);
    assert_eq!(pool.occupancy().idle, 1);
    assert_eq!(pool.occupancy().stats.reused, 1);
}
