//! Property suite for the intra-kernel sharding pass
//! ([`stardust_spatial::shard`]): for random shardable programs, a
//! sharded pooled run must be **bitwise identical** to a serial run —
//! every output DRAM word and every [`ExecStats`] field — at any shard
//! count, whether the pool grants full or degraded capacity, and even
//! when an installed fault plan kills shards mid-run (transient
//! failures retry once on a fresh machine). Programs the partitioning
//! pass cannot prove safe must be rejected with the precise
//! [`NotShardable`] reason, one test per reason.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use stardust_spatial::faults;
use stardust_spatial::ir::MemDecl;
use stardust_spatial::{
    CompiledProgram, Counter, DramImage, ExecStats, FaultPlan, Machine, MachinePool, MemKind,
    NotShardable, ReferenceMachine, RunBudget, RunError, SExpr, ScanOp, ShardError, ShardPlan,
    SpatialProgram, SpatialStmt,
};

const SIZE: usize = 16;
/// Output arrays are sized past any generated loop bound so direct
/// `out(i)` stores stay in range.
const OUT: usize = 64;

/// A deterministic random *shardable* program: a read-only prefix
/// (loads into SRAM/SparseSRAM) and a trailing constant-bound `Range`
/// loop whose body only touches iteration-local chip state and writes
/// DRAM through all three store paths. Bounds, step, and the mix of
/// body blocks vary per seed; distinct iterations may write the same
/// output words (last-write-wins order is part of the contract).
fn random_shardable_program(seed: u64) -> SpatialProgram {
    let mut rng = TestRng::for_test(&format!("shard-{seed}"));
    let mut p = SpatialProgram::new(format!("shardable_{seed}"));
    p.add_dram("in0", SIZE);
    p.add_dram("in1", SIZE);
    p.add_dram("out0", OUT);
    p.add_dram("out1", OUT);
    for (mem, kind, src) in [
        ("s0", MemKind::Sram, "in0"),
        ("sp1", MemKind::SparseSram, "in1"),
    ] {
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new(mem, kind, SIZE)));
        p.accel.push(SpatialStmt::Load {
            dst: mem.into(),
            src: src.into(),
            start: SExpr::Const(0.0),
            end: SExpr::Const(SIZE as f64),
            par: 1 + rng.below(16) as usize,
        });
    }

    let lo = rng.below(5) as f64;
    let hi = lo + rng.below(40) as f64;
    let step = 1 + rng.below(3) as i64;
    let blocks = 1 + rng.below(3);
    let mut body = Vec::new();
    for b in 0..blocks {
        match rng.below(4) {
            // Direct scalar store of a prefix-SRAM gather.
            0 => body.push(SpatialStmt::StoreScalar {
                dst: "out0".into(),
                index: SExpr::var("i"),
                value: SExpr::add(
                    SExpr::read(
                        "s0",
                        SExpr::bin(
                            stardust_spatial::BinSOp::Mod,
                            SExpr::var("i"),
                            SExpr::Const(SIZE as f64),
                        ),
                    ),
                    SExpr::Const(rng.below(8) as f64),
                ),
            }),
            // Iteration-local register reduction over a nested range,
            // gathering through the shuffle network.
            1 => {
                let acc = format!("acc{b}");
                body.push(SpatialStmt::Alloc(MemDecl::new(&acc, MemKind::Reg, 1)));
                body.push(SpatialStmt::Reduce {
                    id: 0,
                    reg: acc.clone(),
                    counter: Counter::range_to("j", SExpr::Const(1.0 + rng.below(8) as f64)),
                    par: 1,
                    body: vec![],
                    expr: SExpr::mul(
                        SExpr::read_random(
                            "sp1",
                            SExpr::bin(
                                stardust_spatial::BinSOp::Mod,
                                SExpr::add(SExpr::var("i"), SExpr::var("j")),
                                SExpr::Const(SIZE as f64),
                            ),
                        ),
                        SExpr::Const(1.0 + rng.below(4) as f64),
                    ),
                });
                body.push(SpatialStmt::StoreScalar {
                    dst: "out1".into(),
                    index: SExpr::var("i"),
                    value: SExpr::RegRead(acc),
                });
            }
            // Iteration-local scratch SRAM spilled in bulk: distinct
            // iterations overlap output windows, exercising the
            // merge's last-write-wins replay.
            2 => {
                let scratch = format!("t{b}");
                body.push(SpatialStmt::Alloc(MemDecl::new(&scratch, MemKind::Sram, 4)));
                body.push(SpatialStmt::Foreach {
                    id: 0,
                    counter: Counter::range_to("k", SExpr::Const(4.0)),
                    par: 1,
                    body: vec![SpatialStmt::WriteMem {
                        mem: scratch.clone(),
                        index: SExpr::var("k"),
                        value: SExpr::add(SExpr::var("i"), SExpr::var("k")),
                        random: false,
                    }],
                });
                body.push(SpatialStmt::Store {
                    dst: "out0".into(),
                    offset: SExpr::bin(
                        stardust_spatial::BinSOp::Mod,
                        SExpr::mul(SExpr::var("i"), SExpr::Const(3.0)),
                        SExpr::Const((OUT - 4) as f64),
                    ),
                    src: scratch,
                    len: SExpr::Const(4.0),
                    par: 2,
                });
            }
            // Iteration-local bit vector + scan loop (the declarative-
            // sparse shape), overlapping `out1` writes across
            // iterations.
            _ => {
                let bv = format!("bv{b}");
                let none = format!("none{b}");
                let fifo = format!("f{b}");
                // `or` against an all-zero vector walks `bv`'s set bits.
                for v in [&bv, &none] {
                    body.push(SpatialStmt::Alloc(MemDecl::new(
                        v,
                        MemKind::BitVector,
                        SIZE,
                    )));
                }
                body.push(SpatialStmt::Alloc(MemDecl::new(&fifo, MemKind::Fifo, 8)));
                let coords = 1 + rng.below(4);
                for c in 0..coords {
                    body.push(SpatialStmt::Enq {
                        fifo: fifo.clone(),
                        value: SExpr::Const(((c * 3 + rng.below(3)) % SIZE as u64) as f64),
                    });
                }
                body.push(SpatialStmt::GenBitVector {
                    dst: bv.clone(),
                    src: fifo,
                    src_start: SExpr::Const(0.0),
                    count: SExpr::Const(coords as f64),
                    dim: SExpr::Const(SIZE as f64),
                });
                body.push(SpatialStmt::Foreach {
                    id: 0,
                    counter: Counter::Scan2 {
                        op: ScanOp::Or,
                        bv_a: bv,
                        bv_b: none,
                        a_pos_var: "p".into(),
                        b_pos_var: "q".into(),
                        out_pos_var: "o".into(),
                        idx_var: "ix".into(),
                    },
                    par: 1,
                    body: vec![SpatialStmt::StoreScalar {
                        dst: "out1".into(),
                        index: SExpr::add(SExpr::var("ix"), SExpr::Const(8.0)),
                        value: SExpr::add(SExpr::var("p"), SExpr::var("i")),
                    }],
                });
            }
        }
    }
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "i".into(),
            min: SExpr::Const(lo),
            max: SExpr::Const(hi),
            step,
        },
        par: 1,
        body,
    });
    p.assign_ids();
    p
}

/// Deterministic input data + image for a compiled program.
fn build_image(compiled: &Arc<CompiledProgram>, seed: u64) -> DramImage {
    let mut b = DramImage::builder(Arc::clone(compiled));
    for (name, mix) in [("in0", 3u64), ("in1", 5u64)] {
        let data: Vec<f64> = (0..SIZE as u64)
            .map(|w| ((w * mix + seed) % 23) as f64 * 0.5 + 0.25)
            .collect();
        let slot = compiled.syms().dram_slot(name).expect("declared dram");
        b.write(slot, &data).expect("write input");
    }
    b.finish()
}

/// Serial expectation: a fresh machine bound to the image, run once.
fn run_serial(compiled: &Arc<CompiledProgram>, image: &DramImage) -> (ExecStats, Vec<Vec<u64>>) {
    let mut m = Machine::from_compiled(Arc::clone(compiled));
    m.bind_image(image).expect("serial bind");
    let stats = m.run(compiled.source()).expect("serial run");
    (stats, output_bits(&m, compiled))
}

/// The oracle's serial expectation: the string-keyed reference engine
/// over the same bound DRAM.
fn run_reference(compiled: &Arc<CompiledProgram>, image: &DramImage) -> (ExecStats, Vec<Vec<u64>>) {
    let mut bound = Machine::from_compiled(Arc::clone(compiled));
    bound.bind_image(image).expect("serial bind");
    let p = compiled.source();
    let mut r = ReferenceMachine::new(p);
    for d in &p.drams {
        r.write_dram(&d.name, bound.dram(&d.name).expect("bound dram"))
            .expect("mirror dram");
    }
    let stats = r.run(p).expect("reference run");
    let out = ["out0", "out1"]
        .iter()
        .map(|name| {
            let words = r.dram(name).expect("output dram");
            words.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    (stats, out)
}

/// Output DRAM contents as bit patterns (exactness, not ε-closeness).
fn output_bits(m: &Machine, compiled: &Arc<CompiledProgram>) -> Vec<Vec<u64>> {
    ["out0", "out1"]
        .iter()
        .map(|name| {
            let _ = compiled; // names are fixed by the generator
            m.dram(name)
                .expect("output dram")
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

proptest! {
    /// Sharded runs reproduce the serial bytecode run bitwise — DRAM
    /// outputs and statistics — at shard counts 1..=8, and the serial
    /// bytecode run itself agrees with the reference engine.
    #[test]
    fn sharded_run_is_bitwise_identical_to_serial(seed in 0u64..400, shards in 1usize..=8) {
        let p = random_shardable_program(seed);
        let compiled = Arc::new(CompiledProgram::compile(&p));
        let image = build_image(&compiled, seed);
        let (serial_stats, serial_out) = run_serial(&compiled, &image);
        let (ref_stats, ref_out) = run_reference(&compiled, &image);
        prop_assert_eq!(&serial_stats, &ref_stats, "bytecode vs reference stats diverge");
        prop_assert_eq!(&serial_out, &ref_out, "bytecode vs reference outputs diverge");

        let plan = ShardPlan::analyze(&compiled).expect("generator emits shardable programs");
        let sharded = plan.compile(shards);
        let pool = MachinePool::new();
        let budget = RunBudget::default();
        let run = sharded
            .run_pooled(&image, &pool, &budget, None)
            .expect("sharded run");
        prop_assert_eq!(&run.stats, &serial_stats, "sharded stats diverge");
        prop_assert_eq!(
            &output_bits(&run.machine, &compiled),
            &serial_out,
            "sharded outputs diverge"
        );
    }

    /// Degraded capacity (a pool grant smaller than the shard count)
    /// falls back to round-robin workers and still merges bitwise.
    #[test]
    fn degraded_capacity_round_robin_is_bitwise_identical(seed in 0u64..100, capacity in 1u64..=3) {
        let p = random_shardable_program(seed);
        let compiled = Arc::new(CompiledProgram::compile(&p));
        let image = build_image(&compiled, seed);
        let (serial_stats, serial_out) = run_serial(&compiled, &image);

        let plan = ShardPlan::analyze(&compiled).expect("shardable");
        let sharded = plan.compile(6);
        let pool = MachinePool::new();
        let run = sharded
            .run_pooled(&image, &pool, &RunBudget::default(), Some(capacity))
            .expect("sharded run");
        prop_assert!(run.workers <= capacity as usize, "capacity grant exceeded");
        prop_assert_eq!(&run.stats, &serial_stats);
        prop_assert_eq!(&output_bits(&run.machine, &compiled), &serial_out);
    }

    /// A transient injected fault killing shards mid-run is retried on
    /// a fresh machine, and the merged result is still bitwise
    /// identical to a never-faulted serial run. The faulted machines
    /// land in quarantine, not back in the free list.
    #[test]
    fn injected_faults_mid_shard_recover_bitwise(seed in 0u64..60, step in 1u64..200) {
        let p = random_shardable_program(seed);
        let compiled = Arc::new(CompiledProgram::compile(&p));
        let image = build_image(&compiled, seed);
        let (serial_stats, serial_out) = run_serial(&compiled, &image);

        let plan = ShardPlan::analyze(&compiled).expect("shardable");
        let sharded = plan.compile(4);
        let pool = MachinePool::new();
        // One-shot error at `step` (cloned per worker, so every worker
        // may lose its first shard that runs that long). The CI chaos
        // sweep's env plan replaces ours when STARDUST_FAULTS is set —
        // the retry policy covers one transient fault per shard, which
        // is each plan's own contract, not the union of both plans.
        let fault = FaultPlan::from_env()
            .expect("STARDUST_FAULTS is malformed")
            .unwrap_or(FaultPlan {
                error_at_step: Some(step),
                ..FaultPlan::default()
            });
        let result = faults::with_plan(fault, || {
            sharded.run_pooled(&image, &pool, &RunBudget::default(), None)
        });
        match result {
            Ok(run) => {
                prop_assert_eq!(&run.stats, &serial_stats, "post-recovery stats diverge");
                prop_assert_eq!(&output_bits(&run.machine, &compiled), &serial_out);
            }
            // A standing env clamp (the chaos sweep's `max_steps`) is a
            // deterministic budget abort, not a transient fault — no
            // retry is owed and no partial result is merged.
            Err(ShardError::Run(RunError::BudgetExceeded { .. })) => {}
            Err(other) => prop_assert!(false, "transient faults must be retried, got {other}"),
        }
    }
}

/// A panic mid-shard is contained by the scope, retried, and merges
/// bitwise — a panicking shard cannot take down the caller.
#[test]
fn injected_panic_mid_shard_recovers_bitwise() {
    let p = random_shardable_program(7);
    let compiled = Arc::new(CompiledProgram::compile(&p));
    let image = build_image(&compiled, 7);
    let (serial_stats, serial_out) = run_serial(&compiled, &image);

    let sharded = ShardPlan::analyze(&compiled).expect("shardable").compile(4);
    let pool = MachinePool::new();
    let fault = FaultPlan {
        panic_at_step: Some(5),
        ..FaultPlan::default()
    };
    let run = faults::with_plan(fault, || {
        sharded.run_pooled(&image, &pool, &RunBudget::default(), None)
    })
    .expect("contained panic must be retried");
    assert_eq!(run.stats, serial_stats);
    assert_eq!(output_bits(&run.machine, &compiled), serial_out);
}

/// Helper: analyze a finished program.
fn analyze(p: &mut SpatialProgram) -> Result<ShardPlan, NotShardable> {
    p.assign_ids();
    let compiled = Arc::new(CompiledProgram::compile(p));
    ShardPlan::analyze(&compiled)
}

/// A minimal shardable skeleton the rejection tests perturb.
fn skeleton() -> SpatialProgram {
    let mut p = SpatialProgram::new("skel");
    p.add_dram("in0", SIZE);
    p.add_sparse_dram("sp0", SIZE);
    p.add_dram("out0", OUT);
    p
}

fn trailing_loop(body: Vec<SpatialStmt>) -> SpatialStmt {
    SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(8.0)),
        par: 1,
        body,
    }
}

fn store_i() -> SpatialStmt {
    SpatialStmt::StoreScalar {
        dst: "out0".into(),
        index: SExpr::var("i"),
        value: SExpr::var("i"),
    }
}

#[test]
fn rejects_empty_body() {
    let mut p = skeleton();
    assert!(matches!(analyze(&mut p), Err(NotShardable::EmptyBody)));
}

#[test]
fn rejects_trailing_non_loop() {
    let mut p = skeleton();
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out0".into(),
        index: SExpr::Const(0.0),
        value: SExpr::Const(1.0),
    });
    assert!(matches!(
        analyze(&mut p),
        Err(NotShardable::TrailingStatementNotLoop)
    ));
}

#[test]
fn rejects_top_level_reduction() {
    let mut p = skeleton();
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
    p.accel.push(SpatialStmt::Reduce {
        id: 0,
        reg: "acc".into(),
        counter: Counter::range_to("i", SExpr::Const(8.0)),
        par: 1,
        body: vec![],
        expr: SExpr::var("i"),
    });
    assert!(matches!(
        analyze(&mut p),
        Err(NotShardable::TopLevelReduction)
    ));
}

#[test]
fn rejects_scan_counter_outer_loop() {
    let mut p = skeleton();
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        "bv",
        MemKind::BitVector,
        SIZE,
    )));
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan2 {
            op: ScanOp::Or,
            bv_a: "bv".into(),
            bv_b: "bv".into(),
            a_pos_var: "p".into(),
            b_pos_var: "q".into(),
            out_pos_var: "o".into(),
            idx_var: "ix".into(),
        },
        par: 1,
        body: vec![store_i()],
    });
    assert!(matches!(
        analyze(&mut p),
        Err(NotShardable::NonRangeCounter)
    ));
}

#[test]
fn rejects_non_const_bounds() {
    let mut p = skeleton();
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, SIZE)));
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "i".into(),
            min: SExpr::Const(0.0),
            max: SExpr::read("s", SExpr::Const(0.0)),
            step: 1,
        },
        par: 1,
        body: vec![store_i()],
    });
    assert!(matches!(analyze(&mut p), Err(NotShardable::NonConstBounds)));
}

#[test]
fn rejects_non_integral_bound() {
    let mut p = skeleton();
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "i".into(),
            min: SExpr::Const(0.0),
            max: SExpr::Const(7.5),
            step: 1,
        },
        par: 1,
        body: vec![store_i()],
    });
    assert!(matches!(
        analyze(&mut p),
        Err(NotShardable::NonIntegralBound)
    ));
}

#[test]
fn rejects_non_positive_step() {
    let mut p = skeleton();
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "i".into(),
            min: SExpr::Const(0.0),
            max: SExpr::Const(8.0),
            step: 0,
        },
        par: 1,
        body: vec![store_i()],
    });
    assert!(matches!(
        analyze(&mut p),
        Err(NotShardable::NonPositiveStep)
    ));
}

#[test]
fn rejects_out_of_range_bound() {
    let mut p = skeleton();
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "i".into(),
            min: SExpr::Const(0.0),
            max: SExpr::Const((1u64 << 51) as f64),
            step: 1,
        },
        par: 1,
        body: vec![store_i()],
    });
    assert!(matches!(
        analyze(&mut p),
        Err(NotShardable::BoundsOutOfRange)
    ));
}

#[test]
fn rejects_prefix_dram_write() {
    let mut p = skeleton();
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out0".into(),
        index: SExpr::Const(0.0),
        value: SExpr::Const(1.0),
    });
    p.accel.push(trailing_loop(vec![store_i()]));
    assert!(matches!(
        analyze(&mut p),
        Err(NotShardable::PrefixWritesDram { .. })
    ));
}

#[test]
fn rejects_body_reading_written_dram() {
    let mut p = skeleton();
    p.accel.push(trailing_loop(vec![
        SpatialStmt::StoreScalar {
            dst: "sp0".into(),
            index: SExpr::var("i"),
            value: SExpr::var("i"),
        },
        SpatialStmt::StoreScalar {
            dst: "out0".into(),
            index: SExpr::var("i"),
            value: SExpr::read_random("sp0", SExpr::var("i")),
        },
    ]));
    assert!(matches!(
        analyze(&mut p),
        Err(NotShardable::BodyReadsWrittenDram { .. })
    ));
}

#[test]
fn rejects_body_mutating_shared_chip() {
    let mut p = skeleton();
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, SIZE)));
    p.accel.push(trailing_loop(vec![SpatialStmt::WriteMem {
        mem: "s".into(),
        index: SExpr::Const(0.0),
        value: SExpr::var("i"),
        random: false,
    }]));
    assert!(matches!(
        analyze(&mut p),
        Err(NotShardable::BodyMutatesSharedChip { .. })
    ));
}

#[test]
fn rejects_body_reading_stale_chip() {
    let mut p = skeleton();
    p.accel.push(trailing_loop(vec![
        SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("j", SExpr::Const(2.0)),
            par: 1,
            body: vec![
                SpatialStmt::Alloc(MemDecl::new("t", MemKind::Sram, 4)),
                SpatialStmt::WriteMem {
                    mem: "t".into(),
                    index: SExpr::var("j"),
                    value: SExpr::var("i"),
                    random: false,
                },
            ],
        },
        SpatialStmt::StoreScalar {
            dst: "out0".into(),
            index: SExpr::var("i"),
            value: SExpr::read("t", SExpr::Const(0.0)),
        },
    ]));
    assert!(matches!(
        analyze(&mut p),
        Err(NotShardable::BodyReadsStaleChip { .. })
    ));
}

#[test]
fn rejects_body_reading_loop_carried_var() {
    let mut p = skeleton();
    p.accel.push(trailing_loop(vec![
        SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("j", SExpr::Const(2.0)),
            par: 1,
            body: vec![SpatialStmt::Bind {
                var: "x".into(),
                value: SExpr::var("j"),
            }],
        },
        SpatialStmt::StoreScalar {
            dst: "out0".into(),
            index: SExpr::var("i"),
            value: SExpr::var("x"),
        },
    ]));
    assert!(matches!(
        analyze(&mut p),
        Err(NotShardable::BodyReadsLoopCarriedVar { .. })
    ));
}

/// A `Scan2` union body stays shardable when all scanned state is
/// iteration-local — the declarative-sparse fast path and the shard
/// pass compose.
#[test]
fn scan2_union_body_shards_bitwise() {
    let mut p = skeleton();
    p.add_dram("out1", OUT);
    let mut body = Vec::new();
    for (bv, coords) in [("bvA", [1.0, 2.0, 5.0]), ("bvB", [0.0, 2.0, 8.0])] {
        let fifo = format!("{bv}_f");
        body.push(SpatialStmt::Alloc(MemDecl::new(
            bv,
            MemKind::BitVector,
            SIZE,
        )));
        body.push(SpatialStmt::Alloc(MemDecl::new(&fifo, MemKind::Fifo, 4)));
        for c in coords {
            body.push(SpatialStmt::Enq {
                fifo: fifo.clone(),
                value: SExpr::Const(c),
            });
        }
        body.push(SpatialStmt::GenBitVector {
            dst: bv.into(),
            src: fifo,
            src_start: SExpr::Const(0.0),
            count: SExpr::Const(coords.len() as f64),
            dim: SExpr::Const(SIZE as f64),
        });
    }
    body.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan2 {
            op: ScanOp::Or,
            bv_a: "bvA".into(),
            bv_b: "bvB".into(),
            a_pos_var: "pA".into(),
            b_pos_var: "pB".into(),
            out_pos_var: "pO".into(),
            idx_var: "ix".into(),
        },
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out1".into(),
            index: SExpr::add(SExpr::var("pO"), SExpr::var("i")),
            value: SExpr::add(SExpr::var("pA"), SExpr::var("pB")),
        }],
    });
    body.push(store_i());
    p.accel.push(trailing_loop(body));
    p.assign_ids();

    let compiled = Arc::new(CompiledProgram::compile(&p));
    let image = DramImage::builder(Arc::clone(&compiled)).finish();
    let (serial_stats, serial_out) = run_serial(&compiled, &image);
    let sharded = ShardPlan::analyze(&compiled)
        .expect("scan2 body with local state is shardable")
        .compile(3);
    let pool = MachinePool::new();
    let run = sharded
        .run_pooled(&image, &pool, &RunBudget::default(), None)
        .expect("sharded run");
    assert_eq!(run.stats, serial_stats);
    assert_eq!(output_bits(&run.machine, &compiled), serial_out);
}

/// The auto sizing policy ([`stardust_spatial::auto_shard_count`]):
/// tiny trip counts stay serial no matter how many machines are idle,
/// the count never exceeds the pool's machines, and large loops on a
/// well-stocked pool do split (bounded by host parallelism).
#[test]
fn auto_shard_count_keeps_tiny_trip_counts_serial() {
    use stardust_spatial::{auto_shard_count, PoolOccupancy, MIN_TRIPS_PER_SHARD};
    let wide = PoolOccupancy {
        idle: 64,
        shards: 64,
        ..PoolOccupancy::default()
    };
    // Below two minimum-size shards there is nothing to split.
    for trips in [0, 1, 7, MIN_TRIPS_PER_SHARD, 2 * MIN_TRIPS_PER_SHARD - 1] {
        assert_eq!(auto_shard_count(trips, &wide), 1, "trips {trips}");
    }
    // An empty pool keeps even a huge loop serial.
    let empty = PoolOccupancy::default();
    assert_eq!(auto_shard_count(1 << 30, &empty), 1);
    // The trip cap binds before the pool cap: 3 minimum shards' worth
    // of trips never splits more than 3 ways.
    let n = auto_shard_count(3 * MIN_TRIPS_PER_SHARD, &wide);
    assert!(n <= 3, "trip cap violated: {n}");
    // A wide loop splits when machines and cores allow, and never
    // beyond the pool.
    let four = PoolOccupancy {
        idle: 4,
        shards: 4,
        ..PoolOccupancy::default()
    };
    let n = auto_shard_count(1 << 30, &four);
    assert!(n <= 4, "pool cap violated: {n}");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if cores >= 2 {
        assert!(n >= 2, "a wide loop on a stocked pool must split");
    }
}

/// `CompiledShards` sized by the auto policy still merge bitwise
/// identically to serial.
#[test]
fn auto_sized_partition_is_bitwise_identical() {
    let p = random_shardable_program(4242);
    let compiled = Arc::new(CompiledProgram::compile(&p));
    let image = DramImage::builder(Arc::clone(&compiled)).finish();
    let (serial_stats, serial_out) = run_serial(&compiled, &image);
    let plan = ShardPlan::analyze(&compiled).expect("generated programs are shardable");
    let occ = stardust_spatial::PoolOccupancy {
        idle: 3,
        shards: 3,
        ..Default::default()
    };
    let n = stardust_spatial::auto_shard_count(plan.trips(), &occ).max(2);
    let sharded = plan.compile(n);
    let pool = MachinePool::new();
    let run = sharded
        .run_pooled(&image, &pool, &RunBudget::default(), None)
        .expect("sharded run");
    assert_eq!(run.stats, serial_stats);
    assert_eq!(output_bits(&run.machine, &compiled), serial_out);
}

// ---------------------------------------------------------------------
// Effect-analysis widenings: shapes the string-level pass rejected that
// the shared effect summaries now prove shardable.
// ---------------------------------------------------------------------

/// Serial-vs-sharded bitwise check for a hand-built program (the
/// random-generator harness above fixes its own output names).
fn assert_shards_bitwise(p: &SpatialProgram, outs: &[&str], shards: usize) {
    let compiled = Arc::new(CompiledProgram::compile(p));
    let image = {
        let mut b = DramImage::builder(Arc::clone(&compiled));
        let data: Vec<f64> = (0..SIZE as u64)
            .map(|w| ((w * 3) % 23) as f64 * 0.5)
            .collect();
        let slot = compiled.syms().dram_slot("in0").expect("declared dram");
        b.write(slot, &data).expect("write input");
        b.finish()
    };
    let mut serial = Machine::from_compiled(Arc::clone(&compiled));
    serial.bind_image(&image).expect("serial bind");
    let serial_stats = serial.run(p).expect("serial run");
    let bits = |m: &Machine, name: &str| -> Vec<u64> {
        m.dram(name)
            .expect("output dram")
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };

    let plan = ShardPlan::analyze(&compiled)
        .unwrap_or_else(|e| panic!("{} must prove shardable, got {e}", p.name));
    let sharded = plan.compile(shards);
    let pool = MachinePool::new();
    let run = sharded
        .run_pooled(&image, &pool, &RunBudget::default(), None)
        .expect("sharded run");
    assert_eq!(run.stats, serial_stats, "{}: sharded stats diverge", p.name);
    for name in outs {
        assert_eq!(
            bits(&run.machine, name),
            bits(&serial, name),
            "{}: DRAM {name} diverges at {shards} shards",
            p.name
        );
    }
}

/// A *non-trailing* candidate loop: the loop is followed by a suffix
/// statement that depends on nothing the body defines. The old pass
/// only ever considered the trailing statement
/// (`TrailingStatementNotLoop`); the effect-analysis scan proves the
/// earlier loop and replays the suffix per shard.
#[test]
fn non_trailing_loop_shards_bitwise() {
    for shards in [2usize, 4] {
        let mut p = skeleton();
        p.add_dram("out1", OUT);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s0", MemKind::Sram, SIZE)));
        p.accel.push(SpatialStmt::Load {
            dst: "s0".into(),
            src: "in0".into(),
            start: SExpr::Const(0.0),
            end: SExpr::Const(SIZE as f64),
            par: 1,
        });
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(24.0)),
            par: 1,
            body: vec![SpatialStmt::StoreScalar {
                dst: "out0".into(),
                index: SExpr::var("i"),
                value: SExpr::add(
                    SExpr::read(
                        "s0",
                        SExpr::bin(
                            stardust_spatial::BinSOp::Mod,
                            SExpr::var("i"),
                            SExpr::Const(SIZE as f64),
                        ),
                    ),
                    SExpr::Const(1.0),
                ),
            }],
        });
        // Suffix: reads only prefix state (s0), writes a different
        // array — replayed identically by every shard.
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out1".into(),
            index: SExpr::Const(0.0),
            value: SExpr::read("s0", SExpr::Const(3.0)),
        });
        p.assign_ids();
        let compiled = Arc::new(CompiledProgram::compile(&p));
        let plan = ShardPlan::analyze(&compiled).expect("non-trailing loop proves");
        assert_eq!(plan.stmt_idx(), 2, "candidate is the non-trailing loop");
        assert_shards_bitwise(&p, &["out0", "out1"], shards);
    }
}

/// A prefix store into an array the body never touches: the old
/// name-level pass rejected every DRAM-writing prefix
/// (`PrefixWritesDram`); the effect summaries prove disjointness and
/// admit it.
#[test]
fn prefix_store_to_untouched_array_shards_bitwise() {
    let mut p = skeleton();
    p.add_dram("out1", OUT);
    // Prefix writes out1; the loop writes only out0.
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out1".into(),
        index: SExpr::Const(0.0),
        value: SExpr::Const(9.0),
    });
    p.accel.push(trailing_loop(vec![store_i()]));
    p.assign_ids();
    let compiled = Arc::new(CompiledProgram::compile(&p));
    ShardPlan::analyze(&compiled).expect("disjoint prefix store proves");
    assert_shards_bitwise(&p, &["out0", "out1"], 3);
}

/// A suffix that reads body-written chip state is rejected with the
/// offending name.
#[test]
fn rejects_suffix_depending_on_body() {
    let mut p = skeleton();
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, SIZE)));
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(8.0)),
        par: 1,
        body: vec![SpatialStmt::WriteMem {
            mem: "s".into(),
            index: SExpr::var("i"),
            value: SExpr::var("i"),
            random: false,
        }],
    });
    // Suffix reads the body-written SRAM: each shard would observe
    // only its own slice.
    p.accel.push(SpatialStmt::Store {
        dst: "out0".into(),
        offset: SExpr::Const(0.0),
        src: "s".into(),
        len: SExpr::Const(8.0),
        par: 1,
    });
    match analyze(&mut p) {
        Err(NotShardable::SuffixDependsOnBody { name }) => assert_eq!(name, "s"),
        other => panic!("expected SuffixDependsOnBody, got {other:?}"),
    }
}

/// Vector-aware sizing: a plan whose candidate contains a
/// vector-eligible inner loop is discounted by
/// [`stardust_spatial::VECTOR_SHARD_DISCOUNT`], so the same trip count
/// yields fewer, larger shards than the scalar policy grants.
#[test]
fn auto_shard_count_discounts_vectorized_plans() {
    use stardust_spatial::{
        auto_shard_count, auto_shard_count_for, PoolOccupancy, MIN_TRIPS_PER_SHARD,
        VECTOR_SHARD_DISCOUNT,
    };
    let trips = 4 * MIN_TRIPS_PER_SHARD;
    let mut p = skeleton();
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(trips as f64)),
        par: 1,
        body: vec![
            SpatialStmt::Alloc(MemDecl::new("r", MemKind::Reg, 1)),
            // A vector-eligible inner reduce: `r = Σ j * 2`.
            SpatialStmt::Reduce {
                id: 1,
                reg: "r".into(),
                counter: Counter::range_to("j", SExpr::Const(SIZE as f64)),
                par: 1,
                body: vec![],
                expr: SExpr::mul(SExpr::var("j"), SExpr::Const(2.0)),
            },
            SpatialStmt::StoreScalar {
                dst: "out0".into(),
                index: SExpr::bin(
                    stardust_spatial::BinSOp::Mod,
                    SExpr::var("i"),
                    SExpr::Const(OUT as f64),
                ),
                value: SExpr::RegRead("r".into()),
            },
        ],
    });
    p.assign_ids();
    let compiled = Arc::new(CompiledProgram::compile(&p));
    let plan = ShardPlan::analyze(&compiled).expect("vectorized candidate proves");
    assert!(
        plan.vectorized(),
        "inner reduce must classify vector-eligible"
    );
    let wide = PoolOccupancy {
        idle: 64,
        shards: 64,
        ..PoolOccupancy::default()
    };
    let scalar_n = auto_shard_count(plan.trips(), &wide);
    let vector_n = auto_shard_count_for(&plan, &wide);
    assert_eq!(
        auto_shard_count(plan.trips() / VECTOR_SHARD_DISCOUNT, &wide),
        vector_n,
        "discount must divide trips by VECTOR_SHARD_DISCOUNT"
    );
    // On hosts with enough cores for the trip cap to bind, the
    // discount visibly halves the split.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if cores >= 4 {
        assert!(
            vector_n < scalar_n,
            "vectorized plan must split less: {vector_n} vs {scalar_n}"
        );
    }
    // A scalar plan of the same shape is not discounted.
    let mut q = skeleton();
    q.accel.push(trailing_loop(vec![store_i()]));
    q.assign_ids();
    let qc = Arc::new(CompiledProgram::compile(&q));
    let qplan = ShardPlan::analyze(&qc).expect("scalar candidate proves");
    assert!(!qplan.vectorized());
    assert_eq!(
        auto_shard_count_for(&qplan, &wide),
        auto_shard_count(qplan.trips(), &wide)
    );
}
