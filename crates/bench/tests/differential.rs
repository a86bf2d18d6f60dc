//! Differential testing of the two Spatial execution engines.
//!
//! Every Table 3 kernel is compiled and executed on the full dataset
//! suite (the Table 4 stand-ins plus the random matrices/tensors the
//! harness instantiates per kernel). For each stage, the same bound DRAM
//! image is run through the flat bytecode engine
//! ([`stardust_spatial::Machine::run`]) and the original string-keyed
//! [`stardust_spatial::ReferenceMachine`] oracle, and the test asserts:
//!
//! - **byte-identical outputs**: every DRAM array compares equal at the
//!   bit level after execution on both engines, and
//! - **identical statistics**: the [`stardust_spatial::ExecStats`]
//!   returned by both engines — including per-array and per-node maps —
//!   are equal, and match the stats the production `Kernel::run` path
//!   recorded.
//!
//! The `write_dram`-bound and image-bound machines share one
//! `Arc<CompiledProgram>` artifact, so the test also covers the re-bind
//! path the harness uses for dataset sweeps.
//!
//! A second leg pins the vector tier against the scalar loops directly:
//! every stage runs once as compiled (vector tier on, the default) and
//! once with it off, and the two must agree on the result, every DRAM
//! bit and the `ExecStats`. It runs
//! under the `STARDUST_FAULTS` plan when one is set, so the CI chaos
//! step's `max_steps` clamp lands budget aborts inside vector chunks
//! of real kernels.
//!
//! A third leg shards every stage the shard analysis accepts and holds
//! the sharded runs bitwise against a serial run.

use std::collections::HashMap;

use stardust_bench::{instantiate, Scale, KERNEL_NAMES};
use stardust_core::pipeline::{KernelOutput, TensorData};
use stardust_kernels::Kernel;
use stardust_spatial::{FaultPlan, Machine, MachinePool, ReferenceMachine, RunBudget, ShardPlan};

/// Runs every stage of `kernel` through both engines and asserts
/// bit-identical DRAM images and identical statistics.
fn assert_engines_agree(kernel: &Kernel, inputs: &HashMap<String, TensorData>) {
    let result = kernel
        .run(inputs)
        .unwrap_or_else(|e| panic!("{} failed to run: {e}", kernel.name));
    let mut available = inputs.clone();
    for (s, stage) in result.stages.iter().enumerate() {
        let compiled = &stage.compiled;
        let program = compiled.spatial();
        let mut fast = compiled.bind(&available).expect("bind inputs");
        // A second machine bound through the copy-on-write DramImage
        // path: identical DRAM at bind time, identical DRAM and stats
        // after running.
        let image = compiled.build_image(&available).expect("build image");
        let mut image_bound = compiled.bind_image(&image).expect("bind image");
        for d in &program.drams {
            let a: Vec<u64> = fast
                .dram(&d.name)
                .expect("bound dram")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let i: Vec<u64> = image_bound
                .dram(&d.name)
                .expect("image dram")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                a, i,
                "{} stage {s}: DRAM {} write_dram vs image bind",
                kernel.name, d.name
            );
        }
        let mut reference = ReferenceMachine::new(program);
        for d in &program.drams {
            reference
                .write_dram(&d.name, fast.dram(&d.name).expect("bound dram"))
                .expect("mirror dram");
        }

        let fast_stats = fast.run(program).expect("bytecode engine runs");
        let image_stats = image_bound.run(program).expect("image-bound machine runs");
        let ref_stats = reference.run(program).expect("reference engine runs");
        assert_eq!(
            fast_stats, image_stats,
            "{} stage {s}: ExecStats diverge write_dram vs image binding",
            kernel.name
        );
        for d in &program.drams {
            let a: Vec<u64> = fast
                .dram(&d.name)
                .expect("dram present")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let i: Vec<u64> = image_bound
                .dram(&d.name)
                .expect("dram present")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                a, i,
                "{} stage {s}: DRAM {} diverges write_dram vs image binding after run",
                kernel.name, d.name
            );
        }
        assert_eq!(
            fast_stats, ref_stats,
            "{} stage {s}: ExecStats diverge between engines",
            kernel.name
        );
        assert_eq!(
            fast_stats, stage.stats,
            "{} stage {s}: ExecStats diverge from the production run",
            kernel.name
        );

        for d in &program.drams {
            let a = fast.dram(&d.name).expect("dram present");
            let b = reference.dram(&d.name).expect("dram present");
            assert_eq!(a.len(), b.len(), "{}: {} length", kernel.name, d.name);
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{} stage {s}: DRAM {}[{i}] diverges: {x} vs {y}",
                    kernel.name,
                    d.name
                );
            }
        }

        // Thread this stage's output into the next stage's inputs, as the
        // production runner does.
        if let KernelOutput::Tensor(t) = compiled.read_output(&fast).expect("read output") {
            available.insert(
                compiled.program().output().to_string(),
                TensorData::Sparse(t),
            );
        }
    }
}

#[test]
fn all_table3_kernels_agree_on_the_dataset_suite() {
    let scale = Scale::ci();
    for name in KERNEL_NAMES {
        for (kernel, set) in instantiate(name, &scale) {
            println!("differential: {name} on {}", set.dataset);
            assert_engines_agree(&kernel, &set.inputs);
        }
    }
}

/// Runs `f` under the `STARDUST_FAULTS` environment plan when one is
/// set, installing a fresh plan per call so one-shot faults fire
/// identically for every machine. With the variable unset this is a
/// plain call.
fn with_env_faults<R>(f: impl FnOnce() -> R) -> R {
    // A malformed plan must fail the suite loudly, not run it as a
    // vacuous no-op.
    match FaultPlan::from_env().expect("STARDUST_FAULTS is malformed") {
        Some(plan) => stardust_spatial::faults::with_plan(plan, f),
        None => f(),
    }
}

/// The DRAM contents of `machine` as bits, array by array.
fn dram_bits(machine: &Machine) -> Vec<(String, Vec<u64>)> {
    machine
        .compiled()
        .source()
        .drams
        .iter()
        .map(|d| {
            let words = machine.dram(&d.name).expect("dram present");
            let bits = words.iter().map(|v| v.to_bits()).collect();
            (d.name.clone(), bits)
        })
        .collect()
}

/// Runs every stage of `kernel` with the vector tier on and off and
/// asserts the same result, bit-identical DRAM and identical
/// statistics.
fn assert_tiers_invisible(kernel: &Kernel, inputs: &HashMap<String, TensorData>) {
    let result = kernel
        .run(inputs)
        .unwrap_or_else(|e| panic!("{} failed to run: {e}", kernel.name));
    let mut available = inputs.clone();
    for (s, stage) in result.stages.iter().enumerate() {
        let compiled = &stage.compiled;
        let program = compiled.spatial();
        let mut tiered = compiled.bind(&available).expect("bind inputs");
        let mut scalar = tiered.clone();
        scalar.set_vector_mode(false);
        let tiered_result = with_env_faults(|| tiered.run(program));
        let scalar_result = with_env_faults(|| scalar.run(program));
        assert_eq!(
            tiered_result, scalar_result,
            "{} stage {s}: results diverge with the tiers off",
            kernel.name
        );
        assert_eq!(
            dram_bits(&tiered),
            dram_bits(&scalar),
            "{} stage {s}: DRAM diverges with the tiers off",
            kernel.name
        );
        assert_eq!(
            tiered.stats(),
            scalar.stats(),
            "{} stage {s}: ExecStats diverge with the tiers off",
            kernel.name
        );
        // The next stage reads this one's fault-free output.
        if let KernelOutput::Tensor(t) = compiled.execute(&available).expect("stage runs").output {
            available.insert(
                compiled.program().output().to_string(),
                TensorData::Sparse(t),
            );
        }
    }
}

#[test]
fn compiled_stages_agree_with_the_tiers_off() {
    let scale = Scale::ci();
    for name in KERNEL_NAMES {
        for (kernel, set) in instantiate(name, &scale) {
            println!("tiers off: {name} on {}", set.dataset);
            assert_tiers_invisible(&kernel, &set.inputs);
        }
    }
}

/// Every stage the shard analysis accepts runs at 2 and 3 shards
/// bitwise identical to a serial image-bound run: every DRAM word and
/// the statistics. The accepted count is pinned at 21 of the 27
/// CI-scale stages (`perf`'s `spatial.shard.shardable_stages`): the
/// InnerProd stages' suffix reads the body's workspace and the Plus2
/// stages' prefix writes an array the body writes.
#[test]
fn compiled_stages_shard_bitwise() {
    let scale = Scale::ci();
    let pool = MachinePool::new();
    let (mut stages, mut shardable) = (0, 0);
    for name in KERNEL_NAMES {
        for (kernel, set) in instantiate(name, &scale) {
            let result = kernel
                .run(&set.inputs)
                .unwrap_or_else(|e| panic!("{} failed to run: {e}", kernel.name));
            let mut available = set.inputs.clone();
            for (s, stage) in result.stages.iter().enumerate() {
                stages += 1;
                let compiled = &stage.compiled;
                let image = compiled.build_image(&available).expect("build image");
                let mut serial = compiled.bind_image(&image).expect("bind image");
                let stats = serial.run(compiled.spatial()).expect("serial run");
                if let Ok(plan) = ShardPlan::analyze(compiled.compiled_spatial()) {
                    shardable += 1;
                    for n in [2, 3] {
                        let run = plan
                            .compile(n)
                            .run_pooled(&image, &pool, &RunBudget::default(), None)
                            .unwrap_or_else(|e| panic!("{name} stage {s} at {n} shards: {e}"));
                        assert_eq!(
                            run.stats, stats,
                            "{name} on {} stage {s}: ExecStats diverge at {n} shards",
                            set.dataset
                        );
                        assert_eq!(
                            dram_bits(&run.machine),
                            dram_bits(&serial),
                            "{name} on {} stage {s}: DRAM diverges at {n} shards",
                            set.dataset
                        );
                    }
                }
                if let KernelOutput::Tensor(t) = compiled.read_output(&serial).expect("read output")
                {
                    available.insert(
                        compiled.program().output().to_string(),
                        TensorData::Sparse(t),
                    );
                }
            }
        }
    }
    assert_eq!(
        (shardable, stages),
        (21, 27),
        "shardable stages of all stages"
    );
}
