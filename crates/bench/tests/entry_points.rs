//! The entry points agree with each other on the Table-3 suite.
//!
//! - `CompiledKernel::execute_image_with` at its default options is the
//!   direct-bind `execute`, bit for bit, on every stage of every kernel ×
//!   dataset at CI scale.
//! - `Kernel::compile` returns the programs `Kernel::run` executes, also
//!   for a stage sized from an intermediate: Plus3's second stage binds
//!   the first one's output, and a compressed result's `pos`/`crd`
//!   extents are a function of its operands' stored level sizes.

use stardust_bench::{instantiate, Scale, KERNEL_NAMES};
use stardust_core::pipeline::{KernelOutput, KernelRun, RunOptions, TensorData};

/// The exact bits of a run's output: structure (dims, every `pos`/`crd`
/// word — covered by the fingerprint) and every value word.
fn output_bits(run: &KernelRun) -> Vec<u64> {
    match &run.output {
        KernelOutput::Scalar(v) => vec![v.to_bits()],
        KernelOutput::Tensor(t) => std::iter::once(t.fingerprint())
            .chain(t.vals().iter().map(|v| v.to_bits()))
            .collect(),
    }
}

#[test]
fn default_options_are_the_direct_run_on_every_kernel() {
    let scale = Scale::ci();
    let mut stages = 0;
    for name in KERNEL_NAMES {
        for (kernel, set) in instantiate(name, &scale) {
            let mut available = set.inputs.clone();
            for (s, stage) in kernel.compile(&set.inputs).unwrap().iter().enumerate() {
                let direct = stage.execute(&available).unwrap();
                let image = stage.build_image(&available).unwrap();
                let via_image = stage
                    .execute_image_with(&image, &RunOptions::default())
                    .unwrap();
                let at = format!("{name} on {} stage {s}", set.dataset);
                assert_eq!(direct.stats, via_image.stats, "{at}: ExecStats");
                assert_eq!(
                    output_bits(&direct),
                    output_bits(&via_image),
                    "{at}: output"
                );
                if let KernelOutput::Tensor(t) = direct.output {
                    let out = stage.program().output().to_string();
                    available.insert(out, TensorData::Sparse(t));
                }
                stages += 1;
            }
        }
    }
    assert!(stages >= 27, "suite shrank: only {stages} stages ran");
}

#[test]
fn compile_returns_the_programs_run_executes() {
    for (kernel, set) in instantiate("Plus3", &Scale::ci()) {
        let compiled = kernel.compile(&set.inputs).unwrap();
        let ran = kernel.run(&set.inputs).unwrap();
        assert_eq!(compiled.len(), ran.stages.len());
        for (i, (c, r)) in compiled.iter().zip(&ran.stages).enumerate() {
            assert_eq!(
                c.source(),
                r.compiled.source(),
                "Plus3 on {} stage {i}: compile() and run() disagree",
                set.dataset
            );
        }
    }
}
