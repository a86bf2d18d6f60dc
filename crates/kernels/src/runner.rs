//! Compiling and executing kernels end-to-end (multi-stage aware).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use stardust_core::lower::SizeHints;
use stardust_core::pipeline::{
    CompiledKernel, Compiler, ImageCache, KernelOutput, KernelRun, RunOptions, TensorData,
};
use stardust_core::CompileError;
use stardust_spatial::{DramImage, ExecStats, MachinePool, ProgramCache};
use stardust_tensor::SparseTensor;

use crate::defs::Kernel;

/// One executed stage: its compiled form plus interpreter statistics.
#[derive(Debug, Clone)]
pub struct StageRun {
    /// The compiled stage.
    pub compiled: CompiledKernel,
    /// Interpreter event counts for this stage.
    pub stats: ExecStats,
}

/// A complete kernel execution.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Final output (of the last stage).
    pub output: KernelOutput,
    /// Per-stage compiled kernels and statistics, in execution order.
    pub stages: Vec<StageRun>,
}

impl KernelResult {
    /// Sum of generated Spatial LoC across stages (Table 3's "Spatial").
    pub fn spatial_loc(&self) -> usize {
        self.stages.iter().map(|s| s.compiled.spatial_loc()).sum()
    }

    /// Merged statistics across stages.
    pub fn total_stats(&self) -> ExecStats {
        let mut total = ExecStats::default();
        for s in &self.stages {
            merge_stats(&mut total, &s.stats);
        }
        total
    }
}

/// Accumulates `from` into `into` ([`ExecStats::merge`]) — the
/// stage-stats sum behind [`KernelResult::total_stats`], under the name
/// executors that drive stages themselves already call.
pub fn merge_stats(into: &mut ExecStats, from: &ExecStats) {
    into.merge(from);
}

/// One stage as [`Kernel::walk`] left it.
#[derive(Debug, Clone)]
pub struct WalkedStage {
    /// The compiled stage.
    pub compiled: CompiledKernel,
    /// The image the stage binds, when the walk was given an
    /// [`ImageCache`].
    pub image: Option<Arc<DramImage>>,
    /// The stage's run; `None` only for a final stage the walk was told
    /// not to run.
    pub run: Option<KernelRun>,
}

impl Kernel {
    /// Compiles every stage exactly as [`Kernel::run`] would: a later
    /// stage is sized from the earlier stages' actual outputs, so on a
    /// multi-stage kernel the earlier stages are run here to have them.
    ///
    /// # Errors
    ///
    /// Returns the first compile or simulation error.
    pub fn compile(
        &self,
        inputs: &HashMap<String, TensorData>,
    ) -> Result<Vec<CompiledKernel>, CompileError> {
        let walked = self.walk(inputs, None, None, &RunOptions::default(), false)?;
        Ok(walked.into_iter().map(|stage| stage.compiled).collect())
    }

    /// Like [`Kernel::compile`], but shares linked Spatial artifacts
    /// through `cache` — sweeping one kernel across datasets or memory
    /// models re-binds machines without re-linking identical programs.
    ///
    /// # Errors
    ///
    /// Returns the first compile or simulation error.
    pub fn compile_cached(
        &self,
        inputs: &HashMap<String, TensorData>,
        cache: &ProgramCache,
    ) -> Result<Vec<CompiledKernel>, CompileError> {
        let walked = self.walk(inputs, Some(cache), None, &RunOptions::default(), false)?;
        Ok(walked.into_iter().map(|stage| stage.compiled).collect())
    }

    /// Compiles and executes all stages cold, sharing nothing: every
    /// stage is lowered and linked anew and binds its inputs into a fresh
    /// machine. The baseline every other way of running is held bitwise
    /// against.
    ///
    /// # Errors
    ///
    /// Returns the first compile or simulation error.
    pub fn run(&self, inputs: &HashMap<String, TensorData>) -> Result<KernelResult, CompileError> {
        self.run_with(inputs, None, None, &RunOptions::default())
    }

    /// Runs warm: compile once per program ([`ProgramCache`]), convert
    /// once per dataset ([`ImageCache`]), allocate once per (thread,
    /// program) ([`MachinePool`]); a repeat pays for the run and an
    /// O(outputs) re-bind. Results are byte-identical to [`Kernel::run`].
    ///
    /// # Errors
    ///
    /// Returns the first compile or simulation error.
    pub fn run_pooled(
        &self,
        inputs: &HashMap<String, TensorData>,
        cache: &ProgramCache,
        images: &ImageCache,
        pool: &MachinePool,
    ) -> Result<KernelResult, CompileError> {
        self.run_with(inputs, Some(cache), Some(images), &RunOptions::pooled(pool))
    }

    /// Compiles and executes all stages, threading stage outputs into
    /// the inputs of later stages. `programs` shares linked artifacts and
    /// memoizes compiles; `images` bakes each stage's dataset into a
    /// shared [`DramImage`] on first sight, keyed by the content of what
    /// the stage binds (intermediates are deterministic per dataset, so
    /// their images stay valid), and re-binds it in O(outputs)
    /// afterwards. `opts` says how each image-bound stage runs
    /// ([`CompiledKernel::execute_image_with`]: pool, budget, split,
    /// the retry policy); without `images` a stage binds its inputs
    /// directly into a fresh machine ([`CompiledKernel::execute`]) and
    /// `opts` has nothing to act on. Results are byte-identical to
    /// [`Kernel::run`] whatever is passed.
    ///
    /// # Errors
    ///
    /// Returns the first compile or simulation error, after the retry
    /// policy has been exhausted.
    pub fn run_with(
        &self,
        inputs: &HashMap<String, TensorData>,
        programs: Option<&ProgramCache>,
        images: Option<&ImageCache>,
        opts: &RunOptions<'_>,
    ) -> Result<KernelResult, CompileError> {
        let mut stages = Vec::with_capacity(self.stages.len());
        let mut output = None;
        for stage in self.walk(inputs, programs, images, opts, true)? {
            if let Some(run) = stage.run {
                output = Some(run.output);
                stages.push(StageRun {
                    compiled: stage.compiled,
                    stats: run.stats,
                });
            }
        }
        let output =
            output.ok_or_else(|| CompileError::Schedule("kernel has no stages to run".into()))?;
        Ok(KernelResult { output, stages })
    }

    /// The stage walk, written once: per stage, derive size hints from
    /// the tensors available *now* ([`stage_hints`] — the real outputs of
    /// earlier stages, never placeholders, or the DRAM arrays come out
    /// sized for another program), compile, build or find the image,
    /// run, and make the output available to the stages after it. The
    /// final stage's output feeds nothing, so `run_final: false` skips
    /// its run: that is compiling ([`Kernel::compile`]) or pinning a
    /// serving plan, which must produce the very programs and images
    /// [`Kernel::run_with`] executes. See there for the other arguments.
    ///
    /// The caller's map is borrowed; it is copied (tensor clones are
    /// pointer bumps) only once a stage's output has to join it.
    ///
    /// # Errors
    ///
    /// Returns the first compile or simulation error.
    pub fn walk(
        &self,
        inputs: &HashMap<String, TensorData>,
        programs: Option<&ProgramCache>,
        images: Option<&ImageCache>,
        opts: &RunOptions<'_>,
        run_final: bool,
    ) -> Result<Vec<WalkedStage>, CompileError> {
        let mut available = Cow::Borrowed(inputs);
        let mut walked = Vec::with_capacity(self.stages.len());
        for (i, stage) in self.stages.iter().enumerate() {
            let hints = stage_hints(stage, &available)?;
            let compiled = match programs {
                Some(cache) => Compiler::compile_cached(&stage.program, &stage.stmt, hints, cache)?,
                None => Compiler::compile(&stage.program, &stage.stmt, hints)?,
            };
            let image = images
                .map(|images| images.get_or_build(&compiled, &available))
                .transpose()?;
            let feeds_later = i + 1 < self.stages.len();
            let mut run = None;
            if feeds_later || run_final {
                let done = match &image {
                    Some(image) => compiled.execute_image_with(image, opts)?,
                    None => compiled.execute(&available)?,
                };
                if let (true, KernelOutput::Tensor(t)) = (feeds_later, &done.output) {
                    available.to_mut().insert(
                        stage.program.output().to_string(),
                        TensorData::Sparse(t.clone()),
                    );
                }
                run = Some(done);
            }
            walked.push(WalkedStage {
                compiled,
                image,
                run,
            });
        }
        Ok(walked)
    }
}

/// Size hints for a stage: exact level sizes for available inputs, plus a
/// sum-of-inputs bound for the stage's own output (unions can at most
/// concatenate operand coordinates; intersections and mirrors are smaller).
///
/// Public for callers that attribute its cost; to compile the programs
/// [`Kernel::run`] would, go through [`Kernel::walk`], which calls this
/// with the *actual* tensors available at each stage.
pub fn stage_hints(
    stage: &crate::defs::Stage,
    available: &HashMap<String, TensorData>,
) -> Result<SizeHints, CompileError> {
    let mut hints = Compiler::hints_from_inputs(available, &[]);
    let out = stage.program.output();
    let out_decl = stage
        .program
        .decl(out)
        .ok_or_else(|| CompileError::UndeclaredTensor(out.to_string()))?;
    if out_decl.is_scalar() {
        return Ok(hints);
    }
    // Bound each compressed output level by the sum of the inputs' sizes at
    // the same level (falling back to dense).
    let inputs: Vec<&SparseTensor<f64>> = stage
        .program
        .decls()
        .filter(|d| d.name != out && !d.format.region().is_on_chip())
        .filter_map(|d| match available.get(&d.name) {
            Some(TensorData::Sparse(t)) => Some(t),
            _ => None,
        })
        .collect();
    let mut prev_positions = 1usize;
    for (l, f) in out_decl.format.levels().iter().enumerate() {
        let dim = out_decl.dims[out_decl.format.mode_order()[l]];
        if f.is_compressed() {
            let mut bound = 0usize;
            for t in &inputs {
                if l < t.format().rank() && t.format().level(l).is_compressed() {
                    bound += t.crd(l).len();
                }
            }
            if bound == 0 {
                bound = prev_positions * dim;
            }
            bound = bound.min(prev_positions * dim).max(1);
            hints.set_level_nnz(out, l, bound);
            prev_positions = bound;
        } else {
            prev_positions *= dim;
        }
    }
    hints.set_vals_len(out, prev_positions.max(1));
    Ok(hints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs;
    use stardust_datasets::{random_matrix, random_vector};
    use stardust_tensor::Format;

    #[test]
    fn spmv_runs_end_to_end() {
        let k = defs::spmv(16);
        let a = random_matrix(16, 16, 0.25, 1);
        let x = random_vector(16, 2);
        let mut inputs = HashMap::new();
        inputs.insert("A".into(), TensorData::from_coo(&a, Format::csr()));
        inputs.insert("x".into(), TensorData::from_coo(&x, Format::dense_vec()));
        let result = k.run(&inputs).unwrap();
        assert!(result.spatial_loc() > 10);
        assert!(result.total_stats().total_dram_read_words() > 0);
    }

    #[test]
    fn image_bound_run_matches_direct_run() {
        let k = defs::spmv(16);
        let a = random_matrix(16, 16, 0.25, 1);
        let x = random_vector(16, 2);
        let mut inputs = HashMap::new();
        inputs.insert("A".into(), TensorData::from_coo(&a, Format::csr()));
        inputs.insert("x".into(), TensorData::from_coo(&x, Format::dense_vec()));
        let cache = stardust_spatial::ProgramCache::new();
        let images = ImageCache::new();
        let fresh = RunOptions::default();
        // Shared programs, direct bind — then shared images too, on
        // fresh machines, twice: the second run re-binds the cached image.
        let direct = k.run_with(&inputs, Some(&cache), None, &fresh).unwrap();
        for _ in 0..2 {
            let via_image = k
                .run_with(&inputs, Some(&cache), Some(&images), &fresh)
                .unwrap();
            assert_eq!(direct.total_stats(), via_image.total_stats());
            let d = direct.output.to_dense();
            let i = via_image.output.to_dense();
            assert!(d.approx_eq(&i).is_ok());
        }
        assert_eq!(images.len(), k.stages.len());
    }

    #[test]
    fn pooled_run_matches_direct_run() {
        let k = defs::spmv(16);
        let a = random_matrix(16, 16, 0.25, 1);
        let x = random_vector(16, 2);
        let mut inputs = HashMap::new();
        inputs.insert("A".into(), TensorData::from_coo(&a, Format::csr()));
        inputs.insert("x".into(), TensorData::from_coo(&x, Format::dense_vec()));
        let cache = stardust_spatial::ProgramCache::new();
        let images = ImageCache::new();
        let pool = MachinePool::with_shards(1);
        let direct = k.run(&inputs).unwrap();
        // Two pooled runs: the second reuses both the cached image and
        // the pooled machine.
        for _ in 0..2 {
            let pooled = k.run_pooled(&inputs, &cache, &images, &pool).unwrap();
            assert_eq!(direct.total_stats(), pooled.total_stats());
            let d = direct.output.to_dense();
            let p = pooled.output.to_dense();
            assert!(d.approx_eq(&p).is_ok());
        }
        let stats = pool.stats();
        assert_eq!(stats.created as usize, k.stages.len());
        assert_eq!(stats.reused as usize, k.stages.len());
    }

    /// Running leaves no trace on what was run: the kernel and the
    /// caller's inputs print as before (the memos a warm run fills live
    /// in the caches and beside the tensors' storage, invisible to
    /// `Debug`), the caller's map gains no intermediate, and a two-stage
    /// kernel — whose second stage sees the borrowed inputs plus the
    /// first stage's output — matches the uncached run bit for bit,
    /// cold and warm.
    #[test]
    fn running_changes_neither_the_kernel_nor_the_callers_inputs() {
        let k = defs::plus3(12);
        let mut inputs = HashMap::new();
        for (name, seed) in [("B", 21), ("C", 22), ("D", 23)] {
            let m = random_matrix(12, 12, 0.3, seed);
            inputs.insert(name.to_string(), TensorData::from_coo(&m, Format::csr()));
        }
        let (kernel_before, inputs_before) = (format!("{k:?}"), format!("{inputs:?}"));

        let cache = stardust_spatial::ProgramCache::new();
        let images = ImageCache::new();
        let pool = MachinePool::with_shards(1);
        let direct = k.run(&inputs).unwrap();
        let bits = |r: &KernelResult| match &r.output {
            KernelOutput::Tensor(t) => (
                t.pos(1).to_vec(),
                t.crd(1).to_vec(),
                t.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ),
            KernelOutput::Scalar(_) => panic!("Plus3 produces a matrix"),
        };
        for _ in 0..3 {
            let pooled = k.run_pooled(&inputs, &cache, &images, &pool).unwrap();
            assert_eq!(bits(&direct), bits(&pooled));
            assert_eq!(direct.total_stats(), pooled.total_stats());
        }
        assert_eq!(format!("{k:?}"), kernel_before);
        assert_eq!(format!("{inputs:?}"), inputs_before);
        assert_eq!(
            inputs.len(),
            3,
            "the intermediate T leaked into the caller's map"
        );
        // Two stages compiled once each, then served from the memo.
        assert_eq!(cache.stats(), (4, 2));
        assert_eq!(images.builds(), 2);
    }

    /// The serving-layer recovery policy end to end: a one-shot
    /// injected error or contained panic quarantines the faulted
    /// machine and is retried once on a fresh one — producing output
    /// identical to a never-faulted run — while a deterministic budget
    /// abort is surfaced immediately with no retry.
    #[test]
    fn pooled_run_retries_transient_faults_and_matches_clean_run() {
        use stardust_spatial::{faults, FaultPlan, RunBudget, RunError};

        let k = defs::spmv(16);
        let a = random_matrix(16, 16, 0.25, 1);
        let x = random_vector(16, 2);
        let mut inputs = HashMap::new();
        inputs.insert("A".into(), TensorData::from_coo(&a, Format::csr()));
        inputs.insert("x".into(), TensorData::from_coo(&x, Format::dense_vec()));
        let cache = stardust_spatial::ProgramCache::new();
        let images = ImageCache::new();
        let pool = MachinePool::with_shards(1);

        let clean = k.run_pooled(&inputs, &cache, &images, &pool).unwrap();
        let before = pool.stats();

        // A one-shot injected error: first attempt faults (machine
        // quarantined), the retry on a fresh machine succeeds, and the
        // recovered output is identical to the clean run.
        let plan = FaultPlan {
            error_at_step: Some(2),
            ..FaultPlan::default()
        };
        let recovered = faults::with_plan(plan, || {
            k.run_pooled(&inputs, &cache, &images, &pool)
                .expect("retry must recover the injected error")
        });
        assert_eq!(clean.total_stats(), recovered.total_stats());
        assert!(clean
            .output
            .to_dense()
            .approx_eq(&recovered.output.to_dense())
            .is_ok());
        let after = pool.stats();
        assert_eq!(after.retried, before.retried + 1, "no retry recorded");
        assert_eq!(
            after.aborted, before.aborted,
            "recovered run counted as abort"
        );
        assert_eq!(
            after.quarantined,
            before.quarantined + 1,
            "faulted machine not quarantined"
        );

        // A contained panic takes the same path.
        let plan = FaultPlan {
            panic_at_step: Some(2),
            ..FaultPlan::default()
        };
        let recovered = faults::with_plan(plan, || {
            k.run_pooled(&inputs, &cache, &images, &pool)
                .expect("retry must recover the contained panic")
        });
        assert_eq!(clean.total_stats(), recovered.total_stats());
        assert_eq!(pool.stats().retried, before.retried + 2);

        // Budget exhaustion is deterministic: surfaced as a structured
        // error, counted as an abort, never retried.
        let tiny = RunOptions {
            budget: RunBudget::default().with_max_steps(1),
            ..RunOptions::pooled(&pool)
        };
        let err = k
            .run_with(&inputs, Some(&cache), Some(&images), &tiny)
            .expect_err("a 1-step budget cannot cover SpMV");
        assert!(
            matches!(
                err,
                CompileError::Execution(RunError::BudgetExceeded { .. })
            ),
            "wrong abort error: {err:?}"
        );
        let final_stats = pool.stats();
        assert_eq!(
            final_stats.retried,
            before.retried + 2,
            "deterministic budget abort must not be retried"
        );
        assert_eq!(final_stats.aborted, before.aborted + 1);
    }
}
