//! Compiling and executing kernels end-to-end (multi-stage aware).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use stardust_core::lower::SizeHints;
use stardust_core::pipeline::{
    CompiledKernel, Compiler, ImageCache, KernelOutput, KernelRun, TensorData,
};
use stardust_core::CompileError;
use stardust_spatial::{DramImage, ExecStats, MachinePool, ProgramCache, RunBudget};
use stardust_tensor::SparseTensor;

use crate::defs::Kernel;

/// Process-wide counters for the pooled-execution recovery policy:
/// `RETRIED` counts stage runs that failed transiently (contained
/// panic, injected fault) and were retried once on a fresh machine;
/// `ABORTED` counts stage runs that failed for good — a deterministic
/// error, or a retry that failed again. Monotonic, like the pool's
/// created/reused/quarantined counters; the sweep binary reports them
/// in its summary.
static RETRIED: AtomicU64 = AtomicU64::new(0);
static ABORTED: AtomicU64 = AtomicU64::new(0);

/// The capped backoff slept before the single retry — long enough to
/// let a transiently-wedged resource settle, short enough to be
/// invisible against a kernel run.
const RETRY_BACKOFF: Duration = Duration::from_millis(5);

/// Cumulative recovery counters (see [`recovery_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Transient stage failures retried once on a fresh machine.
    pub retried: u64,
    /// Stage runs that aborted for good (deterministic error, or the
    /// retry failed too).
    pub aborted: u64,
}

/// The process-wide [`RecoveryStats`] for every pooled kernel run so
/// far.
pub fn recovery_stats() -> RecoveryStats {
    RecoveryStats {
        retried: RETRIED.load(Ordering::Relaxed),
        aborted: ABORTED.load(Ordering::Relaxed),
    }
}

/// How pooled stages execute: the pool and budget, plus the opt-in
/// intra-kernel parallelism knobs (`shards > 1` splits each shardable
/// stage's outer loop across pooled machines; `capacity` bounds total
/// checkouts as in `MachinePool::try_checkout_n`).
#[derive(Clone, Copy)]
struct PoolExec<'a> {
    pool: &'a MachinePool,
    budget: &'a RunBudget,
    shards: usize,
    capacity: Option<u64>,
}

/// Runs one stage on pooled machines under the recovery policy:
/// transient failures ([`CompileError::is_transient`] — a contained
/// panic or a one-shot injected fault) are retried exactly once, after
/// [`RETRY_BACKOFF`], on a *fresh* machine — the faulted one was
/// poisoned and quarantined at check-in, so the retry checkout can
/// only receive a clean or newly constructed machine. Deterministic
/// failures (budget exhaustion, bind errors) abort immediately: the
/// same run would fail the same way.
///
/// With `shards > 1`, a stage whose outer loop proves shardable runs
/// through the sharded executor (bitwise-identical results, its own
/// internal per-shard retry); everything else — `NotShardable`
/// stages, single-trip loops — falls back to the serial pooled path
/// below.
fn run_stage_pooled(
    compiled: &CompiledKernel,
    image: &DramImage,
    exec: PoolExec<'_>,
) -> Result<KernelRun, CompileError> {
    let PoolExec {
        pool,
        budget,
        shards,
        capacity,
    } = exec;
    if shards > 1 {
        if let Ok(sh) = compiled.shard(shards) {
            if sh.shard_count() > 1 {
                return compiled
                    .execute_image_sharded_budgeted(&sh, image, pool, budget, capacity)
                    .map(|(run, _workers)| run)
                    .inspect_err(|_| {
                        ABORTED.fetch_add(1, Ordering::Relaxed);
                    });
            }
        }
    }
    match compiled.execute_image_pooled_budgeted(image, pool, budget) {
        Ok(run) => Ok(run),
        Err(e) if e.is_transient() => {
            RETRIED.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(RETRY_BACKOFF);
            compiled
                .execute_image_pooled_budgeted(image, pool, budget)
                .inspect_err(|_| {
                    ABORTED.fetch_add(1, Ordering::Relaxed);
                })
        }
        Err(e) => {
            ABORTED.fetch_add(1, Ordering::Relaxed);
            Err(e)
        }
    }
}

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

/// Accumulates `from` into `into`, field by field — the stage-stats
/// merge behind [`KernelResult::total_stats`], public so executors
/// that drive stages themselves (the serving layer) can aggregate
/// identically.
pub fn merge_stats(into: &mut ExecStats, from: &ExecStats) {
    for (k, v) in &from.dram_reads {
        *into.dram_reads.entry(k.clone()).or_default() += v;
    }
    for (k, v) in &from.dram_writes {
        *into.dram_writes.entry(k.clone()).or_default() += v;
    }
    into.dram_random_reads += from.dram_random_reads;
    into.dram_random_writes += from.dram_random_writes;
    ExecStats::merge_node(&mut into.node_trips, &from.node_trips);
    ExecStats::merge_node(&mut into.node_dram_read_words, &from.node_dram_read_words);
    ExecStats::merge_node(&mut into.node_dram_write_words, &from.node_dram_write_words);
    into.alu_ops += from.alu_ops;
    into.sram_reads += from.sram_reads;
    into.sram_writes += from.sram_writes;
    into.shuffle_accesses += from.shuffle_accesses;
    into.fifo_enqs += from.fifo_enqs;
    into.fifo_deqs += from.fifo_deqs;
    into.scan_bits += from.scan_bits;
    into.scan_emits += from.scan_emits;
    into.bv_gen_bits += from.bv_gen_bits;
    into.reduce_elems += from.reduce_elems;
}

impl Kernel {
    /// Compiles every stage with size hints derived from `inputs`, using
    /// conservative union/intersection bounds for stage outputs.
    ///
    /// # Errors
    ///
    /// Returns the first [`CompileError`].
    pub fn compile(
        &self,
        inputs: &HashMap<String, TensorData>,
    ) -> Result<Vec<CompiledKernel>, CompileError> {
        self.compile_with(inputs, None)
    }

    /// Like [`Kernel::compile`], but shares linked Spatial artifacts
    /// through `cache` — sweeping one kernel across datasets or memory
    /// models re-binds machines without re-linking identical programs.
    ///
    /// # Errors
    ///
    /// Returns the first [`CompileError`].
    pub fn compile_cached(
        &self,
        inputs: &HashMap<String, TensorData>,
        cache: &ProgramCache,
    ) -> Result<Vec<CompiledKernel>, CompileError> {
        self.compile_with(inputs, Some(cache))
    }

    fn compile_with(
        &self,
        inputs: &HashMap<String, TensorData>,
        cache: Option<&ProgramCache>,
    ) -> Result<Vec<CompiledKernel>, CompileError> {
        let mut compiled = Vec::with_capacity(self.stages.len());
        let mut known = inputs.clone();
        for stage in &self.stages {
            let hints = stage_hints(stage, &known)?;
            let kernel = match cache {
                Some(cache) => Compiler::compile_cached(&stage.program, &stage.stmt, hints, cache)?,
                None => Compiler::compile(&stage.program, &stage.stmt, hints)?,
            };
            compiled.push(kernel);
            // Later stages size against a bound for this stage's output;
            // record a placeholder so hint derivation can see it.
            known.insert(stage.program.output().to_string(), TensorData::Scalar(0.0));
        }
        Ok(compiled)
    }

    /// Compiles and executes all stages, threading stage outputs into the
    /// inputs of later stages.
    ///
    /// # Errors
    ///
    /// Returns the first compile or simulation error.
    pub fn run(&self, inputs: &HashMap<String, TensorData>) -> Result<KernelResult, CompileError> {
        self.run_with(inputs, None)
    }

    /// Like [`Kernel::run`], but shares linked Spatial artifacts through
    /// `cache` (see [`Kernel::compile_cached`]).
    ///
    /// # Errors
    ///
    /// Returns the first compile or simulation error.
    pub fn run_cached(
        &self,
        inputs: &HashMap<String, TensorData>,
        cache: &ProgramCache,
    ) -> Result<KernelResult, CompileError> {
        self.run_with(inputs, Some(cache))
    }

    /// Like [`Kernel::run_cached`], but binds every stage through
    /// `images`: each stage's dataset is baked into an `Arc`-shared
    /// [`stardust_spatial::DramImage`] on first sight (keyed by the
    /// stage's compiled program and the content hash of its inputs),
    /// and later runs re-bind in O(outputs) with no per-element input
    /// conversion or copy. Results are byte-identical to
    /// [`Kernel::run_cached`].
    ///
    /// # Errors
    ///
    /// Returns the first compile or simulation error.
    pub fn run_images(
        &self,
        inputs: &HashMap<String, TensorData>,
        cache: &ProgramCache,
        images: &ImageCache,
    ) -> Result<KernelResult, CompileError> {
        self.run_with_impl(inputs, Some(cache), Some((images, None)))
    }

    /// [`Kernel::run_images`] on pooled machines: every stage checks a
    /// recycled [`stardust_spatial::Machine`] out of `pool` (reset +
    /// image re-bind, no arena allocation) instead of constructing a
    /// fresh one. The full serving path for sweeps: compile once per
    /// program ([`ProgramCache`]), convert once per dataset
    /// ([`ImageCache`]), allocate once per (thread, program)
    /// ([`stardust_spatial::MachinePool`]). Results are byte-identical
    /// to [`Kernel::run_cached`].
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
        self.run_pooled_budgeted(inputs, cache, images, pool, &RunBudget::unlimited())
    }

    /// [`Kernel::run_pooled`] with every stage run under `budget`: the
    /// serving-layer entry point. Runaway stages abort with
    /// [`CompileError::Execution`]`(`[`stardust_spatial::RunError::BudgetExceeded`]`)`
    /// instead of hanging, contained panics surface as
    /// [`CompileError::ExecutionPanic`], and transient failures are
    /// retried once on a fresh machine (see [`recovery_stats`]).
    ///
    /// # Errors
    ///
    /// Returns the first compile or simulation error, after the retry
    /// policy has been exhausted.
    pub fn run_pooled_budgeted(
        &self,
        inputs: &HashMap<String, TensorData>,
        cache: &ProgramCache,
        images: &ImageCache,
        pool: &MachinePool,
        budget: &RunBudget,
    ) -> Result<KernelResult, CompileError> {
        self.run_with_impl(
            inputs,
            Some(cache),
            Some((
                images,
                Some(PoolExec {
                    pool,
                    budget,
                    shards: 1,
                    capacity: None,
                }),
            )),
        )
    }

    /// [`Kernel::run_pooled_budgeted`] with intra-kernel parallelism:
    /// every stage whose outer loop proves shardable is split into
    /// `shards` contiguous slices run concurrently on pooled machines
    /// sharing one image (results bitwise identical to serial — the
    /// shard property suite and the sweep binary's hard gate hold it
    /// there); stages that are [`stardust_spatial::NotShardable`] run
    /// on the serial pooled path. `capacity` bounds total machine
    /// checkouts — when the pool is busier than that, a stage degrades
    /// to fewer workers (round-robin) instead of blocking. `shards <=
    /// 1` is exactly [`Kernel::run_pooled_budgeted`].
    ///
    /// # Errors
    ///
    /// Returns the first compile or simulation error, after the retry
    /// policy has been exhausted.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sharded(
        &self,
        inputs: &HashMap<String, TensorData>,
        cache: &ProgramCache,
        images: &ImageCache,
        pool: &MachinePool,
        budget: &RunBudget,
        shards: usize,
        capacity: Option<u64>,
    ) -> Result<KernelResult, CompileError> {
        self.run_with_impl(
            inputs,
            Some(cache),
            Some((
                images,
                Some(PoolExec {
                    pool,
                    budget,
                    shards,
                    capacity,
                }),
            )),
        )
    }

    fn run_with(
        &self,
        inputs: &HashMap<String, TensorData>,
        cache: Option<&ProgramCache>,
    ) -> Result<KernelResult, CompileError> {
        self.run_with_impl(inputs, cache, None)
    }

    fn run_with_impl(
        &self,
        inputs: &HashMap<String, TensorData>,
        cache: Option<&ProgramCache>,
        images: Option<(&ImageCache, Option<PoolExec<'_>>)>,
    ) -> Result<KernelResult, CompileError> {
        // The caller's map is borrowed; it is copied (tensor clones are
        // pointer bumps) only once a stage's output has to join it.
        let mut available = Cow::Borrowed(inputs);
        let mut stages = Vec::with_capacity(self.stages.len());
        let mut last_output = None;
        for (i, stage) in self.stages.iter().enumerate() {
            let hints = stage_hints(stage, &available)?;
            let compiled = match cache {
                Some(cache) => Compiler::compile_cached(&stage.program, &stage.stmt, hints, cache)?,
                None => Compiler::compile(&stage.program, &stage.stmt, hints)?,
            };
            let run = match images {
                Some((images, pool)) => {
                    // Stage identity is carried by the compiled program
                    // (distinct per stage) plus the content hash of the
                    // stage's inputs; intermediates are deterministic
                    // per dataset, keeping their cached images valid.
                    let image = images.get_or_build(&compiled, &available)?;
                    match pool {
                        Some(exec) => run_stage_pooled(&compiled, &image, exec)?,
                        None => compiled.execute_image(&image)?,
                    }
                }
                None => compiled.execute(&available)?,
            };
            if let (KernelOutput::Tensor(t), true) = (&run.output, i + 1 < self.stages.len()) {
                available.to_mut().insert(
                    stage.program.output().to_string(),
                    TensorData::Sparse(t.clone()),
                );
            }
            last_output = Some(run.output);
            stages.push(StageRun {
                compiled,
                stats: run.stats,
            });
        }
        let output = last_output
            .ok_or_else(|| CompileError::Schedule("kernel has no stages to run".into()))?;
        Ok(KernelResult { output, stages })
    }
}

/// Size hints for a stage: exact level sizes for available inputs, plus a
/// sum-of-inputs bound for the stage's own output (unions can at most
/// concatenate operand coordinates; intersections and mirrors are smaller).
///
/// Public because any executor that compiles stages itself must derive
/// hints from the *actual* tensors available at that stage — including
/// real intermediate outputs — to compile the same programs
/// [`Kernel::run`] would; hints from placeholders produce different
/// DRAM sizing and therefore different (non-comparable) stats.
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
        let direct = k.run_cached(&inputs, &cache).unwrap();
        // Two image runs: the second re-binds the cached image.
        for _ in 0..2 {
            let via_image = k.run_images(&inputs, &cache, &images).unwrap();
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
        let direct = k.run_cached(&inputs, &cache).unwrap();
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
        use stardust_spatial::{faults, FaultPlan, RunError};

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
        let before = recovery_stats();
        let quarantined_before = pool.stats().quarantined;

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
        let after = recovery_stats();
        assert_eq!(after.retried, before.retried + 1, "no retry recorded");
        assert_eq!(
            after.aborted, before.aborted,
            "recovered run counted as abort"
        );
        assert_eq!(
            pool.stats().quarantined,
            quarantined_before + 1,
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
        assert_eq!(recovery_stats().retried, before.retried + 2);

        // Budget exhaustion is deterministic: surfaced as a structured
        // error, counted as an abort, never retried.
        let tiny = RunBudget::default().with_max_steps(1);
        let err = k
            .run_pooled_budgeted(&inputs, &cache, &images, &pool, &tiny)
            .expect_err("a 1-step budget cannot cover SpMV");
        assert!(
            matches!(
                err,
                CompileError::Execution(RunError::BudgetExceeded { .. })
            ),
            "wrong abort error: {err:?}"
        );
        let final_stats = recovery_stats();
        assert_eq!(
            final_stats.retried,
            before.retried + 2,
            "deterministic budget abort must not be retried"
        );
        assert_eq!(final_stats.aborted, before.aborted + 1);
    }
}
