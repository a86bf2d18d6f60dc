//! The end-to-end compiler pipeline and execution harness.
//!
//! [`Compiler::compile`] takes a program and its scheduled CIN and produces
//! a [`CompiledKernel`]: the Spatial IR, the printed Spatial source (whose
//! line count is Table 3's "Spatial LoC"), and the memory plan.
//! [`CompiledKernel::execute`] binds real tensors into the Spatial
//! interpreter's DRAM, runs the program, and reads the result back — the
//! path every correctness test and every simulated benchmark goes through.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use stardust_ir::cin::Stmt;
use stardust_spatial::interp::mix64;
use stardust_spatial::printer::spatial_loc;
use stardust_spatial::{
    print_program, run_contained, validate, CompiledProgram, CompiledShards, DramImage, ExecStats,
    Machine, MachinePool, NotShardable, PooledMachine, ProgramCache, RunBudget, RunError,
    ShardPlan, Slot, SpatialProgram,
};
use stardust_tensor::{CooTensor, DenseTensor, Format, LevelFormat, LevelStorage, SparseTensor};

use crate::context::Program;
use crate::error::CompileError;
use crate::lower::{Lowerer, SizeHints};
use crate::memory::MemoryPlan;

/// Concrete input data for one declared tensor.
#[derive(Debug, Clone)]
pub enum TensorData {
    /// A sparse tensor already packed in the declared format.
    Sparse(SparseTensor<f64>),
    /// A scalar.
    Scalar(f64),
}

impl TensorData {
    /// Packs a COO tensor with the given format.
    pub fn from_coo(coo: &CooTensor<f64>, format: Format) -> Self {
        TensorData::Sparse(SparseTensor::from_coo(coo, format))
    }
}

/// The result read back from accelerator memory after execution.
#[derive(Debug, Clone)]
pub enum KernelOutput {
    /// Sparse (or dense-format) tensor result.
    Tensor(SparseTensor<f64>),
    /// Scalar result.
    Scalar(f64),
}

impl KernelOutput {
    /// The result as a dense tensor.
    ///
    /// # Panics
    ///
    /// Panics when the output is a scalar.
    #[allow(
        clippy::panic,
        reason = "documented accessor contract: the caller asked a scalar output for a tensor"
    )]
    pub fn to_dense(&self) -> DenseTensor<f64> {
        match self {
            KernelOutput::Tensor(t) => t.to_dense(),
            KernelOutput::Scalar(_) => panic!("scalar output has no dense form"),
        }
    }

    /// The result as a scalar.
    ///
    /// # Panics
    ///
    /// Panics when the output is a tensor.
    #[allow(
        clippy::panic,
        reason = "documented accessor contract: the caller asked a tensor output for a scalar"
    )]
    pub fn as_scalar(&self) -> f64 {
        match self {
            KernelOutput::Scalar(v) => *v,
            KernelOutput::Tensor(_) => panic!("tensor output is not a scalar"),
        }
    }
}

/// One simulated kernel execution: functional result + event statistics.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// The output tensor or scalar.
    pub output: KernelOutput,
    /// Interpreter event counts (drives the Capstan timing model).
    pub stats: ExecStats,
}

/// How [`CompiledKernel::execute_image_with`] runs a stage. The default
/// is the serial baseline: a fresh machine, no limits, no split.
#[derive(Debug, Clone, Default)]
pub struct RunOptions<'a> {
    /// The allowance every run is armed with (per shard when the stage
    /// is split): exhausting it aborts with
    /// [`CompileError::Execution`]`(`[`RunError::BudgetExceeded`]`)`.
    pub budget: RunBudget,
    /// Run on machines recycled through a pool; `None` constructs a
    /// fresh machine per run.
    pub pooled: Option<Pooled<'a>>,
}

impl<'a> RunOptions<'a> {
    /// Unlimited, unsplit runs on machines checked out of `pool`.
    pub fn pooled(pool: &'a MachinePool) -> Self {
        RunOptions {
            budget: RunBudget::unlimited(),
            pooled: Some(Pooled {
                pool,
                split: None,
                capacity: None,
            }),
        }
    }
}

/// The pooled half of [`RunOptions`]. Splitting a stage needs several
/// machines at once, so it can only be asked for here.
#[derive(Debug, Clone, Copy)]
pub struct Pooled<'a> {
    /// Where machines are checked out (and quarantined, and retries and
    /// aborts counted — see [`stardust_spatial::PoolStats`]).
    pub pool: &'a MachinePool,
    /// Intra-kernel parallelism: run a shardable stage's outer loop as
    /// contiguous slices on several pooled machines sharing one image,
    /// merged bitwise identically to the serial run.
    pub split: Option<Split<'a>>,
    /// Bound on the pool's concurrently checked-out machines while a
    /// split stage runs: a smaller grant degrades to fewer round-robin
    /// workers, never blocks.
    pub capacity: Option<u64>,
}

/// How a pooled run splits a stage.
#[derive(Debug, Clone, Copy)]
pub enum Split<'a> {
    /// Partition this many ways, analysing the stage on every run;
    /// stages that are [`NotShardable`] (and counts below two) run
    /// serially. For sweeps, where one setting covers every stage.
    Ways(usize),
    /// A partition of exactly this stage made ahead of time by
    /// [`CompiledKernel::shard`] or [`CompiledKernel::shard_auto`]: the
    /// serving layer pins one per stage so no run pays the analysis.
    Pinned(&'a CompiledShards),
}

/// A DRAM write sink: [`Machine`] (direct binding) and
/// [`stardust_spatial::DramImageBuilder`] (image construction) take the
/// same slot-addressed writes, so one [`InputPlan`] walk serves both.
trait DramSink {
    fn put(&mut self, slot: Slot, data: &[f64]) -> Result<(), RunError>;
    fn put_usize(&mut self, slot: Slot, data: &[usize]) -> Result<(), RunError>;
}

impl DramSink for Machine {
    fn put(&mut self, slot: Slot, data: &[f64]) -> Result<(), RunError> {
        self.write_dram_slot(slot, data)
    }
    fn put_usize(&mut self, slot: Slot, data: &[usize]) -> Result<(), RunError> {
        self.write_dram_slot_usize(slot, data)
    }
}

impl DramSink for stardust_spatial::DramImageBuilder {
    fn put(&mut self, slot: Slot, data: &[f64]) -> Result<(), RunError> {
        self.write(slot, data)
    }
    fn put_usize(&mut self, slot: Slot, data: &[usize]) -> Result<(), RunError> {
        self.write_usize(slot, data)
    }
}

/// One declared input tensor with every DRAM array it binds into
/// resolved to its slot. `None` slots are names the generated Spatial
/// program never declared; touching one reproduces the engine's
/// `UnknownMemory` error at bind time, as the string path did.
#[derive(Debug, Clone)]
struct PlannedInput {
    /// Declared tensor name (the key into the inputs map).
    name: String,
    /// Declared format, checked against sparse bindings.
    format: Format,
    /// `{name}_dram` — the destination when the caller binds a scalar.
    scalar_dram: Option<Slot>,
    /// Per compressed level: (level index, pos slot, crd slot).
    levels: Vec<(usize, Option<Slot>, Option<Slot>)>,
    /// `{name}_vals_dram`.
    vals: Option<Slot>,
}

/// The compile-time binding plan: every input tensor's DRAM arrays
/// resolved from names to slots once, so the per-dataset bind path
/// ([`CompiledKernel::bind`], [`CompiledKernel::build_image`]) performs
/// no string formatting or hashing beyond one map lookup per tensor.
#[derive(Debug, Clone)]
pub struct InputPlan {
    inputs: Vec<PlannedInput>,
}

impl InputPlan {
    fn build(program: &Program, spatial: &CompiledProgram) -> InputPlan {
        let syms = spatial.syms();
        let inputs = program
            .decls()
            .filter(|d| !d.format.region().is_on_chip() && d.name != program.output())
            .map(|decl| {
                let levels = decl
                    .format
                    .levels()
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.is_compressed())
                    .map(|(l, _)| {
                        (
                            l,
                            syms.dram_slot(&format!("{}{}_pos_dram", decl.name, l + 1)),
                            syms.dram_slot(&format!("{}{}_crd_dram", decl.name, l + 1)),
                        )
                    })
                    .collect();
                PlannedInput {
                    name: decl.name.clone(),
                    format: decl.format.clone(),
                    scalar_dram: syms.dram_slot(&format!("{}_dram", decl.name)),
                    levels,
                    vals: syms.dram_slot(&format!("{}_vals_dram", decl.name)),
                }
            })
            .collect();
        InputPlan { inputs }
    }

    /// Content-addressed identity of `inputs` as this plan binds them:
    /// each planned tensor's name and its
    /// [`SparseTensor::fingerprint`] (a scalar's bits), folded in plan
    /// order. The fingerprint covers the dims, `pos`/`crd` words and
    /// value bits [`InputPlan::apply`] writes, so two input sets with
    /// equal ids build identical [`DramImage`]s. This is what makes
    /// [`ImageCache`] keys misuse-proof: no caller-supplied id to
    /// collide.
    ///
    /// A tensor reads its words once, the first time anything asks for
    /// its fingerprint, and every clone remembers the answer; after
    /// that this is O(#inputs). A tensor nobody has seen before — a
    /// stage intermediate [`CompiledKernel::read_output`] rebuilds per
    /// run — is read in full, as it must be.
    fn content_id(&self, inputs: &HashMap<String, TensorData>) -> Result<u64, CompileError> {
        let mut h: u64 = 0x9e3779b97f4a7c15;
        for p in &self.inputs {
            let data = inputs
                .get(&p.name)
                .ok_or_else(|| CompileError::Memory(format!("missing input {}", p.name)))?;
            for b in p.name.bytes() {
                mix64(&mut h, u64::from(b));
            }
            match data {
                TensorData::Scalar(v) => {
                    mix64(&mut h, 1);
                    mix64(&mut h, v.to_bits());
                }
                TensorData::Sparse(t) => {
                    mix64(&mut h, 2);
                    mix64(&mut h, t.fingerprint());
                }
            }
        }
        Ok(h)
    }

    /// Writes every planned input into `sink`.
    fn apply<S: DramSink>(
        &self,
        sink: &mut S,
        inputs: &HashMap<String, TensorData>,
    ) -> Result<(), CompileError> {
        fn slot(s: Option<Slot>, name: impl FnOnce() -> String) -> Result<Slot, CompileError> {
            s.ok_or_else(|| CompileError::Memory(format!("unknown memory {}", name())))
        }
        let mem = |e: RunError| CompileError::Memory(e.to_string());
        for p in &self.inputs {
            let data = inputs
                .get(&p.name)
                .ok_or_else(|| CompileError::Memory(format!("missing input {}", p.name)))?;
            match data {
                TensorData::Scalar(v) => {
                    let s = slot(p.scalar_dram, || format!("{}_dram", p.name))?;
                    sink.put(s, &[*v]).map_err(mem)?;
                }
                TensorData::Sparse(t) => {
                    if t.format().levels() != p.format.levels()
                        || t.format().mode_order() != p.format.mode_order()
                    {
                        return Err(CompileError::Memory(format!(
                            "input {} format {} does not match declaration {}",
                            p.name,
                            t.format(),
                            p.format
                        )));
                    }
                    for &(l, pos, crd) in &p.levels {
                        let ps = slot(pos, || format!("{}{}_pos_dram", p.name, l + 1))?;
                        sink.put_usize(ps, t.pos(l)).map_err(mem)?;
                        let cs = slot(crd, || format!("{}{}_crd_dram", p.name, l + 1))?;
                        sink.put_usize(cs, t.crd(l)).map_err(mem)?;
                    }
                    let vs = slot(p.vals, || format!("{}_vals_dram", p.name))?;
                    sink.put(vs, t.vals()).map_err(mem)?;
                }
            }
        }
        Ok(())
    }
}

/// A fully compiled kernel: a handle ([`Clone`] is a pointer bump) to
/// one immutable artifact.
///
/// The Spatial program is carried in its executable bytecode form
/// behind an [`Arc`], so every [`CompiledKernel::bind`] across a
/// dataset sweep re-binds a fresh [`Machine`] to the same compiled
/// artifact without re-linking or re-lowering. The [`InputPlan`]
/// resolves every input array name to its DRAM slot at compile time,
/// and [`CompiledKernel::build_image`] bakes a dataset into an
/// `Arc`-shared [`DramImage`] so repeated binds
/// ([`CompiledKernel::bind_image`]) cost O(outputs), not O(nnz).
#[derive(Debug, Clone)]
pub struct CompiledKernel(Arc<Artifact>);

/// What [`Compiler::compile`] produced, with the arguments it was
/// produced from: `(program, cin, hints)` is the key
/// [`Compiler::compile_cached`] compares to serve it again.
#[derive(Debug)]
struct Artifact {
    program: Program,
    cin: Stmt,
    hints: SizeHints,
    spatial: Arc<CompiledProgram>,
    source: String,
    plan: MemoryPlan,
    input_plan: InputPlan,
}

impl Artifact {
    /// Whether these are exactly the arguments this was compiled from.
    fn compiled_from(&self, program: &Program, stmt: &Stmt, hints: &SizeHints) -> bool {
        self.program == *program && self.cin == *stmt && self.hints == *hints
    }
}

impl CompiledKernel {
    /// The input program.
    pub fn program(&self) -> &Program {
        &self.0.program
    }

    /// The scheduled CIN the kernel was lowered from.
    pub fn cin(&self) -> &Stmt {
        &self.0.cin
    }

    /// The lowered Spatial IR.
    pub fn spatial(&self) -> &SpatialProgram {
        self.0.spatial.source()
    }

    /// The shared executable (bytecode) form of the Spatial IR.
    pub fn compiled_spatial(&self) -> &Arc<CompiledProgram> {
        &self.0.spatial
    }

    /// Printed Spatial source (Fig. 11 style).
    pub fn source(&self) -> &str {
        &self.0.source
    }

    /// The memory analysis result.
    pub fn plan(&self) -> &MemoryPlan {
        &self.0.plan
    }

    /// Input lines of code (Table 3, "Input" column).
    pub fn input_loc(&self) -> usize {
        self.0.program.input_loc()
    }

    /// Generated Spatial lines of code (Table 3, "Spatial" column).
    pub fn spatial_loc(&self) -> usize {
        spatial_loc(self.0.spatial.source())
    }

    /// Binds input tensors into a fresh machine through the compile-time
    /// [`InputPlan`] — every array write is slot-addressed; no name is
    /// formatted or hashed per bind.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when an input is missing, has the wrong
    /// format, or does not fit its declared DRAM arrays.
    pub fn bind(&self, inputs: &HashMap<String, TensorData>) -> Result<Machine, CompileError> {
        let mut machine = Machine::from_compiled(Arc::clone(&self.0.spatial));
        self.0.input_plan.apply(&mut machine, inputs)?;
        Ok(machine)
    }

    /// Bakes a dataset into an immutable, `Arc`-shared [`DramImage`]:
    /// the one place the dataset's `pos`/`crd` arrays are converted
    /// `usize → f64` and its words copied. Build once per (kernel,
    /// dataset) pair, then bind it as many times as needed.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledKernel::bind`].
    pub fn build_image(
        &self,
        inputs: &HashMap<String, TensorData>,
    ) -> Result<DramImage, CompileError> {
        let mut builder = DramImage::builder(Arc::clone(&self.0.spatial));
        self.0.input_plan.apply(&mut builder, inputs)?;
        Ok(builder.finish())
    }

    /// Binds a prebuilt [`DramImage`] into a fresh machine: an `Arc`
    /// clone of the input segment plus a zero-fill of the output
    /// segment — O(outputs), independent of the dataset's nnz.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Memory`] when the image belongs to a
    /// different compiled program.
    pub fn bind_image(&self, image: &DramImage) -> Result<Machine, CompileError> {
        let mut machine = Machine::from_compiled(Arc::clone(&self.0.spatial));
        machine
            .bind_image(image)
            .map_err(|e| CompileError::Memory(e.to_string()))?;
        Ok(machine)
    }

    /// [`CompiledKernel::execute`] from a prebuilt [`DramImage`]:
    /// identical results, O(outputs) binding. This is
    /// [`CompiledKernel::execute_image_with`] at its default options.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledKernel::execute`], plus the image-mismatch
    /// error of [`CompiledKernel::bind_image`].
    pub fn execute_image(&self, image: &DramImage) -> Result<KernelRun, CompileError> {
        self.execute_image_with(image, &RunOptions::default())
    }

    /// Runs this stage once on `image`, the way `opts` says: takes a
    /// machine (fresh, or checked out of the pool and bound in
    /// O(outputs)), arms the budget, runs with panics contained
    /// ([`run_contained`] — a panic surfaces as
    /// [`CompileError::ExecutionPanic`]), and reads the output back. A
    /// split stage runs through [`CompiledShards::run_pooled`] instead,
    /// with the same results.
    ///
    /// This is also where the one recovery policy lives: a transient
    /// failure ([`CompileError::is_transient`] — a contained panic or a
    /// one-shot injected fault) is retried exactly once, immediately, on
    /// another machine. The faulted machine was poisoned, so its pool
    /// quarantined it at check-in and the retry can only receive a clean
    /// or newly constructed one. Deterministic failures (budget
    /// exhaustion, bind errors) are returned at once: the same run would
    /// fail the same way. With a pool, retries and final failures are
    /// counted on it.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledKernel::execute_image`], plus budget aborts and
    /// contained panics, after the retry. For a split stage the error is
    /// the lowest-indexed failing shard's, which is what the serial run
    /// would have raised first.
    pub fn execute_image_with(
        &self,
        image: &DramImage,
        opts: &RunOptions<'_>,
    ) -> Result<KernelRun, CompileError> {
        let analysed;
        let partition = match opts.pooled.and_then(|p| p.split) {
            Some(Split::Pinned(shards)) => Some(shards),
            Some(Split::Ways(n)) if n > 1 => {
                // A one-slice partition is serial with extra steps.
                analysed = self.shard(n).ok().filter(|sh| sh.shard_count() > 1);
                analysed.as_ref()
            }
            _ => None,
        };
        let attempt = || -> Result<KernelRun, CompileError> {
            match (opts.pooled, partition) {
                (None, _) => self.run_bound(&mut self.bind_image(image)?, &opts.budget),
                (Some(p), None) => {
                    // The guard drops when this arm returns; a poisoned
                    // machine (error or panic) is quarantined, not
                    // recycled.
                    let mut machine = self.bind_image_pooled(image, p.pool)?;
                    self.run_bound(&mut machine, &opts.budget)
                }
                (Some(p), Some(shards)) => {
                    let run = shards.run_pooled(image, p.pool, &opts.budget, p.capacity)?;
                    let output = self.read_output(&run.machine)?;
                    Ok(KernelRun {
                        output,
                        stats: run.stats,
                    })
                }
            }
        };
        let pool = opts.pooled.map(|p| p.pool);
        let result = match attempt() {
            Err(e) if e.is_transient() => {
                if let Some(pool) = pool {
                    pool.record_retry();
                }
                attempt()
            }
            first => first,
        };
        if let (Err(_), Some(pool)) = (&result, pool) {
            pool.record_abort();
        }
        result
    }

    /// Budget, contained run, read-back on a bound machine.
    fn run_bound(
        &self,
        machine: &mut Machine,
        budget: &RunBudget,
    ) -> Result<KernelRun, CompileError> {
        machine.set_budget(budget.clone());
        let stats = run_contained(machine)?;
        let output = self.read_output(machine)?;
        Ok(KernelRun { output, stats })
    }

    /// Content-addressed dataset identity: the hash of `inputs` exactly
    /// as this kernel's [`InputPlan`] would bind them (see
    /// [`ImageCache`], which derives its keys from this).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Memory`] when a planned input is
    /// missing.
    pub fn input_content_id(
        &self,
        inputs: &HashMap<String, TensorData>,
    ) -> Result<u64, CompileError> {
        self.0.input_plan.content_id(inputs)
    }

    /// Checks a machine out of `pool` bound to `image`: the pooled
    /// equivalent of [`CompiledKernel::bind_image`]. Checkout is
    /// `reset` + `bind_image` on a recycled machine — O(slots +
    /// outputs) with no arena allocation — and the guard returns the
    /// machine to the pool on drop.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledKernel::bind_image`].
    pub fn bind_image_pooled<'p>(
        &self,
        image: &DramImage,
        pool: &'p MachinePool,
    ) -> Result<PooledMachine<'p>, CompileError> {
        pool.checkout_bound(&self.0.spatial, image)
            .map_err(|e| CompileError::Memory(e.to_string()))
    }

    /// Partitions this kernel's outer loop into `n` contiguous-slice
    /// sub-programs for [`Split::Pinned`], or explains why the program
    /// cannot be sharded (callers fall back to serial execution). The
    /// shards share this kernel's symbol table, so any [`DramImage`]
    /// built for it binds directly.
    ///
    /// # Errors
    ///
    /// Returns the typed [`NotShardable`] reason.
    pub fn shard(&self, n: usize) -> Result<CompiledShards, NotShardable> {
        Ok(ShardPlan::analyze(&self.0.spatial)?.compile(n))
    }

    /// [`CompiledKernel::shard`] with the shard count chosen
    /// automatically ([`stardust_spatial::auto_shard_count_for`]) from
    /// the proven outer-loop trip count, `pool`'s current occupancy,
    /// and whether the candidate body is vector-eligible (chunked
    /// shards cover trips faster, so vectorized plans get fewer,
    /// larger shards). Returns `None` when the program is not
    /// shardable *or* the policy sizes the run serial (tiny trip
    /// counts, a one-machine pool) — callers fall back to the serial
    /// pooled path either way.
    pub fn shard_auto(&self, pool: &MachinePool) -> Option<CompiledShards> {
        let plan = ShardPlan::analyze(&self.0.spatial).ok()?;
        let n = stardust_spatial::auto_shard_count_for(&plan, &pool.occupancy());
        if n <= 1 {
            return None;
        }
        Some(plan.compile(n))
    }

    /// Runs the kernel on the given inputs through the Spatial interpreter
    /// and reads the result back from simulated DRAM.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] on binding failures or interpreter errors
    /// (which indicate compiler bugs — see §6.1 on incorrect analyses
    /// causing simulation errors).
    pub fn execute(&self, inputs: &HashMap<String, TensorData>) -> Result<KernelRun, CompileError> {
        let mut machine = self.bind(inputs)?;
        let stats = machine
            .run(self.0.spatial.source())
            .map_err(CompileError::Execution)?;
        let output = self.read_output(&machine)?;
        Ok(KernelRun { output, stats })
    }

    /// Reconstructs the output tensor from the machine's DRAM arrays.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Memory`] when the written arrays violate
    /// format invariants.
    pub fn read_output(&self, machine: &Machine) -> Result<KernelOutput, CompileError> {
        let out = self.0.program.output();
        let decl = self
            .0
            .program
            .decl(out)
            .ok_or_else(|| CompileError::UndeclaredTensor(out.to_string()))?;
        if decl.is_scalar() {
            let v = *machine
                .dram(&format!("{out}_dram"))
                .and_then(|arr| arr.first())
                .ok_or_else(|| CompileError::Memory("missing scalar output".into()))?;
            return Ok(KernelOutput::Scalar(v));
        }
        let mut levels = Vec::with_capacity(decl.format.rank());
        let mut parents = 1usize;
        for (l, f) in decl.format.levels().iter().enumerate() {
            let dim = decl.dims[decl.format.mode_order()[l]];
            match f {
                LevelFormat::Dense => {
                    levels.push(LevelStorage::Dense { dim });
                    parents *= dim;
                }
                LevelFormat::Compressed => {
                    let mut pos = Vec::new();
                    machine
                        .read_dram_usize_into(
                            &format!("{out}{}_pos_dram", l + 1),
                            parents + 1,
                            &mut pos,
                        )
                        .map_err(|e| CompileError::Memory(format!("pos array: {e}")))?;
                    let nnz = *pos.get(parents).ok_or_else(|| {
                        CompileError::Memory(format!(
                            "pos array for {out} level {} has {} entries, need {}",
                            l + 1,
                            pos.len(),
                            parents + 1
                        ))
                    })?;
                    let mut crd = Vec::new();
                    machine
                        .read_dram_usize_into(&format!("{out}{}_crd_dram", l + 1), nnz, &mut crd)
                        .map_err(|e| CompileError::Memory(format!("crd array: {e}")))?;
                    levels.push(LevelStorage::Compressed { pos, crd });
                    parents = nnz;
                }
            }
        }
        let vals_all = machine
            .dram(&format!("{out}_vals_dram"))
            .ok_or_else(|| CompileError::Memory("missing vals array".into()))?;
        let vals: Vec<f64> = vals_all
            .get(..parents)
            .ok_or_else(|| {
                CompileError::Memory(format!(
                    "vals array for {out} has {} words, need {parents}",
                    vals_all.len()
                ))
            })?
            .to_vec();
        let tensor = SparseTensor::from_parts(decl.dims.clone(), decl.format.clone(), levels, vals)
            .map_err(|e| CompileError::Memory(format!("malformed output: {e}")))?;
        Ok(KernelOutput::Tensor(tensor))
    }
}

/// A cache of built [`DramImage`]s keyed by (compiled program identity,
/// input content hash). Repeated executions of one kernel over one
/// dataset — measurement iterations, sweep threads, multi-memory
/// re-timings — share a single converted image and re-bind in
/// O(outputs).
///
/// Keys are **content-addressed**: the dataset component is
/// [`CompiledKernel::input_content_id`], a hash of the input words the
/// kernel's plan would bind, so two datasets share an image exactly
/// when they would build identical images. The previous caller-supplied
/// dataset id is gone — it hashed only *names*, so one (kernel,
/// dataset) name pair at two scales collided and the second caller
/// silently executed on the first caller's data.
///
/// Builds are raced-once: each key owns a build lock, so concurrent
/// first-sight callers build exactly one image (the loser of the race
/// waits and receives the winner's `Arc`) — [`ImageCache::builds`]
/// counts actual builds for exactly this assertion.
#[derive(Debug, Default)]
pub struct ImageCache {
    #[allow(clippy::type_complexity)]
    inner: Mutex<HashMap<(usize, u64), Arc<Mutex<Option<Arc<DramImage>>>>>>,
    builds: AtomicUsize,
}

impl ImageCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the shared image of (kernel, inputs), building it on
    /// first sight. The dataset identity is derived from the inputs'
    /// content ([`CompiledKernel::input_content_id`]) — there is no id
    /// for a caller to reuse across different datasets. A lookup costs
    /// one remembered fingerprint per planned tensor and two map
    /// probes; only a tensor seen for the first time is read (see
    /// [`SparseTensor::fingerprint`]), so a hot loop can simply call
    /// this per iteration.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledKernel::build_image`], plus the missing-input
    /// error of [`CompiledKernel::input_content_id`].
    ///
    /// Lock poisoning is survived: a thread that panicked mid-build
    /// leaves its entry empty (`None` — the image is only published
    /// after a successful build), so recovering the guard and
    /// rebuilding is always sound and the cache stays usable after a
    /// contained fault.
    pub fn get_or_build(
        &self,
        kernel: &CompiledKernel,
        inputs: &HashMap<String, TensorData>,
    ) -> Result<Arc<DramImage>, CompileError> {
        let dataset = kernel.0.input_plan.content_id(inputs)?;
        // The compiled artifact is kept alive by every cached image, so
        // its address is a stable identity for the cache's lifetime.
        let key = (Arc::as_ptr(&kernel.0.spatial) as usize, dataset);
        let entry = Arc::clone(
            self.inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry(key)
                .or_default(),
        );
        // The cache-wide lock is released; only this key's build lock
        // is held while converting, so distinct datasets build in
        // parallel and same-key racers wait for one build.
        let mut slot = entry.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = slot.as_ref() {
            return Ok(Arc::clone(hit));
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        let image = Arc::new(kernel.build_image(inputs)?);
        *slot = Some(Arc::clone(&image));
        Ok(image)
    }

    /// Number of cached (successfully built) images.
    pub fn len(&self) -> usize {
        let entries: Vec<_> = self
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        entries
            .iter()
            .filter(|e| e.lock().unwrap_or_else(|p| p.into_inner()).is_some())
            .count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total image builds the cache has started (including failed
    /// ones). With the per-key build lock this equals the number of
    /// distinct keys ever built — concurrent first-sight callers must
    /// not inflate it.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }
}

/// The Stardust compiler entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Compiler;

impl Compiler {
    /// Compiles a scheduled program.
    ///
    /// `hints` provides actual nonzero counts for DRAM sizing (from the
    /// datasets a kernel will run on); [`SizeHints::new`] falls back to
    /// dense worst-case sizes, fine for small tests.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when analysis or lowering fails, or when
    /// the generated program fails structural validation.
    pub fn compile(
        program: &Program,
        stmt: &Stmt,
        hints: SizeHints,
    ) -> Result<CompiledKernel, CompileError> {
        Self::compile_impl(program, stmt, hints, None)
    }

    /// Like [`Compiler::compile`], but serves repeats from `cache`.
    ///
    /// Arguments `cache` has compiled before — found by comparing
    /// `program`, `stmt` and `hints` for **equality** with the ones an
    /// earlier call was given, never by a hash of them — return a handle
    /// to that call's artifact: nothing is lowered, validated, printed
    /// or verified again (the artifact is immutable and passed all of
    /// those before it was kept). New arguments are lowered; if the
    /// Spatial program they lower to is one `cache` already holds
    /// (another kernel or other hints can produce it), its linked
    /// bytecode is shared instead of being linked again. Either way the
    /// call counts as a hit in [`ProgramCache::stats`]; only a program
    /// `cache` had to link counts as a miss.
    ///
    /// # Errors
    ///
    /// Same as [`Compiler::compile`]. Failures are not remembered.
    pub fn compile_cached(
        program: &Program,
        stmt: &Stmt,
        hints: SizeHints,
        cache: &ProgramCache,
    ) -> Result<CompiledKernel, CompileError> {
        Self::compile_impl(program, stmt, hints, Some(cache))
    }

    fn compile_impl(
        program: &Program,
        stmt: &Stmt,
        hints: SizeHints,
        cache: Option<&ProgramCache>,
    ) -> Result<CompiledKernel, CompileError> {
        // The memo lives with the `ProgramCache` whose entries it
        // fronts, filed under the program's name; the name only picks a
        // bucket, this comparison decides.
        let probe = |k: &CompiledKernel| k.0.compiled_from(program, stmt, &hints);
        if let Some(hit) = cache.and_then(|c| c.memo_get(program.name(), probe)) {
            return Ok(hit);
        }
        let lowerer = Lowerer::new(program, stmt, hints.clone())?;
        let plan = lowerer.plan().clone();
        let spatial = lowerer.lower(stmt)?;
        validate(&spatial)
            .map_err(|e| CompileError::Memory(format!("generated program invalid: {e}")))?;
        let source = print_program(&spatial);
        let spatial = match cache {
            Some(cache) => cache.get_or_compile(&spatial),
            None => Arc::new(CompiledProgram::compile(&spatial)),
        };
        // Every compile is gated by the static bytecode verifier:
        // debug builds assert it inside `CompiledProgram::compile`
        // (panicking at the lowering bug), release pipelines surface
        // the typed `CompileError::Verify` here instead.
        #[cfg(not(debug_assertions))]
        spatial.verify()?;
        let input_plan = InputPlan::build(program, &spatial);
        let kernel = CompiledKernel(Arc::new(Artifact {
            program: program.clone(),
            cin: stmt.clone(),
            hints,
            spatial,
            source,
            plan,
            input_plan,
        }));
        // Only an artifact that passed `validate` and `verify` above is
        // ever filed, so a later hit needs neither.
        Ok(match cache {
            Some(cache) => {
                let filed = kernel.clone();
                let same = |k: &CompiledKernel| k.0.compiled_from(program, stmt, &filed.0.hints);
                cache.memo_insert(program.name(), same, kernel)
            }
            None => kernel,
        })
    }

    /// Computes size hints from actual input tensors plus explicit output
    /// bounds.
    pub fn hints_from_inputs(
        inputs: &HashMap<String, TensorData>,
        output_bounds: &[(&str, usize, usize)],
    ) -> SizeHints {
        let mut hints = SizeHints::new();
        for (name, data) in inputs {
            if let TensorData::Sparse(t) = data {
                for (l, f) in t.format().levels().iter().enumerate() {
                    if f.is_compressed() {
                        hints.set_level_nnz(name, l, t.crd(l).len());
                    }
                }
                hints.set_vals_len(name, t.vals().len());
            }
        }
        for (tensor, level, nnz) in output_bounds {
            hints.set_level_nnz(tensor, *level, *nnz);
        }
        hints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ProgramBuilder;
    use crate::schedule::Scheduler;
    use stardust_ir::cin::PatternFn;
    use stardust_ir::expr::Expr;
    use stardust_ir::{eval, EvalContext};

    fn random_csr(rows: usize, cols: usize, seed: u64) -> CooTensor<f64> {
        // Small deterministic pseudo-random pattern (xorshift).
        let mut coo = CooTensor::new(vec![rows, cols]);
        let mut state = seed | 1;
        for r in 0..rows {
            for c in 0..cols {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state % 100 < 30 {
                    coo.push(&[r, c], ((state % 17) as f64) / 4.0 + 0.25);
                }
            }
        }
        coo.canonicalize();
        coo
    }

    fn spmv_kernel() -> (Program, Stmt) {
        let mut p = ProgramBuilder::new("spmv")
            .tensor("A", vec![8, 8], Format::csr())
            .tensor("x", vec![8], Format::dense_vec())
            .tensor("y", vec![8], Format::dense_vec())
            .expr("y(i) = A(i,j) * x(j)")
            .build()
            .unwrap();
        let mut s = Scheduler::new(&mut p);
        s.environment("innerPar", 4).unwrap();
        s.environment("outerPar", 2).unwrap();
        s.precompute(&Expr::access("x", vec!["j".into()]), &["j"], "x_on")
            .unwrap();
        s.precompute_reduction("ws").unwrap();
        s.accelerate_reduction("ws", PatternFn::Reduction).unwrap();
        let stmt = s.finish();
        (p, stmt)
    }

    #[test]
    fn spmv_compiles_and_matches_oracle() {
        let (p, stmt) = spmv_kernel();
        let a = random_csr(8, 8, 42);
        let x: Vec<f64> = (0..8).map(|n| n as f64 * 0.5 + 1.0).collect();

        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), TensorData::from_coo(&a, Format::csr()));
        let mut x_coo = CooTensor::new(vec![8]);
        for (n, &v) in x.iter().enumerate() {
            x_coo.push(&[n], v);
        }
        inputs.insert(
            "x".to_string(),
            TensorData::from_coo(&x_coo, Format::dense_vec()),
        );

        let hints = Compiler::hints_from_inputs(&inputs, &[]);
        let kernel = Compiler::compile(&p, &stmt, hints).unwrap();
        let run = kernel.execute(&inputs).unwrap();

        // Oracle: evaluate the scheduled CIN densely.
        let mut ctx = EvalContext::new();
        ctx.add_tensor("A", DenseTensor::from(&a));
        ctx.add_tensor("x", DenseTensor::from_data(vec![8], x.clone()));
        ctx.add_tensor("y", DenseTensor::zeros(vec![8]));
        eval(&stmt, &mut ctx).unwrap();

        let got = run.output.to_dense();
        let want = ctx.tensor("y").unwrap();
        assert!(got.approx_eq(want).is_ok(), "{got:?} vs {want:?}");
        // Sanity: data actually moved through DRAM.
        assert!(run.stats.total_dram_read_words() > 0);
        assert!(kernel.spatial_loc() > 10);
        assert!(kernel.source().contains("Reduce"));
    }

    #[test]
    fn image_execution_matches_direct_binding() {
        let (p, stmt) = spmv_kernel();
        let a = random_csr(8, 8, 42);
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), TensorData::from_coo(&a, Format::csr()));
        let mut x_coo = CooTensor::new(vec![8]);
        for n in 0..8 {
            x_coo.push(&[n], n as f64 * 0.5 + 1.0);
        }
        inputs.insert(
            "x".to_string(),
            TensorData::from_coo(&x_coo, Format::dense_vec()),
        );
        let kernel =
            Compiler::compile(&p, &stmt, Compiler::hints_from_inputs(&inputs, &[])).unwrap();

        let direct = kernel.execute(&inputs).unwrap();
        let cache = ImageCache::new();
        let image = cache.get_or_build(&kernel, &inputs).unwrap();
        assert_eq!(cache.len(), 1);
        // Repeated lookups share the same image and build nothing new.
        let again = cache.get_or_build(&kernel, &inputs).unwrap();
        assert!(Arc::ptr_eq(&image, &again));
        assert_eq!(cache.builds(), 1);

        // Image-bound machines start from DRAM byte-identical to the
        // plan-bound machine.
        let bound = kernel.bind(&inputs).unwrap();
        let image_bound = kernel.bind_image(&image).unwrap();
        for d in &kernel.spatial().drams {
            let a: Vec<u64> = bound
                .dram(&d.name)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let b: Vec<u64> = image_bound
                .dram(&d.name)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(a, b, "DRAM {} diverges at bind time", d.name);
        }

        // Re-binding the image twice and executing matches the direct
        // path exactly: same stats, same output.
        for _ in 0..2 {
            let run = kernel.execute_image(&image).unwrap();
            assert_eq!(run.stats, direct.stats, "stats diverge");
            let got = run.output.to_dense();
            let want = direct.output.to_dense();
            assert!(got.approx_eq(&want).is_ok());
        }
    }

    fn spmv_inputs(seed: u64, scale: f64) -> HashMap<String, TensorData> {
        let a = random_csr(8, 8, seed);
        let mut scaled = CooTensor::new(vec![8, 8]);
        for (coords, v) in a.entries() {
            scaled.push(coords, v * scale);
        }
        let mut inputs = HashMap::new();
        inputs.insert(
            "A".to_string(),
            TensorData::from_coo(&scaled, Format::csr()),
        );
        let mut x_coo = CooTensor::new(vec![8]);
        for n in 0..8 {
            x_coo.push(&[n], n as f64 * 0.5 + 1.0);
        }
        inputs.insert(
            "x".to_string(),
            TensorData::from_coo(&x_coo, Format::dense_vec()),
        );
        inputs
    }

    /// Two datasets with the same sparsity pattern (hence the same
    /// compiled program) but different values must get distinct cache
    /// entries and distinct, correct results. Under the old
    /// caller-supplied dataset-id contract this was exactly the
    /// collision case: same names, same id, second caller served the
    /// first caller's image.
    #[test]
    fn content_addressed_cache_distinguishes_same_shaped_datasets() {
        let (p, stmt) = spmv_kernel();
        let in1 = spmv_inputs(42, 1.0);
        let in2 = spmv_inputs(42, 2.0);
        let kernel = Compiler::compile(&p, &stmt, Compiler::hints_from_inputs(&in1, &[])).unwrap();

        assert_ne!(
            kernel.input_content_id(&in1).unwrap(),
            kernel.input_content_id(&in2).unwrap(),
            "content ids collide across value-scaled datasets"
        );

        let cache = ImageCache::new();
        let img1 = cache.get_or_build(&kernel, &in1).unwrap();
        let img2 = cache.get_or_build(&kernel, &in2).unwrap();
        assert_eq!(cache.len(), 2, "second dataset was served a stale image");
        assert!(!Arc::ptr_eq(&img1, &img2));
        assert_ne!(img1.input_words(), img2.input_words());

        let r1 = kernel.execute_image(&img1).unwrap().output.to_dense();
        let r2 = kernel.execute_image(&img2).unwrap().output.to_dense();
        assert!(r1
            .approx_eq(&kernel.execute(&in1).unwrap().output.to_dense())
            .is_ok());
        assert!(r2
            .approx_eq(&kernel.execute(&in2).unwrap().output.to_dense())
            .is_ok());
        assert!(
            r1.approx_eq(&r2).is_err(),
            "scaled dataset produced identical results: cache collision"
        );
    }

    /// Concurrent first-sight callers must build the image exactly
    /// once: the per-key build lock makes the losers wait for the
    /// winner's `Arc` instead of redundantly converting the dataset.
    #[test]
    fn concurrent_first_sight_builds_once() {
        let (p, stmt) = spmv_kernel();
        let inputs = spmv_inputs(42, 1.0);
        let kernel =
            Compiler::compile(&p, &stmt, Compiler::hints_from_inputs(&inputs, &[])).unwrap();
        let cache = ImageCache::new();
        let images: Vec<Arc<DramImage>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| cache.get_or_build(&kernel, &inputs).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.builds(), 1, "racing callers built more than once");
        assert_eq!(cache.len(), 1);
        for img in &images[1..] {
            assert!(Arc::ptr_eq(&images[0], img));
        }
    }

    /// `compile_cached` serves equal arguments from the memo — the same
    /// artifact, nothing lowered or linked, a hit in the cache's
    /// counters — and compares the whole key: other hints or another
    /// schedule are other compiles.
    #[test]
    fn compile_cached_memoizes_on_exact_arguments() {
        let (p, stmt) = spmv_kernel();
        let hints = Compiler::hints_from_inputs(&spmv_inputs(42, 1.0), &[]);
        let cache = ProgramCache::new();

        let first = Compiler::compile_cached(&p, &stmt, hints.clone(), &cache).unwrap();
        assert_eq!(cache.stats(), (0, 1));
        let again = Compiler::compile_cached(&p, &stmt, hints.clone(), &cache).unwrap();
        assert!(Arc::ptr_eq(
            first.compiled_spatial(),
            again.compiled_spatial()
        ));
        assert!(
            std::ptr::eq(first.source(), again.source()),
            "a memo hit is the first call's artifact, not a rebuilt one"
        );
        assert_eq!(
            cache.stats(),
            (1, 1),
            "a memo hit is a hit, and no new miss"
        );

        // Same program and schedule, other hints: DRAM arrays are sized
        // differently, so this is another program.
        let mut bigger = hints.clone();
        bigger.set_vals_len("A", 64);
        let resized = Compiler::compile_cached(&p, &stmt, bigger, &cache).unwrap();
        assert!(!Arc::ptr_eq(
            first.compiled_spatial(),
            resized.compiled_spatial()
        ));
        assert_eq!(cache.stats(), (1, 2));

        // Same program and hints, another schedule.
        let mut p2 = p.clone();
        let mut s = Scheduler::new(&mut p2);
        s.environment("innerPar", 8).unwrap();
        s.environment("outerPar", 2).unwrap();
        s.precompute(&Expr::access("x", vec!["j".into()]), &["j"], "x_on")
            .unwrap();
        s.precompute_reduction("ws").unwrap();
        s.accelerate_reduction("ws", PatternFn::Reduction).unwrap();
        let stmt2 = s.finish();
        let rescheduled = Compiler::compile_cached(&p2, &stmt2, hints.clone(), &cache).unwrap();
        assert!(!Arc::ptr_eq(
            first.compiled_spatial(),
            rescheduled.compiled_spatial()
        ));
        assert_eq!(cache.stats(), (1, 3));
        assert_eq!(cache.len(), 3);

        // The uncached entry point consults nothing.
        let uncached = Compiler::compile(&p, &stmt, hints).unwrap();
        assert!(!Arc::ptr_eq(
            first.compiled_spatial(),
            uncached.compiled_spatial()
        ));
        assert_eq!(cache.stats(), (1, 3));
    }

    /// Eight threads meeting one never-seen key at once: each may lower
    /// it, one program is linked, one artifact is kept and all eight
    /// receive it.
    #[test]
    fn racing_first_sight_compiles_keep_one_artifact() {
        let (p, stmt) = spmv_kernel();
        let hints = Compiler::hints_from_inputs(&spmv_inputs(42, 1.0), &[]);
        let cache = ProgramCache::new();
        let gate = std::sync::Barrier::new(8);
        let kernels: Vec<CompiledKernel> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        Compiler::compile_cached(&p, &stmt, hints.clone(), &cache).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for k in &kernels[1..] {
            assert!(std::ptr::eq(kernels[0].source(), k.source()));
        }
        assert_eq!(cache.len(), 1);
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (7, 1));
        // Afterwards the key is served from the memo.
        let later = Compiler::compile_cached(&p, &stmt, hints, &cache).unwrap();
        assert!(std::ptr::eq(kernels[0].source(), later.source()));
        assert_eq!(cache.stats(), (8, 1));
    }

    /// Image identity is per tensor content, not per tensor object: a
    /// clone and an equal tensor built separately find the first one's
    /// image, and an intermediate rebuilt per run is read each time.
    #[test]
    fn content_id_follows_content_across_clones_and_rebuilds() {
        let (p, stmt) = spmv_kernel();
        let inputs = spmv_inputs(42, 1.0);
        let kernel =
            Compiler::compile(&p, &stmt, Compiler::hints_from_inputs(&inputs, &[])).unwrap();
        let id = kernel.input_content_id(&inputs).unwrap();
        assert_eq!(kernel.input_content_id(&inputs.clone()).unwrap(), id);
        assert_eq!(kernel.input_content_id(&spmv_inputs(42, 1.0)).unwrap(), id);
        assert_ne!(kernel.input_content_id(&spmv_inputs(7, 1.0)).unwrap(), id);

        let cache = ImageCache::new();
        let image = cache.get_or_build(&kernel, &inputs).unwrap();
        let rebuilt = cache.get_or_build(&kernel, &spmv_inputs(42, 1.0)).unwrap();
        assert!(Arc::ptr_eq(&image, &rebuilt));
        assert_eq!(cache.builds(), 1);
    }

    fn output_bits(run: &KernelRun) -> Vec<u64> {
        run.output
            .to_dense()
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    /// Pooled execution is byte-identical to fresh-machine image
    /// execution, and the pool actually reuses machines.
    #[test]
    fn pooled_execution_matches_fresh_execution() {
        let (p, stmt) = spmv_kernel();
        let in1 = spmv_inputs(42, 1.0);
        let in2 = spmv_inputs(42, 2.0);
        let kernel = Compiler::compile(&p, &stmt, Compiler::hints_from_inputs(&in1, &[])).unwrap();
        let cache = ImageCache::new();
        let pool = MachinePool::with_shards(1);
        for inputs in [&in1, &in2, &in1] {
            let image = cache.get_or_build(&kernel, inputs).unwrap();
            let fresh = kernel.execute_image(&image).unwrap();
            let pooled = kernel
                .execute_image_with(&image, &RunOptions::pooled(&pool))
                .unwrap();
            assert_eq!(fresh.stats, pooled.stats, "stats diverge on pooled machine");
            assert_eq!(output_bits(&fresh), output_bits(&pooled));
        }
        let stats = pool.stats();
        assert_eq!(stats.created, 1, "pool failed to reuse its machine");
        assert_eq!(stats.reused, 2);
        assert_eq!((stats.retried, stats.aborted), (0, 0));
        assert_eq!(pool.idle(), 1);
    }

    /// The recovery policy counts on the pool it ran on (process-wide
    /// counters could not say whose fault it was): a one-shot fault is
    /// retried on a fresh checkout and the result is the clean run's, bit
    /// for bit; a second fault in a row aborts.
    #[test]
    fn retries_and_aborts_are_counted_per_pool() {
        use stardust_spatial::{faults, FaultPlan};

        let (p, stmt) = spmv_kernel();
        let inputs = spmv_inputs(42, 1.0);
        let kernel =
            Compiler::compile(&p, &stmt, Compiler::hints_from_inputs(&inputs, &[])).unwrap();
        let image = kernel.build_image(&inputs).unwrap();
        let (a, b) = (MachinePool::with_shards(1), MachinePool::with_shards(1));
        let clean = kernel
            .execute_image_with(&image, &RunOptions::pooled(&b))
            .unwrap();
        let b_before = b.stats();
        let on_a = RunOptions::pooled(&a);
        let faulted = |plan| faults::with_plan(plan, || kernel.execute_image_with(&image, &on_a));

        let once = FaultPlan {
            error_at_step: Some(2),
            ..FaultPlan::default()
        };
        let recovered = faulted(once.clone()).expect("the retry runs clean");
        assert_eq!(recovered.stats, clean.stats);
        assert_eq!(output_bits(&recovered), output_bits(&clean));
        let s = a.stats();
        assert_eq!((s.retried, s.aborted, s.quarantined), (1, 0, 1));

        // Two one-shot faults: the retry meets the second one.
        let twice = FaultPlan {
            panic_at_step: Some(3),
            ..once
        };
        let err = faulted(twice).expect_err("both attempts fault");
        assert!(err.is_transient(), "{err:?}");
        let s = a.stats();
        assert_eq!((s.retried, s.aborted, s.quarantined), (2, 1, 3));
        assert_eq!(b.stats(), b_before, "pool B counted pool A's faults");
    }

    #[test]
    fn spmv_uses_shuffle_for_gather() {
        let (p, stmt) = spmv_kernel();
        let a = random_csr(8, 8, 7);
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), TensorData::from_coo(&a, Format::csr()));
        let mut x_coo = CooTensor::new(vec![8]);
        for n in 0..8 {
            x_coo.push(&[n], 1.0);
        }
        inputs.insert(
            "x".to_string(),
            TensorData::from_coo(&x_coo, Format::dense_vec()),
        );
        let kernel =
            Compiler::compile(&p, &stmt, Compiler::hints_from_inputs(&inputs, &[])).unwrap();
        let run = kernel.execute(&inputs).unwrap();
        // x is gathered through the shuffle network (Table 5: SpMV 100%).
        assert!(run.stats.shuffle_accesses > 0);
    }
}
