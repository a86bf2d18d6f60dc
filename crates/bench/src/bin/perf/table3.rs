//! `compile-sweep` and `warm-run`: the 24 Table-3 rows (10 kernels over
//! their Table-4 datasets, 27 stages) through `Kernel::run` with nothing
//! cached, and through `Kernel::run_pooled` with everything warm.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use stardust_bench::{gmean, instantiate, Scale, KERNEL_NAMES};
use stardust_capstan::sim::combine;
use stardust_capstan::{simulate, CapstanConfig, MemoryModel, SimReport};
use stardust_core::lower::Lowerer;
use stardust_core::pipeline::{CompiledKernel, Compiler, KernelRun, TensorData};
use stardust_core::CompileError;
use stardust_kernels::{self as kernels, merge_stats, stage_hints, Kernel};
use stardust_spatial::bytecode::Op;
use stardust_spatial::interp::mix64;
use stardust_spatial::{
    print_program, validate, CompiledProgram, ExecStats, RunBudget, ShardPlan, VecClass,
};

use crate::metrics::{geomean_by_group, steady, tail_percentile, Metrics};
use crate::oracle;
use crate::trace::Tracer;
use crate::{
    end_to_end_metrics, feed_forward, reconvert_ms, set_up_repeatedly, traced_pooled_stage,
    Checked, Outcome, Plan, Reference, Warm,
};

/// Which of the two kernel workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    CompileSweep,
    WarmRun,
}

impl Mode {
    /// Small inputs, so the compile path is most of an operation.
    const TINY: Scale = Scale {
        suite: 384,
        random_matrix_dim: 32,
        random_tensor_dim: 8,
        facebook: 1600,
        rank: 4,
    };
    /// Inputs large enough that `Machine::run` is over nine tenths of it.
    const MEDIUM: Scale = Scale {
        suite: 24,
        random_matrix_dim: 300,
        random_tensor_dim: 64,
        facebook: 96,
        rank: 16,
    };

    fn scale(self) -> Scale {
        match self {
            Mode::CompileSweep => Mode::TINY,
            Mode::WarmRun => Mode::MEDIUM,
        }
    }

    /// Passes over the 24 rows per nominal second of `--seconds`, sized so
    /// a nominal second takes about a second on the 2-core reference box.
    /// Run length is a fixed operation count, never a deadline: counts and
    /// peak memory then repeat exactly from run to run.
    fn passes(self, seconds: u32) -> usize {
        let per_second = match self {
            Mode::CompileSweep => 170,
            Mode::WarmRun => 9,
        };
        per_second * seconds as usize
    }

    /// A tiny set-up takes 9 ms, a medium one a third of a second.
    fn setup_repeats(self) -> usize {
        match self {
            Mode::CompileSweep => 41,
            Mode::WarmRun => 5,
        }
    }

    /// Recorded traffic fingerprint (every bound input word, row order).
    fn fingerprint(self) -> u64 {
        match self {
            Mode::CompileSweep => 0xa717_2643_2332_fb6a,
            Mode::WarmRun => 0x7c96_251c_ead6_bcbc,
        }
    }
}

/// One Table-3 row: a kernel on one of its datasets, with the checked
/// result every measured operation must reproduce bit for bit.
struct Row {
    name: &'static str,
    dims: Vec<usize>,
    rank: usize,
    kernel: Kernel,
    inputs: HashMap<String, TensorData>,
    reference: Reference,
    /// Simulated HBM2E cycles of the checked run.
    hbm_cycles: f64,
}

/// Builds the kernel of a row from its index-notation definition (parse +
/// schedule): the part of an operation `instantiate` bundles with dataset
/// generation.
fn define(name: &str, dims: &[usize], rank: usize) -> Kernel {
    match name {
        "SpMV" => kernels::spmv(dims[0]),
        "Plus3" => kernels::plus3(dims[0]),
        "SDDMM" => kernels::sddmm(dims[0], rank),
        "MatTransMul" => kernels::mattransmul(dims[0]),
        "Residual" => kernels::residual(dims[0]),
        "TTV" => kernels::ttv(dims[0], dims[1], dims[2]),
        "TTM" => kernels::ttm(dims[0], dims[1], dims[2], rank),
        "MTTKRP" => kernels::mttkrp(dims[0], dims[1], dims[2], rank),
        "InnerProd" => kernels::innerprod(dims[0], dims[1], dims[2]),
        "Plus2" => kernels::plus2(dims[0], dims[1], dims[2]),
        other => panic!("unknown kernel {other}"),
    }
}

/// Capstan on ideal, HBM2E and DDR4 memory, stages back to back — what the
/// `table*` binaries compute per measurement.
fn simulate_memories<'a>(
    stages: impl Iterator<Item = (&'a CompiledKernel, &'a ExecStats)> + Clone,
) -> [SimReport; 3] {
    [MemoryModel::Ideal, MemoryModel::Hbm2e, MemoryModel::Ddr4].map(|memory| {
        let cfg = CapstanConfig::with_memory(memory);
        let reports: Vec<SimReport> = stages
            .clone()
            .map(|(compiled, stats)| simulate(compiled.spatial(), stats, &cfg))
            .collect();
        combine(&reports)
    })
}

/// What one operation produced, in the form it is checked in.
struct OpResult {
    run: Checked,
    /// Set by `compile-sweep`, whose operation includes the simulation.
    hbm_cycles: Option<f64>,
}

impl Row {
    fn agrees(&self, got: &OpResult) -> bool {
        self.reference.agrees(&got.run)
            && got
                .hbm_cycles
                .is_none_or(|c| c.to_bits() == self.hbm_cycles.to_bits())
    }
}

/// One set-up: datasets, conversion, references, first cold pass.
struct Setup {
    rows: Vec<Row>,
    warm: Warm,
    seconds: f64,
    /// Time inside `instantiate` (dataset generation + format conversion).
    instantiate_ms: f64,
}

fn set_up(mode: Mode) -> Setup {
    let t0 = Instant::now();
    let scale = mode.scale();
    let sets: Vec<_> = KERNEL_NAMES
        .into_iter()
        .flat_map(|name| {
            instantiate(name, &scale)
                .into_iter()
                .map(move |(k, s)| (name, k, s))
        })
        .collect();
    let instantiate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm = Warm::default();
    let rows = sets
        .into_iter()
        .map(|(name, instantiated, set)| {
            let kernel = define(name, &set.dims, scale.rank);
            assert_eq!(
                format!("{kernel:?}"),
                format!("{instantiated:?}"),
                "{name}: define() and instantiate() build different kernels"
            );
            let want = oracle::expected(name, &set.inputs);
            let cold = match mode {
                Mode::CompileSweep => kernel.run(&set.inputs),
                Mode::WarmRun => {
                    kernel.run_pooled(&set.inputs, &warm.programs, &warm.images, &warm.pool)
                }
            }
            .unwrap_or_else(|e| panic!("{name} on {}: cold pass failed: {e}", set.dataset));
            let oracle_ok = oracle::check(&want, &cold.output)
                .map_err(|e| eprintln!("{name} on {}: {e}", set.dataset))
                .is_ok();
            let stages = cold.stages.iter().map(|s| (&s.compiled, &s.stats));
            let [_, hbm, _] = simulate_memories(stages);
            Row {
                name,
                dims: set.dims,
                rank: scale.rank,
                kernel,
                reference: Reference::new(&cold.output, cold.total_stats(), oracle_ok),
                inputs: set.inputs,
                hbm_cycles: hbm.cycles,
            }
        })
        .collect();
    Setup {
        rows,
        warm,
        seconds: t0.elapsed().as_secs_f64(),
        instantiate_ms,
    }
}

/// The operation as its users call it, timed as one span.
fn untraced_op(mode: Mode, row: &Row, warm: &Warm) -> (f64, Result<OpResult, CompileError>) {
    let t = Instant::now();
    let result = match mode {
        Mode::CompileSweep => {
            let kernel = define(row.name, &row.dims, row.rank);
            kernel.run(&row.inputs).map(|r| {
                let [_, hbm, _] =
                    simulate_memories(r.stages.iter().map(|s| (&s.compiled, &s.stats)));
                (r, Some(hbm.cycles))
            })
        }
        Mode::WarmRun => row
            .kernel
            .run_pooled(&row.inputs, &warm.programs, &warm.images, &warm.pool)
            .map(|r| (r, None)),
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let result = result.map(|(r, hbm_cycles)| OpResult {
        run: Checked::new(&r.output, r.total_stats()),
        hbm_cycles,
    });
    (ms, result)
}

/// The same operation as a stage loop over the public functions
/// `Kernel::run_with_impl` calls, in its order, with a span at each layer
/// boundary.
fn traced_op(t: &mut Tracer, mode: Mode, row: &Row, warm: &Warm) -> Result<OpResult, CompileError> {
    let op = t.open("op");
    let result = traced_stages(t, mode, row, warm);
    t.close(op);
    result
}

fn traced_stages(
    t: &mut Tracer,
    mode: Mode,
    row: &Row,
    warm: &Warm,
) -> Result<OpResult, CompileError> {
    let defined;
    let kernel = match mode {
        Mode::CompileSweep => {
            defined = t.leaf("kernels.define", || define(row.name, &row.dims, row.rank));
            &defined
        }
        Mode::WarmRun => &row.kernel,
    };
    let unlimited = RunBudget::unlimited();
    let mut available = row.inputs.clone();
    let mut stages: Vec<(CompiledKernel, ExecStats)> = Vec::with_capacity(kernel.stages.len());
    let mut output = None;
    for stage in &kernel.stages {
        let hints = t.leaf("kernels.hints", || stage_hints(stage, &available))?;
        let run: KernelRun;
        let compiled = match mode {
            Mode::CompileSweep => {
                let compiled = t.leaf("core.compile", || {
                    Compiler::compile(&stage.program, &stage.stmt, hints)
                })?;
                let mut machine = t.leaf("core.bind_fresh", || compiled.bind(&available))?;
                let stats = t
                    .run_span(|| machine.run(compiled.spatial()))
                    .map_err(CompileError::Execution)?;
                let output = t.leaf("core.read_output", || compiled.read_output(&machine))?;
                run = KernelRun { output, stats };
                compiled
            }
            Mode::WarmRun => {
                let compiled = t.leaf("core.compile", || {
                    Compiler::compile_cached(&stage.program, &stage.stmt, hints, &warm.programs)
                })?;
                let image = t.leaf("core.image_lookup", || {
                    warm.images.get_or_build(&compiled, &available)
                })?;
                run = traced_pooled_stage(t, &compiled, &image, &warm.pool, &unlimited)?;
                compiled
            }
        };
        feed_forward(&mut available, stage, &run.output);
        output = Some(run.output);
        stages.push((compiled, run.stats));
    }
    let hbm_cycles = (mode == Mode::CompileSweep).then(|| {
        let [_, hbm, _] = t.leaf("capstan.simulate", || {
            simulate_memories(stages.iter().map(|(c, s)| (c, s)))
        });
        hbm.cycles
    });
    let mut total = ExecStats::default();
    for (_, stats) in &stages {
        merge_stats(&mut total, stats);
    }
    let output = output.expect("every kernel has a stage");
    Ok(OpResult {
        run: Checked::new(&output, total),
        hbm_cycles,
    })
}

/// Static facts about the 27 compiled stages, counted once.
#[derive(Default)]
struct StageCensus {
    spatial_loc: usize,
    bytecode_ops: usize,
    range_simple_loops: usize,
    vector_tagged: usize,
    elide_licensed: usize,
    shardable: usize,
}

impl StageCensus {
    fn add(&mut self, compiled: &CompiledKernel) {
        let linked = compiled.compiled_spatial();
        let ops = linked.ops();
        self.spatial_loc += compiled.spatial_loc();
        self.bytecode_ops += ops.len();
        self.range_simple_loops += ops
            .iter()
            .filter(|op| matches!(op, Op::RangeSimple { .. }))
            .count();
        self.vector_tagged +=
            usize::from((0..ops.len()).any(|pc| linked.vec_class(pc) != VecClass::None));
        self.elide_licensed += usize::from((0..ops.len()).any(|pc| linked.elide_at(pc)));
        self.shardable += usize::from(ShardPlan::analyze(linked).is_ok());
    }
}

/// Re-executes, stage by stage, the steps `Compiler::compile` and
/// `ImageCache::get_or_build` run behind one public call each, so their
/// shares can be told apart. These spans are outside every operation.
fn attribute(
    t: &mut Tracer,
    mode: Mode,
    rows: &[Row],
    passes: usize,
    first_op: u32,
) -> Result<StageCensus, CompileError> {
    let mut census = StageCensus::default();
    for pass in 0..passes {
        for (r, row) in rows.iter().enumerate() {
            t.set_op(first_op + (pass * rows.len() + r) as u32);
            let root = t.open("attribution");
            let mut available = row.inputs.clone();
            for (i, stage) in row.kernel.stages.iter().enumerate() {
                let hints = stage_hints(stage, &available)?;
                let spatial = t.leaf("core.lower", || {
                    Lowerer::new(&stage.program, &stage.stmt, hints.clone())?.lower(&stage.stmt)
                })?;
                t.leaf("spatial.validate", || black_box(validate(&spatial)).is_ok());
                t.leaf("spatial.print", || black_box(print_program(&spatial)).len());
                let linked = t.leaf("spatial.resolve_bytecode", || {
                    CompiledProgram::compile(&spatial)
                });
                t.leaf("spatial.verify", || black_box(linked.verify()).is_ok());
                let compiled = Compiler::compile(&stage.program, &stage.stmt, hints)?;
                if mode == Mode::WarmRun {
                    t.leaf("core.content_id", || {
                        black_box(compiled.input_content_id(&available)).is_ok()
                    });
                    t.leaf("core.image_build", || {
                        black_box(compiled.build_image(&available)).is_ok()
                    });
                }
                if pass == 0 {
                    census.add(&compiled);
                }
                if i + 1 < row.kernel.stages.len() {
                    let run = compiled.execute(&available)?;
                    feed_forward(&mut available, stage, &run.output);
                }
            }
            t.close(root);
        }
    }
    Ok(census)
}

/// Samples of one measured phase: per-row operation times and per-pass
/// totals, in milliseconds.
struct Phase {
    by_row: Vec<Vec<f64>>,
    pass_ms: Vec<f64>,
    failed: u64,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.by_row.len() as f64 / (steady(&self.pass_ms) / 1e3)
    }

    fn attempted(&self) -> u64 {
        (self.by_row.len() * self.pass_ms.len()) as u64
    }
}

fn measure(
    rows: &[Row],
    passes: usize,
    mut op: impl FnMut(usize, &Row) -> (f64, Result<OpResult, CompileError>),
) -> Phase {
    let mut phase = Phase {
        by_row: vec![Vec::with_capacity(passes); rows.len()],
        pass_ms: Vec::with_capacity(passes),
        failed: 0,
    };
    for pass in 0..passes {
        let mut pass_ms = 0.0;
        for (r, row) in rows.iter().enumerate() {
            let (ms, result) = op(pass * rows.len() + r, row);
            // Checked outside the timed span.
            let ok = match result {
                Ok(got) => row.agrees(&got),
                Err(e) => {
                    eprintln!("{} failed: {e}", row.name);
                    false
                }
            };
            phase.failed += u64::from(!ok);
            phase.by_row[r].push(ms);
            pass_ms += ms;
        }
        phase.pass_ms.push(pass_ms);
    }
    phase
}

pub fn run(mode: Mode, plan: &Plan) -> Outcome {
    let (setup, setup_s) = set_up_repeatedly(mode.setup_repeats(), || set_up(mode), |s| s.seconds);
    let Setup {
        rows,
        warm,
        instantiate_ms,
        ..
    } = setup;

    let mut fingerprint = 0u64;
    for row in &rows {
        row.name
            .bytes()
            .for_each(|b| mix64(&mut fingerprint, u64::from(b)));
        oracle::fingerprint_inputs(&mut fingerprint, &row.inputs);
    }

    let passes = mode.passes(plan.seconds);
    let untraced = measure(&rows, passes, |_, row| untraced_op(mode, row, &warm));
    let mut outcome = Outcome {
        attempted: untraced.attempted(),
        failed: untraced.failed,
        fingerprint,
        fingerprint_expected: Some(mode.fingerprint()),
        metrics: Metrics::default(),
        notes: vec![format!(
            "{} rows, {passes} passes, {} checked operations",
            rows.len(),
            untraced.attempted()
        )],
    };
    if !plan.trace {
        end_to_end_metrics(
            &mut outcome.metrics,
            untraced.ops_per_s(),
            &untraced.by_row,
            &setup_s,
        );
        return outcome;
    }

    // Traced phase: a quarter of the passes, through the bench-side loop.
    let mut t = Tracer::new();
    let traced_passes = passes.div_ceil(4);
    let traced = measure(&rows, traced_passes, |op_id, row| {
        t.set_op(op_id as u32);
        let start = t.now_ns();
        let result = traced_op(&mut t, mode, row, &warm);
        ((t.now_ns() - start) as f64 / 1e6, result)
    });
    outcome.attempted += traced.attempted();
    outcome.failed += traced.failed;
    let attribution_passes = traced_passes.min(20);
    let census = attribute(
        &mut t,
        mode,
        &rows,
        attribution_passes,
        (traced_passes * rows.len()) as u32,
    )
    .unwrap_or_else(|e| panic!("attribution pass failed: {e}"));

    let m = &mut outcome.metrics;
    let chunk = rows.len() as u32;
    let in_op = [
        ("kernels.define_us", "kernels.define"),
        ("kernels.hints_us", "kernels.hints"),
        ("core.compile_us", "core.compile"),
        ("core.image_lookup_us", "core.image_lookup"),
        ("core.bind_fresh_us", "core.bind_fresh"),
        ("core.checkout_bind_us", "core.checkout_bind"),
        ("spatial.run_us", "spatial.run"),
        ("core.read_output_us", "core.read_output"),
        ("capstan.simulate_us", "capstan.simulate"),
    ];
    let mut traced_spans_us = 0.0;
    for (metric, span) in in_op {
        let us = t.per_op_us(span, chunk);
        traced_spans_us += us.unwrap_or(0.0);
        m.set_opt(metric, us);
    }
    for (metric, span) in [
        ("core.lower_us", "core.lower"),
        ("spatial.validate_us", "spatial.validate"),
        ("spatial.print_us", "spatial.print"),
        ("spatial.resolve_bytecode_us", "spatial.resolve_bytecode"),
        ("spatial.verify_us", "spatial.verify"),
        ("core.content_id_us", "core.content_id"),
        ("core.image_build_us", "core.image_build"),
    ] {
        m.set_opt(metric, t.per_op_us(span, chunk));
    }
    let untraced_op_us = steady(&untraced.pass_ms) * 1e3 / rows.len() as f64;
    m.set("kernels.runner_other_us", untraced_op_us - traced_spans_us);
    let all_ops: Vec<f64> = untraced.by_row.iter().flatten().copied().collect();
    m.set_opt("kernels.op_ms_p99", tail_percentile(&all_ops, 0.99));
    for kernel in KERNEL_NAMES {
        let of_kernel = |r: &usize| rows[*r].name == kernel;
        let indices: Vec<usize> = (0..rows.len()).filter(of_kernel).collect();
        m.set(
            &format!("kernels.{kernel}.op_ms"),
            geomean_by_group(indices.iter().map(|&r| &untraced.by_row[r])),
        );
        m.set(
            &format!("capstan.cycles.{kernel}"),
            gmean(indices.iter().map(|&r| rows[r].hbm_cycles)),
        );
    }
    m.set(
        "capstan.cycles_geomean",
        gmean(rows.iter().map(|r| r.hbm_cycles)),
    );
    m.set("core.lower.spatial_loc", census.spatial_loc as f64);
    m.set("spatial.bytecode.ops", census.bytecode_ops as f64);
    m.set(
        "spatial.tier.range_simple_loops",
        census.range_simple_loops as f64,
    );
    m.set(
        "spatial.tier.vector_tagged_stages",
        census.vector_tagged as f64,
    );
    m.set(
        "spatial.tier.elide_licensed_stages",
        census.elide_licensed as f64,
    );
    m.set("spatial.shard.shardable_stages", census.shardable as f64);
    let trips: u64 = rows
        .iter()
        .map(|r| r.reference.run.stats.node_trips.iter().sum::<u64>())
        .sum();
    m.set("spatial.run.trips", trips as f64);
    m.set_opt("spatial.run.ns_per_trip", t.run_ns_per_trip());
    if mode == Mode::WarmRun {
        let (hits, misses) = warm.programs.stats();
        m.set(
            "spatial.program_cache.hit_share",
            hits as f64 / (hits + misses) as f64,
        );
        m.set("core.image_cache.builds", warm.images.builds() as f64);
        let pool = warm.pool.stats();
        m.set("spatial.pool.created", pool.created as f64);
        m.set("spatial.pool.reused", pool.reused as f64);
        m.set("spatial.pool.quarantined", pool.quarantined as f64);
    }
    let convert_ms = reconvert_ms(rows.iter().map(|r| &r.inputs));
    m.set("tensor.from_coo_ms", convert_ms);
    m.set("datasets.generate_ms", instantiate_ms - convert_ms);
    m.set(
        "bench.trace_overhead_pct",
        (untraced.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0,
    );
    outcome.notes.push(format!(
        "traced: {traced_passes} passes + {attribution_passes} attribution passes; \
         kernels.op_ms_p99 over {} samples",
        all_ops.len()
    ));
    outcome.notes.push(crate::write_trace(&t, plan));
    outcome
}
