//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§8).
//!
//! | artifact | binary | contents |
//! |----------|--------|----------|
//! | Table 3  | `table3` | input LoC vs generated Spatial LoC per kernel |
//! | Table 4  | `table4` | the evaluation datasets |
//! | Table 5  | `table5` | Capstan resources per kernel |
//! | Table 6  | `table6` | normalized runtimes across platforms/memories |
//! | Fig. 12  | `fig12`  | DRAM bandwidth sensitivity sweep |
//! | Fig. 13  | `fig13`  | per-kernel Capstan/GPU/CPU comparison |
//!
//! All binaries accept `--scale <n>` (dataset shrink divisor, default CI
//! scale) and `--full` (paper-scale dimensions). Absolute numbers differ
//! from the paper — the substrate is our simulator, not the authors'
//! testbed — but the comparisons' shape (who wins, rough factors,
//! crossovers) is what these harnesses reproduce.

pub mod json;

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use stardust_baselines::{cpu_time, gpu_time, CpuModel, GpuModel, WorkProfile};
use stardust_capstan::sim::{combine, SimModel};
use stardust_capstan::{simulate, CapstanConfig, MemoryModel, SimReport};
use stardust_core::pipeline::{ImageCache, RunOptions, TensorData};
use stardust_datasets as datasets;
use stardust_kernels as kernels;
use stardust_kernels::Kernel;
use stardust_kernels::KernelResult;
use stardust_spatial::{MachinePool, ProgramCache, RunBudget};
use stardust_tensor::{CooTensor, Format};

/// The process-wide compiled-Spatial-program cache: every harness entry
/// point compiles through it, so repeated measurements of one kernel
/// (bandwidth sweeps, multi-table runs over the same datasets) re-bind
/// machines to shared artifacts instead of re-linking.
pub fn spatial_cache() -> &'static ProgramCache {
    static CACHE: OnceLock<ProgramCache> = OnceLock::new();
    CACHE.get_or_init(ProgramCache::new)
}

/// The process-wide DRAM-image cache: repeated measurements of one
/// (kernel, dataset) pair convert and copy the dataset's words exactly
/// once, and every later bind is an `Arc` clone of the input segment
/// plus an O(outputs) zero-fill.
pub fn image_cache() -> &'static ImageCache {
    static CACHE: OnceLock<ImageCache> = OnceLock::new();
    CACHE.get_or_init(ImageCache::new)
}

/// The process-wide machine pool: sweep workers check recycled
/// [`stardust_spatial::Machine`]s out per measurement (reset + image
/// re-bind, no multi-MB arena allocation) instead of constructing
/// fresh ones, so a full suite sweep builds O(threads × distinct
/// programs) machines rather than O(measurements).
pub fn machine_pool() -> &'static MachinePool {
    static POOL: OnceLock<MachinePool> = OnceLock::new();
    POOL.get_or_init(MachinePool::new)
}

/// Harness configuration: dataset scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Divisor for the SuiteSparse matrix dimensions.
    pub suite: usize,
    /// Dimension of the random matrices (paper: 800).
    pub random_matrix_dim: usize,
    /// Dimension of the random 3-tensors (paper: 200).
    pub random_tensor_dim: usize,
    /// Divisor for the facebook tensor dimensions.
    pub facebook: usize,
    /// TTM/MTTKRP factor rank.
    pub rank: usize,
}

impl Scale {
    /// Fast CI-friendly scale (seconds for the whole suite).
    pub fn ci() -> Self {
        Scale {
            suite: 96,
            random_matrix_dim: 96,
            random_tensor_dim: 20,
            facebook: 400,
            rank: 8,
        }
    }

    /// Paper-scale dimensions (minutes; use for the full reproduction).
    pub fn full() -> Self {
        Scale {
            suite: 1,
            random_matrix_dim: 800,
            random_tensor_dim: 200,
            facebook: 1,
            rank: 32,
        }
    }

    /// Parses `--scale <n>` / `--full` from CLI arguments.
    pub fn from_args(args: &[String]) -> Self {
        if args.iter().any(|a| a == "--full") {
            return Scale::full();
        }
        if let Some(pos) = args.iter().position(|a| a == "--scale") {
            if let Some(v) = args.get(pos + 1).and_then(|s| s.parse::<usize>().ok()) {
                let v = v.max(1);
                return Scale {
                    suite: v,
                    random_matrix_dim: (9600 / v).max(48),
                    random_tensor_dim: (2400 / v).max(16),
                    facebook: (v * 4).max(1),
                    rank: if v <= 4 { 32 } else { 16 },
                };
            }
        }
        Scale::ci()
    }
}

/// One named input set for a kernel (a Table 4 dataset).
#[derive(Debug, Clone)]
pub struct InputSet {
    /// Dataset name for reporting.
    pub dataset: String,
    /// Dimensions the kernel should be instantiated with.
    pub dims: Vec<usize>,
    /// The bound inputs.
    pub inputs: HashMap<String, TensorData>,
}

fn csr(c: &CooTensor<f64>) -> TensorData {
    TensorData::from_coo(c, Format::csr())
}

fn vec_of(len: usize, seed: u64) -> TensorData {
    TensorData::from_coo(&datasets::random_vector(len, seed), Format::dense_vec())
}

/// The Table 4 matrices at the given scale.
pub fn suite_matrices(scale: &Scale) -> Vec<datasets::Dataset> {
    vec![
        datasets::bcsstk30(scale.suite),
        datasets::ckt11752_dc_1(scale.suite),
        datasets::trefethen_20000(scale.suite),
    ]
}

/// Builds the kernel + per-dataset inputs for one benchmark name.
///
/// # Panics
///
/// Panics on an unknown kernel name.
pub fn instantiate(name: &str, scale: &Scale) -> Vec<(Kernel, InputSet)> {
    match name {
        "SpMV" | "MatTransMul" | "Residual" | "SDDMM" => suite_matrices(scale)
            .into_iter()
            .map(|d| {
                let n = d.matrix.dims()[0];
                let mut inputs = HashMap::new();
                let kernel = match name {
                    "SpMV" => {
                        inputs.insert("A".into(), csr(&d.matrix));
                        inputs.insert("x".into(), vec_of(n, 7));
                        kernels::spmv(n)
                    }
                    "MatTransMul" => {
                        inputs.insert("A".into(), TensorData::from_coo(&d.matrix, Format::csc()));
                        inputs.insert("x".into(), vec_of(n, 7));
                        inputs.insert("z".into(), vec_of(n, 8));
                        inputs.insert("alpha".into(), TensorData::Scalar(1.5));
                        inputs.insert("beta".into(), TensorData::Scalar(-0.5));
                        kernels::mattransmul(n)
                    }
                    "Residual" => {
                        inputs.insert("A".into(), csr(&d.matrix));
                        inputs.insert("x".into(), vec_of(n, 7));
                        inputs.insert("b".into(), vec_of(n, 8));
                        kernels::residual(n)
                    }
                    _ => {
                        let k = scale.rank;
                        inputs.insert("B".into(), csr(&d.matrix));
                        inputs.insert(
                            "C".into(),
                            TensorData::from_coo(
                                &datasets::random_matrix(n, k, 1.0, 9),
                                Format::dense(2),
                            ),
                        );
                        inputs.insert(
                            "D".into(),
                            TensorData::from_coo(
                                &datasets::random_matrix(k, n, 1.0, 10),
                                Format::dense_col_major(),
                            ),
                        );
                        kernels::sddmm(n, k)
                    }
                };
                (
                    kernel,
                    InputSet {
                        dataset: d.name,
                        dims: vec![n, n],
                        inputs,
                    },
                )
            })
            .collect(),
        "Plus3" => [0.01, 0.10, 0.50]
            .iter()
            .map(|&density| {
                let n = scale.random_matrix_dim;
                let b = datasets::random_matrix(n, n, density, 21);
                let c = datasets::rotate_matrix_columns(&b, 1);
                let d = datasets::rotate_matrix_columns(&b, 2);
                let mut inputs = HashMap::new();
                inputs.insert("B".into(), csr(&b));
                inputs.insert("C".into(), csr(&c));
                inputs.insert("D".into(), csr(&d));
                (
                    kernels::plus3(n),
                    InputSet {
                        dataset: format!("random {:.0}%", density * 100.0),
                        dims: vec![n, n],
                        inputs,
                    },
                )
            })
            .collect(),
        "TTV" | "TTM" | "MTTKRP" => {
            let fb = datasets::facebook(scale.facebook);
            let dims = fb.dims().to_vec();
            let (d0, d1, d2) = (dims[0], dims[1], dims[2]);
            let r = scale.rank;
            let mut inputs = HashMap::new();
            inputs.insert("B".into(), TensorData::from_coo(&fb, Format::csf(3)));
            let kernel = match name {
                "TTV" => {
                    inputs.insert("c".into(), vec_of(d2, 31));
                    kernels::ttv(d0, d1, d2)
                }
                "TTM" => {
                    inputs.insert(
                        "C".into(),
                        TensorData::from_coo(
                            &datasets::random_matrix(r, d2, 1.0, 32),
                            Format::dense(2),
                        ),
                    );
                    kernels::ttm(d0, d1, d2, r)
                }
                _ => {
                    inputs.insert(
                        "C".into(),
                        TensorData::from_coo(
                            &datasets::random_matrix(r, d1, 1.0, 33),
                            Format::dense_col_major(),
                        ),
                    );
                    inputs.insert(
                        "D".into(),
                        TensorData::from_coo(
                            &datasets::random_matrix(r, d2, 1.0, 34),
                            Format::dense_col_major(),
                        ),
                    );
                    kernels::mttkrp(d0, d1, d2, r)
                }
            };
            vec![(
                kernel,
                InputSet {
                    dataset: "facebook".into(),
                    dims,
                    inputs,
                },
            )]
        }
        "InnerProd" | "Plus2" => [0.01, 0.10, 0.50]
            .iter()
            .map(|&density| {
                let n = scale.random_tensor_dim;
                let b = datasets::random_tensor3(n, n, n, density, 41);
                let c = datasets::rotate_even_coords(&b);
                let mut inputs = HashMap::new();
                inputs.insert("B".into(), TensorData::from_coo(&b, Format::ucc()));
                inputs.insert("C".into(), TensorData::from_coo(&c, Format::ucc()));
                let kernel = if name == "InnerProd" {
                    kernels::innerprod(n, n, n)
                } else {
                    kernels::plus2(n, n, n)
                };
                (
                    kernel,
                    InputSet {
                        dataset: format!("random {:.0}%", density * 100.0),
                        dims: vec![n, n, n],
                        inputs,
                    },
                )
            })
            .collect(),
        other => panic!("unknown kernel {other}"),
    }
}

/// All kernel names in Table 3 / Table 6 column order.
pub const KERNEL_NAMES: [&str; 10] = [
    "SpMV",
    "Plus3",
    "SDDMM",
    "MatTransMul",
    "Residual",
    "TTV",
    "TTM",
    "MTTKRP",
    "InnerProd",
    "Plus2",
];

/// One kernel × dataset measurement across all platforms.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Kernel name.
    pub kernel: String,
    /// Dataset name.
    pub dataset: String,
    /// Capstan with ideal network and memory.
    pub capstan_ideal: f64,
    /// Capstan with HBM-2E (the normalization baseline).
    pub capstan_hbm: f64,
    /// Capstan with DDR4.
    pub capstan_ddr4: f64,
    /// Modeled V100 GPU.
    pub gpu: f64,
    /// Modeled 128-thread CPU.
    pub cpu: f64,
    /// Spatial LoC of the generated code.
    pub spatial_loc: usize,
    /// Input LoC.
    pub input_loc: usize,
    /// HBM-2E sim report (for resource/bottleneck reporting).
    pub hbm_report: SimReport,
}

/// Runs one kernel on one input set across every platform model.
///
/// `warm: None` is the cold baseline — [`Kernel::run`], nothing shared,
/// inputs bound directly into fresh machines. `Some(opts)` runs through
/// the process-wide [`spatial_cache`] and [`image_cache`] (keys are
/// content-addressed, so one (kernel, dataset) name pair at two scales
/// gets two images — never the other scale's data), each stage the way
/// `opts` says: `RunOptions::default()` is image-bound on fresh machines,
/// `RunOptions::pooled(machine_pool())` the full serving path, and a
/// `split` shards every shardable stage. The measurement is
/// byte-identical whichever is passed (CI's `sweep` binary asserts it);
/// only the fixed per-measurement cost differs.
///
/// # Panics
///
/// Panics when compilation or simulation fails (they are bugs).
pub fn measure(kernel: &Kernel, set: &InputSet, warm: Option<&RunOptions<'_>>) -> Measurement {
    let result = match warm {
        None => kernel.run(&set.inputs),
        Some(opts) => kernel.run_with(
            &set.inputs,
            Some(spatial_cache()),
            Some(image_cache()),
            opts,
        ),
    }
    .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, set.dataset));
    measurement_from(kernel, set, &result)
}

fn measurement_from(kernel: &Kernel, set: &InputSet, result: &KernelResult) -> Measurement {
    let sim_on = |memory: MemoryModel| -> SimReport {
        let cfg = CapstanConfig::with_memory(memory);
        let reports: Vec<SimReport> = result
            .stages
            .iter()
            .map(|s| simulate(s.compiled.spatial(), &s.stats, &cfg))
            .collect();
        combine(&reports)
    };
    let ideal = sim_on(MemoryModel::Ideal);
    let hbm = sim_on(MemoryModel::Hbm2e);
    let ddr4 = sim_on(MemoryModel::Ddr4);

    let stats = result.total_stats();
    let out_decl = kernel
        .stages
        .last()
        .expect("stage")
        .program
        .decl(kernel.output())
        .expect("output");
    let dense_out: u64 = out_decl
        .dims
        .iter()
        .map(|&d| d as u64)
        .product::<u64>()
        .max(1);
    let outer = set.dims[0] as u64;
    let profile = WorkProfile::from_stats(&stats, dense_out, outer);

    Measurement {
        kernel: kernel.name.clone(),
        dataset: set.dataset.clone(),
        capstan_ideal: ideal.seconds,
        capstan_hbm: hbm.seconds,
        capstan_ddr4: ddr4.seconds,
        gpu: gpu_time(&profile, &GpuModel::default()),
        cpu: cpu_time(&profile, &CpuModel::default()),
        spatial_loc: result.spatial_loc(),
        input_loc: kernel.input_loc(),
        hbm_report: hbm,
    }
}

/// Runs a kernel on a custom-bandwidth Capstan (Fig. 12 sweep).
pub fn measure_bandwidth(kernel: &Kernel, set: &InputSet, gbps: f64) -> f64 {
    measure_bandwidth_sweep(kernel, set, &[gbps])[0]
}

/// Runs a kernel **once** and simulates it at every requested DRAM
/// bandwidth — the Fig. 12 sweep pays one compile + execute for the
/// whole curve instead of one per point.
pub fn measure_bandwidth_sweep(kernel: &Kernel, set: &InputSet, bandwidths: &[f64]) -> Vec<f64> {
    measure_bandwidth_sweep_parallel(kernel, set, bandwidths, 1)
}

// --- Thread-parallel sweep executor ----------------------------------
//
// Kernel × dataset × memory-config sweeps are embarrassingly parallel:
// each measurement checks a machine out of the `Arc`-shared
// [`machine_pool`] (bound through the process-wide [`spatial_cache`]
// and [`image_cache`]) and mutates only per-thread state, so work items
// can be fanned out across OS threads with no coordination beyond a
// work-stealing index — and no per-measurement machine allocation: the
// pool's per-thread shards hand each worker back the machine it used
// last iteration. The executor is deterministic — results land in input
// order and each item computes exactly what the serial path computes —
// so parallel pooled sweeps are asserted bitwise-equal to serial
// fresh-machine ones in CI.

/// Runs `f` over every item of `items` on up to `threads` OS threads
/// (scoped; no detached work), returning results in input order.
///
/// `threads == 1` (or a single item) degenerates to the serial path
/// with no thread spawned. Each item is processed exactly once; work is
/// distributed dynamically via an atomic cursor so imbalanced items
/// (e.g. datasets of very different nnz) do not idle whole threads.
///
/// Panics in `f` are *contained per item*: a panicking measurement
/// unwinds only its own item (poisoning the pooled machine it held, so
/// the pool quarantines it on check-in), the worker thread survives to
/// process the remaining items, and sibling workers are never torn
/// down mid-measurement.
///
/// # Panics
///
/// Re-raises the first (lowest-index) contained panic after the whole
/// sweep completes, so the failure is deterministic regardless of
/// thread interleaving.
pub fn parallel_sweep<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // Contain the panic at the item boundary: the unwind
                // drops the worker's pooled-machine guard (check-in
                // quarantines the poisoned machine) and the thread
                // moves on to the next item instead of collapsing the
                // scope while siblings are mid-run.
                let r = catch_unwind(AssertUnwindSafe(|| f(&items[i])));
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let r = slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every item processed");
            r.unwrap_or_else(|payload| resume_unwind(payload))
        })
        .collect()
}

/// [`measure_bandwidth_sweep`] with the per-bandwidth re-timing fanned
/// out across `threads` OS threads (the serial sweep is this function
/// at `threads == 1`, where [`parallel_sweep`] degenerates to a plain
/// map with no thread spawned). The kernel executes once, serially, on
/// the pooled serving path (shared program, shared image, recycled
/// machine); only the bandwidth points are parallel. Results are
/// bitwise-identical across thread counts.
pub fn measure_bandwidth_sweep_parallel(
    kernel: &Kernel,
    set: &InputSet,
    bandwidths: &[f64],
    threads: usize,
) -> Vec<f64> {
    let result = kernel
        .run_pooled(&set.inputs, spatial_cache(), image_cache(), machine_pool())
        .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, set.dataset));
    // Placement/node/burst analysis is bandwidth-independent: build one
    // model per stage and re-time it at each memory configuration.
    let base = CapstanConfig::default();
    let models: Vec<(SimModel, &stardust_spatial::ExecStats)> = result
        .stages
        .iter()
        .map(|s| (SimModel::new(s.compiled.spatial(), &base), &s.stats))
        .collect();
    parallel_sweep(bandwidths, threads, |&gbps| {
        let cfg = CapstanConfig::with_memory(MemoryModel::Custom { gbps });
        let reports: Vec<SimReport> = models
            .iter()
            .map(|(m, stats)| m.run_at(stats, &cfg))
            .collect();
        combine(&reports).seconds
    })
}

/// Best-of-N wall time of `f` in nanoseconds — the standard robust
/// statistic for micro-measurements on a noisy machine, shared by the
/// bind-split reporting in the `sweep` binary and the `interp` bench.
///
/// `reps` is clamped to at least one: zero reps used to return
/// `f64::INFINITY`, which serializes as `inf`/`null` in the JSON
/// summaries and poisons every downstream ratio. The result is always
/// a finite measurement.
pub fn best_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e9);
    }
    best
}

/// Geometric mean.
pub fn gmean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut logsum, mut n) = (0.0f64, 0usize);
    for x in xs {
        logsum += x.ln();
        n += 1;
    }
    if n == 0 {
        return f64::NAN;
    }
    (logsum / n as f64).exp()
}

/// [`measure`]s every dataset of a kernel, fanned out across `threads`
/// OS threads ([`parallel_sweep`]; `1` spawns none), in dataset order.
pub fn measure_kernel(
    name: &str,
    scale: &Scale,
    warm: Option<&RunOptions<'_>>,
    threads: usize,
) -> Vec<Measurement> {
    let sets = instantiate(name, scale);
    parallel_sweep(&sets, threads, |(k, set)| measure(k, set, warm))
}

/// One shard count's timing from [`shard_speedup_probe`].
#[derive(Debug, Clone)]
pub struct ShardTiming {
    /// Requested shard count.
    pub shards: usize,
    /// Best-of-reps critical path: `max(slowest shard, zero-trip
    /// baseline) + merge`, from contention-free per-shard times
    /// (`capacity = 1` runs shards round-robin on one machine, so each
    /// shard is timed without the others competing for this host's
    /// cores — the latency a one-machine-per-shard deployment would
    /// see).
    pub critical_path_seconds: f64,
    /// Best-of-reps wall time of a free-capacity sharded run on this
    /// host (threads contend for the host's real cores, so on small
    /// hosts this can exceed serial — report it, don't floor it).
    pub wall_seconds: f64,
}

/// Measures intra-kernel shard speedup on an interpreter-bound SpMV
/// (`nnz_target` nonzeros, ~50 per row): serial best-of-reps against
/// sharded runs at each of `shard_counts`, asserting every sharded
/// run's stats are bitwise identical to serial before timing counts.
/// Returns `(nnz, serial_seconds, timings)`.
///
/// # Panics
///
/// Panics when the kernel fails to compile/bind/run, or when a sharded
/// run diverges from serial — both are bugs, and this probe is a CI
/// gate.
pub fn shard_speedup_probe(
    nnz_target: usize,
    shard_counts: &[usize],
) -> (usize, f64, Vec<ShardTiming>) {
    let n = (nnz_target / 50).max(8);
    let density = nnz_target as f64 / (n * n) as f64;
    let matrix = datasets::random_matrix(n, n, density, 0xA11CE);
    let nnz = matrix.nnz();
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), csr(&matrix));
    inputs.insert("x".to_string(), vec_of(n, 7));
    let kernel = kernels::spmv(n);
    let stages = kernel
        .compile_cached(&inputs, spatial_cache())
        .expect("spmv compiles");
    let stage = &stages[0];
    let image = stage.build_image(&inputs).expect("build image");
    let pool = machine_pool();
    let budget = RunBudget::default();

    let mut serial_best = f64::INFINITY;
    let mut serial_stats = None;
    for _ in 0..3 {
        let mut m = stage.bind_image(&image).expect("bind image");
        let t = std::time::Instant::now();
        let stats = m.run(stage.spatial()).expect("serial run");
        serial_best = serial_best.min(t.elapsed().as_secs_f64());
        serial_stats = Some(stats);
    }
    let serial_stats = serial_stats.expect("at least one serial rep");

    let timings = shard_counts
        .iter()
        .map(|&shards| {
            let sh = stage.shard(shards).expect("spmv outer loop is shardable");
            let mut critical = f64::INFINITY;
            let mut wall = f64::INFINITY;
            for _ in 0..3 {
                let run = sh
                    .run_pooled(&image, pool, &budget, Some(1))
                    .expect("sharded run");
                assert_eq!(
                    run.stats, serial_stats,
                    "sharded SpMV stats diverge from serial at {shards} shards"
                );
                let slowest = run.shard_seconds.iter().cloned().fold(0.0, f64::max);
                critical = critical.min(slowest.max(run.baseline_seconds) + run.merge_seconds);

                let t = std::time::Instant::now();
                let free = sh
                    .run_pooled(&image, pool, &budget, None)
                    .expect("sharded run");
                wall = wall.min(t.elapsed().as_secs_f64());
                assert_eq!(free.stats, serial_stats);
            }
            ShardTiming {
                shards,
                critical_path_seconds: critical,
                wall_seconds: wall,
            }
        })
        .collect();
    (nnz, serial_best, timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert!((gmean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((gmean([8.0]) - 8.0).abs() < 1e-12);
        assert!(gmean(std::iter::empty::<f64>()).is_nan());
    }

    #[test]
    fn scale_parsing() {
        let full = Scale::from_args(&["--full".to_string()]);
        assert_eq!(full.suite, 1);
        let ci = Scale::from_args(&[]);
        assert_eq!(ci, Scale::ci());
        let custom = Scale::from_args(&["--scale".to_string(), "10".to_string()]);
        assert_eq!(custom.suite, 10);
    }

    #[test]
    fn spmv_measurement_sane() {
        let scale = Scale::ci();
        let sets = instantiate("SpMV", &scale);
        assert_eq!(sets.len(), 3);
        let m = measure(&sets[0].0, &sets[0].1, None);
        assert!(m.capstan_hbm > 0.0);
        assert!(m.capstan_ddr4 >= m.capstan_hbm);
        assert!(m.capstan_ideal <= m.capstan_hbm);
        assert!(m.cpu > m.capstan_hbm, "CPU should lose: {m:?}");
        assert!(m.spatial_loc > 10);
    }

    #[test]
    fn all_kernels_instantiate() {
        let scale = Scale::ci();
        for name in KERNEL_NAMES {
            let sets = instantiate(name, &scale);
            assert!(!sets.is_empty(), "{name} has no datasets");
        }
    }

    #[test]
    fn parallel_sweep_preserves_order_and_covers_every_item() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 4, 8] {
            let out = parallel_sweep(&items, threads, |&i| i * 3);
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_sweep(&empty, 4, |&i: &usize| i).is_empty());
    }

    /// One panicking item must not tear down sibling workers: every
    /// other item still completes, and the panic is re-raised (with its
    /// payload intact) only after the whole sweep has drained.
    #[test]
    fn parallel_sweep_contains_item_panics() {
        let items: Vec<usize> = (0..16).collect();
        let processed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_sweep(&items, 4, |&i| {
                if i == 5 {
                    panic!("injected sweep panic at item {i}");
                }
                processed.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        let payload = result.expect_err("the contained panic must re-raise");
        let msg = payload
            .downcast_ref::<String>()
            .expect("string panic payload");
        assert!(msg.contains("item 5"), "wrong payload: {msg}");
        assert_eq!(
            processed.load(Ordering::Relaxed),
            15,
            "a panicking item starved its siblings"
        );
    }

    #[test]
    fn image_bound_sweep_is_bitwise_equal_to_direct() {
        let scale = Scale::ci();
        let direct = measure_kernel("SpMV", &scale, None, 1);
        // Twice: the second pass re-binds every cached image.
        for round in 0..2 {
            let image = measure_kernel("SpMV", &scale, Some(&RunOptions::default()), 1);
            assert_eq!(direct, image, "image-bound sweep diverges (round {round})");
        }
    }

    /// The fresh-machine path under `parallel_sweep` (the baseline the
    /// sweep binary's identity gate is defined against) keeps its own
    /// multi-thread coverage.
    #[test]
    fn parallel_fresh_machine_sweep_is_bitwise_equal_to_serial() {
        let scale = Scale::ci();
        let sets = instantiate("SpMV", &scale);
        let serial = measure_kernel("SpMV", &scale, None, 1);
        for threads in [2, 4] {
            let parallel = parallel_sweep(&sets, threads, |(k, set)| measure(k, set, None));
            assert_eq!(serial, parallel, "{threads}-thread sweep diverges");
        }
    }

    #[test]
    fn pooled_kernel_sweep_is_bitwise_equal_to_serial() {
        let scale = Scale::ci();
        let serial = measure_kernel("Residual", &scale, None, 1);
        let on_pool = RunOptions::pooled(machine_pool());
        for threads in [1, 2, 4] {
            let pooled = measure_kernel("Residual", &scale, Some(&on_pool), threads);
            assert_eq!(serial, pooled, "{threads}-thread pooled sweep diverges");
        }
        // The second single-thread pass must reuse pooled machines; the
        // counters are process-wide, so only assert reuse happened.
        let stats = machine_pool().stats();
        assert!(stats.reused > 0, "pool never reused a machine: {stats:?}");
    }

    /// The scale-collision regression: one (kernel, dataset) name pair
    /// at two different `Scale`s through the process-wide
    /// [`image_cache`] must yield distinct, correct results. Under the
    /// old name-keyed dataset ids both scales shared one cache key, so
    /// the second scale silently executed on the first scale's data.
    #[test]
    fn image_cache_distinguishes_scales_of_one_dataset() {
        let small = Scale::ci();
        let large = Scale {
            suite: small.suite / 2,
            ..small
        };
        let direct_small = measure_kernel("MatTransMul", &small, None, 1);
        let direct_large = measure_kernel("MatTransMul", &large, None, 1);
        assert_ne!(
            direct_small, direct_large,
            "scales must measure differently for the regression to bite"
        );
        // Same names at both scales; content-addressed keys must keep
        // the images — and hence the results — apart. Order matters:
        // the second scale is the one a collision would poison.
        let image_bound = RunOptions::default();
        let image_small = measure_kernel("MatTransMul", &small, Some(&image_bound), 1);
        let image_large = measure_kernel("MatTransMul", &large, Some(&image_bound), 1);
        assert_eq!(direct_small, image_small, "small scale diverges");
        assert_eq!(
            direct_large, image_large,
            "large scale was served the small scale's cached images"
        );
    }

    /// Same compiled program, same dataset *name*, different values:
    /// the sharpest form of the collision (the program cache hands both
    /// datasets the same `Arc`, so only the content hash separates
    /// them).
    #[test]
    fn value_scaled_dataset_gets_its_own_image() {
        let n = 48;
        let kernel = kernels::spmv(n);
        let a = datasets::random_matrix(n, n, 0.2, 5);
        let mut doubled = CooTensor::new(vec![n, n]);
        for (coords, v) in a.entries() {
            doubled.push(coords, v * 2.0);
        }
        let x = vec_of(n, 7);
        let mut in1 = HashMap::new();
        in1.insert("A".to_string(), csr(&a));
        in1.insert("x".to_string(), x.clone());
        let mut in2 = HashMap::new();
        in2.insert("A".to_string(), csr(&doubled));
        in2.insert("x".to_string(), x);

        // A local cache so the entry-count assertion is airtight.
        let images = ImageCache::new();
        let image_bound = |inputs| {
            kernel
                .run_with(
                    inputs,
                    Some(spatial_cache()),
                    Some(&images),
                    &RunOptions::default(),
                )
                .unwrap()
        };
        let (r1, r2) = (image_bound(&in1), image_bound(&in2));
        assert_eq!(
            images.len(),
            2 * kernel.stages.len(),
            "value-scaled dataset collided with the original"
        );
        let d1 = kernel.run(&in1).unwrap();
        let d2 = kernel.run(&in2).unwrap();
        let (r1, r2) = (r1.output.to_dense(), r2.output.to_dense());
        assert!(r1.approx_eq(&d1.output.to_dense()).is_ok());
        assert!(r2.approx_eq(&d2.output.to_dense()).is_ok());
        assert!(r1.approx_eq(&r2).is_err(), "doubled values, same result");
    }

    #[test]
    fn best_ns_zero_reps_is_finite() {
        let mut calls = 0;
        let t = best_ns(0, || calls += 1);
        assert!(t.is_finite(), "zero reps leaked INFINITY into the stats");
        assert_eq!(calls, 1, "the clamped measurement must run once");
    }

    #[test]
    fn parallel_bandwidth_sweep_is_bitwise_equal_to_serial() {
        let scale = Scale::ci();
        let sets = instantiate("SpMV", &scale);
        let (k, set) = &sets[0];
        let bandwidths = [20.0, 50.0, 100.0, 500.0, 2000.0];
        let serial = measure_bandwidth_sweep(k, set, &bandwidths);
        let parallel = measure_bandwidth_sweep_parallel(k, set, &bandwidths, 4);
        let s_bits: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
        let p_bits: Vec<u64> = parallel.iter().map(|v| v.to_bits()).collect();
        assert_eq!(s_bits, p_bits, "bandwidth curve diverges under threads");
    }
}
