//! Criterion bench: ablations of the design choices DESIGN.md calls out.
//!
//! 1. Bit-vector scan co-iteration density sweep (the §8.1 claim that the
//!    bit-vector format needs >~5% density to be performant): simulated
//!    Plus2-style union time per output nonzero across densities.
//! 2. Accelerated `Reduce` vs plain accumulation (SpMV with and without
//!    the `accelerate` command).

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stardust_bench::{instantiate, measure, Scale};
use stardust_capstan::{simulate, CapstanConfig};
use stardust_core::pipeline::TensorData;
use stardust_core::Scheduler;
use stardust_datasets::{random_matrix, rotate_matrix_columns};
use stardust_kernels::{plus3, Kernel, Stage};
use stardust_tensor::Format;

/// Union co-iteration cost per element across densities: at low density
/// the scanners examine mostly-zero bit vectors, so cost/nonzero explodes.
fn bench_density_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_density");
    group.sample_size(10);
    let n = 128;
    for density in [0.01, 0.05, 0.20, 0.50] {
        let b = random_matrix(n, n, density, 5);
        let cmat = rotate_matrix_columns(&b, 1);
        let d = rotate_matrix_columns(&b, 2);
        let mut inputs = HashMap::new();
        inputs.insert("B".to_string(), TensorData::from_coo(&b, Format::csr()));
        inputs.insert("C".to_string(), TensorData::from_coo(&cmat, Format::csr()));
        inputs.insert("D".to_string(), TensorData::from_coo(&d, Format::csr()));
        let kernel = plus3(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{density}")),
            &inputs,
            |bch, inputs| {
                bch.iter(|| {
                    let result = kernel.run(inputs).expect("runs");
                    let cfg = CapstanConfig::default();
                    result
                        .stages
                        .iter()
                        .map(|s| simulate(s.compiled.spatial(), &s.stats, &cfg).cycles)
                        .sum::<f64>()
                });
            },
        );
    }
    group.finish();
}

/// SpMV with the full schedule vs without `accelerate` (plain loops).
fn bench_accelerate_ablation(c: &mut Criterion) {
    let scale = Scale::ci();
    let sets = instantiate("SpMV", &scale);
    let (accelerated, set) = &sets[0];

    // Unaccelerated variant: same expression, no Reduce mapping.
    let n = set.dims[0];
    let mut program = stardust_core::ProgramBuilder::new("spmv_plain")
        .tensor("A", vec![n, n], Format::csr())
        .tensor("x", vec![n], Format::dense_vec())
        .tensor("y", vec![n], Format::dense_vec())
        .expr("y(i) = A(i,j) * x(j)")
        .build()
        .expect("builds");
    let mut s = Scheduler::new(&mut program);
    s.environment("innerPar", 16).unwrap();
    s.environment("outerPar", 16).unwrap();
    s.precompute(
        &stardust_ir::Expr::access("x", vec!["j".into()]),
        &["j"],
        "x_on",
    )
    .unwrap();
    s.precompute_reduction("ws").unwrap();
    let stmt = s.finish();
    let plain = Kernel {
        name: "SpMV-plain".into(),
        stages: vec![Stage { program, stmt }],
        table5_par: 16,
    };

    let mut inputs = set.inputs.clone();
    inputs.remove("y");
    let mut group = c.benchmark_group("accelerate_ablation");
    group.sample_size(10);
    group.bench_function("accelerated", |b| {
        b.iter(|| measure(accelerated, set, None))
    });
    group.bench_function("plain", |b| b.iter(|| plain.run(&inputs).expect("runs")));
    group.finish();
}

criterion_group!(benches, bench_density_sweep, bench_accelerate_ablation);
criterion_main!(benches);
