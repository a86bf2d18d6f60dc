//! Criterion bench: end-to-end simulated execution per kernel (Table 6's
//! per-kernel measurement, one dataset each).

use criterion::{criterion_group, criterion_main, Criterion};
use stardust_bench::{instantiate, measure, Scale, KERNEL_NAMES};

fn bench_runtime(c: &mut Criterion) {
    let scale = Scale::ci();
    let mut group = c.benchmark_group("runtime");
    group.sample_size(10);
    for name in KERNEL_NAMES {
        let sets = instantiate(name, &scale);
        let (kernel, set) = &sets[0];
        group.bench_function(name, |b| {
            b.iter(|| measure(kernel, set, None));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
