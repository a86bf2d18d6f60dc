//! Figure 13: generated-kernel performance across the three platforms
//! (Capstan / GPU / CPU), normalized to Capstan — the bar-chart series.

use stardust_bench::{gmean, measure_kernel, Scale, KERNEL_NAMES};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);

    println!("Figure 13: normalized runtime (log-scale bars in the paper)");
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "Kernel", "Capstan", "GPU", "CPU"
    );
    let mut gpu_all = Vec::new();
    let mut cpu_all = Vec::new();
    for name in KERNEL_NAMES {
        let ms = measure_kernel(name, &scale, None, 1);
        let hbm = gmean(ms.iter().map(|m| m.capstan_hbm));
        let gpu = gmean(ms.iter().map(|m| m.gpu)) / hbm;
        let cpu = gmean(ms.iter().map(|m| m.cpu)) / hbm;
        gpu_all.push(gpu);
        cpu_all.push(cpu);
        println!("{name:<14} {:>10.2} {gpu:>10.2} {cpu:>10.2}", 1.0);
    }
    println!(
        "{:<14} {:>10.2} {:>10.2} {:>10.2}",
        "gmean",
        1.0,
        gmean(gpu_all),
        gmean(cpu_all)
    );
}
