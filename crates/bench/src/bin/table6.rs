//! Table 6: runtimes (geomean across datasets) normalized to the compiled
//! HBM-2E Capstan configuration, for every platform and memory system.

use stardust_baselines::handwritten;
use stardust_bench::{gmean, measure_kernel, Scale, KERNEL_NAMES};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);

    // Per-kernel geomean runtime per platform, normalized to Capstan HBM2E.
    let mut rows: Vec<(String, [f64; 5])> = Vec::new();
    for name in KERNEL_NAMES {
        let ms = measure_kernel(name, &scale, None, 1);
        let hbm = gmean(ms.iter().map(|m| m.capstan_hbm));
        let row = [
            gmean(ms.iter().map(|m| m.capstan_ideal)) / hbm,
            1.0,
            gmean(ms.iter().map(|m| m.capstan_ddr4)) / hbm,
            gmean(ms.iter().map(|m| m.gpu)) / hbm,
            gmean(ms.iter().map(|m| m.cpu)) / hbm,
        ];
        rows.push((name.to_string(), row));
    }

    println!("Table 6: Runtimes normalized to compiled Capstan (HBM2E)");
    print!("{:<28}", "Platform (Memory)");
    for name in KERNEL_NAMES {
        print!(" {name:>11}");
    }
    println!(" {:>8}", "gmean");

    let platforms = [
        ("Capstan (Ideal Net & Mem)", 0usize),
        ("Capstan (HBM2E) [base]", 1),
        ("Capstan (DDR4)", 2),
        ("V100 GPU (model)", 3),
        ("128-Thread CPU (model)", 4),
    ];
    for (label, idx) in platforms {
        print!("{label:<28}");
        for (_, row) in &rows {
            print!(" {:>11.2}", row[idx]);
        }
        let g = gmean(rows.iter().map(|(_, r)| r[idx]));
        println!(" {g:>8.2}");
    }

    println!();
    println!("Handwritten reference points (quoted from the paper, SpMV only):");
    println!(
        "  Capstan (HBM2E, handwritten)   {:>6.2}",
        handwritten::CAPSTAN_SPMV_VS_COMPILED
    );
    println!(
        "  Plasticine (HBM2E, handwritten){:>6.2}",
        handwritten::PLASTICINE_SPMV_VS_COMPILED
    );
}
