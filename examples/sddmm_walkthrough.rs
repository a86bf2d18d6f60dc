//! The paper's running example (§4–§5): SDDMM for machine learning.
//!
//! ```sh
//! cargo run --example sddmm_walkthrough
//! ```
//!
//! Shows the CIN transformations the Fig. 5 schedule performs step by
//! step — canonical CIN (eq. 1), per-row staging of the dense operands
//! (Fig. 6a), the scalar-workspace precompute, and the `accelerate`d
//! reduction — then compiles and runs the kernel.
//!
//! The generated Spatial is the per-row staging the CIN shows: the
//! row-invariant `C(i,:)` is placed under `forall(i)`, so `C_on_vals`
//! loads once per row `i`, outside the loop over the stored `B(i,j)`;
//! only `D(:,j)` is loaded per nonzero. The inner `Reduce` reads plain
//! affine positions (`C_on_vals(k)`, `D_on_vals(k)`) and reaches the
//! vector tier.

use std::collections::HashMap;

use stardust::core::pipeline::{Compiler, TensorData};
use stardust::core::{ProgramBuilder, Scheduler};
use stardust::datasets::random_matrix;
use stardust::ir::cin::PatternFn;
use stardust::ir::Expr;
use stardust::tensor::Format;

fn main() {
    let (n, k) = (32, 8);
    let mut program = ProgramBuilder::new("sddmm")
        .tensor("A", vec![n, n], Format::csr())
        .tensor("B", vec![n, n], Format::csr())
        .tensor("C", vec![n, k], Format::dense(2))
        .tensor("D", vec![k, n], Format::dense_col_major())
        .expr("A(i,j) = B(i,j) * C(i,k) * D(k,j)")
        .build()
        .expect("builds");

    println!("== Canonical CIN (eq. 1) ==");
    println!("{}\n", program.canonical_cin());

    let mut s = Scheduler::new(&mut program);
    s.environment("innerPar", 16).unwrap();
    s.environment("outerPar", 2).unwrap();

    s.precompute(
        &Expr::access("C", vec!["i".into(), "k".into()]),
        &["k"],
        "C_on",
    )
    .unwrap();
    println!("== After precompute(C(i,k), {{k}}, {{k}}, C_on) (Fig. 6a) ==");
    println!("{}\n", s.stmt());

    s.precompute(
        &Expr::access("D", vec!["k".into(), "j".into()]),
        &["k"],
        "D_on",
    )
    .unwrap();
    println!("== After precompute(D(k,j), {{k}}, {{k}}, D_on) ==");
    println!("{}\n", s.stmt());

    s.precompute_reduction("ws").unwrap();
    println!("== After the scalar-workspace precompute (Fig. 5 line 22) ==");
    println!("{}\n", s.stmt());

    s.accelerate_reduction("ws", PatternFn::Reduction).unwrap();
    println!("== After accelerate(..., Reduction, innerPar) ==");
    println!("{}\n", s.stmt());

    let stmt = s.finish();

    // Compile and execute on random data.
    let b = random_matrix(n, n, 0.2, 3);
    let c = random_matrix(n, k, 1.0, 4);
    let d = random_matrix(k, n, 1.0, 5);
    let mut inputs = HashMap::new();
    inputs.insert("B".to_string(), TensorData::from_coo(&b, Format::csr()));
    inputs.insert("C".to_string(), TensorData::from_coo(&c, Format::dense(2)));
    inputs.insert(
        "D".to_string(),
        TensorData::from_coo(&d, Format::dense_col_major()),
    );
    let hints = Compiler::hints_from_inputs(&inputs, &[("A", 1, b.nnz())]);
    let kernel = Compiler::compile(&program, &stmt, hints).expect("compiles");

    println!("== Generated Spatial ({} LoC) ==", kernel.spatial_loc());
    println!("{}", kernel.source());

    let run = kernel.execute(&inputs).expect("runs");
    println!(
        "computed {} output nonzeros; {} DRAM words read",
        match &run.output {
            stardust::core::pipeline::KernelOutput::Tensor(t) => t.nnz(),
            stardust::core::pipeline::KernelOutput::Scalar(_) => 0,
        },
        run.stats.total_dram_read_words()
    );
}
