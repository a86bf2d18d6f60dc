//! Differential tests for the data-parallel (vector) execution tier.
//!
//! The vector tier must be *observably invisible*: for every program it
//! chunks, the bytecode engine with vectorization on must produce
//! bitwise-identical DRAM, identical `ExecStats`, and identical errors
//! to the scalar bytecode engine and the string-keyed reference
//! engine. These tests sweep the remainder
//! lengths around the chunk width (0, 1, LANES-1, LANES, LANES+1,
//! 2*LANES-1, ...), misaligned loop starts, faulting lanes in the
//! middle of a chunk, and — the fuel-drift regression — step budgets
//! that exhaust *inside* a vector chunk, where the abort point must
//! land on the identical iteration with the identical partial DRAM.
//! Raise `PROPTEST_CASES` for deeper sweeps (CI does).

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use stardust_spatial::ir::MemDecl;
use stardust_spatial::vector::LANES;
use stardust_spatial::{
    BinSOp, Counter, ExecStats, Machine, MemKind, ReferenceMachine, RunBudget, RunError, SExpr,
    ScanOp, SpatialProgram, SpatialStmt,
};

/// Runs `p` three ways — bytecode with the vector tier forced on,
/// bytecode with it forced off, and the reference engine — and asserts
/// identical results (or errors), bitwise-identical DRAM, and identical
/// statistics. An optional step budget applies to all three.
fn assert_engines_agree(p: &SpatialProgram, writes: &[(&str, Vec<f64>)], fuel: Option<u64>) {
    let _ = agreed_result(p, writes, fuel);
}

/// [`assert_engines_agree`], returning the run result all three agreed
/// on.
fn agreed_result(
    p: &SpatialProgram,
    writes: &[(&str, Vec<f64>)],
    fuel: Option<u64>,
) -> Result<ExecStats, RunError> {
    let mut vec_m = Machine::new(p);
    for (name, data) in writes {
        vec_m.write_dram(name, data).unwrap();
    }
    if let Some(f) = fuel {
        vec_m.set_budget(RunBudget::unlimited().with_max_steps(f));
    }
    let mut scalar_m = vec_m.clone();
    let mut reference = ReferenceMachine::new(p);
    for (name, data) in writes {
        reference.write_dram(name, data).unwrap();
    }
    if let Some(f) = fuel {
        reference.set_budget(RunBudget::unlimited().with_max_steps(f));
    }
    vec_m.set_vector_mode(true);
    scalar_m.set_vector_mode(false);
    let rv = vec_m.run(p);
    let rs = scalar_m.run(p);
    let rr = reference.run(p);
    assert_eq!(rv, rs, "vector vs scalar bytecode results diverge");
    assert_eq!(rv, rr, "vector bytecode vs reference results diverge");
    for d in &p.drams {
        let bits =
            |m: Option<&[f64]>| -> Vec<u64> { m.unwrap().iter().map(|v| v.to_bits()).collect() };
        let v = bits(vec_m.dram(&d.name));
        assert_eq!(
            v,
            bits(scalar_m.dram(&d.name)),
            "DRAM {} vector vs scalar diverges",
            d.name
        );
        assert_eq!(
            v,
            bits(reference.dram(&d.name)),
            "DRAM {} vector vs reference diverges",
            d.name
        );
    }
    assert_eq!(
        vec_m.stats(),
        scalar_m.stats(),
        "vector vs scalar stats diverge"
    );
    assert_eq!(
        vec_m.stats(),
        reference.stats(),
        "vector vs reference stats diverge"
    );
    rv
}

/// Deterministic data generator (no RNG dependency on the hot loop).
fn series(seed: u64, len: usize, modulus: u64, offset: f64) -> Vec<f64> {
    let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as f64 % modulus as f64 + offset
        })
        .collect()
}

fn alloc(p: &mut SpatialProgram, name: &str, kind: MemKind, size: usize) {
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(name, kind, size)));
}

fn load_all(p: &mut SpatialProgram, dst: &str, src: &str, len: usize) {
    p.accel.push(SpatialStmt::Load {
        dst: dst.into(),
        src: src.into(),
        start: SExpr::Const(0.0),
        end: SExpr::Const(len as f64),
        par: 1,
    });
}

const XS: usize = 32;
const ACC: usize = 24;

/// The CSR SpMV inner loop over `j in [lo, lo+n)`:
/// `r += vals_s[j] * x_s[crd_s[j]]` with an empty body — the
/// `Reduce` vector class.
fn reduce_program(n: usize, lo: usize) -> SpatialProgram {
    reduce_program_with(BinSOp::Mul, n, lo)
}

/// [`reduce_program`] with `op` in place of the multiply.
fn reduce_program_with(op: BinSOp, n: usize, lo: usize) -> SpatialProgram {
    let len = (lo + n).max(1);
    let mut p = SpatialProgram::new("vec_reduce");
    p.add_dram("vals", len);
    p.add_dram("crd", len);
    p.add_dram("x", XS);
    p.add_dram("out", 1);
    alloc(&mut p, "vals_s", MemKind::Sram, len);
    alloc(&mut p, "crd_s", MemKind::Sram, len);
    alloc(&mut p, "x_s", MemKind::SparseSram, XS);
    alloc(&mut p, "r", MemKind::Reg, 1);
    load_all(&mut p, "vals_s", "vals", len);
    load_all(&mut p, "crd_s", "crd", len);
    load_all(&mut p, "x_s", "x", XS);
    p.accel.push(SpatialStmt::Reduce {
        id: 0,
        reg: "r".into(),
        counter: Counter::Range {
            var: "j".into(),
            min: SExpr::Const(lo as f64),
            max: SExpr::Const((lo + n) as f64),
            step: 1,
        },
        par: 1,
        body: vec![],
        expr: SExpr::bin(
            op,
            SExpr::read("vals_s", SExpr::var("j")),
            SExpr::read_random("x_s", SExpr::read("crd_s", SExpr::var("j"))),
        ),
    });
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(0.0),
        value: SExpr::RegRead("r".into()),
    });
    p.assign_ids();
    p
}

/// The SpMSpM accumulation loop over `j in [lo, lo+n)`:
/// `acc_s[crd_s[j]] += vb * vals_s[j]` — the `Scatter` vector class
/// with a gathered index.
fn scatter_program(n: usize, lo: usize) -> SpatialProgram {
    scatter_program_with(BinSOp::Mul, n, lo)
}

/// [`scatter_program`] with `op` in place of the multiply.
fn scatter_program_with(op: BinSOp, n: usize, lo: usize) -> SpatialProgram {
    let len = (lo + n).max(1);
    let mut p = SpatialProgram::new("vec_scatter");
    p.add_dram("vals", len);
    p.add_dram("crd", len);
    p.add_dram("out", ACC);
    alloc(&mut p, "vals_s", MemKind::Sram, len);
    alloc(&mut p, "crd_s", MemKind::Sram, len);
    alloc(&mut p, "acc_s", MemKind::SparseSram, ACC);
    load_all(&mut p, "vals_s", "vals", len);
    load_all(&mut p, "crd_s", "crd", len);
    p.accel.push(SpatialStmt::Bind {
        var: "vb".into(),
        value: SExpr::Const(1.5),
    });
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "j".into(),
            min: SExpr::Const(lo as f64),
            max: SExpr::Const((lo + n) as f64),
            step: 1,
        },
        par: 1,
        body: vec![SpatialStmt::RmwAdd {
            mem: "acc_s".into(),
            index: SExpr::read("crd_s", SExpr::var("j")),
            value: SExpr::bin(op, SExpr::var("vb"), SExpr::read("vals_s", SExpr::var("j"))),
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        src: "acc_s".into(),
        len: SExpr::Const(ACC as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

/// A dense fill over `j in [lo, lo+n)`: `s[j] = vals_s[j]` — the
/// `Scatter` class with the iota index plan.
fn dense_fill_program(n: usize, lo: usize) -> SpatialProgram {
    dense_fill_program_with(SExpr::read("vals_s", SExpr::var("j")), n, lo)
}

/// [`dense_fill_program`] storing `value` (an expression over `j`).
fn dense_fill_program_with(value: SExpr, n: usize, lo: usize) -> SpatialProgram {
    let len = (lo + n).max(1);
    let mut p = SpatialProgram::new("vec_fill");
    p.add_dram("vals", len);
    p.add_dram("out", len);
    alloc(&mut p, "vals_s", MemKind::Sram, len);
    alloc(&mut p, "s", MemKind::Sram, len);
    load_all(&mut p, "vals_s", "vals", len);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "j".into(),
            min: SExpr::Const(lo as f64),
            max: SExpr::Const((lo + n) as f64),
            step: 1,
        },
        par: 1,
        body: vec![SpatialStmt::WriteMem {
            mem: "s".into(),
            index: SExpr::var("j"),
            value,
            random: false,
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        src: "s".into(),
        len: SExpr::Const(len as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

/// Valid scatter inputs for trip count `n` starting at `lo`.
fn scatter_inputs(n: usize, lo: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let len = (lo + n).max(1);
    vec![
        ("vals", series(seed, len, 16, 0.25)),
        ("crd", series(seed ^ 0xABCD, len, ACC as u64, 0.0)),
    ]
}

fn reduce_inputs(n: usize, lo: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let len = (lo + n).max(1);
    vec![
        ("vals", series(seed, len, 16, 0.5)),
        ("crd", series(seed ^ 0x1234, len, XS as u64, 0.0)),
        ("x", series(seed ^ 0x77, XS, 32, -8.0)),
    ]
}

/// Remainder sweep: every length around the chunk width, crossed with
/// aligned and misaligned loop starts, on all three vector classes.
#[test]
fn remainder_lengths_and_offsets_are_bit_identical() {
    let lengths = [
        0,
        1,
        LANES - 1,
        LANES,
        LANES + 1,
        2 * LANES - 1,
        2 * LANES,
        2 * LANES + 1,
        5 * LANES + 3,
    ];
    for &n in &lengths {
        for lo in [0usize, 1, 3, LANES - 1] {
            let seed = (n * 31 + lo) as u64;
            assert_engines_agree(&reduce_program(n, lo), &reduce_inputs(n, lo, seed), None);
            assert_engines_agree(&scatter_program(n, lo), &scatter_inputs(n, lo, seed), None);
            let len = (lo + n).max(1);
            assert_engines_agree(
                &dense_fill_program(n, lo),
                &[("vals", series(seed, len, 64, 0.125))],
                None,
            );
        }
    }
}

/// A faulting lane in the middle of a chunk: the error position, the
/// partial DRAM before it, and the statistics must match the scalar
/// engines exactly (the chunk is re-run scalar, committing nothing).
#[test]
fn faulting_lanes_mid_chunk_match_scalar_semantics() {
    let n = 3 * LANES;
    // Out-of-bounds destination index in the middle of the second chunk.
    let mut inputs = scatter_inputs(n, 0, 7);
    inputs[1].1[LANES + 3] = ACC as f64 + 5.0;
    assert_engines_agree(&scatter_program(n, 0), &inputs, None);
    // Negative index in the middle of the first chunk.
    let mut inputs = scatter_inputs(n, 0, 8);
    inputs[1].1[3] = -2.0;
    assert_engines_agree(&scatter_program(n, 0), &inputs, None);
    // Out-of-bounds outer gather in the SpMV dot product.
    let mut inputs = reduce_inputs(n, 0, 9);
    inputs[1].1[2 * LANES + 1] = XS as f64;
    assert_engines_agree(&reduce_program(n, 0), &inputs, None);
    // Negative inner index in the SpMV dot product.
    let mut inputs = reduce_inputs(n, 0, 10);
    inputs[1].1[1] = -1.0;
    assert_engines_agree(&reduce_program(n, 0), &inputs, None);
    // A zero divisor is the same kind of lane fault: a typed error at
    // the exact iteration, in every build profile. `vb % vals[j]` with
    // a zero in the middle of the second chunk...
    let zero = Err(RunError::DivisionByZero);
    let mut inputs = scatter_inputs(n, 0, 11);
    inputs[0].1[LANES + 3] = 0.0;
    let p = scatter_program_with(BinSOp::Mod, n, 0);
    assert_eq!(agreed_result(&p, &inputs, None), zero);
    // ...`vals[j] / x[crd[j]]` with a zero behind the last chunk's
    // gather...
    let mut inputs = reduce_inputs(n, 0, 12);
    inputs[1].1[2 * LANES + 1] = 5.0;
    inputs[2].1[5] = 0.0;
    let p = reduce_program_with(BinSOp::Div, n, 0);
    assert_eq!(agreed_result(&p, &inputs, None), zero);
    // ...and a loop-invariant zero divisor, `s[j] = j % 0`.
    let value = SExpr::bin(BinSOp::Mod, SExpr::var("j"), SExpr::Const(0.0));
    let p = dense_fill_program_with(value, n, 0);
    let vals = [("vals", series(13, n, 64, 0.125))];
    assert_eq!(agreed_result(&p, &vals, None), zero);
}

/// The fuel-drift regression: sweep step budgets so exhaustion lands on
/// every iteration of the chunked loops — including points strictly
/// inside a vector chunk. The abort must come at the identical step
/// with byte-identical partial DRAM on all four engines.
#[test]
fn budget_aborts_inside_chunks_are_identical() {
    let n = 5 * LANES;
    let reduce = reduce_program(n, 0);
    let reduce_in = reduce_inputs(n, 0, 21);
    let scatter = scatter_program(n, 0);
    let scatter_in = scatter_inputs(n, 0, 22);
    for fuel in 1..=(n as u64 + 24) {
        assert_engines_agree(&reduce, &reduce_in, Some(fuel));
        assert_engines_agree(&scatter, &scatter_in, Some(fuel));
    }
}

/// Builds a bit vector `name` over `dim` bits with the given set
/// coordinates (sorted, deduped by the caller).
fn bitvector(p: &mut SpatialProgram, name: &str, coords: &[usize], dim: usize) {
    let fifo = format!("{name}_crd");
    alloc(p, name, MemKind::BitVector, dim);
    alloc(p, &fifo, MemKind::Fifo, coords.len().max(1));
    for &c in coords {
        p.accel.push(SpatialStmt::Enq {
            fifo: fifo.clone(),
            value: SExpr::Const(c as f64),
        });
    }
    p.accel.push(SpatialStmt::GenBitVector {
        dst: name.into(),
        src: fifo,
        src_start: SExpr::Const(0.0),
        count: SExpr::Const(coords.len() as f64),
        dim: SExpr::Const(dim as f64),
    });
}

/// A two-vector union scan writing `idx + pa - pb` per emit: exercises
/// the whole-word skip paths (empty words, word-boundary bits, tails).
fn scan_union_program(coords_a: &[usize], coords_b: &[usize], dim: usize) -> SpatialProgram {
    let mut p = SpatialProgram::new("vec_scan");
    p.add_dram("out", dim);
    bitvector(&mut p, "bva", coords_a, dim);
    bitvector(&mut p, "bvb", coords_b, dim);
    alloc(&mut p, "acc_s", MemKind::SparseSram, dim);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan2 {
            op: ScanOp::Or,
            bv_a: "bva".into(),
            bv_b: "bvb".into(),
            a_pos_var: "pa".into(),
            b_pos_var: "pb".into(),
            out_pos_var: "po".into(),
            idx_var: "ix".into(),
        },
        par: 1,
        body: vec![SpatialStmt::WriteMem {
            mem: "acc_s".into(),
            index: SExpr::var("po"),
            value: SExpr::add(
                SExpr::var("ix"),
                SExpr::sub(SExpr::var("pa"), SExpr::var("pb")),
            ),
            random: true,
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        src: "acc_s".into(),
        len: SExpr::Const(dim as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

/// A one-vector scan writing the dense coordinate per emit.
fn scan1_program(coords: &[usize], dim: usize) -> SpatialProgram {
    let mut p = SpatialProgram::new("vec_scan1");
    p.add_dram("out", dim.max(1));
    bitvector(&mut p, "bv", coords, dim);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan1 {
            bv: "bv".into(),
            pos_var: "p".into(),
            idx_var: "x".into(),
        },
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::var("p"),
            value: SExpr::var("x"),
        }],
    });
    p.assign_ids();
    p
}

/// The scan word-skip paths: empty vectors, single bits at word
/// boundaries, dense words, and ragged tails must all emit identically
/// with the vector tier on and off.
#[test]
fn scan_word_skip_is_bit_identical() {
    let dim = 200;
    let cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![], vec![]),
        (vec![0], vec![199]),
        (vec![63, 64, 65], vec![64]),
        (vec![5, 70, 130, 199], vec![0, 1, 2, 3, 66, 131]),
        ((0..dim).step_by(2).collect(), (0..dim).step_by(3).collect()),
        ((64..128).collect(), vec![]),
    ];
    for (a, b) in &cases {
        assert_engines_agree(&scan_union_program(a, b, dim), &[], None);
        assert_engines_agree(&scan1_program(a, dim), &[], None);
    }
    // Budgeted scans: exhaustion must land on the identical emit.
    let (a, b): (Vec<usize>, Vec<usize>) =
        ((0..dim).step_by(5).collect(), (2..dim).step_by(7).collect());
    for fuel in 1..40 {
        assert_engines_agree(&scan_union_program(&a, &b, dim), &[], Some(fuel));
    }
}

/// Random (length, offset, data, fuel) sweeps over all three range
/// vector classes, with occasional faulting indices mixed in.
fn random_case(seed: u64) {
    let mut rng = TestRng::for_test(&format!("vector-{seed}"));
    let n = rng.below(8 * LANES as u64) as usize;
    let lo = rng.below(2 * LANES as u64) as usize;
    let fuel = match rng.below(3) {
        0 => None,
        _ => Some(1 + rng.below((n as u64 + 8) * 2)),
    };
    let shape = rng.below(3);
    match shape {
        0 => {
            let mut inputs = reduce_inputs(n, lo, seed);
            if n > 0 && rng.below(4) == 0 {
                // A faulting inner index somewhere in the run.
                let at = lo + rng.below(n as u64) as usize;
                inputs[1].1[at] = if rng.below(2) == 0 {
                    -3.0
                } else {
                    XS as f64 + 1.0
                };
            }
            assert_engines_agree(&reduce_program(n, lo), &inputs, fuel);
        }
        1 => {
            let mut inputs = scatter_inputs(n, lo, seed);
            if n > 0 && rng.below(4) == 0 {
                let at = lo + rng.below(n as u64) as usize;
                inputs[1].1[at] = if rng.below(2) == 0 { -1.0 } else { ACC as f64 };
            }
            assert_engines_agree(&scatter_program(n, lo), &inputs, fuel);
        }
        _ => {
            let len = (lo + n).max(1);
            assert_engines_agree(
                &dense_fill_program(n, lo),
                &[("vals", series(seed, len, 64, 0.125))],
                fuel,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Randomized remainder/offset/fault/fuel sweep: the vector tier is
    /// observably invisible on random cases too.
    #[test]
    fn random_vector_cases_are_bit_identical(seed in 0u64..1_000_000) {
        random_case(seed);
    }
}

/// A fused fill/update loop — *three* statements per iteration:
/// `s1[j] = vals_s[j]`, `acc_s[crd_s[j]] += vb * vals_s[j]`, and the
/// computed fill `s2[j] = j * 2.0`. Multi-statement bodies were
/// `VecClass::None` before the effect-analysis framework; they now
/// classify as [`VecClass::MultiScatter`] (pairwise-distinct
/// destinations, no gather reads a written slot) and chunk through the
/// vector tier with statement-major commits.
fn multi_body_program(n: usize, lo: usize) -> SpatialProgram {
    let len = (lo + n).max(1);
    let mut p = SpatialProgram::new("vec_multi");
    p.add_dram("vals", len);
    p.add_dram("crd", len);
    p.add_dram("out1", len);
    p.add_dram("out2", ACC);
    p.add_dram("out3", len);
    alloc(&mut p, "vals_s", MemKind::Sram, len);
    alloc(&mut p, "crd_s", MemKind::Sram, len);
    alloc(&mut p, "s1", MemKind::Sram, len);
    alloc(&mut p, "acc_s", MemKind::SparseSram, ACC);
    alloc(&mut p, "s2", MemKind::Sram, len);
    load_all(&mut p, "vals_s", "vals", len);
    load_all(&mut p, "crd_s", "crd", len);
    p.accel.push(SpatialStmt::Bind {
        var: "vb".into(),
        value: SExpr::Const(1.5),
    });
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "j".into(),
            min: SExpr::Const(lo as f64),
            max: SExpr::Const((lo + n) as f64),
            step: 1,
        },
        par: 1,
        body: vec![
            SpatialStmt::WriteMem {
                mem: "s1".into(),
                index: SExpr::var("j"),
                value: SExpr::read("vals_s", SExpr::var("j")),
                random: false,
            },
            SpatialStmt::RmwAdd {
                mem: "acc_s".into(),
                index: SExpr::read("crd_s", SExpr::var("j")),
                value: SExpr::mul(SExpr::var("vb"), SExpr::read("vals_s", SExpr::var("j"))),
            },
            SpatialStmt::WriteMem {
                mem: "s2".into(),
                index: SExpr::var("j"),
                value: SExpr::mul(SExpr::var("j"), SExpr::Const(2.0)),
                random: false,
            },
        ],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out1".into(),
        offset: SExpr::Const(0.0),
        src: "s1".into(),
        len: SExpr::Const(len as f64),
        par: 1,
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out2".into(),
        offset: SExpr::Const(0.0),
        src: "acc_s".into(),
        len: SExpr::Const(ACC as f64),
        par: 1,
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out3".into(),
        offset: SExpr::Const(0.0),
        src: "s2".into(),
        len: SExpr::Const(len as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

/// The offset dense fill `s[j + off] = vals_s[j]` — previously
/// `VecClass::None` (the index is not the bare loop variable), now a
/// [`VecClass::Scatter`] via the `[VarConstBin, End]` offset-iota
/// index plan.
fn offset_fill_program(n: usize, lo: usize, off: usize) -> SpatialProgram {
    let len = (lo + n).max(1);
    let slen = len + off;
    let mut p = SpatialProgram::new("vec_offset_fill");
    p.add_dram("vals", len);
    p.add_dram("out", slen);
    alloc(&mut p, "vals_s", MemKind::Sram, len);
    alloc(&mut p, "s", MemKind::Sram, slen);
    load_all(&mut p, "vals_s", "vals", len);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "j".into(),
            min: SExpr::Const(lo as f64),
            max: SExpr::Const((lo + n) as f64),
            step: 1,
        },
        par: 1,
        body: vec![SpatialStmt::WriteMem {
            mem: "s".into(),
            index: SExpr::add(SExpr::var("j"), SExpr::Const(off as f64)),
            value: SExpr::read("vals_s", SExpr::var("j")),
            random: false,
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        src: "s".into(),
        len: SExpr::Const(slen as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

/// The computed dense fill `s[j] = j * 2.0` — previously
/// `VecClass::None` (the value is neither a constant, variable, nor
/// gather), now a [`VecClass::Scatter`] via the per-lane
/// `[VarConstBin, End]` value plan.
fn computed_fill_program(n: usize, lo: usize) -> SpatialProgram {
    let len = (lo + n).max(1);
    let mut p = SpatialProgram::new("vec_computed_fill");
    p.add_dram("out", len);
    alloc(&mut p, "s", MemKind::Sram, len);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "j".into(),
            min: SExpr::Const(lo as f64),
            max: SExpr::Const((lo + n) as f64),
            step: 1,
        },
        par: 1,
        body: vec![SpatialStmt::WriteMem {
            mem: "s".into(),
            index: SExpr::var("j"),
            value: SExpr::mul(SExpr::var("j"), SExpr::Const(2.0)),
            random: false,
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        src: "s".into(),
        len: SExpr::Const(len as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

fn multi_inputs(n: usize, lo: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let len = (lo + n).max(1);
    vec![
        ("vals", series(seed, len, 16, 0.25)),
        ("crd", series(seed ^ 0xBEEF, len, ACC as u64, 0.0)),
    ]
}

/// The widened classifier verdicts, asserted on the compiled artifact:
/// the shapes the new tests sweep must actually take the new paths.
#[test]
fn widened_shapes_classify_as_tagged() {
    use stardust_spatial::{CompiledProgram, VecClass};
    let find = |p: &SpatialProgram, class: VecClass| {
        let c = CompiledProgram::compile(p);
        assert!(
            (0..c.ops().len()).any(|pc| c.vec_class(pc) == class),
            "{} never classifies {:?}",
            p.name,
            class
        );
    };
    find(&multi_body_program(3 * LANES, 0), VecClass::MultiScatter);
    find(&offset_fill_program(3 * LANES, 0, 2), VecClass::Scatter);
    find(&computed_fill_program(3 * LANES, 0), VecClass::Scatter);
}

/// Remainder sweep over the widened shapes: multi-statement bodies,
/// offset fills, and computed fills are bit-identical across all four
/// engines at every length and loop start around the chunk width.
#[test]
fn widened_shapes_are_bit_identical() {
    let lengths = [
        0,
        1,
        LANES - 1,
        LANES,
        LANES + 1,
        2 * LANES + 1,
        5 * LANES + 3,
    ];
    for &n in &lengths {
        for lo in [0usize, 1, LANES - 1] {
            let seed = (n * 37 + lo) as u64;
            let len = (lo + n).max(1);
            assert_engines_agree(&multi_body_program(n, lo), &multi_inputs(n, lo, seed), None);
            for off in [0usize, 1, 7] {
                assert_engines_agree(
                    &offset_fill_program(n, lo, off),
                    &[("vals", series(seed, len, 64, 0.125))],
                    None,
                );
            }
            assert_engines_agree(&computed_fill_program(n, lo), &[], None);
        }
    }
}

/// A faulting lane in the middle of a multi-statement chunk: the whole
/// chunk must re-run scalar, committing the exact statement prefix the
/// scalar engines commit and aborting at the identical statement.
#[test]
fn multi_statement_faults_match_scalar_semantics() {
    let n = 3 * LANES;
    // Out-of-bounds accumulate index in the middle of the second chunk:
    // statement 1 of that iteration faults *after* statement 0's write.
    let mut inputs = multi_inputs(n, 0, 41);
    inputs[1].1[LANES + 5] = ACC as f64 + 3.0;
    assert_engines_agree(&multi_body_program(n, 0), &inputs, None);
    // Negative index in the first chunk.
    let mut inputs = multi_inputs(n, 0, 42);
    inputs[1].1[2] = -4.0;
    assert_engines_agree(&multi_body_program(n, 0), &inputs, None);
}

/// Fuel exhaustion landing on every iteration of the widened shapes —
/// including points strictly inside a chunk. Abort step and partial
/// DRAM must be identical on all four engines.
#[test]
fn widened_shape_budget_aborts_are_identical() {
    let n = 3 * LANES;
    let multi = multi_body_program(n, 0);
    let multi_in = multi_inputs(n, 0, 51);
    let offset = offset_fill_program(n, 0, 3);
    let offset_in = [("vals", series(52, n, 64, 0.125))];
    let computed = computed_fill_program(n, 0);
    for fuel in 1..=(n as u64 + 16) {
        assert_engines_agree(&multi, &multi_in, Some(fuel));
        assert_engines_agree(&offset, &offset_in, Some(fuel));
        assert_engines_agree(&computed, &[], Some(fuel));
    }
}

/// Runs `p` with bounds-check elision forced on and forced off (on
/// both the vector and scalar bytecode engines) and asserts
/// bit-identical DRAM, results, and statistics — the elision table
/// must be observably invisible.
fn assert_elide_invisible(p: &SpatialProgram, writes: &[(&str, Vec<f64>)], fuel: Option<u64>) {
    let mut machines = Vec::new();
    for (vector, elide) in [(true, true), (true, false), (false, true), (false, false)] {
        let mut m = Machine::new(p);
        for (name, data) in writes {
            m.write_dram(name, data).unwrap();
        }
        if let Some(f) = fuel {
            m.set_budget(RunBudget::unlimited().with_max_steps(f));
        }
        m.set_vector_mode(vector);
        m.set_elide_mode(elide);
        let r = m.run(p);
        machines.push((vector, elide, m, r));
    }
    let (_, _, m0, r0) = &machines[0];
    for (vector, elide, m, r) in &machines[1..] {
        assert_eq!(r0, r, "elide divergence (vector={vector}, elide={elide})");
        for d in &p.drams {
            let bits = |m: &Machine| -> Vec<u64> {
                m.dram(&d.name)
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            };
            assert_eq!(
                bits(m0),
                bits(m),
                "DRAM {} elide divergence (vector={vector}, elide={elide})",
                d.name
            );
        }
        assert_eq!(
            m0.stats(),
            m.stats(),
            "stats elide divergence (vector={vector}, elide={elide})"
        );
    }
}

/// Bounds-check elision is observably invisible: dense fills (the
/// proven-in-bounds shape) and computed fills run bit-identically with
/// the elision table honored and ignored, across remainder lengths and
/// mid-loop fuel aborts.
#[test]
fn elide_mode_is_observably_invisible() {
    for &n in &[0usize, 1, LANES, 2 * LANES + 1, 5 * LANES + 3] {
        for lo in [0usize, 1] {
            let len = (lo + n).max(1);
            let vals = series((n + lo) as u64, len, 64, 0.125);
            assert_elide_invisible(&dense_fill_program(n, lo), &[("vals", vals)], None);
            assert_elide_invisible(&computed_fill_program(n, lo), &[], None);
        }
    }
    // Fuel aborts inside the elided loop land on the identical step.
    let n = 2 * LANES + 3;
    let vals = series(9, n, 64, 0.125);
    for fuel in 1..=(n as u64 + 8) {
        assert_elide_invisible(
            &dense_fill_program(n, 0),
            &[("vals", vals.clone())],
            Some(fuel),
        );
    }
    // The elision table licenses the dense fill.
    use stardust_spatial::CompiledProgram;
    let c = CompiledProgram::compile(&dense_fill_program(2 * LANES, 0));
    assert!(
        (0..c.ops().len()).any(|pc| c.elide_at(pc)),
        "dense fill carries no elision license"
    );
}
