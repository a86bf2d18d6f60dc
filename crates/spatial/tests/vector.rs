//! Differential tests for the data-parallel (vector) execution tier.
//!
//! The vector tier must be *observably invisible*: for every program it
//! chunks, the bytecode engine with vectorization on must produce
//! bitwise-identical DRAM, identical `ExecStats`, and identical errors
//! to the scalar bytecode engine and the string-keyed reference
//! engine. These tests sweep the remainder
//! lengths around the [`REDUCE_LANES`]-wide chunk (0, 1, 31, 32, 33,
//! 63, 64, 65, ...), misaligned loop starts, faulting lanes in the
//! middle of a chunk, and — the fuel-drift regression — step budgets
//! that exhaust *inside* a vector chunk, where the abort point must
//! land on the identical iteration with the identical partial DRAM.
//! Scatter-write loops (single- and multi-statement, dense, offset and
//! computed fills) get no vector class; they stay here as
//! engine-agreement inputs for the scalar single-op and body loops.
//! Raise `PROPTEST_CASES` for deeper sweeps (CI does). Every engine run
//! happens under the `STARDUST_FAULTS` plan when one is set, so CI's
//! chaos steps land injected errors, failed allocations and budget
//! clamps inside chunks too.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use stardust_spatial::ir::MemDecl;
use stardust_spatial::vector::REDUCE_LANES;
use stardust_spatial::{
    faults, BinSOp, CancelFlag, CompiledProgram, Counter, ExecStats, FaultPlan, Machine, MemKind,
    ReferenceMachine, RunBudget, RunError, SExpr, ScanOp, SpatialProgram, SpatialStmt, VecClass,
};

/// Runs `f` under the `STARDUST_FAULTS` environment plan when one is
/// set, installing a *fresh* plan per call so one-shot faults fire
/// identically for every engine. With the variable unset this is a
/// plain call.
fn with_env_faults<R>(f: impl FnOnce() -> R) -> R {
    // A malformed plan must fail the suite loudly — treating it as "no
    // faults" would run the chaos step as a vacuous no-op.
    match FaultPlan::from_env().expect("STARDUST_FAULTS is malformed") {
        Some(plan) => faults::with_plan(plan, f),
        None => f(),
    }
}

/// Asserts the result a fault-free run must reach. An injected plan
/// may abort the run before it gets there, so under one only the
/// engines' agreement is checked.
fn assert_clean_result(got: Result<ExecStats, RunError>, want: Result<ExecStats, RunError>) {
    if FaultPlan::from_env()
        .expect("STARDUST_FAULTS is malformed")
        .is_none()
    {
        assert_eq!(got, want);
    }
}

/// Asserts that a run with no fault plan completed.
fn assert_clean_ok(got: &Result<ExecStats, RunError>) {
    if FaultPlan::from_env()
        .expect("STARDUST_FAULTS is malformed")
        .is_none()
    {
        assert!(got.is_ok(), "fault-free run failed: {got:?}");
    }
}

/// A budget of `n` steps.
fn steps(n: u64) -> RunBudget {
    RunBudget::unlimited().with_max_steps(n)
}

/// Runs `p` three ways — bytecode with the vector tier forced on,
/// bytecode with it forced off, and the reference engine — and asserts
/// identical results (or errors), bitwise-identical DRAM, and identical
/// statistics. `budget` applies to all three.
fn assert_engines_agree(p: &SpatialProgram, writes: &[(&str, Vec<f64>)], budget: RunBudget) {
    let _ = agreed_result(p, writes, budget);
}

/// [`assert_engines_agree`], returning the run result all three agreed
/// on.
fn agreed_result(
    p: &SpatialProgram,
    writes: &[(&str, Vec<f64>)],
    budget: RunBudget,
) -> Result<ExecStats, RunError> {
    agreed_result_under(p, writes, budget, None)
}

/// [`agreed_result`] with every engine run under `plan` instead of the
/// `STARDUST_FAULTS` one, when given.
fn agreed_result_under(
    p: &SpatialProgram,
    writes: &[(&str, Vec<f64>)],
    budget: RunBudget,
    plan: Option<&FaultPlan>,
) -> Result<ExecStats, RunError> {
    let under = |f: &mut dyn FnMut() -> Result<ExecStats, RunError>| match plan {
        Some(plan) => faults::with_plan(plan.clone(), f),
        None => with_env_faults(f),
    };
    let mut vec_m = Machine::new(p);
    for (name, data) in writes {
        vec_m.write_dram(name, data).unwrap();
    }
    vec_m.set_budget(budget.clone());
    let mut scalar_m = vec_m.clone();
    let mut reference = ReferenceMachine::new(p);
    for (name, data) in writes {
        reference.write_dram(name, data).unwrap();
    }
    reference.set_budget(budget);
    vec_m.set_vector_mode(true);
    scalar_m.set_vector_mode(false);
    let rv = under(&mut || vec_m.run(p));
    let rs = under(&mut || scalar_m.run(p));
    let rr = under(&mut || reference.run(p));
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
/// `acc_s[crd_s[j]] += vb * vals_s[j]` — a scatter write with a
/// gathered index.
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

/// A dense fill over `j in [lo, lo+n)`: `s[j] = vals_s[j]` — a
/// scatter write indexed by the loop variable.
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
/// aligned and misaligned loop starts, on the reduce loop and the
/// scatter and dense-fill inputs.
#[test]
fn remainder_lengths_and_offsets_are_bit_identical() {
    const L: usize = REDUCE_LANES;
    let lengths = [
        0,
        1,
        L - 1,
        L,
        L + 1,
        2 * L - 1,
        2 * L,
        2 * L + 1,
        5 * L + 3,
    ];
    for &n in &lengths {
        for lo in [0usize, 1, 3, L - 1] {
            let seed = (n * 31 + lo) as u64;
            assert_engines_agree(
                &reduce_program(n, lo),
                &reduce_inputs(n, lo, seed),
                RunBudget::unlimited(),
            );
            assert_engines_agree(
                &scatter_program(n, lo),
                &scatter_inputs(n, lo, seed),
                RunBudget::unlimited(),
            );
            let len = (lo + n).max(1);
            assert_engines_agree(
                &dense_fill_program(n, lo),
                &[("vals", series(seed, len, 64, 0.125))],
                RunBudget::unlimited(),
            );
        }
    }
}

/// A faulting lane in the middle of a chunk: the error position, the
/// partial DRAM before it, and the statistics must match the scalar
/// engines exactly (the chunk is re-run scalar, committing nothing).
#[test]
fn faulting_lanes_mid_chunk_match_scalar_semantics() {
    const L: usize = REDUCE_LANES;
    let n = 3 * L;
    // Out-of-bounds destination index in the middle of the second chunk.
    let mut inputs = scatter_inputs(n, 0, 7);
    inputs[1].1[L + 13] = ACC as f64 + 5.0;
    assert_engines_agree(&scatter_program(n, 0), &inputs, RunBudget::unlimited());
    // Negative index in the middle of the first chunk.
    let mut inputs = scatter_inputs(n, 0, 8);
    inputs[1].1[L / 2] = -2.0;
    assert_engines_agree(&scatter_program(n, 0), &inputs, RunBudget::unlimited());
    // Out-of-bounds outer gather in the middle of the SpMV dot
    // product's last chunk.
    let mut inputs = reduce_inputs(n, 0, 9);
    inputs[1].1[2 * L + 17] = XS as f64;
    assert_engines_agree(&reduce_program(n, 0), &inputs, RunBudget::unlimited());
    // Negative inner index in the middle of its first chunk.
    let mut inputs = reduce_inputs(n, 0, 10);
    inputs[1].1[L / 2 + 1] = -1.0;
    assert_engines_agree(&reduce_program(n, 0), &inputs, RunBudget::unlimited());
    // A zero divisor is the same kind of lane fault: a typed error at
    // the exact iteration, in every build profile. `vb % vals[j]` with
    // a zero in the middle of the second chunk...
    let zero = Err(RunError::DivisionByZero);
    let mut inputs = scatter_inputs(n, 0, 11);
    inputs[0].1[L + 13] = 0.0;
    let p = scatter_program_with(BinSOp::Mod, n, 0);
    assert_clean_result(
        agreed_result(&p, &inputs, RunBudget::unlimited()),
        zero.clone(),
    );
    // ...`vals[j] / x[crd[j]]` with a zero behind a gather in the
    // middle of the last chunk...
    let mut inputs = reduce_inputs(n, 0, 12);
    inputs[1].1[2 * L + 17] = 5.0;
    inputs[2].1[5] = 0.0;
    let p = reduce_program_with(BinSOp::Div, n, 0);
    assert_clean_result(
        agreed_result(&p, &inputs, RunBudget::unlimited()),
        zero.clone(),
    );
    // ...and a loop-invariant zero divisor, `s[j] = j % 0`.
    let value = SExpr::bin(BinSOp::Mod, SExpr::var("j"), SExpr::Const(0.0));
    let p = dense_fill_program_with(value, n, 0);
    let vals = [("vals", series(13, n, 64, 0.125))];
    assert_clean_result(agreed_result(&p, &vals, RunBudget::unlimited()), zero);
}

/// The fuel-drift regression: sweep step budgets so exhaustion lands on
/// every iteration of the chunked loops — including points strictly
/// inside a vector chunk. The abort must come at the identical step
/// with byte-identical partial DRAM on all three engines.
#[test]
fn budget_aborts_inside_chunks_are_identical() {
    let n = 5 * REDUCE_LANES;
    let reduce = reduce_program(n, 0);
    let reduce_in = reduce_inputs(n, 0, 21);
    let scatter = scatter_program(n, 0);
    let scatter_in = scatter_inputs(n, 0, 22);
    for fuel in 1..=(n as u64 + 24) {
        assert_engines_agree(&reduce, &reduce_in, steps(fuel));
        assert_engines_agree(&scatter, &scatter_in, steps(fuel));
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

/// Bit-vector patterns over `dim` bits that stress the word walk:
/// empty vectors, single bits at word boundaries, dense words, and
/// ragged tails.
fn word_skip_patterns(dim: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    vec![
        (vec![], vec![]),
        (vec![0], vec![dim - 1]),
        (vec![63, 64, 65], vec![64]),
        (vec![5, 70, 130, dim - 1], vec![0, 1, 2, 3, 66, 131]),
        ((0..dim).step_by(2).collect(), (0..dim).step_by(3).collect()),
        ((64..128).collect(), vec![]),
    ]
}

/// The scan word-skip paths must all emit identically with the vector
/// tier on and off.
#[test]
fn scan_word_skip_is_bit_identical() {
    let dim = 200;
    for (a, b) in &word_skip_patterns(dim) {
        assert_engines_agree(&scan_union_program(a, b, dim), &[], RunBudget::unlimited());
        // One-sided: `or` against an all-zero vector walks `a` alone.
        assert_engines_agree(
            &scan_union_program(a, &[], dim),
            &[],
            RunBudget::unlimited(),
        );
    }
    // Budgeted scans: exhaustion must land on the identical emit.
    let (a, b): (Vec<usize>, Vec<usize>) =
        ((0..dim).step_by(5).collect(), (2..dim).step_by(7).collect());
    for fuel in 1..40 {
        assert_engines_agree(&scan_union_program(&a, &b, dim), &[], steps(fuel));
    }
}

/// The four lane statements a `VecClass::Scan` body admits, one
/// program each.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ScanBody {
    /// The scan's own fold, `Reduce(r)(Scan) { e + ix }` (Plus3 pass 1).
    Fold,
    /// `r := r + e` (InnerProd).
    AddReg,
    /// `fc.enq(ix); fv.enq(e - po)` (Plus3 pass 2).
    Enq,
    /// `oc(ctr) = ix; ov(ctr) = e; ctr := ctr + 1` (Plus2).
    Append,
}

const SCAN_BODIES: [ScanBody; 4] = [
    ScanBody::Fold,
    ScanBody::AddReg,
    ScanBody::Enq,
    ScanBody::Append,
];

/// A two-input scan over `a` (in `dim_a` bits) and `b` (in `dim_b`),
/// reading values `va[pa]` and `vb[pb]`, plus the knobs the fault
/// cases turn.
#[derive(Debug, Clone)]
struct ScanCase {
    op: ScanOp,
    a: Vec<usize>,
    dim_a: usize,
    b: Vec<usize>,
    dim_b: usize,
    /// Words of `va`/`vb`; shorter than a side's bit count faults a
    /// present lane.
    va_len: usize,
    vb_len: usize,
    /// Words of each append output.
    out_len: usize,
    /// The append counter's first value.
    ctr0: f64,
    /// Capacity of the enqueue FIFOs, and how many elements pass
    /// through them before the scan (so its pushes wrap the ring).
    fifo_cap: usize,
    prefill: usize,
}

impl ScanCase {
    fn new(op: ScanOp, a: &[usize], dim_a: usize, b: &[usize], dim_b: usize) -> ScanCase {
        let mut case = ScanCase {
            op,
            a: a.to_vec(),
            dim_a,
            b: b.to_vec(),
            dim_b,
            va_len: a.len().max(1),
            vb_len: b.len().max(1),
            out_len: 0,
            ctr0: 0.0,
            fifo_cap: 0,
            prefill: 0,
        };
        case.out_len = case.emits().max(1);
        case.fifo_cap = case.emits().max(1);
        case
    }

    /// How many positions the scan emits.
    fn emits(&self) -> usize {
        let in_b = |x: &usize| self.b.contains(x);
        match self.op {
            ScanOp::And => self.a.iter().filter(|x| in_b(x)).count(),
            ScanOp::Or => self.a.len() + self.b.iter().filter(|x| !self.a.contains(x)).count(),
        }
    }

    /// The per-emit value: guarded reads in a union, plain reads in an
    /// intersection, as the lowering emits them.
    fn value(&self) -> SExpr {
        let guarded = |p: &str, read: SExpr| {
            SExpr::select(
                SExpr::add(SExpr::var(p), SExpr::Const(1.0)),
                read,
                SExpr::Const(0.0),
            )
        };
        let va = SExpr::read("va", SExpr::var("pa"));
        let vb = SExpr::read_random("vb", SExpr::var("pb"));
        match self.op {
            ScanOp::Or => SExpr::add(guarded("pa", va), guarded("pb", vb)),
            ScanOp::And => SExpr::mul(va, vb),
        }
    }

    fn counter(&self) -> Counter {
        Counter::Scan2 {
            op: self.op,
            bv_a: "bva".into(),
            bv_b: "bvb".into(),
            a_pos_var: "pa".into(),
            b_pos_var: "pb".into(),
            out_pos_var: "po".into(),
            idx_var: "ix".into(),
        }
    }

    fn program(&self, body: ScanBody) -> SpatialProgram {
        let mut p = SpatialProgram::new(format!("vec_scan_{body:?}").to_lowercase());
        p.add_dram("va_d", self.va_len);
        p.add_dram("vb_d", self.vb_len);
        alloc(&mut p, "va", MemKind::Sram, self.va_len);
        alloc(&mut p, "vb", MemKind::SparseSram, self.vb_len);
        load_all(&mut p, "va", "va_d", self.va_len);
        load_all(&mut p, "vb", "vb_d", self.vb_len);
        bitvector(&mut p, "bva", &self.a, self.dim_a);
        bitvector(&mut p, "bvb", &self.b, self.dim_b);
        let reg = |name: &str| SExpr::RegRead(name.into());
        let set = |reg: &str, value: SExpr| SpatialStmt::SetReg {
            reg: reg.into(),
            value,
        };
        let store = |dst: &str, index: SExpr, value: SExpr| SpatialStmt::StoreScalar {
            dst: dst.into(),
            index,
            value,
        };
        let scan = |body: Vec<SpatialStmt>| SpatialStmt::Foreach {
            id: 0,
            counter: self.counter(),
            par: 16,
            body,
        };
        match body {
            ScanBody::Fold | ScanBody::AddReg => {
                p.add_dram("out", 1);
                alloc(&mut p, "r", MemKind::Reg, 1);
                p.accel.push(set("r", SExpr::Const(0.5)));
                p.accel.push(if body == ScanBody::Fold {
                    SpatialStmt::Reduce {
                        id: 0,
                        reg: "r".into(),
                        counter: self.counter(),
                        par: 16,
                        body: vec![],
                        expr: SExpr::add(self.value(), SExpr::var("ix")),
                    }
                } else {
                    scan(vec![set("r", SExpr::add(reg("r"), self.value()))])
                });
                p.accel.push(store("out", SExpr::Const(0.0), reg("r")));
            }
            ScanBody::Enq => {
                let n = self.emits();
                for (fifo, dram) in [("fc", "oc"), ("fv", "ov")] {
                    p.add_dram(dram, n.max(1));
                    p.add_dram(format!("pre_{dram}"), self.prefill.max(1));
                    alloc(&mut p, fifo, MemKind::Fifo, self.fifo_cap);
                    for k in 0..self.prefill {
                        p.accel.push(SpatialStmt::Enq {
                            fifo: fifo.into(),
                            value: SExpr::Const(k as f64),
                        });
                    }
                    p.accel.push(SpatialStmt::StreamStore {
                        dst: format!("pre_{dram}"),
                        offset: SExpr::Const(0.0),
                        fifo: fifo.into(),
                        len: SExpr::Const(self.prefill as f64),
                    });
                }
                p.accel.push(scan(vec![
                    SpatialStmt::Enq {
                        fifo: "fc".into(),
                        value: SExpr::var("ix"),
                    },
                    SpatialStmt::Enq {
                        fifo: "fv".into(),
                        value: SExpr::sub(self.value(), SExpr::var("po")),
                    },
                ]));
                for (fifo, dram) in [("fc", "oc"), ("fv", "ov")] {
                    p.accel.push(SpatialStmt::StreamStore {
                        dst: dram.into(),
                        offset: SExpr::Const(0.0),
                        fifo: fifo.into(),
                        len: SExpr::Const(n as f64),
                    });
                }
            }
            ScanBody::Append => {
                p.add_dram("oc", self.out_len);
                p.add_dram("ov", self.out_len);
                p.add_dram("octr", 1);
                alloc(&mut p, "ctr", MemKind::Reg, 1);
                p.accel.push(set("ctr", SExpr::Const(self.ctr0)));
                p.accel.push(scan(vec![
                    store("oc", reg("ctr"), SExpr::var("ix")),
                    store("ov", reg("ctr"), self.value()),
                    set("ctr", SExpr::add(reg("ctr"), SExpr::Const(1.0))),
                ]));
                p.accel.push(store("octr", SExpr::Const(0.0), reg("ctr")));
            }
        }
        p.assign_ids();
        p
    }

    fn inputs(&self, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
        vec![
            ("va_d", series(seed, self.va_len, 16, 0.25)),
            ("vb_d", series(seed ^ 0x5CA7, self.vb_len, 16, -3.5)),
        ]
    }

    /// Asserts the three engines agree on `body` under `budget`.
    fn check(&self, body: ScanBody, budget: RunBudget) -> Result<ExecStats, RunError> {
        agreed_result(
            &self.program(body),
            &self.inputs(self.emits() as u64),
            budget,
        )
    }
}

/// The word-walk patterns under both operators, plus sides of different
/// dimensions.
fn scan_cases() -> Vec<ScanCase> {
    let dim = 200;
    let mut sides = word_skip_patterns(dim)
        .into_iter()
        .map(|(a, b)| (a, dim, b, dim))
        .collect::<Vec<_>>();
    sides.push((
        (0..70).step_by(3).collect(),
        70,
        (0..dim).step_by(4).collect(),
        dim,
    ));
    sides.push(((0..dim).collect(), dim, (5..130).step_by(2).collect(), 130));
    sides.push((vec![63], 64, (0..65).collect(), 65));
    let mut cases = Vec::new();
    for (a, dim_a, b, dim_b) in &sides {
        for op in [ScanOp::And, ScanOp::Or] {
            cases.push(ScanCase::new(op, a, *dim_a, b, *dim_b));
        }
    }
    cases
}

/// Every admitted body, under both operators, compiles to a
/// `VecClass::Scan` loop — the shapes the tests below sweep take the
/// chunk path.
#[test]
fn scan_shapes_classify_as_scan() {
    let case = |op| ScanCase::new(op, &[1, 2, 3], 8, &[2, 3, 4], 8);
    for op in [ScanOp::And, ScanOp::Or] {
        for body in SCAN_BODIES {
            let c = CompiledProgram::compile(&case(op).program(body));
            assert!(
                (0..c.ops().len()).any(|pc| matches!(c.vec_class(pc), VecClass::Scan(_))),
                "{body:?} under {op:?} is not a scan-class loop"
            );
        }
    }
}

/// A union scan with the given body over the registers `r` and `ctr`,
/// the FIFO `f` and the DRAM array `out`.
fn scan_with_body(body: Vec<SpatialStmt>) -> SpatialProgram {
    let case = ScanCase::new(ScanOp::Or, &[1, 2, 3], 8, &[2, 3, 4], 8);
    let mut p = SpatialProgram::new("vec_scan_refused");
    p.add_dram("out", 8);
    alloc(&mut p, "va", MemKind::Sram, 4);
    alloc(&mut p, "r", MemKind::Reg, 1);
    alloc(&mut p, "ctr", MemKind::Reg, 1);
    alloc(&mut p, "f", MemKind::Fifo, 8);
    bitvector(&mut p, "bva", &case.a, case.dim_a);
    bitvector(&mut p, "bvb", &case.b, case.dim_b);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: case.counter(),
        par: 16,
        body,
    });
    p.assign_ids();
    p
}

/// Bodies of the admitted statement kinds that still must stay scalar:
/// a register update reading its own register inside `e`, two
/// statements with one target, an append whose counter advances before
/// the store, and a store whose counter never advances.
#[test]
fn scan_bodies_sharing_or_reading_targets_stay_scalar() {
    let reg = |name: &str| SExpr::RegRead(name.into());
    let va = SExpr::read("va", SExpr::var("pa"));
    let set = |reg: &str, value: SExpr| SpatialStmt::SetReg {
        reg: reg.into(),
        value,
    };
    let enq = |value: SExpr| SpatialStmt::Enq {
        fifo: "f".into(),
        value,
    };
    let store = |value: SExpr| SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: reg("ctr"),
        value,
    };
    let advance = set("ctr", SExpr::add(reg("ctr"), SExpr::Const(1.0)));
    let bodies = [
        vec![set(
            "r",
            SExpr::add(reg("r"), SExpr::mul(va.clone(), reg("r"))),
        )],
        vec![enq(SExpr::var("ix")), enq(SExpr::var("po"))],
        vec![advance.clone(), store(SExpr::var("ix"))],
        vec![store(SExpr::var("ix"))],
        vec![store(SExpr::var("ix")), advance, enq(reg("ctr"))],
    ];
    for body in bodies {
        let p = scan_with_body(body);
        let c = CompiledProgram::compile(&p);
        assert!(
            (0..c.ops().len()).all(|pc| c.vec_class(pc) == VecClass::None),
            "{:?} must stay scalar",
            p.accel.last()
        );
        assert_engines_agree(&p, &[], RunBudget::unlimited());
    }
}

/// Every admitted body over every word-walk pattern, both operators and
/// sides of different dimensions: bit-identical on all three engines.
#[test]
fn scan_shapes_are_bit_identical() {
    for case in scan_cases() {
        for body in SCAN_BODIES {
            assert_engines_agree(&case.program(body), &case.inputs(7), RunBudget::unlimited());
        }
    }
}

/// Faults a scan chunk must leave to the scalar loop: each aborts (or
/// takes the slow path) at the exact emit, with the exact partial DRAM
/// and statistics.
#[test]
fn scan_shape_faults_match_scalar_semantics() {
    let dim = 200;
    let a: Vec<usize> = (0..dim).step_by(2).collect();
    let b: Vec<usize> = (1..dim).step_by(3).collect();
    for op in [ScanOp::And, ScanOp::Or] {
        let base = ScanCase::new(op, &a, dim, &b, dim);
        let n = base.emits();
        // A present lane out of bounds mid-chunk, on either side.
        for body in SCAN_BODIES {
            let short_a = ScanCase {
                va_len: 45,
                ..base.clone()
            };
            assert!(short_a.check(body, RunBudget::unlimited()).is_err());
            let short_b = ScanCase {
                vb_len: 20,
                ..base.clone()
            };
            assert!(short_b.check(body, RunBudget::unlimited()).is_err());
            // One word short: under `Or` the last `a` position, the
            // largest a chunk can hold, is the first out of bounds.
            let one_short = ScanCase {
                va_len: a.len() - 1,
                ..base.clone()
            };
            let got = one_short.check(body, RunBudget::unlimited());
            assert!(op == ScanOp::And || got.is_err());
        }
        // The DRAM-word budget running out anywhere in the appends
        // (the loads take the first `va_len + vb_len` words).
        let loads = (base.va_len + base.vb_len) as u64;
        for words in loads..=loads + 2 * n as u64 + 2 {
            let budget = RunBudget::unlimited().with_max_dram_words(words);
            let _ = base.check(ScanBody::Append, budget);
        }
        // An append running past its array mid-chunk.
        let short_out = ScanCase {
            out_len: n / 2 + 3,
            ..base.clone()
        };
        assert!(short_out
            .check(ScanBody::Append, RunBudget::unlimited())
            .is_err());
        // A non-integral counter rounds (no error, scalar slow path); a
        // negative one faults the first store.
        let fractional = ScanCase {
            ctr0: 0.5,
            out_len: n + 2,
            ..base.clone()
        };
        let _ = fractional.check(ScanBody::Append, RunBudget::unlimited());
        let negative = ScanCase {
            ctr0: -3.0,
            ..base.clone()
        };
        assert!(negative
            .check(ScanBody::Append, RunBudget::unlimited())
            .is_err());
        // FIFO rings growing inside a chunk, and wrapping inside one.
        let growing = ScanCase {
            fifo_cap: 4,
            ..base.clone()
        };
        let _ = growing.check(ScanBody::Enq, RunBudget::unlimited());
        let wrapping = ScanCase {
            fifo_cap: n + 8,
            prefill: 20,
            ..base.clone()
        };
        let _ = wrapping.check(ScanBody::Enq, RunBudget::unlimited());
    }
}

/// Step budgets exhausting on every emit of every admitted body —
/// including emits strictly inside a chunk — and a raised cancel flag
/// whose amortized check lands inside one.
#[test]
fn scan_shape_budget_aborts_are_identical() {
    let dim = 200;
    let a: Vec<usize> = (0..dim).step_by(3).collect();
    let b: Vec<usize> = (0..dim).step_by(5).collect();
    let cancelled = CancelFlag::new();
    cancelled.cancel();
    for op in [ScanOp::And, ScanOp::Or] {
        let case = ScanCase::new(op, &a, dim, &b, dim);
        let n = case.emits() as u64;
        for body in SCAN_BODIES {
            for fuel in 1..=n + 8 {
                let _ = case.check(body, steps(fuel));
            }
            // The deadline/cancel check runs when the step countdown
            // crosses a multiple of 4096: `k` steps into the scan.
            for k in [1, 2, 31, 32, 33, n - 1] {
                let budget = steps(4096 + k).with_cancel(cancelled.clone());
                let _ = case.check(body, budget);
            }
        }
    }
}

/// A CSR row loop over `rows` rows — the `SegReduce` vector class:
/// per row, `Bind s = pos_s[i]; e = pos_s[i + 1]; n = e - s + d_s[i]`,
/// two FIFOs loaded from `crd[s..e]` and `vals[s..e]`, `Reduce(ws)`
/// over `0 until n` of `v * x_s[j]`, and `y[i] = ws` — or, with
/// `regs`, the MatTransMul shape around it: `acc = b_s[i] * 0.5`
/// before and `acc = acc + ws` before the store. When any row holds a
/// nonzero, a tail after the loop stores the state the last row left:
/// `ws`, the bound `e` and the last nonzero's `j` and `v`.
#[derive(Debug, Clone)]
struct SegCase {
    /// Nonzeros per row.
    lens: Vec<usize>,
    /// Declared size of the two FIFOs.
    fifo_cap: usize,
    regs: bool,
    /// Row bounds; the CSR prefix sums of `lens` unless a case bends
    /// them.
    pos: Vec<f64>,
    /// Column coordinates; all below [`XS`] unless a case bends one.
    crd: Vec<f64>,
    /// Per-row additions to the trip count `e - s`; zero unless a case
    /// bends one (past the FIFOs' contents, short of them, fractional,
    /// negative).
    delta: Vec<f64>,
    /// Words of the output `y`; fewer than the rows faults a store.
    y_len: usize,
}

impl SegCase {
    fn new(lens: &[usize], regs: bool, seed: u64) -> SegCase {
        let mut pos = vec![0.0];
        for &n in lens {
            pos.push(pos.last().unwrap() + n as f64);
        }
        let nnz: usize = lens.iter().sum();
        SegCase {
            lens: lens.to_vec(),
            fifo_cap: lens.iter().copied().max().unwrap_or(0).max(1),
            regs,
            pos,
            crd: series(seed ^ 0x5E6, nnz.max(1), XS as u64, 0.0),
            delta: vec![0.0; lens.len().max(1)],
            y_len: lens.len().max(1),
        }
    }

    fn rows(&self) -> usize {
        self.lens.len()
    }

    fn nnz(&self) -> usize {
        self.lens.iter().sum()
    }

    fn program(&self) -> SpatialProgram {
        let (rows, nnz) = (self.rows(), self.nnz().max(1));
        let mut p = SpatialProgram::new("vec_seg_reduce");
        p.add_dram("pos", rows + 1);
        p.add_dram("crd", nnz);
        p.add_dram("vals", nnz);
        p.add_dram("x", XS);
        p.add_dram("b", rows.max(1));
        p.add_dram("d", rows.max(1));
        p.add_dram("y", self.y_len);
        p.add_dram("tail", 4);
        alloc(&mut p, "pos_s", MemKind::Sram, rows + 1);
        load_all(&mut p, "pos_s", "pos", rows + 1);
        alloc(&mut p, "x_s", MemKind::SparseSram, XS);
        load_all(&mut p, "x_s", "x", XS);
        alloc(&mut p, "b_s", MemKind::Sram, rows.max(1));
        load_all(&mut p, "b_s", "b", rows.max(1));
        alloc(&mut p, "d_s", MemKind::Sram, rows.max(1));
        load_all(&mut p, "d_s", "d", rows.max(1));
        let bind = |var: &str, value: SExpr| SpatialStmt::Bind {
            var: var.into(),
            value,
        };
        let decl = |name: &str, kind, size| SpatialStmt::Alloc(MemDecl::new(name, kind, size));
        let load = |dst: &str, src: &str| SpatialStmt::Load {
            dst: dst.into(),
            src: src.into(),
            start: SExpr::var("s"),
            end: SExpr::var("e"),
            par: 1,
        };
        let mut body = Vec::new();
        if self.regs {
            body.push(decl("acc", MemKind::Reg, 1));
            body.push(SpatialStmt::SetReg {
                reg: "acc".into(),
                value: SExpr::mul(SExpr::read("b_s", SExpr::var("i")), SExpr::Const(0.5)),
            });
        }
        body.extend([
            decl("ws", MemKind::Reg, 1),
            bind("s", SExpr::read("pos_s", SExpr::var("i"))),
            bind(
                "e",
                SExpr::read("pos_s", SExpr::add(SExpr::var("i"), SExpr::Const(1.0))),
            ),
            bind(
                "n",
                SExpr::add(
                    SExpr::sub(SExpr::var("e"), SExpr::var("s")),
                    SExpr::read("d_s", SExpr::var("i")),
                ),
            ),
            decl("crd_f", MemKind::Fifo, self.fifo_cap),
            load("crd_f", "crd"),
            decl("vals_f", MemKind::Fifo, self.fifo_cap),
            load("vals_f", "vals"),
            SpatialStmt::Reduce {
                id: 0,
                reg: "ws".into(),
                counter: Counter::range_to("q", SExpr::var("n")),
                par: 1,
                body: vec![
                    bind("j", SExpr::Deq("crd_f".into())),
                    bind("v", SExpr::Deq("vals_f".into())),
                ],
                expr: SExpr::mul(SExpr::var("v"), SExpr::read_random("x_s", SExpr::var("j"))),
            },
        ]);
        let result = if self.regs {
            body.push(SpatialStmt::SetReg {
                reg: "acc".into(),
                value: SExpr::add(SExpr::RegRead("acc".into()), SExpr::RegRead("ws".into())),
            });
            "acc"
        } else {
            "ws"
        };
        body.push(SpatialStmt::StoreScalar {
            dst: "y".into(),
            index: SExpr::var("i"),
            value: SExpr::RegRead(result.into()),
        });
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(rows as f64)),
            par: 1,
            body,
        });
        if self.nnz() > 0 {
            let tail = [
                SExpr::RegRead("ws".into()),
                SExpr::var("e"),
                SExpr::var("j"),
                SExpr::var("v"),
            ];
            for (k, value) in tail.into_iter().enumerate() {
                p.accel.push(SpatialStmt::StoreScalar {
                    dst: "tail".into(),
                    index: SExpr::Const(k as f64),
                    value,
                });
            }
        }
        p.assign_ids();
        p
    }

    fn inputs(&self, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
        let nnz = self.nnz().max(1);
        vec![
            ("pos", self.pos.clone()),
            ("crd", self.crd.clone()),
            ("vals", series(seed, nnz, 16, 0.5)),
            ("x", series(seed ^ 0x77, XS, 32, -8.0)),
            ("b", series(seed ^ 0xB, self.rows().max(1), 8, 0.25)),
            ("d", self.delta.clone()),
        ]
    }

    /// The steps a fault-free run takes: one per row, one per nonzero.
    fn trips(&self) -> u64 {
        (self.rows() + self.nnz()) as u64
    }

    /// Asserts the three engines agree under `budget` (and the env
    /// fault plan).
    fn check(&self, budget: RunBudget) -> Result<ExecStats, RunError> {
        agreed_result(&self.program(), &self.inputs(self.nnz() as u64), budget)
    }
}

/// Row lengths around the nonzero chunk width, with empty first, middle
/// and last rows, and one-nonzero runs like a circuit matrix's.
fn seg_row_lengths() -> Vec<Vec<usize>> {
    vec![
        vec![],
        vec![0],
        vec![5],
        vec![0, 1, 2, 33, 70, 0],
        vec![70, 33, 2, 1, 0],
        vec![1; 40],
        vec![0, 0, 3, 0, 0, 31, 32, 33, 0],
        (0..37).map(|k| k % 5).collect(),
    ]
}

/// Both row-loop shapes compile to a `VecClass::SegReduce` loop — the
/// cases below take the segmented path.
#[test]
fn seg_shapes_classify_as_seg_reduce() {
    for regs in [false, true] {
        let c = CompiledProgram::compile(&SegCase::new(&[1, 2], regs, 0).program());
        assert!(
            (0..c.ops().len()).any(|pc| matches!(c.vec_class(pc), VecClass::SegReduce(_))),
            "row loop (regs: {regs}) is not a SegReduce loop"
        );
    }
}

/// Every row-length pattern, on both shapes: bit-identical on all three
/// engines, and with no fault plan the run completes.
#[test]
fn seg_row_lengths_are_bit_identical() {
    for lens in seg_row_lengths() {
        for regs in [false, true] {
            let case = SegCase::new(&lens, regs, lens.len() as u64);
            assert_clean_ok(&case.check(RunBudget::unlimited()));
        }
    }
}

/// Faults a segmented block must leave to the scalar loop, each at the
/// exact row with the exact partial DRAM and statistics: bounds that
/// are non-integral (rounded, no error), negative or decreasing, a
/// gather out of bounds in a middle row, a row longer than its FIFO's
/// declared size (the ring grows, no error), and the DRAM-word budget
/// running out anywhere.
#[test]
fn seg_faults_match_scalar_semantics() {
    let lens = [0, 1, 2, 33, 70, 0, 4, 3];
    for regs in [false, true] {
        let base = SegCase::new(&lens, regs, 7);
        let mut fractional = base.clone();
        fractional.pos[4] += 0.5;
        let _ = fractional.check(RunBudget::unlimited());
        let mut negative = base.clone();
        negative.pos[5] = -2.0;
        assert!(negative.check(RunBudget::unlimited()).is_err());
        let mut decreasing = base.clone();
        decreasing.pos[6] = decreasing.pos[5] - 3.0;
        assert!(decreasing.check(RunBudget::unlimited()).is_err());
        // A trip count past the row's FIFO contents underflows; one
        // short of them, fractional or negative does not fault.
        let mut past = base.clone();
        past.delta[3] = 1.0;
        assert!(past.check(RunBudget::unlimited()).is_err());
        for (row, d) in [(4, -1.0), (3, -33.0), (6, -0.5), (2, -5.0)] {
            let mut bent = base.clone();
            bent.delta[row] = d;
            let _ = bent.check(RunBudget::unlimited());
        }
        for at in [0, 1, 20, 40, base.nnz() - 1] {
            let mut oob = base.clone();
            oob.crd[at] = XS as f64 + 3.0;
            assert!(oob.check(RunBudget::unlimited()).is_err());
        }
        let short_y = SegCase {
            y_len: 5,
            ..base.clone()
        };
        assert!(short_y.check(RunBudget::unlimited()).is_err());
        let short_fifo = SegCase {
            fifo_cap: 40,
            ..base.clone()
        };
        assert_clean_ok(&short_fifo.check(RunBudget::unlimited()));
        // The prologue loads `rows + 1 + XS + 2 * rows` words; the rows
        // then load `2 * nnz` and store `rows`.
        let prologue = (3 * base.rows() + 1 + XS) as u64;
        let rows_words = (2 * base.nnz() + base.rows()) as u64;
        for words in prologue..=prologue + rows_words + 1 {
            let budget = RunBudget::unlimited().with_max_dram_words(words);
            let _ = base.check(budget);
        }
    }
}

/// A failed allocation at every allocation index of a 5-row program:
/// the three engines stop at the same `Alloc` with the same state.
#[test]
fn seg_failed_allocations_match_scalar_semantics() {
    for regs in [false, true] {
        let case = SegCase::new(&[2, 0, 33, 1, 4], regs, 3);
        let p = case.program();
        let inputs = case.inputs(5);
        let allocs = 4 + case.rows() as u64 * (3 + u64::from(regs));
        for k in 0..=allocs {
            let plan = FaultPlan {
                fail_alloc: Some(k),
                ..FaultPlan::default()
            };
            let r = agreed_result_under(&p, &inputs, RunBudget::unlimited(), Some(&plan));
            assert_eq!(r.is_err(), k < allocs, "fail_alloc={k}");
        }
    }
}

/// Step budgets exhausting on every step of a row loop — row tops,
/// nonzeros strictly inside a chunk, row boundaries inside one — and a
/// raised cancel flag whose amortized check lands inside a block.
#[test]
fn seg_budget_aborts_are_identical() {
    let cancelled = CancelFlag::new();
    cancelled.cancel();
    for regs in [false, true] {
        let case = SegCase::new(&[0, 1, 2, 33, 5, 0, 40, 1, 1, 0], regs, 11);
        let n = case.trips();
        for fuel in 1..=n + 8 {
            let _ = case.check(steps(fuel));
        }
        for k in [1, 2, 3, 31, 32, 33, 40, n - 1] {
            let budget = steps(4096 + k).with_cancel(cancelled.clone());
            let _ = case.check(budget);
        }
    }
}

/// Random (length, offset, data, fuel) sweeps over the reduce loop,
/// the scatter and dense-fill inputs, the row loop and the scan class,
/// with occasional faulting indices mixed in.
fn random_case(seed: u64) {
    let mut rng = TestRng::for_test(&format!("vector-{seed}"));
    let n = rng.below(2 * REDUCE_LANES as u64) as usize;
    let lo = rng.below(REDUCE_LANES as u64 / 2) as usize;
    let budget = match rng.below(3) {
        0 => RunBudget::unlimited(),
        _ => steps(1 + rng.below((n as u64 + 8) * 2)),
    };
    let shape = rng.below(5);
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
            assert_engines_agree(&reduce_program(n, lo), &inputs, budget);
        }
        1 => {
            let mut inputs = scatter_inputs(n, lo, seed);
            if n > 0 && rng.below(4) == 0 {
                let at = lo + rng.below(n as u64) as usize;
                inputs[1].1[at] = if rng.below(2) == 0 { -1.0 } else { ACC as f64 };
            }
            assert_engines_agree(&scatter_program(n, lo), &inputs, budget);
        }
        2 => {
            let len = (lo + n).max(1);
            assert_engines_agree(
                &dense_fill_program(n, lo),
                &[("vals", series(seed, len, 64, 0.125))],
                budget,
            );
        }
        3 => {
            // Random rows, each 0..40 nonzeros, on either shape.
            let rows = rng.below(12) as usize;
            let lens: Vec<usize> = (0..rows).map(|_| rng.below(41) as usize).collect();
            let mut case = SegCase::new(&lens, rng.below(2) == 0, seed);
            if case.nnz() > 0 && rng.below(4) == 0 {
                // A faulting gather somewhere in the rows.
                let at = rng.below(case.nnz() as u64) as usize;
                case.crd[at] = if rng.below(2) == 0 { -1.0 } else { XS as f64 };
            }
            if rng.below(4) == 0 {
                case.fifo_cap = 1 + rng.below(40) as usize;
            }
            let budget = match rng.below(3) {
                0 => RunBudget::unlimited(),
                _ => steps(1 + rng.below(case.trips() + 8)),
            };
            assert_engines_agree(&case.program(), &case.inputs(seed), budget);
        }
        _ => {
            // Two random bit vectors of random density and dimension.
            let side = |rng: &mut TestRng| {
                let dim = 1 + rng.below(3 * 64) as usize;
                let density = 1 + rng.below(4);
                let coords: Vec<usize> = (0..dim).filter(|_| rng.below(4) < density).collect();
                (coords, dim)
            };
            let (a, dim_a) = side(&mut rng);
            let (b, dim_b) = side(&mut rng);
            let op = if rng.below(2) == 0 {
                ScanOp::And
            } else {
                ScanOp::Or
            };
            let mut case = ScanCase::new(op, &a, dim_a, &b, dim_b);
            if rng.below(4) == 0 {
                // A present `a` lane out of bounds somewhere.
                case.va_len = 1 + rng.below(case.va_len as u64) as usize;
            }
            let body = SCAN_BODIES[rng.below(4) as usize];
            assert_engines_agree(&case.program(body), &case.inputs(seed), budget);
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
/// computed fill `s2[j] = j * 2.0`, run by the scalar body loop.
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

/// The offset dense fill `s[j + off] = vals_s[j]`: its index is the
/// `[VarConstBin, End]` expression program.
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

/// The computed dense fill `s[j] = j * 2.0`: its value is the
/// `[VarConstBin, End]` expression program.
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

/// Length and loop-start sweep over the multi-statement bodies, offset
/// fills, and computed fills: bit-identical across all three engines.
#[test]
fn multi_statement_and_fill_shapes_are_bit_identical() {
    for &n in &[0usize, 1, 7, 8, 9, 17, 43] {
        for lo in [0usize, 1, 7] {
            let seed = (n * 37 + lo) as u64;
            let len = (lo + n).max(1);
            assert_engines_agree(
                &multi_body_program(n, lo),
                &multi_inputs(n, lo, seed),
                RunBudget::unlimited(),
            );
            for off in [0usize, 1, 7] {
                assert_engines_agree(
                    &offset_fill_program(n, lo, off),
                    &[("vals", series(seed, len, 64, 0.125))],
                    RunBudget::unlimited(),
                );
            }
            assert_engines_agree(&computed_fill_program(n, lo), &[], RunBudget::unlimited());
        }
    }
}

/// A faulting statement in the middle of a multi-statement body: the
/// engines commit the exact statement prefix and abort at the
/// identical statement.
#[test]
fn multi_statement_faults_match_scalar_semantics() {
    let n = 24;
    // Out-of-bounds accumulate index at iteration 13: statement 1 of
    // that iteration faults *after* statement 0's write.
    let mut inputs = multi_inputs(n, 0, 41);
    inputs[1].1[13] = ACC as f64 + 3.0;
    assert_engines_agree(&multi_body_program(n, 0), &inputs, RunBudget::unlimited());
    // Negative index at iteration 2.
    let mut inputs = multi_inputs(n, 0, 42);
    inputs[1].1[2] = -4.0;
    assert_engines_agree(&multi_body_program(n, 0), &inputs, RunBudget::unlimited());
}

/// Fuel exhaustion landing on every iteration of the multi-statement
/// bodies, offset fills, and computed fills. Abort step and partial
/// DRAM must be identical on all three engines.
#[test]
fn multi_statement_and_fill_budget_aborts_are_identical() {
    let n = 24;
    let multi = multi_body_program(n, 0);
    let multi_in = multi_inputs(n, 0, 51);
    let offset = offset_fill_program(n, 0, 3);
    let offset_in = [("vals", series(52, n, 64, 0.125))];
    let computed = computed_fill_program(n, 0);
    for fuel in 1..=(n as u64 + 16) {
        assert_engines_agree(&multi, &multi_in, steps(fuel));
        assert_engines_agree(&offset, &offset_in, steps(fuel));
        assert_engines_agree(&computed, &[], steps(fuel));
    }
}

/// How [`wrapped_fifo_program`] drains its FIFO.
#[derive(Debug, Clone, Copy)]
enum Drain {
    /// `StreamStore` of `len` elements into `out`, of `out_len` words.
    Store { len: usize, out_len: usize },
    /// `GenBitVector` over `dim` bits, read back by a one-sided scan.
    BitVector { dim: usize },
}

/// Enqueues each of `vals` onto FIFO `fifo`.
fn enq_all(p: &mut SpatialProgram, fifo: &str, vals: &[f64]) {
    for &v in vals {
        p.accel.push(SpatialStmt::Enq {
            fifo: fifo.into(),
            value: SExpr::Const(v),
        });
    }
}

/// Stores every position of bit vector `bv` (of `dim` bits) into `out`:
/// `out[po] = ix` over a one-sided scan.
fn read_back_bits(p: &mut SpatialProgram, bv: &str, dim: usize) {
    p.add_dram("out", dim + 1);
    alloc(p, "none", MemKind::BitVector, dim);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan2 {
            op: ScanOp::Or,
            bv_a: bv.into(),
            bv_b: "none".into(),
            a_pos_var: "pa".into(),
            b_pos_var: "pb".into(),
            out_pos_var: "po".into(),
            idx_var: "ix".into(),
        },
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::var("po"),
            value: SExpr::var("ix"),
        }],
    });
}

/// A FIFO of `cap` words that `k` elements pass through first — its
/// head then sits `k % cap` words in, or, for `k > cap`, at the start of
/// a grown ring — then given `vals` and drained by `drain`.
fn wrapped_fifo_program(cap: usize, k: usize, vals: &[f64], drain: Drain) -> SpatialProgram {
    let mut p = SpatialProgram::new("vec_wrapped_fifo");
    p.add_dram("pre", k.max(1));
    alloc(&mut p, "f", MemKind::Fifo, cap);
    enq_all(
        &mut p,
        "f",
        &(0..k).map(|x| x as f64 + 0.5).collect::<Vec<_>>(),
    );
    p.accel.push(SpatialStmt::StreamStore {
        dst: "pre".into(),
        offset: SExpr::Const(0.0),
        fifo: "f".into(),
        len: SExpr::Const(k as f64),
    });
    enq_all(&mut p, "f", vals);
    match drain {
        Drain::Store { len, out_len } => {
            p.add_dram("out", out_len.max(1));
            p.accel.push(SpatialStmt::StreamStore {
                dst: "out".into(),
                offset: SExpr::Const(0.0),
                fifo: "f".into(),
                len: SExpr::Const(len as f64),
            });
        }
        Drain::BitVector { dim } => {
            alloc(&mut p, "bv", MemKind::BitVector, dim);
            p.accel.push(SpatialStmt::GenBitVector {
                dst: "bv".into(),
                src: "f".into(),
                src_start: SExpr::Const(0.0),
                count: SExpr::Const(vals.len() as f64),
                dim: SExpr::Const(dim as f64),
            });
            read_back_bits(&mut p, "bv", dim);
        }
    }
    p.assign_ids();
    p
}

/// `GenBitVector` over `dim` bits from the `count` words of an SRAM
/// loaded with `crd`, starting at word `start`, read back by a scan.
fn sram_bit_vector_program(crd: &[f64], start: usize, count: usize, dim: usize) -> SpatialProgram {
    let mut p = SpatialProgram::new("vec_sram_bit_vector");
    p.add_dram("crd", crd.len().max(1));
    alloc(&mut p, "crd_s", MemKind::Sram, crd.len().max(1));
    load_all(&mut p, "crd_s", "crd", crd.len());
    alloc(&mut p, "bv", MemKind::BitVector, dim);
    p.accel.push(SpatialStmt::GenBitVector {
        dst: "bv".into(),
        src: "crd_s".into(),
        src_start: SExpr::Const(start as f64),
        count: SExpr::Const(count as f64),
        dim: SExpr::Const(dim as f64),
    });
    read_back_bits(&mut p, "bv", dim);
    p.assign_ids();
    p
}

/// A FIFO whose ring has wrapped, or grown, before a `StreamStore`
/// drains it — into an array that fits, one too short, or past its
/// contents — and before a `GenBitVector` reads its coordinates, whose
/// run may then straddle the ring's end.
#[test]
fn wrapped_fifos_stream_store_and_generate_bit_vectors() {
    for cap in [1usize, 4, 7, 8, 33] {
        for k in 0..=cap + 2 {
            for m in [0, 1, cap.saturating_sub(1), cap, cap + 1] {
                let vals: Vec<f64> = (0..m).map(|x| x as f64 * 1.25 - 2.0).collect();
                for (len, out_len) in [(m, m), (m, m.saturating_sub(1)), (m + 1, m + 1)] {
                    let p = wrapped_fifo_program(cap, k, &vals, Drain::Store { len, out_len });
                    let got = agreed_result(&p, &[], RunBudget::unlimited());
                    if len == m && out_len == m {
                        assert_clean_ok(&got);
                    }
                }
                let dim = 2 * m + 3;
                let crd: Vec<f64> = (0..m).map(|x| ((x * 5 + k) % dim) as f64).collect();
                let p = wrapped_fifo_program(cap, k, &crd, Drain::BitVector { dim });
                assert_clean_ok(&agreed_result(&p, &[], RunBudget::unlimited()));
            }
        }
    }
}

/// A negative `GenBitVector` coordinate raises `NegativeIndex` at that
/// coordinate — with the counts and partial state of an out-of-range one
/// — from an SRAM and from a wrapped FIFO, on both engines; fractional
/// coordinates round, and NaN keeps `index_of`'s rule.
#[test]
fn gen_bit_vector_rejects_negative_coordinates() {
    let negative = |value: f64| {
        Err(RunError::NegativeIndex {
            context: "genbv coordinate".into(),
            value,
        })
    };
    let dim = 16;
    for at in [0usize, 3, 6] {
        for bad in [-1.0, -0.5, -7.0] {
            let mut crd = vec![1.0, 2.0, 4.0, 5.0, 9.0, 11.0, 15.0];
            crd[at] = bad;
            let p = sram_bit_vector_program(&crd, 0, crd.len(), dim);
            let inputs = [("crd", crd.clone())];
            assert_clean_result(
                agreed_result(&p, &inputs, RunBudget::unlimited()),
                negative(bad),
            );
            // From the FIFO, its run straddling the ring's end.
            let p = wrapped_fifo_program(8, 5, &crd, Drain::BitVector { dim });
            assert_clean_result(
                agreed_result(&p, &[], RunBudget::unlimited()),
                negative(bad),
            );
        }
    }
    // An out-of-range coordinate fails the same way, at its own index;
    // a start past the negative one skips it.
    let crd = [3.0, -1.0, 2.5, 2.4, f64::NAN, 0.0];
    let inputs = [("crd", crd.to_vec())];
    assert_clean_ok(&agreed_result(
        &sram_bit_vector_program(&crd, 2, 4, dim),
        &inputs,
        RunBudget::unlimited(),
    ));
    let too_far = [3.0, 16.0, -1.0];
    assert_clean_result(
        agreed_result(
            &sram_bit_vector_program(&too_far, 0, 3, dim),
            &[("crd", too_far.to_vec())],
            RunBudget::unlimited(),
        ),
        Err(RunError::OutOfBounds {
            mem: "bv".into(),
            index: 16,
            len: dim,
        }),
    );
}

/// The `Enq` sinks of a scan chunk, against rings of every fit: room
/// for whole chunks (one run per FIFO, wrapping past the ring's end when
/// the prefill left the head near it) and too little room, so a ring
/// grows mid-chunk and the pushes stay lane-major.
#[test]
fn scan_enq_runs_wrap_and_grow() {
    let dim = 200;
    let a: Vec<usize> = (0..dim).step_by(2).collect();
    let b: Vec<usize> = (1..dim).step_by(3).collect();
    for op in [ScanOp::And, ScanOp::Or] {
        let base = ScanCase::new(op, &a, dim, &b, dim);
        let n = base.emits();
        let lanes = REDUCE_LANES;
        for fifo_cap in [n + 40, n + 1, 2 * lanes, lanes + 1, lanes, 20, 1] {
            for prefill in [0, 1, 17, fifo_cap - 1, fifo_cap] {
                let case = ScanCase {
                    fifo_cap,
                    prefill,
                    ..base.clone()
                };
                assert_clean_ok(&case.check(ScanBody::Enq, RunBudget::unlimited()));
            }
        }
    }
}

/// Two `Enq` statements onto one FIFO in one scan get no vector class,
/// so their pushes interleave lane-major, as the scalar loop makes
/// them — through a ring that wraps and grows, stored back in order.
#[test]
fn scan_enqs_onto_one_fifo_stay_lane_major() {
    let case = ScanCase::new(
        ScanOp::Or,
        &[1, 2, 3, 40, 41, 90],
        100,
        &[2, 5, 64, 99],
        100,
    );
    let n = case.emits();
    for (cap, prefill) in [(2 * n, 2 * n - 3), (4, 3), (2 * n + 1, 0)] {
        let mut p = SpatialProgram::new("vec_scan_one_fifo");
        p.add_dram("pre", prefill.max(1));
        p.add_dram("out", 2 * n);
        alloc(&mut p, "f", MemKind::Fifo, cap);
        enq_all(&mut p, "f", &vec![7.0; prefill]);
        p.accel.push(SpatialStmt::StreamStore {
            dst: "pre".into(),
            offset: SExpr::Const(0.0),
            fifo: "f".into(),
            len: SExpr::Const(prefill as f64),
        });
        bitvector(&mut p, "bva", &case.a, case.dim_a);
        bitvector(&mut p, "bvb", &case.b, case.dim_b);
        let enq = |value: SExpr| SpatialStmt::Enq {
            fifo: "f".into(),
            value,
        };
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: case.counter(),
            par: 16,
            body: vec![enq(SExpr::var("ix")), enq(SExpr::var("po"))],
        });
        p.accel.push(SpatialStmt::StreamStore {
            dst: "out".into(),
            offset: SExpr::Const(0.0),
            fifo: "f".into(),
            len: SExpr::Const(2.0 * n as f64),
        });
        p.assign_ids();
        let c = CompiledProgram::compile(&p);
        assert!((0..c.ops().len()).all(|pc| c.vec_class(pc) == VecClass::None));
        assert_clean_ok(&agreed_result(&p, &[], RunBudget::unlimited()));
    }
}

/// The counts of `Scan`- and `Reduce`-tagged loops in `p`.
fn tagged(p: &SpatialProgram) -> (usize, usize) {
    let c = CompiledProgram::compile(p);
    let classes: Vec<VecClass> = (0..c.ops().len()).map(|pc| c.vec_class(pc)).collect();
    (
        classes
            .iter()
            .filter(|v| matches!(v, VecClass::Scan(_)))
            .count(),
        classes
            .iter()
            .filter(|v| matches!(v, VecClass::Reduce(_)))
            .count(),
    )
}

/// A row loop over `rows` rows whose body enters, in order, a
/// three-statement scan (two `Enq`s and its fold), a one-statement scan
/// (`r2 := r2 + e`) and an SpMV dot product — so each entry reuses a
/// plan box that an entry with more statements, or of the other kind,
/// filled before it.
fn plan_reuse_program(case: &ScanCase, rows: usize, m: usize) -> SpatialProgram {
    let mut p = SpatialProgram::new("vec_plan_reuse");
    let n = case.emits();
    p.add_dram("va_d", case.va_len);
    p.add_dram("vb_d", case.vb_len);
    p.add_dram("vals", m);
    p.add_dram("crd", m);
    p.add_dram("x", XS);
    for out in ["o1", "o2", "o3"] {
        p.add_dram(out, rows);
    }
    for out in ["oc", "ov"] {
        p.add_dram(out, (rows * n).max(1));
    }
    alloc(&mut p, "va", MemKind::Sram, case.va_len);
    alloc(&mut p, "vb", MemKind::SparseSram, case.vb_len);
    alloc(&mut p, "vals_s", MemKind::Sram, m);
    alloc(&mut p, "crd_s", MemKind::Sram, m);
    alloc(&mut p, "x_s", MemKind::SparseSram, XS);
    load_all(&mut p, "va", "va_d", case.va_len);
    load_all(&mut p, "vb", "vb_d", case.vb_len);
    load_all(&mut p, "vals_s", "vals", m);
    load_all(&mut p, "crd_s", "crd", m);
    load_all(&mut p, "x_s", "x", XS);
    bitvector(&mut p, "bva", &case.a, case.dim_a);
    bitvector(&mut p, "bvb", &case.b, case.dim_b);
    for reg in ["r1", "r2", "r3"] {
        alloc(&mut p, reg, MemKind::Reg, 1);
    }
    for fifo in ["fc", "fv"] {
        alloc(&mut p, fifo, MemKind::Fifo, (rows * n).max(1));
    }
    let reg = |name: &str| SExpr::RegRead(name.into());
    let or = ScanCase {
        op: ScanOp::Or,
        ..case.clone()
    };
    let and = ScanCase {
        op: ScanOp::And,
        ..case.clone()
    };
    let store = |dst: &str, value: SExpr| SpatialStmt::StoreScalar {
        dst: dst.into(),
        index: SExpr::var("i"),
        value,
    };
    let body = vec![
        SpatialStmt::Reduce {
            id: 1,
            reg: "r1".into(),
            counter: or.counter(),
            par: 16,
            body: vec![
                SpatialStmt::Enq {
                    fifo: "fc".into(),
                    value: SExpr::add(SExpr::var("ix"), SExpr::var("i")),
                },
                SpatialStmt::Enq {
                    fifo: "fv".into(),
                    value: SExpr::sub(or.value(), SExpr::var("po")),
                },
            ],
            expr: SExpr::add(or.value(), SExpr::var("ix")),
        },
        SpatialStmt::Foreach {
            id: 2,
            counter: and.counter(),
            par: 16,
            body: vec![SpatialStmt::SetReg {
                reg: "r2".into(),
                value: SExpr::add(reg("r2"), and.value()),
            }],
        },
        SpatialStmt::Reduce {
            id: 3,
            reg: "r3".into(),
            counter: Counter::range_to("j", SExpr::Const(m as f64)),
            par: 1,
            body: vec![],
            expr: SExpr::mul(
                SExpr::read("vals_s", SExpr::var("j")),
                SExpr::read_random("x_s", SExpr::read("crd_s", SExpr::var("j"))),
            ),
        },
        store("o1", reg("r1")),
        store("o2", reg("r2")),
        store("o3", reg("r3")),
    ];
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(rows as f64)),
        par: 1,
        body,
    });
    for (fifo, out) in [("fc", "oc"), ("fv", "ov")] {
        p.accel.push(SpatialStmt::StreamStore {
            dst: out.into(),
            offset: SExpr::Const(0.0),
            fifo: fifo.into(),
            len: SExpr::Const((rows * n) as f64),
        });
    }
    p.assign_ids();
    p
}

/// Nested scans and reduces entered again and again, each reusing a
/// plan box that a loop with more statements filled: every entry
/// resolves exactly its own statements, under step budgets too.
#[test]
fn reused_plan_boxes_resolve_only_their_own_statements() {
    let dim = 150;
    let a: Vec<usize> = (0..dim).step_by(2).collect();
    let b: Vec<usize> = (0..dim).step_by(3).collect();
    let case = ScanCase::new(ScanOp::Or, &a, dim, &b, dim);
    let (rows, m) = (3, 2 * REDUCE_LANES + 5);
    let p = plan_reuse_program(&case, rows, m);
    assert_eq!(
        tagged(&p),
        (2, 1),
        "both scans and the dot product are tagged"
    );
    let mut inputs = case.inputs(5);
    inputs.extend(reduce_inputs(m, 0, 5));
    assert_clean_ok(&agreed_result(&p, &inputs, RunBudget::unlimited()));
    for fuel in (1..400).step_by(7) {
        let _ = agreed_result(&p, &inputs, steps(fuel));
    }
}

/// A scan entry whose first chunk faults — a fractional append counter,
/// which the scalar loop rounds without an error — between two clean
/// entries of the same loop: the faulted entry gives its plan box back
/// and the next one resolves afresh.
#[test]
fn chunk_fault_mid_loop_then_a_clean_entry() {
    let dim = 120;
    let a: Vec<usize> = (0..dim).step_by(2).collect();
    let b: Vec<usize> = (1..dim).step_by(5).collect();
    for op in [ScanOp::And, ScanOp::Or] {
        let case = ScanCase::new(op, &a, dim, &b, dim);
        let n = case.emits();
        let rows = 3;
        let mut p = SpatialProgram::new("vec_fault_then_clean");
        p.add_dram("va_d", case.va_len);
        p.add_dram("vb_d", case.vb_len);
        p.add_dram("oc", n + 2);
        p.add_dram("ov", n + 2);
        p.add_dram("octr", rows);
        alloc(&mut p, "va", MemKind::Sram, case.va_len);
        alloc(&mut p, "vb", MemKind::SparseSram, case.vb_len);
        load_all(&mut p, "va", "va_d", case.va_len);
        load_all(&mut p, "vb", "vb_d", case.vb_len);
        bitvector(&mut p, "bva", &case.a, case.dim_a);
        bitvector(&mut p, "bvb", &case.b, case.dim_b);
        alloc(&mut p, "ctr", MemKind::Reg, 1);
        let ctr = || SExpr::RegRead("ctr".into());
        let store = |dst: &str, index: SExpr, value: SExpr| SpatialStmt::StoreScalar {
            dst: dst.into(),
            index,
            value,
        };
        // `ctr` starts at 0.5 in row 1 and at 0 in rows 0 and 2.
        let start = SExpr::select(
            SExpr::sub(SExpr::var("i"), SExpr::Const(1.0)),
            SExpr::Const(0.0),
            SExpr::Const(0.5),
        );
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(rows as f64)),
            par: 1,
            body: vec![
                SpatialStmt::SetReg {
                    reg: "ctr".into(),
                    value: start,
                },
                SpatialStmt::Foreach {
                    id: 1,
                    counter: case.counter(),
                    par: 16,
                    body: vec![
                        store("oc", ctr(), SExpr::add(SExpr::var("ix"), SExpr::var("i"))),
                        store("ov", ctr(), case.value()),
                        SpatialStmt::SetReg {
                            reg: "ctr".into(),
                            value: SExpr::add(ctr(), SExpr::Const(1.0)),
                        },
                    ],
                },
                store("octr", SExpr::var("i"), ctr()),
            ],
        });
        p.assign_ids();
        assert_eq!(tagged(&p).0, 1, "the append scan is tagged");
        assert_clean_ok(&agreed_result(&p, &case.inputs(3), RunBudget::unlimited()));
    }
}
