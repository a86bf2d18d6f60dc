//! Property tests for the link-and-lower pass: random well-formed
//! Spatial programs must compile without panicking, survive the printer
//! unchanged, compile to the same artifact every time, and execute
//! identically on both engines (flat bytecode, string-keyed reference).
//! Raise `PROPTEST_CASES` for deeper sweeps (CI does).

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use stardust_spatial::ir::MemDecl;
use stardust_spatial::printer::spatial_loc;
use stardust_spatial::{
    print_program, validate, BinSOp, CompiledProgram, Counter, Machine, MemKind, ReferenceMachine,
    RunBudget, RunError, SExpr, ScanOp, SpatialProgram, SpatialStmt, SymbolTable,
};

const SIZE: usize = 16;

/// A deterministic random *well-formed* program built from self-contained
/// feature blocks, each exercising a different statement/counter family.
/// Every block writes results to DRAM so engine divergence is observable.
fn random_program(seed: u64) -> SpatialProgram {
    let mut rng = TestRng::for_test(&format!("program-{seed}"));
    let mut p = SpatialProgram::new(format!("random_{seed}"));
    p.add_const("seed", seed as i64);
    p.add_dram("in0", SIZE);
    p.add_dram("in1", SIZE);
    p.add_sparse_dram("sp0", SIZE);
    p.add_dram("out0", SIZE);
    p.add_dram("out1", SIZE);

    let blocks = 3 + rng.below(5) as usize;
    for b in 0..blocks {
        let choice = rng.below(8);
        match choice {
            0 => load_store_block(&mut p, &mut rng, b),
            1 => scalar_loop_block(&mut p, &mut rng, b),
            2 => reduce_block(&mut p, &mut rng, b),
            3 => or_scan_against_zero_block(&mut p, &mut rng, b),
            4 => scan2_block(&mut p, &mut rng, b),
            5 => stream_store_block(&mut p, &mut rng, b),
            6 => rmw_block(&mut p, &mut rng, b),
            _ => nested_loop_block(&mut p, &mut rng, b),
        }
    }
    p.accel.push(SpatialStmt::Comment("generated".into()));
    p.assign_ids();
    p
}

fn small_const(rng: &mut TestRng) -> SExpr {
    SExpr::Const(rng.below(SIZE as u64) as f64)
}

/// A value expression over constants, an optional loop variable, and an
/// optional readable SRAM.
fn value_expr(rng: &mut TestRng, var: Option<&str>, sram: Option<&str>, depth: usize) -> SExpr {
    if depth == 0 {
        return match rng.below(3) {
            0 => SExpr::Const(rng.below(8) as f64),
            1 => var.map_or(SExpr::Const(1.0), SExpr::var),
            _ => SExpr::Const(rng.below(8) as f64 + 0.5),
        };
    }
    match rng.below(6) {
        0 => SExpr::add(
            value_expr(rng, var, sram, depth - 1),
            value_expr(rng, var, sram, depth - 1),
        ),
        1 => SExpr::mul(
            value_expr(rng, var, sram, depth - 1),
            value_expr(rng, var, sram, depth - 1),
        ),
        2 => SExpr::sub(
            value_expr(rng, var, sram, depth - 1),
            value_expr(rng, var, sram, depth - 1),
        ),
        3 => SExpr::Neg(Box::new(value_expr(rng, var, sram, depth - 1))),
        4 => SExpr::select(
            value_expr(rng, var, sram, depth - 1),
            value_expr(rng, var, sram, depth - 1),
            value_expr(rng, var, sram, depth - 1),
        ),
        _ => match sram {
            Some(s) => {
                let ix = match var {
                    Some(v) if rng.below(2) == 0 => SExpr::var(v),
                    _ => small_const(rng),
                };
                if rng.below(2) == 0 {
                    SExpr::read(s, ix)
                } else {
                    SExpr::read_random(s, ix)
                }
            }
            None => SExpr::Const(rng.below(8) as f64),
        },
    }
}

fn load_store_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let s = format!("ls_s{b}");
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&s, MemKind::Sram, SIZE)));
    let start = rng.below(SIZE as u64 / 2);
    let end = start + 1 + rng.below(SIZE as u64 / 2);
    p.accel.push(SpatialStmt::Load {
        dst: s.clone(),
        src: if rng.below(2) == 0 { "in0" } else { "in1" }.into(),
        start: SExpr::Const(start as f64),
        end: SExpr::Const(end as f64),
        par: 1 + rng.below(4) as usize,
    });
    let n = rng.below(end - start) + 1;
    p.accel.push(SpatialStmt::Store {
        dst: "out0".into(),
        offset: SExpr::Const(rng.below(SIZE as u64 - n) as f64),
        src: s,
        len: SExpr::Const(n as f64),
        par: 1,
    });
}

fn scalar_loop_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let s = format!("sl_s{b}");
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&s, MemKind::Sram, SIZE)));
    p.accel.push(SpatialStmt::Load {
        dst: s.clone(),
        src: "in0".into(),
        start: SExpr::Const(0.0),
        end: SExpr::Const(SIZE as f64),
        par: 1,
    });
    let trip = 1 + rng.below(SIZE as u64 - 1);
    let var = format!("i{b}");
    let value = value_expr(rng, Some(&var), Some(&s), 2);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to(&var, SExpr::Const(trip as f64)),
        par: 1 + rng.below(4) as usize,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out1".into(),
            index: SExpr::var(&var),
            value,
        }],
    });
}

fn reduce_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let r = format!("rd_r{b}");
    let f = format!("rd_f{b}");
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&r, MemKind::Reg, 1)));
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&f, MemKind::Fifo, SIZE)));
    let trip = 1 + rng.below(6);
    for _ in 0..trip {
        p.accel.push(SpatialStmt::Enq {
            fifo: f.clone(),
            value: SExpr::Const(rng.below(8) as f64),
        });
    }
    let var = format!("j{b}");
    let bound = format!("v{b}");
    p.accel.push(SpatialStmt::Reduce {
        id: 0,
        reg: r.clone(),
        counter: Counter::range_to(&var, SExpr::Const(trip as f64)),
        par: 1,
        body: vec![SpatialStmt::Bind {
            var: bound.clone(),
            value: SExpr::Deq(f),
        }],
        expr: SExpr::mul(SExpr::var(&bound), SExpr::var(&var)),
    });
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out0".into(),
        index: small_const(rng),
        value: SExpr::RegRead(r),
    });
}

fn coords(rng: &mut TestRng) -> Vec<u64> {
    let n = 1 + rng.below(6);
    let mut out: Vec<u64> = (0..n).map(|_| rng.below(SIZE as u64)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn bitvector_from_coords(p: &mut SpatialProgram, rng: &mut TestRng, name: &str) -> Vec<u64> {
    let cs = coords(rng);
    let fifo = format!("{name}_crd");
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        name,
        MemKind::BitVector,
        SIZE,
    )));
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&fifo, MemKind::Fifo, SIZE)));
    for &c in &cs {
        p.accel.push(SpatialStmt::Enq {
            fifo: fifo.clone(),
            value: SExpr::Const(c as f64),
        });
    }
    p.accel.push(SpatialStmt::GenBitVector {
        dst: name.into(),
        src: fifo,
        src_start: SExpr::Const(0.0),
        count: SExpr::Const(cs.len() as f64),
        dim: SExpr::Const(SIZE as f64),
    });
    cs
}

/// A one-input scan: `or` against an all-zero vector walks `bv`'s set
/// bits alone.
fn or_scan_against_zero_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let (bv, none) = (format!("s1_bv{b}"), format!("s1_none{b}"));
    bitvector_from_coords(p, rng, &bv);
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        &none,
        MemKind::BitVector,
        SIZE,
    )));
    let (pos, idx) = (format!("p{b}"), format!("x{b}"));
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan2 {
            op: ScanOp::Or,
            bv_a: bv,
            bv_b: none,
            a_pos_var: pos.clone(),
            b_pos_var: format!("q{b}"),
            out_pos_var: format!("o{b}"),
            idx_var: idx.clone(),
        },
        par: 1 + rng.below(2) as usize,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out1".into(),
            index: SExpr::var(&pos),
            value: SExpr::var(&idx),
        }],
    });
}

fn scan2_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let (bva, bvb) = (format!("s2_a{b}"), format!("s2_b{b}"));
    bitvector_from_coords(p, rng, &bva);
    bitvector_from_coords(p, rng, &bvb);
    let acc = format!("s2_acc{b}");
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        &acc,
        MemKind::SparseSram,
        SIZE,
    )));
    let vars = [
        format!("pa{b}"),
        format!("pb{b}"),
        format!("po{b}"),
        format!("ix{b}"),
    ];
    let op = if rng.below(2) == 0 {
        ScanOp::And
    } else {
        ScanOp::Or
    };
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan2 {
            op,
            bv_a: bva,
            bv_b: bvb,
            a_pos_var: vars[0].clone(),
            b_pos_var: vars[1].clone(),
            out_pos_var: vars[2].clone(),
            idx_var: vars[3].clone(),
        },
        par: 1,
        body: vec![SpatialStmt::WriteMem {
            mem: acc.clone(),
            index: SExpr::var(&vars[2]),
            value: SExpr::select(
                SExpr::add(SExpr::var(&vars[0]), SExpr::Const(1.0)),
                SExpr::var(&vars[3]),
                SExpr::Neg(Box::new(SExpr::var(&vars[1]))),
            ),
            random: true,
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out0".into(),
        offset: SExpr::Const(0.0),
        src: acc,
        len: SExpr::Const(SIZE as f64),
        par: 1,
    });
}

fn stream_store_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let f = format!("ss_f{b}");
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&f, MemKind::Fifo, SIZE)));
    let n = 1 + rng.below(SIZE as u64 / 2);
    for _ in 0..n {
        p.accel.push(SpatialStmt::Enq {
            fifo: f.clone(),
            value: SExpr::Const(rng.below(16) as f64 + 0.25),
        });
    }
    p.accel.push(SpatialStmt::StreamStore {
        dst: "out1".into(),
        offset: SExpr::Const(rng.below(SIZE as u64 - n) as f64),
        fifo: f,
        len: SExpr::Const(n as f64),
    });
}

fn rmw_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let acc = format!("rmw_a{b}");
    let kind = if rng.below(2) == 0 {
        MemKind::Sram
    } else {
        MemKind::SparseSram
    };
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&acc, kind, SIZE)));
    let var = format!("k{b}");
    let trip = 1 + rng.below(8);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to(&var, SExpr::Const(trip as f64)),
        par: 1,
        body: vec![SpatialStmt::RmwAdd {
            mem: acc.clone(),
            index: SExpr::bin(
                stardust_spatial::BinSOp::Mod,
                SExpr::var(&var),
                SExpr::Const(4.0),
            ),
            value: SExpr::read_random("sp0", SExpr::var(&var)),
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out0".into(),
        offset: SExpr::Const((SIZE / 2) as f64),
        src: acc,
        len: SExpr::Const(4.0),
        par: 1,
    });
}

fn nested_loop_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let s = format!("nl_s{b}");
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&s, MemKind::Sram, SIZE)));
    let (vo, vi) = (format!("o{b}"), format!("n{b}"));
    let (outer, inner) = (1 + rng.below(4), 1 + rng.below(4));
    let value = value_expr(rng, Some(&vi), None, 2);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to(&vo, SExpr::Const(outer as f64)),
        par: 2,
        body: vec![SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Range {
                var: vi.clone(),
                min: SExpr::Const(0.0),
                max: SExpr::Const(inner as f64),
                step: 1 + rng.below(2) as i64,
            },
            par: 1,
            body: vec![SpatialStmt::WriteMem {
                mem: s.clone(),
                index: SExpr::add(SExpr::var(&vo), SExpr::var(&vi)),
                value,
                random: false,
            }],
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out1".into(),
        offset: SExpr::Const(0.0),
        src: s,
        len: SExpr::Const(8.0),
        par: 1,
    });
}

/// Input images for the declared DRAM arrays, derived from the seed.
fn inputs(seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let mut rng = TestRng::for_test(&format!("inputs-{seed}"));
    ["in0", "in1", "sp0"]
        .into_iter()
        .map(|name| {
            let data = (0..SIZE)
                .map(|_| rng.below(16) as f64 - 4.0)
                .collect::<Vec<_>>();
            (name, data)
        })
        .collect()
}

/// Runs `f` under the `STARDUST_FAULTS` environment plan when one is
/// set (the CI fault-injection job's knob), installing a *fresh* plan
/// per call so one-shot faults fire identically for every engine. With
/// the variable unset this is a plain call.
fn with_env_faults<R>(f: impl FnOnce() -> R) -> R {
    // A malformed plan (typo'd key, bad value) must fail the suite
    // loudly — treating it as "no faults" would run the chaos sweep as
    // a vacuous no-op.
    match stardust_spatial::FaultPlan::from_env().expect("STARDUST_FAULTS is malformed") {
        Some(plan) => stardust_spatial::faults::with_plan(plan, f),
        None => f(),
    }
}

/// Runs `p` on both engines and asserts bitwise-identical DRAM
/// images and identical statistics (or identical errors). Under an
/// injected `STARDUST_FAULTS` plan the runs abort early — the engines
/// must then agree on the error *and* on every byte of the partial
/// DRAM state, since budget/fault charges land on the same loop
/// back-edges in both.
fn assert_engines_agree(p: &SpatialProgram, writes: &[(&str, Vec<f64>)]) {
    let mut fast = Machine::new(p);
    let mut reference = ReferenceMachine::new(p);
    for (name, data) in writes {
        fast.write_dram(name, data).unwrap();
        reference.write_dram(name, data).unwrap();
    }
    let fast_result = with_env_faults(|| fast.run(p));
    let ref_result = with_env_faults(|| reference.run(p));
    assert_eq!(fast_result, ref_result, "run results diverge");
    for d in &p.drams {
        let a: Vec<u64> = fast
            .dram(&d.name)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let b: Vec<u64> = reference
            .dram(&d.name)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(a, b, "DRAM {} diverges", d.name);
    }
    assert_eq!(fast.stats(), reference.stats(), "stats diverge");
}

/// The shared front of the zero-divisor programs: one store that must
/// survive in the partial DRAM, and `in0` loaded into the SRAM `s`.
fn zero_divisor_program(name: &str) -> SpatialProgram {
    let mut p = SpatialProgram::new(name);
    p.add_dram("in0", SIZE);
    p.add_sparse_dram("sp0", SIZE);
    p.add_dram("out0", SIZE);
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out0".into(),
        index: SExpr::Const(0.0),
        value: SExpr::Const(7.0),
    });
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, SIZE)));
    p.accel.push(SpatialStmt::Load {
        dst: "s".into(),
        src: "in0".into(),
        start: SExpr::Const(0.0),
        end: SExpr::Const(SIZE as f64),
        par: 1,
    });
    p
}

/// `out0[i + 1] = value` over `i in [0, 4)`.
fn store_loop(value: SExpr) -> SpatialStmt {
    SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(4.0)),
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out0".into(),
            index: SExpr::add(SExpr::var("i"), SExpr::Const(1.0)),
            value,
        }],
    }
}

/// A zero divisor is program data, not a program bug (position
/// arithmetic over an empty dimension divides by a runtime `n`): both
/// engines must raise the same typed error — in debug and release
/// alike, where this used to be a panic and an `inf`/`NaN` — with the
/// same partial DRAM and the same statistics. One program per way the
/// bytecode engine evaluates a `Div`/`Mod`.
#[test]
fn division_by_zero_is_one_typed_error_on_both_engines() {
    let sp0_at = |ix: SExpr| SExpr::read_random("sp0", ix);
    // Each program with the `out0[1]` it leaves behind.
    let mut programs = Vec::new();

    // `x % k` with `k` read at run time: fine on the first iteration,
    // zero on the second (the postfix `Binary` op).
    let mut p = zero_divisor_program("mod_runtime_k");
    p.accel.push(store_loop(SExpr::bin(
        BinSOp::Mod,
        SExpr::add(SExpr::var("i"), SExpr::Const(8.0)),
        sp0_at(SExpr::var("i")),
    )));
    programs.push((p, 2.0)); // 8 % 3, stored before the zero divisor

    // `x / 0` as a `Load` bound.
    let mut p = zero_divisor_program("div_load_bound");
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("t", MemKind::Sram, SIZE)));
    p.accel.push(SpatialStmt::Load {
        dst: "t".into(),
        src: "in0".into(),
        start: SExpr::Const(0.0),
        end: SExpr::bin(BinSOp::Div, SExpr::Const(8.0), sp0_at(SExpr::Const(1.0))),
        par: 1,
    });
    programs.push((p, 0.0));

    // `x / 0` as an SRAM index (the fused `mem[var op c]` operand), and
    // `x % 0` inside a longer expression (the fused `var op c` op).
    let mut p = zero_divisor_program("div_sram_index");
    p.accel.push(store_loop(SExpr::read(
        "s",
        SExpr::bin(BinSOp::Div, SExpr::var("i"), SExpr::Const(0.0)),
    )));
    programs.push((p, 0.0));
    let mut p = zero_divisor_program("mod_literal");
    p.accel.push(store_loop(SExpr::add(
        SExpr::bin(BinSOp::Mod, SExpr::var("i"), SExpr::Const(0.0)),
        SExpr::Const(1.0),
    )));
    programs.push((p, 0.0));

    // A zero-divisor index in a single-op scatter loop.
    let mut p = zero_divisor_program("mod_scatter_index");
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        "acc",
        MemKind::SparseSram,
        SIZE,
    )));
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(4.0)),
        par: 1,
        body: vec![SpatialStmt::RmwAdd {
            mem: "acc".into(),
            index: SExpr::bin(BinSOp::Mod, SExpr::var("i"), SExpr::Const(0.0)),
            value: SExpr::read("s", SExpr::var("i")),
        }],
    });
    programs.push((p, 0.0));

    // `in0` and `sp0` (these programs declare no `in1`), with the
    // divisors planted at the head of `sp0`.
    let mut writes = inputs(1);
    writes.remove(1);
    writes[1].1[..2].copy_from_slice(&[3.0, 0.0]);
    for (mut p, out1) in programs {
        p.assign_ids();
        validate(&p).expect("zero-divisor programs are well-formed");
        // Agreement on error, partial DRAM and statistics — also under
        // whatever `STARDUST_FAULTS` plan the chaos job installs.
        assert_engines_agree(&p, &writes);
        // And without a plan, the error both agree on is the typed one.
        let mut fast = Machine::new(&p);
        let mut reference = ReferenceMachine::new(&p);
        for (name, data) in &writes {
            fast.write_dram(name, data).unwrap();
            reference.write_dram(name, data).unwrap();
        }
        let want = Err(RunError::DivisionByZero);
        assert_eq!(fast.run(&p), want, "{}: bytecode engine", p.name);
        assert_eq!(reference.run(&p), want, "{}: reference engine", p.name);
        assert!(fast.poisoned(), "{}: an aborted run poisons", p.name);
        let out = fast.dram("out0").unwrap();
        assert_eq!(out[..2], [7.0, out1], "{}: the partial DRAM", p.name);
    }
}

/// Runs `p` with the vector tier on, with it off (the scalar loop), and
/// on the reference engine, all under the same step budget, and asserts
/// one result, bit-identical DRAM and identical statistics.
fn assert_tier_matches_scalar(p: &SpatialProgram, writes: &[(&str, Vec<f64>)], fuel: Option<u64>) {
    let mut tiered = Machine::new(p);
    let mut reference = ReferenceMachine::new(p);
    for (name, data) in writes {
        tiered.write_dram(name, data).unwrap();
        reference.write_dram(name, data).unwrap();
    }
    if let Some(steps) = fuel {
        tiered.set_budget(RunBudget::unlimited().with_max_steps(steps));
        reference.set_budget(RunBudget::unlimited().with_max_steps(steps));
    }
    let mut scalar = tiered.clone();
    scalar.set_vector_mode(false);
    let tiered_result = with_env_faults(|| tiered.run(p));
    let scalar_result = with_env_faults(|| scalar.run(p));
    let ref_result = with_env_faults(|| reference.run(p));
    assert_eq!(tiered_result, scalar_result, "vector tier vs scalar loop");
    assert_eq!(tiered_result, ref_result, "vector tier vs reference");
    for d in &p.drams {
        let bits = |words: &[f64]| words.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want = bits(tiered.dram(&d.name).unwrap());
        assert_eq!(want, bits(scalar.dram(&d.name).unwrap()), "DRAM {}", d.name);
        assert_eq!(
            want,
            bits(reference.dram(&d.name).unwrap()),
            "DRAM {}",
            d.name
        );
    }
    assert_eq!(tiered.stats(), scalar.stats(), "stats vs scalar loop");
    assert_eq!(tiered.stats(), reference.stats(), "stats vs reference");
}

/// The FIFO-fed inner product of the compiled SpMV family, row by row:
/// per row `i`, `val j = crd.deq; val v = vals.deq` feed one of the
/// Table-3 reduce expressions over `v`, `x(j)`, a loop-invariant
/// register and the loop variable, and `out0(i)` takes the row's sum.
/// Rows run up to two chunks and a remainder long; sometimes a
/// coordinate is out of range or negative, or a row's `crd` FIFO is one
/// element short, so a lane faults.
fn fifo_reduce_case(rng: &mut TestRng) -> (SpatialProgram, Vec<(&'static str, Vec<f64>)>) {
    let rows = 1 + rng.below(4) as usize;
    let n = rng.below(SIZE as u64 + 1) as usize;
    let short_row = (rng.below(6) == 0).then(|| rng.below(rows as u64) as usize);
    let mut p = SpatialProgram::new("fifo_reduce");
    p.add_dram("crd", rows * SIZE);
    p.add_dram("vals", rows * SIZE);
    p.add_sparse_dram("x", SIZE);
    p.add_dram("out0", SIZE);
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        "x_s",
        MemKind::SparseSram,
        SIZE,
    )));
    p.accel.push(SpatialStmt::Load {
        dst: "x_s".into(),
        src: "x".into(),
        start: SExpr::Const(0.0),
        end: SExpr::Const(SIZE as f64),
        par: 1,
    });
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("alpha", MemKind::Reg, 1)));
    p.accel.push(SpatialStmt::SetReg {
        reg: "alpha".into(),
        value: SExpr::read("x_s", SExpr::Const(1.0)),
    });
    let x_at = |ix: SExpr| SExpr::read_random("x_s", ix);
    let (v, j, q) = (SExpr::var("v"), SExpr::var("j"), SExpr::var("q"));
    let expr = match rng.below(5) {
        0 => SExpr::mul(v, x_at(j)),
        1 => SExpr::mul(SExpr::mul(SExpr::RegRead("alpha".into()), v), x_at(j)),
        2 => SExpr::Neg(Box::new(SExpr::mul(v, x_at(j)))),
        3 => SExpr::mul(SExpr::mul(v, x_at(q)), x_at(j)),
        _ => SExpr::add(
            SExpr::sub(v, q),
            SExpr::mul(x_at(j), SExpr::RegRead("alpha".into())),
        ),
    };
    let row_start = SExpr::mul(SExpr::var("i"), SExpr::Const(SIZE as f64));
    let row_load = |fifo: &str, src: &str, len: SExpr| SpatialStmt::Load {
        dst: fifo.into(),
        src: src.into(),
        start: row_start.clone(),
        end: SExpr::add(row_start.clone(), len),
        par: 1,
    };
    // The short row's `crd` FIFO holds `n - 1` coordinates.
    let crd_len = match short_row {
        Some(r) => SExpr::sub(
            SExpr::Const(n as f64),
            SExpr::select(
                SExpr::sub(SExpr::var("i"), SExpr::Const(r as f64)),
                SExpr::Const(0.0),
                SExpr::Const(1.0),
            ),
        ),
        None => SExpr::Const(n as f64),
    };
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(rows as f64)),
        par: 1,
        body: vec![
            SpatialStmt::Alloc(MemDecl::new("r", MemKind::Reg, 1)),
            SpatialStmt::Alloc(MemDecl::new("crd_f", MemKind::Fifo, SIZE)),
            row_load("crd_f", "crd", crd_len),
            SpatialStmt::Alloc(MemDecl::new("vals_f", MemKind::Fifo, SIZE)),
            row_load("vals_f", "vals", SExpr::Const(n as f64)),
            SpatialStmt::Reduce {
                id: 0,
                reg: "r".into(),
                counter: Counter::range_to("q", SExpr::Const(n as f64)),
                par: 1,
                body: vec![
                    SpatialStmt::Bind {
                        var: "j".into(),
                        value: SExpr::Deq("crd_f".into()),
                    },
                    SpatialStmt::Bind {
                        var: "v".into(),
                        value: SExpr::Deq("vals_f".into()),
                    },
                ],
                expr,
            },
            SpatialStmt::StoreScalar {
                dst: "out0".into(),
                index: SExpr::var("i"),
                value: SExpr::RegRead("r".into()),
            },
        ],
    });
    p.assign_ids();
    let mut crd: Vec<f64> = (0..rows * SIZE)
        .map(|_| rng.below(SIZE as u64) as f64)
        .collect();
    if n > 0 && rng.below(4) == 0 {
        let at = rng.below(rows as u64) as usize * SIZE + rng.below(n as u64) as usize;
        crd[at] = if rng.below(2) == 0 { -1.0 } else { SIZE as f64 };
    }
    // Inexact values, so a sum folded out of lane order rounds
    // differently.
    let vals = (0..rows * SIZE)
        .map(|_| rng.below(1000) as f64 / 7.0 - 70.0)
        .collect();
    let x = (0..SIZE)
        .map(|_| rng.below(100) as f64 / 3.0 - 16.0)
        .collect();
    (p, vec![("crd", crd), ("vals", vals), ("x", x)])
}

/// Names of every slot of one namespace, in slot order.
fn slot_names(count: usize, name: impl Fn(u32) -> String) -> Vec<String> {
    (0..count as u32).map(name).collect()
}

/// Two compiles of one program are the same artifact: equal bytecode,
/// fused and lane tables, vector classes, layouts and slot → name
/// tables.
fn assert_same_artifact(a: &CompiledProgram, b: &CompiledProgram) {
    assert_eq!(a.ops(), b.ops(), "ops");
    assert_eq!(a.eops(), b.eops(), "eops");
    assert_eq!(a.fused(), b.fused(), "fused");
    assert_eq!(a.lanes(), b.lanes(), "lanes");
    let classes = |c: &CompiledProgram| {
        (0..c.ops().len())
            .map(|pc| c.vec_class(pc))
            .collect::<Vec<_>>()
    };
    assert_eq!(classes(a), classes(b), "vec classes");
    assert_eq!(a.layout(), b.layout(), "layout");
    assert_eq!(a.dram_layout(), b.dram_layout(), "dram layout");
    assert_eq!(a.stmt_spans(), b.stmt_spans(), "stmt spans");
    let names = |s: &SymbolTable| {
        [
            slot_names(s.dram_count(), |i| s.dram_name(i).into()),
            slot_names(s.chip_count(), |i| s.chip_name(i).into()),
            slot_names(s.var_count(), |i| s.var_name(i).into()),
        ]
    };
    assert_eq!(names(a.syms()), names(b.syms()), "slot names");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random well-formed programs validate, link and lower without
    /// panicking, compile deterministically, and round-trip through the
    /// printer unchanged.
    #[test]
    fn random_programs_resolve_and_roundtrip(seed in 0u64..100_000) {
        let p = random_program(seed);
        validate(&p).expect("generated programs are well-formed");

        let printed_before = print_program(&p);
        let loc = spatial_loc(&p);

        let c1 = CompiledProgram::compile(&p);
        let c2 = CompiledProgram::compile(&p);
        assert_same_artifact(&c1, &c2);
        prop_assert!(c1.eops().len() < 10_000);

        // Compiling must not disturb the program: printing after the
        // pass reproduces the same source, line for line.
        let printed_after = print_program(&p);
        prop_assert_eq!(printed_before, printed_after);
        prop_assert_eq!(loc, spatial_loc(&p));

        // The static verifier has zero false positives: every artifact
        // the compiler produces passes (the mutation suite in
        // `verify.rs` covers the no-false-negative half).
        if let Err(e) = c1.verify() {
            panic!("verifier rejected a compiler output (seed {seed}): {e}");
        }
    }

    /// The bytecode engine and the reference engine agree — bitwise
    /// DRAM images, statistics, and errors — on random programs.
    #[test]
    fn random_programs_execute_identically(seed in 0u64..100_000) {
        let p = random_program(seed);
        assert_engines_agree(&p, &inputs(seed));
    }

    /// The FIFO-fed reduce shape under a step budget drawn to land
    /// anywhere in the run, mostly inside a 32-lane chunk: the vector
    /// tier's partial DRAM, error and statistics equal the scalar
    /// loop's (and the reference engine's), also when a lane faults.
    #[test]
    fn fifo_fed_reduce_budget_aborts_match_the_scalar_loop(seed in 0u64..100_000) {
        let mut rng = TestRng::for_test(&format!("fifo-reduce-{seed}"));
        let (p, writes) = fifo_reduce_case(&mut rng);
        let compiled = CompiledProgram::compile(&p);
        prop_assert!(
            (0..compiled.ops().len())
                .any(|pc| matches!(compiled.vec_class(pc), stardust_spatial::VecClass::Reduce(_))),
            "the FIFO-fed reduce must reach the vector tier"
        );
        let fuel = (rng.below(4) != 0).then(|| 1 + rng.below(4 * (SIZE as u64 + 6)));
        assert_tier_matches_scalar(&p, &writes, fuel);
    }
}
