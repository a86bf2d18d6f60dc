//! Mutation tests for the static bytecode verifier.
//!
//! The verifier's contract has two halves. *No false negatives*:
//! corrupt any structural invariant of a lowered program — body spans
//! and their nesting, slot extents, expression stack discipline —
//! and [`stardust_spatial::verify`] must reject the mutant. *No false
//! positives*: every artifact the compiler actually produces must
//! pass (also asserted per-seed by the random-program property suite
//! in `resolve_prop.rs`). These tests compile representative programs
//! covering every op family, then drive a systematic mutator over the
//! op and expression arrays and assert each mutant is rejected with a
//! typed [`VerifyError`].

use stardust_spatial::bytecode::{EOp, Op, Operand};
use stardust_spatial::ir::MemDecl;
use stardust_spatial::{
    verify, CompiledProgram, Counter, MemKind, SExpr, ScanOp, SpatialProgram, SpatialStmt,
    VerifyCtx, VerifyError,
};

fn alloc(p: &mut SpatialProgram, name: &str, kind: MemKind, size: usize) {
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(name, kind, size)));
}

fn range_loop(id: usize, var: &str, n: f64, body: Vec<SpatialStmt>) -> SpatialStmt {
    SpatialStmt::Foreach {
        id,
        counter: Counter::Range {
            var: var.into(),
            min: SExpr::Const(0.0),
            max: SExpr::Const(n),
            step: 1,
        },
        par: 1,
        body,
    }
}

/// A superinstruction-heavy program: `Alloc`/`Load`/`Bind`, a
/// `RangeSimple` whose body writes through a `Select` expression
/// (exercising `BranchFalse`/`Jump` expression control flow) and binds
/// a scaled gather (`VarBinGather`) and a computed-index read
/// (`ReadMem`), a reduction, and a `Store`.
fn simple_program() -> SpatialProgram {
    let n = 8usize;
    let mut p = SpatialProgram::new("verify_simple");
    p.add_dram("vals", n);
    p.add_dram("out", n);
    p.add_dram("sum", 1);
    alloc(&mut p, "vals_s", MemKind::Sram, n);
    alloc(&mut p, "s", MemKind::Sram, n);
    alloc(&mut p, "r", MemKind::Reg, 1);
    p.accel.push(SpatialStmt::Load {
        dst: "vals_s".into(),
        src: "vals".into(),
        start: SExpr::Const(0.0),
        end: SExpr::Const(n as f64),
        par: 1,
    });
    p.accel.push(SpatialStmt::Bind {
        var: "t".into(),
        value: SExpr::Const(2.0),
    });
    p.accel.push(range_loop(
        0,
        "j",
        n as f64,
        vec![
            SpatialStmt::WriteMem {
                mem: "s".into(),
                index: SExpr::var("j"),
                value: SExpr::select(
                    SExpr::read("vals_s", SExpr::var("j")),
                    SExpr::add(SExpr::var("j"), SExpr::var("t")),
                    SExpr::Const(0.0),
                ),
                random: false,
            },
            SpatialStmt::Bind {
                var: "u".into(),
                value: SExpr::mul(SExpr::var("t"), SExpr::read("vals_s", SExpr::var("j"))),
            },
            SpatialStmt::Bind {
                var: "w".into(),
                value: SExpr::read(
                    "vals_s",
                    SExpr::sub(SExpr::Const(n as f64 - 1.0), SExpr::var("j")),
                ),
            },
        ],
    ));
    p.accel.push(SpatialStmt::Reduce {
        id: 1,
        reg: "r".into(),
        counter: Counter::Range {
            var: "k".into(),
            min: SExpr::Const(0.0),
            max: SExpr::Const(n as f64),
            step: 1,
        },
        par: 1,
        body: vec![],
        expr: SExpr::read("vals_s", SExpr::var("k")),
    });
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "sum".into(),
        index: SExpr::Const(0.0),
        value: SExpr::RegRead("r".into()),
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        src: "s".into(),
        len: SExpr::Const(n as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

/// A nested program: four nested ranges, each a `RangeSimple` whose
/// body span holds the next, then one straight-line store after the
/// nest (so an inner span can overhang its parent's end without
/// leaving the program).
fn nested_program() -> SpatialProgram {
    let mut p = SpatialProgram::new("verify_nested");
    p.add_dram("out", 4);
    p.accel.push(range_loop(
        0,
        "i",
        3.0,
        vec![range_loop(
            1,
            "j",
            2.0,
            vec![range_loop(
                2,
                "k",
                2.0,
                vec![range_loop(
                    3,
                    "l",
                    2.0,
                    vec![SpatialStmt::StoreScalar {
                        dst: "out".into(),
                        index: SExpr::var("l"),
                        value: SExpr::add(SExpr::var("i"), SExpr::var("j")),
                    }],
                )],
            )],
        )],
    ));
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(3.0),
        value: SExpr::Const(7.0),
    });
    p.assign_ids();
    p
}

/// A scan/FIFO program: `Enq`, `GenBitVector`, a `Scan2Simple` that
/// walks `bv`'s set bits (`or` against an all-zero vector).
fn scan_program() -> SpatialProgram {
    let dim = 70usize;
    let mut p = SpatialProgram::new("verify_scan");
    p.add_dram("out", dim);
    alloc(&mut p, "bv", MemKind::BitVector, dim);
    alloc(&mut p, "none", MemKind::BitVector, dim);
    alloc(&mut p, "f", MemKind::Fifo, 4);
    for c in [3.0, 64.0, 69.0] {
        p.accel.push(SpatialStmt::Enq {
            fifo: "f".into(),
            value: SExpr::Const(c),
        });
    }
    p.accel.push(SpatialStmt::GenBitVector {
        dst: "bv".into(),
        src: "f".into(),
        src_start: SExpr::Const(0.0),
        count: SExpr::Const(3.0),
        dim: SExpr::Const(dim as f64),
    });
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan2 {
            op: ScanOp::Or,
            bv_a: "bv".into(),
            bv_b: "none".into(),
            a_pos_var: "p".into(),
            b_pos_var: "q".into(),
            out_pos_var: "o".into(),
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

/// Verifies a mutated copy of `c`'s op/eop arrays against `c`'s own
/// symbol table and layouts.
fn verify_mutant(c: &CompiledProgram, ops: &[Op], eops: &[EOp]) -> Result<(), VerifyError> {
    verify(&VerifyCtx {
        ops,
        eops,
        syms: c.syms(),
        layout: c.layout(),
        dram_layout: c.dram_layout(),
    })
}

/// A slot far beyond any table in these small test programs.
const BAD: u32 = 9_999;

/// Every mutant of `op` with one slot/reference field corrupted out of
/// range. Op families not used by the test programs have no mutants.
fn corrupted(op: &Op) -> Vec<Op> {
    let mut out = Vec::new();
    let mut push = |o: Op| out.push(o);
    match *op {
        Op::Alloc { slot, kind, size } => {
            push(Op::Alloc {
                slot: BAD,
                kind,
                size,
            });
            // Oversizing is sound for registers (a Reg occupies one
            // word regardless of the declared size) — skip those.
            if kind != MemKind::Reg {
                push(Op::Alloc {
                    slot,
                    kind,
                    size: size + 100_000,
                });
            }
        }
        Op::Bind { var: _, value } => push(Op::Bind { var: BAD, value }),
        Op::Load {
            dst,
            src: _,
            start,
            end,
        } => {
            push(Op::Load {
                dst: BAD,
                src: 0,
                start,
                end,
            });
            push(Op::Load {
                dst,
                src: BAD,
                start,
                end,
            });
        }
        Op::Store {
            dst,
            offset,
            src,
            len,
        } => {
            push(Op::Store {
                dst: BAD,
                offset,
                src,
                len,
            });
            push(Op::Store {
                dst,
                offset,
                src: BAD,
                len,
            });
        }
        Op::StoreScalar {
            dst: _,
            index,
            value,
        } => {
            push(Op::StoreScalar {
                dst: BAD,
                index,
                value,
            });
            push(Op::StoreScalar {
                dst: 0,
                index: Operand::Expr(BAD),
                value,
            });
        }
        Op::WriteMem {
            mem: _,
            index,
            value,
            random,
        } => {
            push(Op::WriteMem {
                mem: BAD,
                index,
                value,
                random,
            });
            push(Op::WriteMem {
                mem: 0,
                index: Operand::Var(BAD),
                value,
                random,
            });
            push(Op::WriteMem {
                mem: 0,
                index,
                value: Operand::Expr(BAD),
                random,
            });
        }
        Op::RmwAdd {
            mem: _,
            index,
            value,
        } => push(Op::RmwAdd {
            mem: BAD,
            index,
            value,
        }),
        Op::SetReg { reg: _, value } => push(Op::SetReg { reg: BAD, value }),
        Op::Enq { fifo: _, value } => push(Op::Enq { fifo: BAD, value }),
        Op::GenBitVector {
            dst,
            src: _,
            src_start,
            count,
            dim,
        } => {
            push(Op::GenBitVector {
                dst: BAD,
                src: 0,
                src_start,
                count,
                dim,
            });
            push(Op::GenBitVector {
                dst,
                src: BAD,
                src_start,
                count,
                dim,
            });
        }
        Op::RangeSimple {
            id,
            var,
            min,
            max,
            step,
            body,
            body_len,
            reduce,
        } => {
            // Corrupt the loop variable, the body target (must be
            // pc + 1), the body span (overrun), and the bound operand.
            push(Op::RangeSimple {
                id,
                var: BAD,
                min,
                max,
                step,
                body,
                body_len,
                reduce,
            });
            push(Op::RangeSimple {
                id,
                var,
                min,
                max,
                step,
                body: body + 1,
                body_len,
                reduce,
            });
            push(Op::RangeSimple {
                id,
                var,
                min,
                max,
                step,
                body,
                body_len: body_len + 100_000,
                reduce,
            });
            push(Op::RangeSimple {
                id,
                var,
                min: Operand::Expr(BAD),
                max,
                step,
                body,
                body_len,
                reduce,
            });
            if let Some((_, expr)) = reduce {
                push(Op::RangeSimple {
                    id,
                    var,
                    min,
                    max,
                    step,
                    body,
                    body_len,
                    reduce: Some((BAD, expr)),
                });
            }
        }
        Op::Scan2Simple {
            id,
            op,
            bv_a,
            bv_b,
            vars,
            body,
            body_len,
            reduce,
        } => {
            let scan = |bv_a, bv_b, vars, body, body_len| Op::Scan2Simple {
                id,
                op,
                bv_a,
                bv_b,
                vars,
                body,
                body_len,
                reduce,
            };
            push(scan(BAD, bv_b, vars, body, body_len));
            push(scan(bv_a, BAD, vars, body, body_len));
            push(scan(
                bv_a,
                bv_b,
                [vars[0], BAD, vars[2], vars[3]],
                body,
                body_len,
            ));
            push(scan(bv_a, bv_b, vars, body + 1, body_len));
            push(scan(bv_a, bv_b, vars, body, body_len + 100_000));
        }
        _ => {}
    }
    out
}

/// The three representative compiles pass the verifier untouched (the
/// no-false-positive half on fixed programs; `resolve_prop.rs` sweeps
/// random ones).
#[test]
fn compiler_outputs_verify_clean() {
    for p in [simple_program(), nested_program(), scan_program()] {
        let c = CompiledProgram::compile(&p);
        c.verify()
            .unwrap_or_else(|e| panic!("{} rejected: {e}", p.name));
        // And through the borrowed-context path tests use for mutants.
        verify_mutant(&c, c.ops(), c.eops()).unwrap();
    }
}

/// Dropping the final `Halt` is rejected with `MissingHalt`; an empty
/// program likewise.
#[test]
fn truncated_programs_are_rejected() {
    let c = CompiledProgram::compile(&simple_program());
    let ops = &c.ops()[..c.ops().len() - 1];
    assert_eq!(
        verify_mutant(&c, ops, c.eops()),
        Err(VerifyError::MissingHalt)
    );
    assert_eq!(
        verify_mutant(&c, &[], c.eops()),
        Err(VerifyError::MissingHalt)
    );
}

/// Overwriting any non-final op with `Halt` is rejected, inside a
/// body span or not.
#[test]
fn stray_halts_are_rejected() {
    for p in [simple_program(), nested_program(), scan_program()] {
        let c = CompiledProgram::compile(&p);
        for pc in 0..c.ops().len() - 1 {
            let mut ops = c.ops().to_vec();
            ops[pc] = Op::Halt;
            assert!(
                verify_mutant(&c, &ops, c.eops()).is_err(),
                "{}: Halt at pc {pc} accepted",
                p.name
            );
        }
    }
}

/// Every single-field slot/target corruption of every op in every
/// representative program is rejected.
#[test]
fn slot_and_target_corruptions_are_rejected() {
    for p in [simple_program(), nested_program(), scan_program()] {
        let c = CompiledProgram::compile(&p);
        let mut mutants = 0usize;
        for pc in 0..c.ops().len() {
            for bad in corrupted(&c.ops()[pc]) {
                let mut ops = c.ops().to_vec();
                let desc = format!("{}: pc {pc} mutated to {bad:?}", p.name);
                ops[pc] = bad;
                assert!(
                    verify_mutant(&c, &ops, c.eops()).is_err(),
                    "{desc} accepted"
                );
                mutants += 1;
            }
        }
        assert!(mutants >= 5, "{}: mutator produced too few cases", p.name);
    }
}

/// Span-nesting mutations: growing an inner loop's span one op past
/// its parent's end, still inside the program, is rejected at the
/// inner loop; growing the outermost loop's span over the trailing
/// store is a well-formed program and passes.
#[test]
fn overhanging_spans_are_rejected() {
    let c = CompiledProgram::compile(&nested_program());
    let ops = c.ops();
    let span_end = |op: &Op| match *op {
        Op::RangeSimple { body, body_len, .. } => (body + body_len) as usize,
        _ => panic!("expected RangeSimple, got {op:?}"),
    };
    let grown = |op: &Op, by: u32| match *op {
        Op::RangeSimple {
            id,
            var,
            min,
            max,
            step,
            body,
            body_len,
            reduce,
        } => Op::RangeSimple {
            id,
            var,
            min,
            max,
            step,
            body,
            body_len: body_len + by,
            reduce,
        },
        _ => panic!("expected RangeSimple, got {op:?}"),
    };
    for pc in 1..4 {
        let parent_end = span_end(&ops[pc - 1]);
        let mut m = ops.to_vec();
        m[pc] = grown(&ops[pc], (parent_end - span_end(&ops[pc])) as u32 + 1);
        assert!(span_end(&m[pc]) < ops.len(), "mutant stays in the program");
        assert_eq!(
            verify_mutant(&c, &m, c.eops()),
            Err(VerifyError::BodyOutOfRange { pc }),
            "span at pc {pc} overhangs its parent"
        );
    }
    let mut m = ops.to_vec();
    m[0] = grown(&ops[0], 1);
    verify_mutant(&c, &m, c.eops()).expect("outermost span may grow up to Halt");
}

/// Expression-program mutations: truncation (no `End`), backward
/// jumps, and stack-discipline violations are rejected.
#[test]
fn expression_corruptions_are_rejected() {
    let c = CompiledProgram::compile(&simple_program());
    let eops = c.eops();
    assert!(
        eops.iter().any(|e| matches!(e, EOp::BranchFalse { .. })),
        "select lowering should emit BranchFalse"
    );

    // Truncate the array: some referenced program loses its End.
    for cut in 1..eops.len() {
        let _ = verify_mutant(&c, c.ops(), &eops[..cut]);
        // Not every cut invalidates a *referenced* program, but the
        // verifier must never panic on one; the specific cut below is
        // provably bad.
    }
    let last_end = eops
        .iter()
        .rposition(|e| matches!(e, EOp::End))
        .expect("programs end with End");
    assert!(
        verify_mutant(&c, c.ops(), &eops[..last_end]).is_err(),
        "truncated expression program accepted"
    );

    // Redirect every jump backward (or out of range): forward-only
    // control flow must reject each.
    for (i, e) in eops.iter().enumerate() {
        let (is_jump, back, far) = match *e {
            EOp::BranchFalse { .. } => (
                true,
                EOp::BranchFalse { target: 0 },
                EOp::BranchFalse {
                    target: eops.len() as u32 + 7,
                },
            ),
            EOp::Jump { .. } => (
                true,
                EOp::Jump { target: 0 },
                EOp::Jump {
                    target: eops.len() as u32 + 7,
                },
            ),
            _ => (false, EOp::End, EOp::End),
        };
        if !is_jump {
            continue;
        }
        for bad in [back, far] {
            let mut m = eops.to_vec();
            m[i] = bad;
            assert!(
                verify_mutant(&c, c.ops(), &m).is_err(),
                "corrupt jump at eop {i} accepted"
            );
        }
    }

    // Stack discipline: make a binary op pop from an empty stack by
    // deleting its first operand push.
    let bin_at = eops
        .iter()
        .position(|e| matches!(e, EOp::Binary(_)))
        .expect("simple program has a Binary eop");
    let mut m = eops.to_vec();
    // Replace the op *before* the binary with a no-operand jump to it:
    // the binary now pops two with at most one on the stack.
    m[bin_at - 1] = EOp::Jump {
        target: bin_at as u32,
    };
    assert!(
        verify_mutant(&c, c.ops(), &m).is_err(),
        "stack underflow accepted"
    );

    // An extra value left on the stack at End.
    let mut m = eops.to_vec();
    m[bin_at] = EOp::Const(1.0);
    assert!(
        verify_mutant(&c, c.ops(), &m).is_err(),
        "non-unit result depth accepted"
    );
}

/// Every slot field of every expression op that carries one, corrupted
/// out of range, is rejected: the memory-reading operand shapes are
/// expression programs, so `check_expr` is their only verifier path.
#[test]
fn expression_slot_corruptions_are_rejected() {
    let c = CompiledProgram::compile(&simple_program());
    let eops = c.eops();
    let mut mutated = std::collections::BTreeMap::<&str, usize>::new();
    for (i, e) in eops.iter().enumerate() {
        let (kind, bad) = match *e {
            EOp::Var(_) => ("Var", vec![EOp::Var(BAD)]),
            EOp::RegRead(_) => ("RegRead", vec![EOp::RegRead(BAD)]),
            EOp::ReadMem { chip, dram, random } => (
                "ReadMem",
                vec![
                    EOp::ReadMem {
                        chip: BAD,
                        dram,
                        random,
                    },
                    EOp::ReadMem {
                        chip,
                        dram: BAD,
                        random,
                    },
                ],
            ),
            EOp::VarReadMem {
                chip,
                dram,
                random,
                var,
            } => (
                "VarReadMem",
                vec![
                    EOp::VarReadMem {
                        chip: BAD,
                        dram,
                        random,
                        var,
                    },
                    EOp::VarReadMem {
                        chip,
                        dram: BAD,
                        random,
                        var,
                    },
                    EOp::VarReadMem {
                        chip,
                        dram,
                        random,
                        var: BAD,
                    },
                ],
            ),
            EOp::VarBinGather {
                a,
                op,
                chip,
                dram,
                random,
                ivar,
            } => {
                let gather = |a, chip, dram, ivar| EOp::VarBinGather {
                    a,
                    op,
                    chip,
                    dram,
                    random,
                    ivar,
                };
                (
                    "VarBinGather",
                    vec![
                        gather(BAD, chip, dram, ivar),
                        gather(a, chip, dram, BAD),
                        gather(a, BAD, dram, ivar),
                        gather(a, chip, BAD, ivar),
                    ],
                )
            }
            EOp::VarConstBin { c, op, .. } => {
                ("VarConstBin", vec![EOp::VarConstBin { var: BAD, c, op }])
            }
            _ => continue,
        };
        for bad in bad {
            let mut m = eops.to_vec();
            m[i] = bad;
            assert!(
                verify_mutant(&c, c.ops(), &m).is_err(),
                "{bad:?} at eop {i} accepted"
            );
            *mutated.entry(kind).or_default() += 1;
        }
    }
    for kind in ["Var", "RegRead", "ReadMem", "VarReadMem", "VarBinGather"] {
        assert!(mutated.contains_key(kind), "no {kind} eop to mutate");
    }
}
