use super::*;
use crate::ir::{Counter, MemDecl, SExpr, SpatialProgram, SpatialStmt};
use crate::reference::ReferenceMachine;

/// Runs `program` on both engines (bytecode, string-keyed
/// reference) with the given DRAM inputs and asserts byte-identical
/// DRAM contents plus identical statistics (or identical errors).
fn assert_engines_agree(program: &SpatialProgram, writes: &[(&str, Vec<f64>)]) -> ExecStats {
    let mut fast = Machine::new(program);
    let mut reference = ReferenceMachine::new(program);
    for (name, data) in writes {
        fast.write_dram(name, data).unwrap();
        reference.write_dram(name, data).unwrap();
    }
    let fast_result = fast.run(program);
    let ref_result = reference.run(program);
    assert_eq!(fast_result, ref_result, "run results diverge");
    for d in &program.drams {
        let a = fast.dram(&d.name).unwrap();
        let b = reference.dram(&d.name).unwrap();
        let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
        let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a_bits, b_bits, "DRAM {} diverges", d.name);
    }
    assert_eq!(fast.stats(), reference.stats(), "stats diverge");
    fast_result.unwrap_or_else(|_| fast.stats().clone())
}

/// A one-input scan of `bv`'s set bits: `or` against `none`, an
/// all-zero bit vector of the same dimension, emits exactly `bv`'s set
/// bits and binds `pos` to the running position among them and `idx`
/// to the coordinate. Every entry examines both vectors, so
/// `scan_bits` counts twice the dimension.
fn scan_one(bv: &str, none: &str, pos: &str, idx: &str) -> Counter {
    Counter::Scan2 {
        op: ScanOp::Or,
        bv_a: bv.into(),
        bv_b: none.into(),
        a_pos_var: pos.into(),
        b_pos_var: format!("{pos}_b"),
        out_pos_var: format!("{pos}_out"),
        idx_var: idx.into(),
    }
}

/// Allocates the all-zero bit vector `name` of `dim` bits.
fn zero_bits(p: &mut SpatialProgram, name: &str, dim: usize) {
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        name,
        MemKind::BitVector,
        dim,
    )));
}

#[test]
fn doc_example_doubles_vector() {
    let mut p = SpatialProgram::new("double");
    p.add_dram("x", 4);
    p.add_dram("y", 4);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("xs", MemKind::Sram, 4)));
    p.accel.push(SpatialStmt::Load {
        dst: "xs".into(),
        src: "x".into(),
        start: SExpr::Const(0.0),
        end: SExpr::Const(4.0),
        par: 1,
    });
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(4.0)),
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "y".into(),
            index: SExpr::var("i"),
            value: SExpr::mul(SExpr::read("xs", SExpr::var("i")), SExpr::Const(2.0)),
        }],
    });
    p.assign_ids();
    let mut m = Machine::new(&p);
    m.write_dram("x", &[1.0, 2.0, 3.0, 4.0]).unwrap();
    let stats = m.run(&p).unwrap();
    assert_eq!(m.dram("y").unwrap(), &[2.0, 4.0, 6.0, 8.0]);
    assert_eq!(stats.trips(0), 4);
    assert_eq!(stats.dram_reads["x"], 4);
    assert_eq!(stats.dram_random_writes, 4);
    assert_engines_agree(&p, &[("x", vec![1.0, 2.0, 3.0, 4.0])]);
}

#[test]
fn reduce_accumulates() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 1);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
    p.accel.push(SpatialStmt::Reduce {
        id: 0,
        reg: "acc".into(),
        counter: Counter::range_to("i", SExpr::Const(5.0)),
        par: 1,
        body: vec![],
        expr: SExpr::var("i"),
    });
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(0.0),
        value: SExpr::RegRead("acc".into()),
    });
    p.assign_ids();
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    assert_eq!(m.dram("out").unwrap()[0], 10.0);
    assert_eq!(m.stats().reduce_elems, 5);
    assert_eq!(m.stats().trips(0), 5);
    assert_engines_agree(&p, &[]);
}

#[test]
fn load_to_sram_and_fifo() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("d", 4);
    p.add_dram("out", 4);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 4)));
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 16)));
    p.accel.push(SpatialStmt::Load {
        dst: "s".into(),
        src: "d".into(),
        start: SExpr::Const(1.0),
        end: SExpr::Const(3.0),
        par: 1,
    });
    p.accel.push(SpatialStmt::Load {
        dst: "f".into(),
        src: "d".into(),
        start: SExpr::Const(0.0),
        end: SExpr::Const(2.0),
        par: 1,
    });
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(0.0),
        value: SExpr::read("s", SExpr::Const(0.0)),
    });
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(1.0),
        value: SExpr::Deq("f".into()),
    });
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(2.0),
        value: SExpr::Deq("f".into()),
    });
    let mut m = Machine::new(&p);
    m.write_dram("d", &[1.0, 2.0, 3.0, 4.0]).unwrap();
    m.run(&p).unwrap();
    assert_eq!(&m.dram("out").unwrap()[..3], &[2.0, 1.0, 2.0]);
    assert_eq!(m.stats().dram_reads["d"], 4);
    assert_eq!(m.stats().fifo_deqs, 2);
    assert_engines_agree(&p, &[("d", vec![1.0, 2.0, 3.0, 4.0])]);
}

#[test]
fn fifo_underflow_detected() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 1);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 4)));
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(0.0),
        value: SExpr::Deq("f".into()),
    });
    let mut m = Machine::new(&p);
    assert_eq!(m.run(&p), Err(RunError::FifoUnderflow("f".into())));
    assert_engines_agree(&p, &[]);
}

#[test]
fn scan1_visits_set_bits() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 8);
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        "bv",
        MemKind::BitVector,
        8,
    )));
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("crd", MemKind::Fifo, 8)));
    for c in [1.0, 4.0, 6.0] {
        p.accel.push(SpatialStmt::Enq {
            fifo: "crd".into(),
            value: SExpr::Const(c),
        });
    }
    p.accel.push(SpatialStmt::GenBitVector {
        dst: "bv".into(),
        src: "crd".into(),
        src_start: SExpr::Const(0.0),
        count: SExpr::Const(3.0),
        dim: SExpr::Const(8.0),
    });
    zero_bits(&mut p, "none", 8);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: scan_one("bv", "none", "p", "i"),
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::var("p"),
            value: SExpr::var("i"),
        }],
    });
    p.assign_ids();
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    assert_eq!(&m.dram("out").unwrap()[..3], &[1.0, 4.0, 6.0]);
    assert_eq!(m.stats().scan_emits, 3);
    assert_eq!(m.stats().scan_bits, 16);
    assert_engines_agree(&p, &[]);
}

/// The worked example of Fig. 7: A crd {1,2,5}, B crd {0,2,3,8},
/// union produces out crd {0,1,2,3,5,8} with the pattern indices
/// shown in the figure (X rendered as -1).
#[test]
fn scan2_union_matches_fig7() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out_crd", 9);
    p.add_dram("out_tuples", 16);
    for (bv, coords) in [
        ("bvA", vec![1.0, 2.0, 5.0]),
        ("bvB", vec![0.0, 2.0, 3.0, 8.0]),
    ] {
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new(bv, MemKind::BitVector, 9)));
        let fifo = format!("{bv}_crd");
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new(&fifo, MemKind::Fifo, 9)));
        for c in &coords {
            p.accel.push(SpatialStmt::Enq {
                fifo: fifo.clone(),
                value: SExpr::Const(*c),
            });
        }
        p.accel.push(SpatialStmt::GenBitVector {
            dst: bv.into(),
            src: fifo,
            src_start: SExpr::Const(0.0),
            count: SExpr::Const(coords.len() as f64),
            dim: SExpr::Const(9.0),
        });
    }
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan2 {
            op: ScanOp::Or,
            bv_a: "bvA".into(),
            bv_b: "bvB".into(),
            a_pos_var: "pA".into(),
            b_pos_var: "pB".into(),
            out_pos_var: "pO".into(),
            idx_var: "i".into(),
        },
        par: 1,
        body: vec![
            SpatialStmt::StoreScalar {
                dst: "out_crd".into(),
                index: SExpr::var("pO"),
                value: SExpr::var("i"),
            },
            SpatialStmt::StoreScalar {
                dst: "out_tuples".into(),
                index: SExpr::mul(SExpr::var("pO"), SExpr::Const(2.0)),
                value: SExpr::var("pA"),
            },
            SpatialStmt::StoreScalar {
                dst: "out_tuples".into(),
                index: SExpr::add(
                    SExpr::mul(SExpr::var("pO"), SExpr::Const(2.0)),
                    SExpr::Const(1.0),
                ),
                value: SExpr::var("pB"),
            },
        ],
    });
    p.assign_ids();
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    assert_eq!(
        &m.dram("out_crd").unwrap()[..6],
        &[0.0, 1.0, 2.0, 3.0, 5.0, 8.0]
    );
    assert_eq!(
        &m.dram("out_tuples").unwrap()[..12],
        &[
            -1.0, 0.0, // i=0: only B
            0.0, -1.0, // i=1: only A
            1.0, 1.0, // i=2: both
            -1.0, 2.0, // i=3: only B
            2.0, -1.0, // i=5: only A
            -1.0, 3.0, // i=8: only B
        ]
    );
    assert_eq!(m.stats().scan_emits, 6);
    assert_engines_agree(&p, &[]);
}

/// Regression for the per-loop-entry bit-vector clone: a scan nested
/// inside a `Foreach` re-enters once per outer iteration over a
/// large dimension. The epoch-stamped snapshot pool must reproduce
/// the reference engine's clone semantics (and stats) exactly.
#[test]
fn scan_reentry_over_large_dimension_matches_reference() {
    const DIM: usize = 1 << 14;
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 1);
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        "bv",
        MemKind::BitVector,
        DIM,
    )));
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("crd", MemKind::Fifo, 8)));
    let coords = [1.0, 7.0, (DIM - 2) as f64];
    for c in coords {
        p.accel.push(SpatialStmt::Enq {
            fifo: "crd".into(),
            value: SExpr::Const(c),
        });
    }
    p.accel.push(SpatialStmt::GenBitVector {
        dst: "bv".into(),
        src: "crd".into(),
        src_start: SExpr::Const(0.0),
        count: SExpr::Const(coords.len() as f64),
        dim: SExpr::Const(DIM as f64),
    });
    zero_bits(&mut p, "none", DIM);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("r", SExpr::Const(3.0)),
        par: 1,
        body: vec![SpatialStmt::Reduce {
            id: 1,
            reg: "acc".into(),
            counter: scan_one("bv", "none", "p", "i"),
            par: 1,
            body: vec![],
            expr: SExpr::var("i"),
        }],
    });
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(0.0),
        value: SExpr::RegRead("acc".into()),
    });
    p.assign_ids();
    let stats = assert_engines_agree(&p, &[]);
    assert_eq!(stats.scan_bits, 2 * 3 * DIM as u64, "three re-entries");
    assert_eq!(stats.scan_emits, 9);
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    let per_entry: f64 = coords.iter().sum();
    assert_eq!(m.dram("out").unwrap()[0], 3.0 * per_entry);
}

/// The scanned bit vector is regenerated inside the loop body; the
/// active scan must keep iterating its entry-time snapshot, exactly
/// like the engines that cloned the bits at entry.
#[test]
fn scan_snapshot_survives_mid_loop_regeneration() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 8);
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        "bv",
        MemKind::BitVector,
        8,
    )));
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("crd", MemKind::Fifo, 8)));
    for c in [1.0, 4.0, 6.0] {
        p.accel.push(SpatialStmt::Enq {
            fifo: "crd".into(),
            value: SExpr::Const(c),
        });
    }
    p.accel.push(SpatialStmt::GenBitVector {
        dst: "bv".into(),
        src: "crd".into(),
        src_start: SExpr::Const(0.0),
        count: SExpr::Const(3.0),
        dim: SExpr::Const(8.0),
    });
    zero_bits(&mut p, "none", 8);
    // Each iteration records its index, then clobbers the scanned
    // bit vector with {0}.
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: scan_one("bv", "none", "p", "i"),
        par: 1,
        body: vec![
            SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("p"),
                value: SExpr::var("i"),
            },
            SpatialStmt::Enq {
                fifo: "crd".into(),
                value: SExpr::Const(0.0),
            },
            SpatialStmt::GenBitVector {
                dst: "bv".into(),
                src: "crd".into(),
                src_start: SExpr::Const(0.0),
                count: SExpr::Const(1.0),
                dim: SExpr::Const(8.0),
            },
        ],
    });
    // A second scan sees the regenerated {0}.
    p.accel.push(SpatialStmt::Foreach {
        id: 1,
        counter: scan_one("bv", "none", "q", "j"),
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::add(SExpr::var("q"), SExpr::Const(4.0)),
            value: SExpr::add(SExpr::var("j"), SExpr::Const(100.0)),
        }],
    });
    p.assign_ids();
    let stats = assert_engines_agree(&p, &[]);
    assert_eq!(stats.trips(0), 3, "first scan iterates its snapshot");
    assert_eq!(stats.trips(1), 1, "second scan sees the new bits");
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    assert_eq!(&m.dram("out").unwrap()[..5], &[1.0, 4.0, 6.0, 0.0, 100.0]);
}

/// Nested scans allocate distinct snapshot-pool depths.
#[test]
fn nested_scans_use_distinct_pool_depths() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 64);
    for (bv, coords) in [("bvA", vec![2.0, 5.0]), ("bvB", vec![1.0, 3.0, 4.0])] {
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new(bv, MemKind::BitVector, 8)));
        let fifo = format!("{bv}_crd");
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new(&fifo, MemKind::Fifo, 8)));
        for c in &coords {
            p.accel.push(SpatialStmt::Enq {
                fifo: fifo.clone(),
                value: SExpr::Const(*c),
            });
        }
        p.accel.push(SpatialStmt::GenBitVector {
            dst: bv.into(),
            src: fifo,
            src_start: SExpr::Const(0.0),
            count: SExpr::Const(coords.len() as f64),
            dim: SExpr::Const(8.0),
        });
    }
    zero_bits(&mut p, "none", 8);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: scan_one("bvA", "none", "pa", "ia"),
        par: 1,
        body: vec![SpatialStmt::Foreach {
            id: 1,
            counter: scan_one("bvB", "none", "pb", "ib"),
            par: 1,
            body: vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::add(
                    SExpr::mul(SExpr::var("ia"), SExpr::Const(8.0)),
                    SExpr::var("ib"),
                ),
                value: SExpr::add(SExpr::var("pa"), SExpr::var("pb")),
            }],
        }],
    });
    p.assign_ids();
    let stats = assert_engines_agree(&p, &[]);
    assert_eq!(stats.trips(0), 2);
    assert_eq!(stats.trips(1), 6);
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    // Outer idx 5 (pos 1), inner idx 4 (pos 2) -> out[5*8+4] = 3.
    assert_eq!(m.dram("out").unwrap()[5 * 8 + 4], 3.0);
}

#[test]
fn rmw_add_into_sparse_sram_counts_shuffle() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 1);
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        "acc",
        MemKind::SparseSram,
        4,
    )));
    for v in [1.5, 1.0] {
        p.accel.push(SpatialStmt::RmwAdd {
            mem: "acc".into(),
            index: SExpr::Const(2.0),
            value: SExpr::Const(v),
        });
    }
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(0.0),
        value: SExpr::read("acc", SExpr::Const(2.0)),
    });
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    assert_eq!(m.dram("out").unwrap()[0], 2.5);
    assert_eq!(m.stats().shuffle_accesses, 2);
    assert_engines_agree(&p, &[]);
}

#[test]
fn sparse_dram_random_read() {
    let mut p = SpatialProgram::new("t");
    p.add_sparse_dram("x", 8);
    p.add_dram("out", 1);
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(0.0),
        value: SExpr::read_random("x", SExpr::Const(2.0)),
    });
    let mut m = Machine::new(&p);
    m.write_dram("x", &[0.0, 10.0, 20.0]).unwrap();
    m.run(&p).unwrap();
    assert_eq!(m.dram("out").unwrap()[0], 20.0);
    assert_eq!(m.stats().dram_random_reads, 1);
    assert_eq!(m.dram_kind("x"), Some(MemKind::SparseDram));
    assert_engines_agree(&p, &[("x", vec![0.0, 10.0, 20.0])]);
}

#[test]
fn out_of_bounds_reported() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("d", 2);
    p.add_dram("out", 1);
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(0.0),
        value: SExpr::read("d", SExpr::Const(5.0)),
    });
    let mut m = Machine::new(&p);
    let err = m.run(&p).unwrap_err();
    assert!(matches!(err, RunError::OutOfBounds { .. }));
    assert_engines_agree(&p, &[]);
}

#[test]
fn stream_store_drains_fifo() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 8);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 8)));
    for v in [5.0, 6.0, 7.0] {
        p.accel.push(SpatialStmt::Enq {
            fifo: "f".into(),
            value: SExpr::Const(v),
        });
    }
    p.accel.push(SpatialStmt::StreamStore {
        dst: "out".into(),
        offset: SExpr::Const(2.0),
        fifo: "f".into(),
        len: SExpr::Const(3.0),
    });
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    assert_eq!(&m.dram("out").unwrap()[2..5], &[5.0, 6.0, 7.0]);
    assert_eq!(m.stats().dram_writes["out"], 3);
    assert_engines_agree(&p, &[]);
}

#[test]
fn nested_foreach_trips_recorded() {
    let mut p = SpatialProgram::new("t");
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(3.0)),
        par: 2,
        body: vec![SpatialStmt::Foreach {
            id: 1,
            counter: Counter::range_to("j", SExpr::Const(4.0)),
            par: 1,
            body: vec![],
        }],
    });
    p.assign_ids();
    let mut m = Machine::new(&p);
    let stats = m.run(&p).unwrap();
    assert_eq!(stats.trips(0), 3);
    assert_eq!(stats.trips(1), 12);
    assert_engines_agree(&p, &[]);
}

#[test]
fn alloc_in_loop_resets() {
    // A register allocated inside a loop body starts at zero each
    // iteration.
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 4);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(3.0)),
        par: 1,
        body: vec![
            SpatialStmt::Alloc(MemDecl::new("r", MemKind::Reg, 1)),
            SpatialStmt::SetReg {
                reg: "r".into(),
                value: SExpr::add(SExpr::RegRead("r".into()), SExpr::var("i")),
            },
            SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("i"),
                value: SExpr::RegRead("r".into()),
            },
        ],
    });
    p.assign_ids();
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    assert_eq!(&m.dram("out").unwrap()[..3], &[0.0, 1.0, 2.0]);
    assert_engines_agree(&p, &[]);
}

#[test]
fn unbound_var_reported() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 1);
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(0.0),
        value: SExpr::var("ghost"),
    });
    let mut m = Machine::new(&p);
    assert_eq!(m.run(&p), Err(RunError::UnboundVar("ghost".into())));
    assert_engines_agree(&p, &[]);
}

#[test]
fn stats_accumulate_across_runs() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 1);
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(0.0),
        value: SExpr::add(SExpr::Const(1.0), SExpr::Const(2.0)),
    });
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    assert_eq!(m.stats().alu_ops, 1);
    let stats = m.run(&p).unwrap();
    assert_eq!(stats.alu_ops, 2);
    assert_eq!(stats.dram_random_writes, 2);
}

/// A machine runs the program it was compiled for and no other: a
/// foreign program is a typed error raised before anything runs, so
/// DRAM, on-chip state, statistics and the poison flag stay exactly
/// as the last real run left them.
#[test]
fn run_rejects_a_foreign_program() {
    let mut p1 = SpatialProgram::new("a");
    p1.add_dram("x", 2);
    p1.accel
        .push(SpatialStmt::Alloc(MemDecl::new("r", MemKind::Reg, 1)));
    p1.accel.push(SpatialStmt::SetReg {
        reg: "r".into(),
        value: SExpr::Const(3.5),
    });
    p1.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(1.0)),
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "x".into(),
            index: SExpr::var("i"),
            value: SExpr::Const(7.0),
        }],
    });
    p1.assign_ids();
    // Same DRAM, different statement.
    let mut p2 = SpatialProgram::new("b");
    p2.add_dram("x", 2);
    p2.accel.push(SpatialStmt::StoreScalar {
        dst: "x".into(),
        index: SExpr::Const(1.0),
        value: SExpr::Const(9.0),
    });

    let mut m = Machine::new(&p1);
    m.run(&p1).unwrap();
    let before = m.clone();
    assert_eq!(m.run(&p2), Err(RunError::ForeignProgram));
    assert!(!m.poisoned(), "a refused run must not poison");
    assert_eq!(m.dram("x").unwrap(), &[7.0, 0.0]);
    assert_eq!(m.stats(), before.stats());
    assert_eq!(m.words, before.words);
    assert_eq!(m.bits, before.bits);
    assert_eq!(m.env, before.env);
    assert_eq!(format!("{:?}", m.chip), format!("{:?}", before.chip));

    // A machine poisoned by an aborted run stays poisoned.
    let mut aborted = Machine::new(&p1);
    aborted.set_budget(RunBudget::default().with_max_steps(0));
    assert!(aborted.run(&p1).is_err());
    assert_eq!(aborted.run(&p2), Err(RunError::ForeignProgram));
    assert!(aborted.poisoned(), "a refused run must not clear poison");

    // An equal program held in a different object is the machine's
    // own: it runs.
    let stats = m.run(&p1.clone()).unwrap();
    assert_eq!(stats.dram_random_writes, 2);
}

#[test]
fn write_dram_usize_converts_in_place() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("pos", 4);
    let mut m = Machine::new(&p);
    m.write_dram_usize("pos", &[0, 2, 5]).unwrap();
    assert_eq!(&m.dram("pos").unwrap()[..3], &[0.0, 2.0, 5.0]);
    assert_eq!(m.dram_usize("pos").unwrap(), vec![0, 2, 5, 0]);
    let mut buf = Vec::new();
    m.read_dram_usize_into("pos", 2, &mut buf).unwrap();
    assert_eq!(buf, vec![0, 2]);
    assert_eq!(
        m.read_dram_usize_into("pos", 9, &mut buf),
        Err(RunError::OutOfBounds {
            mem: "pos".into(),
            index: 9,
            len: 4,
        })
    );
    assert!(buf.is_empty(), "failed read leaves the buffer empty");
    assert!(m.write_dram_usize("ghost", &[1]).is_err());
}

#[test]
fn zero_length_load_still_creates_stats_entry() {
    // The reference engine creates a dram_reads entry even for a
    // zero-word load; the fold must reproduce that.
    let mut p = SpatialProgram::new("t");
    p.add_dram("d", 4);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 4)));
    p.accel.push(SpatialStmt::Load {
        dst: "s".into(),
        src: "d".into(),
        start: SExpr::Const(2.0),
        end: SExpr::Const(2.0),
        par: 1,
    });
    let stats = assert_engines_agree(&p, &[]);
    assert_eq!(stats.dram_reads.get("d"), Some(&0));
}

// --- FIFO ring-buffer representation -----------------------------

/// Interleaved enqueues and dequeues force the ring's read/write
/// positions to wrap around its region several times; ordering and
/// statistics must match the unbounded reference queue exactly.
#[test]
fn fifo_ring_wraparound_preserves_order() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 16);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 4)));
    let mut out_ix = 0.0;
    // Three rounds of (enq 3, deq 2) leave one element behind per
    // round; with capacity 4 the write position wraps every round.
    for round in 0..3 {
        for k in 0..3 {
            p.accel.push(SpatialStmt::Enq {
                fifo: "f".into(),
                value: SExpr::Const((10 * round + k) as f64),
            });
        }
        for _ in 0..2 {
            p.accel.push(SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::Const(out_ix),
                value: SExpr::Deq("f".into()),
            });
            out_ix += 1.0;
        }
    }
    // Drain the three leftovers.
    p.accel.push(SpatialStmt::StreamStore {
        dst: "out".into(),
        offset: SExpr::Const(out_ix),
        fifo: "f".into(),
        len: SExpr::Const(3.0),
    });
    let stats = assert_engines_agree(&p, &[]);
    assert_eq!(stats.fifo_enqs, 9);
    assert_eq!(stats.fifo_deqs, 9);
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    assert_eq!(
        &m.dram("out").unwrap()[..9],
        &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0, 20.0, 21.0, 22.0],
        "FIFO order across wraparounds"
    );
}

/// Enqueuing past the declared capacity must not fail: the queue is
/// unbounded (like the reference `VecDeque`) and the ring grows by
/// relocating to a larger arena region, carrying its contents.
#[test]
fn fifo_enqueue_past_declared_capacity_grows() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 16);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 2)));
    // Wrap first so the relocation has to linearize a split ring.
    p.accel.push(SpatialStmt::Enq {
        fifo: "f".into(),
        value: SExpr::Const(99.0),
    });
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(15.0),
        value: SExpr::Deq("f".into()),
    });
    for v in 0..9 {
        p.accel.push(SpatialStmt::Enq {
            fifo: "f".into(),
            value: SExpr::Const(v as f64),
        });
    }
    p.accel.push(SpatialStmt::StreamStore {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        fifo: "f".into(),
        len: SExpr::Const(9.0),
    });
    let stats = assert_engines_agree(&p, &[]);
    assert_eq!(stats.fifo_enqs, 10);
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    let expect: Vec<f64> = (0..9).map(f64::from).collect();
    assert_eq!(&m.dram("out").unwrap()[..9], &expect[..]);
}

/// Dequeue-from-empty after the ring has wrapped reports the same
/// `FifoUnderflow` (and drained state) as the reference engine.
#[test]
fn fifo_underflow_after_wraparound() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 8);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 2)));
    for round in 0..2 {
        p.accel.push(SpatialStmt::Enq {
            fifo: "f".into(),
            value: SExpr::Const(round as f64),
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(round as f64),
            value: SExpr::Deq("f".into()),
        });
    }
    // Queue is now empty; one more dequeue underflows.
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(7.0),
        value: SExpr::Deq("f".into()),
    });
    let mut m = Machine::new(&p);
    assert_eq!(m.run(&p), Err(RunError::FifoUnderflow("f".into())));
    assert_engines_agree(&p, &[]);
}

/// Draining more than the queue holds underflows and leaves the
/// FIFO drained, exactly like the reference engine's pop-until-
/// empty failure.
#[test]
fn fifo_stream_store_underflow_drains() {
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 8);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 4)));
    p.accel.push(SpatialStmt::Enq {
        fifo: "f".into(),
        value: SExpr::Const(1.0),
    });
    p.accel.push(SpatialStmt::StreamStore {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        fifo: "f".into(),
        len: SExpr::Const(3.0),
    });
    let mut m = Machine::new(&p);
    assert_eq!(m.run(&p), Err(RunError::FifoUnderflow("f".into())));
    assert_engines_agree(&p, &[]);
}

// --- Bit-vector arena growth -------------------------------------

/// `GenBitVector` with a dimension larger than the declared
/// allocation grows the slot's bitset region; the following scan
/// sees the full dimension, matching the old `Vec<bool>` resize.
#[test]
fn bitvector_grows_past_declared_dimension() {
    const DIM: usize = 200; // declared 8, grown to 200 (4 words)
    let mut p = SpatialProgram::new("t");
    p.add_dram("out", 8);
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        "bv",
        MemKind::BitVector,
        8,
    )));
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("crd", MemKind::Fifo, 8)));
    let coords = [1.0, 64.0, (DIM - 1) as f64];
    for c in coords {
        p.accel.push(SpatialStmt::Enq {
            fifo: "crd".into(),
            value: SExpr::Const(c),
        });
    }
    p.accel.push(SpatialStmt::GenBitVector {
        dst: "bv".into(),
        src: "crd".into(),
        src_start: SExpr::Const(0.0),
        count: SExpr::Const(coords.len() as f64),
        dim: SExpr::Const(DIM as f64),
    });
    // The zero side keeps its declared 8 bits: the scan runs to the
    // longer vector's grown dimension.
    zero_bits(&mut p, "none", 8);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: scan_one("bv", "none", "p", "i"),
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::var("p"),
            value: SExpr::var("i"),
        }],
    });
    p.assign_ids();
    let stats = assert_engines_agree(&p, &[]);
    assert_eq!(stats.scan_bits, 2 * DIM as u64, "scan sees the grown dim");
    assert_eq!(stats.scan_emits, 3);
    let mut m = Machine::new(&p);
    m.run(&p).unwrap();
    assert_eq!(&m.dram("out").unwrap()[..3], &coords[..]);
}
