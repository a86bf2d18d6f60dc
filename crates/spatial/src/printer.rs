//! Pretty-printer emitting Spatial-style source text.
//!
//! Renders a [`SpatialProgram`] in the surface syntax of the paper's
//! Fig. 11, so that examples can show generated code and the Table 3
//! lines-of-code comparison can be reproduced by counting printed lines.

use std::fmt::Write as _;

use crate::ir::{Counter, MemKind, SpatialProgram, SpatialStmt};

/// Renders the program as Spatial-style source code.
///
/// # Example
///
/// ```
/// use stardust_spatial::{print_program, SpatialProgram};
///
/// let mut p = SpatialProgram::new("empty");
/// p.add_const("ip", 16);
/// p.add_dram("x_dram", 128);
/// let src = print_program(&p);
/// assert!(src.contains("val ip = 16"));
/// assert!(src.contains("DRAM[T](128)"));
/// assert!(src.contains("Accel {"));
/// ```
pub fn print_program(p: &SpatialProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// Spatial kernel: {}", p.name);
    for (name, value) in &p.consts {
        let _ = writeln!(out, "val {name} = {value}");
    }
    for d in &p.drams {
        match d.kind {
            MemKind::SparseDram => {
                let _ = writeln!(out, "val {} = SparseDRAM[T]({})", d.name, d.size);
            }
            _ => {
                let _ = writeln!(out, "val {} = DRAM[T]({})", d.name, d.size);
            }
        }
    }
    let _ = writeln!(out, "Accel {{");
    for s in &p.accel {
        print_stmt(s, 1, &mut out);
    }
    let _ = writeln!(out, "}}");
    out
}

/// Counts the non-empty, non-comment lines of printed Spatial source — the
/// quantity reported in Table 3's "Spatial LoC" column.
pub fn spatial_loc(p: &SpatialProgram) -> usize {
    print_program(p)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn print_counter(c: &Counter, par: usize) -> String {
    match c {
        Counter::Range { min, max, step, .. } => {
            format!("({min} until {max} by {step} par {par})")
        }
        Counter::Scan2 { op, bv_a, bv_b, .. } => {
            format!("(Scan(par={par}, {op}, {bv_a}.deq, {bv_b}.deq))")
        }
    }
}

fn counter_binders(c: &Counter) -> String {
    c.bound_vars().join(", ")
}

fn print_stmt(s: &SpatialStmt, depth: usize, out: &mut String) {
    match s {
        SpatialStmt::Comment(text) => {
            indent(depth, out);
            let _ = writeln!(out, "// {text}");
        }
        SpatialStmt::Alloc(d) => {
            indent(depth, out);
            let decl = match d.kind {
                MemKind::Sram => format!("SRAM[T]({})", d.size),
                MemKind::SparseSram => format!("SparseSRAM[T]({})", d.size),
                MemKind::Fifo => format!("FIFO[T]({})", d.size),
                MemKind::Reg => "Reg[T](0.to[T])".to_string(),
                MemKind::BitVector => format!("BitVector({})", d.size),
                MemKind::Dram => format!("DRAM[T]({})", d.size),
                MemKind::SparseDram => format!("SparseDRAM[T]({})", d.size),
            };
            let _ = writeln!(out, "val {} = {decl}", d.name);
        }
        SpatialStmt::Load {
            dst,
            src,
            start,
            end,
            par,
        } => {
            indent(depth, out);
            let _ = writeln!(out, "{dst} load {src}({start}::{end} par {par})");
        }
        SpatialStmt::Store {
            dst,
            offset,
            src,
            len,
            par,
        } => {
            indent(depth, out);
            let _ = writeln!(
                out,
                "{dst}({offset}::({offset} + {len}) par {par}) store {src}"
            );
        }
        SpatialStmt::StreamStore {
            dst,
            offset,
            fifo,
            len,
        } => {
            indent(depth, out);
            let _ = writeln!(out, "{dst} stream_store_vec({offset}, {fifo}, {len})");
        }
        SpatialStmt::StoreScalar { dst, index, value } => {
            indent(depth, out);
            let _ = writeln!(out, "{dst}({index}) = {value}");
        }
        SpatialStmt::Bind { var, value } => {
            indent(depth, out);
            let _ = writeln!(out, "val {var} = {value}");
        }
        SpatialStmt::Foreach {
            counter, par, body, ..
        } => {
            indent(depth, out);
            let _ = writeln!(
                out,
                "Foreach {} {{ {} =>",
                print_counter(counter, *par),
                counter_binders(counter)
            );
            for b in body {
                print_stmt(b, depth + 1, out);
            }
            indent(depth, out);
            let _ = writeln!(out, "}}");
        }
        SpatialStmt::Reduce {
            reg,
            counter,
            par,
            body,
            expr,
            ..
        } => {
            indent(depth, out);
            let _ = writeln!(
                out,
                "Reduce({reg}){} {{ {} =>",
                print_counter(counter, *par),
                counter_binders(counter)
            );
            for b in body {
                print_stmt(b, depth + 1, out);
            }
            indent(depth + 1, out);
            let _ = writeln!(out, "{expr}");
            indent(depth, out);
            let _ = writeln!(out, "}} {{ _ + _ }}");
        }
        SpatialStmt::WriteMem {
            mem, index, value, ..
        } => {
            indent(depth, out);
            let _ = writeln!(out, "{mem}({index}) = {value}");
        }
        SpatialStmt::RmwAdd { mem, index, value } => {
            indent(depth, out);
            let _ = writeln!(out, "{mem}.atomicAdd({index}, {value})");
        }
        SpatialStmt::SetReg { reg, value } => {
            indent(depth, out);
            let _ = writeln!(out, "{reg} := {value}");
        }
        SpatialStmt::Enq { fifo, value } => {
            indent(depth, out);
            let _ = writeln!(out, "{fifo}.enq({value})");
        }
        SpatialStmt::GenBitVector {
            dst,
            src,
            count,
            dim,
            ..
        } => {
            indent(depth, out);
            let _ = writeln!(
                out,
                "val {dst} = genBitvector({src}, len={count}, dim={dim})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{MemDecl, SExpr};

    fn sample() -> SpatialProgram {
        let mut p = SpatialProgram::new("spmv");
        p.add_const("ip", 16);
        p.add_dram("A_vals_dram", 64);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
        p.accel.push(SpatialStmt::Reduce {
            id: 0,
            reg: "acc".into(),
            counter: Counter::range_to("j", SExpr::var("len")),
            par: 16,
            body: vec![SpatialStmt::Bind {
                var: "v".into(),
                value: SExpr::Deq("A_vals".into()),
            }],
            expr: SExpr::mul(SExpr::var("v"), SExpr::Const(2.0)),
        });
        p.assign_ids();
        p
    }

    #[test]
    fn prints_reduce_pattern() {
        let src = print_program(&sample());
        assert!(src.contains("Reduce(acc)(0 until len by 1 par 16) { j =>"));
        assert!(src.contains("val v = A_vals.deq"));
        assert!(src.contains("{ _ + _ }"));
    }

    #[test]
    fn loc_skips_comments_and_blanks() {
        let mut p = sample();
        let base = spatial_loc(&p);
        p.accel.push(SpatialStmt::Comment("note".into()));
        assert_eq!(spatial_loc(&p), base);
    }

    #[test]
    fn prints_scan_counter() {
        let mut p = SpatialProgram::new("scan");
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Scan2 {
                op: crate::ir::ScanOp::Or,
                bv_a: "bvA".into(),
                bv_b: "bvB".into(),
                a_pos_var: "pA".into(),
                b_pos_var: "pB".into(),
                out_pos_var: "pO".into(),
                idx_var: "i".into(),
            },
            par: 4,
            body: vec![],
        });
        let src = print_program(&p);
        assert!(src.contains("Scan(par=4, or, bvA.deq, bvB.deq)"));
        assert!(src.contains("pA, pB, pO, i =>"));
    }

    #[test]
    fn prints_memories() {
        let mut p = SpatialProgram::new("mems");
        p.add_sparse_dram("xd", 99);
        for (n, k) in [
            ("a", MemKind::Sram),
            ("b", MemKind::SparseSram),
            ("c", MemKind::Fifo),
            ("d", MemKind::Reg),
            ("e", MemKind::BitVector),
        ] {
            p.accel.push(SpatialStmt::Alloc(MemDecl::new(n, k, 8)));
        }
        let src = print_program(&p);
        assert!(src.contains("SparseDRAM[T](99)"));
        assert!(src.contains("SRAM[T](8)"));
        assert!(src.contains("SparseSRAM[T](8)"));
        assert!(src.contains("FIFO[T](8)"));
        assert!(src.contains("Reg[T](0.to[T])"));
        assert!(src.contains("BitVector(8)"));
    }

    #[test]
    fn prints_stores_and_atomics() {
        let mut p = SpatialProgram::new("s");
        p.add_dram("y", 8);
        p.accel.push(SpatialStmt::StreamStore {
            dst: "y".into(),
            offset: SExpr::Const(0.0),
            fifo: "f".into(),
            len: SExpr::var("n"),
        });
        p.accel.push(SpatialStmt::RmwAdd {
            mem: "acc".into(),
            index: SExpr::var("j"),
            value: SExpr::var("v"),
        });
        let src = print_program(&p);
        assert!(src.contains("stream_store_vec(0, f, n)"));
        assert!(src.contains("acc.atomicAdd(j, v)"));
    }
}
