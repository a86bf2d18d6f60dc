//! The static-analysis gate over the full Table-3 kernel suite.
//!
//! Every lowered stage of every kernel × dataset pair at CI scale must
//! pass the structural bytecode verifier — this is the release-build
//! counterpart of the `debug_assertions` check inside
//! `CompiledProgram::compile`, exercised here through the public
//! pipeline so the CI `static-analysis` job covers both build
//! profiles. It also holds the analysis *yield* to a floor: the
//! FIFO-fed and three-factor inner products (SpMV, MatTransMul,
//! Residual and SDDMM on each of their three datasets, plus TTV) are
//! reduce-tagged, the row loop around the inner product of SpMV,
//! MatTransMul and Residual is tagged `SegReduce` on each of their
//! datasets (9 row loops), the innermost co-iteration scan of every
//! Plus2, Plus3 and InnerProd stage is scan-tagged (25 vector-tagged
//! stages in all), and the printed programs are the ones the paper
//! prints — position arithmetic folded, one accumulator register per
//! reduction, no absent-operand `mux` guards inside an intersection
//! scan.
//!
//! For every loop (each a `RangeSimple` or `Scan2Simple`
//! superinstruction) that is not vector-tagged, the test also prints the
//! first thing that keeps it out, in the order `analysis::classify_vec`
//! looks — run with `--nocapture` to read it. What it shows today: the
//! per-row scans of Plus2 and InnerProd, whose bodies bind, load and
//! build the next level's bit vectors; the row and middle loops of
//! SDDMM, TTV, TTM and MTTKRP, whose bodies allocate SRAM, bind
//! gathers, enqueue or write registers; and the single-op scatter
//! loops of TTM and MTTKRP, which no vector class covers.

use std::collections::BTreeMap;

use stardust_bench::{instantiate, Scale, KERNEL_NAMES};
use stardust_spatial::bytecode::{EOp, Op, Operand};
use stardust_spatial::{CompiledProgram, MemKind, VecClass};

/// An operand by the form the lowering gave it; an expression program
/// by the kinds of its ops (`Expr(Var Const Binary VarReadMem)`).
fn operand_shape(p: &CompiledProgram, operand: Operand) -> String {
    match operand {
        Operand::Const(_) => "Const".into(),
        Operand::Var(_) => "Var".into(),
        Operand::Expr(e) => {
            let kinds: Vec<String> = p.eops()[e as usize..]
                .iter()
                .take_while(|eop| !matches!(eop, EOp::End))
                .map(|eop| {
                    let eop = format!("{eop:?}");
                    eop.split(['(', ' ', '{']).next().unwrap_or("").to_string()
                })
                .collect();
            format!("Expr({})", kinds.join(" "))
        }
    }
}

/// The variant name of an op (`RangeSimple`, `Enq`, ...).
fn op_kind(op: &Op) -> String {
    let op = format!("{op:?}");
    op.split([' ', '{']).next().unwrap_or("").to_string()
}

/// A body op by kind, with the operand that matters for chunking.
fn op_shape(p: &CompiledProgram, op: &Op) -> String {
    match *op {
        Op::Bind { value, .. } => format!("Bind {}", operand_shape(p, value)),
        Op::Alloc { kind, size, .. } => format!("Alloc {kind:?}[{size}]"),
        ref other => op_kind(other),
    }
}

/// The parts of a superinstruction loop the vector classifier reads.
struct SimpleLoop<'a> {
    kind: String,
    /// The step of a `RangeSimple`; scans have none.
    step: Option<i64>,
    body: &'a [Op],
    reduce: Option<Operand>,
}

fn simple_loop(ops: &[Op], pc: usize) -> Option<SimpleLoop<'_>> {
    let (step, body, body_len, reduce) = match ops[pc] {
        Op::RangeSimple {
            step,
            body,
            body_len,
            reduce,
            ..
        } => (Some(step), body, body_len, reduce),
        Op::Scan2Simple {
            body,
            body_len,
            reduce,
            ..
        } => (None, body, body_len, reduce),
        _ => return None,
    };
    Some(SimpleLoop {
        kind: op_kind(&ops[pc]),
        step,
        body: &ops[body as usize..(body + body_len) as usize],
        reduce: reduce.map(|(_, expr)| expr),
    })
}

/// Whether a scan body op is of a kind a `VecClass::Scan` lane
/// statement can be: an append store, a register update, an enqueue.
fn is_lane_statement(op: &Op) -> bool {
    matches!(
        op,
        Op::StoreScalar { .. } | Op::SetReg { .. } | Op::Enq { .. }
    )
}

/// Whether a row-loop body op is of a kind a `VecClass::SegReduce`
/// row body can hold (its inner loop's ops included).
fn is_row_op(op: &Op) -> bool {
    matches!(
        op,
        Op::Alloc {
            kind: MemKind::Reg | MemKind::Fifo,
            ..
        } | Op::Bind { .. }
            | Op::SetReg { .. }
            | Op::Load { .. }
            | Op::StoreScalar { .. }
            | Op::RangeSimple { .. }
    )
}

/// Why `classify_vec` left this loop `VecClass::None`, in its order:
/// for a two-input scan, the first body op that cannot be a lane
/// statement; for a range loop, the step, then for a row loop (one
/// with a nested loop) the first op that cannot be a row op, else the
/// first body op of a loop that reduces nothing, then the reduce
/// operand.
fn vector_blocker(p: &CompiledProgram, l: &SimpleLoop<'_>) -> String {
    let Some(step) = l.step else {
        return match l.body.iter().find(|op| !is_lane_statement(op)) {
            Some(op) => format!("body op {}", op_shape(p, op)),
            None => "lane statements share a target or read one".into(),
        };
    };
    if step != 1 {
        return format!("step {step}");
    }
    if l.body.iter().any(|op| matches!(op, Op::RangeSimple { .. })) {
        return match l.body.iter().find(|op| !is_row_op(op)) {
            Some(op) => format!("row loop: body op {}", op_shape(p, op)),
            None => "row loop: row ops not SegReduce-shaped".into(),
        };
    }
    match (l.body.first(), l.reduce) {
        (None, None) => "empty body, nothing reduced".into(),
        (Some(op), None) => format!("body op {}", op_shape(p, op)),
        (None, Some(expr)) => format!("reduce operand {}", operand_shape(p, expr)),
        (Some(_), Some(_)) => "reduce over a non-empty body".into(),
    }
}

/// The unfolded position arithmetic the lowering used to print
/// (`(0 * n) + i`, `0 + ...`, `k * 1`), or `None`.
fn unfolded_index(source: &str) -> Option<&'static str> {
    ["(0 * ", "(0 + ", " * 1)"]
        .into_iter()
        .find(|pattern| source.contains(pattern))
}

/// The first line of an intersection (`and`) scan body that holds a
/// `mux`: intersection positions are never -1, so such a guard is dead.
fn mux_in_and_scan(source: &str) -> Option<&str> {
    let indent = |line: &str| line.len() - line.trim_start().len();
    let lines: Vec<&str> = source.lines().collect();
    for (n, line) in lines.iter().enumerate() {
        if !(line.contains("Scan(") && line.contains(", and,")) {
            continue;
        }
        let guarded = lines[n + 1..]
            .iter()
            .take_while(|inner| indent(inner) > indent(line))
            .find(|inner| inner.contains("mux("));
        if guarded.is_some() {
            return guarded.copied();
        }
    }
    None
}

/// A register declared twice in a row (`val ws = Reg[T]` from both the
/// `where` producer and the reduction it holds), or `None`.
fn doubled_register(source: &str) -> Option<&str> {
    let lines: Vec<&str> = source.lines().collect();
    lines
        .windows(2)
        .find(|pair| pair[0].contains(" = Reg[") && pair[0] == pair[1])
        .map(|pair| pair[0])
}

#[test]
fn all_table3_kernels_pass_the_verifier() {
    let scale = Scale::ci();
    let mut vector_tagged = 0usize;
    let mut stages = 0usize;
    let mut loops = 0usize;
    let mut untagged_inner_scans: Vec<String> = Vec::new();
    let mut seg_row_loops = 0usize;
    let mut untagged_row_loops: Vec<String> = Vec::new();
    let mut vector_blockers: BTreeMap<String, usize> = BTreeMap::new();
    for name in KERNEL_NAMES {
        for (kernel, set) in instantiate(name, &scale) {
            let compiled = kernel
                .compile(&set.inputs)
                .unwrap_or_else(|e| panic!("{name} on {} fails to compile: {e}", set.dataset));
            for (s, stage) in compiled.iter().enumerate() {
                let spatial = stage.compiled_spatial();
                spatial.verify().unwrap_or_else(|e| {
                    panic!(
                        "{name} on {}: verifier rejected a compiled stage: {e}",
                        set.dataset
                    )
                });
                stages += 1;
                let source = stage.source();
                if let Some(pattern) = unfolded_index(source) {
                    panic!(
                        "{name}/{} stage {s} prints unfolded index arithmetic `{pattern}`:\n{source}",
                        set.dataset
                    );
                }
                if let Some(line) = doubled_register(source) {
                    panic!(
                        "{name}/{} stage {s} allocates a register twice: `{}`",
                        set.dataset,
                        line.trim()
                    );
                }
                if let Some(line) = mux_in_and_scan(source) {
                    panic!(
                        "{name}/{} stage {s} guards an intersection scan: `{}`",
                        set.dataset,
                        line.trim()
                    );
                }
                let ops = spatial.ops();
                if (0..ops.len()).any(|pc| spatial.vec_class(pc) != VecClass::None) {
                    vector_tagged += 1;
                }
                for pc in 0..ops.len() {
                    let Some(l) = simple_loop(ops, pc) else {
                        continue;
                    };
                    loops += 1;
                    let vector = if spatial.vec_class(pc) == VecClass::None {
                        vector_blocker(spatial, &l)
                    } else {
                        format!("tagged {:?}", spatial.vec_class(pc))
                    };
                    let innermost = !l
                        .body
                        .iter()
                        .any(|op| matches!(op, Op::RangeSimple { .. } | Op::Scan2Simple { .. }));
                    if l.kind == "Scan2Simple"
                        && innermost
                        && ["Plus2", "Plus3", "InnerProd"].contains(&name)
                        && !matches!(spatial.vec_class(pc), VecClass::Scan(_))
                    {
                        untagged_inner_scans
                            .push(format!("{name}/{} stage {s} pc {pc}", set.dataset));
                    }
                    if l.kind == "RangeSimple"
                        && !innermost
                        && ["SpMV", "MatTransMul", "Residual"].contains(&name)
                    {
                        if matches!(spatial.vec_class(pc), VecClass::SegReduce(_)) {
                            seg_row_loops += 1;
                        } else {
                            untagged_row_loops
                                .push(format!("{name}/{} stage {s} pc {pc}", set.dataset));
                        }
                    }
                    println!(
                        "{name}/{} stage {s} pc {pc} {}: vector: {vector}",
                        set.dataset, l.kind
                    );
                    *vector_blockers.entry(vector).or_default() += 1;
                }
            }
        }
    }
    assert!(stages >= 10, "suite shrank: only {stages} stages compiled");
    println!(
        "static-analysis: {stages} stages verified, \
         {vector_tagged} vector-tagged, {loops} superinstruction loops"
    );
    for (why, count) in &vector_blockers {
        println!("  vector: {count:>3} × {why}");
    }
    assert!(
        vector_tagged >= 25,
        "only {vector_tagged} vector-tagged stages; SpMV, MatTransMul, Residual and SDDMM \
         (three datasets each), TTV, and every Plus2, Plus3 and InnerProd stage must reach \
         the vector tier"
    );
    assert!(
        untagged_inner_scans.is_empty(),
        "innermost co-iteration scans left scalar: {untagged_inner_scans:?}"
    );
    assert!(
        untagged_row_loops.is_empty() && seg_row_loops == 9,
        "{seg_row_loops} SegReduce row loops; SpMV, MatTransMul and Residual row loops \
         left scalar: {untagged_row_loops:?}"
    );
}
