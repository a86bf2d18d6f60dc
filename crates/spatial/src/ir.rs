//! The Spatial IR: memories, scalar expressions, counters, and patterns.
//!
//! The constructs here mirror the Spatial subset that Stardust's lowering
//! emits (paper Fig. 9 and Fig. 11): explicit memory declarations across
//! the DRAM/SRAM/FIFO/register hierarchy, counter-indexed `Foreach` /
//! `Reduce` parallel patterns with explicit parallelization factors, bulk
//! loads/stores between memory regions, and the declarative-sparse `Scan`
//! patterns over packed bit vectors that Capstan provides for compressed
//! iteration and co-iteration.

use std::fmt;

/// The physical memory types of the Spatial/Capstan hierarchy that the
/// Stardust memory analysis binds tensor sub-arrays to (paper §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Off-chip DRAM with dense (bulk, streaming) access, host-initialized.
    Dram,
    /// Off-chip DRAM accessed via random single-element requests (no
    /// identifiable working set to bring on-chip).
    SparseDram,
    /// On-chip scratchpad (PMU) with affine access patterns.
    Sram,
    /// On-chip scratchpad with random (data-dependent) accesses and reuse;
    /// served through the shuffle network when accessed across lanes.
    SparseSram,
    /// Streaming FIFO buffer (PMU-backed); strictly in-order.
    Fifo,
    /// A scalar pipeline register.
    Reg,
    /// A packed bit-vector stream holding compressed coordinate
    /// information (Fig. 7).
    BitVector,
}

impl MemKind {
    /// Returns `true` for the off-chip kinds.
    pub fn is_off_chip(self) -> bool {
        matches!(self, MemKind::Dram | MemKind::SparseDram)
    }
}

impl fmt::Display for MemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemKind::Dram => write!(f, "DRAM"),
            MemKind::SparseDram => write!(f, "SparseDRAM"),
            MemKind::Sram => write!(f, "SRAM"),
            MemKind::SparseSram => write!(f, "SparseSRAM"),
            MemKind::Fifo => write!(f, "FIFO"),
            MemKind::Reg => write!(f, "Reg"),
            MemKind::BitVector => write!(f, "BitVector"),
        }
    }
}

/// A memory declaration (off-chip array or on-chip buffer).
#[derive(Debug, Clone, PartialEq)]
pub struct MemDecl {
    /// Unique name, e.g. `B2_pos` or `B_vals_dram`.
    pub name: String,
    /// Physical memory kind.
    pub kind: MemKind,
    /// Capacity in 32-bit words (bit vectors: capacity in bits).
    pub size: usize,
}

impl MemDecl {
    /// Creates a declaration.
    pub fn new(name: impl Into<String>, kind: MemKind, size: usize) -> Self {
        MemDecl {
            name: name.into(),
            kind,
            size,
        }
    }
}

/// Binary scalar operators available in a PCU stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinSOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer division (used for position arithmetic).
    Div,
    /// Remainder (used for position arithmetic of fused loops).
    Mod,
}

impl BinSOp {
    /// Applies the operator. `None` when `Div` or `Mod` would divide by
    /// zero: the divisor is program data (position arithmetic over an
    /// empty dimension divides by a runtime `n`), so both engines raise
    /// it as `RunError::DivisionByZero` — in every build profile —
    /// instead of letting `inf`/`NaN` flow into a stored value or an
    /// index.
    pub fn apply(self, a: f64, b: f64) -> Option<f64> {
        Some(match self {
            BinSOp::Add => a + b,
            BinSOp::Sub => a - b,
            BinSOp::Mul => a * b,
            BinSOp::Div if b == 0.0 => return None,
            BinSOp::Div => (a / b).trunc(),
            BinSOp::Mod if b == 0.0 => return None,
            BinSOp::Mod => a - (a / b).trunc() * b,
        })
    }
}

impl fmt::Display for BinSOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinSOp::Add => write!(f, "+"),
            BinSOp::Sub => write!(f, "-"),
            BinSOp::Mul => write!(f, "*"),
            BinSOp::Div => write!(f, "/"),
            BinSOp::Mod => write!(f, "%"),
        }
    }
}

/// A scalar expression evaluated inside a pattern body.
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr {
    /// A bound variable (loop counter, `val` binding, or scan index).
    Var(String),
    /// A literal constant.
    Const(f64),
    /// Reads `mem[index]`. `random` marks data-dependent (gather) accesses,
    /// which Capstan serves through the shuffle network when the memory is
    /// a [`MemKind::SparseSram`], or as single-element requests for
    /// [`MemKind::SparseDram`].
    ReadMem {
        /// Memory name (SRAM, SparseSRAM, or SparseDRAM).
        mem: String,
        /// Word index.
        index: Box<SExpr>,
        /// Whether the access pattern is data-dependent.
        random: bool,
    },
    /// Dequeues one element from a FIFO (consumed exactly once per
    /// innermost iteration).
    Deq(String),
    /// Reads a register.
    RegRead(String),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinSOp,
        /// Left operand.
        lhs: Box<SExpr>,
        /// Right operand.
        rhs: Box<SExpr>,
    },
    /// Negation.
    Neg(Box<SExpr>),
    /// `if cond != 0 { if_true } else { if_false }` — used for union
    /// co-iteration where one side may be absent (Fig. 7's `X` entries).
    Select {
        /// Condition (nonzero = true).
        cond: Box<SExpr>,
        /// Value when the condition holds.
        if_true: Box<SExpr>,
        /// Value otherwise.
        if_false: Box<SExpr>,
    },
}

impl SExpr {
    /// Variable reference.
    pub fn var(name: impl Into<String>) -> SExpr {
        SExpr::Var(name.into())
    }

    /// Affine (streamed) memory read.
    pub fn read(mem: impl Into<String>, index: SExpr) -> SExpr {
        SExpr::ReadMem {
            mem: mem.into(),
            index: Box::new(index),
            random: false,
        }
    }

    /// Random-access (gather) memory read.
    pub fn read_random(mem: impl Into<String>, index: SExpr) -> SExpr {
        SExpr::ReadMem {
            mem: mem.into(),
            index: Box::new(index),
            random: true,
        }
    }

    /// `lhs op rhs`.
    pub fn bin(op: BinSOp, lhs: SExpr, rhs: SExpr) -> SExpr {
        SExpr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(lhs: SExpr, rhs: SExpr) -> SExpr {
        SExpr::bin(BinSOp::Add, lhs, rhs)
    }

    /// `lhs - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: SExpr, rhs: SExpr) -> SExpr {
        SExpr::bin(BinSOp::Sub, lhs, rhs)
    }

    /// `lhs * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(lhs: SExpr, rhs: SExpr) -> SExpr {
        SExpr::bin(BinSOp::Mul, lhs, rhs)
    }

    /// Selection between two values.
    pub fn select(cond: SExpr, if_true: SExpr, if_false: SExpr) -> SExpr {
        SExpr::Select {
            cond: Box::new(cond),
            if_true: Box::new(if_true),
            if_false: Box::new(if_false),
        }
    }

    /// Counts ALU operations in this expression (one per binary op, neg, or
    /// select) — the input to PCU stage packing.
    pub fn alu_ops(&self) -> usize {
        match self {
            SExpr::Var(_) | SExpr::Const(_) | SExpr::RegRead(_) | SExpr::Deq(_) => 0,
            SExpr::ReadMem { index, .. } => index.alu_ops(),
            SExpr::Neg(e) => 1 + e.alu_ops(),
            SExpr::Binary { lhs, rhs, .. } => 1 + lhs.alu_ops() + rhs.alu_ops(),
            SExpr::Select {
                cond,
                if_true,
                if_false,
            } => 1 + cond.alu_ops() + if_true.alu_ops() + if_false.alu_ops(),
        }
    }

    /// Visits every memory read in the expression.
    pub fn visit_reads<'a>(&'a self, f: &mut impl FnMut(&'a str, bool)) {
        match self {
            SExpr::Var(_) | SExpr::Const(_) | SExpr::RegRead(_) => {}
            SExpr::Deq(fifo) => f(fifo, false),
            SExpr::ReadMem { mem, index, random } => {
                f(mem, *random);
                index.visit_reads(f);
            }
            SExpr::Neg(e) => e.visit_reads(f),
            SExpr::Binary { lhs, rhs, .. } => {
                lhs.visit_reads(f);
                rhs.visit_reads(f);
            }
            SExpr::Select {
                cond,
                if_true,
                if_false,
            } => {
                cond.visit_reads(f);
                if_true.visit_reads(f);
                if_false.visit_reads(f);
            }
        }
    }
}

impl fmt::Display for SExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SExpr::Var(v) => write!(f, "{v}"),
            SExpr::Const(c) => {
                if c.fract() == 0.0 && c.abs() < 1e15 {
                    write!(f, "{}", *c as i64)
                } else {
                    write!(f, "{c}")
                }
            }
            SExpr::ReadMem { mem, index, .. } => write!(f, "{mem}({index})"),
            SExpr::Deq(fifo) => write!(f, "{fifo}.deq"),
            SExpr::RegRead(r) => write!(f, "{r}"),
            SExpr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            SExpr::Neg(e) => write!(f, "(-{e})"),
            SExpr::Select {
                cond,
                if_true,
                if_false,
            } => write!(f, "mux({cond}, {if_true}, {if_false})"),
        }
    }
}

/// Bit-vector combination mode of a two-input scanner (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanOp {
    /// Logical AND: intersection (multiplication).
    And,
    /// Logical OR: union (addition).
    Or,
}

impl fmt::Display for ScanOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanOp::And => write!(f, "and"),
            ScanOp::Or => write!(f, "or"),
        }
    }
}

/// The counter of a `Foreach`/`Reduce` pattern: dense range or
/// two-input co-iteration scan (Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub enum Counter {
    /// `min until max by step` with a counter variable — uncompressed
    /// iteration.
    Range {
        /// Bound loop variable.
        var: String,
        /// Inclusive lower bound.
        min: SExpr,
        /// Exclusive upper bound.
        max: SExpr,
        /// Step (usually 1).
        step: i64,
    },
    /// `Scan(par, len, bvA.deq, bvB.deq)`: co-iterate two bit vectors under
    /// AND/OR, binding per-operand positions (−1 when absent, Fig. 7's `X`),
    /// the output position, and the dense coordinate.
    Scan2 {
        /// Combination operator.
        op: ScanOp,
        /// First bit vector.
        bv_a: String,
        /// Second bit vector.
        bv_b: String,
        /// Bound: position within A's set bits, −1 if A lacks the bit.
        a_pos_var: String,
        /// Bound: position within B's set bits, −1 if B lacks the bit.
        b_pos_var: String,
        /// Bound: position within the combined output.
        out_pos_var: String,
        /// Bound: dense coordinate.
        idx_var: String,
    },
}

impl Counter {
    /// Convenience constructor for `0 until max by 1`.
    pub fn range_to(var: impl Into<String>, max: SExpr) -> Counter {
        Counter::Range {
            var: var.into(),
            min: SExpr::Const(0.0),
            max,
            step: 1,
        }
    }

    /// The variables this counter binds in its body.
    pub fn bound_vars(&self) -> Vec<&str> {
        match self {
            Counter::Range { var, .. } => vec![var],
            Counter::Scan2 {
                a_pos_var,
                b_pos_var,
                out_pos_var,
                idx_var,
                ..
            } => vec![a_pos_var, b_pos_var, out_pos_var, idx_var],
        }
    }
}

/// A statement of the Accel block.
#[derive(Debug, Clone, PartialEq)]
pub enum SpatialStmt {
    /// On-chip memory allocation (SRAM/SparseSRAM/FIFO/Reg/BitVector); the
    /// allocation is scoped to the enclosing pattern body iteration.
    Alloc(MemDecl),
    /// Bulk load `dst load src(start::end par p)` from DRAM into an on-chip
    /// memory (SRAM or FIFO).
    Load {
        /// Destination on-chip memory.
        dst: String,
        /// Source DRAM array.
        src: String,
        /// First word index.
        start: SExpr,
        /// One-past-last word index.
        end: SExpr,
        /// Load parallelization factor.
        par: usize,
    },
    /// Bulk store from an on-chip SRAM into DRAM.
    Store {
        /// Destination DRAM array.
        dst: String,
        /// Word offset into the destination.
        offset: SExpr,
        /// Source SRAM.
        src: String,
        /// Number of words.
        len: SExpr,
        /// Store parallelization factor.
        par: usize,
    },
    /// `dram stream_store_vec(offset, fifo, len)`: drain a FIFO to DRAM
    /// (Fig. 11, line 42).
    StreamStore {
        /// Destination DRAM array.
        dst: String,
        /// Word offset.
        offset: SExpr,
        /// Source FIFO.
        fifo: String,
        /// Number of elements to drain.
        len: SExpr,
    },
    /// Single-element DRAM write (`dram(i) = v`), a random store.
    StoreScalar {
        /// Destination DRAM array.
        dst: String,
        /// Word index.
        index: SExpr,
        /// Stored value.
        value: SExpr,
    },
    /// `val var = expr` binding.
    Bind {
        /// Bound name.
        var: String,
        /// Bound value.
        value: SExpr,
    },
    /// `Foreach(counter par p) { body }`.
    Foreach {
        /// Unique node id (assigned by [`SpatialProgram::assign_ids`]).
        id: usize,
        /// Iteration space.
        counter: Counter,
        /// Parallelization factor.
        par: usize,
        /// Body statements.
        body: Vec<SpatialStmt>,
    },
    /// `Reduce(reg)(counter par p) { expr } { _ + _ }` — maps to Capstan's
    /// PCU reduction tree. Body statements (binds, deqs) run per iteration
    /// before `expr` is accumulated into `reg`.
    Reduce {
        /// Unique node id.
        id: usize,
        /// Accumulator register.
        reg: String,
        /// Iteration space.
        counter: Counter,
        /// Parallelization factor.
        par: usize,
        /// Per-iteration setup statements.
        body: Vec<SpatialStmt>,
        /// The reduced expression.
        expr: SExpr,
    },
    /// Write to an on-chip memory: `mem(index) = value`.
    WriteMem {
        /// Destination memory.
        mem: String,
        /// Word index.
        index: SExpr,
        /// Stored value.
        value: SExpr,
        /// Whether the access is data-dependent (scatter).
        random: bool,
    },
    /// Atomic read-modify-write add: `mem(index) += value` (Capstan's
    /// on-chip memory atomics).
    RmwAdd {
        /// Destination memory.
        mem: String,
        /// Word index.
        index: SExpr,
        /// Added value.
        value: SExpr,
    },
    /// Write a register.
    SetReg {
        /// Register name.
        reg: String,
        /// Stored value.
        value: SExpr,
    },
    /// Enqueue into a FIFO.
    Enq {
        /// Destination FIFO.
        fifo: String,
        /// Enqueued value.
        value: SExpr,
    },
    /// Generate a packed bit vector from a stream of coordinates
    /// (`Gen BV` in Fig. 7). Reads `count` coordinates from `src` (a FIFO
    /// or SRAM starting at `src_start`) and sets those bits.
    GenBitVector {
        /// Destination bit vector.
        dst: String,
        /// Source memory holding coordinates.
        src: String,
        /// Starting word within `src` (ignored for FIFOs).
        src_start: SExpr,
        /// Number of coordinates.
        count: SExpr,
        /// Bit-vector length (the dimension size).
        dim: SExpr,
    },
    /// A free-form comment carried into printed output.
    Comment(String),
}

impl SpatialStmt {
    /// Visits this statement and all nested statements, pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a SpatialStmt)) {
        f(self);
        match self {
            SpatialStmt::Foreach { body, .. } | SpatialStmt::Reduce { body, .. } => {
                for s in body {
                    s.visit(f);
                }
            }
            _ => {}
        }
    }
}

/// A complete Spatial program: host-visible DRAM declarations, global
/// configuration constants (from `environment`), and the Accel block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpatialProgram {
    /// Kernel name (e.g. `sddmm`).
    pub name: String,
    /// Global configuration constants (`innerPar`, `outerPar`, ...).
    pub consts: Vec<(String, i64)>,
    /// Off-chip arrays, initialized by the host.
    pub drams: Vec<MemDecl>,
    /// The Accel block body.
    pub accel: Vec<SpatialStmt>,
}

impl SpatialProgram {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        SpatialProgram {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declares a DRAM array.
    pub fn add_dram(&mut self, name: impl Into<String>, size: usize) {
        self.drams.push(MemDecl::new(name, MemKind::Dram, size));
    }

    /// Declares a randomly accessed DRAM array.
    pub fn add_sparse_dram(&mut self, name: impl Into<String>, size: usize) {
        self.drams
            .push(MemDecl::new(name, MemKind::SparseDram, size));
    }

    /// Declares a configuration constant.
    pub fn add_const(&mut self, name: impl Into<String>, value: i64) {
        self.consts.push((name.into(), value));
    }

    /// Looks up a configuration constant.
    pub fn config(&self, name: &str) -> Option<i64> {
        self.consts
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Assigns unique ids to every `Foreach`/`Reduce` node (stable
    /// pre-order numbering). Call once after construction.
    pub fn assign_ids(&mut self) {
        let mut next = 0usize;
        fn go(stmts: &mut [SpatialStmt], next: &mut usize) {
            for s in stmts {
                match s {
                    SpatialStmt::Foreach { id, body, .. } => {
                        *id = *next;
                        *next += 1;
                        go(body, next);
                    }
                    SpatialStmt::Reduce { id, body, .. } => {
                        *id = *next;
                        *next += 1;
                        go(body, next);
                    }
                    _ => {}
                }
            }
        }
        go(&mut self.accel, &mut next);
    }

    /// Visits every statement in the Accel block, pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a SpatialStmt)) {
        for s in &self.accel {
            s.visit(f);
        }
    }

    /// Total number of `Foreach`/`Reduce` pattern nodes.
    pub fn pattern_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if matches!(s, SpatialStmt::Foreach { .. } | SpatialStmt::Reduce { .. }) {
                n += 1;
            }
        });
        n
    }

    /// All on-chip allocations in the program.
    pub fn on_chip_allocs(&self) -> Vec<&MemDecl> {
        let mut out = Vec::new();
        self.visit(&mut |s| {
            if let SpatialStmt::Alloc(d) = s {
                out.push(d);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sexpr_builders_and_ops() {
        let e = SExpr::mul(
            SExpr::add(SExpr::var("a"), SExpr::Const(2.0)),
            SExpr::var("b"),
        );
        assert_eq!(e.alu_ops(), 2);
        assert_eq!(e.to_string(), "((a + 2) * b)");
    }

    #[test]
    fn binsop_apply() {
        assert_eq!(BinSOp::Add.apply(2.0, 3.0), Some(5.0));
        assert_eq!(BinSOp::Sub.apply(2.0, 3.0), Some(-1.0));
        assert_eq!(BinSOp::Mul.apply(2.0, 3.0), Some(6.0));
        assert_eq!(BinSOp::Div.apply(7.0, 2.0), Some(3.0));
        assert_eq!(BinSOp::Mod.apply(7.0, 2.0), Some(1.0));
        assert_eq!(BinSOp::Mul.apply(7.0, 0.0), Some(0.0));
        assert_eq!(BinSOp::Div.apply(7.0, 0.0), None);
        assert_eq!(BinSOp::Mod.apply(7.0, -0.0), None);
    }

    #[test]
    fn select_counts_ops_and_prints() {
        let e = SExpr::select(SExpr::var("has"), SExpr::var("x"), SExpr::Const(0.0));
        assert_eq!(e.alu_ops(), 1);
        assert_eq!(e.to_string(), "mux(has, x, 0)");
    }

    #[test]
    fn visit_reads_finds_gathers() {
        let e = SExpr::mul(
            SExpr::read("C_vals", SExpr::var("k")),
            SExpr::read_random("x_vals", SExpr::var("j")),
        );
        let mut reads = Vec::new();
        e.visit_reads(&mut |m, r| reads.push((m.to_string(), r)));
        assert_eq!(
            reads,
            vec![("C_vals".to_string(), false), ("x_vals".to_string(), true)]
        );
    }

    #[test]
    fn counter_bound_vars() {
        let c = Counter::range_to("i", SExpr::Const(4.0));
        assert_eq!(c.bound_vars(), vec!["i"]);
        let s = Counter::Scan2 {
            op: ScanOp::Or,
            bv_a: "bvA".into(),
            bv_b: "bvB".into(),
            a_pos_var: "pA".into(),
            b_pos_var: "pB".into(),
            out_pos_var: "pO".into(),
            idx_var: "j".into(),
        };
        assert_eq!(s.bound_vars(), vec!["pA", "pB", "pO", "j"]);
    }

    #[test]
    fn program_ids_are_preorder() {
        let mut p = SpatialProgram::new("t");
        p.accel.push(SpatialStmt::Foreach {
            id: 99,
            counter: Counter::range_to("i", SExpr::Const(2.0)),
            par: 1,
            body: vec![SpatialStmt::Reduce {
                id: 99,
                reg: "r".into(),
                counter: Counter::range_to("j", SExpr::Const(2.0)),
                par: 1,
                body: vec![],
                expr: SExpr::Const(1.0),
            }],
        });
        p.assign_ids();
        let mut ids = Vec::new();
        p.visit(&mut |s| match s {
            SpatialStmt::Foreach { id, .. } | SpatialStmt::Reduce { id, .. } => ids.push(*id),
            _ => {}
        });
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(p.pattern_count(), 2);
    }

    #[test]
    fn config_last_binding_wins() {
        let mut p = SpatialProgram::new("t");
        p.add_const("ip", 16);
        p.add_const("ip", 8);
        assert_eq!(p.config("ip"), Some(8));
        assert_eq!(p.config("op"), None);
    }

    #[test]
    fn memkind_display_and_offchip() {
        assert!(MemKind::Dram.is_off_chip());
        assert!(MemKind::SparseDram.is_off_chip());
        assert!(!MemKind::Sram.is_off_chip());
        assert_eq!(MemKind::Fifo.to_string(), "FIFO");
        assert_eq!(MemKind::BitVector.to_string(), "BitVector");
    }

    #[test]
    fn on_chip_allocs_collected() {
        let mut p = SpatialProgram::new("t");
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("b", MemKind::Sram, 64)));
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(2.0)),
            par: 1,
            body: vec![SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 16))],
        });
        let names: Vec<_> = p.on_chip_allocs().iter().map(|d| d.name.clone()).collect();
        assert_eq!(names, vec!["b", "f"]);
    }
}
