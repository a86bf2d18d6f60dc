//! The link-and-lower pass: from a named Spatial tree to flat bytecode
//! over dense slots.
//!
//! A [`SpatialProgram`] names every memory, register, FIFO and loop
//! variable by `String`, and nests its statements and expressions as
//! trees. Executing that form directly means a hashed name probe per
//! access and a recursive call per statement. [`CompiledProgram::compile`]
//! walks the tree once and emits a dense form:
//!
//! - every name is interned into one of the three slot namespaces of a
//!   [`SymbolTable`] (DRAM, on-chip, variable) as the op that uses it is
//!   emitted, so the machine's state is `Vec`-indexed and its inner loop
//!   never hashes a string;
//! - every statement becomes one fixed-size [`Op`] in a flat `Vec<Op>`,
//!   and every loop (`Foreach` or `Reduce`, over a dense `Range` or a
//!   two-input co-iteration `Scan`) becomes one superinstruction
//!   ([`Op::RangeSimple`], [`Op::Scan2Simple`]) followed by its body
//!   span, nested loops nesting their spans inside it;
//! - every expression tree becomes a postfix [`EOp`] program evaluated
//!   with a small value stack, with `Select` lowered to conditional
//!   jumps so the untaken side is skipped exactly as the reference
//!   walker skips it;
//! - the static on-chip and DRAM layouts ([`crate::resolve`]) are read
//!   off the flat ops in one scan.
//!
//! Linking is *total*: names that are referenced but never declared
//! still get slots, and the `UnknownMemory` error the reference engine
//! raises at touch time is reproduced at runtime when the slot's state
//! is found unallocated.
//!
//! [`crate::Machine::run`] then executes the op vector span by span: a
//! superinstruction runs its loop natively and steps its body span once
//! per iteration — no per-iteration closure, no loop-control dispatch,
//! recursion only as deep as the program's loop nesting. The original
//! string-keyed engine survives as [`crate::ReferenceMachine`];
//! differential tests hold the two to byte-identical DRAM images and
//! identical [`crate::ExecStats`].
//!
//! Compilation is pure: a [`CompiledProgram`] depends only on the source
//! program, so it is shared behind `Arc` and cached by program identity
//! in a [`ProgramCache`]. Harnesses that sweep one kernel across many
//! datasets or memory models re-bind a fresh [`crate::Machine`] per run
//! without paying the link/lower cost again.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::interp::Machine;
use crate::ir::{BinSOp, Counter, MemDecl, MemKind, SExpr, ScanOp, SpatialProgram, SpatialStmt};
use crate::resolve::{ArenaLayout, DramLayout, Slot, SymbolTable};

/// Index of an [`Op`] in a compiled program (a program-counter value).
pub type OpId = u32;

/// Index into the flat expression-op array where an expression program
/// starts; evaluation runs to the matching [`EOp::End`].
pub type ERef = u32;

/// One postfix expression op. Evaluation pushes/pops a value stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EOp {
    /// Push a literal.
    Const(f64),
    /// Push a bound variable.
    Var(Slot),
    /// Push a register's value.
    RegRead(Slot),
    /// Dequeue from a FIFO and push the element.
    Deq(Slot),
    /// Pop an index, read `mem[index]`, push the value. Carries both
    /// resolutions of the name (on-chip checked first, then the
    /// SparseDRAM random-read fallback), like [`Operand::Gather`].
    ReadMem {
        /// On-chip slot of the name.
        chip: Slot,
        /// DRAM slot of the same name.
        dram: Slot,
        /// Whether the access is data-dependent.
        random: bool,
    },
    /// Pop, negate, push.
    Neg,
    /// Pop rhs then lhs, apply, push.
    Binary(BinSOp),
    /// Fused `Var` + `ReadMem`: read `mem[env[var]]` and push, saving a
    /// dispatch and a stack round-trip on the commonest gather shape.
    VarReadMem {
        /// On-chip slot of the name.
        chip: Slot,
        /// DRAM slot of the same name.
        dram: Slot,
        /// Whether the access is data-dependent.
        random: bool,
        /// Index variable slot.
        var: Slot,
    },
    /// Fused `Var` + `VarReadMem` + `Binary`: push
    /// `env[a] op mem[env[ivar]]` — the scale-by-gathered-value shape
    /// at the heart of scatter-accumulate kernels.
    VarBinGather {
        /// Left operand variable slot.
        a: Slot,
        /// Operator.
        op: BinSOp,
        /// On-chip slot of the gathered name.
        chip: Slot,
        /// DRAM slot of the same name.
        dram: Slot,
        /// Whether the access is data-dependent.
        random: bool,
        /// Gather index variable slot.
        ivar: Slot,
    },
    /// Fused `Var` + `Const` + `Binary`: push `env[var] op c` (the
    /// ubiquitous `i + 1` position arithmetic).
    VarConstBin {
        /// Left operand variable slot.
        var: Slot,
        /// Right operand constant.
        c: f64,
        /// Operator.
        op: BinSOp,
    },
    /// Pop the mux condition (counting its ALU op); fall through to the
    /// true side when nonzero, jump to `target` (the false side)
    /// otherwise.
    BranchFalse {
        /// First op of the false side.
        target: ERef,
    },
    /// Unconditional jump (ends the true side of a `Select`).
    Jump {
        /// Jump destination.
        target: ERef,
    },
    /// End of this expression program; the result is the top of stack.
    End,
}

/// One op of a loop's *lane program* (see [`VecClass::Reduce`],
/// [`VecClass::Scan`] and [`VecClass::SegReduce`]): an expression
/// re-expressed over whole lanes of consecutive iterations, in postfix
/// order like [`EOp`]. Every leaf is either loop-invariant or a lane
/// the vector tier can materialize for a whole chunk at once. A reduce
/// loop's program ends at [`LaneOp::End`]; a scan loop's is one program
/// per body statement, each closed by the statement's sink op (`Fold`,
/// `AddReg`, `Enq`, `Store`, `Count`), and the list ends at
/// [`LaneOp::End`]; a row loop's is one program per row expression,
/// each closed by [`LaneOp::End`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaneOp {
    /// A literal, the same in every lane.
    Const(f64),
    /// The loop variable: lane `k` of a chunk starting at `v` is `v + k`.
    Iota,
    /// The variable bound by the loop body's `k`-th op, `Bind x =
    /// fifo.deq`: lane `k` of a chunk is the FIFO's `k`-th element from
    /// its head.
    Head(u32),
    /// The scan loop's `k`-th variable, `[a_pos, b_pos, out_pos, idx]`:
    /// lane `l` of a chunk is its value at the chunk's `l`-th emit (a
    /// position is −1 on the absent side of an `or` scan).
    ScanVar(u32),
    /// `mux(p + 1, chip[p], 0)` over the scan position `p` of side
    /// `side` (0 = a, 1 = b) — the guarded read the `or` lowering
    /// emits: `chip[p]` on lanes where that side is present, `0` where
    /// it is absent.
    Guarded {
        /// 0 for the `a` position, 1 for the `b` position.
        side: u32,
        /// On-chip slot read.
        chip: Slot,
        /// Whether the access is data-dependent.
        random: bool,
    },
    /// Row column `k` of a [`VecClass::SegReduce`] row loop: lane `l`
    /// holds the column's value in the chunk's `l`-th row — a variable
    /// bound earlier in the row, or a register allocated in it.
    Col(u32),
    /// A variable the loop body does not bind: loop-invariant.
    Var(Slot),
    /// A register: loop-invariant (the body writes none, and the
    /// accumulator is only written back at loop exit).
    Reg(Slot),
    /// Pop an index lane, push `chip[index]` per lane. The body writes
    /// no memory, so every lane sees the loop-entry contents.
    Read {
        /// On-chip slot read.
        chip: Slot,
        /// Whether the access is data-dependent.
        random: bool,
    },
    /// Negate the top lane.
    Neg,
    /// Pop rhs then lhs, push `lhs op rhs` per lane (`Add`, `Sub` or
    /// `Mul`: operators that cannot fail).
    Bin(BinSOp),
    /// Sink: fold each lane, in lane order, into the scan's own `Reduce`
    /// accumulator.
    Fold,
    /// Sink: `SetReg reg = reg + lane`, in lane order.
    AddReg(Slot),
    /// Sink: `Enq fifo, lane`, in lane order.
    Enq(Slot),
    /// Sink: `StoreScalar dst(ctr) = lane`, where lane `l` sees the
    /// counter register `ctr` advanced `l` times by its
    /// [`LaneOp::Count`].
    Store {
        /// Destination DRAM slot.
        dst: Slot,
        /// The counter register indexing the store.
        ctr: Slot,
    },
    /// Sink with no program: `SetReg ctr = ctr + 1` once per lane.
    Count(Slot),
    /// End of this lane program (of a scan loop's list of them).
    End,
}

/// Index into [`CompiledProgram::lanes`] where a lane program starts;
/// it runs to the matching [`LaneOp::End`].
pub type LaneRef = u32;

/// A statement operand, resolved at compile time to an immediate form
/// whenever the expression is a leaf (or the ubiquitous single-gather
/// `mem[var]`), so the executor skips the expression interpreter for
/// the common cases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A literal.
    Const(f64),
    /// A bound variable.
    Var(Slot),
    /// `mem[env[var]]` — the dominant sparse-access shape.
    Gather {
        /// On-chip slot of the name.
        chip: Slot,
        /// DRAM slot of the same name.
        dram: Slot,
        /// Whether the access is data-dependent.
        random: bool,
        /// Index variable slot.
        var: Slot,
    },
    /// A recognized multi-access shape, stored out of line in the
    /// program's [`FusedOp`] table to keep this enum small.
    Fused(u32),
    /// Anything else: a postfix expression program.
    Expr(ERef),
}

/// A memory reference inside a [`FusedOp`]: `mem[env[var]]` with both
/// name resolutions, exactly like [`EOp::VarReadMem`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatherRef {
    /// On-chip slot of the name.
    pub chip: Slot,
    /// DRAM slot of the same name.
    pub dram: Slot,
    /// Whether the access is data-dependent.
    pub random: bool,
    /// Index variable slot.
    pub var: Slot,
}

/// Compile-time-recognized compound operand shapes, evaluated without
/// entering the expression interpreter. Each reproduces the unfused
/// evaluation order (and therefore statistics and error identity)
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedOp {
    /// `mem[env[var] op c]` — the compressed-level bound shape
    /// (`pos[i + 1]`).
    GatherOffset {
        /// The gathered memory; its `var` is the index variable.
        mem: GatherRef,
        /// Index offset constant.
        c: f64,
        /// Index operator.
        op: BinSOp,
    },
    /// `env[a] op mem[env[var]]` — the scale-by-gathered-value shape
    /// (`vb * C_vals[jj]`).
    BinGather {
        /// Left operand variable slot.
        a: Slot,
        /// Operator.
        op: BinSOp,
        /// The gathered memory.
        mem: GatherRef,
    },
}

/// One statement op of the flat program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// On-chip allocation (or the runtime rejection of an off-chip kind).
    Alloc {
        /// Chip slot being allocated.
        slot: Slot,
        /// Declared kind.
        kind: MemKind,
        /// Capacity in words (bits for bit vectors).
        size: usize,
    },
    /// `val var = expr`.
    Bind {
        /// Bound variable slot.
        var: Slot,
        /// Value expression.
        value: Operand,
    },
    /// Bulk DRAM → on-chip load.
    Load {
        /// Destination chip slot.
        dst: Slot,
        /// Source DRAM slot.
        src: Slot,
        /// First word index.
        start: Operand,
        /// One-past-last word index.
        end: Operand,
    },
    /// Bulk on-chip → DRAM store.
    Store {
        /// Destination DRAM slot.
        dst: Slot,
        /// Word offset into the destination.
        offset: Operand,
        /// Source chip slot.
        src: Slot,
        /// Number of words.
        len: Operand,
    },
    /// FIFO → DRAM drain.
    StreamStore {
        /// Destination DRAM slot.
        dst: Slot,
        /// Word offset.
        offset: Operand,
        /// Source FIFO chip slot.
        fifo: Slot,
        /// Number of elements.
        len: Operand,
    },
    /// Single-element DRAM write.
    StoreScalar {
        /// Destination DRAM slot.
        dst: Slot,
        /// Word index.
        index: Operand,
        /// Stored value.
        value: Operand,
    },
    /// On-chip write.
    WriteMem {
        /// Destination chip slot.
        mem: Slot,
        /// Word index.
        index: Operand,
        /// Stored value.
        value: Operand,
        /// Whether the access is data-dependent.
        random: bool,
    },
    /// On-chip atomic add.
    RmwAdd {
        /// Destination chip slot.
        mem: Slot,
        /// Word index.
        index: Operand,
        /// Added value.
        value: Operand,
    },
    /// Register write.
    SetReg {
        /// Register chip slot.
        reg: Slot,
        /// Stored value.
        value: Operand,
    },
    /// FIFO enqueue.
    Enq {
        /// Destination FIFO chip slot.
        fifo: Slot,
        /// Enqueued value.
        value: Operand,
    },
    /// Bit-vector generation from a coordinate stream.
    GenBitVector {
        /// Destination bit-vector chip slot.
        dst: Slot,
        /// Source chip slot (FIFO or SRAM).
        src: Slot,
        /// Starting word within `src`.
        src_start: Operand,
        /// Number of coordinates.
        count: Operand,
        /// Bit-vector length.
        dim: Operand,
    },
    /// A dense `Range` loop: bounds evaluated once, then the whole loop
    /// runs natively inside a single dispatch, stepping the body span
    /// once per iteration. Nested loops are nested superinstructions
    /// inside the span.
    RangeSimple {
        /// Pattern node id (trip statistics).
        id: usize,
        /// Loop variable slot.
        var: Slot,
        /// Inclusive lower bound.
        min: Operand,
        /// Exclusive upper bound.
        max: Operand,
        /// Step (positive).
        step: i64,
        /// First body op (always this op's pc + 1).
        body: OpId,
        /// Number of body ops; execution resumes past them.
        body_len: u32,
        /// `(accumulator register, reduced expression)` when the loop
        /// is a `Reduce`.
        reduce: Option<(Slot, Operand)>,
    },
    /// A two-input co-iteration `Scan` loop (Fig. 7's joiner) in
    /// superinstruction form: both bit vectors are snapshotted once and
    /// their combined set bits iterate natively, stepping the body span
    /// once per emit — the loop shape of sparse-sparse union and
    /// intersection kernels. `or` against an all-zero vector scans one
    /// vector's set bits.
    Scan2Simple {
        /// Pattern node id (trip statistics).
        id: usize,
        /// Combination operator.
        op: ScanOp,
        /// First bit vector (chip slot).
        bv_a: Slot,
        /// Second bit vector (chip slot).
        bv_b: Slot,
        /// `[a_pos, b_pos, out_pos, idx]` variable slots.
        vars: [Slot; 4],
        /// First body op (always this op's pc + 1).
        body: OpId,
        /// Number of body ops; execution resumes past them.
        body_len: u32,
        /// `(accumulator register, reduced expression)` when the loop
        /// is a `Reduce`.
        reduce: Option<(Slot, Operand)>,
    },
    /// End of program.
    Halt,
}

/// A fully compiled Spatial program: the source, its symbol table, the
/// static memory layouts the link pass computed, and the flat bytecode.
/// Immutable once built — share it behind [`Arc`] and bind as many
/// [`Machine`]s to it as needed.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    source: SpatialProgram,
    syms: SymbolTable,
    layout: ArenaLayout,
    dram_layout: DramLayout,
    node_limit: usize,
    ops: Vec<Op>,
    eops: Vec<EOp>,
    fused: Vec<FusedOp>,
    /// A pristine zeroed input segment sized per the DRAM layout.
    /// Freshly constructed machines share it behind this `Arc`
    /// (copy-on-write), so creating a machine never allocates or zeroes
    /// the input segment.
    zero_input: Arc<Vec<f64>>,
    /// Per-op vector-eligibility classification (parallel to `ops`),
    /// computed by [`crate::analysis::classify_vec`] after lowering.
    /// The interpreter's vector tier consults this flag before
    /// attempting a chunked run, so ineligible loops never pay for
    /// runtime shape analysis.
    vec: Vec<VecClass>,
    /// The lane programs [`VecClass::Reduce`], [`VecClass::Scan`] and
    /// [`VecClass::SegReduce`] entries point into.
    lanes: Vec<LaneOp>,
    /// Half-open `[start, end)` op spans of each top-level source
    /// statement, in statement order — the correspondence the effect
    /// analysis uses to reason about prefix/body/suffix regions of a
    /// program.
    stmt_spans: Vec<(OpId, OpId)>,
}

/// Vector-eligibility classification of one lowered op: whether the
/// peephole recognized a shape the data-parallel tier
/// ([`crate::vector`]) can chunk. The flag is a *shape* property of the
/// bytecode; the interpreter still validates the runtime half of the
/// contract (slot allocations, integral unit-step bounds, stream
/// aliasing) on each loop entry and falls back to the scalar loop when
/// it does not hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecClass {
    /// Not a vectorizable shape.
    None,
    /// A unit-step [`Op::RangeSimple`] reduce whose body is empty or
    /// only binds FIFO heads (`val j = crd.deq; val v = vals.deq`, each
    /// from its own FIFO) and whose reduced expression is the lane
    /// program at this [`LaneRef`]: `+ - *` and negation over
    /// constants, loop-invariant values, the loop variable, the bound
    /// FIFO heads, and on-chip reads indexed by any of those — the
    /// inner products of SpMV, MatTransMul, Residual, TTV and SDDMM.
    Reduce(LaneRef),
    /// An [`Op::Scan2Simple`] whose every body statement is one of the
    /// four lane statements the compiled co-iteration kernels produce,
    /// with pairwise-distinct targets: the scan's own `Reduce` fold,
    /// `SetReg r = r + e` (`r` read nowhere else), `Enq f, e`, and the
    /// counter-indexed append `StoreScalar d(ctr) = e; …; SetReg ctr =
    /// ctr + 1`. Each `e` is a lane program over the four scan
    /// variables, loop invariants, on-chip reads and the `mux(p + 1,
    /// mem(p), 0)` guarded read; the statements' programs start at this
    /// [`LaneRef`]. The vector tier takes up to
    /// [`crate::vector::REDUCE_LANES`] emits at a time straight from the
    /// scan snapshot's words — the inner loops of Plus2, Plus3 and
    /// InnerProd.
    Scan(LaneRef),
    /// A unit-step [`Op::RangeSimple`] row loop with no reduce of its
    /// own, whose body is straight-line row ops around exactly one
    /// [`VecClass::Reduce`]-tagged `RangeSimple` over `0 until n` (`n`
    /// bound in the row). Before the inner loop the body may allocate
    /// registers and FIFOs, `Bind` and `SetReg` lane programs over the
    /// row variable, loop invariants, earlier row columns and on-chip
    /// reads of slots it does not write, and `Load` a FIFO between
    /// two row-bound variables; every FIFO head of the inner loop must
    /// be one of those loads. After it, the body may `SetReg` and
    /// `StoreScalar`. Each `Alloc` of a register, each `Bind` and each
    /// `StoreScalar` (index, then value) opens the next row column
    /// ([`LaneOp::Col`]); the `Bind`, `SetReg` and `StoreScalar`
    /// programs start at this [`LaneRef`], one per expression in body
    /// order, each closed by [`LaneOp::End`]. The vector tier runs the
    /// rows as one segmented stream: row programs over up to
    /// [`crate::vector::REDUCE_LANES`] rows at a time, the inner lane
    /// program over chunks of nonzeros that cross row boundaries —
    /// the row loops of SpMV, MatTransMul and Residual.
    SegReduce(LaneRef),
}

impl CompiledProgram {
    /// Links and lowers a program in one pass: names intern into a
    /// fresh symbol table (every DRAM declaration first, in order) as
    /// the ops that use them are emitted, and the static layouts are
    /// then read off the flat ops.
    pub fn compile(program: &SpatialProgram) -> Self {
        let mut lowering = Lowering {
            syms: SymbolTable::default(),
            ops: Vec::new(),
            eops: Vec::new(),
            fused: Vec::new(),
            fuse_barrier: 0,
        };
        let drams: Vec<(Slot, &MemDecl)> = program
            .drams
            .iter()
            .map(|d| (lowering.syms.dram(&d.name), d))
            .collect();
        let stmt_spans = program
            .accel
            .iter()
            .map(|stmt| {
                let start = lowering.ops.len() as OpId;
                lowering.stmt(stmt);
                (start, lowering.ops.len() as OpId)
            })
            .collect();
        lowering.ops.push(Op::Halt);
        let Lowering {
            syms,
            ops,
            eops,
            fused,
            ..
        } = lowering;
        let (layout, dram_layout, node_limit) = crate::resolve::layouts(&ops, &drams, &syms);
        let zero_input = Arc::new(vec![0.0; dram_layout.input_words]);
        let (vec, lanes) = crate::analysis::classify_vec(&ops, &eops, &fused);
        let compiled = CompiledProgram {
            source: program.clone(),
            syms,
            layout,
            dram_layout,
            node_limit,
            ops,
            eops,
            fused,
            zero_input,
            vec,
            lanes,
            stmt_spans,
        };
        // Every compile is verified in debug builds: a lowering bug
        // surfaces as a typed VerifyError here, not as a differential
        // divergence (or an out-of-bounds dispatch) at run time.
        #[cfg(debug_assertions)]
        #[allow(
            clippy::panic,
            reason = "debug-only self-check of this crate's own lowering, not of its input"
        )]
        if let Err(e) = compiled.verify() {
            panic!("compiler produced an invalid program: {e}");
        }
        compiled
    }

    /// Verifies the structural validity of this program's bytecode
    /// (see [`crate::analysis::verify`]). The compiler asserts this on
    /// every compile in debug builds; release pipelines call it once
    /// per compile via [`stardust-core`'s `CompileError::Verify`
    /// gate](crate::analysis::VerifyError).
    pub fn verify(&self) -> Result<(), crate::analysis::VerifyError> {
        crate::analysis::verify(&crate::analysis::VerifyCtx {
            ops: &self.ops,
            eops: &self.eops,
            fused: &self.fused,
            syms: &self.syms,
            layout: &self.layout,
            dram_layout: &self.dram_layout,
        })
    }

    /// The source program this artifact was compiled from.
    pub fn source(&self) -> &SpatialProgram {
        &self.source
    }

    /// The symbol table the program was linked against.
    pub fn syms(&self) -> &SymbolTable {
        &self.syms
    }

    /// Static offsets/extents of every on-chip memory inside a
    /// machine's flat arenas.
    pub fn layout(&self) -> &ArenaLayout {
        &self.layout
    }

    /// Static placement of every DRAM array inside a machine's flat
    /// DRAM arena (read-only input prefix, written output suffix).
    pub fn dram_layout(&self) -> &DramLayout {
        &self.dram_layout
    }

    /// One past the largest `Foreach`/`Reduce` node id (sizes the dense
    /// per-node statistics vectors).
    pub(crate) fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// The flat statement ops.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The flat expression ops.
    pub fn eops(&self) -> &[EOp] {
        &self.eops
    }

    /// The fused compound-operand table.
    pub fn fused(&self) -> &[FusedOp] {
        &self.fused
    }

    /// The vector-eligibility classification of the op at `pc` (see
    /// [`VecClass`]).
    #[inline(always)]
    pub fn vec_class(&self, pc: usize) -> VecClass {
        self.vec[pc]
    }

    /// The lane-program table [`VecClass::Reduce`], [`VecClass::Scan`]
    /// and [`VecClass::SegReduce`] index.
    pub fn lanes(&self) -> &[LaneOp] {
        &self.lanes
    }

    /// Always `false`: the engine has no bounds-check-elision tier.
    /// Kept only because the `perf` benchmark's tier census calls it;
    /// the next refresh of that benchmark deletes both.
    pub fn elide_at(&self, _pc: usize) -> bool {
        false
    }

    /// Half-open `[start, end)` op spans of each top-level statement of
    /// the source `accel` block, in statement order: `stmt_spans()[i]`
    /// belongs to `source().accel[i]`. A [`SpatialStmt::Comment`] emits
    /// no op, so its span is empty.
    pub fn stmt_spans(&self) -> &[(OpId, OpId)] {
        &self.stmt_spans
    }

    /// The shared pristine (all-zero) DRAM input segment machines are
    /// born bound to.
    pub fn zero_dram_input(&self) -> &Arc<Vec<f64>> {
        &self.zero_input
    }
}

/// A cache of compiled programs keyed by program identity (name fast
/// path, full structural equality on collision). Thread-safe; cheap to
/// share by reference across a benchmark harness or dataset sweep.
///
/// It also carries a **front-end memo** ([`ProgramCache::memo_get`],
/// [`ProgramCache::memo_insert`]): a typed side index a compiler front
/// end uses to find the artifact it built around one of this cache's
/// entries without producing the [`SpatialProgram`] again. This crate
/// does not know the front end's key type, so the memo stores opaque
/// handles and the caller supplies the (exact) comparison; the counters
/// stay here so [`ProgramCache::stats`] covers both ways of being served
/// from cache.
#[derive(Debug, Default)]
pub struct ProgramCache {
    inner: Mutex<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<String, Vec<Arc<CompiledProgram>>>,
    memo: HashMap<String, Vec<Box<dyn Any + Send + Sync>>>,
    hits: u64,
    misses: u64,
}

/// The first handle of type `T` in `bucket` that `matches`.
fn memo_find<T: Any + Clone>(
    bucket: &[Box<dyn Any + Send + Sync>],
    matches: impl Fn(&T) -> bool,
) -> Option<T> {
    bucket
        .iter()
        .filter_map(|handle| handle.downcast_ref::<T>())
        .find(|handle| matches(handle))
        .cloned()
}

impl ProgramCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the shared compiled form of `program`, compiling it on
    /// first sight.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned by a panicking thread.
    pub fn get_or_compile(&self, program: &SpatialProgram) -> Arc<CompiledProgram> {
        let mut inner = self.inner.lock().expect("cache lock");
        let bucket = inner.entries.entry(program.name.clone()).or_default();
        if let Some(hit) = bucket.iter().find(|c| c.source() == program) {
            let hit = Arc::clone(hit);
            inner.hits += 1;
            return hit;
        }
        let compiled = Arc::new(CompiledProgram::compile(program));
        bucket.push(Arc::clone(&compiled));
        inner.misses += 1;
        compiled
    }

    /// Probes the front-end memo: the handle of type `T` filed under
    /// `bucket` for which `matches` holds, cloned. `matches` must compare
    /// the handle's whole key for equality — the bucket name only narrows
    /// the search — and, running under the cache lock, must not call
    /// back into the cache. A handle found counts as a hit in
    /// [`ProgramCache::stats`]; a probe that finds none counts nothing
    /// (the caller goes on to [`ProgramCache::get_or_compile`], which
    /// counts).
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    pub fn memo_get<T: Any + Clone>(
        &self,
        bucket: &str,
        matches: impl Fn(&T) -> bool,
    ) -> Option<T> {
        let mut inner = self.inner.lock().expect("cache lock");
        let hit = memo_find(inner.memo.get(bucket)?, matches)?;
        inner.hits += 1;
        Some(hit)
    }

    /// Files `handle` in the front-end memo under `bucket`, unless a
    /// handle that `matches` is already there — first-sight racers all
    /// build one, the first to arrive is kept and returned to every one
    /// of them. The handle should be no more than an `Arc` around an
    /// artifact that holds the [`ProgramCache::get_or_compile`] entry it
    /// was built on, so the memo adds a pointer per entry, not a copy.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    pub fn memo_insert<T: Any + Clone + Send + Sync>(
        &self,
        bucket: &str,
        matches: impl Fn(&T) -> bool,
        handle: T,
    ) -> T {
        let mut inner = self.inner.lock().expect("cache lock");
        let bucket = inner.memo.entry(bucket.to_string()).or_default();
        if let Some(first) = memo_find(bucket, matches) {
            return first;
        }
        bucket.push(Box::new(handle.clone()));
        handle
    }

    /// Builds a machine bound to the cached compiled form of `program`.
    pub fn machine(&self, program: &SpatialProgram) -> Machine {
        Machine::from_compiled(self.get_or_compile(program))
    }

    /// Number of distinct programs compiled so far.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("cache lock");
        inner.entries.values().map(Vec::len).sum()
    }

    /// Whether the cache holds no programs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters since construction: a hit is a request
    /// served from cache, by [`ProgramCache::get_or_compile`] or by
    /// [`ProgramCache::memo_get`]; a miss is a program compiled.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("cache lock");
        (inner.hits, inner.misses)
    }
}

struct Lowering {
    syms: SymbolTable,
    ops: Vec<Op>,
    eops: Vec<EOp>,
    fused: Vec<FusedOp>,
    /// Ops below this index must not be consumed by peephole fusion: a
    /// jump target has been patched to land just past them, so folding
    /// them into a later superinstruction would skip real work on the
    /// jumping path.
    fuse_barrier: usize,
}

/// Lowering interns each name when the walk reaches it, in one
/// post-order whatever operand shape it picks: a node's sub-expressions
/// before the node's own names, a statement's operands before its names
/// (in field order), a loop's bounds before its variable and its body,
/// and a `Reduce`'s register after its body and its reduced expression.
impl Lowering {
    /// Compiles one expression tree into the flat array, returning the
    /// index of its first op.
    fn expr(&mut self, e: &SExpr) -> ERef {
        let start = self.eops.len() as ERef;
        self.expr_ops(e);
        self.eops.push(EOp::End);
        start
    }

    /// Whether the last `n` emitted ops may be rewritten by fusion.
    fn fusable(&self, n: usize) -> bool {
        self.eops.len() >= self.fuse_barrier + n
    }

    /// The `(chip, dram)` slots of a name `ReadMem` reads: the on-chip
    /// slot is checked first, then the SparseDRAM random-read fallback.
    fn mem(&mut self, name: &str) -> (Slot, Slot) {
        (self.syms.chip(name), self.syms.dram(name))
    }

    /// `mem[var]`, interned index variable first.
    fn gather(&mut self, mem: &str, var: &str, random: bool) -> GatherRef {
        let var = self.syms.var(var);
        let (chip, dram) = self.mem(mem);
        GatherRef {
            chip,
            dram,
            random,
            var,
        }
    }

    /// Lowers a statement operand: leaves, single gathers, and the
    /// recognized compound shapes become immediates; everything else
    /// becomes an expression program.
    fn operand(&mut self, e: &SExpr) -> Operand {
        match e {
            SExpr::Const(c) => Operand::Const(*c),
            SExpr::Var(v) => Operand::Var(self.syms.var(v)),
            SExpr::ReadMem { mem, index, random } => match &**index {
                SExpr::Var(var) => {
                    let g = self.gather(mem, var, *random);
                    Operand::Gather {
                        chip: g.chip,
                        dram: g.dram,
                        random: g.random,
                        var: g.var,
                    }
                }
                // pos[i + 1].
                SExpr::Binary { op, lhs, rhs } => match (&**lhs, &**rhs) {
                    (SExpr::Var(var), SExpr::Const(c)) => {
                        let mem = self.gather(mem, var, *random);
                        self.fuse(FusedOp::GatherOffset {
                            mem,
                            c: *c,
                            op: *op,
                        })
                    }
                    _ => Operand::Expr(self.expr(e)),
                },
                _ => Operand::Expr(self.expr(e)),
            },
            // vb * C_vals[jj].
            SExpr::Binary { op, lhs, rhs } => match (&**lhs, &**rhs) {
                (SExpr::Var(a), SExpr::ReadMem { mem, index, random }) => match &**index {
                    SExpr::Var(var) => {
                        let a = self.syms.var(a);
                        let mem = self.gather(mem, var, *random);
                        self.fuse(FusedOp::BinGather { a, op: *op, mem })
                    }
                    _ => Operand::Expr(self.expr(e)),
                },
                _ => Operand::Expr(self.expr(e)),
            },
            _ => Operand::Expr(self.expr(e)),
        }
    }

    /// Interns a fused compound shape, returning its operand.
    fn fuse(&mut self, f: FusedOp) -> Operand {
        let ix = self.fused.len() as u32;
        self.fused.push(f);
        Operand::Fused(ix)
    }

    fn expr_ops(&mut self, e: &SExpr) {
        match e {
            SExpr::Const(c) => self.eops.push(EOp::Const(*c)),
            SExpr::Var(v) => {
                let v = self.syms.var(v);
                self.eops.push(EOp::Var(v));
            }
            SExpr::RegRead(r) => {
                let r = self.syms.chip(r);
                self.eops.push(EOp::RegRead(r));
            }
            SExpr::Deq(f) => {
                let f = self.syms.chip(f);
                self.eops.push(EOp::Deq(f));
            }
            SExpr::ReadMem { mem, index, random } => {
                self.expr_ops(index);
                let (chip, dram) = self.mem(mem);
                let random = *random;
                if self.fusable(1) {
                    if let Some(&EOp::Var(var)) = self.eops.last() {
                        self.eops.pop();
                        self.eops.push(EOp::VarReadMem {
                            chip,
                            dram,
                            random,
                            var,
                        });
                        return;
                    }
                }
                self.eops.push(EOp::ReadMem { chip, dram, random });
            }
            SExpr::Neg(inner) => {
                self.expr_ops(inner);
                self.eops.push(EOp::Neg);
            }
            SExpr::Binary { op, lhs, rhs } => {
                let op = *op;
                self.expr_ops(lhs);
                self.expr_ops(rhs);
                if self.fusable(2) {
                    if let [.., EOp::Var(var), EOp::Const(c)] = self.eops[..] {
                        self.eops.pop();
                        self.eops.pop();
                        self.eops.push(EOp::VarConstBin { var, c, op });
                        return;
                    }
                    if let [.., EOp::Var(a), EOp::VarReadMem {
                        chip,
                        dram,
                        random,
                        var,
                    }] = self.eops[..]
                    {
                        self.eops.pop();
                        self.eops.pop();
                        self.eops.push(EOp::VarBinGather {
                            a,
                            op,
                            chip,
                            dram,
                            random,
                            ivar: var,
                        });
                        return;
                    }
                }
                self.eops.push(EOp::Binary(op));
            }
            SExpr::Select {
                cond,
                if_true,
                if_false,
            } => {
                self.expr_ops(cond);
                let branch_at = self.eops.len();
                self.eops.push(EOp::BranchFalse { target: 0 });
                self.expr_ops(if_true);
                let jump_at = self.eops.len();
                self.eops.push(EOp::Jump { target: 0 });
                let false_start = self.eops.len() as ERef;
                self.eops[branch_at] = EOp::BranchFalse {
                    target: false_start,
                };
                self.expr_ops(if_false);
                let end = self.eops.len() as ERef;
                self.eops[jump_at] = EOp::Jump { target: end };
                // The true-path jump lands at `end`; nothing emitted so
                // far may be folded into an op that spans it.
                self.fuse_barrier = self.eops.len();
            }
        }
    }

    /// Lowers one statement to one op, or a loop to its superinstruction
    /// and body span; a comment emits nothing. Struct fields evaluate in
    /// the order written, so each op's names intern in that order.
    fn stmt(&mut self, s: &SpatialStmt) {
        let op = match s {
            SpatialStmt::Comment(_) => return,
            SpatialStmt::Alloc(d) => Op::Alloc {
                slot: self.syms.chip(&d.name),
                kind: d.kind,
                size: d.size,
            },
            SpatialStmt::Bind { var, value } => {
                let value = self.operand(value);
                Op::Bind {
                    var: self.syms.var(var),
                    value,
                }
            }
            SpatialStmt::Load {
                dst,
                src,
                start,
                end,
                ..
            } => {
                let start = self.operand(start);
                let end = self.operand(end);
                Op::Load {
                    dst: self.syms.chip(dst),
                    src: self.syms.dram(src),
                    start,
                    end,
                }
            }
            SpatialStmt::Store {
                dst,
                offset,
                src,
                len,
                ..
            } => {
                let offset = self.operand(offset);
                let len = self.operand(len);
                Op::Store {
                    dst: self.syms.dram(dst),
                    offset,
                    src: self.syms.chip(src),
                    len,
                }
            }
            SpatialStmt::StreamStore {
                dst,
                offset,
                fifo,
                len,
            } => {
                let offset = self.operand(offset);
                let len = self.operand(len);
                Op::StreamStore {
                    dst: self.syms.dram(dst),
                    offset,
                    fifo: self.syms.chip(fifo),
                    len,
                }
            }
            SpatialStmt::StoreScalar { dst, index, value } => {
                let index = self.operand(index);
                let value = self.operand(value);
                Op::StoreScalar {
                    dst: self.syms.dram(dst),
                    index,
                    value,
                }
            }
            SpatialStmt::WriteMem {
                mem,
                index,
                value,
                random,
            } => {
                let index = self.operand(index);
                let value = self.operand(value);
                Op::WriteMem {
                    mem: self.syms.chip(mem),
                    index,
                    value,
                    random: *random,
                }
            }
            SpatialStmt::RmwAdd { mem, index, value } => {
                let index = self.operand(index);
                let value = self.operand(value);
                Op::RmwAdd {
                    mem: self.syms.chip(mem),
                    index,
                    value,
                }
            }
            SpatialStmt::SetReg { reg, value } => {
                let value = self.operand(value);
                Op::SetReg {
                    reg: self.syms.chip(reg),
                    value,
                }
            }
            SpatialStmt::Enq { fifo, value } => {
                let value = self.operand(value);
                Op::Enq {
                    fifo: self.syms.chip(fifo),
                    value,
                }
            }
            SpatialStmt::GenBitVector {
                dst,
                src,
                src_start,
                count,
                dim,
            } => {
                let src_start = self.operand(src_start);
                let count = self.operand(count);
                let dim = self.operand(dim);
                Op::GenBitVector {
                    dst: self.syms.chip(dst),
                    src: self.syms.chip(src),
                    src_start,
                    count,
                    dim,
                }
            }
            SpatialStmt::Foreach {
                id, counter, body, ..
            } => return self.lower_loop(*id, counter, body, None),
            SpatialStmt::Reduce {
                id,
                reg,
                counter,
                body,
                expr,
                ..
            } => return self.lower_loop(*id, counter, body, Some((reg.as_str(), expr))),
        };
        self.ops.push(op);
    }

    /// Emits one superinstruction ([`Op::RangeSimple`],
    /// [`Op::Scan2Simple`]) followed by its body span. The bound
    /// operands lower before the body's, the reduce operand after.
    fn lower_loop(
        &mut self,
        id: usize,
        counter: &Counter,
        body: &[SpatialStmt],
        reduce: Option<(&str, &SExpr)>,
    ) {
        let enter_at = self.ops.len();
        let first = (enter_at + 1) as OpId;
        let mut head = match counter {
            Counter::Range {
                var,
                min,
                max,
                step,
            } => {
                let min = self.operand(min);
                let max = self.operand(max);
                Op::RangeSimple {
                    id,
                    var: self.syms.var(var),
                    min,
                    max,
                    step: *step,
                    body: first,
                    body_len: 0,
                    reduce: None,
                }
            }
            Counter::Scan2 {
                op,
                bv_a,
                bv_b,
                a_pos_var,
                b_pos_var,
                out_pos_var,
                idx_var,
            } => Op::Scan2Simple {
                id,
                op: *op,
                bv_a: self.syms.chip(bv_a),
                bv_b: self.syms.chip(bv_b),
                vars: [a_pos_var, b_pos_var, out_pos_var, idx_var].map(|v| self.syms.var(v)),
                body: first,
                body_len: 0,
                reduce: None,
            },
        };
        self.ops.push(Op::Halt); // placeholder, replaced below
        for s in body {
            self.stmt(s);
        }
        let len = (self.ops.len() - enter_at - 1) as u32;
        let fold = reduce.map(|(reg, expr)| {
            let expr = self.operand(expr);
            (self.syms.chip(reg), expr)
        });
        if let Op::RangeSimple {
            body_len, reduce, ..
        }
        | Op::Scan2Simple {
            body_len, reduce, ..
        } = &mut head
        {
            *body_len = len;
            *reduce = fold;
        }
        self.ops[enter_at] = head;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::RunError;
    use crate::ir::{Counter, MemDecl, SExpr, SpatialStmt};
    use crate::reference::ReferenceMachine;
    use crate::ExecStats;

    /// Runs a program on both engines (bytecode, string-keyed
    /// reference) and asserts byte-identical DRAM plus identical stats
    /// or identical errors.
    fn assert_engines_agree(
        p: &SpatialProgram,
        writes: &[(&str, Vec<f64>)],
    ) -> Result<ExecStats, RunError> {
        let mut bytecode = Machine::new(p);
        let mut reference = ReferenceMachine::new(p);
        for (name, data) in writes {
            bytecode.write_dram(name, data).unwrap();
            reference.write_dram(name, data).unwrap();
        }
        let bc_result = bytecode.run(p);
        let ref_result = reference.run(p);
        assert_eq!(bc_result, ref_result, "bytecode vs reference result");
        for d in &p.drams {
            let a: Vec<u64> = bytecode
                .dram(&d.name)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let r: Vec<u64> = reference
                .dram(&d.name)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(a, r, "DRAM {} bytecode vs reference", d.name);
        }
        assert_eq!(
            bytecode.stats(),
            reference.stats(),
            "stats bytecode vs reference"
        );
        bc_result
    }

    fn range_loop(id: usize, var: &str, trip: f64, body: Vec<SpatialStmt>) -> SpatialStmt {
        SpatialStmt::Foreach {
            id,
            counter: Counter::range_to(var, SExpr::Const(trip)),
            par: 1,
            body,
        }
    }

    #[test]
    fn straight_line_range_loop_lowers_to_superinstruction() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 4);
        p.accel.push(range_loop(
            0,
            "i",
            3.0,
            vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("i"),
                value: SExpr::var("i"),
            }],
        ));
        p.assign_ids();
        let c = CompiledProgram::compile(&p);
        // RangeSimple, StoreScalar, Halt.
        assert_eq!(c.ops().len(), 3);
        let Op::RangeSimple {
            body,
            body_len,
            reduce,
            ..
        } = c.ops()[0]
        else {
            panic!("expected RangeSimple, got {:?}", c.ops()[0]);
        };
        assert_eq!((body, body_len), (1, 1));
        assert!(reduce.is_none());
        assert!(matches!(c.ops()[2], Op::Halt));
    }

    fn range_simple_pc(c: &CompiledProgram) -> usize {
        c.ops()
            .iter()
            .position(|o| matches!(o, Op::RangeSimple { .. }))
            .expect("program lowers a RangeSimple superinstruction")
    }

    #[test]
    fn vec_classifier_tags_spmv_shaped_reduce() {
        // The CSR SpMV inner loop: empty body, `vals[j] * x[crd[j]]`
        // reduce operand (a gather through a gather).
        let mut p = SpatialProgram::new("t");
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("vals_s", MemKind::Sram, 8)));
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("crd_s", MemKind::Sram, 8)));
        p.accel.push(SpatialStmt::Alloc(MemDecl::new(
            "x_s",
            MemKind::SparseSram,
            8,
        )));
        p.accel.push(SpatialStmt::Reduce {
            id: 0,
            reg: "acc".into(),
            counter: Counter::range_to("j", SExpr::Const(8.0)),
            par: 1,
            body: vec![],
            expr: SExpr::mul(
                SExpr::read("vals_s", SExpr::var("j")),
                SExpr::read_random("x_s", SExpr::read("crd_s", SExpr::var("j"))),
            ),
        });
        p.assign_ids();
        let c = CompiledProgram::compile(&p);
        assert!(matches!(
            c.vec_class(range_simple_pc(&c)),
            VecClass::Reduce(_)
        ));
    }

    #[test]
    fn vec_classifier_rejects_non_unit_stride_shapes() {
        // A reduce operand with an operator that can fail per lane
        // (`j / 2`) stays scalar.
        let mut p = SpatialProgram::new("t");
        p.accel.push(SpatialStmt::Reduce {
            id: 0,
            reg: "acc".into(),
            counter: Counter::range_to("j", SExpr::Const(8.0)),
            par: 1,
            body: vec![],
            expr: SExpr::bin(BinSOp::Div, SExpr::var("j"), SExpr::Const(2.0)),
        });
        p.assign_ids();
        let c = CompiledProgram::compile(&p);
        assert_eq!(c.vec_class(range_simple_pc(&c)), VecClass::None);

        // A scatter-write body — the SpMSpM accumulation loop, one
        // `RmwAdd` with a gathered index and a splat-times-gather value —
        // gets no class: no tier chunks scatter loops.
        let mut p2 = SpatialProgram::new("t");
        p2.accel
            .push(SpatialStmt::Alloc(MemDecl::new("acc_s", MemKind::Sram, 16)));
        p2.accel
            .push(SpatialStmt::Alloc(MemDecl::new("crd_s", MemKind::Sram, 8)));
        p2.accel
            .push(SpatialStmt::Alloc(MemDecl::new("vals_s", MemKind::Sram, 8)));
        p2.accel.push(SpatialStmt::Bind {
            var: "vb".into(),
            value: SExpr::Const(2.5),
        });
        p2.accel.push(range_loop(
            0,
            "j",
            8.0,
            vec![SpatialStmt::RmwAdd {
                mem: "acc_s".into(),
                index: SExpr::read("crd_s", SExpr::var("j")),
                value: SExpr::mul(SExpr::var("vb"), SExpr::read("vals_s", SExpr::var("j"))),
            }],
        ));
        p2.assign_ids();
        let c2 = CompiledProgram::compile(&p2);
        assert_eq!(c2.vec_class(range_simple_pc(&c2)), VecClass::None);
    }

    #[test]
    fn nested_loops_lower_to_nested_superinstruction_spans() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 4);
        // Four levels: each loop is a superinstruction whose body span
        // holds the next one.
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
        p.assign_ids();
        let c = CompiledProgram::compile(&p);
        // RangeSimple ×4, StoreScalar, Halt.
        assert_eq!(c.ops().len(), 6);
        for pc in 0..4 {
            let Op::RangeSimple { body, body_len, .. } = c.ops()[pc] else {
                panic!("expected RangeSimple at pc {pc}, got {:?}", c.ops()[pc]);
            };
            assert_eq!(body as usize, pc + 1);
            assert_eq!(body_len as usize, 4 - pc, "span of pc {pc} ends at Halt");
        }
        assert!(matches!(c.ops()[4], Op::StoreScalar { .. }));
        assert!(matches!(c.ops()[5], Op::Halt));
        assert_engines_agree(&p, &[]).unwrap();
    }

    /// Known answers for the fused operand shapes, on data where a
    /// wrong operand order or operand choice gives a different result.
    /// Compiled kernels only offset with `+`, so a `GatherOffset` that
    /// swapped `x - c` into `c - x` would pass every kernel; here
    /// `s[i - 1]` would read `s[1 - i]` and fault. `BinGather`'s left
    /// variable (`b = 100 * i`) differs from its gather index `i`.
    #[test]
    fn fused_operand_shapes_give_known_answers() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("in", 4);
        p.add_dram("prev", 4);
        p.add_dram("diff", 4);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 4)));
        p.accel.push(SpatialStmt::Load {
            dst: "s".into(),
            src: "in".into(),
            start: SExpr::Const(0.0),
            end: SExpr::Const(4.0),
            par: 1,
        });
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Range {
                var: "i".into(),
                min: SExpr::Const(1.0),
                max: SExpr::Const(4.0),
                step: 1,
            },
            par: 1,
            body: vec![
                SpatialStmt::Bind {
                    var: "b".into(),
                    value: SExpr::mul(SExpr::var("i"), SExpr::Const(100.0)),
                },
                SpatialStmt::StoreScalar {
                    dst: "prev".into(),
                    index: SExpr::var("i"),
                    value: SExpr::read("s", SExpr::sub(SExpr::var("i"), SExpr::Const(1.0))),
                },
                SpatialStmt::StoreScalar {
                    dst: "diff".into(),
                    index: SExpr::var("i"),
                    value: SExpr::sub(SExpr::var("b"), SExpr::read("s", SExpr::var("i"))),
                },
            ],
        });
        p.assign_ids();
        let c = CompiledProgram::compile(&p);
        assert!(c.fused().iter().any(|f| matches!(
            f,
            FusedOp::GatherOffset {
                op: BinSOp::Sub,
                ..
            }
        )));
        assert!(c.fused().iter().any(|f| matches!(
            f,
            FusedOp::BinGather {
                op: BinSOp::Sub,
                ..
            }
        )));
        let input = vec![3.0, 5.0, 7.0, 11.0];
        assert_engines_agree(&p, &[("in", input.clone())]).unwrap();
        let mut m = Machine::new(&p);
        m.write_dram("in", &input).unwrap();
        m.run(&p).unwrap();
        assert_eq!(m.dram("prev").unwrap(), &[0.0, 3.0, 5.0, 7.0]);
        assert_eq!(m.dram("diff").unwrap(), &[0.0, 95.0, 193.0, 289.0]);
    }

    #[test]
    fn fused_eops_cover_gather_and_position_arithmetic() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 4);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 8)));
        p.accel.push(range_loop(
            0,
            "i",
            3.0,
            vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("i"),
                // read(s, i) * (i + 1): a VarReadMem and a VarConstBin.
                value: SExpr::mul(
                    SExpr::read("s", SExpr::var("i")),
                    SExpr::add(SExpr::var("i"), SExpr::Const(1.0)),
                ),
            }],
        ));
        p.assign_ids();
        let c = CompiledProgram::compile(&p);
        assert!(c.eops().iter().any(|e| matches!(e, EOp::VarReadMem { .. })));
        assert!(c
            .eops()
            .iter()
            .any(|e| matches!(e, EOp::VarConstBin { .. })));
        assert_engines_agree(&p, &[]).unwrap();
    }

    /// Fusion must not consume ops a `Select` jump target lands past.
    #[test]
    fn select_result_feeding_a_read_is_not_fused_across_the_jump() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 8)));
        p.accel.push(SpatialStmt::WriteMem {
            mem: "s".into(),
            index: SExpr::Const(3.0),
            value: SExpr::Const(42.0),
            random: false,
        });
        p.accel.push(SpatialStmt::Bind {
            var: "c".into(),
            value: SExpr::Const(0.0),
        });
        p.accel.push(SpatialStmt::Bind {
            var: "f".into(),
            value: SExpr::Const(3.0),
        });
        // read(s, select(c, c, f)): the false side ends in a bare Var,
        // which must NOT be folded into the enclosing ReadMem — the
        // true path jumps to the op right after it.
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::read(
                "s",
                SExpr::select(SExpr::var("c"), SExpr::var("c"), SExpr::var("f")),
            ),
        });
        p.assign_ids();
        assert_engines_agree(&p, &[]).unwrap();
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 42.0);
    }

    #[test]
    fn select_lowers_to_branches_that_skip_the_untaken_side() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::select(SExpr::Const(1.0), SExpr::Const(7.0), SExpr::Const(9.0)),
        });
        let c = CompiledProgram::compile(&p);
        let branches = c
            .eops()
            .iter()
            .filter(|e| matches!(e, EOp::BranchFalse { .. }))
            .count();
        let jumps = c
            .eops()
            .iter()
            .filter(|e| matches!(e, EOp::Jump { .. }))
            .count();
        assert_eq!((branches, jumps), (1, 1));
        let stats = assert_engines_agree(&p, &[]).unwrap();
        // Only the mux itself is an ALU op; the untaken side is skipped.
        assert_eq!(stats.alu_ops, 1);
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 7.0);
    }

    #[test]
    fn empty_loop_body_executes_and_counts_trips() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel.push(range_loop(0, "i", 5.0, vec![]));
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]).unwrap();
        assert_eq!(stats.trips(0), 5);
    }

    #[test]
    fn zero_trip_range_skips_the_body() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 2);
        // max == min: zero trips.
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Range {
                var: "i".into(),
                min: SExpr::Const(3.0),
                max: SExpr::Const(3.0),
                step: 1,
            },
            par: 1,
            body: vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::Const(0.0),
                value: SExpr::Const(1.0),
            }],
        });
        // A sentinel write after the loop proves control flow continues.
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(1.0),
            value: SExpr::Const(2.0),
        });
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]).unwrap();
        assert_eq!(stats.trips(0), 0);
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap(), &[0.0, 2.0]);
    }

    #[test]
    fn zero_trip_reduce_still_writes_back_the_accumulator() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
        p.accel.push(SpatialStmt::SetReg {
            reg: "acc".into(),
            value: SExpr::Const(4.5),
        });
        p.accel.push(SpatialStmt::Reduce {
            id: 0,
            reg: "acc".into(),
            counter: Counter::range_to("i", SExpr::Const(0.0)),
            par: 1,
            body: vec![],
            expr: SExpr::Const(1.0),
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::RegRead("acc".into()),
        });
        p.assign_ids();
        assert_engines_agree(&p, &[]).unwrap();
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 4.5);
        assert_eq!(m.stats().reduce_elems, 0);
    }

    #[test]
    fn nested_parallel_foreach_inside_reduce() {
        // A Reduce whose body contains a par-annotated Foreach that
        // scatters into SRAM before the reduction expression reads it.
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 8)));
        p.accel.push(SpatialStmt::Reduce {
            id: 0,
            reg: "acc".into(),
            counter: Counter::range_to("i", SExpr::Const(3.0)),
            par: 1,
            body: vec![SpatialStmt::Foreach {
                id: 1,
                counter: Counter::range_to("j", SExpr::Const(4.0)),
                par: 4,
                body: vec![SpatialStmt::WriteMem {
                    mem: "s".into(),
                    index: SExpr::var("j"),
                    value: SExpr::mul(SExpr::var("i"), SExpr::var("j")),
                    random: false,
                }],
            }],
            expr: SExpr::read("s", SExpr::Const(3.0)),
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::RegRead("acc".into()),
        });
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]).unwrap();
        assert_eq!(stats.trips(0), 3);
        assert_eq!(stats.trips(1), 12);
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        // Σ_i i*3 for i in 0..3 = 0 + 3 + 6.
        assert_eq!(m.dram("out").unwrap()[0], 9.0);
    }

    #[test]
    fn deeply_nested_loops_run_as_nested_superinstructions() {
        const DEPTH: usize = 64;
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
        let mut body = vec![SpatialStmt::SetReg {
            reg: "acc".into(),
            value: SExpr::add(SExpr::RegRead("acc".into()), SExpr::Const(1.0)),
        }];
        for d in (0..DEPTH).rev() {
            body = vec![SpatialStmt::Foreach {
                id: d,
                counter: Counter::range_to(format!("v{d}"), SExpr::Const(1.0)),
                par: 1,
                body,
            }];
        }
        p.accel.extend(body);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::RegRead("acc".into()),
        });
        p.assign_ids();
        let c = CompiledProgram::compile(&p);
        for (d, op) in c.ops()[1..=DEPTH].iter().enumerate() {
            assert!(matches!(op, Op::RangeSimple { .. }), "depth {d}: {op:?}");
        }
        let stats = assert_engines_agree(&p, &[]).unwrap();
        for d in 0..DEPTH {
            assert_eq!(stats.trips(d), 1, "depth {d}");
        }
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 1.0);
    }

    #[test]
    fn zero_trip_scan_over_empty_bit_vector() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 2);
        for bv in ["bv", "none"] {
            p.accel
                .push(SpatialStmt::Alloc(MemDecl::new(bv, MemKind::BitVector, 8)));
        }
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Scan2 {
                op: ScanOp::Or,
                bv_a: "bv".into(),
                bv_b: "none".into(),
                a_pos_var: "p".into(),
                b_pos_var: "q".into(),
                out_pos_var: "o".into(),
                idx_var: "i".into(),
            },
            par: 1,
            body: vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("p"),
                value: SExpr::Const(1.0),
            }],
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(1.0),
            value: SExpr::Const(3.0),
        });
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]).unwrap();
        assert_eq!(stats.scan_emits, 0);
        assert_eq!(stats.scan_bits, 16);
    }

    #[test]
    fn errors_inside_loops_match_the_reference_engine() {
        // FIFO underflow on the third iteration.
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 4);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 4)));
        for v in [1.0, 2.0] {
            p.accel.push(SpatialStmt::Enq {
                fifo: "f".into(),
                value: SExpr::Const(v),
            });
        }
        p.accel.push(range_loop(
            0,
            "i",
            4.0,
            vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("i"),
                value: SExpr::Deq("f".into()),
            }],
        ));
        p.assign_ids();
        let err = assert_engines_agree(&p, &[]).unwrap_err();
        assert_eq!(err, RunError::FifoUnderflow("f".into()));
    }

    #[test]
    fn machine_recovers_after_an_errored_run() {
        // An error mid-loop abandons the loops in flight; the next run on the
        // same machine must start clean. The store offset is data, so
        // one program first runs off the end of `out` and then fits.
        let mut p = SpatialProgram::new("t");
        p.add_sparse_dram("off", 1);
        p.add_dram("out", 4);
        p.accel.push(range_loop(
            0,
            "i",
            4.0,
            vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::add(
                    SExpr::read_random("off", SExpr::Const(0.0)),
                    SExpr::var("i"),
                ),
                value: SExpr::add(SExpr::var("i"), SExpr::Const(1.0)),
            }],
        ));
        p.assign_ids();
        let mut m = Machine::new(&p);
        m.write_dram("off", &[2.0]).unwrap();
        assert!(matches!(m.run(&p), Err(RunError::OutOfBounds { .. })));
        m.write_dram("off", &[0.0]).unwrap();
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn cache_shares_compiled_programs_by_identity() {
        let mut p = SpatialProgram::new("k");
        p.add_dram("out", 1);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::Const(1.0),
        });
        let cache = ProgramCache::new();
        let a = cache.get_or_compile(&p);
        let b = cache.get_or_compile(&p);
        assert!(Arc::ptr_eq(&a, &b), "same program shares one artifact");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), (1, 1));

        // Same name, different body: identity check falls back to
        // structural equality and compiles a second artifact.
        let mut q = SpatialProgram::new("k");
        q.add_dram("out", 1);
        q.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::Const(2.0),
        });
        let c = cache.get_or_compile(&q);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);

        let mut m1 = cache.machine(&p);
        let mut m2 = cache.machine(&q);
        m1.run(&p).unwrap();
        m2.run(&q).unwrap();
        assert_eq!(m1.dram("out").unwrap()[0], 1.0);
        assert_eq!(m2.dram("out").unwrap()[0], 2.0);
    }

    /// The front-end memo: handles are found by type and by the
    /// caller's comparison (the bucket only narrows the search), a find
    /// counts as a hit and a failed probe as nothing, and eight threads
    /// filing one key at once keep one handle.
    #[test]
    fn memo_is_typed_exact_and_raced_once() {
        let cache = ProgramCache::new();
        let is = |key: u32| move |h: &Arc<(u32, String)>| h.0 == key;
        assert!(cache.memo_get("k", is(7)).is_none());
        assert_eq!(cache.stats(), (0, 0), "a failed probe counts nothing");

        let gate = std::sync::Barrier::new(8);
        let kept: Vec<Arc<(u32, String)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let (cache, gate) = (&cache, &gate);
                    scope.spawn(move || {
                        gate.wait();
                        cache.memo_insert("k", is(7), Arc::new((7, format!("thread {i}"))))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(kept.iter().all(|h| Arc::ptr_eq(h, &kept[0])));
        assert_eq!(cache.inner.lock().unwrap().memo["k"].len(), 1);

        // Same bucket: another key, and another type with a matching
        // comparison, are both other entries.
        cache.memo_insert("k", is(8), Arc::new((8, String::new())));
        cache.memo_insert("k", |_: &u32| true, 7u32);
        assert_eq!(cache.inner.lock().unwrap().memo["k"].len(), 3);
        let hit = cache.memo_get("k", is(7)).expect("filed above");
        assert!(Arc::ptr_eq(&hit, &kept[0]));
        assert!(cache.memo_get("other", is(7)).is_none());
        assert_eq!(cache.stats(), (1, 0));
        assert!(cache.is_empty(), "the memo is not a compiled program");
    }

    #[test]
    fn machines_bound_to_one_artifact_do_not_share_state() {
        let mut p = SpatialProgram::new("k");
        p.add_dram("x", 2);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "x".into(),
            index: SExpr::Const(1.0),
            value: SExpr::add(
                SExpr::read_random("x", SExpr::Const(0.0)),
                SExpr::Const(1.0),
            ),
        });
        // `x` is plain DRAM, so the random-read fallback needs SparseDram
        // semantics — use add_sparse_dram instead for the read source.
        let mut p = {
            let mut q = SpatialProgram::new("k");
            q.add_sparse_dram("x", 2);
            q.accel = p.accel.clone();
            q
        };
        p.assign_ids();
        let compiled = Arc::new(CompiledProgram::compile(&p));
        let mut m1 = Machine::from_compiled(Arc::clone(&compiled));
        let mut m2 = Machine::from_compiled(compiled);
        m1.write_dram("x", &[10.0]).unwrap();
        m2.write_dram("x", &[20.0]).unwrap();
        m1.run(&p).unwrap();
        m2.run(&p).unwrap();
        assert_eq!(m1.dram("x").unwrap(), &[10.0, 11.0]);
        assert_eq!(m2.dram("x").unwrap(), &[20.0, 21.0]);
    }
}
