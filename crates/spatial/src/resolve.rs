//! The resolution ("link") pass: from names to dense slots.
//!
//! A [`crate::SpatialProgram`] refers to every memory, register, FIFO,
//! and loop variable by `String` name. Executing that form directly means
//! a `HashMap<String, _>` probe — hashing the name — for *every* variable
//! read, memory access, and statistics bump in the hot interpreter loop.
//! TACO-lineage compilers get their speed precisely by resolving symbolic
//! names to dense offsets before entering the kernel; this module does
//! the same for the Spatial interpreter.
//!
//! [`resolve`] interns every name into one of three dense `u32` slot
//! namespaces held by a [`SymbolTable`]:
//!
//! - **DRAM slots** for off-chip arrays (declaration order first, so the
//!   slot of the `n`-th declared DRAM is `n`),
//! - **chip slots** for on-chip memories (SRAM, SparseSRAM, FIFO,
//!   registers, bit vectors),
//! - **var slots** for `val` bindings and counter-bound variables.
//!
//! Every [`crate::SExpr`] tree is compiled into a flat, arena-allocated
//! [`ResolvedExpr`] form whose children are `u32` indices into one
//! per-program arena, and every statement becomes a [`ResolvedStmt`]
//! carrying pre-computed slot ids. The executing [`crate::Machine`] then
//! replaces all of its name-keyed maps with `Vec`-indexed state, and the
//! interpreter's inner loop never hashes a string.
//!
//! Resolution is *total*: names that are referenced but never declared
//! still get slots, and the error the old engine raised at touch time
//! (`UnknownMemory`) is reproduced at runtime when the slot's state is
//! found unallocated. This keeps the pass infallible and the runtime
//! semantics byte-identical to [`crate::ReferenceMachine`].

use std::collections::HashMap;

use crate::ir::{BinSOp, Counter, MemKind, SExpr, ScanOp, SpatialProgram, SpatialStmt};

/// Index of a node in a [`ResolvedProgram`]'s expression arena.
pub type ExprId = u32;

/// A dense id in one of the three slot namespaces.
pub type Slot = u32;

/// Interner mapping names to dense slots, with reverse lookup for error
/// reporting.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    dram_ids: HashMap<String, Slot>,
    dram_names: Vec<String>,
    chip_ids: HashMap<String, Slot>,
    chip_names: Vec<String>,
    var_ids: HashMap<String, Slot>,
    var_names: Vec<String>,
}

fn intern(ids: &mut HashMap<String, Slot>, names: &mut Vec<String>, name: &str) -> Slot {
    if let Some(&s) = ids.get(name) {
        return s;
    }
    let slot = names.len() as Slot;
    names.push(name.to_string());
    ids.insert(name.to_string(), slot);
    slot
}

impl SymbolTable {
    /// Interns a DRAM array name.
    pub fn dram(&mut self, name: &str) -> Slot {
        intern(&mut self.dram_ids, &mut self.dram_names, name)
    }

    /// Interns an on-chip memory name.
    pub fn chip(&mut self, name: &str) -> Slot {
        intern(&mut self.chip_ids, &mut self.chip_names, name)
    }

    /// Interns a variable name.
    pub fn var(&mut self, name: &str) -> Slot {
        intern(&mut self.var_ids, &mut self.var_names, name)
    }

    /// Looks up an already-interned DRAM name.
    pub fn dram_slot(&self, name: &str) -> Option<Slot> {
        self.dram_ids.get(name).copied()
    }

    /// The name behind a DRAM slot.
    pub fn dram_name(&self, slot: Slot) -> &str {
        &self.dram_names[slot as usize]
    }

    /// The name behind a chip slot.
    pub fn chip_name(&self, slot: Slot) -> &str {
        &self.chip_names[slot as usize]
    }

    /// The name behind a variable slot.
    pub fn var_name(&self, slot: Slot) -> &str {
        &self.var_names[slot as usize]
    }

    /// Number of interned DRAM names.
    pub fn dram_count(&self) -> usize {
        self.dram_names.len()
    }

    /// Number of interned on-chip names.
    pub fn chip_count(&self) -> usize {
        self.chip_names.len()
    }

    /// Number of interned variable names.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }
}

/// A scalar expression with all names resolved to slots and all children
/// resolved to arena indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResolvedExpr {
    /// A literal constant.
    Const(f64),
    /// A bound variable.
    Var(Slot),
    /// A register read.
    RegRead(Slot),
    /// A FIFO dequeue.
    Deq(Slot),
    /// `mem[index]`, carrying both possible resolutions of the name: the
    /// on-chip slot (checked first, as the engine does) and the DRAM slot
    /// (the SparseDRAM random-read fallback).
    ReadMem {
        /// On-chip slot of the name.
        chip: Slot,
        /// DRAM slot of the same name.
        dram: Slot,
        /// Word index expression.
        index: ExprId,
        /// Whether the access is data-dependent.
        random: bool,
    },
    /// Negation.
    Neg(ExprId),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinSOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// Two-way mux.
    Select {
        /// Condition (nonzero = true).
        cond: ExprId,
        /// Value when the condition holds.
        if_true: ExprId,
        /// Value otherwise.
        if_false: ExprId,
    },
}

/// A counter with resolved slots.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedCounter {
    /// Dense `min until max by step`.
    Range {
        /// Bound loop variable slot.
        var: Slot,
        /// Inclusive lower bound.
        min: ExprId,
        /// Exclusive upper bound.
        max: ExprId,
        /// Step.
        step: i64,
    },
    /// Two-input co-iteration scan.
    Scan2 {
        /// Combination operator.
        op: ScanOp,
        /// First bit vector (chip slot).
        bv_a: Slot,
        /// Second bit vector (chip slot).
        bv_b: Slot,
        /// A-position variable slot.
        a_pos_var: Slot,
        /// B-position variable slot.
        b_pos_var: Slot,
        /// Output-position variable slot.
        out_pos_var: Slot,
        /// Dense-index variable slot.
        idx_var: Slot,
    },
}

/// A statement with all names resolved to slots and all expressions
/// compiled into the arena.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedStmt {
    /// On-chip allocation. Off-chip kinds are kept so the runtime can
    /// reproduce the engine's `UnknownMemory` rejection of DRAM allocs
    /// inside `Accel`.
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
        value: ExprId,
    },
    /// Bulk DRAM → on-chip load.
    Load {
        /// Destination chip slot.
        dst: Slot,
        /// Source DRAM slot.
        src: Slot,
        /// First word index.
        start: ExprId,
        /// One-past-last word index.
        end: ExprId,
    },
    /// Bulk on-chip → DRAM store.
    Store {
        /// Destination DRAM slot.
        dst: Slot,
        /// Word offset into the destination.
        offset: ExprId,
        /// Source chip slot.
        src: Slot,
        /// Number of words.
        len: ExprId,
    },
    /// FIFO → DRAM drain.
    StreamStore {
        /// Destination DRAM slot.
        dst: Slot,
        /// Word offset.
        offset: ExprId,
        /// Source FIFO chip slot.
        fifo: Slot,
        /// Number of elements.
        len: ExprId,
    },
    /// Single-element DRAM write.
    StoreScalar {
        /// Destination DRAM slot.
        dst: Slot,
        /// Word index.
        index: ExprId,
        /// Stored value.
        value: ExprId,
    },
    /// On-chip write.
    WriteMem {
        /// Destination chip slot.
        mem: Slot,
        /// Word index.
        index: ExprId,
        /// Stored value.
        value: ExprId,
        /// Whether the access is data-dependent.
        random: bool,
    },
    /// On-chip atomic add.
    RmwAdd {
        /// Destination chip slot.
        mem: Slot,
        /// Word index.
        index: ExprId,
        /// Added value.
        value: ExprId,
    },
    /// Register write.
    SetReg {
        /// Register chip slot.
        reg: Slot,
        /// Stored value.
        value: ExprId,
    },
    /// FIFO enqueue.
    Enq {
        /// Destination FIFO chip slot.
        fifo: Slot,
        /// Enqueued value.
        value: ExprId,
    },
    /// Bit-vector generation from a coordinate stream.
    GenBitVector {
        /// Destination bit-vector chip slot.
        dst: Slot,
        /// Source chip slot (FIFO or SRAM).
        src: Slot,
        /// Starting word within `src`.
        src_start: ExprId,
        /// Number of coordinates.
        count: ExprId,
        /// Bit-vector length.
        dim: ExprId,
    },
    /// Counter-driven loop.
    Foreach {
        /// Pattern node id (for trip statistics).
        id: usize,
        /// Iteration space.
        counter: ResolvedCounter,
        /// Body statements.
        body: Vec<ResolvedStmt>,
    },
    /// Counter-driven reduction into a register.
    Reduce {
        /// Pattern node id.
        id: usize,
        /// Accumulator register chip slot.
        reg: Slot,
        /// Iteration space.
        counter: ResolvedCounter,
        /// Per-iteration setup statements.
        body: Vec<ResolvedStmt>,
        /// The reduced expression.
        expr: ExprId,
    },
}

/// A resolved DRAM declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedDram {
    /// DRAM slot (equals declaration index for a fresh symbol table).
    pub slot: Slot,
    /// Memory kind (`Dram` or `SparseDram`).
    pub kind: MemKind,
    /// Capacity in words.
    pub size: usize,
}

/// Static arena region of one on-chip slot: where the slot's storage
/// lives inside the machine's flat word arena (`f64` words: SRAM,
/// FIFO rings, registers) and flat bitset arena (`u64` words holding
/// packed bit vectors).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChipRegion {
    /// First word of the slot's region in the word arena.
    pub word_off: usize,
    /// Reserved words: the largest `Alloc` the program performs on the
    /// slot (1 for registers, at least 1 for FIFO rings).
    pub word_cap: usize,
    /// First `u64` of the slot's region in the bitset arena.
    pub bit_off: usize,
    /// Reserved `u64` words, covering the largest bit-vector `Alloc`.
    pub bit_words: usize,
}

/// The static on-chip memory layout of a program: one region per chip
/// slot, packed into two flat arenas. The executing machine allocates
/// both arenas once at bind time; `Alloc` statements then reduce to
/// resetting a pre-assigned region — no per-slot heap allocation on
/// the hot path. Slots the program never allocates get empty regions
/// (the runtime reproduces the `UnknownMemory` error at touch time),
/// and dynamic growth past a region's extent (FIFO overflow,
/// `GenBitVector` beyond the declared dimension) relocates the slot to
/// the end of the arena at runtime.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArenaLayout {
    /// Region per chip slot, indexed by slot id.
    pub chips: Vec<ChipRegion>,
    /// Total word-arena length in `f64` words.
    pub words: usize,
    /// Total bitset-arena length in `u64` words.
    pub bit_words: usize,
}

/// Number of `u64` words needed to hold `bits` packed bits.
#[inline]
pub const fn bit_words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

impl ArenaLayout {
    /// Computes the layout for all `Alloc` statements in `body`,
    /// covering `chip_count` slots. Each slot's word/bit extents are
    /// the maxima over every `Alloc` targeting it (one name may be
    /// re-allocated with different sizes or even kinds).
    fn compute(body: &[ResolvedStmt], chip_count: usize) -> ArenaLayout {
        let mut word_need = vec![0usize; chip_count];
        let mut bit_need = vec![0usize; chip_count];
        fn scan(stmts: &[ResolvedStmt], word_need: &mut [usize], bit_need: &mut [usize]) {
            for s in stmts {
                match s {
                    ResolvedStmt::Alloc { slot, kind, size } => {
                        let slot = *slot as usize;
                        match kind {
                            MemKind::Sram | MemKind::SparseSram => {
                                word_need[slot] = word_need[slot].max(*size);
                            }
                            // A FIFO ring needs at least one word so the
                            // wrap arithmetic is well-defined; declared
                            // capacity is only a reservation (the queue
                            // itself is unbounded and grows by
                            // relocation).
                            MemKind::Fifo => {
                                word_need[slot] = word_need[slot].max((*size).max(1));
                            }
                            MemKind::Reg => {
                                word_need[slot] = word_need[slot].max(1);
                            }
                            MemKind::BitVector => {
                                bit_need[slot] = bit_need[slot].max(bit_words_for(*size));
                            }
                            // Rejected at runtime; no on-chip storage.
                            MemKind::Dram | MemKind::SparseDram => {}
                        }
                    }
                    ResolvedStmt::Foreach { body, .. } | ResolvedStmt::Reduce { body, .. } => {
                        scan(body, word_need, bit_need);
                    }
                    _ => {}
                }
            }
        }
        scan(body, &mut word_need, &mut bit_need);
        let mut layout = ArenaLayout {
            chips: Vec::with_capacity(chip_count),
            words: 0,
            bit_words: 0,
        };
        for slot in 0..chip_count {
            let region = ChipRegion {
                word_off: layout.words,
                // Round every word region up to a whole cache line
                // (crate::vector::LANES), so every region starts on a
                // line boundary relative to the arena start and no two
                // slots share a line.
                word_cap: word_need[slot].next_multiple_of(crate::vector::LANES),
                bit_off: layout.bit_words,
                bit_words: bit_need[slot],
            };
            layout.words += region.word_cap;
            layout.bit_words += region.bit_words;
            layout.chips.push(region);
        }
        layout
    }
}

/// Static placement of one DRAM slot inside the machine's flat DRAM
/// arena. The arena is split into two segments: a read-only **input**
/// prefix holding every declared array the program never writes
/// (shareable across machines behind an `Arc`, copy-on-write), and an
/// **output** suffix holding every array targeted by a `Store`,
/// `StreamStore`, or `StoreScalar` (owned per machine, zero-filled at
/// bind time). `offset` is relative to the start of the region's
/// segment, not the whole arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramRegion {
    /// Whether the program declares this slot (referenced-but-undeclared
    /// slots stay unmapped and reproduce `UnknownMemory` at touch time).
    pub mapped: bool,
    /// Whether the program writes this slot (output-segment residency).
    pub written: bool,
    /// Declared memory kind (`Dram` or `SparseDram`).
    pub kind: MemKind,
    /// First word of the region within its segment.
    pub offset: usize,
    /// Declared capacity in words.
    pub size: usize,
}

impl DramRegion {
    /// The region of a referenced-but-undeclared DRAM slot.
    pub const UNMAPPED: DramRegion = DramRegion {
        mapped: false,
        written: false,
        kind: MemKind::Dram,
        offset: 0,
        size: 0,
    };
}

/// The static DRAM layout of a program: one [`DramRegion`] per DRAM
/// slot, packed into an input segment (read-only prefix) and an output
/// segment (written suffix). Computed once at link time so binding a
/// dataset never resolves a name or decides placement at runtime.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DramLayout {
    /// Region per DRAM slot, indexed by slot id.
    pub drams: Vec<DramRegion>,
    /// Total words of the read-only input segment.
    pub input_words: usize,
    /// Total words of the written output segment.
    pub output_words: usize,
}

impl DramLayout {
    /// Computes the layout: declaration sizes/kinds (last declaration of
    /// a name wins, matching machine construction), written-slot
    /// classification from the statement tree, and packed per-segment
    /// offsets in slot order.
    fn compute(drams: &[ResolvedDram], body: &[ResolvedStmt], dram_count: usize) -> DramLayout {
        let mut regions = vec![DramRegion::UNMAPPED; dram_count];
        for d in drams {
            let r = &mut regions[d.slot as usize];
            r.mapped = true;
            r.kind = d.kind;
            r.size = d.size;
        }
        fn scan(stmts: &[ResolvedStmt], written: &mut [bool]) {
            for s in stmts {
                match s {
                    ResolvedStmt::Store { dst, .. }
                    | ResolvedStmt::StreamStore { dst, .. }
                    | ResolvedStmt::StoreScalar { dst, .. } => written[*dst as usize] = true,
                    ResolvedStmt::Foreach { body, .. } | ResolvedStmt::Reduce { body, .. } => {
                        scan(body, written);
                    }
                    _ => {}
                }
            }
        }
        let mut written = vec![false; dram_count];
        scan(body, &mut written);
        let mut layout = DramLayout {
            drams: Vec::new(),
            input_words: 0,
            output_words: 0,
        };
        for (slot, r) in regions.iter_mut().enumerate() {
            r.written = written[slot];
            if r.mapped {
                if r.written {
                    r.offset = layout.output_words;
                    layout.output_words += r.size;
                } else {
                    r.offset = layout.input_words;
                    layout.input_words += r.size;
                }
            }
        }
        layout.drams = regions;
        layout
    }
}

/// A fully linked program: slot-resolved statements over a flat
/// expression arena.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResolvedProgram {
    /// Off-chip declarations in program order.
    pub drams: Vec<ResolvedDram>,
    /// The Accel block body.
    pub body: Vec<ResolvedStmt>,
    /// The expression arena; children of [`ResolvedExpr`] index into it.
    pub exprs: Vec<ResolvedExpr>,
    /// One past the largest `Foreach`/`Reduce` node id (sizes the dense
    /// per-node statistics vectors).
    pub node_limit: usize,
    /// Static offsets/extents of every on-chip memory inside the
    /// machine's flat arenas.
    pub layout: ArenaLayout,
    /// Static placement of every DRAM array inside the machine's flat
    /// DRAM arena (read-only input prefix, written output suffix).
    pub dram_layout: DramLayout,
}

impl ResolvedProgram {
    /// The expression behind an arena id.
    #[inline]
    pub fn expr(&self, id: ExprId) -> ResolvedExpr {
        self.exprs[id as usize]
    }
}

/// Resolves a program against (and extending) the given symbol table.
///
/// Names the table already holds keep their slots and new names are
/// appended, so resolving the same program twice is idempotent.
pub fn resolve(program: &SpatialProgram, syms: &mut SymbolTable) -> ResolvedProgram {
    let mut out = ResolvedProgram::default();
    for d in &program.drams {
        out.drams.push(ResolvedDram {
            slot: syms.dram(&d.name),
            kind: d.kind,
            size: d.size,
        });
    }
    let mut r = Resolver {
        syms,
        exprs: &mut out.exprs,
        node_limit: 0,
    };
    out.body = program.accel.iter().filter_map(|s| r.stmt(s)).collect();
    out.node_limit = r.node_limit;
    out.layout = ArenaLayout::compute(&out.body, syms.chip_count());
    out.dram_layout = DramLayout::compute(&out.drams, &out.body, syms.dram_count());
    out
}

struct Resolver<'a> {
    syms: &'a mut SymbolTable,
    exprs: &'a mut Vec<ResolvedExpr>,
    node_limit: usize,
}

impl Resolver<'_> {
    fn push(&mut self, e: ResolvedExpr) -> ExprId {
        let id = self.exprs.len() as ExprId;
        self.exprs.push(e);
        id
    }

    fn expr(&mut self, e: &SExpr) -> ExprId {
        let resolved = match e {
            SExpr::Const(c) => ResolvedExpr::Const(*c),
            SExpr::Var(v) => ResolvedExpr::Var(self.syms.var(v)),
            SExpr::RegRead(r) => ResolvedExpr::RegRead(self.syms.chip(r)),
            SExpr::Deq(f) => ResolvedExpr::Deq(self.syms.chip(f)),
            SExpr::ReadMem { mem, index, random } => {
                let index = self.expr(index);
                ResolvedExpr::ReadMem {
                    chip: self.syms.chip(mem),
                    dram: self.syms.dram(mem),
                    index,
                    random: *random,
                }
            }
            SExpr::Neg(inner) => {
                let inner = self.expr(inner);
                ResolvedExpr::Neg(inner)
            }
            SExpr::Binary { op, lhs, rhs } => {
                let lhs = self.expr(lhs);
                let rhs = self.expr(rhs);
                ResolvedExpr::Binary { op: *op, lhs, rhs }
            }
            SExpr::Select {
                cond,
                if_true,
                if_false,
            } => {
                let cond = self.expr(cond);
                let if_true = self.expr(if_true);
                let if_false = self.expr(if_false);
                ResolvedExpr::Select {
                    cond,
                    if_true,
                    if_false,
                }
            }
        };
        self.push(resolved)
    }

    fn counter(&mut self, c: &Counter) -> ResolvedCounter {
        match c {
            Counter::Range {
                var,
                min,
                max,
                step,
            } => {
                let min = self.expr(min);
                let max = self.expr(max);
                ResolvedCounter::Range {
                    var: self.syms.var(var),
                    min,
                    max,
                    step: *step,
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
            } => ResolvedCounter::Scan2 {
                op: *op,
                bv_a: self.syms.chip(bv_a),
                bv_b: self.syms.chip(bv_b),
                a_pos_var: self.syms.var(a_pos_var),
                b_pos_var: self.syms.var(b_pos_var),
                out_pos_var: self.syms.var(out_pos_var),
                idx_var: self.syms.var(idx_var),
            },
        }
    }

    fn note_node(&mut self, id: usize) {
        self.node_limit = self.node_limit.max(id + 1);
    }

    fn stmt(&mut self, s: &SpatialStmt) -> Option<ResolvedStmt> {
        Some(match s {
            SpatialStmt::Comment(_) => return None,
            SpatialStmt::Alloc(d) => ResolvedStmt::Alloc {
                slot: self.syms.chip(&d.name),
                kind: d.kind,
                size: d.size,
            },
            SpatialStmt::Bind { var, value } => {
                let value = self.expr(value);
                ResolvedStmt::Bind {
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
                let start = self.expr(start);
                let end = self.expr(end);
                ResolvedStmt::Load {
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
                let offset = self.expr(offset);
                let len = self.expr(len);
                ResolvedStmt::Store {
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
                let offset = self.expr(offset);
                let len = self.expr(len);
                ResolvedStmt::StreamStore {
                    dst: self.syms.dram(dst),
                    offset,
                    fifo: self.syms.chip(fifo),
                    len,
                }
            }
            SpatialStmt::StoreScalar { dst, index, value } => {
                let index = self.expr(index);
                let value = self.expr(value);
                ResolvedStmt::StoreScalar {
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
                let index = self.expr(index);
                let value = self.expr(value);
                ResolvedStmt::WriteMem {
                    mem: self.syms.chip(mem),
                    index,
                    value,
                    random: *random,
                }
            }
            SpatialStmt::RmwAdd { mem, index, value } => {
                let index = self.expr(index);
                let value = self.expr(value);
                ResolvedStmt::RmwAdd {
                    mem: self.syms.chip(mem),
                    index,
                    value,
                }
            }
            SpatialStmt::SetReg { reg, value } => {
                let value = self.expr(value);
                ResolvedStmt::SetReg {
                    reg: self.syms.chip(reg),
                    value,
                }
            }
            SpatialStmt::Enq { fifo, value } => {
                let value = self.expr(value);
                ResolvedStmt::Enq {
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
                let src_start = self.expr(src_start);
                let count = self.expr(count);
                let dim = self.expr(dim);
                ResolvedStmt::GenBitVector {
                    dst: self.syms.chip(dst),
                    src: self.syms.chip(src),
                    src_start,
                    count,
                    dim,
                }
            }
            SpatialStmt::Foreach {
                id, counter, body, ..
            } => {
                self.note_node(*id);
                let counter = self.counter(counter);
                ResolvedStmt::Foreach {
                    id: *id,
                    counter,
                    body: body.iter().filter_map(|b| self.stmt(b)).collect(),
                }
            }
            SpatialStmt::Reduce {
                id,
                reg,
                counter,
                body,
                expr,
                ..
            } => {
                self.note_node(*id);
                let counter = self.counter(counter);
                let body = body.iter().filter_map(|b| self.stmt(b)).collect();
                let expr = self.expr(expr);
                ResolvedStmt::Reduce {
                    id: *id,
                    reg: self.syms.chip(reg),
                    counter,
                    body,
                    expr,
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::MemDecl;

    #[test]
    fn dram_slots_follow_declaration_order() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("a", 4);
        p.add_sparse_dram("b", 8);
        let mut syms = SymbolTable::default();
        let r = resolve(&p, &mut syms);
        assert_eq!(r.drams.len(), 2);
        assert_eq!(r.drams[0].slot, 0);
        assert_eq!(r.drams[1].slot, 1);
        assert_eq!(r.drams[1].kind, MemKind::SparseDram);
        assert_eq!(syms.dram_name(0), "a");
        assert_eq!(syms.dram_name(1), "b");
    }

    #[test]
    fn same_name_interns_to_same_slot() {
        let mut syms = SymbolTable::default();
        assert_eq!(syms.chip("s"), syms.chip("s"));
        assert_ne!(syms.chip("s"), syms.chip("t"));
        // Namespaces are independent: "s" as a DRAM is a fresh slot 0.
        assert_eq!(syms.dram("s"), 0);
    }

    #[test]
    fn expressions_flatten_into_one_arena() {
        let mut p = SpatialProgram::new("t");
        p.accel.push(SpatialStmt::Bind {
            var: "v".into(),
            value: SExpr::mul(
                SExpr::add(SExpr::var("a"), SExpr::Const(2.0)),
                SExpr::read("s", SExpr::var("i")),
            ),
        });
        let mut syms = SymbolTable::default();
        let r = resolve(&p, &mut syms);
        // a, 2, (a+2), i, s(i), mul — six arena nodes.
        assert_eq!(r.exprs.len(), 6);
        let ResolvedStmt::Bind { value, .. } = &r.body[0] else {
            panic!("expected bind");
        };
        let ResolvedExpr::Binary { op, lhs, rhs } = r.expr(*value) else {
            panic!("expected binary");
        };
        assert_eq!(op, BinSOp::Mul);
        assert!(matches!(r.expr(lhs), ResolvedExpr::Binary { .. }));
        assert!(matches!(r.expr(rhs), ResolvedExpr::ReadMem { .. }));
    }

    #[test]
    fn read_mem_carries_both_namespaces() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("x", 4);
        p.accel.push(SpatialStmt::Bind {
            var: "v".into(),
            value: SExpr::read_random("x", SExpr::Const(0.0)),
        });
        let mut syms = SymbolTable::default();
        let r = resolve(&p, &mut syms);
        let ResolvedStmt::Bind { value, .. } = &r.body[0] else {
            panic!("expected bind");
        };
        let ResolvedExpr::ReadMem {
            chip, dram, random, ..
        } = r.expr(*value)
        else {
            panic!("expected readmem");
        };
        assert!(random);
        assert_eq!(syms.chip_name(chip), "x");
        assert_eq!(syms.dram_name(dram), "x");
        assert_eq!(dram, 0, "declared DRAM keeps its declaration slot");
    }

    #[test]
    fn comments_are_dropped_and_node_limit_tracked() {
        let mut p = SpatialProgram::new("t");
        p.accel.push(SpatialStmt::Comment("note".into()));
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(2.0)),
            par: 1,
            body: vec![SpatialStmt::Reduce {
                id: 1,
                reg: "r".into(),
                counter: Counter::range_to("j", SExpr::Const(2.0)),
                par: 1,
                body: vec![],
                expr: SExpr::Const(1.0),
            }],
        });
        let mut syms = SymbolTable::default();
        let r = resolve(&p, &mut syms);
        assert_eq!(r.body.len(), 1, "comment dropped");
        assert_eq!(r.node_limit, 2);
    }

    #[test]
    fn re_resolution_extends_the_table() {
        let mut p1 = SpatialProgram::new("a");
        p1.add_dram("x", 4);
        let mut p2 = SpatialProgram::new("b");
        p2.add_dram("y", 4);
        p2.add_dram("x", 4);
        let mut syms = SymbolTable::default();
        resolve(&p1, &mut syms);
        let r2 = resolve(&p2, &mut syms);
        // "x" keeps slot 0 from the first resolution; "y" is appended.
        assert_eq!(r2.drams[0].slot, 1);
        assert_eq!(r2.drams[1].slot, 0);
        assert_eq!(syms.dram_count(), 2);
    }

    #[test]
    fn arena_layout_assigns_disjoint_max_extents() {
        let mut p = SpatialProgram::new("t");
        // `s` is allocated twice with different sizes: the region must
        // cover the larger one. `bv` takes bitset words, `f`/`r` words.
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 4)));
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(2.0)),
            par: 1,
            body: vec![SpatialStmt::Alloc(MemDecl::new(
                "s",
                MemKind::SparseSram,
                32,
            ))],
        });
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 8)));
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("r", MemKind::Reg, 1)));
        p.accel.push(SpatialStmt::Alloc(MemDecl::new(
            "bv",
            MemKind::BitVector,
            100,
        )));
        let mut syms = SymbolTable::default();
        let r = resolve(&p, &mut syms);
        let l = &r.layout;
        assert_eq!(l.chips.len(), 4);
        let s = l.chips[syms.chip("s") as usize];
        let f = l.chips[syms.chip("f") as usize];
        let reg = l.chips[syms.chip("r") as usize];
        let bv = l.chips[syms.chip("bv") as usize];
        assert_eq!(s.word_cap, 32, "max of the two allocs");
        // Word caps round up to whole vector chunks so every region
        // starts lane-aligned and chunked loads never cross regions.
        assert_eq!(f.word_cap, 8);
        assert_eq!(reg.word_cap, crate::vector::LANES);
        assert_eq!(bv.bit_words, bit_words_for(100));
        assert_eq!(l.words, 32 + 8 + crate::vector::LANES);
        assert_eq!(l.bit_words, 2);
        // Regions are disjoint and packed.
        assert_eq!(s.word_off, 0);
        assert_eq!(f.word_off, 32);
        assert_eq!(reg.word_off, 40);
        assert_eq!(bv.bit_off, 0);
    }

    #[test]
    fn dram_layout_splits_inputs_and_outputs() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("a", 4); // read only → input segment
        p.add_dram("o1", 8); // stored to → output segment
        p.add_sparse_dram("b", 6); // read only → input segment
        p.add_dram("o2", 2); // scalar-stored to → output segment
        p.accel.push(SpatialStmt::Store {
            dst: "o1".into(),
            offset: SExpr::Const(0.0),
            src: "s".into(),
            len: SExpr::Const(1.0),
            par: 1,
        });
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(2.0)),
            par: 1,
            body: vec![SpatialStmt::StoreScalar {
                dst: "o2".into(),
                index: SExpr::var("i"),
                value: SExpr::Const(1.0),
            }],
        });
        // Written but never declared: stays unmapped.
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "ghost".into(),
            index: SExpr::Const(0.0),
            value: SExpr::Const(1.0),
        });
        let mut syms = SymbolTable::default();
        let r = resolve(&p, &mut syms);
        let l = &r.dram_layout;
        assert_eq!(l.input_words, 4 + 6);
        assert_eq!(l.output_words, 8 + 2);
        let a = l.drams[syms.dram("a") as usize];
        let b = l.drams[syms.dram("b") as usize];
        let o1 = l.drams[syms.dram("o1") as usize];
        let o2 = l.drams[syms.dram("o2") as usize];
        let ghost = l.drams[syms.dram("ghost") as usize];
        assert!(a.mapped && !a.written && a.offset == 0 && a.size == 4);
        assert!(b.mapped && !b.written && b.offset == 4 && b.size == 6);
        assert_eq!(b.kind, MemKind::SparseDram);
        assert!(o1.mapped && o1.written && o1.offset == 0 && o1.size == 8);
        assert!(o2.mapped && o2.written && o2.offset == 8 && o2.size == 2);
        assert!(!ghost.mapped && ghost.written && ghost.size == 0);
    }

    #[test]
    fn unallocated_slots_get_empty_regions() {
        let mut p = SpatialProgram::new("t");
        // Referenced but never allocated: slot exists, region is empty.
        p.accel.push(SpatialStmt::SetReg {
            reg: "ghost".into(),
            value: SExpr::Const(1.0),
        });
        let mut syms = SymbolTable::default();
        let r = resolve(&p, &mut syms);
        assert_eq!(r.layout.chips.len(), 1);
        assert_eq!(r.layout.chips[0].word_cap, 0);
        assert_eq!(r.layout.chips[0].bit_words, 0);
        assert_eq!(r.layout.words, 0);
    }

    #[test]
    fn alloc_inside_loop_resolves_scoped_names() {
        let mut p = SpatialProgram::new("t");
        p.accel.push(SpatialStmt::Foreach {
            id: 3,
            counter: Counter::Scan2 {
                op: ScanOp::Or,
                bv_a: "bv".into(),
                bv_b: "none".into(),
                a_pos_var: "p".into(),
                b_pos_var: "q".into(),
                out_pos_var: "o".into(),
                idx_var: "i".into(),
            },
            par: 2,
            body: vec![SpatialStmt::Alloc(MemDecl::new("tmp", MemKind::Sram, 4))],
        });
        let mut syms = SymbolTable::default();
        let r = resolve(&p, &mut syms);
        assert_eq!(r.node_limit, 4);
        let ResolvedStmt::Foreach { counter, body, .. } = &r.body[0] else {
            panic!("expected foreach");
        };
        assert!(matches!(counter, ResolvedCounter::Scan2 { .. }));
        assert!(matches!(body[0], ResolvedStmt::Alloc { .. }));
        assert_eq!(syms.chip_count(), 3, "bv, none and tmp");
        assert_eq!(syms.var_count(), 4, "p, q, o and i");
    }
}
