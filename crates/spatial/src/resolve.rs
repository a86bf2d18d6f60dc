//! Slots and static layouts: what linking a Spatial program produces
//! besides its bytecode.
//!
//! [`crate::CompiledProgram::compile`] interns every name of a
//! [`crate::SpatialProgram`] into one of three dense `u32` slot
//! namespaces held by a [`SymbolTable`]:
//!
//! - **DRAM slots** for off-chip arrays (declaration order first, so the
//!   slot of the `n`-th declared DRAM is `n`),
//! - **chip slots** for on-chip memories (SRAM, SparseSRAM, FIFO,
//!   registers, bit vectors),
//! - **var slots** for `val` bindings and counter-bound variables.
//!
//! From the lowered ops it then computes, in one flat scan of the lowered ops,
//! where each slot lives at run time: the [`ArenaLayout`] of on-chip
//! memories and the [`DramLayout`] of off-chip arrays. A machine
//! allocates both once at bind time, so neither `Alloc` nor binding a
//! dataset ever resolves a name or decides placement.

use std::collections::HashMap;

use crate::bytecode::Op;
use crate::ir::{MemDecl, MemKind};

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
    /// Packs one region per chip slot, in slot order, reserving
    /// `word_need[slot]` words and `bit_need[slot]` bitset words.
    fn pack(word_need: &[usize], bit_need: &[usize]) -> ArenaLayout {
        let mut layout = ArenaLayout {
            chips: Vec::with_capacity(word_need.len()),
            words: 0,
            bit_words: 0,
        };
        for (&words, &bit_words) in word_need.iter().zip(bit_need) {
            let region = ChipRegion {
                word_off: layout.words,
                // Round every word region up to a whole cache line
                // (crate::vector::LANES), so every region starts on a
                // line boundary relative to the arena start and no two
                // slots share a line.
                word_cap: words.next_multiple_of(crate::vector::LANES),
                bit_off: layout.bit_words,
                bit_words,
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
    /// Packs the declared slots (last declaration of a name wins,
    /// matching machine construction) into per-segment offsets in slot
    /// order: `written` slots into the output segment, the rest into the
    /// input segment.
    fn pack(drams: &[(Slot, &MemDecl)], written: &[bool]) -> DramLayout {
        let mut regions = vec![DramRegion::UNMAPPED; written.len()];
        for &(slot, d) in drams {
            let r = &mut regions[slot as usize];
            r.mapped = true;
            r.kind = d.kind;
            r.size = d.size;
        }
        let mut layout = DramLayout {
            drams: Vec::new(),
            input_words: 0,
            output_words: 0,
        };
        for (r, &written) in regions.iter_mut().zip(written) {
            r.written = written;
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

/// Reads the static layouts off a lowered program in one scan of its
/// flat ops (each `Alloc`, each DRAM store and each loop is one op),
/// given its DRAM declarations with their slots. Returns the on-chip
/// layout — each slot's extents are the maxima over every `Alloc` of it,
/// since one name may be re-allocated with different sizes or even
/// kinds — the DRAM layout, and one past the largest loop node id (which
/// sizes the dense per-node statistics vectors).
pub(crate) fn layouts(
    ops: &[Op],
    drams: &[(Slot, &MemDecl)],
    syms: &SymbolTable,
) -> (ArenaLayout, DramLayout, usize) {
    let mut word_need = vec![0usize; syms.chip_count()];
    let mut bit_need = vec![0usize; syms.chip_count()];
    let mut written = vec![false; syms.dram_count()];
    let mut node_limit = 0;
    for op in ops {
        match *op {
            Op::Alloc { slot, kind, size } => {
                let slot = slot as usize;
                match kind {
                    MemKind::Sram | MemKind::SparseSram => {
                        word_need[slot] = word_need[slot].max(size);
                    }
                    // A FIFO ring needs at least one word so the wrap
                    // arithmetic is well-defined; declared capacity is
                    // only a reservation (the queue itself is unbounded
                    // and grows by relocation).
                    MemKind::Fifo => word_need[slot] = word_need[slot].max(size.max(1)),
                    MemKind::Reg => word_need[slot] = word_need[slot].max(1),
                    MemKind::BitVector => {
                        bit_need[slot] = bit_need[slot].max(bit_words_for(size));
                    }
                    // Rejected at runtime; no on-chip storage.
                    MemKind::Dram | MemKind::SparseDram => {}
                }
            }
            Op::Store { dst, .. } | Op::StreamStore { dst, .. } | Op::StoreScalar { dst, .. } => {
                written[dst as usize] = true;
            }
            Op::RangeSimple { id, .. } | Op::Scan2Simple { id, .. } => {
                node_limit = node_limit.max(id + 1);
            }
            _ => {}
        }
    }
    (
        ArenaLayout::pack(&word_need, &bit_need),
        DramLayout::pack(drams, &written),
        node_limit,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{CompiledProgram, EOp, Op, Operand};
    use crate::ir::{Counter, SExpr, ScanOp, SpatialProgram, SpatialStmt};

    #[test]
    fn dram_slots_follow_declaration_order() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("a", 4);
        p.add_sparse_dram("b", 8);
        let c = CompiledProgram::compile(&p);
        let drams = &c.dram_layout().drams;
        assert_eq!(drams.len(), 2);
        assert_eq!(drams[0].kind, MemKind::Dram);
        assert_eq!(drams[1].kind, MemKind::SparseDram);
        assert_eq!(c.syms().dram_name(0), "a");
        assert_eq!(c.syms().dram_name(1), "b");
    }

    #[test]
    fn same_name_interns_to_same_slot() {
        let mut syms = SymbolTable::default();
        assert_eq!(syms.chip("s"), syms.chip("s"));
        assert_ne!(syms.chip("s"), syms.chip("t"));
        // Namespaces are independent: "s" as a DRAM is a fresh slot 0.
        assert_eq!(syms.dram("s"), 0);
    }

    /// Slots follow one post-order: DRAM declarations first, then a
    /// statement's operands before its own names, a loop's bound before
    /// its variable and body, and a `Reduce`'s register last.
    #[test]
    fn names_intern_in_post_order() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("d", 4);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "o".into(),
            index: SExpr::var("i"),
            value: SExpr::read("m", SExpr::var("k")),
        });
        p.accel.push(SpatialStmt::Reduce {
            id: 0,
            reg: "acc".into(),
            counter: Counter::range_to("j", SExpr::var("n")),
            par: 1,
            body: vec![SpatialStmt::SetReg {
                reg: "r".into(),
                value: SExpr::var("w"),
            }],
            expr: SExpr::RegRead("q".into()),
        });
        let c = CompiledProgram::compile(&p);
        let syms = c.syms();
        let names = |count: usize, name: &dyn Fn(Slot) -> String| -> Vec<String> {
            (0..count as Slot).map(name).collect()
        };
        assert_eq!(
            names(syms.dram_count(), &|s| syms.dram_name(s).into()),
            ["d", "m", "o"]
        );
        assert_eq!(
            names(syms.chip_count(), &|s| syms.chip_name(s).into()),
            ["m", "r", "q", "acc"]
        );
        assert_eq!(
            names(syms.var_count(), &|s| syms.var_name(s).into()),
            ["i", "k", "n", "j", "w"]
        );
    }

    #[test]
    fn read_mem_carries_both_namespaces() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("x", 4);
        p.accel.push(SpatialStmt::Bind {
            var: "v".into(),
            value: SExpr::read_random("x", SExpr::Const(0.0)),
        });
        let c = CompiledProgram::compile(&p);
        let Op::Bind {
            value: Operand::Expr(start),
            ..
        } = c.ops()[0]
        else {
            panic!("expected a bind of an expression program");
        };
        let EOp::ReadMem { chip, dram, random } = c.eops()[start as usize + 1] else {
            panic!("expected readmem");
        };
        assert!(random);
        assert_eq!(c.syms().chip_name(chip), "x");
        assert_eq!(c.syms().dram_name(dram), "x");
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
        let c = CompiledProgram::compile(&p);
        // Two loops and Halt: the comment emits no op.
        assert_eq!(c.ops().len(), 3, "comment dropped");
        assert_eq!(c.stmt_spans(), [(0, 0), (0, 2)], "comment span is empty");
        assert_eq!(c.node_limit(), 2);
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
        let c = CompiledProgram::compile(&p);
        let mut syms = c.syms().clone();
        let l = c.layout();
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
        let c = CompiledProgram::compile(&p);
        let mut syms = c.syms().clone();
        let l = c.dram_layout();
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
        let c = CompiledProgram::compile(&p);
        let l = c.layout();
        assert_eq!(l.chips.len(), 1);
        assert_eq!(l.chips[0].word_cap, 0);
        assert_eq!(l.chips[0].bit_words, 0);
        assert_eq!(l.words, 0);
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
        let c = CompiledProgram::compile(&p);
        assert_eq!(c.node_limit(), 4);
        assert!(matches!(c.ops()[0], Op::Scan2Simple { body_len: 1, .. }));
        assert!(matches!(c.ops()[1], Op::Alloc { .. }));
        assert_eq!(c.syms().chip_count(), 3, "bv, none and tmp");
        assert_eq!(c.syms().var_count(), 4, "p, q, o and i");
    }
}
