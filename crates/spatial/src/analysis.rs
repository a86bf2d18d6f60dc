//! Static analysis over the lowered bytecode: one dataflow pass that
//! gates every compile.
//!
//! The shard planner ([`crate::shard`]) and the vector tier
//! ([`crate::vector`]) both need to *prove* properties of a compiled
//! program before running it differently from the serial scalar
//! interpreter: that a loop's iterations are independent, that a store
//! can never land outside its arena region, that a prefix only loads.
//! Historically each proved its own fragment with ad-hoc syntactic
//! pattern matching over the source tree. This module centralizes the
//! reasoning over the *lowered* `Vec<Op>` form, where every name is a
//! dense slot and every loop is a superinstruction heading its body
//! span:
//!
//! - [`verify`] — structural validity of a compiled program: every
//!   superinstruction's body span in range and nested inside the span
//!   of the loop enclosing it, every slot within
//!   its [`ArenaLayout`]/[`DramLayout`] extent, postfix expression
//!   programs stack-disciplined. The compiler runs it on every
//!   [`crate::CompiledProgram`] in debug builds (and CI runs it over
//!   the whole kernel suite + a mutation corpus), so a lowering bug
//!   becomes a typed [`VerifyError`] at compile time instead of a
//!   differential divergence at run time.
//! - [`effects_of_span`] — the effect summary of an op region: DRAM
//!   read/write sets, chip-slot def/use, variable def/use, as dense
//!   slot sets. [`crate::shard::ShardPlan::analyze`] is built on these
//!   summaries, which is what widens sharding to non-trailing outer
//!   loops: a prefix is safe to replay per shard iff its DRAM write
//!   set is disjoint from the candidate body's, a suffix is safe to
//!   run after iff it depends on nothing the body defines.
//! - [`classify_vec`] — vector eligibility: reduce loops
//!   ([`VecClass::Reduce`]), two-input scans ([`VecClass::Scan`]) and
//!   the row loops around reduces ([`VecClass::SegReduce`]) get lane
//!   programs from one builder, evaluated over
//!   [`crate::vector::REDUCE_LANES`]-wide chunks. Scatter-write bodies
//!   get no class: they run in the scalar single-op loop.
//!
//! The analyses are deliberately conservative: every set is an
//! over-approximation, every proof obligation that cannot be
//! discharged statically falls back to the checked path. Soundness
//! here means "never claim a property that could fail at run time",
//! not "accept every safe program".

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use crate::bytecode::{EOp, LaneOp, Op, Operand, VecClass};
use crate::ir::{BinSOp, MemKind};
use crate::resolve::{bit_words_for, ArenaLayout, DramLayout, Slot, SymbolTable};
use crate::vector;

/// A structural-validity violation found by [`verify`]. Each variant
/// carries the program counter (or expression-op index) of the
/// offending op, so a failure message pinpoints the lowering bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The program is empty or its final op is not [`Op::Halt`].
    MissingHalt,
    /// A [`Op::Halt`] appears before the final position.
    StrayHalt {
        /// Offending program counter.
        pc: usize,
    },
    /// A superinstruction's body span is malformed: `body != pc + 1`,
    /// or the span overruns the program or the span of the
    /// superinstruction enclosing it.
    BodyOutOfRange {
        /// Offending program counter.
        pc: usize,
    },
    /// A chip slot is outside the symbol table / arena layout.
    ChipSlotOutOfRange {
        /// Offending program counter.
        pc: usize,
        /// The out-of-range slot.
        slot: Slot,
    },
    /// A DRAM slot is outside the symbol table / DRAM layout.
    DramSlotOutOfRange {
        /// Offending program counter.
        pc: usize,
        /// The out-of-range slot.
        slot: Slot,
    },
    /// A variable slot is outside the symbol table.
    VarSlotOutOfRange {
        /// Offending program counter.
        pc: usize,
        /// The out-of-range slot.
        slot: Slot,
    },
    /// An expression reference is outside the expression-op array.
    ExprOutOfRange {
        /// Offending program counter.
        pc: usize,
        /// The out-of-range reference.
        index: u32,
    },
    /// An on-chip allocation exceeds the extent the [`ArenaLayout`]
    /// reserved for its slot.
    AllocExceedsLayout {
        /// Offending program counter.
        pc: usize,
        /// The allocated slot.
        slot: Slot,
        /// The requested size (words, or bits for bit vectors).
        size: usize,
        /// The layout's reserved capacity for the slot.
        cap: usize,
    },
    /// An expression program pops more values than the stack holds.
    ExprUnderflow {
        /// The expression program's entry reference.
        eref: u32,
        /// The expression-op index where the stack underflows.
        at: usize,
    },
    /// An expression program runs past the op array without an
    /// [`EOp::End`].
    ExprNoEnd {
        /// The expression program's entry reference.
        eref: u32,
    },
    /// An expression jump is backward or out of range (expression
    /// control flow is forward-only).
    ExprBadJump {
        /// The expression program's entry reference.
        eref: u32,
        /// The expression-op index of the jump.
        at: usize,
        /// The bad target.
        target: u32,
    },
    /// An expression program reaches [`EOp::End`] with a stack depth
    /// other than one (no single result value).
    ExprBadResult {
        /// The expression program's entry reference.
        eref: u32,
        /// The stack depth at `End`.
        depth: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            VerifyError::MissingHalt => {
                write!(f, "program does not end with Halt")
            }
            VerifyError::StrayHalt { pc } => {
                write!(f, "Halt before the final op at pc {pc}")
            }
            VerifyError::BodyOutOfRange { pc } => {
                write!(f, "superinstruction body span malformed at pc {pc}")
            }
            VerifyError::ChipSlotOutOfRange { pc, slot } => {
                write!(f, "chip slot {slot} out of range at pc {pc}")
            }
            VerifyError::DramSlotOutOfRange { pc, slot } => {
                write!(f, "DRAM slot {slot} out of range at pc {pc}")
            }
            VerifyError::VarSlotOutOfRange { pc, slot } => {
                write!(f, "variable slot {slot} out of range at pc {pc}")
            }
            VerifyError::ExprOutOfRange { pc, index } => {
                write!(f, "expression reference {index} out of range at pc {pc}")
            }
            VerifyError::AllocExceedsLayout {
                pc,
                slot,
                size,
                cap,
            } => {
                write!(
                    f,
                    "Alloc of chip slot {slot} at pc {pc} requests {size} \
                     but the arena layout reserves {cap}"
                )
            }
            VerifyError::ExprUnderflow { eref, at } => {
                write!(f, "expression {eref} underflows its stack at eop {at}")
            }
            VerifyError::ExprNoEnd { eref } => {
                write!(f, "expression {eref} runs off the op array without End")
            }
            VerifyError::ExprBadJump { eref, at, target } => {
                write!(
                    f,
                    "expression {eref} has a backward or out-of-range jump \
                     to {target} at eop {at}"
                )
            }
            VerifyError::ExprBadResult { eref, depth } => {
                write!(
                    f,
                    "expression {eref} ends with stack depth {depth} (want 1)"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Borrowed view of the parts of a compiled program the analyses need.
/// [`crate::CompiledProgram::verify`] builds one from its own fields;
/// tests build one over a *mutated* copy of the op array to exercise
/// the verifier without access to the program's private internals.
#[derive(Debug, Clone, Copy)]
pub struct VerifyCtx<'a> {
    /// The flat statement ops.
    pub ops: &'a [Op],
    /// The flat expression ops.
    pub eops: &'a [EOp],
    /// The symbol table the program was linked against.
    pub syms: &'a SymbolTable,
    /// On-chip arena extents.
    pub layout: &'a ArenaLayout,
    /// DRAM arena extents.
    pub dram_layout: &'a DramLayout,
}

impl<'a> VerifyCtx<'a> {
    fn check_chip(&self, pc: usize, slot: Slot) -> Result<(), VerifyError> {
        if (slot as usize) < self.syms.chip_count() && (slot as usize) < self.layout.chips.len() {
            Ok(())
        } else {
            Err(VerifyError::ChipSlotOutOfRange { pc, slot })
        }
    }

    fn check_dram(&self, pc: usize, slot: Slot) -> Result<(), VerifyError> {
        if (slot as usize) < self.syms.dram_count()
            && (slot as usize) < self.dram_layout.drams.len()
        {
            Ok(())
        } else {
            Err(VerifyError::DramSlotOutOfRange { pc, slot })
        }
    }

    fn check_var(&self, pc: usize, slot: Slot) -> Result<(), VerifyError> {
        if (slot as usize) < self.syms.var_count() {
            Ok(())
        } else {
            Err(VerifyError::VarSlotOutOfRange { pc, slot })
        }
    }

    fn check_operand(&self, pc: usize, operand: Operand) -> Result<(), VerifyError> {
        match operand {
            Operand::Const(_) => Ok(()),
            Operand::Var(v) => self.check_var(pc, v),
            Operand::Expr(e) => self.check_expr(pc, e),
        }
    }

    /// Simulates the postfix expression program starting at `eref`:
    /// stack depths across both `Select` branches, forward-only jumps,
    /// exactly one result at `End`, every embedded slot in range.
    fn check_expr(&self, pc: usize, eref: u32) -> Result<(), VerifyError> {
        if (eref as usize) >= self.eops.len() {
            return Err(VerifyError::ExprOutOfRange { pc, index: eref });
        }
        // Worklist DFS over (eop index, stack depth). Jumps are
        // forward-only (checked), so the walk terminates; the visited
        // set keeps branchy expressions linear.
        let mut work = vec![(eref as usize, 0usize)];
        let mut visited = BTreeSet::new();
        while let Some((mut at, mut depth)) = work.pop() {
            loop {
                if !visited.insert((at, depth)) {
                    break;
                }
                let Some(eop) = self.eops.get(at) else {
                    return Err(VerifyError::ExprNoEnd { eref });
                };
                match *eop {
                    EOp::Const(_) => depth += 1,
                    EOp::Var(v) => {
                        self.check_var(at, v)?;
                        depth += 1;
                    }
                    EOp::RegRead(r) | EOp::Deq(r) => {
                        self.check_chip(at, r)?;
                        depth += 1;
                    }
                    EOp::ReadMem { chip, dram, .. } => {
                        self.check_chip(at, chip)?;
                        self.check_dram(at, dram)?;
                        if depth == 0 {
                            return Err(VerifyError::ExprUnderflow { eref, at });
                        }
                        // pops the index, pushes the value
                    }
                    EOp::Neg => {
                        if depth == 0 {
                            return Err(VerifyError::ExprUnderflow { eref, at });
                        }
                    }
                    EOp::Binary(_) => {
                        if depth < 2 {
                            return Err(VerifyError::ExprUnderflow { eref, at });
                        }
                        depth -= 1;
                    }
                    EOp::VarReadMem {
                        chip, dram, var, ..
                    } => {
                        self.check_chip(at, chip)?;
                        self.check_dram(at, dram)?;
                        self.check_var(at, var)?;
                        depth += 1;
                    }
                    EOp::VarBinGather {
                        a,
                        chip,
                        dram,
                        ivar,
                        ..
                    } => {
                        self.check_var(at, a)?;
                        self.check_chip(at, chip)?;
                        self.check_dram(at, dram)?;
                        self.check_var(at, ivar)?;
                        depth += 1;
                    }
                    EOp::VarConstBin { var, .. } => {
                        self.check_var(at, var)?;
                        depth += 1;
                    }
                    EOp::BranchFalse { target } => {
                        if depth == 0 {
                            return Err(VerifyError::ExprUnderflow { eref, at });
                        }
                        depth -= 1;
                        if (target as usize) <= at || (target as usize) >= self.eops.len() {
                            return Err(VerifyError::ExprBadJump { eref, at, target });
                        }
                        work.push((target as usize, depth));
                    }
                    EOp::Jump { target } => {
                        if (target as usize) <= at || (target as usize) >= self.eops.len() {
                            return Err(VerifyError::ExprBadJump { eref, at, target });
                        }
                        at = target as usize;
                        continue;
                    }
                    EOp::End => {
                        if depth != 1 {
                            return Err(VerifyError::ExprBadResult { eref, depth });
                        }
                        break;
                    }
                }
                at += 1;
            }
        }
        Ok(())
    }

    /// Per-op local checks: slot extents, operand validity, alloc
    /// sizes, superinstruction body spans.
    fn check_op(&self, pc: usize, op: &Op) -> Result<(), VerifyError> {
        let len = self.ops.len();
        let span_ok = |body: u32, body_len: u32| {
            body as usize == pc + 1 && (body as usize) + (body_len as usize) < len
        };
        match *op {
            Op::Alloc { slot, kind, size } => {
                self.check_chip(pc, slot)?;
                let region = &self.layout.chips[slot as usize];
                let (need, cap) = match kind {
                    MemKind::Sram | MemKind::SparseSram => (size, region.word_cap),
                    MemKind::Fifo => (size.max(1), region.word_cap),
                    MemKind::Reg => (1, region.word_cap),
                    MemKind::BitVector => (bit_words_for(size), region.bit_words),
                    // Rejected at runtime; no on-chip extent to check.
                    MemKind::Dram | MemKind::SparseDram => (0, 0),
                };
                if need > cap {
                    return Err(VerifyError::AllocExceedsLayout {
                        pc,
                        slot,
                        size,
                        cap,
                    });
                }
                Ok(())
            }
            Op::Bind { var, value } => {
                self.check_var(pc, var)?;
                self.check_operand(pc, value)
            }
            Op::Load {
                dst,
                src,
                start,
                end,
            } => {
                self.check_chip(pc, dst)?;
                self.check_dram(pc, src)?;
                self.check_operand(pc, start)?;
                self.check_operand(pc, end)
            }
            Op::Store {
                dst,
                offset,
                src,
                len,
            } => {
                self.check_dram(pc, dst)?;
                self.check_chip(pc, src)?;
                self.check_operand(pc, offset)?;
                self.check_operand(pc, len)
            }
            Op::StreamStore {
                dst,
                offset,
                fifo,
                len,
            } => {
                self.check_dram(pc, dst)?;
                self.check_chip(pc, fifo)?;
                self.check_operand(pc, offset)?;
                self.check_operand(pc, len)
            }
            Op::StoreScalar { dst, index, value } => {
                self.check_dram(pc, dst)?;
                self.check_operand(pc, index)?;
                self.check_operand(pc, value)
            }
            Op::WriteMem {
                mem, index, value, ..
            } => {
                self.check_chip(pc, mem)?;
                self.check_operand(pc, index)?;
                self.check_operand(pc, value)
            }
            Op::RmwAdd { mem, index, value } => {
                self.check_chip(pc, mem)?;
                self.check_operand(pc, index)?;
                self.check_operand(pc, value)
            }
            Op::SetReg { reg, value } => {
                self.check_chip(pc, reg)?;
                self.check_operand(pc, value)
            }
            Op::Enq { fifo, value } => {
                self.check_chip(pc, fifo)?;
                self.check_operand(pc, value)
            }
            Op::GenBitVector {
                dst,
                src,
                src_start,
                count,
                dim,
            } => {
                self.check_chip(pc, dst)?;
                self.check_chip(pc, src)?;
                self.check_operand(pc, src_start)?;
                self.check_operand(pc, count)?;
                self.check_operand(pc, dim)
            }
            Op::RangeSimple {
                var,
                min,
                max,
                body,
                body_len,
                reduce,
                ..
            } => {
                self.check_var(pc, var)?;
                self.check_operand(pc, min)?;
                self.check_operand(pc, max)?;
                if !span_ok(body, body_len) {
                    return Err(VerifyError::BodyOutOfRange { pc });
                }
                if let Some((reg, expr)) = reduce {
                    self.check_chip(pc, reg)?;
                    self.check_operand(pc, expr)?;
                }
                Ok(())
            }
            Op::Scan2Simple {
                bv_a,
                bv_b,
                vars,
                body,
                body_len,
                reduce,
                ..
            } => {
                self.check_chip(pc, bv_a)?;
                self.check_chip(pc, bv_b)?;
                for v in vars {
                    self.check_var(pc, v)?;
                }
                if !span_ok(body, body_len) {
                    return Err(VerifyError::BodyOutOfRange { pc });
                }
                if let Some((reg, expr)) = reduce {
                    self.check_chip(pc, reg)?;
                    self.check_operand(pc, expr)?;
                }
                Ok(())
            }
            Op::Halt => Ok(()),
        }
    }
}

/// Verifies the structural validity of a compiled program. `Ok(())`
/// means: the program ends at its only [`Op::Halt`], every
/// superinstruction's body span nests inside the span enclosing it,
/// every slot index is within the layouts the program was linked
/// against, and every expression program is stack-disciplined — i.e.
/// the executor cannot step out of bounds no matter what data it runs
/// over. The compiler asserts this on every program in debug builds;
/// CI asserts it over the kernel suite and a mutation corpus.
pub fn verify(ctx: &VerifyCtx<'_>) -> Result<(), VerifyError> {
    let ops = ctx.ops;
    if ops.last() != Some(&Op::Halt) {
        return Err(VerifyError::MissingHalt);
    }
    // One linear pass: per-op local checks, stray-Halt placement, and
    // span nesting. The executor steps a span and skips each nested
    // span whole, so a child span overhanging its parent's end would
    // run the parent's ops under the child's loop. `open` holds the
    // ends of the spans enclosing `pc`, innermost last.
    let mut open: Vec<usize> = Vec::new();
    for (pc, op) in ops.iter().enumerate() {
        ctx.check_op(pc, op)?;
        if matches!(op, Op::Halt) && pc != ops.len() - 1 {
            return Err(VerifyError::StrayHalt { pc });
        }
        while open.last().is_some_and(|&end| end <= pc) {
            open.pop();
        }
        if let Op::RangeSimple { body, body_len, .. } | Op::Scan2Simple { body, body_len, .. } = *op
        {
            let end = body as usize + body_len as usize;
            if open.last().is_some_and(|&outer| end > outer) {
                return Err(VerifyError::BodyOutOfRange { pc });
            }
            open.push(end);
        }
    }
    Ok(())
}

/// The effect summary of an op region: which slots it reads, writes,
/// defines. Sets are over resolved slots (dense `u32`), so member
/// tests and intersections are cheap and the summary composes by
/// union. Everything is an over-approximation — a `ReadMem` whose name
/// resolves to both a chip and a DRAM slot charges both, a FIFO
/// dequeue counts as a write (it mutates the ring) — which keeps
/// clients sound when they reason "the region cannot touch X".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Effects {
    /// DRAM slots the region may read.
    pub dram_reads: BTreeSet<Slot>,
    /// DRAM slots the region may write.
    pub dram_writes: BTreeSet<Slot>,
    /// Chip slots the region may read.
    pub chip_reads: BTreeSet<Slot>,
    /// Chip slots the region may write (including allocation zero-fill
    /// and FIFO-consuming reads).
    pub chip_writes: BTreeSet<Slot>,
    /// Chip slots the region allocates.
    pub chip_allocs: BTreeSet<Slot>,
    /// Variable slots the region binds (loop variables and `Bind`s).
    pub var_defs: BTreeSet<Slot>,
    /// Variable slots the region reads.
    pub var_uses: BTreeSet<Slot>,
}

impl Effects {
    /// Folds a statement operand's effects into the summary.
    pub(crate) fn operand(&mut self, eops: &[EOp], operand: Operand) {
        match operand {
            Operand::Const(_) => {}
            Operand::Var(v) => {
                self.var_uses.insert(v);
            }
            Operand::Expr(e) => self.expr(eops, e),
        }
    }

    /// Attributes every eop of the expression program starting at `e`.
    /// Expression control flow is forward-only with a single
    /// terminating [`EOp::End`], so a linear scan covers both `Select`
    /// branches (an over-approximation of any one dynamic path).
    fn expr(&mut self, eops: &[EOp], e: u32) {
        for eop in &eops[e as usize..] {
            match *eop {
                EOp::Const(_) | EOp::Neg | EOp::Binary(_) => {}
                EOp::Var(v) => {
                    self.var_uses.insert(v);
                }
                EOp::RegRead(r) => {
                    self.chip_reads.insert(r);
                }
                EOp::Deq(fifo) => {
                    // A dequeue consumes: the ring mutates.
                    self.chip_reads.insert(fifo);
                    self.chip_writes.insert(fifo);
                }
                EOp::ReadMem { chip, dram, .. } => {
                    self.chip_reads.insert(chip);
                    self.dram_reads.insert(dram);
                }
                EOp::VarReadMem {
                    chip, dram, var, ..
                } => {
                    self.chip_reads.insert(chip);
                    self.dram_reads.insert(dram);
                    self.var_uses.insert(var);
                }
                EOp::VarBinGather {
                    a,
                    chip,
                    dram,
                    ivar,
                    ..
                } => {
                    self.var_uses.insert(a);
                    self.var_uses.insert(ivar);
                    self.chip_reads.insert(chip);
                    self.dram_reads.insert(dram);
                }
                EOp::VarConstBin { var, .. } => {
                    self.var_uses.insert(var);
                }
                EOp::BranchFalse { .. } | EOp::Jump { .. } => {}
                EOp::End => break,
            }
        }
    }

    /// Folds one op's effects into the summary.
    pub(crate) fn op(&mut self, eops: &[EOp], op: &Op) {
        match *op {
            Op::Alloc { slot, .. } => {
                self.chip_allocs.insert(slot);
                // Allocation zero-fills the region: a write.
                self.chip_writes.insert(slot);
            }
            Op::Bind { var, value } => {
                self.operand(eops, value);
                self.var_defs.insert(var);
            }
            Op::Load {
                dst,
                src,
                start,
                end,
            } => {
                self.operand(eops, start);
                self.operand(eops, end);
                self.dram_reads.insert(src);
                self.chip_writes.insert(dst);
            }
            Op::Store {
                dst,
                offset,
                src,
                len,
            } => {
                self.operand(eops, offset);
                self.operand(eops, len);
                self.chip_reads.insert(src);
                self.dram_writes.insert(dst);
            }
            Op::StreamStore {
                dst,
                offset,
                fifo,
                len,
            } => {
                self.operand(eops, offset);
                self.operand(eops, len);
                // Draining consumes the FIFO: read and write.
                self.chip_reads.insert(fifo);
                self.chip_writes.insert(fifo);
                self.dram_writes.insert(dst);
            }
            Op::StoreScalar { dst, index, value } => {
                self.operand(eops, index);
                self.operand(eops, value);
                self.dram_writes.insert(dst);
            }
            Op::WriteMem {
                mem, index, value, ..
            } => {
                self.operand(eops, index);
                self.operand(eops, value);
                self.chip_writes.insert(mem);
            }
            Op::RmwAdd { mem, index, value } => {
                self.operand(eops, index);
                self.operand(eops, value);
                self.chip_reads.insert(mem);
                self.chip_writes.insert(mem);
            }
            Op::SetReg { reg, value } => {
                self.operand(eops, value);
                self.chip_writes.insert(reg);
            }
            Op::Enq { fifo, value } => {
                self.operand(eops, value);
                self.chip_writes.insert(fifo);
            }
            Op::GenBitVector {
                dst,
                src,
                src_start,
                count,
                dim,
            } => {
                self.operand(eops, src_start);
                self.operand(eops, count);
                self.operand(eops, dim);
                // The coordinate source may be a FIFO (consumed) — be
                // conservative and charge a write too.
                self.chip_reads.insert(src);
                self.chip_writes.insert(src);
                self.chip_writes.insert(dst);
            }
            Op::RangeSimple {
                var,
                min,
                max,
                reduce,
                ..
            } => {
                self.operand(eops, min);
                self.operand(eops, max);
                self.var_defs.insert(var);
                if let Some((reg, expr)) = reduce {
                    self.operand(eops, expr);
                    self.chip_reads.insert(reg);
                    self.chip_writes.insert(reg);
                }
            }
            Op::Scan2Simple {
                bv_a,
                bv_b,
                vars,
                reduce,
                ..
            } => {
                self.chip_reads.insert(bv_a);
                self.chip_reads.insert(bv_b);
                for v in vars {
                    self.var_defs.insert(v);
                }
                if let Some((reg, expr)) = reduce {
                    self.operand(eops, expr);
                    self.chip_reads.insert(reg);
                    self.chip_writes.insert(reg);
                }
            }
            Op::Halt => {}
        }
    }
}

/// Computes the effect summary of the ops in `span` (including any
/// operand expressions they reference). Spans are half-open pc ranges;
/// the statement spans recorded by the compiler
/// ([`crate::CompiledProgram::stmt_spans`]) are the intended inputs.
pub fn effects_of_span(ops: &[Op], eops: &[EOp], span: Range<usize>) -> Effects {
    let mut eff = Effects::default();
    for op in &ops[span] {
        eff.op(eops, op);
    }
    eff
}

/// The FIFO-head binding `Bind x = fifo.deq` as `(x, fifo)`.
fn deq_bind(op: &Op, eops: &[EOp]) -> Option<(Slot, Slot)> {
    let Op::Bind {
        var,
        value: Operand::Expr(e),
    } = *op
    else {
        return None;
    };
    match (eops.get(e as usize), eops.get(e as usize + 1)) {
        (Some(&EOp::Deq(fifo)), Some(&EOp::End)) => Some((var, fifo)),
        _ => None,
    }
}

/// Builds one lane program (see [`VecClass::Reduce`] and
/// [`VecClass::Scan`]): every variable becomes a per-lane leaf — a
/// range loop's iota or one of its FIFO heads, a scan loop's variables
/// — or a loop-invariant splat, and every operator must be one a lane
/// cannot fail on. The builders return `false` on the first shape the
/// vector tier cannot evaluate lane-wise, an operator short of
/// operands, or a program past [`vector::MAX_LANE_OPS`] /
/// [`vector::MAX_LANE_DEPTH`].
struct LaneBuilder<'a> {
    /// The variables that take a per-lane value, each with its leaf.
    lanes: &'a [(Slot, LaneOp)],
    /// The registers that take a per-lane value: a row loop's
    /// registers, each with its row column.
    regs: &'a [(Slot, u32)],
    ops: Vec<LaneOp>,
    depth: usize,
}

impl LaneBuilder<'_> {
    fn new(lanes: &[(Slot, LaneOp)]) -> LaneBuilder<'_> {
        LaneBuilder {
            lanes,
            regs: &[],
            ops: Vec::new(),
            depth: 0,
        }
    }

    fn reg(&mut self, r: Slot) -> bool {
        let op = match self.regs.iter().find(|&&(x, _)| x == r) {
            Some(&(_, col)) => LaneOp::Col(col),
            None => LaneOp::Reg(r),
        };
        self.push(op)
    }

    fn push(&mut self, op: LaneOp) -> bool {
        match op {
            LaneOp::Bin(_) if self.depth < 2 => return false,
            LaneOp::Read { .. } | LaneOp::Neg if self.depth < 1 => return false,
            LaneOp::Bin(_) => self.depth -= 1,
            LaneOp::Read { .. } | LaneOp::Neg => {}
            _ => self.depth += 1,
        }
        self.ops.push(op);
        self.ops.len() < vector::MAX_LANE_OPS && self.depth <= vector::MAX_LANE_DEPTH
    }

    fn var(&mut self, v: Slot) -> bool {
        let op = match self.lanes.iter().find(|&&(x, _)| x == v) {
            Some(&(_, leaf)) => leaf,
            None => LaneOp::Var(v),
        };
        self.push(op)
    }

    /// The `mux(p + 1, chip[p], 0)` guarded read at `eops[at..at + 5]`
    /// over a scan position `p`, as the `or` lowering emits it:
    /// `[VarConstBin p + 1, BranchFalse, VarReadMem chip[p], Jump,
    /// Const 0]`.
    fn guarded(&self, eops: &[EOp], at: usize) -> Option<LaneOp> {
        let (
            Some(&EOp::VarConstBin {
                var: p,
                c,
                op: BinSOp::Add,
            }),
            Some(&EOp::BranchFalse { target }),
            Some(&EOp::VarReadMem {
                chip, random, var, ..
            }),
            Some(&EOp::Jump { target: join }),
            Some(&EOp::Const(zero)),
        ) = (
            eops.get(at),
            eops.get(at + 1),
            eops.get(at + 2),
            eops.get(at + 3),
            eops.get(at + 4),
        )
        else {
            return None;
        };
        let shaped = c == 1.0
            && var == p
            && target as usize == at + 4
            && join as usize == at + 5
            && zero.to_bits() == 0;
        match self.lanes.iter().find(|&&(x, _)| x == p) {
            Some(&(_, LaneOp::ScanVar(side @ (0 | 1)))) if shaped => {
                Some(LaneOp::Guarded { side, chip, random })
            }
            _ => None,
        }
    }

    /// Appends the lane form of the expression ops `eops[from..to]`.
    fn eops(&mut self, eops: &[EOp], from: usize, to: usize) -> bool {
        let mut at = from;
        while at < to {
            if let Some(leaf) = self.guarded(eops, at).filter(|_| at + 5 <= to) {
                if !self.push(leaf) {
                    return false;
                }
                at += 5;
                continue;
            }
            let ok = match eops[at] {
                EOp::Const(c) => self.push(LaneOp::Const(c)),
                EOp::Var(v) => self.var(v),
                EOp::RegRead(r) => self.reg(r),
                EOp::ReadMem { chip, random, .. } => self.read(chip, random),
                EOp::Neg => self.push(LaneOp::Neg),
                EOp::Binary(op) => self.bin(op),
                EOp::VarReadMem {
                    chip, random, var, ..
                } => self.var(var) && self.read(chip, random),
                EOp::VarBinGather {
                    a,
                    op,
                    chip,
                    random,
                    ivar,
                    ..
                } => self.var(a) && self.var(ivar) && self.read(chip, random) && self.bin(op),
                EOp::VarConstBin { var, c, op } => {
                    self.var(var) && self.push(LaneOp::Const(c)) && self.bin(op)
                }
                // A dequeue is an effect per lane; any other mux
                // evaluates one side only.
                EOp::Deq(_) | EOp::BranchFalse { .. } | EOp::Jump { .. } | EOp::End => false,
            };
            if !ok {
                return false;
            }
            at += 1;
        }
        true
    }

    fn bin(&mut self, op: BinSOp) -> bool {
        matches!(op, BinSOp::Add | BinSOp::Sub | BinSOp::Mul) && self.push(LaneOp::Bin(op))
    }

    fn read(&mut self, chip: Slot, random: bool) -> bool {
        self.push(LaneOp::Read { chip, random })
    }

    /// Appends the lane form of a reduce operand.
    fn operand(&mut self, o: Operand, eops: &[EOp]) -> bool {
        match o {
            Operand::Const(c) => self.push(LaneOp::Const(c)),
            Operand::Var(v) => self.var(v),
            Operand::Expr(e) => self.eops(eops, e as usize, expr_end(eops, e)),
        }
    }

    /// The finished program of one whole expression: `None` unless the
    /// operand left exactly one lane.
    fn program(mut self, o: Operand, eops: &[EOp]) -> Option<Vec<LaneOp>> {
        (self.operand(o, eops) && self.depth == 1).then_some(self.ops)
    }
}

/// The index of the `End` closing the expression program at `e`.
fn expr_end(eops: &[EOp], e: u32) -> usize {
    let from = e as usize;
    from + eops[from..]
        .iter()
        .position(|eop| matches!(eop, EOp::End))
        .unwrap_or(eops.len() - from)
}

/// The lane program of a unit-step `RangeSimple` reduce, or `None` when
/// the loop is not [`VecClass::Reduce`]-shaped: its body must be only
/// FIFO-head bindings (distinct variables other than the loop
/// variable, distinct FIFOs, at most [`vector::MAX_LANE_HEADS`]) and its
/// reduced expression lane-evaluable.
fn reduce_lanes(var: Slot, body: &[Op], expr: Operand, eops: &[EOp]) -> Option<Vec<LaneOp>> {
    if body.len() > vector::MAX_LANE_HEADS {
        return None;
    }
    let mut lanes: Vec<(Slot, LaneOp)> = vec![(var, LaneOp::Iota)];
    let mut fifos: Vec<Slot> = Vec::with_capacity(body.len());
    for (k, op) in body.iter().enumerate() {
        let (x, fifo) = deq_bind(op, eops)?;
        if lanes.iter().any(|&(v, _)| v == x) || fifos.contains(&fifo) {
            return None;
        }
        lanes.push((x, LaneOp::Head(k as u32)));
        fifos.push(fifo);
    }
    let mut program = LaneBuilder::new(&lanes).program(expr, eops)?;
    program.push(LaneOp::End);
    Some(program)
}

/// The register `r` of the expression program `[RegRead(r), End]` —
/// the append counter a `StoreScalar` index reads.
fn reg_read(operand: Operand, eops: &[EOp]) -> Option<Slot> {
    let Operand::Expr(e) = operand else {
        return None;
    };
    match (eops.get(e as usize), eops.get(e as usize + 1)) {
        (Some(&EOp::RegRead(r)), Some(&EOp::End)) => Some(r),
        _ => None,
    }
}

/// The lane statement a `Scan2Simple` body op is (see
/// [`VecClass::Scan`]): its value program closed by its sink, or the
/// first reason it is none of the four.
fn scan_statement(op: &Op, lanes: &[(Slot, LaneOp)], eops: &[EOp]) -> Option<Vec<LaneOp>> {
    let (mut program, sink) = match *op {
        Op::StoreScalar { dst, index, value } => {
            let ctr = reg_read(index, eops)?;
            let program = LaneBuilder::new(lanes).program(value, eops)?;
            (program, LaneOp::Store { dst, ctr })
        }
        Op::Enq { fifo, value } => {
            let program = LaneBuilder::new(lanes).program(value, eops)?;
            (program, LaneOp::Enq(fifo))
        }
        Op::SetReg {
            reg,
            value: Operand::Expr(e),
        } => {
            // `[RegRead(reg), e…, Binary(Add), End]`: `e` is one whole
            // expression exactly when the ops between leave one lane.
            let (from, end) = (e as usize, expr_end(eops, e));
            if eops[from] != EOp::RegRead(reg) || end < from + 3 {
                return None;
            }
            if eops[end - 1] != EOp::Binary(BinSOp::Add) {
                return None;
            }
            if eops[from + 1..end - 1] == [EOp::Const(1.0)] {
                return Some(vec![LaneOp::Count(reg)]);
            }
            let mut b = LaneBuilder::new(lanes);
            if !b.eops(eops, from + 1, end - 1) || b.depth != 1 {
                return None;
            }
            (b.ops, LaneOp::AddReg(reg))
        }
        _ => return None,
    };
    program.push(sink);
    Some(program)
}

/// The lane programs of a `Scan2Simple` body (see [`VecClass::Scan`]),
/// or `None` when a body op is not one of the four lane statements, two
/// statements share a target, a store's counter is not advanced after
/// it, or a lane program reads a register the loop writes.
fn scan_lanes(
    vars: [Slot; 4],
    body: &[Op],
    reduce: Option<(Slot, Operand)>,
    eops: &[EOp],
) -> Option<Vec<LaneOp>> {
    if body.len() + usize::from(reduce.is_some()) > vector::MAX_LANE_STMTS {
        return None;
    }
    let lanes: [(Slot, LaneOp); 4] = std::array::from_fn(|k| (vars[k], LaneOp::ScanVar(k as u32)));
    let mut program = Vec::new();
    for op in body {
        program.extend(scan_statement(op, &lanes, eops)?);
    }
    if let Some((_, expr)) = reduce {
        program.extend(LaneBuilder::new(&lanes).program(expr, eops)?);
        program.push(LaneOp::Fold);
    }
    // Targets: registers and FIFOs (chip slots), DRAM arrays.
    let mut chips: Vec<Slot> = reduce.iter().map(|&(reg, _)| reg).collect();
    let mut drams: Vec<Slot> = Vec::new();
    let mut counted: Vec<Slot> = Vec::new();
    let mut appended: Vec<Slot> = Vec::new();
    for op in &program {
        let (set, target) = match *op {
            LaneOp::AddReg(r) | LaneOp::Enq(r) => (&mut chips, r),
            LaneOp::Count(r) => {
                counted.push(r);
                (&mut chips, r)
            }
            LaneOp::Store { dst, ctr } => {
                // Every store sees its counter before the advance.
                if counted.contains(&ctr) {
                    return None;
                }
                appended.push(ctr);
                (&mut drams, dst)
            }
            _ => continue,
        };
        if set.contains(&target) {
            return None;
        }
        set.push(target);
    }
    if !appended.iter().all(|ctr| counted.contains(ctr)) {
        return None;
    }
    let reads_target = program
        .iter()
        .any(|op| matches!(*op, LaneOp::Reg(r) if chips.contains(&r)));
    if reads_target {
        return None;
    }
    program.push(LaneOp::End);
    Some(program)
}

/// Whether a lane program's loop-invariant leaves stay invariant across
/// the rows of a row loop: no `Var` the loop binds, no `Reg` or
/// on-chip read of a slot it writes.
fn row_invariant(program: &[LaneOp], bound: &[Slot], written: &[Slot]) -> bool {
    program.iter().all(|op| match *op {
        LaneOp::Var(v) => !bound.contains(&v),
        LaneOp::Reg(r) | LaneOp::Read { chip: r, .. } => !written.contains(&r),
        _ => true,
    })
}

/// Whether `v` is bound to a row column.
fn is_col(leaves: &[(Slot, LaneOp)], v: Slot) -> bool {
    leaves
        .iter()
        .any(|&(x, leaf)| x == v && matches!(leaf, LaneOp::Col(_)))
}

/// The lane program of one row expression of a
/// [`VecClass::SegReduce`] row loop, closed by [`LaneOp::End`].
#[allow(clippy::too_many_arguments)]
fn row_program(
    value: Operand,
    leaves: &[(Slot, LaneOp)],
    regs: &[(Slot, u32)],
    bound: &[Slot],
    written: &[Slot],
    eops: &[EOp],
) -> Option<Vec<LaneOp>> {
    let mut b = LaneBuilder::new(leaves);
    b.regs = regs;
    let mut program = b.program(value, eops)?;
    if !row_invariant(&program, bound, written) {
        return None;
    }
    program.push(LaneOp::End);
    Some(program)
}

/// The row programs of a [`VecClass::SegReduce`] row loop at `pc`, or
/// `None` when the loop is not that shape. `classes` and `lanes` are
/// the first pass's verdicts and lane programs: the inner loop must be
/// `Reduce`-tagged, and its program is checked in place, not copied.
fn seg_lanes(
    ops: &[Op],
    pc: usize,
    classes: &[VecClass],
    lanes: &[LaneOp],
    eops: &[EOp],
) -> Option<Vec<LaneOp>> {
    let Op::RangeSimple {
        var,
        step: 1,
        body,
        body_len,
        reduce: None,
        ..
    } = ops[pc]
    else {
        return None;
    };
    let (body, end) = (body as usize, (body + body_len) as usize);
    if body != pc + 1 {
        return None;
    }
    // What the body binds and writes, its top-level ops, its one inner
    // loop.
    let mut bound = vec![var];
    let mut written = Vec::new();
    let mut top = Vec::new();
    let mut inner = None;
    let mut at = body;
    while at < end {
        top.push(at);
        match ops[at] {
            Op::RangeSimple {
                var: q,
                body: b,
                body_len: n,
                ..
            } if inner.is_none() => {
                inner = Some(at);
                bound.push(q);
                for op in &ops[b as usize..(b + n) as usize] {
                    if let Op::Bind { var, .. } = *op {
                        bound.push(var);
                    }
                }
                at = (b + n) as usize;
                continue;
            }
            Op::Alloc {
                slot,
                kind: MemKind::Reg | MemKind::Fifo,
                ..
            }
            | Op::SetReg { reg: slot, .. }
            | Op::Load { dst: slot, .. } => written.push(slot),
            Op::Bind { var, .. } => bound.push(var),
            Op::StoreScalar { .. } => {}
            _ => return None,
        }
        at += 1;
    }
    let inner = inner?;
    if top.len() > vector::MAX_SEG_OPS {
        return None;
    }
    let (
        VecClass::Reduce(inner_at),
        &Op::RangeSimple {
            min: Operand::Const(lo),
            max: Operand::Var(trips),
            reduce: Some((acc, _)),
            body: ib,
            body_len: ibl,
            ..
        },
    ) = (classes[inner], &ops[inner])
    else {
        return None;
    };
    // `0.0` exactly: a `-0.0` first lane would carry its sign.
    if lo.to_bits() != 0 {
        return None;
    }
    let inner_program = &lanes[inner_at as usize..];
    let inner_len = inner_program.iter().position(|op| *op == LaneOp::End)?;
    if !row_invariant(&inner_program[..inner_len], &bound, &written) {
        return None;
    }
    let mut leaves: Vec<(Slot, LaneOp)> = vec![(var, LaneOp::Iota)];
    let mut regs: Vec<(Slot, u32)> = Vec::new();
    let mut fifos: Vec<Slot> = Vec::new();
    let mut loaded: Vec<(Slot, Slot)> = Vec::new();
    let mut stores: Vec<Slot> = Vec::new();
    let mut cols = 0u32;
    let mut programs = 0usize;
    let mut after = false;
    let mut out = Vec::new();
    for &at in &top {
        match ops[at] {
            Op::Alloc {
                slot,
                kind: MemKind::Reg,
                ..
            } => {
                if regs.iter().any(|&(r, _)| r == slot) {
                    return None;
                }
                regs.push((slot, cols));
                cols += 1;
            }
            Op::Alloc { slot, .. } => {
                if after || fifos.contains(&slot) {
                    return None;
                }
                fifos.push(slot);
            }
            Op::Bind { var: x, value } => {
                if leaves.iter().any(|&(v, _)| v == x) {
                    return None;
                }
                let p = row_program(value, &leaves, &regs, &bound, &written, eops)?;
                out.extend(p);
                programs += 1;
                leaves.push((x, LaneOp::Col(cols)));
                cols += 1;
            }
            Op::SetReg { reg, value } => {
                if !regs.iter().any(|&(r, _)| r == reg) {
                    return None;
                }
                let p = row_program(value, &leaves, &regs, &bound, &written, eops)?;
                out.extend(p);
                programs += 1;
            }
            Op::Load {
                dst,
                src,
                start: Operand::Var(s),
                end: Operand::Var(e),
            } => {
                if after
                    || !fifos.contains(&dst)
                    || loaded.iter().any(|&(f, _)| f == dst)
                    || !is_col(&leaves, s)
                    || !is_col(&leaves, e)
                {
                    return None;
                }
                loaded.push((dst, src));
            }
            Op::RangeSimple { .. } => {
                after = true;
                if !is_col(&leaves, trips) || !regs.iter().any(|&(r, _)| r == acc) {
                    return None;
                }
                for op in &ops[ib as usize..(ib + ibl) as usize] {
                    let (_, fifo) = deq_bind(op, eops)?;
                    if !loaded.iter().any(|&(f, _)| f == fifo) {
                        return None;
                    }
                }
            }
            Op::StoreScalar { dst, index, value } => {
                for operand in [index, value] {
                    let p = row_program(operand, &leaves, &regs, &bound, &written, eops)?;
                    out.extend(p);
                }
                programs += 2;
                cols += 2;
                stores.push(dst);
            }
            _ => return None,
        }
    }
    // A store into an array a later row loads would reorder under
    // row-at-a-time commits.
    let feeds_load = stores
        .iter()
        .any(|d| loaded.iter().any(|&(_, src)| src == *d));
    if feeds_load
        || cols as usize > vector::MAX_SEG_COLS
        || programs > vector::MAX_SEG_PROGS
        || loaded.len() > vector::MAX_LANE_HEADS
    {
        return None;
    }
    Some(out)
}

/// The vector-eligibility pass: one classification per lowered op,
/// plus the lane-program table its [`VecClass::Reduce`],
/// [`VecClass::Scan`] and [`VecClass::SegReduce`] entries index. A
/// second pass over the first's verdicts tags the row loops around
/// `Reduce`-tagged inner loops [`VecClass::SegReduce`].
/// Runs after lowering (the superinstruction shapes it recognizes are
/// produced by the peephole) and stores its verdicts in a side table
/// parallel to `ops`. The flag is a *shape* property of the bytecode;
/// the interpreter still validates the runtime half of the contract
/// (slot allocations, integral unit-step bounds, stream aliasing, FIFO
/// occupancy) on each loop entry or chunk and falls back to the scalar
/// loop when it does not hold.
pub fn classify_vec(ops: &[Op], eops: &[EOp]) -> (Vec<VecClass>, Vec<LaneOp>) {
    let mut lanes = Vec::new();
    let mut classes: Vec<VecClass> = ops
        .iter()
        .enumerate()
        .map(|(pc, op)| match *op {
            Op::RangeSimple {
                var,
                step: 1,
                body,
                body_len,
                reduce: Some((_, expr)),
                ..
            } if body as usize == pc + 1 => {
                let span = &ops[body as usize..body as usize + body_len as usize];
                match reduce_lanes(var, span, expr, eops) {
                    Some(program) => {
                        let at = lanes.len() as u32;
                        lanes.extend(program);
                        VecClass::Reduce(at)
                    }
                    None => VecClass::None,
                }
            }
            Op::Scan2Simple {
                vars,
                body,
                body_len,
                reduce,
                ..
            } if body as usize == pc + 1 => {
                let span = &ops[body as usize..body as usize + body_len as usize];
                match scan_lanes(vars, span, reduce, eops) {
                    Some(program) => {
                        let at = lanes.len() as u32;
                        lanes.extend(program);
                        VecClass::Scan(at)
                    }
                    None => VecClass::None,
                }
            }
            _ => VecClass::None,
        })
        .collect();
    for pc in 0..ops.len() {
        if classes[pc] == VecClass::None {
            if let Some(program) = seg_lanes(ops, pc, &classes, &lanes, eops) {
                let at = lanes.len() as u32;
                lanes.extend(program);
                classes[pc] = VecClass::SegReduce(at);
            }
        }
    }
    (classes, lanes)
}
