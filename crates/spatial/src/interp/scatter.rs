//! The scatter tier: a whole `Range` loop whose body is one on-chip
//! write with hot-shape operands, slot states hoisted and statistics
//! batched — including the bounds-check-elided loop.

use super::budget::{check_interrupts, exhausted_fuel, INTERRUPT_MASK};
use super::exec::index_of;
use super::{ChipTag, Machine, RunError};
use crate::bytecode::{CompiledProgram, EOp, FusedOp, Operand};
use crate::ir::{BinSOp, MemKind};
use crate::resolve::Slot;

/// A gather operand pre-resolved for the scatter superinstruction: the
/// source slot's region, logical length, and shuffle attribution are
/// hoisted out of the loop (the loop body provably cannot change them).
#[derive(Debug, Clone, Copy)]
pub(super) struct HotGather {
    /// Chip slot (for error naming).
    pub(super) chip: Slot,
    /// Index variable slot.
    pub(super) var: Slot,
    /// Hoisted word-arena offset.
    pub(super) woff: usize,
    /// Hoisted logical length.
    pub(super) len: usize,
    /// Whether each read counts a shuffle access.
    pub(super) shuffle: bool,
}

/// Operand shapes the scatter superinstruction can evaluate without the
/// generic dispatch: literals, variables, single gathers, the
/// scale-by-gathered-value shape, and the `var op const` two-op
/// expression program.
#[derive(Debug, Clone, Copy)]
pub(super) enum HotValue {
    Const(f64),
    Var(Slot),
    Gather(HotGather),
    BinGather { a: Slot, op: BinSOp, g: HotGather },
    VarConstBin { var: Slot, c: f64, op: BinSOp },
}

/// Register-batched statistics for the scatter superinstruction,
/// flushed to the dense counters on every loop exit path.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct HotCounters {
    pub(super) sram_reads: u64,
    pub(super) shuffles: u64,
    pub(super) alu_ops: u64,
}

impl Machine {
    /// Resolves an operand into a hot-loop form whose referenced slot
    /// states are loop-invariant, or `None` when the shape (or a slot's
    /// current allocation) is not eligible.
    pub(super) fn hot_value(&self, prog: &CompiledProgram, o: Operand) -> Option<HotValue> {
        match o {
            Operand::Const(c) => Some(HotValue::Const(c)),
            Operand::Var(v) => Some(HotValue::Var(v)),
            Operand::Gather {
                chip, random, var, ..
            } => Some(HotValue::Gather(self.hot_gather(chip, random, var)?)),
            Operand::Fused(i) => match prog.fused()[i as usize] {
                FusedOp::BinGather { a, op, mem } => Some(HotValue::BinGather {
                    a,
                    op,
                    g: self.hot_gather(mem.chip, mem.random, mem.var)?,
                }),
                _ => None,
            },
            // The two-op `[VarConstBin, End]` expression program — the
            // lowering of `v op const` bodies like `s[j] = j * 2` —
            // evaluates without the postfix stack machine.
            Operand::Expr(e) => {
                let eops = prog.eops();
                match (eops.get(e as usize), eops.get(e as usize + 1)) {
                    (Some(&EOp::VarConstBin { var, c, op }), Some(&EOp::End)) => {
                        Some(HotValue::VarConstBin { var, c, op })
                    }
                    _ => None,
                }
            }
        }
    }

    /// A gather whose source slot is currently plain words: its region
    /// and shuffle attribution hoist out of the loop.
    pub(super) fn hot_gather(&self, chip: Slot, random: bool, var: Slot) -> Option<HotGather> {
        let st = &self.chip[chip as usize];
        if st.tag != ChipTag::Words {
            return None;
        }
        Some(HotGather {
            chip,
            var,
            woff: st.woff,
            len: st.len,
            shuffle: random && st.kind == MemKind::SparseSram,
        })
    }

    /// Evaluates a hot operand, batching statistics into `c`.
    /// Evaluation order, statistics, and errors are identical to the
    /// generic [`Machine::operand_value`] path.
    #[inline(always)]
    pub(super) fn hot_eval(&mut self, hv: HotValue, c: &mut HotCounters) -> Result<f64, RunError> {
        match hv {
            HotValue::Const(k) => Ok(k),
            HotValue::Var(v) => match self.env[v as usize] {
                Some(x) => Ok(x),
                None => Err(RunError::UnboundVar(
                    self.compiled.syms().var_name(v).to_string(),
                )),
            },
            HotValue::Gather(g) => self.hot_gather_read(g, c),
            HotValue::BinGather { a, op, g } => {
                let x = match self.env[a as usize] {
                    Some(x) => x,
                    None => {
                        return Err(RunError::UnboundVar(
                            self.compiled.syms().var_name(a).to_string(),
                        ));
                    }
                };
                let r = self.hot_gather_read(g, c)?;
                c.alu_ops += 1;
                op.apply(x, r).ok_or(RunError::DivisionByZero)
            }
            HotValue::VarConstBin { var, c: k, op } => {
                let a = match self.env[var as usize] {
                    Some(x) => x,
                    None => {
                        return Err(RunError::UnboundVar(
                            self.compiled.syms().var_name(var).to_string(),
                        ));
                    }
                };
                c.alu_ops += 1;
                op.apply(a, k).ok_or(RunError::DivisionByZero)
            }
        }
    }

    #[inline(always)]
    fn hot_gather_read(&mut self, g: HotGather, c: &mut HotCounters) -> Result<f64, RunError> {
        let ixf = match self.env[g.var as usize] {
            Some(x) => x,
            None => {
                return Err(RunError::UnboundVar(
                    self.compiled.syms().var_name(g.var).to_string(),
                ));
            }
        };
        let ix = index_of(ixf, || self.compiled.syms().chip_name(g.chip).to_string())?;
        if ix >= g.len {
            return Err(RunError::OutOfBounds {
                mem: self.compiled.syms().chip_name(g.chip).to_string(),
                index: ix as i64,
                len: g.len,
            });
        }
        c.sram_reads += 1;
        if g.shuffle {
            c.shuffles += 1;
        }
        Ok(self.words[g.woff + ix])
    }

    /// The scatter superinstruction executor: a whole `Range` loop whose
    /// body is one on-chip write (`WriteMem`/`RmwAdd`) with hot-shape
    /// operands — the Gustavson scatter-accumulate inner loop of SpMSpM.
    /// Destination and gather slot states are hoisted (the body cannot
    /// change any slot's allocation or region) and all statistics
    /// accumulate in registers, flushed on every exit path so the
    /// observable counts equal per-iteration bumping exactly.
    ///
    /// Returns `None` (having executed nothing) when an operand shape or
    /// a slot's current allocation is not eligible.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn try_scatter_loop(
        &mut self,
        prog: &CompiledProgram,
        id: usize,
        var: usize,
        saved: Option<f64>,
        v0: f64,
        hi: f64,
        fstep: f64,
        dst: Slot,
        index: Operand,
        value: Operand,
        random: bool,
        accumulate: bool,
        vector: bool,
        end: usize,
    ) -> Option<Result<usize, RunError>> {
        let dst_st = self.chip[dst as usize];
        if dst_st.tag != ChipTag::Words {
            return None;
        }
        let hindex = self.hot_value(prog, index)?;
        let hvalue = self.hot_value(prog, value)?;
        let dst_shuffle = (random || accumulate) && dst_st.kind == MemKind::SparseSram;
        // Chunked (vector-tier) run when the lowering tagged the shape
        // eligible and the runtime half of the contract holds; falls
        // through to the scalar loop otherwise.
        if vector {
            if let Some(r) = self.try_vector_scatter(
                id,
                var,
                saved,
                v0,
                hi,
                dst,
                dst_st,
                hindex,
                hvalue,
                dst_shuffle,
                accumulate,
                end,
            ) {
                return Some(r);
            }
        }
        let mut c = HotCounters::default();
        let mut swrites = 0u64;
        let mut trips = 0u64;
        let mut result: Result<(), RunError> = Ok(());
        let mut v = v0;
        // Bounds-check elision: the static analysis proved every
        // iteration of this loop writes in range (see
        // `crate::analysis::compute_elide`), and the hoisted guard
        // re-checks the proof's premises against runtime state — so a
        // stale table degrades to the checked loop below, never to an
        // unchecked out-of-bounds write.
        let elide = self.elide_enabled
            && prog.elide_at(end - 1)
            && matches!(hindex, HotValue::Var(a) if a as usize == var)
            && v0 >= 0.0
            && v0.fract() == 0.0
            && hi <= dst_st.len as f64;
        if elide && v < hi {
            self.node_stack.push(id);
            let mut fuel = self.fuel;
            let interrupts = self.interrupts;
            // Elided loop: the index is the loop variable itself —
            // integral, non-negative, and `< len` for the whole window
            // — so `index_of` and the per-access bounds check vanish.
            // Errors, statistics, and env effects are otherwise
            // identical to the checked loop below (the index operand
            // is an env read that charges nothing and cannot fail
            // while `env[var]` is bound).
            'eiters: while v < hi {
                if fuel == 0 {
                    result = Err(exhausted_fuel(self.fuel_cause, self.step_limit));
                    break 'eiters;
                }
                fuel -= 1;
                if interrupts && fuel & INTERRUPT_MASK == 0 {
                    if let Err(e) = check_interrupts(
                        self.deadline_at,
                        self.deadline_ms(),
                        self.budget.cancel.as_ref(),
                    ) {
                        result = Err(e);
                        break 'eiters;
                    }
                }
                self.env[var] = Some(v);
                trips += 1;
                let val = match self.hot_eval(hvalue, &mut c) {
                    Ok(x) => x,
                    Err(e) => {
                        result = Err(e);
                        break 'eiters;
                    }
                };
                let slot = &mut self.words[dst_st.woff + v as usize];
                if accumulate {
                    *slot += val;
                } else {
                    *slot = val;
                }
                swrites += 1;
                if dst_shuffle {
                    c.shuffles += 1;
                }
                v += fstep;
            }
            self.fuel = fuel;
            if result.is_ok() {
                self.node_stack.pop();
            }
        } else if v < hi {
            self.node_stack.push(id);
            // Fuel mirrors in a register like every other counter here,
            // flushed on all exit paths (the body is a single on-chip
            // write — it cannot consume fuel itself).
            let mut fuel = self.fuel;
            let interrupts = self.interrupts;
            'iters: while v < hi {
                if fuel == 0 {
                    result = Err(exhausted_fuel(self.fuel_cause, self.step_limit));
                    break 'iters;
                }
                fuel -= 1;
                if interrupts && fuel & INTERRUPT_MASK == 0 {
                    if let Err(e) = check_interrupts(
                        self.deadline_at,
                        self.deadline_ms(),
                        self.budget.cancel.as_ref(),
                    ) {
                        result = Err(e);
                        break 'iters;
                    }
                }
                self.env[var] = Some(v);
                trips += 1;
                // Same order as the generic RmwAdd/WriteMem op: index
                // operand, index conversion, value operand, then the
                // bounds-checked write.
                let ixf = match self.hot_eval(hindex, &mut c) {
                    Ok(x) => x,
                    Err(e) => {
                        result = Err(e);
                        break 'iters;
                    }
                };
                let ix = match index_of(ixf, || self.compiled.syms().chip_name(dst).to_string()) {
                    Ok(x) => x,
                    Err(e) => {
                        result = Err(e);
                        break 'iters;
                    }
                };
                let val = match self.hot_eval(hvalue, &mut c) {
                    Ok(x) => x,
                    Err(e) => {
                        result = Err(e);
                        break 'iters;
                    }
                };
                if ix >= dst_st.len {
                    result = Err(RunError::OutOfBounds {
                        mem: self.compiled.syms().chip_name(dst).to_string(),
                        index: ix as i64,
                        len: dst_st.len,
                    });
                    break 'iters;
                }
                let slot = &mut self.words[dst_st.woff + ix];
                if accumulate {
                    *slot += val;
                } else {
                    *slot = val;
                }
                swrites += 1;
                if dst_shuffle {
                    c.shuffles += 1;
                }
                v += fstep;
            }
            self.fuel = fuel;
            if result.is_ok() {
                self.node_stack.pop();
            }
        }
        self.dense.node_trips[id] += trips;
        self.dense.sram_reads += c.sram_reads;
        self.dense.sram_writes += swrites;
        self.dense.shuffle_accesses += c.shuffles;
        self.dense.alu_ops += c.alu_ops;
        if let Err(e) = result {
            return Some(Err(e));
        }
        self.env[var] = saved;
        Some(Ok(end))
    }
}
