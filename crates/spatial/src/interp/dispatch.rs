//! The bytecode dispatch loop: program counter, frame stack, operand
//! fetch, and the postfix expression interpreter.

use super::budget::charge_step_parts;
use super::exec::index_of;
use super::{ChipTag, Frame, FrameState, Machine, RunError};
use crate::bytecode::{CompiledProgram, EOp, FusedOp, GatherRef, Op, OpId, Operand};
use crate::ir::ScanOp;
use crate::resolve::Slot;

/// The bytecode dispatch engine: a program counter over the compiled
/// op vector, loop state in a dense frame stack, expressions evaluated
/// postfix on a value stack with the top cached in a register. No
/// recursion anywhere on the hot path (nested `RangeSimple`
/// superinstructions recurse to a constant depth bounded by
/// [`crate::bytecode::MAX_SIMPLE_RANK`]).
impl Machine {
    /// Executes the compiled op vector from the top.
    pub(super) fn run_ops(&mut self, prog: &CompiledProgram) -> Result<(), RunError> {
        self.frames.clear();
        self.vstack.clear();
        self.node_stack.clear();
        self.scan_depth = 0;
        let ops = prog.ops();
        let mut pc = 0usize;
        loop {
            match &ops[pc] {
                Op::Halt => return Ok(()),
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
                    pc = self.run_range_simple(
                        prog, *id, *var, *min, *max, *step, *body, *body_len, *reduce,
                    )?;
                }
                Op::Scan1Simple {
                    id,
                    bv,
                    pos_var,
                    idx_var,
                    body,
                    body_len,
                    reduce,
                } => {
                    pc = self.run_scan1_simple(
                        prog, *id, *bv, *pos_var, *idx_var, *body, *body_len, *reduce,
                    )?;
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
                    pc = self.run_scan2_simple(
                        prog, *id, *op, *bv_a, *bv_b, *vars, *body, *body_len, *reduce,
                    )?;
                }
                Op::EnterRange {
                    id,
                    var,
                    min,
                    max,
                    step,
                    reduce,
                    exit,
                } => {
                    pc =
                        self.enter_range(prog, pc, *id, *var, *min, *max, *step, *reduce, *exit)?;
                }
                Op::EnterScan1 {
                    id,
                    bv,
                    pos_var,
                    idx_var,
                    reduce,
                    exit,
                } => {
                    pc = self.enter_scan1(pc, *id, *bv, *pos_var, *idx_var, *reduce, *exit)?;
                }
                Op::EnterScan2 {
                    id,
                    op,
                    bv_a,
                    bv_b,
                    vars,
                    reduce,
                    exit,
                } => {
                    pc = self.enter_scan2(pc, *id, *op, *bv_a, *bv_b, *vars, *reduce, *exit)?;
                }
                Op::ReduceTail { expr } => {
                    let v = self.operand_value(prog, *expr)?;
                    self.dense.reduce_elems += 1;
                    self.dense.alu_ops += 1; // the tree-add
                    self.frames.last_mut().expect("reduce frame").acc += v;
                    pc += 1;
                }
                Op::Next { body } => {
                    pc = self.loop_next(*body, pc)?;
                }
                op => {
                    self.exec_simple_op(prog, op)?;
                    pc += 1;
                }
            }
        }
    }

    /// Executes one straight-line op (everything except loop control).
    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    pub(super) fn exec_simple_op(
        &mut self,
        prog: &CompiledProgram,
        op: &Op,
    ) -> Result<(), RunError> {
        match op {
            Op::Alloc { slot, kind, size } => self.do_alloc(*slot, *kind, *size),
            Op::Bind { var, value } => {
                let v = self.operand_value(prog, *value)?;
                self.env[*var as usize] = Some(v);
                Ok(())
            }
            Op::Load {
                dst,
                src,
                start,
                end,
            } => {
                let s = self.operand_value(prog, *start)?;
                let e = self.operand_value(prog, *end)?;
                self.do_load(*dst, *src, s, e)
            }
            Op::Store {
                dst,
                offset,
                src,
                len,
            } => {
                let off = self.operand_value(prog, *offset)?;
                let off = index_of(off, || "store offset".to_string())?;
                let n = self.operand_value(prog, *len)?;
                let n = index_of(n, || "store len".to_string())?;
                self.do_store(*dst, off, *src, n)
            }
            Op::StreamStore {
                dst,
                offset,
                fifo,
                len,
            } => {
                let off = self.operand_value(prog, *offset)?;
                let off = index_of(off, || "stream store offset".to_string())?;
                let n = self.operand_value(prog, *len)?;
                let n = index_of(n, || "stream store len".to_string())?;
                self.do_stream_store(*dst, off, *fifo, n)
            }
            Op::StoreScalar { dst, index, value } => {
                let ix = self.operand_value(prog, *index)?;
                let ix = index_of(ix, || "scalar store index".to_string())?;
                let v = self.operand_value(prog, *value)?;
                self.do_store_scalar(*dst, ix, v)
            }
            Op::WriteMem {
                mem,
                index,
                value,
                random,
            } => {
                let ix = self.operand_value(prog, *index)?;
                let ix = index_of(ix, || self.compiled.syms().chip_name(*mem).to_string())?;
                let v = self.operand_value(prog, *value)?;
                self.write_on_chip(*mem, ix, v, *random, false)
            }
            Op::RmwAdd { mem, index, value } => {
                let ix = self.operand_value(prog, *index)?;
                let ix = index_of(ix, || self.compiled.syms().chip_name(*mem).to_string())?;
                let v = self.operand_value(prog, *value)?;
                self.write_on_chip(*mem, ix, v, true, true)
            }
            Op::SetReg { reg, value } => {
                let v = self.operand_value(prog, *value)?;
                self.do_set_reg(*reg, v)
            }
            Op::Enq { fifo, value } => {
                let v = self.operand_value(prog, *value)?;
                self.do_enq(*fifo, v)
            }
            Op::GenBitVector {
                dst,
                src,
                src_start,
                count,
                dim,
            } => {
                let n = self.operand_value(prog, *count)?;
                let n = index_of(n, || "genbv count".to_string())?;
                let d = self.operand_value(prog, *dim)?;
                let d = index_of(d, || "genbv dim".to_string())?;
                let s = self.operand_value(prog, *src_start)?;
                let s = index_of(s, || "genbv start".to_string())?;
                self.do_gen_bit_vector(*dst, *src, s, n, d)
            }
            _ => unreachable!("loop-control op in straight-line position"),
        }
    }

    /// Fetches a statement operand: immediates inline, fused compound
    /// shapes from the side table, expression programs through the
    /// postfix interpreter.
    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    pub(super) fn operand_value(
        &mut self,
        prog: &CompiledProgram,
        o: Operand,
    ) -> Result<f64, RunError> {
        match o {
            Operand::Const(c) => Ok(c),
            Operand::Var(v) => match self.env[v as usize] {
                Some(x) => Ok(x),
                None => Err(RunError::UnboundVar(
                    self.compiled.syms().var_name(v).to_string(),
                )),
            },
            Operand::Gather {
                chip,
                dram,
                random,
                var,
            } => {
                let ix = match self.env[var as usize] {
                    Some(x) => x,
                    None => {
                        return Err(RunError::UnboundVar(
                            self.compiled.syms().var_name(var).to_string(),
                        ));
                    }
                };
                self.read_mem_value(chip, dram, ix, random)
            }
            Operand::Fused(i) => self.fused_value(&prog.fused()[i as usize]),
            Operand::Expr(e) => self.eval_ops(prog, e),
        }
    }

    /// Reads one `mem[env[var]]` reference of a fused shape.
    #[inline(always)]
    fn gather_value(&mut self, g: GatherRef) -> Result<f64, RunError> {
        let ix = match self.env[g.var as usize] {
            Some(x) => x,
            None => {
                return Err(RunError::UnboundVar(
                    self.compiled.syms().var_name(g.var).to_string(),
                ));
            }
        };
        self.read_mem_value(g.chip, g.dram, ix, g.random)
    }

    /// Evaluates a fused compound operand, reproducing the unfused
    /// evaluation order (stats and error identity included) exactly.
    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    fn fused_value(&mut self, f: &FusedOp) -> Result<f64, RunError> {
        match *f {
            FusedOp::GatherOffset { mem, c, op } => {
                let x = match self.env[mem.var as usize] {
                    Some(x) => x,
                    None => {
                        return Err(RunError::UnboundVar(
                            self.compiled.syms().var_name(mem.var).to_string(),
                        ));
                    }
                };
                self.dense.alu_ops += 1;
                let ix = op.apply(x, c).ok_or(RunError::DivisionByZero)?;
                self.read_mem_value(mem.chip, mem.dram, ix, mem.random)
            }
            FusedOp::BinGather { a, op, mem } => {
                let x = match self.env[a as usize] {
                    Some(x) => x,
                    None => {
                        return Err(RunError::UnboundVar(
                            self.compiled.syms().var_name(a).to_string(),
                        ));
                    }
                };
                let v = self.gather_value(mem)?;
                self.dense.alu_ops += 1;
                op.apply(x, v).ok_or(RunError::DivisionByZero)
            }
            FusedOp::BinGatherInd {
                lhs,
                op,
                inner,
                outer,
            } => {
                let l = self.gather_value(lhs)?;
                let ix = self.gather_value(inner)?;
                let r = self.read_mem_value(outer.chip, outer.dram, ix, outer.random)?;
                self.dense.alu_ops += 1;
                op.apply(l, r).ok_or(RunError::DivisionByZero)
            }
        }
    }

    /// Evaluates one postfix expression program starting at `start`.
    ///
    /// ALU-op counts are accumulated in a register and flushed to the
    /// dense counters on every exit path (including errors), so the
    /// observable statistics are identical to per-op bumping.
    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    fn eval_ops(&mut self, prog: &CompiledProgram, start: u32) -> Result<f64, RunError> {
        let mut alu = 0u64;
        let r = self.eval_ops_inner(prog, start, &mut alu);
        self.dense.alu_ops += alu;
        r
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    fn eval_ops_inner(
        &mut self,
        prog: &CompiledProgram,
        start: u32,
        alu: &mut u64,
    ) -> Result<f64, RunError> {
        // Top-of-stack caching: the logical stack top lives in `tos`;
        // `vstack` holds everything below it (plus one junk word from
        // the first push, discarded by the truncate at `End`). Ops with
        // one input and one output never touch the memory stack.
        let base = self.vstack.len();
        let mut tos = 0.0f64;
        let eops = prog.eops();
        let mut pc = start as usize;
        loop {
            match eops[pc] {
                EOp::Const(c) => {
                    self.vstack.push(tos);
                    tos = c;
                    pc += 1;
                }
                EOp::Var(v) => match self.env[v as usize] {
                    Some(x) => {
                        self.vstack.push(tos);
                        tos = x;
                        pc += 1;
                    }
                    None => {
                        return Err(RunError::UnboundVar(
                            self.compiled.syms().var_name(v).to_string(),
                        ));
                    }
                },
                EOp::RegRead(r) => {
                    let v = self.reg_value(r)?;
                    self.vstack.push(tos);
                    tos = v;
                    pc += 1;
                }
                EOp::Deq(f) => {
                    let v = self.deq_value(f)?;
                    self.vstack.push(tos);
                    tos = v;
                    pc += 1;
                }
                EOp::ReadMem { chip, dram, random } => {
                    tos = self.read_mem_value(chip, dram, tos, random)?;
                    pc += 1;
                }
                EOp::Neg => {
                    *alu += 1;
                    tos = -tos;
                    pc += 1;
                }
                EOp::Binary(op) => {
                    let a = self.vstack.pop().expect("lhs on stack");
                    *alu += 1;
                    tos = op.apply(a, tos).ok_or(RunError::DivisionByZero)?;
                    pc += 1;
                }
                EOp::VarReadMem {
                    chip,
                    dram,
                    random,
                    var,
                } => {
                    let ix = match self.env[var as usize] {
                        Some(x) => x,
                        None => {
                            return Err(RunError::UnboundVar(
                                self.compiled.syms().var_name(var).to_string(),
                            ));
                        }
                    };
                    let v = self.read_mem_value(chip, dram, ix, random)?;
                    self.vstack.push(tos);
                    tos = v;
                    pc += 1;
                }
                EOp::VarBinGather {
                    a,
                    op,
                    chip,
                    dram,
                    random,
                    ivar,
                } => {
                    let x = match self.env[a as usize] {
                        Some(x) => x,
                        None => {
                            return Err(RunError::UnboundVar(
                                self.compiled.syms().var_name(a).to_string(),
                            ));
                        }
                    };
                    let ix = match self.env[ivar as usize] {
                        Some(x) => x,
                        None => {
                            return Err(RunError::UnboundVar(
                                self.compiled.syms().var_name(ivar).to_string(),
                            ));
                        }
                    };
                    let v = self.read_mem_value(chip, dram, ix, random)?;
                    *alu += 1;
                    self.vstack.push(tos);
                    tos = op.apply(x, v).ok_or(RunError::DivisionByZero)?;
                    pc += 1;
                }
                EOp::VarConstBin { var, c, op } => {
                    let a = match self.env[var as usize] {
                        Some(x) => x,
                        None => {
                            return Err(RunError::UnboundVar(
                                self.compiled.syms().var_name(var).to_string(),
                            ));
                        }
                    };
                    *alu += 1;
                    self.vstack.push(tos);
                    tos = op.apply(a, c).ok_or(RunError::DivisionByZero)?;
                    pc += 1;
                }
                EOp::BranchFalse { target } => {
                    let c = tos;
                    tos = self.vstack.pop().expect("stack below condition");
                    *alu += 1;
                    // Both sides are wires in hardware; evaluating only
                    // the taken side mirrors the reference walker's mux and
                    // avoids spurious OOB on the masked side.
                    pc = if c != 0.0 { pc + 1 } else { target as usize };
                }
                EOp::Jump { target } => pc = target as usize,
                EOp::End => {
                    self.vstack.truncate(base);
                    return Ok(tos);
                }
            }
        }
    }

    /// Reads the accumulator register at loop entry when the loop is a
    /// `Reduce` (the error ordering the reference walker has: a missing
    /// register is reported before the counter bounds are evaluated).
    pub(super) fn read_reduce_acc(&self, reduce: Option<Slot>) -> Result<f64, RunError> {
        match reduce {
            None => Ok(0.0),
            Some(reg) => self.reg_value(reg),
        }
    }

    /// Writes the accumulator back at loop exit. Silently skips a slot
    /// that is no longer a register, as the reference walker does.
    pub(super) fn write_reduce_acc(&mut self, reduce: Option<Slot>, acc: f64) {
        if let Some(reg) = reduce {
            let st = self.chip[reg as usize];
            if st.tag == ChipTag::Reg {
                self.words[st.woff] = acc;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enter_range(
        &mut self,
        prog: &CompiledProgram,
        pc: usize,
        id: usize,
        var: Slot,
        min: Operand,
        max: Operand,
        step: i64,
        reduce: Option<Slot>,
        exit: OpId,
    ) -> Result<usize, RunError> {
        let acc = self.read_reduce_acc(reduce)?;
        let lo = self.operand_value(prog, min)?;
        let hi = self.operand_value(prog, max)?;
        debug_assert!(step > 0, "non-positive loop step");
        let saved = self.env[var as usize];
        if lo < hi {
            self.charge_step()?;
            self.env[var as usize] = Some(lo);
            self.dense.node_trips[id] += 1;
            self.frames.push(Frame {
                node: id,
                reduce,
                acc,
                state: FrameState::Range {
                    var,
                    saved,
                    v: lo,
                    hi,
                    step: step as f64,
                },
            });
            Ok(pc + 1)
        } else {
            self.write_reduce_acc(reduce, acc);
            Ok(exit as usize)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enter_scan1(
        &mut self,
        pc: usize,
        id: usize,
        bv: Slot,
        pos_var: Slot,
        idx_var: Slot,
        reduce: Option<Slot>,
        exit: OpId,
    ) -> Result<usize, RunError> {
        let acc = self.read_reduce_acc(reduce)?;
        let depth = self.scan_depth;
        let dim = self.scan_snapshot1(bv)?;
        let saved = [self.env[pos_var as usize], self.env[idx_var as usize]];
        let mut idx = 0usize;
        while idx < dim && !self.scan_pool[depth].a_set(idx) {
            idx += 1;
        }
        if idx < dim {
            // `scan_emits` counts the emit position being *reached* —
            // even when the step charge then aborts — while
            // `node_trips` counts charged steps, matching the reference
            // walker exactly.
            self.dense.scan_emits += 1;
            self.charge_step()?;
            self.scan_depth = depth + 1;
            self.env[pos_var as usize] = Some(0.0);
            self.env[idx_var as usize] = Some(idx as f64);
            self.dense.node_trips[id] += 1;
            self.frames.push(Frame {
                node: id,
                reduce,
                acc,
                state: FrameState::Scan1 {
                    depth,
                    dim,
                    idx,
                    pos: 0,
                    pos_var,
                    idx_var,
                    saved,
                },
            });
            Ok(pc + 1)
        } else {
            self.write_reduce_acc(reduce, acc);
            Ok(exit as usize)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enter_scan2(
        &mut self,
        pc: usize,
        id: usize,
        op: ScanOp,
        bv_a: Slot,
        bv_b: Slot,
        vars: [Slot; 4],
        reduce: Option<Slot>,
        exit: OpId,
    ) -> Result<usize, RunError> {
        let acc = self.read_reduce_acc(reduce)?;
        let depth = self.scan_depth;
        let dim = self.scan_snapshot2(bv_a, bv_b)?;
        let saved = vars.map(|v| self.env[v as usize]);
        let (mut idx, mut ap, mut bp) = (0usize, 0u64, 0u64);
        while idx < dim {
            let has_a = self.scan_pool[depth].a_set(idx);
            let has_b = self.scan_pool[depth].b_set(idx);
            let combined = match op {
                ScanOp::And => has_a && has_b,
                ScanOp::Or => has_a || has_b,
            };
            if combined {
                // Emit reached before the charge; trip after (see
                // [`Machine::enter_scan1`]).
                self.dense.scan_emits += 1;
                self.charge_step()?;
                self.scan_depth = depth + 1;
                self.env[vars[0] as usize] = Some(if has_a { ap as f64 } else { -1.0 });
                self.env[vars[1] as usize] = Some(if has_b { bp as f64 } else { -1.0 });
                self.env[vars[2] as usize] = Some(0.0);
                self.env[vars[3] as usize] = Some(idx as f64);
                self.dense.node_trips[id] += 1;
                self.frames.push(Frame {
                    node: id,
                    reduce,
                    acc,
                    state: FrameState::Scan2 {
                        depth,
                        dim,
                        idx,
                        ap,
                        bp,
                        emitted: 0,
                        op,
                        vars,
                        saved,
                    },
                });
                return Ok(pc + 1);
            }
            if has_a {
                ap += 1;
            }
            if has_b {
                bp += 1;
            }
            idx += 1;
        }
        self.write_reduce_acc(reduce, acc);
        Ok(exit as usize)
    }

    /// Advances the innermost loop frame: returns the body pc for the
    /// next iteration (charging one fuel step per continuation), or
    /// pops the frame (restoring loop variables and writing back a
    /// reduction) and returns the fall-through pc.
    fn loop_next(&mut self, body: OpId, pc: usize) -> Result<usize, RunError> {
        let deadline_ms = self.deadline_ms();
        let Machine {
            frames,
            env,
            dense,
            scan_pool,
            scan_depth,
            chip,
            words,
            fuel,
            fuel_cause,
            step_limit,
            interrupts,
            deadline_at,
            budget,
            ..
        } = self;
        let (cause, limit, intr, dl) = (*fuel_cause, *step_limit, *interrupts, *deadline_at);
        let cancel = budget.cancel.as_ref();
        let frame = frames.last_mut().expect("active frame");
        match &mut frame.state {
            FrameState::Range {
                var, v, hi, step, ..
            } => {
                *v += *step;
                if *v < *hi {
                    charge_step_parts(fuel, cause, limit, intr, dl, deadline_ms, cancel)?;
                    env[*var as usize] = Some(*v);
                    dense.node_trips[frame.node] += 1;
                    return Ok(body as usize);
                }
            }
            FrameState::Scan1 {
                depth,
                dim,
                idx,
                pos,
                pos_var,
                idx_var,
                ..
            } => {
                let buf = &scan_pool[*depth];
                *pos += 1;
                *idx += 1;
                while *idx < *dim && !buf.a_set(*idx) {
                    *idx += 1;
                }
                if *idx < *dim {
                    // Emit reached before the charge; trip after (see
                    // [`Machine::enter_scan1`]).
                    dense.scan_emits += 1;
                    charge_step_parts(fuel, cause, limit, intr, dl, deadline_ms, cancel)?;
                    env[*pos_var as usize] = Some(*pos as f64);
                    env[*idx_var as usize] = Some(*idx as f64);
                    dense.node_trips[frame.node] += 1;
                    return Ok(body as usize);
                }
            }
            FrameState::Scan2 {
                depth,
                dim,
                idx,
                ap,
                bp,
                emitted,
                op,
                vars,
                ..
            } => {
                let buf = &scan_pool[*depth];
                // The emitting index advances its positions after the
                // body, exactly as the reference walker does.
                if buf.a_set(*idx) {
                    *ap += 1;
                }
                if buf.b_set(*idx) {
                    *bp += 1;
                }
                *emitted += 1;
                *idx += 1;
                while *idx < *dim {
                    let has_a = buf.a_set(*idx);
                    let has_b = buf.b_set(*idx);
                    let combined = match op {
                        ScanOp::And => has_a && has_b,
                        ScanOp::Or => has_a || has_b,
                    };
                    if combined {
                        // Emit reached before the charge; trip after
                        // (see [`Machine::enter_scan1`]).
                        dense.scan_emits += 1;
                        charge_step_parts(fuel, cause, limit, intr, dl, deadline_ms, cancel)?;
                        env[vars[0] as usize] = Some(if has_a { *ap as f64 } else { -1.0 });
                        env[vars[1] as usize] = Some(if has_b { *bp as f64 } else { -1.0 });
                        env[vars[2] as usize] = Some(*emitted as f64);
                        env[vars[3] as usize] = Some(*idx as f64);
                        dense.node_trips[frame.node] += 1;
                        return Ok(body as usize);
                    }
                    if has_a {
                        *ap += 1;
                    }
                    if has_b {
                        *bp += 1;
                    }
                    *idx += 1;
                }
            }
        }
        // Loop finished: restore the counter-bound variables, release
        // the scan snapshot depth, write back a reduction accumulator.
        let frame = frames.pop().expect("active frame");
        match frame.state {
            FrameState::Range { var, saved, .. } => env[var as usize] = saved,
            FrameState::Scan1 {
                depth,
                pos_var,
                idx_var,
                saved,
                ..
            } => {
                *scan_depth = depth;
                env[pos_var as usize] = saved[0];
                env[idx_var as usize] = saved[1];
            }
            FrameState::Scan2 {
                depth, vars, saved, ..
            } => {
                *scan_depth = depth;
                for (v, old) in vars.iter().zip(saved) {
                    env[*v as usize] = old;
                }
            }
        }
        if let Some(reg) = frame.reduce {
            let st = chip[reg as usize];
            if st.tag == ChipTag::Reg {
                words[st.woff] = frame.acc;
            }
        }
        Ok(pc + 1)
    }
}
