//! Straight-line op dispatch, operand fetch, and the postfix
//! expression interpreter — everything a superinstruction's body span
//! executes besides its nested loops. A statement operand is a literal,
//! a variable or an expression program; expressions evaluate on a value
//! stack with the top cached in a register, the common memory-reading
//! shapes as single fused eops. Nothing here recurses.

use super::exec::index_of;
use super::{Machine, RunError};
use crate::bytecode::{CompiledProgram, EOp, Op, Operand};

impl Machine {
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
            _ => unreachable!("loop or Halt in straight-line position"),
        }
    }

    /// Fetches a statement operand: leaves inline, expression programs
    /// through the postfix interpreter.
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
            Operand::Expr(e) => self.eval_ops(prog, e),
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
}
