//! The loop executors: every loop is a `RangeSimple` or `Scan2Simple`
//! superinstruction that runs natively — no per-iteration dispatch of
//! loop control — steps its body span once per iteration, and hands
//! eligible bodies to the vector tier. A program is one body span, so
//! [`Machine::run_simple_body`] is also the engine's entry; it recurses
//! once per nested loop, as deep as the program's loop nesting.

use super::budget::{check_interrupts, exhausted_fuel, INTERRUPT_MASK};
use super::vector_tier::ScanCursor;
use super::{ChipTag, Machine, RunError};
use crate::bytecode::{CompiledProgram, Op, OpId, Operand, VecClass};
use crate::ir::ScanOp;
use crate::resolve::Slot;
use crate::vector;

/// Fewest trips a [`VecClass::Reduce`] loop needs before resolving its
/// lane program pays for itself; shorter loops run scalar. (Under a
/// [`VecClass::SegReduce`] row loop the inner loop never enters on its
/// own, so the one-nonzero rows of a circuit matrix stream with the
/// rest.)
const MIN_REDUCE_TRIPS: u64 = 2;

/// Fewest combined positions a [`VecClass::Scan`] snapshot needs before
/// resolving its lane statements pays for itself; most inner scans of
/// a sparse intersection emit at most once and run scalar.
const MIN_SCAN_EMITS: u64 = 2;

impl Machine {
    /// Runs a `Range` loop natively: bounds evaluated once, the body
    /// span stepped per iteration, the optional reduction folded — no
    /// per-iteration dispatch of loop control.
    #[allow(clippy::too_many_arguments)]
    fn run_range_simple(
        &mut self,
        prog: &CompiledProgram,
        id: usize,
        var: Slot,
        min: Operand,
        max: Operand,
        step: i64,
        body: OpId,
        body_len: u32,
        reduce: Option<(Slot, Operand)>,
    ) -> Result<usize, RunError> {
        let mut acc = self.read_reduce_acc(reduce.map(|(reg, _)| reg))?;
        let lo = self.operand_value(prog, min)?;
        let hi = self.operand_value(prog, max)?;
        debug_assert!(step > 0, "non-positive loop step");
        let var = var as usize;
        let saved = self.env[var];
        let ops = prog.ops();
        let end = (body + body_len) as usize;
        let fstep = step as f64;
        let mut v = lo;
        // The lowering pass tags each RangeSimple with its
        // vector-eligibility class; the op sits immediately before its
        // body, so its own pc is `body - 1`.
        let vclass = if self.vector_enabled {
            prog.vec_class(body as usize - 1)
        } else {
            VecClass::None
        };
        // Trip/fold counts accumulate in registers and flush to the
        // dense counters on every exit path — including errors — so the
        // observable statistics are identical to per-iteration bumping.
        let mut trips = 0u64;
        let mut folds = 0u64;
        let mut result: Result<(), RunError> = Ok(());
        // Single-op bodies get a dedicated loop: the body op is
        // loop-invariant, so its dispatch is hoisted out of the
        // iteration entirely.
        if body_len == 1 && reduce.is_none() {
            let op = &ops[body as usize];
            if !matches!(op, Op::RangeSimple { .. } | Op::Scan2Simple { .. }) {
                if v < hi {
                    self.node_stack.push(id);
                    // Fuel mirrors in a register like the trip counter
                    // and flushes on every exit path; the single-op
                    // body cannot consume fuel itself (no nested loop).
                    let mut fuel = self.fuel;
                    let interrupts = self.interrupts;
                    while v < hi {
                        if fuel == 0 {
                            result = Err(exhausted_fuel(self.fuel_cause, self.step_limit));
                            break;
                        }
                        fuel -= 1;
                        if interrupts && fuel & INTERRUPT_MASK == 0 {
                            if let Err(e) = check_interrupts(
                                self.deadline_at,
                                self.deadline_ms(),
                                self.budget.cancel.as_ref(),
                            ) {
                                result = Err(e);
                                break;
                            }
                        }
                        self.env[var] = Some(v);
                        trips += 1;
                        if let Err(e) = self.exec_simple_op(prog, op) {
                            result = Err(e);
                            break;
                        }
                        v += fstep;
                    }
                    self.fuel = fuel;
                    if result.is_ok() {
                        self.node_stack.pop();
                    }
                }
                self.dense.node_trips[id] += trips;
                result?;
                self.env[var] = saved;
                return Ok(end);
            }
        }
        // Reduce loops the analysis gave a lane program run chunk by
        // chunk inside the generic loop below, once the program
        // resolves against the loop-entry state; row loops given row
        // programs run block by block once their plan resolves. Each
        // plan box goes back to the pool on every exit below.
        let mut lanes = match vclass {
            VecClass::Reduce(at) => match vector::unit_trips(lo, hi) {
                Some((base, total)) if total >= MIN_REDUCE_TRIPS => self
                    .resolve_plan(|m, plan| m.reduce_plan(prog, at, body, body_len, plan))
                    .map(|plan| (plan, base, total)),
                _ => None,
            },
            _ => None,
        };
        let seg = match vclass {
            VecClass::SegReduce(at) => vector::unit_trips(lo, hi).and_then(|(base, total)| {
                self.resolve_plan(|m, plan| m.seg_plan(prog, at, body, end, plan))
                    .map(|plan| (plan, base, total))
            }),
            _ => None,
        };
        if v < hi {
            self.node_stack.push(id);
            // Field-based fuel here: the body can contain nested
            // `RangeSimple` superinstructions that consume fuel
            // themselves, so a register mirror would go stale.
            'iters: while v < hi {
                if let Some((plan, base, total)) = &seg {
                    // Rows stop short of any row a check refuses, which
                    // the scalar iteration below then runs.
                    let n = self.seg_rows(plan, var, id, base + trips as usize, total - trips);
                    trips += n;
                    v += n as f64;
                    if v >= hi {
                        break 'iters;
                    }
                }
                if let Some((plan, base, total)) = &lanes {
                    // Chunks stop short of the next fuel or interrupt
                    // check, which the scalar iteration below then makes.
                    let burst = vector::burst(total - trips, self.fuel, self.interrupts);
                    let (n, faulted) =
                        self.reduce_chunks(plan, var, base + trips as usize, burst, &mut acc);
                    trips += n;
                    folds += n;
                    v += n as f64;
                    if faulted {
                        // The scalar loop takes over and raises the
                        // fault at its iteration.
                        if let Some((plan, ..)) = lanes.take() {
                            self.give_plan(plan);
                        }
                    } else if v >= hi {
                        break 'iters;
                    }
                }
                if let Err(e) = self.charge_step() {
                    result = Err(e);
                    break 'iters;
                }
                self.env[var] = Some(v);
                trips += 1;
                if let Err(e) = self.run_simple_body(prog, body, end) {
                    result = Err(e);
                    break 'iters;
                }
                if let Some((_, expr)) = reduce {
                    match self.operand_value(prog, expr) {
                        Ok(x) => {
                            folds += 1; // reduce_elems and the tree-add
                            acc += x;
                        }
                        Err(e) => {
                            result = Err(e);
                            break 'iters;
                        }
                    }
                }
                v += fstep;
            }
            if result.is_ok() {
                self.node_stack.pop();
            }
        }
        if let Some((plan, ..)) = lanes {
            self.give_plan(plan);
        }
        if let Some((plan, ..)) = seg {
            self.give_plan(plan);
        }
        self.dense.node_trips[id] += trips;
        if folds > 0 {
            self.dense.reduce_elems += folds;
            self.dense.alu_ops += folds;
        }
        result?;
        self.env[var] = saved;
        self.write_reduce_acc(reduce.map(|(reg, _)| reg), acc);
        Ok(end)
    }

    /// Steps the body span `[body, end)` once: straight-line ops
    /// dispatch directly, nested superinstructions run their own loops
    /// and their body spans are skipped here.
    pub(super) fn run_simple_body(
        &mut self,
        prog: &CompiledProgram,
        body: OpId,
        end: usize,
    ) -> Result<(), RunError> {
        let ops = prog.ops();
        let mut i = body as usize;
        while i < end {
            match &ops[i] {
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
                    i = self.run_range_simple(
                        prog, *id, *var, *min, *max, *step, *body, *body_len, *reduce,
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
                    i = self.run_scan2_simple(
                        prog, *id, *op, *bv_a, *bv_b, *vars, *body, *body_len, *reduce,
                    )?;
                }
                op => {
                    self.exec_simple_op(prog, op)?;
                    i += 1;
                }
            }
        }
        Ok(())
    }

    /// Runs a two-input co-iteration `Scan` loop natively: both vectors
    /// are snapshotted once, the combined bits emit, and the per-side
    /// position counters advance exactly as the reference walker's do —
    /// the emitting index advances its positions after the body.
    /// Emit/fold counts accumulate in registers and flush to the dense
    /// counters on every exit path — including errors — so the
    /// observable statistics are identical to per-emit bumping. Fuel
    /// stays field-based: the body can nest loops that consume fuel
    /// themselves.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn run_scan2_simple(
        &mut self,
        prog: &CompiledProgram,
        id: usize,
        op: ScanOp,
        bv_a: Slot,
        bv_b: Slot,
        vars: [Slot; 4],
        body: OpId,
        body_len: u32,
        reduce: Option<(Slot, Operand)>,
    ) -> Result<usize, RunError> {
        let mut acc = self.read_reduce_acc(reduce.map(|(reg, _)| reg))?;
        let depth = self.scan_depth;
        let dim = self.scan_snapshot2(bv_a, bv_b)?;
        let vars = vars.map(|v| v as usize);
        let saved = vars.map(|v| self.env[v]);
        let end = (body + body_len) as usize;
        // `emits` counts emit positions *reached* (bumped before the
        // step charge, like the reference walker); `trips` counts
        // charged steps.
        let mut emits = 0u64;
        let mut trips = 0u64;
        let mut folds = 0u64;
        let mut result: Result<(), RunError> = Ok(());
        let mut entered = false;
        let mut cur = ScanCursor::default();
        // Vector tier: skipped (non-combined) positions consume no fuel
        // and no statistics — only the side position counters advance —
        // so batching whole words with popcounts is observably
        // identical to probing one position at a time.
        let fast = self.vector_enabled;
        // Scan loops the analysis gave lane statements run chunk by
        // chunk inside the loop below, once the statements resolve
        // against the loop-entry state and the snapshot holds enough
        // emits. The scan op sits immediately before its body.
        // The plan box goes back to the pool on every exit below.
        let mut lanes = match prog.vec_class(body as usize - 1) {
            VecClass::Scan(at) if fast => {
                let total = self.scan_pool[depth].combined(op, dim);
                if total >= MIN_SCAN_EMITS {
                    self.resolve_plan(|m, plan| m.scan_plan(prog, at, plan))
                        .map(|plan| (plan, total))
                } else {
                    None
                }
            }
            _ => None,
        };
        'emits: while cur.idx < dim {
            if let Some((plan, total)) = &lanes {
                // Chunks stop short of the next fuel or interrupt
                // check, which the scalar emit below then makes.
                let burst = vector::burst(total - cur.emitted, self.fuel, self.interrupts);
                let (n, faulted) =
                    self.scan_chunks(plan, depth, op, dim, vars, &mut cur, burst, &mut acc);
                if n > 0 {
                    emits += n;
                    trips += n;
                    if reduce.is_some() {
                        folds += n;
                    }
                    if !entered {
                        entered = true;
                        self.node_stack.push(id);
                        self.scan_depth = depth + 1;
                    }
                }
                if faulted {
                    // The scalar loop takes over and raises the fault
                    // (or takes the slow path) at its emit.
                    if let Some((plan, _)) = lanes.take() {
                        self.give_plan(plan);
                    }
                } else if cur.idx >= dim {
                    break 'emits;
                }
            }
            if fast {
                let (next, askip, bskip) = self.scan_pool[depth].scan2_skip(op, cur.idx, dim);
                cur.ap += askip;
                cur.bp += bskip;
                cur.idx = next;
                if cur.idx >= dim {
                    break 'emits;
                }
            }
            let idx = cur.idx;
            let has_a = self.scan_pool[depth].a_set(idx);
            let has_b = self.scan_pool[depth].b_set(idx);
            let combined = match op {
                ScanOp::And => has_a && has_b,
                ScanOp::Or => has_a || has_b,
            };
            if !combined {
                cur.ap += u64::from(has_a);
                cur.bp += u64::from(has_b);
                cur.idx += 1;
                continue;
            }
            emits += 1;
            if let Err(e) = self.charge_step() {
                result = Err(e);
                break 'emits;
            }
            if !entered {
                entered = true;
                self.node_stack.push(id);
                self.scan_depth = depth + 1;
            }
            self.env[vars[0]] = Some(if has_a { cur.ap as f64 } else { -1.0 });
            self.env[vars[1]] = Some(if has_b { cur.bp as f64 } else { -1.0 });
            self.env[vars[2]] = Some(cur.emitted as f64);
            self.env[vars[3]] = Some(idx as f64);
            trips += 1;
            if let Err(e) = self.run_simple_body(prog, body, end) {
                result = Err(e);
                break 'emits;
            }
            if let Some((_, expr)) = reduce {
                match self.operand_value(prog, expr) {
                    Ok(x) => {
                        folds += 1; // reduce_elems and the tree-add
                        acc += x;
                    }
                    Err(e) => {
                        result = Err(e);
                        break 'emits;
                    }
                }
            }
            // The emitting index advances its positions after the
            // body, exactly as the reference walker does.
            cur.ap += u64::from(has_a);
            cur.bp += u64::from(has_b);
            cur.emitted += 1;
            cur.idx += 1;
        }
        if let Some((plan, _)) = lanes {
            self.give_plan(plan);
        }
        if entered && result.is_ok() {
            self.node_stack.pop();
            self.scan_depth = depth;
        }
        self.dense.scan_emits += emits;
        self.dense.node_trips[id] += trips;
        if folds > 0 {
            self.dense.reduce_elems += folds;
            self.dense.alu_ops += folds;
        }
        result?;
        for (v, old) in vars.iter().zip(saved) {
            self.env[*v] = old;
        }
        self.write_reduce_acc(reduce.map(|(reg, _)| reg), acc);
        Ok(end)
    }

    /// Reads the accumulator register at loop entry when the loop is a
    /// `Reduce` (the error ordering the reference walker has: a missing
    /// register is reported before the counter bounds are evaluated).
    fn read_reduce_acc(&self, reduce: Option<Slot>) -> Result<f64, RunError> {
        match reduce {
            None => Ok(0.0),
            Some(reg) => self.reg_value(reg),
        }
    }

    /// Writes the accumulator back at loop exit. Silently skips a slot
    /// that is no longer a register, as the reference walker does.
    fn write_reduce_acc(&mut self, reduce: Option<Slot>, acc: f64) {
        if let Some(reg) = reduce {
            let st = self.chip[reg as usize];
            if st.tag == ChipTag::Reg {
                self.words[st.woff] = acc;
            }
        }
    }
}
