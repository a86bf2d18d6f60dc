//! The vector tier: the lane-program chunks of reduce loops, two-input
//! scans and segmented row loops over [`vector::REDUCE_LANES`] lanes —
//! one lane evaluator for all three — each falling back to the scalar
//! step at every boundary the scalar loop would observe.

use super::exec::{fifo_drop, fifo_extend, fifo_push, fifo_reserve, fifo_runs};
use super::image::{dram_words, dram_words_mut};
use super::{ChipTag, Machine, ScanBuf};
use crate::bytecode::{CompiledProgram, EOp, LaneOp, LaneRef, Op, OpId, Operand, VecClass};
use crate::ir::{BinSOp, MemKind, ScanOp};
use crate::resolve::Slot;
use crate::vector;

const CHUNK: usize = vector::REDUCE_LANES;

/// The lane buffers of [`crate::VecClass::Reduce`],
/// [`crate::VecClass::Scan`] and [`crate::VecClass::SegReduce`] chunks:
/// the stack a lane program evaluates on, one chunk of scan emits, a
/// scan chunk's per-statement values, a block of rows' columns, and one
/// chunk of a row loop's nonzeros.
#[derive(Debug, Clone)]
pub(super) struct LaneScratch {
    stack: [[f64; CHUNK]; vector::MAX_LANE_DEPTH],
    /// `[a_pos, b_pos, out_pos, idx]` of each emit of a scan chunk.
    scan: [[f64; CHUNK]; 4],
    /// Each lane statement's values over a scan chunk.
    vals: [[f64; CHUNK]; vector::MAX_LANE_STMTS],
    /// Each row column over a block of rows.
    cols: [[f64; CHUNK]; vector::MAX_SEG_COLS],
    /// The inner loop variable, then each FIFO head, over a chunk of a
    /// row loop's nonzeros.
    seg: [[f64; CHUNK]; 1 + vector::MAX_LANE_HEADS],
}

impl LaneScratch {
    fn boxed() -> Box<LaneScratch> {
        Box::new(LaneScratch {
            stack: [[0.0; CHUNK]; vector::MAX_LANE_DEPTH],
            scan: [[0.0; CHUNK]; 4],
            vals: [[0.0; CHUNK]; vector::MAX_LANE_STMTS],
            cols: [[0.0; CHUNK]; vector::MAX_SEG_COLS],
            seg: [[0.0; CHUNK]; 1 + vector::MAX_LANE_HEADS],
        })
    }
}

/// Copies the `n` words at `from` into the first `n` lanes — a
/// fixed-width copy for a full chunk.
#[inline(always)]
fn window(lane: &mut [f64; CHUNK], words: &[f64], from: usize, n: usize) {
    if n == CHUNK {
        lane.copy_from_slice(&words[from..from + CHUNK]);
    } else {
        lane[..n].copy_from_slice(&words[from..from + n]);
    }
}

/// One op of a [`LanePlan`]: a [`LaneOp`] resolved against the
/// loop-entry state.
#[derive(Debug, Clone, Copy)]
enum PlanOp {
    /// A loop-invariant value in every lane.
    Splat(f64),
    /// The loop variable.
    Iota,
    /// The window at the head of the plan's `k`-th FIFO.
    Head(usize),
    /// The scan variable `k` of each emit.
    ScanVar(usize),
    /// Row column `k` of each row.
    Col(usize),
    /// Nonzero lane `k` of a row loop: the inner loop variable (0) or
    /// FIFO head `k - 1` of each nonzero.
    Seg(usize),
    /// `mem[v]` over the loop variable: one contiguous window.
    Stream {
        woff: usize,
        len: usize,
    },
    /// `mem[top]`: replaces the top lane by the words it indexes.
    Gather {
        woff: usize,
        len: usize,
    },
    /// `mux(p + 1, mem[p], 0)` over the scan position of `side`.
    Guarded {
        side: usize,
        woff: usize,
        len: usize,
    },
    Neg,
    Bin(BinSOp),
}

/// One lane program resolved once per loop entry (see
/// [`Machine::lane_plan`]), with the per-iteration statistics every
/// chunk charges `n` times — and, for guarded reads, once per lane
/// where their side is present.
#[derive(Debug, Clone, Copy)]
struct LanePlan {
    ops: [PlanOp; vector::MAX_LANE_OPS],
    n_ops: usize,
    reads: u64,
    shuffles: u64,
    alu: u64,
    /// `(reads, shuffles)` per lane where side `a` (`b`) is present.
    guarded: [(u64, u64); 2],
}

impl LanePlan {
    const EMPTY: LanePlan = LanePlan {
        ops: [PlanOp::Iota; vector::MAX_LANE_OPS],
        n_ops: 0,
        reads: 0,
        shuffles: 0,
        alu: 0,
        guarded: [(0, 0); 2],
    };

    /// Empties the plan for [`Machine::lane_plan`] to refill: only the
    /// op count and the counters, never the ops.
    fn clear(&mut self) {
        self.n_ops = 0;
        self.reads = 0;
        self.shuffles = 0;
        self.alu = 0;
        self.guarded = [(0, 0); 2];
    }

    fn push_op(&mut self, op: PlanOp) {
        self.ops[self.n_ops] = op;
        self.n_ops += 1;
    }

    /// Pushes a leaf: a new lane-stack entry, a splat iff `op` is one.
    fn push(&mut self, op: PlanOp, splat: &mut [bool], sp: &mut usize) {
        splat[*sp] = matches!(op, PlanOp::Splat(_));
        *sp += 1;
        self.push_op(op);
    }

    /// The statistics of `n` lanes, `present` of which hold each side.
    fn charge(&self, stats: &mut super::DenseStats, n: u64, present: [u64; 2]) {
        let [(ra, sa), (rb, sb)] = self.guarded;
        stats.sram_reads += self.reads * n + ra * present[0] + rb * present[1];
        stats.shuffle_accesses += self.shuffles * n + sa * present[0] + sb * present[1];
        stats.alu_ops += self.alu * n;
    }
}

/// A [`crate::VecClass::Reduce`] loop's lane program and FIFO heads,
/// resolved once per loop entry (see [`Machine::reduce_plan`]).
#[derive(Debug, Clone)]
pub(super) struct ReducePlan {
    lanes: LanePlan,
    /// `(fifo, bound variable)` of each `Bind x = fifo.deq` in the body.
    heads: [(Slot, Slot); vector::MAX_LANE_HEADS],
    n_heads: usize,
}

/// Where a [`crate::VecClass::Scan`] lane statement's values go, its
/// slots resolved to arena offsets.
#[derive(Debug, Clone, Copy)]
enum ScanSink {
    Fold,
    AddReg { woff: usize },
    Enq(Slot),
    Store { dst: Slot, ctr: usize, len: usize },
    Count { ctr: usize },
}

/// A [`crate::VecClass::Scan`] loop's lane statements, resolved once
/// per loop entry (see [`Machine::scan_plan`]).
#[derive(Debug, Clone)]
pub(super) struct ScanPlan {
    stmts: [(LanePlan, ScanSink); vector::MAX_LANE_STMTS],
    n_stmts: usize,
    /// Whether any statement enqueues. The classifier gives each `Enq`
    /// its own FIFO, so a chunk's pushes commit FIFO by FIFO unless a
    /// ring must grow.
    enqueues: bool,
    /// `Store` statements: DRAM words one lane writes.
    stores: u64,
}

/// The two-input scan's iteration state between emits: the next dense
/// index to probe, the `a`/`b` bits before it, and the emits so far.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct ScanCursor {
    pub(super) idx: usize,
    pub(super) ap: u64,
    pub(super) bp: u64,
    pub(super) emitted: u64,
}

/// One top-level op of a [`crate::VecClass::SegReduce`] row body,
/// resolved at loop entry (the row `Load`s are [`RowLoad`]s).
#[derive(Debug, Clone, Copy)]
enum RowStmt {
    /// `Alloc` of a register: its column restarts at 0.0.
    Reg { slot: Slot, col: usize },
    /// `Alloc` of a FIFO.
    Fifo { slot: Slot },
    /// `Bind` or `SetReg`: program `prog` evaluated into column `col`.
    Eval { prog: usize, col: usize },
    /// The inner reduce: each row's nonzeros folded into its
    /// accumulator's column.
    Fold,
    /// `StoreScalar d(ix) = val`, each a `(program, column)`, into an
    /// array of `len` words (its slot is in [`SegPlan`]'s `store_at`).
    Store {
        ix: (usize, usize),
        val: (usize, usize),
        len: usize,
    },
}

/// One row `Load` of a [`crate::VecClass::SegReduce`] row body: its
/// FIFO, DRAM source and that array's length, the columns holding its
/// bounds, its FIFO's declared size, and whether the inner loop
/// dequeues it.
#[derive(Debug, Clone, Copy, Default)]
struct RowLoad {
    fifo: Slot,
    src: Slot,
    src_len: usize,
    start: usize,
    end: usize,
    size: usize,
    deq: bool,
}

/// A [`crate::VecClass::SegReduce`] row loop resolved once per loop
/// entry (see [`Machine::seg_plan`]).
#[derive(Debug, Clone)]
pub(super) struct SegPlan {
    stmts: [RowStmt; vector::MAX_SEG_OPS],
    n_stmts: usize,
    progs: [LanePlan; vector::MAX_SEG_PROGS],
    n_progs: usize,
    loads: [RowLoad; vector::MAX_LANE_HEADS],
    n_loads: usize,
    /// The inner loop's lane program over the nonzero lanes, and
    /// whether it reads the inner loop variable.
    inner: LanePlan,
    iota: bool,
    inner_id: usize,
    /// `(load, bound variable)` of each inner FIFO head.
    heads: [(usize, Slot); vector::MAX_LANE_HEADS],
    n_heads: usize,
    /// The columns of each row's inner trip count and accumulator.
    trips: usize,
    acc: usize,
    /// `(variable, column)` of each row `Bind`.
    binds: [(Slot, usize); vector::MAX_SEG_COLS],
    n_binds: usize,
    /// `Alloc`s and `StoreScalar`s per row, and each store's
    /// `(array, index column, value column)`.
    allocs: u64,
    stores: u64,
    store_at: [(Slot, usize, usize); vector::MAX_SEG_PROGS / 2],
}

/// The free lists the boxed plans come from, kept across loop entries
/// as `lane_scratch` is, so resolving a plan copies no plan. Each loop
/// entry takes its own box ([`Machine::resolve_plan`]), so nested loops
/// never share one, and every exit gives it back
/// ([`Machine::give_plan`]), a faulted chunk's included.
// Boxes, not plans: a loop holds its plan while nested loops take and
// return theirs, so a plan leaves and rejoins its list as a pointer.
#[allow(clippy::vec_box)]
#[derive(Debug, Clone, Default)]
pub(super) struct PlanPool {
    reduce: Vec<Box<ReducePlan>>,
    scan: Vec<Box<ScanPlan>>,
    seg: Vec<Box<SegPlan>>,
}

/// A plan kind [`PlanPool`] keeps: its free list, and a new box for
/// when the list is empty (the resolver empties what it reuses).
pub(super) trait Pooled: Sized {
    fn list(pool: &mut PlanPool) -> &mut Vec<Box<Self>>;
    fn fresh() -> Box<Self>;
}

impl Pooled for ReducePlan {
    fn list(pool: &mut PlanPool) -> &mut Vec<Box<Self>> {
        &mut pool.reduce
    }

    #[cold]
    fn fresh() -> Box<Self> {
        Box::new(ReducePlan {
            lanes: LanePlan::EMPTY,
            heads: [(0, 0); vector::MAX_LANE_HEADS],
            n_heads: 0,
        })
    }
}

impl Pooled for ScanPlan {
    fn list(pool: &mut PlanPool) -> &mut Vec<Box<Self>> {
        &mut pool.scan
    }

    #[cold]
    fn fresh() -> Box<Self> {
        Box::new(ScanPlan {
            stmts: [(LanePlan::EMPTY, ScanSink::Fold); vector::MAX_LANE_STMTS],
            n_stmts: 0,
            enqueues: false,
            stores: 0,
        })
    }
}

impl Pooled for SegPlan {
    fn list(pool: &mut PlanPool) -> &mut Vec<Box<Self>> {
        &mut pool.seg
    }

    #[cold]
    fn fresh() -> Box<Self> {
        Box::new(SegPlan {
            stmts: [RowStmt::Fold; vector::MAX_SEG_OPS],
            n_stmts: 0,
            progs: [LanePlan::EMPTY; vector::MAX_SEG_PROGS],
            n_progs: 0,
            loads: [RowLoad::default(); vector::MAX_LANE_HEADS],
            n_loads: 0,
            inner: LanePlan::EMPTY,
            iota: false,
            inner_id: 0,
            heads: [(0, 0); vector::MAX_LANE_HEADS],
            n_heads: 0,
            trips: 0,
            acc: 0,
            binds: [(0, 0); vector::MAX_SEG_COLS],
            n_binds: 0,
            allocs: 0,
            stores: 0,
            store_at: [(0, 0, 0); vector::MAX_SEG_PROGS / 2],
        })
    }
}

/// Fills `lanes` with up to `max` (at least 1) emits of a snapshot from
/// `cur` — each position found with `trailing_zeros`, −1 on an absent
/// side — returning how many it took, the cursor past the last of them
/// (`dim` when none is left), and how many lanes hold each side. Under
/// `Or` (`OR`) every set bit of either side emits, so each side's
/// position is its running count, one step per present emit; under
/// `And` only common bits emit, and the positions count the bits below
/// by popcount prefixes.
fn fill_scan_lanes<const OR: bool>(
    buf: &ScanBuf,
    dim: usize,
    cur: ScanCursor,
    max: usize,
    lanes: &mut [[f64; CHUNK]; 4],
) -> (usize, ScanCursor, [u64; 2]) {
    let op = if OR { ScanOp::Or } else { ScanOp::And };
    let mut n = 0usize;
    let mut present = [0u64; 2];
    let (mut ap, mut bp) = (cur.ap, cur.bp);
    for (base, comb, aw, bw) in buf.words2(op, cur.idx, dim) {
        let mut bits = comb;
        while bits != 0 {
            let bit = bits.trailing_zeros();
            let (has_a, has_b) = ((aw >> bit) & 1 == 1, (bw >> bit) & 1 == 1);
            let (pa, pb) = if OR {
                let at = (ap, bp);
                ap += u64::from(has_a);
                bp += u64::from(has_b);
                at
            } else {
                let below = (1u64 << bit) - 1;
                (
                    ap + u64::from((aw & below).count_ones()),
                    bp + u64::from((bw & below).count_ones()),
                )
            };
            lanes[0][n] = if has_a { pa as f64 } else { -1.0 };
            lanes[1][n] = if has_b { pb as f64 } else { -1.0 };
            lanes[2][n] = (cur.emitted + n as u64) as f64;
            lanes[3][n] = (base + bit as usize) as f64;
            present[0] += u64::from(has_a);
            present[1] += u64::from(has_b);
            n += 1;
            if n == max {
                if !OR {
                    let upto = (2u64 << bit).wrapping_sub(1);
                    ap += u64::from((aw & upto).count_ones());
                    bp += u64::from((bw & upto).count_ones());
                }
                let next = ScanCursor {
                    idx: base + bit as usize + 1,
                    ap,
                    bp,
                    emitted: cur.emitted + n as u64,
                };
                return (n, next, present);
            }
            bits &= bits - 1;
        }
        if !OR {
            ap += u64::from(aw.count_ones());
            bp += u64::from(bw.count_ones());
        }
    }
    let end = ScanCursor {
        idx: dim,
        ap,
        bp,
        emitted: cur.emitted + n as u64,
    };
    (n, end, present)
}

impl Machine {
    /// Takes a plan box from the pool and resolves it with `fill`, which
    /// writes it in place: `None`, with the box given back, when `fill`
    /// refuses.
    pub(super) fn resolve_plan<P: Pooled>(
        &mut self,
        fill: impl FnOnce(&Machine, &mut P) -> Option<()>,
    ) -> Option<Box<P>> {
        let mut plan = P::list(&mut self.plans).pop().unwrap_or_else(P::fresh);
        if fill(self, &mut plan).is_some() {
            return Some(plan);
        }
        self.give_plan(plan);
        None
    }

    /// Returns a plan box to the pool for the next loop entry.
    pub(super) fn give_plan<P: Pooled>(&mut self, plan: Box<P>) {
        P::list(&mut self.plans).push(plan);
    }

    /// Resolves one lane program — `lanes` up to its closing sink or
    /// [`LaneOp::End`], whose index it returns — into `plan`, in place,
    /// against the loop-entry state: read slots checked to be plain words
    /// (their regions hoist — no admitted body writes on-chip memory),
    /// loop-invariant variables and registers read once, and every
    /// sub-expression with no lane operand folded to one splat — with the
    /// scalar engine's f64 op, so the splat has the bits every lane would
    /// compute. Returns `None` (having changed nothing but `plan`) when any
    /// of that fails; the scalar loop then runs and raises whatever error
    /// the state holds. With `seg` the program is a row loop's inner
    /// program: its loop variable and FIFO heads become the nonzero lanes
    /// ([`PlanOp::Seg`]).
    fn lane_plan(&self, lanes: &[LaneOp], seg: bool, plan: &mut LanePlan) -> Option<usize> {
        plan.clear();
        // Whether each lane-stack entry is a splat; a splat entry is
        // always exactly one trailing `Splat` op of the plan.
        let mut splat = [false; vector::MAX_LANE_DEPTH];
        let mut sp = 0usize;
        for (at, lop) in lanes.iter().enumerate() {
            match *lop {
                LaneOp::Const(c) => plan.push(PlanOp::Splat(c), &mut splat, &mut sp),
                LaneOp::Var(v) => {
                    plan.push(PlanOp::Splat(self.env[v as usize]?), &mut splat, &mut sp)
                }
                LaneOp::Reg(r) => {
                    plan.push(PlanOp::Splat(self.reg_value(r).ok()?), &mut splat, &mut sp)
                }
                LaneOp::Iota if seg => plan.push(PlanOp::Seg(0), &mut splat, &mut sp),
                LaneOp::Iota => plan.push(PlanOp::Iota, &mut splat, &mut sp),
                LaneOp::Head(k) if seg => {
                    plan.push(PlanOp::Seg(1 + k as usize), &mut splat, &mut sp)
                }
                LaneOp::Head(k) => plan.push(PlanOp::Head(k as usize), &mut splat, &mut sp),
                LaneOp::Col(k) => plan.push(PlanOp::Col(k as usize), &mut splat, &mut sp),
                LaneOp::ScanVar(k) => plan.push(PlanOp::ScanVar(k as usize), &mut splat, &mut sp),
                LaneOp::Guarded { side, chip, random } => {
                    let st = self.chip[chip as usize];
                    if st.tag != ChipTag::Words {
                        return None;
                    }
                    let g = &mut plan.guarded[side as usize];
                    g.0 += 1;
                    g.1 += u64::from(random && st.kind == MemKind::SparseSram);
                    plan.alu += 2; // the `p + 1` and the mux, on every lane
                    let op = PlanOp::Guarded {
                        side: side as usize,
                        woff: st.woff,
                        len: st.len,
                    };
                    plan.push(op, &mut splat, &mut sp);
                }
                LaneOp::Read { chip, random } => {
                    let st = self.chip[chip as usize];
                    if st.tag != ChipTag::Words {
                        return None;
                    }
                    plan.reads += 1;
                    plan.shuffles += u64::from(random && st.kind == MemKind::SparseSram);
                    // `mem[v + c]` over the loop variable, `c` a
                    // non-negative integer: one window `c` words on.
                    if let [PlanOp::Iota, PlanOp::Splat(c), PlanOp::Bin(BinSOp::Add)] =
                        plan.ops[plan.n_ops.saturating_sub(3)..plan.n_ops]
                    {
                        if let Some(c) = vector::exact_index(c) {
                            plan.n_ops -= 2;
                            plan.ops[plan.n_ops - 1] = PlanOp::Stream {
                                woff: st.woff + c,
                                len: st.len.saturating_sub(c),
                            };
                            continue;
                        }
                    }
                    let last = &mut plan.ops[plan.n_ops - 1];
                    match *last {
                        // A loop-invariant read: every lane reads the
                        // same word, so read it once here.
                        PlanOp::Splat(x) if splat[sp - 1] => {
                            let ix = vector::lane_index(x).filter(|&ix| ix < st.len)?;
                            *last = PlanOp::Splat(self.words[st.woff + ix]);
                        }
                        PlanOp::Iota => {
                            *last = PlanOp::Stream {
                                woff: st.woff,
                                len: st.len,
                            };
                        }
                        _ => plan.push_op(PlanOp::Gather {
                            woff: st.woff,
                            len: st.len,
                        }),
                    }
                }
                LaneOp::Neg => {
                    plan.alu += 1;
                    match &mut plan.ops[plan.n_ops - 1] {
                        PlanOp::Splat(x) if splat[sp - 1] => *x = -*x,
                        _ => plan.push_op(PlanOp::Neg),
                    }
                }
                LaneOp::Bin(op) => {
                    plan.alu += 1;
                    sp -= 1;
                    if splat[sp - 1] && splat[sp] {
                        let (PlanOp::Splat(a), PlanOp::Splat(b)) =
                            (plan.ops[plan.n_ops - 2], plan.ops[plan.n_ops - 1])
                        else {
                            return None; // a splat entry is one trailing Splat op
                        };
                        plan.n_ops -= 1;
                        plan.ops[plan.n_ops - 1] = PlanOp::Splat(op.apply(a, b)?);
                    } else {
                        splat[sp - 1] = false;
                        plan.push_op(PlanOp::Bin(op));
                    }
                }
                LaneOp::Fold
                | LaneOp::AddReg(_)
                | LaneOp::Enq(_)
                | LaneOp::Store { .. }
                | LaneOp::Count(_)
                | LaneOp::End => return Some(at),
            }
        }
        None
    }

    /// Resolves a [`crate::VecClass::Reduce`] loop into `plan` against
    /// the loop-entry state: its FIFO heads checked to be FIFOs (the body
    /// enqueues nothing), and its lane program by
    /// [`Machine::lane_plan`].
    #[inline(never)]
    pub(super) fn reduce_plan(
        &self,
        prog: &CompiledProgram,
        lanes: LaneRef,
        body: OpId,
        body_len: u32,
        plan: &mut ReducePlan,
    ) -> Option<()> {
        let eops = prog.eops();
        for (k, op) in prog.ops()[body as usize..(body + body_len) as usize]
            .iter()
            .enumerate()
        {
            let Op::Bind {
                var,
                value: Operand::Expr(e),
            } = *op
            else {
                return None;
            };
            let EOp::Deq(fifo) = eops[e as usize] else {
                return None;
            };
            if self.chip[fifo as usize].tag != ChipTag::Fifo {
                return None;
            }
            plan.heads[k] = (fifo, var);
        }
        plan.n_heads = body_len as usize;
        self.lane_plan(&prog.lanes()[lanes as usize..], false, &mut plan.lanes)?;
        Some(())
    }

    /// Evaluates `plan` over the first `n` lanes of one chunk into
    /// `s.stack[0]`, lane-wise with the scalar engine's f64 ops: `at`
    /// is lane 0's loop variable, `heads` the reduce loop's FIFO heads
    /// (each checked to hold `n` elements), `s.scan` the scan chunk's
    /// emits, `s.cols` a block of rows' columns and `s.seg` a chunk of
    /// a row loop's nonzeros. Returns `false` when a lane would fault — an index
    /// negative or out of bounds — having changed only `s`.
    fn eval_lanes(
        &self,
        plan: &LanePlan,
        heads: &[(Slot, Slot)],
        at: usize,
        n: usize,
        s: &mut LaneScratch,
    ) -> bool {
        // Lanes at or past a short chunk's length hold leftovers; no
        // operator here can fail on them and they are never committed.
        let stack = &mut s.stack;
        let mut sp = 0usize;
        for op in &plan.ops[..plan.n_ops] {
            match *op {
                PlanOp::Splat(x) => {
                    stack[sp] = [x; CHUNK];
                    sp += 1;
                }
                PlanOp::Iota => {
                    stack[sp] = std::array::from_fn(|k| (at + k) as f64);
                    sp += 1;
                }
                PlanOp::Head(h) => {
                    let st = self.chip[heads[h].0 as usize];
                    if st.head + n <= st.wcap {
                        window(&mut stack[sp], &self.words, st.woff + st.head, n);
                    } else {
                        let (run, wrapped) = fifo_runs(&st, n);
                        let k = run.len();
                        stack[sp][..k].copy_from_slice(&self.words[run]);
                        stack[sp][k..n].copy_from_slice(&self.words[wrapped]);
                    }
                    sp += 1;
                }
                PlanOp::ScanVar(k) => {
                    stack[sp] = s.scan[k];
                    sp += 1;
                }
                PlanOp::Col(k) => {
                    stack[sp] = s.cols[k];
                    sp += 1;
                }
                PlanOp::Seg(k) => {
                    stack[sp] = s.seg[k];
                    sp += 1;
                }
                PlanOp::Stream { woff, len } => {
                    if at + n > len {
                        return false;
                    }
                    window(&mut stack[sp], &self.words, woff + at, n);
                    sp += 1;
                }
                PlanOp::Gather { woff, len } => {
                    let lane = &mut stack[sp - 1];
                    let mut idx = [0usize; CHUNK];
                    let in_bounds = if n == CHUNK {
                        vector::to_indices(lane, &mut idx) && idx.iter().all(|&ix| ix < len)
                    } else {
                        lane[..n].iter().zip(&mut idx).all(|(&x, ix)| {
                            *ix = vector::lane_index(x).unwrap_or(usize::MAX);
                            *ix < len
                        })
                    };
                    if !in_bounds {
                        return false;
                    }
                    for (x, &ix) in lane[..n].iter_mut().zip(&idx) {
                        *x = self.words[woff + ix];
                    }
                }
                PlanOp::Guarded { side, woff, len } => {
                    // Positions are exact integers ≥ −1, so `p + 1 != 0`
                    // is `p >= 0`, and only present lanes read: one
                    // bounds check on the largest position covers them
                    // all, and each lane then selects without a branch.
                    let lane = &mut stack[sp];
                    let pos = &s.scan[side][..n];
                    let top = pos.iter().fold(-1.0f64, |m, &p| m.max(p));
                    if top < 0.0 {
                        lane[..n].fill(0.0);
                    } else if top as usize >= len {
                        return false;
                    } else {
                        let mem = &self.words[woff..woff + len];
                        for (x, &p) in lane[..n].iter_mut().zip(pos) {
                            let v = mem[p.max(0.0) as usize];
                            *x = if p < 0.0 { 0.0 } else { v };
                        }
                    }
                    sp += 1;
                }
                PlanOp::Neg => {
                    for x in &mut stack[sp - 1] {
                        *x = -*x;
                    }
                }
                PlanOp::Bin(op) => {
                    sp -= 1;
                    let (below, top) = stack.split_at_mut(sp);
                    let lhs = below[sp - 1];
                    let lanes_ok = vector::bin_lanes(op, &lhs, &top[0], &mut below[sp - 1]);
                    debug_assert!(lanes_ok, "lane programs admit only + - *");
                }
            }
        }
        true
    }

    /// Runs up to `max` consecutive iterations of a
    /// [`crate::VecClass::Reduce`] loop, the first with loop variable
    /// `at`, in chunks of [`vector::REDUCE_LANES`] (the last one shorter): per
    /// chunk each FIFO head is read as one window after one occupancy
    /// check, the lane program evaluates lane-wise ([`Machine::eval_lanes`]),
    /// the lanes fold into `acc` serially in lane order — so the sum is
    /// bit-identical to the scalar loop — and the heads advance. At the
    /// end the bound variables hold their last lane (as after the scalar
    /// loop's last iteration), and fuel and statistics are charged:
    /// per-iteration constants of the plan, times the iterations run.
    /// The caller keeps `max` inside a fuel/interrupt burst and counts
    /// trips and folds.
    ///
    /// Returns the iterations run and whether the next chunk would
    /// fault (a FIFO too short, an index negative or out of bounds).
    /// A faulting chunk changes nothing: the caller runs its first
    /// iteration scalar, which raises the scalar loop's error at its
    /// exact iteration and state.
    #[inline(never)]
    pub(super) fn reduce_chunks(
        &mut self,
        plan: &ReducePlan,
        var: usize,
        at: usize,
        max: u64,
        acc: &mut f64,
    ) -> (u64, bool) {
        let heads = &plan.heads[..plan.n_heads];
        let mut s = self.lane_scratch.take().unwrap_or_else(LaneScratch::boxed);
        let mut done = 0usize;
        let mut faulted = false;
        while (done as u64) < max {
            let n = (max - done as u64).min(CHUNK as u64) as usize;
            if heads
                .iter()
                .any(|&(fifo, _)| self.chip[fifo as usize].len < n)
                || !self.eval_lanes(&plan.lanes, heads, at + done, n, &mut s)
            {
                faulted = true;
                break;
            }
            // Nothing in this chunk can fault past this point: commit.
            for &(fifo, _) in heads {
                fifo_drop(&mut self.chip[fifo as usize], n);
            }
            for &x in &s.stack[0][..n] {
                *acc += x;
            }
            done += n;
        }
        self.lane_scratch = Some(s);
        if done > 0 {
            for &(fifo, x) in heads {
                let st = self.chip[fifo as usize];
                let last = if st.head == 0 { st.wcap } else { st.head } - 1;
                self.env[x as usize] = Some(self.words[st.woff + last]);
            }
            self.env[var] = Some((at + done - 1) as f64);
            let done = done as u64;
            self.fuel -= done;
            self.dense.fifo_deqs += heads.len() as u64 * done;
            plan.lanes.charge(&mut self.dense, done, [0, 0]);
        }
        (done as u64, faulted)
    }

    /// Resolves a [`crate::VecClass::Scan`] loop's lane statements
    /// into `plan` against the loop-entry state: each program by
    /// [`Machine::lane_plan`], each sink's slot checked to be what it
    /// writes — a register, a FIFO, a mapped DRAM array — and resolved
    /// to its offset (no admitted body allocates, so the offsets hold
    /// for the whole loop). `None` leaves the scalar loop to run.
    #[inline(never)]
    pub(super) fn scan_plan(
        &self,
        prog: &CompiledProgram,
        lanes: LaneRef,
        plan: &mut ScanPlan,
    ) -> Option<()> {
        plan.n_stmts = 0;
        plan.enqueues = false;
        plan.stores = 0;
        let reg = |r: Slot| {
            let st = self.chip[r as usize];
            (st.tag == ChipTag::Reg).then_some(st.woff)
        };
        let mut rest = &prog.lanes()[lanes as usize..];
        while rest[0] != LaneOp::End {
            let k = plan.n_stmts;
            let at = self.lane_plan(rest, false, &mut plan.stmts[k].0)?;
            let sink = match rest[at] {
                LaneOp::Fold => ScanSink::Fold,
                LaneOp::AddReg(r) => {
                    plan.stmts[k].0.alu += 1; // the `r + e`
                    ScanSink::AddReg { woff: reg(r)? }
                }
                LaneOp::Enq(f) if self.chip[f as usize].tag == ChipTag::Fifo => {
                    debug_assert!(
                        !plan.stmts[..k]
                            .iter()
                            .any(|&(_, sink)| matches!(sink, ScanSink::Enq(g) if g == f)),
                        "two scan statements enqueue onto one FIFO"
                    );
                    plan.enqueues = true;
                    ScanSink::Enq(f)
                }
                LaneOp::Store { dst, ctr } => {
                    let st = self.dram_state[dst as usize];
                    if !st.mapped {
                        return None;
                    }
                    plan.stores += 1;
                    ScanSink::Store {
                        dst,
                        ctr: reg(ctr)?,
                        len: st.len,
                    }
                }
                LaneOp::Count(r) => {
                    plan.stmts[k].0.alu += 1; // the `ctr + 1`
                    ScanSink::Count { ctr: reg(r)? }
                }
                _ => return None,
            };
            plan.stmts[k].1 = sink;
            plan.n_stmts += 1;
            rest = &rest[at + 1..];
        }
        Some(())
    }

    /// Runs up to `max` emits of a [`crate::VecClass::Scan`] loop from
    /// `cur`, in chunks of up to [`vector::REDUCE_LANES`] taken straight
    /// from the snapshot's words at `depth` ([`fill_scan_lanes`]). Per
    /// chunk every statement's lane program evaluates
    /// ([`Machine::eval_lanes`]), every fault the commit could hit is
    /// checked — a counter that is negative, non-integral or would run
    /// a store past its array, the DRAM-word budget — and only then do
    /// the statements commit, each in lane order: folds and register
    /// adds serially, so sums are bit-identical to the scalar loop;
    /// appends as one run of DRAM words (logged for shard merges); FIFO
    /// pushes as one run per FIFO when each has room for the chunk (no
    /// two statements share a FIFO), and otherwise lane-major, reserving
    /// one element at a time, so rings grow exactly as the scalar loop
    /// grows them. Fuel and statistics are charged per lane as the
    /// scalar loop charges them, and the scan variables are left bound
    /// to the last emit. The caller keeps `max` inside a fuel/interrupt
    /// burst and counts emits, trips and folds.
    ///
    /// Returns the emits run and whether the next chunk would fault. A
    /// faulting chunk changes nothing: the caller runs it scalar, which
    /// raises the scalar loop's error (or takes its slow path) at its
    /// exact emit.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn scan_chunks(
        &mut self,
        plan: &ScanPlan,
        depth: usize,
        op: ScanOp,
        dim: usize,
        vars: [usize; 4],
        cur: &mut ScanCursor,
        max: u64,
        acc: &mut f64,
    ) -> (u64, bool) {
        let stmts = &plan.stmts[..plan.n_stmts];
        let mut s = self.lane_scratch.take().unwrap_or_else(LaneScratch::boxed);
        let mut done = 0u64;
        let mut faulted = false;
        'chunks: while done < max && cur.idx < dim {
            let want = (max - done).min(CHUNK as u64) as usize;
            let buf = &self.scan_pool[depth];
            let (n, next, present) = match op {
                ScanOp::Or => fill_scan_lanes::<true>(buf, dim, *cur, want, &mut s.scan),
                ScanOp::And => fill_scan_lanes::<false>(buf, dim, *cur, want, &mut s.scan),
            };
            if n == 0 {
                *cur = next;
                break;
            }
            for (k, (lanes, _)) in stmts.iter().enumerate() {
                if lanes.n_ops > 0 {
                    if !self.eval_lanes(lanes, &[], cur.emitted as usize, n, &mut s) {
                        faulted = true;
                        break 'chunks;
                    }
                    s.vals[k] = s.stack[0];
                }
            }
            // Pre-check every fault an append could raise.
            if plan.stores * n as u64 > self.dram_fuel {
                faulted = true;
                break;
            }
            for (_, sink) in stmts {
                let (ctr, len) = match *sink {
                    ScanSink::Store { ctr, len, .. } => (ctr, len),
                    ScanSink::Count { ctr } => (ctr, usize::MAX),
                    _ => continue,
                };
                let c0 = self.words[ctr];
                let exact = (0.0..=4_294_967_296.0).contains(&c0) && c0.fract() == 0.0;
                if !exact || c0 as usize + n > len {
                    faulted = true;
                    break 'chunks;
                }
            }
            // Commit.
            for (k, (lanes, sink)) in stmts.iter().enumerate() {
                let vals = &s.vals[k][..n];
                match *sink {
                    ScanSink::Fold => {
                        for &x in vals {
                            *acc += x;
                        }
                    }
                    ScanSink::AddReg { woff } => {
                        let mut r = self.words[woff];
                        for &x in vals {
                            r += x;
                        }
                        self.words[woff] = r;
                    }
                    ScanSink::Store { dst, ctr, .. } => {
                        let c0 = self.words[ctr] as usize;
                        let arr = self.dram_words_of_mut(dst).expect("mapped at plan time");
                        arr[c0..c0 + n].copy_from_slice(vals);
                        self.log_dram_write(dst, c0, n);
                        self.dram_fuel -= n as u64;
                        self.dense.dram_random_writes += n as u64;
                    }
                    ScanSink::Count { ctr } => self.words[ctr] += n as f64,
                    ScanSink::Enq(_) => self.dense.fifo_enqs += n as u64,
                }
                lanes.charge(&mut self.dense, n as u64, present);
            }
            if plan.enqueues {
                let Machine { words, chip, .. } = self;
                let enqs = || {
                    stmts
                        .iter()
                        .enumerate()
                        .filter_map(|(k, &(_, sink))| match sink {
                            ScanSink::Enq(f) => Some((k, f as usize)),
                            _ => None,
                        })
                };
                if enqs().all(|(_, f)| chip[f].len + n <= chip[f].wcap) {
                    for (k, f) in enqs() {
                        fifo_extend(words, &mut chip[f], &s.vals[k][..n]);
                    }
                } else {
                    for l in 0..n {
                        for (k, f) in enqs() {
                            fifo_reserve(words, &mut chip[f], 1);
                            fifo_push(words, &mut chip[f], s.vals[k][l]);
                        }
                    }
                }
            }
            for (&var, lane) in vars.iter().zip(&s.scan) {
                self.env[var] = Some(lane[n - 1]);
            }
            *cur = next;
            done += n as u64;
        }
        self.lane_scratch = Some(s);
        self.fuel -= done;
        (done, faulted)
    }

    /// Resolves a [`crate::VecClass::SegReduce`] row loop's body
    /// `ops[body..end]` into `plan` against the loop-entry state, once per
    /// entry: each row program by [`Machine::lane_plan`], the inner loop's
    /// over the nonzero lanes, each allocated slot checked to have its home
    /// region already (so no row relocates it), each loaded and stored
    /// array checked to be mapped. Row columns are numbered as the class
    /// defines them. `None` leaves the scalar loop to run.
    ///
    /// Plans live in pooled boxes, and this and the other plan and chunk
    /// helpers stay out of line: inlined into the loop executors, which
    /// recurse once per nested loop, their plans would grow every nesting
    /// level's stack frame by kilobytes.
    #[inline(never)]
    pub(super) fn seg_plan(
        &self,
        prog: &CompiledProgram,
        lanes: LaneRef,
        body: OpId,
        end: usize,
        plan: &mut SegPlan,
    ) -> Option<()> {
        plan.n_stmts = 0;
        plan.n_progs = 0;
        plan.n_loads = 0;
        plan.inner.clear();
        plan.iota = false;
        plan.inner_id = 0;
        plan.n_heads = 0;
        plan.trips = 0;
        plan.acc = 0;
        plan.n_binds = 0;
        plan.allocs = 0;
        plan.stores = 0;
        let (ops, eops) = (prog.ops(), prog.eops());
        let mut rest = &prog.lanes()[lanes as usize..];
        let mut next_prog = |plan: &mut SegPlan| -> Option<usize> {
            let at = self.lane_plan(rest, false, &mut plan.progs[plan.n_progs])?;
            rest = &rest[at + 1..];
            plan.n_progs += 1;
            Some(plan.n_progs - 1)
        };
        // Register and FIFO columns and sizes: `(slot, column or size)`.
        let mut regs = [(0, 0); vector::MAX_SEG_COLS];
        let mut n_regs = 0;
        let mut fifos = [(0, 0); vector::MAX_LANE_HEADS];
        let mut n_fifos = 0;
        let mut cols = 0usize;
        let find = |list: &[(Slot, usize)], slot: Slot| {
            list.iter().find(|&&(x, _)| x == slot).map(|&(_, v)| v)
        };
        let mut at = body as usize;
        while at < end {
            let stmt = match ops[at] {
                Op::Alloc { slot, kind, size } => {
                    plan.allocs += 1;
                    let need = if kind == MemKind::Reg { 1 } else { size.max(1) };
                    if self.chip[slot as usize].wcap < need {
                        return None;
                    }
                    if kind == MemKind::Reg {
                        regs[n_regs] = (slot, cols);
                        n_regs += 1;
                        cols += 1;
                        RowStmt::Reg {
                            slot,
                            col: cols - 1,
                        }
                    } else {
                        *fifos.get_mut(n_fifos)? = (slot, size);
                        n_fifos += 1;
                        RowStmt::Fifo { slot }
                    }
                }
                Op::Bind { var, .. } => {
                    plan.binds[plan.n_binds] = (var, cols);
                    plan.n_binds += 1;
                    cols += 1;
                    RowStmt::Eval {
                        prog: next_prog(plan)?,
                        col: cols - 1,
                    }
                }
                Op::SetReg { reg, .. } => RowStmt::Eval {
                    prog: next_prog(plan)?,
                    col: find(&regs[..n_regs], reg)?,
                },
                Op::Load {
                    dst,
                    src,
                    start: Operand::Var(s),
                    end: Operand::Var(e),
                } => {
                    let st = self.dram_state[src as usize];
                    let binds = &plan.binds[..plan.n_binds];
                    if !st.mapped {
                        return None;
                    }
                    plan.loads[plan.n_loads] = RowLoad {
                        fifo: dst,
                        src,
                        src_len: st.len,
                        start: find(binds, s)?,
                        end: find(binds, e)?,
                        size: find(&fifos[..n_fifos], dst)?,
                        deq: false,
                    };
                    plan.n_loads += 1;
                    at += 1;
                    continue;
                }
                Op::RangeSimple {
                    id,
                    max: Operand::Var(trips),
                    reduce: Some((acc, _)),
                    body: ib,
                    body_len,
                    ..
                } => {
                    let VecClass::Reduce(inner) = prog.vec_class(at) else {
                        return None;
                    };
                    self.lane_plan(&prog.lanes()[inner as usize..], true, &mut plan.inner)?;
                    plan.iota = plan.inner.ops[..plan.inner.n_ops]
                        .iter()
                        .any(|op| matches!(op, PlanOp::Seg(0)));
                    plan.inner_id = id;
                    plan.trips = find(&plan.binds[..plan.n_binds], trips)?;
                    plan.acc = find(&regs[..n_regs], acc)?;
                    for op in &ops[ib as usize..(ib + body_len) as usize] {
                        let Op::Bind {
                            var,
                            value: Operand::Expr(e),
                        } = *op
                        else {
                            return None;
                        };
                        let EOp::Deq(fifo) = eops[e as usize] else {
                            return None;
                        };
                        let loads = &mut plan.loads[..plan.n_loads];
                        let li = loads.iter().position(|l| l.fifo == fifo)?;
                        loads[li].deq = true;
                        plan.heads[plan.n_heads] = (li, var);
                        plan.n_heads += 1;
                    }
                    at = (ib + body_len) as usize;
                    plan.stmts[plan.n_stmts] = RowStmt::Fold;
                    plan.n_stmts += 1;
                    continue;
                }
                Op::StoreScalar { dst, .. } => {
                    let st = self.dram_state[dst as usize];
                    if !st.mapped {
                        return None;
                    }
                    plan.store_at[plan.stores as usize] = (dst, cols, cols + 1);
                    plan.stores += 1;
                    cols += 2;
                    RowStmt::Store {
                        ix: (next_prog(plan)?, cols - 2),
                        val: (next_prog(plan)?, cols - 1),
                        len: st.len,
                    }
                }
                _ => return None,
            };
            plan.stmts[plan.n_stmts] = stmt;
            plan.n_stmts += 1;
            at += 1;
        }
        Some(())
    }

    /// Runs up to `max` rows of a [`crate::VecClass::SegReduce`] loop,
    /// the first with loop variable `at`, in blocks of up to
    /// [`vector::REDUCE_LANES`] rows ([`Machine::seg_block`]). A block
    /// whose row programs fault is retried one row at a time, so every
    /// row before the faulting one still commits. Returns the rows run;
    /// the caller counts their trips and runs the next row scalar.
    #[inline(never)]
    pub(super) fn seg_rows(
        &mut self,
        plan: &SegPlan,
        var: usize,
        id: usize,
        at: usize,
        max: u64,
    ) -> u64 {
        let mut s = self.lane_scratch.take().unwrap_or_else(LaneScratch::boxed);
        let mut done = 0u64;
        let mut width = CHUNK as u64;
        while done < max {
            let rows = (max - done).min(width) as usize;
            match self.seg_block(plan, var, id, at + done as usize, rows, &mut s) {
                Some(k) => {
                    done += k as u64;
                    if k < rows {
                        break;
                    }
                }
                None if width > 1 => width = 1,
                None => break,
            }
        }
        self.lane_scratch = Some(s);
        done
    }

    /// Runs one block of `rows` rows from loop variable `r0` as a
    /// segmented stream. Each row statement evaluates over the whole
    /// block in body order ([`Machine::eval_lanes`], row columns in
    /// `s.cols`); at the inner loop every row is pre-checked and the
    /// nonzeros folded ([`Machine::seg_fold`]); every check that fails
    /// cuts the block before its row. Then the rows that are left
    /// commit as the scalar loop would have run them: stores in row
    /// order (logged for shard merges), fuel and statistics charged per
    /// row and per nonzero, and the last row's registers, FIFOs and
    /// bound variables, and the last nonzero's heads, left as exit
    /// state. Returns the rows committed, or `None` — having committed
    /// nothing — when a row program faults on some row of the block.
    fn seg_block(
        &mut self,
        plan: &SegPlan,
        var: usize,
        id: usize,
        r0: usize,
        rows: usize,
        s: &mut LaneScratch,
    ) -> Option<usize> {
        let mut rows = rows;
        let mut trips = [0usize; CHUNK];
        let mut starts = [[0usize; CHUNK]; vector::MAX_LANE_HEADS];
        let mut lens = [[0usize; CHUNK]; vector::MAX_LANE_HEADS];
        for stmt in &plan.stmts[..plan.n_stmts] {
            if rows == 0 {
                return Some(0);
            }
            match *stmt {
                RowStmt::Reg { col, .. } => s.cols[col] = [0.0; CHUNK],
                RowStmt::Fifo { .. } => {}
                RowStmt::Eval { prog, col } => {
                    if !self.eval_lanes(&plan.progs[prog], &[], r0, rows, s) {
                        return None;
                    }
                    s.cols[col] = s.stack[0];
                }
                RowStmt::Fold => {
                    rows = self.seg_fold(plan, rows, &mut trips, &mut starts, &mut lens, s);
                }
                RowStmt::Store { ix, val, len, .. } => {
                    for (prog, col) in [ix, val] {
                        if !self.eval_lanes(&plan.progs[prog], &[], r0, rows, s) {
                            return None;
                        }
                        s.cols[col] = s.stack[0];
                    }
                    let fits = |&x: &f64| vector::lane_index(x).is_some_and(|ix| ix < len);
                    rows = s.cols[ix.1][..rows]
                        .iter()
                        .position(|x| !fits(x))
                        .unwrap_or(rows);
                }
            }
        }
        if rows == 0 {
            return Some(0);
        }
        // Commit: stores in row order (logged for shard merges), then
        // fuel and statistics.
        let stores = &plan.store_at[..plan.stores as usize];
        let Machine {
            dram_input,
            dram_out,
            dram_state,
            ..
        } = self;
        for j in 0..rows {
            for &(dst, ix, val) in stores {
                let i = vector::lane_index(s.cols[ix][j]).expect("checked");
                let arr = dram_words_mut(dram_input, dram_out, dram_state[dst as usize]);
                arr.expect("mapped at plan time")[i] = s.cols[val][j];
            }
        }
        if self.write_log.is_some() {
            for j in 0..rows {
                for &(dst, ix, _) in stores {
                    let i = vector::lane_index(s.cols[ix][j]).expect("checked");
                    self.log_dram_write(dst, i, 1);
                }
            }
        }
        let k = rows as u64;
        let nnz: u64 = trips[..rows].iter().map(|&n| n as u64).sum();
        let mut loaded = 0u64;
        for (li, load) in plan.loads[..plan.n_loads].iter().enumerate() {
            let words: u64 = lens[li][..rows].iter().map(|&n| n as u64).sum();
            self.dense.note_dram_read(load.src, words, Some(id));
            loaded += words;
        }
        self.fuel -= k + nnz;
        self.alloc_fuel -= plan.allocs * k;
        self.dram_fuel -= loaded + plan.stores * k;
        let d = &mut self.dense;
        for p in &plan.progs[..plan.n_progs] {
            p.charge(d, k, [0, 0]);
        }
        plan.inner.charge(d, nnz, [0, 0]);
        d.fifo_enqs += loaded;
        d.fifo_deqs += plan.n_heads as u64 * nnz;
        d.node_trips[plan.inner_id] += nnz;
        d.reduce_elems += nnz;
        d.alu_ops += nnz; // the tree-adds
        d.dram_random_writes += plan.stores * k;
        // Exit state: the last row's allocations, loads and bindings.
        let last = rows - 1;
        let Machine {
            dram_input,
            dram_out,
            dram_state,
            words,
            chip,
            env,
            ..
        } = self;
        for stmt in &plan.stmts[..plan.n_stmts] {
            match *stmt {
                RowStmt::Reg { slot, col } => {
                    let st = &mut chip[slot as usize];
                    st.tag = ChipTag::Reg;
                    st.kind = MemKind::Reg;
                    words[st.woff] = s.cols[col][last];
                }
                RowStmt::Fifo { slot } => {
                    let st = &mut chip[slot as usize];
                    st.tag = ChipTag::Fifo;
                    st.kind = MemKind::Fifo;
                    st.head = 0;
                    st.len = 0;
                }
                _ => {}
            }
        }
        let n = trips[last];
        for (li, load) in plan.loads[..plan.n_loads].iter().enumerate() {
            let src =
                dram_words(dram_input, dram_out, dram_state[load.src as usize]).expect("mapped");
            let (from, len) = (starts[li][last], lens[li][last]);
            let st = &mut chip[load.fifo as usize];
            words[st.woff..st.woff + len].copy_from_slice(&src[from..from + len]);
            st.len = len;
            if load.deq {
                fifo_drop(st, n);
            }
        }
        for &(x, col) in &plan.binds[..plan.n_binds] {
            env[x as usize] = Some(s.cols[col][last]);
        }
        env[var] = Some((r0 + last) as f64);
        if let Some(j) = (0..rows).rev().find(|&j| trips[j] > 0) {
            for &(li, x) in &plan.heads[..plan.n_heads] {
                let load = plan.loads[li];
                let src = dram_words(dram_input, dram_out, dram_state[load.src as usize])
                    .expect("mapped");
                env[x as usize] = Some(src[starts[li][j] + trips[j] - 1]);
            }
        }
        Some(rows)
    }

    /// The inner loop of a [`crate::VecClass::SegReduce`] block of
    /// `rows` rows. First each row is pre-checked, in row order, before
    /// anything of it changes: its trip count and load bounds exact
    /// non-negative integers, `start ≤ end ≤` the source's length, no
    /// load longer than its FIFO's declared size, every head FIFO
    /// holding the row's trips, and the step, allocation and DRAM-word
    /// budgets covering the rows so far — each row's `1 + n` steps
    /// inside one [`vector::burst`]. Then the checked rows' nonzeros
    /// stream through the inner program in chunks of
    /// [`vector::REDUCE_LANES`] that cross row boundaries, each head
    /// read straight from its DRAM source, and each lane folds serially,
    /// in nonzero order, into its row's accumulator column — so each
    /// sum has the scalar loop's bits. Fills `trips`, `starts` and
    /// `lens` per row and returns how many rows passed: the rows before
    /// the first failing check or the first chunk that would fault.
    fn seg_fold(
        &self,
        plan: &SegPlan,
        rows: usize,
        trips: &mut [usize; CHUNK],
        starts: &mut [[usize; CHUNK]; vector::MAX_LANE_HEADS],
        lens: &mut [[usize; CHUNK]; vector::MAX_LANE_HEADS],
        s: &mut LaneScratch,
    ) -> usize {
        let budget = vector::burst(u64::MAX, self.fuel, self.interrupts);
        let (mut steps, mut dram, mut allocs) = (0u64, 0u64, 0u64);
        let loads = &plan.loads[..plan.n_loads];
        let mut checked = rows;
        'rows: for j in 0..rows {
            let Some(n) = vector::exact_index(s.cols[plan.trips][j]) else {
                checked = j;
                break;
            };
            let mut words = plan.stores;
            for (li, load) in loads.iter().enumerate() {
                let bounds = (
                    vector::exact_index(s.cols[load.start][j]),
                    vector::exact_index(s.cols[load.end][j]),
                );
                let (Some(a), Some(b)) = bounds else {
                    checked = j;
                    break 'rows;
                };
                if a > b || b > load.src_len || b - a > load.size || (load.deq && b - a < n) {
                    checked = j;
                    break 'rows;
                }
                starts[li][j] = a;
                lens[li][j] = b - a;
                words += (b - a) as u64;
            }
            steps += 1 + n as u64;
            dram += words;
            allocs += plan.allocs;
            if steps > budget || dram > self.dram_fuel || allocs > self.alloc_fuel {
                checked = j;
                break;
            }
            trips[j] = n;
        }
        // The checked rows' nonzeros, in order: when each row's run
        // starts where the previous one ended (as CSR rows do), a
        // head's lanes are one contiguous DRAM window per chunk.
        let heads = &plan.heads[..plan.n_heads];
        let mut srcs: [&[f64]; vector::MAX_LANE_HEADS] = [&[]; vector::MAX_LANE_HEADS];
        for (src, &(li, _)) in srcs.iter_mut().zip(heads) {
            *src = self
                .dram_words_of(loads[li].src)
                .expect("mapped at plan time");
        }
        let packed = heads.iter().all(|&(li, _)| {
            (1..checked).all(|j| starts[li][j - 1] + trips[j - 1] == starts[li][j])
        });
        let total: usize = trips[..checked].iter().sum();
        let (mut lane_row, mut lane_q) = ([0usize; CHUNK], [0usize; CHUNK]);
        let (mut row, mut q) = (0usize, 0usize);
        let mut streamed = 0usize;
        while streamed < total {
            let m = (total - streamed).min(CHUNK);
            let mut l = 0;
            while l < m {
                while q == trips[row] {
                    row += 1;
                    q = 0;
                }
                let take = (trips[row] - q).min(m - l);
                lane_row[l..l + take].fill(row);
                if plan.iota || !packed {
                    for (t, lq) in lane_q[l..l + take].iter_mut().enumerate() {
                        *lq = q + t;
                    }
                }
                l += take;
                q += take;
            }
            if plan.iota {
                for (x, &lq) in s.seg[0].iter_mut().zip(&lane_q[..m]) {
                    *x = lq as f64;
                }
            }
            for (h, &(li, _)) in heads.iter().enumerate() {
                let lane = &mut s.seg[1 + h];
                if packed {
                    window(lane, srcs[h], starts[li][0] + streamed, m);
                } else {
                    for (x, (&r, &lq)) in lane.iter_mut().zip(lane_row[..m].iter().zip(&lane_q)) {
                        *x = srcs[h][starts[li][r] + lq];
                    }
                }
            }
            if !self.fold_chunk(plan, m, &lane_row, s) {
                return lane_row[0];
            }
            streamed += m;
        }
        checked
    }

    /// Evaluates a row loop's inner program over the first `m` nonzero
    /// lanes of `s.seg` and folds lane `l`, in lane order, into the
    /// accumulator column of row `lane_row[l]`. `false` when a lane
    /// would fault, having folded nothing.
    fn fold_chunk(
        &self,
        plan: &SegPlan,
        m: usize,
        lane_row: &[usize; CHUNK],
        s: &mut LaneScratch,
    ) -> bool {
        if !self.eval_lanes(&plan.inner, &[], 0, m, s) {
            return false;
        }
        // Each row's run of lanes folds in a register.
        let acc = &mut s.cols[plan.acc];
        let mut row = lane_row[0];
        let mut sum = acc[row];
        for (&x, &r) in s.stack[0][..m].iter().zip(lane_row) {
            if r != row {
                acc[row] = sum;
                row = r;
                sum = acc[row];
            }
            sum += x;
        }
        acc[row] = sum;
        true
    }
}
