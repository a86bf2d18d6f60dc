//! Slot-indexed bytecode interpreter for the Spatial IR.
//!
//! Executes a [`crate::SpatialProgram`] against DRAM contents. This provides the
//! executable semantics that the authors obtained from the Spatial/SARA
//! toolchain: compiled kernels are checked for correctness against the CIN
//! oracle by running them here, and the [`ExecStats`] event trace (elements
//! processed per pattern, DRAM words moved, scanner bits examined, shuffle
//! accesses, ALU operations) feeds the Capstan cycle simulator.
//!
//! # Execution engines
//!
//! [`Machine::new`] compiles the program in one link-and-lower pass
//! ([`crate::bytecode`]): it interns every memory, register, FIFO, and
//! variable name into dense `u32` slots while it emits a flat op vector
//! in which every loop is one superinstruction followed by its body
//! span, and every expression a postfix program. [`Machine::run`]
//! executes that bytecode over `Vec`-indexed state — each loop runs
//! natively, stepping its span, with no per-iteration closure or
//! loop-control dispatch — so the hot path never hashes a string or
//! chases a statement tree. Dense counters are folded back into the
//! string-keyed [`ExecStats`] shape when [`Machine::run`] finishes.
//!
//! The original name-keyed tree walker survives as
//! [`crate::ReferenceMachine`], the differential-testing oracle: it
//! shares no state representation, link pass, or executor with this
//! engine, and differential tests assert both produce byte-identical
//! DRAM contents and identical [`ExecStats`]. `cargo bench --bench
//! interp` measures the speedup.
//!
//! # Layout
//!
//! This file holds the data: [`Machine`] and the private state types
//! its fields are made of, so every submodule reads them without any
//! field being widened. Behaviour lives one role per file: `budget`
//! (limits and errors), `stats`, `image` (copy-on-write DRAM images),
//! `machine` (lifecycle, host DRAM access, `run`), `exec` (statement
//! executors), `dispatch` (straight-line ops and expressions), and one
//! file per hot-loop tier — `simple` (the loop superinstructions, and
//! with them the engine's entry) and `vector_tier` (the
//! lane-program chunks of `Reduce` loops and of two-input scans,
//! `Machine::scan_chunks`, whose emits it takes word by word from the
//! scan snapshot; and the segmented executor of `SegReduce` row loops,
//! `Machine::seg_rows`, whose nonzero chunks cross row boundaries) — so
//! a tier goes by deleting its file and the call into it from the tier
//! above.

mod budget;
mod dispatch;
mod exec;
mod image;
mod machine;
mod simple;
mod stats;
#[cfg(test)]
mod tests;
mod vector_tier;

use std::sync::Arc;
use std::time::Instant;

use crate::bytecode::CompiledProgram;
use crate::ir::{MemKind, ScanOp};
use crate::resolve::DramRegion;
use vector_tier::LaneScratch;

pub(crate) use budget::{check_interrupts, exhausted_fuel, FuelCause, INTERRUPT_MASK};
pub use budget::{BudgetResource, CancelFlag, RunBudget, RunError};
pub use image::{mix64, DramImage, DramImageBuilder};
pub use stats::{ExecStats, DRAM_WORD_BYTES};

/// Allocation state of one on-chip slot: what the slot currently is.
/// This is the only discriminant left on the memory hot path — the
/// storage itself lives in the machine's flat arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChipTag {
    /// Never allocated (touching it reproduces `UnknownMemory`).
    None,
    /// Addressable words (SRAM / SparseSRAM).
    Words,
    /// A FIFO ring over the slot's word region.
    Fifo,
    /// A single register word.
    Reg,
    /// A packed bit vector in the bitset arena.
    Bits,
}

/// Flat per-slot on-chip state: the current allocation tag/kind plus
/// the slot's region inside the word and bitset arenas. Regions start
/// at the static [`crate::resolve::ArenaLayout`] homes and move to the
/// end of an arena only on dynamic growth (FIFO overflow, bit-vector
/// regeneration past the declared dimension).
///
/// Field roles by tag: `len` is the logical word length for `Words`,
/// the element count for `Fifo`, and the logical bit length for
/// `Bits`; `head` is the ring read position for `Fifo`.
#[derive(Debug, Clone, Copy)]
struct ChipState {
    tag: ChipTag,
    kind: MemKind,
    woff: usize,
    wcap: usize,
    boff: usize,
    bcap: usize,
    len: usize,
    head: usize,
}

impl ChipState {
    const UNMAPPED: ChipState = ChipState {
        tag: ChipTag::None,
        kind: MemKind::Dram,
        woff: 0,
        wcap: 0,
        boff: 0,
        bcap: 0,
        len: 0,
        head: 0,
    };
}

/// Per-slot DRAM state: where the slot's words live inside the
/// machine's flat DRAM arena. The arena is two segments — the shared
/// copy-on-write input segment (arrays the program never writes) and
/// the machine-owned output segment — and a slot's segment residency is
/// decided statically by the [`crate::resolve::DramLayout`].
#[derive(Debug, Clone, Copy)]
struct DramState {
    /// Whether the slot is backed by storage at all (`false` reproduces
    /// `UnknownMemory` at touch time).
    mapped: bool,
    /// `true` → input segment (shared, CoW); `false` → output segment.
    input: bool,
    kind: MemKind,
    /// First word within the slot's segment.
    off: usize,
    /// Declared capacity in words.
    len: usize,
}

/// A scan snapshot: the packed bit-vector words memcpy'd out of the
/// bitset arena at loop entry, so the active scan keeps iterating its
/// entry-time image even if the body regenerates the bit vector.
/// `aw`/`bw` bound the words valid for this entry (the buffers are
/// pooled and may be longer from a previous, larger snapshot).
#[derive(Debug, Clone, Default)]
struct ScanBuf {
    a: Vec<u64>,
    b: Vec<u64>,
    aw: usize,
    bw: usize,
}

impl ScanBuf {
    fn copy_into(dst: &mut Vec<u64>, src: &[u64]) -> usize {
        if dst.len() < src.len() {
            dst.resize(src.len(), 0);
        }
        dst[..src.len()].copy_from_slice(src);
        src.len()
    }

    #[inline(always)]
    fn bit(words: &[u64], valid: usize, idx: usize) -> bool {
        let w = idx >> 6;
        w < valid && (words[w] >> (idx & 63)) & 1 == 1
    }

    #[inline(always)]
    fn a_set(&self, idx: usize) -> bool {
        Self::bit(&self.a, self.aw, idx)
    }

    #[inline(always)]
    fn b_set(&self, idx: usize) -> bool {
        Self::bit(&self.b, self.bw, idx)
    }

    /// One packed word of the `a` snapshot (all-zero past its extent).
    #[inline(always)]
    fn word_a(&self, w: usize) -> u64 {
        if w < self.aw {
            self.a[w]
        } else {
            0
        }
    }

    /// One packed word of the `b` snapshot (all-zero past its extent).
    #[inline(always)]
    fn word_b(&self, w: usize) -> u64 {
        if w < self.bw {
            self.b[w]
        } else {
            0
        }
    }

    /// The word walk of the two-input scan's fast paths: every packed
    /// word from the one holding `from` up to `dim`, as `(index of its
    /// bit 0, combined, a, b)`, all three masked to `[from, dim)`.
    #[inline(always)]
    fn words2(
        &self,
        op: ScanOp,
        from: usize,
        dim: usize,
    ) -> impl Iterator<Item = (usize, u64, u64, u64)> + '_ {
        let first = from >> 6;
        (first..dim.div_ceil(64)).map(move |w| {
            let rem = dim - (w << 6);
            let mut live = if rem >= 64 { !0u64 } else { (1u64 << rem) - 1 };
            if w == first {
                live &= !0u64 << (from & 63);
            }
            let aw = self.word_a(w) & live;
            let bw = self.word_b(w) & live;
            let comb = match op {
                ScanOp::And => aw & bw,
                ScanOp::Or => aw | bw,
            };
            (w << 6, comb, aw, bw)
        })
    }

    /// Fast-forward for the chunked two-input scan: returns the index
    /// of the next *combined* bit at or after `from` (or `dim` when
    /// none remains) plus the number of `a` and `b` bits passed over in
    /// `[from, next)` — the position-counter advances the linear probe
    /// would have made one bit at a time, batched with `count_ones`
    /// per word.
    fn scan2_skip(&self, op: ScanOp, from: usize, dim: usize) -> (usize, u64, u64) {
        let (mut askip, mut bskip) = (0u64, 0u64);
        for (base, comb, aw, bw) in self.words2(op, from, dim) {
            if comb != 0 {
                let b = comb.trailing_zeros();
                let below = (1u64 << b) - 1;
                askip += (aw & below).count_ones() as u64;
                bskip += (bw & below).count_ones() as u64;
                return (base + b as usize, askip, bskip);
            }
            askip += aw.count_ones() as u64;
            bskip += bw.count_ones() as u64;
        }
        (dim, askip, bskip)
    }

    /// How many combined positions the snapshot holds below `dim`.
    fn combined(&self, op: ScanOp, dim: usize) -> u64 {
        self.words2(op, 0, dim)
            .map(|(_, comb, _, _)| u64::from(comb.count_ones()))
            .sum()
    }
}

/// Dense statistics counters, indexed by slot / node id. `Option` on
/// the DRAM-name counters distinguishes "never touched" from "touched
/// with zero words" so the fold reproduces the reference engine's
/// map-entry creation exactly; the node-indexed counters are plain
/// vectors (their public form is dense too).
#[derive(Debug, Clone, Default)]
struct DenseStats {
    dram_reads: Vec<Option<u64>>,
    dram_writes: Vec<Option<u64>>,
    node_trips: Vec<u64>,
    node_dram_read_words: Vec<u64>,
    node_dram_write_words: Vec<u64>,
    dram_random_reads: u64,
    dram_random_writes: u64,
    alu_ops: u64,
    sram_reads: u64,
    sram_writes: u64,
    shuffle_accesses: u64,
    fifo_enqs: u64,
    fifo_deqs: u64,
    scan_bits: u64,
    scan_emits: u64,
    bv_gen_bits: u64,
    reduce_elems: u64,
}

impl From<&DramRegion> for DramState {
    fn from(r: &DramRegion) -> Self {
        DramState {
            mapped: r.mapped,
            input: !r.written,
            kind: r.kind,
            off: r.offset,
            len: r.size,
        }
    }
}

/// The machine state a program executes against: DRAM plus on-chip
/// memories, variable bindings, and statistics — all held in dense,
/// slot-indexed vectors laid out by the link-and-lower pass
/// ([`crate::bytecode`]).
///
/// # Example
///
/// ```
/// use stardust_spatial::{Machine, SpatialProgram, SpatialStmt, SExpr, Counter, MemKind};
/// use stardust_spatial::ir::MemDecl;
///
/// // y[i] = x[i] * 2 over a 4-element DRAM vector.
/// let mut p = SpatialProgram::new("double");
/// p.add_dram("x", 4);
/// p.add_dram("y", 4);
/// p.accel.push(SpatialStmt::Alloc(MemDecl::new("xs", MemKind::Sram, 4)));
/// p.accel.push(SpatialStmt::Load {
///     dst: "xs".into(), src: "x".into(),
///     start: SExpr::Const(0.0), end: SExpr::Const(4.0), par: 1,
/// });
/// p.accel.push(SpatialStmt::Foreach {
///     id: 0,
///     counter: Counter::range_to("i", SExpr::Const(4.0)),
///     par: 1,
///     body: vec![SpatialStmt::StoreScalar {
///         dst: "y".into(),
///         index: SExpr::var("i"),
///         value: SExpr::mul(SExpr::read("xs", SExpr::var("i")), SExpr::Const(2.0)),
///     }],
/// });
/// p.assign_ids();
///
/// let mut m = Machine::new(&p);
/// m.write_dram("x", &[1.0, 2.0, 3.0, 4.0]).unwrap();
/// m.run(&p).unwrap();
/// assert_eq!(m.dram("y").unwrap(), &[2.0, 4.0, 6.0, 8.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    /// The one program this machine runs: its bytecode, its symbol
    /// table, and the layouts every slot-indexed vector below is sized
    /// from. Fixed at construction.
    compiled: Arc<CompiledProgram>,
    /// Per-slot DRAM placement; the storage behind it lives in
    /// `dram_input`/`dram_out`.
    dram_state: Vec<DramState>,
    /// The read-only input segment of the DRAM arena, shared with the
    /// compiled program's pristine zero image or a bound [`DramImage`].
    /// Copy-on-write: privatized on the machine's first write into it.
    dram_input: Arc<Vec<f64>>,
    /// The machine-owned output segment of the DRAM arena.
    dram_out: Vec<f64>,
    /// Per-slot on-chip allocation state; the storage behind it lives
    /// in `words`/`bits`.
    chip: Vec<ChipState>,
    /// The flat word arena: SRAM contents, FIFO rings, and registers,
    /// at the offsets recorded in `chip`.
    words: Vec<f64>,
    /// The flat bitset arena: packed bit vectors (64 bits per word).
    bits: Vec<u64>,
    env: Vec<Option<f64>>,
    dense: DenseStats,
    stats: ExecStats,
    node_stack: Vec<usize>,
    scratch: Vec<usize>,
    vstack: Vec<f64>,
    /// The lane stack and chunk buffers of [`crate::VecClass::Reduce`],
    /// [`crate::VecClass::Scan`] and [`crate::VecClass::SegReduce`]
    /// loops, kept across loop entries so entering one zeroes nothing.
    lane_scratch: Option<Box<LaneScratch>>,
    scan_pool: Vec<ScanBuf>,
    scan_depth: usize,
    /// Configured resource limits ([`Machine::set_budget`]); armed into
    /// the countdown fields below at each run entry. Cleared by
    /// [`Machine::reset`] / pool check-in.
    budget: RunBudget,
    /// Armed step countdown (`u64::MAX` = unlimited). Hot loops mirror
    /// this in a register and flush it on exit, like the trip counters.
    fuel: u64,
    /// What hitting zero fuel means (budget vs. min-folded injected
    /// fault from the [`crate::faults`] harness).
    fuel_cause: FuelCause,
    /// The step count at which the armed fuel event fires (for error
    /// messages).
    step_limit: u64,
    /// Armed DRAM-word countdown (`u64::MAX` = unlimited).
    dram_fuel: u64,
    /// Armed injected-allocation-failure countdown (`u64::MAX` = none).
    alloc_fuel: u64,
    /// Armed absolute deadline, from `budget.deadline` at run entry.
    deadline_at: Option<Instant>,
    /// Whether any amortized back-edge check (deadline/cancel) is armed.
    interrupts: bool,
    /// Set at run entry, cleared only when the run returns `Ok` — so a
    /// structured error *or* a panic leaves it set, and the pool's
    /// check-in quarantines the machine instead of recycling it.
    poisoned: bool,
    /// Armed only for sharded runs (see [`crate::shard`]): a bitset
    /// over the output-segment words recording exactly which words the
    /// program stored, so the merge can replay a shard's writes in
    /// shard order. `None` (the default) costs one untaken branch per
    /// DRAM store.
    write_log: Option<Vec<u64>>,
    /// Whether the data-parallel tier (see [`crate::vector`]) is
    /// active. On by default;
    /// runtime-togglable via [`Machine::set_vector_mode`] so one
    /// process measures scalar vs vector on identical state. Results,
    /// statistics, and abort points are bit-identical either way.
    vector_enabled: bool,
}
