//! The data-parallel (vector) execution tier of the bytecode engine.
//!
//! The scalar superinstruction loops in [`crate::interp`] spend their
//! time on per-element arena loads and per-op dispatch — exactly the
//! streamed pos/crd/vals traffic the Sparse Abstract Machine models as
//! wide dataflow streams. This module holds the lane-level helpers the
//! lane-program chunks of [`crate::VecClass::Reduce`],
//! [`crate::VecClass::Scan`] and [`crate::VecClass::SegReduce`] loops
//! use to process [`REDUCE_LANES`] iterations at a time: bounds checks
//! hoist to one comparison per chunk, index conversion and arithmetic
//! happen per lane, and every *reduction* stays in serial lane order so
//! f64 results are bit-identical to the scalar engine.
//!
//! The lane kernels are portable fixed-trip loops over `[f64; N]`,
//! shaped so the autovectorizer can take them (no early exits, no
//! cross-lane dependencies). [`LANES`] is not a chunk width: it is the
//! cache-line alignment of every region of the flat word arena.
//!
//! Fuel, interrupt, and statistics *semantics* are owned by the
//! interpreter; the only scheduling helper here is `burst`, which
//! bounds how many iterations may run without an abort or interrupt
//! check so budget aborts land on the same step boundary as the scalar
//! engine.

use crate::interp::INTERRUPT_MASK;

/// Alignment of every region of the flat word arena, in f64 words: one
/// cache line (64 bytes).
pub const LANES: usize = 8;

/// Largest f64 loop bound the vector tier treats as exactly
/// representable for integer trip-count arithmetic (2^32 — far above
/// any arena extent, far below the 2^53 limit where `f64` stops
/// counting integers).
const MAX_EXACT_BOUND: f64 = 4_294_967_296.0;

/// Converts an integral unit-step loop window `[lo, hi)` into
/// `(base, trips)`: the starting index as a `usize` and the exact trip
/// count. Returns `None` when `lo` is negative or non-integral, or the
/// bounds are too large for exact f64 integer arithmetic — the scalar
/// loop then owns the (error or fallback) semantics.
pub(crate) fn unit_trips(lo: f64, hi: f64) -> Option<(usize, u64)> {
    // `contains` (not `hi > bound`) so a NaN bound also bails. A
    // negative `hi` falls out of range too — the window is empty and
    // the scalar loop handles it identically.
    let exact = 0.0..=MAX_EXACT_BOUND;
    if !exact.contains(&lo) || !(exact.contains(&hi) || hi <= lo) {
        return None;
    }
    let base = lo as usize;
    if base as f64 != lo {
        return None;
    }
    if hi <= lo {
        return Some((base, 0));
    }
    // Counting `v = lo, lo+1, ...` while `v < hi`: the count is
    // `ceil(hi) - lo` (for integral `hi` exactly `hi - lo`).
    Some((base, (hi.ceil() - lo) as u64))
}

/// `v` as an index when it is an exact integer in `[0, 2^32)` — values
/// `index_of` converts without rounding — else `None`.
pub(crate) fn exact_index(v: f64) -> Option<usize> {
    // The saturating cast round-trips iff `v` is such an integer (NaN
    // casts to 0 and compares unequal); `fract` would be a libm call on
    // baseline x86-64.
    let t = v as u32;
    (f64::from(t) == v).then_some(t as usize)
}

/// Iterations a [`crate::VecClass::Reduce`], [`crate::VecClass::Scan`]
/// or [`crate::VecClass::SegReduce`] chunk evaluates per pass over its
/// lane program, so the dispatch of each lane op amortizes over 32
/// iterations. A loop's last chunk may be shorter.
pub const REDUCE_LANES: usize = 32;

/// Longest lane program [`crate::VecClass::Reduce`] admits, in ops
/// (the Table-3 inner products need at most 9).
pub(crate) const MAX_LANE_OPS: usize = 16;

/// Deepest lane stack a lane program may build.
pub(crate) const MAX_LANE_DEPTH: usize = 6;

/// Most FIFO heads one reduce loop's body may bind.
pub(crate) const MAX_LANE_HEADS: usize = 4;

/// Most lane statements one [`crate::VecClass::Scan`] loop may hold
/// (its body plus its own fold; the Table-3 kernels need at most 3).
pub(crate) const MAX_LANE_STMTS: usize = 4;

/// Most row columns one [`crate::VecClass::SegReduce`] row loop may
/// open (MatTransMul and Residual open 7).
pub(crate) const MAX_SEG_COLS: usize = 8;

/// Most row programs one [`crate::VecClass::SegReduce`] row loop may
/// hold (MatTransMul and Residual hold 7).
pub(crate) const MAX_SEG_PROGS: usize = 8;

/// Most top-level body ops one [`crate::VecClass::SegReduce`] row loop
/// may hold (MatTransMul and Residual hold 13).
pub(crate) const MAX_SEG_OPS: usize = 16;

/// How many consecutive iterations may run with *no* per-iteration
/// abort or interrupt check, starting from the current `fuel` value.
/// The scalar loops check fuel exhaustion at every iteration top and
/// run the amortized deadline/cancel check on each iteration whose
/// post-decrement fuel hits the [`INTERRUPT_MASK`] boundary; a vector
/// chunk must stop *before* the first such iteration so that check
/// fires at the identical fuel value, executed by the scalar step that
/// follows the burst.
pub(crate) fn burst(trips_left: u64, fuel: u64, interrupts: bool) -> u64 {
    let mut n = trips_left.min(fuel);
    if interrupts {
        // The first checking iteration is the i-th (1-based) with
        // `fuel - i ≡ 0 (mod INTERRUPT_MASK + 1)`.
        let r = fuel & INTERRUPT_MASK;
        let first_check = if r == 0 { INTERRUPT_MASK + 1 } else { r };
        n = n.min(first_check - 1);
    }
    n
}

/// Per-lane index conversion with [`crate::interp`] `index_of`
/// semantics, minus the error: writes each lane's converted index and
/// returns `false` if any lane is negative (the caller re-runs the
/// chunk scalar so the `NegativeIndex` error surfaces at the exact
/// iteration, with the exact partial state).
#[inline(always)]
pub(crate) fn to_indices<const N: usize>(src: &[f64; N], out: &mut [usize; N]) -> bool {
    let mut ok = true;
    for k in 0..N {
        let v = src[k];
        ok &= v >= 0.0;
        out[k] = round_index(v);
    }
    ok
}

/// One lane's index with [`crate::interp`] `index_of` semantics: `None`
/// exactly where `index_of` raises `NegativeIndex`.
#[inline(always)]
pub(crate) fn lane_index(v: f64) -> Option<usize> {
    if v < 0.0 {
        return None;
    }
    Some(round_index(v))
}

/// `index_of`'s conversion of a non-negative value. Exact-integer fast
/// path: the cast round-trips iff `v` is an integer below 2^32 (a `u32`
/// converts in one instruction each way, a `u64` does not).
#[inline(always)]
fn round_index(v: f64) -> usize {
    let t = v as u32;
    if f64::from(t) == v {
        t as usize
    } else {
        v.round() as usize
    }
}

/// `out[k] = f(k)` for every lane: a fixed-trip loop with no early exit,
/// the shape the autovectorizer turns into packed arithmetic once `f` is
/// inlined.
#[inline(always)]
fn fill_lanes<const N: usize>(out: &mut [f64; N], f: impl Fn(usize) -> f64) {
    for (k, slot) in out.iter_mut().enumerate() {
        *slot = f(k);
    }
}

/// [`fill_lanes`] for the operators that can refuse a lane (`Div`/`Mod`
/// by zero): returns `false` if any lane did. Like [`to_indices`], the
/// caller then re-runs the chunk scalar so `DivisionByZero` surfaces at
/// the exact iteration, with the exact partial state.
#[inline(always)]
fn try_fill_lanes<const N: usize>(out: &mut [f64; N], f: impl Fn(usize) -> Option<f64>) -> bool {
    let mut ok = true;
    for (k, slot) in out.iter_mut().enumerate() {
        match f(k) {
            Some(v) => *slot = v,
            None => ok = false,
        }
    }
    ok
}

/// `out[k] = a[k] op b[k]` — the two-stream lane kernel
/// (`A_vals[j] * x[crd[j]]`). `false` when a lane divides by zero (see
/// [`try_fill_lanes`]).
#[inline(always)]
#[must_use]
pub(crate) fn bin_lanes<const N: usize>(
    op: crate::ir::BinSOp,
    a: &[f64; N],
    b: &[f64; N],
    out: &mut [f64; N],
) -> bool {
    use crate::ir::BinSOp::*;
    match op {
        Add => fill_lanes(out, |k| a[k] + b[k]),
        Sub => fill_lanes(out, |k| a[k] - b[k]),
        Mul => fill_lanes(out, |k| a[k] * b[k]),
        Div | Mod => return try_fill_lanes(out, |k| op.apply(a[k], b[k])),
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::BinSOp;

    #[test]
    fn unit_trips_counts_exact_windows() {
        assert_eq!(unit_trips(0.0, 0.0), Some((0, 0)));
        assert_eq!(unit_trips(0.0, 1.0), Some((0, 1)));
        assert_eq!(unit_trips(2.0, 5.0), Some((2, 3)));
        // Fractional upper bound: v = 2, 3, 4, 5 all satisfy v < 5.5.
        assert_eq!(unit_trips(2.0, 5.5), Some((2, 4)));
        // Upper bound below lower: zero trips, not a wrap.
        assert_eq!(unit_trips(4.0, 2.0), Some((4, 0)));
        // Non-integral or negative lower bounds defer to the scalar loop.
        assert_eq!(unit_trips(0.5, 4.0), None);
        assert_eq!(unit_trips(-1.0, 4.0), None);
        assert_eq!(unit_trips(0.0, 1e18), None);
    }

    #[test]
    fn exact_index_takes_only_exact_integers_below_2_pow_32() {
        assert_eq!(exact_index(0.0), Some(0));
        assert_eq!(exact_index(-0.0), Some(0));
        assert_eq!(exact_index(301.0), Some(301));
        assert_eq!(exact_index(4_294_967_295.0), Some(4_294_967_295));
        for v in [2.5, -1.0, 4_294_967_296.0, 1e18, f64::NAN, f64::INFINITY] {
            assert_eq!(exact_index(v), None, "{v}");
        }
    }

    #[test]
    fn burst_stops_at_fuel_and_interrupt_boundaries() {
        // No interrupts: bounded by trips and fuel only.
        assert_eq!(burst(100, u64::MAX, false), 100);
        assert_eq!(burst(100, 7, false), 7);
        assert_eq!(burst(0, 7, false), 0);
        // With interrupts armed, the iteration whose post-decrement
        // fuel is a multiple of INTERRUPT_MASK+1 must run scalar; the
        // burst stops one short of it.
        let period = INTERRUPT_MASK + 1;
        assert_eq!(burst(u64::MAX, period, true), period - 1);
        // fuel & MASK == 5: the 5th iteration checks, so 4 are free.
        assert_eq!(burst(u64::MAX, period + 5, true), 4);
        // fuel & MASK == 1: the very next iteration checks.
        assert_eq!(burst(u64::MAX, period + 1, true), 0);
    }

    #[test]
    fn to_indices_matches_index_of_semantics() {
        let src = [0.0, 1.0, 7.0, 2.5, 3.49, 1e9, 5e9, 42.0];
        let mut out = [0usize; 8];
        assert!(to_indices(&src, &mut out));
        // 2.5 rounds half-away-from-zero like `f64::round`; 3.49 rounds
        // down; 5e9 is past the `u32` fast path — all exactly what the
        // scalar `index_of` produces.
        assert_eq!(out, [0, 1, 7, 3, 3, 1_000_000_000, 5_000_000_000, 42]);
        let bad = [0.0, 1.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert!(!to_indices(&bad, &mut out));
    }

    #[test]
    fn lane_kernels_match_scalar_apply() {
        let a = [1.5, -2.0, 0.0, 3.25, 1e-300, 1e300, -0.0, 7.5];
        let b = [2.0, 4.5, -1.0, 0.125, 1e300, 1e-300, 3.0, -7.5];
        for op in [
            BinSOp::Add,
            BinSOp::Sub,
            BinSOp::Mul,
            BinSOp::Div,
            BinSOp::Mod,
        ] {
            let mut out = [0.0; 8];
            assert!(bin_lanes(op, &a, &b, &mut out));
            for k in 0..a.len() {
                assert_eq!(
                    Some(out[k].to_bits()),
                    op.apply(a[k], b[k]).map(f64::to_bits)
                );
            }
        }
        // A zero divisor in any lane refuses the chunk (the caller then
        // re-runs it scalar); the other operators never refuse.
        let mut zero = b;
        zero[5] = 0.0;
        let mut out = [0.0; 8];
        for op in [BinSOp::Div, BinSOp::Mod] {
            assert!(!bin_lanes(op, &a, &zero, &mut out));
        }
        assert!(bin_lanes(BinSOp::Mul, &a, &zero, &mut out));
    }
}
