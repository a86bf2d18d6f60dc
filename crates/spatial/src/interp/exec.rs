//! Statement executors over the flat arenas: allocation, bulk and
//! scalar DRAM traffic, on-chip reads and writes, FIFO rings,
//! bit-vector generation, and scan snapshots. Operands arrive already
//! evaluated; every tier above calls down into these.

use std::ops::Range;

use super::image::{dram_words, dram_words_mut};
use super::{ChipState, ChipTag, Machine, RunError, ScanBuf};
use crate::faults;
use crate::ir::MemKind;
use crate::resolve::{bit_words_for, Slot};
use crate::vector;

// --- FIFO ring primitives over a word-arena region -------------------
//
// A FIFO occupies `st.wcap` words at `st.woff`; `st.head` is the read
// position and `st.len` the element count. The queue itself is
// unbounded (matching the reference engine's `VecDeque`): when an
// enqueue would exceed the region, the ring relocates to a larger
// region at the end of the arena. Free functions (not methods) so
// callers can split-borrow `words` against other machine fields.

/// Makes room for `additional` more elements, relocating and
/// linearizing the ring at the end of the arena when the current
/// region is too small.
pub(super) fn fifo_reserve(words: &mut Vec<f64>, st: &mut ChipState, additional: usize) {
    let need = st.len + additional;
    if need <= st.wcap {
        return;
    }
    let new_cap = need.next_power_of_two().max(4);
    let new_off = words.len();
    words.resize(new_off + new_cap, 0.0);
    for i in 0..st.len {
        words[new_off + i] = words[st.woff + (st.head + i) % st.wcap];
    }
    st.woff = new_off;
    st.wcap = new_cap;
    st.head = 0;
}

/// The arena offset, relative to the ring's region, of the element `k`
/// places past the head, for `k <= wcap`. `head < wcap`, so one
/// compare-and-subtract wraps it: no integer division on a push or pop.
#[inline(always)]
fn ring_at(st: &ChipState, k: usize) -> usize {
    let at = st.head + k;
    if at >= st.wcap {
        at - st.wcap
    } else {
        at
    }
}

/// Appends one element. Capacity must have been reserved.
#[inline(always)]
pub(super) fn fifo_push(words: &mut [f64], st: &mut ChipState, v: f64) {
    debug_assert!(st.len < st.wcap, "fifo_push without reserve");
    words[st.woff + ring_at(st, st.len)] = v;
    st.len += 1;
}

/// Appends `src` as at most two run copies. Capacity must have been
/// reserved.
pub(super) fn fifo_extend(words: &mut [f64], st: &mut ChipState, src: &[f64]) {
    debug_assert!(st.len + src.len() <= st.wcap, "fifo_extend without reserve");
    let tail = ring_at(st, st.len);
    let first = src.len().min(st.wcap - tail);
    words[st.woff + tail..st.woff + tail + first].copy_from_slice(&src[..first]);
    words[st.woff..st.woff + src.len() - first].copy_from_slice(&src[first..]);
    st.len += src.len();
}

/// Pops the front element, or `None` when empty.
#[inline(always)]
fn fifo_pop(words: &[f64], st: &mut ChipState) -> Option<f64> {
    if st.len == 0 {
        return None;
    }
    let v = words[st.woff + st.head];
    st.head = ring_at(st, 1);
    st.len -= 1;
    Some(v)
}

/// The word ranges of the first `n <= len` elements, in queue order:
/// the run up to the region's end, then the wrapped run from its start.
pub(super) fn fifo_runs(st: &ChipState, n: usize) -> (Range<usize>, Range<usize>) {
    let first = n.min(st.wcap - st.head);
    let at = st.woff + st.head;
    (at..at + first, st.woff..st.woff + n - first)
}

/// Pops the first `n <= len` elements unread.
#[inline(always)]
pub(super) fn fifo_drop(st: &mut ChipState, n: usize) {
    debug_assert!(n <= st.len, "fifo_drop past the tail");
    st.head = ring_at(st, n);
    st.len -= n;
}

/// Drops all elements (the reference engine's drained-on-error state).
#[inline(always)]
fn fifo_clear(st: &mut ChipState) {
    st.head = 0;
    st.len = 0;
}

#[inline]
pub(super) fn index_of(v: f64, context: impl FnOnce() -> String) -> Result<usize, RunError> {
    if v < 0.0 {
        return Err(RunError::NegativeIndex {
            context: context(),
            value: v,
        });
    }
    // Exact-integer fast path: the cast round-trips iff `v` is a
    // non-negative integer below 2^64, where `round` is the identity.
    // This keeps `f64::round` (a libm call on baseline x86-64) off the
    // hot path without changing a single result.
    let t = v as usize;
    if t as f64 == v {
        return Ok(t);
    }
    Ok(v.round() as usize)
}

impl Machine {
    fn current_node(&self) -> Option<usize> {
        // Superinstructions push in nesting order, so the last entry is
        // the innermost active loop.
        self.node_stack.last().copied()
    }

    /// Reads a register slot.
    #[inline(always)]
    pub(super) fn reg_value(&self, reg: Slot) -> Result<f64, RunError> {
        let st = &self.chip[reg as usize];
        if st.tag == ChipTag::Reg {
            Ok(self.words[st.woff])
        } else {
            Err(self.unknown_chip(reg))
        }
    }

    /// Dequeues one element, counting the dequeue before the slot check
    /// exactly as the reference engine does.
    #[inline(always)]
    pub(super) fn deq_value(&mut self, fifo: Slot) -> Result<f64, RunError> {
        self.dense.fifo_deqs += 1;
        let st = &mut self.chip[fifo as usize];
        if st.tag != ChipTag::Fifo {
            return Err(self.unknown_chip(fifo));
        }
        match fifo_pop(&self.words, st) {
            Some(v) => Ok(v),
            None => Err(RunError::FifoUnderflow(
                self.compiled.syms().chip_name(fifo).to_string(),
            )),
        }
    }

    /// Shared `mem[index]` read behind every operand shape:
    /// on-chip first, then the SparseDRAM random-read fallback. `ix` is
    /// the already-evaluated (f64) index. The on-chip fast path is a
    /// bounds check plus one arena load.
    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    pub(super) fn read_mem_value(
        &mut self,
        chip: Slot,
        dram: Slot,
        ix: f64,
        random: bool,
    ) -> Result<f64, RunError> {
        let ix = index_of(ix, || self.compiled.syms().chip_name(chip).to_string())?;
        let st = &self.chip[chip as usize];
        match st.tag {
            ChipTag::Words => {
                if ix >= st.len {
                    return Err(RunError::OutOfBounds {
                        mem: self.compiled.syms().chip_name(chip).to_string(),
                        index: ix as i64,
                        len: st.len,
                    });
                }
                let v = self.words[st.woff + ix];
                self.dense.sram_reads += 1;
                if random && st.kind == MemKind::SparseSram {
                    self.dense.shuffle_accesses += 1;
                }
                Ok(v)
            }
            ChipTag::None => {
                if let Some(arr) = self.dram_words_of(dram) {
                    let len = arr.len();
                    let v = match arr.get(ix) {
                        Some(v) => *v,
                        None => {
                            return Err(RunError::OutOfBounds {
                                mem: self.compiled.syms().dram_name(dram).to_string(),
                                index: ix as i64,
                                len,
                            })
                        }
                    };
                    self.charge_dram(1)?;
                    self.dense.dram_random_reads += 1;
                    Ok(v)
                } else {
                    Err(self.unknown_chip(chip))
                }
            }
            _ => Err(self.unknown_chip(chip)),
        }
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    pub(super) fn write_on_chip(
        &mut self,
        mem: Slot,
        ix: usize,
        value: f64,
        random: bool,
        accumulate: bool,
    ) -> Result<(), RunError> {
        let st = self.chip[mem as usize];
        if st.tag != ChipTag::Words {
            return Err(self.unknown_chip(mem));
        }
        if ix >= st.len {
            return Err(RunError::OutOfBounds {
                mem: self.compiled.syms().chip_name(mem).to_string(),
                index: ix as i64,
                len: st.len,
            });
        }
        let slot = &mut self.words[st.woff + ix];
        if accumulate {
            *slot += value;
        } else {
            *slot = value;
        }
        self.dense.sram_writes += 1;
        if (random || accumulate) && st.kind == MemKind::SparseSram {
            self.dense.shuffle_accesses += 1;
        }
        Ok(())
    }

    // --- Statement executors behind the bytecode dispatch loop.
    // --- Operands are already evaluated.

    pub(super) fn do_alloc(
        &mut self,
        slot: Slot,
        kind: MemKind,
        size: usize,
    ) -> Result<(), RunError> {
        if self.alloc_fuel == 0 {
            self.alloc_fuel = u64::MAX;
            faults::consume_alloc();
            return Err(RunError::InjectedFault {
                site: format!("alloc {}", self.compiled.syms().chip_name(slot)),
            });
        }
        self.alloc_fuel -= 1;
        match kind {
            MemKind::Sram | MemKind::SparseSram => {
                self.reserve_words(slot, size);
                let st = &mut self.chip[slot as usize];
                st.tag = ChipTag::Words;
                st.kind = kind;
                st.len = size;
                let off = st.woff;
                self.words[off..off + size].fill(0.0);
            }
            MemKind::Fifo => {
                self.reserve_words(slot, size.max(1));
                let st = &mut self.chip[slot as usize];
                st.tag = ChipTag::Fifo;
                st.kind = kind;
                fifo_clear(st);
            }
            MemKind::Reg => {
                self.reserve_words(slot, 1);
                let st = &mut self.chip[slot as usize];
                st.tag = ChipTag::Reg;
                st.kind = kind;
                let off = st.woff;
                self.words[off] = 0.0;
            }
            MemKind::BitVector => {
                let nw = bit_words_for(size);
                self.reserve_bits(slot, nw);
                let st = &mut self.chip[slot as usize];
                st.tag = ChipTag::Bits;
                st.kind = kind;
                st.len = size;
                let off = st.boff;
                self.bits[off..off + nw].fill(0);
            }
            MemKind::Dram | MemKind::SparseDram => {
                // DRAM is declared at program level, not allocated in
                // Accel.
                return Err(self.unknown_chip(slot));
            }
        }
        Ok(())
    }

    pub(super) fn do_load(&mut self, dst: Slot, src: Slot, s: f64, e: f64) -> Result<(), RunError> {
        let s = index_of(s, || "load start".to_string())?;
        let e = index_of(e, || "load end".to_string())?;
        let src_st = self.dram_state[src as usize];
        if !src_st.mapped {
            return Err(self.unknown_dram(src));
        }
        let alen = src_st.len;
        if e > alen {
            return Err(RunError::OutOfBounds {
                mem: self.compiled.syms().dram_name(src).to_string(),
                index: e as i64,
                len: alen,
            });
        }
        let n = match e.checked_sub(s) {
            Some(n) => n,
            None => {
                return Err(RunError::NegativeIndex {
                    context: format!("load length (start {s} beyond end {e})"),
                    value: e as f64 - s as f64,
                })
            }
        };
        self.charge_dram(n as u64)?;
        self.dense
            .note_dram_read(src, n as u64, self.current_node());
        match self.chip[dst as usize].tag {
            ChipTag::Words => {
                let st = self.chip[dst as usize];
                if n > st.len {
                    return Err(RunError::OutOfBounds {
                        mem: self.compiled.syms().chip_name(dst).to_string(),
                        index: n as i64,
                        len: st.len,
                    });
                }
                {
                    let Machine {
                        dram_input,
                        dram_out,
                        words,
                        ..
                    } = self;
                    let src_arr = dram_words(dram_input, dram_out, src_st).expect("checked");
                    words[st.woff..st.woff + n].copy_from_slice(&src_arr[s..e]);
                }
                self.dense.sram_writes += n as u64;
                Ok(())
            }
            ChipTag::Fifo => {
                self.dense.fifo_enqs += n as u64;
                let Machine {
                    dram_input,
                    dram_out,
                    words,
                    chip,
                    ..
                } = self;
                let st = &mut chip[dst as usize];
                fifo_reserve(words, st, n);
                let src_arr = dram_words(dram_input, dram_out, src_st).expect("checked");
                fifo_extend(words, st, &src_arr[s..e]);
                Ok(())
            }
            _ => Err(RunError::UnknownMemory(
                self.compiled.syms().chip_name(dst).to_string(),
            )),
        }
    }

    pub(super) fn do_store(
        &mut self,
        dst: Slot,
        off: usize,
        src: Slot,
        n: usize,
    ) -> Result<(), RunError> {
        let st = self.chip[src as usize];
        if st.tag != ChipTag::Words {
            return Err(self.unknown_chip(src));
        }
        if n > st.len {
            return Err(RunError::OutOfBounds {
                mem: self.compiled.syms().chip_name(src).to_string(),
                index: n as i64,
                len: st.len,
            });
        }
        self.dense.sram_reads += n as u64;
        self.charge_dram(n as u64)?;
        {
            let Machine {
                dram_input,
                dram_out,
                dram_state,
                words,
                compiled,
                ..
            } = self;
            let syms = compiled.syms();
            let arr = match dram_words_mut(dram_input, dram_out, dram_state[dst as usize]) {
                Some(arr) => arr,
                None => return Err(RunError::UnknownMemory(syms.dram_name(dst).to_string())),
            };
            if off + n > arr.len() {
                return Err(RunError::OutOfBounds {
                    mem: syms.dram_name(dst).to_string(),
                    index: (off + n) as i64,
                    len: arr.len(),
                });
            }
            arr[off..off + n].copy_from_slice(&words[st.woff..st.woff + n]);
        }
        self.log_dram_write(dst, off, n);
        self.dense
            .note_dram_write(dst, n as u64, self.current_node());
        Ok(())
    }

    pub(super) fn do_stream_store(
        &mut self,
        dst: Slot,
        off: usize,
        fifo: Slot,
        n: usize,
    ) -> Result<(), RunError> {
        if self.chip[fifo as usize].tag != ChipTag::Fifo {
            return Err(RunError::UnknownMemory(
                self.compiled.syms().chip_name(fifo).to_string(),
            ));
        }
        if self.chip[fifo as usize].len < n {
            // The reference engine pops one element at a time and fails
            // on the first missing one — the FIFO ends up drained and
            // the dequeues uncounted.
            fifo_clear(&mut self.chip[fifo as usize]);
            return Err(RunError::FifoUnderflow(
                self.compiled.syms().chip_name(fifo).to_string(),
            ));
        }
        self.dense.fifo_deqs += n as u64;
        self.charge_dram(n as u64)?;
        {
            let Machine {
                dram_input,
                dram_out,
                dram_state,
                words,
                chip,
                compiled,
                ..
            } = self;
            let syms = compiled.syms();
            let st = &mut chip[fifo as usize];
            let arr = match dram_words_mut(dram_input, dram_out, dram_state[dst as usize]) {
                Some(arr) => arr,
                None => {
                    fifo_drop(st, n);
                    return Err(RunError::UnknownMemory(syms.dram_name(dst).to_string()));
                }
            };
            if off + n > arr.len() {
                let len = arr.len();
                fifo_drop(st, n);
                return Err(RunError::OutOfBounds {
                    mem: syms.dram_name(dst).to_string(),
                    index: (off + n) as i64,
                    len,
                });
            }
            // The ring's first `n` elements: at most two run copies.
            let (head, wrapped) = fifo_runs(st, n);
            let k = head.len();
            arr[off..off + k].copy_from_slice(&words[head]);
            arr[off + k..off + n].copy_from_slice(&words[wrapped]);
            fifo_drop(st, n);
        }
        self.log_dram_write(dst, off, n);
        self.dense
            .note_dram_write(dst, n as u64, self.current_node());
        Ok(())
    }

    pub(super) fn do_store_scalar(&mut self, dst: Slot, ix: usize, v: f64) -> Result<(), RunError> {
        let st = self.dram_state[dst as usize];
        if !st.mapped {
            return Err(RunError::UnknownMemory(
                self.compiled.syms().dram_name(dst).to_string(),
            ));
        }
        if ix >= st.len {
            return Err(RunError::OutOfBounds {
                mem: self.compiled.syms().dram_name(dst).to_string(),
                index: ix as i64,
                len: st.len,
            });
        }
        self.charge_dram(1)?;
        let arr = self.dram_words_of_mut(dst).expect("checked");
        arr[ix] = v;
        self.log_dram_write(dst, ix, 1);
        self.dense.dram_random_writes += 1;
        Ok(())
    }

    pub(super) fn do_set_reg(&mut self, reg: Slot, v: f64) -> Result<(), RunError> {
        let st = self.chip[reg as usize];
        if st.tag != ChipTag::Reg {
            return Err(self.unknown_chip(reg));
        }
        self.words[st.woff] = v;
        Ok(())
    }

    pub(super) fn do_enq(&mut self, fifo: Slot, v: f64) -> Result<(), RunError> {
        if self.chip[fifo as usize].tag != ChipTag::Fifo {
            return Err(self.unknown_chip(fifo));
        }
        let Machine { words, chip, .. } = self;
        let st = &mut chip[fifo as usize];
        fifo_reserve(words, st, 1);
        fifo_push(words, st, v);
        self.dense.fifo_enqs += 1;
        Ok(())
    }

    /// Generates bit vector `dst` over `d` bits from the `n` coordinates
    /// at `src` (an SRAM from word `s`, or a FIFO's front) in one pass:
    /// the source is checked and counted first, then the destination,
    /// whose words are cleared and whose bits are set straight from the
    /// source words. A FIFO source loses its `n` coordinates whatever the
    /// destination does, as the reference engine pops them first.
    pub(super) fn do_gen_bit_vector(
        &mut self,
        dst: Slot,
        src: Slot,
        s: usize,
        n: usize,
        d: usize,
    ) -> Result<(), RunError> {
        let sst = self.chip[src as usize];
        let (run, wrapped) = match sst.tag {
            ChipTag::Fifo => {
                if sst.len < n {
                    // Reference semantics: pop until empty, fail.
                    fifo_clear(&mut self.chip[src as usize]);
                    return Err(RunError::FifoUnderflow(
                        self.compiled.syms().chip_name(src).to_string(),
                    ));
                }
                self.dense.fifo_deqs += n as u64;
                fifo_runs(&sst, n)
            }
            ChipTag::Words => {
                if s + n > sst.len {
                    return Err(RunError::OutOfBounds {
                        mem: self.compiled.syms().chip_name(src).to_string(),
                        index: (s + n) as i64,
                        len: sst.len,
                    });
                }
                self.dense.sram_reads += n as u64;
                let at = sst.woff + s;
                (at..at + n, 0..0)
            }
            _ => {
                return Err(RunError::UnknownMemory(
                    self.compiled.syms().chip_name(src).to_string(),
                ))
            }
        };
        let result = self.set_coordinate_bits(dst, d, [run, wrapped]);
        if sst.tag == ChipTag::Fifo {
            fifo_drop(&mut self.chip[src as usize], n);
        }
        result
    }

    /// The destination half of [`Machine::do_gen_bit_vector`]: the
    /// coordinates are the words of `runs`, in order.
    fn set_coordinate_bits(
        &mut self,
        dst: Slot,
        d: usize,
        runs: [Range<usize>; 2],
    ) -> Result<(), RunError> {
        if self.chip[dst as usize].tag != ChipTag::Bits {
            return Err(RunError::UnknownMemory(
                self.compiled.syms().chip_name(dst).to_string(),
            ));
        }
        // The logical bit length only grows (matching the old
        // `Vec<bool>` resize); regeneration clears every word up to the
        // new length before setting the coordinate bits.
        let new_len = self.chip[dst as usize].len.max(d);
        let nw = bit_words_for(new_len);
        self.reserve_bits(dst, nw);
        let st = &mut self.chip[dst as usize];
        st.len = new_len;
        let bits = &mut self.bits[st.boff..st.boff + nw];
        bits.fill(0);
        for run in runs {
            for &v in &self.words[run] {
                // `index_of`'s conversion, exact integers without a
                // `round` call; the first bad coordinate fails.
                let c = match vector::lane_index(v) {
                    Some(c) if c < new_len => c,
                    Some(c) => {
                        return Err(RunError::OutOfBounds {
                            mem: self.compiled.syms().chip_name(dst).to_string(),
                            index: c as i64,
                            len: new_len,
                        })
                    }
                    None => {
                        return Err(RunError::NegativeIndex {
                            context: "genbv coordinate".to_string(),
                            value: v,
                        })
                    }
                };
                bits[c >> 6] |= 1u64 << (c & 63);
            }
        }
        self.dense.bv_gen_bits += d as u64;
        Ok(())
    }

    /// Snapshots both bit vectors of a `Scan2` into the scan pool slot
    /// at the current depth, returning the scan dimension (the longer
    /// of the two). Counts the entry's `scan_bits`.
    pub(super) fn scan_snapshot2(&mut self, bv_a: Slot, bv_b: Slot) -> Result<usize, RunError> {
        let depth = self.scan_depth;
        if self.scan_pool.len() <= depth {
            self.scan_pool.resize_with(depth + 1, ScanBuf::default);
        }
        // Error order matches the reference engine: `a` is examined
        // first.
        let sa = self.chip[bv_a as usize];
        if sa.tag != ChipTag::Bits {
            return Err(self.unknown_chip(bv_a));
        }
        let sb = self.chip[bv_b as usize];
        if sb.tag != ChipTag::Bits {
            return Err(self.unknown_chip(bv_b));
        }
        let dim = sa.len.max(sb.len);
        let buf = &mut self.scan_pool[depth];
        let naw = bit_words_for(sa.len);
        let nbw = bit_words_for(sb.len);
        buf.aw = ScanBuf::copy_into(&mut buf.a, &self.bits[sa.boff..sa.boff + naw]);
        buf.bw = ScanBuf::copy_into(&mut buf.b, &self.bits[sb.boff..sb.boff + nbw]);
        self.dense.scan_bits += 2 * dim as u64;
        Ok(dim)
    }
}
