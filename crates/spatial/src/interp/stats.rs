//! Execution statistics: the public, name-keyed [`ExecStats`] and the
//! fold from the machine's dense slot-indexed counters into it.

use std::collections::HashMap;

use super::DenseStats;
use crate::resolve::{Slot, SymbolTable};

/// Bytes per simulated DRAM word. The paper's accelerator model (and
/// its bandwidth math) moves 32-bit words — indices and values alike —
/// so every word of traffic counts four bytes, even though the
/// interpreter stores words as `f64` for convenience.
pub const DRAM_WORD_BYTES: u64 = 4;

/// Event counts collected during execution, the input to cycle modeling.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Words bulk-read per DRAM array.
    pub dram_reads: HashMap<String, u64>,
    /// Words bulk-written per DRAM array.
    pub dram_writes: HashMap<String, u64>,
    /// Single-element (random) DRAM reads.
    pub dram_random_reads: u64,
    /// Single-element (random) DRAM writes.
    pub dram_random_writes: u64,
    /// Iterations executed per pattern node id, dense (index = node id,
    /// trailing zeros trimmed so the representation is canonical).
    pub node_trips: Vec<u64>,
    /// DRAM words read by loads under each pattern node id (dense,
    /// trailing zeros trimmed).
    pub node_dram_read_words: Vec<u64>,
    /// DRAM words written by stores under each pattern node id (dense,
    /// trailing zeros trimmed).
    pub node_dram_write_words: Vec<u64>,
    /// Scalar ALU operations evaluated.
    pub alu_ops: u64,
    /// On-chip affine memory reads.
    pub sram_reads: u64,
    /// On-chip memory writes.
    pub sram_writes: u64,
    /// Random (data-dependent) on-chip accesses — served by the shuffle
    /// network when crossing lanes.
    pub shuffle_accesses: u64,
    /// FIFO enqueues.
    pub fifo_enqs: u64,
    /// FIFO dequeues.
    pub fifo_deqs: u64,
    /// Bits examined by scanners.
    pub scan_bits: u64,
    /// Iterations emitted by scanners (set bits / combined set bits).
    pub scan_emits: u64,
    /// Bits written while generating bit vectors.
    pub bv_gen_bits: u64,
    /// Elements folded by `Reduce` patterns.
    pub reduce_elems: u64,
}

impl ExecStats {
    /// Total words bulk-read from DRAM.
    pub fn total_dram_read_words(&self) -> u64 {
        self.dram_reads.values().sum()
    }

    /// Total words bulk-written to DRAM.
    pub fn total_dram_write_words(&self) -> u64 {
        self.dram_writes.values().sum()
    }

    /// Total DRAM traffic in bytes ([`DRAM_WORD_BYTES`]-sized words,
    /// plus random accesses).
    pub fn total_dram_bytes(&self) -> u64 {
        DRAM_WORD_BYTES
            * (self.total_dram_read_words()
                + self.total_dram_write_words()
                + self.dram_random_reads
                + self.dram_random_writes)
    }

    /// Iterations of a given pattern node.
    pub fn trips(&self, node: usize) -> u64 {
        self.node_trips.get(node).copied().unwrap_or(0)
    }

    /// Adds `delta` to a dense node-indexed counter, growing the vector
    /// on demand while keeping the no-trailing-zeros canonical form
    /// (a zero delta never creates entries).
    pub fn bump_node(counts: &mut Vec<u64>, node: usize, delta: u64) {
        if delta == 0 && node >= counts.len() {
            return;
        }
        if counts.len() <= node {
            counts.resize(node + 1, 0);
        }
        counts[node] += delta;
    }

    /// Adds every counter of `from` into `self` — the one field-wise
    /// sum behind stage, shard and job totals. `from` is destructured
    /// exhaustively, so a counter added to [`ExecStats`] fails to
    /// compile here instead of being silently dropped from totals.
    pub fn merge(&mut self, from: &ExecStats) {
        let ExecStats {
            dram_reads,
            dram_writes,
            dram_random_reads,
            dram_random_writes,
            node_trips,
            node_dram_read_words,
            node_dram_write_words,
            alu_ops,
            sram_reads,
            sram_writes,
            shuffle_accesses,
            fifo_enqs,
            fifo_deqs,
            scan_bits,
            scan_emits,
            bv_gen_bits,
            reduce_elems,
        } = from;
        for (k, v) in dram_reads {
            *self.dram_reads.entry(k.clone()).or_default() += v;
        }
        for (k, v) in dram_writes {
            *self.dram_writes.entry(k.clone()).or_default() += v;
        }
        self.dram_random_reads += dram_random_reads;
        self.dram_random_writes += dram_random_writes;
        Self::merge_node(&mut self.node_trips, node_trips);
        Self::merge_node(&mut self.node_dram_read_words, node_dram_read_words);
        Self::merge_node(&mut self.node_dram_write_words, node_dram_write_words);
        self.alu_ops += alu_ops;
        self.sram_reads += sram_reads;
        self.sram_writes += sram_writes;
        self.shuffle_accesses += shuffle_accesses;
        self.fifo_enqs += fifo_enqs;
        self.fifo_deqs += fifo_deqs;
        self.scan_bits += scan_bits;
        self.scan_emits += scan_emits;
        self.bv_gen_bits += bv_gen_bits;
        self.reduce_elems += reduce_elems;
    }

    /// Elementwise-adds a dense node-indexed counter into another.
    pub fn merge_node(into: &mut Vec<u64>, from: &[u64]) {
        if into.len() < from.len() {
            into.resize(from.len(), 0);
        }
        for (d, s) in into.iter_mut().zip(from) {
            *d += s;
        }
    }
}

impl DenseStats {
    /// Zeroes every counter while keeping the dense vectors' lengths
    /// (and hence their slot/node indexing) intact.
    pub(super) fn clear(&mut self) {
        let DenseStats {
            dram_reads,
            dram_writes,
            node_trips,
            node_dram_read_words,
            node_dram_write_words,
            dram_random_reads,
            dram_random_writes,
            alu_ops,
            sram_reads,
            sram_writes,
            shuffle_accesses,
            fifo_enqs,
            fifo_deqs,
            scan_bits,
            scan_emits,
            bv_gen_bits,
            reduce_elems,
        } = self;
        dram_reads.fill(None);
        dram_writes.fill(None);
        node_trips.fill(0);
        node_dram_read_words.fill(0);
        node_dram_write_words.fill(0);
        *dram_random_reads = 0;
        *dram_random_writes = 0;
        *alu_ops = 0;
        *sram_reads = 0;
        *sram_writes = 0;
        *shuffle_accesses = 0;
        *fifo_enqs = 0;
        *fifo_deqs = 0;
        *scan_bits = 0;
        *scan_emits = 0;
        *bv_gen_bits = 0;
        *reduce_elems = 0;
    }

    pub(super) fn note_dram_read(&mut self, slot: Slot, words: u64, node: Option<usize>) {
        *self.dram_reads[slot as usize].get_or_insert(0) += words;
        if let Some(n) = node {
            self.node_dram_read_words[n] += words;
        }
    }

    pub(super) fn note_dram_write(&mut self, slot: Slot, words: u64, node: Option<usize>) {
        *self.dram_writes[slot as usize].get_or_insert(0) += words;
        if let Some(n) = node {
            self.node_dram_write_words[n] += words;
        }
    }

    pub(super) fn fold(&self, syms: &SymbolTable) -> ExecStats {
        let mut out = ExecStats {
            dram_random_reads: self.dram_random_reads,
            dram_random_writes: self.dram_random_writes,
            alu_ops: self.alu_ops,
            sram_reads: self.sram_reads,
            sram_writes: self.sram_writes,
            shuffle_accesses: self.shuffle_accesses,
            fifo_enqs: self.fifo_enqs,
            fifo_deqs: self.fifo_deqs,
            scan_bits: self.scan_bits,
            scan_emits: self.scan_emits,
            bv_gen_bits: self.bv_gen_bits,
            reduce_elems: self.reduce_elems,
            ..ExecStats::default()
        };
        for (slot, words) in self.dram_reads.iter().enumerate() {
            if let Some(w) = words {
                out.dram_reads
                    .insert(syms.dram_name(slot as Slot).to_string(), *w);
            }
        }
        for (slot, words) in self.dram_writes.iter().enumerate() {
            if let Some(w) = words {
                out.dram_writes
                    .insert(syms.dram_name(slot as Slot).to_string(), *w);
            }
        }
        out.node_trips = trimmed(&self.node_trips);
        out.node_dram_read_words = trimmed(&self.node_dram_read_words);
        out.node_dram_write_words = trimmed(&self.node_dram_write_words);
        out
    }
}

/// Copy of a dense counter vector with trailing zeros removed — the
/// canonical public form ([`ExecStats`] node counters compare by
/// value across engines that size their vectors differently).
fn trimmed(counts: &[u64]) -> Vec<u64> {
    let end = counts
        .iter()
        .rposition(|&c| c != 0)
        .map_or(0, |last| last + 1);
    counts[..end].to_vec()
}
