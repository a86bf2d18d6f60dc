//! Level-format sparse tensor storage (`pos`/`crd`/`vals`).
//!
//! A [`SparseTensor`] packs a canonical [`CooTensor`] into the hierarchical
//! per-level storage that both TACO and Stardust iterate over: each dense
//! level is implicit, each compressed level stores a positions array and a
//! coordinates array, and a single values array holds the scalars at the
//! leaves (Fig. 8 of the paper shows the CSR instance of this layout).

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::coo::CooTensor;
use crate::dense::DenseTensor;
use crate::format::Format;
use crate::level::{LevelFormat, LevelStorage};
use crate::value::Value;

/// A sparse tensor stored in a hierarchical level format.
///
/// # Example
///
/// The matrix from Fig. 8 of the paper:
///
/// ```text
///     0 1 0 0
///     2 0 3 0        CSR:  pos [0,1,3,4,5]
///     0 4 0 0              crd [1,0,2,1,3]
///     0 0 0 5              vals [1,2,3,4,5]
/// ```
///
/// ```
/// use stardust_tensor::{CooTensor, Format, SparseTensor};
///
/// let mut coo = CooTensor::new(vec![4, 4]);
/// for (r, c, v) in [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0), (2, 1, 4.0), (3, 3, 5.0)] {
///     coo.push(&[r, c], v);
/// }
/// let b = SparseTensor::from_coo(&coo, Format::csr());
/// assert_eq!(b.pos(1), &[0, 1, 3, 4, 5]);
/// assert_eq!(b.crd(1), &[1, 0, 2, 1, 3]);
/// assert_eq!(b.vals(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
/// ```
///
/// # Identity
///
/// A tensor is immutable once built — nothing in this API hands out a
/// mutable view of `dims`, the format, a level's `pos`/`crd` or `vals` —
/// so the four live behind one [`Arc`]: [`Clone`] is a pointer bump, and
/// [`SparseTensor::fingerprint`] is computed on first use and remembered
/// by every clone.
pub struct SparseTensor<T> {
    s: Arc<Storage<T>>,
}

/// Everything a [`SparseTensor`] is, plus the memo of its fingerprint.
/// The memo is derived from the other four fields, so equality and
/// `Debug` leave it out.
struct Storage<T> {
    dims: Vec<usize>,
    format: Format,
    levels: Vec<LevelStorage>,
    vals: Vec<T>,
    fingerprint: OnceLock<u64>,
}

impl<T> Clone for SparseTensor<T> {
    fn clone(&self) -> Self {
        SparseTensor {
            s: Arc::clone(&self.s),
        }
    }
}

impl<T: PartialEq> PartialEq for SparseTensor<T> {
    fn eq(&self, other: &Self) -> bool {
        self.s.dims == other.s.dims
            && self.s.format == other.s.format
            && self.s.levels == other.s.levels
            && self.s.vals == other.s.vals
    }
}

impl<T: fmt::Debug> fmt::Debug for SparseTensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SparseTensor")
            .field("dims", &self.s.dims)
            .field("format", &self.s.format)
            .field("levels", &self.s.levels)
            .field("vals", &self.s.vals)
            .finish()
    }
}

/// Mixes one 64-bit word into a running hash (splitmix64 finalizer).
#[inline]
fn mix(h: &mut u64, v: u64) {
    let mut x = h.wrapping_add(0x9e3779b97f4a7c15).wrapping_add(v);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    *h = x ^ (x >> 31);
}

/// Mixes a word array into a running hash: its length, then its words.
///
/// A chain of [`mix`] calls costs the latency of two multiplies per
/// word, and a fingerprint pass over a tensor nobody has seen before is
/// on the path of every run that rebuilds an intermediate. So the words
/// go round-robin to eight accumulators that do not depend on each
/// other, one rotate-xor-multiply each, and only the accumulators (and
/// the odd words at the end) go through [`mix`]. Every step is a
/// bijection of the accumulator for a given word and of the word for a
/// given accumulator, so two arrays of one length that differ in one
/// word never mix equal.
fn mix_words<W: Copy>(h: &mut u64, words: &[W], bits: impl Fn(W) -> u64) {
    const LANES: usize = 8;
    mix(h, words.len() as u64);
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| !(i as u64));
    let mut blocks = words.chunks_exact(LANES);
    for block in &mut blocks {
        for (lane, &word) in lanes.iter_mut().zip(block) {
            *lane = (lane.rotate_left(23) ^ bits(word)).wrapping_mul(0x9e3779b185ebca87);
        }
    }
    for lane in lanes {
        mix(h, lane);
    }
    for &word in blocks.remainder() {
        mix(h, bits(word));
    }
}

impl<T> SparseTensor<T> {
    fn new(dims: Vec<usize>, format: Format, levels: Vec<LevelStorage>, vals: Vec<T>) -> Self {
        SparseTensor {
            s: Arc::new(Storage {
                dims,
                format,
                levels,
                vals,
                fingerprint: OnceLock::new(),
            }),
        }
    }
}

impl<T: Value> SparseTensor<T> {
    /// Packs a COO tensor into the given format.
    ///
    /// The input is canonicalized (sorted, duplicates summed, zeros dropped)
    /// before packing, so callers may pass unnormalized COO.
    ///
    /// Canonicalization happens on an *index view*: entry indices are
    /// sorted by permuted coordinate order and duplicates are folded into
    /// per-index sums, so the entries' coordinate vectors are never
    /// cloned.
    ///
    /// # Panics
    ///
    /// Panics when the format rank differs from the tensor rank.
    pub fn from_coo(coo: &CooTensor<T>, format: Format) -> Self {
        assert_eq!(
            format.rank(),
            coo.rank(),
            "format rank must equal tensor rank"
        );
        let dims = coo.dims().to_vec();
        let entries = coo.entries();
        let rank = format.rank();
        let order = format.mode_order();

        // Sort an index view by the permuted coordinate order. Duplicate
        // coordinates compare equal under any order, so the unstable sort
        // cannot change which entries fold together below — though it may
        // reorder a duplicate run, so with 3+ entries at one coordinate
        // the floating-point summation order (and thus rounding) can
        // differ from insertion order. Folding stays deterministic.
        let mut perm: Vec<u32> = (0..entries.len() as u32).collect();
        perm.sort_unstable_by(|&a, &b| {
            let (ca, cb) = (&entries[a as usize].0, &entries[b as usize].0);
            for &m in order {
                match ca[m].cmp(&cb[m]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });

        // Fold duplicates (summing values) and drop explicit zeros,
        // keeping only a representative index plus the folded value.
        let mut folded: Vec<(u32, T)> = Vec::with_capacity(perm.len());
        for &e in &perm {
            match folded.last_mut() {
                Some((last, acc)) if entries[*last as usize].0 == entries[e as usize].0 => {
                    *acc = *acc + entries[e as usize].1;
                }
                _ => folded.push((e, entries[e as usize].1)),
            }
        }
        folded.retain(|&(_, v)| !v.is_zero());

        // Stored coordinate of folded entry f at storage level l.
        let stored = |f: &(u32, T), l: usize| entries[f.0 as usize].0[order[l]];

        let mut levels = Vec::with_capacity(rank);
        // Position of each folded entry at the current level's parent.
        let mut parent_pos: Vec<usize> = vec![0; folded.len()];
        let mut parent_count = 1usize;

        for l in 0..rank {
            let dim = dims[order[l]];
            match format.level(l) {
                LevelFormat::Dense => {
                    for (e, entry) in folded.iter().enumerate() {
                        parent_pos[e] = parent_pos[e] * dim + stored(entry, l);
                    }
                    parent_count *= dim;
                    levels.push(LevelStorage::Dense { dim });
                }
                LevelFormat::Compressed => {
                    let mut pos = vec![0usize; parent_count + 1];
                    let mut crd = Vec::new();
                    let mut last: Option<(usize, usize)> = None;
                    for e in 0..folded.len() {
                        let key = (parent_pos[e], stored(&folded[e], l));
                        if last != Some(key) {
                            crd.push(key.1);
                            pos[key.0 + 1] += 1;
                            last = Some(key);
                        }
                        parent_pos[e] = crd.len() - 1;
                    }
                    for p in 0..parent_count {
                        pos[p + 1] += pos[p];
                    }
                    parent_count = crd.len();
                    levels.push(LevelStorage::Compressed { pos, crd });
                }
            }
        }

        let mut vals = vec![T::ZERO; parent_count];
        for (e, &(_, v)) in folded.iter().enumerate() {
            vals[parent_pos[e]] = v;
        }

        SparseTensor::new(dims, format, levels, vals)
    }

    /// Packs a dense tensor (all elements, including zeros, participate in
    /// packing; zeros are dropped).
    pub fn from_dense(dense: &DenseTensor<T>, format: Format) -> Self {
        SparseTensor::from_coo(&dense.to_coo(), format)
    }

    /// Assembles a tensor from raw level storage and values (used to read
    /// results back out of simulated accelerator memory).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant when the parts are
    /// inconsistent (wrong `pos` monotonicity, out-of-bounds coordinates,
    /// mismatched values length, ...).
    pub fn from_parts(
        dims: Vec<usize>,
        format: Format,
        levels: Vec<LevelStorage>,
        vals: Vec<T>,
    ) -> Result<Self, String> {
        if format.rank() != dims.len() || levels.len() != dims.len() {
            return Err(format!(
                "rank mismatch: {} dims, {} levels, format rank {}",
                dims.len(),
                levels.len(),
                format.rank()
            ));
        }
        for (l, (lvl, fmt)) in levels.iter().zip(format.levels()).enumerate() {
            if lvl.format() != *fmt {
                return Err(format!("level {l} storage does not match format {fmt}"));
            }
        }
        let t = SparseTensor::new(dims, format, levels, vals);
        t.validate()?;
        Ok(t)
    }

    /// Dimension sizes (logical mode order).
    pub fn dims(&self) -> &[usize] {
        &self.s.dims
    }

    /// Tensor rank.
    pub fn rank(&self) -> usize {
        self.s.dims.len()
    }

    /// The tensor's format.
    pub fn format(&self) -> &Format {
        &self.s.format
    }

    /// Storage of level `l`.
    pub fn level(&self, l: usize) -> &LevelStorage {
        &self.s.levels[l]
    }

    /// The positions array of compressed level `l`.
    ///
    /// # Panics
    ///
    /// Panics when level `l` is dense.
    #[allow(
        clippy::panic,
        reason = "documented accessor contract: the caller named a dense level"
    )]
    pub fn pos(&self, l: usize) -> &[usize] {
        match &self.s.levels[l] {
            LevelStorage::Compressed { pos, .. } => pos,
            LevelStorage::Dense { .. } => panic!("level {l} is dense and has no pos array"),
        }
    }

    /// The coordinates array of compressed level `l`.
    ///
    /// # Panics
    ///
    /// Panics when level `l` is dense.
    #[allow(
        clippy::panic,
        reason = "documented accessor contract: the caller named a dense level"
    )]
    pub fn crd(&self, l: usize) -> &[usize] {
        match &self.s.levels[l] {
            LevelStorage::Compressed { crd, .. } => crd,
            LevelStorage::Dense { .. } => panic!("level {l} is dense and has no crd array"),
        }
    }

    /// The values array.
    pub fn vals(&self) -> &[T] {
        &self.s.vals
    }

    /// A 64-bit fingerprint of the tensor's content: dims, format (level
    /// kinds, mode order, region), every `pos`/`crd` word and the bit
    /// pattern of every stored value ([`Value::word_bits`]), each array
    /// preceded by its length. Tensors whose parts are bitwise equal
    /// fingerprint equal, however they were built; a change to any one
    /// word changes it (up to 64-bit collisions).
    ///
    /// The first call reads every stored word once; the result is kept
    /// beside the storage, so later calls — on this tensor or any clone
    /// — are a load. That is sound because the storage never changes.
    pub fn fingerprint(&self) -> u64 {
        *self.s.fingerprint.get_or_init(|| {
            let index = |x: usize| x as u64;
            let mut h: u64 = 0x9e3779b97f4a7c15;
            mix_words(&mut h, &self.s.dims, index);
            mix_words(&mut h, self.s.format.mode_order(), index);
            mix(&mut h, u64::from(self.s.format.region().is_on_chip()));
            for level in &self.s.levels {
                match level {
                    LevelStorage::Dense { dim } => {
                        mix(&mut h, 0);
                        mix(&mut h, *dim as u64);
                    }
                    LevelStorage::Compressed { pos, crd } => {
                        mix(&mut h, 1);
                        mix_words(&mut h, pos, index);
                        mix_words(&mut h, crd, index);
                    }
                }
            }
            mix_words(&mut h, &self.s.vals, T::word_bits);
            h
        })
    }

    /// Number of explicitly stored values (leaf positions). For formats with
    /// a dense inner level this can exceed the logical nonzero count.
    pub fn stored_len(&self) -> usize {
        self.s.vals.len()
    }

    /// Number of logically nonzero stored values.
    pub fn nnz(&self) -> usize {
        self.s.vals.iter().filter(|v| !v.is_zero()).count()
    }

    /// Random access by logical coordinates; `None` when not materialized.
    pub fn locate(&self, coords: &[usize]) -> Option<T> {
        debug_assert_eq!(coords.len(), self.rank());
        let mut p = 0usize;
        for l in 0..self.rank() {
            let i = coords[self.s.format.mode_order()[l]];
            p = self.s.levels[l].locate(p, i)?;
        }
        Some(self.s.vals[p])
    }

    /// Random access returning zero for missing coordinates.
    pub fn get(&self, coords: &[usize]) -> T {
        self.locate(coords).unwrap_or(T::ZERO)
    }

    /// Visits every stored leaf with its *logical* coordinates and value
    /// (zeros stored under dense inner levels are skipped).
    pub fn for_each_nonzero(&self, mut f: impl FnMut(&[usize], T)) {
        let rank = self.rank();
        let mut stored_coords = Vec::with_capacity(rank);
        let mut logical = vec![0usize; rank];
        self.walk(0, 0, &mut stored_coords, &mut |sc, v| {
            if !v.is_zero() {
                for (l, &c) in sc.iter().enumerate() {
                    logical[self.s.format.mode_order()[l]] = c;
                }
                f(&logical, v);
            }
        });
    }

    fn walk(
        &self,
        l: usize,
        p: usize,
        stored_coords: &mut Vec<usize>,
        f: &mut impl FnMut(&[usize], T),
    ) {
        if l == self.rank() {
            f(stored_coords, self.s.vals[p]);
            return;
        }
        match &self.s.levels[l] {
            LevelStorage::Dense { dim } => {
                for i in 0..*dim {
                    stored_coords.push(i);
                    self.walk(l + 1, p * dim + i, stored_coords, f);
                    stored_coords.pop();
                }
            }
            LevelStorage::Compressed { pos, crd } => {
                for (q, &coord) in crd.iter().enumerate().take(pos[p + 1]).skip(pos[p]) {
                    stored_coords.push(coord);
                    self.walk(l + 1, q, stored_coords, f);
                    stored_coords.pop();
                }
            }
        }
    }

    /// Converts to canonical COO.
    pub fn to_coo(&self) -> CooTensor<T> {
        let mut coo = CooTensor::new(self.s.dims.clone());
        self.for_each_nonzero(|coords, v| coo.push(coords, v));
        coo.canonicalize();
        coo
    }

    /// Converts to a dense tensor.
    pub fn to_dense(&self) -> DenseTensor<T> {
        let mut d = DenseTensor::zeros(self.s.dims.clone());
        self.for_each_nonzero(|coords, v| d.add_assign(coords, v));
        d
    }

    /// Validates all structural invariants of the packed representation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut parent_count = 1usize;
        for (l, lvl) in self.s.levels.iter().enumerate() {
            let dim = self.s.dims[self.s.format.mode_order()[l]];
            lvl.validate(parent_count, dim)?;
            parent_count = lvl.positions(parent_count);
        }
        if self.s.vals.len() != parent_count {
            return Err(format!(
                "vals length {} != leaf positions {}",
                self.s.vals.len(),
                parent_count
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::MemoryRegion;

    fn fig8_matrix() -> CooTensor<f64> {
        let mut coo = CooTensor::new(vec![4, 4]);
        for (r, c, v) in [
            (0, 1, 1.0),
            (1, 0, 2.0),
            (1, 2, 3.0),
            (2, 1, 4.0),
            (3, 3, 5.0),
        ] {
            coo.push(&[r, c], v);
        }
        coo
    }

    #[test]
    fn csr_matches_fig8() {
        let b = SparseTensor::from_coo(&fig8_matrix(), Format::csr());
        assert_eq!(b.pos(1), &[0, 1, 3, 4, 5]);
        assert_eq!(b.crd(1), &[1, 0, 2, 1, 3]);
        assert_eq!(b.vals(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        b.validate().unwrap();
    }

    #[test]
    fn csc_transposes_storage() {
        let b = SparseTensor::from_coo(&fig8_matrix(), Format::csc());
        // Columns: 0 -> {1}, 1 -> {0,2}, 2 -> {1}, 3 -> {3}
        assert_eq!(b.pos(1), &[0, 1, 3, 4, 5]);
        assert_eq!(b.crd(1), &[1, 0, 2, 1, 3]);
        assert_eq!(b.get(&[1, 0]), 2.0);
        assert_eq!(b.get(&[0, 1]), 1.0);
        b.validate().unwrap();
    }

    #[test]
    fn locate_present_and_absent() {
        let b = SparseTensor::from_coo(&fig8_matrix(), Format::csr());
        assert_eq!(b.locate(&[1, 2]), Some(3.0));
        assert_eq!(b.locate(&[0, 0]), None);
        assert_eq!(b.get(&[0, 0]), 0.0);
    }

    #[test]
    fn dense_format_stores_all() {
        let b = SparseTensor::from_coo(&fig8_matrix(), Format::dense(2));
        assert_eq!(b.stored_len(), 16);
        assert_eq!(b.nnz(), 5);
        assert_eq!(b.get(&[3, 3]), 5.0);
        b.validate().unwrap();
    }

    #[test]
    fn sparse_vector() {
        let mut coo = CooTensor::new(vec![8]);
        coo.push(&[2], 1.0);
        coo.push(&[5], 2.0);
        let v = SparseTensor::from_coo(&coo, Format::sparse_vec());
        assert_eq!(v.pos(0), &[0, 2]);
        assert_eq!(v.crd(0), &[2, 5]);
        assert_eq!(v.get(&[5]), 2.0);
    }

    #[test]
    fn csf_three_level() {
        let mut coo = CooTensor::new(vec![2, 3, 4]);
        coo.push(&[0, 1, 2], 1.0);
        coo.push(&[0, 1, 3], 2.0);
        coo.push(&[1, 0, 0], 3.0);
        let t = SparseTensor::from_coo(&coo, Format::csf(3));
        t.validate().unwrap();
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.get(&[0, 1, 3]), 2.0);
        assert_eq!(t.get(&[1, 2, 0]), 0.0);
        // Level 1 (compressed under dense root of size 2).
        assert_eq!(t.pos(1), &[0, 1, 2]);
        assert_eq!(t.crd(1), &[1, 0]);
    }

    #[test]
    fn roundtrip_through_every_format() {
        let coo = fig8_matrix();
        for fmt in [
            Format::csr(),
            Format::csc(),
            Format::dense(2),
            Format::new(vec![LevelFormat::Compressed, LevelFormat::Compressed]),
            Format::new(vec![LevelFormat::Compressed, LevelFormat::Dense]),
        ] {
            let t = SparseTensor::from_coo(&coo, fmt.clone());
            t.validate().unwrap();
            let mut back = t.to_coo();
            back.canonicalize();
            let mut orig = coo.clone();
            orig.canonicalize();
            assert_eq!(back, orig, "roundtrip failed for {fmt}");
        }
    }

    #[test]
    fn for_each_nonzero_yields_logical_coords() {
        let t = SparseTensor::from_coo(&fig8_matrix(), Format::csc());
        let mut seen = Vec::new();
        t.for_each_nonzero(|c, v| seen.push((c.to_vec(), v)));
        seen.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(seen[0], (vec![0, 1], 1.0));
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooTensor::new(vec![2, 2]);
        coo.push(&[0, 0], 1.0);
        coo.push(&[0, 0], 2.0);
        let t = SparseTensor::from_coo(&coo, Format::csr());
        assert_eq!(t.get(&[0, 0]), 3.0);
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn format_region_is_carried() {
        let t = SparseTensor::from_coo(
            &fig8_matrix(),
            Format::csr().with_region(MemoryRegion::OnChip),
        );
        assert!(t.format().region().is_on_chip());
    }

    #[test]
    fn to_dense_matches_gets() {
        let t = SparseTensor::from_coo(&fig8_matrix(), Format::csr());
        let d = t.to_dense();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(d.get(&[r, c]), t.get(&[r, c]));
            }
        }
    }
}
