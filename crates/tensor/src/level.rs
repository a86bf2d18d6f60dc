//! Per-dimension level formats and their physical storage.
//!
//! Following the format abstraction of Chou et al. (OOPSLA 2018) that the
//! paper builds on (§3.1), a tensor is stored as a hierarchy of *levels*,
//! one per dimension in the format's mode order. Each level is either
//! *dense* (a.k.a. uncompressed: every coordinate in `0..dim` is
//! materialized implicitly) or *compressed* (only nonzero coordinates are
//! stored, via `pos`/`crd` arrays).

use std::fmt;

/// The format of one tensor dimension (level).
///
/// The paper's evaluation (Table 4 / §8.1) uses CSR, CSC, CSF and a
/// CSR-like uncompressed-compressed-compressed format, all of which are
/// compositions of these two level formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LevelFormat {
    /// Uncompressed: coordinates `0..dim` are implicit; no index arrays.
    Dense,
    /// Compressed: `pos[p]..pos[p+1]` delimits the segment of coordinates
    /// (in `crd`) belonging to parent position `p`.
    Compressed,
}

impl LevelFormat {
    /// Returns `true` for [`LevelFormat::Compressed`].
    pub fn is_compressed(self) -> bool {
        matches!(self, LevelFormat::Compressed)
    }

    /// Returns `true` for [`LevelFormat::Dense`].
    pub fn is_dense(self) -> bool {
        matches!(self, LevelFormat::Dense)
    }
}

impl fmt::Display for LevelFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelFormat::Dense => write!(f, "uncompressed"),
            LevelFormat::Compressed => write!(f, "compressed"),
        }
    }
}

/// Physical storage of one tensor level.
///
/// Mirrors the `pos`/`crd` sub-array decomposition of TACO: a dense level
/// stores only its dimension size, while a compressed level stores a
/// positions array (`pos`, of length `parent_positions + 1`) and a
/// coordinates array (`crd`, of length `nnz_at_this_level`). The Stardust
/// memory analysis (§6) binds these sub-arrays to accelerator memories
/// individually, which is why they are exposed rather than encapsulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelStorage {
    /// Dense level: all `dim` coordinates exist below every parent position.
    Dense {
        /// Size of this dimension.
        dim: usize,
    },
    /// Compressed level with explicit position and coordinate arrays.
    Compressed {
        /// Segment delimiters: child positions of parent `p` are
        /// `pos[p]..pos[p + 1]`.
        pos: Vec<usize>,
        /// Coordinate of each stored position, sorted within a segment.
        crd: Vec<usize>,
    },
}

impl LevelStorage {
    /// Number of positions this level materializes below `parent_positions`
    /// parent positions.
    pub fn positions(&self, parent_positions: usize) -> usize {
        match self {
            LevelStorage::Dense { dim } => parent_positions * dim,
            LevelStorage::Compressed { crd, .. } => crd.len(),
        }
    }

    /// The level format of this storage.
    pub fn format(&self) -> LevelFormat {
        match self {
            LevelStorage::Dense { .. } => LevelFormat::Dense,
            LevelStorage::Compressed { .. } => LevelFormat::Compressed,
        }
    }

    /// For a compressed level, the range of child positions below parent
    /// position `p`. Panics if called on a dense level.
    ///
    /// # Panics
    ///
    /// Panics when invoked on [`LevelStorage::Dense`] or when `p + 1` is out
    /// of bounds of the positions array.
    #[allow(
        clippy::panic,
        reason = "documented accessor contract: the caller asked a dense level for a segment"
    )]
    pub fn segment(&self, p: usize) -> std::ops::Range<usize> {
        match self {
            LevelStorage::Compressed { pos, .. } => pos[p]..pos[p + 1],
            LevelStorage::Dense { .. } => panic!("segment() on dense level"),
        }
    }

    /// Locates coordinate `i` below parent position `p`, returning the child
    /// position when present.
    ///
    /// Dense levels locate in O(1); compressed levels binary-search the
    /// segment.
    pub fn locate(&self, p: usize, i: usize) -> Option<usize> {
        match self {
            LevelStorage::Dense { dim } => {
                if i < *dim {
                    Some(p * dim + i)
                } else {
                    None
                }
            }
            LevelStorage::Compressed { pos, crd } => {
                let seg = &crd[pos[p]..pos[p + 1]];
                seg.binary_search(&i).ok().map(|off| pos[p] + off)
            }
        }
    }

    /// Validates structural invariants: monotone `pos`, in-bounds sorted
    /// `crd` segments.
    pub fn validate(&self, parent_positions: usize, dim: usize) -> Result<(), String> {
        match self {
            LevelStorage::Dense { dim: d } => {
                if *d != dim {
                    return Err(format!("dense level dim {d} != tensor dim {dim}"));
                }
                Ok(())
            }
            LevelStorage::Compressed { pos, crd } => {
                if pos.len() != parent_positions + 1 {
                    return Err(format!(
                        "pos length {} != parent positions {} + 1",
                        pos.len(),
                        parent_positions
                    ));
                }
                if pos[0] != 0 {
                    return Err("pos[0] != 0".to_string());
                }
                if *pos.last().expect("nonempty pos") != crd.len() {
                    return Err("pos last entry != crd length".to_string());
                }
                for w in pos.windows(2) {
                    if w[0] > w[1] {
                        return Err("pos not monotone".to_string());
                    }
                }
                for p in 0..parent_positions {
                    let seg = &crd[pos[p]..pos[p + 1]];
                    for pair in seg.windows(2) {
                        if pair[0] >= pair[1] {
                            return Err(format!("crd segment at parent {p} not strictly sorted"));
                        }
                    }
                    if let Some(&last) = seg.last() {
                        if last >= dim {
                            return Err(format!("crd {last} out of bounds for dim {dim}"));
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_compressed() -> LevelStorage {
        // Two parents: parent 0 owns coords {1, 3}, parent 1 owns {0}.
        LevelStorage::Compressed {
            pos: vec![0, 2, 3],
            crd: vec![1, 3, 0],
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(LevelFormat::Dense.to_string(), "uncompressed");
        assert_eq!(LevelFormat::Compressed.to_string(), "compressed");
    }

    #[test]
    fn dense_positions_multiply() {
        let lvl = LevelStorage::Dense { dim: 5 };
        assert_eq!(lvl.positions(3), 15);
        assert_eq!(lvl.format(), LevelFormat::Dense);
    }

    #[test]
    fn compressed_positions_count_nnz() {
        let lvl = sample_compressed();
        assert_eq!(lvl.positions(2), 3);
        assert_eq!(lvl.format(), LevelFormat::Compressed);
    }

    #[test]
    fn segment_ranges() {
        let lvl = sample_compressed();
        assert_eq!(lvl.segment(0), 0..2);
        assert_eq!(lvl.segment(1), 2..3);
    }

    #[test]
    fn locate_dense() {
        let lvl = LevelStorage::Dense { dim: 4 };
        assert_eq!(lvl.locate(2, 3), Some(11));
        assert_eq!(lvl.locate(0, 4), None);
    }

    #[test]
    fn locate_compressed() {
        let lvl = sample_compressed();
        assert_eq!(lvl.locate(0, 1), Some(0));
        assert_eq!(lvl.locate(0, 3), Some(1));
        assert_eq!(lvl.locate(0, 2), None);
        assert_eq!(lvl.locate(1, 0), Some(2));
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(sample_compressed().validate(2, 4).is_ok());
        assert!(LevelStorage::Dense { dim: 4 }.validate(9, 4).is_ok());
    }

    #[test]
    fn validate_rejects_bad_pos() {
        let lvl = LevelStorage::Compressed {
            pos: vec![0, 3, 2],
            crd: vec![0, 1, 2],
        };
        assert!(lvl.validate(2, 4).is_err());
    }

    #[test]
    fn validate_rejects_unsorted_crd() {
        let lvl = LevelStorage::Compressed {
            pos: vec![0, 2],
            crd: vec![3, 1],
        };
        assert!(lvl.validate(1, 4).is_err());
    }

    #[test]
    fn validate_rejects_out_of_bounds_crd() {
        let lvl = LevelStorage::Compressed {
            pos: vec![0, 1],
            crd: vec![9],
        };
        assert!(lvl.validate(1, 4).is_err());
    }

    #[test]
    #[should_panic(expected = "segment() on dense level")]
    fn segment_on_dense_panics() {
        let _ = LevelStorage::Dense { dim: 2 }.segment(0);
    }
}
