//! Copy-on-write DRAM images: build a dataset's input segment once,
//! bind it to any number of machines.

use std::sync::Arc;

use super::{DramState, Machine, RunError};
use crate::bytecode::CompiledProgram;
use crate::resolve::Slot;

/// The words of a DRAM slot, read-only. Free function (not a method) so
/// callers can split-borrow the segments against other machine fields.
#[inline(always)]
pub(super) fn dram_words<'a>(input: &'a [f64], out: &'a [f64], st: DramState) -> Option<&'a [f64]> {
    if !st.mapped {
        return None;
    }
    let seg = if st.input { input } else { out };
    Some(&seg[st.off..st.off + st.len])
}

/// The words of a DRAM slot, writable. A write targeting the shared
/// input segment privatizes it first (`Arc::make_mut`): one segment
/// memcpy on the first such write, nothing afterwards — the
/// copy-on-write half of [`DramImage`] sharing.
#[inline(always)]
pub(super) fn dram_words_mut<'a>(
    input: &'a mut Arc<Vec<f64>>,
    out: &'a mut Vec<f64>,
    st: DramState,
) -> Option<&'a mut [f64]> {
    if !st.mapped {
        return None;
    }
    let seg: &mut Vec<f64> = if st.input { Arc::make_mut(input) } else { out };
    Some(&mut seg[st.off..st.off + st.len])
}

/// An immutable, fully converted DRAM input image for one compiled
/// program: every input (never-written) array's words laid out per the
/// program's [`crate::resolve::DramLayout`], shared behind an `Arc`.
///
/// Build one per (program, dataset) pair with [`DramImage::builder`] —
/// the `usize → f64` conversion of `pos`/`crd` arrays happens exactly
/// once, here — then bind it to as many machines as needed with
/// [`Machine::bind_image`]: each bind is an `Arc` clone of the input
/// segment plus a zero-fill of the output segment, O(outputs) instead
/// of O(nnz). Machines copy the shared segment only if something
/// actually writes it (rare; most kernels write only their outputs).
#[derive(Debug, Clone)]
pub struct DramImage {
    compiled: Arc<CompiledProgram>,
    input: Arc<Vec<f64>>,
    /// Initial contents bound into written (output-segment) arrays,
    /// as (segment offset, words). Rare — an in-place-updated operand —
    /// and re-applied per bind, so the cost stays O(outputs).
    output_init: Vec<(usize, Vec<f64>)>,
}

/// Mixes one 64-bit word into a running content hash (splitmix64-style
/// finalizer, a few ALU ops per word) — the fold of names and tensor
/// fingerprints that makes the pipeline's image-cache keys. (The
/// fingerprints themselves are computed in `stardust-tensor`, which
/// sits below this crate and carries its own copy of the finalizer;
/// the two hashes are never compared with each other.)
#[inline]
pub fn mix64(h: &mut u64, v: u64) {
    let mut x = h.wrapping_add(0x9e3779b97f4a7c15).wrapping_add(v);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    *h = x ^ (x >> 31);
}

impl DramImage {
    /// Starts building an image for `compiled`.
    pub fn builder(compiled: Arc<CompiledProgram>) -> DramImageBuilder {
        let input = vec![0.0; compiled.dram_layout().input_words];
        DramImageBuilder {
            compiled,
            input,
            output_init: Vec::new(),
        }
    }

    /// The shared input segment (pristine; machines never mutate it
    /// through the copy-on-write path).
    pub fn input_words(&self) -> &[f64] {
        &self.input
    }

    /// Whether this image can bind to a machine running `compiled`:
    /// the identical artifact, or an equal program compiled
    /// separately.
    fn matches(&self, compiled: &Arc<CompiledProgram>) -> bool {
        Arc::ptr_eq(&self.compiled, compiled)
            || (self.compiled.source() == compiled.source()
                && self.compiled.dram_layout() == compiled.dram_layout())
    }

    /// Whether this image's *DRAM story* matches `compiled` even if
    /// the program bodies differ: equal DRAM declarations interned in
    /// declaration order give identical slot numbering, and an equal
    /// computed [`crate::resolve::DramLayout`] places every slot's
    /// words at the same segment offsets, so the image's words mean
    /// the same thing to both programs. Shard sub-programs rewrite
    /// loop bounds (and rename) but keep the DRAM story intact, and
    /// bind the parent's image through exactly this clause.
    pub(crate) fn layout_matches(&self, compiled: &Arc<CompiledProgram>) -> bool {
        self.matches(compiled)
            || (self.compiled.source().drams == compiled.source().drams
                && self.compiled.dram_layout() == compiled.dram_layout())
    }
}

/// Writes input tensors into a [`DramImage`] under construction.
/// Arrays are addressed by DRAM slot (see [`crate::SymbolTable::dram_slot`]) —
/// resolve names once at compile time, not per bind.
#[derive(Debug, Clone)]
pub struct DramImageBuilder {
    compiled: Arc<CompiledProgram>,
    input: Vec<f64>,
    output_init: Vec<(usize, Vec<f64>)>,
}

impl DramImageBuilder {
    fn region(&self, slot: Slot, len: usize) -> Result<DramState, RunError> {
        let layout = self.compiled.dram_layout();
        let r = layout
            .drams
            .get(slot as usize)
            .filter(|r| r.mapped)
            .ok_or_else(|| {
                RunError::UnknownMemory(self.compiled.syms().dram_name(slot).to_string())
            })?;
        if len > r.size {
            return Err(RunError::OutOfBounds {
                mem: self.compiled.syms().dram_name(slot).to_string(),
                index: len as i64,
                len: r.size,
            });
        }
        Ok(DramState::from(r))
    }

    /// Writes `data` to the head of the slot's array, exactly like
    /// [`Machine::write_dram`].
    ///
    /// # Errors
    ///
    /// [`RunError::UnknownMemory`] / [`RunError::OutOfBounds`] as
    /// [`Machine::write_dram`] raises them.
    pub fn write(&mut self, slot: Slot, data: &[f64]) -> Result<(), RunError> {
        let st = self.region(slot, data.len())?;
        if st.input {
            self.input[st.off..st.off + data.len()].copy_from_slice(data);
        } else {
            self.output_init.push((st.off, data.to_vec()));
        }
        Ok(())
    }

    /// Writes an integer array (`pos`/`crd`), converting `usize → f64`
    /// once — the only place a dataset's index arrays are converted.
    ///
    /// # Errors
    ///
    /// Same as [`DramImageBuilder::write`].
    pub fn write_usize(&mut self, slot: Slot, data: &[usize]) -> Result<(), RunError> {
        let st = self.region(slot, data.len())?;
        if st.input {
            for (dst, &x) in self.input[st.off..].iter_mut().zip(data) {
                *dst = x as f64;
            }
        } else {
            self.output_init
                .push((st.off, data.iter().map(|&x| x as f64).collect()));
        }
        Ok(())
    }

    /// Freezes the image: the input segment becomes immutable and
    /// shareable.
    pub fn finish(self) -> DramImage {
        DramImage {
            compiled: self.compiled,
            input: Arc::new(self.input),
            output_init: self.output_init,
        }
    }
}

impl Machine {
    /// Re-binds the machine's DRAM to a prebuilt [`DramImage`]: an
    /// `Arc` clone of the shared input segment plus a zero-fill (and
    /// rare init copies) of the output segment — O(outputs), no
    /// per-element input conversion or copy. On-chip state, variable
    /// bindings, and statistics are untouched; pair with a fresh
    /// [`Machine::from_compiled`] for a clean run.
    ///
    /// # Errors
    ///
    /// [`RunError::ImageMismatch`] when the image was built for an
    /// incompatible compiled program.
    pub fn bind_image(&mut self, image: &DramImage) -> Result<(), RunError> {
        if !image.matches(&self.compiled) {
            return Err(RunError::ImageMismatch);
        }
        self.bind_image_segments(image);
        Ok(())
    }

    /// Shard-only image bind (see [`crate::shard`]): accepts any
    /// program whose DRAM story equals the image's
    /// ([`DramImage::layout_matches`]), bodies aside, so shard
    /// sub-programs share the parent's input segment.
    pub(crate) fn shard_bind_image(&mut self, image: &DramImage) -> Result<(), RunError> {
        if !image.layout_matches(&self.compiled) {
            return Err(RunError::ImageMismatch);
        }
        self.bind_image_segments(image);
        Ok(())
    }

    fn bind_image_segments(&mut self, image: &DramImage) {
        self.dram_input = Arc::clone(&image.input);
        self.dram_out.fill(0.0);
        for (off, data) in &image.output_init {
            self.dram_out[*off..*off + data.len()].copy_from_slice(data);
        }
    }
}
