//! Machine lifecycle and host-side DRAM access: construction, reset,
//! mode and budget setters, the shard hooks, `write_dram`/`dram`, and
//! [`Machine::run`].

use std::sync::Arc;

use super::image::{dram_words, dram_words_mut};
use super::{
    ChipState, ChipTag, DenseStats, DramState, ExecStats, FuelCause, Machine, PlanPool, RunBudget,
    RunError,
};
use crate::bytecode::CompiledProgram;
use crate::ir::{MemKind, SpatialProgram};
use crate::resolve::{bit_words_for, Slot};

impl Machine {
    /// Creates a machine with zeroed DRAM arrays sized per the program's
    /// declarations. The program is linked and lowered to bytecode here,
    /// once; the machine runs that program and no other.
    pub fn new(program: &SpatialProgram) -> Self {
        Machine::from_compiled(Arc::new(CompiledProgram::compile(program)))
    }

    /// Creates a machine bound to an already-compiled program, sharing
    /// the artifact with every other machine holding the same `Arc` —
    /// the re-bind path for dataset sweeps (see
    /// [`crate::bytecode::ProgramCache`]). Machine *state* (DRAM,
    /// on-chip memories, statistics) is per-machine; only the immutable
    /// compiled form is shared.
    pub fn from_compiled(compiled: Arc<CompiledProgram>) -> Self {
        let syms = compiled.syms();
        let dram_layout = compiled.dram_layout();
        let dram_state = dram_layout.drams.iter().map(DramState::from).collect();
        // Every on-chip slot starts unallocated at its static home.
        let layout = compiled.layout();
        let chip = layout
            .chips
            .iter()
            .map(|r| ChipState {
                woff: r.word_off,
                wcap: r.word_cap,
                boff: r.bit_off,
                bcap: r.bit_words,
                ..ChipState::UNMAPPED
            })
            .collect();
        let nodes = compiled.node_limit();
        let dense = DenseStats {
            dram_reads: vec![None; syms.dram_count()],
            dram_writes: vec![None; syms.dram_count()],
            node_trips: vec![0; nodes],
            node_dram_read_words: vec![0; nodes],
            node_dram_write_words: vec![0; nodes],
            ..DenseStats::default()
        };
        Machine {
            dram_state,
            dram_input: Arc::clone(compiled.zero_dram_input()),
            dram_out: vec![0.0; dram_layout.output_words],
            chip,
            // `vec![0; n]` goes through the zeroed allocator — one
            // calloc of untouched pages, not an element-wise fill — which
            // keeps fresh-machine creation (the re-bind path) off the
            // O(arena) memset at large arena sizes.
            words: vec![0.0; layout.words],
            bits: vec![0; layout.bit_words],
            env: vec![None; syms.var_count()],
            dense,
            stats: ExecStats::default(),
            node_stack: Vec::new(),
            vstack: Vec::new(),
            lane_scratch: None,
            plans: PlanPool::default(),
            scan_pool: Vec::new(),
            scan_depth: 0,
            budget: RunBudget::default(),
            fuel: u64::MAX,
            fuel_cause: FuelCause::Budget,
            step_limit: u64::MAX,
            dram_fuel: u64::MAX,
            alloc_fuel: u64::MAX,
            deadline_at: None,
            interrupts: false,
            poisoned: false,
            write_log: None,
            vector_enabled: true,
            compiled,
        }
    }

    /// The compiled program this machine is bound to.
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }

    /// Clears execution state — on-chip allocations, variable bindings,
    /// statistics, and the DRAM output segment — without reallocating
    /// or zeroing the on-chip arenas: every on-chip slot returns to its
    /// unallocated state (regions keep their homes; `Alloc` fills them
    /// before any use), so a reused machine behaves exactly like a
    /// fresh [`Machine::from_compiled`] at O(slots + outputs), not
    /// O(arena).
    ///
    /// The DRAM *input* segment is left bound; follow with
    /// [`Machine::bind_image`] (or `write_dram`) to (re)bind a dataset.
    /// `reset` + `bind_image` is the O(outputs) re-bind loop for
    /// serving repeated runs of one kernel.
    pub fn reset(&mut self) {
        self.clear_outputs();
        self.clear_exec_state();
    }

    /// The DRAM-output half of [`Machine::reset`]: zero-fills the
    /// output segment. Crate-internal so the machine pool can skip it
    /// when a [`Machine::bind_image`] (which refills the segment)
    /// immediately follows.
    pub(crate) fn clear_outputs(&mut self) {
        self.dram_out.fill(0.0);
    }

    /// The execution-state half of [`Machine::reset`]: on-chip
    /// allocations, variable bindings, statistics, and in-flight loop
    /// state — everything except the DRAM output segment.
    pub(crate) fn clear_exec_state(&mut self) {
        for st in &mut self.chip {
            st.tag = ChipTag::None;
            st.len = 0;
            st.head = 0;
        }
        self.env.fill(None);
        self.dense.clear();
        self.stats = ExecStats::default();
        self.node_stack.clear();
        self.vstack.clear();
        self.scan_depth = 0;
        self.budget = RunBudget::default();
        self.fuel = u64::MAX;
        self.fuel_cause = FuelCause::Budget;
        self.step_limit = u64::MAX;
        self.dram_fuel = u64::MAX;
        self.alloc_fuel = u64::MAX;
        self.deadline_at = None;
        self.interrupts = false;
        self.poisoned = false;
        self.write_log = None;
    }

    /// Rebinds the DRAM input segment to the pristine all-zero image
    /// the machine was constructed with — an `Arc` pointer copy that
    /// drops any bound [`crate::DramImage`] (and any copy-on-write private
    /// segment). [`Machine::reset`] + `unbind_inputs` is the
    /// machine-pool checkout invariant: a recycled machine becomes
    /// indistinguishable from a fresh [`Machine::from_compiled`].
    pub fn unbind_inputs(&mut self) {
        self.dram_input = Arc::clone(self.compiled.zero_dram_input());
    }

    /// Sets the resource budget for subsequent runs. The budget is
    /// armed at each [`Machine::run`] entry and survives across runs
    /// until [`Machine::reset`] (or pool check-in) clears it back to
    /// unlimited.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// The configured resource budget.
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Enables or disables the data-parallel tier ([`crate::vector`];
    /// on by default) at runtime. Execution results, `ExecStats`, and
    /// budget-abort points are bit-identical in both modes — the toggle
    /// exists so benchmarks and differential suites can measure scalar
    /// vs vector in one process.
    pub fn set_vector_mode(&mut self, on: bool) {
        self.vector_enabled = on;
    }

    /// Whether the last run aborted — with a structured error or a
    /// panic — leaving the machine's state partway through a program.
    /// A poisoned machine must not be recycled; the
    /// [`crate::MachinePool`] quarantines it at check-in.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Arms the sharded-run write log (see [`crate::shard`]): from here
    /// until [`Machine::shard_take_write_log`], every successful DRAM
    /// store records the output-segment words it touched in a bitset.
    pub(crate) fn shard_arm_write_log(&mut self) {
        self.write_log = Some(vec![0u64; bit_words_for(self.dram_out.len())]);
    }

    /// Takes the write log (disarming logging). Empty if never armed.
    pub(crate) fn shard_take_write_log(&mut self) -> Vec<u64> {
        self.write_log.take().unwrap_or_default()
    }

    /// The machine-owned DRAM output segment — the sharded merge reads
    /// each shard's segment through this.
    pub(crate) fn shard_output_words(&self) -> &[f64] {
        &self.dram_out
    }

    /// Applies a shard's logged writes into this machine: `values`
    /// holds the written words in ascending output-segment index order
    /// (one per bit set in `mask`, the shard's write log). Replaying
    /// shards in shard order makes the merged segment word-identical to
    /// the serial run: every runtime DRAM store is a pure overwrite, so
    /// last-write-wins in iteration order *is* the serial result.
    pub(crate) fn shard_apply_output(&mut self, values: &[f64], mask: &[u64]) {
        let mut vi = 0usize;
        for (w, &m) in mask.iter().enumerate() {
            let mut rem = m;
            let base = w * 64;
            while rem != 0 {
                let ix = base + rem.trailing_zeros() as usize;
                debug_assert!(ix < self.dram_out.len() && vi < values.len());
                self.dram_out[ix] = values[vi];
                vi += 1;
                rem &= rem - 1;
            }
        }
        debug_assert_eq!(vi, values.len());
    }

    /// Overwrites the folded statistics with the sharded-merge result,
    /// so downstream readers ([`Machine::stats`]) see the merged run.
    pub(crate) fn shard_set_stats(&mut self, stats: ExecStats) {
        self.stats = stats;
    }

    /// Records `n` words written at `off` within DRAM slot `dst` into
    /// the armed write log. Only output-segment words are logged (the
    /// layout places every program-written slot there; input-segment
    /// writes only happen through host `write_dram`, outside a run).
    #[inline(always)]
    pub(super) fn log_dram_write(&mut self, dst: Slot, off: usize, n: usize) {
        if let Some(log) = &mut self.write_log {
            let st = self.dram_state[dst as usize];
            if st.input {
                return;
            }
            for ix in st.off + off..st.off + off + n {
                log[ix / 64] |= 1u64 << (ix % 64);
            }
        }
    }

    /// Ensures the slot's word region holds at least `need` words,
    /// relocating it to the end of the word arena when it does not.
    /// The region contents are NOT carried over — callers reset them.
    pub(super) fn reserve_words(&mut self, slot: Slot, need: usize) {
        let st = &mut self.chip[slot as usize];
        if st.wcap < need {
            st.woff = self.words.len();
            st.wcap = need;
            self.words.resize(st.woff + need, 0.0);
        }
    }

    /// Ensures the slot's bitset region holds at least `need` packed
    /// words, relocating to the end of the bitset arena when it does
    /// not. Contents are NOT carried over — callers reset them.
    pub(super) fn reserve_bits(&mut self, slot: Slot, need: usize) {
        let st = &mut self.chip[slot as usize];
        if st.bcap < need {
            st.boff = self.bits.len();
            st.bcap = need;
            self.bits.resize(st.boff + need, 0);
        }
    }

    pub(super) fn unknown_dram(&self, slot: Slot) -> RunError {
        RunError::UnknownMemory(self.compiled.syms().dram_name(slot).to_string())
    }

    pub(super) fn unknown_chip(&self, slot: Slot) -> RunError {
        RunError::UnknownMemory(self.compiled.syms().chip_name(slot).to_string())
    }

    fn dram_slot_of(&self, name: &str) -> Result<Slot, RunError> {
        self.compiled
            .syms()
            .dram_slot(name)
            .filter(|&s| self.dram_state[s as usize].mapped)
            .ok_or_else(|| RunError::UnknownMemory(name.to_string()))
    }

    /// The words of a mapped DRAM slot.
    #[inline(always)]
    pub(super) fn dram_words_of(&self, slot: Slot) -> Option<&[f64]> {
        dram_words(
            &self.dram_input,
            &self.dram_out,
            self.dram_state[slot as usize],
        )
    }

    /// The words of a mapped DRAM slot, writable (copy-on-write for
    /// input-segment slots).
    #[inline(always)]
    pub(super) fn dram_words_of_mut(&mut self, slot: Slot) -> Option<&mut [f64]> {
        dram_words_mut(
            &mut self.dram_input,
            &mut self.dram_out,
            self.dram_state[slot as usize],
        )
    }

    /// Overwrites the head of a DRAM array with `data`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::UnknownMemory`] or [`RunError::OutOfBounds`] when
    /// the array is missing or too small.
    pub fn write_dram(&mut self, name: &str, data: &[f64]) -> Result<(), RunError> {
        let slot = self.dram_slot_of(name)?;
        self.write_dram_slot(slot, data)
    }

    /// [`Machine::write_dram`] addressed by DRAM slot — the bind path
    /// for callers that resolved names to slots at compile time.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::write_dram`].
    pub fn write_dram_slot(&mut self, slot: Slot, data: &[f64]) -> Result<(), RunError> {
        let st = self.dram_state_of(slot)?;
        if data.len() > st.len {
            return Err(RunError::OutOfBounds {
                mem: self.compiled.syms().dram_name(slot).to_string(),
                index: data.len() as i64,
                len: st.len,
            });
        }
        let arr = self.dram_words_of_mut(slot).expect("checked");
        arr[..data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Writes an integer array (e.g. a `pos`/`crd` sub-array) into DRAM,
    /// converting in place — no intermediate allocation.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::write_dram`].
    pub fn write_dram_usize(&mut self, name: &str, data: &[usize]) -> Result<(), RunError> {
        let slot = self.dram_slot_of(name)?;
        self.write_dram_slot_usize(slot, data)
    }

    /// [`Machine::write_dram_usize`] addressed by DRAM slot.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::write_dram`].
    pub fn write_dram_slot_usize(&mut self, slot: Slot, data: &[usize]) -> Result<(), RunError> {
        let st = self.dram_state_of(slot)?;
        if data.len() > st.len {
            return Err(RunError::OutOfBounds {
                mem: self.compiled.syms().dram_name(slot).to_string(),
                index: data.len() as i64,
                len: st.len,
            });
        }
        let arr = self.dram_words_of_mut(slot).expect("checked");
        for (dst, &x) in arr.iter_mut().zip(data) {
            *dst = x as f64;
        }
        Ok(())
    }

    fn dram_state_of(&self, slot: Slot) -> Result<DramState, RunError> {
        match self.dram_state.get(slot as usize) {
            Some(st) if st.mapped => Ok(*st),
            Some(_) => Err(self.unknown_dram(slot)),
            None => Err(RunError::UnknownMemory(format!("dram slot {slot}"))),
        }
    }

    /// Reads a DRAM array.
    pub fn dram(&self, name: &str) -> Option<&[f64]> {
        let slot = self.compiled.syms().dram_slot(name)?;
        self.dram_words_of(slot)
    }

    /// The declared kind of a DRAM array.
    pub fn dram_kind(&self, name: &str) -> Option<MemKind> {
        let slot = self.compiled.syms().dram_slot(name)?;
        let st = self.dram_state[slot as usize];
        st.mapped.then_some(st.kind)
    }

    /// Reads a DRAM array as integers (rounding).
    pub fn dram_usize(&self, name: &str) -> Option<Vec<usize>> {
        let arr = self.dram(name)?;
        let mut out = Vec::with_capacity(arr.len());
        self.read_dram_usize_into(name, arr.len(), &mut out).ok()?;
        Some(out)
    }

    /// Streams the first `len` words of a DRAM array into `out` as
    /// integers (rounding), clearing `out` first.
    ///
    /// # Errors
    ///
    /// [`RunError::UnknownMemory`] when the array is missing,
    /// [`RunError::OutOfBounds`] when it is shorter than `len`; `out` is
    /// left empty in both cases.
    pub fn read_dram_usize_into(
        &self,
        name: &str,
        len: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), RunError> {
        out.clear();
        let arr = self
            .dram(name)
            .ok_or_else(|| RunError::UnknownMemory(name.to_string()))?;
        if arr.len() < len {
            return Err(RunError::OutOfBounds {
                mem: name.to_string(),
                index: len as i64,
                len: arr.len(),
            });
        }
        out.extend(arr[..len].iter().map(|&x| x.round() as usize));
        Ok(())
    }

    /// The statistics gathered so far (updated when [`Machine::run`]
    /// returns).
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Executes the program's Accel block on the flat bytecode engine:
    /// the op vector up to its final `Halt` is one body span, each loop
    /// in it a superinstruction (see [`crate::bytecode::Op`]).
    ///
    /// `program` must be the program the machine was compiled for —
    /// the very [`CompiledProgram::source`], or one equal to it.
    ///
    /// # Errors
    ///
    /// [`RunError::ForeignProgram`] for any other program, before
    /// anything runs: DRAM, on-chip state, statistics and
    /// [`Machine::poisoned`] are left as they were. Otherwise the first
    /// [`RunError`] encountered.
    pub fn run(&mut self, program: &SpatialProgram) -> Result<ExecStats, RunError> {
        let own = self.compiled.source();
        if !std::ptr::eq(program, own) && program != own {
            return Err(RunError::ForeignProgram);
        }
        self.run_compiled()
    }

    /// Runs the program the machine was compiled for (what
    /// [`Machine::run`] does once the program is checked to be it).
    pub(crate) fn run_compiled(&mut self) -> Result<ExecStats, RunError> {
        let prog = Arc::clone(&self.compiled);
        self.arm_budget();
        self.poisoned = true;
        self.vstack.clear();
        self.node_stack.clear();
        self.scan_depth = 0;
        let result = self.run_simple_body(&prog, 0, prog.ops().len() - 1);
        self.stats = self.dense.fold(self.compiled.syms());
        result?;
        self.poisoned = false;
        Ok(self.stats.clone())
    }
}
