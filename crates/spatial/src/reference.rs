//! The original string-keyed tree-walking interpreter, kept as the
//! executable *reference semantics* for the Spatial IR.
//!
//! [`ReferenceMachine`] is the engine the bytecode interpreter
//! ([`crate::Machine`]) is differentially tested against: both must
//! produce byte-identical DRAM contents and identical [`ExecStats`] on
//! every program. It walks the [`SpatialProgram`] tree directly and keys
//! every memory, register, FIFO, and variable access by name through
//! `HashMap<String, _>` lookups — simple and obviously faithful to the
//! documented semantics, but roughly an order of magnitude slower, which
//! is why the production path compiles programs to slot-indexed
//! bytecode ([`crate::bytecode`]) first. `cargo bench --bench interp` measures the
//! two engines against each other.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use crate::faults;
use crate::interp::{
    check_interrupts, exhausted_fuel, BudgetResource, ExecStats, FuelCause, RunBudget, RunError,
    INTERRUPT_MASK,
};
use crate::ir::{Counter, MemDecl, MemKind, SExpr, ScanOp, SpatialProgram, SpatialStmt};

#[derive(Debug, Clone)]
enum Mem {
    Words(Vec<f64>),
    Fifo(VecDeque<f64>),
    Reg(f64),
    Bits(Vec<bool>),
}

/// The machine state a program executes against: DRAM plus on-chip
/// memories, variable bindings, and statistics.
///
/// # Example
///
/// ```
/// use stardust_spatial::{ReferenceMachine, SpatialProgram, SpatialStmt, SExpr, Counter, MemKind};
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
/// let mut m = ReferenceMachine::new(&p);
/// m.write_dram("x", &[1.0, 2.0, 3.0, 4.0]).unwrap();
/// m.run(&p).unwrap();
/// assert_eq!(m.dram("y").unwrap(), &[2.0, 4.0, 6.0, 8.0]);
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceMachine {
    drams: HashMap<String, Vec<f64>>,
    dram_kinds: HashMap<String, MemKind>,
    on_chip: HashMap<String, Mem>,
    on_chip_kinds: HashMap<String, MemKind>,
    env: HashMap<String, f64>,
    stats: ExecStats,
    node_stack: Vec<usize>,
    budget: RunBudget,
    fuel: u64,
    fuel_cause: FuelCause,
    step_limit: u64,
    dram_fuel: u64,
    alloc_fuel: u64,
    deadline_at: Option<Instant>,
    interrupts: bool,
}

impl ReferenceMachine {
    /// Creates a machine with zeroed DRAM arrays sized per the program's
    /// declarations.
    pub fn new(program: &SpatialProgram) -> Self {
        let mut drams = HashMap::new();
        let mut dram_kinds = HashMap::new();
        for d in &program.drams {
            drams.insert(d.name.clone(), vec![0.0; d.size]);
            dram_kinds.insert(d.name.clone(), d.kind);
        }
        ReferenceMachine {
            drams,
            dram_kinds,
            on_chip: HashMap::new(),
            on_chip_kinds: HashMap::new(),
            env: HashMap::new(),
            stats: ExecStats::default(),
            node_stack: Vec::new(),
            budget: RunBudget::default(),
            fuel: u64::MAX,
            fuel_cause: FuelCause::Budget,
            step_limit: u64::MAX,
            dram_fuel: u64::MAX,
            alloc_fuel: u64::MAX,
            deadline_at: None,
            interrupts: false,
        }
    }

    /// Sets the resource budget armed at the next [`ReferenceMachine::run`].
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// The configured resource budget.
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Arms the countdown fields from the configured budget and any
    /// installed [`crate::faults`] plan — the same min-folding as
    /// [`crate::Machine`], so the completes-or-aborts predicate is
    /// engine-identical.
    fn arm_budget(&mut self) {
        let plan = faults::active();
        let mut fuel = self.budget.max_steps.unwrap_or(u64::MAX);
        let mut cause = FuelCause::Budget;
        if let Some(p) = &plan {
            if let Some(n) = p.max_steps {
                fuel = fuel.min(n);
            }
            if let Some(n) = p.error_at_step {
                if n <= fuel {
                    fuel = n;
                    cause = FuelCause::InjectedError;
                }
            }
            if let Some(n) = p.panic_at_step {
                if n <= fuel {
                    fuel = n;
                    cause = FuelCause::InjectedPanic;
                }
            }
        }
        self.fuel = fuel;
        self.fuel_cause = cause;
        self.step_limit = fuel;
        self.dram_fuel = self.budget.max_dram_words.unwrap_or(u64::MAX);
        self.alloc_fuel = plan.as_ref().and_then(|p| p.fail_alloc).unwrap_or(u64::MAX);
        self.deadline_at = self.budget.deadline.map(|d| Instant::now() + d);
        self.interrupts = self.deadline_at.is_some() || self.budget.cancel.is_some();
    }

    /// Charges one interpreter step — called once per loop-body
    /// execution, exactly the `node_trips` bump sites.
    fn charge_step(&mut self) -> Result<(), RunError> {
        if self.fuel == 0 {
            return Err(exhausted_fuel(self.fuel_cause, self.step_limit));
        }
        self.fuel -= 1;
        if self.interrupts && self.fuel & INTERRUPT_MASK == 0 {
            check_interrupts(
                self.deadline_at,
                self.budget
                    .deadline
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0),
                self.budget.cancel.as_ref(),
            )?;
        }
        Ok(())
    }

    /// Charges `words` against the DRAM-word budget.
    fn charge_dram(&mut self, words: u64) -> Result<(), RunError> {
        match self.dram_fuel.checked_sub(words) {
            Some(rest) => {
                self.dram_fuel = rest;
                Ok(())
            }
            None => Err(RunError::BudgetExceeded {
                resource: BudgetResource::DramWords,
                limit: self.budget.max_dram_words.unwrap_or(0),
            }),
        }
    }

    /// Overwrites the head of a DRAM array with `data`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::UnknownMemory`] or [`RunError::OutOfBounds`] when
    /// the array is missing or too small.
    pub fn write_dram(&mut self, name: &str, data: &[f64]) -> Result<(), RunError> {
        let arr = self
            .drams
            .get_mut(name)
            .ok_or_else(|| RunError::UnknownMemory(name.to_string()))?;
        if data.len() > arr.len() {
            return Err(RunError::OutOfBounds {
                mem: name.to_string(),
                index: data.len() as i64,
                len: arr.len(),
            });
        }
        arr[..data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Writes an integer array (e.g. a `pos`/`crd` sub-array) into DRAM.
    ///
    /// # Errors
    ///
    /// Same as [`ReferenceMachine::write_dram`].
    pub fn write_dram_usize(&mut self, name: &str, data: &[usize]) -> Result<(), RunError> {
        let as_f: Vec<f64> = data.iter().map(|&x| x as f64).collect();
        self.write_dram(name, &as_f)
    }

    /// Reads a DRAM array.
    pub fn dram(&self, name: &str) -> Option<&[f64]> {
        self.drams.get(name).map(Vec::as_slice)
    }

    /// The declared kind of a DRAM array.
    pub fn dram_kind(&self, name: &str) -> Option<MemKind> {
        self.dram_kinds.get(name).copied()
    }

    /// Reads a DRAM array as integers (rounding).
    pub fn dram_usize(&self, name: &str) -> Option<Vec<usize>> {
        self.drams
            .get(name)
            .map(|v| v.iter().map(|&x| x.round() as usize).collect())
    }

    /// The statistics gathered so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Executes the program's Accel block.
    ///
    /// # Errors
    ///
    /// Returns the first [`RunError`] encountered.
    pub fn run(&mut self, program: &SpatialProgram) -> Result<ExecStats, RunError> {
        self.arm_budget();
        for stmt in &program.accel {
            self.exec(stmt)?;
        }
        Ok(self.stats.clone())
    }

    fn current_node(&self) -> Option<usize> {
        self.node_stack.last().copied()
    }

    fn note_dram_read(&mut self, dram: &str, words: u64) -> Result<(), RunError> {
        self.charge_dram(words)?;
        *self.stats.dram_reads.entry(dram.to_string()).or_default() += words;
        if let Some(n) = self.current_node() {
            ExecStats::bump_node(&mut self.stats.node_dram_read_words, n, words);
        }
        Ok(())
    }

    fn note_dram_write(&mut self, dram: &str, words: u64) -> Result<(), RunError> {
        self.charge_dram(words)?;
        *self.stats.dram_writes.entry(dram.to_string()).or_default() += words;
        if let Some(n) = self.current_node() {
            ExecStats::bump_node(&mut self.stats.node_dram_write_words, n, words);
        }
        Ok(())
    }

    fn index_of(&self, v: f64, context: &str) -> Result<usize, RunError> {
        if v < 0.0 {
            return Err(RunError::NegativeIndex {
                context: context.to_string(),
                value: v,
            });
        }
        Ok(v.round() as usize)
    }

    fn eval(&mut self, e: &SExpr) -> Result<f64, RunError> {
        match e {
            SExpr::Const(c) => Ok(*c),
            SExpr::Var(v) => self
                .env
                .get(v)
                .copied()
                .ok_or_else(|| RunError::UnboundVar(v.clone())),
            SExpr::RegRead(r) => match self.on_chip.get(r) {
                Some(Mem::Reg(v)) => Ok(*v),
                _ => Err(RunError::UnknownMemory(r.clone())),
            },
            SExpr::Deq(fifo) => {
                self.stats.fifo_deqs += 1;
                match self.on_chip.get_mut(fifo) {
                    Some(Mem::Fifo(q)) => q
                        .pop_front()
                        .ok_or_else(|| RunError::FifoUnderflow(fifo.clone())),
                    _ => Err(RunError::UnknownMemory(fifo.clone())),
                }
            }
            SExpr::ReadMem { mem, index, random } => {
                let ix = self.eval(index)?;
                let ix = self.index_of(ix, mem)?;
                // On-chip first, then DRAM (SparseDram random reads).
                if let Some(kind) = self.on_chip_kinds.get(mem).copied() {
                    let m = self.on_chip.get(mem).expect("kind implies presence");
                    let v = match m {
                        Mem::Words(w) => *w.get(ix).ok_or(RunError::OutOfBounds {
                            mem: mem.clone(),
                            index: ix as i64,
                            len: w.len(),
                        })?,
                        _ => return Err(RunError::UnknownMemory(mem.clone())),
                    };
                    self.stats.sram_reads += 1;
                    if *random && kind == MemKind::SparseSram {
                        self.stats.shuffle_accesses += 1;
                    }
                    Ok(v)
                } else if let Some(arr) = self.drams.get(mem) {
                    let v = *arr.get(ix).ok_or(RunError::OutOfBounds {
                        mem: mem.clone(),
                        index: ix as i64,
                        len: arr.len(),
                    })?;
                    self.charge_dram(1)?;
                    self.stats.dram_random_reads += 1;
                    Ok(v)
                } else {
                    Err(RunError::UnknownMemory(mem.clone()))
                }
            }
            SExpr::Neg(inner) => {
                let v = self.eval(inner)?;
                self.stats.alu_ops += 1;
                Ok(-v)
            }
            SExpr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                self.stats.alu_ops += 1;
                op.apply(a, b).ok_or(RunError::DivisionByZero)
            }
            SExpr::Select {
                cond,
                if_true,
                if_false,
            } => {
                let c = self.eval(cond)?;
                self.stats.alu_ops += 1;
                // Both sides are evaluated in hardware (they are wires);
                // evaluate lazily here only to avoid spurious OOB on the
                // untaken side, which a mux masks out.
                if c != 0.0 {
                    self.eval(if_true)
                } else {
                    self.eval(if_false)
                }
            }
        }
    }

    fn alloc(&mut self, decl: &MemDecl) -> Result<(), RunError> {
        if self.alloc_fuel == 0 {
            self.alloc_fuel = u64::MAX;
            faults::consume_alloc();
            return Err(RunError::InjectedFault {
                site: format!("alloc {}", decl.name),
            });
        }
        self.alloc_fuel -= 1;
        let mem = match decl.kind {
            MemKind::Sram | MemKind::SparseSram => Mem::Words(vec![0.0; decl.size]),
            MemKind::Fifo => Mem::Fifo(VecDeque::new()),
            MemKind::Reg => Mem::Reg(0.0),
            MemKind::BitVector => Mem::Bits(vec![false; decl.size]),
            MemKind::Dram | MemKind::SparseDram => {
                // DRAM is declared at program level, not allocated in Accel.
                return Err(RunError::UnknownMemory(decl.name.clone()));
            }
        };
        self.on_chip.insert(decl.name.clone(), mem);
        self.on_chip_kinds.insert(decl.name.clone(), decl.kind);
        Ok(())
    }

    fn write_on_chip(
        &mut self,
        mem: &str,
        ix: usize,
        value: f64,
        random: bool,
        accumulate: bool,
    ) -> Result<(), RunError> {
        let kind = self
            .on_chip_kinds
            .get(mem)
            .copied()
            .ok_or_else(|| RunError::UnknownMemory(mem.to_string()))?;
        match self.on_chip.get_mut(mem) {
            Some(Mem::Words(w)) => {
                let len = w.len();
                let slot = w.get_mut(ix).ok_or(RunError::OutOfBounds {
                    mem: mem.to_string(),
                    index: ix as i64,
                    len,
                })?;
                if accumulate {
                    *slot += value;
                } else {
                    *slot = value;
                }
                self.stats.sram_writes += 1;
                if (random || accumulate) && kind == MemKind::SparseSram {
                    self.stats.shuffle_accesses += 1;
                }
                Ok(())
            }
            _ => Err(RunError::UnknownMemory(mem.to_string())),
        }
    }

    fn exec(&mut self, stmt: &SpatialStmt) -> Result<(), RunError> {
        match stmt {
            SpatialStmt::Comment(_) => Ok(()),
            SpatialStmt::Alloc(decl) => self.alloc(decl),
            SpatialStmt::Bind { var, value } => {
                let v = self.eval(value)?;
                self.env.insert(var.clone(), v);
                Ok(())
            }
            SpatialStmt::Load {
                dst,
                src,
                start,
                end,
                ..
            } => {
                let s = self.eval(start)?;
                let e = self.eval(end)?;
                let s = self.index_of(s, "load start")?;
                let e = self.index_of(e, "load end")?;
                if s > e {
                    return Err(RunError::NegativeIndex {
                        context: format!("load length (start {s} beyond end {e})"),
                        value: e as f64 - s as f64,
                    });
                }
                let arr = self
                    .drams
                    .get(src)
                    .ok_or_else(|| RunError::UnknownMemory(src.clone()))?;
                if e > arr.len() {
                    return Err(RunError::OutOfBounds {
                        mem: src.clone(),
                        index: e as i64,
                        len: arr.len(),
                    });
                }
                let data: Vec<f64> = arr[s..e].to_vec();
                self.note_dram_read(src, (e - s) as u64)?;
                match self.on_chip.get_mut(dst) {
                    Some(Mem::Words(w)) => {
                        if data.len() > w.len() {
                            return Err(RunError::OutOfBounds {
                                mem: dst.clone(),
                                index: data.len() as i64,
                                len: w.len(),
                            });
                        }
                        w[..data.len()].copy_from_slice(&data);
                        self.stats.sram_writes += data.len() as u64;
                        Ok(())
                    }
                    Some(Mem::Fifo(q)) => {
                        self.stats.fifo_enqs += data.len() as u64;
                        q.extend(data);
                        Ok(())
                    }
                    _ => Err(RunError::UnknownMemory(dst.clone())),
                }
            }
            SpatialStmt::Store {
                dst,
                offset,
                src,
                len,
                ..
            } => {
                let off = self.eval(offset)?;
                let off = self.index_of(off, "store offset")?;
                let n = self.eval(len)?;
                let n = self.index_of(n, "store len")?;
                let data: Vec<f64> = match self.on_chip.get(src) {
                    Some(Mem::Words(w)) => {
                        if n > w.len() {
                            return Err(RunError::OutOfBounds {
                                mem: src.clone(),
                                index: n as i64,
                                len: w.len(),
                            });
                        }
                        w[..n].to_vec()
                    }
                    _ => return Err(RunError::UnknownMemory(src.clone())),
                };
                self.stats.sram_reads += n as u64;
                let arr = self
                    .drams
                    .get_mut(dst)
                    .ok_or_else(|| RunError::UnknownMemory(dst.clone()))?;
                if off + n > arr.len() {
                    return Err(RunError::OutOfBounds {
                        mem: dst.clone(),
                        index: (off + n) as i64,
                        len: arr.len(),
                    });
                }
                arr[off..off + n].copy_from_slice(&data);
                self.note_dram_write(dst, n as u64)?;
                Ok(())
            }
            SpatialStmt::StreamStore {
                dst,
                offset,
                fifo,
                len,
            } => {
                let off = self.eval(offset)?;
                let off = self.index_of(off, "stream store offset")?;
                let n = self.eval(len)?;
                let n = self.index_of(n, "stream store len")?;
                let mut data = Vec::with_capacity(n);
                match self.on_chip.get_mut(fifo) {
                    Some(Mem::Fifo(q)) => {
                        for _ in 0..n {
                            data.push(
                                q.pop_front()
                                    .ok_or_else(|| RunError::FifoUnderflow(fifo.clone()))?,
                            );
                        }
                    }
                    _ => return Err(RunError::UnknownMemory(fifo.clone())),
                }
                self.stats.fifo_deqs += n as u64;
                let arr = self
                    .drams
                    .get_mut(dst)
                    .ok_or_else(|| RunError::UnknownMemory(dst.clone()))?;
                if off + n > arr.len() {
                    return Err(RunError::OutOfBounds {
                        mem: dst.clone(),
                        index: (off + n) as i64,
                        len: arr.len(),
                    });
                }
                arr[off..off + n].copy_from_slice(&data);
                self.note_dram_write(dst, n as u64)?;
                Ok(())
            }
            SpatialStmt::StoreScalar { dst, index, value } => {
                let ix = self.eval(index)?;
                let ix = self.index_of(ix, "scalar store index")?;
                let v = self.eval(value)?;
                self.charge_dram(1)?;
                let arr = self
                    .drams
                    .get_mut(dst)
                    .ok_or_else(|| RunError::UnknownMemory(dst.clone()))?;
                let len = arr.len();
                let slot = arr.get_mut(ix).ok_or(RunError::OutOfBounds {
                    mem: dst.clone(),
                    index: ix as i64,
                    len,
                })?;
                *slot = v;
                self.stats.dram_random_writes += 1;
                Ok(())
            }
            SpatialStmt::WriteMem {
                mem,
                index,
                value,
                random,
            } => {
                let ix = self.eval(index)?;
                let ix = self.index_of(ix, mem)?;
                let v = self.eval(value)?;
                self.write_on_chip(mem, ix, v, *random, false)
            }
            SpatialStmt::RmwAdd { mem, index, value } => {
                let ix = self.eval(index)?;
                let ix = self.index_of(ix, mem)?;
                let v = self.eval(value)?;
                self.write_on_chip(mem, ix, v, true, true)
            }
            SpatialStmt::SetReg { reg, value } => {
                let v = self.eval(value)?;
                match self.on_chip.get_mut(reg) {
                    Some(Mem::Reg(r)) => {
                        *r = v;
                        Ok(())
                    }
                    _ => Err(RunError::UnknownMemory(reg.clone())),
                }
            }
            SpatialStmt::Enq { fifo, value } => {
                let v = self.eval(value)?;
                match self.on_chip.get_mut(fifo) {
                    Some(Mem::Fifo(q)) => {
                        q.push_back(v);
                        self.stats.fifo_enqs += 1;
                        Ok(())
                    }
                    _ => Err(RunError::UnknownMemory(fifo.clone())),
                }
            }
            SpatialStmt::GenBitVector {
                dst,
                src,
                src_start,
                count,
                dim,
            } => {
                let n = self.eval(count)?;
                let n = self.index_of(n, "genbv count")?;
                let d = self.eval(dim)?;
                let d = self.index_of(d, "genbv dim")?;
                let s = self.eval(src_start)?;
                let s = self.index_of(s, "genbv start")?;
                // Gather coordinates from the source memory.
                let coords: Vec<f64> = match self.on_chip.get_mut(src) {
                    Some(Mem::Fifo(q)) => {
                        let mut out = Vec::with_capacity(n);
                        for _ in 0..n {
                            let v = q
                                .pop_front()
                                .ok_or_else(|| RunError::FifoUnderflow(src.clone()))?;
                            out.push(v);
                        }
                        self.stats.fifo_deqs += n as u64;
                        out
                    }
                    Some(Mem::Words(w)) => {
                        if s + n > w.len() {
                            return Err(RunError::OutOfBounds {
                                mem: src.clone(),
                                index: (s + n) as i64,
                                len: w.len(),
                            });
                        }
                        self.stats.sram_reads += n as u64;
                        w[s..s + n].to_vec()
                    }
                    _ => return Err(RunError::UnknownMemory(src.clone())),
                };
                match self.on_chip.get_mut(dst) {
                    Some(Mem::Bits(bits)) => {
                        if bits.len() < d {
                            bits.resize(d, false);
                        }
                        bits.iter_mut().for_each(|b| *b = false);
                        for v in coords {
                            if v < 0.0 {
                                return Err(RunError::NegativeIndex {
                                    context: "genbv coordinate".to_string(),
                                    value: v,
                                });
                            }
                            let c = v.round() as usize;
                            if c >= bits.len() {
                                return Err(RunError::OutOfBounds {
                                    mem: dst.clone(),
                                    index: c as i64,
                                    len: bits.len(),
                                });
                            }
                            bits[c] = true;
                        }
                        self.stats.bv_gen_bits += d as u64;
                        Ok(())
                    }
                    _ => Err(RunError::UnknownMemory(dst.clone())),
                }
            }
            SpatialStmt::Foreach {
                id, counter, body, ..
            } => {
                self.node_stack.push(*id);
                let result = self.run_counter(counter, |m| {
                    m.charge_step()?;
                    ExecStats::bump_node(&mut m.stats.node_trips, *id, 1);
                    for s in body {
                        m.exec(s)?;
                    }
                    Ok(())
                });
                self.node_stack.pop();
                result
            }
            SpatialStmt::Reduce {
                id,
                reg,
                counter,
                body,
                expr,
                ..
            } => {
                self.node_stack.push(*id);
                let mut acc = match self.on_chip.get(reg) {
                    Some(Mem::Reg(v)) => *v,
                    _ => {
                        self.node_stack.pop();
                        return Err(RunError::UnknownMemory(reg.clone()));
                    }
                };
                let result = self.run_counter(counter, |m| {
                    m.charge_step()?;
                    ExecStats::bump_node(&mut m.stats.node_trips, *id, 1);
                    for s in body {
                        m.exec(s)?;
                    }
                    let v = m.eval(expr)?;
                    m.stats.reduce_elems += 1;
                    m.stats.alu_ops += 1; // the tree-add
                    acc += v;
                    Ok(())
                });
                self.node_stack.pop();
                result?;
                if let Some(Mem::Reg(r)) = self.on_chip.get_mut(reg) {
                    *r = acc;
                }
                Ok(())
            }
        }
    }

    fn run_counter(
        &mut self,
        counter: &Counter,
        mut body: impl FnMut(&mut ReferenceMachine) -> Result<(), RunError>,
    ) -> Result<(), RunError> {
        match counter {
            Counter::Range {
                var,
                min,
                max,
                step,
            } => {
                let lo = self.eval(min)?;
                let hi = self.eval(max)?;
                let step = *step;
                debug_assert!(step > 0, "non-positive loop step");
                let saved = self.env.get(var).copied();
                let mut v = lo;
                while v < hi {
                    self.env.insert(var.clone(), v);
                    body(self)?;
                    v += step as f64;
                }
                rebind(&mut self.env, var, saved);
                Ok(())
            }
            Counter::Scan2 {
                op,
                bv_a,
                bv_b,
                a_pos_var,
                b_pos_var,
                out_pos_var,
                idx_var,
            } => {
                let a = match self.on_chip.get(bv_a) {
                    Some(Mem::Bits(b)) => b.clone(),
                    _ => return Err(RunError::UnknownMemory(bv_a.clone())),
                };
                let b = match self.on_chip.get(bv_b) {
                    Some(Mem::Bits(bb)) => bb.clone(),
                    _ => return Err(RunError::UnknownMemory(bv_b.clone())),
                };
                let dim = a.len().max(b.len());
                self.stats.scan_bits += 2 * dim as u64;
                let saved: Vec<(String, Option<f64>)> =
                    [a_pos_var, b_pos_var, out_pos_var, idx_var]
                        .iter()
                        .map(|v| ((*v).clone(), self.env.get(*v).copied()))
                        .collect();
                let (mut ap, mut bp, mut op_count) = (0u64, 0u64, 0u64);
                for idx in 0..dim {
                    let has_a = a.get(idx).copied().unwrap_or(false);
                    let has_b = b.get(idx).copied().unwrap_or(false);
                    let combined = match op {
                        ScanOp::And => has_a && has_b,
                        ScanOp::Or => has_a || has_b,
                    };
                    if combined {
                        self.env
                            .insert(a_pos_var.clone(), if has_a { ap as f64 } else { -1.0 });
                        self.env
                            .insert(b_pos_var.clone(), if has_b { bp as f64 } else { -1.0 });
                        self.env.insert(out_pos_var.clone(), op_count as f64);
                        self.env.insert(idx_var.clone(), idx as f64);
                        self.stats.scan_emits += 1;
                        body(self)?;
                        op_count += 1;
                    }
                    if has_a {
                        ap += 1;
                    }
                    if has_b {
                        bp += 1;
                    }
                }
                for (v, old) in saved {
                    rebind(&mut self.env, &v, old);
                }
                Ok(())
            }
        }
    }
}

fn rebind(env: &mut HashMap<String, f64>, var: &str, saved: Option<f64>) {
    match saved {
        Some(v) => {
            env.insert(var.to_string(), v);
        }
        None => {
            env.remove(var);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinSOp, MemDecl};

    fn empty_program() -> SpatialProgram {
        SpatialProgram::new("t")
    }

    #[test]
    fn bind_and_eval_arithmetic() {
        let p = empty_program();
        let mut m = ReferenceMachine::new(&p);
        m.exec(&SpatialStmt::Bind {
            var: "x".into(),
            value: SExpr::Const(3.0),
        })
        .unwrap();
        let v = m
            .eval(&SExpr::bin(BinSOp::Mul, SExpr::var("x"), SExpr::Const(4.0)))
            .unwrap();
        assert_eq!(v, 12.0);
        assert_eq!(m.stats().alu_ops, 1);
    }

    #[test]
    fn load_to_sram_and_fifo() {
        let mut p = empty_program();
        p.add_dram("d", 4);
        let mut m = ReferenceMachine::new(&p);
        m.write_dram("d", &[1.0, 2.0, 3.0, 4.0]).unwrap();
        m.exec(&SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 4)))
            .unwrap();
        m.exec(&SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 16)))
            .unwrap();
        m.exec(&SpatialStmt::Load {
            dst: "s".into(),
            src: "d".into(),
            start: SExpr::Const(1.0),
            end: SExpr::Const(3.0),
            par: 1,
        })
        .unwrap();
        m.exec(&SpatialStmt::Load {
            dst: "f".into(),
            src: "d".into(),
            start: SExpr::Const(0.0),
            end: SExpr::Const(2.0),
            par: 1,
        })
        .unwrap();
        assert_eq!(m.eval(&SExpr::read("s", SExpr::Const(0.0))).unwrap(), 2.0);
        assert_eq!(m.eval(&SExpr::Deq("f".into())).unwrap(), 1.0);
        assert_eq!(m.eval(&SExpr::Deq("f".into())).unwrap(), 2.0);
        assert_eq!(m.stats().dram_reads["d"], 4);
    }

    #[test]
    fn fifo_underflow_detected() {
        let p = empty_program();
        let mut m = ReferenceMachine::new(&p);
        m.exec(&SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 4)))
            .unwrap();
        assert_eq!(
            m.eval(&SExpr::Deq("f".into())),
            Err(RunError::FifoUnderflow("f".into()))
        );
    }

    #[test]
    fn reduce_accumulates() {
        let mut p = empty_program();
        p.add_dram("out", 1);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
        p.accel.push(SpatialStmt::Reduce {
            id: 0,
            reg: "acc".into(),
            counter: Counter::range_to("i", SExpr::Const(5.0)),
            par: 1,
            body: vec![],
            expr: SExpr::var("i"),
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::RegRead("acc".into()),
        });
        p.assign_ids();
        let mut m = ReferenceMachine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 10.0);
        assert_eq!(m.stats().reduce_elems, 5);
        assert_eq!(m.stats().trips(0), 5);
    }

    /// A one-input scan: `or` against an all-zero vector of the same
    /// dimension emits exactly `bv`'s set bits.
    #[test]
    fn or_scan_against_zero_visits_set_bits() {
        let p = empty_program();
        let mut m = ReferenceMachine::new(&p);
        for bv in ["bv", "none"] {
            m.exec(&SpatialStmt::Alloc(MemDecl::new(bv, MemKind::BitVector, 8)))
                .unwrap();
        }
        m.exec(&SpatialStmt::Alloc(MemDecl::new("crd", MemKind::Fifo, 8)))
            .unwrap();
        for c in [1.0, 4.0, 6.0] {
            m.exec(&SpatialStmt::Enq {
                fifo: "crd".into(),
                value: SExpr::Const(c),
            })
            .unwrap();
        }
        m.exec(&SpatialStmt::GenBitVector {
            dst: "bv".into(),
            src: "crd".into(),
            src_start: SExpr::Const(0.0),
            count: SExpr::Const(3.0),
            dim: SExpr::Const(8.0),
        })
        .unwrap();
        m.exec(&SpatialStmt::Alloc(MemDecl::new("out", MemKind::Sram, 8)))
            .unwrap();
        m.exec(&SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Scan2 {
                op: ScanOp::Or,
                bv_a: "bv".into(),
                bv_b: "none".into(),
                a_pos_var: "p".into(),
                b_pos_var: "q".into(),
                out_pos_var: "o".into(),
                idx_var: "i".into(),
            },
            par: 1,
            body: vec![SpatialStmt::WriteMem {
                mem: "out".into(),
                index: SExpr::var("p"),
                value: SExpr::var("i"),
                random: false,
            }],
        })
        .unwrap();
        let out = match m.on_chip.get("out") {
            Some(Mem::Words(w)) => w.clone(),
            _ => panic!(),
        };
        assert_eq!(&out[..3], &[1.0, 4.0, 6.0]);
        assert_eq!(m.stats().scan_emits, 3);
        assert_eq!(m.stats().scan_bits, 16);
    }

    /// The worked example of Fig. 7: A crd {1,2,5}, B crd {0,2,3,8},
    /// union produces out crd {0,1,2,3,5,8} with the pattern indices shown
    /// in the figure.
    #[test]
    fn scan2_union_matches_fig7() {
        let p = empty_program();
        let mut m = ReferenceMachine::new(&p);
        for (bv, coords) in [
            ("bvA", vec![1.0, 2.0, 5.0]),
            ("bvB", vec![0.0, 2.0, 3.0, 8.0]),
        ] {
            m.exec(&SpatialStmt::Alloc(MemDecl::new(bv, MemKind::BitVector, 9)))
                .unwrap();
            let fifo = format!("{bv}_crd");
            m.exec(&SpatialStmt::Alloc(MemDecl::new(&fifo, MemKind::Fifo, 9)))
                .unwrap();
            for c in &coords {
                m.exec(&SpatialStmt::Enq {
                    fifo: fifo.clone(),
                    value: SExpr::Const(*c),
                })
                .unwrap();
            }
            m.exec(&SpatialStmt::GenBitVector {
                dst: bv.into(),
                src: fifo,
                src_start: SExpr::Const(0.0),
                count: SExpr::Const(coords.len() as f64),
                dim: SExpr::Const(9.0),
            })
            .unwrap();
        }
        m.exec(&SpatialStmt::Alloc(MemDecl::new(
            "out_crd",
            MemKind::Sram,
            9,
        )))
        .unwrap();
        m.exec(&SpatialStmt::Alloc(MemDecl::new(
            "tuples",
            MemKind::Fifo,
            64,
        )))
        .unwrap();
        m.exec(&SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Scan2 {
                op: ScanOp::Or,
                bv_a: "bvA".into(),
                bv_b: "bvB".into(),
                a_pos_var: "pA".into(),
                b_pos_var: "pB".into(),
                out_pos_var: "pO".into(),
                idx_var: "i".into(),
            },
            par: 1,
            body: vec![
                SpatialStmt::WriteMem {
                    mem: "out_crd".into(),
                    index: SExpr::var("pO"),
                    value: SExpr::var("i"),
                    random: false,
                },
                SpatialStmt::Enq {
                    fifo: "tuples".into(),
                    value: SExpr::var("pA"),
                },
                SpatialStmt::Enq {
                    fifo: "tuples".into(),
                    value: SExpr::var("pB"),
                },
            ],
        })
        .unwrap();
        let out = match m.on_chip.get("out_crd") {
            Some(Mem::Words(w)) => w.clone(),
            _ => panic!(),
        };
        assert_eq!(&out[..6], &[0.0, 1.0, 2.0, 3.0, 5.0, 8.0]);
        // Pattern indices from Fig. 7 (X rendered as -1):
        // (X,0) (0,X) (1,1) (X,2) (2,X) (X,3) — wait, the figure lists
        // (A,B) pairs per output: (X,0),(0,X),(1,1),(X,2),(2,X),(X,3).
        let tuples = match m.on_chip.get("tuples") {
            Some(Mem::Fifo(q)) => q.iter().copied().collect::<Vec<_>>(),
            _ => panic!(),
        };
        assert_eq!(
            tuples,
            vec![
                -1.0, 0.0, // i=0: only B
                0.0, -1.0, // i=1: only A
                1.0, 1.0, // i=2: both
                -1.0, 2.0, // i=3: only B
                2.0, -1.0, // i=5: only A
                -1.0, 3.0, // i=8: only B
            ]
        );
        assert_eq!(m.stats().scan_emits, 6);
    }

    #[test]
    fn scan2_intersection() {
        let p = empty_program();
        let mut m = ReferenceMachine::new(&p);
        for (bv, coords) in [("bvA", vec![1usize, 2, 5]), ("bvB", vec![0, 2, 5, 7])] {
            m.exec(&SpatialStmt::Alloc(MemDecl::new(bv, MemKind::BitVector, 8)))
                .unwrap();
            match m.on_chip.get_mut(bv) {
                Some(Mem::Bits(b)) => {
                    for &c in &coords {
                        b[c] = true;
                    }
                }
                _ => panic!(),
            }
        }
        let mut emitted = Vec::new();
        m.run_counter(
            &Counter::Scan2 {
                op: ScanOp::And,
                bv_a: "bvA".into(),
                bv_b: "bvB".into(),
                a_pos_var: "pA".into(),
                b_pos_var: "pB".into(),
                out_pos_var: "pO".into(),
                idx_var: "i".into(),
            },
            |m| {
                emitted.push((
                    m.env["pA"] as i64,
                    m.env["pB"] as i64,
                    m.env["pO"] as i64,
                    m.env["i"] as i64,
                ));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(emitted, vec![(1, 1, 0, 2), (2, 2, 1, 5)]);
    }

    #[test]
    fn rmw_add_into_sparse_sram_counts_shuffle() {
        let p = empty_program();
        let mut m = ReferenceMachine::new(&p);
        m.exec(&SpatialStmt::Alloc(MemDecl::new(
            "acc",
            MemKind::SparseSram,
            4,
        )))
        .unwrap();
        m.exec(&SpatialStmt::RmwAdd {
            mem: "acc".into(),
            index: SExpr::Const(2.0),
            value: SExpr::Const(1.5),
        })
        .unwrap();
        m.exec(&SpatialStmt::RmwAdd {
            mem: "acc".into(),
            index: SExpr::Const(2.0),
            value: SExpr::Const(1.0),
        })
        .unwrap();
        assert_eq!(m.eval(&SExpr::read("acc", SExpr::Const(2.0))).unwrap(), 2.5);
        assert_eq!(m.stats().shuffle_accesses, 2);
    }

    #[test]
    fn sparse_dram_random_read() {
        let mut p = empty_program();
        p.add_sparse_dram("x", 8);
        let mut m = ReferenceMachine::new(&p);
        m.write_dram("x", &[0.0, 10.0, 20.0]).unwrap();
        let v = m.eval(&SExpr::read_random("x", SExpr::Const(2.0))).unwrap();
        assert_eq!(v, 20.0);
        assert_eq!(m.stats().dram_random_reads, 1);
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut p = empty_program();
        p.add_dram("d", 2);
        let mut m = ReferenceMachine::new(&p);
        let err = m.eval(&SExpr::read("d", SExpr::Const(5.0))).unwrap_err();
        assert!(matches!(err, RunError::OutOfBounds { .. }));
    }

    #[test]
    fn stream_store_drains_fifo() {
        let mut p = empty_program();
        p.add_dram("out", 8);
        let mut m = ReferenceMachine::new(&p);
        m.exec(&SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 8)))
            .unwrap();
        for v in [5.0, 6.0, 7.0] {
            m.exec(&SpatialStmt::Enq {
                fifo: "f".into(),
                value: SExpr::Const(v),
            })
            .unwrap();
        }
        m.exec(&SpatialStmt::StreamStore {
            dst: "out".into(),
            offset: SExpr::Const(2.0),
            fifo: "f".into(),
            len: SExpr::Const(3.0),
        })
        .unwrap();
        assert_eq!(&m.dram("out").unwrap()[2..5], &[5.0, 6.0, 7.0]);
        assert_eq!(m.stats().dram_writes["out"], 3);
    }

    #[test]
    fn nested_foreach_trips_recorded() {
        let mut p = empty_program();
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(3.0)),
            par: 2,
            body: vec![SpatialStmt::Foreach {
                id: 1,
                counter: Counter::range_to("j", SExpr::Const(4.0)),
                par: 1,
                body: vec![],
            }],
        });
        p.assign_ids();
        let mut m = ReferenceMachine::new(&p);
        let stats = m.run(&p).unwrap();
        assert_eq!(stats.trips(0), 3);
        assert_eq!(stats.trips(1), 12);
    }

    #[test]
    fn alloc_in_loop_resets() {
        // A register allocated inside a loop body starts at zero each
        // iteration.
        let mut p = empty_program();
        p.add_dram("out", 4);
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(3.0)),
            par: 1,
            body: vec![
                SpatialStmt::Alloc(MemDecl::new("r", MemKind::Reg, 1)),
                SpatialStmt::SetReg {
                    reg: "r".into(),
                    value: SExpr::add(SExpr::RegRead("r".into()), SExpr::var("i")),
                },
                SpatialStmt::StoreScalar {
                    dst: "out".into(),
                    index: SExpr::var("i"),
                    value: SExpr::RegRead("r".into()),
                },
            ],
        });
        p.assign_ids();
        let mut m = ReferenceMachine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(&m.dram("out").unwrap()[..3], &[0.0, 1.0, 2.0]);
    }
}
