//! Lowering scheduled CIN to Spatial parallel patterns (§6.2, §7).
//!
//! The lowerer recursively traverses the CIN IR. At each `∀` node it
//! consults the `lowerIter` rewrite system ([`crate::contraction`]) to pick
//! a declarative iteration construct — dense `Foreach`/`Reduce`, a
//! position loop over one compressed level, or bit-vector `Scan`
//! co-iteration — and it emits the memory allocations and DRAM↔on-chip
//! transfers prescribed by the memory analysis ([`crate::memory`]):
//! position arrays into SRAM one loop above their mode, coordinate/value
//! segments into FIFOs (or SRAMs when the segment is re-iterated or
//! scan-indexed), staged dense slices via bulk loads, scalars into
//! registers.
//!
//! Union (`∪`) co-iteration with a compressed output uses the two scanner
//! loops described in §7.2: a *count* pass computes the output positions
//! sub-array (followed by a sequential prefix sum), and a *value* pass
//! recomputes the scan to fill coordinates and values. Outputs with two
//! nested compressed union levels (Plus2's UCC output) stream sequentially
//! with running position registers, which is why the paper runs Plus2
//! without outer parallelism (Table 5).

use std::collections::HashMap;

use stardust_ir::cin::{AssignOp, PatternFn, Stmt};
use stardust_ir::expr::{Access, Expr, IndexVar};
use stardust_spatial::ir::MemDecl;
use stardust_spatial::{Counter, MemKind, SExpr, SpatialProgram, SpatialStmt};
use stardust_tensor::LevelFormat;

use crate::context::Program;
use crate::contraction::IterStrategy;
use crate::error::CompileError;
use crate::memory::{analyze, analyze_iteration, ArrayRole, MemoryPlan, VarIteration};

/// Buffer-size hints for DRAM array declarations: actual nonzero counts per
/// tensor level (the compiler otherwise falls back to dense worst-case
/// sizes, which is intractable for paper-scale matrices).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SizeHints {
    /// `(tensor, level)` → number of stored positions at that level.
    pub level_nnz: HashMap<(String, usize), usize>,
    /// `tensor` → values array length.
    pub vals_len: HashMap<String, usize>,
}

impl SizeHints {
    /// Creates empty hints (dense worst-case sizing).
    pub fn new() -> Self {
        SizeHints::default()
    }

    /// Records the stored position count of a tensor level.
    pub fn set_level_nnz(&mut self, tensor: &str, level: usize, nnz: usize) {
        self.level_nnz.insert((tensor.to_string(), level), nnz);
    }

    /// Records a values-array length.
    pub fn set_vals_len(&mut self, tensor: &str, len: usize) {
        self.vals_len.insert(tensor.to_string(), len);
    }
}

/// How a tensor's value is obtained at the expression leaf.
#[derive(Debug, Clone)]
enum ValSource {
    /// Bound variable holding a dequeued value.
    Var(String),
    /// Read `mem[pos]`; `random` marks gathers.
    Mem {
        mem: String,
        pos: SExpr,
        random: bool,
        valid: Option<SExpr>,
    },
}

/// Per-tensor lowering state while descending the loop nest.
#[derive(Debug, Clone)]
struct TensorState {
    /// Next storage level to process.
    level: usize,
    /// Global (DRAM-relative) position at the current level.
    global_pos: SExpr,
    /// Present-flag for union scans (None = always present).
    valid: Option<SExpr>,
    /// Where to read the value once all levels are processed.
    val: Option<ValSource>,
}

impl TensorState {
    fn root() -> Self {
        TensorState {
            level: 0,
            global_pos: SExpr::Const(0.0),
            valid: None,
            val: None,
        }
    }
}

/// Output-writing context for compressed outputs.
#[derive(Debug, Clone)]
enum OutCtx {
    /// Mirror the driving input's structure (SDDMM, TTV, TTM): enqueue
    /// values/coords, stream-store at the driver's segment offset scaled by
    /// the product of dense output dims below the mirrored level.
    Mirror {
        vals_fifo: String,
        /// Product of dense output dims below the mirrored level (stream
        /// stores scale offsets/lengths by this; recorded for debugging).
        #[allow(dead_code)]
        dense_factor: usize,
    },
    /// Sequential streaming with running position registers (nested-union
    /// outputs, Plus2).
    Sequential { counters: HashMap<usize, String> },
    /// Two-pass union value pass: enqueue values, offsets come from the
    /// positions array computed by the count pass.
    TwoPassValue { vals_fifo: String },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Normal lowering: values computed and stored.
    Value,
    /// Union count pass: iteration structure only; counts scan emissions.
    Count,
}

#[derive(Debug, Clone, Default)]
struct Scope {
    tensors: HashMap<String, TensorState>,
    coords: HashMap<IndexVar, SExpr>,
    out: Option<OutCtx>,
    /// Register accumulating the current dense-output element (Sequence
    /// lowering for Residual / MatTransMul).
    lhs_reg: Option<String>,
}

/// The CIN→Spatial lowerer.
pub struct Lowerer<'p> {
    program: &'p Program,
    plan: MemoryPlan,
    iteration: HashMap<IndexVar, VarIteration>,
    extents: HashMap<IndexVar, usize>,
    hints: SizeHints,
    inner_par: usize,
    outer_par: usize,
    fresh: usize,
    prog: SpatialProgram,
    outer_par_used: bool,
    staged_layouts: HashMap<String, (Vec<IndexVar>, Vec<usize>)>,
    union_levels: Vec<usize>,
}

impl<'p> Lowerer<'p> {
    /// Creates a lowerer for a scheduled statement.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when analysis fails.
    pub fn new(program: &'p Program, stmt: &Stmt, hints: SizeHints) -> Result<Self, CompileError> {
        let plan = analyze(program, stmt)?;
        let facts = analyze_iteration(program, stmt)?;
        let iteration: HashMap<IndexVar, VarIteration> =
            facts.into_iter().map(|f| (f.var.clone(), f)).collect();
        let mut extents = HashMap::new();
        collect_extents(program, stmt, &mut extents)?;
        let space = stardust_ir::eval::build_index_space(stmt, &stardust_ir::EvalContext::new())?;
        let inner_par = space.env("innerPar").unwrap_or(1).max(1) as usize;
        let outer_par = space.env("outerPar").unwrap_or(1).max(1) as usize;
        let mut lowerer = Lowerer {
            program,
            plan,
            iteration,
            extents,
            hints,
            inner_par,
            outer_par,
            fresh: 0,
            prog: SpatialProgram::new(program.name()),
            outer_par_used: false,
            staged_layouts: HashMap::new(),
            union_levels: Vec::new(),
        };
        lowerer.union_levels = lowerer.compute_union_levels();
        Ok(lowerer)
    }

    /// The memory plan computed for the statement.
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// Lowers the statement into a complete Spatial program.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::NoLoweringRule`] for CIN shapes outside the
    /// supported rewrite rules (which the paper maps to the host).
    pub fn lower(mut self, stmt: &Stmt) -> Result<SpatialProgram, CompileError> {
        self.prog.add_const("ip", self.inner_par as i64);
        self.prog.add_const("op", self.outer_par as i64);
        self.declare_drams();
        let mut body = Vec::new();
        self.emit_preamble(&mut body);

        if self.needs_two_pass() {
            // Scanner loop 1 (count pass) + sequential prefix sum.
            body.push(SpatialStmt::Comment(
                "scanner pass 1: count union matches per row".into(),
            ));
            let mut scope = self.initial_scope();
            self.lower_stmt(stmt, &mut scope, &mut body, Mode::Count)?;
            self.emit_prefix_sum(&mut body);
            body.push(SpatialStmt::Comment(
                "scanner pass 2: compute coordinates and values".into(),
            ));
            self.outer_par_used = false;
        }

        let mut scope = self.initial_scope();
        if self.needs_sequential_union() {
            let out = self.program.output().to_string();
            let decl = self.program.decl(&out).expect("output declared").clone();
            let mut counters = HashMap::new();
            for (l, f) in decl.format.levels().iter().enumerate() {
                if f.is_compressed() {
                    let reg = format!("{out}{}_ctr", l + 1);
                    body.push(SpatialStmt::Alloc(MemDecl::new(&reg, MemKind::Reg, 1)));
                    body.push(SpatialStmt::StoreScalar {
                        dst: format!("{out}{}_pos_dram", l + 1),
                        index: SExpr::Const(0.0),
                        value: SExpr::Const(0.0),
                    });
                    counters.insert(l, reg);
                }
            }
            scope.out = Some(OutCtx::Sequential { counters });
        }
        self.lower_stmt(stmt, &mut scope, &mut body, Mode::Value)?;
        self.prog.accel = body;
        self.prog.assign_ids();
        Ok(self.prog)
    }

    fn initial_scope(&self) -> Scope {
        Scope {
            tensors: self
                .program
                .decls()
                .map(|d| (d.name.clone(), TensorState::root()))
                .collect(),
            ..Scope::default()
        }
    }

    // ------------------------------------------------------------------
    // Setup
    // ------------------------------------------------------------------

    fn fresh_name(&mut self, base: &str) -> String {
        self.fresh += 1;
        format!("{base}_{}", self.fresh)
    }

    fn extent(&self, v: &IndexVar) -> Result<usize, CompileError> {
        self.extents
            .get(v)
            .copied()
            .ok_or_else(|| CompileError::Memory(format!("no extent for {v}")))
    }

    fn level_positions(&self, tensor: &str, level: usize) -> usize {
        if let Some(&n) = self.hints.level_nnz.get(&(tensor.to_string(), level)) {
            return n;
        }
        let decl = self.program.decl(tensor).expect("declared");
        let mut parents = 1usize;
        for l in 0..=level {
            let dim = decl.dims[decl.format.mode_order()[l]];
            parents = match decl.format.level(l) {
                LevelFormat::Dense => parents * dim,
                LevelFormat::Compressed => self
                    .hints
                    .level_nnz
                    .get(&(tensor.to_string(), l))
                    .copied()
                    .unwrap_or(parents * dim),
            };
        }
        parents
    }

    fn vals_len(&self, tensor: &str) -> usize {
        if let Some(&n) = self.hints.vals_len.get(tensor) {
            return n;
        }
        let decl = self.program.decl(tensor).expect("declared");
        if decl.is_scalar() {
            return 1;
        }
        self.level_positions(tensor, decl.format.rank() - 1)
    }

    fn declare_drams(&mut self) {
        let decls: Vec<_> = self.program.decls().cloned().collect();
        for decl in decls {
            let name = decl.name.clone();
            if decl.format.region().is_on_chip() {
                continue;
            }
            if decl.is_scalar() {
                self.prog.add_dram(format!("{name}_dram"), 1);
                continue;
            }
            let vals_kind = self.plan.dram_vals_kind(&name);
            for (l, f) in decl.format.levels().iter().enumerate() {
                if f.is_compressed() {
                    let parents = if l == 0 {
                        1
                    } else {
                        self.level_positions(&name, l - 1)
                    };
                    self.prog
                        .add_dram(format!("{name}{}_pos_dram", l + 1), parents + 1);
                    self.prog.add_dram(
                        format!("{name}{}_crd_dram", l + 1),
                        self.level_positions(&name, l).max(1),
                    );
                }
            }
            let len = self.vals_len(&name).max(1);
            if vals_kind == MemKind::SparseDram {
                self.prog.add_sparse_dram(format!("{name}_vals_dram"), len);
            } else {
                self.prog.add_dram(format!("{name}_vals_dram"), len);
            }
        }
    }

    /// Kernel-top emissions: scalar inputs into registers, whole position
    /// arrays into SRAM (affine-addressed, shared across outer iterations).
    fn emit_preamble(&mut self, body: &mut Vec<SpatialStmt>) {
        let decls: Vec<_> = self.program.decls().cloned().collect();
        let output = self.program.output().to_string();
        for decl in &decls {
            if decl.format.region().is_on_chip() {
                continue;
            }
            if decl.is_scalar() {
                let reg = format!("{}_reg", decl.name);
                body.push(SpatialStmt::Alloc(MemDecl::new(&reg, MemKind::Reg, 1)));
                if decl.name != output {
                    body.push(SpatialStmt::SetReg {
                        reg,
                        value: SExpr::read(format!("{}_dram", decl.name), SExpr::Const(0.0)),
                    });
                }
                continue;
            }
            if decl.name == output {
                continue;
            }
            for (l, f) in decl.format.levels().iter().enumerate() {
                if f.is_compressed() {
                    let name = format!("{}{}_pos", decl.name, l + 1);
                    let parents = if l == 0 {
                        1
                    } else {
                        self.level_positions(&decl.name, l - 1)
                    };
                    body.push(SpatialStmt::Alloc(MemDecl::new(
                        &name,
                        MemKind::Sram,
                        parents + 1,
                    )));
                    body.push(SpatialStmt::Load {
                        dst: name,
                        src: format!("{}{}_pos_dram", decl.name, l + 1),
                        start: SExpr::Const(0.0),
                        end: SExpr::Const((parents + 1) as f64),
                        par: self.inner_par,
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Union-output plumbing
    // ------------------------------------------------------------------

    fn compute_union_levels(&self) -> Vec<usize> {
        let out = self.program.output();
        let decl = match self.program.decl(out) {
            Some(d) => d,
            None => return vec![],
        };
        let mut levels = Vec::new();
        for fact in self.iteration.values() {
            if matches!(
                fact.strategy,
                IterStrategy::Scan2 { .. } | IterStrategy::ScanChain { .. }
            ) {
                if let Some(l) = self.output_level_of_var(&fact.var) {
                    if decl.format.level(l).is_compressed() {
                        levels.push(l);
                    }
                }
            }
        }
        levels.sort_unstable();
        levels.dedup();
        levels
    }

    fn needs_two_pass(&self) -> bool {
        self.union_levels.len() == 1
    }

    fn needs_sequential_union(&self) -> bool {
        self.union_levels.len() >= 2
    }

    fn output_level_of_var(&self, v: &IndexVar) -> Option<usize> {
        let out = self.program.output();
        let decl = self.program.decl(out)?;
        let lhs = &self.program.assignment().lhs;
        let mode = lhs.indices.iter().position(|ix| ix == v)?;
        Some(decl.format.level_of_mode(mode))
    }

    /// Sequential prefix sum turning per-parent counts into a positions
    /// array (`par 1`, after the count pass).
    fn emit_prefix_sum(&mut self, body: &mut Vec<SpatialStmt>) {
        let out = self.program.output().to_string();
        let levels: Vec<(usize, LevelFormat)> = {
            let decl = self.program.decl(&out).expect("output declared");
            decl.format.levels().iter().copied().enumerate().collect()
        };
        for (l, f) in levels {
            if !f.is_compressed() || !self.union_levels.contains(&l) {
                continue;
            }
            let parents = if l == 0 {
                1
            } else {
                self.level_positions(&out, l - 1)
            };
            let dram = format!("{out}{}_pos_dram", l + 1);
            let run = self.fresh_name("run");
            body.push(SpatialStmt::Comment(
                "sequential prefix sum over scanner counts".into(),
            ));
            body.push(SpatialStmt::Alloc(MemDecl::new(&run, MemKind::Reg, 1)));
            body.push(SpatialStmt::StoreScalar {
                dst: dram.clone(),
                index: SExpr::Const(0.0),
                value: SExpr::Const(0.0),
            });
            let iv = self.fresh_name("p");
            body.push(SpatialStmt::Foreach {
                id: 0,
                counter: Counter::range_to(&iv, SExpr::Const(parents as f64)),
                par: 1,
                body: vec![
                    SpatialStmt::SetReg {
                        reg: run.clone(),
                        value: SExpr::add(
                            SExpr::RegRead(run.clone()),
                            SExpr::read(
                                dram.clone(),
                                SExpr::add(SExpr::var(&iv), SExpr::Const(1.0)),
                            ),
                        ),
                    },
                    SpatialStmt::StoreScalar {
                        dst: dram.clone(),
                        index: SExpr::add(SExpr::var(&iv), SExpr::Const(1.0)),
                        value: SExpr::RegRead(run.clone()),
                    },
                ],
            });
        }
    }

    // ------------------------------------------------------------------
    // Statement lowering
    // ------------------------------------------------------------------

    fn lower_stmt(
        &mut self,
        stmt: &Stmt,
        scope: &mut Scope,
        out: &mut Vec<SpatialStmt>,
        mode: Mode,
    ) -> Result<(), CompileError> {
        match stmt {
            Stmt::SuchThat { body, .. } => self.lower_stmt(body, scope, out, mode),
            Stmt::Map {
                body,
                pattern,
                factor,
                ..
            } => match pattern {
                PatternFn::Reduction | PatternFn::MemReduce => {
                    if mode == Mode::Count {
                        return Ok(());
                    }
                    self.lower_reduction(body, scope, out, factor.unwrap_or(self.inner_par))
                }
                _ => self.lower_stmt(body, scope, out, mode),
            },
            Stmt::Where { consumer, producer } => {
                if mode == Mode::Value {
                    self.lower_producer(producer, scope, out)?;
                }
                self.lower_stmt(consumer, scope, out, mode)
            }
            Stmt::Sequence(stmts) => self.lower_sequence(stmts, scope, out, mode),
            Stmt::Forall { index, body } => {
                // Copy loops from an on-chip workspace to a dense off-chip
                // output lower to a single bulk store.
                if mode == Mode::Value {
                    if let Some((vars, lhs, rhs)) = copy_loop(stmt) {
                        if let Some(spatial) = self.try_bulk_store(&vars, &lhs, &rhs, scope)? {
                            out.extend(spatial);
                            return Ok(());
                        }
                    }
                }
                self.lower_forall(index, body, scope, out, mode)
            }
            Stmt::Assign { lhs, op, rhs } => {
                if mode == Mode::Count {
                    return Ok(());
                }
                self.lower_assign(lhs, *op, rhs, scope, out)
            }
        }
    }

    /// Sequences writing the same dense output element accumulate in a
    /// register and store once (Residual / MatTransMul).
    fn lower_sequence(
        &mut self,
        stmts: &[Stmt],
        scope: &mut Scope,
        out: &mut Vec<SpatialStmt>,
        mode: Mode,
    ) -> Result<(), CompileError> {
        let lhs_targets: Vec<Option<&Access>> = stmts.iter().map(top_level_lhs).collect();
        let same_dense_lhs = mode == Mode::Value
            && lhs_targets.len() > 1
            && lhs_targets.iter().all(|a| {
                a.map(|acc| {
                    acc.tensor == self.program.output()
                        && self
                            .program
                            .decl(&acc.tensor)
                            .map(|d| d.format.is_all_dense() && !d.is_scalar())
                            .unwrap_or(false)
                })
                .unwrap_or(false)
            });
        if !same_dense_lhs {
            for s in stmts {
                self.lower_stmt(s, scope, out, mode)?;
            }
            return Ok(());
        }
        let reg = self.fresh_name("acc_out");
        out.push(SpatialStmt::Alloc(MemDecl::new(&reg, MemKind::Reg, 1)));
        scope.lhs_reg = Some(reg.clone());
        for s in stmts {
            self.lower_stmt(s, scope, out, mode)?;
        }
        scope.lhs_reg = None;
        let acc = lhs_targets[0].expect("same_dense_lhs implies lhs");
        let offset = self.dense_offset(acc, scope)?;
        out.push(SpatialStmt::StoreScalar {
            dst: format!("{}_vals_dram", acc.tensor),
            index: offset,
            value: SExpr::RegRead(reg),
        });
        Ok(())
    }

    /// Producers: bulk-load staging, reductions (via their `map` nodes), or
    /// general loops into on-chip workspaces.
    fn lower_producer(
        &mut self,
        producer: &Stmt,
        scope: &mut Scope,
        out: &mut Vec<SpatialStmt>,
    ) -> Result<(), CompileError> {
        if let Some((vars, lhs, rhs_access)) = copy_loop(producer) {
            let dst_on = self
                .program
                .decl(&lhs.tensor)
                .map(|d| d.format.region().is_on_chip())
                .unwrap_or(false);
            let src = self.program.decl(&rhs_access.tensor);
            if dst_on {
                if let Some(src) = src {
                    if !src.format.region().is_on_chip() && src.format.is_all_dense() {
                        return self.emit_bulk_load(&vars, &lhs, &rhs_access, scope, out);
                    }
                }
            }
        }
        // General producer: allocate on-chip workspaces it writes (fresh,
        // zeroed — the `where` reset semantics), then lower its loops.
        // Scalar workspaces become registers (also when the reduction was
        // not `accelerate`d into a Reduce pattern); arrays become SRAMs.
        for t in producer.outputs() {
            if let Some(decl) = self.program.decl(&t) {
                if !decl.format.region().is_on_chip() {
                    continue;
                }
                if decl.is_scalar() {
                    out.push(SpatialStmt::Alloc(MemDecl::new(&t, MemKind::Reg, 1)));
                } else {
                    let mem = format!("{t}_vals");
                    let kind = self.plan.kind(&t, ArrayRole::Vals).unwrap_or(MemKind::Sram);
                    out.push(SpatialStmt::Alloc(MemDecl::new(
                        &mem,
                        kind,
                        decl.dense_size().max(1),
                    )));
                }
            }
        }
        self.lower_stmt(producer, scope, out, Mode::Value)
    }

    /// `Alloc` + `Load` for a staged slice (the automatic pass of §5.2 that
    /// maps `∀(i, t1(i) = t2(i))` to bulk memory functions). Loaded vars
    /// must form a suffix of the source's stored mode order.
    fn emit_bulk_load(
        &mut self,
        vars: &[IndexVar],
        lhs: &Access,
        rhs: &Access,
        scope: &mut Scope,
        out: &mut Vec<SpatialStmt>,
    ) -> Result<(), CompileError> {
        let src = self.program.decl(&rhs.tensor).expect("checked").clone();
        let kind = self
            .plan
            .kind(&lhs.tensor, ArrayRole::Vals)
            .unwrap_or(MemKind::Sram);
        let stored_dims: Vec<usize> = src
            .format
            .mode_order()
            .iter()
            .map(|&m| src.dims[m])
            .collect();
        let stored_vars: Vec<IndexVar> = src
            .format
            .mode_order()
            .iter()
            .map(|&m| rhs.indices[m].clone())
            .collect();
        let n_fixed = stored_vars.len() - vars.len();
        for v in &stored_vars[n_fixed..] {
            if !vars.contains(v) {
                return Err(CompileError::NoLoweringRule(format!(
                    "staged load of {} is not a contiguous slice (stored {:?}, loaded {:?})",
                    rhs.tensor, stored_vars, vars
                )));
            }
        }
        let slice_len: usize = stored_dims[n_fixed..].iter().product();
        let mut offset = SExpr::Const(0.0);
        let mut stride: usize = slice_len;
        for n in (0..n_fixed).rev() {
            let coord = scope.coords.get(&stored_vars[n]).cloned().ok_or_else(|| {
                CompileError::NoLoweringRule(format!(
                    "staged load of {} fixes unbound variable {}",
                    rhs.tensor, stored_vars[n]
                ))
            })?;
            offset = idx_add(offset, idx_mul(coord, SExpr::Const(stride as f64)));
            stride *= stored_dims[n];
        }
        let mem = format!("{}_vals", lhs.tensor);
        out.push(SpatialStmt::Alloc(MemDecl::new(
            &mem,
            kind,
            slice_len.max(1),
        )));
        out.push(SpatialStmt::Load {
            dst: mem,
            src: format!("{}_vals_dram", rhs.tensor),
            start: offset.clone(),
            end: idx_add(offset, SExpr::Const(slice_len as f64)),
            par: self.inner_par,
        });
        // Leaf-time affine addressing layout: the lhs's own index order.
        let dst_decl = self.program.decl(&lhs.tensor).expect("on-chip decl");
        let layout_vars: Vec<IndexVar> = lhs.indices.clone();
        let layout_dims: Vec<usize> = dst_decl.dims.clone();
        self.staged_layouts
            .insert(lhs.tensor.clone(), (layout_vars, layout_dims));
        Ok(())
    }

    /// Copy loops `∀v* out(..) = ws(..)` from an on-chip workspace to a
    /// dense off-chip output become a bulk store.
    fn try_bulk_store(
        &mut self,
        vars: &[IndexVar],
        lhs: &Access,
        rhs: &Access,
        scope: &Scope,
    ) -> Result<Option<Vec<SpatialStmt>>, CompileError> {
        let dst = match self.program.decl(&lhs.tensor) {
            Some(d) => d.clone(),
            None => return Ok(None),
        };
        let src_on = self
            .program
            .decl(&rhs.tensor)
            .map(|d| d.format.region().is_on_chip() && !d.is_scalar())
            .unwrap_or(false);
        if !src_on || dst.format.region().is_on_chip() || !dst.format.is_all_dense() {
            return Ok(None);
        }
        // The copied vars must be the trailing stored modes of the output.
        let stored_vars: Vec<IndexVar> = dst
            .format
            .mode_order()
            .iter()
            .map(|&m| lhs.indices[m].clone())
            .collect();
        let stored_dims: Vec<usize> = dst
            .format
            .mode_order()
            .iter()
            .map(|&m| dst.dims[m])
            .collect();
        if vars.len() > stored_vars.len() {
            return Ok(None);
        }
        let n_fixed = stored_vars.len() - vars.len();
        for v in &stored_vars[n_fixed..] {
            if !vars.contains(v) {
                return Ok(None);
            }
        }
        let slice_len: usize = stored_dims[n_fixed..].iter().product();
        let mut offset = SExpr::Const(0.0);
        let mut stride = slice_len;
        for n in (0..n_fixed).rev() {
            let coord = match scope.coords.get(&stored_vars[n]) {
                Some(c) => c.clone(),
                None => return Ok(None),
            };
            offset = idx_add(offset, idx_mul(coord, SExpr::Const(stride as f64)));
            stride *= stored_dims[n];
        }
        Ok(Some(vec![SpatialStmt::Store {
            dst: format!("{}_vals_dram", lhs.tensor),
            offset,
            src: format!("{}_vals", rhs.tensor),
            len: SExpr::Const(slice_len as f64),
            par: self.inner_par,
        }]))
    }

    /// Reduction producers (`map(∀r* ws += e, Spatial, Reduction, par)`).
    fn lower_reduction(
        &mut self,
        nest: &Stmt,
        scope: &mut Scope,
        out: &mut Vec<SpatialStmt>,
        par: usize,
    ) -> Result<(), CompileError> {
        // The accumulator register was allocated by the enclosing
        // `where` producer (`lower_producer`).
        let (lhs, _, rhs, vars) = assign_under_foralls(nest).ok_or_else(|| {
            CompileError::NoLoweringRule(format!("reduction target is not a loop nest: {nest}"))
        })?;
        if !lhs.indices.is_empty() {
            return Err(CompileError::NoLoweringRule(
                "Reduce acceleration requires a scalar workspace accumulator".into(),
            ));
        }
        let ws = lhs.tensor.clone();
        if vars.len() == 1
            && matches!(
                self.iteration.get(&vars[0]).map(|f| &f.strategy),
                Some(IterStrategy::DenseLoop) | Some(IterStrategy::PositionLoop { .. })
            )
        {
            // Innermost simple counter: the Reduce pattern proper.
            let mut inner = scope.clone();
            let mut reduce_body = Vec::new();
            let counter = self.make_counter(&vars[0], &mut inner, &mut reduce_body, out)?;
            let expr = self.translate_expr(&rhs, &mut inner, &mut reduce_body)?;
            out.push(SpatialStmt::Reduce {
                id: 0,
                reg: ws,
                counter,
                par,
                body: reduce_body,
                expr,
            });
            Ok(())
        } else {
            // Multi-level or co-iterated reductions: lower the nest as
            // loops accumulating into the register.
            let mut inner = scope.clone();
            self.lower_stmt(strip_foralls_wrapper(nest), &mut inner, out, Mode::Value)
        }
    }

    // ------------------------------------------------------------------
    // Loop lowering
    // ------------------------------------------------------------------

    fn lower_forall(
        &mut self,
        v: &IndexVar,
        body: &Stmt,
        scope: &mut Scope,
        out: &mut Vec<SpatialStmt>,
        mode: Mode,
    ) -> Result<(), CompileError> {
        let fact = self
            .iteration
            .get(v)
            .cloned()
            .ok_or_else(|| CompileError::Memory(format!("no iteration fact for {v}")))?;
        match fact.strategy.clone() {
            IterStrategy::DenseLoop => self.lower_dense_loop(v, body, scope, out, mode, &fact),
            IterStrategy::PositionLoop { operand } => {
                self.lower_position_loop(v, body, scope, out, mode, &fact, operand)
            }
            IterStrategy::Scan2 { a, b, op } => {
                self.lower_scan2(v, body, scope, out, mode, &fact, a, b, op)
            }
            IterStrategy::ScanChain { .. } => Err(CompileError::NoLoweringRule(format!(
                "three-way co-iteration at {v}: schedule as iterated two-input ops (§8.1)"
            ))),
            IterStrategy::HostFallback => Err(CompileError::NoLoweringRule(format!(
                "no backend rule for the contraction at {v}"
            ))),
        }
    }

    fn lower_dense_loop(
        &mut self,
        v: &IndexVar,
        body: &Stmt,
        scope: &mut Scope,
        out: &mut Vec<SpatialStmt>,
        mode: Mode,
        fact: &VarIteration,
    ) -> Result<(), CompileError> {
        let extent = self.extent(v)?;
        let var_sym = self.fresh_name(v.name());
        let innermost = spine_after(body).is_empty();
        let par = if matches!(scope.out, Some(OutCtx::Sequential { .. })) {
            1
        } else if innermost {
            self.inner_par
        } else if self.outer_par_used {
            1
        } else {
            self.outer_par_used = true;
            self.outer_par
        };
        let mut inner = scope.clone();
        inner.coords.insert(v.clone(), SExpr::var(&var_sym));
        for (t, level, _) in &fact.participants {
            self.advance_dense(t, *level, SExpr::var(&var_sym), &mut inner)?;
        }
        self.advance_output_dense(v, SExpr::var(&var_sym), &mut inner)?;
        let mut loop_body = Vec::new();
        self.lower_stmt(body, &mut inner, &mut loop_body, mode)?;
        out.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to(&var_sym, SExpr::Const(extent as f64)),
            par,
            body: loop_body,
        });
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_position_loop(
        &mut self,
        v: &IndexVar,
        body: &Stmt,
        scope: &mut Scope,
        out: &mut Vec<SpatialStmt>,
        mode: Mode,
        fact: &VarIteration,
        operand: usize,
    ) -> Result<(), CompileError> {
        let (driver, level, _) = fact.participants[operand].clone();
        let decl = self.program.decl(&driver).expect("declared").clone();
        let innermost_level = level == decl.format.rank() - 1;

        // Segment bounds from the position SRAM at the parent position.
        let parent_pos = scope.tensors[&driver].global_pos.clone();
        let parent_valid = scope.tensors[&driver].valid.clone();
        let start = self.fresh_name(&format!("{}_start", v.name()));
        let end = self.fresh_name(&format!("{}_end", v.name()));
        let len = self.fresh_name(&format!("{}_len", v.name()));
        let pos_mem = format!("{driver}{}_pos", level + 1);
        let start_val = SExpr::read(pos_mem.clone(), parent_pos.clone());
        let end_val = SExpr::read(pos_mem, idx_add(parent_pos.clone(), SExpr::Const(1.0)));
        let (start_val, end_val) = match &parent_valid {
            Some(valid) => (
                SExpr::select(valid.clone(), start_val, SExpr::Const(0.0)),
                SExpr::select(valid.clone(), end_val, SExpr::Const(0.0)),
            ),
            None => (start_val, end_val),
        };
        out.push(SpatialStmt::Bind {
            var: start.clone(),
            value: start_val,
        });
        out.push(SpatialStmt::Bind {
            var: end.clone(),
            value: end_val,
        });
        out.push(SpatialStmt::Bind {
            var: len.clone(),
            value: SExpr::sub(SExpr::var(&end), SExpr::var(&start)),
        });

        // Stage the coordinate segment (and values at the innermost level).
        // FIFOs serve strictly in-order single consumption; segments
        // re-iterated (loops intervene before the uses) go to SRAM.
        let reuse = intervening_loop(body, v);
        let kind = if reuse { MemKind::Sram } else { MemKind::Fifo };
        let seg_cap = self.segment_capacity(&driver, level);
        let crd_mem = self.fresh_name(&format!("{driver}{}_crd", level + 1));
        out.push(SpatialStmt::Alloc(MemDecl::new(&crd_mem, kind, seg_cap)));
        out.push(SpatialStmt::Load {
            dst: crd_mem.clone(),
            src: format!("{driver}{}_crd_dram", level + 1),
            start: SExpr::var(&start),
            end: SExpr::var(&end),
            par: 1,
        });
        let vals_mem = if innermost_level && mode == Mode::Value {
            let vm = self.fresh_name(&format!("{driver}_vals"));
            out.push(SpatialStmt::Alloc(MemDecl::new(&vm, kind, seg_cap)));
            out.push(SpatialStmt::Load {
                dst: vm.clone(),
                src: format!("{driver}_vals_dram"),
                start: SExpr::var(&start),
                end: SExpr::var(&end),
                par: 1,
            });
            Some(vm)
        } else {
            None
        };

        // Output mirroring (SDDMM/TTV/TTM): the output's compressed level
        // at v follows the driver's structure.
        let mirror_level = self.mirrored_output_level(v);
        let mirror = mode == Mode::Value
            && mirror_level.is_some()
            && !matches!(scope.out, Some(OutCtx::Sequential { .. }));
        let dense_factor = mirror_level
            .map(|l| self.output_dense_factor_below(l))
            .unwrap_or(1);
        let (out_vals_fifo, out_crd_fifo) = if mirror {
            let vf = self.fresh_name(&format!("{}_vals_f", self.program.output()));
            let cf = self.fresh_name(&format!("{}_crd_f", self.program.output()));
            out.push(SpatialStmt::Alloc(MemDecl::new(
                &vf,
                MemKind::Fifo,
                seg_cap * dense_factor,
            )));
            out.push(SpatialStmt::Alloc(MemDecl::new(
                &cf,
                MemKind::Fifo,
                seg_cap,
            )));
            (Some(vf), Some(cf))
        } else {
            (None, None)
        };

        // The loop body.
        let q = self.fresh_name("q");
        let coord = self.fresh_name(v.name());
        let mut inner = scope.clone();
        let mut loop_body: Vec<SpatialStmt> = Vec::new();
        let coord_val = if reuse {
            SExpr::read(crd_mem.clone(), SExpr::var(&q))
        } else {
            SExpr::Deq(crd_mem.clone())
        };
        loop_body.push(SpatialStmt::Bind {
            var: coord.clone(),
            value: coord_val,
        });
        inner.coords.insert(v.clone(), SExpr::var(&coord));
        {
            let st = inner.tensors.get_mut(&driver).expect("driver state");
            st.level = level + 1;
            st.global_pos = SExpr::add(SExpr::var(&start), SExpr::var(&q));
            if innermost_level {
                if let Some(vm) = &vals_mem {
                    if reuse {
                        st.val = Some(ValSource::Mem {
                            mem: vm.clone(),
                            pos: SExpr::var(&q),
                            random: false,
                            valid: None,
                        });
                    } else {
                        let bound = self.fresh_name(&format!("{driver}_val"));
                        loop_body.push(SpatialStmt::Bind {
                            var: bound.clone(),
                            value: SExpr::Deq(vm.clone()),
                        });
                        st.val = Some(ValSource::Var(bound));
                    }
                }
            }
        }
        for (t, l, f) in &fact.participants {
            if t != &driver && f.is_dense() {
                self.advance_dense(t, *l, SExpr::var(&coord), &mut inner)?;
            }
        }
        self.advance_output_dense(v, SExpr::var(&coord), &mut inner)?;

        if mirror {
            inner.out = Some(OutCtx::Mirror {
                vals_fifo: out_vals_fifo.clone().expect("mirror fifo"),
                dense_factor,
            });
            if let Some(cf) = &out_crd_fifo {
                loop_body.push(SpatialStmt::Enq {
                    fifo: cf.clone(),
                    value: SExpr::var(&coord),
                });
            }
        }

        self.lower_stmt(body, &mut inner, &mut loop_body, mode)?;

        out.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to(&q, SExpr::var(&len)),
            par: 1,
            body: loop_body,
        });

        if mirror {
            let output = self.program.output().to_string();
            let out_level = mirror_level.expect("mirror implies level");
            let factor = SExpr::Const(dense_factor as f64);
            out.push(SpatialStmt::StreamStore {
                dst: format!("{output}_vals_dram"),
                offset: idx_mul(SExpr::var(&start), factor.clone()),
                fifo: out_vals_fifo.expect("mirror fifo"),
                len: idx_mul(SExpr::var(&len), factor),
            });
            out.push(SpatialStmt::StreamStore {
                dst: format!("{output}{}_crd_dram", out_level + 1),
                offset: SExpr::var(&start),
                fifo: out_crd_fifo.expect("mirror fifo"),
                len: SExpr::var(&len),
            });
            // pos entry mirrors the driver's (Fig. 11 line 41).
            out.push(SpatialStmt::StoreScalar {
                dst: format!("{output}{}_pos_dram", out_level + 1),
                index: idx_add(parent_pos, SExpr::Const(1.0)),
                value: SExpr::var(&end),
            });
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_scan2(
        &mut self,
        v: &IndexVar,
        body: &Stmt,
        scope: &mut Scope,
        out: &mut Vec<SpatialStmt>,
        mode: Mode,
        fact: &VarIteration,
        a: usize,
        b: usize,
        op: stardust_spatial::ScanOp,
    ) -> Result<(), CompileError> {
        let dim = self.extent(v)?;
        let mut seg = Vec::new();
        for operand in [a, b] {
            let (t, level, _) = fact.participants[operand].clone();
            let parent_pos = scope.tensors[&t].global_pos.clone();
            let parent_valid = scope.tensors[&t].valid.clone();
            let start = self.fresh_name(&format!("{t}_start"));
            let end = self.fresh_name(&format!("{t}_end"));
            let pos_mem = format!("{t}{}_pos", level + 1);
            let sv = SExpr::read(pos_mem.clone(), parent_pos.clone());
            let ev = SExpr::read(pos_mem, idx_add(parent_pos, SExpr::Const(1.0)));
            let (sv, ev) = match &parent_valid {
                Some(valid) => (
                    SExpr::select(valid.clone(), sv, SExpr::Const(0.0)),
                    SExpr::select(valid.clone(), ev, SExpr::Const(0.0)),
                ),
                None => (sv, ev),
            };
            out.push(SpatialStmt::Bind {
                var: start.clone(),
                value: sv,
            });
            out.push(SpatialStmt::Bind {
                var: end.clone(),
                value: ev,
            });
            let seg_cap = self.segment_capacity(&t, level);
            let crd_mem = self.fresh_name(&format!("{t}{}_crd", level + 1));
            out.push(SpatialStmt::Alloc(MemDecl::new(
                &crd_mem,
                MemKind::SparseSram,
                seg_cap,
            )));
            out.push(SpatialStmt::Load {
                dst: crd_mem.clone(),
                src: format!("{t}{}_crd_dram", level + 1),
                start: SExpr::var(&start),
                end: SExpr::var(&end),
                par: 1,
            });
            let bv = self.fresh_name(&format!("bv_{t}"));
            out.push(SpatialStmt::Alloc(MemDecl::new(
                &bv,
                MemKind::BitVector,
                dim,
            )));
            out.push(SpatialStmt::GenBitVector {
                dst: bv.clone(),
                src: crd_mem,
                src_start: SExpr::Const(0.0),
                count: SExpr::sub(SExpr::var(&end), SExpr::var(&start)),
                dim: SExpr::Const(dim as f64),
            });
            let decl = self.program.decl(&t).expect("declared");
            let innermost = level == decl.format.rank() - 1;
            let vals_mem = if innermost && mode == Mode::Value {
                let vm = self.fresh_name(&format!("{t}_vals"));
                out.push(SpatialStmt::Alloc(MemDecl::new(
                    &vm,
                    MemKind::SparseSram,
                    seg_cap,
                )));
                out.push(SpatialStmt::Load {
                    dst: vm.clone(),
                    src: format!("{t}_vals_dram"),
                    start: SExpr::var(&start),
                    end: SExpr::var(&end),
                    par: 1,
                });
                Some(vm)
            } else {
                None
            };
            seg.push((t, level, start, bv, vals_mem, innermost));
        }

        let p_a = self.fresh_name("pA");
        let p_b = self.fresh_name("pB");
        let p_o = self.fresh_name("pO");
        let idx = self.fresh_name(v.name());
        let out_level = self.output_level_of_var(v);

        // Count pass at a union-output level: scanner loop 1 counts.
        if mode == Mode::Count
            && out_level
                .map(|l| self.union_levels.contains(&l))
                .unwrap_or(false)
        {
            let cnt = self.fresh_name("cnt");
            out.push(SpatialStmt::Alloc(MemDecl::new(&cnt, MemKind::Reg, 1)));
            out.push(SpatialStmt::Reduce {
                id: 0,
                reg: cnt.clone(),
                counter: Counter::Scan2 {
                    op,
                    bv_a: seg[0].3.clone(),
                    bv_b: seg[1].3.clone(),
                    a_pos_var: p_a,
                    b_pos_var: p_b,
                    out_pos_var: p_o,
                    idx_var: idx,
                },
                par: self.inner_par,
                body: Vec::new(),
                expr: SExpr::Const(1.0),
            });
            let output = self.program.output().to_string();
            let l = out_level.expect("count level");
            let parent = self.output_parent_pos(scope);
            out.push(SpatialStmt::StoreScalar {
                dst: format!("{output}{}_pos_dram", l + 1),
                index: idx_add(parent, SExpr::Const(1.0)),
                value: SExpr::RegRead(cnt),
            });
            return Ok(());
        }

        // Value (or non-output count) pass: set up body state.
        let mut inner = scope.clone();
        inner.coords.insert(v.clone(), SExpr::var(&idx));
        let mut loop_body: Vec<SpatialStmt> = Vec::new();
        for (n, (t, level, start, _bv, vals_mem, innermost)) in seg.iter().enumerate() {
            let pos_var = if n == 0 { &p_a } else { &p_b };
            // A union position is -1 where its operand is absent, so its
            // reads are guarded; an intersection emits only where both
            // operands are present, so its positions need no guard.
            let valid = (op == stardust_spatial::ScanOp::Or)
                .then(|| SExpr::add(SExpr::var(pos_var), SExpr::Const(1.0)));
            let st = inner.tensors.get_mut(t).expect("state exists");
            st.level = level + 1;
            st.global_pos = SExpr::add(SExpr::var(start), SExpr::var(pos_var));
            st.valid = valid.clone();
            if *innermost {
                if let Some(vm) = vals_mem {
                    st.val = Some(ValSource::Mem {
                        mem: vm.clone(),
                        pos: SExpr::var(pos_var),
                        random: false,
                        valid,
                    });
                }
            }
        }
        for (t, l, f) in &fact.participants {
            if f.is_dense() {
                self.advance_dense(t, *l, SExpr::var(&idx), &mut inner)?;
            }
        }
        self.advance_output_dense(v, SExpr::var(&idx), &mut inner)?;

        // Output context at this level.
        let mut stream_stores: Vec<SpatialStmt> = Vec::new();
        let mut after_foreach: Vec<SpatialStmt> = Vec::new();
        match (scope.out.clone(), out_level) {
            (Some(OutCtx::Sequential { counters }), Some(l)) if counters.contains_key(&l) => {
                let output = self.program.output().to_string();
                let ctr = counters[&l].clone();
                if mode == Mode::Value {
                    // Coordinate first; value at the leaf; bump after body.
                    loop_body.push(SpatialStmt::StoreScalar {
                        dst: format!("{output}{}_crd_dram", l + 1),
                        index: SExpr::RegRead(ctr.clone()),
                        value: SExpr::var(&idx),
                    });
                }
                inner.out = scope.out.clone();
                self.lower_stmt(body, &mut inner, &mut loop_body, mode)?;
                if mode == Mode::Value {
                    loop_body.push(SpatialStmt::SetReg {
                        reg: ctr.clone(),
                        value: SExpr::add(SExpr::RegRead(ctr.clone()), SExpr::Const(1.0)),
                    });
                    // Positions entry after the whole scan: pos[parent+1] =
                    // counter.
                    let parent = if l == 0 {
                        SExpr::Const(0.0)
                    } else if let Some(pc) = counters.get(&(l - 1)) {
                        SExpr::RegRead(pc.clone())
                    } else {
                        self.output_parent_pos(scope)
                    };
                    after_foreach.push(SpatialStmt::StoreScalar {
                        dst: format!("{output}{}_pos_dram", l + 1),
                        index: idx_add(parent, SExpr::Const(1.0)),
                        value: SExpr::RegRead(ctr),
                    });
                }
            }
            (_, Some(l)) if mode == Mode::Value && self.union_levels.contains(&l) => {
                // Two-pass value pass: offsets from the positions array.
                let output = self.program.output().to_string();
                let parent = self.output_parent_pos(scope);
                let o_start = self.fresh_name("out_start");
                let o_len = self.fresh_name("out_len");
                out.push(SpatialStmt::Bind {
                    var: o_start.clone(),
                    value: SExpr::read(format!("{output}{}_pos_dram", l + 1), parent.clone()),
                });
                out.push(SpatialStmt::Bind {
                    var: o_len.clone(),
                    value: SExpr::sub(
                        SExpr::read(
                            format!("{output}{}_pos_dram", l + 1),
                            idx_add(parent, SExpr::Const(1.0)),
                        ),
                        SExpr::var(&o_start),
                    ),
                });
                let vf = self.fresh_name(&format!("{output}_vals_f"));
                let cf = self.fresh_name(&format!("{output}_crd_f"));
                let cap = dim.max(16);
                out.push(SpatialStmt::Alloc(MemDecl::new(&vf, MemKind::Fifo, cap)));
                out.push(SpatialStmt::Alloc(MemDecl::new(&cf, MemKind::Fifo, cap)));
                loop_body.push(SpatialStmt::Enq {
                    fifo: cf.clone(),
                    value: SExpr::var(&idx),
                });
                inner.out = Some(OutCtx::TwoPassValue {
                    vals_fifo: vf.clone(),
                });
                self.lower_stmt(body, &mut inner, &mut loop_body, mode)?;
                stream_stores.push(SpatialStmt::StreamStore {
                    dst: format!("{output}_vals_dram"),
                    offset: SExpr::var(&o_start),
                    fifo: vf,
                    len: SExpr::var(&o_len),
                });
                stream_stores.push(SpatialStmt::StreamStore {
                    dst: format!("{output}{}_crd_dram", l + 1),
                    offset: SExpr::var(&o_start),
                    fifo: cf,
                    len: SExpr::var(&o_len),
                });
            }
            _ => {
                inner.out = scope.out.clone();
                self.lower_stmt(body, &mut inner, &mut loop_body, mode)?;
            }
        }

        // Innermost scans vectorize across the scanner's lanes; scans that
        // carry nested loops issue one match at a time, and sequential
        // union outputs serialize entirely.
        let par = if matches!(scope.out, Some(OutCtx::Sequential { .. }))
            || !spine_after(body).is_empty()
        {
            1
        } else {
            self.inner_par
        };
        out.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Scan2 {
                op,
                bv_a: seg[0].3.clone(),
                bv_b: seg[1].3.clone(),
                a_pos_var: p_a,
                b_pos_var: p_b,
                out_pos_var: p_o,
                idx_var: idx,
            },
            par,
            body: loop_body,
        });
        out.extend(stream_stores);
        out.extend(after_foreach);
        Ok(())
    }

    /// Builds a counter for an innermost `Reduce` pattern at variable `v`,
    /// emitting segment staging into `out` and per-iteration binds into
    /// `reduce_body`.
    fn make_counter(
        &mut self,
        v: &IndexVar,
        scope: &mut Scope,
        reduce_body: &mut Vec<SpatialStmt>,
        out: &mut Vec<SpatialStmt>,
    ) -> Result<Counter, CompileError> {
        let fact = self
            .iteration
            .get(v)
            .cloned()
            .ok_or_else(|| CompileError::Memory(format!("no iteration fact for {v}")))?;
        match fact.strategy.clone() {
            IterStrategy::DenseLoop => {
                let extent = self.extent(v)?;
                let sym = self.fresh_name(v.name());
                scope.coords.insert(v.clone(), SExpr::var(&sym));
                for (t, level, _) in &fact.participants {
                    self.advance_dense(t, *level, SExpr::var(&sym), scope)?;
                }
                Ok(Counter::range_to(&sym, SExpr::Const(extent as f64)))
            }
            IterStrategy::PositionLoop { operand } => {
                let (driver, level, _) = fact.participants[operand].clone();
                let parent_pos = scope.tensors[&driver].global_pos.clone();
                let start = self.fresh_name(&format!("{}_start", v.name()));
                let end = self.fresh_name(&format!("{}_end", v.name()));
                let len = self.fresh_name(&format!("{}_len", v.name()));
                let pos_mem = format!("{driver}{}_pos", level + 1);
                out.push(SpatialStmt::Bind {
                    var: start.clone(),
                    value: SExpr::read(pos_mem.clone(), parent_pos.clone()),
                });
                out.push(SpatialStmt::Bind {
                    var: end.clone(),
                    value: SExpr::read(pos_mem, idx_add(parent_pos, SExpr::Const(1.0))),
                });
                out.push(SpatialStmt::Bind {
                    var: len.clone(),
                    value: SExpr::sub(SExpr::var(&end), SExpr::var(&start)),
                });
                let seg_cap = self.segment_capacity(&driver, level);
                let crd_mem = self.fresh_name(&format!("{driver}{}_crd", level + 1));
                out.push(SpatialStmt::Alloc(MemDecl::new(
                    &crd_mem,
                    MemKind::Fifo,
                    seg_cap,
                )));
                out.push(SpatialStmt::Load {
                    dst: crd_mem.clone(),
                    src: format!("{driver}{}_crd_dram", level + 1),
                    start: SExpr::var(&start),
                    end: SExpr::var(&end),
                    par: 1,
                });
                let q = self.fresh_name("q");
                let coord = self.fresh_name(v.name());
                reduce_body.push(SpatialStmt::Bind {
                    var: coord.clone(),
                    value: SExpr::Deq(crd_mem),
                });
                scope.coords.insert(v.clone(), SExpr::var(&coord));
                {
                    let st = scope.tensors.get_mut(&driver).expect("driver state");
                    st.level = level + 1;
                    st.global_pos = SExpr::add(SExpr::var(&start), SExpr::var(&q));
                }
                let decl = self.program.decl(&driver).expect("declared");
                if level == decl.format.rank() - 1 {
                    let vm = self.fresh_name(&format!("{driver}_vals"));
                    out.push(SpatialStmt::Alloc(MemDecl::new(
                        &vm,
                        MemKind::Fifo,
                        seg_cap,
                    )));
                    out.push(SpatialStmt::Load {
                        dst: vm.clone(),
                        src: format!("{driver}_vals_dram"),
                        start: SExpr::var(&start),
                        end: SExpr::var(&end),
                        par: 1,
                    });
                    let bound = self.fresh_name(&format!("{driver}_val"));
                    reduce_body.push(SpatialStmt::Bind {
                        var: bound.clone(),
                        value: SExpr::Deq(vm),
                    });
                    let st = scope.tensors.get_mut(&driver).expect("driver state");
                    st.val = Some(ValSource::Var(bound));
                }
                for (t, l, f) in &fact.participants {
                    if t != &driver && f.is_dense() {
                        let coord_expr = scope.coords[v].clone();
                        self.advance_dense(t, *l, coord_expr, scope)?;
                    }
                }
                Ok(Counter::range_to(&q, SExpr::var(&len)))
            }
            _ => Err(CompileError::NoLoweringRule(format!(
                "Reduce over co-iterated variable {v} lowers as nested loops"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    fn lower_assign(
        &mut self,
        lhs: &Access,
        op: AssignOp,
        rhs: &Expr,
        scope: &mut Scope,
        out: &mut Vec<SpatialStmt>,
    ) -> Result<(), CompileError> {
        let value = self.translate_expr(rhs, scope, out)?;
        let decl = self
            .program
            .decl(&lhs.tensor)
            .ok_or_else(|| CompileError::UndeclaredTensor(lhs.tensor.clone()))?
            .clone();

        // On-chip scalar workspace: register.
        if decl.format.region().is_on_chip() && decl.is_scalar() {
            let reg = lhs.tensor.clone();
            let v = match op {
                AssignOp::Assign => value,
                AssignOp::Accumulate => SExpr::add(SExpr::RegRead(reg.clone()), value),
            };
            out.push(SpatialStmt::SetReg { reg, value: v });
            return Ok(());
        }
        // On-chip staged tensor: SRAM write / atomic accumulate.
        if decl.format.region().is_on_chip() {
            let mem = format!("{}_vals", lhs.tensor);
            let idx = self.dense_offset(lhs, scope)?;
            match op {
                AssignOp::Assign => out.push(SpatialStmt::WriteMem {
                    mem,
                    index: idx,
                    value,
                    random: false,
                }),
                AssignOp::Accumulate => out.push(SpatialStmt::RmwAdd {
                    mem,
                    index: idx,
                    value,
                }),
            }
            return Ok(());
        }
        // Sequence register accumulation (Residual / MatTransMul).
        if let Some(reg) = scope.lhs_reg.clone() {
            let v = match op {
                AssignOp::Assign => value,
                AssignOp::Accumulate => SExpr::add(SExpr::RegRead(reg.clone()), value),
            };
            out.push(SpatialStmt::SetReg { reg, value: v });
            return Ok(());
        }
        // Off-chip scalar output (InnerProd's alpha).
        if decl.is_scalar() {
            let reg = format!("{}_reg", lhs.tensor);
            let v = match op {
                AssignOp::Assign => value,
                AssignOp::Accumulate => SExpr::add(SExpr::RegRead(reg.clone()), value),
            };
            out.push(SpatialStmt::SetReg {
                reg: reg.clone(),
                value: v,
            });
            out.push(SpatialStmt::StoreScalar {
                dst: format!("{}_dram", lhs.tensor),
                index: SExpr::Const(0.0),
                value: SExpr::RegRead(reg),
            });
            return Ok(());
        }
        // Compressed output through the active output context.
        if decl.format.has_compressed_level() {
            match scope.out.clone() {
                Some(OutCtx::Mirror { vals_fifo, .. })
                | Some(OutCtx::TwoPassValue { vals_fifo }) => {
                    out.push(SpatialStmt::Enq {
                        fifo: vals_fifo,
                        value,
                    });
                    return Ok(());
                }
                Some(OutCtx::Sequential { counters }) => {
                    let l = decl
                        .format
                        .levels()
                        .iter()
                        .rposition(|f| f.is_compressed())
                        .expect("compressed output");
                    let ctr = counters.get(&l).cloned().ok_or_else(|| {
                        CompileError::Memory("sequential output missing counter".into())
                    })?;
                    out.push(SpatialStmt::StoreScalar {
                        dst: format!("{}_vals_dram", lhs.tensor),
                        index: SExpr::RegRead(ctr),
                        value,
                    });
                    return Ok(());
                }
                None => {
                    return Err(CompileError::NoLoweringRule(format!(
                        "compressed output {} written outside an output context",
                        lhs.tensor
                    )))
                }
            }
        }
        // Dense off-chip output: direct scalar store (or RMW accumulate).
        let offset = self.dense_offset(lhs, scope)?;
        match op {
            AssignOp::Assign => out.push(SpatialStmt::StoreScalar {
                dst: format!("{}_vals_dram", lhs.tensor),
                index: offset,
                value,
            }),
            AssignOp::Accumulate => {
                let cur = SExpr::read_random(format!("{}_vals_dram", lhs.tensor), offset.clone());
                out.push(SpatialStmt::StoreScalar {
                    dst: format!("{}_vals_dram", lhs.tensor),
                    index: offset,
                    value: SExpr::add(cur, value),
                });
            }
        }
        Ok(())
    }

    #[allow(clippy::only_used_in_recursion)]
    fn translate_expr(
        &mut self,
        e: &Expr,
        scope: &mut Scope,
        out: &mut Vec<SpatialStmt>,
    ) -> Result<SExpr, CompileError> {
        match e {
            Expr::Literal(c) => Ok(SExpr::Const(*c)),
            Expr::Neg(inner) => Ok(SExpr::Neg(Box::new(
                self.translate_expr(inner, scope, out)?,
            ))),
            Expr::Binary { op, lhs, rhs } => {
                let l = self.translate_expr(lhs, scope, out)?;
                let r = self.translate_expr(rhs, scope, out)?;
                let op = match op {
                    stardust_ir::BinOp::Add => stardust_spatial::BinSOp::Add,
                    stardust_ir::BinOp::Sub => stardust_spatial::BinSOp::Sub,
                    stardust_ir::BinOp::Mul => stardust_spatial::BinSOp::Mul,
                };
                Ok(SExpr::bin(op, l, r))
            }
            Expr::Access(a) => self.translate_access(a, scope),
        }
    }

    fn translate_access(&mut self, a: &Access, scope: &mut Scope) -> Result<SExpr, CompileError> {
        let decl = self
            .program
            .decl(&a.tensor)
            .ok_or_else(|| CompileError::UndeclaredTensor(a.tensor.clone()))?
            .clone();
        if decl.is_scalar() {
            return Ok(if decl.format.region().is_on_chip() {
                SExpr::RegRead(a.tensor.clone())
            } else {
                SExpr::RegRead(format!("{}_reg", a.tensor))
            });
        }
        if decl.format.region().is_on_chip() {
            // Staged slice or workspace: affine read over its own dims.
            let mem = format!("{}_vals", a.tensor);
            let mut idx = SExpr::Const(0.0);
            let mut stride = 1usize;
            let mut random = false;
            for (m, v) in a.indices.iter().enumerate().rev() {
                let coord = scope
                    .coords
                    .get(v)
                    .cloned()
                    .ok_or_else(|| CompileError::Memory(format!("unbound variable {v}")))?;
                if self.plan.is_sparse_driven(v) {
                    random = true;
                }
                idx = idx_add(idx, idx_mul(coord, SExpr::Const(stride as f64)));
                stride *= decl.dims[m];
            }
            return Ok(if random {
                SExpr::read_random(mem, idx)
            } else {
                SExpr::read(mem, idx)
            });
        }
        if decl.format.has_compressed_level() {
            let st = scope
                .tensors
                .get(&a.tensor)
                .cloned()
                .ok_or_else(|| CompileError::Memory(format!("no state for {}", a.tensor)))?;
            let val = st.val.clone().ok_or_else(|| {
                CompileError::NoLoweringRule(format!(
                    "value of {} requested before its innermost level was lowered",
                    a.tensor
                ))
            })?;
            return Ok(match val {
                ValSource::Var(name) => match &st.valid {
                    Some(valid) => {
                        SExpr::select(valid.clone(), SExpr::var(name), SExpr::Const(0.0))
                    }
                    None => SExpr::var(name),
                },
                ValSource::Mem {
                    mem,
                    pos,
                    random,
                    valid,
                } => {
                    let read = if random {
                        SExpr::read_random(mem, pos)
                    } else {
                        SExpr::read(mem, pos)
                    };
                    match valid {
                        Some(v) => SExpr::select(v, read, SExpr::Const(0.0)),
                        None => read,
                    }
                }
            });
        }
        // Dense off-chip, unstaged: random DRAM access.
        let offset = self.dense_offset(a, scope)?;
        Ok(SExpr::read_random(
            format!("{}_vals_dram", a.tensor),
            offset,
        ))
    }

    // ------------------------------------------------------------------
    // Position arithmetic helpers
    // ------------------------------------------------------------------

    fn advance_dense(
        &mut self,
        tensor: &str,
        level: usize,
        coord: SExpr,
        scope: &mut Scope,
    ) -> Result<(), CompileError> {
        let decl = self
            .program
            .decl(tensor)
            .ok_or_else(|| CompileError::UndeclaredTensor(tensor.to_string()))?;
        if decl.format.level(level) != LevelFormat::Dense {
            return Ok(());
        }
        let dim = decl.dims[decl.format.mode_order()[level]];
        let st = scope.tensors.get_mut(tensor).expect("tensor state exists");
        if st.level != level {
            return Ok(());
        }
        st.global_pos = idx_add(
            idx_mul(st.global_pos.clone(), SExpr::Const(dim as f64)),
            coord,
        );
        st.level += 1;
        Ok(())
    }

    fn advance_output_dense(
        &mut self,
        v: &IndexVar,
        coord: SExpr,
        scope: &mut Scope,
    ) -> Result<(), CompileError> {
        let out = self.program.output().to_string();
        let lhs = self.program.assignment().lhs.clone();
        if let Some(mode) = lhs.indices.iter().position(|ix| ix == v) {
            let decl = self.program.decl(&out).expect("output declared");
            let level = decl.format.level_of_mode(mode);
            self.advance_dense(&out, level, coord, scope)?;
        }
        Ok(())
    }

    /// Row-major (stored-order) offset of a dense access.
    fn dense_offset(&self, a: &Access, scope: &Scope) -> Result<SExpr, CompileError> {
        let decl = self
            .program
            .decl(&a.tensor)
            .ok_or_else(|| CompileError::UndeclaredTensor(a.tensor.clone()))?;
        let mut offset = SExpr::Const(0.0);
        let mut stride = 1usize;
        for &m in decl.format.mode_order().iter().rev() {
            let v = &a.indices[m];
            let coord = scope
                .coords
                .get(v)
                .cloned()
                .ok_or_else(|| CompileError::Memory(format!("unbound variable {v}")))?;
            offset = idx_add(offset, idx_mul(coord, SExpr::Const(stride as f64)));
            stride *= decl.dims[m];
        }
        Ok(offset)
    }

    fn segment_capacity(&self, tensor: &str, level: usize) -> usize {
        let decl = self.program.decl(tensor).expect("declared");
        decl.dims[decl.format.mode_order()[level]].max(16)
    }

    /// The output level mirrored at variable v: the output must be
    /// compressed at v with only dense levels below.
    fn mirrored_output_level(&self, v: &IndexVar) -> Option<usize> {
        let l = self.output_level_of_var(v)?;
        let out = self.program.output();
        let decl = self.program.decl(out)?;
        if !decl.format.level(l).is_compressed() {
            return None;
        }
        if decl
            .format
            .levels()
            .iter()
            .skip(l + 1)
            .any(|f| f.is_compressed())
        {
            return None;
        }
        Some(l)
    }

    fn output_dense_factor_below(&self, level: usize) -> usize {
        let out = self.program.output();
        let decl = self.program.decl(out).expect("output declared");
        decl.format
            .mode_order()
            .iter()
            .enumerate()
            .skip(level + 1)
            .map(|(_, &m)| decl.dims[m])
            .product::<usize>()
            .max(1)
    }

    fn output_parent_pos(&self, scope: &Scope) -> SExpr {
        let out = self.program.output();
        scope
            .tensors
            .get(out)
            .map(|st| st.global_pos.clone())
            .unwrap_or(SExpr::Const(0.0))
    }
}

// ----------------------------------------------------------------------
// Free helpers
// ----------------------------------------------------------------------

/// `a + b` for a position or offset: constants fold and a zero term
/// drops, so `(0 * n) + i` prints as the paper's plain `i`. Index
/// positions only — value expressions keep every operation, because
/// `x + 0` turns a stored `-0.0` into `+0.0`.
fn idx_add(a: SExpr, b: SExpr) -> SExpr {
    match (a, b) {
        (SExpr::Const(x), SExpr::Const(y)) => SExpr::Const(x + y),
        (SExpr::Const(z), e) | (e, SExpr::Const(z)) if z == 0.0 => e,
        (a, b) => SExpr::add(a, b),
    }
}

/// `a * b` for a position or offset: constants fold and a unit factor
/// drops (see [`idx_add`]).
fn idx_mul(a: SExpr, b: SExpr) -> SExpr {
    match (a, b) {
        (SExpr::Const(x), SExpr::Const(y)) => SExpr::Const(x * y),
        (SExpr::Const(u), e) | (e, SExpr::Const(u)) if u == 1.0 => e,
        (a, b) => SExpr::mul(a, b),
    }
}

fn collect_extents(
    program: &Program,
    stmt: &Stmt,
    out: &mut HashMap<IndexVar, usize>,
) -> Result<(), CompileError> {
    let mut err = None;
    stmt.visit(&mut |s| {
        if err.is_some() {
            return;
        }
        if let Stmt::Assign { lhs, rhs, .. } = s {
            let mut accesses = vec![lhs.clone()];
            accesses.extend(rhs.accesses().into_iter().cloned());
            for a in accesses {
                let decl = match program.decl(&a.tensor) {
                    Some(d) => d,
                    None => {
                        err = Some(CompileError::UndeclaredTensor(a.tensor.clone()));
                        return;
                    }
                };
                for (m, ix) in a.indices.iter().enumerate() {
                    if m < decl.dims.len() {
                        out.entry(ix.clone()).or_insert(decl.dims[m]);
                    }
                }
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The forall variables below a statement (through wheres/maps).
pub(crate) fn spine_after(stmt: &Stmt) -> Vec<IndexVar> {
    let mut out = Vec::new();
    fn go(s: &Stmt, out: &mut Vec<IndexVar>) {
        match s {
            Stmt::Forall { index, body } => {
                out.push(index.clone());
                go(body, out);
            }
            Stmt::SuchThat { body, .. } | Stmt::Map { body, .. } => go(body, out),
            Stmt::Where { consumer, producer } => {
                go(producer, out);
                go(consumer, out);
            }
            Stmt::Sequence(ss) => {
                for s in ss {
                    go(s, out);
                }
            }
            Stmt::Assign { .. } => {}
        }
    }
    go(stmt, &mut out);
    out
}

/// Whether lowering `body` introduces loops before the uses of variable
/// `v`'s staged segment (which would break single-consumption FIFO order).
fn intervening_loop(body: &Stmt, v: &IndexVar) -> bool {
    let mut hit = false;
    fn go(s: &Stmt, v: &IndexVar, in_loop: bool, hit: &mut bool) {
        match s {
            Stmt::Forall { body, .. } => go(body, v, true, hit),
            Stmt::SuchThat { body, .. } | Stmt::Map { body, .. } => go(body, v, in_loop, hit),
            Stmt::Where { consumer, producer } => {
                go(producer, v, in_loop, hit);
                go(consumer, v, in_loop, hit);
            }
            Stmt::Sequence(ss) => {
                for s in ss {
                    go(s, v, in_loop, hit);
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                if in_loop && (lhs.uses(v) || rhs.accesses().iter().any(|a| a.uses(v))) {
                    *hit = true;
                }
            }
        }
    }
    go(body, v, false, &mut hit);
    hit
}

/// If `stmt` is `∀v1..∀vn (lhs = rhs)` with a single access on the right,
/// returns `(vars, lhs, rhs_access)`.
fn copy_loop(stmt: &Stmt) -> Option<(Vec<IndexVar>, Access, Access)> {
    let mut vars = Vec::new();
    let mut cur = stmt;
    loop {
        match cur {
            Stmt::Forall { index, body } => {
                vars.push(index.clone());
                cur = body;
            }
            Stmt::Assign {
                lhs,
                op: AssignOp::Assign,
                rhs: Expr::Access(rhs),
            } => {
                if vars.is_empty() {
                    return None;
                }
                return Some((vars, lhs.clone(), rhs.clone()));
            }
            Stmt::SuchThat { body, .. } | Stmt::Map { body, .. } => cur = body,
            _ => return None,
        }
    }
}

/// The lhs of the statement's (possibly nested) assignment, if unique.
fn top_level_lhs(stmt: &Stmt) -> Option<&Access> {
    match stmt {
        Stmt::Assign { lhs, .. } => Some(lhs),
        Stmt::Forall { body, .. } | Stmt::SuchThat { body, .. } | Stmt::Map { body, .. } => {
            top_level_lhs(body)
        }
        Stmt::Where { consumer, .. } => top_level_lhs(consumer),
        Stmt::Sequence(_) => None,
    }
}

/// `(lhs, op, rhs, vars)` of `∀v1..∀vn (assign)`.
fn assign_under_foralls(s: &Stmt) -> Option<(Access, AssignOp, Expr, Vec<IndexVar>)> {
    let mut vars = Vec::new();
    let mut cur = s;
    loop {
        match cur {
            Stmt::Forall { index, body } => {
                vars.push(index.clone());
                cur = body;
            }
            Stmt::Assign { lhs, op, rhs } => return Some((lhs.clone(), *op, rhs.clone(), vars)),
            Stmt::SuchThat { body, .. } | Stmt::Map { body, .. } => cur = body,
            _ => return None,
        }
    }
}

/// Strips `s.t.`/`map` wrappers so a reduction nest lowers as plain loops.
fn strip_foralls_wrapper(s: &Stmt) -> &Stmt {
    match s {
        Stmt::SuchThat { body, .. } | Stmt::Map { body, .. } => strip_foralls_wrapper(body),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ProgramBuilder;
    use crate::pipeline::Compiler;
    use crate::schedule::Scheduler;
    use stardust_ir::cin::PatternFn;
    use stardust_ir::expr::Expr;
    use stardust_tensor::Format;

    #[test]
    fn index_folds_leave_value_identities_alone() {
        assert_eq!(idx_add(SExpr::Const(0.0), SExpr::var("i")), SExpr::var("i"));
        assert_eq!(idx_mul(SExpr::var("j"), SExpr::Const(1.0)), SExpr::var("j"));
        assert_eq!(
            idx_add(SExpr::Const(2.0), SExpr::Const(3.0)),
            SExpr::Const(5.0)
        );
        // `0 + v` and `v * 1` written in the index notation are values:
        // `0 + -0.0` is `+0.0`, so they reach the program as written,
        // while the positions around them print folded.
        let mut p = ProgramBuilder::new("spmv_identities")
            .tensor("A", vec![8, 8], Format::csr())
            .tensor("x", vec![8], Format::dense_vec())
            .tensor("y", vec![8], Format::dense_vec())
            .expr("y(i) = (0 + A(i,j)) * (x(j) * 1)")
            .build()
            .unwrap();
        let mut s = Scheduler::new(&mut p);
        s.precompute(&Expr::access("x", vec!["j".into()]), &["j"], "x_on")
            .unwrap();
        s.precompute_reduction("ws").unwrap();
        s.accelerate_reduction("ws", PatternFn::Reduction).unwrap();
        let stmt = s.finish();
        let kernel = Compiler::compile(&p, &stmt, SizeHints::new()).unwrap();
        let source = kernel.source();
        assert!(source.contains("(0 + A_val"), "{source}");
        assert!(
            source.contains("(x_on_vals(j_") && source.contains(" * 1))"),
            "{source}"
        );
        assert!(!source.contains("(0 * "), "{source}");
    }
}
