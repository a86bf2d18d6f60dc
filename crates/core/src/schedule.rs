//! The Stardust scheduling language (§5.2, Tables 1 and 2).
//!
//! A [`Scheduler`] wraps a CIN statement and applies scheduling commands as
//! CIN→CIN rewrites: TACO's `split_up`/`split_down`/`fuse`/`reorder`/
//! `precompute`, and the paper's new `map`, `accelerate`, and `environment`
//! commands that expose sub-computations to backend patterns. Every command
//! records the provenance relations needed to keep the statement executable
//! (see [`stardust_ir::relations`]), and every command is validated against
//! the statement's structure.

use stardust_ir::cin::{AssignOp, Backend, PatternFn, Stmt};
use stardust_ir::expr::{Access, Expr, IndexVar};
use stardust_ir::relations::Relation;
use stardust_tensor::{Format, MemoryRegion};

use crate::context::{Program, TensorDecl};
use crate::error::CompileError;

/// Applies scheduling commands to a program's CIN statement.
///
/// # Example
///
/// The SDDMM schedule of Fig. 5: environment parallelization factors, a
/// scalar-workspace precompute of the accumulation, and acceleration as a
/// Spatial `Reduce`:
///
/// ```
/// use stardust_core::{ProgramBuilder, Scheduler};
/// use stardust_ir::cin::PatternFn;
/// use stardust_tensor::Format;
///
/// let mut program = ProgramBuilder::new("sddmm")
///     .tensor("A", vec![4, 4], Format::csr())
///     .tensor("B", vec![4, 4], Format::csr())
///     .tensor("C", vec![4, 4], Format::dense(2))
///     .tensor("D", vec![4, 4], Format::dense_col_major())
///     .expr("A(i,j) = B(i,j) * C(i,k) * D(k,j)")
///     .build()
///     .unwrap();
/// let mut s = Scheduler::new(&mut program);
/// s.environment("innerPar", 16).unwrap();
/// s.environment("outerPar", 2).unwrap();
/// s.precompute_reduction("ws").unwrap();
/// s.accelerate_reduction("ws", PatternFn::Reduction).unwrap();
/// let cin = s.finish();
/// assert!(cin.to_string().contains("where"));
/// assert!(cin.to_string().contains("map("));
/// ```
#[derive(Debug)]
pub struct Scheduler<'p> {
    program: &'p mut Program,
    stmt: Stmt,
}

impl<'p> Scheduler<'p> {
    /// Starts scheduling from the program's canonical CIN.
    pub fn new(program: &'p mut Program) -> Self {
        let stmt = program.canonical_cin();
        Scheduler { program, stmt }
    }

    /// Starts from an explicit statement (for resuming a saved schedule).
    pub fn from_stmt(program: &'p mut Program, stmt: Stmt) -> Self {
        Scheduler { program, stmt }
    }

    /// The current statement.
    pub fn stmt(&self) -> &Stmt {
        &self.stmt
    }

    /// Finishes scheduling, returning the scheduled CIN.
    pub fn finish(self) -> Stmt {
        self.stmt
    }

    /// `environment(var, c)` — set a global backend configuration variable
    /// (Table 2). Recorded as an `s.t.` relation at the statement root.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Schedule`] for a non-positive value.
    pub fn environment(&mut self, name: &str, value: i64) -> Result<(), CompileError> {
        if value <= 0 {
            return Err(CompileError::Schedule(format!(
                "environment {name} must be positive, got {value}"
            )));
        }
        self.program
            .note_input_line(format!("stmt = stmt.environment({name}, {value});"));
        self.push_root_relation(Relation::Env {
            name: name.to_string(),
            value,
        });
        Ok(())
    }

    /// `split_up(i, io, ii, c)` — stripmine `∀i` with constant inner extent
    /// `c` (Table 1).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Schedule`] when `∀i` does not exist or `c`
    /// is zero.
    pub fn split_up(&mut self, i: &str, io: &str, ii: &str, c: usize) -> Result<(), CompileError> {
        self.split(i, io, ii, c, true)
    }

    /// `split_down(i, io, ii, c)` — stripmine `∀i` with constant outer
    /// extent `c` (Table 1).
    ///
    /// # Errors
    ///
    /// Same as [`Scheduler::split_up`].
    pub fn split_down(
        &mut self,
        i: &str,
        io: &str,
        ii: &str,
        c: usize,
    ) -> Result<(), CompileError> {
        self.split(i, io, ii, c, false)
    }

    fn split(
        &mut self,
        i: &str,
        io: &str,
        ii: &str,
        c: usize,
        up: bool,
    ) -> Result<(), CompileError> {
        if c == 0 {
            return Err(CompileError::Schedule(
                "split factor must be positive".into(),
            ));
        }
        let var = IndexVar::new(i);
        let (iov, iiv) = (IndexVar::new(io), IndexVar::new(ii));
        let mut replaced = false;
        self.stmt.visit_mut(&mut |s| {
            if replaced {
                return false;
            }
            if let Stmt::Forall { index, body } = s {
                if *index == var {
                    let inner = Stmt::forall(iiv.clone(), (**body).clone());
                    *s = Stmt::forall(iov.clone(), inner);
                    replaced = true;
                    return false;
                }
            }
            true
        });
        if !replaced {
            return Err(CompileError::Schedule(format!(
                "no forall over {i} to split"
            )));
        }
        let name = if up { "split_up" } else { "split_down" };
        self.program
            .note_input_line(format!("stmt = stmt.{name}({i}, {io}, {ii}, {c});"));
        let rel = if up {
            Relation::SplitUp {
                orig: var,
                outer: iov,
                inner: iiv,
                factor: c,
            }
        } else {
            Relation::SplitDown {
                orig: var,
                outer: iov,
                inner: iiv,
                factor: c,
            }
        };
        self.push_root_relation(rel);
        Ok(())
    }

    /// `fuse(io, ii, if)` — collapse two directly nested foralls (Table 1).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Schedule`] when `∀io ∀ii` is not a directly
    /// nested pair.
    pub fn fuse(&mut self, io: &str, ii: &str, f: &str) -> Result<(), CompileError> {
        let (iov, iiv, fv) = (IndexVar::new(io), IndexVar::new(ii), IndexVar::new(f));
        let mut replaced = false;
        self.stmt.visit_mut(&mut |s| {
            if replaced {
                return false;
            }
            if let Stmt::Forall { index, body } = s {
                if *index == iov {
                    if let Stmt::Forall {
                        index: inner_ix,
                        body: inner_body,
                    } = body.as_ref()
                    {
                        if *inner_ix == iiv {
                            *s = Stmt::forall(fv.clone(), (**inner_body).clone());
                            replaced = true;
                            return false;
                        }
                    }
                }
            }
            true
        });
        if !replaced {
            return Err(CompileError::Schedule(format!(
                "no directly nested foralls {io}, {ii} to fuse"
            )));
        }
        self.program
            .note_input_line(format!("stmt = stmt.fuse({io}, {ii}, {f});"));
        self.push_root_relation(Relation::Fuse {
            outer: iov,
            inner: iiv,
            fused: fv,
        });
        Ok(())
    }

    /// `reorder(i*)` — permute a contiguous forall spine (Table 1).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Schedule`] when `order` is not a permutation
    /// of a contiguous spine of foralls.
    pub fn reorder(&mut self, order: &[&str]) -> Result<(), CompileError> {
        let wanted: Vec<IndexVar> = order.iter().map(|s| IndexVar::new(*s)).collect();
        // Find the forall whose spine-prefix matches the set of `wanted`.
        let mut done = false;
        let mut error = None;
        self.stmt.visit_mut(&mut |s| {
            if done {
                return false;
            }
            if let Stmt::Forall { index, .. } = s {
                if wanted.contains(index) {
                    // Collect the contiguous spine from here.
                    let mut vars = Vec::new();
                    let mut cur: &Stmt = s;
                    while let Stmt::Forall { index, body } = cur {
                        if vars.len() == wanted.len() {
                            break;
                        }
                        vars.push(index.clone());
                        cur = body;
                    }
                    if vars.len() != wanted.len() || !wanted.iter().all(|w| vars.contains(w)) {
                        error = Some(CompileError::Schedule(format!(
                            "reorder({order:?}) does not match spine {vars:?}"
                        )));
                        done = true;
                        return false;
                    }
                    let innermost_body = cur.clone();
                    *s = Stmt::foralls(wanted.clone(), innermost_body);
                    done = true;
                    return false;
                }
            }
            true
        });
        if let Some(e) = error {
            return Err(e);
        }
        if !done {
            return Err(CompileError::Schedule(format!(
                "reorder({order:?}): no matching forall spine"
            )));
        }
        self.program
            .note_input_line(format!("stmt = stmt.reorder({order:?});"));
        Ok(())
    }

    /// `precompute(e, i*, i*, ws)` (Table 1) — materialize subexpression
    /// `e` into a workspace tensor `ws` indexed by `ivars`, inserting a
    /// `where` node. The workspace is declared on-chip (this is the §5.1
    /// mechanism for staging off-chip data into accelerator memory; see
    /// Fig. 6).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Schedule`] when `e` does not occur in the
    /// statement or `ivars` don't cover `e`'s non-enclosing variables.
    pub fn precompute(&mut self, e: &Expr, ivars: &[&str], ws: &str) -> Result<(), CompileError> {
        let ivars: Vec<IndexVar> = ivars.iter().map(|s| IndexVar::new(*s)).collect();
        // Declare the workspace: dims from the ivars' extents in the
        // program's declarations.
        let dims = self.extents_of(&ivars)?;
        let format = if dims.is_empty() {
            Format::dense_vec().with_region(MemoryRegion::OnChip)
        } else {
            Format::dense(dims.len()).with_region(MemoryRegion::OnChip)
        };
        self.program.add_decl(TensorDecl::new(ws, dims, format));
        self.program.note_input_line(format!(
            "stmt = stmt.precompute({e}, {ivars:?}, {ivars:?}, {ws});"
        ));

        let ws_access = Access::new(ws, ivars.clone());
        let producer = Stmt::foralls(ivars.to_vec(), Stmt::assign(ws_access.clone(), e.clone()));

        // Replace e in the (unique) assign whose rhs contains it, then wrap
        // the outermost forall binding any ivar (or the assign itself) in a
        // where node.
        let mut replaced = false;
        self.stmt.visit_mut(&mut |s| {
            if replaced {
                return false;
            }
            if let Stmt::Assign { rhs, .. } = s {
                if rhs.replace(e, &Expr::Access(ws_access.clone())) > 0 {
                    replaced = true;
                    return false;
                }
            }
            true
        });
        if !replaced {
            return Err(CompileError::Schedule(format!(
                "precompute: expression {e} not found"
            )));
        }

        // Insertion point. The producer depends on `deps = vars(e) \ ivars`;
        // it is hoisted as high as those dependences allow: with no deps it
        // wraps the whole statement (the Fig. 6b initial-load placement),
        // otherwise it wraps the outermost forall binding an ivar once all
        // deps are in scope (the Fig. 6a per-iteration placement). Scalar
        // hoists (empty ivars) wrap the consuming assign.
        let deps: Vec<IndexVar> = e
            .index_vars()
            .into_iter()
            .filter(|v| !ivars.contains(v))
            .collect();
        if deps.is_empty() && !ivars.is_empty() {
            let consumer = self.stmt.clone();
            self.stmt = Stmt::where_(consumer, producer);
            return Ok(());
        }
        let mut inserted = false;
        if ivars.is_empty() {
            self.stmt.visit_mut(&mut |s| {
                if inserted {
                    return false;
                }
                let is_consumer = matches!(
                    s,
                    Stmt::Assign { rhs, .. } if rhs.contains(&Expr::Access(ws_access.clone()))
                );
                if is_consumer {
                    let consumer = s.clone();
                    *s = Stmt::where_(consumer, producer.clone());
                    inserted = true;
                    return false;
                }
                true
            });
        } else {
            insert_where_at(
                &mut self.stmt,
                &ivars,
                &deps,
                &mut Vec::new(),
                &producer,
                &mut inserted,
            );
        }
        if !inserted {
            return Err(CompileError::Schedule(
                "precompute: no insertion point found".into(),
            ));
        }
        Ok(())
    }

    /// Generalized accumulation precompute: rewrites
    /// `∀w* (lhs += e)` — where `w*` splits into reduction variables and
    /// the trailing output variables `ivars` — into
    /// `(∀ivars lhs = ws(ivars)) where (∀rvars ∀ivars ws(ivars) += e)`
    /// with an on-chip workspace. With empty `ivars` this is the Fig. 5
    /// scalar-workspace precompute; with `ivars = [j]` it is the row
    /// workspace used by MTTKRP/TTM-style kernels.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Schedule`] when no matching nest exists.
    pub fn precompute_reduction_into(
        &mut self,
        ws: &str,
        ivars: &[&str],
    ) -> Result<(), CompileError> {
        let ivars: Vec<IndexVar> = ivars.iter().map(|s| IndexVar::new(*s)).collect();
        let dims = if ivars.is_empty() {
            vec![]
        } else {
            self.extents_of(&ivars)?
        };
        let format = if dims.is_empty() {
            Format::dense_vec().with_region(MemoryRegion::OnChip)
        } else {
            Format::dense(dims.len()).with_region(MemoryRegion::OnChip)
        };
        self.program.add_decl(TensorDecl::new(ws, dims, format));
        self.program.note_input_line(format!(
            "stmt = stmt.precompute(rhs, {ivars:?}, {ivars:?}, {ws});"
        ));

        let ws_name = ws.to_string();
        let mut rewritten = false;
        self.stmt.visit_mut(&mut |s| {
            if rewritten {
                return false;
            }
            if let Stmt::Forall { .. } = s {
                if let Some((lhs, _, rhs, vars)) = assign_under_foralls(s) {
                    let ok = !vars.is_empty()
                        && vars
                            .iter()
                            .all(|v| ivars.contains(v) || !lhs.indices.contains(v))
                        && ivars.iter().all(|v| vars.contains(v))
                        && vars.iter().any(|v| !ivars.contains(v));
                    if ok {
                        let rvars: Vec<IndexVar> = vars
                            .iter()
                            .filter(|v| !ivars.contains(v))
                            .cloned()
                            .collect();
                        let ws_access = Access::new(&ws_name, ivars.clone());
                        let consumer = Stmt::foralls(
                            ivars.clone(),
                            Stmt::assign(lhs.clone(), Expr::Access(ws_access.clone())),
                        );
                        let mut producer_vars = rvars;
                        producer_vars.extend(ivars.iter().cloned());
                        let producer =
                            Stmt::foralls(producer_vars, Stmt::accumulate(ws_access, rhs.clone()));
                        *s = Stmt::where_(consumer, producer);
                        rewritten = true;
                        return false;
                    }
                }
            }
            true
        });
        if !rewritten {
            return Err(CompileError::Schedule(
                "precompute_reduction_into: no matching accumulation nest".into(),
            ));
        }
        Ok(())
    }

    /// The Fig. 5 accumulation precompute: rewrites the innermost
    /// reduction `∀r* (lhs ⊕= e)` into
    /// `lhs ⊕= ws where ∀r* (ws += e)` with a scalar on-chip workspace
    /// `ws`, exposing the loop for `Reduce` acceleration.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Schedule`] when no reduction loop exists.
    pub fn precompute_reduction(&mut self, ws: &str) -> Result<(), CompileError> {
        self.program.add_decl(TensorDecl::new(
            ws,
            vec![],
            Format::dense_vec().with_region(MemoryRegion::OnChip),
        ));
        self.program
            .note_input_line(format!("stmt = stmt.precompute(rhs, {{}}, {{}}, {ws});"));

        let ws_name = ws.to_string();
        let relations = self.stmt.relations();
        let mut rewritten = false;

        // Phase 1: reduction nests inside a Sequence after a prior write to
        // the same output keep their accumulating consumer (Residual's
        // `y(i) += ws` after `y(i) = b(i)`).
        self.stmt.visit_mut(&mut |s| {
            if rewritten {
                return false;
            }
            if let Stmt::Sequence(elems) = s {
                let mut prior: Vec<String> = Vec::new();
                for elem in elems.iter_mut() {
                    if let Some((lhs, op, rhs, rvars)) = reduction_nest(elem, &relations) {
                        if !rvars.is_empty() && prior.contains(&lhs.tensor) {
                            let consumer = Stmt::Assign {
                                lhs: lhs.clone(),
                                op,
                                rhs: Expr::Access(Access::scalar(&ws_name)),
                            };
                            let producer = Stmt::foralls(
                                rvars,
                                Stmt::accumulate(Access::scalar(&ws_name), rhs),
                            );
                            *elem = Stmt::where_(consumer, producer);
                            rewritten = true;
                            return false;
                        }
                    }
                    prior.extend(elem.outputs());
                }
            }
            true
        });

        // Phase 2: standalone reduction nests take a plain-assign consumer
        // (Fig. 5: `A(i,j) = ws`).
        if !rewritten {
            self.stmt.visit_mut(&mut |s| {
                if rewritten {
                    return false;
                }
                if let Stmt::Forall { index, .. } = s {
                    let index = index.clone();
                    let spine_owner = s.clone();
                    if let Some((lhs, _, rhs, rvars)) = reduction_nest(&spine_owner, &relations) {
                        if rvars.first() == Some(&index) && !rvars.is_empty() {
                            let consumer =
                                Stmt::assign(lhs.clone(), Expr::Access(Access::scalar(&ws_name)));
                            let producer = Stmt::foralls(
                                rvars.clone(),
                                Stmt::accumulate(Access::scalar(&ws_name), rhs.clone()),
                            );
                            *s = Stmt::where_(consumer, producer);
                            rewritten = true;
                            return false;
                        }
                    }
                }
                true
            });
        }
        if !rewritten {
            return Err(CompileError::Schedule(
                "precompute_reduction: no reduction loop found".into(),
            ));
        }
        Ok(())
    }

    /// `map(S', backend, f, c)` (Table 2) — bind the first sub-statement
    /// structurally equal to `target` to a backend pattern.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Schedule`] when the target does not occur.
    pub fn map(
        &mut self,
        target: &Stmt,
        backend: Backend,
        pattern: PatternFn,
        factor: Option<usize>,
    ) -> Result<(), CompileError> {
        let mapped = Stmt::Map {
            body: Box::new(target.clone()),
            backend,
            pattern: pattern.clone(),
            factor,
        };
        if !self.stmt.replace_subtree(target, &mapped) {
            return Err(CompileError::Schedule(format!(
                "map: target statement not found: {target}"
            )));
        }
        self.program.note_input_line(format!(
            "stmt = stmt.map(sub, {backend}, {pattern}, {factor:?});"
        ));
        Ok(())
    }

    /// `accelerate` for the common reduction case (Fig. 5 lines 23–24):
    /// wraps the workspace-accumulation loop produced by
    /// [`Scheduler::precompute_reduction`] in a `map(..., Reduction)` node.
    /// The parallelization factor is taken from the `innerPar` environment
    /// variable at lowering time when `factor` is `None`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Schedule`] when no workspace accumulation
    /// into `ws` exists.
    pub fn accelerate_reduction(
        &mut self,
        ws: &str,
        pattern: PatternFn,
    ) -> Result<(), CompileError> {
        let relations = self.stmt.relations();
        let mut target = None;
        self.stmt.visit(&mut |s| {
            if target.is_some() {
                return;
            }
            if let Stmt::Forall { .. } = s {
                if let Some((lhs, _, _, rvars)) = reduction_nest(s, &relations) {
                    if lhs.tensor == ws && lhs.indices.is_empty() && !rvars.is_empty() {
                        target = Some(s.clone());
                    }
                }
            }
        });
        let target = target.ok_or_else(|| {
            CompileError::Schedule(format!("accelerate: no accumulation into {ws} found"))
        })?;
        self.program.note_input_line(format!(
            "stmt = stmt.accelerate(forall(.., {ws} += ..), Spatial, {pattern}, innerPar);"
        ));
        let mapped = Stmt::Map {
            body: Box::new(target.clone()),
            backend: Backend::Spatial,
            pattern,
            factor: None,
        };
        if !self.stmt.replace_subtree(&target, &mapped) {
            return Err(CompileError::Schedule("accelerate: replace failed".into()));
        }
        Ok(())
    }

    /// The general `accelerate(S', backend, f, c)` of eq. (5): precomputes
    /// the result and every input tensor of the sub-assignment on-chip,
    /// then maps the on-chip computation to `f`.
    ///
    /// `target_lhs` names the output access of the accelerated
    /// sub-statement; `ivars` are its iteration variables.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Schedule`] when the sub-statement shape is
    /// unsupported.
    pub fn accelerate(
        &mut self,
        target_lhs: &str,
        ivars: &[&str],
        backend: Backend,
        pattern: PatternFn,
        factor: Option<usize>,
    ) -> Result<(), CompileError> {
        // Find the assign writing target_lhs.
        let mut found: Option<(Access, Expr)> = None;
        self.stmt.visit(&mut |s| {
            if found.is_some() {
                return;
            }
            if let Stmt::Assign { lhs, rhs, .. } = s {
                if lhs.tensor == target_lhs {
                    found = Some((lhs.clone(), rhs.clone()));
                }
            }
        });
        let (lhs, rhs) =
            found.ok_or_else(|| CompileError::Schedule(format!("no assign to {target_lhs}")))?;

        // Step 1 of eq. (6): result on-chip.
        let a_on = format!("{target_lhs}_on");
        self.precompute(&rhs, ivars, &a_on)?;
        // Step 2: every input tensor on-chip.
        for t in rhs.tensor_names() {
            let decl = self
                .program
                .decl(&t)
                .ok_or_else(|| CompileError::UndeclaredTensor(t.clone()))?;
            if decl.format.region().is_on_chip() {
                continue;
            }
            let access = rhs
                .accesses()
                .into_iter()
                .find(|a| a.tensor == t)
                .expect("tensor name came from rhs")
                .clone();
            let t_on = format!("{t}_on");
            let vars: Vec<&str> = access.indices.iter().map(|v| v.name()).collect();
            self.precompute(&Expr::Access(access.clone()), &vars, &t_on)?;
        }
        // Step 3: map the on-chip producer loop.
        let mut target = None;
        self.stmt.visit(&mut |s| {
            if target.is_some() {
                return;
            }
            if let Stmt::Forall { .. } = s {
                if let Some((l, _, _, _)) = assign_under_foralls(s) {
                    if l.tensor == a_on {
                        target = Some(s.clone());
                    }
                }
            }
        });
        let target = target
            .ok_or_else(|| CompileError::Schedule("accelerate: producer not found".into()))?;
        let _ = lhs;
        self.map(&target, backend, pattern, factor)
    }

    fn push_root_relation(&mut self, rel: Relation) {
        match &mut self.stmt {
            Stmt::SuchThat { relations, .. } => relations.push(rel),
            other => {
                let body = other.clone();
                *other = Stmt::such_that(body, vec![rel]);
            }
        }
    }

    fn extents_of(&self, ivars: &[IndexVar]) -> Result<Vec<usize>, CompileError> {
        // Extent of each ivar from any declared tensor access using it.
        let mut dims = Vec::with_capacity(ivars.len());
        for v in ivars {
            let mut extent = None;
            self.stmt.visit(&mut |s| {
                if extent.is_some() {
                    return;
                }
                if let Stmt::Assign { lhs, rhs, .. } = s {
                    let mut accesses = vec![lhs.clone()];
                    accesses.extend(rhs.accesses().into_iter().cloned());
                    for a in accesses {
                        if let Some(pos) = a.indices.iter().position(|ix| ix == v) {
                            if let Some(decl) = self.program.decl(&a.tensor) {
                                if pos < decl.dims.len() {
                                    extent = Some(decl.dims[pos]);
                                    return;
                                }
                            }
                        }
                    }
                }
            });
            dims.push(
                extent
                    .ok_or_else(|| CompileError::Schedule(format!("cannot infer extent of {v}")))?,
            );
        }
        Ok(dims)
    }
}

/// Recursive insertion helper for `precompute`: places the producer at
/// the outermost point where every `dep` is bound — the body of the
/// forall binding the last dep (so SDDMM stages its row `C(i,:)` once
/// per `i`, not once per stored `B(i,j)`) — or, when an `ivar` is bound
/// before the deps are, around the first forall binding an `ivar` with
/// every dep in scope.
fn insert_where_at(
    stmt: &mut Stmt,
    ivars: &[IndexVar],
    deps: &[IndexVar],
    bound: &mut Vec<IndexVar>,
    producer: &Stmt,
    inserted: &mut bool,
) {
    if *inserted {
        return;
    }
    let deps_bound = |bound: &[IndexVar]| deps.iter().all(|d| bound.contains(d));
    match stmt {
        Stmt::Forall { index, body } => {
            if ivars.contains(index) && deps_bound(bound) {
                let consumer = stmt.clone();
                *stmt = Stmt::where_(consumer, producer.clone());
                *inserted = true;
                return;
            }
            bound.push(index.clone());
            if deps.contains(index) && deps_bound(bound) && !ivars.iter().any(|v| bound.contains(v))
            {
                let consumer = (**body).clone();
                **body = Stmt::where_(consumer, producer.clone());
                *inserted = true;
            } else {
                insert_where_at(body, ivars, deps, bound, producer, inserted);
            }
            bound.pop();
        }
        Stmt::SuchThat { body, .. } | Stmt::Map { body, .. } => {
            insert_where_at(body, ivars, deps, bound, producer, inserted);
        }
        Stmt::Where {
            consumer,
            producer: p,
        } => {
            insert_where_at(consumer, ivars, deps, bound, producer, inserted);
            insert_where_at(p, ivars, deps, bound, producer, inserted);
        }
        Stmt::Sequence(ss) => {
            for s in ss {
                insert_where_at(s, ivars, deps, bound, producer, inserted);
            }
        }
        Stmt::Assign { .. } => {}
    }
}

/// If `s` is a nest `∀v1 ... ∀vn (lhs ⊕= rhs)` where every `vi` is a true
/// reduction variable — absent from `lhs` and not related to an `lhs`
/// variable through scheduling relations (a split-derived `io`/`ii` of an
/// output variable is *not* a reduction variable) — returns
/// `(lhs, op, rhs, [v1..vn])`.
fn reduction_nest(
    s: &Stmt,
    relations: &[Relation],
) -> Option<(Access, AssignOp, Expr, Vec<IndexVar>)> {
    let (lhs, op, rhs, vars) = assign_under_foralls(s)?;
    let related = related_vars(&lhs.indices, relations);
    if vars.iter().all(|v| !related.contains(v)) && op == AssignOp::Accumulate {
        Some((lhs, op, rhs, vars))
    } else {
        None
    }
}

/// The transitive closure of variables related to `seed` through
/// scheduling relations (split parents/children, fuse partners).
fn related_vars(seed: &[IndexVar], relations: &[Relation]) -> std::collections::HashSet<IndexVar> {
    let mut set: std::collections::HashSet<IndexVar> = seed.iter().cloned().collect();
    loop {
        let before = set.len();
        for rel in relations {
            match rel {
                Relation::SplitUp {
                    orig, outer, inner, ..
                }
                | Relation::SplitDown {
                    orig, outer, inner, ..
                } => {
                    if set.contains(orig) || set.contains(outer) || set.contains(inner) {
                        set.insert(orig.clone());
                        set.insert(outer.clone());
                        set.insert(inner.clone());
                    }
                }
                Relation::Fuse {
                    outer,
                    inner,
                    fused,
                } => {
                    if set.contains(outer) || set.contains(inner) || set.contains(fused) {
                        set.insert(outer.clone());
                        set.insert(inner.clone());
                        set.insert(fused.clone());
                    }
                }
                Relation::Env { .. } | Relation::Bound { .. } => {}
            }
        }
        if set.len() == before {
            return set;
        }
    }
}

/// If `s` is `∀v1 ... ∀vn (assign)`, returns the assign parts and vars.
fn assign_under_foralls(s: &Stmt) -> Option<(Access, AssignOp, Expr, Vec<IndexVar>)> {
    let mut vars = Vec::new();
    let mut cur = s;
    loop {
        match cur {
            Stmt::Forall { index, body } => {
                vars.push(index.clone());
                cur = body;
            }
            Stmt::Assign { lhs, op, rhs } => {
                return Some((lhs.clone(), *op, rhs.clone(), vars));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ProgramBuilder;
    use stardust_ir::{eval, EvalContext};
    use stardust_tensor::DenseTensor;

    fn spmv_program() -> Program {
        ProgramBuilder::new("spmv")
            .tensor("A", vec![4, 4], Format::csr())
            .tensor("x", vec![4], Format::dense_vec())
            .tensor("y", vec![4], Format::dense_vec())
            .expr("y(i) = A(i,j) * x(j)")
            .build()
            .unwrap()
    }

    fn eval_spmv(stmt: &Stmt) -> Vec<f64> {
        let mut ctx = EvalContext::new();
        let a: Vec<f64> = (0..16).map(f64::from).collect();
        ctx.add_tensor("A", DenseTensor::from_data(vec![4, 4], a));
        ctx.add_tensor(
            "x",
            DenseTensor::from_data(vec![4], vec![1.0, 2.0, 3.0, 4.0]),
        );
        ctx.add_tensor("y", DenseTensor::zeros(vec![4]));
        eval(stmt, &mut ctx).unwrap();
        ctx.tensor("y").unwrap().data().to_vec()
    }

    fn reference_spmv() -> Vec<f64> {
        let mut p = spmv_program();
        let s = Scheduler::new(&mut p);
        eval_spmv(s.stmt())
    }

    #[test]
    fn environment_adds_relation() {
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        s.environment("innerPar", 16).unwrap();
        let stmt = s.finish();
        assert!(stmt.to_string().contains("innerPar = 16"));
        assert!(matches!(
            Scheduler::new(&mut p).environment("ip", 0),
            Err(CompileError::Schedule(_))
        ));
    }

    #[test]
    fn split_up_preserves_semantics() {
        let reference = reference_spmv();
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        s.split_up("i", "io", "ii", 3).unwrap();
        assert_eq!(eval_spmv(s.stmt()), reference);
        assert!(s.stmt().to_string().contains("split_up(i, io, ii, 3)"));
    }

    #[test]
    fn split_down_preserves_semantics() {
        let reference = reference_spmv();
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        s.split_down("j", "jo", "ji", 2).unwrap();
        assert_eq!(eval_spmv(s.stmt()), reference);
    }

    #[test]
    fn split_missing_var_errors() {
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        assert!(matches!(
            s.split_up("z", "zo", "zi", 2),
            Err(CompileError::Schedule(_))
        ));
    }

    #[test]
    fn fuse_preserves_semantics() {
        let reference = reference_spmv();
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        s.fuse("i", "j", "f").unwrap();
        assert_eq!(eval_spmv(s.stmt()), reference);
        assert_eq!(s.stmt().forall_spine(), vec![IndexVar::new("f")]);
    }

    #[test]
    fn fuse_requires_nesting() {
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        assert!(matches!(
            s.fuse("j", "i", "f"),
            Err(CompileError::Schedule(_))
        ));
    }

    #[test]
    fn reorder_permutes_spine() {
        let reference = reference_spmv();
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        s.reorder(&["j", "i"]).unwrap();
        assert_eq!(
            s.stmt().forall_spine(),
            vec![IndexVar::new("j"), IndexVar::new("i")]
        );
        assert_eq!(eval_spmv(s.stmt()), reference);
    }

    #[test]
    fn precompute_vector_workspace() {
        // Fig. 6a-style: stage x on-chip.
        let reference = reference_spmv();
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        let e = Expr::access("x", vec!["j".into()]);
        s.precompute(&e, &["j"], "x_on").unwrap();
        let txt = s.stmt().to_string();
        assert!(txt.contains("where"));
        assert!(txt.contains("x_on(j) = x(j)"));
        assert_eq!(eval_spmv(s.stmt()), reference);
        assert!(p.decl("x_on").unwrap().format.region().is_on_chip());
    }

    #[test]
    fn precompute_reduction_inserts_scalar_workspace() {
        let reference = reference_spmv();
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        s.precompute_reduction("ws").unwrap();
        let txt = s.stmt().to_string();
        assert!(txt.contains("y(i) = ws"));
        assert!(txt.contains("ws += A(i,j) * x(j)"));
        assert_eq!(eval_spmv(s.stmt()), reference);
    }

    #[test]
    fn accelerate_reduction_wraps_map() {
        let reference = reference_spmv();
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        s.precompute_reduction("ws").unwrap();
        s.accelerate_reduction("ws", PatternFn::Reduction).unwrap();
        let txt = s.stmt().to_string();
        assert!(txt.contains("map(forall(j, ws += A(i,j) * x(j)), Spatial, Reduction)"));
        assert_eq!(eval_spmv(s.stmt()), reference);
    }

    #[test]
    fn accelerate_reduction_requires_precompute() {
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        assert!(matches!(
            s.accelerate_reduction("ws", PatternFn::Reduction),
            Err(CompileError::Schedule(_))
        ));
    }

    #[test]
    fn general_accelerate_vecmul() {
        // The eq. (2)–(4) walkthrough: a(i) = b(i) * c(i) with everything
        // staged on-chip and the multiply mapped to a backend block.
        let mut p = ProgramBuilder::new("vecmul")
            .tensor("a", vec![8], Format::dense_vec())
            .tensor("b", vec![8], Format::dense_vec())
            .tensor("c", vec![8], Format::dense_vec())
            .expr("a(i) = b(i) * c(i)")
            .build()
            .unwrap();
        let mut s = Scheduler::new(&mut p);
        s.accelerate(
            "a",
            &["i"],
            Backend::Spatial,
            PatternFn::Custom("f_mul".into()),
            None,
        )
        .unwrap();
        let txt = s.stmt().to_string();
        assert!(txt.contains("a(i) = a_on(i)"));
        assert!(txt.contains("b_on(i) = b(i)"));
        assert!(txt.contains("c_on(i) = c(i)"));
        assert!(txt.contains("map("));
        // Semantics preserved.
        let mut ctx = EvalContext::new();
        ctx.add_tensor("b", DenseTensor::from_data(vec![8], vec![2.0; 8]));
        ctx.add_tensor("c", DenseTensor::from_data(vec![8], vec![3.0; 8]));
        ctx.add_tensor("a", DenseTensor::zeros(vec![8]));
        eval(s.stmt(), &mut ctx).unwrap();
        assert_eq!(ctx.tensor("a").unwrap().data(), &[6.0; 8]);
    }

    #[test]
    fn map_missing_target_errors() {
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        let bogus = Stmt::assign(Access::scalar("zz"), Expr::Literal(0.0));
        assert!(matches!(
            s.map(&bogus, Backend::Spatial, PatternFn::Reduction, None),
            Err(CompileError::Schedule(_))
        ));
    }

    #[test]
    fn schedule_lines_recorded_for_loc() {
        let mut p = spmv_program();
        let before = p.input_loc();
        let mut s = Scheduler::new(&mut p);
        s.environment("innerPar", 16).unwrap();
        s.precompute_reduction("ws").unwrap();
        drop(s);
        assert_eq!(p.input_loc(), before + 2);
    }

    #[test]
    fn chained_schedule_preserves_semantics() {
        let reference = reference_spmv();
        let mut p = spmv_program();
        let mut s = Scheduler::new(&mut p);
        s.environment("outerPar", 4).unwrap();
        s.split_up("i", "io", "ii", 2).unwrap();
        s.precompute_reduction("ws").unwrap();
        s.accelerate_reduction("ws", PatternFn::Reduction).unwrap();
        assert_eq!(eval_spmv(s.stmt()), reference);
    }
}
