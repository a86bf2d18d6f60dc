//! The user-facing program API (the paper's Fig. 5 input code).
//!
//! A [`Program`] bundles a tensor algebra expression with its tensor
//! declarations: dimension sizes and [`Format`]s, which carry the new
//! on-/off-chip [`stardust_tensor::MemoryRegion`] property of §5.1. The
//! builder records the logical "input lines of code" that Table 3 counts
//! (formats + algorithm + schedule + output statement).

use std::collections::BTreeMap;

use stardust_ir::{parse_assignment, Assignment, Stmt};
use stardust_tensor::Format;

use crate::error::CompileError;

/// A declared tensor: name, dimension sizes, and format (with memory
/// region). Rank-0 scalars have an empty `dims`.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorDecl {
    /// Tensor name as used in the expression.
    pub name: String,
    /// Dimension sizes (empty for scalars).
    pub dims: Vec<usize>,
    /// Storage format; its rank must match `dims` (scalars use a rank-1
    /// dense format by convention).
    pub format: Format,
}

impl TensorDecl {
    /// Creates a declaration.
    pub fn new(name: impl Into<String>, dims: Vec<usize>, format: Format) -> Self {
        TensorDecl {
            name: name.into(),
            dims,
            format,
        }
    }

    /// Returns `true` for rank-0 scalars.
    pub fn is_scalar(&self) -> bool {
        self.dims.is_empty()
    }

    /// Total dense size (product of dims; 1 for scalars).
    pub fn dense_size(&self) -> usize {
        self.dims.iter().product()
    }
}

/// A complete Stardust input program: declarations plus one tensor algebra
/// assignment (multi-statement kernels are modeled as a sequence of
/// programs, as the paper does for Plus3's iterated two-input addition).
///
/// # Example
///
/// ```
/// use stardust_core::ProgramBuilder;
/// use stardust_tensor::Format;
///
/// let p = ProgramBuilder::new("spmv")
///     .tensor("A", vec![8, 8], Format::csr())
///     .tensor("x", vec![8], Format::dense_vec())
///     .tensor("y", vec![8], Format::dense_vec())
///     .expr("y(i) = A(i,j) * x(j)")
///     .build()
///     .unwrap();
/// assert_eq!(p.name(), "spmv");
/// assert_eq!(p.decl("A").unwrap().dims, vec![8, 8]);
/// assert_eq!(p.input_loc(), 5); // 3 tensors + 1 expression + 1 compile
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    decls: BTreeMap<String, TensorDecl>,
    assignment: Assignment,
    input_lines: Vec<String>,
}

impl Program {
    /// Program (kernel) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up a tensor declaration.
    pub fn decl(&self, name: &str) -> Option<&TensorDecl> {
        self.decls.get(name)
    }

    /// All declarations, ordered by name.
    pub fn decls(&self) -> impl Iterator<Item = &TensorDecl> {
        self.decls.values()
    }

    /// Adds a declaration (used by scheduling commands that introduce
    /// workspaces).
    pub fn add_decl(&mut self, decl: TensorDecl) {
        self.decls.insert(decl.name.clone(), decl);
    }

    /// The tensor algebra assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The canonical (unscheduled) CIN statement.
    pub fn canonical_cin(&self) -> Stmt {
        Stmt::from_assignment(&self.assignment)
    }

    /// The output tensor's name.
    pub fn output(&self) -> &str {
        &self.assignment.lhs.tensor
    }

    /// The recorded input source lines (formats, algorithm, schedule).
    pub fn input_lines(&self) -> &[String] {
        &self.input_lines
    }

    /// Records an extra input line (scheduling commands call this so the
    /// Table 3 "input LoC" count reflects the schedule).
    pub fn note_input_line(&mut self, line: impl Into<String>) {
        self.input_lines.push(line.into());
    }

    /// Input lines of code as counted in Table 3: declarations, the
    /// algorithm, scheduling commands, and the final compile/output call.
    pub fn input_loc(&self) -> usize {
        self.input_lines.len() + 1 // +1 for the compile/output statement
    }

    /// Validates that every tensor in the expression is declared with a
    /// rank matching its access.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::UndeclaredTensor`] or
    /// [`CompileError::Schedule`] on rank mismatch.
    pub fn validate(&self) -> Result<(), CompileError> {
        let mut accesses = vec![self.assignment.lhs.clone()];
        accesses.extend(self.assignment.rhs.accesses().into_iter().cloned());
        for a in accesses {
            let decl = self
                .decls
                .get(&a.tensor)
                .ok_or_else(|| CompileError::UndeclaredTensor(a.tensor.clone()))?;
            let expected = if decl.is_scalar() { 0 } else { decl.dims.len() };
            if a.indices.len() != expected {
                return Err(CompileError::Schedule(format!(
                    "access {a} has rank {} but {} is declared with rank {expected}",
                    a.indices.len(),
                    a.tensor
                )));
            }
        }
        Ok(())
    }
}

/// Builder for [`Program`]s (the Fig. 5 input listing, line by line).
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    decls: BTreeMap<String, TensorDecl>,
    expr: Option<String>,
    input_lines: Vec<String>,
}

impl ProgramBuilder {
    /// Starts a program with the given kernel name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            decls: BTreeMap::new(),
            expr: None,
            input_lines: Vec::new(),
        }
    }

    /// Declares a tensor.
    pub fn tensor(mut self, name: &str, dims: Vec<usize>, format: Format) -> Self {
        self.input_lines
            .push(format!("Tensor<T> {name}({dims:?}, {format});"));
        self.decls
            .insert(name.to_string(), TensorDecl::new(name, dims, format));
        self
    }

    /// Declares a scalar (rank-0) tensor.
    pub fn scalar(mut self, name: &str) -> Self {
        self.input_lines.push(format!("Tensor<T> {name};"));
        self.decls.insert(
            name.to_string(),
            TensorDecl::new(name, vec![], Format::dense_vec()),
        );
        self
    }

    /// Sets the tensor algebra expression (index notation source).
    pub fn expr(mut self, source: &str) -> Self {
        self.input_lines.push(format!("{source};"));
        self.expr = Some(source.to_string());
        self
    }

    /// Builds the program.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the expression is missing, fails to
    /// parse, or references undeclared tensors.
    pub fn build(self) -> Result<Program, CompileError> {
        let source = self
            .expr
            .ok_or_else(|| CompileError::Schedule("program has no expression".into()))?;
        let (assignment, _) = parse_assignment(&source)?;
        let program = Program {
            name: self.name,
            decls: self.decls,
            assignment,
            input_lines: self.input_lines,
        };
        program.validate()?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stardust_tensor::MemoryRegion;

    fn spmv() -> Program {
        ProgramBuilder::new("spmv")
            .tensor("A", vec![4, 4], Format::csr())
            .tensor("x", vec![4], Format::dense_vec())
            .tensor("y", vec![4], Format::dense_vec())
            .expr("y(i) = A(i,j) * x(j)")
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_validates() {
        let p = spmv();
        assert_eq!(p.output(), "y");
        assert_eq!(p.decls().count(), 3);
        assert!(p.canonical_cin().to_string().contains("forall"));
    }

    #[test]
    fn missing_expression_rejected() {
        let r = ProgramBuilder::new("x")
            .tensor("A", vec![2], Format::dense_vec())
            .build();
        assert!(matches!(r, Err(CompileError::Schedule(_))));
    }

    #[test]
    fn undeclared_tensor_rejected() {
        let r = ProgramBuilder::new("x")
            .tensor("y", vec![2], Format::dense_vec())
            .expr("y(i) = q(i)")
            .build();
        assert!(matches!(r, Err(CompileError::UndeclaredTensor(t)) if t == "q"));
    }

    #[test]
    fn rank_mismatch_rejected() {
        let r = ProgramBuilder::new("x")
            .tensor("A", vec![2, 2], Format::csr())
            .tensor("y", vec![2], Format::dense_vec())
            .expr("y(i) = A(i)")
            .build();
        assert!(matches!(r, Err(CompileError::Schedule(_))));
    }

    #[test]
    fn scalars_have_rank_zero_access() {
        let p = ProgramBuilder::new("scale")
            .scalar("alpha")
            .tensor("x", vec![4], Format::dense_vec())
            .tensor("y", vec![4], Format::dense_vec())
            .expr("y(i) = alpha * x(i)")
            .build()
            .unwrap();
        assert!(p.decl("alpha").unwrap().is_scalar());
    }

    #[test]
    fn input_loc_counts_lines() {
        let mut p = spmv();
        let base = p.input_loc();
        p.note_input_line("stmt = stmt.environment(innerPar, 16);");
        assert_eq!(p.input_loc(), base + 1);
    }

    #[test]
    fn on_chip_region_preserved() {
        let p = ProgramBuilder::new("t")
            .tensor(
                "w",
                vec![4],
                Format::dense_vec().with_region(MemoryRegion::OnChip),
            )
            .tensor("y", vec![4], Format::dense_vec())
            .expr("y(i) = w(i)")
            .build()
            .unwrap();
        assert!(p.decl("w").unwrap().format.region().is_on_chip());
    }
}
