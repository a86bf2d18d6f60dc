//! Index notation and concrete index notation (CIN) for Stardust.
//!
//! This crate implements the intermediate representations the Stardust
//! compiler operates on (paper §2–§3, Fig. 2):
//!
//! - **Tensor index notation** ([`expr`]): accesses `T(i, j)`, scalar
//!   expressions over `+`, `-`, `*`, and assignments `a = e` / `a += e`,
//!   with a small text [`parse`]r for the familiar
//!   `"A(i,j) = B(i,j) * C(i,k) * D(k,j)"` syntax.
//! - **Concrete index notation** ([`cin`]): the statement language
//!   `∀i S | a = e | a += e | S; S | S where S | S s.t. r*` of Kjolstad et
//!   al. (CGO 2019), extended with the paper's `map` nodes that bind
//!   sub-statements to backend patterns (§5.2, Table 2).
//! - **Scheduling relations** ([`relations`]): `split_up`, `split_down`,
//!   `fuse`, and environment bindings, which `s.t.` nodes carry so that
//!   derived index variables remain recoverable.
//! - **A CIN evaluator** ([`eval`](mod@eval)): executable semantics for any
//!   (scheduled) CIN statement against real tensors. Every compiler
//!   transformation in the workspace is tested against this oracle.

pub mod cin;
pub mod error;
pub mod eval;
pub mod expr;
pub mod parse;
pub mod relations;

pub use cin::{AssignOp, Backend, PatternFn, Stmt};
pub use error::IrError;
pub use eval::{eval, EvalContext};
pub use expr::{Access, Assignment, BinOp, Expr, IndexVar};
pub use parse::parse_assignment;
pub use relations::{IndexSpace, Relation};
