//! Structural validation of Spatial programs.
//!
//! The paper stresses that incorrect memory analysis — "incompatible memory
//! allocations, late allocations, and missed data transfers — will cause
//! hardware simulation errors or invalid kernel computations" (§6.1).
//! This pass catches such compiler bugs before simulation: every referenced
//! memory must be declared (in scope), loads/stores must connect compatible
//! memory kinds, scans must scan bit vectors, and parallelization factors
//! must be positive.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::ir::{Counter, MemKind, SExpr, SpatialProgram, SpatialStmt};

/// A validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A memory was referenced before any (in-scope) declaration.
    UndeclaredMemory(String),
    /// A memory was used with an incompatible kind (e.g. `Deq` of an SRAM).
    KindMismatch {
        /// Memory name.
        mem: String,
        /// What the operation expected.
        expected: &'static str,
        /// The declared kind.
        found: MemKind,
    },
    /// A duplicate DRAM declaration.
    DuplicateDram(String),
    /// A parallelization factor of zero.
    ZeroPar,
    /// A loop step that is not positive.
    BadStep(i64),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UndeclaredMemory(m) => write!(f, "memory {m} used before declaration"),
            ValidationError::KindMismatch {
                mem,
                expected,
                found,
            } => write!(f, "memory {mem}: expected {expected}, declared as {found}"),
            ValidationError::DuplicateDram(m) => write!(f, "duplicate DRAM declaration {m}"),
            ValidationError::ZeroPar => write!(f, "parallelization factor must be positive"),
            ValidationError::BadStep(s) => write!(f, "loop step must be positive, got {s}"),
        }
    }
}

impl Error for ValidationError {}

/// Validates the program's structure.
///
/// # Errors
///
/// Returns the first [`ValidationError`] found.
pub fn validate(p: &SpatialProgram) -> Result<(), ValidationError> {
    let mut scope: HashMap<String, MemKind> = HashMap::new();
    for d in &p.drams {
        if scope.insert(d.name.clone(), d.kind).is_some() {
            return Err(ValidationError::DuplicateDram(d.name.clone()));
        }
    }
    validate_block(&p.accel, &mut scope)
}

fn validate_block(
    stmts: &[SpatialStmt],
    scope: &mut HashMap<String, MemKind>,
) -> Result<(), ValidationError> {
    // Allocations made in this block are dropped when it ends.
    let mut added: Vec<String> = Vec::new();
    let result = (|| {
        for s in stmts {
            validate_stmt(s, scope, &mut added)?;
        }
        Ok(())
    })();
    for name in added {
        scope.remove(&name);
    }
    result
}

fn expect_kind(
    scope: &HashMap<String, MemKind>,
    mem: &str,
    ok: &[MemKind],
    expected: &'static str,
) -> Result<(), ValidationError> {
    match scope.get(mem) {
        None => Err(ValidationError::UndeclaredMemory(mem.to_string())),
        Some(k) if ok.contains(k) => Ok(()),
        Some(k) => Err(ValidationError::KindMismatch {
            mem: mem.to_string(),
            expected,
            found: *k,
        }),
    }
}

fn validate_expr(e: &SExpr, scope: &HashMap<String, MemKind>) -> Result<(), ValidationError> {
    match e {
        SExpr::Var(_) | SExpr::Const(_) => Ok(()),
        SExpr::RegRead(r) => expect_kind(scope, r, &[MemKind::Reg], "register"),
        SExpr::Deq(f) => expect_kind(scope, f, &[MemKind::Fifo], "FIFO"),
        SExpr::ReadMem { mem, index, .. } => {
            expect_kind(
                scope,
                mem,
                &[
                    MemKind::Sram,
                    MemKind::SparseSram,
                    MemKind::Dram,
                    MemKind::SparseDram,
                ],
                "readable memory",
            )?;
            validate_expr(index, scope)
        }
        SExpr::Neg(inner) => validate_expr(inner, scope),
        SExpr::Binary { lhs, rhs, .. } => {
            validate_expr(lhs, scope)?;
            validate_expr(rhs, scope)
        }
        SExpr::Select {
            cond,
            if_true,
            if_false,
        } => {
            validate_expr(cond, scope)?;
            validate_expr(if_true, scope)?;
            validate_expr(if_false, scope)
        }
    }
}

fn validate_counter(c: &Counter, scope: &HashMap<String, MemKind>) -> Result<(), ValidationError> {
    match c {
        Counter::Range { min, max, step, .. } => {
            if *step <= 0 {
                return Err(ValidationError::BadStep(*step));
            }
            validate_expr(min, scope)?;
            validate_expr(max, scope)
        }
        Counter::Scan2 { bv_a, bv_b, .. } => {
            expect_kind(scope, bv_a, &[MemKind::BitVector], "bit vector")?;
            expect_kind(scope, bv_b, &[MemKind::BitVector], "bit vector")
        }
    }
}

fn validate_stmt(
    s: &SpatialStmt,
    scope: &mut HashMap<String, MemKind>,
    added: &mut Vec<String>,
) -> Result<(), ValidationError> {
    match s {
        SpatialStmt::Comment(_) => Ok(()),
        SpatialStmt::Alloc(d) => {
            scope.insert(d.name.clone(), d.kind);
            added.push(d.name.clone());
            Ok(())
        }
        SpatialStmt::Bind { value, .. } => validate_expr(value, scope),
        SpatialStmt::Load {
            dst,
            src,
            start,
            end,
            par,
        } => {
            if *par == 0 {
                return Err(ValidationError::ZeroPar);
            }
            expect_kind(
                scope,
                src,
                &[MemKind::Dram, MemKind::SparseDram],
                "DRAM source",
            )?;
            expect_kind(
                scope,
                dst,
                &[MemKind::Sram, MemKind::SparseSram, MemKind::Fifo],
                "on-chip destination",
            )?;
            validate_expr(start, scope)?;
            validate_expr(end, scope)
        }
        SpatialStmt::Store {
            dst,
            offset,
            src,
            len,
            par,
        } => {
            if *par == 0 {
                return Err(ValidationError::ZeroPar);
            }
            expect_kind(scope, dst, &[MemKind::Dram], "DRAM destination")?;
            expect_kind(
                scope,
                src,
                &[MemKind::Sram, MemKind::SparseSram],
                "SRAM source",
            )?;
            validate_expr(offset, scope)?;
            validate_expr(len, scope)
        }
        SpatialStmt::StreamStore {
            dst,
            offset,
            fifo,
            len,
        } => {
            expect_kind(scope, dst, &[MemKind::Dram], "DRAM destination")?;
            expect_kind(scope, fifo, &[MemKind::Fifo], "FIFO source")?;
            validate_expr(offset, scope)?;
            validate_expr(len, scope)
        }
        SpatialStmt::StoreScalar { dst, index, value } => {
            expect_kind(
                scope,
                dst,
                &[MemKind::Dram, MemKind::SparseDram],
                "DRAM destination",
            )?;
            validate_expr(index, scope)?;
            validate_expr(value, scope)
        }
        SpatialStmt::WriteMem {
            mem, index, value, ..
        }
        | SpatialStmt::RmwAdd { mem, index, value } => {
            expect_kind(
                scope,
                mem,
                &[MemKind::Sram, MemKind::SparseSram],
                "on-chip memory",
            )?;
            validate_expr(index, scope)?;
            validate_expr(value, scope)
        }
        SpatialStmt::SetReg { reg, value } => {
            expect_kind(scope, reg, &[MemKind::Reg], "register")?;
            validate_expr(value, scope)
        }
        SpatialStmt::Enq { fifo, value } => {
            expect_kind(scope, fifo, &[MemKind::Fifo], "FIFO")?;
            validate_expr(value, scope)
        }
        SpatialStmt::GenBitVector {
            dst,
            src,
            src_start,
            count,
            dim,
        } => {
            expect_kind(scope, dst, &[MemKind::BitVector], "bit vector")?;
            expect_kind(
                scope,
                src,
                &[MemKind::Fifo, MemKind::Sram, MemKind::SparseSram],
                "coordinate source",
            )?;
            validate_expr(src_start, scope)?;
            validate_expr(count, scope)?;
            validate_expr(dim, scope)
        }
        SpatialStmt::Foreach {
            counter, par, body, ..
        } => {
            if *par == 0 {
                return Err(ValidationError::ZeroPar);
            }
            validate_counter(counter, scope)?;
            validate_block(body, scope)
        }
        SpatialStmt::Reduce {
            reg,
            counter,
            par,
            body,
            expr,
            ..
        } => {
            if *par == 0 {
                return Err(ValidationError::ZeroPar);
            }
            expect_kind(scope, reg, &[MemKind::Reg], "register")?;
            validate_counter(counter, scope)?;
            // Body allocations stay visible for the reduce expression.
            let mut inner_added = Vec::new();
            for b in body {
                validate_stmt(b, scope, &mut inner_added)?;
            }
            let result = validate_expr(expr, scope);
            for name in inner_added {
                scope.remove(&name);
            }
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{MemDecl, SExpr, ScanOp};

    #[test]
    fn accepts_wellformed() {
        let mut p = SpatialProgram::new("ok");
        p.add_dram("d", 8);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 8)));
        p.accel.push(SpatialStmt::Load {
            dst: "s".into(),
            src: "d".into(),
            start: SExpr::Const(0.0),
            end: SExpr::Const(8.0),
            par: 4,
        });
        assert!(validate(&p).is_ok());
    }

    #[test]
    fn rejects_undeclared_memory() {
        let mut p = SpatialProgram::new("bad");
        p.accel.push(SpatialStmt::Enq {
            fifo: "ghost".into(),
            value: SExpr::Const(0.0),
        });
        assert_eq!(
            validate(&p),
            Err(ValidationError::UndeclaredMemory("ghost".into()))
        );
    }

    #[test]
    fn rejects_kind_mismatch() {
        let mut p = SpatialProgram::new("bad");
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 8)));
        p.accel.push(SpatialStmt::Enq {
            fifo: "s".into(),
            value: SExpr::Const(0.0),
        });
        assert!(matches!(
            validate(&p),
            Err(ValidationError::KindMismatch { .. })
        ));
    }

    #[test]
    fn rejects_scan_of_non_bitvector() {
        // Either side of the scan may be the SRAM.
        for (a, b) in [("s", "bv"), ("bv", "s")] {
            let mut p = SpatialProgram::new("bad");
            p.accel
                .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 8)));
            p.accel.push(SpatialStmt::Alloc(MemDecl::new(
                "bv",
                MemKind::BitVector,
                8,
            )));
            p.accel.push(SpatialStmt::Foreach {
                id: 0,
                counter: Counter::Scan2 {
                    op: ScanOp::Or,
                    bv_a: a.into(),
                    bv_b: b.into(),
                    a_pos_var: "p".into(),
                    b_pos_var: "q".into(),
                    out_pos_var: "o".into(),
                    idx_var: "i".into(),
                },
                par: 1,
                body: vec![],
            });
            assert!(matches!(
                validate(&p),
                Err(ValidationError::KindMismatch { .. })
            ));
        }
    }

    #[test]
    fn rejects_zero_par_and_bad_step() {
        let mut p = SpatialProgram::new("bad");
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(4.0)),
            par: 0,
            body: vec![],
        });
        assert_eq!(validate(&p), Err(ValidationError::ZeroPar));

        let mut p2 = SpatialProgram::new("bad2");
        p2.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Range {
                var: "i".into(),
                min: SExpr::Const(0.0),
                max: SExpr::Const(4.0),
                step: 0,
            },
            par: 1,
            body: vec![],
        });
        assert_eq!(validate(&p2), Err(ValidationError::BadStep(0)));
    }

    #[test]
    fn scoping_ends_with_block() {
        // An SRAM allocated inside a Foreach is not visible after it.
        let mut p = SpatialProgram::new("scope");
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(2.0)),
            par: 1,
            body: vec![SpatialStmt::Alloc(MemDecl::new("tmp", MemKind::Sram, 4))],
        });
        p.accel.push(SpatialStmt::WriteMem {
            mem: "tmp".into(),
            index: SExpr::Const(0.0),
            value: SExpr::Const(1.0),
            random: false,
        });
        assert_eq!(
            validate(&p),
            Err(ValidationError::UndeclaredMemory("tmp".into()))
        );
    }

    #[test]
    fn duplicate_dram_rejected() {
        let mut p = SpatialProgram::new("dup");
        p.add_dram("d", 4);
        p.add_dram("d", 8);
        assert_eq!(
            validate(&p),
            Err(ValidationError::DuplicateDram("d".into()))
        );
    }

    #[test]
    fn reduce_body_bindings_visible_in_expr() {
        let mut p = SpatialProgram::new("r");
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 8)));
        p.accel.push(SpatialStmt::Reduce {
            id: 0,
            reg: "acc".into(),
            counter: Counter::range_to("j", SExpr::Const(4.0)),
            par: 1,
            body: vec![SpatialStmt::Bind {
                var: "v".into(),
                value: SExpr::Deq("f".into()),
            }],
            expr: SExpr::var("v"),
        });
        assert!(validate(&p).is_ok());
    }
}
