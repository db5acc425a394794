//! Boolean prerequisite-condition engine for CourseNavigator.
//!
//! The paper (§2) models each course's prerequisite condition `Q_i` as a
//! boolean expression over variables `x_j` that are true when course `c_j`
//! has been completed:
//!
//! ```text
//! Q_i = (x_j ∧ … ∧ x_k) ∨ … ∨ (x_m ∧ … ∧ x_n)
//! ```
//!
//! This crate implements that algebra generically over an atom type, so the
//! same engine also expresses *goal requirements* ("complete all of
//! {11A, 21A, 29A}") and degree-rule fragments. It provides:
//!
//! - [`Expr`]: the expression AST (`True`/`False`/atoms/conjunction/
//!   disjunction), with evaluation against any membership oracle;
//! - [`Expr::to_dnf`]: conversion to disjunctive normal form with
//!   absorption-based minimization, matching the paper's `Q_i` shape;
//! - [`minsat`]: minimum-cardinality satisfaction costs, the building block
//!   for the time-based pruning bound `left_i` (§4.2.1);
//! - [`parser`]: a registrar-style text parser (`"11A and (21A or 29A)"`)
//!   that resolves atom names through a caller-supplied resolver.
//!
//! Atoms only need `Clone + Ord`; CourseNavigator instantiates the engine
//! with its interned `CourseId`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dnf;
pub mod expr;
pub mod minsat;
pub mod parser;

pub use dnf::Dnf;
pub use expr::Expr;
pub use minsat::{min_extra_to_satisfy, MinSat};
pub use parser::{parse_expr, ParseError};
