//! Atomic qualifier-constraint solving for *A Theory of Type Qualifiers*
//! (PLDI 1999), §3.1–§3.2.
//!
//! After structural decomposition of subtype constraints (done by the
//! client type systems in `qual-lambda` and `qual-constinfer`), what
//! remains are *atomic* constraints over the qualifier lattice:
//!
//! ```text
//! κ ⊑ L      (variable bounded above by a lattice constant)
//! L ⊑ κ      (variable bounded below)
//! κ₁ ⊑ κ₂    (variable flows into variable)
//! L₁ ⊑ L₂    (immediately checkable)
//! ```
//!
//! This is an atomic subtyping system solvable in linear time for a fixed
//! set of qualifiers (Henglein–Rehof 1997); the paper's prototype used the
//! generic BANE engine and predicted "substantial speedups would be
//! achieved with a framework specialized to the qualifier lattice" — this
//! crate is that specialized engine.
//!
//! The solver computes both the **least** and the **greatest** solution of
//! a satisfiable system (the solution set of an atomic system is closed
//! under pointwise ⊔ and ⊓, so both exist). Together they classify each
//! variable the way §4.4 of the paper requires: a qualifier *must* be
//! present if it is present in the least solution, *cannot* be present if
//! absent from the greatest solution, and *may be either* otherwise.
//!
//! # Example
//!
//! ```
//! use qual_lattice::QualSpace;
//! use qual_solve::{ConstraintSet, Qual, VarSupply};
//!
//! let space = QualSpace::const_only();
//! let konst = space.id("const").unwrap();
//! let mut vars = VarSupply::new();
//! let (a, b) = (vars.fresh(), vars.fresh());
//!
//! let mut cs = ConstraintSet::new();
//! cs.add(Qual::Const(space.just(konst)), Qual::Var(a)); // const ⊑ a
//! cs.add(Qual::Var(a), Qual::Var(b));                   // a ⊑ b
//!
//! let sol = cs.solve(&space, &vars)?;
//! assert!(sol.least(b).has(&space, konst)); // const flowed into b
//! # Ok::<(), qual_solve::SolveError>(())
//! ```

mod constraint;
mod dense;
pub mod diag;
mod error;
pub mod explain;
mod scheme;
pub mod simplify;
mod solver;
mod term;
pub mod verify;
pub mod wire;

pub use constraint::{Constraint, ConstraintSet};
pub use diag::{sort_diagnostics, Diagnostic, Phase, Severity};
pub use error::{SolveError, SolveFailure, Violation};
pub use explain::{explain, Explanation};
pub use scheme::{Scheme, WindowScheme};
pub use simplify::{compact, Compacted};
pub use solver::Solution;
pub use term::{Provenance, QVar, Qual, VarSupply};
pub use verify::{verify_explanation, verify_solution, Assignment, CertificateError};
