//! Atomic constraint sets: `C ::= {Q₁ ⊑ Q₂} | C₁ ∪ C₂` after structural
//! decomposition (§3.1 of the paper).

use std::fmt;
use std::ops::Range;

use qual_lattice::QualSpace;

use crate::error::{SolveError, SolveFailure};
use crate::solver::{self, Solution};
use crate::term::{Provenance, QVar, Qual, VarSupply};

/// One atomic constraint `lhs ⊑ rhs` with its provenance.
///
/// The optional `mask` restricts the constraint to a subset of qualifier
/// coordinates: with canonical mask bits `m`, the constraint means
/// `lhs ⊓ m ⊑ rhs ⊔ ¬m` — i.e. only the coordinates in `m` are related.
/// Masked constraints keep per-qualifier rules (like `const`'s
/// (Assign′) or binding-time well-formedness) from accidentally
/// constraining unrelated qualifiers declared in the same space. The full
/// mask (`u64::MAX`) is the ordinary constraint of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Lower side.
    pub lhs: Qual,
    /// Upper side.
    pub rhs: Qual,
    /// Canonical bits of the coordinates this constraint relates.
    pub mask: u64,
    /// Why the constraint exists.
    pub origin: Provenance,
}

impl Constraint {
    /// Renders the constraint using `space` to name constants.
    #[must_use]
    pub fn render(&self, space: &QualSpace) -> String {
        format!("{} ⊑ {}", self.lhs.render(space), self.rhs.render(space))
    }
}

/// A set of atomic constraints over one qualifier lattice.
///
/// The set is kept as an insertion-ordered vector; duplicates are
/// harmless to the solver and preserved so that provenance is not lost.
#[derive(Debug, Default, Clone)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Adds `lhs ⊑ rhs` with no source location.
    pub fn add(&mut self, lhs: impl Into<Qual>, rhs: impl Into<Qual>) {
        self.add_with(lhs, rhs, Provenance::synthetic("constraint"));
    }

    /// Adds `lhs ⊑ rhs` recording where it came from.
    pub fn add_with(&mut self, lhs: impl Into<Qual>, rhs: impl Into<Qual>, origin: Provenance) {
        self.constraints.push(Constraint {
            lhs: lhs.into(),
            rhs: rhs.into(),
            mask: u64::MAX,
            origin,
        });
    }

    /// Adds `lhs ⊑ rhs` restricted to the coordinates of the qualifiers
    /// in `ids` (see [`Constraint::mask`]).
    pub fn add_masked(
        &mut self,
        lhs: impl Into<Qual>,
        rhs: impl Into<Qual>,
        ids: &[qual_lattice::QualId],
        origin: Provenance,
    ) {
        let mask = ids.iter().fold(0u64, |m, id| m | (1u64 << id.index()));
        self.constraints.push(Constraint {
            lhs: lhs.into(),
            rhs: rhs.into(),
            mask,
            origin,
        });
    }

    /// Adds the equality `a = b` as the two inequalities `a ⊑ b`, `b ⊑ a`
    /// (the paper's abbreviation `ρ = ρ′` ⇔ `{ρ ⊑ ρ′, ρ′ ⊑ ρ}`).
    pub fn add_eq(&mut self, a: impl Into<Qual>, b: impl Into<Qual>, origin: Provenance) {
        let (a, b) = (a.into(), b.into());
        self.add_with(a, b, origin);
        self.add_with(b, a, origin);
    }

    /// Appends every constraint of `other` (the `C₁ ∪ C₂` production).
    pub fn extend_from(&mut self, other: &ConstraintSet) {
        self.constraints.extend_from_slice(&other.constraints);
    }

    /// Appends, in order, what `f` makes of each constraint in the
    /// index range `window` of this same set, skipping those it maps to
    /// `None`. A [`crate::WindowScheme`] instantiates this way, re-reading
    /// its window in place instead of keeping a copy.
    ///
    /// # Panics
    ///
    /// If `window` reaches past the end of the set.
    pub(crate) fn extend_from_within(
        &mut self,
        window: Range<usize>,
        mut f: impl FnMut(&Constraint) -> Option<Constraint>,
    ) {
        for i in window {
            let c = self.constraints[i];
            self.constraints.extend(f(&c));
        }
    }

    /// The constraints, in insertion order.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Solves the system, returning least and greatest solutions.
    ///
    /// `vars` must be the supply that issued every variable mentioned in
    /// the set (its `count` sizes the solution tables).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] listing every unsatisfiable constraint.
    pub fn solve(&self, space: &QualSpace, vars: &VarSupply) -> Result<Solution, SolveError> {
        solver::solve(space, vars.count(), &self.constraints)
    }

    /// Like [`ConstraintSet::solve`] but gives up with
    /// [`SolveFailure::BudgetExceeded`] once the worklist has taken
    /// `max_steps` edge relaxations, so a pathological system becomes a
    /// structured diagnostic rather than an unbounded stall.
    ///
    /// # Errors
    ///
    /// Returns [`SolveFailure::Unsat`] when no assignment exists and
    /// [`SolveFailure::BudgetExceeded`] when the cap is hit first.
    pub fn solve_with_budget(
        &self,
        space: &QualSpace,
        vars: &VarSupply,
        max_steps: u64,
    ) -> Result<Solution, SolveFailure> {
        solver::solve_budgeted(space, vars.count(), &self.constraints, max_steps)
    }

    /// Solves on the retained reference path (the original sparse
    /// worklist solver) instead of the dense one. Exists solely as the
    /// oracle side of the dense-vs-reference differential suite; the
    /// two must agree byte for byte on every input.
    ///
    /// # Errors
    ///
    /// Same contract as [`ConstraintSet::solve_with_budget`].
    pub fn solve_with_budget_reference(
        &self,
        space: &QualSpace,
        vars: &VarSupply,
        max_steps: u64,
    ) -> Result<Solution, SolveFailure> {
        solver::solve_budgeted_reference(space, vars.count(), &self.constraints, max_steps)
    }

    /// Drops every constraint after the first `len` — the rollback half
    /// of a mark/rollback pair, used to discard constraints emitted by
    /// an analysis that failed partway.
    pub fn truncate(&mut self, len: usize) {
        self.constraints.truncate(len);
    }

    /// Like [`ConstraintSet::solve`] but sized by an explicit variable
    /// count (useful when the supply itself is not at hand).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] listing every unsatisfiable constraint.
    pub fn solve_with_count(
        &self,
        space: &QualSpace,
        var_count: usize,
    ) -> Result<Solution, SolveError> {
        solver::solve(space, var_count, &self.constraints)
    }

    /// Variables mentioned anywhere in the set, deduplicated, in first-use
    /// order.
    #[must_use]
    pub fn mentioned_vars(&self) -> Vec<QVar> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for c in &self.constraints {
            for q in [c.lhs, c.rhs] {
                if let Qual::Var(v) = q {
                    if seen.insert(v) {
                        out.push(v);
                    }
                }
            }
        }
        out
    }

    /// Renders the whole set, one constraint per line.
    #[must_use]
    pub fn render(&self, space: &QualSpace) -> String {
        let mut s = String::new();
        for c in &self.constraints {
            s.push_str(&c.render(space));
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} constraints", self.constraints.len())
    }
}

impl Extend<Constraint> for ConstraintSet {
    fn extend<T: IntoIterator<Item = Constraint>>(&mut self, iter: T) {
        self.constraints.extend(iter);
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = Constraint>>(iter: T) -> ConstraintSet {
        ConstraintSet {
            constraints: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qual_lattice::QualSpace;

    #[test]
    fn add_eq_produces_both_directions() {
        let mut cs = ConstraintSet::new();
        let mut vs = VarSupply::new();
        let (a, b) = (vs.fresh(), vs.fresh());
        cs.add_eq(a, b, Provenance::synthetic("eq"));
        assert_eq!(cs.len(), 2);
        assert_eq!(cs.constraints()[0].lhs, Qual::Var(a));
        assert_eq!(cs.constraints()[1].lhs, Qual::Var(b));
    }

    #[test]
    fn mentioned_vars_dedupes_in_order() {
        let mut cs = ConstraintSet::new();
        let mut vs = VarSupply::new();
        let (a, b, c) = (vs.fresh(), vs.fresh(), vs.fresh());
        cs.add(b, a);
        cs.add(a, c);
        cs.add(b, c);
        assert_eq!(cs.mentioned_vars(), vec![b, a, c]);
    }

    #[test]
    fn render_is_readable() {
        let space = QualSpace::const_only();
        let mut cs = ConstraintSet::new();
        let mut vs = VarSupply::new();
        let a = vs.fresh();
        cs.add(space.top(), a);
        assert_eq!(cs.render(&space), "const ⊑ κ0\n");
    }

    #[test]
    fn solve_with_budget_reports_exhaustion() {
        let space = QualSpace::const_only();
        let mut vs = VarSupply::new();
        let vars: Vec<_> = (0..64).map(|_| vs.fresh()).collect();
        let mut cs = ConstraintSet::new();
        cs.add(space.top(), vars[0]);
        for w in vars.windows(2) {
            cs.add(w[0], w[1]);
        }
        // Generous budget: solves fine.
        let sol = cs.solve_with_budget(&space, &vs, 1_000_000).unwrap();
        assert_eq!(sol.least(vars[63]), space.top());
        // Starved budget: structured failure, not a wrong answer.
        match cs.solve_with_budget(&space, &vs, 3) {
            Err(SolveFailure::BudgetExceeded { steps, limit: 3 }) => assert!(steps <= 3),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn truncate_rolls_back_to_mark() {
        let space = QualSpace::const_only();
        let mut vs = VarSupply::new();
        let a = vs.fresh();
        let mut cs = ConstraintSet::new();
        cs.add(space.top(), a);
        let mark = cs.len();
        cs.add(a, space.bottom()); // would be unsatisfiable
        assert!(cs.solve(&space, &vs).is_err());
        cs.truncate(mark);
        assert!(cs.solve(&space, &vs).is_ok());
    }

    #[test]
    fn extend_from_unions() {
        let mut vs = VarSupply::new();
        let a = vs.fresh();
        let mut c1 = ConstraintSet::new();
        c1.add(a, a);
        let mut c2 = ConstraintSet::new();
        c2.add(a, a);
        c2.extend_from(&c1);
        assert_eq!(c2.len(), 2);
    }
}
