//! The atomic-subtyping solver: least and greatest solutions by worklist
//! propagation over the constraint graph.
//!
//! For a fixed qualifier set the lattice has constant height, so the
//! worklist pass is linear in the number of constraints — the complexity
//! the paper cites from Henglein–Rehof 1997.

use qual_lattice::{QualSet, QualSpace};

use crate::constraint::Constraint;
use crate::error::{SolveError, SolveFailure, Violation};
use crate::term::{QVar, Qual};

/// The result of solving a satisfiable constraint set.
///
/// Holds the pointwise **least** and **greatest** satisfying assignments.
/// Any variable not mentioned by any constraint is unconstrained: its
/// least value is `⊥` and its greatest is `⊤`.
#[derive(Debug, Clone)]
pub struct Solution {
    least: Vec<QualSet>,
    greatest: Vec<QualSet>,
}

impl Solution {
    /// The least satisfying value of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was issued after the solve (index out of range).
    #[must_use]
    pub fn least(&self, v: QVar) -> QualSet {
        self.least[v.index()]
    }

    /// The greatest satisfying value of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was issued after the solve (index out of range).
    #[must_use]
    pub fn greatest(&self, v: QVar) -> QualSet {
        self.greatest[v.index()]
    }

    /// Evaluates a term under the least solution.
    #[must_use]
    pub fn eval_least(&self, q: Qual) -> QualSet {
        match q {
            Qual::Var(v) => self.least(v),
            Qual::Const(c) => c,
        }
    }

    /// Evaluates a term under the greatest solution.
    #[must_use]
    pub fn eval_greatest(&self, q: Qual) -> QualSet {
        match q {
            Qual::Var(v) => self.greatest(v),
            Qual::Const(c) => c,
        }
    }

    /// Whether `v` is completely unconstrained (`⊥` below, `⊤` above).
    #[must_use]
    pub fn is_unconstrained(&self, space: &QualSpace, v: QVar) -> bool {
        self.least(v) == space.bottom() && self.greatest(v) == space.top()
    }

    /// Number of variables covered.
    #[must_use]
    pub fn var_count(&self) -> usize {
        self.least.len()
    }

    /// Builds a *claimed* solution from raw least/greatest tables, one
    /// entry per variable in index order — e.g. a deserialized witness,
    /// or a deliberately corrupted one — for
    /// [`crate::verify::verify_solution`] to check. Nothing is validated
    /// here; that is the checker's job.
    ///
    /// # Panics
    ///
    /// Panics if the two tables disagree on the variable count.
    #[must_use]
    pub fn from_parts(least: Vec<QualSet>, greatest: Vec<QualSet>) -> Solution {
        assert_eq!(
            least.len(),
            greatest.len(),
            "least/greatest tables must cover the same variables"
        );
        Solution { least, greatest }
    }
}

/// Solves `constraints` over `space` for `var_count` variables on the
/// dense hot path (see [`crate::dense`]).
pub(crate) fn solve(
    space: &QualSpace,
    var_count: usize,
    constraints: &[Constraint],
) -> Result<Solution, SolveError> {
    match solve_budgeted(space, var_count, constraints, u64::MAX) {
        Ok(s) => Ok(s),
        Err(SolveFailure::Unsat(e)) => Err(e),
        Err(SolveFailure::BudgetExceeded { .. }) => {
            unreachable!("u64::MAX budget cannot be exhausted")
        }
        Err(SolveFailure::Cancelled { .. }) => {
            unreachable!("unbudgeted solves are uncancellable")
        }
    }
}

/// Like [`solve`], but gives up with [`SolveFailure::BudgetExceeded`]
/// once `max_steps` units of work are spent, turning pathological
/// constraint graphs into a structured diagnostic instead of an
/// unbounded stall.
pub(crate) fn solve_budgeted(
    space: &QualSpace,
    var_count: usize,
    constraints: &[Constraint],
    max_steps: u64,
) -> Result<Solution, SolveFailure> {
    crate::dense::solve_budgeted(space, var_count, constraints, max_steps)
}

/// The retained reference solver: the original sparse worklist pass,
/// kept verbatim as the oracle the dense path is differentially tested
/// against (`tests/dense_differential.rs`) and as an executable spec of
/// the observable behavior — solution tables, violation order, budget
/// and cancellation semantics.
pub(crate) fn solve_budgeted_reference(
    space: &QualSpace,
    var_count: usize,
    constraints: &[Constraint],
    max_steps: u64,
) -> Result<Solution, SolveFailure> {
    let _span = qual_obs::span("solve-propagate");
    qual_obs::peak("solve.vars", var_count as u64);
    qual_obs::peak("solve.coords", space.len() as u64);
    // Adjacency with per-edge masks: fwd[v] = (w, m) pairs with
    // `v ⊓ m ⊑ w ⊔ ¬m`; bwd is the reverse.
    let top = space.top().bits();
    let mut fwd: Vec<Vec<(u32, u64)>> = vec![Vec::new(); var_count];
    let mut bwd: Vec<Vec<(u32, u64)>> = vec![Vec::new(); var_count];
    let mut least = vec![space.bottom(); var_count];
    let mut greatest = vec![space.top(); var_count];
    let mut violations = Vec::new();

    for c in constraints {
        let m = c.mask & top;
        match (c.lhs, c.rhs) {
            (Qual::Const(l), Qual::Const(r)) => {
                if l.bits() & !r.bits() & m != 0 {
                    violations.push(Violation {
                        constraint: *c,
                        lower: l,
                        upper: r,
                    });
                }
            }
            (Qual::Const(l), Qual::Var(v)) => {
                let lv = &mut least[v.index()];
                *lv = QualSet::from_bits(lv.bits() | (l.bits() & m));
            }
            (Qual::Var(v), Qual::Const(r)) => {
                let gv = &mut greatest[v.index()];
                *gv = QualSet::from_bits(gv.bits() & (r.bits() | (top & !m)));
            }
            (Qual::Var(v), Qual::Var(w)) => {
                // `v ⊓ m ⊑ v ⊔ ¬m` always holds, so self-loops are inert.
                if v != w {
                    fwd[v.index()].push((w.0, m));
                    bwd[w.index()].push((v.0, m));
                }
            }
        }
    }

    // Least solution: propagate lower bounds forward to fixpoint; then
    // greatest by propagating upper bounds backward. Both passes share
    // one step budget. Budgeted solves are also *cancellable*: they
    // poll the calling thread's cooperative deadline
    // (`qual_faultpoint::cancel`) once per step batch, so a worker
    // whose wall clock expired mid-solve unwinds with a structured
    // failure instead of finishing a fixpoint nobody will use.
    // Unbudgeted (`u64::MAX`) solves never poll — they come from
    // deadline-free contexts and must stay infallible.
    let cancellable = max_steps != u64::MAX;
    let mut budget = max_steps;
    for (adj, val, dir) in [
        (&fwd, &mut least, PropagateDir::JoinForward),
        (&bwd, &mut greatest, PropagateDir::MeetBackward),
    ] {
        match propagate(top, adj, val, dir, &mut budget, cancellable) {
            Propagate::Converged => {}
            Propagate::OutOfBudget => {
                qual_obs::count("solve.steps", max_steps - budget);
                return Err(SolveFailure::BudgetExceeded {
                    steps: max_steps - budget,
                    limit: max_steps,
                });
            }
            Propagate::Cancelled => {
                qual_obs::count("solve.steps", max_steps - budget);
                return Err(SolveFailure::Cancelled {
                    steps: max_steps - budget,
                });
            }
        }
    }
    qual_obs::count("solve.steps", max_steps - budget);

    // Satisfiability: the least solution satisfies every `L ⊑ κ` and
    // `κ ⊑ κ′` constraint by construction, so the system is solvable iff
    // the least solution also respects every `κ ⊑ L` upper bound.
    // Checking exactly those constraints reports each conflict once, at
    // the constraint whose bound is exceeded.
    for c in constraints {
        if let (Qual::Var(v), Qual::Const(r)) = (c.lhs, c.rhs) {
            let lo = least[v.index()];
            if lo.bits() & !r.bits() & c.mask & top != 0 {
                violations.push(Violation {
                    constraint: *c,
                    lower: lo,
                    upper: r,
                });
            }
        }
    }

    if violations.is_empty() {
        Ok(Solution { least, greatest })
    } else {
        Err(SolveFailure::Unsat(SolveError { violations }))
    }
}

#[derive(Clone, Copy)]
enum PropagateDir {
    JoinForward,
    MeetBackward,
}

/// How one propagation pass ended.
enum Propagate {
    Converged,
    OutOfBudget,
    Cancelled,
}

/// Worklist fixpoint: for each edge `v -> (w, m)` in `adj`, enforce
/// `val[w] ⊒ val[v] ⊓ m` (join mode) or `val[w] ⊑ val[v] ⊔ ¬m` reading
/// `adj` as the reversed graph (meet mode). Each variable re-enters the
/// worklist only when its value strictly changes; the lattice has height
/// ≤ 64, so the total work is `O(height · edges)`.
///
/// Every edge relaxation spends one unit of `budget`; the pass ends
/// `OutOfBudget` (state unreliable) if the budget runs out, and
/// `Cancelled` if `cancellable` and the thread's cooperative deadline
/// fires (polled once per `CANCEL_BATCH` relaxations, so the poll cost
/// is amortized to nothing on the hot path).
fn propagate(
    top: u64,
    adj: &[Vec<(u32, u64)>],
    val: &mut [QualSet],
    dir: PropagateDir,
    budget: &mut u64,
    cancellable: bool,
) -> Propagate {
    const CANCEL_BATCH: u64 = 1024;
    let mut on_list = vec![true; val.len()];
    let mut work: Vec<u32> = (0..val.len() as u32).collect();
    let mut until_poll = CANCEL_BATCH;
    while let Some(v) = work.pop() {
        on_list[v as usize] = false;
        let from = val[v as usize].bits();
        for &(w, m) in &adj[v as usize] {
            if *budget == 0 {
                return Propagate::OutOfBudget;
            }
            *budget -= 1;
            if cancellable {
                until_poll -= 1;
                if until_poll == 0 {
                    until_poll = CANCEL_BATCH;
                    if qual_faultpoint::cancel::expired() {
                        return Propagate::Cancelled;
                    }
                }
            }
            let cur = val[w as usize].bits();
            let next = match dir {
                PropagateDir::JoinForward => cur | (from & m),
                PropagateDir::MeetBackward => cur & (from | (top & !m)),
            };
            if next != cur {
                val[w as usize] = QualSet::from_bits(next);
                if !on_list[w as usize] {
                    on_list[w as usize] = true;
                    work.push(w);
                }
            }
        }
    }
    Propagate::Converged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintSet;
    use crate::term::{Provenance, VarSupply};
    use qual_lattice::QualSpace;

    fn setup() -> (QualSpace, VarSupply, ConstraintSet) {
        (QualSpace::figure2(), VarSupply::new(), ConstraintSet::new())
    }

    #[test]
    fn unconstrained_vars_span_whole_lattice() {
        let (space, mut vs, cs) = setup();
        let a = vs.fresh();
        let sol = cs.solve(&space, &vs).unwrap();
        assert_eq!(sol.least(a), space.bottom());
        assert_eq!(sol.greatest(a), space.top());
        assert!(sol.is_unconstrained(&space, a));
    }

    #[test]
    fn lower_bounds_flow_forward() {
        let (space, mut vs, mut cs) = setup();
        let konst = space.parse_set("const").unwrap();
        let (a, b, c) = (vs.fresh(), vs.fresh(), vs.fresh());
        cs.add(konst, a);
        cs.add(a, b);
        cs.add(b, c);
        let sol = cs.solve(&space, &vs).unwrap();
        for v in [a, b, c] {
            assert!(space.le(konst, sol.least(v)));
        }
        // Nothing flows backward.
        assert_eq!(sol.greatest(a), space.top());
    }

    #[test]
    fn upper_bounds_flow_backward() {
        let (space, mut vs, mut cs) = setup();
        let nc = space.not_q(space.id("const").unwrap());
        let (a, b) = (vs.fresh(), vs.fresh());
        cs.add(a, b);
        cs.add(b, nc);
        let sol = cs.solve(&space, &vs).unwrap();
        assert!(space.le(sol.greatest(a), nc));
        assert!(space.le(sol.greatest(b), nc));
    }

    #[test]
    fn conflict_is_reported_with_provenance() {
        let (space, mut vs, mut cs) = setup();
        let konst = space.parse_set("const").unwrap();
        let nc = space.not_q(space.id("const").unwrap());
        let a = vs.fresh();
        cs.add_with(konst, a, Provenance::synthetic("annotation"));
        cs.add_with(a, nc, Provenance::at(5, 9, "assignment"));
        let err = cs.solve(&space, &vs).unwrap_err();
        assert_eq!(err.violations.len(), 1);
        let v = &err.violations[0];
        assert_eq!(v.constraint.origin.what, "assignment");
        let msg = err.to_string();
        assert!(msg.contains("assignment"), "message was: {msg}");
    }

    #[test]
    fn const_const_violation_detected() {
        let (space, _vs, mut cs) = setup();
        let konst = space.parse_set("const").unwrap();
        let none = space.none();
        cs.add(konst, none); // const ⊑ ∅ is false
        let err = cs.solve_with_count(&space, 0).unwrap_err();
        assert_eq!(err.violations.len(), 1);
        cs = ConstraintSet::new();
        cs.add(none, konst); // ∅ ⊑ const is true
        assert!(cs.solve_with_count(&space, 0).is_ok());
    }

    #[test]
    fn cycles_converge() {
        let (space, mut vs, mut cs) = setup();
        let konst = space.parse_set("const").unwrap();
        let (a, b, c) = (vs.fresh(), vs.fresh(), vs.fresh());
        cs.add(a, b);
        cs.add(b, c);
        cs.add(c, a);
        cs.add(konst, b);
        let sol = cs.solve(&space, &vs).unwrap();
        for v in [a, b, c] {
            assert_eq!(sol.least(v), konst);
        }
    }

    #[test]
    fn negative_qualifier_flows() {
        // nonzero is negative: ⊥ contains it. An `x` required nonzero on
        // use (x ⊑ ¬nonzero-complement ... ) — model the paper's line 3/4
        // example shape: value 0 has qualifier set *without* nonzero, and
        // asserting nonzero on it must fail.
        let (space, mut vs, mut cs) = setup();
        let nz = space.id("nonzero").unwrap();
        let zero_quals = space.none(); // plain 0 literal: nonzero absent
        let x = vs.fresh();
        cs.add(zero_quals, x); // value flows into x
        // assertion x|nonzero requires x ⊑ (element with nonzero present)
        let req = space.with_present(space.top(), nz);
        cs.add(x, req);
        let err = cs.solve(&space, &vs).unwrap_err();
        assert_eq!(err.violations.len(), 1);
    }

    #[test]
    fn eval_helpers() {
        let (space, mut vs, mut cs) = setup();
        let a = vs.fresh();
        let konst = space.parse_set("const").unwrap();
        cs.add(konst, a);
        let sol = cs.solve(&space, &vs).unwrap();
        assert_eq!(sol.eval_least(Qual::Var(a)), konst);
        assert_eq!(sol.eval_least(Qual::Const(space.none())), space.none());
        assert_eq!(sol.eval_greatest(Qual::Var(a)), space.top());
        assert_eq!(sol.var_count(), 1);
    }

    #[test]
    fn self_loop_is_harmless() {
        let (space, mut vs, mut cs) = setup();
        let a = vs.fresh();
        cs.add(a, a);
        let sol = cs.solve(&space, &vs).unwrap();
        assert!(sol.is_unconstrained(&space, a));
    }

    #[test]
    fn masked_constraint_relates_only_masked_coordinates() {
        // v carries const+dynamic; edge to w masked to const only.
        let (space, mut vs, mut cs) = setup();
        let cd = space.parse_set("const dynamic").unwrap();
        let c_id = space.id("const").unwrap();
        let (v, w) = (vs.fresh(), vs.fresh());
        cs.add(cd, v);
        cs.add_masked(v, w, &[c_id], Provenance::synthetic("wf"));
        let sol = cs.solve(&space, &vs).unwrap();
        // Only the const coordinate moved; w otherwise stays at ⊥.
        let expected = space.with_present(space.bottom(), c_id);
        assert_eq!(sol.least(w), expected, "only const flowed through the mask");
        assert!(!sol.least(w).has(&space, space.id("dynamic").unwrap()));
    }

    #[test]
    fn masked_upper_bound_leaves_other_coordinates_free() {
        // v ⊑ ∅ masked to const: forbids const but not dynamic.
        let (space, mut vs, mut cs) = setup();
        let c_id = space.id("const").unwrap();
        let v = vs.fresh();
        cs.add_masked(v, space.bottom(), &[c_id], Provenance::synthetic("assign"));
        let sol = cs.solve(&space, &vs).unwrap();
        assert!(!sol.greatest(v).has(&space, c_id));
        assert!(sol.greatest(v).has(&space, space.id("dynamic").unwrap()));
    }

    #[test]
    fn masked_violation_only_on_masked_coordinate() {
        let (space, mut vs, mut cs) = setup();
        let c_id = space.id("const").unwrap();
        let d_id = space.id("dynamic").unwrap();
        let v = vs.fresh();
        // dynamic flows in; upper bound ∅ masked to const: fine.
        cs.add(space.parse_set("dynamic").unwrap(), v);
        cs.add_masked(v, space.bottom(), &[c_id], Provenance::synthetic("a"));
        assert!(cs.solve(&space, &vs).is_ok());
        // Now bound the dynamic coordinate too: violation.
        cs.add_masked(v, space.bottom(), &[d_id], Provenance::synthetic("b"));
        let err = cs.solve(&space, &vs).unwrap_err();
        assert_eq!(err.violations.len(), 1);
        assert_eq!(err.violations[0].constraint.origin.what, "b");
    }

    #[test]
    fn diamond_join() {
        // const ⊑ a, dynamic ⊑ b, a ⊑ c, b ⊑ c ⇒ least(c) = const ⊔ dynamic.
        let (space, mut vs, mut cs) = setup();
        let konst = space.parse_set("const").unwrap();
        let dynamic = space.parse_set("dynamic").unwrap();
        let (a, b, c) = (vs.fresh(), vs.fresh(), vs.fresh());
        cs.add(konst, a);
        cs.add(dynamic, b);
        cs.add(a, c);
        cs.add(b, c);
        let sol = cs.solve(&space, &vs).unwrap();
        assert_eq!(sol.least(c), space.join(konst, dynamic));
    }
}
