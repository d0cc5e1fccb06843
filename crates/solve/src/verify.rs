//! Independent certification of solver results.
//!
//! The solver is the single point of trust for every count the tools
//! report, so this module re-checks its answers with *different* code: a
//! claimed [`Solution`] is evaluated directly against every atomic
//! constraint, one qualifier coordinate at a time, and an unsat
//! [`Explanation`] is replayed step by step to confirm the contradiction
//! it claims. Neither check shares any logic with the worklist
//! propagation in the solver — the checker walks constraints, not
//! graphs, so a propagation bug cannot hide from it.
//!
//! A failed check is a [`CertificateError`] naming the exact constraint,
//! coordinate, and assignment that broke, so a certification failure is
//! itself a precise bug report against the solver.

use std::fmt;

use qual_lattice::{QualId, QualSet, QualSpace};

use crate::constraint::Constraint;
use crate::explain::Explanation;
use crate::solver::Solution;
use crate::term::{QVar, Qual};

/// Which of the two solutions a certificate check was evaluating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// The pointwise least solution.
    Least,
    /// The pointwise greatest solution.
    Greatest,
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Assignment::Least => "least",
            Assignment::Greatest => "greatest",
        })
    }
}

/// Why a claimed solution or explanation failed certification.
///
/// Every variant names the exact place the check broke, so a failure is
/// directly actionable: a [`CertificateError::Violated`] identifies the
/// constraint (with provenance) and the qualifier coordinate where the
/// claimed assignment does not satisfy `lhs ⊓ m ⊑ rhs ⊔ ¬m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertificateError {
    /// A constraint mentions a variable the solution does not cover.
    OutOfRange {
        /// Position of the constraint in the checked slice.
        index: usize,
        /// The uncovered variable.
        var: QVar,
        /// How many variables the solution covers.
        var_count: usize,
    },
    /// `least(v) ⊑ greatest(v)` does not hold.
    IllFormed {
        /// The offending variable.
        var: QVar,
        /// Its claimed least value.
        least: QualSet,
        /// Its claimed greatest value.
        greatest: QualSet,
    },
    /// A claimed value uses coordinates outside the qualifier space.
    OutOfSpace {
        /// The offending variable.
        var: QVar,
        /// Which solution carried the stray coordinate.
        assignment: Assignment,
        /// The offending value.
        value: QualSet,
    },
    /// A constraint does not hold under one of the two assignments.
    Violated {
        /// Position of the constraint in the checked slice.
        index: usize,
        /// The violated constraint (with provenance).
        constraint: Constraint,
        /// Which assignment broke it.
        assignment: Assignment,
        /// The qualifier coordinate where the order fails.
        qualifier: QualId,
        /// The evaluated left side.
        lhs: QualSet,
        /// The evaluated right side.
        rhs: QualSet,
    },
    /// An explanation path with no steps proves nothing.
    EmptyPath,
    /// The explanation's qualifier is not a single coordinate of the
    /// space.
    BadQualifier {
        /// The claimed qualifier bits.
        qualifier: QualSet,
    },
    /// The first step's lower side is not a lattice constant.
    SourceNotConstant,
    /// The first step's constant does not carry the claimed qualifier.
    SourceLacksQualifier,
    /// Two consecutive steps are not linked by a shared variable.
    BrokenLink {
        /// Index of the later of the two unlinked steps.
        step: usize,
    },
    /// A step's mask excludes the claimed qualifier, so the coordinate
    /// does not flow through it.
    MaskDropsQualifier {
        /// Index of the offending step.
        step: usize,
    },
    /// The last step's upper side is not a lattice constant.
    SinkNotConstant,
    /// The last step's constant admits the claimed qualifier, so there
    /// is no contradiction.
    SinkAdmitsQualifier,
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::OutOfRange {
                index,
                var,
                var_count,
            } => write!(
                f,
                "constraint #{index} mentions {var} but the solution covers \
                 only {var_count} variable(s)"
            ),
            CertificateError::IllFormed {
                var,
                least,
                greatest,
            } => write!(
                f,
                "ill-formed solution: least({var}) = {least:?} is not below \
                 greatest({var}) = {greatest:?}"
            ),
            CertificateError::OutOfSpace {
                var,
                assignment,
                value,
            } => write!(
                f,
                "{assignment}({var}) = {value:?} uses coordinates outside \
                 the qualifier space"
            ),
            CertificateError::Violated {
                index,
                constraint,
                assignment,
                qualifier,
                ..
            } => write!(
                f,
                "constraint #{index} ({}) violated by the {assignment} \
                 solution at coordinate {qualifier}",
                constraint.origin
            ),
            CertificateError::EmptyPath => {
                f.write_str("explanation path is empty")
            }
            CertificateError::BadQualifier { qualifier } => write!(
                f,
                "explanation qualifier {qualifier:?} is not a single \
                 coordinate of the space"
            ),
            CertificateError::SourceNotConstant => {
                f.write_str("explanation path does not start at a constant lower bound")
            }
            CertificateError::SourceLacksQualifier => f.write_str(
                "explanation source constant does not carry the claimed qualifier",
            ),
            CertificateError::BrokenLink { step } => write!(
                f,
                "explanation steps {} and {step} are not linked by a shared \
                 variable",
                step - 1
            ),
            CertificateError::MaskDropsQualifier { step } => write!(
                f,
                "explanation step {step}'s mask excludes the claimed qualifier"
            ),
            CertificateError::SinkNotConstant => {
                f.write_str("explanation path does not end at a constant upper bound")
            }
            CertificateError::SinkAdmitsQualifier => f.write_str(
                "explanation sink admits the claimed qualifier: no contradiction",
            ),
        }
    }
}

impl std::error::Error for CertificateError {}

/// All coordinates where `lhs ⊑ rhs` fails under `mask`, as a word: a
/// coordinate's bit is set exactly when it is related (`mask`), high on
/// the left, and low on the right. Checking all 64 coordinates is one
/// AND-NOT per side instead of a per-coordinate loop, which is what
/// makes whole-set certification a single sweep over the constraints.
fn violated_coordinates(lhs: QualSet, rhs: QualSet, mask: u64) -> u64 {
    lhs.bits() & !rhs.bits() & mask
}

/// Checks a claimed [`Solution`] against every constraint plus
/// well-formedness, independently of how the solution was produced.
///
/// The checks, in order:
///
/// 1. every claimed value stays inside the space's coordinates;
/// 2. `least(v) ⊑ greatest(v)` for every covered variable;
/// 3. every constraint mentions only covered variables;
/// 4. every constraint `lhs ⊓ m ⊑ rhs ⊔ ¬m` holds at every coordinate
///    under **both** the least and the greatest assignment, checked
///    word-parallel in a single batch sweep over the constraint slice.
///
/// # Errors
///
/// Returns the first [`CertificateError`] found, naming the exact
/// variable or constraint and coordinate that failed.
pub fn verify_solution(
    space: &QualSpace,
    constraints: &[Constraint],
    sol: &Solution,
) -> Result<(), CertificateError> {
    let _span = qual_obs::span("certify");
    let top = space.top().bits();
    // Coordinate lookup by canonical bit index, so a violating word maps
    // back to its `QualId` without re-walking the space per constraint.
    let mut coords: [Option<QualId>; 64] = [None; 64];
    for (qualifier, _) in space.iter() {
        coords[qualifier.index()] = Some(qualifier);
    }
    for i in 0..sol.var_count() {
        let var = QVar::from_index(i);
        let (lo, hi) = (sol.least(var), sol.greatest(var));
        for (assignment, value) in
            [(Assignment::Least, lo), (Assignment::Greatest, hi)]
        {
            if value.bits() & !top != 0 {
                return Err(CertificateError::OutOfSpace {
                    var,
                    assignment,
                    value,
                });
            }
        }
        if !space.le(lo, hi) {
            return Err(CertificateError::IllFormed {
                var,
                least: lo,
                greatest: hi,
            });
        }
    }
    for (index, c) in constraints.iter().enumerate() {
        for side in [c.lhs, c.rhs] {
            if let Qual::Var(var) = side {
                if var.index() >= sol.var_count() {
                    return Err(CertificateError::OutOfRange {
                        index,
                        var,
                        var_count: sol.var_count(),
                    });
                }
            }
        }
        for (assignment, lhs, rhs) in [
            (Assignment::Least, sol.eval_least(c.lhs), sol.eval_least(c.rhs)),
            (
                Assignment::Greatest,
                sol.eval_greatest(c.lhs),
                sol.eval_greatest(c.rhs),
            ),
        ] {
            let bad = violated_coordinates(lhs, rhs, c.mask & top);
            if bad != 0 {
                // Lowest set bit = lowest coordinate index, matching the
                // per-coordinate iteration order this check replaced.
                let qualifier = coords[bad.trailing_zeros() as usize]
                    .expect("violations are masked to the space's coordinates");
                return Err(CertificateError::Violated {
                    index,
                    constraint: *c,
                    assignment,
                    qualifier,
                    lhs,
                    rhs,
                });
            }
        }
    }
    Ok(())
}

/// Replays an unsat [`Explanation`] to confirm it really proves a
/// contradiction, without consulting the solver or the full constraint
/// set.
///
/// The replay argument: step 0's constant carries the claimed coordinate
/// under its mask, so any satisfying assignment must put the coordinate
/// into step 0's variable; each later step's mask keeps relating the
/// coordinate and its lower side is the previous step's upper side, so
/// the coordinate is forced along the whole chain; the final constant
/// upper bound excludes it. No assignment can do both, hence unsat.
///
/// # Errors
///
/// Returns the [`CertificateError`] describing the first broken link of
/// a chain that does *not* prove a contradiction.
pub fn verify_explanation(
    space: &QualSpace,
    exp: &Explanation,
) -> Result<(), CertificateError> {
    let _span = qual_obs::span("certify");
    let steps = &exp.steps;
    if steps.is_empty() {
        return Err(CertificateError::EmptyPath);
    }
    let top = space.top().bits();
    let bit = exp.qualifier.bits();
    if bit == 0 || !bit.is_power_of_two() || bit & top == 0 {
        return Err(CertificateError::BadQualifier {
            qualifier: exp.qualifier,
        });
    }
    for (step, c) in steps.iter().enumerate() {
        if c.mask & top & bit == 0 {
            return Err(CertificateError::MaskDropsQualifier { step });
        }
    }
    let Qual::Const(source) = steps[0].lhs else {
        return Err(CertificateError::SourceNotConstant);
    };
    if source.bits() & bit == 0 {
        return Err(CertificateError::SourceLacksQualifier);
    }
    for step in 1..steps.len() {
        let linked = matches!(
            (steps[step - 1].rhs, steps[step].lhs),
            (Qual::Var(prev), Qual::Var(next)) if prev == next
        );
        if !linked {
            return Err(CertificateError::BrokenLink { step });
        }
    }
    let last = steps[steps.len() - 1];
    let Qual::Const(sink) = last.rhs else {
        return Err(CertificateError::SinkNotConstant);
    };
    if sink.bits() & bit != 0 {
        return Err(CertificateError::SinkAdmitsQualifier);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintSet;
    use crate::explain::explain;
    use crate::term::{Provenance, VarSupply};
    use qual_lattice::QualSpace;

    fn setup() -> (QualSpace, VarSupply, ConstraintSet) {
        (QualSpace::figure2(), VarSupply::new(), ConstraintSet::new())
    }

    #[test]
    fn solver_solutions_certify() {
        let (space, mut vs, mut cs) = setup();
        let konst = space.parse_set("const").unwrap();
        let (a, b, c) = (vs.fresh(), vs.fresh(), vs.fresh());
        cs.add(konst, a);
        cs.add(a, b);
        cs.add(b, c);
        cs.add(c, space.not_q(space.id("dynamic").unwrap()));
        let sol = cs.solve(&space, &vs).unwrap();
        assert_eq!(verify_solution(&space, cs.constraints(), &sol), Ok(()));
    }

    #[test]
    fn masked_solver_solutions_certify() {
        let (space, mut vs, mut cs) = setup();
        let cd = space.parse_set("const dynamic").unwrap();
        let c_id = space.id("const").unwrap();
        let (v, w) = (vs.fresh(), vs.fresh());
        cs.add(cd, v);
        cs.add_masked(v, w, &[c_id], Provenance::synthetic("wf"));
        cs.add_masked(w, space.bottom(), &[space.id("dynamic").unwrap()], Provenance::synthetic("a"));
        let sol = cs.solve(&space, &vs).unwrap();
        assert_eq!(verify_solution(&space, cs.constraints(), &sol), Ok(()));
    }

    #[test]
    fn corrupted_least_is_rejected() {
        let (space, mut vs, mut cs) = setup();
        let konst = space.parse_set("const").unwrap();
        let (a, b) = (vs.fresh(), vs.fresh());
        cs.add(konst, a);
        cs.add(a, b);
        let sol = cs.solve(&space, &vs).unwrap();
        // Corrupt: drop `const` from least(b), breaking `a ⊑ b` under
        // the least assignment.
        let least = vec![sol.least(a), space.bottom()];
        let greatest = vec![sol.greatest(a), sol.greatest(b)];
        let bad = Solution::from_parts(least, greatest);
        let err = verify_solution(&space, cs.constraints(), &bad).unwrap_err();
        match err {
            CertificateError::Violated {
                index,
                assignment,
                qualifier,
                ..
            } => {
                assert_eq!(index, 1, "the a ⊑ b edge is the broken one");
                assert_eq!(assignment, Assignment::Least);
                assert_eq!(qualifier, space.id("const").unwrap());
            }
            other => panic!("expected Violated, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_greatest_is_rejected() {
        let (space, mut vs, mut cs) = setup();
        let nc = space.not_q(space.id("const").unwrap());
        let (a, b) = (vs.fresh(), vs.fresh());
        cs.add(a, b);
        cs.add(b, nc);
        let sol = cs.solve(&space, &vs).unwrap();
        // Corrupt: claim greatest(a) = ⊤ even though `a ⊑ b ⊑ ¬const`.
        let least = vec![sol.least(a), sol.least(b)];
        let greatest = vec![space.top(), sol.greatest(b)];
        let bad = Solution::from_parts(least, greatest);
        let err = verify_solution(&space, cs.constraints(), &bad).unwrap_err();
        assert!(
            matches!(
                err,
                CertificateError::Violated {
                    index: 0,
                    assignment: Assignment::Greatest,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn ill_formed_solution_is_rejected() {
        let (space, mut vs, cs) = setup();
        let _ = vs.fresh();
        // least = ⊤ but greatest = ⊥: not a lattice interval.
        let bad = Solution::from_parts(vec![space.top()], vec![space.bottom()]);
        let err = verify_solution(&space, cs.constraints(), &bad).unwrap_err();
        assert!(matches!(err, CertificateError::IllFormed { .. }), "got {err:?}");
    }

    #[test]
    fn out_of_space_value_is_rejected() {
        let (space, mut vs, cs) = setup();
        let _ = vs.fresh();
        let stray = QualSet::from_bits(1u64 << 63);
        let bad = Solution::from_parts(vec![stray], vec![space.top()]);
        let err = verify_solution(&space, cs.constraints(), &bad).unwrap_err();
        assert!(matches!(err, CertificateError::OutOfSpace { .. }), "got {err:?}");
    }

    #[test]
    fn uncovered_variable_is_rejected() {
        let (space, mut vs, mut cs) = setup();
        let a = vs.fresh();
        let phantom = vs.fresh();
        cs.add(a, phantom);
        let sol = cs.solve(&space, &vs).unwrap();
        // A solution sized for fewer variables than the constraints use.
        let short =
            Solution::from_parts(vec![sol.least(a)], vec![sol.greatest(a)]);
        let err = verify_solution(&space, cs.constraints(), &short).unwrap_err();
        assert!(matches!(err, CertificateError::OutOfRange { .. }), "got {err:?}");
    }

    #[test]
    fn real_explanations_replay() {
        let (space, mut vs, mut cs) = setup();
        let konst = space.parse_set("const").unwrap();
        let nc = space.not_q(space.id("const").unwrap());
        let (a, b) = (vs.fresh(), vs.fresh());
        cs.add_with(konst, a, Provenance::synthetic("declared const"));
        cs.add_with(a, b, Provenance::synthetic("argument"));
        cs.add_with(b, nc, Provenance::at(3, 9, "assignment"));
        let err = cs.solve(&space, &vs).unwrap_err();
        let exps = explain(&space, cs.constraints(), &err);
        assert_eq!(exps.len(), 1);
        assert_eq!(exps[0].steps.len(), 3, "source, edge, sink");
        assert_eq!(verify_explanation(&space, &exps[0]), Ok(()));
    }

    #[test]
    fn fabricated_paths_are_rejected() {
        let (space, mut vs, mut cs) = setup();
        let konst = space.parse_set("const").unwrap();
        let nc = space.not_q(space.id("const").unwrap());
        let (a, b) = (vs.fresh(), vs.fresh());
        cs.add_with(konst, a, Provenance::synthetic("declared const"));
        cs.add_with(a, b, Provenance::synthetic("argument"));
        cs.add_with(b, nc, Provenance::synthetic("assignment"));
        let err = cs.solve(&space, &vs).unwrap_err();
        let real = explain(&space, cs.constraints(), &err).remove(0);
        let all = cs.constraints();

        // Empty path.
        let mut forged = real.clone();
        forged.steps.clear();
        assert_eq!(
            verify_explanation(&space, &forged),
            Err(CertificateError::EmptyPath)
        );

        // Unlinked chain: skip the middle edge so a ⊑ b never happens.
        let forged = Explanation {
            steps: vec![all[0], all[2]],
            ..real.clone()
        };
        assert_eq!(
            verify_explanation(&space, &forged),
            Err(CertificateError::BrokenLink { step: 1 })
        );

        // Wrong qualifier coordinate: `dynamic` never flowed anywhere.
        let mut forged = real.clone();
        forged.qualifier = QualSet::from_bits(
            1u64 << space.id("dynamic").unwrap().index(),
        );
        assert_eq!(
            verify_explanation(&space, &forged),
            Err(CertificateError::SourceLacksQualifier)
        );

        // Sink that actually admits const: no contradiction shown.
        let mut forged = real.clone();
        let n = forged.steps.len();
        forged.steps[n - 1].rhs = Qual::Const(space.top());
        assert_eq!(
            verify_explanation(&space, &forged),
            Err(CertificateError::SinkAdmitsQualifier)
        );

        // A qualifier set that is not a single coordinate.
        let mut forged = real.clone();
        forged.qualifier = space.top();
        assert!(matches!(
            verify_explanation(&space, &forged),
            Err(CertificateError::BadQualifier { .. })
        ));

        // Mask that excludes the coordinate mid-chain.
        let mut forged = real;
        forged.steps[1].mask = 0;
        assert_eq!(
            verify_explanation(&space, &forged),
            Err(CertificateError::MaskDropsQualifier { step: 1 })
        );
    }

    #[test]
    fn certificate_errors_render() {
        let (space, mut vs, mut cs) = setup();
        let a = vs.fresh();
        cs.add(space.parse_set("const").unwrap(), a);
        let sol = cs.solve(&space, &vs).unwrap();
        let bad = Solution::from_parts(vec![space.bottom()], vec![space.top()]);
        let err = verify_solution(&space, cs.constraints(), &bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("constraint #0"), "got: {msg}");
        assert!(msg.contains("least"), "got: {msg}");
        drop(sol);
    }
}
