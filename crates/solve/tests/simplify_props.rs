//! Property tests for constraint compaction: it preserves the least and
//! greatest solutions at every interface variable (per qualifier
//! coordinate), and the independent verifier certifies both the
//! original and the compacted system's solutions.

use std::collections::HashSet;

use proptest::prelude::*;
use qual_lattice::{QualSet, QualSpace, QualSpaceBuilder};
use qual_solve::{
    compact, verify_solution, ConstraintSet, Provenance, QVar, Qual, VarSupply,
};

const NVARS: usize = 6;

fn three_space() -> QualSpace {
    QualSpaceBuilder::new()
        .positive("p")
        .negative("n")
        .positive("q")
        .build()
        .unwrap()
}

fn mk_supply() -> VarSupply {
    let mut vs = VarSupply::new();
    for _ in 0..NVARS {
        vs.fresh();
    }
    vs
}

/// Per-coordinate equality: the two sets agree on the presence of every
/// qualifier of the space individually (stronger diagnostics than a
/// bitwise compare — failures name the qualifier).
fn same_per_coordinate(space: &QualSpace, a: QualSet, b: QualSet) -> Result<(), String> {
    for (id, decl) in space.iter() {
        let bit = 1u64 << id.index();
        if (a.bits() & bit) != (b.bits() & bit) {
            return Err(format!("coordinate `{}` differs: {a:?} vs {b:?}", decl.name()));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compaction_preserves_interface_solutions(
        raw in prop::collection::vec((0u8..8, 0u8..8, 0u64..8, any::<bool>()), 0..16),
        internal_mask in 0u8..(1 << (NVARS as u8)),
    ) {
        let space = three_space();
        let vs = mk_supply();
        let decode = |c: u8| -> Qual {
            if (c as usize) < NVARS {
                Qual::Var(QVar::from_index(c as usize))
            } else {
                Qual::Const(QualSet::from_bits(u64::from(c) & space.top().bits()))
            }
        };
        let mut cs = ConstraintSet::new();
        for &(l, r, m, full) in &raw {
            let mask = if full { u64::MAX } else { m };
            cs.extend([qual_solve::Constraint {
                lhs: decode(l),
                rhs: decode(r),
                mask,
                origin: Provenance::synthetic("prop"),
            }]);
        }
        let internal: HashSet<QVar> = (0..NVARS)
            .filter(|i| internal_mask >> i & 1 == 1)
            .map(QVar::from_index)
            .collect();

        let compacted = compact(cs.constraints(), &internal, 1_000_000);
        let small: ConstraintSet = compacted.constraints.iter().copied().collect();

        let before = cs.solve(&space, &vs);
        let after = small.solve(&space, &vs);
        match (before, after) {
            (Ok(b), Ok(a)) => {
                for i in 0..NVARS {
                    let v = QVar::from_index(i);
                    if !internal.contains(&v) {
                        if let Err(e) = same_per_coordinate(&space, b.least(v), a.least(v)) {
                            prop_assert!(false, "least at interface var {}: {}", i, e);
                        }
                        if let Err(e) = same_per_coordinate(&space, b.greatest(v), a.greatest(v)) {
                            prop_assert!(false, "greatest at interface var {}: {}", i, e);
                        }
                    }
                }
                // The verifier certifies each solution against its own
                // system: the original against the full constraint set,
                // the simplified against the compacted one.
                prop_assert!(verify_solution(&space, cs.constraints(), &b).is_ok(),
                    "original solution failed certification");
                prop_assert!(verify_solution(&space, small.constraints(), &a).is_ok(),
                    "simplified solution failed certification");
            }
            (Err(_), Err(_)) => {}
            // Eliminating an internal variable can erase a violation
            // *only* if the violating path ran through... it cannot:
            // path contraction preserves const-to-const consequences.
            (b, a) => prop_assert!(false,
                "satisfiability changed: before={} after={}",
                b.is_ok(), a.is_ok()),
        }
    }
}
