//! Constraint simplification: eliminating purely-internal variables from
//! a captured constraint set.
//!
//! §6 of the paper: "in practice these constraint systems can be large
//! and difficult to interpret. Simplifying these constrained types for
//! presentation is an open research problem." This module implements the
//! workhorse sound simplification: Gaussian-style elimination of
//! variables that are not part of a scheme's interface. Each internal
//! variable `v` is removed by composing every in-edge `a ⊑ₘ₁ v` with
//! every out-edge `v ⊑ₘ₂ b` into `a ⊑ₘ₁∩ₘ₂ b`; for atomic constraints
//! the least (and greatest) solutions restricted to the remaining
//! variables are preserved exactly, because flows through `v` are the
//! joins over paths and edge composition contracts paths.
//!
//! Elimination can blow up quadratically per variable, so variables whose
//! in×out degree product exceeds a budget are kept (soundness never
//! depends on eliminating anything).
//!
//! Compaction serves scheme presentation and instantiation. Solving
//! shrinks its graph separately: the dense solver contracts every
//! full-mask cycle with one Tarjan pass at solve time (see `dense.rs`).

use std::collections::HashSet;

use crate::constraint::Constraint;
use crate::term::{QVar, Qual};

/// The result of compaction.
#[derive(Debug)]
pub struct Compacted {
    /// The equivalent constraints over interface (and kept) variables.
    pub constraints: Vec<Constraint>,
    /// Internal variables that were kept because eliminating them would
    /// have exceeded the budget.
    pub kept: Vec<QVar>,
}

/// Eliminates every variable in `internal` (except those exceeding
/// `degree_budget`) from `constraints`, preserving all consequences
/// among the remaining variables and constants.
#[must_use]
pub fn compact(
    constraints: &[Constraint],
    internal: &HashSet<QVar>,
    degree_budget: usize,
) -> Compacted {
    // Dedup as we go: constraint identity ignores provenance (we keep
    // the first provenance seen for each logical constraint).
    let mut edges: HashSet<(Qual, Qual, u64)> = HashSet::new();
    let mut all: Vec<Constraint> = Vec::new();
    let mut push = |all: &mut Vec<Constraint>, c: Constraint| {
        if c.lhs == c.rhs {
            return; // reflexive, inert
        }
        if edges.insert((c.lhs, c.rhs, c.mask)) {
            all.push(c);
        }
    };
    let mut mentioned: HashSet<QVar> = HashSet::new();
    for c in constraints {
        push(&mut all, *c);
        for q in [c.lhs, c.rhs] {
            if let Qual::Var(v) = q {
                mentioned.insert(v);
            }
        }
    }

    // Only variables that actually occur can need elimination; windows
    // are usually much larger than the constraint set's support.
    let todo: Vec<QVar> = internal
        .iter()
        .copied()
        .filter(|v| mentioned.contains(v))
        .collect();

    let mut kept = Vec::new();
    for v in todo {
        // Partition current constraints into in-edges, out-edges, rest.
        let mut ins = Vec::new();
        let mut outs = Vec::new();
        let mut rest = Vec::new();
        for c in all.drain(..) {
            let is_in = c.rhs == Qual::Var(v);
            let is_out = c.lhs == Qual::Var(v);
            match (is_in, is_out) {
                (true, true) => {} // self loop: inert
                (true, false) => ins.push(c),
                (false, true) => outs.push(c),
                (false, false) => rest.push(c),
            }
        }
        if ins.len().saturating_mul(outs.len()) > degree_budget {
            // Too connected: keep v and its constraints. They were
            // deduplicated when first added (and drained uniquely), so
            // they go straight back without consulting the dedup set.
            kept.push(v);
            all = rest;
            all.extend(ins);
            all.extend(outs);
            continue;
        }
        all = rest;
        // Rebuild the dedup set lazily: compose pairs.
        for i in &ins {
            for o in &outs {
                let mask = i.mask & o.mask;
                if mask == 0 {
                    continue; // relates no coordinate
                }
                push(
                    &mut all,
                    Constraint {
                        lhs: i.lhs,
                        rhs: o.rhs,
                        mask,
                        origin: i.origin,
                    },
                );
            }
        }
    }

    Compacted {
        constraints: all,
        kept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintSet;
    use crate::term::{Provenance, VarSupply};
    use qual_lattice::QualSpace;

    fn set_of(cs: Vec<Constraint>) -> ConstraintSet {
        cs.into_iter().collect()
    }

    #[test]
    fn chain_through_internal_contracts() {
        let space = QualSpace::const_only();
        let mut vs = VarSupply::new();
        let (a, x, b) = (vs.fresh(), vs.fresh(), vs.fresh());
        let mut cs = ConstraintSet::new();
        cs.add(a, x);
        cs.add(x, b);
        let internal: HashSet<QVar> = [x].into_iter().collect();
        let out = compact(cs.constraints(), &internal, 1000);
        assert!(out.kept.is_empty());
        assert_eq!(out.constraints.len(), 1);
        assert_eq!(out.constraints[0].lhs, Qual::Var(a));
        assert_eq!(out.constraints[0].rhs, Qual::Var(b));

        // Solutions at the interface agree.
        let konst = space.top();
        let mut full = cs.clone();
        full.add(Qual::Const(konst), a);
        let mut small = set_of(out.constraints.clone());
        small.add(Qual::Const(konst), a);
        let s1 = full.solve(&space, &vs).unwrap();
        let s2 = small.solve(&space, &vs).unwrap();
        assert_eq!(s1.least(b), s2.least(b));
        assert_eq!(s1.greatest(a), s2.greatest(a));
    }

    #[test]
    fn masks_compose_by_intersection() {
        let space = QualSpace::figure2();
        let c_id = space.id("const").unwrap();
        let d_id = space.id("dynamic").unwrap();
        let mut vs = VarSupply::new();
        let (a, x, b) = (vs.fresh(), vs.fresh(), vs.fresh());
        let mut cs = ConstraintSet::new();
        cs.add_masked(a, x, &[c_id, d_id], Provenance::synthetic("t"));
        cs.add_masked(x, b, &[c_id], Provenance::synthetic("t"));
        let internal: HashSet<QVar> = [x].into_iter().collect();
        let out = compact(cs.constraints(), &internal, 1000);
        assert_eq!(out.constraints.len(), 1);
        assert_eq!(out.constraints[0].mask, 1u64 << c_id.index());
    }

    #[test]
    fn disjoint_masks_drop_the_edge() {
        let space = QualSpace::figure2();
        let c_id = space.id("const").unwrap();
        let d_id = space.id("dynamic").unwrap();
        let mut vs = VarSupply::new();
        let (a, x, b) = (vs.fresh(), vs.fresh(), vs.fresh());
        let mut cs = ConstraintSet::new();
        cs.add_masked(a, x, &[c_id], Provenance::synthetic("t"));
        cs.add_masked(x, b, &[d_id], Provenance::synthetic("t"));
        let internal: HashSet<QVar> = [x].into_iter().collect();
        let out = compact(cs.constraints(), &internal, 1000);
        assert!(out.constraints.is_empty(), "{:?}", out.constraints);
    }

    #[test]
    fn degree_budget_keeps_hubs() {
        let mut vs = VarSupply::new();
        let hub = vs.fresh();
        let mut cs = ConstraintSet::new();
        for _ in 0..20 {
            let v = vs.fresh();
            cs.add(v, hub);
            let w = vs.fresh();
            cs.add(hub, w);
        }
        let internal: HashSet<QVar> = [hub].into_iter().collect();
        let out = compact(cs.constraints(), &internal, 10);
        assert_eq!(out.kept, vec![hub]);
        assert_eq!(out.constraints.len(), 40);
    }

    #[test]
    fn diamond_dedupes() {
        let mut vs = VarSupply::new();
        let (a, x, y, b) = (vs.fresh(), vs.fresh(), vs.fresh(), vs.fresh());
        let mut cs = ConstraintSet::new();
        cs.add(a, x);
        cs.add(a, y);
        cs.add(x, b);
        cs.add(y, b);
        let internal: HashSet<QVar> = [x, y].into_iter().collect();
        let out = compact(cs.constraints(), &internal, 1000);
        assert_eq!(out.constraints.len(), 1, "{:?}", out.constraints);
    }

    #[test]
    fn constants_survive_composition() {
        let space = QualSpace::const_only();
        let konst = space.top();
        let mut vs = VarSupply::new();
        let (x, b) = (vs.fresh(), vs.fresh());
        let mut cs = ConstraintSet::new();
        cs.add(Qual::Const(konst), x);
        cs.add(x, b);
        let internal: HashSet<QVar> = [x].into_iter().collect();
        let out = compact(cs.constraints(), &internal, 1000);
        assert_eq!(out.constraints.len(), 1);
        assert_eq!(out.constraints[0].lhs, Qual::Const(konst));
        assert_eq!(out.constraints[0].rhs, Qual::Var(b));
    }
}
