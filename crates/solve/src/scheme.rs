//! Polymorphic constrained types `∀κ⃗. body \ C` (§3.2 of the paper).
//!
//! A [`Scheme`] pairs a client-side body (a qualified type in
//! `qual-lambda`, a function signature in `qual-constinfer`) with the
//! qualifier variables generalized over and the constraints that mention
//! them. Instantiation fresh-renames the bound variables and copies the
//! constraints — rule (Var′) of the paper. Generalization corresponds to
//! rule (Letv); the existential binding `∃κ⃗.C₁` is realized by keeping
//! the bound-variable constraints inside the scheme (they are re-emitted,
//! renamed, at each use) while constraints among free variables stay in
//! the caller's constraint set exactly once.
//!
//! A [`WindowScheme`] is the same scheme without the copy: when the bound
//! variables and their constraints were generated in one window of a
//! constraint set, it records the two index ranges and re-reads the
//! window at each use.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use crate::constraint::{Constraint, ConstraintSet};
use crate::term::{QVar, Qual, VarSupply};

/// A polymorphic constrained value `∀κ⃗. body \ C`.
#[derive(Debug, Clone)]
pub struct Scheme<B> {
    body: B,
    bound: Vec<QVar>,
    constraints: Vec<Constraint>,
}

impl<B> Scheme<B> {
    /// A scheme with no bound variables (a monomorphic binding).
    pub fn monomorphic(body: B) -> Scheme<B> {
        Scheme {
            body,
            bound: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Generalizes `body` over `candidates` (the variables not free in the
    /// type environment), capturing from `constraints` every constraint
    /// that mentions a bound variable.
    ///
    /// Constraints *not* mentioning a bound variable are instantiation-
    /// independent and are deliberately not captured: the caller keeps
    /// them in its own constraint set (that is the `(∃κ⃗.C₁) ∪ C₂` of rule
    /// (Letv)).
    pub fn generalize(body: B, candidates: Vec<QVar>, constraints: &ConstraintSet) -> Scheme<B> {
        Scheme::generalize_in(body, candidates, constraints.constraints())
    }

    /// Like [`Scheme::generalize`], but scanning only `window` — the
    /// slice of constraints added since generalization's variable window
    /// opened. When every bound variable was created inside the window
    /// and the constraint set only grows, constraints mentioning bound
    /// variables can only appear in that suffix, so this is equivalent to
    /// scanning everything and keeps repeated generalization linear.
    pub fn generalize_in(body: B, candidates: Vec<QVar>, window: &[Constraint]) -> Scheme<B> {
        let bound_set: HashSet<QVar> = candidates.iter().copied().collect();
        let captured = window
            .iter()
            .filter(|c| {
                [c.lhs, c.rhs]
                    .into_iter()
                    .filter_map(Qual::as_var)
                    .any(|v| bound_set.contains(&v))
            })
            .copied()
            .collect();
        Scheme {
            body,
            bound: candidates,
            constraints: captured,
        }
    }

    /// Reassembles a scheme from its parts — the inverse of taking
    /// [`Scheme::body`], [`Scheme::bound_vars`], and
    /// [`Scheme::captured_constraints`] apart. Used by the incremental
    /// driver to rebuild a generalized signature from its serialized
    /// summary; the caller is responsible for the parts being coherent
    /// (constraints expressed over the bound and free variables of the
    /// receiving constraint world).
    pub fn from_parts(body: B, bound: Vec<QVar>, constraints: Vec<Constraint>) -> Scheme<B> {
        Scheme {
            body,
            bound,
            constraints,
        }
    }

    /// The quantified variables `κ⃗`.
    #[must_use]
    pub fn bound_vars(&self) -> &[QVar] {
        &self.bound
    }

    /// The captured constraints (over bound and free variables).
    #[must_use]
    pub fn captured_constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// A shared view of the body (useful for monomorphic use sites).
    #[must_use]
    pub fn body(&self) -> &B {
        &self.body
    }

    /// Whether this scheme quantifies over anything.
    #[must_use]
    pub fn is_polymorphic(&self) -> bool {
        !self.bound.is_empty()
    }

    /// Returns a scheme with every bound variable *not* in `keep`
    /// eliminated from the captured constraints (see
    /// [`crate::simplify::compact`]). The instantiation behaviour at the
    /// kept variables is unchanged; instantiation just copies fewer
    /// constraints — the practical answer to §6's presentation problem
    /// and a constant-factor win at every call site.
    #[must_use]
    pub fn simplified(self, keep: &HashSet<QVar>) -> Scheme<B> {
        let internal: HashSet<QVar> = self
            .bound
            .iter()
            .copied()
            .filter(|v| !keep.contains(v))
            .collect();
        let compacted = crate::simplify::compact(&self.constraints, &internal, 64);
        let bound = self
            .bound
            .into_iter()
            .filter(|v| keep.contains(v) || compacted.kept.contains(v))
            .collect();
        Scheme {
            body: self.body,
            bound,
            constraints: compacted.constraints,
        }
    }

    /// Instantiates the scheme: draws a fresh variable for each bound
    /// variable, emits the captured constraints (renamed) into `out`, and
    /// returns `rename_body` applied to the body and the substitution.
    ///
    /// This is rule (Var′): `A(x) = ∀κ⃗.ρ\C ⊢ x : ρ[κ⃗↦Q⃗]; C[κ⃗↦Q⃗]`.
    pub fn instantiate<R>(
        &self,
        supply: &mut VarSupply,
        out: &mut ConstraintSet,
        rename_body: impl FnOnce(&B, &dyn Fn(QVar) -> QVar) -> R,
    ) -> R {
        let map: HashMap<QVar, QVar> = self
            .bound
            .iter()
            .map(|&v| (v, supply.fresh()))
            .collect();
        let subst = |v: QVar| map.get(&v).copied().unwrap_or(v);
        out.extend(self.constraints.iter().map(|c| Constraint {
            lhs: rename_qual(c.lhs, &subst),
            rhs: rename_qual(c.rhs, &subst),
            mask: c.mask,
            origin: c.origin,
        }));
        rename_body(&self.body, &subst)
    }
}

/// A polymorphic constrained value `∀κ⃗. body \ C` whose `C` stays where
/// generation put it: in a window of the generating [`ConstraintSet`].
///
/// When a binding group's bodies are generated inside one window — every
/// bound variable issued in the index range `vars`, every constraint
/// appended in the index range `window` — and the set only grows after
/// the window closes, the constraints mentioning a bound variable all lie
/// in the window. [`Scheme::generalize_in`] over that window would copy
/// exactly them; a window scheme keeps the two ranges instead, so
/// generalization copies nothing and a binding nobody uses never costs a
/// constraint. Because the bound variables are one contiguous range,
/// instantiation renames by offset rather than through a map.
#[derive(Debug, Clone)]
pub struct WindowScheme<B> {
    body: B,
    vars: Range<usize>,
    window: Range<usize>,
}

impl<B> WindowScheme<B> {
    /// Generalizes `body` over the variables with indices in `vars`,
    /// capturing the constraints in the index range `window` of the set
    /// they were generated in.
    pub fn new(body: B, vars: Range<usize>, window: Range<usize>) -> WindowScheme<B> {
        WindowScheme { body, vars, window }
    }

    /// A shared view of the body.
    #[must_use]
    pub fn body(&self) -> &B {
        &self.body
    }

    /// The quantified variables `κ⃗`, in issue order.
    pub fn bound_vars(&self) -> impl ExactSizeIterator<Item = QVar> {
        self.vars.clone().map(QVar::from_index)
    }

    /// The index range, in the generating set, of the window the
    /// captured constraints are read from.
    #[must_use]
    pub fn window(&self) -> Range<usize> {
        self.window.clone()
    }

    fn binds(&self, v: QVar) -> bool {
        self.vars.contains(&v.index())
    }

    fn mentions_bound(&self, c: &Constraint) -> bool {
        [c.lhs, c.rhs]
            .into_iter()
            .filter_map(Qual::as_var)
            .any(|v| self.binds(v))
    }

    /// The captured constraints: those of the window in `cs` (the set
    /// the scheme was generalized in) that mention a bound variable, in
    /// order.
    pub fn captured<'c>(&'c self, cs: &'c ConstraintSet) -> impl Iterator<Item = &'c Constraint> {
        cs.constraints()[self.window.clone()]
            .iter()
            .filter(|c| self.mentions_bound(c))
    }

    /// Instantiates the scheme in `cs`, the set it was generalized in:
    /// draws one fresh variable per bound variable, re-emits the captured
    /// constraints (renamed) onto the end of `cs`, and returns
    /// `rename_body` applied to the body and the substitution. Emits
    /// exactly what [`Scheme::instantiate`] emits for the scheme
    /// [`Scheme::generalize_in`] builds over the same window and bound
    /// variables.
    pub fn instantiate<R>(
        &self,
        supply: &mut VarSupply,
        cs: &mut ConstraintSet,
        rename_body: impl FnOnce(&B, &dyn Fn(QVar) -> QVar) -> R,
    ) -> R {
        let base = supply.count();
        for _ in self.vars.clone() {
            supply.fresh();
        }
        let subst = |v: QVar| {
            if self.binds(v) {
                QVar::from_index(base + (v.index() - self.vars.start))
            } else {
                v
            }
        };
        cs.extend_from_within(self.window.clone(), |c| {
            self.mentions_bound(c).then(|| Constraint {
                lhs: rename_qual(c.lhs, &subst),
                rhs: rename_qual(c.rhs, &subst),
                mask: c.mask,
                origin: c.origin,
            })
        });
        rename_body(&self.body, &subst)
    }
}

fn rename_qual(q: Qual, subst: &impl Fn(QVar) -> QVar) -> Qual {
    match q {
        Qual::Var(v) => Qual::Var(subst(v)),
        Qual::Const(c) => Qual::Const(c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Provenance;
    use qual_lattice::QualSpace;

    #[test]
    fn monomorphic_scheme_has_no_bound_vars() {
        let s: Scheme<u32> = Scheme::monomorphic(42);
        assert!(!s.is_polymorphic());
        assert_eq!(*s.body(), 42);
    }

    #[test]
    fn generalize_captures_only_bound_constraints() {
        let mut vs = VarSupply::new();
        let (bound, free, other_free) = (vs.fresh(), vs.fresh(), vs.fresh());
        let mut cs = ConstraintSet::new();
        cs.add(bound, free); // mentions bound: captured
        cs.add(free, other_free); // free only: not captured
        let s = Scheme::generalize(bound, vec![bound], &cs);
        assert_eq!(s.captured_constraints().len(), 1);
        assert!(s.is_polymorphic());
    }

    #[test]
    fn instantiation_freshens_bound_leaves_free() {
        let space = QualSpace::const_only();
        let konst = space.parse_set("const").unwrap();
        let mut vs = VarSupply::new();
        let (bound, free) = (vs.fresh(), vs.fresh());
        let mut cs = ConstraintSet::new();
        cs.add_with(bound, free, Provenance::synthetic("body"));
        cs.add_with(Qual::Const(konst), bound, Provenance::synthetic("annot"));
        let s = Scheme::generalize(bound, vec![bound], &cs);

        let mut out = ConstraintSet::new();
        let inst1 = s.instantiate(&mut vs, &mut out, |b, f| f(*b));
        let inst2 = s.instantiate(&mut vs, &mut out, |b, f| f(*b));
        assert_ne!(inst1, bound);
        assert_ne!(inst2, bound);
        assert_ne!(inst1, inst2);
        // Each instantiation emitted both captured constraints.
        assert_eq!(out.len(), 4);
        // The free variable is untouched.
        assert!(out
            .constraints()
            .iter()
            .any(|c| c.rhs == Qual::Var(free) && c.lhs == Qual::Var(inst1)));
        assert!(out
            .constraints()
            .iter()
            .any(|c| c.rhs == Qual::Var(free) && c.lhs == Qual::Var(inst2)));
    }

    #[test]
    fn window_scheme_emits_what_the_copied_scheme_emits() {
        let space = QualSpace::const_only();
        let konst = space.parse_set("const").unwrap();
        let mut vs = VarSupply::new();
        let free = vs.fresh();
        let mut cs = ConstraintSet::new();
        cs.add(free, free); // before the window: never captured
        let (mark, cs_mark) = (vs.count(), cs.len());
        let (a, b) = (vs.fresh(), vs.fresh());
        cs.add_with(a, free, Provenance::synthetic("body"));
        cs.add_with(free, Qual::Const(konst), Provenance::synthetic("free only"));
        cs.add_with(Qual::Const(konst), b, Provenance::synthetic("annot"));
        let window = WindowScheme::new((a, b), mark..vs.count(), cs_mark..cs.len());
        assert_eq!(window.captured(&cs).count(), 2);
        assert!(window.binds(b) && !window.binds(free));

        let copied = Scheme::generalize_in((a, b), vec![a, b], &cs.constraints()[window.window()]);
        let (mut vs1, mut vs2) = (vs.clone(), vs.clone());
        let mut live = cs.clone();
        let mut out = ConstraintSet::new();
        let via_window = window.instantiate(&mut vs1, &mut live, |&(x, y), f| (f(x), f(y)));
        let via_copy = copied.instantiate(&mut vs2, &mut out, |&(x, y), f| (f(x), f(y)));
        assert_eq!(via_window, via_copy);
        assert_eq!(vs1.count(), vs2.count());
        assert_eq!(&live.constraints()[cs.len()..], out.constraints());
        assert_eq!(out.constraints()[0].rhs, Qual::Var(free));
    }

    #[test]
    fn separate_instantiations_are_independent() {
        // The paper's id example (§3.2): one use at const, one at ∅,
        // both satisfiable simultaneously after instantiation.
        let space = QualSpace::const_only();
        let konst = space.parse_set("const").unwrap();
        let mut vs = VarSupply::new();
        let x = vs.fresh(); // the qualifier on id's argument/result
        let cs = ConstraintSet::new();
        let s = Scheme::generalize(x, vec![x], &cs);

        let mut out = ConstraintSet::new();
        let i1 = s.instantiate(&mut vs, &mut out, |b, f| f(*b));
        let i2 = s.instantiate(&mut vs, &mut out, |b, f| f(*b));
        // Use 1 forces const; use 2 forces non-const.
        out.add(Qual::Const(konst), i1);
        out.add(i2, Qual::Const(space.not_q(space.id("const").unwrap())));
        let sol = out.solve(&space, &vs).expect("independent uses coexist");
        assert!(sol.least(i1).has(&space, space.id("const").unwrap()));
        assert!(!sol.greatest(i2).has(&space, space.id("const").unwrap()));
    }
}
