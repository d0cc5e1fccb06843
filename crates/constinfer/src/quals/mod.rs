//! The qualifier-analysis registry: pluggable multi-qualifier spaces for
//! the C pipeline.
//!
//! The paper's thesis (§2) is *user-defined* type qualifiers, and §2.4
//! fixes the "choice points" where a qualifier's discipline hooks into
//! the type rules: assignment, function call, dereference, and
//! arithmetic. This module makes those hooks concrete for the C engine:
//!
//! * [`catalog`] — the built-in qualifier definitions (`const`,
//!   `nonnull`, `tainted`, and the substructural `relevant`/`affine`/
//!   `linear` family), each carrying its polarity, a one-line summary,
//!   and the checking rules it registers at the choice points;
//! * [`rules`] — [`ActiveRules`], the per-engine
//!   compilation of a [`QualSpace`] into flat rule lists the
//!   constraint-generation hot path iterates without any name lookups.
//!
//! Every rule is one of two masked-constraint shapes over the product
//! lattice, so N qualifiers still solve in one word-parallel
//! propagation pass:
//!
//! * **forbid** — `Q ⊑ ¬q` masked to `q`'s coordinate: the §2.4
//!   restriction generalized (write-through-`const`, deref-of-`tainted`,
//!   deref-of-possibly-null, pointer-arithmetic on `linear`);
//! * **seed** — a masked constant lower bound putting `q`'s coordinate
//!   at the top of its two-point lattice (a `tainted` source return, a
//!   may-return-null allocator, the `0` literal for `nonnull`).
//!
//! Unsatisfiable combinations (a seed flowing into a forbid) surface
//! through the existing certified unsat-explanation machinery, which
//! names the failing coordinate — so `deref of tainted value` and
//! `assignment` (through const) render as distinct spanned diagnostics
//! with no qualifier-specific error code paths.

pub mod catalog;
pub mod rules;

pub use catalog::{
    builtin, builtins, list_builtins, space_for, space_names, QualDef,
};
pub use rules::ActiveRules;

use qual_lattice::{Polarity, QualId, QualSet, QualSpace};

/// The (may, must) presence of qualifier `id` at a position whose
/// qualifier variable evaluates to `least`/`greatest` under the two
/// extremal solutions.
///
/// "Present" follows the qualifier's polarity (see [`QualSet::has`]);
/// the polarity also decides which extreme witnesses possibility: a
/// positive qualifier is *possible* when the greatest solution carries
/// it and *forced* when even the least does, while a negative qualifier
/// (whose presence sits at the *bottom* of its coordinate) is possible
/// when the least solution carries it and forced when even the greatest
/// does. In both cases `must` implies `may`.
#[must_use]
pub fn presence(
    space: &QualSpace,
    id: QualId,
    least: QualSet,
    greatest: QualSet,
) -> (bool, bool) {
    let (possible, forced) = match space.decl(id).polarity() {
        Polarity::Positive => (greatest, least),
        Polarity::Negative => (least, greatest),
    };
    (possible.has(space, id), forced.has(space, id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presence_must_implies_may_everywhere() {
        let space = space_for("const,nonnull,tainted,linear").unwrap();
        for (id, _) in space.iter() {
            for lo in space.elements() {
                for hi in space.elements() {
                    if !space.le(lo, hi) {
                        continue;
                    }
                    let (may, must) = presence(&space, id, lo, hi);
                    assert!(!must || may, "{id}: must without may");
                }
            }
        }
    }

    #[test]
    fn presence_matches_polarity_extremes() {
        let space = space_for("const,nonnull").unwrap();
        let c = space.id("const").unwrap();
        let nn = space.id("nonnull").unwrap();
        // Unconstrained position: everything possible, nothing forced.
        let (may, must) = presence(&space, c, space.bottom(), space.top());
        assert!(may && !must);
        let (may, must) = presence(&space, nn, space.bottom(), space.top());
        assert!(may && !must);
        // Pinned to ⊤: const forced; nonnull (negative) impossible.
        let (may, must) = presence(&space, c, space.top(), space.top());
        assert!(may && must);
        let (may, must) = presence(&space, nn, space.top(), space.top());
        assert!(!may && !must);
        // Pinned to ⊥: const impossible; nonnull forced.
        let (may, must) = presence(&space, c, space.bottom(), space.bottom());
        assert!(!may && !must);
        let (may, must) = presence(&space, nn, space.bottom(), space.bottom());
        assert!(may && must);
    }
}
