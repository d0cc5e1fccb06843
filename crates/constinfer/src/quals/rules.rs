//! [`ActiveRules`]: one space's choice-point rules, compiled to flat
//! lists for the constraint-generation hot path.
//!
//! Compilation happens once per engine (per work unit in the
//! incremental driver): each coordinate of the [`QualSpace`] is looked
//! up in the [`catalog`] and its rules are
//! appended in declaration order, so constraint emission order — and
//! therefore every downstream byte (reports, summaries, cache entries)
//! — is a pure function of the requested qualifier list. A space
//! containing only `const` compiles to exactly the rule set the
//! original const-only engine hardcoded, which is what keeps
//! `--qual const` byte-identical to the historical default.

use qual_lattice::{QualId, QualSet, QualSpace};

use crate::quals::catalog;

/// Library-call rules for one qualifier: the function names it matches
/// and the provenance label its constraints carry.
#[derive(Debug, Clone, Copy)]
pub struct CallRule {
    /// The qualifier coordinate.
    pub id: QualId,
    /// Provenance label rendered in diagnostics and explanations.
    pub label: &'static str,
    /// Library function names the rule fires on.
    pub fns: &'static [&'static str],
}

/// The compiled choice-point rules of one [`QualSpace`].
///
/// Every list is empty for coordinates without a catalog entry or
/// without the respective rule, so each engine hook is a (usually
/// zero-iteration) loop — the single-qualifier `const` configuration
/// pays nothing for the generality.
#[derive(Debug, Clone, Default)]
pub struct ActiveRules {
    /// Assignment: writing through a cell forbids these qualifiers on it
    /// (provenance comes from the write site, preserving the historical
    /// `const` labels).
    pub write_forbids: Vec<QualId>,
    /// Deref: `(coordinate, label)` forbidden on the dereferenced
    /// pointer value.
    pub deref_forbids: Vec<(QualId, &'static str)>,
    /// Arith: `(coordinate, label)` forbidden on a pointer-arithmetic
    /// operand.
    pub arith_forbids: Vec<(QualId, &'static str)>,
    /// The `0` literal seeds these coordinates (null pointer constant).
    pub null_seeds: Vec<(QualId, &'static str)>,
    /// Library returns seeding a coordinate.
    pub source_seeds: Vec<CallRule>,
    /// Library arguments forbidden from carrying a coordinate.
    pub sink_forbids: Vec<CallRule>,
}

impl ActiveRules {
    /// Compiles the rules of `space` from the built-in catalog.
    #[must_use]
    pub fn compile(space: &QualSpace) -> ActiveRules {
        let mut rules = ActiveRules::default();
        for (id, decl) in space.iter() {
            let Some(def) = catalog::builtin(decl.name()) else {
                continue;
            };
            if def.forbid_write {
                rules.write_forbids.push(id);
            }
            if let Some(label) = def.deref_forbid {
                rules.deref_forbids.push((id, label));
            }
            if let Some(label) = def.arith_forbid {
                rules.arith_forbids.push((id, label));
            }
            if let Some(label) = def.null_seed {
                rules.null_seeds.push((id, label));
            }
            if !def.seed_sources.is_empty() {
                rules.source_seeds.push(CallRule {
                    id,
                    label: def.source_label,
                    fns: def.seed_sources,
                });
            }
            if !def.sink_forbids.is_empty() {
                rules.sink_forbids.push(CallRule {
                    id,
                    label: def.sink_label,
                    fns: def.sink_forbids,
                });
            }
        }
        rules
    }

    /// Whether no rule of any kind is active (e.g. `--qual relevant`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.write_forbids.is_empty()
            && self.deref_forbids.is_empty()
            && self.arith_forbids.is_empty()
            && self.null_seeds.is_empty()
            && self.source_seeds.is_empty()
            && self.sink_forbids.is_empty()
    }
}

/// The masked lower bound that *seeds* coordinate `id`'s bad/owned
/// state: the element whose canonical bit for `id` is high — qualifier
/// present for a positive coordinate (`tainted` data), absent for a
/// negative one (a possibly-null `nonnull` pointer). Always used under
/// a mask of `[id]`, so the other coordinates of the constant are
/// irrelevant.
#[must_use]
pub fn seed_set(id: QualId) -> QualSet {
    QualSet::from_bits(1u64 << id.index())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quals::space_for;

    #[test]
    fn const_only_compiles_to_the_historical_rule_set() {
        let space = QualSpace::const_only();
        let rules = ActiveRules::compile(&space);
        assert_eq!(rules.write_forbids, vec![space.id("const").unwrap()]);
        assert!(rules.deref_forbids.is_empty());
        assert!(rules.arith_forbids.is_empty());
        assert!(rules.null_seeds.is_empty());
        assert!(rules.source_seeds.is_empty());
        assert!(rules.sink_forbids.is_empty());
    }

    #[test]
    fn all_four_spaces_compile_every_choice_point() {
        let space = space_for("const,nonnull,tainted,linear").unwrap();
        let rules = ActiveRules::compile(&space);
        assert_eq!(rules.write_forbids.len(), 1, "const");
        assert_eq!(rules.deref_forbids.len(), 2, "nonnull + tainted");
        assert_eq!(rules.arith_forbids.len(), 1, "linear");
        assert_eq!(rules.null_seeds.len(), 1, "nonnull");
        assert_eq!(rules.source_seeds.len(), 3, "nonnull + tainted + linear");
        assert_eq!(rules.sink_forbids.len(), 1, "tainted");
    }

    #[test]
    fn unknown_coordinates_have_no_rules() {
        let space = qual_lattice::QualSpaceBuilder::new()
            .positive("mystery")
            .build()
            .unwrap();
        assert!(ActiveRules::compile(&space).is_empty());
    }

    #[test]
    fn relevant_is_a_pure_coordinate() {
        let space = space_for("relevant").unwrap();
        assert!(ActiveRules::compile(&space).is_empty());
    }

    #[test]
    fn seed_set_is_the_raw_coordinate_bit() {
        let space = space_for("const,nonnull").unwrap();
        let nn = space.id("nonnull").unwrap();
        let seed = seed_set(nn);
        assert_eq!(seed.bits(), 1 << nn.index());
        // For the negative qualifier the high bit means *absent*: the
        // seeded value is possibly null.
        assert!(!seed.has(&space, nn));
    }
}
