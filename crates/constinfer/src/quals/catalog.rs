//! The built-in qualifier catalog: every qualifier `cqual --qual` can
//! name, with the checking rules it registers at the §2.4 choice points.
//!
//! Each entry is a pure data record; [`crate::quals::rules::ActiveRules`]
//! compiles the records for one requested [`QualSpace`] into flat lists
//! the engine iterates per choice point. A name declared in a space but
//! absent from the catalog is a plain lattice coordinate with no rules —
//! it still solves word-parallel and still shows up in reports.

use std::fmt::Write as _;

use qual_lattice::{Polarity, QualSpace, QualSpaceBuilder, SpaceError};

/// One built-in qualifier: identity, polarity, and choice-point rules.
///
/// The rule fields are deliberately restricted to the two masked
/// constraint shapes the solver already handles (forbid / seed, see the
/// module docs of [`crate::quals`]), so adding a qualifier here never
/// adds a code path to the engine.
#[derive(Debug, Clone, Copy)]
pub struct QualDef {
    /// Source-level name (`--qual` spelling).
    pub name: &'static str,
    /// Subtyping direction (Definition 1).
    pub polarity: Polarity,
    /// One-line description for `--list-quals`.
    pub summary: &'static str,
    /// Assignment choice point: writing through a reference forbids the
    /// qualifier on the written cell (the §2.4 (Assign′) restriction;
    /// `const` is the canonical user).
    pub forbid_write: bool,
    /// Deref choice point: dereferencing a value forbids the qualifier's
    /// *bad* state on the pointer (present for positive `tainted`,
    /// absent for negative `nonnull`). The string is the provenance
    /// label diagnostics render.
    pub deref_forbid: Option<&'static str>,
    /// Call choice point, producer side: library functions whose return
    /// value is seeded with the qualifier's bad state.
    pub seed_sources: &'static [&'static str],
    /// Provenance label for [`QualDef::seed_sources`] seeds.
    pub source_label: &'static str,
    /// Call choice point, consumer side: library functions whose
    /// arguments must not carry the qualifier's bad state.
    pub sink_forbids: &'static [&'static str],
    /// Provenance label for [`QualDef::sink_forbids`] checks.
    pub sink_label: &'static str,
    /// Whether the integer literal `0` (C's null pointer constant) seeds
    /// the qualifier's bad state, with the given provenance label.
    pub null_seed: Option<&'static str>,
    /// Static metrics-counter names (`qual_obs` requires `'static`):
    /// `analysis.<name>.may` and `analysis.<name>.must`.
    pub counter_may: &'static str,
    pub counter_must: &'static str,
}

/// Standard allocator functions: their returns may be null.
const ALLOCATORS: &[&str] = &["malloc", "calloc", "realloc"];

/// Library functions whose returns carry attacker-controlled data.
const TAINT_SOURCES: &[&str] = &["getenv", "gets", "fgets", "readline", "tmpnam"];

/// Library functions whose arguments reach a command/path interpreter.
const TAINT_SINKS: &[&str] = &[
    "system", "popen", "execl", "execle", "execlp", "execv", "execve",
    "execvp", "fopen", "unlink", "remove",
];

/// The built-in catalog, in canonical declaration order.
///
/// Every entry registers at least one choice-point rule: a qualifier
/// whose discipline no rule enforces would check nothing, so it has no
/// entry here.
pub static BUILTINS: &[QualDef] = &[
    QualDef {
        name: "const",
        polarity: Polarity::Positive,
        summary: "C const: no writes through qualified references (§4)",
        forbid_write: true,
        deref_forbid: None,
        seed_sources: &[],
        source_label: "",
        sink_forbids: &[],
        sink_label: "",
        null_seed: None,
        counter_may: "analysis.const.may",
        counter_must: "analysis.const.must",
    },
    QualDef {
        name: "nonnull",
        polarity: Polarity::Negative,
        summary: "pointer is never null; deref of possibly-null is flagged",
        forbid_write: false,
        deref_forbid: Some("dereference of possibly-null pointer"),
        seed_sources: ALLOCATORS,
        source_label: "may return null",
        sink_forbids: &[],
        sink_label: "",
        null_seed: Some("null literal"),
        counter_may: "analysis.nonnull.may",
        counter_must: "analysis.nonnull.must",
    },
    QualDef {
        name: "tainted",
        polarity: Polarity::Positive,
        summary: "attacker-controlled data; must not reach sinks or be deref'd",
        forbid_write: false,
        deref_forbid: Some("dereference of tainted value"),
        seed_sources: TAINT_SOURCES,
        source_label: "tainted source",
        sink_forbids: TAINT_SINKS,
        sink_label: "untrusted sink argument",
        null_seed: None,
        counter_may: "analysis.tainted.may",
        counter_must: "analysis.tainted.must",
    },
];

/// The full catalog in canonical order.
#[must_use]
pub fn builtins() -> &'static [QualDef] {
    BUILTINS
}

/// Looks a built-in up by name.
#[must_use]
pub fn builtin(name: &str) -> Option<&'static QualDef> {
    BUILTINS.iter().find(|d| d.name == name)
}

/// Error from [`space_for`]: an unknown name or an invalid combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QualSetError {
    /// A requested name is not in the catalog.
    Unknown(String),
    /// The same name was requested twice, or the set was empty.
    Invalid(String),
}

impl std::fmt::Display for QualSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QualSetError::Unknown(n) => {
                let known: Vec<&str> = BUILTINS.iter().map(|d| d.name).collect();
                write!(
                    f,
                    "unknown qualifier `{n}` (available: {})",
                    known.join(", ")
                )
            }
            QualSetError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for QualSetError {}

/// Builds the [`QualSpace`] for a comma-separated `--qual` list, e.g.
/// `"const,nonnull,tainted"`. Names keep the order given (the
/// order fixes coordinate indices, report columns, and the cache key),
/// and every name must be a catalog entry.
///
/// # Errors
///
/// Returns [`QualSetError`] for unknown names, duplicates, or an empty
/// list.
pub fn space_for(list: &str) -> Result<QualSpace, QualSetError> {
    let mut b = QualSpaceBuilder::new();
    let mut any = false;
    for raw in list.split(',') {
        let name = raw.trim();
        if name.is_empty() {
            continue;
        }
        let Some(def) = builtin(name) else {
            return Err(QualSetError::Unknown(name.to_owned()));
        };
        b = match def.polarity {
            Polarity::Positive => b.positive(def.name),
            Polarity::Negative => b.negative(def.name),
        };
        any = true;
    }
    if !any {
        return Err(QualSetError::Invalid(
            "empty qualifier list (expected e.g. `const,tainted`)".to_owned(),
        ));
    }
    b.build().map_err(|e| match e {
        SpaceError::DuplicateName(n) => {
            QualSetError::Invalid(format!("qualifier `{n}` requested twice"))
        }
        other => QualSetError::Invalid(other.to_string()),
    })
}

/// The canonical `--qual` spelling of a space: its qualifier names,
/// comma-joined in declaration order. Round-trips through [`space_for`]
/// for spaces made of catalog names; carried on the wire (QSP1
/// Analyze) and hashed into cache keys.
#[must_use]
pub fn space_names(space: &QualSpace) -> String {
    let mut out = String::new();
    for (_, d) in space.iter() {
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(d.name());
    }
    out
}

/// Renders the `--list-quals` table: one line per built-in with its
/// polarity and summary.
#[must_use]
pub fn list_builtins() -> String {
    let mut out = String::new();
    for d in BUILTINS {
        let _ = writeln!(out, "{:<10} {:<9} {}", d.name, d.polarity.to_string(), d.summary);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quals::ActiveRules;

    #[test]
    fn every_builtin_resolves_by_name() {
        for d in builtins() {
            assert_eq!(builtin(d.name).unwrap().name, d.name);
        }
        assert!(builtin("bogus").is_none());
    }

    #[test]
    fn space_for_keeps_request_order() {
        let s = space_for("tainted,const").unwrap();
        assert_eq!(s.id("tainted").unwrap().index(), 0);
        assert_eq!(s.id("const").unwrap().index(), 1);
        assert_eq!(space_names(&s), "tainted,const");
    }

    #[test]
    fn space_for_const_matches_const_only() {
        assert_eq!(space_for("const").unwrap(), QualSpace::const_only());
    }

    #[test]
    fn space_for_respects_polarity() {
        let s = space_for("const,nonnull").unwrap();
        assert_eq!(
            s.decl(s.id("nonnull").unwrap()).polarity(),
            Polarity::Negative
        );
        assert_eq!(
            s.decl(s.id("const").unwrap()).polarity(),
            Polarity::Positive
        );
    }

    #[test]
    fn space_for_rejects_bad_input() {
        assert!(matches!(space_for("bogus"), Err(QualSetError::Unknown(_))));
        assert!(matches!(space_for(""), Err(QualSetError::Invalid(_))));
        assert!(matches!(
            space_for("const,const"),
            Err(QualSetError::Invalid(_))
        ));
        let msg = space_for("frobnicated").unwrap_err().to_string();
        assert!(msg.contains("available:"), "{msg}");
        assert!(msg.contains("tainted"), "{msg}");
    }

    #[test]
    fn space_names_round_trips() {
        for list in ["const", "const,nonnull,tainted", "tainted,nonnull"] {
            let s = space_for(list).unwrap();
            assert_eq!(space_names(&s), list);
            assert_eq!(space_for(&space_names(&s)).unwrap(), s);
        }
    }

    #[test]
    fn list_builtins_mentions_everything() {
        let table = list_builtins();
        for d in builtins() {
            assert!(table.contains(d.name), "{table}");
            assert!(table.contains(d.summary), "{table}");
        }
    }

    #[test]
    fn every_builtin_registers_a_rule() {
        for d in builtins() {
            let r = ActiveRules::compile(&space_for(d.name).unwrap());
            let lists = [
                r.write_forbids.len(),
                r.deref_forbids.len(),
                r.null_seeds.len(),
                r.source_seeds.len(),
                r.sink_forbids.len(),
            ];
            assert!(lists.iter().any(|&n| n > 0), "`{}` checks nothing", d.name);
        }
    }

    #[test]
    fn counter_names_are_consistent() {
        for d in builtins() {
            assert_eq!(d.counter_may, format!("analysis.{}.may", d.name));
            assert_eq!(d.counter_must, format!("analysis.{}.must", d.name));
        }
    }
}
