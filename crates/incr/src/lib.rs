//! `cqual`'s library half: the `cquald` daemon ([`serve`]), its wire
//! protocol ([`proto`]) and the on-disk summary container ([`cache`]).
//!
//! Every venue runs one pipeline. Plain `cqual`, a `cquald` request and
//! `cqual --connect` all call the whole-program engine
//! ([`qual_constinfer::analyze_source_with_options_in`]), which analyses
//! the function dependence graph's SCCs in reverse topological order
//! inside one constraint system (§3.1, §4.3 of the paper).
//!
//! [`analyze_source_incremental`] is a thin adapter over that same
//! engine call, kept with [`IncrConfig`] and [`IncrOutcome`] only
//! because the benchmark harness compiles against them. DESIGN.md §11
//! records the unit driver they used to front.

pub mod cache;
pub mod proto;
pub mod serve;

use std::path::PathBuf;

use qual_constinfer::count::QualCount;
use qual_constinfer::{
    analyze_source_with_options_in, Budgets, ConstCounts, Mode, Options, Position,
};
use qual_lattice::QualSpace;
use qual_solve::Diagnostic;

/// Configuration for one [`analyze_source_incremental`] run.
#[derive(Debug, Clone)]
pub struct IncrConfig {
    /// Analysis mode.
    pub mode: Mode,
    /// The qualifier space to analyze over (built with
    /// [`qual_constinfer::quals::space_for`] from a `--qual` list).
    pub space: QualSpace,
    /// Engine options.
    pub options: Options,
    /// Resource budgets, as the engine applies them.
    pub budgets: Budgets,
    /// Unread: every run is one engine run on the calling thread.
    pub jobs: usize,
    /// Unread: nothing is cached.
    pub cache_dir: Option<PathBuf>,
    /// `cquald`'s bound on one request's gross allocation, in MiB
    /// ([`serve::ServeConfig::incr`]); the adapter ignores it (a
    /// per-fault-unit bound is [`Budgets::max_unit_bytes`]). Only
    /// enforced in binaries that install the
    /// [`qual_obs::mem::TrackingAlloc`] shim; `None` disables it.
    pub memory_budget_mb: Option<u64>,
}

impl Default for IncrConfig {
    fn default() -> IncrConfig {
        IncrConfig {
            mode: Mode::Polymorphic,
            space: QualSpace::const_only(),
            options: Options::default(),
            budgets: Budgets::default(),
            jobs: 1,
            cache_dir: None,
            memory_budget_mb: None,
        }
    }
}

/// What one engine run reports: the counts, positions and diagnostics
/// of [`qual_constinfer::AnalysisOutcome`].
#[derive(Debug)]
pub struct IncrOutcome {
    /// Table-2 style totals; `None` when solving failed.
    pub counts: Option<ConstCounts>,
    /// Per-qualifier may/must tallies, one row per coordinate of the
    /// analyzed space in declaration order; empty when solving failed.
    pub qual_counts: Vec<QualCount>,
    /// Per-position classification, in program order.
    pub positions: Vec<Position>,
    /// Analysis diagnostics (front end, engine faults, solve), in
    /// pipeline order.
    pub skipped: Vec<Diagnostic>,
    /// Always empty: nothing is cached.
    pub cache_diags: Vec<Diagnostic>,
}

/// Runs the engine on `src` under `cfg`. Never panics on bad input;
/// every fault is a structured diagnostic.
#[must_use]
pub fn analyze_source_incremental(src: &str, cfg: &IncrConfig) -> IncrOutcome {
    let outcome =
        analyze_source_with_options_in(src, &cfg.space, cfg.mode, cfg.options, cfg.budgets);
    let (counts, qual_counts, positions) = match outcome.result {
        Some(r) => (Some(r.counts), r.qual_counts, r.positions),
        None => (None, Vec::new(), Vec::new()),
    };
    IncrOutcome {
        counts,
        qual_counts,
        positions,
        skipped: outcome.skipped,
        cache_diags: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn incr(src: &str, cfg: &IncrConfig) -> IncrOutcome {
        analyze_source_incremental(src, cfg)
    }

    #[test]
    fn trivial_program_counts_match_serial() {
        let src = "int first(char *s) { return s[0]; }";
        let cfg = IncrConfig {
            mode: Mode::Monomorphic,
            ..IncrConfig::default()
        };
        let out = incr(src, &cfg);
        assert!(out.skipped.is_empty(), "{:?}", out.skipped);
        let counts = out.counts.expect("solves");
        let serial = qual_constinfer::analyze_source(src, Mode::Monomorphic)
            .expect("serial analyzes");
        assert_eq!(counts, serial.counts);
    }

    #[test]
    fn strchr_pattern_poly_beats_mono_incrementally() {
        // The §1 motivating example: a helper reused in const and
        // non-const contexts gains positions only under polymorphism.
        let src = "char *id(char *s) { return s; }
                   void writer(char *buf) { *id(buf) = 'x'; }
                   char *reader(char *msg) { return id(msg); }";
        let count_in = |mode: Mode| {
            let out = incr(
                src,
                &IncrConfig {
                    mode,
                    ..IncrConfig::default()
                },
            );
            assert!(out.skipped.is_empty(), "{mode:?}: {:?}", out.skipped);
            out.counts.expect("solves").inferred
        };
        let mono = count_in(Mode::Monomorphic);
        let poly = count_in(Mode::Polymorphic);
        let serial_mono =
            qual_constinfer::analyze_source(src, Mode::Monomorphic).unwrap();
        let serial_poly =
            qual_constinfer::analyze_source(src, Mode::Polymorphic).unwrap();
        assert_eq!(mono, serial_mono.counts.inferred);
        assert_eq!(poly, serial_poly.counts.inferred);
        assert!(poly > mono, "polymorphism must win on the strchr pattern");
    }

    #[test]
    fn positions_come_back_in_program_order() {
        let src = "int a(char *x) { return *x; }
                   int b(char *y) { return a(y); }
                   int c(char *z) { return b(z); }";
        let out = incr(src, &IncrConfig::default());
        let fns: Vec<&str> =
            out.positions.iter().map(|p| p.function.as_str()).collect();
        // a's positions strictly before b's, b's before c's.
        let first = |n: &str| fns.iter().position(|f| *f == n).unwrap();
        let last = |n: &str| fns.iter().rposition(|f| *f == n).unwrap();
        assert!(last("a") < first("b"));
        assert!(last("b") < first("c"));
    }

    #[test]
    fn jobs_do_not_change_anything() {
        // `jobs` is unread: callers that still set it get the one
        // engine run.
        let src = "int leaf1(const char *s) { return *s; }
                   int leaf2(char *s) { *s = 'x'; return 0; }
                   int up1(char *p) { return leaf1(p); }
                   int up2(char *p) { return leaf2(p); }
                   int top(char *p) { return up1(p) + up2(p); }";
        for mode in [Mode::Monomorphic, Mode::Polymorphic] {
            let run = |jobs: usize| {
                incr(
                    src,
                    &IncrConfig {
                        mode,
                        jobs,
                        ..IncrConfig::default()
                    },
                )
            };
            let (one, four) = (run(1), run(4));
            assert_eq!(one.counts, four.counts);
            assert_eq!(one.qual_counts, four.qual_counts);
            let classes = |o: &IncrOutcome| {
                o.positions
                    .iter()
                    .map(|p| (p.label(), p.class))
                    .collect::<Vec<_>>()
            };
            assert_eq!(classes(&one), classes(&four));
        }
    }
}
