//! Counting "interesting" const positions (§4.4).
//!
//! A position is each pointer level of each parameter and of the result
//! of every *defined* function — e.g. `int foo(int x, int *y)` has one
//! interesting position (the contents of `y`). Each position is
//! classified three ways from the least/greatest solutions, and the
//! columns of Table 2 fall out:
//!
//! * **Declared** — `const` written in the source;
//! * **Mono/Poly** — positions that *may* be const under the respective
//!   analysis (must-const + either);
//! * **Total possible** — all interesting positions.
//!
//! This module is the rule's only home. `sites` walks the positions
//! (of a whole program for [`summarize`], of one unit's members for
//! `summary::export`), and [`tally`] classifies and counts them against
//! a solution, for [`summarize`] and for the incremental driver's merge
//! alike.

use std::collections::HashMap;

use qual_cfront::ast::{FnDef, Program};
use qual_cfront::fxhash::FxHashMap;
use qual_cfront::sema;
use qual_cfront::{CError, CTy, CTyKind};
use qual_lattice::QualSpace;
use qual_solve::{diag, Diagnostic, Phase, Qual, Solution, SolveFailure};

use crate::engine::{run, run_budgeted, Analysis, Budgets, Mode, Options, SigNodes};
use crate::qtypes::{QcArena, QcShape};
use crate::ConstInferError;

/// The three-way classification of one position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionClass {
    /// Must be const (the least solution already carries `const`).
    MustConst,
    /// Cannot be const (some write reaches it).
    MustNotConst,
    /// Unconstrained: could be either (these are the extra consts the
    /// tool reports).
    Either,
}

/// One interesting position and its analysis result.
#[derive(Debug, Clone)]
pub struct Position {
    /// The enclosing defined function.
    pub function: String,
    /// Parameter index, or `None` for the return value.
    pub param: Option<usize>,
    /// Pointer level (0 = outermost pointee).
    pub level: usize,
    /// Whether the source declared `const` here.
    pub declared: bool,
    /// The classification.
    pub class: PositionClass,
}

impl Position {
    /// Whether the analysis allows const here (class 1 or 3).
    #[must_use]
    pub fn can_be_const(self: &Position) -> bool {
        matches!(
            self.class,
            PositionClass::MustConst | PositionClass::Either
        )
    }

    /// A compact label like `f(arg 0, level 1)` or `f(return, level 0)`.
    #[must_use]
    pub fn label(&self) -> String {
        match self.param {
            Some(i) => format!("{}(arg {i}, level {})", self.function, self.level),
            None => format!("{}(return, level {})", self.function, self.level),
        }
    }
}

/// The Table-2 style totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstCounts {
    /// Consts declared in the source at interesting positions.
    pub declared: usize,
    /// Positions that may be const under this analysis.
    pub inferred: usize,
    /// All interesting positions.
    pub total: usize,
}

/// Per-qualifier may/must tallies over the interesting positions — one
/// row per coordinate of the analyzed space, in declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualCount {
    /// The qualifier's name.
    pub name: String,
    /// Positions that *may* carry the qualifier (its polarity-aware
    /// presence is possible under some solution).
    pub may: usize,
    /// Positions *forced* to carry it under every solution.
    pub must: usize,
}

/// A complete const-inference result.
#[derive(Debug)]
pub struct ConstResult {
    /// The totals.
    pub counts: ConstCounts,
    /// Per-position detail.
    pub positions: Vec<Position>,
    /// Per-qualifier tallies (one row per coordinate of the space).
    pub qual_counts: Vec<QualCount>,
    /// The raw analysis (arena, constraints, solution).
    pub analysis: Analysis,
}

impl ConstResult {
    /// Renders every defined function's signature with the inferred
    /// consts inserted — the "text of the original C program with some
    /// extra const qualifiers" the paper aims for (§4.2), restricted to
    /// signatures.
    #[must_use]
    pub fn annotated_signatures(&self, prog: &Program) -> String {
        let can = const_able(&self.positions);
        let mut out = String::new();
        for f in prog.functions() {
            let mut sig = String::new();
            sig.push_str(&render_ty_annotated(&f.ret, &can, &f.name, None));
            sig.push(' ');
            sig.push_str(&f.name);
            sig.push('(');
            for (i, (pname, pty)) in f.params.iter().enumerate() {
                if i > 0 {
                    sig.push_str(", ");
                }
                sig.push_str(&render_ty_annotated(pty, &can, &f.name, Some(i)));
                sig.push(' ');
                sig.push_str(pname);
            }
            if f.varargs {
                sig.push_str(", ...");
            }
            sig.push_str(");\n");
            out.push_str(&sig);
        }
        out
    }
}

/// Whether each position, keyed by (function, parameter, level), may
/// be const; the first listing of a position wins.
pub(crate) type ConstAble<'a> = HashMap<(&'a str, Option<usize>, usize), bool>;

/// The [`ConstAble`] table of `positions`, built once per rendering.
pub(crate) fn const_able(positions: &[Position]) -> ConstAble<'_> {
    let mut table = ConstAble::with_capacity(positions.len());
    for p in positions {
        table
            .entry((p.function.as_str(), p.param, p.level))
            .or_insert_with(|| p.can_be_const());
    }
    table
}

/// Renders a C type left-to-right with `const` inserted at every
/// const-able pointer level.
fn render_ty_annotated(
    ty: &CTy,
    table: &ConstAble<'_>,
    func: &str,
    param: Option<usize>,
) -> String {
    let can = |level: usize| table.get(&(func, param, level)).copied().unwrap_or(false);
    // Base type first.
    let mut levels = Vec::new();
    let mut cur = ty.decayed();
    while let CTyKind::Ptr(inner) = cur.kind {
        levels.push(());
        cur = inner.decayed();
    }
    let depth = levels.len();
    let base = match &cur.kind {
        CTyKind::Scalar(s) => s.to_string(),
        CTyKind::Struct(t) => format!("struct {t}"),
        other => format!("{other:?}"),
    };
    // In C reading order, the innermost pointee is written first:
    // `const char **` has level 1 (the char) as the deepest.
    let mut s = String::new();
    if depth > 0 && can(depth - 1) {
        s.push_str("const ");
    }
    s.push_str(&base);
    for lvl in (0..depth).rev() {
        s.push_str(" *");
        if lvl > 0 && can(lvl - 1) {
            s.push_str("const ");
        }
    }
    s
}

/// One interesting position before classification: its function, its
/// parameter (`None` for the result), its pointer level, whether the
/// source declared `const` there, and its qualifier term.
pub type Site<'a> = (&'a str, Option<usize>, usize, bool, Qual);

/// Every interesting position of `functions`: each pointer level of each
/// parameter in order, then of the result. [`summarize`] walks a whole
/// program and `summary::export` one unit's members, both through here.
pub(crate) fn sites<'a>(
    functions: impl Iterator<Item = &'a FnDef> + 'a,
    arena: &'a QcArena,
    signatures: &'a FxHashMap<String, SigNodes>,
) -> impl Iterator<Item = Site<'a>> + 'a {
    functions
        .filter_map(move |f| Some((f, signatures.get(&f.name)?)))
        .flat_map(move |(f, sig)| {
            // Parameters: the spine of the parameter's value.
            let params = sig.params.iter().zip(&f.params).enumerate().filter_map(
                move |(i, (cell, (_, ty)))| match arena.get(*cell).shape {
                    QcShape::Ref(value) => Some((Some(i), value, ty)),
                    _ => None,
                },
            );
            params
                .chain(std::iter::once((None, sig.ret, &f.ret)))
                .flat_map(move |(param, top, ty)| {
                    let declared = pointee_flags(ty);
                    arena.spine(top).into_iter().enumerate().map(move |(level, node)| {
                        let decl = declared.get(level).copied().unwrap_or(false);
                        (f.name.as_str(), param, level, decl, arena.get(node).qual)
                    })
                })
        })
}

/// One zeroed may/must row per coordinate of `space`.
fn qual_rows(space: &QualSpace) -> Vec<QualCount> {
    space
        .iter()
        .map(|(_, d)| QualCount {
            name: d.name().to_owned(),
            may: 0,
            must: 0,
        })
        .collect()
}

/// Classifies `sites` against a solution in one pass: a position must
/// be const when the least solution carries `const`, could be when only
/// the greatest does, and cannot be otherwise. Table 2's totals and the
/// per-qualifier may/must rows (polarity-aware, see
/// [`crate::quals::presence`]) are tallied on the way.
#[must_use]
pub fn tally<'a>(
    space: &QualSpace,
    sol: &Solution,
    sites: impl IntoIterator<Item = Site<'a>>,
) -> (Vec<Position>, ConstCounts, Vec<QualCount>) {
    let konst = space.id("const");
    let mut positions = Vec::new();
    let mut counts = ConstCounts::default();
    let mut rows = qual_rows(space);
    for (function, param, level, declared, q) in sites {
        let (lo, hi) = (sol.eval_least(q), sol.eval_greatest(q));
        for ((id, _), row) in space.iter().zip(&mut rows) {
            let (may, must) = crate::quals::presence(space, id, lo, hi);
            row.may += usize::from(may);
            row.must += usize::from(must);
        }
        // A space without `const` has no const-able positions; the
        // position list still anchors the per-qualifier rows.
        let class = match konst {
            Some(c) if lo.has(space, c) => PositionClass::MustConst,
            Some(c) if hi.has(space, c) => PositionClass::Either,
            _ => PositionClass::MustNotConst,
        };
        let p = Position {
            function: function.to_owned(),
            param,
            level,
            declared,
            class,
        };
        counts.declared += usize::from(p.declared);
        counts.inferred += usize::from(p.can_be_const());
        positions.push(p);
    }
    counts.total = positions.len();
    (positions, counts, rows)
}

/// The diagnostics a failed solve reports: one per unsat violation, or
/// one for a blown step budget or a cancelled solve.
#[must_use]
pub fn failure_diagnostics(failure: &SolveFailure) -> Vec<Diagnostic> {
    match failure {
        SolveFailure::Unsat(e) => diag::diagnostics_from_unsat(e),
        SolveFailure::BudgetExceeded { steps, limit } => vec![Diagnostic::error(
            Phase::Solve,
            format!("solver budget exceeded ({steps} of {limit} steps)"),
        )],
        SolveFailure::Cancelled { steps } => vec![Diagnostic::error(
            Phase::Solve,
            format!("solve cancelled by deadline after {steps} step(s)"),
        )],
    }
}

/// The number a `--verify` run's `certified:` line reports for a solve
/// over `constraints` constraints: all of them when it solved, the unsat
/// paths that witness a conflict, or 0 for a blown budget or a
/// cancelled solve, which claim nothing.
#[must_use]
pub fn certified(constraints: usize, solution: &Result<Solution, SolveFailure>) -> usize {
    match solution {
        Ok(_) => constraints,
        Err(SolveFailure::Unsat(e)) => e.violations.len(),
        Err(_) => 0,
    }
}

fn pointee_flags(ty: &CTy) -> Vec<bool> {
    let mut flags = Vec::new();
    let mut cur = ty.decayed();
    while let CTyKind::Ptr(inner) = cur.kind {
        flags.push(inner.is_const);
        cur = inner.decayed();
    }
    flags
}

/// End-to-end: parse, analyze, infer, count.
///
/// # Errors
///
/// Returns [`ConstInferError`] if the source fails to parse or resolve.
pub fn analyze_source(src: &str, mode: Mode) -> Result<ConstResult, ConstInferError> {
    analyze_source_in(src, &qual_lattice::QualSpace::const_only(), mode)
}

/// [`analyze_source`] over an explicit qualifier space (built with
/// [`crate::quals::space_for`] from a `--qual` list).
///
/// # Errors
///
/// Returns [`ConstInferError`] if the source fails to parse or resolve.
pub fn analyze_source_in(
    src: &str,
    space: &qual_lattice::QualSpace,
    mode: Mode,
) -> Result<ConstResult, ConstInferError> {
    let prog = qual_cfront::parse(src)?;
    let sem = sema::analyze(&prog)?;
    let analysis = run(&prog, &sem, space, mode);
    Ok(summarize(&prog, analysis))
}

/// The result of a fault-isolated end-to-end run: whatever could be
/// analyzed, plus one [`Diagnostic`] per skipped region/function.
#[derive(Debug)]
pub struct AnalysisOutcome {
    /// Counts and positions for the healthy part of the input. `None`
    /// only when the final constraint solve itself failed (unsat or
    /// solver budget exhausted) — partial *generation* failures still
    /// produce a result for the rest.
    pub result: Option<ConstResult>,
    /// When `result` is `None`, the analysis whose solve failed — its
    /// constraint set and unsat violations are what explanation tools
    /// (`cqual --explain`) walk to render the failure.
    pub failed: Option<Analysis>,
    /// The pruned program the result describes (broken items skipped,
    /// failed functions demoted to prototypes). Annotation and
    /// rewriting should use this program — it is the one the counts
    /// refer to.
    pub program: Program,
    /// Everything that was skipped, in pipeline order.
    pub skipped: Vec<Diagnostic>,
}

impl AnalysisOutcome {
    /// Whether anything at all went wrong.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty() && self.result.is_some()
    }

    /// What a `--verify` run's `certified:` line reports (see
    /// [`certified`]).
    #[must_use]
    pub fn certified(&self) -> usize {
        let analysis = self.result.as_ref().map(|r| &r.analysis);
        analysis
            .or(self.failed.as_ref())
            .map_or(0, |a| certified(a.constraints.len(), &a.solution))
    }
}

fn diag_from_cerror(phase: Phase, e: &CError) -> Diagnostic {
    Diagnostic::error(phase, e.message.clone()).with_span(e.span.lo, e.span.hi)
}

/// The front-end half of the fault-isolated pipeline: the recovered,
/// pruned program plus its semantic analysis, ready for any number of
/// [`run_budgeted`] calls (the bench harness analyzes the same unit in
/// several modes without re-parsing).
#[derive(Debug)]
pub struct RecoveredUnit {
    /// The pruned program (broken items skipped, sema-failed functions
    /// demoted to prototypes, failing global initializers dropped).
    pub program: Program,
    /// Semantic analysis of the healthy part.
    pub sema: sema::Sema,
    /// One [`Diagnostic`] per skipped region/function, in pipeline
    /// order.
    pub skipped: Vec<Diagnostic>,
}

/// Parses with recovery and resolves with per-function isolation,
/// pruning the program as faults surface. Never fails: every fault is a
/// [`Diagnostic`] in [`RecoveredUnit::skipped`].
#[must_use]
pub fn recover_front_end(src: &str) -> RecoveredUnit {
    let recovered = qual_cfront::parse_with_recovery(src);
    let mut program = recovered.program;
    let mut skipped: Vec<Diagnostic> = recovered
        .errors
        .iter()
        .map(|e| diag_from_cerror(Phase::Parse, e))
        .collect();

    let rsema = sema::analyze_with_recovery(&program);
    for (name, e) in &rsema.failed_functions {
        skipped.push(diag_from_cerror(Phase::Sema, e).with_function(name.clone()));
        program.demote_to_proto(name);
    }
    for (name, e) in &rsema.failed_globals {
        skipped.push(diag_from_cerror(Phase::Sema, e).with_function(name.clone()));
        program.drop_global_init(name);
    }
    RecoveredUnit {
        program,
        sema: rsema.sema,
        skipped,
    }
}

/// End-to-end with fault isolation: parse with recovery, analyze with
/// per-function isolation, infer under [`Budgets`], and count whatever
/// survived. Never fails and never panics — every fault becomes a
/// [`Diagnostic`] in [`AnalysisOutcome::skipped`].
#[must_use]
pub fn analyze_source_resilient(
    src: &str,
    mode: Mode,
    budgets: Budgets,
) -> AnalysisOutcome {
    analyze_source_with_options(src, mode, Options::default(), budgets)
}

/// [`analyze_source_resilient`] with explicit engine [`Options`] — in
/// particular [`Options::verify_solutions`], which certifies the solve
/// (solution checked against every constraint; unsat explained by
/// replayable constraint paths) before any count is reported.
#[must_use]
pub fn analyze_source_with_options(
    src: &str,
    mode: Mode,
    options: Options,
    budgets: Budgets,
) -> AnalysisOutcome {
    analyze_source_with_options_in(
        src,
        &qual_lattice::QualSpace::const_only(),
        mode,
        options,
        budgets,
    )
}

/// [`analyze_source_with_options`] over an explicit qualifier space.
#[must_use]
pub fn analyze_source_with_options_in(
    src: &str,
    space: &qual_lattice::QualSpace,
    mode: Mode,
    options: Options,
    budgets: Budgets,
) -> AnalysisOutcome {
    let RecoveredUnit {
        mut program,
        sema,
        mut skipped,
    } = recover_front_end(src);

    let (analysis, engine_skipped) =
        run_budgeted(&program, &sema, space, mode, options, budgets);
    // Engine-failed functions drop out of the counts the same way
    // sema-failed ones did.
    for d in &engine_skipped {
        if let Some(f) = &d.function {
            program.demote_to_proto(f);
        }
    }
    skipped.extend(engine_skipped);

    match &analysis.solution {
        Err(failure) => {
            skipped.extend(failure_diagnostics(failure));
            AnalysisOutcome {
                result: None,
                failed: Some(analysis),
                program,
                skipped,
            }
        }
        Ok(_) => AnalysisOutcome {
            result: Some(summarize(&program, analysis)),
            failed: None,
            program,
            skipped,
        },
    }
}

/// Counts positions for an existing analysis.
#[must_use]
pub fn summarize(prog: &Program, analysis: Analysis) -> ConstResult {
    let (positions, counts, qual_counts) = match &analysis.solution {
        Ok(sol) => tally(
            &analysis.space,
            sol,
            sites(prog.functions(), &analysis.arena, &analysis.signatures),
        ),
        // Nothing is classified without a solution; the per-qualifier
        // rows stay, at zero.
        Err(_) => (Vec::new(), ConstCounts::default(), qual_rows(&analysis.space)),
    };
    ConstResult {
        counts,
        positions,
        qual_counts,
        analysis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(src: &str, mode: Mode) -> ConstCounts {
        analyze_source(src, mode).expect("analyzes").counts
    }

    #[test]
    fn paper_interesting_definition() {
        // int foo(int x, int *y): exactly one interesting position.
        let c = counts("int foo(int x, int *y) { return x + *y; }", Mode::Monomorphic);
        assert_eq!(c.total, 1);
        assert_eq!(c.declared, 0);
        assert_eq!(c.inferred, 1, "y is never written: could be const");
    }

    #[test]
    fn declared_consts_are_counted() {
        let c = counts(
            "int f(const char *s, char *t) { *t = *s; return 0; }",
            Mode::Monomorphic,
        );
        assert_eq!(c.total, 2);
        assert_eq!(c.declared, 1);
        assert_eq!(c.inferred, 1, "s const; t written so not const-able");
    }

    #[test]
    fn double_pointers_have_two_positions() {
        let c = counts(
            "void f(char **argv) { argv[0] = 0; }",
            Mode::Monomorphic,
        );
        assert_eq!(c.total, 2);
        // argv[0] is written: level 0 non-const; level 1 (the chars) free.
        assert_eq!(c.inferred, 1);
    }

    #[test]
    fn return_positions_counted() {
        let c = counts(
            "char *f(char *s) { return s; }",
            Mode::Monomorphic,
        );
        assert_eq!(c.total, 2); // param pointee + return pointee
        assert_eq!(c.inferred, 2);
    }

    #[test]
    fn poly_geq_mono_on_strchr_pattern() {
        let src = "char *id(char *s) { return s; }
                   void writer(char *buf) { *id(buf) = 'x'; }
                   char *reader(char *msg) { return id(msg); }";
        let m = counts(src, Mode::Monomorphic);
        let p = counts(src, Mode::Polymorphic);
        assert_eq!(m.total, p.total);
        assert!(p.inferred > m.inferred, "poly {p:?} vs mono {m:?}");
        assert!(m.inferred >= m.declared);
    }

    #[test]
    fn annotated_signatures_render() {
        let r = analyze_source(
            "int first(char *s) { return s[0]; }",
            Mode::Monomorphic,
        )
        .unwrap();
        let prog = qual_cfront::parse("int first(char *s) { return s[0]; }").unwrap();
        let text = r.annotated_signatures(&prog);
        assert!(text.contains("const char *"), "got: {text}");
        assert!(text.contains("first"), "got: {text}");
    }

    #[test]
    fn labels_are_informative() {
        let r = analyze_source("char *f(char *s) { return s; }", Mode::Monomorphic)
            .unwrap();
        let labels: Vec<String> = r.positions.iter().map(Position::label).collect();
        assert!(labels.contains(&"f(arg 0, level 0)".to_owned()));
        assert!(labels.contains(&"f(return, level 0)".to_owned()));
    }

    #[test]
    fn const_qual_counts_match_classification() {
        let r = analyze_source(
            "int f(const char *s, char *t) { *t = *s; return 0; }",
            Mode::Monomorphic,
        )
        .unwrap();
        assert_eq!(r.qual_counts.len(), 1);
        assert_eq!(r.qual_counts[0].name, "const");
        assert_eq!(r.qual_counts[0].may, r.counts.inferred);
    }

    #[test]
    fn taint_flows_from_source_to_return() {
        let space = crate::quals::space_for("tainted").unwrap();
        let r = analyze_source_in(
            "char *getenv(const char *name);
             char *path(void) { return getenv(\"PATH\"); }",
            &space,
            Mode::Monomorphic,
        )
        .unwrap();
        let t = &r.qual_counts[0];
        assert_eq!(t.name, "tainted");
        assert!(t.must >= 1, "the returned pointer is tainted: {t:?}");
        // No `const` in the space: nothing is const-able.
        assert_eq!(r.counts.inferred, 0);
    }

    #[test]
    fn tainted_source_into_sink_is_reported() {
        let space = crate::quals::space_for("tainted").unwrap();
        let out = analyze_source_with_options_in(
            "char *getenv(const char *name);
             int system(const char *cmd);
             void f(void) { system(getenv(\"CMD\")); }",
            &space,
            Mode::Monomorphic,
            Options::default(),
            Budgets::default(),
        );
        assert!(out.result.is_none(), "taint reaching a sink is unsat");
        let rendered: Vec<String> =
            out.skipped.iter().map(ToString::to_string).collect();
        assert!(
            rendered.iter().any(|d| d.contains("tainted")
                || d.contains("sink")
                || d.contains("source")),
            "diagnostics name the taint coordinate: {rendered:?}"
        );
    }

    #[test]
    fn deref_forces_nonnull_on_parameters() {
        let space = crate::quals::space_for("nonnull").unwrap();
        let r = analyze_source_in(
            "int f(int *p) { return *p; }",
            &space,
            Mode::Monomorphic,
        )
        .unwrap();
        let nn = &r.qual_counts[0];
        assert_eq!(nn.name, "nonnull");
        assert_eq!(nn.must, 1, "deref forces the parameter nonnull: {nn:?}");
    }

    #[test]
    fn deref_of_allocator_result_is_flagged() {
        let space = crate::quals::space_for("nonnull").unwrap();
        let out = analyze_source_with_options_in(
            "char *malloc(int n);
             char first(void) { char *p = malloc(10); return *p; }",
            &space,
            Mode::Monomorphic,
            Options::default(),
            Budgets::default(),
        );
        assert!(
            out.result.is_none(),
            "unchecked deref of a may-be-null allocator result is unsat"
        );
    }

    #[test]
    fn null_literal_seeds_only_in_pointer_context() {
        let space = crate::quals::space_for("nonnull").unwrap();
        // The literal 0 assigned to a *pointer* is the null pointer
        // constant: dereferencing it afterwards is unsat.
        let out = analyze_source_with_options_in(
            "char deref_null(void) { char *p = 0; return *p; }",
            &space,
            Mode::Monomorphic,
            Options::default(),
            Budgets::default(),
        );
        assert!(out.result.is_none(), "deref of the null constant is unsat");
        // An int-valued zero is NOT null — even when K&R int/pointer
        // punning later launders the int through a pointer, the zero
        // itself never flowed into pointer context, so the program
        // stays satisfiable (this keeps legacy corpora analyzable).
        let out = analyze_source_with_options_in(
            "int zero(void) { return 0; }
             char pun(char *s) { char *p = zero(); return *p; }",
            &space,
            Mode::Monomorphic,
            Options::default(),
            Budgets::default(),
        );
        assert!(
            out.result.is_some(),
            "int-valued zero must not seed null: {:?}",
            out.skipped
        );
    }

    #[test]
    fn three_space_analysis_keeps_const_classification() {
        let space = crate::quals::space_for("const,nonnull,tainted").unwrap();
        let r = analyze_source_in(
            "int f(const char *s, char *t) { *t = *s; return 0; }",
            &space,
            Mode::Monomorphic,
        )
        .unwrap();
        assert_eq!(r.qual_counts.len(), 3);
        // Masked coordinates do not interfere: the const column matches
        // the single-qualifier run.
        assert_eq!(r.counts.inferred, 1);
        assert_eq!(r.counts.total, 2);
    }

    #[test]
    fn errors_propagate() {
        assert!(analyze_source("int f(", Mode::Monomorphic).is_err());
        assert!(analyze_source(
            "int f(void) { return undefined_var; }",
            Mode::Monomorphic
        )
        .is_err());
    }
}
