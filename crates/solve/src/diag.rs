//! Human-readable diagnostics: renders a byte-span against its source
//! text as `line:col` plus a caret excerpt — used by the front ends to
//! report qualifier violations the way a compiler would.
//!
//! Also home of [`Diagnostic`], the unified fault record every pipeline
//! phase (lexing, parsing, sema, qualifier inference, constraint
//! solving) reports through, so a batch driver can render and count
//! failures from any layer the same way.

use std::fmt;

use qual_lattice::{Polarity, QualSet, QualSpace};

use crate::error::SolveError;
use crate::explain::Explanation;

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The subject (file, function, …) was analyzed, with caveats.
    Warning,
    /// The subject (or part of it) could not be analyzed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which pipeline stage produced a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Tokenizing source text.
    Lex,
    /// Parsing a translation unit.
    Parse,
    /// Name resolution and type checking.
    Sema,
    /// Qualifier-constraint generation.
    Infer,
    /// Constraint solving.
    Solve,
    /// Independent certification of solver results
    /// (see [`crate::verify`]).
    Verify,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Sema => "sema",
            Phase::Infer => "infer",
            Phase::Solve => "solve",
            Phase::Verify => "verify",
        })
    }
}

/// One fault from any pipeline phase: severity, phase, optional source
/// byte-span, optional function attribution, and a message. This is the
/// `skipped` side-channel currency of the fault-isolated pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Which stage reported it.
    pub phase: Phase,
    /// Byte range in the source, when known.
    pub span: Option<(u32, u32)>,
    /// The function that was skipped or implicated, when known.
    pub function: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// An error diagnostic with no span or function attribution.
    #[must_use]
    pub fn error(phase: Phase, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            phase,
            span: None,
            function: None,
            message: message.into(),
        }
    }

    /// A warning diagnostic with no span or function attribution.
    #[must_use]
    pub fn warning(phase: Phase, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(phase, message)
        }
    }

    /// Attaches a source byte range.
    #[must_use]
    pub fn with_span(mut self, lo: u32, hi: u32) -> Diagnostic {
        self.span = Some((lo, hi));
        self
    }

    /// Attributes the diagnostic to a function.
    #[must_use]
    pub fn with_function(mut self, name: impl Into<String>) -> Diagnostic {
        self.function = Some(name.into());
        self
    }

    /// Renders the diagnostic; with source text available, spans become
    /// `line:col` caret excerpts, otherwise byte offsets.
    #[must_use]
    pub fn render(&self, src: Option<&str>) -> String {
        let mut head = format!("{}[{}]", self.severity, self.phase);
        if let Some(f) = &self.function {
            head.push_str(&format!(" in `{f}`"));
        }
        match (self.span, src) {
            (Some((lo, hi)), Some(src)) => {
                format!("{head}: {}", render_span(src, lo, hi, &self.message))
            }
            (Some((lo, hi)), None) => {
                format!("{head}: {} (bytes {lo}..{hi})\n", self.message)
            }
            (None, _) => format!("{head}: {}\n", self.message),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render(None).trim_end())
    }
}

/// Renders a batch of diagnostics, one after another.
#[must_use]
pub fn render_diagnostics(src: Option<&str>, diags: &[Diagnostic]) -> String {
    diags.iter().map(|d| d.render(src)).collect()
}

fn phase_rank(p: Phase) -> u8 {
    match p {
        Phase::Lex => 0,
        Phase::Parse => 1,
        Phase::Sema => 2,
        Phase::Infer => 3,
        Phase::Solve => 4,
        Phase::Verify => 5,
    }
}

fn severity_rank(s: Severity) -> u8 {
    match s {
        Severity::Error => 0,
        Severity::Warning => 1,
    }
}

/// Sorts diagnostics into the canonical presentation order: by source
/// span (spanless last), then pipeline phase, severity, function, and
/// message. The sort is stable, so diagnostics that tie on every key
/// keep their pipeline emission order. Batch drivers sort through this
/// one function so that output order cannot depend on scheduling — a
/// parallel analysis must render the same bytes as a serial one.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        let a_span = a.span.map_or((u32::MAX, u32::MAX), |s| s);
        let b_span = b.span.map_or((u32::MAX, u32::MAX), |s| s);
        a_span
            .cmp(&b_span)
            .then_with(|| phase_rank(a.phase).cmp(&phase_rank(b.phase)))
            .then_with(|| severity_rank(a.severity).cmp(&severity_rank(b.severity)))
            .then_with(|| a.function.cmp(&b.function))
            .then_with(|| a.message.cmp(&b.message))
    });
}

/// Converts every violation of a [`SolveError`] into [`Diagnostic`]s
/// carrying the violated constraints' provenance spans.
#[must_use]
pub fn diagnostics_from_unsat(err: &SolveError) -> Vec<Diagnostic> {
    err.violations
        .iter()
        .map(|v| {
            let o = v.constraint.origin;
            let d = Diagnostic::error(
                Phase::Solve,
                format!("unsatisfiable qualifier constraint ({})", o.what),
            );
            if (o.lo, o.hi) == (0, 0) {
                d
            } else {
                d.with_span(o.lo, o.hi)
            }
        })
        .collect()
}

/// A rendered source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCol {
    /// 1-based line.
    pub line: usize,
    /// 1-based column (in bytes).
    pub col: usize,
}

/// Computes the 1-based line/column of byte offset `at` in `src`
/// (clamped to the end of the text).
#[must_use]
pub fn line_col(src: &str, at: u32) -> LineCol {
    let at = (at as usize).min(src.len());
    let mut line = 1;
    let mut col = 1;
    for b in src.as_bytes()[..at].iter() {
        if *b == b'\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    LineCol { line, col }
}

/// Renders a single-span diagnostic:
///
/// ```text
/// error: <message>
///   --> 3:7
///    |
///  3 | y := 0;
///    |   ^^
/// ```
#[must_use]
pub fn render_span(src: &str, lo: u32, hi: u32, message: &str) -> String {
    let pos = line_col(src, lo);
    let mut out = format!("error: {message}\n  --> {}:{}\n", pos.line, pos.col);
    out.push_str(&render_excerpt(src, lo, hi));
    out
}

/// The caret-excerpt body of [`render_span`] — just the gutter, the
/// offending line, and the carets, with no `error:`/`-->` header — so
/// multi-step renderings (like explanation paths) can reuse it.
#[must_use]
pub fn render_excerpt(src: &str, lo: u32, hi: u32) -> String {
    let pos = line_col(src, lo);
    // Extract the offending line.
    let line_start = src[..(lo as usize).min(src.len())]
        .rfind('\n')
        .map_or(0, |i| i + 1);
    let line_end = src[line_start..]
        .find('\n')
        .map_or(src.len(), |i| line_start + i);
    let text = &src[line_start..line_end];
    let gutter = format!("{:>4}", pos.line);
    let mut out = format!("{} |\n", " ".repeat(gutter.len()));
    out.push_str(&format!("{gutter} | {text}\n"));
    let caret_start = (lo as usize).saturating_sub(line_start);
    let caret_len = ((hi.max(lo + 1) as usize).min(line_end) - (lo as usize).min(line_end))
        .max(1)
        .min(text.len().saturating_sub(caret_start).max(1));
    out.push_str(&format!(
        "{} | {}{}\n",
        " ".repeat(gutter.len()),
        " ".repeat(caret_start),
        "^".repeat(caret_len)
    ));
    out
}

/// Renders an unsat [`Explanation`] as a CQual-style error path: a
/// headline naming the offending qualifier, then the constraint chain
/// from the constant source to the violated bound, each step with its
/// provenance and (when the source text is available) a `line:col`
/// caret excerpt.
///
/// ```text
/// error: qualifier `const` reaches a position that must not be `const`
///   constraint path (3 steps):
///    1. const ⊑ κ2            declared const pointee
///       --> 1:8
///        |
///      1 | void f(const char *s) { *s = 'x'; }
///        |        ^^^^^^^^^^^^
///    2. κ2 ⊑ κ5               argument
///    3. κ5 ⊑ ¬const           assignment through pointer
/// ```
#[must_use]
pub fn render_explanation(
    src: Option<&str>,
    space: &QualSpace,
    exp: &Explanation,
) -> String {
    let (name, polarity) = coordinate_of(space, exp.qualifier);
    let mut out = match polarity {
        Polarity::Positive => format!(
            "error: qualifier `{name}` reaches a position that must not be `{name}`\n"
        ),
        Polarity::Negative => format!(
            "error: a value possibly lacking `{name}` reaches a position that requires `{name}`\n"
        ),
    };
    out.push_str(&format!(
        "  constraint path ({} step{}):\n",
        exp.steps.len(),
        if exp.steps.len() == 1 { "" } else { "s" }
    ));
    for (i, step) in exp.steps.iter().enumerate() {
        out.push_str(&format!(
            "  {:>2}. {:<24} {}\n",
            i + 1,
            step.render(space),
            step.origin.what
        ));
        let o = step.origin;
        if (o.lo, o.hi) == (0, 0) {
            continue;
        }
        match src {
            Some(src) => {
                let pos = line_col(src, o.lo);
                out.push_str(&format!("      --> {}:{}\n", pos.line, pos.col));
                for line in render_excerpt(src, o.lo, o.hi).lines() {
                    out.push_str("      ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
            None => {
                out.push_str(&format!("      --> bytes {}..{}\n", o.lo, o.hi));
            }
        }
    }
    out
}

/// Names a single-coordinate qualifier set against its space; falls back
/// to the raw set rendering (treated as positive) when the set is not a
/// declared coordinate.
fn coordinate_of(space: &QualSpace, q: QualSet) -> (String, Polarity) {
    for (id, decl) in space.iter() {
        if 1u64 << id.index() == q.bits() {
            return (decl.name().to_owned(), decl.polarity());
        }
    }
    (space.render(q), Polarity::Positive)
}

/// Renders every violation of a [`SolveError`] against the source text
/// the constraints' provenances refer to.
#[must_use]
pub fn render_violations(src: &str, err: &SolveError) -> String {
    let mut out = String::new();
    for v in &err.violations {
        let o = v.constraint.origin;
        out.push_str(&render_span(
            src,
            o.lo,
            o.hi,
            &format!("unsatisfiable qualifier constraint ({})", o.what),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_basics() {
        let src = "abc\ndef\nghi";
        assert_eq!(line_col(src, 0), LineCol { line: 1, col: 1 });
        assert_eq!(line_col(src, 3), LineCol { line: 1, col: 4 });
        assert_eq!(line_col(src, 4), LineCol { line: 2, col: 1 });
        assert_eq!(line_col(src, 9), LineCol { line: 3, col: 2 });
        // Clamped past the end.
        assert_eq!(line_col(src, 1000), LineCol { line: 3, col: 4 });
    }

    #[test]
    fn render_span_points_at_the_text() {
        let src = "let x = 1 in\ny := 0\nni";
        let d = render_span(src, 13, 19, "assignment through const");
        assert!(d.contains("--> 2:1"), "{d}");
        assert!(d.contains("y := 0"), "{d}");
        assert!(d.contains("^^^^^^"), "{d}");
    }

    #[test]
    fn caret_clamps_to_line() {
        let src = "short";
        let d = render_span(src, 2, 100, "x");
        assert!(d.contains("^^^"), "{d}");
        let d = render_span(src, 0, 0, "zero-width");
        assert!(d.contains('^'), "{d}");
    }

    #[test]
    fn diagnostic_renders_with_and_without_source() {
        let src = "int f(void) { return 1; }";
        let d = Diagnostic::error(Phase::Sema, "unknown variable `y`")
            .with_span(14, 20)
            .with_function("f");
        let with = d.render(Some(src));
        assert!(with.contains("error[sema] in `f`"), "{with}");
        assert!(with.contains("--> 1:15"), "{with}");
        assert!(with.contains("return 1"), "{with}");
        let without = d.render(None);
        assert!(without.contains("bytes 14..20"), "{without}");
        assert!(d.to_string().contains("unknown variable"), "{d}");
        let w = Diagnostic::warning(Phase::Infer, "skipped");
        assert!(w.render(None).starts_with("warning[infer]"), "{w}");
    }

    #[test]
    fn sort_orders_by_span_then_phase_and_is_stable() {
        let mk = |phase, lo_hi: Option<(u32, u32)>, f: &str, msg: &str| {
            let d = Diagnostic::error(phase, msg).with_function(f);
            match lo_hi {
                Some((lo, hi)) => d.with_span(lo, hi),
                None => d,
            }
        };
        let mut diags = vec![
            mk(Phase::Verify, None, "z", "spanless verify"),
            mk(Phase::Solve, Some((40, 44)), "g", "late span"),
            mk(Phase::Infer, Some((40, 44)), "g", "same span, earlier phase"),
            mk(Phase::Parse, Some((3, 7)), "f", "early span"),
            mk(Phase::Sema, None, "a", "spanless sema"),
        ];
        sort_diagnostics(&mut diags);
        let order: Vec<&str> =
            diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            order,
            [
                "early span",
                "same span, earlier phase",
                "late span",
                "spanless sema",
                "spanless verify",
            ]
        );

        // Any permutation of the same multiset sorts to identical bytes —
        // the property every venue relies on to print the same bytes.
        let mut rotated = vec![
            diags[3].clone(),
            diags[0].clone(),
            diags[4].clone(),
            diags[2].clone(),
            diags[1].clone(),
        ];
        sort_diagnostics(&mut rotated);
        assert_eq!(rotated, diags);

        // Stability: full ties keep their emission order.
        let twin_a = mk(Phase::Infer, Some((1, 2)), "f", "twin");
        let twin_b = mk(Phase::Infer, Some((1, 2)), "f", "twin");
        let mut twins = vec![twin_a.clone(), twin_b];
        sort_diagnostics(&mut twins);
        assert_eq!(twins[0], twin_a);
    }

    #[test]
    fn unsat_becomes_solve_diagnostics() {
        use crate::constraint::ConstraintSet;
        use crate::term::{Provenance, Qual, VarSupply};
        use qual_lattice::QualSpace;

        let space = QualSpace::const_only();
        let mut vs = VarSupply::new();
        let v = vs.fresh();
        let mut cs = ConstraintSet::new();
        cs.add_with(Qual::Const(space.top()), v, Provenance::synthetic("decl"));
        cs.add_with(v, Qual::Const(space.bottom()), Provenance::at(3, 7, "store"));
        let err = cs.solve(&space, &vs).unwrap_err();
        let ds = diagnostics_from_unsat(&err);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].phase, Phase::Solve);
        assert_eq!(ds[0].span, Some((3, 7)));
        assert!(ds[0].message.contains("store"), "{}", ds[0].message);
    }

    #[test]
    fn violations_render_against_source() {
        use crate::constraint::ConstraintSet;
        use crate::term::{Provenance, Qual, VarSupply};
        use qual_lattice::QualSpace;

        let src = "x := 0";
        let space = QualSpace::const_only();
        let mut vs = VarSupply::new();
        let v = vs.fresh();
        let mut cs = ConstraintSet::new();
        cs.add_with(
            Qual::Const(space.top()),
            v,
            Provenance::synthetic("declared const"),
        );
        cs.add_with(
            v,
            Qual::Const(space.bottom()),
            Provenance::at(0, 6, "assignment"),
        );
        let err = cs.solve(&space, &vs).unwrap_err();
        let d = render_violations(src, &err);
        assert!(d.contains("assignment"), "{d}");
        assert!(d.contains("x := 0"), "{d}");
    }
}
