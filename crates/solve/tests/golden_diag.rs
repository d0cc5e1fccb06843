//! Golden-file tests for `qual_solve::diag` rendering: span excerpts,
//! diagnostic batches, and unsat explanation paths are compared
//! byte-for-byte against fixtures under `tests/golden/`.
//!
//! To regenerate after an intentional rendering change:
//!
//! ```text
//! QUAL_BLESS=1 cargo test -p qual-solve --test golden_diag
//! ```
//!
//! then inspect the diff before committing.

use std::fs;
use std::path::PathBuf;

use qual_lattice::QualSpace;
use qual_solve::diag::{render_diagnostics, render_explanation, render_span};
use qual_solve::{explain, Diagnostic, Phase, Provenance, VarSupply};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("QUAL_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with QUAL_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "rendering drifted from {}; if intentional, re-bless with QUAL_BLESS=1",
        path.display()
    );
}

#[test]
fn span_excerpt_renders_stably() {
    let src = "int f(const char *s) {\n    *s = 0;\n    return 1;\n}\n";
    let lo = src.find("*s = 0").unwrap() as u32;
    let out = render_span(src, lo, lo + 6, "write through const pointer");
    check("span_excerpt.txt", &out);
}

#[test]
fn diagnostic_batch_renders_stably() {
    let src = "int g(int *p) {\n    bad syntax here\n    return *p;\n}\n";
    let lo = src.find("bad").unwrap() as u32;
    let diags = vec![
        Diagnostic::error(Phase::Parse, "expected `;`")
            .with_span(lo, lo + 3)
            .with_function("g"),
        Diagnostic::warning(Phase::Infer, "function body skipped").with_function("g"),
        Diagnostic::error(Phase::Verify, "solution failed certification"),
    ];
    let out = render_diagnostics(Some(src), &diags);
    check("diagnostic_batch.txt", &out);
}

/// The explanation-path fixture: a const declaration threaded through an
/// argument and a return value into an assignment, rendered both against
/// source text (line/column + excerpt) and without (byte offsets).
#[test]
fn explanation_path_renders_stably() {
    let src = "void h(const char *s) {\n    char *t = s;\n    *t = 0;\n}\n";
    let space = QualSpace::figure2();
    let mut vs = VarSupply::new();
    let mut cs = qual_solve::ConstraintSet::new();
    let konst = space.parse_set("const").unwrap();
    let nc = space.not_q(space.id("const").unwrap());
    let (a, b) = (vs.fresh(), vs.fresh());
    let decl = src.find("const char *s").unwrap() as u32;
    let init = src.find("char *t = s").unwrap() as u32;
    let store = src.find("*t = 0").unwrap() as u32;
    cs.add_with(konst, a, Provenance::at(decl, decl + 13, "declared const"));
    cs.add_with(a, b, Provenance::at(init, init + 11, "initialization"));
    cs.add_with(b, nc, Provenance::at(store, store + 6, "assignment"));
    let err = cs.solve(&space, &vs).unwrap_err();
    let exps = explain(&space, cs.constraints(), &err);
    assert_eq!(exps.len(), 1, "exactly one violation expected");

    let with_src = render_explanation(Some(src), &space, &exps[0]);
    check("explanation_path.txt", &with_src);

    let without_src = render_explanation(None, &space, &exps[0]);
    check("explanation_path_no_src.txt", &without_src);
}

/// The coalesced-cycle fixture: two pointers aliased in a cycle (so the
/// solver's cycle collapse merges their qualifier variables into one
/// class) with the const flowing through the class into a write. The
/// rendered chain must cite the *original* constraints — real source
/// spans, in program order — not the collapsed class representative.
#[test]
fn explanation_path_through_coalesced_cycle_renders_stably() {
    let src = "void k(const char *s) {\n    char *t = s;\n    char *u = t;\n    t = u;\n    *u = 0;\n}\n";
    let space = QualSpace::figure2();
    let mut vs = VarSupply::new();
    let mut cs = qual_solve::ConstraintSet::new();
    let konst = space.parse_set("const").unwrap();
    let nc = space.not_q(space.id("const").unwrap());
    let (a, b, c) = (vs.fresh(), vs.fresh(), vs.fresh());
    let decl = src.find("const char *s").unwrap() as u32;
    let init_t = src.find("char *t = s").unwrap() as u32;
    let init_u = src.find("char *u = t").unwrap() as u32;
    let back = src.find("t = u").unwrap() as u32;
    let store = src.find("*u = 0").unwrap() as u32;
    cs.add_with(konst, a, Provenance::at(decl, decl + 13, "declared const"));
    cs.add_with(a, b, Provenance::at(init_t, init_t + 11, "initialization"));
    cs.add_with(b, c, Provenance::at(init_u, init_u + 11, "initialization"));
    cs.add_with(c, b, Provenance::at(back, back + 5, "assignment"));
    cs.add_with(c, nc, Provenance::at(store, store + 6, "assignment"));

    let (solved, report) = qual_obs::scoped(|| cs.solve(&space, &vs));
    // The t/u cycle really did collapse — the fixture is worthless if
    // the collapsed path never runs.
    assert_eq!(
        report.counter("solve.collapsed"),
        1,
        "the b/c alias cycle must merge at solve time"
    );

    let err = solved.unwrap_err();
    let exps = explain(&space, cs.constraints(), &err);
    assert_eq!(exps.len(), 1, "exactly one violation expected");
    // Every step cites a real source span (no synthetic provenance from
    // the collapsed representative leaks into the chain).
    for step in &exps[0].steps {
        assert!(
            step.origin.hi > step.origin.lo,
            "step lost its original span: {step:?}"
        );
    }

    let with_src = render_explanation(Some(src), &space, &exps[0]);
    check("explanation_coalesced_cycle.txt", &with_src);
}
