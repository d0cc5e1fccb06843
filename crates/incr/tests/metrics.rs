//! The non-perturbation and consistency contracts of the observability
//! layer, enforced against the engine every `cqual` venue runs:
//!
//! * **metrics on ≡ metrics off** — collecting a report must not change
//!   counts, position classes or diagnostics by a single byte, and its
//!   overhead must stay within a generous wall-clock bound;
//! * **the report measures the run** — the `analysis.*` counters equal
//!   the outcome they were recorded from, so a metrics document can
//!   stand in for the report it rode along with.

use qual_constinfer::{analyze_source_with_options_in, AnalysisOutcome, Budgets, Mode, Options};
use qual_lattice::QualSpace;
use qual_obs::schema::validate_metrics;
use qual_obs::Report;

/// A mid-size generated corpus (deterministic cgen profile).
fn corpus() -> String {
    qual_cgen::generate(&qual_cgen::table1_profiles()[0].scaled(600))
}

/// One engine run at default options and budgets: plain `cqual`.
fn analyze_in(src: &str, space: &QualSpace, mode: Mode) -> AnalysisOutcome {
    analyze_source_with_options_in(src, space, mode, Options::default(), Budgets::default())
}

fn analyze(src: &str) -> AnalysisOutcome {
    analyze_in(src, &QualSpace::const_only(), Mode::Polymorphic)
}

/// Everything analysis-visible about an outcome, as one comparable
/// string. If metrics collection changed any of this, the layer
/// perturbed the analysis.
fn visible(out: &AnalysisOutcome, src: &str) -> String {
    let mut s = String::new();
    if let Some(r) = &out.result {
        s.push_str(&format!("{:?}\n{:?}\n", r.counts, r.qual_counts));
        s.push_str(&format!("{} constraint(s)\n", r.analysis.constraints.len()));
        for p in &r.positions {
            s.push_str(&format!("{} {:?} {}\n", p.label(), p.class, p.declared));
        }
    }
    for d in &out.skipped {
        s.push_str(&d.render(Some(src)));
    }
    s
}

#[test]
fn metrics_on_equals_metrics_off() {
    let src = corpus();
    for mode in [Mode::Monomorphic, Mode::Polymorphic] {
        let space = QualSpace::const_only();
        let off = analyze_in(&src, &space, mode);
        let (on, report) = qual_obs::scoped(|| analyze_in(&src, &space, mode));
        assert_eq!(
            visible(&off, &src),
            visible(&on, &src),
            "{mode:?}: collecting metrics changed the analysis"
        );
        // The report actually measured the run it rode along with.
        let r = on.result.as_ref().expect("the corpus solves");
        assert_eq!(
            report.counter("analysis.positions_total") as usize,
            r.counts.total
        );
        assert_eq!(
            report.counter("analysis.positions_declared") as usize,
            r.counts.declared
        );
        assert_eq!(
            report.counter("analysis.positions_inferred") as usize,
            r.counts.inferred
        );
        assert_eq!(
            report.counter("analysis.diagnostics") as usize,
            on.skipped.len()
        );
        assert_eq!(
            report.counter("cgen.constraints") as usize,
            r.analysis.constraints.len()
        );
        assert!(
            report.peaks.contains_key("mem.peak_bytes"),
            "{:?}",
            report.peaks
        );
        validate_metrics(&report.to_json("test", "any")).expect("valid doc");
    }
}

#[test]
fn multi_qualifier_run_pins_coords_peak_and_per_qual_counters() {
    // The paper's promise, measured: three qualifier spaces solve in ONE
    // word-parallel propagation pass. `solve.coords` peaks at the space
    // width, the solve enters `solve-propagate` exactly once, and each
    // qualifier's may/must tallies surface under its own pinned counter
    // names.
    let src = corpus();
    let space = qual_constinfer::space_for("const,nonnull,tainted").unwrap();
    let (out, report) = qual_obs::scoped(|| analyze_in(&src, &space, Mode::Polymorphic));
    let r = out
        .result
        .as_ref()
        .unwrap_or_else(|| panic!("{:?}", out.skipped));
    assert_eq!(report.peak_value("solve.coords"), 3);
    assert_eq!(report.spans["solve-propagate"].count, 1);
    assert_eq!(r.qual_counts.len(), 3);
    for qc in &r.qual_counts {
        assert_eq!(
            report.counter(&format!("analysis.{}.may", qc.name)),
            qc.may as u64
        );
        assert_eq!(
            report.counter(&format!("analysis.{}.must", qc.name)),
            qc.must as u64
        );
        assert!(
            qc.may >= qc.must,
            "{}: must ({}) without may ({})",
            qc.name,
            qc.must,
            qc.may
        );
    }
    // The const coordinate's tallies agree with the classic counts: a
    // position "may be const" exactly when the report classified it as
    // inferable.
    let const_qc = r.qual_counts.iter().find(|q| q.name == "const").unwrap();
    assert_eq!(const_qc.may, r.counts.inferred);
}

#[test]
fn metrics_overhead_stays_bounded() {
    // A generous bound: instrumentation is a handful of map inserts per
    // phase, so even on a noisy CI box the collected run must not cost
    // multiples of the plain one. Measured across several repetitions,
    // taking minima to shed scheduler noise.
    let src = corpus();
    let reps = 3;
    let time_plain = || {
        let t = std::time::Instant::now();
        let out = analyze(&src);
        assert!(out.result.is_some());
        t.elapsed()
    };
    let time_collected = || {
        let (out, rep) = qual_obs::scoped(|| analyze(&src));
        assert!(out.result.is_some());
        std::time::Duration::from_nanos(rep.total_ns)
    };
    // Warm up once so allocator/cache effects hit neither side.
    time_plain();
    let off = (0..reps).map(|_| time_plain()).min().unwrap();
    let on = (0..reps).map(|_| time_collected()).min().unwrap();
    // 3x + 50ms absorbs timer quantization on fast runs while still
    // catching an accidentally hot probe (say, rendering JSON per
    // span).
    let bound = off * 3 + std::time::Duration::from_millis(50);
    assert!(
        on <= bound,
        "metrics overhead too high: off={off:?} on={on:?} bound={bound:?}"
    );
}

#[test]
fn disabled_metrics_produce_empty_ambient_state() {
    // Without a collector, a full analysis records nothing anywhere —
    // the probes must not leak state between runs.
    let out = analyze("int f(const char *s) { return *s; }");
    assert!(out.result.is_some());
    let ((), rep) = qual_obs::scoped(|| {});
    assert!(rep.counters.is_empty(), "{:?}", rep.counters);
    assert!(rep.peaks.is_empty(), "{:?}", rep.peaks);
}

#[test]
fn report_merge_is_associative_over_absorb() {
    // --keep-going absorbs one nested report per file into the
    // invocation report; the result must equal collecting both runs
    // under one scope directly.
    let src_a = "int f(const char *s) { return *s; }";
    let src_b = "char *id(char *p) { return p; }";
    let strip_time = |mut r: Report| {
        r.total_ns = 0;
        r.spans.clear();
        r
    };
    let ((), nested) = qual_obs::scoped(|| {
        let (_, ra) = qual_obs::scoped(|| analyze(src_a));
        qual_obs::absorb(&ra);
        let (_, rb) = qual_obs::scoped(|| analyze(src_b));
        qual_obs::absorb(&rb);
    });
    let ((), flat) = qual_obs::scoped(|| {
        let _ = analyze(src_a);
        let _ = analyze(src_b);
    });
    assert_eq!(
        strip_time(nested),
        strip_time(flat),
        "absorb must compose like direct collection (timings aside)"
    );
}
