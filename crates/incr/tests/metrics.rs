//! The non-perturbation and consistency contracts of the observability
//! layer, enforced against the incremental driver:
//!
//! * **metrics on ≡ metrics off** — collecting a report must not change
//!   counts, position classes, diagnostics, or stats by a single byte,
//!   and its overhead must stay within a generous wall-clock bound;
//! * **chaos interaction** — a run with fault-injected, quarantined
//!   units still produces a well-formed, schema-valid (partial) metrics
//!   document that reflects the quarantine;
//! * **`--cache-stats` consistency** — the human stats lines are
//!   rendered *from* the metrics report, so every number in them equals
//!   the corresponding counter in the JSON document, always.
//!
//! Fault plans are process-global, and the test harness runs this
//! file's tests on parallel threads, so every test holds
//! [`qual_faultpoint::test_lock`]: one test's `unit.solve` panic plan
//! must never reach another's analysis.

use qual_constinfer::Mode;
use qual_incr::{analyze_source_incremental, cache_stats_lines, IncrConfig, IncrOutcome};
use qual_obs::json::Json;
use qual_obs::schema::validate_metrics;
use qual_obs::Report;

/// A mid-size generated corpus (deterministic cgen profile).
fn corpus() -> String {
    qual_cgen::generate(&qual_cgen::table1_profiles()[0].scaled(600))
}

/// Everything analysis-visible about an outcome, as one comparable
/// string. If metrics collection changed any of this, the layer
/// perturbed the analysis.
fn visible(out: &IncrOutcome, src: &str) -> String {
    let mut s = format!("{:?}\n{:?}\n", out.counts, out.stats);
    for p in &out.positions {
        s.push_str(&format!("{} {:?} {}\n", p.label(), p.class, p.declared));
    }
    for d in &out.skipped {
        s.push_str(&d.render(Some(src)));
    }
    s
}

#[test]
fn metrics_on_equals_metrics_off() {
    let _g = qual_faultpoint::test_lock();
    let src = corpus();
    for mode in [Mode::Monomorphic, Mode::Polymorphic] {
        let cfg = IncrConfig {
            mode,
            jobs: 2,
            ..IncrConfig::default()
        };
        let off = analyze_source_incremental(&src, &cfg);
        let (on, report) =
            qual_obs::scoped(|| analyze_source_incremental(&src, &cfg));
        assert_eq!(
            visible(&off, &src),
            visible(&on, &src),
            "{mode:?}: collecting metrics changed the analysis"
        );
        // The report actually measured the run it rode along with.
        assert_eq!(report.counter("analysis.units") as usize, on.stats.units);
        assert_eq!(
            report.counter("analysis.merged_constraints") as usize,
            on.stats.constraints
        );
        assert_eq!(report.units.len(), on.stats.units);
        validate_metrics(&report.to_json("test", "any")).expect("valid doc");
    }
}

#[test]
fn multi_qualifier_run_pins_coords_peak_and_per_qual_counters() {
    let _g = qual_faultpoint::test_lock();
    // The paper's promise, measured: three qualifier spaces solve in ONE
    // word-parallel propagation pass. `solve.coords` peaks at the space
    // width, the merged solve enters `solve-propagate` exactly once,
    // and each qualifier's may/must tallies surface under its own
    // pinned counter names.
    let src = corpus();
    let space = qual_constinfer::space_for("const,nonnull,tainted").unwrap();
    let cfg = IncrConfig {
        space: space.clone(),
        ..IncrConfig::default()
    };
    let (out, report) =
        qual_obs::scoped(|| analyze_source_incremental(&src, &cfg));
    assert!(out.counts.is_some(), "{:?}", out.skipped);
    assert_eq!(report.peak_value("solve.coords"), 3);
    assert_eq!(out.qual_counts.len(), 3);
    for qc in &out.qual_counts {
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
    let c = out.counts.unwrap();
    let const_qc = out.qual_counts.iter().find(|q| q.name == "const").unwrap();
    assert_eq!(const_qc.may, c.inferred);

    // One propagation pass for all coordinates: the classic pipeline
    // under the same three spaces enters the solver span exactly once.
    let ((), rep) = qual_obs::scoped(|| {
        qual_constinfer::analyze_source_in(&src, &space, Mode::Polymorphic)
            .expect("corpus parses");
    });
    assert_eq!(rep.spans["solve-propagate"].count, 1);
    assert_eq!(rep.peak_value("solve.coords"), 3);
}

#[test]
fn metrics_overhead_stays_bounded() {
    let _g = qual_faultpoint::test_lock();
    // A generous bound: instrumentation is a handful of map inserts per
    // phase, so even on a noisy CI box the collected run must not cost
    // multiples of the plain one. Measured across several repetitions,
    // taking minima to shed scheduler noise.
    let src = corpus();
    let cfg = IncrConfig::default();
    let reps = 3;
    let time_plain = || {
        let t = std::time::Instant::now();
        let out = analyze_source_incremental(&src, &cfg);
        assert!(out.counts.is_some());
        t.elapsed()
    };
    let time_collected = || {
        let (out, rep) =
            qual_obs::scoped(|| analyze_source_incremental(&src, &cfg));
        assert!(out.counts.is_some());
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
fn quarantined_unit_still_yields_well_formed_partial_document() {
    // Serialized with the other fault-plan tests; the plan is cleared
    // before the guard drops.
    let _g = qual_faultpoint::test_lock();
    let src = "int leaf(const char *s) { return *s; }
               int mid(char *p) { return leaf(p); }
               int lone(int *q) { return *q; }";
    qual_faultpoint::install(
        qual_faultpoint::FaultPlan::parse("unit.solve@1=panic").unwrap(),
    );
    let (out, report) = qual_obs::scoped(|| {
        analyze_source_incremental(src, &IncrConfig::default())
    });
    qual_faultpoint::clear();

    assert_eq!(out.stats.quarantined, 1, "the fault must quarantine a unit");
    let doc = report.to_json("test", "poly");
    validate_metrics(&doc).expect("partial doc is still schema-valid");
    // The quarantine is visible in the document, and the healthy units
    // are all present: the doc is partial in *data*, not in *shape*.
    assert_eq!(report.counter("cache.quarantined"), 1);
    assert_eq!(report.units.len(), out.stats.units);
    assert_eq!(
        report.units.iter().filter(|u| u.outcome == "quarantined").count(),
        1
    );
    let quarantined = report
        .units
        .iter()
        .find(|u| u.outcome == "quarantined")
        .unwrap();
    assert_eq!(
        quarantined.counters.get("analysis.constraints"),
        Some(&0),
        "a quarantined unit contributes an empty summary"
    );
}

#[test]
fn cache_stats_lines_agree_with_json_counters() {
    let _g = qual_faultpoint::test_lock();
    let dir = std::env::temp_dir()
        .join(format!("qinc-metrics-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let src = "int helper(const char *s) { return *s; }
               int user(char *p) { return helper(p); }";
    let cfg = IncrConfig {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..IncrConfig::default()
    };
    // Cold then warm, so reused/stored/analyzed all take non-trivial
    // values at least once.
    for _ in 0..2 {
        let (out, report) =
            qual_obs::scoped(|| analyze_source_incremental(src, &cfg));
        let [units_line, session_line] = cache_stats_lines(&report);
        // The human lines must carry exactly the run's stats...
        let s = out.stats;
        assert_eq!(
            units_line,
            format!(
                "{} unit(s): {} analyzed, {} reused, {} corrupt, {} stored; \
                 {} wavefront(s), {} job(s), {} merged constraint(s)",
                s.units,
                s.analyzed,
                s.reused,
                s.corrupt,
                s.stored,
                s.wavefronts,
                s.jobs,
                s.constraints
            )
        );
        assert_eq!(
            session_line,
            format!("{} retry(ies), {} quarantined unit(s)", s.retries, s.quarantined)
        );
        // ...and every number in them must equal the JSON counter it
        // was rendered from — same source, so disagreement is
        // impossible by construction, and this pins that construction.
        let doc = report.to_json("test", "poly");
        let counter = |name: &str| {
            doc.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        assert_eq!(counter("analysis.units") as usize, s.units);
        assert_eq!(counter("cache.analyzed") as usize, s.analyzed);
        assert_eq!(counter("cache.reused") as usize, s.reused);
        assert_eq!(counter("cache.stored") as usize, s.stored);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unit_reports_arrive_in_unit_order_not_completion_order() {
    let _g = qual_faultpoint::test_lock();
    let src = "int a(char *x) { return *x; }
               int b(char *y) { return a(y); }
               int c(char *z) { return b(z); }";
    let run = |jobs: usize| {
        let cfg = IncrConfig {
            jobs,
            ..IncrConfig::default()
        };
        let (_, report) = qual_obs::scoped(|| analyze_source_incremental(src, &cfg));
        report
            .units
            .iter()
            .map(|u| u.label.clone())
            .collect::<Vec<_>>()
    };
    let serial = run(1);
    assert_eq!(serial[0], "globals", "globals unit always leads");
    for _ in 0..5 {
        assert_eq!(run(4), serial, "worker scheduling leaked into unit order");
    }
}

#[test]
fn disabled_metrics_produce_empty_ambient_state() {
    let _g = qual_faultpoint::test_lock();
    // Without a collector, a full analysis records nothing anywhere —
    // the probes must not leak state between runs.
    let out = analyze_source_incremental(
        "int f(const char *s) { return *s; }",
        &IncrConfig::default(),
    );
    assert!(out.counts.is_some());
    let ((), rep) = qual_obs::scoped(|| {});
    assert!(rep.counters.is_empty(), "{:?}", rep.counters);
    assert!(rep.units.is_empty());
}

#[test]
fn report_merge_is_associative_over_absorb() {
    let _g = qual_faultpoint::test_lock();
    // --keep-going absorbs one nested report per file into the
    // invocation report; the result must equal collecting both runs
    // under one scope directly.
    let src_a = "int f(const char *s) { return *s; }";
    let src_b = "char *id(char *p) { return p; }";
    let cfg = IncrConfig::default();
    let strip_time = |mut r: Report| {
        r.total_ns = 0;
        r.spans.clear();
        for u in &mut r.units {
            u.total_ns = 0;
            u.spans.clear();
        }
        r
    };
    let ((), nested) = qual_obs::scoped(|| {
        let (_, ra) = qual_obs::scoped(|| analyze_source_incremental(src_a, &cfg));
        qual_obs::absorb(&ra);
        let (_, rb) = qual_obs::scoped(|| analyze_source_incremental(src_b, &cfg));
        qual_obs::absorb(&rb);
    });
    let ((), flat) = qual_obs::scoped(|| {
        let _ = analyze_source_incremental(src_a, &cfg);
        let _ = analyze_source_incremental(src_b, &cfg);
    });
    assert_eq!(
        strip_time(nested),
        strip_time(flat),
        "absorb must compose like direct collection (timings aside)"
    );
}
