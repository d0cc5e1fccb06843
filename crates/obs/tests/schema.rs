//! Schema and golden-file tests for the metrics wire format.
//!
//! The golden fixtures under `tests/golden/` pin the exact bytes of the
//! JSON document, the human summary table, and the analysis fingerprint
//! for a synthetic report with fixed timings. To regenerate after an
//! intentional format change:
//!
//! ```text
//! QUAL_BLESS=1 cargo test -p qual-obs --test schema
//! ```
//!
//! then inspect the diff before committing. The round-trip tests pin
//! the compatibility contract: unknown fields survive a parse/render
//! cycle untouched (an older reader must not destroy a newer writer's
//! data), while a *version* from the future is rejected outright.

use std::fs;
use std::path::PathBuf;

use qual_obs::json::{parse, Json};
use qual_obs::schema::{validate_metrics, METRICS_SCHEMA};
use qual_obs::{
    analysis_fingerprint, render_summary, Report, SpanStat, UnitReport,
    METRICS_VERSION,
};

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
        "format drifted from {}; if intentional, re-bless with QUAL_BLESS=1",
        path.display()
    );
}

/// A report with every feature populated and fixed fake timings, so the
/// golden bytes are stable.
fn sample_report() -> Report {
    let mut rep = Report {
        total_ns: 1_234_567,
        ..Report::default()
    };
    for (name, ns, count) in [
        ("parse", 100_000, 1),
        ("sema", 50_000, 1),
        ("cgen-constraints", 400_000, 3),
        ("solve-propagate", 300_000, 4),
        ("certify", 20_000, 1),
        ("cache-read", 7_000, 2),
        ("cache-write", 9_000, 2),
        ("merge", 30_000, 1),
    ] {
        rep.spans.insert(name.to_owned(), SpanStat { ns, count });
    }
    for (name, n) in [
        ("analysis.units", 3),
        ("analysis.wavefronts", 2),
        ("analysis.merged_constraints", 41),
        ("cache.analyzed", 2),
        ("cache.reused", 1),
        ("cgen.constraints", 41),
        ("cgen.qvars", 17),
        ("solve.steps", 96),
    ] {
        rep.counters.insert(name.to_owned(), n);
    }
    rep.peaks.insert("arena.qtypes".to_owned(), 23);
    rep.peaks.insert("sched.jobs".to_owned(), 4);
    rep.units.push(UnitReport {
        label: "globals".to_owned(),
        outcome: "analyzed".to_owned(),
        total_ns: 200_000,
        spans: [(
            "cgen-constraints".to_owned(),
            SpanStat { ns: 150_000, count: 1 },
        )]
        .into(),
        counters: [
            ("analysis.constraints".to_owned(), 4),
            ("solve.steps".to_owned(), 12),
        ]
        .into(),
        peaks: [("arena.qtypes".to_owned(), 9)].into(),
    });
    rep.units.push(UnitReport {
        label: "helper+user".to_owned(),
        outcome: "reused".to_owned(),
        total_ns: 6_000,
        spans: [("cache-read".to_owned(), SpanStat { ns: 3_000, count: 1 })]
            .into(),
        counters: [("analysis.constraints".to_owned(), 37)].into(),
        peaks: std::collections::BTreeMap::new(),
    });
    rep
}

#[test]
fn golden_metrics_json() {
    let doc = sample_report().to_json("cqual", "poly");
    validate_metrics(&doc).expect("golden doc must validate");
    check("metrics_doc.json", &doc.render());
}

#[test]
fn golden_metrics_summary() {
    check(
        "metrics_summary.txt",
        &render_summary(&sample_report(), "cqual", "poly"),
    );
}

#[test]
fn golden_analysis_fingerprint() {
    let doc = sample_report().to_json("cqual", "poly");
    check("analysis_fingerprint.txt", &analysis_fingerprint(&doc));
}

#[test]
fn golden_schema_description() {
    // The prose schema is part of the contract: a wire-format change
    // must update both the renderer and the description, and this test
    // makes forgetting one of them loud.
    check("metrics_schema.txt", METRICS_SCHEMA);
}

#[test]
fn document_round_trips_byte_identically() {
    let rendered = sample_report().to_json("cqual", "poly").render();
    let reparsed = parse(&rendered).expect("own output parses");
    assert_eq!(reparsed.render(), rendered, "render∘parse must be identity");
}

#[test]
fn unknown_fields_survive_round_trip_and_validation() {
    let mut doc = sample_report().to_json("cqual", "poly");
    if let Json::Obj(fields) = &mut doc {
        fields.push((
            "future_extension".to_owned(),
            Json::Obj(vec![("nested".to_owned(), Json::num(7))]),
        ));
    }
    validate_metrics(&doc).expect("unknown fields are allowed at version 1");
    let rendered = doc.render();
    let reparsed = parse(&rendered).expect("parses");
    assert!(
        reparsed.get("future_extension").is_some(),
        "unknown field must survive the round trip"
    );
    assert_eq!(reparsed.render(), rendered);
}

#[test]
fn version_bump_is_rejected_but_parseable() {
    let mut doc = sample_report().to_json("cqual", "poly");
    if let Json::Obj(fields) = &mut doc {
        for (k, v) in fields.iter_mut() {
            if k == "version" {
                *v = Json::num(METRICS_VERSION + 1);
            }
        }
    }
    // The bytes still parse (so a reader can *report* the version)...
    let reparsed = parse(&doc.render()).expect("future doc still parses");
    assert_eq!(
        reparsed.get("version").and_then(Json::as_u64),
        Some(METRICS_VERSION + 1)
    );
    // ...but validation refuses to half-read it.
    let err = validate_metrics(&reparsed).unwrap_err();
    assert!(err.contains("newer than supported"), "{err}");
}

#[test]
fn real_collector_output_validates() {
    let ((), rep) = qual_obs::scoped(|| {
        let _s = qual_obs::span("parse");
        qual_obs::count("analysis.positions_total", 1);
        qual_obs::peak("arena.qtypes", 3);
    });
    // A live collector records no units; the document still carries
    // the (empty) list version-1 readers require.
    let doc = rep.to_json("test", "mono");
    assert!(doc.get("units").and_then(Json::as_arr).is_some_and(<[Json]>::is_empty));
    validate_metrics(&doc).expect("live doc validates");
}
