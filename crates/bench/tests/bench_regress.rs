//! The perf-regression harness contract, at two levels:
//!
//! * unit tests of `compare_bench_docs` — exact count matching, the
//!   timing tolerance band (regressions flagged, speedups not), timings
//!   gated on their minimum where one is recorded, missing rows, and
//!   unknown-field tolerance;
//! * end-to-end runs of the `bench-regress` binary against a scratch
//!   directory — a fresh run records baselines and exits 0, a no-change
//!   rerun exits 0, and a baseline with doctored counts makes the rerun
//!   exit 1 (count drift) while still writing the new documents.

use std::path::{Path, PathBuf};
use std::process::Command;

use qual_bench::{bench_doc, compare_bench_docs};
use qual_obs::json::{parse, Json};
use qual_obs::schema::validate_bench;

fn row(name: &str, fields: &[(&str, u64)]) -> Json {
    let mut obj = vec![("name".to_owned(), Json::Str(name.to_owned()))];
    for (k, v) in fields {
        obj.push(((*k).to_owned(), Json::num(*v)));
    }
    Json::Obj(obj)
}

#[test]
fn counts_must_match_exactly() {
    let base = bench_doc("t", 3, vec![row("a", &[("mono", 7), ("mono_ns", 100)])]);
    let same = bench_doc("t", 3, vec![row("a", &[("mono", 7), ("mono_ns", 100)])]);
    assert!(compare_bench_docs(&base, &same, 25.0).is_empty());

    let off_by_one =
        bench_doc("t", 3, vec![row("a", &[("mono", 8), ("mono_ns", 100)])]);
    let drifts = compare_bench_docs(&base, &off_by_one, 25.0);
    assert_eq!(drifts.len(), 1);
    assert_eq!(drifts[0].field, "mono");
    assert!(!drifts[0].timing);
    assert_eq!((drifts[0].prev, drifts[0].cur), (7, 8));
    // A count going *down* is drift too — counts are exact, not banded.
    let lower = bench_doc("t", 3, vec![row("a", &[("mono", 6), ("mono_ns", 100)])]);
    assert_eq!(compare_bench_docs(&base, &lower, 25.0).len(), 1);
}

#[test]
fn timings_flag_only_regressions_beyond_tolerance() {
    let base = bench_doc("t", 3, vec![row("a", &[("mono_ns", 1000)])]);
    // Inside the band, and any speedup at all: clean.
    for cur in [1, 500, 1000, 1200, 1250] {
        let doc = bench_doc("t", 3, vec![row("a", &[("mono_ns", cur)])]);
        assert!(
            compare_bench_docs(&base, &doc, 25.0).is_empty(),
            "{cur} ns should be inside the 25% band"
        );
    }
    // Just past the band: flagged, and marked as a timing.
    let slow = bench_doc("t", 3, vec![row("a", &[("mono_ns", 1251)])]);
    let drifts = compare_bench_docs(&base, &slow, 25.0);
    assert_eq!(drifts.len(), 1);
    assert!(drifts[0].timing);
    assert!(drifts[0].to_string().contains("[timing]"), "{}", drifts[0]);
}

#[test]
fn timings_with_a_minimum_are_gated_on_the_minimum() {
    let base = bench_doc(
        "t",
        3,
        vec![row("a", &[("mono_ns", 1000), ("mono_min_ns", 900)])],
    );
    // The median alone rises past the band, the minimum stays inside
    // it: noise, not drift.
    let noisy = bench_doc(
        "t",
        3,
        vec![row("a", &[("mono_ns", 2000), ("mono_min_ns", 1100)])],
    );
    assert!(compare_bench_docs(&base, &noisy, 25.0).is_empty());
    // The minimum itself rises past the band: drift, named by the
    // minimum's field.
    let slow = bench_doc(
        "t",
        3,
        vec![row("a", &[("mono_ns", 1000), ("mono_min_ns", 1126)])],
    );
    let drifts = compare_bench_docs(&base, &slow, 25.0);
    assert_eq!(drifts.len(), 1);
    assert_eq!(drifts[0].field, "mono_min_ns");
    assert!(drifts[0].timing);
}

#[test]
fn missing_row_and_missing_field_are_count_drift() {
    let base = bench_doc(
        "t",
        3,
        vec![row("a", &[("mono", 7)]), row("b", &[("mono", 9)])],
    );
    let gone_row = bench_doc("t", 3, vec![row("a", &[("mono", 7)])]);
    let drifts = compare_bench_docs(&base, &gone_row, 25.0);
    assert_eq!(drifts.len(), 1);
    assert_eq!((drifts[0].row.as_str(), drifts[0].field.as_str()), ("b", "<missing>"));
    assert!(!drifts[0].timing);

    let gone_field =
        bench_doc("t", 3, vec![row("a", &[]), row("b", &[("mono", 9)])]);
    let drifts = compare_bench_docs(&base, &gone_field, 25.0);
    assert_eq!(drifts.len(), 1);
    assert_eq!((drifts[0].row.as_str(), drifts[0].field.as_str()), ("a", "mono"));
}

#[test]
fn fields_new_in_current_are_tolerated() {
    // A newer writer may add metrics; an older baseline without them
    // must not produce drift (mirrors the schema's unknown-field rule).
    let base = bench_doc("t", 3, vec![row("a", &[("mono", 7)])]);
    let newer =
        bench_doc("t", 3, vec![row("a", &[("mono", 7), ("shiny", 42)])]);
    assert!(compare_bench_docs(&base, &newer, 25.0).is_empty());
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("bench-regress-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_regress(out_dir: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench-regress"))
        .args([
            "--profiles",
            "woman-3.0a",
            "--lines",
            "60",
            "--reps",
            "3",
            "--jobs",
            "2",
            "--timings-warn-only",
            "--out-dir",
        ])
        .arg(out_dir)
        .output()
        .expect("bench-regress runs")
}

#[test]
fn binary_end_to_end_fresh_rerun_and_injected_drift() {
    let dir = scratch("e2e");

    // Fresh run: no baselines, records both documents, exits 0.
    let fresh = run_regress(&dir);
    assert!(
        fresh.status.success(),
        "fresh run failed: {}",
        String::from_utf8_lossy(&fresh.stderr)
    );
    let stdout = String::from_utf8_lossy(&fresh.stdout);
    assert!(stdout.contains("no baseline"), "{stdout}");
    for file in ["BENCH_table2.json", "BENCH_incr.json"] {
        let text = std::fs::read_to_string(dir.join(file))
            .unwrap_or_else(|e| panic!("{file} must exist: {e}"));
        let doc = parse(&text).expect("written doc parses");
        validate_bench(&doc).expect("written doc is schema-valid");
        assert!(
            !doc.get("rows").and_then(Json::as_arr).unwrap().is_empty(),
            "{file} has no rows"
        );
    }

    // Rerun against its own output: counts are deterministic, so no
    // drift (timings are warn-only above), exit 0.
    let rerun = run_regress(&dir);
    assert!(
        rerun.status.success(),
        "no-change rerun drifted: {}",
        String::from_utf8_lossy(&rerun.stderr)
    );

    // Doctor a count in the table2 baseline; the next run must detect
    // it, exit 1, and still overwrite with the fresh (correct) doc.
    let path = dir.join("BENCH_table2.json");
    let mut doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let original = bump_first_count(&mut doc);
    std::fs::write(&path, doc.render()).unwrap();
    let drifted = run_regress(&dir);
    assert_eq!(
        drifted.status.code(),
        Some(1),
        "doctored baseline must exit 1: {}",
        String::from_utf8_lossy(&drifted.stderr)
    );
    let stderr = String::from_utf8_lossy(&drifted.stderr);
    assert!(stderr.contains("COUNT DRIFT"), "{stderr}");
    // The healthy document replaced the doctored baseline.
    let rewritten = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(first_count(&rewritten), original);

    // A corrupt baseline is reported, skipped, and replaced: exit 0.
    std::fs::write(&path, "{ not json").unwrap();
    let recovered = run_regress(&dir);
    assert!(
        recovered.status.success(),
        "corrupt baseline must not fail the run: {}",
        String::from_utf8_lossy(&recovered.stderr)
    );
    assert!(
        String::from_utf8_lossy(&recovered.stderr).contains("baseline ignored"),
        "{}",
        String::from_utf8_lossy(&recovered.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Increments the `mono_constraints` count of the first row in place and
/// returns its original value.
fn bump_first_count(doc: &mut Json) -> u64 {
    let Some(Json::Arr(rows)) = obj_field(doc, "rows") else {
        panic!("doc has no rows array");
    };
    let Some(Json::Num(n)) = obj_field(&mut rows[0], "mono_constraints") else {
        panic!("row has no mono_constraints");
    };
    let original = *n as u64;
    *n = (original + 1) as f64;
    original
}

fn first_count(doc: &Json) -> u64 {
    doc.get("rows").and_then(Json::as_arr).unwrap()[0]
        .get("mono_constraints")
        .and_then(Json::as_u64)
        .unwrap()
}

fn obj_field<'a>(doc: &'a mut Json, name: &str) -> Option<&'a mut Json> {
    match doc {
        Json::Obj(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v),
        _ => None,
    }
}
