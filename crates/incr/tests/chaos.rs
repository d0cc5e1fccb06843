//! Chaos suite: the driver under injected fault schedules.
//!
//! The contract being enforced, for *any* installed fault plan:
//!
//! 1. the driver never panics — worker panics are quarantined, injected
//!    I/O trouble degrades with diagnostics;
//! 2. it never hangs past the deadline envelope — runaway units are
//!    cancelled cooperatively;
//! 3. it never certifies a wrong solution — a corrupted or torn cache
//!    entry is rejected (checksum, decoder, certificate), never
//!    silently trusted, so no `Phase::Verify` diagnostic ever appears;
//! 4. once the faults stop, a rerun against the surviving cache state
//!    is byte-identical to the fault-free baseline — chaos may cost
//!    work, never correctness.
//!
//! Fault plans are process-global, so every test serializes on
//! `qual_faultpoint::test_lock()` and clears the plan before
//! asserting. Seeds are pinned: a failure here reproduces exactly.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use qual_faultpoint::FaultPlan;
use qual_incr::{analyze_source_incremental, IncrConfig, IncrOutcome};
use qual_solve::Phase;

const SRC: &str = "int leaf(const char *s) { return *s; }
int mid(char *p) { return leaf(p); }
char *id(char *q) { return q; }
void user(char *b) { *id(b) = 'x'; mid(b); }
int lone(int *n) { return *n + 1; }";

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "qinc-chaos-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn config(dir: &Path, jobs: usize) -> IncrConfig {
    IncrConfig {
        jobs,
        cache_dir: Some(dir.to_path_buf()),
        ..IncrConfig::default()
    }
}

/// The fault-free reference result (no cache, serial).
fn baseline() -> IncrOutcome {
    qual_faultpoint::clear();
    analyze_source_incremental(SRC, &IncrConfig::default())
}

fn render_skipped(out: &IncrOutcome) -> String {
    let mut lines: Vec<String> =
        out.skipped.iter().map(|d| d.render(Some(SRC))).collect();
    // Parallel workers may interleave; order is already deterministic
    // in the driver, but sort defensively so this helper never flakes.
    lines.sort();
    lines.concat()
}

fn classes(out: &IncrOutcome) -> Vec<(String, qual_constinfer::PositionClass)> {
    out.positions.iter().map(|p| (p.label(), p.class)).collect()
}

/// Invariants that must hold under ANY fault schedule.
fn assert_sane(out: &IncrOutcome, base: &IncrOutcome, what: &str) {
    assert!(
        !out.skipped.iter().any(|d| d.phase == Phase::Verify),
        "{what}: a certification failure means a wrong solution was \
         nearly trusted: {:?}",
        out.skipped
    );
    if render_skipped(out) == render_skipped(base) {
        // No degradation reported ⇒ the answer must be the baseline.
        assert_eq!(out.counts, base.counts, "{what}");
        assert_eq!(classes(out), classes(base), "{what}");
    } else {
        // Degradation must be loud, never silent.
        assert!(
            !out.skipped.is_empty() || !out.cache_diags.is_empty(),
            "{what}: results differ from baseline with no diagnostics"
        );
    }
}

/// A fault-free rerun over whatever cache state chaos left behind must
/// reproduce the baseline exactly — entries are always absent, stale,
/// or whole, and anything unusable re-analyzes cold.
fn assert_cache_recovers(dir: &Path, base: &IncrOutcome, what: &str) {
    qual_faultpoint::clear();
    let out = analyze_source_incremental(SRC, &config(dir, 1));
    assert_eq!(out.counts, base.counts, "{what}: post-chaos rerun");
    assert_eq!(classes(&out), classes(base), "{what}: post-chaos rerun");
    assert_eq!(
        render_skipped(&out),
        render_skipped(base),
        "{what}: post-chaos rerun"
    );
    assert!(
        out.cache_diags.is_empty(),
        "{what}: chaos left a corrupt entry behind: {:?}",
        out.cache_diags
    );
}

#[test]
fn pinned_seeded_schedules_never_panic_and_recover() {
    let _g = qual_faultpoint::test_lock();
    let base = baseline();
    // Pinned seeds, moderately hot rate: every kind of fault fires
    // somewhere across these schedules (CI runs the same seeds).
    for seed in [1, 2, 3, 5, 8, 13, 21, 42] {
        let dir = scratch(&format!("seed{seed}"));
        for round in 0..2 {
            qual_faultpoint::install(FaultPlan::seeded(seed, 250));
            let what = format!("seed {seed} round {round}");
            let out = std::panic::catch_unwind(|| {
                analyze_source_incremental(
                    SRC,
                    &IncrConfig {
                        unit_deadline_ms: Some(2_000),
                        ..config(&dir, 4)
                    },
                )
            })
            .unwrap_or_else(|_| panic!("{what}: driver panicked"));
            qual_faultpoint::clear();
            assert_sane(&out, &base, &what);
        }
        assert_cache_recovers(&dir, &base, &format!("seed {seed}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn same_seed_serial_runs_are_identical() {
    let _g = qual_faultpoint::test_lock();
    let run = || {
        let dir = scratch("det");
        qual_faultpoint::install(FaultPlan::seeded(42, 300));
        let out = analyze_source_incremental(SRC, &config(&dir, 1));
        let log = qual_faultpoint::injected();
        qual_faultpoint::clear();
        let _ = std::fs::remove_dir_all(&dir);
        (
            out.counts,
            classes(&out),
            render_skipped(&out),
            out.stats.quarantined,
            log,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "serial chaos with one seed must replay exactly");
    assert!(!a.4.is_empty(), "rate 300 over a five-function program fires");
}

#[test]
fn every_explicit_fault_point_degrades_gracefully() {
    let _g = qual_faultpoint::test_lock();
    let base = baseline();
    let plans = [
        "cache.read@1=io",
        "cache.read@*=io",
        "cache.read@*=garbage",
        "cache.read@2=panic",
        "cache.write@*=io",
        "cache.write@1=short-write",
        "cache.write@2=panic",
        "wire.decode@*=garbage",
        "unit.solve@1=panic",
        "unit.solve@*=delay:5",
        "worker.spawn@*=panic",
    ];
    for spec in plans {
        let dir = scratch("point");
        // Populate so read-side faults have entries to chew on.
        qual_faultpoint::clear();
        let cold = analyze_source_incremental(SRC, &config(&dir, 2));
        assert_eq!(cold.counts, base.counts, "cold populate");

        qual_faultpoint::install(FaultPlan::parse(spec).expect(spec));
        let out = std::panic::catch_unwind(|| {
            analyze_source_incremental(SRC, &config(&dir, 2))
        })
        .unwrap_or_else(|_| panic!("{spec}: driver panicked"));
        qual_faultpoint::clear();
        assert_sane(&out, &base, spec);
        assert_cache_recovers(&dir, &base, spec);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn dead_workers_lose_no_units() {
    let _g = qual_faultpoint::test_lock();
    let base = baseline();
    let dir = scratch("spawn");
    // Every worker dies at birth; the supervision sweep must re-run
    // every claimed-but-unreported unit inline, losing nothing — the
    // result is *exactly* the baseline, not a degraded one.
    qual_faultpoint::install(FaultPlan::parse("worker.spawn@*=panic").unwrap());
    let out = analyze_source_incremental(SRC, &config(&dir, 4));
    qual_faultpoint::clear();
    assert_eq!(out.counts, base.counts);
    assert_eq!(classes(&out), classes(&base));
    assert_eq!(render_skipped(&out), render_skipped(&base));
    assert_eq!(out.stats.quarantined, 0, "dying at spawn quarantines nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_is_attributed_and_contained() {
    let _g = qual_faultpoint::test_lock();
    let dir = scratch("quarantine");
    // The first function analyzed panics its worker; that SCC is
    // quarantined, everything else completes.
    qual_faultpoint::install(FaultPlan::parse("unit.solve@1=panic").unwrap());
    let out = analyze_source_incremental(SRC, &config(&dir, 1));
    qual_faultpoint::clear();
    assert_eq!(out.stats.quarantined, 1);
    assert!(
        out.skipped
            .iter()
            .any(|d| d.message.contains("quarantined")
                && d.message.contains("injected panic")),
        "quarantine diagnostics name the cause: {:?}",
        out.skipped
    );
    assert!(
        out.counts.is_some(),
        "one quarantined unit must not take down the merged solve"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadlines_bound_stalled_units() {
    let _g = qual_faultpoint::test_lock();
    let dir = scratch("deadline");
    // Every unit stalls 200ms at entry against a 40ms deadline: each
    // gets cancelled at its first poll after the stall, excluded, and
    // the run finishes far inside the envelope (5 units × ~200ms stall,
    // serial, plus slack).
    qual_faultpoint::install(
        FaultPlan::parse("unit.solve@*=delay:200").unwrap(),
    );
    let started = Instant::now();
    let out = analyze_source_incremental(
        SRC,
        &IncrConfig {
            unit_deadline_ms: Some(40),
            ..config(&dir, 1)
        },
    );
    qual_faultpoint::clear();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "cancelled units must not hang the run: took {elapsed:?}"
    );
    assert!(
        out.skipped
            .iter()
            .any(|d| d.message.contains("deadline")),
        "cancellation is reported, not silent: {:?}",
        out.skipped
    );
    assert!(
        out.counts.is_some(),
        "the merged solve survives cancelled units"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_writes_leave_old_or_new_entries_never_torn_ones() {
    let _g = qual_faultpoint::test_lock();
    let base = baseline();
    // Simulate a writer killed at each store in turn: a partial temp
    // file lands, the rename never happens, retries are off. The
    // published cache must be "old state" (absent) for the killed
    // entry and "new state" (whole) for the rest — a later reader must
    // find nothing corrupt.
    for killed in 1..=6u64 {
        let dir = scratch(&format!("torn{killed}"));
        qual_faultpoint::install(
            FaultPlan::parse(&format!("cache.write@{killed}=short-write"))
                .unwrap(),
        );
        let out = analyze_source_incremental(
            SRC,
            &IncrConfig {
                max_retries: 0,
                ..config(&dir, 1)
            },
        );
        qual_faultpoint::clear();
        let what = format!("killed store #{killed}");
        assert_eq!(out.counts, base.counts, "{what}");
        if killed <= out.stats.units as u64 {
            assert!(
                out.cache_diags
                    .iter()
                    .any(|d| d.message.contains("store failed")),
                "{what}: the failed store is reported: {:?}",
                out.cache_diags
            );
        }
        // The debris is visible (a `.tmp-` file) but never trusted.
        assert_cache_recovers(&dir, &base, &what);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn transient_io_is_retried_and_counted() {
    let _g = qual_faultpoint::test_lock();
    let base = baseline();
    let dir = scratch("retry");
    qual_faultpoint::clear();
    let cold = analyze_source_incremental(SRC, &config(&dir, 1));
    assert_eq!(cold.stats.retries, 0, "no faults, no retries");

    // One transient read failure: the retry recovers it, the warm run
    // still reuses every unit, and the retry is visible in the stats.
    qual_faultpoint::install(FaultPlan::parse("cache.read@1=io").unwrap());
    let warm = analyze_source_incremental(SRC, &config(&dir, 1));
    qual_faultpoint::clear();
    assert_eq!(warm.stats.reused, warm.stats.units, "retry recovered the read");
    assert_eq!(warm.stats.analyzed, 0);
    assert!(warm.stats.retries >= 1, "{:?}", warm.stats);
    assert_eq!(warm.counts, base.counts);
    let _ = std::fs::remove_dir_all(&dir);
}
