//! The incremental-driver differential oracle: cgen-seeded programs
//! analyzed four ways — the classic serial engine, the incremental
//! driver with 1 worker, with 4 workers, and twice against a persistent
//! cache (cold then warm) — and the results cross-checked.
//!
//! The invariants:
//!
//! * **Serial agreement** — the incremental driver reports the same
//!   counts, the same const-able position set, and the same declared
//!   set as the serial engine, in every mode.
//! * **Schedule independence** — 1 worker and 4 workers produce
//!   *byte-identical* outcomes: counts, per-position classes in order,
//!   rendered diagnostics, merged constraint count.
//! * **Warm-cache identity** — a rerun against a freshly populated
//!   cache re-solves **zero** units (every unit is a verified cache
//!   hit) and is byte-identical to the cold run.
//! * **Metrics non-perturbation and determinism** — every incremental
//!   run here is collected under `qual_obs::scoped`, so the whole
//!   oracle doubles as a metrics-on vs. metrics-off differential
//!   (the serial engine runs uncollected); additionally the metrics
//!   document's analysis fingerprint (the document modulo timing and
//!   operational fields) must be byte-identical across 1 worker, 4
//!   workers, cold cache, and warm cache.
//!
//! Case count defaults to 40 and is tunable via
//! `QUAL_INCR_ORACLE_CASES` (CI pins `PROPTEST_SEED`).

use std::collections::BTreeSet;
use std::path::PathBuf;

use proptest::prelude::*;
use qual_cgen::table1_profiles;
use qual_constinfer::{analyze_source, Mode, Position};
use qual_incr::{analyze_source_incremental, IncrConfig, IncrOutcome};

fn cases() -> u32 {
    std::env::var("QUAL_INCR_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

type PosKey = (String, Option<usize>, usize);

fn const_set(ps: &[Position]) -> BTreeSet<PosKey> {
    ps.iter()
        .filter(|p| p.can_be_const())
        .map(|p| (p.function.clone(), p.param, p.level))
        .collect()
}

fn declared_set(ps: &[Position]) -> BTreeSet<PosKey> {
    ps.iter()
        .filter(|p| p.declared)
        .map(|p| (p.function.clone(), p.param, p.level))
        .collect()
}

/// Everything that must be byte-identical across schedules and cache
/// states.
fn fingerprint(src: &str, out: &IncrOutcome) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "counts: {:?}", out.counts);
    let _ = writeln!(s, "constraints: {}", out.stats.constraints);
    for p in &out.positions {
        let _ = writeln!(
            s,
            "{} {:?} {} {} {:?}",
            p.function, p.param, p.level, p.declared, p.class
        );
    }
    for d in &out.skipped {
        s.push_str(&d.render(Some(src)));
    }
    s
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qual-incr-oracle-{}-{tag}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn incremental_matches_serial_and_itself(
        seed in any::<u64>(),
        base in 0usize..6,
        lines in 80usize..160,
    ) {
        let mut profile = table1_profiles()[base].scaled(lines);
        profile.seed = seed;
        let src = qual_cgen::generate(&profile);

        for mode in [
            Mode::Monomorphic,
            Mode::Polymorphic,
            Mode::PolymorphicRecursive,
        ] {
            let serial = analyze_source(&src, mode);
            prop_assert!(serial.is_ok(), "{mode:?}: serial must analyze");
            let serial = serial.unwrap();

            // Every run is collected under `qual_obs::scoped`, so the
            // serial-agreement checks below double as a metrics-on vs.
            // metrics-off differential (the serial engine above ran
            // uncollected). The returned fingerprint is the metrics
            // document modulo timing/operational fields.
            let run = |jobs: usize, cache: Option<PathBuf>| {
                let (out, report) = qual_obs::scoped(|| {
                    analyze_source_incremental(
                        &src,
                        &IncrConfig {
                            mode,
                            jobs,
                            cache_dir: cache,
                            ..IncrConfig::default()
                        },
                    )
                });
                let fp = qual_obs::analysis_fingerprint(
                    &report.to_json("oracle", "any"),
                );
                (out, fp)
            };

            // Serial agreement: counts and position sets.
            let (one, one_fp) = run(1, None);
            prop_assert!(
                one.skipped.is_empty(),
                "{mode:?}: incremental run has diagnostics: {:?}",
                one.skipped
            );
            let counts = one.counts.expect("clean run has counts");
            prop_assert_eq!(counts.total, serial.counts.total, "{:?}", mode);
            prop_assert_eq!(counts.declared, serial.counts.declared, "{:?}", mode);
            prop_assert_eq!(counts.inferred, serial.counts.inferred, "{:?}", mode);
            prop_assert_eq!(
                const_set(&one.positions),
                const_set(&serial.positions),
                "{:?}: const-able position sets differ from serial",
                mode
            );
            prop_assert_eq!(
                declared_set(&one.positions),
                declared_set(&serial.positions),
                "{:?}: declared position sets differ from serial",
                mode
            );

            // Schedule independence: byte-identical at 4 workers —
            // both the analysis outcome and the metrics document
            // (modulo timings).
            let (four, four_fp) = run(4, None);
            prop_assert_eq!(
                fingerprint(&src, &one),
                fingerprint(&src, &four),
                "{:?}: 4 workers diverged from 1 worker",
                mode
            );
            prop_assert_eq!(
                &one_fp,
                &four_fp,
                "{:?}: metrics fingerprint diverged between 1 and 4 workers",
                mode
            );

            // Warm-cache identity: populate, rerun, compare.
            let dir = scratch_dir(&format!("{seed}-{base}-{lines}-{mode:?}"));
            let _ = std::fs::remove_dir_all(&dir);
            let (cold, cold_fp) = run(1, Some(dir.clone()));
            prop_assert_eq!(cold.stats.reused, 0, "{:?}: dir must start cold", mode);
            let (warm, warm_fp) = run(4, Some(dir.clone()));
            prop_assert_eq!(
                warm.stats.analyzed, 0,
                "{:?}: warm rerun re-solved {} of {} unit(s)",
                mode, warm.stats.analyzed, warm.stats.units
            );
            prop_assert_eq!(warm.stats.reused, warm.stats.units, "{:?}", mode);
            prop_assert!(
                warm.cache_diags.is_empty(),
                "{mode:?}: warm rerun reported cache trouble: {:?}",
                warm.cache_diags
            );
            prop_assert_eq!(
                fingerprint(&src, &one),
                fingerprint(&src, &warm),
                "{:?}: warm cache diverged from cold",
                mode
            );
            // The metrics document's analysis view is cache-blind: a
            // unit reconstituted from the cache carries the same
            // analysis counters as one solved fresh.
            prop_assert_eq!(
                &cold_fp,
                &warm_fp,
                "{:?}: metrics fingerprint diverged between cold and warm cache",
                mode
            );
            prop_assert_eq!(
                &one_fp,
                &cold_fp,
                "{:?}: metrics fingerprint diverged between cacheless and cold-cache runs",
                mode
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ---------------------------------------------------------------------------
// The qualifier-set matrix: the same invariants per `--qual` set. CI
// fans one leg per set via QUAL_ORACLE_QUALS; locally all four sets
// run in sequence.
// ---------------------------------------------------------------------------

/// The `--qual` sets the matrix certifies: the default, a positive +
/// negative pair, taint alone, and all three spaces at once.
const QUAL_SETS: &[&str] = &["const", "const,nonnull", "tainted", "const,nonnull,tainted"];

fn qual_cases() -> u32 {
    std::env::var("QUAL_QUAL_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// The per-set fingerprint adds the per-qualifier tallies to the
/// classic one — those must be schedule- and cache-independent too.
fn qual_fingerprint(src: &str, out: &IncrOutcome) -> String {
    use std::fmt::Write as _;
    let mut s = fingerprint(src, out);
    for qc in &out.qual_counts {
        let _ = writeln!(s, "qual {} {} {}", qc.name, qc.may, qc.must);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(qual_cases()))]

    #[test]
    fn qualifier_sets_match_serial_and_themselves(
        seed in any::<u64>(),
        base in 0usize..6,
        lines in 80usize..160,
    ) {
        let mut profile = table1_profiles()[base].scaled(lines);
        profile.seed = seed;
        let src = qual_cgen::generate(&profile);
        let pinned = std::env::var("QUAL_ORACLE_QUALS").ok();
        let sets: Vec<&str> = match &pinned {
            Some(one) => vec![one.as_str()],
            None => QUAL_SETS.to_vec(),
        };

        for quals in sets {
            let space = qual_constinfer::space_for(quals).expect("known sets");
            let mode = Mode::Polymorphic;

            // The serial engine over the same space is the ground
            // truth for counts and per-qualifier tallies.
            let serial = qual_constinfer::analyze_source_with_options_in(
                &src,
                &space,
                mode,
                qual_constinfer::Options::default(),
                qual_constinfer::Budgets::default(),
            );
            prop_assert!(
                serial.skipped.is_empty(),
                "[{quals}] serial run has diagnostics: {:?}",
                serial.skipped
            );
            let serial = serial.result.expect("clean serial run");

            let run = |jobs: usize, cache: Option<PathBuf>| {
                analyze_source_incremental(
                    &src,
                    &IncrConfig {
                        mode,
                        jobs,
                        cache_dir: cache,
                        space: space.clone(),
                        ..IncrConfig::default()
                    },
                )
            };

            // Serial agreement, including every qualifier column.
            let one = run(1, None);
            prop_assert!(one.skipped.is_empty(), "[{quals}] {:?}", one.skipped);
            let counts = one.counts.expect("clean run has counts");
            prop_assert_eq!(counts, serial.counts, "[{}]", quals);
            prop_assert_eq!(
                &one.qual_counts,
                &serial.qual_counts,
                "[{}] per-qualifier tallies differ from serial",
                quals
            );
            prop_assert_eq!(
                const_set(&one.positions),
                const_set(&serial.positions),
                "[{}]",
                quals
            );

            // Schedule independence at this set.
            let four = run(4, None);
            prop_assert_eq!(
                qual_fingerprint(&src, &one),
                qual_fingerprint(&src, &four),
                "[{}] 4 workers diverged from 1 worker",
                quals
            );

            // Warm-cache identity at this set: zero re-solves,
            // byte-identical output.
            let dir = scratch_dir(&format!(
                "{seed}-{base}-{lines}-{}",
                quals.replace(',', "+")
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cold = run(1, Some(dir.clone()));
            prop_assert_eq!(cold.stats.reused, 0, "[{}] dir must start cold", quals);
            let warm = run(4, Some(dir.clone()));
            prop_assert_eq!(
                warm.stats.analyzed, 0,
                "[{}] warm rerun re-solved {} of {} unit(s)",
                quals, warm.stats.analyzed, warm.stats.units
            );
            prop_assert_eq!(
                qual_fingerprint(&src, &one),
                qual_fingerprint(&src, &warm),
                "[{}] warm cache diverged from cold",
                quals
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Differing `--qual` sets must never alias in the summary cache:
    /// a cache populated under one set is entirely cold for another
    /// (the space digest is part of every unit key), and reusing the
    /// directory never corrupts either set's results.
    #[test]
    fn qualifier_sets_never_alias_in_the_cache(
        seed in any::<u64>(),
        lines in 80usize..140,
    ) {
        let mut profile = table1_profiles()[0].scaled(lines);
        profile.seed = seed;
        let src = qual_cgen::generate(&profile);
        let dir = scratch_dir(&format!("alias-{seed}-{lines}"));
        let _ = std::fs::remove_dir_all(&dir);

        let run = |quals: &str| {
            let space = qual_constinfer::space_for(quals).expect("known sets");
            analyze_source_incremental(
                &src,
                &IncrConfig {
                    jobs: 1,
                    cache_dir: Some(dir.clone()),
                    space,
                    ..IncrConfig::default()
                },
            )
        };

        let a = run("const");
        prop_assert_eq!(a.stats.reused, 0);
        // A different set sees a cold cache — not one hit may alias.
        let b = run("const,nonnull,tainted");
        prop_assert_eq!(
            b.stats.reused, 0,
            "three-space run reused {} const-only summaries",
            b.stats.reused
        );
        prop_assert!(b.cache_diags.is_empty(), "{:?}", b.cache_diags);
        // And the original set is still warm and uncorrupted.
        let c = run("const");
        prop_assert_eq!(c.stats.analyzed, 0, "const rerun must be fully warm");
        prop_assert_eq!(
            qual_fingerprint(&src, &a),
            qual_fingerprint(&src, &c),
            "const results corrupted by the interleaved three-space run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
