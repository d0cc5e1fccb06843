//! §4.4: the polymorphic analysis takes "at most 3 times longer" than
//! the monomorphic one. Checked on 150K lines of synth-huge's
//! composition, where constraint generation dominates the run. Timing
//! means nothing in a debug build, so the test runs only with
//! `--release`.

use std::time::{Duration, Instant};

use qual_cgen::{generate, huge_profile};
use qual_constinfer::{recover_front_end, run_budgeted, Budgets, Mode, Options, RecoveredUnit};
use qual_lattice::QualSpace;

/// The fastest of three `run_budgeted` calls in `mode`.
fn fastest_of_three(unit: &RecoveredUnit, space: &QualSpace, mode: Mode) -> Duration {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let (analysis, diags) = run_budgeted(
                &unit.program,
                &unit.sema,
                space,
                mode,
                Options::default(),
                Budgets::default(),
            );
            let elapsed = t.elapsed();
            assert!(analysis.solution.is_ok(), "{mode:?} solves");
            assert!(diags.is_empty(), "{mode:?}: {diags:?}");
            elapsed
        })
        .min()
        .expect("three runs")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing needs an optimized build")]
fn poly_takes_at_most_three_times_mono_at_150k_lines() {
    let unit = recover_front_end(&generate(&huge_profile().scaled(150_000)));
    assert!(unit.skipped.is_empty(), "{:?}", unit.skipped);
    let space = QualSpace::const_only();
    let mono = fastest_of_three(&unit, &space, Mode::Monomorphic);
    let poly = fastest_of_three(&unit, &space, Mode::Polymorphic);
    let ratio = poly.as_secs_f64() / mono.as_secs_f64();
    eprintln!("150K lines: mono {mono:?}, poly {poly:?}, poly/mono {ratio:.2}");
    assert!(
        ratio <= 3.0,
        "poly/mono {ratio:.2} (mono {mono:?}, poly {poly:?})"
    );
}
