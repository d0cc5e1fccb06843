//! The front end's balance: semantic analysis only walks the tree the
//! parser built, so it must not take longer than building it. Checked
//! on 150K lines of synth-huge's composition, the fastest of three runs
//! of each. Timing means nothing in a debug build, so the test runs
//! only with `--release`.

use std::time::{Duration, Instant};

use qual_cfront::{parse_with_recovery, sema};
use qual_cgen::{generate, huge_profile};

/// The fastest of three calls of `f`; dropping each result is not timed.
fn fastest_of_three<T>(mut f: impl FnMut() -> T) -> Duration {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let out = f();
            let elapsed = t.elapsed();
            drop(out);
            elapsed
        })
        .min()
        .expect("three runs")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing needs an optimized build")]
fn sema_takes_no_longer_than_parse_at_150k_lines() {
    let src = generate(&huge_profile().scaled(150_000));
    let parsed = parse_with_recovery(&src);
    assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
    let checked = sema::analyze_with_recovery(&parsed.program);
    assert!(
        checked.failed_functions.is_empty() && checked.failed_globals.is_empty(),
        "{:?} {:?}",
        checked.failed_functions,
        checked.failed_globals
    );
    drop(checked);

    let parse = fastest_of_three(|| parse_with_recovery(&src));
    let sema = fastest_of_three(|| sema::analyze_with_recovery(&parsed.program));
    let ratio = sema.as_secs_f64() / parse.as_secs_f64();
    eprintln!("150K lines: parse {parse:?}, sema {sema:?}, sema/parse {ratio:.2}");
    assert!(
        sema <= parse,
        "sema/parse {ratio:.2} (parse {parse:?}, sema {sema:?})"
    );
}
