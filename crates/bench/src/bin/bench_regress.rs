//! `bench-regress` — the pinned performance-regression harness.
//!
//! Runs the Table-1 cgen profiles through the engine (the certified
//! Table-2 bench, and one row per pinned `--qual` set) and through a
//! resident analysis server, writes three versioned bench documents —
//! `BENCH_table2.json`, `BENCH_incr.json` and `BENCH_quals.json` — and
//! compares each against the previous document at the same path before
//! overwriting it:
//!
//! * **counts** (positions, constraints, solver steps —
//!   everything hardware-independent) must match the baseline
//!   **exactly**; any difference is drift and fails the run;
//! * **timings** (fields ending `_ns`) only flag **regressions** beyond
//!   the tolerance (default 25%); speedups and noise inside the band
//!   pass. Where a timing also records its minimum (`mono_min_ns` next
//!   to `mono_ns`), only the minimum is gated, since noise only adds
//!   time. `--timings-warn-only` downgrades timing failures to
//!   warnings — CI uses it, because shared runners make wall-clock
//!   thresholds advisory at best.
//!
//! ```text
//! bench-regress [--quick] [--reps N] [--lines N] [--profiles a,b]
//!               [--out-dir DIR] [--baseline-dir DIR] [--tolerance PCT]
//!               [--timings-warn-only]
//! ```
//!
//! One timing check is an ordering, not a threshold, and holds even
//! under `--timings-warn-only`: a profile's memo-warm served request
//! (`serve_warm_ns`, the median of `--reps` repeats) must be faster
//! than its cold one (`serve_cold_ns`), since the warm one runs no
//! analysis.
//!
//! Exit codes: 0 clean; 1 count drift; 2 timing regression (unless
//! `--timings-warn-only`); 3 a benchmark failed to produce a certified
//! row, or a memo-warm served request was not faster than its cold one;
//! 4 bad usage or an unwritable output.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use qual_bench::{bench_doc, compare_bench_docs, measure_certified, median_and_min, BenchDrift};
use qual_cgen::bench_profiles;
use qual_constinfer::{analyze_source_with_options_in, Budgets, Mode, Options};
use qual_lattice::QualSpace;
use qual_obs::json::Json;
use qual_obs::schema::validate_bench;

struct Args {
    reps: u32,
    lines: Option<usize>,
    profiles: Option<Vec<String>>,
    out_dir: PathBuf,
    baseline_dir: Option<PathBuf>,
    tolerance: f64,
    timings_warn_only: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-regress [--quick] [--reps N] [--lines N] [--profiles a,b]\n\
         \x20                    [--out-dir DIR] [--baseline-dir DIR]\n\
         \x20                    [--tolerance PCT] [--timings-warn-only]"
    );
    ExitCode::from(4)
}

fn main() -> ExitCode {
    let mut args = Args {
        reps: 3,
        lines: None,
        profiles: None,
        out_dir: PathBuf::from("."),
        baseline_dir: None,
        tolerance: 25.0,
        timings_warn_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.lines = Some(300),
            "--reps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => args.reps = n,
                _ => return usage(),
            },
            "--lines" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => args.lines = Some(n),
                _ => return usage(),
            },
            "--profiles" => match it.next() {
                Some(list) => {
                    args.profiles =
                        Some(list.split(',').map(str::to_owned).collect());
                }
                None => return usage(),
            },
            "--out-dir" => match it.next() {
                Some(d) => args.out_dir = PathBuf::from(d),
                None => return usage(),
            },
            "--baseline-dir" => match it.next() {
                Some(d) => args.baseline_dir = Some(PathBuf::from(d)),
                None => return usage(),
            },
            "--tolerance" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) if t >= 0.0 => args.tolerance = t,
                _ => return usage(),
            },
            "--timings-warn-only" => args.timings_warn_only = true,
            _ => return usage(),
        }
    }

    let profiles: Vec<_> = bench_profiles()
        .into_iter()
        .filter(|p| {
            args.profiles
                .as_ref()
                .is_none_or(|names| names.iter().any(|n| n == p.name))
        })
        .map(|p| match args.lines {
            Some(n) => p.scaled(n),
            None => p,
        })
        .collect();
    if profiles.is_empty() {
        eprintln!("bench-regress: no profiles matched");
        return usage();
    }

    let mut bench_failed = false;

    // Pass 1: the serial certified bench (Table 2 shape).
    let mut table2_rows = Vec::new();
    for p in &profiles {
        let m = measure_certified(p, args.reps);
        for d in &m.skipped {
            eprint!("{}", d.render(None));
        }
        match m.row {
            Some(row) => table2_rows.push(row.to_json()),
            None => {
                eprintln!("bench-regress: `{}` produced no certified row", m.name);
                bench_failed = true;
            }
        }
    }
    let table2 = bench_doc("table2", args.reps, table2_rows);

    // Pass 2: the served engine. Each profile goes once through the
    // engine in process, for the reference counts, and then through a
    // resident analysis server.
    let mut incr_rows = Vec::new();
    let sock_root = std::env::temp_dir()
        .join(format!("bench-regress-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&sock_root);
    for p in &profiles {
        let src = qual_cgen::generate(p);
        let lines = src.lines().count();
        let plain = analyze(&src, &QualSpace::const_only());
        // Served pass: the same corpus through a resident analysis
        // server (the `cquald` session, hosted in-process) over its
        // unix socket — a cold request into the fresh session, then
        // `--reps` memo-warm repeats, timed by their median. The
        // roundtrip wall clocks bound the daemon's framing/dispatch
        // overhead; the served report must carry exactly the
        // in-process counts.
        let sock = sock_root.join(format!("{}-serve.sock", p.name));
        let (serve_report, serve_cold_ns, serve_warm_ns) =
            match qual_incr::serve::serve(qual_incr::serve::ServeConfig::for_socket(
                sock.clone(),
            )) {
                Ok(handle) => {
                    let conn = qual_incr::serve::Connect::new(sock.clone());
                    let req = qual_incr::proto::AnalyzeReq {
                        version: qual_incr::proto::PROTO_VERSION,
                        src: src.clone(),
                        mode: Mode::Polymorphic,
                        quals: "const".to_owned(),
                        verify: false,
                        deadline_ms: None,
                    };
                    let t = Instant::now();
                    let cold = qual_incr::serve::request_analyze(&conn, &req);
                    let cold_ns = nanos(t.elapsed());
                    let mut warm_times = Vec::with_capacity(args.reps as usize);
                    let mut rewarm = None;
                    for _ in 0..args.reps {
                        let t = Instant::now();
                        let w = qual_incr::serve::request_analyze(&conn, &req);
                        warm_times.push(t.elapsed());
                        let warm = matches!(&w, Ok(f) if f.warm);
                        rewarm = Some(w);
                        if !warm {
                            break;
                        }
                    }
                    let warm_ns = nanos(median_and_min(&mut warm_times).0);
                    let rewarm = rewarm.expect("--reps is at least 1");
                    let _ = handle.stop();
                    match (cold, rewarm) {
                        (Ok(c), Ok(w)) if w.warm => (Some(c), cold_ns, warm_ns),
                        (Ok(_), Ok(_)) => {
                            eprintln!(
                                "bench-regress: `{}`: served repeat was not memo-warm",
                                p.name
                            );
                            (None, cold_ns, warm_ns)
                        }
                        (c, w) => {
                            eprintln!(
                                "bench-regress: `{}`: served pass failed: {:?} / {:?}",
                                p.name,
                                c.err(),
                                w.err()
                            );
                            (None, cold_ns, warm_ns)
                        }
                    }
                }
                Err(e) => {
                    eprintln!(
                        "bench-regress: `{}`: cannot start analysis server: {e}",
                        p.name
                    );
                    (None, 0, 0)
                }
            };
        let served_counts = match &serve_report {
            Some(rep) => rep
                .counts
                .map(|[t, d, i]| qual_constinfer::ConstCounts {
                    total: t as usize,
                    declared: d as usize,
                    inferred: i as usize,
                }),
            None => None,
        };
        let plain_counts = plain.result.as_ref().map(|r| r.counts);
        if serve_report.is_none() || plain_counts != served_counts {
            eprintln!(
                "bench-regress: `{}`: served counts differ from the in-process run",
                p.name
            );
            bench_failed = true;
            continue;
        }
        if serve_warm_ns >= serve_cold_ns {
            eprintln!(
                "bench-regress: `{}`: the memo-warm served request took {serve_warm_ns} ns, \
                 not less than the cold one's {serve_cold_ns} ns",
                p.name
            );
            bench_failed = true;
        }
        incr_rows.push(Json::Obj(vec![
            ("name".to_owned(), Json::Str(p.name.to_owned())),
            ("lines".to_owned(), Json::num(lines as u64)),
            ("serve_cold_ns".to_owned(), Json::num(serve_cold_ns)),
            ("serve_warm_ns".to_owned(), Json::num(serve_warm_ns)),
        ]));
    }
    let _ = std::fs::remove_dir_all(&sock_root);
    let incr = bench_doc("incr", args.reps, incr_rows);

    // Pass 3: the qualifier-set matrix — every profile analyzed under
    // each pinned `--qual` set, all coordinates in one word-parallel
    // solve. One row per (profile, set) with the per-qualifier may/must
    // tallies as hardware-independent counts: a rules change that
    // shifts what any space infers shows up as count drift here, and a
    // solve that silently stopped being single-pass shows up in the
    // (advisory) timing ratio against the const-only row.
    const QUAL_SETS: &[&str] = &["const", "const,nonnull", "tainted", "const,nonnull,tainted"];
    let mut qual_rows = Vec::new();
    for p in &profiles {
        let src = qual_cgen::generate(p);
        for set in QUAL_SETS {
            let space = qual_constinfer::space_for(set)
                .expect("built-in qualifier sets");
            let (out, rep) = qual_obs::scoped(|| analyze(&src, &space));
            let Some(r) = &out.result else {
                eprintln!(
                    "bench-regress: `{}` under --qual {set} produced no counts",
                    p.name
                );
                bench_failed = true;
                continue;
            };
            let mut fields = vec![
                (
                    "name".to_owned(),
                    Json::Str(format!("{}@{set}", p.name)),
                ),
                ("coords".to_owned(), Json::num(rep.peak_value("solve.coords"))),
                ("total".to_owned(), Json::num(r.counts.total as u64)),
                ("inferred".to_owned(), Json::num(r.counts.inferred as u64)),
                (
                    "constraints".to_owned(),
                    Json::num(r.analysis.constraints.len() as u64),
                ),
            ];
            for qc in &r.qual_counts {
                fields.push((format!("{}_may", qc.name), Json::num(qc.may as u64)));
                fields.push((format!("{}_must", qc.name), Json::num(qc.must as u64)));
            }
            fields.push(("cold_ns".to_owned(), Json::num(rep.total_ns)));
            qual_rows.push(Json::Obj(fields));
        }
    }
    let quals = bench_doc("quals", args.reps, qual_rows);

    // Compare against baselines, then persist the new documents.
    let baseline_dir = args.baseline_dir.as_deref();
    let mut count_drift = false;
    let mut timing_regression = false;
    for (file, doc) in [
        ("BENCH_table2.json", &table2),
        ("BENCH_incr.json", &incr),
        ("BENCH_quals.json", &quals),
    ] {
        let baseline_path =
            baseline_dir.unwrap_or(args.out_dir.as_path()).join(file);
        match read_baseline(&baseline_path) {
            Baseline::Absent => {
                println!("bench-regress: {file}: no baseline, recording fresh");
            }
            Baseline::Unusable(why) => {
                eprintln!(
                    "bench-regress: {file}: baseline ignored ({why}); recording fresh"
                );
            }
            Baseline::Doc(prev) => {
                let drifts = compare_bench_docs(&prev, doc, args.tolerance);
                report_drifts(
                    file,
                    &drifts,
                    args.timings_warn_only,
                    &mut count_drift,
                    &mut timing_regression,
                );
            }
        }
        let out_path = args.out_dir.join(file);
        if let Err(e) = std::fs::write(&out_path, doc.render()) {
            eprintln!(
                "bench-regress: cannot write {}: {e}",
                out_path.display()
            );
            return ExitCode::from(4);
        }
        println!("bench-regress: wrote {}", out_path.display());
    }

    if bench_failed {
        ExitCode::from(3)
    } else if count_drift {
        ExitCode::from(1)
    } else if timing_regression {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// One poly engine run at default options and budgets: what plain
/// `cqual --qual SET` runs.
fn analyze(src: &str, space: &QualSpace) -> qual_constinfer::AnalysisOutcome {
    analyze_source_with_options_in(
        src,
        space,
        Mode::Polymorphic,
        Options::default(),
        Budgets::default(),
    )
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

enum Baseline {
    Absent,
    Unusable(String),
    Doc(Json),
}

/// Loads and schema-checks a previous bench document. An unreadable or
/// invalid baseline is reported and skipped — a corrupted old file must
/// not block recording a good new one.
fn read_baseline(path: &Path) -> Baseline {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Baseline::Absent;
        }
        Err(e) => return Baseline::Unusable(format!("unreadable: {e}")),
    };
    let doc = match qual_obs::json::parse(&text) {
        Ok(d) => d,
        Err(e) => return Baseline::Unusable(format!("unparsable: {e}")),
    };
    match validate_bench(&doc) {
        Ok(()) => Baseline::Doc(doc),
        Err(e) => Baseline::Unusable(format!("schema-invalid: {e}")),
    }
}

fn report_drifts(
    file: &str,
    drifts: &[BenchDrift],
    timings_warn_only: bool,
    count_drift: &mut bool,
    timing_regression: &mut bool,
) {
    if drifts.is_empty() {
        println!("bench-regress: {file}: no drift vs baseline");
        return;
    }
    for d in drifts {
        if d.timing {
            if timings_warn_only {
                eprintln!("bench-regress: {file}: warning: {d}");
            } else {
                eprintln!("bench-regress: {file}: TIMING REGRESSION: {d}");
                *timing_regression = true;
            }
        } else {
            eprintln!("bench-regress: {file}: COUNT DRIFT: {d}");
            *count_drift = true;
        }
    }
}
