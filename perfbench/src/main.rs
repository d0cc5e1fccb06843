//! End-to-end and per-layer benchmark of `cqual` and `cquald`.
//!
//! ```text
//! perfbench --workload paper-cold|large-cold|editor-session
//!           --seed N --seconds S --trace 0|1
//! perfbench --smoke
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) replays every layer on the same inputs and
//! reports the per-layer metrics. The last line of standard output is
//! the JSON result; everything before it is for people. `--smoke` runs
//! every workload at tiny sizes, traced and untraced, and fails if any
//! metric is missing, has the wrong unit, is not finite, or if any
//! operation failed. See `README.md` for what each metric means.

mod cold;
mod editor;
mod inputs;
mod layers;
mod oracle;
mod report;
mod served;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use qual_lattice::QualSpace;

use inputs::Program;
use report::{Metrics, Tally, END_TO_END, PER_LAYER};
use util::{median, ms_since};

/// The same allocator the shipped binaries install, so every timing
/// includes its cost.
#[global_allocator]
static ALLOC: qual_obs::mem::TrackingAlloc = qual_obs::mem::TrackingAlloc;

const WORKLOADS: &[&str] = &["paper-cold", "large-cold", "editor-session"];

/// Where runs keep their scratch files and span logs, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".perfbench";

/// A per-process scratch directory, removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn new(tag: &str) -> RunDir {
        let dir = Path::new(OUT_DIR).join(format!("run-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run directory");
        RunDir(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1\n       perfbench --smoke",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next();
        match a.as_str() {
            "--smoke" => return smoke(),
            "--workload" => match val() {
                Some(w) if WORKLOADS.contains(&w.as_str()) => workload = Some(w),
                _ => return usage(),
            },
            "--seed" => match val().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--seconds" => match val().and_then(|v| v.parse().ok()) {
                Some(s) if s > 0.0 => seconds = s,
                _ => return usage(),
            },
            "--trace" => match val().as_deref() {
                Some("0") => traced = false,
                Some("1") => traced = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let (m, tally) = run(&workload, seed, seconds, traced, false);
    print!(
        "{}",
        m.human(&format!(
            "{workload} seed={seed} trace={}",
            u8::from(traced)
        ))
    );
    for n in &tally.notes {
        eprintln!("perfbench: failed check: {n}");
    }
    let wanted = if traced { PER_LAYER } else { END_TO_END };
    for p in m.problems(wanted) {
        eprintln!("perfbench: metric problem: {p}");
    }
    println!("{}", m.json_line(wanted, &tally));
    ExitCode::SUCCESS
}

/// One workload, traced or not.
fn run(workload: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> (Metrics, Tally) {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let dir = RunDir::new(workload);
    let programs: Vec<Program> = match workload {
        "paper-cold" => inputs::paper(seed, smoke),
        "large-cold" => vec![inputs::large(seed, smoke)],
        _ => vec![inputs::uucp(seed, smoke)],
    };
    m.note(
        "sources",
        inputs::digest(&programs.iter().collect::<Vec<_>>()),
    );
    if traced {
        traced_run(workload, &programs, seed, smoke, &dir.0, &mut m, &mut tally);
    } else {
        if workload == "editor-session" {
            editor::run(&programs[0], seconds, seed, &dir.0, &mut m, &mut tally);
        } else {
            // large-cold runs the plain path only: its share of cgen is
            // what the workload is for, and a --jobs 2 pass would halve
            // its samples.
            let with_driver = workload == "paper-cold";
            cold::run(
                &programs,
                seconds,
                seed,
                with_driver,
                &dir.0,
                &mut m,
                &mut tally,
            );
        }
        // The tracking allocator's high-water mark of live heap bytes.
        // VmHWM is printed too but not reported: with several server
        // threads it depends on which glibc arenas the analyses landed
        // in, and moves by a third between identical runs.
        m.set(
            "peak_heap_mb",
            "MB",
            qual_obs::mem::peak_bytes() as f64 / (1 << 20) as f64,
        );
        m.note(
            "peak_rss_mb",
            format!("{:.3} MB (VmHWM)", util::peak_rss_mb()),
        );
    }
    m.note(
        "error_rate",
        format!(
            "{} share ({} of {} operations failed)",
            tally.error_rate(),
            tally.failed,
            tally.attempted
        ),
    );
    m.note(
        "threads",
        format!(
            "available_parallelism={}",
            std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
        ),
    );
    (m, tally)
}

/// Ratio of time growth to size growth between the half- and full-size
/// copies of one program: 1.0 is linear.
fn doubling(full_ms: f64, half_ms: f64, full: &Program, half: &Program) -> f64 {
    (full_ms / half_ms) / (full.lines as f64 / half.lines as f64)
}

fn traced_run(
    workload: &str,
    programs: &[Program],
    seed: u64,
    smoke: bool,
    dir: &Path,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let space = QualSpace::const_only();
    let mut rec = trace::Recorder::new();
    let largest = programs
        .iter()
        .max_by_key(|p| p.lines)
        .expect("a workload has programs");
    let half = largest.half();
    // The served session runs on the workload's editor-sized buffer:
    // uucp-1.04 for the paper-size workloads, the half-size copy for
    // large-cold (a full-size prime would store ~17K units, fsync'd).
    let session_prog = if workload == "large-cold" {
        &half
    } else {
        largest
    };

    let mut sum = layers::Infer::default();
    let mut full = layers::Infer::default();
    let mut plain_ms = 0.0;
    for p in programs {
        // The untraced plain path right before its traced replay, so
        // both see the same heap state: their difference is the tracing
        // overhead.
        let t = Instant::now();
        let out = cold::plain(&p.src, &space);
        plain_ms += ms_since(t);
        let want = oracle::plain(&out, &space);
        tally.check(want.is_ok(), || {
            format!("{}: plain: {:?}", p.name, want.as_ref().err())
        });
        drop(out);
        let span = rec.enter(&format!("program.{}", p.name), None);
        let l = layers::infer(&mut rec, p, &space, tally);
        rec.exit(span);
        sum.add(&l);
        if std::ptr::eq(p, largest) {
            full = l;
        }
    }
    let span = rec.enter(&format!("program.{}", half.name), None);
    let half_l = layers::infer(&mut rec, &half, &space, tally);
    rec.exit(span);

    let replay_cache = dir.join("replay.cache");
    let mut drv = layers::Driver::default();
    for p in programs {
        let span = rec.enter(&format!("driver.{}", p.name), None);
        drv.add(layers::driver(&mut rec, p, &space, &replay_cache, tally));
        rec.exit(span);
    }
    let _ = std::fs::remove_dir_all(&replay_cache);

    // The driver at one and two jobs, untraced; both answers must equal
    // the plain path's.
    let (mut jobs1_ms, mut jobs2_ms) = (0.0, 0.0);
    for p in programs {
        let want = oracle::plain(&cold::plain(&p.src, &space), &space);
        for (jobs, acc) in [(1, &mut jobs1_ms), (2, &mut jobs2_ms)] {
            let t = Instant::now();
            let got = qual_incr::analyze_source_incremental(&p.src, &cold::driver_config(jobs));
            *acc += ms_since(t);
            let same = oracle::driver(&got).ok() == want.as_ref().ok().cloned();
            tally.check(same, || {
                format!("{}: --jobs {jobs} disagrees with the plain path", p.name)
            });
        }
    }

    let counts = if smoke {
        served::Counts {
            leaf: 4,
            hub: 2,
            query: 20,
            reopen: 10,
            null: 20,
        }
    } else {
        served::Counts {
            leaf: 6,
            hub: 3,
            query: 100,
            reopen: 30,
            null: 100,
        }
    };
    let session = rec.enter(&format!("session.{}", session_prog.name), None);
    let s = served::session(&mut rec, session_prog, dir, seed, &counts, tally);
    rec.exit(session);

    m.set("cfront.lex.ms", "ms", sum.lex_ms);
    m.set("cfront.lex.tokens", "count", sum.tokens);
    m.set("cfront.parse.ms", "ms", sum.parse_total_ms - sum.lex_ms);
    m.set("cfront.sema.ms", "ms", sum.sema_ms);
    m.set("constinfer.fdg.ms", "ms", sum.fdg_ms);
    m.set("constinfer.cgen.ms", "ms", sum.cgen_ms);
    m.set("constinfer.cgen.constraints", "count", sum.constraints);
    m.set(
        "constinfer.cgen.ns_per_constraint",
        "ns",
        sum.cgen_ms * 1e6 / sum.constraints,
    );
    m.set(
        "constinfer.cgen.poly_over_mono",
        "ratio",
        sum.cgen_ms / sum.cgen_mono_ms,
    );
    m.note(
        "constinfer.cgen.poly_over_mono base",
        format!(
            "poly {:.3} ms / mono {:.3} ms (paper §4.4 claims at most 3x)",
            sum.cgen_ms, sum.cgen_mono_ms
        ),
    );
    m.set("constinfer.count.ms", "ms", sum.count_ms);
    m.set("solve.propagate.ms", "ms", sum.propagate_ms);
    m.set(
        "solve.propagate.ns_per_constraint",
        "ns",
        sum.propagate_ms * 1e6 / sum.constraints,
    );
    m.set("solve.collapsed", "count", sum.collapsed);
    m.set("solve.coalesced", "count", sum.coalesced);
    m.set("solve.certify.ms", "ms", sum.certify_ms);

    m.set("incr.plan.ms", "ms", drv.plan_ms);
    m.set("incr.unit.ms", "ms", drv.unit_ms);
    m.set("incr.unit.count", "count", drv.units);
    m.set("incr.unit.overhead", "ratio", drv.unit_ms / sum.cgen_ms);
    m.set("incr.unit.certify.ms", "ms", drv.certify_ms);
    m.set("incr.sched.speedup", "ratio", jobs1_ms / jobs2_ms);
    let attributed = sum.front_ms() + sum.fdg_ms + drv.plan_ms + drv.unit_ms;
    m.set(
        "incr.unattributed_share",
        "share",
        1.0 - attributed / jobs1_ms,
    );
    m.note(
        "incr.unattributed_share base",
        format!(
            "front end {:.3} + fdg {:.3} + plan {:.3} + units {:.3} ms of {jobs1_ms:.3} ms untraced --jobs 1 (jobs 2: {jobs2_ms:.3} ms)",
            sum.front_ms(),
            sum.fdg_ms,
            drv.plan_ms,
            drv.unit_ms
        ),
    );
    m.set("incr.cache.encode.ms", "ms", drv.encode_ms);
    m.set("incr.cache.decode.ms", "ms", drv.decode_ms);
    m.set("incr.cache.bytes", "bytes", drv.bytes);
    m.set("incr.cache.store.ms", "ms/unit", median(&drv.store_ms));
    m.set("incr.cache.load.ms", "ms/unit", median(&drv.load_ms));
    m.note(
        "incr.cache.store/load samples",
        format!("{} units", drv.store_ms.len()),
    );
    m.set("incr.cache.hit_ratio", "share", median(&s.hit_ratio));
    m.set(
        "incr.cache.dirty_units.leaf",
        "count",
        median(&s.dirty_leaf),
    );
    m.set("incr.cache.dirty_units.hub", "count", median(&s.dirty_hub));

    for (kind, ph) in [
        ("edit", &s.edit),
        ("query", &s.query),
        ("reopen", &s.reopen),
        ("null", &s.null),
    ] {
        let [c, w, wait, r] = ph.medians();
        m.set(&format!("serve.connect.ms.{kind}"), "ms", c);
        m.set(&format!("serve.write.ms.{kind}"), "ms", w);
        m.set(&format!("serve.wait.ms.{kind}"), "ms", wait);
        m.set(&format!("serve.read.ms.{kind}"), "ms", r);
        m.note(
            &format!("serve.{kind} samples"),
            format!("{}", ph.connect.len()),
        );
    }
    m.set("serve.warm_hit_ratio", "share", s.warm_hit_ratio);
    m.set("serve.shed", "count", s.shed);
    m.set("serve.errors", "count", s.errors);
    m.set("proto.report.bytes", "bytes", s.report_bytes);
    m.set("proto.encode.ms", "ms", s.encode_ms);
    m.set("proto.decode.ms", "ms", s.decode_ms);

    m.set(
        "cfront.doubling_ratio",
        "ratio",
        doubling(full.front_ms(), half_l.front_ms(), largest, &half),
    );
    m.set(
        "constinfer.cgen.doubling_ratio",
        "ratio",
        doubling(full.cgen_ms, half_l.cgen_ms, largest, &half),
    );
    m.set(
        "solve.propagate.doubling_ratio",
        "ratio",
        doubling(full.propagate_ms, half_l.propagate_ms, largest, &half),
    );
    m.note(
        "doubling base",
        format!(
            "{} ({} lines) vs {} ({} lines): front end {:.3}/{:.3} ms, cgen {:.3}/{:.3} ms, propagate {:.3}/{:.3} ms",
            largest.name,
            largest.lines,
            half.name,
            half.lines,
            full.front_ms(),
            half_l.front_ms(),
            full.cgen_ms,
            half_l.cgen_ms,
            full.propagate_ms,
            half_l.propagate_ms
        ),
    );
    m.set("trace.overhead.ms", "ms", sum.traced_e2e_ms - plain_ms);
    m.note(
        "trace.overhead base",
        format!(
            "traced plain-path calls {:.3} ms vs untraced plain path {plain_ms:.3} ms",
            sum.traced_e2e_ms
        ),
    );

    let spans = Path::new(OUT_DIR).join(format!("spans-{workload}-seed{seed}.jsonl"));
    match rec.write(&spans) {
        Ok(()) => m.note("spans", spans.display().to_string()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", spans.display()),
    }
}

/// Every workload at tiny sizes, untraced and traced; any missing or
/// malformed metric, or any failed operation, fails the smoke run.
fn smoke() -> ExitCode {
    let mut bad = 0;
    for w in WORKLOADS {
        for traced in [false, true] {
            let (m, tally) = run(w, 7, 1.0, traced, true);
            print!(
                "{}",
                m.human(&format!("smoke {w} trace={}", u8::from(traced)))
            );
            let wanted = if traced { PER_LAYER } else { END_TO_END };
            for p in m.problems(wanted) {
                eprintln!("smoke {w}: {p}");
                bad += 1;
            }
            for n in &tally.notes {
                eprintln!("smoke {w}: failed check: {n}");
            }
            if tally.failed > 0 || tally.attempted == 0 {
                eprintln!(
                    "smoke {w}: error_rate {} over {} operations",
                    tally.error_rate(),
                    tally.attempted
                );
                bad += 1;
            }
        }
    }
    if bad == 0 {
        println!("smoke: every workload reported every metric; no operation failed");
        ExitCode::SUCCESS
    } else {
        println!("smoke: {bad} problem(s)");
        ExitCode::FAILURE
    }
}
