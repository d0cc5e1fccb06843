//! The cold workloads, untraced: every analysis starts from source with
//! no cache and no daemon, through the entry points plain `cqual` and
//! `cqual --jobs 2` call.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use qual_constinfer::{analyze_source_with_options_in, Budgets, Mode, Options, Position};
use qual_incr::{analyze_source_incremental, IncrConfig};
use qual_lattice::QualSpace;

use crate::inputs::Program;
use crate::oracle::{self, Answer};
use crate::report::{Metrics, Tally};
use rand::Rng;

use crate::util::{median, ms_since, quantile, stream, thread_cpu_ms};

/// Set-ups timed per run; `setup_s` reports their median.
const SETUPS: usize = 21;
/// Lookup batches per analysed program per round, and lookups per batch.
const BATCHES: usize = 8;
const LOOKUPS: usize = 64;

/// `cqual FILE`: the plain path.
pub fn plain(src: &str, space: &QualSpace) -> qual_constinfer::AnalysisOutcome {
    analyze_source_with_options_in(
        src,
        space,
        Mode::Polymorphic,
        Options::default(),
        Budgets::default(),
    )
}

/// `cqual --jobs N FILE`: the incremental driver with no cache.
pub fn driver_config(jobs: usize) -> IncrConfig {
    IncrConfig {
        jobs,
        ..IncrConfig::default()
    }
}

/// Runs analysis rounds over `programs` until `seconds` have passed.
/// Each round analyses every program by the plain path (and, with
/// `with_driver`, by the `--jobs 2` driver), then answers seeded
/// position lookups from the plain result, the way an editor without
/// `cquald` would.
///
/// The plain path is single-threaded, so its throughput is taken from
/// the analysing thread's CPU time: on a machine of one's own that is
/// its wall time, and on a shared virtual machine it leaves out the
/// time the hypervisor gave to other guests. The wall-time figure is
/// printed alongside.
pub fn run(
    programs: &[Program],
    seconds: f64,
    seed: u64,
    with_driver: bool,
    run_dir: &Path,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    // The inputs reach the tool as files, as they reach `cqual`.
    for p in programs {
        std::fs::write(run_dir.join(format!("{}.c", p.name)), &p.src).expect("write input file");
    }

    // Set-up: what `cqual` does before its first analysis — read the
    // input files and build the qualifier space and configuration. Like
    // throughput, it is counted in CPU time.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut srcs = Vec::new();
    for _ in 0..SETUPS {
        let c = thread_cpu_ms();
        srcs = programs
            .iter()
            .map(|p| {
                std::fs::read_to_string(run_dir.join(format!("{}.c", p.name))).expect("read input")
            })
            .collect::<Vec<String>>();
        let space = QualSpace::const_only();
        let cfg = driver_config(2);
        black_box((&space, &cfg));
        setups.push((thread_cpu_ms() - c) / 1e3);
    }
    m.set("setup_s", "s", median(&setups));

    let space = QualSpace::const_only();
    let cfg = driver_config(2);
    let mut rng = stream(seed, 204);
    let total_lines: usize = programs.iter().map(|p| p.lines).sum();
    let mut plain_cpu_ms: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let mut plain_wall_ms: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let mut driver_ms: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let mut lookup_ms = Vec::new();
    let mut reference: Vec<Option<Answer>> = vec![None; programs.len()];
    let mut results: Vec<Vec<Position>> = Vec::with_capacity(programs.len());
    let mut rounds = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || rounds == 0 {
        rounds += 1;
        for (i, src) in srcs.iter().enumerate() {
            let name = &programs[i].name;
            let t = Instant::now();
            let c = thread_cpu_ms();
            let out = black_box(plain(src, &space));
            plain_cpu_ms[i].push(thread_cpu_ms() - c);
            plain_wall_ms[i].push(ms_since(t));
            let answer = oracle::plain(&out, &space);
            tally.check(answer.is_ok(), || {
                format!("{name}: plain: {:?}", answer.as_ref().err())
            });
            if let Ok(a) = &answer {
                let stable = reference[i].get_or_insert_with(|| a.clone()) == a;
                tally.check(stable, || {
                    format!("{name}: plain answer changed between rounds")
                });
            }

            if with_driver {
                let t = Instant::now();
                let incr = black_box(analyze_source_incremental(src, &cfg));
                driver_ms[i].push(ms_since(t));
                let same = oracle::driver(&incr).ok() == answer.as_ref().ok().cloned();
                tally.check(same, || {
                    format!("{name}: --jobs 2 disagrees with the plain path")
                });
            }

            if let Some(r) = out.result {
                results.push(r.positions);
            }
        }
        // Samples are batches of seeded lookups, each lookup too short to
        // time on its own; each sample is a batch's mean. A lookup picks
        // one of the round's results and a position in it, so every batch
        // mixes programs the same way.
        for _ in 0..BATCHES * results.len() {
            let wants: Vec<(usize, usize)> = (0..LOOKUPS)
                .map(|_| {
                    let prog = rng.gen_range(0..results.len());
                    (prog, rng.gen_range(0..results[prog].len()))
                })
                .collect();
            let t = Instant::now();
            let hits: Vec<Option<&Position>> = wants
                .iter()
                .map(|&(prog, at)| {
                    let want = &results[prog][at];
                    black_box(results[prog].iter().find(|p| {
                        p.function == want.function
                            && p.param == want.param
                            && p.level == want.level
                    }))
                })
                .collect();
            lookup_ms.push(ms_since(t) / LOOKUPS as f64);
            for (&(prog, at), hit) in wants.iter().zip(hits) {
                let want = &results[prog][at];
                let ok = hit.is_some_and(|p| p.class == want.class && p.declared == want.declared);
                tally.check(ok, || format!("lookup of {} failed", want.label()));
            }
        }
        results.clear();
    }
    // Total lines over the sum of each program's lower-quartile time.
    // Noise on a shared machine only ever adds time (other guests' load
    // stretched single 150K-line analyses by up to 70% in CPU time),
    // so the fast quartile estimates a program's cost more steadily than
    // the median of the few rounds a run holds.
    let rate = |per_program: &[Vec<f64>]| {
        let ms: f64 = per_program.iter().map(|t| quantile(t, 0.25)).sum();
        total_lines as f64 / (ms / 1e3)
    };
    m.set("lines_per_s", "lines/s", rate(&plain_cpu_ms));
    m.set("query_p50_ms", "ms", median(&lookup_ms));
    m.note(
        "lines_per_s (wall)",
        format!("{:.3} lines/s", rate(&plain_wall_ms)),
    );
    if with_driver {
        m.note(
            "driver_lines_per_s",
            format!("{:.3} lines/s (cqual --jobs 2, wall)", rate(&driver_ms)),
        );
    }
    m.note(
        "rounds",
        format!(
            "{rounds} (each: {} program(s), {total_lines} lines)",
            programs.len()
        ),
    );
    m.note(
        "lookups",
        format!("{} batches of {LOOKUPS}", lookup_ms.len()),
    );
}
