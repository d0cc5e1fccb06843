//! `cqual` — command-line const inference for C, in the spirit of the
//! tool the paper built (and its successor CQual).
//!
//! ```text
//! cqual [--mode mono|poly|polyrec] [--annotate|--rewrite|--report]
//!       [--qual LIST] [--list-quals] [--verify] [--explain]
//!       [--keep-going] [--jobs N]
//!       [--cache-dir DIR] [--cache-stats] [--unit-deadline-ms N]
//!       [--max-retries N] [--memory-budget-mb N] [--fault-plan SPEC]
//!       [--max-constraints N] [--max-solver-steps N] [--max-fn-work N]
//!       [--connect SOCKET] [--metrics PATH] [--metrics-summary] FILE...
//! ```
//!
//! * `--report` (default): the Table-2 style counts plus per-position
//!   classification.
//! * `--annotate`: print every defined function's signature with the
//!   inferable consts inserted.
//! * `--rewrite`: print the whole program with the (monomorphic)
//!   inferable consts inserted.
//! * `--qual LIST`: the comma-separated qualifier spaces to analyze,
//!   e.g. `--qual const,nonnull,tainted,linear`. Every listed
//!   qualifier's constraints are solved *simultaneously* — one
//!   word-parallel propagation pass over all coordinates, not one pass
//!   per qualifier. The report gains one `may/must` count row per
//!   qualifier; `--qual const` (the default) prints byte-identically
//!   to a run without the flag. Unknown names exit 2.
//! * `--list-quals`: print the built-in qualifier catalog (name,
//!   polarity, summary) and exit 0.
//! * `--verify`: certify the solve before trusting it — a successful
//!   solution is re-checked against every constraint by the independent
//!   verifier, and an unsatisfiable one must produce replayable
//!   explanation paths. Certification failure (a solver bug, loudly
//!   surfaced) exits with code 3.
//! * `--explain`: when the constraints are unsatisfiable, render each
//!   conflict as a CQual-style constraint path from the qualifier's
//!   source to the position that rejects it.
//! * `--jobs N`, `--cache-dir DIR`, `--cache-stats`: route `--report`
//!   through the incremental driver (`qual-incr`) — SCCs are analyzed
//!   in parallel wavefronts, summaries persist in the cache directory,
//!   and a warm rerun re-solves nothing. Counts and diagnostics are
//!   byte-identical to the serial report for any job count or cache
//!   state; cache trouble is reported on stderr but never changes the
//!   exit code. `--annotate`/`--rewrite`/`--explain` still use the
//!   classic pipeline (a note says so).
//! * `--unit-deadline-ms N`: cancel any unit still running after N
//!   milliseconds of wall clock (cooperative — polled inside the engine
//!   and solver loops) and exclude it like a budget-faulted unit.
//! * `--max-retries N`: attempts after a transient cache I/O failure
//!   (default 2).
//! * `--memory-budget-mb N`: bound each analysis unit's gross heap
//!   allocation to N MiB (measured by the tracking allocator,
//!   DESIGN.md §18). A unit that overruns is excluded with a rendered
//!   `memory budget exceeded` diagnostic, like a constraint-budget
//!   fault — the rest of the program still gets counts, and the run
//!   exits 1, never aborts.
//! * `--fault-plan SPEC`: arm deterministic fault injection for chaos
//!   testing (e.g. `cache.read@1=io` or `seed:42:150`); also settable
//!   via `QUAL_FAULT_PLAN` / `QUAL_FAULT_SEED`. Injection is for
//!   testing this tool, not for production runs.
//! * `--metrics PATH` (or `QUAL_METRICS=PATH`): write a versioned JSON
//!   metrics document for the whole invocation — per-phase spans
//!   (parse, sema, cgen-constraints, solve-propagate, certify,
//!   cache-read, cache-write, merge), counters, peaks, and one entry
//!   per analysis unit (see DESIGN.md §13). Instrumentation never
//!   changes counts, diagnostics, or exit codes.
//! * `--connect SOCKET`: send the `--report` analysis to a resident
//!   `cquald` daemon on SOCKET instead of analyzing in process. The
//!   client retries an `Overloaded` reply up to 3 times, honoring the
//!   daemon's retry hint capped at 250 ms per sleep; if the daemon is
//!   unreachable, still overloaded, or answers with an error, the run
//!   *degrades to an in-process analysis* with a note on stderr. The
//!   printed report and the exit code are byte-identical to a local
//!   run either way — `--connect` is purely an execution venue.
//! * `--metrics-summary`: print the same data as a human-readable
//!   table on stdout after the report.
//!
//! By default multiple files are concatenated and analyzed as one
//! program, exactly as the paper handles multi-file benchmarks ("We
//! analyzed each set of programs at once"). With `--keep-going` each
//! input is analyzed independently (directories expand to their `*.c`
//! files), a broken file cannot take the batch down, and the exit code
//! reports whether *any* input produced diagnostics.
//!
//! The whole pipeline is fault-isolated: unparseable items, functions
//! that fail sema, exhaust an analysis budget, blow their deadline, or
//! get quarantined after a worker panic are skipped with a rendered
//! diagnostic while counts are still produced for the rest.
//!
//! Exit codes:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | completely clean run (also `--help`, which prints usage on stdout) |
//! | 1    | analysis finished but skipped something (including quarantined or deadline-cancelled units), solving failed, or an input could not be read |
//! | 2    | bad usage (unknown flag, missing argument, no input files, malformed `--fault-plan`); usage goes to stderr |
//! | 3    | `--verify` found a result that failed certification |
//!
//! Cache infrastructure trouble (corrupt entries, store failures, an
//! unavailable lock) is reported on stderr but never changes the exit
//! code, and neither does `--connect` daemon trouble (the run degrades
//! in process instead).

use std::path::PathBuf;
use std::process::ExitCode;

use qual_constinfer::{
    analyze_source_with_options_in, rewrite_source, AnalysisOutcome, Budgets,
    Mode, Options, PositionClass,
};
use qual_lattice::QualSpace;
use qual_incr::proto::{AnalyzeReq, ReportFrame, PROTO_VERSION};
use qual_incr::{analyze_source_incremental, serve, IncrConfig};
use qual_solve::{Phase, SolveFailure};

/// Route every heap allocation through the tracking allocator so
/// `--memory-budget-mb` and the `mem.peak_bytes`/`mem.live_bytes`
/// metrics see real numbers (the shim is two relaxed atomic ops per
/// call when no budget is armed).
#[global_allocator]
static ALLOC: qual_obs::mem::TrackingAlloc = qual_obs::mem::TrackingAlloc;

const USAGE: &str = "usage: cqual [--mode mono|poly|polyrec] [--report|--annotate|--rewrite]\n\
                     \x20            [--qual LIST] [--list-quals]\n\
                     \x20            [--verify] [--explain] [--keep-going] [--jobs N]\n\
                     \x20            [--cache-dir DIR] [--cache-stats]\n\
                     \x20            [--unit-deadline-ms N] [--max-retries N]\n\
                     \x20            [--memory-budget-mb N] [--fault-plan SPEC]\n\
                     \x20            [--max-constraints N] [--max-solver-steps N]\n\
                     \x20            [--max-fn-work N] [--connect SOCKET]\n\
                     \x20            [--metrics PATH]\n\
                     \x20            [--metrics-summary] FILE...";

/// Bad usage: the synopsis goes to stderr and the exit code is 2.
/// (`--help` prints the same text to stdout and exits 0.)
fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

struct Config {
    mode: Mode,
    action: Action,
    /// The qualifier spaces to solve simultaneously (`--qual`); the
    /// default `const`-only space reproduces the classic report.
    space: QualSpace,
    budgets: Budgets,
    verify: bool,
    explain: bool,
    /// `Some(n)` when `--jobs` was given — an explicit `--jobs 1` still
    /// opts into the incremental driver (useful for differencing).
    jobs: Option<usize>,
    cache_dir: Option<PathBuf>,
    cache_stats: bool,
    unit_deadline_ms: Option<u64>,
    max_retries: Option<u32>,
    /// Per-unit gross allocation bound in MiB (`--memory-budget-mb`).
    memory_budget_mb: Option<u64>,
    /// Where to write the invocation's JSON metrics document.
    metrics: Option<PathBuf>,
    /// Print the human metrics table after the report.
    metrics_summary: bool,
    /// A `cquald` socket to send `--report` analyses to; unreachable
    /// daemons degrade to an in-process run.
    connect: Option<PathBuf>,
}

impl Config {
    /// Whether any incremental-driver flag was given.
    fn incremental(&self) -> bool {
        self.jobs.is_some()
            || self.cache_dir.is_some()
            || self.cache_stats
            || self.unit_deadline_ms.is_some()
            || self.max_retries.is_some()
            || self.memory_budget_mb.is_some()
    }
}

/// What one translation unit's analysis reported.
#[derive(Default)]
struct RunStats {
    /// Diagnostics rendered (skipped regions, unsat constraints, …).
    diags: usize,
    /// Certification failures among them — these escalate the exit code
    /// to 3, because they mean the *solver* is wrong, not the input.
    cert_failures: usize,
}

#[derive(PartialEq, Clone, Copy)]
enum Action {
    Report,
    Annotate,
    Rewrite,
}

fn main() -> ExitCode {
    // Arm fault injection from the environment up front; an explicit
    // `--fault-plan` below overrides it.
    if let Err(e) = qual_faultpoint::install_from_env() {
        eprintln!("cqual: {e}");
        return ExitCode::from(2);
    }
    let mut cfg = Config {
        mode: Mode::Polymorphic,
        action: Action::Report,
        space: QualSpace::const_only(),
        budgets: Budgets::default(),
        verify: false,
        explain: false,
        jobs: None,
        cache_dir: None,
        cache_stats: false,
        unit_deadline_ms: None,
        max_retries: None,
        memory_budget_mb: None,
        metrics: None,
        metrics_summary: false,
        connect: None,
    };
    let mut keep_going = false;
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--mode" => match args.next().as_deref().and_then(Mode::from_name) {
                Some(mode) => cfg.mode = mode,
                None => return usage(),
            },
            "--report" => cfg.action = Action::Report,
            "--annotate" => cfg.action = Action::Annotate,
            "--rewrite" => cfg.action = Action::Rewrite,
            "--qual" => match args.next() {
                Some(list) => match qual_constinfer::space_for(&list) {
                    Ok(space) => cfg.space = space,
                    Err(e) => {
                        eprintln!("cqual: --qual: {e}");
                        return ExitCode::from(2);
                    }
                },
                None => return usage(),
            },
            "--list-quals" => {
                // Like --help: informational, stdout, exit 0.
                print!("{}", qual_constinfer::list_builtins());
                return ExitCode::SUCCESS;
            }
            "--verify" => cfg.verify = true,
            "--explain" => cfg.explain = true,
            "--keep-going" => keep_going = true,
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.jobs = Some(n),
                _ => return usage(),
            },
            "--cache-dir" => match args.next() {
                Some(d) => cfg.cache_dir = Some(PathBuf::from(d)),
                None => return usage(),
            },
            "--cache-stats" => cfg.cache_stats = true,
            "--unit-deadline-ms" => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => cfg.unit_deadline_ms = Some(n),
                    _ => return usage(),
                }
            }
            "--max-retries" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.max_retries = Some(n),
                None => return usage(),
            },
            "--memory-budget-mb" => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => cfg.memory_budget_mb = Some(n),
                    _ => return usage(),
                }
            }
            "--fault-plan" => match args.next() {
                Some(spec) => match qual_faultpoint::FaultPlan::parse(&spec) {
                    Ok(plan) => qual_faultpoint::install(plan),
                    Err(e) => {
                        eprintln!("cqual: --fault-plan: {e}");
                        return ExitCode::from(2);
                    }
                },
                None => return usage(),
            },
            "--max-constraints" => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => cfg.budgets.max_constraints = n,
                    None => return usage(),
                }
            }
            "--max-solver-steps" => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => cfg.budgets.max_solver_steps = n,
                    None => return usage(),
                }
            }
            "--max-fn-work" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.budgets.max_fn_work = n,
                None => return usage(),
            },
            "--metrics" => match args.next() {
                Some(p) => cfg.metrics = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--metrics-summary" => cfg.metrics_summary = true,
            "--connect" => match args.next() {
                Some(s) => cfg.connect = Some(PathBuf::from(s)),
                None => return usage(),
            },
            "--help" | "-h" => {
                // Requested help is not an error: usage on *stdout*,
                // exit 0 (the table in the module docs pins this).
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if a.starts_with('-') => return usage(),
            _ => files.push(a),
        }
    }
    if files.is_empty() {
        return usage();
    }
    if cfg.metrics.is_none() {
        if let Ok(p) = std::env::var("QUAL_METRICS") {
            if !p.is_empty() {
                cfg.metrics = Some(PathBuf::from(p));
            }
        }
    }

    let run = || {
        if keep_going {
            run_batch(&cfg, &files)
        } else {
            run_concatenated(&cfg, &files)
        }
    };
    if cfg.metrics.is_none() && !cfg.metrics_summary {
        return run();
    }
    // One collector for the whole invocation: with --keep-going every
    // file's nested report is absorbed into it, so the document covers
    // the batch. Metrics trouble (an unwritable path) is operational —
    // reported on stderr, never in the exit code.
    let (code, report) = qual_obs::scoped(run);
    let mode = cfg.mode.name();
    if let Some(path) = &cfg.metrics {
        let doc = report.to_json("cqual", mode);
        if let Err(e) = write_metrics_atomic(path, &doc.render()) {
            eprintln!("cqual: cannot write metrics to {}: {e}", path.display());
        }
    }
    if cfg.metrics_summary {
        print!("{}", qual_obs::render_summary(&report, "cqual", mode));
    }
    code
}

/// Writes the metrics document via temp+rename so a monitoring reader
/// never sees a torn file: a crash or a disk-full fault mid-write
/// leaves either the previous complete document or nothing, never a
/// prefix. The `metrics.write` fault point and the disk byte budget
/// (`--fault-plan disk:CAP`) cover the write for chaos tests; metrics
/// trouble stays on stderr and never changes the exit code.
fn write_metrics_atomic(path: &std::path::Path, doc: &str) -> std::io::Result<()> {
    use std::io::Write;
    match qual_faultpoint::hit("metrics.write") {
        Some(qual_faultpoint::FaultKind::Panic) => {
            panic!("injected panic at metrics.write")
        }
        Some(qual_faultpoint::FaultKind::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        Some(qual_faultpoint::FaultKind::DiskFull) => {
            return Err(std::io::Error::other(
                "injected disk full at metrics.write (ENOSPC)",
            ));
        }
        Some(_) => {
            return Err(std::io::Error::other("injected fault at metrics.write"));
        }
        None => {}
    }
    if qual_faultpoint::charge_disk("metrics.write", doc.len() as u64).is_some() {
        return Err(std::io::Error::other(
            "injected disk full at metrics.write (ENOSPC)",
        ));
    }
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp_name);
    let written = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(doc.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Expands directory arguments to their `*.c` files, sorted; plain
/// files pass through.
fn expand_inputs(files: &[String]) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for f in files {
        let path = std::path::Path::new(f);
        if path.is_dir() {
            let mut found = Vec::new();
            let entries = std::fs::read_dir(path)
                .map_err(|e| format!("cannot read directory {f}: {e}"))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("cannot read directory {f}: {e}"))?;
                let p = entry.path();
                if p.extension().is_some_and(|x| x == "c") {
                    found.push(p.to_string_lossy().into_owned());
                }
            }
            found.sort();
            out.extend(found);
        } else {
            out.push(f.clone());
        }
    }
    Ok(out)
}

/// Default mode: one concatenated translation unit.
fn run_concatenated(cfg: &Config, files: &[String]) -> ExitCode {
    let mut src = String::new();
    for f in files {
        match std::fs::read_to_string(f) {
            Ok(text) => {
                src.push_str(&text);
                src.push('\n');
            }
            Err(e) => {
                eprintln!("cqual: cannot read {f}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    exit_code(&analyze_and_print(cfg, &src))
}

/// 0 clean, 1 diagnostics, 3 certification failure (the solver's answer
/// could not be certified — the most serious outcome, so it wins).
fn exit_code(stats: &RunStats) -> ExitCode {
    if stats.cert_failures > 0 {
        ExitCode::from(3)
    } else if stats.diags > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--keep-going`: every input analyzed independently; one broken file
/// cannot take down the batch.
fn run_batch(cfg: &Config, files: &[String]) -> ExitCode {
    let inputs = match expand_inputs(files) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("cqual: {e}");
            return ExitCode::FAILURE;
        }
    };
    if inputs.is_empty() {
        eprintln!("cqual: no input files");
        return ExitCode::FAILURE;
    }
    let mut total = RunStats::default();
    let mut clean = 0usize;
    for f in &inputs {
        println!("== {f} ==");
        match std::fs::read_to_string(f) {
            Ok(src) => {
                let stats = analyze_and_print(cfg, &src);
                if stats.diags == 0 {
                    clean += 1;
                }
                total.diags += stats.diags;
                total.cert_failures += stats.cert_failures;
            }
            Err(e) => {
                eprintln!("cqual: cannot read {f}: {e}");
                total.diags += 1;
            }
        }
    }
    println!(
        "cqual: {} file(s): {} clean, {} with diagnostics ({} diagnostic(s) total)",
        inputs.len(),
        clean,
        inputs.len() - clean,
        total.diags
    );
    exit_code(&total)
}

/// Analyzes one translation unit, prints the requested view for the
/// healthy part plus rendered diagnostics for everything skipped, and
/// returns the diagnostic tallies.
fn analyze_and_print(cfg: &Config, src: &str) -> RunStats {
    if cfg.action == Action::Report {
        if cfg.connect.is_some() {
            return analyze_and_print_connect(cfg, src);
        }
        if cfg.incremental() {
            return analyze_and_print_incremental(cfg, src);
        }
    }
    if cfg.connect.is_some() {
        eprintln!(
            "cqual: note: --annotate/--rewrite use the classic in-process \
             pipeline; --connect applies to --report only"
        );
    }
    if cfg.incremental() {
        eprintln!(
            "cqual: note: --annotate/--rewrite use the classic pipeline; \
             --jobs/--cache-dir apply to --report only"
        );
    }
    let options = Options {
        verify_solutions: cfg.verify,
        ..Options::default()
    };
    let outcome = analyze_source_with_options_in(
        src, &cfg.space, cfg.mode, options, cfg.budgets,
    );
    match cfg.action {
        Action::Report => print_report(cfg, &outcome),
        Action::Annotate => {
            if let Some(result) = &outcome.result {
                print!("{}", result.annotated_signatures(&outcome.program));
            }
        }
        Action::Rewrite => print_rewrite(cfg, src, &outcome),
    }
    if cfg.explain {
        print_explanations(src, &outcome);
    }
    for d in &outcome.skipped {
        eprint!("{}", d.render(Some(src)));
    }
    if outcome.result.is_none() {
        eprintln!("cqual: constraint solving failed; counts are unavailable");
    }
    let cert_failures = outcome
        .skipped
        .iter()
        .filter(|d| d.phase == Phase::Verify)
        .count();
    if cfg.verify && cert_failures == 0 {
        match (&outcome.result, &outcome.failed) {
            (Some(result), _) => println!(
                "cqual: certified: solution satisfies all {} constraint(s)",
                result.analysis.constraints.len()
            ),
            (None, Some(analysis)) => {
                if let Err(SolveFailure::Unsat(err)) = &analysis.solution {
                    println!(
                        "cqual: certified: unsatisfiability witnessed by {} \
                         constraint path(s)",
                        err.violations.len()
                    );
                }
            }
            (None, None) => {}
        }
    }
    RunStats {
        diags: outcome.skipped.len(),
        cert_failures,
    }
}

/// `--report` through the incremental driver: wavefront-parallel SCC
/// units, cached summaries, certificate-checked reuse. The printed
/// report and the exit code match the classic serial path; cache
/// infrastructure trouble goes to stderr without affecting either.
fn analyze_and_print_incremental(cfg: &Config, src: &str) -> RunStats {
    if cfg.explain {
        eprintln!(
            "cqual: note: --explain uses the classic pipeline and is \
             ignored under --jobs/--cache-dir"
        );
    }
    let icfg = incr_config(cfg);
    // `--cache-stats` is served *from the metrics layer*: the run is
    // collected into a report and the stats lines are rendered from its
    // counters, so the human output and `--metrics` JSON are two views
    // of one measurement and can never disagree. The nested report is
    // absorbed into the invocation-level collector (if any) afterwards.
    let need_report = cfg.cache_stats || qual_obs::armed();
    let (out, report) = if need_report {
        let (out, report) =
            qual_obs::scoped(|| analyze_source_incremental(src, &icfg));
        (out, Some(report))
    } else {
        (analyze_source_incremental(src, &icfg), None)
    };
    let frame = serve::report_from_outcome(&out, src, cfg.mode, cfg.verify);
    let cache_lines: Vec<String> = if cfg.cache_stats {
        let report = report.as_ref().expect("collected when --cache-stats");
        qual_incr::cache_stats_lines(report).into()
    } else {
        Vec::new()
    };
    if let Some(report) = &report {
        qual_obs::absorb(report);
    }
    print_frame(&frame, &cache_lines)
}

/// The incremental-driver configuration a `Config` asks for — shared by
/// the local incremental path and the `--connect` fallback, so both
/// venues analyze identically.
fn incr_config(cfg: &Config) -> IncrConfig {
    let defaults = IncrConfig::default();
    IncrConfig {
        mode: cfg.mode,
        space: cfg.space.clone(),
        options: Options {
            verify_solutions: cfg.verify,
            ..Options::default()
        },
        budgets: cfg.budgets,
        jobs: cfg.jobs.unwrap_or(1),
        cache_dir: cfg.cache_dir.clone(),
        unit_deadline_ms: cfg.unit_deadline_ms,
        memory_budget_mb: cfg.memory_budget_mb,
        max_retries: cfg.max_retries.unwrap_or(defaults.max_retries),
    }
}

/// `--connect`: route the report through a resident `cquald`. Any
/// daemon trouble — unreachable socket, persistent overload, a server
/// error — degrades to the in-process incremental analysis with a note
/// on stderr; the printed report and the exit code never depend on the
/// venue (both sides print through [`print_frame`] from the same
/// [`ReportFrame`] shape).
fn analyze_and_print_connect(cfg: &Config, src: &str) -> RunStats {
    let socket = cfg.connect.clone().expect("checked by the caller");
    if cfg.explain {
        eprintln!(
            "cqual: note: --explain uses the classic pipeline and is \
             ignored under --connect"
        );
    }
    if cfg.cache_stats {
        eprintln!(
            "cqual: note: --cache-stats describes a local session and is \
             ignored under --connect (the daemon owns the cache session)"
        );
    }
    let req = AnalyzeReq {
        version: PROTO_VERSION,
        src: src.to_owned(),
        mode: cfg.mode,
        quals: qual_constinfer::space_names(&cfg.space),
        verify: cfg.verify,
        deadline_ms: None,
    };
    let conn = serve::Connect::new(socket);
    let frame = match serve::request_analyze(&conn, &req) {
        Ok(frame) => frame,
        Err(e) => {
            eprintln!("cqual: {e}; analyzing in process instead");
            qual_obs::count("serve.fallback", 1);
            serve::local_report(&incr_config(cfg), &req)
        }
    };
    print_frame(&frame, &[])
}

/// Prints one analysis report — served by a daemon or produced locally,
/// the bytes are the same because both venues render through one
/// [`ReportFrame`]. `cache_lines` carries the `--cache-stats` lines of
/// a local run (empty otherwise).
fn print_frame(frame: &ReportFrame, cache_lines: &[String]) -> RunStats {
    if let Some([total, declared, inferred]) = frame.counts {
        println!(
            "{} interesting positions: {} declared const, {} inferable const ({:?})",
            total, declared, inferred, frame.mode
        );
        for p in &frame.positions {
            let class = match serve::class_from_tag(p.class) {
                Some(PositionClass::MustConst) => "must be const",
                Some(PositionClass::MustNotConst) => "cannot be const",
                _ => "could be const",
            };
            let declared = if p.declared { " [declared]" } else { "" };
            let label = qual_constinfer::Position {
                function: p.function.clone(),
                param: p.param.map(|i| i as usize),
                level: p.level as usize,
                declared: p.declared,
                class: serve::class_from_tag(p.class)
                    .unwrap_or(PositionClass::Either),
            }
            .label();
            println!("  {label:<32} {class}{declared}");
        }
        print_qual_counts(frame.qual_counts.iter().map(|(n, may, must)| {
            (n.as_str(), *may, *must)
        }));
    }
    for line in cache_lines {
        println!("cqual: cache: {line}");
    }
    if frame.quarantined > 0 {
        eprintln!(
            "cqual: {} unit(s) quarantined after worker fault(s); their \
             functions are excluded from the counts",
            frame.quarantined
        );
    }
    for d in &frame.skipped {
        eprint!("{d}");
    }
    // Cache trouble is operational, not analytical: report it, but keep
    // it out of the diagnostic tally that drives the exit code.
    for d in &frame.cache_notes {
        eprint!("{d}");
    }
    if frame.counts.is_none() {
        eprintln!("cqual: constraint solving failed; counts are unavailable");
    }
    let cert_failures = frame.cert_failures as usize;
    if frame.verify && cert_failures == 0 && frame.counts.is_some() {
        println!(
            "cqual: certified: solution satisfies all {} constraint(s)",
            frame.constraints
        );
    }
    RunStats {
        diags: frame.skipped.len(),
        cert_failures,
    }
}

/// `--explain`: renders each unsat violation as a constraint path from
/// the qualifier's constant source to the bound that rejects it.
fn print_explanations(src: &str, outcome: &AnalysisOutcome) {
    let Some(analysis) = &outcome.failed else {
        return;
    };
    let Err(SolveFailure::Unsat(err)) = &analysis.solution else {
        return;
    };
    let exps = qual_solve::explain(
        &analysis.space,
        analysis.constraints.constraints(),
        err,
    );
    for exp in &exps {
        print!(
            "{}",
            qual_solve::diag::render_explanation(Some(src), &analysis.space, exp)
        );
    }
}

fn print_report(cfg: &Config, outcome: &AnalysisOutcome) {
    let Some(result) = &outcome.result else {
        return;
    };
    let c = result.counts;
    println!(
        "{} interesting positions: {} declared const, {} inferable const ({:?})",
        c.total, c.declared, c.inferred, cfg.mode
    );
    for p in &result.positions {
        let class = match p.class {
            PositionClass::MustConst => "must be const",
            PositionClass::MustNotConst => "cannot be const",
            PositionClass::Either => "could be const",
        };
        let declared = if p.declared { " [declared]" } else { "" };
        println!("  {:<32} {class}{declared}", p.label());
    }
    print_qual_counts(result.qual_counts.iter().map(|q| {
        (q.name.as_str(), q.may as u64, q.must as u64)
    }));
}

/// The per-qualifier `may`/`must` rows a multi-qualifier run appends to
/// the report. A `const`-only run prints nothing here, so `--qual
/// const` stays byte-identical to the classic report; both the served
/// frame and the classic result render through this one function.
fn print_qual_counts<'a>(rows: impl Iterator<Item = (&'a str, u64, u64)>) {
    let rows: Vec<_> = rows.collect();
    if rows.is_empty() || (rows.len() == 1 && rows[0].0 == "const") {
        return;
    }
    println!("qualifier counts:");
    for (name, may, must) in rows {
        println!("  {name:<10} {may:>4} may  {must:>4} must");
    }
}

fn print_rewrite(cfg: &Config, src: &str, outcome: &AnalysisOutcome) {
    if cfg.mode != Mode::Monomorphic {
        eprintln!(
            "cqual: note: rewriting uses the monomorphic result \
             (polymorphic extras cannot be expressed as C consts)"
        );
    }
    // Rewriting needs monomorphic classifications; reuse the outcome
    // when it is already monomorphic, otherwise re-analyze.
    let mono;
    let (prog, result) = if cfg.mode == Mode::Monomorphic {
        (&outcome.program, outcome.result.as_ref())
    } else {
        mono = analyze_source_with_options_in(
            src,
            &cfg.space,
            Mode::Monomorphic,
            Options::default(),
            cfg.budgets,
        );
        (&mono.program, mono.result.as_ref())
    };
    if let Some(result) = result {
        print!("{}", rewrite_source(prog, result));
    }
}
