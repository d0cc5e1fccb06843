//! `cqual` — command-line const inference for C, in the spirit of the
//! tool the paper built (and its successor CQual).
//!
//! ```text
//! cqual [--mode mono|poly|polyrec] [--annotate|--rewrite|--report]
//!       [--qual LIST] [--list-quals] [--verify] [--explain]
//!       [--keep-going] [--memory-budget-mb N] [--fault-plan SPEC]
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
//!   e.g. `--qual const,nonnull,tainted`. Every listed
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
//! * `--memory-budget-mb N`: bound each fault unit's gross heap
//!   allocation to N MiB (measured by the tracking allocator,
//!   DESIGN.md §18). The fault units are the engine's: each global
//!   initializer, and each function (mono) or FDG component (poly,
//!   polyrec). A unit that overruns is rolled back and excluded with a
//!   rendered `memory budget exceeded` diagnostic, like a work-budget
//!   fault — the rest of the program still gets counts, and the run
//!   exits 1, never aborts.
//! * `--fault-plan SPEC`: arm deterministic fault injection for chaos
//!   testing, as `point@N=kind` rules (e.g. `verify.cert@1=io`, which
//!   forges a certification failure); also settable via
//!   `QUAL_FAULT_PLAN`. Injection is for testing this tool, not for
//!   production runs.
//! * `--metrics PATH` (or `QUAL_METRICS=PATH`): write a versioned JSON
//!   metrics document for the whole invocation — per-phase spans
//!   (parse, sema, fdg, cgen-constraints, solve-propagate, certify),
//!   counters (the `analysis.*` results among them) and peaks (the
//!   allocator's `mem.peak_bytes` among them); see DESIGN.md §13.
//!   Instrumentation never changes counts, diagnostics, or exit codes.
//! * `--connect SOCKET`: send the `--report` analysis to a resident
//!   `cquald` daemon on SOCKET instead of analyzing in process. The
//!   daemon runs the same engine plain `cqual` runs, so the run prints
//!   what `cqual` prints without `--connect`: the same stdout, stderr
//!   and exit code. The client retries an `Overloaded` reply up to 3
//!   times, honoring the daemon's retry hint capped at 250 ms per
//!   sleep. The daemon serves only the plain `--report` at default
//!   budgets; with `--annotate`, `--rewrite`, `--explain`,
//!   `--memory-budget-mb` or a budget flag, or when the daemon is
//!   unreachable, still overloaded or answers with an error, the run
//!   prints one note on stderr and does what it does without
//!   `--connect`.
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
//! The whole pipeline is fault-isolated: unparseable items and
//! functions that fail sema or exhaust an analysis budget are skipped
//! with a rendered diagnostic while counts are still produced for the
//! rest.
//! Every venue prints its result through one renderer, with
//! diagnostics sorted by source position.
//!
//! Exit codes:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | completely clean run (also `--help`, which prints usage on stdout) |
//! | 1    | analysis finished but skipped something, solving failed, an input could not be read, or stdout could not be written |
//! | 2    | bad usage (unknown flag, missing argument, no input files, malformed `--fault-plan`); usage goes to stderr |
//! | 3    | `--verify` found a result that failed certification |
//!
//! `--connect` daemon trouble is reported on stderr but never changes
//! the exit code (the run degrades in process instead). A reader that
//! closes stdout early (`cqual big.c | head -1`) ends the output there;
//! the run exits with the code it computed, without a panic. Any other
//! failed write to stdout (`cqual f.c > /dev/full`) prints one
//! `cqual: cannot write output: …` line on stderr, ends the output,
//! and exits 1.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use qual_constinfer::{
    analyze_source_with_options_in, rewrite_source, AnalysisOutcome, Budgets,
    Mode, Options, PositionClass,
};
use qual_lattice::QualSpace;
use qual_incr::proto::{AnalyzeReq, ReportFrame, PROTO_VERSION};
use qual_incr::serve;
use qual_solve::SolveFailure;

/// Route every heap allocation through the tracking allocator so
/// `--memory-budget-mb` and the `mem.peak_bytes`/`mem.live_bytes`
/// metrics see real numbers (the shim is two relaxed atomic ops per
/// call when no budget is armed).
#[global_allocator]
static ALLOC: qual_obs::mem::TrackingAlloc = qual_obs::mem::TrackingAlloc;

/// Set once a write to stdout fails: the rest of the output is
/// dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);
/// Set when that failure was not a broken pipe: the run then exits 1.
static STDOUT_FAILED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout like `print!`, without panicking when it fails. A
/// closed pipe means the reader has gone away (`cqual big.c | head
/// -1`): the output ends quietly and the run still exits with the
/// status it computed. Any other failure is said once on stderr.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().write_fmt(args) {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            STDOUT_FAILED.store(true, Ordering::Relaxed);
            eprintln!("cqual: cannot write output: {e}");
        }
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

const USAGE: &str = "usage: cqual [--mode mono|poly|polyrec] [--report|--annotate|--rewrite]\n\
                     \x20            [--qual LIST] [--list-quals]\n\
                     \x20            [--verify] [--explain] [--keep-going]\n\
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
    /// The engine's budgets; `--memory-budget-mb` sets
    /// [`Budgets::max_unit_bytes`].
    budgets: Budgets,
    verify: bool,
    explain: bool,
    /// Where to write the invocation's JSON metrics document.
    metrics: Option<PathBuf>,
    /// Print the human metrics table after the report.
    metrics_summary: bool,
    /// A `cquald` socket to send `--report` analyses to; unreachable
    /// daemons degrade to an in-process run.
    connect: Option<PathBuf>,
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
    let code = run_cli();
    if STDOUT_FAILED.load(Ordering::Relaxed) {
        ExitCode::FAILURE
    } else {
        code
    }
}

fn run_cli() -> ExitCode {
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
                out!("{}", qual_constinfer::list_builtins());
                return ExitCode::SUCCESS;
            }
            "--verify" => cfg.verify = true,
            "--explain" => cfg.explain = true,
            "--keep-going" => keep_going = true,
            "--memory-budget-mb" => {
                match args.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => {
                        cfg.budgets.max_unit_bytes = Some(n.saturating_mul(1 << 20));
                    }
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
                outln!("{USAGE}");
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
        out!("{}", qual_obs::render_summary(&report, "cqual", mode));
    }
    code
}

/// Writes the metrics document via temp+rename so a monitoring reader
/// never sees a torn file: a crash or a full disk mid-write leaves
/// either the previous complete document or nothing, never a prefix.
/// The `metrics.write` fault point fails the write for chaos tests;
/// metrics trouble stays on stderr and never changes the exit code.
fn write_metrics_atomic(path: &std::path::Path, doc: &str) -> std::io::Result<()> {
    use std::io::Write;
    qual_faultpoint::hit("metrics.write")?;
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
        outln!("== {f} ==");
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
    outln!(
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
    if let Some(socket) = &cfg.connect {
        match served_report(cfg, socket, src) {
            Ok(frame) => return print_frame(&frame, None, ""),
            Err(why) => eprintln!("cqual: {why}; analyzing in process instead"),
        }
    }
    let options = Options {
        verify_solutions: cfg.verify,
        ..Options::default()
    };
    let outcome = analyze_source_with_options_in(
        src, &cfg.space, cfg.mode, options, cfg.budgets,
    );
    let view = match cfg.action {
        Action::Report => None,
        Action::Annotate => Some(outcome.result.as_ref().map_or_else(String::new, |r| {
            r.annotated_signatures(&outcome.program)
        })),
        Action::Rewrite => Some(rewrite_text(cfg, src, &outcome)),
    };
    let trailer = if cfg.explain {
        explanations(src, &outcome)
    } else {
        String::new()
    };
    let frame = serve::engine_report(src, cfg.mode, cfg.verify, &outcome);
    print_frame(&frame, view.as_deref(), &trailer)
}

/// `--connect`: the report a resident `cquald` serves. The daemon runs
/// the plain engine's `--report` at default budgets, so any other
/// choice of flags is refused up front; so is daemon trouble
/// (unreachable socket, persistent overload, a server error). The
/// `Err` says why, and the caller then runs what plain `cqual` runs.
fn served_report(cfg: &Config, socket: &Path, src: &str) -> Result<ReportFrame, String> {
    if cfg.action != Action::Report || cfg.explain {
        return Err("note: the daemon serves the report only, without \
                    --annotate, --rewrite or --explain"
            .to_owned());
    }
    if cfg.budgets != Budgets::default() {
        return Err("note: the daemon protocol carries no budgets".to_owned());
    }
    let req = AnalyzeReq {
        version: PROTO_VERSION,
        src: src.to_owned(),
        mode: cfg.mode,
        quals: qual_constinfer::space_names(&cfg.space),
        verify: cfg.verify,
        deadline_ms: None,
    };
    serve::request_analyze(&serve::Connect::new(socket.to_path_buf()), &req).map_err(|e| {
        qual_obs::count("serve.fallback", 1);
        e.to_string()
    })
}

/// Prints one analysis — served by a daemon or produced locally, the
/// bytes are the same because every venue renders through one
/// [`ReportFrame`]. `view` replaces the report on stdout
/// (`--annotate`/`--rewrite`); `trailer` follows it there (`--explain`
/// paths), before the `certified:` line.
fn print_frame(frame: &ReportFrame, view: Option<&str>, trailer: &str) -> RunStats {
    if let Some(text) = view {
        out!("{text}");
    } else if let Some([total, declared, inferred]) = frame.counts {
        outln!(
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
            outln!("  {:<32} {class}{declared}", p.label());
        }
        print_qual_counts(&frame.qual_counts);
    }
    out!("{trailer}");
    for d in &frame.skipped {
        eprint!("{d}");
    }
    if frame.counts.is_none() {
        eprintln!("cqual: constraint solving failed; counts are unavailable");
    }
    let cert_failures = frame.cert_failures as usize;
    if frame.verify && cert_failures == 0 {
        match frame.counts {
            Some(_) => outln!(
                "cqual: certified: solution satisfies all {} constraint(s)",
                frame.certified
            ),
            // 0 paths: a blown budget or a cancelled solve claims nothing.
            None if frame.certified > 0 => outln!(
                "cqual: certified: unsatisfiability witnessed by {} constraint path(s)",
                frame.certified
            ),
            None => {}
        }
    }
    RunStats {
        diags: frame.skipped.len(),
        cert_failures,
    }
}

/// `--explain`: renders each unsat violation as a constraint path from
/// the qualifier's constant source to the bound that rejects it.
fn explanations(src: &str, outcome: &AnalysisOutcome) -> String {
    let Some(analysis) = &outcome.failed else {
        return String::new();
    };
    let Err(SolveFailure::Unsat(err)) = &analysis.solution else {
        return String::new();
    };
    qual_solve::explain(&analysis.space, analysis.constraints.constraints(), err)
        .iter()
        .map(|exp| qual_solve::diag::render_explanation(Some(src), &analysis.space, exp))
        .collect()
}

/// The per-qualifier `may`/`must` rows a multi-qualifier run appends to
/// the report. A `const`-only run prints nothing here, so `--qual
/// const` stays byte-identical to a run without the flag.
fn print_qual_counts(rows: &[(String, u64, u64)]) {
    if rows.is_empty() || (rows.len() == 1 && rows[0].0 == "const") {
        return;
    }
    outln!("qualifier counts:");
    for (name, may, must) in rows {
        outln!("  {name:<10} {may:>4} may  {must:>4} must");
    }
}

/// `--rewrite`: the whole program with the monomorphic consts inserted
/// (empty when solving failed).
fn rewrite_text(cfg: &Config, src: &str, outcome: &AnalysisOutcome) -> String {
    if cfg.mode != Mode::Monomorphic {
        eprintln!(
            "cqual: note: rewriting uses the monomorphic result \
             (polymorphic extras cannot be expressed as C consts)"
        );
    }
    // Rewriting needs monomorphic classifications; reuse the outcome
    // when it is already monomorphic, otherwise re-analyze. The metrics
    // document describes the report's run only, so the re-analysis
    // records into a collector of its own, which is dropped.
    let mono;
    let (prog, result) = if cfg.mode == Mode::Monomorphic {
        (&outcome.program, outcome.result.as_ref())
    } else {
        (mono, _) = qual_obs::scoped(|| {
            analyze_source_with_options_in(
                src,
                &cfg.space,
                Mode::Monomorphic,
                Options::default(),
                cfg.budgets,
            )
        });
        (&mono.program, mono.result.as_ref())
    };
    result.map_or_else(String::new, |result| rewrite_source(prog, result))
}
