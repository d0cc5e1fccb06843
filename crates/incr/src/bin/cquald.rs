//! `cquald` — the resident, crash-only analysis daemon behind
//! `cqual --connect` (DESIGN.md §16).
//!
//! ```text
//! cquald --socket PATH [--max-inflight N] [--queue-cap N]
//!        [--memory-budget-mb N]
//! ```
//!
//! The daemon answers each analysis request with one run of the
//! whole-program engine plain `cqual` runs, in the mode, qualifiers and
//! verify flag the request carries, on the connection thread that read
//! the request, and keeps a memo of recent reports and the last report
//! served for position queries. It serves QSP1 server frames on the unix
//! socket. At most `--max-inflight` analyses (default 2) run at once,
//! and at most `--queue-cap` more requests (default 8) wait for one to
//! finish; the rest are shed with structured `Overloaded` replies. It
//! drains gracefully on SIGTERM/SIGINT or a client Shutdown frame; and
//! because it keeps no durable state, `kill -9` at any moment loses only
//! in-flight requests — the next `cquald` on the same socket steals the
//! stale file at once and serves.
//!
//! `--memory-budget-mb N` bounds the gross allocation of one request's
//! analysis; a request that overruns it answers with an error, and the
//! client analyzes in process.
//!
//! Timeouts are fixed: a request's deadline, its own or 30 s when the
//! client sent none, runs from the moment its frame was read and covers
//! both its wait for a slot and its analysis; one frame must arrive
//! within 10 s of its first byte, an idle connection is closed after
//! 300 s, and a drain waits 2 s for running and waiting requests.
//!
//! Exit codes: 0 after a drain, 1 when serving could not start, 2 for
//! bad usage (an unknown flag among them).

use std::path::PathBuf;
use std::process::ExitCode;

use qual_incr::serve::{run, ServeConfig};

/// The daemon is long-lived, so the tracking allocator matters most
/// here: it feeds the `mem.peak_bytes`/`mem.live_bytes` gauges the
/// soak harness bounds and measures `--memory-budget-mb` per request.
#[global_allocator]
static ALLOC: qual_obs::mem::TrackingAlloc = qual_obs::mem::TrackingAlloc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cquald --socket PATH [--max-inflight N] [--queue-cap N]\n\
         \x20             [--memory-budget-mb N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // A fault plan arrives via the environment (`QUAL_FAULT_PLAN`, e.g.
    // `serve.accept@3=fd-exhausted`) so the chaos suite can arm the
    // daemon's fault points without a flag.
    if let Err(e) = qual_faultpoint::install_from_env() {
        eprintln!("cquald: {e}");
        return ExitCode::from(2);
    }
    let mut socket: Option<PathBuf> = None;
    let mut cfg = ServeConfig::for_socket(PathBuf::new());
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => match args.next() {
                Some(p) => socket = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--max-inflight" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.max_inflight = n,
                _ => return usage(),
            },
            "--queue-cap" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.queue_cap = n,
                _ => return usage(),
            },
            "--memory-budget-mb" => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => cfg.incr.memory_budget_mb = Some(n),
                    _ => return usage(),
                }
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    let Some(socket) = socket else {
        return usage();
    };
    cfg.socket = socket;
    match run(cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cquald: {e}");
            ExitCode::FAILURE
        }
    }
}
