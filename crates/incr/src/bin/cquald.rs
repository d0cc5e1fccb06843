//! `cquald` — the resident, crash-only analysis daemon behind
//! `cqual --connect` (DESIGN.md §16).
//!
//! ```text
//! cquald --socket PATH [--cache-dir DIR] [--mode mono|poly|polyrec]
//!        [--jobs N] [--max-inflight N] [--queue-cap N]
//!        [--request-deadline-ms N] [--read-timeout-ms N]
//!        [--idle-timeout-ms N] [--drain-deadline-ms N]
//!        [--memory-budget-mb N]
//! ```
//!
//! The daemon holds one analysis session resident (the QINC cache
//! session plus a memo of recent reports) and serves QSP1 server frames
//! on the unix socket. It admits a bounded amount of work and sheds the
//! rest with structured `Overloaded` replies; it drains gracefully on
//! SIGTERM/SIGINT or a client Shutdown frame; and because every durable
//! byte lives in the crash-safe QINC cache, `kill -9` at any moment
//! loses only in-flight requests — the next `cquald` on the same socket
//! steals the stale file and serves warm.
//!
//! Exit codes: 0 after a drain, 1 when serving could not start, 2 for
//! bad usage.

use std::path::PathBuf;
use std::process::ExitCode;

use qual_constinfer::Mode;
use qual_incr::serve::{run, ServeConfig};

/// The daemon is long-lived, so the tracking allocator matters most
/// here: it feeds the `mem.peak_bytes`/`mem.live_bytes` gauges the
/// soak harness bounds and arms `--memory-budget-mb` per unit.
#[global_allocator]
static ALLOC: qual_obs::mem::TrackingAlloc = qual_obs::mem::TrackingAlloc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cquald --socket PATH [--cache-dir DIR] [--mode mono|poly|polyrec]\n\
         \x20             [--jobs N] [--max-inflight N] [--queue-cap N]\n\
         \x20             [--request-deadline-ms N] [--read-timeout-ms N]\n\
         \x20             [--idle-timeout-ms N] [--drain-deadline-ms N]\n\
         \x20             [--memory-budget-mb N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Fault plans arrive via the environment (QUAL_FAULT_PLAN /
    // QUAL_FAULT_SEED) so the chaos suite can arm the daemon's
    // `serve.*` fault points without a flag.
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
            "--cache-dir" => match args.next() {
                Some(d) => cfg.incr.cache_dir = Some(PathBuf::from(d)),
                None => return usage(),
            },
            "--mode" => match args.next().as_deref().and_then(Mode::from_name) {
                Some(mode) => cfg.incr.mode = mode,
                None => return usage(),
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.incr.jobs = n,
                _ => return usage(),
            },
            "--max-inflight" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.max_inflight = n,
                _ => return usage(),
            },
            "--queue-cap" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.queue_cap = n,
                _ => return usage(),
            },
            "--request-deadline-ms" => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => cfg.request_deadline_ms = Some(n),
                    _ => return usage(),
                }
            }
            "--read-timeout-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.read_timeout_ms = n,
                _ => return usage(),
            },
            "--idle-timeout-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.idle_timeout_ms = n,
                _ => return usage(),
            },
            "--drain-deadline-ms" => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => cfg.drain_deadline_ms = n,
                    None => return usage(),
                }
            }
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
