//! Endurance soak for `cquald` under the faults it can really meet
//! (DESIGN.md §18). Where `serve_chaos` pins single clauses of the
//! fault model, this harness drives one daemon through thousands of
//! mixed requests while its fd table runs out at accept, a frame read
//! and a reply write fail, and one large source overruns the real
//! per-request memory budget every time it is sent, and asserts the
//! *endurance* properties:
//!
//! * **Every armed fault fires.** The run of EMFILE refusals at accept
//!   shows in `serve.accept_emfile`; the failed read and write land on
//!   a sequential prelude where each one's client sees it; every
//!   request for the large source is refused over its memory budget.
//! * **Never panic, never hang.** Every request completes (report or
//!   structured error) inside a bound; the daemon process survives the
//!   whole run and its panic counters stay at zero.
//! * **Nothing shed.** Four closed-loop clients cannot fill two
//!   analysis slots plus eight waiting requests, so `serve.shed` reads
//!   0, and `serve.analyzed` covers at least half of the Reanalyze
//!   requests.
//! * **Bounded steady-state memory.** The daemon's RSS at the end of
//!   the soak is within a fixed slack of its mid-soak RSS — thousands
//!   of requests and refusals must not leak.
//! * **Byte-identical afterwards.** Once the soak is over, every source
//!   must produce exactly the frames a clean daemon produced — the memo
//!   and the resident report both recover, nothing stays poisoned.
//! * **Clean drain.** Both daemons exit 0 on a Shutdown frame and
//!   remove their socket files.
//!
//! Knobs: `QUAL_SOAK_REQUESTS` (total mixed requests, default 2400,
//! min 2000 enforced here) and `QUAL_SOAK_SEED` (schedule seed,
//! default 20260807). With `QUAL_SERVE_LOG_DIR` set, a summary document
//! is written next to the daemon logs there so CI can archive the run;
//! without it, a passing run leaves neither the summary nor a daemon's
//! log behind.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qual_constinfer::Mode;
use qual_incr::proto::{AnalyzeReq, ReportFrame, PROTO_VERSION};
use qual_incr::serve::{self, ClientError, Connect};

/// The soaked daemon runs with the same tracking allocator the shipped
/// binaries install, so `--memory-budget-mb` is exercised for real; the
/// test process itself installs it too, proving the shim is safe under
/// a multithreaded client swarm.
#[global_allocator]
static ALLOC: qual_obs::mem::TrackingAlloc = qual_obs::mem::TrackingAlloc;

/// Distinct sources so the memo sees real variety; each defines a
/// function the QueryQual phase can target. The soak adds
/// [`big_source`] as a seventh.
const SOURCES: [&str; 6] = [
    "int leaf(const char *s) { return *s; }\n\
     int mid(char *p) { return leaf(p); }\n",
    "char *id(char *q) { return q; }\n\
     void writer(char *buf) { *id(buf) = 'x'; }\n",
    "int lone(int *v) { return *v; }\n",
    "int first(const char *a) { return a[0]; }\n\
     int second(const char *b) { return first(b) + b[1]; }\n",
    "void scribble(char *d) { d[0] = 1; }\n\
     int peek(const char *d) { return d[0]; }\n",
    "int sum3(const int *xs) { return xs[0] + xs[1] + xs[2]; }\n",
];

/// One 8,000-statement function: its analysis allocates well over the
/// soaked daemon's 1 MiB per-request budget, which the small sources
/// never approach.
fn big_source() -> String {
    let body: String = (0..8000).map(|i| format!("  q[{i}] = p[{i}];\n")).collect();
    format!("void big(int *p, int *q) {{\n{body}}}\n")
}

/// Consecutive `serve.accept` hits refused with EMFILE: one episode,
/// over which the accept loop's backoff doubles.
const EMFILE_RUN: u64 = 4;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir()
            .join(format!("cquald-soak-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn log_dir() -> PathBuf {
    let dir = std::env::var_os("QUAL_SERVE_LOG_DIR")
        .map_or_else(std::env::temp_dir, PathBuf::from);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

struct Daemon {
    child: Child,
    socket: PathBuf,
    log: PathBuf,
}

impl Daemon {
    fn spawn(tag: &str, socket: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let log = log_dir().join(format!("cquald-{tag}-{}.log", std::process::id()));
        let logfile = std::fs::File::create(&log).expect("create daemon log");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_cquald"));
        cmd.arg("--socket")
            .arg(socket)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(logfile));
        // Only this test's own plan may arm a daemon.
        cmd.env_remove("QUAL_FAULT_PLAN");
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let child = cmd.spawn().expect("spawn cquald");
        let daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
            log,
        };
        daemon.await_serving();
        daemon
    }

    fn await_serving(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if UnixStream::connect(&self.socket).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("cquald never started serving on {}", self.socket.display());
    }

    fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Resident-set size in bytes from `/proc/<pid>/status`, or `None`
    /// off Linux (the RSS bound is then skipped, everything else holds).
    fn rss_bytes(&self) -> Option<u64> {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    }

    /// Shutdown frame, then wait for a clean exit inside a bound.
    fn drain(mut self) {
        serve::request_shutdown(&Connect::new(self.socket.clone()))
            .expect("shutdown ack");
        let deadline = Instant::now() + Duration::from_secs(15);
        let status = loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "daemon never exited after Shutdown"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(status.code(), Some(0), "drain must exit 0");
        assert!(
            !self.socket.exists(),
            "a drained daemon must remove its socket file"
        );
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // A passing run's log is deleted unless `QUAL_SERVE_LOG_DIR`
        // asked for the logs to be kept.
        if !std::thread::panicking() && std::env::var_os("QUAL_SERVE_LOG_DIR").is_none() {
            let _ = std::fs::remove_file(&self.log);
        }
    }
}

fn analyze_req(src: &str) -> AnalyzeReq {
    AnalyzeReq {
        version: PROTO_VERSION,
        src: src.to_owned(),
        mode: Mode::Polymorphic,
        quals: "const".to_owned(),
        verify: false,
        deadline_ms: Some(10_000),
    }
}

/// The memo-vs-cold bit is venue bookkeeping, not analysis output.
fn normalized(mut rep: ReportFrame) -> ReportFrame {
    rep.warm = false;
    rep
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn stat(pairs: &[(String, u64)], name: &str) -> u64 {
    pairs
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("{name} missing from stats"))
        .1
}

/// What one clean pass over a source looks like: the report plus the
/// resident explain text recorded immediately after it completed.
struct Baseline {
    report: ReportFrame,
    explain: String,
}

#[test]
fn soak_mixed_requests_under_env_faults_recover_byte_identical() {
    let seed: u64 = std::env::var("QUAL_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_807);
    let total: u64 = std::env::var("QUAL_SOAK_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_400)
        .max(2_000);

    let dir = TempDir::new("soak");
    let socket = dir.path("d.sock");

    // ---- Phase 1: clean daemon, baseline frames, clean drain --------
    let daemon_a = Daemon::spawn("soak-baseline", &socket, &[], &[]);
    let conn = Connect::new(socket.clone());
    let baselines: Vec<Baseline> = SOURCES
        .iter()
        .map(|src| {
            // Two fresh analyses of one source must agree; the second
            // is the report phase 3 must reproduce.
            let cold = serve::request_reanalyze(&conn, &analyze_req(src))
                .expect("clean cold analysis");
            assert!(cold.counts.is_some(), "baseline failed to count");
            let report = serve::request_reanalyze(&conn, &analyze_req(src))
                .expect("clean baseline analysis");
            assert_eq!(report.counts, cold.counts);
            let explain = serve::request_explain(&conn).expect("baseline explain");
            Baseline {
                report: normalized(report),
                explain,
            }
        })
        .collect();
    daemon_a.drain();

    // ---- Phase 2: faulted daemon, the mixed-request soak ------------
    // Only faults the daemon can really meet are armed:
    // * a run of consecutive EMFILE refusals at accept, placed by the
    //   seed among the soak's first few hundred connections;
    // * a failed frame read and a failed reply write, on the 2nd and
    //   4th request of the sequential prelude below;
    // * a real 1 MiB per-request memory budget, which the large source
    //   overruns on every request.
    let emfile_at = 100 + splitmix(seed ^ 4) % 400;
    let plan = std::iter::once("proto.read@2=io;proto.write@4=io".to_owned())
        .chain((0..EMFILE_RUN).map(|k| format!("serve.accept@{}=fd-exhausted", emfile_at + k)))
        .collect::<Vec<_>>()
        .join(";");
    let mut daemon = Daemon::spawn(
        "soak-faulted",
        &socket,
        &[
            "--max-inflight",
            "2",
            "--queue-cap",
            "8",
            "--memory-budget-mb",
            "1",
        ],
        &[("QUAL_FAULT_PLAN", plan.as_str())],
    );

    // The prelude: five Stats probes, one at a time, so the daemon's
    // frame reads and reply writes are numbered by request. The 2nd
    // request's read fails, and the daemon says so; the 4th request's
    // reply write fails, and its client finds the connection closed.
    for i in 1..=5 {
        let probe = serve::request_stats(&conn);
        match (i, &probe) {
            (2, Err(ClientError::Server(msg))) if msg.contains("injected fault at proto.read") => {}
            (4, Err(ClientError::Unavailable(_))) | (1 | 3 | 5, Ok(_)) => {}
            _ => panic!("prelude request {i} under plan {plan}: {probe:?}"),
        }
    }

    const CLIENTS: u64 = 4;
    let big: Arc<str> = big_source().into();
    let progress = Arc::new(AtomicU64::new(0));
    let ok_count = Arc::new(AtomicU64::new(0));
    let err_count = Arc::new(AtomicU64::new(0));
    let reanalyzed = Arc::new(AtomicU64::new(0));
    let big_refused = Arc::new(AtomicU64::new(0));
    let big_served = Arc::new(AtomicU64::new(0));
    let per_client = total / CLIENTS;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let socket = socket.clone();
            let big = Arc::clone(&big);
            let progress = Arc::clone(&progress);
            let ok_count = Arc::clone(&ok_count);
            let err_count = Arc::clone(&err_count);
            let reanalyzed = Arc::clone(&reanalyzed);
            let big_refused = Arc::clone(&big_refused);
            let big_served = Arc::clone(&big_served);
            std::thread::spawn(move || {
                let conn = Connect::new(socket);
                for i in 0..per_client {
                    let roll = splitmix(seed ^ (c << 32) ^ i);
                    let pick = (roll % (SOURCES.len() as u64 + 1)) as usize;
                    let src = SOURCES.get(pick).copied().unwrap_or(&*big);
                    let started = Instant::now();
                    let kind = roll % 10;
                    let outcome: Result<(), ClientError> = match kind {
                        // 50% Analyze (mostly memo-warm), 20% Reanalyze
                        // (forces a fresh analysis), then queries,
                        // explains, and stats probes.
                        0..=4 => serve::request_analyze(&conn, &analyze_req(src))
                            .map(|_| ()),
                        5 | 6 => {
                            reanalyzed.fetch_add(1, Ordering::Relaxed);
                            serve::request_reanalyze(&conn, &analyze_req(src)).map(|_| ())
                        }
                        7 => serve::request_query(&conn, "leaf", Some(0), 1)
                            .map(|_| ()),
                        8 => serve::request_explain(&conn).map(|_| ()),
                        _ => serve::request_stats(&conn).map(|_| ()),
                    };
                    // Never-hang: report or structured error, promptly.
                    // The generous bound only catches a wedged daemon.
                    assert!(
                        started.elapsed() < Duration::from_secs(30),
                        "request {i} on client {c} took too long"
                    );
                    if kind <= 6 && pick == SOURCES.len() {
                        match &outcome {
                            Ok(()) => big_served.fetch_add(1, Ordering::Relaxed),
                            Err(ClientError::Server(msg))
                                if msg.contains("memory budget exceeded") =>
                            {
                                big_refused.fetch_add(1, Ordering::Relaxed)
                            }
                            Err(_) => 0,
                        };
                    }
                    match outcome {
                        Ok(()) => ok_count.fetch_add(1, Ordering::Relaxed),
                        Err(_) => err_count.fetch_add(1, Ordering::Relaxed),
                    };
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Mid-soak RSS: the steady-state reference the end of the run is
    // held to. Sampled once half the requests have completed.
    let mut rss_mid = None;
    let sample_deadline = Instant::now() + Duration::from_secs(540);
    while progress.load(Ordering::Relaxed) < CLIENTS * per_client / 2 {
        assert!(
            Instant::now() < sample_deadline,
            "soak stalled before the midpoint"
        );
        std::thread::sleep(Duration::from_millis(50));
        rss_mid = daemon.rss_bytes().or(rss_mid);
    }
    rss_mid = daemon.rss_bytes().or(rss_mid);
    for h in handles {
        h.join().expect("soak client panicked");
    }
    let rss_end = daemon.rss_bytes();
    assert!(daemon.alive(), "daemon died during the soak (plan {plan})");
    let conn = Connect::new(socket.clone());
    let soaked = serve::request_stats(&conn).expect("soak stats");

    // ---- Phase 3: byte-identical after the soak ---------------------
    // Every armed fault has fired by now. A fresh analysis of each
    // source must equal the clean daemon's, the very next Analyze must
    // answer it from the memo, and the resident explain text must
    // match too: nothing the faults touched stays poisoned.
    for (i, (src, base)) in SOURCES.iter().zip(&baselines).enumerate() {
        let fresh = serve::request_reanalyze(&conn, &analyze_req(src))
            .expect("post-soak reanalyze");
        assert_eq!(
            normalized(fresh),
            base.report,
            "source {i}: the report diverged from the clean daemon's (plan {plan})"
        );
        let warm = serve::request_analyze(&conn, &analyze_req(src))
            .expect("post-soak analyze");
        assert!(warm.warm, "source {i}: the memo did not keep the fresh report");
        assert_eq!(
            normalized(warm),
            base.report,
            "source {i}: memo poisoned after the soak (plan {plan})"
        );
        let explain = serve::request_explain(&conn).expect("post-soak explain");
        assert_eq!(
            explain, base.explain,
            "source {i}: resident explain diverged after the soak"
        );
    }

    // Never-panic, and every armed fault fired.
    let stats = serve::request_stats(&conn).expect("final stats");
    assert_eq!(stat(&stats, "serve.session_panics"), 0, "{stats:?}");
    assert_eq!(stat(&stats, "serve.conn_panics"), 0, "{stats:?}");
    let emfile = stat(&soaked, "serve.accept_emfile");
    assert!(
        emfile >= EMFILE_RUN,
        "{emfile} of {EMFILE_RUN} EMFILE refusals fired (plan {plan})"
    );
    let big_refused = big_refused.load(Ordering::Relaxed);
    assert_eq!(
        big_served.load(Ordering::Relaxed),
        0,
        "a request over the memory budget was served"
    );
    assert!(big_refused >= 1, "the memory budget never refused a request");
    // Nothing shed, and the Reanalyze traffic reached the engine.
    let shed = stat(&soaked, "serve.shed");
    let analyzed = stat(&soaked, "serve.analyzed");
    let reanalyzed = reanalyzed.load(Ordering::Relaxed);
    assert_eq!(shed, 0, "{soaked:?}");
    assert!(
        2 * analyzed >= reanalyzed,
        "{analyzed} analyses for {reanalyzed} Reanalyze requests: {soaked:?}"
    );
    let ok = ok_count.load(Ordering::Relaxed);
    let err = err_count.load(Ordering::Relaxed);
    assert_eq!(ok + err, CLIENTS * per_client);
    assert!(
        ok > err,
        "degradation dominated service: {ok} ok vs {err} errors (plan {plan})"
    );

    // Archive the run before the memory assertion so a leak failure
    // still ships its evidence.
    let summary = format!(
        "{{\n  \"seed\": {seed},\n  \"plan\": \"{plan}\",\n  \
         \"requests\": {},\n  \"ok\": {ok},\n  \"errors\": {err},\n  \
         \"rss_mid_bytes\": {},\n  \"rss_end_bytes\": {},\n  \
         \"accept_emfile\": {emfile},\n  \"shed\": {shed},\n  \
         \"reanalyze_requests\": {reanalyzed},\n  \"analyzed\": {analyzed},\n  \
         \"budget_refusals\": {big_refused}\n}}\n",
        CLIENTS * per_client,
        rss_mid.unwrap_or(0),
        rss_end.unwrap_or(0),
    );
    if std::env::var_os("QUAL_SERVE_LOG_DIR").is_some() {
        let _ = std::fs::write(log_dir().join(format!("soak-summary-{seed}.json")), summary);
    }

    // Bounded steady-state memory: the whole second half of the soak
    // may not grow the daemon by more than a fixed slack over its
    // midpoint footprint.
    if let (Some(mid), Some(end)) = (rss_mid, rss_end) {
        assert!(
            end <= mid + 64 * 1024 * 1024,
            "daemon RSS grew {mid} -> {end} bytes across the soak's second half"
        );
    }

    daemon.drain();
}
