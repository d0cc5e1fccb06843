//! Endurance soak for `cquald` under resource-exhaustion faults
//! (DESIGN.md §18). Where `serve_chaos` pins single clauses of the
//! fault model, this harness drives one daemon through thousands of
//! mixed requests while the seeded environment machines (disk byte
//! budget, fd table cap, allocator watermark) deny resources on a
//! deterministic schedule, and asserts the *endurance* properties:
//!
//! * **Never panic, never hang.** Every request completes (report or
//!   structured error) inside a bound; the daemon process survives the
//!   whole run and its panic counters stay at zero.
//! * **Bounded steady-state memory.** The daemon's RSS at the end of
//!   the soak is within a fixed slack of its mid-soak RSS — repeated
//!   degrade/heal cycles must not leak.
//! * **Byte-identical once faults clear.** The environment machines
//!   self-heal (a full disk "garbage collects" after a bounded denial
//!   streak), and after they do, every source must produce exactly the
//!   frames a clean daemon produced — the memo and the resident report
//!   both recover, nothing stays poisoned.
//! * **Clean drain.** Both daemons exit 0 on a Shutdown frame and
//!   remove their socket files.
//!
//! Knobs: `QUAL_SOAK_REQUESTS` (total mixed requests, default 2400,
//! min 2000 enforced here) and `QUAL_SOAK_SEED` (schedule seed,
//! default 20260807). A summary document is written next to the daemon
//! logs (`QUAL_SERVE_LOG_DIR`) so CI can archive the run; without that
//! variable, a daemon's log is deleted when the test passes.

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

/// Distinct sources so the memo and dedup see real variety; each
/// defines a function the QueryQual phase can target.
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
        // Only this test's explicit env plan may arm a daemon; a bare
        // CI-exported seed would also fault the analysis internals and
        // change the baseline bytes.
        cmd.env_remove("QUAL_FAULT_PLAN").env_remove("QUAL_FAULT_SEED");
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

    // ---- Phase 2: env-faulted daemon, the mixed-request soak --------
    // The machines are seeded into ranges where the disk and fd ones
    // bite: the disk budget fills after tens of replies (charged at
    // `proto.write`), and the fd table caps below the client
    // concurrency. The allocator watermark is charged 1 MiB per
    // analyzed request and refuses requests once it fills. Every
    // machine garbage-collects after a short denial streak, so the
    // faults clear on their own — that recovery is what phase 3 pins.
    // One explicit rule guarantees the EMFILE accept path runs even if
    // the seeded fd cap never trips.
    let gc = 4 + splitmix(seed) % 5; // 4..=8
    let disk_cap = 64 * 1024 + splitmix(seed ^ 1) % (192 * 1024); // 64..=256 KiB
    // The fd cap sits just above the client concurrency: steady state
    // fits, bursts (and the injected occurrences below) trip EMFILE
    // *episodes* rather than a perpetual outage.
    let fd_cap = 6 + splitmix(seed ^ 2) % 4; // 6..=9
    let alloc_cap = (64 + splitmix(seed ^ 3) % 192) * (1 << 20); // 64..=256 MiB
    let emfile_a = 100 + splitmix(seed ^ 4) % 200;
    let emfile_b = 700 + splitmix(seed ^ 5) % 400;
    let plan = format!(
        "disk:{disk_cap}:{gc};fds:{fd_cap}:{gc};alloc:{alloc_cap}:{gc};\
         serve.accept@3=fd-exhausted;serve.accept@{emfile_a}=fd-exhausted;\
         serve.accept@{emfile_b}=fd-exhausted"
    );
    let mut daemon = Daemon::spawn(
        "soak-faulted",
        &socket,
        &[
            "--max-inflight",
            "2",
            "--memory-budget-mb",
            "512",
        ],
        &[("QUAL_FAULT_PLAN", plan.as_str())],
    );

    const CLIENTS: u64 = 4;
    let progress = Arc::new(AtomicU64::new(0));
    let ok_count = Arc::new(AtomicU64::new(0));
    let err_count = Arc::new(AtomicU64::new(0));
    let per_client = total / CLIENTS;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let socket = socket.clone();
            let progress = Arc::clone(&progress);
            let ok_count = Arc::clone(&ok_count);
            let err_count = Arc::clone(&err_count);
            std::thread::spawn(move || {
                // Short retry budget: a shed request surfaces as a
                // structured error instead of stretching the soak.
                let conn = Connect {
                    socket,
                    retries: 1,
                    backoff_cap_ms: 10,
                };
                for i in 0..per_client {
                    let roll = splitmix(seed ^ (c << 32) ^ i);
                    let src = SOURCES[(roll % SOURCES.len() as u64) as usize];
                    let started = Instant::now();
                    let outcome: Result<(), ClientError> = match roll % 10 {
                        // 50% Analyze (mostly memo-warm), 20% Reanalyze
                        // (forces a fresh analysis), then queries,
                        // explains, and stats probes.
                        0..=4 => serve::request_analyze(&conn, &analyze_req(src))
                            .map(|_| ()),
                        5 | 6 => serve::request_reanalyze(&conn, &analyze_req(src))
                            .map(|_| ()),
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

    // ---- Phase 3: faults cleared, byte-identical recovery -----------
    // The machines heal after bounded denial streaks; a few Reanalyze
    // rounds per source flush any faulted report out of the memo and
    // the resident report. Once one clean round matches the baseline,
    // the *very next* Analyze must match too (the memo healed), and so
    // must the resident explain text.
    let conn = Connect::new(socket.clone());
    for (i, (src, base)) in SOURCES.iter().zip(&baselines).enumerate() {
        let mut healed = false;
        for _attempt in 0..200 {
            if let Ok(rep) = serve::request_reanalyze(&conn, &analyze_req(src)) {
                if normalized(rep) == base.report {
                    healed = true;
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            healed,
            "source {i} never recovered the baseline report (plan {plan})"
        );
        let warm = serve::request_analyze(&conn, &analyze_req(src))
            .expect("post-recovery analyze");
        assert_eq!(
            normalized(warm),
            base.report,
            "source {i}: memo still poisoned after recovery (plan {plan})"
        );
        let explain = serve::request_explain(&conn).expect("post-recovery explain");
        assert_eq!(
            explain, base.explain,
            "source {i}: resident explain diverged after recovery"
        );
    }

    // Never-panic, plus the soak actually exercised the fault paths.
    let stats = serve::request_stats(&conn).expect("final stats");
    assert_eq!(stat(&stats, "serve.session_panics"), 0, "{stats:?}");
    assert_eq!(stat(&stats, "serve.conn_panics"), 0, "{stats:?}");
    assert!(
        stat(&stats, "serve.accept_emfile") >= 1,
        "the EMFILE accept path never ran: {stats:?}"
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
         \"accept_emfile\": {},\n  \"shed\": {},\n  \"analyzed\": {}\n}}\n",
        CLIENTS * per_client,
        rss_mid.unwrap_or(0),
        rss_end.unwrap_or(0),
        stat(&stats, "serve.accept_emfile"),
        stat(&stats, "serve.shed"),
        stat(&stats, "serve.analyzed"),
    );
    let _ = std::fs::write(
        log_dir().join(format!("soak-summary-{seed}.json")),
        summary,
    );

    // Bounded steady-state memory: the whole second half of the soak —
    // thousands of degrade/heal cycles — may not grow the daemon by
    // more than a fixed slack over its midpoint footprint.
    if let (Some(mid), Some(end)) = (rss_mid, rss_end) {
        assert!(
            end <= mid + 64 * 1024 * 1024,
            "daemon RSS grew {mid} -> {end} bytes across the soak's second half"
        );
    }

    daemon.drain();
}
