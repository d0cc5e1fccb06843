//! `cquald`: a crash-only resident analysis server.
//!
//! One long-lived process owns a unix-domain socket, a bounded memo of
//! recent reports and the last report served, which `QueryQual` and
//! `Explain` answer from. Thin `cqual --connect` clients send QSP1
//! server frames ([`proto::Frame::Analyze`] and friends). The daemon
//! answers each analysis with one run of the whole-program engine, the
//! one plain `cqual` runs, rendered by [`engine_report`]; the client
//! prints that report, so it prints what plain `cqual` prints.
//!
//! The design is *crash-only*: the daemon keeps no durable state, so
//! `kill -9` at any instant costs at most the requests in flight — a
//! restarted daemon steals the stale socket and serves at once (its
//! memo starts empty), and a client that cannot reach the daemon
//! degrades to in-process analysis.
//!
//! Robustness disciplines:
//!
//! * **Supervised connections.** Each accepted connection runs on its
//!   own incarnation-tagged thread under `catch_unwind`; a poisoned
//!   connection (malformed frame, injected fault, panic) is counted and
//!   closed, never propagated. The accept loop itself survives panics
//!   in per-connection setup. It blocks in `accept(2)`, so a request
//!   is picked up the moment it connects; a drain wakes it with one
//!   connection to its own socket, which is never served.
//! * **Admission control.** A bounded queue feeds a fixed worker pool.
//!   When the queue is full the server *sheds load* with a structured
//!   [`proto::Frame::Overloaded`] carrying a retry hint derived from
//!   observed service time — it never blocks the client and never
//!   hangs.
//! * **Request dedup.** Identical in-flight requests (content-addressed
//!   by source, mode, qualifiers and verify flag) attach to one job;
//!   completed reports are memoized so repeat requests answer warm
//!   without a fresh analysis.
//! * **Deadlines and budgets.** Each request's deadline arms the
//!   engine's cooperative cancellation, and `memory_budget_mb` bounds
//!   its gross allocation; a request that runs past either answers with
//!   an error, and the client analyzes in process. Connection reads
//!   carry idle and per-frame timeouts (slow-loris defense); the
//!   conn-side wait for a job is bounded even if a worker wedges.
//! * **Graceful drain, hard stop.** SIGTERM/SIGINT (or a
//!   [`proto::Frame::Shutdown`] frame) close admission, let queued work
//!   finish until a drain deadline, then stop hard. The process exit is
//!   the hard stop — crash-only means nothing after it matters.
//!
//! Fault points: `serve.accept`, `serve.read`, `serve.write`,
//! `serve.session` (see the `serve_chaos` suite).

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use qual_constinfer::{
    analyze_source_with_options_in, AnalysisOutcome, Budgets, ConstCounts, Mode, Options,
    Position, PositionClass, QualCount,
};
use qual_faultpoint::FaultKind;
use qual_lattice::QualSpace;
use qual_solve::{sort_diagnostics, Diagnostic, Phase};

use crate::cache::{Key, KeyHasher};
use crate::proto::{self, AnalyzeReq, Frame, ReportFrame, WirePosition};
pub use crate::proto::{class_from_tag, class_to_tag};
use crate::IncrConfig;

/// Reports memoized before the oldest is evicted.
const MEMO_CAP: usize = 64;
/// Floor for overload retry hints, in milliseconds.
const RETRY_HINT_MIN_MS: u64 = 25;
/// Ceiling for overload retry hints, in milliseconds.
const RETRY_HINT_MAX_MS: u64 = 2_000;
/// Client-side wait bound when a request carries no deadline: twice
/// the daemon's own [`REQUEST_DEADLINE_MS`].
const FALLBACK_WAIT_MS: u64 = 60_000;
/// Per-request analysis deadline when the client sends none.
const REQUEST_DEADLINE_MS: u64 = 30_000;
/// Budget for reading one complete frame once its first byte arrived —
/// a drip-feeding client is cut off at this bound. It bounds each reply
/// write as well.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a connection may sit idle between requests.
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);
/// Drain budget: queued work past this deadline is abandoned.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);
/// Scheduling grace added to the conn-side wait beyond the request
/// deadline (the worker needs time to pick the job up and publish).
const WAIT_GRACE_MS: u64 = 2_000;
/// Poll quantum for idle waits (first byte, drain).
const POLL_MS: u64 = 50;
/// Ceiling on the accept loop's EMFILE backoff (starts at `POLL_MS`,
/// doubles per consecutive refusal).
const EMFILE_BACKOFF_CAP_MS: u64 = 400;
/// How long admission keeps shedding after an fd-table refusal; long
/// enough for in-flight connections to close and return descriptors.
const FD_PRESSURE_WINDOW_MS: u64 = 500;
/// How long `stop` waits for a service thread to finish after it was
/// told to, before detaching it.
const JOIN_PATIENCE: Duration = Duration::from_millis(500);

/// Poison-tolerant lock: a panicked holder already paid with its
/// thread; the shared maps stay structurally sound.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Configuration and handle
// ---------------------------------------------------------------------------

/// Server configuration. Defaults are sized for an interactive daemon
/// on one developer machine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The unix-domain socket path to serve on.
    pub socket: PathBuf,
    /// The daemon reads one field of it: `memory_budget_mb`, the bound
    /// on one request's gross allocation. Every request carries its own
    /// mode, qualifiers and verify flag, and runs at default budgets;
    /// the other fields, `cache_dir` among them, are ignored.
    pub incr: IncrConfig,
    /// Worker threads draining the queue (concurrent analyses).
    pub max_inflight: usize,
    /// Queued requests beyond the in-flight ones before the server
    /// sheds load with `Overloaded`.
    pub queue_cap: usize,
}

impl ServeConfig {
    /// Defaults for a daemon on `socket`.
    #[must_use]
    pub fn for_socket(socket: PathBuf) -> ServeConfig {
        ServeConfig {
            socket,
            incr: IncrConfig::default(),
            max_inflight: 2,
            queue_cap: 8,
        }
    }
}

/// What a drain actually achieved — surfaced so operators can see a
/// hard stop for what it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Workers still wedged in analysis when the deadline passed (they
    /// are detached; process exit reclaims them — crash-only).
    pub abandoned_workers: usize,
    /// Connections still open at the deadline.
    pub lingering_conns: usize,
}

/// A running server. Dropping the handle without [`ServerHandle::stop`]
/// leaks the service threads (the socket files are still cleaned up);
/// the daemon binary always stops through [`run`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    _guard: SocketGuard,
}

impl ServerHandle {
    /// The socket being served.
    #[must_use]
    pub fn socket(&self) -> &Path {
        &self.shared.cfg.socket
    }

    /// True once a drain began (signal, `stop`, or a client Shutdown
    /// frame).
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The live stats pairs, as a Stats frame would report them.
    #[must_use]
    pub fn stats_snapshot(&self) -> Vec<(String, u64)> {
        stats_pairs(&self.shared)
    }

    /// Graceful drain: close admission, finish queued work until the
    /// drain deadline, then stop hard and report what was abandoned.
    pub fn stop(mut self) -> DrainReport {
        begin_drain(&self.shared);
        // The wake connection ends the accept thread at once. If it
        // could not land, the thread is still blocked in accept(2) and
        // is detached; process exit reclaims it.
        if let Some(a) = self.accept.take() {
            join_within(a, Instant::now() + JOIN_PATIENCE);
        }
        let deadline = Instant::now() + DRAIN_DEADLINE;
        {
            let mut conns = lock(&self.shared.conns);
            while !conns.is_empty() {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let step = (deadline - now).min(Duration::from_millis(POLL_MS));
                let (guard, _) = self
                    .shared
                    .conns_cv
                    .wait_timeout(conns, step)
                    .unwrap_or_else(PoisonError::into_inner);
                conns = guard;
            }
        }
        self.shared.hard_stop.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        // Workers notice the hard stop between jobs; one wedged inside
        // an analysis cannot be joined — detach it past the deadline.
        let patience = Instant::now() + JOIN_PATIENCE;
        let abandoned = self
            .workers
            .drain(..)
            .map(|w| join_within(w, patience))
            .filter(|&joined| !joined)
            .count();
        let lingering = lock(&self.shared.conns).len();
        DrainReport {
            abandoned_workers: abandoned,
            lingering_conns: lingering,
        }
    }
}

/// Joins `t` if it finishes before `patience` runs out; otherwise
/// detaches it and returns false.
fn join_within(t: thread::JoinHandle<()>, patience: Instant) -> bool {
    while !t.is_finished() && Instant::now() < patience {
        thread::sleep(Duration::from_millis(10));
    }
    let finished = t.is_finished();
    if finished {
        let _ = t.join();
    }
    finished
}

/// Removes the socket when the server winds down normally. A crashed
/// daemon leaves it behind on purpose — the next daemon's startup
/// steals it (see [`bind_socket`]).
struct SocketGuard {
    socket: PathBuf,
}

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.socket);
    }
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

/// Operational counters. All atomics: read by Stats frames while
/// workers and connections bump them.
#[derive(Default)]
struct ServeStats {
    requests: AtomicU64,
    analyzed: AtomicU64,
    warm_hits: AtomicU64,
    deduped: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    proto_errors: AtomicU64,
    session_panics: AtomicU64,
    conns_opened: AtomicU64,
    conns_closed: AtomicU64,
    conn_panics: AtomicU64,
    socket_stolen: AtomicU64,
    /// Connections refused because the fd table was exhausted (real
    /// EMFILE from accept(2) or an injected `fds:` budget denial).
    accept_emfile: AtomicU64,
}

/// One admitted analysis request; dedup attaches extra waiters.
struct Job {
    key: Key,
    req: AnalyzeReq,
    state: Mutex<Option<Result<Arc<Served>, String>>>,
    done: Condvar,
}

struct Queue {
    jobs: VecDeque<Arc<Job>>,
    /// In-flight or queued jobs by content key, for dedup.
    pending: HashMap<Key, Arc<Job>>,
    /// False once a drain began: no new admissions.
    open: bool,
}

/// A report as the daemon keeps it, with a lookup order for
/// `QueryQual`: scanning every position costs a query tens of
/// microseconds while another worker analyzes.
struct Served {
    report: ReportFrame,
    /// Position indices sorted by (function, parameter, level), built
    /// on the report's first query.
    lookup: OnceLock<Vec<u32>>,
}

impl Served {
    fn position(&self, function: &str, param: Option<u32>, level: u32) -> Option<&WirePosition> {
        let positions = &self.report.positions;
        let key = |i: u32| {
            let p = &positions[i as usize];
            (p.function.as_str(), p.param, p.level)
        };
        let lookup = self.lookup.get_or_init(|| {
            let mut order: Vec<u32> = (0..positions.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
            order
        });
        let at = lookup
            .binary_search_by(|&i| key(i).cmp(&(function, param, level)))
            .ok()?;
        Some(&positions[lookup[at] as usize])
    }
}

/// Bounded report memo (insertion-order eviction).
struct Memo {
    map: HashMap<Key, Arc<Served>>,
    order: VecDeque<Key>,
}

impl Memo {
    fn get(&self, k: &Key) -> Option<Arc<Served>> {
        self.map.get(k).cloned()
    }

    fn put(&mut self, k: Key, v: Arc<Served>) {
        if self.map.insert(k, v).is_none() {
            self.order.push_back(k);
            while self.order.len() > MEMO_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    memo: Mutex<Memo>,
    /// What `QueryQual` and `Explain` answer from: the last report
    /// served, fresh or from the memo.
    resident: Mutex<Option<Arc<Served>>>,
    conns: Mutex<HashSet<u64>>,
    conns_cv: Condvar,
    stats: ServeStats,
    shutdown: AtomicBool,
    hard_stop: AtomicBool,
    inflight: AtomicU32,
    /// Milliseconds the most recent job took; seeds overload hints.
    last_service_ms: AtomicU64,
    /// Process-relative clock base for the fd-pressure window (an
    /// `Instant` cannot live in an atomic, so the window is stored as
    /// milliseconds on this clock).
    started: Instant,
    /// Millis on `started`'s clock until which admission sheds load
    /// because the fd table was exhausted; 0 means no pressure.
    fd_pressure_until_ms: AtomicU64,
}

fn begin_drain(shared: &Shared) {
    let first = !shared.shutdown.swap(true, Ordering::SeqCst);
    lock(&shared.queue).open = false;
    shared.queue_cv.notify_all();
    if first {
        // Wake the accept thread out of accept(2). When the connect
        // fails (socket unlinked, fd table full) the thread stays
        // blocked, and `stop` detaches it once its patience runs out.
        let _ = UnixStream::connect(&shared.cfg.socket);
    }
}

// ---------------------------------------------------------------------------
// Startup: crash-only socket claim
// ---------------------------------------------------------------------------

/// Binds the socket, stealing a stale one left by a crashed daemon.
///
/// A socket is stolen when nothing answers a connect probe on it: a
/// live daemon always answers. Two daemons starting in the same instant
/// on debris can both steal it, and the later bind wins the path.
/// Returns the listener and whether a stale socket was stolen.
fn bind_socket(socket: &Path) -> Result<(UnixListener, bool), String> {
    match UnixListener::bind(socket) {
        Ok(l) => Ok((l, false)),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(socket).is_ok() {
                return Err(format!(
                    "another cquald is already serving on {}",
                    socket.display()
                ));
            }
            let _ = std::fs::remove_file(socket);
            match UnixListener::bind(socket) {
                Ok(l) => Ok((l, true)),
                Err(e) => Err(format!(
                    "cannot bind {} even after stealing the stale socket: {e}",
                    socket.display()
                )),
            }
        }
        Err(e) => Err(format!("cannot bind {}: {e}", socket.display())),
    }
}

/// Starts the server: claims the socket and spawns the worker pool and
/// accept loop.
pub fn serve(cfg: ServeConfig) -> Result<ServerHandle, String> {
    let (listener, stolen) = bind_socket(&cfg.socket)?;
    let guard = SocketGuard {
        socket: cfg.socket.clone(),
    };
    let workers_wanted = cfg.max_inflight.max(1);
    let shared = Arc::new(Shared {
        cfg,
        queue: Mutex::new(Queue {
            jobs: VecDeque::new(),
            pending: HashMap::new(),
            open: true,
        }),
        queue_cv: Condvar::new(),
        memo: Mutex::new(Memo {
            map: HashMap::new(),
            order: VecDeque::new(),
        }),
        resident: Mutex::new(None),
        conns: Mutex::new(HashSet::new()),
        conns_cv: Condvar::new(),
        stats: ServeStats::default(),
        shutdown: AtomicBool::new(false),
        hard_stop: AtomicBool::new(false),
        inflight: AtomicU32::new(0),
        last_service_ms: AtomicU64::new(0),
        started: Instant::now(),
        fd_pressure_until_ms: AtomicU64::new(0),
    });
    if stolen {
        shared.stats.socket_stolen.store(1, Ordering::SeqCst);
        qual_obs::count("serve.socket_stolen", 1);
    }
    let mut workers = Vec::with_capacity(workers_wanted);
    for i in 0..workers_wanted {
        let sh = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name(format!("serve-worker-{i}"))
            .spawn(move || worker_loop(&sh))
            .map_err(|e| format!("cannot spawn analysis worker: {e}"))?;
        workers.push(handle);
    }
    let sh = Arc::clone(&shared);
    let accept = thread::Builder::new()
        .name("serve-accept".to_owned())
        .spawn(move || accept_loop(&sh, &listener))
        .map_err(|e| format!("cannot spawn accept loop: {e}"))?;
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers,
        _guard: guard,
    })
}

// ---------------------------------------------------------------------------
// Accept loop and supervised connections
// ---------------------------------------------------------------------------

/// Records one fd-table refusal: bumps counters, opens the admission
/// pressure window, and returns how long the accept loop should back
/// off (exponential on the consecutive-refusal streak, bounded so a
/// recovering fd table is noticed within half a second).
fn note_fd_pressure(shared: &Shared, streak: u32) -> Duration {
    shared.stats.accept_emfile.fetch_add(1, Ordering::SeqCst);
    qual_obs::count("serve.accept_emfile", 1);
    let now_ms = shared.started.elapsed().as_millis() as u64;
    shared
        .fd_pressure_until_ms
        .store(now_ms + FD_PRESSURE_WINDOW_MS, Ordering::SeqCst);
    Duration::from_millis((POLL_MS << streak.min(3)).min(EMFILE_BACKOFF_CAP_MS))
}

/// Whether the fd-pressure window opened by [`note_fd_pressure`] is
/// still running; while it is, admission sheds with `Overloaded`
/// instead of queueing work whose reply may have no descriptor to
/// travel over.
fn under_fd_pressure(shared: &Shared) -> bool {
    let until = shared.fd_pressure_until_ms.load(Ordering::SeqCst);
    until != 0 && (shared.started.elapsed().as_millis() as u64) < until
}

fn accept_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    let mut incarnation = 0u64;
    let mut emfile_streak = 0u32;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(_) if shared.shutdown.load(Ordering::SeqCst) => {
                // The drain's wake connection (or a client that raced
                // it): not served, fd-charged or counted.
                break;
            }
            Ok((stream, _)) => {
                if qual_faultpoint::take_fd("serve.accept").is_some() {
                    // Injected fd-table exhaustion: the kernel would
                    // have refused this descriptor with EMFILE, so the
                    // connection is shed and the loop backs off exactly
                    // as the real-EMFILE arm below does.
                    drop(stream);
                    let pause = note_fd_pressure(shared, emfile_streak);
                    emfile_streak = emfile_streak.saturating_add(1);
                    thread::sleep(pause);
                    continue;
                }
                emfile_streak = 0;
                incarnation += 1;
                // Per-connection setup is supervised: a panic here
                // (e.g. the `serve.accept` fault) costs one connection,
                // never the accept loop.
                let panicked = catch_unwind(AssertUnwindSafe(|| {
                    match qual_faultpoint::hit("serve.accept") {
                        Some(FaultKind::Panic) => {
                            panic!("injected panic at serve.accept (conn {incarnation})")
                        }
                        Some(
                            FaultKind::Io
                            | FaultKind::ShortWrite
                            | FaultKind::Garbage
                            | FaultKind::DiskFull
                            | FaultKind::AllocFail,
                        ) => {
                            // The connection is dropped on the floor, as
                            // a failed accept(2) would.
                            qual_obs::count("serve.accept_faults", 1);
                            qual_faultpoint::release_fd();
                        }
                        Some(FaultKind::FdExhausted) => {
                            // Rule-injected EMFILE (`serve.accept@N=
                            // fd-exhausted`): shed and open the pressure
                            // window like a charge-based denial.
                            qual_obs::count("serve.accept_faults", 1);
                            qual_faultpoint::release_fd();
                            let _ = note_fd_pressure(shared, 0);
                        }
                        Some(FaultKind::Delay(_)) | None => {
                            spawn_conn(shared, stream, incarnation);
                        }
                    }
                }))
                .is_err();
                if panicked {
                    shared.stats.conn_panics.fetch_add(1, Ordering::SeqCst);
                    // The stream died inside the supervised block, so
                    // its descriptor is already back.
                    qual_faultpoint::release_fd();
                }
            }
            Err(e) if e.raw_os_error() == Some(24) => {
                // Real EMFILE: the process is out of descriptors. Shed
                // with bounded exponential backoff until connections
                // close and the table drains; never spin, never die.
                let pause = note_fd_pressure(shared, emfile_streak);
                emfile_streak = emfile_streak.saturating_add(1);
                thread::sleep(pause);
            }
            Err(_) => {
                shared.stats.errors.fetch_add(1, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(POLL_MS / 2 + 1));
            }
        }
    }
}

fn unregister_conn(shared: &Shared, incarnation: u64) {
    lock(&shared.conns).remove(&incarnation);
    shared.conns_cv.notify_all();
    shared.stats.conns_closed.fetch_add(1, Ordering::SeqCst);
}

fn spawn_conn(shared: &Arc<Shared>, stream: UnixStream, incarnation: u64) {
    lock(&shared.conns).insert(incarnation);
    shared.stats.conns_opened.fetch_add(1, Ordering::SeqCst);
    qual_obs::count("serve.conns", 1);
    let sh = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name(format!("serve-conn-{incarnation}"))
        .spawn(move || {
            let panicked =
                catch_unwind(AssertUnwindSafe(|| run_conn(&sh, &stream, incarnation)))
                    .is_err();
            if panicked {
                sh.stats.conn_panics.fetch_add(1, Ordering::SeqCst);
                qual_obs::count("serve.conn_panics", 1);
            }
            let _ = stream.shutdown(std::net::Shutdown::Both);
            unregister_conn(&sh, incarnation);
            qual_faultpoint::release_fd();
        });
    if spawned.is_err() {
        // Thread exhaustion: shed this connection, keep serving.
        shared.stats.errors.fetch_add(1, Ordering::SeqCst);
        unregister_conn(shared, incarnation);
        qual_faultpoint::release_fd();
    }
}

/// What the first-byte idle wait produced.
enum FirstByte {
    Byte(u8),
    /// Peer closed, idle deadline passed, a drain began, or the socket
    /// errored — in every case the connection is done.
    Done,
}

fn wait_first_byte(shared: &Shared, stream: &UnixStream) -> FirstByte {
    let idle_deadline = Instant::now() + IDLE_TIMEOUT;
    if stream
        .set_read_timeout(Some(Duration::from_millis(POLL_MS)))
        .is_err()
    {
        return FirstByte::Done;
    }
    let mut byte = [0u8; 1];
    let mut reader = stream;
    loop {
        match reader.read(&mut byte) {
            Ok(0) => return FirstByte::Done,
            Ok(_) => return FirstByte::Byte(byte[0]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst)
                    || Instant::now() >= idle_deadline
                {
                    return FirstByte::Done;
                }
            }
            Err(_) => return FirstByte::Done,
        }
    }
}

/// A reader that re-serves the byte consumed by the idle wait and
/// enforces an absolute per-frame deadline on top of the socket's
/// per-read timeout — a drip-feeding client cannot hold a connection
/// thread past [`READ_TIMEOUT`] per frame.
struct FrameReader<'a> {
    first: Option<u8>,
    inner: &'a UnixStream,
    deadline: Instant,
}

impl Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(b) = self.first.take() {
            if buf.is_empty() {
                self.first = Some(b);
                return Ok(0);
            }
            buf[0] = b;
            return Ok(1);
        }
        if Instant::now() >= self.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame read deadline exceeded",
            ));
        }
        let mut inner = self.inner;
        inner.read(buf)
    }
}

fn run_conn(shared: &Shared, stream: &UnixStream, incarnation: u64) {
    // A reply must not block forever on a stuffed pipe either.
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    loop {
        let first = match wait_first_byte(shared, stream) {
            FirstByte::Byte(b) => b,
            FirstByte::Done => return,
        };
        match qual_faultpoint::hit("serve.read") {
            Some(FaultKind::Panic) => {
                panic!("injected panic at serve.read (conn {incarnation})")
            }
            Some(
                FaultKind::Io
                | FaultKind::ShortWrite
                | FaultKind::Garbage
                | FaultKind::DiskFull
                | FaultKind::FdExhausted
                | FaultKind::AllocFail,
            ) => {
                qual_obs::count("serve.read_faults", 1);
                return;
            }
            Some(FaultKind::Delay(_)) | None => {}
        }
        if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
            return;
        }
        let mut reader = FrameReader {
            first: Some(first),
            inner: stream,
            deadline: Instant::now() + READ_TIMEOUT,
        };
        let frame = match proto::read_frame(&mut reader) {
            Ok(f) => f,
            Err(e) => {
                // Corrupt, truncated, oversized, or stalled: count it,
                // tell the client what we saw (best effort), drop the
                // connection. The memo and the resident report are
                // untouched.
                shared.stats.proto_errors.fetch_add(1, Ordering::SeqCst);
                qual_obs::count("serve.proto_errors", 1);
                let reply = Frame::ErrorReply {
                    message: format!("protocol error: {e}"),
                };
                let _ = write_reply(stream, &reply);
                return;
            }
        };
        let (reply, close) = dispatch(shared, frame);
        if write_reply(stream, &reply).is_err() {
            shared.stats.errors.fetch_add(1, Ordering::SeqCst);
            return;
        }
        if close {
            return;
        }
    }
}

fn write_reply(stream: &UnixStream, frame: &Frame) -> Result<(), ()> {
    match qual_faultpoint::hit("serve.write") {
        Some(FaultKind::Panic) => panic!("injected panic at serve.write"),
        Some(
            FaultKind::Io
            | FaultKind::ShortWrite
            | FaultKind::Garbage
            | FaultKind::DiskFull
            | FaultKind::FdExhausted
            | FaultKind::AllocFail,
        ) => {
            qual_obs::count("serve.write_faults", 1);
            return Err(());
        }
        Some(FaultKind::Delay(_)) | None => {}
    }
    let mut writer = stream;
    proto::write_frame(&mut writer, frame).map_err(|_| ())
}

// ---------------------------------------------------------------------------
// Dispatch, admission control, and the worker pool
// ---------------------------------------------------------------------------

fn dispatch(shared: &Shared, frame: Frame) -> (Frame, bool) {
    match frame {
        Frame::Analyze(req) => (serve_analyze(shared, *req, false), false),
        Frame::Reanalyze(req) => (serve_analyze(shared, *req, true), false),
        Frame::QueryQual {
            function,
            param,
            level,
        } => (answer_query(shared, &function, param, level), false),
        Frame::Explain => (answer_explain(shared), false),
        Frame::Stats => (
            Frame::StatsReply {
                pairs: stats_pairs(shared),
            },
            false,
        ),
        Frame::Shutdown => {
            // A client asked for a drain; ack, then the daemon's run
            // loop notices `draining()` and stops.
            begin_drain(shared);
            (Frame::Shutdown, true)
        }
        _ => {
            shared.stats.proto_errors.fetch_add(1, Ordering::SeqCst);
            (
                Frame::ErrorReply {
                    message: "unexpected frame kind for the analysis server".to_owned(),
                },
                false,
            )
        }
    }
}

/// The content address of a request: identical (src, mode, quals,
/// verify) tuples dedup onto one job and share one memo slot.
fn request_key(req: &AnalyzeReq) -> Key {
    let mut h = KeyHasher::new();
    h.str("serve-request-v2");
    h.str(&req.src);
    h.str(req.mode.name());
    h.str(&req.quals);
    h.bool(req.verify);
    h.finish()
}

/// Pure overload hint: expected wait is roughly the backlog times the
/// last observed service time, clamped to keep clients neither hot-
/// looping nor giving up.
fn retry_hint_ms(last_service_ms: u64, backlog: u64) -> u64 {
    last_service_ms
        .max(RETRY_HINT_MIN_MS)
        .saturating_mul(backlog.max(1))
        .clamp(RETRY_HINT_MIN_MS, RETRY_HINT_MAX_MS)
}

fn overloaded_reply(shared: &Shared, queue_depth: usize) -> Frame {
    let inflight = shared.inflight.load(Ordering::SeqCst);
    let backlog = queue_depth as u64 + u64::from(inflight);
    Frame::Overloaded {
        retry_after_ms: retry_hint_ms(
            shared.last_service_ms.load(Ordering::SeqCst),
            backlog,
        ),
        queue_depth: queue_depth as u32,
        inflight,
    }
}

fn serve_analyze(shared: &Shared, req: AnalyzeReq, fresh: bool) -> Frame {
    shared.stats.requests.fetch_add(1, Ordering::SeqCst);
    qual_obs::count("serve.requests", 1);
    if req.version != proto::PROTO_VERSION {
        shared.stats.errors.fetch_add(1, Ordering::SeqCst);
        return Frame::ErrorReply {
            message: format!(
                "protocol version mismatch: client speaks {}, server speaks {}",
                req.version,
                proto::PROTO_VERSION
            ),
        };
    }
    let key = request_key(&req);
    if !fresh {
        let hit = lock(&shared.memo).get(&key);
        if let Some(rep) = hit {
            shared.stats.warm_hits.fetch_add(1, Ordering::SeqCst);
            qual_obs::count("serve.warm_hits", 1);
            *lock(&shared.resident) = Some(Arc::clone(&rep));
            let mut warm = rep.report.clone();
            warm.warm = true;
            return Frame::Report(Box::new(warm));
        }
    }
    if under_fd_pressure(shared) {
        // The fd table just refused a connection: queueing more work
        // now only deepens the backlog while replies may have no
        // descriptor to travel over. Shed with the same structured
        // Overloaded the full queue uses; the window closes by itself.
        shared.stats.shed.fetch_add(1, Ordering::SeqCst);
        qual_obs::count("serve.shed", 1);
        let depth = lock(&shared.queue).jobs.len();
        return overloaded_reply(shared, depth);
    }
    let deadline_ms = req.deadline_ms.unwrap_or(REQUEST_DEADLINE_MS);
    let job = {
        let mut q = lock(&shared.queue);
        if let Some(existing) = q.pending.get(&key) {
            // Same work already queued or running: attach, don't
            // re-admit. (A Reanalyze attaches too — the in-flight run
            // is at least as fresh as one admitted now.)
            shared.stats.deduped.fetch_add(1, Ordering::SeqCst);
            qual_obs::count("serve.deduped", 1);
            Arc::clone(existing)
        } else if !q.open {
            return Frame::ErrorReply {
                message: "daemon is draining; run the analysis in process".to_owned(),
            };
        } else if q.jobs.len() >= shared.cfg.queue_cap.max(1) {
            shared.stats.shed.fetch_add(1, Ordering::SeqCst);
            qual_obs::count("serve.shed", 1);
            return overloaded_reply(shared, q.jobs.len());
        } else {
            let job = Arc::new(Job {
                key,
                req,
                state: Mutex::new(None),
                done: Condvar::new(),
            });
            q.jobs.push_back(Arc::clone(&job));
            q.pending.insert(key, Arc::clone(&job));
            shared.queue_cv.notify_one();
            job
        }
    };
    // Bounded wait: the request deadline plus scheduling grace. The
    // analysis itself is cooperatively cancelled at the deadline, so
    // this bound only fires when a worker is truly wedged — and then
    // the client gets a structured error, never a hang.
    let wait_ms = deadline_ms.saturating_add(WAIT_GRACE_MS).min(600_000);
    let wait_deadline = Instant::now() + Duration::from_millis(wait_ms);
    let mut state = lock(&job.state);
    loop {
        if let Some(result) = state.as_ref() {
            return match result {
                Ok(rep) => Frame::Report(Box::new(rep.report.clone())),
                Err(msg) => Frame::ErrorReply {
                    message: msg.clone(),
                },
            };
        }
        if shared.hard_stop.load(Ordering::SeqCst) {
            return Frame::ErrorReply {
                message: "daemon stopped before the request completed".to_owned(),
            };
        }
        let now = Instant::now();
        if now >= wait_deadline {
            shared.stats.errors.fetch_add(1, Ordering::SeqCst);
            return Frame::ErrorReply {
                message: "request deadline exceeded while waiting for the analysis"
                    .to_owned(),
            };
        }
        let step = (wait_deadline - now).min(Duration::from_millis(100));
        let (guard, _) = job
            .done
            .wait_timeout(state, step)
            .unwrap_or_else(PoisonError::into_inner);
        state = guard;
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.hard_stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(j) = q.jobs.pop_front() {
                    break j;
                }
                if !q.open {
                    // Draining and the queue is dry: done.
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(200))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        };
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        let started = Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| execute_job(shared, &job))) {
            Ok(r) => r,
            Err(_) => {
                // A panicked analysis is quarantined to its job: the
                // waiter gets a structured error, and the memo and the
                // resident report keep their last sound values.
                shared.stats.session_panics.fetch_add(1, Ordering::SeqCst);
                qual_obs::count("serve.session_panics", 1);
                Err("analysis panicked in the daemon; the request was abandoned but \
                     the daemon kept serving"
                    .to_owned())
            }
        };
        shared.last_service_ms.store(
            (started.elapsed().as_millis() as u64).max(1),
            Ordering::SeqCst,
        );
        match &outcome {
            Ok(rep) => {
                shared.stats.analyzed.fetch_add(1, Ordering::SeqCst);
                lock(&shared.memo).put(job.key, Arc::clone(rep));
                *lock(&shared.resident) = Some(Arc::clone(rep));
            }
            Err(_) => {
                shared.stats.errors.fetch_add(1, Ordering::SeqCst);
            }
        }
        lock(&shared.queue).pending.remove(&job.key);
        *lock(&job.state) = Some(outcome);
        job.done.notify_all();
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn execute_job(shared: &Shared, job: &Job) -> Result<Arc<Served>, String> {
    match qual_faultpoint::hit("serve.session") {
        Some(FaultKind::Panic) => panic!("injected panic at serve.session"),
        Some(
            FaultKind::Io
            | FaultKind::ShortWrite
            | FaultKind::Garbage
            | FaultKind::DiskFull
            | FaultKind::FdExhausted
            | FaultKind::AllocFail,
        ) => {
            return Err(
                "injected session fault at serve.session; retry or run in process"
                    .to_owned(),
            );
        }
        Some(FaultKind::Delay(_)) | None => {}
    }
    let req = &job.req;
    let space = if req.quals.is_empty() {
        QualSpace::const_only()
    } else {
        qual_constinfer::space_for(&req.quals).map_err(|e| e.to_string())?
    };
    // Arm the engine's cooperative cancellation and the memory budget
    // for this worker thread; the engine polls both as it charges work.
    let _deadline = qual_faultpoint::cancel::deadline_after_ms(
        req.deadline_ms.unwrap_or(REQUEST_DEADLINE_MS),
    );
    let _mem_budget = shared
        .cfg
        .incr
        .memory_budget_mb
        .map(|mb| qual_obs::mem::unit_budget(mb.saturating_mul(1 << 20)));
    // Environment machine: a request's up-front allocation charge (a
    // nominal 1 MiB arena reservation).
    if qual_faultpoint::charge_alloc("alloc.unit", 1 << 20).is_some() {
        return Err(
            "allocator watermark exceeded (injected); run the analysis in process".to_owned(),
        );
    }
    let options = Options {
        verify_solutions: req.verify,
        ..Options::default()
    };
    let outcome =
        analyze_source_with_options_in(&req.src, &space, req.mode, options, Budgets::default());
    // A run cut short by its deadline or its memory budget reports less
    // than plain `cqual` would: refuse it, so the client analyzes in
    // process and the memo never keeps it.
    if let Some((used, limit)) = qual_obs::mem::unit_overrun() {
        return Err(format!(
            "memory budget exceeded ({used} of {limit} bytes allocated); run the \
             analysis in process"
        ));
    }
    if qual_faultpoint::cancel::expired() {
        return Err("request deadline exceeded; run the analysis in process".to_owned());
    }
    Ok(Arc::new(Served {
        report: engine_report(&req.src, req.mode, req.verify, &outcome),
        lookup: OnceLock::new(),
    }))
}

fn answer_query(
    shared: &Shared,
    function: &str,
    param: Option<u32>,
    level: u32,
) -> Frame {
    let resident = lock(&shared.resident).clone();
    let hit = resident
        .as_deref()
        .and_then(|served| served.position(function, param, level));
    match hit {
        Some(p) => Frame::QualReply {
            found: true,
            class: p.class,
            declared: p.declared,
            label: p.label(),
        },
        None => Frame::QualReply {
            found: false,
            class: class_to_tag(PositionClass::Either),
            declared: false,
            label: String::new(),
        },
    }
}

fn answer_explain(shared: &Shared) -> Frame {
    let text = match lock(&shared.resident).as_deref().map(|s| &s.report) {
        Some(rep) if rep.skipped.is_empty() => {
            "analysis clean: no diagnostics were recorded for the resident program\n".to_owned()
        }
        Some(rep) => rep.skipped.concat(),
        None => "no analysis is resident yet; send Analyze first\n".to_owned(),
    };
    Frame::ExplainReply { text }
}

/// Stats pairs in a fixed, documented order.
fn stats_pairs(shared: &Shared) -> Vec<(String, u64)> {
    let queue_depth = lock(&shared.queue).jobs.len() as u64;
    let s = &shared.stats;
    let load = |a: &AtomicU64| a.load(Ordering::SeqCst);
    [
        ("serve.requests", load(&s.requests)),
        ("serve.analyzed", load(&s.analyzed)),
        ("serve.warm_hits", load(&s.warm_hits)),
        ("serve.deduped", load(&s.deduped)),
        ("serve.shed", load(&s.shed)),
        ("serve.errors", load(&s.errors)),
        ("serve.proto_errors", load(&s.proto_errors)),
        ("serve.session_panics", load(&s.session_panics)),
        ("serve.conns_opened", load(&s.conns_opened)),
        ("serve.conns_closed", load(&s.conns_closed)),
        ("serve.conn_panics", load(&s.conn_panics)),
        ("serve.socket_stolen", load(&s.socket_stolen)),
        ("serve.queue_depth", queue_depth),
        (
            "serve.inflight",
            u64::from(shared.inflight.load(Ordering::SeqCst)),
        ),
        ("serve.accept_emfile", load(&s.accept_emfile)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// The one report builder: plain `cqual` and a served request both
/// turn their analysis into a [`ReportFrame`] here, so every venue
/// sorts and renders its diagnostics the same way and prints the same
/// bytes. `result` is `None` when solving failed; `certified` is the
/// count the `certified:` line prints (see
/// [`qual_constinfer::count::certified`]). The frame's unit-driver
/// fields (cache notes, quarantines, reused and analyzed units) stay
/// on the wire for format stability and are always empty.
#[must_use]
pub fn report_frame(
    src: &str,
    mode: Mode,
    verify: bool,
    result: Option<(ConstCounts, &[Position], &[QualCount])>,
    skipped: &[Diagnostic],
    certified: usize,
) -> ReportFrame {
    let mut diags = skipped.to_vec();
    sort_diagnostics(&mut diags);
    let cert_failures = diags.iter().filter(|d| d.phase == Phase::Verify).count() as u64;
    let (counts, positions, qual_counts) = match result {
        Some((c, p, q)) => (Some(c), p, q),
        None => (None, &[][..], &[][..]),
    };
    ReportFrame {
        mode,
        verify,
        counts: counts.map(|c| [c.total as u64, c.declared as u64, c.inferred as u64]),
        positions: positions
            .iter()
            .map(|p| WirePosition {
                function: p.function.clone(),
                param: p.param.map(|i| i as u32),
                level: p.level as u32,
                declared: p.declared,
                class: class_to_tag(p.class),
            })
            .collect(),
        skipped: diags.iter().map(|d| d.render(Some(src))).collect(),
        cache_notes: Vec::new(),
        qual_counts: qual_counts
            .iter()
            .map(|q| (q.name.clone(), q.may as u64, q.must as u64))
            .collect(),
        cert_failures,
        certified: certified as u64,
        quarantined: 0,
        warm: false,
        reused: 0,
        analyzed: 0,
    }
}

/// The report of one whole-program engine run: what plain `cqual`
/// prints and what `cquald` serves, built from the same outcome.
#[must_use]
pub fn engine_report(
    src: &str,
    mode: Mode,
    verify: bool,
    outcome: &AnalysisOutcome,
) -> ReportFrame {
    let result = outcome
        .result
        .as_ref()
        .map(|r| (r.counts, r.positions.as_slice(), r.qual_counts.as_slice()));
    report_frame(
        src,
        mode,
        verify,
        result,
        &outcome.skipped,
        outcome.certified(),
    )
}

// ---------------------------------------------------------------------------
// The daemon's run loop (signals, drain)
// ---------------------------------------------------------------------------

static TERM_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn note_term(_sig: i32) {
    TERM_FLAG.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that request a graceful drain.
/// Raw `signal(2)` via the C ABI: the workspace has no signal crate,
/// and a store to an atomic flag is async-signal-safe.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, note_term);
        signal(SIGTERM, note_term);
    }
}

/// The `cquald` main loop: serve until a signal or a client Shutdown
/// frame, then drain and exit. Crash-only: `kill -9` instead of a
/// signal loses only in-flight requests.
pub fn run(cfg: ServeConfig) -> Result<(), String> {
    install_signal_handlers();
    let socket = cfg.socket.clone();
    let handle = serve(cfg)?;
    eprintln!("cquald: serving on {}", socket.display());
    while !TERM_FLAG.load(Ordering::SeqCst) && !handle.draining() {
        thread::sleep(Duration::from_millis(POLL_MS));
    }
    eprintln!("cquald: draining");
    let report = handle.stop();
    if report.abandoned_workers > 0 || report.lingering_conns > 0 {
        eprintln!(
            "cquald: hard stop: {} worker(s) abandoned mid-analysis, {} \
             connection(s) cut",
            report.abandoned_workers, report.lingering_conns
        );
    }
    eprintln!("cquald: drained; exiting");
    Ok(())
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// How a client reaches (and retries) a daemon.
#[derive(Debug, Clone)]
pub struct Connect {
    /// The daemon's socket.
    pub socket: PathBuf,
    /// Extra attempts after an `Overloaded` reply (the retry/backoff
    /// contract in the README: honor the server's hint, capped below).
    pub retries: u32,
    /// Ceiling on any single backoff sleep, in milliseconds.
    pub backoff_cap_ms: u64,
}

impl Connect {
    /// The default contract: 3 retries, hint honored up to 250 ms.
    #[must_use]
    pub fn new(socket: PathBuf) -> Connect {
        Connect {
            socket,
            retries: 3,
            backoff_cap_ms: 250,
        }
    }
}

/// Why a request did not produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// No daemon (or a dead socket): the caller should degrade to an
    /// in-process analysis.
    Unavailable(String),
    /// The daemon shed the request even after retries.
    Overloaded {
        /// The server's final retry hint.
        retry_after_ms: u64,
    },
    /// The daemon answered with a structured error.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unavailable(msg) => write!(f, "daemon unavailable: {msg}"),
            ClientError::Overloaded { retry_after_ms } => write!(
                f,
                "daemon overloaded (suggested retry after {retry_after_ms} ms)"
            ),
            ClientError::Server(msg) => write!(f, "daemon error: {msg}"),
        }
    }
}

fn roundtrip(conn: &Connect, frame: &Frame, timeout_ms: u64) -> Result<Frame, ClientError> {
    let stream = UnixStream::connect(&conn.socket).map_err(|e| {
        ClientError::Unavailable(format!(
            "cannot reach cquald at {}: {e}",
            conn.socket.display()
        ))
    })?;
    let budget = Duration::from_millis(timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(budget));
    let _ = stream.set_write_timeout(Some(budget));
    let mut writer = &stream;
    proto::write_frame(&mut writer, frame)
        .map_err(|e| ClientError::Unavailable(format!("request write failed: {e}")))?;
    let mut reader = &stream;
    proto::read_frame(&mut reader)
        .map_err(|e| ClientError::Unavailable(format!("reply read failed: {e}")))
}

fn analyze_roundtrips(
    conn: &Connect,
    req: &AnalyzeReq,
    fresh: bool,
) -> Result<ReportFrame, ClientError> {
    // The socket read must outlive the server-side analysis wait.
    let timeout_ms = req
        .deadline_ms
        .unwrap_or(FALLBACK_WAIT_MS)
        .saturating_add(WAIT_GRACE_MS)
        .saturating_add(10_000);
    let mut attempt = 0u32;
    loop {
        let frame = if fresh {
            Frame::Reanalyze(Box::new(req.clone()))
        } else {
            Frame::Analyze(Box::new(req.clone()))
        };
        match roundtrip(conn, &frame, timeout_ms)? {
            Frame::Report(rep) => {
                if rep.warm {
                    qual_obs::count("serve.client_warm", 1);
                }
                return Ok(*rep);
            }
            Frame::Overloaded { retry_after_ms, .. } => {
                if attempt >= conn.retries {
                    return Err(ClientError::Overloaded { retry_after_ms });
                }
                attempt += 1;
                qual_obs::count("serve.client_retries", 1);
                thread::sleep(Duration::from_millis(
                    retry_after_ms.clamp(1, conn.backoff_cap_ms.max(1)),
                ));
            }
            Frame::ErrorReply { message } => return Err(ClientError::Server(message)),
            _ => {
                return Err(ClientError::Server(
                    "unexpected reply kind from cquald".to_owned(),
                ))
            }
        }
    }
}

/// Sends an Analyze request, retrying shed requests per the connect
/// contract, and returns the daemon's report.
pub fn request_analyze(conn: &Connect, req: &AnalyzeReq) -> Result<ReportFrame, ClientError> {
    analyze_roundtrips(conn, req, false)
}

/// Like [`request_analyze`] but bypasses (and replaces) the daemon's
/// report memo.
pub fn request_reanalyze(
    conn: &Connect,
    req: &AnalyzeReq,
) -> Result<ReportFrame, ClientError> {
    analyze_roundtrips(conn, req, true)
}

/// The daemon's operational counters, in the server's fixed order.
pub fn request_stats(conn: &Connect) -> Result<Vec<(String, u64)>, ClientError> {
    match roundtrip(conn, &Frame::Stats, 10_000)? {
        Frame::StatsReply { pairs } => Ok(pairs),
        Frame::ErrorReply { message } => Err(ClientError::Server(message)),
        _ => Err(ClientError::Server(
            "unexpected reply kind from cquald".to_owned(),
        )),
    }
}

/// A decoded [`proto::Frame::QualReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualAnswer {
    /// Whether the resident analysis knows this position.
    pub found: bool,
    /// Its class (Either when not found).
    pub class: PositionClass,
    /// Whether the source declared the qualifier.
    pub declared: bool,
    /// The human label, as `cqual` prints it.
    pub label: String,
}

/// Looks one position up in the daemon's resident analysis.
pub fn request_query(
    conn: &Connect,
    function: &str,
    param: Option<u32>,
    level: u32,
) -> Result<QualAnswer, ClientError> {
    let frame = Frame::QueryQual {
        function: function.to_owned(),
        param,
        level,
    };
    match roundtrip(conn, &frame, 10_000)? {
        Frame::QualReply {
            found,
            class,
            declared,
            label,
        } => Ok(QualAnswer {
            found,
            class: class_from_tag(class).unwrap_or(PositionClass::Either),
            declared,
            label,
        }),
        Frame::ErrorReply { message } => Err(ClientError::Server(message)),
        _ => Err(ClientError::Server(
            "unexpected reply kind from cquald".to_owned(),
        )),
    }
}

/// The rendered diagnostics of the daemon's resident analysis.
pub fn request_explain(conn: &Connect) -> Result<String, ClientError> {
    match roundtrip(conn, &Frame::Explain, 10_000)? {
        Frame::ExplainReply { text } => Ok(text),
        Frame::ErrorReply { message } => Err(ClientError::Server(message)),
        _ => Err(ClientError::Server(
            "unexpected reply kind from cquald".to_owned(),
        )),
    }
}

/// Asks the daemon to drain and exit; the ack arrives before the drain.
pub fn request_shutdown(conn: &Connect) -> Result<(), ClientError> {
    match roundtrip(conn, &Frame::Shutdown, 10_000)? {
        Frame::Shutdown => Ok(()),
        Frame::ErrorReply { message } => Err(ClientError::Server(message)),
        _ => Err(ClientError::Server(
            "unexpected reply kind from cquald".to_owned(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::PROTO_VERSION;

    /// A test's socket path. Dropping it removes the socket and its
    /// `<socket>.lock`, also when the test panics.
    struct TempSocket(PathBuf);

    impl TempSocket {
        fn lock_file(&self) -> PathBuf {
            let mut lock = self.0.clone().into_os_string();
            lock.push(".lock");
            lock.into()
        }
    }

    impl std::ops::Deref for TempSocket {
        type Target = PathBuf;

        fn deref(&self) -> &PathBuf {
            &self.0
        }
    }

    impl AsRef<Path> for TempSocket {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempSocket {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(self.lock_file());
        }
    }

    /// A fresh socket path, clear of a previous run's debris.
    fn temp_socket(tag: &str) -> TempSocket {
        let socket = TempSocket(std::env::temp_dir().join(format!(
            "cquald-{tag}-{}-{:?}.sock",
            std::process::id(),
            thread::current().id()
        )));
        let _ = std::fs::remove_file(&socket.0);
        socket
    }

    fn req(src: &str) -> AnalyzeReq {
        AnalyzeReq {
            version: PROTO_VERSION,
            src: src.to_owned(),
            mode: Mode::Polymorphic,
            quals: "const".to_owned(),
            verify: false,
            deadline_ms: Some(20_000),
        }
    }

    #[test]
    fn class_tags_round_trip() {
        for class in [
            PositionClass::MustConst,
            PositionClass::MustNotConst,
            PositionClass::Either,
        ] {
            assert_eq!(class_from_tag(class_to_tag(class)), Some(class));
        }
        assert_eq!(class_from_tag(3), None);
    }

    #[test]
    fn retry_hints_track_backlog_and_stay_clamped() {
        // Cold server: the floor.
        assert_eq!(retry_hint_ms(0, 0), RETRY_HINT_MIN_MS);
        // More backlog, longer hint.
        assert!(retry_hint_ms(40, 3) > retry_hint_ms(40, 1));
        // Never beyond the ceiling, even for absurd inputs.
        assert_eq!(retry_hint_ms(u64::MAX, u64::MAX), RETRY_HINT_MAX_MS);
    }

    #[test]
    fn serve_analyze_query_stats_shutdown_end_to_end() {
        let socket = temp_socket("e2e");
        let handle = serve(ServeConfig::for_socket(socket.clone())).expect("serve");
        let conn = Connect::new(socket.clone());
        // Positions in program order are not in lookup order.
        let src = "int f(const char *s) { return *s; }
                   int g(char *p) { return f(p); }
                   char **z(char **a, int *b) { return a; }
                   int a(char *x, char **y) { return *x + **y; }";

        let cold = request_analyze(&conn, &req(src)).expect("cold analyze");
        assert!(!cold.warm, "first analysis must be cold");
        assert!(cold.counts.is_some());
        // The memo answers the repeat, flagged warm, otherwise equal.
        let warm = request_analyze(&conn, &req(src)).expect("warm analyze");
        assert!(warm.warm);
        let mut warm_as_cold = warm.clone();
        warm_as_cold.warm = cold.warm;
        assert_eq!(warm_as_cold, cold);
        // Reanalyze bypasses the memo: a fresh (cold) run.
        let fresh = request_reanalyze(&conn, &req(src)).expect("reanalyze");
        assert!(!fresh.warm);

        // The resident report answers position queries — probe with
        // every position the report itself listed.
        assert!(!cold.positions.is_empty(), "interesting positions exist");
        for probe in &cold.positions {
            let hit = request_query(&conn, &probe.function, probe.param, probe.level)
                .expect("query");
            assert!(hit.found, "reported position {probe:?} must be queryable");
            assert_eq!(hit.label, probe.label());
            assert_eq!(class_to_tag(hit.class), probe.class);
            assert_eq!(hit.declared, probe.declared);
        }
        let miss = request_query(&conn, "absent", None, 1).expect("query miss");
        assert!(!miss.found);

        let pairs = request_stats(&conn).expect("stats");
        let get = |name: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing stat {name}: {pairs:?}"))
        };
        assert_eq!(get("serve.requests"), 3);
        assert_eq!(get("serve.analyzed"), 2);
        assert_eq!(get("serve.warm_hits"), 1);
        assert_eq!(get("serve.shed"), 0);

        request_shutdown(&conn).expect("shutdown ack");
        assert!(handle.draining());
        let drain = handle.stop();
        assert_eq!(drain.abandoned_workers, 0);
        assert!(
            !socket.exists(),
            "a clean stop must remove the socket file"
        );
    }

    #[test]
    fn a_memo_hit_becomes_the_resident_report() {
        let socket = temp_socket("memo-resident");
        let handle = serve(ServeConfig::for_socket(socket.clone())).expect("serve");
        let conn = Connect::new(socket.clone());
        let x = req("int only_in_x(char *p) { return *p; }");
        // Y also carries a diagnostic, so the two reports explain
        // differently.
        let y = req("int only_in_y(char *q) { return *q; }\n\
                     int bad(void) { return no_such_name; }");
        let first = request_analyze(&conn, &x).expect("analyze X");
        request_analyze(&conn, &y).expect("analyze Y");
        let reopened = request_analyze(&conn, &x).expect("re-open X");
        assert!(reopened.warm, "re-opening X must be a memo hit");

        let probe = first.positions.first().expect("X has positions");
        assert_eq!(probe.function, "only_in_x");
        let found = |function: &str| {
            request_query(&conn, function, probe.param, probe.level)
                .expect("query")
                .found
        };
        assert!(found("only_in_x"), "queries answer from the re-opened X");
        assert!(!found("only_in_y"), "Y is no longer resident");
        let explain = request_explain(&conn).expect("explain");
        assert!(explain.starts_with("analysis clean"), "{explain}");
        handle.stop();
    }

    #[test]
    fn a_request_past_its_deadline_answers_an_error_not_a_partial_report() {
        let socket = temp_socket("deadline");
        let handle = serve(ServeConfig::for_socket(socket.clone())).expect("serve");
        let conn = Connect::new(socket.clone());
        let src = "int f(char *p) { return *p; }";
        let mut late = req(src);
        late.deadline_ms = Some(0);
        match request_analyze(&conn, &late) {
            Err(ClientError::Server(msg)) => assert!(msg.contains("deadline"), "{msg}"),
            other => panic!("expected a deadline error, got {other:?}"),
        }
        // The memo kept nothing: with time to run, the source is
        // analyzed afresh and reports cleanly.
        let fresh = request_analyze(&conn, &req(src)).expect("analyze");
        assert!(!fresh.warm);
        assert!(fresh.skipped.is_empty(), "{:?}", fresh.skipped);
        handle.stop();
    }

    #[test]
    fn idle_daemon_picks_up_each_connection_without_a_poll_delay() {
        let socket = temp_socket("latency");
        let handle = serve(ServeConfig::for_socket(socket.clone())).expect("serve");
        let conn = Connect::new(socket.clone());
        // Each round trip opens a fresh connection; a polling accept
        // loop would add its sleep to every one of them.
        let t = Instant::now();
        for _ in 0..30 {
            request_stats(&conn).expect("stats");
        }
        let elapsed = t.elapsed();
        handle.stop();
        assert!(
            elapsed < Duration::from_millis(260),
            "30 idle Stats round trips took {elapsed:?}"
        );
    }

    #[test]
    fn stop_is_bounded_when_the_wake_connection_cannot_land() {
        let socket = temp_socket("unlinked");
        let bound = DRAIN_DEADLINE + Duration::from_secs(1);
        let handle = serve(ServeConfig::for_socket(socket.clone())).expect("serve");
        // One round trip proves the accept thread runs; the pause lets
        // it get back into accept(2). With the path gone, the drain
        // cannot connect to its own socket, so the thread stays there.
        // The bound holds either way; the pause only makes the blocked
        // case the one exercised.
        request_stats(&Connect::new(socket.clone())).expect("stats");
        thread::sleep(Duration::from_millis(50));
        std::fs::remove_file(&socket).expect("unlink the socket");
        let t = Instant::now();
        let drain = handle.stop();
        let elapsed = t.elapsed();
        assert!(elapsed < bound, "stop took {elapsed:?}, bound {bound:?}");
        assert_eq!(drain.abandoned_workers, 0);
        assert_eq!(drain.lingering_conns, 0);
    }

    #[test]
    fn second_daemon_refuses_a_live_socket() {
        let socket = temp_socket("live");
        let handle = serve(ServeConfig::for_socket(socket.clone())).expect("serve");
        let err = serve(ServeConfig::for_socket(socket.clone()))
            .err()
            .expect("second daemon must refuse");
        assert!(err.contains("already serving"), "{err}");
        handle.stop();
    }

    #[test]
    fn stale_socket_without_a_claim_is_stolen() {
        let socket = temp_socket("stale");
        // A dead daemon's debris: the socket file exists and nothing
        // listens on it.
        drop(UnixListener::bind(&socket).expect("debris socket"));
        assert!(socket.exists());
        let handle = serve(ServeConfig::for_socket(socket.clone()))
            .expect("startup must steal the stale socket");
        assert_eq!(
            handle
                .stats_snapshot()
                .iter()
                .find(|(k, _)| k == "serve.socket_stolen")
                .map(|(_, v)| *v),
            Some(1)
        );
        // And the stolen socket actually serves.
        let conn = Connect::new(socket.clone());
        assert!(request_stats(&conn).is_ok());
        handle.stop();
    }

    #[test]
    fn debris_next_to_a_fresh_lock_file_is_stolen_at_once() {
        // What a daemon killed a moment ago leaves behind: its socket
        // and, where an earlier version ran, a `<socket>.lock` claim
        // written at its startup. Only the liveness probe decides, so a
        // restart serves at once.
        let socket = temp_socket("fresh-lock");
        drop(UnixListener::bind(&socket).expect("debris socket"));
        std::fs::write(socket.lock_file(), "pid 1\n").expect("fresh lock file");
        let t = Instant::now();
        let handle = serve(ServeConfig::for_socket(socket.clone()))
            .expect("startup must steal the socket despite a fresh lock file");
        assert!(t.elapsed() < Duration::from_secs(1), "{:?}", t.elapsed());
        assert!(request_stats(&Connect::new(socket.clone())).is_ok());
        handle.stop();
    }
}
