//! The persistent on-disk summary cache, safe to share between
//! concurrent processes and hardened against crashes and transient I/O.
//!
//! One file per unit, named by the unit's content-addressed key. Each
//! file is a small self-checking container:
//!
//! ```text
//! "QINC"  magic (4 bytes)
//! u32 LE  format version (must equal summary::FORMAT_VERSION)
//! u64 LE  writer generation (see below)
//! u64 LE  payload length
//! u64 LE  FNV-1a checksum of generation, length, and payload
//! bytes   payload (an encoded UnitSummary)
//! ```
//!
//! **Crash safety.** Stores write to a temporary sibling, `fsync`, and
//! `rename` into place. Rename is atomic on every platform we target,
//! so a reader — in this process or another — observes each entry as
//! either the complete old state or the complete new state, never a
//! torn mixture; a writer killed at *any* point leaves at worst a stray
//! temp file (swept by [`open_session`]) plus the old entry. The chaos
//! suite drives a fault plan through every write-side fault point to
//! hold this invariant.
//!
//! **Concurrency.** Entry files need no lock: keys are content hashes,
//! so two processes writing the same key write identical bytes, and the
//! atomic rename arbitrates. The one read-modify-write in the design —
//! the session **generation counter** — is serialized by an advisory
//! lock file (`.qinc.lock`, created with `O_EXCL`). Lock waiting is
//! bounded with backoff; a lock left behind by a dead process is
//! *stolen* once it looks stale, and if the lock never frees the
//! session proceeds locklessly with a diagnostic rather than deadlock —
//! generations are observability, not integrity (the checksum is).
//!
//! **Transient I/O.** Reads and writes retry with bounded exponential
//! backoff under a [`RetryPolicy`]; retry counts surface in
//! `--cache-stats` so degradation is visible, not silent.
//!
//! Loads classify every failure mode — missing file, bad magic, stale
//! version, short read, checksum mismatch — as [`Load::Absent`] or
//! [`Load::Corrupt`]; corruption is a *diagnostic*, never a panic, and
//! the driver falls back to a cold analysis.
//!
//! Fault points (`qual-faultpoint`): `cache.read`, `cache.write`,
//! `cache.lock`.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qual_constinfer::summary::FORMAT_VERSION;
use qual_faultpoint::FaultKind;

const MAGIC: &[u8; 4] = b"QINC";
/// Container header size: magic + version + generation + length + checksum.
const HEADER: usize = 4 + 4 + 8 + 8 + 8;

/// FNV-1a, 64-bit; also the QSP1 frame checksum ([`crate::proto`]).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The container checksum covers every mutable header field plus the
/// payload, so a flipped bit anywhere past the version field is caught.
fn container_checksum(generation: u64, payload: &[u8]) -> u64 {
    let h = fnv1a(FNV_OFFSET, &generation.to_le_bytes());
    let h = fnv1a(h, &(payload.len() as u64).to_le_bytes());
    fnv1a(h, payload)
}

/// A 128-bit content key (two independently seeded FNV-1a streams).
/// Not cryptographic — the cache defends against staleness and
/// corruption, not adversaries — but 128 bits keep accidental
/// collisions out of reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    hi: u64,
    lo: u64,
}

impl Key {
    /// The key as a fixed-width hex string (the cache file stem).
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// An incremental hasher producing a [`Key`]. Inputs are framed
/// (length-prefixed) so `("ab","c")` and `("a","bc")` hash differently.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    a: u64,
    b: u64,
}

impl Default for KeyHasher {
    fn default() -> KeyHasher {
        KeyHasher::new()
    }
}

impl KeyHasher {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> KeyHasher {
        KeyHasher {
            a: FNV_OFFSET,
            // A distinct, arbitrary second seed decorrelates the
            // streams (golden-ratio constant).
            b: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Mixes raw bytes (framed with their length).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.a = fnv1a(self.a, bytes);
        self.b = fnv1a(self.b, bytes);
    }

    /// Mixes a string (framed).
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Mixes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.a = fnv1a(self.a, &v.to_le_bytes());
        self.b = fnv1a(self.b, &v.to_le_bytes());
    }

    /// Mixes a `bool`.
    pub fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    /// Chains another key into this one (for transitive invalidation:
    /// a unit's key includes its callee units' keys).
    pub fn key(&mut self, k: &Key) {
        self.u64(k.hi);
        self.u64(k.lo);
    }

    /// The final key.
    #[must_use]
    pub fn finish(&self) -> Key {
        Key {
            hi: self.a,
            lo: self.b,
        }
    }
}

/// Bounded retry for transient I/O faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_retries: 2 }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based): 1ms, 2ms, 4ms …
    /// capped at 16ms — enough to ride out EINTR-class blips without
    /// ever stalling a run noticeably.
    fn backoff(attempt: u32) -> Duration {
        Duration::from_millis((1u64 << attempt.min(4)).min(16))
    }
}

/// The outcome of a cache lookup.
#[derive(Debug)]
pub enum Load {
    /// No entry (or an entry written by a different format version —
    /// indistinguishable from absent by design).
    Absent,
    /// An entry exists but cannot be trusted; the reason is
    /// human-readable. The caller re-analyzes cold and reports one
    /// structured diagnostic.
    Corrupt(String),
    /// A verified container; the payload still needs decoding and
    /// certification.
    Payload {
        /// The encoded summary.
        bytes: Vec<u8>,
        /// The generation of the writer that produced the entry.
        generation: u64,
    },
}

fn entry_path(dir: &Path, key: &Key) -> PathBuf {
    dir.join(format!("{}.qinc", key.hex()))
}

/// Stores a payload under `key`, atomically (temp file + rename),
/// retrying transient failures per `policy`. Returns the number of
/// retries spent.
///
/// # Errors
///
/// Returns the last I/O error when every attempt failed — the driver
/// downgrades this to a diagnostic and continues uncached.
pub fn store(
    dir: &Path,
    key: &Key,
    payload: &[u8],
    generation: u64,
    policy: RetryPolicy,
) -> std::io::Result<u32> {
    let _span = qual_obs::span("cache-write");
    let mut attempt = 0u32;
    loop {
        match store_once(dir, key, payload, generation) {
            Ok(()) => return Ok(attempt),
            // A full disk is not transient at retry timescales:
            // retrying ENOSPC burns backoff sleeps for nothing. Fail
            // fast; the driver's degrade path re-probes on the *next*
            // store instead.
            Err(e) if is_disk_full(&e) => return Err(e),
            Err(e) if attempt < policy.max_retries => {
                attempt += 1;
                std::thread::sleep(RetryPolicy::backoff(attempt));
                let _ = e;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Whether an I/O error means "the disk is full" (real ENOSPC or the
/// injected environment fault).
#[must_use]
pub fn is_disk_full(e: &std::io::Error) -> bool {
    e.raw_os_error() == Some(28) || is_disk_full_msg(&e.to_string())
}

/// Message-level ENOSPC classification, for errors already rendered to
/// strings (a unit's recorded store error).
#[must_use]
pub fn is_disk_full_msg(msg: &str) -> bool {
    msg.contains("ENOSPC") || msg.contains("No space left on device")
}

/// The cache's disk-full degrade state: a latch that turns a stream of
/// ENOSPC store failures into *one* structured diagnostic per episode,
/// and a heal note when space returns. Every store attempt doubles as
/// the re-probe — there is no timer; the first store that succeeds
/// after a degrade flips the latch back.
#[derive(Debug, Default)]
pub struct Health {
    inner: Mutex<HealthState>,
}

#[derive(Debug, Default)]
struct HealthState {
    degraded: bool,
    episodes: u64,
}

impl Health {
    /// A healthy tracker.
    #[must_use]
    pub fn new() -> Health {
        Health::default()
    }

    /// Records a disk-full store failure. Returns the one-per-episode
    /// diagnostic on the healthy→degraded transition, `None` while the
    /// episode is already underway.
    pub fn note_disk_full(&self) -> Option<String> {
        let mut st = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if st.degraded {
            return None;
        }
        st.degraded = true;
        st.episodes += 1;
        Some(
            "cache: disk full (ENOSPC); continuing uncached until space returns"
                .to_owned(),
        )
    }

    /// Records a successful store. Returns the heal note on the
    /// degraded→healthy transition, `None` in steady healthy state.
    pub fn note_store_ok(&self) -> Option<String> {
        let mut st = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if !st.degraded {
            return None;
        }
        st.degraded = false;
        Some("cache: disk space returned; caching resumed".to_owned())
    }

    /// Whether the cache is currently in a disk-full degrade episode.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .degraded
    }

    /// Degrade episodes begun since this tracker was created.
    #[must_use]
    pub fn episodes(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .episodes
    }
}

fn store_once(
    dir: &Path,
    key: &Key,
    payload: &[u8],
    generation: u64,
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut bytes = Vec::with_capacity(payload.len() + HEADER);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&generation.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&container_checksum(generation, payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    // The temp name must be unique per *writer*, not just per process:
    // two threads storing the same key would otherwise share a temp
    // path, and one's `File::create` truncates the file the other is
    // mid-write in — publishing a short entry via the loser's rename.
    static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!(
        ".{}.tmp-{}-{}",
        key.hex(),
        std::process::id(),
        seq
    ));

    // Fault point: `Io` fails the whole attempt (transient — the retry
    // loop may recover); `ShortWrite` simulates a writer killed mid-way
    // through the temp file: partial bytes land, no rename happens, the
    // stray temp is left exactly as a real crash would leave it. Either
    // way the published entry is untouched — old state.
    match qual_faultpoint::hit("cache.write") {
        Some(FaultKind::Io) => {
            return Err(std::io::Error::other("injected fault at cache.write"));
        }
        Some(FaultKind::ShortWrite) => {
            let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
            return Err(std::io::Error::other(
                "injected short write at cache.write (simulated crash)",
            ));
        }
        Some(FaultKind::Panic) => panic!("injected panic at cache.write"),
        Some(FaultKind::DiskFull) => {
            return Err(std::io::Error::other(
                "injected disk full at cache.write (ENOSPC)",
            ));
        }
        _ => {}
    }
    // Environment machine: the simulated disk charges the whole
    // container. Explicit rules above win; a full disk denies *before*
    // the temp file exists, exactly like a real ENOSPC on create.
    if qual_faultpoint::charge_disk("cache.write", bytes.len() as u64).is_some() {
        return Err(std::io::Error::other(
            "injected disk full at cache.write (ENOSPC)",
        ));
    }

    let write_tmp = (|| -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()
    })();
    if let Err(e) = write_tmp {
        // A genuinely failed write is not a crash: clean our temp up.
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    match fs::rename(&tmp, entry_path(dir, key)) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Loads and integrity-checks the entry for `key`, retrying transient
/// read failures per `policy`. The second tuple element is the number
/// of retries spent.
#[must_use]
pub fn load(dir: &Path, key: &Key, policy: RetryPolicy) -> (Load, u32) {
    let _span = qual_obs::span("cache-read");
    let mut attempt = 0u32;
    loop {
        match load_once(dir, key) {
            // `Corrupt` from an unreadable file is worth retrying —
            // transient EIO and injected faults recover; real
            // corruption reproduces and exits the loop unchanged.
            Load::Corrupt(msg) if attempt < policy.max_retries && msg.starts_with("unreadable") => {
                attempt += 1;
                std::thread::sleep(RetryPolicy::backoff(attempt));
            }
            other => return (other, attempt),
        }
    }
}

fn load_once(dir: &Path, key: &Key) -> Load {
    let path = entry_path(dir, key);

    // Fault point: `Io` simulates a transient read error (retried);
    // `Garbage` corrupts the bytes after the read (the checksum must
    // catch it); `Delay` stalls (lock-step with the deadline tests).
    let injected = qual_faultpoint::hit("cache.read");
    if injected == Some(FaultKind::Io) {
        return Load::Corrupt("unreadable cache entry: injected fault at cache.read".to_owned());
    }
    if injected == Some(FaultKind::Panic) {
        panic!("injected panic at cache.read");
    }

    let mut bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Load::Absent,
        Err(e) => return Load::Corrupt(format!("unreadable cache entry: {e}")),
    };
    if injected == Some(FaultKind::Garbage) {
        // Deterministic bit rot over header and payload alike.
        for (i, b) in bytes.iter_mut().enumerate() {
            if i % 7 == 3 {
                *b ^= 0x5a;
            }
        }
    }
    if bytes.len() < HEADER {
        return Load::Corrupt(format!(
            "cache entry truncated: {} byte(s), header needs {HEADER}",
            bytes.len()
        ));
    }
    if &bytes[0..4] != MAGIC {
        return Load::Corrupt("cache entry has wrong magic".to_owned());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        // A stale format is expected across tool upgrades: silently a
        // miss, not corruption.
        return Load::Absent;
    }
    let generation = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER..];
    if payload.len() as u64 != len {
        return Load::Corrupt(format!(
            "cache entry truncated: payload is {} of {len} byte(s)",
            payload.len()
        ));
    }
    if container_checksum(generation, payload) != checksum {
        return Load::Corrupt("cache entry failed its checksum".to_owned());
    }
    Load::Payload {
        bytes: payload.to_vec(),
        generation,
    }
}

// ---------------------------------------------------------------------
// Sessions: advisory lock + generation counter.
// ---------------------------------------------------------------------

/// How long a lock file may sit unchanged before another session
/// declares its owner dead and steals it.
const LOCK_STALE_AFTER: Duration = Duration::from_secs(5);

/// The staleness bound, with a test override: `QUAL_LOCK_STALE_MS`
/// shrinks the window so suites can exercise the stealing path without
/// multi-second waits. Read per probe — the bound only matters on the
/// contended path, where a file stat dwarfs an env lookup.
fn lock_stale_after() -> Duration {
    std::env::var("QUAL_LOCK_STALE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(LOCK_STALE_AFTER, Duration::from_millis)
}
/// Total bounded wait for the advisory lock before degrading to a
/// lockless session. Generations are observability, not integrity, so
/// waiting forever would be the wrong trade.
const LOCK_MAX_WAIT: Duration = Duration::from_millis(500);
/// Stray temp files older than this are swept at session open.
const TMP_STALE_AFTER: Duration = Duration::from_secs(600);

/// What opening a cache session established.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Session {
    /// This writer's generation (monotonic across well-behaved
    /// sessions; 0 when the counter was unreachable).
    pub generation: u64,
    /// Time spent waiting on the advisory lock, in milliseconds.
    pub lock_wait_ms: u64,
    /// Stale locks stolen from dead owners.
    pub lock_steals: u32,
    /// Whether the session gave up on the lock and ran lockless.
    pub lockless: bool,
    /// A human-readable note when anything degraded.
    pub diag: Option<String>,
}

/// Appends a degradation note to the session, preserving any earlier
/// one (a stolen lock followed by an unwritable counter reports both).
fn add_diag(session: &mut Session, note: String) {
    session.diag = Some(match session.diag.take() {
        Some(prev) => format!("{prev}; {note}"),
        None => note,
    });
}

fn lock_path(dir: &Path) -> PathBuf {
    dir.join(".qinc.lock")
}

fn gen_path(dir: &Path) -> PathBuf {
    dir.join(".qinc.gen")
}

/// Removes the advisory lock when dropped.
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Tries to take the advisory lock: bounded backoff, stale-lock
/// stealing. `None` means the wait budget ran out.
fn acquire_lock(dir: &Path, session: &mut Session) -> Option<LockGuard> {
    let path = lock_path(dir);
    let started = Instant::now();
    let mut backoff = Duration::from_millis(1);
    loop {
        if let Some(kind) = qual_faultpoint::hit("cache.lock") {
            match kind {
                FaultKind::Io | FaultKind::ShortWrite => {
                    session.lock_wait_ms += started.elapsed().as_millis() as u64;
                    return None;
                }
                FaultKind::Panic => panic!("injected panic at cache.lock"),
                // Garbage on a lock has no meaning; Delay already slept.
                _ => {}
            }
        }
        match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                // Content is for humans inspecting a wedged cache dir.
                let _ = writeln!(f, "pid {}", std::process::id());
                session.lock_wait_ms += started.elapsed().as_millis() as u64;
                return Some(LockGuard { path });
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                // Held by someone. Stale? Steal it.
                let stale = fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age > lock_stale_after());
                if stale {
                    let _ = fs::remove_file(&path);
                    session.lock_steals += 1;
                    // A steal means some session died (or wedged) while
                    // holding the lock — worth one counter and one
                    // structured note, never a silent event.
                    qual_obs::count("cache.lock_stolen", 1);
                    add_diag(
                        session,
                        format!(
                            "stole stale advisory lock {} (unchanged past its staleness bound)",
                            path.display()
                        ),
                    );
                    continue;
                }
                if started.elapsed() >= LOCK_MAX_WAIT {
                    session.lock_wait_ms += started.elapsed().as_millis() as u64;
                    return None;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(32));
            }
            Err(_) => {
                // Unexpected I/O trouble creating the lock (permissions,
                // missing dir): degrade immediately rather than spin.
                session.lock_wait_ms += started.elapsed().as_millis() as u64;
                return None;
            }
        }
    }
}

/// Opens a cache session: sweeps stale temp files, then bumps the
/// shared generation counter under the advisory lock. Every failure
/// mode degrades — lockless sessions, generation 0 — with a note in
/// [`Session::diag`]; nothing here can fail the analysis.
#[must_use]
pub fn open_session(dir: &Path, policy: RetryPolicy) -> Session {
    let mut session = Session::default();
    if fs::create_dir_all(dir).is_err() {
        // Stores will fail and report; the session itself stays quiet
        // but lockless.
        session.lockless = true;
        session.diag = Some(format!("cache directory {} is unusable", dir.display()));
        return session;
    }

    // Sweep temp files abandoned by crashed writers. Best effort; age
    // check keeps us clear of a live writer's in-flight temp.
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let is_tmp = name.to_string_lossy().contains(".tmp-");
            if !is_tmp {
                continue;
            }
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age > TMP_STALE_AFTER);
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    let guard = acquire_lock(dir, &mut session);
    if guard.is_none() {
        session.lockless = true;
        add_diag(
            &mut session,
            "cache lock unavailable; proceeding lockless (generation not bumped)".to_owned(),
        );
        return session;
    }

    // Generation bump under the lock: read, increment, write back
    // atomically (temp + rename, like every other cache write).
    let path = gen_path(dir);
    let current = fs::read(&path)
        .ok()
        .filter(|b| b.len() == 8)
        .map(|b| u64::from_le_bytes(b[..8].try_into().expect("8 bytes")))
        .unwrap_or(0);
    let next = current.wrapping_add(1).max(1);
    let tmp = dir.join(format!(".qinc.gen.tmp-{}", std::process::id()));
    let mut attempt = 0u32;
    loop {
        let wrote = fs::write(&tmp, next.to_le_bytes())
            .and_then(|()| fs::rename(&tmp, &path));
        match wrote {
            Ok(()) => {
                session.generation = next;
                break;
            }
            Err(_) if attempt < policy.max_retries => {
                attempt += 1;
                std::thread::sleep(RetryPolicy::backoff(attempt));
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                add_diag(
                    &mut session,
                    format!(
                        "cache generation counter unwritable ({e}); entries will carry generation 0"
                    ),
                );
                break;
            }
        }
    }
    session
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "qinc-cache-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    const NO_RETRY: RetryPolicy = RetryPolicy { max_retries: 0 };

    #[test]
    fn round_trip_and_absent() {
        let dir = tmpdir("rt");
        let mut h = KeyHasher::new();
        h.str("hello");
        let key = h.finish();
        assert!(matches!(load(&dir, &key, NO_RETRY).0, Load::Absent));
        store(&dir, &key, b"payload bytes", 7, NO_RETRY).unwrap();
        let loaded = load(&dir, &key, NO_RETRY).0;
        assert!(
            matches!(&loaded, Load::Payload { .. }),
            "expected payload, got {loaded:?}"
        );
        if let Load::Payload { bytes, generation } = loaded {
            assert_eq!(bytes, b"payload bytes");
            assert_eq!(generation, 7);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_are_framed_and_order_sensitive() {
        let k = |parts: &[&str]| {
            let mut h = KeyHasher::new();
            for p in parts {
                h.str(p);
            }
            h.finish()
        };
        assert_ne!(k(&["ab", "c"]), k(&["a", "bc"]));
        assert_ne!(k(&["a", "b"]), k(&["b", "a"]));
        assert_eq!(k(&["a", "b"]), k(&["a", "b"]));
    }

    #[test]
    fn corruption_is_detected_not_trusted() {
        let dir = tmpdir("corrupt");
        let key = KeyHasher::new().finish();
        store(&dir, &key, b"some payload worth protecting", 1, NO_RETRY).unwrap();
        let path = dir.join(format!("{}.qinc", key.hex()));

        // Bit flip in the payload.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&dir, &key, NO_RETRY).0, Load::Corrupt(_)));

        // Truncation.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(load(&dir, &key, NO_RETRY).0, Load::Corrupt(_)));

        // Empty file.
        fs::write(&path, b"").unwrap();
        assert!(matches!(load(&dir, &key, NO_RETRY).0, Load::Corrupt(_)));

        // Wrong version reads as a miss, not corruption.
        store(&dir, &key, b"payload", 1, NO_RETRY).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = bytes[4].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&dir, &key, NO_RETRY).0, Load::Absent));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_multi_qualifier_entries_miss_silently() {
        // A v2 container is exactly what a const-only build wrote
        // before the qualifier registry landed (FORMAT_VERSION 2).
        // Everything about the forged entry is intact — magic,
        // generation, length, checksum, payload — only the version is
        // old: the load must be a *silent miss* (the unit re-analyzes
        // and overwrites), never a corruption diagnostic and never a
        // retry, because a stale format is expected across upgrades.
        let dir = tmpdir("stale-version");
        fs::create_dir_all(&dir).unwrap();
        let key = KeyHasher::new().finish();
        let payload = b"a perfectly healthy const-only summary";
        let generation = 3u64;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
        bytes.extend_from_slice(&generation.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(
            &container_checksum(generation, payload).to_le_bytes(),
        );
        bytes.extend_from_slice(payload);
        fs::write(entry_path(&dir, &key), &bytes).unwrap();

        let (loaded, retries) = load(&dir, &key, NO_RETRY);
        assert!(
            matches!(loaded, Load::Absent),
            "a stale version is a miss, not corruption: {loaded:?}"
        );
        assert_eq!(retries, 0, "nothing transient to retry");
        // The slot is reusable: a fresh store round-trips at the
        // current version.
        store(&dir, &key, b"new summary", 4, NO_RETRY).unwrap();
        assert!(matches!(load(&dir, &key, NO_RETRY).0, Load::Payload { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_bump_generations_and_release_the_lock() {
        let dir = tmpdir("session");
        let a = open_session(&dir, RetryPolicy::default());
        assert_eq!(a.generation, 1, "{a:?}");
        assert!(!a.lockless);
        let b = open_session(&dir, RetryPolicy::default());
        assert_eq!(b.generation, 2, "lock must have been released: {b:?}");
        assert!(!lock_path(&dir).exists(), "guard removes the lock file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_locks_are_stolen_not_waited_on_forever() {
        let dir = tmpdir("steal");
        fs::create_dir_all(&dir).unwrap();
        fs::write(lock_path(&dir), b"pid 0\n").unwrap();
        // Backdate the lock by making it look old: set mtime via a
        // wait would be slow, so exercise the non-stale path instead —
        // a *fresh* foreign lock bounds the wait and degrades lockless.
        let s = open_session(&dir, RetryPolicy::default());
        assert!(s.lockless, "fresh foreign lock within wait budget: {s:?}");
        assert!(s.diag.is_some());
        assert!(s.lock_wait_ms >= LOCK_MAX_WAIT.as_millis() as u64 / 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_sessions_never_deadlock_or_collide() {
        let dir = tmpdir("concurrent");
        let gens: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| open_session(&dir, RetryPolicy::default())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread").generation)
                .collect()
        });
        // Every locked session got a distinct generation; lockless
        // degradations (possible under extreme scheduling) report 0.
        let mut locked: Vec<u64> = gens.iter().copied().filter(|&g| g != 0).collect();
        locked.sort_unstable();
        let before = locked.len();
        locked.dedup();
        assert_eq!(locked.len(), before, "locked generations are unique: {gens:?}");
        assert!(!locked.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
