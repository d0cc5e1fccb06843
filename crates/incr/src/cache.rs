//! The persistent on-disk summary cache, safe to share between
//! concurrent processes and hardened against crashes and transient I/O.
//!
//! One file per unit, named by the unit's content-addressed key. Each
//! file is a small self-checking container:
//!
//! ```text
//! "QINC"  magic (4 bytes)
//! u32 LE  format version (must equal summary::FORMAT_VERSION)
//! u64 LE  writer generation (the driver always writes 0)
//! u64 LE  payload length
//! u64 LE  FNV-1a checksum of generation, length, and payload
//! bytes   payload (an encoded UnitSummary)
//! ```
//!
//! The header is written and read by `qual_solve::wire`, like the
//! payload inside it, and its checksum is [`wire::checksum`] over the
//! generation — the one QSP1 frames carry over their kind.
//!
//! **Crash safety.** Stores write to a temporary sibling, `fsync`, and
//! `rename` into place. Rename is atomic on every platform we target,
//! so a reader — in this process or another — observes each entry as
//! either the complete old state or the complete new state, never a
//! torn mixture; a writer killed at *any* point leaves at worst a stray
//! temp file (swept by [`prepare_dir`]) plus the old entry. The chaos
//! suite drives a fault plan through every write-side fault point to
//! hold this invariant.
//!
//! **Concurrency.** Nothing is locked: keys are content hashes and the
//! driver stamps every entry with generation 0, so two processes
//! writing the same key write identical bytes, and the atomic rename
//! arbitrates.
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
//! Fault points (`qual-faultpoint`): `cache.read`, `cache.write`.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use qual_constinfer::summary::FORMAT_VERSION;
use qual_faultpoint::FaultKind;
use qual_solve::wire::{self, Reader, WireError, Writer, FNV_OFFSET, FNV_PRIME};

const MAGIC: &[u8; 4] = b"QINC";
/// Container header size: magic + version + generation + length + checksum.
const HEADER: usize = 4 + 4 + 8 + 8 + 8;

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

    /// Folds `bytes` into both streams in one pass: the two FNV-1a
    /// multiply chains are independent, so the CPU overlaps them.
    fn mix(&mut self, bytes: &[u8]) {
        let (mut a, mut b) = (self.a, self.b);
        for &x in bytes {
            a = (a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
            b = (b ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        }
        self.a = a;
        self.b = b;
    }

    /// Mixes raw bytes (framed with their length).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.mix(bytes);
    }

    /// Mixes a string (framed).
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Mixes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.mix(&v.to_le_bytes());
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
    degraded: AtomicBool,
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
        if self.degraded.swap(true, Ordering::SeqCst) {
            return None;
        }
        Some(
            "cache: disk full (ENOSPC); continuing uncached until space returns"
                .to_owned(),
        )
    }

    /// Records a successful store. Returns the heal note on the
    /// degraded→healthy transition, `None` in steady healthy state.
    pub fn note_store_ok(&self) -> Option<String> {
        if !self.degraded.swap(false, Ordering::SeqCst) {
            return None;
        }
        Some("cache: disk space returned; caching resumed".to_owned())
    }

    /// Whether the cache is currently in a disk-full degrade episode.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }
}

fn store_once(
    dir: &Path,
    key: &Key,
    payload: &[u8],
    generation: u64,
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut w = Writer::with_capacity(HEADER + payload.len());
    w.bytes(MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(generation);
    w.len_prefix(payload.len());
    w.u64(wire::checksum(&generation.to_le_bytes(), payload));
    w.bytes(payload);
    let bytes = w.into_bytes();
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
    let mut r = Reader::new(&bytes);
    let Ok((magic, version, generation, len, checksum)) = read_header(&mut r) else {
        return Load::Corrupt(format!(
            "cache entry truncated: {} byte(s), header needs {HEADER}",
            bytes.len()
        ));
    };
    if magic != MAGIC {
        return Load::Corrupt("cache entry has wrong magic".to_owned());
    }
    if version != FORMAT_VERSION {
        // A stale format is expected across tool upgrades: silently a
        // miss, not corruption.
        return Load::Absent;
    }
    let payload = r.rest();
    let have = payload.len() as u64;
    if have < len {
        return Load::Corrupt(format!(
            "cache entry truncated: payload is {have} of {len} byte(s)"
        ));
    }
    if have > len {
        return Load::Corrupt(format!(
            "cache entry has {} trailing byte(s) after its {len}-byte payload",
            have - len
        ));
    }
    if wire::checksum(&generation.to_le_bytes(), payload) != checksum {
        return Load::Corrupt("cache entry failed its checksum".to_owned());
    }
    Load::Payload {
        bytes: payload.to_vec(),
        generation,
    }
}

/// A container header: magic, format version, generation, payload
/// length, checksum.
fn read_header<'a>(r: &mut Reader<'a>) -> Result<(&'a [u8], u32, u64, u64, u64), WireError> {
    Ok((r.bytes(MAGIC.len())?, r.u32()?, r.u64()?, r.u64()?, r.u64()?))
}

/// Stray temp files older than this are swept by [`prepare_dir`].
const TMP_STALE_AFTER: Duration = Duration::from_secs(600);

/// Prepares a cache directory for use: creates it, then sweeps temp
/// files abandoned by crashed writers. Returns the one "unusable" note
/// when the directory cannot be created; stores then fail and report,
/// and nothing here can fail the analysis.
#[must_use]
pub fn prepare_dir(dir: &Path) -> Option<String> {
    if fs::create_dir_all(dir).is_err() {
        return Some(format!("cache directory {} is unusable", dir.display()));
    }

    // Best effort; the age check keeps us clear of a live writer's
    // in-flight temp.
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
    None
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
    fn trailing_bytes_past_the_payload_are_named() {
        let dir = tmpdir("trailing");
        let key = KeyHasher::new().finish();
        store(&dir, &key, b"payload", 1, NO_RETRY).unwrap();
        let path = entry_path(&dir, &key);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"xy");
        fs::write(&path, &bytes).unwrap();
        match load(&dir, &key, NO_RETRY).0 {
            Load::Corrupt(m) => {
                assert_eq!(m, "cache entry has 2 trailing byte(s) after its 7-byte payload");
            }
            other => panic!("trailing bytes must read as corruption: {other:?}"),
        }
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
            &wire::checksum(&generation.to_le_bytes(), payload).to_le_bytes(),
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
}
