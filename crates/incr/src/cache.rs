//! The persistent on-disk summary cache, safe to share between
//! concurrent processes and hardened against crashes and transient I/O.
//! No analysis venue reads or writes it any more: its one caller is the
//! benchmark harness, which replays the removed unit driver's stores and
//! loads (DESIGN.md §11).
//!
//! One file per unit, named by the unit's content-addressed key. Each
//! file is a small self-checking container:
//!
//! ```text
//! "QINC"  magic (4 bytes)
//! u32 LE  format version (must equal summary::FORMAT_VERSION)
//! u64 LE  writer generation
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
//! temp file plus the old entry.
//!
//! **Concurrency.** Nothing is locked: keys are content hashes, so two
//! processes writing the same key and generation write identical bytes,
//! and the atomic rename arbitrates.
//!
//! **Transient I/O.** Reads and writes retry with bounded exponential
//! backoff under a [`RetryPolicy`], and both return the retries spent.
//!
//! Loads classify every failure mode — missing file, bad magic, stale
//! version, short read, checksum mismatch — as [`Load::Absent`] or
//! [`Load::Corrupt`]; corruption is a value, never a panic.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use qual_constinfer::summary::FORMAT_VERSION;
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
    /// human-readable.
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
/// Returns the last I/O error when every attempt failed, or the first
/// one that says the disk is full.
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
            // retrying ENOSPC burns backoff sleeps for nothing.
            Err(e) if e.raw_os_error() == Some(ENOSPC) => return Err(e),
            Err(e) if attempt < policy.max_retries => {
                attempt += 1;
                std::thread::sleep(RetryPolicy::backoff(attempt));
                let _ = e;
            }
            Err(e) => return Err(e),
        }
    }
}

/// `errno` for "no space left on device".
const ENOSPC: i32 = 28;

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
            // transient EIO recovers; real corruption reproduces and
            // exits the loop unchanged.
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
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Load::Absent,
        Err(e) => return Load::Corrupt(format!("unreadable cache entry: {e}")),
    };
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
