//! The workspace's one binary codec: every byte the tools persist or
//! send is written by [`Writer`] and read back by [`Reader`]. Four
//! formats are built from it:
//!
//! * unit summaries (`qual_constinfer::summary`), the payload of a
//!   cache entry;
//! * the 32-byte QINC header around each cache entry (`qual_incr::cache`);
//! * the 24-byte QSP1 frame header (`qual_incr::proto`);
//! * QSP1 frame payloads (`qual_incr::proto`).
//!
//! The format is deliberately dumb: little-endian fixed-width integers
//! and length-prefixed UTF-8 strings, written in a fixed field order.
//! There is no self-description and no skipping — a reader must know
//! the exact layout, which is versioned by the *container* (the QINC
//! or QSP1 header), not here. Every decode path returns [`WireError`]
//! instead of panicking: a truncated or bit-flipped input must surface
//! as a structured error the caller can turn into a diagnostic. Both
//! headers carry the same FNV-1a [`checksum`].
//!
//! [`Provenance::what`](crate::Provenance::what) is a `&'static str` by
//! design (constraint generation interns nothing); deserialization
//! restores it through a small global interner ([`intern_static`]),
//! bounded in practice by the handful of distinct provenance labels the
//! engines use.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use crate::diag::{Diagnostic, Phase, Severity};

/// A decode failure: the bytes do not describe what the reader expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the field did.
    Truncated,
    /// A count or length larger than the bytes left. Every element
    /// takes at least one byte, so no real input says this; rejecting
    /// it up front keeps a bit-flipped count from driving a giant
    /// allocation.
    Overlong {
        /// The count read.
        n: u64,
        /// The bytes left after it.
        left: usize,
    },
    /// A field outside its range: a bool byte other than 0 or 1, an
    /// unknown tag, an index too large for its type.
    Invalid {
        /// What the field is, e.g. `"bool byte"`.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A string that is not UTF-8.
    NotUtf8,
    /// Bytes left over after the last field.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("input truncated"),
            WireError::Overlong { n, left } => {
                write!(f, "element count {n} exceeds the {left} byte(s) left")
            }
            WireError::Invalid { field, value } => write!(f, "bad {field} {value}"),
            WireError::NotUtf8 => f.write_str("non-UTF-8 string"),
            WireError::Trailing(n) => write!(f, "{n} trailing byte(s) after the last field"),
        }
    }
}

impl std::error::Error for WireError {}

/// The FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the 64-bit FNV-1a state `seed`.
#[must_use]
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The checksum in both container headers: FNV-1a over one header
/// field (the QSP1 frame kind, the QINC generation), the payload length
/// as a u64, and the payload. A flipped bit in any of the three is
/// caught.
#[must_use]
pub fn checksum(field: &[u8], payload: &[u8]) -> u64 {
    let h = fnv1a(FNV_OFFSET, field);
    let h = fnv1a(h, &(payload.len() as u64).to_le_bytes());
    fnv1a(h, payload)
}

/// Serializes values into a growing byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer with room for `n` bytes.
    #[must_use]
    pub fn with_capacity(n: usize) -> Writer {
        Writer { buf: Vec::with_capacity(n) }
    }

    /// The serialized bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, with no length prefix (magic numbers, payloads).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `usize` as u64 (lengths, counts).
    pub fn len_prefix(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// A bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len_prefix(s.len());
        self.bytes(s.as_bytes());
    }

    /// `Option<String>`-shaped field: presence byte then the string.
    pub fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.bool(true);
                self.str(s);
            }
            None => self.bool(false),
        }
    }

    /// `Option<u64>`-shaped field: presence byte then the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.bool(true);
                self.u64(v);
            }
            None => self.bool(false),
        }
    }
}

/// Deserializes values from a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Succeeds when every byte has been consumed; otherwise
    /// [`WireError::Trailing`] with the count of bytes left.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Every byte not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// A length/count written by [`Writer::len_prefix`], rejected as
    /// [`WireError::Overlong`] when it exceeds the bytes left.
    pub fn len_prefix(&mut self) -> Result<usize, WireError> {
        let n = self.u64()?;
        let left = self.buf.len() - self.pos;
        if n > left as u64 {
            return Err(WireError::Overlong { n, left });
        }
        Ok(n as usize)
    }

    /// A bool byte (strictly 0 or 1 — anything else is corruption).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Invalid { field: "bool byte", value: b.into() }),
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.len_prefix()?;
        let b = self.bytes(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::NotUtf8)
    }

    /// Presence-prefixed optional string.
    pub fn opt_str(&mut self) -> Result<Option<String>, WireError> {
        Ok(if self.bool()? { Some(self.str()?) } else { None })
    }

    /// Presence-prefixed optional u64.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }
}

/// Interns a string into the process-global static table, so
/// deserialized [`Provenance::what`](crate::Provenance::what) fields can satisfy the `&'static
/// str` type. The table only grows, but its population is bounded by
/// the distinct provenance labels ever decoded — a few dozen literals.
#[must_use]
pub fn intern_static(s: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(BTreeSet::new()));
    // Poison-tolerant: a worker panicking elsewhere must not turn every
    // later decode into a second panic. The set is always consistent —
    // insertion happens after the leak, and a leaked-but-not-inserted
    // string is only a few wasted bytes.
    let mut guard = table.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(hit) = guard.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.insert(leaked);
    leaked
}

fn severity_tag(s: Severity) -> u8 {
    match s {
        Severity::Warning => 0,
        Severity::Error => 1,
    }
}

fn phase_tag(p: Phase) -> u8 {
    match p {
        Phase::Lex => 0,
        Phase::Parse => 1,
        Phase::Sema => 2,
        Phase::Infer => 3,
        Phase::Solve => 4,
        Phase::Verify => 5,
    }
}

/// Encodes a [`Diagnostic`].
pub fn put_diagnostic(w: &mut Writer, d: &Diagnostic) {
    w.u8(severity_tag(d.severity));
    w.u8(phase_tag(d.phase));
    match d.span {
        Some((lo, hi)) => {
            w.bool(true);
            w.u32(lo);
            w.u32(hi);
        }
        None => w.bool(false),
    }
    w.opt_str(d.function.as_deref());
    w.str(&d.message);
}

/// Decodes a [`Diagnostic`].
pub fn get_diagnostic(r: &mut Reader<'_>) -> Result<Diagnostic, WireError> {
    let severity = match r.u8()? {
        0 => Severity::Warning,
        1 => Severity::Error,
        t => return Err(WireError::Invalid { field: "severity tag", value: t.into() }),
    };
    let phase = match r.u8()? {
        0 => Phase::Lex,
        1 => Phase::Parse,
        2 => Phase::Sema,
        3 => Phase::Infer,
        4 => Phase::Solve,
        5 => Phase::Verify,
        t => return Err(WireError::Invalid { field: "phase tag", value: t.into() }),
    };
    let span = if r.bool()? {
        Some((r.u32()?, r.u32()?))
    } else {
        None
    };
    let function = r.opt_str()?;
    let message = r.str()?;
    Ok(Diagnostic {
        severity,
        phase,
        span,
        function,
        message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.bool(true);
        w.str("héllo");
        w.opt_str(None);
        w.opt_str(Some("x"));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_str().unwrap(), None);
        assert_eq!(r.opt_str().unwrap(), Some("x".to_owned()));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.str("a longer string");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.str().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_tags_are_malformed() {
        let mut r = Reader::new(&[9]);
        assert_eq!(
            get_diagnostic(&mut r),
            Err(WireError::Invalid { field: "severity tag", value: 9 })
        );
        let mut r = Reader::new(&[2]);
        assert_eq!(r.bool(), Err(WireError::Invalid { field: "bool byte", value: 2 }));
    }

    #[test]
    fn counts_past_the_input_and_trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.len_prefix(9);
        w.bytes(&[0; 8]);
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).len_prefix(),
            Err(WireError::Overlong { n: 9, left: 8 })
        );
        let mut r = Reader::new(&bytes);
        r.u64().unwrap();
        assert_eq!(r.finish(), Err(WireError::Trailing(8)));
    }

    #[test]
    fn decoded_labels_intern_to_one_pointer() {
        let mut w = Writer::new();
        w.str("assignment");
        let bytes = w.into_bytes();
        // The label is interned: decoding twice yields pointer-equal strs.
        let back = intern_static(&Reader::new(&bytes).str().unwrap());
        let again = intern_static(&Reader::new(&bytes).str().unwrap());
        assert_eq!(back, "assignment");
        assert!(std::ptr::eq(back, again));
    }

    #[test]
    fn diagnostic_round_trips() {
        let d = Diagnostic::error(Phase::Infer, "work budget exceeded")
            .with_span(10, 20)
            .with_function("heavy");
        let w2 = Diagnostic::warning(Phase::Verify, "no span");
        for d in [d, w2] {
            let mut w = Writer::new();
            put_diagnostic(&mut w, &d);
            let bytes = w.into_bytes();
            assert_eq!(get_diagnostic(&mut Reader::new(&bytes)).unwrap(), d);
        }
    }
}
