//! QSP1, the wire protocol between `cqual --connect` clients and the
//! `cquald` analysis server (DESIGN.md §16): self-checking,
//! length-prefixed frames over a unix socket.
//!
//! ```text
//! "QSP1"  magic (4 bytes)
//! u32 LE  frame kind
//! u64 LE  payload length
//! u64 LE  FNV-1a checksum of kind, length, and payload
//! bytes   payload
//! ```
//!
//! Header and payloads are written by `qual_solve::wire`, the codec the
//! cache uses too; the checksum is its [`wire::checksum`] over the kind.
//! The checksum makes a torn or corrupted read a *detected* failure —
//! the reader reports [`ProtoError`] and the peer is treated as bad —
//! never silently trusted bytes. Payload length is bounded
//! ([`MAX_FRAME`]) so garbage in the length field cannot provoke an
//! absurd allocation.
//!
//! Frame kinds — client → daemon, then daemon → client:
//!
//! | kind | name         | payload |
//! |------|--------------|---------|
//! | 7    | Analyze      | protocol version, source text, mode, verify flag, optional request deadline |
//! | 8    | Reanalyze    | same as Analyze, but bypasses (and replaces) the daemon's memoized result |
//! | 9    | QueryQual    | function name, optional parameter index, pointer level |
//! | 10   | Explain      | empty — render the resident report's diagnostics |
//! | 11   | Stats        | empty — daemon counters snapshot |
//! | 3    | Shutdown     | empty — a client asks the daemon to drain (acked with Shutdown) |
//! | 12   | Report       | the full analysis result (counts, positions, rendered diagnostics, cache notes, warm/reuse accounting) |
//! | 13   | QualReply    | found flag, position class tag, declared flag, rendered label |
//! | 14   | ExplainReply | rendered explanation text |
//! | 15   | StatsReply   | name/value counter pairs |
//! | 16   | Overloaded   | retry-after hint (ms), queue depth, in-flight count — the structured load-shed reply |
//! | 17   | ErrorReply   | a rendered error message |
//!
//! Kinds 1, 2, 4, 5 and 6 belonged to a retired multi-process driver
//! and decode as [`ProtoError::Malformed`], like any unknown kind.
//! Flags are one byte, 0 or 1, and position class tags are 0–2; any
//! other byte is malformed too, even under a valid checksum.
//!
//! Fault points (`qual-faultpoint`): `proto.read`, `proto.write` —
//! `io` fails the operation, `garbage` corrupts the payload in flight
//! (the checksum must catch it), `panic` kills the calling thread
//! (the server's connection supervisor must contain it). Disabled cost
//! is one relaxed atomic load per frame, like every other point.

use std::io::{Read, Write};

use qual_constinfer::{Mode, Position, PositionClass};
use qual_solve::wire::{self, Reader, WireError, Writer};

/// Protocol version, carried in every [`AnalyzeReq`]; a daemon built
/// from a different source tree answers it with an ErrorReply.
///
/// v2: Analyze carries the qualifier list (`--qual`), and Report frames
/// carry per-qualifier count columns.
/// v3: bumped for a field of the retired worker Hello frame; server
/// frames are unchanged since v2.
/// v4: the Report frame's count after the certification failures is
/// the `certified:` line's number (satisfied constraints, or unsat
/// paths) where it was the merged constraint count, so a v3 peer must
/// not print it.
pub const PROTO_VERSION: u32 = 4;

/// Upper bound on a frame payload (64 MiB) — far above any real
/// summary, low enough that a garbled length field cannot provoke an
/// absurd allocation.
pub const MAX_FRAME: u64 = 64 << 20;

const MAGIC: &[u8; 4] = b"QSP1";
/// magic + kind + len + checksum.
const HEADER: usize = 4 + 4 + 8 + 8;

/// A protocol failure: any of these means the peer (or the socket) can
/// no longer be trusted.
#[derive(Debug)]
pub enum ProtoError {
    /// The socket failed or closed (EOF mid-frame included).
    Io(std::io::Error),
    /// The bytes are structurally wrong: bad magic, checksum mismatch,
    /// oversized length, truncated or malformed payload.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket I/O failed: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> ProtoError {
        ProtoError::Malformed(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------

/// An Analyze/Reanalyze request: everything the daemon needs to run
/// one analysis on behalf of a `cqual --connect` client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeReq {
    /// Must equal [`PROTO_VERSION`].
    pub version: u32,
    /// The source text to analyze.
    pub src: String,
    /// Analysis mode.
    pub mode: Mode,
    /// The comma-joined qualifier list the daemon analyzes over.
    pub quals: String,
    /// Run the independent certifier over the solution.
    pub verify: bool,
    /// Per-request wall-clock deadline, in ms; `None` uses the
    /// daemon's default.
    pub deadline_ms: Option<u64>,
}

/// One interesting position, flattened for the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePosition {
    /// Owning function (or object) name.
    pub function: String,
    /// Parameter index, when the position is a parameter.
    pub param: Option<u32>,
    /// Pointer depth of the qualified level.
    pub level: u32,
    /// The qualifier was declared in the source.
    pub declared: bool,
    /// Class tag: 0 must-const, 1 must-not-const, 2 either.
    pub class: u8,
}

impl WirePosition {
    /// The label `cqual` prints for this position, such as
    /// `f(arg 0, level 1)` (see [`Position::label`]).
    #[must_use]
    pub fn label(&self) -> String {
        Position {
            function: self.function.clone(),
            param: self.param.map(|i| i as usize),
            level: self.level as usize,
            declared: self.declared,
            class: PositionClass::Either,
        }
        .label()
    }
}

/// The payload of a Report frame — a complete analysis result, carrying
/// enough for the client to print byte-identically to a local run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportFrame {
    /// The mode the daemon actually ran.
    pub mode: Mode,
    /// Certification was requested and ran.
    pub verify: bool,
    /// `[total, declared, inferred]` position counts; `None` when
    /// constraint solving failed.
    pub counts: Option<[u64; 3]>,
    /// Per-qualifier `(name, may, must)` columns, in space order;
    /// empty when solving failed.
    pub qual_counts: Vec<(String, u64, u64)>,
    /// Every interesting position, in report order.
    pub positions: Vec<WirePosition>,
    /// Rendered diagnostics (sorted), one string per diagnostic.
    pub skipped: Vec<String>,
    /// Rendered cache-infrastructure notes. Nothing caches any more, so
    /// every sender leaves it empty; the field stays for wire stability.
    pub cache_notes: Vec<String>,
    /// Diagnostics that are certification failures (drives exit 3).
    pub cert_failures: u64,
    /// The count a `--verify` run's `certified:` line prints: the
    /// constraints the solution satisfies, or the unsat paths that
    /// witness a conflict (0 when the solve claimed nothing).
    pub certified: u64,
    /// Units quarantined after an analysis panic; always 0 (the unit
    /// driver that set it is gone), kept for wire stability.
    pub quarantined: u64,
    /// The daemon answered from its report memo, without a fresh
    /// analysis.
    pub warm: bool,
    /// Units served from the cache. The daemon runs the whole-program
    /// engine, not units, and always sends 0.
    pub reused: u64,
    /// Units analyzed fresh; 0 from the daemon, like `reused`.
    pub analyzed: u64,
}

/// One frame, decoded.
#[derive(Debug)]
pub enum Frame {
    /// Client → daemon: drain and stop; the daemon acks with the same
    /// frame.
    Shutdown,
    /// Client → daemon: analyze this source (memoized results allowed).
    Analyze(Box<AnalyzeReq>),
    /// Client → daemon: analyze afresh, replacing any memoized result.
    Reanalyze(Box<AnalyzeReq>),
    /// Client → daemon: query one position of the resident report.
    QueryQual {
        /// Owning function name.
        function: String,
        /// Parameter index, when querying a parameter position.
        param: Option<u32>,
        /// Pointer depth of the qualified level.
        level: u32,
    },
    /// Client → daemon: render the resident report's diagnostics.
    Explain,
    /// Client → daemon: snapshot the daemon's counters.
    Stats,
    /// Daemon → client: a complete analysis result.
    Report(Box<ReportFrame>),
    /// Daemon → client: one position's classification.
    QualReply {
        /// The resident report lists this position.
        found: bool,
        /// Class tag: 0 must-const, 1 must-not-const, 2 either.
        class: u8,
        /// The qualifier was declared in the source.
        declared: bool,
        /// The position's rendered label (empty when not found).
        label: String,
    },
    /// Daemon → client: rendered explanation text.
    ExplainReply {
        /// Concatenated rendered diagnostics (empty when clean).
        text: String,
    },
    /// Daemon → client: counter snapshot.
    StatsReply {
        /// Name/value pairs in a fixed, deterministic order.
        pairs: Vec<(String, u64)>,
    },
    /// Daemon → client: load shed — retry later or fall back.
    Overloaded {
        /// Suggested client back-off before retrying, in ms.
        retry_after_ms: u64,
        /// Queued requests at shed time.
        queue_depth: u32,
        /// Requests being analyzed at shed time.
        inflight: u32,
    },
    /// Daemon → client: the request failed; the message says why.
    ErrorReply {
        /// Rendered error message.
        message: String,
    },
}

const KIND_SHUTDOWN: u32 = 3;
const KIND_ANALYZE: u32 = 7;
const KIND_REANALYZE: u32 = 8;
const KIND_QUERY_QUAL: u32 = 9;
const KIND_EXPLAIN: u32 = 10;
const KIND_STATS: u32 = 11;
const KIND_REPORT: u32 = 12;
const KIND_QUAL_REPLY: u32 = 13;
const KIND_EXPLAIN_REPLY: u32 = 14;
const KIND_STATS_REPLY: u32 = 15;
const KIND_OVERLOADED: u32 = 16;
const KIND_ERROR_REPLY: u32 = 17;

fn put_mode(w: &mut Writer, mode: Mode) {
    w.u8(match mode {
        Mode::Monomorphic => 0,
        Mode::Polymorphic => 1,
        Mode::PolymorphicRecursive => 2,
    });
}

fn get_mode(r: &mut Reader<'_>) -> Result<Mode, WireError> {
    match r.u8()? {
        0 => Ok(Mode::Monomorphic),
        1 => Ok(Mode::Polymorphic),
        2 => Ok(Mode::PolymorphicRecursive),
        m => Err(WireError::Invalid { field: "mode tag", value: m.into() }),
    }
}

/// Wire tag for a position class (0 = must, 1 = must-not, 2 = either).
#[must_use]
pub fn class_to_tag(class: PositionClass) -> u8 {
    match class {
        PositionClass::MustConst => 0,
        PositionClass::MustNotConst => 1,
        PositionClass::Either => 2,
    }
}

/// Inverse of [`class_to_tag`]; `None` for an unknown tag.
#[must_use]
pub fn class_from_tag(tag: u8) -> Option<PositionClass> {
    match tag {
        0 => Some(PositionClass::MustConst),
        1 => Some(PositionClass::MustNotConst),
        2 => Some(PositionClass::Either),
        _ => None,
    }
}

/// A position class tag, checked by [`class_from_tag`].
fn get_class(r: &mut Reader<'_>) -> Result<u8, WireError> {
    let tag = r.u8()?;
    match class_from_tag(tag) {
        Some(_) => Ok(tag),
        None => Err(WireError::Invalid { field: "position class tag", value: tag.into() }),
    }
}

fn get_param(r: &mut Reader<'_>) -> Result<Option<u32>, WireError> {
    r.opt_u64()?
        .map(|v| {
            u32::try_from(v).map_err(|_| WireError::Invalid { field: "parameter index", value: v })
        })
        .transpose()
}

fn put_analyze_req(w: &mut Writer, req: &AnalyzeReq) {
    w.u32(req.version);
    w.str(&req.src);
    put_mode(w, req.mode);
    w.str(&req.quals);
    w.bool(req.verify);
    w.opt_u64(req.deadline_ms);
}

fn get_analyze_req(r: &mut Reader<'_>) -> Result<AnalyzeReq, WireError> {
    Ok(AnalyzeReq {
        version: r.u32()?,
        src: r.str()?,
        mode: get_mode(r)?,
        quals: r.str()?,
        verify: r.bool()?,
        deadline_ms: r.opt_u64()?,
    })
}

/// Bytes an encoded [`AnalyzeReq`] spends besides its source and
/// qualifier list: version, two length prefixes, mode, verify flag and
/// optional deadline.
const ANALYZE_REQ_FIXED: usize = 4 + 8 + 1 + 8 + 1 + 9;

fn encode_payload(frame: &Frame) -> (u32, Vec<u8>) {
    let mut w = match frame {
        // The source is nearly all of the frame: size it once rather
        // than regrow a buffer of hundreds of kilobytes.
        Frame::Analyze(req) | Frame::Reanalyze(req) => {
            Writer::with_capacity(ANALYZE_REQ_FIXED + req.src.len() + req.quals.len())
        }
        _ => Writer::new(),
    };
    let kind = match frame {
        Frame::Shutdown => KIND_SHUTDOWN,
        Frame::Analyze(req) => {
            put_analyze_req(&mut w, req);
            KIND_ANALYZE
        }
        Frame::Reanalyze(req) => {
            put_analyze_req(&mut w, req);
            KIND_REANALYZE
        }
        Frame::QueryQual { function, param, level } => {
            w.str(function);
            w.opt_u64(param.map(u64::from));
            w.u32(*level);
            KIND_QUERY_QUAL
        }
        Frame::Explain => KIND_EXPLAIN,
        Frame::Stats => KIND_STATS,
        Frame::Report(rep) => {
            put_mode(&mut w, rep.mode);
            w.bool(rep.verify);
            match rep.counts {
                Some([t, d, i]) => {
                    w.bool(true);
                    w.u64(t);
                    w.u64(d);
                    w.u64(i);
                }
                None => w.bool(false),
            }
            w.len_prefix(rep.qual_counts.len());
            for (name, may, must) in &rep.qual_counts {
                w.str(name);
                w.u64(*may);
                w.u64(*must);
            }
            w.len_prefix(rep.positions.len());
            for p in &rep.positions {
                w.str(&p.function);
                w.opt_u64(p.param.map(u64::from));
                w.u32(p.level);
                w.bool(p.declared);
                w.u8(p.class);
            }
            for list in [&rep.skipped, &rep.cache_notes] {
                w.len_prefix(list.len());
                for s in list {
                    w.str(s);
                }
            }
            w.u64(rep.cert_failures);
            w.u64(rep.certified);
            w.u64(rep.quarantined);
            w.bool(rep.warm);
            w.u64(rep.reused);
            w.u64(rep.analyzed);
            KIND_REPORT
        }
        Frame::QualReply { found, class, declared, label } => {
            w.bool(*found);
            w.u8(*class);
            w.bool(*declared);
            w.str(label);
            KIND_QUAL_REPLY
        }
        Frame::ExplainReply { text } => {
            w.str(text);
            KIND_EXPLAIN_REPLY
        }
        Frame::StatsReply { pairs } => {
            w.len_prefix(pairs.len());
            for (name, value) in pairs {
                w.str(name);
                w.u64(*value);
            }
            KIND_STATS_REPLY
        }
        Frame::Overloaded { retry_after_ms, queue_depth, inflight } => {
            w.u64(*retry_after_ms);
            w.u32(*queue_depth);
            w.u32(*inflight);
            KIND_OVERLOADED
        }
        Frame::ErrorReply { message } => {
            w.str(message);
            KIND_ERROR_REPLY
        }
    };
    (kind, w.into_bytes())
}

fn decode_payload(kind: u32, payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut r = Reader::new(payload);
    let frame = match kind {
        KIND_SHUTDOWN => Frame::Shutdown,
        KIND_ANALYZE => Frame::Analyze(Box::new(get_analyze_req(&mut r)?)),
        KIND_REANALYZE => Frame::Reanalyze(Box::new(get_analyze_req(&mut r)?)),
        KIND_QUERY_QUAL => Frame::QueryQual {
            function: r.str()?,
            param: get_param(&mut r)?,
            level: r.u32()?,
        },
        KIND_EXPLAIN => Frame::Explain,
        KIND_STATS => Frame::Stats,
        KIND_REPORT => {
            let mode = get_mode(&mut r)?;
            let verify = r.bool()?;
            let counts = if r.bool()? {
                Some([r.u64()?, r.u64()?, r.u64()?])
            } else {
                None
            };
            let mut qual_counts = Vec::new();
            for _ in 0..r.len_prefix()? {
                qual_counts.push((r.str()?, r.u64()?, r.u64()?));
            }
            let mut positions = Vec::new();
            for _ in 0..r.len_prefix()? {
                positions.push(WirePosition {
                    function: r.str()?,
                    param: get_param(&mut r)?,
                    level: r.u32()?,
                    declared: r.bool()?,
                    class: get_class(&mut r)?,
                });
            }
            let mut lists = [Vec::new(), Vec::new()];
            for list in &mut lists {
                for _ in 0..r.len_prefix()? {
                    list.push(r.str()?);
                }
            }
            let [skipped, cache_notes] = lists;
            Frame::Report(Box::new(ReportFrame {
                mode,
                verify,
                counts,
                qual_counts,
                positions,
                skipped,
                cache_notes,
                cert_failures: r.u64()?,
                certified: r.u64()?,
                quarantined: r.u64()?,
                warm: r.bool()?,
                reused: r.u64()?,
                analyzed: r.u64()?,
            }))
        }
        KIND_QUAL_REPLY => Frame::QualReply {
            found: r.bool()?,
            class: get_class(&mut r)?,
            declared: r.bool()?,
            label: r.str()?,
        },
        KIND_EXPLAIN_REPLY => Frame::ExplainReply { text: r.str()? },
        KIND_STATS_REPLY => {
            let mut pairs = Vec::new();
            for _ in 0..r.len_prefix()? {
                pairs.push((r.str()?, r.u64()?));
            }
            Frame::StatsReply { pairs }
        }
        KIND_OVERLOADED => Frame::Overloaded {
            retry_after_ms: r.u64()?,
            queue_depth: r.u32()?,
            inflight: r.u32()?,
        },
        KIND_ERROR_REPLY => Frame::ErrorReply { message: r.str()? },
        k => return Err(ProtoError::Malformed(format!("unknown frame kind {k}"))),
    };
    r.finish()?;
    Ok(frame)
}

/// Writes one frame.
///
/// # Errors
///
/// Socket I/O failure, or an injected `proto.write` fault.
///
/// # Panics
///
/// When the installed fault plan arms a `panic` at `proto.write` —
/// that is the simulated fault; supervisors contain it.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), ProtoError> {
    let (kind, mut payload) = encode_payload(frame);
    // Checksum describes what the writer *means* to send; an injected
    // `garbage` fault below corrupts the bytes after checksumming,
    // exactly like bit rot on the socket, so the reader must reject.
    let checksum = wire::checksum(&kind.to_le_bytes(), &payload);
    match qual_faultpoint::hit("proto.write") {
        Some(qual_faultpoint::FaultKind::Io | qual_faultpoint::FaultKind::ShortWrite) => {
            return Err(ProtoError::Io(std::io::Error::other(
                "injected fault at proto.write",
            )));
        }
        Some(qual_faultpoint::FaultKind::Panic) => {
            panic!("injected panic at proto.write")
        }
        Some(qual_faultpoint::FaultKind::Garbage) => {
            for (i, b) in payload.iter_mut().enumerate() {
                if i % 5 == 2 {
                    *b ^= 0x5a;
                }
            }
            if payload.is_empty() {
                // Nothing to garble in the payload: corrupt the header
                // checksum itself instead so the fault always bites.
                return write_raw(w, kind, checksum ^ 0x5a5a, &payload);
            }
        }
        Some(qual_faultpoint::FaultKind::DiskFull) => {
            return Err(ProtoError::Io(std::io::Error::other(
                "injected disk full at proto.write (ENOSPC)",
            )));
        }
        _ => {}
    }
    // Environment machine: a socket/pipe write can hit ENOSPC too when
    // the transport is file-backed; charge the whole frame.
    if qual_faultpoint::charge_disk("proto.write", (HEADER + payload.len()) as u64)
        .is_some()
    {
        return Err(ProtoError::Io(std::io::Error::other(
            "injected disk full at proto.write (ENOSPC)",
        )));
    }
    write_raw(w, kind, checksum, &payload)
}

fn write_raw(
    w: &mut impl Write,
    kind: u32,
    checksum: u64,
    payload: &[u8],
) -> Result<(), ProtoError> {
    let mut header = Writer::with_capacity(HEADER);
    header.bytes(MAGIC);
    header.u32(kind);
    header.len_prefix(payload.len());
    header.u64(checksum);
    w.write_all(&header.into_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, verifying magic, size bound, and checksum.
///
/// # Errors
///
/// Socket I/O failure (including clean EOF, which is `Io` with
/// `UnexpectedEof`), a malformed or corrupted frame, or an injected
/// `proto.read` fault.
///
/// # Panics
///
/// When the installed fault plan arms a `panic` at `proto.read`.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtoError> {
    let fault = qual_faultpoint::hit("proto.read");
    match fault {
        Some(qual_faultpoint::FaultKind::Io | qual_faultpoint::FaultKind::ShortWrite) => {
            return Err(ProtoError::Io(std::io::Error::other(
                "injected fault at proto.read",
            )));
        }
        Some(qual_faultpoint::FaultKind::Panic) => {
            panic!("injected panic at proto.read")
        }
        _ => {}
    }
    let mut header = [0u8; HEADER];
    r.read_exact(&mut header)?;
    let mut h = Reader::new(&header);
    if h.bytes(MAGIC.len())? != MAGIC {
        return Err(ProtoError::Malformed("bad frame magic".to_owned()));
    }
    let (kind, len, checksum) = (h.u32()?, h.u64()?, h.u64()?);
    if len > MAX_FRAME {
        return Err(ProtoError::Malformed(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte bound"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if fault == Some(qual_faultpoint::FaultKind::Garbage) {
        // Simulated bit rot between the peer's write and our read: the
        // checksum below must catch it, empty payloads included.
        if payload.is_empty() {
            return Err(ProtoError::Malformed(
                "frame failed its checksum".to_owned(),
            ));
        }
        for (i, b) in payload.iter_mut().enumerate() {
            if i % 5 == 2 {
                *b ^= 0x5a;
            }
        }
    }
    if wire::checksum(&kind.to_le_bytes(), &payload) != checksum {
        return Err(ProtoError::Malformed(
            "frame failed its checksum".to_owned(),
        ));
    }
    decode_payload(kind, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).expect("write");
        read_frame(&mut buf.as_slice()).expect("read")
    }

    fn sample_query() -> Frame {
        Frame::QueryQual {
            function: "strcat".to_owned(),
            param: Some(1),
            level: 1,
        }
    }

    #[test]
    fn control_frames_round_trip() {
        assert!(matches!(round_trip(&Frame::Shutdown), Frame::Shutdown));
        assert!(matches!(round_trip(&Frame::Stats), Frame::Stats));
        assert!(matches!(round_trip(&Frame::Explain), Frame::Explain));
    }

    #[test]
    fn corruption_is_rejected_never_trusted() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample_query()).unwrap();
        // Flip every byte in turn; reading must error (or, for bytes in
        // the length field that shrink the frame, error on truncation)
        // — never panic, never return a wrong frame silently.
        for i in 0..buf.len() {
            let mut b = buf.clone();
            b[i] ^= 0x5a;
            match read_frame(&mut b.as_slice()) {
                Err(_) => {}
                Ok(other) => panic!("flipped byte {i} decoded as {other:?}"),
            }
        }
        // Truncation at every length is detected too.
        for cut in 0..buf.len() {
            assert!(read_frame(&mut &buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_is_bounded_not_allocated() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&KIND_STATS.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        match read_frame(&mut buf.as_slice()) {
            Err(ProtoError::Malformed(m)) => assert!(m.contains("bound"), "{m}"),
            other => panic!("oversized frame must be rejected: {other:?}"),
        }
    }

    #[test]
    fn back_to_back_frames_stream_cleanly() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Stats).unwrap();
        write_frame(&mut buf, &sample_query()).unwrap();
        write_frame(&mut buf, &Frame::Shutdown).unwrap();
        let mut r = buf.as_slice();
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::Stats));
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::QueryQual { .. }));
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::Shutdown));
        assert!(r.is_empty());
    }

    fn sample_report() -> ReportFrame {
        ReportFrame {
            mode: Mode::Polymorphic,
            verify: true,
            counts: Some([5, 2, 3]),
            qual_counts: vec![
                ("const".to_owned(), 3, 1),
                ("tainted".to_owned(), 2, 0),
            ],
            positions: vec![
                WirePosition {
                    function: "strlen".to_owned(),
                    param: Some(0),
                    level: 1,
                    declared: true,
                    class: 0,
                },
                WirePosition {
                    function: "g".to_owned(),
                    param: None,
                    level: 2,
                    declared: false,
                    class: 2,
                },
            ],
            skipped: vec!["warning: skipped region\n".to_owned()],
            cache_notes: vec!["cache: note\n".to_owned()],
            cert_failures: 0,
            certified: 41,
            quarantined: 0,
            warm: true,
            reused: 3,
            analyzed: 0,
        }
    }

    fn sample_analyze() -> AnalyzeReq {
        AnalyzeReq {
            version: PROTO_VERSION,
            src: "int f(char *p) { return *p; }".to_owned(),
            mode: Mode::PolymorphicRecursive,
            quals: "tainted".to_owned(),
            verify: true,
            deadline_ms: Some(750),
        }
    }

    #[test]
    fn analyze_payloads_fill_their_presized_buffer_exactly() {
        let req = sample_analyze();
        let (_, payload) = encode_payload(&Frame::Analyze(Box::new(req.clone())));
        assert_eq!(
            payload.len(),
            ANALYZE_REQ_FIXED + req.src.len() + req.quals.len()
        );
    }

    /// One representative of every frame kind.
    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Shutdown,
            Frame::Analyze(Box::new(sample_analyze())),
            Frame::Reanalyze(Box::new(sample_analyze())),
            sample_query(),
            Frame::Explain,
            Frame::Stats,
            Frame::Report(Box::new(sample_report())),
            Frame::QualReply {
                found: true,
                class: 1,
                declared: false,
                label: "strcat arg 2 level 1".to_owned(),
            },
            Frame::ExplainReply { text: "all clean\n".to_owned() },
            Frame::StatsReply {
                pairs: vec![("serve.requests".to_owned(), 12), ("serve.shed".to_owned(), 1)],
            },
            Frame::Overloaded { retry_after_ms: 125, queue_depth: 8, inflight: 2 },
            Frame::ErrorReply { message: "unsupported version".to_owned() },
        ]
    }

    #[test]
    fn server_frames_round_trip_every_field() {
        match round_trip(&Frame::Analyze(Box::new(sample_analyze()))) {
            Frame::Analyze(back) => assert_eq!(*back, sample_analyze()),
            other => panic!("wrong frame: {other:?}"),
        }
        match round_trip(&Frame::Report(Box::new(sample_report()))) {
            Frame::Report(back) => assert_eq!(*back, sample_report()),
            other => panic!("wrong frame: {other:?}"),
        }
        match round_trip(&Frame::Overloaded {
            retry_after_ms: 40,
            queue_depth: 3,
            inflight: 1,
        }) {
            Frame::Overloaded { retry_after_ms, queue_depth, inflight } => {
                assert_eq!((retry_after_ms, queue_depth, inflight), (40, 3, 1));
            }
            other => panic!("wrong frame: {other:?}"),
        }
        // The rest round-trip debug-identically (Frame derives only
        // Debug, which prints every field).
        for frame in sample_frames() {
            let back = round_trip(&frame);
            assert_eq!(format!("{back:?}"), format!("{frame:?}"));
        }
    }

    #[test]
    fn server_frame_corruption_is_rejected_never_trusted() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Report(Box::new(sample_report()))).unwrap();
        for i in 0..buf.len() {
            let mut b = buf.clone();
            b[i] ^= 0x5a;
            assert!(
                read_frame(&mut b.as_slice()).is_err(),
                "flipped byte {i} survived the checksum"
            );
        }
        for cut in 0..buf.len() {
            assert!(read_frame(&mut &buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// Writes `payload` as a `kind` frame under a valid checksum, so
    /// only the payload decoder stands between it and the reader.
    fn forge(kind: u32, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_raw(&mut buf, kind, wire::checksum(&kind.to_le_bytes(), payload), payload)
            .unwrap();
        buf
    }

    #[test]
    fn non_canonical_tags_are_rejected() {
        // A position class tag outside 0..=2.
        let mut report = sample_report();
        report.positions[0].class = 3;
        let (kind, payload) = encode_payload(&Frame::Report(Box::new(report)));
        match read_frame(&mut forge(kind, &payload).as_slice()) {
            Err(ProtoError::Malformed(m)) => assert!(m.contains("class tag 3"), "{m}"),
            other => panic!("class 3 must be rejected: {other:?}"),
        }
        // A bool byte other than 0 or 1 (`found` leads the payload).
        let (kind, mut payload) = encode_payload(&Frame::QualReply {
            found: true,
            class: 1,
            declared: false,
            label: String::new(),
        });
        payload[0] = 2;
        match read_frame(&mut forge(kind, &payload).as_slice()) {
            Err(ProtoError::Malformed(m)) => assert!(m.contains("bool byte 2"), "{m}"),
            other => panic!("found = 2 must be rejected: {other:?}"),
        }
    }

    #[test]
    fn report_element_counts_are_bounded_by_payload_size() {
        // A forged Report claiming 2^40 positions must be rejected by
        // the count-vs-remaining-bytes guard, not attempted.
        let mut w = Writer::new();
        put_mode(&mut w, Mode::Monomorphic);
        w.bool(false); // verify
        w.bool(false); // counts absent
        w.u64(1 << 40); // position count: absurd
        match read_frame(&mut forge(KIND_REPORT, &w.into_bytes()).as_slice()) {
            Err(ProtoError::Malformed(m)) => {
                assert!(m.contains("element count"), "{m}");
            }
            other => panic!("forged count must be rejected: {other:?}"),
        }
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let (kind, mut payload) = encode_payload(&sample_query());
        payload.push(0);
        for (kind, payload) in [(kind, payload), (KIND_STATS, vec![0, 0])] {
            match read_frame(&mut forge(kind, &payload).as_slice()) {
                Err(ProtoError::Malformed(m)) => assert!(m.contains("trailing byte"), "{m}"),
                other => panic!("kind {kind}: trailing bytes must be rejected: {other:?}"),
            }
        }
    }

    /// A reader that refuses to cross `cut` in a single `read` call:
    /// the first calls return bytes strictly before the cut, later
    /// calls the rest — exactly a socket delivering a frame in two
    /// chunks.
    struct Chunked<'a> {
        data: &'a [u8],
        cut: usize,
        pos: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let end = if self.pos < self.cut { self.cut } else { self.data.len() };
            let n = out.len().min(end - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn every_frame_reassembles_when_split_at_every_byte_boundary() {
        for frame in sample_frames() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).expect("write");
            let want = format!("{frame:?}");
            for cut in 0..=buf.len() {
                let mut r = Chunked { data: &buf, cut, pos: 0 };
                let back = read_frame(&mut r)
                    .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
                assert_eq!(format!("{back:?}"), want, "cut at {cut}");
            }
        }
    }

    #[test]
    fn injected_garbage_on_the_wire_is_detected() {
        let _g = qual_faultpoint::test_lock();
        qual_faultpoint::install(
            qual_faultpoint::FaultPlan::parse("proto.write@1=garbage").unwrap(),
        );
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample_query()).unwrap();
        qual_faultpoint::clear();
        assert!(
            read_frame(&mut buf.as_slice()).is_err(),
            "garbled payload must fail its checksum"
        );
    }
}
