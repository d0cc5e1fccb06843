//! Golden bytes for the binary formats this crate puts on the wire and
//! on disk: QSP1 frames (`proto`), QINC cache containers (`cache`) and
//! the unit summaries those containers carry
//! (`qual_constinfer::summary`). The round-trip and corruption suites
//! only prove that what
//! is written can be read back and that a flipped byte is caught; they
//! would still pass after a renumbered kind, a reordered field or a
//! changed checksum. These literals pin the exact bytes, so any such
//! change breaks compatibility with deployed clients, daemons and
//! caches loudly, here.

use qual_constinfer::summary::{
    decode_summary, encode_summary, CanonConstraint, CanonPosition, CanonQual, CanonScheme,
    CanonVar, CertBits, UnitSummary,
};
use qual_constinfer::Mode;
use qual_incr::cache::{self, KeyHasher, Load, RetryPolicy};
use qual_incr::proto::{
    self, AnalyzeReq, Frame, ProtoError, ReportFrame, WirePosition, PROTO_VERSION,
};
use qual_solve::{Diagnostic, Phase};

// "QSP1", kind 3, payload length 0, checksum
const SHUTDOWN: &str = "51535031_03000000_0000000000000000_469dde777a34ab49";

// "QSP1", kind 11, payload length 0, checksum
const STATS: &str = "51535031_0b000000_0000000000000000_ce62504e7d51c7f3";

const QUERY_QUAL: &str = concat!(
    // "QSP1", kind 9, payload length 27, checksum
    "51535031_09000000_1b00000000000000_039a7949d21b82f9",
    // "strcat", parameter 1, level 1
    "060000000000000073747263617401010000000000000001",
    "000000",
);

const ANALYZE: &str = concat!(
    // "QSP1", kind 7, payload length 65, checksum
    "51535031_07000000_4100000000000000_35ef96a1a0b1240e",
    // version 4, source, mono, "const", verify, deadline 750 ms
    "040000001d00000000000000696e7420662863686172202a",
    "7029207b2072657475726e202a703b207d00050000000000",
    "0000636f6e73740101ee02000000000000",
);

const REANALYZE: &str = concat!(
    // "QSP1", kind 8, payload length 48, checksum
    "51535031_08000000_3000000000000000_2f84d5c43cfff04d",
    // version 4, "int g(void);", poly, "const,tainted", no verify, no deadline
    "040000000c00000000000000696e74206728766f6964293b",
    "010d00000000000000636f6e73742c7461696e7465640000",
);

// "QSP1", kind 10, payload length 0, checksum
const EXPLAIN: &str = "51535031_0a000000_0000000000000000_7f9b1ea91dd50ae9";

const REPORT: &str = concat!(
    // "QSP1", kind 12, payload length 250, checksum
    "51535031_0c000000_fa00000000000000_3d77a459f81db0fd",
    // polyrec, verify, counts [5, 2, 1], qualifier rows const 3/1 and
    // tainted 2/0, positions strlen arg 0 level 1 (declared, class 0)
    // and g return level 0 (class 2), one skipped string, one cache
    // note, 0 cert failures, 41 certified, 0 quarantined, warm,
    // 3 reused, 1 analyzed
    "020101050000000000000002000000000000000100000000",
    "00000002000000000000000500000000000000636f6e7374",
    "030000000000000001000000000000000700000000000000",
    "7461696e7465640200000000000000000000000000000002",
    "0000000000000006000000000000007374726c656e010000",
    "000000000000010000000100010000000000000067000000",
    "00000002010000000000000011000000000000007761726e",
    "696e673a20736b69707065640a01000000000000000c0000",
    "000000000063616368653a206e6f74650a00000000000000",
    "002900000000000000000000000000000001030000000000",
    "00000100000000000000",
);

const QUAL_REPLY: &str = concat!(
    // "QSP1", kind 13, payload length 31, checksum
    "51535031_0d000000_1f00000000000000_e1ade9403c84b545",
    // found, class 1, not declared, "strcat arg 2 level 1"
    "010100140000000000000073747263617420617267203220",
    "6c6576656c2031",
);

const EXPLAIN_REPLY: &str = concat!(
    // "QSP1", kind 14, payload length 18, checksum
    "51535031_0e000000_1200000000000000_ffd67b152acc34b2",
    // "all clean\n"
    "0a00000000000000616c6c20636c65616e0a",
);

const STATS_REPLY: &str = concat!(
    // "QSP1", kind 15, payload length 64, checksum
    "51535031_0f000000_4000000000000000_95c28d6cb6c79f75",
    // serve.requests = 12, serve.shed = 1
    "02000000000000000e0000000000000073657276652e7265",
    "7175657374730c000000000000000a000000000000007365",
    "7276652e736865640100000000000000",
);

const OVERLOADED: &str = concat!(
    // "QSP1", kind 16, payload length 16, checksum
    "51535031_10000000_1000000000000000_e2eb10a3d25c5f13",
    // retry after 125 ms, queue depth 8, 2 in flight
    "7d000000000000000800000002000000",
);

const ERROR_REPLY: &str = concat!(
    // "QSP1", kind 17, payload length 27, checksum
    "51535031_11000000_1b00000000000000_fb35f6d1f179acec",
    // "unsupported version"
    "1300000000000000756e737570706f727465642076657273",
    "696f6e",
);

/// The payload of a QINC entry: [`golden_summary`], encoded.
const SUMMARY: &str = concat!(
    // members [f, h]; failed [h]; constraints Iface f.0 <= Local 0,
    // Global g.1 <= Field s.p.0, Const 1 <= Local 1; scheme f with
    // bound [Local 0] and one constraint; positions f arg 0 level 1
    // (declared) and f return level 0; one infer error at 4..8 in h;
    // certificate least [1, 0], greatest [1, 1]
    "020000000000000001000000000000006601000000000000",
    "006801000000000000000100000000000000680300000000",
    "000000000001000000000000006600000000000300000000",
    "010000000000000003000000090000000a00000000000000",
    "61737369676e6d656e740001010000000000000067010000",
    "000002010000000000000073010000000000000070000000",
    "0001000000000000000a0000000c00000005000000000000",
    "006669656c64010100000000000000000301000000010000",
    "000000000000000000000000000800000000000000646563",
    "6c6172656401000000000000000100000000000000660100",
    "000000000000030000000001000000000000000000010000",
    "000000000066000000000003000000000100000000000000",
    "0300000009000000040000000000000063616c6c02000000",
    "000000000100000000000000660100000000010000000100",
    "000100000000000000660000000001000000000000006600",
    "000000000001000000000000000001000000000000000103",
    "010400000008000000010100000000000000681400000000",
    "000000776f726b2062756467657420657863656564656401",
    "020000000000000001000000000000000100000000000000",
    "00000000000000000100000000000000",
);

/// Frames of the retired multi-process driver, as the last release
/// that spoke them wrote them: Hello, Exec, Ready, Heartbeat, Done.
const RETIRED: &[(u32, &str)] = &[
    (
        1,
        concat!(
            "51535031_01000000_5e00000000000000_3defdfee825ca234",
            "030000000c00000000000000696e74206728766f6964293b",
            "000500000000000000636f6e737400010900000000000000",
            "080000000000000007000000000000000000010000000600",
            "00000000000028000000000000000000000000000000",
        ),
    ),
    (
        2,
        concat!(
            "51535031_02000000_3d00000000000000_5bc28279aab124b4",
            "020000003100000000000000000000000000000000000000",
            "000000000000000000000000000000000000000000000000",
            "00000000000000000000000000",
        ),
    ),
    (
        4,
        concat!(
            "51535031_04000000_0c00000000000000_4615984311928e8f",
            "04000000edfe000000000000",
        ),
    ),
    (5, "51535031_05000000_0000000000000000_20490957b81e168a"),
    (
        6,
        concat!(
            "51535031_06000000_4a00000000000000_268d29cf5c0bb247",
            "010000000000010000000000000000000031000000000000",
            "000000000000000000000000000000000000000000000000",
            "000000000000000000000000000000000000000000000000",
            "0000",
        ),
    ),
];

const QINC_KEY: &str = "f3864dd6ae5dd2660812fe803740bded";

// A 4 KiB string, then `QINC_KEY` chained in: pins the hasher's byte
// loop on an input far longer than a header field.
const LONG_KEY: &str = "cb46479c13d5022dc18040a2ece20e68";

const QINC: &str = concat!(
    // "QINC", format version 4, generation 7, payload length 13, checksum
    "51494e43_04000000_0700000000000000_0d00000000000000_217a4750288bf9a8",
    // "fixed payload"
    "6669786564207061796c6f6164",
);

/// The golden literals separate header fields with `_`.
fn unhex(s: &str) -> Vec<u8> {
    let s = s.replace('_', "");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex literal"))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Asserts that `frame` encodes to `golden` and that `golden` decodes
/// back to `frame`.
fn check_frame(frame: &Frame, golden: &str) {
    let mut buf = Vec::new();
    proto::write_frame(&mut buf, frame).expect("write");
    assert_eq!(
        hex(&buf),
        golden.replace('_', ""),
        "{frame:?} encodes differently"
    );
    let back = proto::read_frame(&mut unhex(golden).as_slice()).expect("read");
    assert_eq!(format!("{back:?}"), format!("{frame:?}"));
}

#[test]
fn served_frames_match_their_golden_bytes() {
    let frames = [
        (Frame::Shutdown, SHUTDOWN),
        (Frame::Stats, STATS),
        (
            Frame::QueryQual {
                function: "strcat".to_owned(),
                param: Some(1),
                level: 1,
            },
            QUERY_QUAL,
        ),
        (
            Frame::Analyze(Box::new(AnalyzeReq {
                version: PROTO_VERSION,
                src: "int f(char *p) { return *p; }".to_owned(),
                mode: Mode::Monomorphic,
                quals: "const".to_owned(),
                verify: true,
                deadline_ms: Some(750),
            })),
            ANALYZE,
        ),
    ];
    assert_eq!(PROTO_VERSION, 4);
    for (frame, golden) in frames {
        check_frame(&frame, golden);
    }
}

#[test]
fn every_other_frame_kind_matches_its_golden_bytes() {
    let report = ReportFrame {
        mode: Mode::PolymorphicRecursive,
        verify: true,
        counts: Some([5, 2, 1]),
        qual_counts: vec![("const".to_owned(), 3, 1), ("tainted".to_owned(), 2, 0)],
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
                level: 0,
                declared: false,
                class: 2,
            },
        ],
        skipped: vec!["warning: skipped\n".to_owned()],
        cache_notes: vec!["cache: note\n".to_owned()],
        cert_failures: 0,
        certified: 41,
        quarantined: 0,
        warm: true,
        reused: 3,
        analyzed: 1,
    };
    let frames = [
        (
            Frame::Reanalyze(Box::new(AnalyzeReq {
                version: PROTO_VERSION,
                src: "int g(void);".to_owned(),
                mode: Mode::Polymorphic,
                quals: "const,tainted".to_owned(),
                verify: false,
                deadline_ms: None,
            })),
            REANALYZE,
        ),
        (Frame::Explain, EXPLAIN),
        (Frame::Report(Box::new(report)), REPORT),
        (
            Frame::QualReply {
                found: true,
                class: 1,
                declared: false,
                label: "strcat arg 2 level 1".to_owned(),
            },
            QUAL_REPLY,
        ),
        (Frame::ExplainReply { text: "all clean\n".to_owned() }, EXPLAIN_REPLY),
        (
            Frame::StatsReply {
                pairs: vec![
                    ("serve.requests".to_owned(), 12),
                    ("serve.shed".to_owned(), 1),
                ],
            },
            STATS_REPLY,
        ),
        (
            Frame::Overloaded { retry_after_ms: 125, queue_depth: 8, inflight: 2 },
            OVERLOADED,
        ),
        (
            Frame::ErrorReply { message: "unsupported version".to_owned() },
            ERROR_REPLY,
        ),
    ];
    for (frame, golden) in frames {
        check_frame(&frame, golden);
    }
}

/// A hand-built summary touching every encoded shape: all four
/// canonical variable tags, a constant, a scheme, positions with and
/// without a parameter, a diagnostic with span and function, and a
/// certificate.
fn golden_summary() -> UnitSummary {
    let iface = CanonVar::Iface { func: "f".to_owned(), idx: 0 };
    let c = |lhs, rhs, lo, hi, what: &str| CanonConstraint {
        lhs,
        rhs,
        mask: 1,
        lo,
        hi,
        what: what.to_owned(),
    };
    UnitSummary {
        members: vec!["f".to_owned(), "h".to_owned()],
        failed: vec!["h".to_owned()],
        constraints: vec![
            c(
                CanonQual::Var(iface.clone()),
                CanonQual::Var(CanonVar::Local(0)),
                3,
                9,
                "assignment",
            ),
            c(
                CanonQual::Var(CanonVar::Global { name: "g".to_owned(), idx: 1 }),
                CanonQual::Var(CanonVar::Field {
                    tag: "s".to_owned(),
                    field: "p".to_owned(),
                    idx: 0,
                }),
                10,
                12,
                "field",
            ),
            c(CanonQual::Const(1), CanonQual::Var(CanonVar::Local(1)), 0, 0, "declared"),
        ],
        schemes: vec![CanonScheme {
            func: "f".to_owned(),
            bound: vec![CanonVar::Local(0)],
            constraints: vec![c(
                CanonQual::Var(iface.clone()),
                CanonQual::Var(CanonVar::Local(0)),
                3,
                9,
                "call",
            )],
        }],
        positions: vec![
            CanonPosition {
                function: "f".to_owned(),
                param: Some(0),
                level: 1,
                declared: true,
                var: CanonQual::Var(iface),
            },
            CanonPosition {
                function: "f".to_owned(),
                param: None,
                level: 0,
                declared: false,
                var: CanonQual::Const(0),
            },
        ],
        diagnostics: vec![Diagnostic::error(Phase::Infer, "work budget exceeded")
            .with_span(4, 8)
            .with_function("h")],
        cert: Some(CertBits { least: vec![1, 0], greatest: vec![1, 1] }),
    }
}

#[test]
fn unit_summary_matches_its_golden_bytes() {
    let summary = golden_summary();
    assert_eq!(hex(&encode_summary(&summary)), SUMMARY);
    assert_eq!(decode_summary(&unhex(SUMMARY)).expect("decode"), summary);
}

#[test]
fn retired_worker_kinds_decode_as_malformed() {
    for &(kind, golden) in RETIRED {
        match proto::read_frame(&mut unhex(golden).as_slice()) {
            Err(ProtoError::Malformed(m)) => {
                assert_eq!(m, format!("unknown frame kind {kind}"));
            }
            other => panic!("kind {kind} must be malformed: {other:?}"),
        }
    }
}

#[test]
fn qinc_container_matches_its_golden_bytes() {
    let mut h = KeyHasher::new();
    h.str("wire golden");
    h.u64(7);
    h.bool(true);
    let key = h.finish();
    assert_eq!(key.hex(), QINC_KEY);
    let long: String = (0..4096u32)
        .map(|i| char::from(b'a' + (i * 7 % 26) as u8))
        .collect();
    let mut h = KeyHasher::new();
    h.str(&long);
    h.key(&key);
    assert_eq!(h.finish().hex(), LONG_KEY);

    let dir = std::env::temp_dir().join(format!("qinc-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cache::store(&dir, &key, b"fixed payload", 7, RetryPolicy::default()).expect("store");
    let bytes = std::fs::read(dir.join(format!("{QINC_KEY}.qinc"))).expect("entry file");
    assert_eq!(hex(&bytes), QINC.replace('_', ""));
    match cache::load(&dir, &key, RetryPolicy::default()).0 {
        Load::Payload { bytes, generation } => {
            assert_eq!(bytes, b"fixed payload");
            assert_eq!(generation, 7);
        }
        other => panic!("golden container must load: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
