//! Golden bytes for the two binary formats this crate puts on the wire
//! and on disk: QSP1 frames (`proto`) and QINC cache containers
//! (`cache`). The round-trip and corruption suites only prove that what
//! is written can be read back and that a flipped byte is caught; they
//! would still pass after a renumbered kind, a reordered field or a
//! changed checksum. These literals pin the exact bytes, so any such
//! change breaks compatibility with deployed clients, daemons and
//! caches loudly, here.

use qual_constinfer::Mode;
use qual_incr::cache::{self, KeyHasher, Load, RetryPolicy};
use qual_incr::proto::{self, AnalyzeReq, Frame, ProtoError, PROTO_VERSION};

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
    "51535031_07000000_4100000000000000_acef780e1db154aa",
    // version 3, source, mono, "const", verify, deadline 750 ms
    "030000001d00000000000000696e7420662863686172202a",
    "7029207b2072657475726e202a703b207d00050000000000",
    "0000636f6e73740101ee02000000000000",
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

const QINC: &str = concat!(
    // "QINC", format version 3, generation 7, payload length 13, checksum
    "51494e43_03000000_0700000000000000_0d00000000000000_217a4750288bf9a8",
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
    assert_eq!(PROTO_VERSION, 3);
    for (frame, golden) in frames {
        let mut buf = Vec::new();
        proto::write_frame(&mut buf, &frame).expect("write");
        assert_eq!(
            hex(&buf),
            golden.replace('_', ""),
            "{frame:?} encodes differently"
        );
        let back = proto::read_frame(&mut unhex(golden).as_slice()).expect("read");
        assert_eq!(format!("{back:?}"), format!("{frame:?}"));
    }
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
