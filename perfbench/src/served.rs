//! Served request phases, timed from a raw-socket client built on
//! `proto::write_frame` and `read_frame`: connect, write, wait for the
//! first reply byte, read the rest.

use std::io::Read;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use qual_incr::proto::{self, Frame, ReportFrame};
use qual_lattice::QualSpace;

use crate::editor::{request, start_and_prime, stop};
use crate::inputs::{Edits, Program};
use crate::oracle::{self, Answer};
use crate::report::Tally;
use crate::trace::Recorder;
use rand::Rng;

use crate::util::{median, stream};

/// Notes the moment the first reply byte arrives.
struct FirstByte<'a> {
    inner: &'a UnixStream,
    at: Option<Instant>,
}

impl Read for FirstByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut s = self.inner;
        let n = s.read(buf)?;
        if n > 0 && self.at.is_none() {
            self.at = Some(Instant::now());
        }
        Ok(n)
    }
}

/// Per-kind phase samples, in ms.
#[derive(Default)]
pub struct Phases {
    pub connect: Vec<f64>,
    pub write: Vec<f64>,
    pub wait: Vec<f64>,
    pub read: Vec<f64>,
}

impl Phases {
    pub fn medians(&self) -> [f64; 4] {
        [
            median(&self.connect),
            median(&self.write),
            median(&self.wait),
            median(&self.read),
        ]
    }
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// One request on a fresh connection, as the library client sends it.
fn roundtrip(
    rec: &mut Recorder,
    socket: &Path,
    kind: &str,
    id: u64,
    frame: &Frame,
    phases: &mut Phases,
) -> Result<Frame, String> {
    let span = rec.enter(&format!("serve.request.{kind}"), Some(id));
    let t0 = Instant::now();
    let result = (|| {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        let t1 = Instant::now();
        let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(120)));
        proto::write_frame(&mut &stream, frame).map_err(|e| format!("write: {e}"))?;
        let t2 = Instant::now();
        let mut reader = FirstByte {
            inner: &stream,
            at: None,
        };
        let reply = proto::read_frame(&mut reader).map_err(|e| format!("read: {e}"))?;
        let t4 = Instant::now();
        let t3 = reader.at.unwrap_or(t4);
        Ok((reply, [t1, t2, t3, t4]))
    })();
    let out = match result {
        Ok((reply, [t1, t2, t3, t4])) => {
            for (name, a, b) in [
                ("connect", t0, t1),
                ("write", t1, t2),
                ("wait", t2, t3),
                ("read", t3, t4),
            ] {
                rec.interval(&format!("serve.{name}"), a, b, Some(id));
            }
            phases.connect.push(ms(t0, t1));
            phases.write.push(ms(t1, t2));
            phases.wait.push(ms(t2, t3));
            phases.read.push(ms(t3, t4));
            Ok(reply)
        }
        Err(e) => Err(e),
    };
    rec.exit(span);
    out
}

/// How many requests of each kind the traced session sends.
pub struct Counts {
    pub leaf: usize,
    pub hub: usize,
    pub query: usize,
    pub reopen: usize,
    pub null: usize,
}

#[derive(Default)]
pub struct Served {
    pub edit: Phases,
    pub query: Phases,
    pub reopen: Phases,
    pub null: Phases,
    pub hit_ratio: Vec<f64>,
    pub dirty_leaf: Vec<f64>,
    pub dirty_hub: Vec<f64>,
    pub warm_hit_ratio: f64,
    pub shed: f64,
    pub errors: f64,
    pub report_bytes: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
}

fn answer_of(reply: Result<Frame, String>) -> Result<(Answer, ReportFrame), String> {
    match reply? {
        Frame::Report(rep) => Ok((oracle::served(&rep)?, *rep)),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// A traced session against a server with `cquald`'s defaults on a
/// fresh cache: prime, then edits, re-opens, queries and Stats probes,
/// each checked against the plain path's reference.
pub fn session(
    rec: &mut Recorder,
    prog: &Program,
    run_dir: &Path,
    seed: u64,
    counts: &Counts,
    tally: &mut Tally,
) -> Served {
    let mut out = Served::default();
    let space = QualSpace::const_only();
    let Ok(reference) = oracle::plain(&crate::cold::plain(&prog.src, &space), &space) else {
        tally.check(false, || format!("{}: no reference", prog.name));
        return out;
    };
    let tag = "traced";
    let prime = rec.enter("serve.start_and_prime", None);
    let started = start_and_prime(run_dir, tag, &prog.src);
    rec.exit(prime);
    let (handle, socket, primed) = match started {
        Ok(s) => s,
        Err(e) => {
            tally.check(false, || e);
            return out;
        }
    };
    tally.check(primed == reference, || {
        "traced prime differs from the reference".into()
    });

    let edits = Edits::new(&prog.src);
    let mut rng = stream(seed, 203);
    let mut id = 0u64;
    let mut last = prog.src.clone();
    let mut report = None;
    let mut kinds: Vec<bool> = (0..counts.leaf)
        .map(|_| false)
        .chain((0..counts.hub).map(|_| true))
        .collect();
    // Seeded interleaving of leaf and hub edits.
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..=i));
    }
    for (n, is_hub) in kinds.into_iter().enumerate() {
        let pool = if is_hub { &edits.hubs } else { &edits.leaves };
        let body = pool[rng.gen_range(0..pool.len())];
        let buf = edits.apply(body, n as u64 + 1);
        id += 1;
        let reply = roundtrip(
            rec,
            &socket,
            "edit",
            id,
            &Frame::Analyze(Box::new(request(&buf))),
            &mut out.edit,
        );
        match answer_of(reply) {
            Ok((a, rep)) => {
                tally.check(a == reference, || {
                    format!("traced edit of {} differs", edits.name(body))
                });
                let units = (rep.reused + rep.analyzed).max(1) as f64;
                out.hit_ratio.push(rep.reused as f64 / units);
                if is_hub {
                    &mut out.dirty_hub
                } else {
                    &mut out.dirty_leaf
                }
                .push(rep.analyzed as f64);
                report = Some(rep);
                last = buf;
            }
            Err(e) => tally.check(false, || format!("traced edit: {e}")),
        }
    }
    for _ in 0..counts.reopen {
        id += 1;
        let reply = roundtrip(
            rec,
            &socket,
            "reopen",
            id,
            &Frame::Analyze(Box::new(request(&last))),
            &mut out.reopen,
        );
        let ok = answer_of(reply).is_ok_and(|(a, rep)| rep.warm && a == reference);
        tally.check(ok, || {
            "traced re-open was not a memo hit equal to the reference".into()
        });
    }
    for _ in 0..counts.query {
        let want = &reference.positions[rng.gen_range(0..reference.positions.len())];
        let frame = Frame::QueryQual {
            function: want.0.clone(),
            param: want.1,
            level: want.2,
        };
        id += 1;
        let reply = roundtrip(rec, &socket, "query", id, &frame, &mut out.query);
        let ok = matches!(reply, Ok(Frame::QualReply { found: true, class, declared, .. })
            if class == want.4 && declared == want.3);
        tally.check(ok, || format!("traced query of {} failed", want.0));
    }
    for _ in 0..counts.null {
        id += 1;
        let reply = roundtrip(rec, &socket, "null", id, &Frame::Stats, &mut out.null);
        tally.check(matches!(reply, Ok(Frame::StatsReply { .. })), || {
            "Stats probe failed".into()
        });
    }

    let stats = handle.stats_snapshot();
    let stat = |k: &str| {
        stats
            .iter()
            .find(|(n, _)| n == k)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    out.warm_hit_ratio = stat("serve.warm_hits") / stat("serve.requests").max(1.0);
    out.shed = stat("serve.shed");
    out.errors = stat("serve.errors");
    tally.check(out.errors == 0.0 && out.shed == 0.0, || {
        "server counted errors or shed work".into()
    });
    stop(handle, run_dir, tag);

    // The report frame's codec, on the session's last edit report.
    if let Some(rep) = report {
        let frame = Frame::Report(Box::new(rep));
        let mut enc = Vec::new();
        let mut dec = Vec::new();
        let mut bytes = Vec::new();
        for _ in 0..9 {
            bytes.clear();
            let (r, ms) = rec.time("proto.write_frame", || {
                proto::write_frame(&mut bytes, &frame)
            });
            tally.check(r.is_ok(), || "report frame failed to encode".into());
            enc.push(ms);
            let (back, ms) = rec.time("proto.read_frame", || {
                proto::read_frame(&mut bytes.as_slice())
            });
            dec.push(ms);
            let same =
                matches!((&back, &frame), (Ok(Frame::Report(a)), Frame::Report(b)) if a == b);
            tally.check(same, || "report frame does not round-trip".into());
        }
        out.report_bytes = bytes.len() as f64;
        out.encode_ms = median(&enc);
        out.decode_ms = median(&dec);
    }
    out
}
