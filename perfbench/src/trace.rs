//! Spans recorded from outside the program, around each call into a
//! layer: name, start, end, parent span, and a request id for served
//! requests. Kept in memory and written when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<u64>,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str, request: Option<u64>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its
    /// duration in ms.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = end;
        (end - s.start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span; returns its result and duration in ms.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name, None);
        let r = f();
        (r, self.exit(id))
    }

    /// Records an already-measured interval as a closed child span of
    /// the innermost open span (used for phases timed on a socket).
    pub fn interval(&mut self, name: &str, start: Instant, end: Instant, request: Option<u64>) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            name: name.to_owned(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
    }

    /// A span's duration minus the part of it its children cover.
    fn self_ns(&self, id: usize, kids: &[usize]) -> u64 {
        let s = &self.spans[id];
        let mut cover: Vec<(u64, u64)> = kids
            .iter()
            .map(|&c| {
                (
                    self.spans[c].start_ns.max(s.start_ns),
                    self.spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| a < b)
            .collect();
        cover.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (a, b) in cover {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_ns - s.start_ns).saturating_sub(covered)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(id);
            }
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(id, &kids[id])
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ", \"parent\": {p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ", \"request\": {r}");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}
