//! Metric collection, the correctness tally, and the two output forms:
//! a human-readable block and the final one-line JSON result.

use std::fmt::Write as _;

/// Every end-to-end metric, with its unit. Each workload reports each
/// one (see `perfbench/README.md` for what each means per workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("lines_per_s", "lines/s"),
    ("query_p50_ms", "ms"),
];

/// Every per-layer metric, with its unit. The traced run of each
/// workload measures each one on that workload's inputs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cfront.lex.ms", "ms"),
    ("cfront.lex.tokens", "count"),
    ("cfront.parse.ms", "ms"),
    ("cfront.sema.ms", "ms"),
    ("constinfer.fdg.ms", "ms"),
    ("constinfer.cgen.ms", "ms"),
    ("constinfer.cgen.constraints", "count"),
    ("constinfer.cgen.ns_per_constraint", "ns"),
    ("constinfer.cgen.poly_over_mono", "ratio"),
    ("constinfer.count.ms", "ms"),
    ("solve.propagate.ms", "ms"),
    ("solve.propagate.ns_per_constraint", "ns"),
    ("solve.collapsed", "count"),
    ("solve.coalesced", "count"),
    ("solve.certify.ms", "ms"),
    ("incr.plan.ms", "ms"),
    ("incr.unit.ms", "ms"),
    ("incr.unit.count", "count"),
    ("incr.unit.overhead", "ratio"),
    ("incr.unit.certify.ms", "ms"),
    ("incr.sched.speedup", "ratio"),
    ("incr.unattributed_share", "share"),
    ("incr.cache.encode.ms", "ms"),
    ("incr.cache.decode.ms", "ms"),
    ("incr.cache.bytes", "bytes"),
    ("incr.cache.store.ms", "ms/unit"),
    ("incr.cache.load.ms", "ms/unit"),
    ("incr.cache.hit_ratio", "share"),
    ("incr.cache.dirty_units.leaf", "count"),
    ("incr.cache.dirty_units.hub", "count"),
    ("serve.connect.ms.edit", "ms"),
    ("serve.write.ms.edit", "ms"),
    ("serve.wait.ms.edit", "ms"),
    ("serve.read.ms.edit", "ms"),
    ("serve.connect.ms.query", "ms"),
    ("serve.write.ms.query", "ms"),
    ("serve.wait.ms.query", "ms"),
    ("serve.read.ms.query", "ms"),
    ("serve.connect.ms.reopen", "ms"),
    ("serve.write.ms.reopen", "ms"),
    ("serve.wait.ms.reopen", "ms"),
    ("serve.read.ms.reopen", "ms"),
    ("serve.connect.ms.null", "ms"),
    ("serve.write.ms.null", "ms"),
    ("serve.wait.ms.null", "ms"),
    ("serve.read.ms.null", "ms"),
    ("serve.warm_hit_ratio", "share"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("proto.report.bytes", "bytes"),
    ("proto.encode.ms", "ms"),
    ("proto.decode.ms", "ms"),
    ("cfront.doubling_ratio", "ratio"),
    ("constinfer.cgen.doubling_ratio", "ratio"),
    ("solve.propagate.doubling_ratio", "ratio"),
    ("trace.overhead.ms", "ms"),
];

/// Operations attempted and failed. A failure is an operation that
/// errored, was refused, or disagreed with its reference.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for stderr.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Named measurements in insertion order. `value` holds the metrics the
/// final JSON line reports; `info` holds supporting figures printed
/// only in the human block (sample counts, ratio bases, per-kind
/// percentiles).
#[derive(Default)]
pub struct Metrics {
    pub value: Vec<(String, String, f64)>,
    pub info: Vec<(String, String)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, unit: &str, v: f64) {
        self.value.push((name.to_owned(), unit.to_owned(), v));
    }

    pub fn note(&mut self, name: &str, text: String) {
        self.info.push((name.to_owned(), text));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.value
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }

    /// Problems with the metrics `wanted` requires: missing, wrong or
    /// empty unit, or a non-finite value.
    pub fn problems(&self, wanted: &[(&str, &str)]) -> Vec<String> {
        let mut out = Vec::new();
        for (name, unit) in wanted {
            match self.value.iter().find(|(n, _, _)| n == name) {
                None => out.push(format!("{name}: missing")),
                Some((_, u, v)) => {
                    if u.is_empty() || u != unit {
                        out.push(format!("{name}: unit `{u}`, want `{unit}`"));
                    }
                    if !v.is_finite() {
                        out.push(format!("{name}: non-finite value {v}"));
                    }
                }
            }
        }
        out
    }

    pub fn human(&self, title: &str) -> String {
        let mut s = format!("== {title}\n");
        for (n, u, v) in &self.value {
            let _ = writeln!(s, "  {n:<40} {v:>16.6} {u}");
        }
        for (n, t) in &self.info {
            let _ = writeln!(s, "  {n:<40} {t}");
        }
        s
    }

    /// The result line: exactly the `wanted` metrics, in that order.
    pub fn json_line(&self, wanted: &[(&str, &str)], tally: &Tally) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed
        );
        let mut first = true;
        for (name, unit) in wanted {
            if let Some(v) = self.get(name) {
                if !first {
                    s.push_str(", ");
                }
                first = false;
                let _ = write!(
                    s,
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                );
            }
        }
        s.push_str("}}");
        s
    }
}

/// JSON has no NaN or infinity; a non-finite value becomes `null`, which
/// the smoke check rejects before any real run relies on it.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}
