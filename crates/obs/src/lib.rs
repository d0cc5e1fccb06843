//! Zero-dependency structured observability for the qualifier pipeline.
//!
//! The paper's evaluation (§4.3, Table 2) rests on timing and
//! constraint-count claims; this crate is how the repro records them as
//! machine-readable artifacts instead of one-off stopwatches. It
//! provides:
//!
//! * **Spans** — monotonic-clock wall timings per named phase
//!   (`parse`, `sema`, `fdg`, `cgen-constraints`, `solve-propagate`,
//!   `certify`), recorded into a thread-local collector;
//! * **Counters and peaks** — constraint counts, qualifier-variable
//!   counts, solver worklist steps, the analysis results, peak arena
//!   sizes and the allocator's gauges;
//! * **A versioned JSON wire format** ([`Report::to_json`], validated
//!   by [`schema::validate_metrics`]) plus a human summary table
//!   ([`render_summary`]) and a timing-free canonical fingerprint
//!   ([`analysis_fingerprint`]) for determinism tests.
//!
//! Instrumentation must never perturb results: when no collector is
//! installed anywhere in the process, every probe is one relaxed atomic
//! load; when one is installed, probes only *record* — they never touch
//! analysis state. The differential and chaos oracles enforce this
//! (metrics on ≡ metrics off, byte-identical counts and diagnostics).
//!
//! The determinism contract for documents is split by key namespace:
//! counters prefixed `analysis.` are **deterministic** (the same for
//! every run of the same input, because they count results, not
//! work), while every other counter, every span, and every `*_ns` field
//! are **operational** and may legitimately differ between runs.
//! [`analysis_fingerprint`] keeps exactly the deterministic subset.
//!
//! Version-1 documents also carry a per-unit list, `units`, from the
//! unit driver that used to run analyses; nothing fills it any more,
//! so it is always empty, and readers still find the key.

pub mod json;
pub mod mem;
pub mod schema;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub use json::Json;

/// Version stamped into every emitted metrics document. Readers accept
/// documents up to this version and reject newer ones.
pub const METRICS_VERSION: u64 = 1;

/// One phase's accumulated wall time and entry count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Total nanoseconds across all entries (monotonic clock).
    pub ns: u64,
    /// Times the span was entered.
    pub count: u64,
}

/// Metrics of one work unit. Nothing records units any more; the type
/// stays so version-1 documents keep their shape (see the crate docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitReport {
    /// Unit label ("globals" or the SCC members joined with `+`).
    pub label: String,
    /// How the unit was satisfied: `analyzed`, `reused`, or
    /// `quarantined`.
    pub outcome: String,
    /// The unit's wall time on its worker.
    pub total_ns: u64,
    /// Phase timings inside the unit.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counters (both deterministic `analysis.*` and operational).
    pub counters: BTreeMap<String, u64>,
    /// High-water marks.
    pub peaks: BTreeMap<String, u64>,
}

/// Everything one collector gathered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Wall time of the whole collected scope.
    pub total_ns: u64,
    /// Aggregate phase timings (scope-level spans plus every absorbed
    /// unit's, merged in absorption order).
    pub spans: BTreeMap<String, SpanStat>,
    /// Aggregate counters.
    pub counters: BTreeMap<String, u64>,
    /// Aggregate high-water marks.
    pub peaks: BTreeMap<String, u64>,
    /// Per-unit detail, in deterministic unit order (always empty from
    /// today's tools).
    pub units: Vec<UnitReport>,
}

impl Report {
    /// Folds another report's spans, counters, peaks, and units into
    /// this one (sums, sums, maxima, append). `total_ns` is left alone:
    /// it describes a scope's wall clock, which merging cannot define.
    pub fn merge(&mut self, other: &Report) {
        for (name, stat) in &other.spans {
            let e = self.spans.entry(name.clone()).or_default();
            e.ns += stat.ns;
            e.count += stat.count;
        }
        for (name, n) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += n;
        }
        for (name, n) in &other.peaks {
            let e = self.peaks.entry(name.clone()).or_default();
            *e = (*e).max(*n);
        }
        self.units.extend(other.units.iter().cloned());
    }

    /// A counter's value, defaulting to zero.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A peak's value, defaulting to zero.
    #[must_use]
    pub fn peak_value(&self, name: &str) -> u64 {
        self.peaks.get(name).copied().unwrap_or(0)
    }

    /// Serializes to the versioned metrics document.
    #[must_use]
    pub fn to_json(&self, tool: &str, mode: &str) -> Json {
        let maps = |spans: &BTreeMap<String, SpanStat>,
                    counters: &BTreeMap<String, u64>,
                    peaks: &BTreeMap<String, u64>| {
            let spans_json = Json::Obj(
                spans
                    .iter()
                    .map(|(k, s)| {
                        (
                            k.clone(),
                            Json::Obj(vec![
                                ("ns".to_owned(), Json::num(s.ns)),
                                ("count".to_owned(), Json::num(s.count)),
                            ]),
                        )
                    })
                    .collect(),
            );
            let counters_json = Json::Obj(
                counters.iter().map(|(k, n)| (k.clone(), Json::num(*n))).collect(),
            );
            let peaks_json = Json::Obj(
                peaks.iter().map(|(k, n)| (k.clone(), Json::num(*n))).collect(),
            );
            (spans_json, counters_json, peaks_json)
        };
        let (spans, counters, peaks) =
            maps(&self.spans, &self.counters, &self.peaks);
        let units = Json::Arr(
            self.units
                .iter()
                .map(|u| {
                    let (spans, counters, peaks) =
                        maps(&u.spans, &u.counters, &u.peaks);
                    Json::Obj(vec![
                        ("label".to_owned(), Json::Str(u.label.clone())),
                        ("outcome".to_owned(), Json::Str(u.outcome.clone())),
                        ("total_ns".to_owned(), Json::num(u.total_ns)),
                        ("spans".to_owned(), spans),
                        ("counters".to_owned(), counters),
                        ("peaks".to_owned(), peaks),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("version".to_owned(), Json::num(METRICS_VERSION)),
            ("tool".to_owned(), Json::Str(tool.to_owned())),
            ("mode".to_owned(), Json::Str(mode.to_owned())),
            ("total_ns".to_owned(), Json::num(self.total_ns)),
            ("spans".to_owned(), spans),
            ("counters".to_owned(), counters),
            ("peaks".to_owned(), peaks),
            ("units".to_owned(), units),
        ])
    }
}

/// Collectors active anywhere in the process. When zero, every probe
/// short-circuits on one relaxed load.
static ARMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<Report>> = const { RefCell::new(None) };
}

/// Whether any collector is installed anywhere in the process (cheap;
/// every probe checks it first).
#[must_use]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed) > 0
}

/// Whether *this thread* has a collector installed.
#[must_use]
pub fn active() -> bool {
    armed() && CURRENT.with(|c| c.borrow().is_some())
}

/// Installs a fresh collector on this thread, runs `f`, and returns its
/// result together with everything recorded. Nests: an inner `scoped`
/// shadows the outer collector for its duration (use [`absorb`] to fold
/// the inner report back out). A panic in `f` restores the previous
/// collector before resuming the unwind.
pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, Report) {
    let prev =
        CURRENT.with(|c| c.borrow_mut().replace(Report::default()));
    ARMED.fetch_add(1, Ordering::SeqCst);
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(f));
    let elapsed = t0.elapsed();
    let mut report = CURRENT
        .with(|c| std::mem::replace(&mut *c.borrow_mut(), prev))
        .unwrap_or_default();
    ARMED.fetch_sub(1, Ordering::SeqCst);
    report.total_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    match result {
        Ok(r) => (r, report),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// A live span: records its wall time into the thread's collector when
/// dropped. Inert (and free) when no collector is installed.
pub struct Span {
    live: Option<(&'static str, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, start)) = self.live.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            CURRENT.with(|c| {
                if let Some(rep) = c.borrow_mut().as_mut() {
                    let e = rep.spans.entry(name.to_owned()).or_default();
                    e.ns += ns;
                    e.count += 1;
                }
            });
        }
    }
}

/// Opens a span over the named phase. Spans are independent timers:
/// overlapping or nested spans each record their own wall time.
#[must_use]
pub fn span(name: &'static str) -> Span {
    Span {
        live: active().then(|| (name, Instant::now())),
    }
}

/// Adds `delta` to a counter in the thread's collector.
pub fn count(name: &'static str, delta: u64) {
    if !armed() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(rep) = c.borrow_mut().as_mut() {
            *rep.counters.entry(name.to_owned()).or_default() += delta;
        }
    });
}

/// Raises a high-water mark in the thread's collector.
pub fn peak(name: &'static str, value: u64) {
    if !armed() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(rep) = c.borrow_mut().as_mut() {
            let e = rep.peaks.entry(name.to_owned()).or_default();
            *e = (*e).max(value);
        }
    });
}

/// Folds a detached report (e.g. from an inner [`scoped`]) into this
/// thread's collector, if one is installed.
pub fn absorb(report: &Report) {
    if !active() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(rep) = c.borrow_mut().as_mut() {
            rep.merge(report);
        }
    });
}

/// The canonical timing-free fingerprint of a metrics document: version,
/// tool, mode, every `analysis.*` counter, and each unit's label with
/// its `analysis.*` counters. Two runs of the same input must produce
/// byte-identical fingerprints regardless of wall-clock noise.
#[must_use]
pub fn analysis_fingerprint(doc: &Json) -> String {
    let mut out = String::new();
    for key in ["version", "tool", "mode"] {
        if let Some(v) = doc.get(key) {
            let _ = writeln!(out, "{key}={}", render_scalar(v));
        }
    }
    push_analysis_counters(&mut out, doc.get("counters"), "");
    if let Some(units) = doc.get("units").and_then(Json::as_arr) {
        for u in units {
            let label = u.get("label").and_then(Json::as_str).unwrap_or("?");
            let _ = writeln!(out, "unit {label}");
            push_analysis_counters(&mut out, u.get("counters"), "  ");
        }
    }
    out
}

fn push_analysis_counters(out: &mut String, counters: Option<&Json>, pad: &str) {
    let Some(fields) = counters.and_then(Json::as_obj) else {
        return;
    };
    let mut picked: Vec<(&str, &Json)> = fields
        .iter()
        .filter(|(k, _)| k.starts_with("analysis."))
        .map(|(k, v)| (k.as_str(), v))
        .collect();
    picked.sort_by_key(|(k, _)| *k);
    for (k, v) in picked {
        let _ = writeln!(out, "{pad}{k}={}", render_scalar(v));
    }
}

fn render_scalar(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => {
            let mut s = other.render();
            s.truncate(s.trim_end().len());
            s
        }
    }
}

/// Renders the human `--metrics-summary` table: phases by descending
/// wall time, then counters, peaks, and a one-line unit tally.
#[must_use]
pub fn render_summary(report: &Report, tool: &str, mode: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{tool} metrics ({mode}): total {:.3} ms",
        report.total_ns as f64 / 1e6
    );
    if !report.spans.is_empty() {
        let _ = writeln!(out, "  {:<24} {:>12} {:>8}", "phase", "total (ms)", "count");
        let mut spans: Vec<(&String, &SpanStat)> = report.spans.iter().collect();
        spans.sort_by(|a, b| b.1.ns.cmp(&a.1.ns).then_with(|| a.0.cmp(b.0)));
        for (name, stat) in spans {
            let _ = writeln!(
                out,
                "  {:<24} {:>12.3} {:>8}",
                name,
                stat.ns as f64 / 1e6,
                stat.count
            );
        }
    }
    if !report.counters.is_empty() {
        let _ = writeln!(out, "  counters:");
        for (name, n) in &report.counters {
            let _ = writeln!(out, "    {name:<32} {n:>12}");
        }
    }
    if !report.peaks.is_empty() {
        let _ = writeln!(out, "  peaks:");
        for (name, n) in &report.peaks {
            let _ = writeln!(out, "    {name:<32} {n:>12}");
        }
    }
    if !report.units.is_empty() {
        let tally = |what: &str| {
            report.units.iter().filter(|u| u.outcome == what).count()
        };
        let _ = writeln!(
            out,
            "  units: {} ({} analyzed, {} reused, {} quarantined)",
            report.units.len(),
            tally("analyzed"),
            tally("reused"),
            tally("quarantined")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_record_nothing() {
        // No collector installed on this thread: everything is inert.
        let _s = span("parse");
        count("x", 3);
        peak("y", 9);
        // Nothing to assert beyond "did not crash"; scoped() below
        // proves recording works when enabled.
    }

    #[test]
    fn scoped_records_spans_counters_peaks() {
        let ((), rep) = scoped(|| {
            {
                let _s = span("parse");
                std::hint::black_box(0);
            }
            {
                let _s = span("parse");
            }
            count("analysis.constraints", 5);
            count("analysis.constraints", 2);
            peak("arena.qtypes", 10);
            peak("arena.qtypes", 4);
        });
        assert_eq!(rep.spans["parse"].count, 2);
        assert_eq!(rep.counter("analysis.constraints"), 7);
        assert_eq!(rep.peak_value("arena.qtypes"), 10);
        assert!(rep.total_ns > 0);
    }

    #[test]
    fn nested_scopes_shadow_and_absorb() {
        let ((), outer) = scoped(|| {
            count("outer", 1);
            let ((), inner) = scoped(|| count("inner", 2));
            assert_eq!(inner.counter("inner"), 2);
            assert_eq!(inner.counter("outer"), 0, "inner scope is fresh");
            absorb(&inner);
        });
        assert_eq!(outer.counter("outer"), 1);
        assert_eq!(outer.counter("inner"), 2, "absorb folded the inner report");
    }

    #[test]
    fn scoped_restores_collector_on_panic() {
        let ((), outer) = scoped(|| {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let ((), _inner) = scoped(|| panic!("boom"));
            }));
            assert!(caught.is_err());
            // The outer collector must still be the active one.
            count("after", 1);
        });
        assert_eq!(outer.counter("after"), 1);
    }

    fn unit_report(label: &str, outcome: &str) -> UnitReport {
        UnitReport {
            label: label.to_owned(),
            outcome: outcome.to_owned(),
            ..UnitReport::default()
        }
    }

    #[test]
    fn units_aggregate_deterministically() {
        // A version-1 document's units survive `merge` in merge order,
        // beside the summed aggregates.
        let ((), mut a) = scoped(|| {
            let _s = span("cgen-constraints");
            count("analysis.constraints", 3);
        });
        a.units.push(unit_report("globals", "analyzed"));
        let mut b = Report::default();
        b.counters.insert("analysis.constraints".to_owned(), 4);
        b.units.push(unit_report("f+g", "reused"));
        let mut rep = Report::default();
        rep.merge(&a);
        rep.merge(&b);
        assert_eq!(rep.units.len(), 2);
        assert_eq!(rep.units[0].label, "globals");
        assert_eq!(rep.units[1].outcome, "reused");
        assert_eq!(rep.counter("analysis.constraints"), 7);
        assert_eq!(rep.spans["cgen-constraints"].count, 1);
    }

    #[test]
    fn fingerprint_ignores_timings_and_operational_keys() {
        let mut a = Report::default();
        a.counters.insert("analysis.units".to_owned(), 4);
        a.counters.insert("cache.reused".to_owned(), 0);
        a.total_ns = 123;
        let mut b = a.clone();
        b.counters.insert("cache.reused".to_owned(), 4);
        b.total_ns = 456;
        b.spans.insert("parse".to_owned(), SpanStat { ns: 9, count: 1 });
        let fa = analysis_fingerprint(&a.to_json("t", "poly"));
        let fb = analysis_fingerprint(&b.to_json("t", "poly"));
        assert_eq!(fa, fb, "operational drift must not change the fingerprint");
        b.counters.insert("analysis.units".to_owned(), 5);
        let fc = analysis_fingerprint(&b.to_json("t", "poly"));
        assert_ne!(fa, fc, "analysis drift must change the fingerprint");
    }

    #[test]
    fn summary_renders_every_section() {
        let ((), rep) = scoped(|| {
            let _s = span("solve-propagate");
            count("analysis.merged_constraints", 12);
            peak("solve.vars", 7);
        });
        let mut rep = rep;
        rep.units.push(unit_report("globals", "analyzed"));
        let text = render_summary(&rep, "cqual", "poly");
        assert!(text.contains("solve-propagate"), "{text}");
        assert!(text.contains("analysis.merged_constraints"), "{text}");
        assert!(text.contains("solve.vars"), "{text}");
        assert!(text.contains("units: 1 (1 analyzed, 0 reused, 0 quarantined)"), "{text}");
    }
}
