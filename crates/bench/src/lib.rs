//! Shared measurement machinery for regenerating the paper's evaluation
//! (§4.4): Table 1 (the benchmark suite), Table 2 (timings and const
//! counts), and Figure 6 (the same counts as percentages).
//!
//! Every count that leaves this harness is **certified**: the solver's
//! solution is re-checked against the full constraint set by
//! [`qual_solve::verify_solution`] before a [`Row`] is built. A
//! benchmark unit that fails anywhere — parse, sema, inference budget,
//! solving, certification — yields its diagnostics instead of a row, so
//! one broken unit cannot take down a table run.
//!
//! Run the binaries:
//!
//! ```text
//! cargo run -p qual-bench --bin table1
//! cargo run -p qual-bench --bin table2 --release
//! cargo run -p qual-bench --bin figure6 --release
//! ```
//!
//! and the Criterion micro-benches (`cargo bench -p qual-bench`) for the
//! scaling and mono-vs-poly claims.

use std::time::Duration;

use qual_cgen::Profile;
use qual_constinfer::{
    recover_front_end, run_budgeted, Budgets, ConstCounts, Mode, Options,
};
use qual_obs::json::Json;
use qual_obs::schema::BENCH_VERSION;
use qual_solve::{Diagnostic, Phase};

/// One benchmark's full measurement — a row of Table 2.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Generated source line count.
    pub lines: usize,
    /// Parse + semantic analysis time ("compile time").
    pub compile: Duration,
    /// Monomorphic inference time (median over the repetitions).
    pub mono_time: Duration,
    /// Fastest monomorphic repetition.
    pub mono_min: Duration,
    /// Polymorphic inference time (median over the repetitions).
    pub poly_time: Duration,
    /// Fastest polymorphic repetition.
    pub poly_min: Duration,
    /// Consts declared in the source.
    pub declared: usize,
    /// Possible consts under monomorphic inference.
    pub mono: usize,
    /// Possible consts under polymorphic inference.
    pub poly: usize,
    /// Total interesting positions.
    pub total: usize,
    /// Constraints generated by the monomorphic analysis — a
    /// hardware-independent size proxy for the timings above.
    pub mono_constraints: u64,
    /// Constraints generated by the polymorphic analysis.
    pub poly_constraints: u64,
    /// Solver worklist steps spent by the monomorphic solve.
    pub mono_steps: u64,
    /// Solver worklist steps spent by the polymorphic solve.
    pub poly_steps: u64,
}

impl Row {
    /// The Figure-6 stacked percentages `(declared, mono-extra,
    /// poly-extra, other)`, summing to 100.
    #[must_use]
    pub fn percentages(&self) -> (f64, f64, f64, f64) {
        let t = self.total as f64;
        let d = self.declared as f64 / t * 100.0;
        let m = (self.mono - self.declared) as f64 / t * 100.0;
        let p = (self.poly - self.mono) as f64 / t * 100.0;
        (d, m, p, 100.0 - d - m - p)
    }
}

/// A fault-isolated, certified measurement: the row (when every phase
/// succeeded and both solutions passed the verifier) plus every
/// diagnostic raised along the way.
#[derive(Debug)]
pub struct Measurement {
    /// Benchmark name (present even when the row is not).
    pub name: String,
    /// The certified row, or `None` if any mode failed to produce a
    /// certified count.
    pub row: Option<Row>,
    /// Everything that went wrong, in pipeline order.
    pub skipped: Vec<Diagnostic>,
}

/// Generates, compiles, analyzes, and **certifies** one profile. Every
/// measurement comes from the observability layer (`qual-obs`): each
/// repetition runs under [`qual_obs::scoped`] and its wall time is the
/// collector's monotonic `total_ns` — the same span data `--metrics`
/// emits — and the constraint/step counts in the [`Row`] are the
/// collector's `cgen.constraints` / `solve.steps` counters. At least
/// three repetitions are always taken (`runs` is clamped up), and the
/// inference times report the **median** with the **minimum** alongside
/// — medians resist scheduler noise where the paper's averages would
/// absorb it. The timed runs use plain options; the certification pass
/// re-checks the final run's solution against every constraint,
/// untimed, so verification cost never skews the reported times.
///
/// Never panics: a fault in any phase becomes a [`Diagnostic`] in
/// [`Measurement::skipped`] and the row is withheld.
#[must_use]
pub fn measure_certified(profile: &Profile, runs: u32) -> Measurement {
    let src = qual_cgen::generate(profile);
    let lines = src.lines().count();

    let (unit, front_report) = qual_obs::scoped(|| recover_front_end(&src));
    let compile = Duration::from_nanos(front_report.total_ns);
    let mut skipped = unit.skipped;

    let space = qual_lattice::QualSpace::const_only();
    let runs = runs.max(3);
    let time_mode = |mode: Mode,
                         skipped: &mut Vec<Diagnostic>|
     -> (Duration, Duration, u64, u64, Option<ConstCounts>) {
        let mut times = Vec::with_capacity(runs as usize);
        let mut last = None;
        let mut constraints = 0;
        let mut steps = 0;
        for _ in 0..runs {
            let (ran, report) = qual_obs::scoped(|| {
                run_budgeted(
                    &unit.program,
                    &unit.sema,
                    &space,
                    mode,
                    Options::default(),
                    Budgets::default(),
                )
            });
            times.push(Duration::from_nanos(report.total_ns));
            constraints = report.counter("cgen.constraints");
            steps = report.counter("solve.steps");
            last = Some(ran);
        }
        let (analysis, engine_skipped) = last.expect("runs >= 1");
        skipped.extend(engine_skipped);
        // The certification gate: no count leaves the harness without
        // the independent checker accepting the solution it came from.
        let counts = match &analysis.solution {
            Ok(sol) => match qual_solve::verify_solution(
                &analysis.space,
                analysis.constraints.constraints(),
                sol,
            ) {
                Ok(()) => {
                    Some(
                        qual_constinfer::count::summarize(&unit.program, analysis)
                            .counts,
                    )
                }
                Err(e) => {
                    skipped.push(Diagnostic::error(
                        Phase::Verify,
                        format!("{mode:?} solution failed certification: {e}"),
                    ));
                    None
                }
            },
            Err(failure) => {
                skipped.push(Diagnostic::error(
                    Phase::Solve,
                    format!("{mode:?}: {failure}"),
                ));
                None
            }
        };
        times.sort_unstable();
        let min = times[0];
        let median = if times.len() % 2 == 1 {
            times[times.len() / 2]
        } else {
            (times[times.len() / 2 - 1] + times[times.len() / 2]) / 2
        };
        (median, min, constraints, steps, counts)
    };

    let (mono_time, mono_min, mono_constraints, mono_steps, mono_counts) =
        time_mode(Mode::Monomorphic, &mut skipped);
    let (poly_time, poly_min, poly_constraints, poly_steps, poly_counts) =
        time_mode(Mode::Polymorphic, &mut skipped);

    let row = match (mono_counts, poly_counts) {
        (Some(m), Some(p)) if m.total == p.total => Some(Row {
            name: profile.name.to_owned(),
            lines,
            compile,
            mono_time,
            mono_min,
            poly_time,
            poly_min,
            declared: m.declared,
            mono: m.inferred,
            poly: p.inferred,
            total: m.total,
            mono_constraints,
            poly_constraints,
            mono_steps,
            poly_steps,
        }),
        (Some(m), Some(p)) => {
            skipped.push(Diagnostic::error(
                Phase::Verify,
                format!(
                    "mode disagreement: mono sees {} interesting positions, \
                     poly sees {}",
                    m.total, p.total
                ),
            ));
            None
        }
        _ => None,
    };
    Measurement {
        name: profile.name.to_owned(),
        row,
        skipped,
    }
}

/// Generates, compiles, and analyzes one profile, timing each phase.
///
/// # Panics
///
/// Panics if the generated program fails to analyze or certify
/// (generator bug by construction); [`measure_certified`] is the
/// non-panicking form the table binaries use.
#[must_use]
pub fn measure(profile: &Profile, runs: u32) -> Row {
    let m = measure_certified(profile, runs);
    match m.row {
        Some(row) => row,
        None => panic!(
            "benchmark `{}` failed to produce a certified row: {}",
            m.name,
            m.skipped
                .iter()
                .map(|d| d.render(None))
                .collect::<String>()
        ),
    }
}

impl Row {
    /// The row as a bench-document entry. Fields ending `_ns` are
    /// timings (compared with tolerance by [`compare_bench_docs`]);
    /// every other numeric field is a hardware-independent count and
    /// must be exact across runs of the same code.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let ns = |d: Duration| {
            Json::num(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        };
        Json::Obj(vec![
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("lines".to_owned(), Json::num(self.lines as u64)),
            ("declared".to_owned(), Json::num(self.declared as u64)),
            ("mono".to_owned(), Json::num(self.mono as u64)),
            ("poly".to_owned(), Json::num(self.poly as u64)),
            ("total".to_owned(), Json::num(self.total as u64)),
            ("mono_constraints".to_owned(), Json::num(self.mono_constraints)),
            ("poly_constraints".to_owned(), Json::num(self.poly_constraints)),
            ("mono_steps".to_owned(), Json::num(self.mono_steps)),
            ("poly_steps".to_owned(), Json::num(self.poly_steps)),
            ("compile_ns".to_owned(), ns(self.compile)),
            ("mono_ns".to_owned(), ns(self.mono_time)),
            ("mono_min_ns".to_owned(), ns(self.mono_min)),
            ("poly_ns".to_owned(), ns(self.poly_time)),
            ("poly_min_ns".to_owned(), ns(self.poly_min)),
        ])
    }
}

/// Wraps bench rows into the versioned document `bench-regress` writes
/// (`BENCH_table2.json` / `BENCH_incr.json`).
#[must_use]
pub fn bench_doc(bench: &str, reps: u32, rows: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("version".to_owned(), Json::num(BENCH_VERSION)),
        ("bench".to_owned(), Json::Str(bench.to_owned())),
        ("reps".to_owned(), Json::num(u64::from(reps))),
        ("rows".to_owned(), Json::Arr(rows)),
    ])
}

/// One difference between a baseline bench document and a current one.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDrift {
    /// Row name (`rows[].name`).
    pub row: String,
    /// Metric field, or `"<missing>"` when the whole row disappeared.
    pub field: String,
    /// Baseline value.
    pub prev: u64,
    /// Current value (0 when the row is missing).
    pub cur: u64,
    /// Whether the field is a timing (`*_ns`) — timings only *flag*
    /// regressions beyond the tolerance; counts must be exact.
    pub timing: bool,
}

impl std::fmt::Display for BenchDrift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.field == "<missing>" {
            return write!(f, "{}: row present in baseline but missing now", self.row);
        }
        let pct = if self.prev > 0 {
            (self.cur as f64 / self.prev as f64 - 1.0) * 100.0
        } else {
            f64::INFINITY
        };
        write!(
            f,
            "{}.{}: {} -> {} ({}{:.1}%){}",
            self.row,
            self.field,
            self.prev,
            self.cur,
            if pct >= 0.0 { "+" } else { "" },
            pct,
            if self.timing { " [timing]" } else { " [count]" },
        )
    }
}

/// Compares a current bench document against a baseline. Rows are
/// matched by `name`; a baseline row missing from the current document
/// is count drift. Within a matched row, numeric fields ending `_ns`
/// are timings — only a **regression** (current exceeding baseline by
/// more than `tolerance_pct` percent) is flagged; speedups never are.
/// Every other numeric field is a hardware-independent count and any
/// difference is drift. Fields only the current document has (a newer
/// writer) are ignored, matching the schema's unknown-field tolerance.
#[must_use]
pub fn compare_bench_docs(
    baseline: &Json,
    current: &Json,
    tolerance_pct: f64,
) -> Vec<BenchDrift> {
    let rows = |doc: &Json| -> Vec<Json> {
        doc.get("rows")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let mut drifts = Vec::new();
    let current_rows = rows(current);
    for base_row in rows(baseline) {
        let Some(name) = base_row.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(cur_row) = current_rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        else {
            drifts.push(BenchDrift {
                row: name.to_owned(),
                field: "<missing>".to_owned(),
                prev: 0,
                cur: 0,
                timing: false,
            });
            continue;
        };
        let Some(fields) = base_row.as_obj() else {
            continue;
        };
        for (field, base_value) in fields {
            let Some(prev) = base_value.as_u64() else {
                continue;
            };
            let Some(cur) = cur_row.get(field).and_then(Json::as_u64) else {
                drifts.push(BenchDrift {
                    row: name.to_owned(),
                    field: field.clone(),
                    prev,
                    cur: 0,
                    timing: false,
                });
                continue;
            };
            let timing = field.ends_with("_ns");
            let drifted = if timing {
                cur as f64 > prev as f64 * (1.0 + tolerance_pct / 100.0)
            } else {
                cur != prev
            };
            if drifted {
                drifts.push(BenchDrift {
                    row: name.to_owned(),
                    field: field.clone(),
                    prev,
                    cur,
                    timing,
                });
            }
        }
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;
    use qual_cgen::table1_profiles;

    #[test]
    fn measure_produces_consistent_row() {
        let p = table1_profiles()[0].scaled(400);
        let row = measure(&p, 1);
        // `runs` is clamped to >= 3, so minima are real minima.
        assert!(row.mono_min <= row.mono_time);
        assert!(row.poly_min <= row.poly_time);
        assert!(row.declared <= row.mono);
        assert!(row.mono <= row.poly);
        assert!(row.poly <= row.total);
        let (d, m, x, o) = row.percentages();
        assert!((d + m + x + o - 100.0).abs() < 1e-6);
    }

    #[test]
    fn certified_measurement_is_clean_on_generated_code() {
        let p = table1_profiles()[1].scaled(300);
        let m = measure_certified(&p, 1);
        assert!(m.row.is_some(), "diagnostics: {:?}", m.skipped);
        assert!(m.skipped.is_empty(), "diagnostics: {:?}", m.skipped);
    }
}
