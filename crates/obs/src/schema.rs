//! Checked-in schema descriptions and validators for the two JSON
//! document families this repo emits: metrics documents
//! (`cqual --metrics`, [`crate::Report::to_json`]) and bench documents
//! (`BENCH_table2.json` / `BENCH_incr.json` from `bench-regress`).
//!
//! Validation is **tolerant of unknown fields** — a newer writer may
//! add fields and an older reader must still accept the document — but
//! **strict about versions**: a document whose `version` exceeds what
//! this build knows is rejected rather than half-read. That asymmetry
//! is the compatibility contract; the wire-format tests in
//! `crates/obs/tests/schema.rs` pin both directions.

use crate::json::Json;
use crate::METRICS_VERSION;

/// Version stamped into every bench document.
pub const BENCH_VERSION: u64 = 1;

/// Human-readable schema for metrics documents; kept next to the
/// validator so drift between prose and code is caught in review.
pub const METRICS_SCHEMA: &str = "\
metrics document, version 1
  version   : int     -- METRICS_VERSION of the writer; readers reject newer
  tool      : string  -- emitting binary (e.g. \"cqual\")
  mode      : string  -- analysis mode (e.g. \"poly\", \"mono\")
  total_ns  : int     -- monotonic wall time of the whole run
  spans     : { name -> { ns: int, count: int } }
  counters  : { name -> int }   -- `analysis.*` keys are deterministic,
                                   all others operational
  peaks     : { name -> int }   -- high-water marks
  units     : [ { label: string, outcome: string (analyzed|reused|quarantined),
                  total_ns: int, spans, counters, peaks } ]
unknown fields are permitted at every level and round-trip unchanged
";

/// Human-readable schema for bench documents.
pub const BENCH_SCHEMA: &str = "\
bench document, version 1
  version   : int     -- BENCH_VERSION of the writer; readers reject newer
  bench     : string  -- harness name (\"table2\" or \"incr\")
  reps      : int     -- repetitions behind each median
  rows      : [ { name: string, <metric>: int ... } ]
row metrics ending in `_ns` are timings (compared with tolerance);
every other numeric metric is a hardware-independent count (exact)
unknown fields are permitted at every level and round-trip unchanged
";

/// Validates a metrics document against the version-1 schema.
///
/// # Errors
///
/// Returns a message naming the first offending field.
pub fn validate_metrics(doc: &Json) -> Result<(), String> {
    let version = require_u64(doc, "version")?;
    if version > METRICS_VERSION {
        return Err(format!(
            "metrics version {version} is newer than supported {METRICS_VERSION}"
        ));
    }
    require_str(doc, "tool")?;
    require_str(doc, "mode")?;
    require_u64(doc, "total_ns")?;
    validate_span_map(doc.get("spans"), "spans")?;
    validate_count_map(doc.get("counters"), "counters")?;
    validate_count_map(doc.get("peaks"), "peaks")?;
    let units = doc
        .get("units")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array field `units`")?;
    for (i, u) in units.iter().enumerate() {
        let ctx = format!("units[{i}]");
        require_str(u, "label").map_err(|e| format!("{ctx}: {e}"))?;
        let outcome = require_str(u, "outcome").map_err(|e| format!("{ctx}: {e}"))?;
        if !matches!(outcome, "analyzed" | "reused" | "quarantined") {
            return Err(format!("{ctx}: unknown outcome `{outcome}`"));
        }
        require_u64(u, "total_ns").map_err(|e| format!("{ctx}: {e}"))?;
        validate_span_map(u.get("spans"), &format!("{ctx}.spans"))?;
        validate_count_map(u.get("counters"), &format!("{ctx}.counters"))?;
        validate_count_map(u.get("peaks"), &format!("{ctx}.peaks"))?;
    }
    Ok(())
}

/// Validates a bench document against the version-1 schema.
///
/// # Errors
///
/// Returns a message naming the first offending field.
pub fn validate_bench(doc: &Json) -> Result<(), String> {
    let version = require_u64(doc, "version")?;
    if version > BENCH_VERSION {
        return Err(format!(
            "bench version {version} is newer than supported {BENCH_VERSION}"
        ));
    }
    require_str(doc, "bench")?;
    require_u64(doc, "reps")?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array field `rows`")?;
    for (i, row) in rows.iter().enumerate() {
        let ctx = format!("rows[{i}]");
        require_str(row, "name").map_err(|e| format!("{ctx}: {e}"))?;
        let fields = row
            .as_obj()
            .ok_or_else(|| format!("{ctx}: row is not an object"))?;
        for (key, value) in fields {
            if key == "name" {
                continue;
            }
            if value.as_u64().is_none() && !matches!(value, Json::Str(_)) {
                return Err(format!(
                    "{ctx}.{key}: metric is neither a non-negative integer nor a string"
                ));
            }
        }
    }
    Ok(())
}

fn require_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn require_str<'d>(doc: &'d Json, key: &str) -> Result<&'d str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn validate_span_map(map: Option<&Json>, ctx: &str) -> Result<(), String> {
    let fields = map
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("missing or non-object field `{ctx}`"))?;
    for (name, stat) in fields {
        require_u64(stat, "ns").map_err(|e| format!("{ctx}.{name}: {e}"))?;
        require_u64(stat, "count").map_err(|e| format!("{ctx}.{name}: {e}"))?;
    }
    Ok(())
}

fn validate_count_map(map: Option<&Json>, ctx: &str) -> Result<(), String> {
    let fields = map
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("missing or non-object field `{ctx}`"))?;
    for (name, value) in fields {
        if value.as_u64().is_none() {
            return Err(format!("{ctx}.{name}: not a non-negative integer"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// A version-1 document with one unit entry, as the unit driver
    /// wrote them, so the unit checks have something to check.
    fn sample_doc() -> Json {
        parse(
            r#"{"version": 1, "tool": "cqual", "mode": "poly", "total_ns": 5,
                "spans": {}, "counters": {"analysis.positions_total": 1}, "peaks": {},
                "units": [{"label": "globals", "outcome": "analyzed", "total_ns": 2,
                           "spans": {}, "counters": {}, "peaks": {}}]}"#,
        )
        .expect("sample document parses")
    }

    #[test]
    fn emitted_documents_validate() {
        let ((), rep) = crate::scoped(|| crate::count("analysis.positions_total", 1));
        validate_metrics(&rep.to_json("cqual", "poly")).expect("emitted doc must be schema-valid");
        validate_metrics(&sample_doc()).expect("a version-1 doc with units is schema-valid");
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut doc = sample_doc();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::num(METRICS_VERSION + 1);
        }
        let err = validate_metrics(&doc).unwrap_err();
        assert!(err.contains("newer than supported"), "{err}");
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let mut doc = sample_doc();
        if let Json::Obj(fields) = &mut doc {
            fields.push(("experimental".to_owned(), Json::Bool(true)));
        }
        validate_metrics(&doc).expect("unknown top-level fields are allowed");
    }

    #[test]
    fn bad_outcome_is_rejected() {
        let mut doc = sample_doc();
        if let Json::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key != "units" {
                    continue;
                }
                if let Json::Arr(units) = value {
                    if let Some(Json::Obj(unit_fields)) = units.first_mut() {
                        for (k, v) in unit_fields.iter_mut() {
                            if k == "outcome" {
                                *v = Json::Str("exploded".to_owned());
                            }
                        }
                    }
                }
            }
        }
        let err = validate_metrics(&doc).unwrap_err();
        assert!(err.contains("unknown outcome"), "{err}");
    }

    #[test]
    fn bench_documents_validate() {
        let doc = Json::Obj(vec![
            ("version".to_owned(), Json::num(BENCH_VERSION)),
            ("bench".to_owned(), Json::Str("table2".to_owned())),
            ("reps".to_owned(), Json::num(3)),
            (
                "rows".to_owned(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".to_owned(), Json::Str("woman-3.0a".to_owned())),
                    ("poly_constraints".to_owned(), Json::num(100)),
                    ("poly_ns".to_owned(), Json::num(12345)),
                ])]),
            ),
        ]);
        validate_bench(&doc).expect("well-formed bench doc");
        let bad = Json::Obj(vec![
            ("version".to_owned(), Json::num(BENCH_VERSION)),
            ("bench".to_owned(), Json::Str("table2".to_owned())),
            ("reps".to_owned(), Json::num(3)),
            (
                "rows".to_owned(),
                Json::Arr(vec![Json::Obj(vec![(
                    "poly_ns".to_owned(),
                    Json::num(1),
                )])]),
            ),
        ]);
        assert!(validate_bench(&bad).is_err(), "row without name must fail");
    }
}
