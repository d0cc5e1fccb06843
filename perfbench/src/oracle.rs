//! The correctness oracle. The plain (`cqual`) path's certified result
//! is the reference; the driver, the served reports and the served
//! query answers must equal it.

use qual_constinfer::{AnalysisOutcome, Position};
use qual_incr::proto::ReportFrame;
use qual_incr::serve::class_to_tag;
use qual_incr::IncrOutcome;
use qual_lattice::QualSpace;
use qual_solve::{ConstraintSet, QVar, Solution, VarSupply};

/// (function, param, level, declared, class tag).
pub type Pos = (String, Option<u32>, u32, bool, u8);

/// What a report says about a program, in a form every venue produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub counts: [u64; 3],
    pub quals: Vec<(String, u64, u64)>,
    /// Sorted, so venues that order positions differently still compare.
    pub positions: Vec<Pos>,
}

fn pos_of(p: &Position) -> Pos {
    (
        p.function.clone(),
        p.param.map(|i| i as u32),
        p.level as u32,
        p.declared,
        class_to_tag(p.class),
    )
}

fn sorted(mut v: Vec<Pos>) -> Vec<Pos> {
    v.sort();
    v
}

/// The plain path's answer, or why there is none. Requires a clean run
/// and a solution certified by `verify_solution`.
pub fn plain(out: &AnalysisOutcome, space: &QualSpace) -> Result<Answer, String> {
    if !out.skipped.is_empty() {
        return Err(format!(
            "{} diagnostic(s) on a generated program",
            out.skipped.len()
        ));
    }
    let r = out.result.as_ref().ok_or("no result")?;
    let sol = r.analysis.solution.as_ref().map_err(|e| format!("{e:?}"))?;
    qual_solve::verify_solution(space, r.analysis.constraints.constraints(), sol)
        .map_err(|e| format!("solution failed certification: {e}"))?;
    Ok(Answer {
        counts: [
            r.counts.total as u64,
            r.counts.declared as u64,
            r.counts.inferred as u64,
        ],
        quals: r
            .qual_counts
            .iter()
            .map(|q| (q.name.clone(), q.may as u64, q.must as u64))
            .collect(),
        positions: sorted(r.positions.iter().map(pos_of).collect()),
    })
}

pub fn driver(out: &IncrOutcome) -> Result<Answer, String> {
    if !out.skipped.is_empty() || !out.cache_diags.is_empty() {
        return Err(format!(
            "{} diagnostic(s), {} cache note(s)",
            out.skipped.len(),
            out.cache_diags.len()
        ));
    }
    let c = out.counts.ok_or("no counts")?;
    Ok(Answer {
        counts: [c.total as u64, c.declared as u64, c.inferred as u64],
        quals: out
            .qual_counts
            .iter()
            .map(|q| (q.name.clone(), q.may as u64, q.must as u64))
            .collect(),
        positions: sorted(out.positions.iter().map(pos_of).collect()),
    })
}

pub fn served(rep: &ReportFrame) -> Result<Answer, String> {
    if !rep.skipped.is_empty() || rep.cert_failures != 0 || rep.quarantined != 0 {
        return Err(format!(
            "{} diagnostic(s), {} certification failure(s), {} quarantined",
            rep.skipped.len(),
            rep.cert_failures,
            rep.quarantined
        ));
    }
    Ok(Answer {
        counts: rep.counts.ok_or("no counts")?,
        quals: rep.qual_counts.clone(),
        positions: sorted(
            rep.positions
                .iter()
                .map(|p| (p.function.clone(), p.param, p.level, p.declared, p.class))
                .collect(),
        ),
    })
}

/// Whether the dense solver's solution equals the retained reference
/// solver's on every variable.
pub fn same_as_reference(
    cs: &ConstraintSet,
    space: &QualSpace,
    supply: &VarSupply,
    dense: &Solution,
    steps: u64,
) -> bool {
    let Ok(reference) = cs.solve_with_budget_reference(space, supply, steps) else {
        return false;
    };
    dense.var_count() == reference.var_count()
        && (0..dense.var_count()).all(|i| {
            let v = QVar::from_index(i);
            dense.least(v) == reference.least(v) && dense.greatest(v) == reference.greatest(v)
        })
}
