//! The dense-vs-reference differential oracle.
//!
//! The CSR solver (`dense.rs`) replaced the sparse worklist on the hot
//! path; the original solver survives as
//! [`ConstraintSet::solve_with_budget_reference`], an executable spec.
//! This suite pins the contract between them: **byte-identical results
//! on every input** — solutions (per-variable least *and* greatest),
//! unsat diagnostics (the violation list, element for element, in
//! order), and explanation chains (step for step, span for span).
//!
//! Two layers:
//!
//! * **Part A** — cgen-seeded end-to-end programs: every profile
//!   composition × all qualifier sets × mono/poly/polyrec, solved by
//!   the dense path inside the analysis engine and re-solved by the
//!   reference path from the exact same constraint set. Case count
//!   defaults to 300 (`QUAL_DENSE_CASES`); on a mismatch the offending
//!   C program is dumped to `QUAL_DENSE_CORPUS_DIR` (if set) so CI can
//!   upload it as an artifact.
//! * **Part B** — coalescing-directed generators aimed at the dense
//!   solver's simplification machinery: long cycles and equality chains
//!   (contracted by the solve-time Tarjan pass, pinned by the
//!   `solve.collapsed` counter), diamond chains (single-predecessor
//!   coalescing must *not* fire at joins), self-loops (inert), masked
//!   cycles whose mask equals the space top without being `u64::MAX`
//!   (still full-mask to the solver, so Tarjan collapses them), and
//!   random systems.

use std::fmt::Write as _;

use proptest::prelude::*;
use qual_lattice::{QualSet, QualSpace, QualSpaceBuilder};
use qual_solve::{
    explain, verify_explanation, verify_solution, ConstraintSet, QVar, Qual, SolveFailure,
    VarSupply,
};

/// The qualifier sets Part A runs every program through: the paper's
/// const analysis, a mixed-polarity pair, a negative-polarity set, and
/// the full three-qualifier space.
const QUAL_SETS: &[&str] = &["const", "const,nonnull", "tainted", "const,nonnull,tainted"];

fn cases() -> u32 {
    std::env::var("QUAL_DENSE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// Solves `cs` on both paths and demands byte identity. Returns a
/// human-readable description of the first divergence, if any.
fn diff_paths(space: &QualSpace, vars: &VarSupply, cs: &ConstraintSet) -> Result<(), String> {
    let dense = cs.solve_with_budget(space, vars, u64::MAX);
    let reference = cs.solve_with_budget_reference(space, vars, u64::MAX);
    match (&dense, &reference) {
        (Ok(d), Ok(r)) => {
            for i in 0..vars.count() {
                let v = QVar::from_index(i);
                if d.least(v) != r.least(v) {
                    return Err(format!(
                        "least diverges at var {i}: dense {:?}, reference {:?}",
                        d.least(v),
                        r.least(v)
                    ));
                }
                if d.greatest(v) != r.greatest(v) {
                    return Err(format!(
                        "greatest diverges at var {i}: dense {:?}, reference {:?}",
                        d.greatest(v),
                        r.greatest(v)
                    ));
                }
            }
            // Both endpoints must certify under the independent checker
            // (identity alone would let a shared bug through).
            for (name, sol) in [("dense", d), ("reference", r)] {
                if let Err(e) = verify_solution(space, cs.constraints(), sol) {
                    return Err(format!("{name} solution failed certification: {e:?}"));
                }
            }
            Ok(())
        }
        (Err(SolveFailure::Unsat(d)), Err(SolveFailure::Unsat(r))) => {
            if d != r {
                return Err(format!(
                    "violation lists diverge:\n  dense:     {d:?}\n  reference: {r:?}"
                ));
            }
            // Identical diagnostics must yield identical explanation
            // chains, and every chain must replay through the verifier.
            let de = explain(space, cs.constraints(), d);
            let re = explain(space, cs.constraints(), r);
            if de != re {
                return Err(format!(
                    "explanation chains diverge:\n  dense:     {de:?}\n  reference: {re:?}"
                ));
            }
            if de.len() != d.violations.len() {
                return Err(format!(
                    "{} of {} violations explained",
                    de.len(),
                    d.violations.len()
                ));
            }
            for exp in &de {
                if let Err(e) = verify_explanation(space, exp) {
                    return Err(format!("explanation failed to replay: {e:?}"));
                }
            }
            Ok(())
        }
        _ => Err(format!(
            "outcome kind diverges:\n  dense:     {dense:?}\n  reference: {reference:?}"
        )),
    }
}

// ---------------------------------------------------------------------------
// Part A: end-to-end cgen-seeded programs.
// ---------------------------------------------------------------------------

/// Dumps a failing program (plus the context that exposed it) into
/// `QUAL_DENSE_CORPUS_DIR` so the CI job can upload it as an artifact.
fn dump_corpus(src: &str, quals: &str, mode: qual_constinfer::Mode, detail: &str) {
    let Ok(dir) = std::env::var("QUAL_DENSE_CORPUS_DIR") else {
        return;
    };
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    // Stable content-derived name: re-runs of the same failure overwrite
    // rather than accumulate.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in src.bytes().chain(quals.bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut report = String::new();
    let _ = writeln!(report, "// quals: {quals}");
    let _ = writeln!(report, "// mode: {mode:?}");
    for line in detail.lines() {
        let _ = writeln!(report, "// {line}");
    }
    let _ = writeln!(report, "{src}");
    let _ = std::fs::write(format!("{dir}/mismatch-{h:016x}.c"), report);
}

/// Runs one generated program through the full analysis in `mode` over
/// `quals`, then re-solves the engine's constraint set on the reference
/// path and demands identical results.
fn check_program(src: &str, quals: &str, mode: qual_constinfer::Mode) -> Result<(), String> {
    let space = qual_constinfer::space_for(quals).map_err(|e| format!("space_for: {e:?}"))?;
    let r = qual_constinfer::analyze_source_in(src, &space, mode)
        .map_err(|e| format!("analysis rejected generated program: {e:?}"))?;
    let a = &r.analysis;

    // The engine solved with the dense path. Re-solve the same set on
    // the reference path.
    let reference = a
        .constraints
        .solve_with_budget_reference(&a.space, &a.supply, u64::MAX);
    match (&a.solution, &reference) {
        (Ok(d), Ok(r)) => {
            for i in 0..a.supply.count() {
                let v = QVar::from_index(i);
                if d.least(v) != r.least(v) || d.greatest(v) != r.greatest(v) {
                    return Err(format!(
                        "solution diverges at var {i}: dense ({:?}, {:?}) vs reference ({:?}, {:?})",
                        d.least(v),
                        d.greatest(v),
                        r.least(v),
                        r.greatest(v)
                    ));
                }
            }
            if let Err(e) = verify_solution(&a.space, a.constraints.constraints(), d) {
                return Err(format!("dense solution failed certification: {e:?}"));
            }
            Ok(())
        }
        (Err(SolveFailure::Unsat(d)), Err(SolveFailure::Unsat(r))) => {
            if d != r {
                return Err(format!(
                    "diagnostics diverge:\n  dense:     {d:?}\n  reference: {r:?}"
                ));
            }
            let de = explain(&a.space, a.constraints.constraints(), d);
            let re = explain(&a.space, a.constraints.constraints(), r);
            if de != re {
                return Err("explanation chains diverge".into());
            }
            Ok(())
        }
        _ => Err(format!(
            "outcome kind diverges: dense {:?} vs reference {:?}",
            a.solution.is_ok(),
            reference.is_ok()
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// 300+ cgen-seeded programs (every profile composition, random
    /// seeds and sizes) × all qualifier sets × all three analysis
    /// modes: dense and reference agree byte for byte.
    #[test]
    fn dense_matches_reference_on_generated_programs(
        seed in any::<u64>(),
        base in 0usize..7,
        lines in 40usize..120,
    ) {
        let mut profile = qual_cgen::bench_profiles()[base].scaled(lines);
        profile.seed = seed;
        let src = qual_cgen::generate(&profile);
        for quals in QUAL_SETS {
            for mode in [
                qual_constinfer::Mode::Monomorphic,
                qual_constinfer::Mode::Polymorphic,
                qual_constinfer::Mode::PolymorphicRecursive,
            ] {
                if let Err(detail) = check_program(&src, quals, mode) {
                    dump_corpus(&src, quals, mode, &detail);
                    prop_assert!(false, "[{quals} / {mode:?}] {detail}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Part B: coalescing-directed generators.
// ---------------------------------------------------------------------------

/// A small mixed-polarity space: two positive, one negative qualifier.
fn small_space() -> QualSpace {
    QualSpaceBuilder::new()
        .positive("p0")
        .negative("n0")
        .positive("p1")
        .build()
        .unwrap()
}

fn supply(n: usize) -> VarSupply {
    let mut vars = VarSupply::new();
    for _ in 0..n {
        vars.fresh();
    }
    vars
}

fn var(i: usize) -> Qual {
    Qual::Var(QVar::from_index(i))
}

fn konst(bits: u64) -> Qual {
    Qual::Const(QualSet::from_bits(bits))
}

/// Long full-mask cycles with a seed flowing in: Tarjan contracts the
/// cycle, and both ends of it must land on the same value as the
/// reference fixpoint.
#[test]
fn long_cycles_collapse_exactly() {
    let space = small_space();
    for len in 2..50 {
        let vars = supply(len + 1);
        let mut cs = ConstraintSet::new();
        // v0 -> v1 -> ... -> v_{len-1} -> v0, seeded at v0 and drained
        // into a fresh tail var so expansion is exercised.
        for i in 0..len {
            cs.add(var(i), var((i + 1) % len));
        }
        cs.add(konst(0b01), var(0));
        cs.add(var(len / 2), var(len));
        diff_paths(&space, &vars, &cs).unwrap_or_else(|e| panic!("cycle len {len}: {e}"));
    }
}

/// Every adjacent pair of a chain asserted as an explicit equality (the
/// shape `add_eq` emits): the whole chain is one SCC, so all but one
/// variable fold into its representative.
#[test]
fn dense_equality_cycles_collapse_online() {
    let space = small_space();
    for len in 2..20 {
        let vars = supply(len);
        let mut cs = ConstraintSet::new();
        for i in 0..len - 1 {
            cs.add(var(i), var(i + 1));
            cs.add(var(i + 1), var(i));
        }
        cs.add(konst(0b100), var(len - 1));
        let (diff, report) = qual_obs::scoped(|| diff_paths(&space, &vars, &cs));
        diff.unwrap_or_else(|e| panic!("eq cycle len {len}: {e}"));
        assert_eq!(
            report.counter("solve.collapsed"),
            len as u64 - 1,
            "equality chain of {len} must collapse to one class"
        );
    }
}

/// Diamond chains: each layer fans out and re-joins, so the join node
/// has two predecessors and single-predecessor coalescing must not
/// alias it to either branch.
#[test]
fn diamond_chains_do_not_over_coalesce() {
    let space = small_space();
    for diamonds in 1..12 {
        let vars = supply(3 * diamonds + 1);
        let mut cs = ConstraintSet::new();
        for d in 0..diamonds {
            let top = 3 * d;
            // top -> left, top -> right, left -> join, right -> join.
            cs.add(var(top), var(top + 1));
            cs.add(var(top), var(top + 2));
            cs.add(var(top + 1), var(top + 3));
            cs.add(var(top + 2), var(top + 3));
            // One branch gets an extra seed so the two join inputs
            // genuinely differ.
            cs.add(konst(0b010), var(top + 1));
        }
        cs.add(konst(0b001), var(0));
        diff_paths(&space, &vars, &cs).unwrap_or_else(|e| panic!("{diamonds} diamonds: {e}"));
    }
}

/// Pure chains are where single-predecessor coalescing fires hardest:
/// every interior variable is an alias of its predecessor.
#[test]
fn straight_chains_coalesce_exactly() {
    let space = small_space();
    for len in [2usize, 7, 33, 64, 129] {
        let vars = supply(len);
        let mut cs = ConstraintSet::new();
        cs.add(konst(0b011), var(0));
        for i in 0..len - 1 {
            cs.add(var(i), var(i + 1));
        }
        // Cap the far end so the greatest side also has structure.
        cs.add(var(len - 1), konst(0b011));
        diff_paths(&space, &vars, &cs).unwrap_or_else(|e| panic!("chain len {len}: {e}"));
    }
}

/// Self-loops (full-mask and masked) are inert on both paths.
#[test]
fn self_loops_are_inert() {
    let space = small_space();
    let vars = supply(3);
    let mut cs = ConstraintSet::new();
    cs.add(var(0), var(0));
    cs.add_masked(
        var(1),
        var(1),
        &[space.iter().next().unwrap().0],
        qual_solve::Provenance::synthetic("self-loop"),
    );
    cs.add(konst(0b001), var(0));
    cs.add(var(1), var(2));
    diff_paths(&space, &vars, &cs).unwrap_or_else(|e| panic!("{e}"));
}

/// A cycle whose edges carry `mask == top` but not `u64::MAX`: the
/// solver classifies edges by their mask within the space, so the
/// Tarjan pass must still collapse it.
#[test]
fn masked_top_cycles_collapse_at_solve_time() {
    let space = small_space();
    let all_ids: Vec<_> = space.iter().map(|(id, _)| id).collect();
    for len in 2..16 {
        let vars = supply(len);
        let mut cs = ConstraintSet::new();
        for i in 0..len {
            cs.add_masked(
                var(i),
                var((i + 1) % len),
                &all_ids,
                qual_solve::Provenance::synthetic("masked cycle"),
            );
        }
        cs.add(konst(0b001), var(0));
        let (diff, report) = qual_obs::scoped(|| diff_paths(&space, &vars, &cs));
        diff.unwrap_or_else(|e| panic!("masked cycle len {len}: {e}"));
        assert_eq!(
            report.counter("solve.collapsed"),
            len as u64 - 1,
            "a cycle masked with the whole space must collapse at solve time"
        );
    }
}

/// Unsat through a collapsed cycle: the violation must cite the
/// *original* constraint (not a remapped id), so the explanation chain
/// renders against real provenance on both paths.
#[test]
fn unsat_inside_a_cycle_reports_original_constraints() {
    let space = small_space();
    let vars = supply(4);
    let mut cs = ConstraintSet::new();
    // 2-cycle v1 = v2, seeded with p0|p1, capped (through v3) at p0
    // only: unsat at the p1 coordinate.
    cs.add(var(1), var(2));
    cs.add(var(2), var(1));
    cs.add(konst(0b101), var(1));
    cs.add(var(2), var(3));
    cs.add(var(3), konst(0b001));
    diff_paths(&space, &vars, &cs).unwrap_or_else(|e| panic!("{e}"));
    let err = match cs.solve_with_budget(&space, &vars, u64::MAX) {
        Err(SolveFailure::Unsat(e)) => e,
        other => panic!("expected unsat, got {other:?}"),
    };
    assert_eq!(err.violations.len(), 1);
    // The cited constraint is the literal final cap, untouched by the
    // cycle collapse that swallowed v1/v2.
    assert_eq!(err.violations[0].constraint.lhs, var(3));
    assert_eq!(err.violations[0].constraint.rhs, konst(0b001));
    let exps = explain(&space, cs.constraints(), &err);
    assert_eq!(exps.len(), 1);
    verify_explanation(&space, &exps[0]).expect("chain must replay");
}

// ---------------------------------------------------------------------------
// Part B (random): arbitrary small systems.
// ---------------------------------------------------------------------------

const NVARS: usize = 6;

/// Terms in a byte: 0..NVARS = variables, NVARS.. = constants.
fn decode(space: &QualSpace, code: u8) -> Qual {
    let n = NVARS as u8;
    if code < n {
        var(code as usize)
    } else {
        konst(u64::from(code - n) & space.top().bits())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random systems (cycles, unsat cores, masked edges all arise by
    /// chance): dense and reference agree, and both certify.
    #[test]
    fn random_systems_agree_under_collapse(
        raw in prop::collection::vec((0u8..14, 0u8..14), 0..24),
    ) {
        let space = small_space();
        let vars = supply(NVARS);
        let mut cs = ConstraintSet::new();
        for &(l, r) in &raw {
            cs.add(decode(&space, l), decode(&space, r));
        }
        if let Err(e) = diff_paths(&space, &vars, &cs) {
            prop_assert!(false, "{}", e);
        }
    }
}

// ---------------------------------------------------------------------------
// The headline perf claim, pinned as a count (not a timing).
// ---------------------------------------------------------------------------

/// The dense path must take ≥5× fewer `solve.steps` per constraint than
/// the reference path on a large cgen profile. Steps are deterministic
/// counts (edge relaxations plus simplification charges), so this is a
/// stable gate, not a wall-clock assertion. The graph-shrinking counts
/// on the same program are pinned exactly: any change to cycle collapse
/// or chain coalescing that alters what gets contracted shows here.
#[test]
fn dense_takes_five_times_fewer_steps_on_large_profiles() {
    let profile = qual_cgen::bench_profiles()[5].scaled(4_000); // uucp composition
    let src = qual_cgen::generate(&profile);
    let space = qual_constinfer::space_for("const").unwrap();
    let r = qual_constinfer::analyze_source_in(&src, &space, qual_constinfer::Mode::Monomorphic)
        .expect("generated program must analyze");
    let a = &r.analysis;
    let n = a.constraints.constraints().len() as u64;
    assert!(n > 1_000, "profile too small to be meaningful ({n} constraints)");

    let (dense, dense_report) = qual_obs::scoped(|| {
        a.constraints
            .solve_with_budget(&a.space, &a.supply, u64::MAX)
    });
    let (reference, ref_report) = qual_obs::scoped(|| {
        a.constraints
            .solve_with_budget_reference(&a.space, &a.supply, u64::MAX)
    });
    assert!(dense.is_ok() && reference.is_ok());

    let dense_steps = dense_report.counter("solve.steps");
    let ref_steps = ref_report.counter("solve.steps");
    assert!(
        dense_steps * 5 <= ref_steps,
        "dense {dense_steps} steps vs reference {ref_steps} on {n} constraints: \
         less than the required 5x reduction ({:.2}x)",
        ref_steps as f64 / dense_steps.max(1) as f64
    );
    assert_eq!(dense_report.counter("solve.collapsed"), 217);
    assert_eq!(dense_report.counter("solve.coalesced"), 3829);
}
