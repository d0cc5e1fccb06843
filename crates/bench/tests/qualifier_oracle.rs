//! The qualifier-matrix oracle. A multi-qualifier run (`--qual
//! const,nonnull`, say) solves every coordinate in one word-parallel
//! propagation pass; this checks it against one separate single-qualifier
//! run per coordinate, end to end, on cgen-seeded programs:
//!
//! * for each qualifier `q` in the set, the multi run's `q` may/must
//!   row equals the row of the `--qual q` run;
//! * when `const` is in the set, the counts and every position's class
//!   equal the `--qual const` run's.
//!
//! `QUAL_ORACLE_QUALS` pins one set (CI runs one leg per set);
//! otherwise every set in [`QUAL_SETS`] runs. The case count defaults
//! to 10 and is tunable via `QUAL_QUAL_ORACLE_CASES` (CI pins
//! `PROPTEST_SEED`).

use proptest::prelude::*;
use qual_cgen::table1_profiles;
use qual_constinfer::{
    analyze_source_with_options_in, Budgets, ConstResult, Mode, Options, PositionClass,
};

/// The multi-qualifier sets the matrix certifies: every pair and all
/// three qualifiers at once.
const QUAL_SETS: &[&str] = &[
    "const,nonnull",
    "const,tainted",
    "nonnull,tainted",
    "const,nonnull,tainted",
];

fn cases() -> u32 {
    std::env::var("QUAL_QUAL_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// One clean engine run of `src` over `quals`, or why there is none.
fn run(src: &str, quals: &str, mode: Mode) -> Result<ConstResult, String> {
    let space = qual_constinfer::space_for(quals).map_err(|e| e.to_string())?;
    let out =
        analyze_source_with_options_in(src, &space, mode, Options::default(), Budgets::default());
    if !out.skipped.is_empty() {
        return Err(format!("[{quals}] {mode:?}: diagnostics {:?}", out.skipped));
    }
    out.result
        .ok_or_else(|| format!("[{quals}] {mode:?}: no solution"))
}

fn classes(r: &ConstResult) -> Vec<(String, bool, PositionClass)> {
    r.positions
        .iter()
        .map(|p| (p.label(), p.declared, p.class))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn multi_qualifier_rows_match_single_qualifier_runs(
        seed in any::<u64>(),
        base in 0usize..6,
        lines in 80usize..160,
    ) {
        let mut profile = table1_profiles()[base].scaled(lines);
        profile.seed = seed;
        let src = qual_cgen::generate(&profile);
        let pinned = std::env::var("QUAL_ORACLE_QUALS").ok();
        let sets: Vec<&str> = match &pinned {
            Some(one) => vec![one.as_str()],
            None => QUAL_SETS.to_vec(),
        };
        for mode in [Mode::Monomorphic, Mode::Polymorphic, Mode::PolymorphicRecursive] {
            for quals in &sets {
                let multi = run(&src, quals, mode).map_err(TestCaseError::fail)?;
                let names: Vec<&str> = quals.split(',').collect();
                prop_assert_eq!(multi.qual_counts.len(), names.len(), "[{}] {:?}", quals, mode);
                for name in names {
                    let single = run(&src, name, mode).map_err(TestCaseError::fail)?;
                    let row = multi.qual_counts.iter().find(|q| q.name == name);
                    prop_assert_eq!(
                        row,
                        single.qual_counts.first(),
                        "[{}] {:?}: the `{}` row differs from the `--qual {}` run",
                        quals,
                        mode,
                        name,
                        name
                    );
                    if name == "const" {
                        prop_assert_eq!(multi.counts, single.counts, "[{}] {:?}", quals, mode);
                        prop_assert_eq!(
                            classes(&multi),
                            classes(&single),
                            "[{}] {:?}: const classes differ from the `--qual const` run",
                            quals,
                            mode
                        );
                    }
                }
            }
        }
    }
}
