//! Regenerates **Table 2** of the paper: per-benchmark compile time and
//! monomorphic and polymorphic inference time (each the median of five
//! runs, with the minimum alongside — the paper averaged five; medians
//! resist timer noise better), and the four const counts (Declared, Mono,
//! Poly, Total possible). Every row is **certified**: the solver's solution is
//! re-checked against the full constraint set before its counts are
//! printed, and a benchmark whose analysis or certification fails prints
//! its diagnostics and is skipped while the rest of the table completes.
//!
//! Absolute numbers differ from the paper (different hardware, simulated
//! benchmarks); the shapes to check are: Declared ≤ Mono ≤ Poly ≤ Total,
//! poly/mono time ratio ≤ ~3, and inference time roughly linear in
//! program size.

use qual_bench::measure_certified;
use qual_cgen::bench_profiles;

fn main() {
    let runs = if std::env::args().any(|a| a == "--quick") {
        1
    } else {
        5
    };
    println!("Table 2: Number of inferred possibly-const positions for benchmarks");
    println!("(times are median/min over {} run(s))", runs.max(3));
    println!(
        "{:<16} {:>9} {:>20} {:>17} {:>17} {:>9} {:>6} {:>6} {:>15}",
        "Name",
        "Lines",
        "Compile med/min (s)",
        "Mono med/min (s)",
        "Poly med/min (s)",
        "Declared",
        "Mono",
        "Poly",
        "Total possible"
    );
    println!("{}", "-".repeat(124));
    let mut rows = Vec::new();
    let mut failed = 0usize;
    for p in bench_profiles() {
        let m = measure_certified(&p, runs);
        for d in &m.skipped {
            eprint!("{}", d.render(None));
        }
        let Some(row) = m.row else {
            failed += 1;
            println!(
                "{:<16} (no certified counts: {} diagnostic(s); see stderr)",
                m.name,
                m.skipped.len()
            );
            continue;
        };
        println!(
            "{:<16} {:>9} {:>20} {:>17} {:>17} {:>9} {:>6} {:>6} {:>15}",
            row.name,
            row.lines,
            format!(
                "{:.3}/{:.3}",
                row.compile.as_secs_f64(),
                row.compile_min.as_secs_f64()
            ),
            format!(
                "{:.3}/{:.3}",
                row.mono_time.as_secs_f64(),
                row.mono_min.as_secs_f64()
            ),
            format!(
                "{:.3}/{:.3}",
                row.poly_time.as_secs_f64(),
                row.poly_min.as_secs_f64()
            ),
            row.declared,
            row.mono,
            row.poly,
            row.total
        );
        rows.push(row);
    }
    println!();
    // The paper's headline checks, plus the hardware-independent size
    // proxies (constraint counts and solver steps from the
    // observability layer) behind each timing.
    for row in &rows {
        let ratio = row.poly_time.as_secs_f64() / row.mono_time.as_secs_f64().max(1e-9);
        let extra = row.poly as f64 / row.mono.max(1) as f64;
        println!(
            "{:<16} poly/mono time ratio {ratio:>5.2}   poly finds {:>5.1}% more consts than mono   consts vs declared {:>4.2}x",
            row.name,
            (extra - 1.0) * 100.0,
            row.poly as f64 / row.declared.max(1) as f64
        );
        println!(
            "{:<16} constraints mono {} / poly {}   solver steps mono {} / poly {}",
            "", row.mono_constraints, row.poly_constraints, row.mono_steps, row.poly_steps
        );
    }
    if failed > 0 {
        eprintln!("table2: {failed} benchmark(s) produced no certified row");
    }
}
