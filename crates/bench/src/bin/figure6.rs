//! Regenerates **Figure 6** of the paper: for each benchmark, the
//! interesting const positions broken into stacked percentages —
//! Declared / Mono (extra) / Poly (extra) / Other — rendered as ASCII
//! bars. Counts come from certified solutions only; a benchmark that
//! fails to analyze or certify prints its diagnostics and is skipped
//! while the remaining bars render.

use qual_bench::measure_certified;
use qual_cgen::table1_profiles;

fn main() {
    println!("Figure 6: Number of inferred consts for benchmarks (percent of total)");
    println!();
    println!("legend: D = declared, M = mono-only, P = poly-only, . = other");
    println!();
    let mut failed = 0usize;
    for p in table1_profiles() {
        let m = measure_certified(&p, 1);
        for d in &m.skipped {
            eprint!("{}", d.render(None));
        }
        let Some(row) = m.row else {
            failed += 1;
            println!("{:<16} (no certified counts; see stderr)", m.name);
            continue;
        };
        let (d, m, x, o) = row.percentages();
        let width = 60usize;
        let dn = ((d / 100.0) * width as f64).round() as usize;
        let mn = ((m / 100.0) * width as f64).round() as usize;
        let xn = ((x / 100.0) * width as f64).round() as usize;
        let on = width.saturating_sub(dn + mn + xn);
        let mut chart = String::new();
        chart.extend(std::iter::repeat_n('D', dn));
        chart.extend(std::iter::repeat_n('M', mn));
        chart.extend(std::iter::repeat_n('P', xn));
        chart.extend(std::iter::repeat_n('.', on));
        println!(
            "{:<16} |{chart}| D {d:>5.1}%  M {m:>5.1}%  P {x:>5.1}%  other {o:>5.1}%",
            row.name
        );
    }
    println!();
    println!("(Each bar is the Total-possible positions of Table 2, normalized.)");
    if failed > 0 {
        eprintln!("figure6: {failed} benchmark(s) produced no certified bar");
    }
}
