//! The traced replay: each layer's public entry points called one at a
//! time, in pipeline order, each call inside a span.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;

use qual_cfront::ast::Item;
use qual_cfront::pretty::render_item_text;
use qual_cfront::{lexer, parse_with_recovery, sema};
use qual_constinfer::count::summarize;
use qual_constinfer::fdg::{mentioned_names, Fdg};
use qual_constinfer::summary::{
    analyze_unit, decode_summary, encode_summary, verify_summary, CanonScheme, UnitKind,
    UnitRequest, FORMAT_VERSION,
};
use qual_constinfer::{recover_front_end, run_budgeted, Budgets, Mode, Options};
use qual_incr::cache::{self, Key, KeyHasher, Load, RetryPolicy};
use qual_lattice::QualSpace;

use crate::inputs::Program;
use crate::oracle;
use crate::report::Tally;
use crate::trace::Recorder;

/// Front end, constraint generation, solving and counting of one
/// program, by the plain path's steps.
#[derive(Default, Clone, Copy)]
pub struct Infer {
    pub lex_ms: f64,
    pub tokens: f64,
    /// `parse_with_recovery` including its own lexing.
    pub parse_total_ms: f64,
    pub sema_ms: f64,
    pub fdg_ms: f64,
    pub cgen_ms: f64,
    pub cgen_mono_ms: f64,
    pub constraints: f64,
    pub count_ms: f64,
    pub propagate_ms: f64,
    pub collapsed: f64,
    pub coalesced: f64,
    pub certify_ms: f64,
    /// The plain path's own calls (parse, sema, inference, count) as
    /// timed under tracing.
    pub traced_e2e_ms: f64,
}

impl Infer {
    pub fn add(&mut self, o: &Infer) {
        self.lex_ms += o.lex_ms;
        self.tokens += o.tokens;
        self.parse_total_ms += o.parse_total_ms;
        self.sema_ms += o.sema_ms;
        self.fdg_ms += o.fdg_ms;
        self.cgen_ms += o.cgen_ms;
        self.cgen_mono_ms += o.cgen_mono_ms;
        self.constraints += o.constraints;
        self.count_ms += o.count_ms;
        self.propagate_ms += o.propagate_ms;
        self.collapsed += o.collapsed;
        self.coalesced += o.coalesced;
        self.certify_ms += o.certify_ms;
        self.traced_e2e_ms += o.traced_e2e_ms;
    }

    pub fn front_ms(&self) -> f64 {
        self.parse_total_ms + self.sema_ms
    }
}

pub fn infer(rec: &mut Recorder, p: &Program, space: &QualSpace, tally: &mut Tally) -> Infer {
    let mut l = Infer::default();
    let steps = Budgets::default().max_solver_steps;

    let (tokens, ms) = rec.time("cfront.lex", || lexer::lex(&p.src));
    l.lex_ms = ms;
    tally.check(tokens.is_ok(), || format!("{}: lex failed", p.name));
    l.tokens = tokens.map_or(0, |t| t.len()) as f64;

    let (parsed, ms) = rec.time("cfront.parse_with_recovery", || parse_with_recovery(&p.src));
    l.parse_total_ms = ms;
    tally.check(parsed.errors.is_empty(), || {
        format!("{}: parse errors", p.name)
    });
    let program = parsed.program;

    let (rs, ms) = rec.time("cfront.sema", || sema::analyze_with_recovery(&program));
    l.sema_ms = ms;
    tally.check(
        rs.failed_functions.is_empty() && rs.failed_globals.is_empty(),
        || format!("{}: sema failures", p.name),
    );
    let sema = rs.sema;

    let (_, ms) = rec.time("constinfer.fdg", || {
        let fdg = Fdg::build(&program);
        black_box(fdg.wavefronts());
        black_box(fdg)
    });
    l.fdg_ms = ms;

    let ((analysis, diags), run_ms) = rec.time("constinfer.run_budgeted", || {
        run_budgeted(
            &program,
            &sema,
            space,
            Mode::Polymorphic,
            Options::default(),
            Budgets::default(),
        )
    });
    tally.check(diags.is_empty(), || {
        format!("{}: engine diagnostics", p.name)
    });
    l.constraints = analysis.constraints.len() as f64;

    // The engine's own solve, repeated on its constraint set: cgen is
    // run_budgeted minus this.
    let ((solution, counters), solve_ms) = rec.time("solve.solve_with_budget", || {
        qual_obs::scoped(|| {
            analysis
                .constraints
                .solve_with_budget(space, &analysis.supply, steps)
        })
    });
    l.propagate_ms = solve_ms;
    l.cgen_ms = run_ms - solve_ms;
    l.collapsed = counters.counter("solve.collapsed") as f64;
    l.coalesced = counters.counter("solve.coalesced") as f64;
    match &solution {
        Ok(sol) => {
            let (cert, ms) = rec.time("solve.verify_solution", || {
                qual_solve::verify_solution(space, analysis.constraints.constraints(), sol)
            });
            l.certify_ms = ms;
            tally.check(cert.is_ok(), || format!("{}: certification failed", p.name));
            let (same, _) = rec.time("oracle.reference_solver", || {
                oracle::same_as_reference(
                    &analysis.constraints,
                    space,
                    &analysis.supply,
                    sol,
                    steps,
                )
            });
            tally.check(same, || {
                format!("{}: dense and reference solutions differ", p.name)
            });
        }
        Err(e) => tally.check(false, || format!("{}: solve failed: {e:?}", p.name)),
    }

    let (result, ms) = rec.time("constinfer.summarize", || summarize(&program, analysis));
    l.count_ms = ms;
    black_box(result);
    l.traced_e2e_ms = l.parse_total_ms + l.sema_ms + run_ms + l.count_ms;

    let ((mono, _), mono_ms) = rec.time("constinfer.run_budgeted.mono", || {
        run_budgeted(
            &program,
            &sema,
            space,
            Mode::Monomorphic,
            Options::default(),
            Budgets::default(),
        )
    });
    let (_, mono_solve_ms) = rec.time("solve.solve_with_budget.mono", || {
        mono.constraints
            .solve_with_budget(space, &mono.supply, steps)
    });
    l.cgen_mono_ms = mono_ms - mono_solve_ms;
    l
}

/// The incremental driver's steps for one program, replayed from
/// outside: plan, then per unit in wavefront order `analyze_unit`,
/// `verify_summary`, encode, decode, and for a sample of units a store
/// and a load.
#[derive(Default)]
pub struct Driver {
    pub plan_ms: f64,
    pub unit_ms: f64,
    pub units: f64,
    pub certify_ms: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub bytes: f64,
    pub store_ms: Vec<f64>,
    pub load_ms: Vec<f64>,
}

impl Driver {
    pub fn add(&mut self, o: Driver) {
        self.plan_ms += o.plan_ms;
        self.unit_ms += o.unit_ms;
        self.units += o.units;
        self.certify_ms += o.certify_ms;
        self.encode_ms += o.encode_ms;
        self.decode_ms += o.decode_ms;
        self.bytes += o.bytes;
        self.store_ms.extend(o.store_ms);
        self.load_ms.extend(o.load_ms);
    }
}

/// Units stored and loaded per program: every store is fsync'd, so the
/// cost is sampled rather than paid for every unit.
const STORE_SAMPLE: usize = 200;

struct Plan {
    kind: UnitKind,
    key: Key,
    proxies: Vec<String>,
}

/// The driver's unit plan, rebuilt with the same keys: every item's
/// pretty-printed text, the environment key, and the transitive unit
/// keys.
fn plan(program: &qual_cfront::Program, fdg: &Fdg) -> Vec<Plan> {
    let cfg = qual_incr::IncrConfig::default();
    let mut func_text: HashMap<String, String> = HashMap::new();
    for item in &program.items {
        if let Item::Func(f) = item {
            func_text.insert(f.name.clone(), render_item_text(item));
        }
    }
    let defined: HashSet<&str> = fdg.names.iter().map(String::as_str).collect();
    let mut env = KeyHasher::new();
    env.u64(u64::from(FORMAT_VERSION));
    env.str("poly");
    env.bool(cfg.options.simplify_schemes);
    env.bool(cfg.options.verify_solutions);
    env.u64(cfg.budgets.max_constraints as u64);
    env.u64(cfg.budgets.max_solver_steps);
    env.u64(cfg.budgets.max_fn_work);
    for (_, d) in cfg.space.iter() {
        env.str(d.name());
        env.str(&d.polarity().to_string());
    }
    for item in &program.items {
        if !matches!(item, Item::Func(_)) {
            env.str(&render_item_text(item));
        }
    }
    let mut names: Vec<&String> = fdg.names.iter().collect();
    names.sort();
    for n in names {
        env.str(n);
    }

    let mut plans = Vec::with_capacity(fdg.sccs.len() + 1);
    let mut gp: Vec<String> = program
        .items
        .iter()
        .filter_map(|it| match it {
            Item::Global { init: Some(e), .. } => Some(mentioned_names(e)),
            _ => None,
        })
        .flatten()
        .filter(|n| defined.contains(n.as_str()))
        .collect();
    gp.sort();
    gp.dedup();
    let mut h = env.clone();
    h.str("globals");
    for n in &gp {
        h.str(n);
        h.str(&func_text[n]);
    }
    plans.push(Plan {
        kind: UnitKind::Globals,
        key: h.finish(),
        proxies: gp,
    });

    let mut scc_keys: Vec<Key> = Vec::with_capacity(fdg.sccs.len());
    for (i, scc) in fdg.sccs.iter().enumerate() {
        let members: Vec<String> = scc.iter().map(|&v| fdg.names[v].clone()).collect();
        let recursive = scc.len() > 1 || scc.first().is_some_and(|v| fdg.edges[*v].contains(v));
        let mut proxies: Vec<String> = scc
            .iter()
            .flat_map(|&v| fdg.edges[v].iter().map(|&w| fdg.names[w].clone()))
            .filter(|n| !members.contains(n))
            .collect();
        proxies.sort();
        proxies.dedup();
        let mut h = env.clone();
        h.str("scc");
        h.bool(recursive);
        for m in &members {
            h.str(m);
            h.str(&func_text[m]);
        }
        for c in fdg.scc_callees(i) {
            h.key(&scc_keys[c]);
        }
        let key = h.finish();
        scc_keys.push(key);
        plans.push(Plan {
            kind: UnitKind::Scc {
                names: members,
                recursive,
            },
            key,
            proxies,
        });
    }
    plans
}

pub fn driver(
    rec: &mut Recorder,
    p: &Program,
    space: &QualSpace,
    cache_dir: &Path,
    tally: &mut Tally,
) -> Driver {
    let mut d = Driver::default();
    let unit = recover_front_end(&p.src);
    let fdg = Fdg::build(&unit.program);
    let (plans, ms) = rec.time("incr.plan", || plan(&unit.program, &fdg));
    d.plan_ms = ms;
    let fronts = fdg.wavefronts();
    let stride = plans.len().div_ceil(STORE_SAMPLE).max(1);
    let policy = RetryPolicy::default();

    let mut order: Vec<Vec<usize>> = vec![vec![0]];
    order.extend(fronts.iter().map(|f| f.iter().map(|s| 1 + s).collect()));
    let mut scheme_pool: HashMap<String, CanonScheme> = HashMap::new();
    let mut failed_set: HashSet<String> = HashSet::new();
    for front in order {
        let mut published = Vec::new();
        for idx in front {
            let plan = &plans[idx];
            let schemes: Vec<CanonScheme> = plan
                .proxies
                .iter()
                .filter_map(|n| scheme_pool.get(n).cloned())
                .collect();
            let failed: Vec<String> = plan
                .proxies
                .iter()
                .filter(|n| failed_set.contains(*n))
                .cloned()
                .collect();
            let span = rec.enter("incr.unit", None);
            let req = UnitRequest {
                prog: &unit.program,
                sema: &unit.sema,
                space,
                mode: Mode::Polymorphic,
                options: Options::default(),
                budgets: Budgets::default(),
                kind: plan.kind.clone(),
                proxies: &plan.proxies,
                schemes: &schemes,
                failed: &failed,
            };
            let (summary, ms) = rec.time("incr.analyze_unit", || analyze_unit(&req));
            d.unit_ms += ms;
            d.units += 1.0;
            let (cert, ms) = rec.time("incr.verify_summary", || verify_summary(space, &summary));
            d.certify_ms += ms;
            tally.check(cert.is_ok() && summary.diagnostics.is_empty(), || {
                format!(
                    "{}: unit {idx} failed certification: {:?}",
                    p.name,
                    cert.err()
                )
            });
            let (bytes, ms) = rec.time("incr.cache.encode", || encode_summary(&summary));
            d.encode_ms += ms;
            d.bytes += bytes.len() as f64;
            let (decoded, ms) = rec.time("incr.cache.decode", || decode_summary(&bytes));
            d.decode_ms += ms;
            let round_trip = decoded.as_ref().is_ok_and(|s| encode_summary(s) == bytes);
            tally.check(round_trip, || {
                format!("{}: unit {idx} does not round-trip", p.name)
            });
            if idx % stride == 0 {
                let (stored, ms) = rec.time("incr.cache.store", || {
                    cache::store(cache_dir, &plan.key, &bytes, 1, policy)
                });
                d.store_ms.push(ms);
                let ((loaded, _), ms) = rec.time("incr.cache.load", || {
                    cache::load(cache_dir, &plan.key, policy)
                });
                d.load_ms.push(ms);
                let same = stored.is_ok()
                    && matches!(&loaded, Load::Payload { bytes: b, .. } if *b == bytes);
                tally.check(same, || {
                    format!("{}: unit {idx} store/load mismatch", p.name)
                });
            }
            rec.exit(span);
            published.push(summary);
        }
        for s in published {
            for sch in s.schemes {
                scheme_pool.insert(sch.func.clone(), sch);
            }
            failed_set.extend(s.failed);
        }
    }
    d
}
