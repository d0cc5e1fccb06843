//! Incremental, parallel const-inference driver.
//!
//! The serial engine (`qual_constinfer::run_budgeted`) analyzes a whole
//! program in one constraint world. This crate re-plans the same
//! analysis as independent *units* — the globals unit plus one unit per
//! SCC of the function dependence graph — and:
//!
//! * schedules units in topological **wavefronts** over a scoped-thread
//!   worker pool (`jobs` workers; a whole wavefront's units are mutually
//!   independent);
//! * **content-addresses** each unit (hash of the analysis environment,
//!   the member functions' pretty-printed text, and — transitively — the
//!   keys of every callee unit) and persists solved unit summaries in an
//!   on-disk cache, so a warm rerun re-solves nothing;
//! * **splices** unit summaries back into one global constraint system
//!   through canonical anchor variables (see
//!   [`qual_constinfer::summary`]), in a fixed unit order, so counts and
//!   diagnostics are byte-identical no matter how many workers ran or
//!   which units came from the cache;
//! * re-verifies every cache hit with the independent certificate
//!   checker before trusting it (certification-on-reuse) — a corrupt,
//!   truncated, stale, or uncertifiable entry downgrades to a cold
//!   analysis with one structured diagnostic, never a crash.
//!
//! Fidelity vs. the serial engine: the const-able and declared position
//! sets agree (the differential oracle in `qual-bench` enforces this on
//! generated corpora); exact [`PositionClass`] values can differ at
//! declared-const levels of *failed* functions, and per-unit budget
//! accounting is local where the serial engine's is global. See
//! DESIGN.md §11.

pub mod cache;
pub mod proto;
pub mod serve;

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use qual_cfront::ast::{Item, Program};
use qual_cfront::pretty::render_item_text;
use qual_cfront::sema::Sema;
use qual_constinfer::engine::certify_solution;
use qual_constinfer::fdg::{mentioned_names, Fdg};
use qual_constinfer::summary::{
    analyze_unit, decode_summary, encode_summary, verify_summary, CanonQual,
    CanonScheme, CanonVar, UnitKind, UnitRequest, UnitSummary, FORMAT_VERSION,
};
use qual_constinfer::count::QualCount;
use qual_constinfer::quals;
use qual_constinfer::{
    recover_front_end, Budgets, ConstCounts, Mode, Options, Position,
    PositionClass, RecoveredUnit,
};
use qual_lattice::{QualSet, QualSpace};
use qual_solve::wire::intern_static;
use qual_solve::{
    diag, Constraint, ConstraintSet, Diagnostic, Phase, Provenance, QVar, Qual,
    SolveFailure, VarSupply,
};

use cache::{Key, KeyHasher, Load, RetryPolicy};

/// Configuration for one incremental run.
#[derive(Debug, Clone)]
pub struct IncrConfig {
    /// Analysis mode (same meanings as the serial engine).
    pub mode: Mode,
    /// The qualifier space to analyze over (built with
    /// [`qual_constinfer::quals::space_for`] from a `--qual` list). The
    /// space is part of every unit's cache key, so differing `--qual`
    /// sets never alias.
    pub space: QualSpace,
    /// Engine options.
    pub options: Options,
    /// Resource budgets. Generation budgets apply *per unit*; the
    /// solver-step budget applies to each unit's certificate solve and
    /// to the final merged solve.
    pub budgets: Budgets,
    /// Worker threads per wavefront. `1` runs serially (and is
    /// guaranteed byte-identical to any other value).
    pub jobs: usize,
    /// Where to persist unit summaries; `None` disables the cache.
    pub cache_dir: Option<PathBuf>,
    /// Wall-clock deadline per unit, in milliseconds. A unit past its
    /// deadline is cancelled cooperatively (the engine and solver poll
    /// between steps) and excluded like any other faulted unit. `None`
    /// disables deadlines.
    pub unit_deadline_ms: Option<u64>,
    /// Additional attempts after a transient cache I/O failure
    /// (0 = fail fast). Applies to entry reads, entry writes, and the
    /// session generation bump.
    pub max_retries: u32,
    /// Per-unit memory budget in MiB (`--memory-budget-mb`). A unit
    /// whose gross allocation exceeds it is quarantined with a
    /// structured diagnostic — the rollback-and-exclude path a
    /// solver-step overrun takes — instead of aborting the process.
    /// Only enforced in binaries that install the
    /// [`qual_obs::mem::TrackingAlloc`] shim; `None` disables it.
    pub memory_budget_mb: Option<u64>,
}

impl Default for IncrConfig {
    fn default() -> IncrConfig {
        IncrConfig {
            mode: Mode::Polymorphic,
            space: QualSpace::const_only(),
            options: Options::default(),
            budgets: Budgets::default(),
            jobs: 1,
            cache_dir: None,
            unit_deadline_ms: None,
            max_retries: RetryPolicy::default().max_retries,
            memory_budget_mb: None,
        }
    }
}

/// Work accounting for one incremental run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Total units planned (the globals unit plus one per SCC).
    pub units: usize,
    /// Units analyzed cold this run.
    pub analyzed: usize,
    /// Units reused from the cache (certificate re-verified).
    pub reused: usize,
    /// Cache entries found corrupt, undecodable, or uncertifiable.
    pub corrupt: usize,
    /// Units whose summaries were (re)written to the cache.
    pub stored: usize,
    /// FDG wavefronts (the globals unit runs before all of them).
    pub wavefronts: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Constraints in the merged global system.
    pub constraints: usize,
    /// Units quarantined after a worker panic (analysis degraded, run
    /// continued).
    pub quarantined: usize,
    /// Cache I/O retries spent across all loads, stores, and the
    /// session open.
    pub retries: u64,
    /// Time spent waiting on the shared cache's advisory lock, in
    /// milliseconds.
    pub lock_wait_ms: u64,
    /// Stale cache locks stolen from dead sessions.
    pub lock_steals: u32,
    /// This run's cache generation (0 = no cache or counter
    /// unreachable).
    pub generation: u64,
}

/// The result of an incremental run — the same counts, positions, and
/// diagnostics a serial [`qual_constinfer::analyze_source_with_options`]
/// run reports, plus cache/parallelism accounting.
#[derive(Debug)]
pub struct IncrOutcome {
    /// Table-2 style totals; `None` when the merged solve failed.
    pub counts: Option<ConstCounts>,
    /// Per-qualifier may/must tallies, one row per coordinate of the
    /// analyzed space in declaration order; empty when the merged solve
    /// failed.
    pub qual_counts: Vec<QualCount>,
    /// Per-position classification, in program order.
    pub positions: Vec<Position>,
    /// The pruned program the counts describe.
    pub program: Program,
    /// Analysis diagnostics (front end, per-unit faults, solve), in
    /// pipeline order — identical for any `jobs`/cache state.
    pub skipped: Vec<Diagnostic>,
    /// Cache infrastructure diagnostics (corrupt entries, store
    /// failures). Kept separate from [`IncrOutcome::skipped`] so cache
    /// trouble never changes analysis results or exit codes.
    pub cache_diags: Vec<Diagnostic>,
    /// Work accounting.
    pub stats: IncrStats,
}

impl IncrOutcome {
    /// Whether the analysis itself (cache trouble aside) was clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty() && self.counts.is_some()
    }
}

/// One planned unit.
struct UnitPlan {
    kind: UnitKind,
    key: Key,
    proxies: Vec<String>,
    /// Human-readable name for diagnostics ("globals" or the members).
    label: String,
}

/// What executing one unit produced.
struct Executed {
    summary: UnitSummary,
    reused: bool,
    corrupt: Option<String>,
    stored: bool,
    store_err: Option<String>,
    /// Cache I/O retries this unit spent (load + store).
    retries: u64,
    /// Whether the unit was quarantined after a worker panic.
    quarantined: bool,
    /// Spans/counters captured on the executing worker (empty when
    /// metrics are off). Carried back so the driver can absorb unit
    /// reports in deterministic unit order, not completion order.
    metrics: qual_obs::Report,
}

/// Everything a worker needs to execute units, shared immutably.
struct UnitCtx<'a> {
    prog: &'a Program,
    sema: &'a Sema,
    space: &'a QualSpace,
    cfg: &'a IncrConfig,
    /// This session's cache generation (stamped into stored entries).
    generation: u64,
    policy: RetryPolicy,
    /// Disk-full degrade latch (retry suppression while degraded).
    health: &'a cache::Health,
}

/// One unit's dispatch record for a wavefront: the global plan index
/// plus the callee schemes and failed-function names it imports from
/// earlier fronts.
type FrontInput = (usize, Vec<CanonScheme>, Vec<String>);

/// Executes one wavefront's units on up to `jobs` scoped threads.
/// Always returns exactly one result per input, sorted by unit index —
/// no matter how many threads the fault plan kills along the way.
fn execute_front(
    ctx: &UnitCtx<'_>,
    plans: &[UnitPlan],
    inputs: &[FrontInput],
    jobs: usize,
) -> Vec<(usize, Executed)> {
    let mut results: Vec<(usize, Executed)> = Vec::new();
    if inputs.len() > 1 && jobs > 1 {
        let next = AtomicUsize::new(0);
        let out: Mutex<Vec<(usize, Executed)>> = Mutex::new(Vec::new());
        std::thread::scope(|sc| {
            for _ in 0..jobs.min(inputs.len()) {
                // A worker that panics would poison `scope`'s join and
                // abort the whole run, so the entire worker body sits
                // under `catch_unwind`: a dying worker (e.g. an
                // injected `worker.spawn` fault) exits cleanly, its
                // claimed unit is simply missing from `out`, and the
                // sweep below re-runs it inline.
                sc.spawn(|| {
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        qual_faultpoint::maybe_panic("worker.spawn");
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some((idx, schemes, failed)) = inputs.get(i)
                            else {
                                break;
                            };
                            let ex = run_supervised(
                                ctx,
                                &plans[*idx],
                                schemes,
                                failed,
                            );
                            out.lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push((*idx, ex));
                        }
                    }));
                });
            }
        });
        // A lock poisoned by a worker that died mid-`push` may hold a
        // partial batch; every unit it did record is still whole (push
        // is all-or-nothing for our Vec), and anything lost gets re-run
        // by the sweep.
        results.extend(
            out.into_inner().unwrap_or_else(PoisonError::into_inner),
        );
    } else {
        for (idx, schemes, failed) in inputs {
            results.push((*idx, run_supervised(ctx, &plans[*idx], schemes, failed)));
        }
    }

    // Supervision sweep: any unit claimed by a worker thread that died
    // before reporting is re-run inline. This guarantees every unit
    // produces a summary no matter how many workers the fault plan
    // kills.
    if results.len() != inputs.len() {
        let have: HashSet<usize> = results.iter().map(|(idx, _)| *idx).collect();
        for (idx, schemes, failed) in inputs {
            if !have.contains(idx) {
                let ex = run_supervised(ctx, &plans[*idx], schemes, failed);
                results.push((*idx, ex));
            }
        }
    }

    results.sort_by_key(|(idx, _)| *idx);
    results
}

/// The deterministic unit plan for one source + configuration.
struct Planned {
    program: Program,
    sema: Sema,
    skipped: Vec<Diagnostic>,
    space: QualSpace,
    plans: Vec<UnitPlan>,
    /// FDG wavefronts; entries index `fdg.sccs`, i.e. `plans[1 + s]`.
    fronts: Vec<Vec<usize>>,
}

/// Plans the unit decomposition: front end recovery, FDG, content keys,
/// wavefront schedule — everything up to (but not including) execution.
fn plan_units(src: &str, cfg: &IncrConfig) -> Planned {
    let RecoveredUnit {
        program,
        sema,
        skipped,
    } = recover_front_end(src);
    let space = cfg.space.clone();
    let fdg = Fdg::build(&program);

    // Pretty-printed text per defined function: the content half of
    // every unit key.
    let mut func_text: HashMap<String, String> = HashMap::new();
    for item in &program.items {
        if let Item::Func(f) = item {
            func_text.insert(f.name.clone(), render_item_text(item));
        }
    }
    let defined: HashSet<&str> = fdg.names.iter().map(String::as_str).collect();

    // The environment key: everything outside function bodies that can
    // change a unit's analysis — format version, mode, options,
    // budgets, the qualifier space, every non-function item (globals,
    // prototypes, struct definitions), and the set of defined names.
    let env = {
        let mut h = KeyHasher::new();
        h.u64(u64::from(FORMAT_VERSION));
        h.str(cfg.mode.name());
        h.bool(cfg.options.simplify_schemes);
        h.bool(cfg.options.verify_solutions);
        h.u64(cfg.budgets.max_constraints as u64);
        h.u64(cfg.budgets.max_solver_steps);
        h.u64(cfg.budgets.max_fn_work);
        for (_, d) in space.iter() {
            h.str(d.name());
            h.str(&d.polarity().to_string());
        }
        for item in &program.items {
            if !matches!(item, Item::Func(_)) {
                h.str(&render_item_text(item));
            }
        }
        let mut names: Vec<&String> = fdg.names.iter().collect();
        names.sort();
        for n in names {
            h.str(n);
        }
        h
    };

    // The globals unit: every global cell and initializer, keyed on the
    // defined functions the initializers mention (their declared types
    // shape the proxy templates).
    let mut plans: Vec<UnitPlan> = Vec::with_capacity(fdg.sccs.len() + 1);
    {
        let mut gp: Vec<String> = program
            .items
            .iter()
            .filter_map(|it| {
                if let Item::Global { init: Some(e), .. } = it {
                    Some(mentioned_names(e))
                } else {
                    None
                }
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
        plans.push(UnitPlan {
            kind: UnitKind::Globals,
            key: h.finish(),
            proxies: gp,
            label: "globals".to_owned(),
        });
    }

    // SCC units, keyed transitively: a unit's key chains its callee
    // units' keys, so editing one function invalidates exactly its own
    // component and everything (transitively) depending on it.
    let mut scc_keys: Vec<Key> = Vec::with_capacity(fdg.sccs.len());
    for (i, scc) in fdg.sccs.iter().enumerate() {
        let members: Vec<String> =
            scc.iter().map(|&v| fdg.names[v].clone()).collect();
        let recursive = scc.len() > 1
            || scc.first().is_some_and(|v| fdg.edges[*v].contains(v));
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
        plans.push(UnitPlan {
            label: members.join("+"),
            kind: UnitKind::Scc {
                names: members,
                recursive,
            },
            key,
            proxies,
        });
    }

    Planned {
        fronts: fdg.wavefronts(),
        program,
        sema,
        skipped,
        space,
        plans,
    }
}

/// Runs the incremental analysis end to end. Never panics on bad input
/// or bad cache state; every fault is a structured diagnostic.
///
/// Opens a fresh cache [session](Driver) per call; a long-lived process
/// serving many analyses (the `cquald` daemon) keeps one [`Driver`]
/// instead so the session — the advisory lock accounting and the
/// generation stamped into stored entries — is opened once.
#[must_use]
pub fn analyze_source_incremental(src: &str, cfg: &IncrConfig) -> IncrOutcome {
    Driver::new(cfg).analyze(src)
}

/// A resident analysis session: the QINC cache session opened once
/// (crash-debris sweep, advisory lock, generation bump), then reused
/// across any number of analyses. Scheduling is session-independent —
/// every [`Driver::analyze_with`] call plans and executes its own units
/// against the shared session, so concurrent callers (the daemon's
/// worker threads) only share immutable state.
#[derive(Debug)]
pub struct Driver {
    cfg: IncrConfig,
    generation: u64,
    lock_wait_ms: u64,
    lock_steals: u32,
    session_diag: Option<String>,
    /// Disk-full degrade latch, shared by every analysis in the
    /// session: one diagnostic per ENOSPC episode, a heal note when
    /// space returns, and retry suppression while degraded.
    cache_health: cache::Health,
}

impl Driver {
    /// Opens the cache session (when `cfg.cache_dir` is set) and fixes
    /// the session-level knobs. Never fails: session trouble degrades
    /// to a lockless generation-0 session with a diagnostic that every
    /// subsequent analysis reports.
    #[must_use]
    pub fn new(cfg: &IncrConfig) -> Driver {
        let policy = RetryPolicy {
            max_retries: cfg.max_retries,
        };
        let mut driver = Driver {
            cfg: cfg.clone(),
            generation: 0,
            lock_wait_ms: 0,
            lock_steals: 0,
            session_diag: None,
            cache_health: cache::Health::new(),
        };
        if let Some(dir) = &cfg.cache_dir {
            // The session opens on the driver thread, outside any worker
            // supervisor, so contain its panics (injected or real) here:
            // a failed open degrades to a lockless, generation-0 session.
            let session = catch_unwind(AssertUnwindSafe(|| {
                cache::open_session(dir, policy)
            }))
            .unwrap_or_else(|_| cache::Session {
                lockless: true,
                diag: Some(
                    "cache session open panicked; proceeding without a session"
                        .to_owned(),
                ),
                ..cache::Session::default()
            });
            driver.generation = session.generation;
            driver.lock_wait_ms = session.lock_wait_ms;
            driver.lock_steals = session.lock_steals;
            driver.session_diag = session.diag;
        }
        driver
    }

    /// This session's cache generation (0 = no cache or counter
    /// unreachable).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the session's cache is currently in a disk-full degrade
    /// episode (analyses continue uncached until space returns).
    #[must_use]
    pub fn cache_degraded(&self) -> bool {
        self.cache_health.degraded()
    }

    /// Disk-full degrade episodes begun this session.
    #[must_use]
    pub fn cache_degrade_episodes(&self) -> u64 {
        self.cache_health.episodes()
    }

    /// Analyzes one source under the session's own configuration.
    #[must_use]
    pub fn analyze(&self, src: &str) -> IncrOutcome {
        self.analyze_with(src, &self.cfg)
    }

    /// Analyzes one source with per-request knob overrides (mode,
    /// options, budgets, jobs, deadlines). The cache session itself —
    /// directory, retry policy, generation — always comes from the
    /// `Driver`, so a per-request `cfg` cannot detach an analysis from
    /// the resident session.
    #[must_use]
    pub fn analyze_with(&self, src: &str, overrides: &IncrConfig) -> IncrOutcome {
        let cfg = IncrConfig {
            cache_dir: self.cfg.cache_dir.clone(),
            max_retries: self.cfg.max_retries,
            ..overrides.clone()
        };
        analyze_in_session(self, src, &cfg)
    }
}

/// The session-independent analysis body: plans, schedules, and merges
/// one source against an already-open session. Every piece of mutable
/// state lives in this call frame, so any number of these can run
/// concurrently over one [`Driver`].
fn analyze_in_session(driver: &Driver, src: &str, cfg: &IncrConfig) -> IncrOutcome {
    let Planned {
        mut program,
        sema,
        mut skipped,
        space,
        plans,
        fronts,
    } = plan_units(src, cfg);
    let jobs = cfg.jobs.max(1);

    let mut stats = IncrStats {
        units: plans.len(),
        wavefronts: fronts.len(),
        jobs,
        generation: driver.generation,
        lock_wait_ms: driver.lock_wait_ms,
        lock_steals: driver.lock_steals,
        ..IncrStats::default()
    };
    let mut cache_diags: Vec<Diagnostic> = Vec::new();
    if let Some(msg) = &driver.session_diag {
        cache_diags.push(Diagnostic::warning(Phase::Infer, format!("cache: {msg}")));
    }
    let policy = RetryPolicy {
        max_retries: cfg.max_retries,
    };
    let generation = driver.generation;
    let ctx = UnitCtx {
        prog: &program,
        sema: &sema,
        space: &space,
        cfg,
        generation,
        policy,
        health: &driver.cache_health,
    };
    let mut summaries: Vec<Option<UnitSummary>> =
        (0..plans.len()).map(|_| None).collect();
    let mut scheme_pool: HashMap<String, CanonScheme> = HashMap::new();
    let mut failed_set: HashSet<String> = HashSet::new();

    let absorb = |unit_idx: usize,
                      ex: Executed,
                      stats: &mut IncrStats,
                      cache_diags: &mut Vec<Diagnostic>,
                      summaries: &mut Vec<Option<UnitSummary>>| {
        if ex.reused {
            stats.reused += 1;
        } else {
            stats.analyzed += 1;
        }
        if ex.stored {
            stats.stored += 1;
            // A successful store is the degrade re-probe: the first one
            // after an ENOSPC episode flips the latch back with a heal
            // note.
            if let Some(heal) = driver.cache_health.note_store_ok() {
                cache_diags.push(Diagnostic::warning(Phase::Infer, heal));
            }
        }
        stats.retries += ex.retries;
        if ex.quarantined {
            stats.quarantined += 1;
        }
        if let Some(msg) = ex.corrupt {
            stats.corrupt += 1;
            cache_diags.push(Diagnostic::warning(
                Phase::Infer,
                format!(
                    "cache: unit `{}`: {msg}; re-analyzed cold",
                    plans[unit_idx].label
                ),
            ));
        }
        if let Some(msg) = ex.store_err {
            if cache::is_disk_full_msg(&msg) {
                // Structured cacheless degrade: exactly one diagnostic
                // per episode, not one per missed store. Store errors
                // travel in `Executed` as strings, so classify by
                // message.
                qual_obs::count("cache.enospc_stores", 1);
                if let Some(d) = driver.cache_health.note_disk_full() {
                    cache_diags.push(Diagnostic::warning(Phase::Infer, d));
                }
            } else {
                cache_diags.push(Diagnostic::warning(
                    Phase::Infer,
                    format!(
                        "cache: unit `{}`: store failed: {msg}",
                        plans[unit_idx].label
                    ),
                ));
            }
        }
        // Per-unit metrics: the `analysis.*` counters come from the
        // summary itself, which is exactly what the cache stores — so
        // they are identical whether the unit ran cold, was reused, or
        // ran on any worker. Everything captured on the worker
        // (spans, solver steps) is operational and rides along.
        let outcome = if ex.quarantined {
            "quarantined"
        } else if ex.reused {
            "reused"
        } else {
            "analyzed"
        };
        let s = &ex.summary;
        qual_obs::unit(
            &plans[unit_idx].label,
            outcome,
            &[
                ("analysis.constraints", s.constraints.len() as u64),
                ("analysis.schemes", s.schemes.len() as u64),
                ("analysis.positions", s.positions.len() as u64),
                ("analysis.diagnostics", s.diagnostics.len() as u64),
                ("analysis.failed", s.failed.len() as u64),
            ],
            &ex.metrics,
        );
        summaries[unit_idx] = Some(ex.summary);
    };

    // The globals unit runs before every wavefront (function units may
    // reference global cells).
    let globals_inputs: Vec<FrontInput> = vec![(0, Vec::new(), Vec::new())];
    for (idx, ex) in execute_front(&ctx, &plans, &globals_inputs, jobs) {
        absorb(idx, ex, &mut stats, &mut cache_diags, &mut summaries);
    }

    for front in &fronts {
        // Inputs each unit needs from earlier wavefronts, gathered up
        // front so workers share them immutably.
        let inputs: Vec<FrontInput> = front
            .iter()
            .map(|&s| {
                let plan = &plans[1 + s];
                let schemes: Vec<CanonScheme> = plan
                    .proxies
                    .iter()
                    .filter_map(|p| scheme_pool.get(p).cloned())
                    .collect();
                let failed: Vec<String> = plan
                    .proxies
                    .iter()
                    .filter(|p| failed_set.contains(*p))
                    .cloned()
                    .collect();
                (1 + s, schemes, failed)
            })
            .collect();

        // Deterministic merge: absorb in SCC order regardless of which
        // worker thread finished first.
        for (idx, ex) in execute_front(&ctx, &plans, &inputs, jobs) {
            absorb(idx, ex, &mut stats, &mut cache_diags, &mut summaries);
        }
        // Publish this front's schemes and failures for later fronts,
        // in unit order.
        for &s in front {
            let summary = summaries[1 + s].as_ref().expect("unit just executed");
            for sch in &summary.schemes {
                scheme_pool.insert(sch.func.clone(), sch.clone());
            }
            for f in &summary.failed {
                failed_set.insert(f.clone());
            }
        }
    }

    // Splice: one merged constraint system over shared anchor
    // variables, built in fixed unit order (globals, then SCCs in
    // reverse-topological order) — never in completion order.
    let merge_span = qual_obs::span("merge");
    let mut supply = VarSupply::new();
    let mut cs = ConstraintSet::new();
    let mut anchors: HashMap<CanonVar, QVar> = HashMap::new();
    let mut positions_raw: Vec<(String, Option<usize>, usize, bool, Qual)> =
        Vec::new();
    let mut unit_diags: Vec<Diagnostic> = Vec::new();
    for summary in summaries.iter().map(|s| s.as_ref().expect("unit executed")) {
        let mut locals: HashMap<u32, QVar> = HashMap::new();
        for c in &summary.constraints {
            let lhs = splice_qual(&c.lhs, &mut anchors, &mut locals, &mut supply);
            let rhs = splice_qual(&c.rhs, &mut anchors, &mut locals, &mut supply);
            cs.extend([Constraint {
                lhs,
                rhs,
                mask: c.mask,
                origin: Provenance {
                    lo: c.lo,
                    hi: c.hi,
                    what: intern_static(&c.what),
                },
            }]);
        }
        for p in &summary.positions {
            let q = splice_qual(&p.var, &mut anchors, &mut locals, &mut supply);
            positions_raw.push((
                p.function.clone(),
                p.param.map(|x| x as usize),
                p.level as usize,
                p.declared,
                q,
            ));
        }
        unit_diags.extend(summary.diagnostics.iter().cloned());
    }
    drop(merge_span);
    stats.constraints = cs.len();

    // Faulted functions drop out of the counts exactly as in the serial
    // driver: demote to a prototype and discard their positions.
    for d in &unit_diags {
        if let Some(f) = &d.function {
            program.demote_to_proto(f);
        }
    }
    skipped.extend(unit_diags);
    let order: HashMap<String, usize> = program
        .functions()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i))
        .collect();
    positions_raw.retain(|p| order.contains_key(&p.0));
    positions_raw.sort_by_key(|p| order[&p.0]);

    // The merged solve, certified like the serial one.
    let solution =
        cs.solve_with_budget(&space, &supply, cfg.budgets.max_solver_steps);
    certify_solution(&space, &cs, &solution, cfg.options, &mut skipped);
    let (counts, positions, qual_counts) = match &solution {
        Err(failure) => {
            match failure {
                SolveFailure::Unsat(e) => {
                    skipped.extend(diag::diagnostics_from_unsat(e));
                }
                SolveFailure::BudgetExceeded { steps, limit } => {
                    skipped.push(Diagnostic::error(
                        Phase::Solve,
                        format!(
                            "solver budget exceeded ({steps} of {limit} steps)"
                        ),
                    ));
                }
                SolveFailure::Cancelled { steps } => {
                    skipped.push(Diagnostic::error(
                        Phase::Solve,
                        format!("solve cancelled by deadline after {steps} step(s)"),
                    ));
                }
            }
            (None, Vec::new(), Vec::new())
        }
        Ok(sol) => {
            let cid = space.id("const");
            let positions: Vec<Position> = positions_raw
                .iter()
                .map(|(function, param, level, declared, q)| {
                    let class = match cid {
                        Some(c) => {
                            let must = sol.eval_least(*q).has(&space, c);
                            let can = sol.eval_greatest(*q).has(&space, c);
                            if must {
                                PositionClass::MustConst
                            } else if can {
                                PositionClass::Either
                            } else {
                                PositionClass::MustNotConst
                            }
                        }
                        None => PositionClass::MustNotConst,
                    };
                    Position {
                        function: function.clone(),
                        param: *param,
                        level: *level,
                        declared: *declared,
                        class,
                    }
                })
                .collect();
            let counts = ConstCounts {
                declared: positions.iter().filter(|p| p.declared).count(),
                inferred: positions.iter().filter(|p| p.can_be_const()).count(),
                total: positions.len(),
            };
            let mut qual_counts: Vec<QualCount> = space
                .iter()
                .map(|(_, d)| QualCount {
                    name: d.name().to_owned(),
                    may: 0,
                    must: 0,
                })
                .collect();
            for (_, _, _, _, q) in &positions_raw {
                let lo = sol.eval_least(*q);
                let hi = sol.eval_greatest(*q);
                for (idx, (id, _)) in space.iter().enumerate() {
                    let (may, must) = quals::presence(&space, id, lo, hi);
                    qual_counts[idx].may += usize::from(may);
                    qual_counts[idx].must += usize::from(must);
                }
            }
            (Some(counts), positions, qual_counts)
        }
    };

    record_run_metrics(&stats, counts.as_ref(), &qual_counts, &skipped);

    IncrOutcome {
        counts,
        qual_counts,
        positions,
        program,
        skipped,
        cache_diags,
        stats,
    }
}

/// Records the run-level counters into the ambient collector (no-op
/// without one). `analysis.*` keys are the deterministic subset —
/// identical for any `jobs` value or cache state — and are the only
/// counters [`qual_obs::analysis_fingerprint`] keeps; `cache.*` and
/// `sched.*` describe how this particular run executed.
fn record_run_metrics(
    stats: &IncrStats,
    counts: Option<&ConstCounts>,
    qual_counts: &[QualCount],
    skipped: &[Diagnostic],
) {
    qual_obs::count("analysis.units", stats.units as u64);
    qual_obs::count("analysis.wavefronts", stats.wavefronts as u64);
    qual_obs::count("analysis.merged_constraints", stats.constraints as u64);
    qual_obs::count("analysis.diagnostics", skipped.len() as u64);
    if let Some(c) = counts {
        qual_obs::count("analysis.positions_total", c.total as u64);
        qual_obs::count("analysis.positions_declared", c.declared as u64);
        qual_obs::count("analysis.positions_inferred", c.inferred as u64);
    }
    // Per-qualifier columns (`analysis.<qual>.may` / `.must`): the
    // counter names come precomputed from the catalog because the
    // collector interns `&'static str` keys only.
    for qc in qual_counts {
        if let Some(def) = quals::catalog::builtin(&qc.name) {
            qual_obs::count(def.counter_may, qc.may as u64);
            qual_obs::count(def.counter_must, qc.must as u64);
        }
    }
    qual_obs::peak("sched.jobs", stats.jobs as u64);
    qual_obs::count("cache.analyzed", stats.analyzed as u64);
    qual_obs::count("cache.reused", stats.reused as u64);
    qual_obs::count("cache.corrupt", stats.corrupt as u64);
    qual_obs::count("cache.stored", stats.stored as u64);
    qual_obs::count("cache.quarantined", stats.quarantined as u64);
    qual_obs::count("cache.retries", stats.retries);
    qual_obs::count("cache.lock_wait_ms", stats.lock_wait_ms);
    qual_obs::count("cache.lock_steals", u64::from(stats.lock_steals));
    qual_obs::peak("cache.generation", stats.generation);
    // Allocator gauges (zero unless the binary installs the tracking
    // allocator shim): operational, never part of the fingerprint.
    qual_obs::peak("mem.peak_bytes", qual_obs::mem::peak_bytes());
    qual_obs::peak("mem.live_bytes", qual_obs::mem::live_bytes());
}

/// Renders the exact two `--cache-stats` lines from a metrics report,
/// so the human output and the JSON document are two views of the same
/// counters and can never disagree (the `metrics.rs` test pins this).
#[must_use]
pub fn cache_stats_lines(report: &qual_obs::Report) -> [String; 2] {
    let c = |name: &str| report.counter(name);
    [
        format!(
            "{} unit(s): {} analyzed, {} reused, {} corrupt, {} stored; \
             {} wavefront(s), {} job(s), {} merged constraint(s)",
            c("analysis.units"),
            c("cache.analyzed"),
            c("cache.reused"),
            c("cache.corrupt"),
            c("cache.stored"),
            c("analysis.wavefronts"),
            report.peak_value("sched.jobs"),
            c("analysis.merged_constraints"),
        ),
        format!(
            "generation {}, {} retry(ies), {} quarantined unit(s), \
             lock wait {} ms, {} stale lock(s) stolen",
            report.peak_value("cache.generation"),
            c("cache.retries"),
            c("cache.quarantined"),
            c("cache.lock_wait_ms"),
            c("cache.lock_steals"),
        ),
    ]
}

/// Maps one canonical term into the merged world: anchors resolve to
/// one shared variable each, unit-locals to per-unit fresh variables.
fn splice_qual(
    q: &CanonQual,
    anchors: &mut HashMap<CanonVar, QVar>,
    locals: &mut HashMap<u32, QVar>,
    supply: &mut VarSupply,
) -> Qual {
    match q {
        CanonQual::Var(CanonVar::Local(j)) => {
            Qual::Var(*locals.entry(*j).or_insert_with(|| supply.fresh()))
        }
        CanonQual::Var(v) => Qual::Var(
            *anchors.entry(v.clone()).or_insert_with(|| supply.fresh()),
        ),
        CanonQual::Const(bits) => Qual::Const(QualSet::from_bits(*bits)),
    }
}

/// A quarantine summary for a unit whose worker panicked: the unit's
/// members are excluded exactly like budget-faulted functions (their
/// positions drop, dependents degrade to library-style proxies), and
/// the run carries on.
fn quarantine_summary(plan: &UnitPlan, reason: &str) -> UnitSummary {
    let (members, failed) = match &plan.kind {
        UnitKind::Globals => (Vec::new(), Vec::new()),
        UnitKind::Scc { names, .. } => (names.clone(), names.clone()),
    };
    let message =
        format!("unit `{}` quarantined: {reason}", plan.label);
    let diagnostics = if members.is_empty() {
        vec![Diagnostic::error(Phase::Infer, message)]
    } else {
        members
            .iter()
            .map(|m| {
                Diagnostic::error(Phase::Infer, message.clone()).with_function(m)
            })
            .collect()
    };
    UnitSummary {
        members,
        failed,
        constraints: Vec::new(),
        schemes: Vec::new(),
        positions: Vec::new(),
        diagnostics,
        cert: None,
    }
}

/// A best-effort rendering of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Supervises one unit execution: installs the per-unit deadline (if
/// configured) and converts a panic anywhere inside the unit —
/// analysis, cache codec, injected fault — into a quarantine summary
/// instead of a dead worker.
fn run_supervised(
    ctx: &UnitCtx<'_>,
    plan: &UnitPlan,
    schemes: &[CanonScheme],
    failed: &[String],
) -> Executed {
    let _deadline = ctx
        .cfg
        .unit_deadline_ms
        .map(qual_faultpoint::cancel::deadline_after_ms);
    // Per-unit memory budget: the engine's work-accounting loop polls
    // the armed budget and unwinds an overrun through the same
    // rollback-and-exclude path as a solver-step overrun. (Only bites
    // in binaries that install the tracking allocator.)
    let _mem_budget = ctx
        .cfg
        .memory_budget_mb
        .map(|mb| qual_obs::mem::unit_budget(mb.saturating_mul(1 << 20)));
    // Environment machine: a unit's up-front allocation charge (a
    // nominal 1 MiB arena reservation — the machine models watermark
    // *pressure*, not exact footprints). A denial quarantines the unit
    // exactly like an overrun would.
    if qual_faultpoint::charge_alloc("alloc.unit", 1 << 20).is_some() {
        return Executed {
            summary: quarantine_summary(plan, "allocator watermark exceeded (injected)"),
            reused: false,
            corrupt: None,
            stored: false,
            store_err: None,
            retries: 0,
            quarantined: true,
            metrics: qual_obs::Report::default(),
        };
    }
    let run = || match catch_unwind(AssertUnwindSafe(|| {
        execute_one(ctx, plan, schemes, failed)
    })) {
        Ok(ex) => ex,
        Err(payload) => Executed {
            summary: quarantine_summary(
                plan,
                &format!("worker panicked: {}", panic_message(&*payload)),
            ),
            reused: false,
            corrupt: None,
            stored: false,
            store_err: None,
            retries: 0,
            quarantined: true,
            metrics: qual_obs::Report::default(),
        },
    };
    // Metrics on: capture this unit's spans/counters on whatever thread
    // is executing it. The report travels back in `Executed` and is
    // absorbed on the driver in unit order, so worker scheduling can
    // never reorder the document.
    if qual_obs::armed() {
        let (mut ex, report) = qual_obs::scoped(run);
        ex.metrics = report;
        ex
    } else {
        run()
    }
}

/// Executes one unit: cache probe (decode + certificate re-verification)
/// first, cold analysis on any miss or doubt, store-back of certified
/// cold results.
fn execute_one(
    ctx: &UnitCtx<'_>,
    plan: &UnitPlan,
    schemes: &[CanonScheme],
    failed: &[String],
) -> Executed {
    let cfg = ctx.cfg;
    let space = ctx.space;
    let mut corrupt: Option<String> = None;
    let mut retries: u64 = 0;
    if let Some(dir) = &cfg.cache_dir {
        let (loaded, load_retries) = cache::load(dir, &plan.key, ctx.policy);
        retries += u64::from(load_retries);
        match loaded {
            Load::Payload { bytes, .. } => match decode_summary(&bytes) {
                Ok(summary) => {
                    let members_match = match &plan.kind {
                        UnitKind::Globals => summary.members.is_empty(),
                        UnitKind::Scc { names, .. } => summary.members == *names,
                    };
                    if !members_match {
                        corrupt = Some(
                            "cached summary names different members".to_owned(),
                        );
                    } else {
                        match verify_summary(space, &summary) {
                            Ok(()) => {
                                return Executed {
                                    summary,
                                    reused: true,
                                    corrupt: None,
                                    stored: false,
                                    store_err: None,
                                    retries,
                                    quarantined: false,
                                    metrics: qual_obs::Report::default(),
                                };
                            }
                            Err(e) => {
                                corrupt = Some(format!(
                                    "cached summary failed certification: {e}"
                                ));
                            }
                        }
                    }
                }
                Err(e) => {
                    corrupt = Some(format!("cache entry undecodable: {e}"));
                }
            },
            Load::Corrupt(msg) => corrupt = Some(msg),
            Load::Absent => {}
        }
    }

    let req = UnitRequest {
        prog: ctx.prog,
        sema: ctx.sema,
        space,
        mode: cfg.mode,
        options: cfg.options,
        budgets: cfg.budgets,
        kind: plan.kind.clone(),
        proxies: &plan.proxies,
        schemes,
        failed,
    };
    let summary = analyze_unit(&req);
    let mut stored = false;
    let mut store_err = None;
    if let Some(dir) = &cfg.cache_dir {
        // Only certified summaries are worth persisting: an entry the
        // verifier would reject on load is a guaranteed future miss.
        if summary.cert.is_some() {
            // While the disk is full every store is a single cheap
            // re-probe, not a retried write: the episode already has
            // its diagnostic, and backoff sleeps buy nothing.
            let policy = if ctx.health.degraded() {
                RetryPolicy { max_retries: 0 }
            } else {
                ctx.policy
            };
            match cache::store(
                dir,
                &plan.key,
                &encode_summary(&summary),
                ctx.generation,
                policy,
            ) {
                Ok(store_retries) => {
                    stored = true;
                    retries += u64::from(store_retries);
                }
                Err(e) => store_err = Some(e.to_string()),
            }
        }
    }
    Executed {
        summary,
        reused: false,
        corrupt,
        stored,
        store_err,
        retries,
        quarantined: false,
        metrics: qual_obs::Report::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn incr(src: &str, cfg: &IncrConfig) -> IncrOutcome {
        analyze_source_incremental(src, cfg)
    }

    #[test]
    fn trivial_program_counts_match_serial() {
        let src = "int first(char *s) { return s[0]; }";
        let cfg = IncrConfig {
            mode: Mode::Monomorphic,
            ..IncrConfig::default()
        };
        let out = incr(src, &cfg);
        assert!(out.skipped.is_empty(), "{:?}", out.skipped);
        let counts = out.counts.expect("solves");
        let serial = qual_constinfer::analyze_source(src, Mode::Monomorphic)
            .expect("serial analyzes");
        assert_eq!(counts.total, serial.counts.total);
        assert_eq!(counts.declared, serial.counts.declared);
        assert_eq!(counts.inferred, serial.counts.inferred);
        assert_eq!(out.stats.units, 2, "globals + one SCC");
        assert_eq!(out.stats.analyzed, 2);
        assert_eq!(out.stats.reused, 0);
    }

    #[test]
    fn strchr_pattern_poly_beats_mono_incrementally() {
        // The §1 motivating example: a helper reused in const and
        // non-const contexts gains positions only under polymorphism.
        let src = "char *id(char *s) { return s; }
                   void writer(char *buf) { *id(buf) = 'x'; }
                   char *reader(char *msg) { return id(msg); }";
        let count_in = |mode: Mode| {
            let out = incr(
                src,
                &IncrConfig {
                    mode,
                    ..IncrConfig::default()
                },
            );
            assert!(out.skipped.is_empty(), "{mode:?}: {:?}", out.skipped);
            (out.counts.expect("solves").inferred, out)
        };
        let (mono, _) = count_in(Mode::Monomorphic);
        let (poly, out) = count_in(Mode::Polymorphic);
        let serial_mono =
            qual_constinfer::analyze_source(src, Mode::Monomorphic).unwrap();
        let serial_poly =
            qual_constinfer::analyze_source(src, Mode::Polymorphic).unwrap();
        assert_eq!(mono, serial_mono.counts.inferred);
        assert_eq!(poly, serial_poly.counts.inferred);
        assert!(poly > mono, "polymorphism must win on the strchr pattern");
        assert_eq!(out.stats.units, 4, "globals + id + writer + reader");
    }

    #[test]
    fn positions_come_back_in_program_order() {
        let src = "int a(char *x) { return *x; }
                   int b(char *y) { return a(y); }
                   int c(char *z) { return b(z); }";
        let out = incr(src, &IncrConfig::default());
        let fns: Vec<&str> =
            out.positions.iter().map(|p| p.function.as_str()).collect();
        // a's positions strictly before b's, b's before c's.
        let first = |n: &str| fns.iter().position(|f| *f == n).unwrap();
        let last = |n: &str| fns.iter().rposition(|f| *f == n).unwrap();
        assert!(last("a") < first("b"));
        assert!(last("b") < first("c"));
    }

    #[test]
    fn jobs_do_not_change_anything() {
        let src = "int leaf1(const char *s) { return *s; }
                   int leaf2(char *s) { *s = 'x'; return 0; }
                   int up1(char *p) { return leaf1(p); }
                   int up2(char *p) { return leaf2(p); }
                   int top(char *p) { return up1(p) + up2(p); }";
        for mode in [Mode::Monomorphic, Mode::Polymorphic] {
            let run = |jobs: usize| {
                incr(
                    src,
                    &IncrConfig {
                        mode,
                        jobs,
                        ..IncrConfig::default()
                    },
                )
            };
            let one = run(1);
            let four = run(4);
            assert_eq!(one.counts, four.counts);
            assert_eq!(one.stats.constraints, four.stats.constraints);
            let render = |o: &IncrOutcome| {
                o.skipped
                    .iter()
                    .map(|d| d.render(Some(src)))
                    .collect::<String>()
            };
            assert_eq!(render(&one), render(&four));
            let classes = |o: &IncrOutcome| {
                o.positions
                    .iter()
                    .map(|p| (p.label(), p.class))
                    .collect::<Vec<_>>()
            };
            assert_eq!(classes(&one), classes(&four));
        }
    }

    #[test]
    fn warm_cache_reruns_analyze_nothing() {
        let dir = std::env::temp_dir().join(format!(
            "qinc-warm-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let src = "int helper(const char *s) { return *s; }
                   int user(char *p) { return helper(p); }";
        let cfg = IncrConfig {
            cache_dir: Some(dir.clone()),
            ..IncrConfig::default()
        };
        let cold = incr(src, &cfg);
        assert_eq!(cold.stats.reused, 0);
        assert_eq!(cold.stats.analyzed, cold.stats.units);
        assert_eq!(cold.stats.stored, cold.stats.units);

        let warm = incr(src, &cfg);
        assert_eq!(warm.stats.analyzed, 0, "warm rerun re-solves no unit");
        assert_eq!(warm.stats.reused, warm.stats.units);
        assert!(warm.cache_diags.is_empty(), "{:?}", warm.cache_diags);
        assert_eq!(cold.counts, warm.counts);
        let classes = |o: &IncrOutcome| {
            o.positions
                .iter()
                .map(|p| (p.label(), p.class))
                .collect::<Vec<_>>()
        };
        assert_eq!(classes(&cold), classes(&warm));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn editing_one_function_invalidates_only_its_cone() {
        let dir = std::env::temp_dir().join(format!(
            "qinc-edit-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let before = "int leaf(const char *s) { return *s; }
                      int mid(char *p) { return leaf(p); }
                      int lone(int *q) { return *q; }";
        // Edit `mid` only: `leaf`, `lone`, and the globals unit stay
        // cached; `mid` re-analyzes.
        let after = "int leaf(const char *s) { return *s; }
                     int mid(char *p) { return leaf(p) + 1; }
                     int lone(int *q) { return *q; }";
        let cfg = IncrConfig {
            cache_dir: Some(dir.clone()),
            ..IncrConfig::default()
        };
        let cold = incr(before, &cfg);
        assert_eq!(cold.stats.analyzed, 4);
        let edited = incr(after, &cfg);
        assert_eq!(edited.stats.analyzed, 1, "only `mid` re-analyzes");
        assert_eq!(edited.stats.reused, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_are_replayed_identically_from_cache() {
        // A function blowing its work budget is skipped with a
        // diagnostic; the diagnostic must replay byte-identically from
        // a warm cache... except the unit never caches (no
        // certificate would be wrong — its own system still solves).
        let dir = std::env::temp_dir().join(format!(
            "qinc-fault-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let src = "void big(int *p) { *p = 1; *p = 2; *p = 3; *p = 4; }
                   void small(int *p) { big(p); }";
        let cfg = IncrConfig {
            budgets: Budgets {
                max_fn_work: 6,
                ..Budgets::default()
            },
            cache_dir: Some(dir.clone()),
            ..IncrConfig::default()
        };
        let cold = incr(src, &cfg);
        assert!(
            cold.skipped.iter().any(|d| d.function.as_deref() == Some("big")),
            "big must fault: {:?}",
            cold.skipped
        );
        let warm = incr(src, &cfg);
        let render = |o: &IncrOutcome| {
            o.skipped
                .iter()
                .map(|d| d.render(Some(src)))
                .collect::<String>()
        };
        assert_eq!(render(&cold), render(&warm));
        assert_eq!(cold.counts, warm.counts);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
