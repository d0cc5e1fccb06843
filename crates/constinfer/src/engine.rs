//! The const-inference engine (§4): constraint generation over C
//! programs, in monomorphic or polymorphic (FDG-driven) mode.

use std::collections::HashMap;

use qual_cfront::ast::{
    Block, Expr, ExprKind, FnDef, Item, Program, Stmt, UnOp,
};
use qual_cfront::fxhash::{FxHashMap, FxHashSet};
use qual_cfront::scope::Scopes;
use qual_cfront::sema::{Resolution, Sema};
use qual_cfront::{CTy, CTyKind};
use qual_lattice::QualSpace;
use qual_solve::{
    Constraint, ConstraintSet, Diagnostic, Phase, Provenance, QVar, Qual, Scheme, Solution,
    SolveFailure, VarSupply, WindowScheme,
};

use crate::fdg::Fdg;
use crate::qtypes::{QcArena, QcId, QcShape, StructTable, Translator};
use crate::quals::rules::{seed_set, ActiveRules};

/// Monomorphic (one signature per function) or polymorphic (per-call
/// instantiation via the FDG, §4.3) analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The C type system's usual regime.
    Monomorphic,
    /// Let-style qualifier polymorphism over the FDG.
    Polymorphic,
    /// Polymorphic *recursion* (§4.3: "we would prefer to use polymorphic
    /// recursion rather than let-style polymorphism ... the computation
    /// of polymorphic recursive types is decidable and in fact should be
    /// very efficient"): within each SCC, Mycroft-style iteration from
    /// the most general scheme until the scheme supports its own
    /// derivation, so even mutually-recursive calls are instantiated
    /// per call site.
    PolymorphicRecursive,
}

impl Mode {
    /// The mode's name on the command line (`--mode`), in metrics, and
    /// in every cache key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Monomorphic => "mono",
            Mode::Polymorphic => "poly",
            Mode::PolymorphicRecursive => "polyrec",
        }
    }

    /// The mode [`Mode::name`] calls `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Mode> {
        [Mode::Monomorphic, Mode::Polymorphic, Mode::PolymorphicRecursive]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// A function's signature template nodes.
#[derive(Debug, Clone)]
pub struct SigNodes {
    /// L-value cells of the parameters, in order.
    pub params: Vec<QcId>,
    /// The r-value node of the return.
    pub ret: QcId,
}

/// The raw analysis result (counting lives in [`crate::count`]).
#[derive(Debug)]
pub struct Analysis {
    /// All qualified types built.
    pub arena: QcArena,
    /// The qualifier space the analysis ran over.
    pub space: QualSpace,
    /// The variable supply.
    pub supply: VarSupply,
    /// The full constraint system.
    pub constraints: ConstraintSet,
    /// Solutions (the system is always satisfiable: the program is
    /// assumed to be correct C, and declared consts only add lower
    /// bounds; but casts severed flows make this non-trivially true, so
    /// we keep the error side; a solver-step budget can also exhaust).
    pub solution: Result<Solution, SolveFailure>,
    /// Signature template nodes per defined function.
    pub signatures: FxHashMap<String, SigNodes>,
    /// Which mode ran.
    pub mode: Mode,
}

/// Tuning knobs for the analysis.
#[derive(Debug, Clone, Copy)]
#[derive(Default)]
pub struct Options {
    /// Compact polymorphic schemes to their signature interface before
    /// use (the §6 simplification). Identical results (see the ablation
    /// tests); useful when presenting schemes or when call-site counts
    /// dwarf function sizes. Off by default: on the benchmark suite the
    /// per-function compaction costs slightly more than the smaller
    /// instantiations save.
    pub simplify_schemes: bool,
    /// Certify the solve before reporting it: check a successful
    /// [`Solution`] against every constraint with
    /// [`qual_solve::verify_solution`], and replay an unsat result's
    /// explanation paths through
    /// [`qual_solve::verify_explanation`]. A failed certificate becomes
    /// an error [`Diagnostic`] with [`Phase::Verify`]. Debug builds
    /// always certify (and panic on failure — an uncertified result is a
    /// solver bug); this option extends the check to release builds and
    /// turns the panic into a diagnostic.
    pub verify_solutions: bool,
}

/// Resource budgets for one analysis run. Runaway inputs (pathological
/// constraint graphs, enormous machine-generated functions) exhaust a
/// budget and become structured [`Diagnostic`]s instead of hangs. The
/// same caps mirror the parser's nesting guards one layer up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budgets {
    /// Cap on the total number of generated constraints.
    pub max_constraints: usize,
    /// Cap on solver edge relaxations in the final solve (shared by the
    /// least- and greatest-solution passes).
    pub max_solver_steps: u64,
    /// Per-function (and per-global-initializer) cap on expression
    /// nodes visited during constraint generation. Re-analysis rounds
    /// (polymorphic recursion) reset it per round.
    pub max_fn_work: u64,
    /// Per-fault-unit cap on gross heap allocation, in bytes (`cqual
    /// --memory-budget-mb`): each global initializer, monomorphic
    /// function and polymorphic SCC arms it at its rollback mark, and a
    /// unit that overruns it is rolled back and excluded like one that
    /// blows its work budget. Measured by the
    /// [`qual_obs::mem::TrackingAlloc`] shim, so it only bites in
    /// binaries that install it. `None` arms nothing.
    pub max_unit_bytes: Option<u64>,
}

impl Budgets {
    /// No limits: every budget is effectively infinite.
    #[must_use]
    pub const fn unlimited() -> Budgets {
        Budgets {
            max_constraints: usize::MAX,
            max_solver_steps: u64::MAX,
            max_fn_work: u64::MAX,
            max_unit_bytes: None,
        }
    }
}

impl Default for Budgets {
    /// Generous defaults: far above anything the benchmark suite needs,
    /// low enough to cut off adversarial inputs in well under a second.
    fn default() -> Budgets {
        Budgets {
            max_constraints: 4_000_000,
            max_solver_steps: 50_000_000,
            max_fn_work: 2_000_000,
            max_unit_bytes: None,
        }
    }
}

/// Runs qualifier inference on an analyzed program with default
/// [`Options`].
///
/// The space's coordinates select which checking rules run (see
/// [`crate::quals`]); [`QualSpace::const_only`] reproduces the classic
/// const counter.
#[must_use]
pub fn run(prog: &Program, sema: &Sema, space: &QualSpace, mode: Mode) -> Analysis {
    run_with_options(prog, sema, space, mode, Options::default())
}

/// Runs const inference with explicit [`Options`].
#[must_use]
pub fn run_with_options(
    prog: &Program,
    sema: &Sema,
    space: &QualSpace,
    mode: Mode,
    options: Options,
) -> Analysis {
    run_budgeted(prog, sema, space, mode, options, Budgets::unlimited()).0
}

/// Runs const inference with fault isolation and resource [`Budgets`].
///
/// A function whose constraint generation fails (an engine/sema
/// mismatch, an exhausted work budget) is rolled back, reported in the
/// returned diagnostics, and excluded: its signature is poisoned like a
/// library function's so callers stay sound, and the rest of the
/// program is still analyzed. In the polymorphic modes the fault unit
/// is the FDG strongly-connected component (mutually recursive
/// functions are analyzed together, so they fail together).
#[must_use]
pub fn run_budgeted(
    prog: &Program,
    sema: &Sema,
    space: &QualSpace,
    mode: Mode,
    options: Options,
    budgets: Budgets,
) -> (Analysis, Vec<Diagnostic>) {
    let mut skipped: Vec<Diagnostic> = Vec::new();
    let eng = generate(prog, sema, space, mode, options, budgets, &mut skipped);
    qual_obs::count("cgen.constraints", eng.cs.len() as u64);
    qual_obs::count("cgen.qvars", eng.supply.count() as u64);
    qual_obs::peak("arena.qtypes", eng.arena.len() as u64);

    let solution =
        eng.cs
            .solve_with_budget(space, &eng.supply, budgets.max_solver_steps);
    certify_solution(space, &eng.cs, &solution, options, &mut skipped);
    (
        Analysis {
            arena: eng.arena,
            space: space.clone(),
            supply: eng.supply,
            constraints: eng.cs,
            solution,
            signatures: eng.sigs,
            mode,
        },
        skipped,
    )
}

/// Whole-program constraint generation: [`run_budgeted`] up to its
/// solve. The engine borrows the program for its whole run, so its
/// scopes name locals by the declarations' own strings.
fn generate<'a>(
    prog: &'a Program,
    sema: &'a Sema,
    space: &QualSpace,
    mode: Mode,
    options: Options,
    budgets: Budgets,
    skipped: &mut Vec<Diagnostic>,
) -> Engine<'a> {
    let mut eng = Engine::new(sema, space, mode, budgets);

    // The FDG orders the polymorphic modes' SCCs. Its own span, beside
    // constraint generation's, keeps the two costs apart in `--metrics`.
    let fdg = (mode != Mode::Monomorphic).then(|| {
        let _span = qual_obs::span("fdg");
        Fdg::build(prog)
    });
    let cgen_span = qual_obs::span("cgen-constraints");
    eng.setup_globals(prog);
    // One engine sees every body, so it declares every field up front.
    eng.declare_fields(|_, _| true);
    // Signature templates. In monomorphic mode every function gets its
    // (single, shared) template now. In polymorphic mode templates are
    // created inside each SCC's generalization window instead, so that
    // their qualifier variables are quantified by (Letv).
    if mode == Mode::Monomorphic {
        for f in prog.functions() {
            eng.make_sig(f);
        }
    }
    eng.analyze_global_inits(prog, skipped);

    match &fdg {
        None => {
            for f in prog.functions() {
                eng.analyze_mono_fn(f, skipped);
            }
        }
        Some(fdg) => {
            let mut names: Vec<&str> = Vec::new();
            for scc in &fdg.sccs {
                names.clear();
                names.extend(scc.iter().map(|&v| fdg.names[v].as_str()));
                let recursive = scc.len() > 1
                    || scc
                        .first()
                        .is_some_and(|v| fdg.edges[*v].contains(v));
                eng.analyze_poly_scc(&names, recursive, prog, options, skipped);
            }
        }
    }
    drop(cgen_span);
    eng
}

/// Certification gate between the solver and every count we report
/// (see [`Options::verify_solutions`]): a successful solution must pass
/// the independent checker, and an unsat verdict must come with
/// replayable explanation paths for all of its violations. Debug builds
/// treat a failed certificate as a solver bug and panic; with the
/// option set, the failure is reported as a [`Phase::Verify`]
/// diagnostic instead so tools can surface it.
pub fn certify_solution(
    space: &QualSpace,
    cs: &ConstraintSet,
    solution: &Result<Solution, SolveFailure>,
    options: Options,
    skipped: &mut Vec<Diagnostic>,
) {
    if !options.verify_solutions && !cfg!(debug_assertions) {
        return;
    }
    let mut report = |message: String| {
        if options.verify_solutions {
            skipped.push(Diagnostic::error(Phase::Verify, message));
        } else {
            debug_assert!(false, "{message}");
        }
    };
    // Fault point: `verify.cert` (garbage) forges a certification
    // failure, making the exit-3 path testable end to end without a
    // solver bug. Armed only when verification was requested, so a
    // debug build inheriting a broad plan cannot debug_assert-panic.
    if options.verify_solutions
        && qual_faultpoint::hit("verify.cert")
            == Some(qual_faultpoint::FaultKind::Garbage)
    {
        report("solution failed certification: injected fault at verify.cert"
            .to_owned());
        return;
    }
    match solution {
        Ok(sol) => {
            if let Err(e) = qual_solve::verify_solution(space, cs.constraints(), sol) {
                report(format!("solution failed certification: {e}"));
            }
        }
        Err(SolveFailure::Unsat(err)) => {
            let exps = qual_solve::explain(space, cs.constraints(), err);
            if exps.len() != err.violations.len() {
                report(format!(
                    "unsatisfiability not certified: only {} of {} violation(s) \
                     have a constraint path back to a constant source",
                    exps.len(),
                    err.violations.len()
                ));
            }
            for exp in &exps {
                if let Err(e) = qual_solve::verify_explanation(space, exp) {
                    report(format!(
                        "unsat explanation failed certification: {e}"
                    ));
                }
            }
        }
        // A blown budget or a cancelled solve makes no claim, so there
        // is nothing to certify.
        Err(SolveFailure::BudgetExceeded { .. } | SolveFailure::Cancelled { .. }) => {}
    }
}

/// The value of an analyzed expression: an optional l-value cell (the
/// ref written through by assignment) plus the r-value node, plus any
/// extra cells that must be non-const for a write to be legal (e.g. the
/// struct base of a member write).
struct EVal {
    lcell: Option<QcId>,
    guards: Vec<QcId>,
    rty: QcId,
}

impl EVal {
    fn rvalue(rty: QcId) -> EVal {
        EVal {
            lcell: None,
            guards: Vec::new(),
            rty,
        }
    }
}

/// A member's generalized signature (rule (Letv) of §3.2). The schemes
/// the engine generalizes itself point at their window of
/// [`Engine::cs`]; the others own their constraints, because those never
/// lived in this engine's set (a unit's imported schemes, see
/// `crate::summary`) or were rewritten ([`Options::simplify_schemes`]),
/// or because there are none yet (polymorphic recursion's round 0).
pub(crate) enum SigScheme {
    /// Constraints in a window of the engine's own set.
    Window(WindowScheme<SigNodes>),
    /// Constraints held by the scheme.
    Owned(Scheme<SigNodes>),
}

impl SigScheme {
    /// The signature template generalized over.
    pub(crate) fn body(&self) -> &SigNodes {
        match self {
            SigScheme::Window(s) => s.body(),
            SigScheme::Owned(s) => s.body(),
        }
    }

    /// The quantified variables.
    pub(crate) fn bound_vars(&self) -> Box<dyn Iterator<Item = QVar> + '_> {
        match self {
            SigScheme::Window(s) => Box::new(s.bound_vars()),
            SigScheme::Owned(s) => Box::new(s.bound_vars().iter().copied()),
        }
    }

    /// The captured constraints; a window scheme reads them from `cs`,
    /// the engine's set.
    pub(crate) fn captured<'c>(
        &'c self,
        cs: &'c ConstraintSet,
    ) -> Box<dyn Iterator<Item = &'c Constraint> + 'c> {
        match self {
            SigScheme::Window(s) => Box::new(s.captured(cs)),
            SigScheme::Owned(s) => Box::new(s.captured_constraints().iter()),
        }
    }
}

/// The constraint-generation engine over one constraint world.
/// [`run_budgeted`] runs one engine over the whole program; the unit
/// replay in `crate::summary` runs a fresh engine per work unit, so the
/// per-unit entry points below are crate-visible. `'a` is the
/// lifetime of the program and of its [`Sema`].
pub(crate) struct Engine<'a> {
    pub(crate) sema: &'a Sema,
    pub(crate) space: QualSpace,
    /// Choice-point rules compiled from the space (see [`crate::quals`]).
    rules: ActiveRules,
    pub(crate) arena: QcArena,
    pub(crate) supply: VarSupply,
    pub(crate) cs: ConstraintSet,
    pub(crate) structs: StructTable,
    pub(crate) globals: FxHashMap<String, QcId>,
    pub(crate) sigs: FxHashMap<String, SigNodes>,
    /// Generalized signatures. A call instantiates its callee's scheme
    /// when there is one and links the template directly otherwise: a
    /// let-style SCC's members get theirs only after the SCC, and
    /// polymorphic recursion's rounds keep the previous round's.
    pub(crate) schemes: FxHashMap<String, SigScheme>,
    /// Scoped local cells of the function being analyzed.
    locals: Scopes<'a, QcId>,
    /// The C type of every string literal, made once.
    str_ty: CTy,
    current_ret: Option<QcId>,
    pub(crate) mode: Mode,
    /// Resource caps for this run.
    budgets: Budgets,
    /// Remaining work units for the function currently being analyzed.
    fuel: u64,
    /// Functions excluded by fault isolation; calls to them get the
    /// conservative library treatment.
    pub(crate) failed: FxHashSet<String>,
    /// Value nodes born from the literal `0` — C's null pointer
    /// constant, but only when it flows into pointer context (tracked
    /// so [`Self::flow`] can seed the pointer side; see
    /// [`Self::null_const_flow`]).
    null_consts: FxHashSet<QcId>,
}

/// A canonical, alpha-renamed view of one scheme's captured constraints,
/// used to detect the polymorphic-recursion fixpoint.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum CanonTerm {
    /// The i-th interface variable (position in the signature spine).
    Interface(usize),
    /// A free variable (global/struct field) by raw id.
    Free(usize),
    /// A lattice constant by canonical bits.
    Const(u64),
}

impl<'a> Engine<'a> {
    /// A fresh engine: empty arena, supply, and constraint world.
    pub(crate) fn new(
        sema: &'a Sema,
        space: &QualSpace,
        mode: Mode,
        budgets: Budgets,
    ) -> Engine<'a> {
        Engine {
            sema,
            space: space.clone(),
            rules: ActiveRules::compile(space),
            arena: QcArena::new(),
            supply: VarSupply::new(),
            cs: ConstraintSet::new(),
            structs: StructTable::new(),
            globals: FxHashMap::default(),
            sigs: FxHashMap::default(),
            schemes: FxHashMap::default(),
            locals: Scopes::default(),
            str_ty: CTy::char_().ptr_to(),
            current_ret: None,
            mode,
            budgets,
            fuel: budgets.max_fn_work,
            failed: FxHashSet::default(),
            null_consts: FxHashSet::default(),
        }
    }

    /// Creates the cells of every global variable, in item order.
    pub(crate) fn setup_globals(&mut self, prog: &Program) {
        let sema = self.sema;
        for item in sema.global_decls(prog) {
            if let Item::Global { name, ty, .. } = item {
                let cell = self.translator().lvalue_of(ty);
                self.globals.insert(name.clone(), cell);
            }
        }
    }

    /// Creates the shared cell of every struct field `wanted(tag,
    /// field)` accepts that has none yet. A field's qualifiers are
    /// "free in the environment" (§4.2: every instance of a struct
    /// shares them), so callers declare the fields a body names before
    /// its generalization window opens, where the cell would be
    /// quantified, and before its fault unit's rollback mark, which
    /// could drop a declared-const field's bound.
    pub(crate) fn declare_fields(&mut self, wanted: impl Fn(&str, &str) -> bool) {
        let mut tr = Translator {
            arena: &mut self.arena,
            supply: &mut self.supply,
            space: &self.space,
            cs: &mut self.cs,
        };
        self.structs.declare(&self.sema.structs, wanted, &mut tr);
    }

    /// Analyzes every global initializer. Each is its own fault unit
    /// with its own work budget; a failing initializer is rolled back
    /// and reported.
    pub(crate) fn analyze_global_inits(
        &mut self,
        prog: &Program,
        skipped: &mut Vec<Diagnostic>,
    ) {
        let sema = self.sema;
        for item in sema.global_decls(prog) {
            if let Item::Global {
                name,
                init: Some(e),
                ..
            } = item
            {
                let Some(&cell) = self.globals.get(name) else {
                    continue;
                };
                self.locals.reset();
                self.fuel = self.budgets.max_fn_work;
                let cs_mark = self.cs.len();
                let _mem = self.arm_unit_memory();
                match self.expr(e) {
                    Ok(v) => {
                        let contents = self.contents_of(cell);
                        self.flow(
                            v.rty,
                            contents,
                            Provenance::synthetic("global initializer"),
                        );
                    }
                    Err(d) => {
                        self.cs.truncate(cs_mark);
                        skipped.push(d.with_function(name.clone()));
                    }
                }
            }
        }
    }

    /// Analyzes one function monomorphically as its own fault unit: a
    /// failing body is rolled back, excluded, and reported.
    pub(crate) fn analyze_mono_fn(&mut self, f: &'a FnDef, skipped: &mut Vec<Diagnostic>) {
        let cs_mark = self.cs.len();
        let _mem = self.arm_unit_memory();
        if let Err(d) = self.analyze_fn(f) {
            self.cs.truncate(cs_mark);
            self.exclude(&f.name);
            skipped.push(d);
        }
    }

    /// Analyzes one FDG component in a polymorphic mode — the SCC is
    /// the fault unit — and generalizes each member's signature on
    /// success. `recursive` selects Mycroft iteration under
    /// [`Mode::PolymorphicRecursive`].
    pub(crate) fn analyze_poly_scc(
        &mut self,
        names: &[&str],
        recursive: bool,
        prog: &'a Program,
        options: Options,
        skipped: &mut Vec<Diagnostic>,
    ) {
        let scc_cs_mark = self.cs.len();
        let _mem = self.arm_unit_memory();
        if self.mode == Mode::PolymorphicRecursive && recursive {
            if let Err(d) = self.polyrec_scc(names, prog, options) {
                self.fail_scc(names, scc_cs_mark, d, skipped);
            }
            return;
        }
        if let Err(d) = self.generalize_round(names, prog, options) {
            self.fail_scc(names, scc_cs_mark, d, skipped);
        }
    }

    /// Arms [`Budgets::max_unit_bytes`] for one fault unit, until the
    /// returned guard drops; [`Self::charge`] polls it.
    fn arm_unit_memory(&self) -> Option<qual_obs::mem::UnitBudget> {
        self.budgets.max_unit_bytes.map(qual_obs::mem::unit_budget)
    }

    /// Analyzes the SCC's bodies inside one window — templates first
    /// (mutual recursion needs them all), then bodies — and generalizes
    /// each member's signature over the qualifier variables the window
    /// created (rule (Letv)). Constraints mentioning those variables can
    /// only lie in the constraints the window added, so each scheme
    /// records the two ranges instead of copying them.
    fn generalize_round(
        &mut self,
        names: &[&str],
        prog: &'a Program,
        options: Options,
    ) -> Result<(), Diagnostic> {
        let mark = self.supply.count();
        let cs_mark = self.cs.len();
        let sema = self.sema;
        for name in names {
            if let Some(f) = sema.function(prog, name) {
                self.make_sig(f);
            }
        }
        for name in names {
            if let Some(f) = sema.function(prog, name) {
                self.analyze_fn(f)?;
            }
        }
        let (vars, window) = (mark..self.supply.count(), cs_mark..self.cs.len());
        for name in names {
            let sig = self.sigs[*name].clone();
            let scheme = if options.simplify_schemes {
                // The interface is the signature spine: parameter
                // cells, their contents, and the return value.
                let keep: std::collections::HashSet<QVar> =
                    self.sig_interface(&sig).into_iter().collect();
                let bound = vars.clone().map(QVar::from_index).collect();
                let copied =
                    Scheme::generalize_in(sig, bound, &self.cs.constraints()[window.clone()]);
                SigScheme::Owned(copied.simplified(&keep))
            } else {
                SigScheme::Window(WindowScheme::new(sig, vars.clone(), window.clone()))
            };
            self.schemes.insert((*name).to_owned(), scheme);
        }
        Ok(())
    }

    /// Mycroft iteration over one recursive SCC: start every member from
    /// the most general scheme (fresh signature, no constraints), then
    /// repeatedly re-analyze the bodies with *all* calls — including
    /// intra-SCC ones — instantiating the previous round's schemes, until
    /// the compacted interface summaries stop changing. On convergence
    /// the schemes support their own derivations, which is exactly the
    /// polymorphic-recursion typing rule. If the iteration cap is hit
    /// without convergence, a final let-style round (monomorphic
    /// self-calls) restores the sound baseline.
    fn polyrec_scc(
        &mut self,
        names: &[&str],
        prog: &'a Program,
        options: Options,
    ) -> Result<(), Diagnostic> {
        const MAX_ROUNDS: usize = 8;

        // Round 0: most general assumption.
        for name in names {
            if let Some(f) = self.sema.function(prog, name) {
                self.make_sig(f);
                let sig = self.sigs[*name].clone();
                let bound = self.sig_interface(&sig);
                self.schemes.insert(
                    (*name).to_owned(),
                    SigScheme::Owned(Scheme::from_parts(sig, bound, Vec::new())),
                );
            }
        }
        let mut prev = self.scc_summaries(names);

        // Each round's intra-SCC calls instantiate the previous round's
        // schemes.
        for _round in 0..MAX_ROUNDS {
            self.generalize_round(names, prog, options)?;
            let cur = self.scc_summaries(names);
            let stable = cur == prev;
            prev = cur;
            if stable {
                return Ok(());
            }
        }
        // Did not converge: one authoritative let-style round, whose
        // intra-SCC calls link the templates directly.
        for name in names {
            self.schemes.remove(*name);
        }
        self.generalize_round(names, prog, options)
    }

    /// Fault-isolates a whole SCC: rolls its constraints back, excludes
    /// every member, and records the triggering diagnostic (plus a
    /// warning per innocent co-member dragged down with it).
    fn fail_scc(
        &mut self,
        names: &[&str],
        cs_mark: usize,
        d: Diagnostic,
        skipped: &mut Vec<Diagnostic>,
    ) {
        self.cs.truncate(cs_mark);
        for &name in names {
            self.exclude(name);
            if d.function.as_deref() != Some(name) {
                skipped.push(
                    Diagnostic::warning(
                        Phase::Infer,
                        "skipped: mutually recursive with a failed function",
                    )
                    .with_function(name.to_owned()),
                );
            }
        }
        skipped.push(d);
    }

    /// Excludes a failed function from the result: callers from now on
    /// treat it as a library function, and — because callers that were
    /// already analyzed linked into its shared signature template — its
    /// parameter levels not declared const are poisoned non-const, the
    /// same conservative stance §4.2 takes for library code.
    fn exclude(&mut self, name: &str) {
        self.failed.insert(name.to_owned());
        self.schemes.remove(name);
        let Some(sig) = self.sigs.get(name).cloned() else {
            return;
        };
        let declared = self.sema.signatures.get(name);
        for (i, pcell) in sig.params.iter().enumerate() {
            let value = self.contents_of(*pcell);
            let flags = declared
                .and_then(|s| s.params.get(i))
                .map(pointee_const_flags)
                .unwrap_or_default();
            let spine = self.arena.spine(value);
            for (level, node) in spine.iter().enumerate() {
                if !flags.get(level).copied().unwrap_or(false) {
                    self.write_through(
                        *node,
                        Provenance::synthetic("skipped function"),
                    );
                }
            }
        }
    }

    /// Spends one unit of the per-function work budget and checks the
    /// global constraint cap; the budget turned to an error here is what
    /// makes every analysis loop terminate on adversarial input.
    ///
    /// This is also the engine's cooperative cancellation point: when
    /// the worker thread's wall-clock deadline
    /// ([`qual_faultpoint::cancel`]) fires, the current function/SCC
    /// unwinds through the very same rollback-and-exclude path a blown
    /// budget takes — partial constraints discarded, the unit reported,
    /// its dependents degraded conservatively.
    fn charge(&mut self, e: &Expr) -> Result<(), Diagnostic> {
        if qual_faultpoint::cancel::expired() {
            return Err(Diagnostic::error(
                Phase::Infer,
                "unit deadline exceeded; analysis cancelled".to_owned(),
            )
            .with_span(e.span.lo, e.span.hi));
        }
        if let Some((used, limit)) = qual_obs::mem::unit_overrun() {
            return Err(Diagnostic::error(
                Phase::Infer,
                format!(
                    "memory budget exceeded ({used} of {limit} bytes allocated)"
                ),
            )
            .with_span(e.span.lo, e.span.hi));
        }
        if self.cs.len() >= self.budgets.max_constraints {
            return Err(Diagnostic::error(
                Phase::Infer,
                format!(
                    "constraint budget exceeded ({} constraints)",
                    self.budgets.max_constraints
                ),
            )
            .with_span(e.span.lo, e.span.hi));
        }
        if self.fuel == 0 {
            return Err(Diagnostic::error(
                Phase::Infer,
                format!(
                    "analysis work budget exceeded ({} steps)",
                    self.budgets.max_fn_work
                ),
            )
            .with_span(e.span.lo, e.span.hi));
        }
        self.fuel -= 1;
        Ok(())
    }

    /// The signature spine variables, in deterministic order.
    pub(crate) fn sig_interface(&self, sig: &SigNodes) -> Vec<QVar> {
        let mut vars = Vec::new();
        for cell in &sig.params {
            self.arena.vars_of(*cell, &mut vars);
        }
        self.arena.vars_of(sig.ret, &mut vars);
        vars
    }

    /// Alpha-renamed summaries of every scheme in the SCC, for fixpoint
    /// detection across rounds (templates differ each round, so interface
    /// variables are canonicalized by their spine position).
    fn scc_summaries(&self, names: &[&str]) -> Vec<Vec<(CanonTerm, CanonTerm, u64)>> {
        names
            .iter()
            .map(|&name| {
                let Some(scheme) = self.schemes.get(name) else {
                    return Vec::new();
                };
                let interface = self.sig_interface(scheme.body());
                let index: HashMap<QVar, usize> = interface
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (*v, i))
                    .collect();
                let canon = |q: Qual| match q {
                    Qual::Var(v) => index
                        .get(&v)
                        .map(|i| CanonTerm::Interface(*i))
                        .unwrap_or(CanonTerm::Free(v.index())),
                    Qual::Const(c) => CanonTerm::Const(c.bits()),
                };
                let mut rows: Vec<(CanonTerm, CanonTerm, u64)> = scheme
                    .captured(&self.cs)
                    .map(|c| (canon(c.lhs), canon(c.rhs), c.mask))
                    .collect();
                rows.sort();
                rows.dedup();
                rows
            })
            .collect()
    }

    pub(crate) fn make_sig(&mut self, f: &FnDef) {
        let params = f
            .params
            .iter()
            .map(|(_, t)| {
                let decayed = t.decayed();
                self.translator().lvalue_of(&decayed)
            })
            .collect();
        let ret = self.translator().rvalue_of(&f.ret);
        self.sigs.insert(f.name.clone(), SigNodes { params, ret });
    }

    fn translator(&mut self) -> Translator<'_> {
        Translator {
            arena: &mut self.arena,
            supply: &mut self.supply,
            space: &self.space,
            cs: &mut self.cs,
        }
    }

    fn prov(e: &Expr, what: &'static str) -> Provenance {
        Provenance::at(e.span.lo, e.span.hi, what)
    }

    /// The contents node of a `Ref` cell (or a fresh value node when the
    /// shape is unexpectedly not a ref — severed flows can cause this).
    fn contents_of(&mut self, cell: QcId) -> QcId {
        match self.arena.get(cell).shape {
            QcShape::Ref(inner) => inner,
            _ => {
                let q = Qual::Var(self.supply.fresh());
                self.arena.mk(q, QcShape::Val)
            }
        }
    }

    /// The assignment choice point — the (Assign′) restriction of §2.4,
    /// generalized: writing through the cell requires its qualifier
    /// below `¬q` for every write-forbidding coordinate (`const`), each
    /// masked to its own coordinate.
    fn write_through(&mut self, cell: QcId, at: Provenance) {
        for i in 0..self.rules.write_forbids.len() {
            let c = self.rules.write_forbids[i];
            let q = self.arena.get(cell).qual;
            self.cs.add_masked(q, self.space.not_q(c), &[c], at);
        }
    }

    /// The deref choice point: the dereferenced pointer value must not
    /// carry any deref-forbidden coordinate's bad state (`tainted`
    /// present, `nonnull` absent).
    fn deref_check(&mut self, ptr: QcId, e: &Expr) {
        for i in 0..self.rules.deref_forbids.len() {
            let (id, label) = self.rules.deref_forbids[i];
            let q = self.arena.get(ptr).qual;
            self.cs
                .add_masked(q, self.space.not_q(id), &[id], Self::prov(e, label));
        }
    }

    /// The null-pointer-constant rule (C90 §6.2.2.3): the literal `0`
    /// is null only where it flows into *pointer* context. An
    /// int-valued zero — a loop counter, a K&R int/pointer pun through
    /// an `int` return — never seeds, so legacy code stays satisfiable
    /// while `char *p = 0;` still marks `p` possibly-null. Called from
    /// [`Self::flow`] with `b` the pointer-side node.
    fn null_const_flow(&mut self, b: QcId, at: Provenance) {
        for i in 0..self.rules.null_seeds.len() {
            let (id, label) = self.rules.null_seeds[i];
            let q = self.arena.get(b).qual;
            self.cs.add_masked(
                seed_set(id),
                q,
                &[id],
                Provenance::at(at.lo, at.hi, label),
            );
        }
    }

    /// The call choice point for library functions: sink arguments must
    /// not carry a forbidden coordinate (`tainted` at `system`), and
    /// source returns are seeded (`getenv` tainted, allocators
    /// possibly-null).
    fn library_call_rules(&mut self, fname: &str, args: &[EVal], ret: QcId, e: &Expr) {
        for i in 0..self.rules.sink_forbids.len() {
            let rule = self.rules.sink_forbids[i];
            if !rule.fns.contains(&fname) {
                continue;
            }
            for av in args {
                let q = self.arena.get(av.rty).qual;
                self.cs.add_masked(
                    q,
                    self.space.not_q(rule.id),
                    &[rule.id],
                    Self::prov(e, rule.label),
                );
            }
        }
        for i in 0..self.rules.source_seeds.len() {
            let rule = self.rules.source_seeds[i];
            if !rule.fns.contains(&fname) {
                continue;
            }
            let q = self.arena.get(ret).qual;
            self.cs.add_masked(
                seed_set(rule.id),
                q,
                &[rule.id],
                Self::prov(e, rule.label),
            );
        }
    }

    /// Structural flow `a ⊑ b` between value nodes: qualifier flows
    /// covariantly; `Ref` contents are invariant (SubRef). Shape
    /// mismatches (e.g. the literal 0 flowing into a pointer) generate
    /// nothing deeper — there is no aliasing to protect.
    fn flow(&mut self, a: QcId, b: QcId, at: Provenance) {
        if self.null_consts.contains(&a)
            && matches!(self.arena.get(b).shape, QcShape::Ref(_))
        {
            self.null_const_flow(b, at);
        }
        let (qa, qb) = (self.arena.get(a).qual, self.arena.get(b).qual);
        self.cs.add_with(qa, qb, at);
        if let Some((ca, cb)) = self.ref_contents(a, b) {
            self.equate(ca, cb, at);
        }
    }

    /// Structural equality (both flow directions, recursively).
    fn equate(&mut self, a: QcId, b: QcId, at: Provenance) {
        if a == b {
            return;
        }
        let (qa, qb) = (self.arena.get(a).qual, self.arena.get(b).qual);
        self.cs.add_eq(qa, qb, at);
        if let Some((ca, cb)) = self.ref_contents(a, b) {
            self.equate(ca, cb, at);
        }
    }

    /// The contents of `a` and `b` when both are refs.
    fn ref_contents(&self, a: QcId, b: QcId) -> Option<(QcId, QcId)> {
        match (&self.arena.get(a).shape, &self.arena.get(b).shape) {
            (QcShape::Ref(ca), QcShape::Ref(cb)) => Some((*ca, *cb)),
            _ => None,
        }
    }

    fn fresh_val(&mut self) -> QcId {
        let q = Qual::Var(self.supply.fresh());
        self.arena.mk(q, QcShape::Val)
    }

    fn analyze_fn(&mut self, f: &'a FnDef) -> Result<(), Diagnostic> {
        // Chaos hook: an injected `Panic` here simulates an engine bug
        // mid-analysis (plain `cqual` dies with it; `cquald` confines it
        // to its request, DESIGN.md §12); an injected `Delay` simulates
        // a slow body (a request deadline reaps it). One relaxed load
        // when no plan is installed.
        qual_faultpoint::maybe_panic("unit.solve");
        self.fuel = self.budgets.max_fn_work;
        let Some(sig) = self.sigs.get(&f.name) else {
            return Err(Diagnostic::error(
                Phase::Infer,
                "missing signature template",
            )
            .with_span(f.span.lo, f.span.hi)
            .with_function(f.name.clone()));
        };
        // A body that failed partway may have left scopes open.
        self.locals.reset();
        self.locals.open();
        for ((name, _), cell) in f.params.iter().zip(&sig.params) {
            self.locals.declare(name, *cell);
        }
        self.current_ret = Some(sig.ret);
        let r = self.block(&f.body);
        self.current_ret = None;
        r.map_err(|d| d.with_function(f.name.clone()))
    }

    fn block(&mut self, b: &'a Block) -> Result<(), Diagnostic> {
        self.locals.open();
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.locals.close();
        Ok(())
    }

    fn stmt(&mut self, s: &'a Stmt) -> Result<(), Diagnostic> {
        match s {
            Stmt::Decl { name, ty, init, .. } => {
                let cell = self.translator().lvalue_of(ty);
                if let Some(e) = init {
                    let v = self.expr(e)?;
                    let contents = self.contents_of(cell);
                    self.flow(v.rty, contents, Self::prov(e, "initializer"));
                }
                self.locals.declare(name, cell);
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
            }
            Stmt::If { cond, then, els } => {
                self.expr(cond)?;
                self.block(then)?;
                if let Some(b) = els {
                    self.block(b)?;
                }
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                self.expr(cond)?;
                self.block(body)?;
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.locals.open();
                if let Some(s) = init {
                    self.stmt(s)?;
                }
                if let Some(e) = cond {
                    self.expr(e)?;
                }
                if let Some(e) = step {
                    self.expr(e)?;
                }
                self.block(body)?;
                self.locals.close();
            }
            Stmt::Return(Some(e), _) => {
                let v = self.expr(e)?;
                if let Some(ret) = self.current_ret {
                    self.flow(v.rty, ret, Self::prov(e, "return value"));
                }
            }
            Stmt::Switch { cond, arms } => {
                self.expr(cond)?;
                for arm in arms {
                    self.block(&arm.body)?;
                }
            }
            Stmt::Label(_, inner) => self.stmt(inner)?,
            Stmt::Return(None, _) | Stmt::Break(_) | Stmt::Continue(_) | Stmt::Goto(..) => {}
            Stmt::Block(b) => self.block(b)?,
        }
        Ok(())
    }

    /// The declared C type of `e`, as an error rather than a panic when
    /// sema never typed it (a fault-isolated body must not bring the
    /// engine down).
    fn sema_ty(&self, e: &Expr) -> Result<&'a CTy, Diagnostic> {
        self.sema.ty_of(e.id).ok_or_else(|| {
            Diagnostic::error(Phase::Infer, "expression was never typed by sema")
                .with_span(e.span.lo, e.span.hi)
        })
    }

    fn expr(&mut self, e: &Expr) -> Result<EVal, Diagnostic> {
        self.charge(e)?;
        Ok(match &e.kind {
            ExprKind::IntLit(n) => {
                let v = self.fresh_val();
                // Remember `0` values: they become null seeds only if
                // they later flow into a pointer (see null_const_flow).
                if *n == 0 && !self.rules.null_seeds.is_empty() {
                    self.null_consts.insert(v);
                }
                EVal::rvalue(v)
            }
            ExprKind::CharLit(_) | ExprKind::Sizeof => EVal::rvalue(self.fresh_val()),
            ExprKind::StrLit(_) => {
                // C90 string literals have writable type char[] (writing
                // one is undefined behaviour but type-correct), so no
                // const lower bound: a correct-C program that passes a
                // literal into an eventually-written position must stay
                // satisfiable. The literal's cell is a fresh ref.
                let ty = self.str_ty.clone();
                let v = self.translator().rvalue_of(&ty);
                EVal::rvalue(v)
            }
            ExprKind::Ident(name) => match self.sema.resolution_of(e.id) {
                Some(Resolution::Local) => {
                    let Some(&cell) = self.locals.get(name) else {
                        return Err(Diagnostic::error(
                            Phase::Infer,
                            format!("local `{name}` missing from engine scope"),
                        )
                        .with_span(e.span.lo, e.span.hi));
                    };
                    let rty = self.contents_of(cell);
                    EVal {
                        lcell: Some(cell),
                        guards: Vec::new(),
                        rty,
                    }
                }
                Some(Resolution::Global) => {
                    let Some(&cell) = self.globals.get(name) else {
                        return Err(Diagnostic::error(
                            Phase::Infer,
                            format!("global `{name}` missing from engine scope"),
                        )
                        .with_span(e.span.lo, e.span.hi));
                    };
                    let rty = self.contents_of(cell);
                    EVal {
                        lcell: Some(cell),
                        guards: Vec::new(),
                        rty,
                    }
                }
                Some(Resolution::Function) => {
                    // A function name outside callee position: its
                    // address escapes; conservatively un-const its
                    // pointer parameters (anyone may call it with
                    // writable data expectations).
                    if let Some(sig) = self.sigs.get(name).cloned() {
                        for p in sig.params {
                            let contents = self.contents_of(p);
                            for node in self.arena.spine(contents) {
                                self.write_through(node, Self::prov(e, "address-taken function"));
                            }
                        }
                    }
                    let q = Qual::Var(self.supply.fresh());
                    EVal::rvalue(self.arena.mk(q, QcShape::Fun))
                }
                Some(Resolution::EnumConst(_)) | None => EVal::rvalue(self.fresh_val()),
            },
            ExprKind::Unary(op, inner) => {
                let iv = self.expr(inner)?;
                match op {
                    UnOp::Deref => {
                        // The pointer value *is* the ref to the pointee
                        // cell in the θ encoding.
                        self.deref_check(iv.rty, e);
                        let rty = self.contents_of(iv.rty);
                        EVal {
                            lcell: Some(iv.rty),
                            guards: Vec::new(),
                            rty,
                        }
                    }
                    UnOp::Addr => match iv.lcell {
                        Some(cell) => EVal::rvalue(cell),
                        None => {
                            let ty = self.sema_ty(e)?;
                            let v = self.translator().rvalue_of(ty);
                            EVal::rvalue(v)
                        }
                    },
                    UnOp::Neg | UnOp::Not | UnOp::BitNot => EVal::rvalue(self.fresh_val()),
                    UnOp::PreInc | UnOp::PreDec => {
                        self.write_value(&iv, Self::prov(e, "increment"));
                        EVal::rvalue(iv.rty)
                    }
                }
            }
            ExprKind::PostIncDec(inner, _) => {
                let iv = self.expr(inner)?;
                self.write_value(&iv, Self::prov(e, "increment"));
                EVal::rvalue(iv.rty)
            }
            ExprKind::Binary(op, a, b) => {
                use qual_cfront::ast::BinOp;
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                match op {
                    BinOp::Add | BinOp::Sub => {
                        // Pointer arithmetic aliases the same cells: keep
                        // the pointer operand's node.
                        if matches!(self.arena.get(va.rty).shape, QcShape::Ref(_)) {
                            EVal::rvalue(va.rty)
                        } else if matches!(self.arena.get(vb.rty).shape, QcShape::Ref(_)) {
                            EVal::rvalue(vb.rty)
                        } else {
                            EVal::rvalue(self.fresh_val())
                        }
                    }
                    _ => EVal::rvalue(self.fresh_val()),
                }
            }
            ExprKind::Assign(op, lhs, rhs) => {
                let lv = self.expr(lhs)?;
                let rv = self.expr(rhs)?;
                let _ = op; // compound assigns read too, but the write is what matters
                self.write_value(&lv, Self::prov(e, "assignment"));
                if let Some(cell) = lv.lcell {
                    let contents = self.contents_of(cell);
                    self.flow(rv.rty, contents, Self::prov(e, "assignment"));
                }
                EVal::rvalue(lv.rty)
            }
            ExprKind::Call(callee, args) => self.call(e, callee, args)?,
            ExprKind::Index(base, idx) => {
                let bv = self.expr(base)?;
                self.expr(idx)?;
                self.deref_check(bv.rty, e);
                let rty = self.contents_of(bv.rty);
                EVal {
                    lcell: Some(bv.rty),
                    guards: Vec::new(),
                    rty,
                }
            }
            ExprKind::Member(base, field) => {
                let bv = self.expr(base)?;
                let mut guards = bv.guards;
                guards.extend(bv.lcell);
                self.member_cell(base, bv.rty, field, guards)?
            }
            ExprKind::PMember(base, field) => {
                let bv = self.expr(base)?;
                // Writing through p->f also requires the pointee cell
                // (the pointer's target) to be non-const.
                let pointee_guard = vec![bv.rty];
                self.deref_check(bv.rty, e);
                let struct_val = self.contents_of(bv.rty);
                self.member_cell(base, struct_val, field, pointee_guard)?
            }
            ExprKind::Cast(ty, inner) => {
                // Explicit casts lose any association (§4.2).
                self.expr(inner)?;
                let v = self.translator().rvalue_of(ty);
                EVal::rvalue(v)
            }
            ExprKind::Cond(c, t, f) => {
                self.expr(c)?;
                let vt = self.expr(t)?;
                let vf = self.expr(f)?;
                let ty = self.sema_ty(e)?;
                let out = self.translator().rvalue_of(&ty.decayed());
                self.flow(vt.rty, out, Self::prov(e, "conditional"));
                self.flow(vf.rty, out, Self::prov(e, "conditional"));
                EVal::rvalue(out)
            }
            ExprKind::Comma(a, b) => {
                self.expr(a)?;
                let vb = self.expr(b)?;
                EVal::rvalue(vb.rty)
            }
        })
    }

    /// The shared field cell of `tag.field` as an l-value.
    fn member_cell(
        &mut self,
        base: &Expr,
        struct_val: QcId,
        field: &str,
        guards: Vec<QcId>,
    ) -> Result<EVal, Diagnostic> {
        let tag = match &self.arena.get(struct_val).shape {
            QcShape::Struct(tag) => tag.clone(),
            _ => {
                // Severed or unknown: use sema's type if possible.
                match &self.sema_ty(base)?.decayed().kind {
                    CTyKind::Struct(t) => t.clone(),
                    CTyKind::Ptr(inner) => match &inner.kind {
                        CTyKind::Struct(t) => t.clone(),
                        _ => return Ok(EVal::rvalue(self.fresh_val())),
                    },
                    _ => return Ok(EVal::rvalue(self.fresh_val())),
                }
            }
        };
        let Some(cell) = self.structs.field_cell(&tag, field) else {
            debug_assert!(
                self.sema
                    .structs
                    .get(&*tag)
                    .is_none_or(|fs| fs.iter().all(|(n, _)| n != field)),
                "{tag}.{field} was not declared before its body"
            );
            return Ok(EVal::rvalue(self.fresh_val()));
        };
        let rty = self.contents_of(cell);
        Ok(EVal {
            lcell: Some(cell),
            guards,
            rty,
        })
    }

    /// Applies the write restriction to a value's cell and guards.
    fn write_value(&mut self, v: &EVal, at: Provenance) {
        if let Some(cell) = v.lcell {
            self.write_through(cell, at);
        }
        for g in &v.guards {
            self.write_through(*g, at);
        }
    }

    fn call(
        &mut self,
        e: &Expr,
        callee: &Expr,
        args: &[Expr],
    ) -> Result<EVal, Diagnostic> {
        let arg_vals: Vec<EVal> = args
            .iter()
            .map(|a| self.expr(a))
            .collect::<Result<_, _>>()?;
        let fname = match (&callee.kind, self.sema.resolution_of(callee.id)) {
            (ExprKind::Ident(n), Some(Resolution::Function) | None) => Some(n.as_str()),
            _ => None,
        };
        let Some(fname) = fname else {
            // Indirect call: conservative — every pointer argument may be
            // written by the unknown callee.
            self.expr(callee)?;
            for av in &arg_vals {
                for node in self.arena.spine(av.rty) {
                    self.write_through(node, Self::prov(e, "indirect call"));
                }
            }
            return Ok(EVal::rvalue(self.fresh_val()));
        };

        if self.sema.is_defined(fname) && !self.failed.contains(fname) {
            let sig = if let Some(scheme) = self.schemes.get(fname) {
                // (Var′): fresh instance per call site.
                let arena = &mut self.arena;
                let rename = |body: &SigNodes, f: &dyn Fn(QVar) -> QVar| SigNodes {
                    params: body.params.iter().map(|p| arena.copy_with(*p, f)).collect(),
                    ret: arena.copy_with(body.ret, f),
                };
                match scheme {
                    SigScheme::Window(s) => s.instantiate(&mut self.supply, &mut self.cs, rename),
                    SigScheme::Owned(s) => s.instantiate(&mut self.supply, &mut self.cs, rename),
                }
            } else {
                match self.sigs.get(fname) {
                    Some(s) => s.clone(),
                    None => {
                        return Err(Diagnostic::error(
                            Phase::Infer,
                            format!("defined function `{fname}` has no signature template"),
                        )
                        .with_span(e.span.lo, e.span.hi))
                    }
                }
            };
            for (av, pcell) in arg_vals.iter().zip(sig.params.iter()) {
                let contents = self.contents_of(*pcell);
                self.flow(av.rty, contents, Self::prov(e, "argument"));
            }
            // Extra arguments (wrong-arity calls) are ignored (§4.2).
            Ok(EVal::rvalue(sig.ret))
        } else {
            // Library function (or one excluded by fault isolation):
            // parameters not declared const are conservatively
            // non-const (§4.2).
            let declared = self.sema.signatures.get(fname);
            for (i, av) in arg_vals.iter().enumerate() {
                let declared_param = declared.and_then(|s| s.params.get(i));
                self.constrain_library_arg(av.rty, declared_param, e);
            }
            let ret_ty = declared.map_or_else(CTy::int, |s| s.ret.decayed());
            let v = self.translator().rvalue_of(&ret_ty);
            self.library_call_rules(fname, &arg_vals, v, e);
            Ok(EVal::rvalue(v))
        }
    }

    /// For a library call: walk the argument's pointer spine alongside
    /// the declared parameter type; any level not declared const is
    /// forced non-const ("lack of const does mean can't-be-const").
    fn constrain_library_arg(&mut self, arg: QcId, declared: Option<&CTy>, e: &Expr) {
        let spine = self.arena.spine(arg);
        let flags = declared.map(pointee_const_flags).unwrap_or_default();
        for (i, node) in spine.iter().enumerate() {
            let declared_const = flags.get(i).copied().unwrap_or(false);
            if !declared_const {
                self.write_through(*node, Self::prov(e, "library call"));
            }
        }
    }
}

/// The `const` flags of each pointee level of a declared parameter type,
/// outermost pointer first.
fn pointee_const_flags(t: &CTy) -> Vec<bool> {
    let mut flags = Vec::new();
    let mut cur = t.decayed();
    while let CTyKind::Ptr(inner) = cur.kind {
        flags.push(inner.is_const);
        cur = inner.decayed();
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use qual_cfront::{parse, sema};

    #[test]
    fn mode_names_are_fixed_and_round_trip() {
        let modes = [Mode::Monomorphic, Mode::Polymorphic, Mode::PolymorphicRecursive];
        assert_eq!(modes.map(Mode::name), ["mono", "poly", "polyrec"]);
        for m in modes {
            assert_eq!(Mode::from_name(m.name()), Some(m));
        }
        assert_eq!(Mode::from_name("monomorphic"), None);
    }

    fn analyze(src: &str, mode: Mode) -> Analysis {
        let prog = parse(src).expect("parses");
        let sem = sema::analyze(&prog).expect("sema");
        run(&prog, &sem, &QualSpace::const_only(), mode)
    }

    /// Classification of a function's parameter position: (can_const,
    /// must_const) of pointer level `level` of parameter `param`.
    fn param_level(a: &Analysis, f: &str, param: usize, level: usize) -> (bool, bool) {
        let sol = a.solution.as_ref().expect("satisfiable");
        let c = a.space.id("const").unwrap();
        let cell = a.signatures[f].params[param];
        let QcShape::Ref(value) = a.arena.get(cell).shape else {
            panic!("param cell is a ref");
        };
        let spine = a.arena.spine(value);
        let q = a.arena.get(spine[level]).qual;
        (
            sol.eval_greatest(q).has(&a.space, c),
            sol.eval_least(q).has(&a.space, c),
        )
    }

    #[test]
    fn shadowed_locals_take_their_own_flows() {
        // Each write goes through one `p` or `q`; whether it reaches the
        // parameter depends only on which declaration is in scope.
        let src = "void w(char *p) { { char *p = 0; } p[0] = 1; }
                   void r(char *p) { { char *p = 0; p[0] = 1; } }
                   void s(char *p) { for (char *p = 0; p; ) { p[0] = 1; } }
                   void t(char *p) { for (char *q = p; q; ) { char *p = 0; q[0] = 1; } }
                   void d(char *p, char *o) { char *q = o; char *q = p; q[0] = 1; }";
        for mode in [Mode::Monomorphic, Mode::Polymorphic, Mode::PolymorphicRecursive] {
            let a = analyze(src, mode);
            let can = |f: &str, param: usize| param_level(&a, f, param, 0).0;
            assert!(!can("w", 0), "{mode:?}: the write after the block is the parameter's");
            assert!(can("r", 0), "{mode:?}: the write in the block is the local's");
            assert!(can("s", 0), "{mode:?}: the write in the loop is the loop variable's");
            assert!(!can("t", 0), "{mode:?}: `q` aliases the parameter");
            assert!(!can("d", 0), "{mode:?}: the second `q` holds `p`");
            assert!(can("d", 1), "{mode:?}: the first `q` is shadowed before the write");
        }
    }

    #[test]
    fn pure_reader_param_can_be_const() {
        let a = analyze(
            "int strlen2(char *s) {
               int n = 0;
               while (*s) { s++; n++; }
               return n;
             }",
            Mode::Monomorphic,
        );
        let (can, must) = param_level(&a, "strlen2", 0, 0);
        assert!(can, "read-only pointee is const-able");
        assert!(!must);
    }

    #[test]
    fn written_param_cannot_be_const() {
        let a = analyze(
            "void zero(int *p, int n) {
               for (int i = 0; i < n; i++) p[i] = 0;
             }",
            Mode::Monomorphic,
        );
        let (can, _) = param_level(&a, "zero", 0, 0);
        assert!(!can, "written-through pointee must stay non-const");
    }

    #[test]
    fn declared_const_is_must_const() {
        let a = analyze(
            "int peek(const int *p) { return *p; }",
            Mode::Monomorphic,
        );
        let (can, must) = param_level(&a, "peek", 0, 0);
        assert!(can && must);
    }

    #[test]
    fn flows_propagate_nonconst_backwards() {
        // caller passes p to a writer; p's own parameter becomes
        // non-const-able too.
        let a = analyze(
            "void writer(int *q) { *q = 1; }
             void caller(int *p) { writer(p); }",
            Mode::Monomorphic,
        );
        let (can, _) = param_level(&a, "caller", 0, 0);
        assert!(!can, "flow into a writer poisons the caller's param");
    }

    #[test]
    fn library_params_poison_unless_declared_const() {
        let a = analyze(
            "int puts(const char *s);
             int mystery(char *s);
             void f(char *a, char *b) { puts(a); mystery(b); }",
            Mode::Monomorphic,
        );
        let (can_a, _) = param_level(&a, "f", 0, 0);
        let (can_b, _) = param_level(&a, "f", 1, 0);
        assert!(can_a, "puts declares const: a stays const-able");
        assert!(!can_b, "mystery does not: b is poisoned");
    }

    #[test]
    fn explicit_cast_severs_flow() {
        let a = analyze(
            "void writer(int *q) { *q = 1; }
             void caller(int *p) { writer((int *)p); }",
            Mode::Monomorphic,
        );
        let (can, _) = param_level(&a, "caller", 0, 0);
        assert!(can, "the cast severed the flow (§4.2)");
    }

    #[test]
    fn struct_fields_shared_across_instances() {
        let a = analyze(
            "struct st { int *p; };
             void f(struct st a, struct st b) {
               *(a.p) = 1;   /* write through a's field */
               b.p;          /* b shares the field qualifier */
             }",
            Mode::Monomorphic,
        );
        // Both a.p and b.p contents are non-const-able because fields are
        // shared. We check via the shared field cell's poisoning: analyze
        // a reader of b.p.
        let a2 = analyze(
            "struct st { int *p; };
             int g(struct st b) { return *(b.p); }
             void f(struct st a) { *(a.p) = 1; }",
            Mode::Monomorphic,
        );
        assert!(a.solution.is_ok());
        assert!(a2.solution.is_ok());
    }

    #[test]
    fn struct_fields_are_never_generalized() {
        // `get` is generalized before `set` is analyzed; its instance in
        // `w` must still write through the one shared field cell that
        // `set` stores `v` into (§4.2).
        let src = "struct s { char *f; };
                   char *get(struct s *p) { return p->f; }
                   void w(struct s *p) { char *c = get(p); c[0] = 1; }
                   void set(struct s *p, char *v) { p->f = v; }";
        for mode in [Mode::Monomorphic, Mode::Polymorphic, Mode::PolymorphicRecursive] {
            let (can, _) = param_level(&analyze(src, mode), "set", 1, 0);
            assert!(!can, "{mode:?}: the field is written through");
        }
    }

    #[test]
    fn a_rolled_back_body_keeps_a_const_fields_bound() {
        // `big` is the first body to read `s.f`, then runs out of work
        // budget and is rolled back. The field's declared `const` must
        // survive the rollback, so `w`'s write through it stays an error.
        let src = "struct s { const char *f; };
                   void big(struct s *p, int *q) {
                     const char *c = p->f;
                     *q = 1; *q = 2; *q = 3; *q = 4; *q = 5;
                     *q = 6; *q = 7; *q = 8; *q = 9; *q = 10;
                   }
                   void w(struct s *p) { char *c = p->f; c[0] = 1; }";
        let prog = parse(src).expect("parses");
        let sem = sema::analyze(&prog).expect("sema");
        let budgets = Budgets {
            max_fn_work: 20,
            ..Budgets::unlimited()
        };
        for mode in [Mode::Monomorphic, Mode::Polymorphic, Mode::PolymorphicRecursive] {
            let space = QualSpace::const_only();
            let (a, skipped) =
                run_budgeted(&prog, &sem, &space, mode, Options::default(), budgets);
            assert_eq!(skipped.len(), 1, "{mode:?}: {skipped:?}");
            assert_eq!(skipped[0].function.as_deref(), Some("big"), "{mode:?}");
            assert!(a.solution.is_err(), "{mode:?}: w writes through a const field");
        }
    }

    #[test]
    fn polymorphic_id_distinguishes_call_sites() {
        // The strchr pattern (§1): identity on pointers used both for
        // writing and with const data.
        let src = "char *id(char *s) { return s; }
                   void writer(char *buf) { *id(buf) = 'x'; }
                   int reader(const char *msg) { return *id((char *)0 ? (char *)0 : (char *)msg); }";
        // NOTE: reader defeats the type system with casts, as real C
        // does; the interesting check is mono vs poly on a cleaner case.
        let src_clean = "char *id(char *s) { return s; }
                         void writer(char *buf) { *id(buf) = 'x'; }
                         char *reader(char *msg) { return id(msg); }";
        let mono = analyze(src_clean, Mode::Monomorphic);
        let poly = analyze(src_clean, Mode::Polymorphic);
        let _ = src;
        // Monomorphic: the write in `writer` flows through id's shared
        // signature and poisons reader's msg as well.
        let c = mono.space.id("const").unwrap();
        let msg_can = |a: &Analysis| {
            let sol = a.solution.as_ref().unwrap();
            let cell = a.signatures["reader"].params[0];
            let QcShape::Ref(value) = a.arena.get(cell).shape else {
                unreachable!()
            };
            let spine = a.arena.spine(value);
            sol.eval_greatest(a.arena.get(spine[0]).qual).has(&a.space, c)
        };
        assert!(!msg_can(&mono), "mono: writer's use poisons msg");
        assert!(msg_can(&poly), "poly: each call site instantiates id");
    }

    #[test]
    fn recursion_is_handled() {
        let a = analyze(
            "int len(const char *s) { return *s ? 1 + len(s + 1) : 0; }",
            Mode::Polymorphic,
        );
        assert!(a.solution.is_ok());
        let (can, must) = param_level(&a, "len", 0, 0);
        assert!(can && must);
    }

    #[test]
    fn string_literals_do_not_poison() {
        let a = analyze(
            "int f(const char *s);
             int g(void) { return f(\"hello\"); }",
            Mode::Monomorphic,
        );
        assert!(a.solution.is_ok());
    }

    #[test]
    fn work_budget_isolates_the_offending_function() {
        // `big` spends more than the work budget; `small` fits. The
        // failure must be contained to `big`, with `small` still
        // classified, and `big`'s parameter poisoned like a library
        // function's.
        let src = "void big(int *p) {
                     *p = 1; *p = 2; *p = 3; *p = 4; *p = 5;
                     *p = 6; *p = 7; *p = 8; *p = 9; *p = 10;
                   }
                   int small(const int *q) { return *q; }";
        let prog = parse(src).expect("parses");
        let sem = sema::analyze(&prog).expect("sema");
        let budgets = Budgets {
            max_fn_work: 20,
            ..Budgets::unlimited()
        };
        let (a, skipped) = run_budgeted(
            &prog,
            &sem,
            &QualSpace::const_only(),
            Mode::Monomorphic,
            Options::default(),
            budgets,
        );
        assert_eq!(skipped.len(), 1, "{skipped:?}");
        assert_eq!(skipped[0].function.as_deref(), Some("big"));
        assert!(
            skipped[0].message.contains("work budget"),
            "{}",
            skipped[0].message
        );
        assert!(a.solution.is_ok());
        let (can_small, must_small) = param_level(&a, "small", 0, 0);
        assert!(can_small && must_small, "small is unaffected");
        let (can_big, _) = param_level(&a, "big", 0, 0);
        assert!(!can_big, "big's undeclared param level is poisoned");
    }

    #[test]
    fn work_budget_failure_poisons_callers_conservatively() {
        // A caller that passed its pointer into the failed function
        // must not report that pointer const-able: the failed body can
        // no longer prove it is only read.
        let src = "void cheap_caller(int *p) { heavy(p); }
                   void heavy(int *q) {
                     *q = 1; *q = 2; *q = 3; *q = 4; *q = 5;
                     *q = 6; *q = 7; *q = 8; *q = 9; *q = 10;
                   }";
        let prog = parse(src).expect("parses");
        let sem = sema::analyze(&prog).expect("sema");
        let budgets = Budgets {
            max_fn_work: 20,
            ..Budgets::unlimited()
        };
        let (a, skipped) = run_budgeted(
            &prog,
            &sem,
            &QualSpace::const_only(),
            Mode::Monomorphic,
            Options::default(),
            budgets,
        );
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].function.as_deref(), Some("heavy"));
        let (can, _) = param_level(&a, "cheap_caller", 0, 0);
        assert!(!can, "flow into the skipped function stays conservative");
    }

    #[test]
    fn constraint_budget_reports_structured_diagnostics() {
        let src = "void f(int *p) { *p = 1; *p = 2; *p = 3; }";
        let prog = parse(src).expect("parses");
        let sem = sema::analyze(&prog).expect("sema");
        let budgets = Budgets {
            max_constraints: 1,
            ..Budgets::unlimited()
        };
        let (_, skipped) = run_budgeted(
            &prog,
            &sem,
            &QualSpace::const_only(),
            Mode::Monomorphic,
            Options::default(),
            budgets,
        );
        assert!(!skipped.is_empty());
        assert!(
            skipped
                .iter()
                .any(|d| d.message.contains("constraint budget")),
            "{skipped:?}"
        );
    }

    #[test]
    fn solver_budget_turns_into_budget_exceeded() {
        let src = "void zero(int *p, int n) {
                     for (int i = 0; i < n; i++) p[i] = 0;
                   }";
        let prog = parse(src).expect("parses");
        let sem = sema::analyze(&prog).expect("sema");
        let budgets = Budgets {
            max_solver_steps: 0,
            ..Budgets::unlimited()
        };
        let (a, skipped) = run_budgeted(
            &prog,
            &sem,
            &QualSpace::const_only(),
            Mode::Monomorphic,
            Options::default(),
            budgets,
        );
        assert!(skipped.is_empty(), "generation is within budget");
        assert!(
            matches!(a.solution, Err(SolveFailure::BudgetExceeded { .. })),
            "{:?}",
            a.solution
        );
    }

    #[test]
    fn budgets_isolate_sccs_in_polymorphic_modes() {
        // `ping`/`pong` are mutually recursive (one SCC) and heavy;
        // `lean` is separate and must survive in every mode.
        let src = "void ping(int *p) {
                     *p = 1; *p = 2; *p = 3; *p = 4; *p = 5;
                     pong(p);
                   }
                   void pong(int *p) {
                     *p = 1; *p = 2; *p = 3; *p = 4; *p = 5;
                     ping(p);
                   }
                   int lean(const int *q) { return *q; }";
        let prog = parse(src).expect("parses");
        let sem = sema::analyze(&prog).expect("sema");
        let budgets = Budgets {
            max_fn_work: 12,
            ..Budgets::unlimited()
        };
        for mode in [Mode::Polymorphic, Mode::PolymorphicRecursive] {
            let (a, skipped) = run_budgeted(
                &prog,
                &sem,
                &QualSpace::const_only(),
                mode,
                Options::default(),
                budgets,
            );
            assert!(
                skipped
                    .iter()
                    .any(|d| d.function.as_deref() == Some("ping")
                        || d.function.as_deref() == Some("pong")),
                "{mode:?}: {skipped:?}"
            );
            assert!(a.solution.is_ok(), "{mode:?}");
            let (can, must) = param_level(&a, "lean", 0, 0);
            assert!(can && must, "{mode:?}: lean is unaffected");
        }
    }

    #[test]
    fn unlimited_budgets_match_plain_run() {
        let src = "int copy(char *dst, const char *s) {
                     int i = 0;
                     while (s[i]) { dst[i] = s[i]; i++; }
                     return i;
                   }";
        let prog = parse(src).expect("parses");
        let sem = sema::analyze(&prog).expect("sema");
        for mode in [
            Mode::Monomorphic,
            Mode::Polymorphic,
            Mode::PolymorphicRecursive,
        ] {
            let (a, skipped) = run_budgeted(
                &prog,
                &sem,
                &QualSpace::const_only(),
                mode,
                Options::default(),
                Budgets::unlimited(),
            );
            let plain = run(&prog, &sem, &QualSpace::const_only(), mode);
            assert!(skipped.is_empty(), "{mode:?}");
            assert_eq!(a.constraints.len(), plain.constraints.len(), "{mode:?}");
            assert_eq!(a.solution.is_ok(), plain.solution.is_ok(), "{mode:?}");
        }
    }

    #[test]
    fn a_body_sema_never_typed_is_a_diagnostic_not_a_panic() {
        // `bad` fails sema at its first expression, so none of its ids
        // are typed. Handing the engine the unpruned program with `bad`
        // still marked defined makes it walk that body anyway.
        let prog = parse(
            "int bad(int c, char *p) { return nope ? (c ? p : p) : p[0]; }
             int ok(const char *s) { return s[0]; }",
        )
        .unwrap();
        let mut r = sema::analyze_with_recovery(&prog);
        assert_eq!(r.failed_functions.len(), 1);
        r.sema.defined.insert("bad".to_owned(), 0);
        for mode in [Mode::Monomorphic, Mode::Polymorphic, Mode::PolymorphicRecursive] {
            let (a, skipped) = run_budgeted(
                &prog,
                &r.sema,
                &QualSpace::const_only(),
                mode,
                Options::default(),
                Budgets::default(),
            );
            assert_eq!(skipped.len(), 1, "{mode:?}: {skipped:?}");
            assert!(
                skipped[0].message.contains("expression was never typed by sema"),
                "{mode:?}: {:?}",
                skipped[0]
            );
            assert!(a.solution.is_ok(), "{mode:?}");
            assert!(a.signatures.contains_key("ok"), "{mode:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The differential suite's cgen programs
        /// (`crates/bench/tests/differential.rs`): every SCC's window
        /// scheme, instantiated in the engine's own set, emits exactly
        /// what `Scheme::generalize_in` over the same window and bound
        /// variables followed by `Scheme::instantiate` emits — the same
        /// constraints in the same order, the same fresh variables, the
        /// same renamed signature.
        #[test]
        fn window_schemes_instantiate_like_copied_schemes(
            seed in proptest::prelude::any::<u64>(),
            base in 0usize..6,
            lines in 80usize..200,
        ) {
            let mut profile = qual_cgen::table1_profiles()[base].scaled(lines);
            profile.seed = seed;
            let prog = parse(&qual_cgen::generate(&profile)).expect("parses");
            let sem = sema::analyze(&prog).expect("sema");
            let space = QualSpace::const_only();
            for mode in [Mode::Polymorphic, Mode::PolymorphicRecursive] {
                let mut skipped = Vec::new();
                let eng = generate(
                    &prog, &sem, &space, mode, Options::default(), Budgets::default(), &mut skipped,
                );
                proptest::prop_assert!(skipped.is_empty(), "{:?}: {:?}", mode, skipped);
                let mut live = eng.cs.clone();
                let mut windows = 0;
                for f in prog.functions() {
                    let Some(SigScheme::Window(scheme)) = eng.schemes.get(&f.name) else {
                        continue;
                    };
                    let owned = Scheme::generalize_in(
                        scheme.body().clone(),
                        scheme.bound_vars().collect(),
                        &eng.cs.constraints()[scheme.window()],
                    );
                    let spine = |sig: &SigNodes, f: &dyn Fn(QVar) -> QVar| -> Vec<QVar> {
                        eng.sig_interface(sig).into_iter().map(f).collect()
                    };
                    let (mut supply_w, mut supply_o) = (eng.supply.clone(), eng.supply.clone());
                    let mut out = ConstraintSet::new();
                    let from_window = scheme.instantiate(&mut supply_w, &mut live, spine);
                    let from_owned = owned.instantiate(&mut supply_o, &mut out, spine);
                    proptest::prop_assert_eq!(&from_window, &from_owned, "{}", f.name);
                    proptest::prop_assert_eq!(supply_w.count(), supply_o.count());
                    proptest::prop_assert_eq!(
                        &live.constraints()[eng.cs.len()..],
                        out.constraints(),
                        "{:?}: {}", mode, f.name
                    );
                    live.truncate(eng.cs.len());
                    windows += 1;
                }
                proptest::prop_assert!(windows > 0, "{:?}: no window scheme", mode);
            }
        }
    }

    #[test]
    fn both_modes_are_satisfiable_on_compound_program() {
        let src = "
            struct buf { char *data; int len; };
            int copy(char *dst, const char *src2) {
              int i = 0;
              while (src2[i]) { dst[i] = src2[i]; i++; }
              dst[i] = 0;
              return i;
            }
            int use(struct buf *b) {
              char tmp[16];
              return copy(tmp, b->data);
            }
            int main(void) {
              struct buf b;
              b.len = 0;
              return use(&b);
            }";
        for mode in [Mode::Monomorphic, Mode::Polymorphic] {
            let a = analyze(src, mode);
            assert!(a.solution.is_ok(), "{mode:?}: {:?}", a.solution);
        }
    }
}
