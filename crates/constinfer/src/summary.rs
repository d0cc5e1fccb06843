//! Content-addressable per-unit analysis summaries — the engine side of
//! the incremental, parallel driver (`qual-incr`).
//!
//! A *unit* is one strongly-connected component of the FDG (or the
//! special globals unit holding every global initializer). Each unit is
//! analyzed by a **fresh engine** over its own private constraint world,
//! and the result is exported in *canonical* form: every qualifier
//! variable is relabeled either as an **anchor** — a name that means the
//! same thing in every unit — or as a unit-local variable:
//!
//! * [`CanonVar::Iface`]: the k-th signature-spine variable of a
//!   function's template (parameters in order, then the return). Two
//!   units that build a template for the same function from the same
//!   declared types enumerate the same spine, so their `Iface` anchors
//!   coincide.
//! * [`CanonVar::Global`]: the k-th variable of a global variable's
//!   cell (globals are created in item order by every unit).
//! * [`CanonVar::Field`]: the k-th variable of a shared struct-field
//!   cell (§4.2 field sharing), keyed by `(tag, field)`.
//! * [`CanonVar::Local`]: everything else, densely renumbered — fresh
//!   per unit, never shared.
//!
//! The driver *splices* unit summaries back into one global constraint
//! system by mapping anchors to shared variables and locals to fresh
//! ones, in a fixed unit order — so the merged system is independent of
//! how many worker threads produced the summaries.
//!
//! A summary also carries a **certificate**: the unit's locally solved
//! least/greatest solution over the canonical constraints. A cache hit
//! is only reused after [`qual_solve::verify_solution`] re-accepts the
//! certificate against the decoded constraints (certification-on-reuse,
//! extending the PR 2 machinery to the cache boundary).

use std::collections::HashMap;

use qual_cfront::ast::{Expr, ExprKind, Item, Program};
use qual_cfront::sema::Sema;
use qual_lattice::{QualSet, QualSpace};
use qual_solve::wire::{self, Reader, WireError, Writer};
use qual_solve::{
    Constraint, Diagnostic, Provenance, QVar, Qual, Scheme, Solution,
};

use crate::engine::{Budgets, Engine, Mode, Options, SigScheme};
use crate::fdg::{visit_block, visit_expr};

/// Version of the canonical summary encoding. Bump on any change to the
/// canonical form or the wire layout; the cache treats a mismatch as a
/// miss.
///
/// v3: the analysis is generic over the qualifier space (`--qual`); the
/// space digest joined the environment key, so const-only entries from
/// v2 must never be read back as multi-qualifier results.
///
/// v4: struct fields are never generalized (§4.2), so a scheme's bound
/// list holds no `Field` anchor; a v3 entry may still quantify one.
pub const FORMAT_VERSION: u32 = 4;

/// A canonical variable name, meaningful across units (anchors) or
/// private to one unit (`Local`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CanonVar {
    /// The `idx`-th signature-spine variable of `func`'s template.
    Iface {
        /// Function name.
        func: String,
        /// Position in the spine enumeration (params in order, then
        /// return).
        idx: u32,
    },
    /// The `idx`-th variable of global variable `name`'s cell.
    Global {
        /// Global variable name.
        name: String,
        /// Position in the cell's variable enumeration.
        idx: u32,
    },
    /// The `idx`-th variable of the shared `tag.field` cell.
    Field {
        /// Struct tag.
        tag: String,
        /// Field name.
        field: String,
        /// Position in the cell's variable enumeration.
        idx: u32,
    },
    /// A unit-local variable, densely numbered within the unit (or,
    /// inside a [`CanonScheme`], within that scheme).
    Local(u32),
}

/// A canonical qualifier term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanonQual {
    /// A variable, by canonical name.
    Var(CanonVar),
    /// A lattice constant, by bits.
    Const(u64),
}

/// One canonical constraint, with its provenance flattened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonConstraint {
    /// Left-hand term.
    pub lhs: CanonQual,
    /// Right-hand term.
    pub rhs: CanonQual,
    /// Qualifier-coordinate mask (see `ConstraintSet::add_masked`).
    pub mask: u64,
    /// Provenance span start.
    pub lo: u32,
    /// Provenance span end.
    pub hi: u32,
    /// Provenance label (re-interned on splice).
    pub what: String,
}

/// A generalized signature in canonical form. Non-anchor variables are
/// renumbered scheme-locally (`Local(0..)`, first occurrence order:
/// bound list, then constraints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonScheme {
    /// The function this scheme generalizes.
    pub func: String,
    /// The quantified variables.
    pub bound: Vec<CanonVar>,
    /// The captured constraints.
    pub constraints: Vec<CanonConstraint>,
}

/// One interesting const position (§4.4) with its canonical variable, so
/// the splicer can classify it against the merged solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonPosition {
    /// Enclosing defined function.
    pub function: String,
    /// Parameter index, or `None` for the return value.
    pub param: Option<u32>,
    /// Pointer level (0 = outermost pointee).
    pub level: u32,
    /// Whether the source declared `const` here.
    pub declared: bool,
    /// The position's qualifier term, canonically named.
    pub var: CanonQual,
}

/// The unit's locally solved solution over its canonical constraints,
/// for certification-on-reuse. Variables are densely enumerated in
/// first-occurrence order over [`UnitSummary::constraints`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertBits {
    /// Least-solution bits per dense variable.
    pub least: Vec<u64>,
    /// Greatest-solution bits per dense variable.
    pub greatest: Vec<u64>,
}

/// Everything one unit's analysis produced, in canonical form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UnitSummary {
    /// Member function names (empty for the globals unit).
    pub members: Vec<String>,
    /// Members newly excluded by fault isolation in this unit.
    pub failed: Vec<String>,
    /// The unit's entire constraint set, canonically named, in emission
    /// order.
    pub constraints: Vec<CanonConstraint>,
    /// Generalized member schemes (polymorphic modes), in member order.
    pub schemes: Vec<CanonScheme>,
    /// Interesting positions of the members, in classification order.
    pub positions: Vec<CanonPosition>,
    /// Faults raised while analyzing this unit.
    pub diagnostics: Vec<Diagnostic>,
    /// The local solution, when the unit's system solved.
    pub cert: Option<CertBits>,
}

/// What one unit covers.
#[derive(Debug, Clone)]
pub enum UnitKind {
    /// Global variable cells and initializers.
    Globals,
    /// One FDG component.
    Scc {
        /// Member function names, in definition order.
        names: Vec<String>,
        /// Whether the component is (self- or mutually) recursive.
        recursive: bool,
    },
}

/// One unit's analysis request.
pub struct UnitRequest<'a> {
    /// The (recovered) program.
    pub prog: &'a Program,
    /// Its semantic analysis.
    pub sema: &'a Sema,
    /// The qualifier space (must declare `const`).
    pub space: &'a QualSpace,
    /// Analysis mode.
    pub mode: Mode,
    /// Engine options.
    pub options: Options,
    /// Resource budgets (per unit).
    pub budgets: Budgets,
    /// What to analyze.
    pub kind: UnitKind,
    /// Defined non-member functions the unit's members mention, sorted.
    /// They get proxy signature templates (and imported schemes in the
    /// polymorphic modes).
    pub proxies: &'a [String],
    /// Canonical schemes of the proxies, from previously analyzed units.
    pub schemes: &'a [CanonScheme],
    /// Functions excluded by fault isolation in previous units; calls to
    /// them get the conservative library treatment.
    pub failed: &'a [String],
}

/// Analyzes one unit with a fresh engine and exports the canonical
/// summary. Never panics; faults surface in
/// [`UnitSummary::diagnostics`].
#[must_use]
pub fn analyze_unit(req: &UnitRequest<'_>) -> UnitSummary {
    let cgen_span = qual_obs::span("cgen-constraints");
    let mut eng = Engine::new(req.sema, req.space, req.mode, req.budgets);
    let mut diags = Vec::new();
    eng.setup_globals(req.prog);
    let named = named_fields(req);
    if !named.is_empty() {
        eng.declare_fields(|_, field| named.binary_search(&field).is_ok());
    }
    for name in req.failed {
        eng.failed.insert(name.clone());
    }

    let members: Vec<String> = match &req.kind {
        UnitKind::Globals => Vec::new(),
        UnitKind::Scc { names, .. } => names.clone(),
    };

    match &req.kind {
        UnitKind::Globals => {
            // In monomorphic mode the serial driver has every template
            // in scope before initializers run; proxies reproduce that.
            // In the polymorphic modes no template exists yet at
            // initializer time, so calls into defined functions fail
            // there exactly as they do serially — no proxies.
            if req.mode == Mode::Monomorphic {
                make_proxies(&mut eng, req);
            }
            eng.analyze_global_inits(req.prog, &mut diags);
        }
        UnitKind::Scc { names, recursive } => {
            if req.mode == Mode::Monomorphic {
                for name in names {
                    if let Some(f) = req.sema.function(req.prog, name) {
                        eng.make_sig(f);
                    }
                }
                make_proxies(&mut eng, req);
                for name in names {
                    if let Some(f) = req.sema.function(req.prog, name) {
                        eng.analyze_mono_fn(f, &mut diags);
                    }
                }
            } else {
                // Proxy templates and imported schemes sit *outside*
                // the member generalization window, like the earlier
                // SCCs' windows they stand in for.
                make_proxies(&mut eng, req);
                import_schemes(&mut eng, req);
                let names: Vec<&str> = names.iter().map(String::as_str).collect();
                eng.analyze_poly_scc(&names, *recursive, req.prog, req.options, &mut diags);
            }
        }
    }

    drop(cgen_span);
    qual_obs::count("cgen.constraints", eng.cs.len() as u64);
    qual_obs::count("cgen.qvars", eng.supply.count() as u64);
    qual_obs::peak("arena.qtypes", eng.arena.len() as u64);

    let newly_failed: Vec<String> = members
        .iter()
        .filter(|m| eng.failed.contains(*m))
        .cloned()
        .collect();

    export(&eng, req, members, newly_failed, diags)
}

/// The field names the unit's own code accesses, sorted and distinct.
/// A unit declares only these fields' cells before its analysis, so
/// its cost does not grow with the program's struct declarations; a
/// field that only an imported scheme mentions is declared when its
/// anchor resolves, which is before the unit's window opens too.
fn named_fields<'p>(req: &UnitRequest<'p>) -> Vec<&'p str> {
    let mut named = Vec::new();
    let mut note = |e: &'p Expr| {
        if let ExprKind::Member(_, field) | ExprKind::PMember(_, field) = &e.kind {
            named.push(field.as_str());
        }
    };
    match &req.kind {
        UnitKind::Globals => {
            for item in req.sema.global_decls(req.prog) {
                if let Item::Global { init: Some(e), .. } = item {
                    visit_expr(e, &mut note);
                }
            }
        }
        UnitKind::Scc { names, .. } => {
            for name in names {
                if let Some(f) = req.sema.function(req.prog, name) {
                    visit_block(&f.body, &mut note);
                }
            }
        }
    }
    named.sort_unstable();
    named.dedup();
    named
}

/// Builds proxy signature templates for every mentioned defined
/// non-member callee (skipping already-failed ones only for scheme
/// import — the template itself is still needed for address-taken
/// poisoning and is created even for failed functions, matching the
/// serial engine where `sigs` always holds a failed function's
/// template).
fn make_proxies(eng: &mut Engine<'_>, req: &UnitRequest<'_>) {
    for name in req.proxies {
        if let Some(f) = req.sema.function(req.prog, name) {
            eng.make_sig(f);
        }
    }
}

/// Materializes imported canonical schemes into the engine's world so
/// polymorphic call sites instantiate them exactly as the serial engine
/// instantiates the original (Letv) schemes.
fn import_schemes(eng: &mut Engine<'_>, req: &UnitRequest<'_>) {
    let mut anchors: HashMap<CanonVar, QVar> = HashMap::new();
    for cs in req.schemes {
        if eng.failed.contains(&cs.func) {
            continue;
        }
        let Some(body) = eng.sigs.get(&cs.func).cloned() else {
            continue;
        };
        // Scheme-local variables are fresh per scheme; anchors resolve
        // against the unit's shared templates/globals/fields.
        let mut locals: HashMap<u32, QVar> = HashMap::new();
        let prog = req.prog;
        let mut resolve = |eng: &mut Engine<'_>, v: &CanonVar| -> QVar {
            match v {
                CanonVar::Local(j) => {
                    *locals.entry(*j).or_insert_with(|| eng.supply.fresh())
                }
                anchor => {
                    if let Some(&q) = anchors.get(anchor) {
                        return q;
                    }
                    let q = resolve_anchor(eng, prog, anchor);
                    anchors.insert(anchor.clone(), q);
                    q
                }
            }
        };
        let bound: Vec<QVar> = cs
            .bound
            .iter()
            .map(|v| resolve(eng, v))
            .collect();
        let constraints: Vec<Constraint> = cs
            .constraints
            .iter()
            .map(|c| {
                let lhs = resolve_qual(eng, &c.lhs, &mut resolve);
                let rhs = resolve_qual(eng, &c.rhs, &mut resolve);
                Constraint {
                    lhs,
                    rhs,
                    mask: c.mask,
                    origin: Provenance {
                        lo: c.lo,
                        hi: c.hi,
                        what: wire::intern_static(&c.what),
                    },
                }
            })
            .collect();
        eng.schemes.insert(
            cs.func.clone(),
            SigScheme::Owned(Scheme::from_parts(body, bound, constraints)),
        );
    }
}

fn resolve_qual(
    eng: &mut Engine<'_>,
    q: &CanonQual,
    resolve: &mut impl FnMut(&mut Engine<'_>, &CanonVar) -> QVar,
) -> Qual {
    match q {
        CanonQual::Var(v) => Qual::Var(resolve(eng, v)),
        CanonQual::Const(bits) => Qual::Const(QualSet::from_bits(*bits)),
    }
}

/// Resolves an anchor to the unit's own variable for the same thing,
/// materializing the backing template/cell on demand. Unresolvable
/// anchors (stale cache decoded against a changed program — the keys
/// should prevent this, but corruption must not panic) get a fresh,
/// unconstrained variable.
fn resolve_anchor(eng: &mut Engine<'_>, prog: &Program, v: &CanonVar) -> QVar {
    match v {
        CanonVar::Iface { func, idx } => {
            if !eng.sigs.contains_key(func) {
                // A grand-callee mentioned only inside a captured
                // constraint set: materialize its template now.
                if let Some(f) = eng.sema.function(prog, func) {
                    eng.make_sig(f);
                }
            }
            let sig = eng.sigs.get(func).cloned();
            match sig {
                Some(sig) => {
                    let iface = eng.sig_interface(&sig);
                    iface
                        .get(*idx as usize)
                        .copied()
                        .unwrap_or_else(|| eng.supply.fresh())
                }
                None => eng.supply.fresh(),
            }
        }
        CanonVar::Global { name, idx } => {
            let cell = eng.globals.get(name).copied();
            match cell {
                Some(cell) => {
                    let mut vars = Vec::new();
                    eng.arena.vars_of(cell, &mut vars);
                    vars.get(*idx as usize)
                        .copied()
                        .unwrap_or_else(|| eng.supply.fresh())
                }
                None => eng.supply.fresh(),
            }
        }
        CanonVar::Field { tag, field, idx } => {
            eng.declare_fields(|t, f| t == tag && f == field);
            match eng.structs.field_cell(tag, field) {
                Some(cell) => {
                    let mut vars = Vec::new();
                    eng.arena.vars_of(cell, &mut vars);
                    vars.get(*idx as usize)
                        .copied()
                        .unwrap_or_else(|| eng.supply.fresh())
                }
                None => eng.supply.fresh(),
            }
        }
        CanonVar::Local(_) => eng.supply.fresh(),
    }
}

/// Labels every variable of the unit's supply: anchors first (template
/// interfaces by sorted function name, then globals in item order, then
/// fields sorted by key), then dense locals.
fn label_vars(eng: &Engine<'_>, prog: &Program) -> Vec<CanonVar> {
    let mut labels: Vec<Option<CanonVar>> = vec![None; eng.supply.count()];
    let set = |labels: &mut Vec<Option<CanonVar>>, v: QVar, l: CanonVar| {
        let slot = &mut labels[v.index()];
        if slot.is_none() {
            *slot = Some(l);
        }
    };
    let mut sig_names: Vec<&String> = eng.sigs.keys().collect();
    sig_names.sort();
    for name in sig_names {
        let sig = &eng.sigs[name];
        for (idx, v) in eng.sig_interface(sig).into_iter().enumerate() {
            set(
                &mut labels,
                v,
                CanonVar::Iface {
                    func: name.clone(),
                    idx: idx as u32,
                },
            );
        }
    }
    for item in eng.sema.global_decls(prog) {
        if let Item::Global { name, .. } = item {
            if let Some(&cell) = eng.globals.get(name) {
                let mut vars = Vec::new();
                eng.arena.vars_of(cell, &mut vars);
                for (idx, v) in vars.into_iter().enumerate() {
                    set(
                        &mut labels,
                        v,
                        CanonVar::Global {
                            name: name.clone(),
                            idx: idx as u32,
                        },
                    );
                }
            }
        }
    }
    let mut field_cells: Vec<(&str, &str, crate::qtypes::QcId)> = eng.structs.cells().collect();
    field_cells.sort_unstable_by_key(|&(tag, field, _)| (tag, field));
    for (tag, field, cell) in field_cells {
        let mut vars = Vec::new();
        eng.arena.vars_of(cell, &mut vars);
        for (idx, v) in vars.into_iter().enumerate() {
            set(
                &mut labels,
                v,
                CanonVar::Field {
                    tag: tag.to_owned(),
                    field: field.to_owned(),
                    idx: idx as u32,
                },
            );
        }
    }
    let mut next_local = 0u32;
    labels
        .into_iter()
        .map(|l| {
            l.unwrap_or_else(|| {
                let l = CanonVar::Local(next_local);
                next_local += 1;
                l
            })
        })
        .collect()
}

fn canon_qual(q: Qual, labels: &[CanonVar]) -> CanonQual {
    match q {
        Qual::Var(v) => CanonQual::Var(
            labels
                .get(v.index())
                .cloned()
                .unwrap_or(CanonVar::Local(u32::MAX)),
        ),
        Qual::Const(c) => CanonQual::Const(c.bits()),
    }
}

fn canon_constraint(c: &Constraint, labels: &[CanonVar]) -> CanonConstraint {
    CanonConstraint {
        lhs: canon_qual(c.lhs, labels),
        rhs: canon_qual(c.rhs, labels),
        mask: c.mask,
        lo: c.origin.lo,
        hi: c.origin.hi,
        what: c.origin.what.to_owned(),
    }
}

/// Exports the engine's world as a canonical summary (labeling,
/// constraints, member schemes, positions, certificate).
fn export(
    eng: &Engine<'_>,
    req: &UnitRequest<'_>,
    members: Vec<String>,
    failed: Vec<String>,
    diagnostics: Vec<Diagnostic>,
) -> UnitSummary {
    let labels = label_vars(eng, req.prog);
    let constraints: Vec<CanonConstraint> = eng
        .cs
        .constraints()
        .iter()
        .map(|c| canon_constraint(c, &labels))
        .collect();

    // Member schemes (polymorphic modes): anchors keep their unit
    // labels; everything else renumbers scheme-locally so the importer
    // can freshen without ever seeing this unit's local numbering. A
    // global's or a field's cell is made before any window opens, so
    // neither is ever bound (§4.2). Both vectors are sized exactly: the
    // driver keeps every scheme until the merge.
    let mut schemes = Vec::new();
    if eng.mode != Mode::Monomorphic {
        for name in &members {
            let Some(scheme) = eng.schemes.get(name) else {
                continue;
            };
            let mut local_ids: HashMap<QVar, u32> = HashMap::new();
            let mut scheme_label = |v: QVar| -> CanonVar {
                match labels.get(v.index()) {
                    Some(CanonVar::Local(_)) | None => {
                        let next = local_ids.len() as u32;
                        CanonVar::Local(*local_ids.entry(v).or_insert(next))
                    }
                    Some(anchor) => anchor.clone(),
                }
            };
            debug_assert!(
                scheme.bound_vars().all(|v| !matches!(
                    labels.get(v.index()),
                    Some(CanonVar::Global { .. } | CanonVar::Field { .. })
                )),
                "{name}'s window binds a shared cell"
            );
            let bound: Vec<CanonVar> = scheme.bound_vars().map(&mut scheme_label).collect();
            let mut constraints = Vec::with_capacity(scheme.captured(&eng.cs).count());
            constraints.extend(scheme.captured(&eng.cs).map(|c| {
                let mut q = |q: Qual| match q {
                    Qual::Var(v) => CanonQual::Var(scheme_label(v)),
                    Qual::Const(c) => CanonQual::Const(c.bits()),
                };
                CanonConstraint {
                    lhs: q(c.lhs),
                    rhs: q(c.rhs),
                    mask: c.mask,
                    lo: c.origin.lo,
                    hi: c.origin.hi,
                    what: c.origin.what.to_owned(),
                }
            }));
            schemes.push(CanonScheme {
                func: name.clone(),
                bound,
                constraints,
            });
        }
    }

    // Positions: the members' interesting positions, in item order.
    let mut member_fns: Vec<_> = members
        .iter()
        .filter_map(|m| req.sema.function(req.prog, m))
        .collect();
    member_fns.sort_by_key(|f| req.sema.defined[&f.name]);
    let positions = crate::count::sites(member_fns.into_iter(), &eng.arena, &eng.sigs)
        .map(|(function, param, level, declared, q)| CanonPosition {
            function: function.to_owned(),
            param: param.map(|i| i as u32),
            level: level as u32,
            declared,
            var: canon_qual(q, &labels),
        })
        .collect();

    // The certificate: solve the unit's own system and record the
    // solution over the canonical constraints' dense enumeration.
    let cert = eng
        .cs
        .solve_with_budget(&eng.space, &eng.supply, req.budgets.max_solver_steps)
        .ok()
        .map(|sol| {
            let (vars, _) = dense_vars(&constraints);
            let mut var_of: HashMap<&CanonVar, usize> = HashMap::with_capacity(labels.len());
            for (i, label) in labels.iter().enumerate() {
                var_of.entry(label).or_insert(i);
            }
            let mut least = Vec::with_capacity(vars.len());
            let mut greatest = Vec::with_capacity(vars.len());
            for v in &vars {
                // Dense order mirrors first occurrence over the
                // canonical constraints; look the variable back up by
                // inverting the labeling.
                let q = match v {
                    CanonQual::Var(label) => match var_of.get(label) {
                        Some(&i) => Qual::Var(QVar::from_index(i)),
                        None => continue,
                    },
                    CanonQual::Const(bits) => Qual::Const(QualSet::from_bits(*bits)),
                };
                least.push(sol.eval_least(q).bits());
                greatest.push(sol.eval_greatest(q).bits());
            }
            CertBits { least, greatest }
        });

    UnitSummary {
        members,
        failed,
        constraints,
        schemes,
        positions,
        diagnostics,
        cert,
    }
}

/// The distinct variables of a canonical constraint list, in first
/// occurrence order (lhs before rhs, constraint order), plus a map from
/// canonical name to dense index.
fn dense_vars(
    constraints: &[CanonConstraint],
) -> (Vec<CanonQual>, HashMap<CanonVar, usize>) {
    let mut vars = Vec::new();
    let mut index: HashMap<CanonVar, usize> = HashMap::new();
    for c in constraints {
        for side in [&c.lhs, &c.rhs] {
            if let CanonQual::Var(v) = side {
                if !index.contains_key(v) {
                    index.insert(v.clone(), vars.len());
                    vars.push(CanonQual::Var(v.clone()));
                }
            }
        }
    }
    (vars, index)
}

/// Re-verifies a summary's certificate: rebuilds the unit's constraints
/// over a dense variable space, reassembles the recorded solution, and
/// runs the independent checker. `Ok(())` also for a summary without a
/// certificate-bearing solve *if* it recorded diagnostics explaining
/// why; a missing certificate with no explanation fails.
///
/// # Errors
///
/// Returns a human-readable reason when the certificate does not check
/// out — the caller must then treat the summary as a cache miss.
pub fn verify_summary(space: &QualSpace, summary: &UnitSummary) -> Result<(), String> {
    let Some(cert) = &summary.cert else {
        return Err("summary carries no certificate".to_owned());
    };
    let (vars, index) = dense_vars(&summary.constraints);
    if cert.least.len() != vars.len() || cert.greatest.len() != vars.len() {
        return Err(format!(
            "certificate covers {} of {} variables",
            cert.least.len().min(cert.greatest.len()),
            vars.len()
        ));
    }
    let to_qual = |q: &CanonQual| -> Qual {
        match q {
            CanonQual::Var(v) => Qual::Var(QVar::from_index(index[v])),
            CanonQual::Const(bits) => Qual::Const(QualSet::from_bits(*bits)),
        }
    };
    let dense: Vec<Constraint> = summary
        .constraints
        .iter()
        .map(|c| Constraint {
            lhs: to_qual(&c.lhs),
            rhs: to_qual(&c.rhs),
            mask: c.mask,
            origin: Provenance {
                lo: c.lo,
                hi: c.hi,
                what: wire::intern_static(&c.what),
            },
        })
        .collect();
    let sol = Solution::from_parts(
        cert.least.iter().map(|&b| QualSet::from_bits(b)).collect(),
        cert.greatest.iter().map(|&b| QualSet::from_bits(b)).collect(),
    );
    qual_solve::verify_solution(space, &dense, &sol).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Wire codec for summaries (see `qual_solve::wire` for the primitives).
// ---------------------------------------------------------------------

fn put_canon_var(w: &mut Writer, v: &CanonVar) {
    match v {
        CanonVar::Iface { func, idx } => {
            w.u8(0);
            w.str(func);
            w.u32(*idx);
        }
        CanonVar::Global { name, idx } => {
            w.u8(1);
            w.str(name);
            w.u32(*idx);
        }
        CanonVar::Field { tag, field, idx } => {
            w.u8(2);
            w.str(tag);
            w.str(field);
            w.u32(*idx);
        }
        CanonVar::Local(j) => {
            w.u8(3);
            w.u32(*j);
        }
    }
}

fn get_canon_var(r: &mut Reader<'_>) -> Result<CanonVar, WireError> {
    Ok(match r.u8()? {
        0 => CanonVar::Iface {
            func: r.str()?,
            idx: r.u32()?,
        },
        1 => CanonVar::Global {
            name: r.str()?,
            idx: r.u32()?,
        },
        2 => CanonVar::Field {
            tag: r.str()?,
            field: r.str()?,
            idx: r.u32()?,
        },
        3 => CanonVar::Local(r.u32()?),
        t => return Err(WireError::Invalid { field: "canon var tag", value: t.into() }),
    })
}

fn put_canon_qual(w: &mut Writer, q: &CanonQual) {
    match q {
        CanonQual::Var(v) => {
            w.u8(0);
            put_canon_var(w, v);
        }
        CanonQual::Const(bits) => {
            w.u8(1);
            w.u64(*bits);
        }
    }
}

fn get_canon_qual(r: &mut Reader<'_>) -> Result<CanonQual, WireError> {
    Ok(match r.u8()? {
        0 => CanonQual::Var(get_canon_var(r)?),
        1 => CanonQual::Const(r.u64()?),
        t => return Err(WireError::Invalid { field: "canon qual tag", value: t.into() }),
    })
}

fn put_canon_constraint(w: &mut Writer, c: &CanonConstraint) {
    put_canon_qual(w, &c.lhs);
    put_canon_qual(w, &c.rhs);
    w.u64(c.mask);
    w.u32(c.lo);
    w.u32(c.hi);
    w.str(&c.what);
}

fn get_canon_constraint(r: &mut Reader<'_>) -> Result<CanonConstraint, WireError> {
    Ok(CanonConstraint {
        lhs: get_canon_qual(r)?,
        rhs: get_canon_qual(r)?,
        mask: r.u64()?,
        lo: r.u32()?,
        hi: r.u32()?,
        what: r.str()?,
    })
}

fn put_strings(w: &mut Writer, ss: &[String]) {
    w.len_prefix(ss.len());
    for s in ss {
        w.str(s);
    }
}

fn get_strings(r: &mut Reader<'_>) -> Result<Vec<String>, WireError> {
    let n = r.len_prefix()?;
    let mut out = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        out.push(r.str()?);
    }
    Ok(out)
}

/// Serializes a summary to bytes (payload only; the cache layer adds
/// the versioned, checksummed container).
#[must_use]
pub fn encode_summary(s: &UnitSummary) -> Vec<u8> {
    let mut w = Writer::new();
    put_strings(&mut w, &s.members);
    put_strings(&mut w, &s.failed);
    w.len_prefix(s.constraints.len());
    for c in &s.constraints {
        put_canon_constraint(&mut w, c);
    }
    w.len_prefix(s.schemes.len());
    for sch in &s.schemes {
        w.str(&sch.func);
        w.len_prefix(sch.bound.len());
        for v in &sch.bound {
            put_canon_var(&mut w, v);
        }
        w.len_prefix(sch.constraints.len());
        for c in &sch.constraints {
            put_canon_constraint(&mut w, c);
        }
    }
    w.len_prefix(s.positions.len());
    for p in &s.positions {
        w.str(&p.function);
        match p.param {
            Some(i) => {
                w.bool(true);
                w.u32(i);
            }
            None => w.bool(false),
        }
        w.u32(p.level);
        w.bool(p.declared);
        put_canon_qual(&mut w, &p.var);
    }
    w.len_prefix(s.diagnostics.len());
    for d in &s.diagnostics {
        wire::put_diagnostic(&mut w, d);
    }
    match &s.cert {
        Some(cert) => {
            w.bool(true);
            w.len_prefix(cert.least.len());
            for (&l, &g) in cert.least.iter().zip(cert.greatest.iter()) {
                w.u64(l);
                w.u64(g);
            }
        }
        None => w.bool(false),
    }
    w.into_bytes()
}

/// Deserializes a summary produced by [`encode_summary`].
///
/// Fault point `wire.decode`: a `Garbage` fault hides the second half
/// of `bytes`, simulating a torn payload that the decoder must reject
/// with [`WireError`] — exactly the path real bit rot takes through the
/// cache.
///
/// # Errors
///
/// Returns [`WireError`] on truncated or malformed input — corruption
/// is a recoverable condition, never a panic.
pub fn decode_summary(bytes: &[u8]) -> Result<UnitSummary, WireError> {
    let bytes = match qual_faultpoint::hit("wire.decode") {
        Some(qual_faultpoint::FaultKind::Garbage) => &bytes[..bytes.len() / 2],
        _ => bytes,
    };
    let mut r = Reader::new(bytes);
    let members = get_strings(&mut r)?;
    let failed = get_strings(&mut r)?;
    let n = r.len_prefix()?;
    let mut constraints = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        constraints.push(get_canon_constraint(&mut r)?);
    }
    let n = r.len_prefix()?;
    let mut schemes = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let func = r.str()?;
        let nb = r.len_prefix()?;
        let mut bound = Vec::with_capacity(nb.min(65536));
        for _ in 0..nb {
            bound.push(get_canon_var(&mut r)?);
        }
        let nc = r.len_prefix()?;
        let mut cs = Vec::with_capacity(nc.min(65536));
        for _ in 0..nc {
            cs.push(get_canon_constraint(&mut r)?);
        }
        schemes.push(CanonScheme {
            func,
            bound,
            constraints: cs,
        });
    }
    let n = r.len_prefix()?;
    let mut positions = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let function = r.str()?;
        let param = if r.bool()? { Some(r.u32()?) } else { None };
        let level = r.u32()?;
        let declared = r.bool()?;
        let var = get_canon_qual(&mut r)?;
        positions.push(CanonPosition {
            function,
            param,
            level,
            declared,
            var,
        });
    }
    let n = r.len_prefix()?;
    let mut diagnostics = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        diagnostics.push(wire::get_diagnostic(&mut r)?);
    }
    let cert = if r.bool()? {
        let n = r.len_prefix()?;
        let mut least = Vec::with_capacity(n.min(65536));
        let mut greatest = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            least.push(r.u64()?);
            greatest.push(r.u64()?);
        }
        Some(CertBits { least, greatest })
    } else {
        None
    };
    r.finish()?;
    Ok(UnitSummary {
        members,
        failed,
        constraints,
        schemes,
        positions,
        diagnostics,
        cert,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qual_cfront::{parse, sema};

    fn unit_for(src: &str) -> (Program, Sema, QualSpace) {
        let prog = parse(src).expect("parses");
        let sem = sema::analyze(&prog).expect("sema");
        (prog, sem, QualSpace::const_only())
    }

    #[test]
    fn summary_round_trips_through_the_codec() {
        let (prog, sem, space) = unit_for(
            "int g = 0;
             int reader(const char *s) { return *s; }",
        );
        let req = UnitRequest {
            prog: &prog,
            sema: &sem,
            space: &space,
            mode: Mode::Monomorphic,
            options: Options::default(),
            budgets: Budgets::default(),
            kind: UnitKind::Scc {
                names: vec!["reader".to_owned()],
                recursive: false,
            },
            proxies: &[],
            schemes: &[],
            failed: &[],
        };
        let s = analyze_unit(&req);
        assert!(s.cert.is_some(), "clean unit must certify");
        assert!(!s.positions.is_empty());
        let bytes = encode_summary(&s);
        let back = decode_summary(&bytes).expect("round trip");
        assert_eq!(back, s);
        assert!(verify_summary(&space, &back).is_ok());
    }

    #[test]
    fn trailing_bytes_after_a_summary_are_rejected() {
        let mut bytes = encode_summary(&UnitSummary::default());
        bytes.extend_from_slice(&[0, 0, 0]);
        assert_eq!(decode_summary(&bytes), Err(WireError::Trailing(3)));
    }

    #[test]
    fn corrupted_payload_never_panics() {
        let (prog, sem, space) = unit_for(
            "int id(int *p) { return *p; }",
        );
        let req = UnitRequest {
            prog: &prog,
            sema: &sem,
            space: &space,
            mode: Mode::Monomorphic,
            options: Options::default(),
            budgets: Budgets::default(),
            kind: UnitKind::Scc {
                names: vec!["id".to_owned()],
                recursive: false,
            },
            proxies: &[],
            schemes: &[],
            failed: &[],
        };
        let bytes = encode_summary(&analyze_unit(&req));
        for cut in 0..bytes.len() {
            let _ = decode_summary(&bytes[..cut]);
        }
        // Flip each byte of a prefix; decoding must return, not panic.
        for i in 0..bytes.len().min(200) {
            let mut b = bytes.clone();
            b[i] ^= 0x5a;
            let _ = decode_summary(&b);
        }
        let _ = space;
    }

    #[test]
    fn interface_anchors_are_stable_across_units() {
        // Two different units that both see `callee` must label its
        // template spine identically.
        let (prog, sem, space) = unit_for(
            "int callee(const char *s) { return *s; }
             int a(char *x) { return callee(x); }
             int b(char *y) { return callee(y); }",
        );
        let proxies = vec!["callee".to_owned()];
        let mk = |names: &[&str]| {
            let req = UnitRequest {
                prog: &prog,
                sema: &sem,
                space: &space,
                mode: Mode::Monomorphic,
                options: Options::default(),
                budgets: Budgets::default(),
                kind: UnitKind::Scc {
                    names: names.iter().map(|s| (*s).to_owned()).collect(),
                    recursive: false,
                },
                proxies: &proxies,
                schemes: &[],
                failed: &[],
            };
            analyze_unit(&req)
        };
        let ua = mk(&["a"]);
        let ub = mk(&["b"]);
        let iface_anchors = |s: &UnitSummary| -> Vec<CanonVar> {
            let mut out: Vec<CanonVar> = s
                .constraints
                .iter()
                .flat_map(|c| [&c.lhs, &c.rhs])
                .filter_map(|q| match q {
                    CanonQual::Var(v @ CanonVar::Iface { func, .. })
                        if func == "callee" =>
                    {
                        Some(v.clone())
                    }
                    _ => None,
                })
                .collect();
            out.sort();
            out.dedup();
            out
        };
        let a_anchors = iface_anchors(&ua);
        assert!(!a_anchors.is_empty(), "a's call links callee's template");
        assert_eq!(a_anchors, iface_anchors(&ub));
    }

    #[test]
    fn exported_schemes_bind_no_field_anchor() {
        let (prog, sem, space) = unit_for(
            "struct s { char *f; };
             char *get(struct s *p) { return p->f; }",
        );
        for mode in [Mode::Polymorphic, Mode::PolymorphicRecursive] {
            let req = UnitRequest {
                prog: &prog,
                sema: &sem,
                space: &space,
                mode,
                options: Options::default(),
                budgets: Budgets::default(),
                kind: UnitKind::Scc {
                    names: vec!["get".to_owned()],
                    recursive: false,
                },
                proxies: &[],
                schemes: &[],
                failed: &[],
            };
            let s = analyze_unit(&req);
            let scheme = &s.schemes[0];
            let is_field = |v: &CanonVar| matches!(v, CanonVar::Field { .. });
            assert!(
                !scheme.bound.iter().any(is_field),
                "{mode:?}: {:?}",
                scheme.bound
            );
            assert!(
                scheme
                    .constraints
                    .iter()
                    .flat_map(|c| [&c.lhs, &c.rhs])
                    .any(|q| matches!(q, CanonQual::Var(v) if is_field(v))),
                "{mode:?}: the scheme reads the shared field"
            );
        }
    }

    #[test]
    fn a_unit_declares_only_the_fields_its_code_names() {
        // Every field is declared const, so each declared cell leaves its
        // `const` bound among the unit's exported constraints.
        let (prog, sem, space) = unit_for(
            "struct s { const char *f; const char *g; };
             struct t { const char *h; };
             int len(const char *p) { return p[0]; }
             const char *get(struct s *p) { return p->g; }",
        );
        for mode in [
            Mode::Monomorphic,
            Mode::Polymorphic,
            Mode::PolymorphicRecursive,
        ] {
            let fields = |name: &str| {
                let req = UnitRequest {
                    prog: &prog,
                    sema: &sem,
                    space: &space,
                    mode,
                    options: Options::default(),
                    budgets: Budgets::default(),
                    kind: UnitKind::Scc {
                        names: vec![name.to_owned()],
                        recursive: false,
                    },
                    proxies: &[],
                    schemes: &[],
                    failed: &[],
                };
                let mut fields: Vec<(String, String)> = analyze_unit(&req)
                    .constraints
                    .iter()
                    .flat_map(|c| [&c.lhs, &c.rhs])
                    .filter_map(|q| match q {
                        CanonQual::Var(CanonVar::Field { tag, field, .. }) => {
                            Some((tag.clone(), field.clone()))
                        }
                        _ => None,
                    })
                    .collect();
                fields.sort_unstable();
                fields.dedup();
                fields
            };
            assert_eq!(fields("len"), [], "{mode:?}");
            assert_eq!(
                fields("get"),
                [("s".to_owned(), "g".to_owned())],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn poly_unit_exports_schemes_and_importer_instantiates_them() {
        let src = "char *id(char *s) { return s; }
                   void writer(char *buf) { *id(buf) = 'x'; }
                   char *reader(char *msg) { return id(msg); }";
        let (prog, sem, space) = unit_for(src);
        let id_req = UnitRequest {
            prog: &prog,
            sema: &sem,
            space: &space,
            mode: Mode::Polymorphic,
            options: Options::default(),
            budgets: Budgets::default(),
            kind: UnitKind::Scc {
                names: vec!["id".to_owned()],
                recursive: false,
            },
            proxies: &[],
            schemes: &[],
            failed: &[],
        };
        let id_summary = analyze_unit(&id_req);
        assert_eq!(id_summary.schemes.len(), 1);
        assert_eq!(id_summary.schemes[0].func, "id");

        let proxies = vec!["id".to_owned()];
        for user in ["writer", "reader"] {
            let req = UnitRequest {
                prog: &prog,
                sema: &sem,
                space: &space,
                mode: Mode::Polymorphic,
                options: Options::default(),
                budgets: Budgets::default(),
                kind: UnitKind::Scc {
                    names: vec![user.to_owned()],
                    recursive: false,
                },
                proxies: &proxies,
                schemes: &id_summary.schemes,
                failed: &[],
            };
            let s = analyze_unit(&req);
            assert!(s.diagnostics.is_empty(), "{user}: {:?}", s.diagnostics);
            assert!(s.cert.is_some(), "{user}'s unit must certify");
        }
    }
}
