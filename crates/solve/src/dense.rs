//! The dense solver hot path: CSR adjacency, epoch-deduplicated
//! worklist, and exact graph shrinking (cycle collapse + chain
//! coalescing) before propagation.
//!
//! The reference solver in [`crate::solver`] pointer-chases a
//! `Vec<Vec<(u32, u64)>>` per propagation step. This module rebuilds the
//! same fixpoint on dense data:
//!
//! * **CSR adjacency** — edges live in flat `u32`/`u64` arrays,
//!   segregated by shape: full-mask edges (the overwhelming majority)
//!   propagate with a bare word OR/AND, masked edges carry their mask in
//!   a parallel array. One offsets array per direction indexes both.
//! * **Epoch worklist** — membership is a `u32` generation tag per
//!   variable instead of a hash set or a cleared bool vector; the least
//!   pass tags with 1, the greatest pass with 2, so nothing is ever
//!   reset between passes.
//! * **Cycle collapse** — one iterative Tarjan pass over the full-mask
//!   subgraph maps every member of a strongly connected component to a
//!   single representative before propagation. Every member of a
//!   full-mask cycle provably shares one least and one greatest value,
//!   so contraction is exact, and the pass is linear in the number of
//!   constraints (the Henglein–Rehof bound the paper cites in §3.1).
//! * **Chain coalescing** — a representative whose *only* lower bound is
//!   one full-mask in-edge is an alias of its predecessor in the least
//!   solution (dually for single full-mask out-edges and the greatest
//!   solution), so chains propagate in O(1) instead of O(length).
//!
//! The output is byte-identical to the reference solver: same solution
//! tables, same violations in the same order carrying the *original*
//! constraints (so provenance, and therefore `explain` chains and
//! diagnostics, never see a representative). The differential suite in
//! `tests/dense_differential.rs` enforces this against the retained
//! reference path.
//!
//! Budget semantics: one unit per edge relaxation, as before, plus one
//! unit per variable eliminated by collapse or coalescing — elimination
//! is work the reference path would have paid for in relaxations, so a
//! starved budget still fails structurally instead of stalling.

use qual_lattice::{QualSet, QualSpace};

use crate::constraint::Constraint;
use crate::error::{SolveFailure, Violation};
use crate::solver::Solution;
use crate::term::Qual;

/// Sentinel for "not aliased".
const NONE: u32 = u32::MAX;

/// Tracks budget and cooperative cancellation for one solve.
struct Meter {
    spent: u64,
    max: u64,
    until_poll: u64,
    cancellable: bool,
}

enum Stop {
    OutOfBudget,
    Cancelled,
}

impl Meter {
    const CANCEL_BATCH: u64 = 1024;

    fn new(max: u64) -> Meter {
        Meter {
            spent: 0,
            max,
            until_poll: Meter::CANCEL_BATCH,
            cancellable: max != u64::MAX,
        }
    }

    /// Spends one unit; errors when the budget is already gone or the
    /// thread's cooperative deadline fired.
    #[inline]
    fn step(&mut self) -> Result<(), Stop> {
        if self.spent == self.max {
            return Err(Stop::OutOfBudget);
        }
        self.spent += 1;
        if self.cancellable {
            self.until_poll -= 1;
            if self.until_poll == 0 {
                self.until_poll = Meter::CANCEL_BATCH;
                if qual_faultpoint::cancel::expired() {
                    return Err(Stop::Cancelled);
                }
            }
        }
        Ok(())
    }

    fn fail(&self, stop: &Stop) -> SolveFailure {
        qual_obs::count("solve.steps", self.spent);
        match stop {
            Stop::OutOfBudget => SolveFailure::BudgetExceeded {
                steps: self.spent,
                limit: self.max,
            },
            Stop::Cancelled => SolveFailure::Cancelled { steps: self.spent },
        }
    }
}

/// One direction's adjacency in compressed sparse row form. Row `v`
/// holds the full-mask targets `full_targets[full_off[v]..full_off[v+1]]`
/// and the masked pairs at the same positions of the `masked_*` arrays.
struct Csr {
    full_off: Vec<u32>,
    full_targets: Vec<u32>,
    masked_off: Vec<u32>,
    masked_targets: Vec<u32>,
    masked_masks: Vec<u64>,
}

impl Csr {
    fn build(n: usize, full: &[(u32, u32)], masked: &[(u32, u32, u64)]) -> Csr {
        let (full_off, full_targets) = rows(n, full.iter().map(|&(s, t)| (s, t, 0)), full.len());
        let mut masked_masks = vec![0u64; masked.len()];
        let (masked_off, masked_targets) = {
            let (off, mut tgt) = (count_offsets(n, masked.iter().map(|e| e.0)), vec![0u32; masked.len()]);
            let mut cursor: Vec<u32> = off[..n].to_vec();
            for &(s, t, m) in masked {
                let at = cursor[s as usize] as usize;
                cursor[s as usize] += 1;
                tgt[at] = t;
                masked_masks[at] = m;
            }
            (off, tgt)
        };
        Csr {
            full_off,
            full_targets,
            masked_off,
            masked_targets,
            masked_masks,
        }
    }
}

fn count_offsets(n: usize, sources: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut off = vec![0u32; n + 1];
    for s in sources {
        off[s as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    off
}

fn rows(
    n: usize,
    edges: impl Iterator<Item = (u32, u32, u64)> + Clone,
    len: usize,
) -> (Vec<u32>, Vec<u32>) {
    let off = count_offsets(n, edges.clone().map(|e| e.0));
    let mut tgt = vec![0u32; len];
    let mut cursor: Vec<u32> = off[..n].to_vec();
    for (s, t, _) in edges {
        let at = cursor[s as usize] as usize;
        cursor[s as usize] += 1;
        tgt[at] = t;
    }
    (off, tgt)
}

/// Iterative Tarjan over the full-mask subgraph. Points every member of
/// a non-trivial SCC directly at the component's root in `root_of`
/// (which must start as the identity), so afterwards `root_of[v]` is
/// `v`'s representative. Returns the number of variables folded into a
/// representative.
fn collapse_sccs(n: usize, edges: &[(u32, u32)], root_of: &mut [u32]) -> usize {
    if edges.is_empty() {
        return 0;
    }
    let (off, tgt) = rows(n, edges.iter().map(|&(s, t)| (s, t, 0)), edges.len());
    // index 0 = unvisited; indices start at 1.
    let mut index = vec![0u32; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 1u32;
    let mut merged = 0usize;
    // DFS frames: (node, next child position).
    let mut frames: Vec<(u32, u32)> = Vec::new();
    for &(root_edge, _) in edges {
        if index[root_edge as usize] != 0 {
            continue;
        }
        frames.push((root_edge, off[root_edge as usize]));
        index[root_edge as usize] = next_index;
        lowlink[root_edge as usize] = next_index;
        next_index += 1;
        stack.push(root_edge);
        on_stack[root_edge as usize] = true;
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child < off[v as usize + 1] {
                let w = tgt[*child as usize];
                *child += 1;
                if index[w as usize] == 0 {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, off[w as usize]));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    lowlink[p as usize] = lowlink[p as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // Pop the component; point every member at `v`.
                    while let Some(&w) = stack.last() {
                        stack.pop();
                        on_stack[w as usize] = false;
                        if w != v {
                            root_of[w as usize] = v;
                            merged += 1;
                        }
                        if w == v {
                            break;
                        }
                    }
                }
            }
        }
    }
    merged
}

/// Resolves alias chains to their terminus, memoized. `alias[r]` is the
/// node `r` reads its value from (or [`NONE`]); chains are acyclic
/// because a full-mask cycle would already have been collapsed.
fn resolve_chains(n: usize, alias: &[u32]) -> Vec<u32> {
    let mut resolve: Vec<u32> = (0..n as u32).collect();
    let mut done: Vec<bool> = alias.iter().map(|&a| a == NONE).collect();
    let mut chain: Vec<u32> = Vec::new();
    for r in 0..n as u32 {
        if done[r as usize] {
            continue;
        }
        let mut cur = r;
        while !done[cur as usize] {
            chain.push(cur);
            cur = alias[cur as usize];
        }
        let terminus = resolve[cur as usize];
        for &c in &chain {
            resolve[c as usize] = terminus;
            done[c as usize] = true;
        }
        chain.clear();
    }
    resolve
}

enum Dir {
    Join,
    Meet,
}

/// Worklist fixpoint over one CSR direction. `pass` is the epoch tag of
/// this pass (1 for least, 2 for greatest); a variable is on the list
/// iff `epoch[v] == pass`, so nothing is cleared between passes.
#[allow(clippy::too_many_arguments)]
fn propagate(
    csr: &Csr,
    val: &mut [u64],
    epoch: &mut [u32],
    work: &mut Vec<u32>,
    pass: u32,
    top: u64,
    dir: &Dir,
    meter: &mut Meter,
) -> Result<(), Stop> {
    while let Some(v) = work.pop() {
        epoch[v as usize] = pass - 1;
        let from = val[v as usize];
        let (f0, f1) = (csr.full_off[v as usize], csr.full_off[v as usize + 1]);
        for &w in &csr.full_targets[f0 as usize..f1 as usize] {
            meter.step()?;
            let cur = val[w as usize];
            let next = match dir {
                Dir::Join => cur | from,
                Dir::Meet => cur & from,
            };
            if next != cur {
                val[w as usize] = next;
                if epoch[w as usize] != pass {
                    epoch[w as usize] = pass;
                    work.push(w);
                }
            }
        }
        let (m0, m1) = (csr.masked_off[v as usize], csr.masked_off[v as usize + 1]);
        for (&w, &m) in csr.masked_targets[m0 as usize..m1 as usize]
            .iter()
            .zip(&csr.masked_masks[m0 as usize..m1 as usize])
        {
            meter.step()?;
            let cur = val[w as usize];
            let next = match dir {
                Dir::Join => cur | (from & m),
                Dir::Meet => cur & (from | (top & !m)),
            };
            if next != cur {
                val[w as usize] = next;
                if epoch[w as usize] != pass {
                    epoch[w as usize] = pass;
                    work.push(w);
                }
            }
        }
    }
    Ok(())
}

/// Dense counterpart of [`crate::solver::solve_budgeted_reference`]:
/// identical observable behavior, radically less propagation work.
pub(crate) fn solve_budgeted(
    space: &QualSpace,
    var_count: usize,
    constraints: &[Constraint],
    max_steps: u64,
) -> Result<Solution, SolveFailure> {
    let _span = qual_obs::span("solve-propagate");
    qual_obs::peak("solve.vars", var_count as u64);
    qual_obs::peak("solve.coords", space.len() as u64);
    let top = space.top().bits();
    let bot = space.bottom().bits();
    let n = var_count;
    let mut meter = Meter::new(max_steps);

    // ---- classification: one pass, edges segregated by shape --------
    let mut violations = Vec::new();
    let mut seeds: Vec<(u32, u64)> = Vec::new();
    let mut caps: Vec<(u32, u64)> = Vec::new();
    let mut full_edges: Vec<(u32, u32)> = Vec::new();
    let mut masked_edges: Vec<(u32, u32, u64)> = Vec::new();
    for c in constraints {
        let m = c.mask & top;
        match (c.lhs, c.rhs) {
            (Qual::Const(l), Qual::Const(r)) => {
                if l.bits() & !r.bits() & m != 0 {
                    violations.push(Violation {
                        constraint: *c,
                        lower: l,
                        upper: r,
                    });
                }
            }
            (Qual::Const(l), Qual::Var(v)) => seeds.push((v.index() as u32, l.bits() & m)),
            (Qual::Var(v), Qual::Const(r)) => {
                caps.push((v.index() as u32, r.bits() | (top & !m)));
            }
            (Qual::Var(v), Qual::Var(w)) => {
                // Self-loops are inert (`v ⊓ m ⊑ v ⊔ ¬m` always holds),
                // and so are edges whose mask relates no coordinate.
                if v != w && m != 0 {
                    if m == top {
                        full_edges.push((v.index() as u32, w.index() as u32));
                    } else {
                        masked_edges.push((v.index() as u32, w.index() as u32, m));
                    }
                }
            }
        }
    }

    // ---- cycle collapse: one Tarjan pass over full-mask edges -------
    let mut root_of: Vec<u32> = (0..n as u32).collect();
    let collapsed = collapse_sccs(n, &full_edges, &mut root_of);
    qual_obs::count("solve.collapsed", collapsed as u64);
    for _ in 0..collapsed {
        if let Err(stop) = meter.step() {
            return Err(meter.fail(&stop));
        }
    }

    // ---- fold bounds into representatives ---------------------------
    let mut least: Vec<u64> = vec![bot; n];
    for &(v, b) in &seeds {
        least[root_of[v as usize] as usize] |= b;
    }
    let mut greatest: Vec<u64> = vec![top; n];
    for &(v, b) in &caps {
        greatest[root_of[v as usize] as usize] &= b;
    }

    // Edges between representatives; intra-class edges became inert
    // self-loops and are dropped.
    let mut r_full: Vec<(u32, u32)> = Vec::with_capacity(full_edges.len());
    for &(v, w) in &full_edges {
        let (a, b) = (root_of[v as usize], root_of[w as usize]);
        if a != b {
            r_full.push((a, b));
        }
    }
    let mut r_masked: Vec<(u32, u32, u64)> = Vec::with_capacity(masked_edges.len());
    for &(v, w, m) in &masked_edges {
        let (a, b) = (root_of[v as usize], root_of[w as usize]);
        if a != b {
            r_masked.push((a, b, m));
        }
    }

    // ---- chain coalescing -------------------------------------------
    // in/out degree and the (sole) neighbor per representative; a bool
    // per side records whether that sole edge is full-mask.
    let mut in_count = vec![0u32; n];
    let mut in_pred = vec![0u32; n];
    let mut in_full = vec![false; n];
    let mut out_count = vec![0u32; n];
    let mut out_succ = vec![0u32; n];
    let mut out_full = vec![false; n];
    for &(a, b) in &r_full {
        in_count[b as usize] += 1;
        in_pred[b as usize] = a;
        in_full[b as usize] = true;
        out_count[a as usize] += 1;
        out_succ[a as usize] = b;
        out_full[a as usize] = true;
    }
    for &(a, b, _) in &r_masked {
        in_count[b as usize] += 1;
        in_full[b as usize] = false;
        out_count[a as usize] += 1;
        out_full[a as usize] = false;
    }
    // least(r) with exactly one lower bound — a single full-mask
    // in-edge and no constant seed — is exactly least(pred); dually for
    // greatest with a single full-mask out-edge and no constant cap.
    let mut least_alias = vec![NONE; n];
    let mut great_alias = vec![NONE; n];
    let mut coalesced = 0u64;
    for r in 0..n {
        if root_of[r] != r as u32 {
            continue;
        }
        if in_count[r] == 1 && in_full[r] && least[r] == bot {
            least_alias[r] = in_pred[r];
            coalesced += 1;
            if let Err(stop) = meter.step() {
                qual_obs::count("solve.coalesced", coalesced);
                return Err(meter.fail(&stop));
            }
        }
        if out_count[r] == 1 && out_full[r] && greatest[r] == top {
            great_alias[r] = out_succ[r];
            coalesced += 1;
            if let Err(stop) = meter.step() {
                qual_obs::count("solve.coalesced", coalesced);
                return Err(meter.fail(&stop));
            }
        }
    }
    qual_obs::count("solve.coalesced", coalesced);
    let resolve_l = resolve_chains(n, &least_alias);
    let resolve_g = resolve_chains(n, &great_alias);

    // ---- CSR construction -------------------------------------------
    // Forward edges re-sourced through least aliases; an aliased
    // target's sole in-edge is subsumed by the alias itself.
    let mut f_full: Vec<(u32, u32)> = Vec::with_capacity(r_full.len());
    let mut b_full: Vec<(u32, u32)> = Vec::with_capacity(r_full.len());
    for &(a, b) in &r_full {
        if least_alias[b as usize] == NONE {
            let s = resolve_l[a as usize];
            if s != b {
                f_full.push((s, b));
            }
        }
        if great_alias[a as usize] == NONE {
            let s = resolve_g[b as usize];
            if s != a {
                b_full.push((s, a));
            }
        }
    }
    let mut f_masked: Vec<(u32, u32, u64)> = Vec::with_capacity(r_masked.len());
    let mut b_masked: Vec<(u32, u32, u64)> = Vec::with_capacity(r_masked.len());
    for &(a, b, m) in &r_masked {
        if least_alias[b as usize] == NONE {
            let s = resolve_l[a as usize];
            if s != b {
                f_masked.push((s, b, m));
            }
        }
        if great_alias[a as usize] == NONE {
            let s = resolve_g[b as usize];
            if s != a {
                b_masked.push((s, a, m));
            }
        }
    }
    let fwd = Csr::build(n, &f_full, &f_masked);
    let bwd = Csr::build(n, &b_full, &b_masked);

    // ---- propagation with the epoch worklist ------------------------
    // Seeding only moved variables is exact: a variable still at ⊥ (or
    // ⊤ in the meet pass) changes nothing downstream by relaxing.
    let mut epoch = vec![0u32; n];
    let mut work: Vec<u32> = Vec::new();
    for r in 0..n {
        if least[r] != bot && least_alias[r] == NONE && root_of[r] == r as u32 {
            epoch[r] = 1;
            work.push(r as u32);
        }
    }
    if let Err(stop) = propagate(&fwd, &mut least, &mut epoch, &mut work, 1, top, &Dir::Join, &mut meter) {
        return Err(meter.fail(&stop));
    }
    work.clear();
    for r in 0..n {
        if greatest[r] != top && great_alias[r] == NONE && root_of[r] == r as u32 {
            epoch[r] = 2;
            work.push(r as u32);
        }
    }
    if let Err(stop) = propagate(&bwd, &mut greatest, &mut epoch, &mut work, 2, top, &Dir::Meet, &mut meter) {
        return Err(meter.fail(&stop));
    }
    // The `solve.steps` counter reports worklist relaxations only, so
    // it is comparable with the reference solver's count; the budget
    // meter additionally charged one unit per collapsed variable and
    // coalesced alias (reported as `solve.collapsed`/`solve.coalesced`).
    qual_obs::count("solve.steps", meter.spent - collapsed as u64 - coalesced);

    // ---- expansion: aliases, then class members ---------------------
    for r in 0..n {
        if least_alias[r] != NONE {
            least[r] = least[resolve_l[r] as usize];
        }
        if great_alias[r] != NONE {
            greatest[r] = greatest[resolve_g[r] as usize];
        }
    }
    let least_out: Vec<QualSet> = (0..n)
        .map(|v| QualSet::from_bits(least[root_of[v] as usize]))
        .collect();
    let greatest_out: Vec<QualSet> = (0..n)
        .map(|v| QualSet::from_bits(greatest[root_of[v] as usize]))
        .collect();

    // ---- satisfiability sweep, in constraint order ------------------
    for c in constraints {
        if let (Qual::Var(v), Qual::Const(r)) = (c.lhs, c.rhs) {
            let lo = least_out[v.index()];
            if lo.bits() & !r.bits() & c.mask & top != 0 {
                violations.push(Violation {
                    constraint: *c,
                    lower: lo,
                    upper: r,
                });
            }
        }
    }

    if violations.is_empty() {
        Ok(Solution::from_parts(least_out, greatest_out))
    } else {
        Err(SolveFailure::Unsat(crate::error::SolveError { violations }))
    }
}
