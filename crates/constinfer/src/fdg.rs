//! The function dependence graph of Definition 4 (§4.3).
//!
//! Vertices are the program's defined functions; there is an edge from
//! `f` to `g` iff `f`'s body contains an occurrence of the name `g`.
//! Strongly-connected components are the sets of mutually-recursive
//! functions; polymorphic inference analyzes them in reverse depth-first
//! (topological) order, generalizing after each component.

use std::collections::HashSet;

use qual_cfront::ast::{Block, Expr, ExprKind, Item, Program, Stmt};
use qual_cfront::fxhash::FxHashMap;

/// The function dependence graph plus its SCC decomposition.
#[derive(Debug)]
pub struct Fdg {
    /// Function names, indexed by vertex id.
    pub names: Vec<String>,
    /// Adjacency: `edges[f]` = functions mentioned by `f`.
    pub edges: Vec<Vec<usize>>,
    /// SCCs in *reverse topological order* (callees before callers) —
    /// exactly the order polymorphic inference wants.
    pub sccs: Vec<Vec<usize>>,
    /// For each vertex, the index (into [`Fdg::sccs`]) of its component.
    scc_of: Vec<usize>,
}

impl Fdg {
    /// Builds the FDG of `prog`.
    #[must_use]
    pub fn build(prog: &Program) -> Fdg {
        let mut names = Vec::new();
        let mut index: FxHashMap<&str, usize> = FxHashMap::default();
        for item in &prog.items {
            if let Item::Func(f) = item {
                index.insert(&f.name, names.len());
                names.push(f.name.clone());
            }
        }
        let mut edges = vec![Vec::new(); names.len()];
        for item in &prog.items {
            if let Item::Func(f) = item {
                let mut targets = Vec::new();
                visit_block(&f.body, &mut |e| {
                    if let ExprKind::Ident(n) = &e.kind {
                        targets.extend(index.get(n.as_str()).copied());
                    }
                });
                targets.sort_unstable();
                targets.dedup();
                edges[index[f.name.as_str()]] = targets;
            }
        }
        let sccs = tarjan(&edges);
        let mut scc_of = vec![0usize; names.len()];
        for (i, scc) in sccs.iter().enumerate() {
            for &v in scc {
                scc_of[v] = i;
            }
        }
        Fdg {
            names,
            edges,
            sccs,
            scc_of,
        }
    }

    /// The vertex id of a function.
    #[must_use]
    pub fn vertex(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The components (by index into [`Fdg::sccs`]) that SCC `scc_index`
    /// depends on — distinct, sorted, self excluded. Because the SCC
    /// list is in reverse topological order, every returned index is
    /// `< scc_index`.
    #[must_use]
    pub fn scc_callees(&self, scc_index: usize) -> Vec<usize> {
        let mut deps: Vec<usize> = self.sccs[scc_index]
            .iter()
            .flat_map(|&v| self.edges[v].iter().map(|&w| self.scc_of[w]))
            .filter(|&c| c != scc_index)
            .collect();
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Groups SCCs into topological *wavefronts*: level 0 holds the
    /// components with no dependencies, level `k+1` the components all
    /// of whose dependencies sit in levels `≤ k` with at least one at
    /// exactly `k`. Every component in one wavefront is independent of
    /// every other, so a parallel driver may analyze a whole wavefront
    /// concurrently; wavefronts themselves run in order. Each inner
    /// vector lists SCC indices in ascending order, so the grouping is
    /// deterministic given the program.
    #[must_use]
    pub fn wavefronts(&self) -> Vec<Vec<usize>> {
        let mut depth = vec![0usize; self.sccs.len()];
        for (i, scc) in self.sccs.iter().enumerate() {
            let mut d = 0usize;
            for &v in scc {
                for &w in &self.edges[v] {
                    let c = self.scc_of[w];
                    if c != i {
                        // Reverse topological order guarantees c < i, so
                        // depth[c] is already final.
                        d = d.max(depth[c] + 1);
                    }
                }
            }
            depth[i] = d;
        }
        let levels = depth.iter().copied().max().map_or(0, |m| m + 1);
        let mut fronts = vec![Vec::new(); levels];
        for (i, &d) in depth.iter().enumerate() {
            fronts[d].push(i);
        }
        fronts
    }
}

/// The set of names mentioned anywhere in an expression — the same
/// notion of "occurrence" the FDG's edges use (Definition 4). The
/// incremental driver uses this to key the globals unit on the
/// functions its initializers may reference.
#[must_use]
pub fn mentioned_names(e: &Expr) -> HashSet<String> {
    let mut out = HashSet::new();
    visit_expr(e, &mut |e| {
        if let ExprKind::Ident(n) = &e.kind {
            out.insert(n.clone());
        }
    });
    out
}

/// Calls `out` on every expression node in the block, each before its
/// operands, in source order.
pub(crate) fn visit_block<'a>(b: &'a Block, out: &mut impl FnMut(&'a Expr)) {
    for s in &b.stmts {
        visit_stmt(s, out);
    }
}

fn visit_stmt<'a>(s: &'a Stmt, out: &mut impl FnMut(&'a Expr)) {
    match s {
        Stmt::Decl { init, .. } => {
            if let Some(e) = init {
                visit_expr(e, out);
            }
        }
        Stmt::Expr(e) => visit_expr(e, out),
        Stmt::If { cond, then, els } => {
            visit_expr(cond, out);
            visit_block(then, out);
            if let Some(b) = els {
                visit_block(b, out);
            }
        }
        Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
            visit_expr(cond, out);
            visit_block(body, out);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(s) = init {
                visit_stmt(s, out);
            }
            if let Some(e) = cond {
                visit_expr(e, out);
            }
            if let Some(e) = step {
                visit_expr(e, out);
            }
            visit_block(body, out);
        }
        Stmt::Switch { cond, arms } => {
            visit_expr(cond, out);
            for arm in arms {
                visit_block(&arm.body, out);
            }
        }
        Stmt::Label(_, inner) => visit_stmt(inner, out),
        Stmt::Return(Some(e), _) => visit_expr(e, out),
        Stmt::Return(None, _) | Stmt::Break(_) | Stmt::Continue(_) | Stmt::Goto(..) => {}
        Stmt::Block(b) => visit_block(b, out),
    }
}

/// Calls `out` on `e` and then on every expression node inside it.
pub(crate) fn visit_expr<'a>(e: &'a Expr, out: &mut impl FnMut(&'a Expr)) {
    out(e);
    match &e.kind {
        ExprKind::Ident(_)
        | ExprKind::IntLit(_)
        | ExprKind::CharLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::Sizeof => {}
        ExprKind::Unary(_, a) | ExprKind::PostIncDec(a, _) | ExprKind::Cast(_, a) => {
            visit_expr(a, out);
        }
        ExprKind::Member(a, _) | ExprKind::PMember(a, _) => visit_expr(a, out),
        ExprKind::Binary(_, a, b)
        | ExprKind::Assign(_, a, b)
        | ExprKind::Index(a, b)
        | ExprKind::Comma(a, b) => {
            visit_expr(a, out);
            visit_expr(b, out);
        }
        ExprKind::Call(f, args) => {
            visit_expr(f, out);
            for a in args {
                visit_expr(a, out);
            }
        }
        ExprKind::Cond(a, b, c) => {
            visit_expr(a, out);
            visit_expr(b, out);
            visit_expr(c, out);
        }
    }
}

/// Tarjan's SCC algorithm (iterative); returns components in reverse
/// topological order (Tarjan emits each SCC after all SCCs it can reach).
fn tarjan(edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();

    // Iterative DFS with an explicit frame stack.
    enum Frame {
        Enter(usize),
        Resume(usize, usize), // (vertex, next child position)
    }
    let mut frames = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push(Frame::Enter(root));
        while let Some(frame) = frames.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    frames.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut child) => {
                    let mut descended = false;
                    while child < edges[v].len() {
                        let w = edges[v][child];
                        child += 1;
                        if index[w] == usize::MAX {
                            frames.push(Frame::Resume(v, child));
                            frames.push(Frame::Enter(w));
                            descended = true;
                            break;
                        }
                        if on_stack[w] {
                            lowlink[v] = lowlink[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if lowlink[v] == index[v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack nonempty");
                            on_stack[w] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        scc.sort_unstable();
                        sccs.push(scc);
                    }
                    // Propagate lowlink to the parent frame.
                    if let Some(Frame::Resume(p, _)) = frames.last() {
                        let p = *p;
                        lowlink[p] = lowlink[p].min(lowlink[v]);
                    }
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use qual_cfront::parse;

    fn fdg(src: &str) -> Fdg {
        Fdg::build(&parse(src).unwrap())
    }

    #[test]
    fn simple_call_chain_is_reverse_topological() {
        let g = fdg("int c(void) { return 1; }
                     int b(void) { return c(); }
                     int a(void) { return b(); }");
        // callees first
        let order: Vec<&str> = g
            .sccs
            .iter()
            .map(|scc| g.names[scc[0]].as_str())
            .collect();
        assert_eq!(order, vec!["c", "b", "a"]);
    }

    #[test]
    fn mutual_recursion_is_one_scc() {
        let g = fdg("int odd(int n);
                     int even(int n) { return n == 0 ? 1 : odd(n - 1); }
                     int odd(int n) { return n == 0 ? 0 : even(n - 1); }
                     int main(void) { return even(10); }");
        assert_eq!(g.sccs.len(), 2);
        assert_eq!(g.sccs[0].len(), 2, "even/odd form one SCC");
        assert_eq!(g.names[g.sccs[1][0]], "main");
    }

    #[test]
    fn self_recursion_is_a_singleton_scc() {
        let g = fdg("int fact(int n) { return n ? n * fact(n - 1) : 1; }");
        assert_eq!(g.sccs, vec![vec![0]]);
    }

    #[test]
    fn mention_without_call_is_an_edge() {
        // Definition 4: an edge exists iff the *name* occurs.
        let g = fdg("int helper(int x) { return x; }
                     int user(void) { int (*p)(int) = helper; return 0; }");
        let u = g.vertex("user").unwrap();
        let h = g.vertex("helper").unwrap();
        assert!(g.edges[u].contains(&h));
    }

    #[test]
    fn library_calls_create_no_vertices() {
        let g = fdg("int f(void) { return printf(\"x\"); }");
        assert_eq!(g.names, vec!["f"]);
        assert!(g.edges[0].is_empty());
    }

    #[test]
    fn wavefronts_of_a_chain_are_singletons_in_order() {
        let g = fdg("int c(void) { return 1; }
                     int b(void) { return c(); }
                     int a(void) { return b(); }");
        // A chain admits no parallelism: one SCC per wavefront.
        assert_eq!(g.wavefronts(), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(g.scc_callees(0), Vec::<usize>::new());
        assert_eq!(g.scc_callees(1), vec![0]);
        assert_eq!(g.scc_callees(2), vec![1]);
    }

    #[test]
    fn wavefronts_condense_cycles_and_exclude_self_edges() {
        // even/odd form one cyclic SCC; its internal edges must not
        // count as dependencies, and main depends on the condensed
        // component as a whole.
        let g = fdg("int odd(int n);
                     int even(int n) { return n == 0 ? 1 : odd(n - 1); }
                     int odd(int n) { return n == 0 ? 0 : even(n - 1); }
                     int main(void) { return even(10); }");
        assert_eq!(g.sccs.len(), 2);
        assert_eq!(g.scc_callees(0), Vec::<usize>::new(), "cycle edges are internal");
        assert_eq!(g.scc_callees(1), vec![0]);
        assert_eq!(g.wavefronts(), vec![vec![0], vec![1]]);

        // Self-recursion: the self-edge is not a dependency either.
        let g = fdg("int fact(int n) { return n ? n * fact(n - 1) : 1; }");
        assert_eq!(g.scc_callees(0), Vec::<usize>::new());
        assert_eq!(g.wavefronts(), vec![vec![0]]);
    }

    #[test]
    fn wavefronts_run_disconnected_components_together() {
        // Two independent chains: their same-depth SCCs share wavefronts.
        let g = fdg("int leaf1(void) { return 1; }
                     int leaf2(void) { return 2; }
                     int up1(void) { return leaf1(); }
                     int up2(void) { return leaf2(); }
                     int lone(void) { return 7; }");
        let fronts = g.wavefronts();
        assert_eq!(fronts.len(), 2);
        let names_at = |level: usize| {
            let mut ns: Vec<&str> = fronts[level]
                .iter()
                .map(|&s| g.names[g.sccs[s][0]].as_str())
                .collect();
            ns.sort_unstable();
            ns
        };
        assert_eq!(names_at(0), vec!["leaf1", "leaf2", "lone"]);
        assert_eq!(names_at(1), vec!["up1", "up2"]);
    }

    #[test]
    fn wavefront_of_diamond_has_parallel_middle() {
        let g = fdg("int d(void) { return 0; }
                     int b(void) { return d(); }
                     int c(void) { return d(); }
                     int a(void) { return b() + c(); }");
        let fronts = g.wavefronts();
        assert_eq!(fronts.len(), 3);
        assert_eq!(fronts[0].len(), 1, "d alone at the bottom");
        assert_eq!(fronts[1].len(), 2, "b and c are independent");
        assert_eq!(fronts[2].len(), 1, "a waits for both");
        // Every SCC appears in exactly one wavefront, and dependencies
        // always sit at strictly smaller depths.
        let mut seen = vec![false; g.sccs.len()];
        for (lvl, front) in fronts.iter().enumerate() {
            for &s in front {
                assert!(!seen[s]);
                seen[s] = true;
                for dep in g.scc_callees(s) {
                    let dep_lvl = fronts.iter().position(|f| f.contains(&dep)).unwrap();
                    assert!(dep_lvl < lvl);
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn callees_and_wavefronts_match_a_recompute_on_a_generated_program() {
        let profile = qual_cgen::table1_profiles()[3].scaled(3000);
        let g = Fdg::build(&parse(&qual_cgen::generate(&profile)).unwrap());
        let component = |v: usize| g.sccs.iter().position(|scc| scc.contains(&v)).unwrap();
        let mut depth: Vec<usize> = Vec::new();
        for (i, scc) in g.sccs.iter().enumerate() {
            let mut callees: Vec<usize> = scc
                .iter()
                .flat_map(|&v| g.edges[v].iter().map(|&w| component(w)))
                .filter(|&c| c != i)
                .collect();
            callees.sort_unstable();
            callees.dedup();
            assert_eq!(g.scc_callees(i), callees, "component {i}");
            depth.push(callees.iter().map(|&c| depth[c] + 1).max().unwrap_or(0));
        }
        let fronts = g.wavefronts();
        assert!(fronts.len() > 2, "a generated program has call chains");
        for (level, front) in fronts.iter().enumerate() {
            for &s in front {
                assert_eq!(depth[s], level, "component {s}");
            }
        }
        assert_eq!(fronts.iter().map(Vec::len).sum::<usize>(), g.sccs.len());
    }

    #[test]
    fn mentioned_names_sees_through_expressions() {
        let p = parse(
            "int h(void);
             int x = h() + other(1, 2);",
        )
        .unwrap();
        let Item::Global { init: Some(e), .. } = &p.items[1] else {
            panic!("expected global with initializer");
        };
        let names = mentioned_names(e);
        assert!(names.contains("h"));
        assert!(names.contains("other"));
        assert!(!names.contains("x"));
    }

    #[test]
    fn diamond_order_respects_dependencies() {
        let g = fdg("int d(void) { return 0; }
                     int b(void) { return d(); }
                     int c(void) { return d(); }
                     int a(void) { return b() + c(); }");
        let pos = |n: &str| {
            g.sccs
                .iter()
                .position(|scc| scc.iter().any(|v| g.names[*v] == n))
                .unwrap()
        };
        assert!(pos("d") < pos("b"));
        assert!(pos("d") < pos("c"));
        assert!(pos("b") < pos("a"));
        assert!(pos("c") < pos("a"));
    }
}
