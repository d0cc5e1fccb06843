//! The operational semantics of Figure 5: call-by-value evaluation over
//! *qualified values* `l v`, with a store for references.
//!
//! Every semantic value carries a qualifier set (programs are implicitly
//! rewritten to this form by inserting `⊥` annotations, §3.3). The two
//! qualifier-specific reduction rules are:
//!
//! ```text
//! ⟨s, R[(l₂ v)|l₁]⟩ → ⟨s, R[l₂ v]⟩    if l₂ ⊑ l₁   (assertion)
//! ⟨s, R[l₁ (l₂ v)]⟩ → ⟨s, R[l₁ v]⟩    if l₂ ⊑ l₁   (annotation)
//! ```
//!
//! When the side condition fails the configuration is **stuck** — and the
//! soundness theorem (Corollary 1) says well-qualified programs never get
//! stuck, which the test suite verifies empirically on random programs.

use std::fmt;

use qual_lattice::{QualSet, QualSpace};

use crate::ast::{Expr, ExprKind, Span};

/// A runtime value: a qualifier set and an unqualified shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The value's qualifier annotation `l`.
    pub qual: QualSet,
    /// The underlying syntactic value.
    pub shape: VShape,
}

/// The unqualified syntactic values.
#[derive(Debug, Clone, PartialEq)]
pub enum VShape {
    /// An integer.
    Int(i64),
    /// The unit value.
    Unit,
    /// A store location.
    Loc(usize),
    /// An abstraction (substitution semantics: the body is closed by
    /// substitution, there is no environment).
    Closure(String, Expr),
    /// A pair of values.
    Pair(Box<Value>, Box<Value>),
}

impl Value {
    fn bottom(space: &QualSpace, shape: VShape) -> Value {
        Value {
            qual: space.bottom(),
            shape,
        }
    }

    /// Renders the value for messages.
    #[must_use]
    pub fn render(&self, space: &QualSpace) -> String {
        let q = space.render(self.qual);
        let q = if q.is_empty() { "∅".to_owned() } else { q };
        match &self.shape {
            VShape::Int(n) => format!("({q} {n})"),
            VShape::Unit => format!("({q} ())"),
            VShape::Loc(a) => format!("({q} loc{a})"),
            VShape::Closure(x, _) => format!("({q} \\{x}. ...)"),
            VShape::Pair(a, b) => {
                format!("({q} ({}, {}))", a.render(space), b.render(space))
            }
        }
    }
}

/// Why evaluation stopped without producing a value.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The step budget ran out (the program may diverge).
    FuelExhausted,
    /// The configuration is stuck: no reduction rule applies.
    ///
    /// For well-qualified programs this never happens (Corollary 1).
    Stuck {
        /// Why no rule applies.
        reason: String,
        /// The offending expression's source span.
        span: Span,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::FuelExhausted => f.write_str("evaluation fuel exhausted"),
            EvalError::Stuck { reason, span } => {
                write!(f, "stuck at bytes {}..{}: {reason}", span.lo, span.hi)
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// A store mapping locations to qualified values.
#[derive(Debug, Default)]
pub struct Store {
    cells: Vec<Value>,
}

impl Store {
    /// An empty store.
    #[must_use]
    pub fn new() -> Store {
        Store::default()
    }

    /// Allocates a fresh location holding `v`.
    pub fn alloc(&mut self, v: Value) -> usize {
        self.cells.push(v);
        self.cells.len() - 1
    }

    /// The value at `a`, if allocated.
    #[must_use]
    pub fn get(&self, a: usize) -> Option<&Value> {
        self.cells.get(a)
    }

    /// Overwrites location `a`, returning whether it was allocated.
    pub fn set(&mut self, a: usize, v: Value) -> bool {
        match self.cells.get_mut(a) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        }
    }

    /// Number of allocated cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Evaluates a closed program with a step budget, giving every integer
/// literal the paper's default `⊥` annotation.
///
/// Returns the final qualified value and the store.
///
/// # Errors
///
/// [`EvalError::Stuck`] when no reduction rule applies (ill-typed or
/// qualifier-violating program); [`EvalError::FuelExhausted`] when the
/// budget runs out.
pub fn eval(
    expr: &Expr,
    space: &QualSpace,
    fuel: u64,
) -> Result<(Value, Store), EvalError> {
    eval_with(expr, space, &crate::rules::NoRules, fuel)
}

/// Like [`eval`], but literals receive the intrinsic qualifier declared
/// by `rules` (`QualifierRules::literal_qual`) — so the dynamic semantics
/// agrees with the static choice points (e.g. `0` is not `nonzero` under
/// [`crate::rules::NonzeroRules`]).
///
/// # Errors
///
/// Same as [`eval`].
pub fn eval_with(
    expr: &Expr,
    space: &QualSpace,
    rules: &dyn crate::rules::QualifierRules,
    fuel: u64,
) -> Result<(Value, Store), EvalError> {
    let mut m = Machine {
        space,
        rules,
        store: Store::new(),
        fuel,
    };
    let v = m.eval(expr)?;
    Ok((v, m.store))
}

struct Machine<'a> {
    space: &'a QualSpace,
    rules: &'a dyn crate::rules::QualifierRules,
    store: Store,
    fuel: u64,
}

impl Machine<'_> {
    fn tick(&mut self, span: Span) -> Result<(), EvalError> {
        let _ = span;
        if self.fuel == 0 {
            return Err(EvalError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn stuck<T>(&self, span: Span, reason: impl Into<String>) -> Result<T, EvalError> {
        Err(EvalError::Stuck {
            reason: reason.into(),
            span,
        })
    }

    fn eval(&mut self, e: &Expr) -> Result<Value, EvalError> {
        self.tick(e.span)?;
        match &e.kind {
            ExprKind::Var(x) => self.stuck(e.span, format!("free variable `{x}`")),
            ExprKind::Int(n) => Ok(Value {
                qual: self.rules.literal_qual(self.space, *n),
                shape: VShape::Int(*n),
            }),
            ExprKind::Unit => Ok(Value::bottom(self.space, VShape::Unit)),
            ExprKind::Loc(a) => Ok(Value::bottom(self.space, VShape::Loc(*a))),
            ExprKind::Lam(x, body) => Ok(Value::bottom(
                self.space,
                VShape::Closure(x.clone(), (**body).clone()),
            )),
            ExprKind::Annot(l, inner) => {
                // ⟨s, R[l₁ (l₂ v)]⟩ → ⟨s, R[l₁ v]⟩ when l₂ ⊑ l₁.
                let v = self.eval(inner)?;
                if self.space.le(v.qual, *l) {
                    Ok(Value {
                        qual: *l,
                        shape: v.shape,
                    })
                } else {
                    self.stuck(
                        e.span,
                        format!(
                            "annotation failed: {} ⋢ {}",
                            self.space.render(v.qual),
                            self.space.render(*l)
                        ),
                    )
                }
            }
            ExprKind::Assert(inner, l) => {
                // ⟨s, R[(l₂ v)|l₁]⟩ → ⟨s, R[l₂ v]⟩ when l₂ ⊑ l₁.
                let v = self.eval(inner)?;
                if self.space.le(v.qual, *l) {
                    Ok(v)
                } else {
                    self.stuck(
                        e.span,
                        format!(
                            "assertion failed: {} ⋢ {}",
                            self.space.render(v.qual),
                            self.space.render(*l)
                        ),
                    )
                }
            }
            ExprKind::App(f, a) => {
                let vf = self.eval(f)?;
                let va = self.eval(a)?;
                match vf.shape {
                    VShape::Closure(x, body) => {
                        let body = subst(&body, &x, &va);
                        self.eval(&body)
                    }
                    _ => self.stuck(f.span, "application of a non-function"),
                }
            }
            ExprKind::If(g, t, f) => {
                let vg = self.eval(g)?;
                match vg.shape {
                    VShape::Int(n) if n != 0 => self.eval(t),
                    VShape::Int(_) => self.eval(f),
                    _ => self.stuck(g.span, "non-integer conditional guard"),
                }
            }
            ExprKind::Let(x, rhs, body) => {
                let v = self.eval(rhs)?;
                let body = subst(body, x, &v);
                self.eval(&body)
            }
            ExprKind::Ref(inner) => {
                let v = self.eval(inner)?;
                let a = self.store.alloc(v);
                Ok(Value::bottom(self.space, VShape::Loc(a)))
            }
            ExprKind::Deref(inner) => {
                let v = self.eval(inner)?;
                match v.shape {
                    VShape::Loc(a) => match self.store.get(a) {
                        Some(stored) => Ok(stored.clone()),
                        None => self.stuck(e.span, "dangling location"),
                    },
                    _ => self.stuck(inner.span, "dereference of a non-reference"),
                }
            }
            ExprKind::Binop(op, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                match (va.shape, vb.shape) {
                    (VShape::Int(x), VShape::Int(y)) => {
                        let n = op.apply(x, y);
                        Ok(Value {
                            qual: self.rules.literal_qual(self.space, n),
                            shape: VShape::Int(n),
                        })
                    }
                    _ => self.stuck(e.span, "arithmetic on non-integers"),
                }
            }
            ExprKind::Pair(a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                Ok(Value::bottom(
                    self.space,
                    VShape::Pair(Box::new(va), Box::new(vb)),
                ))
            }
            ExprKind::Fst(inner) => {
                let v = self.eval(inner)?;
                match v.shape {
                    VShape::Pair(a, _) => Ok(*a),
                    _ => self.stuck(inner.span, "fst of a non-pair"),
                }
            }
            ExprKind::Snd(inner) => {
                let v = self.eval(inner)?;
                match v.shape {
                    VShape::Pair(_, b) => Ok(*b),
                    _ => self.stuck(inner.span, "snd of a non-pair"),
                }
            }
            ExprKind::Assign(lhs, rhs) => {
                let vl = self.eval(lhs)?;
                let vr = self.eval(rhs)?;
                match vl.shape {
                    VShape::Loc(a) => {
                        if !self.store.set(a, vr) {
                            return self.stuck(e.span, "assignment to dangling location");
                        }
                        Ok(Value::bottom(self.space, VShape::Unit))
                    }
                    _ => self.stuck(lhs.span, "assignment to a non-reference"),
                }
            }
        }
    }
}

/// Capture-avoiding substitution `e[x ↦ v]`.
///
/// Runtime values are embedded back into expression syntax as annotated
/// value forms (closures were already closed by earlier substitutions, so
/// only variables bound *inside* them can capture — those are renamed
/// implicitly by shadowing checks below).
fn subst(e: &Expr, x: &str, v: &Value) -> Expr {
    let kind = match &e.kind {
        ExprKind::Var(y) if y == x => return value_to_expr(v, e.span),
        ExprKind::Var(y) => ExprKind::Var(y.clone()),
        ExprKind::Int(n) => ExprKind::Int(*n),
        ExprKind::Unit => ExprKind::Unit,
        ExprKind::Loc(a) => ExprKind::Loc(*a),
        ExprKind::Lam(y, body) => {
            if y == x {
                ExprKind::Lam(y.clone(), body.clone()) // shadowed
            } else {
                ExprKind::Lam(y.clone(), Box::new(subst(body, x, v)))
            }
        }
        ExprKind::App(a, b) => ExprKind::App(
            Box::new(subst(a, x, v)),
            Box::new(subst(b, x, v)),
        ),
        ExprKind::If(a, b, c) => ExprKind::If(
            Box::new(subst(a, x, v)),
            Box::new(subst(b, x, v)),
            Box::new(subst(c, x, v)),
        ),
        ExprKind::Let(y, a, b) => {
            let a2 = Box::new(subst(a, x, v));
            if y == x {
                ExprKind::Let(y.clone(), a2, b.clone()) // shadowed in body
            } else {
                ExprKind::Let(y.clone(), a2, Box::new(subst(b, x, v)))
            }
        }
        ExprKind::Ref(a) => ExprKind::Ref(Box::new(subst(a, x, v))),
        ExprKind::Deref(a) => ExprKind::Deref(Box::new(subst(a, x, v))),
        ExprKind::Assign(a, b) => ExprKind::Assign(
            Box::new(subst(a, x, v)),
            Box::new(subst(b, x, v)),
        ),
        ExprKind::Pair(a, b) => ExprKind::Pair(
            Box::new(subst(a, x, v)),
            Box::new(subst(b, x, v)),
        ),
        ExprKind::Binop(op, a, b) => ExprKind::Binop(
            *op,
            Box::new(subst(a, x, v)),
            Box::new(subst(b, x, v)),
        ),
        ExprKind::Fst(a) => ExprKind::Fst(Box::new(subst(a, x, v))),
        ExprKind::Snd(a) => ExprKind::Snd(Box::new(subst(a, x, v))),
        ExprKind::Annot(l, a) => ExprKind::Annot(*l, Box::new(subst(a, x, v))),
        ExprKind::Assert(a, l) => ExprKind::Assert(Box::new(subst(a, x, v)), *l),
    };
    Expr {
        kind,
        span: e.span,
        id: e.id,
    }
}

/// Embeds a runtime value back into expression syntax as `l v`.
fn value_to_expr(v: &Value, span: Span) -> Expr {
    let inner = match &v.shape {
        VShape::Int(n) => ExprKind::Int(*n),
        VShape::Unit => ExprKind::Unit,
        VShape::Loc(a) => ExprKind::Loc(*a),
        VShape::Closure(x, body) => ExprKind::Lam(x.clone(), Box::new(body.clone())),
        VShape::Pair(a, b) => ExprKind::Pair(
            Box::new(value_to_expr(a, span)),
            Box::new(value_to_expr(b, span)),
        ),
    };
    Expr {
        kind: ExprKind::Annot(
            v.qual,
            Box::new(Expr {
                kind: inner,
                span,
                id: crate::ast::NodeId(u32::MAX),
            }),
        ),
        span,
        id: crate::ast::NodeId(u32::MAX),
    }
}

/// Counts assertion/annotation checks that would be needed dynamically —
/// a small utility used by examples to contrast static checking with
/// dynamic checking (Purify/assert-style, §1).
#[must_use]
pub fn dynamic_check_count(e: &Expr) -> usize {
    match &e.kind {
        ExprKind::Annot(_, a) | ExprKind::Assert(a, _) => 1 + dynamic_check_count(a),
        ExprKind::Lam(_, a) | ExprKind::Ref(a) | ExprKind::Deref(a) => dynamic_check_count(a),
        ExprKind::App(a, b)
        | ExprKind::Assign(a, b)
        | ExprKind::Let(_, a, b)
        | ExprKind::Pair(a, b)
        | ExprKind::Binop(_, a, b) => dynamic_check_count(a) + dynamic_check_count(b),
        ExprKind::Fst(a) | ExprKind::Snd(a) => dynamic_check_count(a),
        ExprKind::If(a, b, c) => {
            dynamic_check_count(a) + dynamic_check_count(b) + dynamic_check_count(c)
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn space() -> QualSpace {
        QualSpace::figure2()
    }

    fn run(src: &str) -> Result<Value, EvalError> {
        let e = parse(src, &space()).unwrap();
        eval(&e, &space(), 100_000).map(|(v, _)| v)
    }

    fn run_nonzero(src: &str) -> Result<Value, EvalError> {
        let e = parse(src, &space()).unwrap();
        eval_with(&e, &space(), &crate::rules::NonzeroRules, 100_000).map(|(v, _)| v)
    }

    #[test]
    fn literals_and_arithmetic_free_flow() {
        assert_eq!(run("42").unwrap().shape, VShape::Int(42));
        assert_eq!(run("()").unwrap().shape, VShape::Unit);
        assert_eq!(run("(\\x. x) 7").unwrap().shape, VShape::Int(7));
    }

    #[test]
    fn references_round_trip() {
        assert_eq!(run("!(ref 3)").unwrap().shape, VShape::Int(3));
        assert_eq!(
            run("let r = ref 1 in let u = r := 9 in !r ni ni")
                .unwrap()
                .shape,
            VShape::Int(9)
        );
    }

    #[test]
    fn conditionals_use_c_truthiness() {
        assert_eq!(run("if 5 then 1 else 2 fi").unwrap().shape, VShape::Int(1));
        assert_eq!(run("if 0 then 1 else 2 fi").unwrap().shape, VShape::Int(2));
    }

    #[test]
    fn annotation_raises_qualifier() {
        let v = run("{nonzero} 37").unwrap();
        let s = space();
        assert!(v.qual.has(&s, s.id("nonzero").unwrap()));
    }

    #[test]
    fn assertion_passes_when_below() {
        let v = run("({nonzero} 37)|{nonzero}").unwrap();
        assert_eq!(v.shape, VShape::Int(37));
    }

    #[test]
    fn assertion_fails_when_above() {
        // Under NonzeroRules, 0's intrinsic qualifier has `nonzero`
        // *absent*, so asserting `⊑ {nonzero}` (whose nonzero coordinate
        // is at ⊥, i.e. present) gets stuck.
        let err = run_nonzero("0|{nonzero}").unwrap_err();
        assert!(matches!(err, EvalError::Stuck { .. }), "{err}");
        // Whereas a non-zero literal is nonzero by default (⊥ carries the
        // negative qualifier).
        assert!(run_nonzero("37|{nonzero}").is_ok());
    }

    #[test]
    fn paper_unsound_example_gets_stuck_dynamically() {
        // The §2.4 example: after y := 0 the assertion on !x fails.
        let err = run_nonzero(
            "let x = ref {nonzero} 37 in \
             let y = x in \
             let u = y := 0 in \
             (!x)|{nonzero} ni ni ni",
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::Stuck { .. }), "{err}");
    }

    #[test]
    fn divergence_exhausts_fuel() {
        // ω ω via self-application is ill-typed, but the interpreter is
        // untyped; build divergence with a ref-stored function instead.
        let src = "let f = ref (\\x. x) in \
                   let u = f := (\\x. (!f) x) in \
                   (!f) 1 ni ni";
        let e = parse(src, &space()).unwrap();
        // Keep the budget modest: the evaluator recurses per step, so
        // deeply diverging programs need stack proportional to fuel.
        let err = eval(&e, &space(), 1_000).unwrap_err();
        assert_eq!(err, EvalError::FuelExhausted);
    }

    #[test]
    fn shadowing_is_respected() {
        assert_eq!(
            run("let x = 1 in let x = 2 in x ni ni").unwrap().shape,
            VShape::Int(2)
        );
        assert_eq!(
            run("(\\x. (\\x. x) 9) 1").unwrap().shape,
            VShape::Int(9)
        );
    }

    #[test]
    fn annotation_moves_monotonically_up() {
        let s = space();
        // Raising to {const nonzero} from {nonzero} keeps both.
        let v = run("{const nonzero} {nonzero} 5").unwrap();
        assert!(v.qual.has(&s, s.id("const").unwrap()));
        assert!(v.qual.has(&s, s.id("nonzero").unwrap()));
        // Rule (Annot) sets the top-level qualifier to exactly l — here
        // `{const}` (nonzero absent) is *above* `{nonzero}`, because
        // removing a negative qualifier moves up the lattice.
        let v = run("{const} {nonzero} 5").unwrap();
        assert!(v.qual.has(&s, s.id("const").unwrap()));
        assert!(!v.qual.has(&s, s.id("nonzero").unwrap()));
        // Moving *down* (dropping const) gets stuck instead.
        let err = run("{nonzero} {const nonzero} 5").unwrap_err();
        assert!(matches!(err, EvalError::Stuck { .. }));
    }

    #[test]
    fn stuck_on_type_errors() {
        assert!(matches!(run("1 2"), Err(EvalError::Stuck { .. })));
        assert!(matches!(run("!5"), Err(EvalError::Stuck { .. })));
        assert!(matches!(run("5 := 1"), Err(EvalError::Stuck { .. })));
        assert!(matches!(
            run("if () then 1 else 2 fi"),
            Err(EvalError::Stuck { .. })
        ));
        assert!(matches!(run("y"), Err(EvalError::Stuck { .. })));
    }

    #[test]
    fn aliased_refs_share_the_cell() {
        // Two names for one ref observe each other's writes.
        assert_eq!(
            run("let x = ref 1 in \
                 let y = x in \
                 let u = y := 42 in !x ni ni ni")
            .unwrap()
            .shape,
            VShape::Int(42)
        );
    }

    #[test]
    fn closures_capture_refs_by_reference() {
        assert_eq!(
            run("let r = ref 0 in \
                 let bump = \\u. r := 7 in \
                 let v = bump () in !r ni ni ni")
            .unwrap()
            .shape,
            VShape::Int(7)
        );
    }

    #[test]
    fn store_grows_per_allocation() {
        let e = parse("let a = ref 1 in let b = ref 2 in !a ni ni", &space()).unwrap();
        let (_, store) = eval(&e, &space(), 1_000).unwrap();
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
        assert!(store.get(0).is_some());
        assert!(store.get(9).is_none());
    }

    #[test]
    fn values_render() {
        let s = space();
        let v = run("{nonzero} 3").unwrap();
        assert_eq!(v.render(&s), "(nonzero 3)");
    }

    #[test]
    fn dynamic_check_count_counts_syntax() {
        let e = parse("({nonzero} 1)|{nonzero}", &space()).unwrap();
        assert_eq!(dynamic_check_count(&e), 2);
    }
}
