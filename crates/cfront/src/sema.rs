//! Semantic analysis: scopes, symbol resolution, and the C type of every
//! expression.
//!
//! The analysis is deliberately permissive in the places the paper calls
//! out (§4.2): unknown functions are implicitly declared (`int f(...)`,
//! a conservative "library" signature), calls may pass extra arguments
//! ("we simply ignore extra arguments"), and casts always succeed. It is
//! strict about the things qualifier inference needs: every identifier
//! must resolve and member accesses must name real struct fields.

use std::sync::Arc;

use crate::ast::{
    BinOp, Block, Expr, ExprKind, FnDef, Item, Program, Stmt, UnOp,
};
use crate::error::CError;
use crate::fxhash::FxHashMap;
use crate::scope::Scopes;
use crate::types::{CTy, CTyKind, FnTy, Scalar};

/// What an identifier refers to. The name is the identifier's own
/// ([`ExprKind::Ident`]), so no variant repeats it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// A local variable or parameter of the enclosing function.
    Local,
    /// A global variable.
    Global,
    /// A defined or declared function.
    Function,
    /// An enum constant with its value.
    EnumConst(i64),
}

/// The result of semantic analysis.
///
/// The three per-expression tables are dense vectors indexed by
/// [`Expr::id`], one slot for each of the [`Program::expr_ids`] ids the
/// parser handed out. A slot sema never filled (an expression in a body
/// that failed analysis, or an id with no node in the program) is
/// `None` / `false`.
#[derive(Debug, Default)]
pub struct Sema {
    /// The C type of every expression node (r-value types are *not*
    /// array-decayed here; consumers call [`CTy::decayed`] as needed).
    pub expr_ty: Vec<Option<CTy>>,
    /// Whether each expression is an l-value.
    pub lvalue: Vec<bool>,
    /// What each identifier expression resolved to.
    pub resolution: Vec<Option<Resolution>>,
    /// Struct tag → fields.
    pub structs: FxHashMap<String, Vec<(String, CTy)>>,
    /// Every function signature in the program (defined and declared),
    /// shared with the function types of the identifiers that name it.
    pub signatures: FxHashMap<String, Arc<FnTy>>,
    /// Each *defined* function's name → the index in [`Program::items`]
    /// of its definition (the rest are library functions; the analysis
    /// treats their unannotated pointer parameters as conservatively
    /// non-const, §4.2). A name defined twice is a failure of that name.
    pub defined: FxHashMap<String, usize>,
    /// Global variable types.
    pub globals: FxHashMap<String, CTy>,
    /// The indices in [`Program::items`] of the global variables, in
    /// item order.
    pub global_items: Vec<usize>,
    /// Functions that were called but never declared (implicitly
    /// `int f(...)`).
    pub implicit_functions: Vec<String>,
}

impl Sema {
    /// The type of expression `e`.
    ///
    /// # Panics
    ///
    /// Panics if sema never typed `e`.
    #[must_use]
    pub fn ty(&self, e: &Expr) -> &CTy {
        self.ty_of(e.id).expect("expression typed by sema")
    }

    /// The type of the expression with id `id`, or `None` if sema never
    /// typed it.
    #[must_use]
    pub fn ty_of(&self, id: u32) -> Option<&CTy> {
        self.expr_ty.get(id as usize)?.as_ref()
    }

    /// What the identifier expression with id `id` resolved to, or
    /// `None` if sema never resolved it.
    #[must_use]
    pub fn resolution_of(&self, id: u32) -> Option<&Resolution> {
        self.resolution.get(id as usize)?.as_ref()
    }

    /// Whether `e` is an l-value.
    #[must_use]
    pub fn is_lvalue(&self, e: &Expr) -> bool {
        self.lvalue.get(e.id as usize).copied().unwrap_or(false)
    }

    /// Makes sure the per-expression tables have a slot for id `i`. They
    /// are sized from [`Program::expr_ids`] up front, so this grows them
    /// only for a program whose count is short (one built by hand).
    fn reserve_id(&mut self, i: usize) {
        if i >= self.expr_ty.len() {
            self.expr_ty.resize(i + 1, None);
            self.lvalue.resize(i + 1, false);
            self.resolution.resize(i + 1, None);
        }
    }

    /// Whether `name` is a defined (analyzable) function.
    #[must_use]
    pub fn is_defined(&self, name: &str) -> bool {
        self.defined.contains_key(name)
    }

    /// The definition of the defined function `name` in `prog`, the
    /// program this analysis ran over. `None` for library functions,
    /// functions that failed analysis, and definitions since demoted
    /// with [`Program::demote_to_proto`].
    #[must_use]
    pub fn function<'p>(&self, prog: &'p Program, name: &str) -> Option<&'p FnDef> {
        match prog.items.get(*self.defined.get(name)?) {
            Some(Item::Func(f)) if f.name == name => Some(f),
            _ => None,
        }
    }

    /// The global variable items of `prog`, the program this analysis
    /// ran over, in item order.
    pub fn global_decls<'a>(&'a self, prog: &'a Program) -> impl Iterator<Item = &'a Item> {
        self.global_items.iter().filter_map(|&i| prog.items.get(i))
    }
}

/// Pass 1: collect type-level and signature-level information, and the
/// enum constants by name. This pass is total — a malformed body cannot
/// fail it.
fn collect_decls(prog: &Program) -> (Sema, FxHashMap<&str, i64>) {
    let n = prog.expr_ids as usize;
    let mut sema = Sema {
        expr_ty: vec![None; n],
        lvalue: vec![false; n],
        resolution: vec![None; n],
        ..Sema::default()
    };
    let mut enum_consts = FxHashMap::default();
    for (i, item) in prog.items.iter().enumerate() {
        match item {
            Item::StructDef { name, fields, .. } => {
                sema.structs.insert(name.clone(), fields.clone());
            }
            Item::EnumDef { consts, .. } => {
                for (n, v) in consts {
                    enum_consts.insert(n.as_str(), *v);
                }
            }
            Item::Global { name, ty, .. } => {
                sema.globals.insert(name.clone(), ty.clone());
                sema.global_items.push(i);
            }
            Item::Func(f) => {
                sema.signatures.insert(f.name.clone(), Arc::new(f.sig()));
                sema.defined.entry(f.name.clone()).or_insert(i);
            }
            Item::Proto { name, sig, .. } => {
                sema.signatures
                    .entry(name.clone())
                    .or_insert_with(|| Arc::new(sig.clone()));
            }
            Item::Typedef { .. } => {}
        }
    }
    (sema, enum_consts)
}

/// Analyzes a parsed program.
///
/// # Errors
///
/// Returns [`CError`] for unresolved identifiers, unknown struct fields,
/// uses of non-struct values as structs, or a function defined twice.
pub fn analyze(prog: &Program) -> Result<Sema, CError> {
    let _span = qual_obs::span("sema");
    let (mut sema, enum_consts) = collect_decls(prog);

    // Pass 2: type every function body and global initializer.
    let mut cx = Cx::new(&mut sema, &enum_consts);
    for (i, item) in prog.items.iter().enumerate() {
        match item {
            Item::Func(f) => cx.check_def(i, f)?,
            Item::Global { init: Some(e), .. } => {
                cx.scopes.reset();
                cx.expr(e)?;
            }
            _ => {}
        }
    }
    Ok(sema)
}

/// Semantic analysis with per-function fault isolation.
#[derive(Debug, Default)]
pub struct RecoveredSema {
    /// The analysis of everything that checked.
    pub sema: Sema,
    /// Functions whose bodies failed analysis, or that are defined more
    /// than once, with the error. They are removed from
    /// [`Sema::defined`] (their signatures remain, so calls to them
    /// resolve and are treated like library calls).
    pub failed_functions: Vec<(String, CError)>,
    /// Globals whose initializers failed analysis, with the error.
    pub failed_globals: Vec<(String, CError)>,
}

/// Like [`analyze`], but a function body (or global initializer) that
/// fails is reported and excluded instead of aborting the whole unit.
///
/// Callers that feed the result to qualifier inference must also prune
/// the program ([`Program::demote_to_proto`] /
/// [`Program::drop_global_init`]): a failed body has incomplete
/// expression typings, so the engine must not walk it.
#[must_use]
pub fn analyze_with_recovery(prog: &Program) -> RecoveredSema {
    let _span = qual_obs::span("sema");
    let (mut sema, enum_consts) = collect_decls(prog);
    let mut failed_functions = Vec::new();
    let mut failed_globals = Vec::new();

    let mut cx = Cx::new(&mut sema, &enum_consts);
    for (i, item) in prog.items.iter().enumerate() {
        match item {
            Item::Func(f) => {
                if let Err(e) = cx.check_def(i, f) {
                    failed_functions.push((f.name.clone(), e));
                }
            }
            Item::Global {
                name,
                init: Some(e),
                ..
            } => {
                cx.scopes.reset();
                if let Err(e) = cx.expr(e) {
                    failed_globals.push((name.clone(), e));
                }
            }
            _ => {}
        }
    }
    // A failed function is no longer "defined": inference skips its
    // body and poisons its signature like any other library function.
    for (name, _) in &failed_functions {
        sema.defined.remove(name);
    }
    RecoveredSema {
        sema,
        failed_functions,
        failed_globals,
    }
}

/// The pass-2 walker over a program borrowed for `'p`.
struct Cx<'a, 'p> {
    sema: &'a mut Sema,
    enum_consts: &'a FxHashMap<&'p str, i64>,
    /// The types of the locals in scope.
    scopes: Scopes<'p, CTy>,
    /// The type of every string literal, made once.
    str_ty: CTy,
}

impl<'a, 'p> Cx<'a, 'p> {
    fn new(sema: &'a mut Sema, enum_consts: &'a FxHashMap<&'p str, i64>) -> Self {
        Cx {
            sema,
            enum_consts,
            scopes: Scopes::default(),
            str_ty: CTy::char_().ptr_to(),
        }
    }

    /// Checks the definition `f` at item `i`. A second definition of a
    /// name fails: which body a call means would be ambiguous.
    fn check_def(&mut self, i: usize, f: &'p FnDef) -> Result<(), CError> {
        if self.sema.defined.get(&f.name) != Some(&i) {
            return Err(CError::at(
                f.span,
                format!("redefinition of function `{}`", f.name),
            ));
        }
        self.check_fn(f)
    }

    fn check_fn(&mut self, f: &'p FnDef) -> Result<(), CError> {
        self.scopes.reset();
        self.scopes.open();
        for (name, ty) in &f.params {
            self.scopes.declare(name, ty.decayed());
        }
        self.block(&f.body)
    }

    fn block(&mut self, b: &'p Block) -> Result<(), CError> {
        self.scopes.open();
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.scopes.close();
        Ok(())
    }

    fn stmt(&mut self, s: &'p Stmt) -> Result<(), CError> {
        match s {
            Stmt::Decl { name, ty, init, .. } => {
                if let Some(e) = init {
                    self.expr(e)?;
                }
                self.scopes.declare(name, ty.clone());
                Ok(())
            }
            Stmt::Expr(e) => self.expr(e).map(|_| ()),
            Stmt::If { cond, then, els } => {
                self.expr(cond)?;
                self.block(then)?;
                if let Some(b) = els {
                    self.block(b)?;
                }
                Ok(())
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                self.expr(cond)?;
                self.block(body)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.open();
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
                self.scopes.close();
                Ok(())
            }
            Stmt::Switch { cond, arms } => {
                self.expr(cond)?;
                for arm in arms {
                    self.block(&arm.body)?;
                }
                Ok(())
            }
            Stmt::Label(_, inner) => self.stmt(inner),
            Stmt::Goto(..) => Ok(()),
            Stmt::Return(e, _) => {
                if let Some(e) = e {
                    self.expr(e)?;
                }
                Ok(())
            }
            Stmt::Break(_) | Stmt::Continue(_) => Ok(()),
            Stmt::Block(b) => self.block(b),
        }
    }

    fn record(&mut self, e: &Expr, ty: CTy, lvalue: bool) {
        let i = e.id as usize;
        self.sema.reserve_id(i);
        self.sema.expr_ty[i] = Some(ty);
        self.sema.lvalue[i] = lvalue;
    }

    fn resolve(&mut self, e: &Expr, r: Resolution) {
        let i = e.id as usize;
        self.sema.reserve_id(i);
        self.sema.resolution[i] = Some(r);
    }

    fn field_of(&self, ty: &CTy, field: &str, e: &Expr) -> Result<CTy, CError> {
        let CTyKind::Struct(tag) = &ty.kind else {
            return Err(CError::at(
                e.span,
                format!("member access on non-struct type `{ty}`"),
            ));
        };
        let fields = self.sema.structs.get(&**tag).ok_or_else(|| {
            CError::at(e.span, format!("unknown struct `{tag}`"))
        })?;
        fields
            .iter()
            .find(|(n, _)| n == field)
            .map(|(_, t)| t.clone())
            .ok_or_else(|| {
                CError::at(
                    e.span,
                    format!("struct `{tag}` has no field `{field}`"),
                )
            })
    }

    fn expr(&mut self, e: &Expr) -> Result<CTy, CError> {
        let (ty, lv) = match &e.kind {
            ExprKind::IntLit(_) | ExprKind::CharLit(_) | ExprKind::Sizeof => {
                (CTy::int(), false)
            }
            ExprKind::StrLit(_) => {
                // C90 string literals have type char[] (writable), which
                // keeps correct-but-crusty programs type-correct; the
                // qualifier analysis decides constness separately.
                (self.str_ty.clone(), false)
            }
            ExprKind::Ident(name) => {
                if let Some(ty) = self.scopes.get(name) {
                    let ty = ty.clone();
                    self.resolve(e, Resolution::Local);
                    (ty, true)
                } else if let Some(ty) = self.sema.globals.get(name) {
                    let ty = ty.clone();
                    self.resolve(e, Resolution::Global);
                    (ty, true)
                } else if let Some(&v) = self.enum_consts.get(name.as_str()) {
                    self.resolve(e, Resolution::EnumConst(v));
                    (CTy::int(), false)
                } else if let Some(sig) = self.sema.signatures.get(name) {
                    let ty = CTy {
                        is_const: false,
                        kind: CTyKind::Func(Arc::clone(sig)),
                    };
                    self.resolve(e, Resolution::Function);
                    (ty, false)
                } else {
                    return Err(CError::at(
                        e.span,
                        format!("unresolved identifier `{name}`"),
                    ));
                }
            }
            ExprKind::Unary(op, inner) => {
                let it = self.expr(inner)?;
                match op {
                    UnOp::Deref => {
                        let d = it.decayed();
                        let pointee = d.pointee().cloned().ok_or_else(|| {
                            CError::at(e.span, format!("dereference of non-pointer `{it}`"))
                        })?;
                        (pointee, true)
                    }
                    UnOp::Addr => (it.decayed_addr(), false),
                    UnOp::Neg | UnOp::Not | UnOp::BitNot => (CTy::int(), false),
                    UnOp::PreInc | UnOp::PreDec => (it.decayed(), false),
                }
            }
            ExprKind::PostIncDec(inner, _) => {
                let it = self.expr(inner)?;
                (it.decayed(), false)
            }
            ExprKind::Binary(op, a, b) => {
                let ta = self.expr(a)?.decayed();
                let tb = self.expr(b)?.decayed();
                let ty = match op {
                    BinOp::Add | BinOp::Sub => {
                        // Pointer arithmetic keeps the pointer type.
                        if ta.is_pointerish() {
                            ta
                        } else if tb.is_pointerish() {
                            tb
                        } else {
                            arith(&ta, &tb)
                        }
                    }
                    BinOp::Mul | BinOp::Div | BinOp::Rem => arith(&ta, &tb),
                    _ => CTy::int(),
                };
                (ty, false)
            }
            ExprKind::Assign(op, lhs, rhs) => {
                let tl = self.expr(lhs)?;
                self.expr(rhs)?;
                let _ = op;
                (tl, false)
            }
            ExprKind::Call(callee, args) => {
                for a in args {
                    self.expr(a)?;
                }
                let ret = match &callee.kind {
                    ExprKind::Ident(name) if self.scopes.get(name).is_none()
                        && !self.sema.globals.contains_key(name) =>
                    {
                        // Function call by name; implicit declaration if
                        // unknown (§4.2's conservative library treatment).
                        let sig = match self.sema.signatures.get(name) {
                            Some(s) => Arc::clone(s),
                            None => {
                                let sig = Arc::new(FnTy {
                                    ret: CTy::int(),
                                    params: Vec::new(),
                                    varargs: true,
                                });
                                self.sema
                                    .signatures
                                    .insert(name.clone(), Arc::clone(&sig));
                                self.sema.implicit_functions.push(name.clone());
                                sig
                            }
                        };
                        self.resolve(callee, Resolution::Function);
                        let ret = sig.ret.clone();
                        self.record(
                            callee,
                            CTy {
                                is_const: false,
                                kind: CTyKind::Func(sig),
                            },
                            false,
                        );
                        ret
                    }
                    _ => {
                        // Calling through an expression (function pointer).
                        let tc = self.expr(callee)?.decayed();
                        match &tc.kind {
                            CTyKind::Func(sig) => sig.ret.clone(),
                            CTyKind::Ptr(inner) => match &inner.kind {
                                CTyKind::Func(sig) => sig.ret.clone(),
                                _ => CTy::int(),
                            },
                            _ => CTy::int(),
                        }
                    }
                };
                (ret, false)
            }
            ExprKind::Index(base, idx) => {
                let tb = self.expr(base)?.decayed();
                self.expr(idx)?;
                let elem = tb.pointee().cloned().ok_or_else(|| {
                    CError::at(e.span, format!("indexing non-pointer `{tb}`"))
                })?;
                (elem, true)
            }
            ExprKind::Member(base, field) => {
                let tb = self.expr(base)?;
                let lv = self.sema.is_lvalue(base);
                (self.field_of(&tb, field, e)?, lv)
            }
            ExprKind::PMember(base, field) => {
                let tb = self.expr(base)?.decayed();
                let pointee = tb.pointee().cloned().ok_or_else(|| {
                    CError::at(e.span, format!("`->` on non-pointer `{tb}`"))
                })?;
                (self.field_of(&pointee, field, e)?, true)
            }
            ExprKind::Cast(ty, inner) => {
                self.expr(inner)?;
                (ty.clone(), false)
            }
            ExprKind::Cond(c, t, f) => {
                self.expr(c)?;
                let tt = self.expr(t)?;
                self.expr(f)?;
                (tt.decayed(), false)
            }
            ExprKind::Comma(a, b) => {
                self.expr(a)?;
                let tb = self.expr(b)?;
                (tb, false)
            }
        };
        self.record(e, ty.clone(), lv);
        Ok(ty)
    }
}

fn arith(a: &CTy, b: &CTy) -> CTy {
    // Usual arithmetic conversions, coarsened.
    for s in [Scalar::Double, Scalar::Float, Scalar::Long] {
        if a.kind == CTyKind::Scalar(s) || b.kind == CTyKind::Scalar(s) {
            return CTy::scalar(s);
        }
    }
    CTy::int()
}

impl CTy {
    /// `&e`: address of a possibly-array value (arrays of T give ptr(T)
    /// here rather than ptr(array), which is all the analysis needs).
    #[must_use]
    fn decayed_addr(&self) -> CTy {
        self.clone().ptr_to()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyzed(src: &str) -> (Program, Sema) {
        let p = parse(src).expect("parses");
        let s = analyze(&p).expect("analyzes");
        (p, s)
    }

    /// Finds the type of the first expression of the given rendered form.
    fn all_types(sema: &Sema) -> Vec<String> {
        let mut v: Vec<String> = sema.expr_ty.iter().flatten().map(ToString::to_string).collect();
        v.sort();
        v
    }

    #[test]
    fn types_parameters_and_locals() {
        let (_, s) = analyzed(
            "int f(int *p) {
               int x = *p;
               return x;
             }",
        );
        assert!(all_types(&s).contains(&"ptr(int)".to_owned()));
        assert!(all_types(&s).contains(&"int".to_owned()));
    }

    #[test]
    fn string_literals_are_char_ptr() {
        let (_, s) = analyzed("char *f(void) { return (char *)\"hi\"; }");
        assert!(all_types(&s).contains(&"ptr(char)".to_owned()));
    }

    #[test]
    fn member_access_types() {
        let (_, s) = analyzed(
            "struct st { int x; char *name; };
             char *f(struct st *p, struct st v) { v.x = 1; return p->name; }",
        );
        assert!(all_types(&s).contains(&"ptr(char)".to_owned()));
    }

    #[test]
    fn implicit_function_declaration() {
        let (_, s) = analyzed("int f(void) { return mystery(1, 2); }");
        assert_eq!(s.implicit_functions, vec!["mystery".to_owned()]);
        assert!(s.signatures.contains_key("mystery"));
        assert!(!s.is_defined("mystery"));
        assert!(s.is_defined("f"));
    }

    #[test]
    fn array_indexing_and_decay() {
        let (_, s) = analyzed(
            "int sum(int *xs, int n) {
               int t = 0;
               for (int i = 0; i < n; i++) t += xs[i];
               return t;
             }",
        );
        assert!(all_types(&s).contains(&"int".to_owned()));
    }

    #[test]
    fn pointer_arithmetic_keeps_pointer() {
        let (p, s) = analyzed("char *next(char *s) { return s + 1; }");
        let f = p.function("next").unwrap();
        let stmt = &f.body.stmts[0];
        assert!(
            matches!(stmt, Stmt::Return(Some(_), _)),
            "expected a return statement"
        );
        if let Stmt::Return(Some(e), _) = stmt {
            assert_eq!(s.ty(e).to_string(), "ptr(char)");
        }
    }

    #[test]
    fn errors_on_unresolved() {
        let p = parse("int f(void) { return nope; }").unwrap();
        assert!(analyze(&p).is_err());
        let p = parse("struct s { int x; }; int f(struct s v) { return v.y; }").unwrap();
        assert!(analyze(&p).is_err());
        let p = parse("int f(int x) { return *x; }").unwrap();
        assert!(analyze(&p).is_err());
    }

    #[test]
    fn enum_constants_resolve() {
        let (_, s) = analyzed("enum e { A, B }; int f(void) { return A + B; }");
        assert!(s
            .resolution
            .iter()
            .flatten()
            .any(|r| matches!(r, Resolution::EnumConst(0))));
    }

    #[test]
    fn lvalueness() {
        let (p, s) = analyzed("int f(int *p) { return *p + 1; }");
        let f = p.function("f").unwrap();
        if let Stmt::Return(Some(e), _) = &f.body.stmts[0] {
            // `*p + 1` is not an lvalue but `*p` inside is.
            assert!(!s.is_lvalue(e));
            if let ExprKind::Binary(_, a, _) = &e.kind {
                assert!(s.is_lvalue(a));
            }
        }
    }

    #[test]
    fn recovery_isolates_failing_functions() {
        let mut p = parse(
            "int ok1(int x) { return x; }
             int bad(void) { return nope; }
             int ok2(int *p) { return *p; }
             int g = also_nope;",
        )
        .unwrap();
        let r = analyze_with_recovery(&p);
        assert_eq!(r.failed_functions.len(), 1);
        assert_eq!(r.failed_functions[0].0, "bad");
        assert_eq!(r.failed_globals.len(), 1);
        assert_eq!(r.failed_globals[0].0, "g");
        assert!(r.sema.is_defined("ok1"));
        assert!(r.sema.is_defined("ok2"));
        // `bad` keeps a signature (calls resolve) but is not defined.
        assert!(!r.sema.is_defined("bad"));
        assert!(r.sema.signatures.contains_key("bad"));

        // Pruning removes the unanalyzable bodies from the program.
        for (name, _) in &r.failed_functions {
            p.demote_to_proto(name);
        }
        assert!(p.function("bad").is_none());
        assert!(p
            .items
            .iter()
            .any(|i| matches!(i, Item::Proto { name, .. } if name == "bad")));
        p.drop_global_init("g");
        assert!(p.items.iter().any(
            |i| matches!(i, Item::Global { name, init: None, .. } if name == "g")
        ));
    }

    #[test]
    fn function_index_agrees_with_the_program_scan() {
        let mut p = parse(
            "int lib(char *s);
             int g1;
             int ok(int x) { return x; }
             int bad(void) { return nope; }
             int g2 = 2;
             int later(int *p) { return *p; }
             int dup(int x) { return x; }
             int dup(int y) { return y; }",
        )
        .unwrap();
        let r = analyze_with_recovery(&p);
        let failed: Vec<&str> = r.failed_functions.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(failed, ["bad", "dup"]);
        assert!(r.failed_functions[1].1.message.contains("redefinition"));
        for (name, _) in &r.failed_functions {
            p.demote_to_proto(name);
        }
        let agree = |p: &Program| {
            for name in ["lib", "ok", "bad", "later", "dup", "g1", "absent"] {
                assert_eq!(
                    r.sema.function(p, name).map(std::ptr::from_ref),
                    p.function(name).map(std::ptr::from_ref),
                    "{name}"
                );
            }
        };
        agree(&p);
        assert!(r.sema.function(&p, "ok").is_some());
        // A definition demoted after analysis (an inference fault) is
        // gone from the index too.
        p.demote_to_proto("later");
        agree(&p);
        assert!(r.sema.function(&p, "later").is_none());

        let globals: Vec<&str> = r
            .sema
            .global_decls(&p)
            .map(|i| match i {
                Item::Global { name, .. } => name.as_str(),
                _ => panic!("not a global: {i:?}"),
            })
            .collect();
        assert_eq!(globals, ["g1", "g2"]);

        let strict =
            analyze(&parse("int f(void) { return 0; } int f(void) { return 1; }").unwrap());
        assert!(strict.is_err_and(|e| e.message == "redefinition of function `f`"));
    }

    #[test]
    fn recovery_is_identity_on_clean_programs() {
        let src = "struct st { int x; };
                   int f(struct st *p) { return p->x; }";
        let p = parse(src).unwrap();
        let strict = analyze(&p).unwrap();
        let r = analyze_with_recovery(&p);
        assert!(r.failed_functions.is_empty());
        assert!(r.failed_globals.is_empty());
        assert_eq!(r.sema.defined, strict.defined);
        assert_eq!(r.sema.expr_ty, strict.expr_ty);
        assert_eq!(r.sema.lvalue, strict.lvalue);
        assert_eq!(r.sema.resolution, strict.resolution);
    }

    /// The ids of `e` and every expression under it.
    fn expr_ids(e: &Expr, out: &mut Vec<u32>) {
        out.push(e.id);
        match &e.kind {
            ExprKind::IntLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Ident(_)
            | ExprKind::Sizeof => {}
            ExprKind::Unary(_, a)
            | ExprKind::PostIncDec(a, _)
            | ExprKind::Member(a, _)
            | ExprKind::PMember(a, _)
            | ExprKind::Cast(_, a) => expr_ids(a, out),
            ExprKind::Binary(_, a, b)
            | ExprKind::Assign(_, a, b)
            | ExprKind::Index(a, b)
            | ExprKind::Comma(a, b) => {
                expr_ids(a, out);
                expr_ids(b, out);
            }
            ExprKind::Call(f, args) => {
                expr_ids(f, out);
                args.iter().for_each(|a| expr_ids(a, out));
            }
            ExprKind::Cond(c, t, f) => {
                expr_ids(c, out);
                expr_ids(t, out);
                expr_ids(f, out);
            }
        }
    }

    /// The ids of every expression in `b`.
    fn block_ids(b: &Block, out: &mut Vec<u32>) {
        for s in &b.stmts {
            stmt_ids(s, out);
        }
    }

    fn stmt_ids(s: &Stmt, out: &mut Vec<u32>) {
        match s {
            Stmt::Decl { init, .. } => init.iter().for_each(|e| expr_ids(e, out)),
            Stmt::Expr(e) | Stmt::Return(Some(e), _) => expr_ids(e, out),
            Stmt::If { cond, then, els } => {
                expr_ids(cond, out);
                block_ids(then, out);
                els.iter().for_each(|b| block_ids(b, out));
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                expr_ids(cond, out);
                block_ids(body, out);
            }
            Stmt::For { init, cond, step, body } => {
                init.iter().for_each(|s| stmt_ids(s, out));
                cond.iter().chain(step).for_each(|e| expr_ids(e, out));
                block_ids(body, out);
            }
            Stmt::Switch { cond, arms } => {
                expr_ids(cond, out);
                arms.iter().for_each(|a| block_ids(&a.body, out));
            }
            Stmt::Label(_, inner) => stmt_ids(inner, out),
            Stmt::Block(b) => block_ids(b, out),
            Stmt::Return(None, _) | Stmt::Goto(..) | Stmt::Break(_) | Stmt::Continue(_) => {}
        }
    }

    fn body_ids(p: &Program, name: &str) -> Vec<u32> {
        let mut ids = Vec::new();
        block_ids(&p.function(name).expect("defined").body, &mut ids);
        ids
    }

    #[test]
    fn every_id_has_a_slot_and_a_failed_body_stays_untyped() {
        let p = parse(
            "struct st { int x; char *name; };
             enum e { A, B };
             int g = 3;
             int ok(struct st *p, int c, char *s) {
               int n = sizeof(int) + A;
               for (n = 0; n < c; n++) { s[n] = c ? 'a' : 'b'; }
               switch (c) { case 1: n = p->x; break; default: n = ok(p, c - 1, s); }
               return n, g;
             }
             int bad(int c, char *p) { return nope ? (c ? p : p) : p[0]; }",
        )
        .unwrap();
        let r = analyze_with_recovery(&p);
        assert_eq!(r.failed_functions.len(), 1);
        let n = p.expr_ids as usize;
        assert!(n > 0);
        assert_eq!(r.sema.expr_ty.len(), n);
        assert_eq!(r.sema.lvalue.len(), n);
        assert_eq!(r.sema.resolution.len(), n);

        let ok_ids = body_ids(&p, "ok");
        let bad_ids = body_ids(&p, "bad");
        // Every id the parser handed out is in one body or the global
        // initializer, and sema typed exactly the healthy ones.
        assert_eq!(ok_ids.len() + bad_ids.len() + 1, n);
        for id in ok_ids {
            assert!(r.sema.ty_of(id).is_some(), "id {id} of `ok` untyped");
        }
        for id in bad_ids {
            assert!(r.sema.ty_of(id).is_none(), "id {id} of `bad` typed");
            assert!(r.sema.resolution_of(id).is_none(), "id {id} of `bad` resolved");
            assert!(!r.sema.lvalue[id as usize]);
        }
        // Out of range is untyped, not a panic.
        assert!(r.sema.ty_of(u32::MAX).is_none());
        assert!(r.sema.resolution_of(u32::MAX).is_none());
    }

    #[test]
    fn a_program_without_an_id_count_still_analyzes() {
        let mut p = parse("int f(int *p) { return *p + 1; }").unwrap();
        let n = p.expr_ids;
        p.expr_ids = 0;
        let s = analyze(&p).unwrap();
        assert_eq!(s.expr_ty.len(), n as usize);
        assert!(s.expr_ty.iter().all(Option::is_some));
    }

    #[test]
    fn locals_shadow_by_scope() {
        // Each body indexes `p` where only the parameter is a pointer, so
        // it types exactly when the `int p` that shadowed it is out of
        // scope again.
        for (src, types) in [
            ("int f(char *p) { { int p = 0; } return p[0]; }", true),
            ("int f(char *p) { { int p = 0; return p[0]; } }", false),
            ("int f(char *p) { for (int p = 0; p; ) { } return p[0]; }", true),
            ("int f(char *p) { for (int p = 0; p; ) { return p[0]; } return 0; }", false),
            ("int f(char *p) { for (char *q = p; q; ) { int p = 0; } return p[0]; }", true),
            // A redeclaration within one scope wins for the rest of it.
            ("int f(char *p) { char *q = p; int q = 0; return q[0]; }", false),
            ("int f(char *p) { int q = 0; char *q = p; return q[0]; }", true),
        ] {
            let p = parse(src).unwrap();
            assert_eq!(analyze(&p).is_ok(), types, "{src}");
        }
        // A body that fails inside nested scopes leaves no binding behind
        // for the next function.
        let p = parse(
            "int bad(void) { { int leak = 0; { return nope; } } }
             int next(void) { return leak; }",
        )
        .unwrap();
        let r = analyze_with_recovery(&p);
        let failed: Vec<&str> = r.failed_functions.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(failed, ["bad", "next"]);
    }

    #[test]
    fn globals_resolve() {
        let (_, s) = analyzed("int g; int f(void) { g = 1; return g; }");
        assert!(s
            .resolution
            .iter()
            .flatten()
            .any(|r| matches!(r, Resolution::Global)));
    }
}
