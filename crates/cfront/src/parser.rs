//! Recursive-descent parser for the C subset.
//!
//! Standard C declarator syntax is supported (pointers with per-level
//! `const`, arrays, function declarators including function pointers via
//! parenthesized declarators). Typedefs are expanded at use, following
//! the paper's §4.2 ("we treat typedefs as macro-expansions"): the
//! recorded AST contains only structural types.

use std::sync::Arc;

use crate::ast::{
    AssignOp, BinOp, Block, Expr, ExprKind, FnDef, Item, Program, Stmt, Storage, SwitchArm,
    UnOp,
};
use crate::error::CError;
use crate::fxhash::FxHashMap;
use crate::lexer::{lex, Span, SpannedTok, Tok};
use crate::types::{CTy, CTyKind, FnTy, Scalar};

/// Parses a translation unit.
///
/// # Errors
///
/// Returns the first [`CError`] encountered.
pub fn parse(src: &str) -> Result<Program, CError> {
    let _span = qual_obs::span("parse");
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    p.program()
}

/// A translation unit parsed with error recovery: every top-level item
/// that failed to parse was skipped (recorded in `errors`) and the rest
/// of the unit was still parsed into `program`.
#[derive(Debug, Default)]
pub struct RecoveredParse {
    /// The items that did parse.
    pub program: Program,
    /// One error per skipped region, in source order.
    pub errors: Vec<CError>,
}

/// Parses a translation unit, skipping broken top-level items instead
/// of aborting: after an error the parser discards tokens up to the
/// next safe synchronization point (a `;` or closing `}` at top level)
/// and resumes. A lexer failure still loses the whole file — there is
/// no token stream to recover on.
#[must_use]
pub fn parse_with_recovery(src: &str) -> RecoveredParse {
    let _span = qual_obs::span("parse");
    match lex(src) {
        Err(e) => RecoveredParse {
            program: Program::default(),
            errors: vec![e],
        },
        Ok(toks) => Parser::new(toks).program_recovering(),
    }
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    typedefs: FxHashMap<String, CTy>,
    next_expr_id: u32,
    anon_counter: u32,
    /// Items emitted out of line (struct/enum definitions found inside
    /// declaration specifiers).
    items: Vec<Item>,
    /// Parameter names from the most recently built function declarator
    /// (side channel between `DeclOp::Func` and `take_param_names`).
    last_param_names: Vec<Option<String>>,
    /// Current expression-nesting depth (guards against stack overflow
    /// on pathological inputs).
    depth: u32,
    /// Current statement/block nesting depth.
    stmt_depth: u32,
    /// Current declarator/struct/initializer nesting depth.
    decl_depth: u32,
    /// Current unary-operator chain depth (prefix ops, casts, sizeof).
    unary_depth: u32,
}

/// Maximum expression nesting (each level costs ~a dozen parser frames).
const MAX_EXPR_DEPTH: u32 = 64;

/// Maximum statement/block nesting.
const MAX_STMT_DEPTH: u32 = 64;

/// Maximum declarator/struct/initializer nesting.
const MAX_DECL_DEPTH: u32 = 64;

/// Maximum unary chain length. A chain spends one shallow frame per
/// link (unlike full expression levels), so the cap is looser; it also
/// absorbs the one unary frame each parenthesized level contributes.
const MAX_UNARY_DEPTH: u32 = 192;

/// Maximum pointer/array/function nesting in a single constructed type.
/// Everything downstream (θ translation, qualifier-shape unification,
/// the pretty-printer) recurses over type spines, so this parse-time cap
/// is what makes those recursions total.
const MAX_TYPE_DEPTH: usize = 128;

/// A parsed parameter list: (optionally named) parameters plus the
/// varargs flag.
type ParamList = (Vec<(Option<String>, CTy)>, bool);

/// One declarator operation, collected in reading order from the
/// identifier outward.
enum DeclOp {
    Ptr { is_const: bool },
    Array(Option<u64>),
    Func(Vec<(Option<String>, CTy)>, bool),
}

impl Parser {
    fn new(toks: Vec<SpannedTok>) -> Parser {
        Parser {
            toks,
            pos: 0,
            typedefs: FxHashMap::default(),
            next_expr_id: 0,
            anon_counter: 0,
            items: Vec::new(),
            last_param_names: Vec::new(),
            depth: 0,
            stmt_depth: 0,
            decl_depth: 0,
            unary_depth: 0,
        }
    }

    /// Runs `f` one nesting level deeper on the chosen counter, erroring
    /// out (instead of overflowing the stack) past `limit`.
    fn nested<T>(
        &mut self,
        counter: fn(&mut Parser) -> &mut u32,
        limit: u32,
        what: &'static str,
        f: impl FnOnce(&mut Parser) -> Result<T, CError>,
    ) -> Result<T, CError> {
        if *counter(self) >= limit {
            return Err(CError::at(
                self.peek_span(),
                format!("{what} nesting too deep"),
            ));
        }
        *counter(self) += 1;
        let r = f(self);
        *counter(self) -= 1;
        r
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn peek_span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// Consumes the current token and returns its span.
    fn bump(&mut self) -> Span {
        let span = self.toks[self.pos].span;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        span
    }

    /// Consumes the current identifier or string literal and moves its
    /// text out of the token: the parser never reads a consumed token
    /// again, so the text need not be cloned.
    fn bump_text(&mut self) -> String {
        let text = match &mut self.toks[self.pos].tok {
            Tok::Ident(s) | Tok::StrLit(s) => std::mem::take(s),
            _ => String::new(),
        };
        self.bump();
        text
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<Span, CError> {
        if self.peek() == t {
            Ok(self.bump())
        } else {
            Err(CError::at(
                self.peek_span(),
                format!("expected {t}, found {}", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<(String, Span), CError> {
        match self.peek() {
            Tok::Ident(_) => {
                let span = self.peek_span();
                Ok((self.bump_text(), span))
            }
            other => Err(CError::at(
                self.peek_span(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn fresh_expr_id(&mut self) -> u32 {
        let id = self.next_expr_id;
        self.next_expr_id += 1;
        id
    }

    fn expr_node(&mut self, kind: ExprKind, span: Span) -> Expr {
        Expr {
            kind,
            span,
            id: self.fresh_expr_id(),
        }
    }

    // ----- top level ---------------------------------------------------

    fn program(&mut self) -> Result<Program, CError> {
        let mut prog = Program::default();
        while self.peek() != &Tok::Eof {
            let before = self.items.len();
            let item = self.item()?;
            // Struct/enum defs discovered in specifiers come first.
            prog.items.extend(self.items.drain(before..));
            prog.items.extend(item);
        }
        prog.expr_ids = self.next_expr_id;
        Ok(prog)
    }

    /// Like [`Parser::program`], but a failing top-level item is
    /// recorded and skipped rather than aborting the parse.
    fn program_recovering(&mut self) -> RecoveredParse {
        let mut prog = Program::default();
        let mut errors = Vec::new();
        while self.peek() != &Tok::Eof {
            let before_items = self.items.len();
            let before_pos = self.pos;
            match self.item() {
                Ok(item) => {
                    prog.items.extend(self.items.drain(before_items..));
                    prog.items.extend(item);
                }
                Err(e) => {
                    errors.push(e);
                    // Drop any side-channel items from the broken region
                    // and reset nesting counters (unwinding restored
                    // them, but be defensive — they gate recursion).
                    self.items.truncate(before_items);
                    self.depth = 0;
                    self.stmt_depth = 0;
                    self.decl_depth = 0;
                    self.unary_depth = 0;
                    self.synchronize();
                    if self.pos == before_pos && self.peek() != &Tok::Eof {
                        self.bump();
                    }
                }
            }
        }
        prog.expr_ids = self.next_expr_id;
        RecoveredParse {
            program: prog,
            errors,
        }
    }

    /// Skips to the next plausible top-level boundary: a `;` outside
    /// braces, or a `}` closing more braces than were opened since the
    /// error point (i.e. the end of the broken definition).
    fn synchronize(&mut self) {
        let mut depth = 0i64;
        loop {
            match self.peek() {
                Tok::Eof => return,
                Tok::Semi if depth <= 0 => {
                    self.bump();
                    return;
                }
                Tok::LBrace => {
                    depth += 1;
                    self.bump();
                }
                Tok::RBrace => {
                    depth -= 1;
                    self.bump();
                    if depth <= 0 {
                        return;
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Parses one top-level construct, returning zero or more items.
    fn item(&mut self) -> Result<Vec<Item>, CError> {
        let start = self.peek_span();
        if self.eat(&Tok::KwTypedef) {
            let (base, _) = self.decl_specifiers()?;
            let (name, ty) = self.declarator(base)?;
            let name = name.ok_or_else(|| {
                CError::at(start, "typedef requires a name")
            })?;
            self.expect(&Tok::Semi)?;
            self.typedefs.insert(name.clone(), ty.clone());
            return Ok(vec![Item::Typedef {
                name,
                ty,
                span: start,
            }]);
        }

        let (base, storage) = self.decl_specifiers()?;
        // `struct S { ... };` alone.
        if self.eat(&Tok::Semi) {
            return Ok(Vec::new());
        }

        let (name, ty) = self.declarator(base.clone())?;
        let name = name.ok_or_else(|| CError::at(start, "expected a declarator name"))?;

        // Function definition?
        if let CTyKind::Func(sig) = &ty.kind {
            if self.peek() == &Tok::LBrace {
                let params = self.take_param_names(&sig.params)?;
                let body = self.block()?;
                return Ok(vec![Item::Func(FnDef {
                    name,
                    ret: sig.ret.clone(),
                    params,
                    varargs: sig.varargs,
                    body,
                    storage,
                    span: start,
                })]);
            }
        }

        // Otherwise: globals / prototypes, possibly a comma list.
        let mut items = Vec::new();
        let mut cur_name = name;
        let mut cur_ty = ty;
        loop {
            match &cur_ty.kind {
                CTyKind::Func(sig) => items.push(Item::Proto {
                    name: cur_name.clone(),
                    sig: (**sig).clone(),
                    storage,
                    span: start,
                }),
                _ => {
                    let init = if self.eat(&Tok::Assign) {
                        Some(self.initializer()?)
                    } else {
                        None
                    };
                    items.push(Item::Global {
                        name: cur_name.clone(),
                        ty: cur_ty.clone(),
                        init,
                        storage,
                        span: start,
                    });
                }
            }
            if self.eat(&Tok::Comma) {
                let (n, t) = self.declarator(base.clone())?;
                cur_name =
                    n.ok_or_else(|| CError::at(self.peek_span(), "expected declarator"))?;
                cur_ty = t;
            } else {
                self.expect(&Tok::Semi)?;
                break;
            }
        }
        Ok(items)
    }

    /// Pulls the parameter names recorded by the declarator out of the
    /// signature (definitions need names; prototypes may omit them).
    fn take_param_names(&mut self, params: &[CTy]) -> Result<Vec<(String, CTy)>, CError> {
        // Names were stashed alongside types in `last_param_names`.
        let names = std::mem::take(&mut self.last_param_names);
        if names.len() != params.len() {
            return Err(CError::at(
                self.peek_span(),
                "internal error: parameter name mismatch",
            ));
        }
        Ok(names
            .into_iter()
            .zip(params.iter().cloned())
            .enumerate()
            .map(|(i, (n, t))| (n.unwrap_or_else(|| format!("__arg{i}")), t))
            .collect())
    }

    // ----- declarations -------------------------------------------------

    /// Parses declaration specifiers: storage class, `const`, and the
    /// base type. Struct/enum definitions encountered here are pushed to
    /// `self.items`.
    fn decl_specifiers(&mut self) -> Result<(CTy, Storage), CError> {
        let mut storage = Storage::None;
        let mut is_const = false;
        let mut base: Option<CTy> = None;
        let mut saw_unsigned = false;
        let mut scalar: Option<Scalar> = None;
        loop {
            match self.peek() {
                Tok::KwConst => {
                    self.bump();
                    is_const = true;
                }
                Tok::KwStatic => {
                    self.bump();
                    storage = Storage::Static;
                }
                Tok::KwExtern => {
                    self.bump();
                    storage = Storage::Extern;
                }
                Tok::KwSigned => {
                    self.bump();
                }
                Tok::KwUnsigned => {
                    self.bump();
                    saw_unsigned = true;
                }
                Tok::KwVoid => {
                    self.bump();
                    scalar = Some(Scalar::Void);
                }
                Tok::KwChar => {
                    self.bump();
                    scalar = Some(Scalar::Char);
                }
                Tok::KwShort => {
                    self.bump();
                    scalar = Some(Scalar::Short);
                }
                Tok::KwInt => {
                    self.bump();
                    if scalar.is_none() || scalar == Some(Scalar::Int) {
                        scalar = Some(Scalar::Int);
                    }
                    // `short int` / `long int`: keep the modifier.
                }
                Tok::KwLong => {
                    self.bump();
                    scalar = Some(Scalar::Long);
                }
                Tok::KwFloat => {
                    self.bump();
                    scalar = Some(Scalar::Float);
                }
                Tok::KwDouble => {
                    self.bump();
                    scalar = Some(Scalar::Double);
                }
                Tok::KwStruct | Tok::KwUnion => {
                    self.bump();
                    base = Some(self.struct_specifier()?);
                }
                Tok::KwEnum => {
                    self.bump();
                    base = Some(self.enum_specifier()?);
                }
                Tok::Ident(name) if base.is_none() && scalar.is_none() => {
                    if let Some(alias) = self.typedefs.get(name).cloned() {
                        // Typedef expansion (§4.2): substitute eagerly.
                        self.bump();
                        base = Some(alias);
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        let mut ty = match (base, scalar) {
            (Some(b), _) => b,
            (None, Some(s)) => CTy::scalar(s),
            (None, None) if saw_unsigned => CTy::int(),
            (None, None) => {
                return Err(CError::at(self.peek_span(), "expected type specifier"))
            }
        };
        if is_const {
            ty = ty.with_const();
        }
        Ok((ty, storage))
    }

    fn struct_specifier(&mut self) -> Result<CTy, CError> {
        self.nested(
            |p| &mut p.decl_depth,
            MAX_DECL_DEPTH,
            "struct definition",
            Self::struct_specifier_inner,
        )
    }

    fn struct_specifier_inner(&mut self) -> Result<CTy, CError> {
        let span = self.peek_span();
        let name = match self.peek() {
            Tok::Ident(_) => self.bump_text(),
            _ => {
                self.anon_counter += 1;
                format!("__anon_struct_{}", self.anon_counter)
            }
        };
        if self.eat(&Tok::LBrace) {
            let mut fields = Vec::new();
            while self.peek() != &Tok::RBrace {
                let (base, _) = self.decl_specifiers()?;
                loop {
                    let (fname, fty) = self.declarator(base.clone())?;
                    let fname = fname.ok_or_else(|| {
                        CError::at(self.peek_span(), "expected field name")
                    })?;
                    fields.push((fname, fty));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::Semi)?;
            }
            self.expect(&Tok::RBrace)?;
            self.items.push(Item::StructDef {
                name: name.clone(),
                fields,
                span,
            });
        }
        Ok(CTy {
            is_const: false,
            kind: CTyKind::Struct(name.into()),
        })
    }

    fn enum_specifier(&mut self) -> Result<CTy, CError> {
        let span = self.peek_span();
        let name = match self.peek() {
            Tok::Ident(_) => self.bump_text(),
            _ => {
                self.anon_counter += 1;
                format!("__anon_enum_{}", self.anon_counter)
            }
        };
        if self.eat(&Tok::LBrace) {
            let mut consts = Vec::new();
            let mut next_val = 0i64;
            while self.peek() != &Tok::RBrace {
                let (cname, _) = self.ident()?;
                if self.eat(&Tok::Assign) {
                    // Constant expressions: accept a literal (possibly
                    // negated); anything fancier keeps the running value.
                    let neg = self.eat(&Tok::Minus);
                    if let &Tok::IntLit(v) = self.peek() {
                        self.bump();
                        next_val = if neg { -v } else { v };
                    }
                }
                consts.push((cname, next_val));
                next_val += 1;
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBrace)?;
            self.items.push(Item::EnumDef { name, consts, span });
        }
        Ok(CTy::int())
    }

    /// Parses a (possibly abstract) declarator against `base`, returning
    /// the declared name (if any) and the complete type.
    fn declarator(&mut self, base: CTy) -> Result<(Option<String>, CTy), CError> {
        let mut ops = Vec::new();
        let name = self.declarator_ops(&mut ops)?;
        // Cap the constructed type's nesting *before* building it: the
        // base depth is already capped (typedefs go through here too),
        // and each op adds at most one level.
        if base.depth() + ops.len() > MAX_TYPE_DEPTH {
            return Err(CError::at(
                self.peek_span(),
                "declared type nesting too deep",
            ));
        }
        // `ops` is in reading order (identifier outward); the type is
        // built by applying them to the base in reverse.
        let mut ty = base;
        for op in ops.into_iter().rev() {
            ty = match op {
                DeclOp::Ptr { is_const } => CTy {
                    is_const,
                    kind: CTyKind::Ptr(Arc::new(ty)),
                },
                DeclOp::Array(n) => CTy {
                    is_const: false,
                    kind: CTyKind::Array(Arc::new(ty), n),
                },
                DeclOp::Func(params, varargs) => {
                    self.last_param_names = params.iter().map(|(n, _)| n.clone()).collect();
                    CTy {
                        is_const: false,
                        kind: CTyKind::Func(Arc::new(FnTy {
                            ret: ty,
                            params: params.into_iter().map(|(_, t)| t).collect(),
                            varargs,
                        })),
                    }
                }
            };
        }
        Ok((name, ty))
    }

    fn declarator_ops(&mut self, ops: &mut Vec<DeclOp>) -> Result<Option<String>, CError> {
        self.nested(
            |p| &mut p.decl_depth,
            MAX_DECL_DEPTH,
            "declarator",
            |this| {
                // Pointer prefix: collected left-to-right, but reading
                // order from the identifier is right-to-left, so gather
                // then reverse-append.
                let mut ptrs = Vec::new();
                while this.eat(&Tok::Star) {
                    let mut is_const = false;
                    while this.eat(&Tok::KwConst) {
                        is_const = true;
                    }
                    ptrs.push(DeclOp::Ptr { is_const });
                }
                let name = this.direct_declarator_ops(ops)?;
                ops.extend(ptrs.into_iter().rev());
                Ok(name)
            },
        )
    }

    fn direct_declarator_ops(
        &mut self,
        ops: &mut Vec<DeclOp>,
    ) -> Result<Option<String>, CError> {
        let mut inner = Vec::new();
        let name = if self.peek() == &Tok::LParen && self.is_inner_declarator() {
            self.bump();
            let n = self.declarator_ops(&mut inner)?;
            self.expect(&Tok::RParen)?;
            n
        } else if let Tok::Ident(_) = self.peek() {
            Some(self.bump_text())
        } else {
            None
        };
        // Reading order from the identifier: everything inside the
        // parentheses first (it is nearer the name), then our suffixes.
        let mut suffixes = Vec::new();
        loop {
            if self.eat(&Tok::LBracket) {
                let n = if let &Tok::IntLit(v) = self.peek() {
                    self.bump();
                    Some(v.max(0) as u64)
                } else {
                    None
                };
                self.expect(&Tok::RBracket)?;
                suffixes.push(DeclOp::Array(n));
            } else if self.peek() == &Tok::LParen {
                self.bump();
                let (params, varargs) = self.param_list()?;
                suffixes.push(DeclOp::Func(params, varargs));
            } else {
                break;
            }
        }
        ops.extend(inner);
        ops.extend(suffixes);
        Ok(name)
    }

    /// Distinguishes `(*f)`-style inner declarators from parameter lists.
    fn is_inner_declarator(&self) -> bool {
        matches!(self.peek2(), Tok::Star | Tok::LParen)
    }

    fn param_list(&mut self) -> Result<ParamList, CError> {
        let mut params = Vec::new();
        let mut varargs = false;
        if self.eat(&Tok::RParen) {
            return Ok((params, varargs));
        }
        // `(void)` means no parameters.
        if self.peek() == &Tok::KwVoid && self.peek2() == &Tok::RParen {
            self.bump();
            self.bump();
            return Ok((params, varargs));
        }
        loop {
            if self.eat(&Tok::Ellipsis) {
                varargs = true;
                break;
            }
            let (base, _) = self.decl_specifiers()?;
            let (name, ty) = self.declarator(base)?;
            // Array parameters decay to pointers.
            params.push((name, ty.decayed()));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        Ok((params, varargs))
    }

    fn initializer(&mut self) -> Result<Expr, CError> {
        self.nested(
            |p| &mut p.decl_depth,
            MAX_DECL_DEPTH,
            "initializer",
            Self::initializer_inner,
        )
    }

    fn initializer_inner(&mut self) -> Result<Expr, CError> {
        if self.peek() == &Tok::LBrace {
            // Aggregate initializer: parse the elements but represent the
            // aggregate as a comma chain (the analysis only needs flows).
            let lo = self.bump();
            let mut parts = Vec::new();
            while self.peek() != &Tok::RBrace {
                parts.push(self.initializer()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            let hi = self.expect(&Tok::RBrace)?;
            let span = lo.to(hi);
            let mut it = parts.into_iter();
            let first = it
                .next()
                .unwrap_or(Expr {
                    kind: ExprKind::IntLit(0),
                    span,
                    id: u32::MAX,
                });
            let mut acc = if first.id == u32::MAX {
                self.expr_node(ExprKind::IntLit(0), span)
            } else {
                first
            };
            for next in it {
                let sp = acc.span.to(next.span);
                acc = self.expr_node(ExprKind::Comma(Box::new(acc), Box::new(next)), sp);
            }
            Ok(acc)
        } else {
            self.assignment_expr()
        }
    }

    // ----- statements ---------------------------------------------------

    fn block(&mut self) -> Result<Block, CError> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            stmts.push(self.stmt()?);
        }
        self.expect(&Tok::RBrace)?;
        Ok(Block { stmts })
    }

    fn starts_type(&self) -> bool {
        match self.peek() {
            Tok::KwConst
            | Tok::KwInt
            | Tok::KwChar
            | Tok::KwLong
            | Tok::KwShort
            | Tok::KwUnsigned
            | Tok::KwSigned
            | Tok::KwVoid
            | Tok::KwFloat
            | Tok::KwDouble
            | Tok::KwStruct
            | Tok::KwEnum
            | Tok::KwUnion
            | Tok::KwStatic
            | Tok::KwExtern => true,
            Tok::Ident(s) => self.typedefs.contains_key(s),
            _ => false,
        }
    }

    fn stmt(&mut self) -> Result<Stmt, CError> {
        self.nested(
            |p| &mut p.stmt_depth,
            MAX_STMT_DEPTH,
            "statement",
            Self::stmt_inner,
        )
    }

    fn stmt_inner(&mut self) -> Result<Stmt, CError> {
        let span = self.peek_span();
        match self.peek() {
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::KwIf => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let then = self.stmt_as_block()?;
                let els = if self.eat(&Tok::KwElse) {
                    Some(self.stmt_as_block()?)
                } else {
                    None
                };
                Ok(Stmt::If { cond, then, els })
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::KwDo => {
                self.bump();
                let body = self.stmt_as_block()?;
                self.expect(&Tok::KwWhile)?;
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::DoWhile { body, cond })
            }
            Tok::KwFor => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let init = if self.eat(&Tok::Semi) {
                    None
                } else if self.starts_type() {
                    Some(Box::new(self.decl_stmt()?))
                } else {
                    let e = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                let step = if self.peek() == &Tok::RParen {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Tok::KwSwitch => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::LBrace)?;
                let mut arms: Vec<SwitchArm> = Vec::new();
                while self.peek() != &Tok::RBrace {
                    match self.peek() {
                        Tok::KwCase => {
                            self.bump();
                            let neg = self.eat(&Tok::Minus);
                            let v = match self.peek() {
                                &Tok::IntLit(v) => {
                                    self.bump();
                                    if neg { -v } else { v }
                                }
                                &Tok::CharLit(v) => {
                                    self.bump();
                                    v
                                }
                                Tok::Ident(_) => {
                                    // enum constant: value resolved later;
                                    // the analysis only needs the body.
                                    self.bump();
                                    0
                                }
                                other => {
                                    return Err(CError::at(
                                        self.peek_span(),
                                        format!("expected case value, found {other}"),
                                    ))
                                }
                            };
                            self.expect(&Tok::Colon)?;
                            arms.push(SwitchArm {
                                value: Some(v),
                                body: Block::default(),
                            });
                        }
                        Tok::KwDefault => {
                            self.bump();
                            self.expect(&Tok::Colon)?;
                            arms.push(SwitchArm {
                                value: None,
                                body: Block::default(),
                            });
                        }
                        _ => {
                            let st = self.stmt()?;
                            match arms.last_mut() {
                                Some(arm) => arm.body.stmts.push(st),
                                None => {
                                    return Err(CError::at(
                                        span,
                                        "statement before first case label",
                                    ))
                                }
                            }
                        }
                    }
                }
                self.expect(&Tok::RBrace)?;
                Ok(Stmt::Switch { cond, arms })
            }
            Tok::KwGoto => {
                self.bump();
                let (label, _) = self.ident()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Goto(label, span))
            }
            // A label: `name:` followed by a statement.
            Tok::Ident(name)
                if self.peek2() == &Tok::Colon && !self.typedefs.contains_key(name) =>
            {
                let name = self.bump_text();
                self.bump();
                let inner = self.stmt()?;
                Ok(Stmt::Label(name, Box::new(inner)))
            }
            Tok::KwReturn => {
                self.bump();
                let e = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Return(e, span))
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Break(span))
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Continue(span))
            }
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Block(Block::default()))
            }
            _ if self.starts_type() => self.decl_stmt(),
            _ => {
                let e = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn stmt_as_block(&mut self) -> Result<Block, CError> {
        if self.peek() == &Tok::LBrace {
            self.block()
        } else {
            Ok(Block {
                stmts: vec![self.stmt()?],
            })
        }
    }

    /// A local declaration statement; comma lists become nested blocks of
    /// single declarations.
    fn decl_stmt(&mut self) -> Result<Stmt, CError> {
        let span = self.peek_span();
        let (base, _) = self.decl_specifiers()?;
        let mut decls = Vec::new();
        loop {
            let (name, ty) = self.declarator(base.clone())?;
            let name =
                name.ok_or_else(|| CError::at(self.peek_span(), "expected declarator"))?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.initializer()?)
            } else {
                None
            };
            decls.push(Stmt::Decl {
                name,
                ty,
                init,
                span,
            });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::Semi)?;
        if decls.len() == 1 {
            Ok(decls.pop().expect("one decl"))
        } else {
            Ok(Stmt::Block(Block { stmts: decls }))
        }
    }

    // ----- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr, CError> {
        let mut e = self.assignment_expr()?;
        while self.peek() == &Tok::Comma {
            self.bump();
            let rhs = self.assignment_expr()?;
            let span = e.span.to(rhs.span);
            e = self.expr_node(ExprKind::Comma(Box::new(e), Box::new(rhs)), span);
        }
        Ok(e)
    }

    fn assignment_expr(&mut self) -> Result<Expr, CError> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(CError::at(
                self.peek_span(),
                "expression nesting too deep",
            ));
        }
        self.depth += 1;
        let r = self.assignment_expr_inner();
        self.depth -= 1;
        r
    }

    fn assignment_expr_inner(&mut self) -> Result<Expr, CError> {
        let lhs = self.conditional_expr()?;
        let op = match self.peek() {
            Tok::Assign => Some(AssignOp::Plain),
            Tok::PlusAssign => Some(AssignOp::Compound(BinOp::Add)),
            Tok::MinusAssign => Some(AssignOp::Compound(BinOp::Sub)),
            Tok::StarAssign => Some(AssignOp::Compound(BinOp::Mul)),
            Tok::SlashAssign => Some(AssignOp::Compound(BinOp::Div)),
            Tok::PercentAssign => Some(AssignOp::Compound(BinOp::Rem)),
            Tok::AmpAssign => Some(AssignOp::Compound(BinOp::BitAnd)),
            Tok::PipeAssign => Some(AssignOp::Compound(BinOp::BitOr)),
            Tok::CaretAssign => Some(AssignOp::Compound(BinOp::BitXor)),
            Tok::ShlAssign => Some(AssignOp::Compound(BinOp::Shl)),
            Tok::ShrAssign => Some(AssignOp::Compound(BinOp::Shr)),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.assignment_expr()?;
            let span = lhs.span.to(rhs.span);
            Ok(self.expr_node(ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)), span))
        } else {
            Ok(lhs)
        }
    }

    fn conditional_expr(&mut self) -> Result<Expr, CError> {
        let cond = self.binary_expr(0)?;
        if self.eat(&Tok::Question) {
            let t = self.expr()?;
            self.expect(&Tok::Colon)?;
            let f = self.conditional_expr()?;
            let span = cond.span.to(f.span);
            Ok(self.expr_node(
                ExprKind::Cond(Box::new(cond), Box::new(t), Box::new(f)),
                span,
            ))
        } else {
            Ok(cond)
        }
    }

    /// Binary operators at or above precedence `min_level` (0 is `||`,
    /// 9 is `*`), by precedence climbing: each operand is parsed once,
    /// and a tighter operator to its right recurses one level up. All
    /// ten levels are left-associative, and every node is made after its
    /// operands, so ids come out in post-order as with one recursive
    /// function per level.
    fn binary_expr(&mut self, min_level: u8) -> Result<Expr, CError> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, level)) = binop(self.peek()) {
            if level < min_level {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(level + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = self.expr_node(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, CError> {
        self.nested(
            |p| &mut p.unary_depth,
            MAX_UNARY_DEPTH,
            "operator",
            Self::unary_expr_inner,
        )
    }

    fn unary_expr_inner(&mut self) -> Result<Expr, CError> {
        let span = self.peek_span();
        let op = match self.peek() {
            Tok::Minus => Some(UnOp::Neg),
            Tok::Bang => Some(UnOp::Not),
            Tok::Tilde => Some(UnOp::BitNot),
            Tok::Star => Some(UnOp::Deref),
            Tok::Amp => Some(UnOp::Addr),
            Tok::PlusPlus => Some(UnOp::PreInc),
            Tok::MinusMinus => Some(UnOp::PreDec),
            Tok::Plus => {
                self.bump();
                return self.unary_expr();
            }
            Tok::KwSizeof => {
                self.bump();
                if self.peek() == &Tok::LParen && self.type_follows_lparen() {
                    self.bump();
                    let (base, _) = self.decl_specifiers()?;
                    let (_, _ty) = self.declarator(base)?;
                    let hi = self.expect(&Tok::RParen)?;
                    return Ok(self.expr_node(ExprKind::Sizeof, span.to(hi)));
                }
                let e = self.unary_expr()?;
                let sp = span.to(e.span);
                return Ok(self.expr_node(ExprKind::Sizeof, sp));
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let e = self.unary_expr()?;
            let sp = span.to(e.span);
            return Ok(self.expr_node(ExprKind::Unary(op, Box::new(e)), sp));
        }
        // Cast?
        if self.peek() == &Tok::LParen && self.type_follows_lparen() {
            self.bump();
            let (base, _) = self.decl_specifiers()?;
            let (_, ty) = self.declarator(base)?;
            self.expect(&Tok::RParen)?;
            let e = self.unary_expr()?;
            let sp = span.to(e.span);
            return Ok(self.expr_node(ExprKind::Cast(ty, Box::new(e)), sp));
        }
        self.postfix_expr()
    }

    fn type_follows_lparen(&self) -> bool {
        match self.peek2() {
            Tok::KwConst
            | Tok::KwInt
            | Tok::KwChar
            | Tok::KwLong
            | Tok::KwShort
            | Tok::KwUnsigned
            | Tok::KwSigned
            | Tok::KwVoid
            | Tok::KwFloat
            | Tok::KwDouble
            | Tok::KwStruct
            | Tok::KwEnum
            | Tok::KwUnion => true,
            Tok::Ident(s) => self.typedefs.contains_key(s),
            _ => false,
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, CError> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &Tok::RParen {
                        loop {
                            args.push(self.assignment_expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    let hi = self.expect(&Tok::RParen)?;
                    let span = e.span.to(hi);
                    e = self.expr_node(ExprKind::Call(Box::new(e), args), span);
                }
                Tok::LBracket => {
                    self.bump();
                    let i = self.expr()?;
                    let hi = self.expect(&Tok::RBracket)?;
                    let span = e.span.to(hi);
                    e = self.expr_node(ExprKind::Index(Box::new(e), Box::new(i)), span);
                }
                Tok::Dot => {
                    self.bump();
                    let (f, hi) = self.ident()?;
                    let span = e.span.to(hi);
                    e = self.expr_node(ExprKind::Member(Box::new(e), f), span);
                }
                Tok::Arrow => {
                    self.bump();
                    let (f, hi) = self.ident()?;
                    let span = e.span.to(hi);
                    e = self.expr_node(ExprKind::PMember(Box::new(e), f), span);
                }
                Tok::PlusPlus => {
                    let hi = self.bump();
                    let span = e.span.to(hi);
                    e = self.expr_node(ExprKind::PostIncDec(Box::new(e), true), span);
                }
                Tok::MinusMinus => {
                    let hi = self.bump();
                    let span = e.span.to(hi);
                    e = self.expr_node(ExprKind::PostIncDec(Box::new(e), false), span);
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, CError> {
        let span = self.peek_span();
        match self.peek() {
            &Tok::IntLit(n) => {
                self.bump();
                Ok(self.expr_node(ExprKind::IntLit(n), span))
            }
            &Tok::CharLit(c) => {
                self.bump();
                Ok(self.expr_node(ExprKind::CharLit(c), span))
            }
            Tok::StrLit(_) => {
                let s = self.bump_text();
                Ok(self.expr_node(ExprKind::StrLit(s), span))
            }
            Tok::Ident(_) => {
                let x = self.bump_text();
                Ok(self.expr_node(ExprKind::Ident(x), span))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(CError::at(
                span,
                format!("expected expression, found {other}"),
            )),
        }
    }
}

/// The binary operator `t` spells and its precedence level, from `||`
/// (0) to the multiplicative operators (9).
fn binop(t: &Tok) -> Option<(BinOp, u8)> {
    Some(match t {
        Tok::PipePipe => (BinOp::Or, 0),
        Tok::AmpAmp => (BinOp::And, 1),
        Tok::Pipe => (BinOp::BitOr, 2),
        Tok::Caret => (BinOp::BitXor, 3),
        Tok::Amp => (BinOp::BitAnd, 4),
        Tok::EqEq => (BinOp::Eq, 5),
        Tok::NotEq => (BinOp::Ne, 5),
        Tok::Lt => (BinOp::Lt, 6),
        Tok::Gt => (BinOp::Gt, 6),
        Tok::Le => (BinOp::Le, 6),
        Tok::Ge => (BinOp::Ge, 6),
        Tok::Shl => (BinOp::Shl, 7),
        Tok::Shr => (BinOp::Shr, 7),
        Tok::Plus => (BinOp::Add, 8),
        Tok::Minus => (BinOp::Sub, 8),
        Tok::Star => (BinOp::Mul, 9),
        Tok::Slash => (BinOp::Div, 9),
        Tok::Percent => (BinOp::Rem, 9),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Item;

    fn ok(src: &str) -> Program {
        parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource: {src}"))
    }

    #[test]
    fn parses_simple_function() {
        let p = ok("int add(int a, int b) { return a + b; }");
        let f = p.function("add").unwrap();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, CTy::int());
    }

    #[test]
    fn parses_pointer_declarations() {
        let p = ok("const int *x; int * const y; char **argv;");
        let tys: Vec<String> = p
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Global { ty, .. } => Some(ty.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(
            tys,
            vec![
                "ptr(const int)",
                "const ptr(int)",
                "ptr(ptr(char))"
            ]
        );
    }

    #[test]
    fn parses_typedef_as_macro_expansion() {
        // §4.2: "typedef int *ip; ip c, d;" — c and d share no qualifiers.
        let p = ok("typedef int *ip; ip c, d;");
        let globals: Vec<&Item> = p
            .items
            .iter()
            .filter(|i| matches!(i, Item::Global { .. }))
            .collect();
        assert_eq!(globals.len(), 2);
        for g in globals {
            if let Item::Global { ty, .. } = g {
                assert_eq!(ty.to_string(), "ptr(int)");
            }
        }
    }

    #[test]
    fn parses_struct_definition_and_use() {
        let p = ok("struct st { int x; char *name; }; struct st a, b;");
        let structs = p.structs();
        let fields = structs["st"];
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[1].1.to_string(), "ptr(char)");
    }

    #[test]
    fn parses_prototypes_and_varargs() {
        let p = ok("extern int printf(const char *fmt, ...); int puts(const char *s);");
        let protos: Vec<&Item> = p
            .items
            .iter()
            .filter(|i| matches!(i, Item::Proto { .. }))
            .collect();
        assert_eq!(protos.len(), 2);
        if let Item::Proto { sig, .. } = protos[0] {
            assert!(sig.varargs);
            assert_eq!(sig.params[0].to_string(), "ptr(const char)");
        }
    }

    #[test]
    fn parses_control_flow() {
        ok("int f(int n) {
              int s = 0;
              for (int i = 0; i < n; i++) { s += i; }
              while (s > 100) s--;
              do { s++; } while (s < 10);
              if (s) return s; else return -s;
           }");
    }

    #[test]
    fn parses_expressions() {
        ok("int g(int *p, int n) {
              int x = p[n] + *p * 2;
              x = n ? x : -x;
              x <<= 2; x |= 1; x &= ~n;
              return (int)x + sizeof(int) + sizeof x;
           }");
    }

    #[test]
    fn parses_member_access() {
        ok("struct point { int x; int y; };
            int h(struct point *p, struct point q) {
              return p->x + q.y;
            }");
    }

    #[test]
    fn parses_function_pointer_declarator() {
        let p = ok("int (*handler)(int);");
        if let Item::Global { ty, .. } = &p.items[0] {
            assert_eq!(ty.to_string(), "ptr(fn(int) -> int)");
        } else {
            panic!("expected global");
        }
    }

    #[test]
    fn parses_arrays() {
        let p = ok("char buf[128]; int matrix[4][8];");
        if let Item::Global { ty, .. } = &p.items[0] {
            assert_eq!(ty.to_string(), "array[128](char)");
        }
        if let Item::Global { ty, .. } = &p.items[1] {
            assert_eq!(ty.to_string(), "array[4](array[8](int))");
        }
    }

    #[test]
    fn parses_enum() {
        let p = ok("enum color { RED, GREEN = 5, BLUE }; enum color c;");
        let e = p
            .items
            .iter()
            .find_map(|i| match i {
                Item::EnumDef { consts, .. } => Some(consts.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            e,
            vec![
                ("RED".to_owned(), 0),
                ("GREEN".to_owned(), 5),
                ("BLUE".to_owned(), 6)
            ]
        );
    }

    #[test]
    fn parses_string_and_aggregate_initializers() {
        ok("char *msg = \"hello\"; int xs[3] = {1, 2, 3};");
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("int f( {").is_err());
        assert!(parse("int ;x").is_err());
        assert!(parse("bogus_type x;").is_err());
    }

    #[test]
    fn parses_switch_and_goto() {
        let p = ok("int classify(int c) {
              int r = 0;
              switch (c) {
                case 'a': r = 1; break;
                case -1: r = 2; break;
                default: r = 3; break;
              }
              if (r == 3) goto out;
              r++;
            out:
              return r;
            }");
        assert!(p.function("classify").is_some());
        assert!(parse("int f(int c) { switch (c) { r = 1; } }").is_err(),
            "statement before first case label is rejected");
    }

    #[test]
    fn switch_with_enum_case_values() {
        ok("enum color { RED, BLUE };
            int f(int c) { switch (c) { case RED: return 1; case BLUE: return 2; default: return 0; } }");
    }

    /// The first error `parse` reports on `src`, as `(lo, hi, message)`.
    fn first_error(src: &str) -> (u32, u32, String) {
        let e = parse(src).expect_err("must not parse");
        (e.span.lo, e.span.hi, e.message)
    }

    #[test]
    fn error_messages_name_the_offending_token() {
        let golden: [(&str, (u32, u32, &str)); 11] = [
            (
                "int f(struct s *p) { return p->7; }",
                (31, 32, "expected identifier, found integer `7`"),
            ),
            (
                "int g(void) { goto \"x\"; }",
                (19, 22, "expected identifier, found string literal"),
            ),
            ("enum E { 3 };", (9, 10, "expected identifier, found integer `3`")),
            (
                "enum E { A, B }; int h(struct s v) { return v.; }",
                (46, 47, "expected identifier, found `;`"),
            ),
            ("int m(void) { return ); }", (21, 22, "expected expression, found `)`")),
            ("int m(int x) { return x + ; }", (26, 27, "expected expression, found `;`")),
            ("int m(void) { return", (20, 20, "expected expression, found end of file")),
            (
                "int k(int c) { switch (c) { case +: return 1; } }",
                (33, 34, "expected case value, found `+`"),
            ),
            (
                "int k(int c) { switch (c) { case \"s\": return 1; } }",
                (33, 36, "expected case value, found string literal"),
            ),
            // A typedef name followed by `:` is not a label: the
            // statement parses as a declaration and has no declarator.
            (
                "typedef int T; int f(int x) { T: x = 1; return x; }",
                (31, 32, "expected declarator"),
            ),
            // A label's text is the identifier's, moved out of its token.
            ("int f(int x) { out: return x + ; }", (31, 32, "expected expression, found `;`")),
        ];
        for (src, (lo, hi, msg)) in golden {
            assert_eq!(first_error(src), (lo, hi, msg.to_owned()), "{src}");
        }
    }

    #[test]
    fn consumed_token_text_lands_in_the_tree() {
        // Identifier and string text is moved out of each token: every
        // name must still arrive intact, also after a typedef name and
        // a label that share the token kind.
        let p = ok("typedef char *str;
                    str pick(str s, int n) { again: if (n) { n--; goto again; } return \"lit\"; }
                    int use(void) { str t = pick(\"abc\", 2); return t[0]; }");
        let f = p.function("pick").unwrap();
        assert_eq!(f.params[0].0, "s");
        assert_eq!(f.params[0].1.to_string(), "ptr(char)");
        let Stmt::Label(label, inner) = &f.body.stmts[0] else {
            panic!("expected a label, got {:?}", f.body.stmts[0]);
        };
        assert_eq!(label, "again");
        assert!(matches!(**inner, Stmt::If { .. }));
        let Stmt::Return(Some(e), _) = &f.body.stmts[1] else {
            panic!("expected a return");
        };
        assert!(matches!(&e.kind, ExprKind::StrLit(s) if s == "lit"));
        let g = p.function("use").unwrap();
        let Stmt::Decl { name, init: Some(init), .. } = &g.body.stmts[0] else {
            panic!("expected a declaration");
        };
        assert_eq!(name, "t");
        let ExprKind::Call(callee, args) = &init.kind else {
            panic!("expected a call");
        };
        assert!(matches!(&callee.kind, ExprKind::Ident(n) if n == "pick"));
        assert!(matches!(&args[0].kind, ExprKind::StrLit(s) if s == "abc"));
    }

    #[test]
    fn expression_ids_are_counted() {
        let p = ok("int f(int x) { return x + 1; } int g = 2;");
        // `x`, `1`, `x + 1` and `2`.
        assert_eq!(p.expr_ids, 4);
        let r = parse_with_recovery("int a = 1 +; int g(int y) { return y; }");
        assert_eq!(r.errors.len(), 1);
        // The broken item's `1` keeps its id; `y` is the next one.
        assert_eq!(r.program.expr_ids, 2);
    }

    /// The returned expression of `f`, fully parenthesized with each
    /// operator's name, and its ids in post-order.
    fn returned_shape(p: &Program) -> (String, Vec<u32>) {
        fn shape(e: &Expr, ids: &mut Vec<u32>) -> String {
            let s = match &e.kind {
                ExprKind::Ident(n) => n.clone(),
                ExprKind::Binary(op, a, b) => {
                    let a = shape(a, ids);
                    let b = shape(b, ids);
                    format!("({a} {op:?} {b})")
                }
                other => panic!("unexpected {other:?}"),
            };
            ids.push(e.id);
            s
        }
        let f = p.function("f").expect("f is defined");
        let Stmt::Return(Some(e), _) = &f.body.stmts[0] else {
            panic!("expected a return");
        };
        let mut ids = Vec::new();
        (shape(e, &mut ids), ids)
    }

    #[test]
    fn binary_precedence_associativity_and_post_order_ids() {
        let cases = [
            // One operator of each of the ten levels, loosest first, so
            // each binds tighter than the one to its left.
            (
                "a || b && c | d ^ e & g == h < i << j + k * l",
                "(a Or (b And (c BitOr (d BitXor (e BitAnd (g Eq (h Lt (i Shl (j Add (k Mul l))))))))))",
            ),
            // The same levels tightest first: every operator takes the
            // whole tree to its left.
            (
                "a * b + c << d < e == g & h ^ i | j && k || l",
                "((((((((((a Mul b) Add c) Shl d) Lt e) Eq g) BitAnd h) BitXor i) BitOr j) And k) Or l)",
            ),
            // A loose operator after a tight one climbs back down.
            ("a == b + c * d - e || g", "((a Eq ((b Add (c Mul d)) Sub e)) Or g)"),
            // Left-associative chains within one level.
            ("a - b - c", "((a Sub b) Sub c)"),
            ("a / b % c", "((a Div b) Rem c)"),
            ("a << b >> c", "((a Shl b) Shr c)"),
            ("a < b >= c != d == e", "((((a Lt b) Ge c) Ne d) Eq e)"),
        ];
        for (src, want) in cases {
            let p = ok(&format!(
                "int f(int a, int b, int c, int d, int e, int g, int h, int i, int j, int k, int l) \
                 {{ return {src}; }}"
            ));
            let (got, ids) = returned_shape(&p);
            assert_eq!(got, want, "{src}");
            // The expression is the program's only one: its ids are
            // every id handed out, in post-order.
            let n = u32::try_from(ids.len()).unwrap();
            assert_eq!(ids, (0..n).collect::<Vec<u32>>(), "{src}");
            assert_eq!(p.expr_ids, n, "{src}");
        }
    }

    #[test]
    fn paper_section_4_1_example() {
        // int x; const int y; x = y;
        let p = ok("int x; const int y; int main(void) { x = y; return 0; }");
        assert!(p.function("main").is_some());
    }
}
