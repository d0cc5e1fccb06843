//! Abstract syntax for the C subset.

use crate::lexer::Span;
use crate::types::{CTy, FnTy};

/// A whole translation unit (or several concatenated, as the paper does
/// when analyzing multi-file benchmarks at once).
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// How many expression ids the parser handed out: every
    /// [`Expr::id`] in `items` is below it, so per-expression tables
    /// can be dense vectors of this length.
    pub expr_ids: u32,
}

/// Storage class of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// No storage class.
    None,
    /// `static`.
    Static,
    /// `extern`.
    Extern,
}

/// A top-level item.
#[derive(Debug, Clone)]
pub enum Item {
    /// `typedef T name;` (recorded for information; uses were already
    /// macro-expanded during parsing, per §4.2).
    Typedef {
        /// The introduced name.
        name: String,
        /// The aliased type.
        ty: CTy,
        /// Source location.
        span: Span,
    },
    /// A struct definition.
    StructDef {
        /// The struct tag.
        name: String,
        /// Fields in order.
        fields: Vec<(String, CTy)>,
        /// Source location.
        span: Span,
    },
    /// A global variable.
    Global {
        /// The variable name.
        name: String,
        /// Its declared type.
        ty: CTy,
        /// Optional initializer.
        init: Option<Expr>,
        /// Storage class.
        storage: Storage,
        /// Source location.
        span: Span,
    },
    /// A function definition (with body).
    Func(FnDef),
    /// An enum definition; constants behave as `int` values.
    EnumDef {
        /// The enum tag (possibly synthesized).
        name: String,
        /// The constants with their values.
        consts: Vec<(String, i64)>,
        /// Source location.
        span: Span,
    },
    /// A function prototype (declaration only). Functions that are only
    /// ever declared are *library* functions for the analysis: their
    /// unannotated pointer parameters are conservatively non-const (§4.2).
    Proto {
        /// The function name.
        name: String,
        /// The signature.
        sig: FnTy,
        /// Storage class.
        storage: Storage,
        /// Source location.
        span: Span,
    },
}

/// A function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// Return type.
    pub ret: CTy,
    /// Named parameters.
    pub params: Vec<(String, CTy)>,
    /// Whether the parameter list ends with `...`.
    pub varargs: bool,
    /// The body.
    pub body: Block,
    /// Storage class.
    pub storage: Storage,
    /// Source location of the signature.
    pub span: Span,
}

impl FnDef {
    /// The signature as a [`FnTy`].
    #[must_use]
    pub fn sig(&self) -> FnTy {
        FnTy {
            ret: self.ret.clone(),
            params: self.params.iter().map(|(_, t)| t.clone()).collect(),
            varargs: self.varargs,
        }
    }
}

/// A brace-delimited statement block.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// The statements in order.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// A local declaration.
    Decl {
        /// The variable name.
        name: String,
        /// Its type.
        ty: CTy,
        /// Optional initializer.
        init: Option<Expr>,
        /// Source location.
        span: Span,
    },
    /// An expression statement.
    Expr(Expr),
    /// `if (cond) then [else els]`.
    If {
        /// The condition.
        cond: Expr,
        /// The then-block.
        then: Block,
        /// The optional else-block.
        els: Option<Block>,
    },
    /// `while (cond) body`.
    While {
        /// The condition.
        cond: Expr,
        /// The body.
        body: Block,
    },
    /// `do body while (cond);`.
    DoWhile {
        /// The body.
        body: Block,
        /// The condition.
        cond: Expr,
    },
    /// `for (init; cond; step) body`.
    For {
        /// The initializer (a declaration or expression statement).
        init: Option<Box<Stmt>>,
        /// The loop condition.
        cond: Option<Expr>,
        /// The step expression.
        step: Option<Expr>,
        /// The body.
        body: Block,
    },
    /// `switch (cond) { case k: ...; default: ... }`. Fallthrough is
    /// irrelevant to the flow-insensitive analysis, so each arm holds the
    /// statements up to the next label.
    Switch {
        /// The scrutinee.
        cond: Expr,
        /// The arms; `value` is `None` for `default`.
        arms: Vec<SwitchArm>,
    },
    /// A labelled statement `name: stmt`.
    Label(String, Box<Stmt>),
    /// `goto name;`.
    Goto(String, Span),
    /// `return [e];`.
    Return(Option<Expr>, Span),
    /// `break;`.
    Break(Span),
    /// `continue;`.
    Continue(Span),
    /// A nested block.
    Block(Block),
}

/// One arm of a `switch`.
#[derive(Debug, Clone)]
pub struct SwitchArm {
    /// The case value (`None` for `default`).
    pub value: Option<i64>,
    /// The statements up to the next label.
    pub body: Block,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-e`.
    Neg,
    /// `!e`.
    Not,
    /// `~e`.
    BitNot,
    /// `*e`.
    Deref,
    /// `&e`.
    Addr,
    /// `++e`.
    PreInc,
    /// `--e`.
    PreDec,
}

/// Binary operators (all produce scalars except pointer arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (includes pointer + int).
    Add,
    /// `-` (includes pointer - int and pointer - pointer).
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Rem,
    /// `<<`.
    Shl,
    /// `>>`.
    Shr,
    /// `&`.
    BitAnd,
    /// `|`.
    BitOr,
    /// `^`.
    BitXor,
    /// `<`.
    Lt,
    /// `>`.
    Gt,
    /// `<=`.
    Le,
    /// `>=`.
    Ge,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `&&`.
    And,
    /// `||`.
    Or,
}

/// Compound-assignment operators (`=` is `AssignOp::Plain`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`.
    Plain,
    /// `+=`, `-=`, `*=` … — the underlying arithmetic op.
    Compound(BinOp),
}

/// An expression node with a unique id (sema results are indexed by it).
#[derive(Debug, Clone)]
pub struct Expr {
    /// The form.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
    /// Unique id within the program.
    pub id: u32,
}

/// Expression forms.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Character literal.
    CharLit(i64),
    /// String literal (type `ptr(const char)`).
    StrLit(String),
    /// An identifier (variable, enum constant, or function).
    Ident(String),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// Postfix `e++` / `e--`.
    PostIncDec(Box<Expr>, bool),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Assignment `lhs op= rhs`.
    Assign(AssignOp, Box<Expr>, Box<Expr>),
    /// A call `f(args)`.
    Call(Box<Expr>, Vec<Expr>),
    /// Indexing `e[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Member access `e.f`.
    Member(Box<Expr>, String),
    /// Pointer member access `e->f`.
    PMember(Box<Expr>, String),
    /// An explicit cast `(T)e` — severs qualifier flow (§4.2).
    Cast(CTy, Box<Expr>),
    /// Ternary `c ? t : f`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `sizeof(T)` / `sizeof e` (both type `int` here).
    Sizeof,
    /// Comma `a, b`.
    Comma(Box<Expr>, Box<Expr>),
}

impl Program {
    /// Iterates over the defined functions.
    pub fn functions(&self) -> impl Iterator<Item = &FnDef> {
        self.items.iter().filter_map(|i| match i {
            Item::Func(f) => Some(f),
            _ => None,
        })
    }

    /// Finds a defined function by name.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&FnDef> {
        self.functions().find(|f| f.name == name)
    }

    /// The struct table: tag → fields.
    #[must_use]
    pub fn structs(&self) -> std::collections::HashMap<&str, &[(String, CTy)]> {
        self.items
            .iter()
            .filter_map(|i| match i {
                Item::StructDef { name, fields, .. } => {
                    Some((name.as_str(), fields.as_slice()))
                }
                _ => None,
            })
            .collect()
    }

    /// Replaces the named function definition with an equivalent
    /// prototype. Fault isolation uses this to exclude a function whose
    /// analysis failed: calls to it still resolve, but it is treated
    /// like an unanalyzable library function.
    pub fn demote_to_proto(&mut self, name: &str) {
        for item in &mut self.items {
            if let Item::Func(f) = item {
                if f.name == name {
                    *item = Item::Proto {
                        name: f.name.clone(),
                        sig: f.sig(),
                        storage: f.storage,
                        span: f.span,
                    };
                }
            }
        }
    }

    /// Drops the initializer of the named global (fault isolation for a
    /// global whose initializer failed analysis).
    pub fn drop_global_init(&mut self, name: &str) {
        for item in &mut self.items {
            if let Item::Global {
                name: n, init, ..
            } = item
            {
                if n == name {
                    *init = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_sig_collects_param_types() {
        let f = FnDef {
            name: "f".into(),
            ret: CTy::int(),
            params: vec![("x".into(), CTy::int()), ("p".into(), CTy::char_().ptr_to())],
            varargs: true,
            body: Block::default(),
            storage: Storage::None,
            span: Span::default(),
        };
        let sig = f.sig();
        assert_eq!(sig.params.len(), 2);
        assert!(sig.varargs);
        assert_eq!(sig.ret, CTy::int());
    }
}
