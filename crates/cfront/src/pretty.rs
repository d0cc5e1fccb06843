//! Pretty-printer: renders a [`Program`] back to compilable C source.
//!
//! This is the other half of the paper's goal for the const-inference
//! tool: "Ultimately we would like the analysis result to be the text of
//! the original C program with some extra const qualifiers inserted"
//! (§4.2). `qual-constinfer` rewrites the declaration types and calls
//! this printer; the round-trip property (print → parse → analyze gives
//! the same result) is tested in the constinfer crate.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::ast::{
    AssignOp, BinOp, Block, Expr, ExprKind, FnDef, Item, Program, Stmt, Storage, UnOp,
};
use crate::types::{CTy, CTyKind, FnTy};

/// Renders a whole program.
#[must_use]
pub fn render_program(p: &Program) -> String {
    let mut out = String::new();
    for item in &p.items {
        render_item(item, &mut out);
        out.push('\n');
    }
    out
}

/// Renders one item to its canonical source text. The pretty-printer is
/// deterministic, so this string is a content fingerprint of the item:
/// two items render identically iff they are structurally identical up
/// to spans — which is exactly the equivalence the incremental cache
/// wants to hash.
#[must_use]
pub fn render_item_text(item: &Item) -> String {
    let mut out = String::new();
    render_item(item, &mut out);
    out
}

/// Renders one C declaration: base type + declarator around `name`
/// (the inverse of declarator parsing, handling pointers with per-level
/// `const`, arrays, and function declarators).
#[must_use]
pub fn render_decl(ty: &CTy, name: &str) -> String {
    let (base, decl) = split_decl(ty, name.to_owned());
    if decl.is_empty() {
        base
    } else {
        format!("{base} {decl}")
    }
}

/// Splits a type into its base-specifier string and the declarator text.
fn split_decl(ty: &CTy, inner: String) -> (String, String) {
    match &ty.kind {
        CTyKind::Scalar(s) => {
            let cq = if ty.is_const { "const " } else { "" };
            (format!("{cq}{s}"), inner)
        }
        CTyKind::Struct(tag) => {
            let cq = if ty.is_const { "const " } else { "" };
            (format!("{cq}struct {tag}"), inner)
        }
        CTyKind::Ptr(pointee) => {
            let cq = match (ty.is_const, inner.is_empty()) {
                (true, true) => " const",
                (true, false) => " const ",
                (false, _) => "",
            };
            let needs_paren = matches!(pointee.kind, CTyKind::Array(..) | CTyKind::Func(_));
            let wrapped = format!("*{cq}{inner}");
            let wrapped = if needs_paren {
                format!("({wrapped})")
            } else {
                wrapped
            };
            split_decl(pointee, wrapped)
        }
        CTyKind::Array(elem, n) => {
            let dim = n.map_or(String::new(), |v| v.to_string());
            split_decl(elem, format!("{inner}[{dim}]"))
        }
        CTyKind::Func(ft) => {
            let params = render_params(ft);
            split_decl(&ft.ret, format!("{inner}({params})"))
        }
    }
}

fn render_params(ft: &FnTy) -> String {
    if ft.params.is_empty() && !ft.varargs {
        return "void".to_owned();
    }
    let mut s = String::new();
    for (i, p) in ft.params.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&render_decl(p, ""));
    }
    if ft.varargs {
        if !ft.params.is_empty() {
            s.push_str(", ");
        }
        s.push_str("...");
    }
    s
}

fn render_item(item: &Item, out: &mut String) {
    match item {
        Item::Typedef { name, ty, .. } => {
            let _ = writeln!(out, "typedef {};", render_decl(ty, name));
        }
        Item::StructDef { name, fields, .. } => {
            let _ = writeln!(out, "struct {name} {{");
            for (fname, fty) in fields {
                let _ = writeln!(out, "  {};", render_decl(fty, fname));
            }
            out.push_str("};\n");
        }
        Item::EnumDef { name, consts, .. } => {
            let _ = writeln!(out, "enum {name} {{");
            for (cname, v) in consts {
                let _ = writeln!(out, "  {cname} = {v},");
            }
            out.push_str("};\n");
        }
        Item::Global {
            name,
            ty,
            init,
            storage,
            ..
        } => {
            out.push_str(storage_str(*storage));
            out.push_str(&render_decl(ty, name));
            if let Some(e) = init {
                out.push_str(" = ");
                render_expr(e, out);
            }
            out.push_str(";\n");
        }
        Item::Func(f) => render_fn(f, out),
        Item::Proto {
            name,
            sig,
            storage,
            ..
        } => {
            out.push_str(storage_str(*storage));
            let fty = CTy {
                is_const: false,
                kind: CTyKind::Func(Arc::new(sig.clone())),
            };
            out.push_str(&render_decl(&fty, name));
            out.push_str(";\n");
        }
    }
}

fn storage_str(s: Storage) -> &'static str {
    match s {
        Storage::None => "",
        Storage::Static => "static ",
        Storage::Extern => "extern ",
    }
}

fn render_fn(f: &FnDef, out: &mut String) {
    out.push_str(storage_str(f.storage));
    out.push_str(&render_decl(&f.ret, ""));
    let _ = write!(out, " {}(", f.name);
    if f.params.is_empty() && !f.varargs {
        out.push_str("void");
    }
    for (i, (pname, pty)) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&render_decl(pty, pname));
    }
    if f.varargs {
        if !f.params.is_empty() {
            out.push_str(", ");
        }
        out.push_str("...");
    }
    out.push_str(") ");
    render_block(&f.body, 0, out);
    out.push('\n');
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn render_block(b: &Block, level: usize, out: &mut String) {
    out.push_str("{\n");
    for s in &b.stmts {
        render_stmt(s, level + 1, out);
    }
    indent(level, out);
    out.push_str("}\n");
}

fn render_stmt(s: &Stmt, level: usize, out: &mut String) {
    indent(level, out);
    match s {
        Stmt::Decl { name, ty, init, .. } => {
            out.push_str(&render_decl(ty, name));
            if let Some(e) = init {
                out.push_str(" = ");
                render_expr(e, out);
            }
            out.push_str(";\n");
        }
        Stmt::Expr(e) => {
            render_expr(e, out);
            out.push_str(";\n");
        }
        Stmt::If { cond, then, els } => {
            out.push_str("if (");
            render_expr(cond, out);
            out.push_str(") ");
            render_block(then, level, out);
            if let Some(b) = els {
                indent(level, out);
                out.push_str("else ");
                render_block(b, level, out);
            }
        }
        Stmt::While { cond, body } => {
            out.push_str("while (");
            render_expr(cond, out);
            out.push_str(") ");
            render_block(body, level, out);
        }
        Stmt::DoWhile { body, cond } => {
            out.push_str("do ");
            render_block(body, level, out);
            indent(level, out);
            out.push_str("while (");
            render_expr(cond, out);
            out.push_str(");\n");
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            out.push_str("for (");
            match init.as_deref() {
                Some(Stmt::Decl { name, ty, init, .. }) => {
                    out.push_str(&render_decl(ty, name));
                    if let Some(e) = init {
                        out.push_str(" = ");
                        render_expr(e, out);
                    }
                    out.push(';');
                }
                Some(Stmt::Expr(e)) => {
                    render_expr(e, out);
                    out.push(';');
                }
                _ => out.push(';'),
            }
            out.push(' ');
            if let Some(e) = cond {
                render_expr(e, out);
            }
            out.push_str("; ");
            if let Some(e) = step {
                render_expr(e, out);
            }
            out.push_str(") ");
            render_block(body, level, out);
        }
        Stmt::Switch { cond, arms } => {
            out.push_str("switch (");
            render_expr(cond, out);
            out.push_str(") {\n");
            for arm in arms {
                indent(level + 1, out);
                match arm.value {
                    Some(v) => {
                        let _ = writeln!(out, "case {v}:");
                    }
                    None => out.push_str("default:\n"),
                }
                for st in &arm.body.stmts {
                    render_stmt(st, level + 2, out);
                }
                // Arms are parsed as delimited bodies; make fallthrough
                // explicit only when the source didn't already end the
                // arm with a jump.
                if !matches!(
                    arm.body.stmts.last(),
                    Some(Stmt::Break(_) | Stmt::Return(..) | Stmt::Continue(_) | Stmt::Goto(..))
                ) {
                    indent(level + 2, out);
                    out.push_str("break;\n");
                }
            }
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::Label(name, inner) => {
            let _ = writeln!(out, "{name}:");
            render_stmt(inner, level, out);
        }
        Stmt::Goto(label, _) => {
            let _ = writeln!(out, "goto {label};");
        }
        Stmt::Return(e, _) => {
            out.push_str("return");
            if let Some(e) = e {
                out.push(' ');
                render_expr(e, out);
            }
            out.push_str(";\n");
        }
        Stmt::Break(_) => out.push_str("break;\n"),
        Stmt::Continue(_) => out.push_str("continue;\n"),
        Stmt::Block(b) => render_block(b, level, out),
    }
}

fn un_op(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "-",
        UnOp::Not => "!",
        UnOp::BitNot => "~",
        UnOp::Deref => "*",
        UnOp::Addr => "&",
        UnOp::PreInc => "++",
        UnOp::PreDec => "--",
    }
}

fn bin_op(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::BitAnd => "&",
        BinOp::BitOr => "|",
        BinOp::BitXor => "^",
        BinOp::Lt => "<",
        BinOp::Gt => ">",
        BinOp::Le => "<=",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

/// Renders an expression. Subexpressions are parenthesized liberally —
/// the output is for re-analysis, not beauty contests.
fn render_expr(e: &Expr, out: &mut String) {
    match &e.kind {
        ExprKind::IntLit(n) => {
            let _ = write!(out, "{n}");
        }
        ExprKind::CharLit(c) => {
            let _ = write!(out, "{c}");
        }
        ExprKind::StrLit(s) => {
            out.push('"');
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    '\0' => out.push_str("\\0"),
                    other => out.push(other),
                }
            }
            out.push('"');
        }
        ExprKind::Ident(x) => out.push_str(x),
        ExprKind::Unary(op, a) => {
            out.push('(');
            out.push_str(un_op(*op));
            render_expr(a, out);
            out.push(')');
        }
        ExprKind::PostIncDec(a, inc) => {
            out.push('(');
            render_expr(a, out);
            out.push_str(if *inc { "++" } else { "--" });
            out.push(')');
        }
        ExprKind::Binary(op, a, b) => {
            out.push('(');
            render_expr(a, out);
            let _ = write!(out, " {} ", bin_op(*op));
            render_expr(b, out);
            out.push(')');
        }
        ExprKind::Assign(op, a, b) => {
            out.push('(');
            render_expr(a, out);
            match op {
                AssignOp::Plain => out.push_str(" = "),
                AssignOp::Compound(b_op) => {
                    let _ = write!(out, " {}= ", bin_op(*b_op));
                }
            }
            render_expr(b, out);
            out.push(')');
        }
        ExprKind::Call(f, args) => {
            render_expr(f, out);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(a, out);
            }
            out.push(')');
        }
        ExprKind::Index(a, i) => {
            render_expr(a, out);
            out.push('[');
            render_expr(i, out);
            out.push(']');
        }
        ExprKind::Member(a, f) => {
            render_expr(a, out);
            out.push('.');
            out.push_str(f);
        }
        ExprKind::PMember(a, f) => {
            render_expr(a, out);
            out.push_str("->");
            out.push_str(f);
        }
        ExprKind::Cast(ty, a) => {
            let _ = write!(out, "(({})", render_decl(ty, ""));
            render_expr(a, out);
            out.push(')');
        }
        ExprKind::Cond(c, t, f) => {
            out.push('(');
            render_expr(c, out);
            out.push_str(" ? ");
            render_expr(t, out);
            out.push_str(" : ");
            render_expr(f, out);
            out.push(')');
        }
        ExprKind::Sizeof => out.push_str("sizeof(int)"),
        ExprKind::Comma(a, b) => {
            out.push('(');
            render_expr(a, out);
            out.push_str(", ");
            render_expr(b, out);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn decl_rendering() {
        use crate::types::Scalar;
        let t = CTy::int().with_const().ptr_to();
        assert_eq!(render_decl(&t, "x"), "const int *x");
        let t = CTy::int().ptr_to().with_const();
        assert_eq!(render_decl(&t, "y"), "int * const y");
        let t = CTy::char_().ptr_to().ptr_to();
        assert_eq!(render_decl(&t, "argv"), "char **argv");
        let arr = CTy {
            is_const: false,
            kind: CTyKind::Array(Arc::new(CTy::char_()), Some(16)),
        };
        assert_eq!(render_decl(&arr, "buf"), "char buf[16]");
        let fp = CTy {
            is_const: false,
            kind: CTyKind::Ptr(Arc::new(CTy {
                is_const: false,
                kind: CTyKind::Func(Arc::new(FnTy {
                    ret: CTy::int(),
                    params: vec![CTy::scalar(Scalar::Int)],
                    varargs: false,
                })),
            })),
        };
        assert_eq!(render_decl(&fp, "handler"), "int (*handler)(int)");
    }

    fn round_trip(src: &str) {
        let p1 = parse(src).expect("original parses");
        let text = render_program(&p1);
        let p2 = parse(&text).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{text}"));
        let text2 = render_program(&p2);
        assert_eq!(text, text2, "printer not a fixpoint for:\n{src}");
    }

    #[test]
    fn program_round_trips() {
        round_trip(
            "extern int printf(const char *fmt, ...);
             struct st { int x; char *name; };
             int g = 3;
             static char buf[32];
             int reader(const char *s, int n) {
               int acc = 0;
               for (int i = 0; i < n; i++) acc += s[i];
               while (acc > 100) acc--;
               if (acc) return acc; else return -acc;
             }
             int main(void) {
               struct st v;
               v.x = reader(\"hi\\n\", 2);
               printf(\"%d\", v.x);
               do { v.x--; } while (v.x > 0);
               return (int)(v.x ? 1 : 0, 0);
             }",
        );
    }

    #[test]
    fn tricky_declarators_round_trip() {
        round_trip("int (*handler)(int); char *(*gets_like)(char *, int);");
        round_trip("typedef int *ip; int matrix[4][8];");
    }

    #[test]
    fn pointer_expressions_round_trip() {
        round_trip(
            "void f(int *p, char **v) {
               *p = p[1] + 1;
               v[0][2] = 'x';
               p++; --p;
               *p += 3;
             }",
        );
    }
}
