//! Rewriting the program with inferred consts — the tool output the
//! paper describes in §4.2: "Ultimately we would like the analysis
//! result to be the text of the original C program with some extra
//! const qualifiers inserted."
//!
//! For the *monomorphic* analysis, every position classified const-able
//! can be made `const` simultaneously and the program stays type
//! correct (the greatest solution witnesses all of them at once — the
//! paper: "For the monomorphic type system we can make all of these
//! positions const and still have a type correct program"). For the
//! polymorphic analysis the extra positions must remain unconstrained
//! variables, so only the monomorphic result should be written back.

use std::collections::HashSet;
use std::sync::Arc;

use qual_cfront::ast::{Item, Program};
use qual_cfront::pretty::render_program;
use qual_cfront::{CTy, CTyKind};

use crate::count::{const_able, ConstAble, ConstResult};

/// Returns a copy of `prog` with `const` inserted at every const-able
/// interesting position of `result` (defined functions' parameter and
/// return types; prototypes of defined functions are updated to match).
#[must_use]
pub fn apply_consts(prog: &Program, result: &ConstResult) -> Program {
    let can = const_able(&result.positions);
    let defined: HashSet<&str> = prog.functions().map(|f| f.name.as_str()).collect();
    let mut out = prog.clone();
    for item in &mut out.items {
        match item {
            Item::Func(f) => {
                for (i, (_, pty)) in f.params.iter_mut().enumerate() {
                    *pty = with_consts(pty, &can, &f.name, Some(i));
                }
                f.ret = with_consts(&f.ret, &can, &f.name, None);
            }
            // Keep prototypes of *defined* functions in sync.
            Item::Proto { name, sig, .. } if defined.contains(name.as_str()) => {
                for (i, pty) in sig.params.iter_mut().enumerate() {
                    *pty = with_consts(pty, &can, name, Some(i));
                }
                sig.ret = with_consts(&sig.ret, &can, name, None);
            }
            _ => {}
        }
    }
    out
}

/// Renders the rewritten program as C source.
#[must_use]
pub fn rewrite_source(prog: &Program, result: &ConstResult) -> String {
    render_program(&apply_consts(prog, result))
}

/// Sets `is_const` on each pointee level classified const-able.
fn with_consts(ty: &CTy, table: &ConstAble<'_>, func: &str, param: Option<usize>) -> CTy {
    fn go(ty: &CTy, level: usize, table: &ConstAble<'_>, func: &str, param: Option<usize>) -> CTy {
        match &ty.kind {
            CTyKind::Ptr(inner) => {
                let mut new_inner = go(inner, level + 1, table, func, param);
                if table.get(&(func, param, level)) == Some(&true) {
                    new_inner.is_const = true;
                }
                CTy {
                    is_const: ty.is_const,
                    kind: CTyKind::Ptr(Arc::new(new_inner)),
                }
            }
            CTyKind::Array(inner, n) => {
                let mut new_inner = go(inner, level + 1, table, func, param);
                if table.get(&(func, param, level)) == Some(&true) {
                    new_inner.is_const = true;
                }
                CTy {
                    is_const: ty.is_const,
                    kind: CTyKind::Array(Arc::new(new_inner), *n),
                }
            }
            _ => ty.clone(),
        }
    }
    go(ty, 0, table, func, param)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::analyze_source;
    use crate::engine::Mode;

    #[test]
    fn rewrite_inserts_consts_and_stays_correct() {
        let src = "int reader(char *s) { return *s; }
                   void writer(char *p) { *p = 1; }
                   int main(void) { char b[4]; writer(b); return reader(b); }";
        let original = analyze_source(src, Mode::Monomorphic).unwrap();
        let prog = qual_cfront::parse(src).unwrap();
        let rewritten = rewrite_source(&prog, &original);
        assert!(
            rewritten.contains("const char *s"),
            "reader gains const:\n{rewritten}"
        );
        assert!(
            !rewritten.contains("const char *p"),
            "writer must not:\n{rewritten}"
        );

        // The rewritten program re-analyzes: satisfiable, and everything
        // inferable is now declared.
        let again = analyze_source(&rewritten, Mode::Monomorphic)
            .unwrap_or_else(|e| panic!("rewritten program broken: {e}\n{rewritten}"));
        assert!(again.analysis.solution.is_ok());
        assert_eq!(again.counts.declared, original.counts.inferred);
        assert_eq!(again.counts.inferred, original.counts.inferred);
        assert_eq!(again.counts.total, original.counts.total);
    }

    #[test]
    fn double_pointer_rewrite() {
        let src = "int f(char **v) { return *v[0]; }";
        let original = analyze_source(src, Mode::Monomorphic).unwrap();
        assert_eq!(original.counts.inferred, 2);
        let prog = qual_cfront::parse(src).unwrap();
        let rewritten = rewrite_source(&prog, &original);
        // Both levels become const: `const char * const *v`.
        assert!(
            rewritten.contains("const char * const *v"),
            "got:\n{rewritten}"
        );
        let again = analyze_source(&rewritten, Mode::Monomorphic).unwrap();
        assert!(again.analysis.solution.is_ok());
        assert_eq!(again.counts.declared, 2);
    }

    #[test]
    fn prototypes_of_defined_functions_follow() {
        let src = "int reader(char *s);
                   int reader(char *s) { return *s; }
                   int main(void) { return reader(\"x\"); }";
        let original = analyze_source(src, Mode::Monomorphic).unwrap();
        let prog = qual_cfront::parse(src).unwrap();
        let rewritten = rewrite_source(&prog, &original);
        // Both the proto and the definition updated consistently (the
        // prototype's parameter name is not preserved, only its type).
        assert_eq!(rewritten.matches("const char *").count(), 2, "{rewritten}");
        assert!(analyze_source(&rewritten, Mode::Monomorphic).is_ok());
    }
}
