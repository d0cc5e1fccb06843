//! C types for the subset front end, following the paper's §4.1 grammar
//! `CTyp ::= Q int | Q ptr(CTyp)` generalized with arrays, functions and
//! structs. Every type level carries a source `const` flag.
//!
//! Inner types, signatures and struct tags are shared behind [`Arc`]s:
//! sema records a type for every expression and the engine reads them
//! back, so cloning a type must cost a reference count, not a deep copy.
//! `Arc` rather than `Rc`, because `--jobs` threads share one program.

use std::fmt;
use std::sync::Arc;

/// Scalar base types (all analyzed alike; the distinctions only matter
/// for parsing and pretty-printing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scalar {
    /// `void` (only meaningful as a return type or behind a pointer).
    Void,
    /// `char` / `signed char` / `unsigned char`.
    Char,
    /// `short` and friends.
    Short,
    /// `int` (and `unsigned`).
    Int,
    /// `long`, `long long`, and friends.
    Long,
    /// `float`.
    Float,
    /// `double`.
    Double,
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scalar::Void => "void",
            Scalar::Char => "char",
            Scalar::Short => "short",
            Scalar::Int => "int",
            Scalar::Long => "long",
            Scalar::Float => "float",
            Scalar::Double => "double",
        })
    }
}

/// A function signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnTy {
    /// Return type.
    pub ret: CTy,
    /// Parameter types in order.
    pub params: Vec<CTy>,
    /// Whether the parameter list ends with `...`.
    pub varargs: bool,
}

/// A C type: a `const` flag plus a constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CTy {
    /// Whether this level is declared `const`.
    pub is_const: bool,
    /// The constructor.
    pub kind: CTyKind,
}

/// C type constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CTyKind {
    /// A scalar.
    Scalar(Scalar),
    /// Pointer to a type.
    Ptr(Arc<CTy>),
    /// Array with optional length (decays to pointer in r-positions).
    Array(Arc<CTy>, Option<u64>),
    /// A struct, referenced by name (fields live in the program table).
    Struct(Arc<str>),
    /// A function type (from declarators; used for prototypes and
    /// function pointers).
    Func(Arc<FnTy>),
}

impl CTy {
    /// A non-const scalar.
    #[must_use]
    pub fn scalar(s: Scalar) -> CTy {
        CTy {
            is_const: false,
            kind: CTyKind::Scalar(s),
        }
    }

    /// Plain `int`.
    #[must_use]
    pub fn int() -> CTy {
        CTy::scalar(Scalar::Int)
    }

    /// Plain `char`.
    #[must_use]
    pub fn char_() -> CTy {
        CTy::scalar(Scalar::Char)
    }

    /// Plain `void`.
    #[must_use]
    pub fn void() -> CTy {
        CTy::scalar(Scalar::Void)
    }

    /// Pointer to `self` (non-const pointer).
    #[must_use]
    pub fn ptr_to(self) -> CTy {
        CTy {
            is_const: false,
            kind: CTyKind::Ptr(Arc::new(self)),
        }
    }

    /// A copy of `self` with the `const` flag set.
    #[must_use]
    pub fn with_const(mut self) -> CTy {
        self.is_const = true;
        self
    }

    /// Whether the type is `void`.
    #[must_use]
    pub fn is_void(&self) -> bool {
        matches!(self.kind, CTyKind::Scalar(Scalar::Void))
    }

    /// Structural nesting depth of the type (1 for a scalar). The parser
    /// caps this at construction time, so every later recursion over a
    /// type spine (θ translation, unification, printing) is bounded.
    #[must_use]
    pub fn depth(&self) -> usize {
        match &self.kind {
            CTyKind::Scalar(_) | CTyKind::Struct(_) => 1,
            CTyKind::Ptr(inner) | CTyKind::Array(inner, _) => 1 + inner.depth(),
            CTyKind::Func(f) => {
                let params = f.params.iter().map(CTy::depth).max().unwrap_or(0);
                1 + f.ret.depth().max(params)
            }
        }
    }

    /// Whether the type is any pointer (or array, which decays).
    #[must_use]
    pub fn is_pointerish(&self) -> bool {
        matches!(self.kind, CTyKind::Ptr(_) | CTyKind::Array(..))
    }

    /// The pointee (for pointers and arrays).
    #[must_use]
    pub fn pointee(&self) -> Option<&CTy> {
        match &self.kind {
            CTyKind::Ptr(t) | CTyKind::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// Array-to-pointer decay for r-value positions.
    #[must_use]
    pub fn decayed(&self) -> CTy {
        match &self.kind {
            CTyKind::Array(t, _) => CTy {
                is_const: false,
                kind: CTyKind::Ptr(t.clone()),
            },
            _ => self.clone(),
        }
    }

    /// The number of pointer levels (each is an "interesting" const
    /// position in the paper's §4.4 counting).
    #[must_use]
    pub fn pointer_depth(&self) -> usize {
        match &self.kind {
            CTyKind::Ptr(t) | CTyKind::Array(t, _) => 1 + t.pointer_depth(),
            _ => 0,
        }
    }
}

impl fmt::Display for CTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_const {
            f.write_str("const ")?;
        }
        match &self.kind {
            CTyKind::Scalar(s) => write!(f, "{s}"),
            CTyKind::Ptr(t) => write!(f, "ptr({t})"),
            CTyKind::Array(t, Some(n)) => write!(f, "array[{n}]({t})"),
            CTyKind::Array(t, None) => write!(f, "array({t})"),
            CTyKind::Struct(name) => write!(f, "struct {name}"),
            CTyKind::Func(ft) => {
                write!(f, "fn(")?;
                for (i, p) in ft.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                if ft.varargs {
                    if !ft.params.is_empty() {
                        write!(f, ", ")?;
                    }
                    write!(f, "...")?;
                }
                write!(f, ") -> {}", ft.ret)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_builders() {
        let t = CTy::int().with_const().ptr_to();
        assert_eq!(t.to_string(), "ptr(const int)");
        assert!(t.is_pointerish());
        assert_eq!(t.pointer_depth(), 1);
        assert_eq!(t.pointee().unwrap().to_string(), "const int");
    }

    #[test]
    fn array_decay() {
        let arr = CTy {
            is_const: false,
            kind: CTyKind::Array(Arc::new(CTy::char_()), Some(16)),
        };
        assert_eq!(arr.to_string(), "array[16](char)");
        assert_eq!(arr.decayed().to_string(), "ptr(char)");
        assert_eq!(arr.pointer_depth(), 1);
    }

    #[test]
    fn double_pointer_depth() {
        let t = CTy::char_().ptr_to().ptr_to();
        assert_eq!(t.pointer_depth(), 2);
    }

    #[test]
    fn void_checks() {
        assert!(CTy::void().is_void());
        assert!(!CTy::int().is_void());
    }
}
