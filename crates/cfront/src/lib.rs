//! A C front end serving as the substrate for the const-inference system
//! of *A Theory of Type Qualifiers* (PLDI 1999), §4.
//!
//! The paper prototyped its qualifier extensions against an ANSI C front
//! end ("The extensions required only trivial modifications", §2.5).
//! This crate provides the analogous substrate: a lexer, a
//! recursive-descent parser for a broad C subset (declarators with
//! per-level `const`, structs, enums, typedefs, arrays, function
//! pointers, full expression and statement grammars, varargs), and a
//! semantic analysis pass ([`sema`]) that resolves every expression to
//! its C type and l-value-ness — exactly what qualifier inference
//! consumes.
//!
//! There is no preprocessor: the analysis is independent of it, and the
//! benchmark generator emits preprocessed sources.
//!
//! ```
//! let src = "int add(int a, int b) { return a + b; }";
//! let program = qual_cfront::parse(src)?;
//! let sema = qual_cfront::sema::analyze(&program)?;
//! assert_eq!(program.functions().count(), 1);
//! # let _ = sema;
//! # Ok::<(), qual_cfront::CError>(())
//! ```

pub mod ast;
pub mod error;
pub mod fxhash;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod scope;
pub mod sema;
pub mod types;

pub use ast::{FnDef, Item, Program};
pub use error::CError;
pub use lexer::Span;
pub use parser::{parse, parse_with_recovery, RecoveredParse};
pub use types::{CTy, CTyKind, FnTy, Scalar};
