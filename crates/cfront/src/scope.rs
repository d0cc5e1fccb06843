//! A lexically scoped symbol table that borrows its names.
//!
//! Sema's local types and the inference engine's local cells are both
//! looked up by name through nested blocks. The table keeps one map from
//! each name to its innermost binding; a binding remembers the one it
//! shadows, and each open scope remembers where its declarations start.
//! Closing a scope unwinds exactly those declarations. Names are the
//! program's own `&str`s, so a declaration copies no name, and once the
//! table has grown to a function's size a block allocates nothing.

use crate::fxhash::FxHashMap;

/// Scoped bindings from names borrowed for `'n` to values `T`.
#[derive(Debug)]
pub struct Scopes<'n, T> {
    /// Each visible name's innermost binding, as an index into `bindings`.
    innermost: FxHashMap<&'n str, usize>,
    /// Every live binding in declaration order: the name, its value and
    /// the binding of the same name it shadows.
    bindings: Vec<(&'n str, T, Option<usize>)>,
    /// For each open scope, the length of `bindings` when it opened.
    opened: Vec<usize>,
}

impl<T> Default for Scopes<'_, T> {
    fn default() -> Self {
        Scopes {
            innermost: FxHashMap::default(),
            bindings: Vec::new(),
            opened: Vec::new(),
        }
    }
}

impl<'n, T> Scopes<'n, T> {
    /// Drops every binding and scope, keeping the allocations. Call it
    /// before each function body and global initializer: a body that
    /// failed partway may have left scopes open.
    pub fn reset(&mut self) {
        self.innermost.clear();
        self.bindings.clear();
        self.opened.clear();
    }

    /// Opens a nested scope.
    pub fn open(&mut self) {
        self.opened.push(self.bindings.len());
    }

    /// Closes the innermost scope, unshadowing what its declarations hid.
    pub fn close(&mut self) {
        let start = self.opened.pop().expect("close pairs with an open");
        // Newest first: a name declared twice in the scope must end up
        // back at what the first declaration shadowed.
        for (name, _, shadowed) in self.bindings.drain(start..).rev() {
            match shadowed {
                Some(i) => {
                    self.innermost.insert(name, i);
                }
                None => {
                    self.innermost.remove(name);
                }
            }
        }
    }

    /// Binds `name` to `value` in the innermost scope. A second
    /// declaration in one scope shadows the first until the scope closes.
    pub fn declare(&mut self, name: &'n str, value: T) {
        let shadowed = self.innermost.insert(name, self.bindings.len());
        self.bindings.push((name, value, shadowed));
    }

    /// The innermost binding of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&T> {
        self.innermost.get(name).map(|&i| &self.bindings[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadowing_unwinds_scope_by_scope() {
        let mut s: Scopes<'_, u32> = Scopes::default();
        s.open();
        s.declare("p", 1);
        s.open();
        s.declare("p", 2);
        s.declare("q", 3);
        // A redeclaration in one scope wins until the scope closes.
        s.declare("q", 4);
        assert_eq!((s.get("p"), s.get("q")), (Some(&2), Some(&4)));
        s.close();
        assert_eq!((s.get("p"), s.get("q")), (Some(&1), None));
        s.close();
        assert_eq!(s.get("p"), None);

        // A reset forgets scopes a failed body left open.
        s.open();
        s.declare("r", 5);
        s.open();
        s.reset();
        assert_eq!(s.get("r"), None);
        s.open();
        s.declare("r", 6);
        assert_eq!(s.get("r"), Some(&6));
    }
}
