//! Qualified C types: the θ translation of §4.1.
//!
//! Every C variable denotes an updateable memory location, so a declared
//! variable of C type `T` gets qualified type `ref(tr(T))`, and each
//! `const` in the C type shifts one level up onto the corresponding
//! `ref` constructor:
//!
//! ```text
//! θ(CTyp)        = Q′ ref(ρ)           where (Q′, ρ) = θ′(CTyp)
//! θ′(Q int)      = (Q, ⊥ int)
//! θ′(Q ptr(CT))  = (Q, Q′ ref(ρ))      where (Q′, ρ) = θ′(CT)
//! ```
//!
//! The advantage (as the paper notes) is that the *standard* invariant
//! subtyping rule for `ref` then gives exactly C's assignment
//! compatibility for pointers to const.

use std::sync::Arc;

use qual_cfront::fxhash::FxHashMap;
use qual_cfront::{CTy, CTyKind};
use qual_lattice::QualSpace;
use qual_solve::{ConstraintSet, Provenance, QVar, Qual, VarSupply};

/// Index of a node in the [`QcArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QcId(u32);

impl QcId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Shapes of qualified C types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QcShape {
    /// A scalar value.
    Val,
    /// A memory cell holding a value of the child type. Pointers *are*
    /// refs in this encoding (a pointer r-value is a reference to the
    /// pointed-to cell).
    Ref(QcId),
    /// A struct value; its fields are shared globally through the
    /// [`StructTable`] (§4.2: instances may differ only at top level).
    /// The tag is the C type's own, shared.
    Struct(Arc<str>),
    /// A function value (signatures are tracked separately).
    Fun,
}

/// A node: a qualifier term and a shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QcNode {
    /// The qualifier on this level.
    pub qual: Qual,
    /// The constructor.
    pub shape: QcShape,
}

/// Arena of qualified C types.
#[derive(Debug, Default)]
pub struct QcArena {
    nodes: Vec<QcNode>,
}

impl QcArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> QcArena {
        QcArena::default()
    }

    /// Interns a node.
    pub fn mk(&mut self, qual: Qual, shape: QcShape) -> QcId {
        let id = QcId(u32::try_from(self.nodes.len()).expect("qc arena overflow"));
        self.nodes.push(QcNode { qual, shape });
        id
    }

    /// The node at `id`.
    #[must_use]
    pub fn get(&self, id: QcId) -> &QcNode {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The pointer "spine" of a value node: the chain of `Ref` nodes
    /// reachable by repeatedly following pointer levels. These are the
    /// *interesting* const positions of §4.4 when the value is a
    /// function parameter or result.
    #[must_use]
    pub fn spine(&self, id: QcId) -> Vec<QcId> {
        let mut out = Vec::new();
        let mut cur = id;
        while let QcShape::Ref(inner) = &self.get(cur).shape {
            out.push(cur);
            cur = *inner;
        }
        out
    }

    /// Deep copy applying `subst` to every qualifier variable (for
    /// polymorphic instantiation). Struct shapes are shared, not copied —
    /// their fields are global by design.
    pub fn copy_with(&mut self, id: QcId, subst: &dyn Fn(QVar) -> QVar) -> QcId {
        let node = self.get(id).clone();
        let shape = match node.shape {
            QcShape::Val => QcShape::Val,
            QcShape::Fun => QcShape::Fun,
            QcShape::Struct(tag) => QcShape::Struct(tag),
            QcShape::Ref(inner) => {
                let ci = self.copy_with(inner, subst);
                QcShape::Ref(ci)
            }
        };
        let qual = match node.qual {
            Qual::Var(v) => Qual::Var(subst(v)),
            Qual::Const(c) => Qual::Const(c),
        };
        self.mk(qual, shape)
    }

    /// Collects the qualifier variables in `id` (spine plus value).
    pub fn vars_of(&self, id: QcId, out: &mut Vec<QVar>) {
        let node = self.get(id);
        if let Qual::Var(v) = node.qual {
            out.push(v);
        }
        if let QcShape::Ref(inner) = node.shape {
            self.vars_of(inner, out);
        }
    }
}

/// Shared struct-field cells: one qualified l-value per `(tag, field)`,
/// shared by every instance of the struct (§4.2: "if a and b are declared
/// with the same struct type ... the qualifiers on their fields must be
/// identical").
#[derive(Debug, Default)]
pub struct StructTable {
    /// Per tag, the name and cell of each field declared so far.
    fields: FxHashMap<String, Vec<(String, QcId)>>,
}

impl StructTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> StructTable {
        StructTable::default()
    }

    /// Creates, via θ on the field's C type, the cell of every field of
    /// `structs` that `wanted(tag, field)` accepts and that has none
    /// yet: tags in sorted order, each tag's fields in declaration
    /// order.
    pub fn declare(
        &mut self,
        structs: &FxHashMap<String, Vec<(String, CTy)>>,
        wanted: impl Fn(&str, &str) -> bool,
        tr: &mut Translator<'_>,
    ) {
        let mut todo: Vec<(&String, &String, &CTy)> = structs
            .iter()
            .flat_map(|(tag, fields)| fields.iter().map(move |(field, ty)| (tag, field, ty)))
            .filter(|(tag, field, _)| wanted(tag, field) && self.field_cell(tag, field).is_none())
            .collect();
        // Stable: each tag's fields keep their declaration order.
        todo.sort_by_key(|&(tag, _, _)| tag);
        for (tag, field, ty) in todo {
            let cell = (field.clone(), tr.lvalue_of(ty));
            match self.fields.get_mut(tag) {
                Some(cells) => cells.push(cell),
                None => {
                    self.fields.insert(tag.clone(), vec![cell]);
                }
            }
        }
    }

    /// The shared l-value cell of `tag.field`, once declared.
    #[must_use]
    pub fn field_cell(&self, tag: &str, field: &str) -> Option<QcId> {
        self.fields
            .get(tag)?
            .iter()
            .find_map(|(name, id)| (name == field).then_some(*id))
    }

    /// Every cell, as `(tag, field, cell)`.
    pub fn cells(&self) -> impl Iterator<Item = (&str, &str, QcId)> {
        self.fields.iter().flat_map(|(tag, fields)| {
            fields
                .iter()
                .map(move |(field, id)| (tag.as_str(), field.as_str(), *id))
        })
    }
}

/// Builds qualified types from C types (the θ translation).
pub struct Translator<'a> {
    /// The target arena.
    pub arena: &'a mut QcArena,
    /// The qualifier variable supply.
    pub supply: &'a mut VarSupply,
    /// The qualifier space (must declare `const`).
    pub space: &'a QualSpace,
    /// Constraints receiving `const` lower bounds for declared consts.
    pub cs: &'a mut ConstraintSet,
}

impl Translator<'_> {
    /// A fresh qualifier variable, lower-bounded by `const` when the
    /// source level was declared const.
    fn level_qual(&mut self, declared_const: bool, what: &'static str) -> Qual {
        let v = self.supply.fresh();
        if declared_const {
            if let Some(c) = self.space.id("const") {
                self.cs.add_with(
                    Qual::Const(self.space.just(c)),
                    Qual::Var(v),
                    Provenance::synthetic(what),
                );
            }
        }
        Qual::Var(v)
    }

    /// The qualified *r-value* type of a C type: `tr(T)`.
    pub fn rvalue_of(&mut self, ty: &CTy) -> QcId {
        match &ty.kind {
            CTyKind::Scalar(_) => {
                let q = self.level_qual(false, "scalar value");
                self.arena.mk(q, QcShape::Val)
            }
            CTyKind::Ptr(inner) | CTyKind::Array(inner, _) => {
                // A pointer value is a reference to the pointee cell; the
                // pointee's declared const lands on this ref (θ′ shift).
                let cell = self.rvalue_of(inner);
                let q = self.level_qual(inner.is_const, "declared const pointee");
                self.arena.mk(q, QcShape::Ref(cell))
            }
            CTyKind::Struct(tag) => {
                let q = self.level_qual(false, "struct value");
                self.arena.mk(q, QcShape::Struct(tag.clone()))
            }
            CTyKind::Func(_) => {
                let q = self.level_qual(false, "function value");
                self.arena.mk(q, QcShape::Fun)
            }
        }
    }

    /// The qualified *l-value* type of a declaration: `ref(tr(T))`, the
    /// ref qualifier carrying the declaration's top-level const.
    pub fn lvalue_of(&mut self, ty: &CTy) -> QcId {
        let val = self.rvalue_of(ty);
        let q = self.level_qual(ty.is_const, "declared const variable");
        self.arena.mk(q, QcShape::Ref(val))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qual_cfront::CTy;

    fn setup() -> (QcArena, VarSupply, QualSpace, ConstraintSet) {
        (
            QcArena::new(),
            VarSupply::new(),
            QualSpace::const_only(),
            ConstraintSet::new(),
        )
    }

    #[test]
    fn theta_shifts_const_onto_refs() {
        // const int *y: lty(y) = ref_⊥( ref_const( int ) )
        let (mut arena, mut supply, space, mut cs) = setup();
        let ty = CTy::int().with_const().ptr_to();
        let mut tr = Translator {
            arena: &mut arena,
            supply: &mut supply,
            space: &space,
            cs: &mut cs,
        };
        let l = tr.lvalue_of(&ty);
        let spine = arena.spine(l);
        // Spine: y's own cell, then the pointee cell.
        assert_eq!(spine.len(), 2);
        let sol = cs.solve(&space, &supply).unwrap();
        let c = space.id("const").unwrap();
        let own = sol.eval_least(arena.get(spine[0]).qual);
        let pointee = sol.eval_least(arena.get(spine[1]).qual);
        assert!(!own.has(&space, c), "y itself is assignable");
        assert!(pointee.has(&space, c), "the pointee is const");
    }

    #[test]
    fn theta_const_pointer() {
        // int * const y: lty(y) = ref_const( ref_⊥( int ) )
        let (mut arena, mut supply, space, mut cs) = setup();
        let ty = CTy::int().ptr_to().with_const();
        let mut tr = Translator {
            arena: &mut arena,
            supply: &mut supply,
            space: &space,
            cs: &mut cs,
        };
        let l = tr.lvalue_of(&ty);
        let spine = arena.spine(l);
        assert_eq!(spine.len(), 2);
        let sol = cs.solve(&space, &supply).unwrap();
        let c = space.id("const").unwrap();
        assert!(sol.eval_least(arena.get(spine[0]).qual).has(&space, c));
        assert!(!sol.eval_least(arena.get(spine[1]).qual).has(&space, c));
    }

    #[test]
    fn spine_counts_pointer_levels() {
        let (mut arena, mut supply, space, mut cs) = setup();
        let ty = CTy::char_().ptr_to().ptr_to(); // char **
        let (r, l) = {
            let mut tr = Translator {
                arena: &mut arena,
                supply: &mut supply,
                space: &space,
                cs: &mut cs,
            };
            (tr.rvalue_of(&ty), tr.lvalue_of(&ty))
        };
        assert_eq!(arena.spine(r).len(), 2);
        assert_eq!(arena.spine(l).len(), 3); // own cell + 2 pointer levels
    }

    #[test]
    fn struct_fields_are_shared() {
        let (mut arena, mut supply, space, mut cs) = setup();
        let mut table = StructTable::new();
        let fields = vec![("x".to_owned(), CTy::int()), ("y".to_owned(), CTy::int())];
        let structs: FxHashMap<_, _> = [("st".to_owned(), fields)].into_iter().collect();
        let mut tr = Translator {
            arena: &mut arena,
            supply: &mut supply,
            space: &space,
            cs: &mut cs,
        };
        table.declare(&structs, |_, field| field == "x", &mut tr);
        assert_eq!(table.field_cell("st", "y"), None, "only wanted fields");
        let a = table.field_cell("st", "x").unwrap();
        assert_eq!(
            table.field_cell("st", "x"),
            Some(a),
            "same field, same cell"
        );
        table.declare(&structs, |_, _| true, &mut tr);
        assert_eq!(table.field_cell("st", "x"), Some(a), "declared once");
        let other = table.field_cell("st", "y").unwrap();
        assert_ne!(a, other);
        assert_eq!(table.field_cell("st", "z"), None);
        assert_eq!(table.cells().count(), 2);
    }

    #[test]
    fn copy_with_shares_nothing_on_spine() {
        let (mut arena, mut supply, space, mut cs) = setup();
        let ty = CTy::int().ptr_to();
        let mut tr = Translator {
            arena: &mut arena,
            supply: &mut supply,
            space: &space,
            cs: &mut cs,
        };
        let r = tr.rvalue_of(&ty);
        let w = supply.fresh();
        let copy = arena.copy_with(r, &|_| w);
        let mut vars = Vec::new();
        arena.vars_of(copy, &mut vars);
        assert!(vars.iter().all(|v| *v == w));
    }
}
