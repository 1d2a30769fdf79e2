//! Hash-consed term arena.
//!
//! All formulas in the workspace live in a [`Ctx`]: an arena of immutable
//! term nodes with hash-consing, so structurally equal terms always receive
//! the same [`TermId`]. This makes equality checks O(1), keeps memory linear
//! in the number of *distinct* subterms, and lets the simplifier memoize on
//! term identity.
//!
//! Constructors are deliberately *dumb*: apart from interning they perform no
//! simplification whatsoever (no flattening, no constant folding). Every
//! logical simplification is performed by [`crate::simplify`], where each of
//! the paper's fifteen rewrite rules can be individually disabled for the
//! rule-ablation experiment (E4 in DESIGN.md). The only canonicalization done
//! here is orienting the symmetric operators `Eq` and `Iff` by term id so
//! that `a = b` and `b = a` intern to the same node.

use std::collections::HashMap;
use std::fmt;

use crate::sort::{EnumDecl, EnumSortId, Sort};

/// Identifier of a variable declared in a [`Ctx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Identifier of an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// Metadata for a declared variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Display name.
    pub name: String,
    /// The variable's sort.
    pub sort: Sort,
}

/// A single interned term node. Children are [`TermId`]s into the same arena.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermNode {
    /// Boolean constant `true`.
    True,
    /// Boolean constant `false`.
    False,
    /// Boolean variable.
    BoolVar(VarId),
    /// Negation.
    Not(TermId),
    /// N-ary conjunction (children in construction order).
    And(Box<[TermId]>),
    /// N-ary disjunction (children in construction order).
    Or(Box<[TermId]>),
    /// Implication `lhs → rhs`.
    Implies(TermId, TermId),
    /// Bi-implication, operands oriented by term id.
    Iff(TermId, TermId),
    /// If-then-else over boolean branches.
    Ite(TermId, TermId, TermId),
    /// Enumeration-sorted variable.
    EnumVar(VarId),
    /// Enumeration constant: sort and variant index.
    EnumConst(EnumSortId, u16),
    /// Bounded-integer variable.
    IntVar(VarId),
    /// Integer constant.
    IntConst(i64),
    /// Equality between two same-sorted non-boolean terms, oriented by id.
    Eq(TermId, TermId),
    /// `lhs ≤ rhs` over integer terms.
    Le(TermId, TermId),
    /// `lhs < rhs` over integer terms.
    Lt(TermId, TermId),
}

/// The term arena: variable and enum declarations plus hash-consed terms.
///
/// `Clone` duplicates the whole arena. Because the arena is append-only,
/// every [`TermId`]/[`VarId`] minted in the original remains valid — and
/// refers to the same node — in the clone. This is what lets a network-wide
/// explanation build one shared base context and hand each worker thread an
/// independent copy to extend.
#[derive(Debug, Default, Clone)]
pub struct Ctx {
    vars: Vec<VarInfo>,
    enums: Vec<EnumDecl>,
    terms: Vec<TermNode>,
    interned: HashMap<TermNode, TermId>,
}

impl Ctx {
    /// Create an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- declarations -----------------------------------------------------

    /// Declare an enumeration sort with the given variant names.
    pub fn enum_sort(&mut self, name: &str, variants: &[&str]) -> EnumSortId {
        assert!(
            !variants.is_empty(),
            "enum sort `{name}` needs at least one variant"
        );
        let id = EnumSortId(self.enums.len() as u32);
        self.enums.push(EnumDecl {
            name: name.to_string(),
            variants: variants.iter().map(|s| s.to_string()).collect(),
        });
        id
    }

    /// Declare a fresh variable of the given sort.
    pub fn declare_var(&mut self, name: &str, sort: Sort) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.to_string(),
            sort,
        });
        id
    }

    /// Declare a boolean variable and return the term referring to it.
    pub fn bool_var(&mut self, name: &str) -> TermId {
        let v = self.declare_var(name, Sort::Bool);
        self.intern(TermNode::BoolVar(v))
    }

    /// Declare an enum variable and return the term referring to it.
    pub fn enum_var(&mut self, name: &str, sort: EnumSortId) -> TermId {
        let v = self.declare_var(name, Sort::Enum(sort));
        self.intern(TermNode::EnumVar(v))
    }

    /// Declare a bounded integer variable and return the term referring to it.
    pub fn int_var(&mut self, name: &str, lo: i64, hi: i64) -> TermId {
        assert!(lo <= hi, "empty integer range for `{name}`");
        let v = self.declare_var(name, Sort::Int { lo, hi });
        self.intern(TermNode::IntVar(v))
    }

    // ---- accessors --------------------------------------------------------

    /// The node behind a term id.
    pub fn node(&self, t: TermId) -> &TermNode {
        &self.terms[t.0 as usize]
    }

    /// Metadata for a variable.
    pub fn var(&self, v: VarId) -> &VarInfo {
        &self.vars[v.0 as usize]
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// All declared variables.
    pub fn vars(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId(i as u32), v))
    }

    /// Declaration of an enum sort.
    pub fn enum_decl(&self, e: EnumSortId) -> &EnumDecl {
        &self.enums[e.0 as usize]
    }

    /// Variant counts of all enum sorts, indexed by sort id. Used by
    /// [`Sort::cardinality`].
    pub fn enum_sizes(&self) -> Vec<usize> {
        self.enums.iter().map(|e| e.variants.len()).collect()
    }

    /// Number of interned terms (arena size).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The sort of a term.
    pub fn sort_of(&self, t: TermId) -> Sort {
        match self.node(t) {
            TermNode::True
            | TermNode::False
            | TermNode::BoolVar(_)
            | TermNode::Not(_)
            | TermNode::And(_)
            | TermNode::Or(_)
            | TermNode::Implies(..)
            | TermNode::Iff(..)
            | TermNode::Ite(..)
            | TermNode::Eq(..)
            | TermNode::Le(..)
            | TermNode::Lt(..) => Sort::Bool,
            TermNode::EnumVar(v) | TermNode::IntVar(v) => self.var(*v).sort,
            TermNode::EnumConst(e, _) => Sort::Enum(*e),
            TermNode::IntConst(c) => Sort::Int { lo: *c, hi: *c },
        }
    }

    /// True if the term has boolean sort.
    pub fn is_bool(&self, t: TermId) -> bool {
        self.sort_of(t).is_bool()
    }

    // ---- constructors -----------------------------------------------------

    fn intern(&mut self, node: TermNode) -> TermId {
        if let Some(&id) = self.interned.get(&node) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(node.clone());
        self.interned.insert(node, id);
        id
    }

    /// The constant `true`.
    pub fn mk_true(&mut self) -> TermId {
        self.intern(TermNode::True)
    }

    /// The constant `false`.
    pub fn mk_false(&mut self) -> TermId {
        self.intern(TermNode::False)
    }

    /// A boolean constant.
    pub fn mk_bool(&mut self, b: bool) -> TermId {
        if b {
            self.mk_true()
        } else {
            self.mk_false()
        }
    }

    /// Negation. `¬¬a` is *not* collapsed here; see rule R8.
    pub fn not(&mut self, t: TermId) -> TermId {
        debug_assert!(self.is_bool(t), "not: operand must be boolean");
        self.intern(TermNode::Not(t))
    }

    /// N-ary conjunction. Empty input yields `true`; singleton input yields
    /// the child itself (there is no meaningful unary ∧ node).
    pub fn and(&mut self, ts: &[TermId]) -> TermId {
        debug_assert!(
            ts.iter().all(|&t| self.is_bool(t)),
            "and: operands must be boolean"
        );
        match ts.len() {
            0 => self.mk_true(),
            1 => ts[0],
            _ => self.intern(TermNode::And(ts.into())),
        }
    }

    /// Binary conjunction.
    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.and(&[a, b])
    }

    /// N-ary disjunction. Empty input yields `false`; singleton the child.
    pub fn or(&mut self, ts: &[TermId]) -> TermId {
        debug_assert!(
            ts.iter().all(|&t| self.is_bool(t)),
            "or: operands must be boolean"
        );
        match ts.len() {
            0 => self.mk_false(),
            1 => ts[0],
            _ => self.intern(TermNode::Or(ts.into())),
        }
    }

    /// Binary disjunction.
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or(&[a, b])
    }

    /// Implication.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.is_bool(a) && self.is_bool(b));
        self.intern(TermNode::Implies(a, b))
    }

    /// Bi-implication; operands oriented so interning is symmetric.
    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.is_bool(a) && self.is_bool(b));
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermNode::Iff(a, b))
    }

    /// If-then-else over boolean branches.
    pub fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        debug_assert!(self.is_bool(c) && self.is_bool(t) && self.is_bool(e));
        self.intern(TermNode::Ite(c, t, e))
    }

    /// Enumeration constant.
    pub fn enum_const(&mut self, sort: EnumSortId, variant: u16) -> TermId {
        debug_assert!(
            (variant as usize) < self.enums[sort.0 as usize].variants.len(),
            "enum_const: variant index out of range"
        );
        self.intern(TermNode::EnumConst(sort, variant))
    }

    /// Enumeration constant looked up by variant name.
    pub fn enum_const_named(&mut self, sort: EnumSortId, variant: &str) -> TermId {
        let idx = self.enums[sort.0 as usize]
            .variant_index(variant)
            .unwrap_or_else(|| panic!("enum sort has no variant `{variant}`"));
        self.enum_const(sort, idx)
    }

    /// Integer constant.
    pub fn int_const(&mut self, c: i64) -> TermId {
        self.intern(TermNode::IntConst(c))
    }

    /// Equality between two non-boolean terms of the same base sort.
    /// Boolean equality should be expressed with [`Ctx::iff`].
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(
            !self.is_bool(a) && !self.is_bool(b),
            "eq: use iff for booleans"
        );
        debug_assert!(
            self.compatible_sorts(a, b),
            "eq: incompatible sorts {} vs {}",
            self.sort_of(a),
            self.sort_of(b)
        );
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermNode::Eq(a, b))
    }

    /// Inequality `a ≠ b`, sugar for `¬(a = b)`.
    pub fn neq(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// `a ≤ b` over integer terms.
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(
            self.is_int(a) && self.is_int(b),
            "le: operands must be integers"
        );
        self.intern(TermNode::Le(a, b))
    }

    /// `a < b` over integer terms.
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(
            self.is_int(a) && self.is_int(b),
            "lt: operands must be integers"
        );
        self.intern(TermNode::Lt(a, b))
    }

    /// `a ≥ b`, sugar for `b ≤ a`.
    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.le(b, a)
    }

    /// `a > b`, sugar for `b < a`.
    pub fn gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.lt(b, a)
    }

    fn is_int(&self, t: TermId) -> bool {
        matches!(self.sort_of(t), Sort::Int { .. })
    }

    fn compatible_sorts(&self, a: TermId, b: TermId) -> bool {
        match (self.sort_of(a), self.sort_of(b)) {
            (Sort::Int { .. }, Sort::Int { .. }) => true,
            (Sort::Enum(x), Sort::Enum(y)) => x == y,
            (x, y) => x == y,
        }
    }

    // ---- structural utilities ---------------------------------------------

    /// Children of a node, in order.
    pub fn children(&self, t: TermId) -> Vec<TermId> {
        match self.node(t) {
            TermNode::True
            | TermNode::False
            | TermNode::BoolVar(_)
            | TermNode::EnumVar(_)
            | TermNode::EnumConst(..)
            | TermNode::IntVar(_)
            | TermNode::IntConst(_) => Vec::new(),
            TermNode::Not(a) => vec![*a],
            TermNode::And(cs) | TermNode::Or(cs) => cs.to_vec(),
            TermNode::Implies(a, b)
            | TermNode::Iff(a, b)
            | TermNode::Eq(a, b)
            | TermNode::Le(a, b)
            | TermNode::Lt(a, b) => vec![*a, *b],
            TermNode::Ite(c, t, e) => vec![*c, *t, *e],
        }
    }

    /// Number of AST nodes in the term (counting shared subterms each time
    /// they occur — this matches the "constraint size" the paper reports).
    pub fn term_size(&self, t: TermId) -> usize {
        let mut size = 0usize;
        let mut stack = vec![t];
        while let Some(u) = stack.pop() {
            size += 1;
            stack.extend(self.children(u));
        }
        size
    }

    /// Number of *distinct* subterms (DAG size).
    pub fn dag_size(&self, t: TermId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![t];
        while let Some(u) = stack.pop() {
            if seen.insert(u) {
                stack.extend(self.children(u));
            }
        }
        seen.len()
    }

    /// Top-level conjuncts: flattens nested `And` nodes (only) and returns
    /// the leaves. A non-conjunction term is its own single conjunct. This is
    /// the paper's notion of "number of constraints" in a specification.
    pub fn conjuncts(&self, t: TermId) -> Vec<TermId> {
        let mut out = Vec::new();
        let mut stack = vec![t];
        while let Some(u) = stack.pop() {
            match self.node(u) {
                TermNode::And(cs) => stack.extend(cs.iter().rev().copied()),
                _ => out.push(u),
            }
        }
        out
    }

    /// All variables occurring in a term.
    pub fn free_vars(&self, t: TermId) -> Vec<VarId> {
        let mut seen_terms = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![t];
        while let Some(u) = stack.pop() {
            if !seen_terms.insert(u) {
                continue;
            }
            match self.node(u) {
                TermNode::BoolVar(v) | TermNode::EnumVar(v) | TermNode::IntVar(v) => {
                    vars.insert(*v);
                }
                _ => stack.extend(self.children(u)),
            }
        }
        vars.into_iter().collect()
    }

    /// Substitute terms for terms, bottom-up. `map` sends a term id to its
    /// replacement; typically used to freeze variables to constants when
    /// extracting a seed specification.
    pub fn substitute(&mut self, t: TermId, map: &HashMap<TermId, TermId>) -> TermId {
        let mut memo: HashMap<TermId, TermId> = HashMap::new();
        self.subst_rec(t, map, &mut memo)
    }

    fn subst_rec(
        &mut self,
        t: TermId,
        map: &HashMap<TermId, TermId>,
        memo: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = map.get(&t) {
            return r;
        }
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        let node = self.node(t).clone();
        let result = match node {
            TermNode::True
            | TermNode::False
            | TermNode::BoolVar(_)
            | TermNode::EnumVar(_)
            | TermNode::EnumConst(..)
            | TermNode::IntVar(_)
            | TermNode::IntConst(_) => t,
            TermNode::Not(a) => {
                let a2 = self.subst_rec(a, map, memo);
                if a2 == a {
                    t
                } else {
                    self.not(a2)
                }
            }
            TermNode::And(cs) => {
                let cs2: Vec<TermId> = cs.iter().map(|&c| self.subst_rec(c, map, memo)).collect();
                if cs2[..] == cs[..] {
                    t
                } else {
                    self.and(&cs2)
                }
            }
            TermNode::Or(cs) => {
                let cs2: Vec<TermId> = cs.iter().map(|&c| self.subst_rec(c, map, memo)).collect();
                if cs2[..] == cs[..] {
                    t
                } else {
                    self.or(&cs2)
                }
            }
            TermNode::Implies(a, b) => {
                let (a2, b2) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                if (a2, b2) == (a, b) {
                    t
                } else {
                    self.implies(a2, b2)
                }
            }
            TermNode::Iff(a, b) => {
                let (a2, b2) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                if (a2, b2) == (a, b) {
                    t
                } else {
                    self.iff(a2, b2)
                }
            }
            TermNode::Ite(c, a, b) => {
                let c2 = self.subst_rec(c, map, memo);
                let (a2, b2) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                if (c2, a2, b2) == (c, a, b) {
                    t
                } else {
                    self.ite(c2, a2, b2)
                }
            }
            TermNode::Eq(a, b) => {
                let (a2, b2) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                if (a2, b2) == (a, b) {
                    t
                } else {
                    self.eq(a2, b2)
                }
            }
            TermNode::Le(a, b) => {
                let (a2, b2) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                if (a2, b2) == (a, b) {
                    t
                } else {
                    self.le(a2, b2)
                }
            }
            TermNode::Lt(a, b) => {
                let (a2, b2) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                if (a2, b2) == (a, b) {
                    t
                } else {
                    self.lt(a2, b2)
                }
            }
        };
        memo.insert(t, result);
        result
    }

    /// Pretty-print a term using declared variable and variant names.
    pub fn display(&self, t: TermId) -> TermDisplay<'_> {
        TermDisplay { ctx: self, term: t }
    }
}

/// Display adapter returned by [`Ctx::display`].
pub struct TermDisplay<'a> {
    ctx: &'a Ctx,
    term: TermId,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(self.ctx, self.term, f)
    }
}

fn write_term(ctx: &Ctx, t: TermId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match ctx.node(t) {
        TermNode::True => write!(f, "true"),
        TermNode::False => write!(f, "false"),
        TermNode::BoolVar(v) | TermNode::EnumVar(v) | TermNode::IntVar(v) => {
            write!(f, "{}", ctx.var(*v).name)
        }
        TermNode::Not(a) => {
            write!(f, "!")?;
            write_atomic(ctx, *a, f)
        }
        TermNode::And(cs) => write_nary(ctx, cs, " & ", f),
        TermNode::Or(cs) => write_nary(ctx, cs, " | ", f),
        TermNode::Implies(a, b) => {
            write_atomic(ctx, *a, f)?;
            write!(f, " -> ")?;
            write_atomic(ctx, *b, f)
        }
        TermNode::Iff(a, b) => {
            write_atomic(ctx, *a, f)?;
            write!(f, " <-> ")?;
            write_atomic(ctx, *b, f)
        }
        TermNode::Ite(c, a, b) => {
            write!(f, "ite(")?;
            write_term(ctx, *c, f)?;
            write!(f, ", ")?;
            write_term(ctx, *a, f)?;
            write!(f, ", ")?;
            write_term(ctx, *b, f)?;
            write!(f, ")")
        }
        TermNode::EnumConst(e, v) => {
            let decl = ctx.enum_decl(*e);
            write!(f, "{}::{}", decl.name, decl.variants[*v as usize])
        }
        TermNode::IntConst(c) => write!(f, "{c}"),
        TermNode::Eq(a, b) => {
            // Orientation is canonicalized by term id; for readability,
            // print the variable side first when exactly one side is a
            // variable.
            let (a, b) = {
                let a_var = matches!(ctx.node(*a), TermNode::EnumVar(_) | TermNode::IntVar(_));
                let b_var = matches!(ctx.node(*b), TermNode::EnumVar(_) | TermNode::IntVar(_));
                if b_var && !a_var {
                    (*b, *a)
                } else {
                    (*a, *b)
                }
            };
            write_atomic(ctx, a, f)?;
            write!(f, " = ")?;
            write_atomic(ctx, b, f)
        }
        TermNode::Le(a, b) => {
            write_atomic(ctx, *a, f)?;
            write!(f, " <= ")?;
            write_atomic(ctx, *b, f)
        }
        TermNode::Lt(a, b) => {
            write_atomic(ctx, *a, f)?;
            write!(f, " < ")?;
            write_atomic(ctx, *b, f)
        }
    }
}

fn write_nary(ctx: &Ctx, cs: &[TermId], sep: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    for (i, &c) in cs.iter().enumerate() {
        if i > 0 {
            write!(f, "{sep}")?;
        }
        write_atomic(ctx, c, f)?;
    }
    Ok(())
}

/// Write a term, parenthesizing compound boolean structure for readability.
fn write_atomic(ctx: &Ctx, t: TermId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let compound = matches!(
        ctx.node(t),
        TermNode::And(_) | TermNode::Or(_) | TermNode::Implies(..) | TermNode::Iff(..)
    );
    if compound {
        write!(f, "(")?;
        write_term(ctx, t, f)?;
        write!(f, ")")
    } else {
        write_term(ctx, t, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let x = ctx.and2(a, b);
        let y = ctx.and2(a, b);
        assert_eq!(x, y);
        let z = ctx.and2(b, a);
        assert_ne!(x, z, "And is order-sensitive by design");
    }

    #[test]
    fn eq_is_orientation_insensitive() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("S", &["p", "q"]);
        let v = ctx.enum_var("v", s);
        let c = ctx.enum_const(s, 1);
        assert_eq!(ctx.eq(v, c), ctx.eq(c, v));
    }

    #[test]
    fn iff_is_orientation_insensitive() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        assert_eq!(ctx.iff(a, b), ctx.iff(b, a));
    }

    #[test]
    fn empty_and_or_are_units() {
        let mut ctx = Ctx::new();
        let t = ctx.mk_true();
        let f = ctx.mk_false();
        assert_eq!(ctx.and(&[]), t);
        assert_eq!(ctx.or(&[]), f);
    }

    #[test]
    fn singleton_and_or_collapse() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        assert_eq!(ctx.and(&[a]), a);
        assert_eq!(ctx.or(&[a]), a);
    }

    #[test]
    fn constructors_do_not_simplify() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        let nna = ctx.not(na);
        assert_ne!(
            nna, a,
            "double negation must be preserved for the simplifier to remove"
        );
        let t = ctx.mk_true();
        let at = ctx.and2(a, t);
        assert_ne!(at, a, "identity elements are not folded at construction");
    }

    #[test]
    fn sort_of_terms() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("S", &["x"]);
        let a = ctx.bool_var("a");
        let e = ctx.enum_var("e", s);
        let i = ctx.int_var("i", 0, 10);
        let c = ctx.int_const(5);
        assert_eq!(ctx.sort_of(a), Sort::Bool);
        assert_eq!(ctx.sort_of(e), Sort::Enum(s));
        assert_eq!(ctx.sort_of(i), Sort::Int { lo: 0, hi: 10 });
        assert_eq!(ctx.sort_of(c), Sort::Int { lo: 5, hi: 5 });
        let le = ctx.le(i, c);
        assert!(ctx.is_bool(le));
    }

    #[test]
    fn term_size_counts_tree_nodes() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.and2(a, b);
        let f = ctx.or2(ab, ab); // shared subterm counted twice in tree size
        assert_eq!(ctx.term_size(f), 7);
        assert_eq!(ctx.dag_size(f), 4);
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.bool_var("c");
        let ab = ctx.and2(a, b);
        let abc = ctx.and2(ab, c);
        assert_eq!(ctx.conjuncts(abc), vec![a, b, c]);
        assert_eq!(ctx.conjuncts(a), vec![a]);
    }

    #[test]
    fn free_vars_dedup_and_sorted() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a"); // VarId 0
        let b = ctx.bool_var("b"); // VarId 1
        let ab = ctx.and2(b, a);
        let f = ctx.or2(ab, a);
        assert_eq!(ctx.free_vars(f), vec![VarId(0), VarId(1)]);
    }

    #[test]
    fn substitute_replaces_vars() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let t = ctx.mk_true();
        let f = ctx.and2(a, b);
        let mut map = HashMap::new();
        map.insert(a, t);
        let g = ctx.substitute(f, &map);
        let expect = ctx.and2(t, b);
        assert_eq!(g, expect);
    }

    #[test]
    fn substitute_identity_returns_same_id() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let f = ctx.implies(a, b);
        let g = ctx.substitute(f, &HashMap::new());
        assert_eq!(f, g);
    }

    #[test]
    fn display_renders_names() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("Action", &["permit", "deny"]);
        let v = ctx.enum_var("Var_Action", s);
        let c = ctx.enum_const(s, 1);
        let e = ctx.eq(v, c);
        let n = ctx.not(e);
        let shown = format!("{}", ctx.display(n));
        assert!(shown.contains("Var_Action"), "{shown}");
        assert!(shown.contains("Action::deny"), "{shown}");
    }

    #[test]
    fn enum_const_named_resolves() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("Attr", &["NextHop", "LocalPref"]);
        let c1 = ctx.enum_const_named(s, "LocalPref");
        let c2 = ctx.enum_const(s, 1);
        assert_eq!(c1, c2);
    }

    #[test]
    #[should_panic(expected = "no variant")]
    fn enum_const_named_panics_on_unknown() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("Attr", &["NextHop"]);
        ctx.enum_const_named(s, "Bogus");
    }
}
