//! Assignments and a reference evaluator for terms.
//!
//! An [`Assignment`] maps variables to concrete [`Value`]s. The evaluator is
//! the semantic ground truth for the whole crate: the simplifier's
//! equivalence-preservation property tests and the SAT solver's
//! cross-validation tests both compare against it. [`Evaluator`] is its
//! memoizing counterpart for checking many shared-structure terms against
//! one model (the lifter's witness cache).

use crate::dense::IdMap;
use crate::sort::{EnumSortId, Sort};
use crate::term::{Ctx, TermId, TermNode, VarId};

/// A concrete value of some sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Enumeration value: sort and variant index.
    Enum(EnumSortId, u16),
}

impl Value {
    /// The boolean inside, if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer inside, if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

/// A (possibly partial) map from variables to values, indexed by
/// [`VarId`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Assignment {
    values: IdMap<VarId, Value>,
}

impl Assignment {
    /// Empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a variable to a value, replacing any previous binding.
    pub fn set(&mut self, v: VarId, val: Value) {
        self.values.insert(v, val);
    }

    /// Look up a variable.
    pub fn get(&self, v: VarId) -> Option<Value> {
        self.values.get(v).copied()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.values.len() == 0
    }

    /// Iterate over bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Value)> + '_ {
        self.values.iter().map(|(v, &val)| (v, val))
    }

    /// Evaluate a term of any sort. Returns `None` if an unbound variable is
    /// reached (partial assignment).
    pub fn eval(&self, ctx: &Ctx, t: TermId) -> Option<Value> {
        match ctx.node(t) {
            TermNode::True => Some(Value::Bool(true)),
            TermNode::False => Some(Value::Bool(false)),
            TermNode::BoolVar(v) | TermNode::EnumVar(v) | TermNode::IntVar(v) => self.get(*v),
            TermNode::Not(a) => Some(Value::Bool(!self.eval(ctx, *a)?.as_bool()?)),
            TermNode::And(cs) => {
                let mut acc = true;
                for &c in cs.iter() {
                    acc &= self.eval(ctx, c)?.as_bool()?;
                }
                Some(Value::Bool(acc))
            }
            TermNode::Or(cs) => {
                let mut acc = false;
                for &c in cs.iter() {
                    acc |= self.eval(ctx, c)?.as_bool()?;
                }
                Some(Value::Bool(acc))
            }
            TermNode::Implies(a, b) => {
                let a = self.eval(ctx, *a)?.as_bool()?;
                let b = self.eval(ctx, *b)?.as_bool()?;
                Some(Value::Bool(!a || b))
            }
            TermNode::Iff(a, b) => {
                let a = self.eval(ctx, *a)?.as_bool()?;
                let b = self.eval(ctx, *b)?.as_bool()?;
                Some(Value::Bool(a == b))
            }
            TermNode::Ite(c, a, b) => {
                if self.eval(ctx, *c)?.as_bool()? {
                    self.eval(ctx, *a)
                } else {
                    self.eval(ctx, *b)
                }
            }
            TermNode::EnumConst(e, v) => Some(Value::Enum(*e, *v)),
            TermNode::IntConst(c) => Some(Value::Int(*c)),
            TermNode::Eq(a, b) => {
                let a = self.eval(ctx, *a)?;
                let b = self.eval(ctx, *b)?;
                Some(Value::Bool(a == b))
            }
            TermNode::Le(a, b) => {
                let a = self.eval(ctx, *a)?.as_int()?;
                let b = self.eval(ctx, *b)?.as_int()?;
                Some(Value::Bool(a <= b))
            }
            TermNode::Lt(a, b) => {
                let a = self.eval(ctx, *a)?.as_int()?;
                let b = self.eval(ctx, *b)?.as_int()?;
                Some(Value::Bool(a < b))
            }
        }
    }

    /// Evaluate a boolean term to a `bool`.
    pub fn eval_bool(&self, ctx: &Ctx, t: TermId) -> Option<bool> {
        self.eval(ctx, t)?.as_bool()
    }

    /// True if every bound value lies in its variable's sort: booleans
    /// bind booleans, integers stay within `[lo, hi]`, enumeration values
    /// name a declared variant. Only a well-sorted assignment is a model in
    /// the term language's semantics.
    pub fn well_sorted(&self, ctx: &Ctx) -> bool {
        self.values
            .iter()
            .all(|(v, &val)| match (ctx.var(v).sort, val) {
                (Sort::Bool, Value::Bool(_)) => true,
                (Sort::Int { lo, hi }, Value::Int(i)) => lo <= i && i <= hi,
                (Sort::Enum(e), Value::Enum(ve, i)) => {
                    e == ve && (i as usize) < ctx.enum_decl(e).variants.len()
                }
                _ => false,
            })
    }

    /// Enumerate every total assignment over the given variables (cartesian
    /// product of their sorts' carrier sets) and call `f` on each. Intended
    /// for exhaustive checks over small variable sets in tests and for the
    /// brute-force baseline; panics if the product exceeds `limit`.
    pub fn for_all_assignments<F: FnMut(&Assignment)>(
        ctx: &Ctx,
        vars: &[VarId],
        limit: u64,
        mut f: F,
    ) {
        let enum_sizes = ctx.enum_sizes();
        let mut total: u64 = 1;
        for &v in vars {
            total = total.saturating_mul(ctx.var(v).sort.cardinality(&enum_sizes));
        }
        assert!(
            total <= limit,
            "assignment space {total} exceeds limit {limit}"
        );

        let mut asg = Assignment::new();
        fn rec<F: FnMut(&Assignment)>(
            ctx: &Ctx,
            vars: &[VarId],
            i: usize,
            asg: &mut Assignment,
            f: &mut F,
        ) {
            if i == vars.len() {
                f(asg);
                return;
            }
            let v = vars[i];
            match ctx.var(v).sort {
                Sort::Bool => {
                    for b in [false, true] {
                        asg.set(v, Value::Bool(b));
                        rec(ctx, vars, i + 1, asg, f);
                    }
                }
                Sort::Int { lo, hi } => {
                    for x in lo..=hi {
                        asg.set(v, Value::Int(x));
                        rec(ctx, vars, i + 1, asg, f);
                    }
                }
                Sort::Enum(e) => {
                    let n = ctx.enum_decl(e).variants.len() as u16;
                    for x in 0..n {
                        asg.set(v, Value::Enum(e, x));
                        rec(ctx, vars, i + 1, asg, f);
                    }
                }
            }
        }
        rec(ctx, vars, 0, &mut asg, &mut f);
    }
}

/// A memoizing evaluator of boolean terms under one fixed assignment, for
/// checking many structurally overlapping terms against the same model.
///
/// Evaluation is three-valued over a possibly partial assignment:
/// `Some(b)` means *every* completion of the assignment gives `b`, so a
/// connective short-circuits on a dominating child (`false` under `∧`,
/// `true` under `∨`) even when a sibling is unbound, and `None` means the
/// value depends on an unbound variable. Each compound subterm is
/// evaluated once per evaluator, so a term DAG costs time linear in its
/// size instead of in its tree expansion. The memo is indexed by
/// [`TermId`].
#[derive(Debug, Clone)]
pub struct Evaluator {
    asg: Assignment,
    memo: IdMap<TermId, Option<bool>>,
}

impl Evaluator {
    /// An evaluator over `asg` with an empty memo.
    pub fn new(asg: Assignment) -> Self {
        Evaluator {
            asg,
            memo: IdMap::default(),
        }
    }

    /// Evaluate a boolean term.
    pub fn eval_bool(&mut self, ctx: &Ctx, t: TermId) -> Option<bool> {
        let node = ctx.node(t);
        let compound = matches!(
            node,
            TermNode::Not(_)
                | TermNode::And(_)
                | TermNode::Or(_)
                | TermNode::Implies(..)
                | TermNode::Iff(..)
                | TermNode::Ite(..)
        );
        if !compound {
            // Constants, variables and theory atoms over leaves.
            return self.asg.eval_bool(ctx, t);
        }
        if let Some(&v) = self.memo.get(t) {
            return v;
        }
        let v = match node {
            TermNode::Not(a) => self.eval_bool(ctx, *a).map(|b| !b),
            TermNode::And(cs) => self.junction(ctx, cs, false),
            TermNode::Or(cs) => self.junction(ctx, cs, true),
            TermNode::Implies(a, b) => match (self.eval_bool(ctx, *a), self.eval_bool(ctx, *b)) {
                (Some(false), _) | (_, Some(true)) => Some(true),
                (Some(true), Some(false)) => Some(false),
                _ => None,
            },
            TermNode::Iff(a, b) => {
                let a = self.eval_bool(ctx, *a);
                let b = self.eval_bool(ctx, *b);
                Some(a? == b?)
            }
            TermNode::Ite(c, a, b) => match self.eval_bool(ctx, *c) {
                Some(true) => self.eval_bool(ctx, *a),
                Some(false) => self.eval_bool(ctx, *b),
                None => {
                    let a = self.eval_bool(ctx, *a);
                    if a.is_some() && a == self.eval_bool(ctx, *b) {
                        a
                    } else {
                        None
                    }
                }
            },
            _ => unreachable!("compound node"),
        };
        self.memo.insert(t, v);
        v
    }

    /// `∧` (`dominant = false`) or `∨` (`dominant = true`) over `cs`.
    fn junction(&mut self, ctx: &Ctx, cs: &[TermId], dominant: bool) -> Option<bool> {
        let mut unknown = false;
        for &c in cs {
            match self.eval_bool(ctx, c) {
                Some(b) if b == dominant => return Some(dominant),
                Some(_) => {}
                None => unknown = true,
            }
        }
        (!unknown).then_some(!dominant)
    }
}

/// Check semantic equivalence of two boolean terms by exhaustive enumeration
/// over their free variables. Only usable when the combined assignment space
/// is at most `limit`; this is the test-suite oracle, not a production check.
pub fn brute_force_equivalent(ctx: &Ctx, a: TermId, b: TermId, limit: u64) -> bool {
    let mut vars = ctx.free_vars(a);
    for v in ctx.free_vars(b) {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    let mut equivalent = true;
    Assignment::for_all_assignments(ctx, &vars, limit, |asg| {
        if asg.eval_bool(ctx, a) != asg.eval_bool(ctx, b) {
            equivalent = false;
        }
    });
    equivalent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_bool_ops() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let and = ctx.and2(a, b);
        let or = ctx.or2(a, b);
        let imp = ctx.implies(a, b);
        let iff = ctx.iff(a, b);
        let na = ctx.not(a);

        let mut asg = Assignment::new();
        asg.set(VarId(0), Value::Bool(true));
        asg.set(VarId(1), Value::Bool(false));
        assert_eq!(asg.eval_bool(&ctx, and), Some(false));
        assert_eq!(asg.eval_bool(&ctx, or), Some(true));
        assert_eq!(asg.eval_bool(&ctx, imp), Some(false));
        assert_eq!(asg.eval_bool(&ctx, iff), Some(false));
        assert_eq!(asg.eval_bool(&ctx, na), Some(false));
    }

    #[test]
    fn eval_partial_assignment_is_none() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let and = ctx.and2(a, b);
        let mut asg = Assignment::new();
        asg.set(VarId(0), Value::Bool(true));
        assert_eq!(asg.eval_bool(&ctx, and), None);
    }

    #[test]
    fn eval_theory_atoms() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("S", &["x", "y"]);
        let e = ctx.enum_var("e", s);
        let cx = ctx.enum_const(s, 0);
        let i = ctx.int_var("i", 0, 10);
        let five = ctx.int_const(5);
        let eq = ctx.eq(e, cx);
        let le = ctx.le(i, five);
        let lt = ctx.lt(i, five);

        let mut asg = Assignment::new();
        asg.set(VarId(0), Value::Enum(s, 0));
        asg.set(VarId(1), Value::Int(5));
        assert_eq!(asg.eval_bool(&ctx, eq), Some(true));
        assert_eq!(asg.eval_bool(&ctx, le), Some(true));
        assert_eq!(asg.eval_bool(&ctx, lt), Some(false));
    }

    #[test]
    fn eval_ite_selects_branch() {
        let mut ctx = Ctx::new();
        let c = ctx.bool_var("c");
        let t = ctx.mk_true();
        let f = ctx.mk_false();
        let ite = ctx.ite(c, f, t);
        let mut asg = Assignment::new();
        asg.set(VarId(0), Value::Bool(true));
        assert_eq!(asg.eval_bool(&ctx, ite), Some(false));
        asg.set(VarId(0), Value::Bool(false));
        assert_eq!(asg.eval_bool(&ctx, ite), Some(true));
    }

    #[test]
    fn evaluator_agrees_with_eval_and_short_circuits() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.bool_var("c");
        let ab = ctx.and2(a, b);
        let nc = ctx.not(c);
        let or = ctx.or2(ab, nc);
        let imp = ctx.implies(or, c);
        let ite = ctx.ite(c, ab, imp);
        let iff = ctx.iff(ite, a);
        let mut asg = Assignment::new();
        asg.set(VarId(0), Value::Bool(true));
        asg.set(VarId(1), Value::Bool(false));
        asg.set(VarId(2), Value::Bool(true));
        let mut ev = Evaluator::new(asg.clone());
        for t in [ab, nc, or, imp, ite, iff] {
            assert_eq!(ev.eval_bool(&ctx, t), asg.eval_bool(&ctx, t), "{t:?}");
            // Memoized answers repeat.
            assert_eq!(ev.eval_bool(&ctx, t), asg.eval_bool(&ctx, t), "{t:?}");
        }

        // Partial: `b` unbound. A false conjunct decides `∧` regardless,
        // a true disjunct decides `∨`; otherwise the value is unknown.
        let mut partial = Assignment::new();
        partial.set(VarId(0), Value::Bool(false));
        partial.set(VarId(2), Value::Bool(false));
        let mut ev = Evaluator::new(partial);
        assert_eq!(ev.eval_bool(&ctx, ab), Some(false));
        assert_eq!(ev.eval_bool(&ctx, or), Some(true));
        let ba = ctx.and2(b, nc);
        assert_eq!(ev.eval_bool(&ctx, ba), None);
    }

    /// Values are stored by variable id, yet `len` and equality see only
    /// the bound variables: the slots below the highest bound id count for
    /// nothing, and the order of binding does not matter.
    #[test]
    fn len_and_equality_count_bindings_not_slots() {
        let mut a = Assignment::new();
        assert!(a.is_empty());
        a.set(VarId(7), Value::Bool(true));
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
        let mut b = Assignment::new();
        b.set(VarId(2), Value::Int(4));
        b.set(VarId(7), Value::Bool(true));
        assert_ne!(a, b);
        a.set(VarId(2), Value::Int(4));
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        a.set(VarId(2), Value::Int(5));
        assert_eq!(a.len(), 2, "rebinding is not a new binding");
        assert_ne!(a, b);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![(VarId(2), Value::Int(5)), (VarId(7), Value::Bool(true))]
        );
    }

    #[test]
    fn well_sorted_rejects_out_of_range_values() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("S", &["x", "y"]);
        ctx.enum_var("e", s);
        ctx.int_var("i", 0, 10);
        let mut asg = Assignment::new();
        asg.set(VarId(0), Value::Enum(s, 1));
        asg.set(VarId(1), Value::Int(10));
        assert!(asg.well_sorted(&ctx));
        asg.set(VarId(1), Value::Int(11));
        assert!(!asg.well_sorted(&ctx));
        asg.set(VarId(1), Value::Int(0));
        asg.set(VarId(0), Value::Enum(s, 2));
        assert!(!asg.well_sorted(&ctx));
        asg.set(VarId(0), Value::Bool(true));
        assert!(!asg.well_sorted(&ctx));
    }

    #[test]
    fn for_all_assignments_counts() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("S", &["x", "y", "z"]);
        ctx.bool_var("a");
        ctx.enum_var("e", s);
        ctx.int_var("i", 0, 1);
        let vars = vec![VarId(0), VarId(1), VarId(2)];
        let mut count = 0;
        Assignment::for_all_assignments(&ctx, &vars, 1000, |_| count += 1);
        assert_eq!(count, 2 * 3 * 2);
    }

    #[test]
    #[should_panic(expected = "exceeds limit")]
    fn for_all_assignments_respects_limit() {
        let mut ctx = Ctx::new();
        ctx.int_var("i", 0, 1_000_000);
        Assignment::for_all_assignments(&ctx, &[VarId(0)], 10, |_| {});
    }

    #[test]
    fn brute_force_equivalence_demorgan() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let and = ctx.and2(a, b);
        let lhs = ctx.not(and);
        let na = ctx.not(a);
        let nb = ctx.not(b);
        let rhs = ctx.or2(na, nb);
        assert!(brute_force_equivalent(&ctx, lhs, rhs, 100));
        assert!(!brute_force_equivalent(&ctx, a, b, 100));
    }
}
