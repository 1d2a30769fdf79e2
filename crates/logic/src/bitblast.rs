//! Eager lowering of finite-domain theory atoms to propositional logic.
//!
//! Enumeration variables are one-hot encoded: one boolean per variant plus
//! an exactly-one side constraint, which is the at-least-one clause and a
//! sequential at-most-one — a ladder of n−1 fresh booleans and 3n−4
//! two-literal clauses, so every enum costs O(n) clauses, not the n(n−1)/2
//! of the pairwise form. Bounded integer variables are binary encoded as
//! offsets from their lower bound (with a range side constraint).
//! Integer comparisons become comparator circuits whose size grows with the
//! bit width, never with the domain: against a constant, the circuit is
//! specialised per constant bit; between two variables, `=` is bitwise `↔`
//! and `≤`/`<` is an LSB-to-MSB ripple over both bit vectors. The two
//! offsets of a var–var atom are first aligned to the smaller lower bound
//! (a constant adder on the operand with the larger one) and padded to a
//! common width, so one circuit serves every pair of ranges.
//!
//! The result of lowering is a boolean term mentioning only [`TermNode::BoolVar`]s,
//! suitable for [`crate::cnf`] conversion, together with side constraints and
//! enough bookkeeping to decode a SAT model back into values of the original
//! enum/int variables.

use std::collections::hash_map::{Entry, HashMap};

use crate::dense::IdMap;
use crate::model::{Assignment, Value};
use crate::sort::Sort;
use crate::term::{Ctx, TermId, TermNode, VarId};

/// Bit-level encoding state for enum and int variables.
#[derive(Debug, Default)]
pub struct BitBlaster {
    /// One-hot indicator booleans per enum variable.
    enum_bits: HashMap<VarId, Vec<TermId>>,
    /// Binary offset bits (LSB first) per int variable.
    int_bits: HashMap<VarId, Vec<TermId>>,
    /// Side constraints accumulated while allocating encodings
    /// (exactly-one for enums, range bounds for ints).
    side: Vec<TermId>,
    /// The lowered form of each term lowered so far, by term id.
    memo: IdMap<TermId, TermId>,
}

impl BitBlaster {
    /// Fresh bit-blaster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lower a boolean term: the result mentions only boolean variables.
    /// Newly required side constraints are queued; drain them with
    /// [`BitBlaster::take_side_constraints`] and assert them alongside.
    pub fn lower(&mut self, ctx: &mut Ctx, t: TermId) -> TermId {
        if let Some(&r) = self.memo.get(t) {
            return r;
        }
        let result = match *ctx.node(t) {
            TermNode::True | TermNode::False | TermNode::BoolVar(_) => t,
            TermNode::Not(a) => {
                let a2 = self.lower(ctx, a);
                ctx.not(a2)
            }
            // Rebuilding over unchanged operands would intern `t` itself.
            TermNode::And(_) | TermNode::Or(_) => ctx.map_operands(t, |ctx, c| self.lower(ctx, c)),
            TermNode::Implies(a, b) => {
                let (a2, b2) = (self.lower(ctx, a), self.lower(ctx, b));
                ctx.implies(a2, b2)
            }
            TermNode::Iff(a, b) => {
                let (a2, b2) = (self.lower(ctx, a), self.lower(ctx, b));
                ctx.iff(a2, b2)
            }
            TermNode::Ite(c, a, b) => {
                let c2 = self.lower(ctx, c);
                let (a2, b2) = (self.lower(ctx, a), self.lower(ctx, b));
                ctx.ite(c2, a2, b2)
            }
            TermNode::Eq(a, b) => self.lower_eq(ctx, a, b),
            TermNode::Le(a, b) => self.lower_cmp(ctx, a, b, false),
            TermNode::Lt(a, b) => self.lower_cmp(ctx, a, b, true),
            TermNode::EnumVar(_)
            | TermNode::EnumConst(..)
            | TermNode::IntVar(_)
            | TermNode::IntConst(_) => {
                unreachable!("lower called on non-boolean term")
            }
        };
        self.memo.insert(t, result);
        result
    }

    /// Drain the accumulated side constraints.
    pub fn take_side_constraints(&mut self) -> Vec<TermId> {
        std::mem::take(&mut self.side)
    }

    /// Decode the theory variables' values from a boolean model, queried via
    /// `bool_value` on the encoding booleans' variable ids. An enum variable
    /// whose one-hot block is all-false (possible only if the side
    /// constraints were not asserted) is left unset.
    pub fn decode(&self, ctx: &Ctx, bool_value: &dyn Fn(VarId) -> bool) -> Assignment {
        let mut asg = Assignment::new();
        for (&var, bits) in &self.enum_bits {
            let sort = match ctx.var(var).sort {
                Sort::Enum(e) => e,
                _ => unreachable!(),
            };
            for (i, &bit) in bits.iter().enumerate() {
                let bv = match ctx.node(bit) {
                    TermNode::BoolVar(v) => *v,
                    _ => unreachable!(),
                };
                if bool_value(bv) {
                    asg.set(var, Value::Enum(sort, i as u16));
                    break;
                }
            }
        }
        for (&var, bits) in &self.int_bits {
            let lo = match ctx.var(var).sort {
                Sort::Int { lo, .. } => lo,
                _ => unreachable!(),
            };
            let mut offset: i64 = 0;
            for (i, &bit) in bits.iter().enumerate() {
                let bv = match ctx.node(bit) {
                    TermNode::BoolVar(v) => *v,
                    _ => unreachable!(),
                };
                if bool_value(bv) {
                    offset |= 1 << i;
                }
            }
            asg.set(var, Value::Int(lo + offset));
        }
        asg
    }

    // ---- encodings ---------------------------------------------------------

    fn enum_encoding(&mut self, ctx: &mut Ctx, var: VarId) -> &[TermId] {
        let slot = match self.enum_bits.entry(var) {
            Entry::Occupied(bits) => return bits.into_mut(),
            Entry::Vacant(slot) => slot,
        };
        let sort = match ctx.var(var).sort {
            Sort::Enum(e) => e,
            s => unreachable!("enum_encoding on {s} variable"),
        };
        let n = ctx.enum_decl(sort).variants.len();
        let name = ctx.var(var).name.clone();
        let bits: Vec<TermId> = (0..n)
            .map(|i| ctx.bool_var(&format!("{name}!is{i}")))
            .collect();
        // Exactly-one: at least one, and a sequential at-most-one. Ladder
        // step `s_i` is forced once some bit up to `i` is set: a set bit
        // forces its step, each step forces the next, and no bit may follow
        // a held step.
        let at_least = ctx.or(&bits);
        self.side.push(at_least);
        let mut held: Option<TermId> = None;
        for (i, &bit) in bits.iter().enumerate() {
            let not_bit = ctx.not(bit);
            let not_held = held.map(|s| ctx.not(s));
            if let Some(not_held) = not_held {
                self.side.push(ctx.or2(not_bit, not_held));
            }
            if i + 1 < n {
                let step = ctx.bool_var(&format!("{name}!amo{i}"));
                self.side.push(ctx.or2(not_bit, step));
                if let Some(not_held) = not_held {
                    self.side.push(ctx.or2(not_held, step));
                }
                held = Some(step);
            }
        }
        slot.insert(bits)
    }

    fn int_encoding(&mut self, ctx: &mut Ctx, var: VarId) -> (&[TermId], i64, i64) {
        let (lo, hi) = match ctx.var(var).sort {
            Sort::Int { lo, hi } => (lo, hi),
            s => unreachable!("int_encoding on {s} variable"),
        };
        let slot = match self.int_bits.entry(var) {
            Entry::Occupied(bits) => return (bits.into_mut(), lo, hi),
            Entry::Vacant(slot) => slot,
        };
        let span = (hi - lo) as u64;
        let width = if span == 0 {
            1
        } else {
            64 - span.leading_zeros() as usize
        };
        let name = ctx.var(var).name.clone();
        let bits: Vec<TermId> = (0..width)
            .map(|i| ctx.bool_var(&format!("{name}!bit{i}")))
            .collect();
        // Range side constraint: offset ≤ hi - lo.
        let range = le_const(ctx, &bits, span);
        self.side.push(range);
        (slot.insert(bits), lo, hi)
    }

    fn lower_eq(&mut self, ctx: &mut Ctx, a: TermId, b: TermId) -> TermId {
        match (ctx.node(a).clone(), ctx.node(b).clone()) {
            (TermNode::EnumConst(s1, v1), TermNode::EnumConst(s2, v2)) => {
                ctx.mk_bool(s1 == s2 && v1 == v2)
            }
            (TermNode::IntConst(c1), TermNode::IntConst(c2)) => ctx.mk_bool(c1 == c2),
            (TermNode::EnumVar(v), TermNode::EnumConst(_, variant))
            | (TermNode::EnumConst(_, variant), TermNode::EnumVar(v)) => {
                let bits = self.enum_encoding(ctx, v);
                bits.get(variant as usize)
                    .copied()
                    .unwrap_or_else(|| ctx.mk_false())
            }
            (TermNode::EnumVar(va), TermNode::EnumVar(vb)) => {
                self.enum_encoding(ctx, va);
                self.enum_encoding(ctx, vb);
                let (ba, bb) = (&self.enum_bits[&va], &self.enum_bits[&vb]);
                if ba.len() != bb.len() {
                    return ctx.mk_false();
                }
                let disjuncts: Vec<TermId> =
                    ba.iter().zip(bb).map(|(&x, &y)| ctx.and2(x, y)).collect();
                ctx.or(&disjuncts)
            }
            (TermNode::IntVar(v), TermNode::IntConst(c))
            | (TermNode::IntConst(c), TermNode::IntVar(v)) => {
                let (bits, lo, hi) = self.int_encoding(ctx, v);
                if c < lo || c > hi {
                    return ctx.mk_false();
                }
                eq_const(ctx, bits, (c - lo) as u64)
            }
            (TermNode::IntVar(va), TermNode::IntVar(vb)) => {
                let (xs, ys) = self.aligned_pair(ctx, va, vb);
                let same: Vec<TermId> = xs.iter().zip(&ys).map(|(&x, &y)| ctx.iff(x, y)).collect();
                ctx.and(&same)
            }
            _ => unreachable!("eq over unsupported operands"),
        }
    }

    fn lower_cmp(&mut self, ctx: &mut Ctx, a: TermId, b: TermId, strict: bool) -> TermId {
        match (ctx.node(a).clone(), ctx.node(b).clone()) {
            (TermNode::IntConst(c1), TermNode::IntConst(c2)) => {
                ctx.mk_bool(if strict { c1 < c2 } else { c1 <= c2 })
            }
            (TermNode::IntVar(v), TermNode::IntConst(c)) => {
                let (bits, lo, hi) = self.int_encoding(ctx, v);
                let bound = if strict { c - 1 } else { c };
                if bound >= hi {
                    return ctx.mk_true();
                }
                if bound < lo {
                    return ctx.mk_false();
                }
                le_const(ctx, bits, (bound - lo) as u64)
            }
            (TermNode::IntConst(c), TermNode::IntVar(v)) => {
                // c ≤ x  ≡  ¬(x ≤ c-1) ; c < x  ≡  ¬(x ≤ c)
                let (bits, lo, hi) = self.int_encoding(ctx, v);
                let bound = if strict { c } else { c - 1 };
                if bound < lo {
                    return ctx.mk_true();
                }
                if bound >= hi {
                    return ctx.mk_false();
                }
                let le = le_const(ctx, bits, (bound - lo) as u64);
                ctx.not(le)
            }
            (TermNode::IntVar(va), TermNode::IntVar(vb)) => {
                // LSB→MSB; acc is "the bits below i satisfy OP", which equal
                // numbers do for ≤ but not for <.
                let (xs, ys) = self.aligned_pair(ctx, va, vb);
                let mut acc = ctx.mk_bool(!strict);
                for (&x, &y) in xs.iter().zip(&ys) {
                    let nx = ctx.not(x);
                    let below = ctx.and2(nx, y);
                    let same = ctx.iff(x, y);
                    let carried = ctx.and2(same, acc);
                    acc = ctx.or2(below, carried);
                }
                acc
            }
            _ => unreachable!("comparison over unsupported operands"),
        }
    }

    /// The offset encodings of two int variables, rebased to the smaller
    /// lower bound so that equal bit vectors mean equal values: the operand
    /// with the larger lower bound gets the difference added, and the
    /// shorter vector is padded with `false`.
    fn aligned_pair(&mut self, ctx: &mut Ctx, va: VarId, vb: VarId) -> (Vec<TermId>, Vec<TermId>) {
        let lo_a = self.int_encoding(ctx, va).1;
        let lo_b = self.int_encoding(ctx, vb).1;
        let (xs, ys) = (&self.int_bits[&va], &self.int_bits[&vb]);
        let (mut xs, mut ys) = if lo_a > lo_b {
            (add_const(ctx, xs, lo_a.abs_diff(lo_b)), ys.clone())
        } else if lo_b > lo_a {
            (xs.clone(), add_const(ctx, ys, lo_a.abs_diff(lo_b)))
        } else {
            (xs.clone(), ys.clone())
        };
        let width = xs.len().max(ys.len());
        let f = ctx.mk_false();
        xs.resize(width, f);
        ys.resize(width, f);
        (xs, ys)
    }
}

/// `bits + value` for a constant (bits LSB-first), as a ripple-carry adder
/// one bit wider than the wider operand, so the sum cannot overflow.
fn add_const(ctx: &mut Ctx, bits: &[TermId], value: u64) -> Vec<TermId> {
    let width = bits.len().max(64 - value.leading_zeros() as usize) + 1;
    let f = ctx.mk_false();
    let mut carry = f;
    let mut rest = value;
    let mut sum = Vec::with_capacity(width);
    for i in 0..width {
        let b = bits.get(i).copied().unwrap_or(f);
        let same = ctx.iff(b, carry);
        if rest & 1 == 1 {
            // b + 1 + carry: the sum bit is b ↔ carry; either one carries.
            sum.push(same);
            carry = ctx.or2(b, carry);
        } else {
            sum.push(ctx.not(same));
            carry = ctx.and2(b, carry);
        }
        rest >>= 1;
    }
    sum
}

/// `bits == value` for a constant (bits LSB-first).
fn eq_const(ctx: &mut Ctx, bits: &[TermId], value: u64) -> TermId {
    if value >> bits.len() != 0 {
        return ctx.mk_false();
    }
    let conj: Vec<TermId> = bits
        .iter()
        .enumerate()
        .map(|(i, &b)| if value >> i & 1 == 1 { b } else { ctx.not(b) })
        .collect();
    ctx.and(&conj)
}

/// `bits ≤ value` for a constant (bits LSB-first), as a comparator circuit:
/// going from MSB down, the standard recurrence
/// `le(i) = (bit_i < c_i) ∨ (bit_i = c_i ∧ le(i-1))`, specialised per
/// constant bit.
fn le_const(ctx: &mut Ctx, bits: &[TermId], value: u64) -> TermId {
    if value >> bits.len() != 0 {
        return ctx.mk_true();
    }
    let mut acc = ctx.mk_true(); // empty suffix: equal so far ⇒ ≤ holds
    for (i, &b) in bits.iter().enumerate() {
        // Process LSB→MSB; acc is "suffix below position i is ≤".
        acc = if value >> i & 1 == 1 {
            // c_i = 1: bit 0 < 1 always ok; bit 1 requires suffix ≤.
            let nb = ctx.not(b);
            let with_suffix = ctx.and2(b, acc);
            ctx.or2(nb, with_suffix)
        } else {
            // c_i = 0: bit must be 0 and suffix ≤.
            let nb = ctx.not(b);
            ctx.and2(nb, acc)
        };
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Value;

    /// Exhaustively check that a lowered atom agrees with direct evaluation
    /// for every assignment of the original variables, by enumerating bit
    /// patterns and decoding.
    fn check_lowering_on_int(lo: i64, hi: i64, build: impl Fn(&mut Ctx, TermId) -> TermId) {
        let mut ctx = Ctx::new();
        let x = ctx.int_var("x", lo, hi);
        let atom = build(&mut ctx, x);
        let mut bb = BitBlaster::new();
        let lowered = bb.lower(&mut ctx, atom);
        let sides = bb.take_side_constraints();
        let side_conj = ctx.and(&sides);

        let bit_vars: Vec<VarId> = ctx
            .free_vars(lowered)
            .into_iter()
            .chain(ctx.free_vars(side_conj))
            .collect();
        let mut distinct: Vec<VarId> = bit_vars.clone();
        distinct.sort();
        distinct.dedup();

        let mut checked = 0;
        Assignment::for_all_assignments(&ctx, &distinct, 1 << 16, |asg| {
            if asg.eval_bool(&ctx, side_conj) != Some(true) {
                return; // out-of-range bit pattern
            }
            let decoded = bb.decode(&ctx, &|v| {
                asg.get(v).and_then(|val| val.as_bool()).unwrap_or(false)
            });
            let direct = decoded.eval_bool(&ctx, atom);
            let low = asg.eval_bool(&ctx, lowered);
            assert_eq!(direct, low, "mismatch at {:?}", decoded.get(VarId(0)));
            checked += 1;
        });
        assert!(checked as i64 > hi - lo, "not all values covered");
    }

    #[test]
    fn int_eq_const_lowering() {
        check_lowering_on_int(0, 6, |ctx, x| {
            let c = ctx.int_const(3);
            ctx.eq(x, c)
        });
    }

    #[test]
    fn int_eq_out_of_range_is_false() {
        let mut ctx = Ctx::new();
        let x = ctx.int_var("x", 0, 3);
        let c = ctx.int_const(9);
        let atom = ctx.eq(x, c);
        let mut bb = BitBlaster::new();
        let lowered = bb.lower(&mut ctx, atom);
        assert_eq!(lowered, ctx.mk_false());
    }

    #[test]
    fn int_le_const_lowering() {
        check_lowering_on_int(2, 9, |ctx, x| {
            let c = ctx.int_const(5);
            ctx.le(x, c)
        });
    }

    #[test]
    fn int_lt_const_lowering() {
        check_lowering_on_int(0, 10, |ctx, x| {
            let c = ctx.int_const(7);
            ctx.lt(x, c)
        });
    }

    #[test]
    fn const_le_var_lowering() {
        check_lowering_on_int(0, 10, |ctx, x| {
            let c = ctx.int_const(4);
            ctx.le(c, x)
        });
    }

    #[test]
    fn enum_eq_const_picks_right_bit() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("S", &["a", "b", "c"]);
        let x = ctx.enum_var("x", s);
        let cb = ctx.enum_const(s, 1);
        let atom = ctx.eq(x, cb);
        let mut bb = BitBlaster::new();
        let lowered = bb.lower(&mut ctx, atom);
        let sides = bb.take_side_constraints();
        assert!(!sides.is_empty(), "exactly-one constraints expected");
        // The lowered atom is the single indicator for variant 1.
        assert!(matches!(ctx.node(lowered), TermNode::BoolVar(_)));
        // Set that indicator true, decode, check variant.
        let bv = match ctx.node(lowered) {
            TermNode::BoolVar(v) => *v,
            _ => unreachable!(),
        };
        let decoded = bb.decode(&ctx, &|v| v == bv);
        assert_eq!(decoded.get(VarId(0)), Some(Value::Enum(s, 1)));
    }

    /// An enum variable `x` of `n` variants, its indicator bits and its
    /// side constraints.
    fn enum_of(ctx: &mut Ctx, n: usize) -> (Vec<TermId>, Vec<TermId>) {
        let names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let s = ctx.enum_sort("S", &names);
        let x = ctx.enum_var("x", s);
        let TermNode::EnumVar(var) = *ctx.node(x) else {
            unreachable!()
        };
        let mut bb = BitBlaster::new();
        let bits = bb.enum_encoding(ctx, var).to_vec();
        (bits, bb.take_side_constraints())
    }

    /// The exactly-one side constraint grows linearly with the variant
    /// count, and its models, projected onto the indicator bits, are
    /// exactly the one-hot vectors.
    #[test]
    fn enum_exactly_one_is_linear_in_variants() {
        let mut ctx = Ctx::new();
        let (_, sides) = enum_of(&mut ctx, 40);
        let mut cnf = crate::cnf::CnfBuilder::new();
        for side in sides {
            assert!(cnf.assert_term(&ctx, side));
        }
        let clauses = cnf.take_new_clauses().len();
        assert!(clauses <= 3 * 40, "{clauses} clauses for 40 variants");

        for n in 1..=6 {
            let mut ctx = Ctx::new();
            let (bits, sides) = enum_of(&mut ctx, n);
            let side_conj = ctx.and(&sides);
            let vars = ctx.free_vars(side_conj);
            let mut projected = std::collections::BTreeSet::new();
            Assignment::for_all_assignments(&ctx, &vars, 1 << 12, |asg| {
                if asg.eval_bool(&ctx, side_conj) == Some(true) {
                    let hot: Vec<bool> = bits
                        .iter()
                        .map(|&b| asg.eval_bool(&ctx, b) == Some(true))
                        .collect();
                    projected.insert(hot);
                }
            });
            let one_hot: std::collections::BTreeSet<Vec<bool>> =
                (0..n).map(|i| (0..n).map(|j| i == j).collect()).collect();
            assert_eq!(projected, one_hot, "n = {n}");
        }
    }

    #[test]
    fn enum_var_var_equality() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("S", &["a", "b"]);
        let x = ctx.enum_var("x", s);
        let y = ctx.enum_var("y", s);
        let atom = ctx.eq(x, y);
        let mut bb = BitBlaster::new();
        let lowered = bb.lower(&mut ctx, atom);
        let sides = bb.take_side_constraints();
        let side_conj = ctx.and(&sides);
        let mut vars = ctx.free_vars(lowered);
        vars.extend(ctx.free_vars(side_conj));
        vars.sort();
        vars.dedup();
        let mut agree = 0;
        Assignment::for_all_assignments(&ctx, &vars, 1 << 12, |asg| {
            if asg.eval_bool(&ctx, side_conj) != Some(true) {
                return;
            }
            let decoded = bb.decode(&ctx, &|v| {
                asg.get(v).and_then(|val| val.as_bool()).unwrap_or(false)
            });
            let expect = decoded.get(VarId(0)) == decoded.get(VarId(1));
            assert_eq!(asg.eval_bool(&ctx, lowered), Some(expect));
            agree += 1;
        });
        assert_eq!(agree, 4, "2x2 variant combinations");
    }

    /// The var–var comparisons: name, term constructor, integer meaning.
    type Cmp = (
        &'static str,
        fn(&mut Ctx, TermId, TermId) -> TermId,
        fn(i64, i64) -> bool,
    );
    const CMPS: [Cmp; 3] = [
        ("=", Ctx::eq, |a, b| a == b),
        ("<=", Ctx::le, |a, b| a <= b),
        ("<", Ctx::lt, |a, b| a < b),
    ];

    /// Exhaustively check every comparison between `x ∈ [xlo, xhi]` and
    /// `y ∈ [ylo, yhi]`, in both operand orders, against integer evaluation:
    /// every in-range bit pattern is decoded, and every value pair is
    /// reached exactly once.
    fn check_var_var(xlo: i64, xhi: i64, ylo: i64, yhi: i64) {
        let mut ctx = Ctx::new();
        let x = ctx.int_var("x", xlo, xhi);
        let y = ctx.int_var("y", ylo, yhi);
        let mut bb = BitBlaster::new();
        let mut lowered = Vec::new();
        for (name, build, holds) in CMPS {
            for swapped in [false, true] {
                let atom = if swapped {
                    build(&mut ctx, y, x)
                } else {
                    build(&mut ctx, x, y)
                };
                lowered.push((name, holds, swapped, bb.lower(&mut ctx, atom)));
            }
        }
        let sides = bb.take_side_constraints();
        let side_conj = ctx.and(&sides);
        let mut vars = ctx.free_vars(side_conj);
        for &(.., t) in &lowered {
            vars.extend(ctx.free_vars(t));
        }
        vars.sort();
        vars.dedup();

        let mut pairs = 0;
        Assignment::for_all_assignments(&ctx, &vars, 1 << 16, |asg| {
            if asg.eval_bool(&ctx, side_conj) != Some(true) {
                return; // out-of-range bit pattern
            }
            let decoded = bb.decode(&ctx, &|v| {
                asg.get(v).and_then(|val| val.as_bool()).unwrap_or(false)
            });
            let xv = decoded.get(VarId(0)).unwrap().as_int().unwrap();
            let yv = decoded.get(VarId(1)).unwrap().as_int().unwrap();
            assert!((xlo..=xhi).contains(&xv) && (ylo..=yhi).contains(&yv));
            for &(name, holds, swapped, t) in &lowered {
                let (a, b) = if swapped { (yv, xv) } else { (xv, yv) };
                assert_eq!(
                    asg.eval_bool(&ctx, t),
                    Some(holds(a, b)),
                    "{a} {name} {b} over x∈[{xlo},{xhi}], y∈[{ylo},{yhi}]"
                );
            }
            pairs += 1;
        });
        assert_eq!(
            pairs,
            (xhi - xlo + 1) * (yhi - ylo + 1),
            "every value pair once"
        );
    }

    #[test]
    fn int_var_var_lowering() {
        let ranges = [
            ((2, 6), (2, 6)),     // equal ranges
            ((0, 3), (1, 4)),     // y's lower bound is larger
            ((5, 9), (0, 2)),     // x's lower bound is larger
            ((-3, 2), (0, 4)),    // negative lower bound
            ((0, 0), (7, 7)),     // singletons
            ((7, 7), (5, 9)),     // a singleton inside the other range
            ((0, 12), (0, 3)),    // different widths
            ((0, 200), (0, 200)), // `Vocabulary::lp_bounds`
        ];
        for ((xlo, xhi), (ylo, yhi)) in ranges {
            check_var_var(xlo, xhi, ylo, yhi);
        }
    }

    /// A var–var atom over the local-preference domain [0, 200] is a circuit
    /// of a few gates per bit, not one comparator per domain value.
    #[test]
    fn int_var_var_circuits_are_linear_in_width() {
        for (name, build, _) in CMPS {
            let mut ctx = Ctx::new();
            let x = ctx.int_var("x", 0, 200);
            let y = ctx.int_var("y", 0, 200);
            let atom = build(&mut ctx, x, y);
            let lowered = BitBlaster::new().lower(&mut ctx, atom);
            let mut cnf = crate::cnf::CnfBuilder::new();
            assert!(cnf.assert_term(&ctx, lowered));
            let clauses = cnf.take_new_clauses().len();
            assert!(
                clauses <= 16 * 8,
                "x {name} y: {clauses} clauses over 8 bits"
            );
        }
    }

    #[test]
    fn lowering_is_memoized() {
        let mut ctx = Ctx::new();
        let x = ctx.int_var("x", 0, 7);
        let c = ctx.int_const(3);
        let atom = ctx.eq(x, c);
        let f = ctx.and2(atom, atom);
        let mut bb = BitBlaster::new();
        let terms_before = ctx.num_terms();
        bb.lower(&mut ctx, f);
        let first = ctx.num_terms();
        bb.lower(&mut ctx, f);
        assert_eq!(ctx.num_terms(), first, "second lower is a cache hit");
        assert!(first > terms_before);
    }
}
