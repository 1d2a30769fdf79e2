//! The constraint simplifier: fifteen rewrite rules applied to a fixpoint.
//!
//! The paper (§3, step 3) simplifies the seed specification by "applying
//! simplification procedures in prior work \[19\], where a set of rewriting
//! rules are applied … iteratively to achieve the minimal form. There are 15
//! simplification rules", giving two examples:
//!
//! ```text
//! False -> a   ≡  True
//! a \/ !a      ≡  True
//! ```
//!
//! This module implements the full rule set (named R1–R15 below, matching
//! DESIGN.md) with a per-rule [`RuleMask`] so the rule-ablation experiment
//! (E4) can disable any subset. Every rule preserves logical equivalence;
//! the property tests at the bottom of this file and in
//! `tests/` verify this against the brute-force evaluator and the SAT
//! solver.
//!
//! | Rule | Rewrite |
//! |------|---------|
//! | R1  | `¬⊤ → ⊥`, `¬⊥ → ⊤` (constant folding under negation) |
//! | R2  | `a ∧ ⊤ → a` (conjunction identity) |
//! | R3  | `a ∨ ⊥ → a` (disjunction identity) |
//! | R4  | `a ∧ ⊥ → ⊥` (conjunction annihilator) |
//! | R5  | `a ∨ ⊤ → ⊤` (disjunction annihilator) |
//! | R6  | `a ∧ a → a`, `a ∨ a → a` (idempotence) |
//! | R7  | `a ∧ ¬a → ⊥`, `a ∨ ¬a → ⊤` (complement; the paper's 2nd example) |
//! | R8  | `¬¬a → a` (double negation) |
//! | R9  | `a ∧ (a ∨ b) → a`, `a ∨ (a ∧ b) → a` (absorption) |
//! | R10 | `⊤→a → a`, `a→⊤ → ⊤`, `a→⊥ → ¬a`, `a→a → ⊤`, `a↔⊤ → a`, `a↔⊥ → ¬a`, `a↔a → ⊤` |
//! | R11 | `ite` folding: constant guard, equal branches, boolean-constant branches |
//! | R12 | theory constant folding: `c₁=c₂`, `c₁≤c₂`, `t=t → ⊤`, `t<t → ⊥`, domain-bound folds |
//! | R13 | equality substitution: `x=c ∧ φ → x=c ∧ φ[c/x]` |
//! | R14 | flattening: `(a ∧ b) ∧ c → a ∧ b ∧ c` and dually for ∨ |
//! | R15 | `⊥→a → ⊤` (the paper's 1st example, vacuous implication) |

use std::collections::HashMap;

use crate::dense::IdMap;
use crate::sort::Sort;
use crate::term::{Ctx, TermId, TermNode};

/// Bit mask selecting which of the fifteen rules are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMask(pub u16);

impl RuleMask {
    /// All fifteen rules enabled (the normal configuration).
    pub const ALL: RuleMask = RuleMask(0x7FFF);
    /// No rules enabled; simplification is the identity.
    pub const NONE: RuleMask = RuleMask(0);

    /// Mask with only rule `r` (1-based, 1..=15) enabled.
    pub fn only(r: u8) -> RuleMask {
        assert!((1..=15).contains(&r));
        RuleMask(1 << (r - 1))
    }

    /// Mask with all rules except `r` (1-based) enabled.
    pub fn all_except(r: u8) -> RuleMask {
        RuleMask(Self::ALL.0 & !Self::only(r).0)
    }

    /// True if rule `r` (1-based) is enabled.
    pub fn has(&self, r: u8) -> bool {
        debug_assert!((1..=15).contains(&r));
        self.0 & (1 << (r - 1)) != 0
    }

    /// Enable rule `r` on top of this mask.
    pub fn with(self, r: u8) -> RuleMask {
        RuleMask(self.0 | Self::only(r).0)
    }
}

impl Default for RuleMask {
    fn default() -> Self {
        RuleMask::ALL
    }
}

/// Per-run statistics: how often each rule fired, how well the memo table
/// performed, and how many fixpoint rewrite passes ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimplifyStats {
    /// `fired[i]` counts applications of rule `i+1`.
    pub fired: [u64; 15],
    /// Memo-table lookups that returned a cached result.
    pub memo_hits: u64,
    /// Memo-table lookups that missed (the term had to be simplified).
    pub memo_misses: u64,
    /// Root-level rewrite passes: one per rule application that changed the
    /// current term inside the fixpoint loop.
    pub iterations: u64,
}

impl SimplifyStats {
    /// Human-readable names for the fifteen rules, index `i` naming rule
    /// `i+1`. These match the rule table in the module docs and DESIGN.md.
    pub const RULE_NAMES: [&'static str; 15] = [
        "not-const",
        "and-identity",
        "or-identity",
        "and-annihilator",
        "or-annihilator",
        "idempotence",
        "complement",
        "double-negation",
        "absorption",
        "implies-iff-fold",
        "ite-fold",
        "theory-const-fold",
        "equality-substitution",
        "flatten",
        "vacuous-implication",
    ];

    /// The name of rule `r` (1-based, 1..=15).
    pub fn rule_name(r: u8) -> &'static str {
        assert!((1..=15).contains(&r));
        Self::RULE_NAMES[(r - 1) as usize]
    }

    /// Total rule applications.
    pub fn total(&self) -> u64 {
        self.fired.iter().sum()
    }

    /// Iterate `(rule name, fire count)` pairs in rule order (R1..R15).
    pub fn per_rule(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Self::RULE_NAMES
            .iter()
            .copied()
            .zip(self.fired.iter().copied())
    }

    /// Fraction of memo lookups that hit, or 0 when memoization never ran.
    pub fn memo_hit_rate(&self) -> f64 {
        let lookups = self.memo_hits + self.memo_misses;
        if lookups == 0 {
            0.0
        } else {
            self.memo_hits as f64 / lookups as f64
        }
    }
}

/// The simplifier. Holds the rule mask, a memo table indexed by interned
/// term id (valid because terms are immutable), and firing statistics.
#[derive(Debug)]
pub struct Simplifier {
    mask: RuleMask,
    memo: IdMap<TermId, TermId>,
    /// When false, results are not memoized — every shared subterm is
    /// re-simplified at each occurrence. Exists only for the memoization
    /// ablation benchmark (DESIGN.md ✦); leave enabled otherwise.
    use_memo: bool,
    /// Resource bounds; unlimited by default.
    budget: crate::budget::Budget,
    /// Set once the budget runs out: from then on `simplify` returns its
    /// input unchanged. Sound because every rewrite preserves equivalence —
    /// an unsimplified term is merely larger, never wrong.
    interrupt: Option<crate::budget::Interrupt>,
    /// Throttle for the deadline/cancellation checks.
    since_coarse: u32,
    /// Statistics accumulated across calls to [`Simplifier::simplify`].
    pub stats: SimplifyStats,
}

impl Default for Simplifier {
    fn default() -> Self {
        Self::new(RuleMask::ALL)
    }
}

impl Simplifier {
    /// Create a simplifier with the given rule mask.
    pub fn new(mask: RuleMask) -> Self {
        Simplifier {
            mask,
            memo: IdMap::default(),
            use_memo: true,
            budget: crate::budget::Budget::default(),
            interrupt: None,
            since_coarse: 64, // check the deadline on the first subterm

            stats: SimplifyStats::default(),
        }
    }

    /// Disable hash-consed memoization (ablation only).
    pub fn without_memo(mut self) -> Self {
        self.use_memo = false;
        self
    }

    /// Bound simplification by `budget` (deadline, cancellation, and the
    /// memo-entry cap apply; the solver-specific caps are ignored here).
    pub fn with_budget(mut self, budget: crate::budget::Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The interrupt that stopped simplification, if the budget ran out.
    /// When set, terms returned since then are partially (or not at all)
    /// simplified but still equivalent to their inputs.
    pub fn interrupted(&self) -> Option<&crate::budget::Interrupt> {
        self.interrupt.as_ref()
    }

    /// Budget checkpoint, hit on every memo miss (i.e. each new subterm).
    /// The memo cap and fault site are exact; deadline/cancellation are
    /// throttled since they cost an `Instant::now()`/atomic load.
    fn governance_check(&mut self) -> bool {
        use crate::budget::{Interrupt, InterruptReason};
        if self.interrupt.is_some() {
            return true;
        }
        let found = if netexpl_faults::triggered(netexpl_faults::sites::SIMPLIFY_PASS) {
            Some(Interrupt::new(InterruptReason::Fault, "simplify.pass"))
        } else if self
            .budget
            .max_memo_entries
            .is_some_and(|cap| self.memo.len() >= cap)
        {
            Some(Interrupt::new(
                InterruptReason::MemoEntries,
                "simplify.pass",
            ))
        } else {
            self.since_coarse += 1;
            if self.since_coarse >= 64 {
                self.since_coarse = 0;
                self.budget.check_coarse("simplify.pass").err()
            } else {
                None
            }
        };
        if let Some(i) = found {
            i.record();
            self.interrupt = Some(i);
            return true;
        }
        false
    }

    /// The active rule mask.
    pub fn mask(&self) -> RuleMask {
        self.mask
    }

    /// Simplify a boolean term to a fixpoint of the enabled rules.
    ///
    /// When a [`Budget`](crate::budget::Budget) is set and runs out, the
    /// term is returned (partially) unsimplified and
    /// [`Simplifier::interrupted`] reports why — the result is still
    /// equivalent to the input, just not minimal.
    pub fn simplify(&mut self, ctx: &mut Ctx, t: TermId) -> TermId {
        if self.use_memo {
            if let Some(&r) = self.memo.get(t) {
                self.stats.memo_hits += 1;
                return r;
            }
            self.stats.memo_misses += 1;
        }
        if self.governance_check() {
            return t;
        }
        // Bottom-up: simplify children first, rebuild, then rewrite this node
        // until no enabled rule fires. A rule may produce a node with fresh
        // (unsimplified) children — e.g. substitution — so we recurse on the
        // rewritten result. Memoization bounds the total work.
        let rebuilt = self.rebuild_with_simplified_children(ctx, t);
        let mut current = rebuilt;
        // Rules strictly reduce a well-founded measure (size, then number of
        // variable occurrences replaceable by constants), so this loop
        // terminates; the counter is a defensive backstop.
        for _ in 0..10_000 {
            if self.interrupt.is_some() {
                break; // budget ran out somewhere below: stop rewriting
            }
            match self.apply_rules(ctx, current) {
                Some(next) if next != current => {
                    self.stats.iterations += 1;
                    current = self.rebuild_with_simplified_children(ctx, next);
                }
                _ => break,
            }
        }
        if self.use_memo && self.interrupt.is_none() {
            // Don't memoize results computed after an interrupt fired lower
            // in the recursion: they may be partially simplified.
            self.memo.insert(t, current);
            self.memo.insert(current, current);
        }
        current
    }

    fn rebuild_with_simplified_children(&mut self, ctx: &mut Ctx, t: TermId) -> TermId {
        match *ctx.node(t) {
            TermNode::True
            | TermNode::False
            | TermNode::BoolVar(_)
            | TermNode::EnumVar(_)
            | TermNode::EnumConst(..)
            | TermNode::IntVar(_)
            | TermNode::IntConst(_) => t,
            TermNode::Not(a) => {
                let a2 = self.simplify(ctx, a);
                if a2 == a {
                    t
                } else {
                    ctx.not(a2)
                }
            }
            TermNode::And(_) | TermNode::Or(_) => {
                ctx.map_operands(t, |ctx, c| self.simplify(ctx, c))
            }
            TermNode::Implies(a, b) => {
                let (a2, b2) = (self.simplify(ctx, a), self.simplify(ctx, b));
                if (a2, b2) == (a, b) {
                    t
                } else {
                    ctx.implies(a2, b2)
                }
            }
            TermNode::Iff(a, b) => {
                let (a2, b2) = (self.simplify(ctx, a), self.simplify(ctx, b));
                if (a2, b2) == (a, b) {
                    t
                } else {
                    ctx.iff(a2, b2)
                }
            }
            TermNode::Ite(c, a, b) => {
                let c2 = self.simplify(ctx, c);
                let (a2, b2) = (self.simplify(ctx, a), self.simplify(ctx, b));
                if (c2, a2, b2) == (c, a, b) {
                    t
                } else {
                    ctx.ite(c2, a2, b2)
                }
            }
            // Theory atoms have non-boolean children which need no rewriting
            // beyond what R12/R13 do at this level.
            TermNode::Eq(..) | TermNode::Le(..) | TermNode::Lt(..) => t,
        }
    }

    /// Try every enabled rule at the root of `t`; returns the rewritten term
    /// of the first rule that fires.
    fn apply_rules(&mut self, ctx: &mut Ctx, t: TermId) -> Option<TermId> {
        // Order matters only for performance, not correctness: cheaper and
        // more aggressively size-reducing rules run first.
        type Rule = fn(&mut Ctx, TermId) -> Option<TermId>;
        let rules: [(u8, Rule); 15] = [
            (1, r1_not_const),
            (4, r4_and_annihilator),
            (5, r5_or_annihilator),
            (2, r2_and_identity),
            (3, r3_or_identity),
            (14, r14_flatten),
            (6, r6_idempotence),
            (7, r7_complement),
            (8, r8_double_negation),
            (9, r9_absorption),
            (15, r15_vacuous_implication),
            (10, r10_implies_iff_fold),
            (11, r11_ite_fold),
            (12, r12_theory_const_fold),
            (13, r13_equality_substitution),
        ];
        for (idx, rule) in rules {
            if !self.mask.has(idx) {
                continue;
            }
            if let Some(next) = rule(ctx, t) {
                if next != t {
                    self.stats.fired[(idx - 1) as usize] += 1;
                    return Some(next);
                }
            }
        }
        None
    }
}

/// Whether `t` is a conjunction (`true`) or a disjunction (`false`), with
/// its operands borrowed; `None` for any other node.
fn junction(ctx: &Ctx, t: TermId) -> Option<(bool, &[TermId])> {
    match ctx.node(t) {
        TermNode::And(cs) => Some((true, cs)),
        TermNode::Or(cs) => Some((false, cs)),
        _ => None,
    }
}

/// True if some operand occurs twice. The operands are scanned where they
/// lie in the arena, so R6 allocates nothing when it does not fire.
fn has_duplicate(cs: &[TermId]) -> bool {
    cs.iter().enumerate().any(|(i, c)| cs[..i].contains(c))
}

fn is_true(ctx: &Ctx, t: TermId) -> bool {
    matches!(ctx.node(t), TermNode::True)
}

fn is_false(ctx: &Ctx, t: TermId) -> bool {
    matches!(ctx.node(t), TermNode::False)
}

/// R1: `¬⊤ → ⊥`, `¬⊥ → ⊤`.
fn r1_not_const(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    if let TermNode::Not(a) = *ctx.node(t) {
        if is_true(ctx, a) {
            return Some(ctx.mk_false());
        }
        if is_false(ctx, a) {
            return Some(ctx.mk_true());
        }
    }
    None
}

/// R2: drop `⊤` conjuncts.
fn r2_and_identity(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    if let TermNode::And(cs) = ctx.node(t) {
        if cs.iter().any(|&c| is_true(ctx, c)) {
            let kept: Vec<TermId> = cs.iter().copied().filter(|&c| !is_true(ctx, c)).collect();
            return Some(ctx.and(&kept));
        }
    }
    None
}

/// R3: drop `⊥` disjuncts.
fn r3_or_identity(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    if let TermNode::Or(cs) = ctx.node(t) {
        if cs.iter().any(|&c| is_false(ctx, c)) {
            let kept: Vec<TermId> = cs.iter().copied().filter(|&c| !is_false(ctx, c)).collect();
            return Some(ctx.or(&kept));
        }
    }
    None
}

/// R4: a conjunction with a `⊥` conjunct is `⊥`.
fn r4_and_annihilator(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    if let TermNode::And(cs) = ctx.node(t) {
        if cs.iter().any(|&c| is_false(ctx, c)) {
            return Some(ctx.mk_false());
        }
    }
    None
}

/// R5: a disjunction with a `⊤` disjunct is `⊤`.
fn r5_or_annihilator(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    if let TermNode::Or(cs) = ctx.node(t) {
        if cs.iter().any(|&c| is_true(ctx, c)) {
            return Some(ctx.mk_true());
        }
    }
    None
}

/// R6: remove duplicate children of ∧ / ∨.
fn r6_idempotence(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    let (is_and, cs) = junction(ctx, t)?;
    if !has_duplicate(cs) {
        return None;
    }
    let mut seen = std::collections::HashSet::new();
    let kept: Vec<TermId> = cs.iter().copied().filter(|&c| seen.insert(c)).collect();
    Some(if is_and {
        ctx.and(&kept)
    } else {
        ctx.or(&kept)
    })
}

/// R7: `… ∧ a ∧ ¬a ∧ … → ⊥` and `… ∨ a ∨ ¬a ∨ … → ⊤`.
fn r7_complement(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    let (is_and, cs) = junction(ctx, t)?;
    let complemented = cs.iter().any(|&c| match *ctx.node(c) {
        TermNode::Not(inner) => cs.contains(&inner),
        _ => false,
    });
    if !complemented {
        return None;
    }
    Some(if is_and {
        ctx.mk_false()
    } else {
        ctx.mk_true()
    })
}

/// R8: `¬¬a → a`.
fn r8_double_negation(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    if let TermNode::Not(a) = *ctx.node(t) {
        if let TermNode::Not(b) = *ctx.node(a) {
            return Some(b);
        }
    }
    None
}

/// R9: absorption. In a conjunction, a disjunct-child that contains another
/// conjunct as one of its disjuncts is redundant (`a ∧ (a ∨ b) → a`), and
/// dually for disjunctions.
fn r9_absorption(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    let (is_and, cs) = junction(ctx, t)?;
    let absorbed = |c: TermId| -> bool {
        let inner = match (is_and, ctx.node(c)) {
            (true, TermNode::Or(ds)) => ds,
            (false, TermNode::And(ds)) => ds,
            _ => return false,
        };
        inner.iter().any(|&d| d != c && cs.contains(&d))
    };
    if !cs.iter().any(|&c| absorbed(c)) {
        return None;
    }
    let kept: Vec<TermId> = cs.iter().copied().filter(|&c| !absorbed(c)).collect();
    Some(if is_and {
        ctx.and(&kept)
    } else {
        ctx.or(&kept)
    })
}

/// R10: implication / bi-implication folding (except the vacuous case `⊥→a`,
/// which is rule R15 because the paper singles it out).
fn r10_implies_iff_fold(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    match *ctx.node(t) {
        TermNode::Implies(a, b) => {
            if is_true(ctx, a) {
                return Some(b);
            }
            if is_true(ctx, b) {
                return Some(ctx.mk_true());
            }
            if is_false(ctx, b) {
                return Some(ctx.not(a));
            }
            if a == b {
                return Some(ctx.mk_true());
            }
            None
        }
        TermNode::Iff(a, b) => {
            if a == b {
                return Some(ctx.mk_true());
            }
            if is_true(ctx, a) {
                return Some(b);
            }
            if is_true(ctx, b) {
                return Some(a);
            }
            if is_false(ctx, a) {
                return Some(ctx.not(b));
            }
            if is_false(ctx, b) {
                return Some(ctx.not(a));
            }
            None
        }
        _ => None,
    }
}

/// R11: `ite` folding.
fn r11_ite_fold(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    if let TermNode::Ite(c, a, b) = *ctx.node(t) {
        if is_true(ctx, c) {
            return Some(a);
        }
        if is_false(ctx, c) {
            return Some(b);
        }
        if a == b {
            return Some(a);
        }
        if is_true(ctx, a) && is_false(ctx, b) {
            return Some(c);
        }
        if is_false(ctx, a) && is_true(ctx, b) {
            return Some(ctx.not(c));
        }
        // ite(c, ⊤, b) → c ∨ b ; ite(c, ⊥, b) → ¬c ∧ b ; and symmetric.
        if is_true(ctx, a) {
            return Some(ctx.or2(c, b));
        }
        if is_false(ctx, a) {
            let nc = ctx.not(c);
            return Some(ctx.and2(nc, b));
        }
        if is_true(ctx, b) {
            let nc = ctx.not(c);
            return Some(ctx.or2(nc, a));
        }
        if is_false(ctx, b) {
            return Some(ctx.and2(c, a));
        }
    }
    None
}

/// R12: theory-atom constant folding, reflexivity, and domain-bound folds.
fn r12_theory_const_fold(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    let int_range = |ctx: &Ctx, u: TermId| -> Option<(i64, i64)> {
        match ctx.sort_of(u) {
            Sort::Int { lo, hi } => Some((lo, hi)),
            _ => None,
        }
    };
    match *ctx.node(t) {
        TermNode::Eq(a, b) => {
            if a == b {
                return Some(ctx.mk_true());
            }
            match (ctx.node(a).clone(), ctx.node(b).clone()) {
                (TermNode::EnumConst(s1, v1), TermNode::EnumConst(s2, v2)) => {
                    Some(ctx.mk_bool(s1 == s2 && v1 == v2))
                }
                (TermNode::IntConst(c1), TermNode::IntConst(c2)) => Some(ctx.mk_bool(c1 == c2)),
                // A constant outside the variable's domain can never be equal.
                (TermNode::IntVar(_), TermNode::IntConst(c))
                | (TermNode::IntConst(c), TermNode::IntVar(_)) => {
                    let (lo, hi) = int_range(
                        ctx,
                        if matches!(ctx.node(a), TermNode::IntVar(_)) {
                            a
                        } else {
                            b
                        },
                    )?;
                    if c < lo || c > hi {
                        return Some(ctx.mk_false());
                    }
                    None
                }
                _ => None,
            }
        }
        TermNode::Le(a, b) => {
            if a == b {
                return Some(ctx.mk_true());
            }
            let (alo, ahi) = int_range(ctx, a)?;
            let (blo, bhi) = int_range(ctx, b)?;
            if ahi <= blo {
                return Some(ctx.mk_true());
            }
            if alo > bhi {
                return Some(ctx.mk_false());
            }
            None
        }
        TermNode::Lt(a, b) => {
            if a == b {
                return Some(ctx.mk_false());
            }
            let (alo, ahi) = int_range(ctx, a)?;
            let (blo, bhi) = int_range(ctx, b)?;
            if ahi < blo {
                return Some(ctx.mk_true());
            }
            if alo >= bhi {
                return Some(ctx.mk_false());
            }
            None
        }
        _ => None,
    }
}

/// R13: equality substitution within a conjunction:
/// `x = c ∧ φ → x = c ∧ φ[c/x]`.
fn r13_equality_substitution(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    let TermNode::And(cs) = ctx.node(t) else {
        return None;
    };
    if !cs.iter().any(|&c| var_binding(ctx, c).is_some()) {
        return None;
    }
    let cs = cs.to_vec();
    let mut bindings: HashMap<TermId, TermId> = HashMap::new();
    for &c in &cs {
        if let Some((var, value)) = var_binding(ctx, c) {
            bindings.entry(var).or_insert(value);
        }
    }
    let mut changed = false;
    let mut out = Vec::with_capacity(cs.len());
    for &c in &cs {
        // Keep the defining equations themselves; substitute in the rest.
        let is_defining = match *ctx.node(c) {
            TermNode::Eq(a, b) => {
                bindings.get(&a).copied() == Some(b) || bindings.get(&b).copied() == Some(a)
            }
            _ => false,
        };
        if is_defining {
            out.push(c);
            continue;
        }
        let c2 = ctx.substitute(c, &bindings);
        changed |= c2 != c;
        out.push(c2);
    }
    if !changed {
        return None;
    }
    Some(ctx.and(&out))
}

/// The var-term → const-term binding a conjunct of shape `var = const`
/// makes (either orientation after Eq canonicalization).
fn var_binding(ctx: &Ctx, c: TermId) -> Option<(TermId, TermId)> {
    let TermNode::Eq(a, b) = *ctx.node(c) else {
        return None;
    };
    let is_var = |u: TermId| matches!(ctx.node(u), TermNode::EnumVar(_) | TermNode::IntVar(_));
    let is_const =
        |u: TermId| matches!(ctx.node(u), TermNode::EnumConst(..) | TermNode::IntConst(_));
    if is_var(a) && is_const(b) {
        Some((a, b))
    } else if is_var(b) && is_const(a) {
        Some((b, a))
    } else {
        None
    }
}

/// R14: flatten nested conjunctions / disjunctions.
fn r14_flatten(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    let (is_and, cs) = junction(ctx, t)?;
    let nested = |c: TermId| -> bool {
        matches!(
            (is_and, ctx.node(c)),
            (true, TermNode::And(_)) | (false, TermNode::Or(_))
        )
    };
    if !cs.iter().any(|&c| nested(c)) {
        return None;
    }
    let mut out = Vec::new();
    for &c in cs {
        match (is_and, ctx.node(c)) {
            (true, TermNode::And(inner)) | (false, TermNode::Or(inner)) => {
                out.extend(inner.iter().copied())
            }
            _ => out.push(c),
        }
    }
    Some(if is_and { ctx.and(&out) } else { ctx.or(&out) })
}

/// R15: the paper's example rule, `⊥ → a ≡ ⊤`.
fn r15_vacuous_implication(ctx: &mut Ctx, t: TermId) -> Option<TermId> {
    if let TermNode::Implies(a, _) = *ctx.node(t) {
        if is_false(ctx, a) {
            return Some(ctx.mk_true());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::brute_force_equivalent;

    fn simp(ctx: &mut Ctx, t: TermId) -> TermId {
        Simplifier::default().simplify(ctx, t)
    }

    #[test]
    fn r1_not_constants() {
        let mut ctx = Ctx::new();
        let t = ctx.mk_true();
        let f = ctx.mk_false();
        let nt = ctx.not(t);
        let nf = ctx.not(f);
        assert_eq!(simp(&mut ctx, nt), f);
        assert_eq!(simp(&mut ctx, nf), t);
    }

    #[test]
    fn r2_r3_identities() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let t = ctx.mk_true();
        let f = ctx.mk_false();
        let at = ctx.and2(a, t);
        let af = ctx.or2(a, f);
        assert_eq!(simp(&mut ctx, at), a);
        assert_eq!(simp(&mut ctx, af), a);
    }

    #[test]
    fn r4_r5_annihilators() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let t = ctx.mk_true();
        let f = ctx.mk_false();
        let af = ctx.and2(a, f);
        let at = ctx.or2(a, t);
        assert_eq!(simp(&mut ctx, af), f);
        assert_eq!(simp(&mut ctx, at), t);
    }

    #[test]
    fn r6_idempotence() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let aab = ctx.and(&[a, a, b]);
        let expect = ctx.and2(a, b);
        assert_eq!(simp(&mut ctx, aab), expect);
    }

    #[test]
    fn r7_complement_both_polarities() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        let t = ctx.mk_true();
        let f = ctx.mk_false();
        let c = ctx.and2(a, na);
        let d = ctx.or2(na, a);
        assert_eq!(simp(&mut ctx, c), f);
        assert_eq!(simp(&mut ctx, d), t, "paper example: a \\/ !a = True");
    }

    #[test]
    fn r8_double_negation() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        let nna = ctx.not(na);
        assert_eq!(simp(&mut ctx, nna), a);
    }

    #[test]
    fn r9_absorption() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let aob = ctx.or2(a, b);
        let and = ctx.and2(a, aob);
        assert_eq!(simp(&mut ctx, and), a);
        let aab = ctx.and2(a, b);
        let or = ctx.or2(a, aab);
        assert_eq!(simp(&mut ctx, or), a);
    }

    #[test]
    fn r10_implies_and_iff_folds() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let t = ctx.mk_true();
        let f = ctx.mk_false();
        let ta = ctx.implies(t, a);
        assert_eq!(simp(&mut ctx, ta), a);
        let at = ctx.implies(a, t);
        assert_eq!(simp(&mut ctx, at), t);
        let af = ctx.implies(a, f);
        let na = ctx.not(a);
        assert_eq!(simp(&mut ctx, af), na);
        let aa = ctx.implies(a, a);
        assert_eq!(simp(&mut ctx, aa), t);
        let iat = ctx.iff(a, t);
        assert_eq!(simp(&mut ctx, iat), a);
        let iaf = ctx.iff(a, f);
        assert_eq!(simp(&mut ctx, iaf), na);
    }

    #[test]
    fn r11_ite_folds() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.bool_var("c");
        let t = ctx.mk_true();
        let f = ctx.mk_false();
        let i1 = ctx.ite(t, a, b);
        assert_eq!(simp(&mut ctx, i1), a);
        let i2 = ctx.ite(f, a, b);
        assert_eq!(simp(&mut ctx, i2), b);
        let i3 = ctx.ite(c, a, a);
        assert_eq!(simp(&mut ctx, i3), a);
        let i4 = ctx.ite(c, t, f);
        assert_eq!(simp(&mut ctx, i4), c);
        let i5 = ctx.ite(c, f, t);
        let nc = ctx.not(c);
        assert_eq!(simp(&mut ctx, i5), nc);
    }

    #[test]
    fn r12_theory_folds() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("S", &["x", "y"]);
        let c0 = ctx.enum_const(s, 0);
        let c1 = ctx.enum_const(s, 1);
        let t = ctx.mk_true();
        let f = ctx.mk_false();
        let e1 = ctx.eq(c0, c1);
        assert_eq!(simp(&mut ctx, e1), f);
        let e2 = ctx.eq(c0, c0);
        assert_eq!(simp(&mut ctx, e2), t);
        let i = ctx.int_var("i", 0, 10);
        let big = ctx.int_const(20);
        let e3 = ctx.eq(i, big);
        assert_eq!(simp(&mut ctx, e3), f, "constant outside domain");
        let e4 = ctx.le(i, big);
        assert_eq!(simp(&mut ctx, e4), t, "hi(i)=10 <= 20 always");
        let neg = ctx.int_const(-1);
        let e5 = ctx.lt(i, neg);
        assert_eq!(simp(&mut ctx, e5), f);
    }

    #[test]
    fn r13_equality_substitution_propagates() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("Action", &["permit", "deny"]);
        let x = ctx.enum_var("x", s);
        let deny = ctx.enum_const(s, 1);
        let permit = ctx.enum_const(s, 0);
        let def = ctx.eq(x, deny);
        let use_ = ctx.eq(x, permit);
        let f = ctx.and2(def, use_);
        // x = deny ∧ x = permit  →  x = deny ∧ deny = permit  →  ⊥
        let fal = ctx.mk_false();
        assert_eq!(simp(&mut ctx, f), fal);
    }

    #[test]
    fn r14_flatten_nested() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.bool_var("c");
        let ab = ctx.and2(a, b);
        let abc = ctx.and2(ab, c);
        let flat = ctx.and(&[a, b, c]);
        assert_eq!(simp(&mut ctx, abc), flat);
    }

    #[test]
    fn r15_vacuous_implication_paper_example() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let f = ctx.mk_false();
        let t = ctx.mk_true();
        let fa = ctx.implies(f, a);
        assert_eq!(simp(&mut ctx, fa), t, "paper example: False -> a = True");
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        let nna = ctx.not(na);
        let mut s = Simplifier::new(RuleMask::all_except(8));
        assert_eq!(s.simplify(&mut ctx, nna), nna, "R8 disabled: ¬¬a untouched");
        let mut s2 = Simplifier::new(RuleMask::only(8));
        assert_eq!(s2.simplify(&mut ctx, nna), a);
    }

    #[test]
    fn mask_helpers() {
        assert!(RuleMask::ALL.has(1) && RuleMask::ALL.has(15));
        assert!(!RuleMask::NONE.has(7));
        assert!(RuleMask::only(7).has(7) && !RuleMask::only(7).has(8));
        assert!(!RuleMask::all_except(3).has(3) && RuleMask::all_except(3).has(4));
        assert!(RuleMask::NONE.with(5).has(5));
    }

    #[test]
    fn mask_boundary_rules() {
        // Rule 1 lives in bit 0, rule 15 in bit 14: both ends of the
        // 1-based range, neither off-by-one.
        assert_eq!(RuleMask::only(1).0, 0b1);
        assert_eq!(RuleMask::only(15).0, 1 << 14);
        for r in 1..=15 {
            let m = RuleMask::only(r);
            for other in 1..=15 {
                assert_eq!(m.has(other), other == r, "only({r}).has({other})");
            }
        }
        // ALL is exactly the union of the fifteen singletons.
        let union = (1..=15).fold(RuleMask::NONE, RuleMask::with);
        assert_eq!(union.0, RuleMask::ALL.0);
    }

    #[test]
    #[should_panic]
    fn mask_only_zero_is_out_of_range() {
        let _ = RuleMask::only(0);
    }

    #[test]
    #[should_panic]
    fn mask_only_sixteen_is_out_of_range() {
        let _ = RuleMask::only(16);
    }

    #[test]
    fn mask_all_except_with_round_trip() {
        for r in 1..=15 {
            assert_eq!(
                RuleMask::all_except(r).with(r).0,
                RuleMask::ALL.0,
                "rule {r}"
            );
            // Dropping and re-adding a rule a second time is a no-op.
            let m = RuleMask::all_except(r).with(r).with(r);
            assert_eq!(m.0, RuleMask::ALL.0);
            // `all_except` leaves the other fourteen untouched.
            for other in 1..=15 {
                assert_eq!(RuleMask::all_except(r).has(other), other != r);
            }
        }
    }

    #[test]
    fn without_memo_gives_same_results() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let t = ctx.mk_true();
        let ab = ctx.and2(a, b);
        let noisy = ctx.and2(ab, t);
        let f = ctx.or2(noisy, noisy);
        let with = Simplifier::default().simplify(&mut ctx, f);
        let without = Simplifier::default().without_memo().simplify(&mut ctx, f);
        assert_eq!(with, without);
    }

    #[test]
    fn stats_count_firings() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let t = ctx.mk_true();
        let at = ctx.and2(a, t);
        let mut s = Simplifier::default();
        s.simplify(&mut ctx, at);
        assert!(s.stats.fired[1] >= 1, "R2 fired");
        assert!(s.stats.total() >= 1);
    }

    #[test]
    fn stats_names_and_memo_counters() {
        assert_eq!(SimplifyStats::rule_name(1), "not-const");
        assert_eq!(SimplifyStats::rule_name(15), "vacuous-implication");
        assert_eq!(SimplifyStats::RULE_NAMES.len(), 15);

        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let t = ctx.mk_true();
        let at = ctx.and2(a, t);
        let mut s = Simplifier::default();
        s.simplify(&mut ctx, at);
        // First pass misses everywhere; a repeat hits the memo.
        assert!(s.stats.memo_misses >= 1);
        assert!(s.stats.iterations >= 1);
        let misses_before = s.stats.memo_misses;
        s.simplify(&mut ctx, at);
        assert!(s.stats.memo_hits >= 1);
        assert_eq!(s.stats.memo_misses, misses_before);
        assert!(s.stats.memo_hit_rate() > 0.0 && s.stats.memo_hit_rate() <= 1.0);
        // Per-rule view lines up with the raw array.
        let by_name: Vec<(&str, u64)> = s.stats.per_rule().collect();
        assert_eq!(by_name.len(), 15);
        assert_eq!(by_name[1], ("and-identity", s.stats.fired[1]));
    }

    #[test]
    fn memo_cap_interrupts_but_stays_equivalent() {
        use crate::budget::{Budget, InterruptReason};
        let mut ctx = Ctx::new();
        let vars: Vec<_> = (0..8).map(|i| ctx.bool_var(&format!("v{i}"))).collect();
        let t = ctx.mk_true();
        let noisy: Vec<_> = vars.iter().map(|&v| ctx.and2(v, t)).collect();
        let f = ctx.and(&noisy);
        let mut s = Simplifier::default().with_budget(Budget::unlimited().max_memo_entries(3));
        let g = s.simplify(&mut ctx, f);
        let i = s.interrupted().expect("tiny memo cap must interrupt");
        assert_eq!(i.reason, InterruptReason::MemoEntries);
        assert!(
            brute_force_equivalent(&ctx, f, g, 2000),
            "interrupted simplification must stay equivalent"
        );
    }

    /// The memo-entry cap counts distinct memoized terms. On a fixed
    /// formula each cap interrupts at the same point it always has: the
    /// same entries held, the same subterms simplified, the same rewrites.
    #[test]
    fn memo_cap_fires_at_a_fixed_entry_count() {
        use crate::budget::Budget;
        let mut ctx = Ctx::new();
        let vars: Vec<_> = (0..6).map(|i| ctx.bool_var(&format!("v{i}"))).collect();
        let t = ctx.mk_true();
        let noisy: Vec<_> = vars.iter().map(|&v| ctx.and2(v, t)).collect();
        let pairs: Vec<_> = noisy.chunks(2).map(|p| ctx.or2(p[0], p[1])).collect();
        let f = ctx.and(&pairs);
        let observed: Vec<(usize, usize, u64, u64)> = (1..=12)
            .map(|cap| {
                let budget = Budget::unlimited().max_memo_entries(cap);
                let mut s = Simplifier::default().with_budget(budget);
                s.simplify(&mut ctx, f);
                assert!(s.interrupted().is_some(), "cap {cap}");
                (cap, s.memo.len(), s.stats.memo_misses, s.stats.total())
            })
            .collect();
        // (cap, entries held, memo misses, rule firings)
        let expected = [
            (1, 1, 8, 0),
            (2, 3, 8, 1),
            (3, 3, 8, 1),
            (4, 7, 9, 2),
            (5, 7, 9, 2),
            (6, 7, 9, 2),
            (7, 7, 9, 2),
            (8, 9, 12, 3),
            (9, 9, 12, 3),
            (10, 13, 13, 4),
            (11, 13, 13, 4),
            (12, 13, 13, 4),
        ];
        assert_eq!(observed, expected);
    }

    #[test]
    fn expired_deadline_returns_input_unchanged_semantics() {
        use crate::budget::Budget;
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let t = ctx.mk_true();
        let mut f = a;
        // Enough distinct subterms that the throttled deadline check fires.
        for _ in 0..200 {
            f = ctx.and2(f, t);
        }
        let budget = Budget::unlimited().deadline_in(std::time::Duration::ZERO);
        let mut s = Simplifier::default().with_budget(budget);
        let g = s.simplify(&mut ctx, f);
        assert!(s.interrupted().is_some());
        assert!(brute_force_equivalent(&ctx, f, g, 100));
    }

    #[test]
    fn fault_injection_interrupts_simplifier() {
        use crate::budget::InterruptReason;
        let _g = netexpl_faults::arm(netexpl_faults::sites::SIMPLIFY_PASS);
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let t = ctx.mk_true();
        let at = ctx.and2(a, t);
        let mut s = Simplifier::default();
        let out = s.simplify(&mut ctx, at);
        assert_eq!(out, at, "fault leaves the term unsimplified");
        assert_eq!(s.interrupted().unwrap().reason, InterruptReason::Fault);
    }

    #[test]
    fn deep_nesting_simplifies_to_atom() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let t = ctx.mk_true();
        let mut cur = a;
        for _ in 0..50 {
            cur = ctx.and2(cur, t);
            let inner = ctx.not(cur);
            cur = ctx.not(inner);
        }
        assert_eq!(simp(&mut ctx, cur), a);
    }

    #[test]
    fn simplification_preserves_equivalence_on_fixed_cases() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.bool_var("c");
        let na = ctx.not(a);
        let cases = {
            let ab = ctx.and2(a, b);
            let abc = ctx.or2(ab, c);
            let imp = ctx.implies(abc, b);
            let ite = ctx.ite(a, imp, na);
            let nested = ctx.iff(ite, ab);
            vec![ab, abc, imp, ite, nested]
        };
        for f in cases {
            let g = simp(&mut ctx, f);
            assert!(
                brute_force_equivalent(&ctx, f, g, 1000),
                "simplification changed semantics of {}",
                ctx.display(f)
            );
        }
    }

    // Property test: random formulas stay equivalent under simplification.
    mod prop {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum F {
            Var(u8),
            T,
            Fls,
            Not(Box<F>),
            And(Box<F>, Box<F>),
            Or(Box<F>, Box<F>),
            Implies(Box<F>, Box<F>),
            Iff(Box<F>, Box<F>),
            Ite(Box<F>, Box<F>, Box<F>),
        }

        fn arb_formula() -> impl Strategy<Value = F> {
            let leaf = prop_oneof![(0u8..4).prop_map(F::Var), Just(F::T), Just(F::Fls),];
            leaf.prop_recursive(5, 64, 3, |inner| {
                prop_oneof![
                    inner.clone().prop_map(|f| F::Not(Box::new(f))),
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| F::And(Box::new(a), Box::new(b))),
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| F::Or(Box::new(a), Box::new(b))),
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| F::Implies(Box::new(a), Box::new(b))),
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| F::Iff(Box::new(a), Box::new(b))),
                    (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| F::Ite(
                        Box::new(a),
                        Box::new(b),
                        Box::new(c)
                    )),
                ]
            })
        }

        fn build(ctx: &mut Ctx, vars: &[TermId], f: &F) -> TermId {
            match f {
                F::Var(i) => vars[*i as usize % vars.len()],
                F::T => ctx.mk_true(),
                F::Fls => ctx.mk_false(),
                F::Not(a) => {
                    let a = build(ctx, vars, a);
                    ctx.not(a)
                }
                F::And(a, b) => {
                    let (a, b) = (build(ctx, vars, a), build(ctx, vars, b));
                    ctx.and2(a, b)
                }
                F::Or(a, b) => {
                    let (a, b) = (build(ctx, vars, a), build(ctx, vars, b));
                    ctx.or2(a, b)
                }
                F::Implies(a, b) => {
                    let (a, b) = (build(ctx, vars, a), build(ctx, vars, b));
                    ctx.implies(a, b)
                }
                F::Iff(a, b) => {
                    let (a, b) = (build(ctx, vars, a), build(ctx, vars, b));
                    ctx.iff(a, b)
                }
                F::Ite(a, b, c) => {
                    let (a, b, c) = (
                        build(ctx, vars, a),
                        build(ctx, vars, b),
                        build(ctx, vars, c),
                    );
                    ctx.ite(a, b, c)
                }
            }
        }

        proptest! {
            #[test]
            fn simplify_preserves_equivalence(f in arb_formula()) {
                let mut ctx = Ctx::new();
                let vars: Vec<TermId> =
                    (0..4).map(|i| ctx.bool_var(&format!("v{i}"))).collect();
                let t = build(&mut ctx, &vars, &f);
                let s = Simplifier::default().simplify(&mut ctx, t);
                prop_assert!(brute_force_equivalent(&ctx, t, s, 100));
            }

            #[test]
            fn simplify_never_grows_tree(f in arb_formula()) {
                let mut ctx = Ctx::new();
                let vars: Vec<TermId> =
                    (0..4).map(|i| ctx.bool_var(&format!("v{i}"))).collect();
                let t = build(&mut ctx, &vars, &f);
                let before = ctx.term_size(t);
                let s = Simplifier::default().simplify(&mut ctx, t);
                // ite expansion (R11 non-constant-branch cases) can add a
                // negation node; allow a small constant slack per ite.
                let ites = count_ites(&ctx, t);
                prop_assert!(ctx.term_size(s) <= before + ites * 2);
            }

            #[test]
            fn single_rule_masks_preserve_equivalence(
                f in arb_formula(),
                rule in 1u8..=15,
            ) {
                let mut ctx = Ctx::new();
                let vars: Vec<TermId> =
                    (0..4).map(|i| ctx.bool_var(&format!("v{i}"))).collect();
                let t = build(&mut ctx, &vars, &f);
                let s = Simplifier::new(RuleMask::only(rule)).simplify(&mut ctx, t);
                prop_assert!(
                    brute_force_equivalent(&ctx, t, s, 100),
                    "rule {} alone changed semantics",
                    rule
                );
            }

            #[test]
            fn simplify_is_idempotent(f in arb_formula()) {
                let mut ctx = Ctx::new();
                let vars: Vec<TermId> =
                    (0..4).map(|i| ctx.bool_var(&format!("v{i}"))).collect();
                let t = build(&mut ctx, &vars, &f);
                let s1 = Simplifier::default().simplify(&mut ctx, t);
                let s2 = Simplifier::default().simplify(&mut ctx, s1);
                prop_assert_eq!(s1, s2);
            }
        }

        fn count_ites(ctx: &Ctx, t: TermId) -> usize {
            let mut n = 0;
            let mut stack = vec![t];
            while let Some(u) = stack.pop() {
                if matches!(ctx.node(u), TermNode::Ite(..)) {
                    n += 1;
                }
                stack.extend(ctx.children(u));
            }
            n
        }
    }
}
