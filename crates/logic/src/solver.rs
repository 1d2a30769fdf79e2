//! The user-facing SMT solver: bit-blast → Tseitin → CDCL → decode.
//!
//! [`SmtSolver`] collects assertions (boolean terms over any mix of boolean,
//! enum and bounded-int variables) and decides them. Each `check` builds a
//! fresh SAT instance and returns a decoded [`Assignment`] over the
//! *original* term-level variables. One-shot construction keeps each query
//! hermetic — nothing leaks between checks — which is exactly what the
//! differential test suite wants from its reference solver. Query *streams*
//! against a shared assertion base (the lifter, lint's per-map passes) go
//! through [`crate::session::SmtSession`] instead, which encodes once and
//! reuses the learned-clause and activity state across queries.

use crate::bitblast::BitBlaster;
use crate::budget::{Budget, Interrupt, InterruptReason};
use crate::cnf::CnfBuilder;
use crate::model::{Assignment, Value};
use crate::sat::{SatResult, SatSolver, SatStats};
use crate::term::{Ctx, TermId, TermNode};
use netexpl_obs::Span;

/// Accumulate one query's CDCL search statistics into the observability
/// counters. No-op when no obs session is installed.
pub(crate) fn record_sat_stats(stats: &SatStats) {
    if !netexpl_obs::enabled() {
        return;
    }
    netexpl_obs::counter_add("sat.decisions", stats.decisions);
    netexpl_obs::counter_add("sat.propagations", stats.propagations);
    netexpl_obs::counter_add("sat.conflicts", stats.conflicts);
    netexpl_obs::counter_add("sat.restarts", stats.restarts);
    netexpl_obs::counter_add("sat.learned", stats.learned);
}

/// Decode a SAT model back to an [`Assignment`] over the original term-level
/// variables: theory variables through the bit-blaster, plain booleans via
/// the CNF variable map. Shared by [`SmtSolver`] and
/// [`crate::session::SmtSession`].
pub(crate) fn decode_model(
    ctx: &Ctx,
    bb: &BitBlaster,
    var_map: &std::collections::HashMap<crate::term::VarId, usize>,
    model: &[bool],
) -> Assignment {
    let mut asg = bb.decode(ctx, &|v| {
        var_map.get(&v).map(|&sv| model[sv]).unwrap_or(false)
    });
    // Original boolean variables map directly. Encoding booleans introduced
    // by the bit-blaster are also included; harmless.
    for (&tv, &sv) in var_map {
        if asg.get(tv).is_none() {
            asg.set(tv, Value::Bool(model[sv]));
        }
    }
    asg
}

/// Shared tail of model enumeration ([`crate::session::SmtSession::check_all`]):
/// give unconstrained distinguished variables a default value so enumeration
/// still ranges over them, then return the blocking term that excludes this
/// combination of values — or `None` when there is nothing to block on.
pub(crate) fn fill_defaults_and_block(
    ctx: &mut Ctx,
    model: &mut Assignment,
    distinct_on: &[TermId],
) -> Option<TermId> {
    // A distinguished variable the formula never constrained gets a default
    // value (false / first variant / lower bound).
    for &t in distinct_on {
        let var = match ctx.node(t) {
            TermNode::BoolVar(v) | TermNode::EnumVar(v) | TermNode::IntVar(v) => *v,
            _ => panic!("check_all: distinct_on terms must be variables"),
        };
        if model.get(var).is_none() {
            let default = match ctx.var(var).sort {
                crate::sort::Sort::Bool => Value::Bool(false),
                crate::sort::Sort::Int { lo, .. } => Value::Int(lo),
                crate::sort::Sort::Enum(e) => Value::Enum(e, 0),
            };
            model.set(var, default);
        }
    }
    // Block this combination of values on the distinguished vars.
    let mut diffs: Vec<TermId> = Vec::new();
    for &t in distinct_on {
        let var = match ctx.node(t) {
            TermNode::BoolVar(v) | TermNode::EnumVar(v) | TermNode::IntVar(v) => *v,
            _ => unreachable!(),
        };
        let Some(value) = model.get(var) else {
            continue;
        };
        let diff = match value {
            Value::Bool(b) => {
                if b {
                    ctx.not(t)
                } else {
                    t
                }
            }
            Value::Int(i) => {
                let c = ctx.int_const(i);
                ctx.neq(t, c)
            }
            Value::Enum(sort, v) => {
                let c = ctx.enum_const(sort, v);
                ctx.neq(t, c)
            }
        };
        diffs.push(diff);
    }
    if diffs.is_empty() {
        None
    } else {
        Some(ctx.or(&diffs))
    }
}

/// Result of an SMT query.
#[derive(Debug, Clone, PartialEq)]
pub enum SmtResult {
    /// Satisfiable with an assignment over the original variables occurring
    /// in the assertions.
    Sat(Assignment),
    /// Unsatisfiable.
    Unsat,
    /// The query was interrupted before a verdict (budget exhausted,
    /// cancelled, or an injected fault). Only arises when a [`Budget`] is
    /// set or a fault site is armed; the unbudgeted solver is complete.
    Unknown(Interrupt),
}

impl SmtResult {
    /// True if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }

    /// True if the query was interrupted before a verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(self, SmtResult::Unknown(_))
    }

    /// The model, if satisfiable.
    pub fn model(self) -> Option<Assignment> {
        match self {
            SmtResult::Sat(m) => Some(m),
            SmtResult::Unsat | SmtResult::Unknown(_) => None,
        }
    }
}

/// An SMT solver instance: a set of assertions decided together.
#[derive(Debug, Default)]
pub struct SmtSolver {
    assertions: Vec<TermId>,
    budget: Budget,
}

impl SmtSolver {
    /// Fresh solver with no assertions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound subsequent `check*` calls by `budget`. The deadline and cancel
    /// token are shared globally; the integer caps apply per query.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Add an assertion.
    pub fn assert(&mut self, t: TermId) {
        self.assertions.push(t);
    }

    /// Current assertions.
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// Pre-query governance: injected faults and the coarse budget axes,
    /// checked before paying for encoding. Returns the interrupt to report.
    fn preflight(&self) -> Option<Interrupt> {
        let i = if netexpl_faults::triggered(netexpl_faults::sites::SMT_CHECK) {
            Interrupt::new(InterruptReason::Fault, "smt.check")
        } else {
            match self.budget.check_coarse("smt.check") {
                Ok(()) => return None,
                Err(i) => i,
            }
        };
        i.record();
        Some(i)
    }

    /// Decide the conjunction of all assertions.
    pub fn check(&self, ctx: &mut Ctx) -> SmtResult {
        self.check_with(ctx, &[])
    }

    /// Decide the assertions under retractable boolean assumptions. On
    /// `Unsat`, the second component is an **unsat core**: indices into
    /// `assumptions` whose conjunction (with the assertions) is already
    /// unsatisfiable. On `Sat` the core is empty.
    ///
    /// Assumption terms that are constant-false (or whose encoding folds to
    /// false) are reported as singleton cores immediately.
    pub fn check_assuming(&self, ctx: &mut Ctx, assumptions: &[TermId]) -> (SmtResult, Vec<usize>) {
        let span = Span::enter("smt.check");
        span.attr("assertions", self.assertions.len());
        span.attr("assumptions", assumptions.len());
        netexpl_obs::counter_add("smt.queries", 1);
        if let Some(i) = self.preflight() {
            return (SmtResult::Unknown(i), Vec::new());
        }
        let mut bb = BitBlaster::new();
        let mut builder = CnfBuilder::new();
        for &t in &self.assertions {
            let lowered = bb.lower(ctx, t);
            for side in bb.take_side_constraints() {
                if !builder.assert_term(ctx, side) {
                    return (SmtResult::Unsat, Vec::new());
                }
            }
            if !builder.assert_term(ctx, lowered) {
                return (SmtResult::Unsat, Vec::new());
            }
        }
        // Define each assumption as a literal.
        let mut lits: Vec<(usize, crate::sat::Lit)> = Vec::new();
        for (i, &t) in assumptions.iter().enumerate() {
            let lowered = bb.lower(ctx, t);
            for side in bb.take_side_constraints() {
                if !builder.assert_term(ctx, side) {
                    return (SmtResult::Unsat, Vec::new());
                }
            }
            match builder.define_term(ctx, lowered) {
                Ok(l) => lits.push((i, l)),
                Err(true) => {} // constant-true assumption: no literal needed
                Err(false) => return (SmtResult::Unsat, vec![i]),
            }
        }
        let cnf = builder.finish();
        let mut sat = SatSolver::new();
        for _ in 0..cnf.num_vars {
            sat.new_var();
        }
        for clause in &cnf.clauses {
            if !sat.add_clause(clause) {
                return (SmtResult::Unsat, Vec::new());
            }
        }
        if span.is_recording() {
            span.attr("cnf_vars", cnf.num_vars);
            span.attr("cnf_clauses", cnf.clauses.len());
        }
        let assumption_lits: Vec<crate::sat::Lit> = lits.iter().map(|&(_, l)| l).collect();
        sat.set_budget(self.budget.clone());
        let result = sat.solve_with_assumptions(&assumption_lits);
        record_sat_stats(&sat.stats);
        span.attr("sat", result.is_sat());
        match result {
            SatResult::Unknown(i) => (SmtResult::Unknown(i), Vec::new()),
            SatResult::Unsat => {
                let core_lits = sat.unsat_core();
                let core: Vec<usize> = lits
                    .iter()
                    .filter(|(_, l)| core_lits.contains(l))
                    .map(|&(i, _)| i)
                    .collect();
                (SmtResult::Unsat, core)
            }
            SatResult::Sat(model) => {
                let asg = decode_model(ctx, &bb, &cnf.var_map, &model);
                (SmtResult::Sat(asg), Vec::new())
            }
        }
    }

    /// Decide the assertions plus the extra terms (without storing them).
    pub fn check_with(&self, ctx: &mut Ctx, extra: &[TermId]) -> SmtResult {
        let span = Span::enter("smt.check");
        span.attr("assertions", self.assertions.len() + extra.len());
        netexpl_obs::counter_add("smt.queries", 1);
        if let Some(i) = self.preflight() {
            return SmtResult::Unknown(i);
        }
        let mut bb = BitBlaster::new();
        let mut builder = CnfBuilder::new();
        let mut roots: Vec<TermId> = self.assertions.clone();
        roots.extend_from_slice(extra);

        for &t in &roots {
            let lowered = bb.lower(ctx, t);
            for side in bb.take_side_constraints() {
                if !builder.assert_term(ctx, side) {
                    return SmtResult::Unsat;
                }
            }
            if !builder.assert_term(ctx, lowered) {
                return SmtResult::Unsat;
            }
        }

        let cnf = builder.finish();
        let mut sat = SatSolver::new();
        for _ in 0..cnf.num_vars {
            sat.new_var();
        }
        for clause in &cnf.clauses {
            if !sat.add_clause(clause) {
                return SmtResult::Unsat;
            }
        }
        if span.is_recording() {
            span.attr("cnf_vars", cnf.num_vars);
            span.attr("cnf_clauses", cnf.clauses.len());
        }
        sat.set_budget(self.budget.clone());
        let result = sat.solve();
        record_sat_stats(&sat.stats);
        span.attr("sat", result.is_sat());
        match result {
            SatResult::Unknown(i) => SmtResult::Unknown(i),
            SatResult::Unsat => SmtResult::Unsat,
            SatResult::Sat(model) => SmtResult::Sat(decode_model(ctx, &bb, &cnf.var_map, &model)),
        }
    }
}

/// Is `t` satisfiable on its own?
pub fn is_sat(ctx: &mut Ctx, t: TermId) -> bool {
    let mut s = SmtSolver::new();
    s.assert(t);
    s.check(ctx).is_sat()
}

/// Budgeted satisfiability: `Ok(verdict)` when the solver finished within
/// `budget`, `Err(interrupt)` when it did not. The verdict, when present,
/// is exactly what the unbudgeted solver would answer.
pub fn is_sat_under(ctx: &mut Ctx, t: TermId, budget: &Budget) -> Result<bool, Interrupt> {
    let mut s = SmtSolver::new();
    s.set_budget(budget.clone());
    s.assert(t);
    match s.check(ctx) {
        SmtResult::Sat(_) => Ok(true),
        SmtResult::Unsat => Ok(false),
        SmtResult::Unknown(i) => Err(i),
    }
}

/// Budgeted entailment: does `a` entail `b`, if decidable within `budget`?
pub fn entails_under(
    ctx: &mut Ctx,
    a: TermId,
    b: TermId,
    budget: &Budget,
) -> Result<bool, Interrupt> {
    let nb = ctx.not(b);
    let both = ctx.and2(a, nb);
    is_sat_under(ctx, both, budget).map(|sat| !sat)
}

/// Budgeted equivalence: are `a` and `b` logically equivalent, if decidable
/// within `budget`?
///
/// Encodes `a` and `b` once into a single [`crate::session::SmtSession`]
/// and decides both entailment directions as assumption queries over the
/// shared CNF.
pub fn equivalent_under(
    ctx: &mut Ctx,
    a: TermId,
    b: TermId,
    budget: &Budget,
) -> Result<bool, Interrupt> {
    let mut session = crate::session::SmtSession::new();
    session.set_budget(budget.clone());
    // a ⊨ b ⇔ a ∧ ¬b unsat; the second query reuses every gate clause (and
    // any learned clauses) from the first.
    if !session.entails_assuming(ctx, &[a], b)? {
        return Ok(false);
    }
    session.entails_assuming(ctx, &[b], a)
}

/// Is `t` valid (true under every assignment)?
pub fn is_valid(ctx: &mut Ctx, t: TermId) -> bool {
    let neg = ctx.not(t);
    !is_sat(ctx, neg)
}

/// Does `a` entail `b`?
pub fn entails(ctx: &mut Ctx, a: TermId, b: TermId) -> bool {
    let nb = ctx.not(b);
    let both = ctx.and2(a, nb);
    !is_sat(ctx, both)
}

/// Are `a` and `b` logically equivalent?
pub fn equivalent(ctx: &mut Ctx, a: TermId, b: TermId) -> bool {
    let iff = ctx.iff(a, b);
    is_valid(ctx, iff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::brute_force_equivalent;
    use crate::session::SmtSession;
    use crate::simplify::Simplifier;

    #[test]
    fn mixed_sort_model() {
        let mut ctx = Ctx::new();
        let attr = ctx.enum_sort("Attr", &["NextHop", "LocalPref", "Community"]);
        let action = ctx.enum_sort("Action", &["permit", "deny"]);
        let a = ctx.enum_var("Var_Attr", attr);
        let act = ctx.enum_var("Var_Action", action);
        let lp = ctx.int_var("Var_LocalPref", 0, 200);

        let nh = ctx.enum_const_named(attr, "NextHop");
        let deny = ctx.enum_const_named(action, "deny");
        let hundred = ctx.int_const(100);

        let c1 = ctx.eq(a, nh);
        let c2 = ctx.eq(act, deny);
        let c3 = ctx.gt(lp, hundred);
        let f = ctx.and(&[c1, c2, c3]);

        let mut s = SmtSolver::new();
        s.assert(f);
        let m = s.check(&mut ctx).model().expect("sat");
        assert_eq!(m.eval_bool(&ctx, f), Some(true));
        assert!(m.eval(&ctx, lp).unwrap().as_int().unwrap() > 100);
    }

    #[test]
    fn unsat_across_theories() {
        let mut ctx = Ctx::new();
        let lp = ctx.int_var("lp", 0, 10);
        let five = ctx.int_const(5);
        let three = ctx.int_const(3);
        let c1 = ctx.gt(lp, five);
        let c2 = ctx.lt(lp, three);
        let mut s = SmtSolver::new();
        s.assert(c1);
        s.assert(c2);
        assert_eq!(s.check(&mut ctx), SmtResult::Unsat);
    }

    #[test]
    fn check_with_extra_does_not_persist() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        let mut s = SmtSolver::new();
        s.assert(a);
        assert!(!s.check_with(&mut ctx, &[na]).is_sat());
        assert!(
            s.check(&mut ctx).is_sat(),
            "extra assumption must not persist"
        );
    }

    #[test]
    fn validity_and_entailment() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let na = ctx.not(a);
        let excluded_middle = ctx.or2(a, na);
        assert!(is_valid(&mut ctx, excluded_middle));
        assert!(!is_valid(&mut ctx, a));
        let ab = ctx.and2(a, b);
        assert!(entails(&mut ctx, ab, a));
        assert!(!entails(&mut ctx, a, ab));
    }

    #[test]
    fn equivalence_via_solver_matches_brute_force() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.and2(a, b);
        let lhs = ctx.not(ab);
        let na = ctx.not(a);
        let nb = ctx.not(b);
        let rhs = ctx.or2(na, nb);
        assert!(equivalent(&mut ctx, lhs, rhs));
        assert_eq!(
            brute_force_equivalent(&ctx, lhs, rhs, 100),
            equivalent(&mut ctx, lhs, rhs)
        );
        assert!(!equivalent(&mut ctx, a, b));
    }

    #[test]
    fn simplifier_output_equivalent_checked_by_solver() {
        // End-to-end: build a formula with theory atoms, simplify it, and
        // have the solver confirm equivalence (the production-scale version
        // of the brute-force property test).
        let mut ctx = Ctx::new();
        let attr = ctx.enum_sort("Attr", &["NextHop", "LocalPref"]);
        let v = ctx.enum_var("Var_Attr", attr);
        let nh = ctx.enum_const_named(attr, "NextHop");
        let lp = ctx.enum_const_named(attr, "LocalPref");
        let e1 = ctx.eq(v, nh);
        let e2 = ctx.eq(v, lp);
        let ne2 = ctx.not(e2);
        let t = ctx.mk_true();
        let noise = ctx.and(&[e1, t, e1]);
        let f = ctx.or2(noise, ne2);
        let g = Simplifier::default().simplify(&mut ctx, f);
        assert!(equivalent(&mut ctx, f, g));
        assert!(ctx.term_size(g) <= ctx.term_size(f));
    }

    // Model enumeration runs on sessions; these pin the shared
    // `fill_defaults_and_block` tail through `SmtSession::check_all`.
    #[test]
    fn check_all_enumerates_distinct_models() {
        let mut ctx = Ctx::new();
        let s3 = ctx.enum_sort("S", &["a", "b", "c"]);
        let v = ctx.enum_var("v", s3);
        let c0 = ctx.enum_const(s3, 0);
        let not_a = ctx.neq(v, c0);
        // Enumeration asserts its blocking clauses, so every case starts
        // from a new session.
        let session = |ctx: &mut Ctx, assertions: &[TermId]| {
            let mut s = SmtSession::new();
            for &t in assertions {
                s.assert(ctx, t);
            }
            s
        };
        let (models, interrupt) = session(&mut ctx, &[not_a]).check_all(&mut ctx, &[v], 10);
        assert!(interrupt.is_none());
        assert_eq!(models.len(), 2, "v ∈ {{b, c}}");
        let vals: std::collections::HashSet<_> =
            models.iter().map(|m| m.eval(&ctx, v).unwrap()).collect();
        assert_eq!(vals.len(), 2, "models must be distinct on v");
        // With a limit of 1 only one model comes back.
        let (one, _) = session(&mut ctx, &[not_a]).check_all(&mut ctx, &[v], 1);
        assert_eq!(one.len(), 1);
        // Unsatisfiable assertions yield no models.
        let eq_a = ctx.eq(v, c0);
        let mut unsat = session(&mut ctx, &[not_a, eq_a]);
        assert!(unsat.check_all(&mut ctx, &[v], 10).0.is_empty());
    }

    #[test]
    fn check_all_mixed_sorts() {
        let mut ctx = Ctx::new();
        let i = ctx.int_var("i", 0, 2);
        let b = ctx.bool_var("b");
        let one = ctx.int_const(1);
        let le = ctx.le(i, one); // i ∈ {0, 1}, b free: 4 models
        let mut session = SmtSession::new();
        session.assert(&mut ctx, le);
        let (models, interrupt) = session.check_all(&mut ctx, &[i, b], 10);
        assert!(interrupt.is_none());
        assert_eq!(models.len(), 4);
    }

    #[test]
    fn budgeted_entailment_reports_interrupts() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.and2(a, b);
        // Generous budget: same verdicts as the unbudgeted solver.
        let generous = Budget::unlimited().max_conflicts(1_000_000);
        assert_eq!(entails_under(&mut ctx, ab, a, &generous), Ok(true));
        assert_eq!(entails_under(&mut ctx, a, ab, &generous), Ok(false));
        // Expired deadline: interrupted before a verdict, never a wrong one.
        let expired = Budget::unlimited().deadline_in(std::time::Duration::ZERO);
        let err = entails_under(&mut ctx, ab, a, &expired).unwrap_err();
        assert_eq!(err.reason, InterruptReason::Deadline);
    }

    #[test]
    fn fault_injection_makes_check_unknown() {
        let _g = netexpl_faults::arm(netexpl_faults::sites::SMT_CHECK);
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let mut s = SmtSolver::new();
        s.assert(a);
        match s.check(&mut ctx) {
            SmtResult::Unknown(i) => {
                assert_eq!(i.reason, InterruptReason::Fault);
                assert_eq!(i.at, "smt.check");
            }
            other => panic!("expected unknown, got {other:?}"),
        }
        let (res, core) = s.check_assuming(&mut ctx, &[a]);
        assert!(res.is_unknown());
        assert!(core.is_empty());
    }

    #[test]
    fn check_assuming_reports_smt_core() {
        let mut ctx = Ctx::new();
        let s2 = ctx.enum_sort("S", &["x", "y"]);
        let v = ctx.enum_var("v", s2);
        let x = ctx.enum_const(s2, 0);
        let y = ctx.enum_const(s2, 1);
        let lp = ctx.int_var("lp", 0, 10);
        let five = ctx.int_const(5);

        let mut solver = SmtSolver::new();
        let base = ctx.eq(v, x);
        solver.assert(base);
        let a0 = ctx.gt(lp, five); // consistent
        let a1 = ctx.eq(v, y); // contradicts the assertion
        let a2 = ctx.lt(lp, five); // contradicts a0 but a1 fires first
        let (res, core) = solver.check_assuming(&mut ctx, &[a0, a1, a2]);
        assert_eq!(res, SmtResult::Unsat);
        assert!(
            core.contains(&1),
            "core must include the v=y assumption: {core:?}"
        );
        assert!(
            !core.contains(&0) || !core.contains(&2) || core.len() < 3,
            "{core:?}"
        );

        // Without the contradicting assumption: satisfiable, empty core.
        let (res2, core2) = solver.check_assuming(&mut ctx, &[a0]);
        assert!(res2.is_sat());
        assert!(core2.is_empty());
    }

    #[test]
    fn smt_checks_emit_spans_and_sat_counters() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.or2(a, b);
        let (guard, handle) = netexpl_obs::install_memory();
        let mut s = SmtSolver::new();
        s.assert(ab);
        assert!(s.check(&mut ctx).is_sat());
        let (_res, _core) = s.check_assuming(&mut ctx, &[a]);
        drop(guard);
        let spans = handle.spans_named("smt.check");
        assert_eq!(spans.len(), 2, "one span per query");
        assert_eq!(
            spans[0].attr("sat"),
            Some(&netexpl_obs::AttrValue::Bool(true))
        );
        assert!(spans[0].attr("cnf_vars").is_some());
        let metrics = handle.metrics().unwrap();
        assert_eq!(metrics.counter("smt.queries"), 2);
        // Deciding a ∨ b requires at least one branching decision.
        assert!(metrics.counter("sat.decisions") > 0);
    }

    #[test]
    fn enum_distinctness_constraint() {
        // Three variables over a 2-variant enum cannot be pairwise distinct.
        let mut ctx = Ctx::new();
        let s2 = ctx.enum_sort("S", &["x", "y"]);
        let a = ctx.enum_var("a", s2);
        let b = ctx.enum_var("b", s2);
        let c = ctx.enum_var("c", s2);
        let d1 = ctx.neq(a, b);
        let d2 = ctx.neq(b, c);
        let d3 = ctx.neq(a, c);
        let f = ctx.and(&[d1, d2, d3]);
        assert!(!is_sat(&mut ctx, f));
        let g = ctx.and(&[d1, d2]);
        assert!(is_sat(&mut ctx, g));
    }
}
