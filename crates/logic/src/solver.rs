//! SMT results and the helpers shared by every solver query.
//!
//! There is one SMT solver, [`crate::session::SmtSession`]: assertions are
//! bit-blasted, Tseitin-encoded and loaded into a CDCL solver once, and
//! every query runs under assumptions. A single check is a session with one
//! query. This module holds what those queries share: the [`SmtResult`]
//! they return, model decoding, SAT statistics, the blocking tail of model
//! enumeration, and the small satisfiability, entailment and equivalence
//! helpers built on a fresh session.

use crate::bitblast::BitBlaster;
use crate::budget::{Budget, Interrupt};
use crate::model::{Assignment, Value};
use crate::sat::SatStats;
use crate::session::SmtSession;
use crate::term::{Ctx, TermId, TermNode};

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
/// the CNF variable map.
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

/// Is `t` satisfiable on its own?
pub fn is_sat(ctx: &mut Ctx, t: TermId) -> bool {
    let mut session = SmtSession::new();
    session.assert(ctx, &[t]);
    session.check(ctx).is_sat()
}

/// Budgeted entailment: does `a` entail `b`, if decidable within `budget`?
/// The verdict, when present, is exactly what an unbudgeted query answers.
pub fn entails_under(
    ctx: &mut Ctx,
    a: TermId,
    b: TermId,
    budget: &Budget,
) -> Result<bool, Interrupt> {
    let mut session = SmtSession::new();
    session.set_budget(budget.clone());
    session.assert(ctx, &[a]);
    session.entails(ctx, b)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::InterruptReason;
    use crate::model::brute_force_equivalent;
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

        let mut s = SmtSession::new();
        s.assert(&mut ctx, &[f]);
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
        let mut s = SmtSession::new();
        s.assert(&mut ctx, &[c1, c2]);
        assert_eq!(s.check(&mut ctx), SmtResult::Unsat);
    }

    #[test]
    fn check_with_extra_does_not_persist() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        let mut s = SmtSession::new();
        s.assert(&mut ctx, &[a]);
        assert!(!s.check_assuming(&mut ctx, &[na]).0.is_sat());
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
        // Valid: its negation is unsatisfiable.
        let violated = ctx.not(excluded_middle);
        assert!(!is_sat(&mut ctx, violated));
        assert!(is_sat(&mut ctx, na), "a alone is not valid");
        let ab = ctx.and2(a, b);
        let unlimited = Budget::unlimited();
        assert_eq!(entails_under(&mut ctx, ab, a, &unlimited), Ok(true));
        assert_eq!(entails_under(&mut ctx, a, ab, &unlimited), Ok(false));
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
        let unlimited = Budget::unlimited();
        assert_eq!(equivalent_under(&mut ctx, lhs, rhs, &unlimited), Ok(true));
        assert_eq!(
            Ok(brute_force_equivalent(&ctx, lhs, rhs, 100)),
            equivalent_under(&mut ctx, lhs, rhs, &unlimited)
        );
        assert_eq!(equivalent_under(&mut ctx, a, b, &unlimited), Ok(false));
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
        assert_eq!(
            equivalent_under(&mut ctx, f, g, &Budget::unlimited()),
            Ok(true)
        );
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
            s.assert(ctx, assertions);
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
        session.assert(&mut ctx, &[le]);
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
        let _g = netexpl_faults::arm(netexpl_faults::sites::SESSION_QUERY);
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let mut s = SmtSession::new();
        s.assert(&mut ctx, &[a]);
        match s.check(&mut ctx) {
            SmtResult::Unknown(i) => {
                assert_eq!(i.reason, InterruptReason::Fault);
                assert_eq!(i.at, "session.query");
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

        let mut solver = SmtSession::new();
        let base = ctx.eq(v, x);
        solver.assert(&mut ctx, &[base]);
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
        let mut s = SmtSession::new();
        s.assert(&mut ctx, &[ab]);
        assert!(s.check(&mut ctx).is_sat());
        let (_res, _core) = s.check_assuming(&mut ctx, &[a]);
        drop(guard);
        let spans = handle.spans_named("session.query");
        assert_eq!(spans.len(), 2, "one span per query");
        assert_eq!(
            spans[0].attr("sat"),
            Some(&netexpl_obs::AttrValue::Bool(true))
        );
        assert!(spans[0].attr("cnf_vars").is_some());
        let metrics = handle.metrics().unwrap();
        assert_eq!(metrics.counter("session.queries"), 2);
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
