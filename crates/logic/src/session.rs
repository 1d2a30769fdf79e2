//! SMT sessions: encode once, query many times.
//!
//! [`SmtSession`] is the workspace's one SMT solver. A single check is a
//! session with one query (synthesis's main solve, the [`crate::solver`]
//! helpers); *query streams* against a shared assertion base — the lifter
//! issuing hundreds of entailment checks against the same `defs`, lint
//! probing every route-map entry of a network against one domain, diverse synthesis
//! enumerating models — keep one session alive and pay each cost once:
//!
//! - **Encode once.** A persistent [`BitBlaster`] and [`CnfBuilder`] are
//!   kept for the session's lifetime. Both memoize per hash-consed
//!   [`TermId`], so a query whose terms were already seen adds *zero* new
//!   gate clauses; novel subterms add only their own definitions. Freshly
//!   produced clauses are moved into the solver as they are emitted
//!   ([`CnfBuilder::take_new_clauses`]), so the builder holds no second
//!   copy of the CNF.
//! - **Assume per query.** Queries run as
//!   [`SatSolver::solve_with_assumptions`] over definition literals, so
//!   nothing a query adds needs to be retracted. The long-lived solver keeps
//!   its learned clauses and VSIDS activity between calls: conflicts
//!   resolved for one candidate prune the search for the next.
//! - **Reduce on threshold.** Retained learned clauses are bounded by the
//!   solver's LBD-tagged database reduction ([`SatSolver::reduce_db`]), so a
//!   long session cannot grow memory without limit.
//!
//! Budget and cancellation checks span query boundaries: every query runs a
//! preflight (fault site `session.query`, then the coarse budget axes) and
//! the search loop itself keeps its per-conflict checks. An interrupted
//! query returns [`SmtResult::Unknown`] and poisons *nothing* — answers
//! already returned stay valid, and the session keeps working once the
//! budget is restored.

use crate::bitblast::BitBlaster;
use crate::budget::{Budget, Interrupt, InterruptReason};
use crate::cnf::CnfBuilder;
use crate::model::Assignment;
use crate::sat::{Lit, SatResult, SatSolver};
use crate::solver::{decode_model, fill_defaults_and_block, record_sat_stats, SmtResult};
use crate::term::{Ctx, TermId};
use netexpl_obs::Span;

/// A persistent solver session: assertions are encoded once and every query
/// runs under assumptions on the same long-lived [`SatSolver`].
#[derive(Debug, Default)]
pub struct SmtSession {
    bb: BitBlaster,
    builder: CnfBuilder,
    sat: SatSolver,
    budget: Budget,
    /// Queries answered so far (successful or not).
    queries: u64,
    /// Cost-attribution label for subsequent queries (the lift template or
    /// lint diagnostic that issued them), emitted as the `origin` attr on
    /// every `session.query` span until changed or cleared.
    origin: Option<String>,
    /// Latched when an assertion (or a side constraint) folded to `false`
    /// or closed the clause set: every later query is `Unsat`.
    unsat: bool,
}

impl SmtSession {
    /// Fresh session with no assertions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound subsequent queries by `budget`. The deadline and cancel token
    /// are shared globally; the integer caps apply per query.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Queries answered so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Clauses currently in the live solver (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.sat.num_clauses()
    }

    /// Tune the learned-clause count that triggers database reduction
    /// (0 disables). Exposed for tests; the default suits production.
    pub fn set_reduce_threshold(&mut self, n: usize) {
        self.sat.set_reduce_threshold(n);
    }

    /// Attribute subsequent queries to `origin` (a lift template like
    /// `lift:!(R1 -> P1)` or a lint probe like `NE010:R1:export:20`). The
    /// label lands on each `session.query` span, which is what lets
    /// `netexpl profile` rank hot SAT queries by what *asked* for them.
    pub fn set_origin(&mut self, origin: impl Into<String>) {
        self.origin = Some(origin.into());
    }

    /// Permanently assert `terms`. Encoding cost is paid now (only for
    /// subterms not already seen); the clauses stay for the session's
    /// lifetime. Each term is lowered, its side constraints asserted, then
    /// the term itself, in slice order, so one slice always encodes to the
    /// same clauses over the same SAT variable numbering. Traced as one
    /// `session.assert` span carrying the encoding's size afterwards, so
    /// that cost shows apart from the queries.
    pub fn assert(&mut self, ctx: &mut Ctx, terms: &[TermId]) {
        let span = Span::enter("session.assert");
        for &t in terms {
            let lowered = self.lower(ctx, t);
            if !self.builder.assert_term(ctx, lowered) {
                self.unsat = true;
            }
        }
        self.flush();
        if span.is_recording() {
            span.attr("cnf_vars", self.builder.num_vars());
            span.attr("cnf_clauses", self.sat.num_clauses());
        }
    }

    /// Encode `t` (without asserting) and return its definition literal, or
    /// `Err(constant)` when it folds.
    fn literal(&mut self, ctx: &mut Ctx, t: TermId) -> Result<Lit, bool> {
        let lowered = self.lower(ctx, t);
        let lit = self.builder.define_term(ctx, lowered);
        self.flush();
        lit
    }

    /// Bit-blast `t` to a pure boolean term. Side constraints introduced by
    /// the theory encoding are asserted permanently — they are definitions
    /// of the encoding, not part of any one query.
    fn lower(&mut self, ctx: &mut Ctx, t: TermId) -> TermId {
        let lowered = self.bb.lower(ctx, t);
        for side in self.bb.take_side_constraints() {
            if !self.builder.assert_term(ctx, side) {
                self.unsat = true;
            }
        }
        lowered
    }

    /// Feed newly emitted CNF (variables and clauses) into the live solver.
    fn flush(&mut self) {
        while self.sat.num_vars() < self.builder.num_vars() {
            self.sat.new_var();
        }
        for clause in self.builder.take_new_clauses() {
            if !self.sat.add_clause_owned(clause) {
                self.unsat = true;
            }
        }
    }

    /// Pre-query governance: injected faults and the coarse budget axes,
    /// checked before paying for encoding. Returns the interrupt to report.
    /// Firing between queries leaves the session fully usable: the
    /// in-flight query answers `Unknown`, nothing else changes.
    fn preflight(&self) -> Option<Interrupt> {
        let i = if netexpl_faults::triggered(netexpl_faults::sites::SESSION_QUERY) {
            Interrupt::new(InterruptReason::Fault, "session.query")
        } else {
            match self.budget.check_coarse("session.query") {
                Ok(()) => return None,
                Err(i) => i,
            }
        };
        i.record();
        Some(i)
    }

    /// Decide the asserted base under retractable assumptions. On `Unsat`
    /// the second component is an unsat core: indices into `assumptions`
    /// whose conjunction with the base is already unsatisfiable.
    ///
    /// Assumption terms that are constant-false (or whose encoding folds to
    /// false) are reported as singleton cores immediately. The base is
    /// encoded exactly once per session and the SAT solver carries learned
    /// clauses and branching activity from every earlier query.
    pub fn check_assuming(
        &mut self,
        ctx: &mut Ctx,
        assumptions: &[TermId],
    ) -> (SmtResult, Vec<usize>) {
        let span = Span::enter("session.query");
        span.attr("assumptions", assumptions.len());
        if span.is_recording() {
            if let Some(origin) = &self.origin {
                span.attr("origin", origin.clone());
            }
        }
        netexpl_obs::counter_add("session.queries", 1);
        self.queries += 1;
        if self.queries > 1 {
            // Clauses this query did NOT have to encode or re-derive: the
            // whole database carried over from earlier queries.
            netexpl_obs::counter_add("session.reused_clauses", self.sat.num_clauses() as u64);
        }
        if let Some(i) = self.preflight() {
            return (SmtResult::Unknown(i), Vec::new());
        }
        if self.unsat {
            return (SmtResult::Unsat, Vec::new());
        }
        let mut lits: Vec<(usize, Lit)> = Vec::new();
        for (i, &t) in assumptions.iter().enumerate() {
            match self.literal(ctx, t) {
                Ok(l) => lits.push((i, l)),
                Err(true) => {} // constant-true assumption: no literal needed
                Err(false) => return (SmtResult::Unsat, vec![i]),
            }
        }
        if self.unsat {
            // A side constraint of an assumption's encoding folded false.
            return (SmtResult::Unsat, Vec::new());
        }
        if span.is_recording() {
            span.attr("cnf_vars", self.builder.num_vars());
            span.attr("cnf_clauses", self.sat.num_clauses());
        }
        let assumption_lits: Vec<Lit> = lits.iter().map(|&(_, l)| l).collect();
        self.sat.set_budget(self.budget.clone());
        let reductions_before = self.sat.reductions();
        let result = self.sat.solve_with_assumptions(&assumption_lits);
        record_sat_stats(&self.sat.stats);
        let reduced = self.sat.reductions() - reductions_before;
        if reduced > 0 {
            netexpl_obs::counter_add("session.db_reductions", reduced);
        }
        span.attr("sat", result.is_sat());
        match result {
            SatResult::Unknown(i) => (SmtResult::Unknown(i), Vec::new()),
            SatResult::Unsat => {
                let core_lits = self.sat.unsat_core();
                let core: Vec<usize> = lits
                    .iter()
                    .filter(|(_, l)| core_lits.contains(l))
                    .map(|&(i, _)| i)
                    .collect();
                (SmtResult::Unsat, core)
            }
            SatResult::Sat(model) => {
                let asg = decode_model(ctx, &self.bb, self.builder.var_map(), &model);
                (SmtResult::Sat(asg), Vec::new())
            }
        }
    }

    /// Decide the asserted base on its own.
    pub fn check(&mut self, ctx: &mut Ctx) -> SmtResult {
        self.check_assuming(ctx, &[]).0
    }

    /// Budgeted entailment against the base: base ⊨ `b`?
    pub fn entails(&mut self, ctx: &mut Ctx, b: TermId) -> Result<bool, Interrupt> {
        self.entails_assuming(ctx, &[], b)
    }

    /// Budgeted entailment with retractable extra hypotheses:
    /// base ∧ `extra` ⊨ `b`? The extras are assumptions, not assertions —
    /// the base is unchanged afterwards.
    pub fn entails_assuming(
        &mut self,
        ctx: &mut Ctx,
        extra: &[TermId],
        b: TermId,
    ) -> Result<bool, Interrupt> {
        let nb = ctx.not(b);
        let mut assumptions: Vec<TermId> = extra.to_vec();
        assumptions.push(nb);
        match self.check_assuming(ctx, &assumptions).0 {
            SmtResult::Sat(_) => Ok(false),
            SmtResult::Unsat => Ok(true),
            SmtResult::Unknown(i) => Err(i),
        }
    }

    /// Enumerate up to `limit` models that differ on at least one of the
    /// `distinct_on` variables (term-level variables of any sort). After
    /// each model a blocking constraint over those variables is asserted
    /// permanently into the session, so the returned assignments are
    /// pairwise distinct on them and each successive model search starts
    /// from the previous one's learned clauses.
    ///
    /// The second component reports an interrupt when the budget ran out
    /// mid-enumeration: the models gathered so far are still valid, but the
    /// enumeration may be incomplete.
    pub fn check_all(
        &mut self,
        ctx: &mut Ctx,
        distinct_on: &[TermId],
        limit: usize,
    ) -> (Vec<Assignment>, Option<Interrupt>) {
        let mut models = Vec::new();
        while models.len() < limit {
            let (result, _core) = self.check_assuming(ctx, &[]);
            if let SmtResult::Unknown(i) = result {
                return (models, Some(i));
            }
            let Some(mut model) = result.model() else {
                break;
            };
            let Some(block) = fill_defaults_and_block(ctx, &mut model, distinct_on) else {
                models.push(model);
                break; // nothing to block on: one model is all there is
            };
            self.assert(ctx, &[block]);
            models.push(model);
        }
        (models, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_matches_fresh_solver_on_basic_queries() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.and2(a, b);

        let mut session = SmtSession::new();
        session.assert(&mut ctx, &[ab]);
        // base ⊨ a, base ⊨ b, base ⊭ ¬a.
        assert_eq!(session.entails(&mut ctx, a), Ok(true));
        assert_eq!(session.entails(&mut ctx, b), Ok(true));
        let na = ctx.not(a);
        assert_eq!(session.entails(&mut ctx, na), Ok(false));
        assert_eq!(session.queries(), 3);

        // A single check is a fresh session with one query.
        let mut fresh = SmtSession::new();
        fresh.assert(&mut ctx, &[ab]);
        assert!(!fresh.check_assuming(&mut ctx, &[na]).0.is_sat());
        assert_eq!(fresh.queries(), 1);
    }

    #[test]
    fn assumptions_do_not_persist_across_queries() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, &[a]);
        let (r1, core) = session.check_assuming(&mut ctx, &[na]);
        assert_eq!(r1, SmtResult::Unsat);
        assert_eq!(core, vec![0]);
        // The failed assumption must be fully retracted.
        assert!(session.check(&mut ctx).is_sat());
    }

    #[test]
    fn folded_assumptions_report_constants() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let t = ctx.mk_true();
        let f = ctx.mk_false();
        let mut session = SmtSession::new();
        session.assert(&mut ctx, &[a]);
        // Constant-true assumption: no effect.
        let (r, _) = session.check_assuming(&mut ctx, &[t]);
        assert!(r.is_sat());
        // Constant-false assumption: immediate singleton core.
        let (r, core) = session.check_assuming(&mut ctx, &[a, f]);
        assert_eq!(r, SmtResult::Unsat);
        assert_eq!(core, vec![1]);
        // Session still healthy.
        assert!(session.check(&mut ctx).is_sat());
    }

    #[test]
    fn unsat_base_latches() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, &[a]);
        session.assert(&mut ctx, &[na]);
        assert_eq!(session.check(&mut ctx), SmtResult::Unsat);
        let b = ctx.bool_var("b");
        let (r, _) = session.check_assuming(&mut ctx, &[b]);
        assert_eq!(r, SmtResult::Unsat);
    }

    #[test]
    fn theory_atoms_share_encoding_across_queries() {
        let mut ctx = Ctx::new();
        let lp = ctx.int_var("lp", 0, 200);
        let hundred = ctx.int_const(100);
        let fifty = ctx.int_const(50);
        let gt100 = ctx.gt(lp, hundred);
        let gt50 = ctx.gt(lp, fifty);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, &[gt100]);
        // lp > 100 ⊨ lp > 50 but not the converse direction's strengthening.
        assert_eq!(session.entails(&mut ctx, gt50), Ok(true));
        let clauses_after_first = session.num_clauses();
        // Re-query with already-seen terms: only learned clauses may have
        // been added; no new encoding.
        assert_eq!(session.entails(&mut ctx, gt50), Ok(true));
        assert!(
            session.num_clauses() <= clauses_after_first + 2,
            "re-query must not re-encode: {} -> {}",
            clauses_after_first,
            session.num_clauses()
        );
    }

    #[test]
    fn session_model_decodes_theory_variables() {
        let mut ctx = Ctx::new();
        let attr = ctx.enum_sort("Attr", &["NextHop", "LocalPref"]);
        let v = ctx.enum_var("v", attr);
        let nh = ctx.enum_const_named(attr, "NextHop");
        let eq = ctx.eq(v, nh);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, &[eq]);
        let model = session.check(&mut ctx).model().expect("sat");
        assert_eq!(model.eval_bool(&ctx, eq), Some(true));
    }

    #[test]
    fn check_all_enumerates_like_fresh_solver() {
        let mut ctx = Ctx::new();
        let s3 = ctx.enum_sort("S", &["a", "b", "c"]);
        let v = ctx.enum_var("v", s3);
        let c0 = ctx.enum_const(s3, 0);
        let not_a = ctx.neq(v, c0);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, &[not_a]);
        let (models, interrupt) = session.check_all(&mut ctx, &[v], 10);
        assert!(interrupt.is_none());
        assert_eq!(models.len(), 2, "v ∈ {{b, c}}");
        let vals: std::collections::HashSet<_> =
            models.iter().map(|m| m.eval(&ctx, v).unwrap()).collect();
        assert_eq!(vals.len(), 2);
    }

    #[test]
    fn interrupted_query_leaves_session_usable() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.and2(a, b);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, &[ab]);
        assert_eq!(session.entails(&mut ctx, a), Ok(true));
        // Exhaust the budget between queries: the in-flight query must
        // answer Unknown without poisoning the session.
        session.set_budget(Budget::unlimited().deadline_in(std::time::Duration::ZERO));
        let err = session.entails(&mut ctx, b).unwrap_err();
        assert_eq!(err.reason, InterruptReason::Deadline);
        // Restore the budget: the same query now answers, and the earlier
        // answer is still reproducible.
        session.set_budget(Budget::unlimited());
        assert_eq!(session.entails(&mut ctx, b), Ok(true));
        assert_eq!(session.entails(&mut ctx, a), Ok(true));
    }

    #[test]
    fn fault_site_interrupts_only_the_inflight_query() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.and2(a, b);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, &[ab]);
        assert_eq!(session.entails(&mut ctx, a), Ok(true));
        {
            let _g = netexpl_faults::arm(netexpl_faults::sites::SESSION_QUERY);
            let err = session.entails(&mut ctx, b).unwrap_err();
            assert_eq!(err.reason, InterruptReason::Fault);
            assert_eq!(err.at, "session.query");
        }
        assert_eq!(session.entails(&mut ctx, b), Ok(true));
    }

    #[test]
    fn session_emits_metrics() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.or2(a, b);
        let (guard, handle) = netexpl_obs::install_memory();
        let mut session = SmtSession::new();
        session.assert(&mut ctx, &[ab]);
        assert_eq!(session.entails(&mut ctx, a), Ok(false));
        assert_eq!(session.entails(&mut ctx, ab), Ok(true));
        drop(guard);
        let metrics = handle.metrics().unwrap();
        assert_eq!(metrics.counter("session.queries"), 2);
        assert!(metrics.counter("session.reused_clauses") > 0);
        assert_eq!(handle.spans_named("session.query").len(), 2);
    }

    /// Each `assert` call is its own `session.assert` span, sized like the
    /// query spans: the CNF the session holds once the assertion is in.
    #[test]
    fn assert_emits_a_sized_span() {
        use netexpl_obs::AttrValue;
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.bool_var("c");
        let ab = ctx.or2(a, b);
        let bc = ctx.and2(b, c);
        let (guard, handle) = netexpl_obs::install_memory();
        let mut session = SmtSession::new();
        session.assert(&mut ctx, &[ab]);
        session.assert(&mut ctx, &[bc]);
        assert_eq!(session.entails(&mut ctx, c), Ok(true));
        drop(guard);
        let asserts = handle.spans_named("session.assert");
        assert_eq!(asserts.len(), 2);
        let size = |span: &netexpl_obs::SpanRecord, key: &str| match span.attr(key) {
            Some(AttrValue::UInt(n)) => *n,
            other => panic!("{key}: {other:?}"),
        };
        for span in &asserts {
            assert!(size(span, "cnf_vars") > 0);
            assert!(size(span, "cnf_clauses") > 0);
        }
        // The second assertion only grows the encoding.
        assert!(size(&asserts[1], "cnf_vars") >= size(&asserts[0], "cnf_vars"));
        assert!(size(&asserts[1], "cnf_clauses") > size(&asserts[0], "cnf_clauses"));
        // The query is a sibling span, not part of either assertion.
        let queries = handle.spans_named("session.query");
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].parent, None);
        assert!(asserts.iter().all(|a| a.parent.is_none()));
    }

    /// Asserting a slice encodes exactly what asserting its terms one call
    /// at a time does: the same variable count, the same stored clauses and
    /// the same model, under a single span.
    #[test]
    fn slice_assert_encodes_like_one_term_at_a_time() {
        let mut ctx = Ctx::new();
        let lp = ctx.int_var("lp", 0, 200);
        let lq = ctx.int_var("lq", 0, 200);
        let b = ctx.bool_var("b");
        let gt = ctx.gt(lp, lq);
        let ten = ctx.int_const(10);
        let small = ctx.le(lq, ten);
        let guarded = ctx.implies(b, small);
        let terms = [gt, guarded, b];
        let (guard, handle) = netexpl_obs::install_memory();
        let mut sliced = SmtSession::new();
        sliced.assert(&mut ctx, &terms);
        drop(guard);
        assert_eq!(handle.spans_named("session.assert").len(), 1);
        let mut single = SmtSession::new();
        for t in terms {
            single.assert(&mut ctx, &[t]);
        }
        assert_eq!(sliced.builder.num_vars(), single.builder.num_vars());
        assert_eq!(sliced.num_clauses(), single.num_clauses());
        // Each session's bit-blaster names its own encoding variables, so
        // the models are compared on the asserted variables.
        let sliced_model = sliced.check(&mut ctx).model().expect("sat");
        let single_model = single.check(&mut ctx).model().expect("sat");
        for v in [lp, lq, b] {
            assert_eq!(sliced_model.eval(&ctx, v), single_model.eval(&ctx, v));
        }
    }
}
