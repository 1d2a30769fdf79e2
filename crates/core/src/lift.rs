//! Lifting simplified constraints back into the specification language
//! (Figure 6, step 4).
//!
//! The paper frames this step as an open problem ("the specific methods for
//! efficiently searching the specification language space remain an open
//! question") and ships without it. This module implements a sound
//! enumerative lifter for the paper's fragment:
//!
//! * **Candidates** are forbidden-path requirements built from windows of
//!   the enumerated propagation paths that cross the router under question
//!   (`!(R1 -> P1)`, `!(P1 -> R1 -> R2 -> P2)`, …), plus localized versions
//!   of the global preference requirements whose constraints touch the
//!   router.
//! * A candidate is **kept** when it is *necessary* — implied by the seed
//!   specification (`defs ∧ reqs ⊨ candidate`) — and *non-trivial* — not
//!   already guaranteed by the frozen rest of the network
//!   (`defs ⊭ candidate`). Both checks run on the home-grown SAT solver.
//! * Kept candidates are ordered shortest-first and greedily deduplicated
//!   (a candidate already implied by the chosen set adds nothing); finally
//!   the chosen set is checked for **sufficiency** (`defs ∧ chosen ⊨ reqs`).
//!
//! ## One session per lift
//!
//! Every candidate is judged against the same assertion base, `defs`, so by
//! default the search runs on one incremental [`SmtSession`] that encodes
//! `defs` once and answers each candidate as an assumption query, retaining
//! learned clauses between candidates. The session encodes `defs` as the
//! fifteen-rule simplifier leaves it, not the raw network-wide term: with
//! every other router frozen most of it folds away (the paper's key insight,
//! §3), so the session bit-blasts a fraction of the clauses. Every rule
//! preserves equivalence over well-sorted assignments, so every query keeps
//! its answer. The fresh-solver oracle still asserts the raw `defs`, and
//! witness admission still evaluates it, so neither the oracle nor a cached
//! witness depends on the simplifier. Necessity is asked of the same
//! session as `defs ∧ reqs ∧ ¬cand` with `reqs` as an *assumption*: the
//! Tseitin literal of a conjunction is a full definition (`d ↔ ⋀ lits`,
//! see `netexpl_logic::cnf`), so assuming it enforces exactly `reqs`, and
//! nothing about `reqs` outlives the query. Sufficiency and provenance
//! likewise travel as assumptions, so one encoding serves every query
//! shape.
//!
//! ## Model filtering
//!
//! Most candidate queries are easy but each SAT answer still costs a full
//! assignment of the CNF. The session keeps the models it returns — from
//! `defs ∧ ¬cand` and from `defs ∧ reqs ∧ ¬cand` — in a small bounded
//! cache of *witnesses*. A model is admitted only after term evaluation
//! confirms it is well-sorted and satisfies `defs` (and records whether it
//! also satisfies `reqs`), so an admitted witness is a proof independent
//! of the solver that produced it: a later candidate it falsifies is
//! non-trivial (`defs ⊭ cand`, a `defs` witness), and also unnecessary
//! (`defs ∧ reqs ⊭ cand`, a `defs ∧ reqs` witness). Such candidates are
//! decided with no solver call (`lift.model_filtered`, outcome
//! `model-filtered` on their `lift.candidate` span). A candidate no witness
//! falsifies is queried as before. Every verdict is still a fact about
//! `defs` and `reqs`, so the chosen subspecification, the rejected set,
//! provenance, completeness and `candidates_checked` are exactly those of
//! the unfiltered lifter.
//!
//! Setting [`LiftOptions::incremental`] to `false` selects the original
//! fresh-solver-per-query lifter, with no model filter: the reference
//! `tests/lift_model_filter.rs` compares the session lifter against. Both
//! paths answer identically.
//!
//! ## Serial by design
//!
//! [`lift`] judges every candidate in order on the calling thread, on the
//! one session it encoded, and drops that session when it returns. After
//! the model filter, one router's remaining candidate queries take a few
//! milliseconds — less than copying the encoded `defs` to another thread
//! would cost — so the lifter itself never parallelizes. A network-wide
//! run spreads whole routers over worker threads instead
//! ([`crate::network`]).
//!
//! The result is a [`SubSpec`] in the same language as the global
//! specification — Figures 2, 4 and 5 of the paper fall out of this search
//! (see the workspace integration tests).

use std::collections::HashSet;
use std::sync::Arc;

use netexpl_logic::budget::{Budget, Interrupt, InterruptReason};
use netexpl_logic::model::{Assignment, Evaluator};
use netexpl_logic::session::SmtSession;
use netexpl_logic::simplify::Simplifier;
use netexpl_logic::solver::{entails_under, SmtResult};
use netexpl_logic::term::{Ctx, TermId};
use netexpl_spec::{PathPattern, Requirement, Seg, Specification, SubSpec};
use netexpl_topology::{Prefix, RouterId, RouterKind, Topology};

use crate::seed::SeedSpec;

/// Options bounding the lifting search.
#[derive(Debug, Clone)]
pub struct LiftOptions {
    /// Maximum number of routers in a candidate forbidden window.
    pub max_window: usize,
    /// Cap on the number of candidate patterns examined.
    pub max_candidates: usize,
    /// Resource budget for the lifter's solver queries. Interruption is
    /// sound: the lifter stops checking further candidates and reports the
    /// interrupt in [`LiftResult::interrupt`]; everything already kept stays
    /// necessary.
    pub budget: Budget,
    /// Run the candidate checks on a persistent [`SmtSession`] (encode the
    /// simplified `defs` once, one assumption query per candidate, model
    /// filter on). Defaults to `true`; `false` selects the unfiltered
    /// fresh-solver lifter over the raw `defs`, the reference the
    /// differential suite compares against.
    pub incremental: bool,
    /// Ignored: the lifter always runs on the calling thread. Kept so
    /// existing callers that set it still compile.
    pub workers: usize,
    /// Ignored: every lift builds its own session and drops it on return.
    /// Kept so existing callers that set it still compile.
    pub session_store: Option<Arc<LiftSessionStore>>,
}

impl Default for LiftOptions {
    fn default() -> Self {
        LiftOptions {
            max_window: 6,
            max_candidates: 256,
            budget: Budget::unlimited(),
            incremental: true,
            workers: 1,
            session_store: None,
        }
    }
}

/// An empty placeholder for [`LiftOptions::session_store`], which the
/// lifter ignores: it holds nothing and is never consulted. Kept so
/// existing callers that construct one still compile.
#[derive(Debug, Default)]
pub struct LiftSessionStore;

impl LiftSessionStore {
    /// A shareable empty store.
    pub fn new() -> Arc<LiftSessionStore> {
        Arc::new(LiftSessionStore)
    }
}

/// The lifting outcome.
#[derive(Debug)]
pub struct LiftResult {
    /// The lifted subspecification (empty = the router is unconstrained).
    pub subspec: SubSpec,
    /// Whether the chosen requirements are jointly *sufficient* for the
    /// seed's requirement constraints. When `false` the subspecification is
    /// a sound but incomplete summary (necessary conditions only) — the
    /// situation the paper describes as remaining future work.
    pub complete: bool,
    /// Number of candidates whose necessity was checked by the solver.
    pub candidates_checked: usize,
    /// Candidates the solver examined and rejected (trivial or
    /// unnecessary), in candidate order. Together with
    /// `subspec.requirements` this is the lifter's full verdict table —
    /// the differential and budget-soundness suites compare it across
    /// solver backends and budgets.
    pub rejected: Vec<Requirement>,
    /// For each subspecification entry (parallel to
    /// `subspec.requirements`), the global requirement blocks that force it
    /// — computed from solver unsat cores. Lets the operator trace every
    /// local obligation back to the intent that caused it.
    pub provenance: Vec<Vec<String>>,
    /// Set when the resource budget (or a fault injection) interrupted the
    /// search. The subspecification is still sound — every kept entry was
    /// verified necessary before the interrupt — but `complete` is `false`.
    pub interrupt: Option<Interrupt>,
}

/// How many validated witnesses a session checker keeps. Every candidate
/// is evaluated against the cache before it may cost a query, so the bound
/// caps that per-candidate work and the witnesses' evaluation memos.
const MAX_WITNESSES: usize = 16;

/// A model the session returned, admitted to the cache after term
/// evaluation confirmed it is well-sorted and satisfies `defs`. The
/// evaluator memoizes subterm values, and candidates share most of their
/// structure with `defs`, so judging a later candidate against it is
/// mostly memo lookups.
struct Witness {
    eval: Evaluator,
    /// The model also satisfies `reqs`: a `defs ∧ reqs` witness.
    seed: bool,
}

/// What a cached witness that falsifies a candidate proves about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refuted {
    /// A `defs` witness: `defs ⊭ cand`, the candidate is non-trivial.
    Defs,
    /// A `defs ∧ reqs` witness: non-trivial, and `defs ∧ reqs ⊭ cand`, so
    /// also unnecessary.
    Seed,
}

/// The bounded cache of validated witnesses, most recently useful first.
struct Witnesses {
    defs: TermId,
    reqs: TermId,
    list: Vec<Witness>,
}

impl Witnesses {
    fn new(defs: TermId, reqs: TermId) -> Witnesses {
        Witnesses {
            defs,
            reqs,
            list: Vec::new(),
        }
    }

    /// Admit `model` if term evaluation proves it a model of `defs`, noting
    /// whether it satisfies `reqs` as well. The solver's word is not
    /// enough: a cached witness decides later candidates on its own, so it
    /// must be a proof by itself. Returns whether the model was admitted.
    fn admit(&mut self, ctx: &Ctx, model: Assignment) -> bool {
        if !model.well_sorted(ctx) {
            return false;
        }
        let mut eval = Evaluator::new(model);
        if eval.eval_bool(ctx, self.defs) != Some(true) {
            return false;
        }
        let seed = eval.eval_bool(ctx, self.reqs) == Some(true);
        self.list.insert(0, Witness { eval, seed });
        self.list.truncate(MAX_WITNESSES);
        true
    }

    /// The strongest refutation of `cand` any cached witness gives, moving
    /// the deciding witness to the front.
    fn refute(&mut self, ctx: &Ctx, cand: TermId) -> Option<Refuted> {
        let mut found: Option<(usize, Refuted)> = None;
        for (i, w) in self.list.iter_mut().enumerate() {
            // Once a `defs` witness is found, only a seed one improves it.
            if found.is_some() && !w.seed {
                continue;
            }
            if w.eval.eval_bool(ctx, cand) == Some(false) {
                if w.seed {
                    found = Some((i, Refuted::Seed));
                    break;
                }
                found = Some((i, Refuted::Defs));
            }
        }
        let (i, refuted) = found?;
        self.list[..=i].rotate_right(1);
        Some(refuted)
    }
}

/// The solver backend behind the lifter's entailment queries. Both flavours
/// answer exactly the same questions; the session flavour encodes the
/// simplified `defs` once, carries learned clauses from candidate to
/// candidate, and decides what it can from cached witnesses.
enum Checker {
    /// One fresh [`SmtSession`] per query over the raw `defs`: no state
    /// carried between queries, no model filter and no simplification,
    /// kept as the differential oracle.
    Fresh {
        defs: TermId,
        seed_conj: TermId,
        budget: Budget,
    },
    /// One persistent session asserting the simplified `defs`
    /// ([`simplify_defs`]). It never receives candidate-specific
    /// assertions: `reqs`, sufficiency hypotheses and provenance negations
    /// all travel as assumptions, so one encoding serves every query shape.
    Session {
        session: Box<SmtSession>,
        witnesses: Witnesses,
    },
}

impl Checker {
    fn new(ctx: &mut Ctx, defs: TermId, reqs: TermId, options: &LiftOptions) -> Checker {
        if !options.incremental {
            let seed_conj = ctx.and2(defs, reqs);
            return Checker::Fresh {
                defs,
                seed_conj,
                budget: options.budget.clone(),
            };
        }
        let base = simplify_defs(ctx, defs, &options.budget);
        let mut session = Box::new(SmtSession::new());
        session.assert(ctx, &[base]);
        session.set_budget(options.budget.clone());
        Checker::Session {
            session,
            witnesses: Witnesses::new(defs, reqs),
        }
    }

    /// What the cached witnesses prove about `cand`, without a solver call.
    /// The fresh flavour caches nothing.
    fn refute(&mut self, ctx: &Ctx, cand: TermId) -> Option<Refuted> {
        match self {
            Checker::Fresh { .. } => None,
            Checker::Session { witnesses, .. } => witnesses.refute(ctx, cand),
        }
    }

    /// `defs ⊨ cand`? (the non-triviality check, negated)
    fn defs_entails(&mut self, ctx: &mut Ctx, cand: TermId) -> Result<bool, Interrupt> {
        match self {
            Checker::Fresh { defs, budget, .. } => entails_under(ctx, *defs, cand, budget),
            Checker::Session { session, witnesses } => {
                let neg = ctx.not(cand);
                entails_keeping_model(ctx, session, witnesses, &[neg])
            }
        }
    }

    /// `defs ∧ reqs ⊨ cand`? (necessity)
    fn seed_entails(&mut self, ctx: &mut Ctx, cand: TermId) -> Result<bool, Interrupt> {
        match self {
            Checker::Fresh {
                seed_conj, budget, ..
            } => entails_under(ctx, *seed_conj, cand, budget),
            Checker::Session { session, witnesses } => {
                let neg = ctx.not(cand);
                let reqs = witnesses.reqs;
                entails_keeping_model(ctx, session, witnesses, &[reqs, neg])
            }
        }
    }

    /// `defs ∧ chosen ⊨ reqs`? (sufficiency)
    fn sufficient(
        &mut self,
        ctx: &mut Ctx,
        chosen: &[TermId],
        reqs: TermId,
    ) -> Result<bool, Interrupt> {
        match self {
            Checker::Fresh { defs, budget, .. } => {
                let mut terms = vec![*defs];
                terms.extend_from_slice(chosen);
                let conj = ctx.and(&terms);
                entails_under(ctx, conj, reqs, budget)
            }
            Checker::Session { session, .. } => session.entails_assuming(ctx, chosen, reqs),
        }
    }

    /// Attribute subsequent solver queries to the candidate `label`, so
    /// `session.query` spans name the lift template that issued them. The
    /// fresh flavour builds a new solver per query and has no span stream
    /// to label.
    fn set_origin(&mut self, label: &str) {
        if let Checker::Session { session, .. } = self {
            session.set_origin(format!("lift:{label}"));
        }
    }

    /// Unsat-core indices into `req_groups` for `defs ∧ groups ∧ ¬cand`.
    fn provenance_core(
        &mut self,
        ctx: &mut Ctx,
        cand: TermId,
        req_groups: &[TermId],
    ) -> Vec<usize> {
        match self {
            Checker::Fresh { defs, budget, .. } => {
                let neg = ctx.not(cand);
                let mut session = SmtSession::new();
                session.set_budget(budget.clone());
                session.assert(ctx, &[*defs, neg]);
                session.check_assuming(ctx, req_groups).1
            }
            Checker::Session { session, .. } => {
                // ¬cand rides along as the last assumption; indices beyond
                // the requirement groups are its, not a block's.
                let neg = ctx.not(cand);
                let mut assumptions: Vec<TermId> = req_groups.to_vec();
                assumptions.push(neg);
                session
                    .check_assuming(ctx, &assumptions)
                    .1
                    .into_iter()
                    .filter(|&i| i < req_groups.len())
                    .collect()
            }
        }
    }
}

/// The session's assertion base: `defs` run through the fifteen-rule
/// simplifier, under a `lift.simplify_defs` span. Every rule preserves
/// equivalence over well-sorted assignments, so each query keeps its
/// answer while the frozen rest of the network folds away before it is
/// bit-blasted. An interrupted simplification returns a partially
/// simplified term that is still equivalent, so the lift goes on as usual.
fn simplify_defs(ctx: &mut Ctx, defs: TermId, budget: &Budget) -> TermId {
    let span = netexpl_obs::Span::enter("lift.simplify_defs");
    let simplified = Simplifier::default()
        .with_budget(budget.clone())
        .simplify(ctx, defs);
    if span.is_recording() {
        span.attr("nodes_before", ctx.dag_size(defs));
        span.attr("nodes_after", ctx.dag_size(simplified));
    }
    simplified
}

/// Is `defs ∧ assumptions` unsatisfiable on `session`? A satisfying model
/// is offered to the witness cache before it is dropped.
fn entails_keeping_model(
    ctx: &mut Ctx,
    session: &mut SmtSession,
    witnesses: &mut Witnesses,
    assumptions: &[TermId],
) -> Result<bool, Interrupt> {
    match session.check_assuming(ctx, assumptions).0 {
        SmtResult::Unsat => Ok(true),
        SmtResult::Sat(model) => {
            witnesses.admit(ctx, model);
            Ok(false)
        }
        SmtResult::Unknown(i) => Err(i),
    }
}

/// A path a forbidden candidate would kill, keyed for coverage dedup.
type PathKey = (Prefix, Vec<RouterId>);

/// What shape of requirement a candidate is, with the data its greedy
/// dedup needs.
enum CandKind {
    /// A forbidden-path window; `matched` are the enumerated paths it
    /// kills. Redundancy is judged on *matched path sets* (a candidate
    /// constraint is exactly "all matched paths dead"), which keeps
    /// syntactically distinct but jointly needed statements — the paper's
    /// Figure 5 lists both transit paths even though, with the rest of the
    /// network frozen, their constraints coincide.
    Forbidden { matched: Vec<PathKey> },
    /// A localized preference chain. Kept on non-triviality alone (its
    /// constraints come *from* the seed, so necessity is definitional).
    Preference,
    /// A localized reachability obligation.
    Reachable,
}

/// One enumerated candidate: the requirement it would contribute, its
/// constraint term, and the judging policy its kind implies.
struct Candidate {
    req: Requirement,
    term: TermId,
    label: String,
    kind: CandKind,
}

impl Candidate {
    fn kind_str(&self) -> &'static str {
        match self.kind {
            CandKind::Forbidden { .. } => "forbidden",
            CandKind::Preference => "preference",
            CandKind::Reachable => "reachable",
        }
    }

    fn needs_necessity(&self) -> bool {
        !matches!(self.kind, CandKind::Preference)
    }
}

/// Enumerate every candidate the lifter will judge, in judging order:
/// forbidden-path windows shortest-first (truncated to `max_candidates`),
/// then localized preferences, then localized reachability.
fn enumerate_candidates(
    ctx: &mut Ctx,
    topo: &Topology,
    spec: &Specification,
    seed: &SeedSpec,
    router: RouterId,
    options: &LiftOptions,
) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = Vec::new();

    // ---- forbidden-path candidates -----------------------------------------
    let mut seen: HashSet<&[RouterId]> = HashSet::new();
    let mut patterns: Vec<&[RouterId]> = Vec::new();
    for infos in seed.encoded.paths.values() {
        for info in infos {
            let routers = &info.routers;
            let Some(pos) = routers.iter().position(|&r| r == router) else {
                continue;
            };
            for start in 0..=pos {
                for end in (pos + 1).max(start + 2)..=routers.len() {
                    if end - start > options.max_window {
                        continue;
                    }
                    let window = &routers[start..end];
                    if seen.insert(window) {
                        patterns.push(window);
                    }
                }
            }
        }
    }
    // Shortest patterns first: prefer the most general statement (the
    // paper's Figure 2 `!(R1 -> P1)` over an origin-qualified variant).
    let enumerated = patterns.len();
    patterns.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    patterns.truncate(options.max_candidates);
    netexpl_obs::counter_add("lift.templates_enumerated", enumerated as u64);
    netexpl_obs::counter_add(
        "lift.templates_pruned",
        (enumerated - patterns.len()) as u64,
    );

    for window in &patterns {
        let names: Vec<&str> = window.iter().map(|&r| topo.name(r)).collect();
        let pattern = PathPattern::routers(&names);
        let label = format!("!({pattern})");
        // The candidate's own constraint: every enumerated path matching the
        // window must be dead — the same availability semantics the encoder
        // gives a global forbidden requirement.
        let mut dead_terms = Vec::new();
        let mut matched: Vec<PathKey> = Vec::new();
        for (prefix, infos) in &seed.encoded.paths {
            let dest_ok = |d: &str| spec.prefix_of(d) == Some(*prefix);
            for info in infos {
                if pattern.matches_route(topo, &info.routers, &dest_ok) {
                    dead_terms.push(info.alive);
                    matched.push((*prefix, info.routers.clone()));
                }
            }
        }
        let term = {
            let negs: Vec<TermId> = dead_terms.iter().map(|&a| ctx.not(a)).collect();
            ctx.and(&negs)
        };
        out.push(Candidate {
            req: Requirement::Forbidden(pattern),
            term,
            label,
            kind: CandKind::Forbidden { matched },
        });
    }

    // ---- localized preference candidates ------------------------------------
    for (idx, req) in spec.requirements().enumerate() {
        let Requirement::Preference { chain } = req else {
            continue;
        };
        let Some(local) = localize_preference(topo, router, chain) else {
            continue;
        };
        // This requirement's own constraint conjunction.
        let own: Vec<TermId> = seed
            .encoded
            .reqs
            .iter()
            .zip(&seed.encoded.req_origins)
            .filter(|&(_, &o)| o == idx)
            .map(|(&t, _)| t)
            .collect();
        let term = ctx.and(&own);
        let label = local.to_string();
        out.push(Candidate {
            req: local,
            term,
            label,
            kind: CandKind::Preference,
        });
    }

    // ---- localized reachability candidates -----------------------------------
    // For each declared destination whose prefix has a selection fixpoint
    // (i.e. some requirement constrained it), "x ~> D" for the router and
    // its neighbors: the local obligation to keep a destination reachable.
    let mut reach_holders: Vec<RouterId> = vec![router];
    reach_holders.extend(topo.neighbors(router).iter().copied());
    for (dname, prefix) in &spec.destinations {
        let Some(fam) = seed.encoded.nominal_sel.get(prefix) else {
            continue;
        };
        let infos = &seed.encoded.paths[prefix];
        for &x in &reach_holders {
            let sels: Vec<TermId> = infos
                .iter()
                .enumerate()
                .filter(|(_, i)| i.holder() == x)
                .filter_map(|(k, _)| fam[k])
                .collect();
            if sels.is_empty() {
                continue;
            }
            let term = ctx.or(&sels);
            out.push(Candidate {
                req: Requirement::Reachable {
                    src: topo.name(x).to_string(),
                    dst: dname.clone(),
                },
                term,
                label: format!("{} ~> {}", topo.name(x), dname),
                kind: CandKind::Reachable,
            });
        }
    }

    out
}

/// What the candidate loop produced, before sufficiency and provenance.
struct CheckOutcome {
    kept: Vec<(Requirement, TermId)>,
    rejected: Vec<Requirement>,
    checked: usize,
    interrupt: Option<Interrupt>,
}

/// A single candidate's solver verdict — a fact about `defs` / `defs ∧
/// reqs`, independent of query order and of every other candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Judgement {
    /// `defs ⊨ cand`: already guaranteed by the frozen network.
    Trivial,
    /// `defs ∧ reqs ⊭ cand`: not implied by the seed.
    Unnecessary,
    /// Non-trivial and (where required) necessary.
    Keep,
}

impl Judgement {
    fn as_str(self) -> &'static str {
        match self {
            Judgement::Trivial => "trivial",
            Judgement::Unnecessary => "unnecessary",
            Judgement::Keep => "kept",
        }
    }
}

/// Judge one candidate under a `lift.candidate` span: the model filter
/// first, then whichever of the non-triviality and necessity queries the
/// cached witnesses left open. Governance is the caller's.
fn judge(ctx: &mut Ctx, checker: &mut Checker, cand: &Candidate) -> Result<Judgement, Interrupt> {
    let needs_necessity = cand.needs_necessity();
    let span = netexpl_obs::Span::enter("lift.candidate");
    if span.is_recording() {
        span.attr("template", cand.label.clone());
        span.attr("kind", cand.kind_str());
        checker.set_origin(&cand.label);
    }
    // Model filter: a cached witness that falsifies the candidate decides
    // what it proves with no solver call.
    let mut refuted = checker.refute(ctx, cand.term);
    if refuted == Some(Refuted::Seed) || (refuted.is_some() && !needs_necessity) {
        let verdict = if needs_necessity {
            Judgement::Unnecessary
        } else {
            Judgement::Keep
        };
        netexpl_obs::counter_add("lift.model_filtered", 1);
        span.attr("outcome", "model-filtered");
        span.attr("verdict", verdict.as_str());
        return Ok(verdict);
    }
    // Non-trivial: not already guaranteed by the frozen network.
    if refuted.is_none() {
        match checker.defs_entails(ctx, cand.term) {
            Ok(true) => {
                span.attr("outcome", "trivial");
                return Ok(Judgement::Trivial);
            }
            // The query's own model may also satisfy `reqs`, which would
            // settle necessity too.
            Ok(false) => refuted = checker.refute(ctx, cand.term),
            Err(i) => {
                span.attr("outcome", "interrupted");
                return Err(i);
            }
        }
    }
    // Necessary: implied by the seed.
    if needs_necessity {
        let implied = if refuted == Some(Refuted::Seed) {
            false
        } else {
            match checker.seed_entails(ctx, cand.term) {
                Ok(implied) => implied,
                Err(i) => {
                    span.attr("outcome", "interrupted");
                    return Err(i);
                }
            }
        };
        if !implied {
            span.attr("outcome", "unnecessary");
            return Ok(Judgement::Unnecessary);
        }
    }
    span.attr("outcome", "kept");
    Ok(Judgement::Keep)
}

/// The candidate loop: judge in order, greedily dedup forbidden windows on
/// matched-path coverage, stop at the first interrupt.
fn check_candidates(
    ctx: &mut Ctx,
    budget: &Budget,
    checker: &mut Checker,
    candidates: &[Candidate],
) -> CheckOutcome {
    let mut covered: HashSet<PathKey> = HashSet::new();
    let mut kept: Vec<(Requirement, TermId)> = Vec::new();
    let mut rejected: Vec<Requirement> = Vec::new();
    let mut checked = 0usize;
    let mut interrupt: Option<Interrupt> = None;
    for cand in candidates {
        if let CandKind::Forbidden { matched } = &cand.kind {
            // Forbidden windows dominate the search, so only they pass
            // through per-candidate governance.
            if let Err(i) = governance(budget) {
                interrupt = Some(i);
                break;
            }
            // Redundant: everything it would forbid is already forbidden by
            // a chosen (shorter) candidate. Filtered before it counts as
            // checked — and before its queries run at all.
            if matched.iter().all(|m| covered.contains(m)) {
                netexpl_obs::counter_add("lift.templates_pruned", 1);
                let span = netexpl_obs::Span::enter("lift.candidate");
                if span.is_recording() {
                    span.attr("template", cand.label.clone());
                    span.attr("kind", cand.kind_str());
                    span.attr("outcome", "filtered");
                }
                continue;
            }
        }
        checked += 1;
        match judge(ctx, checker, cand) {
            Ok(Judgement::Trivial) | Ok(Judgement::Unnecessary) => {
                rejected.push(cand.req.clone());
            }
            Ok(Judgement::Keep) => {
                if let CandKind::Forbidden { matched } = &cand.kind {
                    covered.extend(matched.iter().cloned());
                }
                kept.push((cand.req.clone(), cand.term));
            }
            Err(i) => {
                interrupt = Some(i);
                break;
            }
        }
    }
    CheckOutcome {
        kept,
        rejected,
        checked,
        interrupt,
    }
}

/// Lift the seed specification of `router` into the specification language.
pub fn lift(
    ctx: &mut Ctx,
    topo: &Topology,
    spec: &Specification,
    seed: &SeedSpec,
    router: RouterId,
    options: LiftOptions,
) -> LiftResult {
    let defs = seed.def_conjunction;
    let reqs = seed.req_conjunction;
    let candidates = enumerate_candidates(ctx, topo, spec, seed, router, &options);
    let mut checker = Checker::new(ctx, defs, reqs, &options);
    let CheckOutcome {
        kept,
        rejected,
        checked,
        mut interrupt,
    } = check_candidates(ctx, &options.budget, &mut checker, &candidates);

    // ---- sufficiency ---------------------------------------------------------
    // An interrupted search cannot claim sufficiency: candidates it never
    // examined might have been required.
    let chosen_terms: Vec<TermId> = kept.iter().map(|(_, t)| *t).collect();
    checker.set_origin("sufficiency");
    let complete = if interrupt.is_some() {
        false
    } else {
        match checker.sufficient(ctx, &chosen_terms, reqs) {
            Ok(v) => v,
            Err(i) => {
                interrupt = Some(i);
                false
            }
        }
    };

    // ---- provenance ------------------------------------------------------------
    // Trace each chosen entry to the global requirement blocks that force
    // it: assume each requirement's constraint conjunction retractably and
    // take the unsat core of defs ∧ assumptions ∧ ¬entry.
    let block_names: Vec<String> = spec
        .blocks
        .iter()
        .flat_map(|(name, rs)| std::iter::repeat_n(name.clone(), rs.len()))
        .collect();
    let n_reqs = spec.requirements().count();
    let req_groups: Vec<TermId> = (0..n_reqs)
        .map(|idx| {
            let own: Vec<TermId> = seed
                .encoded
                .reqs
                .iter()
                .zip(&seed.encoded.req_origins)
                .filter(|&(_, &o)| o == idx)
                .map(|(&t, _)| t)
                .collect();
            ctx.and(&own)
        })
        .collect();
    let mut provenance: Vec<Vec<String>> = Vec::with_capacity(kept.len());
    checker.set_origin("provenance");
    for (_, cand) in &kept {
        if interrupt.is_some() {
            // Provenance is decoration; don't spend an exhausted budget on
            // it. Entries without traced blocks simply render without the
            // "required by" line.
            provenance.push(Vec::new());
            continue;
        }
        let core = checker.provenance_core(ctx, *cand, &req_groups);
        let mut blocks: Vec<String> = core
            .iter()
            .filter_map(|&i| block_names.get(i).cloned())
            .collect();
        blocks.sort();
        blocks.dedup();
        provenance.push(blocks);
    }

    netexpl_obs::counter_add("lift.candidate_checks", checked as u64);
    let requirements: Vec<Requirement> = kept.into_iter().map(|(r, _)| r).collect();
    LiftResult {
        subspec: SubSpec {
            router: topo.name(router).to_string(),
            requirements,
        },
        complete,
        candidates_checked: checked,
        rejected,
        provenance,
        interrupt,
    }
}

/// Per-candidate governance: the fault-injection site plus the coarse
/// deadline/cancellation check. Solver-side caps (conflicts, decisions,
/// propagations) are enforced inside the budgeted entailment queries.
fn governance(budget: &Budget) -> Result<(), Interrupt> {
    if netexpl_faults::triggered(netexpl_faults::sites::LIFT_CANDIDATE) {
        let i = Interrupt::new(InterruptReason::Fault, "lift.candidate");
        i.record();
        return Err(i);
    }
    budget.check_coarse("lift.candidate").inspect_err(|i| {
        i.record();
    })
}

/// Truncate a global preference requirement to start at `router`, as in the
/// paper's Figure 4 (`C -> R3 -> R1 -> …` becomes `R3 -> R1 -> …` when
/// explaining R3). Returns `None` when the router is not on every chain
/// member (there is no local decision to express otherwise).
fn localize_preference(
    topo: &Topology,
    router: RouterId,
    chain: &[PathPattern],
) -> Option<Requirement> {
    if topo.router(router).kind != RouterKind::Internal {
        return None;
    }
    let name = topo.name(router);
    let cut = |p: &PathPattern| -> Option<PathPattern> {
        let pos = p
            .segs
            .iter()
            .position(|s| matches!(s, Seg::Router(n) if n == name))?;
        Some(PathPattern::new(p.segs[pos..].to_vec()))
    };
    let localized: Option<Vec<PathPattern>> = chain.iter().map(cut).collect();
    Some(Requirement::Preference { chain: localized? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netexpl_spec::parse;
    use netexpl_topology::builders::paper_topology;

    #[test]
    fn localize_preference_truncates_at_router() {
        let (topo, h) = paper_topology();
        let spec = parse(
            "dest D1 = 200.7.0.0/16\n\
             Req2 {\n\
               (Customer -> R3 -> R1 -> P1 -> ... -> D1)\n\
               >> (Customer -> R3 -> R2 -> P2 -> ... -> D1)\n\
             }",
        )
        .unwrap();
        let req = spec.requirements().next().unwrap();
        let Requirement::Preference { chain } = req else {
            panic!()
        };
        let local = localize_preference(&topo, h.r3, chain).unwrap();
        let Requirement::Preference { chain: lc } = &local else {
            panic!()
        };
        assert_eq!(lc[0].to_string(), "R3 -> R1 -> P1 -> ... -> D1");
        assert_eq!(lc[1].to_string(), "R3 -> R2 -> P2 -> ... -> D1");
        // A router on only one of the two paths localizes to nothing —
        // there is no local decision to express.
        assert!(localize_preference(&topo, h.r1, chain).is_none());
        // External routers never get local preferences.
        assert!(localize_preference(&topo, h.p1, chain).is_none());
    }
}

#[cfg(test)]
mod option_tests {
    use super::*;
    use crate::seed::seed_spec;
    use crate::symbolize::{symbolize, Selector};
    use netexpl_bgp::{Action, NetworkConfig, RouteMap, RouteMapEntry};
    use netexpl_logic::term::{Ctx, VarId};
    use netexpl_synth::encode::EncodeOptions;
    use netexpl_synth::sketch::HoleFactory;
    use netexpl_synth::vocab::Vocabulary;
    use netexpl_topology::builders::paper_topology;
    use netexpl_topology::Prefix;

    #[test]
    fn window_and_candidate_caps_bound_the_search() {
        let (topo, h) = paper_topology();
        let d2: Prefix = "201.0.0.0/16".parse().unwrap();
        let mut net = NetworkConfig::new();
        net.originate(h.p2, d2);
        net.router_mut(h.r1).set_export(
            h.p1,
            RouteMap::new(
                "R1_to_P1",
                vec![RouteMapEntry {
                    seq: 10,
                    action: Action::Deny,
                    matches: vec![],
                    sets: vec![],
                }],
            ),
        );
        let spec = netexpl_spec::parse("Req1 { !(P2 -> ... -> P1) }").unwrap();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let (sym, _) = symbolize(&mut ctx, &factory, &topo, &net, h.r1, &Selector::Router);
        let seed = seed_spec(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sym,
            &spec,
            EncodeOptions::default(),
        )
        .unwrap();

        // With generous bounds the lift is exact.
        let full = lift(&mut ctx, &topo, &spec, &seed, h.r1, LiftOptions::default());
        assert!(full.complete);
        assert!(!full.subspec.is_empty());

        // A candidate cap of 1 examines at most one pattern (the necessity
        // check may reject it, leaving an incomplete but sound result).
        let capped = lift(
            &mut ctx,
            &topo,
            &spec,
            &seed,
            h.r1,
            LiftOptions {
                max_window: 2,
                max_candidates: 1,
                ..Default::default()
            },
        );
        assert!(
            capped.candidates_checked <= 2,
            "{}",
            capped.candidates_checked
        );
        // Window cap of 2 only permits length-2 windows like !(R1 -> P1).
        for req in &capped.subspec.requirements {
            if let Requirement::Forbidden(p) = req {
                assert!(p.segs.len() <= 2, "{p}");
            }
        }
    }

    fn scenario_seed() -> (
        Ctx,
        netexpl_topology::Topology,
        Specification,
        SeedSpec,
        netexpl_topology::RouterId,
    ) {
        seed_for("Req1 { !(P2 -> ... -> P1) }")
    }

    /// The paper topology with P2 originating D2 and R1's export to P1
    /// denying everything, symbolized at R1 and seeded against `spec`.
    fn seed_for(
        spec: &str,
    ) -> (
        Ctx,
        netexpl_topology::Topology,
        Specification,
        SeedSpec,
        netexpl_topology::RouterId,
    ) {
        let (topo, h) = paper_topology();
        let d2: Prefix = "201.0.0.0/16".parse().unwrap();
        let mut net = NetworkConfig::new();
        net.originate(h.p2, d2);
        net.router_mut(h.r1).set_export(
            h.p1,
            RouteMap::new(
                "R1_to_P1",
                vec![RouteMapEntry {
                    seq: 10,
                    action: Action::Deny,
                    matches: vec![],
                    sets: vec![],
                }],
            ),
        );
        let spec = netexpl_spec::parse(spec).unwrap();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let (sym, _) = symbolize(&mut ctx, &factory, &topo, &net, h.r1, &Selector::Router);
        let seed = seed_spec(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sym,
            &spec,
            EncodeOptions::default(),
        )
        .unwrap();
        (ctx, topo, spec, seed, h.r1)
    }

    #[test]
    fn expired_deadline_interrupts_but_stays_sound() {
        use netexpl_logic::budget::{Budget, InterruptReason};
        let (mut ctx, topo, spec, seed, r1) = scenario_seed();
        let result = lift(
            &mut ctx,
            &topo,
            &spec,
            &seed,
            r1,
            LiftOptions {
                budget: Budget::unlimited().deadline_in(std::time::Duration::ZERO),
                ..Default::default()
            },
        );
        let i = result
            .interrupt
            .expect("an expired deadline must interrupt");
        assert_eq!(i.reason, InterruptReason::Deadline);
        assert!(!result.complete, "an interrupted lift cannot be complete");
        // Kept entries (if any squeaked in before the check) are still
        // individually necessary, so the subspec — possibly empty — is sound.
    }

    #[test]
    fn fault_injection_interrupts_lift() {
        use netexpl_logic::budget::InterruptReason;
        let (mut ctx, topo, spec, seed, r1) = scenario_seed();
        let _guard = netexpl_faults::arm(netexpl_faults::sites::LIFT_CANDIDATE);
        let result = lift(&mut ctx, &topo, &spec, &seed, r1, LiftOptions::default());
        let i = result.interrupt.expect("armed fault must interrupt");
        assert_eq!(i.reason, InterruptReason::Fault);
        assert!(!result.complete);
        assert!(result.subspec.is_empty(), "fault fires before any check");
    }

    /// The lift session asserts the simplified `defs`: its encoding is
    /// strictly smaller than a bare session asserting the raw term, and the
    /// lift still reaches exactly the answers of the fresh oracle, which
    /// asserts the raw `defs` itself.
    #[test]
    fn session_encodes_the_simplified_defs() {
        use netexpl_obs::{AttrValue, SpanRecord};
        let uint = |span: &SpanRecord, key: &str| match span.attr(key) {
            Some(AttrValue::UInt(n)) => *n,
            other => panic!("{key}: {other:?}"),
        };
        // A reachability requirement gives the seed selection definitions
        // (the forbidden-only scenario's `defs` fold to true).
        let (mut ctx, topo, spec, seed, r1) = seed_for(
            "dest D2 = 201.0.0.0/16\n\
             Req1 { !(P2 -> ... -> P1) }\n\
             Req2 { Customer ~> D2 }",
        );

        let (guard, handle) = netexpl_obs::install_memory();
        SmtSession::new().assert(&mut ctx, &[seed.def_conjunction]);
        drop(guard);
        let raw = handle.spans_named("session.assert");
        assert_eq!(raw.len(), 1);

        let (guard, handle) = netexpl_obs::install_memory();
        let session = lift(&mut ctx, &topo, &spec, &seed, r1, LiftOptions::default());
        drop(guard);
        let asserted = handle.spans_named("session.assert");
        assert_eq!(asserted.len(), 1, "one assertion per lift");
        assert!(
            uint(&asserted[0], "cnf_clauses") < uint(&raw[0], "cnf_clauses"),
            "lift encoded {} clauses, raw defs {}",
            uint(&asserted[0], "cnf_clauses"),
            uint(&raw[0], "cnf_clauses")
        );
        let simplified = handle.spans_named("lift.simplify_defs");
        assert_eq!(simplified.len(), 1);
        assert!(uint(&simplified[0], "nodes_after") < uint(&simplified[0], "nodes_before"));

        let fresh = lift(
            &mut ctx,
            &topo,
            &spec,
            &seed,
            r1,
            LiftOptions {
                incremental: false,
                ..Default::default()
            },
        );
        assert!(session.interrupt.is_none() && fresh.interrupt.is_none());
        assert_eq!(session.subspec.to_string(), fresh.subspec.to_string());
        assert_eq!(session.rejected, fresh.rejected);
        assert_eq!(session.provenance, fresh.provenance);
        assert_eq!(session.complete, fresh.complete);
        assert_eq!(session.candidates_checked, fresh.candidates_checked);
    }

    /// Judge every candidate twice on one session checker. The second
    /// pass must reach the same verdicts, and each candidate the first
    /// pass found unnecessary is now falsified by the witness its own
    /// query admitted, so it is decided without a single session query.
    #[test]
    fn model_decided_candidates_issue_no_session_query() {
        let (mut ctx, topo, spec, seed, r1) = scenario_seed();
        let options = LiftOptions {
            incremental: true,
            ..Default::default()
        };
        let candidates = enumerate_candidates(&mut ctx, &topo, &spec, &seed, r1, &options);
        let mut checker = Checker::new(
            &mut ctx,
            seed.def_conjunction,
            seed.req_conjunction,
            &options,
        );
        let first: Vec<Judgement> = candidates
            .iter()
            .map(|c| judge(&mut ctx, &mut checker, c).unwrap())
            .collect();
        let unnecessary: Vec<&Candidate> = candidates
            .iter()
            .zip(&first)
            .filter(|(_, &j)| j == Judgement::Unnecessary)
            .map(|(c, _)| c)
            .collect();
        assert!(
            !unnecessary.is_empty(),
            "the scenario must reject something"
        );

        for cand in unnecessary {
            let (guard, handle) = netexpl_obs::install_memory();
            let again = judge(&mut ctx, &mut checker, cand).unwrap();
            drop(guard);
            assert_eq!(again, Judgement::Unnecessary, "{}", cand.label);
            let metrics = handle.metrics().unwrap();
            assert_eq!(metrics.counter("session.queries"), 0, "{}", cand.label);
            assert_eq!(metrics.counter("lift.model_filtered"), 1, "{}", cand.label);
            let spans = handle.spans_named("lift.candidate");
            assert_eq!(spans.len(), 1);
            assert_eq!(
                spans[0].attr("outcome"),
                Some(&netexpl_obs::AttrValue::Str("model-filtered".into()))
            );
        }
        // Every verdict repeats, whether a witness or a query decides it.
        for (cand, &j) in candidates.iter().zip(&first) {
            assert_eq!(
                judge(&mut ctx, &mut checker, cand).unwrap(),
                j,
                "{}",
                cand.label
            );
        }
    }

    /// Admission re-checks a model by term evaluation: one that falsifies
    /// `defs`, leaves it undetermined, or binds a value outside its sort is
    /// never cached, so it can never decide a candidate.
    #[test]
    fn models_failing_the_defs_recheck_are_never_admitted() {
        use netexpl_logic::model::Value;
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let lp = ctx.int_var("lp", 0, 3);
        let one = ctx.int_const(1);
        let lp_ge_1 = ctx.le(one, lp);
        let defs = ctx.and2(a, lp_ge_1);
        let reqs = b;
        let (va, vb, vlp) = (VarId(0), VarId(1), VarId(2));
        let model = |binds: &[(VarId, Value)]| {
            let mut m = Assignment::new();
            for &(v, val) in binds {
                m.set(v, val);
            }
            m
        };
        let mut witnesses = Witnesses::new(defs, reqs);

        // Falsifies `defs`.
        let bad = model(&[(va, Value::Bool(false)), (vlp, Value::Int(2))]);
        assert!(!witnesses.admit(&ctx, bad));
        // Leaves `defs` undetermined (`lp` unbound).
        let partial = model(&[(va, Value::Bool(true))]);
        assert!(!witnesses.admit(&ctx, partial));
        // Satisfies `defs` only through a value outside `lp`'s sort.
        let ill_sorted = model(&[(va, Value::Bool(true)), (vlp, Value::Int(7))]);
        assert!(!witnesses.admit(&ctx, ill_sorted));
        assert!(witnesses.list.is_empty(), "nothing may have been cached");
        // So nothing refutes a candidate those models falsify.
        let na = ctx.not(a);
        let cand = ctx.or2(na, b);
        assert_eq!(witnesses.refute(&ctx, cand), None);

        // A genuine model of `defs ∧ reqs` is admitted as a seed witness.
        let good = model(&[
            (va, Value::Bool(true)),
            (vb, Value::Bool(true)),
            (vlp, Value::Int(1)),
        ]);
        assert!(witnesses.admit(&ctx, good));
        let nb = ctx.not(b);
        assert_eq!(witnesses.refute(&ctx, nb), Some(Refuted::Seed));
        // A model of `defs` alone only proves non-triviality.
        let defs_only = model(&[
            (va, Value::Bool(true)),
            (vb, Value::Bool(false)),
            (vlp, Value::Int(3)),
        ]);
        assert!(witnesses.admit(&ctx, defs_only));
        assert_eq!(witnesses.refute(&ctx, b), Some(Refuted::Defs));
    }
}
