//! The end-to-end explanation pipeline (the paper's Figure 6).

use std::fmt;

use netexpl_bgp::NetworkConfig;
use netexpl_logic::budget::{Budget, Interrupt};
use netexpl_logic::simplify::{RuleMask, Simplifier, SimplifyStats};
use netexpl_logic::term::{Ctx, TermId, TermNode};
use netexpl_obs::Span;
use netexpl_spec::{Specification, SubSpec};
use netexpl_synth::encode::{EncodeCache, EncodeError, EncodeOptions};
use netexpl_synth::sketch::HoleFactory;
use netexpl_synth::vocab::{VocabSorts, Vocabulary};
use netexpl_topology::{RouterId, Topology};

use crate::lift::{lift, LiftOptions, LiftResult};
use crate::seed::seed_spec_cached;
use crate::symbolize::{symbolize, Selector, SymbolTable};

/// Options for an explanation run.
#[derive(Debug, Clone, Default)]
pub struct ExplainOptions {
    /// Encoding options (path enumeration bound).
    pub encode: EncodeOptions,
    /// Which of the fifteen rewrite rules to apply (rule-ablation hook).
    pub rules: RuleMask,
    /// Lifting bounds.
    pub lift: LiftOptions,
    /// Skip the lifting step (seed + simplification only — the paper's
    /// actual prototype scope).
    pub skip_lift: bool,
    /// Double-check the simplifier with the solver: prove the simplified
    /// term equivalent to the seed conjunction (before projection, which is
    /// deliberately not equivalence-preserving). Off by default — the
    /// rewrites preserve equivalence by construction — but cheap under
    /// incremental sessions (both terms encode once, the two entailment
    /// directions share the CNF) and useful as a belt-and-braces mode.
    pub verify_simplify: bool,
    /// Resource budget governing the simplification fixpoint and the
    /// lifter's solver queries. Exhaustion never fails the pipeline: the
    /// explanation degrades stage by stage and records what happened in
    /// [`Explanation::verdicts`].
    pub budget: Budget,
}

/// How thoroughly a pipeline stage ran under its resource budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The stage ran to completion; its artifact is exact.
    Verified,
    /// The stage was interrupted after making progress; its artifact is
    /// sound but weaker than a full run's (partially simplified constraints,
    /// a necessary-but-unproven-sufficient subspecification).
    BestEffort,
    /// The stage was interrupted before accomplishing anything; downstream
    /// consumers should fall back to the previous stage's artifact.
    Exhausted,
}

impl Verdict {
    /// Stable token for machine-readable output (`--json`).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Verified => "verified",
            Verdict::BestEffort => "best-effort",
            Verdict::Exhausted => "exhausted",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-stage verdicts for a (possibly degraded) explanation.
///
/// Symbolization and seeding are not solver-bound, so they either succeed
/// or fail outright ([`ExplainError`]); only the simplification fixpoint
/// and the lifting search can partially complete.
#[derive(Debug, Clone)]
pub struct StageVerdicts {
    /// The simplification fixpoint.
    pub simplify: Verdict,
    /// The lifting search (a skipped lift is `Verified`: nothing was asked
    /// of it).
    pub lift: Verdict,
    /// The interrupts behind any degradation, in pipeline order.
    pub interrupts: Vec<Interrupt>,
}

impl StageVerdicts {
    fn verified() -> Self {
        StageVerdicts {
            simplify: Verdict::Verified,
            lift: Verdict::Verified,
            interrupts: Vec::new(),
        }
    }

    /// Did every stage run to completion?
    pub fn all_verified(&self) -> bool {
        self.simplify == Verdict::Verified && self.lift == Verdict::Verified
    }
}

/// Explanation failure.
#[derive(Debug)]
pub enum ExplainError {
    /// The requirements could not be encoded.
    Encode(EncodeError),
    /// Nothing was symbolized (unknown router or empty selector).
    NothingSymbolized,
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::Encode(e) => write!(f, "encoding failed: {e}"),
            ExplainError::NothingSymbolized => {
                write!(f, "the selector matched no configuration lines")
            }
        }
    }
}

impl std::error::Error for ExplainError {}

impl From<EncodeError> for ExplainError {
    fn from(e: EncodeError) -> Self {
        ExplainError::Encode(e)
    }
}

/// The full explanation artifact.
#[derive(Debug)]
pub struct Explanation {
    /// The explained router's name.
    pub router: String,
    /// Descriptions of the symbolized variables (Figure 6b).
    pub symbolized: Vec<String>,
    /// Seed size: number of top-level conjuncts before simplification.
    pub seed_conjuncts: usize,
    /// Seed size: total AST nodes before simplification.
    pub seed_size: usize,
    /// The simplified seed specification (Figure 6c).
    pub simplified: TermId,
    /// Conjuncts after simplification.
    pub simplified_conjuncts: usize,
    /// AST nodes after simplification.
    pub simplified_size: usize,
    /// The simplified conjuncts that mention symbolized variables, rendered.
    pub simplified_text: Vec<String>,
    /// Rewrite-rule firing statistics.
    pub rule_stats: SimplifyStats,
    /// The lifted subspecification (empty when `skip_lift`).
    pub subspec: SubSpec,
    /// Whether lifting proved the subspecification sufficient.
    pub lift_complete: bool,
    /// Solver queries spent on lifting.
    pub lift_candidates_checked: usize,
    /// Per-subspec-entry provenance: the global requirement blocks forcing
    /// each entry (parallel to `subspec.requirements`).
    pub provenance: Vec<Vec<String>>,
    /// How thoroughly each budgeted stage ran. When a stage degraded, the
    /// raw artifacts above (notably `simplified_text`) are still sound —
    /// just less condensed than a full run would produce.
    pub verdicts: StageVerdicts,
    /// Session crossings the seed stage replayed from a shared
    /// [`EncodeCache`] (0 when explaining without one).
    pub cache_hits: u64,
    /// Session crossings the seed stage computed locally while a cache was
    /// installed (0 when explaining without one).
    pub cache_misses: u64,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Explanation for {} ===", self.router)?;
        if !self.verdicts.all_verified() {
            writeln!(
                f,
                "PARTIAL RESULT: simplify={}, lift={}",
                self.verdicts.simplify, self.verdicts.lift
            )?;
            for i in &self.verdicts.interrupts {
                writeln!(f, "  {i}")?;
            }
        }
        writeln!(f, "symbolized variables ({}):", self.symbolized.len())?;
        for s in &self.symbolized {
            writeln!(f, "  {s}")?;
        }
        writeln!(
            f,
            "seed specification: {} conjuncts, {} nodes",
            self.seed_conjuncts, self.seed_size
        )?;
        writeln!(
            f,
            "simplified:         {} conjuncts, {} nodes ({} rule firings)",
            self.simplified_conjuncts,
            self.simplified_size,
            self.rule_stats.total()
        )?;
        let fired: Vec<String> = self
            .rule_stats
            .per_rule()
            .filter(|&(_, n)| n > 0)
            .map(|(name, n)| format!("{name}×{n}"))
            .collect();
        if !fired.is_empty() {
            writeln!(f, "rules fired:        {}", fired.join(", "))?;
        }
        if self.simplified_text.is_empty() {
            writeln!(
                f,
                "simplified constraints on this router: (none — unconstrained)"
            )?;
        } else {
            writeln!(f, "simplified constraints on this router:")?;
            for c in &self.simplified_text {
                writeln!(f, "  {c}")?;
            }
        }
        writeln!(
            f,
            "subspecification ({}):",
            if self.lift_complete {
                "exact"
            } else {
                "necessary conditions"
            }
        )?;
        write!(f, "{}", self.subspec)?;
        if self.provenance.iter().any(|p| !p.is_empty()) {
            writeln!(f, "\nrequired by:")?;
            for (req, blocks) in self.subspec.requirements.iter().zip(&self.provenance) {
                if !blocks.is_empty() {
                    writeln!(f, "  {req}  <=  {}", blocks.join(", "))?;
                }
            }
        }
        Ok(())
    }
}

/// Run the full pipeline: symbolize → seed → simplify → lift.
#[allow(clippy::too_many_arguments)]
pub fn explain(
    ctx: &mut Ctx,
    topo: &Topology,
    vocab: &Vocabulary,
    sorts: VocabSorts,
    config: &NetworkConfig,
    spec: &Specification,
    router: RouterId,
    selector: &Selector,
    options: ExplainOptions,
) -> Result<Explanation, ExplainError> {
    explain_cached(
        ctx, topo, vocab, sorts, config, spec, router, selector, options, None,
    )
}

/// [`explain`] with an optional shared [`EncodeCache`] for the seed stage,
/// the per-router entry point of [`crate::network::explain_all`]. `ctx`
/// must be (a clone of) the context the cache was built in; with `None`
/// this is exactly `explain`.
#[allow(clippy::too_many_arguments)]
pub fn explain_cached(
    ctx: &mut Ctx,
    topo: &Topology,
    vocab: &Vocabulary,
    sorts: VocabSorts,
    config: &NetworkConfig,
    spec: &Specification,
    router: RouterId,
    selector: &Selector,
    options: ExplainOptions,
    cache: Option<&EncodeCache>,
) -> Result<Explanation, ExplainError> {
    let pipeline_span = Span::enter("explain");
    pipeline_span.attr("router", topo.name(router));

    // (1) Symbolize.
    let (sym, table) = {
        let span = Span::enter("symbolize");
        let factory = HoleFactory::new(vocab, sorts);
        let (sym, table) = symbolize(ctx, &factory, topo, config, router, selector);
        span.attr("symbolized_vars", table.len());
        (sym, table)
    };
    if table.is_empty() {
        return Err(ExplainError::NothingSymbolized);
    }

    // (2) Seed specification via the synthesizer's encoder.
    let seed = {
        let span = Span::enter("seed");
        let seed = seed_spec_cached(ctx, topo, vocab, sorts, &sym, spec, options.encode, cache)?;
        span.attr("conjuncts", seed.num_conjuncts);
        span.attr("nodes", seed.size);
        if cache.is_some() {
            span.attr("cache_hits", seed.encoded.cache_hits);
            span.attr("cache_misses", seed.encoded.cache_misses);
        }
        seed
    };

    // (3) Simplify to a fixpoint of the enabled rewrite rules, then project
    // out dangling definition variables (an auxiliary `lp`/`nh`/`sel`
    // variable constrained by a single definitional conjunct is
    // existentially solvable whatever the holes are, so the conjunct says
    // nothing about the router).
    let mut verdicts = StageVerdicts::verified();
    let mut simplifier = Simplifier::new(options.rules).with_budget(options.budget.clone());
    let span = Span::enter("simplify");
    let conj = seed.conjunction(ctx);
    let simplified_raw = simplifier.simplify(ctx, conj);
    if let Some(i) = simplifier.interrupted() {
        // Interrupted simplification is equivalence-preserving, so the
        // pipeline continues on the partially simplified term.
        verdicts.simplify = if simplifier.stats.total() > 0 {
            Verdict::BestEffort
        } else {
            Verdict::Exhausted
        };
        verdicts.interrupts.push(i.clone());
    }
    if options.verify_simplify && verdicts.simplify == Verdict::Verified {
        let vspan = Span::enter("simplify.verify");
        match netexpl_logic::solver::equivalent_under(ctx, conj, simplified_raw, &options.budget) {
            Ok(ok) => {
                vspan.attr("equivalent", ok);
                debug_assert!(ok, "simplifier produced a non-equivalent term");
                if !ok {
                    // A meaning-changing rewrite would be a simplifier bug:
                    // flag the stage instead of shipping the claim.
                    verdicts.simplify = Verdict::BestEffort;
                }
            }
            Err(i) => {
                // The artifact is still sound; only the double-check was cut
                // short. Degrade the verdict so the reader knows.
                verdicts.simplify = Verdict::BestEffort;
                verdicts.interrupts.push(i);
            }
        }
    }
    let hole_vars = hole_var_set(ctx, &table);
    let projected = eliminate_dangling_defs(ctx, simplified_raw, &hole_vars);
    let simplified = ctx.and(&projected);
    let simplified_conjuncts = ctx.conjuncts(simplified).len();
    let simplified_size = ctx.term_size(simplified);
    let simplified_text = render_relevant(ctx, simplified, &hole_vars);
    if span.is_recording() {
        span.attr("nodes_before", seed.size);
        span.attr("nodes_after", simplified_size);
        span.attr("conjuncts_after", simplified_conjuncts);
        span.attr("rule_firings", simplifier.stats.total());
        span.attr("fixpoint_iterations", simplifier.stats.iterations);
        span.attr("memo_hit_rate", simplifier.stats.memo_hit_rate());
        span.attr("verdict", verdicts.simplify.as_str());
        for (name, fired) in simplifier.stats.per_rule() {
            if fired > 0 {
                netexpl_obs::counter_add(&format!("simplify.rule.{name}"), fired);
            }
        }
    }
    drop(span);

    // (4) Lift into the specification language.
    let span = Span::enter("lift");
    let (subspec, lift_complete, lift_checked, provenance) = if options.skip_lift {
        span.attr("skipped", true);
        (SubSpec::empty(topo.name(router)), false, 0, Vec::new())
    } else {
        // The pipeline budget governs the lift unless the caller bounded
        // the lift separately.
        let mut lift_opts = options.lift.clone();
        if lift_opts.budget.is_unlimited() {
            lift_opts.budget = options.budget.clone();
        }
        let LiftResult {
            subspec,
            complete,
            candidates_checked,
            provenance,
            interrupt,
            ..
        } = lift(ctx, topo, spec, &seed, router, lift_opts);
        if let Some(i) = interrupt {
            // An interrupted lift kept only verified-necessary entries; an
            // empty result means the reader should fall back to the raw
            // simplified constraints above.
            verdicts.lift = if subspec.is_empty() {
                Verdict::Exhausted
            } else {
                Verdict::BestEffort
            };
            verdicts.interrupts.push(i);
        }
        span.attr("candidates_checked", candidates_checked);
        span.attr("kept", subspec.requirements.len());
        span.attr("complete", complete);
        span.attr("verdict", verdicts.lift.as_str());
        (subspec, complete, candidates_checked, provenance)
    };
    drop(span);

    Ok(Explanation {
        router: topo.name(router).to_string(),
        symbolized: table
            .symbols
            .iter()
            .map(|s| s.description.clone())
            .collect(),
        seed_conjuncts: seed.num_conjuncts,
        seed_size: seed.size,
        simplified,
        simplified_conjuncts,
        simplified_size,
        simplified_text,
        rule_stats: simplifier.stats,
        subspec,
        lift_complete,
        lift_candidates_checked: lift_checked,
        provenance,
        verdicts,
        cache_hits: seed.encoded.cache_hits,
        cache_misses: seed.encoded.cache_misses,
    })
}

/// The set of symbolized (hole) variables.
fn hole_var_set(
    ctx: &Ctx,
    table: &SymbolTable,
) -> std::collections::HashSet<netexpl_logic::term::VarId> {
    table
        .terms()
        .iter()
        .filter_map(|&t| match ctx.node(t) {
            TermNode::BoolVar(v) | TermNode::EnumVar(v) | TermNode::IntVar(v) => Some(*v),
            _ => None,
        })
        .collect()
}

/// Render the simplified conjuncts that mention at least one symbolized
/// variable — the constraints "on this router" (definition conjuncts about
/// frozen parts of the network are noise for the reader).
fn render_relevant(
    ctx: &Ctx,
    simplified: TermId,
    hole_vars: &std::collections::HashSet<netexpl_logic::term::VarId>,
) -> Vec<String> {
    ctx.conjuncts(simplified)
        .into_iter()
        .filter(|&c| ctx.free_vars(c).iter().any(|v| hole_vars.contains(v)))
        .map(|c| format!("{}", ctx.display(c)))
        .collect()
}

/// Sound existential projection of *dangling definition variables*.
///
/// An auxiliary (non-hole) variable `v` whose every occurrence is inside a
/// guarded definition — a conjunct of the shape `v = t`, `g → v = t` or
/// `¬g ∨ v = t` with `v` absent from `g` and `t` — can always be solved for
/// `v` provided at most one guard can be active at a time (guards pairwise
/// contain complementary literals, which the route-map fold's
/// first-match-wins structure guarantees). All of `v`'s defining conjuncts
/// are then dropped; iterating to a fixpoint removes chains of dead
/// definitions. This is exactly the projection that turns the paper's
/// "low-level encoding variables" into constraints over the symbolized
/// variables only.
fn eliminate_dangling_defs(
    ctx: &mut Ctx,
    simplified: TermId,
    hole_vars: &std::collections::HashSet<netexpl_logic::term::VarId>,
) -> Vec<TermId> {
    use std::collections::{HashMap, HashSet};
    let mut conjuncts = ctx.conjuncts(simplified);
    loop {
        let mut by_var: HashMap<netexpl_logic::term::VarId, Vec<usize>> = HashMap::new();
        for (i, &c) in conjuncts.iter().enumerate() {
            for v in ctx.free_vars(c) {
                if !hole_vars.contains(&v) {
                    by_var.entry(v).or_default().push(i);
                }
            }
        }
        let mut to_drop: HashSet<usize> = HashSet::new();
        'vars: for (&v, idxs) in &by_var {
            let mut guards: Vec<Vec<TermId>> = Vec::with_capacity(idxs.len());
            for &i in idxs {
                let c = conjuncts[i];
                match definition_guard(ctx, c, v) {
                    Some(g) => guards.push(g),
                    None => continue 'vars, // v used non-definitionally
                }
            }
            // Pairwise exclusivity: each pair of guards shares a
            // complementary literal (or one pair member is identical — then
            // the definitions must be reconciled, so keep them).
            for a in 0..guards.len() {
                for b in (a + 1)..guards.len() {
                    let exclusive = guards[a]
                        .iter()
                        .any(|&l| guards[b].iter().any(|&m| complements(ctx, l, m)));
                    if !exclusive {
                        continue 'vars;
                    }
                }
            }
            to_drop.extend(idxs.iter().copied());
        }
        if to_drop.is_empty() {
            return conjuncts;
        }
        conjuncts = conjuncts
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !to_drop.contains(i))
            .map(|(_, c)| c)
            .collect();
    }
}

/// Are `a` and `b` complementary literals (`t` vs `¬t`)?
fn complements(ctx: &Ctx, a: TermId, b: TermId) -> bool {
    matches!(ctx.node(a), TermNode::Not(inner) if *inner == b)
        || matches!(ctx.node(b), TermNode::Not(inner) if *inner == a)
}

/// If the conjunct is a guarded definition of `v` — `v = t`, `g → (v = t)`
/// or `¬g₁ ∨ … ∨ (v = t)` with `v` absent from the guard and `t` — return
/// the guard's literal list (empty for an unconditional definition).
fn definition_guard(
    ctx: &mut Ctx,
    c: TermId,
    v: netexpl_logic::term::VarId,
) -> Option<Vec<TermId>> {
    match ctx.node(c).clone() {
        TermNode::Implies(g, body) if is_solvable_body(ctx, body, v) => {
            if ctx.free_vars(g).contains(&v) {
                return None;
            }
            Some(ctx.conjuncts(g))
        }
        TermNode::Or(ds) => {
            // ¬g ∨ (v = t): exactly one disjunct defines v; the guard is the
            // conjunction of the other disjuncts' negations.
            let flags: Vec<bool> = ds.iter().map(|&d| is_def_eq(ctx, d, v)).collect();
            if flags.iter().filter(|&&f| f).count() != 1 {
                return None;
            }
            let mut guard = Vec::new();
            for (&d, &is_def) in ds.iter().zip(&flags) {
                if is_def {
                    continue;
                }
                if ctx.free_vars(d).contains(&v) {
                    return None;
                }
                // The guard literal is ¬d (the definition activates when
                // every other disjunct is false).
                let lit = if let TermNode::Not(inner) = ctx.node(d) {
                    *inner
                } else {
                    ctx.not(d)
                };
                guard.push(lit);
            }
            Some(guard)
        }
        _ if is_def_eq(ctx, c, v) => Some(Vec::new()),
        _ => None,
    }
}

/// Is `body` solvable for `v` whatever the other variables are? Either a
/// plain definition (`v = t`), or a conjunction of guarded definitions
/// `⋀ (gᵢ → v = tᵢ)` whose inner guards are pairwise exclusive (they share
/// complementary literals) — the shape the encoder's generic-set lowering
/// produces (`(attr = NextHop → v = param) ∧ (¬attr = NextHop → v = old)`).
fn is_solvable_body(ctx: &Ctx, body: TermId, v: netexpl_logic::term::VarId) -> bool {
    if is_def_eq(ctx, body, v) {
        return true;
    }
    let TermNode::And(parts) = ctx.node(body) else {
        return false;
    };
    let mut guards: Vec<Vec<TermId>> = Vec::new();
    for &part in parts.iter() {
        let TermNode::Implies(g, inner) = ctx.node(part) else {
            return false;
        };
        if !is_def_eq(ctx, *inner, v) || ctx.free_vars(*g).contains(&v) {
            return false;
        }
        guards.push(ctx.conjuncts(*g));
    }
    for a in 0..guards.len() {
        for b in (a + 1)..guards.len() {
            let exclusive = guards[a]
                .iter()
                .any(|&l| guards[b].iter().any(|&m| complements(ctx, l, m)));
            if !exclusive {
                return false;
            }
        }
    }
    true
}

/// Is `eq` a definition body for `v`: `v = t` (with `v` not in `t`), the
/// bare boolean variable, or its negation?
fn is_def_eq(ctx: &Ctx, eq: TermId, v: netexpl_logic::term::VarId) -> bool {
    match ctx.node(eq) {
        TermNode::Eq(a, b) => {
            let var_side = |t: TermId| matches!(ctx.node(t), TermNode::EnumVar(x) | TermNode::IntVar(x) if *x == v);
            (var_side(*a) && !ctx.free_vars(*b).contains(&v))
                || (var_side(*b) && !ctx.free_vars(*a).contains(&v))
        }
        TermNode::BoolVar(x) => *x == v,
        TermNode::Not(inner) => matches!(ctx.node(*inner), TermNode::BoolVar(x) if *x == v),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolize::Dir;
    use netexpl_bgp::{Action, RouteMap, RouteMapEntry};
    use netexpl_topology::builders::paper_topology;
    use netexpl_topology::Prefix;

    fn scenario1_synthesized() -> (
        netexpl_topology::Topology,
        netexpl_topology::builders::PaperTopology,
        NetworkConfig,
        Specification,
    ) {
        let (topo, h) = paper_topology();
        let d1: Prefix = "200.7.0.0/16".parse().unwrap();
        let d2: Prefix = "201.0.0.0/16".parse().unwrap();
        let mut net = NetworkConfig::new();
        net.originate(h.p1, d1);
        net.originate(h.p2, d2);
        let deny_all = |name: &str| {
            RouteMap::new(
                name,
                vec![RouteMapEntry {
                    seq: 100,
                    action: Action::Deny,
                    matches: vec![],
                    sets: vec![],
                }],
            )
        };
        net.router_mut(h.r1).set_export(h.p1, deny_all("R1_to_P1"));
        net.router_mut(h.r2).set_export(h.p2, deny_all("R2_to_P2"));
        let spec = netexpl_spec::parse("Req1 { !(P1 -> ... -> P2) !(P2 -> ... -> P1) }").unwrap();
        (topo, h, net, spec)
    }

    #[test]
    fn explain_r1_reproduces_figure_2() {
        let (topo, h, net, spec) = scenario1_synthesized();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let expl = explain(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            h.r1,
            &Selector::Session {
                neighbor: h.p1,
                dir: Dir::Export,
            },
            ExplainOptions::default(),
        )
        .unwrap();
        // Figure 2: R1 { !(R1 -> P1) }.
        assert_eq!(
            expl.subspec.to_string(),
            "R1 {\n  !(R1 -> P1)\n}",
            "\n{expl}"
        );
        assert!(expl.lift_complete, "the subspec is exact for this seed");
        assert!(expl.verdicts.all_verified(), "unbudgeted runs are exact");
        // Simplification collapsed the seed substantially.
        assert!(expl.simplified_size < expl.seed_size / 4, "\n{expl}");
    }

    #[test]
    fn tight_budget_degrades_to_partial_explanation() {
        use netexpl_logic::budget::Budget;
        let (topo, h, net, spec) = scenario1_synthesized();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let expl = explain(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            h.r1,
            &Selector::Session {
                neighbor: h.p1,
                dir: Dir::Export,
            },
            ExplainOptions {
                budget: Budget::unlimited().deadline_in(std::time::Duration::ZERO),
                ..Default::default()
            },
        )
        .expect("budget exhaustion must degrade, not fail");
        assert!(!expl.verdicts.all_verified(), "\n{expl}");
        assert!(!expl.verdicts.interrupts.is_empty());
        assert_eq!(expl.verdicts.simplify, Verdict::Exhausted);
        assert_eq!(expl.verdicts.lift, Verdict::Exhausted);
        // The raw (unsimplified) seed artifact is still delivered.
        assert!(expl.seed_conjuncts > 0);
        assert!(!expl.lift_complete);
        let shown = expl.to_string();
        assert!(shown.contains("PARTIAL RESULT"), "{shown}");
        assert!(shown.contains("deadline"), "{shown}");
    }

    #[test]
    fn generous_budget_stays_verified() {
        use netexpl_logic::budget::Budget;
        let (topo, h, net, spec) = scenario1_synthesized();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let expl = explain(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            h.r1,
            &Selector::Session {
                neighbor: h.p1,
                dir: Dir::Export,
            },
            ExplainOptions {
                budget: Budget::unlimited()
                    .deadline_in(std::time::Duration::from_secs(600))
                    .max_conflicts(10_000_000),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(expl.verdicts.all_verified(), "\n{expl}");
        assert_eq!(expl.subspec.to_string(), "R1 {\n  !(R1 -> P1)\n}");
    }

    #[test]
    fn explain_emits_one_span_per_pipeline_stage() {
        let (topo, h, net, spec) = scenario1_synthesized();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let (guard, handle) = netexpl_obs::install_memory();
        let expl = explain(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            h.r1,
            &Selector::Session {
                neighbor: h.p1,
                dir: Dir::Export,
            },
            ExplainOptions::default(),
        )
        .unwrap();
        drop(guard);
        for stage in ["explain", "symbolize", "seed", "simplify", "lift"] {
            assert_eq!(
                handle.spans_named(stage).len(),
                1,
                "exactly one {stage} span"
            );
        }
        // The stage spans nest under the pipeline root.
        let root = handle.span_named("explain").unwrap();
        for stage in ["symbolize", "seed", "simplify", "lift"] {
            assert_eq!(handle.span_named(stage).unwrap().parent, Some(root.id));
        }
        // Stage attrs mirror the explanation artifact.
        let simplify = handle.span_named("simplify").unwrap();
        assert_eq!(
            simplify.attr("rule_firings"),
            Some(&netexpl_obs::AttrValue::UInt(expl.rule_stats.total()))
        );
        let seed = handle.span_named("seed").unwrap();
        assert_eq!(
            seed.attr("conjuncts"),
            Some(&netexpl_obs::AttrValue::UInt(expl.seed_conjuncts as u64))
        );
        // Per-rule counters and solver counters landed in the registry.
        let metrics = handle.metrics().unwrap();
        let per_rule: u64 = expl
            .rule_stats
            .per_rule()
            .map(|(name, _)| metrics.counter(&format!("simplify.rule.{name}")))
            .sum();
        assert_eq!(per_rule, expl.rule_stats.total());
        // Session-backed lift counts its queries under `session.queries`;
        // the fresh-solver fallback (NETEXPL_FRESH_SOLVER=1) under
        // `smt.queries`. Either way the lift must have hit the solver.
        assert!(
            metrics.counter("session.queries") + metrics.counter("smt.queries") > 0,
            "lift ran SAT queries"
        );
        assert!(metrics.counter("lift.templates_enumerated") > 0);
    }

    #[test]
    fn verify_simplify_confirms_equivalence() {
        let (topo, h, net, spec) = scenario1_synthesized();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let (guard, handle) = netexpl_obs::install_memory();
        let expl = explain(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            h.r1,
            &Selector::Session {
                neighbor: h.p1,
                dir: Dir::Export,
            },
            ExplainOptions {
                verify_simplify: true,
                ..Default::default()
            },
        )
        .unwrap();
        drop(guard);
        assert!(expl.verdicts.all_verified(), "\n{expl}");
        let vspan = handle.span_named("simplify.verify").expect("verify span");
        assert_eq!(
            vspan.attr("equivalent"),
            Some(&netexpl_obs::AttrValue::Bool(true))
        );
    }

    #[test]
    fn explain_irrelevant_router_is_empty() {
        // Scenario 3: R3 can do anything w.r.t. the no-transit requirement.
        let (topo, h, mut net, spec) = scenario1_synthesized();
        net.router_mut(h.r3).set_export(
            h.customer,
            RouteMap::new(
                "R3_to_C",
                vec![RouteMapEntry {
                    seq: 10,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![],
                }],
            ),
        );
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let expl = explain(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            h.r3,
            &Selector::Router,
            ExplainOptions::default(),
        )
        .unwrap();
        assert!(expl.subspec.is_empty(), "\n{expl}");
        assert!(expl.lift_complete);
        assert!(expl.simplified_text.is_empty(), "\n{expl}");
    }

    #[test]
    fn nothing_symbolized_is_an_error() {
        let (topo, h, net, spec) = scenario1_synthesized();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let err = explain(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            h.r3, // unconfigured
            &Selector::Router,
            ExplainOptions::default(),
        );
        assert!(matches!(err, Err(ExplainError::NothingSymbolized)));
    }

    #[test]
    fn skip_lift_reports_seed_and_simplification_only() {
        let (topo, h, net, spec) = scenario1_synthesized();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let expl = explain(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            h.r1,
            &Selector::Session {
                neighbor: h.p1,
                dir: Dir::Export,
            },
            ExplainOptions {
                skip_lift: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(expl.subspec.is_empty());
        assert_eq!(expl.lift_candidates_checked, 0);
        assert!(expl.seed_conjuncts > 0);
        let shown = expl.to_string();
        assert!(shown.contains("seed specification"), "{shown}");
    }

    #[test]
    fn dangling_definition_pairs_are_projected() {
        // Two guarded definitions of one auxiliary variable with mutually
        // exclusive guards must both disappear.
        let mut ctx = Ctx::new();
        let g = ctx.bool_var("hole");
        let aux = ctx.int_var("lp#1", 0, 10);
        let five = ctx.int_const(5);
        let seven = ctx.int_const(7);
        let ng = ctx.not(g);
        let e1 = ctx.eq(aux, five);
        let e2 = ctx.eq(aux, seven);
        let c1 = ctx.implies(g, e1);
        let c2 = ctx.implies(ng, e2);
        let both = ctx.and2(c1, c2);
        let holes: std::collections::HashSet<_> =
            [netexpl_logic::term::VarId(0)].into_iter().collect();
        let out = eliminate_dangling_defs(&mut ctx, both, &holes);
        assert!(out.is_empty(), "{out:?}");
        // With overlapping guards (both can fire), nothing is dropped.
        let c3 = ctx.implies(g, e2);
        let conflict = ctx.and2(c1, c3);
        let out2 = eliminate_dangling_defs(&mut ctx, conflict, &holes);
        assert_eq!(out2.len(), 2, "conflicting definitions must stay");
    }

    #[test]
    fn used_definitions_are_kept() {
        // An auxiliary variable also used non-definitionally must keep its
        // definitions.
        let mut ctx = Ctx::new();
        let _hole = ctx.bool_var("hole");
        let aux = ctx.int_var("lp#1", 0, 10);
        let five = ctx.int_const(5);
        let three = ctx.int_const(3);
        let def = ctx.eq(aux, five);
        let use_ = ctx.gt(aux, three);
        let both = ctx.and2(def, use_);
        let holes: std::collections::HashSet<_> =
            [netexpl_logic::term::VarId(0)].into_iter().collect();
        let out = eliminate_dangling_defs(&mut ctx, both, &holes);
        assert_eq!(out.len(), 2);
    }
}
