//! The synthesis driver: sketch → constraints → model → concrete config,
//! validated end-to-end against the concrete simulator.

use netexpl_bgp::{Action, NetworkConfig};
use netexpl_logic::budget::{Budget, Interrupt};
use netexpl_logic::term::{Ctx, TermId};
use netexpl_logic::{SmtResult, SmtSession};
use netexpl_obs::Span;
use netexpl_spec::{check_specification, Specification, Violation};
use netexpl_topology::{RouterKind, Topology};

use crate::encode::{EncodeError, EncodeOptions, Encoder};
use crate::sketch::{Hole, HoleFactory, SymEntry, SymNetworkConfig, SymRouteMap, SymSet};
use crate::vocab::Vocabulary;

/// Options for a synthesis run.
#[derive(Debug, Clone, Default)]
pub struct SynthOptions {
    /// Encoding options.
    pub encode: EncodeOptions,
    /// Resource bounds for the constraint solve. Unlimited by default;
    /// exhaustion surfaces as [`SynthError::Interrupted`], never as a
    /// spurious `Unsat`.
    pub budget: Budget,
}

/// Synthesis failure.
#[derive(Debug)]
pub enum SynthError {
    /// The requirements could not be encoded.
    Encode(EncodeError),
    /// No configuration in the sketch space satisfies the requirements.
    Unsat,
    /// The solver produced a configuration the concrete checker rejects —
    /// an encoder/simulator divergence, i.e. a bug worth surfacing loudly.
    ValidationFailed(Vec<Violation>),
    /// The resource budget ran out before the solver reached a verdict.
    /// Distinct from [`SynthError::Unsat`]: the spec may well be
    /// satisfiable with a larger budget.
    Interrupted(Interrupt),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::Encode(e) => write!(f, "encoding failed: {e}"),
            SynthError::Unsat => write!(
                f,
                "no configuration in the sketch space satisfies the specification"
            ),
            SynthError::ValidationFailed(vs) => {
                write!(f, "synthesized configuration failed validation: {vs:?}")
            }
            SynthError::Interrupted(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for SynthError {}

impl From<EncodeError> for SynthError {
    fn from(e: EncodeError) -> Self {
        SynthError::Encode(e)
    }
}

/// Statistics of a synthesis run, reported by the benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthStats {
    /// Number of constraint conjuncts generated by the encoder.
    pub num_constraints: usize,
    /// Total AST size of the constraints.
    pub constraint_size: usize,
    /// Number of symbolic hole variables in the sketch.
    pub num_holes: usize,
    /// Candidate propagation paths enumerated.
    pub num_paths: usize,
}

/// A successful synthesis.
#[derive(Debug)]
pub struct SynthResult {
    /// The concrete configuration.
    pub config: NetworkConfig,
    /// Run statistics.
    pub stats: SynthStats,
}

/// Synthesize a concrete configuration from a sketch.
///
/// `ctx` must be the context in which the sketch's holes were created, and
/// `vocab`'s sorts must already be materialized in it (pass the same
/// [`crate::vocab::VocabSorts`]). It keeps what the encoder adds and comes
/// back frozen; the solve bit-blasts in a scratch fork that is dropped.
pub fn synthesize(
    ctx: &mut Ctx,
    topo: &Topology,
    vocab: &Vocabulary,
    sorts: crate::vocab::VocabSorts,
    sketch: &SymNetworkConfig,
    spec: &Specification,
    options: SynthOptions,
) -> Result<SynthResult, SynthError> {
    let span = Span::enter("synthesize");
    let encoded = {
        let encode_span = Span::enter("encode");
        let mut encoder = Encoder::new(topo, vocab, sorts, options.encode);
        let encoded = encoder.encode(ctx, sketch, spec)?;
        encode_span.attr("constraints", encoded.defs.len() + encoded.reqs.len());
        encode_span.attr("paths", encoded.paths.values().map(Vec::len).sum::<usize>());
        encoded
    };

    let stats = SynthStats {
        num_constraints: encoded.defs.len() + encoded.reqs.len(),
        constraint_size: encoded.constraints().map(|c| ctx.term_size(c)).sum(),
        num_holes: sketch.symbolic_terms().len(),
        num_paths: encoded.paths.values().map(Vec::len).sum(),
    };
    if span.is_recording() {
        span.attr("constraints", stats.num_constraints);
        span.attr("constraint_size", stats.constraint_size);
        span.attr("holes", stats.num_holes);
        span.attr("paths", stats.num_paths);
    }

    let mut scratch = scratch_fork(ctx);
    let model = {
        let _solve_span = Span::enter("solve");
        // One check: a fresh session asserts every constraint in one
        // `session.assert` span and answers one `session.query` attributed
        // to synthesis.
        let mut session = SmtSession::new();
        session.set_budget(options.budget.clone());
        session.set_origin("synthesize");
        let constraints: Vec<TermId> = encoded.constraints().collect();
        session.assert(&mut scratch, &constraints);
        // Unknown must not be misread as Unsat: an interrupted search says
        // nothing about satisfiability.
        match session.check(&mut scratch) {
            SmtResult::Sat(m) => m,
            SmtResult::Unsat => return Err(SynthError::Unsat),
            SmtResult::Unknown(i) => return Err(SynthError::Interrupted(i)),
        }
    };
    let config = sketch.concretize(&scratch, vocab, &sorts, &model);
    drop(scratch);

    let violations = check_specification(topo, &config, spec);
    if !violations.is_empty() {
        return Err(SynthError::ValidationFailed(violations));
    }
    Ok(SynthResult { config, stats })
}

/// Synthesize up to `limit` *distinct* configurations from the sketch —
/// each differs from the others in at least one hole value. Lets an
/// operator compare alternative completions of the same sketch (and shows
/// how under-constrained a specification is: scenario 1's "block
/// everything" is only one of the solutions).
#[allow(clippy::too_many_arguments)]
pub fn synthesize_diverse(
    ctx: &mut Ctx,
    topo: &Topology,
    vocab: &Vocabulary,
    sorts: crate::vocab::VocabSorts,
    sketch: &SymNetworkConfig,
    spec: &Specification,
    options: SynthOptions,
    limit: usize,
) -> Result<Vec<NetworkConfig>, SynthError> {
    let mut encoder = Encoder::new(topo, vocab, sorts, options.encode);
    let encoded = encoder.encode(ctx, sketch, spec)?;
    let holes = sketch.symbolic_terms();
    let mut scratch = scratch_fork(ctx);
    // Model enumeration is a query stream over one constraint set: encode the
    // constraints once into a session so every blocking-clause round reuses
    // the CNF and the learned clauses from the previous rounds.
    let mut session = SmtSession::new();
    session.set_budget(options.budget.clone());
    let constraints: Vec<TermId> = encoded.constraints().collect();
    session.assert(&mut scratch, &constraints);
    let (models, interrupt) = session.check_all(&mut scratch, &holes, limit);
    if models.is_empty() {
        // With zero models an interrupt means "don't know", not "unsat".
        return Err(match interrupt {
            Some(i) => SynthError::Interrupted(i),
            None => SynthError::Unsat,
        });
    }
    let mut configs = Vec::with_capacity(models.len());
    for model in &models {
        let config = sketch.concretize(&scratch, vocab, &sorts, model);
        let violations = check_specification(topo, &config, spec);
        if !violations.is_empty() {
            return Err(SynthError::ValidationFailed(violations));
        }
        configs.push(config);
    }
    Ok(configs)
}

/// The context a solve bit-blasts and decodes in: an O(1) fork of `ctx`,
/// frozen first. It mints the ids `ctx` would, so the CNF and the models
/// are the same, and the lowered gates and encoding booleans it adds die
/// with it: `ctx` keeps the sketch and the encoding only.
fn scratch_fork(ctx: &mut Ctx) -> Ctx {
    ctx.freeze();
    ctx.clone()
}

/// Build the default sketch — the NetComplete-style "autocompletion"
/// template the paper's scenarios assume:
///
/// * every internal router's **export to an external neighbor** gets a
///   two-entry map: a symbolic entry (`match Var_Attr Var_Val`,
///   `Var_Action`, `set Var_Attr Var_Param` — the shape of the paper's
///   Figure 6b) followed by a symbolic catch-all action;
/// * every **import from an external neighbor** gets a permit entry with a
///   symbolic local preference and a generic symbolic set (community
///   tagging or nothing);
/// * every **internal-session import** gets a permit entry with a symbolic
///   local preference;
/// * every **internal-session export** gets a symbolic catch-all action
///   (so strict-mode preferences can block detours).
pub fn default_sketch(
    ctx: &mut Ctx,
    topo: &Topology,
    factory: &HoleFactory<'_>,
    base: &NetworkConfig,
) -> SymNetworkConfig {
    let mut sym = SymNetworkConfig::from_concrete(base);
    for r in topo.internal_routers().collect::<Vec<_>>() {
        let rname = topo.name(r).to_string();
        for &n in topo.neighbors(r) {
            let nname = topo.name(n).to_string();
            let external = topo.router(n).kind == RouterKind::External;
            let rc = sym.router_mut(r);
            if external {
                rc.export.entry(n).or_insert_with(|| {
                    let tag = format!("{rname}_to_{nname}");
                    let e1 = SymEntry {
                        seq: 1,
                        action: factory.action(ctx, &format!("{tag}!e1!Var_Action")),
                        matches: vec![factory.generic_match(ctx, &format!("{tag}!e1"))],
                        sets: vec![factory.generic_set(ctx, &format!("{tag}!e1"))],
                    };
                    let e2 = SymEntry {
                        seq: 100,
                        action: factory.action(ctx, &format!("{tag}!e100!Var_Action")),
                        matches: vec![],
                        sets: vec![],
                    };
                    SymRouteMap {
                        name: tag,
                        entries: vec![e1, e2],
                    }
                });
                rc.import.entry(n).or_insert_with(|| {
                    let tag = format!("{rname}_from_{nname}");
                    let e1 = SymEntry {
                        seq: 10,
                        action: Hole::Concrete(Action::Permit),
                        matches: vec![],
                        sets: vec![
                            SymSet::LocalPref(factory.local_pref(ctx, &format!("{tag}!lp"))),
                            factory.generic_set(ctx, &format!("{tag}!e10")),
                        ],
                    };
                    SymRouteMap {
                        name: tag,
                        entries: vec![e1],
                    }
                });
            } else {
                rc.import.entry(n).or_insert_with(|| {
                    let tag = format!("{rname}_from_{nname}");
                    let e1 = SymEntry {
                        seq: 10,
                        action: Hole::Concrete(Action::Permit),
                        matches: vec![],
                        sets: vec![SymSet::LocalPref(
                            factory.local_pref(ctx, &format!("{tag}!lp")),
                        )],
                    };
                    SymRouteMap {
                        name: tag,
                        entries: vec![e1],
                    }
                });
                rc.export.entry(n).or_insert_with(|| {
                    let tag = format!("{rname}_to_{nname}");
                    let e1 = SymEntry {
                        seq: 10,
                        action: factory.action(ctx, &format!("{tag}!e10!Var_Action")),
                        matches: vec![],
                        sets: vec![],
                    };
                    SymRouteMap {
                        name: tag,
                        entries: vec![e1],
                    }
                });
            }
        }
    }
    sym
}

#[cfg(test)]
mod tests {
    use super::*;
    use netexpl_bgp::Community;
    use netexpl_spec::parse;
    use netexpl_topology::builders::paper_topology;
    use netexpl_topology::Prefix;

    fn d1() -> Prefix {
        "200.7.0.0/16".parse().unwrap()
    }

    fn scenario1_spec() -> Specification {
        parse(
            "dest D1 = 200.7.0.0/16\n\
             dest D2 = 201.0.0.0/16\n\
             Req1 {\n\
               !(P1 -> ... -> P2)\n\
               !(P2 -> ... -> P1)\n\
               Customer ~> D1\n\
               Customer ~> D2\n\
             }",
        )
        .unwrap()
    }

    fn setup(
        originations: &[(netexpl_topology::RouterId, Prefix)],
    ) -> (
        netexpl_topology::Topology,
        netexpl_topology::builders::PaperTopology,
        Vocabulary,
    ) {
        let (topo, h) = paper_topology();
        let prefixes: Vec<Prefix> = originations.iter().map(|&(_, p)| p).collect();
        let vocab = Vocabulary::new(
            &topo,
            vec![Community(100, 1), Community(100, 2)],
            vec![50, 100, 200],
            prefixes,
        );
        (topo, h, vocab)
    }

    #[test]
    fn synthesize_scenario1_no_transit() {
        let d2: Prefix = "201.0.0.0/16".parse().unwrap();
        let (topo, h, vocab) = setup(&[(netexpl_topology::RouterId(0), d1())]);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let mut base = NetworkConfig::new();
        base.originate(h.p1, d1());
        base.originate(h.p2, d2);
        let sketch = default_sketch(&mut ctx, &topo, &factory, &base);
        let spec = scenario1_spec();
        let result = synthesize(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sketch,
            &spec,
            SynthOptions::default(),
        )
        .expect("scenario 1 must synthesize");
        assert!(result.stats.num_holes > 0);
        assert!(result.stats.num_constraints > 0);
        // Validation already ran inside synthesize(); double-check transit
        // blocking materialized as deny actions toward a provider.
        let r1_export = result.config.router(h.r1).unwrap().export(h.p1).unwrap();
        assert!(
            r1_export.entries.iter().any(|e| e.action == Action::Deny),
            "{}",
            r1_export.render(&topo)
        );
    }

    /// The main solve is one session check: under `solve`, exactly one
    /// `session.assert` (every constraint) and one `session.query`
    /// attributed to `synthesize`, both sized by the clauses the solver
    /// holds.
    #[test]
    fn synthesis_solve_is_one_assert_and_one_query() {
        use netexpl_obs::AttrValue;
        let d2: Prefix = "201.0.0.0/16".parse().unwrap();
        let (topo, h, vocab) = setup(&[(netexpl_topology::RouterId(0), d1())]);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let mut base = NetworkConfig::new();
        base.originate(h.p1, d1());
        base.originate(h.p2, d2);
        let sketch = default_sketch(&mut ctx, &topo, &factory, &base);
        let (guard, handle) = netexpl_obs::install_memory();
        synthesize(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sketch,
            &scenario1_spec(),
            SynthOptions::default(),
        )
        .expect("scenario 1 must synthesize");
        drop(guard);
        let solve = handle.spans_named("solve");
        assert_eq!(solve.len(), 1);
        let asserts = handle.spans_named("session.assert");
        let queries = handle.spans_named("session.query");
        assert_eq!(asserts.len(), 1, "one assert span per solve");
        assert_eq!(queries.len(), 1, "one query span per solve");
        assert_eq!(asserts[0].parent, Some(solve[0].id));
        assert_eq!(queries[0].parent, Some(solve[0].id));
        assert_eq!(
            queries[0].attr("origin"),
            Some(&AttrValue::Str("synthesize".to_string()))
        );
        let clauses = asserts[0].attr("cnf_clauses");
        assert!(matches!(clauses, Some(AttrValue::UInt(n)) if *n > 0));
        assert_eq!(queries[0].attr("cnf_clauses"), clauses);
    }

    #[test]
    fn synthesize_scenario2_preference() {
        let (topo, h, vocab) = setup(&[]);
        let vocab = {
            let _ = vocab;
            Vocabulary::new(
                &topo,
                vec![Community(100, 2)],
                vec![50, 100, 200],
                vec![d1()],
            )
        };
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let mut base = NetworkConfig::new();
        base.originate(h.p1, d1());
        base.originate(h.p2, d1());
        let sketch = default_sketch(&mut ctx, &topo, &factory, &base);
        let spec = parse(
            "mode fallback\n\
             dest D1 = 200.7.0.0/16\n\
             Req2 {\n\
               (Customer -> R3 -> R1 -> P1 -> ... -> D1)\n\
               >> (Customer -> R3 -> R2 -> P2 -> ... -> D1)\n\
               Customer ~> D1\n\
             }",
        )
        .unwrap();
        let result = synthesize(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sketch,
            &spec,
            SynthOptions::default(),
        )
        .expect("scenario 2 (fallback) must synthesize");
        assert!(result.stats.num_paths > 0);
    }

    #[test]
    fn synthesize_scenario2_strict() {
        let (topo, h, _) = setup(&[]);
        let vocab = Vocabulary::new(
            &topo,
            vec![Community(100, 2)],
            vec![50, 100, 200],
            vec![d1()],
        );
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let mut base = NetworkConfig::new();
        base.originate(h.p1, d1());
        base.originate(h.p2, d1());
        let sketch = default_sketch(&mut ctx, &topo, &factory, &base);
        let spec = parse(
            "mode strict\n\
             dest D1 = 200.7.0.0/16\n\
             Req2 {\n\
               (Customer -> R3 -> R1 -> P1 -> ... -> D1)\n\
               >> (Customer -> R3 -> R2 -> P2 -> ... -> D1)\n\
             }",
        )
        .unwrap();
        let result = synthesize(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sketch,
            &spec,
            SynthOptions::default(),
        )
        .expect("scenario 2 (strict) must synthesize");
        let _ = result;
    }

    #[test]
    fn diverse_synthesis_yields_distinct_valid_configs() {
        // Scenario 1 is under-constrained: several distinct configurations
        // satisfy no-transit. All returned alternatives must validate.
        let d2: Prefix = "201.0.0.0/16".parse().unwrap();
        let (topo, h, _) = setup(&[]);
        let vocab = Vocabulary::new(&topo, vec![Community(100, 2)], vec![100], vec![d1(), d2]);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let mut base = NetworkConfig::new();
        base.originate(h.p1, d1());
        base.originate(h.p2, d2);
        let sketch = default_sketch(&mut ctx, &topo, &factory, &base);
        let spec = parse("Req1 { !(P1 -> ... -> P2) !(P2 -> ... -> P1) }").unwrap();
        let configs = synthesize_diverse(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sketch,
            &spec,
            SynthOptions::default(),
            3,
        )
        .expect("under-constrained spec has many solutions");
        assert!(
            configs.len() >= 2,
            "expected multiple alternatives, got {}",
            configs.len()
        );
        for (i, a) in configs.iter().enumerate() {
            for b in &configs[i + 1..] {
                assert_ne!(a, b, "alternatives must differ");
            }
        }
    }

    #[test]
    fn unsatisfiable_spec_reports_unsat() {
        // Forbid the only path to the customer *and* require reachability.
        let (topo, h, _) = setup(&[]);
        let vocab = Vocabulary::new(&topo, vec![], vec![100], vec![d1()]);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let mut base = NetworkConfig::new();
        base.originate(h.p1, d1());
        let sketch = default_sketch(&mut ctx, &topo, &factory, &base);
        let spec = parse(
            "dest D1 = 200.7.0.0/16\n\
             Req {\n\
               !(Customer -> ... -> D1)\n\
               Customer ~> D1\n\
             }",
        )
        .unwrap();
        match synthesize(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sketch,
            &spec,
            SynthOptions::default(),
        ) {
            Err(SynthError::Unsat) => {}
            other => panic!("expected Unsat, got {other:?}"),
        }
    }

    #[test]
    fn tight_budget_reports_interrupted_not_unsat() {
        // Same satisfiable problem as scenario 1, but with a conflict cap
        // far below what the solve needs: must be Interrupted, never Unsat.
        let d2: Prefix = "201.0.0.0/16".parse().unwrap();
        let (topo, h, _) = setup(&[]);
        let vocab = Vocabulary::new(&topo, vec![Community(100, 2)], vec![100], vec![d1(), d2]);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let mut base = NetworkConfig::new();
        base.originate(h.p1, d1());
        base.originate(h.p2, d2);
        let sketch = default_sketch(&mut ctx, &topo, &factory, &base);
        let spec = scenario1_spec();
        let options = SynthOptions {
            budget: netexpl_logic::budget::Budget::unlimited()
                .deadline_in(std::time::Duration::ZERO),
            ..Default::default()
        };
        match synthesize(&mut ctx, &topo, &vocab, sorts, &sketch, &spec, options) {
            Err(SynthError::Interrupted(i)) => {
                assert_eq!(i.reason, netexpl_logic::budget::InterruptReason::Deadline);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    #[test]
    fn combined_scenarios_synthesize_together() {
        // Scenario 3: no-transit + preference + reachability all at once.
        let d2: Prefix = "201.0.0.0/16".parse().unwrap();
        let (topo, h, _) = setup(&[]);
        let vocab = Vocabulary::new(
            &topo,
            vec![Community(100, 1), Community(100, 2)],
            vec![50, 100, 200],
            vec![d1(), d2],
        );
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let mut base = NetworkConfig::new();
        base.originate(h.p1, d1());
        base.originate(h.p2, d1());
        base.originate(h.p2, d2);
        let sketch = default_sketch(&mut ctx, &topo, &factory, &base);
        let spec = parse(
            "mode fallback\n\
             dest D1 = 200.7.0.0/16\n\
             dest D2 = 201.0.0.0/16\n\
             Req1 {\n\
               !(P1 -> ... -> P2)\n\
               !(P2 -> ... -> P1)\n\
             }\n\
             Req2 {\n\
               (Customer -> R3 -> R1 -> P1 -> ... -> D1)\n\
               >> (Customer -> R3 -> R2 -> P2 -> ... -> D1)\n\
             }\n\
             Req3 {\n\
               Customer ~> D1\n\
               Customer ~> D2\n\
             }",
        )
        .unwrap();
        let result = synthesize(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sketch,
            &spec,
            SynthOptions::default(),
        )
        .expect("scenario 3 must synthesize");
        assert!(result.stats.num_constraints > 0);
    }
}
