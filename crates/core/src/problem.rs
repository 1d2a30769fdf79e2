//! Problem loading shared by every front end.
//!
//! A *problem* is the topology-independent half of a run: the parsed
//! specification, the environment (`@originate` directives), and the
//! vocabulary derived from both. This used to live in the CLI's input
//! module; `netexpl serve` receives the same inputs over a socket (the
//! topology by name, the spec as text), so the parsing, vocabulary
//! derivation, and synthesis front half live here where both front ends —
//! and the bench harness — can reach them.

use netexpl_bgp::{Community, NetworkConfig};
use netexpl_logic::budget::Budget;
use netexpl_logic::term::Ctx;
use netexpl_spec::Specification;
use netexpl_synth::sketch::HoleFactory;
use netexpl_synth::synthesize::{default_sketch, synthesize, SynthOptions, SynthResult};
use netexpl_synth::vocab::{VocabSorts, Vocabulary};
use netexpl_topology::{builders, Prefix, Topology};

use crate::error::Error;

/// Build a topology from its stable name (`paper`, `line:N`, `ring:N`,
/// `star:N`) — the vocabulary shared by the CLI's `--topology` flag and
/// the serve protocol's `topology` field.
pub fn topology_by_name(name: &str) -> Result<Topology, Error> {
    if name == "paper" {
        return Ok(builders::paper_topology().0);
    }
    if let Some((kind, n)) = name.split_once(':') {
        let n: usize = n
            .parse()
            .map_err(|_| Error::Topology(format!("bad size in `{name}`")))?;
        return match kind {
            "line" => Ok(builders::line(n)),
            "ring" => Ok(builders::ring(n)),
            "star" => Ok(builders::star(n)),
            other => Err(Error::Topology(format!("unknown topology kind `{other}`"))),
        };
    }
    Err(Error::Topology(format!(
        "unknown topology `{name}` (try paper, line:N, ring:N, star:N)"
    )))
}

/// A loaded problem: topology-independent pieces of a spec source.
pub struct Problem {
    /// The parsed specification.
    pub spec: Specification,
    /// The environment (originations from `@originate` directives).
    pub base: NetworkConfig,
    /// The derived vocabulary.
    pub vocab: Vocabulary,
}

/// Parse a spec source, extracting `// @originate <Router> <prefix>`
/// directives into a base configuration. `origin` names the source in
/// diagnostics (a file path for the CLI, a request tag for the server).
pub fn parse_problem(topo: &Topology, origin: &str, text: &str) -> Result<Problem, Error> {
    let mut base = NetworkConfig::new();
    let mut prefixes: Vec<Prefix> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let Some(rest) = line.trim().strip_prefix("// @originate ") else {
            continue;
        };
        let mut parts = rest.split_whitespace();
        let (Some(router), Some(prefix)) = (parts.next(), parts.next()) else {
            return Err(Error::Usage(format!(
                "{origin}:{}: @originate needs <Router> <prefix>",
                lineno + 1
            )));
        };
        let router_id = topo.router_by_name(router).ok_or_else(|| {
            Error::Topology(format!(
                "{origin}:{}: unknown router `{router}`",
                lineno + 1
            ))
        })?;
        let prefix: Prefix = prefix
            .parse()
            .map_err(|e| Error::Usage(format!("{origin}:{}: {e}", lineno + 1)))?;
        base.originate(router_id, prefix);
        prefixes.push(prefix);
    }
    if base.originations().is_empty() {
        return Err(Error::Usage(format!(
            "{origin}: no `// @originate <Router> <prefix>` directives — nothing is announced"
        )));
    }
    let spec = netexpl_spec::parse(text).map_err(Error::SpecParse)?;
    prefixes.extend(spec.destinations.values().copied());
    let vocab = Vocabulary::new(
        topo,
        vec![Community(100, 1), Community(100, 2)],
        vec![50, 100, 200],
        prefixes,
    );
    Ok(Problem { spec, base, vocab })
}

/// Synthesize a problem's configuration under `budget` — the shared front
/// half of every explain/lint/serve pipeline. `ctx` must already carry the
/// vocabulary's sorts (pass the same `sorts`).
pub fn synthesize_problem(
    topo: &Topology,
    problem: &Problem,
    ctx: &mut Ctx,
    sorts: VocabSorts,
    budget: Budget,
) -> Result<SynthResult, Error> {
    let factory = HoleFactory::new(&problem.vocab, sorts);
    let sketch = default_sketch(ctx, topo, &factory, &problem.base);
    synthesize(
        ctx,
        topo,
        &problem.vocab,
        sorts,
        &sketch,
        &problem.spec,
        SynthOptions {
            budget,
            ..Default::default()
        },
    )
    // `From<SynthError>` classifies: NX202 unsat, NX501 interrupted, ….
    .map_err(Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
// @originate P1 200.7.0.0/16
dest D1 = 200.7.0.0/16
Req1 { !(P1 -> ... -> P2) }
";

    #[test]
    fn topology_names_resolve() {
        assert_eq!(topology_by_name("paper").unwrap().num_routers(), 6);
        assert_eq!(topology_by_name("line:3").unwrap().num_routers(), 5);
        assert!(topology_by_name("mesh:3").is_err());
        assert!(topology_by_name("line:x").is_err());
        assert!(topology_by_name("bogus").is_err());
    }

    #[test]
    fn parse_problem_extracts_originations() {
        let topo = topology_by_name("paper").unwrap();
        let p = parse_problem(&topo, "<test>", SPEC).unwrap();
        assert_eq!(p.base.originations().len(), 1);
        assert_eq!(p.spec.requirements().count(), 1);
    }

    /// Synthesis bit-blasts and solves in a scratch fork: the caller's
    /// context ends with exactly the terms and variables the sketch and
    /// the encoder put there, none of the solve's lowering.
    #[test]
    fn synthesis_leaves_the_context_as_the_encoder_left_it() {
        let ring = "\
// @originate Pa 200.7.0.0/16
// @originate Pb 201.0.0.0/16
dest D1 = 200.7.0.0/16
dest D2 = 201.0.0.0/16
Req1 { !(Pa -> ... -> Pb) !(Pb -> ... -> Pa) }
Req2 { R0 ~> D2 }
";
        for (name, spec) in [("paper", SPEC), ("ring:6", ring)] {
            let topo = topology_by_name(name).unwrap();
            let problem = parse_problem(&topo, name, spec).unwrap();
            let mut ctx = Ctx::new();
            let sorts = problem.vocab.sorts(&mut ctx);
            synthesize_problem(&topo, &problem, &mut ctx, sorts, Budget::unlimited()).unwrap();

            let mut encoded = Ctx::new();
            let sorts = problem.vocab.sorts(&mut encoded);
            let factory = HoleFactory::new(&problem.vocab, sorts);
            let sketch = default_sketch(&mut encoded, &topo, &factory, &problem.base);
            netexpl_synth::Encoder::new(&topo, &problem.vocab, sorts, Default::default())
                .encode(&mut encoded, &sketch, &problem.spec)
                .unwrap();
            assert_eq!(
                (ctx.num_terms(), ctx.num_vars()),
                (encoded.num_terms(), encoded.num_vars()),
                "{name}"
            );
        }
    }

    #[test]
    fn parse_problem_rejects_missing_originations_with_the_origin_tag() {
        let topo = topology_by_name("paper").unwrap();
        let err = parse_problem(&topo, "req#7", "Req1 { !(P1 -> P2) }")
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("req#7"), "{err}");
    }
}
