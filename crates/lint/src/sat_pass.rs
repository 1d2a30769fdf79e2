//! SAT-backed reachability of route-map entries.
//!
//! Each entry's match conjunction is encoded over a *free* route state
//! drawn from the synthesis vocabulary (the same universe the synthesizer
//! quantifies over): a symbolic prefix ranging over the vocabulary
//! prefixes, one free boolean per vocabulary community, a symbolic
//! learned-from neighbor, and a free boolean per AS number mentioned in
//! the map. Entry `i` is *reachable* iff
//!
//! ```text
//! SAT( domain ∧ mᵢ ∧ ⋀_{j<i} ¬mⱼ )
//! ```
//!
//! This subsumes the structural shadowing pass: it also catches entries
//! killed by prefix containment (`10.0.0.0/8` before `10.1.0.0/16`) or by
//! several earlier entries jointly covering the space — shapes no
//! syntactic subset check can see.
//!
//! The encoding is deliberately conservative where the vocabulary is
//! silent: communities and neighbors outside the vocabulary become free
//! booleans, so the pass never calls an entry dead unless it is dead for
//! every route the synthesizer could ever reason about.

use std::collections::{BTreeMap, HashSet};

use netexpl_bgp::{MatchClause, NetworkConfig, RouteMap};
use netexpl_core::symbolize::Dir;
use netexpl_dataflow::Prefilter;
use netexpl_logic::session::SmtSession;
use netexpl_logic::term::{Ctx, TermId};
use netexpl_logic::SmtResult;
use netexpl_synth::vocab::{VocabSorts, Vocabulary};
use netexpl_topology::{RouterId, Topology};

use crate::config_pass::{sessions, EntryKey};
use crate::diag::{Code, Diagnostic, Diagnostics};
use crate::spans::SpanIndex;

/// Run the SAT pass over every session map. `skip` holds entries already
/// reported dead structurally — re-reporting them semantically would be
/// noise. `prefilter`, when present, carries concrete witnesses from the
/// abstract-interpretation fixpoint: a witnessed query is already known
/// satisfiable (hence cannot produce a diagnostic) and skips the solver
/// entirely. The `lint.sat.filtered` / `lint.sat.solved` counters report
/// how many solver probes the prefilter eliminated.
pub fn run(
    topo: &Topology,
    vocab: &Vocabulary,
    net: &NetworkConfig,
    spans: &SpanIndex,
    skip: &HashSet<EntryKey>,
    prefilter: Option<&Prefilter>,
) -> Diagnostics {
    let span = netexpl_obs::Span::enter("lint.sat");
    let mut ctx = Ctx::new();
    let sorts = vocab.sorts(&mut ctx);
    let mut diags = Diagnostics::new();
    let mut maps = 0usize;
    let mut stats = ProbeStats::default();
    for (r, n, dir, map) in sessions(net) {
        maps += 1;
        lint_map(
            &mut ctx, topo, vocab, sorts, r, n, dir, map, spans, skip, prefilter, &mut stats,
            &mut diags,
        );
    }
    netexpl_obs::counter_add("lint.sat.filtered", stats.filtered);
    netexpl_obs::counter_add("lint.sat.solved", stats.solved);
    if span.is_recording() {
        span.attr("maps", maps);
        span.attr("diagnostics", diags.len());
        span.attr("filtered", stats.filtered);
        span.attr("solved", stats.solved);
    }
    diags
}

/// Solver probes answered by the prefilter vs. actually solved.
#[derive(Debug, Default)]
struct ProbeStats {
    filtered: u64,
    solved: u64,
}

/// The symbolic route state one map is linted against.
struct FreeRoute {
    /// `Val`-sorted variable constrained to the prefix variants.
    prefix: TermId,
    /// `Val`-sorted variable constrained to the router variants.
    from: TermId,
    /// One free boolean per vocabulary community.
    comms: Vec<TermId>,
    /// Free booleans for anything the vocabulary cannot pin down,
    /// allocated on demand and shared within the map.
    free: BTreeMap<String, TermId>,
    /// Domain constraints on `prefix` and `from`.
    domain: TermId,
}

impl FreeRoute {
    fn new(ctx: &mut Ctx, vocab: &Vocabulary, sorts: VocabSorts, tag: &str) -> FreeRoute {
        let prefix = ctx.enum_var(&format!("lint!{tag}!prefix"), sorts.val);
        let from = ctx.enum_var(&format!("lint!{tag}!from"), sorts.val);
        let comms = (0..vocab.communities.len())
            .map(|i| ctx.bool_var(&format!("lint!{tag}!comm!{i}")))
            .collect();
        let mut domain = Vec::new();
        if !vocab.prefixes.is_empty() {
            let alts: Vec<TermId> = (0..vocab.prefixes.len())
                .map(|i| {
                    let c = ctx.enum_const(sorts.val, sorts.val_prefix(i));
                    ctx.eq(prefix, c)
                })
                .collect();
            domain.push(ctx.or(&alts));
        }
        if !vocab.routers.is_empty() {
            let alts: Vec<TermId> = (0..vocab.routers.len())
                .map(|i| {
                    let c = ctx.enum_const(sorts.val, sorts.val_router(i));
                    ctx.eq(from, c)
                })
                .collect();
            domain.push(ctx.or(&alts));
        }
        let domain = ctx.and(&domain);
        FreeRoute {
            prefix,
            from,
            comms,
            free: BTreeMap::new(),
            domain,
        }
    }

    fn free_bool(&mut self, ctx: &mut Ctx, tag: &str, key: String) -> TermId {
        *self
            .free
            .entry(key.clone())
            .or_insert_with(|| ctx.bool_var(&format!("lint!{tag}!free!{key}")))
    }

    /// Encode one match clause as a term over the free route.
    fn clause(
        &mut self,
        ctx: &mut Ctx,
        vocab: &Vocabulary,
        sorts: VocabSorts,
        tag: &str,
        m: &MatchClause,
    ) -> TermId {
        match m {
            MatchClause::PrefixList(ps) => {
                if vocab.prefixes.is_empty() {
                    // No prefix universe: cannot decide, stay free.
                    return self.free_bool(ctx, tag, format!("pfxlist!{ps:?}"));
                }
                let alts: Vec<TermId> = vocab
                    .prefixes
                    .iter()
                    .enumerate()
                    .filter(|(_, vp)| ps.iter().any(|p| p.contains(vp)))
                    .map(|(i, _)| {
                        let c = ctx.enum_const(sorts.val, sorts.val_prefix(i));
                        ctx.eq(self.prefix, c)
                    })
                    .collect();
                ctx.or(&alts) // empty → false: matches nothing announceable
            }
            MatchClause::Community(c) => match vocab.communities.iter().position(|vc| vc == c) {
                Some(i) => self.comms[i],
                None => self.free_bool(ctx, tag, format!("comm!{c}")),
            },
            MatchClause::AsInPath(a) => self.free_bool(ctx, tag, format!("as!{}", a.0)),
            MatchClause::FromNeighbor(n) => match vocab.routers.iter().position(|r| r == n) {
                Some(i) => {
                    let c = ctx.enum_const(sorts.val, sorts.val_router(i));
                    ctx.eq(self.from, c)
                }
                None => self.free_bool(ctx, tag, format!("nbr!{}", n.0)),
            },
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn lint_map(
    ctx: &mut Ctx,
    topo: &Topology,
    vocab: &Vocabulary,
    sorts: VocabSorts,
    r: RouterId,
    n: RouterId,
    dir: Dir,
    map: &RouteMap,
    spans: &SpanIndex,
    skip: &HashSet<EntryKey>,
    prefilter: Option<&Prefilter>,
    stats: &mut ProbeStats,
    diags: &mut Diagnostics,
) {
    if map.entries.is_empty() {
        return;
    }
    let tag = format!("{}!{}!{dir}", r.0, n.0);
    let mut route = FreeRoute::new(ctx, vocab, sorts, &tag);

    // m_i for every entry, in evaluation order.
    let match_terms: Vec<TermId> = map
        .entries
        .iter()
        .map(|e| {
            let cs: Vec<TermId> = e
                .matches
                .iter()
                .map(|m| route.clause(ctx, vocab, sorts, &tag, m))
                .collect();
            ctx.and(&cs)
        })
        .collect();

    // One session per map: the domain constraints are encoded once and every
    // entry probe rides on it as an assumption query, so learned clauses from
    // earlier entries prune the search for later ones.
    let mut session = SmtSession::new();
    session.assert(ctx, &[route.domain]);

    for (i, &m_i) in match_terms.iter().enumerate() {
        let e = &map.entries[i];
        let key = (r, n, dir, i);
        // Diagnose only on an explicit Unsat verdict: an `Unknown` from a
        // budgeted/faulted solver must not masquerade as a refutation.
        // A concrete fixpoint witness that *matched* this entry proves the
        // conjunction satisfiable without any solver call.
        let witnessed_sat = prefilter.is_some_and(|p| p.sat_witnessed(&key));
        if witnessed_sat {
            stats.filtered += 1;
        } else {
            stats.solved += 1;
        }
        let contradictory = !witnessed_sat && {
            // Attribute the query to the diagnostic probing it, so
            // `netexpl profile` can rank lint probes by solver cost.
            session.set_origin(format!("NE011:{}:{}", map.name, e.seq));
            matches!(session.check_assuming(ctx, &[m_i]).0, SmtResult::Unsat)
        };
        if contradictory {
            diags.push(
                Diagnostic::new(
                    Code::ContradictoryMatch,
                    spans.entry(topo, r, n, dir, i),
                    format!(
                        "entry `{} {}` of route-map `{}` matches no route over the synthesis vocabulary — its match clauses are mutually unsatisfiable",
                        e.action, e.seq, map.name
                    ),
                )
                .with_suggestion(format!("delete `route-map {} {} {}`", map.name, e.action, e.seq)),
            );
            continue;
        }
        if i == 0 || skip.contains(&key) {
            continue;
        }
        // A witness for which this entry was the *first* match proves the
        // entry reachable: the unreachability query is SAT, skip it.
        if prefilter.is_some_and(|p| p.reach_witnessed(&key)) {
            stats.filtered += 1;
            continue;
        }
        stats.solved += 1;
        session.set_origin(format!("NE010:{}:{}", map.name, e.seq));
        let mut assumptions = vec![m_i];
        for &m_j in &match_terms[..i] {
            assumptions.push(ctx.not(m_j));
        }
        let unreachable = matches!(
            session.check_assuming(ctx, &assumptions).0,
            SmtResult::Unsat
        );
        if unreachable {
            diags.push(
                Diagnostic::new(
                    Code::UnreachableEntry,
                    spans.entry(topo, r, n, dir, i),
                    format!(
                        "entry `{} {}` of route-map `{}` is unreachable: every vocabulary route it matches is already caught by an earlier entry",
                        e.action, e.seq, map.name
                    ),
                )
                .with_suggestion(format!("delete `route-map {} {} {}`", map.name, e.action, e.seq)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netexpl_bgp::{Action, Community, RouteMapEntry};
    use netexpl_topology::builders::paper_topology;
    use netexpl_topology::Prefix;

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn vocab_with(topo: &Topology, prefixes: Vec<Prefix>) -> Vocabulary {
        Vocabulary::new(
            topo,
            vec![Community(100, 1), Community(100, 2)],
            vec![50, 100, 200],
            prefixes,
        )
    }

    fn lint(topo: &Topology, vocab: &Vocabulary, net: &NetworkConfig) -> Diagnostics {
        let spans = SpanIndex::build(topo, net);
        run(topo, vocab, net, &spans, &HashSet::new(), None)
    }

    /// The separating example: `10.0.0.0/8` then `10.1.0.0/16`. No clause
    /// set is a syntactic subset of the other, but containment makes the
    /// second entry dead for every announceable prefix.
    #[test]
    fn prefix_containment_shadowing_found_by_sat_only() {
        let (topo, h) = paper_topology();
        let vocab = vocab_with(&topo, vec![pfx("10.1.2.0/24"), pfx("10.1.3.0/24")]);
        let mut net = NetworkConfig::new();
        net.router_mut(h.r1).set_import(
            h.p1,
            RouteMap::new(
                "in",
                vec![
                    RouteMapEntry {
                        seq: 10,
                        action: Action::Permit,
                        matches: vec![MatchClause::PrefixList(vec![pfx("10.0.0.0/8")])],
                        sets: vec![],
                    },
                    RouteMapEntry {
                        seq: 20,
                        action: Action::Deny,
                        matches: vec![MatchClause::PrefixList(vec![pfx("10.1.0.0/16")])],
                        sets: vec![],
                    },
                ],
            ),
        );
        // Structural pass sees nothing…
        let spans = SpanIndex::build(&topo, &net);
        let (structural, _) = crate::config_pass::run(&topo, &net, &spans);
        assert!(
            structural.with_code(Code::ShadowedEntry).is_empty(),
            "{structural}"
        );
        // …the SAT pass proves entry 1 dead.
        let ds = lint(&topo, &vocab, &net);
        assert_eq!(ds.with_code(Code::UnreachableEntry).len(), 1, "{ds}");
    }

    /// Two earlier entries jointly covering a later one — also invisible
    /// to pairwise syntactic checks.
    #[test]
    fn joint_coverage_shadowing() {
        let (topo, h) = paper_topology();
        let a = pfx("10.1.0.0/16");
        let b = pfx("10.2.0.0/16");
        let vocab = vocab_with(&topo, vec![pfx("10.1.9.0/24"), pfx("10.2.9.0/24")]);
        let mut net = NetworkConfig::new();
        net.router_mut(h.r1).set_import(
            h.p1,
            RouteMap::new(
                "in",
                vec![
                    RouteMapEntry {
                        seq: 10,
                        action: Action::Permit,
                        matches: vec![MatchClause::PrefixList(vec![a])],
                        sets: vec![],
                    },
                    RouteMapEntry {
                        seq: 20,
                        action: Action::Permit,
                        matches: vec![MatchClause::PrefixList(vec![b])],
                        sets: vec![],
                    },
                    RouteMapEntry {
                        seq: 30,
                        action: Action::Deny,
                        matches: vec![MatchClause::PrefixList(vec![a, b])],
                        sets: vec![],
                    },
                ],
            ),
        );
        let ds = lint(&topo, &vocab, &net);
        assert_eq!(ds.with_code(Code::UnreachableEntry).len(), 1, "{ds}");
    }

    #[test]
    fn out_of_vocabulary_prefix_list_is_contradictory() {
        let (topo, h) = paper_topology();
        let vocab = vocab_with(&topo, vec![pfx("200.7.0.0/16")]);
        let mut net = NetworkConfig::new();
        net.router_mut(h.r1).set_import(
            h.p1,
            RouteMap::new(
                "in",
                vec![RouteMapEntry {
                    seq: 10,
                    action: Action::Permit,
                    matches: vec![MatchClause::PrefixList(vec![pfx("99.0.0.0/8")])],
                    sets: vec![],
                }],
            ),
        );
        let ds = lint(&topo, &vocab, &net);
        assert_eq!(ds.with_code(Code::ContradictoryMatch).len(), 1, "{ds}");
    }

    #[test]
    fn disjoint_neighbor_matches_are_contradictory() {
        let (topo, h) = paper_topology();
        let vocab = vocab_with(&topo, vec![pfx("200.7.0.0/16")]);
        let mut net = NetworkConfig::new();
        net.router_mut(h.r3).set_import(
            h.r1,
            RouteMap::new(
                "in",
                vec![RouteMapEntry {
                    seq: 10,
                    action: Action::Permit,
                    matches: vec![
                        MatchClause::FromNeighbor(h.r1),
                        MatchClause::FromNeighbor(h.r2),
                    ],
                    sets: vec![],
                }],
            ),
        );
        let ds = lint(&topo, &vocab, &net);
        assert_eq!(ds.with_code(Code::ContradictoryMatch).len(), 1, "{ds}");
    }

    /// Distinct communities are independent booleans: matching two
    /// different communities in one entry is satisfiable, and an entry
    /// matching a community the previous entry also matches is dead only
    /// when the clause sets actually force it.
    #[test]
    fn communities_are_independent() {
        let (topo, h) = paper_topology();
        let vocab = vocab_with(&topo, vec![pfx("200.7.0.0/16")]);
        let mut net = NetworkConfig::new();
        net.router_mut(h.r3).set_export(
            h.customer,
            RouteMap::new(
                "out",
                vec![
                    RouteMapEntry {
                        seq: 10,
                        action: Action::Permit,
                        matches: vec![
                            MatchClause::Community(Community(100, 1)),
                            MatchClause::Community(Community(100, 2)),
                        ],
                        sets: vec![],
                    },
                    RouteMapEntry {
                        seq: 20,
                        action: Action::Permit,
                        matches: vec![MatchClause::Community(Community(100, 1))],
                        sets: vec![],
                    },
                ],
            ),
        );
        let ds = lint(&topo, &vocab, &net);
        // Entry 0 is satisfiable (both communities on), entry 1 reachable
        // (100:1 without 100:2 escapes entry 0).
        assert!(ds.is_empty(), "{ds}");
    }

    #[test]
    fn sat_respects_structural_skip_set() {
        let (topo, h) = paper_topology();
        let vocab = vocab_with(&topo, vec![pfx("200.7.0.0/16")]);
        let mut net = NetworkConfig::new();
        let m = MatchClause::PrefixList(vec![pfx("200.7.0.0/16")]);
        net.router_mut(h.r1).set_import(
            h.p1,
            RouteMap::new(
                "in",
                vec![
                    RouteMapEntry {
                        seq: 10,
                        action: Action::Permit,
                        matches: vec![m.clone()],
                        sets: vec![],
                    },
                    RouteMapEntry {
                        seq: 20,
                        action: Action::Deny,
                        matches: vec![m],
                        sets: vec![],
                    },
                ],
            ),
        );
        let spans = SpanIndex::build(&topo, &net);
        let (structural, dead) = crate::config_pass::run(&topo, &net, &spans);
        assert_eq!(structural.with_code(Code::ShadowedEntry).len(), 1);
        // With the structural skip set the SAT pass stays silent…
        let ds = run(&topo, &vocab, &net, &spans, &dead, None);
        assert!(ds.with_code(Code::UnreachableEntry).is_empty(), "{ds}");
        // …without it, it reports the same entry semantically.
        let ds = run(&topo, &vocab, &net, &spans, &HashSet::new(), None);
        assert_eq!(ds.with_code(Code::UnreachableEntry).len(), 1, "{ds}");
    }
}
