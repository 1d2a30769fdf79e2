//! Randomized scenario generators for the property suites: connected
//! topologies of a caller-chosen size, specifications whose forbidden
//! paths and preference chains range over *valid simple paths* of the
//! generated topology, configurations with something to symbolize, and
//! selectors.
//!
//! Everything is a proptest [`Strategy`], so scenarios shrink-free sample
//! deterministically per test case. Shapes are repaired rather than
//! rejected (connectivity by construction, index picks taken modulo the
//! candidate count) so no generator can stall in a filter loop.

use proptest::prelude::*;

use netexpl_bgp::{Action, NetworkConfig, RouteMap, RouteMapEntry, SetClause};
use netexpl_core::symbolize::{Dir, Selector};
use netexpl_spec::{PathPattern, Requirement, Seg, Specification};
use netexpl_synth::vocab::Vocabulary;
use netexpl_topology::path::all_simple_paths;
use netexpl_topology::{AsNum, RouterId, RouterKind, Topology};

use super::{customer_prefix, d1, d2, deny_community, paper_vocab, permit_all, TAG_P1, TAG_P2};

/// One generated explanation problem: a connected topology with providers
/// `Pa` (originating D1) and `Pb` (originating D2), a configuration with
/// at least one route map, a specification over the topology's own simple
/// paths, and a selector to apply per router.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub topo: Topology,
    pub net: NetworkConfig,
    pub spec: Specification,
    pub selector: Selector,
}

impl Scenario {
    /// The standard vocabulary for this scenario's prefixes.
    pub fn vocab(&self) -> Vocabulary {
        paper_vocab(&self.topo, self.net.prefixes())
    }
}

/// A connected topology of `internal` internal routers (AS 100) linked in
/// a chain (connectivity by construction) plus sparse random extra links,
/// with external providers `Pa`/`Pb` attached at either end (total size
/// `internal + 2`). The whole-pipeline property suites pass small sizes
/// here: a debug-build lift run is seconds per router, so case budgets
/// only fit the small end of the range.
pub fn sized_topology(internal: impl Strategy<Value = usize>) -> impl Strategy<Value = Topology> {
    internal
        .prop_flat_map(|n| {
            // One density byte per non-chain router pair; ~12% of them become
            // extra links, keeping the simple-path count moderate.
            let pairs = (n * n.saturating_sub(1) / 2).saturating_sub(n - 1);
            (Just(n), proptest::collection::vec(0u8..8, pairs.max(1)))
        })
        .prop_map(|(n, density)| {
            let mut t = Topology::new();
            let internals: Vec<RouterId> = (0..n)
                .map(|i| t.add_router(&format!("R{i}"), AsNum(100), RouterKind::Internal))
                .collect();
            for w in internals.windows(2) {
                t.add_link(w[0], w[1]);
            }
            let mut k = 0;
            for i in 0..n {
                for j in (i + 2)..n {
                    if density.get(k) == Some(&0) {
                        t.add_link(internals[i], internals[j]);
                    }
                    k += 1;
                }
            }
            let pa = t.add_router("Pa", AsNum(500), RouterKind::External);
            let pb = t.add_router("Pb", AsNum(600), RouterKind::External);
            t.add_link(pa, internals[0]);
            t.add_link(pb, internals[n - 1]);
            t
        })
}

/// A selector to apply (per router): usually the whole router, sometimes
/// one session toward a random neighbor. Session selectors may match
/// nothing anywhere — callers treat that as a valid (skipped) outcome.
pub fn arb_selector(topo: &Topology) -> impl Strategy<Value = Selector> {
    let n = topo.num_routers() as u32;
    prop_oneof![
        3 => Just(Selector::Router),
        1 => (0..n, proptest::bool::ANY).prop_map(|(i, import)| Selector::Session {
            neighbor: RouterId(i),
            dir: if import { Dir::Import } else { Dir::Export },
        }),
    ]
}

/// The router names of each simple path between two routers, bounded only
/// by the topology size (the generated graphs are sparse enough).
fn path_names(topo: &Topology, src: RouterId, dst: RouterId) -> Vec<Vec<String>> {
    all_simple_paths(topo, src, dst, topo.num_routers())
        .iter()
        .map(|p| p.hops().iter().map(|&h| topo.name(h).to_string()).collect())
        .collect()
}

fn routers_pattern(names: &[String]) -> PathPattern {
    PathPattern::new(names.iter().cloned().map(Seg::Router).collect())
}

/// A specification over `topo`'s own simple paths: 1–2 forbidden transit
/// paths `!(Pa -> … -> Pb)`, optionally a preference chain `p1 >> p2 [>>
/// p3]` of distinct paths from one shared internal source toward D1, and
/// optionally a reachability requirement.
pub fn arb_spec(topo: &Topology) -> impl Strategy<Value = Specification> {
    let pa = topo.router_by_name("Pa").unwrap();
    let pb = topo.router_by_name("Pb").unwrap();
    let transit = path_names(topo, pa, pb);
    let internals: Vec<RouterId> = topo.internal_routers().collect();
    // Preference candidates per internal source: its simple paths to the
    // D1 holder (each becomes `src -> … -> Pa -> D1` in the chain).
    let pref: Vec<Vec<Vec<String>>> = internals
        .iter()
        .map(|&src| path_names(topo, src, pa))
        .collect();
    let names: Vec<String> = internals
        .iter()
        .map(|&r| topo.name(r).to_string())
        .collect();
    (
        proptest::collection::vec(any::<usize>(), 2),
        1usize..3,
        (
            any::<usize>(),
            proptest::collection::vec(any::<usize>(), 3),
            2usize..4,
        ),
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(
            move |(fpicks, fcount, (spick, ppicks, chain_len), with_pref, with_reach)| {
                let mut spec = Specification::new();
                spec.dest("D1", d1());
                spec.dest("D2", d2());
                let mut reqs = Vec::new();
                for pick in fpicks.iter().take(fcount) {
                    reqs.push(Requirement::Forbidden(routers_pattern(
                        &transit[pick % transit.len()],
                    )));
                }
                let row = &pref[spick % pref.len()];
                if with_pref && row.len() >= 2 {
                    // Distinct path picks, most preferred first; a chain
                    // that cannot reach length 2 is dropped.
                    let mut chain: Vec<usize> = Vec::new();
                    for pick in &ppicks {
                        let i = pick % row.len();
                        if !chain.contains(&i) {
                            chain.push(i);
                        }
                        if chain.len() == chain_len {
                            break;
                        }
                    }
                    if chain.len() >= 2 {
                        let patterns = chain
                            .into_iter()
                            .map(|i| {
                                let mut segs: Vec<Seg> =
                                    row[i].iter().cloned().map(Seg::Router).collect();
                                segs.push(Seg::Dest("D1".into()));
                                PathPattern::new(segs)
                            })
                            .collect();
                        reqs.push(Requirement::Preference { chain: patterns });
                    }
                }
                if with_reach || reqs.is_empty() {
                    reqs.push(Requirement::Reachable {
                        src: names[spick % names.len()].clone(),
                        dst: "D2".into(),
                    });
                }
                spec.block("Req1", reqs);
                spec
            },
        )
}

/// A configuration for `topo`: the providers originate D1/D2, an internal
/// router originates the customer prefix, and each (internal router,
/// neighbor) session gets no map, an import map, or an export map with
/// small community/local-pref policies. At least one map always exists,
/// so `Selector::Router` has something to symbolize somewhere.
pub fn arb_config(topo: &Topology) -> impl Strategy<Value = NetworkConfig> {
    let pa = topo.router_by_name("Pa").unwrap();
    let pb = topo.router_by_name("Pb").unwrap();
    let internals: Vec<RouterId> = topo.internal_routers().collect();
    let pairs: Vec<(RouterId, RouterId)> = internals
        .iter()
        .flat_map(|&r| topo.neighbors(r).iter().map(move |&nb| (r, nb)))
        .collect();
    let first_pair = pairs[0];
    (proptest::collection::vec(
        (0u8..8, 0u8..4, 0u8..4),
        pairs.len(),
    ),)
        .prop_map(move |(decisions,)| {
            let mut net = NetworkConfig::new();
            net.originate(pa, d1());
            net.originate(pb, d2());
            net.originate(first_pair.0, customer_prefix());
            let mut any_map = false;
            for (&(r, nb), &(kind, filt, act)) in pairs.iter().zip(&decisions) {
                // kind: 0–3 no map, 4–5 import, 6–7 export.
                if kind < 4 {
                    continue;
                }
                let mut entries = Vec::new();
                match filt {
                    0 => entries.push(deny_community(10, TAG_P1)),
                    1 => entries.push(deny_community(10, TAG_P2)),
                    _ => {}
                }
                entries.push(match act {
                    0 => RouteMapEntry {
                        sets: vec![SetClause::LocalPref(200)],
                        ..permit_all(20)
                    },
                    1 => RouteMapEntry {
                        sets: vec![SetClause::AddCommunity(TAG_P1)],
                        ..permit_all(20)
                    },
                    2 => RouteMapEntry {
                        seq: 20,
                        action: Action::Deny,
                        matches: vec![],
                        sets: vec![],
                    },
                    _ => permit_all(20),
                });
                let map = RouteMap::new(&format!("m{}_{}_{kind}", r.0, nb.0), entries);
                if kind < 6 {
                    net.router_mut(r).set_import(nb, map);
                } else {
                    net.router_mut(r).set_export(nb, map);
                }
                any_map = true;
            }
            if !any_map {
                let (r, nb) = first_pair;
                net.router_mut(r)
                    .set_import(nb, RouteMap::new("m_fallback", vec![permit_all(10)]));
            }
            net
        })
}

/// A full random scenario over a caller-chosen topology strategy (see
/// [`sized_topology`]): topology, configuration, specification over its
/// paths, and a per-router selector.
pub fn scenario_over(topos: impl Strategy<Value = Topology>) -> impl Strategy<Value = Scenario> {
    topos.prop_flat_map(|topo| {
        let spec = arb_spec(&topo);
        let net = arb_config(&topo);
        let selector = arb_selector(&topo);
        (Just(topo), net, spec, selector).prop_map(|(topo, net, spec, selector)| Scenario {
            topo,
            net,
            spec,
            selector,
        })
    })
}

/// `PROPTEST_CASES`-aware config: the vendored proptest has no env
/// support of its own, so the suites read the cap manually (CI pins it;
/// local runs get `default`).
pub fn cases_from_env(default: u32) -> ProptestConfig {
    ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default),
    )
}
