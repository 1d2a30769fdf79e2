//! Differential soundness suite for the abstract-interpretation fixpoint.
//!
//! Two contracts, checked against the concrete simulation:
//!
//! 1. **Coverage** — on random scenarios, every route the converged
//!    simulation holds anywhere is covered by some abstract fact
//!    (`Fixpoint::covers`). The abstraction may over-approximate, never
//!    under-approximate.
//! 2. **Counterexample survival** — the network diagnostics asserted by
//!    the golden suite correspond to concrete behaviors: scenario 2's
//!    valley warning to a provider route actually crossing, the washed
//!    community to a filter bypass the simulation exhibits, the inverted
//!    preference to the worse path really winning, the inert local-pref
//!    to the attribute really being reset at the AS boundary.

mod common;

use common::*;
use rand::{Rng, SeedableRng};

use netexpl_bgp::route::DEFAULT_LOCAL_PREF;
use netexpl_bgp::sim::stabilize;
use netexpl_bgp::{
    Action, Community, MatchClause, NetworkConfig, RouteMap, RouteMapEntry, SetClause,
};
use netexpl_dataflow::analyze;
use netexpl_topology::builders::random_gnp;
use netexpl_topology::{Prefix, Topology};

/// A random route map exercising the whole abstract domain: community
/// matches and adds, local-pref rewrites, washes, and early denies.
fn random_map(rng: &mut impl Rng, name: &str, comms: &[Community]) -> RouteMap {
    let n_entries = rng.gen_range(1..=3);
    let mut entries = Vec::new();
    for i in 0..n_entries {
        let action = if rng.gen_bool(0.3) {
            Action::Deny
        } else {
            Action::Permit
        };
        let mut matches = Vec::new();
        if rng.gen_bool(0.5) {
            matches.push(MatchClause::Community(comms[rng.gen_range(0..comms.len())]));
        }
        let mut sets = Vec::new();
        if action == Action::Permit {
            if rng.gen_bool(0.4) {
                sets.push(SetClause::LocalPref(
                    *[50u32, 100, 150, 200].get(rng.gen_range(0..4)).unwrap(),
                ));
            }
            if rng.gen_bool(0.3) {
                sets.push(SetClause::AddCommunity(
                    comms[rng.gen_range(0..comms.len())],
                ));
            }
            if rng.gen_bool(0.1) {
                sets.push(SetClause::ClearCommunities);
            }
        }
        entries.push(RouteMapEntry {
            seq: (i as u32 + 1) * 10,
            action,
            matches,
            sets,
        });
    }
    if rng.gen_bool(0.7) {
        entries.push(RouteMapEntry {
            seq: 100,
            action: Action::Permit,
            matches: vec![],
            sets: vec![],
        });
    }
    RouteMap::new(name, entries)
}

/// A random, *simulatable* scenario: only external routers originate
/// (the concrete simulator's model), random policy on internal sessions.
fn random_sim_scenario(seed: u64) -> (Topology, NetworkConfig) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(3..6);
    let topo = random_gnp(n, 0.5, seed ^ 0x5EED);
    let comms = vec![Community(100, 1), Community(100, 2)];
    let mut net = NetworkConfig::new();
    let pa = topo.router_by_name("Pa").unwrap();
    let pb = topo.router_by_name("Pb").unwrap();
    let da: Prefix = "200.7.0.0/16".parse().unwrap();
    let db: Prefix = "201.0.0.0/16".parse().unwrap();
    net.originate(pa, da);
    net.originate(pb, db);
    if rng.gen_bool(0.5) {
        net.originate(pb, da);
    }
    let internal: Vec<_> = topo.internal_routers().collect();
    for &r in &internal {
        for &nb in topo.neighbors(r) {
            if rng.gen_bool(0.4) {
                let m = random_map(
                    &mut rng,
                    &format!("{}_from_{}", topo.name(r), topo.name(nb)),
                    &comms,
                );
                net.router_mut(r).set_import(nb, m);
            }
            if rng.gen_bool(0.4) {
                let m = random_map(
                    &mut rng,
                    &format!("{}_to_{}", topo.name(r), topo.name(nb)),
                    &comms,
                );
                net.router_mut(r).set_export(nb, m);
            }
        }
    }
    (topo, net)
}

// ---------------------------------------------------------------------------
// 1. Coverage: abstract ⊇ concrete.

/// Every route the stable state admits, at every router and for every
/// prefix, satisfies `Fixpoint::covers` — over many random simulatable
/// scenarios with random policy.
#[test]
fn fixpoint_covers_every_stable_route() {
    let mut checked = 0usize;
    for seed in 0..60u64 {
        let (topo, net) = random_sim_scenario(seed);
        let Ok(state) = stabilize(&topo, &net) else {
            continue; // oscillating random policy: out of scope here
        };
        let fx = analyze(&topo, &net);
        for prefix in net.prefixes() {
            for r in topo.router_ids() {
                for route in state.available(prefix, r) {
                    checked += 1;
                    assert!(
                        fx.covers(route),
                        "seed {seed}: uncovered concrete route at {}: {route:?}",
                        topo.router(r).name,
                    );
                }
            }
        }
    }
    assert!(checked > 100, "the sweep should exercise real routes");
}

// ---------------------------------------------------------------------------
// 2. Concrete counterexamples behind the golden network diagnostics.

/// Scenario 2's NE018 is real: with no provider-export filters, P1 ends
/// up holding a route for D1 that *P2* originated — customer transit.
#[test]
fn scenario2_valley_has_a_concrete_route() {
    let (topo, h, net, _) = scenario2();
    let state = stabilize(&topo, &net).expect("scenario 2 converges");
    let crossed = state
        .available(d1(), h.p1)
        .iter()
        .any(|r| r.origin() == h.p2)
        || state
            .available(d1(), h.p2)
            .iter()
            .any(|r| r.origin() == h.p1);
    assert!(crossed, "a provider-learned route should leak across");
}

/// The washed-community mutation (NE015) is real: once R1 clears
/// communities toward R3, R3's `deny TAG_P2` goes blind and a
/// P2-originated route slips through R1's path.
#[test]
fn washed_community_bypasses_the_filter_concretely() {
    let (topo, h, mut net, _) = scenario3();
    net.router_mut(h.r1).set_export(
        h.r3,
        one_entry(
            "R1_to_R3",
            RouteMapEntry {
                seq: 10,
                action: Action::Permit,
                matches: vec![],
                sets: vec![SetClause::ClearCommunities],
            },
        ),
    );
    let state = stabilize(&topo, &net).expect("mutated scenario 3 converges");
    // Everything R1 now sends to R3 arrives tagless: the community the
    // filter tests for is concretely gone from the wire.
    let from_r1: Vec<_> = state
        .available(d1(), h.r3)
        .into_iter()
        .filter(|r| r.next_hop == h.r1)
        .collect();
    assert!(!from_r1.is_empty(), "R3 should still hear D1 from R1");
    assert!(
        from_r1.iter().all(|r| r.communities.is_empty()),
        "R1's wash should strip every tag: {from_r1:?}"
    );
}

/// The preference-inversion mutation (NE016) is real: with the
/// local-prefs swapped, R3's best route to D1 goes via R2 — the path the
/// specification ranks worse.
#[test]
fn preference_inversion_wins_concretely() {
    let (topo, h, mut net, _) = scenario2();
    net.router_mut(h.r3).set_import(
        h.r1,
        RouteMap::new(
            "R3_from_R1",
            vec![
                deny_community(10, TAG_P2),
                RouteMapEntry {
                    seq: 20,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![SetClause::LocalPref(100)],
                },
            ],
        ),
    );
    net.router_mut(h.r3).set_import(
        h.r2,
        RouteMap::new(
            "R3_from_R2",
            vec![
                deny_community(10, TAG_P1),
                RouteMapEntry {
                    seq: 20,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![SetClause::LocalPref(200)],
                },
            ],
        ),
    );
    let state = stabilize(&topo, &net).expect("mutated scenario 2 converges");
    let best = state.best(d1(), h.r3).expect("R3 reaches D1");
    assert_eq!(best.next_hop, h.r2, "the worse path should win: {best:?}");
}

/// The inert local-pref (NE019) is real: the 500 set on R1's export to
/// P1 does not survive the eBGP session — P1's copy of the customer
/// route carries the default preference.
#[test]
fn ebgp_local_pref_is_reset_concretely() {
    let (topo, h, mut net, _) = scenario3();
    net.router_mut(h.r1).set_export(
        h.p1,
        RouteMap::new(
            "R1_to_P1",
            vec![
                deny_community(10, TAG_P2),
                RouteMapEntry {
                    seq: 20,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![SetClause::LocalPref(500)],
                },
            ],
        ),
    );
    let state = stabilize(&topo, &net).expect("mutated scenario 3 converges");
    let routes = state.available(customer_prefix(), h.p1);
    assert!(
        !routes.is_empty(),
        "P1 should still learn the customer prefix"
    );
    assert!(
        routes.iter().all(|r| r.local_pref == DEFAULT_LOCAL_PREF),
        "local-pref should reset at the AS boundary: {routes:?}"
    );
}
