//! Cross-validation of the symbolic encoder against the concrete simulator.
//!
//! The explanation method's soundness rests on the encoder and the
//! simulator implementing the same BGP semantics. These tests generate
//! random concrete configurations on random topologies and check:
//!
//! 1. every route in the simulator's stable state corresponds to an
//!    enumerated propagation path whose `alive` term evaluates to true
//!    (availability over-approximates realized routes);
//! 2. whenever the concrete checker finds a forbidden-path violation, the
//!    encoder's constraint system for that requirement is unsatisfiable
//!    (the encoding is at least as strict as the checker);
//! 3. whenever the simulator shows a source reaching a destination, the
//!    encoder's reachability encoding (selection fixpoint) is satisfiable —
//!    the simulator's stable state is a witness.

use netexpl_bgp::{
    Action, Community, MatchClause, NetworkConfig, RouteMap, RouteMapEntry, SetClause,
};
use netexpl_logic::term::{Ctx, TermNode};
use netexpl_spec::{check_specification, Violation};
use netexpl_synth::encode::{EncodeOptions, Encoder};
use netexpl_synth::sketch::SymNetworkConfig;
use netexpl_synth::vocab::Vocabulary;
use netexpl_topology::builders::random_gnp;
use netexpl_topology::{Prefix, RouterKind, Topology};
use rand::{Rng, SeedableRng};

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
        if rng.gen_bool(0.4) {
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
        }
        entries.push(RouteMapEntry {
            seq: (i as u32 + 1) * 10,
            action,
            matches,
            sets,
        });
    }
    // Make most maps end in a permissive catch-all so routing mostly works.
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

fn random_scenario(seed: u64) -> (Topology, NetworkConfig, Vec<Community>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(3..6);
    let topo = random_gnp(n, 0.5, seed ^ 0x5EED);
    let comms = vec![Community(100, 1), Community(100, 2)];
    let mut net = NetworkConfig::new();
    let pa = topo.router_by_name("Pa").unwrap();
    let pb = topo.router_by_name("Pb").unwrap();
    let d1: Prefix = "200.7.0.0/16".parse().unwrap();
    let d2: Prefix = "201.0.0.0/16".parse().unwrap();
    net.originate(pa, d1);
    net.originate(pb, d2);
    if rng.gen_bool(0.5) {
        net.originate(pb, d1);
    }
    // Random maps on random internal sessions.
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
    (topo, net, comms)
}

#[test]
fn realized_routes_are_alive_paths() {
    for seed in 0..25u64 {
        let (topo, net, comms) = random_scenario(seed);
        let Ok(state) = netexpl_bgp::sim::stabilize(&topo, &net) else {
            continue; // oscillating random policy: out of scope here
        };
        let vocab = Vocabulary::new(&topo, comms, vec![50, 100, 150, 200], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let sym = SymNetworkConfig::from_concrete(&net);
        let mut enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions { max_path_len: 12 });
        let encoded = enc
            .encode(&mut ctx, &sym, &netexpl_spec::Specification::new())
            .unwrap();
        let empty = netexpl_logic::Assignment::new();

        for prefix in net.prefixes() {
            for router in topo.router_ids() {
                for route in state.available(prefix, router) {
                    let info = encoded.paths[&prefix]
                        .iter()
                        .find(|i| i.routers == route.propagation)
                        .unwrap_or_else(|| {
                            panic!(
                                "seed {seed}: realized path {} not enumerated",
                                route.display_propagation(&topo)
                            )
                        });
                    // All-concrete config: alive evaluates without any
                    // variable bindings.
                    assert_eq!(
                        empty.eval_bool(&ctx, info.alive),
                        Some(true),
                        "seed {seed}: realized path {} must be alive",
                        route.display_propagation(&topo)
                    );
                }
            }
        }
    }
}

#[test]
fn checker_violation_implies_encoder_unsat() {
    let spec = netexpl_spec::parse("Req { !(Pa -> ... -> Pb) !(Pb -> ... -> Pa) }").unwrap();
    let mut violated = 0;
    let mut satisfied = 0;
    for seed in 0..25u64 {
        let (topo, net, comms) = random_scenario(seed);
        if netexpl_bgp::sim::stabilize(&topo, &net).is_err() {
            continue;
        }
        let vocab = Vocabulary::new(&topo, comms, vec![50, 100, 150, 200], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let sym = SymNetworkConfig::from_concrete(&net);
        let mut enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions { max_path_len: 12 });
        let encoded = enc.encode(&mut ctx, &sym, &spec).unwrap();
        let conj = encoded.conjunction(&mut ctx);
        let encoder_sat = netexpl_logic::solver::is_sat(&mut ctx, conj);

        let violations = check_specification(&topo, &net, &spec);
        let has_forbidden = violations
            .iter()
            .any(|v| matches!(v, Violation::ForbiddenPathRealized { .. }));
        if has_forbidden {
            violated += 1;
            assert!(
                !encoder_sat,
                "seed {seed}: checker found transit but encoder is satisfied"
            );
        } else {
            satisfied += 1;
        }
    }
    assert!(violated > 0, "random suite should produce some violations");
    assert!(
        satisfied > 0,
        "random suite should produce some compliant configs"
    );
}

#[test]
fn sim_reachability_implies_encoder_sat() {
    for seed in 0..25u64 {
        let (topo, net, comms) = random_scenario(seed);
        let Ok(state) = netexpl_bgp::sim::stabilize(&topo, &net) else {
            continue;
        };
        let d1: Prefix = "200.7.0.0/16".parse().unwrap();
        let pb = topo.router_by_name("Pb").unwrap();
        if state.forwarding_path(d1, pb).is_none() {
            continue;
        }
        // Pb reaches D1 in simulation: the selection-fixpoint encoding of
        // `Pb ~> D1` must be satisfiable.
        let spec = netexpl_spec::parse("dest D1 = 200.7.0.0/16\nReq { Pb ~> D1 }").unwrap();
        let vocab = Vocabulary::new(&topo, comms, vec![50, 100, 150, 200], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let sym = SymNetworkConfig::from_concrete(&net);
        let mut enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions { max_path_len: 12 });
        let encoded = enc.encode(&mut ctx, &sym, &spec).unwrap();
        let conj = encoded.conjunction(&mut ctx);
        assert!(
            netexpl_logic::solver::is_sat(&mut ctx, conj),
            "seed {seed}: simulator reaches D1 but encoder says unreachable"
        );
    }
}

#[test]
fn selection_model_is_a_stable_state() {
    // Solve the nominal selection fixpoint of a concrete configuration and
    // check that the selected path at each router is undominated among the
    // *selected-parent* candidates — i.e. the model is a stable state.
    for seed in 0..10u64 {
        let (topo, net, comms) = random_scenario(seed);
        if netexpl_bgp::sim::stabilize(&topo, &net).is_err() {
            continue;
        }
        let d1: Prefix = "200.7.0.0/16".parse().unwrap();
        let spec_text = topo
            .internal_routers()
            .next()
            .map(|r| format!("dest D1 = 200.7.0.0/16\nReq {{ {} ~> D1 }}", topo.name(r)))
            .unwrap();
        let spec = match netexpl_spec::parse(&spec_text) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let vocab = Vocabulary::new(&topo, comms, vec![50, 100, 150, 200], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let sym = SymNetworkConfig::from_concrete(&net);
        let mut enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions { max_path_len: 12 });
        let encoded = enc.encode(&mut ctx, &sym, &spec).unwrap();
        let constraints: Vec<_> = encoded.constraints().collect();
        let mut session = netexpl_logic::SmtSession::new();
        session.assert(&mut ctx, &constraints);
        let Some(model) = session.check(&mut ctx).model() else {
            continue;
        };
        let Some(sel_vars) = encoded.nominal_sel.get(&d1) else {
            continue;
        };
        let infos = &encoded.paths[&d1];
        // At most one selection per holder; each selected path's parent is
        // selected too (or it is an origination edge).
        let mut selected_at: std::collections::HashMap<_, Vec<usize>> = Default::default();
        for (k, sel) in sel_vars.iter().enumerate() {
            let Some(s) = sel else { continue };
            let var = match ctx.node(*s) {
                TermNode::BoolVar(v) => *v,
                _ => unreachable!(),
            };
            if model.get(var).and_then(|v| v.as_bool()) == Some(true) {
                selected_at.entry(infos[k].holder()).or_default().push(k);
            }
        }
        for (holder, ks) in &selected_at {
            assert_eq!(
                ks.len(),
                1,
                "seed {seed}: router {holder:?} selected several routes"
            );
            let k = ks[0];
            if infos[k].routers.len() > 2 {
                let parent = &infos[k].routers[..infos[k].routers.len() - 1];
                let parent_holder = *parent.last().unwrap();
                let parent_sel = selected_at
                    .get(&parent_holder)
                    .map(|v| infos[v[0]].routers == parent)
                    .unwrap_or(false);
                assert!(
                    parent_sel || topo.router(parent_holder).kind == RouterKind::External,
                    "seed {seed}: selected path without selected parent"
                );
            }
        }
    }
}
