//! Shared workloads for the experiments: the paper's three scenarios
//! (exactly as in the integration tests) and parameterized scaling
//! workloads. Every experiment row in EXPERIMENTS.md is produced from the
//! builders here by the `tables` binary.

use netexpl_bgp::{
    Action, Community, MatchClause, NetworkConfig, RouteMap, RouteMapEntry, SetClause,
};
use netexpl_spec::Specification;
use netexpl_synth::vocab::Vocabulary;
use netexpl_topology::builders::{paper_topology, PaperTopology};
use netexpl_topology::{Prefix, Topology};

/// D1, reachable through both providers in scenarios 2/3.
pub fn d1() -> Prefix {
    "200.7.0.0/16".parse().unwrap()
}

/// A second destination behind P2.
pub fn d2() -> Prefix {
    "201.0.0.0/16".parse().unwrap()
}

/// The customer's prefix (the paper's `123.0.1.0/20`).
pub fn customer_prefix() -> Prefix {
    "123.0.1.0/20".parse().unwrap()
}

/// Community tagged on P1 routes.
pub const TAG_P1: Community = Community(100, 1);
/// Community tagged on P2 routes (the paper's `100:2`).
pub const TAG_P2: Community = Community(100, 2);

/// The standard vocabulary for the paper scenarios.
pub fn paper_vocab(topo: &Topology, prefixes: Vec<Prefix>) -> Vocabulary {
    Vocabulary::new(topo, vec![TAG_P1, TAG_P2], vec![50, 100, 200], prefixes)
}

fn deny_all(seq: u32) -> RouteMapEntry {
    RouteMapEntry {
        seq,
        action: Action::Deny,
        matches: vec![],
        sets: vec![],
    }
}

fn permit_all(seq: u32) -> RouteMapEntry {
    RouteMapEntry {
        seq,
        action: Action::Permit,
        matches: vec![],
        sets: vec![],
    }
}

fn deny_community(seq: u32, c: Community) -> RouteMapEntry {
    RouteMapEntry {
        seq,
        action: Action::Deny,
        matches: vec![MatchClause::Community(c)],
        sets: vec![],
    }
}

/// Scenario 1: the Figure 1c configuration (block everything toward each
/// provider) under the no-transit requirement.
pub fn scenario1() -> (Topology, PaperTopology, NetworkConfig, Specification) {
    let (topo, h) = paper_topology();
    let mut net = NetworkConfig::new();
    net.originate(h.p1, d1());
    net.originate(h.p2, d2());
    net.originate(h.customer, customer_prefix());
    for (r, p, name) in [(h.r1, h.p1, "R1_to_P1"), (h.r2, h.p2, "R2_to_P2")] {
        net.router_mut(r).set_export(
            p,
            RouteMap::new(
                name,
                vec![
                    RouteMapEntry {
                        seq: 1,
                        action: Action::Deny,
                        matches: vec![MatchClause::PrefixList(vec![customer_prefix()])],
                        sets: vec![SetClause::NextHop(p)],
                    },
                    deny_all(100),
                ],
            ),
        );
    }
    let spec =
        netexpl_spec::parse("Req1 {\n  !(P1 -> ... -> P2)\n  !(P2 -> ... -> P1)\n}").unwrap();
    (topo, h, net, spec)
}

/// Scenario 2: the strict-interpretation preference configuration
/// (community tagging + community-filtered imports at R3).
pub fn scenario2() -> (Topology, PaperTopology, NetworkConfig, Specification) {
    let (topo, h) = paper_topology();
    let mut net = NetworkConfig::new();
    net.originate(h.p1, d1());
    net.originate(h.p2, d1());
    net.originate(h.customer, customer_prefix());
    let tag = |name: &str, c: Community| {
        RouteMap::new(
            name,
            vec![RouteMapEntry {
                seq: 10,
                action: Action::Permit,
                matches: vec![],
                sets: vec![SetClause::AddCommunity(c)],
            }],
        )
    };
    net.router_mut(h.r1)
        .set_import(h.p1, tag("R1_from_P1", TAG_P1));
    net.router_mut(h.r2)
        .set_import(h.p2, tag("R2_from_P2", TAG_P2));
    let import = |name: &str, deny: Community, lp: u32| {
        RouteMap::new(
            name,
            vec![
                deny_community(10, deny),
                RouteMapEntry {
                    seq: 20,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![SetClause::LocalPref(lp)],
                },
            ],
        )
    };
    net.router_mut(h.r3)
        .set_import(h.r1, import("R3_from_R1", TAG_P2, 200));
    net.router_mut(h.r3)
        .set_import(h.r2, import("R3_from_R2", TAG_P1, 100));
    let spec = netexpl_spec::parse(
        "mode strict\n\
         dest D1 = 200.7.0.0/16\n\
         Req2 {\n\
           (Customer -> R3 -> R1 -> P1 -> ... -> D1)\n\
           >> (Customer -> R3 -> R2 -> P2 -> ... -> D1)\n\
         }",
    )
    .unwrap();
    (topo, h, net, spec)
}

/// Scenario 3: all requirements combined on the community-filtered config.
pub fn scenario3() -> (Topology, PaperTopology, NetworkConfig, Specification) {
    let (topo, h, mut net, _) = scenario2();
    net.originate(h.p2, d2());
    net.router_mut(h.r1).set_export(
        h.p1,
        RouteMap::new("R1_to_P1", vec![deny_community(10, TAG_P2), permit_all(20)]),
    );
    net.router_mut(h.r2).set_export(
        h.p2,
        RouteMap::new("R2_to_P2", vec![deny_community(10, TAG_P1), permit_all(20)]),
    );
    let spec = netexpl_spec::parse(
        "mode strict\n\
         dest D1 = 200.7.0.0/16\n\
         dest D2 = 201.0.0.0/16\n\
         dest CP = 123.0.1.0/20\n\
         Req1 {\n  !(P1 -> ... -> P2)\n  !(P2 -> ... -> P1)\n}\n\
         Req2 {\n\
           (Customer -> R3 -> R1 -> P1 -> ... -> D1)\n\
           >> (Customer -> R3 -> R2 -> P2 -> ... -> D1)\n\
         }\n\
         Req3 {\n  Customer ~> D1\n  Customer ~> D2\n}",
    )
    .unwrap();
    (topo, h, net, spec)
}

/// A specification containing only the named blocks of `spec`.
pub fn only_blocks(spec: &Specification, names: &[&str]) -> Specification {
    let mut out = Specification::new();
    out.mode = spec.mode;
    for (name, prefix) in &spec.destinations {
        out.dest(name, *prefix);
    }
    for (name, reqs) in &spec.blocks {
        if names.contains(&name.as_str()) {
            out.block(name, reqs.clone());
        }
    }
    out
}

/// Scaling workload (E3/E6): a ring of `n` internal routers with two
/// providers, a no-transit requirement and reachability from the first
/// internal router.
pub fn ring_workload(n: usize) -> (Topology, NetworkConfig, Specification, Vocabulary) {
    let topo = netexpl_topology::builders::ring(n);
    let pa = topo.router_by_name("Pa").unwrap();
    let pb = topo.router_by_name("Pb").unwrap();
    let mut base = NetworkConfig::new();
    base.originate(pa, d1());
    base.originate(pb, d2());
    let spec = netexpl_spec::parse(
        "dest D1 = 200.7.0.0/16\n\
         dest D2 = 201.0.0.0/16\n\
         Req1 {\n  !(Pa -> ... -> Pb)\n  !(Pb -> ... -> Pa)\n}\n\
         Req2 {\n  R0 ~> D2\n}",
    )
    .unwrap();
    let vocab = Vocabulary::new(
        &topo,
        vec![TAG_P1, TAG_P2],
        vec![50, 100, 200],
        vec![d1(), d2()],
    );
    (topo, base, spec, vocab)
}

/// Grid-topology scaling workload (many equal-length alternative paths).
pub fn grid_workload(
    rows: usize,
    cols: usize,
) -> (Topology, NetworkConfig, Specification, Vocabulary) {
    let topo = netexpl_topology::builders::grid(rows, cols);
    let pa = topo.router_by_name("Pa").unwrap();
    let pb = topo.router_by_name("Pb").unwrap();
    let mut base = NetworkConfig::new();
    base.originate(pa, d1());
    base.originate(pb, d2());
    let spec = netexpl_spec::parse(
        "dest D1 = 200.7.0.0/16\n\
         dest D2 = 201.0.0.0/16\n\
         Req1 {\n  !(Pa -> ... -> Pb)\n  !(Pb -> ... -> Pa)\n}",
    )
    .unwrap();
    let vocab = Vocabulary::new(
        &topo,
        vec![TAG_P1, TAG_P2],
        vec![50, 100, 200],
        vec![d1(), d2()],
    );
    (topo, base, spec, vocab)
}

/// Clos-fabric scaling workload.
pub fn clos_workload(
    spines: usize,
    leaves: usize,
) -> (Topology, NetworkConfig, Specification, Vocabulary) {
    let topo = netexpl_topology::builders::clos(spines, leaves);
    let pa = topo.router_by_name("Pa").unwrap();
    let pb = topo.router_by_name("Pb").unwrap();
    let mut base = NetworkConfig::new();
    base.originate(pa, d1());
    base.originate(pb, d2());
    let spec = netexpl_spec::parse(
        "dest D1 = 200.7.0.0/16\n\
         dest D2 = 201.0.0.0/16\n\
         Req1 {\n  !(Pa -> ... -> Pb)\n  !(Pb -> ... -> Pa)\n}",
    )
    .unwrap();
    let vocab = Vocabulary::new(
        &topo,
        vec![TAG_P1, TAG_P2],
        vec![50, 100, 200],
        vec![d1(), d2()],
    );
    (topo, base, spec, vocab)
}

/// Line-topology scaling workload.
pub fn line_workload(n: usize) -> (Topology, NetworkConfig, Specification, Vocabulary) {
    let topo = netexpl_topology::builders::line(n);
    let pa = topo.router_by_name("Pa").unwrap();
    let pb = topo.router_by_name("Pb").unwrap();
    let mut base = NetworkConfig::new();
    base.originate(pa, d1());
    base.originate(pb, d2());
    let spec = netexpl_spec::parse(
        "dest D1 = 200.7.0.0/16\n\
         dest D2 = 201.0.0.0/16\n\
         Req1 {\n  !(Pa -> ... -> Pb)\n  !(Pb -> ... -> Pa)\n}",
    )
    .unwrap();
    let vocab = Vocabulary::new(
        &topo,
        vec![TAG_P1, TAG_P2],
        vec![50, 100, 200],
        vec![d1(), d2()],
    );
    (topo, base, spec, vocab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netexpl_spec::check_specification;

    #[test]
    fn scenario_configs_satisfy_their_specs() {
        let (topo, _, net, spec) = scenario1();
        assert!(check_specification(&topo, &net, &spec).is_empty());
        let (topo, _, net, spec) = scenario2();
        assert!(check_specification(&topo, &net, &spec).is_empty());
        let (topo, _, net, spec) = scenario3();
        assert!(check_specification(&topo, &net, &spec).is_empty());
    }

    #[test]
    fn workloads_build() {
        let (topo, base, spec, _) = ring_workload(4);
        assert!(topo.is_connected());
        assert_eq!(base.originations().len(), 2);
        assert_eq!(spec.requirements().count(), 3);
        let (topo, _, spec, _) = line_workload(3);
        assert!(topo.is_connected());
        assert_eq!(spec.requirements().count(), 2);
    }
}
