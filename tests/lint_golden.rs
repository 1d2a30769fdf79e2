//! Golden lint results for the paper's three scenarios.
//!
//! The synthesized (NetComplete-style) configurations of Scenarios 1–3
//! must lint *clean* — zero error-severity diagnostics — while deliberate
//! mutations of the same artifacts must each produce their expected
//! stable diagnostic code. This pins both directions: the linter stays
//! quiet on known-good output and loud on known-bad shapes.

mod common;

use common::*;
use netexpl_bgp::{Action, MatchClause, RouteMap, RouteMapEntry};
use netexpl_core::symbolize::{Dir, Selector};
use netexpl_lint::{lint_config, lint_network, lint_problem, lint_selector, lint_spec, Code};
use netexpl_topology::Prefix;

fn pfx(s: &str) -> Prefix {
    s.parse().unwrap()
}

#[test]
fn scenario1_lints_clean() {
    let (topo, _, net, spec) = scenario1();
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_problem(&topo, &spec, &net, Some(&vocab));
    assert!(
        !diags.has_errors(),
        "scenario 1 should lint clean:\n{diags}"
    );
}

#[test]
fn scenario2_lints_clean() {
    let (topo, _, net, spec) = scenario2();
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_problem(&topo, &spec, &net, Some(&vocab));
    assert!(
        !diags.has_errors(),
        "scenario 2 should lint clean:\n{diags}"
    );
}

#[test]
fn scenario3_lints_clean() {
    let (topo, _, net, spec) = scenario3();
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_problem(&topo, &spec, &net, Some(&vocab));
    assert!(
        !diags.has_errors(),
        "scenario 3 should lint clean:\n{diags}"
    );
}

/// Mutation: swap Scenario 1's `R1_to_P1` entries so the catch-all comes
/// first. The selective entry behind it is structurally shadowed (NE006).
#[test]
fn mutated_scenario1_shadowed_clause() {
    let (topo, h, mut net, spec) = scenario1();
    net.router_mut(h.r1).set_export(
        h.p1,
        RouteMap::new(
            "R1_to_P1",
            vec![
                deny_all(1),
                RouteMapEntry {
                    seq: 100,
                    action: Action::Deny,
                    matches: vec![MatchClause::PrefixList(vec![customer_prefix()])],
                    sets: vec![],
                },
            ],
        ),
    );
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_problem(&topo, &spec, &net, Some(&vocab));
    assert_eq!(diags.with_code(Code::ShadowedEntry).len(), 1, "{diags}");
    let d = diags.with_code(Code::ShadowedEntry)[0];
    assert!(
        d.span.line.is_some(),
        "shadowing should carry a config span: {d}"
    );
}

/// Mutation only the SAT pass can see: `200.0.0.0/8` strictly contains
/// the vocabulary destination `200.7.0.0/16`, so the second entry is
/// unreachable — but its clause list is *not* a syntactic superset of
/// the first entry's, so the structural pass stays silent.
#[test]
fn mutated_scenario1_sat_only_shadowing() {
    let (topo, h, mut net, spec) = scenario1();
    net.router_mut(h.r1).set_import(
        h.p1,
        RouteMap::new(
            "R1_from_P1",
            vec![
                RouteMapEntry {
                    seq: 10,
                    action: Action::Permit,
                    matches: vec![MatchClause::PrefixList(vec![pfx("200.0.0.0/8")])],
                    sets: vec![],
                },
                RouteMapEntry {
                    seq: 20,
                    action: Action::Deny,
                    matches: vec![MatchClause::PrefixList(vec![d1()])],
                    sets: vec![],
                },
            ],
        ),
    );
    let vocab = paper_vocab(&topo, net.prefixes());

    // Structural passes alone: silent.
    let structural = lint_config(&topo, &net, None);
    assert!(
        structural.with_code(Code::ShadowedEntry).is_empty(),
        "{structural}"
    );
    assert!(
        structural.with_code(Code::UnreachableEntry).is_empty(),
        "{structural}"
    );

    // With the SAT pass: entry `deny 20` is provably dead, and the
    // network lint's SAT pass reports the same single finding.
    let per_map = lint_problem(&topo, &spec, &net, Some(&vocab));
    let network = lint_network(&topo, &spec, &net, Some(&vocab), 0);
    for diags in [per_map, network] {
        let dead = diags.with_code(Code::UnreachableEntry);
        assert_eq!(dead.len(), 1, "{diags}");
        assert!(dead[0].message.contains("deny 20"), "{}", dead[0]);
    }
}

/// Mutation: attach a route map to a session that has no link (R1–P2).
#[test]
fn mutated_scenario1_dangling_route_map() {
    let (topo, h, mut net, spec) = scenario1();
    net.router_mut(h.r1)
        .set_export(h.p2, RouteMap::new("R1_to_P2", vec![permit_all(10)]));
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_problem(&topo, &spec, &net, Some(&vocab));
    assert_eq!(diags.with_code(Code::DanglingSession).len(), 1, "{diags}");
}

/// Mutation: add the reversed preference to Scenario 2's spec — the two
/// chains now form a cycle, an error-severity finding.
#[test]
fn mutated_scenario2_cyclic_preference() {
    let (topo, _, net, mut spec) = scenario2();
    let reversed = netexpl_spec::parse(
        "mode strict\n\
         dest D1 = 200.7.0.0/16\n\
         Req2b {\n\
           (Customer -> R3 -> R2 -> P2 -> ... -> D1)\n\
           >> (Customer -> R3 -> R1 -> P1 -> ... -> D1)\n\
         }",
    )
    .unwrap();
    for (name, reqs) in reversed.blocks {
        spec.block(&name, reqs);
    }
    let diags = lint_spec(&topo, &spec, Some(&net));
    assert!(
        !diags.with_code(Code::PreferenceCycle).is_empty(),
        "{diags}"
    );
    assert!(
        diags.has_errors(),
        "a preference cycle is an error:\n{diags}"
    );
}

/// Mutation: a deny-only map with selective matches and no catch-all —
/// the implicit-deny fallthrough drops everything (NE007).
#[test]
fn mutated_scenario2_implicit_deny_fallthrough() {
    let (topo, h, mut net, spec) = scenario2();
    net.router_mut(h.r3).set_import(
        h.r1,
        RouteMap::new("R3_from_R1", vec![deny_community(10, TAG_P2)]),
    );
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_problem(&topo, &spec, &net, Some(&vocab));
    assert_eq!(diags.with_code(Code::ImplicitDenyAll).len(), 1, "{diags}");
}

/// Mutation: match a community nobody sets (NE009) — Scenario 2 without
/// the R2 import map that tags TAG_P2.
#[test]
fn mutated_scenario2_unset_community() {
    let (topo, h, mut net, spec) = scenario2();
    net.router_mut(h.r2)
        .set_import(h.p2, RouteMap::new("R2_from_P2", vec![permit_all(10)]));
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_problem(&topo, &spec, &net, Some(&vocab));
    // R3_from_R1 still matches TAG_P2, which nothing sets any more.
    assert_eq!(diags.with_code(Code::UnsetCommunity).len(), 1, "{diags}");
}

/// The `explain` pre-flight: selectors over the scenario configs that
/// cover nothing must produce NE012 instead of a silent empty report.
#[test]
fn zero_coverage_selectors_rejected() {
    let (topo, h, net, _) = scenario1();
    // R1 exports to P1 (2 entries) but has no import map from P1.
    let ds = lint_selector(
        &topo,
        &net,
        h.r1,
        &Selector::Session {
            neighbor: h.p1,
            dir: Dir::Import,
        },
    );
    assert_eq!(ds.with_code(Code::EmptySelector).len(), 1, "{ds}");
    assert!(ds.has_errors());
    // Out-of-range entry index on a live session.
    let ds = lint_selector(
        &topo,
        &net,
        h.r1,
        &Selector::Entry {
            neighbor: h.p1,
            dir: Dir::Export,
            entry: 2,
        },
    );
    assert_eq!(ds.with_code(Code::EmptySelector).len(), 1, "{ds}");
    // A covered selector stays clean.
    let ds = lint_selector(&topo, &net, h.r1, &Selector::Router);
    assert!(ds.is_empty(), "{ds}");
}

/// Sanity: an artifact with several seeded defects reports them all in
/// one run, errors first.
#[test]
fn combined_report_orders_errors_first() {
    let (topo, h, mut net, spec) = scenario1();
    net.router_mut(h.r1)
        .set_export(h.p2, RouteMap::new("R1_to_P2", vec![permit_all(10)]));
    let mut spec = spec;
    let bad = netexpl_spec::parse("ReqX {\n  !(Q9 -> ... -> P2)\n}").unwrap();
    for (name, reqs) in bad.blocks {
        spec.block(&name, reqs);
    }
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_problem(&topo, &spec, &net, Some(&vocab));
    assert!(diags.has_errors(), "{diags}");
    assert!(diags.len() >= 2, "{diags}");
    let first = diags.iter().next().unwrap();
    assert_eq!(first.severity, netexpl_lint::Severity::Error, "{diags}");
}

#[test]
fn scenario_configs_lint_clean_without_sat_too() {
    for (topo, net) in [
        {
            let (t, _, n, _) = scenario1();
            (t, n)
        },
        {
            let (t, _, n, _) = scenario2();
            (t, n)
        },
        {
            let (t, _, n, _) = scenario3();
            (t, n)
        },
    ] {
        let diags = lint_config(&topo, &net, None);
        assert!(!diags.has_errors(), "{diags}");
    }
}
