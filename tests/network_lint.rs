//! Golden network-lint results for the paper's three scenarios.
//!
//! `lint_network` must stay quiet (no error-severity findings) on the
//! known-good scenario configurations, while seeded network-level defects
//! — spec black holes, washed communities, inverted preferences, inert
//! local-prefs, readerless tags — must each produce their stable NE013+
//! code with a blame span into the rendered configuration. Scenario 2's
//! transit leak is a *true positive*: the valley-free warning fires on
//! the unmodified artifact (and traffic really does cross, see the
//! concrete confirmations in `dataflow_soundness.rs`).

mod common;

use common::*;
use netexpl_bgp::Community;
use netexpl_bgp::{Action, RouteMap, RouteMapEntry, SetClause};
use netexpl_lint::{lint_config, lint_network, Code, Severity, Suppressions};

#[test]
fn scenario1_network_lints_without_errors() {
    let (topo, _, net, spec) = scenario1();
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_network(&topo, &spec, &net, Some(&vocab), 0);
    assert!(!diags.has_errors(), "scenario 1:\n{diags}");
    assert!(diags.with_code(Code::ValleyFreeViolation).is_empty());
}

#[test]
fn scenario2_network_lint_finds_the_transit_leak() {
    let (topo, _, net, spec) = scenario2();
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_network(&topo, &spec, &net, Some(&vocab), 0);
    assert!(!diags.has_errors(), "scenario 2:\n{diags}");
    // Scenario 2 has no provider-export filters: provider-learned routes
    // leak to the other provider. The warning names the offending export.
    let valleys = diags.with_code(Code::ValleyFreeViolation);
    assert!(!valleys.is_empty(), "scenario 2 leaks transit:\n{diags}");
    assert!(valleys.iter().all(|d| d.severity == Severity::Warning));
    assert!(
        valleys
            .iter()
            .any(|d| d.span.place.contains("R1 export to P1")
                || d.span.place.contains("R2 export to P2")),
        "{diags}"
    );
}

#[test]
fn scenario3_network_lints_without_errors_or_valleys() {
    let (topo, _, net, spec) = scenario3();
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_network(&topo, &spec, &net, Some(&vocab), 0);
    assert!(!diags.has_errors(), "scenario 3:\n{diags}");
    // The community filters restore valley-freedom.
    assert!(
        diags.with_code(Code::ValleyFreeViolation).is_empty(),
        "{diags}"
    );
    assert!(diags.with_code(Code::SpecBlackHole).is_empty(), "{diags}");
    assert!(
        diags.with_code(Code::PreferenceInversion).is_empty(),
        "{diags}"
    );
}

/// Every entry with a `match` line gets its own NE010/NE011 probes, but
/// the catch-alls' NE011 question, `SAT(domain)`, is the same for all of
/// them and reaches the solver once: on scenario 3 the network lint and
/// the per-map lint each solve 9 probes (14 when every catch-all asked
/// again). The counters are read under a thread-local memory session, so
/// the test is hermetic.
#[test]
fn scenario3_network_lint_asks_the_catch_all_question_once() {
    let (topo, _, net, spec) = scenario3();
    let vocab = paper_vocab(&topo, net.prefixes());
    let (guard, handle) = netexpl_obs::install_memory();
    lint_network(&topo, &spec, &net, Some(&vocab), 0);
    drop(guard);
    assert_eq!(handle.metrics().unwrap().counter("lint.sat.solved"), 9);
    let (guard, handle) = netexpl_obs::install_memory();
    lint_config(&topo, &net, Some(&vocab));
    drop(guard);
    assert_eq!(handle.metrics().unwrap().counter("lint.sat.solved"), 9);
}

/// Seeded defect: R3 denies everything from both upstreams — `Customer ~>
/// D1/D2` and the preference chain become black holes. The blame span
/// points at a denying entry.
#[test]
fn mutated_scenario3_spec_black_hole() {
    let (topo, h, mut net, spec) = scenario3();
    net.router_mut(h.r3)
        .set_import(h.r1, one_entry("R3_from_R1", deny_all(10)));
    net.router_mut(h.r3)
        .set_import(h.r2, one_entry("R3_from_R2", deny_all(10)));
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_network(&topo, &spec, &net, Some(&vocab), 0);
    let holes = diags.with_code(Code::SpecBlackHole);
    assert!(!holes.is_empty(), "{diags}");
    assert!(holes.iter().all(|d| d.severity == Severity::Error));
    assert!(
        holes
            .iter()
            .any(|d| d.span.line.is_some() && d.span.place.contains("R3 import from")),
        "blame should land on a denying entry:\n{diags}"
    );
    assert!(diags.has_errors());
}

/// Seeded defect: R1 washes communities toward R3, so R3's `deny TAG_P2`
/// can never see its tag (NE015) — and the preference filter silently
/// stops working.
#[test]
fn mutated_scenario3_washed_community() {
    let (topo, h, mut net, spec) = scenario3();
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
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_network(&topo, &spec, &net, Some(&vocab), 0);
    let washed = diags.with_code(Code::CommunityWashed);
    assert!(!washed.is_empty(), "{diags}");
    assert!(
        washed
            .iter()
            .any(|d| d.span.place.contains("R3 import from R1")),
        "{diags}"
    );
}

/// Seeded defect: swap Scenario 2's local-prefs so the worse path wins at
/// R3 — the preference requirement inverts (NE016).
#[test]
fn mutated_scenario2_preference_inversion() {
    let (topo, h, mut net, spec) = scenario2();
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
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_network(&topo, &spec, &net, Some(&vocab), 0);
    let inv = diags.with_code(Code::PreferenceInversion);
    assert_eq!(inv.len(), 1, "{diags}");
    assert!(
        inv[0].span.place.contains("R3 import from R2"),
        "blame the worse import's local-pref entry: {}",
        inv[0]
    );
    assert!(inv[0].message.contains("200"), "{}", inv[0]);
}

/// Seeded defect: a local-pref set on an eBGP export is inert (NE019).
#[test]
fn mutated_scenario3_ineffective_local_pref() {
    let (topo, h, mut net, spec) = scenario3();
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
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_network(&topo, &spec, &net, Some(&vocab), 0);
    let inert = diags.with_code(Code::IneffectiveLocalPref);
    assert_eq!(inert.len(), 1, "{diags}");
    assert!(
        inert[0].span.place.contains("R1 export to P1"),
        "{}",
        inert[0]
    );
}

/// Seeded defect: a community set on an internal session but matched
/// nowhere has no reader (NE014). Sets toward external neighbors stay
/// exempt — they may signal the neighboring AS.
#[test]
fn mutated_scenario3_useless_community() {
    let (topo, h, mut net, spec) = scenario3();
    let orphan = Community(100, 9);
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
                    sets: vec![SetClause::LocalPref(200), SetClause::AddCommunity(orphan)],
                },
            ],
        ),
    );
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_network(&topo, &spec, &net, Some(&vocab), 0);
    let useless = diags.with_code(Code::UselessCommunity);
    assert_eq!(useless.len(), 1, "{diags}");
    assert!(useless[0].message.contains("100:9"), "{}", useless[0]);
}

/// Inline suppressions drop matching findings; stale allows surface as
/// NE020 notes.
#[test]
fn suppressions_filter_network_findings() {
    let (topo, _, net, spec) = scenario2();
    let vocab = paper_vocab(&topo, net.prefixes());
    let diags = lint_network(&topo, &spec, &net, Some(&vocab), 0);
    assert!(!diags.with_code(Code::ValleyFreeViolation).is_empty());

    let allow = Suppressions::parse("! netexpl-allow(NE018)\n// netexpl-allow(NE013)");
    let filtered = allow.apply(diags);
    assert!(
        filtered.with_code(Code::ValleyFreeViolation).is_empty(),
        "{filtered}"
    );
    // NE018 matched; NE013 did not and is reported as unused.
    let unused = filtered.with_code(Code::UnusedSuppression);
    assert_eq!(unused.len(), 1, "{filtered}");
    assert!(unused[0].message.contains("NE013"), "{}", unused[0]);
}
