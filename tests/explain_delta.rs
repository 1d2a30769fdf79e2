//! Differential suite for incremental re-explanation (`explain_delta`):
//! after 1–3 random edits — cosmetic (rename, order-preserving renumber)
//! and semantic (flipped actions, new set clauses, replaced or added
//! maps, re-originations) — the delta run's merged explanation must agree
//! with a from-scratch `explain_all` of the edited configuration on every
//! semantic artifact: per-router status, subspecification, sufficiency,
//! and stage verdicts. Reuse is an optimization; any divergence is a bug.

mod common;

use common::gen::{cases_from_env, scenario_over, sized_topology, Scenario};
use common::{customer_prefix, permit_all};
use netexpl_bgp::{Action, NetworkConfig, RouteMap, SetClause};
use netexpl_core::lift::LiftOptions;
use netexpl_core::{
    explain_all, explain_all_cached, explain_delta, ExplainAllOptions, ExplainError, ExplainOptions,
};
use netexpl_logic::term::Ctx;
use netexpl_synth::encode::{EncodeCache, EncodeOptions};
use netexpl_topology::{RouterId, Topology};
use proptest::prelude::*;

/// Deterministic small lift caps (see `tests/explain_all.rs`): identical
/// per router at any worker count, so they cannot perturb the comparison.
fn diff_options() -> ExplainOptions {
    ExplainOptions {
        lift: LiftOptions {
            max_window: 3,
            max_candidates: 24,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// One random edit: an index pick (taken modulo the candidate count, so
/// no generator filter can stall) plus an edit kind.
#[derive(Debug, Clone)]
struct Edit {
    pick: usize,
    kind: u8,
}

fn arb_edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec(
        (any::<usize>(), 0u8..7).prop_map(|(pick, kind)| Edit { pick, kind }),
        1..4,
    )
}

/// Every configured session, in a deterministic order (the config stores
/// routers in a hash map).
fn sessions(net: &NetworkConfig) -> Vec<(RouterId, RouterId, bool)> {
    let mut routers: Vec<RouterId> = net.configured_routers().collect();
    routers.sort_unstable();
    let mut out = Vec::new();
    for r in routers {
        let rc = net.router(r).expect("configured router");
        let mut imports: Vec<RouterId> = rc.imports().map(|(n, _)| n).collect();
        imports.sort_unstable();
        out.extend(imports.into_iter().map(|n| (r, n, false)));
        let mut exports: Vec<RouterId> = rc.exports().map(|(n, _)| n).collect();
        exports.sort_unstable();
        out.extend(exports.into_iter().map(|n| (r, n, true)));
    }
    out
}

fn session_map(net: &NetworkConfig, (r, n, export): (RouterId, RouterId, bool)) -> RouteMap {
    let rc = net.router(r).expect("configured router");
    let found = if export {
        rc.exports().find(|&(nb, _)| nb == n)
    } else {
        rc.imports().find(|&(nb, _)| nb == n)
    };
    found.expect("listed session has a map").1.clone()
}

fn set_session_map(
    net: &mut NetworkConfig,
    (r, n, export): (RouterId, RouterId, bool),
    map: RouteMap,
) {
    if export {
        net.router_mut(r).set_export(n, map);
    } else {
        net.router_mut(r).set_import(n, map);
    }
}

/// Apply one edit to a copy of `net`. Kinds 0–1 are cosmetic (rename,
/// order-preserving renumber), 2–5 are semantic map edits, 6 changes the
/// origination environment (an existing prefix from a new router, so the
/// shared vocabulary still covers both configurations). Some picks
/// degenerate to no-ops (e.g. re-originating from the same router) — the
/// delta engine must handle those too.
fn apply_edit(topo: &Topology, net: &NetworkConfig, edit: &Edit) -> NetworkConfig {
    let mut out = net.clone();
    if edit.kind == 6 {
        let internals: Vec<RouterId> = topo.internal_routers().collect();
        out.originate(internals[edit.pick % internals.len()], customer_prefix());
        return out;
    }
    let sess = sessions(net);
    if sess.is_empty() {
        return out;
    }
    let target = sess[edit.pick % sess.len()];
    let mut map = session_map(net, target);
    match edit.kind {
        0 => map.name = format!("{}_v2", map.name),
        1 => {
            for (i, e) in map.entries.iter_mut().enumerate() {
                e.seq = (i as u32 + 1) * 97;
            }
        }
        2 => {
            let i = edit.pick % map.entries.len();
            let e = &mut map.entries[i];
            e.action = match e.action {
                Action::Permit => Action::Deny,
                Action::Deny => Action::Permit,
            };
        }
        3 => {
            let i = edit.pick % map.entries.len();
            map.entries[i].sets.push(SetClause::LocalPref(150));
        }
        4 => map = RouteMap::new(&map.name, vec![permit_all(10)]),
        _ => {
            // Add a map where none exists; fall back to a replace when
            // every session already carries one.
            let bare = topo
                .internal_routers()
                .flat_map(|r| topo.neighbors(r).iter().map(move |&n| (r, n, true)))
                .find(|s| !sess.contains(s));
            match bare {
                Some(s) => {
                    set_session_map(&mut out, s, RouteMap::new("m_added", vec![permit_all(10)]));
                    return out;
                }
                None => map = RouteMap::new(&map.name, vec![permit_all(10)]),
            }
        }
    }
    set_session_map(&mut out, target, map);
    out
}

fn run_options(workers: usize) -> ExplainAllOptions {
    ExplainAllOptions {
        explain: diff_options(),
        workers,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(cases_from_env(4))]

    // Three whole-pipeline legs per case (prior + delta + scratch), so
    // the suite sticks to the small end of the generator's size range.
    #[test]
    fn delta_agrees_with_from_scratch_under_random_edits(
        s in scenario_over(sized_topology(1usize..4)),
        edits in arb_edits(),
        many_workers in proptest::bool::ANY,
    ) {
        let Scenario { topo, net, spec, selector } = s;
        let workers = if many_workers { 4 } else { 1 };
        let mut edited = net.clone();
        for e in &edits {
            edited = apply_edit(&topo, &edited, e);
        }

        let vocab = common::paper_vocab(&topo, net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let cache = EncodeCache::build(
            &mut ctx, &topo, &vocab, sorts, &net, EncodeOptions::default(),
        )
        .unwrap();
        let prior = match explain_all_cached(
            &mut ctx, &topo, &vocab, sorts, &net, &spec, &selector,
            run_options(workers), &cache,
        ) {
            Ok(p) => p,
            // A session selector may match nothing anywhere; there is no
            // prior to patch, which is not the delta contract under test.
            Err(ExplainError::NothingSymbolized) => return Ok(()),
            Err(e) => {
                prop_assert!(false, "prior run failed: {e}");
                unreachable!()
            }
        };

        let delta = explain_delta(
            &mut ctx, &topo, &vocab, sorts, &net, &edited, &spec, &selector,
            run_options(workers), prior, &cache,
        );

        let mut scratch_ctx = Ctx::new();
        let scratch_sorts = vocab.sorts(&mut scratch_ctx);
        let scratch = explain_all(
            &mut scratch_ctx, &topo, &vocab, scratch_sorts, &edited, &spec,
            &selector, run_options(workers),
        );

        let (delta, scratch) = match (delta, scratch) {
            (Ok(d), Ok(f)) => (d, f),
            // Both runs must agree even when the edited configuration is
            // unexplainable (e.g. the edit emptied the selector's match).
            (Err(_), Err(_)) => return Ok(()),
            (d, f) => {
                prop_assert!(
                    false,
                    "verdict diverged: delta ok={}, scratch ok={}",
                    d.is_ok(),
                    f.is_ok()
                );
                unreachable!()
            }
        };

        prop_assert_eq!(
            delta.reused + delta.recomputed,
            topo.router_ids().count(),
            "reuse accounting must cover every router"
        );
        prop_assert_eq!(delta.explanation.routers.len(), scratch.routers.len());
        for (d, f) in delta.explanation.routers.iter().zip(&scratch.routers) {
            prop_assert_eq!(&d.router, &f.router);
            prop_assert_eq!(
                d.outcome.status(), f.outcome.status(),
                "status diverged on {} (edits: {:?})", d.router, edits
            );
            if let (Some(de), Some(fe)) = (d.outcome.explanation(), f.outcome.explanation()) {
                prop_assert_eq!(
                    de.subspec.to_string(), fe.subspec.to_string(),
                    "subspec diverged on {} (edits: {:?})", d.router, edits
                );
                prop_assert_eq!(
                    de.lift_complete, fe.lift_complete,
                    "sufficiency diverged on {}", d.router
                );
                prop_assert_eq!(
                    &de.verdicts.simplify, &fe.verdicts.simplify,
                    "simplify verdict diverged on {}", d.router
                );
                prop_assert_eq!(
                    &de.verdicts.lift, &fe.verdicts.lift,
                    "lift verdict diverged on {}", d.router
                );
            }
        }
    }
}
