//! Differential suite for the model-filtered lifter: the session lifter
//! decides most candidates from cached SAT witnesses instead of issuing
//! queries, and must still reach exactly the answers of the unfiltered
//! fresh-solver lifter — the same subspecification, rejected set,
//! provenance, completeness and `candidates_checked`. A witness only ever
//! proves a fact about the seed, so any divergence is a bug.
//!
//! The suite also covers budget soundness: under a tiny conflict cap
//! either backend may degrade (interrupt earlier, check fewer candidates)
//! but must never *flip* a verdict — no candidate kept by the unbudgeted
//! ground truth is ever rejected by a budgeted run, and no candidate
//! rejected by ground truth is ever kept.
//!
//! `LiftOptions::incremental` selects the backend: `true` (the default) is
//! the session lifter, `false` the fresh-solver oracle.

mod common;

use common::gen::{cases_from_env, scenario_over, sized_topology, Scenario};
use common::{only_blocks, paper_vocab, scenario2, scenario3};
use netexpl_bgp::NetworkConfig;
use netexpl_core::symbolize::{symbolize, Dir, Selector};
use netexpl_core::{lift, seed_spec, LiftOptions, LiftResult};
use netexpl_logic::budget::{Budget, InterruptReason};
use netexpl_logic::term::Ctx;
use netexpl_spec::Requirement;
use netexpl_spec::Specification;
use netexpl_synth::encode::EncodeOptions;
use netexpl_synth::sketch::HoleFactory;
use netexpl_synth::vocab::Vocabulary;
use netexpl_topology::{RouterId, Topology};
use proptest::prelude::*;

/// Everything the lifter decides, as comparable data.
type Fingerprint = (String, bool, usize, Vec<Requirement>, Vec<Vec<String>>);

fn fingerprint(r: &LiftResult) -> Fingerprint {
    (
        r.subspec.to_string(),
        r.complete,
        r.candidates_checked,
        r.rejected.clone(),
        r.provenance.clone(),
    )
}

/// Symbolize → seed → lift for one router in a fresh context. `None` when
/// the selector matches nothing at this router.
#[allow(clippy::too_many_arguments)]
fn lift_router(
    topo: &Topology,
    net: &NetworkConfig,
    spec: &Specification,
    vocab: &Vocabulary,
    selector: &Selector,
    r: RouterId,
    encode: EncodeOptions,
    options: LiftOptions,
) -> Option<LiftResult> {
    let mut ctx = Ctx::new();
    let sorts = vocab.sorts(&mut ctx);
    let factory = HoleFactory::new(vocab, sorts);
    let (sym, table) = symbolize(&mut ctx, &factory, topo, net, r, selector);
    if table.is_empty() {
        return None;
    }
    let seed = seed_spec(&mut ctx, topo, vocab, sorts, &sym, spec, encode).ok()?;
    Some(lift(&mut ctx, topo, spec, &seed, r, options))
}

fn options(incremental: bool) -> LiftOptions {
    LiftOptions {
        max_window: 4,
        max_candidates: 48,
        incremental,
        ..Default::default()
    }
}

/// Smaller deterministic caps for the budget suite, whose cases lift
/// every router several times in a debug build. They bound candidate
/// enumeration, which no budget can perturb.
fn small_options(incremental: bool) -> LiftOptions {
    LiftOptions {
        max_window: 3,
        max_candidates: 24,
        incremental,
        ..Default::default()
    }
}

fn scenario_lift(s: &Scenario, r: RouterId, options: LiftOptions) -> Option<LiftResult> {
    lift_router(
        &s.topo,
        &s.net,
        &s.spec,
        &s.vocab(),
        &s.selector,
        r,
        EncodeOptions::default(),
        options,
    )
}

proptest! {
    #![proptest_config(cases_from_env(6))]

    #[test]
    fn filtered_session_lifter_matches_the_fresh_oracle(
        s in scenario_over(sized_topology(1usize..4)),
    ) {
        for r in s.topo.internal_routers().collect::<Vec<_>>() {
            let Some(oracle) = scenario_lift(&s, r, options(false)) else {
                continue;
            };
            prop_assert!(oracle.interrupt.is_none());
            let filtered = scenario_lift(&s, r, options(true))
                .expect("symbolization does not depend on the lift options");
            prop_assert!(filtered.interrupt.is_none());
            prop_assert_eq!(
                fingerprint(&oracle),
                fingerprint(&filtered),
                "lift diverged at {}",
                s.topo.name(r)
            );
        }
    }
}

proptest! {
    #![proptest_config(cases_from_env(4))]

    // Budget soundness: a conflict cap costs completeness, never
    // soundness. Ground truth is the unbudgeted session lifter; budgeted
    // runs on either backend may check fewer candidates, but every verdict
    // they *do* reach is a fact about the seed and must agree.
    #[test]
    fn tiny_conflict_caps_never_flip_verdicts(
        s in scenario_over(sized_topology(1usize..3)),
        max_conflicts in 1u64..8,
    ) {
        for r in s.topo.internal_routers().collect::<Vec<_>>() {
            let Some(ground) = scenario_lift(&s, r, small_options(true)) else {
                break;
            };
            prop_assert!(ground.interrupt.is_none());
            let capped = Budget::unlimited().max_conflicts(max_conflicts);
            for incremental in [true, false] {
                let budgeted = scenario_lift(
                    &s,
                    r,
                    LiftOptions {
                        budget: capped.clone(),
                        ..small_options(incremental)
                    },
                )
                .expect("symbolization emptiness is options-independent");
                for req in &budgeted.subspec.requirements {
                    prop_assert!(
                        !ground.rejected.contains(req),
                        "budgeted lift kept a requirement ground truth rejected \
                         at {} (incremental {incremental}): {req:?}",
                        s.topo.name(r)
                    );
                }
                for req in &ground.subspec.requirements {
                    prop_assert!(
                        !budgeted.rejected.contains(req),
                        "budgeted lift rejected a requirement ground truth kept \
                         at {} (incremental {incremental}): {req:?}",
                        s.topo.name(r)
                    );
                }
                match &budgeted.interrupt {
                    // Without an interrupt the budget never fired, so the
                    // budgeted run must replay ground truth exactly.
                    None => prop_assert_eq!(
                        fingerprint(&budgeted),
                        fingerprint(&ground),
                        "uninterrupted budgeted lift diverged at {} (incremental {})",
                        s.topo.name(r),
                        incremental
                    ),
                    Some(i) => {
                        prop_assert_eq!(
                            i.reason,
                            InterruptReason::Conflicts,
                            "only the conflict cap may interrupt here"
                        );
                        prop_assert!(!budgeted.complete, "interrupted lift cannot be complete");
                    }
                }
            }
        }
    }
}

/// Scenario 2's R3 (the paper's Figure 4): the filter decides most
/// candidates from witnesses — 16 session queries where the unfiltered
/// lifter issues one per check — with the oracle's exact answer.
#[test]
fn scenario2_r3_is_mostly_model_filtered() {
    let (topo, h, net, spec) = scenario2();
    let vocab = paper_vocab(&topo, net.prefixes());
    let run = |incremental: bool| {
        let (guard, handle) = netexpl_obs::install_memory();
        let result = lift_router(
            &topo,
            &net,
            &spec,
            &vocab,
            &Selector::Router,
            h.r3,
            EncodeOptions {
                max_path_len: topo.num_routers(),
            },
            LiftOptions {
                incremental,
                ..Default::default()
            },
        )
        .expect("R3 has configuration to symbolize");
        drop(guard);
        (result, handle.metrics().expect("metrics recorded"))
    };

    let (oracle, oracle_metrics) = run(false);
    assert!(oracle.complete);
    assert_eq!(oracle_metrics.counter("lift.model_filtered"), 0);

    let (filtered, metrics) = run(true);
    assert_eq!(fingerprint(&filtered), fingerprint(&oracle));
    assert_eq!(metrics.counter("session.queries"), 16);
    assert!(metrics.counter("lift.model_filtered") > 0);
    assert_eq!(
        metrics.counter("lift.candidate_checks"),
        filtered.candidates_checked as u64
    );
}

/// The paper's running example (scenario 3, `Req1`, lifting at `R2` under
/// the session selector toward `P2`, Figure 5). Pinned so the filter is
/// checked against the oracle on a realistic, non-generated seed too.
#[test]
fn paper_example_r2_matches_the_fresh_oracle() {
    let (topo, h, net, spec) = scenario3();
    let spec = only_blocks(&spec, &["Req1"]);
    let vocab = paper_vocab(&topo, net.prefixes());
    let run = |incremental: bool| {
        lift_router(
            &topo,
            &net,
            &spec,
            &vocab,
            &Selector::Session {
                neighbor: h.p2,
                dir: Dir::Export,
            },
            h.r2,
            EncodeOptions {
                max_path_len: topo.num_routers(),
            },
            LiftOptions {
                incremental,
                ..Default::default()
            },
        )
        .expect("R2's export to P2 has configuration to symbolize")
    };

    let filtered = run(true);
    assert!(filtered.interrupt.is_none());
    assert!(
        !filtered.subspec.is_empty(),
        "the paper example must constrain R2"
    );
    assert!(filtered.complete, "{}", filtered.subspec);
    assert_eq!(fingerprint(&filtered), fingerprint(&run(false)));
}
