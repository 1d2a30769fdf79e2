//! Fault-injection matrix: every injection site, armed one at a time, must
//! degrade the pipeline to a typed error or an interrupted-but-sound result —
//! never a panic, and never a silently wrong answer.
//!
//! The soundness half of the contract is checked against an unfaulted
//! baseline: whenever a faulted run claims a fully verified result, that
//! result must be byte-identical to the baseline's.

mod common;

use common::*;
use netexpl_core::symbolize::Dir;
use netexpl_core::{explain, ExplainError, ExplainOptions, Explanation, Selector};
use netexpl_logic::budget::InterruptReason;
use netexpl_logic::term::Ctx;
use netexpl_synth::sketch::HoleFactory;
use netexpl_synth::synthesize::{
    default_sketch, synthesize, SynthError, SynthOptions, SynthResult,
};

/// Scenario 3's Req1 explanation at R2's export to P2 (Figure 5).
fn run_explain() -> Result<Explanation, ExplainError> {
    let (topo, h, net, spec) = scenario3();
    let req1 = only_blocks(&spec, &["Req1"]);
    let vocab = paper_vocab(&topo, net.prefixes());
    let mut ctx = Ctx::new();
    let sorts = vocab.sorts(&mut ctx);
    explain(
        &mut ctx,
        &topo,
        &vocab,
        sorts,
        &net,
        &req1,
        h.r2,
        &Selector::Session {
            neighbor: h.p2,
            dir: Dir::Export,
        },
        ExplainOptions::default(),
    )
}

/// The no-transit spec synthesized from a default sketch.
fn run_synth() -> Result<SynthResult, SynthError> {
    let (topo, h) = netexpl_topology::builders::paper_topology();
    let mut base = netexpl_bgp::NetworkConfig::new();
    base.originate(h.p1, d1());
    base.originate(h.p2, d2());
    let spec = netexpl_spec::parse(
        "Req1 {\n\
           !(P1 -> ... -> P2)\n\
           !(P2 -> ... -> P1)\n\
         }",
    )
    .unwrap();
    let vocab = paper_vocab(&topo, vec![d1(), d2()]);
    let mut ctx = Ctx::new();
    let sorts = vocab.sorts(&mut ctx);
    let factory = HoleFactory::new(&vocab, sorts);
    let sketch = default_sketch(&mut ctx, &topo, &factory, &base);
    synthesize(
        &mut ctx,
        &topo,
        &vocab,
        sorts,
        &sketch,
        &spec,
        SynthOptions::default(),
    )
}

#[test]
fn every_site_degrades_explain_gracefully() {
    let baseline = run_explain().expect("unfaulted explain must succeed");
    assert!(baseline.verdicts.all_verified());
    // Sites whose armed fault visibly fired (degraded or typed error).
    let mut fired: Vec<&str> = Vec::new();
    for &site in netexpl_faults::sites::ALL {
        let _g = netexpl_faults::arm(site);
        match run_explain() {
            Ok(expl) => {
                if expl.verdicts.all_verified() {
                    // The fault site was off this pipeline's path; claiming
                    // full verification is only sound if the result matches
                    // the unfaulted baseline exactly.
                    assert_eq!(
                        expl.subspec.to_string(),
                        baseline.subspec.to_string(),
                        "site {site}: verified result diverges from baseline"
                    );
                } else {
                    // Degraded: the interrupt trail must name the injected
                    // fault, and rendering the partial result must not panic.
                    assert!(
                        expl.verdicts
                            .interrupts
                            .iter()
                            .any(|i| i.reason == InterruptReason::Fault),
                        "site {site}: degraded without a fault interrupt"
                    );
                    let shown = expl.to_string();
                    assert!(shown.contains("PARTIAL RESULT"), "site {site}:\n{shown}");
                    fired.push(site);
                }
            }
            Err(e) => {
                // A typed error with a non-empty rendering is a valid
                // degradation; a panic would have failed the test already.
                assert!(!e.to_string().is_empty(), "site {site}");
                fired.push(site);
            }
        }
    }
    // Guard-armed faults fire on the arming thread only; explain runs on
    // this thread, so every site on its path must still fire.
    let mut expected = vec![
        "sat.search",
        "encode.paths",
        "seed.encode",
        "simplify.pass",
        "lift.candidate",
        "session.query",
    ];
    fired.sort_unstable();
    expected.sort_unstable();
    assert_eq!(fired, expected, "sites that fired");
}

/// Mid-session fault injection: arming `session.query` between queries of
/// a live [`SmtSession`] must degrade only the in-flight query to
/// `Unknown(Fault)`. Answers produced before the fault stay valid, and the
/// session keeps answering correctly once the fault is disarmed — the
/// persistent solver state survives the interruption.
#[test]
fn mid_session_fault_interrupts_only_the_inflight_query() {
    use netexpl_logic::{SmtResult, SmtSession};

    let mut ctx = Ctx::new();
    let a = ctx.bool_var("a");
    let b = ctx.bool_var("b");
    let ab = ctx.or2(a, b);
    let mut session = SmtSession::new();
    session.assert(&mut ctx, &[ab]);

    // Query 1, unfaulted: the base is satisfiable.
    assert!(matches!(
        session.check_assuming(&mut ctx, &[]).0,
        SmtResult::Sat(_)
    ));

    // Query 2, with the fault armed: Unknown, attributed to the fault.
    {
        let _g = netexpl_faults::arm(netexpl_faults::sites::SESSION_QUERY);
        match session.check_assuming(&mut ctx, &[]).0 {
            SmtResult::Unknown(i) => assert_eq!(i.reason, InterruptReason::Fault),
            other => panic!("armed session query must return Unknown, got {other:?}"),
        }
    }

    // Queries 3/4, disarmed: the same session still answers both
    // polarities correctly — nothing latched from the fault.
    let na = ctx.not(a);
    let nb = ctx.not(b);
    assert!(matches!(
        session.check_assuming(&mut ctx, &[]).0,
        SmtResult::Sat(_)
    ));
    assert!(matches!(
        session.check_assuming(&mut ctx, &[na, nb]).0,
        SmtResult::Unsat
    ));
}

/// Same contract for budget exhaustion: a deadline that expires between
/// queries turns the next query into `Unknown(Deadline)` without
/// corrupting the session; restoring headroom restores full answers.
#[test]
fn mid_session_budget_exhaustion_is_transient() {
    use netexpl_logic::budget::Budget;
    use netexpl_logic::{SmtResult, SmtSession};

    let mut ctx = Ctx::new();
    let a = ctx.bool_var("a");
    let b = ctx.bool_var("b");
    let ab = ctx.or2(a, b);
    let mut session = SmtSession::new();
    session.assert(&mut ctx, &[ab]);
    assert!(matches!(
        session.check_assuming(&mut ctx, &[]).0,
        SmtResult::Sat(_)
    ));

    session.set_budget(Budget::unlimited().deadline_in(std::time::Duration::ZERO));
    match session.check_assuming(&mut ctx, &[]).0 {
        SmtResult::Unknown(i) => assert_eq!(i.reason, InterruptReason::Deadline),
        other => panic!("exhausted budget must return Unknown, got {other:?}"),
    }

    session.set_budget(Budget::unlimited());
    let na = ctx.not(a);
    let nb = ctx.not(b);
    assert!(matches!(
        session.check_assuming(&mut ctx, &[na, nb]).0,
        SmtResult::Unsat
    ));
}

#[test]
fn every_site_degrades_synthesis_gracefully() {
    let (topo, _) = netexpl_topology::builders::paper_topology();
    let baseline = run_synth().expect("unfaulted synthesis must succeed");
    // Sites whose armed fault visibly fired (a typed error).
    let mut fired: Vec<&str> = Vec::new();
    for &site in netexpl_faults::sites::ALL {
        let _g = netexpl_faults::arm(site);
        match run_synth() {
            Ok(result) => {
                // The site was off the synthesis path; the validated config
                // must match the deterministic baseline.
                assert_eq!(
                    result.config.render(&topo),
                    baseline.config.render(&topo),
                    "site {site}: config diverges from baseline"
                );
            }
            Err(SynthError::Unsat) => {
                panic!("site {site}: fault must not masquerade as Unsat");
            }
            Err(SynthError::ValidationFailed(vs)) => {
                panic!("site {site}: fault must not corrupt a synthesized config: {vs:?}");
            }
            Err(e @ (SynthError::Encode(_) | SynthError::Interrupted(_))) => {
                assert!(!e.to_string().is_empty(), "site {site}");
                fired.push(site);
            }
        }
    }
    // As above: synthesis runs on this thread, so its sites still fire.
    assert_eq!(
        fired,
        ["sat.search", "encode.paths", "session.query"],
        "sites that fired"
    );
}
