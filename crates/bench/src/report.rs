//! Per-scenario observability report: runs the explanation pipeline on the
//! paper's three scenarios under an in-memory obs session and collects the
//! stage-span timings, sizes, rewrite-rule firings, and solver counters into
//! one JSON document (written by `netexpl bench` as `BENCH_explain.json`).

use std::time::Instant;

use netexpl_core::symbolize::{Dir, Selector};
use netexpl_core::{explain, explain_all, ExplainAllOptions, ExplainError, ExplainOptions};
use netexpl_logic::budget::Budget;
use netexpl_logic::term::Ctx;
use netexpl_spec::Specification;
use netexpl_topology::{RouterId, Topology};
use serde_json::Value;

use crate::{only_blocks, paper_vocab, scenario1, scenario2, scenario3};

/// One scenario of the report: which config/spec to explain, at which
/// router, through which selector.
struct Case {
    name: &'static str,
    topo: Topology,
    net: netexpl_bgp::NetworkConfig,
    spec: Specification,
    router: RouterId,
    selector: Selector,
}

fn cases() -> Vec<Case> {
    let (topo, h, net, spec) = scenario1();
    let c1 = Case {
        name: "scenario1",
        topo,
        net,
        spec,
        router: h.r1,
        selector: Selector::Entry {
            neighbor: h.p1,
            dir: Dir::Export,
            entry: 1,
        },
    };
    let (topo, h, net, spec) = scenario2();
    let c2 = Case {
        name: "scenario2",
        topo,
        net,
        spec,
        router: h.r3,
        selector: Selector::Router,
    };
    let (topo, h, net, spec) = scenario3();
    let req1 = only_blocks(&spec, &["Req1"]);
    let c3 = Case {
        name: "scenario3",
        topo,
        net,
        spec: req1,
        router: h.r2,
        selector: Selector::Session {
            neighbor: h.p2,
            dir: Dir::Export,
        },
    };
    vec![c1, c2, c3]
}

/// Run one case under a fresh in-memory obs session and render what the
/// collector captured as a JSON object.
fn run_case(case: &Case, budget: &Budget) -> Result<Value, String> {
    let (guard, handle) = netexpl_obs::install_memory();
    let vocab = paper_vocab(&case.topo, case.net.prefixes());
    let mut ctx = Ctx::new();
    let sorts = vocab.sorts(&mut ctx);
    let expl = explain(
        &mut ctx,
        &case.topo,
        &vocab,
        sorts,
        &case.net,
        &case.spec,
        case.router,
        &case.selector,
        ExplainOptions {
            budget: budget.clone(),
            ..Default::default()
        },
    )
    .map_err(|e| format!("{}: {e}", case.name))?;
    drop(guard); // flush metrics into the handle

    let spans = handle.spans();
    let stages: Vec<(String, Value)> = spans
        .iter()
        .map(|s| (s.name.to_string(), Value::from(s.wall_ms())))
        .collect();
    let metrics = handle.metrics().unwrap_or_default();
    let counters: Vec<(String, Value)> = metrics
        .counters()
        .map(|(name, v)| (name.to_string(), Value::from(v)))
        .collect();
    let rules: Vec<(String, Value)> = expl
        .rule_stats
        .per_rule()
        .filter(|&(_, n)| n > 0)
        .map(|(name, n)| (name.to_string(), Value::from(n)))
        .collect();
    Ok(Value::object([
        ("scenario", Value::from(case.name)),
        ("router", Value::from(expl.router.as_str())),
        ("stage_ms", Value::object(stages)),
        ("seed_conjuncts", Value::from(expl.seed_conjuncts)),
        ("seed_nodes", Value::from(expl.seed_size)),
        (
            "simplified_conjuncts",
            Value::from(expl.simplified_conjuncts),
        ),
        ("simplified_nodes", Value::from(expl.simplified_size)),
        ("rule_firings", Value::from(expl.rule_stats.total())),
        ("rules_fired", Value::object(rules)),
        ("exact", Value::from(expl.lift_complete)),
        ("partial", Value::from(!expl.verdicts.all_verified())),
        (
            "verdicts",
            Value::object([
                ("simplify", Value::from(expl.verdicts.simplify.as_str())),
                ("lift", Value::from(expl.verdicts.lift.as_str())),
            ]),
        ),
        (
            "interrupts",
            Value::from(
                expl.verdicts
                    .interrupts
                    .iter()
                    .map(|i| Value::from(i.reason.as_str()))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("counters", Value::object(counters)),
    ]))
}

/// Network-wide section: the paper scenario (no-transit requirement on
/// the community-filtered configuration) explained at *every* router,
/// first sequentially — independent per-router [`explain`] calls, each in
/// a fresh context with no shared encoding — then in parallel via
/// [`explain_all`] with the shared encoding cache. Records per-router
/// times both ways plus the wall-clock speedup.
pub fn network_report_with(budget: &Budget, workers: usize) -> Result<Value, String> {
    let (topo, _h, net, spec) = scenario3();
    let spec = only_blocks(&spec, &["Req1"]);
    let vocab = paper_vocab(&topo, net.prefixes());

    // Sequential baseline: what a naive `for router in topo` loop costs.
    // Instrumented like the parallel run (its own obs session, discarded)
    // so both sides pay the same span/counter overhead.
    let (seq_guard, _seq_handle) = netexpl_obs::install_memory();
    let mut sequential = Vec::new();
    let seq_started = Instant::now();
    for r in topo.router_ids() {
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let t0 = Instant::now();
        let status = match explain(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            r,
            &Selector::Router,
            ExplainOptions {
                budget: budget.clone(),
                ..Default::default()
            },
        ) {
            Ok(_) => "explained",
            Err(ExplainError::NothingSymbolized) => "skipped",
            Err(e) => return Err(format!("sequential {}: {e}", topo.name(r))),
        };
        sequential.push(Value::object([
            ("router", Value::from(topo.name(r))),
            ("status", Value::from(status)),
            ("ms", Value::from(t0.elapsed().as_secs_f64() * 1e3)),
        ]));
    }
    let sequential_ms = seq_started.elapsed().as_secs_f64() * 1e3;
    drop(seq_guard);

    // Parallel run under an in-memory obs session, so the report captures
    // the `cache.hit`/`cache.miss` counters and worker gauge too.
    let (guard, handle) = netexpl_obs::install_memory();
    let mut ctx = Ctx::new();
    let sorts = vocab.sorts(&mut ctx);
    let par_started = Instant::now();
    let all = explain_all(
        &mut ctx,
        &topo,
        &vocab,
        sorts,
        &net,
        &spec,
        &Selector::Router,
        ExplainAllOptions {
            explain: ExplainOptions {
                budget: budget.clone(),
                ..Default::default()
            },
            workers,
            fail_fast: false,
        },
    )
    .map_err(|e| format!("explain_all: {e}"))?;
    // Total cost of the parallel path, cache build included — the honest
    // number to compare against the sequential loop.
    let parallel_ms = par_started.elapsed().as_secs_f64() * 1e3;
    drop(guard);

    let metrics = handle.metrics().unwrap_or_default();
    let counters: Vec<(String, Value)> = metrics
        .counters()
        .map(|(name, v)| (name.to_string(), Value::from(v)))
        .collect();
    let parallel: Vec<Value> = all
        .routers
        .iter()
        .map(|r| {
            Value::object([
                ("router", Value::from(r.router.as_str())),
                ("status", Value::from(r.outcome.status())),
                ("ms", Value::from(r.duration.as_secs_f64() * 1e3)),
            ])
        })
        .collect();
    // Wall-clock speedup is bounded by the machine, not the fan-out: record
    // both the requested worker count and the detected parallelism. The two
    // can differ (a `--workers 8` run on a 2-core box is clamped), and a
    // failed detection is reported as null rather than a misleading `1`.
    let cores = std::thread::available_parallelism().map(|n| n.get()).ok();
    Ok(Value::object([
        ("workers_requested", Value::from(workers)),
        ("workers", Value::from(all.workers)),
        ("cores", cores.map(Value::from).unwrap_or(Value::Null)),
        ("sequential_ms", Value::from(sequential_ms)),
        ("parallel_ms", Value::from(parallel_ms)),
        (
            "parallel_fanout_ms",
            Value::from(all.wall.as_secs_f64() * 1e3),
        ),
        (
            "speedup",
            Value::from(sequential_ms / parallel_ms.max(1e-9)),
        ),
        ("cache_crossings", Value::from(all.cache_size)),
        ("cache_hits", Value::from(all.cache_hits)),
        ("cache_misses", Value::from(all.cache_misses)),
        ("partial", Value::from(all.partial())),
        ("sequential", Value::from(sequential)),
        ("parallel", Value::from(parallel)),
        ("counters", Value::object(counters)),
    ]))
}

/// Lift-stage section: scenario 3's `Req1` on the paper's six-router
/// network, lifted twice over identically built seeds — once on persistent
/// solver sessions (encode once, one assumption query per candidate) and
/// once with a fresh solver per entailment query — and timed both ways.
/// Both runs start from a cold context so neither inherits warm hash-cons
/// state; the incremental run goes *first*, the conservative ordering (any
/// cache or allocator warm-up favours the later, fresh run).
pub fn lift_report_with(budget: &Budget) -> Result<Value, String> {
    use netexpl_synth::encode::EncodeOptions;
    use netexpl_synth::sketch::HoleFactory;

    let (topo, h, net, spec) = scenario3();
    let spec = only_blocks(&spec, &["Req1"]);
    let vocab = paper_vocab(&topo, net.prefixes());

    let run = |incremental: bool| -> Result<_, String> {
        let (guard, handle) = netexpl_obs::install_memory();
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let (sym, _table) = netexpl_core::symbolize(
            &mut ctx,
            &factory,
            &topo,
            &net,
            h.r2,
            &Selector::Session {
                neighbor: h.p2,
                dir: Dir::Export,
            },
        );
        let seed = netexpl_core::seed_spec(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sym,
            &spec,
            EncodeOptions {
                max_path_len: topo.num_routers(),
            },
        )
        .map_err(|e| format!("lift bench seed: {e}"))?;
        let t0 = Instant::now();
        let result = netexpl_core::lift(
            &mut ctx,
            &topo,
            &spec,
            &seed,
            h.r2,
            netexpl_core::LiftOptions {
                budget: budget.clone(),
                incremental,
                ..Default::default()
            },
        );
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(guard);
        let metrics = handle.metrics().unwrap_or_default();
        Ok((ms, result, metrics))
    };

    let (incremental_ms, inc, inc_metrics) = run(true)?;
    let (fresh_ms, fresh, fresh_metrics) = run(false)?;

    let inc_queries = inc_metrics.counter("session.queries");
    let fresh_queries = fresh_metrics.counter("smt.queries");
    Ok(Value::object([
        ("router", Value::from(inc.subspec.router.as_str())),
        ("fresh_ms", Value::from(fresh_ms)),
        ("incremental_ms", Value::from(incremental_ms)),
        ("speedup", Value::from(fresh_ms / incremental_ms.max(1e-9))),
        ("fresh_queries", Value::from(fresh_queries)),
        ("incremental_queries", Value::from(inc_queries)),
        (
            "fresh_ms_per_query",
            Value::from(fresh_ms / (fresh_queries.max(1) as f64)),
        ),
        (
            "incremental_ms_per_query",
            Value::from(incremental_ms / (inc_queries.max(1) as f64)),
        ),
        (
            "reused_clauses",
            Value::from(inc_metrics.counter("session.reused_clauses")),
        ),
        (
            "db_reductions",
            Value::from(inc_metrics.counter("session.db_reductions")),
        ),
        ("candidates_checked", Value::from(inc.candidates_checked)),
        (
            "subspec_agrees",
            Value::from(inc.subspec == fresh.subspec && inc.complete == fresh.complete),
        ),
    ]))
}

/// The SAT-pre-filter experiment: network-lint the paper's Scenario 3
/// configuration with the abstract fixpoint's witnesses feeding the SAT
/// pass, against the plain per-map lint (every probe solved) as the
/// baseline. The `filtered_majority` flag is the acceptance criterion:
/// the prefilter must answer more NE010/NE011 probes than reach the
/// solver.
pub fn lint_network_report_with(_budget: &Budget) -> Result<Value, String> {
    use netexpl_lint::{lint_config, lint_network};

    let (topo, _h, net, spec) = scenario3();
    let vocab = paper_vocab(&topo, net.prefixes());

    // Baseline: every NE010/NE011 probe goes to the solver.
    let (guard, handle) = netexpl_obs::install_memory();
    let t0 = Instant::now();
    let _ = lint_config(&topo, &net, Some(&vocab));
    let baseline_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(guard);
    let baseline = handle.metrics().unwrap_or_default();

    // Network lint: dataflow fixpoint, NE013+ checks, prefiltered SAT pass.
    let (guard, handle) = netexpl_obs::install_memory();
    let t0 = Instant::now();
    let diags = lint_network(&topo, &spec, &net, Some(&vocab), 0);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(guard);
    let metrics = handle.metrics().unwrap_or_default();

    let filtered = metrics.counter("lint.sat.filtered");
    let solved = metrics.counter("lint.sat.solved");
    let (errors, warnings, notes) = diags.counts();
    Ok(Value::object([
        ("scenario", Value::from("scenario3")),
        ("wall_ms", Value::from(wall_ms)),
        ("baseline_ms", Value::from(baseline_ms)),
        (
            "dataflow_iterations",
            metrics
                .gauge("dataflow.iterations")
                .map_or(Value::Null, Value::from),
        ),
        (
            "dataflow_facts",
            metrics
                .gauge("dataflow.facts")
                .map_or(Value::Null, Value::from),
        ),
        ("errors", Value::from(errors)),
        ("warnings", Value::from(warnings)),
        ("notes", Value::from(notes)),
        ("sat_filtered", Value::from(filtered)),
        ("sat_solved", Value::from(solved)),
        (
            "sat_total_baseline",
            Value::from(baseline.counter("lint.sat.solved")),
        ),
        ("filtered_majority", Value::from(filtered > solved)),
    ]))
}

/// The serve warm-vs-cold experiment: drive the server's [`Engine`]
/// directly (no sockets) with the same explain request twice. The first
/// request builds the session — synthesis plus the shared encoding — and
/// pools it; the second reuses the pooled session and should skip both.
/// `warm_faster` is the acceptance criterion recorded alongside the raw
/// times.
///
/// [`Engine`]: netexpl_serve::Engine
pub fn serve_report_with(_budget: &Budget) -> Result<Value, String> {
    use netexpl_serve::{Engine, EngineConfig, Op};

    const SPEC: &str = "\
// @originate P1 200.7.0.0/16
dest D1 = 200.7.0.0/16
Req1 { !(P1 -> ... -> P2) }
";
    let engine = Engine::new(EngineConfig::default(), netexpl_obs::SharedMetrics::new());
    let op = Op::Explain {
        topology: "paper".into(),
        spec: SPEC.into(),
        router: None,
        skip_lift: true,
        workers: 1,
    };

    let t0 = Instant::now();
    let cold = engine.handle(&op, None).map_err(|e| e.to_string())?;
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    if cold.warm {
        return Err("first serve request must be cold".into());
    }

    let t0 = Instant::now();
    let warm = engine.handle(&op, None).map_err(|e| e.to_string())?;
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    if !warm.warm {
        return Err("second serve request must hit the session pool".into());
    }

    Ok(Value::object([
        ("topology", Value::from("paper")),
        ("cold_ms", Value::from(cold_ms)),
        ("warm_ms", Value::from(warm_ms)),
        (
            "speedup",
            Value::from(if warm_ms > 0.0 {
                cold_ms / warm_ms
            } else {
                0.0
            }),
        ),
        ("warm_faster", Value::from(warm_ms < cold_ms)),
        (
            "pool_hits",
            Value::from(engine.metrics().counter("serve.pool.hits")),
        ),
    ]))
}

/// The incremental re-explanation experiment on the paper scenario:
///
/// 1. explain every router on the base configuration (the prior run);
/// 2. apply a one-clause cosmetic edit (an order-preserving seq
///    renumber) and run [`explain_delta`], which diffs the route-map
///    fingerprints, recomputes only the routers the edit can reach, and
///    splices the prior reports in for the rest;
/// 3. explain the edited configuration from scratch, the baseline the
///    delta competes against — and the reference `delta_agrees` checks
///    the merged explanation against, router by router.
///
/// `delta_faster` and the dirty-set size are the acceptance criteria the
/// release-profile CI smoke gates on; the debug test only asserts
/// structure and agreement.
pub fn explain_delta_report_with(budget: &Budget) -> Result<Value, String> {
    use netexpl_core::explain_delta;
    use netexpl_synth::encode::EncodeCache;

    const WORKERS: usize = 4;
    let (topo, _h, old_net, spec) = scenario3();
    let spec = only_blocks(&spec, &["Req1"]);
    let vocab = paper_vocab(&topo, old_net.prefixes());

    // The edit: bump the seq of one route-map entry without reordering —
    // exactly the kind of cosmetic churn a config-management system
    // produces, and the best case for the dirty-set closure (one router,
    // local reason, no neighborhood).
    let mut new_net = old_net.clone();
    let mut edited_router = None;
    'edit: for r in old_net.configured_routers() {
        let cfg = old_net.router(r).expect("configured router has a config");
        for (n, map) in cfg.exports() {
            if map.entries.is_empty() {
                continue;
            }
            let keeps_order = map.entries.len() == 1 || map.entries[0].seq + 1 < map.entries[1].seq;
            if !keeps_order {
                continue;
            }
            let mut m = map.clone();
            m.entries[0].seq += 1;
            new_net.router_mut(r).set_export(n, m);
            edited_router = Some(topo.name(r).to_string());
            break 'edit;
        }
    }
    let edited_router =
        edited_router.ok_or_else(|| "no renumberable route-map entry".to_string())?;

    let options = || ExplainAllOptions {
        explain: ExplainOptions {
            budget: budget.clone(),
            ..Default::default()
        },
        workers: WORKERS,
        fail_fast: false,
    };
    let encode = ExplainOptions::default().encode;

    // Prior run on the base configuration — the artifact the delta reuses.
    let mut old_ctx = Ctx::new();
    let old_sorts = vocab.sorts(&mut old_ctx);
    let old_cache = EncodeCache::build(&mut old_ctx, &topo, &vocab, old_sorts, &old_net, encode)
        .map_err(|e| format!("delta bench build: {e}"))?;
    let t0 = Instant::now();
    let prior = netexpl_core::explain_all_cached(
        &mut old_ctx,
        &topo,
        &vocab,
        old_sorts,
        &old_net,
        &spec,
        &Selector::Router,
        options(),
        &old_cache,
    )
    .map_err(|e| format!("delta bench prior: {e}"))?;
    let prior_ms = t0.elapsed().as_secs_f64() * 1e3;

    // From-scratch baseline on the edited configuration: a fresh context,
    // a fresh encoding, every router re-explained. This is what a
    // non-incremental deployment pays for any edit — and the reference
    // the delta result must agree with.
    let mut full_ctx = Ctx::new();
    let full_sorts = vocab.sorts(&mut full_ctx);
    let t0 = Instant::now();
    let full_cache = EncodeCache::build(&mut full_ctx, &topo, &vocab, full_sorts, &new_net, encode)
        .map_err(|e| format!("delta bench full build: {e}"))?;
    let full = netexpl_core::explain_all_cached(
        &mut full_ctx,
        &topo,
        &vocab,
        full_sorts,
        &new_net,
        &spec,
        &Selector::Router,
        options(),
        &full_cache,
    )
    .map_err(|e| format!("delta bench full: {e}"))?;
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The delta: diff, patch, recompute only the dirty set.
    let t0 = Instant::now();
    let report = explain_delta(
        &mut old_ctx,
        &topo,
        &vocab,
        old_sorts,
        &old_net,
        &new_net,
        &spec,
        &Selector::Router,
        options(),
        prior,
        &old_cache,
    )
    .map_err(|e| format!("delta bench delta: {e}"))?;
    let delta_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut delta_agrees = report.explanation.routers.len() == full.routers.len();
    for (d, s) in report.explanation.routers.iter().zip(&full.routers) {
        delta_agrees &= d.router == s.router && d.outcome.status() == s.outcome.status();
        if let (Some(de), Some(se)) = (d.outcome.explanation(), s.outcome.explanation()) {
            delta_agrees &= de.subspec.to_string() == se.subspec.to_string()
                && de.lift_complete == se.lift_complete
                && de.verdicts.simplify == se.verdicts.simplify
                && de.verdicts.lift == se.verdicts.lift;
        }
    }

    let dirty: Vec<Value> = report
        .dirty
        .iter()
        .map(|(r, reason)| {
            Value::object([
                ("router", Value::from(r.as_str())),
                ("reason", Value::from(reason.to_string().as_str())),
            ])
        })
        .collect();
    Ok(Value::object([
        ("scenario", Value::from("scenario3")),
        ("edited_router", Value::from(edited_router.as_str())),
        ("workers", Value::from(WORKERS)),
        ("routers", Value::from(report.explanation.routers.len())),
        ("dirty_count", Value::from(report.dirty.len())),
        ("dirty", Value::from(dirty)),
        ("reused", Value::from(report.reused)),
        ("recomputed", Value::from(report.recomputed)),
        ("crossings_reused", Value::from(report.patch.reused)),
        ("crossings_recomputed", Value::from(report.patch.recomputed)),
        ("prior_ms", Value::from(prior_ms)),
        ("full_ms", Value::from(full_ms)),
        ("delta_ms", Value::from(delta_ms)),
        ("speedup", Value::from(full_ms / delta_ms.max(1e-9))),
        ("delta_faster", Value::from(delta_ms < full_ms)),
        ("delta_agrees", Value::from(delta_agrees)),
    ]))
}

/// Build the full report over all three paper scenarios.
pub fn explain_report() -> Result<Value, String> {
    explain_report_with(&Budget::unlimited())
}

/// Build the full report, running every case under `budget`.
///
/// The budget applies per explain call, not to the report as a whole;
/// interrupted cases degrade to partial explanations (flagged in the
/// per-case `partial`/`verdicts` fields) rather than failing the report.
pub fn explain_report_with(budget: &Budget) -> Result<Value, String> {
    let mut runs = Vec::new();
    for case in cases() {
        runs.push(run_case(&case, budget)?);
    }
    Ok(Value::object([
        ("scenarios", Value::from(runs)),
        ("network", network_report_with(budget, 4)?),
        ("lift", lift_report_with(budget)?),
        ("lint_network", lint_network_report_with(budget)?),
        ("serve", serve_report_with(budget)?),
        ("explain_delta", explain_delta_report_with(budget)?),
    ]))
}

/// Run the report and write it to `path` as pretty-printed JSON.
pub fn write_report(path: &str) -> Result<(), String> {
    write_report_with(path, Budget::unlimited())
}

/// Run the report under `budget` and write it to `path`.
pub fn write_report_with(path: &str, budget: Budget) -> Result<(), String> {
    let report = explain_report_with(&budget)?;
    let text = serde_json::to_string_pretty(&report) + "\n";
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_scenarios_and_stages() {
        let report = explain_report().unwrap();
        let scenarios = match &report["scenarios"] {
            Value::Array(a) => a,
            other => panic!("scenarios is not an array: {other:?}"),
        };
        assert_eq!(scenarios.len(), 3);
        for run in scenarios {
            for stage in ["explain", "symbolize", "seed", "simplify", "lift"] {
                assert!(
                    run["stage_ms"][stage].as_f64().is_some(),
                    "missing stage `{stage}` in {:?}",
                    run["scenario"]
                );
            }
            assert!(run["rule_firings"].as_u64().unwrap() > 0);
            // Solver traffic shows up as `session.queries` on the default
            // incremental path and `smt.queries` under NETEXPL_FRESH_SOLVER.
            let queries = run["counters"]["smt.queries"].as_u64().unwrap_or(0)
                + run["counters"]["session.queries"].as_u64().unwrap_or(0);
            assert!(queries > 0, "no solver queries in {:?}", run["scenario"]);
        }
    }

    #[test]
    fn lift_section_times_both_backends_and_they_agree() {
        let budget = Budget::unlimited().deadline_in(std::time::Duration::from_secs(30));
        let lift = lift_report_with(&budget).unwrap();
        assert!(lift["fresh_ms"].as_f64().unwrap() > 0.0);
        assert!(lift["incremental_ms"].as_f64().unwrap() > 0.0);
        assert!(lift["speedup"].as_f64().is_some());
        assert!(lift["incremental_queries"].as_u64().unwrap() > 0);
        assert!(lift["candidates_checked"].as_u64().unwrap() > 0);
        assert_eq!(lift["subspec_agrees"], Value::Bool(true));
    }

    #[test]
    fn lint_network_section_shows_the_prefilter_winning() {
        let budget = Budget::unlimited();
        let lint = lint_network_report_with(&budget).unwrap();
        assert!(lint["wall_ms"].as_f64().unwrap() > 0.0);
        assert!(lint["baseline_ms"].as_f64().unwrap() > 0.0);
        assert!(lint["dataflow_iterations"].as_u64().unwrap() > 0);
        assert_eq!(lint["errors"].as_u64(), Some(0), "{lint:?}");
        let filtered = lint["sat_filtered"].as_u64().unwrap();
        let solved = lint["sat_solved"].as_u64().unwrap();
        assert!(
            filtered > solved,
            "prefilter must answer the majority of probes ({filtered} vs {solved})"
        );
        assert_eq!(lint["filtered_majority"], Value::Bool(true));
        // The baseline answers every probe with the solver; the prefiltered
        // run must not *add* probes.
        let baseline = lint["sat_total_baseline"].as_u64().unwrap();
        assert_eq!(baseline, filtered + solved);
    }

    #[test]
    fn network_section_records_both_runs_and_cache_traffic() {
        // An unlimited run is a release-profile benchmark; for the debug
        // test a deadline keeps it quick — degraded routers are still
        // reported, and the cache replays regardless.
        let budget = Budget::unlimited().deadline_in(std::time::Duration::from_secs(20));
        let network = network_report_with(&budget, 4).unwrap();
        for section in ["sequential", "parallel"] {
            let rows = match &network[section] {
                Value::Array(a) => a,
                other => panic!("{section} is not an array: {other:?}"),
            };
            assert_eq!(rows.len(), 6, "{section} must cover every router");
            for row in rows {
                assert!(row["router"].as_str().is_some());
                assert!(row["ms"].as_f64().is_some());
            }
        }
        assert!(network["sequential_ms"].as_f64().unwrap() > 0.0);
        assert!(network["parallel_ms"].as_f64().unwrap() > 0.0);
        assert!(network["speedup"].as_f64().is_some());
        // The requested fan-out, the effective worker count, and the
        // machine's parallelism are three distinct facts — workers can
        // legitimately exceed cores (the speedup is then core-bound), so
        // all three are reported instead of conflated.
        assert_eq!(network["workers_requested"].as_u64(), Some(4));
        let workers = network["workers"].as_u64().unwrap();
        assert!((1..=4).contains(&workers));
        if !network["cores"].is_null() {
            assert!(network["cores"].as_u64().unwrap() >= 1);
        }
        assert!(network["cache_hits"].as_u64().unwrap() > 0);
        assert!(network["counters"]["cache.hit"].as_u64().unwrap() > 0);
    }

    #[test]
    fn explain_delta_section_reuses_clean_routers_and_agrees() {
        let budget = Budget::unlimited().deadline_in(std::time::Duration::from_secs(60));
        let delta = explain_delta_report_with(&budget).unwrap();
        let routers = delta["routers"].as_u64().unwrap();
        let dirty = delta["dirty_count"].as_u64().unwrap();
        assert!(routers >= 6, "{delta:?}");
        // A cosmetic one-clause edit dirties exactly its own router.
        assert_eq!(dirty, 1, "{delta:?}");
        assert_eq!(
            delta["dirty"][0]["router"].as_str(),
            delta["edited_router"].as_str()
        );
        assert_eq!(
            delta["reused"].as_u64().unwrap() + delta["recomputed"].as_u64().unwrap(),
            routers
        );
        assert!(delta["crossings_reused"].as_u64().unwrap() > 0);
        assert!(delta["full_ms"].as_f64().unwrap() > 0.0);
        assert!(delta["delta_ms"].as_f64().unwrap() > 0.0);
        // Timing (delta_faster) is gated by the release-profile CI smoke;
        // in debug the correctness bit is the invariant.
        assert_eq!(delta["delta_agrees"], Value::Bool(true), "{delta:?}");
    }

    #[test]
    fn serve_section_records_a_cold_and_a_warm_request() {
        let serve = serve_report_with(&Budget::unlimited()).unwrap();
        assert!(serve["cold_ms"].as_f64().unwrap() > 0.0);
        assert!(serve["warm_ms"].as_f64().unwrap() > 0.0);
        assert!(serve["speedup"].as_f64().is_some());
        assert_eq!(serve["pool_hits"].as_u64(), Some(1));
        // Timing assertions are flaky in debug builds; the report records
        // `warm_faster` and the release-profile CI smoke asserts it.
        assert!(serve["warm_faster"].as_bool().is_some());
    }
}
