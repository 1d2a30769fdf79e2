//! Network-wide explanation: every router's pipeline, in parallel.
//!
//! The paper's pipeline produces one localized subspecification *per
//! router*; explaining a whole network by looping `explain` re-encodes the
//! same concrete devices, topology walk, and protocol mechanics N times.
//! [`explain_all`] removes both costs:
//!
//! * **Shared encoding.** One [`EncodeCache`] is built up front in the
//!   caller's context: a single path enumeration over the fully concrete
//!   network, recording every session crossing (route state + emitted
//!   definitional constraints). That context is then frozen
//!   ([`Ctx::freeze`]), and each router's pipeline runs in a clone of it:
//!   an O(1) fork that shares the frozen arena and keeps every term id.
//!   Its seed stage replays concrete crossings from the cache, re-deriving
//!   only the clauses touched by its router's symbolization.
//! * **Parallel fan-out.** Routers are distributed over `workers` OS
//!   threads (`std::thread::scope`; no runtime dependency). The caller's
//!   [`Budget`](netexpl_logic::budget::Budget) is split per worker —
//!   countable caps divided, deadline and cancel token shared — so one
//!   stuck router exhausts its own slice and degrades to a best-effort
//!   explanation without starving its siblings. With `fail_fast`, the
//!   first *hard* failure (encode error — budget exhaustion is not a
//!   failure) cancels the shared token and the remaining routers wind down
//!   to partial results. This fan-out is the pipeline's only parallelism:
//!   each router's lift runs serially on its worker.
//!
//! Observability: when the caller has an obs session, each worker thread
//! opens a memory-backed session time-aligned with it (shared epoch, own
//! track) and its captured per-stage spans, solver samples, and metrics
//! are replayed under the `explain_all` span after the pool joins — so
//! traces and `netexpl profile` see inside every router's pipeline. The
//! main thread additionally aggregates per-router latency
//! (`explain_all.router_ms` histogram), `cache.hit` / `cache.miss`
//! counters, and the `explain_all.workers` gauge.
//!
//! Determinism: each router's pipeline runs in a fresh fork of the base
//! context, so its rendered artifacts (subspecification, constraint text,
//! verdicts) are independent of worker count and scheduling. Term-id
//! fields inside the per-router [`Explanation`]s refer to worker-local
//! arenas that are dropped when the run completes — consume the rendered
//! fields, not the ids.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use netexpl_bgp::NetworkConfig;
use netexpl_logic::budget::CancelToken;
use netexpl_logic::term::Ctx;
use netexpl_obs::Span;
use netexpl_spec::Specification;
use netexpl_synth::encode::EncodeCache;
use netexpl_synth::vocab::{VocabSorts, Vocabulary};
use netexpl_topology::Topology;

use netexpl_topology::RouterId;

use crate::delta::DeltaProvenance;
use crate::explain::{explain_cached, ExplainError, ExplainOptions, Explanation};
use crate::symbolize::Selector;

/// Options for a network-wide explanation run.
#[derive(Debug, Clone, Default)]
pub struct ExplainAllOptions {
    /// Per-router pipeline options. The budget set here is the *total*
    /// budget for the run; [`explain_all`] splits it across workers.
    pub explain: ExplainOptions,
    /// Worker threads. `0` picks the machine's available parallelism,
    /// capped at the number of routers.
    pub workers: usize,
    /// Cancel the whole run on the first hard per-router failure (budget
    /// exhaustion degrades and is never a failure).
    pub fail_fast: bool,
}

/// What happened to one router's pipeline.
#[derive(Debug)]
pub enum RouterOutcome {
    /// The pipeline produced an explanation (possibly partial — see its
    /// [`Explanation::verdicts`]).
    Explained(Box<Explanation>),
    /// The selector matched none of this router's configuration lines
    /// (typically an external or unconfigured router).
    Skipped,
    /// The pipeline failed outright.
    Failed(ExplainError),
}

impl RouterOutcome {
    /// Stable status token for machine-readable output.
    pub fn status(&self) -> &'static str {
        match self {
            RouterOutcome::Explained(_) => "explained",
            RouterOutcome::Skipped => "skipped",
            RouterOutcome::Failed(_) => "failed",
        }
    }

    /// The explanation, if one was produced.
    pub fn explanation(&self) -> Option<&Explanation> {
        match self {
            RouterOutcome::Explained(e) => Some(e),
            _ => None,
        }
    }
}

/// One router's slot in a [`NetworkExplanation`].
#[derive(Debug)]
pub struct RouterReport {
    /// Router name.
    pub router: String,
    /// Wall-clock time this router's pipeline took on its worker.
    pub duration: Duration,
    /// The pipeline result.
    pub outcome: RouterOutcome,
    /// Incremental provenance: `None` on a full run; on an
    /// [`explain_delta`](crate::delta::explain_delta) run, whether this
    /// report was reused from the prior explanation or recomputed, and why.
    pub delta: Option<DeltaProvenance>,
}

/// The aggregate result of [`explain_all`]: one report per router, in
/// topology order, plus run-level statistics.
#[derive(Debug)]
pub struct NetworkExplanation {
    /// Per-router reports, in topology order.
    pub routers: Vec<RouterReport>,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock duration of the whole fan-out (excluding cache build).
    pub wall: Duration,
    /// Session crossings recorded in the shared encoding cache.
    pub cache_size: usize,
    /// Total crossings replayed from the cache across all routers.
    pub cache_hits: u64,
    /// Total crossings computed locally across all routers.
    pub cache_misses: u64,
    /// True when `fail_fast` cancelled the run before every router
    /// finished cleanly.
    pub cancelled: bool,
}

impl NetworkExplanation {
    /// Did every explained router's pipeline run to completion?
    pub fn all_verified(&self) -> bool {
        self.routers.iter().all(|r| match &r.outcome {
            RouterOutcome::Explained(e) => e.verdicts.all_verified(),
            RouterOutcome::Skipped => true,
            RouterOutcome::Failed(_) => false,
        })
    }

    /// True when any router degraded, failed, or the run was cancelled.
    pub fn partial(&self) -> bool {
        self.cancelled || !self.all_verified()
    }

    /// Iterate over (router name, explanation) for explained routers.
    pub fn explanations(&self) -> impl Iterator<Item = (&str, &Explanation)> {
        self.routers
            .iter()
            .filter_map(|r| r.outcome.explanation().map(|e| (r.router.as_str(), e)))
    }
}

impl fmt::Display for NetworkExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== Network explanation: {} routers, {} workers, {:.1} ms ===",
            self.routers.len(),
            self.workers,
            self.wall.as_secs_f64() * 1e3
        )?;
        writeln!(
            f,
            "encoding cache: {} crossings, {} hits, {} misses",
            self.cache_size, self.cache_hits, self.cache_misses
        )?;
        if self.cancelled {
            writeln!(f, "CANCELLED: a router failed and --fail-fast was set")?;
        }
        for r in &self.routers {
            match &r.outcome {
                RouterOutcome::Explained(e) => {
                    writeln!(f)?;
                    write!(f, "{e}")?;
                }
                RouterOutcome::Skipped => {
                    writeln!(f, "\n=== {} === skipped (nothing to symbolize)", r.router)?;
                }
                RouterOutcome::Failed(err) => {
                    writeln!(f, "\n=== {} === FAILED: {err}", r.router)?;
                }
            }
        }
        Ok(())
    }
}

/// Explain every router of the network, in parallel, sharing one encoding
/// of the concrete substrate.
///
/// `selector` is applied per router (use [`Selector::Router`] for "all of
/// each router's lines"). `ctx` becomes the base context: the encoding
/// cache is built into it, it is frozen, and every router forks it.
/// Routers the selector matches nothing on are reported as
/// [`RouterOutcome::Skipped`]; if *no* router has anything to explain the
/// run fails with [`ExplainError::NothingSymbolized`].
#[allow(clippy::too_many_arguments)]
pub fn explain_all(
    ctx: &mut Ctx,
    topo: &Topology,
    vocab: &Vocabulary,
    sorts: VocabSorts,
    config: &NetworkConfig,
    spec: &Specification,
    selector: &Selector,
    options: ExplainAllOptions,
) -> Result<NetworkExplanation, ExplainError> {
    // Build the shared encoding once, in the caller's context.
    let cache = {
        let build_span = Span::enter("encode_cache.build");
        let cache = EncodeCache::build(ctx, topo, vocab, sorts, config, options.explain.encode)?;
        build_span.attr("crossings", cache.len());
        cache
    };
    ctx.freeze();
    explain_all_cached(
        ctx, topo, vocab, sorts, config, spec, selector, options, &cache,
    )
}

/// [`explain_all`] with a prebuilt [`EncodeCache`] — the warm entry point
/// of `netexpl serve`, where the cache (and the context it was built in)
/// persist across requests. `ctx` must be the context the cache was built
/// in, or a clone of it. It is only read: every router works in its own
/// fork. Pass it frozen ([`Ctx::freeze`]) and each fork costs O(1); an
/// unfrozen context costs one copy per call. The fan-out, budget split,
/// and reporting are identical to [`explain_all`], minus the cache build.
#[allow(clippy::too_many_arguments)]
pub fn explain_all_cached(
    ctx: &Ctx,
    topo: &Topology,
    vocab: &Vocabulary,
    sorts: VocabSorts,
    config: &NetworkConfig,
    spec: &Specification,
    selector: &Selector,
    options: ExplainAllOptions,
    cache: &EncodeCache,
) -> Result<NetworkExplanation, ExplainError> {
    let span = Span::enter("explain_all");
    let routers: Vec<_> = topo.router_ids().collect();
    span.attr("routers", routers.len());
    let run = run_routers(
        ctx, topo, vocab, sorts, config, spec, selector, &options, cache, &routers, &span,
    );
    let workers = run.workers;
    span.attr("workers", workers);
    let wall = run.wall;

    let mut reports = Vec::with_capacity(routers.len());
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut any_failed = false;
    for (r, (outcome, duration)) in routers.iter().zip(run.outcomes) {
        if let RouterOutcome::Explained(e) = &outcome {
            hits += e.cache_hits;
            misses += e.cache_misses;
        }
        any_failed |= matches!(outcome, RouterOutcome::Failed(_));
        netexpl_obs::observe_ms("explain_all.router_ms", duration.as_secs_f64() * 1e3);
        reports.push(RouterReport {
            router: topo.name(*r).to_string(),
            duration,
            outcome,
            delta: None,
        });
    }
    if reports
        .iter()
        .all(|r| matches!(r.outcome, RouterOutcome::Skipped))
    {
        return Err(ExplainError::NothingSymbolized);
    }

    netexpl_obs::gauge_set("explain_all.workers", workers as i64);
    netexpl_obs::counter_add("cache.hit", hits);
    netexpl_obs::counter_add("cache.miss", misses);
    span.attr("cache_hits", hits);
    span.attr("cache_misses", misses);
    span.attr("wall_ms", wall.as_secs_f64() * 1e3);

    Ok(NetworkExplanation {
        routers: reports,
        workers,
        wall,
        cache_size: cache.len(),
        cache_hits: hits,
        cache_misses: misses,
        cancelled: options.fail_fast && any_failed,
    })
}

/// The result of one [`run_routers`] fan-out.
pub(crate) struct SubsetRun {
    /// `(outcome, duration)` parallel to the input router slice.
    pub outcomes: Vec<(RouterOutcome, Duration)>,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock duration of the fan-out.
    pub wall: Duration,
}

/// The worker fan-out shared by [`explain_all_cached`] and the delta
/// engine: explain exactly the routers in `routers` (any subset of the
/// topology, e.g. a delta run's dirty set), in parallel, against the
/// shared cache. Budget splitting, fail-fast cancellation, and worker-obs
/// replay behave exactly as on a full run. Every router forks one frozen
/// snapshot of `ctx`: that costs one copy when `ctx` is unfrozen, and
/// nothing when it is frozen.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_routers(
    ctx: &Ctx,
    topo: &Topology,
    vocab: &Vocabulary,
    sorts: VocabSorts,
    config: &NetworkConfig,
    spec: &Specification,
    selector: &Selector,
    options: &ExplainAllOptions,
    cache: &EncodeCache,
    routers: &[RouterId],
    span: &Span,
) -> SubsetRun {
    let workers = effective_workers(options.workers, routers.len());
    let mut snapshot = ctx.clone();
    snapshot.freeze();
    let snapshot = &snapshot;

    // Split the run budget: countable caps divided per worker, deadline
    // shared. With fail-fast, all slices share one cancel token (reusing
    // the caller's, if any, so external cancellation still works).
    let mut budget = options.explain.budget.clone();
    let token: CancelToken = budget.cancel.clone().unwrap_or_default();
    if options.fail_fast {
        budget.cancel = Some(token.clone());
    }
    let shares = budget.split(workers);

    let next = AtomicUsize::new(0);
    let cache_ref = &cache;
    let explain_opts = &options.explain;
    let fail_fast = options.fail_fast;
    // Workers run on fresh threads with no obs session of their own. When
    // the caller has one, each worker opens a memory-backed session sharing
    // our epoch (so timestamps align) on its own track, and hands the
    // captured spans/samples/metrics back for replay under this span —
    // which is what puts per-stage worker timings into traces and the
    // profile report instead of losing them to thread locality.
    let capture_epoch = netexpl_obs::session_epoch();
    let started = Instant::now();
    let mut collected: Vec<Option<(RouterOutcome, Duration)>> = std::iter::repeat_with(|| None)
        .take(routers.len())
        .collect();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for (track, share) in shares.iter().take(workers).enumerate() {
            let next = &next;
            let routers = &routers;
            let token = &token;
            handles.push(s.spawn(move || {
                let obs = capture_epoch
                    .map(|epoch| netexpl_obs::install_memory_worker(epoch, track as u32 + 1));
                let mut done: Vec<(usize, RouterOutcome, Duration)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&router) = routers.get(i) else { break };
                    let t0 = Instant::now();
                    // Fresh fork per router: the pipeline's artifacts must
                    // not depend on what ran earlier on this worker.
                    let mut worker_ctx = snapshot.clone();
                    let mut opts = explain_opts.clone();
                    opts.budget = share.clone();
                    let outcome = match explain_cached(
                        &mut worker_ctx,
                        topo,
                        vocab,
                        sorts,
                        config,
                        spec,
                        router,
                        selector,
                        opts,
                        Some(cache_ref),
                    ) {
                        Ok(e) => RouterOutcome::Explained(Box::new(e)),
                        Err(ExplainError::NothingSymbolized) => RouterOutcome::Skipped,
                        Err(e) => {
                            if fail_fast {
                                token.cancel();
                            }
                            RouterOutcome::Failed(e)
                        }
                    };
                    done.push((i, outcome, t0.elapsed()));
                }
                let captured = obs.map(|(guard, handle)| {
                    drop(guard); // flush worker metrics into the handle
                    handle.data()
                });
                (done, captured)
            }));
        }
        for h in handles {
            // A worker panic is a pipeline bug, not a degradable condition.
            let (done, captured) = h.join().expect("explain worker panicked");
            for (i, outcome, dur) in done {
                collected[i] = Some((outcome, dur));
            }
            if let Some(data) = captured {
                netexpl_obs::absorb(&data, span.id());
            }
        }
    });
    let wall = started.elapsed();

    let outcomes: Vec<(RouterOutcome, Duration)> = collected
        .into_iter()
        .map(|slot| {
            // Every index below routers.len() is claimed by exactly one
            // worker.
            slot.expect("router left unprocessed")
        })
        .collect();
    SubsetRun {
        outcomes,
        workers,
        wall,
    }
}

fn effective_workers(requested: usize, routers: usize) -> usize {
    let auto = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    let w = if requested == 0 { auto() } else { requested };
    w.clamp(1, routers.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netexpl_bgp::{Action, RouteMap, RouteMapEntry};
    use netexpl_topology::builders::paper_topology;
    use netexpl_topology::Prefix;

    fn scenario1() -> (
        netexpl_topology::Topology,
        netexpl_topology::builders::PaperTopology,
        NetworkConfig,
        Specification,
    ) {
        let (topo, h) = paper_topology();
        let d1: Prefix = "200.7.0.0/16".parse().unwrap();
        let d2: Prefix = "201.0.0.0/16".parse().unwrap();
        let mut net = NetworkConfig::new();
        net.originate(h.p1, d1);
        net.originate(h.p2, d2);
        let deny_all = |name: &str| {
            RouteMap::new(
                name,
                vec![RouteMapEntry {
                    seq: 100,
                    action: Action::Deny,
                    matches: vec![],
                    sets: vec![],
                }],
            )
        };
        net.router_mut(h.r1).set_export(h.p1, deny_all("R1_to_P1"));
        net.router_mut(h.r2).set_export(h.p2, deny_all("R2_to_P2"));
        let spec = netexpl_spec::parse("Req1 { !(P1 -> ... -> P2) !(P2 -> ... -> P1) }").unwrap();
        (topo, h, net, spec)
    }

    fn run(workers: usize) -> NetworkExplanation {
        let (topo, _h, net, spec) = scenario1();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        explain_all(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            &Selector::Router,
            ExplainAllOptions {
                workers,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn all_routers_reported_and_configured_ones_explained() {
        let all = run(2);
        assert_eq!(all.routers.len(), 6);
        let by_name = |n: &str| {
            all.routers
                .iter()
                .find(|r| r.router == n)
                .expect("router present")
        };
        // R1 and R2 carry the synthesized deny-alls; everyone else has no
        // configuration lines for the selector to symbolize.
        assert_eq!(by_name("R1").outcome.status(), "explained");
        assert_eq!(by_name("R2").outcome.status(), "explained");
        for n in ["R3", "P1", "P2", "Customer"] {
            assert_eq!(by_name(n).outcome.status(), "skipped", "{n}");
        }
        assert!(all.all_verified());
        assert!(!all.partial());
        assert!(all.cache_hits > 0, "concrete crossings must replay");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let one = run(1);
        let four = run(4);
        assert_eq!(one.routers.len(), four.routers.len());
        for (a, b) in one.routers.iter().zip(&four.routers) {
            assert_eq!(a.router, b.router);
            assert_eq!(a.outcome.status(), b.outcome.status());
            if let (Some(ea), Some(eb)) = (a.outcome.explanation(), b.outcome.explanation()) {
                assert_eq!(ea.subspec.to_string(), eb.subspec.to_string());
                assert_eq!(ea.simplified_text, eb.simplified_text);
                assert_eq!(ea.seed_conjuncts, eb.seed_conjuncts);
                assert_eq!(ea.cache_hits, eb.cache_hits);
            }
        }
        assert_eq!(one.cache_hits, four.cache_hits);
    }

    #[test]
    fn matches_direct_per_router_explain() {
        use crate::explain::{explain, ExplainOptions};
        let all = run(3);
        let (topo, _h, net, spec) = scenario1();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        for r in topo.router_ids() {
            let mut ctx = Ctx::new();
            let sorts = vocab.sorts(&mut ctx);
            let direct = explain(
                &mut ctx,
                &topo,
                &vocab,
                sorts,
                &net,
                &spec,
                r,
                &Selector::Router,
                ExplainOptions::default(),
            );
            let report = all
                .routers
                .iter()
                .find(|rep| rep.router == topo.name(r))
                .unwrap();
            match direct {
                Ok(e) => {
                    let parallel = report.outcome.explanation().expect("explained");
                    assert_eq!(parallel.subspec.to_string(), e.subspec.to_string());
                    assert_eq!(parallel.simplified_text, e.simplified_text);
                    assert_eq!(parallel.lift_complete, e.lift_complete);
                }
                Err(ExplainError::NothingSymbolized) => {
                    assert_eq!(report.outcome.status(), "skipped");
                }
                Err(e) => panic!("direct explain failed: {e}"),
            }
        }
    }

    #[test]
    fn nothing_to_explain_anywhere_is_an_error() {
        let (topo, h) = paper_topology();
        let mut net = NetworkConfig::new();
        net.originate(h.p1, "200.7.0.0/16".parse().unwrap());
        let spec = Specification::new();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let err = explain_all(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            &Selector::Router,
            ExplainAllOptions::default(),
        );
        assert!(matches!(err, Err(ExplainError::NothingSymbolized)));
    }

    #[test]
    fn split_budget_degrades_without_failing() {
        use netexpl_logic::budget::Budget;
        let (topo, _h, net, spec) = scenario1();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let all = explain_all(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            &spec,
            &Selector::Router,
            ExplainAllOptions {
                explain: crate::explain::ExplainOptions {
                    budget: Budget::unlimited().deadline_in(std::time::Duration::ZERO),
                    ..Default::default()
                },
                workers: 2,
                ..Default::default()
            },
        )
        .expect("budget exhaustion degrades, never fails the run");
        assert!(all.partial());
        for (name, e) in all.explanations() {
            assert!(!e.verdicts.all_verified(), "{name} should have degraded");
        }
    }
}
