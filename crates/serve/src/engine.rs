//! The request engine: protocol-agnostic execution of one decoded
//! request against the warm-session pool.
//!
//! The engine is what a worker thread runs inside its `catch_unwind`
//! envelope, and what the bench harness drives directly for the
//! warm-vs-cold comparison (no sockets involved). It owns the pool and
//! the shared metrics; the server wraps it with the queue, the
//! connection plumbing, and crash isolation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netexpl_bgp::fingerprint_config;
use netexpl_core::symbolize::Selector;
use netexpl_core::{
    explain_all_cached, explain_cached, parse_problem, synthesize_problem, topology_by_name, Error,
    ExplainAllOptions, ExplainOptions, Explanation, RouterOutcome,
};
use netexpl_lint::lint_network;
use netexpl_logic::budget::{Budget, CancelToken};
use netexpl_logic::term::Ctx;
use netexpl_obs::SharedMetrics;
use netexpl_synth::encode::{config_fingerprint, EncodeCache};
use serde_json::Value;

use crate::pool::{Acquired, Session, SessionKey, SessionPool};
use crate::protocol::Op;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Warm sessions kept (LRU beyond this).
    pub pool_capacity: usize,
    /// Deadline applied when the client sends none.
    pub default_timeout: Duration,
    /// Hard per-request ceiling; client timeouts are tightened to it.
    pub max_timeout: Duration,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            pool_capacity: 8,
            default_timeout: Duration::from_secs(30),
            max_timeout: Duration::from_secs(120),
        }
    }
}

/// The outcome of one engine call.
pub struct Handled {
    /// The `result` payload.
    pub result: Value,
    /// True when a pooled session served the request.
    pub warm: bool,
}

/// The shared request engine.
pub struct Engine {
    pool: SessionPool,
    metrics: SharedMetrics,
    config: EngineConfig,
    /// Cancelled when the server drains with `mode=cancel`; every
    /// request budget carries a clone, so in-flight solver work observes
    /// the drain as a cooperative interrupt.
    drain: CancelToken,
}

impl Engine {
    /// A fresh engine with its own pool.
    pub fn new(config: EngineConfig, metrics: SharedMetrics) -> Engine {
        Engine {
            pool: SessionPool::new(config.pool_capacity, metrics.clone()),
            metrics,
            config,
            drain: CancelToken::new(),
        }
    }

    /// The shared metrics handle.
    pub fn metrics(&self) -> &SharedMetrics {
        &self.metrics
    }

    /// The cancel token a `mode=cancel` drain fires.
    pub fn drain_token(&self) -> &CancelToken {
        &self.drain
    }

    /// The per-request budget: the client's timeout (or the default),
    /// capped by the server's ceiling, cancellable by drain.
    pub fn request_budget(&self, timeout_ms: Option<u64>) -> Budget {
        let asked = timeout_ms
            .map(Duration::from_millis)
            .unwrap_or(self.config.default_timeout)
            .min(self.config.max_timeout);
        Budget::unlimited()
            .deadline_in(asked)
            .cancelled_by(self.drain.clone())
    }

    /// Acquire a warm session or build one cold. The cold build runs
    /// under the request's budget: a request that times out synthesizing
    /// poisons nothing and pools nothing.
    ///
    /// Two delta paths cut the cold cost down:
    ///
    /// * A pooled entry whose configuration *drifted locally* (route-map
    ///   edits, same environment) is salvaged — its cache is patched onto
    ///   the current configuration, replaying every unchanged crossing —
    ///   instead of being retired with NX806.
    /// * A genuinely cold build for a key whose topology already has a
    ///   pooled session with the same vocabulary and environment adopts
    ///   that session's context and patches its cache instead of
    ///   enumerating the encoding from scratch.
    fn session(
        &self,
        topology: &str,
        spec: &str,
        budget: &Budget,
    ) -> Result<(Arc<Session>, bool), Error> {
        let key = SessionKey::new(topology, spec);
        match self.pool.acquire(&key)? {
            Acquired::Warm(s) => return Ok((s, true)),
            Acquired::Drifted(stale) => {
                if let Some(s) = self.salvage(key.clone(), spec, &stale) {
                    return Ok((s, true));
                }
                // Salvage failed — fall through to a full cold build.
            }
            Acquired::Cold => {}
        }
        let built = Instant::now();
        let topo = topology_by_name(topology)?;
        let problem = parse_problem(&topo, "<request>", spec)?;
        // Delta adoption: reuse a same-topology pooled context when the
        // vocabularies agree, so the cache patch below can replay its
        // recorded crossings (term ids resolve in the cloned arena).
        let base = self.pool.delta_base(&key);
        let (mut ctx, sorts, base) = match base {
            Some(b) if b.problem.vocab == problem.vocab => {
                let ctx = b.ctx.clone();
                let sorts = b.sorts;
                (ctx, sorts, Some(b))
            }
            _ => {
                let mut ctx = Ctx::new();
                let sorts = problem.vocab.sorts(&mut ctx);
                (ctx, sorts, None)
            }
        };
        let result = synthesize_problem(&topo, &problem, &mut ctx, sorts, budget.clone())?;
        let encode = ExplainOptions::default().encode;
        let cache = base
            .filter(|b| b.config.originations() == result.config.originations())
            .and_then(|b| {
                b.cache
                    .patch(
                        &mut ctx,
                        &topo,
                        &problem.vocab,
                        sorts,
                        &result.config,
                        encode,
                    )
                    .ok()
            })
            .map(|(cache, stats)| {
                self.metrics.counter_add("serve.pool.delta_builds", 1);
                self.metrics
                    .counter_add("serve.pool.delta_crossings_reused", stats.reused);
                cache
            });
        let cache = match cache {
            Some(c) => c,
            None => EncodeCache::build(
                &mut ctx,
                &topo,
                &problem.vocab,
                sorts,
                &result.config,
                encode,
            )
            .map_err(Error::Encode)?,
        };
        let fingerprint = config_fingerprint(&topo, &result.config);
        let fingerprints = fingerprint_config(&result.config);
        self.metrics.observe(
            "serve.session.build_ms",
            built.elapsed().as_secs_f64() * 1e3,
        );
        let session = self.pool.insert(
            key,
            Session {
                topo,
                problem,
                ctx,
                sorts,
                config: result.config,
                cache,
                fingerprint,
                fingerprints,
            },
        );
        Ok((session, false))
    }

    /// Repair a locally drifted session: patch its cache onto its
    /// current configuration on a clone of its own context, re-fingerprint,
    /// and re-pool. Returns `None` when the patch (or the cheap re-parse
    /// of the request inputs) fails — the caller then builds fully cold.
    fn salvage(&self, key: SessionKey, spec: &str, stale: &Session) -> Option<Arc<Session>> {
        let started = Instant::now();
        let topo = stale.topo.clone();
        let problem = parse_problem(&topo, "<request>", spec).ok()?;
        let mut ctx = stale.ctx.clone();
        let (cache, stats) = stale
            .cache
            .patch(
                &mut ctx,
                &topo,
                &problem.vocab,
                stale.sorts,
                &stale.config,
                ExplainOptions::default().encode,
            )
            .ok()?;
        let fingerprint = config_fingerprint(&topo, &stale.config);
        let fingerprints = fingerprint_config(&stale.config);
        self.metrics.counter_add("serve.pool.delta_salvaged", 1);
        self.metrics
            .counter_add("serve.pool.delta_crossings_reused", stats.reused);
        self.metrics.observe(
            "serve.session.salvage_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        Some(self.pool.insert(
            key,
            Session {
                topo,
                problem,
                ctx,
                sorts: stale.sorts,
                config: stale.config.clone(),
                cache,
                fingerprint,
                fingerprints,
            },
        ))
    }

    /// Execute one heavy request (`explain` or `lint`). Called from a
    /// worker's `catch_unwind`; a panic in here is isolated to the
    /// request, and the server quarantines the session afterwards.
    pub fn handle(&self, op: &Op, timeout_ms: Option<u64>) -> Result<Handled, Error> {
        match op {
            Op::Explain {
                topology,
                spec,
                router,
                skip_lift,
                workers,
            } => {
                let budget = self.request_budget(timeout_ms);
                let (session, warm) = self.session(topology, spec, &budget)?;
                let result = self
                    .explain(&session, router.as_deref(), *skip_lift, *workers, budget)
                    .inspect_err(|e| self.retire_if_suspect(topology, spec, e))?;
                Ok(Handled { result, warm })
            }
            Op::Lint {
                topology,
                spec,
                workers,
            } => {
                let budget = self.request_budget(timeout_ms);
                let (session, warm) = self.session(topology, spec, &budget)?;
                let diags = lint_network(
                    &session.topo,
                    &session.problem.spec,
                    &session.config,
                    Some(&session.problem.vocab),
                    *workers,
                );
                let (errors, warnings, notes) = diags.counts();
                let findings: Vec<Value> = diags
                    .iter()
                    .map(|d| {
                        Value::object([
                            ("code", Value::from(d.code.id())),
                            ("severity", Value::from(d.severity.to_string().as_str())),
                            ("message", Value::from(d.message.as_str())),
                            ("place", Value::from(d.span.place.as_str())),
                        ])
                    })
                    .collect();
                Ok(Handled {
                    result: Value::object([
                        ("errors", Value::from(errors)),
                        ("warnings", Value::from(warnings)),
                        ("notes", Value::from(notes)),
                        ("findings", Value::from(findings)),
                    ]),
                    warm,
                })
            }
            // Control ops are answered inline by the server, never queued.
            Op::Ping | Op::Stats | Op::ArmFault { .. } | Op::Shutdown { .. } => Err(
                crate::protocol::malformed("control op routed to the worker queue"),
            ),
        }
    }

    /// A session that was interrupted mid-request may hold half-advanced
    /// state; retire it so the next request starts fresh.
    fn retire_if_suspect(&self, topology: &str, spec: &str, err: &Error) {
        if matches!(err, Error::Interrupted(_)) || err.code().starts_with("NX8") {
            self.pool.quarantine(&SessionKey::new(topology, spec));
            self.metrics.counter_add("serve.pool.retired", 1);
        }
    }

    /// Quarantine the session a crashed request was using.
    pub fn quarantine_for(&self, op: &Op) {
        if let Op::Explain { topology, spec, .. } | Op::Lint { topology, spec, .. } = op {
            self.pool.quarantine(&SessionKey::new(topology, spec));
        }
    }

    /// Pooled session count (for `stats`).
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn explain(
        &self,
        session: &Session,
        router: Option<&str>,
        skip_lift: bool,
        workers: usize,
        budget: Budget,
    ) -> Result<Value, Error> {
        // The pooled base context stays pristine; each request extends a
        // clone (term ids survive cloning — the arena is append-only).
        let mut ctx = session.ctx.clone();
        let explain_opts = ExplainOptions {
            skip_lift,
            budget,
            ..Default::default()
        };
        let selector = Selector::Router;
        if let Some(name) = router {
            let rid = session
                .topo
                .router_by_name(name)
                .ok_or_else(|| Error::Topology(format!("unknown router `{name}`")))?;
            let e = explain_cached(
                &mut ctx,
                &session.topo,
                &session.problem.vocab,
                session.sorts,
                &session.config,
                &session.problem.spec,
                rid,
                &selector,
                explain_opts,
                Some(&session.cache),
            )
            .map_err(Error::Explain)?;
            return Ok(explanation_json(&e));
        }
        let all = explain_all_cached(
            &mut ctx,
            &session.topo,
            &session.problem.vocab,
            session.sorts,
            &session.config,
            &session.problem.spec,
            &selector,
            ExplainAllOptions {
                explain: explain_opts,
                workers,
                fail_fast: false,
            },
            &session.cache,
        )
        .map_err(Error::Explain)?;
        let routers: Vec<Value> = all
            .routers
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("router", Value::from(r.router.as_str())),
                    ("status", Value::from(r.outcome.status())),
                ];
                match &r.outcome {
                    RouterOutcome::Explained(e) => {
                        fields.push(("subspecification", Value::from(e.subspec.to_string())));
                        fields.push(("partial", Value::from(!e.verdicts.all_verified())));
                    }
                    RouterOutcome::Failed(err) => {
                        fields.push(("error", Value::from(err.to_string())));
                    }
                    RouterOutcome::Skipped => {}
                }
                Value::object(fields)
            })
            .collect();
        Ok(Value::object([
            ("workers", Value::from(all.workers)),
            ("cache_crossings", Value::from(all.cache_size)),
            ("cache_hits", Value::from(all.cache_hits)),
            ("cache_misses", Value::from(all.cache_misses)),
            ("partial", Value::from(all.partial())),
            ("routers", Value::from(routers)),
        ]))
    }
}

fn explanation_json(e: &Explanation) -> Value {
    Value::object([
        ("router", Value::from(e.router.as_str())),
        ("subspecification", Value::from(e.subspec.to_string())),
        ("exact", Value::from(e.lift_complete)),
        ("partial", Value::from(!e.verdicts.all_verified())),
        ("seed_conjuncts", Value::from(e.seed_conjuncts)),
        ("simplified_conjuncts", Value::from(e.simplified_conjuncts)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
// @originate P1 200.7.0.0/16
dest D1 = 200.7.0.0/16
Req1 { !(P1 -> ... -> P2) }
";

    fn explain_op() -> Op {
        Op::Explain {
            topology: "paper".into(),
            spec: SPEC.into(),
            router: None,
            skip_lift: true,
            workers: 1,
        }
    }

    #[test]
    fn cold_then_warm_explain_share_the_session() {
        let engine = Engine::new(EngineConfig::default(), SharedMetrics::new());
        let cold = engine.handle(&explain_op(), None).unwrap();
        assert!(!cold.warm);
        let warm = engine.handle(&explain_op(), None).unwrap();
        assert!(warm.warm);
        assert_eq!(engine.pool_len(), 1);
        // Warm runs replay the pooled cache.
        assert!(
            warm.result
                .get("cache_hits")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                > 0,
            "{}",
            serde_json::to_string(&warm.result)
        );
        assert_eq!(engine.metrics().counter("serve.pool.hits"), 1);
        assert_eq!(engine.metrics().counter("serve.pool.misses"), 1);
    }

    #[test]
    fn lint_requests_share_the_warm_session_with_explain() {
        let engine = Engine::new(EngineConfig::default(), SharedMetrics::new());
        engine.handle(&explain_op(), None).unwrap();
        let lint = engine
            .handle(
                &Op::Lint {
                    topology: "paper".into(),
                    spec: SPEC.into(),
                    workers: 1,
                },
                None,
            )
            .unwrap();
        assert!(lint.warm);
        assert!(lint.result.get("errors").is_some());
    }

    #[test]
    fn single_router_explain_and_unknown_router() {
        let engine = Engine::new(EngineConfig::default(), SharedMetrics::new());
        let op = Op::Explain {
            topology: "paper".into(),
            spec: SPEC.into(),
            router: Some("R3".into()),
            skip_lift: true,
            workers: 1,
        };
        let h = engine.handle(&op, None).unwrap();
        assert_eq!(h.result.get("router").and_then(Value::as_str), Some("R3"));
        let bad = Op::Explain {
            topology: "paper".into(),
            spec: SPEC.into(),
            router: Some("Nope".into()),
            skip_lift: true,
            workers: 1,
        };
        let err = engine.handle(&bad, None).map(|_| ()).unwrap_err();
        assert_eq!(err.code(), "NX103");
    }

    #[test]
    fn cross_spec_cold_build_adopts_the_pooled_encoding() {
        let engine = Engine::new(EngineConfig::default(), SharedMetrics::new());
        let a = engine.handle(&explain_op(), None).unwrap();
        assert!(!a.warm);
        assert_eq!(engine.metrics().counter("serve.pool.delta_builds"), 0);
        let op_b = Op::Explain {
            topology: "paper".into(),
            spec: SPEC.replace("Req1", "ReqB"),
            router: None,
            skip_lift: true,
            workers: 1,
        };
        let b = engine.handle(&op_b, None).unwrap();
        assert!(!b.warm, "a new spec hash is still a cold build");
        assert_eq!(engine.metrics().counter("serve.pool.delta_builds"), 1);
        assert!(
            engine
                .metrics()
                .counter("serve.pool.delta_crossings_reused")
                > 0
        );
        assert_eq!(engine.pool_len(), 2);
        // Renaming the requirement does not change the problem: the
        // adopted build answers exactly like the from-scratch one.
        assert_eq!(a.result.get("routers"), b.result.get("routers"));
    }

    #[test]
    fn locally_drifted_session_is_salvaged_not_retired() {
        let engine = Engine::new(EngineConfig::default(), SharedMetrics::new());
        let cold = engine.handle(&explain_op(), None).unwrap();
        assert!(!cold.warm);
        // Simulate in-place drift: swap the pooled entry for one whose
        // config carries a cosmetic renumber its fingerprints predate.
        let key = SessionKey::new("paper", SPEC);
        engine.pool.insert(
            key,
            crate::pool::testutil::drifted_session("paper", SPEC, true),
        );
        let salvaged = engine.handle(&explain_op(), None).unwrap();
        assert!(salvaged.warm, "drift must be repaired, not NX806-retired");
        assert_eq!(engine.metrics().counter("serve.pool.drifted"), 1);
        assert_eq!(engine.metrics().counter("serve.pool.delta_salvaged"), 1);
        assert_eq!(
            engine.metrics().counter("serve.pool.retired_fingerprint"),
            0
        );
        // The repaired entry is healthy again: plainly warm from here on,
        // and — the edit being cosmetic — it answers like the original.
        let warm = engine.handle(&explain_op(), None).unwrap();
        assert!(warm.warm);
        assert_eq!(engine.metrics().counter("serve.pool.drifted"), 1);
        assert_eq!(cold.result.get("routers"), warm.result.get("routers"));
    }

    #[test]
    fn budget_caps_client_timeouts_at_the_server_ceiling() {
        let engine = Engine::new(
            EngineConfig {
                max_timeout: Duration::from_millis(50),
                ..Default::default()
            },
            SharedMetrics::new(),
        );
        // Either way the deadline exists and is at most the ceiling.
        for asked in [None, Some(10_000u64)] {
            let b = engine.request_budget(asked);
            assert!(!b.is_unlimited());
        }
    }
}
