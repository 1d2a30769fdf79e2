//! The request engine: protocol-agnostic execution of one decoded
//! request against the warm-session pool.
//!
//! The engine is what a connection thread runs inside its `catch_unwind`
//! envelope, and what tests and perfbench's traced run drive directly
//! (no sockets involved). It owns the pool, the shared metrics and the
//! server's armed fault shots; the server wraps it with admission
//! control, the connection plumbing, and crash isolation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netexpl_core::symbolize::Selector;
use netexpl_core::{
    explain_all_cached, explain_cached, Error, ExplainAllOptions, ExplainOptions, Explanation,
    RouterOutcome,
};
use netexpl_faults::{sites, Shots};
use netexpl_lint::lint_network;
use netexpl_logic::budget::{Budget, CancelToken};
use netexpl_obs::SharedMetrics;
use serde_json::Value;

use crate::pool::{Session, SessionKey, SessionPool};
use crate::protocol::{malformed, Op};

/// The sites `arm-fault` may arm: the ones only a server checks. Pipeline
/// sites are armed for a whole server process through `NETEXPL_FAULT`.
const ARMABLE: [&str; 4] = [
    sites::SERVE_ACCEPT,
    sites::SERVE_DECODE,
    sites::SERVE_WORKER,
    sites::SERVE_EVICT,
];

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
    /// Fault shots armed on this engine; shared with the pool, which
    /// checks `serve.evict`.
    shots: Arc<Shots>,
}

impl Engine {
    /// A fresh engine with its own pool.
    pub fn new(config: EngineConfig, metrics: SharedMetrics) -> Engine {
        let shots = Arc::new(Shots::default());
        Engine {
            pool: SessionPool::new(config.pool_capacity, metrics.clone(), Arc::clone(&shots)),
            metrics,
            config,
            drain: CancelToken::new(),
            shots,
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

    /// Arm `site` for its next `shots` triggers on this engine only
    /// (`0` disarms). Only the four `serve.*` sites are armable; any
    /// other name fails NX802.
    pub fn arm_fault(&self, site: &str, shots: u64) -> Result<(), Error> {
        if !ARMABLE.contains(&site) {
            return Err(malformed(format!(
                "cannot arm fault site `{site}` on a server (armable: {})",
                ARMABLE.join(", ")
            )));
        }
        self.shots.arm(site, shots);
        Ok(())
    }

    /// True iff `site` fires for this engine: an armed shot, a thread
    /// guard, or `NETEXPL_FAULT`.
    pub fn fault(&self, site: &str) -> bool {
        self.shots.fire(site)
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

    /// Acquire a warm session or build one cold ([`Session::build`], in
    /// a fresh context). The cold build runs under the request's budget:
    /// a request that times out synthesizing poisons nothing and pools
    /// nothing.
    fn session(
        &self,
        topology: &str,
        spec: &str,
        budget: &Budget,
    ) -> Result<(Arc<Session>, bool), Error> {
        let key = SessionKey::new(topology, spec);
        if let Some(session) = self.pool.acquire(&key)? {
            return Ok((session, true));
        }
        let built = Instant::now();
        let session = Session::build(topology, spec, budget)?;
        self.metrics.observe(
            "serve.session.build_ms",
            built.elapsed().as_secs_f64() * 1e3,
        );
        Ok((self.pool.insert(key, session), false))
    }

    /// Execute one heavy request (`explain` or `lint`). Called inside the
    /// server's `catch_unwind`; a panic in here is isolated to the
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
            // Control ops are answered by the server itself.
            Op::Ping | Op::Stats | Op::ArmFault { .. } | Op::Shutdown { .. } => {
                Err(malformed("control op sent to the engine"))
            }
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
            // The pooled base context stays pristine: a single-router
            // request extends an O(1) fork of it (the context is frozen,
            // and term ids survive the fork). The all-router path forks
            // it per router.
            let mut ctx = session.ctx.clone();
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
            &session.ctx,
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

    /// A cold build freezes its context once; a warm explain forks the
    /// frozen context and copies nothing, so it freezes nothing.
    #[test]
    fn only_a_cold_explain_freezes_a_context() {
        let engine = Engine::new(EngineConfig::default(), SharedMetrics::new());
        let mut single = explain_op();
        if let Op::Explain { router, .. } = &mut single {
            *router = Some("R1".into());
        }
        let freezes = |op: &Op| {
            let (guard, handle) = netexpl_obs::install_memory();
            engine.handle(op, None).unwrap();
            drop(guard);
            handle.spans_named("ctx.freeze")
        };
        let cold = freezes(&explain_op());
        assert_eq!(cold.len(), 1, "{cold:?}");
        assert_eq!(
            cold[0].attr("copied"),
            Some(&netexpl_obs::AttrValue::Bool(false))
        );
        assert!(freezes(&explain_op()).is_empty(), "warm all-router explain");
        assert!(freezes(&single).is_empty(), "warm single-router explain");
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
    fn cross_spec_cold_build_answers_like_a_fresh_engine() {
        let engine = Engine::new(EngineConfig::default(), SharedMetrics::new());
        let a = engine.handle(&explain_op(), None).unwrap();
        assert!(!a.warm);
        let op_b = Op::Explain {
            topology: "paper".into(),
            spec: SPEC.replace("Req1", "ReqB"),
            router: None,
            skip_lift: true,
            workers: 1,
        };
        let b = engine.handle(&op_b, None).unwrap();
        assert!(!b.warm, "a new spec hash is still a cold build");
        assert_eq!(engine.pool_len(), 2);
        // A pooled session under another key changes nothing: B answers
        // exactly like an engine that never saw A.
        let fresh = Engine::new(EngineConfig::default(), SharedMetrics::new())
            .handle(&op_b, None)
            .unwrap();
        assert_eq!(b.result.get("routers"), fresh.result.get("routers"));
        // Renaming the requirement does not change the problem.
        assert_eq!(a.result.get("routers"), b.result.get("routers"));
    }

    #[test]
    fn alternating_specs_keep_the_pooled_arena_bounded() {
        // serve-fabric's two ring:6 variants: `a` forbids transit, `b`
        // also asks reachability. With one pool slot every request
        // evicts the other spec's session and builds cold.
        let spec_a = "\
// @originate Pa 200.7.0.0/16
// @originate Pb 201.0.0.0/16
dest D1 = 200.7.0.0/16
dest D2 = 201.0.0.0/16
Req1 {
  !(Pa -> ... -> Pb)
  !(Pb -> ... -> Pa)
}
";
        let spec_b = format!("{spec_a}Req2 {{\n  R0 ~> D2\n}}\n");
        let engine = Engine::new(
            EngineConfig {
                pool_capacity: 1,
                ..Default::default()
            },
            SharedMetrics::new(),
        );
        let mut first: [Option<(usize, Value)>; 2] = [None, None];
        for i in 0..12 {
            let spec = [spec_a, spec_b.as_str()][i % 2];
            let op = Op::Explain {
                topology: "ring:6".into(),
                spec: spec.into(),
                router: None,
                skip_lift: true,
                workers: 1,
            };
            let reply = engine.handle(&op, None).unwrap();
            assert!(!reply.warm, "request {i}: the other spec held the slot");
            let (session, warm) = engine
                .session("ring:6", spec, &Budget::unlimited())
                .unwrap();
            assert!(warm);
            let terms = session.ctx.num_terms();
            let routers = reply.result.get("routers").cloned().unwrap();
            let (first_terms, first_routers) =
                first[i % 2].get_or_insert_with(|| (terms, routers.clone()));
            assert_eq!(
                terms, *first_terms,
                "request {i}: a cold build must not carry earlier builds' terms"
            );
            assert_eq!(routers, *first_routers, "request {i}");
        }
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
