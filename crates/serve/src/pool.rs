//! The warm-session pool.
//!
//! Building a session — parse the spec, synthesize the configuration,
//! enumerate every propagation path into an [`EncodeCache`] — dominates a
//! cold request. The pool keeps the finished artifacts keyed by
//! `(topology name, spec-text hash)` so repeat requests skip straight to
//! the per-router pipelines: they clone the base [`Ctx`] (term ids
//! survive cloning) and replay the pooled cache.
//!
//! Safety rules, in order of importance:
//!
//! 1. **Fingerprint guard.** Each entry records the route-map fingerprint
//!    ([`config_fingerprint`]) of the configuration its cache was built
//!    from, and re-checks it on every acquire. A mismatch means the entry
//!    no longer describes its own cache — it is pulled from the pool and
//!    never reused as-is. When the per-router fingerprint vector shows
//!    the drift is *local* (edited route maps, unchanged environment)
//!    the stale session is handed back for delta-patch salvage;
//!    otherwise the request fails typed (NX806).
//! 2. **Quarantine.** A worker panic while a request held an entry
//!    poisons it: the entry is removed immediately and in-flight holders
//!    finish on their own `Arc` without it ever being handed out again.
//! 3. **Retirement.** A budget interrupt or armed fault during a request
//!    marks the session suspect — solver/cache state may be mid-flight —
//!    so the entry is retired after the request instead of being reused.
//! 4. **LRU eviction.** The pool holds at most `capacity` entries;
//!    inserting beyond that evicts the least-recently-acquired one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use netexpl_bgp::{fingerprint_config, FingerprintVector, NetworkConfig};
use netexpl_core::{Error, Problem};
use netexpl_logic::term::Ctx;
use netexpl_obs::SharedMetrics;
use netexpl_synth::encode::{config_fingerprint, EncodeCache};
use netexpl_synth::vocab::VocabSorts;
use netexpl_topology::Topology;

use crate::protocol::pool_failure;

/// Pool key: topology name plus a hash of the exact spec text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// Topology name as given on the wire (`paper`, `line:8`, …).
    pub topology: String,
    /// Hash of the raw spec text (directives included).
    pub spec_hash: u64,
}

impl SessionKey {
    /// Key for a request.
    pub fn new(topology: &str, spec_text: &str) -> SessionKey {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        spec_text.hash(&mut h);
        SessionKey {
            topology: topology.to_string(),
            spec_hash: h.finish(),
        }
    }
}

/// One warm session: everything the per-request pipelines need,
/// immutable after construction. Requests clone the base context and
/// share the rest by reference through the `Arc`.
pub struct Session {
    /// The resolved topology.
    pub topo: Topology,
    /// The parsed problem (spec, originations, vocabulary).
    pub problem: Problem,
    /// Base context with sorts declared and the cache's terms interned.
    pub ctx: Ctx,
    /// Sort handles matching `ctx`.
    pub sorts: VocabSorts,
    /// The synthesized configuration.
    pub config: NetworkConfig,
    /// The shared encoding built from `config` in `ctx`.
    pub cache: EncodeCache,
    /// Route-map fingerprint of `config` at build time.
    pub fingerprint: u64,
    /// Structured per-router fingerprint vector of `config` at build
    /// time. When the scalar guard trips, diffing this against the
    /// current configuration decides whether the drift is local (the
    /// entry is salvaged by delta-patching its cache) or environmental
    /// (the entry is retired outright).
    pub fingerprints: FingerprintVector,
}

impl Session {
    /// Verify the entry still describes its own cache.
    fn healthy(&self) -> bool {
        config_fingerprint(&self.topo, &self.config) == self.fingerprint
    }
}

struct Entry {
    key: SessionKey,
    session: Arc<Session>,
    last_used: u64,
}

/// The LRU pool. All methods are short and lock-bounded; session
/// *construction* happens outside the lock (in the calling worker).
pub struct SessionPool {
    entries: Mutex<Vec<Entry>>,
    capacity: usize,
    clock: AtomicU64,
    metrics: SharedMetrics,
}

/// What [`SessionPool::acquire`] found.
pub enum Acquired {
    /// A healthy warm session.
    Warm(Arc<Session>),
    /// The entry's fingerprint no longer matches its own configuration,
    /// but the drift is local (same originations): the stale entry has
    /// been removed, and the caller rebuilds it by delta-patching the
    /// pooled cache instead of paying a full cold build or failing the
    /// request with NX806.
    Drifted(Arc<Session>),
    /// No usable entry — the caller builds cold and offers the result
    /// back via [`SessionPool::insert`].
    Cold,
}

impl SessionPool {
    /// A pool holding at most `capacity` sessions.
    pub fn new(capacity: usize, metrics: SharedMetrics) -> SessionPool {
        SessionPool {
            entries: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            metrics,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Entry>> {
        // A panicking worker must not wedge the pool for everyone else;
        // entries are only ever swapped whole, so the state is valid.
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn publish_size(&self, n: usize) {
        self.metrics.gauge_set("serve.pool.size", n as i64);
    }

    /// Look up a warm session. The armed `serve.evict` fault discards
    /// the entry and fails *this* request (NX806). The fingerprint guard
    /// removes a stale entry too, but hands it back as
    /// [`Acquired::Drifted`] when the drift is local — the caller
    /// repairs it by delta-patching — and only fails the request when
    /// the environment itself changed.
    pub fn acquire(&self, key: &SessionKey) -> Result<Acquired, Error> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.lock();
        let Some(pos) = entries.iter().position(|e| &e.key == key) else {
            self.metrics.counter_add("serve.pool.misses", 1);
            return Ok(Acquired::Cold);
        };
        if netexpl_faults::triggered(netexpl_faults::sites::SERVE_EVICT) {
            entries.remove(pos);
            self.publish_size(entries.len());
            self.metrics.counter_add("serve.pool.quarantined", 1);
            return Err(pool_failure("fault injected at serve.evict"));
        }
        if !entries[pos].session.healthy() {
            let stale = entries.remove(pos);
            self.publish_size(entries.len());
            // Local drift (same environment) is salvageable: the caller
            // delta-patches the stale cache onto the current
            // configuration. An origination change invalidates the path
            // enumeration wholesale — retire, counted separately from
            // LRU evictions so `stats` shows why entries disappear.
            let current = fingerprint_config(&stale.session.config);
            let diff = stale.session.fingerprints.diff(&current);
            if !diff.originations_changed {
                self.metrics.counter_add("serve.pool.drifted", 1);
                return Ok(Acquired::Drifted(stale.session));
            }
            self.metrics
                .counter_add("serve.pool.retired_fingerprint", 1);
            return Err(pool_failure("route-map fingerprint mismatch"));
        }
        entries[pos].last_used = tick;
        self.metrics.counter_add("serve.pool.hits", 1);
        Ok(Acquired::Warm(Arc::clone(&entries[pos].session)))
    }

    /// The most-recently-used healthy session on the same topology under
    /// a *different* key. A cold build for `key` can adopt its context
    /// and delta-patch its cache — replaying every unchanged crossing —
    /// instead of enumerating the whole encoding from scratch.
    /// `last_used` is not bumped: reading an entry as a patch base is
    /// not a use of its own key.
    pub fn delta_base(&self, key: &SessionKey) -> Option<Arc<Session>> {
        let entries = self.lock();
        entries
            .iter()
            .filter(|e| e.key != *key && e.key.topology == key.topology && e.session.healthy())
            .max_by_key(|e| e.last_used)
            .map(|e| Arc::clone(&e.session))
    }

    /// Offer a freshly built session to the pool, evicting the LRU entry
    /// beyond capacity. Returns the `Arc` for the offering request to
    /// use.
    pub fn insert(&self, key: SessionKey, session: Session) -> Arc<Session> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let session = Arc::new(session);
        let mut entries = self.lock();
        entries.retain(|e| e.key != key);
        entries.push(Entry {
            key,
            session: Arc::clone(&session),
            last_used: tick,
        });
        while entries.len() > self.capacity {
            let lru = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .unwrap_or(0);
            entries.remove(lru);
            self.metrics.counter_add("serve.pool.evictions", 1);
        }
        self.publish_size(entries.len());
        session
    }

    /// Remove an entry outright (worker panic, interrupt, fault): the
    /// session is never handed out again; in-flight holders keep their
    /// `Arc`.
    pub fn quarantine(&self, key: &SessionKey) {
        let mut entries = self.lock();
        let before = entries.len();
        entries.retain(|e| &e.key != key);
        if entries.len() < before {
            self.metrics.counter_add("serve.pool.quarantined", 1);
        }
        self.publish_size(entries.len());
    }

    /// Entries currently pooled.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Session builders shared by the pool and engine test modules.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use netexpl_core::{parse_problem, synthesize_problem, topology_by_name};
    use netexpl_logic::budget::Budget;
    use netexpl_synth::encode::EncodeOptions;

    pub(crate) fn build_session(topology: &str, spec: &str) -> Session {
        let topo = topology_by_name(topology).unwrap();
        let problem = parse_problem(&topo, "<test>", spec).unwrap();
        let mut ctx = Ctx::new();
        let sorts = problem.vocab.sorts(&mut ctx);
        let result =
            synthesize_problem(&topo, &problem, &mut ctx, sorts, Budget::unlimited()).unwrap();
        let cache = EncodeCache::build(
            &mut ctx,
            &topo,
            &problem.vocab,
            sorts,
            &result.config,
            EncodeOptions::default(),
        )
        .unwrap();
        let fingerprint = config_fingerprint(&topo, &result.config);
        let fingerprints = fingerprint_config(&result.config);
        Session {
            topo,
            problem,
            ctx,
            sorts,
            config: result.config,
            cache,
            fingerprint,
            fingerprints,
        }
    }

    /// A session whose `config` no longer matches the fingerprints it
    /// was built with — the seq of one route-map entry is bumped
    /// (order-preserving, so the route-map drift is local). With
    /// `keep_env` the originations carry over (salvageable drift);
    /// without, the environment changed too (retiring drift).
    pub(crate) fn drifted_session(topology: &str, spec: &str, keep_env: bool) -> Session {
        let mut s = build_session(topology, spec);
        let text = s.config.render(&s.topo);
        let mut done = false;
        let edited_text: String = text
            .lines()
            .map(|l| {
                if !done && l.starts_with("route-map ") {
                    if let Some((head, seq)) = l.rsplit_once(' ') {
                        if let Ok(n) = seq.parse::<u32>() {
                            done = true;
                            return format!("{head} {}\n", n + 1);
                        }
                    }
                }
                format!("{l}\n")
            })
            .collect();
        assert!(done, "no route-map line to edit in:\n{text}");
        let mut edited = netexpl_bgp::parse_config(&s.topo, &edited_text).unwrap();
        if keep_env {
            for o in s.config.originations() {
                edited.originate(o.router, o.prefix);
            }
        }
        s.config = edited;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{build_session, drifted_session};
    use super::*;

    const SPEC: &str = "\
// @originate P1 200.7.0.0/16
dest D1 = 200.7.0.0/16
Req1 { !(P1 -> ... -> P2) }
";

    #[test]
    fn cold_then_warm_then_quarantine() {
        let pool = SessionPool::new(2, SharedMetrics::new());
        let key = SessionKey::new("paper", SPEC);
        assert!(matches!(pool.acquire(&key).unwrap(), Acquired::Cold));
        pool.insert(key.clone(), build_session("paper", SPEC));
        assert!(matches!(pool.acquire(&key).unwrap(), Acquired::Warm(_)));
        pool.quarantine(&key);
        assert!(matches!(pool.acquire(&key).unwrap(), Acquired::Cold));
        assert!(pool.is_empty());
    }

    #[test]
    fn lru_eviction_drops_the_oldest() {
        let metrics = SharedMetrics::new();
        let pool = SessionPool::new(2, metrics.clone());
        let spec_b = SPEC.replace("Req1", "ReqB");
        let spec_c = SPEC.replace("Req1", "ReqC");
        let (ka, kb, kc) = (
            SessionKey::new("paper", SPEC),
            SessionKey::new("paper", &spec_b),
            SessionKey::new("paper", &spec_c),
        );
        pool.insert(ka.clone(), build_session("paper", SPEC));
        pool.insert(kb.clone(), build_session("paper", &spec_b));
        // Touch A so B becomes the LRU.
        assert!(matches!(pool.acquire(&ka).unwrap(), Acquired::Warm(_)));
        pool.insert(kc.clone(), build_session("paper", &spec_c));
        assert_eq!(pool.len(), 2);
        assert!(matches!(pool.acquire(&kb).unwrap(), Acquired::Cold));
        assert!(matches!(pool.acquire(&ka).unwrap(), Acquired::Warm(_)));
        assert!(matches!(pool.acquire(&kc).unwrap(), Acquired::Warm(_)));
        assert_eq!(metrics.counter("serve.pool.evictions"), 1);
    }

    #[test]
    fn local_drift_is_handed_back_for_salvage() {
        let metrics = SharedMetrics::new();
        let pool = SessionPool::new(2, metrics.clone());
        let key = SessionKey::new("paper", SPEC);
        pool.insert(key.clone(), drifted_session("paper", SPEC, true));
        let drifted = match pool.acquire(&key).unwrap() {
            Acquired::Drifted(s) => s,
            _ => panic!("local drift must be salvageable, not discarded"),
        };
        // The stale entry is out of the pool; the caller repairs and
        // re-inserts it.
        assert!(pool.is_empty());
        assert!(!drifted.healthy());
        assert_eq!(metrics.counter("serve.pool.drifted"), 1);
        assert_eq!(metrics.counter("serve.pool.retired_fingerprint"), 0);
    }

    #[test]
    fn origination_drift_retires_with_a_typed_error() {
        let metrics = SharedMetrics::new();
        let pool = SessionPool::new(2, metrics.clone());
        let key = SessionKey::new("paper", SPEC);
        // The live config lost its environment along with the map edit:
        // the drift is not local, so the entry must not be salvaged.
        pool.insert(key.clone(), drifted_session("paper", SPEC, false));
        let err = match pool.acquire(&key) {
            Err(e) => e,
            Ok(_) => panic!("origination drift must retire the entry"),
        };
        assert_eq!(err.code(), "NX806");
        assert!(pool.is_empty());
        assert_eq!(metrics.counter("serve.pool.retired_fingerprint"), 1);
        assert_eq!(metrics.counter("serve.pool.drifted"), 0);
    }

    #[test]
    fn delta_base_prefers_the_most_recent_same_topology_entry() {
        let pool = SessionPool::new(3, SharedMetrics::new());
        let spec_b = SPEC.replace("Req1", "ReqB");
        let (ka, kb) = (
            SessionKey::new("paper", SPEC),
            SessionKey::new("paper", &spec_b),
        );
        let kc = SessionKey::new("paper", "missing");
        assert!(pool.delta_base(&kc).is_none());
        let sa = pool.insert(ka.clone(), build_session("paper", SPEC));
        let sb = pool.insert(kb.clone(), build_session("paper", &spec_b));
        // B was inserted last, so it is the MRU base for a fresh key —
        // but never for its own key.
        let base = pool.delta_base(&kc).expect("same-topology base");
        assert!(Arc::ptr_eq(&base, &sb));
        let base = pool.delta_base(&kb).expect("other-key base");
        assert!(Arc::ptr_eq(&base, &sa));
        // Touching A makes it the MRU.
        assert!(matches!(pool.acquire(&ka).unwrap(), Acquired::Warm(_)));
        let base = pool.delta_base(&kc).expect("same-topology base");
        assert!(Arc::ptr_eq(&base, &sa));
        // Never a different topology.
        assert!(pool.delta_base(&SessionKey::new("line:3", "x")).is_none());
    }

    #[test]
    fn evict_fault_discards_the_entry_with_a_typed_error() {
        let _serial = netexpl_faults::test_lock();
        let pool = SessionPool::new(2, SharedMetrics::new());
        let key = SessionKey::new("paper", SPEC);
        pool.insert(key.clone(), build_session("paper", SPEC));
        netexpl_faults::arm_shots(netexpl_faults::sites::SERVE_EVICT, 1);
        let err = match pool.acquire(&key) {
            Err(e) => e,
            Ok(_) => panic!("armed evict fault must fail the acquire"),
        };
        assert_eq!(err.code(), "NX806");
        // The one-shot fault is consumed; the entry is gone; the next
        // acquire rebuilds cold.
        assert!(matches!(pool.acquire(&key).unwrap(), Acquired::Cold));
    }
}
