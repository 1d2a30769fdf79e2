//! The warm-session pool.
//!
//! Building a session — parse the spec, synthesize the configuration,
//! enumerate every propagation path into an [`EncodeCache`] — dominates a
//! cold request. The pool keeps the finished artifacts keyed by
//! `(topology name, spec-text hash)` so repeat requests skip straight to
//! the per-router pipelines: they fork the frozen base [`Ctx`] (an O(1)
//! clone that keeps every term id) and replay the pooled cache. Every
//! cold build starts from a fresh context (`Session::build`), so sessions
//! share nothing and a pooled arena holds only its own spec's terms.
//!
//! A session is immutable once pooled, so an entry always describes its
//! own cache and needs no re-check on acquire. Entries leave the pool by
//! three rules:
//!
//! 1. **Quarantine.** A panic while a request held an entry
//!    poisons it: the entry is removed immediately and in-flight holders
//!    finish on their own `Arc` without it ever being handed out again.
//! 2. **Retirement.** A budget interrupt or armed fault during a request
//!    marks the session suspect — solver/cache state may be mid-flight —
//!    so the entry is retired after the request instead of being reused.
//! 3. **LRU eviction.** The pool holds at most `capacity` entries;
//!    inserting beyond that evicts the least-recently-acquired one.
//!
//! The armed `serve.evict` fault also discards the entry it hits and
//! fails that request (NX806).
//!
//! A removed entry may hold the last `Arc` of its session, and dropping
//! it frees a whole arena, cache and configuration. Entries are therefore
//! moved out under the lock and dropped after it is released.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use netexpl_bgp::NetworkConfig;
use netexpl_core::{parse_problem, synthesize_problem, topology_by_name, Error, Problem};
use netexpl_faults::{sites, Shots};
use netexpl_logic::budget::Budget;
use netexpl_logic::term::Ctx;
use netexpl_obs::SharedMetrics;
use netexpl_synth::encode::{EncodeCache, EncodeOptions};
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
/// immutable after construction. Requests fork the frozen base context
/// and share the rest by reference through the `Arc`.
pub struct Session {
    /// The resolved topology.
    pub topo: Topology,
    /// The parsed problem (spec, originations, vocabulary).
    pub problem: Problem,
    /// Base context with sorts declared and the cache's terms interned,
    /// frozen so that a clone costs O(1).
    pub ctx: Ctx,
    /// Sort handles matching `ctx`.
    pub sorts: VocabSorts,
    /// The synthesized configuration.
    pub config: NetworkConfig,
    /// The shared encoding built from `config` in `ctx`.
    pub cache: EncodeCache,
}

impl Session {
    /// Build a session cold: parse the spec, synthesize its configuration
    /// into a fresh context under `budget`, encode that configuration, and
    /// freeze the context. Nothing carries over from other sessions, so
    /// the context holds only this spec's terms.
    pub(crate) fn build(topology: &str, spec: &str, budget: &Budget) -> Result<Session, Error> {
        let topo = topology_by_name(topology)?;
        let problem = parse_problem(&topo, "<request>", spec)?;
        let mut ctx = Ctx::new();
        let sorts = problem.vocab.sorts(&mut ctx);
        let result = synthesize_problem(&topo, &problem, &mut ctx, sorts, budget.clone())?;
        let cache = EncodeCache::build(
            &mut ctx,
            &topo,
            &problem.vocab,
            sorts,
            &result.config,
            EncodeOptions::default(),
        )
        .map_err(Error::Encode)?;
        ctx.freeze();
        Ok(Session {
            topo,
            problem,
            ctx,
            sorts,
            config: result.config,
            cache,
        })
    }
}

struct Entry {
    key: SessionKey,
    session: Arc<Session>,
    last_used: u64,
}

/// The LRU pool. All methods are short and lock-bounded; session
/// *construction* happens outside the lock (in the calling request).
pub struct SessionPool {
    entries: Mutex<Vec<Entry>>,
    capacity: usize,
    clock: AtomicU64,
    metrics: SharedMetrics,
    shots: Arc<Shots>,
}

impl SessionPool {
    /// A pool holding at most `capacity` sessions, whose `serve.evict`
    /// fault fires from `shots` (the owning engine's).
    pub fn new(capacity: usize, metrics: SharedMetrics, shots: Arc<Shots>) -> SessionPool {
        SessionPool {
            entries: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            metrics,
            shots,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Entry>> {
        // A panicking request must not wedge the pool for everyone else;
        // entries are only ever swapped whole, so the state is valid.
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn publish_size(&self, n: usize) {
        self.metrics.gauge_set("serve.pool.size", n as i64);
    }

    /// Look up a warm session. `None` means the caller builds cold and
    /// offers the result back via [`SessionPool::insert`]. The armed
    /// `serve.evict` fault discards the entry and fails *this* request
    /// (NX806).
    pub fn acquire(&self, key: &SessionKey) -> Result<Option<Arc<Session>>, Error> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.lock();
        let Some(pos) = entries.iter().position(|e| &e.key == key) else {
            self.metrics.counter_add("serve.pool.misses", 1);
            return Ok(None);
        };
        if self.shots.fire(sites::SERVE_EVICT) {
            let evicted = entries.remove(pos);
            self.publish_size(entries.len());
            self.metrics.counter_add("serve.pool.quarantined", 1);
            drop(entries);
            drop(evicted);
            return Err(pool_failure("fault injected at serve.evict"));
        }
        entries[pos].last_used = tick;
        self.metrics.counter_add("serve.pool.hits", 1);
        Ok(Some(Arc::clone(&entries[pos].session)))
    }

    /// Offer a freshly built session to the pool, evicting the LRU entry
    /// beyond capacity. Returns the `Arc` for the offering request to
    /// use.
    pub fn insert(&self, key: SessionKey, session: Session) -> Arc<Session> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let session = Arc::new(session);
        let mut entries = self.lock();
        let mut removed: Vec<Entry> = take_key(&mut entries, &key).into_iter().collect();
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
            removed.push(entries.remove(lru));
            self.metrics.counter_add("serve.pool.evictions", 1);
        }
        self.publish_size(entries.len());
        drop(entries);
        drop(removed);
        session
    }

    /// Remove an entry outright (request panic, interrupt, fault): the
    /// session is never handed out again; in-flight holders keep their
    /// `Arc`.
    pub fn quarantine(&self, key: &SessionKey) {
        let mut entries = self.lock();
        let removed = take_key(&mut entries, key);
        if removed.is_some() {
            self.metrics.counter_add("serve.pool.quarantined", 1);
        }
        self.publish_size(entries.len());
        drop(entries);
        drop(removed);
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

/// Move the entry for `key` out of the pool, which holds at most one per
/// key.
fn take_key(entries: &mut Vec<Entry>, key: &SessionKey) -> Option<Entry> {
    let pos = entries.iter().position(|e| &e.key == key)?;
    Some(entries.remove(pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netexpl_logic::budget::Budget;

    const SPEC: &str = "\
// @originate P1 200.7.0.0/16
dest D1 = 200.7.0.0/16
Req1 { !(P1 -> ... -> P2) }
";

    fn build_session(topology: &str, spec: &str) -> Session {
        Session::build(topology, spec, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn cold_then_warm_then_quarantine() {
        let pool = SessionPool::new(2, SharedMetrics::new(), Arc::default());
        let key = SessionKey::new("paper", SPEC);
        assert!(pool.acquire(&key).unwrap().is_none());
        pool.insert(key.clone(), build_session("paper", SPEC));
        assert!(pool.acquire(&key).unwrap().is_some());
        pool.quarantine(&key);
        assert!(pool.acquire(&key).unwrap().is_none());
        assert!(pool.is_empty());
    }

    #[test]
    fn lru_eviction_drops_the_oldest() {
        let metrics = SharedMetrics::new();
        let pool = SessionPool::new(2, metrics.clone(), Arc::default());
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
        assert!(pool.acquire(&ka).unwrap().is_some());
        pool.insert(kc.clone(), build_session("paper", &spec_c));
        assert_eq!(pool.len(), 2);
        assert!(pool.acquire(&kb).unwrap().is_none());
        assert!(pool.acquire(&ka).unwrap().is_some());
        assert!(pool.acquire(&kc).unwrap().is_some());
        assert_eq!(metrics.counter("serve.pool.evictions"), 1);
    }

    #[test]
    fn evict_fault_discards_the_entry_with_a_typed_error() {
        let shots = Arc::new(Shots::default());
        let pool = SessionPool::new(2, SharedMetrics::new(), Arc::clone(&shots));
        let key = SessionKey::new("paper", SPEC);
        pool.insert(key.clone(), build_session("paper", SPEC));
        shots.arm(sites::SERVE_EVICT, 1);
        let err = match pool.acquire(&key) {
            Err(e) => e,
            Ok(_) => panic!("armed evict fault must fail the acquire"),
        };
        assert_eq!(err.code(), "NX806");
        // The one-shot fault is consumed; the entry is gone; the next
        // acquire rebuilds cold.
        assert!(pool.acquire(&key).unwrap().is_none());
    }
}
