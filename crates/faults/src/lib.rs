//! Deterministic fault injection for robustness testing.
//!
//! A *fault site* is a named point in the pipeline (e.g. `sat.search`) where
//! production code asks [`triggered`] whether an injected fault should fire.
//! Sites are armed in three scopes:
//!
//! - [`arm`] returns a guard and arms the site **for the arming thread
//!   only**: concurrent tests (or any other thread) never see it, so a
//!   fault test cannot leak its fault into an unrelated test running
//!   beside it. Guard users drive serial pipelines on their own thread.
//! - [`Shots`] holds counted armings for **one owner**, a server: its
//!   `arm-fault` op arms a `serve.*` site for a number of triggers, and
//!   only that server's threads consume them ([`Shots::fire`]).
//! - [`arm_from_env`] arms **the process** from the `NETEXPL_FAULT`
//!   environment variable, used by the CLI so `scripts/ci.sh` can
//!   smoke-test the error paths of a release binary. A CLI process runs
//!   one command, so under `serve` this arms the whole server.
//!
//! The harness is deliberately tiny and always compiled in: the fast path is
//! a single relaxed atomic load, so an unarmed binary pays one predictable
//! branch per site. The contract the fault-injection test suite enforces is
//! that every armed site yields a *typed* error or an `Unknown` verdict —
//! never a panic, and never a wrong `Sat`/`Unsat` answer.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// All injection points wired into the pipeline, in pipeline order.
pub mod sites {
    /// Interrupt the CDCL search loop at its first budget checkpoint.
    pub const SAT_SEARCH: &str = "sat.search";
    /// Interrupt the DPLL oracle before it descends.
    pub const DPLL_SEARCH: &str = "dpll.search";
    /// Fail path enumeration inside the encoder.
    pub const ENCODE_PATHS: &str = "encode.paths";
    /// Fail seed-specification construction.
    pub const SEED_ENCODE: &str = "seed.encode";
    /// Interrupt the simplification fixpoint mid-pass.
    pub const SIMPLIFY_PASS: &str = "simplify.pass";
    /// Interrupt the lifter's candidate entailment checks.
    pub const LIFT_CANDIDATE: &str = "lift.candidate";
    /// Interrupt an incremental solver session between queries: the
    /// in-flight query reports `Unknown`, previously returned answers stay
    /// valid, and the session remains usable once disarmed.
    pub const SESSION_QUERY: &str = "session.query";
    /// Reject an accepted server connection at admission: the client gets
    /// a typed overload error and the listener keeps accepting.
    pub const SERVE_ACCEPT: &str = "serve.accept";
    /// Fail the server's request decoder: the request gets a typed
    /// bad-request error and the connection stays usable.
    pub const SERVE_DECODE: &str = "serve.decode";
    /// Panic inside a server's request pipeline: the request gets a typed
    /// crash error, the warm session it used is quarantined, and the
    /// connection and the server keep serving.
    pub const SERVE_WORKER: &str = "serve.worker";
    /// Fail the warm-session pool's eviction/insert path: the request gets
    /// a typed pool error and the entry is discarded, never reused.
    pub const SERVE_EVICT: &str = "serve.evict";

    /// Every site, for exhaustive injection matrices.
    pub const ALL: &[&str] = &[
        SAT_SEARCH,
        DPLL_SEARCH,
        ENCODE_PATHS,
        SEED_ENCODE,
        SIMPLIFY_PASS,
        LIFT_CANDIDATE,
        SESSION_QUERY,
        SERVE_ACCEPT,
        SERVE_DECODE,
        SERVE_WORKER,
        SERVE_EVICT,
    ];
}

/// Fast path: true iff at least one site is armed anywhere in the process
/// (on any thread). Only a hint: another thread's guard sends this thread
/// down the slow path, which then finds nothing armed here.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

/// Live [`FaultGuard`]s across all threads; feeds [`ANY_ARMED`].
static LIVE_GUARDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Sites armed by [`arm`] guards on this thread.
    static THREAD_ARMED: RefCell<HashSet<String>> = RefCell::new(HashSet::new());
}

/// Process-wide sites armed from the environment ([`arm_from_env`]).
fn armed_set() -> &'static Mutex<HashSet<String>> {
    static SET: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    SET.get_or_init(|| Mutex::new(HashSet::new()))
}

fn lock_armed() -> MutexGuard<'static, HashSet<String>> {
    // A panic while holding the lock (possible in fault *tests*) must not
    // poison the harness for every later test.
    armed_set().lock().unwrap_or_else(|e| e.into_inner())
}

/// Returns true iff `site` is armed on this thread or process-wide.
/// Production code calls this at each injection point; the unarmed cost is
/// one relaxed atomic load.
pub fn triggered(site: &str) -> bool {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return false;
    }
    THREAD_ARMED.with(|armed| armed.borrow().contains(site)) || lock_armed().contains(site)
}

/// Counted armings owned by one long-lived consumer — a server's engine —
/// whose faults fire on threads other than the one that armed them: site →
/// remaining triggers. Two owners never see each other's shots, so two
/// servers in one process (or two tests) cannot consume each other's
/// faults.
#[derive(Default)]
pub struct Shots {
    armed: Mutex<HashMap<String, u64>>,
}

impl Shots {
    fn lock(&self) -> MutexGuard<'_, HashMap<String, u64>> {
        // Every update is a single insert or remove, so a poisoned map is
        // still valid.
        self.armed.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arm `site` for exactly `n` triggers of [`Shots::fire`], then
    /// self-disarm. `n == 0` disarms.
    pub fn arm(&self, site: &str, n: u64) {
        let mut armed = self.lock();
        if n == 0 {
            armed.remove(site);
        } else {
            armed.insert(site.to_string(), n);
        }
    }

    /// Returns true iff `site` fires: burns one shot armed here, or else
    /// asks [`triggered`], so a thread guard or `NETEXPL_FAULT` still
    /// arms the site.
    pub fn fire(&self, site: &str) -> bool {
        let mut armed = self.lock();
        if let Some(remaining) = armed.get_mut(site) {
            *remaining -= 1;
            if *remaining == 0 {
                armed.remove(site);
            }
            return true;
        }
        drop(armed);
        triggered(site)
    }
}

/// Guard returned by [`arm`]: disarms the site on the arming thread on
/// drop. Not `Send`: it must be dropped on the thread whose arming it
/// undoes.
pub struct FaultGuard {
    site: String,
    _not_send: PhantomData<*const ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        THREAD_ARMED.with(|armed| armed.borrow_mut().remove(&self.site));
        // Clear the hint only under the armed-set lock, which `arm` also
        // holds, so a guard armed concurrently elsewhere cannot be hidden.
        let env = lock_armed();
        let live = LIVE_GUARDS.fetch_sub(1, Ordering::SeqCst) - 1;
        ANY_ARMED.store(live > 0 || !env.is_empty(), Ordering::Relaxed);
    }
}

/// Arm `site` on the calling thread for the lifetime of the returned
/// guard. Other threads never see the arming, so the guard scopes a fault
/// to the pipeline its test drives on this thread.
pub fn arm(site: &str) -> FaultGuard {
    THREAD_ARMED.with(|armed| armed.borrow_mut().insert(site.to_string()));
    let _env = lock_armed();
    LIVE_GUARDS.fetch_add(1, Ordering::SeqCst);
    ANY_ARMED.store(true, Ordering::Relaxed);
    FaultGuard {
        site: site.to_string(),
        _not_send: PhantomData,
    }
}

/// Arm every site named in the given environment variable (comma-separated),
/// leaving them armed for the rest of the process. Returns the sites armed.
/// Unknown site names are returned in the error so the CLI can reject typos
/// instead of silently testing nothing.
pub fn arm_from_env(var: &str) -> Result<Vec<String>, String> {
    let Ok(raw) = std::env::var(var) else {
        return Ok(Vec::new());
    };
    let mut armed = Vec::new();
    for name in raw.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if !sites::ALL.contains(&name) {
            return Err(format!(
                "unknown fault site `{name}` in {var} (known: {})",
                sites::ALL.join(", ")
            ));
        }
        lock_armed().insert(name.to_string());
        armed.push(name.to_string());
    }
    if !armed.is_empty() {
        ANY_ARMED.store(true, Ordering::Relaxed);
    }
    Ok(armed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_do_not_trigger() {
        let _g = arm(sites::SESSION_QUERY);
        assert!(triggered(sites::SESSION_QUERY));
        assert!(!triggered(sites::SAT_SEARCH));
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _g = arm(sites::LIFT_CANDIDATE);
            assert!(triggered(sites::LIFT_CANDIDATE));
        }
        assert!(!triggered(sites::LIFT_CANDIDATE));
    }

    #[test]
    fn guard_arming_is_invisible_to_other_threads() {
        let _g = arm(sites::SIMPLIFY_PASS);
        assert!(triggered(sites::SIMPLIFY_PASS));
        let elsewhere = std::thread::spawn(|| triggered(sites::SIMPLIFY_PASS))
            .join()
            .unwrap();
        assert!(!elsewhere, "a guard arms only its own thread");
        assert!(triggered(sites::SIMPLIFY_PASS), "still armed here");
    }

    #[test]
    fn counted_arming_consumes_shots_then_self_disarms() {
        let shots = Shots::default();
        shots.arm(sites::SERVE_WORKER, 2);
        assert!(shots.fire(sites::SERVE_WORKER));
        assert!(
            !Shots::default().fire(sites::SERVE_WORKER),
            "another owner never sees these shots"
        );
        assert!(!shots.fire(sites::SERVE_DECODE), "other sites stay unarmed");
        assert!(shots.fire(sites::SERVE_WORKER));
        assert!(
            !shots.fire(sites::SERVE_WORKER),
            "shots exhausted — site must self-disarm"
        );
        // Explicit zero disarms a pending counted arming.
        shots.arm(sites::SERVE_EVICT, 3);
        shots.arm(sites::SERVE_EVICT, 0);
        assert!(!shots.fire(sites::SERVE_EVICT));
        // With no shot left, a guard on this thread still arms the site.
        let _g = arm(sites::SERVE_EVICT);
        assert!(shots.fire(sites::SERVE_EVICT));
    }

    #[test]
    fn env_arming_rejects_unknown_sites() {
        // Use a variable name unique to this test; don't touch NETEXPL_FAULT.
        std::env::set_var("NETEXPL_FAULT_TEST_BAD", "no.such.site");
        let err = arm_from_env("NETEXPL_FAULT_TEST_BAD").unwrap_err();
        assert!(err.contains("no.such.site"), "{err}");
        assert!(arm_from_env("NETEXPL_FAULT_TEST_UNSET").unwrap().is_empty());
    }
}
