//! Symbolic encoding of BGP propagation and the specification.
//!
//! The encoder enumerates, per announced prefix, every candidate propagation
//! path from the prefix's origins through the internal network, and folds
//! each path through the (possibly symbolic) route maps it crosses. The
//! fold mirrors `RouteMap::apply` exactly — first matching entry decides,
//! implicit deny on a non-empty map, sets applied in order — but over terms:
//!
//! * `alive(p)` — boolean term: the policies permit the route to propagate
//!   all the way along `p`;
//! * `lp(p)`, `nh(p)`, `has_c(p)` — the route's local preference (bounded
//!   int), next hop (`Val` enum) and community membership (bools) at the
//!   end of the path.
//!
//! On top of availability, the encoder builds **selection fixpoints**:
//! per-path boolean `sel` variables constrained so that a path is selected
//! iff it is alive, its parent was selected upstream (BGP advertises best
//! routes only), and it wins the decision process against every co-located
//! candidate. The SAT solver thereby searches over exactly the stable
//! routing states the concrete simulator converges to.
//!
//! Requirements then become:
//!
//! * **forbidden pattern** → `¬alive(p)` for every enumerated path whose
//!   traffic path (the reverse of `p`) matches the pattern — availability
//!   semantics, identical to the concrete checker's reading;
//! * **reachability** → `⋁ sel(p)` over paths ending at the source;
//! * **preference** → the better path is selected at the source in the
//!   nominal state; the worse path is selected once the better path's
//!   distinguishing links fail; and in strict mode (NetComplete's
//!   interpretation (1)) no unspecified path may be selected in the
//!   checker's two minimal-failure scenarios.
//!
//! Conditional attribute updates (a symbolic entry that may or may not set
//! `local-pref`) introduce fresh definition variables constrained by
//! implications — these are precisely the "low-level encoding variables"
//! the paper's §4 observes make raw seed specifications hard to read.

use std::collections::{BTreeMap, HashMap};

use netexpl_bgp::{Action, Origination};
use netexpl_logic::term::{Ctx, TermId};
use netexpl_spec::{PathPattern, PreferenceMode, Requirement, Seg, Specification};
use netexpl_topology::{AsNum, Link, Prefix, RouterId, RouterKind, Topology};

use crate::sketch::{Hole, SymMatch, SymNetworkConfig, SymRouteMap, SymSet};
use crate::vocab::{attr_idx, VocabSorts, Vocabulary};

/// Options controlling the encoding.
#[derive(Debug, Clone, Copy)]
pub struct EncodeOptions {
    /// Maximum number of routers on an enumerated propagation path.
    pub max_path_len: usize,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions { max_path_len: 10 }
    }
}

/// An encoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A requirement mentions a router missing from the topology.
    UnknownRouter(String),
    /// A requirement mentions an undeclared destination.
    UnknownDest(String),
    /// A pattern shape the encoder does not support.
    UnsupportedPattern(String),
    /// The specified prefix is never originated.
    NoOrigin(Prefix),
    /// An internal encoder invariant failed — previously a panic site.
    /// Reported as a typed error so malformed intermediate states (or
    /// injected faults) degrade into diagnostics instead of crashes.
    Internal(String),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::UnknownRouter(r) => write!(f, "unknown router `{r}`"),
            EncodeError::UnknownDest(d) => write!(f, "unknown destination `{d}`"),
            EncodeError::UnsupportedPattern(p) => write!(f, "unsupported pattern `{p}`"),
            EncodeError::NoOrigin(p) => write!(f, "prefix {p} is never originated"),
            EncodeError::Internal(m) => write!(f, "internal encoder error: {m}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Symbolic route state at the end of a (prefix of a) propagation path.
#[derive(Debug, Clone)]
struct SymRoute {
    alive: TermId,
    lp: TermId,
    nh: TermId,
    comms: Vec<TermId>,
    as_path: Vec<AsNum>,
}

/// One fully enumerated propagation path with its end-state terms.
#[derive(Debug, Clone)]
pub struct PathInfo {
    /// Routers from origin to holder.
    pub routers: Vec<RouterId>,
    /// Aliveness term.
    pub alive: TermId,
    /// Local-preference term at the holder.
    pub lp: TermId,
    /// Concrete AS-path length.
    pub as_len: usize,
}

impl PathInfo {
    /// The traffic path (holder back to origin).
    pub fn traffic_path(&self) -> Vec<RouterId> {
        let mut p = self.routers.clone();
        p.reverse();
        p
    }

    /// The router holding the route.
    pub fn holder(&self) -> RouterId {
        // `routers` always holds at least origin + holder (see `dfs`).
        *self
            .routers
            .last()
            .expect("PathInfo.routers is never empty")
    }

    /// The neighbor the holder learned the route from.
    pub fn learned_from(&self) -> RouterId {
        self.routers[self.routers.len() - 2]
    }
}

/// A reusable encoding of the *concrete* portion of a network.
///
/// Network-wide explanation runs one seed encoding per router, but
/// symbolization touches only the selected router's route maps — every
/// other device, the topology walk, and the protocol mechanics are
/// identical across runs. `EncodeCache::build` performs one path
/// enumeration over the fully concrete network in a base [`Ctx`] and
/// records, per session crossing, the resulting route state and the
/// definitional constraints it emitted. Workers clone the base context
/// (term ids survive cloning; the arena is append-only) and consult the
/// cache from [`Encoder::with_cache`]: a crossing whose route maps are
/// untouched by symbolization and whose incoming state matches a recorded
/// one is replayed instead of re-derived. Crossings involving the
/// symbolized router — or downstream states that differ because of it —
/// miss and are computed locally, which is exactly the "only the
/// symbolized router's clauses are re-derived" split.
#[derive(Debug)]
pub struct EncodeCache {
    /// The fully concrete network the cache was built from. Lookups
    /// compare the querying run's route maps against these; any
    /// difference (e.g. a symbolized map) forces a miss.
    base_sym: SymNetworkConfig,
    /// Recorded crossings: input fingerprint → (output state, emitted
    /// definitional constraints).
    crossings: HashMap<CrossKey, CrossOut>,
    /// The fresh-name counter after the build. Encoders using this cache
    /// start above it so their own definition variables never collide
    /// with replayed ones.
    fresh_floor: u32,
}

/// Fingerprint of one session crossing: the pair of routers, the prefix,
/// and the full incoming route state. Term ids are stable across context
/// clones, so the fingerprint transfers from the base context to workers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CrossKey {
    u: RouterId,
    v: RouterId,
    prefix: Prefix,
    alive: TermId,
    lp: TermId,
    nh: TermId,
    comms: Vec<TermId>,
    as_path: Vec<AsNum>,
}

impl CrossKey {
    fn new(prefix: Prefix, state: &SymRoute, u: RouterId, v: RouterId) -> Self {
        CrossKey {
            u,
            v,
            prefix,
            alive: state.alive,
            lp: state.lp,
            nh: state.nh,
            comms: state.comms.clone(),
            as_path: state.as_path.clone(),
        }
    }
}

/// A recorded crossing result.
#[derive(Debug, Clone)]
struct CrossOut {
    out: SymRoute,
    constraints: Vec<TermId>,
}

/// How much of a delta [`EncodeCache::patch`] could reuse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Crossings replayed unchanged from the prior cache.
    pub reused: u64,
    /// Crossings recomputed because a route map or incoming state changed.
    pub recomputed: u64,
}

impl EncodeCache {
    /// Enumerate every propagation path of the concrete network once,
    /// recording all session crossings. `ctx` becomes the base context
    /// workers should clone.
    pub fn build(
        ctx: &mut Ctx,
        topo: &Topology,
        vocab: &Vocabulary,
        sorts: VocabSorts,
        config: &netexpl_bgp::NetworkConfig,
        options: EncodeOptions,
    ) -> Result<EncodeCache, EncodeError> {
        let base_sym = SymNetworkConfig::from_concrete(config);
        let mut enc = Encoder::new(topo, vocab, sorts, options);
        enc.recording = true;
        // The recorded constraints are only ever *replayed* into a seed
        // encoding on a hit; the build's own output is discarded.
        let mut prefixes: Vec<Prefix> = base_sym.originations.iter().map(|o| o.prefix).collect();
        prefixes.sort();
        prefixes.dedup();
        let mut sink = Vec::new();
        for prefix in prefixes {
            enc.enumerate_paths(ctx, &base_sym, prefix, &mut sink);
        }
        Ok(EncodeCache {
            base_sym,
            crossings: enc.recorded,
            fresh_floor: enc.fresh,
        })
    }

    /// Delta-patch the cache onto an edited configuration: re-enumerate
    /// the new network's paths, replaying every crossing whose route maps
    /// and incoming state are unchanged from this cache's base and
    /// recomputing only the rest. `ctx` must be (a clone of) the context
    /// this cache was built in — replayed term ids resolve there, and
    /// recomputed crossings mint fresh definition variables above the old
    /// floor, so the patched cache shares the arena lineage of the old
    /// one. Equivalent to `EncodeCache::build(ctx, …, new_config, …)` up
    /// to which crossings were recomputed (the replayed ones keep their
    /// original definition variables).
    pub fn patch(
        &self,
        ctx: &mut Ctx,
        topo: &Topology,
        vocab: &Vocabulary,
        sorts: VocabSorts,
        config: &netexpl_bgp::NetworkConfig,
        options: EncodeOptions,
    ) -> Result<(EncodeCache, PatchStats), EncodeError> {
        let base_sym = SymNetworkConfig::from_concrete(config);
        let mut enc = Encoder::new(topo, vocab, sorts, options).with_cache(self);
        enc.recording = true;
        let mut prefixes: Vec<Prefix> = base_sym.originations.iter().map(|o| o.prefix).collect();
        prefixes.sort();
        prefixes.dedup();
        let mut sink = Vec::new();
        for prefix in prefixes {
            enc.enumerate_paths(ctx, &base_sym, prefix, &mut sink);
        }
        let stats = PatchStats {
            reused: enc.cache_hits,
            recomputed: enc.cache_misses,
        };
        Ok((
            EncodeCache {
                base_sym,
                crossings: enc.recorded,
                fresh_floor: enc.fresh,
            },
            stats,
        ))
    }

    /// Number of recorded crossings.
    pub fn len(&self) -> usize {
        self.crossings.len()
    }

    /// True if nothing was recorded (e.g. a network with no originations).
    pub fn is_empty(&self) -> bool {
        self.crossings.is_empty()
    }

    /// Look up a crossing. Hits require both the recorded input
    /// fingerprint *and* that the querying network's route maps at this
    /// crossing are identical to the concrete base (symbolized maps
    /// differ structurally, so they can never hit).
    fn lookup(
        &self,
        sym: &SymNetworkConfig,
        prefix: Prefix,
        state: &SymRoute,
        u: RouterId,
        v: RouterId,
    ) -> Option<&CrossOut> {
        fn session_maps(
            s: &SymNetworkConfig,
            u: RouterId,
            v: RouterId,
        ) -> (Option<&SymRouteMap>, Option<&SymRouteMap>) {
            (
                s.routers.get(&u).and_then(|c| c.export.get(&v)),
                s.routers.get(&v).and_then(|c| c.import.get(&u)),
            )
        }
        if session_maps(sym, u, v) != session_maps(&self.base_sym, u, v) {
            return None;
        }
        self.crossings.get(&CrossKey::new(prefix, state, u, v))
    }
}

/// The encoding result.
#[derive(Debug, Default)]
pub struct Encoded {
    /// Definition constraints: attribute updates (fresh `lp`/`nh` variables)
    /// and selection-fixpoint semantics. These describe *how the network
    /// behaves*, independent of what the specification demands; the
    /// explanation lifter treats them as background theory.
    pub defs: Vec<TermId>,
    /// Requirement constraints: what the specification demands.
    pub reqs: Vec<TermId>,
    /// For each entry of `reqs`, the index (in `spec.requirements()` order)
    /// of the requirement it encodes. Lets the explanation lifter reason
    /// about one requirement at a time, as the paper's Scenario 3 does.
    pub req_origins: Vec<usize>,
    /// Enumerated paths per prefix.
    pub paths: BTreeMap<Prefix, Vec<PathInfo>>,
    /// Nominal (no failures) selection variables per prefix, parallel to
    /// `paths[prefix]`. Built lazily — only prefixes touched by a
    /// reachability or preference requirement get a selection fixpoint.
    pub nominal_sel: BTreeMap<Prefix, Vec<Option<TermId>>>,
    /// Session crossings replayed from a shared [`EncodeCache`]
    /// (always 0 when encoding without one).
    pub cache_hits: u64,
    /// Session crossings computed locally while a cache was installed
    /// (always 0 when encoding without one).
    pub cache_misses: u64,
}

impl Encoded {
    /// All constraints: definitions then requirements.
    pub fn constraints(&self) -> impl Iterator<Item = TermId> + '_ {
        self.defs.iter().chain(self.reqs.iter()).copied()
    }

    /// The conjunction of all constraints.
    pub fn conjunction(&self, ctx: &mut Ctx) -> TermId {
        let all: Vec<TermId> = self.constraints().collect();
        ctx.and(&all)
    }
}

/// The encoder. One instance per encoding run (it owns a fresh-name
/// counter for definition variables).
#[derive(Debug)]
pub struct Encoder<'a> {
    topo: &'a Topology,
    vocab: &'a Vocabulary,
    sorts: VocabSorts,
    options: EncodeOptions,
    fresh: u32,
    /// Shared concrete-crossing cache to consult, if any.
    cache: Option<&'a EncodeCache>,
    /// When set (cache build only), record every crossing computed.
    recording: bool,
    recorded: HashMap<CrossKey, CrossOut>,
    cache_hits: u64,
    cache_misses: u64,
}

impl<'a> Encoder<'a> {
    /// Create an encoder.
    pub fn new(
        topo: &'a Topology,
        vocab: &'a Vocabulary,
        sorts: VocabSorts,
        options: EncodeOptions,
    ) -> Self {
        Encoder {
            topo,
            vocab,
            sorts,
            options,
            fresh: 0,
            cache: None,
            recording: false,
            recorded: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Consult `cache` for concrete crossings during encoding. The
    /// context passed to [`Encoder::encode`] must be (a clone of) the
    /// context the cache was built in, so the replayed term ids resolve.
    /// The fresh-name counter starts above the cache's, keeping locally
    /// derived definition variables distinct from replayed ones.
    pub fn with_cache(mut self, cache: &'a EncodeCache) -> Self {
        self.fresh = self.fresh.max(cache.fresh_floor);
        self.cache = Some(cache);
        self
    }

    /// Encode the propagation semantics of `sym` and the requirements of
    /// `spec` into constraints.
    pub fn encode(
        &mut self,
        ctx: &mut Ctx,
        sym: &SymNetworkConfig,
        spec: &Specification,
    ) -> Result<Encoded, EncodeError> {
        if netexpl_faults::triggered(netexpl_faults::sites::ENCODE_PATHS) {
            return Err(EncodeError::Internal(
                "fault injection: encode.paths".to_string(),
            ));
        }
        // Pre-validate the vocabulary ↔ topology correspondence that
        // `router_val` relies on, so the hot path stays infallible.
        for r in self.topo.router_ids() {
            if !self.vocab.routers.contains(&r) {
                return Err(EncodeError::Internal(format!(
                    "router `{}` missing from the synthesis vocabulary",
                    self.topo.name(r)
                )));
            }
        }
        let mut enc = Encoded::default();

        // Enumerate paths and their states for every announced prefix.
        let mut prefixes: Vec<Prefix> = sym.originations.iter().map(|o| o.prefix).collect();
        prefixes.sort();
        prefixes.dedup();
        for prefix in prefixes {
            let infos = self.enumerate_paths(ctx, sym, prefix, &mut enc.defs);
            enc.paths.insert(prefix, infos);
        }

        // Encode each requirement, recording which requirement produced
        // which constraints.
        for (idx, req) in spec.requirements().enumerate() {
            let before = enc.reqs.len();
            self.encode_requirement(ctx, sym, spec, req, &mut enc)?;
            enc.req_origins
                .extend(std::iter::repeat_n(idx, enc.reqs.len() - before));
        }
        debug_assert_eq!(enc.reqs.len(), enc.req_origins.len());
        enc.cache_hits = self.cache_hits;
        enc.cache_misses = self.cache_misses;
        Ok(enc)
    }

    fn fresh_name(&mut self, base: &str) -> String {
        self.fresh += 1;
        format!("{base}#{}", self.fresh)
    }

    // ---- path enumeration ---------------------------------------------------

    fn enumerate_paths(
        &mut self,
        ctx: &mut Ctx,
        sym: &SymNetworkConfig,
        prefix: Prefix,
        constraints: &mut Vec<TermId>,
    ) -> Vec<PathInfo> {
        let origins: Vec<&Origination> = sym
            .originations
            .iter()
            .filter(|o| o.prefix == prefix)
            .collect();
        let mut out = Vec::new();
        for o in origins {
            let asn = self.topo.router(o.router).as_num;
            let t = ctx.mk_true();
            let lp100 = ctx.int_const(netexpl_bgp::route::DEFAULT_LOCAL_PREF as i64);
            let nh0 = self.router_val(ctx, o.router);
            let state = SymRoute {
                alive: t,
                lp: lp100,
                nh: nh0,
                comms: vec![ctx.mk_false(); self.vocab.communities.len()],
                as_path: vec![asn],
            };
            let mut path = vec![o.router];
            self.dfs(ctx, sym, prefix, &mut path, state, constraints, &mut out);
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &mut self,
        ctx: &mut Ctx,
        sym: &SymNetworkConfig,
        prefix: Prefix,
        path: &mut Vec<RouterId>,
        state: SymRoute,
        constraints: &mut Vec<TermId>,
        out: &mut Vec<PathInfo>,
    ) {
        if path.len() > 1 {
            out.push(PathInfo {
                routers: path.clone(),
                alive: state.alive,
                lp: state.lp,
                as_len: state.as_path.len(),
            });
        }
        if path.len() >= self.options.max_path_len {
            return;
        }
        let Some(&holder) = path.last() else {
            return; // unreachable: dfs is always seeded with the origin
        };
        // Externals never transit: only the origin (path start) advertises.
        if path.len() > 1 && self.topo.router(holder).kind == RouterKind::External {
            return;
        }
        let mut neighbors: Vec<RouterId> = self.topo.neighbors(holder).to_vec();
        neighbors.sort_unstable();
        for next in neighbors {
            if path.contains(&next) {
                continue;
            }
            let next_state =
                self.cross_session(ctx, sym, prefix, &state, holder, next, constraints);
            path.push(next);
            self.dfs(ctx, sym, prefix, path, next_state, constraints, out);
            path.pop();
        }
    }

    /// Apply export(u→v), session advance, and import(v←u). Consults the
    /// shared concrete-crossing cache first (replaying the recorded state
    /// and constraints on a hit) and records computed crossings when
    /// building one.
    #[allow(clippy::too_many_arguments)]
    fn cross_session(
        &mut self,
        ctx: &mut Ctx,
        sym: &SymNetworkConfig,
        prefix: Prefix,
        state: &SymRoute,
        u: RouterId,
        v: RouterId,
        constraints: &mut Vec<TermId>,
    ) -> SymRoute {
        if let Some(cache) = self.cache {
            if let Some(hit) = cache.lookup(sym, prefix, state, u, v) {
                self.cache_hits += 1;
                constraints.extend(hit.constraints.iter().copied());
                let out = hit.out.clone();
                if self.recording {
                    // Delta patch: carry replayed crossings into the new
                    // cache so the patched cache is as complete as a
                    // from-scratch build.
                    self.recorded.insert(
                        CrossKey::new(prefix, state, u, v),
                        CrossOut {
                            out: out.clone(),
                            constraints: hit.constraints.clone(),
                        },
                    );
                }
                return out;
            }
            self.cache_misses += 1;
        }
        let before = constraints.len();
        let out = self.cross_session_compute(ctx, sym, prefix, state, u, v, constraints);
        if self.recording {
            self.recorded.insert(
                CrossKey::new(prefix, state, u, v),
                CrossOut {
                    out: out.clone(),
                    constraints: constraints[before..].to_vec(),
                },
            );
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn cross_session_compute(
        &mut self,
        ctx: &mut Ctx,
        sym: &SymNetworkConfig,
        prefix: Prefix,
        state: &SymRoute,
        u: RouterId,
        v: RouterId,
        constraints: &mut Vec<TermId>,
    ) -> SymRoute {
        // Export policy at u.
        let exported = match sym.routers.get(&u).and_then(|c| c.export.get(&v)) {
            Some(map) => self.fold_map(
                ctx,
                map,
                prefix,
                state,
                constraints,
                &format!("{}→{}", self.topo.name(u), self.topo.name(v)),
            ),
            None => state.clone(),
        };
        // Session advance.
        let u_as = self.topo.router(u).as_num;
        let v_as = self.topo.router(v).as_num;
        let crossing = u_as != v_as;
        let mut advanced = exported;
        if crossing {
            if advanced.as_path.first() != Some(&u_as) {
                advanced.as_path.insert(0, u_as);
            }
            advanced.lp = ctx.int_const(netexpl_bgp::route::DEFAULT_LOCAL_PREF as i64);
        }
        advanced.nh = self.router_val(ctx, u);
        // Import policy at v.
        match sym.routers.get(&v).and_then(|c| c.import.get(&u)) {
            Some(map) => self.fold_map(
                ctx,
                map,
                prefix,
                &advanced,
                constraints,
                &format!("{}←{}", self.topo.name(v), self.topo.name(u)),
            ),
            None => advanced,
        }
    }

    fn router_val(&self, ctx: &mut Ctx, r: RouterId) -> TermId {
        // `encode` pre-validates that every topology router is in the
        // vocabulary, so this lookup cannot fail on any reachable path.
        let i = self
            .vocab
            .routers
            .iter()
            .position(|&x| x == r)
            .expect("encode() validated vocabulary covers all routers");
        ctx.enum_const(self.sorts.val, self.sorts.val_router(i))
    }

    fn community_val(&self, ctx: &mut Ctx, i: usize) -> TermId {
        ctx.enum_const(self.sorts.val, self.sorts.val_community(i))
    }

    // ---- route-map folding ---------------------------------------------------

    /// Symbolic mirror of `RouteMap::apply`.
    fn fold_map(
        &mut self,
        ctx: &mut Ctx,
        map: &SymRouteMap,
        prefix: Prefix,
        state: &SymRoute,
        constraints: &mut Vec<TermId>,
        where_: &str,
    ) -> SymRoute {
        if map.entries.is_empty() {
            return state.clone();
        }
        let n = map.entries.len();
        let mut matched: Vec<TermId> = Vec::with_capacity(n);
        for e in &map.entries {
            let ms: Vec<TermId> = e
                .matches
                .iter()
                .map(|m| self.match_term(ctx, m, prefix, state))
                .collect();
            matched.push(ctx.and(&ms));
        }
        // First-match-wins gating.
        let mut reach = ctx.mk_true();
        let mut fire: Vec<TermId> = Vec::with_capacity(n);
        for &m in &matched {
            fire.push(ctx.and2(reach, m));
            let nm = ctx.not(m);
            reach = ctx.and2(reach, nm);
        }
        // Permit terms.
        let mut permit: Vec<TermId> = Vec::with_capacity(n);
        for (i, e) in map.entries.iter().enumerate() {
            let p = match &e.action {
                Hole::Concrete(Action::Permit) => fire[i],
                Hole::Concrete(Action::Deny) => ctx.mk_false(),
                Hole::Symbolic(t) => {
                    let permit_const = self.sorts.action_const(ctx, Action::Permit);
                    let is_permit = ctx.eq(*t, permit_const);
                    ctx.and2(fire[i], is_permit)
                }
            };
            permit.push(p);
        }
        let any_permit = ctx.or(&permit);
        let alive = ctx.and2(state.alive, any_permit);

        // Local preference: per-entry outgoing value via sequential fold.
        let lp_out_terms: Vec<TermId> = map
            .entries
            .iter()
            .map(|e| {
                let mut cur = state.lp;
                for s in &e.sets {
                    match s {
                        SymSet::LocalPref(Hole::Concrete(v)) => cur = ctx.int_const(*v as i64),
                        SymSet::LocalPref(Hole::Symbolic(t)) => cur = *t,
                        _ => {}
                    }
                }
                cur
            })
            .collect();
        let lp = if lp_out_terms.iter().any(|&t| t != state.lp) {
            let (lo, hi) = self.vocab.lp_bounds();
            let name = self.fresh_name(&format!("lp[{where_}]"));
            let v = ctx.int_var(&name, lo, hi);
            for (i, &lpo) in lp_out_terms.iter().enumerate() {
                let eq = ctx.eq(v, lpo);
                let imp = ctx.implies(permit[i], eq);
                constraints.push(imp);
            }
            v
        } else {
            state.lp
        };

        // Next hop: definitional only if some entry can change it.
        let changes_nh = map.entries.iter().any(|e| {
            e.sets
                .iter()
                .any(|s| matches!(s, SymSet::NextHop(_) | SymSet::Generic { .. }))
        });
        let nh = if changes_nh {
            let name = self.fresh_name(&format!("nh[{where_}]"));
            let v = ctx.enum_var(&name, self.sorts.val);
            for (i, e) in map.entries.iter().enumerate() {
                let def = self.nh_definition(ctx, e, state, v);
                let imp = ctx.implies(permit[i], def);
                constraints.push(imp);
            }
            v
        } else {
            state.nh
        };

        // Communities: pure boolean expressions, no definitions needed.
        let mut comms = Vec::with_capacity(self.vocab.communities.len());
        for c_idx in 0..self.vocab.communities.len() {
            let mut cases: Vec<TermId> = Vec::with_capacity(n);
            for (i, e) in map.entries.iter().enumerate() {
                let mut cur = state.comms[c_idx];
                for s in &e.sets {
                    match s {
                        SymSet::ClearCommunities => cur = ctx.mk_false(),
                        SymSet::AddCommunity(Hole::Concrete(c))
                            if self.vocab.communities[c_idx] == *c =>
                        {
                            cur = ctx.mk_true();
                        }
                        SymSet::AddCommunity(Hole::Symbolic(t)) => {
                            let cv = self.community_val(ctx, c_idx);
                            let adds = ctx.eq(*t, cv);
                            cur = ctx.or2(cur, adds);
                        }
                        SymSet::Generic { attr, param } => {
                            let is_comm = {
                                let a = ctx.enum_const(self.sorts.attr, attr_idx::COMMUNITY);
                                ctx.eq(*attr, a)
                            };
                            let cv = self.community_val(ctx, c_idx);
                            let pv = ctx.eq(*param, cv);
                            let adds = ctx.and2(is_comm, pv);
                            cur = ctx.or2(cur, adds);
                        }
                        _ => {}
                    }
                }
                cases.push(ctx.and2(permit[i], cur));
            }
            comms.push(ctx.or(&cases));
        }

        SymRoute {
            alive,
            lp,
            nh,
            comms,
            as_path: state.as_path.clone(),
        }
    }

    /// The definitional constraint for the next hop produced by one entry
    /// (`v_out` is the fresh next-hop variable).
    fn nh_definition(
        &mut self,
        ctx: &mut Ctx,
        e: &crate::sketch::SymEntry,
        state: &SymRoute,
        v_out: TermId,
    ) -> TermId {
        // Sequential fold over plain sets; at most one Generic set per entry
        // is supported (the sketches in this workspace satisfy that).
        let generics: Vec<&SymSet> = e
            .sets
            .iter()
            .filter(|s| matches!(s, SymSet::Generic { .. }))
            .collect();
        assert!(generics.len() <= 1, "at most one generic set per entry");
        let mut cur = state.nh;
        let mut generic: Option<(TermId, TermId)> = None;
        for s in &e.sets {
            match s {
                SymSet::NextHop(Hole::Concrete(r)) => cur = self.router_val(ctx, *r),
                SymSet::NextHop(Hole::Symbolic(t)) => cur = *t,
                SymSet::Generic { attr, param } => generic = Some((*attr, *param)),
                _ => {}
            }
        }
        match generic {
            None => ctx.eq(v_out, cur),
            Some((attr, param)) => {
                let nh_attr = ctx.enum_const(self.sorts.attr, attr_idx::NEXT_HOP);
                let is_nh = ctx.eq(attr, nh_attr);
                let set_case = {
                    let eq = ctx.eq(v_out, param);
                    ctx.implies(is_nh, eq)
                };
                let keep_case = {
                    let not_nh = ctx.not(is_nh);
                    let eq = ctx.eq(v_out, cur);
                    ctx.implies(not_nh, eq)
                };
                ctx.and2(set_case, keep_case)
            }
        }
    }

    /// Boolean term for a match clause against the symbolic route state.
    fn match_term(
        &mut self,
        ctx: &mut Ctx,
        m: &SymMatch,
        prefix: Prefix,
        state: &SymRoute,
    ) -> TermId {
        match m {
            SymMatch::PrefixList(ps) => {
                let hit = ps.iter().any(|p| p.contains(&prefix));
                ctx.mk_bool(hit)
            }
            SymMatch::AsInPath(a) => ctx.mk_bool(state.as_path.contains(a)),
            SymMatch::FromNeighbor(r) => {
                let rv = self.router_val(ctx, *r);
                ctx.eq(state.nh, rv)
            }
            SymMatch::Community(Hole::Concrete(c)) => {
                match self.vocab.communities.iter().position(|x| x == c) {
                    Some(i) => state.comms[i],
                    None => ctx.mk_false(),
                }
            }
            SymMatch::Community(Hole::Symbolic(t)) => {
                let mut cases = Vec::new();
                for i in 0..self.vocab.communities.len() {
                    let cv = self.community_val(ctx, i);
                    let sel = ctx.eq(*t, cv);
                    cases.push(ctx.and2(sel, state.comms[i]));
                }
                ctx.or(&cases)
            }
            SymMatch::Generic { attr, value } => {
                // (attr = Prefix ∧ value = P:<prefix>)
                let prefix_case = {
                    let pa = ctx.enum_const(self.sorts.attr, attr_idx::PREFIX);
                    let is_p = ctx.eq(*attr, pa);
                    match self.vocab.prefixes.iter().position(|p| p.contains(&prefix)) {
                        Some(i) => {
                            let pv = ctx.enum_const(self.sorts.val, self.sorts.val_prefix(i));
                            let eq = ctx.eq(*value, pv);
                            ctx.and2(is_p, eq)
                        }
                        None => ctx.mk_false(),
                    }
                };
                // (attr = Community ∧ ⋁_c value = C:c ∧ has_c)
                let comm_case = {
                    let ca = ctx.enum_const(self.sorts.attr, attr_idx::COMMUNITY);
                    let is_c = ctx.eq(*attr, ca);
                    let mut cases = Vec::new();
                    for i in 0..self.vocab.communities.len() {
                        let cv = self.community_val(ctx, i);
                        let sel = ctx.eq(*value, cv);
                        cases.push(ctx.and2(sel, state.comms[i]));
                    }
                    let any = ctx.or(&cases);
                    ctx.and2(is_c, any)
                };
                // (attr = NextHop ∧ value = nh)
                let nh_case = {
                    let na = ctx.enum_const(self.sorts.attr, attr_idx::NEXT_HOP);
                    let is_n = ctx.eq(*attr, na);
                    let eq = ctx.eq(*value, state.nh);
                    ctx.and2(is_n, eq)
                };
                ctx.or(&[prefix_case, comm_case, nh_case])
            }
        }
    }

    // ---- requirement encoding -------------------------------------------------

    fn encode_requirement(
        &mut self,
        ctx: &mut Ctx,
        sym: &SymNetworkConfig,
        spec: &Specification,
        req: &Requirement,
        enc: &mut Encoded,
    ) -> Result<(), EncodeError> {
        match req {
            Requirement::Forbidden(pattern) => self.encode_forbidden(ctx, spec, pattern, enc),
            Requirement::Reachable { src, dst } => {
                self.encode_reachable(ctx, sym, spec, src, dst, enc)
            }
            Requirement::Preference { chain } => self.encode_preference(ctx, spec, chain, enc),
        }
    }

    fn validate_pattern(
        &self,
        pattern: &PathPattern,
        spec: &Specification,
    ) -> Result<(), EncodeError> {
        for n in pattern.router_names() {
            if self.topo.router_by_name(n).is_none() {
                return Err(EncodeError::UnknownRouter(n.to_string()));
            }
        }
        if let Some(d) = pattern.dest() {
            if spec.prefix_of(d).is_none() {
                return Err(EncodeError::UnknownDest(d.to_string()));
            }
        }
        Ok(())
    }

    fn encode_forbidden(
        &mut self,
        ctx: &mut Ctx,
        spec: &Specification,
        pattern: &PathPattern,
        enc: &mut Encoded,
    ) -> Result<(), EncodeError> {
        self.validate_pattern(pattern, spec)?;
        let scope: Option<Prefix> = match pattern.dest() {
            Some(d) => Some(
                spec.prefix_of(d)
                    .ok_or_else(|| EncodeError::UnknownDest(d.to_string()))?,
            ),
            None => None,
        };
        let mut new_constraints = Vec::new();
        for (&prefix, infos) in &enc.paths {
            if let Some(p) = scope {
                if p != prefix {
                    continue;
                }
            }
            for info in infos {
                let dest_ok = |d: &str| spec.prefix_of(d) == Some(prefix);
                if pattern.matches_route(self.topo, &info.routers, &dest_ok) {
                    new_constraints.push(info.alive);
                }
            }
        }
        for alive in new_constraints {
            let dead = ctx.not(alive);
            enc.reqs.push(dead);
        }
        Ok(())
    }

    /// Build the stable-state selection fixpoint over `infos`, excluding
    /// paths that traverse a `failed` link. Introduces one boolean `sel`
    /// variable per surviving path and constrains:
    ///
    /// * `sel(p) → cand(p)` where `cand(p) = alive(p) ∧ sel(parent(p))` —
    ///   only routes whose upstream actually selected them are candidates
    ///   (BGP advertises best routes only);
    /// * `sel(p) ∧ cand(q) → better(p, q)` for same-holder `q` — the
    ///   selected route wins the decision process;
    /// * `⋁ cand → ⋁ sel` per holder — a router with candidates selects.
    ///
    /// The SAT solver thus searches over stable routing states, exactly the
    /// fixpoints the concrete simulator converges to.
    fn selection_family(
        &mut self,
        ctx: &mut Ctx,
        infos: &[PathInfo],
        failed: &[Link],
        tag: &str,
        constraints: &mut Vec<TermId>,
    ) -> Vec<Option<TermId>> {
        use std::collections::HashMap;
        let excluded = |i: &PathInfo| {
            i.routers
                .windows(2)
                .any(|w| failed.contains(&Link::new(w[0], w[1])))
        };
        let index: HashMap<&[RouterId], usize> = infos
            .iter()
            .enumerate()
            .map(|(k, i)| (i.routers.as_slice(), k))
            .collect();
        let mut sel: Vec<Option<TermId>> = vec![None; infos.len()];
        for (k, info) in infos.iter().enumerate() {
            if !excluded(info) {
                let name = self.fresh_name(&format!("sel[{tag}]"));
                sel[k] = Some(ctx.bool_var(&name));
            }
        }
        let mut cand: Vec<Option<TermId>> = vec![None; infos.len()];
        for (k, info) in infos.iter().enumerate() {
            if sel[k].is_none() {
                continue;
            }
            let parent_sel = if info.routers.len() == 2 {
                ctx.mk_true() // originations are unconditionally advertised
            } else {
                let parent = &info.routers[..info.routers.len() - 1];
                index
                    .get(parent)
                    .and_then(|&pi| sel[pi])
                    .unwrap_or_else(|| ctx.mk_false())
            };
            cand[k] = Some(ctx.and2(info.alive, parent_sel));
        }
        let mut groups: BTreeMap<RouterId, Vec<usize>> = BTreeMap::new();
        for (k, info) in infos.iter().enumerate() {
            if sel[k].is_some() {
                groups.entry(info.holder()).or_default().push(k);
            }
        }
        for group in groups.values() {
            for &i in group {
                // Groups only hold indices with a selector, and every
                // selected index was given a candidate literal above.
                let (Some(si), Some(ci)) = (sel[i], cand[i]) else {
                    continue;
                };
                let imp = ctx.implies(si, ci);
                constraints.push(imp);
                for &j in group {
                    if i == j {
                        continue;
                    }
                    let Some(cj) = cand[j] else { continue };
                    let guard = ctx.and2(si, cj);
                    let beats = self.better_than(ctx, &infos[i], &infos[j]);
                    let imp = ctx.implies(guard, beats);
                    constraints.push(imp);
                }
            }
            let cands: Vec<TermId> = group.iter().filter_map(|&k| cand[k]).collect();
            let sels: Vec<TermId> = group.iter().filter_map(|&k| sel[k]).collect();
            let any_c = ctx.or(&cands);
            let any_s = ctx.or(&sels);
            let imp = ctx.implies(any_c, any_s);
            constraints.push(imp);
        }
        sel
    }

    /// The nominal (all links up) selection family for a prefix, built on
    /// first use and cached in the encoding result.
    fn nominal_family(
        &mut self,
        ctx: &mut Ctx,
        prefix: Prefix,
        enc: &mut Encoded,
    ) -> Result<Vec<Option<TermId>>, EncodeError> {
        if let Some(f) = enc.nominal_sel.get(&prefix) {
            return Ok(f.clone());
        }
        let infos = enc
            .paths
            .get(&prefix)
            .ok_or(EncodeError::NoOrigin(prefix))?
            .clone();
        let fam = self.selection_family(ctx, &infos, &[], &format!("{prefix}"), &mut enc.defs);
        enc.nominal_sel.insert(prefix, fam.clone());
        Ok(fam)
    }

    fn encode_reachable(
        &mut self,
        ctx: &mut Ctx,
        sym: &SymNetworkConfig,
        spec: &Specification,
        src: &str,
        dst: &str,
        enc: &mut Encoded,
    ) -> Result<(), EncodeError> {
        let src_id = self
            .topo
            .router_by_name(src)
            .ok_or_else(|| EncodeError::UnknownRouter(src.to_string()))?;
        let prefix = spec
            .prefix_of(dst)
            .ok_or_else(|| EncodeError::UnknownDest(dst.to_string()))?;
        // A router that originates the prefix reaches it trivially (the
        // simulator pins the origination as its best route).
        if sym
            .originations
            .iter()
            .any(|o| o.router == src_id && o.prefix == prefix)
        {
            return Ok(());
        }
        let fam = self.nominal_family(ctx, prefix, enc)?;
        let infos = &enc.paths[&prefix];
        let sels: Vec<TermId> = infos
            .iter()
            .enumerate()
            .filter(|(_, i)| i.holder() == src_id)
            .filter_map(|(k, _)| fam[k])
            .collect();
        let any = ctx.or(&sels);
        enc.reqs.push(any);
        Ok(())
    }

    /// Resolve a concrete traffic pattern (`Customer -> R3 -> R1 -> P1 ->
    /// ... -> D1`) into the propagation path of its router part, reversed.
    fn pattern_to_propagation(
        &self,
        pattern: &PathPattern,
        spec: &Specification,
    ) -> Result<(Vec<RouterId>, Prefix), EncodeError> {
        self.validate_pattern(pattern, spec)?;
        let Some(d) = pattern.dest() else {
            return Err(EncodeError::UnsupportedPattern(format!(
                "{pattern}: preference paths must end in a destination"
            )));
        };
        let prefix = spec
            .prefix_of(d)
            .ok_or_else(|| EncodeError::UnknownDest(d.to_string()))?;
        // Accept only: concrete routers, optionally one `...` immediately
        // before the destination (absorbing the beyond-the-egress segment).
        let mut routers = Vec::new();
        for (i, seg) in pattern.segs.iter().enumerate() {
            match seg {
                Seg::Router(n) => routers.push(
                    self.topo
                        .router_by_name(n)
                        .ok_or_else(|| EncodeError::UnknownRouter(n.to_string()))?,
                ),
                Seg::Any => {
                    if i + 2 != pattern.segs.len() {
                        return Err(EncodeError::UnsupportedPattern(format!(
                            "{pattern}: `...` is only supported just before the destination"
                        )));
                    }
                }
                Seg::Dest(_) => {}
            }
        }
        let mut prop = routers;
        prop.reverse();
        Ok((prop, prefix))
    }

    fn encode_preference(
        &mut self,
        ctx: &mut Ctx,
        spec: &Specification,
        chain: &[PathPattern],
        enc: &mut Encoded,
    ) -> Result<(), EncodeError> {
        let resolved: Vec<(Vec<RouterId>, Prefix)> = chain
            .iter()
            .map(|p| self.pattern_to_propagation(p, spec))
            .collect::<Result<_, _>>()?;
        let prefix = resolved
            .first()
            .map(|r| r.1)
            .ok_or_else(|| EncodeError::Internal("empty preference chain".to_string()))?;
        debug_assert!(
            resolved.iter().all(|&(_, pfx)| pfx == prefix),
            "parser enforces same destination"
        );
        let props: Vec<&Vec<RouterId>> = resolved.iter().map(|(p, _)| p).collect();

        let infos = enc
            .paths
            .get(&prefix)
            .ok_or(EncodeError::NoOrigin(prefix))?
            .clone();
        let find_idx = |prop: &[RouterId]| infos.iter().position(|i| i.routers == prop);
        let idxs: Vec<usize> = props
            .iter()
            .zip(chain)
            .map(|(prop, pat)| {
                find_idx(prop).ok_or_else(|| {
                    EncodeError::UnsupportedPattern(format!(
                        "{pat}: not a feasible propagation path"
                    ))
                })
            })
            .collect::<Result<_, _>>()?;

        // (1) Nominal state: the source selects the most preferred path.
        let nominal = self.nominal_family(ctx, prefix, enc)?;
        enc.reqs.push(nominal[idxs[0]].ok_or_else(|| {
            EncodeError::Internal("nominal family dropped an all-links-up path".to_string())
        })?);

        // Concrete link lists in *traffic* order (source first), mirroring
        // the checker's failure-scenario construction exactly.
        let traffic_links = |prop: &[RouterId]| -> Vec<Link> {
            let mut ls: Vec<Link> = prop.windows(2).map(|w| Link::new(w[0], w[1])).collect();
            ls.reverse();
            ls
        };
        let links: Vec<Vec<Link>> = props.iter().map(|p| traffic_links(p)).collect();

        // (2) Failover cascade: with every more-preferred path's
        // distinguishing links failed, the source selects chain[k].
        for k in 1..chain.len() {
            let mut failed: Vec<Link> = Vec::new();
            for prev in &links[..k] {
                for &e in prev {
                    if !links[k].contains(&e) && !failed.contains(&e) {
                        failed.push(e);
                    }
                }
            }
            if failed.is_empty() {
                return Err(EncodeError::UnsupportedPattern(format!(
                    "({}) >> ({}): paths do not diverge on any concrete link",
                    chain[k - 1],
                    chain[k]
                )));
            }
            let fam =
                self.selection_family(ctx, &infos, &failed, &format!("F2.{k}"), &mut enc.defs);
            enc.reqs.push(fam[idxs[k]].ok_or_else(|| {
                EncodeError::Internal(
                    "chain member excluded by its betters' distinguishing links".to_string(),
                )
            })?);
        }

        // (3) Strict mode (interpretation (1)): in each consecutive pair's
        // two minimal-failure scenarios, nothing unspecified may be selected
        // at the source.
        if spec.mode == PreferenceMode::Strict {
            let src = *props[0].last().ok_or_else(|| {
                EncodeError::Internal("preference path resolved to no routers".to_string())
            })?;
            let egress = |es: &[Link]| -> Option<Link> { es.last().copied() };
            let mut scenario_count = 0usize;
            for k in 0..chain.len() - 1 {
                let (a, b) = (&links[k], &links[k + 1]);
                let a_dist: Vec<Link> = a.iter().copied().filter(|e| !b.contains(e)).collect();
                let b_dist: Vec<Link> = b.iter().copied().filter(|e| !a.contains(e)).collect();
                if a_dist.is_empty() || b_dist.is_empty() {
                    return Err(EncodeError::UnsupportedPattern(format!(
                        "({}) >> ({}): paths do not diverge on any concrete link",
                        chain[k],
                        chain[k + 1]
                    )));
                }
                // Non-empty distinguishing sets imply non-empty link lists.
                let (Some(ea), Some(eb)) = (egress(a), egress(b)) else {
                    return Err(EncodeError::Internal(
                        "preference path has no concrete links".to_string(),
                    ));
                };
                let scenarios: Vec<Vec<Link>> =
                    vec![dedup_pair(a_dist[0], eb), dedup_pair(ea, b_dist[0])];
                for failed in scenarios {
                    scenario_count += 1;
                    let fam = self.selection_family(
                        ctx,
                        &infos,
                        &failed,
                        &format!("F{}", scenario_count + 2),
                        &mut enc.defs,
                    );
                    for (pi, info) in infos.iter().enumerate() {
                        let Some(sel) = fam[pi] else { continue };
                        if info.holder() != src {
                            continue;
                        }
                        let dest_ok = |d: &str| spec.prefix_of(d) == Some(prefix);
                        let specified = chain
                            .iter()
                            .any(|p| p.matches_route(self.topo, &info.routers, &dest_ok));
                        if !specified {
                            let dead = ctx.not(sel);
                            enc.reqs.push(dead);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Term: path `p` is preferred over path `q` by the decision process
    /// (assuming both available): `lp_p > lp_q ∨ (lp_p = lp_q ∧ tiebreak)`.
    fn better_than(&mut self, ctx: &mut Ctx, p: &PathInfo, q: &PathInfo) -> TermId {
        let gt = ctx.gt(p.lp, q.lp);
        let eq = ctx.eq(p.lp, q.lp);
        let tb = {
            // Concrete decision-process tiebreak: shorter AS path, shorter
            // propagation, lower learned-from id — mirrors `decision::compare`.
            let win = (p.as_len, p.routers.len(), p.learned_from())
                < (q.as_len, q.routers.len(), q.learned_from());
            ctx.mk_bool(win)
        };
        let tie = ctx.and2(eq, tb);
        ctx.or2(gt, tie)
    }
}

/// A failure scenario of one or two links (deduplicated).
fn dedup_pair(a: Link, b: Link) -> Vec<Link> {
    if a == b {
        vec![a]
    } else {
        vec![a, b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{HoleFactory, SymEntry, SymRouteMap};
    use netexpl_bgp::{Community, NetworkConfig, RouteMap, RouteMapEntry, SetClause};
    use netexpl_logic::solver::{is_sat, SmtSolver};
    use netexpl_topology::builders::paper_topology;

    fn d1() -> Prefix {
        "200.7.0.0/16".parse().unwrap()
    }

    fn vocab_for(topo: &Topology) -> Vocabulary {
        Vocabulary::new(topo, vec![Community(100, 2)], vec![50, 200], vec![d1()])
    }

    #[test]
    fn paths_enumerated_per_prefix() {
        let (topo, h) = paper_topology();
        let vocab = vocab_for(&topo);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let mut net = NetworkConfig::new();
        net.originate(h.p1, d1());
        let sym = SymNetworkConfig::from_concrete(&net);
        let spec = Specification::new();
        let mut enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions::default());
        let encoded = enc.encode(&mut ctx, &sym, &spec).unwrap();
        let infos = &encoded.paths[&d1()];
        // Paths from P1: P1-R1, P1-R1-R2, P1-R1-R3, P1-R1-R2-R3, P1-R1-R3-R2,
        // P1-R1-R2-P2, P1-R1-R3-Customer, P1-R1-R2-R3-Customer,
        // P1-R1-R3-R2-P2, ... — check a few structural facts.
        assert!(infos.iter().any(|i| i.routers == vec![h.p1, h.r1]));
        assert!(infos
            .iter()
            .any(|i| i.routers == vec![h.p1, h.r1, h.r2, h.p2]));
        assert!(
            !infos
                .iter()
                .any(|i| i.routers.windows(2).any(|w| w == [h.p2, h.r2])),
            "externals never transit"
        );
        // All-concrete, no-policy network: every path alive (constant true).
        let t = ctx.mk_true();
        assert!(infos.iter().all(|i| i.alive == t));
    }

    #[test]
    fn forbidden_is_unsat_with_fixed_permit_all() {
        // Concrete config that permits everything cannot satisfy no-transit.
        let (topo, h) = paper_topology();
        let vocab = vocab_for(&topo);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let mut net = NetworkConfig::new();
        net.originate(h.p1, d1());
        let sym = SymNetworkConfig::from_concrete(&net);
        // D1 is originated by P1, so routes propagate from P1 toward P2 —
        // the propagation window the pattern forbids.
        let spec = netexpl_spec::parse("Req1 { !(P1 -> ... -> P2) }").unwrap();
        let mut enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions::default());
        let encoded = enc.encode(&mut ctx, &sym, &spec).unwrap();
        let f = encoded.conjunction(&mut ctx);
        assert!(!is_sat(&mut ctx, f), "permit-all violates no-transit");
    }

    #[test]
    fn forbidden_sat_with_action_hole() {
        // Same network but R1's export to P1 has a symbolic catch-all action
        // and R2's export to P2 likewise: the solver must set them to deny.
        let (topo, h) = paper_topology();
        let vocab = vocab_for(&topo);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let f = HoleFactory::new(&vocab, sorts);

        let mut net = NetworkConfig::new();
        net.originate(h.p1, d1());
        net.originate(h.p2, "201.0.0.0/16".parse().unwrap());
        let mut sym = SymNetworkConfig::from_concrete(&net);
        let a1 = f.action(&mut ctx, "R1_to_P1!action");
        let a2 = f.action(&mut ctx, "R2_to_P2!action");
        sym.router_mut(h.r1).export.insert(
            h.p1,
            SymRouteMap {
                name: "R1_to_P1".into(),
                entries: vec![SymEntry {
                    seq: 1,
                    action: a1.clone(),
                    matches: vec![],
                    sets: vec![],
                }],
            },
        );
        sym.router_mut(h.r2).export.insert(
            h.p2,
            SymRouteMap {
                name: "R2_to_P2".into(),
                entries: vec![SymEntry {
                    seq: 1,
                    action: a2.clone(),
                    matches: vec![],
                    sets: vec![],
                }],
            },
        );
        let spec = netexpl_spec::parse("Req1 { !(P1 -> ... -> P2) !(P2 -> ... -> P1) }").unwrap();
        let mut enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions::default());
        let encoded = enc.encode(&mut ctx, &sym, &spec).unwrap();

        let mut solver = SmtSolver::new();
        for c in encoded.constraints() {
            solver.assert(c);
        }
        let model = solver
            .check(&mut ctx)
            .model()
            .expect("should be synthesizable");
        let concrete = sym.concretize(&ctx, &vocab, &sorts, &model);
        // Validate with the concrete checker: no violations.
        let violations = netexpl_spec::check_specification(&topo, &concrete, &spec);
        assert_eq!(violations, Vec::new(), "{violations:?}");
        // Both actions must have been set to deny.
        let m1 = concrete.router(h.r1).unwrap().export(h.p1).unwrap();
        assert_eq!(m1.entries[0].action, Action::Deny);
    }

    #[test]
    fn reachability_forces_permit() {
        let (topo, h) = paper_topology();
        let vocab = vocab_for(&topo);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let f = HoleFactory::new(&vocab, sorts);
        let mut net = NetworkConfig::new();
        net.originate(h.p1, d1());
        let mut sym = SymNetworkConfig::from_concrete(&net);
        // R3's export to Customer is a single symbolic-action entry.
        let a = f.action(&mut ctx, "R3_to_C!action");
        sym.router_mut(h.r3).export.insert(
            h.customer,
            SymRouteMap {
                name: "R3_to_C".into(),
                entries: vec![SymEntry {
                    seq: 1,
                    action: a,
                    matches: vec![],
                    sets: vec![],
                }],
            },
        );
        let spec = netexpl_spec::parse("dest D1 = 200.7.0.0/16\nReq { Customer ~> D1 }").unwrap();
        let mut enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions::default());
        let encoded = enc.encode(&mut ctx, &sym, &spec).unwrap();
        let mut solver = SmtSolver::new();
        for c in encoded.constraints() {
            solver.assert(c);
        }
        let model = solver.check(&mut ctx).model().expect("sat");
        let concrete = sym.concretize(&ctx, &vocab, &sorts, &model);
        let m = concrete.router(h.r3).unwrap().export(h.customer).unwrap();
        assert_eq!(
            m.entries[0].action,
            Action::Permit,
            "reachability forces permit"
        );
    }

    #[test]
    fn preference_with_lp_holes_synthesizes_ordering() {
        let (topo, h) = paper_topology();
        let vocab = vocab_for(&topo);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let f = HoleFactory::new(&vocab, sorts);
        let mut net = NetworkConfig::new();
        net.originate(h.p1, d1());
        net.originate(h.p2, d1());
        let mut sym = SymNetworkConfig::from_concrete(&net);
        // R3 imports from R1 and R2 with symbolic local preferences.
        for (n, label) in [(h.r1, "R1"), (h.r2, "R2")] {
            let lp = f.local_pref(&mut ctx, &format!("R3_from_{label}!lp"));
            sym.router_mut(h.r3).import.insert(
                n,
                SymRouteMap {
                    name: format!("R3_from_{label}"),
                    entries: vec![SymEntry {
                        seq: 10,
                        action: Hole::Concrete(Action::Permit),
                        matches: vec![],
                        sets: vec![SymSet::LocalPref(lp)],
                    }],
                },
            );
        }
        let spec = netexpl_spec::parse(
            "mode fallback\n\
             dest D1 = 200.7.0.0/16\n\
             Req2 {\n\
               (Customer -> R3 -> R1 -> P1 -> ... -> D1)\n\
               >> (Customer -> R3 -> R2 -> P2 -> ... -> D1)\n\
             }",
        )
        .unwrap();
        let mut enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions::default());
        let encoded = enc.encode(&mut ctx, &sym, &spec).unwrap();
        let mut solver = SmtSolver::new();
        for c in encoded.constraints() {
            solver.assert(c);
        }
        let model = solver.check(&mut ctx).model().expect("sat");
        let concrete = sym.concretize(&ctx, &vocab, &sorts, &model);
        let violations = netexpl_spec::check_specification(&topo, &concrete, &spec);
        assert_eq!(violations, Vec::new(), "{violations:?}");
    }

    #[test]
    fn strict_preference_requires_blocking_detours() {
        // In strict mode the permit-all internal config is unsatisfiable:
        // the detour paths (R3-R1-R2-P2 etc.) are alive.
        let (topo, h) = paper_topology();
        let vocab = vocab_for(&topo);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let mut net = NetworkConfig::new();
        net.originate(h.p1, d1());
        net.originate(h.p2, d1());
        // Give R3 concrete lp imports satisfying the ordering.
        net.router_mut(h.r3).set_import(
            h.r1,
            RouteMap::new(
                "hi",
                vec![RouteMapEntry {
                    seq: 1,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![SetClause::LocalPref(200)],
                }],
            ),
        );
        let sym = SymNetworkConfig::from_concrete(&net);
        let spec_text = "dest D1 = 200.7.0.0/16\n\
             Req2 {\n\
               (Customer -> R3 -> R1 -> P1 -> ... -> D1)\n\
               >> (Customer -> R3 -> R2 -> P2 -> ... -> D1)\n\
             }";
        let strict = netexpl_spec::parse(&format!("mode strict\n{spec_text}")).unwrap();
        let mut enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions::default());
        let encoded = enc.encode(&mut ctx, &sym, &strict).unwrap();
        let conj = encoded.conjunction(&mut ctx);
        assert!(
            !is_sat(&mut ctx, conj),
            "strict mode unsat without detour blocking"
        );

        let fallback = netexpl_spec::parse(&format!("mode fallback\n{spec_text}")).unwrap();
        let mut ctx2 = Ctx::new();
        let sorts2 = vocab.sorts(&mut ctx2);
        let mut enc2 = Encoder::new(&topo, &vocab, sorts2, EncodeOptions::default());
        let encoded2 = enc2.encode(&mut ctx2, &sym, &fallback).unwrap();
        let conj2 = encoded2.conjunction(&mut ctx2);
        assert!(is_sat(&mut ctx2, conj2), "fallback mode satisfiable");
    }

    #[test]
    fn cache_replays_concrete_crossings() {
        // Fully concrete network: with a prebuilt cache, *every* crossing
        // hits and the encoding is reproduced term-for-term.
        let (topo, h) = paper_topology();
        let vocab = vocab_for(&topo);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let mut net = NetworkConfig::new();
        net.originate(h.p1, d1());
        net.router_mut(h.r3).set_import(
            h.r1,
            RouteMap::new(
                "hi",
                vec![RouteMapEntry {
                    seq: 1,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![SetClause::LocalPref(200)],
                }],
            ),
        );
        let cache = EncodeCache::build(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            EncodeOptions::default(),
        )
        .unwrap();
        assert!(!cache.is_empty());

        let sym = SymNetworkConfig::from_concrete(&net);
        let spec = netexpl_spec::parse("Req1 { !(P1 -> ... -> P2) }").unwrap();

        let mut worker = ctx.clone();
        let enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions::default());
        let cached = enc
            .with_cache(&cache)
            .encode(&mut worker, &sym, &spec)
            .unwrap();
        assert!(cached.cache_hits > 0, "concrete network must hit");
        assert_eq!(cached.cache_misses, 0, "no symbolic maps, no misses");

        let mut enc2 = Encoder::new(&topo, &vocab, sorts, EncodeOptions::default());
        let mut ctx2 = ctx.clone();
        let uncached = enc2.encode(&mut ctx2, &sym, &spec).unwrap();
        assert_eq!(uncached.cache_hits, 0);
        // Same paths and same aliveness terms (pure expressions intern to
        // identical ids in clones of one base context); `lp` is excluded
        // because the uncached rerun mints new definition variables for
        // the same role. Requirement constraints — built from aliveness —
        // must match term-for-term.
        let get = |e: &Encoded| {
            e.paths[&d1()]
                .iter()
                .map(|i| (i.routers.clone(), i.alive, i.as_len))
                .collect::<Vec<_>>()
        };
        assert_eq!(get(&cached), get(&uncached));
        // Requirements are interned *after* the contexts forked, so their
        // own ids may differ between arenas — but each is ¬alive(p) for a
        // pre-fork aliveness term, and those must line up exactly.
        assert_eq!(cached.reqs.len(), uncached.reqs.len());
        for (&rc, &ru) in cached.reqs.iter().zip(&uncached.reqs) {
            match (worker.node(rc), ctx2.node(ru)) {
                (netexpl_logic::term::TermNode::Not(a), netexpl_logic::term::TermNode::Not(b)) => {
                    assert_eq!(a, b, "forbidden reqs negate the same aliveness term")
                }
                other => panic!("expected ¬alive reqs, got {other:?}"),
            }
        }
    }

    #[test]
    fn cache_misses_on_symbolized_crossings_and_stays_sound() {
        // Symbolize R1's export to P1: crossings touching that map must
        // miss; everything else replays. The combined encoding must still
        // be solvable to the same verdict as the uncached one.
        let (topo, h) = paper_topology();
        let vocab = vocab_for(&topo);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let mut net = NetworkConfig::new();
        net.originate(h.p1, d1());
        net.originate(h.p2, "201.0.0.0/16".parse().unwrap());
        let cache = EncodeCache::build(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &net,
            EncodeOptions::default(),
        )
        .unwrap();

        // Create the hole in the *base* context so both the cached and
        // uncached clones below can resolve its term.
        let f = HoleFactory::new(&vocab, sorts);
        let mut sym = SymNetworkConfig::from_concrete(&net);
        let a1 = f.action(&mut ctx, "R1_to_P1!action");
        let mut worker = ctx.clone();
        sym.router_mut(h.r1).export.insert(
            h.p1,
            SymRouteMap {
                name: "R1_to_P1".into(),
                entries: vec![SymEntry {
                    seq: 1,
                    action: a1,
                    matches: vec![],
                    sets: vec![],
                }],
            },
        );
        let spec = netexpl_spec::parse("Req1 { !(P2 -> ... -> P1) }").unwrap();
        let enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions::default());
        let cached = enc
            .with_cache(&cache)
            .encode(&mut worker, &sym, &spec)
            .unwrap();
        assert!(cached.cache_hits > 0, "crossings away from R1→P1 replay");
        assert!(
            cached.cache_misses > 0,
            "the symbolized crossing recomputes"
        );

        let c = cached.conjunction(&mut worker);
        let mut ctx2 = ctx.clone();
        let mut enc2 = Encoder::new(&topo, &vocab, sorts, EncodeOptions::default());
        let uncached = enc2.encode(&mut ctx2, &sym, &spec).unwrap();
        let u = uncached.conjunction(&mut ctx2);
        assert_eq!(
            is_sat(&mut worker, c),
            is_sat(&mut ctx2, u),
            "cached and uncached encodings must agree on satisfiability"
        );
    }

    #[test]
    fn errors_on_unknown_names() {
        let (topo, h) = paper_topology();
        let vocab = vocab_for(&topo);
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let mut net = NetworkConfig::new();
        net.originate(h.p1, d1());
        let sym = SymNetworkConfig::from_concrete(&net);
        let spec = netexpl_spec::parse("Req { !(Bogus -> ... -> P2) }").unwrap();
        let mut enc = Encoder::new(&topo, &vocab, sorts, EncodeOptions::default());
        match enc.encode(&mut ctx, &sym, &spec) {
            Err(EncodeError::UnknownRouter(name)) => assert_eq!(name, "Bogus"),
            other => panic!("expected UnknownRouter, got {other:?}"),
        }
    }
}
