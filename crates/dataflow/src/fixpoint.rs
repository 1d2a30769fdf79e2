//! The worklist fixpoint over abstract route facts.
//!
//! A *fact* is keyed by `(holder, origination index, learned-from)` and
//! carries an [`AbsRoute`]. Facts propagate along topology edges exactly
//! the way `netexpl_bgp::sim` advertises routes — export map, session
//! advance, import map — except that the abstraction keeps *all* facts
//! rather than one best route per prefix, applies split horizon only when
//! it provably fires on every concretization, and ignores loop prevention
//! entirely. Both deviations only add behaviors, which is the soundness
//! direction the linter needs: if no abstract fact reaches a router, no
//! concrete route can either.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use netexpl_bgp::{NetworkConfig, Route};
use netexpl_core::symbolize::Dir;
use netexpl_obs::{gauge_set, Span};
use netexpl_topology::{Prefix, Role, RouterId, RouterKind, Topology};

use crate::domain::AbsRoute;
use crate::transfer::CompiledMap;

/// One route-map entry, addressed as (router, neighbor, direction, index).
/// Identical to `netexpl_lint::config_pass::EntryKey`.
pub type EntryKey = (RouterId, RouterId, Dir, usize);

/// Key of an abstract fact: (holder, origination index, learned-from).
/// Origination facts use the origin itself as the learned-from router.
pub type FactKey = (RouterId, u32, RouterId);

/// A provably-denied transfer: every concretization of some fact was
/// dropped by this map while crossing `from → to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Denial {
    /// Index into [`Fixpoint::originations`].
    pub orig: u32,
    /// The denied prefix.
    pub prefix: Prefix,
    /// Sending router.
    pub from: RouterId,
    /// Receiving router.
    pub to: RouterId,
    /// Which side's map denied (export at `from`, import at `to`).
    pub dir: Dir,
    /// The explicit deny entry responsible, or `None` for an
    /// implicit-deny fall-through.
    pub entry: Option<usize>,
}

/// The converged analysis result.
#[derive(Debug, Clone, Default)]
pub struct Fixpoint {
    /// All facts, keyed by (holder, origination, learned-from).
    pub facts: BTreeMap<FactKey, AbsRoute>,
    /// Provably-denied transfers, deterministic order.
    pub denials: Vec<Denial>,
    /// Valley-free violations: the offending fact (at the exporting
    /// router) and the provider/peer neighbor it is exported to.
    pub valley: Vec<(FactKey, RouterId)>,
    /// Join of all abstract values arriving at each configured map.
    pub session_in: HashMap<(RouterId, RouterId, Dir), AbsRoute>,
    /// Entries some fact may reach and match.
    pub may_fire: HashSet<EntryKey>,
    /// Worklist rounds until convergence.
    pub iterations: usize,
    originations: Vec<(RouterId, Prefix)>,
}

impl Fixpoint {
    /// The analyzed originations, in configuration order.
    pub fn originations(&self) -> &[(RouterId, Prefix)] {
        &self.originations
    }

    /// Indices of originations announcing `prefix`.
    pub fn origs_for_prefix(&self, prefix: &Prefix) -> Vec<u32> {
        self.originations
            .iter()
            .enumerate()
            .filter(|(_, (_, p))| p == prefix)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Does any fact for origination `orig` reach `router`?
    pub fn reaches(&self, router: RouterId, orig: u32) -> bool {
        self.facts
            .range((router, orig, RouterId(0))..=(router, orig, RouterId(u32::MAX)))
            .next()
            .is_some()
    }

    /// Does any fact for `prefix` (any origination of it) reach `router`?
    pub fn reaches_prefix(&self, router: RouterId, prefix: &Prefix) -> bool {
        self.origs_for_prefix(prefix)
            .into_iter()
            .any(|o| self.reaches(router, o))
    }

    /// The fact for `prefix` held at `router` learned from `via`, joined
    /// over all originations of the prefix.
    pub fn fact_via(&self, router: RouterId, prefix: &Prefix, via: RouterId) -> Option<AbsRoute> {
        let mut acc: Option<AbsRoute> = None;
        for o in self.origs_for_prefix(prefix) {
            if let Some(f) = self.facts.get(&(router, o, via)) {
                match &mut acc {
                    Some(a) => {
                        a.join(f);
                    }
                    None => acc = Some(f.clone()),
                }
            }
        }
        acc
    }

    /// Is the concrete route covered by the fixpoint? (The soundness
    /// contract: every route the simulation admits must be.)
    pub fn covers(&self, route: &Route) -> bool {
        let holder = route.holder();
        let n = route.propagation.len();
        let from = if n >= 2 {
            route.propagation[n - 2]
        } else {
            holder
        };
        self.originations.iter().enumerate().any(|(i, &(r, p))| {
            r == route.origin()
                && p == route.prefix
                && self
                    .facts
                    .get(&(holder, i as u32, from))
                    .is_some_and(|f| f.covers(route))
        })
    }
}

/// Run the dataflow analysis to its fixpoint.
pub fn analyze(topo: &Topology, net: &NetworkConfig) -> Fixpoint {
    let span = Span::enter("dataflow.fixpoint");
    let compiled = compile_all(net);
    let origs: Vec<(RouterId, Prefix)> = net
        .originations()
        .iter()
        .map(|o| (o.router, o.prefix))
        .collect();

    let mut fx = Fixpoint {
        originations: origs.clone(),
        ..Fixpoint::default()
    };
    // Dedup stores for incidents that re-occur on every re-visit:
    // (orig, from, to, is_import, entry-or--1) and (fact, neighbor).
    let mut denial_seen: BTreeSet<(u32, RouterId, RouterId, bool, i64)> = BTreeSet::new();
    let mut valley_seen: BTreeSet<(FactKey, RouterId)> = BTreeSet::new();

    let mut queue: VecDeque<FactKey> = VecDeque::new();
    let mut queued: HashSet<FactKey> = HashSet::new();
    for (i, &(r, _)) in origs.iter().enumerate() {
        let key = (r, i as u32, r);
        fx.facts
            .insert(key, AbsRoute::origination(r, topo.router(r).as_num));
        queue.push_back(key);
        queued.insert(key);
    }

    while !queue.is_empty() {
        fx.iterations += 1;
        let round = Span::enter("dataflow.iteration");
        round.attr("index", fx.iterations as u64);
        round.attr("queued", queue.len() as u64);
        let batch: Vec<FactKey> = queue.drain(..).collect();
        queued.clear();
        for key in batch {
            step(
                topo,
                &compiled,
                &origs,
                &mut fx,
                &mut denial_seen,
                &mut valley_seen,
                &mut queue,
                &mut queued,
                key,
            );
        }
        round.attr("facts", fx.facts.len() as u64);
    }

    fx.denials = denial_seen
        .iter()
        .map(|&(orig, from, to, is_import, e)| Denial {
            orig,
            prefix: origs[orig as usize].1,
            from,
            to,
            dir: if is_import { Dir::Import } else { Dir::Export },
            entry: usize::try_from(e).ok(),
        })
        .collect();
    fx.valley = valley_seen.into_iter().collect();

    gauge_set("dataflow.routers", topo.num_routers() as i64);
    gauge_set("dataflow.iterations", fx.iterations as i64);
    gauge_set("dataflow.facts", fx.facts.len() as i64);
    span.attr("routers", topo.num_routers() as u64);
    span.attr("iterations", fx.iterations as u64);
    span.attr("facts", fx.facts.len() as u64);
    fx
}

#[allow(clippy::too_many_arguments)]
fn step(
    topo: &Topology,
    compiled: &HashMap<(RouterId, RouterId, Dir), CompiledMap>,
    origs: &[(RouterId, Prefix)],
    fx: &mut Fixpoint,
    denial_seen: &mut BTreeSet<(u32, RouterId, RouterId, bool, i64)>,
    valley_seen: &mut BTreeSet<(FactKey, RouterId)>,
    queue: &mut VecDeque<FactKey>,
    queued: &mut HashSet<FactKey>,
    key: FactKey,
) {
    let Some(fact) = fx.facts.get(&key).cloned() else {
        return;
    };
    let (holder, orig_idx, _) = key;
    let (orig_router, prefix) = origs[orig_idx as usize];
    // External routers advertise only their own originations (the
    // simulation pins their best route to the origination).
    let is_origination = key == (holder, orig_idx, holder) && holder == orig_router;
    if topo.router(holder).kind == RouterKind::External && !is_origination {
        return;
    }
    let from_as = topo.router(holder).as_num;

    for &v in topo.neighbors(holder) {
        // Split horizon, abstractly: the simulation skips a neighbor iff
        // it is the route's next hop (for non-origin holders); we may
        // skip only when every concretization has that next hop.
        if holder != orig_router && fact.nh.len() == 1 && fact.nh.contains(&v) {
            continue;
        }
        // Loop prevention, abstractly: `v` lies on *every* concretization's
        // propagation path, so the concrete receiver would drop each of
        // them as a loop — nothing real flows over this edge.
        if fact.routers_must.contains(&v) {
            continue;
        }

        // Export side.
        let mut abs = fact.clone();
        if let Some(cm) = compiled.get(&(holder, v, Dir::Export)) {
            fx.session_in
                .entry((holder, v, Dir::Export))
                .and_modify(|a| {
                    a.join(&abs);
                })
                .or_insert_with(|| abs.clone());
            let ev = cm.eval(&prefix, &abs);
            for (i, fired) in ev.fired.iter().enumerate() {
                if *fired {
                    fx.may_fire.insert((holder, v, Dir::Export, i));
                }
            }
            match ev.out {
                Some(out) => abs = out,
                None => {
                    denial_seen.insert((
                        orig_idx,
                        holder,
                        v,
                        false,
                        ev.deny_entry.map_or(-1, |e| e as i64),
                    ));
                    continue;
                }
            }
        }

        // Across the session.
        let to_as = topo.router(v).as_num;
        if from_as != to_as
            && abs.via_noncustomer
            && matches!(topo.relation(holder, v), Some(Role::Provider | Role::Peer))
        {
            // A route (possibly) learned from a provider or peer is
            // exported to another provider or peer: a Gao–Rexford valley.
            valley_seen.insert((key, v));
        }
        let mut next_abs = abs.advanced(holder, v, from_as, to_as);
        if from_as != to_as {
            // Entering a new AS: the flag now describes how *that* AS
            // learned the route. Unannotated edges stay agnostic (false).
            next_abs.via_noncustomer =
                matches!(topo.relation(v, holder), Some(Role::Provider | Role::Peer));
        }

        // Import side.
        if let Some(cm) = compiled.get(&(v, holder, Dir::Import)) {
            fx.session_in
                .entry((v, holder, Dir::Import))
                .and_modify(|a| {
                    a.join(&next_abs);
                })
                .or_insert_with(|| next_abs.clone());
            let ev = cm.eval(&prefix, &next_abs);
            for (i, fired) in ev.fired.iter().enumerate() {
                if *fired {
                    fx.may_fire.insert((v, holder, Dir::Import, i));
                }
            }
            match ev.out {
                Some(out) => next_abs = out,
                None => {
                    denial_seen.insert((
                        orig_idx,
                        holder,
                        v,
                        true,
                        ev.deny_entry.map_or(-1, |e| e as i64),
                    ));
                    continue;
                }
            }
        }

        // Join into the target fact.
        let tkey = (v, orig_idx, holder);
        let changed = match fx.facts.get_mut(&tkey) {
            Some(f) => f.join(&next_abs),
            None => {
                fx.facts.insert(tkey, next_abs);
                true
            }
        };
        if changed && queued.insert(tkey) {
            queue.push_back(tkey);
        }
    }
}

/// Compile every configured route map into an abstract transformer.
fn compile_all(net: &NetworkConfig) -> HashMap<(RouterId, RouterId, Dir), CompiledMap> {
    let span = Span::enter("dataflow.compile");
    span.attr("routers", net.configured_routers().count() as u64);
    let mut out = HashMap::new();
    for r in net.configured_routers() {
        let Some(cfg) = net.router(r) else { continue };
        for (nbr, map) in cfg.imports() {
            out.insert((r, nbr, Dir::Import), CompiledMap::compile(map));
        }
        for (nbr, map) in cfg.exports() {
            out.insert((r, nbr, Dir::Export), CompiledMap::compile(map));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netexpl_bgp::{Action, Community, RouteMap, RouteMapEntry, SetClause};
    use netexpl_topology::AsNum;

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// P (AS500) — A — B (both AS100): one origination at P.
    fn chain() -> (Topology, RouterId, RouterId, RouterId) {
        let mut t = Topology::new();
        let p = t.add_router("P", AsNum(500), RouterKind::External);
        let a = t.add_router("A", AsNum(100), RouterKind::Internal);
        let b = t.add_router("B", AsNum(100), RouterKind::Internal);
        t.add_link(p, a);
        t.add_link(a, b);
        (t, p, a, b)
    }

    #[test]
    fn facts_propagate_and_cover_the_simulation() {
        let (topo, p, a, b) = chain();
        let mut net = NetworkConfig::new();
        net.originate(p, pfx("10.0.0.0/8"));
        net.router_mut(a).set_import(
            p,
            RouteMap::new(
                "tag",
                vec![RouteMapEntry {
                    seq: 10,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![SetClause::AddCommunity(Community(1, 1))],
                }],
            ),
        );
        let fx = analyze(&topo, &net);
        // The fact at B (learned from A) must carry the tag.
        let f = fx.facts.get(&(b, 0, a)).expect("fact reaches B");
        assert!(f.comms_must.contains(&Community(1, 1)));
        // Every simulated route is covered.
        let sim = netexpl_bgp::sim::stabilize(&topo, &net).expect("converges");
        for r in topo.router_ids() {
            for route in sim.available(pfx("10.0.0.0/8"), r) {
                assert!(fx.covers(route), "uncovered route at {:?}: {route:?}", r);
            }
        }
    }

    #[test]
    fn split_horizon_is_lifted_soundly() {
        let (topo, p, a, _) = chain();
        let mut net = NetworkConfig::new();
        net.originate(p, pfx("10.0.0.0/8"));
        let fx = analyze(&topo, &net);
        // A learned the route from P with next hop P on every
        // concretization — it must not flow back to P.
        assert!(fx.facts.contains_key(&(a, 0, p)));
        assert!(
            !fx.facts.contains_key(&(p, 0, a)),
            "split horizon stops the echo"
        );
    }

    #[test]
    fn denials_record_blackholes_with_the_denying_entry() {
        let (topo, p, a, b) = chain();
        let mut net = NetworkConfig::new();
        net.originate(p, pfx("10.0.0.0/8"));
        net.router_mut(b).set_import(
            a,
            RouteMap::new(
                "drop",
                vec![RouteMapEntry {
                    seq: 10,
                    action: Action::Deny,
                    matches: vec![],
                    sets: vec![],
                }],
            ),
        );
        let fx = analyze(&topo, &net);
        assert!(!fx.reaches_prefix(b, &pfx("10.0.0.0/8")));
        assert_eq!(fx.denials.len(), 1);
        let d = &fx.denials[0];
        assert_eq!((d.from, d.to, d.dir, d.entry), (a, b, Dir::Import, Some(0)));
    }

    #[test]
    fn valley_detection_needs_annotations() {
        // P1 — A — P2 with A buying transit from both: a textbook valley.
        let mut t = Topology::new();
        let p1 = t.add_router("P1", AsNum(500), RouterKind::External);
        let a = t.add_router("A", AsNum(100), RouterKind::Internal);
        let p2 = t.add_router("P2", AsNum(600), RouterKind::External);
        t.add_link(p1, a);
        t.add_link(a, p2);
        let mut net = NetworkConfig::new();
        net.originate(p1, pfx("10.0.0.0/8"));
        let fx = analyze(&t, &net);
        assert!(fx.valley.is_empty(), "unannotated topology stays silent");
        t.annotate_provider(p1, a);
        t.annotate_provider(p2, a);
        let fx = analyze(&t, &net);
        assert_eq!(fx.valley, vec![((a, 0, p1), p2)]);
    }
}
