//! Compiled transfer functions: route maps as abstract transformers.
//!
//! Each route map is compiled once (clauses pre-partitioned by kind) and
//! then evaluated against an [`AbsRoute`] many times during the fixpoint.

use netexpl_bgp::{Action, Community, MatchClause, RouteMap, SetClause};
use netexpl_topology::{AsNum, Prefix, RouterId};

use crate::domain::AbsRoute;

/// Three-valued verdict of an abstract match: does the clause hold on
/// none, some, or all concretizations of the abstract route?
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MatchStatus {
    /// No concretization matches.
    No,
    /// Some concretizations may match.
    May,
    /// Every concretization matches.
    Must,
}

/// One route-map entry with its match clauses pre-partitioned by kind.
#[derive(Debug, Clone)]
pub struct CompiledEntry {
    /// Permit or deny.
    pub action: Action,
    /// The entry's rewrite clauses, applied on permit.
    pub sets: Vec<SetClause>,
    /// `match ip prefix-list` clauses.
    pub prefix_lists: Vec<Vec<Prefix>>,
    /// `match community` clauses.
    pub comms: Vec<Community>,
    /// `match as-path` clauses.
    pub as_nums: Vec<AsNum>,
    /// `match neighbor` clauses.
    pub neighbors: Vec<RouterId>,
}

impl CompiledEntry {
    /// Abstract match status of this entry for a fact with concrete
    /// `prefix` and abstract attributes `abs`: the weakest status over
    /// all clauses (an empty clause list matches everything: `Must`).
    pub fn status(&self, prefix: &Prefix, abs: &AbsRoute) -> MatchStatus {
        let mut st = MatchStatus::Must;
        for ps in &self.prefix_lists {
            // The fact's prefix is concrete, so prefix-list clauses are
            // always decided exactly.
            let hit = ps.iter().any(|p| p.contains(prefix));
            st = st.min(if hit {
                MatchStatus::Must
            } else {
                MatchStatus::No
            });
        }
        for c in &self.comms {
            st = st.min(if abs.comms_must.contains(c) {
                MatchStatus::Must
            } else if abs.comms_may.contains(c) {
                MatchStatus::May
            } else {
                MatchStatus::No
            });
        }
        for a in &self.as_nums {
            st = st.min(if abs.as_must.contains(a) {
                MatchStatus::Must
            } else if abs.as_may.contains(a) {
                MatchStatus::May
            } else {
                MatchStatus::No
            });
        }
        for n in &self.neighbors {
            st = st.min(if abs.nh.len() == 1 && abs.nh.contains(n) {
                MatchStatus::Must
            } else if abs.nh.contains(n) {
                MatchStatus::May
            } else {
                MatchStatus::No
            });
        }
        st
    }
}

/// A compiled route map: the abstract transformer.
#[derive(Debug, Clone)]
pub struct CompiledMap {
    /// Compiled entries, in first-match-wins order.
    pub entries: Vec<CompiledEntry>,
}

impl CompiledMap {
    /// Compile `map` into an abstract transformer.
    pub fn compile(map: &RouteMap) -> CompiledMap {
        let entries = map
            .entries
            .iter()
            .map(|e| {
                let mut ce = CompiledEntry {
                    action: e.action,
                    sets: e.sets.clone(),
                    prefix_lists: Vec::new(),
                    comms: Vec::new(),
                    as_nums: Vec::new(),
                    neighbors: Vec::new(),
                };
                for m in &e.matches {
                    match m {
                        MatchClause::PrefixList(ps) => ce.prefix_lists.push(ps.clone()),
                        MatchClause::Community(c) => ce.comms.push(*c),
                        MatchClause::AsInPath(a) => ce.as_nums.push(*a),
                        MatchClause::FromNeighbor(n) => ce.neighbors.push(*n),
                    }
                }
                ce
            })
            .collect();
        CompiledMap { entries }
    }

    /// Abstract application (the lift of [`RouteMap::apply`]).
    pub fn eval(&self, prefix: &Prefix, input: &AbsRoute) -> MapEval {
        if self.entries.is_empty() {
            // An empty map permits everything unchanged.
            return MapEval {
                out: Some(input.clone()),
                fired: Vec::new(),
                deny_entry: None,
            };
        }
        let mut fired = vec![false; self.entries.len()];
        let mut permit: Option<AbsRoute> = None;
        let mut first_deny: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            let st = e.status(prefix, input);
            if st == MatchStatus::No {
                continue;
            }
            fired[i] = true;
            match e.action {
                Action::Permit => {
                    let mut v = input.clone();
                    v.apply_sets(&e.sets);
                    match &mut permit {
                        Some(p) => {
                            p.join(&v);
                        }
                        None => permit = Some(v),
                    }
                }
                Action::Deny => {
                    if first_deny.is_none() {
                        first_deny = Some(i);
                    }
                }
            }
            if st == MatchStatus::Must {
                // Nothing falls through a must-match.
                break;
            }
        }
        // Any fall-through portion hits the implicit deny and contributes
        // nothing; `permit` is already the join over all permitted exits.
        let deny_entry = if permit.is_none() { first_deny } else { None };
        MapEval {
            out: permit,
            fired,
            deny_entry,
        }
    }
}

/// Result of abstractly applying a map to one fact.
#[derive(Debug, Clone)]
pub struct MapEval {
    /// Join over all permitted exits; `None` when every concretization is
    /// provably denied.
    pub out: Option<AbsRoute>,
    /// Per entry: may some concretization reach and match it?
    pub fired: Vec<bool>,
    /// When `out` is `None`: the first explicit deny entry that fired, or
    /// `None` for a pure implicit-deny fall-through.
    pub deny_entry: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netexpl_bgp::RouteMapEntry;
    use netexpl_topology::AsNum;

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn base() -> AbsRoute {
        AbsRoute::origination(RouterId(0), AsNum(500))
    }

    #[test]
    fn empty_map_permits_unchanged() {
        let m = CompiledMap::compile(&RouteMap::new("m", vec![]));
        let out = m.eval(&pfx("10.0.0.0/8"), &base());
        assert_eq!(out.out, Some(base()));
    }

    #[test]
    fn must_deny_is_bottom_and_blamed() {
        let m = CompiledMap::compile(&RouteMap::new(
            "m",
            vec![RouteMapEntry {
                seq: 10,
                action: Action::Deny,
                matches: vec![],
                sets: vec![],
            }],
        ));
        let out = m.eval(&pfx("10.0.0.0/8"), &base());
        assert!(out.out.is_none());
        assert_eq!(out.deny_entry, Some(0));
        assert_eq!(out.fired, vec![true]);
    }

    #[test]
    fn may_match_falls_through_and_joins() {
        // Entry 0 denies a community the input *may* carry; entry 1
        // permits with a local-pref rewrite. The abstract result must
        // cover both the denied-nothing and the rewritten outcomes.
        let mut input = base();
        input.comms_may.insert(Community(1, 1));
        let m = CompiledMap::compile(&RouteMap::new(
            "m",
            vec![
                RouteMapEntry {
                    seq: 10,
                    action: Action::Deny,
                    matches: vec![MatchClause::Community(Community(1, 1))],
                    sets: vec![],
                },
                RouteMapEntry {
                    seq: 20,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![SetClause::LocalPref(200)],
                },
            ],
        ));
        let out = m.eval(&pfx("10.0.0.0/8"), &input);
        let out = out.out.expect("permit exit exists");
        assert_eq!((out.lp_min, out.lp_max), (200, 200));
    }

    #[test]
    fn must_match_consumes_later_entries() {
        let mut input = base();
        input.comms_must.insert(Community(1, 1));
        input.comms_may.insert(Community(1, 1));
        let m = CompiledMap::compile(&RouteMap::new(
            "m",
            vec![
                RouteMapEntry {
                    seq: 10,
                    action: Action::Deny,
                    matches: vec![MatchClause::Community(Community(1, 1))],
                    sets: vec![],
                },
                RouteMapEntry {
                    seq: 20,
                    action: Action::Permit,
                    matches: vec![],
                    sets: vec![],
                },
            ],
        ));
        let out = m.eval(&pfx("10.0.0.0/8"), &input);
        assert!(out.out.is_none(), "must-deny stops the fall-through");
        assert_eq!(out.fired, vec![true, false]);
    }
}
