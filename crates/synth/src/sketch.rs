//! Configuration sketches: route maps with holes.
//!
//! A sketch mirrors the concrete policy structures of `netexpl-bgp` but
//! every interesting field is a [`Hole`]: either a concrete value or a
//! symbolic variable in the encoding context. NetComplete's autocompletion
//! workflow corresponds to building a sketch with holes where the operator
//! left blanks; the paper's explanation workflow (Fig. 6b) corresponds to
//! taking a fully concrete configuration and re-opening selected fields as
//! fresh symbolic variables.

use netexpl_bgp::{
    Action, Community, MatchClause, NetworkConfig, Origination, RouteMap, RouteMapEntry, SetClause,
};
use netexpl_logic::model::Value;
use netexpl_logic::term::{Ctx, TermId};
use netexpl_logic::Assignment;
use netexpl_topology::{AsNum, Prefix, RouterId};

use crate::vocab::{attr_idx, ValKind, VocabSorts, Vocabulary};

/// A field that is either concrete or a symbolic term of the matching sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hole<T> {
    /// A known value.
    Concrete(T),
    /// A symbolic variable (term) to be solved for.
    Symbolic(TermId),
}

impl<T> Hole<T> {
    /// The symbolic term, if any.
    pub fn term(&self) -> Option<TermId> {
        match self {
            Hole::Symbolic(t) => Some(*t),
            Hole::Concrete(_) => None,
        }
    }
}

/// A (possibly symbolic) match clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymMatch {
    /// Concrete prefix-list match.
    PrefixList(Vec<Prefix>),
    /// Community match with a possibly-symbolic tag.
    Community(Hole<Community>),
    /// Concrete AS-in-path match.
    AsInPath(AsNum),
    /// Concrete learned-from match.
    FromNeighbor(RouterId),
    /// The paper's fully generic `match Var_Attr Var_Val` line: both the
    /// inspected attribute and the compared value are symbolic (`Attr` /
    /// `Val` sorted terms).
    Generic {
        /// `Attr`-sorted term.
        attr: TermId,
        /// `Val`-sorted term.
        value: TermId,
    },
}

/// A (possibly symbolic) set clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymSet {
    /// Set local preference (bounded-int hole).
    LocalPref(Hole<u32>),
    /// Attach a community (possibly symbolic tag).
    AddCommunity(Hole<Community>),
    /// Remove all communities.
    ClearCommunities,
    /// Override next hop (possibly symbolic router).
    NextHop(Hole<RouterId>),
    /// Generic `set Var_Attr Var_Param` line: `attr = Community` adds the
    /// community in `param`, `attr = NextHop` overrides the next hop,
    /// `attr = Prefix` is a no-op (the solver's "do nothing" option).
    Generic {
        /// `Attr`-sorted term.
        attr: TermId,
        /// `Val`-sorted term.
        param: TermId,
    },
}

/// A (possibly symbolic) route-map entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymEntry {
    /// Sequence number for display.
    pub seq: u32,
    /// Permit/deny, possibly a hole (`Action`-sorted term).
    pub action: Hole<Action>,
    /// Match clauses (all must hold).
    pub matches: Vec<SymMatch>,
    /// Set clauses applied on permit.
    pub sets: Vec<SymSet>,
}

/// A (possibly symbolic) route map.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymRouteMap {
    /// Display name.
    pub name: String,
    /// Entries in evaluation order.
    pub entries: Vec<SymEntry>,
}

/// Per-router symbolic configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymRouterConfig {
    /// Import maps keyed by neighbor.
    pub import: std::collections::BTreeMap<RouterId, SymRouteMap>,
    /// Export maps keyed by neighbor.
    pub export: std::collections::BTreeMap<RouterId, SymRouteMap>,
}

/// The network-wide symbolic configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymNetworkConfig {
    /// Router configurations.
    pub routers: std::collections::BTreeMap<RouterId, SymRouterConfig>,
    /// Concrete environment originations.
    pub originations: Vec<Origination>,
}

impl SymRouteMap {
    /// Lift a concrete route map (no holes).
    pub fn from_concrete(map: &RouteMap) -> SymRouteMap {
        SymRouteMap {
            name: map.name.clone(),
            entries: map
                .entries
                .iter()
                .map(|e| SymEntry {
                    seq: e.seq,
                    action: Hole::Concrete(e.action),
                    matches: e
                        .matches
                        .iter()
                        .map(|m| match m {
                            MatchClause::PrefixList(ps) => SymMatch::PrefixList(ps.clone()),
                            MatchClause::Community(c) => SymMatch::Community(Hole::Concrete(*c)),
                            MatchClause::AsInPath(a) => SymMatch::AsInPath(*a),
                            MatchClause::FromNeighbor(n) => SymMatch::FromNeighbor(*n),
                        })
                        .collect(),
                    sets: e
                        .sets
                        .iter()
                        .map(|s| match s {
                            SetClause::LocalPref(lp) => SymSet::LocalPref(Hole::Concrete(*lp)),
                            SetClause::AddCommunity(c) => SymSet::AddCommunity(Hole::Concrete(*c)),
                            SetClause::ClearCommunities => SymSet::ClearCommunities,
                            SetClause::NextHop(n) => SymSet::NextHop(Hole::Concrete(*n)),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// All symbolic variable terms appearing in this map.
    pub fn symbolic_terms(&self) -> Vec<TermId> {
        let mut out = Vec::new();
        for e in &self.entries {
            if let Some(t) = e.action.term() {
                out.push(t);
            }
            for m in &e.matches {
                match m {
                    SymMatch::Community(h) => out.extend(h.term()),
                    SymMatch::Generic { attr, value } => {
                        out.push(*attr);
                        out.push(*value);
                    }
                    _ => {}
                }
            }
            for s in &e.sets {
                match s {
                    SymSet::LocalPref(h) => out.extend(h.term()),
                    SymSet::AddCommunity(h) => out.extend(h.term()),
                    SymSet::NextHop(h) => out.extend(h.term()),
                    SymSet::Generic { attr, param } => {
                        out.push(*attr);
                        out.push(*param);
                    }
                    SymSet::ClearCommunities => {}
                }
            }
        }
        out
    }
}

impl SymNetworkConfig {
    /// Lift a fully concrete configuration.
    pub fn from_concrete(config: &NetworkConfig) -> SymNetworkConfig {
        let mut sym = SymNetworkConfig {
            routers: Default::default(),
            originations: config.originations().to_vec(),
        };
        for r in config.configured_routers() {
            let rc = config.router(r).unwrap();
            let entry = sym.routers.entry(r).or_default();
            for (n, m) in rc.imports() {
                entry.import.insert(n, SymRouteMap::from_concrete(m));
            }
            for (n, m) in rc.exports() {
                entry.export.insert(n, SymRouteMap::from_concrete(m));
            }
        }
        sym
    }

    /// Mutable access to a router's symbolic config, created on demand.
    pub fn router_mut(&mut self, r: RouterId) -> &mut SymRouterConfig {
        self.routers.entry(r).or_default()
    }

    /// All symbolic variable terms across the network.
    pub fn symbolic_terms(&self) -> Vec<TermId> {
        let mut out = Vec::new();
        for rc in self.routers.values() {
            for m in rc.import.values().chain(rc.export.values()) {
                out.extend(m.symbolic_terms());
            }
        }
        out
    }

    /// Instantiate every hole with the model's values, producing a concrete
    /// configuration. Holes for variables absent from the model (i.e. never
    /// constrained) default to the most permissive choice: `permit`, no-op
    /// sets, local preference 100.
    pub fn concretize(
        &self,
        ctx: &Ctx,
        vocab: &Vocabulary,
        sorts: &VocabSorts,
        model: &Assignment,
    ) -> NetworkConfig {
        let mut out = NetworkConfig::new();
        for o in &self.originations {
            out.originate(o.router, o.prefix);
        }
        for (&r, rc) in &self.routers {
            let target = out.router_mut(r);
            for (&n, m) in &rc.import {
                target.set_import(n, concretize_map(ctx, vocab, sorts, model, m));
            }
            for (&n, m) in &rc.export {
                target.set_export(n, concretize_map(ctx, vocab, sorts, model, m));
            }
        }
        out
    }
}

fn term_value(ctx: &Ctx, model: &Assignment, t: TermId) -> Option<Value> {
    model.eval(ctx, t)
}

fn enum_variant(ctx: &Ctx, model: &Assignment, t: TermId) -> Option<u16> {
    match term_value(ctx, model, t) {
        Some(Value::Enum(_, v)) => Some(v),
        _ => None,
    }
}

fn concretize_map(
    ctx: &Ctx,
    vocab: &Vocabulary,
    sorts: &VocabSorts,
    model: &Assignment,
    map: &SymRouteMap,
) -> RouteMap {
    let community_of = |t: TermId| -> Community {
        match enum_variant(ctx, model, t).map(|v| sorts.classify_val(v)) {
            Some(ValKind::Community(i)) => vocab.communities[i],
            _ => *vocab.communities.first().unwrap_or(&Community(0, 0)),
        }
    };
    let router_of = |t: TermId| -> Option<RouterId> {
        match enum_variant(ctx, model, t).map(|v| sorts.classify_val(v)) {
            Some(ValKind::Router(i)) => Some(vocab.routers[i]),
            _ => None,
        }
    };
    let mut entries = Vec::new();
    for e in &map.entries {
        let action = match &e.action {
            Hole::Concrete(a) => *a,
            Hole::Symbolic(t) => match enum_variant(ctx, model, *t) {
                Some(1) => Action::Deny,
                _ => Action::Permit,
            },
        };
        let mut matches = Vec::new();
        for m in &e.matches {
            match m {
                SymMatch::PrefixList(ps) => matches.push(MatchClause::PrefixList(ps.clone())),
                SymMatch::Community(Hole::Concrete(c)) => matches.push(MatchClause::Community(*c)),
                SymMatch::Community(Hole::Symbolic(t)) => {
                    matches.push(MatchClause::Community(community_of(*t)))
                }
                SymMatch::AsInPath(a) => matches.push(MatchClause::AsInPath(*a)),
                SymMatch::FromNeighbor(n) => matches.push(MatchClause::FromNeighbor(*n)),
                SymMatch::Generic { attr, value } => {
                    match enum_variant(ctx, model, *attr) {
                        Some(attr_idx::PREFIX) => {
                            if let Some(ValKind::Prefix(i)) =
                                enum_variant(ctx, model, *value).map(|v| sorts.classify_val(v))
                            {
                                matches.push(MatchClause::PrefixList(vec![vocab.prefixes[i]]));
                            } else {
                                // Prefix attr with non-prefix value: matches
                                // nothing; keep an impossible clause.
                                matches.push(MatchClause::PrefixList(vec![]));
                            }
                        }
                        Some(attr_idx::COMMUNITY) => {
                            matches.push(MatchClause::Community(community_of(*value)))
                        }
                        Some(attr_idx::NEXT_HOP) => {
                            if let Some(r) = router_of(*value) {
                                matches.push(MatchClause::FromNeighbor(r));
                            } else {
                                matches.push(MatchClause::PrefixList(vec![]));
                            }
                        }
                        _ => matches.push(MatchClause::PrefixList(vec![])),
                    }
                }
            }
        }
        let mut sets = Vec::new();
        for s in &e.sets {
            match s {
                SymSet::LocalPref(Hole::Concrete(lp)) => sets.push(SetClause::LocalPref(*lp)),
                SymSet::LocalPref(Hole::Symbolic(t)) => {
                    let lp = match term_value(ctx, model, *t) {
                        Some(Value::Int(v)) => v as u32,
                        _ => netexpl_bgp::route::DEFAULT_LOCAL_PREF,
                    };
                    sets.push(SetClause::LocalPref(lp));
                }
                SymSet::AddCommunity(Hole::Concrete(c)) => sets.push(SetClause::AddCommunity(*c)),
                SymSet::AddCommunity(Hole::Symbolic(t)) => {
                    sets.push(SetClause::AddCommunity(community_of(*t)))
                }
                SymSet::ClearCommunities => sets.push(SetClause::ClearCommunities),
                SymSet::NextHop(Hole::Concrete(n)) => sets.push(SetClause::NextHop(*n)),
                SymSet::NextHop(Hole::Symbolic(t)) => {
                    if let Some(r) = router_of(*t) {
                        sets.push(SetClause::NextHop(r));
                    }
                }
                SymSet::Generic { attr, param } => match enum_variant(ctx, model, *attr) {
                    Some(attr_idx::COMMUNITY) => {
                        sets.push(SetClause::AddCommunity(community_of(*param)))
                    }
                    Some(attr_idx::NEXT_HOP) => {
                        if let Some(r) = router_of(*param) {
                            sets.push(SetClause::NextHop(r));
                        }
                    }
                    _ => {} // Prefix / unresolved: no-op
                },
            }
        }
        entries.push(RouteMapEntry {
            seq: e.seq,
            action,
            matches,
            sets,
        });
    }
    RouteMap::new(&map.name, entries)
}

/// Helpers for creating fresh hole variables with descriptive names.
#[derive(Debug)]
pub struct HoleFactory<'v> {
    /// The vocabulary being used.
    pub vocab: &'v Vocabulary,
    /// Its materialized sorts.
    pub sorts: VocabSorts,
}

impl<'v> HoleFactory<'v> {
    /// Create a factory for a vocabulary whose sorts were already
    /// materialized in the context.
    pub fn new(vocab: &'v Vocabulary, sorts: VocabSorts) -> Self {
        HoleFactory { vocab, sorts }
    }

    /// A fresh action hole.
    pub fn action(&self, ctx: &mut Ctx, name: &str) -> Hole<Action> {
        Hole::Symbolic(ctx.enum_var(name, self.sorts.action))
    }

    /// A fresh `Attr`-sorted variable.
    pub fn attr(&self, ctx: &mut Ctx, name: &str) -> TermId {
        ctx.enum_var(name, self.sorts.attr)
    }

    /// A fresh `Val`-sorted variable.
    pub fn val(&self, ctx: &mut Ctx, name: &str) -> TermId {
        ctx.enum_var(name, self.sorts.val)
    }

    /// A fresh local-preference hole (bounded int).
    pub fn local_pref(&self, ctx: &mut Ctx, name: &str) -> Hole<u32> {
        let (lo, hi) = self.vocab.lp_bounds();
        Hole::Symbolic(ctx.int_var(name, lo, hi))
    }

    /// A fresh community hole (`Val`-sorted, expected to resolve to a
    /// community variant).
    pub fn community(&self, ctx: &mut Ctx, name: &str) -> Hole<Community> {
        Hole::Symbolic(ctx.enum_var(name, self.sorts.val))
    }

    /// A fresh generic match line (`match Var_Attr Var_Val`).
    pub fn generic_match(&self, ctx: &mut Ctx, prefix_name: &str) -> SymMatch {
        SymMatch::Generic {
            attr: self.attr(ctx, &format!("{prefix_name}!Var_Attr")),
            value: self.val(ctx, &format!("{prefix_name}!Var_Val")),
        }
    }

    /// A fresh generic set line (`set Var_Attr Var_Param`).
    pub fn generic_set(&self, ctx: &mut Ctx, prefix_name: &str) -> SymSet {
        SymSet::Generic {
            attr: self.attr(ctx, &format!("{prefix_name}!Set_Attr")),
            param: self.val(ctx, &format!("{prefix_name}!Var_Param")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netexpl_logic::model::Value;
    use netexpl_logic::term::TermNode;
    use netexpl_topology::builders::paper_topology;

    fn setup() -> (netexpl_topology::Topology, Vocabulary, Ctx, VocabSorts) {
        let (topo, _) = paper_topology();
        let vocab = Vocabulary::new(
            &topo,
            vec![Community(100, 2)],
            vec![50, 200],
            vec!["200.7.0.0/16".parse().unwrap()],
        );
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        (topo, vocab, ctx, sorts)
    }

    fn var_of(ctx: &Ctx, t: TermId) -> netexpl_logic::term::VarId {
        match ctx.node(t) {
            TermNode::EnumVar(v) | TermNode::IntVar(v) | TermNode::BoolVar(v) => *v,
            _ => panic!("not a variable term"),
        }
    }

    #[test]
    fn lift_concrete_roundtrip() {
        let (_, vocab, ctx, sorts) = setup();
        let (_, h) = paper_topology();
        let mut net = NetworkConfig::new();
        net.originate(h.p1, "200.7.0.0/16".parse().unwrap());
        net.router_mut(h.r1).set_export(
            h.p1,
            RouteMap::new(
                "m",
                vec![RouteMapEntry {
                    seq: 10,
                    action: Action::Deny,
                    matches: vec![MatchClause::Community(Community(100, 2))],
                    sets: vec![],
                }],
            ),
        );
        let sym = SymNetworkConfig::from_concrete(&net);
        assert!(sym.symbolic_terms().is_empty());
        let back = sym.concretize(&ctx, &vocab, &sorts, &Assignment::new());
        assert_eq!(back, net);
    }

    #[test]
    fn action_hole_concretizes_from_model() {
        let (_, vocab, mut ctx, sorts) = setup();
        let f = HoleFactory::new(&vocab, sorts);
        let hole = f.action(&mut ctx, "Var_Action");
        let t = hole.term().unwrap();
        let mut sym = SymNetworkConfig::default();
        let (_, h) = paper_topology();
        sym.router_mut(h.r1).export.insert(
            h.p1,
            SymRouteMap {
                name: "m".into(),
                entries: vec![SymEntry {
                    seq: 1,
                    action: hole,
                    matches: vec![],
                    sets: vec![],
                }],
            },
        );
        let mut model = Assignment::new();
        model.set(var_of(&ctx, t), Value::Enum(sorts.action, 1)); // deny
        let net = sym.concretize(&ctx, &vocab, &sorts, &model);
        let map = net.router(h.r1).unwrap().export(h.p1).unwrap();
        assert_eq!(map.entries[0].action, Action::Deny);
        // Unconstrained (missing from model) defaults to permit.
        let net2 = sym.concretize(&ctx, &vocab, &sorts, &Assignment::new());
        let map2 = net2.router(h.r1).unwrap().export(h.p1).unwrap();
        assert_eq!(map2.entries[0].action, Action::Permit);
    }

    #[test]
    fn generic_match_concretizes_per_attr() {
        let (_, vocab, mut ctx, sorts) = setup();
        let f = HoleFactory::new(&vocab, sorts);
        let m = f.generic_match(&mut ctx, "e1");
        let (attr_t, val_t) = match &m {
            SymMatch::Generic { attr, value } => (*attr, *value),
            _ => unreachable!(),
        };
        let (_, h) = paper_topology();
        let mut sym = SymNetworkConfig::default();
        sym.router_mut(h.r1).export.insert(
            h.p1,
            SymRouteMap {
                name: "m".into(),
                entries: vec![SymEntry {
                    seq: 1,
                    action: Hole::Concrete(Action::Deny),
                    matches: vec![m],
                    sets: vec![],
                }],
            },
        );
        // attr = Community, value = the community.
        let mut model = Assignment::new();
        model.set(
            var_of(&ctx, attr_t),
            Value::Enum(sorts.attr, attr_idx::COMMUNITY),
        );
        model.set(
            var_of(&ctx, val_t),
            Value::Enum(sorts.val, sorts.val_community(0)),
        );
        let net = sym.concretize(&ctx, &vocab, &sorts, &model);
        let map = net.router(h.r1).unwrap().export(h.p1).unwrap();
        assert_eq!(
            map.entries[0].matches,
            vec![MatchClause::Community(Community(100, 2))]
        );
        // attr = Prefix, value = the prefix.
        let mut model2 = Assignment::new();
        model2.set(
            var_of(&ctx, attr_t),
            Value::Enum(sorts.attr, attr_idx::PREFIX),
        );
        model2.set(
            var_of(&ctx, val_t),
            Value::Enum(sorts.val, sorts.val_prefix(0)),
        );
        let net2 = sym.concretize(&ctx, &vocab, &sorts, &model2);
        let map2 = net2.router(h.r1).unwrap().export(h.p1).unwrap();
        assert_eq!(
            map2.entries[0].matches,
            vec![MatchClause::PrefixList(vec!["200.7.0.0/16"
                .parse()
                .unwrap()])]
        );
        // attr = NextHop, value = a router.
        let mut model3 = Assignment::new();
        model3.set(
            var_of(&ctx, attr_t),
            Value::Enum(sorts.attr, attr_idx::NEXT_HOP),
        );
        model3.set(
            var_of(&ctx, val_t),
            Value::Enum(sorts.val, sorts.val_router(0)),
        );
        let net3 = sym.concretize(&ctx, &vocab, &sorts, &model3);
        let map3 = net3.router(h.r1).unwrap().export(h.p1).unwrap();
        assert_eq!(
            map3.entries[0].matches,
            vec![MatchClause::FromNeighbor(RouterId(0))]
        );
    }

    #[test]
    fn lp_hole_concretizes() {
        let (_, vocab, mut ctx, sorts) = setup();
        let f = HoleFactory::new(&vocab, sorts);
        let lp = f.local_pref(&mut ctx, "lp1");
        let t = lp.term().unwrap();
        let (_, h) = paper_topology();
        let mut sym = SymNetworkConfig::default();
        sym.router_mut(h.r3).import.insert(
            h.r1,
            SymRouteMap {
                name: "m".into(),
                entries: vec![SymEntry {
                    seq: 1,
                    action: Hole::Concrete(Action::Permit),
                    matches: vec![],
                    sets: vec![SymSet::LocalPref(lp)],
                }],
            },
        );
        let mut model = Assignment::new();
        model.set(var_of(&ctx, t), Value::Int(200));
        let net = sym.concretize(&ctx, &vocab, &sorts, &model);
        let map = net.router(h.r3).unwrap().import(h.r1).unwrap();
        assert_eq!(map.entries[0].sets, vec![SetClause::LocalPref(200)]);
    }

    #[test]
    fn generic_set_prefix_attr_is_noop() {
        let (_, vocab, mut ctx, sorts) = setup();
        let f = HoleFactory::new(&vocab, sorts);
        let s = f.generic_set(&mut ctx, "e1");
        let (attr_t, _) = match &s {
            SymSet::Generic { attr, param } => (*attr, *param),
            _ => unreachable!(),
        };
        let (_, h) = paper_topology();
        let mut sym = SymNetworkConfig::default();
        sym.router_mut(h.r1).export.insert(
            h.p1,
            SymRouteMap {
                name: "m".into(),
                entries: vec![SymEntry {
                    seq: 1,
                    action: Hole::Concrete(Action::Permit),
                    matches: vec![],
                    sets: vec![s],
                }],
            },
        );
        let mut model = Assignment::new();
        model.set(
            var_of(&ctx, attr_t),
            Value::Enum(sorts.attr, attr_idx::PREFIX),
        );
        let net = sym.concretize(&ctx, &vocab, &sorts, &model);
        let map = net.router(h.r1).unwrap().export(h.p1).unwrap();
        assert!(map.entries[0].sets.is_empty(), "prefix-attr set is a no-op");
    }

    #[test]
    fn symbolic_terms_collected() {
        let (_, vocab, mut ctx, sorts) = setup();
        let f = HoleFactory::new(&vocab, sorts);
        let (_, h) = paper_topology();
        let mut sym = SymNetworkConfig::default();
        let action = f.action(&mut ctx, "a");
        let gm = f.generic_match(&mut ctx, "m");
        let lp = f.local_pref(&mut ctx, "lp");
        sym.router_mut(h.r1).export.insert(
            h.p1,
            SymRouteMap {
                name: "m".into(),
                entries: vec![SymEntry {
                    seq: 1,
                    action,
                    matches: vec![gm],
                    sets: vec![SymSet::LocalPref(lp)],
                }],
            },
        );
        assert_eq!(sym.symbolic_terms().len(), 4, "action + attr + val + lp");
    }
}
