//! Incremental re-explanation on configuration diffs.
//!
//! A synthesized network rarely changes wholesale: operators (or the
//! synthesizer, on a re-run) edit one or two route maps and want the
//! explanations refreshed. Re-running [`explain_all`](crate::explain_all)
//! from scratch re-encodes, re-simplifies, and re-lifts every router —
//! including the ones the edit provably cannot affect. [`explain_delta`]
//! instead:
//!
//! 1. **Diffs** the two configurations structurally
//!    ([`netexpl_bgp::fingerprint`]): per-session route-map fingerprints
//!    classify each change as cosmetic (rename / renumber / provably
//!    independent reorder) or semantic (behaviour may differ).
//! 2. **Plans** a *dirty set* ([`plan_delta`]): an edited router is always
//!    dirty (its partially-symbolic config changed bit-for-bit —
//!    [`DirtyReason::LocalEdit`]); a *semantic* edit additionally dirties
//!    every router whose explanation could observe the changed map through
//!    the network ([`DirtyReason::Neighborhood`]), decided by a
//!    config-independent topology walk mirroring the encoder's path
//!    enumeration; origination changes move the whole path universe and
//!    dirty everyone ([`DirtyReason::Environment`]).
//! 3. **Patches** the prior [`EncodeCache`] ([`EncodeCache::patch`]):
//!    crossings whose maps and route state are unchanged replay from the
//!    prior cache; only crossings the edit touched are recomputed.
//! 4. **Re-runs** the pipeline for the dirty routers only, through the
//!    same worker fan-out as a full run, and splices the prior reports in
//!    for everyone else — each report tagged [`DeltaProvenance::Reused`]
//!    or [`DeltaProvenance::Recomputed`].
//!
//! ## Why clean routers may be reused
//!
//! For a router with no own edit and no path-relevant *semantic* edit
//! elsewhere, the compared artifacts of a fresh run are unchanged:
//!
//! * Its partially-symbolic configuration is bit-identical (own maps
//!   exact-equal), so the symbolization and seed stages see the same
//!   inputs up to the concrete crossings.
//! * Lift candidates derive only from path *router sequences* — a
//!   function of topology and originations, not of map contents — so the
//!   candidate set is unchanged.
//! * The keep/reject verdicts, sufficiency check, and stage verdicts are
//!   entailment answers, invariant under logical equivalence of the seed.
//!   Cosmetic edits elsewhere (rename, renumber, provably-independent
//!   reorder) preserve the folded policies' semantics, so every solver
//!   answer — and hence the subspecification — is preserved.
//!
//! Term-*structural* artifacts (seed conjunct counts, rendered constraint
//! text) may differ under cosmetic remote edits; the reuse contract covers
//! the semantic artifacts: outcome status, subspecification, sufficiency,
//! and verdicts. The differential suite (`tests/explain_delta.rs`) checks
//! exactly that contract against from-scratch runs.
//!
//! What a delta run reuses is prior *reports* and cache *crossings*. Every
//! dirty router's lift encodes a fresh solver session, exactly as on a
//! full run.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

use netexpl_bgp::{fingerprint_config, ConfigDiff, MapDir, NetworkConfig};
use netexpl_logic::term::Ctx;
use netexpl_obs::Span;
use netexpl_spec::Specification;
use netexpl_synth::encode::{EncodeCache, EncodeOptions, PatchStats};
use netexpl_synth::vocab::{VocabSorts, Vocabulary};
use netexpl_topology::{RouterId, RouterKind, Topology};

use crate::explain::ExplainError;
use crate::network::{
    run_routers, ExplainAllOptions, NetworkExplanation, RouterOutcome, RouterReport,
};
use crate::symbolize::Selector;

/// Why a router landed in the dirty set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirtyReason {
    /// The router's own configuration changed (any exact-fingerprint
    /// difference, including cosmetic ones — its partially-symbolic
    /// config is no longer bit-identical).
    LocalEdit,
    /// A semantic change on router `via` lies on a propagation path whose
    /// session crossings this router's explanation can observe.
    Neighborhood {
        /// The edited router whose change reaches this one.
        via: String,
    },
    /// The origination environment changed: the enumerated path universe
    /// itself moved, invalidating every prior explanation.
    Environment,
    /// The prior run holds nothing reusable for this router: report
    /// missing, failed, or the prior run was cancelled.
    PriorUnusable,
}

impl std::fmt::Display for DirtyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirtyReason::LocalEdit => write!(f, "local edit"),
            DirtyReason::Neighborhood { via } => write!(f, "semantic change on {via}"),
            DirtyReason::Environment => write!(f, "originations changed"),
            DirtyReason::PriorUnusable => write!(f, "no usable prior result"),
        }
    }
}

/// Per-router provenance on a delta run: was this report carried over or
/// recomputed?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaProvenance {
    /// The prior run's report, spliced in verbatim.
    Reused,
    /// Re-ran the pipeline because of the recorded reason.
    Recomputed(DirtyReason),
}

impl DeltaProvenance {
    /// Stable token for machine-readable output.
    pub fn status(&self) -> &'static str {
        match self {
            DeltaProvenance::Reused => "reused",
            DeltaProvenance::Recomputed(_) => "recomputed",
        }
    }
}

/// The recompute plan for one configuration edit.
#[derive(Debug)]
pub struct DeltaPlan {
    /// The structural diff driving the plan.
    pub diff: ConfigDiff,
    /// Routers to re-run, with the reason each is dirty.
    pub dirty: BTreeMap<RouterId, DirtyReason>,
}

impl DeltaPlan {
    /// Dirty routers in ascending id (= topology) order.
    pub fn dirty_routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.dirty.keys().copied()
    }
}

/// Every directed session crossing `(u, v)` the encoder's path
/// enumeration traverses, for the given originations. Mirrors
/// `Encoder::enumerate_paths`/`dfs` exactly — per-origin DFS over sorted
/// neighbors, bounded by `max_path_len`, externals never transit, no
/// router revisited on a path — but walks only the topology: the crossing
/// set is independent of map contents, which is what makes the dirty-set
/// closure sound to compute without touching the solver.
fn enumerate_crossings(
    topo: &Topology,
    config: &NetworkConfig,
    options: EncodeOptions,
) -> BTreeSet<(RouterId, RouterId)> {
    let mut origins: Vec<RouterId> = config.originations().iter().map(|o| o.router).collect();
    origins.sort_unstable();
    origins.dedup();
    let mut out = BTreeSet::new();
    let mut path = Vec::new();
    for origin in origins {
        path.clear();
        path.push(origin);
        walk(topo, options.max_path_len, &mut path, &mut out);
    }
    out
}

fn walk(
    topo: &Topology,
    max_path_len: usize,
    path: &mut Vec<RouterId>,
    out: &mut BTreeSet<(RouterId, RouterId)>,
) {
    if path.len() >= max_path_len {
        return;
    }
    let holder = *path.last().expect("walk seeded with the origin");
    // Externals never transit: only the origin (path start) advertises.
    if path.len() > 1 && topo.router(holder).kind == RouterKind::External {
        return;
    }
    let mut neighbors: Vec<RouterId> = topo.neighbors(holder).to_vec();
    neighbors.sort_unstable();
    for next in neighbors {
        if path.contains(&next) {
            continue;
        }
        out.insert((holder, next));
        path.push(next);
        walk(topo, max_path_len, path, out);
        path.pop();
    }
}

/// The directed crossing a changed session map is applied on. An export
/// map at `r` towards `n` folds into crossings `r → n`; an import map at
/// `r` from `n` folds into crossings `n → r`.
fn change_crossing(router: RouterId, dir: MapDir, neighbor: RouterId) -> (RouterId, RouterId) {
    match dir {
        MapDir::Export => (router, neighbor),
        MapDir::Import => (neighbor, router),
    }
}

/// Compute the dirty set for an edit from `old` to `new`.
///
/// `prior` is the explanation being patched; pass `None` (or a cancelled
/// prior) to force a full recompute plan. The rule, in order:
///
/// 1. No usable prior, or originations changed → every router is dirty
///    ([`DirtyReason::PriorUnusable`] / [`DirtyReason::Environment`];
///    routers with own edits keep the more specific
///    [`DirtyReason::LocalEdit`]).
/// 2. Any exact change to a router's own maps → that router is dirty
///    ([`DirtyReason::LocalEdit`]) — even cosmetic edits change its
///    partially-symbolic configuration bit-for-bit.
/// 3. Any *semantic* change (including added/removed maps) whose session
///    lies on an enumerated propagation path → every router whose prior
///    report is not `Skipped` is dirty ([`DirtyReason::Neighborhood`]).
///    Cosmetic remote edits dirty nobody else: the folded policies stay
///    logically equivalent, so every reused artifact is preserved.
/// 4. A router whose prior report is missing or failed is dirty
///    ([`DirtyReason::PriorUnusable`]) regardless of the diff.
pub fn plan_delta(
    topo: &Topology,
    old: &NetworkConfig,
    new: &NetworkConfig,
    prior: Option<&NetworkExplanation>,
    encode: EncodeOptions,
) -> DeltaPlan {
    let diff = fingerprint_config(old).diff(&fingerprint_config(new));
    let mut dirty: BTreeMap<RouterId, DirtyReason> = BTreeMap::new();

    let prior_usable = prior.is_some_and(|p| !p.cancelled);
    if !prior_usable || diff.originations_changed {
        let blanket = if diff.originations_changed {
            DirtyReason::Environment
        } else {
            DirtyReason::PriorUnusable
        };
        for r in topo.router_ids() {
            dirty.insert(r, blanket.clone());
        }
        for r in diff.changed_routers() {
            dirty.insert(r, DirtyReason::LocalEdit);
        }
        return DeltaPlan { diff, dirty };
    }
    let prior = prior.expect("usable prior checked above");

    // 2. Own edits (exact diff, cosmetic included).
    for r in diff.changed_routers() {
        dirty.insert(r, DirtyReason::LocalEdit);
    }

    // 3. Path-relevant semantic edits dirty every non-skipped router.
    let by_name: HashMap<&str, &RouterReport> = prior
        .routers
        .iter()
        .map(|r| (r.router.as_str(), r))
        .collect();
    let relevant_vias: Vec<RouterId> = {
        let mut crossings: Option<BTreeSet<(RouterId, RouterId)>> = None;
        let mut vias = Vec::new();
        for c in diff.semantic_changes() {
            let cross = crossings.get_or_insert_with(|| enumerate_crossings(topo, new, encode));
            if cross.contains(&change_crossing(c.router, c.dir, c.neighbor)) {
                vias.push(c.router);
            }
        }
        vias.sort_unstable();
        vias.dedup();
        vias
    };
    if let Some(&via) = relevant_vias.first() {
        let via_name = topo.name(via).to_string();
        for r in topo.router_ids() {
            if dirty.contains_key(&r) {
                continue;
            }
            let skipped = by_name
                .get(topo.name(r))
                .is_some_and(|rep| matches!(rep.outcome, RouterOutcome::Skipped));
            if !skipped {
                dirty.insert(
                    r,
                    DirtyReason::Neighborhood {
                        via: via_name.clone(),
                    },
                );
            }
        }
    }

    // 4. Unusable per-router priors.
    for r in topo.router_ids() {
        if dirty.contains_key(&r) {
            continue;
        }
        let usable = by_name
            .get(topo.name(r))
            .is_some_and(|rep| !matches!(rep.outcome, RouterOutcome::Failed(_)));
        if !usable {
            dirty.insert(r, DirtyReason::PriorUnusable);
        }
    }

    DeltaPlan { diff, dirty }
}

/// The result of an incremental re-explanation.
#[derive(Debug)]
pub struct DeltaReport {
    /// The merged explanation for the *new* configuration: recomputed
    /// reports for dirty routers, the prior's reports for clean ones, in
    /// topology order, each tagged with its [`DeltaProvenance`].
    pub explanation: NetworkExplanation,
    /// The patched encoding cache — pass it (with the same `ctx`) to the
    /// next delta, exactly like a freshly built cache.
    pub cache: EncodeCache,
    /// The structural diff between the two configurations.
    pub diff: ConfigDiff,
    /// Dirty routers (name, reason), in topology order.
    pub dirty: Vec<(String, DirtyReason)>,
    /// Routers whose prior report was spliced in.
    pub reused: usize,
    /// Routers whose pipeline re-ran.
    pub recomputed: usize,
    /// Crossings replayed vs recomputed while patching the cache.
    pub patch: PatchStats,
    /// Always 0: lift sessions are never reused across runs. Kept so
    /// existing readers still compile.
    pub session_hits: u64,
    /// Always 0, like [`DeltaReport::session_hits`].
    pub session_misses: u64,
    /// Wall clock for the whole delta (plan + patch + dirty fan-out).
    pub wall: Duration,
}

/// Re-explain a network after a configuration edit, reusing the prior
/// run's work wherever the edit provably cannot reach.
///
/// `ctx` must be the context `cache` was built in, or a clone of it,
/// exactly as for [`explain_all_cached`](crate::explain_all_cached). The
/// patch's new terms are interned into it, and it is frozen before the
/// dirty routers fork it. `prior` is consumed — clean routers' reports
/// move into the returned explanation. The returned
/// [`DeltaReport::cache`] supersedes `cache` for subsequent deltas
/// against the new configuration.
#[allow(clippy::too_many_arguments)]
pub fn explain_delta(
    ctx: &mut Ctx,
    topo: &Topology,
    vocab: &Vocabulary,
    sorts: VocabSorts,
    old_config: &NetworkConfig,
    new_config: &NetworkConfig,
    spec: &Specification,
    selector: &Selector,
    options: ExplainAllOptions,
    prior: NetworkExplanation,
    cache: &EncodeCache,
) -> Result<DeltaReport, ExplainError> {
    let span = Span::enter("explain_delta");
    let started = Instant::now();

    let plan = plan_delta(
        topo,
        old_config,
        new_config,
        Some(&prior),
        options.explain.encode,
    );
    let dirty_ids: Vec<RouterId> = plan.dirty_routers().collect();
    span.attr("dirty", dirty_ids.len());
    span.attr("routers", topo.router_ids().count());

    // Patch the encoding cache: unchanged crossings replay, edited ones
    // recompute, and the patched cache shares this ctx's arena lineage.
    let (patched, patch_stats) = {
        let patch_span = Span::enter("encode_cache.patch");
        let (patched, stats) =
            cache.patch(ctx, topo, vocab, sorts, new_config, options.explain.encode)?;
        patch_span.attr("reused", stats.reused);
        patch_span.attr("recomputed", stats.recomputed);
        (patched, stats)
    };
    ctx.freeze();

    // Re-run the pipeline for the dirty subset only.
    let run = (!dirty_ids.is_empty()).then(|| {
        run_routers(
            ctx, topo, vocab, sorts, new_config, spec, selector, &options, &patched, &dirty_ids,
            &span,
        )
    });

    // Splice: recomputed outcomes for dirty routers, the prior's reports
    // (moved, retagged) for clean ones.
    let mut fresh: HashMap<RouterId, (RouterOutcome, Duration)> = match run {
        Some(ref _r) => HashMap::with_capacity(dirty_ids.len()),
        None => HashMap::new(),
    };
    let (workers, fan_wall) = match run {
        Some(r) => {
            for (id, outcome) in dirty_ids.iter().zip(r.outcomes) {
                fresh.insert(*id, outcome);
            }
            (r.workers, r.wall)
        }
        None => (0, Duration::ZERO),
    };
    let mut prior_by_name: HashMap<String, RouterReport> = prior
        .routers
        .into_iter()
        .map(|r| (r.router.clone(), r))
        .collect();

    let mut reports = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut any_failed = false;
    let (mut reused, mut recomputed) = (0usize, 0usize);
    for id in topo.router_ids() {
        let name = topo.name(id);
        if let Some((outcome, duration)) = fresh.remove(&id) {
            if let RouterOutcome::Explained(e) = &outcome {
                hits += e.cache_hits;
                misses += e.cache_misses;
            }
            any_failed |= matches!(outcome, RouterOutcome::Failed(_));
            netexpl_obs::observe_ms("explain_all.router_ms", duration.as_secs_f64() * 1e3);
            recomputed += 1;
            let reason = plan
                .dirty
                .get(&id)
                .cloned()
                .unwrap_or(DirtyReason::LocalEdit);
            reports.push(RouterReport {
                router: name.to_string(),
                duration,
                outcome,
                delta: Some(DeltaProvenance::Recomputed(reason)),
            });
        } else {
            let mut report = prior_by_name
                .remove(name)
                .expect("clean router must have a usable prior report");
            report.delta = Some(DeltaProvenance::Reused);
            reused += 1;
            reports.push(report);
        }
    }

    let wall = started.elapsed();
    netexpl_obs::counter_add("explain_delta.reused", reused as u64);
    netexpl_obs::counter_add("explain_delta.recomputed", recomputed as u64);
    netexpl_obs::counter_add("explain_delta.crossings_reused", patch_stats.reused);
    span.attr("reused", reused);
    span.attr("recomputed", recomputed);
    span.attr("wall_ms", wall.as_secs_f64() * 1e3);

    let dirty = dirty_ids
        .iter()
        .map(|id| (topo.name(*id).to_string(), plan.dirty[id].clone()))
        .collect();

    Ok(DeltaReport {
        explanation: NetworkExplanation {
            routers: reports,
            workers,
            wall: fan_wall,
            cache_size: patched.len(),
            cache_hits: hits,
            cache_misses: misses,
            cancelled: options.fail_fast && any_failed,
        },
        cache: patched,
        diff: plan.diff,
        dirty,
        reused,
        recomputed,
        patch: patch_stats,
        session_hits: 0,
        session_misses: 0,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain_all;
    use netexpl_bgp::{Action, MatchClause, RouteMap, RouteMapEntry};
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

    fn full_run(
        topo: &Topology,
        net: &NetworkConfig,
        spec: &Specification,
    ) -> (Ctx, Vocabulary, VocabSorts, NetworkExplanation, EncodeCache) {
        let vocab = Vocabulary::new(topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let cache =
            EncodeCache::build(&mut ctx, topo, &vocab, sorts, net, EncodeOptions::default())
                .unwrap();
        let prior = crate::explain_all_cached(
            &ctx,
            topo,
            &vocab,
            sorts,
            net,
            spec,
            &Selector::Router,
            ExplainAllOptions {
                workers: 2,
                ..Default::default()
            },
            &cache,
        )
        .unwrap();
        (ctx, vocab, sorts, prior, cache)
    }

    fn delta_run(
        topo: &Topology,
        old: &NetworkConfig,
        new: &NetworkConfig,
        spec: &Specification,
    ) -> DeltaReport {
        let (mut ctx, vocab, sorts, prior, cache) = full_run(topo, old, spec);
        explain_delta(
            &mut ctx,
            topo,
            &vocab,
            sorts,
            old,
            new,
            spec,
            &Selector::Router,
            ExplainAllOptions {
                workers: 2,
                ..Default::default()
            },
            prior,
            &cache,
        )
        .unwrap()
    }

    #[test]
    fn no_change_reuses_everything() {
        let (topo, _h, net, spec) = scenario1();
        let report = delta_run(&topo, &net, &net.clone(), &spec);
        assert!(report.diff.is_empty());
        assert_eq!(report.recomputed, 0);
        assert_eq!(report.reused, 6);
        assert!(report.patch.recomputed == 0, "identical config replays all");
        for r in &report.explanation.routers {
            assert_eq!(r.delta, Some(DeltaProvenance::Reused), "{}", r.router);
        }
    }

    #[test]
    fn cosmetic_edit_dirties_only_the_owner() {
        let (topo, h, net, spec) = scenario1();
        let mut edited = net.clone();
        // Rename + renumber: exact changes, semantics provably identical.
        edited.router_mut(h.r1).set_export(
            h.p1,
            RouteMap::new(
                "R1_out_v2",
                vec![RouteMapEntry {
                    seq: 500,
                    action: Action::Deny,
                    matches: vec![],
                    sets: vec![],
                }],
            ),
        );
        let report = delta_run(&topo, &net, &edited, &spec);
        assert_eq!(
            report.dirty,
            vec![("R1".to_string(), DirtyReason::LocalEdit)]
        );
        assert_eq!(report.recomputed, 1);
        assert_eq!(report.reused, 5);
        let r2 = report
            .explanation
            .routers
            .iter()
            .find(|r| r.router == "R2")
            .unwrap();
        assert_eq!(r2.delta, Some(DeltaProvenance::Reused));
    }

    #[test]
    fn semantic_edit_dirties_the_neighborhood_but_not_skipped_routers() {
        let (topo, h, net, spec) = scenario1();
        let mut edited = net.clone();
        // Permit the denied prefix first: behaviour changes.
        let d1: Prefix = "200.7.0.0/16".parse().unwrap();
        edited.router_mut(h.r1).set_export(
            h.p1,
            RouteMap::new(
                "R1_to_P1",
                vec![
                    RouteMapEntry {
                        seq: 50,
                        action: Action::Permit,
                        matches: vec![MatchClause::PrefixList(vec![d1])],
                        sets: vec![],
                    },
                    RouteMapEntry {
                        seq: 100,
                        action: Action::Deny,
                        matches: vec![],
                        sets: vec![],
                    },
                ],
            ),
        );
        let report = delta_run(&topo, &net, &edited, &spec);
        let dirty: BTreeMap<_, _> = report.dirty.iter().cloned().collect();
        assert_eq!(dirty.get("R1"), Some(&DirtyReason::LocalEdit));
        assert_eq!(
            dirty.get("R2"),
            Some(&DirtyReason::Neighborhood {
                via: "R1".to_string()
            })
        );
        // Skipped routers stay skipped — nothing of theirs is symbolized.
        for name in ["R3", "P1", "P2", "Customer"] {
            assert!(!dirty.contains_key(name), "{name} must stay clean");
            let rep = report
                .explanation
                .routers
                .iter()
                .find(|r| r.router == name)
                .unwrap();
            assert_eq!(rep.delta, Some(DeltaProvenance::Reused), "{name}");
            assert!(matches!(rep.outcome, RouterOutcome::Skipped), "{name}");
        }
        assert!(report.patch.reused > 0, "unchanged crossings must replay");
    }

    #[test]
    fn delta_matches_from_scratch_on_the_new_config() {
        let (topo, h, net, spec) = scenario1();
        let mut edited = net.clone();
        let d1: Prefix = "200.7.0.0/16".parse().unwrap();
        edited.router_mut(h.r1).set_export(
            h.p1,
            RouteMap::new(
                "R1_to_P1",
                vec![
                    RouteMapEntry {
                        seq: 50,
                        action: Action::Permit,
                        matches: vec![MatchClause::PrefixList(vec![d1])],
                        sets: vec![],
                    },
                    RouteMapEntry {
                        seq: 100,
                        action: Action::Deny,
                        matches: vec![],
                        sets: vec![],
                    },
                ],
            ),
        );
        let report = delta_run(&topo, &net, &edited, &spec);

        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let scratch = explain_all(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &edited,
            &spec,
            &Selector::Router,
            ExplainAllOptions {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();

        assert_eq!(report.explanation.routers.len(), scratch.routers.len());
        for (d, s) in report.explanation.routers.iter().zip(&scratch.routers) {
            assert_eq!(d.router, s.router);
            assert_eq!(d.outcome.status(), s.outcome.status(), "{}", d.router);
            if let (Some(de), Some(se)) = (d.outcome.explanation(), s.outcome.explanation()) {
                assert_eq!(
                    de.subspec.to_string(),
                    se.subspec.to_string(),
                    "{}",
                    d.router
                );
                assert_eq!(de.lift_complete, se.lift_complete, "{}", d.router);
                assert_eq!(de.verdicts.simplify, se.verdicts.simplify, "{}", d.router);
                assert_eq!(de.verdicts.lift, se.verdicts.lift, "{}", d.router);
            }
        }
    }

    #[test]
    fn origination_change_dirties_everyone() {
        let (topo, h, net, spec) = scenario1();
        let mut edited = net.clone();
        edited.originate(h.customer, "202.0.0.0/16".parse().unwrap());
        let plan = plan_delta(&topo, &net, &edited, None, EncodeOptions::default());
        assert!(plan.diff.originations_changed);
        assert_eq!(plan.dirty.len(), 6);
        // prior=None also forces a full plan even without edits.
        let plan2 = plan_delta(&topo, &net, &net.clone(), None, EncodeOptions::default());
        assert!(plan2
            .dirty
            .values()
            .all(|r| *r == DirtyReason::PriorUnusable));
        let _ = spec;
    }

    #[test]
    fn crossings_cover_the_paper_topology_paths() {
        let (topo, h, net, _spec) = scenario1();
        let cross = enumerate_crossings(&topo, &net, EncodeOptions::default());
        // Both export sessions carrying the denied routes are on paths.
        assert!(cross.contains(&(h.r1, h.p1)));
        assert!(cross.contains(&(h.r2, h.p2)));
        // No crossing ever starts at a non-origin external mid-path: every
        // (u, v) with u external must have u as an origin.
        let origins: BTreeSet<RouterId> = net.originations().iter().map(|o| o.router).collect();
        for (u, _v) in &cross {
            if topo.router(*u).kind == RouterKind::External {
                assert!(origins.contains(u), "external {u:?} transits");
            }
        }
    }
}
