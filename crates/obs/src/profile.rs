//! Span-tree profiling: turn a captured session ([`MemoryData`]) into an
//! attribution report — where did the wall-clock go?
//!
//! The model: closed spans form a forest (`parent` links), each node
//! carrying inclusive wall time. *Self* time is a node's wall minus its
//! children's, i.e. time spent in the stage itself rather than delegated.
//! The *critical path* is the chain from the heaviest root down through
//! each node's heaviest child — the sequence of stages that bounds the
//! run end-to-end, and therefore the only place an optimization can
//! shorten total wall. On top of the tree the report derives the numbers
//! the ROADMAP's Amdahl argument needs: the dominant router (heaviest
//! `explain` span), its dominant stage, and the resulting upper bound on
//! router-level parallel speedup.

use std::collections::BTreeMap;
use std::fmt;

use crate::sink::MemoryData;
use crate::span::{AttrValue, SpanRecord};

/// One step of the critical path, annotated with the attribute that
/// identifies it (router for `explain`, template for `lift.candidate`,
/// origin for `session.query`).
#[derive(Debug, Clone)]
pub struct PathStep {
    /// Span name.
    pub name: String,
    /// Identifying detail from the span's attributes, possibly empty.
    pub detail: String,
    /// Inclusive wall time.
    pub wall_ms: f64,
    /// Share of the report's total wall, in percent.
    pub pct_of_total: f64,
}

/// Aggregate row for one span name.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Span name.
    pub name: String,
    /// Number of occurrences.
    pub count: u64,
    /// Summed inclusive wall time.
    pub total_ms: f64,
    /// Summed self time (inclusive minus children).
    pub self_ms: f64,
    /// Share of total wall, in percent (inclusive; nested names overlap).
    pub pct_of_total: f64,
}

/// One hot SAT query (a `session.query` span).
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// Wall time of the query.
    pub wall_ms: f64,
    /// Attributed origin (lift template or lint diagnostic), or `-`.
    pub origin: String,
    /// Query outcome (`sat`/`unsat`/`unknown`).
    pub outcome: String,
    /// Number of assumption literals, when recorded.
    pub assumptions: u64,
}

/// One enumerated lift candidate (a `lift.candidate` span).
#[derive(Debug, Clone)]
pub struct CandidateRow {
    /// Wall time spent checking the candidate.
    pub wall_ms: f64,
    /// The candidate subspec template.
    pub template: String,
    /// Template family (`forbidden`/`preference`/`reachable`).
    pub kind: String,
    /// What happened (`kept`/`trivial`/`unnecessary`/`filtered`/
    /// `model-filtered`/...).
    pub outcome: String,
}

/// Latency quantiles for one histogram.
#[derive(Debug, Clone)]
pub struct QuantileRow {
    /// Histogram name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Median, in ms.
    pub p50: f64,
    /// 95th percentile, in ms.
    pub p95: f64,
    /// 99th percentile, in ms.
    pub p99: f64,
}

/// The full attribution report. Render with `{}` ([`fmt::Display`]).
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Total wall: the sum of root-span inclusive times.
    pub total_wall_ms: f64,
    /// Number of captured spans.
    pub span_count: usize,
    /// Number of captured solver samples.
    pub sample_count: usize,
    /// Heaviest-child chain from the heaviest root.
    pub critical_path: Vec<PathStep>,
    /// Heaviest `explain` span: (router, wall ms, % of total).
    pub dominant_router: Option<(String, f64, f64)>,
    /// Heaviest stage under the dominant router: (stage, wall ms, % of router).
    pub dominant_stage: Option<(String, f64, f64)>,
    /// Upper bound on router-parallel speedup (sum of explain walls over
    /// the heaviest), when more than one router was explained.
    pub parallel_bound: Option<f64>,
    /// Per-name aggregates, heaviest first.
    pub stages: Vec<StageRow>,
    /// Top-k SAT queries by wall.
    pub hot_queries: Vec<QueryRow>,
    /// Top-k lift candidates by wall.
    pub hot_candidates: Vec<CandidateRow>,
    /// Every `lift.candidate` span counted by outcome, most frequent
    /// first — how many candidates were kept, rejected by a query, or
    /// decided by a cached witness (`model-filtered`).
    pub candidate_outcomes: Vec<(String, usize)>,
    /// Encode-cache traffic (`cache.hit` / `cache.miss` counters).
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// p50/p95/p99 for the key per-span latency histograms.
    pub quantiles: Vec<QuantileRow>,
}

fn attr_string(rec: &SpanRecord, key: &str) -> Option<String> {
    rec.attr(key).map(|v| match v {
        AttrValue::Str(s) => s.clone(),
        other => other.to_string(),
    })
}

fn attr_u64(rec: &SpanRecord, key: &str) -> Option<u64> {
    match rec.attr(key) {
        Some(AttrValue::UInt(v)) => Some(*v),
        Some(AttrValue::Int(v)) => Some(*v as u64),
        _ => None,
    }
}

/// The attribute that best identifies a span in the critical path.
fn detail_of(rec: &SpanRecord) -> String {
    for key in ["router", "template", "origin", "scenario"] {
        if let Some(v) = attr_string(rec, key) {
            return format!("{key}={v}");
        }
    }
    String::new()
}

/// Analyze a captured session. `top_k` bounds the hot-query and
/// hot-candidate lists.
pub fn analyze(data: &MemoryData, top_k: usize) -> ProfileReport {
    let spans = &data.spans;
    let mut by_id: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in spans {
        by_id.insert(s.id, s);
    }
    for s in spans {
        match s.parent {
            Some(p) if by_id.contains_key(&p) => children.entry(p).or_default().push(s),
            _ => roots.push(s),
        }
    }

    let total_wall_ms: f64 = roots.iter().map(|r| r.wall_ms()).sum();
    let pct = |ms: f64| {
        if total_wall_ms > 0.0 {
            100.0 * ms / total_wall_ms
        } else {
            0.0
        }
    };

    // Critical path: heaviest root, then repeatedly the heaviest child.
    let mut critical_path = Vec::new();
    let mut cursor = roots
        .iter()
        .copied()
        .max_by(|a, b| a.wall_us.cmp(&b.wall_us).then(b.id.cmp(&a.id)));
    while let Some(rec) = cursor {
        critical_path.push(PathStep {
            name: rec.name.to_string(),
            detail: detail_of(rec),
            wall_ms: rec.wall_ms(),
            pct_of_total: pct(rec.wall_ms()),
        });
        cursor = children
            .get(&rec.id)
            .and_then(|kids| {
                kids.iter()
                    .max_by(|a, b| a.wall_us.cmp(&b.wall_us).then(b.id.cmp(&a.id)))
            })
            .copied();
    }

    // Dominant router: the heaviest `explain` span carrying a router attr.
    let explains: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "explain" && s.attr("router").is_some())
        .collect();
    let heaviest = explains.iter().max_by_key(|s| s.wall_us).copied();
    let dominant_router = heaviest.map(|s| {
        (
            attr_string(s, "router").unwrap(),
            s.wall_ms(),
            pct(s.wall_ms()),
        )
    });
    let dominant_stage = heaviest.and_then(|router_span| {
        children
            .get(&router_span.id)
            .and_then(|kids| kids.iter().max_by_key(|s| s.wall_us))
            .map(|stage| {
                let share = if router_span.wall_us > 0 {
                    100.0 * stage.wall_ms() / router_span.wall_ms()
                } else {
                    0.0
                };
                (stage.name.to_string(), stage.wall_ms(), share)
            })
    });
    let parallel_bound = heaviest.and_then(|h| {
        let sum: f64 = explains.iter().map(|s| s.wall_ms()).sum();
        (explains.len() > 1 && h.wall_us > 0).then(|| sum / h.wall_ms())
    });

    // Per-name aggregates with self time.
    let mut agg: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let child_ms: f64 = children
            .get(&s.id)
            .map(|kids| kids.iter().map(|k| k.wall_ms()).sum())
            .unwrap_or(0.0);
        let row = agg.entry(s.name).or_insert((0, 0.0, 0.0));
        row.0 += 1;
        row.1 += s.wall_ms();
        row.2 += (s.wall_ms() - child_ms).max(0.0);
    }
    let mut stages: Vec<StageRow> = agg
        .into_iter()
        .map(|(name, (count, total_ms, self_ms))| StageRow {
            name: name.to_string(),
            count,
            total_ms,
            self_ms,
            pct_of_total: pct(total_ms),
        })
        .collect();
    stages.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms).then(a.name.cmp(&b.name)));

    // Hot SAT queries, attributed to their origin.
    let mut queries: Vec<&SpanRecord> =
        spans.iter().filter(|s| s.name == "session.query").collect();
    queries.sort_by(|a, b| b.wall_us.cmp(&a.wall_us).then(a.id.cmp(&b.id)));
    let hot_queries: Vec<QueryRow> = queries
        .iter()
        .take(top_k)
        .map(|s| QueryRow {
            wall_ms: s.wall_ms(),
            origin: attr_string(s, "origin").unwrap_or_else(|| "-".to_string()),
            outcome: match s.attr("sat") {
                Some(AttrValue::Bool(true)) => "sat".to_string(),
                Some(AttrValue::Bool(false)) => "unsat".to_string(),
                Some(other) => other.to_string(),
                None => attr_string(s, "result").unwrap_or_else(|| "?".to_string()),
            },
            assumptions: attr_u64(s, "assumptions").unwrap_or(0),
        })
        .collect();

    // Hot lift candidates.
    let mut candidates: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "lift.candidate")
        .collect();
    let mut outcome_counts: BTreeMap<String, usize> = BTreeMap::new();
    for s in &candidates {
        let outcome = attr_string(s, "outcome").unwrap_or_else(|| "?".to_string());
        *outcome_counts.entry(outcome).or_default() += 1;
    }
    let mut candidate_outcomes: Vec<(String, usize)> = outcome_counts.into_iter().collect();
    candidate_outcomes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    candidates.sort_by(|a, b| b.wall_us.cmp(&a.wall_us).then(a.id.cmp(&b.id)));
    let hot_candidates: Vec<CandidateRow> = candidates
        .iter()
        .take(top_k)
        .map(|s| CandidateRow {
            wall_ms: s.wall_ms(),
            template: attr_string(s, "template").unwrap_or_else(|| "?".to_string()),
            kind: attr_string(s, "kind").unwrap_or_else(|| "?".to_string()),
            outcome: attr_string(s, "outcome").unwrap_or_else(|| "?".to_string()),
        })
        .collect();

    let (mut cache_hits, mut cache_misses) = (0, 0);
    let mut quantiles = Vec::new();
    if let Some(metrics) = &data.metrics {
        cache_hits = metrics.counter("cache.hit");
        cache_misses = metrics.counter("cache.miss");
        for name in [
            "span.explain.ms",
            "span.lift.ms",
            "span.lift.candidate.ms",
            "span.lift.simplify_defs.ms",
            "span.session.assert.ms",
            "span.session.query.ms",
            "span.simplify.ms",
            "span.seed.ms",
            "span.symbolize.ms",
        ] {
            if let Some(h) = metrics.histogram(name) {
                quantiles.push(QuantileRow {
                    name: name.to_string(),
                    count: h.count,
                    p50: h.quantile(0.50),
                    p95: h.quantile(0.95),
                    p99: h.quantile(0.99),
                });
            }
        }
    }

    ProfileReport {
        total_wall_ms,
        span_count: spans.len(),
        sample_count: data.samples.len(),
        critical_path,
        dominant_router,
        dominant_stage,
        parallel_bound,
        stages,
        hot_queries,
        hot_candidates,
        candidate_outcomes,
        cache_hits,
        cache_misses,
        quantiles,
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "netexpl profile — attribution report")?;
        writeln!(f, "====================================")?;
        writeln!(
            f,
            "total wall: {:.1} ms ({} spans, {} solver samples)",
            self.total_wall_ms, self.span_count, self.sample_count
        )?;
        writeln!(f)?;

        if !self.critical_path.is_empty() {
            writeln!(f, "critical path:")?;
            for (i, step) in self.critical_path.iter().enumerate() {
                let detail = if step.detail.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", step.detail)
                };
                writeln!(
                    f,
                    "  {:indent$}{} {:>9.2} ms  {:>5.1}%{}",
                    "",
                    step.name,
                    step.wall_ms,
                    step.pct_of_total,
                    detail,
                    indent = i * 2
                )?;
            }
            writeln!(f)?;
        }

        if let Some((router, ms, pct)) = &self.dominant_router {
            writeln!(
                f,
                "dominant router: {router} ({ms:.1} ms, {pct:.0}% of total wall)"
            )?;
            if let Some((stage, sms, spct)) = &self.dominant_stage {
                writeln!(
                    f,
                    "dominant stage:  {stage} ({sms:.1} ms, {spct:.0}% of {router})"
                )?;
                writeln!(
                    f,
                    "Amdahl: {router}: {pct:.0}% of wall; serial {stage}: {spct:.0}% of {router}."
                )?;
            }
            if let Some(bound) = self.parallel_bound {
                writeln!(
                    f,
                    "  router-level parallelism is bounded at {bound:.2}x until \
                     {router}'s serial pipeline is broken up"
                )?;
            }
            writeln!(f)?;
        }

        if !self.stages.is_empty() {
            writeln!(f, "stage totals (inclusive; nested stages overlap):")?;
            writeln!(
                f,
                "  {:<24} {:>6} {:>10} {:>10} {:>7}",
                "stage", "count", "total ms", "self ms", "% wall"
            )?;
            for row in self.stages.iter().take(12) {
                writeln!(
                    f,
                    "  {:<24} {:>6} {:>10.2} {:>10.2} {:>7.1}",
                    row.name, row.count, row.total_ms, row.self_ms, row.pct_of_total
                )?;
            }
            writeln!(f)?;
        }

        if !self.hot_queries.is_empty() {
            writeln!(f, "top {} hot SAT queries:", self.hot_queries.len())?;
            writeln!(
                f,
                "  {:>9} {:>7} {:>6}  origin",
                "wall ms", "result", "assum"
            )?;
            for q in &self.hot_queries {
                writeln!(
                    f,
                    "  {:>9.3} {:>7} {:>6}  {}",
                    q.wall_ms, q.outcome, q.assumptions, q.origin
                )?;
            }
            writeln!(f)?;
        }

        if !self.candidate_outcomes.is_empty() {
            let total: usize = self.candidate_outcomes.iter().map(|(_, n)| n).sum();
            let parts: Vec<String> = self
                .candidate_outcomes
                .iter()
                .map(|(outcome, n)| format!("{outcome} {n}"))
                .collect();
            writeln!(f, "lift candidates: {total} ({})", parts.join(", "))?;
        }
        if !self.hot_candidates.is_empty() {
            writeln!(f, "top {} lift candidates:", self.hot_candidates.len())?;
            writeln!(
                f,
                "  {:>9} {:<11} {:<12} template",
                "wall ms", "kind", "outcome"
            )?;
            for c in &self.hot_candidates {
                writeln!(
                    f,
                    "  {:>9.3} {:<11} {:<12} {}",
                    c.wall_ms, c.kind, c.outcome, c.template
                )?;
            }
            writeln!(f)?;
        }

        if self.cache_hits + self.cache_misses > 0 {
            let rate =
                100.0 * self.cache_hits as f64 / (self.cache_hits + self.cache_misses) as f64;
            writeln!(
                f,
                "encode cache: {} hits / {} misses ({rate:.0}% hit rate)",
                self.cache_hits, self.cache_misses
            )?;
            writeln!(f)?;
        }

        if !self.quantiles.is_empty() {
            writeln!(f, "latency quantiles (ms):")?;
            writeln!(
                f,
                "  {:<28} {:>6} {:>8} {:>8} {:>8}",
                "histogram", "n", "p50", "p95", "p99"
            )?;
            for q in &self.quantiles {
                writeln!(
                    f,
                    "  {:<28} {:>6} {:>8.3} {:>8.3} {:>8.3}",
                    q.name, q.count, q.p50, q.p95, q.p99
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn rec(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        wall_us: u64,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            depth: 0,
            track: 0,
            start_us: id,
            wall_us,
            attrs,
        }
    }

    fn sample_session() -> MemoryData {
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add("cache.hit", 3);
        metrics.counter_add("cache.miss", 1);
        metrics.observe("span.session.query.ms", 0.5);
        MemoryData {
            spans: vec![
                rec(1, None, "explain_all", 100_000, vec![]),
                rec(
                    2,
                    Some(1),
                    "explain",
                    80_000,
                    vec![("router", AttrValue::Str("R3".into()))],
                ),
                rec(3, Some(2), "lift", 70_000, vec![]),
                rec(
                    4,
                    Some(3),
                    "lift.candidate",
                    30_000,
                    vec![
                        ("template", AttrValue::Str("!(R3 -> P1)".into())),
                        ("kind", AttrValue::Str("forbidden".into())),
                        ("outcome", AttrValue::Str("kept".into())),
                    ],
                ),
                rec(
                    5,
                    Some(4),
                    "session.query",
                    20_000,
                    vec![
                        ("origin", AttrValue::Str("lift:!(R3 -> P1)".into())),
                        ("sat", AttrValue::Bool(false)),
                        ("assumptions", AttrValue::UInt(3)),
                    ],
                ),
                rec(
                    6,
                    Some(1),
                    "explain",
                    10_000,
                    vec![("router", AttrValue::Str("R1".into()))],
                ),
            ],
            samples: vec![],
            notes: vec![],
            metrics: Some(metrics),
        }
    }

    #[test]
    fn critical_path_follows_heaviest_child() {
        let report = analyze(&sample_session(), 5);
        let names: Vec<&str> = report
            .critical_path
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "explain_all",
                "explain",
                "lift",
                "lift.candidate",
                "session.query"
            ]
        );
        assert!((report.total_wall_ms - 100.0).abs() < 1e-9);
        assert!((report.critical_path[1].pct_of_total - 80.0).abs() < 1e-9);
    }

    #[test]
    fn dominant_router_and_stage_are_identified() {
        let report = analyze(&sample_session(), 5);
        let (router, ms, pct) = report.dominant_router.clone().unwrap();
        assert_eq!(router, "R3");
        assert!((ms - 80.0).abs() < 1e-9);
        assert!((pct - 80.0).abs() < 1e-9);
        let (stage, _, share) = report.dominant_stage.clone().unwrap();
        assert_eq!(stage, "lift");
        assert!((share - 87.5).abs() < 1e-9);
        // Two routers: bound = (80+10)/80.
        assert!((report.parallel_bound.unwrap() - 1.125).abs() < 1e-9);
    }

    #[test]
    fn hot_queries_carry_origin_attribution() {
        let report = analyze(&sample_session(), 5);
        assert_eq!(report.hot_queries.len(), 1);
        let q = &report.hot_queries[0];
        assert_eq!(q.origin, "lift:!(R3 -> P1)");
        assert_eq!(q.outcome, "unsat");
        assert_eq!(q.assumptions, 3);
        assert_eq!(report.hot_candidates[0].template, "!(R3 -> P1)");
    }

    #[test]
    fn self_time_subtracts_children() {
        let report = analyze(&sample_session(), 5);
        let all = report
            .stages
            .iter()
            .find(|s| s.name == "explain_all")
            .unwrap();
        // 100ms inclusive, 80+10 in children -> 10ms self.
        assert!((all.self_ms - 10.0).abs() < 1e-9);
        let explain = report.stages.iter().find(|s| s.name == "explain").unwrap();
        assert_eq!(explain.count, 2);
        assert!((explain.total_ms - 90.0).abs() < 1e-9);
    }

    #[test]
    fn report_renders_key_sections() {
        let text = analyze(&sample_session(), 5).to_string();
        assert!(text.contains("critical path:"));
        assert!(text.contains("dominant router: R3"));
        assert!(text.contains("dominant stage:  lift"));
        assert!(text.contains("Amdahl: R3: 80% of wall; serial lift: 88% of R3."));
        assert!(text.contains("encode cache: 3 hits / 1 misses"));
        assert!(text.contains("lift candidates: 1 (kept 1)"), "{text}");
        assert!(text.contains("span.session.query.ms"));
    }
}
