//! Regression gate for `BENCH_explain.json` reports: diff the timing keys
//! of a new report against an old baseline and flag every section whose
//! wall time grew beyond a percentage threshold. `netexpl bench --compare`
//! runs this and exits non-zero (NX701) on any regression, which lets CI
//! commit a baseline report and fail pull requests that slow a section
//! down.
//!
//! Only wall-clock keys are compared — counters (query counts, cache
//! hits) are workload properties checked by the report's own validation,
//! not performance signals. The compared key set is fixed so that a
//! baseline produced by an older binary with extra sections still
//! compares cleanly; keys missing on either side are skipped and
//! reported, never treated as regressions.

use serde_json::Value;

/// One compared timing key.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Dotted path of the key, e.g. `scenarios.scenario2.stage_ms.lift`.
    pub key: String,
    /// Baseline wall time in milliseconds.
    pub old_ms: f64,
    /// New wall time in milliseconds.
    pub new_ms: f64,
    /// Relative change in percent (positive = slower).
    pub change_pct: f64,
    /// Whether the change exceeds the threshold.
    pub regressed: bool,
}

/// The outcome of comparing two reports.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Every key compared, in report order.
    pub deltas: Vec<Delta>,
    /// Keys present in only one of the two reports (skipped).
    pub skipped: Vec<String>,
}

impl Comparison {
    /// The deltas that exceeded the threshold.
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }
}

/// The fixed top-level timing keys compared between reports.
const NETWORK_KEYS: &[&str] = &["sequential_ms", "parallel_ms"];
const LIFT_KEYS: &[&str] = &["fresh_ms", "incremental_ms"];
const LINT_KEYS: &[&str] = &["wall_ms"];
const STAGE_KEYS: &[&str] = &["explain", "lift"];
const SERVE_KEYS: &[&str] = &["cold_ms", "warm_ms"];
const EXPLAIN_DELTA_KEYS: &[&str] = &["full_ms", "delta_ms"];

fn lookup(root: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = root;
    for seg in path {
        cur = cur.get(seg)?;
    }
    cur.as_f64()
}

/// Find the scenario object with the given name in a report's
/// `scenarios` array.
fn scenario<'v>(root: &'v Value, name: &str) -> Option<&'v Value> {
    root.get("scenarios")?
        .as_array()?
        .iter()
        .find(|s| s.get("scenario").and_then(Value::as_str) == Some(name))
}

/// Compare two `BENCH_explain.json` documents. A key regresses when
/// `new > old * (1 + threshold_pct / 100)`; tiny absolute times (under
/// one millisecond on both sides) never regress, since they are noise at
/// the resolution the report records.
pub fn compare_reports(old: &Value, new: &Value, threshold_pct: f64) -> Comparison {
    let mut out = Comparison::default();
    let mut push = |key: String, old_ms: Option<f64>, new_ms: Option<f64>| match (old_ms, new_ms) {
        (Some(o), Some(n)) => {
            let change_pct = if o > 0.0 { (n - o) / o * 100.0 } else { 0.0 };
            let noise = o < 1.0 && n < 1.0;
            out.deltas.push(Delta {
                key,
                old_ms: o,
                new_ms: n,
                change_pct,
                regressed: !noise && n > o * (1.0 + threshold_pct / 100.0),
            });
        }
        _ => out.skipped.push(key),
    };

    // Per-scenario stage timings, matched by scenario name so reordered
    // reports still pair up.
    let names: Vec<String> = new
        .get("scenarios")
        .and_then(Value::as_array)
        .map(|runs| {
            runs.iter()
                .filter_map(|r| r.get("scenario").and_then(Value::as_str))
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default();
    for name in &names {
        for stage in STAGE_KEYS {
            push(
                format!("scenarios.{name}.stage_ms.{stage}"),
                scenario(old, name).and_then(|s| lookup(s, &["stage_ms", stage])),
                scenario(new, name).and_then(|s| lookup(s, &["stage_ms", stage])),
            );
        }
    }
    for key in NETWORK_KEYS {
        push(
            format!("network.{key}"),
            lookup(old, &["network", key]),
            lookup(new, &["network", key]),
        );
    }
    for key in LIFT_KEYS {
        push(
            format!("lift.{key}"),
            lookup(old, &["lift", key]),
            lookup(new, &["lift", key]),
        );
    }
    for key in LINT_KEYS {
        push(
            format!("lint_network.{key}"),
            lookup(old, &["lint_network", key]),
            lookup(new, &["lint_network", key]),
        );
    }
    for key in SERVE_KEYS {
        push(
            format!("serve.{key}"),
            lookup(old, &["serve", key]),
            lookup(new, &["serve", key]),
        );
    }
    for key in EXPLAIN_DELTA_KEYS {
        push(
            format!("explain_delta.{key}"),
            lookup(old, &["explain_delta", key]),
            lookup(new, &["explain_delta", key]),
        );
    }
    out
}

/// Render the comparison as the table `netexpl bench --compare` prints.
pub fn render(cmp: &Comparison, threshold_pct: f64) -> String {
    let mut s = String::new();
    s.push_str(&format!("bench comparison (threshold +{threshold_pct}%)\n"));
    let width = cmp.deltas.iter().map(|d| d.key.len()).max().unwrap_or(3);
    for d in &cmp.deltas {
        let mark = if d.regressed { "REGRESSED" } else { "ok" };
        s.push_str(&format!(
            "  {:width$}  {:>9.2}ms -> {:>9.2}ms  {:>+7.1}%  {mark}\n",
            d.key,
            d.old_ms,
            d.new_ms,
            d.change_pct,
            width = width
        ));
    }
    for key in &cmp.skipped {
        s.push_str(&format!("  {key}: missing on one side, skipped\n"));
    }
    let regressed = cmp.regressions().len();
    if regressed > 0 {
        s.push_str(&format!(
            "{regressed} section(s) regressed beyond +{threshold_pct}%\n"
        ));
    } else {
        s.push_str("no regressions\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(lift_ms: f64, seq_ms: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{
              "scenarios": [
                {{"scenario": "scenario1",
                  "stage_ms": {{"explain": 10.0, "lift": {lift_ms}}}}}
              ],
              "network": {{"sequential_ms": {seq_ms}, "parallel_ms": 40.0}},
              "lift": {{"fresh_ms": 30.0, "incremental_ms": 12.0}},
              "lint_network": {{"wall_ms": 20.0}},
              "serve": {{"cold_ms": 100.0, "warm_ms": 15.0}},
              "explain_delta": {{"full_ms": 60.0, "delta_ms": 14.0}}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        let r = report(8.0, 50.0);
        let cmp = compare_reports(&r, &r, 25.0);
        assert!(cmp.regressions().is_empty(), "{cmp:?}");
        assert_eq!(cmp.deltas.len(), 11);
        assert!(cmp.skipped.is_empty());
    }

    #[test]
    fn growth_beyond_threshold_is_flagged() {
        let old = report(8.0, 50.0);
        let new = report(8.0 * 1.6, 50.0);
        let cmp = compare_reports(&old, &new, 25.0);
        let regs = cmp.regressions();
        assert_eq!(regs.len(), 1, "{cmp:?}");
        assert_eq!(regs[0].key, "scenarios.scenario1.stage_ms.lift");
        assert!(regs[0].change_pct > 59.0 && regs[0].change_pct < 61.0);
        assert!(render(&cmp, 25.0).contains("REGRESSED"));
    }

    #[test]
    fn growth_within_threshold_passes() {
        let old = report(8.0, 50.0);
        let new = report(8.0 * 1.2, 50.0 * 1.1);
        let cmp = compare_reports(&old, &new, 25.0);
        assert!(cmp.regressions().is_empty(), "{cmp:?}");
        assert!(render(&cmp, 25.0).contains("no regressions"));
    }

    #[test]
    fn sub_millisecond_noise_never_regresses() {
        let old = report(0.05, 50.0);
        let new = report(0.4, 50.0);
        let cmp = compare_reports(&old, &new, 25.0);
        assert!(cmp.regressions().is_empty(), "{cmp:?}");
    }

    #[test]
    fn missing_sections_are_skipped_not_regressed() {
        let old: Value = serde_json::from_str(r#"{"network": {"sequential_ms": 50.0}}"#).unwrap();
        let new = report(8.0, 49.0);
        let cmp = compare_reports(&old, &new, 25.0);
        assert!(cmp.regressions().is_empty(), "{cmp:?}");
        assert!(cmp.skipped.iter().any(|k| k == "lift.fresh_ms"), "{cmp:?}");
        // The one shared key still compares.
        assert!(cmp.deltas.iter().any(|d| d.key == "network.sequential_ms"));
    }
}
