//! Integration tests for the `netexpl` CLI, driving the binary end-to-end
//! through temp spec files.

use std::path::PathBuf;
use std::process::Command;

fn netexpl() -> Command {
    // Cargo builds the package's binary before its integration tests.
    Command::new(env!("CARGO_BIN_EXE_netexpl"))
}

fn spec_file(name: &str, contents: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("netexpl-test-{}-{name}.txt", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

const SPEC: &str = "\
// @originate P1 200.7.0.0/16
// @originate P2 201.0.0.0/16
// @originate Customer 123.0.1.0/20
dest D1 = 200.7.0.0/16
dest D2 = 201.0.0.0/16
Req1 {
  !(P1 -> ... -> P2)
  !(P2 -> ... -> P1)
}
Connectivity {
  Customer ~> D1
  Customer ~> D2
}
";

/// network-diff's ring spec with its reachability block: the `ring-b.txt`
/// variant `scripts/ci.sh` writes for its serve memory smoke and CNF-size
/// gate.
const RING_SPEC: &str = "\
// @originate Pa 200.7.0.0/16
// @originate Pb 201.0.0.0/16
dest D1 = 200.7.0.0/16
dest D2 = 201.0.0.0/16
Req1 {
  !(Pa -> ... -> Pb)
  !(Pb -> ... -> Pa)
}
Req2 {
  R0 ~> D2
}
";

/// `synth` prints exactly the pinned configurations. A change that moves a
/// synthesized configuration re-pins the file under `tests/expected/` and
/// says why the new configuration is valid.
#[test]
fn synth_output_matches_pinned_configurations() {
    for (topology, contents, expected) in [
        ("paper", SPEC, include_str!("expected/synth-paper.txt")),
        (
            "ring:6",
            RING_SPEC,
            include_str!("expected/synth-ring6.txt"),
        ),
    ] {
        let spec = spec_file(&format!("golden-{}", topology.replace(':', "-")), contents);
        let out = netexpl()
            .args([
                "synth",
                "--topology",
                topology,
                "--spec",
                spec.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{topology}");
    }
}

#[test]
fn synth_prints_config() {
    let spec = spec_file("synth", SPEC);
    let out = netexpl()
        .args([
            "synth",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("route-map"), "{stdout}");
    assert!(stdout.contains("router R1"), "{stdout}");
}

#[test]
fn synth_json_is_valid() {
    let spec = spec_file("synthjson", SPEC);
    let out = netexpl()
        .args([
            "synth",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    assert!(v["holes"].as_u64().unwrap() > 0);
    assert!(v["config"].as_str().unwrap().contains("route-map"));
}

#[test]
fn explain_reports_subspec() {
    let spec = spec_file("explain", SPEC);
    let out = netexpl()
        .args([
            "explain",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
            "--router",
            "R3",
            "--neighbor",
            "Customer",
            "--dir",
            "export",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("subspecification"), "{stdout}");
    assert!(stdout.contains("Customer ~> D1"), "{stdout}");
}

#[test]
fn simulate_shows_stable_state_and_spec_result() {
    let spec = spec_file("simulate", SPEC);
    let out = netexpl()
        .args([
            "simulate",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
            "--fail",
            "R3-R1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stable routing state"), "{stdout}");
    assert!(stdout.contains("1 failed links"), "{stdout}");
}

#[test]
fn errors_are_reported() {
    let out = netexpl()
        .args(["synth", "--topology", "bogus", "--spec", "/nonexistent"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown topology"), "{stderr}");

    let out2 = netexpl().args(["nonsense"]).output().unwrap();
    assert!(!out2.status.success());

    let out3 = netexpl().output().unwrap();
    assert!(!out3.status.success());
}

#[test]
fn spec_without_originate_rejected() {
    let spec = spec_file("noorig", "dest D1 = 200.7.0.0/16\nReq { Customer ~> D1 }");
    let out = netexpl()
        .args([
            "synth",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("@originate"), "{stderr}");
}

#[test]
fn lint_clean_spec_exits_zero() {
    let spec = spec_file("lintok", SPEC);
    let out = netexpl()
        .args([
            "lint",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no findings"), "{stdout}");
}

#[test]
fn lint_broken_spec_exits_nonzero_with_codes() {
    let spec = spec_file(
        "lintbad",
        "// @originate P1 200.7.0.0/16\n\
         dest D1 = 200.7.0.0/16\n\
         Req1 { !(Q9 -> ... -> P2) }\n",
    );
    let out = netexpl()
        .args([
            "lint",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "broken spec must fail lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("NE001"), "{stdout}");

    // The same run in JSON: machine-readable findings with the code.
    let out = netexpl()
        .args([
            "lint",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    assert!(v["errors"].as_u64().unwrap() >= 1, "{v}");
    assert_eq!(v["findings"][0]["code"].as_str().unwrap(), "NE001", "{v}");
}

#[test]
fn explain_trace_json_emits_one_span_per_pipeline_stage() {
    // Golden check on the Fig. 2 scenario shape: `--trace=json` streams
    // JSON-lines events to stderr (stdout stays pure command output), with
    // exactly one span per pipeline stage.
    let spec = spec_file("tracejson", SPEC);
    let mut metrics = std::env::temp_dir();
    metrics.push(format!("netexpl-test-{}-metrics.json", std::process::id()));
    let out = netexpl()
        .args([
            "explain",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
            "--router",
            "R1",
            "--neighbor",
            "P1",
            "--dir",
            "export",
            "--trace=json",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stdout is still one clean JSON document.
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    assert!(report["rule_firings"].as_u64().unwrap() > 0, "{report}");
    assert!(
        matches!(report["rules_fired"], serde_json::Value::Object(_)),
        "{report}"
    );

    // stderr is JSON-lines; count the spans per stage.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut names: Vec<String> = Vec::new();
    let mut synthesis_queries = 0;
    for line in stderr.lines().filter(|l| !l.trim().is_empty()) {
        let v: serde_json::Value = serde_json::from_str(line).unwrap_or_else(|e| {
            panic!("bad trace line `{line}`: {e}");
        });
        if v["type"].as_str() == Some("span") {
            let name = v["name"].as_str().unwrap();
            if name == "session.query" && v["attrs"]["origin"].as_str() == Some("synthesize") {
                synthesis_queries += 1;
            }
            names.push(name.to_string());
        }
    }
    for stage in ["symbolize", "seed", "simplify", "lift", "explain"] {
        assert_eq!(
            names.iter().filter(|n| n.as_str() == stage).count(),
            1,
            "expected exactly one `{stage}` span in {names:?}"
        );
    }
    // The synthesis solve is one session query, attributed to synthesis.
    assert_eq!(synthesis_queries, 1, "{stderr}");

    // The metrics file parses and round-trips through `obs-check`.
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let m: serde_json::Value = serde_json::from_str(&metrics_text).expect("valid metrics json");
    assert!(
        m["counters"]["session.queries"].as_u64().unwrap() > 0,
        "{metrics_text}"
    );

    let mut trace = std::env::temp_dir();
    trace.push(format!("netexpl-test-{}-trace.jsonl", std::process::id()));
    std::fs::write(&trace, stderr.as_bytes()).unwrap();
    let check = netexpl()
        .args([
            "obs-check",
            "--trace-file",
            trace.to_str().unwrap(),
            "--metrics-file",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(String::from_utf8_lossy(&check.stdout).contains("ok:"));
}

#[test]
fn explain_all_json_golden() {
    // Golden shape of the `--all --json` aggregate: every router of the
    // paper topology reported with a status, explained routers carrying
    // the full per-explanation fields (`partial`, `verdicts`, …), and the
    // serializer's stable (lexicographic) key order.
    let spec = spec_file("explainall", SPEC);
    let out = netexpl()
        .args([
            "explain",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
            "--all",
            "--workers",
            "2",
            "--skip-lift",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");

    for key in ["workers", "wall_ms", "cache_crossings", "cache_hits"] {
        assert!(
            v[key].as_f64().is_some() || v[key].as_u64().is_some(),
            "{key}: {stdout}"
        );
    }
    assert_eq!(v["cancelled"].as_bool(), Some(false), "{stdout}");
    assert!(v["partial"].as_bool().is_some(), "{stdout}");
    assert!(v["cache_hits"].as_u64().unwrap() > 0, "{stdout}");

    let routers = v["routers"].as_array().expect("routers array");
    assert_eq!(routers.len(), 6, "{stdout}");
    let mut explained = 0;
    for r in routers {
        let name = r["router"].as_str().expect("router name");
        match r["status"].as_str().expect("status") {
            "explained" => {
                explained += 1;
                assert!(r["partial"].as_bool().is_some(), "{name}: {r}");
                assert!(r["verdicts"]["simplify"].as_str().is_some(), "{name}: {r}");
                assert!(r["verdicts"]["lift"].as_str().is_some(), "{name}: {r}");
                assert!(r["subspecification"].as_str().is_some(), "{name}: {r}");
            }
            "skipped" => {}
            other => panic!("unexpected status `{other}` for {name}: {r}"),
        }
        assert!(r["duration_ms"].as_f64().is_some(), "{name}: {r}");
    }
    assert!(explained >= 2, "R1/R2 carry synthesized maps: {stdout}");

    // Key order is the serializer's lexicographic one — stable across
    // runs, so downstream diffing tools can rely on it.
    let positions: Vec<usize> = [
        "\"cache_crossings\"",
        "\"cache_hits\"",
        "\"cancelled\"",
        "\"partial\"",
        "\"routers\"",
        "\"topology\"",
    ]
    .iter()
    .map(|k| {
        stdout
            .find(k)
            .unwrap_or_else(|| panic!("{k} missing: {stdout}"))
    })
    .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "top-level keys out of order: {positions:?}\n{stdout}"
    );
}

#[test]
fn explain_rejects_zero_coverage_selector() {
    let spec = spec_file("lintsel", SPEC);
    let out = netexpl()
        .args([
            "explain",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
            "--router",
            "R3",
            "--neighbor",
            "Customer",
            "--dir",
            "export",
            "--entry",
            "99",
        ])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "zero-coverage selector must be rejected"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("NE012"), "{stderr}");
    assert!(stderr.contains("selectable sessions"), "{stderr}");
}

#[test]
fn lint_network_json_runs_the_dataflow_checks() {
    let spec = spec_file("lintnet", SPEC);
    let out = netexpl()
        .args([
            "lint",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
            "--network",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    assert_eq!(v["errors"].as_u64().unwrap(), 0, "{v}");
    // The network pass ran: no NE013+ error-severity finding on the
    // paper scenario, and whatever it notes carries a span.
    for f in v["findings"].as_array().unwrap() {
        assert!(f["place"].as_str().is_some(), "{f}");
    }
}

#[test]
fn lint_deny_warnings_controls_the_exit_code() {
    // `!(P1 -> Customer)`: the routers exist but are not adjacent, so the
    // pattern is unrealizable — a warning (NE005), not an error.
    let warn_spec = "\
// @originate P1 200.7.0.0/16
dest D1 = 200.7.0.0/16
Req1 { !(P1 -> Customer) }
";
    let spec = spec_file("lintwarn", warn_spec);
    let base = [
        "lint",
        "--topology",
        "paper",
        "--spec",
        spec.to_str().unwrap(),
    ];

    // Warnings alone exit zero...
    let out = netexpl().args(base).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("NE005"), "{stdout}");

    // ...and --deny-warnings promotes them to a failing exit.
    let out = netexpl()
        .args(base)
        .args(["--deny-warnings", "--json"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--deny-warnings must fail the run");
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    assert!(v["errors"].as_u64().unwrap() >= 1, "{v}");
}

#[test]
fn lint_inline_suppressions_silence_findings() {
    let suppressed = "\
// @originate P1 200.7.0.0/16
// netexpl-allow(NE005) netexpl-allow(NE011)
dest D1 = 200.7.0.0/16
Req1 { !(P1 -> Customer) }
";
    let spec = spec_file("lintallow", suppressed);
    let out = netexpl()
        .args([
            "lint",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
            "--deny-warnings",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "suppressed warning must not fail --deny-warnings: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    let codes: Vec<&str> = v["findings"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|f| f["code"].as_str())
        .collect();
    assert!(!codes.contains(&"NE005"), "{v}");

    // A stale allow surfaces as an NE020 note (and stays exit-zero).
    let stale = "\
// @originate P1 200.7.0.0/16
// netexpl-allow(NE013)
dest D1 = 200.7.0.0/16
Req1 { !(P1 -> ... -> P2) }
";
    let spec = spec_file("lintstale", stale);
    let out = netexpl()
        .args([
            "lint",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    let codes: Vec<&str> = v["findings"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|f| f["code"].as_str())
        .collect();
    assert!(codes.contains(&"NE020"), "{v}");
}

#[test]
fn profile_reports_attribution_and_writes_chrome_trace() {
    let spec = spec_file("profile", SPEC);
    let mut trace = std::env::temp_dir();
    trace.push(format!(
        "netexpl-test-{}-profile-trace.json",
        std::process::id()
    ));
    let out = netexpl()
        .args([
            "profile",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
            "--all",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The golden sections of the attribution report, in order.
    for needle in [
        "netexpl profile — attribution report",
        "critical path:",
        "dominant router: R",
        "dominant stage:",
        "Amdahl:",
        "stage totals",
        "hot SAT queries",
        "latency quantiles",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}`:\n{stdout}");
    }
    // Hot queries carry their originating lift template.
    assert!(stdout.contains("lift:"), "{stdout}");

    // The side-channel trace is a valid Chrome trace_event document with
    // balanced begin/end events.
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid trace JSON");
    let events = doc["traceEvents"].as_array().unwrap();
    let begins = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("B"))
        .count();
    let ends = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("E"))
        .count();
    assert!(begins > 0, "{text}");
    assert_eq!(begins, ends, "unbalanced trace events");
    std::fs::remove_file(&trace).ok();
}

#[test]
fn profile_requires_exactly_one_workload() {
    let spec = spec_file("profilemode", SPEC);
    let out = netexpl()
        .args([
            "profile",
            "--topology",
            "paper",
            "--spec",
            spec.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("NX001"), "{stderr}");
    assert!(stderr.contains("--router"), "{stderr}");
}

/// `NETEXPL_FAULT` accepts only live injection sites: a typo, or a site
/// the pipeline no longer has (`lift.shard`), is a usage error rather
/// than a fault that silently never fires.
#[test]
fn unknown_fault_sites_are_rejected() {
    let spec = spec_file("faultsite", SPEC);
    for site in ["no.such.site", "lift.shard", "smt.check"] {
        let out = netexpl()
            .env("NETEXPL_FAULT", site)
            .args([
                "synth",
                "--topology",
                "paper",
                "--spec",
                spec.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{site}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error[NX001]"), "{site}: {stderr}");
        assert!(stderr.contains(site), "{site}: {stderr}");
    }
}

#[test]
fn serve_and_request_end_to_end() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let spec = spec_file("serve-e2e", SPEC);
    let mut server = netexpl()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--queue",
            "4",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(server.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .trim()
        .to_string();

    let request = |extra: &[&str]| {
        let mut args = vec!["request", "--addr", addr.as_str()];
        args.extend_from_slice(extra);
        netexpl().args(&args).output().unwrap()
    };

    // Liveness.
    let out = request(&["--op", "ping"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Cold explain, then warm: the client prints the response JSON.
    let explain = [
        "--op",
        "explain",
        "--topology",
        "paper",
        "--spec",
        spec.to_str().unwrap(),
        "--skip-lift",
    ];
    let out = request(&explain);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"warm\": false"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let out = request(&explain);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"warm\": true"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // One armed crash: that request exits with the server's NX804, the
    // next one succeeds again.
    let out = request(&[
        "--op",
        "arm-fault",
        "--site",
        "serve.worker",
        "--shots",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = request(&explain);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("NX804"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = request(&explain);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Drain: the server finishes `run` and exits 0.
    let out = request(&["--op", "shutdown"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let status = server.wait().unwrap();
    assert!(status.success(), "server exit: {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(rest.contains("drained"), "{rest}");
    std::fs::remove_file(&spec).ok();
}
