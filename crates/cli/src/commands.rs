//! The CLI subcommands.

use netexpl_core::symbolize::{Dir, Selector};
use netexpl_core::{
    explain, explain_all, explain_all_cached, explain_delta, synthesize_problem, DeltaProvenance,
    Error, ExplainAllOptions, ExplainOptions, Explanation, RouterOutcome, RouterReport,
};
use netexpl_lint::{
    lint_config, lint_network, lint_selector, lint_spec, Diagnostics, Suppressions,
};
use netexpl_logic::budget::Budget;
use netexpl_logic::term::Ctx;
use netexpl_obs::{ChromeTraceSink, FileMetricsSink, HumanSink, JsonLinesSink, ObsGuard, Sink};
use netexpl_spec::check_specification;
use netexpl_synth::synthesize::{SynthResult, SynthStats};
use netexpl_topology::{Link, Topology};
use serde_json::Value;

use crate::input::{load_config, load_problem, topology, Accepts, Options, Problem};

/// Classify an argument-handling failure (NX001).
fn usage(m: String) -> Error {
    Error::Usage(m)
}

/// Build a [`Budget`] from the shared `--timeout <secs>` and
/// `--max-conflicts <n>` options. An absent option leaves that dimension
/// unlimited.
fn parse_budget(opts: &Options) -> Result<Budget, Error> {
    let mut budget = Budget::unlimited();
    if let Some(t) = opts.get("timeout") {
        let secs: f64 = t
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s >= 0.0)
            .ok_or_else(|| usage(format!("--timeout takes non-negative seconds, not `{t}`")))?;
        budget = budget.deadline_in(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(c) = opts.get("max-conflicts") {
        let n: u64 = c
            .parse()
            .map_err(|_| usage(format!("--max-conflicts takes a count, not `{c}`")))?;
        budget = budget.max_conflicts(n);
    }
    Ok(budget)
}

/// Install an observability session from the shared
/// `--trace[=human|json|chrome]` and `--metrics-out <path>` options, if
/// either was given. `--trace=chrome` buffers the whole session and
/// writes a Chrome `trace_event` JSON document to `--trace-out` (open it
/// in `chrome://tracing` or Perfetto). The returned guard must stay
/// alive for the rest of the command: dropping it flushes the sinks and
/// deactivates collection.
fn obs_setup(opts: &Options) -> Result<Option<ObsGuard>, Error> {
    let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
    match opts.get("trace") {
        Some("human") => sinks.push(Box::new(HumanSink::stderr())),
        Some("json") => sinks.push(Box::new(JsonLinesSink::stderr())),
        Some("chrome") => {
            let path = opts
                .get("trace-out")
                .ok_or_else(|| usage("--trace=chrome needs --trace-out <FILE>".to_string()))?;
            sinks.push(Box::new(ChromeTraceSink::to_file(path)));
        }
        Some(other) => {
            return Err(usage(format!(
                "--trace must be human, json or chrome, not `{other}`"
            )))
        }
        // Bare `--trace` defaults to the human-readable tree.
        None if opts.flag("trace") => sinks.push(Box::new(HumanSink::stderr())),
        None => {}
    }
    if let Some(path) = opts.get("metrics-out") {
        sinks.push(Box::new(FileMetricsSink::new(path)));
    }
    if sinks.is_empty() {
        return Ok(None);
    }
    netexpl_obs::install(sinks)
        .map(Some)
        .map_err(|e| usage(e.to_string()))
}

/// Parse the shared `--workers <n>` option; 0/absent means auto
/// (available parallelism, capped at the router count).
fn parse_workers(opts: &Options) -> Result<usize, Error> {
    match opts.get("workers") {
        None => Ok(0),
        Some(w) => w
            .parse()
            .map_err(|_| usage(format!("--workers takes a count, not `{w}`"))),
    }
}

struct SynthReport {
    topology: String,
    holes: usize,
    constraints: usize,
    constraint_nodes: usize,
    candidate_paths: usize,
    config: String,
}

/// Everything the synthesizing subcommands share: the resolved topology,
/// the loaded problem, a logic context with the vocabulary's sorts
/// declared, and the synthesized configuration.
struct Prepared {
    topo_name: String,
    topo: Topology,
    problem: Problem,
    ctx: Ctx,
    sorts: netexpl_synth::vocab::VocabSorts,
    result: SynthResult,
}

/// Shared front half of `synth`, `explain`, `assumptions`, `simulate` and
/// `profile`: resolve `--topology`, load `--spec`, and synthesize the
/// configuration under `budget` — or, with `--config <FILE>`, load the
/// given rendered configuration instead.
fn prepare(opts: &Options, budget: Budget) -> Result<Prepared, Error> {
    let topo_name = opts.require("topology").map_err(usage)?.to_string();
    let topo = topology(&topo_name)?;
    let problem = load_problem(&topo, opts.require("spec").map_err(usage)?)?;
    let mut ctx = Ctx::new();
    let sorts = problem.vocab.sorts(&mut ctx);
    let result = match opts.get("config") {
        Some(path) => SynthResult {
            config: load_config(&topo, &problem, path)?,
            stats: SynthStats::default(),
        },
        None => synthesize_problem(&topo, &problem, &mut ctx, sorts, budget)?,
    };
    Ok(Prepared {
        topo_name,
        topo,
        problem,
        ctx,
        sorts,
        result,
    })
}

/// Render a diagnostics collection as a JSON value (array of findings
/// plus summary counts).
fn diagnostics_json(diags: &Diagnostics) -> Value {
    let findings: Vec<Value> = diags
        .iter()
        .map(|d| {
            Value::object([
                ("code", Value::from(d.code.id())),
                ("severity", Value::from(d.severity.to_string().as_str())),
                ("message", Value::from(d.message.as_str())),
                ("place", Value::from(d.span.place.as_str())),
                ("line", d.span.line.map_or(Value::Null, Value::from)),
                (
                    "snippet",
                    d.span.snippet.as_deref().map_or(Value::Null, Value::from),
                ),
                (
                    "suggestion",
                    d.suggestion.as_deref().map_or(Value::Null, Value::from),
                ),
            ])
        })
        .collect();
    let (errors, warnings, notes) = diags.counts();
    Value::object([
        ("findings", Value::from(findings)),
        ("errors", Value::from(errors)),
        ("warnings", Value::from(warnings)),
        ("notes", Value::from(notes)),
    ])
}

/// What `netexpl lint` reads.
pub const LINT: Accepts = Accepts {
    keys: &["topology", "spec", "trace", "trace-out", "metrics-out"],
    flags: &["json", "no-sat", "trace", "network", "deny-warnings"],
};

/// `netexpl lint` — run every static-analysis pass over a specification
/// and the configuration synthesized from it.
///
/// Exit-code contract: non-zero iff any error-severity finding survives
/// suppression; warnings and notes exit zero unless `--deny-warnings`
/// promotes warnings to errors. `--network` additionally runs the
/// abstract-interpretation dataflow checks (NE013–NE019).
pub fn lint(opts: &Options) -> Result<(), Error> {
    let _obs = obs_setup(opts)?;
    let topo = topology(opts.require("topology").map_err(usage)?)?;
    let spec_path = opts.require("spec").map_err(usage)?;
    let problem = load_problem(&topo, spec_path)?;
    // Inline `netexpl-allow(NExxx)` comments in the spec source suppress
    // matching findings (and unused allows are themselves reported).
    let suppressions = std::fs::read_to_string(spec_path)
        .map(|text| Suppressions::parse(&text))
        .unwrap_or_default();

    // Spec passes first: the base config supplies the `@originate` facts.
    let mut diags = lint_spec(&topo, &problem.spec, Some(&problem.base));

    // Config passes run over the synthesized output — unless the spec is
    // already broken, in which case synthesis would only fail noisily.
    let mut synth_error = None;
    if !diags.has_errors() {
        let mut ctx = Ctx::new();
        let sorts = problem.vocab.sorts(&mut ctx);
        match synthesize_problem(&topo, &problem, &mut ctx, sorts, Budget::unlimited()) {
            Ok(result) => {
                let vocab = (!opts.flag("no-sat")).then_some(&problem.vocab);
                if opts.flag("network") {
                    diags.extend(lint_network(&topo, &problem.spec, &result.config, vocab, 0));
                } else {
                    diags.extend(lint_config(&topo, &result.config, vocab));
                }
            }
            Err(e) => synth_error = Some(e),
        }
    }
    let mut diags = suppressions.apply(diags);
    if opts.flag("deny-warnings") {
        diags.escalate_warnings();
    }
    diags.sort();

    if opts.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&diagnostics_json(&diags))
        );
    } else {
        print!("{diags}");
    }
    if let Some(e) = synth_error {
        eprintln!("note: synthesis failed, config passes skipped");
        return Err(e);
    }
    if diags.has_errors() {
        let (errors, _, _) = diags.counts();
        return Err(Error::Lint { errors });
    }
    Ok(())
}

/// What `netexpl synth` reads.
pub const SYNTH: Accepts = Accepts {
    keys: &[
        "topology",
        "spec",
        "config",
        "timeout",
        "max-conflicts",
        "trace",
        "trace-out",
        "metrics-out",
    ],
    flags: &["json", "trace"],
};

/// `netexpl synth` — synthesize a configuration and print it.
pub fn synth(opts: &Options) -> Result<(), Error> {
    let _obs = obs_setup(opts)?;
    let budget = parse_budget(opts)?;
    // An exhausted budget surfaces as NX501 — synthesis has no partial
    // artifact worth printing, unlike `explain`.
    let p = prepare(opts, budget)?;

    // Post-synthesis self-check: the synthesizer should never emit dead
    // or self-contradictory lines; surface them as warnings if it does.
    // Routed through the diagnostic sink so it can never interleave with
    // `--json` output on stdout.
    let self_check = lint_config(&p.topo, &p.result.config, Some(&p.problem.vocab));
    if !self_check.is_empty() {
        netexpl_obs::note(&format!(
            "self-check: the synthesized configuration has findings\n{self_check}"
        ));
    }
    let report = SynthReport {
        topology: p.topo_name.clone(),
        holes: p.result.stats.num_holes,
        constraints: p.result.stats.num_constraints,
        constraint_nodes: p.result.stats.constraint_size,
        candidate_paths: p.result.stats.num_paths,
        config: p.result.config.render(&p.topo),
    };
    if opts.flag("json") {
        let json = Value::object([
            ("topology", Value::from(report.topology.as_str())),
            ("holes", Value::from(report.holes)),
            ("constraints", Value::from(report.constraints)),
            ("constraint_nodes", Value::from(report.constraint_nodes)),
            ("candidate_paths", Value::from(report.candidate_paths)),
            ("config", Value::from(report.config.as_str())),
        ]);
        println!("{}", serde_json::to_string_pretty(&json));
    } else {
        println!(
            "synthesized with {} holes, {} constraints ({} nodes), {} candidate paths\n",
            report.holes, report.constraints, report.constraint_nodes, report.candidate_paths
        );
        print!("{}", report.config);
    }
    Ok(())
}

/// Build the selector from `--neighbor`, `--dir`, and `--entry`; absent
/// options widen the selection up to the whole router.
fn parse_selector(opts: &Options, topo: &Topology) -> Result<Selector, Error> {
    let Some(nname) = opts.get("neighbor") else {
        return Ok(Selector::Router);
    };
    let neighbor = topo
        .router_by_name(nname)
        .ok_or_else(|| Error::Topology(format!("unknown neighbor `{nname}`")))?;
    let dir = match opts.get("dir").unwrap_or("export") {
        "import" => Dir::Import,
        "export" => Dir::Export,
        other => {
            return Err(usage(format!(
                "--dir must be import or export, not `{other}`"
            )))
        }
    };
    Ok(match opts.get("entry") {
        None => Selector::Session { neighbor, dir },
        Some(e) => Selector::Entry {
            neighbor,
            dir,
            entry: e
                .parse()
                .map_err(|_| usage(format!("bad entry index `{e}`")))?,
        },
    })
}

/// The per-explanation JSON fields, in their stable order. Shared between
/// `explain` and `explain --all`; the caller prepends its own identity
/// keys (`router`, and for `--all` also `status`/`duration_ms`).
fn explanation_fields(e: &Explanation) -> Vec<(&'static str, Value)> {
    vec![
        ("symbolized", Value::from(e.symbolized.clone())),
        ("seed_conjuncts", Value::from(e.seed_conjuncts)),
        ("seed_nodes", Value::from(e.seed_size)),
        ("simplified_conjuncts", Value::from(e.simplified_conjuncts)),
        ("simplified_nodes", Value::from(e.simplified_size)),
        ("rule_firings", Value::from(e.rule_stats.total())),
        (
            "rules_fired",
            Value::object(
                e.rule_stats
                    .per_rule()
                    .filter(|&(_, n)| n > 0)
                    .map(|(name, n)| (name, Value::from(n))),
            ),
        ),
        (
            "simplified_constraints",
            Value::from(e.simplified_text.clone()),
        ),
        ("subspecification", Value::from(e.subspec.to_string())),
        ("exact", Value::from(e.lift_complete)),
        // Degradation report: a budget-interrupted run still exits 0
        // with `partial: true` and per-stage verdicts.
        ("partial", Value::from(!e.verdicts.all_verified())),
        (
            "verdicts",
            Value::object([
                ("simplify", Value::from(e.verdicts.simplify.as_str())),
                ("lift", Value::from(e.verdicts.lift.as_str())),
            ]),
        ),
        (
            "interrupts",
            Value::from(
                e.verdicts
                    .interrupts
                    .iter()
                    .map(|i| {
                        Value::object([
                            ("reason", Value::from(i.reason.as_str())),
                            ("at", Value::from(i.at)),
                            ("conflicts", Value::from(i.conflicts)),
                            ("decisions", Value::from(i.decisions)),
                        ])
                    })
                    .collect::<Vec<Value>>(),
            ),
        ),
    ]
}

/// One router's slot in the `explain --all --json` aggregate.
fn router_report_json(r: &RouterReport) -> Value {
    let mut fields: Vec<(&'static str, Value)> = vec![
        ("router", Value::from(r.router.as_str())),
        ("status", Value::from(r.outcome.status())),
        ("duration_ms", Value::from(r.duration.as_secs_f64() * 1e3)),
    ];
    match &r.outcome {
        RouterOutcome::Explained(e) => fields.extend(explanation_fields(e)),
        RouterOutcome::Failed(err) => fields.push(("error", Value::from(err.to_string()))),
        RouterOutcome::Skipped => {}
    }
    Value::object(fields)
}

/// What `netexpl explain` reads.
pub const EXPLAIN: Accepts = Accepts {
    keys: &[
        "topology",
        "spec",
        "config",
        "router",
        "neighbor",
        "dir",
        "entry",
        "workers",
        "timeout",
        "max-conflicts",
        "trace",
        "trace-out",
        "metrics-out",
    ],
    flags: &["json", "skip-lift", "trace", "all", "fail-fast"],
};

/// `netexpl explain` — synthesize (or load) the configuration, then run the
/// explanation pipeline for one router, or with `--all` for every router
/// in parallel.
pub fn explain_cmd(opts: &Options) -> Result<(), Error> {
    let _obs = obs_setup(opts)?;
    let budget = parse_budget(opts)?;
    // The budget governs the *explanation* pipeline. Synthesis here only
    // reconstructs the configuration being explained, so it runs
    // unbudgeted — a partial explanation of a complete config is useful; a
    // partial config is not.
    let mut p = prepare(opts, Budget::unlimited())?;
    let selector = parse_selector(opts, &p.topo)?;
    let explain_opts = ExplainOptions {
        skip_lift: opts.flag("skip-lift"),
        budget,
        ..Default::default()
    };

    if opts.flag("all") {
        if opts.get("router").is_some() {
            return Err(usage(
                "--all explains every router; drop --router (or drop --all)".to_string(),
            ));
        }
        return explain_all_cmd(opts, &mut p, &selector, explain_opts);
    }

    let router_name = opts.require("router").map_err(usage)?;
    let router = p
        .topo
        .router_by_name(router_name)
        .ok_or_else(|| Error::Topology(format!("unknown router `{router_name}`")))?;

    // Pre-flight: a selector that covers zero configuration lines would
    // symbolize nothing and "explain" an empty report. Reject it with a
    // diagnostic that lists what is selectable instead.
    let preflight = lint_selector(&p.topo, &p.result.config, router, &selector);
    if preflight.has_errors() {
        return Err(usage(format!(
            "selector covers no configuration lines\n{preflight}"
        )));
    }

    let explanation = explain(
        &mut p.ctx,
        &p.topo,
        &p.problem.vocab,
        p.sorts,
        &p.result.config,
        &p.problem.spec,
        router,
        &selector,
        explain_opts,
    )
    .map_err(Error::Explain)?;

    if opts.flag("json") {
        let json = Value::object(
            std::iter::once(("router", Value::from(explanation.router.as_str())))
                .chain(explanation_fields(&explanation)),
        );
        println!("{}", serde_json::to_string_pretty(&json));
    } else {
        println!("{explanation}");
    }
    Ok(())
}

/// The `--all` arm of [`explain_cmd`]: fan out one pipeline per router
/// over `--workers` threads, sharing one encoding of the concrete
/// substrate, and print the aggregate (text or `--json`).
fn explain_all_cmd(
    opts: &Options,
    p: &mut Prepared,
    selector: &Selector,
    explain_opts: ExplainOptions,
) -> Result<(), Error> {
    let workers = parse_workers(opts)?;
    let all = explain_all(
        &mut p.ctx,
        &p.topo,
        &p.problem.vocab,
        p.sorts,
        &p.result.config,
        &p.problem.spec,
        selector,
        ExplainAllOptions {
            explain: explain_opts,
            workers,
            fail_fast: opts.flag("fail-fast"),
        },
    )
    .map_err(Error::Explain)?;

    if opts.flag("json") {
        let routers: Vec<Value> = all.routers.iter().map(router_report_json).collect();
        let json = Value::object([
            ("topology", Value::from(p.topo_name.as_str())),
            ("workers", Value::from(all.workers)),
            ("wall_ms", Value::from(all.wall.as_secs_f64() * 1e3)),
            ("cache_crossings", Value::from(all.cache_size)),
            ("cache_hits", Value::from(all.cache_hits)),
            ("cache_misses", Value::from(all.cache_misses)),
            ("cancelled", Value::from(all.cancelled)),
            ("partial", Value::from(all.partial())),
            ("routers", Value::from(routers)),
        ]);
        println!("{}", serde_json::to_string_pretty(&json));
    } else {
        print!("{all}");
    }
    // A cancelled run (--fail-fast after a hard failure) is an error exit
    // classified by the failure that triggered it; budget degradation
    // alone is not.
    if all.cancelled {
        let first_failure = all.routers.into_iter().find_map(|r| match r.outcome {
            RouterOutcome::Failed(e) => Some(e),
            _ => None,
        });
        if let Some(e) = first_failure {
            return Err(Error::Explain(e));
        }
    }
    Ok(())
}

/// What `netexpl assumptions` reads.
pub const ASSUMPTIONS: Accepts = Accepts {
    keys: &["topology", "spec", "config", "router"],
    flags: &[],
};

/// `netexpl assumptions` — synthesize, then compute the environment
/// assumptions for one router (the paper's §5 extension).
pub fn assumptions(opts: &Options) -> Result<(), Error> {
    let mut p = prepare(opts, Budget::unlimited())?;
    let router_name = opts.require("router").map_err(usage)?;
    let router = p
        .topo
        .router_by_name(router_name)
        .ok_or_else(|| Error::Topology(format!("unknown router `{router_name}`")))?;
    let env = netexpl_core::environment_assumptions(
        &mut p.ctx,
        &p.topo,
        &p.problem.vocab,
        p.sorts,
        &p.result.config,
        &p.problem.spec,
        router,
        ExplainOptions::default(),
    )
    .map_err(Error::Explain)?;
    println!("{env}");
    Ok(())
}

/// What `netexpl simulate` reads.
pub const SIMULATE: Accepts = Accepts {
    keys: &["topology", "spec", "config", "fail"],
    flags: &["json"],
};

/// `netexpl simulate` — synthesize and show the stable routing state.
pub fn simulate(opts: &Options) -> Result<(), Error> {
    let p = prepare(opts, Budget::unlimited())?;
    let topo = p.topo;
    let problem = p.problem;
    let result = p.result;

    let mut failed: Vec<Link> = Vec::new();
    for f in opts.all("fail") {
        let (a, b) = f
            .split_once('-')
            .ok_or_else(|| usage(format!("--fail takes A-B, not `{f}`")))?;
        let a = topo
            .router_by_name(a)
            .ok_or_else(|| Error::Topology(format!("unknown router `{a}`")))?;
        let b = topo
            .router_by_name(b)
            .ok_or_else(|| Error::Topology(format!("unknown router `{b}`")))?;
        failed.push(Link::new(a, b));
    }

    let state = netexpl_bgp::sim::stabilize_with_failures(&topo, &result.config, &failed)
        .map_err(Error::Sim)?;
    println!(
        "stable routing state{}:",
        if failed.is_empty() {
            String::new()
        } else {
            format!(" ({} failed links)", failed.len())
        }
    );
    for (prefix, router, route) in state.selections() {
        println!(
            "  {:<18} @ {:<10} via {:<10} lp={:<4} path: {}",
            prefix.to_string(),
            topo.name(router),
            topo.name(route.next_hop),
            route.local_pref,
            route.display_propagation(&topo),
        );
    }
    let violations = check_specification(&topo, &result.config, &problem.spec);
    if violations.is_empty() {
        println!("\nspecification: satisfied");
    } else {
        println!("\nspecification: {} violation(s)", violations.len());
        for v in &violations {
            println!("  {v:?}");
        }
    }
    Ok(())
}

/// What `netexpl scenario` reads: its positional argument only.
pub const SCENARIO: Accepts = Accepts {
    keys: &[],
    flags: &[],
};

/// `netexpl scenario <1|2|3>` — run the paper's motivating scenarios.
pub fn scenario(opts: &Options) -> Result<(), Error> {
    let which = opts.positional().first().map(String::as_str).unwrap_or("1");
    let example = match which {
        "1" => "scenario1_underspecified",
        "2" => "scenario2_ambiguous",
        "3" => "scenario3_complexity",
        other => return Err(usage(format!("unknown scenario `{other}` (1, 2 or 3)"))),
    };
    Err(usage(format!(
        "the scenarios ship as runnable examples — use `cargo run --example {example}`"
    )))
}

/// What `netexpl profile` reads.
pub const PROFILE: Accepts = Accepts {
    keys: &[
        "topology",
        "spec",
        "config",
        "router",
        "neighbor",
        "dir",
        "entry",
        "workers",
        "top",
        "trace-out",
        "timeout",
        "max-conflicts",
    ],
    flags: &["all", "lint", "skip-lift", "fail-fast"],
};

/// `netexpl profile` — run a workload (`--router <R>` single explain,
/// `--all` network-wide explain, or `--lint` the network lint) under
/// full in-memory instrumentation and print the attribution report:
/// critical path over the span tree, dominant router/stage, hot SAT
/// queries attributed to their originating lift template or lint
/// diagnostic, cache hit/miss counts, and latency quantiles. With
/// `--trace-out <FILE>` the captured session is also written as Chrome
/// `trace_event` JSON.
pub fn profile(opts: &Options) -> Result<(), Error> {
    let budget = parse_budget(opts)?;
    let top = match opts.get("top") {
        None => 5,
        Some(t) => t
            .parse()
            .map_err(|_| usage(format!("--top takes a count, not `{t}`")))?,
    };
    let modes = [
        opts.flag("all"),
        opts.flag("lint"),
        opts.get("router").is_some(),
    ];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err(usage(
            "profile needs exactly one workload: --router <NAME>, --all, or --lint".to_string(),
        ));
    }

    // Everything from here to the guard drop records into the memory
    // session — synthesis included, so the report shows its share too.
    let (guard, handle) = netexpl_obs::install_memory();
    let mut p = prepare(opts, Budget::unlimited())?;
    let explain_opts = ExplainOptions {
        skip_lift: opts.flag("skip-lift"),
        budget,
        ..Default::default()
    };
    if opts.flag("lint") {
        let diags = lint_network(
            &p.topo,
            &p.problem.spec,
            &p.result.config,
            Some(&p.problem.vocab),
            0,
        );
        let (errors, warnings, notes) = diags.counts();
        netexpl_obs::note(&format!(
            "lint: {errors} error(s), {warnings} warning(s), {notes} note(s)"
        ));
    } else if opts.flag("all") {
        let selector = parse_selector(opts, &p.topo)?;
        explain_all(
            &mut p.ctx,
            &p.topo,
            &p.problem.vocab,
            p.sorts,
            &p.result.config,
            &p.problem.spec,
            &selector,
            ExplainAllOptions {
                explain: explain_opts,
                workers: parse_workers(opts)?,
                fail_fast: opts.flag("fail-fast"),
            },
        )
        .map_err(Error::Explain)?;
    } else {
        let router_name = opts.require("router").map_err(usage)?;
        let router = p
            .topo
            .router_by_name(router_name)
            .ok_or_else(|| Error::Topology(format!("unknown router `{router_name}`")))?;
        let selector = parse_selector(opts, &p.topo)?;
        explain(
            &mut p.ctx,
            &p.topo,
            &p.problem.vocab,
            p.sorts,
            &p.result.config,
            &p.problem.spec,
            router,
            &selector,
            explain_opts,
        )
        .map_err(Error::Explain)?;
    }
    // Dropping the guard flushes the metrics registry into the handle.
    drop(guard);
    let data = handle.data();

    if let Some(path) = opts.get("trace-out") {
        let json = netexpl_obs::chrome::trace_json(&data.spans, &data.samples);
        std::fs::write(path, json).map_err(|e| Error::Io {
            path: path.to_string(),
            source: e,
        })?;
        eprintln!("wrote {path}");
    }
    print!("{}", netexpl_obs::profile::analyze(&data, top));
    Ok(())
}

/// What `netexpl diff` reads, besides its two configuration files.
pub const DIFF: Accepts = Accepts {
    keys: &[
        "topology",
        "spec",
        "workers",
        "timeout",
        "max-conflicts",
        "trace",
        "trace-out",
        "metrics-out",
    ],
    flags: &["json", "skip-lift", "trace", "fail-fast"],
};

/// `netexpl diff` — incremental re-explanation across a configuration
/// edit: `netexpl diff --topology <T> --spec <FILE> <OLD> <NEW>` loads two
/// rendered configurations (as written by `netexpl synth`, plus optional
/// `originate` lines; absent ones come from the spec's `@originate`
/// directives), explains the old one in full, then re-explains only the
/// routers the edit can reach ([`explain_delta`]) — printing which session
/// maps changed and how (cosmetic vs semantic), which routers were
/// recomputed and why, the full-vs-delta wall clocks, and every
/// subspecification that actually changed.
pub fn diff(opts: &Options) -> Result<(), Error> {
    let _obs = obs_setup(opts)?;
    let budget = parse_budget(opts)?;
    let topo = topology(opts.require("topology").map_err(usage)?)?;
    let problem = load_problem(&topo, opts.require("spec").map_err(usage)?)?;
    let [old_path, new_path] = opts.positional() else {
        return Err(usage(format!(
            "diff takes exactly two config files (old, new), got {}",
            opts.positional().len()
        )));
    };
    let old = load_config(&topo, &problem, old_path)?;
    let new = load_config(&topo, &problem, new_path)?;

    let all_opts = ExplainAllOptions {
        explain: ExplainOptions {
            skip_lift: opts.flag("skip-lift"),
            budget,
            ..Default::default()
        },
        workers: parse_workers(opts)?,
        fail_fast: opts.flag("fail-fast"),
    };

    let mut ctx = Ctx::new();
    let sorts = problem.vocab.sorts(&mut ctx);
    let t_full = std::time::Instant::now();
    let cache = netexpl_synth::EncodeCache::build(
        &mut ctx,
        &topo,
        &problem.vocab,
        sorts,
        &old,
        all_opts.explain.encode,
    )
    .map_err(Error::Encode)?;
    ctx.freeze();
    let prior = explain_all_cached(
        &ctx,
        &topo,
        &problem.vocab,
        sorts,
        &old,
        &problem.spec,
        &Selector::Router,
        all_opts.clone(),
        &cache,
    )
    .map_err(Error::Explain)?;
    let full_ms = t_full.elapsed().as_secs_f64() * 1e3;

    // `explain_delta` consumes the prior; keep what the diff prints first.
    let old_subspecs: std::collections::HashMap<String, String> = prior
        .explanations()
        .map(|(n, e)| (n.to_string(), e.subspec.to_string()))
        .collect();
    let old_status: std::collections::HashMap<String, &'static str> = prior
        .routers
        .iter()
        .map(|r| (r.router.clone(), r.outcome.status()))
        .collect();

    let t_delta = std::time::Instant::now();
    let report = explain_delta(
        &mut ctx,
        &topo,
        &problem.vocab,
        sorts,
        &old,
        &new,
        &problem.spec,
        &Selector::Router,
        all_opts,
        prior,
        &cache,
    )
    .map_err(Error::Explain)?;
    let delta_ms = t_delta.elapsed().as_secs_f64() * 1e3;

    // Which subspecifications actually changed (recomputed routers only —
    // reused reports are the old artifacts by construction).
    let mut subspec_changes: Vec<(String, String, String)> = Vec::new();
    let mut status_changes: Vec<(String, &'static str, &'static str)> = Vec::new();
    for r in &report.explanation.routers {
        if !matches!(r.delta, Some(DeltaProvenance::Recomputed(_))) {
            continue;
        }
        let was = old_status.get(&r.router).copied().unwrap_or("absent");
        if was != r.outcome.status() {
            status_changes.push((r.router.clone(), was, r.outcome.status()));
        }
        if let Some(e) = r.outcome.explanation() {
            let now = e.subspec.to_string();
            let before = old_subspecs.get(&r.router).cloned().unwrap_or_default();
            if before != now {
                subspec_changes.push((r.router.clone(), before, now));
            }
        }
    }

    if opts.flag("json") {
        let changes: Vec<Value> = report
            .diff
            .changes
            .iter()
            .map(|c| {
                Value::object([
                    ("router", Value::from(topo.name(c.router))),
                    ("dir", Value::from(c.dir.to_string().as_str())),
                    ("neighbor", Value::from(topo.name(c.neighbor))),
                    ("kind", Value::from(c.kind.as_str())),
                ])
            })
            .collect();
        let dirty: Vec<Value> = report
            .dirty
            .iter()
            .map(|(name, reason)| {
                Value::object([
                    ("router", Value::from(name.as_str())),
                    ("reason", Value::from(reason.to_string().as_str())),
                ])
            })
            .collect();
        let routers: Vec<Value> = report
            .explanation
            .routers
            .iter()
            .map(|r| {
                Value::object([
                    ("router", Value::from(r.router.as_str())),
                    ("status", Value::from(r.outcome.status())),
                    (
                        "provenance",
                        Value::from(r.delta.as_ref().map_or("full", |d| d.status())),
                    ),
                ])
            })
            .collect();
        let specs: Vec<Value> = subspec_changes
            .iter()
            .map(|(name, before, now)| {
                Value::object([
                    ("router", Value::from(name.as_str())),
                    ("old", Value::from(before.as_str())),
                    ("new", Value::from(now.as_str())),
                ])
            })
            .collect();
        let json = Value::object([
            ("old", Value::from(old_path.as_str())),
            ("new", Value::from(new_path.as_str())),
            (
                "originations_changed",
                Value::from(report.diff.originations_changed),
            ),
            ("changes", Value::from(changes)),
            ("dirty", Value::from(dirty)),
            ("reused", Value::from(report.reused)),
            ("recomputed", Value::from(report.recomputed)),
            ("crossings_reused", Value::from(report.patch.reused)),
            ("crossings_recomputed", Value::from(report.patch.recomputed)),
            ("full_ms", Value::from(full_ms)),
            ("delta_ms", Value::from(delta_ms)),
            ("routers", Value::from(routers)),
            ("subspec_changes", Value::from(specs)),
        ]);
        println!("{}", serde_json::to_string_pretty(&json));
        return Ok(());
    }

    println!("=== Config diff: {old_path} → {new_path} ===");
    if report.diff.is_empty() {
        println!("no configuration changes");
    }
    if report.diff.originations_changed {
        println!("originations CHANGED — the whole path universe moved");
    }
    for c in &report.diff.changes {
        println!(
            "  {} {} → {}: {}",
            topo.name(c.router),
            c.dir,
            topo.name(c.neighbor),
            c.kind.as_str()
        );
    }
    let total = report.explanation.routers.len();
    println!("\ndirty: {} of {total} router(s)", report.dirty.len());
    for (name, reason) in &report.dirty {
        println!("  {name}: {reason}");
    }
    println!(
        "\nrecomputed {}, reused {}; crossings {} replayed / {} recomputed",
        report.recomputed, report.reused, report.patch.reused, report.patch.recomputed
    );
    println!(
        "full run (old config): {full_ms:.1} ms; delta run: {delta_ms:.1} ms ({:.1}x)",
        if delta_ms > 0.0 {
            full_ms / delta_ms
        } else {
            f64::INFINITY
        }
    );
    for (name, was, now) in &status_changes {
        println!("status change: {name}: {was} → {now}");
    }
    if subspec_changes.is_empty() {
        println!("\nsubspecifications: unchanged");
    } else {
        println!("\nsubspecification changes:");
        for (name, before, now) in &subspec_changes {
            println!("  {name}:");
            for line in before.lines() {
                println!("    - {line}");
            }
            for line in now.lines() {
                println!("    + {line}");
            }
        }
    }
    Ok(())
}

/// The pipeline stages every `explain --trace=json` run must emit a span
/// for (the paper's Fig. 6 pipeline).
const REQUIRED_STAGES: [&str; 4] = ["symbolize", "seed", "simplify", "lift"];

/// What `netexpl obs-check` reads.
pub const OBS_CHECK: Accepts = Accepts {
    keys: &["trace-file", "metrics-file"],
    flags: &[],
};

/// `netexpl obs-check` — validate emitted observability artifacts: a
/// JSON-lines trace (every line parses; one span per pipeline stage) and
/// optionally a `--metrics-out` metrics file. Used by CI.
pub fn obs_check(opts: &Options) -> Result<(), Error> {
    let trace_path = opts.require("trace-file").map_err(usage)?;
    let text = std::fs::read_to_string(trace_path).map_err(|e| Error::Io {
        path: trace_path.to_string(),
        source: e,
    })?;
    let mut span_names: Vec<String> = Vec::new();
    let mut events = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line)
            .map_err(|e| usage(format!("{trace_path}:{}: invalid JSON: {e}", lineno + 1)))?;
        events += 1;
        let kind = value["type"]
            .as_str()
            .ok_or_else(|| usage(format!("{trace_path}:{}: event has no `type`", lineno + 1)))?;
        if kind == "span" {
            let name = value["name"]
                .as_str()
                .ok_or_else(|| usage(format!("{trace_path}:{}: span has no `name`", lineno + 1)))?;
            span_names.push(name.to_string());
        }
    }
    for stage in REQUIRED_STAGES {
        if !span_names.iter().any(|n| n == stage) {
            return Err(usage(format!(
                "{trace_path}: no `{stage}` span — stages seen: {span_names:?}"
            )));
        }
    }
    if let Some(metrics_path) = opts.get("metrics-file") {
        let text = std::fs::read_to_string(metrics_path).map_err(|e| Error::Io {
            path: metrics_path.to_string(),
            source: e,
        })?;
        let value: Value = serde_json::from_str(&text)
            .map_err(|e| usage(format!("{metrics_path}: invalid JSON: {e}")))?;
        for section in ["counters", "gauges", "histograms"] {
            if !matches!(value[section], Value::Object(_)) {
                return Err(usage(format!("{metrics_path}: missing `{section}` object")));
            }
        }
    }
    println!(
        "ok: {events} event(s), {} span(s), all {} pipeline stages present",
        span_names.len(),
        REQUIRED_STAGES.len()
    );
    Ok(())
}
