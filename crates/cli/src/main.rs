//! `netexpl` — synthesize, check, simulate, and explain network
//! configurations from the command line.
//!
//! ```text
//! netexpl synth    --topology paper --spec spec.txt [--json]
//! netexpl lint     --topology paper --spec spec.txt [--json] [--no-sat]
//! netexpl explain  --topology paper --spec spec.txt --router R1 \
//!                  [--neighbor P1 --dir export [--entry N]] [--skip-lift] [--json]
//! netexpl explain  --topology paper --spec spec.txt --all \
//!                  [--workers N] [--fail-fast] [--json]
//! netexpl diff     --topology paper --spec spec.txt old.conf new.conf [--json]
//! netexpl simulate --topology paper --spec spec.txt [--fail R1-R3]
//! netexpl scenario <1|2|3>
//! netexpl profile  --topology paper --spec spec.txt (--router R1 | --all | --lint) \
//!                  [--top K] [--trace-out trace.json]
//! netexpl obs-check --trace-file trace.jsonl [--metrics-file metrics.json]
//! ```
//!
//! `synth`, `lint`, and `explain` additionally accept
//! `--trace[=human|json|chrome]` (stream pipeline spans and metrics to
//! stderr, or with `chrome` write a `trace_event` JSON document to
//! `--trace-out` for `chrome://tracing`/Perfetto) and
//! `--metrics-out <FILE>` (write the metrics registry as JSON when the
//! command finishes). `explain`, `assumptions`, `simulate` and `profile`
//! accept `--config <FILE>` to work on a given rendered configuration
//! instead of synthesizing one.
//!
//! The specification file uses the `netexpl-spec` DSL, extended with one
//! CLI-level directive embedded in comments:
//!
//! ```text
//! // @originate P1 200.7.0.0/16
//! dest D1 = 200.7.0.0/16
//! Req1 { !(P1 -> ... -> P2) }
//! ```
//!
//! `@originate` declares the environment (which external router announces
//! which prefix); everything else is the paper's requirement language.

mod commands;
mod input;
mod serve_cmd;

use std::process::ExitCode;

use netexpl_core::Error;

use crate::input::{Accepts, Options};

fn main() -> ExitCode {
    // Fault injection for release-binary smoke tests: NETEXPL_FAULT names
    // comma-separated sites (see `netexpl_faults::sites`) to arm for the
    // whole run. The contract: every armed site yields a classified error
    // or a degraded-but-sound result — never a panic, never a backtrace.
    if let Err(e) = netexpl_faults::arm_from_env("NETEXPL_FAULT") {
        eprintln!("error[NX001]: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One classified line per failure: a stable NX code plus the
            // source chain's message — no panics, no backtraces.
            eprintln!("error[{}]: {e}", e.code());
            ExitCode::FAILURE
        }
    }
}

/// A subcommand: its name, the options it reads, and its entry point.
type Command = (
    &'static str,
    &'static Accepts,
    fn(&Options) -> Result<(), Error>,
);

/// Every subcommand.
const COMMANDS: [Command; 11] = [
    ("synth", &commands::SYNTH, commands::synth),
    ("lint", &commands::LINT, commands::lint),
    ("explain", &commands::EXPLAIN, commands::explain_cmd),
    ("diff", &commands::DIFF, commands::diff),
    ("assumptions", &commands::ASSUMPTIONS, commands::assumptions),
    ("simulate", &commands::SIMULATE, commands::simulate),
    ("scenario", &commands::SCENARIO, commands::scenario),
    ("profile", &commands::PROFILE, commands::profile),
    ("obs-check", &commands::OBS_CHECK, commands::obs_check),
    ("serve", &serve_cmd::SERVE, serve_cmd::serve),
    ("request", &serve_cmd::REQUEST, serve_cmd::request),
];

fn run(args: &[String]) -> Result<(), Error> {
    let Some(command) = args.first() else {
        print_usage();
        return Err(Error::Usage("missing command".into()));
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        print_usage();
        return Ok(());
    }
    let Some(&(_, accepts, entry)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
        print_usage();
        return Err(Error::Usage(format!("unknown command `{command}`")));
    };
    // The whole command line is checked before the command does any work.
    let opts =
        Options::parse(&args[1..], accepts).map_err(|m| Error::Usage(format!("{command}: {m}")))?;
    entry(&opts)
}

fn print_usage() {
    eprintln!("{USAGE}");
}

/// The usage text `help` prints.
const USAGE: &str = "netexpl — explainable network configuration synthesis\n\
         \n\
         USAGE:\n\
           netexpl synth    --topology <T> --spec <FILE> [--json]\n\
           netexpl lint     --topology <T> --spec <FILE> [--json] [--no-sat]\n\
                            [--network] [--deny-warnings]\n\
                            (exit is non-zero iff an error-severity finding\n\
                            survives; warnings exit zero unless --deny-warnings\n\
                            promotes them. --network adds the dataflow checks\n\
                            NE013..NE019; `! netexpl-allow(NExxx)` comments in\n\
                            the spec suppress findings)\n\
           netexpl explain  --topology <T> --spec <FILE> --router <NAME>\n\
                            [--neighbor <NAME> --dir <import|export> [--entry <N>]]\n\
                            [--skip-lift] [--json]\n\
           netexpl explain  --topology <T> --spec <FILE> --all\n\
                            [--workers <N>] [--fail-fast] [--json]\n\
                            (every router in parallel, sharing one encoding;\n\
                            --workers 0/absent picks the machine's parallelism)\n\
           netexpl diff     --topology <T> --spec <FILE> <OLD.conf> <NEW.conf>\n\
                            [--workers <N>] [--skip-lift] [--json]\n\
                            (incremental re-explanation across a config edit:\n\
                            diff the route maps, recompute only the routers the\n\
                            edit can reach, reuse the rest, and report which\n\
                            subspecifications changed and the full-vs-delta wall)\n\
           netexpl assumptions --topology <T> --spec <FILE> --router <NAME>\n\
           netexpl simulate --topology <T> --spec <FILE> [--fail <A-B>]...\n\
           netexpl scenario <1|2|3>\n\
           netexpl profile  --topology <T> --spec <FILE>\n\
                            (--router <NAME> | --all [--workers <N>] | --lint)\n\
                            [--top <K>] [--trace-out <FILE>]\n\
                            (run the workload under full instrumentation and\n\
                            print the attribution report: critical path, dominant\n\
                            router/stage, hot SAT queries by originating lift\n\
                            template or lint diagnostic, cache hits, quantiles;\n\
                            --trace-out also writes Chrome trace JSON)\n\
           netexpl obs-check --trace-file <FILE> [--metrics-file <FILE>]\n\
           netexpl serve    [--addr <HOST:PORT>] [--workers <N>] [--queue <N>]\n\
                            [--pool <N>] [--default-timeout <SECS>]\n\
                            [--max-timeout <SECS>] [--read-timeout <SECS>]\n\
                            [--max-request-bytes <N>] [--metrics-out <FILE>]\n\
                            (long-lived JSON-over-TCP explanation service;\n\
                            prints `listening on <ADDR>`, runs until a\n\
                            `shutdown` request drains it. Overload sheds\n\
                            NX801; crashes isolate to NX804 per request)\n\
           netexpl request  --addr <HOST:PORT> --op <OP> [--id <TAG>]\n\
                            [--topology <T> --spec <FILE> [--router <NAME>]\n\
                            [--skip-lift] [--workers <N>]] [--timeout-ms <N>]\n\
                            [--site <FAULT-SITE> [--shots <N>]] [--mode <drain|cancel>]\n\
                            (one request against a running server; OP is\n\
                            ping|stats|explain|lint|arm-fault|shutdown; exits\n\
                            with the server's error[NXnnn] classification)\n\
         \n\
         OBSERVABILITY (synth, lint, explain):\n\
           --trace[=human|json|chrome]  stream pipeline spans + metrics to stderr;\n\
                                  chrome buffers the run and writes trace_event\n\
                                  JSON to --trace-out (chrome://tracing, Perfetto)\n\
           --metrics-out <FILE>   write the metrics registry as JSON on exit\n\
         \n\
         CONFIGURATION (explain, assumptions, simulate, profile):\n\
           --config <FILE>        work on this rendered configuration (the\n\
                                  `diff` format) instead of synthesizing one\n\
         \n\
         RESOURCE BUDGETS (synth, explain):\n\
           --timeout <SECS>       wall-clock deadline for solver/explain work\n\
           --max-conflicts <N>    cap on CDCL conflicts per solver call\n\
           synth fails with NX501 when interrupted; explain degrades to a\n\
           partial explanation with best-effort/exhausted stage verdicts.\n\
         \n\
         TOPOLOGIES:\n\
           paper      the six-router network of the paper's Figure 1b\n\
           line:N     N internal routers in a line, a provider at each end\n\
           ring:N     N internal routers in a ring, two providers\n\
           star:N     hub and N spokes, two providers\n\
         \n\
         SPEC FILES use the requirement DSL plus `// @originate <Router> <prefix>`.";

#[cfg(test)]
mod tests {
    use super::*;

    fn accepts(command: &str) -> &'static Accepts {
        COMMANDS
            .iter()
            .find(|(name, ..)| *name == command)
            .map(|&(_, accepts, _)| accepts)
            .unwrap_or_else(|| panic!("no command `{command}`"))
    }

    /// Does `command` parse `--name`, given bare if it is a flag and with
    /// a value otherwise?
    fn parses(command: &str, name: &str) -> bool {
        let accepts = accepts(command);
        let arg = if accepts.flags.contains(&name) {
            format!("--{name}")
        } else {
            format!("--{name}=x")
        };
        Options::parse(&[arg], accepts).is_ok()
    }

    /// Every `--name` in `text`.
    fn option_names(text: &str) -> impl Iterator<Item = &str> {
        text.split("--").skip(1).filter_map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .unwrap_or(rest.len());
            (end > 0).then(|| &rest[..end])
        })
    }

    /// Each `netexpl <command>` line of the usage text, its continuation
    /// lines and the option sections that name the command list options
    /// the command parses.
    #[test]
    fn every_option_in_the_usage_text_parses() {
        let mut commands: Vec<&str> = Vec::new();
        let mut checked = 0;
        for line in USAGE.lines().map(str::trim) {
            if let Some(rest) = line.strip_prefix("netexpl ") {
                commands = rest.split_whitespace().take(1).collect();
            } else if let Some(list) = line
                .strip_suffix("):")
                .and_then(|head| head.split_once('('))
            {
                commands = list.1.split(", ").collect();
            } else if line.is_empty() || line.ends_with(':') {
                commands.clear();
            }
            for name in option_names(line) {
                for &command in &commands {
                    assert!(parses(command, name), "{command} rejects --{name}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 50, "only {checked} options checked");
    }

    /// Every `netexpl` invocation in the repository gate parses.
    #[test]
    fn every_option_in_the_ci_script_parses() {
        let script = include_str!("../../../scripts/ci.sh").replace("\\\n", " ");
        let mut checked = 0;
        for line in script.lines() {
            let Some((_, call)) = line.split_once("./target/release/netexpl ") else {
                continue;
            };
            let command = call.split_whitespace().next().unwrap();
            for name in option_names(call) {
                assert!(parses(command, name), "{command} rejects --{name}");
                checked += 1;
            }
        }
        assert!(checked > 50, "only {checked} options checked");
    }
}
