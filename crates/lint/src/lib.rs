//! netexpl-lint — a SAT-backed static analyzer for configurations,
//! specifications and symbolization selectors.
//!
//! The explanation pipeline of the paper answers *why is this line here*;
//! the linter answers the complementary question, *does this line (or
//! requirement, or selector) do anything at all*. It reports findings as
//! [`Diagnostic`]s with stable `NExxx` codes, severities, spans into the
//! rendered configuration text, and machine-applicable suggestions where
//! a fix is cheap to state.
//!
//! Two pass families:
//!
//! * **Structural** passes need only the ASTs: first-match-wins clause
//!   shadowing (NE006), implicit-deny fallthrough (NE007), dangling
//!   sessions (NE008), matched-but-never-set communities (NE009), unknown
//!   routers/destinations in specs (NE001/NE002), unrealizable path
//!   patterns (NE005), preference cycles (NE003) and forbidden-versus-
//!   preferred conflicts (NE004).
//! * **Semantic** passes reuse the `netexpl-logic` solver: every
//!   route-map entry's match conjunction is encoded over the synthesis
//!   vocabulary and SAT-checked for reachability given all earlier
//!   entries (NE010) and for internal consistency (NE011). This catches
//!   shadowing by prefix containment or joint coverage that no syntactic
//!   check can see.
//!
//! A third, tiny pass guards the explanation pipeline itself: a
//! symbolization selector that covers zero configuration lines (NE012)
//! would otherwise produce a vacuously empty explanation.

pub mod config_pass;
pub mod diag;
pub mod network_pass;
pub mod sat_pass;
pub mod selector_pass;
pub mod spans;
pub mod spec_pass;
pub mod suppress;

pub use diag::{Code, Diagnostic, Diagnostics, Severity, Span};
pub use selector_pass::selector_coverage;
pub use spans::SpanIndex;
pub use suppress::Suppressions;

use netexpl_bgp::NetworkConfig;
use netexpl_core::symbolize::Selector;
use netexpl_dataflow::analyze;
use netexpl_spec::Specification;
use netexpl_synth::vocab::Vocabulary;
use netexpl_topology::{RouterId, Topology};

/// Lint a specification against a topology. `config`, when given,
/// supplies the originations for destination-anchored checks.
pub fn lint_spec(
    topo: &Topology,
    spec: &Specification,
    config: Option<&NetworkConfig>,
) -> Diagnostics {
    let mut diags = spec_pass::run(topo, spec, config);
    diags.sort();
    diags
}

/// Lint a configuration: all structural passes plus, when a vocabulary is
/// given, the SAT-backed reachability passes.
pub fn lint_config(
    topo: &Topology,
    config: &NetworkConfig,
    vocab: Option<&Vocabulary>,
) -> Diagnostics {
    let spans = SpanIndex::build(topo, config);
    let (mut diags, dead) = config_pass::run(topo, config, &spans);
    if let Some(vocab) = vocab {
        diags.extend(sat_pass::run(topo, vocab, config, &spans, &dead));
    }
    diags.sort();
    diags
}

/// Network-wide lint: the per-map passes plus the abstract-interpretation
/// dataflow checks (NE013–NE019), all on the calling thread.
///
/// The last argument (`workers`) is ignored: nothing here fans out. Kept so
/// existing callers that pass it still compile.
pub fn lint_network(
    topo: &Topology,
    spec: &Specification,
    config: &NetworkConfig,
    vocab: Option<&Vocabulary>,
    _workers: usize,
) -> Diagnostics {
    let spans = SpanIndex::build(topo, config);
    let (mut diags, dead) = config_pass::run(topo, config, &spans);
    let fx = analyze(topo, config);
    diags.extend(network_pass::run(topo, config, spec, &fx, &spans, &dead));
    if let Some(vocab) = vocab {
        diags.extend(sat_pass::run(topo, vocab, config, &spans, &dead));
    }
    diags.sort();
    diags
}

/// Pre-flight a symbolization selector (the `explain` entry point).
pub fn lint_selector(
    topo: &Topology,
    config: &NetworkConfig,
    router: RouterId,
    selector: &Selector,
) -> Diagnostics {
    selector_pass::run(topo, config, router, selector)
}

/// Everything at once: the spec passes and the config passes, as the
/// `netexpl lint` subcommand runs them.
pub fn lint_problem(
    topo: &Topology,
    spec: &Specification,
    config: &NetworkConfig,
    vocab: Option<&Vocabulary>,
) -> Diagnostics {
    let mut diags = lint_spec(topo, spec, Some(config));
    diags.extend(lint_config(topo, config, vocab));
    diags
}
