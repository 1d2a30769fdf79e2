//! The unified error taxonomy for the `netexpl` workspace.
//!
//! Every failure a pipeline stage can report is classified here with a
//! stable machine-readable code (`NXnnn`). The per-crate error enums
//! (`SynthError`, `EncodeError`, `SimError`, `ExplainError`, the parsers'
//! errors) stay as precise sources; this type wraps them for uniform
//! display at the boundary (the CLI, the fault-injection harness), keeping
//! the source chain intact via [`std::error::Error::source`].
//!
//! Code map:
//!
//! | code  | class                                         |
//! |-------|-----------------------------------------------|
//! | NX001 | usage (bad flags/arguments)                   |
//! | NX002 | I/O (file read/write)                         |
//! | NX101 | specification parse                           |
//! | NX102 | configuration parse                           |
//! | NX103 | topology construction/lookup                  |
//! | NX201 | constraint encoding                           |
//! | NX202 | synthesis found the spec unsatisfiable        |
//! | NX203 | synthesized config failed validation          |
//! | NX301 | simulation (no stable routing state)          |
//! | NX401 | explanation pipeline                          |
//! | NX501 | budget interrupt (deadline/caps/cancellation) |
//! | NX601 | lint findings at error severity               |
//! | NX801 | server overloaded — request shed at admission |
//! | NX802 | malformed/undecodable server request          |
//! | NX803 | oversized server request                      |
//! | NX804 | server worker crashed (isolated to a request) |
//! | NX805 | server draining — request refused             |
//! | NX806 | warm session discarded by `serve.evict` fault |
//!
//! The NX8xx classes are produced by `netexpl-serve` (which cannot be a
//! dependency of this crate — it sits above it); they travel through
//! [`Error::Serve`], which carries the code verbatim so the taxonomy
//! extends across the wire to `netexpl request`.

use netexpl_logic::budget::Interrupt;

/// A classified workspace error with a stable code and source chain.
#[derive(Debug)]
pub enum Error {
    /// Bad command-line usage or arguments (NX001).
    Usage(String),
    /// Filesystem I/O failure, with the path involved (NX002).
    Io {
        path: String,
        source: std::io::Error,
    },
    /// Specification text failed to parse (NX101).
    SpecParse(netexpl_spec::parser::ParseError),
    /// Configuration text failed to parse (NX102).
    ConfigParse(netexpl_bgp::parse::ConfigParseError),
    /// Topology construction or router lookup failed (NX103).
    Topology(String),
    /// The synthesizer's constraint encoder rejected the problem (NX201).
    Encode(netexpl_synth::encode::EncodeError),
    /// Synthesis/validation failed (NX202 for unsat, NX203 for validation).
    Synth(netexpl_synth::synthesize::SynthError),
    /// The concrete simulator found no stable state (NX301).
    Sim(netexpl_bgp::sim::SimError),
    /// The explanation pipeline failed outright (NX401). Budget exhaustion
    /// inside `explain` is *not* an error — it degrades to a partial
    /// explanation with `BestEffort`/`Exhausted` verdicts instead.
    Explain(crate::explain::ExplainError),
    /// A resource budget interrupted an operation that cannot degrade
    /// partially, e.g. synthesis (NX501).
    Interrupted(Interrupt),
    /// Lint reported findings at error severity (NX601).
    Lint { errors: usize },
    /// A serve-layer failure (NX8xx): produced locally by `netexpl serve`
    /// or relayed verbatim from a remote server by `netexpl request`, so
    /// the client exits with the same classified line the server logged.
    Serve { code: String, message: String },
}

impl Error {
    /// The stable diagnostic code for this error class.
    pub fn code(&self) -> &str {
        match self {
            Error::Usage(_) => "NX001",
            Error::Io { .. } => "NX002",
            Error::SpecParse(_) => "NX101",
            Error::ConfigParse(_) => "NX102",
            Error::Topology(_) => "NX103",
            Error::Encode(_) => "NX201",
            Error::Synth(netexpl_synth::synthesize::SynthError::Unsat) => "NX202",
            Error::Synth(netexpl_synth::synthesize::SynthError::Encode(_)) => "NX201",
            Error::Synth(netexpl_synth::synthesize::SynthError::Interrupted(_)) => "NX501",
            Error::Synth(_) => "NX203",
            Error::Sim(_) => "NX301",
            Error::Explain(_) => "NX401",
            Error::Interrupted(_) => "NX501",
            Error::Lint { .. } => "NX601",
            Error::Serve { code, .. } => code,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Usage(m) => write!(f, "{m}"),
            Error::Io { path, source } => write!(f, "{path}: {source}"),
            Error::SpecParse(e) => write!(f, "spec parse: {e}"),
            Error::ConfigParse(e) => write!(f, "config parse: {e}"),
            Error::Topology(m) => write!(f, "{m}"),
            Error::Encode(e) => write!(f, "encode: {e}"),
            Error::Synth(e) => write!(f, "synthesis: {e}"),
            Error::Sim(e) => write!(f, "simulation: {e}"),
            Error::Explain(e) => write!(f, "explain: {e}"),
            Error::Interrupted(i) => write!(f, "{i}"),
            Error::Lint { errors } => write!(f, "lint found {errors} error-severity finding(s)"),
            Error::Serve { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            Error::SpecParse(e) => Some(e),
            Error::ConfigParse(e) => Some(e),
            Error::Encode(e) => Some(e),
            Error::Synth(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Explain(e) => Some(e),
            _ => None,
        }
    }
}

impl From<netexpl_spec::parser::ParseError> for Error {
    fn from(e: netexpl_spec::parser::ParseError) -> Self {
        Error::SpecParse(e)
    }
}

impl From<netexpl_bgp::parse::ConfigParseError> for Error {
    fn from(e: netexpl_bgp::parse::ConfigParseError) -> Self {
        Error::ConfigParse(e)
    }
}

impl From<netexpl_synth::encode::EncodeError> for Error {
    fn from(e: netexpl_synth::encode::EncodeError) -> Self {
        Error::Encode(e)
    }
}

impl From<netexpl_synth::synthesize::SynthError> for Error {
    fn from(e: netexpl_synth::synthesize::SynthError) -> Self {
        // Preserve the most precise class: an interrupted synthesis is a
        // budget interrupt, not a synthesis failure.
        match e {
            netexpl_synth::synthesize::SynthError::Interrupted(i) => Error::Interrupted(i),
            other => Error::Synth(other),
        }
    }
}

impl From<netexpl_bgp::sim::SimError> for Error {
    fn from(e: netexpl_bgp::sim::SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<crate::explain::ExplainError> for Error {
    fn from(e: crate::explain::ExplainError) -> Self {
        Error::Explain(e)
    }
}

impl From<Interrupt> for Error {
    fn from(i: Interrupt) -> Self {
        Error::Interrupted(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netexpl_logic::budget::{Interrupt, InterruptReason};

    #[test]
    fn codes_are_stable() {
        assert_eq!(Error::Usage("x".into()).code(), "NX001");
        assert_eq!(Error::Topology("x".into()).code(), "NX103");
        assert_eq!(
            Error::Interrupted(Interrupt::new(InterruptReason::Deadline, "t")).code(),
            "NX501"
        );
        assert_eq!(Error::Lint { errors: 2 }.code(), "NX601");
        // Serve errors carry their NX8xx code verbatim across the wire.
        let shed = Error::Serve {
            code: "NX801".into(),
            message: "server overloaded".into(),
        };
        assert_eq!(shed.code(), "NX801");
        assert_eq!(shed.to_string(), "server overloaded");
        assert_eq!(
            Error::Synth(netexpl_synth::synthesize::SynthError::Unsat).code(),
            "NX202"
        );
    }

    #[test]
    fn source_chain_reaches_the_underlying_error() {
        use std::error::Error as _;
        let io = Error::Io {
            path: "/no/such/file".into(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "nope"),
        };
        assert!(io.source().is_some());
        assert!(io.to_string().contains("/no/such/file"), "{io}");

        let interrupted: Error = netexpl_synth::synthesize::SynthError::Interrupted(
            Interrupt::new(InterruptReason::Conflicts, "sat.search"),
        )
        .into();
        assert_eq!(interrupted.code(), "NX501");
        assert!(interrupted.to_string().contains("conflict-limit"));
    }
}
