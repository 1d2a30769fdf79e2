//! # netexpl-core
//!
//! The paper's contribution: **localized explanations for automatically
//! synthesized network configurations**.
//!
//! Given a global specification, a topology, and the configuration a
//! constraint-based synthesizer produced, this crate generates a
//! *subspecification* for a chosen router — the minimal local conditions
//! that router must satisfy (given everything else's concrete
//! configuration) for the whole network to meet the global intents. The
//! pipeline is the paper's Figure 6:
//!
//! 1. **Symbolize** ([`symbolize::symbolize`]) — re-open selected configuration lines
//!    of the router under question as symbolic variables (`Var_Attr`,
//!    `Var_Val`, `Var_Action`, `Var_Param`), yielding a partially symbolic
//!    configuration.
//! 2. **Seed specification** ([`seed`]) — run the *synthesizer's own
//!    encoder* (`netexpl-synth`) over the partially symbolic configuration,
//!    the concrete rest of the network, and the global requirements. The
//!    resulting constraint set — over a thousand conjuncts even on the
//!    paper's six-router network — is the seed specification.
//! 3. **Simplify** — apply the fifteen rewrite rules
//!    (`netexpl_logic::simplify`) to a fixpoint. With every other router
//!    frozen to concrete values, the seed collapses to a handful of
//!    constraints over the symbolized variables.
//! 4. **Lift** ([`lift::lift`]) — search the specification language itself for a
//!    router-scoped subspecification (`netexpl_spec::SubSpec`) consistent
//!    with the simplified constraints: each candidate local requirement must
//!    be *necessary* (implied by the seed) and the chosen set must be
//!    *sufficient* (implies the seed's requirements), checked with the SAT
//!    solver. The paper leaves efficient lifting as future work; this crate
//!    implements a sound enumerative lifter over path-window candidates.
//!
//! The entry point is [`explain::explain`]; see the `quickstart` example at
//! the workspace root for an end-to-end run reproducing the paper's
//! Figures 1, 2, 4 and 5.

pub mod assume;
pub mod delta;
pub mod error;
pub mod explain;
pub mod lift;
pub mod network;
pub mod problem;
pub mod seed;
pub mod symbolize;

pub use assume::{environment_assumptions, EnvironmentAssumptions};
pub use delta::{explain_delta, plan_delta, DeltaPlan, DeltaProvenance, DeltaReport, DirtyReason};
pub use error::Error;
pub use explain::{
    explain, explain_cached, ExplainError, ExplainOptions, Explanation, StageVerdicts, Verdict,
};
pub use lift::{lift, LiftOptions, LiftResult, LiftSessionStore};
pub use network::{
    explain_all, explain_all_cached, ExplainAllOptions, NetworkExplanation, RouterOutcome,
    RouterReport,
};
pub use problem::{parse_problem, synthesize_problem, topology_by_name, Problem};
pub use seed::{seed_spec, seed_spec_cached, SeedSpec};
pub use symbolize::{symbolize, Dir, Field, Selector, SymbolInfo, SymbolTable};
