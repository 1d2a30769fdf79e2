//! # netexpl-logic
//!
//! The logical substrate for the `netexpl` workspace: a hash-consed term
//! language over booleans, bounded integers and enumerations, a rewrite-based
//! constraint simplifier implementing the fifteen rules the paper relies on,
//! and a complete finite-domain SMT pipeline (bit-blasting, Tseitin CNF
//! conversion, and a CDCL SAT solver).
//!
//! The paper's explanation method assumes a *constraint-based* synthesizer
//! backed by an SMT solver (the authors use Z3 through NetComplete). All the
//! formulas that arise in the paper's fragment of the problem — BGP policy
//! encodings over match attributes, actions, community tags, local
//! preferences and next hops — are finite-domain, so an eager-encoding solver
//! (theory atoms lowered to propositional logic up front) decides exactly the
//! same formulas. This crate provides that solver from scratch.
//!
//! ## Layout
//!
//! * [`sort`] — sorts and enumeration declarations.
//! * [`budget`] — resource budgets, cancellation, and `Interrupt` reporting.
//! * [`term`] — the hash-consed term arena ([`term::Ctx`]) and term nodes.
//! * [`model`] — assignments and a reference term evaluator.
//! * [`simplify`] — the fifteen rewrite rules with a per-rule ablation mask.
//! * [`bitblast`] — lowering of enum/int atoms to propositional formulas.
//! * [`cnf`] — Tseitin conversion to clausal form.
//! * [`sat`] — the CDCL solver (watched literals, VSIDS, Luby restarts).
//! * [`dpll`] — a deliberately simple DPLL baseline used for testing and for
//!   the solver-ablation benchmark.
//! * [`session`] — the SMT solver, [`session::SmtSession`], tying it all
//!   together: encode once, query many times under assumptions, learned
//!   clauses retained. A single check is a session with one query.
//! * [`solver`] — query results, model decoding, and satisfiability,
//!   entailment and equivalence helpers over a fresh session.
//!
//! ## Quick example
//!
//! ```
//! use netexpl_logic::term::Ctx;
//! use netexpl_logic::{SmtResult, SmtSession};
//!
//! let mut ctx = Ctx::new();
//! let action = ctx.enum_sort("Action", &["permit", "deny"]);
//! let a = ctx.enum_var("Var_Action", action);
//! let deny = ctx.enum_const(action, 1);
//! let f = ctx.eq(a, deny);
//! let mut session = SmtSession::new();
//! session.assert(&mut ctx, &[f]);
//! let model = match session.check(&mut ctx) {
//!     SmtResult::Sat(m) => m,
//!     // Without a budget the solver is complete; `Unknown` only arises
//!     // when a `Budget` bounds the search (see the [`budget`] module).
//!     SmtResult::Unsat | SmtResult::Unknown(_) => unreachable!(),
//! };
//! assert_eq!(model.eval_bool(&ctx, f), Some(true));
//! ```

pub mod bitblast;
pub mod budget;
pub mod cnf;
pub mod dpll;
pub mod model;
pub mod sat;
pub mod session;
pub mod simplify;
pub mod solver;
pub mod sort;
pub mod term;

pub use budget::{Budget, CancelToken, Interrupt, InterruptReason};
pub use model::Assignment;
pub use session::SmtSession;
pub use simplify::{RuleMask, Simplifier};
pub use solver::SmtResult;
pub use sort::{EnumSortId, Sort};
pub use term::{Ctx, TermId, VarId};
