//! netexpl-dataflow — abstract interpretation of BGP route propagation.
//!
//! The concrete semantics of this model is `netexpl_bgp::sim`: routers
//! advertise their best route per prefix, export and import maps rewrite
//! or drop it, and the network converges to a stable RIB. That simulation
//! is exact but explores one route at a time; the linter needs the
//! opposite trade-off — *every* route the network could ever carry, at
//! the cost of precision.
//!
//! This crate computes a sound over-approximation: per origination and
//! per (router, learned-from) session it maintains an [`AbsRoute`], an
//! abstract announcement with must/may community sets, a local-preference
//! interval, a next-hop set and must/may AS sets. A worklist fixpoint
//! propagates these facts over the topology through *compiled transfer
//! functions* derived from the route maps; the lattice is finite and all
//! transformers are monotone, so the fixpoint terminates.
//!
//! Everything the fixpoint records is read by `netexpl-lint`'s network
//! pass: the abstract facts, the provably-denied transfers, the
//! valley-free violations, the join of what reaches each configured map,
//! and the entries some fact may reach and match. The facts carry the
//! soundness contract: every route admitted by the concrete simulation is
//! covered by some abstract fact (`Fixpoint::covers`), so "no abstract
//! fact reaches router R" proves a black-hole. The analysis runs on the
//! calling thread.

pub mod domain;
pub mod fixpoint;
pub mod transfer;

pub use domain::AbsRoute;
pub use fixpoint::{analyze, Denial, EntryKey, FactKey, Fixpoint};
pub use transfer::MatchStatus;
