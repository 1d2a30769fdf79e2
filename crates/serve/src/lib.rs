//! # netexpl-serve
//!
//! A long-lived explanation service wrapping the `netexpl` pipeline:
//! newline-framed JSON over TCP, zero dependencies beyond std and the
//! workspace.
//!
//! What it adds over `netexpl explain` in a loop:
//!
//! - **Warm sessions** ([`pool`]): topology, synthesized configuration,
//!   base term context, and the shared [`EncodeCache`] persist across
//!   requests keyed by `(topology, spec hash)` and LRU-evicted. Repeat
//!   requests skip synthesis and the cache build entirely; a cold build
//!   starts from a fresh context and shares nothing with other keys.
//! - **Admission control** ([`server`]): at most `workers` heavy
//!   requests run at once and at most `queue_capacity` more wait for a
//!   slot; overload sheds typed (NX801) at admission instead of queueing
//!   unboundedly.
//! - **Crash isolation** ([`server`]): every request runs inside
//!   `catch_unwind` on its connection's thread; a panicking pipeline
//!   fails *that request* (NX804), quarantines the session it used, and
//!   the connection keeps serving. A panicking request never takes the
//!   listener down.
//! - **Deadlines** ([`engine`]): each request gets a [`Budget`] from its
//!   own `timeout_ms` (capped by the server), so one slow query cannot
//!   hold a slot for long.
//! - **Server-scoped faults** ([`engine`]): `arm-fault` arms counted
//!   shots on this server's engine only.
//! - **Graceful drain**: the `shutdown` op stops admission (NX805),
//!   finishes or cancels in-flight work through the existing
//!   cancellation token, and flushes metrics.
//!
//! [`EncodeCache`]: netexpl_synth::encode::EncodeCache
//! [`Budget`]: netexpl_logic::budget::Budget

pub mod engine;
pub mod pool;
pub mod protocol;
mod queue;
pub mod server;

pub use engine::{Engine, EngineConfig, Handled};
pub use pool::{SessionKey, SessionPool};
pub use protocol::{Op, Request};
pub use server::{Server, ServerConfig};
