//! Fault matrix for the serve subsystem: each armed `serve.*` site must
//! degrade to a typed error on *that request only*, with the next
//! request succeeding on a fresh session. Faults are armed through the
//! server's own `arm-fault` op, so the CI smoke path is exercised too.
//!
//! A shot armed on one server is consumed only by that server, so these
//! tests run in parallel, beside each other and beside the soak tests.

mod common;

use common::serve::*;
use serde_json::Value;

fn arm(client: &mut Client, site: &str, shots: u64) {
    let resp = client.roundtrip(&format!(
        r#"{{"op":"arm-fault","site":"{site}","shots":{shots}}}"#
    ));
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "arming {site}: {resp:?}"
    );
}

#[test]
fn accept_fault_sheds_one_connection_then_recovers() {
    let server = TestServer::start(test_config(1, 4));
    let mut control = Client::connect(server.addr);
    arm(&mut control, "serve.accept", 1);
    // The next accepted connection is shed with a typed NX801 line…
    let shed = try_roundtrip(server.addr, r#"{"op":"ping"}"#).unwrap();
    assert_eq!(error_code(&shed), Some("NX801"), "{shed:?}");
    // …and the one after that is served normally.
    let pong = try_roundtrip(server.addr, r#"{"op":"ping"}"#).unwrap();
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
    // The already-open control connection was never disturbed.
    let pong = control.roundtrip(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
    drop(control);
    let metrics = server.drain();
    assert!(metrics.counter("serve.shed") >= 1);
}

#[test]
fn decode_fault_fails_one_frame_then_recovers() {
    let server = TestServer::start(test_config(1, 4));
    let mut client = Client::connect(server.addr);
    arm(&mut client, "serve.decode", 1);
    // The next frame — perfectly valid JSON — fails typed…
    let resp = client.roundtrip(r#"{"op":"ping"}"#);
    assert_eq!(error_code(&resp), Some("NX802"), "{resp:?}");
    // …on the same, still-open connection; the next frame succeeds.
    let pong = client.roundtrip(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
    drop(client);
    server.drain();
}

#[test]
fn worker_fault_crashes_one_request_quarantines_and_recovers() {
    let server = TestServer::start(test_config(1, 4));
    let mut client = Client::connect(server.addr);
    // Warm the pool so the crash has a session to quarantine.
    let warmup = client.roundtrip(&explain_line("warmup", None));
    assert_eq!(
        warmup.get("ok").and_then(Value::as_bool),
        Some(true),
        "{warmup:?}"
    );
    arm(&mut client, "serve.worker", 1);
    let crashed = client.roundtrip(&explain_line("crash", None));
    assert_eq!(error_code(&crashed), Some("NX804"), "{crashed:?}");
    // The session was quarantined: the next request rebuilds cold — and
    // succeeds on the same connection, which survived the panic.
    let after = client.roundtrip(&explain_line("after", None));
    assert_eq!(
        after.get("ok").and_then(Value::as_bool),
        Some(true),
        "{after:?}"
    );
    assert_eq!(
        after.get("warm").and_then(Value::as_bool),
        Some(false),
        "quarantine must force a cold rebuild: {after:?}"
    );
    drop(client);
    let metrics = server.drain();
    assert_eq!(metrics.counter("serve.worker.panics"), 1);
    assert!(metrics.counter("serve.pool.quarantined") >= 1);
}

#[test]
fn evict_fault_discards_the_warm_session_then_recovers() {
    let server = TestServer::start(test_config(1, 4));
    let mut client = Client::connect(server.addr);
    // Warm the pool: the evict fault only fires on a pooled entry.
    let warmup = client.roundtrip(&explain_line("warmup", None));
    assert_eq!(
        warmup.get("ok").and_then(Value::as_bool),
        Some(true),
        "{warmup:?}"
    );
    arm(&mut client, "serve.evict", 1);
    let evicted = client.roundtrip(&explain_line("evicted", None));
    assert_eq!(error_code(&evicted), Some("NX806"), "{evicted:?}");
    // The entry is gone; the next request rebuilds cold and succeeds.
    let after = client.roundtrip(&explain_line("after", None));
    assert_eq!(
        after.get("ok").and_then(Value::as_bool),
        Some(true),
        "{after:?}"
    );
    assert_eq!(after.get("warm").and_then(Value::as_bool), Some(false));
    // And once rebuilt, the session pools again.
    let warm = client.roundtrip(&explain_line("warm", None));
    assert_eq!(warm.get("warm").and_then(Value::as_bool), Some(true));
    drop(client);
    let metrics = server.drain();
    assert!(metrics.counter("serve.pool.quarantined") >= 1);
}

#[test]
fn unknown_fault_site_is_rejected_not_armed() {
    let server = TestServer::start(test_config(1, 4));
    let mut client = Client::connect(server.addr);
    let resp = client.roundtrip(r#"{"op":"arm-fault","site":"serve.nonsense"}"#);
    assert_eq!(error_code(&resp), Some("NX802"), "{resp:?}");
    let pong = client.roundtrip(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
    drop(client);
    server.drain();
}

#[test]
fn armed_fault_stays_on_the_server_that_armed_it() {
    let a = TestServer::start(test_config(1, 4));
    let b = TestServer::start(test_config(1, 4));
    let mut client_a = Client::connect(a.addr);
    let mut client_b = Client::connect(b.addr);
    arm(&mut client_a, "serve.worker", 1);
    // B never sees A's shot…
    let on_b = client_b.roundtrip(&explain_line("b", None));
    assert_eq!(
        on_b.get("ok").and_then(Value::as_bool),
        Some(true),
        "{on_b:?}"
    );
    // …which is still there for A's next request.
    let on_a = client_a.roundtrip(&explain_line("a", None));
    assert_eq!(error_code(&on_a), Some("NX804"), "{on_a:?}");
    drop((client_a, client_b));
    assert_eq!(a.drain().counter("serve.worker.panics"), 1);
    assert_eq!(b.drain().counter("serve.worker.panics"), 0);
}

#[test]
fn pipeline_sites_are_not_armable_through_the_server() {
    let server = TestServer::start(test_config(1, 4));
    let mut client = Client::connect(server.addr);
    let resp = client.roundtrip(r#"{"op":"arm-fault","site":"session.query"}"#);
    assert_eq!(error_code(&resp), Some("NX802"), "{resp:?}");
    // Nothing was armed: the cold build's synthesis, one session query,
    // still succeeds.
    let ok = client.roundtrip(&explain_line("after", None));
    assert_eq!(ok.get("ok").and_then(Value::as_bool), Some(true), "{ok:?}");
    drop(client);
    server.drain();
}
