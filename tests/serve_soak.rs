//! Concurrency soak: many clients hammer the server with mixed
//! explain/lint traffic, impossible deadlines, and one armed fault. The
//! invariants: every request gets exactly one typed response, no
//! connection hangs, per-connection `seq` is strictly monotone, and the
//! server drains cleanly afterwards.
//!
//! The armed fault is a shot on this test's server, which no other server
//! in the binary can consume, so these tests need no lock.

mod common;

use common::serve::*;
use serde_json::Value;

/// Per-thread tally of what the server answered.
#[derive(Default)]
struct Tally {
    ok: usize,
    errors: Vec<String>,
}

#[test]
fn concurrent_clients_mixed_traffic_and_one_fault() {
    let server = TestServer::start(test_config(3, 8));

    // Warm the pool once so the fleet mostly exercises the warm path
    // instead of racing N identical cold builds.
    let warmup = try_roundtrip(server.addr, &explain_line("warmup", None)).unwrap();
    assert_eq!(
        warmup.get("ok").and_then(Value::as_bool),
        Some(true),
        "{warmup:?}"
    );

    // Arm exactly one worker crash; exactly one request must see NX804.
    let armed = try_roundtrip(
        server.addr,
        r#"{"op":"arm-fault","site":"serve.worker","shots":1}"#,
    )
    .unwrap();
    assert_eq!(armed.get("ok").and_then(Value::as_bool), Some(true));

    const CLIENTS: usize = 6;
    const REQUESTS: usize = 4;
    let addr = server.addr;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut tally = Tally::default();
                let mut last_seq = 0u64;
                for r in 0..REQUESTS {
                    let id = format!("c{c}-r{r}");
                    // Mixed traffic: lint, explain, and the occasional
                    // impossible 1ms deadline.
                    let line = match (c + r) % 3 {
                        0 => lint_line(&id),
                        1 => explain_line(&id, None),
                        _ => explain_line(&id, Some(1)),
                    };
                    let resp = client.roundtrip(&line);
                    // Exactly one response, echoing the id, with a
                    // strictly increasing seq on this connection.
                    assert_eq!(
                        resp.get("id").and_then(Value::as_str),
                        Some(id.as_str()),
                        "{resp:?}"
                    );
                    let seq = resp
                        .get("seq")
                        .and_then(Value::as_u64)
                        .unwrap_or_else(|| panic!("no seq: {resp:?}"));
                    assert!(seq > last_seq, "seq not monotone: {seq} after {last_seq}");
                    last_seq = seq;
                    match resp.get("ok").and_then(Value::as_bool) {
                        Some(true) => tally.ok += 1,
                        Some(false) => {
                            let code = error_code(&resp)
                                .unwrap_or_else(|| panic!("untyped failure: {resp:?}"))
                                .to_string();
                            assert!(
                                code.starts_with("NX"),
                                "error must carry an NX code: {resp:?}"
                            );
                            tally.errors.push(code);
                        }
                        None => panic!("response without ok: {resp:?}"),
                    }
                }
                tally
            })
        })
        .collect();

    let mut ok = 0usize;
    let mut errors: Vec<String> = Vec::new();
    for h in handles {
        let tally = h.join().expect("client thread panicked");
        ok += tally.ok;
        errors.extend(tally.errors);
    }

    // Every request was answered (the joins above prove no connection
    // hung), and some succeeded.
    assert_eq!(ok + errors.len(), CLIENTS * REQUESTS);
    assert!(ok > 0, "no request succeeded: {errors:?}");
    // The single armed fault produced exactly one crash response.
    let crashes = errors.iter().filter(|c| *c == "NX804").count();
    assert_eq!(crashes, 1, "errors: {errors:?}");

    let metrics = server.drain();
    assert_eq!(metrics.counter("serve.drained"), 1);
    assert_eq!(metrics.counter("serve.shutdowns"), 1);
    assert_eq!(metrics.counter("serve.worker.panics"), 1);
    assert!(metrics.counter("serve.requests") as usize >= CLIENTS * REQUESTS);
}

#[test]
fn draining_server_refuses_heavy_work_but_finishes_the_connection() {
    let server = TestServer::start(test_config(2, 4));
    let mut open = Client::connect(server.addr);
    // A control client initiates the drain.
    let resp = try_roundtrip(server.addr, r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    // The already-open connection now gets typed refusals for heavy ops…
    let refused = open.roundtrip(&explain_line("late", None));
    assert_eq!(error_code(&refused), Some("NX805"), "{refused:?}");
    // …while control ops still answer (drain visibility via stats).
    let stats = open.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(
        stats
            .get("result")
            .and_then(|r| r.get("draining"))
            .and_then(Value::as_bool),
        Some(true),
        "{stats:?}"
    );
    drop(open);
    let metrics = server.drain();
    assert!(metrics.counter("serve.shed") >= 1);
}

#[test]
fn overload_sheds_with_nx801_instead_of_queueing_unbounded() {
    // One slot, one waiting place, and a request wedged by an armed
    // crash *would* be ideal — but deterministic overload is simpler:
    // saturate with slow cold builds from distinct specs so the waiting
    // room fills, then verify at least the admission contract: every
    // response is typed, and any shed is NX801.
    let server = TestServer::start(test_config(1, 1));
    let addr = server.addr;
    let handles: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                // Distinct block names → distinct pool keys → cold builds
                // that hold the single slot long enough to pile up.
                let spec = SERVE_SPEC.replace("Req1", &format!("Req{c}x"));
                let line = format!(
                    r#"{{"op":"explain","topology":"paper","spec":"{}","skip_lift":true,"workers":1,"id":"c{c}"}}"#,
                    spec.replace('\n', "\\n")
                );
                try_roundtrip(addr, &line).unwrap()
            })
        })
        .collect();
    let responses: Vec<Value> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    let mut shed = 0usize;
    for resp in &responses {
        match resp.get("ok").and_then(Value::as_bool) {
            Some(true) => {}
            Some(false) => {
                assert_eq!(error_code(resp), Some("NX801"), "{resp:?}");
                shed += 1;
            }
            None => panic!("response without ok: {resp:?}"),
        }
    }
    // With 4 concurrent requests against 1 slot + 1 waiting place, at
    // least one must have been admitted and completed.
    assert!(shed < responses.len(), "everything shed: {responses:?}");
    let metrics = server.drain();
    assert_eq!(metrics.counter("serve.shed") as usize, shed);
}
