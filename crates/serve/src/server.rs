//! The TCP server: accept loop, connection threads, and an admission
//! gate around the [`Engine`].
//!
//! Threading model:
//!
//! - The **acceptor** (the thread calling [`Server::run`]) polls a
//!   nonblocking listener. Draining stops the accepts; the loop then
//!   waits for the connections to wind down before returning.
//! - One **connection thread** per client reads frames, answers control
//!   ops (`ping`, `stats`, `arm-fault`, `shutdown`) inline, and runs
//!   heavy ops (`explain`, `lint`) itself once the `Admission` gate
//!   gives it a slot: at most `workers` heavy requests run at once, at
//!   most `queue_capacity` more wait for a slot, and the next one is
//!   shed with NX801 *at admission* — the client hears about overload
//!   immediately instead of timing out.
//! - Each heavy request runs inside `catch_unwind`: a panicking pipeline
//!   produces NX804 for *that request only*, quarantines the session it
//!   was using, and the connection keeps serving — a panicking request
//!   can never take the listener down.
//!
//! Drain (`shutdown` request): stop admitting (heavy ops see NX805, new
//! connections are refused), let running and waiting requests finish —
//! `mode=cancel` additionally fires the drain [`CancelToken`] so
//! budget-governed work interrupts cooperatively — then wait for the
//! connections to close and return from [`Server::run`] with the final
//! metrics. A running request lives on its connection's thread, so the
//! connection count covers it. There is no signal handler (the workspace
//! forbids `unsafe`, which `signal(2)` hooks need); orchestrators should
//! send the `shutdown` op instead of SIGTERM.
//!
//! [`CancelToken`]: netexpl_logic::budget::CancelToken

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netexpl_core::Error;
use netexpl_faults::sites;
use netexpl_obs::SharedMetrics;
use serde_json::Value;

use crate::engine::{Engine, EngineConfig, Handled};
use crate::protocol::{
    self, decode, draining, err_response, malformed, ok_response, overloaded, read_frame,
    worker_crashed, write_frame, Op, Request,
};
use crate::queue::Admission;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Heavy requests that run at once.
    pub workers: usize,
    /// Heavy requests that may wait for a running one to finish; the
    /// next is shed. The admission-control knob.
    pub queue_capacity: usize,
    /// Engine knobs (pool size, timeouts).
    pub engine: EngineConfig,
    /// Frame size limit.
    pub max_request_bytes: usize,
    /// Idle-client read timeout.
    pub read_timeout: Duration,
    /// Slow-client write timeout.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 8,
            engine: EngineConfig::default(),
            max_request_bytes: protocol::DEFAULT_MAX_REQUEST_BYTES,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
        }
    }
}

struct Shared {
    config: ServerConfig,
    engine: Engine,
    admission: Admission,
    metrics: SharedMetrics,
    /// Set by the `shutdown` op; the acceptor polls it.
    draining: AtomicBool,
    /// Globally monotone response sequence.
    seq: AtomicU64,
    /// Live connection threads, running requests included.
    connections: AtomicUsize,
}

impl Shared {
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst) + 1
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener. The engine and pool are created here; nothing
    /// runs until [`Server::run`].
    pub fn bind(config: ServerConfig) -> Result<Server, Error> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| Error::Io {
            path: config.addr.clone(),
            source: e,
        })?;
        listener.set_nonblocking(true).map_err(|e| Error::Io {
            path: config.addr.clone(),
            source: e,
        })?;
        let metrics = SharedMetrics::new();
        let engine = Engine::new(config.engine.clone(), metrics.clone());
        let admission = Admission::new(config.workers, config.queue_capacity);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                engine,
                admission,
                metrics,
                draining: AtomicBool::new(false),
                seq: AtomicU64::new(0),
                connections: AtomicUsize::new(0),
                config,
            }),
        })
    }

    /// The bound address (with the real port when 0 was asked).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener
            .local_addr()
            .expect("listener has a local address")
    }

    /// The server's metrics handle (tests read counters through this).
    pub fn metrics(&self) -> SharedMetrics {
        self.shared.metrics.clone()
    }

    /// Run until drained. Blocks; returns the final metrics snapshot.
    pub fn run(self) -> netexpl_obs::MetricsRegistry {
        let shared = self.shared;

        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Replies are single small frames: send each at once
                    // instead of holding it back for an ACK (Nagle).
                    let _ = stream.set_nodelay(true);
                    if shared.draining.load(Ordering::SeqCst) {
                        refuse(stream, &shared);
                        continue;
                    }
                    if shared.engine.fault(sites::SERVE_ACCEPT) {
                        // Injected admission failure: the connection gets
                        // a typed shed and closes; the server lives on.
                        shared.metrics.counter_add("serve.shed", 1);
                        let seq = shared.next_seq();
                        let mut s = stream;
                        let _ = s.set_write_timeout(Some(shared.config.write_timeout));
                        let _ = write_frame(
                            &mut s,
                            &err_response(
                                None,
                                seq,
                                &overloaded(
                                    shared.config.queue_capacity,
                                    shared.config.queue_capacity,
                                ),
                            ),
                        );
                        continue;
                    }
                    shared.connections.fetch_add(1, Ordering::SeqCst);
                    shared.metrics.counter_add("serve.connections", 1);
                    let conn_shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        handle_connection(stream, &conn_shared);
                        conn_shared.connections.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if shared.draining.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }

        // Draining: connections stop taking heavy requests (NX805); wait
        // for them to finish the ones they are running and close.
        let drain_deadline = Instant::now() + shared.config.engine.max_timeout;
        while shared.connections.load(Ordering::SeqCst) > 0 && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        shared.metrics.counter_add("serve.drained", 1);
        shared.metrics.snapshot()
    }
}

/// Refuse a connection accepted mid-drain with a single typed line.
fn refuse(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let seq = shared.next_seq();
    let _ = write_frame(&mut stream, &err_response(None, seq, &draining()));
}

/// Serve one connection until EOF, a fatal frame error, or drain.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    loop {
        let frame = match read_frame(&mut reader, shared.config.max_request_bytes) {
            Ok(Some(f)) => f,
            Ok(None) => return, // clean EOF
            Err(e) => {
                // NX802/NX803: answer typed, then close — the stream
                // position is unreliable mid-frame.
                let seq = shared.next_seq();
                shared.metrics.counter_add("serve.requests.rejected", 1);
                let _ = write_frame(&mut writer, &err_response(None, seq, &e));
                return;
            }
        };
        let decoded = if shared.engine.fault(sites::SERVE_DECODE) {
            Err(malformed("fault injected at serve.decode"))
        } else {
            decode(&frame)
        };
        let request = match decoded {
            Ok(r) => r,
            Err(e) => {
                // Framing is intact: answer typed and keep serving this
                // connection.
                let seq = shared.next_seq();
                shared.metrics.counter_add("serve.requests.rejected", 1);
                let _ = write_frame(&mut writer, &err_response(None, seq, &e));
                continue;
            }
        };
        let line = respond(&request, shared);
        if write_frame(&mut writer, &line).is_err() {
            return; // slow/gone client
        }
        if matches!(request.op, Op::Shutdown { .. }) {
            return;
        }
    }
}

/// Produce the response line for one decoded request.
fn respond(request: &Request, shared: &Shared) -> String {
    let started = Instant::now();
    let id = request.id.as_deref();
    shared.metrics.counter_add("serve.requests", 1);

    match &request.op {
        Op::Ping => {
            let seq = shared.next_seq();
            ok_response(
                id,
                seq,
                false,
                ms(started),
                Value::object([("pong", Value::from(true))]),
            )
        }
        Op::Stats => {
            let seq = shared.next_seq();
            let snapshot = shared.metrics.snapshot();
            let stats = serde_json::from_str(&snapshot.to_json()).unwrap_or(Value::Null);
            let result = Value::object([
                ("pool_sessions", Value::from(shared.engine.pool_len())),
                ("queue_depth", Value::from(shared.admission.waiting())),
                (
                    "draining",
                    Value::from(shared.draining.load(Ordering::SeqCst)),
                ),
                ("metrics", stats),
            ]);
            ok_response(id, seq, false, ms(started), result)
        }
        Op::ArmFault { site, shots } => {
            let seq = shared.next_seq();
            if let Err(e) = shared.engine.arm_fault(site, *shots) {
                return err_response(id, seq, &e);
            }
            ok_response(
                id,
                seq,
                false,
                ms(started),
                Value::object([
                    ("armed", Value::from(site.as_str())),
                    ("shots", Value::from(*shots)),
                ]),
            )
        }
        Op::Shutdown { cancel } => {
            let seq = shared.next_seq();
            shared.draining.store(true, Ordering::SeqCst);
            if *cancel {
                shared.engine.drain_token().cancel();
            }
            shared.metrics.counter_add("serve.shutdowns", 1);
            ok_response(
                id,
                seq,
                false,
                ms(started),
                Value::object([(
                    "draining",
                    Value::from(if *cancel { "cancel" } else { "drain" }),
                )]),
            )
        }
        op @ (Op::Explain { .. } | Op::Lint { .. }) => {
            if shared.draining.load(Ordering::SeqCst) {
                let seq = shared.next_seq();
                shared.metrics.counter_add("serve.shed", 1);
                return err_response(id, seq, &draining());
            }
            let Some(outcome) = run_heavy(op, request.timeout_ms, shared) else {
                let seq = shared.next_seq();
                shared.metrics.counter_add("serve.shed", 1);
                return err_response(
                    id,
                    seq,
                    &overloaded(shared.admission.waiting(), shared.config.queue_capacity),
                );
            };
            let seq = shared.next_seq();
            match outcome {
                Ok(handled) => {
                    shared.metrics.observe("serve.request_ms", ms(started));
                    ok_response(id, seq, handled.warm, ms(started), handled.result)
                }
                Err(e) => {
                    shared.metrics.counter_add("serve.requests.failed", 1);
                    err_response(id, seq, &e)
                }
            }
        }
    }
}

/// Run one heavy request on this thread once admission grants a slot;
/// `None` means it was shed. The slot is given back before the reply is
/// written, so a slow client never holds one.
fn run_heavy(op: &Op, timeout_ms: Option<u64>, shared: &Shared) -> Option<Result<Handled, Error>> {
    let _permit = shared.admission.enter(&shared.metrics)?;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if shared.engine.fault(sites::SERVE_WORKER) {
            panic!("fault injected at serve.worker");
        }
        shared.engine.handle(op, timeout_ms)
    }));
    Some(outcome.unwrap_or_else(|payload| {
        // The pipeline panicked: this request fails typed, the session it
        // touched is quarantined, the connection carries on. The panic
        // payload is best-effort text.
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into());
        shared.engine.quarantine_for(op);
        shared.metrics.counter_add("serve.worker.panics", 1);
        Err(worker_crashed(&detail))
    }))
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}
