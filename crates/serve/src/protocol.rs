//! The wire protocol: newline-framed JSON over TCP.
//!
//! One request per line, one response line per request, in order. The
//! decoder is deliberately paranoid — it is the first thing untrusted
//! bytes hit — and every way it can fail maps to a *typed* error:
//! oversized frames are NX803, everything else malformed (bad UTF-8, bad
//! JSON, unknown `op`, missing fields, wrong types) is NX802. A decode
//! failure never takes down more than its own connection.
//!
//! Request shape:
//!
//! ```json
//! {"op":"explain","topology":"paper","spec":"<spec text>","router":"P1",
//!  "timeout_ms":5000,"workers":2,"skip_lift":true,"id":"my-tag"}
//! ```
//!
//! `op` is one of `ping`, `stats`, `explain`, `lint`, `arm-fault`,
//! `shutdown`. Response shape (see [`crate::server`]):
//!
//! ```json
//! {"id":"my-tag","seq":12,"ok":true,"warm":true,"duration_ms":3.1,"result":{…}}
//! {"id":"my-tag","seq":13,"ok":false,"error":{"code":"NX801","message":"…"}}
//! ```

use std::io::{BufRead, ErrorKind, Write};

use netexpl_core::Error;
use serde_json::Value;

/// Default cap on one request frame, in bytes. Specs are small text
/// files; anything beyond this is a client bug or abuse, not a workload.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 64 * 1024;

/// NX801: shed at admission, with `waiting` of `capacity` waiting places
/// taken.
pub fn overloaded(waiting: usize, capacity: usize) -> Error {
    Error::Serve {
        code: "NX801".into(),
        message: format!("server overloaded: {waiting} waiting of {capacity}, request shed"),
    }
}

/// NX802: undecodable request.
pub fn malformed(detail: impl std::fmt::Display) -> Error {
    Error::Serve {
        code: "NX802".into(),
        message: format!("malformed request: {detail}"),
    }
}

/// NX803: frame over the size limit.
pub fn oversized(limit: usize) -> Error {
    Error::Serve {
        code: "NX803".into(),
        message: format!("request exceeds {limit} byte frame limit"),
    }
}

/// NX804: the pipeline handling this request panicked.
pub fn worker_crashed(detail: &str) -> Error {
    Error::Serve {
        code: "NX804".into(),
        message: format!("worker crashed handling this request ({detail})"),
    }
}

/// NX805: draining, request refused.
pub fn draining() -> Error {
    Error::Serve {
        code: "NX805".into(),
        message: "server draining: request refused".into(),
    }
}

/// NX806: the armed `serve.evict` fault discarded the warm-session pool
/// entry this request acquired.
pub fn pool_failure(detail: impl std::fmt::Display) -> Error {
    Error::Serve {
        code: "NX806".into(),
        message: format!("warm session discarded: {detail}"),
    }
}

/// A decoded request.
#[derive(Debug, Clone)]
pub enum Op {
    /// Liveness probe; answered inline.
    Ping,
    /// Server metrics snapshot; answered inline.
    Stats,
    /// Network-wide (or, with `router`, single-router) explanation.
    Explain {
        topology: String,
        spec: String,
        router: Option<String>,
        skip_lift: bool,
        workers: usize,
    },
    /// Network-wide lint of the synthesized configuration.
    Lint {
        topology: String,
        spec: String,
        workers: usize,
    },
    /// Arm a fault site for `shots` future triggers (test/CI hook).
    ArmFault { site: String, shots: u64 },
    /// Begin draining. `cancel: true` also interrupts in-flight work.
    Shutdown { cancel: bool },
}

/// One decoded request frame.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// Client-chosen correlation tag, echoed back verbatim.
    pub id: Option<String>,
    /// Per-request deadline; the server tightens it with its own cap.
    pub timeout_ms: Option<u64>,
}

/// Read one newline-terminated frame, enforcing the size limit.
///
/// Returns `Ok(None)` on a clean EOF before any bytes (client closed),
/// `Err` with NX803 when the frame exceeds `limit` (the connection should
/// close: the stream is mid-frame), and NX802 on a half-closed connection
/// that dies mid-frame.
pub fn read_frame(reader: &mut impl BufRead, limit: usize) -> Result<Option<Vec<u8>>, Error> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Read timeout: slow or stalled client.
                return Err(malformed(format!(
                    "read timed out with {} byte(s) of an incomplete frame",
                    buf.len()
                )));
            }
            Err(e) => return Err(malformed(format!("read failed: {e}"))),
        };
        if chunk.is_empty() {
            // EOF. Clean between frames; a half-closed mid-frame cut is
            // a malformed request.
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(malformed("connection closed mid-frame"));
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if buf.len() + take > limit + 1 {
            return Err(oversized(limit));
        }
        buf.extend_from_slice(&chunk[..take]);
        reader.consume(take);
        if newline.is_some() {
            if buf.last() == Some(&b'\n') {
                buf.pop();
            }
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(Some(buf));
        }
    }
}

/// Write one frame — `line` and its newline — in a single `write_all`.
///
/// Two writes (`writeln!` on an unbuffered socket) leave as two segments,
/// and the lone newline then waits for the peer's delayed ACK before the
/// reader sees a complete frame.
pub fn write_frame(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut frame = String::with_capacity(line.len() + 1);
    frame.push_str(line);
    frame.push('\n');
    writer.write_all(frame.as_bytes())
}

fn str_field(obj: &Value, key: &str) -> Result<String, Error> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| malformed(format!("`{key}` must be a string")))
}

fn opt_u64(obj: &Value, key: &str) -> Result<Option<u64>, Error> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| malformed(format!("`{key}` must be a non-negative integer"))),
    }
}

fn opt_bool(obj: &Value, key: &str) -> Result<bool, Error> {
    match obj.get(key) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| malformed(format!("`{key}` must be a boolean"))),
    }
}

/// Decode one frame into a [`Request`].
pub fn decode(frame: &[u8]) -> Result<Request, Error> {
    let text = std::str::from_utf8(frame).map_err(|e| malformed(format!("not UTF-8: {e}")))?;
    if text.trim().is_empty() {
        return Err(malformed("empty frame"));
    }
    let value = serde_json::from_str(text).map_err(|e| malformed(format!("bad JSON: {e}")))?;
    if value.as_object().is_none() {
        return Err(malformed("request must be a JSON object"));
    }
    let id = match value.get("id") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| malformed("`id` must be a string"))?,
        ),
    };
    let timeout_ms = opt_u64(&value, "timeout_ms")?;
    let workers = opt_u64(&value, "workers")?.unwrap_or(0) as usize;
    let op = match value.get("op").and_then(Value::as_str) {
        Some("ping") => Op::Ping,
        Some("stats") => Op::Stats,
        Some("explain") => Op::Explain {
            topology: str_field(&value, "topology")?,
            spec: str_field(&value, "spec")?,
            router: match value.get("router") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| malformed("`router` must be a string"))?,
                ),
            },
            skip_lift: opt_bool(&value, "skip_lift")?,
            workers,
        },
        Some("lint") => Op::Lint {
            topology: str_field(&value, "topology")?,
            spec: str_field(&value, "spec")?,
            workers,
        },
        Some("arm-fault") => Op::ArmFault {
            site: str_field(&value, "site")?,
            shots: opt_u64(&value, "shots")?.unwrap_or(1),
        },
        Some("shutdown") => Op::Shutdown {
            cancel: match value.get("mode").and_then(Value::as_str) {
                None | Some("drain") => false,
                Some("cancel") => true,
                Some(other) => {
                    return Err(malformed(format!(
                        "unknown shutdown mode `{other}` (drain|cancel)"
                    )))
                }
            },
        },
        Some(other) => return Err(malformed(format!("unknown op `{other}`"))),
        None => return Err(malformed("missing `op`")),
    };
    Ok(Request { op, id, timeout_ms })
}

/// Render a success response line (no trailing newline).
pub fn ok_response(
    id: Option<&str>,
    seq: u64,
    warm: bool,
    duration_ms: f64,
    result: Value,
) -> String {
    serde_json::to_string(&Value::object([
        ("id", id.map_or(Value::Null, Value::from)),
        ("seq", Value::from(seq)),
        ("ok", Value::from(true)),
        ("warm", Value::from(warm)),
        ("duration_ms", Value::from(duration_ms)),
        ("result", result),
    ]))
}

/// Render an error response line (no trailing newline). Any workspace
/// error crosses the wire with its stable `NXnnn` code, so a remote
/// failure classifies exactly like a local one.
pub fn err_response(id: Option<&str>, seq: u64, err: &Error) -> String {
    serde_json::to_string(&Value::object([
        ("id", id.map_or(Value::Null, Value::from)),
        ("seq", Value::from(seq)),
        ("ok", Value::from(false)),
        (
            "error",
            Value::object([
                ("code", Value::from(err.code())),
                ("message", Value::from(err.to_string().as_str())),
            ]),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Records the size of every `write` call it receives.
    #[derive(Default)]
    struct WriteLog(Vec<usize>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_sends_line_and_newline_in_one_write() {
        let mut log = WriteLog::default();
        write_frame(&mut log, r#"{"ok":true}"#).unwrap();
        assert_eq!(log.0, vec![12], "one write carrying the whole frame");
    }

    fn decode_str(s: &str) -> Result<Request, Error> {
        decode(s.as_bytes())
    }

    #[test]
    fn decodes_every_op() {
        assert!(matches!(
            decode_str(r#"{"op":"ping"}"#).unwrap().op,
            Op::Ping
        ));
        assert!(matches!(
            decode_str(r#"{"op":"stats"}"#).unwrap().op,
            Op::Stats
        ));
        let r = decode_str(
            r#"{"op":"explain","topology":"paper","spec":"x","router":"P1","skip_lift":true,"timeout_ms":250,"id":"t1"}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_deref(), Some("t1"));
        assert_eq!(r.timeout_ms, Some(250));
        match r.op {
            Op::Explain {
                topology,
                router,
                skip_lift,
                ..
            } => {
                assert_eq!(topology, "paper");
                assert_eq!(router.as_deref(), Some("P1"));
                assert!(skip_lift);
            }
            other => panic!("wrong op: {other:?}"),
        }
        assert!(matches!(
            decode_str(r#"{"op":"lint","topology":"paper","spec":"x"}"#)
                .unwrap()
                .op,
            Op::Lint { .. }
        ));
        match decode_str(r#"{"op":"arm-fault","site":"serve.worker"}"#)
            .unwrap()
            .op
        {
            Op::ArmFault { site, shots } => {
                assert_eq!(site, "serve.worker");
                assert_eq!(shots, 1);
            }
            other => panic!("wrong op: {other:?}"),
        }
        assert!(matches!(
            decode_str(r#"{"op":"shutdown"}"#).unwrap().op,
            Op::Shutdown { cancel: false }
        ));
        assert!(matches!(
            decode_str(r#"{"op":"shutdown","mode":"cancel"}"#)
                .unwrap()
                .op,
            Op::Shutdown { cancel: true }
        ));
    }

    #[test]
    fn malformed_frames_are_nx802() {
        for bad in [
            "",
            "   ",
            "not json",
            "[1,2]",
            r#"{"op":"warp"}"#,
            r#"{"no_op":1}"#,
            r#"{"op":"explain"}"#,
            r#"{"op":"explain","topology":7,"spec":"x"}"#,
            r#"{"op":"ping","timeout_ms":-4}"#,
            r#"{"op":"ping","id":9}"#,
            r#"{"op":"shutdown","mode":"later"}"#,
        ] {
            let err = decode_str(bad).map(|_| ()).unwrap_err();
            assert_eq!(err.code(), "NX802", "input {bad:?} -> {err}");
        }
    }

    #[test]
    fn read_frame_splits_lines_and_enforces_the_limit() {
        let mut r = BufReader::new(&b"{\"op\":\"ping\"}\r\nnext"[..]);
        let frame = read_frame(&mut r, 1024).unwrap().unwrap();
        assert_eq!(frame, b"{\"op\":\"ping\"}");
        // `next` has no newline and hits EOF mid-frame.
        let err = read_frame(&mut r, 1024).map(|_| ()).unwrap_err();
        assert_eq!(err.code(), "NX802");

        let big = [b'x'; 64];
        let mut r = BufReader::new(&big[..]);
        let err = read_frame(&mut r, 16).map(|_| ()).unwrap_err();
        assert_eq!(err.code(), "NX803");

        let mut r = BufReader::new(&b""[..]);
        assert!(read_frame(&mut r, 16).unwrap().is_none());
    }

    #[test]
    fn responses_round_trip() {
        let ok = ok_response(
            Some("a"),
            3,
            true,
            1.25,
            Value::object([("x", Value::from(1u64))]),
        );
        let v = serde_json::from_str(&ok).unwrap();
        assert_eq!(v.get("seq").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("warm").and_then(Value::as_bool), Some(true));

        let err = err_response(None, 4, &overloaded(8, 8));
        let v = serde_json::from_str(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("NX801")
        );
        assert!(v.get("id").unwrap().is_null());
    }
}
