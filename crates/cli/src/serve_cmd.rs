//! `netexpl serve` and its line-mode client `netexpl request`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use netexpl_core::Error;
use netexpl_serve::protocol::write_frame;
use netexpl_serve::{EngineConfig, Server, ServerConfig};
use serde_json::Value;

use crate::input::{Accepts, Options};

fn usage(m: String) -> Error {
    Error::Usage(m)
}

fn parse_num<T: std::str::FromStr>(opts: &Options, key: &str, default: T) -> Result<T, Error> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| usage(format!("--{key} needs a number, got `{v}`"))),
    }
}

/// What `netexpl serve` reads.
pub const SERVE: Accepts = Accepts {
    keys: &[
        "addr",
        "workers",
        "queue",
        "pool",
        "default-timeout",
        "max-timeout",
        "read-timeout",
        "max-request-bytes",
        "metrics-out",
    ],
    flags: &[],
};

/// `netexpl serve` — run the explanation service until drained.
pub fn serve(opts: &Options) -> Result<(), Error> {
    let defaults = ServerConfig::default();
    let engine_defaults = EngineConfig::default();
    let config = ServerConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        workers: parse_num(opts, "workers", defaults.workers)?,
        queue_capacity: parse_num(opts, "queue", defaults.queue_capacity)?,
        engine: EngineConfig {
            pool_capacity: parse_num(opts, "pool", engine_defaults.pool_capacity)?,
            default_timeout: Duration::from_secs(parse_num(
                opts,
                "default-timeout",
                engine_defaults.default_timeout.as_secs(),
            )?),
            max_timeout: Duration::from_secs(parse_num(
                opts,
                "max-timeout",
                engine_defaults.max_timeout.as_secs(),
            )?),
        },
        max_request_bytes: parse_num(opts, "max-request-bytes", defaults.max_request_bytes)?,
        read_timeout: Duration::from_secs(parse_num(
            opts,
            "read-timeout",
            defaults.read_timeout.as_secs(),
        )?),
        write_timeout: defaults.write_timeout,
    };
    let server = Server::bind(config)?;
    // The one line orchestrators parse for the bound port.
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    let final_metrics = server.run();
    if let Some(path) = opts.get("metrics-out") {
        std::fs::write(path, final_metrics.to_json()).map_err(|e| Error::Io {
            path: path.to_string(),
            source: e,
        })?;
    }
    println!("drained");
    Ok(())
}

/// What `netexpl request` reads.
pub const REQUEST: Accepts = Accepts {
    keys: &[
        "addr",
        "op",
        "id",
        "topology",
        "spec",
        "router",
        "workers",
        "timeout-ms",
        "site",
        "shots",
        "mode",
    ],
    flags: &["skip-lift"],
};

/// `netexpl request` — send one request line, print the response, and
/// exit with the server's error classification on failure.
pub fn request(opts: &Options) -> Result<(), Error> {
    let addr = opts.require("addr").map_err(usage)?;
    let op = opts.require("op").map_err(usage)?;

    let mut fields: Vec<(&str, Value)> = vec![("op", Value::from(op))];
    match op {
        "ping" | "stats" => {}
        "explain" | "lint" => {
            fields.push((
                "topology",
                Value::from(opts.require("topology").map_err(usage)?),
            ));
            let spec_path = opts.require("spec").map_err(usage)?;
            let spec = std::fs::read_to_string(spec_path).map_err(|e| Error::Io {
                path: spec_path.to_string(),
                source: e,
            })?;
            fields.push(("spec", Value::from(spec.as_str())));
            if let Some(router) = opts.get("router") {
                fields.push(("router", Value::from(router)));
            }
            if opts.flag("skip-lift") {
                fields.push(("skip_lift", Value::from(true)));
            }
            if let Some(w) = opts.get("workers") {
                let w: u64 = w
                    .parse()
                    .map_err(|_| usage(format!("--workers needs a number, got `{w}`")))?;
                fields.push(("workers", Value::from(w)));
            }
        }
        "arm-fault" => {
            fields.push(("site", Value::from(opts.require("site").map_err(usage)?)));
            if let Some(shots) = opts.get("shots") {
                let shots: u64 = shots
                    .parse()
                    .map_err(|_| usage(format!("--shots needs a number, got `{shots}`")))?;
                fields.push(("shots", Value::from(shots)));
            }
        }
        "shutdown" => {
            if let Some(mode) = opts.get("mode") {
                fields.push(("mode", Value::from(mode)));
            }
        }
        other => {
            return Err(usage(format!(
                "unknown --op `{other}` (ping|stats|explain|lint|arm-fault|shutdown)"
            )))
        }
    }
    if let Some(t) = opts.get("timeout-ms") {
        let t: u64 = t
            .parse()
            .map_err(|_| usage(format!("--timeout-ms needs a number, got `{t}`")))?;
        fields.push(("timeout_ms", Value::from(t)));
    }
    if let Some(id) = opts.get("id") {
        fields.push(("id", Value::from(id)));
    }

    let line = serde_json::to_string(&Value::object(fields));
    let mut stream = TcpStream::connect(addr).map_err(|e| Error::Io {
        path: addr.to_string(),
        source: e,
    })?;
    stream.set_read_timeout(Some(Duration::from_secs(300))).ok();
    stream.set_nodelay(true).ok();
    write_frame(&mut stream, &line).map_err(|e| Error::Io {
        path: addr.to_string(),
        source: e,
    })?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).map_err(|e| Error::Io {
        path: addr.to_string(),
        source: e,
    })?;
    if response.trim().is_empty() {
        return Err(Error::Serve {
            code: "NX804".into(),
            message: "server closed the connection without a response".into(),
        });
    }
    let value = serde_json::from_str(response.trim()).map_err(|e| Error::Serve {
        code: "NX802".into(),
        message: format!("unparseable server response: {e}"),
    })?;
    println!("{}", serde_json::to_string_pretty(&value));
    if value.get("ok").and_then(Value::as_bool) == Some(true) {
        return Ok(());
    }
    // Relay the server's classification verbatim: `error[NX804]: …` on
    // the client exits exactly like the server-side failure.
    let (code, message) = value
        .get("error")
        .map(|e| {
            (
                e.get("code")
                    .and_then(Value::as_str)
                    .unwrap_or("NX802")
                    .to_string(),
                e.get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("unspecified server error")
                    .to_string(),
            )
        })
        .unwrap_or_else(|| ("NX802".into(), "response carries no error object".into()));
    Err(Error::Serve { code, message })
}
