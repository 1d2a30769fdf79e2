//! CLI input handling: argument parsing, topology selection, spec files
//! with `@originate` directives, and rendered configuration files.
//!
//! The parsing itself lives in [`netexpl_core::problem`], shared with
//! `netexpl serve` (which receives the same spec text over a socket);
//! this module only adds the filesystem and flag-vocabulary layers.

use netexpl_core::Error;
use netexpl_topology::Topology;

pub use netexpl_core::Problem;

/// The options one subcommand reads: keys that take a value (`--key
/// value` or `--key=value`) and bare flags. A name in both lists is a
/// flag when given bare (`--trace`) and a key when given a value
/// (`--trace=json`).
#[derive(Debug)]
pub struct Accepts {
    /// Options that take a value.
    pub keys: &'static [&'static str],
    /// Options that take none.
    pub flags: &'static [&'static str],
}

/// Parsed `--key value` / `--flag` arguments.
#[derive(Debug, Default)]
pub struct Options {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Options {
    /// Parse a raw argument list against the options a subcommand reads.
    /// Any other `--name` fails, naming it: a misspelt option is an
    /// error, never silently ignored.
    pub fn parse(args: &[String], accepts: &Accepts) -> Result<Options, String> {
        let unknown = |name: &str| format!("unknown option --{name}");
        let mut out = Options::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if let Some((key, value)) = name.split_once('=') {
                    if !accepts.keys.contains(&key) {
                        return Err(unknown(key));
                    }
                    out.pairs.push((key.to_string(), value.to_string()));
                    i += 1;
                } else if accepts.flags.contains(&name) {
                    out.flags.push(name.to_string());
                    i += 1;
                } else if accepts.keys.contains(&name) {
                    let value = args
                        .get(i + 1)
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    out.pairs.push((name.to_string(), value.clone()));
                    i += 2;
                } else {
                    return Err(unknown(name));
                }
            } else {
                out.positional.push(a.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    /// The value of `--key`, if given. Repeatable keys: use [`Options::all`].
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All values of a repeatable `--key`.
    pub fn all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// A required `--key`.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Is `--flag` present?
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

/// Build a topology from its CLI name.
pub fn topology(name: &str) -> Result<Topology, Error> {
    netexpl_core::topology_by_name(name)
}

/// Load a spec file, extracting `// @originate <Router> <prefix>`
/// directives into a base configuration.
pub fn load_problem(topo: &Topology, path: &str) -> Result<Problem, Error> {
    let text = std::fs::read_to_string(path).map_err(|e| Error::Io {
        path: path.to_string(),
        source: e,
    })?;
    netexpl_core::parse_problem(topo, path, &text)
}

/// Load a rendered configuration file. Rendered configurations carry no
/// environment when their `originate` lines are absent; those adopt the
/// spec's `@originate` directives.
pub fn load_config(
    topo: &Topology,
    problem: &Problem,
    path: &str,
) -> Result<netexpl_bgp::NetworkConfig, Error> {
    let text = std::fs::read_to_string(path).map_err(|e| Error::Io {
        path: path.to_string(),
        source: e,
    })?;
    let mut cfg = netexpl_bgp::parse_config(topo, &text).map_err(Error::ConfigParse)?;
    if cfg.originations().is_empty() {
        for o in problem.base.originations() {
            cfg.originate(o.router, o.prefix);
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parsing() {
        let args = strings(&[
            "--topology",
            "paper",
            "--json",
            "--fail",
            "A-B",
            "--fail",
            "C-D",
            "pos",
        ]);
        let accepts = Accepts {
            keys: &["topology", "fail", "missing"],
            flags: &["json", "skip-lift"],
        };
        let o = Options::parse(&args, &accepts).unwrap();
        assert_eq!(o.get("topology"), Some("paper"));
        assert!(o.flag("json"));
        assert!(!o.flag("skip-lift"));
        assert_eq!(o.all("fail"), vec!["A-B", "C-D"]);
        assert_eq!(o.positional(), &["pos".to_string()]);
        assert!(o.require("missing").is_err());
    }

    #[test]
    fn options_key_equals_value() {
        let args = strings(&["--trace=json", "--trace", "--metrics-out=m.json"]);
        let accepts = Accepts {
            keys: &["trace", "metrics-out"],
            flags: &["trace"],
        };
        let o = Options::parse(&args, &accepts).unwrap();
        // `--trace=json` parses as a pair even though `trace` is a flag name;
        // bare `--trace` still registers as a flag.
        assert_eq!(o.get("trace"), Some("json"));
        assert!(o.flag("trace"));
        assert_eq!(o.get("metrics-out"), Some("m.json"));
    }

    /// A name the subcommand does not read fails, and the error names
    /// it, whichever form it takes.
    #[test]
    fn unknown_options_are_rejected_by_name() {
        let accepts = Accepts {
            keys: &["workers"],
            flags: &["json"],
        };
        for args in [
            &["--wrkers", "2"][..],
            &["--wrkers=2"],
            &["--json=1"],
            &["--workers", "2", "--wrkers"],
        ] {
            let err = Options::parse(&strings(args), &accepts).unwrap_err();
            assert!(err.contains("--wrkers") || err.contains("--json"), "{err}");
        }
        assert!(Options::parse(&strings(&["--workers=2", "--json"]), &accepts).is_ok());
    }

    #[test]
    fn topology_names() {
        assert_eq!(topology("paper").unwrap().num_routers(), 6);
        assert_eq!(topology("line:3").unwrap().num_routers(), 5);
        assert_eq!(topology("ring:4").unwrap().num_routers(), 6);
        assert_eq!(topology("star:3").unwrap().num_routers(), 6);
        assert!(topology("mesh:3").is_err());
        assert!(topology("bogus").is_err());
        assert!(topology("line:x").is_err());
    }
}
