//! Spans: named, nested wall-clock timings with key/value attributes.
//!
//! A [`Span`] is an RAII guard: [`Span::enter`] pushes a frame onto the
//! thread-local span stack and `Drop` pops it, emitting a [`SpanRecord`]
//! to every installed sink. When no collector is installed the guard is
//! inert and `enter` costs one thread-local check — pipeline code can be
//! instrumented unconditionally.

use crate::json::{escape, fmt_f64};
use crate::with_collector;

/// An attribute value attached to a span (or rendered into a JSON line).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (kept exact; sizes and counts land here).
    UInt(u64),
    /// Floating point (timings, ratios).
    Float(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text.
    Str(String),
}

impl AttrValue {
    /// Render as a JSON fragment.
    pub fn to_json(&self) -> String {
        match self {
            AttrValue::Int(v) => v.to_string(),
            AttrValue::UInt(v) => v.to_string(),
            AttrValue::Float(v) => fmt_f64(*v),
            AttrValue::Bool(v) => v.to_string(),
            AttrValue::Str(s) => format!("\"{}\"", escape(s)),
        }
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::UInt(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v:.3}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

macro_rules! attr_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for AttrValue {
            fn from(v: $t) -> AttrValue {
                AttrValue::$variant(v as $conv)
            }
        })*
    };
}

attr_from! {
    i64 => Int as i64,
    i32 => Int as i64,
    u64 => UInt as u64,
    u32 => UInt as u64,
    usize => UInt as u64,
    f64 => Float as f64,
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

/// A completed span, as delivered to sinks.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Collector-unique span id (1-based, in open order).
    pub id: u64,
    /// The enclosing span's id, if any.
    pub parent: Option<u64>,
    /// Span name (a static label like `"simplify"`).
    pub name: &'static str,
    /// Nesting depth at open time (0 = root).
    pub depth: u32,
    /// Execution track (0 = the main session thread; worker sessions
    /// absorbed via [`crate::absorb`] keep the track they were installed
    /// with, which becomes a thread lane in the Chrome trace).
    pub track: u32,
    /// Open time in microseconds since the collector was installed.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub wall_us: u64,
    /// Key/value attributes recorded while the span was open.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Wall-clock duration in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_us as f64 / 1000.0
    }

    /// The value of attribute `key`, if recorded.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Render the record as one JSON-lines event (no trailing newline).
    ///
    /// Schema: `{"type":"span","id":N,"parent":N|null,"name":S,"depth":N,
    /// "track":N,"start_us":N,"wall_us":N,"attrs":{...}}`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96 + 24 * self.attrs.len());
        out.push_str("{\"type\":\"span\",\"id\":");
        out.push_str(&self.id.to_string());
        out.push_str(",\"parent\":");
        match self.parent {
            Some(p) => out.push_str(&p.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"name\":\"");
        out.push_str(&escape(self.name));
        out.push_str("\",\"depth\":");
        out.push_str(&self.depth.to_string());
        out.push_str(",\"track\":");
        out.push_str(&self.track.to_string());
        out.push_str(",\"start_us\":");
        out.push_str(&self.start_us.to_string());
        out.push_str(",\"wall_us\":");
        out.push_str(&self.wall_us.to_string());
        out.push_str(",\"attrs\":{");
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape(k));
            out.push_str("\":");
            out.push_str(&v.to_json());
        }
        out.push_str("}}");
        out
    }
}

/// A point-in-time measurement attached to the enclosing span: the CDCL
/// solver emits one every 256 conflicts (conflicts, decisions,
/// propagations, learned clauses, LBD distribution, restarts), giving a
/// timeline *inside* a long `session.query` span. Rendered as counter
/// events on the owning track in the Chrome trace.
#[derive(Debug, Clone)]
pub struct SampleRecord {
    /// The innermost span open when the sample was taken, if any.
    pub span: Option<u64>,
    /// Execution track of the emitting session (see [`SpanRecord::track`]).
    pub track: u32,
    /// Sample time in microseconds since the collector was installed.
    pub at_us: u64,
    /// Sample stream name (e.g. `"sat.timeline"`).
    pub name: &'static str,
    /// Named values at this instant.
    pub values: Vec<(&'static str, f64)>,
}

impl SampleRecord {
    /// The value named `key`, if present.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Render the record as one JSON-lines event (no trailing newline).
    ///
    /// Schema: `{"type":"sample","name":S,"span":N|null,"track":N,
    /// "at_us":N,"values":{...}}`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(80 + 24 * self.values.len());
        out.push_str("{\"type\":\"sample\",\"name\":\"");
        out.push_str(&escape(self.name));
        out.push_str("\",\"span\":");
        match self.span {
            Some(s) => out.push_str(&s.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"track\":");
        out.push_str(&self.track.to_string());
        out.push_str(",\"at_us\":");
        out.push_str(&self.at_us.to_string());
        out.push_str(",\"values\":{");
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape(k));
            out.push_str("\":");
            out.push_str(&fmt_f64(*v));
        }
        out.push_str("}}");
        out
    }
}

/// An open span guard. Created by [`Span::enter`]; records its frame on
/// drop. Inert (near-zero cost) when no collector is installed.
#[derive(Debug)]
pub struct Span {
    /// The id assigned at open, or `None` when tracing is disabled.
    id: Option<u64>,
}

impl Span {
    /// Open a span named `name` nested under the current span, if any.
    pub fn enter(name: &'static str) -> Span {
        let id = with_collector(|c| c.open_span(name));
        Span { id }
    }

    /// An inert span (used where a span is required structurally but the
    /// caller has already decided not to record).
    pub fn disabled() -> Span {
        Span { id: None }
    }

    /// Is this guard actually recording?
    pub fn is_recording(&self) -> bool {
        self.id.is_some()
    }

    /// The collector-assigned id of this span, if recording. Useful as the
    /// `parent` argument to [`crate::absorb`] when stitching worker-thread
    /// sessions under the span that spawned them.
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Record a key/value attribute on this span.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        let Some(id) = self.id else { return };
        let value = value.into();
        with_collector(|c| c.span_attr(id, key, value));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            with_collector(|c| c.close_span(id));
        }
    }
}
