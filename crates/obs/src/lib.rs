//! netexpl-obs: zero-dependency observability for the explain pipeline.
//!
//! Three pieces, per the paper's pipeline (symbolize → seed → simplify →
//! lift, Fig. 6):
//!
//! - **Spans** ([`Span`]): nested wall-clock timings with per-span
//!   attributes. `Span::enter("simplify")` opens a frame; dropping the
//!   guard closes it and emits a [`SpanRecord`] to every sink.
//! - **Metrics** ([`MetricsRegistry`]): counters, gauges, and
//!   fixed-bucket latency histograms, reported via [`counter_add`],
//!   [`gauge_set`], and [`observe_ms`]. Every span close also feeds a
//!   `span.<name>.ms` histogram, so stage timings come for free.
//! - **Sinks** ([`Sink`]): human tree ([`HumanSink`]), JSON-lines
//!   ([`JsonLinesSink`]), in-memory for tests and bench ([`MemorySink`]),
//!   and a metrics file writer ([`FileMetricsSink`]).
//!
//! Sessions are thread-local: [`install`] activates a set of sinks on the
//! current thread and returns an [`ObsGuard`]; dropping the guard flushes
//! metrics to every sink and deactivates collection. When nothing is
//! installed every entry point reduces to one thread-local check, so
//! instrumented code paths stay hot-loop safe.

pub mod chrome;
mod json;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod span;

pub use chrome::ChromeTraceSink;
pub use metrics::{Histogram, MetricsRegistry, SharedMetrics, DEFAULT_LATENCY_BUCKETS_MS};
pub use profile::ProfileReport;
pub use sink::{
    FileMetricsSink, HumanSink, JsonLinesSink, MemoryData, MemoryHandle, MemorySink, Sink,
};
pub use span::{AttrValue, SampleRecord, Span, SpanRecord};

use std::cell::RefCell;
use std::time::Instant;

struct OpenSpan {
    id: u64,
    name: &'static str,
    start: Instant,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// Thread-local collector state: the open-span stack, the installed
/// sinks, and the metrics registry.
pub(crate) struct Collector {
    epoch: Instant,
    track: u32,
    next_id: u64,
    stack: Vec<OpenSpan>,
    sinks: Vec<Box<dyn Sink>>,
    metrics: MetricsRegistry,
}

impl Collector {
    fn new(sinks: Vec<Box<dyn Sink>>) -> Collector {
        Collector::at(sinks, Instant::now(), 0)
    }

    fn at(sinks: Vec<Box<dyn Sink>>, epoch: Instant, track: u32) -> Collector {
        Collector {
            epoch,
            track,
            next_id: 0,
            stack: Vec::new(),
            sinks,
            metrics: MetricsRegistry::new(),
        }
    }

    pub(crate) fn open_span(&mut self, name: &'static str) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.stack.push(OpenSpan {
            id,
            name,
            start: Instant::now(),
            attrs: Vec::new(),
        });
        id
    }

    pub(crate) fn span_attr(&mut self, id: u64, key: &'static str, value: AttrValue) {
        if let Some(open) = self.stack.iter_mut().rev().find(|s| s.id == id) {
            open.attrs.push((key, value));
        }
    }

    pub(crate) fn close_span(&mut self, id: u64) {
        // Defensive: pop until the matching frame. Guards drop in LIFO
        // order under normal control flow, so the loop body runs once;
        // a leaked guard just closes its abandoned children with it.
        while let Some(open) = self.stack.pop() {
            let found = open.id == id;
            self.emit_closed(open);
            if found {
                break;
            }
        }
    }

    fn emit_closed(&mut self, open: OpenSpan) {
        let wall_us = open.start.elapsed().as_micros() as u64;
        let record = SpanRecord {
            id: open.id,
            parent: self.stack.last().map(|p| p.id),
            name: open.name,
            depth: self.stack.len() as u32,
            track: self.track,
            start_us: open.start.duration_since(self.epoch).as_micros() as u64,
            wall_us,
            attrs: open.attrs,
        };
        self.metrics
            .observe(&format!("span.{}.ms", record.name), record.wall_ms());
        for sink in &mut self.sinks {
            sink.on_span(&record);
        }
    }

    fn emit_sample(&mut self, name: &'static str, values: &[(&'static str, f64)]) {
        let record = SampleRecord {
            span: self.stack.last().map(|s| s.id),
            track: self.track,
            at_us: self.epoch.elapsed().as_micros() as u64,
            name,
            values: values.to_vec(),
        };
        for sink in &mut self.sinks {
            sink.on_sample(&record);
        }
    }

    /// Replay a worker session's captured records into this session: span
    /// and sample ids are rebased past this collector's id space, orphan
    /// records are re-parented under `parent` (an open span of *this*
    /// session), and everything is re-emitted to every sink. The worker's
    /// metrics merge in; its `span.<name>.ms` histograms arrive through
    /// that merge, so replayed spans are deliberately not re-observed.
    fn absorb(&mut self, data: &MemoryData, parent: Option<u64>) {
        let base = self.next_id;
        let base_depth = match parent {
            Some(pid) => self
                .stack
                .iter()
                .position(|s| s.id == pid)
                .map(|i| i as u32 + 1)
                .unwrap_or(0),
            None => 0,
        };
        let mut high = self.next_id;
        for rec in &data.spans {
            let mut rec = rec.clone();
            rec.id += base;
            rec.parent = rec.parent.map(|p| p + base).or(parent);
            rec.depth += base_depth;
            high = high.max(rec.id);
            for sink in &mut self.sinks {
                sink.on_span(&rec);
            }
        }
        for sample in &data.samples {
            let mut sample = sample.clone();
            sample.span = sample.span.map(|s| s + base).or(parent);
            for sink in &mut self.sinks {
                sink.on_sample(&sample);
            }
        }
        for note in &data.notes {
            for sink in &mut self.sinks {
                sink.on_note(note);
            }
        }
        self.next_id = high;
        if let Some(metrics) = &data.metrics {
            self.metrics.merge(metrics);
        }
    }

    fn finish(mut self) {
        while let Some(open) = self.stack.pop() {
            self.emit_closed(open);
        }
        for sink in &mut self.sinks {
            sink.on_flush(&self.metrics);
        }
    }
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Run `f` against the installed collector, if any. The borrow is held
/// for the duration of `f`, so sinks must not call back into this API
/// (they receive everything they need as arguments).
pub(crate) fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> Option<R> {
    COLLECTOR.with(|slot| slot.borrow_mut().as_mut().map(f))
}

/// Error returned by [`install`] when a session is already active on
/// this thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlreadyInstalled;

impl std::fmt::Display for AlreadyInstalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "an observability session is already installed on this thread"
        )
    }
}

impl std::error::Error for AlreadyInstalled {}

/// Ends the observability session on drop: closes any spans still open,
/// flushes metrics to every sink, and deactivates collection.
#[must_use = "dropping the guard ends the observability session"]
pub struct ObsGuard {
    _private: (),
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        if let Some(collector) = COLLECTOR.with(|slot| slot.borrow_mut().take()) {
            collector.finish();
        }
    }
}

/// Activate an observability session on the current thread with the
/// given sinks. Returns a guard that flushes and deactivates on drop.
pub fn install(sinks: Vec<Box<dyn Sink>>) -> Result<ObsGuard, AlreadyInstalled> {
    COLLECTOR.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_some() {
            return Err(AlreadyInstalled);
        }
        *slot = Some(Collector::new(sinks));
        Ok(ObsGuard { _private: () })
    })
}

/// Activate a session backed by a [`MemorySink`] and return both the
/// guard and the handle to read captured data. Panics if a session is
/// already active (intended for tests and bench harnesses).
pub fn install_memory() -> (ObsGuard, MemoryHandle) {
    let (sink, handle) = MemorySink::new();
    let guard = install(vec![Box::new(sink)]).expect("observability session already installed");
    (guard, handle)
}

/// Activate a memory-backed *worker* session on the current thread,
/// time-aligned with a parent session: `epoch` should come from the
/// parent's [`session_epoch`] so both sessions share a timestamp origin,
/// and `track` tags every record for lane separation (use a nonzero,
/// per-worker value; the main session is track 0). After the worker
/// finishes and its guard drops, feed the handle's data back to the
/// parent thread via [`absorb`].
pub fn install_memory_worker(epoch: Instant, track: u32) -> (ObsGuard, MemoryHandle) {
    let (sink, handle) = MemorySink::new();
    let guard = COLLECTOR.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_some() {
            return Err(AlreadyInstalled);
        }
        *slot = Some(Collector::at(vec![Box::new(sink)], epoch, track));
        Ok(ObsGuard { _private: () })
    });
    (
        guard.expect("observability session already installed"),
        handle,
    )
}

/// The installed session's timestamp origin, for handing to
/// [`install_memory_worker`] on spawned threads.
pub fn session_epoch() -> Option<Instant> {
    with_collector(|c| c.epoch)
}

/// Replay a worker session's captured data into the current session,
/// re-parenting its root spans under the open span with id `parent`
/// (see [`Span::id`]). No-op when no session is active.
pub fn absorb(data: &MemoryData, parent: Option<u64>) {
    with_collector(|c| c.absorb(data, parent));
}

/// Emit a point-in-time sample attached to the innermost open span.
/// No-op when no session is active.
pub fn sample(name: &'static str, values: &[(&'static str, f64)]) {
    with_collector(|c| c.emit_sample(name, values));
}

/// Is an observability session active on this thread?
pub fn enabled() -> bool {
    COLLECTOR.with(|slot| slot.borrow().is_some())
}

/// Add `by` to counter `name`. No-op when no session is active.
pub fn counter_add(name: &str, by: u64) {
    with_collector(|c| c.metrics.counter_add(name, by));
}

/// Set gauge `name` to `value`. No-op when no session is active.
pub fn gauge_set(name: &str, value: i64) {
    with_collector(|c| c.metrics.gauge_set(name, value));
}

/// Record `ms` into histogram `name`. No-op when no session is active.
pub fn observe_ms(name: &str, ms: f64) {
    with_collector(|c| c.metrics.observe(name, ms));
}

/// Emit a diagnostic note. Routed to the installed sinks when a session
/// is active; otherwise printed to stderr, so diagnostics never land on
/// stdout either way.
pub fn note(msg: &str) {
    let routed = with_collector(|c| {
        for sink in &mut c.sinks {
            sink.on_note(msg);
        }
    });
    if routed.is_none() {
        eprintln!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        assert!(!enabled());
        let s = Span::enter("anything");
        assert!(!s.is_recording());
        s.attr("k", 1u64);
        counter_add("c", 1);
        gauge_set("g", 1);
        observe_ms("h", 1.0);
        drop(s);
        assert!(!enabled());
    }

    #[test]
    fn nested_span_timing_monotonicity() {
        let (guard, handle) = install_memory();
        {
            let outer = Span::enter("outer");
            outer.attr("k", "v");
            {
                let inner = Span::enter("inner");
                inner.attr("n", 42u64);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        drop(guard);

        let spans = handle.spans();
        assert_eq!(spans.len(), 2);
        // Close order: inner first.
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.depth, 0);
        // Monotonicity: the child opens no earlier than the parent, ends
        // no later, and cannot outlast it.
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.wall_us <= outer.wall_us);
        assert!(inner.start_us + inner.wall_us <= outer.start_us + outer.wall_us);
        // The sleep makes both spans measurably non-zero.
        assert!(inner.wall_us >= 1000);
    }

    #[test]
    fn span_close_feeds_latency_histogram() {
        let (guard, handle) = install_memory();
        {
            let _s = Span::enter("stage");
        }
        {
            let _s = Span::enter("stage");
        }
        drop(guard);
        let metrics = handle.metrics().expect("flushed");
        let h = metrics.histogram("span.stage.ms").expect("histogram");
        assert_eq!(h.count, 2);
    }

    #[test]
    fn metrics_free_functions_record_when_enabled() {
        let (guard, handle) = install_memory();
        counter_add("sat.decisions", 5);
        counter_add("sat.decisions", 2);
        gauge_set("seed.conjuncts", 1234);
        observe_ms("span.session.query.ms", 0.2);
        drop(guard);
        let m = handle.metrics().unwrap();
        assert_eq!(m.counter("sat.decisions"), 7);
        assert_eq!(m.gauge("seed.conjuncts"), Some(1234));
        assert_eq!(m.histogram("span.session.query.ms").unwrap().count, 1);
    }

    #[test]
    fn notes_route_to_sinks() {
        let (guard, handle) = install_memory();
        note("self-check: fine");
        drop(guard);
        assert_eq!(handle.notes(), vec!["self-check: fine".to_string()]);
    }

    #[test]
    fn samples_attach_to_the_open_span() {
        let (guard, handle) = install_memory();
        {
            let s = Span::enter("query");
            sample("sat.timeline", &[("conflicts", 128.0), ("learned", 16.0)]);
            drop(s);
        }
        sample("sat.timeline", &[("conflicts", 1.0)]);
        drop(guard);
        let samples = handle.samples();
        assert_eq!(samples.len(), 2);
        let spans = handle.spans();
        assert_eq!(samples[0].span, Some(spans[0].id));
        assert_eq!(samples[0].value("conflicts"), Some(128.0));
        assert_eq!(samples[1].span, None);
    }

    #[test]
    fn worker_session_absorbs_under_parent_span() {
        let (guard, handle) = install_memory();
        let root = Span::enter("explain_all");
        let root_id = root.id();
        let epoch = session_epoch().unwrap();
        let worker = std::thread::spawn(move || {
            let (wguard, whandle) = install_memory_worker(epoch, 3);
            {
                let s = Span::enter("explain");
                s.attr("router", "R3");
                let _inner = Span::enter("lift");
            }
            counter_add("lift.candidate_checks", 5);
            drop(wguard);
            whandle.data()
        })
        .join()
        .unwrap();
        absorb(&worker, root_id);
        drop(root);
        drop(guard);

        let spans = handle.spans();
        assert_eq!(spans.len(), 3); // lift, explain, explain_all
        let explain = spans.iter().find(|s| s.name == "explain").unwrap();
        let lift = spans.iter().find(|s| s.name == "lift").unwrap();
        let root = spans.iter().find(|s| s.name == "explain_all").unwrap();
        // Worker roots hang off the absorbing span; ids were rebased.
        assert_eq!(explain.parent, Some(root.id));
        assert_eq!(lift.parent, Some(explain.id));
        assert_ne!(explain.id, root.id);
        assert_eq!(explain.track, 3);
        assert_eq!(root.track, 0);
        // Shared epoch: worker spans sit inside the parent's window.
        assert!(explain.start_us >= root.start_us);
        assert!(explain.start_us + explain.wall_us <= root.start_us + root.wall_us);
        // Worker metrics merged, including its span.*.ms histograms.
        let metrics = handle.metrics().unwrap();
        assert_eq!(metrics.counter("lift.candidate_checks"), 5);
        assert_eq!(metrics.histogram("span.explain.ms").unwrap().count, 1);
    }

    #[test]
    fn install_twice_fails() {
        let (guard, _handle) = install_memory();
        assert!(install(Vec::new()).is_err());
        drop(guard);
        // After the guard drops a fresh session can start.
        let g2 = install(Vec::new()).unwrap();
        drop(g2);
    }

    #[test]
    fn guard_drop_closes_leaked_spans() {
        let (guard, handle) = install_memory();
        let leaked = Span::enter("leaked");
        drop(guard); // session ends while the span is still open
        drop(leaked); // guard outliving the session is a no-op
        let spans = handle.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "leaked");
    }

    #[test]
    fn out_of_order_drop_is_defensive() {
        let (guard, handle) = install_memory();
        let a = Span::enter("a");
        let b = Span::enter("b");
        drop(a); // closes b (abandoned child) then a
        drop(b); // already closed: no-op
        drop(guard);
        let spans = handle.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "b");
        assert_eq!(spans[1].name, "a");
    }
}
