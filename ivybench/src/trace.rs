//! The benchmark's own span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions (the program itself is not instrumented). A span has a
//! name, a start and end (seconds since the run began), the span that
//! caused it, and the identifier of the operation it belongs to. Spans stay
//! in memory and are written out once, when the run ends.
//!
//! Self time is a span's duration minus the durations of its children.
//! Most children run inside their parent's interval; the in-process
//! *replays* that attribute a daemon round trip to its layers run right
//! after the round trip instead, and their durations are charged to the
//! round trip the same way.

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, `<crate>.<metric>` style.
    pub name: &'static str,
    /// Start, in seconds since the run began.
    pub start: f64,
    /// End, in seconds since the run began.
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The operation (request, edit, cold run) this span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    /// Records a span measured by the caller; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Sets the end of a span recorded before its end was known.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        self.spans[id].end = end.duration_since(self.origin).as_secs_f64();
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                out[parent] -= span.duration();
            }
        }
        out
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(self.self_times()) {
            out.entry(span.name).or_default().push(t);
        }
        out
    }

    /// The spans as a JSON array (`name`, `start`, `end`, `parent`,
    /// `request`, `self`).
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .zip(self.self_times())
            .map(|(s, self_time)| {
                let mut m = Map::new();
                m.insert("name".into(), Value::from(s.name));
                m.insert("start".into(), Value::from(s.start));
                m.insert("end".into(), Value::from(s.end));
                m.insert(
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                );
                m.insert("request".into(), Value::from(s.request));
                m.insert("self".into(), Value::from(self_time));
                Value::Object(m)
            })
            .collect();
        Value::Array(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_only() {
        let mut tr = Tracer::new();
        let t0 = Instant::now();
        let root = tr.record("root", None, 1, t0, t0 + Duration::from_millis(100));
        let child = tr.record(
            "child",
            Some(root),
            1,
            t0 + Duration::from_millis(10),
            t0 + Duration::from_millis(40),
        );
        tr.record(
            "grandchild",
            Some(child),
            1,
            t0 + Duration::from_millis(20),
            t0 + Duration::from_millis(30),
        );
        let self_times = tr.self_times();
        assert!((self_times[0] - 0.070).abs() < 1e-9);
        assert!((self_times[1] - 0.020).abs() < 1e-9);
        assert!((self_times[2] - 0.010).abs() < 1e-9);
        let by_name = tr.self_times_by_name();
        assert_eq!(by_name["root"].len(), 1);
        assert_eq!(tr.to_json().as_array().unwrap().len(), 3);
    }

    #[test]
    fn span_closure_returns_its_value() {
        let mut tr = Tracer::new();
        let v = tr.span("work", None, 7, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(tr.spans()[0].request, 7);
        assert!(tr.spans()[0].duration() >= 0.0);
    }
}
