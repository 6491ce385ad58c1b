//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span is opened before the call and closed after it; spans nest through
//! their parent index.  They cost two clock reads each and stay in memory
//! until [`Trace::write_json_lines`] writes them out at the end of a run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start: Duration,
    end: Option<Duration>,
}

/// The spans of one benchmark run, relative to the trace's creation.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            start: self.origin.elapsed(),
            end: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let end = self.origin.elapsed();
        let span = &mut self.spans[id];
        span.end = Some(end);
        end - span.start
    }

    /// Runs `f` inside a span named `name` under `parent`, returning its
    /// result and the span's duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent);
        let value = f();
        (value, self.close(id))
    }

    /// One JSON object per span, in opening order.
    pub fn write_json_lines(&self, out: &mut String) {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let end = span
                .end
                .map_or("null".to_string(), |e| e.as_secs_f64().to_string());
            let _ = writeln!(
                out,
                "{{\"span\": \"{}\", \"id\": {id}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {end}}}",
                span.name,
                span.start.as_secs_f64(),
            );
        }
    }
}
