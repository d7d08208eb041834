//! Span recording around the benchmark's calls into each layer, and a Chrome
//! trace-event JSON writer for the recorded spans.
//!
//! Spans are kept in memory and written once, when the benchmark ends. A disabled
//! recorder returns at once from every call, so untraced runs pay one branch per
//! layer call.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or phase name, e.g. `workload.dag_build`.
    pub name: &'static str,
    /// Offset of the span's start from the recorder's origin.
    pub start: Duration,
    /// Offset of the span's end from the recorder's origin.
    pub end: Duration,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// The repetition the span belongs to.
    pub run: u32,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span opened from now on with repetition `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Closes every open span (used after a repetition panicked mid-span).
    pub fn close_all(&mut self) {
        let now = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent in spans named `name` during repetition `run`.
    pub fn seconds(&self, run: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .fold(0.0, |total, s| total + s.duration().as_secs_f64())
    }

    /// The spans as Chrome trace-event JSON (complete `"X"` events, microsecond
    /// timestamps; one track per repetition). Loads in Perfetto and
    /// `chrome://tracing`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| {
                format!("\"{}\"", self.spans[p].name)
            });
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
                s.name,
                s.run,
                s.start.as_secs_f64() * 1e6,
                s.duration().as_secs_f64() * 1e6,
                s.run,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_runs() {
        let mut t = Tracer::new(true);
        t.set_run(3);
        let outer = t.enter("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(t.seconds(3, "outer") >= t.seconds(3, "inner"));
        assert_eq!(t.seconds(4, "outer"), 0.0);
        let json = t.chrome_json("w");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"parent\":\"outer\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x");
        t.exit(id);
        assert!(t.spans().is_empty());
        assert_eq!(
            t.chrome_json("w"),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n"
        );
    }
}
