//! The benchmark's own tracing: spans recorded around calls into each
//! layer's public functions, from outside the layers.
//!
//! A span is `{name, start, end, parent, op}`; spans of one operation
//! (a page visit or a request) share `op`. They are kept in memory and
//! written out after the timed section. A layer's *self time* is its
//! span's duration minus the part its child spans cover, so the self
//! times of one operation add up to its root span.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

use cachecatalyst_browser::Upstream;
use cachecatalyst_httpwire::{Request, Response};

/// "No parent": the span is the root of its operation.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the tracer was
/// created; `parent` indexes the tracer's span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans on the single load thread. Spans are pushed when
/// they open, so a parent always precedes its children.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<u32>,
    op: Cell<u32>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(ROOT),
            op: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next operation; spans opened from here on carry its
    /// identifier.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    /// Runs `f` inside a span; `name` is chosen from the result, so a
    /// caller can tell a `304` from a full response after the fact.
    pub fn time_as<R>(&self, f: impl FnOnce() -> R, name: impl FnOnce(&R) -> &'static str) -> R {
        let parent = self.current.get();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: "",
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.current.set(index as u32);
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        self.current.set(parent);
        let span = &mut self.spans.borrow_mut()[index];
        span.name = name(&result);
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        result
    }

    /// Runs `f` inside a span called `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.time_as(f, |_| name)
    }

    /// Takes the spans recorded so far, leaving the tracer empty but
    /// with room for as many again (laps repeat; growing the list
    /// mid-lap would land in the gaps between spans).
    pub fn take(&self) -> Vec<Span> {
        let mut spans = self.spans.borrow_mut();
        let room = spans.len();
        std::mem::replace(&mut spans, Vec::with_capacity(room))
    }
}

/// Runs `f` in a span when tracing, plainly otherwise — the one seam
/// every workload loop goes through, so the untraced run executes the
/// same loop minus the clock reads.
pub fn timed<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(tracer) => tracer.time(name, f),
        None => f(),
    }
}

/// An [`Upstream`] decorator that records one span per `handle` call,
/// named by `classify` from the response. Only traced runs build one;
/// untraced runs hand the layer its real upstream.
pub struct Timed<'t, U> {
    inner: U,
    tracer: &'t Tracer,
    classify: fn(&Request, &Response) -> &'static str,
}

impl<'t, U: Upstream> Timed<'t, U> {
    pub fn new(
        inner: U,
        tracer: &'t Tracer,
        classify: fn(&Request, &Response) -> &'static str,
    ) -> Timed<'t, U> {
        Timed {
            inner,
            tracer,
            classify,
        }
    }

    /// The decorated upstream (to read its counters after a run).
    pub fn inner(&self) -> &U {
        &self.inner
    }
}

impl<U: Upstream> Upstream for Timed<'_, U> {
    fn handle(&self, host: &str, req: &Request, t_secs: i64) -> Response {
        self.tracer.time_as(
            || self.inner.handle(host, req, t_secs),
            |resp| (self.classify)(req, resp),
        )
    }
}

/// Per-span self time: duration minus the time covered by children.
/// Children of one span never overlap here (the load thread is
/// single-threaded and calls are nested), so covered time is the sum
/// of child durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != ROOT {
            let parent = &mut own[span.parent as usize];
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Whether each span has at least one child.
pub fn has_child(spans: &[Span]) -> Vec<bool> {
    let mut flags = vec![false; spans.len()];
    for span in spans {
        if span.parent != ROOT {
            flags[span.parent as usize] = true;
        }
    }
    flags
}

/// Writes `spans` as JSON lines (`parent` is `null` for roots).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        let parent = if span.parent == ROOT {
            "null".to_owned()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
            span.name, span.start_ns, span.end_ns, span.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        // root 0..100 → a 10..40 (→ leaf 20..30), b 50..90
        let spans = [
            span("root", 0, 100, ROOT),
            span("a", 10, 40, 0),
            span("leaf", 20, 30, 1),
            span("b", 50, 90, 0),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 20, 10, 40]);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
        assert_eq!(has_child(&spans), vec![true, true, false, false]);
    }

    #[test]
    fn tracer_nests_spans_and_restores_the_parent() {
        let tracer = Tracer::new();
        tracer.next_op();
        let out = tracer.time("outer", || {
            tracer.time("inner", || 1) + tracer.time_as(|| 2, |_| "named-late")
        });
        tracer.next_op();
        tracer.time("second", || ());
        assert_eq!(out, 3);
        let spans = tracer.take();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            vec![
                ("outer", ROOT, 1),
                ("inner", 0, 1),
                ("named-late", 0, 1),
                ("second", ROOT, 2)
            ]
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn untraced_seam_just_calls_through() {
        assert_eq!(timed(None, "x", || 7), 7);
    }
}
