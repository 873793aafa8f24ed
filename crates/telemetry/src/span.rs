//! Request-scoped distributed tracing: trace/span identifiers, a
//! `traceparent`-style propagation context, and a lock-light,
//! ring-buffered, on-or-off [`SpanSink`].
//!
//! Like the rest of the crate this module is std-only and reads no
//! clock of its own: span timestamps are **caller-supplied
//! milliseconds** (virtual under the discrete-event simulator, wall
//! under tokio), so a span tree spanning browser, proxy and origin
//! lands on one coherent timeline as long as every emitter stamps
//! from the same time base. The browser propagates its virtual "now"
//! to the server inside the trace context ([`TraceContext::t_ms`])
//! precisely so that server-side spans line up with client-side ones.
//!
//! Cost model: the off path is a single field compare
//! ([`SpanSink::enabled`]) — no allocation, no locking, no id
//! generation — so tracing can stay compiled-in on the origin hot
//! path.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json_string;

/// A 128-bit identifier shared by every span of one page load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

/// A 64-bit identifier unique to one span, process-wide.
///
/// Ids are drawn from a monotone process counter, so within one
/// process a larger id was allocated later — handy for stable sorts —
/// but only uniqueness is guaranteed, never density.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Finalizer of splitmix64; bijective, so distinct counters can never
/// collide after mixing.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TraceId {
    /// A fresh trace id, unique within this process.
    pub fn next() -> TraceId {
        let n = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        TraceId(((mix64(n) as u128) << 64) | mix64(n ^ 0x9e37_79b9_7f4a_7c15) as u128)
    }
}

impl SpanId {
    /// A fresh span id, unique within this process.
    pub fn next() -> SpanId {
        SpanId(NEXT_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// The propagated trace context — what rides the `x-cc-trace` request
/// header from the browser through the proxies to the origin.
///
/// The wire encoding (in `httpwire::tracectx`) mirrors W3C
/// `traceparent` (`00-{trace}-{parent}-{flags}`) with one extension:
/// an optional `;t=<ms>` carrying the sender's clock at emission so
/// the receiver can place its spans on the sender's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceContext {
    pub trace_id: TraceId,
    /// The span on the sending side that the receiver's spans should
    /// become children of.
    pub parent: SpanId,
    /// False means "context present but load not sampled": receivers
    /// must not record spans.
    pub sampled: bool,
    /// The sender's clock (milliseconds) when the request was handed
    /// to the network, if known.
    pub t_ms: Option<f64>,
}

impl TraceContext {
    pub fn new(trace_id: TraceId, parent: SpanId) -> TraceContext {
        TraceContext {
            trace_id,
            parent,
            sampled: true,
            t_ms: None,
        }
    }

    /// The same context re-parented under `span` (what a proxy does
    /// before forwarding, so the origin's spans nest beneath its own).
    pub fn child_of(self, span: SpanId) -> TraceContext {
        TraceContext {
            parent: span,
            ..self
        }
    }

    /// The same context stamped with the sender's clock.
    pub fn at(self, t_ms: f64) -> TraceContext {
        TraceContext {
            t_ms: Some(t_ms),
            ..self
        }
    }
}

/// One finished span: a named, attributed interval on the trace's
/// timeline, optionally parented to another span of the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace_id: TraceId,
    pub span_id: SpanId,
    /// `None` marks the trace root (one per page load).
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
    pub attrs: Vec<(&'static str, String)>,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ms - self.start_ms).max(0.0)
    }

    /// The attribute value for `key`, if set.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// One JSON object, no trailing newline (same JSONL convention as
    /// [`crate::Event`]).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"event\":\"span\",\"name\":{},\"trace_id\":\"{:032x}\",\"span_id\":\"{:016x}\"",
            json_string(self.name),
            self.trace_id.0,
            self.span_id.0,
        );
        if let Some(SpanId(p)) = self.parent {
            out.push_str(&format!(",\"parent_id\":\"{p:016x}\""));
        }
        out.push_str(&format!(
            ",\"start_ms\":{:.3},\"end_ms\":{:.3}",
            self.start_ms, self.end_ms
        ));
        for (k, v) in &self.attrs {
            out.push_str(&format!(",{}:{}", json_string(k), json_string(v)));
        }
        out.push('}');
        out
    }
}

/// The sink's sampling policy, fixed for the sink's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// Record nothing; [`SpanSink::enabled`] is false and every other
    /// call is a no-op.
    Off,
    /// Record every trace.
    Always,
}

/// How many independent rings span recording spreads over; bounds
/// lock contention between concurrent emitters.
const SHARDS: usize = 8;

/// Spans one ring holds before it overwrites its oldest.
const SHARD_CAPACITY: usize = 1024;

/// A lock-light, bounded span collector.
///
/// * The **off** path is one field compare ([`enabled`]).
/// * Whether a page load is traced is decided once, at its root
///   (every load when the sink is on); downstream emitters inherit
///   the decision through the propagated context's `sampled` flag.
/// * Storage is `SHARDS` mutex-guarded rings of `SHARD_CAPACITY`
///   spans each, a span going to ring `span_id % SHARDS`; a full ring
///   overwrites its oldest span and counts it in [`dropped`], so a
///   forgotten drain can never grow memory unboundedly.
///
/// [`enabled`]: SpanSink::enabled
/// [`dropped`]: SpanSink::dropped
pub struct SpanSink {
    sampling: Sampling,
    dropped: AtomicU64,
    shards: [Mutex<VecDeque<Span>>; SHARDS],
}

impl std::fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanSink")
            .field("sampling", &self.sampling)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl SpanSink {
    /// A sink holding up to `SHARDS × SHARD_CAPACITY` = 8192 spans
    /// (ample for hundreds of page loads between drains).
    pub fn new(sampling: Sampling) -> SpanSink {
        SpanSink {
            sampling,
            dropped: AtomicU64::new(0),
            shards: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
        }
    }

    /// Whether any recording can happen at all. **This is the hot-path
    /// guard**: one field compare, nothing else, so callers gate all
    /// per-request tracing work behind it.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sampling == Sampling::Always
    }

    /// Record one finished span. No-op when the sink is off; evicts
    /// the ring's oldest span when full.
    pub fn record(&self, span: Span) {
        if !self.enabled() {
            return;
        }
        let shard = (span.span_id.0 % SHARDS as u64) as usize;
        let mut ring = self.shards[shard].lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= SHARD_CAPACITY {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span);
    }

    /// All spans so far, clearing the sink, ordered by
    /// `(start_ms, span_id)` — i.e. a stable timeline.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().unwrap_or_else(|e| e.into_inner()).drain(..));
        }
        sort_timeline(&mut all);
        all
    }

    /// Spans currently buffered.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the sink was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

fn sort_timeline(spans: &mut [Span]) {
    spans.sort_by(|a, b| {
        a.start_ms
            .total_cmp(&b.start_ms)
            .then(a.span_id.cmp(&b.span_id))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: TraceId, parent: Option<SpanId>, start: f64) -> Span {
        Span {
            trace_id: trace,
            span_id: SpanId::next(),
            parent,
            name: "test",
            start_ms: start,
            end_ms: start + 1.0,
            attrs: vec![("k", "v".to_owned())],
        }
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let a = SpanId::next();
        let b = SpanId::next();
        assert!(b > a);
        assert_ne!(TraceId::next(), TraceId::next());
    }

    #[test]
    fn off_sink_records_nothing() {
        let sink = SpanSink::new(Sampling::Off);
        assert!(!sink.enabled());
        sink.record(span(TraceId::next(), None, 0.0));
        assert!(sink.is_empty());
    }

    #[test]
    fn always_sink_keeps_timeline_order() {
        let sink = SpanSink::new(Sampling::Always);
        let trace = TraceId::next();
        for start in [5.0, 1.0, 3.0] {
            sink.record(span(trace, None, start));
        }
        let starts: Vec<f64> = sink.drain().iter().map(|s| s.start_ms).collect();
        assert_eq!(starts, vec![1.0, 3.0, 5.0]);
        assert!(sink.is_empty(), "drain clears");
    }

    #[test]
    fn full_sink_evicts_oldest_and_counts_drops() {
        let sink = SpanSink::new(Sampling::Always);
        let trace = TraceId::next();
        // Explicit ids spread the spans evenly over the rings (shard =
        // id % SHARDS), so every ring overflows whatever ids other
        // tests draw meanwhile.
        let recorded = 2 * SHARDS * SHARD_CAPACITY + 5;
        for id in 0..recorded as u64 {
            sink.record(Span {
                span_id: SpanId(id),
                ..span(trace, None, id as f64)
            });
        }
        assert_eq!(sink.len(), SHARDS * SHARD_CAPACITY);
        assert_eq!(sink.dropped() as usize + sink.len(), recorded);
        let kept = sink.drain();
        let newest = SpanId(recorded as u64 - 1);
        assert!(kept.iter().any(|s| s.span_id == newest), "newest kept");
        assert!(
            kept.iter().all(|s| s.span_id != SpanId(0)),
            "oldest evicted"
        );
    }

    #[test]
    fn span_json_shape() {
        let trace = TraceId(0xabc);
        let parent = SpanId(7);
        let s = Span {
            trace_id: trace,
            span_id: SpanId(9),
            parent: Some(parent),
            name: "fetch",
            start_ms: 1.25,
            end_ms: 2.5,
            attrs: vec![("url", "http://s/a\"b".to_owned())],
        };
        let json = s.to_json();
        assert!(json.contains("\"event\":\"span\""));
        assert!(json.contains("\"name\":\"fetch\""));
        assert!(json.contains("\"parent_id\":\"0000000000000007\""));
        assert!(json.contains("\"start_ms\":1.250"));
        assert!(json.contains("\"url\":\"http://s/a\\\"b\""));
        assert_eq!(s.attr("url"), Some("http://s/a\"b"));
        assert_eq!(s.attr("missing"), None);
        assert_eq!(s.duration_ms(), 1.25);
    }

    #[test]
    fn context_reparenting_and_stamping() {
        let ctx = TraceContext::new(TraceId(1), SpanId(2));
        assert!(ctx.sampled);
        let child = ctx.child_of(SpanId(3)).at(42.0);
        assert_eq!(child.trace_id, TraceId(1));
        assert_eq!(child.parent, SpanId(3));
        assert_eq!(child.t_ms, Some(42.0));
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let sink = std::sync::Arc::new(SpanSink::new(Sampling::Always));
        let trace = TraceId::next();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sink = std::sync::Arc::clone(&sink);
                scope.spawn(move || {
                    for i in 0..200 {
                        sink.record(span(trace, None, f64::from(i)));
                    }
                });
            }
        });
        assert_eq!(sink.drain().len(), 800);
        assert_eq!(sink.dropped(), 0);
    }
}
