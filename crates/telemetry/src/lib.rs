//! # cachecatalyst-telemetry
//!
//! The workspace's observability layer. Four pieces, all std-only:
//!
//! * [`metric`] — lock-free atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket latency [`Histogram`]s with p50/p90/p99 summaries.
//! * [`registry`] — a named-metric [`Registry`] that renders the
//!   Prometheus text exposition format (served by the origin's
//!   `/metrics` endpoint).
//! * [`event`] — the structured, span-like [`Event`]s the browser,
//!   the edge and the bench runner emit (page loads, per-resource
//!   fetches with their outcome, cache-metric deltas, per-resource
//!   cache-decision audits), the one [`Recorder`] that collects them
//!   and [`to_jsonl`], which renders them as JSON Lines.
//! * [`span`] — request-scoped distributed tracing: [`TraceId`] /
//!   [`SpanId`], the propagated [`TraceContext`], and the lock-light
//!   [`SpanSink`] ring buffer, on or off for its whole life. The off
//!   path costs one field compare.
//!
//! Timestamps are **caller-supplied milliseconds**, which is what
//! makes the layer virtual-time aware: the discrete-event simulator
//! stamps events with `SimTime`-derived millis, the tokio TCP path
//! stamps them from its server's clock (`httpwire::aio::Clock`).
//! Nothing in this crate reads a clock on its own.

pub mod event;
pub mod metric;
pub mod registry;
pub mod span;

pub use event::{to_jsonl, CacheAudit, CacheDecision, Event, FetchOutcome, Recorder};
pub use metric::{Counter, Gauge, Histogram};
pub use registry::Registry;
pub use span::{Sampling, Span, SpanId, SpanSink, TraceContext, TraceId};

/// Renders `s` as a JSON string literal, quotes included: the one
/// escaper behind every JSON document the workspace writes (JSONL
/// events and spans, HAR, the edge inspector).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }
}
