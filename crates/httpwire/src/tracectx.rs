//! Wire encoding of the distributed-tracing context
//! ([`TraceContext`]) — the `x-cc-trace` request header.
//!
//! The format mirrors W3C `traceparent`:
//!
//! ```text
//! 00-{trace_id:032x}-{parent_span:016x}-{flags:02x}
//! ```
//!
//! with flags bit 0 = sampled, plus one extension segment: an
//! optional `;t=<ms>` carrying the sender's clock (milliseconds,
//! virtual or wall) when the request was handed to the network, so
//! the receiving side can place its spans on the sender's timeline.
//!
//! Decoding is strict on shape (version `00`, exact field widths)
//! and silently returns `None` on anything malformed — a trace
//! header must never break request handling.
//!
//! [`Hop`] is what every server between the browser and the content
//! (the edge, the proxy comparators, the origin itself) does with
//! that context.

use cachecatalyst_telemetry::span::{Span, SpanId, SpanSink, TraceContext, TraceId};

use crate::header::HeaderName;
use crate::message::Request;

/// Renders the context in wire form.
pub fn encode(ctx: &TraceContext) -> String {
    let flags: u8 = if ctx.sampled { 1 } else { 0 };
    let mut out = format!(
        "00-{:032x}-{:016x}-{:02x}",
        ctx.trace_id.0, ctx.parent.0, flags
    );
    if let Some(t_ms) = ctx.t_ms {
        out.push_str(&format!(";t={t_ms:.3}"));
    }
    out
}

/// Parses the wire form back; `None` for anything malformed.
pub fn decode(value: &str) -> Option<TraceContext> {
    let (core, ext) = match value.split_once(';') {
        Some((core, ext)) => (core, Some(ext)),
        None => (value, None),
    };
    let mut parts = core.split('-');
    if parts.next()? != "00" {
        return None;
    }
    let trace = parts.next()?;
    let parent = parts.next()?;
    let flags = parts.next()?;
    if parts.next().is_some() || trace.len() != 32 || parent.len() != 16 || flags.len() != 2 {
        return None;
    }
    let trace_id = TraceId(u128::from_str_radix(trace, 16).ok()?);
    let parent = SpanId(u64::from_str_radix(parent, 16).ok()?);
    let sampled = u8::from_str_radix(flags, 16).ok()? & 1 == 1;
    let t_ms = match ext {
        Some(ext) => Some(ext.strip_prefix("t=")?.parse::<f64>().ok()?),
        None => None,
    };
    Some(TraceContext {
        trace_id,
        parent,
        sampled,
        t_ms,
    })
}

/// Stamps (or replaces) the context on an outgoing request.
pub fn inject(req: &mut Request, ctx: &TraceContext) {
    req.headers.insert(HeaderName::X_CC_TRACE, &encode(ctx));
}

/// Reads the context off an incoming request, if present, well-formed
/// **and sampled** — an unsampled context is treated as absent, so
/// receivers never record spans for it.
pub fn extract(req: &Request) -> Option<TraceContext> {
    decode(req.headers.get(HeaderName::X_CC_TRACE)?).filter(|ctx| ctx.sampled)
}

/// One server's part in a sampled trace: the context its request
/// arrived with and the id of its own span, which nests beneath the
/// sender's and onto which an intermediary re-parents the request it
/// forwards, so whatever answers upstream nests beneath this hop.
pub struct Hop {
    ctx: TraceContext,
    span: SpanId,
}

impl Hop {
    /// Enters a hop when `sink` is recording and `req` belongs to a
    /// sampled trace — what a server that forwards nothing (the
    /// origin) does. `None` otherwise, at the cost of one field
    /// compare when the sink is off.
    pub fn enter(sink: &SpanSink, req: &Request) -> Option<Hop> {
        if !sink.enabled() {
            return None;
        }
        let ctx = extract(req)?;
        Some(Hop {
            ctx,
            span: SpanId::next(),
        })
    }

    /// [`Hop::enter`] for an intermediary: also returns the request to
    /// forward in `req`'s place, re-parented onto this hop. `None`
    /// otherwise — the caller forwards `req` itself, and the untraced
    /// path made no clone.
    pub fn start(sink: &SpanSink, req: &Request) -> Option<(Request, Hop)> {
        let hop = Hop::enter(sink, req)?;
        let mut fwd = req.clone();
        inject(&mut fwd, &hop.ctx.child_of(hop.span));
        Some((fwd, hop))
    }

    /// Records the hop's span on the sender's timeline: it covers
    /// `[sender clock, sender clock + busy_ms]`, where `busy_ms` is
    /// how long the hop itself was busy (virtual time at the edge and
    /// the proxies, real handler time at the origin) and `t_secs`
    /// stands in for a sender that sent no clock.
    pub fn finish(
        self,
        sink: &SpanSink,
        name: &'static str,
        t_secs: i64,
        busy_ms: f64,
        attrs: Vec<(&'static str, String)>,
    ) {
        let start_ms = self.ctx.t_ms.unwrap_or(t_secs as f64 * 1000.0);
        sink.record(Span {
            trace_id: self.ctx.trace_id,
            span_id: self.span,
            parent: Some(self.ctx.parent),
            name,
            start_ms,
            end_ms: start_ms + busy_ms,
            attrs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> TraceContext {
        TraceContext {
            trace_id: TraceId(0xdead_beef_0000_0000_0000_0000_1234_5678),
            parent: SpanId(0xabcd),
            sampled: true,
            t_ms: None,
        }
    }

    #[test]
    fn roundtrips_without_clock() {
        let c = ctx();
        assert_eq!(decode(&encode(&c)), Some(c));
    }

    #[test]
    fn roundtrips_with_clock() {
        let c = ctx().at(12345.625);
        let wire = encode(&c);
        assert!(wire.ends_with(";t=12345.625"), "{wire}");
        assert_eq!(decode(&wire), Some(c));
    }

    #[test]
    fn wire_shape_matches_traceparent() {
        assert_eq!(
            encode(&ctx()),
            "00-deadbeef000000000000000012345678-000000000000abcd-01"
        );
    }

    #[test]
    fn malformed_inputs_decode_to_none() {
        for bad in [
            "",
            "01-deadbeef000000000000000012345678-000000000000abcd-01",
            "00-shrt-000000000000abcd-01",
            "00-deadbeef000000000000000012345678-shrt-01",
            "00-deadbeef000000000000000012345678-000000000000abcd-zz",
            "00-deadbeef000000000000000012345678-000000000000abcd-01-extra",
            "00-deadbeef000000000000000012345678-000000000000abcd-01;u=5",
            "00-deadbeef000000000000000012345678-000000000000abcd-01;t=abc",
        ] {
            assert_eq!(decode(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn inject_then_extract() {
        let mut req = Request::get("/index.html");
        assert_eq!(extract(&req), None);
        let c = ctx().at(99.0);
        inject(&mut req, &c);
        assert_eq!(extract(&req), Some(c));
        // Re-injection replaces rather than appends.
        inject(&mut req, &c.child_of(SpanId(7)));
        assert_eq!(extract(&req).unwrap().parent, SpanId(7));
        assert_eq!(
            req.headers.get_all(HeaderName::X_CC_TRACE).count(),
            1,
            "single header value"
        );
    }

    #[test]
    fn unsampled_context_is_invisible_to_extract() {
        let mut req = Request::get("/index.html");
        let mut c = ctx();
        c.sampled = false;
        inject(&mut req, &c);
        assert_eq!(extract(&req), None);
        assert_eq!(decode(&encode(&c)), Some(c), "decode itself keeps it");
    }
}
