//! # cachecatalyst-proxies
//!
//! Functional implementations of the web-acceleration baselines the
//! paper compares against in §5 (and defers quantitative comparison of
//! to future work — experiment E5 runs that comparison here):
//!
//! * [`push`] — HTTP/2-style Server Push with push-all and
//!   push-if-changed policies;
//! * [`rdr`] — a Remote Dependency Resolution proxy that resolves the
//!   full dependency closure (including JS-discovered resources) near
//!   the origin and ships one bundle;
//! * [`extreme`] — an Extreme-Cache-style proxy that rewrites
//!   `Cache-Control` with TTLs estimated from observed change history;
//! * [`chaos`] — a fault-injecting decorator that damages any
//!   upstream's responses from a seeded schedule (chaos testing).
//!
//! All of them implement
//! [`Upstream`](cachecatalyst_httpwire::Upstream), the hop trait
//! `cachecatalyst-httpwire` defines, so the same page-load engine
//! measures them under identical conditions without this crate
//! depending on the browser. Every proxy is also a traced hop: sampled
//! requests (`x-cc-trace`) get a `proxy.*` span nested between the
//! browser's fetch span and the origin's `origin.handle` span
//! ([`Hop`]).

use cachecatalyst_httpwire::tracectx::Hop;
use cachecatalyst_httpwire::{Request, Response};
use cachecatalyst_origin::OriginServer;

pub mod chaos;
pub mod extreme;
pub mod push;
pub mod rdr;

pub use chaos::FaultyUpstream;
pub use extreme::ExtremeCacheProxy;
pub use push::{PushOrigin, PushPolicy};
pub use rdr::RdrProxy;

/// Serves `req` through `core`. When `origin`'s span sink records and
/// `req` is sampled, `core` gets the request re-parented onto a `name`
/// span, whose busy time and attributes `span` reads off the response.
fn traced_hop(
    origin: &OriginServer,
    name: &'static str,
    req: &Request,
    t_secs: i64,
    core: impl FnOnce(&Request) -> Response,
    span: impl FnOnce(&Response) -> (f64, Vec<(&'static str, String)>),
) -> Response {
    let sink = origin.span_sink();
    let Some((fwd, hop)) = Hop::start(sink, req) else {
        return core(req);
    };
    let resp = core(&fwd);
    let (busy_ms, attrs) = span(&resp);
    hop.finish(sink, name, t_secs, busy_ms, attrs);
    resp
}
