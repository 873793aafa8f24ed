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
//! All three implement [`cachecatalyst_browser::Upstream`], so the
//! same page-load engine measures them under identical conditions.
//! Every proxy is also a traced hop: sampled requests (`x-cc-trace`)
//! get a `proxy.*` span nested between the browser's fetch span and
//! the origin's `origin.handle` span
//! ([`cachecatalyst_httpwire::tracectx::Hop`]).

pub mod chaos;
pub mod extreme;
pub mod push;
pub mod rdr;

pub use chaos::FaultyUpstream;
pub use extreme::ExtremeCacheProxy;
pub use push::{PushOrigin, PushPolicy};
pub use rdr::RdrProxy;
