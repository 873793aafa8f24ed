//! # cachecatalyst-httpcache
//!
//! The private (browser) HTTP cache the page-load engine uses: RFC 9111
//! freshness-lifetime and age computation ([`freshness`]), storage with
//! validators, `Vary` selection and `304 Not Modified` refresh
//! ([`cache`]), and effectiveness counters ([`metrics`]).
//!
//! This is the *status quo* machinery whose revalidation RTTs the
//! paper eliminates; the CacheCatalyst service worker (in
//! `cachecatalyst-catalyst`) is layered in front of it.

pub mod cache;
pub mod freshness;
pub mod metrics;

pub use cache::{HttpCache, Lookup};
pub use freshness::{current_age, freshness_lifetime, is_fresh, swr_usable};
pub use metrics::CacheMetrics;
