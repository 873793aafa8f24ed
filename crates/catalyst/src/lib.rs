//! # cachecatalyst-catalyst
//!
//! The primary contribution of "Rethinking Web Caching" (HotNets '24):
//! eliminate cache-revalidation round trips by delivering, with the
//! base HTML response, the current validation tokens (ETags) of every
//! subresource the page needs — so a client with an up-to-date cached
//! copy uses it **without any network round trip**, and no `max-age`
//! tuning is ever needed.
//!
//! * [`config`] — the `X-Etag-Config` map and its header codec: one
//!   writer ([`EtagConfig::header_fields`]) and one gate
//!   ([`EtagConfig::accept`]).
//! * [`extract`] — server-side map construction by walking the page's
//!   HTML (and, transitively, CSS).
//! * [`sw`] — the client-side service-worker interceptor (Figure 2).
//! * [`inject`] — SW registration injection and the JS worker the
//!   origin serves to real browsers.
//! * [`aggregate`] — the learned map that also covers JS-discovered
//!   resources (§3's capture, in the memory-bounded form §6 asks for:
//!   per-page popularity counters, not per-session lists).
//!
//! Coexistence with a site's own service worker (§6 issue 3) is not
//! modelled.

pub mod aggregate;
pub mod config;
pub mod extract;
pub mod inject;
pub mod sw;

pub use aggregate::AggregateCapture;
pub use config::{tamper_config_headers, EtagConfig};
pub use extract::{build_config, build_config_with_bodies, ExtractOptions, ResourceProvider};
pub use inject::{
    has_registration, inject_registration, REGISTRATION_SNIPPET, SW_SCRIPT, SW_SCRIPT_PATH,
};
pub use sw::{ServiceWorker, SwDecision};
