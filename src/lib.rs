//! # cachecatalyst
//!
//! A comprehensive Rust reproduction of **"Rethinking Web Caching: An
//! Optimization for the Latency-Constrained Internet"** (HotNets '24).
//!
//! The paper eliminates HTTP cache-revalidation round trips by having
//! the origin deliver, with each base-HTML response, the current
//! validation tokens (ETags) of every subresource the page needs
//! (header `X-Etag-Config`); a service worker then serves unchanged
//! resources from cache with zero RTTs and no `max-age` tuning.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`httpwire`] — HTTP/1.1 from scratch (messages, codec, ETags,
//!   `Cache-Control`, conditional requests, async connections) and
//!   `Upstream`, the one trait every hop implements;
//! * [`netsim`] — deterministic discrete-event network simulator with
//!   fluid processor-sharing links, plus real-time tokio emulation;
//! * [`webmodel`] — the synthetic top-100-site workload (structure,
//!   churn and developer-TTL models calibrated to the paper's cited
//!   measurements);
//! * [`httpcache`] — an RFC 9111 browser cache;
//! * [`catalyst`] — **the paper's contribution**: the `X-Etag-Config`
//!   map, server-side extraction, the client service worker, and
//!   aggregate capture (the learned map);
//! * [`origin`] — the modified origin server (sans-IO handler + tokio
//!   TCP front end);
//! * [`browser`] — the page-load engine measuring PLT;
//! * [`edge`] — a catalyst-aware shared edge-cache tier with
//!   single-flight request coalescing;
//! * [`proxies`] — Server Push, RDR-proxy and Extreme-Cache
//!   comparators;
//! * [`telemetry`] — counters, latency histograms and structured
//!   page-load events, exposed by the origin at `/metrics` (Prometheus
//!   text format; opt-in via `TcpOrigin::builder().ops(true)`).
//!
//! ## Quickstart
//!
//! ```
//! use cachecatalyst::prelude::*;
//!
//! // The paper's Figure-1 example page, served in CacheCatalyst mode.
//! // An origin is an `Upstream`: it answers for whatever host it is
//! // asked about.
//! let origin = OriginServer::new(example_site(), HeaderMode::Catalyst);
//! let base = Url::parse("http://example.org/index.html").unwrap();
//! let cond = NetworkConditions::five_g_median();
//!
//! let mut browser = Browser::catalyst();
//! let first = browser.load(&origin, cond, &base, 0);
//! let revisit = browser.load(&origin, cond, &base, 7200);
//! assert!(revisit.plt < first.plt);
//! assert!(revisit.sw_hits > 0); // unchanged resources: zero RTTs
//! ```

pub use cachecatalyst_browser as browser;
pub use cachecatalyst_catalyst as catalyst;
pub use cachecatalyst_edge as edge;
pub use cachecatalyst_httpcache as httpcache;
pub use cachecatalyst_httpwire as httpwire;
pub use cachecatalyst_netsim as netsim;
pub use cachecatalyst_origin as origin;
pub use cachecatalyst_proxies as proxies;
pub use cachecatalyst_telemetry as telemetry;
pub use cachecatalyst_webmodel as webmodel;

pub mod chaos;

/// The most common imports in one place.
pub mod prelude {
    pub use cachecatalyst_browser::{Browser, CacheMode, EngineConfig, LoadReport, MultiOrigin};
    pub use cachecatalyst_catalyst::{EtagConfig, ServiceWorker};
    pub use cachecatalyst_httpcache::HttpCache;
    pub use cachecatalyst_httpwire::{
        EntityTag, HeaderMap, HttpDate, Method, Request, Response, StatusCode, Upstream, Url,
    };
    pub use cachecatalyst_netsim::{FetchOutcome, NetworkConditions, SimTime};
    pub use cachecatalyst_origin::{HeaderMode, OriginServer};
    pub use cachecatalyst_webmodel::{
        example_site, generate_corpus, site_from_inventory, CorpusSpec, Site, SiteSpec,
    };
}
