//! # cachecatalyst-edge
//!
//! A shared edge-cache tier between clients and the origin — the
//! paper's catalyst mechanism applied one hop earlier than the
//! browser's service worker.
//!
//! The tier is built from three layers:
//!
//! * [`TieredStore`] — the object store: a sharded, byte-budgeted
//!   DRAM front with LRU eviction and negative caching of 404s, plus
//!   an optional persistent segment-file tier with crash-tolerant
//!   warm restarts (configured through [`StoreOptions`]);
//! * [`EdgeCache`] — the cache proper: an [`Upstream`] decorator with
//!   **single-flight coalescing** (N concurrent misses for one key
//!   cost exactly one upstream fetch) and **catalyst-aware freshness**
//!   (a forwarded base-HTML `X-Etag-Config` map proactively validates
//!   matching stored subresources, so revisits revalidate nothing);
//! * [`TcpEdge`] — a tokio front end serving a shared `EdgeCache`
//!   over real TCP, for live topologies.
//!
//! Because [`EdgeCache`] is itself an [`Upstream`] — the hop trait
//! `cachecatalyst-httpwire` defines for clients and servers alike — it
//! slots anywhere an origin does: in front of the discrete-event
//! browser, under the chaos decorators from `cachecatalyst-proxies`,
//! behind [`TcpEdge`], or in front of another edge. Construction is
//! builder-first:
//!
//! ```
//! use cachecatalyst_edge::{EdgeCache, StoreOptions, Upstream};
//! use cachecatalyst_origin::{HeaderMode, OriginServer};
//! use cachecatalyst_webmodel::example_site;
//!
//! let origin = OriginServer::new(example_site(), HeaderMode::Catalyst);
//! let edge = EdgeCache::builder(origin)
//!     .store(StoreOptions::new().mem_budget(16 << 20).shards(4))
//!     .build();
//! let resp = edge.handle(
//!     "example.org",
//!     &cachecatalyst_httpwire::Request::get("/a.css"),
//!     0,
//! );
//! assert!(resp.status.is_success());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod store;
pub mod tcp;

pub use cache::{EdgeBuilder, EdgeCache, EdgeMetrics};
pub use store::{
    DiskStats, DiskTierOptions, EntryInfo, MarkOutcome, Meta, StoreOptions, StoredEntry, TierHit,
    TieredCounters, TieredStore,
};
pub use tcp::{EdgeServeOptions, TcpEdge};

// Re-exported so edge users name the decorated trait without also
// depending on the wire crate directly.
pub use cachecatalyst_httpwire::Upstream;
