//! # cachecatalyst-httpwire
//!
//! An HTTP/1.1 wire protocol implementation built from scratch for the
//! CacheCatalyst reproduction ("Rethinking Web Caching", HotNets '24).
//!
//! The crate provides:
//!
//! * message types ([`Request`], [`Response`], [`HeaderMap`],
//!   [`Method`], [`StatusCode`], [`Version`]), and the response
//!   [`Body`] that remembers its digest and links ([`body`]);
//! * an incremental parser and deterministic serializer
//!   ([`codec`]), including chunked transfer coding ([`chunked`]);
//! * the caching-relevant header semantics the paper's mechanism is
//!   built on: entity tags and `If-None-Match` ([`etag`]),
//!   `Cache-Control` directives ([`cache_control`]), HTTP dates
//!   ([`date`]) and server-side conditional-request evaluation
//!   ([`conditional`]);
//! * the two content and key hashes every crate shares ([`hash`]);
//! * [`Upstream`], the one trait every hop implements — origin, edge,
//!   proxy or decorator — and every client calls ([`upstream`]);
//! * optional async connection adapters over tokio streams ([`aio`],
//!   feature `aio`).
//!
//! Everything is deterministic: serializing the same message always
//! produces identical bytes, and content ETags are a stable FNV-1a
//! hash — properties the discrete-event evaluation relies on.

pub mod body;
pub mod cache_control;
pub mod chunked;
pub mod codec;
pub mod conditional;
pub mod date;
pub mod error;
pub mod etag;
pub mod hash;
pub mod header;
pub mod message;
pub mod method;
pub mod status;
pub mod target;
pub mod tracectx;
pub mod upstream;

#[cfg(feature = "aio")]
pub mod aio;

pub use body::{Body, Links, Syntax};
pub use cache_control::CacheControl;
pub use codec::{ParseLimits, Parsed, WireBuf};
pub use date::HttpDate;
pub use error::{WireError, WireResult};
pub use etag::{EntityTag, IfNoneMatch};
pub use header::{HeaderMap, HeaderName, HeaderValue};
pub use message::{Request, Response, Version};
pub use method::Method;
pub use status::StatusCode;
pub use target::{Target, Url};
pub use upstream::Upstream;
