//! # cachecatalyst-browser
//!
//! A discrete-event page-load engine standing in for the Chrome +
//! Selenium client of the paper's evaluation. It reproduces the
//! behaviour that determines page load time:
//!
//! * per-origin connection pools (6, HTTP/1.1-style) with handshake
//!   costs and keep-alive;
//! * parse-driven dependency resolution (HTML → CSS/JS → images/
//!   fonts), including resources only discoverable by *executing* JS;
//! * the classic HTTP cache ([`cachecatalyst_httpcache`]) and the
//!   CacheCatalyst service worker ([`cachecatalyst_catalyst`]) as
//!   alternative serving paths ([`CacheMode`]), decided in one place
//!   ([`profile`]) for the engine and the live loader alike;
//! * PLT measured as the completion of the last required resource
//!   (the `onLoad` moment used in the paper).
//!
//! The engine runs on the deterministic simulator from
//! [`cachecatalyst_netsim`]; all concurrent transfers share the access
//! link's capacity.

pub mod browser;
pub mod engine;
pub mod har;
pub mod profile;
pub mod upstream;

#[cfg(feature = "aio")]
pub mod live;

pub use browser::Browser;
pub use engine::{Engine, EngineConfig, LoadReport};
pub use har::to_har;
#[cfg(feature = "aio")]
pub use live::{LiveBrowser, LiveReport};
pub use profile::CacheMode;
pub use upstream::{FrozenUpstream, MultiOrigin, SingleOrigin, Upstream};
