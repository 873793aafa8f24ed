//! # cachecatalyst-origin
//!
//! The reproduction's modified web server (the paper used a modified
//! Caddy): hosts a generated site, always serves validators, answers
//! conditional GETs with `304 Not Modified`, and — in CacheCatalyst
//! mode — attaches the `X-Etag-Config` map and service-worker
//! registration to every HTML response.
//!
//! * [`server`] — the transport-agnostic request handler and header
//!   policy modes (baseline / catalyst / capture / no-store).
//! * [`tcp`] — a tokio TCP front end with keep-alive, serving the same
//!   handler over real connections. Like the modified Caddy it stands
//!   in for, it serves what the site says and nothing else: it has no
//!   fault seam and does not depend on the simulator.

mod served;
pub mod server;
pub mod tcp;

pub use server::{HeaderMode, OriginMetrics, OriginServer};
pub use tcp::{
    fixed_clock, wall_clock, watch_clock, watch_clock_ms, Clock, ServeOptions, TcpOrigin,
};
