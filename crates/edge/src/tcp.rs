//! A tokio TCP front end for a shared [`EdgeCache`].
//!
//! The client leg speaks HTTP/1.1 over real sockets; the upstream leg
//! stays whatever [`Upstream`] the cache wraps (sans-IO origin,
//! chaos decorator, multi-origin map). All connections share one
//! `Arc<EdgeCache<_>>`, so coalescing and the byte budget are global
//! across clients, exactly as on the discrete-event path.
//!
//! The listener and the connection loop are
//! [`cachecatalyst_httpwire::aio`]'s, the same ones the origin runs
//! on; this module is the edge's [`Handler`]. Configuration is
//! builder-first: `TcpEdge::builder(cache).clock(clock).ops(true)
//! .bind(addr)`. With ops enabled the edge answers `GET /metrics`
//! (Prometheus text) and `GET /inspect` (a JSON listing of every
//! stored entry, per tier) — but a site resource at either path always
//! wins: the edge first serves the request normally and only answers
//! from the operational surface when the site comes back `404`.

use std::io;
use std::sync::Arc;

use cachecatalyst_httpwire::aio::{self, wall_clock, Clock, Handler, Listener, Reply};
use cachecatalyst_httpwire::{HeaderName, Request, Response, StatusCode, Upstream};

use crate::cache::EdgeCache;

/// Configures a TCP edge listener; obtained from [`TcpEdge::builder`].
pub struct EdgeServeOptions<U> {
    cache: Arc<EdgeCache<U>>,
    clock: Clock,
    ops: bool,
}

impl<U: Upstream + Send + Sync + 'static> EdgeServeOptions<U> {
    /// The edge's time source (defaults to [`wall_clock`]). Share it
    /// with the origin so freshness arithmetic on both tiers reads one
    /// timeline.
    pub fn clock(mut self, clock: Clock) -> EdgeServeOptions<U> {
        self.clock = clock;
        self
    }

    /// Answer the operational endpoints `GET /metrics` (Prometheus
    /// text exposition of the edge's telemetry registry) and
    /// `GET /inspect` (read-only JSON listing of every stored entry:
    /// key, tier, size, freshness, validator). They never shadow the
    /// site: the request is served normally first, and the operational
    /// surface only answers when the site has no such resource (404).
    /// Off by default.
    pub fn ops(mut self, enabled: bool) -> EdgeServeOptions<U> {
        self.ops = enabled;
        self
    }

    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves until
    /// [`TcpEdge::shutdown`] is called.
    pub async fn bind(self, addr: &str) -> io::Result<TcpEdge> {
        let listener = Listener::bind(addr, self).await?;
        Ok(TcpEdge {
            local_addr: listener.local_addr,
            listener,
        })
    }

    /// Renders the edge's telemetry registry in the Prometheus text
    /// format. Scrapes also publish the clock (ms resolution) so
    /// dashboards can align virtual-time runs.
    fn metrics_response(&self) -> Response {
        let telemetry = self.cache.telemetry();
        telemetry
            .gauge(
                "edge_clock_milliseconds",
                "The edge clock at scrape time (virtual or wall ms)",
                &[],
            )
            .set(self.clock.millis() as f64);
        // Refresh the store gauges before rendering.
        self.cache.metrics();
        let body = telemetry.render_prometheus();
        aio::ops_response("text/plain; version=0.0.4", body, &self.clock)
    }
}

impl<U: Upstream + Send + Sync + 'static> Handler for EdgeServeOptions<U> {
    fn clock(&self) -> &Clock {
        &self.clock
    }

    async fn handle(&self, req: &Request) -> Reply {
        let Some(host) = req.headers.get(HeaderName::HOST) else {
            return Reply::Send(Response::empty(StatusCode::BAD_REQUEST));
        };
        // `EdgeCache::handle` is synchronous sans-IO compute (its
        // upstream is too), so calling it inline keeps request handling
        // single-hop with no channel bounce.
        let now = self.clock.secs();
        let resp = self.cache.handle(host, req, now);
        // An operational endpoint answers only where the site said
        // `404`: site resources are never shadowed.
        let unclaimed = resp.status == StatusCode::NOT_FOUND;
        Reply::Send(match aio::ops_path(req, self.ops && unclaimed) {
            Some("/metrics") => self.metrics_response(),
            Some("/inspect") => {
                aio::ops_response("application/json", self.cache.inspect(now), &self.clock)
            }
            _ => resp,
        })
    }
}

/// A running TCP edge tier in front of a shared [`EdgeCache`].
pub struct TcpEdge {
    /// The bound listening address (useful with `127.0.0.1:0`).
    pub local_addr: std::net::SocketAddr,
    listener: Listener,
}

impl TcpEdge {
    /// Starts configuring a TCP edge listener:
    /// `TcpEdge::builder(cache).clock(clock).ops(true).bind(addr)`.
    /// See [`EdgeServeOptions`] for every knob.
    pub fn builder<U: Upstream + Send + Sync + 'static>(
        cache: Arc<EdgeCache<U>>,
    ) -> EdgeServeOptions<U> {
        EdgeServeOptions {
            cache,
            clock: wall_clock(),
            ops: false,
        }
    }

    /// Binds `addr` and serves `cache` until [`TcpEdge::shutdown`]:
    /// site traffic only, no operational endpoints.
    ///
    /// `clock` supplies the virtual time each request is handled at —
    /// share it with the origin so freshness arithmetic on both tiers
    /// reads one timeline.
    pub async fn bind<U>(addr: &str, cache: Arc<EdgeCache<U>>, clock: Clock) -> io::Result<TcpEdge>
    where
        U: Upstream + Send + Sync + 'static,
    {
        TcpEdge::builder(cache).clock(clock).bind(addr).await
    }

    /// Stops accepting and tears the accept loop down.
    pub async fn shutdown(self) {
        self.listener.shutdown().await;
    }
}
