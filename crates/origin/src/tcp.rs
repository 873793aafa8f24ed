//! The tokio TCP front end for the origin server.
//!
//! Serves the sans-IO handler over real HTTP/1.1 connections with
//! keep-alive — the end-to-end path used by the live demo and the
//! integration tests (the discrete-event benchmarks bypass TCP).
//!
//! The listener and the connection loop are
//! [`cachecatalyst_httpwire::aio`]'s; this module is the origin's
//! [`Handler`]: the operational endpoints, or else site dispatch.
//! Configuration goes through one builder, [`ServeOptions`]
//! (`TcpOrigin::builder().server(..).clock(..).ops(true).bind(addr)`).
//! The origin carries no fault seam: damage is injected on the client
//! network (`EngineConfig::fault_plan`) or on a hop
//! (`proxies::FaultyUpstream`), never inside the server.

#![warn(missing_docs)]

use std::io;
use std::sync::Arc;

use cachecatalyst_httpwire::aio::{self, ConnError, Handler, Listener, Reply};
pub use cachecatalyst_httpwire::aio::{
    fixed_clock, wall_clock, watch_clock, watch_clock_ms, Clock,
};
use cachecatalyst_httpwire::{Request, Response};
use tokio::io::{AsyncRead, AsyncWrite};

use crate::server::OriginServer;

/// Everything configurable about serving an origin over TCP (or any
/// byte stream): which [`OriginServer`], whose [`Clock`], and whether
/// the operational endpoints answer.
///
/// Obtained from [`TcpOrigin::builder`]; finish with
/// [`ServeOptions::bind`] (a listening server) or
/// [`ServeOptions::serve_stream`] (one already-connected stream).
#[derive(Clone)]
pub struct ServeOptions {
    server: Option<Arc<OriginServer>>,
    clock: Clock,
    ops: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            server: None,
            clock: wall_clock(),
            ops: false,
        }
    }
}

impl ServeOptions {
    /// An empty configuration: no server yet, wall clock, operational
    /// endpoints off.
    pub fn new() -> ServeOptions {
        ServeOptions::default()
    }

    /// The origin to serve. Required before [`ServeOptions::bind`] /
    /// [`ServeOptions::serve_stream`].
    pub fn server(mut self, server: Arc<OriginServer>) -> ServeOptions {
        self.server = Some(server);
        self
    }

    /// The server's time source (defaults to [`wall_clock`]).
    pub fn clock(mut self, clock: Clock) -> ServeOptions {
        self.clock = clock;
        self
    }

    /// Answer the operational endpoints `GET /metrics` (Prometheus
    /// text exposition of the server's telemetry registry) and
    /// `GET /healthz`. They never shadow the site: a site resource at
    /// either path wins, and non-GET methods always go to site
    /// dispatch. Off by default.
    pub fn ops(mut self, enabled: bool) -> ServeOptions {
        self.ops = enabled;
        self
    }

    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves until
    /// [`TcpOrigin::shutdown`] is called. Fails with
    /// `InvalidInput` if no server was configured.
    pub async fn bind(self, addr: &str) -> io::Result<TcpOrigin> {
        let listener = Listener::bind(addr, self.handler()?).await?;
        Ok(TcpOrigin {
            local_addr: listener.local_addr,
            listener,
        })
    }

    /// Serves HTTP/1.1 on one byte stream (TCP, duplex pipe, emulated
    /// link) until the peer closes or requests `Connection: close`,
    /// honoring every configured option. Fails with an
    /// `InvalidInput` I/O error if no server was configured.
    pub async fn serve_stream<S>(self, stream: S) -> Result<(), ConnError>
    where
        S: AsyncRead + AsyncWrite + Unpin,
    {
        aio::serve_stream(stream, &self.handler()?).await
    }

    fn handler(self) -> io::Result<OriginHandler> {
        let server = self.server.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "ServeOptions requires a server (ServeOptions::server)",
            )
        })?;
        Ok(OriginHandler {
            server,
            clock: self.clock,
            ops: self.ops,
        })
    }
}

/// A [`ServeOptions`] whose server is known to be set.
struct OriginHandler {
    server: Arc<OriginServer>,
    clock: Clock,
    ops: bool,
}

impl Handler for OriginHandler {
    fn clock(&self) -> &Clock {
        &self.clock
    }

    async fn handle(&self, req: &Request) -> Reply {
        // An operational endpoint answers only where the site defines
        // nothing: site resources are never shadowed.
        let free = |path| self.server.site().get(path).is_none();
        Reply::Send(match aio::ops_path(req, self.ops) {
            Some(path @ "/metrics") if free(path) => self.metrics_response(),
            Some(path @ "/healthz") if free(path) => {
                aio::ops_response("text/plain", &b"ok\n"[..], &self.clock)
            }
            _ => self.server.handle(req, self.clock.secs()),
        })
    }
}

impl OriginHandler {
    /// Renders the origin's telemetry registry in the Prometheus text
    /// format. Scrapes also publish the clock (ms resolution) so
    /// dashboards can align virtual-time runs.
    fn metrics_response(&self) -> Response {
        let telemetry = self.server.telemetry();
        telemetry
            .gauge(
                "origin_clock_milliseconds",
                "The server clock at scrape time (virtual or wall ms)",
                &[],
            )
            .set(self.clock.millis() as f64);
        let body = telemetry.render_prometheus();
        aio::ops_response("text/plain; version=0.0.4", body, &self.clock)
    }
}

/// A running TCP origin.
pub struct TcpOrigin {
    /// The bound listening address (useful with `127.0.0.1:0`).
    pub local_addr: std::net::SocketAddr,
    listener: Listener,
}

impl TcpOrigin {
    /// Starts configuring a TCP origin:
    /// `TcpOrigin::builder().server(origin).clock(clock).bind(addr)`.
    /// See [`ServeOptions`] for every knob.
    pub fn builder() -> ServeOptions {
        ServeOptions::new()
    }

    /// Stops accepting and waits for the accept loop to exit
    /// (in-flight connections finish on their own).
    pub async fn shutdown(self) {
        self.listener.shutdown().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::HeaderMode;
    use cachecatalyst_httpwire::aio::ClientConn;
    use cachecatalyst_httpwire::{Method, Request, StatusCode};
    use cachecatalyst_webmodel::example_site;
    use tokio::net::TcpStream;
    use tokio::sync::watch;

    fn origin() -> Arc<OriginServer> {
        Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst))
    }

    async fn bind_plain() -> TcpOrigin {
        TcpOrigin::builder()
            .server(origin())
            .clock(fixed_clock(0))
            .bind("127.0.0.1:0")
            .await
            .unwrap()
    }

    #[tokio::test]
    async fn serves_over_real_tcp() {
        let server = bind_plain().await;
        let stream = TcpStream::connect(server.local_addr).await.unwrap();
        let mut client = ClientConn::new(stream);
        let resp = client
            .round_trip(&Request::get("/index.html").with_header("host", "example.org"))
            .await
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert!(resp.headers.get("x-etag-config").is_some());
        server.shutdown().await;
    }

    #[tokio::test]
    async fn bind_without_server_is_an_input_error() {
        let Err(err) = TcpOrigin::builder().bind("127.0.0.1:0").await else {
            panic!("bind without a server must fail");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[tokio::test]
    async fn keep_alive_and_conditional_requests() {
        let server = bind_plain().await;
        let stream = TcpStream::connect(server.local_addr).await.unwrap();
        let mut client = ClientConn::new(stream);
        let first = client.round_trip(&Request::get("/a.css")).await.unwrap();
        let tag = first.etag().unwrap();
        let second = client
            .round_trip(&Request::get("/a.css").with_header("if-none-match", &tag.to_string()))
            .await
            .unwrap();
        assert_eq!(second.status, StatusCode::NOT_MODIFIED);
        server.shutdown().await;
    }

    #[tokio::test]
    async fn parallel_clients() {
        let server = bind_plain().await;
        let addr = server.local_addr;
        let mut tasks = Vec::new();
        for _ in 0..8 {
            tasks.push(tokio::spawn(async move {
                let stream = TcpStream::connect(addr).await.unwrap();
                let mut client = ClientConn::new(stream);
                for path in ["/index.html", "/a.css", "/b.js"] {
                    let resp = client.round_trip(&Request::get(path)).await.unwrap();
                    assert_eq!(resp.status, StatusCode::OK);
                }
            }));
        }
        for t in tasks {
            t.await.unwrap();
        }
        server.shutdown().await;
    }

    #[tokio::test]
    async fn metrics_and_healthz_served_when_opted_in() {
        let server = TcpOrigin::builder()
            .server(origin())
            .clock(fixed_clock(0))
            .ops(true)
            .bind("127.0.0.1:0")
            .await
            .unwrap();
        let stream = TcpStream::connect(server.local_addr).await.unwrap();
        let mut client = ClientConn::new(stream);
        // Generate some traffic, then scrape.
        client
            .round_trip(&Request::get("/index.html"))
            .await
            .unwrap();
        let health = client.round_trip(&Request::get("/healthz")).await.unwrap();
        assert_eq!(health.status, StatusCode::OK);
        let scrape = client.round_trip(&Request::get("/metrics")).await.unwrap();
        assert_eq!(scrape.status, StatusCode::OK);
        assert!(scrape
            .headers
            .get("content-type")
            .unwrap()
            .starts_with("text/plain"));
        let text = String::from_utf8_lossy(&scrape.body).into_owned();
        assert!(
            text.contains("origin_requests_total{mode=\"catalyst\"} 1"),
            "{text}"
        );
        assert!(text.contains("origin_clock_milliseconds 0"));
        server.shutdown().await;
    }

    #[tokio::test]
    async fn ops_endpoints_are_off_by_default() {
        let server = bind_plain().await;
        let stream = TcpStream::connect(server.local_addr).await.unwrap();
        let mut client = ClientConn::new(stream);
        for path in ["/metrics", "/healthz"] {
            let resp = client.round_trip(&Request::get(path)).await.unwrap();
            assert_eq!(resp.status, StatusCode::NOT_FOUND, "{path}");
        }
        server.shutdown().await;
    }

    #[tokio::test]
    async fn ops_endpoints_answer_get_only() {
        let server = TcpOrigin::builder()
            .server(origin())
            .clock(fixed_clock(0))
            .ops(true)
            .bind("127.0.0.1:0")
            .await
            .unwrap();
        let stream = TcpStream::connect(server.local_addr).await.unwrap();
        let mut client = ClientConn::new(stream);
        let mut post = Request::get("/metrics");
        post.method = Method::Post;
        // Non-GET goes to site dispatch, which rejects the method.
        let resp = client.round_trip(&post).await.unwrap();
        assert_eq!(resp.status, StatusCode::METHOD_NOT_ALLOWED);
        server.shutdown().await;
    }

    #[tokio::test]
    async fn site_resource_at_metrics_path_is_not_shadowed() {
        use cachecatalyst_webmodel::{
            ChangeModel, Discovery, GeneratedResource, HeaderPolicy, ResourceKind, ResourceSpec,
        };
        let mut site = example_site();
        site.insert_resource(GeneratedResource {
            spec: ResourceSpec::leaf(
                "/metrics",
                ResourceKind::Js,
                1_000,
                Discovery::Static {
                    parent: "/index.html".into(),
                },
                ChangeModel::Immutable,
            ),
            policy: HeaderPolicy::NoCache,
        });
        let origin = Arc::new(OriginServer::new(site, HeaderMode::Catalyst));
        let server = TcpOrigin::builder()
            .server(origin)
            .clock(fixed_clock(0))
            .ops(true)
            .bind("127.0.0.1:0")
            .await
            .unwrap();
        let stream = TcpStream::connect(server.local_addr).await.unwrap();
        let mut client = ClientConn::new(stream);
        // The site's own /metrics resource wins over the scrape
        // endpoint; /healthz (not a site path) still answers.
        let resp = client.round_trip(&Request::get("/metrics")).await.unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(
            resp.headers.get("content-type"),
            Some("application/javascript")
        );
        assert!(resp.etag().is_some(), "site response carries validators");
        let health = client.round_trip(&Request::get("/healthz")).await.unwrap();
        assert_eq!(health.status, StatusCode::OK);
        assert_eq!(health.body.as_ref(), b"ok\n");
        server.shutdown().await;
    }

    #[tokio::test]
    async fn virtual_clock_changes_served_content() {
        let (tx, rx) = watch::channel(0i64);
        let server = TcpOrigin::builder()
            .server(origin())
            .clock(watch_clock(rx))
            .bind("127.0.0.1:0")
            .await
            .unwrap();
        let stream = TcpStream::connect(server.local_addr).await.unwrap();
        let mut client = ClientConn::new(stream);
        let at0 = client.round_trip(&Request::get("/d.jpg")).await.unwrap();
        tx.send(7200).unwrap(); // advance two hours: d.jpg changed
        let at2h = client.round_trip(&Request::get("/d.jpg")).await.unwrap();
        assert_ne!(at0.etag().unwrap(), at2h.etag().unwrap());
        server.shutdown().await;
    }
}
