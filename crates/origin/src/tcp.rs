//! The tokio TCP front end for the origin server.
//!
//! Serves the sans-IO handler over real HTTP/1.1 connections with
//! keep-alive — the end-to-end path used by the live demo and the
//! integration tests (the discrete-event benchmarks bypass TCP).
//!
//! The listener and the connection loop are
//! [`cachecatalyst_httpwire::aio`]'s; this module is the origin's
//! [`Handler`]: site dispatch, the operational endpoints, and the
//! seeded fault seam. Configuration goes through one builder,
//! [`ServeOptions`] (`TcpOrigin::builder().server(..).ops(true)
//! .faults(plan).bind(addr)`), which composes — an origin can serve
//! `/metrics` *and* run a fault schedule at the same time.

#![warn(missing_docs)]

use std::io;
use std::sync::Arc;
use std::time::Duration;

use cachecatalyst_httpwire::aio::{self, ConnError, Handler, Listener, Reply};
pub use cachecatalyst_httpwire::aio::{
    fixed_clock, wall_clock, watch_clock, watch_clock_ms, Clock,
};
use cachecatalyst_httpwire::{HeaderName, Request, Response, StatusCode};
use cachecatalyst_netsim::{Fault, FaultPlan};
use tokio::io::{AsyncRead, AsyncWrite};

use crate::server::OriginServer;

/// Shared, seeded fault state for a TCP origin: one draw per request,
/// with a progress guarantee across all connections.
pub use cachecatalyst_netsim::ServerFaults;

/// Everything configurable about serving an origin over TCP (or any
/// byte stream): which [`OriginServer`], whose [`Clock`], whether the
/// operational endpoints answer, and an optional fault schedule.
///
/// Obtained from [`TcpOrigin::builder`]; finish with
/// [`ServeOptions::bind`] (a listening server) or
/// [`ServeOptions::serve_stream`] (one already-connected stream).
#[derive(Clone)]
pub struct ServeOptions {
    server: Option<Arc<OriginServer>>,
    clock: Clock,
    ops: bool,
    faults: Option<Arc<ServerFaults>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            server: None,
            clock: wall_clock(),
            ops: false,
            faults: None,
        }
    }
}

impl ServeOptions {
    /// An empty configuration: no server yet, wall clock, operational
    /// endpoints off, no faults.
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

    /// Serve through a fresh seeded fault schedule: every request
    /// draws once, and the drawn fault damages the response (5xx
    /// substitution, delayed writes, config-map tampering, mid-body
    /// truncation, connection drops). Same plan + same request order
    /// ⇒ same damage, byte for byte. The schedule (and its
    /// consecutive-fault progress guarantee) is shared across all
    /// connections of this configuration.
    pub fn faults(self, plan: FaultPlan) -> ServeOptions {
        self.shared_faults(ServerFaults::new(plan))
    }

    /// Like [`ServeOptions::faults`], but sharing an existing
    /// [`ServerFaults`] state — e.g. one schedule spanning several
    /// listeners, or a per-stream serving loop that must keep its
    /// draw order across connections.
    pub fn shared_faults(mut self, faults: Arc<ServerFaults>) -> ServeOptions {
        self.faults = Some(faults);
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
            faults: self.faults,
        })
    }
}

/// A [`ServeOptions`] whose server is known to be set.
struct OriginHandler {
    server: Arc<OriginServer>,
    clock: Clock,
    ops: bool,
    faults: Option<Arc<ServerFaults>>,
}

impl Handler for OriginHandler {
    fn clock(&self) -> &Clock {
        &self.clock
    }

    async fn handle(&self, req: &Request) -> Reply {
        // An operational endpoint answers only where the site defines
        // nothing: site resources are never shadowed.
        let free = |path| self.server.site().get(path).is_none();
        let mut resp = match aio::ops_path(req, self.ops) {
            Some(path @ "/metrics") if free(path) => self.metrics_response(),
            Some(path @ "/healthz") if free(path) => {
                aio::ops_response("text/plain", &b"ok\n"[..], &self.clock)
            }
            _ => self.server.handle(req, self.clock.secs()),
        };
        match self.faults.as_ref().and_then(|f| f.draw()) {
            None => {}
            Some(Fault::ServerError { status }) => {
                resp = Response::empty(StatusCode::new(status).expect("5xx is valid"))
                    .with_header(HeaderName::X_CC_FAULT, "server-error");
            }
            Some(Fault::Delay { ms }) => {
                tokio::time::sleep(Duration::from_millis(ms)).await;
            }
            Some(Fault::CorruptConfigEntry { salt }) => {
                cachecatalyst_catalyst::tamper_config_headers(&mut resp, Some(salt));
            }
            Some(Fault::StaleConfigEntry) => {
                cachecatalyst_catalyst::tamper_config_headers(&mut resp, None);
            }
            Some(Fault::ResetMidBody { fraction }) => {
                return Reply::SendPrefix(resp, fraction);
            }
            Some(Fault::Stall | Fault::LossBurst { .. }) => return Reply::HangUp,
        }
        Reply::Send(resp)
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
    async fn faulted_origin_damages_some_responses_but_guarantees_progress() {
        use cachecatalyst_netsim::FaultPlan;
        let server = TcpOrigin::builder()
            .server(origin())
            .clock(fixed_clock(0))
            .faults(FaultPlan::new(11).with_fault_rate(0.7))
            .bind("127.0.0.1:0")
            .await
            .unwrap();
        let mut outcomes = Vec::new();
        // A client that redials after any failure must always make
        // progress: the schedule serves clean after two consecutive
        // faults, so three attempts per request suffice.
        for _ in 0..20 {
            let mut got = None;
            for _attempt in 0..3 {
                let stream = TcpStream::connect(server.local_addr).await.unwrap();
                let mut client = ClientConn::new(stream);
                match client.round_trip(&Request::get("/a.css")).await {
                    Ok(resp) if resp.status == StatusCode::OK => {
                        got = Some(resp);
                        break;
                    }
                    Ok(_) | Err(_) => continue,
                }
            }
            let resp = got.expect("progress within 3 attempts");
            outcomes.push(resp.body.len());
        }
        // Every successful body is the real resource.
        assert!(outcomes.iter().all(|&n| n == outcomes[0]));
        server.shutdown().await;
    }

    #[tokio::test]
    async fn ops_and_faults_compose_on_one_listener() {
        // The old trio could not express this: a fault schedule AND
        // the operational endpoints on the same server.
        use cachecatalyst_netsim::FaultPlan;
        let server = TcpOrigin::builder()
            .server(origin())
            .clock(fixed_clock(0))
            .ops(true)
            .faults(FaultPlan::new(7).with_fault_rate(1.0))
            .bind("127.0.0.1:0")
            .await
            .unwrap();
        // At rate 1.0 with max_consecutive 2, at least one of any
        // three consecutive requests is served clean — including the
        // scrape endpoint (faults damage ops responses too; the
        // schedule does not special-case them).
        let mut ok = false;
        for _ in 0..6 {
            let stream = TcpStream::connect(server.local_addr).await.unwrap();
            let mut client = ClientConn::new(stream);
            if let Ok(resp) = client.round_trip(&Request::get("/metrics")).await {
                if resp.status == StatusCode::OK
                    && String::from_utf8_lossy(&resp.body).contains("origin_clock_milliseconds")
                {
                    ok = true;
                    break;
                }
            }
        }
        assert!(ok, "a clean /metrics scrape must get through");
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
