//! Builder determinism: two [`ServeOptions`] chains with the same
//! configuration must be observationally identical — same response
//! bytes, same deterministic `/metrics` series.
//!
//! Two servers built alike, over TCP or over an in-memory pipe, serve
//! the same head and body for every path and expose the same seeded
//! `/metrics` series. Every replayable experiment in EXPERIMENTS.md
//! leans on that. The origin has no fault seam; the determinism of the
//! server-side one, `proxies::FaultyUpstream`, is pinned in its own
//! tests.
//!
//! [`ServeOptions`]: cachecatalyst::origin::ServeOptions

use std::sync::Arc;

use cachecatalyst::httpwire::aio::ClientConn;
use cachecatalyst::httpwire::hash::xxh64;
use cachecatalyst::origin::{fixed_clock, watch_clock, ServeOptions, TcpOrigin};
use cachecatalyst::prelude::*;
use tokio::net::TcpStream;
use tokio::sync::watch;

const PATHS: [&str; 5] = ["/index.html", "/a.css", "/b.js", "/c.js", "/d.jpg"];

fn origin() -> Arc<OriginServer> {
    Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst))
}

/// The full observable surface of one response. Virtual clocks make
/// even the `Date` header deterministic, so everything is compared.
fn fingerprint(resp: &Response) -> String {
    let mut headers: Vec<String> = resp
        .headers
        .iter()
        .map(|(k, v)| format!("{}: {}", k.as_str(), v.as_str()))
        .collect();
    headers.sort();
    format!(
        "{} | {} | body[{}]={:016x}",
        resp.status,
        headers.join("; "),
        resp.body.len(),
        xxh64(&resp.body)
    )
}

/// Drives the canonical traffic pattern — a cold visit of every
/// resource, then a two-hour-later conditional revisit — against a
/// listening origin and returns every response fingerprint in order.
async fn drive(addr: std::net::SocketAddr, clock: &watch::Sender<i64>) -> Vec<String> {
    let stream = TcpStream::connect(addr).await.unwrap();
    let mut conn = ClientConn::new(stream);
    let mut prints = Vec::new();
    let mut etags = Vec::new();
    clock.send(0).unwrap();
    for path in PATHS {
        let resp = conn
            .round_trip(&Request::get(path).with_header("host", "example.org"))
            .await
            .unwrap();
        etags.push(resp.etag().expect("validator").to_string());
        prints.push(fingerprint(&resp));
    }
    clock.send(7200).unwrap();
    for (path, tag) in PATHS.iter().zip(&etags) {
        let resp = conn
            .round_trip(&Request::get(path).with_header("if-none-match", tag))
            .await
            .unwrap();
        prints.push(fingerprint(&resp));
    }
    prints
}

/// Parses a Prometheus exposition into (a) the set of metric names
/// and (b) the exact value of every monotonic-counter sample. The
/// `_total` counters are fully determined by the traffic; latency
/// histogram buckets are wall-clock-shaped and only compared by name.
fn deterministic_series(text: &str) -> (Vec<String>, Vec<(String, String)>) {
    let mut names = std::collections::BTreeSet::new();
    let mut counters = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let name = line
            .split(['{', ' '])
            .next()
            .expect("split is never empty")
            .to_owned();
        if name.ends_with("_total") {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            counters.push((series.to_owned(), value.to_owned()));
        }
        names.insert(name);
    }
    (names.into_iter().collect(), counters)
}

#[tokio::test]
async fn identical_builder_configs_serve_identical_bytes() {
    let (tx_a, rx_a) = watch::channel(0i64);
    let a = TcpOrigin::builder()
        .server(origin())
        .clock(watch_clock(rx_a))
        .bind("127.0.0.1:0")
        .await
        .unwrap();
    let (tx_b, rx_b) = watch::channel(0i64);
    let b = TcpOrigin::builder()
        .server(origin())
        .clock(watch_clock(rx_b))
        .bind("127.0.0.1:0")
        .await
        .unwrap();

    let a_prints = drive(a.local_addr, &tx_a).await;
    let b_prints = drive(b.local_addr, &tx_b).await;
    assert_eq!(a_prints.len(), 2 * PATHS.len());
    assert_eq!(a_prints, b_prints);

    // Ops endpoints stay opt-in: without `.ops(true)`, site dispatch
    // answers (and the example site has no /metrics resource).
    for addr in [a.local_addr, b.local_addr] {
        let stream = TcpStream::connect(addr).await.unwrap();
        let mut conn = ClientConn::new(stream);
        let resp = conn.round_trip(&Request::get("/metrics")).await.unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }
    a.shutdown().await;
    b.shutdown().await;
}

#[tokio::test]
async fn identical_ops_configs_expose_identical_metrics() {
    let (tx_a, rx_a) = watch::channel(0i64);
    let a = TcpOrigin::builder()
        .server(origin())
        .clock(watch_clock(rx_a))
        .ops(true)
        .bind("127.0.0.1:0")
        .await
        .unwrap();
    let (tx_b, rx_b) = watch::channel(0i64);
    let b = TcpOrigin::builder()
        .server(origin())
        .clock(watch_clock(rx_b))
        .ops(true)
        .bind("127.0.0.1:0")
        .await
        .unwrap();

    assert_eq!(
        drive(a.local_addr, &tx_a).await,
        drive(b.local_addr, &tx_b).await
    );

    let mut scrapes = Vec::new();
    for addr in [a.local_addr, b.local_addr] {
        let stream = TcpStream::connect(addr).await.unwrap();
        let mut conn = ClientConn::new(stream);
        let resp = conn.round_trip(&Request::get("/metrics")).await.unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        scrapes.push(String::from_utf8(resp.body.to_vec()).unwrap());
    }
    let (a_names, a_counters) = deterministic_series(&scrapes[0]);
    let (b_names, b_counters) = deterministic_series(&scrapes[1]);
    assert_eq!(a_names, b_names, "series sets diverge");
    assert_eq!(a_counters, b_counters, "counter values diverge");
    assert!(
        a_counters
            .iter()
            .any(|(series, value)| series.starts_with("origin_requests_total") && value == "10"),
        "traffic not accounted: {a_counters:?}"
    );
    a.shutdown().await;
    b.shutdown().await;
}

/// Runs `client` against a serving loop over an in-process duplex
/// pipe, returning the client's result once the server task settles.
async fn over_duplex<Srv, Fut, Out, FutC>(
    serve: Srv,
    client: impl FnOnce(ClientConn<tokio::io::DuplexStream>) -> FutC,
) -> Out
where
    Srv: FnOnce(tokio::io::DuplexStream) -> Fut,
    Fut: std::future::Future<Output = ()> + Send + 'static,
    FutC: std::future::Future<Output = Out>,
{
    let (client_end, server_end) = tokio::io::duplex(64 * 1024);
    let server = tokio::spawn(serve(server_end));
    let out = client(ClientConn::new(client_end)).await;
    // Dropping the client's pipe end lands the serving loop on a clean
    // `Closed`, so the task joins instead of lingering.
    server.await.expect("serving loop settles");
    out
}

#[tokio::test]
async fn serve_stream_is_deterministic_over_a_pipe() {
    let fetch_all = |mut conn: ClientConn<tokio::io::DuplexStream>| async move {
        let mut prints = Vec::new();
        for path in PATHS {
            let resp = conn
                .round_trip(&Request::get(path).with_header("host", "example.org"))
                .await
                .unwrap();
            prints.push(fingerprint(&resp));
        }
        prints
    };

    let mut runs = Vec::new();
    for _ in 0..2 {
        let server = origin();
        let prints = over_duplex(
            move |stream| async move {
                let _ = ServeOptions::new()
                    .server(server)
                    .clock(fixed_clock(3600))
                    .serve_stream(stream)
                    .await;
            },
            fetch_all,
        )
        .await;
        runs.push(prints);
    }
    assert_eq!(runs[0].len(), PATHS.len());
    assert_eq!(runs[0], runs[1]);
}
