//! Integration: the full CacheCatalyst protocol over real TCP sockets
//! — our HTTP/1.1 client talking to the tokio origin, exercising the
//! same logic a real service worker would run.

use std::sync::Arc;
use std::time::Instant;

use cachecatalyst::catalyst::{ServiceWorker, SwDecision};
use cachecatalyst::chaos::{live_slack_ms, within_band};
use cachecatalyst::httpwire::aio::ClientConn;
use cachecatalyst::origin::{watch_clock, TcpOrigin};
use cachecatalyst::prelude::*;
use tokio::net::TcpStream;
use tokio::sync::watch;

async fn start_origin(mode: HeaderMode) -> (TcpOrigin, watch::Sender<i64>) {
    let (tx, rx) = watch::channel(0i64);
    let origin = Arc::new(OriginServer::new(example_site(), mode));
    let server = TcpOrigin::builder()
        .server(origin)
        .clock(watch_clock(rx))
        .bind("127.0.0.1:0")
        .await
        .expect("bind");
    (server, tx)
}

#[tokio::test]
async fn catalyst_protocol_over_tcp() {
    let (server, clock) = start_origin(HeaderMode::Catalyst).await;
    let stream = TcpStream::connect(server.local_addr).await.unwrap();
    let mut conn = ClientConn::new(stream);
    let mut sw = ServiceWorker::new();

    // --- First visit ---
    let nav = conn
        .round_trip(&Request::get("/index.html").with_header("host", "example.org"))
        .await
        .unwrap();
    assert_eq!(nav.status, StatusCode::OK);
    sw.on_navigation(&nav);
    assert_eq!(sw.config().len(), 2); // /a.css and /b.js

    // Fetch the statically-mapped subresources, teaching the SW.
    for path in ["/a.css", "/b.js"] {
        let url = format!("http://example.org{path}");
        match sw.intercept(&url, path) {
            SwDecision::Forward { if_none_match } => {
                assert!(if_none_match.is_none(), "cold cache");
                let resp = conn.round_trip(&Request::get(path)).await.unwrap();
                assert_eq!(resp.status, StatusCode::OK);
                sw.on_response(&url, &resp);
            }
            other => panic!("cold fetch must forward: {other:?}"),
        }
    }

    // --- Revisit two hours later ---
    clock.send(7200).unwrap();
    let nav2 = conn
        .round_trip(&Request::get("/index.html").with_header("host", "example.org"))
        .await
        .unwrap();
    sw.on_navigation(&nav2);

    // a.css and b.js are unchanged at +2h: zero-RTT local serves.
    for path in ["/a.css", "/b.js"] {
        let url = format!("http://example.org{path}");
        match sw.intercept(&url, path) {
            SwDecision::ServeLocal { response: resp, .. } => {
                assert_eq!(resp.status, StatusCode::OK);
                assert!(!resp.body.is_empty());
                assert_eq!(resp.headers.get("x-served-by"), Some("cachecatalyst-sw"));
            }
            other => panic!("{path} should be served locally: {other:?}"),
        }
    }
    server.shutdown().await;
}

#[tokio::test]
async fn changed_resource_is_refetched_over_tcp() {
    let (server, clock) = start_origin(HeaderMode::Catalyst).await;
    let stream = TcpStream::connect(server.local_addr).await.unwrap();
    let mut conn = ClientConn::new(stream);
    let mut sw = ServiceWorker::new();

    let nav = conn.round_trip(&Request::get("/index.html")).await.unwrap();
    sw.on_navigation(&nav);
    // d.jpg is JS-discovered (unmapped), but the SW still caches it.
    let url = "http://example.org/d.jpg";
    let resp = conn.round_trip(&Request::get("/d.jpg")).await.unwrap();
    sw.on_response(url, &resp);
    let v0_body = resp.body.clone();

    clock.send(7200).unwrap(); // d.jpg changes at 100 min
    let nav2 = conn.round_trip(&Request::get("/index.html")).await.unwrap();
    sw.on_navigation(&nav2);
    match sw.intercept(url, "/d.jpg") {
        SwDecision::Forward { if_none_match } => {
            // Forwarded with the old validator; the origin sees the
            // change and sends the new body.
            let mut req = Request::get("/d.jpg");
            if let Some(tag) = if_none_match {
                req.headers.insert("if-none-match", &tag.to_string());
            }
            let resp = conn.round_trip(&req).await.unwrap();
            assert_eq!(resp.status, StatusCode::OK);
            assert_ne!(resp.body, v0_body, "changed content must be refetched");
        }
        other => panic!("changed resource must forward: {other:?}"),
    }
    server.shutdown().await;
}

#[tokio::test]
async fn baseline_origin_sends_no_config_over_tcp() {
    let (server, _clock) = start_origin(HeaderMode::Baseline).await;
    let stream = TcpStream::connect(server.local_addr).await.unwrap();
    let mut conn = ClientConn::new(stream);
    let nav = conn.round_trip(&Request::get("/index.html")).await.unwrap();
    assert!(nav.headers.get("x-etag-config").is_none());
    assert_eq!(EtagConfig::accept(&nav.headers), Some(EtagConfig::new()));
    server.shutdown().await;
}

#[tokio::test]
async fn many_concurrent_clients_over_tcp() {
    let (server, _clock) = start_origin(HeaderMode::Catalyst).await;
    let addr = server.local_addr;
    let mut tasks = Vec::new();
    for i in 0..16 {
        tasks.push(tokio::spawn(async move {
            let stream = TcpStream::connect(addr).await.unwrap();
            let mut conn = ClientConn::new(stream);
            let paths = ["/index.html", "/a.css", "/b.js", "/c.js", "/d.jpg"];
            let path = paths[i % paths.len()];
            for _ in 0..4 {
                let resp = conn.round_trip(&Request::get(path)).await.unwrap();
                assert_eq!(resp.status, StatusCode::OK, "{path}");
            }
        }));
    }
    for t in tasks {
        t.await.unwrap();
    }
    server.shutdown().await;
}

#[tokio::test]
async fn loopback_round_trips_are_stable_within_the_tolerance_band() {
    // Wall-clock assertions over real sockets need the band idiom the
    // chaos module provides: a relative envelope plus absolute slack
    // for scheduler noise (the offline tokio stand-in detects IO
    // readiness by re-polling every ~250 µs, so every await point can
    // contribute a fraction of a millisecond). A bare ratio between
    // two ~100 µs loopback round trips would be hopelessly flaky.
    let (server, _clock) = start_origin(HeaderMode::Catalyst).await;
    let stream = TcpStream::connect(server.local_addr).await.unwrap();
    let mut conn = ClientConn::new(stream);
    // Warm up: first exchange pays connection setup and lazy init.
    conn.round_trip(&Request::get("/index.html")).await.unwrap();

    let mut samples_ms = Vec::new();
    for _ in 0..6 {
        let start = Instant::now();
        let resp = conn.round_trip(&Request::get("/index.html")).await.unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        samples_ms.push(start.elapsed().as_secs_f64() * 1000.0);
    }
    let fastest = samples_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = samples_ms.iter().copied().fold(0.0f64, f64::max);
    // One request per sample → slack budget for a single fetch.
    assert!(
        within_band(fastest, slowest, 0.5, live_slack_ms(1)),
        "loopback round trips spread beyond the band: {samples_ms:?}"
    );
    server.shutdown().await;
}

#[tokio::test]
async fn large_etag_maps_split_and_survive_tcp() {
    // A 300-resource page produces an X-Etag-Config well beyond one
    // header line's worth; it must arrive split across multiple lines
    // and recombine losslessly over a real socket.
    let site = Site::generate(SiteSpec {
        host: "big.example".into(),
        seed: 4096,
        n_resources: 300,
        js_discovered_fraction: 0.0,
        ..Default::default()
    });
    let origin = Arc::new(OriginServer::new(site.clone(), HeaderMode::Catalyst));
    let expected = origin.handle(&Request::get("/index.html"), 0);
    let expected_config = EtagConfig::accept(&expected.headers).unwrap();
    assert!(expected_config.len() >= 250, "{}", expected_config.len());

    let (_tx, rx) = watch::channel(0i64);
    let server = TcpOrigin::builder()
        .server(origin)
        .clock(cachecatalyst::origin::watch_clock(rx))
        .bind("127.0.0.1:0")
        .await
        .unwrap();
    let stream = TcpStream::connect(server.local_addr).await.unwrap();
    let mut conn = ClientConn::new(stream);
    let resp = conn.round_trip(&Request::get("/index.html")).await.unwrap();
    // Multiple physical header lines on the wire…
    assert!(
        resp.headers.get_all("x-etag-config").count() > 1,
        "map should span several header lines"
    );
    // …that recombine to the exact same map.
    assert_eq!(EtagConfig::accept(&resp.headers), Some(expected_config));
    server.shutdown().await;
}
