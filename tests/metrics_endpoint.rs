//! Integration: the origin's operational endpoints over real TCP —
//! `/metrics` must expose valid Prometheus text covering the traffic
//! the connection just generated — and the browser's JSONL page-load
//! traces, whose per-fetch events must sum to the page's resources.

use std::sync::Arc;

use cachecatalyst::httpwire::aio::ClientConn;
use cachecatalyst::origin::{watch_clock_ms, TcpOrigin};
use cachecatalyst::prelude::*;
use cachecatalyst::telemetry::{to_jsonl, Recorder};
use tokio::net::TcpStream;
use tokio::sync::watch;

/// Starts an origin with the operational endpoints enabled (they are
/// opt-in: the builder serves site traffic only unless `.ops(true)`).
/// The returned sender drives a millisecond-resolution virtual clock.
async fn start_origin(mode: HeaderMode) -> (TcpOrigin, watch::Sender<i64>) {
    let (tx, rx) = watch::channel(0i64);
    let origin = Arc::new(OriginServer::new(example_site(), mode));
    let server = TcpOrigin::builder()
        .server(origin)
        .clock(watch_clock_ms(rx))
        .ops(true)
        .bind("127.0.0.1:0")
        .await
        .expect("bind");
    (server, tx)
}

/// Extracts the value of a single-sample metric line (`name value` or
/// `name{labels} value`).
fn sample(text: &str, name_and_labels: &str) -> Option<f64> {
    text.lines()
        .find(|l| {
            l.strip_prefix(name_and_labels)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[tokio::test]
async fn metrics_cover_a_full_page_load() {
    let (server, clock) = start_origin(HeaderMode::Catalyst).await;
    let stream = TcpStream::connect(server.local_addr).await.unwrap();
    let mut conn = ClientConn::new(stream);

    // Cold visit: fetch the page and every subresource, keeping the
    // validators for the revisit.
    let paths = ["/index.html", "/a.css", "/b.js", "/c.js", "/d.jpg"];
    let mut etags = Vec::new();
    for path in paths {
        let resp = conn
            .round_trip(&Request::get(path).with_header("host", "example.org"))
            .await
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        etags.push(resp.etag().expect("validator").to_string());
    }

    // Revisit one minute later (the clock carries milliseconds; the
    // extra 500 ms checks sub-second resolution survives end to end):
    // everything revalidates to 304.
    clock.send(60_500).unwrap();
    for (path, tag) in paths.iter().zip(&etags) {
        let resp = conn
            .round_trip(&Request::get(path).with_header("if-none-match", tag))
            .await
            .unwrap();
        assert_eq!(resp.status, StatusCode::NOT_MODIFIED, "{path}");
    }

    let scrape = conn.round_trip(&Request::get("/metrics")).await.unwrap();
    assert_eq!(scrape.status, StatusCode::OK);
    // Prometheus scrapers key the exposition-format version off the
    // Content-Type parameter; the text format is 0.0.4.
    assert_eq!(
        scrape.headers.get("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = String::from_utf8(scrape.body.to_vec()).unwrap();

    // Request and status-class counters match the traffic above.
    let requests = sample(&text, "origin_requests_total{mode=\"catalyst\"}")
        .unwrap_or_else(|| panic!("missing request counter:\n{text}"));
    assert_eq!(requests, 10.0);
    assert_eq!(
        sample(&text, "origin_responses_total{class=\"2xx\"}"),
        Some(5.0)
    );
    assert_eq!(
        sample(&text, "origin_responses_total{class=\"3xx\"}"),
        Some(5.0)
    );
    // The 304 ratio of this run is computable and equals one half.
    let nm = sample(&text, "origin_not_modified_total").unwrap();
    assert_eq!(nm / requests, 0.5);
    // The scrape publishes the virtual clock at full ms resolution
    // (a seconds-quantizing clock would read 60000 here).
    assert_eq!(sample(&text, "origin_clock_milliseconds"), Some(60_500.0));
    // Map building happened and its cost is accounted.
    assert_eq!(sample(&text, "origin_map_entries"), Some(2.0));
    assert!(sample(&text, "origin_map_build_seconds_count").unwrap() >= 1.0);
    assert!(sample(&text, "origin_etag_config_header_bytes_total").unwrap() > 0.0);

    // The handle-latency histogram is present with cumulative buckets
    // ending in +Inf, and every exposition line is well formed.
    assert!(text.contains("origin_handle_seconds_bucket{mode=\"catalyst\",le=\"+Inf\"}"));
    assert_eq!(
        sample(&text, "origin_handle_seconds_count{mode=\"catalyst\"}"),
        Some(10.0)
    );
    for line in text.lines() {
        assert!(
            line.starts_with("# HELP ")
                || line.starts_with("# TYPE ")
                || line
                    .rsplit(' ')
                    .next()
                    .is_some_and(|v| v.parse::<f64>().is_ok()),
            "malformed exposition line: {line}"
        );
    }
    server.shutdown().await;
}

#[tokio::test]
async fn metrics_ignore_operational_endpoints() {
    let (server, _clock) = start_origin(HeaderMode::Baseline).await;
    let stream = TcpStream::connect(server.local_addr).await.unwrap();
    let mut conn = ClientConn::new(stream);

    let health = conn.round_trip(&Request::get("/healthz")).await.unwrap();
    assert_eq!(health.status, StatusCode::OK);
    conn.round_trip(&Request::get("/metrics")).await.unwrap();
    let scrape = conn.round_trip(&Request::get("/metrics")).await.unwrap();
    let text = String::from_utf8(scrape.body.to_vec()).unwrap();
    // Scrapes and health checks are answered before site dispatch, so
    // they never inflate origin traffic counters.
    assert!(
        !text.contains("origin_requests_total"),
        "no site traffic yet:\n{text}"
    );
    server.shutdown().await;
}

#[test]
fn jsonl_trace_outcomes_sum_to_resource_count() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let base = Url::parse("http://example.org/index.html").unwrap();
    let recorder = Arc::new(Recorder::new());
    let mut browser = Browser::catalyst().with_recorder(recorder.clone());

    browser.load(&origin, NetworkConditions::five_g_median(), &base, 0);
    let trace = to_jsonl(&recorder.take());

    let fetch_ends: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("\"event\":\"fetch_end\""))
        .collect();
    // The example page has five resources; each produced exactly one
    // terminal fetch event with a known outcome.
    assert_eq!(fetch_ends.len(), 5, "{trace}");
    let resources_line = trace
        .lines()
        .find(|l| l.contains("\"event\":\"page_load_end\""))
        .expect("page_load_end present");
    assert!(
        resources_line.contains("\"resources\":5"),
        "{resources_line}"
    );
    let count = |outcome: &str| {
        fetch_ends
            .iter()
            .filter(|l| l.contains(&format!("\"outcome\":\"{outcome}\"")))
            .count()
    };
    assert_eq!(
        count("full-fetch")
            + count("conditional-304")
            + count("cache-fresh")
            + count("etag-config-hit")
            + count("pushed"),
        5
    );
}
