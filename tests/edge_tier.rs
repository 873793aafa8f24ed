//! Integration: the catalyst-aware edge-cache tier.
//!
//! Proves the PR-5 acceptance properties end to end: single-flight
//! coalescing (N concurrent misses → exactly one upstream fetch),
//! catalyst-map-driven freshness (revisits serve unchanged
//! subresources with zero upstream revalidations and churned ones
//! with exactly one), negative caching, byte-budget eviction, fault
//! tolerance (a damaged upstream response never poisons the shared
//! store), and the TCP front end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use cachecatalyst::catalyst::tamper_config_headers;
use cachecatalyst::edge::{EdgeCache, StoreOptions, TcpEdge};
use cachecatalyst::httpwire::hash::xxh64;
use cachecatalyst::httpwire::tracectx;
use cachecatalyst::netsim::FaultPlan;
use cachecatalyst::prelude::*;
use cachecatalyst::proxies::FaultyUpstream;
use cachecatalyst::telemetry::span::{Sampling, SpanId, SpanSink, TraceContext, TraceId};
use cachecatalyst::telemetry::{Event, Recorder};
use cachecatalyst::webmodel::{
    ChangeModel, Discovery, GeneratedResource, HeaderPolicy, ResourceKind, ResourceSpec,
};

/// Counts every request that reaches the wrapped upstream — an
/// upstream-side witness independent of the edge's own counters.
struct CountingUpstream<U> {
    inner: U,
    requests: AtomicU64,
}

impl<U: Upstream> CountingUpstream<U> {
    fn new(inner: U) -> CountingUpstream<U> {
        CountingUpstream {
            inner,
            requests: AtomicU64::new(0),
        }
    }

    fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

impl<U: Upstream> Upstream for CountingUpstream<U> {
    fn handle(&self, host: &str, req: &Request, t_secs: i64) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.inner.handle(host, req, t_secs)
    }
}

/// Damages the config map of every base-HTML response in transit
/// (without re-signing), as PR 4's chaos schedules do.
struct TamperingUpstream<U>(U);

impl<U: Upstream> Upstream for TamperingUpstream<U> {
    fn handle(&self, host: &str, req: &Request, t_secs: i64) -> Response {
        let mut resp = self.0.handle(host, req, t_secs);
        tamper_config_headers(&mut resp, Some(0xBAD));
        resp
    }
}

const HOST: &str = "edge-test.example";

/// A hand-built site whose every resource is `no-cache`, so classic
/// freshness never masks the catalyst mechanism: without the map, the
/// edge must revalidate everything; with it, unchanged subresources
/// need zero upstream contact.
fn nocache_site() -> Site {
    let mut site = Site::generate(SiteSpec {
        host: HOST.to_owned(),
        seed: 0xED61,
        n_resources: 0,
        ..Default::default()
    });
    let mut index = ResourceSpec::leaf(
        "/index.html",
        ResourceKind::Html,
        10_000,
        Discovery::Base,
        ChangeModel::Periodic {
            period: Duration::from_secs(90 * 60),
            phase: Duration::ZERO,
        },
    );
    index.static_children = vec!["/s1.css".to_owned(), "/s2.js".to_owned()];
    site.insert_resource(GeneratedResource {
        spec: index,
        policy: HeaderPolicy::NoCache,
    });
    // s1.css: changes monthly — unchanged at the +2h revisit.
    site.insert_resource(GeneratedResource {
        spec: ResourceSpec::leaf(
            "/s1.css",
            ResourceKind::Css,
            20_000,
            Discovery::Static {
                parent: "/index.html".into(),
            },
            ChangeModel::Periodic {
                period: Duration::from_secs(30 * 24 * 3600),
                phase: Duration::ZERO,
            },
        ),
        policy: HeaderPolicy::NoCache,
    });
    // s2.js: changes hourly — churned at the +2h revisit.
    site.insert_resource(GeneratedResource {
        spec: ResourceSpec::leaf(
            "/s2.js",
            ResourceKind::Js,
            15_000,
            Discovery::Static {
                parent: "/index.html".into(),
            },
            ChangeModel::Periodic {
                period: Duration::from_secs(3600),
                phase: Duration::ZERO,
            },
        ),
        policy: HeaderPolicy::NoCache,
    });
    site
}

fn get(path: &str) -> Request {
    Request::get(path).with_header("host", HOST)
}

#[test]
fn eight_concurrent_misses_cost_exactly_one_upstream_fetch() {
    const THREADS: usize = 8;
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let upstream = CountingUpstream::new(origin);
    let edge = EdgeCache::builder(upstream).build();
    let barrier = Barrier::new(THREADS);

    let digests: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (edge, barrier) = (&edge, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let resp = edge.handle("example.org", &Request::get("/a.css"), 0);
                    assert_eq!(resp.status, StatusCode::OK);
                    xxh64(&resp.body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The upstream-side witness: one fetch, full stop.
    assert_eq!(
        edge.upstream().requests(),
        1,
        "single-flight must collapse 8 concurrent misses into 1 fetch"
    );
    let m = edge.metrics();
    assert_eq!(m.upstream_requests, 1);
    assert_eq!(m.requests, THREADS as u64);
    assert_eq!(m.misses, 1);
    assert_eq!(m.hits, THREADS as u64 - 1);
    // Every requester got byte-identical content.
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "all coalesced responses must be digest-identical: {digests:?}"
    );
}

#[test]
fn catalyst_map_validates_unchanged_subresources_with_zero_upstream() {
    let origin = Arc::new(OriginServer::new(nocache_site(), HeaderMode::Catalyst));
    let edge = EdgeCache::builder(CountingUpstream::new(Arc::clone(&origin))).build();

    // Cold visit: base page (pass-through; maps are applied but both
    // subresources are absent) plus both subresources.
    for path in ["/index.html", "/s1.css", "/s2.js"] {
        let resp = edge.handle(HOST, &get(path), 0);
        assert_eq!(resp.status, StatusCode::OK, "{path}");
    }
    assert_eq!(edge.upstream().requests(), 3);

    // Revisit two hours later. The base-HTML forward carries the new
    // map: s1.css is unchanged (marked fresh), s2.js churned (marked
    // stale).
    let t = 7200;
    let nav = edge.handle(HOST, &get("/index.html"), t);
    assert_eq!(nav.status, StatusCode::OK);
    assert!(nav.headers.get("x-etag-config").is_some());
    assert_eq!(edge.upstream().requests(), 4);
    let m = edge.metrics();
    assert_eq!(m.marks_fresh, 1, "s1.css validated by the map");
    assert_eq!(m.marks_stale, 1, "s2.js invalidated by the map");

    // s1.css: served from the edge with ZERO further upstream contact,
    // even though its policy is no-cache — the map already spoke.
    let s1 = edge.handle(HOST, &get("/s1.css"), t);
    assert_eq!(s1.status, StatusCode::OK);
    assert_eq!(s1.headers.get("x-served-by"), Some("cachecatalyst-edge"));
    assert_eq!(
        edge.upstream().requests(),
        4,
        "the marked-fresh subresource must not touch the origin"
    );
    assert_eq!(
        xxh64(&s1.body),
        xxh64(&(*origin).handle(&get("/s1.css"), t).body)
    );

    // s2.js: exactly one conditional revalidation, which finds the
    // churned body.
    let before = edge.upstream().requests();
    let s2 = edge.handle(HOST, &get("/s2.js"), t);
    assert_eq!(s2.status, StatusCode::OK);
    assert_eq!(edge.upstream().requests(), before + 1);
    assert_eq!(
        xxh64(&s2.body),
        xxh64(&(*origin).handle(&get("/s2.js"), t).body)
    );
    assert_eq!(edge.metrics().revalidated_changed, 1);

    // And a second request for s2 at the same instant coalesces onto
    // the just-stored version: no more upstream traffic.
    let again = edge.handle(HOST, &get("/s2.js"), t);
    assert_eq!(xxh64(&again.body), xxh64(&s2.body));
    assert_eq!(edge.upstream().requests(), before + 1);
}

#[test]
fn stale_entries_revalidate_with_a_conditional_get() {
    let origin = Arc::new(OriginServer::new(nocache_site(), HeaderMode::Catalyst));
    let edge = EdgeCache::builder(CountingUpstream::new(origin)).build();

    let first = edge.handle(HOST, &get("/s1.css"), 0);
    assert_eq!(first.status, StatusCode::OK);
    // Past the debounce, same content: the edge revalidates with the
    // stored validator and the origin answers 304 — the stored body is
    // served again, not re-transferred.
    let later = edge.handle(HOST, &get("/s1.css"), 60);
    assert_eq!(later.status, StatusCode::OK);
    assert_eq!(xxh64(&later.body), xxh64(&first.body));
    let m = edge.metrics();
    assert_eq!(m.revalidated_304, 1);
    assert_eq!(m.revalidated_changed, 0);
}

#[test]
fn client_conditionals_are_answered_locally() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let edge = EdgeCache::builder(CountingUpstream::new(origin)).build();

    let first = edge.handle("example.org", &Request::get("/a.css"), 0);
    let tag = first.etag().expect("validator").to_string();
    let upstream_after_fill = edge.upstream().requests();

    // A client revisiting with the matching validator gets a 304
    // minted by the edge itself — no upstream contact.
    let conditional = Request::get("/a.css").with_header("if-none-match", &tag);
    let resp = edge.handle("example.org", &conditional, 0);
    assert_eq!(resp.status, StatusCode::NOT_MODIFIED);
    assert!(resp.body.is_empty());
    assert_eq!(edge.upstream().requests(), upstream_after_fill);
}

#[test]
fn a_date_only_conditional_is_answered_by_the_origins_rule() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let edge = EdgeCache::builder(CountingUpstream::new(Arc::clone(&origin))).build();
    let stamp = edge
        .handle("example.org", &Request::get("/a.css"), 0)
        .last_modified()
        .expect("validator");
    let upstream_after_fill = edge.upstream().requests();
    let since = |date: HttpDate| {
        Request::get("/a.css").with_header("if-modified-since", &date.to_imf_fixdate())
    };

    // Not modified since the stored `Last-Modified`: the origin says
    // 304, and so does the edge, from its store.
    assert_eq!(
        (*origin).handle(&since(stamp), 0).status,
        StatusCode::NOT_MODIFIED
    );
    let resp = edge.handle("example.org", &since(stamp), 0);
    assert_eq!(resp.status, StatusCode::NOT_MODIFIED);
    assert!(resp.body.is_empty());
    // Modified since an earlier date: the full body.
    let earlier = edge.handle("example.org", &since(HttpDate(stamp.as_secs() - 1)), 0);
    assert_eq!(earlier.status, StatusCode::OK);
    assert_eq!(edge.upstream().requests(), upstream_after_fill);

    // A cached 404 holds no representation, so `If-None-Match: *`
    // does not match it.
    edge.handle("example.org", &Request::get("/missing.css"), 0);
    let any = Request::get("/missing.css").with_header("if-none-match", "*");
    assert_eq!(
        edge.handle("example.org", &any, 0).status,
        StatusCode::NOT_FOUND
    );
    assert_eq!(edge.metrics().negative_hits, 1);
}

#[test]
fn tampered_config_maps_are_distrusted() {
    // Two edges over the same site: one whose upstream damages every
    // config map in transit, one clean. The clean edge validates via
    // the map; the tampered edge must fall back to conditional GETs.
    let origin = Arc::new(OriginServer::new(nocache_site(), HeaderMode::Catalyst));
    let tampered = EdgeCache::builder(CountingUpstream::new(TamperingUpstream(Arc::clone(
        &origin,
    ))))
    .build();
    let clean = EdgeCache::builder(CountingUpstream::new(origin)).build();

    // Fill both stores with s1.css, then forward the base page.
    tampered.handle(HOST, &get("/s1.css"), 0);
    clean.handle(HOST, &get("/s1.css"), 0);
    tampered.handle(HOST, &get("/index.html"), 10);
    clean.handle(HOST, &get("/index.html"), 10);

    assert_eq!(clean.metrics().marks_fresh, 1);
    assert_eq!(clean.metrics().tampered_configs, 0);
    assert_eq!(
        tampered.metrics().marks_fresh,
        0,
        "a tampered map must not validate anything"
    );
    assert_eq!(tampered.metrics().tampered_configs, 1);

    // Clean edge: s1 serves with zero further upstream contact.
    let before = clean.upstream().requests();
    clean.handle(HOST, &get("/s1.css"), 10);
    assert_eq!(clean.upstream().requests(), before);

    // Tampered edge: s1 must revalidate conditionally instead of
    // trusting the damaged map — one upstream round, served via 304.
    let before = tampered.upstream().requests();
    let resp = tampered.handle(HOST, &get("/s1.css"), 10);
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(tampered.upstream().requests(), before + 1);
    assert_eq!(tampered.metrics().revalidated_304, 1);
}

#[test]
fn faulted_upstream_responses_never_poison_the_store() {
    // DST-style sweep: aggressive fault schedules between the edge and
    // the origin. Invariant (the serve-correct-bytes oracle): every
    // 200 the edge serves is digest-identical to the clean origin's
    // body for that path and instant — a truncated/corrupted/faulted
    // upstream leg may surface errors to the requesting client, but
    // must never leave damaged bytes in the shared store.
    let reference = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let paths = ["/a.css", "/b.js", "/c.js", "/d.jpg"];
    // All content versions are constant for t < 5400 (one churn
    // epoch), so references at the same t are stable.
    let times = [0i64, 2, 4, 60, 120];

    for seed in 1..=40u64 {
        let plan = FaultPlan::new(seed)
            .with_fault_rate(0.6)
            .with_max_consecutive(3);
        let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
        let edge = EdgeCache::builder(FaultyUpstream::new(origin, plan)).build();
        let mut served_ok = 0u64;
        for &t in &times {
            for path in paths {
                for _attempt in 0..2 {
                    let resp = edge.handle(HOST, &get(path), t);
                    if resp.status == StatusCode::OK {
                        served_ok += 1;
                        let want = xxh64(&(*reference).handle(&get(path), t).body);
                        assert_eq!(
                            xxh64(&resp.body),
                            want,
                            "seed {seed}: {path}@{t} served corrupt bytes"
                        );
                    } else {
                        // Faulted legs surface as tagged 5xx — never a
                        // silent wrong body.
                        assert!(
                            resp.status.is_server_error(),
                            "seed {seed}: unexpected {}",
                            resp.status
                        );
                        assert!(resp.headers.get("x-cc-fault").is_some());
                    }
                }
            }
        }
        assert!(served_ok > 0, "seed {seed}: nothing served at all");
    }
}

#[test]
fn negative_caching_absorbs_repeated_404s() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let edge = EdgeCache::builder(CountingUpstream::new(origin)).build();

    let first = edge.handle("example.org", &Request::get("/no-such-file"), 0);
    assert_eq!(first.status, StatusCode::NOT_FOUND);
    assert_eq!(edge.upstream().requests(), 1);

    // Within the negative TTL the 404 is served from the edge.
    let second = edge.handle("example.org", &Request::get("/no-such-file"), 2);
    assert_eq!(second.status, StatusCode::NOT_FOUND);
    assert_eq!(edge.upstream().requests(), 1);
    assert_eq!(edge.metrics().negative_hits, 1);

    // Past it, the edge re-asks the origin.
    let third = edge.handle("example.org", &Request::get("/no-such-file"), 6);
    assert_eq!(third.status, StatusCode::NOT_FOUND);
    assert_eq!(edge.upstream().requests(), 2);
}

#[test]
fn byte_budget_forces_lru_eviction() {
    let site = Site::generate(SiteSpec {
        host: HOST.to_owned(),
        seed: 77,
        n_resources: 40,
        ..Default::default()
    });
    let paths: Vec<String> = site
        .resources()
        .filter(|r| r.spec.kind != ResourceKind::Html)
        .map(|r| r.spec.path.clone())
        .collect();
    let origin = Arc::new(OriginServer::new(site, HeaderMode::Catalyst));
    let budget = 128 << 10;
    let edge = EdgeCache::builder(origin)
        .store(StoreOptions::new().mem_budget(budget).shards(2))
        .build();

    for path in &paths {
        edge.handle(HOST, &get(path), 0);
    }
    let m = edge.metrics();
    assert!(m.evictions > 0, "the working set must overflow the budget");
    assert!(
        m.bytes_held <= budget as u64,
        "held {} > budget {budget}",
        m.bytes_held
    );
    assert!(edge.stored_objects() > 0);
}

/// Answers every path with a cacheable body of one fixed size.
struct FixedSizeOrigin;

impl Upstream for FixedSizeOrigin {
    fn handle(&self, _host: &str, _req: &Request, _t_secs: i64) -> Response {
        Response::ok(vec![b'x'; 1024])
            .with_header("etag", "\"v1\"")
            .with_header("cache-control", "max-age=3600")
    }
}

#[test]
fn store_series_equal_the_store_after_concurrent_eviction() {
    const THREADS: usize = 8;
    const KEYS_PER_THREAD: usize = 400;
    let edge = EdgeCache::builder(FixedSizeOrigin)
        .byte_budget(64 << 10)
        .build();
    let barrier = Barrier::new(THREADS);

    // Every key is requested once, so every request is a miss that
    // inserts a new object: whatever is no longer held was evicted.
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (edge, barrier) = (&edge, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for key in 0..KEYS_PER_THREAD {
                    let resp = edge.handle(HOST, &get(&format!("/k/{thread}/{key}")), 0);
                    assert_eq!(resp.status, StatusCode::OK);
                }
            });
        }
    });

    let m = edge.metrics();
    let text = edge.telemetry().render_prometheus();
    let held = edge.stored_objects() as u64;
    assert_eq!(m.misses, (THREADS * KEYS_PER_THREAD) as u64);
    assert!(m.evictions > 0, "the key space must overflow the budget");
    assert_eq!(m.evictions, m.misses - held);
    // A scrape taken right after the snapshot prints the same numbers.
    for line in [
        format!("edge_evictions_total {}\n", m.evictions),
        format!("edge_store_objects {held}\n"),
        format!("edge_store_bytes {}\n", m.bytes_held),
    ] {
        assert!(text.contains(&line), "missing {line:?} in:\n{text}");
    }
}

#[test]
fn audits_and_metrics_flow_through_client_options() {
    let recorder = Arc::new(Recorder::new());
    let spans = Arc::new(SpanSink::new(Sampling::Always));
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let edge = EdgeCache::builder(origin)
        .recorder(recorder.clone())
        .span_sink(spans.clone())
        .build();

    // A traced request: the edge must re-parent its hop onto the
    // incoming context.
    let parent = SpanId::next();
    let ctx = TraceContext::new(TraceId::next(), parent).at(0.0);
    let mut req = Request::get("/a.css");
    tracectx::inject(&mut req, &ctx);
    edge.handle("example.org", &req, 0);
    edge.handle("example.org", &req, 0);

    let events = recorder.take();
    let decisions: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            Event::CacheDecision { audit, .. } => Some(audit.decision.as_str().to_owned()),
            _ => None,
        })
        .collect();
    assert_eq!(
        decisions,
        vec!["full-fetch".to_owned(), "edge-hit".to_owned()]
    );

    let recorded = spans.drain();
    assert_eq!(recorded.len(), 2);
    for span in recorded {
        assert_eq!(span.name, "edge.serve");
        assert_eq!(span.parent, Some(parent));
        assert_eq!(span.trace_id, ctx.trace_id);
    }

    // The Prometheus surface carries the same story.
    let text = edge.telemetry().render_prometheus();
    assert!(text.contains("edge_requests_total 2"));
    assert!(text.contains("edge_hits_total 1"));
    assert!(text.contains("edge_misses_total 1"));
    assert!(text.contains("edge_upstream_requests_total 1"));
    assert!(text.contains("edge_store_bytes"));
}

#[tokio::test]
async fn tcp_edge_serves_cached_bytes_end_to_end() {
    use cachecatalyst::httpwire::aio::ClientConn;
    use cachecatalyst::origin::fixed_clock;
    use tokio::net::TcpStream;

    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let edge = Arc::new(EdgeCache::builder(origin).build());
    let server = TcpEdge::bind("127.0.0.1:0", Arc::clone(&edge), fixed_clock(0))
        .await
        .expect("bind");

    let stream = TcpStream::connect(server.local_addr).await.unwrap();
    let mut conn = ClientConn::new(stream);
    let first = conn
        .round_trip(&Request::get("/a.css").with_header("host", "example.org"))
        .await
        .unwrap();
    assert_eq!(first.status, StatusCode::OK);
    let second = conn
        .round_trip(&Request::get("/a.css").with_header("host", "example.org"))
        .await
        .unwrap();
    assert_eq!(second.status, StatusCode::OK);
    assert_eq!(
        second.headers.get("x-served-by"),
        Some("cachecatalyst-edge")
    );
    assert_eq!(xxh64(&first.body), xxh64(&second.body));
    assert!(edge.metrics().hits >= 1, "second fetch must hit the store");

    // Requests without a Host header are rejected, not crashed on.
    let bad = conn.round_trip(&Request::get("/a.css")).await.unwrap();
    assert_eq!(bad.status, StatusCode::BAD_REQUEST);
    server.shutdown().await;
}
