//! Behavioural tests for the page-load engine: connection-pool
//! limits, predelivery (push/bundle) semantics, proxy delay charging,
//! and the FCP metric.

use std::sync::Arc;
use std::time::Duration;

use cachecatalyst_browser::{Browser, CacheMode, EngineConfig, Upstream};
use cachecatalyst_httpwire::{HeaderName, Request, Response, Url};
use cachecatalyst_netsim::{FetchOutcome, NetworkConditions};
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::{example_site, Site, SiteSpec};

fn cond() -> NetworkConditions {
    NetworkConditions::five_g_median()
}

fn flat_site(n_images: usize) -> (Site, Url) {
    // A page with n images linked directly from the HTML (no JS).
    let site = Site::generate(SiteSpec {
        host: "flat.example".into(),
        seed: 77,
        n_resources: n_images,
        js_discovered_fraction: 0.0,
        ..Default::default()
    });
    let url = Url::parse(&format!("http://{}{}", site.spec.host, site.base_path())).unwrap();
    (site, url)
}

#[test]
fn connection_pool_is_limited() {
    // With 24 subresources and 6 connections, downloads proceed in
    // waves; with 24 connections they all start immediately after
    // parse. The pooled load must be slower.
    let (site, url) = flat_site(24);
    let origin = Arc::new(OriginServer::new(site, HeaderMode::NoStore));

    let mut narrow = Browser::new(EngineConfig {
        max_connections_per_origin: 6,
        mode: CacheMode::Uncached,
        ..Default::default()
    });
    let mut wide = Browser::new(EngineConfig {
        max_connections_per_origin: 24,
        mode: CacheMode::Uncached,
        ..Default::default()
    });
    let slow = narrow.load(&origin, cond(), &url, 0);
    let fast = wide.load(&origin, cond(), &url, 0);
    assert!(
        fast.plt < slow.plt,
        "6 conns {:?} vs 24 conns {:?}",
        slow.plt,
        fast.plt
    );
}

#[test]
fn every_fetch_waits_for_a_connection() {
    // All fetches must have started at-or-after discovery, and no more
    // than 6 transfers may overlap at any instant.
    let (site, url) = flat_site(30);
    let origin = Arc::new(OriginServer::new(site, HeaderMode::NoStore));
    let report = Browser::uncached().load(&origin, cond(), &url, 0);
    for f in &report.trace.fetches {
        assert!(f.started >= f.discovered, "{}", f.url);
        assert!(f.completed >= f.started, "{}", f.url);
    }
    // Overlap check at each fetch start.
    let fetches = &report.trace.fetches;
    for probe in fetches {
        let overlapping = fetches
            .iter()
            .filter(|f| f.started <= probe.started && probe.started < f.completed)
            .count();
        assert!(overlapping <= 6, "{} transfers overlap", overlapping);
    }
}

/// An upstream that delays one response via the proxy-delay header.
struct DelayedUpstream(Arc<OriginServer>, u64);

impl Upstream for DelayedUpstream {
    fn handle(&self, _host: &str, req: &Request, t: i64) -> Response {
        let mut resp = (*self.0).handle(req, t);
        if req.target.path().ends_with(".html") {
            resp.headers
                .insert(HeaderName::X_CC_SERVER_DELAY_MS, &self.1.to_string());
        }
        resp
    }
}

#[test]
fn server_delay_header_is_charged() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let base = Url::parse("http://example.org/index.html").unwrap();

    let plain = Browser::uncached().load(&origin, cond(), &base, 0);
    let delayed = Browser::uncached().load(&DelayedUpstream(origin, 250), cond(), &base, 0);
    let diff = delayed.plt_ms() - plain.plt_ms();
    assert!(
        (200.0..300.0).contains(&diff),
        "expected ~250 ms extra, got {diff:.1}"
    );
}

/// An upstream that pushes one resource after the navigation.
struct PushOne(Arc<OriginServer>, &'static str);

impl Upstream for PushOne {
    fn handle(&self, _host: &str, req: &Request, t: i64) -> Response {
        let mut resp = (*self.0).handle(req, t);
        if req.target.path().ends_with(".html") && !req.headers.contains(HeaderName::X_CC_INTERNAL)
        {
            resp.headers.insert(HeaderName::X_CC_PUSHED, self.1);
        }
        resp
    }
}

#[test]
fn pushed_resource_satisfies_later_request() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let base = Url::parse("http://example.org/index.html").unwrap();
    let up = PushOne(origin, "/a.css");
    let report = Browser::uncached().load(&up, cond(), &base, 0);

    let a = report
        .trace
        .fetches
        .iter()
        .filter(|f| f.url.ends_with("/a.css"))
        .collect::<Vec<_>>();
    // One push row + one requester row served from the push.
    assert_eq!(a.len(), 2, "{:#?}", report.trace);
    assert!(a.iter().all(|f| f.outcome == FetchOutcome::Pushed));
    assert_eq!(report.pushed, 1);
    assert_eq!(report.pushed_unused, 0);
    // Exactly one of the rows carries the transfer bytes.
    assert_eq!(
        a.iter().filter(|f| f.bytes_down > 0).count(),
        1,
        "push bytes counted once"
    );
}

#[test]
fn unused_push_does_not_gate_onload() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let base = Url::parse("http://example.org/index.html").unwrap();
    // Push a resource the page never references beyond the push itself
    // — use d.jpg which is only discovered via the JS chain; push a
    // *bogus-but-existing* resource that is never requested: nothing on
    // the page references /cc-sw.js in baseline mode.
    let up = PushOne(origin, "/cc-sw.js");
    let report = Browser::uncached().load(&up, cond(), &base, 0);
    assert_eq!(report.pushed, 1);
    assert_eq!(report.pushed_unused, 1);
    assert!(report.pushed_unused_bytes > 0);
    // The wasted push completes after PLT or before, but PLT only
    // tracks requested resources.
    let plain_origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let plain = Browser::uncached().load(&plain_origin, cond(), &base, 0);
    // The push shares bandwidth, so PLT may shift slightly, but must
    // not jump by the full push transfer.
    let ratio = report.plt_ms() / plain.plt_ms();
    assert!(ratio < 1.15, "unused push inflated PLT by {ratio}");
}

#[test]
fn fcp_precedes_plt_and_tracks_render_blocking() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let base = Url::parse("http://example.org/index.html").unwrap();
    let report = Browser::baseline().load(&origin, cond(), &base, 0);
    assert!(report.fcp <= report.plt);
    // FCP is gated by a.css/b.js (render-blocking), not by the
    // JS-discovered d.jpg chain.
    let b_js = report
        .trace
        .fetches
        .iter()
        .find(|f| f.url.ends_with("/b.js"))
        .unwrap();
    let d_jpg = report
        .trace
        .fetches
        .iter()
        .find(|f| f.url.ends_with("/d.jpg"))
        .unwrap();
    assert!(report.fcp >= b_js.completed);
    assert!(report.fcp < d_jpg.completed);
}

#[test]
fn rdr_bundle_header_makes_resources_instant() {
    struct Bundler(Arc<OriginServer>);
    impl Upstream for Bundler {
        fn handle(&self, _host: &str, req: &Request, t: i64) -> Response {
            let mut resp = (*self.0).handle(req, t);
            if req.target.path().ends_with(".html")
                && !req.headers.contains(HeaderName::X_CC_INTERNAL)
            {
                resp.headers
                    .insert(HeaderName::X_CC_RDR_BUNDLE, "/a.css,/b.js");
            }
            resp
        }
    }
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let base = Url::parse("http://example.org/index.html").unwrap();
    let report = Browser::uncached().load(&Bundler(origin), cond(), &base, 0);
    for path in ["/a.css", "/b.js"] {
        let f = report
            .trace
            .fetches
            .iter()
            .find(|f| f.url.ends_with(path))
            .unwrap();
        assert_eq!(f.outcome, FetchOutcome::Pushed, "{path}");
        assert_eq!(f.bytes_down, 0, "bundled bytes counted in the bundle");
        // Served within a millisecond of discovery.
        assert!(f.completed.since(f.discovered) < Duration::from_millis(2));
    }
}

#[test]
fn http2_multiplexing_beats_pooled_h1_on_cold_loads() {
    let (site, url) = flat_site(30);
    let origin = Arc::new(OriginServer::new(site, HeaderMode::NoStore));
    let mut h1 = Browser::new(EngineConfig {
        mode: CacheMode::Uncached,
        ..Default::default()
    });
    let mut h2 = Browser::new(EngineConfig {
        http2: true,
        mode: CacheMode::Uncached,
        ..Default::default()
    });
    let h1_report = h1.load(&origin, cond(), &url, 0);
    let h2_report = h2.load(&origin, cond(), &url, 0);
    assert!(
        h2_report.plt < h1_report.plt,
        "h2 {:?} vs h1 {:?}",
        h2_report.plt,
        h1_report.plt
    );
    // h2 pays exactly one handshake; h1 origin to 6.
    assert!(h2_report
        .trace
        .fetches
        .iter()
        .all(|f| f.started >= f.discovered));
}

#[test]
fn http2_results_are_deterministic_and_complete() {
    let (site, url) = flat_site(20);
    let origin = Arc::new(OriginServer::new(site, HeaderMode::Baseline));
    let run = || {
        let mut b = Browser::new(EngineConfig {
            http2: true,
            ..Default::default()
        });
        let r = b.load(&origin, cond(), &url, 0);
        (r.plt.as_nanos(), r.trace.fetches.len())
    };
    let a = run();
    assert_eq!(a, run());
    assert_eq!(a.1, 21, "all resources fetched under h2");
}

#[test]
fn dns_lookup_costs_one_rtt_per_host_when_modeled() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let base = Url::parse("http://example.org/index.html").unwrap();
    let plain = Browser::uncached().load(&origin, cond(), &base, 0);
    let mut with_dns = Browser::new(EngineConfig {
        model_dns: true,
        mode: CacheMode::Uncached,
        ..Default::default()
    });
    let dns_report = with_dns.load(&origin, cond(), &base, 0);
    let diff = dns_report.plt_ms() - plain.plt_ms();
    // One host → exactly one extra RTT (40 ms) on the critical path.
    assert!(
        (35.0..=45.0).contains(&diff),
        "expected ~40 ms DNS cost, got {diff:.1}"
    );
}

#[test]
fn tls_adds_one_rtt_per_connection() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let base = Url::parse("http://example.org/index.html").unwrap();
    let plain = Browser::uncached().load(&origin, cond(), &base, 0);
    let mut tls = Browser::new(EngineConfig {
        tls: true,
        mode: CacheMode::Uncached,
        ..Default::default()
    });
    let tls_report = tls.load(&origin, cond(), &base, 0);
    // Two handshakes sit on the critical path (the navigation's
    // connection, then the parallel connection b.js opens while a.css
    // reuses the first) → exactly +2 RTT (80 ms).
    let diff = tls_report.plt_ms() - plain.plt_ms();
    assert!((75.0..=85.0).contains(&diff), "TLS cost {diff:.1} ms");
}

#[test]
fn loss_is_deterministic_and_slows_loads() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let base = Url::parse("http://example.org/index.html").unwrap();
    let run = |rate: f64, seed: u64| {
        let mut b = Browser::new(EngineConfig {
            loss_rate: rate,
            loss_seed: seed,
            mode: CacheMode::Uncached,
            ..Default::default()
        });
        b.load(&origin, cond(), &base, 0).plt
    };
    let clean = run(0.0, 1);
    let lossy = run(0.5, 1);
    assert!(lossy > clean, "50% loss must slow the load");
    assert_eq!(run(0.5, 1), lossy, "same seed ⇒ same losses");
    // Different seeds explore different loss patterns (almost surely).
    let other = run(0.5, 2);
    assert!(other != lossy || other > clean);
}

/// Adds `stale-while-revalidate` to one resource's responses.
struct SwrOne(Arc<OriginServer>, &'static str, u64);

impl Upstream for SwrOne {
    fn handle(&self, _host: &str, req: &Request, t: i64) -> Response {
        let mut resp = (*self.0).handle(req, t);
        if req.target.path() == self.1 {
            let cc = format!(
                "{}, stale-while-revalidate={}",
                resp.headers.get("cache-control").unwrap_or(""),
                self.2
            );
            resp.headers.insert("cache-control", &cc);
        }
        resp
    }
}

#[test]
fn swr_serves_stale_and_revalidates_in_background() {
    // d.jpg: max-age 1h; revisit at +2h with a 1-day SWR window.
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let up = SwrOne(origin, "/d.jpg", 86_400);
    let base = Url::parse("http://example.org/index.html").unwrap();
    let mut browser = Browser::baseline();
    browser.load(&up, cond(), &base, 0);
    let warm = browser.load(&up, cond(), &base, 7200);

    let d = warm
        .trace
        .fetches
        .iter()
        .filter(|f| f.url.ends_with("/d.jpg"))
        .collect::<Vec<_>>();
    // One instant (stale) serve + one background revalidation row.
    assert_eq!(d.len(), 2, "{:#?}", warm.trace);
    assert!(d.iter().any(|f| f.outcome == FetchOutcome::CacheHit));
    assert_eq!(warm.swr_served, 1);
    // d.jpg changed at +2h, so the background refresh was a full 200
    // that updated the cache: a third visit sees the new version fresh.
    let third = browser.load(&up, cond(), &base, 7300);
    let d3 = third
        .trace
        .fetches
        .iter()
        .find(|f| f.url.ends_with("/d.jpg"))
        .unwrap();
    assert_eq!(d3.outcome, FetchOutcome::CacheHit);
}

/// Records the encoded size of every request that reaches the origin.
struct UploadSizes {
    inner: Arc<OriginServer>,
    seen: std::sync::Mutex<std::collections::HashMap<String, u64>>,
}

impl Upstream for UploadSizes {
    fn handle(&self, host: &str, req: &Request, t_secs: i64) -> Response {
        let size = cachecatalyst_httpwire::codec::encode_request(req).len() as u64;
        self.seen
            .lock()
            .unwrap()
            .insert(format!("http://{host}{}", req.target), size);
        self.inner.handle(host, req, t_secs)
    }
}

#[test]
fn bytes_up_is_the_encoded_request_size_on_the_example_site() {
    // The engine charges the uplink by `Request::wire_len`; what the
    // origin receives must encode to exactly that, on cold loads and
    // on revisits (whose requests carry validators), in both modes.
    let url = Url::parse("http://example.org/index.html").unwrap();
    for (mode, mut browser) in [
        (HeaderMode::Baseline, Browser::baseline()),
        (HeaderMode::Catalyst, Browser::catalyst()),
    ] {
        let up = UploadSizes {
            inner: Arc::new(OriginServer::new(example_site(), mode)),
            seen: Default::default(),
        };
        for t in [0, 2 * 3600] {
            up.seen.lock().unwrap().clear();
            let report = browser.load(&up, cond(), &url, t);
            let seen = up.seen.lock().unwrap();
            let networked: Vec<_> = report
                .trace
                .fetches
                .iter()
                .filter(|f| f.bytes_up > 0)
                .collect();
            assert_eq!(networked.len(), seen.len(), "{mode:?} t={t}");
            for f in networked {
                assert_eq!(
                    Some(&f.bytes_up),
                    seen.get(&f.url),
                    "{mode:?} t={t} {}",
                    f.url
                );
            }
            let total: u64 = seen.values().sum();
            assert_eq!(report.bytes_up, total);
        }
    }
}
