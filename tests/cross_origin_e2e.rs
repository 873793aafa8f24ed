//! End-to-end coverage for the cross-origin extension (E9) and the
//! multi-page + capture machinery.

use std::sync::Arc;

use cachecatalyst::prelude::*;
use cachecatalyst::webmodel::Discovery;

#[test]
fn cross_origin_extension_maps_and_serves_third_party() {
    let site = Site::generate(SiteSpec {
        host: "tp.example".into(),
        seed: 512,
        n_resources: 30,
        js_discovered_fraction: 0.0,
        third_party_fraction: 0.4,
        ..Default::default()
    });
    let cdn_host = format!("cdn.{}", site.spec.host);
    let base = Url::parse(&format!("http://{}{}", site.spec.host, site.base_path())).unwrap();
    let cond = NetworkConditions::five_g_median();

    // Paper behaviour: third-party references never mapped.
    let plain = Arc::new(OriginServer::new(site.clone(), HeaderMode::Catalyst));
    let resp = (*plain).handle(&Request::get("/index.html"), 0);
    let config = EtagConfig::accept(&resp.headers).unwrap();
    assert!(
        !config.iter().any(|(p, _)| p.contains(&cdn_host)),
        "paper mode must skip third-party entries"
    );

    // Extension: third-party entries appear, keyed by full URL.
    let extended =
        Arc::new(OriginServer::new(site.clone(), HeaderMode::Catalyst).with_cross_origin());
    let resp = (*extended).handle(&Request::get("/index.html"), 0);
    let config = EtagConfig::accept(&resp.headers).unwrap();
    let tp_entries: Vec<&str> = config
        .iter()
        .map(|(p, _)| p)
        .filter(|p| p.starts_with("http://"))
        .collect();
    assert!(
        !tp_entries.is_empty(),
        "extension must map third-party URLs"
    );
    assert!(tp_entries.iter().all(|p| p.contains(&cdn_host)));

    // And the browser actually gets SW hits for them on an unchanged
    // revisit (the origin answers for the CDN host too — the paper's
    // single-server hosting).
    let mut browser = Browser::catalyst();
    browser.load(&extended, cond, &base, 0);
    let warm = browser.load(&extended, cond, &base, 60);
    let tp_hits = warm
        .trace
        .fetches
        .iter()
        .filter(|f| f.url.contains(&cdn_host))
        .filter(|f| f.outcome == FetchOutcome::ServiceWorkerHit)
        .count();
    assert!(tp_hits > 0, "{:#?}", warm.trace);
}

#[test]
fn multi_page_visit_uses_shared_chrome() {
    let site = Site::generate(SiteSpec {
        host: "pages.example".into(),
        seed: 99,
        n_resources: 40,
        js_discovered_fraction: 0.0,
        n_pages: 3,
        ..Default::default()
    });
    let cond = NetworkConditions::five_g_median();
    let origin = Arc::new(OriginServer::new(site.clone(), HeaderMode::Catalyst));

    let mut browser = Browser::catalyst();
    let pages = site.pages();
    let landing = browser.load(
        &origin,
        cond,
        &Url::parse(&format!("http://{}{}", site.spec.host, pages[0])).unwrap(),
        0,
    );
    let click = browser.load(
        &origin,
        cond,
        &Url::parse(&format!("http://{}{}", site.spec.host, pages[1])).unwrap(),
        10,
    );
    assert!(click.sw_hits > 0, "chrome must be served by the SW");
    assert!(click.plt < landing.plt);
    assert!(click.network_requests() < landing.network_requests());
}

#[test]
fn capture_covers_js_resources_per_page() {
    // Multi-page + session capture: each page's map learns its own
    // JS-discovered resources via the Referer-keyed recording.
    let site = Site::generate(SiteSpec {
        host: "cap.example".into(),
        seed: 1337,
        n_resources: 40,
        js_discovered_fraction: 0.25,
        ..Default::default()
    });
    let dynamic_paths: Vec<String> = site
        .resources()
        .filter(|r| matches!(r.spec.discovery, Discovery::JsExecution { .. }))
        .map(|r| r.spec.path.clone())
        .collect();
    assert!(!dynamic_paths.is_empty());

    let cond = NetworkConditions::five_g_median();
    let origin = Arc::new(OriginServer::new(
        site.clone(),
        HeaderMode::CatalystWithCapture,
    ));
    let base = Url::parse(&format!("http://{}{}", site.spec.host, site.base_path())).unwrap();
    let mut browser = Browser::new(EngineConfig {
        mode: CacheMode::ServiceWorker,
        session: Some("user-1".into()),
        ..Default::default()
    });
    browser.load(&origin, cond, &base, 0);
    // Unchanged revisit after a minute: everything captured must now be
    // SW-served, including JS-discovered resources that are unchanged.
    let warm = browser.load(&origin, cond, &base, 60);
    let dynamic_sw_hits = warm
        .trace
        .fetches
        .iter()
        .filter(|f| {
            let path = Url::parse(&f.url).unwrap().path().to_owned();
            dynamic_paths.contains(&path) && f.outcome == FetchOutcome::ServiceWorkerHit
        })
        .count();
    // Expect a hit for every unchanged dynamic the SW was allowed to
    // store (no-store resources are mapped but never cached — §3).
    let unchanged_dynamics = dynamic_paths
        .iter()
        .filter(|p| site.version_at(p, 0) == site.version_at(p, 60))
        .filter(|p| site.get(p).unwrap().policy.allows_store())
        .count();
    assert_eq!(dynamic_sw_hits, unchanged_dynamics, "{:#?}", warm.trace);
}
