//! Integration: the Figure-1 scenarios end to end through the facade.

use std::sync::Arc;

use cachecatalyst::prelude::*;
use cachecatalyst::webmodel::revisit_delay;

fn base() -> Url {
    Url::parse("http://example.org/index.html").unwrap()
}

fn cond() -> NetworkConditions {
    NetworkConditions::five_g_median()
}

#[test]
fn figure_1a_cold_load_shape() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let report = Browser::baseline().load(&origin, cond(), &base(), 0);

    // Five resources, all full transfers, strictly widening waterfall.
    assert_eq!(report.trace.fetches.len(), 5);
    assert!(report
        .trace
        .fetches
        .iter()
        .all(|f| f.outcome == FetchOutcome::FullTransfer));
    let order = ["/index.html", "/a.css", "/b.js", "/c.js", "/d.jpg"];
    for pair in order.windows(2) {
        let t = |p: &str| {
            report
                .trace
                .fetches
                .iter()
                .find(|f| f.url.ends_with(p))
                .unwrap()
                .completed
        };
        assert!(
            t(pair[0]) <= t(pair[1]),
            "{} should finish before {}",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn figure_1b_and_1c_improvement_chain() {
    let t1 = revisit_delay().as_secs() as i64;

    // (b) status quo revisit.
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let mut b = Browser::baseline();
    let cold = b.load(&origin, cond(), &base(), 0);
    let fig1b = b.load(&origin, cond(), &base(), t1);

    // (c) optimized revisit (capture mode covers the JS chain, like
    // the figure's "only index.html is fetched" timeline).
    let origin = Arc::new(OriginServer::new(
        example_site(),
        HeaderMode::CatalystWithCapture,
    ));
    let mut c = Browser::new(EngineConfig {
        mode: CacheMode::ServiceWorker,
        session: Some("fig1".into()),
        ..Default::default()
    });
    c.load(&origin, cond(), &base(), 0);
    let fig1c = c.load(&origin, cond(), &base(), t1);

    assert!(fig1b.plt < cold.plt, "caching helps at all");
    assert!(fig1c.plt < fig1b.plt, "the optimized revisit is faster");
    // In (c) the only revalidation RTTs left are the base document and
    // genuinely changed resources (index.html and d.jpg at +2h).
    assert_eq!(fig1c.network_requests(), 2, "{:#?}", fig1c.trace);
    assert!(fig1c.sw_hits >= 3);
}

#[test]
fn waterfall_rendering_is_complete() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let report = Browser::baseline().load(&origin, cond(), &base(), 0);
    let rendered = report.trace.render_waterfall(40);
    for p in ["index.html", "a.css", "b.js", "c.js", "d.jpg"] {
        assert!(rendered.contains(p), "waterfall missing {p}:\n{rendered}");
    }
}
