//! The browser facade: persistent state across visits.

use std::sync::Arc;

use cachecatalyst_catalyst::ServiceWorker;
use cachecatalyst_httpcache::HttpCache;
use cachecatalyst_httpwire::Url;
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_telemetry::span::SpanSink;
use cachecatalyst_telemetry::Recorder;

use crate::engine::{Engine, EngineConfig, LoadReport};
use crate::profile::{emit_load_events, CacheMode, Profile, Tally};
use crate::upstream::Upstream;

/// A browser profile: an HTTP cache and a service-worker registration
/// that persist across page loads, plus the engine configuration.
#[derive(Clone)]
pub struct Browser {
    pub cache: HttpCache,
    pub sw: ServiceWorker,
    pub config: EngineConfig,
    recorder: Option<Arc<Recorder>>,
    spans: Option<Arc<SpanSink>>,
}

impl Browser {
    /// A browser with the given engine configuration and a cold cache.
    pub fn new(config: EngineConfig) -> Browser {
        Browser {
            cache: HttpCache::new(),
            sw: ServiceWorker::new(),
            config,
            recorder: None,
            spans: None,
        }
    }

    /// Attaches an event sink; every subsequent [`Browser::load`]
    /// emits a page-load trace through it. Timestamps are virtual
    /// milliseconds (`t_secs × 1000` plus simulated offsets), so
    /// traces from discrete-event runs line up across visits.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Browser {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches a span sink; while it is on, each subsequent load
    /// records a full distributed trace (browser, edge, proxies and
    /// origin share the propagated trace id).
    pub fn with_span_sink(mut self, spans: Arc<SpanSink>) -> Browser {
        self.spans = Some(spans);
        self
    }

    fn with_mode(mode: CacheMode) -> Browser {
        Browser::new(EngineConfig {
            mode,
            ..Default::default()
        })
    }

    /// Status-quo browser: classic HTTP cache, no service worker.
    pub fn baseline() -> Browser {
        Browser::with_mode(CacheMode::HttpCache)
    }

    /// CacheCatalyst browser: the service worker fronts all fetches.
    pub fn catalyst() -> Browser {
        Browser::with_mode(CacheMode::ServiceWorker)
    }

    /// A browser that never reuses anything (cold path / lower bound).
    pub fn uncached() -> Browser {
        Browser::with_mode(CacheMode::Uncached)
    }

    /// Loads `base_url` from `upstream` under `cond`, with the visit
    /// starting at absolute site time `t_secs`. Cache and SW state
    /// carry over to the next call — call repeatedly to model revisits.
    pub fn load(
        &mut self,
        upstream: &dyn Upstream,
        cond: NetworkConditions,
        base_url: &Url,
        t_secs: i64,
    ) -> LoadReport {
        let metrics_before = self.cache.metrics;
        let profile = Profile {
            cfg: &self.config,
            cache: &mut self.cache,
            sw: &mut self.sw,
            t_secs,
        };
        let mut engine = Engine::new(upstream, cond, profile);
        if let Some(spans) = &self.spans {
            engine = engine.with_span_sink(spans);
        }
        let report = engine.load(base_url);
        // Remember the visit so push-if-changed comparators can use
        // the `x-cc-last-visit` announcement on the next load.
        self.config.last_visit = Some(t_secs);
        if let Some(recorder) = &self.recorder {
            // What the recorder stream takes from a tally.
            let tally = Tally {
                plt: report.plt,
                faults_injected: report.faults_injected,
                retries: report.retries,
                degraded: report.degraded,
                ..Tally::default()
            };
            emit_load_events(
                recorder.as_ref(),
                base_url,
                t_secs,
                &report.trace,
                &report.audits,
                &tally,
                self.cache.metrics.delta_since(&metrics_before),
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_netsim::FetchOutcome;
    use cachecatalyst_origin::{HeaderMode, OriginServer};
    use cachecatalyst_webmodel::{example_site, revisit_delay};
    use std::sync::Arc;
    use std::time::Duration;

    fn cond() -> NetworkConditions {
        NetworkConditions::five_g_median()
    }

    fn upstream(mode: HeaderMode) -> Arc<OriginServer> {
        Arc::new(OriginServer::new(example_site(), mode))
    }

    fn base() -> Url {
        Url::parse("http://example.org/index.html").unwrap()
    }

    #[test]
    fn cold_load_fetches_all_five_resources() {
        let up = upstream(HeaderMode::Baseline);
        let mut browser = Browser::baseline();
        let report = browser.load(&up, cond(), &base(), 0);
        assert_eq!(report.trace.fetches.len(), 5, "{:#?}", report.trace);
        assert_eq!(report.full_transfers, 5);
        assert_eq!(report.network_requests(), 5);
        assert!(report.plt_ms() > 0.0);
    }

    #[test]
    fn dependency_chain_orders_discovery() {
        let up = upstream(HeaderMode::Baseline);
        let mut browser = Browser::baseline();
        let report = browser.load(&up, cond(), &base(), 0);
        let when = |p: &str| {
            report
                .trace
                .fetches
                .iter()
                .find(|f| f.url.ends_with(p))
                .unwrap_or_else(|| panic!("{p} missing"))
                .discovered
        };
        // index → (a.css, b.js) → c.js → d.jpg
        assert!(when("/a.css") > when("/index.html"));
        assert_eq!(when("/a.css"), when("/b.js"));
        assert!(when("/c.js") > when("/b.js"));
        assert!(when("/d.jpg") > when("/c.js"));
    }

    #[test]
    fn figure_1b_baseline_revisit() {
        // Figure 1(b): +2h revisit with classic caching. a.css is fresh
        // (max-age 1w) → cache hit; b.js revalidates → 304; c.js is
        // fresh (max-age 1d) → hit; d.jpg expired and changed → full;
        // index.html is no-cache and changed → full.
        let up = upstream(HeaderMode::Baseline);
        let mut browser = Browser::baseline();
        let first = browser.load(&up, cond(), &base(), 0);
        let t1 = revisit_delay().as_secs() as i64;
        let second = browser.load(&up, cond(), &base(), t1);

        let outcome = |p: &str| {
            second
                .trace
                .fetches
                .iter()
                .find(|f| f.url.ends_with(p))
                .unwrap()
                .outcome
        };
        assert_eq!(outcome("/a.css"), FetchOutcome::CacheHit);
        assert_eq!(outcome("/b.js"), FetchOutcome::NotModified);
        assert_eq!(outcome("/c.js"), FetchOutcome::CacheHit);
        assert_eq!(outcome("/d.jpg"), FetchOutcome::FullTransfer);
        assert_eq!(outcome("/index.html"), FetchOutcome::FullTransfer);
        assert!(second.plt < first.plt, "warm load must be faster");
    }

    #[test]
    fn figure_1c_catalyst_revisit() {
        // Figure 1(c): the optimized revisit. Unchanged resources
        // (a.css, b.js, c.js) are served by the SW with zero RTTs;
        // d.jpg changed → full fetch; index.html changed → full fetch.
        let up = upstream(HeaderMode::Catalyst);
        let mut browser = Browser::catalyst();
        browser.load(&up, cond(), &base(), 0);
        let t1 = revisit_delay().as_secs() as i64;
        let second = browser.load(&up, cond(), &base(), t1);

        let outcome = |p: &str| {
            second
                .trace
                .fetches
                .iter()
                .find(|f| f.url.ends_with(p))
                .unwrap()
                .outcome
        };
        assert_eq!(outcome("/a.css"), FetchOutcome::ServiceWorkerHit);
        assert_eq!(outcome("/b.js"), FetchOutcome::ServiceWorkerHit);
        assert_eq!(outcome("/d.jpg"), FetchOutcome::FullTransfer);
        assert_eq!(outcome("/index.html"), FetchOutcome::FullTransfer);
        // c.js is JS-discovered: static extraction does not cover it,
        // so it still needs a revalidation round trip.
        assert_eq!(outcome("/c.js"), FetchOutcome::NotModified);
        assert_eq!(second.sw_hits, 2);
    }

    #[test]
    fn catalyst_with_capture_beats_baseline_on_revisit() {
        let up_base = upstream(HeaderMode::Baseline);
        let up_cat = upstream(HeaderMode::CatalystAggregate);
        let t1 = revisit_delay().as_secs() as i64;

        let mut b = Browser::baseline();
        b.load(&up_base, cond(), &base(), 0);
        let baseline = b.load(&up_base, cond(), &base(), t1);

        let mut c = Browser::catalyst();
        c.load(&up_cat, cond(), &base(), 0);
        let catalyst = c.load(&up_cat, cond(), &base(), t1);

        assert!(
            catalyst.plt < baseline.plt,
            "catalyst {:?} vs baseline {:?}",
            catalyst.plt,
            baseline.plt
        );
        assert!(catalyst.network_requests() <= baseline.network_requests());
    }

    #[test]
    fn plain_catalyst_ties_baseline_when_js_chain_dominates() {
        // On the Figure-1 example page the critical path runs through
        // JS-discovered resources, which static extraction cannot map
        // — so plain catalyst neither wins nor loses meaningfully on
        // this page. (Capture mode, and the statically-discovered
        // majority on realistic pages, provide the wins.)
        let up_base = upstream(HeaderMode::Baseline);
        let up_cat = upstream(HeaderMode::Catalyst);
        let t1 = revisit_delay().as_secs() as i64;

        let mut b = Browser::baseline();
        b.load(&up_base, cond(), &base(), 0);
        let baseline = b.load(&up_base, cond(), &base(), t1);

        let mut c = Browser::catalyst();
        c.load(&up_cat, cond(), &base(), 0);
        let catalyst = c.load(&up_cat, cond(), &base(), t1);

        let ratio = catalyst.plt.as_secs_f64() / baseline.plt.as_secs_f64();
        assert!((0.95..=1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn unchanged_page_revisit_is_nearly_free_with_catalyst() {
        // Revisit after 1 minute: nothing changed. The only network
        // round trips are the base HTML (304 + fresh config) — every
        // subresource is served locally... except JS-discovered ones.
        let up = upstream(HeaderMode::Catalyst);
        let mut browser = Browser::catalyst();
        browser.load(&up, cond(), &base(), 0);
        let report = browser.load(&up, cond(), &base(), 60);
        let nav = report
            .trace
            .fetches
            .iter()
            .find(|f| f.url.ends_with("/index.html"))
            .unwrap();
        assert_eq!(nav.outcome, FetchOutcome::NotModified);
        assert_eq!(report.sw_hits, 2); // a.css, b.js
    }

    #[test]
    fn capture_closes_the_js_gap() {
        let up = upstream(HeaderMode::CatalystAggregate);
        let mut browser = Browser::catalyst();
        browser.load(&up, cond(), &base(), 0);
        // Nothing changed after 60 s; now even c.js and d.jpg are in
        // the map (captured on the first visit) → zero RTTs.
        let report = browser.load(&up, cond(), &base(), 60);
        let outcome = |p: &str| {
            report
                .trace
                .fetches
                .iter()
                .find(|f| f.url.ends_with(p))
                .unwrap()
                .outcome
        };
        assert_eq!(outcome("/c.js"), FetchOutcome::ServiceWorkerHit);
        assert_eq!(outcome("/d.jpg"), FetchOutcome::ServiceWorkerHit);
        assert_eq!(report.sw_hits, 4);
        assert_eq!(report.network_requests(), 1); // just the base HTML
    }

    #[test]
    fn uncached_browser_always_transfers_everything() {
        let up = upstream(HeaderMode::Baseline);
        let mut browser = Browser::uncached();
        browser.load(&up, cond(), &base(), 0);
        let second = browser.load(&up, cond(), &base(), 60);
        assert_eq!(second.full_transfers, 5);
        assert_eq!(second.cache_hits + second.sw_hits, 0);
    }

    #[test]
    fn higher_latency_increases_plt() {
        let up = upstream(HeaderMode::Baseline);
        let fast = NetworkConditions::new(Duration::from_millis(10), 60_000_000);
        let slow = NetworkConditions::new(Duration::from_millis(120), 60_000_000);
        let a = Browser::baseline().load(&up, fast, &base(), 0);
        let b = Browser::baseline().load(&up, slow, &base(), 0);
        assert!(b.plt > a.plt);
    }

    #[test]
    fn lower_bandwidth_increases_plt() {
        let up = upstream(HeaderMode::Baseline);
        let fast = NetworkConditions::new(Duration::from_millis(40), 60_000_000);
        let slow = NetworkConditions::new(Duration::from_millis(40), 2_000_000);
        let a = Browser::baseline().load(&up, fast, &base(), 0);
        let b = Browser::baseline().load(&up, slow, &base(), 0);
        assert!(b.plt > a.plt);
    }

    #[test]
    fn recorder_sees_one_fetch_pair_per_resource() {
        use cachecatalyst_telemetry::Event;

        let up = upstream(HeaderMode::Baseline);
        let recorder = Arc::new(Recorder::new());
        let mut browser = Browser::baseline().with_recorder(recorder.clone());
        let report = browser.load(&up, cond(), &base(), 7);

        let events = recorder.take();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, Event::FetchEnd { .. }))
            .collect();
        let starts = events
            .iter()
            .filter(|e| matches!(e, Event::FetchStart { .. }))
            .count();
        assert_eq!(ends.len(), report.trace.fetches.len());
        assert_eq!(starts, ends.len());
        // The page-load span brackets the fetches and carries the
        // resource count the per-fetch events sum to.
        assert!(matches!(
            events.first(),
            Some(Event::PageLoadStart { t_ms, .. }) if *t_ms == 7000.0
        ));
        let Some(Event::PageLoadEnd {
            resources, plt_ms, ..
        }) = events
            .iter()
            .find(|e| matches!(e, Event::PageLoadEnd { .. }))
        else {
            panic!("missing page_load_end");
        };
        assert_eq!(*resources, ends.len());
        assert!((plt_ms - report.plt_ms()).abs() < 1e-9);
        // Cold baseline load: 5 full fetches, all stored in the cache.
        assert!(ends.iter().all(|e| matches!(
            e,
            Event::FetchEnd { outcome: FetchOutcome::FullTransfer, rtts, .. } if *rtts >= 1
        )));
        assert!(matches!(
            events.last(),
            Some(Event::CacheDelta {
                stores: 5,
                misses: 5,
                ..
            })
        ));
    }

    #[test]
    fn recorder_outcomes_follow_the_cache_state() {
        use cachecatalyst_telemetry::Event;

        let up = upstream(HeaderMode::Catalyst);
        let recorder = Arc::new(Recorder::new());
        let mut browser = Browser::catalyst().with_recorder(recorder.clone());
        browser.load(&up, cond(), &base(), 0);
        recorder.take();
        browser.load(&up, cond(), &base(), 60);

        let outcome = |suffix: &str| {
            recorder
                .snapshot()
                .iter()
                .find_map(|e| match e {
                    Event::FetchEnd { url, outcome, .. } if url.ends_with(suffix) => Some(*outcome),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{suffix} missing"))
        };
        // Unchanged revisit: the map answers for a.css/b.js, the
        // navigation revalidates.
        assert_eq!(outcome("/a.css"), FetchOutcome::ServiceWorkerHit);
        assert_eq!(outcome("/b.js"), FetchOutcome::ServiceWorkerHit);
        assert_eq!(outcome("/index.html"), FetchOutcome::NotModified);
    }

    #[test]
    fn loads_are_deterministic() {
        let up = upstream(HeaderMode::Catalyst);
        let run = || {
            let mut b = Browser::catalyst();
            b.load(&up, cond(), &base(), 0);
            b.load(&up, cond(), &base(), 7200).plt
        };
        assert_eq!(run(), run());
    }
}
