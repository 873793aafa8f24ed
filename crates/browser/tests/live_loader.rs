//! Unit-level coverage for the live (wall-clock) page loader, over
//! plain in-process duplex pipes — no link emulation, just protocol
//! correctness and state persistence.

#![cfg(feature = "aio")]

use std::sync::Arc;

use cachecatalyst_browser::live::{ByteStream, Dialer, LiveBrowser};
use cachecatalyst_browser::CacheMode;
use cachecatalyst_httpwire::Url;
use cachecatalyst_netsim::FetchOutcome;
use cachecatalyst_origin::{fixed_clock, OriginServer, TcpOrigin};
use cachecatalyst_webmodel::example_site;

fn instant_dialer(origin: Arc<OriginServer>, t_secs: i64) -> Dialer {
    Arc::new(move |_host| {
        let origin = Arc::clone(&origin);
        Box::pin(async move {
            let (client_end, server_end) = tokio::io::duplex(64 * 1024);
            let opts = TcpOrigin::builder()
                .server(origin)
                .clock(fixed_clock(t_secs));
            tokio::spawn(async move {
                let _ = opts.serve_stream(server_end).await;
            });
            Ok(Box::new(client_end) as Box<dyn ByteStream>)
        })
    })
}

fn base() -> Url {
    Url::parse("http://example.org/index.html").unwrap()
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn uncached_load_fetches_the_whole_tree() {
    let origin = Arc::new(OriginServer::new(
        example_site(),
        cachecatalyst_origin::HeaderMode::Baseline,
    ));
    let mut browser = LiveBrowser::new(instant_dialer(origin, 0), CacheMode::Uncached);
    let report = browser.load(&base()).await.unwrap();
    assert_eq!(report.trace.fetches.len(), 5, "{:#?}", report.trace);
    assert_eq!(report.network_requests, 5);
    assert!(report
        .trace
        .fetches
        .iter()
        .all(|f| f.outcome == FetchOutcome::FullTransfer));
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn baseline_live_browser_caches_across_loads() {
    let origin = Arc::new(OriginServer::new(
        example_site(),
        cachecatalyst_origin::HeaderMode::Baseline,
    ));
    let mut browser =
        LiveBrowser::new(instant_dialer(Arc::clone(&origin), 0), CacheMode::HttpCache);
    browser.load(&base()).await.unwrap();

    // Revisit one minute later (server time unchanged ⇒ 304s for the
    // no-cache entries, fresh hits for the TTL'd ones).
    let mut browser = browser.with_dialer(instant_dialer(origin, 60));
    browser.now_secs = 60;
    let warm = browser.load(&base()).await.unwrap();
    assert!(warm.cache_hits > 0, "{warm:?}");
    assert!(warm.network_requests < 5);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn catalyst_live_browser_reaches_sw_hits() {
    let origin = Arc::new(OriginServer::new(
        example_site(),
        cachecatalyst_origin::HeaderMode::Catalyst,
    ));
    let mut browser = LiveBrowser::new(
        instant_dialer(Arc::clone(&origin), 0),
        CacheMode::ServiceWorker,
    );
    browser.load(&base()).await.unwrap();
    let mut browser = browser.with_dialer(instant_dialer(origin, 60));
    browser.now_secs = 60;
    let warm = browser.load(&base()).await.unwrap();
    assert!(warm.sw_hits >= 2, "{warm:?}");
    // Unchanged at +60 s: the navigation and the unmapped JS chain are
    // the only network round trips, all 304s.
    assert!(warm
        .trace
        .fetches
        .iter()
        .filter(|f| f.outcome.used_network())
        .all(|f| f.outcome == FetchOutcome::NotModified));
}

// ---- one policy, two loaders ----

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use cachecatalyst_browser::{Browser, EngineConfig, Upstream};
use cachecatalyst_catalyst::tamper_config_headers;
use cachecatalyst_httpwire::aio::{fixed_clock as clock_at, serve_stream, Clock, Handler, Reply};
use cachecatalyst_httpwire::{Request, Response};
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::HeaderMode;
use cachecatalyst_telemetry::{CacheAudit, CacheDecision, Event, Recorder};

/// A server that departs from the origin on script: lets `d.jpg` be
/// served stale for a day while it is revalidated, damages every
/// `X-Etag-Config` in transit, hangs up half way through the head of
/// its first `hang_ups` responses, or never answers at all.
struct Scripted {
    origin: Arc<OriginServer>,
    clock: Clock,
    swr: bool,
    tamper: bool,
    hang_ups: AtomicU32,
    mute: bool,
}

impl Scripted {
    fn respond(&self, req: &Request, t_secs: i64) -> Response {
        let mut resp = (*self.origin).handle(req, t_secs);
        if self.swr && req.target.path() == "/d.jpg" {
            let cc = resp.headers.get("cache-control").unwrap_or("").to_owned();
            let swr = format!("{cc}, stale-while-revalidate=86400");
            resp.headers.insert("cache-control", &swr);
        }
        if self.tamper {
            tamper_config_headers(&mut resp, Some(7));
        }
        resp
    }
}

/// The same script for the discrete-event loader.
impl Upstream for Scripted {
    fn handle(&self, _host: &str, req: &Request, t_secs: i64) -> Response {
        self.respond(req, t_secs)
    }
}

impl Handler for Scripted {
    fn clock(&self) -> &Clock {
        &self.clock
    }

    async fn handle(&self, req: &Request) -> Reply {
        if self.mute {
            std::future::pending::<()>().await;
        }
        let resp = self.respond(req, self.clock.secs());
        let hang_up = self
            .hang_ups
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if hang_up {
            let half_a_head = 20.0 / resp.wire_len() as f64;
            return Reply::SendPrefix(resp, half_a_head);
        }
        Reply::Send(resp)
    }
}

/// Dials `server` over in-process pipes, counting the connections.
fn scripted_dialer(server: Scripted) -> (Dialer, Arc<AtomicU32>) {
    let server = Arc::new(server);
    let dials = Arc::new(AtomicU32::new(0));
    let counter = Arc::clone(&dials);
    let dialer: Dialer = Arc::new(move |_host| {
        let server = Arc::clone(&server);
        counter.fetch_add(1, Ordering::SeqCst);
        Box::pin(async move {
            let (client_end, server_end) = tokio::io::duplex(64 * 1024);
            tokio::spawn(async move {
                let _ = serve_stream(server_end, &*server).await;
            });
            Ok(Box::new(client_end) as Box<dyn ByteStream>)
        })
    });
    (dialer, dials)
}

fn catalyst_origin() -> Arc<OriginServer> {
    Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst))
}

fn script(origin: &Arc<OriginServer>, t_secs: i64) -> Scripted {
    Scripted {
        origin: Arc::clone(origin),
        clock: clock_at(t_secs),
        swr: false,
        tamper: false,
        hang_ups: AtomicU32::new(0),
        mute: false,
    }
}

/// What the page was handed, per URL.
fn digests(audits: &[CacheAudit]) -> BTreeMap<&str, Option<u64>> {
    audits
        .iter()
        .map(|a| (a.url.as_str(), a.body_digest))
        .collect()
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn a_tampered_map_never_grants_freshness_to_the_live_loader() {
    let origin = catalyst_origin();
    let mut warm_reports = Vec::new();
    for tamper in [false, true] {
        let mut browser = LiveBrowser::new(
            instant_dialer(Arc::clone(&origin), 0),
            CacheMode::ServiceWorker,
        );
        browser.load(&base()).await.unwrap();
        let (dialer, _) = scripted_dialer(Scripted {
            tamper,
            ..script(&origin, 60)
        });
        let mut browser = browser.with_dialer(dialer);
        browser.now_secs = 60;
        warm_reports.push(browser.load(&base()).await.unwrap());
    }
    let (clean, tampered) = (&warm_reports[0], &warm_reports[1]);
    assert_eq!(clean.sw_hits, 2, "the clean revisit is the reference");

    assert_eq!(tampered.sw_hits, 0, "{tampered:#?}");
    for (fetch, audit) in tampered.trace.fetches.iter().zip(&tampered.audits) {
        assert_eq!(fetch.outcome, FetchOutcome::NotModified, "{}", fetch.url);
        let expected = if fetch.url == base().to_string() {
            CacheDecision::Degraded
        } else {
            CacheDecision::Conditional304
        };
        assert_eq!(audit.decision, expected, "{}", fetch.url);
    }
    assert_eq!(digests(&tampered.audits), digests(&clean.audits));
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn both_loaders_make_the_same_decisions() {
    // Everything about a fetch that is not timing, one line per fetch.
    // Sorted: the live loader completes fetches in wall-clock order.
    fn rows(fetches: &[cachecatalyst_netsim::FetchTrace], audits: &[CacheAudit]) -> Vec<String> {
        assert_eq!(fetches.len(), audits.len());
        let row = |(f, a): (&cachecatalyst_netsim::FetchTrace, &CacheAudit)| {
            assert_eq!(f.url, a.url);
            format!(
                "{} {:?} {:?} etag={:?} stale={:?} digest={:?}",
                f.url, f.outcome, a.decision, a.etag, a.served_stale, a.body_digest
            )
        };
        let mut rows: Vec<String> = fetches.iter().zip(audits).map(row).collect();
        rows.sort();
        rows
    }

    for (mode, headers, swr) in [
        (CacheMode::Uncached, HeaderMode::Baseline, false),
        (CacheMode::HttpCache, HeaderMode::Baseline, false),
        (CacheMode::HttpCache, HeaderMode::Baseline, true),
        (CacheMode::ServiceWorker, HeaderMode::Catalyst, false),
    ] {
        let origin = Arc::new(OriginServer::new(example_site(), headers));
        let server = |t_secs| Scripted {
            swr,
            ..script(&origin, t_secs)
        };
        let mut sim = Browser::new(EngineConfig {
            mode,
            ..Default::default()
        });
        let recorder = Arc::new(Recorder::new());
        let mut live =
            LiveBrowser::new(scripted_dialer(server(0)).0, mode).with_recorder(recorder.clone());
        // Cold, unchanged a minute later, and two hours on (`d.jpg`
        // and the page have changed; with `swr`, the stale `d.jpg` is
        // served while a background fetch finds that out).
        for t_secs in [0, 60, 7200] {
            let cond = NetworkConditions::five_g_median();
            let sim_report = sim.load(&server(t_secs), cond, &base(), t_secs);
            live = live.with_dialer(scripted_dialer(server(t_secs)).0);
            live.now_secs = t_secs;
            let live_report = live.load(&base()).await.unwrap();
            let ctx = format!("{mode:?} swr={swr} t={t_secs}");
            assert_eq!(
                rows(&live_report.trace.fetches, &live_report.audits),
                rows(&sim_report.trace.fetches, &sim_report.audits),
                "{ctx}"
            );
            if swr && t_secs == 7200 {
                assert_eq!(sim_report.swr_served, 1, "{ctx}");
            }
            // The recorder stream carries the same audit trail.
            let recorded: Vec<CacheAudit> = recorder
                .take()
                .into_iter()
                .filter_map(|e| match e {
                    Event::CacheDecision { audit, .. } => Some(audit),
                    _ => None,
                })
                .collect();
            assert_eq!(recorded, live_report.audits, "{ctx}");
        }
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn a_connection_that_dies_mid_head_costs_one_retry_and_is_not_pooled() {
    let origin = catalyst_origin();
    let (dialer, dials) = scripted_dialer(Scripted {
        hang_ups: AtomicU32::new(1),
        ..script(&origin, 0)
    });
    let mut browser = LiveBrowser::new(dialer, CacheMode::Uncached);
    browser.config.retry_base = Duration::from_millis(1);
    let report = browser.load(&base()).await.unwrap();
    // Had the dead connection gone back to the pool, a later fetch
    // would have drawn it and failed too.
    assert_eq!(report.retries, 1);
    assert_eq!(report.network_requests, 5);
    assert!(dials.load(Ordering::SeqCst) >= 2, "the retry dialed afresh");
    let degraded = |a: &&CacheAudit| a.decision == CacheDecision::Degraded;
    assert_eq!(report.audits.iter().filter(degraded).count(), 1);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn a_server_that_never_answers_times_the_load_out() {
    let origin = catalyst_origin();
    let (dialer, dials) = scripted_dialer(Scripted {
        mute: true,
        ..script(&origin, 0)
    });
    let mut browser = LiveBrowser::new(dialer, CacheMode::Uncached);
    browser.config.fetch_timeout = Duration::from_millis(50);
    browser.config.max_retries = 1;
    let err = browser.load(&base()).await.unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert_eq!(dials.load(Ordering::SeqCst), 2, "one try, one retry");
}
