//! Replay parity: a recorded workload trace replayed through the
//! in-memory fleet engine and through the real `TcpEdge` front end
//! produces the same per-user edge cache-decision audit sequence —
//! the discrete-event results and the socket-level results describe
//! one system, not two.
//!
//! Timing on the TCP leg is wall-clock and scheduler-noisy, so PLT
//! stability between two identical TCP replays is asserted with
//! `chaos::within_band` plus `chaos::live_slack_ms` of absolute slack
//! (the offline tokio stand-in re-polls IO readiness every ~250 µs);
//! the audit sequences, by contrast, must match exactly.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cachecatalyst::browser::live::{ByteStream, Dialer, LiveBrowser};
use cachecatalyst::chaos::{live_slack_ms, within_band};
use cachecatalyst::edge::{EdgeCache, StoreOptions, TcpEdge};
use cachecatalyst::origin::watch_clock;
use cachecatalyst::prelude::*;
use cachecatalyst::telemetry::{Event, Recorder};
use cachecatalyst_bench::fleet::{fleet_corpus, run_fleet, FleetOptions};
use cachecatalyst_bench::runner::base_url_of;
use cachecatalyst_bench::ClientKind;
use cachecatalyst_webmodel::workload::{generate, Trace, WorkloadSpec};
use tokio::net::TcpStream;
use tokio::sync::watch;

const RESOURCES_MEDIAN: f64 = 12.0;

fn parity_trace() -> Trace {
    generate(&WorkloadSpec {
        users: 25,
        sites: 3,
        horizon_secs: 10_800,
        seed: 99,
        ..Default::default()
    })
}

/// The comparable form of one visit's edge decisions: URL-sorted
/// (the live loader fetches subresources concurrently, so arrival
/// order at the edge is not deterministic — the decision *per URL*
/// is).
type VisitAudits = Vec<(String, String, Option<u64>)>;

fn drain_audits(recorder: &Recorder) -> VisitAudits {
    let mut audits: VisitAudits = recorder
        .take()
        .into_iter()
        .filter_map(|e| match e {
            Event::CacheDecision { audit, .. } => Some((
                audit.url,
                audit.decision.as_str().to_owned(),
                audit.body_digest,
            )),
            _ => None,
        })
        .collect();
    audits.sort();
    audits
}

fn tcp_dialer(addr: SocketAddr) -> Dialer {
    Arc::new(move |_host: String| {
        Box::pin(async move {
            let stream = TcpStream::connect(addr).await?;
            stream.set_nodelay(true).ok();
            Ok(Box::new(stream) as Box<dyn ByteStream>)
        })
    })
}

/// One full TCP replay of `trace`: persistent per-user `LiveBrowser`
/// profiles against a `TcpEdge` whose virtual clock is advanced to
/// each event's timestamp. Returns the per-visit audit sequences and
/// per-visit PLTs (ms).
async fn replay_over_tcp(trace: &Trace, kind: ClientKind) -> (Vec<VisitAudits>, Vec<f64>) {
    let mode = match kind {
        ClientKind::Baseline => CacheMode::HttpCache,
        _ => CacheMode::ServiceWorker,
    };
    let sites = fleet_corpus(trace, RESOURCES_MEDIAN);
    let base_urls: Vec<Url> = sites.iter().map(base_url_of).collect();
    let mut multi = MultiOrigin::new();
    for site in sites {
        let host = site.spec.host.clone();
        multi.add(&host, Arc::new(OriginServer::new(site, kind.header_mode())));
    }

    let recorder = Arc::new(Recorder::new());
    let edge = Arc::new(
        EdgeCache::builder(multi)
            .store(StoreOptions::new().mem_budget(FleetOptions::default().edge_budget))
            .recorder(Arc::clone(&recorder))
            .build(),
    );
    let (clock_tx, clock_rx) = watch::channel(0i64);
    let server = TcpEdge::bind("127.0.0.1:0", Arc::clone(&edge), watch_clock(clock_rx))
        .await
        .expect("bind edge");
    let dialer = tcp_dialer(server.local_addr);

    let mut browsers: HashMap<u32, LiveBrowser> = HashMap::new();
    let mut audits = Vec::with_capacity(trace.events.len());
    let mut plts = Vec::with_capacity(trace.events.len());
    for event in &trace.events {
        let t_secs = (event.t_ms / 1000) as i64;
        clock_tx.send(t_secs).expect("advance clock");
        let browser = browsers
            .entry(event.user)
            .or_insert_with(|| LiveBrowser::new(Arc::clone(&dialer), mode));
        browser.now_secs = t_secs;
        let report = browser
            .load(&base_urls[event.site as usize])
            .await
            .expect("live load");
        assert_eq!(report.retries, 0, "loopback must not need retries");
        audits.push(drain_audits(&recorder));
        plts.push(report.plt.as_secs_f64() * 1000.0);
    }
    server.shutdown().await;
    (audits, plts)
}

/// In-memory leg of the same replay (the fleet engine with audit
/// collection on), reshaped into the comparable form.
fn replay_in_memory(trace: &Trace, kind: ClientKind) -> Vec<VisitAudits> {
    let report = run_fleet(
        trace,
        &FleetOptions {
            kind,
            resources_median: RESOURCES_MEDIAN,
            collect_audits: true,
            ..Default::default()
        },
    );
    report
        .audits
        .expect("collect_audits was on")
        .into_iter()
        .map(|visit| {
            let mut v: VisitAudits = visit
                .into_iter()
                .map(|a| (a.url, a.decision.as_str().to_owned(), a.body_digest))
                .collect();
            v.sort();
            v
        })
        .collect()
}

/// Both tests replay over real sockets in wall-clock time. Side by
/// side they take each other's cores, and the stability test would
/// then compare one replay that overlapped its sibling's CPU-bound
/// phase with one that overlapped its socket phase (a 10× gap on two
/// cores, nothing to do with the replay). One at a time.
async fn one_replay_at_a_time() -> tokio::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<tokio::sync::Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| tokio::sync::Mutex::new(()))
        .lock()
        .await
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn tcp_replay_matches_in_memory_audit_sequence() {
    let _alone = one_replay_at_a_time().await;
    let trace = parity_trace();
    assert!(trace.events.len() >= 15, "trace too small to mean much");
    for kind in [ClientKind::Baseline, ClientKind::Catalyst] {
        let sim = replay_in_memory(&trace, kind);
        let (tcp, _plts) = replay_over_tcp(&trace, kind).await;
        assert_eq!(sim.len(), tcp.len());
        for (i, (s, t)) in sim.iter().zip(&tcp).enumerate() {
            let e = &trace.events[i];
            assert_eq!(
                s, t,
                "{kind:?}: visit {i} (user {}, site {}, t={}ms) audits diverge",
                e.user, e.site, e.t_ms
            );
        }
        // Non-vacuity: the sequences contain real decisions, and the
        // store actually served some of the traffic.
        let total: usize = sim.iter().map(Vec::len).sum();
        assert!(total > 20, "{kind:?}: only {total} audited decisions");
        assert!(
            sim.iter().flatten().any(|(_, d, _)| d == "edge-hit"),
            "{kind:?}: no edge hits in the whole replay"
        );
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn tcp_replay_is_stable_across_runs() {
    let _alone = one_replay_at_a_time().await;
    let trace = parity_trace();
    let (audits_a, mut plts_a) = replay_over_tcp(&trace, ClientKind::Baseline).await;
    let (audits_b, mut plts_b) = replay_over_tcp(&trace, ClientKind::Baseline).await;
    assert_eq!(audits_a, audits_b, "audit sequences must be identical");
    // PLTs are wall-clock, so individual visits can be blown out by
    // scheduler preemption (this suite shares cores with whatever else
    // runs); only the *aggregate* timing is a stable property. Compare
    // medians with a generous band plus per-fetch slack.
    plts_a.sort_by(|a, b| a.partial_cmp(b).unwrap());
    plts_b.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (med_a, med_b) = (plts_a[plts_a.len() / 2], plts_b[plts_b.len() / 2]);
    let fetches_per_visit =
        audits_a.iter().map(Vec::len).sum::<usize>() / audits_a.len().max(1) + 1;
    assert!(
        within_band(med_a, med_b, 0.5, 4.0 * live_slack_ms(fetches_per_visit)),
        "median PLT {med_a:.1}ms vs {med_b:.1}ms not within band"
    );
    // Sleep guard: the watch-clock plumbing must not have left the
    // runtime wedged (regression canary for shutdown ordering).
    tokio::time::timeout(Duration::from_secs(5), async {})
        .await
        .unwrap();
}
