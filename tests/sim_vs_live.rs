//! E15 — cross-validation: the discrete-event simulator's prediction
//! vs an actual protocol execution over emulated links.
//!
//! The same site, the same network conditions, the same serving mode:
//! once through `Browser` (virtual time) and once through
//! `LiveBrowser` (wall-clock tokio over `netsim::emu` links). The two
//! implementations share the protocol code but not the timing engine,
//! so agreement here validates the simulator the evaluation rests on.

use std::sync::Arc;

use cachecatalyst::browser::live::{Dialer, LiveBrowser};
use cachecatalyst::chaos::{live_slack_ms, within_band};
use cachecatalyst::netsim::emu::emulated_link;
use cachecatalyst::origin::{fixed_clock, TcpOrigin};
use cachecatalyst::prelude::*;

fn dialer_for(origin: Arc<OriginServer>, cond: NetworkConditions, t_secs: i64) -> Dialer {
    Arc::new(move |_host: String| {
        let origin = Arc::clone(&origin);
        Box::pin(async move {
            let (client_end, server_end) = emulated_link(cond);
            let opts = TcpOrigin::builder()
                .server(origin)
                .clock(fixed_clock(t_secs));
            tokio::spawn(async move {
                let _ = opts.serve_stream(server_end).await;
            });
            // TCP connection establishment: one round trip before the
            // stream is usable (the simulator charges the same).
            tokio::time::sleep(cond.rtt).await;
            Ok(Box::new(client_end) as Box<dyn cachecatalyst::browser::live::ByteStream>)
        })
    })
}

// Tolerance: the live path has real scheduler jitter, TCP buffering
// and pump-task granularity the simulator abstracts away. Agreement
// is asserted with `chaos::within_band` — a relative band for the
// real timing divergence plus `chaos::live_slack_ms` of absolute
// slack for per-await scheduler noise (the offline tokio stand-in
// re-polls IO readiness every ~250 µs, which a pure ratio check
// turns into flakes on fast loads).

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn cold_load_times_agree() {
    let cond = NetworkConditions::five_g_median();
    let base = Url::parse("http://example.org/index.html").unwrap();

    // Simulated prediction.
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let sim = Browser::uncached().load(&origin, cond, &base, 0);

    // Live execution over emulated links.
    let mut live = LiveBrowser::new(dialer_for(origin, cond, 0), CacheMode::Uncached);
    let live_report = live.load(&base).await.unwrap();

    let sim_ms = sim.plt_ms();
    let live_ms = live_report.plt.as_secs_f64() * 1000.0;
    assert_eq!(live_report.trace.fetches.len(), sim.trace.fetches.len());
    assert_eq!(live_report.network_requests, sim.network_requests());
    assert!(
        within_band(
            live_ms,
            sim_ms,
            0.25,
            live_slack_ms(sim.trace.fetches.len())
        ),
        "sim predicted {sim_ms:.1} ms, live measured {live_ms:.1} ms"
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn catalyst_revisit_agrees_and_preserves_the_win() {
    let cond = NetworkConditions::five_g_median();
    let base = Url::parse("http://example.org/index.html").unwrap();
    let t1 = 7200i64;

    // --- simulated: baseline vs catalyst warm visits ---
    let origin_b = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let mut b = Browser::baseline();
    b.load(&origin_b, cond, &base, 0);
    let sim_base = b.load(&origin_b, cond, &base, t1);

    let origin_c = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let mut c = Browser::catalyst();
    c.load(&origin_c, cond, &base, 0);
    let sim_cat = c.load(&origin_c, cond, &base, t1);

    // --- live: same protocol over emulated links ---
    let mut live_b = LiveBrowser::new(
        dialer_for(Arc::clone(&origin_b), cond, 0),
        CacheMode::HttpCache,
    );
    live_b.load(&base).await.unwrap();
    // Reconnect at the revisit time (the old links embed t=0).
    let mut live_b = live_b.with_dialer(dialer_for(origin_b, cond, t1));
    live_b.now_secs = t1;
    let live_base = live_b.load(&base).await.unwrap();

    let mut live_c = LiveBrowser::new(
        dialer_for(Arc::clone(&origin_c), cond, 0),
        CacheMode::ServiceWorker,
    );
    live_c.load(&base).await.unwrap();
    let mut live_c = live_c.with_dialer(dialer_for(origin_c, cond, t1));
    live_c.now_secs = t1;
    let live_cat = live_c.load(&base).await.unwrap();

    // Catalyst's zero-RTT serving must survive contact with real IO.
    // On this page the critical path runs through the JS-discovered
    // chain, so the simulator predicts a near-tie for plain catalyst
    // (see `plain_catalyst_ties_baseline_when_js_chain_dominates`);
    // the live run must reproduce that: no worse than a few percent.
    assert!(live_cat.sw_hits >= 2, "{live_cat:?}");
    let cat_ms = live_cat.plt.as_secs_f64() * 1000.0;
    let base_ms = live_base.plt.as_secs_f64() * 1000.0;
    // "No worse than a few percent" as a band, not a bare ratio: the
    // absolute slack keeps scheduler noise on a ~15 ms load from
    // reading as a catalyst regression.
    assert!(
        cat_ms <= base_ms * 1.06 + live_slack_ms(live_cat.trace.fetches.len()),
        "live catalyst {cat_ms:.1} ms vs live baseline {base_ms:.1} ms"
    );
    // …and the sim's predicted PLTs should be in the right ballpark.
    for (sim, live) in [(&sim_base, &live_base), (&sim_cat, &live_cat)] {
        let sim_ms = sim.plt_ms();
        let live_ms = live.plt.as_secs_f64() * 1000.0;
        assert!(
            within_band(
                live_ms,
                sim_ms,
                0.30,
                live_slack_ms(sim.trace.fetches.len())
            ),
            "sim {sim_ms:.1} ms vs live {live_ms:.1} ms"
        );
    }
}
