//! Flash-crowd regression: a spike of visits on the hottest page must
//! not stampede the origin. Two layers of evidence:
//!
//! 1. Fleet level — a workload with an injected flash crowd replays
//!    with bounded tail latency (p999) and sub-unit upstream cost per
//!    request: the edge absorbed the spike.
//! 2. Mechanism level — a barrier-synchronized spike on one churning
//!    asset costs the origin *exactly one* upstream fetch per churn
//!    epoch: single-flight coalesces the concurrent misses, and the
//!    catalyst map turns the next epoch's invalidation into one
//!    refetch instead of a thundering herd.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use cachecatalyst::edge::EdgeCache;
use cachecatalyst::httpwire::hash::xxh64;
use cachecatalyst::prelude::*;
use cachecatalyst_bench::fleet::{run_fleet, FleetOptions};
use cachecatalyst_bench::ClientKind;
use cachecatalyst_webmodel::workload::{generate, FlashCrowd, WorkloadSpec};

/// Counts requests for one path that reach the wrapped upstream — the
/// origin-side witness that coalescing actually happened.
struct PathCountingUpstream<U> {
    inner: U,
    path: &'static str,
    count: AtomicU64,
}

impl<U: Upstream> Upstream for PathCountingUpstream<U> {
    fn handle(&self, host: &str, req: &Request, t_secs: i64) -> Response {
        if req.target.path() == self.path {
            self.count.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.handle(host, req, t_secs)
    }
}

#[test]
fn fleet_flash_crowd_keeps_tail_latency_and_offload_bounded() {
    let spec = WorkloadSpec {
        users: 300,
        sites: 5,
        horizon_secs: 7_200,
        seed: 7,
        flash_crowds: vec![FlashCrowd {
            at_secs: 3_600,
            duration_secs: 45,
            visits: 250,
            site_rank: 0,
        }],
        ..Default::default()
    };
    let trace = generate(&spec);
    let flash_events = trace.events.iter().filter(|e| e.flash).count();
    assert!(
        flash_events >= 200,
        "spike must actually be injected ({flash_events} flash events)"
    );
    assert!(
        trace.events.iter().filter(|e| e.flash).all(|e| e.site == 0),
        "flash visits must target the configured hot site"
    );

    for kind in [ClientKind::Baseline, ClientKind::Catalyst] {
        let report = run_fleet(
            &trace,
            &FleetOptions {
                kind,
                ..Default::default()
            },
        );
        assert!(report.visits > 0);
        // Tail latency stays bounded through the spike: p999 is a real
        // page-load time, not a queueing collapse.
        assert!(
            report.plt_p50_ms <= report.plt_p99_ms && report.plt_p99_ms <= report.plt_p999_ms,
            "percentiles out of order"
        );
        assert!(
            report.plt_p999_ms < 30_000.0,
            "{kind:?}: p999 {:.0}ms — the spike overwhelmed the tier",
            report.plt_p999_ms
        );
        // The edge, not the origin, absorbed the crowd.
        let upstream_per_req =
            report.edge.upstream_requests as f64 / report.edge.requests.max(1) as f64;
        assert!(
            upstream_per_req < 0.75,
            "{kind:?}: upstream/req {upstream_per_req:.3} — no offload during spike"
        );
    }
}

#[test]
fn spike_costs_exactly_one_upstream_fetch_per_churn_epoch() {
    const THREADS: usize = 8;
    // `example_site`'s `/d.jpg` changes body + ETag exactly at
    // t = 6000 (asserted by tests/determinism.rs), giving two churn
    // epochs at the spike times below.
    const HOT: &str = "/d.jpg";
    const EPOCH_TIMES: [i64; 2] = [0, 6_000];

    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let counting = PathCountingUpstream {
        inner: origin,
        path: HOT,
        count: AtomicU64::new(0),
    };
    let edge = EdgeCache::builder(counting).build();
    let site = example_site();

    let mut epoch_digests = Vec::new();
    for (epoch, &t) in EPOCH_TIMES.iter().enumerate() {
        // The crowd lands on the page: one base-HTML pass-through
        // applies the current catalyst map (invalidating the churned
        // asset), then everyone requests it at once.
        let html = edge.handle("example.org", &Request::get(site.base_path()), t);
        assert_eq!(html.status, StatusCode::OK);

        let barrier = Barrier::new(THREADS);
        let digests: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (edge, barrier) = (&edge, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let resp = edge.handle("example.org", &Request::get(HOT), t);
                        assert_eq!(resp.status, StatusCode::OK);
                        xxh64(&resp.body)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Everyone in the crowd saw byte-identical content.
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "epoch {epoch}: coalesced responses diverge"
        );
        epoch_digests.push(digests[0]);

        // The figure of merit: THREADS concurrent requests, exactly
        // one upstream fetch per epoch so far.
        assert_eq!(
            edge.upstream().count.load(Ordering::Relaxed),
            epoch as u64 + 1,
            "epoch {epoch}: single-flight must collapse the spike to one fetch"
        );
    }

    // The refetch was real: the crowd got the *new* epoch's bytes.
    assert_ne!(
        epoch_digests[0], epoch_digests[1],
        "second epoch must serve the churned content"
    );
}
