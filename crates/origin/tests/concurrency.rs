//! Deterministic threaded stress test for the lock-light origin hot
//! path: eight threads hammer one `OriginServer` with a seeded
//! pseudo-random workload spanning several churn-epoch boundaries,
//! then every observation is checked against a fresh single-threaded
//! oracle server and the atomic metric sums are reconciled exactly.
//!
//! The workload is deterministic (fixed xorshift seeds per thread);
//! only the interleaving varies between runs, and every assertion
//! below is interleaving-independent.

use std::sync::{Arc, Barrier};

use cachecatalyst_catalyst::EtagConfig;
use cachecatalyst_httpwire::{Request, StatusCode};
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::example_site;

const THREADS: usize = 8;
/// Iterations per thread per epoch window.
const ITERS: usize = 40;

/// The epoch windows of four index-page periods: every churn boundary
/// of every example-site resource inside [0, 21600) — /index.html
/// changes at multiples of 5400, /d.jpg at multiples of 6000.
/// Threads advance through the windows together (barrier-synced
/// rounds), modelling a server whose virtual clock moves forward;
/// within one window every `t` maps to the same churn epoch.
const WINDOWS: [(u64, u64); 7] = [
    (0, 5400),
    (5400, 6000),
    (6000, 10800),
    (10800, 12000),
    (12000, 16200),
    (16200, 18000),
    (18000, 21600),
];

const PATHS: [&str; 5] = ["/index.html", "/a.css", "/b.js", "/c.js", "/d.jpg"];

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// One observed exchange, replayed against the oracle afterwards.
struct Observed {
    path: &'static str,
    t: i64,
    status: StatusCode,
    etag: String,
    config: EtagConfig,
}

/// Requests racing across a churn-epoch boundary: half the threads
/// ask for `t` just below the boundary, half just above, all
/// interleaved on the same server. Whatever the interleaving, each
/// side must be served the bytes and validator of ITS epoch — a
/// cache entry from the other side of the boundary must never leak
/// through.
#[test]
fn epoch_boundary_requests_stay_on_their_side() {
    // /index.html's document changes every 5400 s on the example
    // site, and its page epoch folds the whole closure.
    const BOUNDARY: i64 = 5400;
    const ROUNDS: usize = 60;
    let server = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let oracle = OriginServer::new(example_site(), HeaderMode::Catalyst);
    let before = oracle.handle(&Request::get("/index.html"), BOUNDARY - 1);
    let after = oracle.handle(&Request::get("/index.html"), BOUNDARY);
    assert_ne!(
        before.etag().unwrap(),
        after.etag().unwrap(),
        "test premise: the boundary changes the page validator"
    );

    let barrier = Barrier::new(8);
    std::thread::scope(|scope| {
        for id in 0..8 {
            let server = Arc::clone(&server);
            let barrier = &barrier;
            let (t, want) = if id % 2 == 0 {
                (BOUNDARY - 1, &before)
            } else {
                (BOUNDARY, &after)
            };
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    barrier.wait();
                    let resp = server.handle(&Request::get("/index.html"), t);
                    assert_eq!(resp.status, StatusCode::OK);
                    assert_eq!(resp.etag(), want.etag(), "validator crossed the boundary");
                    assert_eq!(resp.body, want.body, "body crossed the boundary");
                    assert_eq!(
                        resp.headers.get("x-etag-config"),
                        want.headers.get("x-etag-config"),
                        "config crossed the boundary"
                    );
                }
            });
        }
    });
}

#[test]
fn eight_threads_match_single_threaded_oracle() {
    let server = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let barrier = Barrier::new(THREADS);
    let mut observed: Vec<Observed> = Vec::new();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|id| {
                let server = Arc::clone(&server);
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15_u64 ^ ((id as u64 + 1) * 0x00de_adbe);
                    let mut out = Vec::with_capacity(WINDOWS.len() * ITERS * 2);
                    for (lo, hi) in WINDOWS {
                        barrier.wait();
                        for _ in 0..ITERS {
                            let t = (lo + xorshift(&mut rng) % (hi - lo)) as i64;
                            let path = PATHS[(xorshift(&mut rng) % PATHS.len() as u64) as usize];
                            let resp = server.handle(&Request::get(path), t);
                            assert_eq!(resp.status, StatusCode::OK);
                            let etag = resp.etag().expect("every 200 carries a validator");
                            out.push(Observed {
                                path,
                                t,
                                status: resp.status,
                                etag: etag.to_string(),
                                config: EtagConfig::accept(&resp.headers).unwrap(),
                            });
                            // Half the time, immediately revalidate at
                            // the same instant: the tag must match.
                            if xorshift(&mut rng).is_multiple_of(2) {
                                let cond = Request::get(path)
                                    .with_header("if-none-match", &etag.to_string());
                                let resp = server.handle(&cond, t);
                                assert_eq!(resp.status, StatusCode::NOT_MODIFIED);
                                out.push(Observed {
                                    path,
                                    t,
                                    status: resp.status,
                                    etag: etag.to_string(),
                                    config: EtagConfig::accept(&resp.headers).unwrap(),
                                });
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            observed.extend(h.join().unwrap());
        }
    });

    // ── Metric sums reconcile exactly against the observations. ──
    let m = server.metrics();
    let total = observed.len() as u64;
    let nm = observed
        .iter()
        .filter(|o| o.status == StatusCode::NOT_MODIFIED)
        .count() as u64;
    assert_eq!(m.requests, total);
    assert_eq!(m.full_responses, total - nm);
    assert_eq!(m.not_modified, nm);
    assert_eq!(m.not_found, 0);

    // Every page exchange (200 or 304) resolves a config: each one is
    // either a cache hit or a build, never neither, never both.
    let page_requests = observed.iter().filter(|o| o.path == "/index.html").count() as u64;
    assert_eq!(m.configs_built + m.config_cache_hits, page_requests);
    // Builds happen only on an epoch's first touch. Within one window
    // every request sees the same epoch, so only threads racing
    // before the first insert completes can duplicate a build: at
    // most THREADS builds per window, typically one.
    assert!(
        m.configs_built <= (WINDOWS.len() * THREADS) as u64,
        "{} builds for {page_requests} page requests",
        m.configs_built
    );
    assert!(m.configs_built >= WINDOWS.len() as u64, "one per epoch");
    assert!(m.config_cache_hits > 0);

    // ── Every observation matches a single-threaded oracle. ──
    let oracle = OriginServer::new(example_site(), HeaderMode::Catalyst);
    for o in &observed {
        let resp = oracle.handle(&Request::get(o.path), o.t);
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(
            resp.etag().unwrap().to_string(),
            o.etag,
            "{} at t={}",
            o.path,
            o.t
        );
        assert_eq!(
            EtagConfig::accept(&resp.headers).unwrap(),
            o.config,
            "config for {} at t={}",
            o.path,
            o.t
        );
    }
}
