//! Integration: zero-RTT warm restarts of the hybrid edge store.
//!
//! The PR 10 acceptance property: after an edge process restart, the
//! disk tier's recovered entries are *stale* (no freshness claim
//! survives un-verified), and the first base-HTML forward carries the
//! catalyst map that re-freshens them — index-only, **zero** origin
//! contact per re-freshened object. A tampered map must not re-freshen
//! anything; a cold direct hit must revalidate conditionally.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cachecatalyst::catalyst::tamper_config_headers;
use cachecatalyst::edge::{DiskTierOptions, EdgeCache, StoreOptions};
use cachecatalyst::httpwire::hash::xxh64;
use cachecatalyst::prelude::*;
use cachecatalyst::webmodel::{
    ChangeModel, Discovery, GeneratedResource, HeaderPolicy, ResourceKind, ResourceSpec,
};

const HOST: &str = "edge-restart.example";

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A fresh scratch directory per test, safe under parallel test runs.
fn scratch_dir(name: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "cc-edge-restart-{}-{name}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Counts every request that reaches the wrapped upstream — the
/// "zero origin contact" witness, independent of edge counters.
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

/// Damages every config map in transit (without re-signing).
struct TamperingUpstream<U>(U);

impl<U: Upstream> Upstream for TamperingUpstream<U> {
    fn handle(&self, host: &str, req: &Request, t_secs: i64) -> Response {
        let mut resp = self.0.handle(host, req, t_secs);
        tamper_config_headers(&mut resp, Some(0xBAD));
        resp
    }
}

/// The PR 5 nocache site: a base page with two static children, one
/// monthly-churn (unchanged at the +2h revisit) and one hourly-churn
/// (changed). `no-cache` everywhere, so classic freshness never masks
/// the catalyst mechanism.
fn nocache_site() -> Site {
    let mut site = Site::generate(SiteSpec {
        host: HOST.to_owned(),
        seed: 0xED62,
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

/// Disk-only store options over `dir` with admit-everything, so every
/// store lands in a segment file and the restart has something to
/// recover.
fn disk_only(dir: &PathBuf) -> StoreOptions {
    StoreOptions::new()
        .mem_budget(0)
        .disk(DiskTierOptions::at(dir))
}

/// Fills the disk tier at `dir` via a first edge process: one cold
/// visit of the base page and both subresources at t=0, then drops
/// the edge (an unclean exit writes no shutdown state — recovery works
/// from the segment files alone).
fn fill_and_drop(dir: &PathBuf, origin: &Arc<OriginServer>) {
    let edge = EdgeCache::builder(CountingUpstream::new(Arc::clone(origin)))
        .store(disk_only(dir))
        .try_build()
        .expect("disk tier opens");
    for path in ["/index.html", "/s1.css", "/s2.js"] {
        let resp = edge.handle(HOST, &get(path), 0);
        assert_eq!(resp.status, StatusCode::OK, "{path}");
    }
    assert_eq!(edge.upstream().requests(), 3);
    let m = edge.metrics();
    assert_eq!(
        m.disk_objects, 2,
        "both subresources demoted to disk (base HTML is pass-through)"
    );
    assert_eq!(m.admission_rejects, 0);
}

#[test]
fn verified_map_refreshens_recovered_entries_with_zero_upstream() {
    let dir = scratch_dir("verified");
    let origin = Arc::new(OriginServer::new(nocache_site(), HeaderMode::Catalyst));
    fill_and_drop(&dir, &origin);

    // Warm restart: a brand-new edge over the same directory.
    let edge = EdgeCache::builder(CountingUpstream::new(Arc::clone(&origin)))
        .store(disk_only(&dir))
        .try_build()
        .expect("recovery scan succeeds");
    let m = edge.metrics();
    assert_eq!(m.disk_recovered, 2, "boot scan rebuilt the index");
    assert_eq!(m.disk_objects, 2);
    assert_eq!(m.disk_recovered_refreshed, 0);

    // The first navigation forwards the base page; its verified map
    // re-freshens the recovered, unchanged s1.css — index-only.
    let t = 7200;
    let nav = edge.handle(HOST, &get("/index.html"), t);
    assert_eq!(nav.status, StatusCode::OK);
    assert_eq!(edge.upstream().requests(), 1, "only the base-HTML forward");
    let m = edge.metrics();
    assert_eq!(m.marks_fresh, 1, "s1.css re-freshened by the map");
    assert_eq!(m.marks_stale, 1, "s2.js churned hourly: map mismatch");
    assert_eq!(
        m.disk_recovered_refreshed, 1,
        "exactly the unchanged recovered entry was re-freshened"
    );

    // The re-freshened entry serves from the segment file with ZERO
    // further origin contact — the zero-RTT warm restart.
    let s1 = edge.handle(HOST, &get("/s1.css"), t);
    assert_eq!(s1.status, StatusCode::OK);
    assert_eq!(
        edge.upstream().requests(),
        1,
        "a map-verified recovered entry must not touch the origin"
    );
    assert_eq!(
        xxh64(&s1.body),
        xxh64(&(*origin).handle(&get("/s1.css"), t).body),
        "recovered bytes must match the origin's current content"
    );
    assert!(edge.metrics().disk_hits >= 1);

    // The churned entry stays stale and revalidates conditionally:
    // exactly one upstream round, which finds the new body.
    let s2 = edge.handle(HOST, &get("/s2.js"), t);
    assert_eq!(s2.status, StatusCode::OK);
    assert_eq!(edge.upstream().requests(), 2);
    assert_eq!(
        xxh64(&s2.body),
        xxh64(&(*origin).handle(&get("/s2.js"), t).body)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_map_does_not_refreshen_recovered_entries() {
    let dir = scratch_dir("tampered");
    let origin = Arc::new(OriginServer::new(nocache_site(), HeaderMode::Catalyst));
    fill_and_drop(&dir, &origin);

    // Restart behind an upstream that damages every map in transit.
    let edge = EdgeCache::builder(CountingUpstream::new(TamperingUpstream(Arc::clone(
        &origin,
    ))))
    .store(disk_only(&dir))
    .try_build()
    .expect("recovery scan succeeds");
    assert_eq!(edge.metrics().disk_recovered, 2);

    let t = 7200;
    let nav = edge.handle(HOST, &get("/index.html"), t);
    assert_eq!(nav.status, StatusCode::OK);
    let m = edge.metrics();
    assert_eq!(m.tampered_configs, 1);
    assert_eq!(
        m.marks_fresh, 0,
        "a tampered map must not validate anything"
    );
    assert_eq!(
        m.disk_recovered_refreshed, 0,
        "no recovered entry may be re-freshened by a damaged map"
    );

    // Without the map, the recovered (stale) entry must pay one
    // conditional round — which the unchanged origin answers 304, so
    // the stored disk bytes are served, not re-transferred.
    let before = edge.upstream().requests();
    let s1 = edge.handle(HOST, &get("/s1.css"), t);
    assert_eq!(s1.status, StatusCode::OK);
    assert_eq!(edge.upstream().requests(), before + 1);
    assert_eq!(edge.metrics().revalidated_304, 1);
    assert_eq!(
        xxh64(&s1.body),
        xxh64(&(*origin).handle(&get("/s1.css"), t).body)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_entries_are_stale_until_verified() {
    // No navigation, no map: a direct hit on a recovered entry must
    // revalidate conditionally even though it was stored fresh before
    // the restart — freshness claims do not survive a process exit.
    let dir = scratch_dir("stale");
    let origin = Arc::new(OriginServer::new(nocache_site(), HeaderMode::Catalyst));
    fill_and_drop(&dir, &origin);

    let edge = EdgeCache::builder(CountingUpstream::new(Arc::clone(&origin)))
        .store(disk_only(&dir))
        .try_build()
        .expect("recovery scan succeeds");

    let t = 30; // well inside what the pre-restart freshness covered
    let s1 = edge.handle(HOST, &get("/s1.css"), t);
    assert_eq!(s1.status, StatusCode::OK);
    assert_eq!(
        edge.upstream().requests(),
        1,
        "a recovered entry is stale: one conditional revalidation"
    );
    assert_eq!(edge.metrics().revalidated_304, 1);
    assert_eq!(
        xxh64(&s1.body),
        xxh64(&(*origin).handle(&get("/s1.css"), t).body)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
