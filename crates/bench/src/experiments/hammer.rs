//! What the throughput and tier rows share: the timed multi-thread
//! loop, the many-asset site the edge rows stand in front of, and its
//! seeded Zipf key stream.

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Instant;

use crate::cli::{self, Args};
use cachecatalyst_browser::Upstream;
use cachecatalyst_edge::{EdgeBuilder, EdgeCache, EdgeMetrics};
use cachecatalyst_httpwire::Request;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::stats::rng_for;
use cachecatalyst_webmodel::{GeneratedResource, ResourceKind, Site, SiteSpec, ZipfSampler};

const HOST: &str = "edge-bench.example";

/// `--threads M` (default 8; 0 does not parse), taken last.
pub(super) fn threads_arg(args: &mut Args) -> cli::Result<usize> {
    let threads = args.value::<NonZeroUsize>("--threads")?;
    args.finish()?;
    Ok(threads.map_or(8, NonZeroUsize::get))
}

/// The header line's account of the host: results that depend on
/// threads mean nothing without the core count.
pub(super) fn threads_on_cores(threads: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{threads} threads on {cores} cores")
}

/// Calls `f(thread, i)` for every `i < iters` on each of `threads` OS
/// threads; the wall seconds from the first spawn to the last join.
pub(super) fn hammer(threads: usize, iters: usize, f: impl Fn(usize, usize) + Sync) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let f = &f;
            scope.spawn(move || (0..iters).for_each(|i| f(thread, i)));
        }
    });
    started.elapsed().as_secs_f64()
}

/// An edge in front of a [`BenchSite`].
pub(super) type BenchEdge = EdgeCache<Arc<OriginServer>>;

/// A generated many-asset site behind a catalyst origin.
pub(super) struct BenchSite {
    origin: Arc<OriginServer>,
    /// Every asset path: the request stream.
    pub assets: Vec<String>,
    /// The assets an edge may keep (a tenth are `no-store`).
    pub storable: Vec<String>,
    /// The HTML pages, whose maps vouch for the assets.
    pub pages: Vec<String>,
}

impl BenchSite {
    pub fn generate() -> BenchSite {
        let site = Site::generate(SiteSpec {
            host: HOST.to_owned(),
            seed: 0xED6E,
            n_resources: 120,
            ..Default::default()
        });
        let paths = |keep: fn(&GeneratedResource) -> bool| -> Vec<String> {
            site.resources()
                .filter(|r| keep(r))
                .map(|r| r.spec.path.clone())
                .collect()
        };
        let pages = paths(|r| r.spec.kind == ResourceKind::Html);
        let assets = paths(|r| r.spec.kind != ResourceKind::Html);
        let storable = paths(|r| r.spec.kind != ResourceKind::Html && r.policy.allows_store());
        assert!(
            storable.len() >= 64 && !pages.is_empty(),
            "need a wide working set"
        );
        BenchSite {
            origin: Arc::new(OriginServer::new(site, HeaderMode::Catalyst)),
            assets,
            storable,
            pages,
        }
    }

    /// An edge in front of this site on which whatever is stored stays
    /// fresh for the whole run.
    pub fn edge(&self) -> EdgeBuilder<Arc<OriginServer>> {
        EdgeCache::builder(Arc::clone(&self.origin)).min_fresh_secs(1 << 20)
    }

    /// `count` asset indices drawn rank-weighted (Zipf, s = 1) from
    /// the stream `label` names: the same keys on every run.
    pub fn zipf_keys(&self, label: &str, count: usize) -> Vec<usize> {
        let sampler = ZipfSampler::new(self.assets.len(), 1.0);
        let mut rng = rng_for(0x21BF, label);
        (0..count).map(|_| sampler.sample(&mut rng)).collect()
    }
}

/// One client request for `path` through `edge` at `t_secs`.
pub(super) fn fetch(edge: &BenchEdge, path: &str, t_secs: i64) {
    let req = Request::get(path).with_header("host", HOST);
    let resp = edge.handle(HOST, &req, t_secs);
    assert!(resp.status.as_u16() < 500, "unexpected {}", resp.status);
}

/// Object hit ratio in percent.
pub(super) fn ohr_pct(m: &EdgeMetrics) -> f64 {
    (m.hits + m.negative_hits) as f64 / m.requests.max(1) as f64 * 100.0
}

/// Upstream requests per client request.
pub(super) fn upstream_per_req(m: &EdgeMetrics) -> f64 {
    m.upstream_requests as f64 / m.requests.max(1) as f64
}
