//! `edge-mem` and `edge-hybrid`: `S` fed straight into
//! `EdgeCache::handle` over catalyst-mode origins — the fleet's
//! traffic with the browser peeled off.
//!
//! The two differ only in the store under the same edge layer: 64 MiB
//! of DRAM (about half the corpus) and no disk, or 8 MiB of DRAM over
//! a default disk tier in a fresh directory. A DRAM-path gain that
//! slows the tiered path, or the reverse, shows as one up, one down.

use std::path::Path;
use std::time::Instant;

use cachecatalyst_browser::Upstream;
use cachecatalyst_edge::{DiskTierOptions, EdgeCache, EdgeMetrics, StoreOptions};
use cachecatalyst_httpwire::{Request, Response, StatusCode};
use cachecatalyst_origin::HeaderMode;
use cachecatalyst_webmodel::ResourceKind;

use crate::model::{Exact, Lap, Layers, Sizes};
use crate::oracle::Oracle;
use crate::spans::{timed, Timed, Tracer};
use crate::stats::Block;
use crate::world::{Item, World};

/// Span name for a call into an origin, by what it answered.
pub fn classify_origin(req: &Request, resp: &Response) -> &'static str {
    if resp.status == StatusCode::NOT_MODIFIED {
        "origin.304"
    } else if ResourceKind::from_path(req.target.path()) == ResourceKind::Html {
        "origin.page"
    } else {
        "origin.asset"
    }
}

/// Counters `after − before`; gauges (bytes and objects held) as of
/// `after`.
pub fn since(after: EdgeMetrics, before: EdgeMetrics) -> EdgeMetrics {
    EdgeMetrics {
        requests: after.requests - before.requests,
        hits: after.hits - before.hits,
        negative_hits: after.negative_hits - before.negative_hits,
        misses: after.misses - before.misses,
        coalesced_waiters: after.coalesced_waiters - before.coalesced_waiters,
        upstream_requests: after.upstream_requests - before.upstream_requests,
        hit_bytes: after.hit_bytes - before.hit_bytes,
        upstream_bytes: after.upstream_bytes - before.upstream_bytes,
        revalidated_304: after.revalidated_304 - before.revalidated_304,
        revalidated_changed: after.revalidated_changed - before.revalidated_changed,
        marks_fresh: after.marks_fresh - before.marks_fresh,
        marks_stale: after.marks_stale - before.marks_stale,
        tampered_configs: after.tampered_configs - before.tampered_configs,
        passthrough: after.passthrough - before.passthrough,
        uncacheable: after.uncacheable - before.uncacheable,
        evictions: after.evictions - before.evictions,
        disk_hits: after.disk_hits - before.disk_hits,
        promotions: after.promotions - before.promotions,
        demotions: after.demotions - before.demotions,
        admission_rejects: after.admission_rejects - before.admission_rejects,
        ..after
    }
}

/// The edge's share of [`Exact`].
pub fn exact_of(edge: &EdgeMetrics) -> Exact {
    Exact {
        hits: edge.hits + edge.negative_hits,
        lookups: edge.hits + edge.negative_hits + edge.misses,
        hit_bytes: edge.hit_bytes,
        upstream_bytes: edge.upstream_bytes,
        upstream_requests: edge.upstream_requests,
        requests: edge.requests,
        ..Exact::default()
    }
}

/// The edge's counter-valued layer metrics (keys are the published
/// names).
pub fn edge_counters(layers: &mut Layers, edge: &EdgeMetrics) {
    layers.add("edge.evictions", edge.evictions as f64);
    layers.add("edge.revalidated_304", edge.revalidated_304 as f64);
    layers.add("edge.marks_fresh", edge.marks_fresh as f64);
    layers.add("edge.uncacheable", edge.uncacheable as f64);
    layers.add("edge.coalesced_waiters", edge.coalesced_waiters as f64);
}

fn store_options(sizes: &Sizes, disk_dir: Option<&Path>) -> StoreOptions {
    let store = StoreOptions::new().mem_budget((sizes.mem_mib as usize) << 20);
    match disk_dir {
        Some(dir) => store.disk(DiskTierOptions::at(dir)),
        None => store,
    }
}

struct Driven {
    setup_s: f64,
    blocks: Vec<Block>,
    bytes: u64,
    edge: EdgeMetrics,
}

/// Builds the edge over `upstream` and replays `items` through it: an
/// untimed warm-up prefix (the end of set-up, which began at
/// `setup_started`), then the timed blocks.
#[allow(clippy::too_many_arguments)]
fn drive<U: Upstream>(
    upstream: U,
    store: StoreOptions,
    setup_started: Instant,
    world: &World,
    requests: &[Vec<Request>],
    items: &[Item],
    tracer: Option<&Tracer>,
    oracle: &mut Oracle,
) -> Driven {
    let edge = EdgeCache::builder(upstream)
        .store(store)
        .try_build()
        .expect("edge store opens");
    let host = |item: &Item| world.sites[item.site as usize].spec.host.as_str();
    let request = |item: &Item| &requests[item.site as usize][item.path as usize];

    let (warm, timed_items) = super::split_warm_up(items);
    for item in warm {
        edge.handle(host(item), request(item), i64::from(item.t_secs));
    }
    if let Some(tracer) = tracer {
        tracer.take();
    }
    let before = edge.metrics();
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut bytes = 0u64;
    let blocks = super::timed_blocks(world, timed_items, tracer, oracle, |item, oracle| {
        // The response is freed inside the span unless the oracle
        // keeps it: releasing what the edge allocated is part of what
        // a request through the edge costs.
        let (body_len, kept) = timed(tracer, "edge.handle", || {
            let response = edge.handle(host(item), request(item), i64::from(item.t_secs));
            let keep = oracle.observe(response.status);
            (response.body.len(), keep.then_some(response))
        });
        bytes += body_len as u64;
        kept
    });
    Driven {
        setup_s,
        blocks,
        bytes,
        edge: since(edge.metrics(), before),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len())
        .sum()
}

/// One lap. `disk_dir` selects `edge-hybrid`; it must not exist yet
/// and is removed afterwards.
pub fn lap(
    seed: u64,
    lap: u32,
    sizes: &Sizes,
    disk_dir: Option<&Path>,
    tracer: Option<&Tracer>,
) -> Lap {
    let setup_started = Instant::now();
    let world = World::generate(seed, lap, sizes.users, sizes.sites);
    let items = world.stream();
    let requests = world.requests();
    let (multi, servers) = world.origins(HeaderMode::Catalyst);
    let store = store_options(sizes, disk_dir);
    let mut oracle = Oracle::default();
    let mut problems = Vec::new();

    let driven = match tracer {
        None => drive(
            multi,
            store,
            setup_started,
            &world,
            &requests,
            &items,
            None,
            &mut oracle,
        ),
        Some(tracer) => drive(
            Timed::new(multi, tracer, classify_origin),
            store,
            setup_started,
            &world,
            &requests,
            &items,
            Some(tracer),
            &mut oracle,
        ),
    };

    let mut layers = Layers::default();
    if tracer.is_some() {
        edge_counters(&mut layers, &driven.edge);
        super::origin_counters(&mut layers, &servers);
        super::world_stats(&mut layers, &world, items.len());
        if let Some(dir) = disk_dir {
            let edge = &driven.edge;
            layers.add("disk.hits", edge.disk_hits as f64);
            layers.add("disk.requests", edge.requests as f64);
            layers.add("edge.disk.demotions", edge.demotions as f64);
            layers.add("edge.disk.promotions", edge.promotions as f64);
            layers.add("edge.disk.admission_rejects", edge.admission_rejects as f64);
            layers.add("disk.bytes_held", edge.disk_bytes_held as f64);
            layers.add("disk.file_bytes", dir_bytes(dir) as f64);
            // The edge above is gone (dropped without a shutdown
            // step, as a crash would); reopen its directory.
            let reopened = Instant::now();
            match EdgeCache::builder(world.origins(HeaderMode::Catalyst).0)
                .store(store_options(sizes, disk_dir))
                .try_build()
            {
                Ok(edge) => {
                    layers.sample("disk.boot_scan_ms", reopened.elapsed().as_secs_f64() * 1e3);
                    layers.add("edge.disk.recovered", edge.metrics().disk_recovered as f64);
                }
                Err(e) => problems.push(format!("reopening the disk tier failed: {e}")),
            }
        }
    }
    if let Some(dir) = disk_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let ops: u64 = driven.blocks.iter().map(|b| b.ops).sum();
    if driven.edge.requests != ops {
        problems.push(format!(
            "edge counted {} requests for {ops} sent",
            driven.edge.requests
        ));
    }
    Lap {
        setup_s: driven.setup_s,
        blocks: driven.blocks,
        exact: Exact {
            ops,
            failed: oracle.failed,
            bytes: driven.bytes,
            ..exact_of(&driven.edge)
        },
        problems,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_counters_and_keeps_gauges() {
        let before = EdgeMetrics {
            requests: 10,
            hits: 4,
            bytes_held: 100,
            ..EdgeMetrics::default()
        };
        let after = EdgeMetrics {
            requests: 25,
            hits: 9,
            bytes_held: 70,
            disk_bytes_held: 5,
            ..EdgeMetrics::default()
        };
        let delta = since(after, before);
        assert_eq!((delta.requests, delta.hits), (15, 5));
        assert_eq!((delta.bytes_held, delta.disk_bytes_held), (70, 5));
    }

    #[test]
    fn classifies_origin_answers() {
        let page = Request::get("/index.html");
        let asset = Request::get("/a.css");
        let ok = Response::ok("x");
        let unchanged = Response::empty(StatusCode::NOT_MODIFIED);
        assert_eq!(classify_origin(&page, &ok), "origin.page");
        assert_eq!(classify_origin(&asset, &ok), "origin.asset");
        assert_eq!(classify_origin(&page, &unchanged), "origin.304");
    }
}
