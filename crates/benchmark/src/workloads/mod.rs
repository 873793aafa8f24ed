//! The four workloads. Each exposes `lap(seed, sizes, .., tracer)`:
//! set up from the seed, run the timed section once, check outputs.

use std::sync::Arc;
use std::time::Instant;

use cachecatalyst_httpwire::Response;
use cachecatalyst_origin::OriginServer;

use crate::model::Layers;
use crate::oracle::{Held, Oracle};
use crate::spans::Tracer;
use crate::stats::{equal_ranges, Block};
use crate::sys::cpu_ns;
use crate::world::{Item, World};

pub mod edge;
pub mod fleet_day;
pub mod origin_wire;

/// Blocks per lap of a direct workload: each is long enough (tens of
/// milliseconds) for the clock reads around it not to matter.
const BLOCKS: usize = 10;

/// Share of `S` replayed untimed before the clock starts, so caches
/// and lazily built page configs are warm.
const WARM_UP: f64 = 0.05;

/// `S` as (untimed warm-up prefix, timed rest).
fn split_warm_up(items: &[Item]) -> (&[Item], &[Item]) {
    items.split_at((items.len() as f64 * WARM_UP) as usize)
}

/// The timed section of a direct workload: `op` over `items` in
/// [`BLOCKS`] equal-count blocks, each timed on the wall and on this
/// thread's CPU clock. `op` hands back the responses the oracle asked
/// to keep; their bodies are checked between blocks, off the clock.
fn timed_blocks(
    world: &World,
    items: &[Item],
    tracer: Option<&Tracer>,
    oracle: &mut Oracle,
    mut op: impl FnMut(&Item, &mut Oracle) -> Option<Response>,
) -> Vec<Block> {
    let mut blocks = Vec::with_capacity(BLOCKS);
    for range in equal_ranges(items.len(), BLOCKS) {
        let mut held = Vec::new();
        let cpu_start = cpu_ns();
        let started = Instant::now();
        for item in &items[range.clone()] {
            if let Some(tracer) = tracer {
                tracer.next_op();
            }
            if let Some(response) = op(item, oracle) {
                held.push(Held {
                    item: *item,
                    response,
                });
            }
        }
        blocks.push(Block {
            ops: range.len() as u64,
            wall_ns: started.elapsed().as_nanos() as u64,
            cpu_ns: cpu_ns() - cpu_start,
        });
        for held in &held {
            let (site, path) = (held.item.site as usize, held.item.path as usize);
            oracle.check(&world.sites[site], &world.paths[site][path], held);
        }
    }
    blocks
}

/// Sums the origins' own counters into `layers`.
fn origin_counters(layers: &mut Layers, servers: &[Arc<OriginServer>]) {
    for server in servers {
        let m = server.metrics();
        layers.add("origin.configs_built", m.configs_built as f64);
        layers.add("origin.config_cache_hits", m.config_cache_hits as f64);
    }
}

/// What generating the inputs cost and how big they are.
fn world_stats(layers: &mut Layers, world: &World, stream_reqs: usize) {
    layers.sample("webmodel.trace_gen_ms", world.trace_gen_ms);
    layers.sample("webmodel.corpus_gen_ms", world.corpus_gen_ms);
    layers.sample("webmodel.corpus_mb", world.corpus_mb());
    layers.add("webmodel.stream_reqs", stream_reqs as f64);
}
