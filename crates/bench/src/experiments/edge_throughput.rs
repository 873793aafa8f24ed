//! E22 — edge-tier throughput: hammers one shared `EdgeCache` from M
//! worker threads across a hit / miss / coalesce / skew matrix and
//! reports req/s, the hit rate, upstream requests per client request
//! (the coalescing and caching figure of merit), and evictions.
//!
//! * `hot` — every thread loops over a small warmed working set: the
//!   pure hit path (upstream/req ≈ 0).
//! * `churn` — threads cycle a working set much larger than the byte
//!   budget: the miss + store + evict path.
//! * `coalesce` — per round, all threads ask for the *same* storable
//!   key behind a barrier, after its freshness has run out:
//!   single-flight should collapse the M concurrent misses into one
//!   upstream fetch (upstream/req = 1/M).
//! * `zipf` — keys drawn rank-weighted, against a budget that holds
//!   the hot head but not the tail: the hit, miss and evict paths in
//!   the proportions a population-scale request stream produces.

use std::io::Write;
use std::sync::Barrier;

use super::hammer::{
    fetch, hammer, ohr_pct, threads_arg, threads_on_cores, upstream_per_req, BenchEdge, BenchSite,
};
use crate::cli::{self, Args};
use crate::table::render_table;

/// Requests per timed section: fixed work, sized so that each runs for
/// over a second on the 2-vCPU build box.
const HOT_REQUESTS: usize = 2_400_000;
const CHURN_REQUESTS: usize = 480_000;
const COALESCE_REQUESTS: usize = 160_000;
const ZIPF_REQUESTS: usize = 960_000;

/// Virtual seconds between `coalesce`'s laps over its keys: longer
/// than any freshness lifetime the site grants (at most a year), so
/// every round finds its key stale.
const LAP_SECS: i64 = 2 * 365 * 86_400;

/// One measured workload.
struct Measured {
    workload: &'static str,
    requests: usize,
    secs: f64,
    hit_pct: f64,
    upstream_per_req: f64,
    evictions: u64,
}

/// Spreads `requests` calls of `f(thread, i)` over `threads` threads
/// against `edge` and reads the edge's counters afterwards.
fn measure(
    workload: &'static str,
    requests: usize,
    threads: usize,
    edge: &BenchEdge,
    f: impl Fn(usize, usize) + Sync,
) -> Measured {
    let iters = requests / threads;
    let secs = hammer(threads, iters, f);
    eprintln!("# {workload}: {secs:.2} s");
    let m = edge.metrics();
    Measured {
        workload,
        requests: threads * iters,
        secs,
        hit_pct: ohr_pct(&m),
        upstream_per_req: upstream_per_req(&m),
        evictions: m.evictions,
    }
}

fn hot(site: &BenchSite, threads: usize) -> Measured {
    let edge = site.edge().byte_budget(64 << 20).build();
    let set = &site.storable[..8];
    for path in set {
        fetch(&edge, path, 0);
    }
    measure("hot", HOT_REQUESTS, threads, &edge, |thread, i| {
        fetch(&edge, &set[(thread + i) % set.len()], 0);
    })
}

fn churn(site: &BenchSite, threads: usize) -> Measured {
    // Roughly a tenth of the working set: every lap re-fetches most
    // of it.
    let edge = site.edge().byte_budget(256 << 10).build();
    let keys = &site.assets;
    measure("churn", CHURN_REQUESTS, threads, &edge, |thread, i| {
        fetch(&edge, &keys[(thread * 31 + i) % keys.len()], 0);
    })
}

fn coalesce(site: &BenchSite, threads: usize) -> Measured {
    let edge = site.edge().byte_budget(64 << 20).build();
    let barrier = Barrier::new(threads);
    let keys = &site.storable;
    measure("coalesce", COALESCE_REQUESTS, threads, &edge, |_, round| {
        barrier.wait();
        let t_secs = (round / keys.len()) as i64 * LAP_SECS;
        fetch(&edge, &keys[round % keys.len()], t_secs);
    })
}

fn zipf(site: &BenchSite, threads: usize) -> Measured {
    let edge = site.edge().byte_budget(1 << 20).build();
    let keys = site.zipf_keys("edge-zipf", ZIPF_REQUESTS);
    let per_thread = ZIPF_REQUESTS / threads;
    measure("zipf", ZIPF_REQUESTS, threads, &edge, |thread, i| {
        fetch(&edge, &site.assets[keys[thread * per_thread + i]], 0);
    })
}

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let threads = threads_arg(args)?;
    let site = BenchSite::generate();
    let rows = [hot, churn, coalesce, zipf].map(|workload| workload(&site, threads));
    let [hot, churn, coalesce, zipf] = &rows;
    assert!(
        coalesce.upstream_per_req <= 1.0,
        "single-flight must never amplify upstream traffic"
    );
    // The skewed stream must land between the extremes: the hot head
    // hits, the tail does not.
    assert!(
        zipf.hit_pct > churn.hit_pct && zipf.hit_pct < hot.hit_pct,
        "zipf hit rate {:.1}% outside (churn, hot) band",
        zipf.hit_pct
    );

    writeln!(
        out,
        "== E22: edge throughput: one EdgeCache, {} (host wall clock) ==\n",
        threads_on_cores(threads)
    )?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|m| {
            vec![
                m.workload.to_owned(),
                m.requests.to_string(),
                format!("{:.0}", m.requests as f64 / m.secs),
                format!("{:.1}", m.hit_pct),
                format!("{:.3}", m.upstream_per_req),
                m.evictions.to_string(),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "workload",
                "requests",
                "reqs/sec",
                "hit_%",
                "upstream/req",
                "evictions"
            ],
            &table
        )
    )?;
    Ok(())
}
