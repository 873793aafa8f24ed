//! E22 — edge-tier throughput: hammers a shared `EdgeCache` from M
//! worker threads across a hit/miss/coalesce workload matrix and
//! reports req/s, the hit rate, upstream requests per client request
//! (the coalescing and caching figure of merit), and evictions.
//!
//! Workloads:
//!
//! * `hot` — every thread loops over a small warmed working set: the
//!   pure hit path (upstream/req ≈ 0).
//! * `churn` — threads cycle a working set much larger than the byte
//!   budget: the miss + store + evict path.
//! * `coalesce` — per round, all threads hit the *same* cold key
//!   behind a barrier: single-flight should collapse M concurrent
//!   misses into one upstream fetch (upstream/req ≈ 1/M).
//! * `zipf` (opt-in via `--zipf`) — keys drawn rank-weighted from the
//!   fleet engine's [`ZipfSampler`]: the realistic CDN blend of a hot
//!   head (pure hits) and a long tail (misses + evictions) in one
//!   request stream.
//!
//! Flags: see `USAGE` below.
//!
//! Appends a labelled section to `results/edge_throughput.txt` and
//! splices the `"throughput"` section of `BENCH_edge.json` (repo
//! root) with machine-readable rows `{workload, threads,
//! reqs_per_sec, hit_pct, upstream_per_req, evictions}` —
//! `edge_tier_bench`'s `"tier"` section is preserved.

use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use cachecatalyst_bench::cli::{self, Args};
use cachecatalyst_browser::{SingleOrigin, Upstream};
use cachecatalyst_edge::EdgeCache;
use cachecatalyst_httpwire::Request;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::stats::rng_for;
use cachecatalyst_webmodel::{ResourceKind, Site, SiteSpec, ZipfSampler};

/// One measured configuration.
struct Row {
    workload: &'static str,
    threads: usize,
    reqs_per_sec: f64,
    hit_pct: f64,
    upstream_per_req: f64,
    evictions: u64,
}

/// A generated many-asset site plus its cacheable asset paths.
fn bench_site() -> (Arc<OriginServer>, Vec<String>) {
    let site = Site::generate(SiteSpec {
        host: "edge-bench.example".to_owned(),
        seed: 0xED6E,
        n_resources: 120,
        ..Default::default()
    });
    let paths: Vec<String> = site
        .resources()
        .filter(|r| r.spec.kind != ResourceKind::Html)
        .map(|r| r.spec.path.clone())
        .collect();
    assert!(paths.len() >= 64, "need a wide working set");
    (
        Arc::new(OriginServer::new(site, HeaderMode::Catalyst)),
        paths,
    )
}

fn measure<F>(
    workload: &'static str,
    threads: usize,
    total_reqs: usize,
    edge: &EdgeCache<SingleOrigin>,
    run: F,
) -> Row
where
    F: Fn(usize) + Sync,
{
    let started = Instant::now();
    std::thread::scope(|scope| {
        for thread_id in 0..threads {
            let run = &run;
            scope.spawn(move || run(thread_id));
        }
    });
    let elapsed = started.elapsed();
    let m = edge.metrics();
    Row {
        workload,
        threads,
        reqs_per_sec: total_reqs as f64 / elapsed.as_secs_f64(),
        hit_pct: (m.hits + m.negative_hits) as f64 / m.requests.max(1) as f64 * 100.0,
        upstream_per_req: m.upstream_requests as f64 / m.requests.max(1) as f64,
        evictions: m.evictions,
    }
}

fn get(path: &str) -> Request {
    Request::get(path).with_header("host", "edge-bench.example")
}

/// Pure hit path: a small working set, warmed, then hammered at t=0.
fn run_hot(threads: usize, iters: usize) -> Row {
    let (origin, paths) = bench_site();
    let edge = EdgeCache::builder(SingleOrigin(origin))
        .byte_budget(64 << 20)
        .min_fresh_secs(1 << 20) // keep everything fresh for the run
        .build();
    let set: Vec<&String> = paths.iter().take(8).collect();
    for p in &set {
        edge.handle("edge-bench.example", &get(p), 0);
    }
    measure("hot", threads, threads * iters, &edge, |thread_id| {
        for i in 0..iters {
            let p = set[(thread_id + i) % set.len()];
            let resp = edge.handle("edge-bench.example", &get(p), 0);
            assert!(resp.status.as_u16() < 500, "unexpected {}", resp.status);
        }
    })
}

/// Miss + store + evict path: the working set is far larger than the
/// byte budget, so the store is perpetually evicting.
fn run_churn(threads: usize, iters: usize) -> Row {
    let (origin, paths) = bench_site();
    // Budget roughly a tenth of the working set: every lap re-fetches
    // most of it.
    let edge = EdgeCache::builder(SingleOrigin(origin))
        .byte_budget(256 << 10)
        .min_fresh_secs(1 << 20)
        .build();
    let (paths, edge) = (&paths, &edge);
    measure("churn", threads, threads * iters, edge, move |thread_id| {
        for i in 0..iters {
            let p = &paths[(thread_id * 31 + i) % paths.len()];
            let resp = edge.handle("edge-bench.example", &get(p), 0);
            assert!(resp.status.as_u16() < 500, "unexpected {}", resp.status);
        }
    })
}

/// Single-flight: per round every thread requests the same cold key
/// simultaneously; M concurrent misses should cost one upstream fetch.
fn run_coalesce(threads: usize, rounds: usize) -> Row {
    let (origin, paths) = bench_site();
    let edge = EdgeCache::builder(SingleOrigin(origin))
        .byte_budget(64 << 20)
        .min_fresh_secs(1 << 20)
        .build();
    let barrier = Barrier::new(threads);
    let (paths, barrier, edge) = (&paths, &barrier, &edge);
    measure(
        "coalesce",
        threads,
        threads * rounds,
        edge,
        move |_thread_id| {
            for round in 0..rounds {
                let p = &paths[round % paths.len()];
                barrier.wait();
                let resp = edge.handle("edge-bench.example", &get(p), round as i64);
                assert!(resp.status.as_u16() < 500, "unexpected {}", resp.status);
            }
        },
    )
}

/// Zipf-skewed mix: each thread draws keys from the fleet workload
/// engine's rank-weighted sampler. With a budget that holds the hot
/// head but not the tail, this exercises the hit, miss and evict
/// paths in the proportions a population-scale request stream
/// produces, rather than in isolation.
fn run_zipf(threads: usize, iters: usize, exponent: f64) -> Row {
    let (origin, paths) = bench_site();
    let edge = EdgeCache::builder(SingleOrigin(origin))
        .byte_budget(1 << 20)
        .min_fresh_secs(1 << 20)
        .build();
    let sampler = ZipfSampler::new(paths.len(), exponent);
    let (paths, edge, sampler) = (&paths, &edge, &sampler);
    measure("zipf", threads, threads * iters, edge, move |thread_id| {
        let mut rng = rng_for(0x21BF, &format!("edge-zipf-{thread_id}"));
        for _ in 0..iters {
            let p = &paths[sampler.sample(&mut rng)];
            let resp = edge.handle("edge-bench.example", &get(p), 0);
            assert!(resp.status.as_u16() < 500, "unexpected {}", resp.status);
        }
    })
}

fn render_table(rows: &[Row], threads: usize, iters: usize, label: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {label} — {threads} threads x {iters} iters/thread");
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>9} {:>16} {:>10}",
        "workload", "reqs/sec", "hit_%", "upstream/req", "evictions"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>12.0} {:>9.1} {:>16.3} {:>10}",
            r.workload, r.reqs_per_sec, r.hit_pct, r.upstream_per_req, r.evictions
        );
    }
    out
}

/// The `"throughput"` section of `BENCH_edge.json` (spliced in next
/// to `edge_tier_bench`'s `"tier"` section).
fn render_section(rows: &[Row], label: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "    \"label\": \"{label}\",");
    out.push_str("    \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"workload\": \"{}\", \"threads\": {}, \"reqs_per_sec\": {:.0}, \
             \"hit_pct\": {:.1}, \"upstream_per_req\": {:.3}, \"evictions\": {}}}{comma}",
            r.workload, r.threads, r.reqs_per_sec, r.hit_pct, r.upstream_per_req, r.evictions
        );
    }
    out.push_str("    ]\n  }");
    out
}

const USAGE: &str =
    "usage: edge_throughput [--smoke] [--zipf] [--threads M] [--iters N] [--label L]";

fn main() {
    cli::exit_on_error(run(&mut Args::from_env()), USAGE);
}

fn run(args: &mut Args) -> cli::Result {
    let smoke = args.flag("--smoke");
    let zipf = args.flag("--zipf");
    let threads: usize = args
        .value("--threads")?
        .unwrap_or(if smoke { 2 } else { 8 });
    let iters: usize = args
        .value("--iters")?
        .unwrap_or(if smoke { 50 } else { 2000 });
    let label: String = args.value("--label")?.unwrap_or_else(|| "run".to_owned());
    args.finish()?;

    let mut rows = vec![
        run_hot(threads, iters),
        run_churn(threads, iters),
        run_coalesce(threads, iters.min(500)),
    ];
    if zipf {
        rows.push(run_zipf(threads, iters, 1.0));
    }

    let table = render_table(&rows, threads, iters, &label);
    print!("{table}");

    // The coalescing figure of merit: with M threads per cold key, the
    // upstream cost per client request should sit well under one.
    let coalesce = &rows[2];
    assert!(
        coalesce.upstream_per_req <= 1.0,
        "single-flight must never amplify upstream traffic"
    );
    if let Some(zipf) = rows.iter().find(|r| r.workload == "zipf") {
        // The skewed stream must land between the pure-hit and
        // pure-churn extremes: the hot head hits, the tail doesn't.
        assert!(
            zipf.hit_pct > rows[1].hit_pct && zipf.hit_pct < rows[0].hit_pct,
            "zipf hit rate {:.1}% outside (churn, hot) band",
            zipf.hit_pct
        );
    }

    if smoke {
        // Smoke runs exist to prove the binary works (CI); their
        // numbers are noise and must not overwrite recorded results.
        return Ok(());
    }

    std::fs::create_dir_all("results").expect("create results/");
    use std::io::Write as _;
    let mut txt = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("results/edge_throughput.txt")
        .expect("open results/edge_throughput.txt");
    txt.write_all(table.as_bytes()).expect("append results");
    cachecatalyst_bench::benchjson::write_bench_edge(
        "BENCH_edge.json",
        "throughput",
        &render_section(&rows, &label),
    );
    Ok(())
}
