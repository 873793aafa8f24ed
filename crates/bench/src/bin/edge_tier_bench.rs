//! E24 — hybrid tier evaluation: what does the persistent second tier
//! buy when DRAM is constrained, and what does a warm restart cost?
//!
//! Three measurements over one Zipf-skewed request stream (the fleet
//! engine's rank-weighted sampler, fixed seed, single-threaded so the
//! hit accounting is deterministic):
//!
//! * `zipf-mem` — DRAM-only edge at a budget far under the working
//!   set: the PR 5 configuration, tail traffic misses upstream.
//! * `zipf-hybrid` — same DRAM budget plus the segment-file tier
//!   (TinyLFU admission): the tail demotes to disk instead of
//!   vanishing, so OHR/BHR recover most of what the budget took away.
//! * `warm-restart` — fill a hybrid edge, drop it (unclean exit),
//!   reopen over the same directory, then sweep the site's HTML pages
//!   once: every forwarded page carries a verified catalyst map that
//!   re-freshens the recovered entries *index-only* — the only
//!   upstream contact in the sweep is the HTML forwards themselves.
//!   The re-driven workload then serves from the recovered tier.
//!
//! Flags: see `USAGE` below.
//!
//! Appends a labelled section to `results/edge_tier.txt` (smoke runs
//! included — CI uploads it) and splices the `"tier"` section of
//! `BENCH_edge.json` (full runs only), preserving `edge_throughput`'s
//! `"throughput"` section.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cachecatalyst_bench::benchjson::write_bench_edge;
use cachecatalyst_bench::cli::{self, Args};
use cachecatalyst_browser::{SingleOrigin, Upstream};
use cachecatalyst_edge::{AdmissionPolicy, DiskTierOptions, EdgeCache, StoreOptions};
use cachecatalyst_httpwire::Request;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::stats::rng_for;
use cachecatalyst_webmodel::{ResourceKind, Site, SiteSpec, ZipfSampler};

const HOST: &str = "edge-bench.example";

/// One measured configuration.
struct Row {
    workload: &'static str,
    reqs_per_sec: f64,
    ohr_pct: f64,
    bhr_pct: f64,
    upstream_per_req: f64,
    disk_hits: u64,
    demotions: u64,
    admission_rejects: u64,
    recovered: u64,
    refreshed: u64,
}

/// The site `edge_throughput` uses, split into asset paths (the
/// request stream) and HTML paths (the warm-restart map sweep).
fn bench_site() -> (Arc<OriginServer>, Vec<String>, Vec<String>) {
    let site = Site::generate(SiteSpec {
        host: HOST.to_owned(),
        seed: 0xED6E,
        n_resources: 120,
        ..Default::default()
    });
    let assets: Vec<String> = site
        .resources()
        .filter(|r| r.spec.kind != ResourceKind::Html)
        .map(|r| r.spec.path.clone())
        .collect();
    let pages: Vec<String> = site
        .resources()
        .filter(|r| r.spec.kind == ResourceKind::Html)
        .map(|r| r.spec.path.clone())
        .collect();
    assert!(assets.len() >= 64 && !pages.is_empty());
    (
        Arc::new(OriginServer::new(site, HeaderMode::Catalyst)),
        assets,
        pages,
    )
}

fn get(path: &str) -> Request {
    Request::get(path).with_header("host", HOST)
}

/// Drives `iters` Zipf-sampled asset requests at t=0 and returns the
/// wall-clock duration. Deterministic key order (fixed seed).
fn drive_zipf(edge: &EdgeCache<SingleOrigin>, assets: &[String], iters: usize) -> f64 {
    let sampler = ZipfSampler::new(assets.len(), 1.0);
    let mut rng = rng_for(0x21BF, "edge-tier-zipf");
    let started = Instant::now();
    for _ in 0..iters {
        let p = &assets[sampler.sample(&mut rng)];
        let resp = edge.handle(HOST, &get(p), 0);
        assert!(resp.status.as_u16() < 500, "unexpected {}", resp.status);
    }
    started.elapsed().as_secs_f64()
}

fn row_from(
    workload: &'static str,
    edge: &EdgeCache<SingleOrigin>,
    iters: usize,
    secs: f64,
) -> Row {
    let m = edge.metrics();
    Row {
        workload,
        reqs_per_sec: iters as f64 / secs,
        ohr_pct: (m.hits + m.negative_hits) as f64 / m.requests.max(1) as f64 * 100.0,
        bhr_pct: m.hit_bytes as f64 / (m.hit_bytes + m.upstream_bytes).max(1) as f64 * 100.0,
        upstream_per_req: m.upstream_requests as f64 / m.requests.max(1) as f64,
        disk_hits: m.disk_hits,
        demotions: m.demotions,
        admission_rejects: m.admission_rejects,
        recovered: m.disk_recovered,
        refreshed: m.disk_recovered_refreshed,
    }
}

fn hybrid_store(mem_budget: usize, dir: &PathBuf, admission: AdmissionPolicy) -> StoreOptions {
    StoreOptions::new()
        .mem_budget(mem_budget)
        .disk(DiskTierOptions::at(dir).admission(admission))
}

fn run_mem(iters: usize, mem_budget: usize) -> Row {
    let (origin, assets, _) = bench_site();
    let edge = EdgeCache::builder(SingleOrigin(origin))
        .byte_budget(mem_budget)
        .min_fresh_secs(1 << 20)
        .build();
    let secs = drive_zipf(&edge, &assets, iters);
    row_from("zipf-mem", &edge, iters, secs)
}

fn run_hybrid(iters: usize, mem_budget: usize, dir: &PathBuf) -> Row {
    let _ = std::fs::remove_dir_all(dir);
    let (origin, assets, _) = bench_site();
    let edge = EdgeCache::builder(SingleOrigin(origin))
        .store(hybrid_store(
            mem_budget,
            dir,
            AdmissionPolicy::TinyLfuAdmit { min_hits: 2 },
        ))
        .min_fresh_secs(1 << 20)
        .build();
    let secs = drive_zipf(&edge, &assets, iters);
    row_from("zipf-hybrid", &edge, iters, secs)
}

/// The warm-restart measurement. Returns the row plus the number of
/// upstream requests the re-freshen sweep cost (the HTML forwards —
/// and nothing else).
fn run_warm_restart(iters: usize, mem_budget: usize, dir: &PathBuf) -> (Row, u64, usize) {
    let _ = std::fs::remove_dir_all(dir);
    let (origin, assets, pages) = bench_site();
    // Fill: admit-everything so the restart has the full tail to
    // recover, then "crash" (drop writes no shutdown state).
    {
        let edge = EdgeCache::builder(SingleOrigin(Arc::clone(&origin)))
            .store(hybrid_store(mem_budget, dir, AdmissionPolicy::AdmitAll))
            .min_fresh_secs(1 << 20)
            .build();
        drive_zipf(&edge, &assets, iters);
    }

    // Reopen: the boot scan rebuilds the index; every recovered entry
    // is stale until a verified map vouches for it.
    let edge = EdgeCache::builder(SingleOrigin(origin))
        .store(hybrid_store(mem_budget, dir, AdmissionPolicy::AdmitAll))
        .min_fresh_secs(1 << 20)
        .build();
    for page in &pages {
        let resp = edge.handle(HOST, &get(page), 0);
        assert!(resp.status.as_u16() < 500, "unexpected {}", resp.status);
    }
    let sweep_upstream = edge.metrics().upstream_requests;
    // Re-drive the workload over the recovered tier.
    let secs = drive_zipf(&edge, &assets, iters);
    let row = row_from("warm-restart", &edge, iters, secs);
    (row, sweep_upstream, pages.len())
}

fn render_table(rows: &[Row], iters: usize, mem_budget: usize, label: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## {label} — {iters} zipf reqs, {} KiB DRAM budget",
        mem_budget >> 10
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>7} {:>7} {:>13} {:>10} {:>10} {:>8} {:>10} {:>10}",
        "workload",
        "reqs/sec",
        "ohr_%",
        "bhr_%",
        "upstream/req",
        "disk_hits",
        "demotions",
        "rejects",
        "recovered",
        "refreshed"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>10.0} {:>7.1} {:>7.1} {:>13.3} {:>10} {:>10} {:>8} {:>10} {:>10}",
            r.workload,
            r.reqs_per_sec,
            r.ohr_pct,
            r.bhr_pct,
            r.upstream_per_req,
            r.disk_hits,
            r.demotions,
            r.admission_rejects,
            r.recovered,
            r.refreshed
        );
    }
    out
}

fn render_section(rows: &[Row], iters: usize, mem_budget: usize, label: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "    \"label\": \"{label}\",");
    let _ = writeln!(out, "    \"iters\": {iters}, \"mem_budget\": {mem_budget},");
    out.push_str("    \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"workload\": \"{}\", \"reqs_per_sec\": {:.0}, \"ohr_pct\": {:.1}, \
             \"bhr_pct\": {:.1}, \"upstream_per_req\": {:.3}, \"disk_hits\": {}, \
             \"demotions\": {}, \"admission_rejects\": {}, \"recovered\": {}, \
             \"refreshed\": {}}}{comma}",
            r.workload,
            r.reqs_per_sec,
            r.ohr_pct,
            r.bhr_pct,
            r.upstream_per_req,
            r.disk_hits,
            r.demotions,
            r.admission_rejects,
            r.recovered,
            r.refreshed
        );
    }
    out.push_str("    ]\n  }");
    out
}

const USAGE: &str = "usage: edge_tier_bench [--smoke] [--iters N] [--mem-budget BYTES] \
                     [--dir PATH] [--label L]";

fn main() {
    cli::exit_on_error(run(&mut Args::from_env()), USAGE);
}

fn run(args: &mut Args) -> cli::Result {
    let smoke = args.flag("--smoke");
    let iters: usize = args
        .value("--iters")?
        .unwrap_or(if smoke { 2_000 } else { 40_000 });
    let mem_budget: usize = args.value("--mem-budget")?.unwrap_or(256 << 10);
    let dir: PathBuf = args.value("--dir")?.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("cc-edge-tier-bench-{}", std::process::id()))
    });
    let label: String = args
        .value("--label")?
        .unwrap_or_else(|| if smoke { "smoke" } else { "run" }.to_owned());
    args.finish()?;

    let mem = run_mem(iters, mem_budget);
    let hybrid = run_hybrid(iters, mem_budget, &dir.join("hybrid"));
    let (restart, sweep_upstream, page_count) =
        run_warm_restart(iters, mem_budget, &dir.join("restart"));
    let rows = vec![mem, hybrid, restart];

    let table = render_table(&rows, iters, mem_budget, &label);
    print!("{table}");

    // Acceptance: under constrained DRAM the hybrid store must beat
    // mem-only on both hit ratios — the tail lives on disk, not
    // upstream.
    assert!(
        rows[1].ohr_pct > rows[0].ohr_pct && rows[1].bhr_pct > rows[0].bhr_pct,
        "hybrid (ohr {:.1}%, bhr {:.1}%) must beat mem-only (ohr {:.1}%, bhr {:.1}%)",
        rows[1].ohr_pct,
        rows[1].bhr_pct,
        rows[0].ohr_pct,
        rows[0].bhr_pct
    );
    assert!(rows[1].disk_hits > 0 && rows[1].demotions > 0);
    // Acceptance: the restart recovered entries and re-freshened them
    // with zero upstream contact beyond the HTML forwards themselves.
    assert!(rows[2].recovered > 0, "the restart must recover the tier");
    assert!(
        rows[2].refreshed > 0,
        "verified maps must re-freshen recovered entries"
    );
    assert_eq!(
        sweep_upstream, page_count as u64,
        "the re-freshen sweep may cost exactly the {page_count} HTML forwards"
    );

    std::fs::create_dir_all("results").expect("create results/");
    use std::io::Write as _;
    let mut txt = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("results/edge_tier.txt")
        .expect("open results/edge_tier.txt");
    txt.write_all(table.as_bytes()).expect("append results");

    let _ = std::fs::remove_dir_all(&dir);
    if smoke {
        // Smoke numbers never overwrite the committed baseline.
        return Ok(());
    }
    write_bench_edge(
        "BENCH_edge.json",
        "tier",
        &render_section(&rows, iters, mem_budget, &label),
    );
    Ok(())
}
