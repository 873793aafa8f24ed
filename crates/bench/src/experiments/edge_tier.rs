//! E24 — hybrid tier evaluation: what does the persistent second tier
//! buy when DRAM is constrained, and what does a warm restart cost?
//!
//! Three measurements over one seeded Zipf request stream, driven
//! single-threaded so every counter is a pure function of the seed:
//!
//! * `zipf-mem` — DRAM-only edge at a budget far under the working
//!   set: tail traffic misses upstream.
//! * `zipf-hybrid` — same DRAM budget plus the segment-file tier:
//!   the tail demotes to disk instead of vanishing, so OHR/BHR recover
//!   most of what the budget took away.
//! * `warm-restart` — fill a hybrid edge, drop it (unclean exit),
//!   reopen over the same directory, then sweep the site's HTML pages
//!   once: every forwarded page carries a verified catalyst map that
//!   re-freshens the recovered entries *index-only* — the only
//!   upstream contact in the sweep is the HTML forwards themselves.
//!   The re-driven workload then serves from the recovered tier.
//!
//! The wall-clock side of the same comparison is the repo benchmark's
//! `edge-mem` / `edge-hybrid` `ops_per_s`.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use super::hammer::{fetch, ohr_pct, upstream_per_req, BenchEdge, BenchSite};
use crate::cli::{self, Args};
use crate::table::render_table;
use cachecatalyst_edge::{DiskTierOptions, EdgeMetrics, StoreOptions};

const MEM_BUDGET: usize = 256 << 10;

/// Byte hit ratio in percent.
fn bhr_pct(m: &EdgeMetrics) -> f64 {
    m.hit_bytes as f64 / (m.hit_bytes + m.upstream_bytes).max(1) as f64 * 100.0
}

/// Requests `keys` in order at t=0; the wall seconds go to stderr.
fn drive(workload: &str, edge: &BenchEdge, site: &BenchSite, keys: &[usize]) {
    let started = Instant::now();
    for &key in keys {
        fetch(edge, &site.assets[key], 0);
    }
    eprintln!("# {workload}: {:.2} s", started.elapsed().as_secs_f64());
}

fn hybrid(site: &BenchSite, dir: &Path) -> BenchEdge {
    let store = StoreOptions::new()
        .mem_budget(MEM_BUDGET)
        .disk(DiskTierOptions::at(dir));
    site.edge(store)
}

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let iters: usize = args.value("--iters")?.unwrap_or(40_000);
    let dir: PathBuf = args.value("--dir")?.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("cc-edge-tier-{}", std::process::id()))
    });
    args.finish()?;
    // Only the two directories this row makes are ever removed: `dir`
    // may be somebody's mount point.
    let (hybrid_dir, restart_dir) = (dir.join("hybrid"), dir.join("restart"));
    let clear = || {
        let _ = std::fs::remove_dir_all(&hybrid_dir);
        let _ = std::fs::remove_dir_all(&restart_dir);
    };
    clear();

    let site = BenchSite::generate();
    let keys = site.zipf_keys("edge-tier-zipf", iters);

    let mem = site.edge(StoreOptions::new().mem_budget(MEM_BUDGET));
    drive("zipf-mem", &mem, &site, &keys);

    let tiered = hybrid(&site, &hybrid_dir);
    drive("zipf-hybrid", &tiered, &site, &keys);

    // Fill, then "crash": drop writes no shutdown state.
    drive(
        "warm-restart fill",
        &hybrid(&site, &restart_dir),
        &site,
        &keys,
    );
    // Reopen: the boot scan rebuilds the index, and every recovered
    // entry is stale until a verified map vouches for it.
    let restarted = hybrid(&site, &restart_dir);
    for page in &site.pages {
        fetch(&restarted, page, 0);
    }
    let sweep_upstream = restarted.metrics().upstream_requests;
    drive("warm-restart", &restarted, &site, &keys);

    let edges = [
        ("zipf-mem", mem.metrics()),
        ("zipf-hybrid", tiered.metrics()),
        ("warm-restart", restarted.metrics()),
    ];
    clear();
    let _ = std::fs::remove_dir(&dir);

    let [(_, mem), (_, tiered), (_, restarted)] = &edges;
    // Under constrained DRAM the hybrid store must beat mem-only on
    // both hit ratios: the tail lives on disk, not upstream.
    assert!(
        ohr_pct(tiered) > ohr_pct(mem) && bhr_pct(tiered) > bhr_pct(mem),
        "hybrid must beat mem-only: {tiered:?} against {mem:?}"
    );
    assert!(tiered.disk_hits > 0 && tiered.demotions > 0);
    assert!(
        restarted.disk_recovered > 0,
        "the restart must recover the tier"
    );
    assert!(
        restarted.disk_recovered_refreshed > 0,
        "verified maps must re-freshen recovered entries"
    );
    assert_eq!(
        sweep_upstream,
        site.pages.len() as u64,
        "the re-freshen sweep may cost exactly the HTML forwards"
    );

    writeln!(
        out,
        "== E24: hybrid edge store — {iters} zipf requests, {} KiB DRAM budget ==\n",
        MEM_BUDGET >> 10
    )?;
    let rows: Vec<Vec<String>> = edges
        .iter()
        .map(|(workload, m)| {
            vec![
                (*workload).to_owned(),
                format!("{:.1}", ohr_pct(m)),
                format!("{:.1}", bhr_pct(m)),
                format!("{:.3}", upstream_per_req(m)),
                m.disk_hits.to_string(),
                m.demotions.to_string(),
                m.disk_recovered.to_string(),
                m.disk_recovered_refreshed.to_string(),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "workload",
                "ohr_%",
                "bhr_%",
                "upstream/req",
                "disk_hits",
                "demotions",
                "recovered",
                "refreshed",
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "HTML pages swept after the restart: {}; upstream requests the sweep cost:\n\
         {sweep_upstream} (the pages themselves: verified maps re-freshen recovered entries in\n\
         the index, and no subresource is revalidated).",
        site.pages.len()
    )?;
    Ok(())
}
