//! Workload transparency: what the synthetic corpus actually looks
//! like, against the httparchive/paper-cited shape it targets.

use std::io::Write;

use super::corpus_arg;
use crate::cli::{self, Args};
use crate::table::render_table;
use cachecatalyst_webmodel::stats::Summary;
use cachecatalyst_webmodel::{HeaderPolicy, ResourceKind};

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let sites = corpus_arg(args, 100)?;
    let n_sites = sites.len();

    writeln!(out, "== Corpus report: {n_sites} synthetic top sites ==\n")?;

    // Page-level shape.
    let counts: Vec<f64> = sites.iter().map(|s| (s.len() - 1) as f64).collect();
    let weights: Vec<f64> = sites.iter().map(|s| s.total_bytes() as f64 / 1e6).collect();
    let c = Summary::of(&counts);
    let w = Summary::of(&weights);
    writeln!(out,
        "resources/page: median {:.0} (p90 {:.0}, max {:.0});  page weight MB: median {:.2} (p90 {:.2})",
        c.p50, c.p90, c.max, w.p50, w.p90
    )?;
    writeln!(
        out,
        "targets: ≈70 resources, ≈2.5 MB (httparchive, cited in §2.2)\n"
    )?;

    // Per-kind composition.
    let mut rows = Vec::new();
    for kind in ResourceKind::all() {
        let mut n = 0usize;
        let mut bytes = 0u64;
        let mut sizes = Vec::new();
        for site in &sites {
            for r in site.resources() {
                if r.spec.kind == kind {
                    n += 1;
                    bytes += r.spec.size;
                    sizes.push(r.spec.size as f64);
                }
            }
        }
        if n == 0 {
            continue;
        }
        let total: usize = sites.iter().map(|s| s.len()).sum();
        let s = Summary::of(&sizes);
        rows.push(vec![
            kind.to_string(),
            format!("{:.0}%", n as f64 / total as f64 * 100.0),
            format!("{:.0} KB", s.p50 / 1000.0),
            format!("{:.0} KB", s.p90 / 1000.0),
            format!("{:.1} MB", bytes as f64 / 1e6 / n_sites as f64),
        ]);
    }
    writeln!(
        out,
        "{}",
        render_table(
            &["kind", "share", "median size", "p90 size", "bytes/site"],
            &rows
        )
    )?;

    // Header-policy mix and TTL distribution.
    let mut ttls = Vec::new();
    let (mut no_store, mut no_cache, mut with_ttl) = (0usize, 0usize, 0usize);
    for site in &sites {
        for r in site.resources() {
            match &r.policy {
                HeaderPolicy::NoStore => no_store += 1,
                HeaderPolicy::NoCache => no_cache += 1,
                HeaderPolicy::MaxAge(ttl) => {
                    with_ttl += 1;
                    ttls.push(ttl.as_secs_f64() / 3600.0);
                }
            }
        }
    }
    let total = no_store + no_cache + with_ttl;
    let t = Summary::of(&ttls);
    writeln!(
        out,
        "header mix: {:.0}% no-store, {:.0}% no-cache, {:.0}% max-age",
        no_store as f64 / total as f64 * 100.0,
        no_cache as f64 / total as f64 * 100.0,
        with_ttl as f64 / total as f64 * 100.0
    )?;
    writeln!(
        out,
        "assigned TTLs (hours): p50 {:.1}, p90 {:.0}, max {:.0}",
        t.p50, t.p90, t.max
    )?;
    Ok(())
}
