//! E3 — motivating statistics (§2.2): audits that the workload model
//! reproduces the measurements the paper cites.
//!
//! Checked claims:
//!  * "only about 50 percent of the resources that can be cached are
//!    actually cached" (Liu et al., Ma et al.);
//!  * "40% of resources have a TTL of less than one day, but 86% of
//!    these do not change within that period" (Liu et al.);
//!  * "47% of resources expire in the cache even though their content
//!    has not changed" (Ramanujam et al.).

use std::io::Write;
use std::time::Duration;

use super::corpus_arg;
use crate::cli::{self, Args};
use crate::table::render_table;
use cachecatalyst_webmodel::HeaderPolicy;

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let sites = corpus_arg(args, 100)?;
    let n_sites = sites.len();

    let day = Duration::from_secs(86_400);
    let mut total = 0usize;
    let mut no_store = 0usize;
    let mut no_cache = 0usize;
    let mut with_ttl = 0usize;
    let mut ttl_under_day = 0usize;
    let mut ttl_under_day_unchanged = 0usize;
    let mut expired_unchanged = 0usize;
    let mut expired = 0usize;

    for site in &sites {
        for r in site.resources() {
            if r.spec.path == site.base_path() {
                continue;
            }
            total += 1;
            match &r.policy {
                HeaderPolicy::NoStore => no_store += 1,
                HeaderPolicy::NoCache => no_cache += 1,
                HeaderPolicy::MaxAge(ttl) => {
                    with_ttl += 1;
                    // Sample an arbitrary moment in the site's life.
                    let t0 = 40 * 86_400i64;
                    if *ttl < day {
                        ttl_under_day += 1;
                        if !r.spec.change.changes_within(t0, day) {
                            ttl_under_day_unchanged += 1;
                        }
                    }
                    // "Expire unchanged": the TTL elapses before the
                    // content actually changes.
                    expired += 1;
                    if !r.spec.change.changes_within(t0, *ttl) {
                        expired_unchanged += 1;
                    }
                }
            }
        }
    }

    let pct = |a: usize, b: usize| {
        if b == 0 {
            0.0
        } else {
            a as f64 / b as f64 * 100.0
        }
    };

    writeln!(
        out,
        "== E3: motivating statistics over {n_sites} sites ({total} subresources) ==\n"
    )?;
    let rows = vec![
        vec![
            "effectively cacheable-and-cached (max-age)".to_owned(),
            format!("{:.0}%", pct(with_ttl, total)),
            "~50-60% (Liu/Ma: ≈50% of cacheable actually cached)".to_owned(),
        ],
        vec![
            "no-store (never cached)".to_owned(),
            format!("{:.0}%", pct(no_store, total)),
            "CMS defaults".to_owned(),
        ],
        vec![
            "no-cache (revalidate every use)".to_owned(),
            format!("{:.0}%", pct(no_cache, total)),
            "unguessable TTLs".to_owned(),
        ],
        vec![
            "TTL < 1 day (of TTL'd resources)".to_owned(),
            format!("{:.0}%", pct(ttl_under_day, with_ttl)),
            "paper cites 40%".to_owned(),
        ],
        vec![
            "…of those, unchanged within the day".to_owned(),
            format!("{:.0}%", pct(ttl_under_day_unchanged, ttl_under_day)),
            "paper cites 86%".to_owned(),
        ],
        vec![
            "expire in cache though content unchanged".to_owned(),
            format!("{:.0}%", pct(expired_unchanged, expired)),
            "paper cites 47%".to_owned(),
        ],
    ];
    writeln!(
        out,
        "{}",
        render_table(&["statistic", "measured", "reference"], &rows)
    )?;
    Ok(())
}
