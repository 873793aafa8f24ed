//! E4 — redundant transfers (§1, §2.2): bytes that cross the network
//! on a revisit even though the content is unchanged on the client.
//!
//! Policies compared per warm visit, against an oracle that transfers
//! only genuinely changed bytes:
//!  * status quo (developer headers + browser cache);
//!  * no-store everything (the pathological lower bound);
//!  * CacheCatalyst;
//!  * CacheCatalyst + capture (the aggregate learned map).

use std::io::Write;
use std::time::Duration;

use super::corpus_arg;
use crate::cli::{self, Args};
use crate::runner::{first_visit_time, reload_each, ClientKind, ContentModel, REVISIT_DELAYS};
use crate::table::render_table;
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::Site;

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let sites = corpus_arg(args, 50)?;
    let n_sites = sites.len();
    let cond = NetworkConditions::five_g_median();

    let policies: Vec<(&str, ClientKind, HeaderMode)> = vec![
        ("status quo", ClientKind::Baseline, HeaderMode::Baseline),
        ("no-store all", ClientKind::Uncached, HeaderMode::NoStore),
        ("catalyst", ClientKind::Catalyst, HeaderMode::Catalyst),
        (
            "catalyst+capture",
            ClientKind::CatalystAggregate,
            HeaderMode::CatalystAggregate,
        ),
    ];

    writeln!(
        out,
        "== E4: redundant transfer bytes per warm visit ({n_sites} sites × {} delays, {}) ==\n",
        REVISIT_DELAYS.len(),
        cond.label()
    )?;

    let mut rows = Vec::new();
    let oracle = oracle_bytes(&sites, &REVISIT_DELAYS);
    for (name, kind, mode) in policies {
        let mut down = 0u64;
        let mut requests = 0usize;
        let mut samples = 0usize;
        for site in &sites {
            let upstream = ContentModel::Churning.upstream(OriginServer::new(site.clone(), mode));
            let browser = kind.browser();
            for warm in reload_each(&*upstream, site, browser, cond, &REVISIT_DELAYS).warm {
                down += warm.bytes_down;
                requests += warm.network_requests();
                samples += 1;
            }
        }
        let mean_down = down as f64 / samples as f64;
        let mean_kb = mean_down / 1000.0;
        let redundant = (mean_down - oracle) / mean_down * 100.0;
        rows.push(vec![
            name.to_owned(),
            format!("{mean_kb:.0} KB"),
            format!("{:.1}", requests as f64 / samples as f64),
            format!("{:.0}%", redundant.max(0.0)),
        ]);
    }
    rows.push(vec![
        "oracle (changed bytes only)".to_owned(),
        format!("{:.0} KB", oracle / 1000.0),
        "-".to_owned(),
        "0%".to_owned(),
    ]);

    writeln!(
        out,
        "{}",
        render_table(
            &[
                "policy",
                "mean bytes down / visit",
                "mean requests",
                "redundant share",
            ],
            &rows
        )
    )?;
    Ok(())
}

/// Mean bytes per warm visit an oracle would transfer: exactly the
/// resources whose content changed between the visits (plus the base
/// document, which is always fetched when changed).
fn oracle_bytes(sites: &[Site], delays: &[Duration]) -> f64 {
    let mut total = 0u64;
    let mut samples = 0usize;
    for site in sites {
        let t0 = first_visit_time(site);
        for delay in delays {
            let t1 = t0 + delay.as_secs() as i64;
            for r in site.resources() {
                if site.version_at(&r.spec.path, t0) != site.version_at(&r.spec.path, t1) {
                    total += r.spec.size;
                }
            }
            samples += 1;
        }
    }
    total as f64 / samples as f64
}
