//! E10 — beyond PLT: First Contentful Paint (paper §6 defers FCP/SI/
//! TTI to future work; this implements the FCP part).
//!
//! FCP is gated by the base document plus its render-blocking
//! resources (stylesheets, synchronous scripts). Because those are
//! exactly the statically-extractable resources, CacheCatalyst's map
//! covers them *completely* — so FCP improvements are at least as
//! large as PLT improvements, often larger.

use std::io::Write;
use std::time::Duration;

use super::corpus_arg;
use crate::cli::{self, Args};
use crate::runner::{reload_each, ClientKind, ContentModel, REVISIT_DELAYS};
use crate::table::render_table;
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::OriginServer;

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let sites = corpus_arg(args, 30)?;
    let n_sites = sites.len();

    writeln!(
        out,
        "== E10: PLT vs FCP improvement ({n_sites} sites × {} delays, frozen content) ==\n",
        REVISIT_DELAYS.len()
    )?;

    let mut rows = Vec::new();
    for (label, cond) in [
        (
            "8Mbps/40ms",
            NetworkConditions::new(Duration::from_millis(40), 8_000_000),
        ),
        ("60Mbps/40ms", NetworkConditions::five_g_median()),
        (
            "60Mbps/120ms",
            NetworkConditions::new(Duration::from_millis(120), 60_000_000),
        ),
    ] {
        // [baseline, catalyst] × [plt, fcp]
        let mut plt = [0.0f64; 2];
        let mut fcp = [0.0f64; 2];
        for site in &sites {
            for (i, kind) in [ClientKind::Baseline, ClientKind::Catalyst]
                .into_iter()
                .enumerate()
            {
                let upstream = ContentModel::Frozen
                    .upstream(OriginServer::new(site.clone(), kind.header_mode()));
                let browser = kind.browser();
                for warm in reload_each(&*upstream, site, browser, cond, &REVISIT_DELAYS).warm {
                    plt[i] += warm.plt_ms();
                    fcp[i] += warm.fcp_ms();
                }
            }
        }
        let gain = |pair: &[f64; 2]| (pair[0] - pair[1]) / pair[0] * 100.0;
        let n = (sites.len() * REVISIT_DELAYS.len()) as f64;
        rows.push(vec![
            label.to_owned(),
            format!("{:.0}", plt[0] / n),
            format!("{:.1}%", gain(&plt)),
            format!("{:.0}", fcp[0] / n),
            format!("{:.1}%", gain(&fcp)),
        ]);
    }

    writeln!(
        out,
        "{}",
        render_table(
            &[
                "condition",
                "base PLT ms",
                "PLT gain",
                "base FCP ms",
                "FCP gain",
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "Render-blocking resources are exactly the statically-extractable ones,\n\
         so the map covers the FCP-critical path completely."
    )?;
    Ok(())
}
