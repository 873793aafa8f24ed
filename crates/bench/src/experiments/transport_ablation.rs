//! E13 — transport ablation: HTTP/1.1 pools vs HTTP/2 multiplexing.
//!
//! Under HTTP/1.1, revalidations queue on 6 connections, so each RTT
//! is paid many times per page. HTTP/2 multiplexes them onto one
//! connection — all the revalidations of one discovery wave cost a
//! single RTT. Does eliminating revalidations still matter then?
//! (The paper's prototype runs over whatever Caddy negotiates; this
//! isolates the transport variable our engine controls.)

use std::io::Write;
use std::time::Duration;

use super::corpus_arg;
use crate::cli::{self, Args};
use crate::runner::{reload_each, ClientKind, ContentModel, REVISIT_DELAYS};
use crate::table::render_table;
use cachecatalyst_browser::{Browser, EngineConfig};
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::OriginServer;

fn browser_for(kind: ClientKind, http2: bool) -> Browser {
    let mut b = kind.browser();
    b.config = EngineConfig { http2, ..b.config };
    b
}

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let sites = corpus_arg(args, 25)?;
    let n_sites = sites.len();

    writeln!(
        out,
        "== E13: CacheCatalyst gain by transport ({n_sites} sites × {} delays, frozen) ==\n",
        REVISIT_DELAYS.len()
    )?;

    let mut rows = Vec::new();
    for (label, cond) in [
        ("60Mbps/40ms", NetworkConditions::five_g_median()),
        (
            "60Mbps/120ms",
            NetworkConditions::new(Duration::from_millis(120), 60_000_000),
        ),
    ] {
        for http2 in [false, true] {
            // [baseline, catalyst] mean warm PLT
            let mut plt = [0.0f64; 2];
            for site in &sites {
                for (i, kind) in [ClientKind::Baseline, ClientKind::Catalyst]
                    .into_iter()
                    .enumerate()
                {
                    let upstream = ContentModel::Frozen
                        .upstream(OriginServer::new(site.clone(), kind.header_mode()));
                    let browser = browser_for(kind, http2);
                    for warm in reload_each(&*upstream, site, browser, cond, &REVISIT_DELAYS).warm {
                        plt[i] += warm.plt_ms();
                    }
                }
            }
            let n = (sites.len() * REVISIT_DELAYS.len()) as f64;
            rows.push(vec![
                label.to_owned(),
                if http2 { "HTTP/2" } else { "HTTP/1.1" }.to_owned(),
                format!("{:.0}", plt[0] / n),
                format!("{:.0}", plt[1] / n),
                format!("{:.1}%", (plt[0] - plt[1]) / plt[0] * 100.0),
            ]);
        }
    }

    writeln!(
        out,
        "{}",
        render_table(
            &[
                "condition",
                "transport",
                "baseline ms",
                "catalyst ms",
                "gain",
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "Under idealized multiplexing, a whole revalidation wave costs one\n\
         RTT, so most of CacheCatalyst's headline advantage — which comes\n\
         from HTTP/1.1 connection-pool serialization of those waves —\n\
         evaporates; what remains is the per-wave RTT on discovery chains.\n\
         (Our H2 model is an upper bound: no head-of-line blocking, free\n\
         streams. Real deployments sit between the two rows.)"
    )?;
    Ok(())
}
