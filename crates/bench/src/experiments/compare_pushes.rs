//! E5 — the comparison the paper defers to future work (§6):
//! CacheCatalyst vs Server Push policies vs an RDR proxy vs a
//! TTL-estimating proxy, under identical conditions.
//!
//! Metrics per policy: warm-visit PLT, cold-visit PLT, network round
//! trips, bytes down, and wasted push bytes.

use std::io::Write;
use std::sync::Arc;

use super::corpus_arg;
use crate::cli::{self, Args};
use crate::runner::{reload_each, ClientKind, REVISIT_DELAYS};
use crate::table::render_table;
use cachecatalyst_browser::Upstream;
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_proxies::{ExtremeCacheProxy, PushOrigin, PushPolicy, RdrProxy};

struct Policy {
    name: &'static str,
    make_upstream: Box<dyn Fn(Arc<OriginServer>) -> Box<dyn Upstream>>,
    origin_mode: HeaderMode,
    client: ClientKind,
}

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let sites = corpus_arg(args, 30)?;
    let n_sites = sites.len();
    let cond = NetworkConditions::five_g_median();

    let policies: Vec<Policy> = vec![
        Policy {
            name: "baseline",
            make_upstream: Box::new(|o| Box::new(o)),
            origin_mode: HeaderMode::Baseline,
            client: ClientKind::Baseline,
        },
        Policy {
            name: "catalyst",
            make_upstream: Box::new(|o| Box::new(o)),
            origin_mode: HeaderMode::Catalyst,
            client: ClientKind::Catalyst,
        },
        Policy {
            name: "catalyst+capture",
            make_upstream: Box::new(|o| Box::new(o)),
            origin_mode: HeaderMode::CatalystWithCapture,
            client: ClientKind::CatalystCapture,
        },
        Policy {
            name: "push-all",
            make_upstream: Box::new(|o| Box::new(PushOrigin::new(o, PushPolicy::All))),
            origin_mode: HeaderMode::Baseline,
            client: ClientKind::Baseline,
        },
        Policy {
            name: "push-if-changed",
            make_upstream: Box::new(|o| Box::new(PushOrigin::new(o, PushPolicy::IfChanged))),
            origin_mode: HeaderMode::Baseline,
            client: ClientKind::Baseline,
        },
        Policy {
            name: "rdr-proxy",
            make_upstream: Box::new(|o| Box::new(RdrProxy::new(o))),
            origin_mode: HeaderMode::Baseline,
            client: ClientKind::Baseline,
        },
        Policy {
            name: "extreme-cache",
            make_upstream: Box::new(|o| Box::new(ExtremeCacheProxy::new(o))),
            origin_mode: HeaderMode::Baseline,
            client: ClientKind::Baseline,
        },
    ];

    writeln!(
        out,
        "== E5: acceleration approaches compared ({n_sites} sites × {} delays, {}) ==\n",
        REVISIT_DELAYS.len(),
        cond.label()
    )?;

    let mut rows = Vec::new();
    for policy in &policies {
        let mut cold_plt = 0.0;
        let mut warm_plt = 0.0;
        let mut warm_reqs = 0usize;
        let mut warm_down = 0u64;
        let mut wasted = 0u64;
        let mut cold_n = 0usize;
        let mut warm_n = 0usize;
        for site in &sites {
            let origin = Arc::new(OriginServer::new(site.clone(), policy.origin_mode));
            let upstream = (policy.make_upstream)(origin);
            let browser = policy.client.browser();
            let visits = reload_each(&*upstream, site, browser, cond, &REVISIT_DELAYS);
            cold_plt += visits.cold.plt_ms();
            cold_n += 1;
            for warm in visits.warm {
                warm_plt += warm.plt_ms();
                warm_reqs += warm.network_requests();
                warm_down += warm.bytes_down;
                wasted += warm.pushed_unused_bytes;
                warm_n += 1;
            }
        }
        rows.push(vec![
            policy.name.to_owned(),
            format!("{:.0}", cold_plt / cold_n as f64),
            format!("{:.0}", warm_plt / warm_n as f64),
            format!("{:.1}", warm_reqs as f64 / warm_n as f64),
            format!("{:.0}", warm_down as f64 / warm_n as f64 / 1000.0),
            format!("{:.0}", wasted as f64 / warm_n as f64 / 1000.0),
        ]);
    }

    writeln!(
        out,
        "{}",
        render_table(
            &[
                "policy",
                "cold PLT ms",
                "warm PLT ms",
                "warm reqs",
                "warm KB down",
                "wasted push KB",
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "Expected shape: RDR/push shine cold; catalyst shines warm with zero waste;\n\
         push-all pays for its round-trip savings in wasted warm-visit bytes."
    )?;
    Ok(())
}
