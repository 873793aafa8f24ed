//! E14 — loss sensitivity: cellular links drop packets, and each loss
//! costs a retransmission timeout on some request. CacheCatalyst
//! removes network exchanges outright, removing loss exposure with
//! them — the question is whether its *relative* advantage survives
//! on lossy links.

use std::io::Write;

use super::corpus_arg;
use crate::cli::{self, Args};
use crate::runner::{reload_each, ClientKind, ContentModel, REVISIT_DELAYS};
use crate::table::render_table;
use cachecatalyst_browser::EngineConfig;
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::OriginServer;

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let sites = corpus_arg(args, 20)?;
    let n_sites = sites.len();
    let cond = NetworkConditions::five_g_median();

    writeln!(
        out,
        "== E14: sensitivity to packet loss ({n_sites} sites × {} delays, {}, frozen) ==\n",
        REVISIT_DELAYS.len(),
        cond.label()
    )?;

    let mut rows = Vec::new();
    for loss in [0.0, 0.01, 0.03, 0.05, 0.10] {
        let mut plt = [0.0f64; 2];
        for site in &sites {
            for (i, kind) in [ClientKind::Baseline, ClientKind::Catalyst]
                .into_iter()
                .enumerate()
            {
                let upstream = ContentModel::Frozen
                    .upstream(OriginServer::new(site.clone(), kind.header_mode()));
                let mut browser = kind.browser();
                browser.config = EngineConfig {
                    loss_rate: loss,
                    loss_seed: site.spec.seed,
                    ..browser.config
                };
                for warm in reload_each(&*upstream, site, browser, cond, &REVISIT_DELAYS).warm {
                    plt[i] += warm.plt_ms();
                }
            }
        }
        let n = (sites.len() * REVISIT_DELAYS.len()) as f64;
        rows.push(vec![
            format!("{:.0}%", loss * 100.0),
            format!("{:.0}", plt[0] / n),
            format!("{:.0}", plt[1] / n),
            format!("{:.1}%", (plt[0] - plt[1]) / plt[0] * 100.0),
        ]);
    }

    writeln!(
        out,
        "{}",
        render_table(&["loss rate", "baseline ms", "catalyst ms", "gain"], &rows)
    )?;
    writeln!(
        out,
        "Loss adds a similar absolute tail to both policies (the baseline's\n\
         many parallel exchanges hide some of its extra losses), so the\n\
         relative gain is approximately preserved on lossy cellular links —\n\
         slightly diluted, never erased."
    )?;
    Ok(())
}
