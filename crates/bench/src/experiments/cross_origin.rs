//! E9 — ablation: cross-origin resources (paper §6, issue 2).
//!
//! Real pages pull a large share of their resources from third-party
//! origins, which the origin "does not have direct access to and, as a
//! result, cannot give their ETags to the client". This experiment
//! sweeps the third-party fraction and compares:
//!  * the paper's implementation (third-party references skipped);
//!  * the proposed extension (the origin fetches third-party ETags
//!    itself and keys them by full URL in the map).

use std::io::Write;
use std::time::Duration;

use crate::cli::{self, Args};
use crate::runner::{reload_each, ClientKind, ContentModel};
use crate::table::render_table;
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::{Site, SiteSpec};

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    args.finish()?;
    let cond = NetworkConditions::five_g_median();
    let delay = Duration::from_secs(3600);
    let n_seeds = 6u64;

    writeln!(
        out,
        "== E9: cross-origin coverage ({} | revisit 1h, frozen content) ==\n",
        cond.label()
    )?;

    let mut rows = Vec::new();
    for tp_frac in [0.0, 0.15, 0.3, 0.5] {
        // plts: baseline, catalyst (skip third-party), catalyst+crossorigin
        let mut plts = [0.0f64; 3];
        for seed in 0..n_seeds {
            let site = Site::generate(SiteSpec {
                host: format!("tp{}-{}.example", (tp_frac * 100.0) as u32, seed),
                seed: 4200 + seed,
                n_resources: 60,
                js_discovered_fraction: 0.05,
                third_party_fraction: tp_frac,
                ..Default::default()
            });
            for (i, cross) in [(0usize, false), (1, false), (2, true)] {
                let (kind, mode) = if i == 0 {
                    (ClientKind::Baseline, HeaderMode::Baseline)
                } else {
                    (ClientKind::Catalyst, HeaderMode::Catalyst)
                };
                let mut origin = OriginServer::new(site.clone(), mode);
                if cross {
                    origin = origin.with_cross_origin();
                }
                let upstream = ContentModel::Frozen.upstream(origin);
                let visits = reload_each(&*upstream, &site, kind.browser(), cond, &[delay]);
                plts[i] += visits.warm[0].plt_ms();
            }
        }
        let gain = |i: usize| (plts[0] - plts[i]) / plts[0] * 100.0;
        rows.push(vec![
            format!("{:.0}%", tp_frac * 100.0),
            format!("{:.0}", plts[0] / n_seeds as f64),
            format!("{:.1}%", gain(1)),
            format!("{:.1}%", gain(2)),
        ]);
    }

    writeln!(
        out,
        "{}",
        render_table(
            &[
                "third-party share",
                "baseline PLT ms",
                "catalyst (paper)",
                "catalyst + cross-origin ext",
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "As more of the page lives on third-party origins, the paper's\n\
         same-origin map covers less; the extension recovers the gap at the\n\
         cost of the origin tracking third-party validators."
    )?;
    Ok(())
}
