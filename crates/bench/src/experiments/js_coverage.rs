//! E7 — ablation: the static-extraction coverage gap (§3, §6).
//!
//! Static extraction cannot map resources that only appear when
//! JavaScript runs. This experiment sweeps the fraction of
//! JS-discovered resources and measures how much of catalyst's
//! improvement survives, and how much capture (the aggregate learned
//! map) recovers.

use std::io::Write;
use std::time::Duration;

use crate::cli::{self, Args};
use crate::runner::{visit_pair, ClientKind};
use crate::table::render_table;
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_webmodel::{Site, SiteSpec};

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    args.finish()?;
    let cond = NetworkConditions::five_g_median();
    let delay = Duration::from_secs(3600);
    let n_seeds = 8;

    writeln!(
        out,
        "== E7: improvement vs JS-discovered fraction ({} | revisit 1h) ==\n",
        cond.label()
    )?;

    let mut rows = Vec::new();
    for js_pct in [0.0, 0.1, 0.2, 0.3, 0.4, 0.6] {
        let mut plt = [0.0f64; 3]; // baseline, catalyst, aggregate
        for seed in 0..n_seeds {
            let site = Site::generate(SiteSpec {
                host: format!("js{}-{}.example", (js_pct * 100.0) as u32, seed),
                seed: 9000 + seed,
                n_resources: 60,
                js_discovered_fraction: js_pct,
                ..Default::default()
            });
            for (i, kind) in [
                ClientKind::Baseline,
                ClientKind::Catalyst,
                ClientKind::CatalystAggregate,
            ]
            .into_iter()
            .enumerate()
            {
                plt[i] += visit_pair(&site, kind, cond, delay).warm.plt_ms();
            }
        }
        let improvement = |treated: f64| (plt[0] - treated) / plt[0] * 100.0;
        rows.push(vec![
            format!("{:.0}%", js_pct * 100.0),
            format!("{:.0}", plt[0] / n_seeds as f64),
            format!("{:.1}%", improvement(plt[1])),
            format!("{:.1}%", improvement(plt[2])),
        ]);
    }

    writeln!(
        out,
        "{}",
        render_table(
            &[
                "JS-discovered",
                "baseline PLT ms",
                "catalyst gain",
                "aggregate gain",
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "Static extraction loses ground as more of the page hides behind JS;\n\
         capture (the paper's future-work mode), aggregated across visitors,\n\
         recovers it without per-session state."
    )?;
    Ok(())
}
