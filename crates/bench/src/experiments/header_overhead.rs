//! E6 — ablation: the cost of carrying the `X-Etag-Config` map.
//!
//! The map inflates every base-HTML response. This experiment measures
//! the serialized map size versus page resource count, the inflation
//! relative to the HTML itself, and the resulting first-visit PLT cost
//! at the evaluation's network conditions.

use std::io::Write;
use std::sync::Arc;

use crate::cli::{self, Args};
use crate::runner::{base_url_of, first_visit_time, ClientKind};
use crate::table::render_table;
use cachecatalyst_browser::SingleOrigin;
use cachecatalyst_catalyst::{build_config_with_bodies, ExtractOptions};
use cachecatalyst_httpwire::Body;
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::{Site, SiteSpec};

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    args.finish()?;
    writeln!(
        out,
        "== E6: X-Etag-Config header overhead vs page size ==\n"
    )?;
    let cond = NetworkConditions::five_g_median();

    let mut rows = Vec::new();
    for n_resources in [10usize, 25, 50, 100, 200, 400] {
        let site = Site::generate(SiteSpec {
            host: format!("overhead{n_resources}.example"),
            seed: 777 + n_resources as u64,
            n_resources,
            js_discovered_fraction: 0.0, // everything statically mapped
            ..Default::default()
        });
        let t0 = first_visit_time(&site);
        let config = build_config_with_bodies(
            &site,
            site.base_path(),
            t0,
            &ExtractOptions::default(),
            &|path| site.body_at(path, t0).map(Body::from),
        );
        let html_len = site.body_at(site.base_path(), t0).unwrap().len();
        let map_len = config.to_string().len();

        // First-visit PLT with and without the map.
        let base = base_url_of(&site);
        let mut plts = [0.0f64; 2];
        for (i, mode) in [HeaderMode::Baseline, HeaderMode::Catalyst]
            .into_iter()
            .enumerate()
        {
            let origin = Arc::new(OriginServer::new(site.clone(), mode));
            let upstream = SingleOrigin(origin);
            let kind = if i == 0 {
                ClientKind::Baseline
            } else {
                ClientKind::Catalyst
            };
            let mut browser = kind.browser();
            plts[i] = browser.load(&upstream, cond, &base, t0).plt_ms();
        }

        rows.push(vec![
            format!("{n_resources}"),
            format!("{}", config.len()),
            format!("{:.1} KB", map_len as f64 / 1000.0),
            format!("{:.0} B", map_len as f64 / config.len().max(1) as f64),
            format!("{:.1}%", map_len as f64 / html_len as f64 * 100.0),
            format!("{:.0}", plts[0]),
            format!("{:.0}", plts[1]),
            format!("{:+.1}%", (plts[1] - plts[0]) / plts[0] * 100.0),
        ]);
    }

    writeln!(
        out,
        "{}",
        render_table(
            &[
                "resources",
                "mapped",
                "map size",
                "per entry",
                "vs HTML",
                "cold PLT base",
                "cold PLT cat",
                "cold cost",
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "The map costs tens of bytes per resource — a negligible share of the\n\
         base document — so cold-visit PLT is essentially unchanged."
    )?;
    Ok(())
}
