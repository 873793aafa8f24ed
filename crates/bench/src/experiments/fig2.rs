//! Figure 2: the service worker's two paths, annotated with measured
//! traffic.
//!
//! The paper's Figure 2 is a diagram: requests either flow through the
//! SW to the network (path ①→②) or are answered from the SW cache.
//! This binary renders the diagram with real counters from driving a
//! corpus site through cold + warm visits.

use std::io::Write;
use std::sync::Arc;

use crate::cli::{self, Args};
use crate::runner::{base_url_of, first_visit_time};
use cachecatalyst_browser::{Browser, SingleOrigin};
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::{Site, SiteSpec};

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    args.finish()?;
    let site = Site::generate(SiteSpec {
        host: "fig2.example".into(),
        seed: 2,
        n_resources: 60,
        js_discovered_fraction: 0.1,
        ..Default::default()
    });
    let cond = NetworkConditions::five_g_median();
    let origin = Arc::new(OriginServer::new(site.clone(), HeaderMode::Catalyst));
    let up = SingleOrigin(Arc::clone(&origin));
    let base = base_url_of(&site);
    let t0 = first_visit_time(&site);

    let mut browser = Browser::catalyst();
    let cold = browser.load(&up, cond, &base, t0);
    let warm = browser.load(&up, cond, &base, t0 + 3600);
    let sw = &browser.sw.metrics;

    writeln!(
        out,
        "== Figure 2: the Service Worker's interception paths ==\n"
    )?;
    writeln!(
        out,
        "site {} ({} resources), cold visit + 1h revisit at {}\n",
        site.spec.host,
        site.len(),
        cond.label()
    )?;
    writeln!(out, "                 ┌──────────────────────────────┐")?;
    writeln!(
        out,
        "   page fetches  │        Service Worker        │      origin"
    )?;
    writeln!(out, "  ──────────────▶│  intercepts every request    │")?;
    writeln!(out, "                 │                              │")?;
    writeln!(
        out,
        "                 │  ② forwarded upstream ───────┼──▶  {:>4} requests",
        sw.forwarded
    )?;
    writeln!(
        out,
        "                 │     (cold fills + changed    │◀──  {:>4} × 304",
        cold.not_modified + warm.not_modified
    )?;
    writeln!(
        out,
        "                 │      + JS-discovered)        │◀──  {:>4} × 200",
        cold.full_transfers + warm.full_transfers
    )?;
    writeln!(out, "                 │                              │")?;
    writeln!(
        out,
        "                 │  ① served from SW cache ◀──  │     {:>4} responses,",
        sw.served_locally
    )?;
    writeln!(
        out,
        "                 │     zero round trips         │      0 network bytes"
    )?;
    writeln!(out, "                 └──────────────────────────────┘")?;
    writeln!(out)?;
    writeln!(
        out,
        "stored responses: {:>4}   map installs: {:>2}   map entries: {:>3}",
        sw.stored,
        sw.config_installs,
        browser.sw.config().len()
    )?;
    writeln!(
        out,
        "cold PLT {:.0} ms → warm PLT {:.0} ms ({:.0}% reduction)",
        cold.plt_ms(),
        warm.plt_ms(),
        (cold.plt_ms() - warm.plt_ms()) / cold.plt_ms() * 100.0
    )?;
    Ok(())
}
