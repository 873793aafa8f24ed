//! Figure 2: the service worker's two paths, annotated with measured
//! traffic.
//!
//! The paper's Figure 2 is a diagram: requests either flow through the
//! SW to the network (path ①→②) or are answered from the SW cache.
//! This binary renders the diagram with real counters from driving a
//! corpus site through cold + warm visits.

use std::cell::Cell;
use std::io::Write;

use crate::cli::{self, Args};
use crate::runner::{base_url_of, first_visit_time};
use cachecatalyst_browser::{Browser, Upstream};
use cachecatalyst_httpwire::{Request, Response};
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::{Site, SiteSpec};

/// The origin, counting the responses the service worker keeps: a 2xx
/// without `no-store`, as `ServiceWorker::on_response` decides.
struct Kept(OriginServer, Cell<usize>);

impl Upstream for Kept {
    fn handle(&self, _host: &str, req: &Request, t_secs: i64) -> Response {
        let resp = self.0.handle(req, t_secs);
        if resp.status.is_success() && !resp.cache_control().no_store {
            self.1.set(self.1.get() + 1);
        }
        resp
    }
}

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
    let up = Kept(
        OriginServer::new(site.clone(), HeaderMode::Catalyst),
        Cell::new(0),
    );
    let base = base_url_of(&site);
    let t0 = first_visit_time(&site);

    let mut browser = Browser::catalyst();
    let mut installs = 0;
    let [cold, warm] = [t0, t0 + 3600].map(|t| {
        let report = browser.load(&up, cond, &base, t);
        // Each visit's one navigation installs the map it carries.
        installs += usize::from(!browser.sw.config().is_empty());
        report
    });
    // Every fetch but the navigation passes the SW's intercept.
    let forwarded = cold.network_requests() + warm.network_requests() - 2;

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
        "                 │  ② forwarded upstream ───────┼──▶  {forwarded:>4} requests",
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
        cold.sw_hits + warm.sw_hits
    )?;
    writeln!(
        out,
        "                 │     zero round trips         │      0 network bytes"
    )?;
    writeln!(out, "                 └──────────────────────────────┘")?;
    writeln!(out)?;
    writeln!(
        out,
        "stored responses: {:>4}   map installs: {installs:>2}   map entries: {:>3}",
        up.1.get(),
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
