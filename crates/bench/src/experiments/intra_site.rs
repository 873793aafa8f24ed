//! E12 — intra-site navigation (the paper's intro: cached resources
//! are reusable "in future requests to the same page or other pages
//! within the same website").
//!
//! A user lands on the home page, then clicks through to more pages of
//! the same site seconds later. Shared "chrome" (CSS/JS/fonts) is
//! already cached — but under the status quo, `no-cache` chrome still
//! costs a revalidation RTT per resource on every page, while
//! CacheCatalyst serves it from the service worker with zero RTTs
//! using the map on each page's HTML.

use std::io::Write;

use crate::cli::{self, Args};
use crate::runner::{first_visit_time, ClientKind};
use crate::table::render_table;
use cachecatalyst_browser::Browser;
use cachecatalyst_httpwire::Url;
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::OriginServer;
use cachecatalyst_webmodel::{Site, SiteSpec};

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    args.finish()?;
    let cond = NetworkConditions::five_g_median();
    let n_seeds = 6u64;
    let n_pages = 4usize;

    writeln!(
        out,
        "== E12: browsing {n_pages} pages of the same site ({}, 10 s between clicks) ==\n",
        cond.label()
    )?;

    let mut rows = Vec::new();
    for (label, kind) in [
        ("status quo", ClientKind::Baseline),
        ("catalyst", ClientKind::Catalyst),
    ] {
        // Mean PLT per page position (landing, click 1, click 2, …).
        let mut per_page = vec![0.0f64; n_pages];
        let mut reqs = vec![0.0f64; n_pages];
        for seed in 0..n_seeds {
            let site = Site::generate(SiteSpec {
                host: format!("multi{seed}.example"),
                seed: 7100 + seed,
                n_resources: 60,
                js_discovered_fraction: 0.05,
                n_pages,
                ..Default::default()
            });
            let origin = OriginServer::new(site.clone(), kind.header_mode());
            let t0 = first_visit_time(&site);
            let mut browser: Browser = kind.browser();
            for (i, page) in site.pages().iter().enumerate() {
                let url = Url::parse(&format!("http://{}{page}", site.spec.host)).unwrap();
                let report = browser.load(&origin, cond, &url, t0 + (i as i64) * 10);
                per_page[i] += report.plt_ms();
                reqs[i] += report.network_requests() as f64;
            }
        }
        let mut row = vec![label.to_owned()];
        for i in 0..n_pages {
            row.push(format!(
                "{:.0} ms ({:.0} req)",
                per_page[i] / n_seeds as f64,
                reqs[i] / n_seeds as f64
            ));
        }
        rows.push(row);
    }

    let mut headers = vec!["policy".to_owned(), "landing".to_owned()];
    for i in 1..n_pages {
        headers.push(format!("click {i}"));
    }
    writeln!(out, "{}", render_table(&headers, &rows))?;
    writeln!(
        out,
        "Within-session clicks: the chrome is seconds old, yet the status quo\n\
         keeps revalidating its no-cache share on every page; CacheCatalyst\n\
         serves it locally because each page's HTML carries fresh tokens."
    )?;
    Ok(())
}
