//! E17 — server-side cost (paper §6: "The effect of this approach on
//! the performance of web servers should also be analyzed").
//!
//! Measures real CPU time per request of the origin handler in each
//! mode: the extra work catalyst adds is DOM traversal + map
//! construction on HTML responses, amortized by the config cache.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use crate::cli::{self, Args};
use crate::table::render_table;
use cachecatalyst_httpwire::Request;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::{Site, SiteSpec};

fn measure(origin: &OriginServer, req: &Request, t: i64, iters: u32) -> f64 {
    // Warm up (fills the config cache where applicable).
    for _ in 0..8 {
        let _ = origin.handle(req, t);
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(origin.handle(req, t));
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    args.finish()?;
    writeln!(
        out,
        "== E17: origin handler cost (µs per request, host CPU) ==\n"
    )?;
    let mut rows = Vec::new();
    for n_resources in [25usize, 70, 200] {
        let site = Site::generate(SiteSpec {
            host: format!("cost{n_resources}.example"),
            seed: 60 + n_resources as u64,
            n_resources,
            js_discovered_fraction: 0.0,
            ..Default::default()
        });
        let nav = Request::get("/index.html");
        let sub = {
            let path = site
                .resources()
                .find(|r| r.spec.path != "/index.html")
                .unwrap()
                .spec
                .path
                .clone();
            Request::get(&path)
        };
        let etag = site.etag_at("/index.html", 0).unwrap().to_string();
        let cond_nav = Request::get("/index.html").with_header("if-none-match", &etag);

        let baseline = Arc::new(OriginServer::new(site.clone(), HeaderMode::Baseline));
        let catalyst = Arc::new(OriginServer::new(site.clone(), HeaderMode::Catalyst));

        // Cold map build cost (uncached, fresh origin per probe).
        let cold_build = {
            let fresh = OriginServer::new(site.clone(), HeaderMode::Catalyst);
            let start = Instant::now();
            std::hint::black_box(fresh.handle(&nav, 0));
            start.elapsed().as_secs_f64() * 1e6
        };

        rows.push(vec![
            format!("{n_resources}"),
            format!("{:.0}", measure(&baseline, &nav, 0, 2_000)),
            format!("{:.0}", measure(&catalyst, &nav, 0, 2_000)),
            format!("{:.0}", cold_build),
            format!("{:.0}", measure(&catalyst, &cond_nav, 0, 5_000)),
            format!("{:.1}", measure(&baseline, &sub, 0, 10_000)),
            format!("{:.1}", measure(&catalyst, &sub, 0, 10_000)),
        ]);
    }

    writeln!(
        out,
        "{}",
        render_table(
            &[
                "resources",
                "nav base µs",
                "nav cat µs",
                "first map build µs",
                "nav 304 cat µs",
                "subres base µs",
                "subres cat µs",
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "The first map build (DOM + CSS walk) is the dominant cost and is\n\
         amortized by the per-(page, time) config cache. Steady-state\n\
         navigations still pay 2–4× the baseline (cloning + serializing the\n\
         map into headers) but stay well under a millisecond; subresource\n\
         serving is unchanged. (Subresource columns include body synthesis,\n\
         which depends on the sampled resource's size.)"
    )?;
    Ok(())
}
