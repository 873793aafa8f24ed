//! Figure 1: request timelines for the example page.
//!
//! (a) first visit, cold cache;
//! (b) revisit two hours later under the current caching approach;
//! (c) the optimized revisit with CacheCatalyst (+ session capture,
//!     which achieves the figure's "only the base HTML is fetched"
//!     timeline).
//!
//! Output: three waterfalls plus the PLT of each scenario.

use std::io::Write;

use crate::cli::{self, Args};
use cachecatalyst_browser::{Browser, CacheMode, EngineConfig};
use cachecatalyst_httpwire::Url;
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::{example_site, revisit_delay};

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    args.finish()?;
    let cond = NetworkConditions::five_g_median();
    let base = Url::parse("http://example.org/index.html").unwrap();
    let t0 = 0i64;
    let t1 = t0 + revisit_delay().as_secs() as i64;

    writeln!(out, "Network: {} | revisit delay: 2h\n", cond.label())?;

    // (a) First visit, cold cache.
    let origin = OriginServer::new(example_site(), HeaderMode::Baseline);
    let mut browser = Browser::baseline();
    let first = browser.load(&origin, cond, &base, t0);
    writeln!(out, "== Figure 1(a): first visit (cold cache) ==")?;
    writeln!(out, "{}", first.trace.render_waterfall(48))?;
    writeln!(
        out,
        "PLT: {:.1} ms | {} requests | {} KB down\n",
        first.plt_ms(),
        first.network_requests(),
        first.bytes_down / 1000
    )?;

    // (b) Revisit +2h under the current caching approach.
    let second = browser.load(&origin, cond, &base, t1);
    writeln!(out, "== Figure 1(b): revisit +2h, current caching ==")?;
    writeln!(out, "{}", second.trace.render_waterfall(48))?;
    writeln!(
        out,
        "PLT: {:.1} ms | {} requests ({} revalidations) | {} KB down\n",
        second.plt_ms(),
        second.network_requests(),
        second.not_modified,
        second.bytes_down / 1000
    )?;

    // (c) The optimized revisit: CacheCatalyst with session capture
    // (covers the JS-discovered c.js/d.jpg like the figure assumes).
    let origin = OriginServer::new(example_site(), HeaderMode::CatalystWithCapture);
    let mut browser = Browser::new(EngineConfig {
        mode: CacheMode::ServiceWorker,
        session: Some("fig1".to_owned()),
        ..Default::default()
    });
    browser.load(&origin, cond, &base, t0);
    let optimized = browser.load(&origin, cond, &base, t1);
    writeln!(out, "== Figure 1(c): optimized revisit (CacheCatalyst) ==")?;
    writeln!(out, "{}", optimized.trace.render_waterfall(48))?;
    writeln!(
        out,
        "PLT: {:.1} ms | {} requests | {} service-worker hits | {} KB down\n",
        optimized.plt_ms(),
        optimized.network_requests(),
        optimized.sw_hits,
        optimized.bytes_down / 1000
    )?;

    writeln!(
        out,
        "Summary: (a) {:.1} ms  →  (b) {:.1} ms  →  (c) {:.1} ms  ({:.0}% reduction vs (b))",
        first.plt_ms(),
        second.plt_ms(),
        optimized.plt_ms(),
        (second.plt_ms() - optimized.plt_ms()) / second.plt_ms() * 100.0
    )?;
    Ok(())
}
