//! Quickstart: load the paper's example page with and without
//! CacheCatalyst and watch the revalidation round trips disappear.
//!
//! Run with: `cargo run --example quickstart`

use cachecatalyst::prelude::*;

fn main() {
    // The Figure-1 example page: index.html → a.css (max-age 1w),
    // b.js (no-cache) → c.js → d.jpg (max-age 1h).
    let cond = NetworkConditions::five_g_median(); // 60 Mbps / 40 ms RTT
    let base = Url::parse("http://example.org/index.html").unwrap();
    let revisit_at = 2 * 3600; // two hours later, like the figure

    println!("Loading {base} at {} (revisit after 2h)\n", cond.label());

    // --- Status quo: developer cache headers + browser HTTP cache ---
    let origin = OriginServer::new(example_site(), HeaderMode::Baseline);
    let mut browser = Browser::baseline();
    let cold = browser.load(&origin, cond, &base, 0);
    let warm = browser.load(&origin, cond, &base, revisit_at);
    println!(
        "status quo : cold {:7.1} ms | warm {:7.1} ms | {} requests, {} revalidations",
        cold.plt_ms(),
        warm.plt_ms(),
        warm.network_requests(),
        warm.not_modified
    );

    // --- CacheCatalyst: X-Etag-Config + service worker ---
    let origin = OriginServer::new(example_site(), HeaderMode::Catalyst);
    let mut browser = Browser::catalyst();
    let cold = browser.load(&origin, cond, &base, 0);
    let warm = browser.load(&origin, cond, &base, revisit_at);
    println!(
        "catalyst   : cold {:7.1} ms | warm {:7.1} ms | {} requests, {} served by SW",
        cold.plt_ms(),
        warm.plt_ms(),
        warm.network_requests(),
        warm.sw_hits
    );

    println!("\nWarm-visit waterfall with CacheCatalyst:");
    println!("{}", warm.trace.render_waterfall(44));

    // Peek at the mechanism itself: the header the server attaches.
    let origin = OriginServer::new(example_site(), HeaderMode::Catalyst);
    let resp = origin.handle(&Request::get("/index.html"), revisit_at);
    let config = EtagConfig::accept(&resp.headers).expect("the map passes its digest");
    println!(
        "X-Etag-Config carried by the base HTML ({} entries):",
        config.len()
    );
    for (path, tag) in config.iter() {
        println!("  {path} = {tag}");
    }
}
