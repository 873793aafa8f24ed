//! Model *your own* site from a plain-text inventory and measure what
//! CacheCatalyst would do for it — then export the warm-visit
//! waterfall as a HAR file for standard tooling.
//!
//! Run with: `cargo run --example own_site`

use cachecatalyst::browser::to_har;
use cachecatalyst::prelude::*;
use cachecatalyst::webmodel::site_from_inventory;

const INVENTORY: &str = r#"
@host www.shop.example
# path            kind  bytes   change      current headers
/index.html       html  42000   period=2h   policy=no-cache
/css/site.css     css   18000   period=30d  policy=max-age:86400  parent=/index.html
/css/theme.css    css    9000   period=90d  policy=no-cache       parent=/index.html
/js/app.js        js    95000   period=7d   policy=no-cache       parent=/index.html
/js/vendor.js     js   210000   immutable   policy=max-age:604800 parent=/index.html
/api/prices.json  json    3000  period=15m  policy=no-store       js-parent=/js/app.js
/img/hero.jpg     image 240000  immutable   policy=max-age:604800 parent=/index.html
/img/promo-1.jpg  image  80000  period=1d   policy=max-age:3600   parent=/index.html
/img/promo-2.jpg  image  75000  period=1d   policy=max-age:3600   parent=/index.html
/fonts/brand.woff2 font  52000  immutable   policy=max-age:604800 parent=/css/site.css
"#;

fn main() {
    let site = site_from_inventory(INVENTORY).expect("inventory parses");
    let base = site.url(site.base_path());
    let cond = NetworkConditions::five_g_median();
    let t0: i64 = 0;
    let revisit = 3600; // the shopper returns an hour later

    println!(
        "site {} — {} resources, {:.0} KB total, {}\n",
        site.spec.host,
        site.len(),
        site.total_bytes() as f64 / 1000.0,
        cond.label()
    );

    let mut har_output = None;
    for (label, mode) in [
        ("current headers", HeaderMode::Baseline),
        ("cachecatalyst", HeaderMode::Catalyst),
    ] {
        let origin = OriginServer::new(site.clone(), mode);
        let mut browser = match mode {
            HeaderMode::Baseline => Browser::baseline(),
            _ => Browser::catalyst(),
        };
        let cold = browser.load(&origin, cond, &base, t0);
        let warm = browser.load(&origin, cond, &base, t0 + revisit);
        println!(
            "{label:>16}: cold {:6.1} ms | warm {:6.1} ms | warm requests {:2} | warm {:3} KB",
            cold.plt_ms(),
            warm.plt_ms(),
            warm.network_requests(),
            warm.bytes_down / 1000
        );
        if mode == HeaderMode::Catalyst {
            har_output = Some(to_har(&warm, "2026-07-06T00:00:00.000Z"));
        }
    }

    let har = har_output.unwrap();
    let path = std::env::temp_dir().join("cachecatalyst-warm-visit.har");
    std::fs::write(&path, &har).expect("write HAR");
    println!(
        "\nwarm-visit waterfall exported as HAR ({} bytes): {}",
        har.len(),
        path.display()
    );
    println!("open it with Chrome DevTools → Network → Import HAR.");
}
