//! Revisit timelines for a realistic generated site: how PLT and the
//! fetch mix evolve with the time since the previous visit, under the
//! status quo and under CacheCatalyst.
//!
//! Run with: `cargo run --release --example revisit_timeline`

use std::time::Duration;

use cachecatalyst::prelude::*;

fn main() {
    let site = Site::generate(SiteSpec {
        host: "news.example".into(),
        seed: 42,
        n_resources: 60,
        js_discovered_fraction: 0.1,
        ..Default::default()
    });
    let base = site.url(site.base_path());
    let cond = NetworkConditions::five_g_median();
    let t0: i64 = 40 * 86_400;

    let delays = [
        ("1 minute", Duration::from_secs(60)),
        ("1 hour", Duration::from_secs(3600)),
        ("6 hours", Duration::from_secs(6 * 3600)),
        ("1 day", Duration::from_secs(86_400)),
        ("1 week", Duration::from_secs(7 * 86_400)),
    ];

    println!(
        "Site {} ({} resources, {:.1} MB) at {}\n",
        site.spec.host,
        site.len(),
        site.total_bytes() as f64 / 1e6,
        cond.label()
    );
    println!(
        "{:<10} | {:>9} {:>5} {:>5} {:>5} | {:>9} {:>5} {:>5} {:>5} | {:>7}",
        "revisit", "base ms", "GET", "304", "hit", "cat ms", "GET", "304", "sw", "gain"
    );
    println!("{}", "-".repeat(92));

    for (label, delay) in delays {
        let t1 = t0 + delay.as_secs() as i64;

        let origin = OriginServer::new(site.clone(), HeaderMode::Baseline);
        let mut b = Browser::baseline();
        b.load(&origin, cond, &base, t0);
        let baseline = b.load(&origin, cond, &base, t1);

        let origin = OriginServer::new(site.clone(), HeaderMode::Catalyst);
        let mut c = Browser::catalyst();
        c.load(&origin, cond, &base, t0);
        let catalyst = c.load(&origin, cond, &base, t1);

        println!(
            "{:<10} | {:>9.1} {:>5} {:>5} {:>5} | {:>9.1} {:>5} {:>5} {:>5} | {:>6.1}%",
            label,
            baseline.plt_ms(),
            baseline.full_transfers,
            baseline.not_modified,
            baseline.cache_hits,
            catalyst.plt_ms(),
            catalyst.full_transfers,
            catalyst.not_modified,
            catalyst.sw_hits,
            (baseline.plt_ms() - catalyst.plt_ms()) / baseline.plt_ms() * 100.0
        );
    }

    println!("\nReading the table: as the revisit delay grows, more TTLs expire in the");
    println!("baseline (GET/304 columns grow, hit column shrinks) while CacheCatalyst");
    println!("keeps serving unchanged resources from the service worker (sw column).");
}
