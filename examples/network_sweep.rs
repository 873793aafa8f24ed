//! A miniature Figure 3 through the public API: sweep network
//! conditions and print the PLT reduction grid for a handful of sites.
//!
//! Run with: `cargo run --release --example network_sweep`

use std::time::Duration;

use cachecatalyst::prelude::*;

fn main() {
    let sites = generate_corpus(&CorpusSpec {
        n_sites: 8,
        ..Default::default()
    });
    let delay = Duration::from_secs(6 * 3600);

    println!("PLT reduction of CacheCatalyst vs status quo");
    println!("({} sites, revisit after 6h)\n", sites.len());
    print!("{:>10}", "thr \\ rtt");
    for rtt in NetworkConditions::figure3_latencies() {
        print!("{:>8}", format!("{}ms", rtt.as_millis()));
    }
    println!();

    for bps in NetworkConditions::figure3_throughputs() {
        print!("{:>10}", format!("{}Mbps", bps / 1_000_000));
        for rtt in NetworkConditions::figure3_latencies() {
            let cond = NetworkConditions::new(rtt, bps);
            let mut base_plt = 0.0;
            let mut cat_plt = 0.0;
            for site in &sites {
                let url = site.url(site.base_path());
                let t0: i64 = 35 * 86_400;
                let t1 = t0 + delay.as_secs() as i64;

                let origin = OriginServer::new(site.clone(), HeaderMode::Baseline);
                let mut b = Browser::baseline();
                b.load(&origin, cond, &url, t0);
                base_plt += b.load(&origin, cond, &url, t1).plt_ms();

                let origin = OriginServer::new(site.clone(), HeaderMode::Catalyst);
                let mut c = Browser::catalyst();
                c.load(&origin, cond, &url, t0);
                cat_plt += c.load(&origin, cond, &url, t1).plt_ms();
            }
            print!(
                "{:>8}",
                format!("{:.0}%", (base_plt - cat_plt) / base_plt * 100.0)
            );
        }
        println!();
    }

    println!("\nThe paper's observation: little gain where bandwidth is the bottleneck");
    println!("(8 Mbps, low RTT); large gains where latency dominates (60 Mbps, high RTT).");
}
