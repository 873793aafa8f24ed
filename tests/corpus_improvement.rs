//! Integration: the headline result holds on a corpus slice — the
//! *shape* of Figure 3, not its absolute numbers.

use std::sync::Arc;
use std::time::Duration;

use cachecatalyst::prelude::*;

fn corpus(n: usize) -> Vec<Site> {
    generate_corpus(&CorpusSpec {
        n_sites: n,
        resources_median: 40.0,
        ..Default::default()
    })
}

fn mean_improvement(sites: &[Site], cond: NetworkConditions, delay: Duration) -> f64 {
    let mut base_plt = 0.0;
    let mut cat_plt = 0.0;
    for site in sites {
        let url = site.url(site.base_path());
        let t0: i64 = 35 * 86_400;
        let t1 = t0 + delay.as_secs() as i64;

        let origin = Arc::new(OriginServer::new(site.clone(), HeaderMode::Baseline));
        let mut b = Browser::baseline();
        b.load(&origin, cond, &url, t0);
        base_plt += b.load(&origin, cond, &url, t1).plt_ms();

        let origin = Arc::new(OriginServer::new(site.clone(), HeaderMode::Catalyst));
        let mut c = Browser::catalyst();
        c.load(&origin, cond, &url, t0);
        cat_plt += c.load(&origin, cond, &url, t1).plt_ms();
    }
    (base_plt - cat_plt) / base_plt * 100.0
}

#[test]
fn headline_improvement_at_5g_median() {
    let sites = corpus(8);
    let improvement = mean_improvement(
        &sites,
        NetworkConditions::five_g_median(),
        Duration::from_secs(3600),
    );
    // Paper: ~30% average. Shape check: solidly double digit.
    assert!(
        (15.0..=55.0).contains(&improvement),
        "improvement {improvement}%"
    );
}

#[test]
fn improvement_grows_with_latency_at_fixed_throughput() {
    let sites = corpus(8);
    let delay = Duration::from_secs(6 * 3600);
    let low = mean_improvement(
        &sites,
        NetworkConditions::new(Duration::from_millis(10), 60_000_000),
        delay,
    );
    let high = mean_improvement(
        &sites,
        NetworkConditions::new(Duration::from_millis(120), 60_000_000),
        delay,
    );
    assert!(high > low, "low-rtt {low}% vs high-rtt {high}%");
}

#[test]
fn improvement_grows_with_throughput_at_fixed_latency() {
    // The paper's key observation: at 8 Mbps the bottleneck is
    // transmission, so removing RTTs barely helps; at 60 Mbps latency
    // dominates and the mechanism shines.
    let sites = corpus(8);
    let delay = Duration::from_secs(6 * 3600);
    let rtt = Duration::from_millis(40);
    let slow = mean_improvement(&sites, NetworkConditions::new(rtt, 8_000_000), delay);
    let fast = mean_improvement(&sites, NetworkConditions::new(rtt, 60_000_000), delay);
    assert!(fast > slow + 5.0, "8 Mbps {slow}% vs 60 Mbps {fast}%");
}

#[test]
fn little_gain_where_bandwidth_is_the_bottleneck() {
    let sites = corpus(8);
    let improvement = mean_improvement(
        &sites,
        NetworkConditions::new(Duration::from_millis(10), 8_000_000),
        Duration::from_secs(3600),
    );
    assert!(
        improvement.abs() < 12.0,
        "8 Mbps / 10 ms should be near-neutral, got {improvement}%"
    );
}

#[test]
fn catalyst_never_issues_more_round_trips_than_it_saves() {
    // Request accounting: warm catalyst visits must use no more
    // network round trips than the baseline on the same site/delay.
    let sites = corpus(4);
    let cond = NetworkConditions::five_g_median();
    for site in &sites {
        let url = site.url(site.base_path());
        let t0: i64 = 35 * 86_400;
        let t1 = t0 + 3600;

        let origin = Arc::new(OriginServer::new(site.clone(), HeaderMode::Baseline));
        let mut b = Browser::baseline();
        b.load(&origin, cond, &url, t0);
        let baseline = b.load(&origin, cond, &url, t1);

        let origin = Arc::new(OriginServer::new(site.clone(), HeaderMode::Catalyst));
        let mut c = Browser::catalyst();
        c.load(&origin, cond, &url, t0);
        let catalyst = c.load(&origin, cond, &url, t1);

        assert!(
            catalyst.network_requests() <= baseline.network_requests(),
            "site {}: catalyst {} vs baseline {} requests",
            site.spec.host,
            catalyst.network_requests(),
            baseline.network_requests()
        );
    }
}
