//! Fault-injection behaviour of the page-load engine: seeded fault
//! plans, bounded retry with backoff, degraded-path audits, and the
//! serve-correct-bytes property against an un-faulted reference load.

use std::collections::BTreeMap;
use std::sync::Arc;

use cachecatalyst_browser::{Browser, LoadReport, SingleOrigin};
use cachecatalyst_httpwire::Url;
use cachecatalyst_netsim::{FaultPlan, NetworkConditions};
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_telemetry::{CacheDecision, Event, Recorder};
use cachecatalyst_webmodel::example_site;

fn cond() -> NetworkConditions {
    NetworkConditions::five_g_median()
}

fn upstream(mode: HeaderMode) -> SingleOrigin {
    SingleOrigin(Arc::new(OriginServer::new(example_site(), mode)))
}

fn base() -> Url {
    Url::parse("http://example.org/index.html").unwrap()
}

/// Delivered-body digests keyed by URL. A URL that appears twice
/// (push row + requester row, or SWR background refresh) keeps every
/// distinct digest it delivered.
fn digests(report: &LoadReport) -> BTreeMap<String, Vec<u64>> {
    let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for audit in &report.audits {
        if let Some(d) = audit.body_digest {
            let entry = map.entry(audit.url.clone()).or_default();
            if !entry.contains(&d) {
                entry.push(d);
            }
        }
    }
    map
}

#[test]
fn rate_zero_plan_is_a_no_op() {
    let up = upstream(HeaderMode::Catalyst);
    let plain = Browser::catalyst().load(&up, cond(), &base(), 0);
    let mut faulted = Browser::catalyst();
    faulted.config.fault_plan = Some(FaultPlan::new(42).with_fault_rate(0.0));
    let report = faulted.load(&up, cond(), &base(), 0);
    assert_eq!(report.plt, plain.plt);
    assert_eq!(report.trace.fetches.len(), plain.trace.fetches.len());
    assert_eq!(report.faults_injected, 0);
    assert_eq!(report.retries, 0);
    assert_eq!(report.degraded, 0);
}

#[test]
fn faulted_cold_loads_deliver_reference_bytes() {
    // Across many seeds, every page load under faults completes and
    // every delivered body digest matches the un-faulted reference.
    let up = upstream(HeaderMode::Catalyst);
    let reference = Browser::catalyst().load(&up, cond(), &base(), 0);
    let reference_digests = digests(&reference);
    let mut total_faults = 0;
    for seed in 1..=30u64 {
        let mut b = Browser::catalyst();
        b.config.fault_plan = Some(FaultPlan::new(seed).with_fault_rate(0.4));
        let report = b.load(&up, cond(), &base(), 0);
        total_faults += report.faults_injected;
        assert_eq!(
            report.audits.len(),
            report.trace.fetches.len(),
            "seed {seed}: audit trail complete"
        );
        for (url, ds) in digests(&report) {
            let expected = reference_digests
                .get(&url)
                .unwrap_or_else(|| panic!("seed {seed}: {url} not in reference"));
            for d in ds {
                assert!(
                    expected.contains(&d),
                    "seed {seed}: {url} delivered digest {d:016x}, want one of {expected:x?}"
                );
            }
        }
        for f in &report.trace.fetches {
            assert!(f.completed >= f.started, "seed {seed}: {}", f.url);
        }
    }
    assert!(total_faults > 0, "0.4 fault rate over 30 seeds must fire");
}

#[test]
fn warm_catalyst_load_survives_config_tampering() {
    // Warm a catalyst browser un-faulted, then revisit under heavy
    // faults: even when the config map is corrupted in transit the
    // page must complete with the same bytes the clean revisit serves.
    let up = upstream(HeaderMode::Catalyst);
    let mut clean = Browser::catalyst();
    clean.load(&up, cond(), &base(), 0);
    let faulted = clean.clone();
    let reference = clean.load(&up, cond(), &base(), 100);
    let reference_digests = digests(&reference);

    let mut degraded_seen = false;
    for seed in 1..=40u64 {
        let mut b = faulted.clone();
        b.config.fault_plan = Some(FaultPlan::new(seed).with_fault_rate(0.6));
        let report = b.load(&up, cond(), &base(), 100);
        degraded_seen |= report.degraded > 0;
        for (url, ds) in digests(&report) {
            let expected = reference_digests
                .get(&url)
                .unwrap_or_else(|| panic!("seed {seed}: {url} not in reference"));
            for d in ds {
                assert!(
                    expected.contains(&d),
                    "seed {seed}: {url} delivered digest {d:016x}, want one of {expected:x?}"
                );
            }
        }
    }
    assert!(degraded_seen, "some seed must force a degraded fallback");
}

#[test]
fn retries_surface_in_report_audits_and_events() {
    let up = upstream(HeaderMode::Catalyst);
    let mut hit = None;
    for seed in 1..=50u64 {
        let recorder = Arc::new(Recorder::new());
        let mut b = Browser::catalyst().with_recorder(recorder.clone());
        b.config.fault_plan = Some(FaultPlan::new(seed).with_fault_rate(0.5));
        let report = b.load(&up, cond(), &base(), 0);
        let degraded_audits = report
            .audits
            .iter()
            .filter(|a| a.decision == CacheDecision::Degraded)
            .count();
        assert_eq!(
            degraded_audits, report.degraded,
            "seed {seed}: degraded count and audit decisions agree"
        );
        let summaries: Vec<Event> = recorder
            .snapshot()
            .into_iter()
            .filter(|e| matches!(e, Event::FaultSummary { .. }))
            .collect();
        if report.faults_injected > 0 || report.retries > 0 || report.degraded > 0 {
            assert_eq!(summaries.len(), 1, "seed {seed}");
            if let Event::FaultSummary {
                faults_injected,
                retries,
                degraded,
                ..
            } = summaries[0]
            {
                assert_eq!(faults_injected, report.faults_injected);
                assert_eq!(retries, report.retries);
                assert_eq!(degraded as usize, report.degraded);
            }
        } else {
            assert!(summaries.is_empty(), "seed {seed}: no faults, no summary");
        }
        if report.retries > 0 {
            hit = Some(seed);
        }
    }
    assert!(hit.is_some(), "some seed in 1..=50 must force a retry");
}

#[test]
fn same_seed_replays_identically_and_seeds_diverge() {
    let up = upstream(HeaderMode::Catalyst);
    let run = |seed: u64| {
        let mut b = Browser::catalyst();
        b.config.fault_plan = Some(FaultPlan::new(seed).with_fault_rate(0.5));
        let report = b.load(&up, cond(), &base(), 0);
        let rows: Vec<(String, u64, u64, u32, u64)> = report
            .trace
            .fetches
            .iter()
            .map(|f| {
                (
                    f.url.clone(),
                    f.bytes_down,
                    f.bytes_up,
                    f.rtts,
                    f.completed.as_nanos(),
                )
            })
            .collect();
        (report.plt, report.faults_injected, report.retries, rows)
    };
    let a = run(7);
    assert_eq!(a, run(7), "same seed, same plan ⇒ identical replay");
    // Different seeds explore different schedules: over a handful of
    // seeds at 0.5 rate, at least one must differ from seed 7.
    let diverged = (8..=12u64).any(|s| run(s) != a);
    assert!(diverged, "independent seeds must diverge");
}

#[test]
fn baseline_browser_also_survives_faults() {
    let up = upstream(HeaderMode::Baseline);
    let mut clean = Browser::baseline();
    clean.load(&up, cond(), &base(), 0);
    let warm_clean = clean.clone();
    let reference = clean.load(&up, cond(), &base(), 100);
    let reference_digests = digests(&reference);
    for seed in 1..=20u64 {
        let mut b = warm_clean.clone();
        b.config.fault_plan = Some(FaultPlan::new(seed).with_fault_rate(0.5));
        let report = b.load(&up, cond(), &base(), 100);
        for (url, ds) in digests(&report) {
            let expected = reference_digests
                .get(&url)
                .unwrap_or_else(|| panic!("seed {seed}: {url} not in reference"));
            for d in ds {
                assert!(
                    expected.contains(&d),
                    "seed {seed}: {url} delivered digest {d:016x}, want one of {expected:x?}"
                );
            }
        }
    }
}
