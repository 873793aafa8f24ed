//! Integration: every sampled page load yields one *connected* span
//! tree — a single `page_load` root, no orphans — and a cache-decision
//! audit trail whose entries sum exactly to the load's resource count.
//! This is the correctness oracle the tracing tentpole promises: if a
//! fetch ever loses its span parentage across the browser → proxy →
//! origin hops, or a resource is served without an audit verdict,
//! these tests fail.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use cachecatalyst::prelude::*;
use cachecatalyst::proxies::{PushOrigin, PushPolicy, RdrProxy};
use cachecatalyst::telemetry::span::{Sampling, Span, SpanId, SpanSink, TraceId};
use cachecatalyst::telemetry::CacheDecision;

fn base() -> Url {
    Url::parse("http://example.org/index.html").unwrap()
}

fn cond() -> NetworkConditions {
    NetworkConditions::five_g_median()
}

/// Asserts the spans of one trace form a single connected tree and
/// returns (root, members).
fn assert_connected_tree(spans: &[Span], trace: TraceId) -> (SpanId, Vec<Span>) {
    let members: Vec<Span> = spans
        .iter()
        .filter(|s| s.trace_id == trace)
        .cloned()
        .collect();
    let ids: HashSet<SpanId> = members.iter().map(|s| s.span_id).collect();
    assert_eq!(ids.len(), members.len(), "duplicate span ids");
    let roots: Vec<&Span> = members.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one root: {roots:#?}");
    let root = roots[0];
    assert_eq!(root.name, "page_load");
    // No orphans: every non-root span's parent was recorded.
    let mut parent_of: HashMap<SpanId, SpanId> = HashMap::new();
    for s in &members {
        if let Some(p) = s.parent {
            assert!(
                ids.contains(&p),
                "orphan span {:?} ({}) has unrecorded parent {:?}",
                s.span_id,
                s.name,
                p
            );
            parent_of.insert(s.span_id, p);
        }
    }
    // Connected: every span walks up to the root (and the parent map
    // is acyclic along the way).
    for s in &members {
        let mut cur = s.span_id;
        let mut hops = 0;
        while cur != root.span_id {
            cur = parent_of[&cur];
            hops += 1;
            assert!(hops <= members.len(), "cycle reaching root from {cur:?}");
        }
    }
    (root.span_id, members)
}

/// Runs `loads` page loads with sampling always-on, asserting the
/// span-tree and audit invariants per load. Returns all spans.
fn run_traced(mut browser: Browser, upstream: &dyn Upstream, loads: &[i64]) -> Vec<Span> {
    let sink = Arc::new(SpanSink::new(Sampling::Always));
    browser = browser.with_span_sink(Arc::clone(&sink));
    let mut all = Vec::new();
    for &t in loads {
        let report = browser.load(upstream, cond(), &base(), t);
        let spans = sink.drain();
        let traces: HashSet<TraceId> = spans.iter().map(|s| s.trace_id).collect();
        assert_eq!(traces.len(), 1, "one trace per load");
        let (root, members) = assert_connected_tree(&spans, *traces.iter().next().unwrap());
        // One fetch span per resource, all children of the root.
        let fetches: Vec<&Span> = members.iter().filter(|s| s.name == "fetch").collect();
        assert_eq!(fetches.len(), report.trace.fetches.len());
        assert!(fetches.iter().all(|s| s.parent == Some(root)));
        // The audit trail covers every resource exactly once, in
        // trace order.
        assert_eq!(report.audits.len(), report.trace.fetches.len());
        for (audit, fetch) in report.audits.iter().zip(&report.trace.fetches) {
            assert_eq!(audit.url, fetch.url);
            let expected = match fetch.outcome {
                FetchOutcome::ServiceWorkerHit => CacheDecision::SwHitZeroRtt,
                FetchOutcome::NotModified => CacheDecision::Conditional304,
                FetchOutcome::FullTransfer => CacheDecision::FullFetch,
                FetchOutcome::CacheHit | FetchOutcome::Pushed => CacheDecision::Bypass,
            };
            assert_eq!(audit.decision, expected, "{}", audit.url);
        }
        all.extend(spans);
    }
    all
}

#[test]
fn catalyst_visits_produce_connected_trees_and_full_audits() {
    // One sink shared between browser and origin, so origin spans
    // land in the same trace as the browser's fetch spans.
    let sink = Arc::new(SpanSink::new(Sampling::Always));
    let origin = Arc::new(
        OriginServer::new(example_site(), HeaderMode::Catalyst).with_span_sink(Arc::clone(&sink)),
    );
    let upstream = Arc::clone(&origin);
    let mut browser = Browser::catalyst().with_span_sink(Arc::clone(&sink));

    // Cold visit, then a warm revisit one minute later.
    for (visit, t) in [(0usize, 0i64), (1, 60)] {
        let report = browser.load(&upstream, cond(), &base(), t);
        let spans = sink.drain();
        let traces: HashSet<TraceId> = spans.iter().map(|s| s.trace_id).collect();
        assert_eq!(traces.len(), 1);
        let (root, members) = assert_connected_tree(&spans, *traces.iter().next().unwrap());

        let by_name = |n: &str| members.iter().filter(|s| s.name == n).count();
        assert_eq!(by_name("fetch"), report.trace.fetches.len());
        assert_eq!(report.audits.len(), report.trace.fetches.len());

        // Network fetches hit the origin: their origin.handle spans
        // are in the tree, parented beneath the matching fetch span.
        let network = report
            .trace
            .fetches
            .iter()
            .filter(|f| f.outcome.used_network())
            .count();
        assert_eq!(by_name("origin.handle"), network, "visit {visit}");
        for s in members.iter().filter(|s| s.name == "origin.handle") {
            let parent = s.parent.expect("origin spans have parents");
            let parent_span = members
                .iter()
                .find(|m| m.span_id == parent)
                .expect("parent recorded");
            assert_eq!(parent_span.name, "fetch");
            assert_ne!(parent_span.span_id, root);
        }
        // The page request exercised the config cache, and its origin
        // span says whether the churn-epoch entry was a hit or miss.
        assert!(
            members.iter().any(|s| s.name == "origin.handle"
                && s.attrs
                    .iter()
                    .any(|(k, v)| *k == "config_cache" && (v == "hit" || v == "miss"))),
            "visit {visit}: no config_cache attr on any origin span"
        );

        // Warm visit: the service worker served subresources with
        // zero RTTs, and each such audit carries the consulted etag
        // plus a staleness verdict.
        if visit == 1 {
            let sw_audits: Vec<_> = report
                .audits
                .iter()
                .filter(|a| a.decision == CacheDecision::SwHitZeroRtt)
                .collect();
            assert!(!sw_audits.is_empty(), "warm catalyst visit has SW hits");
            for a in &sw_audits {
                assert!(a.etag.is_some(), "{a:?}");
                assert_eq!(
                    a.served_stale,
                    Some(false),
                    "unchanged content must be audited as current: {a:?}"
                );
            }
            // The origin attached the churn epoch to traced responses
            // and the engine recorded it in the audits of fetches that
            // reached the origin.
            assert!(
                report.audits.iter().any(|a| a.epoch.is_some()),
                "{:#?}",
                report.audits
            );
        }
    }
}

#[test]
fn baseline_and_uncached_loads_are_fully_audited() {
    for (browser, mode) in [
        (Browser::baseline(), HeaderMode::Baseline),
        (Browser::uncached(), HeaderMode::Baseline),
    ] {
        let origin = Arc::new(OriginServer::new(example_site(), mode));
        run_traced(browser, &origin, &[0, 60, 7200]);
    }
}

#[test]
fn proxy_hops_nest_between_fetch_and_origin() {
    let sink = Arc::new(SpanSink::new(Sampling::Always));
    let origin = Arc::new(
        OriginServer::new(example_site(), HeaderMode::Baseline).with_span_sink(Arc::clone(&sink)),
    );
    let rdr = RdrProxy::new(Arc::clone(&origin));
    let mut browser = Browser::uncached().with_span_sink(Arc::clone(&sink));
    browser.load(&rdr, cond(), &base(), 0);

    let spans = sink.drain();
    let traces: HashSet<TraceId> = spans.iter().map(|s| s.trace_id).collect();
    assert_eq!(traces.len(), 1);
    let (_, members) = assert_connected_tree(&spans, *traces.iter().next().unwrap());

    let hops: Vec<&Span> = members.iter().filter(|s| s.name == "proxy.rdr").collect();
    assert!(!hops.is_empty(), "proxy hop recorded");
    for hop in hops {
        // fetch → proxy.rdr → origin.handle chain.
        let parent = members
            .iter()
            .find(|m| Some(m.span_id) == hop.parent)
            .expect("proxy parent recorded");
        assert_eq!(parent.name, "fetch");
        assert!(
            members
                .iter()
                .any(|m| m.name == "origin.handle" && m.parent == Some(hop.span_id)),
            "origin span nests under the proxy hop"
        );
    }
}

#[test]
fn push_origin_audits_pushed_resources_as_bypass() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
    let push = PushOrigin::new(origin, PushPolicy::All);
    let spans = run_traced(Browser::uncached(), &push, &[0]);
    // Pushed resources still get fetch spans inside the tree.
    assert!(spans
        .iter()
        .any(|s| s.name == "fetch" && s.attrs.iter().any(|(k, v)| *k == "role" && v == "push")));
}

#[test]
fn unsampled_loads_record_nothing() {
    let sink = Arc::new(SpanSink::new(Sampling::Off));
    let origin = Arc::new(
        OriginServer::new(example_site(), HeaderMode::Catalyst).with_span_sink(Arc::clone(&sink)),
    );
    let mut browser = Browser::catalyst().with_span_sink(Arc::clone(&sink));
    let report = browser.load(&origin, cond(), &base(), 0);
    assert!(sink.is_empty(), "sampling off records no spans");
    // The audit trail is orthogonal to sampling: always complete.
    assert_eq!(report.audits.len(), report.trace.fetches.len());
}
