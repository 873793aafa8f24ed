//! The fleet engine: replays a population-scale [`Trace`] against the
//! full browser → edge → origin stack in virtual time.
//!
//! Every user gets a persistent [`Browser`] profile (HTTP cache or
//! catalyst service worker, per mode) that lives exactly as long as
//! the trace needs it: profiles materialize on a user's first visit
//! and drop after their last, so a 10⁵-user day fits in memory even
//! though every user's cache state is faithfully carried across
//! revisits. All users share one [`EdgeCache`] over a [`MultiOrigin`]
//! of the corpus sites, with one metrics [`Registry`] spanning the
//! whole origin tier — fleet totals come from a single scrape.
//!
//! The replay is single-threaded and walks the events in the order the
//! trace lists them, which is virtual-time order: `generate` sorts them
//! and [`Trace::from_jsonl`] refuses a file that does not, along with
//! any user, site or time outside its header. So every counter in the
//! resulting [`FleetReport`] is a pure function of `(trace, options)`.

use std::collections::HashMap;
use std::sync::Arc;

use cachecatalyst_browser::{Browser, MultiOrigin};
use cachecatalyst_edge::{DiskTierOptions, EdgeCache, EdgeMetrics, StoreOptions};
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::OriginServer;
use cachecatalyst_telemetry::{CacheAudit, Event, Histogram, Recorder, Registry};
use cachecatalyst_webmodel::workload::Trace;
use cachecatalyst_webmodel::{generate_corpus, CorpusSpec, Site};

use crate::runner::{base_url_of, ClientKind};

/// Options for one fleet replay.
#[derive(Clone)]
pub struct FleetOptions {
    /// Client/origin mode (Baseline or Catalyst for the headline
    /// comparison; any [`ClientKind`] works).
    pub kind: ClientKind,
    /// Median subresources per corpus page. The fleet default (28) is
    /// leaner than the single-page evaluation's 70: at 10⁵ users the
    /// page weight multiplies into every counter, and the workload
    /// questions (hit ratios, offload, tail PLT) are about arrival
    /// structure, not page bulk.
    pub resources_median: f64,
    /// Access-link conditions for every user.
    pub cond: NetworkConditions,
    /// Edge store byte budget.
    pub edge_budget: usize,
    /// Optional persistent second tier under the DRAM front. The
    /// replay itself stays deterministic (the disk tier changes where
    /// bytes live, not what is served); wall-clock throughput pays the
    /// segment-file I/O.
    pub disk: Option<DiskTierOptions>,
    /// Record the edge's cache-decision audit sequence per visit
    /// (URL-sorted). Costs memory proportional to total fetches —
    /// meant for reduced-scale parity tests, not full fleet runs.
    pub collect_audits: bool,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            kind: ClientKind::Baseline,
            resources_median: 28.0,
            cond: NetworkConditions::five_g_median(),
            edge_budget: 256 * 1024 * 1024,
            disk: None,
            collect_audits: false,
        }
    }
}

/// The corpus spec a fleet replay derives from a trace: site count
/// from the workload spec, sites seeded from the workload seed.
/// Shared by the in-memory and TCP replay legs so both serve
/// byte-identical content.
pub fn fleet_corpus_spec(trace: &Trace, resources_median: f64) -> CorpusSpec {
    CorpusSpec {
        n_sites: trace.spec.sites as usize,
        seed: trace.spec.seed,
        resources_median,
        ..CorpusSpec::default()
    }
}

/// Generates the corpus for a trace (see [`fleet_corpus_spec`]).
pub fn fleet_corpus(trace: &Trace, resources_median: f64) -> Vec<Site> {
    generate_corpus(&fleet_corpus_spec(trace, resources_median))
}

/// Aggregate results of one fleet replay. Counter-valued fields are
/// deterministic: replaying the same trace with the same options
/// yields an identical report (audits included).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Mode label (`"baseline"`, `"catalyst"`, …).
    pub mode: &'static str,
    /// Distinct users that visited.
    pub users: u64,
    /// Page visits replayed.
    pub visits: u64,
    /// PLT percentiles in milliseconds (from the histogram below).
    pub plt_p50_ms: f64,
    /// 99th-percentile PLT in milliseconds.
    pub plt_p99_ms: f64,
    /// 99.9th-percentile PLT in milliseconds.
    pub plt_p999_ms: f64,
    /// Raw PLT histogram bucket counts (the determinism-comparable
    /// form of the distribution).
    pub plt_buckets: Vec<u64>,
    /// Total bytes downloaded by all browsers.
    pub bytes_down: u64,
    /// Edge-tier counters at end of replay.
    pub edge: EdgeMetrics,
    /// Per-visit edge cache-decision audits, URL-sorted within each
    /// visit (only when [`FleetOptions::collect_audits`]).
    pub audits: Option<Vec<Vec<CacheAudit>>>,
}

impl FleetReport {
    /// Edge object hit ratio: fraction of cacheable requests served
    /// from the store (positive or negative entry) with zero upstream
    /// contact.
    pub fn object_hit_ratio(&self) -> f64 {
        let served = self.edge.hits + self.edge.negative_hits;
        let total = served + self.edge.misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }

    /// Edge byte hit ratio: body bytes served from the store over all
    /// body bytes the edge served (store + upstream).
    pub fn byte_hit_ratio(&self) -> f64 {
        let total = self.edge.hit_bytes + self.edge.upstream_bytes;
        if total == 0 {
            0.0
        } else {
            self.edge.hit_bytes as f64 / total as f64
        }
    }

    /// Origin offload: fraction of edge-tier requests that never
    /// reached the origin (pass-through traffic excluded — the edge
    /// never claimed it).
    pub fn origin_offload(&self) -> f64 {
        let eligible = self.edge.requests - self.edge.passthrough;
        if eligible == 0 {
            0.0
        } else {
            1.0 - self.edge.upstream_requests as f64 / eligible as f64
        }
    }
}

/// Mode label for a [`ClientKind`].
pub fn kind_label(kind: ClientKind) -> &'static str {
    match kind {
        ClientKind::Baseline => "baseline",
        ClientKind::Catalyst => "catalyst",
        ClientKind::CatalystAggregate => "catalyst+aggregate",
        ClientKind::Uncached => "uncached",
    }
}

/// Geometric PLT histogram bounds: 2 ms to 120 s at 12% resolution —
/// fine enough that interpolated p999 is meaningful, coarse enough
/// that the bucket vector stays compact.
fn plt_bounds() -> Vec<f64> {
    let mut bounds = Vec::new();
    let mut v = 0.002f64;
    while v < 120.0 {
        bounds.push(v);
        v *= 1.12;
    }
    bounds
}

/// Replays `trace` and returns the aggregate report. Deterministic:
/// single-threaded, event-ordered, no wall-clock input.
pub fn run_fleet(trace: &Trace, opts: &FleetOptions) -> FleetReport {
    let sites = fleet_corpus(trace, opts.resources_median);
    let registry = Arc::new(Registry::new());
    let mode = opts.kind.header_mode();

    let mut multi = MultiOrigin::new();
    let mut base_urls = Vec::with_capacity(sites.len());
    for site in sites {
        base_urls.push(base_url_of(&site));
        let host = site.spec.host.clone();
        let origin = OriginServer::new(site, mode).with_registry(Arc::clone(&registry));
        multi.add(&host, Arc::new(origin));
    }

    let recorder = opts.collect_audits.then(|| Arc::new(Recorder::new()));
    let mut store = StoreOptions::new().mem_budget(opts.edge_budget);
    if let Some(disk) = &opts.disk {
        store = store.disk(disk.clone());
    }
    let mut builder = EdgeCache::builder(multi)
        .store(store)
        .registry(Arc::clone(&registry));
    if let Some(recorder) = &recorder {
        builder = builder.recorder(Arc::clone(recorder));
    }
    let edge = builder.try_build().expect("edge store opens");

    let plt_hist = Histogram::new(&plt_bounds());
    let mut bytes_down = 0u64;
    let mut visits = 0u64;
    let mut users_seen = 0u64;
    let mut audits = opts.collect_audits.then(Vec::new);

    let last_event = trace.last_event_of_user();
    let mut browsers: HashMap<u32, Browser> = HashMap::new();

    // Profiles retire at their user's last event by index.
    debug_assert!(trace.events.windows(2).all(|w| w[0] <= w[1]), "unsorted");
    for (idx, event) in trace.events.iter().enumerate() {
        let t_secs = (event.t_ms / 1000) as i64;
        let browser = browsers.entry(event.user).or_insert_with(|| {
            users_seen += 1;
            opts.kind.browser()
        });
        let report = browser.load(&edge, opts.cond, &base_urls[event.site as usize], t_secs);
        plt_hist.observe_secs(report.plt.as_millis_f64() / 1000.0);
        bytes_down += report.bytes_down;
        visits += 1;
        if let (Some(audits), Some(recorder)) = (audits.as_mut(), recorder.as_ref()) {
            let mut visit_audits: Vec<CacheAudit> = recorder
                .take()
                .into_iter()
                .filter_map(|event| match event {
                    Event::CacheDecision { audit, .. } => Some(audit),
                    _ => None,
                })
                .collect();
            visit_audits.sort_by(|a, b| a.url.cmp(&b.url));
            audits.push(visit_audits);
        }
        if last_event.get(&event.user) == Some(&idx) {
            browsers.remove(&event.user);
        }
    }

    FleetReport {
        mode: kind_label(opts.kind),
        users: users_seen,
        visits,
        plt_p50_ms: plt_hist.quantile(0.5) * 1000.0,
        plt_p99_ms: plt_hist.quantile(0.99) * 1000.0,
        plt_p999_ms: plt_hist.quantile(0.999) * 1000.0,
        plt_buckets: plt_hist.bucket_counts(),
        bytes_down,
        edge: edge.metrics(),
        audits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_webmodel::workload::{generate, WorkloadSpec};

    fn small_trace() -> Trace {
        generate(&WorkloadSpec {
            users: 40,
            sites: 5,
            horizon_secs: 3600,
            ..Default::default()
        })
    }

    #[test]
    fn replay_produces_traffic_and_hits() {
        let trace = small_trace();
        let report = run_fleet(&trace, &FleetOptions::default());
        assert_eq!(report.visits, trace.events.len() as u64);
        assert!(report.users >= 1 && report.users <= 40);
        assert!(report.edge.requests > 0);
        assert!(report.plt_p50_ms > 0.0);
        assert!(report.plt_p999_ms >= report.plt_p99_ms);
        assert!(report.plt_p99_ms >= report.plt_p50_ms);
        // Zipf skew + shared edge ⇒ some reuse must appear.
        assert!(report.object_hit_ratio() > 0.0, "{:?}", report.edge);
        assert!(report.byte_hit_ratio() > 0.0);
        assert!(report.origin_offload() > 0.0);
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = small_trace();
        let opts = FleetOptions {
            collect_audits: true,
            ..Default::default()
        };
        let a = run_fleet(&trace, &opts);
        let b = run_fleet(&trace, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn disk_tier_replay_is_deterministic_and_demotes() {
        let trace = small_trace();
        let dir = |run: u32| {
            let d =
                std::env::temp_dir().join(format!("cc-fleet-test-{}-{run}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            d
        };
        // A DRAM front far under the working set, so the tail demotes.
        let opts = |run: u32| FleetOptions {
            edge_budget: 64 << 10,
            disk: Some(DiskTierOptions::at(dir(run))),
            ..Default::default()
        };
        let a = run_fleet(&trace, &opts(0));
        let b = run_fleet(&trace, &opts(1));
        assert_eq!(a, b, "disk tier must not break replay determinism");
        assert!(a.edge.demotions > 0, "constrained DRAM must demote");
        assert!(a.edge.disk_hits > 0, "the demoted tail must serve hits");
        let mem_only = run_fleet(
            &trace,
            &FleetOptions {
                edge_budget: 64 << 10,
                ..Default::default()
            },
        );
        assert!(
            a.object_hit_ratio() > mem_only.object_hit_ratio(),
            "hybrid {:.4} must beat mem-only {:.4} under constrained DRAM",
            a.object_hit_ratio(),
            mem_only.object_hit_ratio()
        );
        for run in 0..2 {
            let _ = std::fs::remove_dir_all(dir(run));
        }
    }

    #[test]
    fn catalyst_offloads_no_less_than_baseline() {
        let trace = small_trace();
        let base = run_fleet(&trace, &FleetOptions::default());
        let cat = run_fleet(
            &trace,
            &FleetOptions {
                kind: ClientKind::Catalyst,
                ..Default::default()
            },
        );
        assert_eq!(cat.mode, "catalyst");
        assert_eq!(base.visits, cat.visits);
        // Not asserting a winner at toy scale — only that both modes
        // produce a functioning cache hierarchy.
        assert!(cat.object_hit_ratio() > 0.0);
    }
}
