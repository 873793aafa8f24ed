//! The chaos harness: DST-style fault-resilience runs.
//!
//! One *run* = one `(topology, seed)` pair. The harness warms a
//! browser profile un-faulted, forks it, and performs the same revisit
//! twice at the same virtual time — once clean (the *reference*), once
//! under a seeded [`FaultPlan`] — then checks the
//! **serve-correct-bytes oracle**: every body the faulted load handed
//! to the page is byte-identical (by XXH64 digest) to what the
//! reference load delivered, the audit trail is complete, and no
//! service-worker hit served stale content whose churn epoch had
//! advanced. Failures are reproducible:
//!
//! ```text
//! cargo run --release --example fault_replay -- <topology> <seed>
//! ```
//!
//! replays a single schedule and prints its event sequence.

use std::collections::BTreeMap;
use std::sync::Arc;

use cachecatalyst_browser::{Browser, LoadReport, Upstream};
use cachecatalyst_httpwire::Url;
use cachecatalyst_netsim::{FaultPlan, NetworkConditions};
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_proxies::{FaultyUpstream, RdrProxy};
use cachecatalyst_telemetry::CacheDecision;
use cachecatalyst_webmodel::{Site, SiteSpec};

/// The client/serving arrangements the chaos matrix covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Catalyst origin + service-worker browser; faults injected at
    /// the engine's network seam.
    Catalyst,
    /// Baseline origin + classic HTTP-cache browser; same seam.
    Baseline,
    /// An RDR proxy whose *responses* are additionally damaged by a
    /// [`FaultyUpstream`] wrapped around the whole proxy, on top of the
    /// engine-seam faults: the damage is on the client↔proxy hop (the
    /// proxy's own fetches from its origin are never faulted), and the
    /// client retries through a misbehaving proxy.
    RdrProxy,
}

impl Topology {
    pub const ALL: [Topology; 3] = [Topology::Catalyst, Topology::Baseline, Topology::RdrProxy];

    pub fn label(self) -> &'static str {
        match self {
            Topology::Catalyst => "catalyst",
            Topology::Baseline => "baseline",
            Topology::RdrProxy => "rdr-proxy",
        }
    }

    pub fn parse(s: &str) -> Option<Topology> {
        Topology::ALL.into_iter().find(|t| t.label() == s)
    }
}

/// The replay command that reproduces a failing `(topology, seed)`.
pub fn replay_command(topology: Topology, seed: u64) -> String {
    format!(
        "cargo run --release --example fault_replay -- {} {}",
        topology.label(),
        seed
    )
}

/// One finished chaos run: the faulted revisit and its clean twin.
#[derive(Debug)]
pub struct ChaosRun {
    pub topology: Topology,
    pub seed: u64,
    pub reference: LoadReport,
    pub faulted: LoadReport,
}

/// A few structurally distinct sites keep the matrix from over-fitting
/// to one page shape; the site for a seed is itself seed-derived, so
/// replaying a seed rebuilds the same site.
fn site_for(seed: u64) -> (Site, Url) {
    let site = Site::generate(SiteSpec {
        host: "chaos.example".into(),
        seed: 1000 + seed % 7,
        n_resources: 9,
        ..Default::default()
    });
    let url = site.url(site.base_path());
    (site, url)
}

fn network() -> NetworkConditions {
    NetworkConditions::five_g_median()
}

/// Runs one `(topology, seed)` pair: warm un-faulted at t=0, then the
/// same revisit at t=100 clean and faulted.
pub fn run_seed(topology: Topology, seed: u64) -> ChaosRun {
    let (site, url) = site_for(seed);
    let plan = FaultPlan::new(seed).with_fault_rate(0.35);
    // The clean upstream serves the warm-up and the reference load;
    // the faulted load gets its own view of the SAME origin —
    // identical bytes, but (for the proxy topology) with a seeded
    // chaos decorator around the whole proxy, on the client↔proxy hop.
    // Damage must never touch the reference, or the oracle would
    // compare against a corrupted baseline.
    let (clean, dirty, mut browser): (Box<dyn Upstream>, Box<dyn Upstream>, Browser) =
        match topology {
            Topology::Catalyst => {
                let origin = Arc::new(OriginServer::new(site, HeaderMode::Catalyst));
                (
                    Box::new(Arc::clone(&origin)),
                    Box::new(origin),
                    Browser::catalyst(),
                )
            }
            Topology::Baseline => {
                let origin = Arc::new(OriginServer::new(site, HeaderMode::Baseline));
                (
                    Box::new(Arc::clone(&origin)),
                    Box::new(origin),
                    Browser::baseline(),
                )
            }
            Topology::RdrProxy => {
                let origin = Arc::new(OriginServer::new(site, HeaderMode::Baseline));
                // The proxy's answers are damaged from an independent
                // stream (seed offset) at a lower rate: the client must
                // still converge when both the last mile and the proxy
                // misbehave.
                let faulty = FaultyUpstream::new(
                    RdrProxy::new(Arc::clone(&origin)),
                    FaultPlan::new(seed ^ 0xD1F7_0000).with_fault_rate(0.2),
                );
                (
                    Box::new(RdrProxy::new(origin)),
                    Box::new(faulty),
                    Browser::baseline(),
                )
            }
        };

    browser.load(clean.as_ref(), network(), &url, 0);
    let mut faulted_browser = browser.clone();
    let reference = browser.load(clean.as_ref(), network(), &url, 100);
    faulted_browser.config.fault_plan = Some(plan);
    let faulted = faulted_browser.load(dirty.as_ref(), network(), &url, 100);

    ChaosRun {
        topology,
        seed,
        reference,
        faulted,
    }
}

/// Delivered-body digests keyed by URL (all distinct digests a URL
/// delivered, covering push rows and background refreshes).
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

/// The serve-correct-bytes oracle. `Err` carries a human-readable
/// verdict naming the first violated invariant.
pub fn check_oracle(run: &ChaosRun) -> Result<(), String> {
    let ctx = format!("[{} seed {}]", run.topology.label(), run.seed);
    let r = &run.faulted;
    if r.audits.len() != r.trace.fetches.len() {
        return Err(format!(
            "{ctx} audit trail incomplete: {} audits for {} fetches",
            r.audits.len(),
            r.trace.fetches.len()
        ));
    }
    for f in &r.trace.fetches {
        if f.completed < f.started {
            return Err(format!("{ctx} {} completed before it started", f.url));
        }
    }
    // Zero-RTT serves must never hand out a body whose churn epoch
    // advanced: the engine stamps `served_stale` against the site's
    // current content.
    for audit in &r.audits {
        if audit.decision == CacheDecision::SwHitZeroRtt && audit.served_stale == Some(true) {
            return Err(format!("{ctx} {} served stale from the SW", audit.url));
        }
    }
    let want = digests(&run.reference);
    for (url, ds) in digests(r) {
        let Some(expected) = want.get(&url) else {
            return Err(format!("{ctx} {url} delivered but absent from reference"));
        };
        for d in ds {
            if !expected.contains(&d) {
                return Err(format!(
                    "{ctx} {url} delivered digest {d:016x}, reference has {expected:x?}"
                ));
            }
        }
    }
    Ok(())
}

/// A value-level fingerprint of a run, used to assert that replaying a
/// seed reproduces the identical event sequence.
pub fn fingerprint(run: &ChaosRun) -> Vec<String> {
    let mut out = vec![format!(
        "plt={} faults={} retries={} degraded={}",
        run.faulted.plt.as_nanos(),
        run.faulted.faults_injected,
        run.faulted.retries,
        run.faulted.degraded
    )];
    for (f, audit) in run.faulted.trace.fetches.iter().zip(&run.faulted.audits) {
        out.push(format!(
            "{} started={} completed={} down={} up={} rtts={} decision={} digest={:?}",
            f.url,
            f.started.as_nanos(),
            f.completed.as_nanos(),
            f.bytes_down,
            f.bytes_up,
            f.rtts,
            audit.decision.as_str(),
            audit.body_digest,
        ));
    }
    out
}

/// `|a − b| ≤ rel·max(a, b) + abs_ms`: a two-sided tolerance band for
/// wall-clock comparisons. The absolute floor absorbs scheduler noise
/// that a pure ratio check turns into flaky failures on fast loads.
pub fn within_band(a_ms: f64, b_ms: f64, rel: f64, abs_ms: f64) -> bool {
    (a_ms - b_ms).abs() <= rel * a_ms.max(b_ms) + abs_ms
}

/// Wall-clock slack for live (tokio) loads, scaled to fetch count.
/// The offline tokio stand-in detects IO readiness by re-polling every
/// ~250µs, so each await point can contribute up to ~0.3 ms of
/// scheduler noise; budget for a handful of await points per fetch.
pub fn live_slack_ms(n_fetches: usize) -> f64 {
    2.0 + n_fetches as f64 * 1.2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_labels_round_trip() {
        for t in Topology::ALL {
            assert_eq!(Topology::parse(t.label()), Some(t));
        }
        assert_eq!(Topology::parse("nonsense"), None);
    }

    #[test]
    fn oracle_passes_on_a_clean_run() {
        let run = run_seed(Topology::Catalyst, 1);
        check_oracle(&run).unwrap();
    }

    #[test]
    fn band_allows_noise_but_rejects_regressions() {
        assert!(within_band(100.0, 104.0, 0.06, 1.0));
        assert!(within_band(3.0, 3.9, 0.06, 1.0));
        assert!(!within_band(100.0, 120.0, 0.06, 1.0));
    }
}
