//! Shared experiment runners.

use std::sync::Arc;
use std::time::Duration;

use cachecatalyst_browser::{
    Browser, CacheMode, EngineConfig, FrozenUpstream, LoadReport, Upstream,
};
use cachecatalyst_httpwire::Url;
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_telemetry::span::{Sampling, Span, SpanSink};
use cachecatalyst_telemetry::{to_jsonl, Event, Recorder};
use cachecatalyst_webmodel::stats::derive_seed;
use cachecatalyst_webmodel::Site;

/// The revisit delays of the paper's evaluation (§4): one minute, one
/// hour, six hours, one day, one week.
pub const REVISIT_DELAYS: [Duration; 5] = [
    Duration::from_secs(60),
    Duration::from_secs(3600),
    Duration::from_secs(6 * 3600),
    Duration::from_secs(24 * 3600),
    Duration::from_secs(7 * 24 * 3600),
];

/// Which client configuration to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientKind {
    /// Classic HTTP cache against developer headers.
    Baseline,
    /// CacheCatalyst service worker.
    Catalyst,
    /// CacheCatalyst + session capture (the future-work mode).
    CatalystCapture,
    /// CacheCatalyst + aggregate (popularity) capture — our
    /// memory-bounded answer to §6's footprint problem.
    CatalystAggregate,
    /// No reuse at all.
    Uncached,
}

impl ClientKind {
    /// The origin header mode this client is evaluated against.
    pub fn header_mode(self) -> HeaderMode {
        match self {
            ClientKind::Baseline | ClientKind::Uncached => HeaderMode::Baseline,
            ClientKind::Catalyst => HeaderMode::Catalyst,
            ClientKind::CatalystCapture => HeaderMode::CatalystWithCapture,
            ClientKind::CatalystAggregate => HeaderMode::CatalystAggregate,
        }
    }

    /// Builds the matching browser.
    pub fn browser(self) -> Browser {
        match self {
            ClientKind::Baseline => Browser::baseline(),
            ClientKind::Catalyst => Browser::catalyst(),
            ClientKind::CatalystCapture => Browser::new(EngineConfig {
                mode: CacheMode::ServiceWorker,
                session: Some("bench-session".to_owned()),
                ..Default::default()
            }),
            ClientKind::CatalystAggregate => Browser::catalyst(),
            ClientKind::Uncached => Browser::uncached(),
        }
    }
}

/// A cold visit and a warm revisit of the same site.
#[derive(Debug, Clone)]
pub struct VisitPair {
    pub cold: LoadReport,
    pub warm: LoadReport,
}

/// The base URL of a site's home page.
pub fn base_url_of(site: &Site) -> Url {
    Url::parse(&format!("http://{}{}", site.spec.host, site.base_path()))
        .expect("generated hosts parse")
}

/// A per-site first-visit time: spread deterministically across a
/// month so change-period phases are sampled fairly.
pub fn first_visit_time(site: &Site) -> i64 {
    let spread = derive_seed(site.spec.seed, "t0") % (30 * 86_400);
    (30 * 86_400 + spread) as i64
}

/// Runs a cold visit at the site's first-visit time and a warm revisit
/// `delay` later.
pub fn visit_pair(
    site: &Site,
    kind: ClientKind,
    cond: NetworkConditions,
    delay: Duration,
) -> VisitPair {
    let origin = OriginServer::new(site.clone(), kind.header_mode());
    visit_pair_with(&origin, site, kind.browser(), cond, delay)
}

/// What [`reload_each`] measured: the cold load and one warm reload
/// per delay, in the order the delays were given.
#[derive(Debug, Clone)]
pub struct Reloads {
    pub cold: LoadReport,
    pub warm: Vec<LoadReport>,
}

/// The evaluation procedure of the paper's §4, once: load `site` cold
/// at its [`first_visit_time`], then for each delay reload from a
/// clone of the cold profile at `t0 + delay`.
///
/// This is the only place a cold profile is cloned for a reload: an
/// experiment chooses the upstream and the browser, and what it sums.
pub fn reload_each(
    upstream: &dyn Upstream,
    site: &Site,
    mut cold: Browser,
    cond: NetworkConditions,
    delays: &[Duration],
) -> Reloads {
    let base = base_url_of(site);
    let t0 = first_visit_time(site);
    let first = cold.load(upstream, cond, &base, t0);
    let reload = |delay: &Duration| {
        let t1 = t0 + delay.as_secs() as i64;
        cold.clone().load(upstream, cond, &base, t1)
    };
    Reloads {
        warm: delays.iter().map(reload).collect(),
        cold: first,
    }
}

/// Like [`visit_pair`] but against an arbitrary upstream (proxies).
pub fn visit_pair_with(
    upstream: &dyn Upstream,
    site: &Site,
    browser: Browser,
    cond: NetworkConditions,
    delay: Duration,
) -> VisitPair {
    let Reloads { cold, mut warm } = reload_each(upstream, site, browser, cond, &[delay]);
    VisitPair {
        cold,
        warm: warm.remove(0),
    }
}

/// Everything [`visit_pair_traced`] captures for one cold+warm pair.
#[derive(Debug, Clone)]
pub struct TracedVisits {
    pub pair: VisitPair,
    /// One telemetry event per line, virtual-time stamped: page-load
    /// events, per-resource cache-decision audits, and every span.
    pub jsonl: String,
    /// The raw span trees (one trace per visit), timeline-sorted.
    pub spans: Vec<Span>,
    /// The spans rendered as an indented per-trace tree
    /// ([`crate::tracefmt::render`]).
    pub trace_text: String,
}

impl TracedVisits {
    /// Both visits' waterfalls under `# <name> …` headings, as
    /// `results/waterfall_<name>.txt` holds them; `delay_secs` is the
    /// revisit delay the pair ran with.
    pub fn waterfalls(&self, name: &str, delay_secs: u64) -> String {
        format!(
            "# {name} cold visit\n{}\n# {name} warm revisit (+{delay_secs}s)\n{}",
            self.pair.cold.trace.render_waterfall(72),
            self.pair.warm.trace.render_waterfall(72),
        )
    }
}

/// [`visit_pair`] with full capture: both visits run with sampling
/// forced on, a span sink shared between the browser and the origin
/// (so `origin.handle` spans nest under the browser's fetch spans via
/// the propagated `x-cc-trace` context), and a recorder whose events
/// (spans appended) are rendered with [`to_jsonl`].
pub fn visit_pair_traced(
    site: &Site,
    kind: ClientKind,
    cond: NetworkConditions,
    delay: Duration,
) -> TracedVisits {
    let sink = Arc::new(SpanSink::new(Sampling::Always));
    let origin = Arc::new(
        OriginServer::new(site.clone(), kind.header_mode()).with_span_sink(Arc::clone(&sink)),
    );
    let recorder = Arc::new(Recorder::new());
    let browser = kind
        .browser()
        .with_recorder(recorder.clone())
        .with_span_sink(Arc::clone(&sink));
    let pair = visit_pair_with(&origin, site, browser, cond, delay);
    let spans = sink.drain();
    for span in &spans {
        recorder.record(&Event::Span(span.clone()));
    }
    let trace_text = crate::tracefmt::render(&spans);
    TracedVisits {
        pair,
        jsonl: to_jsonl(&recorder.take()),
        spans,
        trace_text,
    }
}

/// One cell of the Figure-3 grid: the mean warm-visit PLT of two
/// client kinds over `sites × delays`, and the derived improvement.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridCell {
    pub baseline_plt_ms: f64,
    pub treatment_plt_ms: f64,
    pub samples: usize,
}

impl GridCell {
    /// Percent reduction in PLT of treatment vs baseline.
    pub fn improvement_percent(&self) -> f64 {
        if self.baseline_plt_ms <= 0.0 {
            return 0.0;
        }
        (self.baseline_plt_ms - self.treatment_plt_ms) / self.baseline_plt_ms * 100.0
    }
}

/// A full throughput × latency sweep for a (baseline, treatment) pair.
pub struct ExperimentGrid {
    pub throughputs: Vec<u64>,
    pub latencies: Vec<Duration>,
    /// Row-major: `cells[throughput_idx][latency_idx]`.
    pub cells: Vec<Vec<GridCell>>,
}

/// Whether the content on the server evolves between the first visit
/// and the reload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentModel {
    /// The paper's methodology: the cloned pages never change; only
    /// the client's clock advances (TTLs expire, validators match).
    Frozen,
    /// The extension: resources churn per the workload's change model,
    /// so some revalidations genuinely fail.
    Churning,
}

impl ContentModel {
    /// What a client sees of `origin` under this model: frozen at the
    /// site's [`first_visit_time`], or live.
    pub fn upstream(self, origin: OriginServer) -> Box<dyn Upstream> {
        let t0 = first_visit_time(origin.site());
        match self {
            ContentModel::Frozen => Box::new(FrozenUpstream::new(origin, t0)),
            ContentModel::Churning => Box::new(origin),
        }
    }
}

impl ExperimentGrid {
    /// Sweeps the grid. For each site the cold load is done once per
    /// condition and the browser state is cloned per revisit delay —
    /// matching the paper's "reload after Δ" methodology.
    pub fn run(
        sites: &[Site],
        baseline: ClientKind,
        treatment: ClientKind,
        throughputs: &[u64],
        latencies: &[Duration],
        delays: &[Duration],
    ) -> ExperimentGrid {
        Self::run_with_content(
            sites,
            baseline,
            treatment,
            throughputs,
            latencies,
            delays,
            ContentModel::Frozen,
        )
    }

    /// [`ExperimentGrid::run`] with an explicit content model.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_content(
        sites: &[Site],
        baseline: ClientKind,
        treatment: ClientKind,
        throughputs: &[u64],
        latencies: &[Duration],
        delays: &[Duration],
        content: ContentModel,
    ) -> ExperimentGrid {
        let mut cells = vec![vec![GridCell::default(); latencies.len()]; throughputs.len()];
        for site in sites {
            for (kind_idx, kind) in [baseline, treatment].into_iter().enumerate() {
                let upstream =
                    content.upstream(OriginServer::new(site.clone(), kind.header_mode()));
                for (ti, &bps) in throughputs.iter().enumerate() {
                    for (li, &rtt) in latencies.iter().enumerate() {
                        let cond = NetworkConditions::new(rtt, bps);
                        let cell = &mut cells[ti][li];
                        let browser = kind.browser();
                        for warm in reload_each(&*upstream, site, browser, cond, delays).warm {
                            if kind_idx == 0 {
                                cell.baseline_plt_ms += warm.plt_ms();
                                cell.samples += 1;
                            } else {
                                cell.treatment_plt_ms += warm.plt_ms();
                            }
                        }
                    }
                }
            }
        }
        for row in &mut cells {
            for cell in row {
                if cell.samples > 0 {
                    cell.baseline_plt_ms /= cell.samples as f64;
                    cell.treatment_plt_ms /= cell.samples as f64;
                }
            }
        }
        ExperimentGrid {
            throughputs: throughputs.to_vec(),
            latencies: latencies.to_vec(),
            cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_webmodel::{CorpusSpec, SiteSpec};

    fn tiny_corpus() -> Vec<Site> {
        cachecatalyst_webmodel::generate_corpus(&CorpusSpec {
            n_sites: 3,
            resources_median: 25.0,
            ..Default::default()
        })
    }

    #[test]
    fn visit_pair_warm_is_faster() {
        let site = Site::generate(SiteSpec {
            n_resources: 30,
            ..Default::default()
        });
        let pair = visit_pair(
            &site,
            ClientKind::Baseline,
            NetworkConditions::five_g_median(),
            Duration::from_secs(60),
        );
        assert!(pair.warm.plt < pair.cold.plt);
        assert!(pair.warm.cache_hits > 0);
    }

    #[test]
    fn catalyst_improves_over_baseline_on_corpus() {
        let sites = tiny_corpus();
        let grid = ExperimentGrid::run(
            &sites,
            ClientKind::Baseline,
            ClientKind::Catalyst,
            &[60_000_000],
            &[Duration::from_millis(40)],
            &[Duration::from_secs(3600)],
        );
        let cell = grid.cells[0][0];
        assert!(cell.samples == 3);
        assert!(
            cell.improvement_percent() > 5.0,
            "improvement {}% (baseline {} ms, catalyst {} ms)",
            cell.improvement_percent(),
            cell.baseline_plt_ms,
            cell.treatment_plt_ms
        );
    }

    #[test]
    fn improvement_grows_with_latency() {
        let sites = tiny_corpus();
        let grid = ExperimentGrid::run(
            &sites,
            ClientKind::Baseline,
            ClientKind::Catalyst,
            &[60_000_000],
            &[Duration::from_millis(10), Duration::from_millis(120)],
            &[Duration::from_secs(3600)],
        );
        let low = grid.cells[0][0].improvement_percent();
        let high = grid.cells[0][1].improvement_percent();
        assert!(high > low, "low-lat {low}% vs high-lat {high}%");
    }

    #[test]
    fn traced_visits_export_one_event_per_line() {
        let site = Site::generate(SiteSpec {
            n_resources: 12,
            ..Default::default()
        });
        let traced = visit_pair_traced(
            &site,
            ClientKind::Catalyst,
            NetworkConditions::five_g_median(),
            Duration::from_secs(60),
        );
        let (pair, jsonl) = (&traced.pair, &traced.jsonl);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines
            .iter()
            .all(|l| l.starts_with("{\"event\":") && l.ends_with('}')));
        let count = |kind: &str| {
            lines
                .iter()
                .filter(|l| l.contains(&format!("\"event\":\"{kind}\"")))
                .count()
        };
        assert_eq!(count("page_load_start"), 2);
        assert_eq!(count("page_load_end"), 2);
        // One fetch_end per traced fetch across both visits.
        assert_eq!(
            count("fetch_end"),
            pair.cold.trace.fetches.len() + pair.warm.trace.fetches.len()
        );
        // The warm visit produced local hits: zero-RTT outcomes appear.
        assert!(jsonl.contains("\"outcome\":\"etag-config-hit\""));
        // Both visits were sampled: two page_load roots, spans in the
        // JSONL, audits for every fetch, and a rendered tree.
        assert_eq!(
            traced
                .spans
                .iter()
                .filter(|s| s.name == "page_load")
                .count(),
            2
        );
        assert_eq!(count("span"), traced.spans.len());
        assert_eq!(
            count("cache_decision"),
            pair.cold.trace.fetches.len() + pair.warm.trace.fetches.len()
        );
        assert_eq!(traced.trace_text.matches("trace ").count(), 2);
        assert!(traced.trace_text.contains("origin.handle"));
    }

    #[test]
    fn first_visit_times_are_spread() {
        let sites = tiny_corpus();
        let t: Vec<i64> = sites.iter().map(first_visit_time).collect();
        assert_ne!(t[0], t[1]);
        assert!(t.iter().all(|&x| x >= 30 * 86_400));
    }
}
