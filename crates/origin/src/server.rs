//! The origin server's request handler (transport-agnostic).
//!
//! This is the reproduction's counterpart of the paper's modified
//! Caddy: it serves a generated [`Site`], always attaches validators,
//! answers conditional requests with `304`, and — in CacheCatalyst
//! mode — walks the DOM of every HTML response to attach the
//! `X-Etag-Config` map and the service-worker registration (§3).
//!
//! The handler is sans-IO: `handle(request, t_secs)` → response. The
//! discrete-event transport calls it with virtual time; the tokio TCP
//! front end (see [`crate::tcp`]) calls it with wall time.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use cachecatalyst_catalyst::{
    build_config_with_bodies, inject_registration, AggregateCapture, ExtractOptions,
    SessionCapture, SW_SCRIPT, SW_SCRIPT_PATH,
};
use cachecatalyst_httpwire::conditional::{evaluate, Disposition, Validators};
use cachecatalyst_httpwire::tracectx::Hop;
use cachecatalyst_httpwire::{
    Body, HeaderName, HttpDate, Method, Request, Response, StatusCode, Upstream,
};
use cachecatalyst_telemetry::span::{Sampling, SpanSink};
use cachecatalyst_telemetry::{Counter, Gauge, Histogram, Registry};
use cachecatalyst_webmodel::{GeneratedResource, HeaderPolicy, ResourceKind, Site};
use parking_lot::Mutex;

use crate::hotpath::{ChurnEpochs, ShardedCache};
use crate::served::{date_field, Field, PageMap, Served, SERVER};

/// How the origin sets caching headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderMode {
    /// Status quo: the developer-assigned policy from the workload
    /// model (`no-store` / `no-cache` / conservative `max-age`).
    Baseline,
    /// The paper's mechanism: no TTLs at all; HTML responses carry
    /// `X-Etag-Config` built by static extraction, plus SW
    /// registration. Subresources are served `no-cache` so non-SW
    /// clients remain correct.
    Catalyst,
    /// Catalyst plus session capture: the map for a returning session
    /// also covers resources recorded on its first visit (covers
    /// JS-discovered resources).
    CatalystWithCapture,
    /// Catalyst plus *aggregate* capture: the map covers resources
    /// popular across all visitors of the page (our answer to §6's
    /// memory-footprint problem; memory independent of traffic).
    CatalystAggregate,
    /// Everything `no-store` (a lower bound used in ablations).
    NoStore,
}

impl HeaderMode {
    /// Whether this mode attaches `X-Etag-Config` to HTML.
    pub fn is_catalyst(self) -> bool {
        matches!(
            self,
            HeaderMode::Catalyst | HeaderMode::CatalystWithCapture | HeaderMode::CatalystAggregate
        )
    }

    /// Stable label for metric series.
    pub fn label(self) -> &'static str {
        match self {
            HeaderMode::Baseline => "baseline",
            HeaderMode::Catalyst => "catalyst",
            HeaderMode::CatalystWithCapture => "catalyst-capture",
            HeaderMode::CatalystAggregate => "catalyst-aggregate",
            HeaderMode::NoStore => "no-store",
        }
    }
}

/// Counters for served traffic (a point-in-time snapshot of the
/// registry-backed atomics; see [`OriginServer::metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OriginMetrics {
    pub requests: u64,
    pub full_responses: u64,
    pub not_modified: u64,
    pub not_found: u64,
    pub bytes_sent: u64,
    pub configs_built: u64,
    pub config_cache_hits: u64,
}

/// The per-request metric handles, resolved from the registry once —
/// on the first handled request — so the hot path touches only
/// atomics, never the registry's name-lookup mutex. Resolution is
/// deferred (not done at construction) so a server that has seen no
/// site traffic exposes no traffic series on `/metrics`.
struct HotMetrics {
    requests: Arc<Counter>,
    responses_2xx: Arc<Counter>,
    responses_3xx: Arc<Counter>,
    responses_4xx: Arc<Counter>,
    responses_5xx: Arc<Counter>,
    not_modified: Arc<Counter>,
    not_found: Arc<Counter>,
    full_responses: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    config_header_bytes: Arc<Counter>,
    handle_seconds: Arc<Histogram>,
    configs_built: Arc<Counter>,
    config_cache_hits: Arc<Counter>,
    map_build_seconds: Arc<Histogram>,
    map_entries: Arc<Gauge>,
}

impl HotMetrics {
    fn resolve(telemetry: &Registry, mode: &'static str) -> HotMetrics {
        let class = |c: &'static str| {
            telemetry.counter(
                "origin_responses_total",
                "Responses by status class",
                &[("class", c)],
            )
        };
        HotMetrics {
            requests: telemetry.counter(
                "origin_requests_total",
                "Requests handled by the origin",
                &[("mode", mode)],
            ),
            responses_2xx: class("2xx"),
            responses_3xx: class("3xx"),
            responses_4xx: class("4xx"),
            responses_5xx: class("5xx"),
            not_modified: telemetry.counter(
                "origin_not_modified_total",
                "Conditional requests answered 304",
                &[],
            ),
            not_found: telemetry.counter(
                "origin_not_found_total",
                "Requests for paths the site does not contain",
                &[],
            ),
            full_responses: telemetry.counter(
                "origin_full_responses_total",
                "Requests answered with a full 200 body",
                &[],
            ),
            bytes_sent: telemetry.counter(
                "origin_bytes_sent_total",
                "Response bytes on the wire",
                &[],
            ),
            config_header_bytes: telemetry.counter(
                "origin_etag_config_header_bytes_total",
                "X-Etag-Config header bytes sent",
                &[],
            ),
            handle_seconds: telemetry.histogram(
                "origin_handle_seconds",
                "Sans-IO request handling latency",
                &[("mode", mode)],
            ),
            configs_built: telemetry.counter(
                "origin_configs_built_total",
                "X-Etag-Config maps built (config-cache misses)",
                &[],
            ),
            config_cache_hits: telemetry.counter(
                "origin_config_cache_hits_total",
                "Config-cache hits (no rebuild needed)",
                &[],
            ),
            map_build_seconds: telemetry.histogram(
                "origin_map_build_seconds",
                "Time to build one X-Etag-Config map",
                &[],
            ),
            map_entries: telemetry.gauge(
                "origin_map_entries",
                "Entries in the most recently built X-Etag-Config map",
                &[],
            ),
        }
    }
}

/// Facts the handler learns along the way, surfaced on a traced
/// request's span and `x-cc-epoch` header. Lives on the stack of one
/// `handle` call.
#[derive(Default)]
struct HandleNotes {
    epoch: Option<u64>,
    config_cache_hit: Option<bool>,
}

/// The origin server for one site.
pub struct OriginServer {
    site: Site,
    mode: HeaderMode,
    extract_opts: ExtractOptions,
    /// Per-resource churn epochs: precomputed dependency closures
    /// whose version fold decides cache validity at any `t`.
    epochs: ChurnEpochs,
    /// What each path serves, keyed by path and validated by churn
    /// epoch: the rendered (and, in catalyst modes, registration-
    /// injected) body — one allocation shared by every response and
    /// the map builder, carrying whatever has been derived from it so
    /// far — with its validators, heads and, on a page, its map. A
    /// request at any `t` in the same epoch is a hit; an epoch change
    /// replaces the entry in place, so the cache never exceeds one
    /// entry per path (a `(path, t)` key would leak one per second).
    served: ShardedCache<Arc<Served>>,
    capture: Mutex<SessionCapture>,
    aggregate: Mutex<AggregateCapture>,
    hot: OnceLock<HotMetrics>,
    telemetry: Arc<Registry>,
    /// Distributed-tracing sink. Off by default: the per-request cost
    /// is then a single field compare in [`OriginServer::handle`].
    spans: Arc<SpanSink>,
}

impl OriginServer {
    pub fn new(site: Site, mode: HeaderMode) -> OriginServer {
        let epochs = ChurnEpochs::new(&site);
        OriginServer {
            site,
            mode,
            extract_opts: ExtractOptions::default(),
            epochs,
            served: ShardedCache::new(),
            capture: Mutex::new(SessionCapture::new(10_000)),
            aggregate: Mutex::new(AggregateCapture::default()),
            hot: OnceLock::new(),
            telemetry: Arc::new(Registry::new()),
            spans: Arc::new(SpanSink::new(Sampling::Off)),
        }
    }

    /// The pre-resolved metric handles (first call registers them).
    fn hot(&self) -> &HotMetrics {
        self.hot
            .get_or_init(|| HotMetrics::resolve(&self.telemetry, self.mode.label()))
    }

    /// The server's metric registry (rendered by `/metrics`).
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Registers this origin's series in `registry` instead of a
    /// private one. Fleet harnesses hand the same registry to every
    /// origin: the registry dedupes series by `(name, labels)`, so
    /// counters aggregate across the whole origin tier and one scrape
    /// reads fleet totals. Apply before the first handled request —
    /// the hot metric handles freeze on first use.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> OriginServer {
        assert!(
            self.hot.get().is_none(),
            "with_registry must be applied before the first request"
        );
        self.telemetry = registry;
        self
    }

    /// Routes origin-side tracing spans to `spans`. With the sink off
    /// (the default) the handler's tracing cost is one field compare
    /// per request.
    pub fn with_span_sink(mut self, spans: Arc<SpanSink>) -> OriginServer {
        self.spans = spans;
        self
    }

    /// The server's span sink (shared with proxies wrapping this
    /// origin, so one drain yields the whole server-side tree).
    pub fn span_sink(&self) -> &Arc<SpanSink> {
        &self.spans
    }

    /// Enables the cross-origin extension (paper §6, issue 2): the
    /// origin resolves third-party references itself and includes
    /// their tokens in the map, keyed by full URL.
    pub fn with_cross_origin(mut self) -> OriginServer {
        self.extract_opts.include_cross_origin = true;
        self
    }

    pub fn site(&self) -> &Site {
        &self.site
    }

    pub fn mode(&self) -> HeaderMode {
        self.mode
    }

    /// A snapshot of the traffic counters. Reads the same atomics the
    /// Prometheus endpoint renders; before the first request every
    /// field is zero.
    pub fn metrics(&self) -> OriginMetrics {
        let Some(hot) = self.hot.get() else {
            return OriginMetrics::default();
        };
        OriginMetrics {
            requests: hot.requests.get(),
            full_responses: hot.full_responses.get(),
            not_modified: hot.not_modified.get(),
            not_found: hot.not_found.get(),
            bytes_sent: hot.bytes_sent.get(),
            configs_built: hot.configs_built.get(),
            config_cache_hits: hot.config_cache_hits.get(),
        }
    }

    /// Handles one request at virtual time `t_secs`.
    pub fn handle(&self, req: &Request, t_secs: i64) -> Response {
        let started = std::time::Instant::now();
        // Tracing gate: with the sink off this is one field compare and
        // `hop` is `None` — no header lookup, no allocation.
        let hop = Hop::enter(&self.spans, req);
        let mut notes = HandleNotes::default();
        let mut resp = self.handle_inner(req, t_secs, &mut notes);
        let took = started.elapsed();
        if let Some(hop) = hop {
            // The epoch header lets the client-side audit attribute
            // its decision to the origin's churn epoch.
            if let Some(epoch) = notes.epoch {
                resp.headers
                    .insert(HeaderName::X_CC_EPOCH, &epoch.to_string());
            }
            let mut attrs = vec![
                ("path", req.target.path().to_owned()),
                ("status", resp.status.as_u16().to_string()),
                ("mode", self.mode.label().to_owned()),
                ("bytes", resp.body.len().to_string()),
            ];
            if let Some(hit) = notes.config_cache_hit {
                attrs.push(("config_cache", if hit { "hit" } else { "miss" }.to_owned()));
            }
            if let Some(epoch) = notes.epoch {
                attrs.push(("epoch", epoch.to_string()));
            }
            // On the sender's clock when the context carries one
            // (virtual ms under the simulator); the duration is the
            // real handler time.
            let took_ms = took.as_secs_f64() * 1000.0;
            hop.finish(&self.spans, "origin.handle", t_secs, took_ms, attrs);
        }
        self.observe_request(&resp, took);
        resp
    }

    /// Per-request telemetry: mode-labelled request count, status
    /// class, 304s, bytes, handler latency, and the `X-Etag-Config`
    /// header overhead actually put on the wire. Pure atomic
    /// increments — no registry lookups, no locks.
    fn observe_request(&self, resp: &Response, took: std::time::Duration) {
        let hot = self.hot();
        hot.requests.inc();
        let class = match resp.status.as_u16() {
            200..=299 => &hot.responses_2xx,
            300..=399 => &hot.responses_3xx,
            400..=499 => &hot.responses_4xx,
            _ => &hot.responses_5xx,
        };
        class.inc();
        if resp.status == StatusCode::NOT_MODIFIED {
            hot.not_modified.inc();
        }
        hot.bytes_sent.add(resp.wire_len() as u64);
        hot.handle_seconds.observe(took);
        let config_bytes: usize = resp
            .headers
            .get_all(HeaderName::X_ETAG_CONFIG)
            .map(str::len)
            .sum();
        if config_bytes > 0 {
            hot.config_header_bytes.add(config_bytes as u64);
        }
    }

    fn handle_inner(&self, req: &Request, t_secs: i64, notes: &mut HandleNotes) -> Response {
        if req.method != Method::Get && req.method != Method::Head {
            return Response::empty(StatusCode::METHOD_NOT_ALLOWED);
        }
        let path = req.target.path();

        if path == SW_SCRIPT_PATH {
            return sw_script(req, t_secs);
        }

        let Some((resource, pinned)) = self.site.lookup(path) else {
            self.hot().not_found.inc();
            let mut resp = Response::empty(StatusCode::NOT_FOUND);
            resp.headers
                .insert(HeaderName::DATE, date_field(t_secs).1.as_str());
            return resp;
        };
        let epoch = self.epoch_of(path, pinned, t_secs);
        notes.epoch = epoch;

        // Record for session capture (subresources only), keyed by the
        // page that referenced the resource (Referer header; fall back
        // to the home page).
        if self.mode == HeaderMode::CatalystWithCapture {
            if let Some(session) = session_of(req) {
                let page = page_of(req).unwrap_or_else(|| self.site.base_path().to_owned());
                self.capture.lock().record(&session, &page, path);
            }
        }
        if self.mode == HeaderMode::CatalystAggregate {
            let mut agg = self.aggregate.lock();
            if resource.spec.kind == ResourceKind::Html {
                agg.record_visit(path);
            } else {
                let page = page_of(req).unwrap_or_else(|| self.site.base_path().to_owned());
                agg.record(&page, path);
            }
        }

        let served = self.served(path, t_secs, resource, epoch);
        let validators = Validators::new(Some(&served.etag), Some(served.last_modified));
        let not_modified = evaluate(req, &validators) == Disposition::NotModified;
        // CacheCatalyst: pages carry the validation-token map — a 304
        // too, since subresources may have changed under an unchanged
        // page.
        let is_page = resource.spec.kind == ResourceKind::Html && self.mode.is_catalyst();
        let map = if is_page && epoch.is_some() {
            self.map_for(&served, path, req, t_secs, notes)
        } else {
            Cow::Borrowed(&[][..])
        };
        if !not_modified {
            self.hot().full_responses.inc();
        }
        served.respond(
            not_modified,
            req.method == Method::Head,
            date_field(t_secs),
            &map,
        )
    }

    /// The churn epoch `path` is served under at `t_secs`; `None` for a
    /// fingerprinted URL, which pins its version in the path.
    fn epoch_of(&self, path: &str, pinned: Option<u64>, t_secs: i64) -> Option<u64> {
        pinned.is_none().then(|| {
            self.epochs
                .epoch_at(path, t_secs)
                .expect("a site resource has an epoch")
        })
    }

    /// What `path` serves at `t_secs`, which [`Site::lookup`] resolved
    /// to `resource` and [`OriginServer::epoch_of`] to `epoch`. Built
    /// once per churn epoch (the body rendered, and registration-
    /// injected for catalyst HTML) and shared by every response and by
    /// the map builder; a fingerprinted URL (no epoch) builds one that
    /// is not kept.
    fn served(
        &self,
        path: &str,
        t_secs: i64,
        resource: &GeneratedResource,
        epoch: Option<u64>,
    ) -> Arc<Served> {
        if let Some(hit) = epoch.and_then(|epoch| self.served.get(path, epoch)) {
            return hit;
        }
        let rendered = self
            .site
            .body_at(path, t_secs)
            .expect("resource exists, body exists");
        let body = if resource.spec.kind == ResourceKind::Html && self.mode.is_catalyst() {
            Body::from(inject_registration(&String::from_utf8_lossy(&rendered)))
        } else {
            Body::from(rendered)
        };
        let served = Arc::new(Served::new(
            body,
            resource.spec.kind.mime(),
            self.site
                .etag_at(path, t_secs)
                .expect("resource exists, etag exists"),
            HttpDate(resource.spec.change.last_change_at(t_secs)),
            &self.cache_control(&resource.policy),
        ));
        if let Some(epoch) = epoch {
            self.served.insert(path, epoch, Arc::clone(&served));
        }
        served
    }

    /// The map fields a request for `page`, served from `served`,
    /// carries: the epoch's static-extraction map, extended with any
    /// session-captured or aggregate-learned paths.
    fn map_for<'s>(
        &self,
        served: &'s Served,
        page: &str,
        req: &Request,
        t_secs: i64,
        notes: &mut HandleNotes,
    ) -> Cow<'s, [Field]> {
        let built = self.page_map(served, page, t_secs, notes);
        let extra = match self.mode {
            HeaderMode::CatalystWithCapture => session_of(req).map(|session| {
                self.capture
                    .lock()
                    .config_for(&session, page, &|p| self.site.etag_at(p, t_secs))
            }),
            HeaderMode::CatalystAggregate => Some(
                self.aggregate
                    .lock()
                    .config_for(page, &|p| self.site.etag_at(p, t_secs)),
            ),
            _ => None,
        };
        match extra {
            // Session- or population-specific map: merge (moving the
            // extra entries) and serialize for this response.
            Some(extra) if !extra.is_empty() => {
                let mut config = built.config.clone();
                config.merge(extra);
                Cow::Owned(config.header_fields())
            }
            // The common case: the fields built with the map.
            _ => Cow::Borrowed(&built.fields),
        }
    }

    /// The static-extraction map of `page` for the epoch `served`
    /// belongs to, built by the first request that needs it: that
    /// request counts a build, every other one (including any that
    /// waited for the build) a hit.
    fn page_map<'s>(
        &self,
        served: &'s Served,
        page: &str,
        t_secs: i64,
        notes: &mut HandleNotes,
    ) -> &'s PageMap {
        let mut built = false;
        let map = served.map.get_or_init(|| {
            built = true;
            let build_start = std::time::Instant::now();
            // The builder reads the bodies this server already holds
            // for the epoch — the (injected) page and each stylesheet —
            // so nothing is rendered a second time, and their links are
            // the ones any later reader of those allocations reuses.
            let config =
                build_config_with_bodies(&self.site, page, t_secs, &self.extract_opts, &|path| {
                    let (resource, pinned) = self.site.lookup(path)?;
                    let epoch = self.epoch_of(path, pinned, t_secs);
                    Some(self.served(path, t_secs, resource, epoch).body.clone())
                });
            let hot = self.hot();
            hot.configs_built.inc();
            hot.map_build_seconds.observe(build_start.elapsed());
            hot.map_entries.set(config.len() as f64);
            PageMap {
                fields: config.header_fields(),
                config,
            }
        });
        if !built {
            self.hot().config_cache_hits.inc();
        }
        notes.config_cache_hit = Some(!built);
        map
    }

    /// The `Cache-Control` this server's mode puts on a resource whose
    /// developer policy is `policy`.
    fn cache_control(&self, policy: &HeaderPolicy) -> String {
        match self.mode {
            HeaderMode::Baseline => policy.to_cache_control().to_string(),
            HeaderMode::NoStore => "no-store".to_owned(),
            HeaderMode::Catalyst
            | HeaderMode::CatalystWithCapture
            | HeaderMode::CatalystAggregate => {
                // No TTL guessing anywhere (§3: "there is no need to
                // specify the TTL value or set max-age"). `no-cache`
                // keeps clients without the SW correct; HTML is also
                // always revalidated. `no-store` is preserved — the
                // paper's SW only caches resources without it.
                if matches!(policy, HeaderPolicy::NoStore) {
                    "no-store".to_owned()
                } else {
                    "no-cache".to_owned()
                }
            }
        }
    }
}

/// An origin answers for every host it is asked about (the paper's
/// cloned-onto-one-server methodology); put it behind a `MultiOrigin`
/// to route by host.
impl Upstream for OriginServer {
    fn handle(&self, _host: &str, req: &Request, t_secs: i64) -> Response {
        OriginServer::handle(self, req, t_secs)
    }
}

/// The service-worker script: the one 200 the origin serves that is
/// not a site resource, so it has no epoch and builds its own head.
fn sw_script(req: &Request, t_secs: i64) -> Response {
    let mut resp = Response::ok(Bytes::from_static(SW_SCRIPT.as_bytes()));
    let date = date_field(t_secs);
    for (name, value) in [
        (HeaderName::CONTENT_TYPE, "application/javascript"),
        (HeaderName::CACHE_CONTROL, "max-age=86400"),
        (HeaderName::DATE, date.1.as_str()),
        (HeaderName::SERVER, SERVER),
    ] {
        resp.headers.insert(name, value);
    }
    if req.method == Method::Head {
        resp.body = Body::new();
    }
    resp
}

/// The page a subresource request belongs to, from its Referer.
fn page_of(req: &Request) -> Option<String> {
    let referer = req.headers.get("referer")?;
    cachecatalyst_httpwire::Url::parse(referer)
        .ok()
        .map(|u| u.path().to_owned())
}

/// Extracts the `cc-session` cookie.
fn session_of(req: &Request) -> Option<String> {
    let cookies = req.headers.get("cookie")?;
    for part in cookies.split(';') {
        let part = part.trim();
        if let Some(v) = part.strip_prefix("cc-session=") {
            return Some(v.to_owned());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_catalyst::EtagConfig;
    use cachecatalyst_webmodel::example_site;

    /// The map a client may act on, off a response's head.
    fn map_of(resp: &Response) -> EtagConfig {
        EtagConfig::accept(&resp.headers).expect("the origin's map passes its digest")
    }

    fn server(mode: HeaderMode) -> OriginServer {
        OriginServer::new(example_site(), mode)
    }

    #[test]
    fn serves_resources_with_validators() {
        let s = server(HeaderMode::Baseline);
        let resp = s.handle(&Request::get("/a.css"), 1000);
        assert_eq!(resp.status, StatusCode::OK);
        assert!(resp.etag().is_some());
        assert!(resp.last_modified().is_some());
        assert_eq!(resp.headers.get("content-type"), Some("text/css"));
        assert_eq!(resp.headers.get("cache-control"), Some("max-age=604800"));
        assert_eq!(resp.date().unwrap().as_secs(), 1000);
    }

    #[test]
    fn as_an_upstream_the_origin_ignores_the_host() {
        let s = server(HeaderMode::Baseline);
        let resp = Upstream::handle(&s, "anything.example", &Request::get("/a.css"), 0);
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.etag(), s.handle(&Request::get("/a.css"), 0).etag());
    }

    #[test]
    fn unknown_path_is_404() {
        let s = server(HeaderMode::Baseline);
        assert_eq!(
            s.handle(&Request::get("/nope"), 0).status,
            StatusCode::NOT_FOUND
        );
        assert_eq!(s.metrics().not_found, 1);
    }

    #[test]
    fn conditional_get_hits_304() {
        let s = server(HeaderMode::Baseline);
        let first = s.handle(&Request::get("/a.css"), 0);
        let tag = first.etag().unwrap();
        let revalidate = Request::get("/a.css").with_header("if-none-match", &tag.to_string());
        let resp = s.handle(&revalidate, 100);
        assert_eq!(resp.status, StatusCode::NOT_MODIFIED);
        assert!(resp.body.is_empty());
        assert_eq!(resp.etag().unwrap(), tag);
        assert_eq!(s.metrics().not_modified, 1);
    }

    #[test]
    fn conditional_get_after_change_sends_full() {
        let s = server(HeaderMode::Baseline);
        let first = s.handle(&Request::get("/d.jpg"), 0);
        let tag = first.etag().unwrap();
        // d.jpg changes every 100 minutes; at +2h it is different.
        let revalidate = Request::get("/d.jpg").with_header("if-none-match", &tag.to_string());
        let resp = s.handle(&revalidate, 7200);
        assert_eq!(resp.status, StatusCode::OK);
        assert_ne!(resp.etag().unwrap(), tag);
        assert!(!resp.body.is_empty());
    }

    #[test]
    fn baseline_html_has_no_config() {
        let s = server(HeaderMode::Baseline);
        let resp = s.handle(&Request::get("/index.html"), 0);
        assert!(resp.headers.get("x-etag-config").is_none());
        assert!(!String::from_utf8_lossy(&resp.body).contains("serviceWorker"));
    }

    #[test]
    fn catalyst_html_carries_config_and_registration() {
        let s = server(HeaderMode::Catalyst);
        let resp = s.handle(&Request::get("/index.html"), 0);
        let config = map_of(&resp);
        assert!(config.get("/a.css").is_some());
        assert!(config.get("/b.js").is_some());
        assert!(config.get("/c.js").is_none(), "JS-discovered not covered");
        assert!(String::from_utf8_lossy(&resp.body).contains("serviceWorker"));
        // Tags in the map match what the subresource responses carry.
        let a = s.handle(&Request::get("/a.css"), 0);
        assert_eq!(config.get("/a.css").unwrap(), &a.etag().unwrap());
    }

    #[test]
    fn catalyst_config_carries_matching_integrity_digest() {
        let s = server(HeaderMode::Catalyst);
        // Full response and conditional 304 both carry a verifiable
        // map; the cached fast path (second request) reuses the
        // precomputed digest.
        let first = map_of(&s.handle(&Request::get("/index.html"), 0));
        assert!(!first.is_empty());
        assert_eq!(map_of(&s.handle(&Request::get("/index.html"), 0)), first);
        let tag = s.handle(&Request::get("/index.html"), 0).etag().unwrap();
        let resp = s.handle(
            &Request::get("/index.html").with_header("if-none-match", &tag.to_string()),
            60,
        );
        assert_eq!(resp.status, StatusCode::NOT_MODIFIED);
        assert!(resp.headers.contains(HeaderName::X_CC_CONFIG_DIGEST));
        assert_eq!(map_of(&resp), first);
        // Subresources and baseline HTML carry no digest.
        let resp = s.handle(&Request::get("/a.css"), 0);
        assert!(resp.headers.get(HeaderName::X_CC_CONFIG_DIGEST).is_none());
    }

    #[test]
    fn capture_merged_config_is_redigested() {
        let s = server(HeaderMode::CatalystWithCapture);
        let session = |r: Request| r.with_header("cookie", "cc-session=alice");
        s.handle(&session(Request::get("/index.html")), 0);
        s.handle(&session(Request::get("/d.jpg")), 0);
        let resp = s.handle(&session(Request::get("/index.html")), 60);
        assert!(resp.headers.contains(HeaderName::X_CC_CONFIG_DIGEST));
        let config = map_of(&resp);
        assert!(config.get("/d.jpg").is_some(), "capture extended the map");
    }

    #[test]
    fn catalyst_subresources_have_no_ttl() {
        let s = server(HeaderMode::Catalyst);
        let resp = s.handle(&Request::get("/a.css"), 0);
        assert_eq!(resp.headers.get("cache-control"), Some("no-cache"));
    }

    #[test]
    fn catalyst_serves_sw_script() {
        let s = server(HeaderMode::Catalyst);
        let resp = s.handle(&Request::get(SW_SCRIPT_PATH), 0);
        assert_eq!(resp.status, StatusCode::OK);
        assert!(String::from_utf8_lossy(&resp.body).contains("x-etag-config"));
    }

    #[test]
    fn config_cache_avoids_rebuilds() {
        let s = server(HeaderMode::Catalyst);
        s.handle(&Request::get("/index.html"), 0);
        s.handle(&Request::get("/index.html"), 0);
        let m = s.metrics();
        assert_eq!(m.configs_built, 1);
        assert_eq!(m.config_cache_hits, 1);
    }

    #[test]
    fn revisit_at_new_time_within_epoch_is_cache_hit() {
        let s = server(HeaderMode::Catalyst);
        // The example site's shortest period in /index.html's closure
        // is 90 minutes; every second below 5400 is one churn epoch.
        s.handle(&Request::get("/index.html"), 0);
        for t in [1, 60, 3600, 5399] {
            s.handle(&Request::get("/index.html"), t);
        }
        let m = s.metrics();
        assert_eq!(m.configs_built, 1, "one build covers the whole epoch");
        assert_eq!(m.config_cache_hits, 4);
        // Crossing the epoch boundary (index.html changes at t=5400)
        // rebuilds exactly once.
        s.handle(&Request::get("/index.html"), 5401);
        assert_eq!(s.metrics().configs_built, 2);
    }

    #[test]
    fn the_epoch_cache_stays_bounded_across_epochs() {
        let s = server(HeaderMode::Catalyst);
        // Sweep a week of virtual time: hundreds of distinct `t`s and
        // dozens of epoch changes. A `(path, t)` key would grow one
        // entry per distinct `t`; the path-keyed cache replaces in
        // place, so it never exceeds one entry per path the map
        // builder or a request touched.
        for i in 0..500 {
            s.handle(&Request::get("/index.html"), i * 1200);
        }
        assert_eq!(s.served.len(), 2, "the page and its stylesheet");
        assert!(s.metrics().configs_built > 10, "epochs did roll over");
    }

    /// The same bound with eight threads racing through the epochs, and
    /// every page request counted once: it built its epoch's map or used
    /// the one another request built.
    #[test]
    fn the_epoch_cache_stays_bounded_under_eight_threads() {
        let s = server(HeaderMode::Catalyst);
        std::thread::scope(|scope| {
            for thread in 0..8 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..100 {
                        s.handle(&Request::get("/index.html"), i * 1200 + thread);
                    }
                });
            }
        });
        assert_eq!(s.served.len(), 2, "the page and its stylesheet");
        let m = s.metrics();
        assert_eq!(m.configs_built + m.config_cache_hits, 800);
        assert!(m.configs_built > 10, "epochs did roll over");
    }

    #[test]
    fn config_reflects_subresource_change_within_page_version() {
        // /d.jpg (period 100 min) is in /index.html's closure via
        // b.js → c.js, so its churn must invalidate the cached config
        // even when the page document itself is unchanged. The page
        // changes at 5400; d.jpg at 6000. Between those instants the
        // cached entry from t=5401 must be evicted at t=6001.
        let s = server(HeaderMode::Catalyst);
        s.handle(&Request::get("/index.html"), 5401);
        assert_eq!(s.metrics().configs_built, 1);
        s.handle(&Request::get("/index.html"), 6001);
        assert_eq!(
            s.metrics().configs_built,
            2,
            "subresource churn must rebuild the map"
        );
    }

    #[test]
    fn bodies_are_shared_not_recopied() {
        let s = server(HeaderMode::Baseline);
        let a = s.handle(&Request::get("/a.css"), 0);
        let b = s.handle(&Request::get("/a.css"), 30);
        // Same epoch → the two responses share one allocation, not
        // equal copies.
        assert_eq!(a.body, b.body);
        assert!(a.body.shares_allocation_with(&b.body));
    }

    #[test]
    fn capture_mode_extends_config_for_session() {
        let s = server(HeaderMode::CatalystWithCapture);
        let session = |r: Request| r.with_header("cookie", "cc-session=alice");
        // First visit: browser fetches the JS-discovered /d.jpg too.
        s.handle(&session(Request::get("/index.html")), 0);
        s.handle(&session(Request::get("/c.js")), 0);
        s.handle(&session(Request::get("/d.jpg")), 0);
        // Second visit: the map now covers the captured resources.
        let resp = s.handle(&session(Request::get("/index.html")), 60);
        let config = map_of(&resp);
        assert!(config.get("/c.js").is_some());
        assert!(config.get("/d.jpg").is_some());
        // A different session does not get them.
        let other = Request::get("/index.html").with_header("cookie", "cc-session=bob");
        let resp = s.handle(&other, 60);
        let config = map_of(&resp);
        assert!(config.get("/d.jpg").is_none());
    }

    #[test]
    fn aggregate_mode_learns_popular_resources() {
        let s = server(HeaderMode::CatalystAggregate);
        // Three visitors all fetch the JS-discovered resources; no
        // sessions or cookies needed.
        for visitor in 0..3 {
            let _ = visitor;
            s.handle(&Request::get("/index.html"), 0);
            let referer = |r: Request| r.with_header("referer", "http://example.org/index.html");
            s.handle(&referer(Request::get("/c.js")), 0);
            s.handle(&referer(Request::get("/d.jpg")), 0);
        }
        let resp = s.handle(&Request::get("/index.html"), 60);
        let config = map_of(&resp);
        assert!(config.get("/c.js").is_some(), "{config}");
        assert!(config.get("/d.jpg").is_some());
    }

    #[test]
    fn head_requests_have_no_body() {
        let s = server(HeaderMode::Baseline);
        let mut req = Request::get("/a.css");
        req.method = Method::Head;
        let resp = s.handle(&req, 0);
        assert!(resp.body.is_empty());
        assert!(resp.etag().is_some());
    }

    #[test]
    fn a_head_after_a_get_hands_out_neither_the_body_nor_its_facts() {
        let s = server(HeaderMode::Baseline);
        let got = s.handle(&Request::get("/a.css"), 0);
        let digest = got.body.digest();
        let mut req = Request::get("/a.css");
        req.method = Method::Head;
        let head = s.handle(&req, 0);
        assert_eq!(
            head.headers.get("content-length"),
            got.headers.get("content-length")
        );
        assert!(head.body.is_empty());
        assert!(!head.body.shares_allocation_with(&got.body));
        assert_eq!(head.body.known_digest(), None);
        assert_ne!(head.body.digest(), digest);
        // The epoch's body is untouched by the stripped copy.
        let again = s.handle(&Request::get("/a.css"), 0);
        assert!(again.body.shares_allocation_with(&got.body));
        assert_eq!(again.body.known_digest(), Some(digest));
    }

    #[test]
    fn the_map_read_from_served_bodies_equals_one_built_from_fresh_renders() {
        use cachecatalyst_webmodel::SiteSpec;
        for seed in 0..4 {
            let site = Site::generate(SiteSpec {
                seed,
                n_resources: 30,
                n_pages: 2,
                third_party_fraction: 0.2,
                fingerprinted_fraction: 0.3,
                ..SiteSpec::default()
            });
            let pages = site.pages();
            let s = OriginServer::new(site.clone(), HeaderMode::Catalyst).with_cross_origin();
            let opts = ExtractOptions {
                include_cross_origin: true,
            };
            for t in [0, 3_600, 86_400, 86_401] {
                for page in &pages {
                    let served = map_of(&s.handle(&Request::get(page), t));
                    let fresh = build_config_with_bodies(&site, page, t, &opts, &|path| {
                        site.body_at(path, t).map(Body::from)
                    });
                    assert_eq!(served, fresh, "seed {seed} {page} t={t}");
                }
            }
        }
    }

    #[test]
    fn post_is_rejected() {
        let s = server(HeaderMode::Baseline);
        let mut req = Request::get("/a.css");
        req.method = Method::Post;
        assert_eq!(s.handle(&req, 0).status, StatusCode::METHOD_NOT_ALLOWED);
    }

    #[test]
    fn telemetry_counts_requests_and_status_classes() {
        let s = server(HeaderMode::Catalyst);
        s.handle(&Request::get("/index.html"), 0);
        let tag = s.handle(&Request::get("/a.css"), 0).etag().unwrap();
        s.handle(
            &Request::get("/a.css").with_header("if-none-match", &tag.to_string()),
            0,
        );
        s.handle(&Request::get("/nope"), 0);
        let text = s.telemetry().render_prometheus();
        assert!(
            text.contains("origin_requests_total{mode=\"catalyst\"} 4"),
            "{text}"
        );
        assert!(text.contains("origin_responses_total{class=\"2xx\"} 2"));
        assert!(text.contains("origin_responses_total{class=\"3xx\"} 1"));
        assert!(text.contains("origin_responses_total{class=\"4xx\"} 1"));
        assert!(text.contains("origin_not_modified_total 1"));
        assert!(text.contains("origin_handle_seconds_count{mode=\"catalyst\"} 4"));
        // The HTML response carried a config map → header bytes and a
        // map-build observation exist.
        assert!(text.contains("origin_etag_config_header_bytes_total"));
        assert!(text.contains("origin_map_build_seconds_count 1"));
        assert!(text.contains("origin_map_entries 2"));
    }

    #[test]
    fn a_traced_request_records_one_origin_span_through_its_hop() {
        use cachecatalyst_httpwire::tracectx;
        use cachecatalyst_telemetry::span::{SpanId, TraceContext, TraceId};
        let traced = |path: &str, ctx: &TraceContext| {
            let mut req = Request::get(path);
            tracectx::inject(&mut req, ctx);
            req
        };
        let sink = Arc::new(SpanSink::new(Sampling::Always));
        let s = server(HeaderMode::Catalyst).with_span_sink(Arc::clone(&sink));
        let ctx = TraceContext::new(TraceId::next(), SpanId::next()).at(1234.5);
        let resp = s.handle(&traced("/index.html", &ctx), 60);
        let spans = sink.drain();
        assert_eq!(spans.len(), 1, "{spans:?}");
        let span = &spans[0];
        assert_eq!(span.name, "origin.handle");
        assert_eq!(span.trace_id, ctx.trace_id);
        assert_eq!(span.parent, Some(ctx.parent));
        assert_eq!(span.start_ms, 1234.5);
        assert!(span.end_ms >= span.start_ms);
        let keys: Vec<&str> = span.attrs.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            ["path", "status", "mode", "bytes", "config_cache", "epoch"]
        );
        assert_eq!(span.attr("path"), Some("/index.html"));
        assert_eq!(span.attr("status"), Some("200"));
        assert_eq!(span.attr("config_cache"), Some("miss"));
        let epoch = resp.headers.get(HeaderName::X_CC_EPOCH);
        assert!(epoch.is_some());
        assert_eq!(span.attr("epoch"), epoch);

        // A context without a clock: the span starts at `t_secs × 1000`.
        let unclocked = TraceContext::new(ctx.trace_id, ctx.parent);
        s.handle(&traced("/a.css", &unclocked), 60);
        let spans = sink.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_ms, 60_000.0);

        // An unsampled context records nothing and learns no epoch.
        let unsampled = TraceContext {
            sampled: false,
            ..ctx
        };
        let resp = s.handle(&traced("/index.html", &unsampled), 60);
        assert!(sink.is_empty());
        assert!(resp.headers.get(HeaderName::X_CC_EPOCH).is_none());

        // Neither does a sampled one against an `Off` sink.
        let off = Arc::new(SpanSink::new(Sampling::Off));
        let s = server(HeaderMode::Catalyst).with_span_sink(Arc::clone(&off));
        let resp = s.handle(&traced("/index.html", &ctx), 60);
        assert!(off.is_empty());
        assert!(resp.headers.get(HeaderName::X_CC_EPOCH).is_none());
    }

    #[test]
    fn byte_accounting_accumulates() {
        let s = server(HeaderMode::Baseline);
        s.handle(&Request::get("/a.css"), 0);
        let m1 = s.metrics().bytes_sent;
        s.handle(&Request::get("/b.js"), 0);
        assert!(s.metrics().bytes_sent > m1);
    }
}
