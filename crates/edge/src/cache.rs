//! The edge cache proper: an [`Upstream`] decorator with single-flight
//! coalescing and catalyst-aware freshness.
//!
//! ## Serving model
//!
//! GET requests are keyed by `host + path` and answered from the
//! [`TieredStore`] when the stored entry is
//! still fresh; everything else (non-GET, internal traffic, HTML)
//! passes through. A miss or stale entry enters **single-flight**: the
//! first requester becomes the leader and performs the one upstream
//! fetch (a conditional GET when a stale validator is on hand), every
//! concurrent requester for the same key blocks on the leader's
//! per-key lock and is then served from the freshly stored `Bytes`
//! body — N concurrent cold requests cost exactly one upstream
//! request.
//!
//! ## Catalyst freshness
//!
//! When a forwarded base-HTML response carries the `X-Etag-Config`
//! map, the edge applies the paper's mechanism one tier down: every
//! mapped path whose stored validator matches is proactively marked
//! fresh (subsequent requests are served with zero upstream
//! revalidations), mismatches are marked stale so the next request
//! revalidates conditionally, and maps failing their digest
//! ([`EtagConfig::accept`]) are distrusted wholesale.
//!
//! A page's map changes once per churn epoch, not once per response,
//! so the edge keeps, per page key, the map lines it last read and what
//! [`EtagConfig::accept`] made of them (`VerifiedMap`). A response
//! whose lines and digest equal those bytes reuses the verdict; any
//! other is read afresh. Marks (and a refused map's count) still run on
//! every response.
//!
//! ## Fault tolerance
//!
//! Responses carrying a fault marker, 5xx substitutions, and anything
//! non-cacheable are passed through but never stored, so an upstream
//! fault schedule can damage individual responses without ever
//! poisoning the shared store.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, TryLockError};

use cachecatalyst_catalyst::EtagConfig;
use cachecatalyst_httpcache::freshness_lifetime;
use cachecatalyst_httpwire::conditional::{evaluate, Disposition, Validators};
use cachecatalyst_httpwire::tracectx::Hop;
use cachecatalyst_httpwire::{
    Body, EntityTag, HeaderMap, HeaderName, HeaderValue, Method, Request, Response, StatusCode,
    Upstream, Url,
};
use cachecatalyst_telemetry::span::{Sampling, SpanSink};
use cachecatalyst_telemetry::{json_string, CacheAudit, CacheDecision, Event, Recorder, Registry};

use crate::store::{MarkOutcome, StoreOptions, StoredEntry, TierHit, TieredStore};

/// Counter handles for the edge's Prometheus series, shared with the
/// registry (scrapes and [`EdgeCache::metrics`] read the same cells).
/// The request path moves only the series the edge owns; the ones
/// derived from the store (evictions, tier movement, `edge_disk_*`,
/// the held bytes/objects gauges) are filled from the store's own
/// totals by [`EdgeCache::metrics`].
struct Counters {
    requests: Arc<cachecatalyst_telemetry::Counter>,
    hits: Arc<cachecatalyst_telemetry::Counter>,
    negative_hits: Arc<cachecatalyst_telemetry::Counter>,
    misses: Arc<cachecatalyst_telemetry::Counter>,
    coalesced_waiters: Arc<cachecatalyst_telemetry::Counter>,
    upstream_requests: Arc<cachecatalyst_telemetry::Counter>,
    hit_bytes: Arc<cachecatalyst_telemetry::Counter>,
    upstream_bytes: Arc<cachecatalyst_telemetry::Counter>,
    revalidated_304: Arc<cachecatalyst_telemetry::Counter>,
    revalidated_changed: Arc<cachecatalyst_telemetry::Counter>,
    marks_fresh: Arc<cachecatalyst_telemetry::Counter>,
    marks_stale: Arc<cachecatalyst_telemetry::Counter>,
    tampered_configs: Arc<cachecatalyst_telemetry::Counter>,
    passthrough: Arc<cachecatalyst_telemetry::Counter>,
    uncacheable: Arc<cachecatalyst_telemetry::Counter>,
    evictions: Arc<cachecatalyst_telemetry::Counter>,
    disk_hits: Arc<cachecatalyst_telemetry::Counter>,
    promotions: Arc<cachecatalyst_telemetry::Counter>,
    demotions: Arc<cachecatalyst_telemetry::Counter>,
    disk_written_bytes: Arc<cachecatalyst_telemetry::Counter>,
    disk_read_errors: Arc<cachecatalyst_telemetry::Counter>,
    disk_recovered: Arc<cachecatalyst_telemetry::Counter>,
    disk_recovered_refreshed: Arc<cachecatalyst_telemetry::Counter>,
    disk_retired_segments: Arc<cachecatalyst_telemetry::Counter>,
    bytes_held: Arc<cachecatalyst_telemetry::Gauge>,
    objects_held: Arc<cachecatalyst_telemetry::Gauge>,
    disk_bytes: Arc<cachecatalyst_telemetry::Gauge>,
    disk_objects: Arc<cachecatalyst_telemetry::Gauge>,
    disk_segments: Arc<cachecatalyst_telemetry::Gauge>,
    object_bytes: Arc<cachecatalyst_telemetry::Histogram>,
}

impl Counters {
    fn register(registry: &Registry) -> Counters {
        let c = |name: &str, help: &str| registry.counter(name, help, &[]);
        Counters {
            requests: c("edge_requests_total", "Requests reaching the edge tier"),
            hits: c(
                "edge_hits_total",
                "Requests served from the edge store without contacting the origin",
            ),
            negative_hits: c(
                "edge_negative_hits_total",
                "Requests answered from a negatively-cached 404",
            ),
            misses: c(
                "edge_misses_total",
                "Requests that required an upstream fetch (cold or stale)",
            ),
            coalesced_waiters: c(
                "edge_coalesced_waiters_total",
                "Concurrent requests that waited on another request's upstream fetch",
            ),
            upstream_requests: c(
                "edge_upstream_requests_total",
                "Requests the edge sent to its upstream (excluding pass-through)",
            ),
            hit_bytes: c(
                "edge_hit_bytes_total",
                "Body bytes served from the edge store (byte-hit-ratio numerator)",
            ),
            upstream_bytes: c(
                "edge_upstream_bytes_total",
                "Body bytes fetched from the upstream by the edge",
            ),
            revalidated_304: c(
                "edge_revalidations_not_modified_total",
                "Conditional upstream fetches answered 304 (body reused)",
            ),
            revalidated_changed: c(
                "edge_revalidations_changed_total",
                "Conditional upstream fetches that returned a new body",
            ),
            marks_fresh: c(
                "edge_config_marks_fresh_total",
                "Stored entries proactively validated by a forwarded X-Etag-Config map",
            ),
            marks_stale: c(
                "edge_config_marks_stale_total",
                "Stored entries invalidated by a forwarded X-Etag-Config map",
            ),
            tampered_configs: c(
                "edge_tampered_configs_total",
                "Forwarded config maps failing their integrity digest (ignored)",
            ),
            passthrough: c(
                "edge_passthrough_total",
                "Requests forwarded without cache participation (non-GET, internal, HTML)",
            ),
            uncacheable: c(
                "edge_uncacheable_total",
                "Fetched responses not admitted to the store (faulted, 5xx, no-store)",
            ),
            evictions: c(
                "edge_evictions_total",
                "Objects evicted to keep the store within its byte budget",
            ),
            disk_hits: c(
                "edge_disk_hits_total",
                "Requests served from the persistent disk tier",
            ),
            promotions: c(
                "edge_disk_promotions_total",
                "Disk hits copied up into the DRAM tier",
            ),
            demotions: c(
                "edge_disk_demotions_total",
                "DRAM evictions written down to the disk tier",
            ),
            disk_written_bytes: c(
                "edge_disk_written_bytes_total",
                "Bytes appended to disk-tier segment files",
            ),
            disk_read_errors: c(
                "edge_disk_read_errors_total",
                "Disk-tier records failing checksum/parse validation when read back",
            ),
            disk_recovered: c(
                "edge_disk_recovered_total",
                "Entries rebuilt into the disk index by the boot-time recovery scan",
            ),
            disk_recovered_refreshed: c(
                "edge_disk_recovered_refreshed_total",
                "Recovered entries re-freshened by a catalyst map with zero origin contact",
            ),
            disk_retired_segments: c(
                "edge_disk_retired_segments_total",
                "Whole segments retired to keep the disk tier within its byte budget",
            ),
            bytes_held: registry.gauge(
                "edge_store_bytes",
                "Bytes currently held by the edge store",
                &[],
            ),
            objects_held: registry.gauge(
                "edge_store_objects",
                "Objects currently held by the edge store",
                &[],
            ),
            disk_bytes: registry.gauge(
                "edge_disk_bytes",
                "Live bytes currently indexed by the disk tier",
                &[],
            ),
            disk_objects: registry.gauge(
                "edge_disk_objects",
                "Objects currently indexed by the disk tier",
                &[],
            ),
            disk_segments: registry.gauge(
                "edge_disk_segments",
                "Segment files currently on disk",
                &[],
            ),
            object_bytes: registry.histogram_with(
                "edge_object_bytes",
                "Size distribution of objects admitted to the store",
                &[],
                || {
                    cachecatalyst_telemetry::Histogram::new(&[
                        256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
                    ])
                },
            ),
        }
    }
}

/// A point-in-time view of the edge's counters, for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeMetrics {
    /// Requests reaching the edge tier.
    pub requests: u64,
    /// Served from the store with zero upstream contact.
    pub hits: u64,
    /// Served from a negatively-cached 404.
    pub negative_hits: u64,
    /// Required an upstream fetch.
    pub misses: u64,
    /// Coalesced onto another request's fetch.
    pub coalesced_waiters: u64,
    /// Requests sent upstream (excluding pass-through forwards).
    pub upstream_requests: u64,
    /// Body bytes served from the store (byte-hit-ratio numerator).
    pub hit_bytes: u64,
    /// Body bytes fetched from the upstream.
    pub upstream_bytes: u64,
    /// Conditional fetches answered `304 Not Modified`.
    pub revalidated_304: u64,
    /// Conditional fetches that returned a changed body.
    pub revalidated_changed: u64,
    /// Entries proactively marked fresh by a catalyst map.
    pub marks_fresh: u64,
    /// Entries invalidated by a catalyst map.
    pub marks_stale: u64,
    /// Config maps rejected by their integrity digest.
    pub tampered_configs: u64,
    /// Requests forwarded without cache participation.
    pub passthrough: u64,
    /// Responses refused admission to the store.
    pub uncacheable: u64,
    /// LRU evictions under the byte budget.
    pub evictions: u64,
    /// Bytes currently held.
    pub bytes_held: u64,
    /// Served from the persistent disk tier.
    pub disk_hits: u64,
    /// Disk hits copied up into DRAM.
    pub promotions: u64,
    /// DRAM evictions written down to disk.
    pub demotions: u64,
    /// Always 0: demotion has no admission gate to refuse anything
    /// (DESIGN §10). The repo benchmark reads this field by name.
    pub admission_rejects: u64,
    /// Entries rebuilt from segment files at boot.
    pub disk_recovered: u64,
    /// Recovered entries re-freshened by a catalyst map with zero
    /// origin contact.
    pub disk_recovered_refreshed: u64,
    /// Live bytes currently indexed by the disk tier.
    pub disk_bytes_held: u64,
    /// Objects currently indexed by the disk tier.
    pub disk_objects: u64,
}

/// Configures an [`EdgeCache`]; obtained from [`EdgeCache::builder`].
pub struct EdgeBuilder<U> {
    upstream: U,
    store: StoreOptions,
    min_fresh_secs: i64,
    registry: Option<Arc<Registry>>,
    recorder: Option<Arc<Recorder>>,
    spans: Option<Arc<SpanSink>>,
}

impl<U: Upstream> EdgeBuilder<U> {
    /// Full store configuration — DRAM budget/sharding plus an
    /// optional persistent disk tier:
    ///
    /// ```no_run
    /// # use cachecatalyst_edge::{DiskTierOptions, StoreOptions};
    /// StoreOptions::new()
    ///     .mem_budget(16 << 20)
    ///     .disk(DiskTierOptions::at("/var/cache/edge").segment_bytes(4 << 20));
    /// ```
    pub fn store(mut self, store: StoreOptions) -> EdgeBuilder<U> {
        self.store = store;
        self
    }

    /// Validation debounce: a just-stored or just-revalidated entry is
    /// served without upstream contact for this many virtual seconds
    /// even under `no-cache` (default 1). This is what lets concurrent
    /// same-instant requests coalesce onto one fetch.
    pub fn min_fresh_secs(mut self, secs: i64) -> EdgeBuilder<U> {
        self.min_fresh_secs = secs.max(1);
        self
    }

    /// Register the edge's Prometheus series in an existing registry
    /// (e.g. to scrape edge and origin from one endpoint). A fresh
    /// registry is created otherwise. Whoever renders a shared
    /// registry calls [`EdgeCache::metrics`] first, as
    /// [`TcpEdge`](crate::tcp::TcpEdge) does: the store-derived series
    /// are brought up to date there and nowhere else.
    pub fn registry(mut self, registry: Arc<Registry>) -> EdgeBuilder<U> {
        self.registry = Some(registry);
        self
    }

    /// Routes the edge's cache-decision audit events to `recorder`.
    pub fn recorder(mut self, recorder: Arc<Recorder>) -> EdgeBuilder<U> {
        self.recorder = Some(recorder);
        self
    }

    /// Routes the edge's `edge.serve` spans to `spans`.
    pub fn span_sink(mut self, spans: Arc<SpanSink>) -> EdgeBuilder<U> {
        self.spans = Some(spans);
        self
    }

    /// Builds the edge cache.
    ///
    /// # Panics
    ///
    /// When a disk tier was configured and its directory cannot be
    /// opened or recovered; use [`Self::try_build`] to handle that.
    pub fn build(self) -> EdgeCache<U> {
        self.try_build()
            .expect("edge store disk tier failed to open")
    }

    /// Builds the edge cache, surfacing disk-tier open/recovery
    /// failures instead of panicking.
    pub fn try_build(self) -> std::io::Result<EdgeCache<U>> {
        let registry = self.registry.unwrap_or_else(|| Arc::new(Registry::new()));
        let counters = Counters::register(&registry);
        Ok(EdgeCache {
            upstream: self.upstream,
            store: self.store.build()?,
            flights: Mutex::new(HashMap::new()),
            maps: RwLock::new(HashMap::new()),
            registry,
            counters,
            recorder: self.recorder,
            spans: self
                .spans
                .unwrap_or_else(|| Arc::new(SpanSink::new(Sampling::Off))),
            min_fresh_secs: self.min_fresh_secs,
        })
    }
}

/// How long a catalyst-map validation keeps an entry fresh, in
/// virtual seconds: the map speaks for "now", not for an arbitrary
/// future.
const CATALYST_FRESH_SECS: i64 = 2;

/// Negative-cache TTL for 404s, in virtual seconds.
const NEGATIVE_TTL_SECS: i64 = 5;

/// The map lines of one page response as the edge last read them, and
/// what [`EtagConfig::accept`] returned for them (`None`: the map failed
/// its digest). `accept` reads nothing else — the `X-Etag-Config` lines
/// in order and the first `x-cc-config-digest` — so a response whose
/// fields equal these byte for byte gets the same verdict. Compared by
/// bytes, not by allocation, so maps that crossed a socket match too.
struct VerifiedMap {
    lines: Vec<HeaderValue>,
    digest: Option<HeaderValue>,
    accepted: Option<EtagConfig>,
}

impl VerifiedMap {
    /// Reads `headers`' map: the edge's one call of
    /// [`EtagConfig::accept`].
    fn read(headers: &HeaderMap) -> VerifiedMap {
        let named = |name: &'static str| {
            headers
                .iter()
                .filter(move |(n, _)| n.as_str().eq_ignore_ascii_case(name))
                .map(|(_, v)| v.clone())
        };
        VerifiedMap {
            lines: named(HeaderName::X_ETAG_CONFIG).collect(),
            digest: named(HeaderName::X_CC_CONFIG_DIGEST).next(),
            accepted: EtagConfig::accept(headers),
        }
    }

    /// Whether `headers` carry exactly the fields this verdict was
    /// reached on.
    fn reads(&self, headers: &HeaderMap) -> bool {
        headers.get(HeaderName::X_CC_CONFIG_DIGEST) == self.digest.as_ref().map(HeaderValue::as_str)
            && headers
                .get_all(HeaderName::X_ETAG_CONFIG)
                .eq(self.lines.iter().map(HeaderValue::as_str))
    }
}

/// `headers` as the edge serves them: with `X-Served-By:
/// cachecatalyst-edge`, a field made once per process and shared into
/// every head.
pub(crate) fn served_head(mut headers: HeaderMap) -> HeaderMap {
    static SERVED_BY: OnceLock<(HeaderName, HeaderValue)> = OnceLock::new();
    let (name, value) = SERVED_BY.get_or_init(|| {
        (
            HeaderName::new(HeaderName::X_SERVED_BY).expect("a listed name"),
            HeaderValue::new("cachecatalyst-edge").expect("a plain token is a header value"),
        )
    });
    headers.insert_field(name.clone(), value.clone());
    headers
}

/// The shared edge-cache tier. Decorates any [`Upstream`]; itself an
/// [`Upstream`], so it slots anywhere an origin or proxy does — in
/// front of a discrete-event browser, behind
/// [`TcpEdge`](crate::tcp::TcpEdge), or under another decorator.
pub struct EdgeCache<U> {
    upstream: U,
    store: TieredStore,
    /// Single-flight table: one lock per key currently being fetched.
    flights: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// The last map each page key's response carried, as verified. A
    /// page is never stored (a response with a map is not cacheable),
    /// so this is the only thing the edge keeps per page; a fetched
    /// response for the key that the store refuses and that carries no
    /// map drops it.
    maps: RwLock<HashMap<String, Arc<VerifiedMap>>>,
    registry: Arc<Registry>,
    counters: Counters,
    recorder: Option<Arc<Recorder>>,
    spans: Arc<SpanSink>,
    min_fresh_secs: i64,
}

impl<U: Upstream> EdgeCache<U> {
    /// Starts configuring an edge cache in front of `upstream`.
    pub fn builder(upstream: U) -> EdgeBuilder<U> {
        EdgeBuilder {
            upstream,
            store: StoreOptions::new(),
            min_fresh_secs: 1,
            registry: None,
            recorder: None,
            spans: None,
        }
    }

    /// An edge cache with every default (64 MiB, 8 shards).
    pub fn new(upstream: U) -> EdgeCache<U> {
        EdgeCache::builder(upstream).build()
    }

    /// The wrapped upstream (e.g. to inspect origin state in tests).
    pub fn upstream(&self) -> &U {
        &self.upstream
    }

    /// The registry holding the edge's Prometheus series.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A snapshot of the edge's counters.
    pub fn metrics(&self) -> EdgeMetrics {
        self.sync_store_series();
        EdgeMetrics {
            requests: self.counters.requests.get(),
            hits: self.counters.hits.get(),
            negative_hits: self.counters.negative_hits.get(),
            misses: self.counters.misses.get(),
            coalesced_waiters: self.counters.coalesced_waiters.get(),
            upstream_requests: self.counters.upstream_requests.get(),
            hit_bytes: self.counters.hit_bytes.get(),
            upstream_bytes: self.counters.upstream_bytes.get(),
            revalidated_304: self.counters.revalidated_304.get(),
            revalidated_changed: self.counters.revalidated_changed.get(),
            marks_fresh: self.counters.marks_fresh.get(),
            marks_stale: self.counters.marks_stale.get(),
            tampered_configs: self.counters.tampered_configs.get(),
            passthrough: self.counters.passthrough.get(),
            uncacheable: self.counters.uncacheable.get(),
            evictions: self.counters.evictions.get(),
            bytes_held: self.counters.bytes_held.get() as u64,
            disk_hits: self.counters.disk_hits.get(),
            promotions: self.counters.promotions.get(),
            demotions: self.counters.demotions.get(),
            admission_rejects: 0,
            disk_recovered: self.counters.disk_recovered.get(),
            disk_recovered_refreshed: self.counters.disk_recovered_refreshed.get(),
            disk_bytes_held: self.counters.disk_bytes.get() as u64,
            disk_objects: self.counters.disk_objects.get() as u64,
        }
    }

    /// Objects currently stored.
    pub fn stored_objects(&self) -> usize {
        self.store.len()
    }

    /// Copies the store's own totals into the registry series derived
    /// from them. The store's atomics are the source of truth and this
    /// runs only where the copies are read — [`EdgeCache::metrics`],
    /// which a scrape calls before rendering — never on the request
    /// path.
    fn sync_store_series(&self) {
        let c = &self.counters;
        c.bytes_held.set(self.store.bytes_held() as f64);
        c.objects_held.set(self.store.len() as f64);
        c.evictions.advance_to(self.store.evictions());
        let movement = self.store.counters();
        c.promotions.advance_to(movement.promotions);
        c.demotions.advance_to(movement.demotions);
        if let Some(disk) = self.store.disk_stats() {
            c.disk_written_bytes.advance_to(disk.written_bytes);
            c.disk_read_errors.advance_to(disk.read_errors);
            c.disk_recovered.advance_to(disk.recovered);
            c.disk_recovered_refreshed
                .advance_to(disk.recovered_refreshed);
            c.disk_retired_segments.advance_to(disk.retired_segments);
            c.disk_bytes.set(disk.live_bytes as f64);
            c.disk_objects.set(disk.objects as f64);
            c.disk_segments.set(disk.segments as f64);
        }
    }

    /// The read-only inspector document served by `GET /inspect` on
    /// [`TcpEdge`](crate::tcp::TcpEdge) ops: one JSON object per
    /// stored entry (key, tier, size, freshness, validator), sorted by
    /// key then tier so the output is diff-stable.
    pub fn inspect(&self, t_secs: i64) -> String {
        let mut entries = self.store.entries();
        entries.sort_by(|a, b| a.key.cmp(&b.key).then(a.tier.cmp(b.tier)));
        let mut out = String::from("{\n  \"entries\": [\n");
        for (i, e) in entries.iter().enumerate() {
            let etag = match &e.meta.etag {
                Some(tag) => json_string(&tag.to_string()),
                None => "null".to_owned(),
            };
            out.push_str(&format!(
                "    {{\"key\": {}, \"tier\": \"{}\", \"size\": {}, \"etag\": {}, \
                 \"validated_at\": {}, \"fresh_until\": {}, \"fresh\": {}, \"negative\": {}}}{}\n",
                json_string(&e.key),
                e.tier,
                e.size,
                etag,
                e.meta.validated_at,
                e.meta.fresh_until,
                t_secs < e.meta.fresh_until,
                e.meta.negative,
                if i + 1 < entries.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"t_secs\": {t_secs},\n  \"count\": {}\n}}\n",
            entries.len()
        ));
        out
    }

    fn key(host: &str, req: &Request) -> String {
        [host, req.target.path()].concat()
    }

    /// Records the `edge.serve` span of a traced request.
    fn trace_finish(&self, hop: Option<Hop>, t_secs: i64, decision: CacheDecision, key: &str) {
        let Some(hop) = hop else { return };
        hop.finish(
            &self.spans,
            "edge.serve",
            t_secs,
            0.0,
            vec![
                ("edge.decision", decision.as_str().to_owned()),
                ("edge.key", key.to_owned()),
            ],
        );
    }

    /// Records the cache-decision audit for one served response. The
    /// validator is looked up and rendered, and the body digested, only
    /// when a recorder is attached.
    fn audit(
        &self,
        host: &str,
        req: &Request,
        t_secs: i64,
        decision: CacheDecision,
        etag: impl FnOnce() -> Option<EntityTag>,
        body: &Body,
    ) {
        let Some(recorder) = &self.recorder else {
            return;
        };
        recorder.record(&Event::CacheDecision {
            t_ms: t_secs as f64 * 1000.0,
            audit: CacheAudit {
                url: format!("http://{host}{}", req.target.path()),
                decision,
                etag: etag().map(|t| t.to_string()),
                epoch: None,
                served_stale: None,
                body_digest: (!body.is_empty()).then(|| body.digest()),
            },
        });
    }

    /// Serves cached (or just-fetched) bytes to this client. Its own
    /// conditional is never forwarded: a stored success answers it by
    /// the origin's rule ([`evaluate`]), reading `Last-Modified` only
    /// where the date decides; a cached 404 has nothing to be unmodified.
    /// `served`, when the caller has it, is the response's head already
    /// stamped ([`StoredEntry::served_head`]); otherwise it is stamped
    /// here.
    fn replay(
        req: &Request,
        response: &Response,
        etag: Option<&EntityTag>,
        served: Option<&HeaderMap>,
    ) -> Response {
        if response.status.is_success() && req.is_conditional() {
            let since = req
                .if_modified_since()
                .and_then(|_| response.last_modified());
            if evaluate(req, &Validators::new(etag, since)) == Disposition::NotModified {
                let mut not_modified = Response::not_modified(etag);
                not_modified.headers = served_head(not_modified.headers);
                return not_modified;
            }
        }
        Response {
            version: response.version,
            status: response.status,
            headers: served.map_or_else(|| served_head(response.headers.clone()), HeaderMap::clone),
            body: response.body.clone(),
        }
    }

    /// Serves a fresh stored entry found in `tier`: the one place the
    /// hit counters move. A DRAM hit serves the entry's own stamped
    /// head; a disk-tier hit (just promoted into DRAM) stamps a copy,
    /// so the head is built once per version, by the version's first
    /// DRAM hit.
    fn serve_fresh(
        &self,
        req: &Request,
        entry: &StoredEntry,
        tier: TierHit,
    ) -> (Response, CacheDecision) {
        let decision = if entry.meta.negative {
            self.counters.negative_hits.inc();
            CacheDecision::EdgeNegative
        } else if tier == TierHit::Disk {
            self.counters.hits.inc();
            self.counters.disk_hits.inc();
            CacheDecision::EdgeDiskHit
        } else {
            self.counters.hits.inc();
            CacheDecision::EdgeHit
        };
        self.counters
            .hit_bytes
            .add(entry.response.body.len() as u64);
        let served = (tier == TierHit::Mem).then(|| entry.served_head());
        (
            Self::replay(req, &entry.response, entry.meta.etag.as_ref(), served),
            decision,
        )
    }

    /// True when this request must not participate in caching: anything
    /// that is not a plain GET, and internal traffic (bundle
    /// subfetches, probes) whose semantics belong to the endpoints.
    fn is_passthrough_request(req: &Request) -> bool {
        req.method != Method::Get || req.headers.contains(HeaderName::X_CC_INTERNAL)
    }

    /// True when a fetched response may be admitted to the store.
    fn is_cacheable(resp: &Response) -> bool {
        if resp.headers.contains(HeaderName::X_CC_FAULT) {
            // A fault schedule damaged this response in transit; the
            // bytes reach the requesting client (whose retry machinery
            // owns the problem) but never the shared store.
            return false;
        }
        if resp.status == StatusCode::NOT_FOUND {
            return true; // negative caching
        }
        if !resp.status.is_success() {
            return false;
        }
        if resp.cache_control().no_store {
            return false;
        }
        // HTML (and anything carrying a config map) is never cached:
        // navigations are the catalyst signal path and the most
        // personalization-prone content.
        if resp.headers.contains(HeaderName::X_ETAG_CONFIG) {
            return false;
        }
        if let Some(ct) = resp.headers.get(HeaderName::CONTENT_TYPE) {
            if ct.starts_with("text/html") {
                return false;
            }
        }
        true
    }

    /// Positive freshness horizon for a just-validated response.
    fn fresh_until(&self, resp: &Response, t_secs: i64) -> i64 {
        let cc = resp.cache_control();
        let lifetime = if cc.no_cache {
            0
        } else {
            freshness_lifetime(resp).as_secs() as i64
        };
        t_secs + lifetime.max(self.min_fresh_secs)
    }

    /// `resp`'s map as verified: the page key's last verdict when the
    /// lines and digest are the ones it was reached on, otherwise a
    /// fresh read, which then becomes the key's verdict.
    fn verified_map(&self, key: &str, resp: &Response) -> Arc<VerifiedMap> {
        let maps = self.maps.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(held) = maps.get(key).filter(|held| held.reads(&resp.headers)) {
            return Arc::clone(held);
        }
        drop(maps);
        let read = Arc::new(VerifiedMap::read(&resp.headers));
        self.maps
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key.to_owned(), Arc::clone(&read));
        read
    }

    /// Applies a forwarded base-HTML response's config map to the
    /// store (the tentpole's catalyst-aware freshness).
    fn apply_config(&self, host: &str, key: &str, resp: &Response, t_secs: i64) {
        let map = self.verified_map(key, resp);
        let Some(config) = &map.accepted else {
            // Damaged in transit: the client will detect the same
            // and fall back; the edge must not act on it.
            self.counters.tampered_configs.inc();
            return;
        };
        let fresh_until = t_secs + CATALYST_FRESH_SECS;
        let mut key = String::with_capacity(host.len() + 64);
        for (entry, tag) in config.iter() {
            // A cross-origin map names a third-party object by its
            // full URL; the edge stores it under that URL's authority,
            // as `key` does for a request carrying that `Host`.
            key.clear();
            if entry.starts_with('/') {
                key.push_str(host);
                key.push_str(entry);
            } else {
                let Ok(url) = Url::parse(entry) else { continue };
                key.push_str(&url.authority());
                key.push_str(url.path());
            }
            match self.store.mark(&key, tag, t_secs, fresh_until) {
                MarkOutcome::Fresh => self.counters.marks_fresh.inc(),
                MarkOutcome::Mismatch => self.counters.marks_stale.inc(),
                MarkOutcome::Absent => {}
            }
        }
    }

    /// The leader's upstream fetch for `key`: conditional when a stale
    /// validator is on hand, with the result admitted to the store
    /// when safe. Returns the response to serve to the leader.
    fn fetch_and_store(
        &self,
        host: &str,
        req: &Request,
        fwd: &Request,
        t_secs: i64,
        key: &str,
        stale: Option<&StoredEntry>,
    ) -> (Response, CacheDecision) {
        // The upstream request wants the full body for the store:
        // the client's own conditional is evaluated locally against
        // the stored entry, never forwarded.
        let mut up_req = fwd.clone();
        up_req.headers.remove(HeaderName::IF_NONE_MATCH);
        up_req.headers.remove(HeaderName::IF_MODIFIED_SINCE);
        let revalidating = match stale {
            Some(entry) if !entry.meta.negative => match &entry.meta.etag {
                Some(tag) => {
                    up_req
                        .headers
                        .insert(HeaderName::IF_NONE_MATCH, &tag.to_string());
                    true
                }
                None => false,
            },
            _ => false,
        };
        self.counters.upstream_requests.inc();
        let resp = self.upstream.handle(host, &up_req, t_secs);
        self.counters.upstream_bytes.add(resp.body.len() as u64);

        if resp.status == StatusCode::NOT_MODIFIED {
            if let Some(entry) = stale {
                self.counters.revalidated_304.inc();
                let mut refreshed = entry.response.clone();
                refreshed.merge_not_modified(&resp);
                let etag = resp.etag().or_else(|| entry.meta.etag.clone());
                let fresh_until = self.fresh_until(&refreshed, t_secs);
                self.store
                    .refresh(key, refreshed.clone(), etag.clone(), t_secs, fresh_until);
                return (
                    Self::replay(req, &refreshed, etag.as_ref(), None),
                    CacheDecision::Conditional304,
                );
            }
            // A 304 with nothing stored is an anomaly; pass through.
            return (resp, CacheDecision::Degraded);
        }

        if !Self::is_cacheable(&resp) {
            self.counters.uncacheable.inc();
            if !resp.headers.contains(HeaderName::X_ETAG_CONFIG) {
                // Whatever was here, it is not a page with a map now.
                self.maps
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(key);
            }
            // A *successful* changed body that can't be admitted (e.g.
            // it turned no-store) supersedes the stored entry. A
            // faulted or 5xx response must NOT: the stale entry and
            // its validator stay for the next revalidation attempt.
            if revalidating
                && resp.status.is_success()
                && !resp.headers.contains(HeaderName::X_CC_FAULT)
            {
                self.counters.revalidated_changed.inc();
                self.store.remove(key);
            }
            return (resp, CacheDecision::FullFetch);
        }

        if resp.status == StatusCode::NOT_FOUND {
            self.store
                .insert_negative(key, resp.clone(), t_secs, t_secs + NEGATIVE_TTL_SECS);
            return (resp, CacheDecision::FullFetch);
        }

        if revalidating {
            self.counters.revalidated_changed.inc();
        }
        let etag = resp.etag();
        let fresh_until = self.fresh_until(&resp, t_secs);
        self.counters
            .object_bytes
            .observe_secs(resp.wire_len() as f64);
        self.store
            .insert(key, resp.clone(), etag.clone(), t_secs, fresh_until);
        (
            Self::replay(req, &resp, etag.as_ref(), None),
            CacheDecision::FullFetch,
        )
    }

    /// The per-key single-flight lock for `key`.
    fn flight_of(&self, key: &str) -> Arc<Mutex<()>> {
        let mut flights = self.flights.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            flights
                .entry(key.to_owned())
                .or_insert_with(|| Arc::new(Mutex::new(()))),
        )
    }

    /// Drops the single-flight entry once no fetch is in progress.
    fn flight_done(&self, key: &str) {
        let mut flights = self.flights.lock().unwrap_or_else(PoisonError::into_inner);
        flights.remove(key);
    }
}

impl<U: Upstream> Upstream for EdgeCache<U> {
    fn handle(&self, host: &str, req: &Request, t_secs: i64) -> Response {
        self.counters.requests.inc();

        if Self::is_passthrough_request(req) {
            self.counters.passthrough.inc();
            return self.upstream.handle(host, req, t_secs);
        }

        // A traced request is forwarded re-parented onto the edge's
        // span, so origin spans nest beneath it.
        let (fwd, hop) = Hop::start(&self.spans, req).unzip();
        let fwd = fwd.as_ref().unwrap_or(req);
        let key = Self::key(host, req);

        // Fast path: a fresh stored entry serves with zero upstream
        // contact — classic freshness, the catalyst window, or a live
        // negative entry.
        if let Some((entry, tier)) = self.store.get_traced(&key) {
            if t_secs < entry.meta.fresh_until {
                let (resp, decision) = self.serve_fresh(req, &entry, tier);
                self.audit(
                    host,
                    req,
                    t_secs,
                    decision,
                    || entry.meta.etag.clone(),
                    &resp.body,
                );
                self.trace_finish(hop, t_secs, decision, &key);
                return resp;
            }
        }

        // Miss (or stale): single-flight. The first requester in wins
        // the flight lock and fetches; concurrent requesters for the
        // same key block until it finishes, then serve the stored
        // result — re-fetching only if the winner's fetch could not be
        // admitted (e.g. it was damaged by a fault schedule).
        let flight = self.flight_of(&key);
        let guard = match flight.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.counters.coalesced_waiters.inc();
                flight.lock().unwrap_or_else(PoisonError::into_inner)
            }
        };
        // Holding the flight lock: re-check the store, because another
        // request may have landed the object while we queued.
        let (resp, decision) = match self.store.get_traced(&key) {
            Some((entry, tier)) if t_secs < entry.meta.fresh_until => {
                self.serve_fresh(req, &entry, tier)
            }
            stale => {
                self.counters.misses.inc();
                let stale = stale.map(|(entry, _)| entry);
                let out = self.fetch_and_store(host, req, fwd, t_secs, &key, stale.as_deref());
                // Only the thread that actually flew removes the
                // flight entry: a waiter waking to a hit must not tear
                // down a newer flight another requester just opened.
                self.flight_done(&key);
                out
            }
        };
        drop(guard);

        // The catalyst signal path: a forwarded response carrying the
        // map lets the edge validate its own holdings proactively.
        if resp.headers.contains(HeaderName::X_ETAG_CONFIG) {
            self.apply_config(host, &key, &resp, t_secs);
        }

        self.audit(host, req, t_secs, decision, || resp.etag(), &resp.body);
        self.trace_finish(hop, t_secs, decision, &key);
        resp
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use cachecatalyst_origin::{HeaderMode, OriginServer};
    use cachecatalyst_webmodel::{example_site, EXAMPLE_HOST};

    use super::*;

    /// The example site, served with its map until `catalyst` is
    /// switched off, and without it after.
    struct Switching {
        catalyst: AtomicBool,
        with_map: OriginServer,
        without: OriginServer,
    }

    impl Upstream for Switching {
        fn handle(&self, _host: &str, req: &Request, t_secs: i64) -> Response {
            let origin = if self.catalyst.load(Ordering::Relaxed) {
                &self.with_map
            } else {
                &self.without
            };
            origin.handle(req, t_secs)
        }
    }

    fn held_maps<U>(edge: &EdgeCache<U>) -> usize {
        edge.maps.read().unwrap().len()
    }

    #[test]
    fn a_verdict_answers_only_for_the_bytes_it_was_reached_on() {
        let origin = OriginServer::new(example_site(), HeaderMode::Catalyst);
        let page = origin.handle(&Request::get("/index.html"), 0);
        let held = VerifiedMap::read(&page.headers);
        assert!(held.accepted.is_some());
        assert!(held.reads(&page.headers));
        let copied: HeaderMap = HeaderMap::from_entries(
            page.headers
                .iter()
                .map(|(n, v)| (n.clone(), HeaderValue::new(v.as_str()).unwrap()))
                .collect(),
        );
        assert!(held.reads(&copied), "equal bytes in another allocation");

        let mut other_digest = page.headers.clone();
        other_digest.insert(HeaderName::X_CC_CONFIG_DIGEST, "0123456789abcdef");
        let mut no_digest = page.headers.clone();
        no_digest.remove(HeaderName::X_CC_CONFIG_DIGEST);
        let mut extra_line = page.headers.clone();
        extra_line.append(HeaderName::X_ETAG_CONFIG, "/x.css=\"1\"");
        let mut no_lines = page.headers.clone();
        no_lines.remove(HeaderName::X_ETAG_CONFIG);
        for headers in [other_digest, no_digest, extra_line, no_lines] {
            assert!(!held.reads(&headers), "{headers:?}");
        }
    }

    #[test]
    fn a_page_keeps_one_verdict_until_it_comes_without_a_map() {
        let edge = EdgeCache::new(Switching {
            catalyst: AtomicBool::new(true),
            with_map: OriginServer::new(example_site(), HeaderMode::Catalyst),
            without: OriginServer::new(example_site(), HeaderMode::Baseline),
        });
        let page = Request::get("/index.html");
        for t in [0, 1, 2] {
            edge.handle(EXAMPLE_HOST, &page, t);
        }
        let key = [EXAMPLE_HOST, "/index.html"].concat();
        let first = Arc::clone(&edge.maps.read().unwrap()[&key]);
        assert_eq!(held_maps(&edge), 1, "one verdict per page key");
        edge.handle(EXAMPLE_HOST, &Request::get("/a.css"), 3);
        assert_eq!(held_maps(&edge), 1, "a stored asset leaves it alone");
        edge.handle(EXAMPLE_HOST, &page, 4);
        assert!(
            Arc::ptr_eq(&first, &edge.maps.read().unwrap()[&key]),
            "the same lines reuse the verdict"
        );

        edge.upstream().catalyst.store(false, Ordering::Relaxed);
        edge.handle(EXAMPLE_HOST, &page, 5);
        assert_eq!(held_maps(&edge), 0, "a page without a map drops it");
        edge.upstream().catalyst.store(true, Ordering::Relaxed);
        edge.handle(EXAMPLE_HOST, &page, 6);
        assert_eq!(held_maps(&edge), 1);
        assert!(!Arc::ptr_eq(&first, &edge.maps.read().unwrap()[&key]));
        assert_eq!(edge.metrics().tampered_configs, 0);
    }
}
