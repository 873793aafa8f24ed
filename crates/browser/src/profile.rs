//! The browser profile: everything about a page load that is not
//! timing.
//!
//! The paper's client is one decision procedure — compare the cached
//! ETag with the `X-Etag-Config` entry, serve locally on a match,
//! otherwise forward with `If-None-Match` — and this module is its one
//! implementation. Both page loaders drive it: the discrete-event
//! [`Engine`](crate::Engine) supplies virtual time (pools, handshakes,
//! flows, faults, push streams), the tokio `LiveBrowser` supplies
//! sockets, tasks and timeouts, and neither decides anything below:
//!
//! | step | here | what it settles |
//! |---|---|---|
//! | build | [`request`] | the headers every request carries |
//! | decide | [`Profile::decide`] | serve locally, revalidate in the background, or go to the network with which validator |
//! | admit | [`Profile::admit`] | what a network (or pushed) response does to the caches, and what the page gets |
//! | discover | [`process_cost`], [`discover`] | what a delivered body costs to process and which fetches it starts |
//! | account | [`backoff`], [`FetchFacts`], [`Tally`], [`emit_load_events`] | retry pacing, the audit trail, the report counters and the recorder stream |

use std::time::Duration;

use cachecatalyst_catalyst::{EtagConfig, ServiceWorker, SwDecision, SW_SCRIPT_PATH};
use cachecatalyst_httpcache::{CacheMetrics, HttpCache, Lookup};
use cachecatalyst_httpwire::{Body, HeaderName, Request, Response, StatusCode, Url};
use cachecatalyst_netsim::{FetchOutcome, LoadTrace, SimTime};
use cachecatalyst_telemetry::{CacheAudit, CacheDecision, Event, Recorder};
use cachecatalyst_webmodel::{extract, ResourceKind};

use crate::engine::EngineConfig;

/// Which store answers for a resource the profile already holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// No reuse (cold path / lower bound).
    Uncached,
    /// The classic HTTP cache (the status quo).
    #[default]
    HttpCache,
    /// The CacheCatalyst service worker fronts all fetches.
    ServiceWorker,
}

/// What a fetch is to the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Navigation,
    Subresource,
    /// A server-pushed stream (the page has not asked for it yet).
    Push,
    /// The revalidation half of stale-while-revalidate: refreshes the
    /// cache, does not gate onLoad, delivers nothing to the page.
    Background,
}

impl Role {
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Navigation => "navigation",
            Role::Subresource => "subresource",
            Role::Push => "push",
            Role::Background => "background",
        }
    }
}

/// What a request is for, which settles the headers it carries.
#[derive(Clone, Copy)]
pub enum Purpose<'a> {
    /// A fetch the page makes; subresources name the navigation.
    Page { referer: Option<&'a str> },
    /// A stale-while-revalidate background refresh.
    Revalidation,
    /// Loader-internal body materialization (`push` / `bundle`);
    /// origins should not treat these as client requests.
    Internal(&'static str),
}

/// The one request constructor.
pub fn request(cfg: &EngineConfig, url: &Url, purpose: Purpose<'_>) -> Request {
    let req =
        Request::get_target(url.target().clone()).with_header(HeaderName::HOST, &url.authority());
    let mut req = match purpose {
        Purpose::Internal(what) => return req.with_header(HeaderName::X_CC_INTERNAL, what),
        _ => req.with_header(HeaderName::USER_AGENT, "cachecatalyst-browser/0.1"),
    };
    if let Purpose::Page { referer } = purpose {
        if let Some(last) = cfg.last_visit {
            req.headers
                .insert(HeaderName::X_CC_LAST_VISIT, &last.to_string());
        }
        if let Some(nav) = referer {
            req.headers.insert("referer", nav);
        }
    }
    req
}

/// The outcome of the decide step.
#[derive(Default)]
pub struct Decision {
    /// Serve this response locally instead of going to the network.
    pub local: Option<(FetchOutcome, Response)>,
    /// `local` is a stale copy served under RFC 5861
    /// `stale-while-revalidate`: refresh it in the background with
    /// this conditional request.
    pub revalidate: Option<Request>,
    /// The `X-Etag-Config` entry (or conditional validator) consulted,
    /// for the audit trail.
    pub etag: Option<String>,
    /// Whether the locally served bytes are stale against the origin's
    /// current version (`None` = unknowable).
    pub stale: Option<bool>,
}

/// The result of the admit step.
pub struct Admitted {
    pub outcome: FetchOutcome,
    /// What the page gets: the response, or on a `304` the stored
    /// copy it refreshed.
    pub delivered: Response,
    /// The navigation's `X-Etag-Config` failed its digest and was not
    /// installed: the fetch is degraded.
    pub distrusted: bool,
}

/// One browser profile's persistent state, borrowed for a page load
/// (or, by the live loader, for one step of one).
pub struct Profile<'a> {
    pub cfg: &'a EngineConfig,
    pub cache: &'a mut HttpCache,
    pub sw: &'a mut ServiceWorker,
    /// Virtual seconds, for cache freshness.
    pub t_secs: i64,
}

impl Profile<'_> {
    /// The serving decision for `req` (a [`Purpose::Page`] request for
    /// `url`, whose rendering is `key`): answers locally, or puts the
    /// stored validator on the request for the network to answer.
    pub fn decide(
        &mut self,
        url: &Url,
        key: &str,
        req: &mut Request,
        is_navigation: bool,
    ) -> Decision {
        let mut decision = Decision::default();
        match self.cfg.mode {
            CacheMode::Uncached => {}
            CacheMode::ServiceWorker if is_navigation => {
                // Navigations always go upstream; the stored validator
                // makes an unchanged page cost a 304.
                if let Some(tag) = self.sw.cached_etag(key) {
                    let tag = tag.to_string();
                    req.headers.insert(HeaderName::IF_NONE_MATCH, &tag);
                    decision.etag = Some(tag);
                }
            }
            CacheMode::ServiceWorker => match self.sw.intercept(key, url.path()) {
                SwDecision::ServeLocal { response, entry } => {
                    // Staleness oracle: the matched entry is the
                    // origin's *current* version (this very navigation
                    // installed the map); the served copy says what it
                    // is in its own `ETag`. A serve despite a mismatch
                    // would be a catalyst bug.
                    decision.stale = response
                        .etag()
                        .map(|served| !EtagConfig::entry_matches(&entry, &served));
                    decision.etag = Some(entry.to_string());
                    decision.local = Some((FetchOutcome::ServiceWorkerHit, response));
                }
                SwDecision::Forward { if_none_match } => {
                    // Same-origin entries are keyed by path,
                    // cross-origin ones by full URL.
                    let config = self.sw.config();
                    let consulted = config.get(url.path()).or_else(|| config.get(key));
                    decision.etag = consulted.map(|tag| tag.to_string());
                    if let Some(tag) = if_none_match {
                        let tag = tag.to_string();
                        req.headers.insert(HeaderName::IF_NONE_MATCH, &tag);
                        decision.etag.get_or_insert(tag);
                    }
                }
            },
            CacheMode::HttpCache => match self.cache.lookup(key, req, self.t_secs) {
                Lookup::Fresh(response) => {
                    decision.local = Some((FetchOutcome::CacheHit, response));
                }
                Lookup::Stale {
                    response,
                    etag,
                    last_modified,
                    swr_usable,
                } => {
                    // RFC 5861: an eligible stale copy is served now
                    // and the validators go on a background request.
                    let mut background =
                        swr_usable.then(|| request(self.cfg, url, Purpose::Revalidation));
                    let conditional = background.as_mut().unwrap_or(req);
                    if let Some(tag) = etag {
                        conditional.headers.insert(HeaderName::IF_NONE_MATCH, &tag);
                        if !swr_usable {
                            decision.etag = Some(tag);
                        }
                    } else if let Some(lm) = last_modified {
                        conditional
                            .headers
                            .insert(HeaderName::IF_MODIFIED_SINCE, &lm);
                    }
                    if swr_usable {
                        decision.local = Some((FetchOutcome::CacheHit, response));
                        decision.revalidate = background;
                    }
                }
                Lookup::Miss => {}
            },
        }
        decision
    }

    /// Admits a network (or pushed) response for the fetch `req` made:
    /// a navigation installs its `X-Etag-Config` — the service worker
    /// verifies it first, so no loader can install an unverified map —
    /// then the mode's store keeps the response or, on a `304`,
    /// refreshes and hands back its copy.
    pub fn admit(
        &mut self,
        key: &str,
        req: &Request,
        resp: Response,
        is_navigation: bool,
    ) -> Admitted {
        let t = self.t_secs;
        // An uncached profile sent no validator: whatever came back is
        // a full transfer.
        let not_modified =
            resp.status == StatusCode::NOT_MODIFIED && self.cfg.mode != CacheMode::Uncached;
        let mut distrusted = false;
        let delivered = match self.cfg.mode {
            CacheMode::Uncached => resp,
            CacheMode::ServiceWorker => {
                // The navigation response (200 or 304) carries the
                // fresh map; install it, then resolve the body through
                // the SW cache.
                distrusted = is_navigation && self.sw.on_navigation(&resp);
                self.sw.on_response(key, &resp)
            }
            CacheMode::HttpCache if not_modified => {
                self.cache.update_with_304(key, &resp, t, t).unwrap_or(resp)
            }
            CacheMode::HttpCache => {
                self.cache.store(key, req, &resp, t, t);
                resp
            }
        };
        Admitted {
            outcome: if not_modified {
                FetchOutcome::NotModified
            } else {
                FetchOutcome::FullTransfer
            },
            delivered,
            distrusted,
        }
    }
}

/// Time to process a delivered body before the fetches it references
/// are discovered: fixed + size-proportional parse (HTML/CSS) or
/// execution (JS) cost. `None` for content that references nothing.
pub fn process_cost(cfg: &EngineConfig, kind: ResourceKind, len: usize) -> Option<Duration> {
    let (base, bytes_per_sec) = match kind {
        ResourceKind::Html | ResourceKind::Css => (cfg.parse_base, cfg.parse_bytes_per_sec),
        ResourceKind::Js => (cfg.exec_base, cfg.exec_bytes_per_sec),
        _ => return None,
    };
    Some(base + Duration::from_secs_f64(len as f64 / bytes_per_sec))
}

/// The fetches a delivered body starts: links in markup and
/// stylesheets, requests made by executing scripts
/// ([`extract::discover`], read as what `url`'s path says it is). Both
/// the links and their resolution against `url` ride with the body, so
/// delivering an allocation that has been here before (under this
/// URL) parses nothing and allocates the returned list only.
pub fn discover(url: &Url, body: &Body) -> Vec<Url> {
    let mut urls = extract::discover(url, ResourceKind::from_path(url.path()), body);
    // SW registration is out-of-band, not a subresource.
    urls.retain(|u| u.path() != SW_SCRIPT_PATH);
    urls
}

/// Backoff before retry number `attempt + 1`: `retry_base · 2^attempt`,
/// stretched by up to +50% by `jitter ∈ [0, 1)` (drawn by the loader
/// from whatever seeded stream it has).
pub fn backoff(cfg: &EngineConfig, attempt: u32, jitter: f64) -> Duration {
    let base = cfg.retry_base.as_secs_f64() * (1u64 << attempt.min(16)) as f64;
    Duration::from_secs_f64(base * (1.0 + 0.5 * jitter))
}

/// What a loader knows about one fetch apart from its timing: the
/// audit trail and the report counters are functions of these.
#[derive(Debug, Clone)]
pub struct FetchFacts {
    /// The URL rendered once: the key of every per-URL map and the
    /// trace/audit label.
    pub key: String,
    pub role: Role,
    pub outcome: FetchOutcome,
    /// A fault forced this fetch off its preferred path (retries, a
    /// distrusted config map, an exhausted retry budget).
    pub degraded: bool,
    /// [`Decision::etag`].
    pub etag: Option<String>,
    /// [`Decision::stale`].
    pub stale: Option<bool>,
    /// The origin's churn epoch (`x-cc-epoch`, traced requests).
    pub epoch: Option<u64>,
    /// XXH64 of the body handed to the page (the serve-correct-bytes
    /// oracle's comparand).
    pub body_digest: Option<u64>,
}

impl FetchFacts {
    /// A fetch before its serving decision (a full transfer is assumed
    /// until something says otherwise).
    pub fn new(key: String, role: Role) -> FetchFacts {
        FetchFacts {
            key,
            role,
            outcome: FetchOutcome::FullTransfer,
            degraded: false,
            etag: None,
            stale: None,
            epoch: None,
            body_digest: None,
        }
    }

    /// Remembers the churn epoch a response names. Cached/SW copies
    /// keep the header from when they were fetched, so local hits
    /// attribute to the epoch their bytes came from.
    pub fn note_epoch(&mut self, resp: &Response) {
        if self.epoch.is_none() {
            if let Some(v) = resp.headers.get(HeaderName::X_CC_EPOCH) {
                self.epoch = v.parse().ok();
            }
        }
    }

    /// `delivered` is what the page sees: the audit digest covers it.
    pub fn note_delivered(&mut self, delivered: &Response) {
        self.note_epoch(delivered);
        if !delivered.body.is_empty() {
            self.body_digest = Some(delivered.body.digest());
        }
    }

    /// Resolves the staleness of this SWR-served copy from the
    /// outcome of the background revalidation that refreshed it: a 304
    /// proves the served bytes were current, a full transfer proves
    /// they were stale.
    pub fn refreshed_by(&mut self, revalidation: FetchOutcome) {
        self.stale = Some(revalidation == FetchOutcome::FullTransfer);
    }

    /// This fetch's record on the cache-decision audit trail.
    pub fn audit(&self) -> CacheAudit {
        let decision = if self.degraded {
            // The audit says so regardless of how the fallback was
            // ultimately satisfied.
            CacheDecision::Degraded
        } else {
            match self.outcome {
                FetchOutcome::ServiceWorkerHit => CacheDecision::SwHitZeroRtt,
                FetchOutcome::NotModified => CacheDecision::Conditional304,
                FetchOutcome::FullTransfer => CacheDecision::FullFetch,
                FetchOutcome::CacheHit | FetchOutcome::Pushed => CacheDecision::Bypass,
            }
        };
        let served_stale = match self.outcome {
            // Validated (or freshly transferred / pushed at the
            // current t): the delivered bytes match the origin.
            FetchOutcome::NotModified | FetchOutcome::FullTransfer | FetchOutcome::Pushed => {
                Some(false)
            }
            // SW hits carry the oracle verdict from the decide step;
            // classic freshness hits are unknowable unless an SWR
            // revalidation resolved them (`refreshed_by`).
            FetchOutcome::ServiceWorkerHit | FetchOutcome::CacheHit => self.stale,
        };
        CacheAudit {
            url: self.key.clone(),
            decision,
            etag: self.etag.clone(),
            epoch: self.epoch,
            served_stale,
            body_digest: self.body_digest,
        }
    }
}

/// The counters of a load report.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// The `onLoad` moment: the last page-requested fetch completed.
    pub plt: SimTime,
    pub full_transfers: usize,
    pub not_modified: usize,
    pub cache_hits: usize,
    pub sw_hits: usize,
    /// Stale responses served under `stale-while-revalidate` (one
    /// background revalidation each).
    pub swr_served: usize,
    pub degraded: usize,
    pub faults_injected: u32,
    pub retries: u32,
}

impl Tally {
    pub fn add(&mut self, fetch: &FetchFacts, completed: SimTime) {
        self.degraded += fetch.degraded as usize;
        match fetch.role {
            Role::Background => self.swr_served += 1,
            // onLoad waits for requested resources, not for
            // speculative pushes the page never asked for.
            Role::Push => {}
            Role::Navigation | Role::Subresource => {
                self.plt = self.plt.max(completed);
                match fetch.outcome {
                    FetchOutcome::FullTransfer => self.full_transfers += 1,
                    FetchOutcome::NotModified => self.not_modified += 1,
                    FetchOutcome::CacheHit => self.cache_hits += 1,
                    FetchOutcome::ServiceWorkerHit => self.sw_hits += 1,
                    FetchOutcome::Pushed => {}
                }
            }
        }
    }
}

/// Replays one finished load into the recorder: a page-load span, one
/// start/end pair and one cache-decision verdict per fetch
/// (`audits[i]` belongs to `trace.fetches[i]`), and the HTTP-cache
/// delta the load caused. Timestamps are `t_secs × 1000` plus the
/// trace's offsets into the load. Of `tally`, the onLoad moment and
/// the fault counters are read (the per-outcome counts are in the
/// fetch events already).
pub fn emit_load_events(
    recorder: &Recorder,
    page: &Url,
    t_secs: i64,
    trace: &LoadTrace,
    audits: &[CacheAudit],
    tally: &Tally,
    delta: CacheMetrics,
) {
    let page = page.to_string();
    let base_ms = t_secs as f64 * 1000.0;
    let end_ms = base_ms + tally.plt.as_millis_f64();
    recorder.record(&Event::PageLoadStart {
        page: page.clone(),
        t_ms: base_ms,
    });
    for f in &trace.fetches {
        recorder.record(&Event::FetchStart {
            url: f.url.clone(),
            t_ms: base_ms + f.started.as_millis_f64(),
        });
        recorder.record(&Event::FetchEnd {
            url: f.url.clone(),
            t_ms: base_ms + f.completed.as_millis_f64(),
            outcome: f.outcome,
            bytes_down: f.bytes_down,
            bytes_up: f.bytes_up,
            rtts: f.rtts,
        });
    }
    for (f, audit) in trace.fetches.iter().zip(audits) {
        recorder.record(&Event::CacheDecision {
            t_ms: base_ms + f.completed.as_millis_f64(),
            audit: audit.clone(),
        });
    }
    recorder.record(&Event::PageLoadEnd {
        page,
        t_ms: end_ms,
        resources: trace.fetches.len(),
        plt_ms: tally.plt.as_millis_f64(),
    });
    recorder.record(&Event::CacheDelta {
        t_ms: end_ms,
        fresh_hits: delta.fresh_hits,
        stale_hits: delta.stale_hits,
        misses: delta.misses,
        stores: delta.stores,
        revalidation_refreshes: delta.revalidation_refreshes,
    });
    if tally.faults_injected > 0 || tally.retries > 0 || tally.degraded > 0 {
        recorder.record(&Event::FaultSummary {
            t_ms: end_ms,
            faults_injected: tally.faults_injected,
            retries: tally.retries,
            degraded: tally.degraded as u64,
        });
    }
}
