//! Live page loads over real byte streams (feature `aio`).
//!
//! The same browser as the discrete-event engine — every serving
//! decision, cache admission, discovery and retry schedule comes from
//! [`crate::profile`] — executed in wall-clock time over any tokio
//! transport: loopback TCP, the emulated access link from
//! `cachecatalyst_netsim::emu`, or anything a [`Dialer`] produces.
//! What lives here is what the profile cannot know: sockets, per-host
//! connection pools, tasks and timeouts. Used by the end-to-end tests
//! and by the sim-vs-live cross-validation experiment (E15): the
//! simulator's PLT prediction is checked against an actual protocol
//! execution.

use std::collections::{HashMap, HashSet};
use std::future::Future;
use std::io;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cachecatalyst_catalyst::ServiceWorker;
use cachecatalyst_httpcache::HttpCache;
use cachecatalyst_httpwire::aio::ClientConn;
use cachecatalyst_httpwire::{Request, Response, Url};
use cachecatalyst_netsim::{FetchTrace, LoadTrace, SimTime};
use cachecatalyst_telemetry::{CacheAudit, Recorder};
use cachecatalyst_webmodel::ResourceKind;
use tokio::io::{AsyncRead, AsyncWrite};
use tokio::sync::Semaphore;
use tokio::task::JoinSet;

use crate::engine::EngineConfig;
use crate::profile::{self, CacheMode, FetchFacts, Profile, Purpose, Role, Tally};

/// Anything a connection can run over.
pub trait ByteStream: AsyncRead + AsyncWrite + Unpin + Send {}
impl<T: AsyncRead + AsyncWrite + Unpin + Send> ByteStream for T {}

/// Opens a byte stream to `host`. Implementations decide what that
/// means: TCP dial, an emulated link to an in-process origin, …
pub type Dialer = Arc<
    dyn Fn(String) -> Pin<Box<dyn Future<Output = io::Result<Box<dyn ByteStream>>> + Send>>
        + Send
        + Sync,
>;

/// The result of one live page load.
#[derive(Debug, Clone)]
pub struct LiveReport {
    pub trace: LoadTrace,
    pub plt: Duration,
    pub network_requests: usize,
    pub sw_hits: usize,
    pub cache_hits: usize,
    /// Round trips that failed (I/O error or timeout) and were retried.
    pub retries: u32,
    /// The cache-decision audit trail, one record per entry of
    /// `trace.fetches`, same order (as in [`crate::LoadReport`]).
    pub audits: Vec<CacheAudit>,
}

/// Keep-alive connections to one host, at most
/// `max_connections_per_origin` in use at a time.
struct HostPool {
    permits: Semaphore,
    idle: Mutex<Vec<ClientConn<Box<dyn ByteStream>>>>,
}

type Pools = Arc<Mutex<HashMap<String, Arc<HostPool>>>>;

/// A live browser profile. State persists across loads, like
/// [`crate::Browser`].
pub struct LiveBrowser {
    dialer: Dialer,
    /// The same configuration [`crate::Browser`] holds; the knobs that
    /// model transport in virtual time have no meaning here.
    pub config: EngineConfig,
    /// The profile's stores, locked for one profile step at a time
    /// (never across an `.await`).
    stores: Arc<Mutex<(HttpCache, ServiceWorker)>>,
    pools: Pools,
    recorder: Option<Arc<Recorder>>,
    /// Virtual seconds used for cache freshness decisions.
    pub now_secs: i64,
}

impl LiveBrowser {
    pub fn new(dialer: Dialer, mode: CacheMode) -> LiveBrowser {
        LiveBrowser {
            dialer,
            config: EngineConfig {
                mode,
                ..Default::default()
            },
            stores: Arc::new(Mutex::new((HttpCache::new(), ServiceWorker::new()))),
            pools: Pools::default(),
            recorder: None,
            now_secs: 0,
        }
    }

    /// Replaces the dialer (e.g. to reconnect with a different link or
    /// server clock), keeping cache and service-worker state but
    /// dropping pooled connections — idle sockets would not survive
    /// the pause between visits anyway.
    pub fn with_dialer(self, dialer: Dialer) -> LiveBrowser {
        LiveBrowser {
            dialer,
            pools: Pools::default(),
            ..self
        }
    }

    /// Attaches an event sink: live loads then emit the same event
    /// stream as [`crate::Browser`], timestamped in wall milliseconds
    /// from `now_secs`. (There is no span sink to attach: spans are
    /// recorded in virtual time only.)
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> LiveBrowser {
        self.recorder = Some(recorder);
        self
    }

    /// Loads `base_url` to completion, returning wall-clock timings.
    pub async fn load(&mut self, base_url: &Url) -> io::Result<LiveReport> {
        let load = Arc::new(Load {
            dialer: Arc::clone(&self.dialer),
            cfg: self.config.clone(),
            stores: Arc::clone(&self.stores),
            pools: Arc::clone(&self.pools),
            now_secs: self.now_secs,
            page: base_url.to_string(),
            t0: Instant::now(),
        });
        let metrics_before = self.lock_stores().0.metrics;
        let mut trace = LoadTrace::default();
        let mut facts: Vec<FetchFacts> = Vec::new();
        let mut tally = Tally::default();
        let mut requested: HashSet<String> = HashSet::from([load.page.clone()]);
        let mut join: JoinSet<io::Result<FetchDone>> = JoinSet::new();
        join.spawn(Arc::clone(&load).fetch(base_url.clone(), Role::Navigation, None));

        while let Some(res) = join.join_next().await {
            let done = res.map_err(|e| io::Error::other(e.to_string()))??;
            let row = facts.len();
            tally.retries += done.retries;
            tally.add(&done.facts, done.completed);
            trace.fetches.push(FetchTrace {
                url: done.facts.key.clone(),
                discovered: done.discovered,
                started: done.discovered,
                completed: done.completed,
                outcome: done.facts.outcome,
                bytes_down: done.bytes_down,
                bytes_up: 0,
                // Live fetches reuse pooled keep-alive connections:
                // one request/response round trip per network fetch.
                rtts: done.facts.outcome.used_network() as u32,
                // The live path doesn't observe intra-request phase
                // boundaries; HAR export degrades gracefully.
                upload_done: None,
                response_start: None,
            });
            if let Some(served) = done.refreshes {
                facts[served].refreshed_by(done.facts.outcome);
            }
            facts.push(done.facts);
            if let Some(req) = done.revalidate {
                let refresh = Some((req, row));
                join.spawn(Arc::clone(&load).fetch(done.url, Role::Background, refresh));
            }
            for link in done.links {
                if requested.insert(link.to_string()) {
                    join.spawn(Arc::clone(&load).fetch(link, Role::Subresource, None));
                }
            }
        }

        // Remember the visit, as `Browser::load` does.
        self.config.last_visit = Some(self.now_secs);
        let report = LiveReport {
            plt: Duration::from_nanos(tally.plt.as_nanos()),
            trace,
            network_requests: tally.full_transfers + tally.not_modified,
            sw_hits: tally.sw_hits,
            cache_hits: tally.cache_hits,
            retries: tally.retries,
            audits: facts.iter().map(FetchFacts::audit).collect(),
        };
        if let Some(recorder) = &self.recorder {
            let delta = self.lock_stores().0.metrics.delta_since(&metrics_before);
            profile::emit_load_events(
                recorder.as_ref(),
                base_url,
                self.now_secs,
                &report.trace,
                &report.audits,
                &tally,
                delta,
            );
        }
        Ok(report)
    }

    fn lock_stores(&self) -> std::sync::MutexGuard<'_, (HttpCache, ServiceWorker)> {
        self.stores.lock().expect("a profile step panicked")
    }
}

/// What every fetch task of one load shares.
struct Load {
    dialer: Dialer,
    cfg: EngineConfig,
    stores: Arc<Mutex<(HttpCache, ServiceWorker)>>,
    pools: Pools,
    now_secs: i64,
    /// The navigation URL, the `Referer` of subresource fetches.
    page: String,
    t0: Instant,
}

struct FetchDone {
    url: Url,
    facts: FetchFacts,
    discovered: SimTime,
    completed: SimTime,
    bytes_down: u64,
    links: Vec<Url>,
    retries: u32,
    /// [`profile::Decision::revalidate`].
    revalidate: Option<Request>,
    /// A background revalidation names the row of the copy it
    /// refreshed.
    refreshes: Option<usize>,
}

impl Load {
    fn elapsed(&self) -> SimTime {
        SimTime::from_nanos(self.t0.elapsed().as_nanos() as u64)
    }

    /// Runs one profile step under the stores' lock.
    fn with_profile<T>(&self, step: impl FnOnce(&mut Profile<'_>) -> T) -> T {
        let mut stores = self.stores.lock().expect("a profile step panicked");
        let (cache, sw) = &mut *stores;
        step(&mut Profile {
            cfg: &self.cfg,
            cache,
            sw,
            t_secs: self.now_secs,
        })
    }

    /// One fetch: decide, go to the network if the profile says so,
    /// admit what came back, process the body. A background
    /// revalidation arrives with its request (and the row it
    /// refreshes) already made by the decide step of the fetch it
    /// serves.
    async fn fetch(
        self: Arc<Self>,
        url: Url,
        role: Role,
        refresh: Option<(Request, usize)>,
    ) -> io::Result<FetchDone> {
        let discovered = self.elapsed();
        let is_navigation = role == Role::Navigation;
        let mut facts = FetchFacts::new(url.to_string(), role);
        let (refresh, refreshes) = refresh.unzip();
        let mut req = refresh.unwrap_or_else(|| {
            let referer = (!is_navigation).then_some(self.page.as_str());
            profile::request(&self.cfg, &url, Purpose::Page { referer })
        });
        let decision = match role {
            Role::Background => profile::Decision::default(),
            _ => self.with_profile(|p| p.decide(&url, &facts.key, &mut req, is_navigation)),
        };
        facts.etag = decision.etag;
        facts.stale = decision.stale;

        let mut retries = 0;
        let mut bytes_down = 0;
        let delivered = match decision.local {
            Some((outcome, response)) => {
                facts.outcome = outcome;
                response
            }
            None => {
                let resp = self.round_trip(&url, &req, &mut retries).await?;
                facts.note_epoch(&resp);
                let admitted =
                    self.with_profile(|p| p.admit(&facts.key, &req, resp, is_navigation));
                facts.outcome = admitted.outcome;
                facts.degraded = retries > 0 || admitted.distrusted;
                bytes_down = admitted.delivered.body.len() as u64;
                admitted.delivered
            }
        };

        let mut links = Vec::new();
        if role != Role::Background {
            facts.note_delivered(&delivered);
            let kind = ResourceKind::from_path(url.path());
            let cost = profile::process_cost(&self.cfg, kind, delivered.body.len());
            if let Some(dt) = cost.filter(|_| delivered.status.is_success()) {
                tokio::time::sleep(dt).await;
                links = profile::discover(&url, &delivered.body);
            }
        }
        Ok(FetchDone {
            url,
            facts,
            discovered,
            completed: self.elapsed(),
            bytes_down,
            links,
            retries,
            revalidate: decision.revalidate,
            refreshes,
        })
    }

    /// One request/response exchange through the host's pool, with
    /// bounded retry: an I/O error, a malformed response, or a round
    /// trip that outlives `fetch_timeout` costs one attempt, a backoff
    /// and a fresh dial — the failed connection is never returned to
    /// the pool.
    async fn round_trip(
        &self,
        url: &Url,
        req: &Request,
        retries: &mut u32,
    ) -> io::Result<Response> {
        let pool = {
            let mut pools = self.pools.lock().expect("pool map lock");
            Arc::clone(pools.entry(url.host().to_owned()).or_insert_with(|| {
                Arc::new(HostPool {
                    permits: Semaphore::new(self.cfg.max_connections_per_origin),
                    idle: Mutex::new(Vec::new()),
                })
            }))
        };
        let _permit = pool.permits.acquire().await.expect("semaphore not closed");
        loop {
            let pooled = pool.idle.lock().expect("idle list lock").pop();
            let exchange = async {
                let mut conn = match pooled {
                    Some(conn) => conn,
                    None => ClientConn::new((self.dialer)(url.host().to_owned()).await?),
                };
                let resp = conn
                    .round_trip(req)
                    .await
                    .map_err(|e| io::Error::other(e.to_string()))?;
                Ok::<_, io::Error>((conn, resp))
            };
            let error = match tokio::time::timeout(self.cfg.fetch_timeout, exchange).await {
                Ok(Ok((conn, resp))) => {
                    pool.idle.lock().expect("idle list lock").push(conn);
                    return Ok(resp);
                }
                Ok(Err(e)) => e,
                Err(_) => io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{url}: no response within {:?}", self.cfg.fetch_timeout),
                ),
            };
            if *retries >= self.cfg.max_retries {
                return Err(error);
            }
            // No seeded stream in wall-clock time: the schedule without
            // its jitter.
            tokio::time::sleep(profile::backoff(&self.cfg, *retries, 0.0)).await;
            *retries += 1;
        }
    }
}
