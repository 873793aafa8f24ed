//! The discrete-event page-load engine.
//!
//! Reproduces the browser behaviour that determines PLT: per-origin
//! connection pools with handshakes and keep-alive, parse-driven
//! dependency discovery (HTML → CSS/JS → images/fonts, JS-executed
//! fetches), server push and fault injection, in virtual time. All
//! transfers share the access link's fluid capacity, so parallel
//! fetches slow each other down exactly as under browser throttling.
//! What is served from where — network, the classic HTTP cache, the
//! CacheCatalyst service worker — is not decided here: the engine
//! drives the steps of [`crate::profile`] and schedules what they
//! return.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use cachecatalyst_catalyst::tamper_config_headers;
use cachecatalyst_httpwire::{tracectx, HeaderName, Request, Response, StatusCode, Url};
use cachecatalyst_netsim::{
    Fault, FaultPlan, FaultSchedule, FetchOutcome, FetchTrace, LinkId, LoadTrace, Network,
    NetworkConditions, SimTime,
};
use cachecatalyst_telemetry::span::{Span, SpanId, SpanSink, TraceContext, TraceId};
use cachecatalyst_telemetry::CacheAudit;
use cachecatalyst_webmodel::ResourceKind;

use crate::profile::{self, CacheMode, FetchFacts, Profile, Purpose, Role, Tally};
use crate::upstream::Upstream;

/// Local serving overhead of a service-worker cache hit.
const SW_OVERHEAD: Duration = Duration::from_micros(300);

/// Local serving overhead of an HTTP-cache hit (or of handing over an
/// already-delivered push).
const CACHE_OVERHEAD: Duration = Duration::from_micros(150);

/// Tunables of a page load. The discrete-event engine reads all of
/// them; the live loader reads the ones that are not about simulated
/// transport (`mode`, `max_connections_per_origin`, the
/// parse/exec costs, `last_visit` and the retry knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Parallel connections per origin (browsers use 6 for HTTP/1.1).
    pub max_connections_per_origin: usize,
    /// HTTP/2-style transport: one multiplexed connection per origin,
    /// no per-request connection queueing.
    pub http2: bool,
    /// Charge one DNS lookup (costing `dns_cost × RTT`) for the first
    /// connection to each host. Off by default to match the paper's
    /// loopback-hosted methodology.
    pub model_dns: bool,
    /// Charge a TLS 1.3 handshake (one extra RTT) when establishing a
    /// connection. Off by default (the paper's prototype serves plain
    /// HTTP).
    pub tls: bool,
    /// Probability that a request/response exchange loses a packet and
    /// pays one retransmission timeout (modeled as +2×RTT). Applied
    /// per network fetch with a deterministic seeded stream.
    pub loss_rate: f64,
    /// Seed for the loss stream (same seed ⇒ same losses).
    pub loss_seed: u64,
    /// Prioritize render-blocking fetches (HTML/CSS/JS) over images
    /// and other content when queueing for connections, as browsers
    /// do. On by default.
    pub prioritize_render_blocking: bool,
    /// Server processing time charged per request.
    pub server_think: Duration,
    /// Fixed + size-proportional cost of parsing HTML/CSS.
    pub parse_base: Duration,
    pub parse_bytes_per_sec: f64,
    /// Fixed + size-proportional cost of executing JS.
    pub exec_base: Duration,
    pub exec_bytes_per_sec: f64,
    /// Which store answers for resources the profile already holds.
    pub mode: CacheMode,
    /// Virtual time of the client's previous visit, announced via the
    /// `x-cc-last-visit` request header (used by push-if-changed).
    pub last_visit: Option<i64>,
    /// Deterministic fault injection on this load's network path
    /// (`None` = clean network, the default). Every fault the plan
    /// draws replays identically for the same seed.
    pub fault_plan: Option<FaultPlan>,
    /// Retry budget per request: how many times a failed attempt
    /// (reset, truncation, stall timeout, injected 5xx) is retried
    /// before the error is delivered to the page.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt, with
    /// seeded jitter.
    pub retry_base: Duration,
    /// Per-fetch timeout: a response that never starts (a stalled
    /// server) is abandoned after this long and the attempt retried.
    pub fetch_timeout: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_connections_per_origin: 6,
            http2: false,
            model_dns: false,
            tls: false,
            loss_rate: 0.0,
            loss_seed: 0,
            prioritize_render_blocking: true,
            server_think: Duration::from_millis(1),
            parse_base: Duration::from_millis(1),
            parse_bytes_per_sec: 50e6,
            exec_base: Duration::from_millis(2),
            exec_bytes_per_sec: 10e6,
            mode: CacheMode::HttpCache,
            last_visit: None,
            fault_plan: None,
            max_retries: 3,
            retry_base: Duration::from_millis(50),
            fetch_timeout: Duration::from_secs(3),
        }
    }
}

/// The result of one page load.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub trace: LoadTrace,
    /// Page load time (the `onLoad` moment).
    pub plt: SimTime,
    /// First-contentful-paint approximation: the base document and
    /// every render-blocking resource it references (stylesheets and
    /// synchronous scripts in the markup) are available. The paper
    /// defers FCP/SI/TTI to future work; this is the FCP part.
    pub fcp: SimTime,
    pub full_transfers: usize,
    pub not_modified: usize,
    pub cache_hits: usize,
    pub sw_hits: usize,
    pub bytes_down: u64,
    pub bytes_up: u64,
    /// Resources delivered ahead of request (push / bundle).
    pub pushed: usize,
    /// Pushed resources the page never asked for (wasted).
    pub pushed_unused: usize,
    /// Bytes spent on pushes.
    pub pushed_bytes: u64,
    /// Bytes spent on pushes the page never used.
    pub pushed_unused_bytes: u64,
    /// Stale responses served under `stale-while-revalidate` (each one
    /// also spawned a background revalidation).
    pub swr_served: usize,
    /// Faults the configured [`FaultPlan`] actually injected into
    /// this load (0 on a clean network).
    pub faults_injected: u32,
    /// Retry attempts the client made after failed exchanges.
    pub retries: u32,
    /// Fetches that completed degraded: they needed retries, fell
    /// back after a distrusted `X-Etag-Config` map, or delivered an
    /// error after exhausting the retry budget.
    pub degraded: usize,
    /// The cache-decision audit trail: one record per entry of
    /// `trace.fetches`, same order — how each resource was decided,
    /// which `X-Etag-Config` entry was consulted, in which churn
    /// epoch, and whether the served bytes were stale against the
    /// origin's current version.
    pub audits: Vec<CacheAudit>,
}

impl LoadReport {
    pub fn plt_ms(&self) -> f64 {
        self.plt.as_millis_f64()
    }

    pub fn fcp_ms(&self) -> f64 {
        self.fcp.as_millis_f64()
    }

    /// Round trips that touched the network.
    pub fn network_requests(&self) -> usize {
        self.full_transfers + self.not_modified
    }
}

type FetchId = usize;

#[derive(Debug)]
enum Pending {
    DnsDone(String),
    HandshakeDone(FetchId),
    UploadDone(FetchId),
    ServerTurn(FetchId),
    ServerDelayed(FetchId),
    DownloadDone(FetchId),
    LastByte(FetchId),
    Instant(FetchId),
    /// The parse / execution time of a delivered body elapsed.
    Processed(FetchId),
    PushDone(FetchId),
    /// The backoff before a retry attempt elapsed.
    Retry(FetchId),
    /// A mid-body reset / truncation: the partial transfer "finished"
    /// but the bytes are unusable.
    TransferFailed(FetchId),
    /// The per-fetch timeout on a stalled response fired.
    TimedOut(FetchId),
}

struct FetchState {
    url: Url,
    /// Everything about the fetch that is not timing.
    facts: FetchFacts,
    req: Request,
    discovered: SimTime,
    started: Option<SimTime>,
    completed: Option<SimTime>,
    conn: Option<usize>,
    response: Option<Response>,
    delivered: Option<Response>,
    bytes_up: u64,
    bytes_down: u64,
    push_used: bool,
    /// Round trips charged so far: DNS, handshake legs, the
    /// request/response exchange, retransmission timeouts.
    rtts: u32,
    /// This fetch's span id when the load is traced.
    span: Option<SpanId>,
    /// When the last request byte left the uplink (network fetches).
    t_upload_done: Option<SimTime>,
    /// When the response started flowing down (server turn taken,
    /// any proxy resolution delay paid).
    t_response_start: Option<SimTime>,
    /// Zero-based attempt counter (0 = first try).
    attempt: u32,
    /// The fault drawn for the current attempt, applied when the
    /// server's turn comes.
    pending_fault: Option<Fault>,
    /// Bytes of partial transfers wasted on failed attempts.
    bytes_wasted: u64,
}

impl FetchState {
    /// A fetch in its initial state (not started).
    fn new(url: Url, facts: FetchFacts, req: Request, discovered: SimTime) -> FetchState {
        FetchState {
            url,
            facts,
            req,
            discovered,
            started: None,
            completed: None,
            conn: None,
            response: None,
            delivered: None,
            bytes_up: 0,
            bytes_down: 0,
            push_used: false,
            rtts: 0,
            span: None,
            t_upload_done: None,
            t_response_start: None,
            attempt: 0,
            pending_fault: None,
            bytes_wasted: 0,
        }
    }
}

struct ConnState {
    established: bool,
    busy: bool,
}

#[derive(Default)]
struct Pool {
    conns: Vec<ConnState>,
    /// High-priority waiters (render-blocking: HTML/CSS/JS).
    queue: VecDeque<FetchId>,
    /// Low-priority waiters (images, fonts, data).
    queue_low: VecDeque<FetchId>,
    /// DNS resolution state for the host (None = not started,
    /// Some(false) = in flight, Some(true) = resolved).
    dns: Option<bool>,
    /// Fetches parked on the DNS lookup.
    dns_pending: Vec<FetchId>,
}

impl Pool {
    fn pop_waiter(&mut self) -> Option<FetchId> {
        self.queue
            .pop_front()
            .or_else(|| self.queue_low.pop_front())
    }
}

/// Advances an xorshift64 stream and maps the draw onto `[0, 1)`
/// (deterministic, decoupled from workload seeds).
fn next_unit(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// One page load in progress. Borrows the browser's persistent state
/// (HTTP cache, service worker) for the duration of the load.
pub struct Engine<'a> {
    /// xorshift state for the seeded loss stream.
    loss_state: u64,
    /// The expanded fault plan, if one is configured.
    faults: Option<FaultSchedule>,
    /// xorshift state for retry-backoff jitter (its own stream, so
    /// jitter draws never shift the fault or loss schedules).
    jitter_state: u64,
    /// Faults actually injected into this load.
    n_faults: u32,
    /// Retry attempts made after failed exchanges.
    n_retries: u32,
    up: &'a dyn Upstream,
    cond: NetworkConditions,
    cfg: &'a EngineConfig,
    profile: Profile<'a>,
    net: Network<Pending>,
    uplink: LinkId,
    downlink: LinkId,
    fetches: Vec<FetchState>,
    pools: HashMap<String, Pool>,
    requested: HashSet<String>,
    /// Responses already on the client (push / bundle), keyed by URL.
    predelivered: HashMap<String, Response>,
    /// Trace row of the push that delivered each URL.
    push_rows: HashMap<String, FetchId>,
    /// Pushes still in flight (PUSH_PROMISE semantics): a request for
    /// a promised URL waits for the pushed stream instead of
    /// refetching. url → (push row, waiting requester).
    push_inflight: HashMap<String, (FetchId, Option<FetchId>)>,
    /// Fetches that gate first paint: the navigation plus the CSS/JS
    /// referenced directly by the base document's markup.
    render_blocking: Vec<FetchId>,
    /// The navigation URL, used as the Referer of subresource fetches.
    navigation_url: Option<String>,
    /// Set when this load was sampled for tracing.
    tracer: Option<Tracer>,
    /// `(background revalidation, SWR-served fetch)` pairs: the
    /// revalidation's outcome resolves the served copy's staleness.
    swr_pairs: Vec<(FetchId, FetchId)>,
}

/// Tracing state for one sampled load: the trace id every span of
/// the load shares, the root span, and the sink spans land in.
struct Tracer {
    sink: Arc<SpanSink>,
    trace: TraceId,
    root: SpanId,
}

impl<'a> Engine<'a> {
    pub fn new(up: &'a dyn Upstream, cond: NetworkConditions, profile: Profile<'a>) -> Engine<'a> {
        let cfg = profile.cfg;
        let mut net = Network::new();
        let downlink = net.add_link(cond.down_bps);
        let uplink = net.add_link(cond.up_bps);
        Engine {
            loss_state: cfg.loss_seed | 1,
            faults: cfg.fault_plan.as_ref().map(|p| p.schedule()),
            jitter_state: cfg
                .fault_plan
                .map(|p| p.seed ^ 0x9E37_79B9_7F4A_7C15)
                .unwrap_or(0)
                | 1,
            n_faults: 0,
            n_retries: 0,
            up,
            cond,
            cfg,
            profile,
            net,
            uplink,
            downlink,
            fetches: Vec::new(),
            pools: HashMap::new(),
            requested: HashSet::new(),
            predelivered: HashMap::new(),
            push_rows: HashMap::new(),
            push_inflight: HashMap::new(),
            render_blocking: Vec::new(),
            navigation_url: None,
            tracer: None,
            swr_pairs: Vec::new(),
        }
    }

    /// Traces this load into `sink` when it is on: every fetch, phase
    /// and downstream (edge/proxy/origin) hop records spans there, all
    /// sharing one fresh trace id rooted in a `page_load` span.
    pub fn with_span_sink(mut self, sink: &Arc<SpanSink>) -> Engine<'a> {
        if sink.enabled() {
            self.tracer = Some(Tracer {
                sink: Arc::clone(sink),
                trace: TraceId::next(),
                root: SpanId::next(),
            });
        }
        self
    }

    /// Absolute virtual milliseconds for a sim instant (the page-load
    /// events' time base: `t_secs` plus the offset into the load).
    fn abs_ms(&self, t: SimTime) -> f64 {
        self.profile.t_secs as f64 * 1000.0 + t.as_millis_f64()
    }

    /// Loads `base_url` to completion and reports.
    pub fn load(mut self, base_url: &Url) -> LoadReport {
        self.request_fetch(base_url.clone(), SimTime::ZERO, Role::Navigation);
        while let Some((now, ev)) = self.net.next() {
            self.dispatch(ev, now);
        }
        self.finalize()
    }

    fn dispatch(&mut self, pending: Pending, now: SimTime) {
        match pending {
            Pending::DnsDone(host) => {
                let pool = self.pools.get_mut(&host).expect("pool exists");
                pool.dns = Some(true);
                let parked = std::mem::take(&mut pool.dns_pending);
                for f in parked {
                    self.assign_conn(f, now);
                }
            }
            Pending::HandshakeDone(f) => {
                let host = self.fetches[f].url.host().to_owned();
                let conn = self.fetches[f].conn.expect("handshaking on a conn");
                let pool = self.pools.get_mut(&host).expect("pool exists");
                pool.conns[conn].established = true;
                if self.cfg.http2 {
                    // Multiplexed: everything parked on the handshake
                    // proceeds at once.
                    let parked: Vec<FetchId> =
                        std::iter::once(f).chain(pool.queue.drain(..)).collect();
                    for w in parked {
                        self.fetches[w].conn = Some(conn);
                        self.start_upload(w, now);
                    }
                } else {
                    self.start_upload(f, now);
                }
            }
            Pending::UploadDone(f) => {
                self.fetches[f].t_upload_done = Some(now);
                let loss = self.loss_penalty();
                self.fetches[f].rtts += 1 + if loss > Duration::ZERO { 2 } else { 0 };
                let mut dt = self.cond.one_way() + self.cfg.server_think + loss;
                // One fault draw per request attempt. Loss bursts act
                // on the request path right here; everything else is
                // applied when the server's turn comes.
                match self.draw_fault(f) {
                    Some(Fault::LossBurst { timeouts }) => {
                        self.n_faults += 1;
                        self.fetches[f].rtts += 2 * timeouts;
                        dt += self.cond.rtt * 2 * timeouts;
                    }
                    fault => self.fetches[f].pending_fault = fault,
                }
                self.net.set_timer(dt, Pending::ServerTurn(f));
            }
            Pending::ServerTurn(f) => {
                // Re-stamp the trace context with the virtual clock at
                // the server turn, so server-side spans sit at the
                // right place on the load's timeline. (The header was
                // first injected unstamped at request creation; the
                // uploaded byte count was measured then and the stamp
                // is in-process metadata, like `x-cc-server-delay-ms`.)
                if let Some(tracer) = &self.tracer {
                    if let Some(span) = self.fetches[f].span {
                        let ctx = TraceContext::new(tracer.trace, span).at(self.abs_ms(now));
                        tracectx::inject(&mut self.fetches[f].req, &ctx);
                    }
                }
                let fault = self.fetches[f].pending_fault.take();
                // A stalled server never answers; only the client's
                // fetch timeout recovers the attempt.
                if let Some(Fault::Stall) = fault {
                    self.n_faults += 1;
                    self.net
                        .set_timer(self.cfg.fetch_timeout, Pending::TimedOut(f));
                    return;
                }
                let mut resp = self.up.handle(
                    self.fetches[f].url.host(),
                    &self.fetches[f].req,
                    self.profile.t_secs,
                );
                let mut fault_delay_ms = 0u64;
                match fault {
                    Some(Fault::ServerError { status }) => {
                        self.n_faults += 1;
                        resp = Response::empty(StatusCode::new(status).expect("5xx is valid"))
                            .with_header(HeaderName::X_CC_FAULT, "server-error");
                    }
                    Some(Fault::Delay { ms }) => {
                        self.n_faults += 1;
                        fault_delay_ms = ms;
                    }
                    // Tampering counts as a fault only when the
                    // response actually carried a map to damage.
                    Some(Fault::CorruptConfigEntry { salt })
                        if tamper_config_headers(&mut resp, Some(salt)) =>
                    {
                        self.n_faults += 1;
                    }
                    Some(Fault::StaleConfigEntry) if tamper_config_headers(&mut resp, None) => {
                        self.n_faults += 1;
                    }
                    _ => {}
                }
                let extra_delay = resp
                    .headers
                    .get(HeaderName::X_CC_SERVER_DELAY_MS)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0)
                    + fault_delay_ms;
                let bytes = resp.wire_len() as u64;
                // Mid-body reset / truncation: only a prefix of the
                // response crosses the wire, then the attempt fails.
                if let Some(Fault::ResetMidBody { fraction }) = fault {
                    self.n_faults += 1;
                    let partial = ((bytes as f64 * fraction) as u64).max(1);
                    self.fetches[f].bytes_down = partial;
                    self.fetches[f].t_response_start = Some(now);
                    self.net
                        .start_flow(self.downlink, partial, Pending::TransferFailed(f));
                    return;
                }
                self.fetches[f].bytes_down = bytes;
                self.fetches[f].response = Some(resp);
                if extra_delay > 0 {
                    self.net.set_timer(
                        Duration::from_millis(extra_delay),
                        Pending::ServerDelayed(f),
                    );
                } else {
                    self.fetches[f].t_response_start = Some(now);
                    self.start_download(f);
                }
            }
            Pending::ServerDelayed(f) => {
                self.fetches[f].t_response_start = Some(now);
                self.start_download(f);
            }
            Pending::DownloadDone(f) => {
                self.net
                    .set_timer(self.cond.one_way(), Pending::LastByte(f));
            }
            Pending::LastByte(f) => {
                self.release_conn(f, now);
                let resp = self.fetches[f].response.take().expect("response set");
                // Under a fault plan, a 5xx on an idempotent GET is
                // retried (with backoff) while budget remains; only
                // after exhaustion is the error delivered to the page.
                if self.faults.is_some()
                    && resp.status.is_server_error()
                    && self.fetches[f].attempt < self.cfg.max_retries
                {
                    self.schedule_retry(f);
                    return;
                }
                if resp.status.is_server_error() && self.fetches[f].attempt > 0 {
                    self.fetches[f].facts.degraded = true;
                }
                self.deliver_network(f, resp, now);
            }
            Pending::Instant(f) => {
                let resp = self.fetches[f].response.take().expect("local response");
                self.complete(f, resp, now);
            }
            Pending::Processed(f) => self.on_processed(f, now),
            Pending::PushDone(f) => {
                self.fetches[f].completed = Some(now);
                let resp = self.fetches[f].response.take().expect("pushed body");
                let url = self.fetches[f].facts.key.clone();
                self.push_rows.insert(url.clone(), f);
                let waiter = self
                    .push_inflight
                    .remove(&url)
                    .and_then(|(_, waiter)| waiter);
                match waiter {
                    Some(w) => {
                        // The page asked while the push was in flight:
                        // the stream's completion answers the request.
                        self.fetches[f].push_used = true;
                        self.fetches[w].facts.outcome = FetchOutcome::Pushed;
                        self.fetches[w].started.get_or_insert(now);
                        self.complete(w, resp, now);
                    }
                    None => {
                        self.predelivered.insert(url, resp);
                    }
                }
            }
            Pending::TransferFailed(f) => {
                // The connection died mid-body: the partial bytes are
                // wasted and the attempt failed.
                let partial = self.fetches[f].bytes_down;
                self.fetches[f].bytes_wasted += partial;
                self.fetches[f].bytes_down = 0;
                self.fetches[f].response = None;
                self.abandon_conn(f);
                self.fail_attempt(f, now);
            }
            Pending::TimedOut(f) => {
                // The stalled attempt's timeout: abandon the dead
                // connection and retry.
                self.abandon_conn(f);
                self.fail_attempt(f, now);
            }
            Pending::Retry(f) => {
                // Backoff elapsed: re-enter the pool for a fresh
                // attempt (same request, next draw of the schedule).
                self.assign_to_pool(f, now);
            }
        }
    }

    /// Draws this attempt's fault, if a plan is configured. Internal
    /// push/bundle materializations never reach this path, so only
    /// real client requests are faulted.
    fn draw_fault(&mut self, f: FetchId) -> Option<Fault> {
        let attempt = self.fetches[f].attempt;
        self.faults.as_mut().and_then(|s| s.draw(attempt))
    }

    /// A failed attempt: retry with exponential backoff + jitter while
    /// budget remains, else deliver a synthesized error so the page
    /// completes instead of hanging.
    fn fail_attempt(&mut self, f: FetchId, now: SimTime) {
        self.fetches[f].facts.degraded = true;
        if self.fetches[f].attempt < self.cfg.max_retries {
            self.schedule_retry(f);
            return;
        }
        let resp = Response::empty(StatusCode::GATEWAY_TIMEOUT)
            .with_header(HeaderName::X_CC_FAULT, "gave-up");
        self.deliver_network(f, resp, now);
    }

    /// Arms the backoff timer for the next attempt of `f`.
    fn schedule_retry(&mut self, f: FetchId) {
        let attempt = self.fetches[f].attempt;
        self.fetches[f].attempt = attempt + 1;
        self.fetches[f].facts.degraded = true;
        self.n_retries += 1;
        let backoff = profile::backoff(self.cfg, attempt, next_unit(&mut self.jitter_state));
        self.net.set_timer(backoff, Pending::Retry(f));
    }

    /// Marks `f`'s connection dead (the peer reset or went silent):
    /// the slot stays in the pool but must be re-established before
    /// reuse. HTTP/2 treats the failure as stream-level and keeps the
    /// connection.
    fn abandon_conn(&mut self, f: FetchId) {
        let Some(idx) = self.fetches[f].conn.take() else {
            return;
        };
        if self.cfg.http2 {
            return;
        }
        let host = self.fetches[f].url.host().to_owned();
        let pool = self.pools.get_mut(&host).expect("pool exists");
        pool.conns[idx].busy = false;
        pool.conns[idx].established = false;
        // A waiter can take the slot, paying the fresh handshake.
        if let Some(next) = pool.pop_waiter() {
            pool.conns[idx].busy = true;
            self.fetches[next].conn = Some(idx);
            let dt = self.handshake_time(next);
            self.net.set_timer(dt, Pending::HandshakeDone(next));
        }
    }

    fn start_download(&mut self, f: FetchId) {
        let bytes = self.fetches[f].bytes_down;
        self.net
            .start_flow(self.downlink, bytes, Pending::DownloadDone(f));
    }

    // ---- fetch initiation ----

    /// Starts the page's fetch of `url` unless it already has one;
    /// says whether it did.
    fn request_fetch(&mut self, url: Url, now: SimTime, role: Role) -> bool {
        let key = url.to_string();
        if !self.requested.insert(key.clone()) {
            return false;
        }
        let is_navigation = role == Role::Navigation;
        if is_navigation {
            self.navigation_url = Some(key.clone());
        }
        let referer = self.navigation_url.as_deref().filter(|_| !is_navigation);
        let mut req = profile::request(self.cfg, &url, Purpose::Page { referer });
        let span = self.trace_request(&mut req, None, None);
        let decision = self.profile.decide(&url, &key, &mut req, is_navigation);

        let f = self.fetches.len();
        let mut fetch = FetchState::new(url, FetchFacts::new(key, role), req, now);
        fetch.span = span;
        fetch.facts.etag = decision.etag;
        fetch.facts.stale = decision.stale;
        self.fetches.push(fetch);
        if is_navigation {
            self.render_blocking.push(f);
        }
        if let Some((outcome, response)) = decision.local {
            self.fetches[f].facts.outcome = outcome;
            self.fetches[f].response = Some(response);
            let overhead = match outcome {
                FetchOutcome::ServiceWorkerHit => SW_OVERHEAD,
                _ => CACHE_OVERHEAD,
            };
            self.net.set_timer(overhead, Pending::Instant(f));
            if let Some(req) = decision.revalidate {
                self.spawn_background_revalidation(req, now, f);
            }
            return true;
        }
        // Pushed / bundled bodies that arrived ahead of the request are
        // used before going to the network (but never shadow a fresh
        // cache or SW hit, matching browsers' push-cache precedence).
        if !self.try_predelivered(f) {
            self.assign_to_pool(f, now);
        }
        true
    }

    /// Traced loads: puts the trace context on a request, under `span`
    /// or else a fresh span id, stamped with the virtual clock when
    /// `at` is given. Returns the span id.
    fn trace_request(
        &self,
        req: &mut Request,
        span: Option<SpanId>,
        at: Option<SimTime>,
    ) -> Option<SpanId> {
        let tracer = self.tracer.as_ref()?;
        let span = span.unwrap_or_else(SpanId::next);
        let mut ctx = TraceContext::new(tracer.trace, span);
        if let Some(now) = at {
            ctx = ctx.at(self.abs_ms(now));
        }
        tracectx::inject(req, &ctx);
        Some(span)
    }

    /// Issues the conditional request `req`, which refreshes the cached
    /// copy `served` was answered with, without gating onLoad (the
    /// revalidation half of stale-while-revalidate).
    fn spawn_background_revalidation(&mut self, mut req: Request, now: SimTime, served: FetchId) {
        let span = self.trace_request(&mut req, None, None);
        let f = self.fetches.len();
        let url = self.fetches[served].url.clone();
        let mut facts = FetchFacts::new(self.fetches[served].facts.key.clone(), Role::Background);
        facts.outcome = FetchOutcome::NotModified;
        self.fetches.push(FetchState {
            span,
            ..FetchState::new(url, facts, req, now)
        });
        // The revalidation outcome doubles as the staleness oracle for
        // the SWR-served response it refreshes (see `finalize`).
        self.swr_pairs.push((f, served));
        self.assign_to_pool(f, now);
    }

    /// Serves `f` from the predelivered set (or parks it on an
    /// in-flight push promise) if possible.
    fn try_predelivered(&mut self, f: FetchId) -> bool {
        let key = &self.fetches[f].facts.key;
        if let Some(resp) = self.predelivered.remove(key) {
            if let Some(&pf) = self.push_rows.get(key) {
                self.fetches[pf].push_used = true;
            }
            self.fetches[f].facts.outcome = FetchOutcome::Pushed;
            self.fetches[f].response = Some(resp);
            self.net.set_timer(CACHE_OVERHEAD, Pending::Instant(f));
            return true;
        }
        if let Some(entry) = self.push_inflight.get_mut(&self.fetches[f].facts.key) {
            debug_assert!(entry.1.is_none(), "one requester per URL");
            entry.1 = Some(f);
            return true;
        }
        false
    }

    // ---- connection pool ----

    fn assign_to_pool(&mut self, f: FetchId, now: SimTime) {
        if self.cfg.model_dns {
            let host = self.fetches[f].url.host().to_owned();
            let pool = self.pools.entry(host.clone()).or_default();
            match pool.dns {
                Some(true) => {}
                Some(false) => {
                    pool.dns_pending.push(f);
                    return;
                }
                None => {
                    pool.dns = Some(false);
                    pool.dns_pending.push(f);
                    // The fetch that triggers the lookup pays its RTT;
                    // later fetches just park on the resolution.
                    self.fetches[f].rtts += 1;
                    self.net.set_timer(self.cond.rtt, Pending::DnsDone(host));
                    return;
                }
            }
        }
        self.assign_conn(f, now);
    }

    fn assign_conn(&mut self, f: FetchId, now: SimTime) {
        let host = self.fetches[f].url.host().to_owned();
        let max = self.cfg.max_connections_per_origin;
        if self.cfg.http2 {
            let pool = self.pools.entry(host).or_default();
            match pool.conns.first() {
                None => {
                    pool.conns.push(ConnState {
                        established: false,
                        busy: true,
                    });
                    self.fetches[f].conn = Some(0);
                    let dt = self.handshake_time(f);
                    self.net.set_timer(dt, Pending::HandshakeDone(f));
                }
                Some(c) if !c.established => pool.queue.push_back(f),
                Some(_) => {
                    self.fetches[f].conn = Some(0);
                    self.start_upload(f, now);
                }
            }
            return;
        }
        let pool = self.pools.entry(host).or_default();
        // Prefer an idle, established connection.
        if let Some(idx) = pool.conns.iter().position(|c| !c.busy && c.established) {
            pool.conns[idx].busy = true;
            self.fetches[f].conn = Some(idx);
            self.start_upload(f, now);
            return;
        }
        // A dead slot (abandoned after a reset/stall) is reused with a
        // fresh handshake, so faults never leak pool capacity.
        if let Some(idx) = pool.conns.iter().position(|c| !c.busy && !c.established) {
            pool.conns[idx].busy = true;
            self.fetches[f].conn = Some(idx);
            let dt = self.handshake_time(f);
            self.net.set_timer(dt, Pending::HandshakeDone(f));
            return;
        }
        if pool.conns.len() < max {
            pool.conns.push(ConnState {
                established: false,
                busy: true,
            });
            let idx = pool.conns.len() - 1;
            self.fetches[f].conn = Some(idx);
            let dt = self.handshake_time(f);
            self.net.set_timer(dt, Pending::HandshakeDone(f));
            return;
        }
        let high = !self.cfg.prioritize_render_blocking
            || matches!(
                ResourceKind::from_path(self.fetches[f].url.path()),
                ResourceKind::Html | ResourceKind::Css | ResourceKind::Js
            );
        let host = self.fetches[f].url.host().to_owned();
        let pool = self.pools.get_mut(&host).expect("pool");
        if high {
            pool.queue.push_back(f);
        } else {
            pool.queue_low.push_back(f);
        }
    }

    /// TCP (+ optional TLS 1.3) connection establishment time, charged
    /// to the fetch opening the connection.
    fn handshake_time(&mut self, f: FetchId) -> Duration {
        let mut dt = self.cond.rtt;
        let mut rtts = 1u32;
        if self.cfg.tls {
            dt += self.cond.rtt;
            rtts += 1;
        }
        let loss = self.loss_penalty();
        if loss > Duration::ZERO {
            rtts += 2;
        }
        self.fetches[f].rtts += rtts;
        dt + loss
    }

    /// Draws from the seeded loss stream: with probability
    /// `loss_rate`, one retransmission timeout (+2×RTT).
    fn loss_penalty(&mut self) -> Duration {
        if self.cfg.loss_rate <= 0.0 {
            return Duration::ZERO;
        }
        if next_unit(&mut self.loss_state) < self.cfg.loss_rate {
            self.cond.rtt * 2
        } else {
            Duration::ZERO
        }
    }

    fn release_conn(&mut self, f: FetchId, now: SimTime) {
        if self.cfg.http2 {
            return; // streams do not occupy the connection
        }
        let host = self.fetches[f].url.host().to_owned();
        let Some(idx) = self.fetches[f].conn.take() else {
            return;
        };
        let pool = self.pools.get_mut(&host).expect("pool exists");
        pool.conns[idx].busy = false;
        if let Some(next) = pool.pop_waiter() {
            pool.conns[idx].busy = true;
            self.fetches[next].conn = Some(idx);
            self.start_upload(next, now);
        }
    }

    fn start_upload(&mut self, f: FetchId, now: SimTime) {
        if self.fetches[f].started.is_none() {
            self.fetches[f].started = Some(now);
        }
        let bytes = self.fetches[f].req.wire_len() as u64;
        self.fetches[f].bytes_up = bytes;
        self.net
            .start_flow(self.uplink, bytes, Pending::UploadDone(f));
    }

    // ---- delivery ----

    /// A network response for `f` arrived: the profile admits it into
    /// the caches and says what the page gets.
    fn deliver_network(&mut self, f: FetchId, resp: Response, now: SimTime) {
        let fetch = &mut self.fetches[f];
        fetch.facts.note_epoch(&resp);
        let is_navigation = fetch.facts.role == Role::Navigation;
        let admitted = self
            .profile
            .admit(&fetch.facts.key, &fetch.req, resp, is_navigation);
        fetch.facts.outcome = admitted.outcome;
        fetch.facts.degraded |= admitted.distrusted;
        if fetch.facts.role == Role::Background {
            fetch.completed = Some(now);
            return;
        }
        self.complete(f, admitted.delivered, now);
    }

    /// A response is now available to the page: record it and schedule
    /// content processing (parse / execute).
    fn complete(&mut self, f: FetchId, mut delivered: Response, now: SimTime) {
        let fetch = &mut self.fetches[f];
        fetch.completed = Some(now);
        // Pushed/bundled responses enter the regular caches, exactly
        // as browsers admit pushed streams into the HTTP cache.
        if fetch.facts.outcome == FetchOutcome::Pushed {
            delivered = self
                .profile
                .admit(&fetch.facts.key, &fetch.req, delivered, false)
                .delivered;
        }
        fetch.facts.note_delivered(&delivered);
        let is_nav = fetch.facts.role == Role::Navigation;
        let kind = ResourceKind::from_path(fetch.url.path());
        let len = delivered.body.len();
        let ok = delivered.status.is_success();
        fetch.delivered = Some(delivered);
        if !ok {
            return;
        }
        if let Some(dt) = profile::process_cost(self.cfg, kind, len) {
            self.net.set_timer(dt, Pending::Processed(f));
        }
        if is_nav {
            self.handle_predelivery(f, now);
        }
    }

    /// Materializes server-push and RDR-bundle announcements carried
    /// on the navigation response.
    fn handle_predelivery(&mut self, f: FetchId, now: SimTime) {
        // A refcount bump: the announcements stay readable while the
        // fetches they name are created (which mutates `self.fetches`).
        let headers = self.fetches[f]
            .delivered
            .as_ref()
            .expect("just set")
            .headers
            .clone();
        let bundled = headers.get_combined(HeaderName::X_CC_RDR_BUNDLE);
        let pushed = headers.get_combined(HeaderName::X_CC_PUSHED);
        let base = self.fetches[f].url.clone();
        // Internal materialization requests carry the trace context
        // too, parented under the navigation's span (bundles) or the
        // push row's own span, so origin work they cause is attributed.
        let nav_span = self.fetches[f].span;
        let t_secs = self.profile.t_secs;
        // RDR bundle: bodies already arrived inside the bundle body;
        // make them instantly available.
        if let Some(list) = bundled {
            for path in list.split(',').filter(|p| !p.trim().is_empty()) {
                let Ok(url) = base.join(path.trim()) else {
                    continue;
                };
                let mut req = profile::request(self.cfg, &url, Purpose::Internal("bundle"));
                self.trace_request(&mut req, nav_span, Some(now));
                let resp = self.up.handle(url.host(), &req, t_secs);
                if resp.status.is_success() {
                    self.predelivered.insert(url.to_string(), resp);
                }
            }
        }
        // Server push: bodies stream down after the navigation
        // response, sharing the downlink with everything else.
        if let Some(list) = pushed {
            for path in list.split(',').filter(|p| !p.trim().is_empty()) {
                let Ok(url) = base.join(path.trim()) else {
                    continue;
                };
                let key = url.to_string();
                if self.requested.contains(&key) || self.predelivered.contains_key(&key) {
                    continue;
                }
                let mut req = profile::request(self.cfg, &url, Purpose::Internal("push"));
                let push_span = self.trace_request(&mut req, None, Some(now));
                let resp = self.up.handle(url.host(), &req, t_secs);
                if !resp.status.is_success() {
                    continue;
                }
                let bytes = resp.wire_len() as u64;
                let pf = self.fetches.len();
                let mut facts = FetchFacts::new(key.clone(), Role::Push);
                facts.outcome = FetchOutcome::Pushed;
                self.fetches.push(FetchState {
                    started: Some(now),
                    response: Some(resp),
                    bytes_down: bytes,
                    span: push_span,
                    ..FetchState::new(url, facts, req, now)
                });
                self.push_inflight.insert(key, (pf, None));
                self.net
                    .start_flow(self.downlink, bytes, Pending::PushDone(pf));
            }
        }
    }

    /// A delivered body has been parsed / executed: start the fetches
    /// it references.
    fn on_processed(&mut self, f: FetchId, now: SimTime) {
        // A refcount bump: the body stays readable while the links it
        // names are scheduled (which mutates `self.fetches`).
        let Some(body) = self.fetches[f].delivered.as_ref().map(|d| d.body.clone()) else {
            return;
        };
        let from_navigation = self.fetches[f].facts.role == Role::Navigation;
        for url in profile::discover(&self.fetches[f].url, &body) {
            // Stylesheets and scripts referenced by the base
            // document's markup block first paint.
            let blocking = from_navigation
                && matches!(
                    ResourceKind::from_path(url.path()),
                    ResourceKind::Css | ResourceKind::Js
                );
            let next_id = self.fetches.len();
            if self.request_fetch(url, now, Role::Subresource) && blocking {
                self.render_blocking.push(next_id);
            }
        }
    }

    fn finalize(mut self) -> LoadReport {
        // The revalidation's outcome is the staleness oracle for the
        // SWR-served copy it refreshed.
        for &(background, served) in &self.swr_pairs {
            let outcome = self.fetches[background].facts.outcome;
            self.fetches[served].facts.refreshed_by(outcome);
        }
        let mut trace = LoadTrace::default();
        let mut tally = Tally {
            faults_injected: self.n_faults,
            retries: self.n_retries,
            ..Tally::default()
        };
        let mut pushed = 0;
        let mut pushed_unused = 0;
        let mut pushed_bytes = 0u64;
        let mut pushed_unused_bytes = 0u64;
        for f in &self.fetches {
            let completed = f.completed.unwrap_or(f.discovered);
            tally.add(&f.facts, completed);
            if f.facts.role == Role::Push {
                pushed += 1;
                pushed_bytes += f.bytes_down;
                if !f.push_used {
                    pushed_unused += 1;
                    pushed_unused_bytes += f.bytes_down;
                }
            }
            trace.fetches.push(FetchTrace {
                url: f.facts.key.clone(),
                discovered: f.discovered,
                started: f.started.unwrap_or(f.discovered),
                completed,
                outcome: f.facts.outcome,
                // Wasted partial transfers count: the wire carried them.
                bytes_down: f.bytes_down + f.bytes_wasted,
                bytes_up: f.bytes_up,
                rtts: f.rtts,
                upload_done: f.t_upload_done,
                response_start: f.t_response_start,
            });
        }
        let plt = tally.plt;
        let fcp = self
            .render_blocking
            .iter()
            .filter_map(|&f| self.fetches[f].completed)
            .max()
            .unwrap_or(plt);
        if let Some(tracer) = &self.tracer {
            self.emit_spans(tracer, plt);
        }
        LoadReport {
            plt,
            fcp,
            full_transfers: tally.full_transfers,
            not_modified: tally.not_modified,
            cache_hits: tally.cache_hits,
            sw_hits: tally.sw_hits,
            bytes_down: trace.bytes_down(),
            bytes_up: trace.bytes_up(),
            pushed,
            pushed_unused,
            pushed_bytes,
            pushed_unused_bytes,
            swr_served: tally.swr_served,
            faults_injected: tally.faults_injected,
            retries: tally.retries,
            degraded: tally.degraded,
            audits: self.fetches.iter().map(|f| f.facts.audit()).collect(),
            trace,
        }
    }

    /// Emits the load's span tree: one `page_load` root, one `fetch`
    /// span per resource, and phase children (`queue`, `request`,
    /// `wait`, `download` for network fetches; `local` for cache, SW
    /// and predelivered hits). Origin/proxy spans recorded downstream
    /// already parent onto the fetch spans via the propagated context.
    fn emit_spans(&self, tracer: &Tracer, plt: SimTime) {
        let page = self
            .navigation_url
            .clone()
            .unwrap_or_else(|| "about:blank".to_owned());
        tracer.sink.record(Span {
            trace_id: tracer.trace,
            span_id: tracer.root,
            parent: None,
            name: "page_load",
            start_ms: self.abs_ms(SimTime::ZERO),
            end_ms: self.abs_ms(plt),
            attrs: vec![
                ("page", page),
                ("resources", self.fetches.len().to_string()),
            ],
        });
        for f in &self.fetches {
            let Some(span_id) = f.span else { continue };
            let completed = f.completed.unwrap_or(f.discovered);
            let started = f.started.unwrap_or(f.discovered);
            tracer.sink.record(Span {
                trace_id: tracer.trace,
                span_id,
                parent: Some(tracer.root),
                name: "fetch",
                start_ms: self.abs_ms(f.discovered),
                end_ms: self.abs_ms(completed),
                attrs: vec![
                    ("url", f.facts.key.clone()),
                    ("outcome", f.facts.outcome.tag().trim().to_owned()),
                    ("role", f.facts.role.as_str().to_owned()),
                    ("bytes_down", f.bytes_down.to_string()),
                    ("rtts", f.rtts.to_string()),
                ],
            });
            let child = |name: &'static str, from: SimTime, to: SimTime| {
                tracer.sink.record(Span {
                    trace_id: tracer.trace,
                    span_id: SpanId::next(),
                    parent: Some(span_id),
                    name,
                    start_ms: self.abs_ms(from),
                    end_ms: self.abs_ms(to),
                    attrs: Vec::new(),
                });
            };
            match (f.t_upload_done, f.t_response_start) {
                (Some(upload_done), Some(response_start)) => {
                    // Network exchange: connection wait + handshake,
                    // request serialization/upload, server round trip,
                    // body download.
                    if started > f.discovered {
                        child("queue", f.discovered, started);
                    }
                    child("request", started, upload_done);
                    child("wait", upload_done, response_start);
                    child("download", response_start, completed);
                }
                _ => {
                    // Local serving (SW hit, cache hit, predelivered
                    // push/bundle body): one span for the local
                    // overhead.
                    child("local", f.discovered, completed);
                }
            }
        }
    }
}
