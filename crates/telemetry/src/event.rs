//! Structured span-like events, the one [`Recorder`] that collects
//! them and [`to_jsonl`], which renders them.
//!
//! Events mark the milestones of a page load as the paper's
//! evaluation cares about them: when the load started and ended, how
//! each resource was satisfied (and how many round trips it cost),
//! which cache decided it, and how the browser's HTTP cache moved
//! during the load.
//!
//! Timestamps (`t_ms`) are supplied by the emitter in milliseconds —
//! virtual milliseconds under the discrete-event simulator, wall
//! milliseconds under tokio — so one event schema serves both.

use std::sync::Mutex;

use crate::json_string;

/// How one resource was satisfied during a page load: the loaders
/// set it, the simulator's waterfall and the event stream print it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Full body transferred from the origin (200).
    FullTransfer,
    /// Conditional request answered `304 Not Modified`.
    NotModified,
    /// Served from the browser's HTTP cache without any request.
    CacheHit,
    /// Served by the CacheCatalyst service worker from the
    /// `X-Etag-Config` map without any request.
    ServiceWorkerHit,
    /// Delivered ahead of the request (HTTP/2-style server push or an
    /// RDR bundle); bytes crossed the network without a round trip.
    Pushed,
}

impl FetchOutcome {
    /// Whether the network was touched at all.
    pub fn used_network(self) -> bool {
        matches!(
            self,
            FetchOutcome::FullTransfer | FetchOutcome::NotModified | FetchOutcome::Pushed
        )
    }

    /// The name in the event stream (`outcome` of a `fetch_end`), in
    /// the vocabulary of the paper's comparison.
    pub fn as_str(self) -> &'static str {
        match self {
            FetchOutcome::FullTransfer => "full-fetch",
            FetchOutcome::NotModified => "conditional-304",
            FetchOutcome::CacheHit => "cache-fresh",
            FetchOutcome::ServiceWorkerHit => "etag-config-hit",
            FetchOutcome::Pushed => "pushed",
        }
    }

    /// Short tag used in waterfall rendering (and, trimmed, in span
    /// attributes and HAR comments).
    pub fn tag(self) -> &'static str {
        match self {
            FetchOutcome::FullTransfer => "GET ",
            FetchOutcome::NotModified => "304 ",
            FetchOutcome::CacheHit => "hit ",
            FetchOutcome::ServiceWorkerHit => "sw  ",
            FetchOutcome::Pushed => "push",
        }
    }
}

/// How one resource was decided by the caching machinery — the
/// vocabulary of the cache-decision **audit trail**. Coarser than
/// [`FetchOutcome`]: it answers "did the catalyst mechanism engage, and
/// if not, what happened instead?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDecision {
    /// The service worker served cached bytes on the strength of the
    /// `X-Etag-Config` map — the paper's zero-RTT path.
    SwHitZeroRtt,
    /// A conditional GET went to the origin and came back
    /// `304 Not Modified`.
    Conditional304,
    /// The full body was transferred from the origin.
    FullFetch,
    /// The catalyst mechanism was bypassed: classic freshness hit,
    /// push/bundle pre-delivery, or any other non-catalyst path.
    Bypass,
    /// A fault forced the client off its preferred path: the resource
    /// was still delivered (via retry, conditional or full re-fetch),
    /// but degraded — extra round trips or a distrusted
    /// `X-Etag-Config` map were involved.
    Degraded,
    /// A shared edge cache served its stored bytes without contacting
    /// the origin — either classic freshness or the catalyst map
    /// validating the edge's own copy (the paper's zero-RTT path,
    /// applied one tier down).
    EdgeHit,
    /// A shared edge cache answered from a negatively-cached `404`
    /// within its short TTL.
    EdgeNegative,
    /// A shared edge cache served its stored bytes from the persistent
    /// disk tier (promoting them back into DRAM) without contacting
    /// the origin.
    EdgeDiskHit,
}

impl CacheDecision {
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDecision::SwHitZeroRtt => "sw-hit-zero-rtt",
            CacheDecision::Conditional304 => "conditional-304",
            CacheDecision::FullFetch => "full-fetch",
            CacheDecision::Bypass => "bypass",
            CacheDecision::Degraded => "degraded",
            CacheDecision::EdgeHit => "edge-hit",
            CacheDecision::EdgeNegative => "edge-negative",
            CacheDecision::EdgeDiskHit => "edge-disk-hit",
        }
    }
}

/// The audit record for one resource of one page load: what was
/// decided, which `X-Etag-Config` entry was consulted, in which churn
/// epoch, and whether the bytes handed to the page were stale against
/// the origin's current version. The staleness bit is the correctness
/// oracle for the catalyst mechanism — it must be `Some(false)` for
/// every `sw-hit-zero-rtt`.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheAudit {
    pub url: String,
    pub decision: CacheDecision,
    /// The `X-Etag-Config` entry consulted for this resource, if the
    /// catalyst map was in play.
    pub etag: Option<String>,
    /// The origin's churn epoch for this resource (propagated via the
    /// `x-cc-epoch` response header on traced requests).
    pub epoch: Option<u64>,
    /// `Some(true)` if the served bytes differ from the origin's
    /// current version; `None` when unknowable (e.g. a classic
    /// freshness hit that never consulted the origin).
    pub served_stale: Option<bool>,
    /// XXH64 digest of the bytes actually handed to the page, when
    /// the fetch delivered a body. The serve-correct-bytes oracle
    /// compares this against an un-faulted reference load.
    pub body_digest: Option<u64>,
}

/// One telemetry event. Serializes to a single JSON line.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    PageLoadStart {
        page: String,
        t_ms: f64,
    },
    PageLoadEnd {
        page: String,
        t_ms: f64,
        /// Resources the page requested (the per-fetch events between
        /// start and end sum to this).
        resources: usize,
        plt_ms: f64,
    },
    FetchStart {
        url: String,
        t_ms: f64,
    },
    FetchEnd {
        url: String,
        t_ms: f64,
        outcome: FetchOutcome,
        bytes_down: u64,
        bytes_up: u64,
        /// Network round trips this fetch paid (0 for local hits).
        rtts: u32,
    },
    /// The per-resource cache-decision audit record (see
    /// [`CacheAudit`]).
    CacheDecision {
        t_ms: f64,
        audit: CacheAudit,
    },
    /// One finished tracing span (see [`crate::span::Span`]); lets
    /// span trees ride the same JSONL stream as the flat events.
    Span(crate::span::Span),
    /// An `HttpCache` metrics delta over one page load
    /// (`CacheMetrics::delta_since` flattened).
    CacheDelta {
        t_ms: f64,
        fresh_hits: u64,
        stale_hits: u64,
        misses: u64,
        stores: u64,
        revalidation_refreshes: u64,
    },
    /// Fault-injection outcome of one page load: emitted only when a
    /// fault plan was active and something actually happened.
    FaultSummary {
        t_ms: f64,
        /// Faults the network simulation injected into this load.
        faults_injected: u32,
        /// Fetch attempts the client retried after a fault.
        retries: u32,
        /// Fetches that completed on a degraded (fallback) path.
        degraded: u64,
    },
}

impl Event {
    /// The event's discriminant as it appears in the JSON `event`
    /// field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PageLoadStart { .. } => "page_load_start",
            Event::PageLoadEnd { .. } => "page_load_end",
            Event::FetchStart { .. } => "fetch_start",
            Event::FetchEnd { .. } => "fetch_end",
            Event::CacheDecision { .. } => "cache_decision",
            Event::Span(_) => "span",
            Event::CacheDelta { .. } => "cache_delta",
            Event::FaultSummary { .. } => "fault_summary",
        }
    }

    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        let kind = json_string(self.kind());
        match self {
            Event::PageLoadStart { page, t_ms } => format!(
                "{{\"event\":{kind},\"t_ms\":{t_ms:.3},\"page\":{}}}",
                json_string(page)
            ),
            Event::PageLoadEnd {
                page,
                t_ms,
                resources,
                plt_ms,
            } => format!(
                "{{\"event\":{kind},\"t_ms\":{t_ms:.3},\"page\":{},\
                 \"resources\":{resources},\"plt_ms\":{plt_ms:.3}}}",
                json_string(page)
            ),
            Event::FetchStart { url, t_ms } => format!(
                "{{\"event\":{kind},\"t_ms\":{t_ms:.3},\"url\":{}}}",
                json_string(url)
            ),
            Event::FetchEnd {
                url,
                t_ms,
                outcome,
                bytes_down,
                bytes_up,
                rtts,
            } => format!(
                "{{\"event\":{kind},\"t_ms\":{t_ms:.3},\"url\":{},\
                 \"outcome\":{},\"bytes_down\":{bytes_down},\
                 \"bytes_up\":{bytes_up},\"rtts\":{rtts}}}",
                json_string(url),
                json_string(outcome.as_str())
            ),
            Event::CacheDecision { t_ms, audit } => {
                let mut out = format!(
                    "{{\"event\":{kind},\"t_ms\":{t_ms:.3},\"url\":{},\
                     \"decision\":{}",
                    json_string(&audit.url),
                    json_string(audit.decision.as_str())
                );
                if let Some(etag) = &audit.etag {
                    out.push_str(&format!(",\"etag\":{}", json_string(etag)));
                }
                if let Some(epoch) = audit.epoch {
                    out.push_str(&format!(",\"epoch\":{epoch}"));
                }
                if let Some(stale) = audit.served_stale {
                    out.push_str(&format!(",\"served_stale\":{stale}"));
                }
                if let Some(digest) = audit.body_digest {
                    out.push_str(&format!(",\"body_digest\":\"{digest:016x}\""));
                }
                out.push('}');
                out
            }
            Event::Span(span) => span.to_json(),
            Event::CacheDelta {
                t_ms,
                fresh_hits,
                stale_hits,
                misses,
                stores,
                revalidation_refreshes,
            } => format!(
                "{{\"event\":{kind},\"t_ms\":{t_ms:.3},\
                 \"fresh_hits\":{fresh_hits},\"stale_hits\":{stale_hits},\
                 \"misses\":{misses},\"stores\":{stores},\
                 \"revalidation_refreshes\":{revalidation_refreshes}}}"
            ),
            Event::FaultSummary {
                t_ms,
                faults_injected,
                retries,
                degraded,
            } => format!(
                "{{\"event\":{kind},\"t_ms\":{t_ms:.3},\
                 \"faults_injected\":{faults_injected},\
                 \"retries\":{retries},\"degraded\":{degraded}}}"
            ),
        }
    }
}

/// The event sink: keeps every event in memory, in arrival order, for
/// whoever reads them (tests, in-process analysis, [`to_jsonl`]).
/// Tolerates concurrent emitters.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    pub fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }

    /// All events so far, clearing the buffer.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// A copy of the events without clearing.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Renders `events` as JSON Lines: one [`Event::to_json`] object per
/// event, each followed by a newline.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_end_serializes_all_fields() {
        let e = Event::FetchEnd {
            url: "http://s/a.css".into(),
            t_ms: 12.5,
            outcome: FetchOutcome::NotModified,
            bytes_down: 120,
            bytes_up: 230,
            rtts: 1,
        };
        let json = e.to_json();
        assert!(json.contains("\"event\":\"fetch_end\""));
        assert!(json.contains("\"t_ms\":12.500"));
        assert!(json.contains("\"outcome\":\"conditional-304\""));
        assert!(json.contains("\"rtts\":1"));
    }

    #[test]
    fn outcome_vocabulary() {
        assert_eq!(FetchOutcome::CacheHit.as_str(), "cache-fresh");
        assert_eq!(FetchOutcome::ServiceWorkerHit.as_str(), "etag-config-hit");
        assert_eq!(FetchOutcome::FullTransfer.as_str(), "full-fetch");
        assert_eq!(FetchOutcome::ServiceWorkerHit.tag(), "sw  ");
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let events = [
            Event::PageLoadStart {
                page: "http://s/".into(),
                t_ms: 0.0,
            },
            Event::PageLoadEnd {
                page: "http://s/".into(),
                t_ms: 80.0,
                resources: 5,
                plt_ms: 80.0,
            },
        ];
        let doc = to_jsonl(&events);
        assert_eq!(doc.lines().count(), 2);
        assert!(doc.ends_with('\n'));
        assert!(doc.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(to_jsonl(&[]).is_empty());
    }

    #[test]
    fn recorder_roundtrips() {
        let r = Recorder::new();
        let e = Event::FetchStart {
            url: "http://s/index.html".into(),
            t_ms: 1.0,
        };
        r.record(&e);
        assert_eq!(r.snapshot(), vec![e.clone()]);
        assert_eq!(r.take(), vec![e]);
        assert!(r.take().is_empty());
    }

    #[test]
    fn cache_decision_serializes_optionals_only_when_set() {
        let full = Event::CacheDecision {
            t_ms: 3.0,
            audit: CacheAudit {
                url: "http://s/a.css".into(),
                decision: CacheDecision::SwHitZeroRtt,
                etag: Some("\"v1\"".into()),
                epoch: Some(42),
                served_stale: Some(false),
                body_digest: Some(0xabcd),
            },
        };
        let json = full.to_json();
        assert!(json.contains("\"event\":\"cache_decision\""));
        assert!(json.contains("\"decision\":\"sw-hit-zero-rtt\""));
        assert!(json.contains("\"etag\":\"\\\"v1\\\"\""));
        assert!(json.contains("\"epoch\":42"));
        assert!(json.contains("\"served_stale\":false"));
        assert!(json.contains("\"body_digest\":\"000000000000abcd\""));

        let bare = Event::CacheDecision {
            t_ms: 3.0,
            audit: CacheAudit {
                url: "http://s/b.js".into(),
                decision: CacheDecision::Bypass,
                etag: None,
                epoch: None,
                served_stale: None,
                body_digest: None,
            },
        };
        let json = bare.to_json();
        assert!(json.contains("\"decision\":\"bypass\""));
        assert!(!json.contains("etag"));
        assert!(!json.contains("epoch"));
        assert!(!json.contains("served_stale"));
        assert!(!json.contains("digest"));
    }

    #[test]
    fn decision_vocabulary() {
        assert_eq!(CacheDecision::SwHitZeroRtt.as_str(), "sw-hit-zero-rtt");
        assert_eq!(CacheDecision::Conditional304.as_str(), "conditional-304");
        assert_eq!(CacheDecision::FullFetch.as_str(), "full-fetch");
        assert_eq!(CacheDecision::Bypass.as_str(), "bypass");
        assert_eq!(CacheDecision::Degraded.as_str(), "degraded");
        assert_eq!(CacheDecision::EdgeHit.as_str(), "edge-hit");
        assert_eq!(CacheDecision::EdgeNegative.as_str(), "edge-negative");
    }

    #[test]
    fn span_event_rides_the_jsonl_stream() {
        use crate::span::{Span, SpanId, TraceId};
        let e = Event::Span(Span {
            trace_id: TraceId(1),
            span_id: SpanId(2),
            parent: None,
            name: "page_load",
            start_ms: 0.0,
            end_ms: 10.0,
            attrs: vec![],
        });
        assert_eq!(e.kind(), "span");
        let json = e.to_json();
        assert!(json.contains("\"event\":\"span\""));
        assert!(json.contains("\"name\":\"page_load\""));
        assert!(!json.contains("parent_id"), "root has no parent");
    }

    #[test]
    fn json_lines_are_structurally_balanced() {
        let events = [
            Event::FetchStart {
                url: "http://s/x\"y".into(),
                t_ms: 0.1,
            },
            Event::CacheDelta {
                t_ms: 2.0,
                fresh_hits: 1,
                stale_hits: 2,
                misses: 3,
                stores: 4,
                revalidation_refreshes: 1,
            },
        ];
        for e in &events {
            let json = e.to_json();
            let mut depth = 0i64;
            let mut in_str = false;
            let mut prev = ' ';
            for c in json.chars() {
                if in_str {
                    if c == '"' && prev != '\\' {
                        in_str = false;
                    }
                } else {
                    match c {
                        '"' => in_str = true,
                        '{' => depth += 1,
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                prev = if prev == '\\' && c == '\\' { ' ' } else { c };
            }
            assert_eq!(depth, 0, "{json}");
            assert!(!in_str, "{json}");
        }
    }
}
