//! A fault-injecting [`Upstream`] decorator.
//!
//! Wraps any upstream — an origin, or one of the proxy comparators —
//! and damages responses according to a seeded
//! [`FaultSchedule`](cachecatalyst_netsim::FaultSchedule), so chaos
//! runs can place the failure *behind* a proxy hop: the browser then
//! exercises its retry/degradation machinery against a proxy whose
//! backend is misbehaving, not just against a flaky last mile.
//!
//! Fault kinds map onto the sans-IO seam as follows. Response-body
//! truncation and connection resets have no byte stream to cut here,
//! so they (and stalls/loss bursts) surface as a 503 the client
//! retries; delays ride the `x-cc-server-delay-ms` header the engine
//! already charges; config tampering damages the `X-Etag-Config`
//! map in transit without re-signing it, which the client detects by
//! digest. Internal traffic (`x-cc-internal`, e.g. RDR bundle
//! subfetches) is never faulted — the chaos boundary is the
//! client-facing hop.

use std::sync::Arc;

use cachecatalyst_browser::Upstream;
use cachecatalyst_catalyst::tamper_config_headers;
use cachecatalyst_httpwire::{HeaderName, Request, Response, StatusCode};
use cachecatalyst_netsim::{Fault, FaultPlan, ServerFaults};

/// A seeded chaos decorator around any [`Upstream`].
pub struct FaultyUpstream<U> {
    inner: U,
    /// After `max_consecutive` damaged responses in a row the next one
    /// is served clean, so a bounded-retry client always makes
    /// progress.
    faults: Arc<ServerFaults>,
}

impl<U: Upstream> FaultyUpstream<U> {
    pub fn new(inner: U, plan: FaultPlan) -> FaultyUpstream<U> {
        FaultyUpstream {
            inner,
            faults: ServerFaults::new(plan),
        }
    }

    /// The wrapped upstream (e.g. to inspect origin state in tests).
    pub fn inner(&self) -> &U {
        &self.inner
    }
}

impl<U: Upstream> Upstream for FaultyUpstream<U> {
    fn handle(&self, host: &str, req: &Request, t_secs: i64) -> Response {
        let mut resp = self.inner.handle(host, req, t_secs);
        if req.headers.contains(HeaderName::X_CC_INTERNAL) {
            return resp;
        }
        match self.faults.draw() {
            None => {}
            Some(Fault::ServerError { status }) => {
                resp = Response::empty(StatusCode::new(status).expect("5xx is valid"))
                    .with_header(HeaderName::X_CC_FAULT, "server-error");
            }
            Some(Fault::ResetMidBody { .. } | Fault::Stall | Fault::LossBurst { .. }) => {
                resp = Response::empty(StatusCode::SERVICE_UNAVAILABLE)
                    .with_header(HeaderName::X_CC_FAULT, "upstream-connection");
            }
            Some(Fault::Delay { ms }) => {
                let prior: u64 = resp
                    .headers
                    .get(HeaderName::X_CC_SERVER_DELAY_MS)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                resp.headers
                    .insert(HeaderName::X_CC_SERVER_DELAY_MS, &(prior + ms).to_string());
            }
            Some(Fault::CorruptConfigEntry { salt }) => {
                tamper_config_headers(&mut resp, Some(salt));
            }
            Some(Fault::StaleConfigEntry) => {
                tamper_config_headers(&mut resp, None);
            }
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_browser::{Browser, SingleOrigin};
    use cachecatalyst_httpwire::Url;
    use cachecatalyst_netsim::NetworkConditions;
    use cachecatalyst_origin::{HeaderMode, OriginServer};
    use cachecatalyst_webmodel::example_site;
    use std::sync::Arc;

    fn base() -> Url {
        Url::parse("http://example.org/index.html").unwrap()
    }

    fn faulty(rate: f64, seed: u64) -> FaultyUpstream<SingleOrigin> {
        let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
        FaultyUpstream::new(
            SingleOrigin(origin),
            FaultPlan::new(seed).with_fault_rate(rate),
        )
    }

    #[test]
    fn rate_zero_is_transparent() {
        let up = faulty(0.0, 1);
        let resp = up.handle("example.org", &Request::get("/index.html"), 0);
        assert_eq!(resp.status, StatusCode::OK);
        assert!(resp.headers.get(HeaderName::X_CC_FAULT).is_none());
    }

    #[test]
    fn progress_is_guaranteed_after_max_consecutive() {
        // Even at rate 1.0, every third response is served clean.
        let up = faulty(1.0, 3);
        let mut clean = 0;
        for _ in 0..30 {
            let resp = up.handle("example.org", &Request::get("/a.css"), 0);
            let damaged = resp.headers.get(HeaderName::X_CC_FAULT).is_some()
                || resp.headers.get(HeaderName::X_CC_SERVER_DELAY_MS).is_some()
                || resp.status != StatusCode::OK;
            if !damaged {
                clean += 1;
            }
        }
        assert!(clean >= 10, "one in three must be clean, got {clean}/30");
    }

    #[test]
    fn internal_requests_are_never_faulted() {
        let up = faulty(1.0, 5);
        for _ in 0..10 {
            let resp = up.handle(
                "example.org",
                &Request::get("/a.css").with_header(HeaderName::X_CC_INTERNAL, "probe"),
                0,
            );
            assert_eq!(resp.status, StatusCode::OK);
            assert!(resp.headers.get(HeaderName::X_CC_FAULT).is_none());
        }
    }

    #[test]
    fn browser_with_retries_survives_a_faulty_upstream() {
        let reference = {
            let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
            Browser::catalyst().load(
                &SingleOrigin(origin),
                NetworkConditions::five_g_median(),
                &base(),
                0,
            )
        };
        for seed in 1..=10u64 {
            let up = faulty(0.5, seed);
            let mut b = Browser::catalyst();
            // The browser needs a plan of its own to arm 5xx retry;
            // rate 0 keeps the engine's network fault machinery quiet
            // so only the upstream's damage is in play.
            b.config.fault_plan =
                Some(cachecatalyst_netsim::FaultPlan::new(seed).with_fault_rate(0.0));
            let report = b.load(&up, NetworkConditions::five_g_median(), &base(), 0);
            assert_eq!(
                report.trace.fetches.len(),
                reference.trace.fetches.len(),
                "seed {seed}: every resource still loads"
            );
        }
    }
}
