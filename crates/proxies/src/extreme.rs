//! An Extreme-Cache-style TTL-estimating proxy (Raza et al., §5).
//!
//! Sits between clients and the origin and rewrites `Cache-Control`
//! with *estimated* TTLs derived from each object's observed change
//! history — the "fix the headers for the developers" approach the
//! paper contrasts with its own design. The estimator is the classic
//! one: an object that has not changed for `A` seconds is predicted to
//! stay unchanged for `α·A` more (the same heuristic RFC 9111 blesses
//! for heuristic freshness, with α usually 0.1; Extreme Cache argues
//! for much more aggressive values).

use std::collections::HashMap;
use std::sync::Arc;

use cachecatalyst_httpwire::{EntityTag, HeaderName, Request, Response, Upstream};
use cachecatalyst_origin::OriginServer;
use parking_lot::Mutex;

#[derive(Debug, Clone)]
struct Observed {
    etag: EntityTag,
    /// When the proxy first saw this version.
    since: i64,
}

/// Aggressiveness of the estimator: TTL = α × observed age.
const ALPHA: f64 = 0.5;
/// Floor and ceiling for assigned TTLs (seconds).
const MIN_TTL: u64 = 60;
const MAX_TTL: u64 = 7 * 24 * 3600;

/// The TTL-estimating proxy.
pub struct ExtremeCacheProxy {
    inner: Arc<OriginServer>,
    observed: Mutex<HashMap<String, Observed>>,
}

impl ExtremeCacheProxy {
    pub fn new(inner: Arc<OriginServer>) -> ExtremeCacheProxy {
        ExtremeCacheProxy {
            inner,
            observed: Mutex::new(HashMap::new()),
        }
    }

    /// The TTL the proxy would assign for `path` at `t` given history.
    fn estimate(&self, path: &str, etag: &EntityTag, t: i64) -> u64 {
        let mut observed = self.observed.lock();
        let entry = observed.entry(path.to_owned()).or_insert_with(|| Observed {
            etag: etag.clone(),
            since: t,
        });
        if !entry.etag.weak_eq(etag) {
            // Changed since last observation: restart the age clock.
            entry.etag = etag.clone();
            entry.since = t;
        }
        let age = (t - entry.since).max(0) as f64;
        ((age * ALPHA) as u64).clamp(MIN_TTL, MAX_TTL)
    }

    fn handle_core(&self, req: &Request, t_secs: i64) -> Response {
        let mut resp = (*self.inner).handle(req, t_secs);
        let cc = resp.cache_control();
        // Respect genuinely uncacheable content.
        if cc.no_store {
            return resp;
        }
        if let Some(etag) = resp.etag() {
            let ttl = self.estimate(req.target.path(), &etag, t_secs);
            resp.headers
                .insert(HeaderName::CACHE_CONTROL, &format!("max-age={ttl}"));
        }
        resp
    }
}

impl Upstream for ExtremeCacheProxy {
    fn handle(&self, _host: &str, req: &Request, t_secs: i64) -> Response {
        let core = |req: &Request| self.handle_core(req, t_secs);
        crate::traced_hop(&self.inner, "proxy.extreme", req, t_secs, core, |resp| {
            let assigned = resp.headers.get(HeaderName::CACHE_CONTROL).unwrap_or("");
            (0.0, vec![("cache_control", assigned.to_owned())])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_browser::Browser;
    use cachecatalyst_httpwire::Url;
    use cachecatalyst_netsim::{FetchOutcome, NetworkConditions};
    use cachecatalyst_origin::HeaderMode;
    use cachecatalyst_webmodel::example_site;

    fn proxy() -> ExtremeCacheProxy {
        ExtremeCacheProxy::new(Arc::new(OriginServer::new(
            example_site(),
            HeaderMode::Baseline,
        )))
    }

    fn base() -> Url {
        Url::parse("http://example.org/index.html").unwrap()
    }

    #[test]
    fn rewrites_ttls_based_on_observed_stability() {
        let p = proxy();
        // First sighting: floor TTL.
        let r0 = p.handle("h", &Request::get("/a.css"), 0);
        assert_eq!(r0.headers.get("cache-control"), Some("max-age=60"));
        // Seen unchanged for a day: TTL grows to α × age.
        let r1 = p.handle("h", &Request::get("/a.css"), 86_400);
        assert_eq!(r1.headers.get("cache-control"), Some("max-age=43200"));
    }

    #[test]
    fn change_resets_the_estimate() {
        let p = proxy();
        p.handle("h", &Request::get("/d.jpg"), 0);
        // d.jpg changes every 100 min; after 2h the tag differs and the
        // age clock restarts.
        let r = p.handle("h", &Request::get("/d.jpg"), 7200);
        assert_eq!(r.headers.get("cache-control"), Some("max-age=60"));
        assert_eq!(p.observed.lock().len(), 1);
    }

    #[test]
    fn no_store_respected() {
        // index.html in the example is no-cache (rewritten), but a
        // NoStore-mode origin stays untouched.
        let p = ExtremeCacheProxy::new(Arc::new(OriginServer::new(
            example_site(),
            HeaderMode::NoStore,
        )));
        let r = p.handle("h", &Request::get("/a.css"), 0);
        assert_eq!(r.headers.get("cache-control"), Some("no-store"));
    }

    #[test]
    fn stable_resources_become_cache_hits_over_time() {
        let p = proxy();
        let cond = NetworkConditions::five_g_median();
        let mut browser = Browser::baseline();
        // Two priming visits teach the proxy that a.css/b.js are stable.
        browser.load(&p, cond, &base(), 0);
        browser.load(&p, cond, &base(), 86_400);
        // Third visit one hour later: b.js (originally no-cache —
        // never served from cache under the baseline) is now fresh.
        let report = browser.load(&p, cond, &base(), 90_000);
        let b = report
            .trace
            .fetches
            .iter()
            .find(|f| f.url.ends_with("/b.js"))
            .unwrap();
        assert_eq!(b.outcome, FetchOutcome::CacheHit);
    }

    #[test]
    fn misprediction_serves_stale_content() {
        // The failure mode the paper points out: the estimator can
        // assign a TTL that outlives the content.
        let p = proxy();
        let cond = NetworkConditions::five_g_median();
        let mut browser = Browser::baseline();
        browser.load(&p, cond, &base(), 0);
        // d.jpg unchanged for ~99 minutes → TTL grows; then it changes.
        browser.load(&p, cond, &base(), 5_900);
        let report = browser.load(&p, cond, &base(), 6_600); // d changed at 6000
        let d = report
            .trace
            .fetches
            .iter()
            .find(|f| f.url.ends_with("/d.jpg"))
            .unwrap();
        assert_eq!(
            d.outcome,
            FetchOutcome::CacheHit,
            "stale hit: the estimator predicted stability that did not hold"
        );
    }
}
