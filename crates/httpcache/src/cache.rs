//! The browser's HTTP cache.

use std::borrow::Cow;
use std::collections::HashMap;

use cachecatalyst_httpwire::{HeaderName, Method, Request, Response, StatusCode};

use crate::freshness::{freshness_lifetime, is_fresh, swr_usable};
use crate::metrics::CacheMetrics;

/// One stored response.
#[derive(Debug, Clone)]
struct CacheEntry {
    response: Response,
    /// Virtual seconds when the request producing this entry was sent.
    request_time: i64,
    /// Virtual seconds when the response arrived.
    response_time: i64,
    /// The response's `Vary` selection: for each varied request header
    /// (lowercased), the value the original request carried
    /// (RFC 9111 §4.1). `("*", _)` never matches.
    vary: Vec<(String, Option<String>)>,
}

impl CacheEntry {
    /// Whether a new request selects this stored variant.
    fn vary_matches(&self, req: &Request) -> bool {
        self.vary.iter().all(|(name, stored)| {
            name != "*" && req.headers.get_combined(name).as_deref() == stored.as_deref()
        })
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// A fresh stored response: serve with zero network use.
    Fresh(Response),
    /// A stale stored response that can be revalidated; `etag` /
    /// `last_modified` say which validators to attach. When
    /// `swr_usable` is set, RFC 5861 permits serving this response
    /// immediately while revalidating in the background.
    Stale {
        response: Response,
        etag: Option<String>,
        last_modified: Option<String>,
        swr_usable: bool,
    },
    /// Nothing stored (or not reusable).
    Miss,
}

/// A private (browser) HTTP cache keyed by absolute URL, one variant
/// per URL. It has no byte budget: a browser gives an origin tens to
/// hundreds of MB, more than any visit in the evaluation stores.
///
/// ```
/// use cachecatalyst_httpcache::{HttpCache, Lookup};
/// use cachecatalyst_httpwire::{HttpDate, Request, Response};
///
/// let mut cache = HttpCache::new();
/// let req = Request::get("/logo.png");
/// let resp = Response::ok("png-bytes")
///     .with_header("cache-control", "max-age=60")
///     .with_header("date", &HttpDate(0).to_imf_fixdate());
/// cache.store("http://s/logo.png", &req, &resp, 0, 0);
/// assert!(matches!(cache.lookup("http://s/logo.png", &req, 30), Lookup::Fresh(_)));
/// assert!(matches!(cache.lookup("http://s/logo.png", &req, 90), Lookup::Stale { .. }));
/// ```
#[derive(Debug, Clone, Default)]
pub struct HttpCache {
    entries: HashMap<String, CacheEntry>,
    pub metrics: CacheMetrics,
}

impl HttpCache {
    /// An empty cache.
    pub fn new() -> HttpCache {
        HttpCache::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `url` for `req` at virtual time `now`, honoring the
    /// stored response's `Vary` selection (RFC 9111 §4.1): a
    /// mismatching variant is a miss.
    pub fn lookup(&mut self, url: &str, req: &Request, now: i64) -> Lookup {
        let Some(entry) = self.entries.get(url).filter(|e| e.vary_matches(req)) else {
            self.metrics.misses += 1;
            return Lookup::Miss;
        };
        if is_fresh(
            &entry.response,
            entry.request_time,
            entry.response_time,
            now,
        ) {
            self.metrics.fresh_hits += 1;
            Lookup::Fresh(entry.response.clone())
        } else {
            self.metrics.stale_hits += 1;
            let etag = entry
                .response
                .headers
                .get(HeaderName::ETAG)
                .map(str::to_owned);
            let last_modified = entry
                .response
                .headers
                .get(HeaderName::LAST_MODIFIED)
                .map(str::to_owned);
            let swr = swr_usable(
                &entry.response,
                entry.request_time,
                entry.response_time,
                now,
            );
            Lookup::Stale {
                response: entry.response.clone(),
                etag,
                last_modified,
                swr_usable: swr,
            }
        }
    }

    /// Whether `resp` to `req` may be stored (RFC 9111 §3, private
    /// cache rules).
    pub fn is_storable(req: &Request, resp: &Response) -> bool {
        if req.method != Method::Get {
            return false;
        }
        if resp.cache_control().no_store || req.cache_control().no_store {
            return false;
        }
        if !resp.status.is_success() && !resp.status.is_redirection() {
            return false;
        }
        if resp.status == StatusCode::NOT_MODIFIED {
            return false; // handled by update_with_304
        }
        // Must have *some* way to be reused: explicit freshness,
        // a validator, or heuristic freshness.
        let cc = resp.cache_control();
        cc.max_age.is_some()
            || cc.no_cache
            || resp.headers.contains(HeaderName::EXPIRES)
            || resp.headers.contains(HeaderName::ETAG)
            || resp.headers.contains(HeaderName::LAST_MODIFIED)
            || freshness_lifetime(resp) > std::time::Duration::ZERO
    }

    /// Stores a response if permitted. Returns whether it was stored.
    pub fn store(
        &mut self,
        url: &str,
        req: &Request,
        resp: &Response,
        request_time: i64,
        response_time: i64,
    ) -> bool {
        if !Self::is_storable(req, resp) {
            return false;
        }
        // Capture the Vary selection (RFC 9111 §4.1).
        let vary: Vec<(String, Option<String>)> = resp
            .headers
            .get_combined(HeaderName::VARY)
            .map(|v| {
                v.split(',')
                    .map(|name| {
                        let name = name.trim().to_ascii_lowercase();
                        let value = req.headers.get_combined(&name).map(Cow::into_owned);
                        (name, value)
                    })
                    .collect()
            })
            .unwrap_or_default();
        self.entries.insert(
            url.to_owned(),
            CacheEntry {
                response: resp.clone(),
                request_time,
                response_time,
                vary,
            },
        );
        self.metrics.stores += 1;
        true
    }

    /// Applies a `304 Not Modified` to the stored entry for `url`
    /// (RFC 9111 §4.3.4): updates stored headers from the 304 and
    /// refreshes the entry's timestamps. Returns the refreshed
    /// response for serving, or `None` if nothing is stored.
    pub fn update_with_304(
        &mut self,
        url: &str,
        resp_304: &Response,
        request_time: i64,
        response_time: i64,
    ) -> Option<Response> {
        let entry = self.entries.get_mut(url)?;
        entry.response.merge_not_modified(resp_304);
        entry.request_time = request_time;
        entry.response_time = response_time;
        self.metrics.revalidation_refreshes += 1;
        Some(entry.response.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_httpwire::HttpDate;

    fn cacheable_response(max_age: u64, etag: &str) -> Response {
        Response::ok("0123456789")
            .with_header("cache-control", &format!("max-age={max_age}"))
            .with_header("etag", &format!("\"{etag}\""))
            .with_header("date", &HttpDate(0).to_imf_fixdate())
    }

    #[test]
    fn miss_then_fresh_then_stale() {
        let mut cache = HttpCache::new();
        let req = Request::get("/r");
        assert!(matches!(cache.lookup("u", &req, 0), Lookup::Miss));

        let resp = cacheable_response(100, "v1");
        assert!(cache.store("u", &req, &resp, 0, 0));

        assert!(matches!(cache.lookup("u", &req, 50), Lookup::Fresh(_)));
        match cache.lookup("u", &req, 150) {
            Lookup::Stale { etag, .. } => assert_eq!(etag.as_deref(), Some("\"v1\"")),
            other => panic!("expected stale, got {other:?}"),
        }
        assert_eq!(cache.metrics.misses, 1);
        assert_eq!(cache.metrics.fresh_hits, 1);
        assert_eq!(cache.metrics.stale_hits, 1);
    }

    #[test]
    fn no_store_is_not_stored() {
        let mut cache = HttpCache::new();
        let req = Request::get("/r");
        let resp = Response::ok("x").with_header("cache-control", "no-store");
        assert!(!cache.store("u", &req, &resp, 0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn no_cache_is_stored_but_always_stale() {
        let mut cache = HttpCache::new();
        let req = Request::get("/r");
        let resp = Response::ok("x")
            .with_header("cache-control", "no-cache")
            .with_header("etag", "\"e\"");
        assert!(cache.store("u", &req, &resp, 0, 0));
        assert!(matches!(cache.lookup("u", &req, 0), Lookup::Stale { .. }));
    }

    #[test]
    fn non_get_not_stored() {
        let mut cache = HttpCache::new();
        let mut req = Request::get("/r");
        req.method = Method::Post;
        let resp = cacheable_response(100, "v");
        assert!(!cache.store("u", &req, &resp, 0, 0));
    }

    #[test]
    fn response_without_any_caching_info_not_stored() {
        let mut cache = HttpCache::new();
        let req = Request::get("/r");
        let resp = Response::ok("x");
        assert!(!cache.store("u", &req, &resp, 0, 0));
    }

    #[test]
    fn error_responses_not_stored() {
        let mut cache = HttpCache::new();
        let req = Request::get("/r");
        let mut resp = cacheable_response(100, "v");
        resp.status = StatusCode::INTERNAL_SERVER_ERROR;
        assert!(!cache.store("u", &req, &resp, 0, 0));
    }

    #[test]
    fn revalidation_freshens_entry() {
        let mut cache = HttpCache::new();
        let req = Request::get("/r");
        cache.store("u", &req, &cacheable_response(100, "v1"), 0, 0);

        // At t=150 the entry is stale. The origin said 304 with a new
        // Date; the entry becomes fresh for another 100 s.
        let resp304 =
            Response::not_modified(None).with_header("date", &HttpDate(150).to_imf_fixdate());
        let refreshed = cache.update_with_304("u", &resp304, 150, 150).unwrap();
        assert_eq!(&refreshed.body[..], b"0123456789");
        assert!(matches!(cache.lookup("u", &req, 200), Lookup::Fresh(_)));
        assert!(matches!(cache.lookup("u", &req, 251), Lookup::Stale { .. }));
    }

    #[test]
    fn update_304_keeps_body_and_updates_headers() {
        let mut cache = HttpCache::new();
        let req = Request::get("/r");
        cache.store("u", &req, &cacheable_response(100, "v1"), 0, 0);
        let resp304 = Response::not_modified(Some(&"\"v1\"".parse().unwrap()))
            .with_header("cache-control", "max-age=500");
        let refreshed = cache.update_with_304("u", &resp304, 150, 150).unwrap();
        assert_eq!(refreshed.headers.get("cache-control"), Some("max-age=500"));
        assert_eq!(&refreshed.body[..], b"0123456789");
    }

    #[test]
    fn replacing_an_entry_keeps_one_per_url() {
        let mut cache = HttpCache::new();
        let req = Request::get("/r");
        cache.store("u", &req, &cacheable_response(100, "v1"), 0, 0);
        cache.store("u", &req, &cacheable_response(100, "v2"), 1, 1);
        assert_eq!(cache.len(), 1);
        match cache.lookup("u", &req, 2) {
            Lookup::Fresh(resp) => assert_eq!(resp.headers.get("etag"), Some("\"v2\"")),
            other => panic!("expected fresh, got {other:?}"),
        }
    }

    #[test]
    fn vary_mismatch_is_a_miss() {
        let mut cache = HttpCache::new();
        let req_gzip = Request::get("/r").with_header("accept-encoding", "gzip");
        let resp = cacheable_response(100, "v").with_header("vary", "Accept-Encoding");
        assert!(cache.store("u", &req_gzip, &resp, 0, 0));

        // Same selecting header: hit.
        assert!(matches!(cache.lookup("u", &req_gzip, 10), Lookup::Fresh(_)));
        // Different selecting header: miss.
        let req_br = Request::get("/r").with_header("accept-encoding", "br");
        assert!(matches!(cache.lookup("u", &req_br, 10), Lookup::Miss));
        // Absent selecting header: miss too.
        let req_none = Request::get("/r");
        assert!(matches!(cache.lookup("u", &req_none, 10), Lookup::Miss));
    }

    #[test]
    fn vary_star_never_matches() {
        let mut cache = HttpCache::new();
        let req = Request::get("/r");
        let resp = cacheable_response(100, "v").with_header("vary", "*");
        assert!(cache.store("u", &req, &resp, 0, 0));
        assert!(matches!(cache.lookup("u", &req, 10), Lookup::Miss));
    }

    #[test]
    fn no_vary_matches_any_request() {
        let mut cache = HttpCache::new();
        let req = Request::get("/r").with_header("accept-encoding", "gzip");
        let resp = cacheable_response(100, "v");
        assert!(cache.store("u", &req, &resp, 0, 0));
        let other = Request::get("/r").with_header("accept-encoding", "br");
        assert!(matches!(cache.lookup("u", &other, 10), Lookup::Fresh(_)));
    }
}
