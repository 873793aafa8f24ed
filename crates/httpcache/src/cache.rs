//! The browser's HTTP cache.

use std::borrow::Cow;
use std::collections::HashMap;

use cachecatalyst_httpwire::{HeaderName, Method, Request, Response, StatusCode};

use crate::freshness::{freshness_lifetime, is_fresh, swr_usable};
use crate::metrics::CacheMetrics;

/// One stored response.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    pub response: Response,
    /// Virtual seconds when the request producing this entry was sent.
    pub request_time: i64,
    /// Virtual seconds when the response arrived.
    pub response_time: i64,
    /// Last use, for LRU eviction.
    pub last_used: i64,
    /// The response's `Vary` selection: for each varied request header
    /// (lowercased), the value the original request carried
    /// (RFC 9111 §4.1). `("*", _)` never matches.
    pub vary: Vec<(String, Option<String>)>,
    /// Monotonic use counter to break LRU ties deterministically.
    use_seq: u64,
}

impl CacheEntry {
    /// Whether a new request selects this stored variant.
    pub fn vary_matches(&self, req: &Request) -> bool {
        self.vary.iter().all(|(name, stored)| {
            name != "*" && req.headers.get_combined(name).as_deref() == stored.as_deref()
        })
    }
}

impl CacheEntry {
    /// Approximate memory footprint used for the size budget.
    fn weight(&self) -> u64 {
        self.response.body.len() as u64 + 512
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

/// A private (browser) HTTP cache with LRU eviction, keyed by absolute
/// URL.
///
/// ```
/// use cachecatalyst_httpcache::{HttpCache, Lookup};
/// use cachecatalyst_httpwire::{HttpDate, Request, Response};
///
/// let mut cache = HttpCache::unbounded();
/// let req = Request::get("/logo.png");
/// let resp = Response::ok("png-bytes")
///     .with_header("cache-control", "max-age=60")
///     .with_header("date", &HttpDate(0).to_imf_fixdate());
/// cache.store("http://s/logo.png", &req, &resp, 0, 0);
/// assert!(matches!(cache.lookup("http://s/logo.png", 30), Lookup::Fresh(_)));
/// assert!(matches!(cache.lookup("http://s/logo.png", 90), Lookup::Stale { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct HttpCache {
    capacity_bytes: u64,
    used_bytes: u64,
    entries: HashMap<String, CacheEntry>,
    seq: u64,
    pub metrics: CacheMetrics,
}

impl HttpCache {
    /// A cache with the given capacity (bytes of stored bodies).
    pub fn new(capacity_bytes: u64) -> HttpCache {
        HttpCache {
            capacity_bytes,
            used_bytes: 0,
            entries: HashMap::new(),
            seq: 0,
            metrics: CacheMetrics::default(),
        }
    }

    /// A cache big enough that eviction never triggers in the
    /// evaluation (browsers give tens-to-hundreds of MB per origin).
    pub fn unbounded() -> HttpCache {
        HttpCache::new(u64::MAX)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Whether any entry is stored for `url`.
    pub fn contains(&self, url: &str) -> bool {
        self.entries.contains_key(url)
    }

    /// Raw access to a stored entry (diagnostics / service worker).
    pub fn peek(&self, url: &str) -> Option<&CacheEntry> {
        self.entries.get(url)
    }

    /// Looks up `url` at virtual time `now`, ignoring `Vary` (i.e. as
    /// if the request carried the same selecting headers as the one
    /// that stored the entry). Prefer [`HttpCache::lookup_for`].
    pub fn lookup(&mut self, url: &str, now: i64) -> Lookup {
        self.lookup_inner(url, None, now)
    }

    /// Looks up `url` for a specific request, honoring the stored
    /// response's `Vary` selection (RFC 9111 §4.1): a mismatching
    /// variant is a miss (browsers keep one variant per URL).
    pub fn lookup_for(&mut self, url: &str, req: &Request, now: i64) -> Lookup {
        self.lookup_inner(url, Some(req), now)
    }

    fn lookup_inner(&mut self, url: &str, req: Option<&Request>, now: i64) -> Lookup {
        self.seq += 1;
        let seq = self.seq;
        let Some(entry) = self.entries.get_mut(url) else {
            self.metrics.misses += 1;
            return Lookup::Miss;
        };
        if let Some(req) = req {
            if !entry.vary_matches(req) {
                self.metrics.misses += 1;
                return Lookup::Miss;
            }
        }
        entry.last_used = now;
        entry.use_seq = seq;
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
        self.seq += 1;
        let entry = CacheEntry {
            response: resp.clone(),
            request_time,
            response_time,
            last_used: response_time,
            vary,
            use_seq: self.seq,
        };
        let w = entry.weight();
        if let Some(old) = self.entries.insert(url.to_owned(), entry) {
            self.used_bytes -= old.weight();
        }
        self.used_bytes += w;
        self.metrics.stores += 1;
        self.evict_if_needed();
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
        entry.last_used = response_time;
        self.metrics.revalidation_refreshes += 1;
        Some(entry.response.clone())
    }

    /// Removes an entry.
    pub fn invalidate(&mut self, url: &str) {
        if let Some(old) = self.entries.remove(url) {
            self.used_bytes -= old.weight();
        }
    }

    /// Clears the whole cache (a "cold cache" reset).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.used_bytes = 0;
    }

    fn evict_if_needed(&mut self) {
        while self.used_bytes > self.capacity_bytes && self.entries.len() > 1 {
            // Evict the least-recently-used entry (ties by use_seq).
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| (e.last_used, e.use_seq))
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            if let Some(old) = self.entries.remove(&victim) {
                self.used_bytes -= old.weight();
                self.metrics.evictions += 1;
            }
        }
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
        let mut cache = HttpCache::unbounded();
        let req = Request::get("/r");
        assert!(matches!(cache.lookup("u", 0), Lookup::Miss));

        let resp = cacheable_response(100, "v1");
        assert!(cache.store("u", &req, &resp, 0, 0));

        assert!(matches!(cache.lookup("u", 50), Lookup::Fresh(_)));
        match cache.lookup("u", 150) {
            Lookup::Stale { etag, .. } => assert_eq!(etag.as_deref(), Some("\"v1\"")),
            other => panic!("expected stale, got {other:?}"),
        }
        assert_eq!(cache.metrics.misses, 1);
        assert_eq!(cache.metrics.fresh_hits, 1);
        assert_eq!(cache.metrics.stale_hits, 1);
    }

    #[test]
    fn no_store_is_not_stored() {
        let mut cache = HttpCache::unbounded();
        let req = Request::get("/r");
        let resp = Response::ok("x").with_header("cache-control", "no-store");
        assert!(!cache.store("u", &req, &resp, 0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn no_cache_is_stored_but_always_stale() {
        let mut cache = HttpCache::unbounded();
        let req = Request::get("/r");
        let resp = Response::ok("x")
            .with_header("cache-control", "no-cache")
            .with_header("etag", "\"e\"");
        assert!(cache.store("u", &req, &resp, 0, 0));
        assert!(matches!(cache.lookup("u", 0), Lookup::Stale { .. }));
    }

    #[test]
    fn non_get_not_stored() {
        let mut cache = HttpCache::unbounded();
        let mut req = Request::get("/r");
        req.method = Method::Post;
        let resp = cacheable_response(100, "v");
        assert!(!cache.store("u", &req, &resp, 0, 0));
    }

    #[test]
    fn response_without_any_caching_info_not_stored() {
        let mut cache = HttpCache::unbounded();
        let req = Request::get("/r");
        let resp = Response::ok("x");
        assert!(!cache.store("u", &req, &resp, 0, 0));
    }

    #[test]
    fn error_responses_not_stored() {
        let mut cache = HttpCache::unbounded();
        let req = Request::get("/r");
        let mut resp = cacheable_response(100, "v");
        resp.status = StatusCode::INTERNAL_SERVER_ERROR;
        assert!(!cache.store("u", &req, &resp, 0, 0));
    }

    #[test]
    fn revalidation_freshens_entry() {
        let mut cache = HttpCache::unbounded();
        let req = Request::get("/r");
        cache.store("u", &req, &cacheable_response(100, "v1"), 0, 0);

        // At t=150 the entry is stale. The origin said 304 with a new
        // Date; the entry becomes fresh for another 100 s.
        let resp304 =
            Response::not_modified(None).with_header("date", &HttpDate(150).to_imf_fixdate());
        let refreshed = cache.update_with_304("u", &resp304, 150, 150).unwrap();
        assert_eq!(&refreshed.body[..], b"0123456789");
        assert!(matches!(cache.lookup("u", 200), Lookup::Fresh(_)));
        assert!(matches!(cache.lookup("u", 251), Lookup::Stale { .. }));
    }

    #[test]
    fn update_304_keeps_body_and_updates_headers() {
        let mut cache = HttpCache::unbounded();
        let req = Request::get("/r");
        cache.store("u", &req, &cacheable_response(100, "v1"), 0, 0);
        let resp304 = Response::not_modified(Some(&"\"v1\"".parse().unwrap()))
            .with_header("cache-control", "max-age=500");
        let refreshed = cache.update_with_304("u", &resp304, 150, 150).unwrap();
        assert_eq!(refreshed.headers.get("cache-control"), Some("max-age=500"));
        assert_eq!(&refreshed.body[..], b"0123456789");
    }

    #[test]
    fn lru_eviction() {
        // Each entry weighs body(10) + 512 = 522; capacity fits 2.
        let mut cache = HttpCache::new(1100);
        let req = Request::get("/r");
        cache.store("a", &req, &cacheable_response(100, "a"), 0, 0);
        cache.store("b", &req, &cacheable_response(100, "b"), 1, 1);
        // Touch "a" so "b" is the LRU victim.
        let _ = cache.lookup("a", 2);
        cache.store("c", &req, &cacheable_response(100, "c"), 3, 3);
        assert!(cache.contains("a"));
        assert!(!cache.contains("b"), "LRU entry should be evicted");
        assert!(cache.contains("c"));
        assert_eq!(cache.metrics.evictions, 1);
    }

    #[test]
    fn replacing_entry_updates_byte_accounting() {
        let mut cache = HttpCache::unbounded();
        let req = Request::get("/r");
        cache.store("u", &req, &cacheable_response(100, "v1"), 0, 0);
        let used1 = cache.used_bytes();
        cache.store("u", &req, &cacheable_response(100, "v2"), 1, 1);
        assert_eq!(cache.used_bytes(), used1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn vary_mismatch_is_a_miss() {
        let mut cache = HttpCache::unbounded();
        let req_gzip = Request::get("/r").with_header("accept-encoding", "gzip");
        let resp = cacheable_response(100, "v").with_header("vary", "Accept-Encoding");
        assert!(cache.store("u", &req_gzip, &resp, 0, 0));

        // Same selecting header: hit.
        assert!(matches!(
            cache.lookup_for("u", &req_gzip, 10),
            Lookup::Fresh(_)
        ));
        // Different selecting header: miss.
        let req_br = Request::get("/r").with_header("accept-encoding", "br");
        assert!(matches!(cache.lookup_for("u", &req_br, 10), Lookup::Miss));
        // Absent selecting header: miss too.
        let req_none = Request::get("/r");
        assert!(matches!(cache.lookup_for("u", &req_none, 10), Lookup::Miss));
    }

    #[test]
    fn vary_star_never_matches() {
        let mut cache = HttpCache::unbounded();
        let req = Request::get("/r");
        let resp = cacheable_response(100, "v").with_header("vary", "*");
        assert!(cache.store("u", &req, &resp, 0, 0));
        assert!(matches!(cache.lookup_for("u", &req, 10), Lookup::Miss));
        // The vary-ignoring lookup still sees it (diagnostics path).
        assert!(matches!(cache.lookup("u", 10), Lookup::Fresh(_)));
    }

    #[test]
    fn no_vary_matches_any_request() {
        let mut cache = HttpCache::unbounded();
        let req = Request::get("/r").with_header("accept-encoding", "gzip");
        let resp = cacheable_response(100, "v");
        assert!(cache.store("u", &req, &resp, 0, 0));
        let other = Request::get("/r").with_header("accept-encoding", "br");
        assert!(matches!(
            cache.lookup_for("u", &other, 10),
            Lookup::Fresh(_)
        ));
    }

    #[test]
    fn invalidate_and_clear() {
        let mut cache = HttpCache::unbounded();
        let req = Request::get("/r");
        cache.store("u", &req, &cacheable_response(100, "v"), 0, 0);
        cache.invalidate("u");
        assert!(!cache.contains("u"));
        assert_eq!(cache.used_bytes(), 0);
        cache.store("u", &req, &cacheable_response(100, "v"), 0, 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }
}
