//! The client-side CacheCatalyst service worker.
//!
//! A domain-scoped interceptor sitting between the page and the
//! network (Figure 2). It keeps its own cache of responses and, on
//! each navigation, installs the `X-Etag-Config` map carried by the
//! base HTML response. Subsequent subresource fetches are answered
//! locally — with **zero RTTs** — whenever the cached copy's ETag
//! matches the map; everything else is forwarded upstream and
//! re-stored with its new tag.

use std::collections::HashMap;

use cachecatalyst_httpwire::{EntityTag, HeaderName, Response, StatusCode};

use crate::config::EtagConfig;

/// One response held by the service worker.
#[derive(Debug, Clone)]
struct SwEntry {
    etag: Option<EntityTag>,
    response: Response,
}

/// What the SW decided for an intercepted fetch.
#[derive(Debug, Clone, PartialEq)]
pub enum SwDecision {
    /// Serve this stored response; no network use. `entry` is the map
    /// entry the stored copy's tag matched.
    ServeLocal {
        response: Response,
        entry: EntityTag,
    },
    /// Go upstream. `if_none_match` carries the cached validator (the
    /// forwarded request can still revalidate at the origin and be
    /// answered from the SW cache on a 304).
    Forward { if_none_match: Option<EntityTag> },
}

/// The service worker state for one origin.
///
/// ```
/// use cachecatalyst_catalyst::{EtagConfig, ServiceWorker, SwDecision};
/// use cachecatalyst_httpwire::{EntityTag, HeaderMap, Response};
///
/// let mut sw = ServiceWorker::new();
/// // A navigation response carrying the map…
/// let mut config = EtagConfig::new();
/// config.insert("/a.css", EntityTag::strong("v1").unwrap());
/// let mut nav = Response::ok("<html>");
/// nav.headers = HeaderMap::from_entries(config.header_fields());
/// sw.on_navigation(&nav);
/// // …a cached copy with the matching tag…
/// sw.on_response(
///     "http://s/a.css",
///     &Response::ok("body").with_header("etag", "\"v1\""),
/// );
/// // …and the next fetch is served with zero round trips.
/// assert!(matches!(
///     sw.intercept("http://s/a.css", "/a.css"),
///     SwDecision::ServeLocal { .. }
/// ));
/// ```
#[derive(Debug, Default, Clone)]
pub struct ServiceWorker {
    cache: HashMap<String, SwEntry>,
    config: EtagConfig,
}

impl ServiceWorker {
    pub fn new() -> ServiceWorker {
        ServiceWorker::default()
    }

    /// The currently installed config.
    pub fn config(&self) -> &EtagConfig {
        &self.config
    }

    /// Handles the navigation (base HTML) response: installs the
    /// config from its `X-Etag-Config` headers, and is the integrity
    /// gate for it — a map that fails its `x-cc-config-digest` is never
    /// installed. A response without a usable map clears the installed
    /// one (failing open to plain forwarding, never breaking the page:
    /// a stale map must not serve outdated content). Returns `true`
    /// when the map was distrusted, so the caller can mark the fetch
    /// degraded.
    pub fn on_navigation(&mut self, resp: &Response) -> bool {
        let accepted = EtagConfig::accept(&resp.headers);
        let distrusted = accepted.is_none();
        self.config = accepted.unwrap_or_default();
        distrusted
    }

    /// Intercepts a subresource fetch for `path` (the cache key is the
    /// absolute `url`).
    pub fn intercept(&self, url: &str, path: &str) -> SwDecision {
        let entry = self.cache.get(url);
        // Same-origin entries are keyed by path; the cross-origin
        // extension (paper §6, issue 2) keys third-party resources by
        // their full URL.
        let mapped = self.config.get(path).or_else(|| self.config.get(url));
        if let (Some(entry), Some(current)) = (entry, mapped) {
            if let Some(cached_tag) = &entry.etag {
                // The map is authoritative about the representation
                // currently served.
                if EtagConfig::entry_matches(current, cached_tag) {
                    let mut resp = entry.response.clone();
                    resp.headers
                        .insert(HeaderName::X_SERVED_BY, "cachecatalyst-sw");
                    return SwDecision::ServeLocal {
                        response: resp,
                        entry: current.clone(),
                    };
                }
            }
        }
        SwDecision::Forward {
            if_none_match: self.cache.get(url).and_then(|e| e.etag.clone()),
        }
    }

    /// Handles an upstream response for a forwarded fetch.
    ///
    /// * `200` → stored (unless `no-store`) with its ETag, and returned
    ///   for delivery.
    /// * `304` → the stored body is refreshed and returned.
    ///
    /// Returns the response to deliver to the page.
    pub fn on_response(&mut self, url: &str, resp: &Response) -> Response {
        if resp.status == StatusCode::NOT_MODIFIED {
            if let Some(entry) = self.cache.get_mut(url) {
                // The map is installed from the network response by
                // `on_navigation`; the merge keeps it out of the copy.
                entry.response.merge_not_modified(resp);
                if let Some(tag) = resp.etag() {
                    entry.etag = Some(tag);
                }
                return entry.response.clone();
            }
            // A 304 with nothing cached is a protocol anomaly; pass it
            // through — the page will refetch.
            return resp.clone();
        }
        if resp.status.is_success() && !resp.cache_control().no_store {
            self.cache.insert(
                url.to_owned(),
                SwEntry {
                    etag: resp.etag(),
                    response: resp.clone(),
                },
            );
        }
        resp.clone()
    }

    /// The ETag of the stored response for `url`, if any.
    pub fn cached_etag(&self, url: &str) -> Option<&EntityTag> {
        self.cache.get(url).and_then(|e| e.etag.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_edge::{EdgeCache, Upstream};
    use cachecatalyst_httpwire::{HeaderMap, Request};

    fn tag(s: &str) -> EntityTag {
        EntityTag::strong(s).unwrap()
    }

    fn resp_with_etag(body: &str, etag: &str) -> Response {
        Response::ok(body.to_owned()).with_header("etag", &tag(etag).to_string())
    }

    /// `body` with the head the origin gives `config`.
    fn carrying(body: &str, config: &EtagConfig) -> Response {
        let mut resp = Response::ok(body.to_owned());
        resp.headers = HeaderMap::from_entries(config.header_fields());
        resp
    }

    fn navigation_with_config(entries: &[(&str, &str)]) -> Response {
        let mut config = EtagConfig::new();
        for (p, e) in entries {
            config.insert(*p, tag(e));
        }
        carrying("<html>", &config)
    }

    #[test]
    fn cold_cache_forwards() {
        let mut sw = ServiceWorker::new();
        sw.on_navigation(&navigation_with_config(&[("/a.css", "v1")]));
        match sw.intercept("http://s/a.css", "/a.css") {
            SwDecision::Forward { if_none_match } => assert!(if_none_match.is_none()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn matching_etag_served_locally() {
        let mut sw = ServiceWorker::new();
        sw.on_navigation(&navigation_with_config(&[("/a.css", "v1")]));
        sw.on_response("http://s/a.css", &resp_with_etag("body-v1", "v1"));

        // Next visit: same config, cached copy matches.
        sw.on_navigation(&navigation_with_config(&[("/a.css", "v1")]));
        match sw.intercept("http://s/a.css", "/a.css") {
            SwDecision::ServeLocal { response, entry } => {
                assert_eq!(&response.body[..], b"body-v1");
                assert_eq!(
                    response.headers.get("x-served-by"),
                    Some("cachecatalyst-sw")
                );
                assert_eq!(entry, tag("v1"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn changed_etag_forwards_with_validator() {
        let mut sw = ServiceWorker::new();
        sw.on_navigation(&navigation_with_config(&[("/a.css", "v1")]));
        sw.on_response("http://s/a.css", &resp_with_etag("body-v1", "v1"));

        // The resource changed server-side: map now says v2.
        sw.on_navigation(&navigation_with_config(&[("/a.css", "v2")]));
        match sw.intercept("http://s/a.css", "/a.css") {
            SwDecision::Forward { if_none_match } => {
                assert_eq!(if_none_match.unwrap(), tag("v1"));
            }
            other => panic!("{other:?}"),
        }
        // New body arrives and is stored under the new tag.
        sw.on_response("http://s/a.css", &resp_with_etag("body-v2", "v2"));
        sw.on_navigation(&navigation_with_config(&[("/a.css", "v2")]));
        assert!(matches!(
            sw.intercept("http://s/a.css", "/a.css"),
            SwDecision::ServeLocal { .. }
        ));
    }

    #[test]
    fn unmapped_path_forwards() {
        let mut sw = ServiceWorker::new();
        sw.on_navigation(&navigation_with_config(&[("/a.css", "v1")]));
        sw.on_response("http://s/x.js", &resp_with_etag("x", "xv"));
        assert!(matches!(
            sw.intercept("http://s/x.js", "/x.js"),
            SwDecision::Forward { .. }
        ));
    }

    #[test]
    fn response_without_config_clears_map() {
        let mut sw = ServiceWorker::new();
        sw.on_navigation(&navigation_with_config(&[("/a.css", "v1")]));
        sw.on_response("http://s/a.css", &resp_with_etag("b", "v1"));
        // A later navigation without any map must not keep serving
        // from a stale map.
        sw.on_navigation(&Response::ok("<html>"));
        assert!(matches!(
            sw.intercept("http://s/a.css", "/a.css"),
            SwDecision::Forward { .. }
        ));
    }

    /// Serves `nav` for `/` and a `"v1"` stylesheet for anything else.
    struct Scripted {
        nav: Response,
    }

    impl Upstream for Scripted {
        fn handle(&self, _host: &str, req: &Request, _t_secs: i64) -> Response {
            match req.target.path() {
                "/" => self.nav.clone(),
                _ => resp_with_etag("body", "v1"),
            }
        }
    }

    #[test]
    fn navigation_is_the_integrity_gate_for_the_map() {
        use crate::tamper_config_headers;
        let signed = navigation_with_config(&[("/a.css", "v1"), ("/b.js", "v2")]);
        let mut unsigned = signed.clone();
        unsigned.headers.remove(HeaderName::X_CC_CONFIG_DIGEST);
        let mut tampered = signed.clone();
        assert!(tamper_config_headers(&mut tampered, Some(7)));
        // (navigation response, distrusted?, entries installed)
        for (name, nav, distrusted, installed) in [
            ("verified", &signed, false, 2),
            ("unsigned", &unsigned, false, 2),
            ("tampered", &tampered, true, 0),
        ] {
            let mut sw = ServiceWorker::new();
            // A map from an earlier visit must not outlive a bad one.
            sw.on_navigation(&navigation_with_config(&[("/old.css", "v0")]));
            sw.on_response("http://s/a.css", &resp_with_etag("body", "v1"));
            assert_eq!(sw.on_navigation(nav), distrusted, "{name}");
            assert_eq!(sw.config().len(), installed, "{name}");
            assert_eq!(
                matches!(
                    sw.intercept("http://s/a.css", "/a.css"),
                    SwDecision::ServeLocal { .. }
                ),
                installed > 0,
                "{name}"
            );

            // The edge forwarding the same navigation goes through the
            // same gate: it holds /a.css, stale by the time the page
            // passes, and re-freshens it only off a map it may act on.
            let edge = EdgeCache::new(Scripted { nav: nav.clone() });
            edge.handle("s", &Request::get("/a.css"), 0);
            edge.handle("s", &Request::get("/"), 10);
            let m = edge.metrics();
            assert_eq!(m.marks_fresh, (installed > 0) as u64, "{name}");
            assert_eq!(m.tampered_configs, distrusted as u64, "{name}");
            edge.handle("s", &Request::get("/a.css"), 10);
            assert_eq!(
                edge.metrics().upstream_requests,
                2 + distrusted as u64,
                "{name}"
            );
        }
    }

    #[test]
    fn no_store_responses_are_not_kept() {
        let mut sw = ServiceWorker::new();
        sw.on_navigation(&navigation_with_config(&[("/secret", "v1")]));
        let resp = resp_with_etag("secret", "v1").with_header("cache-control", "no-store");
        sw.on_response("http://s/secret", &resp);
        assert!(sw.cached_etag("http://s/secret").is_none());
        assert!(matches!(
            sw.intercept("http://s/secret", "/secret"),
            SwDecision::Forward { .. }
        ));
    }

    #[test]
    fn not_modified_refreshes_stored_body() {
        let mut sw = ServiceWorker::new();
        sw.on_navigation(&navigation_with_config(&[("/a.css", "v1")]));
        sw.on_response("http://s/a.css", &resp_with_etag("body", "v1"));
        let delivered = sw.on_response("http://s/a.css", &Response::not_modified(Some(&tag("v1"))));
        assert_eq!(&delivered.body[..], b"body");
        assert_eq!(delivered.status, StatusCode::OK);
    }

    #[test]
    fn not_modified_keeps_hop_and_map_headers_out_of_the_stored_entry() {
        let mut sw = ServiceWorker::new();
        sw.on_response("http://s/", &resp_with_etag("<html>", "p1"));
        // The 304 for the page comes through the edge and carries a
        // map long enough to span two header lines.
        let mut not_modified = Response::not_modified(Some(&tag("p1")))
            .with_header("x-served-by", "cachecatalyst-edge")
            .with_header("cache-control", "no-cache");
        let mut config = EtagConfig::new();
        for i in 0..400 {
            config.insert(format!("/asset-{i}.css"), tag("v1"));
        }
        for (name, value) in config.header_fields() {
            not_modified.headers.append(name.as_str(), value.as_str());
        }
        assert!(not_modified.headers.get_all("x-etag-config").count() >= 2);

        let stored = sw.on_response("http://s/", &not_modified);
        assert_eq!(&stored.body[..], b"<html>");
        assert_eq!(stored.headers.get("cache-control"), Some("no-cache"));
        for name in [
            HeaderName::X_SERVED_BY,
            HeaderName::X_ETAG_CONFIG,
            HeaderName::X_CC_CONFIG_DIGEST,
        ] {
            assert!(!stored.headers.contains(name), "{name} was adopted");
        }
    }

    #[test]
    fn weak_tags_match_weakly() {
        let mut sw = ServiceWorker::new();
        let mut config = EtagConfig::new();
        config.insert("/w", EntityTag::weak("w1").unwrap());
        let nav = carrying("html", &config);
        sw.on_navigation(&nav);
        let stored = Response::ok("wbody").with_header("etag", "W/\"w1\"");
        sw.on_response("http://s/w", &stored);
        sw.on_navigation(&nav);
        assert!(matches!(
            sw.intercept("http://s/w", "/w"),
            SwDecision::ServeLocal { .. }
        ));
    }
}
