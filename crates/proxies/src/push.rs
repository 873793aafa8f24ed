//! HTTP/2-style Server Push comparators (§5).
//!
//! The paper's related-work discussion contrasts its mechanism with
//! Server Push: a server can send resources before the client asks,
//! saving round trips but risking wasted bandwidth on resources the
//! client already caches. Two policies are modeled:
//!
//! * **push-all** — push every subresource of the page (the simplest
//!   policy, shown by several studies to waste bandwidth);
//! * **push-if-changed** — push only resources that changed since the
//!   client's announced previous visit (`x-cc-last-visit`), a stand-in
//!   for cache-digest-style designs.

use std::sync::Arc;

use cachecatalyst_browser::Upstream;
use cachecatalyst_httpwire::tracectx::Hop;
use cachecatalyst_httpwire::{HeaderName, Request, Response};
use cachecatalyst_origin::OriginServer;
use cachecatalyst_webmodel::ResourceKind;

/// Which resources the origin pushes after a navigation response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushPolicy {
    /// Push every same-origin subresource.
    All,
    /// Push only subresources whose content changed since the client's
    /// previous visit; clients that announce nothing get everything.
    IfChanged,
}

/// An origin that pushes subresources with navigation responses.
pub struct PushOrigin {
    inner: Arc<OriginServer>,
    policy: PushPolicy,
}

impl PushOrigin {
    pub fn new(inner: Arc<OriginServer>, policy: PushPolicy) -> PushOrigin {
        PushOrigin { inner, policy }
    }

    fn push_list(&self, req: &Request, t_secs: i64) -> Vec<String> {
        let site = self.inner.site();
        let last_visit: Option<i64> = req
            .headers
            .get(HeaderName::X_CC_LAST_VISIT)
            .and_then(|v| v.parse().ok());
        site.resources()
            .filter(|r| r.spec.path != site.base_path() && !r.spec.third_party)
            .filter(|r| match (self.policy, last_visit) {
                (PushPolicy::All, _) | (PushPolicy::IfChanged, None) => true,
                (PushPolicy::IfChanged, Some(last)) => {
                    r.spec.version_at(last) != r.spec.version_at(t_secs)
                }
            })
            .map(|r| r.spec.path.clone())
            .collect()
    }
}

impl PushOrigin {
    fn handle_core(&self, req: &Request, t_secs: i64) -> Response {
        let mut resp = self.inner.handle(req, t_secs);
        // Engine-internal body materialization must not recurse.
        if req.headers.contains(HeaderName::X_CC_INTERNAL) {
            return resp;
        }
        let is_navigation = ResourceKind::from_path(req.target.path()) == ResourceKind::Html;
        if is_navigation && (resp.status.is_success() || resp.status.as_u16() == 304) {
            let list = self.push_list(req, t_secs);
            if !list.is_empty() {
                // Split long lists across multiple header lines.
                for chunk in list.chunks(64) {
                    resp.headers
                        .append(HeaderName::X_CC_PUSHED, &chunk.join(","));
                }
            }
        }
        resp
    }
}

impl Upstream for PushOrigin {
    fn handle(&self, _host: &str, req: &Request, t_secs: i64) -> Response {
        match Hop::start(self.inner.span_sink(), req) {
            None => self.handle_core(req, t_secs),
            Some((fwd, hop)) => {
                let resp = self.handle_core(&fwd, t_secs);
                let pushed = resp
                    .headers
                    .get_combined(HeaderName::X_CC_PUSHED)
                    .map(|l| l.split(',').count())
                    .unwrap_or(0);
                hop.finish(
                    self.inner.span_sink(),
                    "proxy.push",
                    t_secs,
                    0.0,
                    vec![("pushed", pushed.to_string())],
                );
                resp
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_browser::Browser;
    use cachecatalyst_httpwire::Url;
    use cachecatalyst_netsim::NetworkConditions;
    use cachecatalyst_origin::HeaderMode;
    use cachecatalyst_webmodel::example_site;

    fn origin() -> Arc<OriginServer> {
        Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline))
    }

    fn base() -> Url {
        Url::parse("http://example.org/index.html").unwrap()
    }

    #[test]
    fn push_all_announces_every_subresource() {
        let up = PushOrigin::new(origin(), PushPolicy::All);
        let resp = up.handle("example.org", &Request::get("/index.html"), 0);
        let list = resp.headers.get_combined(HeaderName::X_CC_PUSHED).unwrap();
        for p in ["/a.css", "/b.js", "/c.js", "/d.jpg"] {
            assert!(list.contains(p), "{p} missing from {list}");
        }
        assert!(!list.contains("/index.html"));
    }

    #[test]
    fn subresource_responses_do_not_push() {
        let up = PushOrigin::new(origin(), PushPolicy::All);
        let resp = up.handle("example.org", &Request::get("/a.css"), 0);
        assert!(resp.headers.get(HeaderName::X_CC_PUSHED).is_none());
    }

    #[test]
    fn internal_fetches_do_not_push() {
        let up = PushOrigin::new(origin(), PushPolicy::All);
        let req = Request::get("/index.html").with_header(HeaderName::X_CC_INTERNAL, "push");
        let resp = up.handle("example.org", &req, 0);
        assert!(resp.headers.get(HeaderName::X_CC_PUSHED).is_none());
    }

    #[test]
    fn if_changed_filters_by_last_visit() {
        let up = PushOrigin::new(origin(), PushPolicy::IfChanged);
        // At +2h, only index.html (not pushed) and d.jpg changed.
        let req = Request::get("/index.html").with_header(HeaderName::X_CC_LAST_VISIT, "0");
        let resp = up.handle("example.org", &req, 7200);
        let list = resp.headers.get_combined(HeaderName::X_CC_PUSHED).unwrap();
        assert!(list.contains("/d.jpg"));
        assert!(!list.contains("/a.css"));
        assert!(!list.contains("/b.js"));
    }

    #[test]
    fn if_changed_without_announcement_pushes_all() {
        let up = PushOrigin::new(origin(), PushPolicy::IfChanged);
        let resp = up.handle("example.org", &Request::get("/index.html"), 7200);
        let list = resp.headers.get_combined(HeaderName::X_CC_PUSHED).unwrap();
        assert!(list.contains("/a.css"));
    }

    #[test]
    fn pushed_resources_skip_round_trips_on_cold_load() {
        let up = PushOrigin::new(origin(), PushPolicy::All);
        let mut browser = Browser::uncached();
        let report = browser.load(&up, NetworkConditions::five_g_median(), &base(), 0);
        assert_eq!(report.pushed, 4);
        // Statically-discovered a.css/b.js and JS-discovered c.js/d.jpg
        // all arrive via push; only the navigation is a round trip.
        assert_eq!(report.network_requests(), 1);
        assert_eq!(report.pushed_unused, 0);
    }

    #[test]
    fn push_all_wastes_bytes_on_warm_cache() {
        let up = PushOrigin::new(origin(), PushPolicy::All);
        let mut browser = Browser::baseline();
        let cond = NetworkConditions::five_g_median();
        browser.load(&up, cond, &base(), 0);
        // Revisit after 1 minute: everything cached & fresh, yet the
        // server pushes all four subresources again.
        let report = browser.load(&up, cond, &base(), 60);
        assert!(report.pushed_unused > 0, "{report:?}");
        assert!(report.pushed_unused_bytes > 0);
    }
}
