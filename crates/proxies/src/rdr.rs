//! A Remote Dependency Resolution (RDR) proxy (§5).
//!
//! RDR proxies (Parcel, WatchTower, Nutshell, …) run a headless
//! browser on a well-connected machine near the origin: they resolve
//! the page's entire dependency tree over short proxy↔origin round
//! trips — *including* JS-discovered resources, which they find by
//! executing the page's scripts — then ship everything to the client
//! in one bundle. This removes per-resource last-mile RTTs on cold
//! loads, at the cost of shipping the whole page every time (and the
//! TLS/privacy concerns the paper discusses, which a simulator is
//! mercifully free of).

use std::sync::Arc;

use cachecatalyst_httpwire::{Body, HeaderName, Request, Response, Upstream};
use cachecatalyst_origin::OriginServer;
use cachecatalyst_webmodel::{extract, ResourceKind};

/// Round-trip time between the proxy and the origin, in ms: the proxy
/// is deployed close by.
const PROXY_ORIGIN_RTT_MS: u64 = 4;

/// The RDR proxy fronting one origin.
pub struct RdrProxy {
    inner: Arc<OriginServer>,
}

impl RdrProxy {
    pub fn new(inner: Arc<OriginServer>) -> RdrProxy {
        RdrProxy { inner }
    }

    /// Resolves the full dependency closure of `page` (whose body the
    /// origin just served as `page_body`) at `t_secs` the way a
    /// headless browser would: wave by wave, parsing markup and
    /// executing scripts, resolving each reference against the URL of
    /// the body that names it. Each same-origin dependency is fetched
    /// from the origin once, when first named — the origin's epoch
    /// cache hands out the allocation it serves to everyone, so its
    /// links are read at most once per epoch — and its wire size goes
    /// towards the bundle. Cross-origin fetches would not be bundled
    /// by a same-origin RDR deployment (WatchTower-style).
    fn resolve(&self, page: &str, page_body: &Body, t_secs: i64) -> Closure {
        let mut closure = Closure::default();
        let page = self.inner.site().url(page);
        let mut seen = std::collections::HashSet::new();
        let mut frontier = vec![(page.clone(), page_body.clone())];
        while !frontier.is_empty() && closure.waves < 16 {
            closure.waves += 1;
            let mut next = Vec::new();
            for (url, body) in frontier.drain(..) {
                let kind = ResourceKind::from_path(url.path());
                for dep in extract::discover(&url, kind, &body) {
                    if !dep.same_origin(&page) || !seen.insert(dep.clone()) {
                        continue;
                    }
                    closure.targets.push(dep.target().to_string());
                    let body_req = Request::get_target(dep.target().clone())
                        .with_header(HeaderName::X_CC_INTERNAL, "bundle");
                    let r = (*self.inner).handle(&body_req, t_secs);
                    // What the origin cannot serve still takes its
                    // turn in the next wave, with nothing to read.
                    let mut body = Body::new();
                    if r.status.is_success() {
                        closure.wire_bytes += r.wire_len();
                        body = r.body;
                    }
                    next.push((dep, body));
                }
            }
            frontier = next;
        }
        closure
    }

    fn handle_core(&self, req: &Request, t_secs: i64) -> Response {
        let mut resp = (*self.inner).handle(req, t_secs);
        if req.headers.contains(HeaderName::X_CC_INTERNAL) {
            return resp;
        }
        let page = req.target.path();
        if ResourceKind::from_path(page) != ResourceKind::Html || !resp.status.is_success() {
            return resp;
        }
        let Closure {
            targets,
            waves,
            wire_bytes,
        } = self.resolve(page, &resp.body, t_secs);
        if targets.is_empty() {
            return resp;
        }
        // The bundle body: the page itself followed by all resolved
        // resources (sizes matter for the transfer model; we pad with
        // the resources' wire sizes).
        let mut bundle = Vec::with_capacity(resp.body.len() + wire_bytes);
        bundle.extend_from_slice(&resp.body);
        bundle.resize(resp.body.len() + wire_bytes, b' ');
        resp.body = bundle.into();
        resp.headers
            .insert("content-length", &resp.body.len().to_string());
        for chunk in targets.chunks(64) {
            resp.headers
                .append(HeaderName::X_CC_RDR_BUNDLE, &chunk.join(","));
        }
        // Dependency resolution near the origin: one proxy↔origin RTT
        // per wave (fetches within a wave run in parallel).
        let delay_ms = PROXY_ORIGIN_RTT_MS * waves as u64;
        resp.headers
            .insert(HeaderName::X_CC_SERVER_DELAY_MS, &delay_ms.to_string());
        resp
    }
}

/// What [`RdrProxy::resolve`] found.
#[derive(Default)]
struct Closure {
    /// Request targets of the same-origin dependencies, in discovery
    /// order.
    targets: Vec<String>,
    /// Dependency waves walked, the page's own included.
    waves: usize,
    /// Wire size of every dependency the origin could serve.
    wire_bytes: usize,
}

impl Upstream for RdrProxy {
    fn handle(&self, _host: &str, req: &Request, t_secs: i64) -> Response {
        let core = |req: &Request| self.handle_core(req, t_secs);
        crate::traced_hop(&self.inner, "proxy.rdr", req, t_secs, core, |resp| {
            let bundled = resp
                .headers
                .get_combined(HeaderName::X_CC_RDR_BUNDLE)
                .map(|m| m.split(',').count())
                .unwrap_or(0);
            let busy_ms: f64 = resp
                .headers
                .get(HeaderName::X_CC_SERVER_DELAY_MS)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0);
            let attrs = vec![
                ("bundled", bundled.to_string()),
                ("bytes", resp.body.len().to_string()),
            ];
            (busy_ms, attrs)
        })
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
    use std::time::Duration;

    fn proxy() -> RdrProxy {
        RdrProxy::new(Arc::new(OriginServer::new(
            example_site(),
            HeaderMode::Baseline,
        )))
    }

    fn base() -> Url {
        Url::parse("http://example.org/index.html").unwrap()
    }

    #[test]
    fn resolves_full_closure_including_js() {
        let p = proxy();
        let page = (*p.inner).handle(&Request::get("/index.html"), 0).body;
        let closure = p.resolve("/index.html", &page, 0);
        for expect in ["/a.css", "/b.js", "/c.js", "/d.jpg"] {
            assert!(
                closure.targets.contains(&expect.to_string()),
                "{expect} missing"
            );
        }
        // index → (a.css, b.js) → c.js → d.jpg is three dependency waves
        // past the base document.
        assert_eq!(closure.waves, 4);
    }

    #[test]
    fn bundles_what_a_browser_fetches_from_the_origin() {
        let p = proxy();
        let page = Body::from(
            r#"<link rel="stylesheet" href="a.css">
               <script src="http://example.org/b.js"></script>
               <img src="//example.org/d.jpg">
               <script src="http://cdn.other/x.js"></script>"#,
        );
        let closure = p.resolve("/index.html", &page, 0);
        // b.js names c.js; d.jpg is named twice and bundled once.
        assert_eq!(closure.targets, ["/a.css", "/b.js", "/d.jpg", "/c.js"]);
    }

    #[test]
    fn bundle_response_carries_manifest_and_padding() {
        let p = proxy();
        let resp = p.handle("example.org", &Request::get("/index.html"), 0);
        let manifest = resp
            .headers
            .get_combined(HeaderName::X_CC_RDR_BUNDLE)
            .unwrap();
        assert!(manifest.contains("/d.jpg"));
        assert!(resp.headers.get(HeaderName::X_CC_SERVER_DELAY_MS).is_some());
        // Bundle is much larger than the bare page.
        let bare = (*p.inner).handle(&Request::get("/index.html"), 0);
        assert!(resp.body.len() > bare.body.len() + 100_000);
    }

    #[test]
    fn subresource_requests_pass_through() {
        let p = proxy();
        let resp = p.handle("example.org", &Request::get("/a.css"), 0);
        assert!(resp.headers.get(HeaderName::X_CC_RDR_BUNDLE).is_none());
    }

    #[test]
    fn cold_load_needs_exactly_one_round_trip() {
        let p = proxy();
        let mut browser = Browser::uncached();
        let report = browser.load(&p, NetworkConditions::five_g_median(), &base(), 0);
        assert_eq!(report.network_requests(), 1, "{:#?}", report.trace);
        // All four subresources come out of the bundle.
        assert_eq!(
            report
                .trace
                .fetches
                .iter()
                .filter(|f| f.outcome == cachecatalyst_netsim::FetchOutcome::Pushed)
                .count(),
            4
        );
    }

    #[test]
    fn rdr_beats_plain_cold_load_on_high_latency() {
        let cond = NetworkConditions::new(Duration::from_millis(120), 60_000_000);
        let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
        let plain = Browser::uncached().load(&origin, cond, &base(), 0);
        let rdr = Browser::uncached().load(&RdrProxy::new(origin), cond, &base(), 0);
        assert!(
            rdr.plt < plain.plt,
            "rdr {:?} vs plain {:?}",
            rdr.plt,
            plain.plt
        );
    }
}
