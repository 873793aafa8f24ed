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
use std::time::Duration;

use cachecatalyst_browser::Upstream;
use cachecatalyst_httpwire::tracectx::Hop;
use cachecatalyst_httpwire::{Body, HeaderName, Request, Response};
use cachecatalyst_origin::OriginServer;
use cachecatalyst_webmodel::{extract, ResourceKind};

/// The RDR proxy fronting one origin.
pub struct RdrProxy {
    inner: Arc<OriginServer>,
    /// Round-trip time between the proxy and the origin (the proxy is
    /// deployed close by; default 4 ms).
    pub proxy_origin_rtt: Duration,
}

impl RdrProxy {
    pub fn new(inner: Arc<OriginServer>) -> RdrProxy {
        RdrProxy {
            inner,
            proxy_origin_rtt: Duration::from_millis(4),
        }
    }

    /// Resolves the full dependency closure of `page` (whose body the
    /// origin just served as `page_body`) at `t_secs` the way a
    /// headless browser would: wave by wave, parsing markup and
    /// executing scripts. Each dependency is fetched from the origin
    /// once, when first named — the origin's epoch cache hands out
    /// the allocation it serves to everyone, so its links are read at
    /// most once per epoch — and its wire size goes towards the bundle.
    fn resolve(&self, page: &str, page_body: &Body, t_secs: i64) -> Closure {
        let mut closure = Closure::default();
        let mut seen = std::collections::HashSet::new();
        let mut frontier = vec![(ResourceKind::from_path(page), page_body.clone())];
        while !frontier.is_empty() && closure.waves < 16 {
            closure.waves += 1;
            let mut next = Vec::new();
            for (kind, body) in frontier.drain(..) {
                let Some(links) = extract::links(kind, &body) else {
                    continue;
                };
                for href in links.hrefs() {
                    // Same-origin rooted paths only: cross-origin
                    // fetches would not be bundled by a same-origin
                    // RDR deployment (WatchTower-style).
                    if !href.starts_with('/') || !seen.insert(href.clone()) {
                        continue;
                    }
                    closure.paths.push(href.clone());
                    let body_req =
                        Request::get(href).with_header(HeaderName::X_CC_INTERNAL, "bundle");
                    let r = self.inner.handle(&body_req, t_secs);
                    // What the origin cannot serve still takes its
                    // turn in the next wave, with nothing to read.
                    let mut body = Body::new();
                    if r.status.is_success() {
                        closure.wire_bytes += r.wire_len();
                        body = r.body;
                    }
                    next.push((ResourceKind::from_path(href), body));
                }
            }
            frontier = next;
        }
        closure
    }

    fn handle_core(&self, req: &Request, t_secs: i64) -> Response {
        let mut resp = self.inner.handle(req, t_secs);
        if req.headers.contains(HeaderName::X_CC_INTERNAL) {
            return resp;
        }
        let page = req.target.path();
        if ResourceKind::from_path(page) != ResourceKind::Html || !resp.status.is_success() {
            return resp;
        }
        let Closure {
            paths,
            waves,
            wire_bytes,
        } = self.resolve(page, &resp.body, t_secs);
        if paths.is_empty() {
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
        for chunk in paths.chunks(64) {
            resp.headers
                .append(HeaderName::X_CC_RDR_BUNDLE, &chunk.join(","));
        }
        // Dependency resolution near the origin: one proxy↔origin RTT
        // per wave (fetches within a wave run in parallel).
        let delay_ms = (self.proxy_origin_rtt.as_millis() as u64) * waves as u64;
        resp.headers
            .insert(HeaderName::X_CC_SERVER_DELAY_MS, &delay_ms.to_string());
        resp
    }
}

/// What [`RdrProxy::resolve`] found.
#[derive(Default)]
struct Closure {
    /// Same-origin dependencies, in discovery order.
    paths: Vec<String>,
    /// Dependency waves walked, the page's own included.
    waves: usize,
    /// Wire size of every dependency the origin could serve.
    wire_bytes: usize,
}

impl Upstream for RdrProxy {
    fn handle(&self, _host: &str, req: &Request, t_secs: i64) -> Response {
        match Hop::start(self.inner.span_sink(), req) {
            None => self.handle_core(req, t_secs),
            Some((fwd, hop)) => {
                let resp = self.handle_core(&fwd, t_secs);
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
                hop.finish(
                    self.inner.span_sink(),
                    "proxy.rdr",
                    t_secs,
                    busy_ms,
                    vec![
                        ("bundled", bundled.to_string()),
                        ("bytes", resp.body.len().to_string()),
                    ],
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
        let page = p.inner.handle(&Request::get("/index.html"), 0).body;
        let closure = p.resolve("/index.html", &page, 0);
        for expect in ["/a.css", "/b.js", "/c.js", "/d.jpg"] {
            assert!(
                closure.paths.contains(&expect.to_string()),
                "{expect} missing"
            );
        }
        // index → (a.css, b.js) → c.js → d.jpg is three dependency waves
        // past the base document.
        assert_eq!(closure.waves, 4);
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
        let bare = p.inner.handle(&Request::get("/index.html"), 0);
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
        let plain = Browser::uncached().load(
            &cachecatalyst_browser::SingleOrigin(Arc::clone(&origin)),
            cond,
            &base(),
            0,
        );
        let rdr = Browser::uncached().load(&RdrProxy::new(origin), cond, &base(), 0);
        assert!(
            rdr.plt < plain.plt,
            "rdr {:?} vs plain {:?}",
            rdr.plt,
            plain.plt
        );
    }
}
