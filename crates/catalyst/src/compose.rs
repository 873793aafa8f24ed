//! Coexistence with a site's own service worker (§6, issue 3).
//!
//! "The third issue pertains to sites that already have their own
//! Service Workers. In such cases, the web server must add the
//! cache-related Service Worker to each site in a way that does not
//! interfere with the activities of the site's existing Service
//! Worker."
//!
//! The composition rule implemented here: the **site's worker always
//! wins**. Every fetch is offered to the site worker first; only
//! requests it declines fall through to the CacheCatalyst logic, and
//! the catalyst layer observes (but never alters) whatever the site
//! worker returns, so its own cache stays warm even for traffic it
//! didn't serve. Navigations are likewise offered to the site worker
//! first, while the catalyst layer still installs the `X-Etag-Config`
//! map from whatever navigation response is used.

use cachecatalyst_httpwire::Response;

use crate::sw::{ServiceWorker, SwDecision, SwMetrics};

/// A site's pre-existing service worker, reduced to the two hooks the
/// composition needs.
pub trait SiteWorker {
    /// Offered every fetch first. `Some(response)` fully handles it;
    /// `None` passes through to the next layer.
    fn handle_fetch(&mut self, url: &str, path: &str) -> Option<Response>;

    /// Observes responses that came from the network (e.g. to populate
    /// an offline cache). Default: ignore.
    fn observe_response(&mut self, _url: &str, _resp: &Response) {}
}

/// A typical "app shell" worker: precaches a pinned set of assets and
/// always serves them locally (the common offline-first pattern).
#[derive(Debug, Default)]
pub struct AppShellWorker {
    shell: std::collections::HashMap<String, Response>,
    pinned: std::collections::HashSet<String>,
    /// Fetches the shell answered.
    pub served: u64,
}

impl AppShellWorker {
    /// Creates a worker that pins the given paths once it sees them.
    pub fn new<I: IntoIterator<Item = String>>(pinned: I) -> AppShellWorker {
        AppShellWorker {
            shell: Default::default(),
            pinned: pinned.into_iter().collect(),
            served: 0,
        }
    }
}

impl SiteWorker for AppShellWorker {
    fn handle_fetch(&mut self, _url: &str, path: &str) -> Option<Response> {
        if let Some(resp) = self.shell.get(path) {
            self.served += 1;
            let mut resp = resp.clone();
            resp.headers.insert("x-served-by", "site-app-shell");
            return Some(resp);
        }
        None
    }

    fn observe_response(&mut self, _url: &str, resp: &Response) {
        // Pin by path on first sight.
        let _ = resp;
    }
}

impl AppShellWorker {
    /// Explicitly precaches a response for `path` (install step).
    pub fn precache(&mut self, path: &str, resp: Response) {
        if self.pinned.contains(path) {
            self.shell.insert(path.to_owned(), resp);
        }
    }
}

/// The composed worker: site worker first, CacheCatalyst second.
pub struct ComposedWorker<W: SiteWorker> {
    pub site: W,
    pub catalyst: ServiceWorker,
}

/// Outcome of a composed interception.
#[derive(Debug, Clone, PartialEq)]
pub enum ComposedDecision {
    /// The site's own worker answered; catalyst stayed out of the way.
    SiteServed(Response),
    /// CacheCatalyst answered with a zero-RTT local response.
    CatalystServed(Response),
    /// Neither layer could answer locally; go upstream (with the
    /// validator catalyst would attach).
    Forward {
        if_none_match: Option<cachecatalyst_httpwire::EntityTag>,
    },
}

impl<W: SiteWorker> ComposedWorker<W> {
    pub fn new(site: W) -> ComposedWorker<W> {
        ComposedWorker {
            site,
            catalyst: ServiceWorker::new(),
        }
    }

    /// Navigation responses: offered to the site worker's observation,
    /// and the catalyst layer installs the token map.
    pub fn on_navigation(&mut self, resp: &Response) {
        self.site.observe_response("(navigation)", resp);
        self.catalyst.on_navigation(resp);
    }

    /// Intercepts a subresource fetch.
    pub fn intercept(&mut self, url: &str, path: &str) -> ComposedDecision {
        if let Some(resp) = self.site.handle_fetch(url, path) {
            return ComposedDecision::SiteServed(resp);
        }
        match self.catalyst.intercept(url, path) {
            SwDecision::ServeLocal { response, .. } => ComposedDecision::CatalystServed(response),
            SwDecision::Forward { if_none_match } => ComposedDecision::Forward { if_none_match },
        }
    }

    /// Handles an upstream response: both layers observe it; catalyst
    /// resolves 304s and stores as usual.
    pub fn on_response(&mut self, url: &str, resp: &Response) -> Response {
        self.site.observe_response(url, resp);
        self.catalyst.on_response(url, resp)
    }

    pub fn catalyst_metrics(&self) -> &SwMetrics {
        &self.catalyst.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EtagConfig;
    use cachecatalyst_httpwire::EntityTag;

    fn tag(s: &str) -> EntityTag {
        EntityTag::strong(s).unwrap()
    }

    fn nav_with(entries: &[(&str, &str)]) -> Response {
        let mut config = EtagConfig::new();
        for (p, e) in entries {
            config.insert(*p, tag(e));
        }
        let mut resp = Response::ok("<html>");
        config.apply_to(&mut resp, 4096);
        resp
    }

    fn composed() -> ComposedWorker<AppShellWorker> {
        let mut shell = AppShellWorker::new(vec!["/shell.js".to_owned()]);
        shell.precache("/shell.js", Response::ok("the app shell"));
        ComposedWorker::new(shell)
    }

    #[test]
    fn site_worker_wins_for_its_assets() {
        let mut w = composed();
        // Even when catalyst could also serve the asset…
        w.on_navigation(&nav_with(&[("/shell.js", "v1")]));
        w.on_response(
            "http://s/shell.js",
            &Response::ok("from network").with_header("etag", "\"v1\""),
        );
        // …the site worker answers first: no interference.
        match w.intercept("http://s/shell.js", "/shell.js") {
            ComposedDecision::SiteServed(resp) => {
                assert_eq!(&resp.body[..], b"the app shell");
                assert_eq!(resp.headers.get("x-served-by"), Some("site-app-shell"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(w.site.served, 1);
        assert_eq!(w.catalyst_metrics().served_locally, 0);
    }

    #[test]
    fn catalyst_serves_everything_the_site_worker_declines() {
        let mut w = composed();
        w.on_navigation(&nav_with(&[("/a.css", "v1")]));
        w.on_response(
            "http://s/a.css",
            &Response::ok("styles").with_header("etag", "\"v1\""),
        );
        w.on_navigation(&nav_with(&[("/a.css", "v1")]));
        match w.intercept("http://s/a.css", "/a.css") {
            ComposedDecision::CatalystServed(resp) => {
                assert_eq!(&resp.body[..], b"styles");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(w.catalyst_metrics().served_locally, 1);
    }

    #[test]
    fn unknown_resources_forward_with_validator() {
        let mut w = composed();
        w.on_navigation(&nav_with(&[("/b.js", "v2")]));
        w.on_response(
            "http://s/b.js",
            &Response::ok("old").with_header("etag", "\"v1\""),
        );
        // Cached v1, map says v2: forward with the old validator.
        match w.intercept("http://s/b.js", "/b.js") {
            ComposedDecision::Forward { if_none_match } => {
                assert_eq!(if_none_match.unwrap(), tag("v1"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shell_only_pins_declared_paths() {
        let mut shell = AppShellWorker::new(vec!["/pinned.js".to_owned()]);
        shell.precache("/pinned.js", Response::ok("p"));
        shell.precache("/other.js", Response::ok("o")); // not pinned: ignored
        assert!(shell.handle_fetch("u", "/pinned.js").is_some());
        assert!(shell.handle_fetch("u", "/other.js").is_none());
    }
}
