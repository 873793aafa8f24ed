//! The browser's view of "the network's far side".
//!
//! In the discrete-event path, server compute is instantaneous (its
//! cost is modeled by the engine's think-time parameter) and the
//! response bytes then travel through the simulated links. [`Upstream`]
//! (defined in `cachecatalyst-httpwire`, re-exported here) abstracts who
//! produces the response: an origin, which answers for any host, a
//! multi-origin map (for third-party experiments), an edge cache, or a
//! proxy from `cachecatalyst-proxies`.

use std::collections::HashMap;

pub use cachecatalyst_httpwire::Upstream;
use cachecatalyst_httpwire::{Request, Response, StatusCode};

/// Routes by host to any [`Upstream`]; unknown hosts get
/// `502 Bad Gateway`.
#[derive(Default)]
pub struct MultiOrigin {
    origins: HashMap<String, Box<dyn Upstream + Send + Sync>>,
}

impl MultiOrigin {
    pub fn new() -> MultiOrigin {
        MultiOrigin::default()
    }

    pub fn add(&mut self, host: &str, origin: impl Upstream + Send + Sync + 'static) -> &mut Self {
        self.origins
            .insert(host.to_ascii_lowercase(), Box::new(origin));
        self
    }
}

/// Pins the server-side clock: requests are handled at a fixed
/// virtual time regardless of when the client visits.
///
/// This reproduces the paper's evaluation methodology exactly: the
/// authors cloned each homepage once and aged only the *client* (by
/// advancing the system clock), so the served content never changed
/// between the first visit and the reload — only TTLs expired. Wrap
/// any upstream in this to separate "revalidation cost" effects from
/// "content actually churned" effects.
pub struct FrozenUpstream<U> {
    inner: U,
    frozen_t: i64,
}

impl<U: Upstream> FrozenUpstream<U> {
    pub fn new(inner: U, frozen_t: i64) -> FrozenUpstream<U> {
        FrozenUpstream { inner, frozen_t }
    }
}

impl<U: Upstream> Upstream for FrozenUpstream<U> {
    fn handle(&self, host: &str, req: &Request, _t_secs: i64) -> Response {
        self.inner.handle(host, req, self.frozen_t)
    }
}

impl Upstream for MultiOrigin {
    fn handle(&self, host: &str, req: &Request, t_secs: i64) -> Response {
        match self.origins.get(&host.to_ascii_lowercase()) {
            Some(origin) => origin.handle(host, req, t_secs),
            None => Response::empty(StatusCode::BAD_GATEWAY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_origin::{HeaderMode, OriginServer};
    use cachecatalyst_webmodel::example_site;
    use std::sync::Arc;

    #[test]
    fn multi_origin_routes_and_rejects() {
        let mut up = MultiOrigin::new();
        up.add(
            "Example.ORG",
            Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline)),
        );
        assert_eq!(
            up.handle("example.org", &Request::get("/a.css"), 0).status,
            StatusCode::OK
        );
        assert_eq!(
            up.handle("unknown.example", &Request::get("/a.css"), 0)
                .status,
            StatusCode::BAD_GATEWAY
        );
    }

    #[test]
    fn multi_origin_routes_to_any_upstream() {
        let mut shielded = MultiOrigin::new();
        shielded.add(
            "example.org",
            OriginServer::new(example_site(), HeaderMode::Baseline),
        );
        let mut front = MultiOrigin::new();
        front.add("example.org", FrozenUpstream::new(Arc::new(shielded), 7200));
        let resp = front.handle("example.org", &Request::get("/index.html"), 0);
        assert_eq!(resp.date().unwrap().as_secs(), 7200);
    }
}
