//! The one trait every hop implements — origin, host router, edge,
//! proxy or decorator — and every client calls. It lives beside the
//! messages so neither side of the wire depends on the other to name it.

use std::sync::Arc;

use crate::message::{Request, Response};

/// Produces responses for requests addressed to `host`.
pub trait Upstream {
    /// Handles `req` for `host` at virtual time `t_secs`.
    fn handle(&self, host: &str, req: &Request, t_secs: i64) -> Response;
}

impl<U: Upstream + ?Sized> Upstream for Arc<U> {
    fn handle(&self, host: &str, req: &Request, t_secs: i64) -> Response {
        (**self).handle(host, req, t_secs)
    }
}
