//! The output oracle: are the bytes the stack served the bytes the
//! site model says exist?
//!
//! Every response must be below 500. On every 64th `200` the body is
//! checked: when its ETag is the site's current one, against
//! `Site::body_at`; otherwise (a cache legitimately serving an older
//! version) against the first body seen under that `(site, path,
//! ETag)`. Mismatches are counted, never panicked on.
//!
//! A catalyst-mode origin splices its service-worker registration
//! into every page, so an HTML body is accepted when it is the model's
//! body with one contiguous insertion — a rule that needs no knowledge
//! of the snippet's text or position.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;

use cachecatalyst_httpwire::{Response, StatusCode};
use cachecatalyst_webmodel::{ResourceKind, Site};

use crate::world::Item;

/// Check one `200` in this many.
const SAMPLE_EVERY: u64 = 64;

fn digest(bytes: &[u8]) -> u64 {
    // `DefaultHasher::new()` is keyed with constants: stable within a
    // process, which is all the first-seen table needs.
    let mut hasher = DefaultHasher::new();
    hasher.write(bytes);
    hasher.finish()
}

/// Whether `served` is `model`, or (`allow_insertion`) `model` with one
/// contiguous run of bytes inserted somewhere.
fn matches_model(served: &[u8], model: &[u8], allow_insertion: bool) -> bool {
    if !allow_insertion || served.len() <= model.len() {
        return served == model;
    }
    let prefix = served.iter().zip(model).take_while(|(a, b)| a == b).count();
    let tail = model.len() - prefix;
    served[served.len() - tail..] == model[prefix..]
}

/// A sampled response awaiting its (untimed) body check.
pub struct Held {
    pub item: Item,
    pub response: Response,
}

/// Failure accounting for one lap.
#[derive(Default)]
pub struct Oracle {
    ok_seen: u64,
    first_seen: HashMap<(u16, u16, String), u64>,
    /// Responses with status ≥ 500, wire errors and body mismatches.
    pub failed: u64,
    /// Bodies actually compared.
    pub checked: u64,
}

impl Oracle {
    /// Accounts one response inside the timed loop — a status compare
    /// and a counter. Returns whether the caller should hold it for
    /// [`Oracle::check`].
    pub fn observe(&mut self, status: StatusCode) -> bool {
        if status.as_u16() >= 500 {
            self.failed += 1;
            return false;
        }
        if status != StatusCode::OK {
            return false;
        }
        self.ok_seen += 1;
        self.ok_seen.is_multiple_of(SAMPLE_EVERY)
    }

    /// Records an operation that failed before it produced a response
    /// (a wire parse error).
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Verifies one held response's body; runs between timed blocks.
    pub fn check(&mut self, site: &Site, path: &str, held: &Held) {
        self.checked += 1;
        let t_secs = i64::from(held.item.t_secs);
        let served = held.response.etag();
        let ok = if served.is_some() && served == site.etag_at(path, t_secs) {
            let is_page = ResourceKind::from_path(path) == ResourceKind::Html;
            site.body_at(path, t_secs)
                .is_some_and(|body| matches_model(&held.response.body, &body, is_page))
        } else {
            let tag = served.map(|e| e.to_string()).unwrap_or_default();
            let seen = digest(&held.response.body);
            *self
                .first_seen
                .entry((held.item.site, held.item.path, tag))
                .or_insert(seen)
                == seen
        };
        if !ok {
            self.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_webmodel::{Site, SiteSpec};

    fn site() -> Site {
        Site::generate(SiteSpec {
            host: "oracle.example".into(),
            seed: 11,
            n_resources: 12,
            ..Default::default()
        })
    }

    fn held(site: &Site, t_secs: u32, tamper: bool) -> Held {
        let path = site.base_path();
        let mut body = site.body_at(path, i64::from(t_secs)).unwrap().to_vec();
        if tamper {
            body[0] ^= 0xff;
        }
        let etag = site.etag_at(path, i64::from(t_secs)).unwrap();
        Held {
            item: Item {
                site: 0,
                path: 0,
                t_secs,
                revisit: false,
            },
            response: Response::ok(body).with_header("etag", &etag.to_string()),
        }
    }

    #[test]
    fn samples_every_64th_ok_and_counts_server_errors() {
        let mut oracle = Oracle::default();
        let sampled = (0..640).filter(|_| oracle.observe(StatusCode::OK)).count();
        assert_eq!(sampled, 10);
        assert!(!oracle.observe(StatusCode::NOT_MODIFIED));
        assert_eq!(oracle.failed, 0);
        assert!(!oracle.observe(StatusCode::BAD_GATEWAY));
        assert_eq!(oracle.failed, 1);
    }

    #[test]
    fn current_etag_is_checked_against_the_site_model() {
        let site = site();
        let mut oracle = Oracle::default();
        oracle.check(&site, site.base_path(), &held(&site, 100, false));
        assert_eq!((oracle.checked, oracle.failed), (1, 0));
        oracle.check(&site, site.base_path(), &held(&site, 100, true));
        assert_eq!((oracle.checked, oracle.failed), (2, 1));
    }

    #[test]
    fn pages_may_carry_one_inserted_snippet_and_nothing_else() {
        let model = b"<html><head></head><body>hi</body></html>";
        let injected = b"<html><head><script>sw()</script></head><body>hi</body></html>";
        let rewritten = b"<html><head><script>sw()</script></head><body>ho</body></html>";
        assert!(matches_model(model, model, true));
        assert!(matches_model(injected, model, true));
        assert!(
            !matches_model(injected, model, false),
            "assets must be exact"
        );
        assert!(!matches_model(rewritten, model, true));
        assert!(!matches_model(&model[..10], model, true));
    }

    #[test]
    fn stale_etag_must_match_the_first_body_seen_under_it() {
        let site = site();
        let path = site.base_path();
        // A version from t=0 served much later: no longer current.
        let later = (0..40)
            .map(|d| d * 86_400)
            .find(|&t| site.etag_at(path, i64::from(t)) != site.etag_at(path, 0))
            .expect("the base page changes within 40 days");
        let mut oracle = Oracle::default();
        let mut old = held(&site, 0, false);
        old.item.t_secs = later;
        oracle.check(&site, path, &old);
        oracle.check(&site, path, &old);
        assert_eq!(oracle.failed, 0);
        let mut tampered = held(&site, 0, true);
        tampered.item.t_secs = later;
        oracle.check(&site, path, &tampered);
        assert_eq!(oracle.failed, 1);
    }
}
