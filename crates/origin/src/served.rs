//! What the origin serves for one path.
//!
//! A 200 or 304 for a site resource carries a head that is fixed for
//! as long as the resource's body is — length, type, validators, cache
//! policy, server — plus two things that are not: `Date`, and on a
//! catalyst page the `X-Etag-Config` map, fixed per page churn epoch
//! (and in aggregate mode merged per request with the paths learned
//! from visits). A [`Served`] holds one body version: the body, its
//! validators and both heads as shared `(HeaderName, HeaderValue)`
//! fields, built once; every request gathers reference counts into one
//! field list. An [`Epoch`] pairs it with the page's map for one churn
//! epoch, built on the epoch's first request that needs it. An epoch
//! turn that leaves the body's inputs alone keeps the [`Served`] and
//! starts only a new map. This is the item-handle idea CacheLib uses
//! for stored objects (SNIPPETS.md §3), applied to response heads.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use cachecatalyst_catalyst::EtagConfig;
use cachecatalyst_httpwire::{
    Body, EntityTag, HeaderMap, HeaderName, HeaderValue, HttpDate, Response, StatusCode, Version,
};

/// One header field line, shared by every head that carries it.
pub(crate) type Field = (HeaderName, HeaderValue);

/// The `Server` value on every site response.
pub(crate) const SERVER: &str = "cachecatalyst-origin";

/// A field from a name and value the origin produced itself.
pub(crate) fn field(name: &str, value: &str) -> Field {
    (
        HeaderName::new(name).expect("the origin's header names are tokens"),
        HeaderValue::new(value).expect("the origin's header values are visible ASCII"),
    )
}

/// The `Date` field for `t_secs`. Each thread keeps the last one it
/// made, so a run of requests within one second — a page load, or a
/// time-ordered replay — formats the date once.
pub(crate) fn date_field(t_secs: i64) -> Field {
    thread_local! {
        static LAST: RefCell<Option<(i64, Field)>> = const { RefCell::new(None) };
    }
    LAST.with_borrow_mut(|last| match last {
        Some((secs, date)) if *secs == t_secs => date.clone(),
        _ => {
            let date = field(HeaderName::DATE, &HttpDate(t_secs).to_imf_fixdate());
            *last = Some((t_secs, date.clone()));
            date
        }
    })
}

/// A response head without its per-request fields: `Date` goes in
/// before `fields[date_at]`, a page's map before `fields[map_at]`.
struct Head {
    fields: Vec<Field>,
    date_at: usize,
    map_at: usize,
}

impl Head {
    fn gather(&self, date: Field, map: &[Field]) -> HeaderMap {
        let (before_date, rest) = self.fields.split_at(self.date_at);
        let (before_map, after_map) = rest.split_at(self.map_at - self.date_at);
        let mut fields = Vec::with_capacity(self.fields.len() + 1 + map.len());
        fields.extend_from_slice(before_date);
        fields.push(date);
        fields.extend_from_slice(before_map);
        fields.extend_from_slice(map);
        fields.extend_from_slice(after_map);
        HeaderMap::from_entries(fields)
    }
}

/// A catalyst page's static-extraction map for one epoch and the
/// fields it puts on a head ([`EtagConfig::header_fields`]).
pub(crate) struct PageMap {
    pub(crate) config: EtagConfig,
    pub(crate) fields: Vec<Field>,
}

/// One resource's representation for one body version (or for one
/// request, for a fingerprinted URL): the body, its validators and its
/// 200 and 304 heads.
pub(crate) struct Served {
    pub(crate) body: Body,
    pub(crate) etag: EntityTag,
    pub(crate) last_modified: HttpDate,
    ok: Head,
    not_modified: Head,
}

/// What a path serves in one churn epoch: its representation, shared
/// with every other epoch of the same body version, and — once a
/// catalyst request for the page has built it — the epoch's map.
pub(crate) struct Epoch {
    pub(crate) served: Arc<Served>,
    pub(crate) map: OnceLock<PageMap>,
}

impl Epoch {
    pub(crate) fn new(served: Arc<Served>) -> Epoch {
        Epoch {
            served,
            map: OnceLock::new(),
        }
    }
}

impl Served {
    /// Builds both heads in the order the origin puts them on the
    /// wire: a 200 is `content-length, content-type, date,
    /// last-modified, etag, cache-control, [map], server`, a 304
    /// `etag, date, [map], cache-control, server`.
    pub(crate) fn new(
        body: Body,
        content_type: &str,
        etag: EntityTag,
        last_modified: HttpDate,
        cache_control: &str,
    ) -> Served {
        let etag_field = field(HeaderName::ETAG, &etag.to_string());
        let cache_control = field(HeaderName::CACHE_CONTROL, cache_control);
        let server = field(HeaderName::SERVER, SERVER);
        let ok = Head {
            fields: vec![
                field(HeaderName::CONTENT_LENGTH, &body.len().to_string()),
                field(HeaderName::CONTENT_TYPE, content_type),
                field(HeaderName::LAST_MODIFIED, &last_modified.to_imf_fixdate()),
                etag_field.clone(),
                cache_control.clone(),
                server.clone(),
            ],
            date_at: 2,
            map_at: 5,
        };
        let not_modified = Head {
            fields: vec![etag_field, cache_control, server],
            date_at: 1,
            map_at: 1,
        };
        Served {
            body,
            etag,
            last_modified,
            ok,
            not_modified,
        }
    }

    /// The response to one request for this representation: a 304, or
    /// a 200 whose body a `HEAD` leaves out (its `content-length`
    /// still names the body). `map` is the page's map fields, empty
    /// for anything else.
    pub(crate) fn respond(
        &self,
        not_modified: bool,
        head_only: bool,
        date: Field,
        map: &[Field],
    ) -> Response {
        let (status, head, body) = if not_modified {
            (StatusCode::NOT_MODIFIED, &self.not_modified, Body::new())
        } else if head_only {
            (StatusCode::OK, &self.ok, Body::new())
        } else {
            (StatusCode::OK, &self.ok, self.body.clone())
        };
        Response {
            version: Version::Http11,
            status,
            headers: head.gather(date, map),
            body,
        }
    }
}
