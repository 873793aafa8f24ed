//! Request and response message types with ergonomic builders.

use bytes::Bytes;

use crate::body::Body;
use crate::cache_control::CacheControl;
use crate::date::HttpDate;
use crate::error::{WireError, WireResult};
use crate::etag::{EntityTag, IfNoneMatch};
use crate::header::{HeaderMap, HeaderName};
use crate::method::Method;
use crate::status::StatusCode;
use crate::target::Target;

/// The HTTP protocol version of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Version {
    Http10,
    #[default]
    Http11,
}

impl Version {
    pub fn as_str(self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }

    pub fn parse(s: &str) -> WireResult<Version> {
        match s {
            "HTTP/1.0" => Ok(Version::Http10),
            "HTTP/1.1" => Ok(Version::Http11),
            other => Err(WireError::InvalidVersion(other.to_owned())),
        }
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: Method,
    pub target: Target,
    pub version: Version,
    pub headers: HeaderMap,
    pub body: Bytes,
}

impl Request {
    /// A bodyless GET for `target`.
    pub fn get(target: &str) -> Request {
        Request::get_target(Target::parse(target).expect("invalid target literal"))
    }

    /// A bodyless GET for an already-parsed target (e.g. a
    /// [`Url`](crate::Url)'s), sharing its string.
    pub fn get_target(target: Target) -> Request {
        Request {
            method: Method::Get,
            target,
            version: Version::Http11,
            headers: HeaderMap::new(),
            body: Bytes::new(),
        }
    }

    /// Builder-style header insertion.
    pub fn with_header(mut self, name: &str, value: &str) -> Request {
        self.headers.insert(name, value);
        self
    }

    /// Parsed `If-None-Match`, if present and valid.
    pub fn if_none_match(&self) -> Option<IfNoneMatch> {
        self.headers
            .get_combined(HeaderName::IF_NONE_MATCH)
            .and_then(|v| IfNoneMatch::parse(&v).ok())
    }

    /// Parsed `If-Modified-Since`, if present and valid. Ignored when
    /// `If-None-Match` is also present (RFC 9110 §13.1.3).
    pub fn if_modified_since(&self) -> Option<HttpDate> {
        if self.headers.contains(HeaderName::IF_NONE_MATCH) {
            return None;
        }
        self.headers
            .get(HeaderName::IF_MODIFIED_SINCE)
            .and_then(|v| HttpDate::parse_imf_fixdate(v).ok())
    }

    /// Whether this is a conditional request.
    pub fn is_conditional(&self) -> bool {
        self.headers.contains(HeaderName::IF_NONE_MATCH)
            || self.headers.contains(HeaderName::IF_MODIFIED_SINCE)
    }

    /// Parsed request `Cache-Control`.
    pub fn cache_control(&self) -> CacheControl {
        self.headers
            .get_combined(HeaderName::CACHE_CONTROL)
            .map(|v| CacheControl::parse(&v))
            .unwrap_or_default()
    }

    /// Total size on the wire of head + body: what
    /// [`encode_request`](crate::codec::encode_request) would produce,
    /// computed arithmetically — no serialization, no allocation.
    pub fn wire_len(&self) -> usize {
        crate::codec::request_head_len(self) + self.body.len()
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub version: Version,
    pub status: StatusCode,
    pub headers: HeaderMap,
    /// Immutable: to change the bytes, assign a new [`Body`] (which
    /// starts with nothing remembered about it).
    pub body: Body,
}

impl Response {
    /// A `200 OK` carrying `body` (sets `Content-Length`).
    pub fn ok(body: impl Into<Body>) -> Response {
        let body = body.into();
        let mut headers = HeaderMap::new();
        headers.insert(HeaderName::CONTENT_LENGTH, &body.len().to_string());
        Response {
            version: Version::Http11,
            status: StatusCode::OK,
            headers,
            body,
        }
    }

    /// An empty response with `status` (sets `Content-Length: 0` for
    /// statuses that may carry a body).
    pub fn empty(status: StatusCode) -> Response {
        let mut headers = HeaderMap::new();
        if !status.is_bodyless() {
            headers.insert(HeaderName::CONTENT_LENGTH, "0");
        }
        Response {
            version: Version::Http11,
            status,
            headers,
            body: Body::new(),
        }
    }

    /// A `304 Not Modified` echoing the validator headers that a cache
    /// needs to update its stored response (RFC 9111 §4.3.4).
    pub fn not_modified(etag: Option<&EntityTag>) -> Response {
        let mut resp = Response::empty(StatusCode::NOT_MODIFIED);
        if let Some(tag) = etag {
            resp.headers.insert(HeaderName::ETAG, &tag.to_string());
        }
        resp
    }

    /// Builder-style header insertion.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.insert(name, value);
        self
    }

    /// Updates this stored response from a `304 Not Modified` for it
    /// (RFC 9111 §4.3.4): every header of the 304 replaces the stored
    /// one, except those that describe the 304 itself and not the
    /// representation — its framing, the hop that answered it, and the
    /// `X-Etag-Config` map with its digest, which a receiver acts on
    /// when it arrives and never reads back from a stored copy. The
    /// 304's fields were checked when it was made or parsed: they are
    /// shared into this head as they are, under one copy-on-write.
    pub fn merge_not_modified(&mut self, not_modified: &Response) {
        const ABOUT_THE_304: [&str; 5] = [
            HeaderName::CONTENT_LENGTH,
            HeaderName::TRANSFER_ENCODING,
            HeaderName::X_SERVED_BY,
            HeaderName::X_ETAG_CONFIG,
            HeaderName::X_CC_CONFIG_DIGEST,
        ];
        self.headers
            .insert_fields_of(&not_modified.headers, |name| {
                !ABOUT_THE_304.contains(&name.as_str())
            });
    }

    /// Parsed `ETag` header.
    pub fn etag(&self) -> Option<EntityTag> {
        self.headers
            .get(HeaderName::ETAG)
            .and_then(|v| v.parse().ok())
    }

    /// Parsed response `Cache-Control`.
    pub fn cache_control(&self) -> CacheControl {
        self.headers
            .get_combined(HeaderName::CACHE_CONTROL)
            .map(|v| CacheControl::parse(&v))
            .unwrap_or_default()
    }

    /// Parsed `Date` header.
    pub fn date(&self) -> Option<HttpDate> {
        self.headers
            .get(HeaderName::DATE)
            .and_then(|v| HttpDate::parse_imf_fixdate(v).ok())
    }

    /// Parsed `Last-Modified` header.
    pub fn last_modified(&self) -> Option<HttpDate> {
        self.headers
            .get(HeaderName::LAST_MODIFIED)
            .and_then(|v| HttpDate::parse_imf_fixdate(v).ok())
    }

    /// Parsed `Age` header (RFC 9111 §5.1).
    pub fn age(&self) -> Option<u64> {
        self.headers
            .get(HeaderName::AGE)
            .and_then(|v| v.trim().parse().ok())
    }

    /// Total size on the wire of head + body (used by the transfer
    /// model; exact, since we serialize deterministically). Computed
    /// arithmetically — no serialization, no allocation.
    pub fn wire_len(&self) -> usize {
        crate::codec::response_head_len(self) + self.body.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder() {
        let req = Request::get("/a.css").with_header("host", "site.com");
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target.path(), "/a.css");
        assert_eq!(req.headers.get("Host"), Some("site.com"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn conditional_request_accessors() {
        let req = Request::get("/x").with_header("if-none-match", "\"abc\"");
        assert!(req.is_conditional());
        let inm = req.if_none_match().unwrap();
        assert!(inm.matches(&EntityTag::strong("abc").unwrap()));

        // If-Modified-Since is ignored when If-None-Match present.
        let req = req.with_header("if-modified-since", "Sun, 06 Nov 1994 08:49:37 GMT");
        assert!(req.if_modified_since().is_none());

        let req2 =
            Request::get("/y").with_header("if-modified-since", "Sun, 06 Nov 1994 08:49:37 GMT");
        assert_eq!(req2.if_modified_since().unwrap().as_secs(), 784_111_777);
    }

    #[test]
    fn response_ok_sets_content_length() {
        let resp = Response::ok("hello");
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.headers.get("content-length"), Some("5"));
        assert_eq!(&resp.body[..], b"hello");
    }

    #[test]
    fn not_modified_has_no_length_header() {
        let tag = EntityTag::strong("v2").unwrap();
        let resp = Response::not_modified(Some(&tag));
        assert_eq!(resp.status, StatusCode::NOT_MODIFIED);
        assert!(resp.headers.get("content-length").is_none());
        assert_eq!(resp.etag().unwrap(), tag);
    }

    #[test]
    fn a_304_updates_the_representation_and_nothing_about_itself() {
        let mut stored = Response::ok("body")
            .with_header("etag", "\"v1\"")
            .with_header("cache-control", "max-age=5")
            .with_header("x-served-by", "origin");
        let mut not_modified = Response::not_modified(Some(&EntityTag::strong("v2").unwrap()))
            .with_header("cache-control", "no-cache")
            .with_header("date", "Thu, 01 Jan 1970 00:00:00 GMT")
            .with_header("content-length", "0")
            .with_header("transfer-encoding", "chunked")
            .with_header("x-served-by", "cachecatalyst-edge")
            .with_header("x-cc-config-digest", "00000000deadbeef");
        not_modified.headers.append("x-etag-config", "/a=\"1\"");
        not_modified.headers.append("x-etag-config", "/b=\"2\"");
        stored.merge_not_modified(&not_modified);
        // (header, what the stored copy reads afterwards)
        for (name, want) in [
            ("etag", Some("\"v2\"")),
            ("cache-control", Some("no-cache")),
            ("date", Some("Thu, 01 Jan 1970 00:00:00 GMT")),
            ("content-length", Some("4")),
            ("transfer-encoding", None),
            ("x-served-by", Some("origin")),
            ("x-etag-config", None),
            ("x-cc-config-digest", None),
        ] {
            assert_eq!(stored.headers.get(name), want, "{name}");
        }
        assert_eq!(&stored.body[..], b"body");
        assert_eq!(stored.status, StatusCode::OK);
    }

    #[test]
    fn typed_accessors() {
        let resp = Response::ok("x")
            .with_header("cache-control", "max-age=60")
            .with_header("age", "10")
            .with_header("date", "Thu, 01 Jan 1970 00:00:00 GMT");
        assert_eq!(
            resp.cache_control().max_age,
            Some(std::time::Duration::from_secs(60))
        );
        assert_eq!(resp.age(), Some(10));
        assert_eq!(resp.date().unwrap().as_secs(), 0);
    }

    #[test]
    fn version_parse() {
        assert_eq!(Version::parse("HTTP/1.1").unwrap(), Version::Http11);
        assert_eq!(Version::parse("HTTP/1.0").unwrap(), Version::Http10);
        assert!(Version::parse("HTTP/2").is_err());
        assert!(Version::parse("http/1.1").is_err());
    }
}
