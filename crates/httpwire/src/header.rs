//! Header names, values and an order-preserving multi-map.
//!
//! Storage is built so that copying a message is cheap: a name is
//! either one of a fixed list of `&'static str`s (the standard names
//! below plus the extension names the simulation uses) or a shared
//! `Arc<str>`, a value is a shared `Arc<str>`, and a [`HeaderMap`] is
//! one shared `Vec` of those pairs, copied the first time a holder
//! that is not its only owner writes to it. Cloning a map is one
//! reference-count increment and no allocation.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

use crate::error::WireError;
use crate::method::is_token;

/// A case-insensitive header field name, stored lowercased.
///
/// Equality, ordering and hashing go by the lowercased string, whichever
/// representation holds it.
#[derive(Clone)]
pub struct HeaderName(NameRepr);

#[derive(Clone)]
enum NameRepr {
    /// One of `KNOWN`: no allocation to make, none to copy.
    Known(&'static str),
    /// Any other token, lowercased once and shared by every copy.
    Other(Arc<str>),
}

macro_rules! std_headers {
    ($($(#[$meta:meta])* $konst:ident => $name:literal;)*) => {
        impl HeaderName {
            $($(#[$meta])* pub const $konst: &'static str = $name;)*
        }

        /// Every name stored without an allocation: the names above
        /// (the standard ones and the `x-cc-*` extensions the simulation
        /// passes between layers), then the request fields the browser
        /// engine sets.
        const KNOWN: &[&str] = &[
            $($name,)*
            "cookie",
            "referer",
        ];
    };
}

std_headers! {
    HOST => "host";
    CONNECTION => "connection";
    CONTENT_LENGTH => "content-length";
    CONTENT_TYPE => "content-type";
    TRANSFER_ENCODING => "transfer-encoding";
    CACHE_CONTROL => "cache-control";
    ETAG => "etag";
    IF_NONE_MATCH => "if-none-match";
    IF_MODIFIED_SINCE => "if-modified-since";
    LAST_MODIFIED => "last-modified";
    DATE => "date";
    AGE => "age";
    EXPIRES => "expires";
    VARY => "vary";
    LOCATION => "location";
    SERVER => "server";
    USER_AGENT => "user-agent";
    ACCEPT => "accept";
    PRAGMA => "pragma";
    /// The CacheCatalyst map of subresource validation tokens (the
    /// paper's proposed header).
    X_ETAG_CONFIG => "x-etag-config";
    /// Marks a response as having been served by the client-side
    /// service worker without touching the network (diagnostics only).
    X_SERVED_BY => "x-served-by";
    /// The propagated distributed-tracing context (`traceparent`-style;
    /// see `tracectx`). Present only on sampled page loads.
    X_CC_TRACE => "x-cc-trace";
    /// The origin's churn epoch for the requested resource, attached
    /// to responses of traced requests so the client's cache-decision
    /// audit can attribute the decision to an epoch.
    X_CC_EPOCH => "x-cc-epoch";
    /// FNV-64 integrity digest of the canonical `X-Etag-Config`
    /// serialization, attached alongside the map so clients can detect
    /// in-transit corruption and fall back to conditional fetches
    /// instead of trusting a tampered map.
    X_CC_CONFIG_DIGEST => "x-cc-config-digest";
    // The private extensions below model out-of-band channels real
    // deployments have (HTTP/2 PUSH_PROMISE frames, RDR bundle
    // manifests, fault markers) inside the HTTP/1.1 wire format.
    /// Comma-separated paths the server pushed after this response.
    X_CC_PUSHED => "x-cc-pushed";
    /// Comma-separated paths whose bodies are embedded in this
    /// response (an RDR bundle).
    X_CC_RDR_BUNDLE => "x-cc-rdr-bundle";
    /// Extra server-side delay in milliseconds (proxy resolution
    /// time) charged before the response starts downloading.
    X_CC_SERVER_DELAY_MS => "x-cc-server-delay-ms";
    /// Client's previous visit time in virtual seconds (a stand-in
    /// for cache digests, used by push-if-changed).
    X_CC_LAST_VISIT => "x-cc-last-visit";
    /// Marks loader-internal body fetches (push/bundle
    /// materialization); origins should not treat these as real
    /// client requests.
    X_CC_INTERNAL => "x-cc-internal";
    /// Marks a response as fault-injected (the injected fault's
    /// `kind()`), so harnesses can tell synthesized errors from
    /// genuine upstream ones.
    X_CC_FAULT => "x-cc-fault";
    /// Why the connection loop answered `400` to a head it could not
    /// parse.
    X_CC_ERROR => "x-cc-error";
}

impl HeaderName {
    /// Parses and normalizes a header name. The name must be an
    /// RFC 9110 `token`.
    pub fn new(name: &str) -> Result<HeaderName, WireError> {
        if !is_token(name) {
            return Err(WireError::InvalidHeaderName(name.to_owned()));
        }
        let repr = match KNOWN.iter().find(|k| k.eq_ignore_ascii_case(name)) {
            Some(known) => NameRepr::Known(known),
            None => NameRepr::Other(name.to_ascii_lowercase().into()),
        };
        Ok(HeaderName(repr))
    }

    /// The lowercased name.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            NameRepr::Known(s) => s,
            NameRepr::Other(s) => s,
        }
    }
}

impl fmt::Debug for HeaderName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("HeaderName").field(&self.as_str()).finish()
    }
}

impl PartialEq for HeaderName {
    fn eq(&self, other: &HeaderName) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for HeaderName {}

impl Hash for HeaderName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialOrd for HeaderName {
    fn partial_cmp(&self, other: &HeaderName) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeaderName {
    fn cmp(&self, other: &HeaderName) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl FromStr for HeaderName {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        HeaderName::new(s)
    }
}

impl fmt::Display for HeaderName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<&str> for HeaderName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str().eq_ignore_ascii_case(other)
    }
}

/// A header field value.
///
/// Values are restricted to visible ASCII plus space and horizontal
/// tab; CR, LF and NUL are rejected so a value can never break message
/// framing (header injection). The bytes are shared by every copy of
/// the value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HeaderValue(Arc<str>);

impl HeaderValue {
    /// Validates and stores a header value (leading/trailing whitespace
    /// is trimmed, as RFC 9112 requires on parse).
    pub fn new(value: &str) -> Result<HeaderValue, WireError> {
        let trimmed = value.trim_matches([' ', '\t']);
        if !trimmed
            .bytes()
            .all(|b| b == b'\t' || (b' '..=b'~').contains(&b) || b >= 0x80)
        {
            return Err(WireError::InvalidHeaderValue(value.to_owned()));
        }
        Ok(HeaderValue(trimmed.into()))
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for HeaderValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for HeaderValue {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        HeaderValue::new(s)
    }
}

/// An insertion-order-preserving multi-map of header fields.
///
/// Copy-on-write: clones share one field list until one of them is
/// written to, and only the writer pays for its copy (the list, never
/// the strings in it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    entries: Arc<Vec<(HeaderName, HeaderValue)>>,
}

impl HeaderMap {
    pub fn new() -> HeaderMap {
        HeaderMap::default()
    }

    /// A map of exactly `entries`, in their order, repeats included.
    /// Names and values were checked when they were made, so nothing
    /// is parsed, copied or deduplicated: a holder of prepared fields
    /// (the origin's per-epoch heads) assembles a map from reference
    /// counts.
    pub fn from_entries(entries: Vec<(HeaderName, HeaderValue)>) -> HeaderMap {
        HeaderMap {
            entries: Arc::new(entries),
        }
    }

    /// Number of field lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The first value for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.as_str().eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for `name`, in insertion order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |(n, _)| n.as_str().eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for `name` joined as a single comma-separated list
    /// (the RFC 9110 list-combination rule). `None` when absent;
    /// borrowed when the field has one line.
    pub fn get_combined(&self, name: &str) -> Option<Cow<'_, str>> {
        let mut values = self
            .entries
            .iter()
            .filter(|(n, _)| n.as_str().eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str());
        let first = values.next()?;
        let Some(second) = values.next() else {
            return Some(Cow::Borrowed(first));
        };
        let mut joined = String::from(first);
        for v in std::iter::once(second).chain(values) {
            joined.push_str(", ");
            joined.push_str(v);
        }
        Some(Cow::Owned(joined))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Replaces all values of `name` with a single value.
    ///
    /// # Panics
    /// Panics if the name or value is invalid; use [`HeaderMap::try_insert`]
    /// for fallible insertion of untrusted data.
    pub fn insert(&mut self, name: &str, value: &str) {
        self.try_insert(name, value).expect("invalid header");
    }

    /// Replaces all values of `name` with a single value.
    pub fn try_insert(&mut self, name: &str, value: &str) -> Result<(), WireError> {
        self.insert_field(HeaderName::new(name)?, HeaderValue::new(value)?);
        Ok(())
    }

    /// Replaces all values of `name` with a prepared field. The name and
    /// value were checked when they were made, so nothing is parsed or
    /// copied but the field list, if it is shared.
    pub fn insert_field(&mut self, name: HeaderName, value: HeaderValue) {
        let entries = Arc::make_mut(&mut self.entries);
        entries.retain(|(n, _)| *n != name);
        entries.push((name, value));
    }

    /// What [`HeaderMap::insert_field`] of every field of `other` that
    /// `take` selects, one after another in `other`'s order, leaves —
    /// a name `other` repeats keeps its last value, placed where that
    /// value stands — for one copy-on-write in all, and none when
    /// `take` selects nothing.
    pub(crate) fn insert_fields_of(
        &mut self,
        other: &HeaderMap,
        take: impl Fn(&HeaderName) -> bool,
    ) {
        let theirs = &other.entries;
        if !theirs.iter().any(|(name, _)| take(name)) {
            return;
        }
        let replaced = |name: &HeaderName| theirs.iter().any(|(n, _)| n == name && take(n));
        let ours = Arc::make_mut(&mut self.entries);
        ours.retain(|(name, _)| !replaced(name));
        for (i, (name, value)) in theirs.iter().enumerate() {
            if take(name) && !theirs[i + 1..].iter().any(|(n, _)| n == name) {
                ours.push((name.clone(), value.clone()));
            }
        }
    }

    /// Appends a value without disturbing existing ones.
    ///
    /// # Panics
    /// Panics if the name or value is invalid; use [`HeaderMap::try_append`]
    /// for untrusted data.
    pub fn append(&mut self, name: &str, value: &str) {
        self.try_append(name, value).expect("invalid header");
    }

    /// Appends a value without disturbing existing ones.
    pub fn try_append(&mut self, name: &str, value: &str) -> Result<(), WireError> {
        let name = HeaderName::new(name)?;
        let value = HeaderValue::new(value)?;
        Arc::make_mut(&mut self.entries).push((name, value));
        Ok(())
    }

    /// Removes all values for `name`, returning how many were removed.
    pub fn remove(&mut self, name: &str) -> usize {
        // An absent name must not cost a shared map its copy.
        if !self.contains(name) {
            return 0;
        }
        let entries = Arc::make_mut(&mut self.entries);
        let before = entries.len();
        entries.retain(|(n, _)| !n.as_str().eq_ignore_ascii_case(name));
        before - entries.len()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&HeaderName, &HeaderValue)> {
        self.entries.iter().map(|(n, v)| (n, v))
    }

    // ---- typed accessors used by the caching layers ----

    /// Parses `Content-Length`. Multiple identical values are tolerated
    /// (RFC 9112 §6.3); conflicting values are an error.
    pub fn content_length(&self) -> Result<Option<u64>, WireError> {
        let mut seen: Option<u64> = None;
        for v in self.get_all(HeaderName::CONTENT_LENGTH) {
            // A value may itself be a comma-joined list.
            for part in v.split(',') {
                let part = part.trim();
                let n: u64 = part
                    .parse()
                    .map_err(|_| WireError::InvalidContentLength(part.to_owned()))?;
                match seen {
                    None => seen = Some(n),
                    Some(prev) if prev == n => {}
                    Some(_) => {
                        return Err(WireError::InvalidContentLength(v.to_owned()));
                    }
                }
            }
        }
        Ok(seen)
    }

    /// Whether the final `Transfer-Encoding` coding is `chunked`.
    pub fn is_chunked(&self) -> bool {
        self.get_combined(HeaderName::TRANSFER_ENCODING)
            .map(|v| {
                v.split(',')
                    .next_back()
                    .map(|c| c.trim().eq_ignore_ascii_case("chunked"))
                    .unwrap_or(false)
            })
            .unwrap_or(false)
    }

    /// Whether `Connection: close` was requested.
    pub fn wants_close(&self) -> bool {
        self.get_all(HeaderName::CONNECTION)
            .flat_map(|v| v.split(','))
            .any(|t| t.trim().eq_ignore_ascii_case("close"))
    }
}

impl<'a> IntoIterator for &'a HeaderMap {
    type Item = (&'a HeaderName, &'a HeaderValue);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (HeaderName, HeaderValue)>,
        fn(&'a (HeaderName, HeaderValue)) -> (&'a HeaderName, &'a HeaderValue),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(n, v)| (n, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_case_insensitive() {
        let mut h = HeaderMap::new();
        h.insert("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
    }

    #[test]
    fn listed_and_unlisted_names_behave_alike() {
        use std::collections::HashSet;
        // `etag` is in `KNOWN` (a static string), `x-unlisted` is not
        // (a shared one); spelling never matters for either.
        for (one, other) in [("ETag", "etag"), ("X-Unlisted", "x-unLISTED")] {
            let (a, b) = (
                HeaderName::new(one).unwrap(),
                HeaderName::new(other).unwrap(),
            );
            assert_eq!(a, b);
            assert_eq!(a.cmp(&b), Ordering::Equal);
            assert_eq!(a.as_str(), one.to_ascii_lowercase());
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(HashSet::from([a, b]).len(), 1);
        }
        assert!(HeaderName::new("etag").unwrap() < HeaderName::new("x-unlisted").unwrap());
        assert!(KNOWN
            .iter()
            .all(|k| is_token(k) && *k == k.to_ascii_lowercase()));
    }

    #[test]
    fn a_written_clone_leaves_the_original_alone() {
        let mut original = HeaderMap::new();
        original.append("vary", "accept");
        let mut copy = original.clone();
        assert_eq!(copy.remove("absent"), 0);
        assert!(Arc::ptr_eq(&original.entries, &copy.entries));
        copy.insert("Vary", "*");
        copy.append("age", "1");
        assert_eq!(original.len(), 1);
        assert_eq!(original.get("vary"), Some("accept"));
        assert_eq!(copy.get("vary"), Some("*"));
    }

    #[test]
    fn insert_replaces_append_preserves() {
        let mut h = HeaderMap::new();
        h.append("Vary", "accept");
        h.append("Vary", "user-agent");
        assert_eq!(h.get_all("vary").count(), 2);
        assert_eq!(
            h.get_combined("vary").as_deref(),
            Some("accept, user-agent")
        );
        h.insert("Vary", "*");
        assert_eq!(h.get_all("vary").count(), 1);
        assert_eq!(h.get("vary"), Some("*"));
    }

    #[test]
    fn a_map_from_entries_reads_as_the_same_appends() {
        let field = |n: &str, v: &str| (HeaderName::new(n).unwrap(), HeaderValue::new(v).unwrap());
        let built = HeaderMap::from_entries(vec![
            field("etag", "\"a\""),
            field("x-etag-config", "/a=\"1\""),
            field("x-etag-config", "/b=\"2\""),
        ]);
        let mut appended = HeaderMap::new();
        appended.append("etag", "\"a\"");
        appended.append("x-etag-config", "/a=\"1\"");
        appended.append("x-etag-config", "/b=\"2\"");
        assert_eq!(built, appended);
        assert_eq!(built.get_all("x-etag-config").count(), 2);
    }

    #[test]
    fn inserting_the_fields_of_a_map_at_once_is_inserting_them_one_by_one() {
        let field = |n: &str, v: &str| (HeaderName::new(n).unwrap(), HeaderValue::new(v).unwrap());
        let ours = HeaderMap::from_entries(vec![
            field("a", "1"),
            field("b", "2"),
            field("c", "3"),
            field("a", "4"),
        ]);
        let theirs = HeaderMap::from_entries(vec![
            field("c", "x"),
            field("d", "y"),
            field("skip", "q"),
            field("c", "z"),
            field("b", "w"),
        ]);
        let mut one_by_one = ours.clone();
        for (name, value) in theirs.iter().filter(|(n, _)| **n != "skip") {
            one_by_one.insert(name.as_str(), value.as_str());
        }
        let mut at_once = ours.clone();
        at_once.insert_fields_of(&theirs, |n| *n != "skip");
        assert_eq!(at_once, one_by_one);
        let mut untouched = ours.clone();
        untouched.insert_fields_of(&theirs, |_| false);
        assert!(Arc::ptr_eq(&untouched.entries, &ours.entries));
    }

    #[test]
    fn remove_returns_count() {
        let mut h = HeaderMap::new();
        h.append("a", "1");
        h.append("A", "2");
        h.append("b", "3");
        assert_eq!(h.remove("a"), 2);
        assert_eq!(h.len(), 1);
        assert_eq!(h.remove("zz"), 0);
    }

    #[test]
    fn rejects_header_injection() {
        let mut h = HeaderMap::new();
        assert!(h.try_insert("x", "evil\r\nset-cookie: a=b").is_err());
        assert!(h.try_insert("bad name", "v").is_err());
        assert!(h.try_insert("", "v").is_err());
    }

    #[test]
    fn value_whitespace_is_trimmed() {
        let v = HeaderValue::new("  text/html \t").unwrap();
        assert_eq!(v.as_str(), "text/html");
    }

    #[test]
    fn content_length_parsing() {
        let mut h = HeaderMap::new();
        h.insert("content-length", "42");
        assert_eq!(h.content_length().unwrap(), Some(42));

        let mut h = HeaderMap::new();
        h.append("content-length", "42");
        h.append("content-length", "42");
        assert_eq!(h.content_length().unwrap(), Some(42));

        let mut h = HeaderMap::new();
        h.append("content-length", "42");
        h.append("content-length", "43");
        assert!(h.content_length().is_err());

        let mut h = HeaderMap::new();
        h.insert("content-length", "nope");
        assert!(h.content_length().is_err());

        assert_eq!(HeaderMap::new().content_length().unwrap(), None);
    }

    #[test]
    fn chunked_detection() {
        let mut h = HeaderMap::new();
        h.insert("transfer-encoding", "gzip, chunked");
        assert!(h.is_chunked());
        let mut h = HeaderMap::new();
        h.insert("transfer-encoding", "chunked, gzip");
        assert!(!h.is_chunked());
    }

    #[test]
    fn connection_close() {
        let mut h = HeaderMap::new();
        h.insert("connection", "keep-alive, Close");
        assert!(h.wants_close());
        let mut h = HeaderMap::new();
        h.insert("connection", "keep-alive");
        assert!(!h.wants_close());
    }
}
