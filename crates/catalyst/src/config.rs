//! The `X-Etag-Config` map: validation tokens for a page's
//! subresources, delivered with the base HTML response (§3).

use std::collections::BTreeMap;
use std::fmt;

use cachecatalyst_httpwire::hash::fnv1a64;
use cachecatalyst_httpwire::{EntityTag, HeaderMap, HeaderName, Response, WireError};

/// A map from same-origin resource path to its current entity tag.
///
/// Paths are kept in sorted order so serialization is deterministic.
///
/// ```
/// use cachecatalyst_catalyst::EtagConfig;
/// use cachecatalyst_httpwire::EntityTag;
///
/// let mut config = EtagConfig::new();
/// config.insert("/app.css", EntityTag::strong("v1").unwrap());
/// let header = config.to_header_value();
/// assert_eq!(header, "/app.css=\"v1\"");
/// assert_eq!(EtagConfig::parse(&header).unwrap(), config);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EtagConfig {
    entries: BTreeMap<String, EntityTag>,
}

impl EtagConfig {
    pub fn new() -> EtagConfig {
        EtagConfig::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts or replaces the tag for `path`. Takes anything
    /// string-like, so callers holding an owned path move it in
    /// without re-allocating.
    pub fn insert(&mut self, path: impl Into<String>, etag: EntityTag) {
        self.entries.insert(path.into(), etag);
    }

    /// Merges `other` into `self`, moving its entries (no tag clones).
    /// Entries from `other` win on path collisions.
    pub fn merge(&mut self, other: EtagConfig) {
        if self.entries.is_empty() {
            self.entries = other.entries;
        } else {
            self.entries.extend(other.entries);
        }
    }

    /// The current tag for `path`.
    pub fn get(&self, path: &str) -> Option<&EntityTag> {
        self.entries.get(path)
    }

    /// Whether a cached copy tagged `cached` is the representation the
    /// map entry `current` names. The comparison is weak: the map names
    /// the current representation by opaque tag, and an intermediary
    /// may have weakened the cached copy's validator on the way.
    pub fn entry_matches(current: &EntityTag, cached: &EntityTag) -> bool {
        cached.weak_eq(current)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &EntityTag)> {
        self.entries.iter().map(|(p, t)| (p.as_str(), t))
    }

    /// Serializes to one header value: `path=etag,path=etag,…` with
    /// `%`-escaping of `%`, `,` and `=` inside paths.
    pub fn to_header_value(&self) -> String {
        let mut out = String::new();
        for (i, (path, tag)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape(path));
            out.push('=');
            out.push_str(&tag.to_string());
        }
        out
    }

    /// Serializes to multiple header values of at most `max_len` bytes
    /// each (headers have practical size limits; HTTP allows repeating
    /// a field and combining on receipt).
    ///
    /// A single entry cannot be split across values, so one value may
    /// exceed `max_len` when an individual `path=etag` pair does.
    pub fn to_header_values(&self, max_len: usize) -> Vec<String> {
        assert!(max_len >= 64, "max_len too small to hold one entry");
        let mut values = Vec::new();
        let mut current = String::new();
        for (path, tag) in self.entries.iter() {
            let piece = format!("{}={}", escape(path), tag);
            if !current.is_empty() && current.len() + 1 + piece.len() > max_len {
                values.push(std::mem::take(&mut current));
            }
            if !current.is_empty() {
                current.push(',');
            }
            current.push_str(&piece);
        }
        if !current.is_empty() {
            values.push(current);
        }
        values
    }

    /// Parses a (possibly comma-combined) header value.
    pub fn parse(value: &str) -> Result<EtagConfig, WireError> {
        let mut config = EtagConfig::new();
        for piece in split_entries(value) {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            let (path, tag) = piece
                .split_once('=')
                .ok_or_else(|| WireError::InvalidHeader(piece.to_owned()))?;
            let path = unescape(path)?;
            let tag: EntityTag = tag.parse()?;
            config.entries.insert(path, tag);
        }
        Ok(config)
    }

    /// Extracts the config from a response's `X-Etag-Config` header(s).
    /// Returns an empty config when the header is absent.
    pub fn from_response(resp: &Response) -> Result<EtagConfig, WireError> {
        Self::from_headers(&resp.headers)
    }

    /// Extracts the config from a header map.
    pub fn from_headers(headers: &HeaderMap) -> Result<EtagConfig, WireError> {
        match headers.get_combined(HeaderName::X_ETAG_CONFIG) {
            Some(v) => EtagConfig::parse(&v),
            None => Ok(EtagConfig::new()),
        }
    }

    /// Attaches the config to a response as one or more
    /// `X-Etag-Config` headers (splitting at `max_len`).
    pub fn apply_to(&self, resp: &mut Response, max_len: usize) {
        resp.headers.remove(HeaderName::X_ETAG_CONFIG);
        for value in self.to_header_values(max_len) {
            resp.headers.append(HeaderName::X_ETAG_CONFIG, &value);
        }
    }

    /// Total serialized size in bytes (for the header-overhead
    /// experiment E6).
    pub fn wire_size(&self) -> usize {
        self.to_header_value().len()
    }

    /// FNV-1a 64 digest over the canonical serialization. Because
    /// entries are kept sorted, two equal maps always digest equally,
    /// so the digest travels as an integrity check next to the map
    /// (`x-cc-config-digest`).
    pub fn digest64(&self) -> u64 {
        fnv1a64(self.to_header_value().as_bytes())
    }

    /// The `x-cc-config-digest` header value for this map.
    pub fn digest_header_value(&self) -> String {
        format!("{:016x}", self.digest64())
    }

    /// Sets the integrity digest header describing this map.
    pub fn attach_digest(&self, resp: &mut Response) {
        resp.headers
            .insert(HeaderName::X_CC_CONFIG_DIGEST, &self.digest_header_value());
    }

    /// Checks the `X-Etag-Config` map in `headers` against its
    /// `x-cc-config-digest`, if one is present.
    pub fn verify_headers(headers: &HeaderMap) -> ConfigIntegrity {
        let Some(claimed) = headers.get(HeaderName::X_CC_CONFIG_DIGEST) else {
            return ConfigIntegrity::Unsigned;
        };
        let Ok(claimed) = u64::from_str_radix(claimed.trim(), 16) else {
            return ConfigIntegrity::Tampered;
        };
        match Self::from_headers(headers) {
            Ok(config) if config.digest64() == claimed => ConfigIntegrity::Verified(config),
            _ => ConfigIntegrity::Tampered,
        }
    }

    /// The map a receiver of `headers` may act on — the one gate every
    /// hop that installs or applies a forwarded map goes through.
    /// `None` means the map fails its digest and must be ignored
    /// wholesale. A verified map is returned as parsed; so is an
    /// unsigned one (pre-digest origins: taken at face value), with an
    /// absent or unparsable unsigned map reading as empty.
    pub fn accept(headers: &HeaderMap) -> Option<EtagConfig> {
        match Self::verify_headers(headers) {
            ConfigIntegrity::Verified(config) => Some(config),
            ConfigIntegrity::Unsigned => Some(Self::from_headers(headers).unwrap_or_default()),
            ConfigIntegrity::Tampered => None,
        }
    }

    /// Replaces one entry's etag with a salt-derived bogus tag
    /// (simulating an in-transit bit flip). Returns `false` when the
    /// map is empty — nothing to corrupt.
    pub fn corrupt_entry(&mut self, salt: u64) -> bool {
        if self.entries.is_empty() {
            return false;
        }
        let idx = (salt % self.entries.len() as u64) as usize;
        let path = self.entries.keys().nth(idx).expect("idx < len").clone();
        let old = &self.entries[&path];
        let mut bogus = EntityTag::strong(format!("{salt:016x}")).expect("hex is a valid etag");
        if &bogus == old {
            bogus = EntityTag::strong(format!("{:016x}", salt ^ 1)).expect("valid etag");
        }
        self.entries.insert(path, bogus);
        true
    }

    /// Swaps the etags of the first and last entries (a plausible but
    /// wrong map — every tag individually looks valid). Returns
    /// `false` when the map has fewer than two distinct tags to swap.
    pub fn swap_two_etags(&mut self) -> bool {
        if self.entries.len() < 2 {
            return false;
        }
        let first = self.entries.keys().next().expect("non-empty").clone();
        let last = self.entries.keys().next_back().expect("non-empty").clone();
        if self.entries[&first] == self.entries[&last] {
            return false;
        }
        let a = self.entries.remove(&first).expect("present");
        let b = self.entries.remove(&last).expect("present");
        self.entries.insert(first, b);
        self.entries.insert(last, a);
        true
    }
}

/// Outcome of checking an `X-Etag-Config` map against its integrity
/// digest (see [`EtagConfig::verify_headers`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigIntegrity {
    /// No digest header present — nothing to verify (pre-digest
    /// origins; the map, if any, is taken at face value).
    Unsigned,
    /// Digest present and it matches the (parsed) map.
    Verified(EtagConfig),
    /// Digest present but the map is missing, unparsable, or digests
    /// to a different value: the map must not be trusted.
    Tampered,
}

/// Applies in-transit `X-Etag-Config` tampering to a response:
/// `Some(salt)` corrupts one entry, `None` swaps two entries' etags.
/// The integrity digest header is deliberately left describing the
/// *original* map — this models a fault, not a malicious re-signer —
/// so receivers can detect the damage. Returns `false` when the
/// response carries no (parsable, mutable) map.
pub fn tamper_config_headers(resp: &mut Response, salt: Option<u64>) -> bool {
    let Some(combined) = resp.headers.get_combined(HeaderName::X_ETAG_CONFIG) else {
        return false;
    };
    let Ok(mut config) = EtagConfig::parse(&combined) else {
        return false;
    };
    let changed = match salt {
        Some(s) => config.corrupt_entry(s),
        None => config.swap_two_etags(),
    };
    if changed {
        config.apply_to(resp, usize::MAX);
    }
    changed
}

impl fmt::Display for EtagConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_header_value())
    }
}

fn escape(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for b in path.bytes() {
        match b {
            b'%' | b',' | b'=' | b' ' => out.push_str(&format!("%{b:02X}")),
            _ => out.push(b as char),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, WireError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s
                .get(i + 1..i + 3)
                .ok_or_else(|| WireError::InvalidHeader(s.to_owned()))?;
            let v =
                u8::from_str_radix(hex, 16).map_err(|_| WireError::InvalidHeader(s.to_owned()))?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| WireError::InvalidHeader(s.to_owned()))
}

/// Splits on commas that are *between* entries. ETags are quoted and
/// may contain commas, so track quote state like the `If-None-Match`
/// splitter does.
fn split_entries(value: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut in_quotes = false;
    let mut start = 0;
    for (i, b) in value.bytes().enumerate() {
        match b {
            b'"' => in_quotes = !in_quotes,
            b',' if !in_quotes => {
                parts.push(&value[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&value[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(s: &str) -> EntityTag {
        EntityTag::strong(s).unwrap()
    }

    #[test]
    fn roundtrip_simple() {
        let mut c = EtagConfig::new();
        c.insert("/a.css", tag("e1"));
        c.insert("/b.js", tag("e2"));
        let v = c.to_header_value();
        assert_eq!(v, "/a.css=\"e1\",/b.js=\"e2\"");
        assert_eq!(EtagConfig::parse(&v).unwrap(), c);
    }

    #[test]
    fn roundtrip_weak_tags() {
        let mut c = EtagConfig::new();
        c.insert("/x", EntityTag::weak("w1").unwrap());
        let parsed = EtagConfig::parse(&c.to_header_value()).unwrap();
        assert!(parsed.get("/x").unwrap().is_weak());
    }

    #[test]
    fn escaping_special_characters() {
        let mut c = EtagConfig::new();
        c.insert("/query=1,2%3", tag("e"));
        c.insert("/with space", tag("f"));
        let v = c.to_header_value();
        assert!(!v.contains(' '), "spaces must be escaped: {v}");
        let parsed = EtagConfig::parse(&v).unwrap();
        assert_eq!(parsed.get("/query=1,2%3").unwrap(), &tag("e"));
        assert_eq!(parsed.get("/with space").unwrap(), &tag("f"));
    }

    #[test]
    fn etag_with_comma_survives() {
        let mut c = EtagConfig::new();
        c.insert("/a", tag("v1,v2"));
        c.insert("/b", tag("x"));
        let parsed = EtagConfig::parse(&c.to_header_value()).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn splitting_across_header_values() {
        let mut c = EtagConfig::new();
        for i in 0..50 {
            c.insert(
                format!("/assets/resource-{i:03}.js"),
                tag(&format!("{i:016x}")),
            );
        }
        let values = c.to_header_values(256);
        assert!(values.len() > 1);
        for v in &values {
            assert!(v.len() <= 256, "{}", v.len());
        }
        // Combining and parsing restores the map.
        let combined = values.join(",");
        assert_eq!(EtagConfig::parse(&combined).unwrap(), c);
    }

    #[test]
    fn apply_and_extract_from_response() {
        let mut c = EtagConfig::new();
        for i in 0..40 {
            c.insert(format!("/r{i}"), tag(&format!("{i}")));
        }
        let mut resp = Response::ok("html");
        c.apply_to(&mut resp, 200);
        assert!(resp.headers.get_all("x-etag-config").count() > 1);
        assert_eq!(EtagConfig::from_response(&resp).unwrap(), c);
    }

    #[test]
    fn absent_header_is_empty_config() {
        let resp = Response::ok("x");
        assert!(EtagConfig::from_response(&resp).unwrap().is_empty());
    }

    #[test]
    fn malformed_entries_are_rejected() {
        assert!(EtagConfig::parse("no-equals-sign").is_err());
        assert!(EtagConfig::parse("/p=notquoted").is_err());
        assert!(EtagConfig::parse("/p=%ZZ=\"e\"").is_err());
    }

    #[test]
    fn merge_moves_entries_and_overwrites() {
        let mut a = EtagConfig::new();
        a.insert("/a", tag("1"));
        a.insert("/b", tag("old"));
        let mut b = EtagConfig::new();
        b.insert("/b", tag("new"));
        b.insert("/c", tag("3"));
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get("/b").unwrap(), &tag("new"));
        assert_eq!(a.get("/a").unwrap(), &tag("1"));
    }

    #[test]
    fn deterministic_ordering() {
        let mut a = EtagConfig::new();
        a.insert("/z", tag("1"));
        a.insert("/a", tag("2"));
        let mut b = EtagConfig::new();
        b.insert("/a", tag("2"));
        b.insert("/z", tag("1"));
        assert_eq!(a.to_header_value(), b.to_header_value());
    }

    fn signed_response(n: usize) -> (EtagConfig, Response) {
        let mut c = EtagConfig::new();
        for i in 0..n {
            c.insert(format!("/r{i}.js"), tag(&format!("v{i}")));
        }
        let mut resp = Response::ok("html");
        c.apply_to(&mut resp, 200);
        c.attach_digest(&mut resp);
        (c, resp)
    }

    #[test]
    fn digest_is_order_independent_and_content_sensitive() {
        let mut a = EtagConfig::new();
        a.insert("/z", tag("1"));
        a.insert("/a", tag("2"));
        let mut b = EtagConfig::new();
        b.insert("/a", tag("2"));
        b.insert("/z", tag("1"));
        assert_eq!(a.digest64(), b.digest64());
        b.insert("/a", tag("3"));
        assert_ne!(a.digest64(), b.digest64());
    }

    #[test]
    fn verify_headers_accepts_intact_signed_maps() {
        let (c, resp) = signed_response(10);
        assert_eq!(
            EtagConfig::verify_headers(&resp.headers),
            ConfigIntegrity::Verified(c)
        );
    }

    #[test]
    fn verify_headers_passes_unsigned_maps_through() {
        let mut c = EtagConfig::new();
        c.insert("/a", tag("1"));
        let mut resp = Response::ok("html");
        c.apply_to(&mut resp, 200);
        assert_eq!(
            EtagConfig::verify_headers(&resp.headers),
            ConfigIntegrity::Unsigned
        );
    }

    #[test]
    fn corruption_and_swap_are_detected_by_the_digest() {
        for salt in [None, Some(7u64), Some(u64::MAX)] {
            let (_, mut resp) = signed_response(10);
            assert!(tamper_config_headers(&mut resp, salt), "{salt:?}");
            assert_eq!(
                EtagConfig::verify_headers(&resp.headers),
                ConfigIntegrity::Tampered,
                "{salt:?}"
            );
        }
    }

    #[test]
    fn garbage_map_or_digest_is_tampered() {
        let (_, mut resp) = signed_response(3);
        resp.headers.remove(HeaderName::X_ETAG_CONFIG);
        resp.headers
            .insert(HeaderName::X_ETAG_CONFIG, "not a valid map");
        assert_eq!(
            EtagConfig::verify_headers(&resp.headers),
            ConfigIntegrity::Tampered
        );
        let (_, mut resp) = signed_response(3);
        resp.headers
            .insert(HeaderName::X_CC_CONFIG_DIGEST, "zz-not-hex");
        assert_eq!(
            EtagConfig::verify_headers(&resp.headers),
            ConfigIntegrity::Tampered
        );
    }

    #[test]
    fn tampering_without_a_map_is_a_noop() {
        let mut resp = Response::ok("x");
        assert!(!tamper_config_headers(&mut resp, Some(1)));
        // A single-entry map cannot swap, and reports so.
        let mut c = EtagConfig::new();
        c.insert("/only", tag("1"));
        let mut resp = Response::ok("x");
        c.apply_to(&mut resp, 200);
        assert!(!tamper_config_headers(&mut resp, None));
        assert!(tamper_config_headers(&mut resp, Some(3)));
    }

    #[test]
    fn corrupt_entry_changes_exactly_one_tag() {
        let (orig, mut resp) = signed_response(8);
        assert!(tamper_config_headers(&mut resp, Some(5)));
        let mutated = EtagConfig::from_response(&resp).unwrap();
        let changed = orig
            .iter()
            .filter(|(p, t)| mutated.get(p) != Some(*t))
            .count();
        assert_eq!(changed, 1);
    }

    #[test]
    fn wire_size_grows_linearly() {
        let mut c = EtagConfig::new();
        let mut sizes = Vec::new();
        for i in 0..100 {
            c.insert(format!("/assets/file-{i:04}.js"), tag(&format!("{i:016x}")));
            sizes.push(c.wire_size());
        }
        // Roughly linear: each entry ≈ path + etag + separators.
        let per_entry = (sizes[99] - sizes[9]) / 90;
        assert!((30..60).contains(&per_entry), "{per_entry}");
    }
}
