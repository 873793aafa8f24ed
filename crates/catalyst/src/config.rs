//! The `X-Etag-Config` map: validation tokens for a page's
//! subresources, delivered with the base HTML response (§3).
//!
//! One writer and one gate. [`EtagConfig::header_fields`] is the only
//! code that puts a map on a head — its `X-Etag-Config` lines and the
//! `x-cc-config-digest` after them — and [`EtagConfig::accept`] the only
//! code that takes one off; the service worker the origin serves to real
//! browsers ([`crate::SW_SCRIPT`]) reads it by the same rules.
//! [`tamper_config_headers`], the fault injector, is the one other
//! thing that touches the field.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use cachecatalyst_httpwire::hash::Fnv1a64;
use cachecatalyst_httpwire::{EntityTag, HeaderMap, HeaderName, HeaderValue, Response, WireError};

/// Longest `X-Etag-Config` line [`EtagConfig::header_fields`] makes
/// before it continues the map on another (common servers cap one
/// header line at 8 KiB).
pub const MAX_HEADER_LEN: usize = 6 * 1024;

/// A map from same-origin resource path to its current entity tag.
///
/// Paths are kept in sorted order so serialization is deterministic.
///
/// ```
/// use cachecatalyst_catalyst::EtagConfig;
/// use cachecatalyst_httpwire::{EntityTag, HeaderMap};
///
/// let mut config = EtagConfig::new();
/// config.insert("/app.css", EntityTag::strong("v1").unwrap());
/// assert_eq!(config.to_string(), "/app.css=\"v1\"");
/// let head = HeaderMap::from_entries(config.header_fields());
/// assert_eq!(EtagConfig::accept(&head), Some(config));
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

    /// The map as a head carries it: `X-Etag-Config` lines of at most
    /// [`MAX_HEADER_LEN`] bytes (HTTP lets a list field repeat; an
    /// entry is never split, so one longer than that gets a line of its
    /// own), none for an empty map, then the `x-cc-config-digest` that
    /// describes them. The only writer of either field.
    pub fn header_fields(&self) -> Vec<(HeaderName, HeaderValue)> {
        let mut fields = Vec::new();
        let mut line = String::new();
        for (path, tag) in &self.entries {
            let piece = format!("{}={tag}", Escaped(path));
            if !line.is_empty() && line.len() + 1 + piece.len() > MAX_HEADER_LEN {
                fields.push(field(HeaderName::X_ETAG_CONFIG, &std::mem::take(&mut line)));
            }
            if !line.is_empty() {
                line.push(',');
            }
            line.push_str(&piece);
        }
        if !line.is_empty() {
            fields.push(field(HeaderName::X_ETAG_CONFIG, &line));
        }
        let digest = format!("{:016x}", self.digest64());
        fields.push(field(HeaderName::X_CC_CONFIG_DIGEST, &digest));
        fields
    }

    /// Parses a (possibly comma-combined) header value: the inverse of
    /// the [`Display`](fmt::Display) form.
    pub fn parse(value: &str) -> Result<EtagConfig, WireError> {
        read([value]).map(|(config, _)| config)
    }

    /// FNV-1a 64 over the canonical one-line form. Because entries are
    /// kept sorted, two equal maps always digest equally, so the digest
    /// travels next to the map as a check against damage in transit.
    fn digest64(&self) -> u64 {
        let mut hash = Fnv1a64::new();
        let _ = write!(hash, "{self}");
        hash.finish()
    }

    /// The map a receiver of `headers` may act on — the only reader of
    /// a map off a head, and so the gate every hop that installs or
    /// applies a forwarded map goes through. `None` means the map fails
    /// its digest (or the digest is unreadable) and must be ignored
    /// wholesale. A map whose digest matches is returned as parsed; so
    /// is an unsigned one (origins before the digest: taken at face
    /// value), with an absent or unparsable unsigned map reading as
    /// empty. The `X-Etag-Config` lines are read as the one list they
    /// mean, without being joined into it, and digested as they are
    /// read.
    pub fn accept(headers: &HeaderMap) -> Option<EtagConfig> {
        let claimed = match headers.get(HeaderName::X_CC_CONFIG_DIGEST) {
            Some(claimed) => Some(u64::from_str_radix(claimed.trim(), 16).ok()?),
            None => None,
        };
        let read = read(headers.get_all(HeaderName::X_ETAG_CONFIG));
        match claimed {
            None => Some(read.map(|(config, _)| config).unwrap_or_default()),
            Some(claimed) => read
                .ok()
                .filter(|(_, digest)| *digest == claimed)
                .map(|(config, _)| config),
        }
    }

    /// Replaces one entry's etag with a salt-derived bogus tag
    /// (simulating an in-transit bit flip). Returns `false` when the
    /// map is empty — nothing to corrupt.
    fn corrupt_entry(&mut self, salt: u64) -> bool {
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
    fn swap_two_etags(&mut self) -> bool {
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

/// Applies in-transit `X-Etag-Config` tampering to a response:
/// `Some(salt)` corrupts one entry, `None` swaps two entries' etags.
/// The map's lines are replaced by one line holding the damaged map;
/// the integrity digest header is deliberately left describing the
/// *original* map — this models a fault, not a malicious re-signer —
/// so receivers can detect the damage. Returns `false` when the
/// response carries no (parsable, mutable) map.
pub fn tamper_config_headers(resp: &mut Response, salt: Option<u64>) -> bool {
    // No map lines read as an empty map, which neither mutation changes.
    let Ok((mut config, _)) = read(resp.headers.get_all(HeaderName::X_ETAG_CONFIG)) else {
        return false;
    };
    let changed = match salt {
        Some(s) => config.corrupt_entry(s),
        None => config.swap_two_etags(),
    };
    if changed {
        resp.headers.remove(HeaderName::X_ETAG_CONFIG);
        resp.headers
            .append(HeaderName::X_ETAG_CONFIG, &config.to_string());
    }
    changed
}

/// The canonical one-line form, `path=etag,path=etag,…` in path order,
/// which the digest is taken over.
impl fmt::Display for EtagConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (path, tag)) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{}={tag}", Escaped(path))?;
        }
        Ok(())
    }
}

fn field(name: &str, value: &str) -> (HeaderName, HeaderValue) {
    (
        HeaderName::new(name).expect("a map field name is a token"),
        HeaderValue::new(value).expect("an escaped map holds no control byte"),
    )
}

/// A path `%XX`-escaped, written straight into whatever formats it:
/// `%`, `,`, `=`, a space (which also keeps the value free of the
/// spaces a `, ` join adds), `"` (the splitter tracks quotes) — what
/// would end a path early on the way back — and the control bytes a
/// header value cannot hold. All are ASCII, so every run between them
/// is whole UTF-8.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut plain = 0;
        for (i, b) in self.0.bytes().enumerate() {
            if matches!(b, b'%' | b',' | b'=' | b' ' | b'"' | 0..=0x1f | 0x7f) {
                f.write_str(&self.0[plain..i])?;
                write!(f, "%{b:02X}")?;
                plain = i + 1;
            }
        }
        f.write_str(&self.0[plain..])
    }
}

fn unescape(s: &str) -> Result<String, WireError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            // Two hex digits exactly (`from_str_radix` alone would
            // also take a sign).
            let hex = s
                .get(i + 1..i + 3)
                .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                .ok_or_else(|| WireError::InvalidHeader(s.to_owned()))?;
            out.push(u8::from_str_radix(hex, 16).expect("two hex digits"));
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| WireError::InvalidHeader(s.to_owned()))
}

/// Reads a map off its lines as the one list they mean, each line
/// followed by the `", "` that RFC 9110's combination rule would join
/// it to the next with, without building that list: entries are split
/// on the commas *between* them — ETags are quoted and may contain
/// commas, so quote state is tracked, across line ends too, like the
/// `If-None-Match` splitter does — and an entry is copied out only in
/// the one case that needs it, a quote left open at the end of a line.
/// Returns the map and its [`EtagConfig::digest64`], folded entry by
/// entry while the paths arrive in order (as the writer puts them) and
/// taken over the finished map otherwise.
fn read<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<(EtagConfig, u64), WireError> {
    let mut reader = Reader {
        config: EtagConfig::new(),
        digest: Fnv1a64::new(),
        in_order: true,
    };
    // The start of an entry a quote carried past a line's end.
    let mut open = String::new();
    let mut in_quotes = false;
    let mut tail: Option<&str> = None;
    for line in lines {
        if let Some(tail) = tail {
            if in_quotes {
                open.push_str(tail);
                open.push_str(", ");
            } else {
                reader.piece(&mut open, tail)?;
            }
        }
        let mut start = 0;
        for (i, b) in line.bytes().enumerate() {
            match b {
                b'"' => in_quotes = !in_quotes,
                b',' if !in_quotes => {
                    reader.piece(&mut open, &line[start..i])?;
                    start = i + 1;
                }
                _ => {}
            }
        }
        tail = Some(&line[start..]);
    }
    if let Some(tail) = tail {
        reader.piece(&mut open, tail)?;
    }
    Ok(reader.finish())
}

/// The map [`read`] is building, and its digest so far.
struct Reader {
    config: EtagConfig,
    digest: Fnv1a64,
    /// Every path so far came after the one before it, so `digest` is
    /// the digest of `config`.
    in_order: bool,
}

impl Reader {
    /// One entry: `text`, after the part of it `open` holds, if any.
    fn piece(&mut self, open: &mut String, text: &str) -> Result<(), WireError> {
        if open.is_empty() {
            return self.entry(text);
        }
        open.push_str(text);
        let read = self.entry(open);
        open.clear();
        read
    }

    fn entry(&mut self, piece: &str) -> Result<(), WireError> {
        let piece = piece.trim();
        if piece.is_empty() {
            return Ok(());
        }
        let (path, tag) = piece
            .split_once('=')
            .ok_or_else(|| WireError::InvalidHeader(piece.to_owned()))?;
        let path = unescape(path)?;
        let tag: EntityTag = tag.parse()?;
        if self.in_order {
            match self.config.entries.last_key_value() {
                Some((last, _)) if *last >= path => self.in_order = false,
                Some(_) => self.digest.write(b","),
                None => {}
            }
        }
        if self.in_order {
            let _ = write!(self.digest, "{}={tag}", Escaped(&path));
        }
        self.config.entries.insert(path, tag);
        Ok(())
    }

    fn finish(self) -> (EtagConfig, u64) {
        let digest = if self.in_order {
            self.digest.finish()
        } else {
            self.config.digest64()
        };
        (self.config, digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(s: &str) -> EntityTag {
        EntityTag::strong(s).unwrap()
    }

    fn head(config: &EtagConfig) -> HeaderMap {
        HeaderMap::from_entries(config.header_fields())
    }

    #[test]
    fn roundtrip_simple() {
        let mut c = EtagConfig::new();
        c.insert("/a.css", tag("e1"));
        c.insert("/b.js", tag("e2"));
        let v = c.to_string();
        assert_eq!(v, "/a.css=\"e1\",/b.js=\"e2\"");
        assert_eq!(EtagConfig::parse(&v).unwrap(), c);
    }

    #[test]
    fn roundtrip_weak_tags() {
        let mut c = EtagConfig::new();
        c.insert("/x", EntityTag::weak("w1").unwrap());
        let parsed = EtagConfig::parse(&c.to_string()).unwrap();
        assert!(parsed.get("/x").unwrap().is_weak());
    }

    #[test]
    fn escaping_special_characters() {
        let mut c = EtagConfig::new();
        c.insert("/query=1,2%3", tag("e"));
        c.insert("/with space", tag("f"));
        c.insert("/a\"b", tag("g"));
        c.insert("/tab\there", tag("h"));
        c.insert("/é", tag("i"));
        let v = c.to_string();
        assert!(!v.contains(' '), "spaces must be escaped: {v}");
        assert!(v.contains("/a%22b="), "quotes must be escaped: {v}");
        assert_eq!(EtagConfig::parse(&v).unwrap(), c);
        assert_eq!(EtagConfig::accept(&head(&c)), Some(c));
    }

    #[test]
    fn etag_with_comma_survives() {
        let mut c = EtagConfig::new();
        c.insert("/a", tag("v1,v2"));
        c.insert("/b", tag("x"));
        let parsed = EtagConfig::parse(&c.to_string()).unwrap();
        assert_eq!(parsed, c);
    }

    /// A map too long for one line is split between entries, each line
    /// within the cap, and the lines recombine to the map.
    #[test]
    fn long_maps_span_several_lines() {
        let mut c = EtagConfig::new();
        for i in 0..400 {
            c.insert(
                format!("/assets/resource-{i:03}.js"),
                tag(&format!("{i:016x}")),
            );
        }
        let fields = c.header_fields();
        let lines: Vec<&str> = fields
            .iter()
            .filter(|(n, _)| n.as_str() == HeaderName::X_ETAG_CONFIG)
            .map(|(_, v)| v.as_str())
            .collect();
        assert!(lines.len() > 1);
        assert!(lines.iter().all(|l| l.len() <= MAX_HEADER_LEN));
        assert_eq!(lines.join(","), c.to_string());
        let (last, _) = fields.last().unwrap();
        assert_eq!(last.as_str(), HeaderName::X_CC_CONFIG_DIGEST);
        assert_eq!(EtagConfig::accept(&head(&c)), Some(c));
    }

    #[test]
    fn an_empty_map_is_one_digest_field() {
        let fields = EtagConfig::new().header_fields();
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].0.as_str(), HeaderName::X_CC_CONFIG_DIGEST);
        assert_eq!(fields[0].1.as_str(), "cbf29ce484222325");
    }

    #[test]
    fn absent_header_is_empty_config() {
        let resp = Response::ok("x");
        assert_eq!(EtagConfig::accept(&resp.headers), Some(EtagConfig::new()));
    }

    #[test]
    fn malformed_entries_are_rejected() {
        assert!(EtagConfig::parse("no-equals-sign").is_err());
        assert!(EtagConfig::parse("/p=notquoted").is_err());
        assert!(EtagConfig::parse("/p=%ZZ=\"e\"").is_err());
        assert!(EtagConfig::parse("/p%+F=\"e\"").is_err());
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
        assert_eq!(a.to_string(), b.to_string());
    }

    fn signed_response(n: usize) -> (EtagConfig, Response) {
        let mut c = EtagConfig::new();
        for i in 0..n {
            c.insert(format!("/r{i}.js"), tag(&format!("v{i}")));
        }
        let mut resp = Response::ok("html");
        resp.headers = head(&c);
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
    fn accept_takes_intact_signed_maps() {
        let (c, resp) = signed_response(10);
        assert_eq!(EtagConfig::accept(&resp.headers), Some(c));
    }

    #[test]
    fn accept_takes_unsigned_maps_at_face_value() {
        let (c, mut resp) = signed_response(3);
        resp.headers.remove(HeaderName::X_CC_CONFIG_DIGEST);
        assert_eq!(EtagConfig::accept(&resp.headers), Some(c));
        resp.headers
            .insert(HeaderName::X_ETAG_CONFIG, "not a valid map");
        assert_eq!(EtagConfig::accept(&resp.headers), Some(EtagConfig::new()));
    }

    #[test]
    fn corruption_and_swap_are_detected_by_the_digest() {
        for salt in [None, Some(7u64), Some(u64::MAX)] {
            let (_, mut resp) = signed_response(10);
            assert!(tamper_config_headers(&mut resp, salt), "{salt:?}");
            assert_eq!(EtagConfig::accept(&resp.headers), None, "{salt:?}");
        }
    }

    #[test]
    fn garbage_map_or_digest_is_refused() {
        let (_, mut resp) = signed_response(3);
        resp.headers.remove(HeaderName::X_ETAG_CONFIG);
        resp.headers
            .insert(HeaderName::X_ETAG_CONFIG, "not a valid map");
        assert_eq!(EtagConfig::accept(&resp.headers), None);
        let (_, mut resp) = signed_response(3);
        resp.headers
            .insert(HeaderName::X_CC_CONFIG_DIGEST, "zz-not-hex");
        assert_eq!(EtagConfig::accept(&resp.headers), None);
    }

    #[test]
    fn tampering_without_a_map_is_a_noop() {
        let mut resp = Response::ok("x");
        assert!(!tamper_config_headers(&mut resp, Some(1)));
        // A single-entry map cannot swap, and reports so.
        let mut c = EtagConfig::new();
        c.insert("/only", tag("1"));
        let mut resp = Response::ok("x");
        resp.headers = head(&c);
        assert!(!tamper_config_headers(&mut resp, None));
        assert!(tamper_config_headers(&mut resp, Some(3)));
    }

    /// The damaged map replaces every line of the original with one
    /// line at the end of the head; the digest stays where it was.
    #[test]
    fn corrupt_entry_changes_exactly_one_tag() {
        let (orig, mut resp) = signed_response(400);
        let digest = resp.headers.get(HeaderName::X_CC_CONFIG_DIGEST).unwrap();
        let digest = digest.to_owned();
        assert!(tamper_config_headers(&mut resp, Some(5)));
        let names: Vec<&str> = resp.headers.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [HeaderName::X_CC_CONFIG_DIGEST, HeaderName::X_ETAG_CONFIG]
        );
        assert_eq!(
            resp.headers.get(HeaderName::X_CC_CONFIG_DIGEST),
            Some(digest.as_str())
        );
        let line = resp.headers.get(HeaderName::X_ETAG_CONFIG).unwrap();
        let mutated = EtagConfig::parse(line).unwrap();
        let changed = orig
            .iter()
            .filter(|(p, t)| mutated.get(p) != Some(*t))
            .count();
        assert_eq!(changed, 1);
    }
}
