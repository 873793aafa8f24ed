//! Entity tags (RFC 9110 §8.8.3) and `If-None-Match` evaluation.

use std::fmt;
use std::str::FromStr;

use crate::error::WireError;
use crate::hash::fnv1a64;

/// An entity tag: an opaque validator for one representation of a
/// resource.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EntityTag {
    weak: bool,
    /// The opaque tag, without surrounding quotes.
    opaque: String,
}

impl EntityTag {
    /// Creates a strong entity tag. The opaque value must consist of
    /// `etagc` characters (`!`, `0x23..=0x7e` except `"`, or obs-text).
    pub fn strong(opaque: impl Into<String>) -> Result<EntityTag, WireError> {
        Self::new(false, opaque.into())
    }

    /// Creates a weak entity tag (`W/"..."`).
    pub fn weak(opaque: impl Into<String>) -> Result<EntityTag, WireError> {
        Self::new(true, opaque.into())
    }

    fn new(weak: bool, opaque: String) -> Result<EntityTag, WireError> {
        if !opaque.bytes().all(is_etagc) {
            return Err(WireError::InvalidEtag(opaque));
        }
        Ok(EntityTag { weak, opaque })
    }

    /// Derives a strong entity tag from arbitrary content by hashing it
    /// (FNV-1a 64, rendered as 16 hex digits). This mirrors what the
    /// origin server does for every representation it serves.
    pub fn from_content(content: &[u8]) -> EntityTag {
        EntityTag {
            weak: false,
            opaque: format!("{:016x}", fnv1a64(content)),
        }
    }

    pub fn is_weak(&self) -> bool {
        self.weak
    }

    /// The opaque value without quotes or the `W/` prefix.
    pub fn opaque(&self) -> &str {
        &self.opaque
    }

    /// Strong comparison (RFC 9110 §8.8.3.2): equal opaque tags and
    /// neither tag weak.
    pub fn strong_eq(&self, other: &EntityTag) -> bool {
        !self.weak && !other.weak && self.opaque == other.opaque
    }

    /// Weak comparison: equal opaque tags, weakness ignored.
    pub fn weak_eq(&self, other: &EntityTag) -> bool {
        self.opaque == other.opaque
    }
}

fn is_etagc(b: u8) -> bool {
    b == 0x21 || (0x23..=0x7e).contains(&b) || b >= 0x80
}

impl fmt::Display for EntityTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.weak {
            write!(f, "W/\"{}\"", self.opaque)
        } else {
            write!(f, "\"{}\"", self.opaque)
        }
    }
}

impl FromStr for EntityTag {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (weak, rest) = if let Some(rest) = s.strip_prefix("W/") {
            (true, rest)
        } else {
            (false, s)
        };
        let inner = rest
            .strip_prefix('"')
            .and_then(|r| r.strip_suffix('"'))
            .ok_or_else(|| WireError::InvalidEtag(s.to_owned()))?;
        EntityTag::new(weak, inner.to_owned())
    }
}

/// The parsed value of an `If-None-Match` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IfNoneMatch {
    /// `If-None-Match: *` — matches any existing representation.
    Any,
    /// A list of entity tags.
    Tags(Vec<EntityTag>),
}

impl IfNoneMatch {
    /// Parses the (possibly comma-joined) header value.
    pub fn parse(value: &str) -> Result<IfNoneMatch, WireError> {
        let value = value.trim();
        if value == "*" {
            return Ok(IfNoneMatch::Any);
        }
        let mut tags = Vec::new();
        for part in split_etag_list(value) {
            tags.push(part.parse()?);
        }
        if tags.is_empty() {
            return Err(WireError::InvalidEtag(value.to_owned()));
        }
        Ok(IfNoneMatch::Tags(tags))
    }

    /// Evaluates the precondition against the current representation's
    /// tag. `If-None-Match` uses *weak* comparison (RFC 9110 §13.1.2).
    /// Returns `true` when the precondition FAILS, i.e. the stored
    /// response may be reused (a 304 should be sent).
    pub fn matches(&self, current: &EntityTag) -> bool {
        match self {
            IfNoneMatch::Any => true,
            IfNoneMatch::Tags(tags) => tags.iter().any(|t| t.weak_eq(current)),
        }
    }
}

impl fmt::Display for IfNoneMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IfNoneMatch::Any => f.write_str("*"),
            IfNoneMatch::Tags(tags) => {
                for (i, t) in tags.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
        }
    }
}

/// Splits a comma-separated list of entity tags. Commas cannot appear
/// inside an opaque tag (`etagc` excludes nothing relevant — commas
/// *are* allowed by the grammar's obs-text? No: `,` is 0x2c which is in
/// 0x23..=0x7e), so we must split only on commas that sit *between*
/// closing and opening quotes.
fn split_etag_list(value: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth_in_quotes = false;
    let mut start = 0;
    let bytes = value.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => depth_in_quotes = !depth_in_quotes,
            b',' if !depth_in_quotes => {
                let piece = value[start..i].trim();
                if !piece.is_empty() {
                    parts.push(piece);
                }
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    let piece = value[start..].trim();
    if !piece.is_empty() {
        parts.push(piece);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrip() {
        let strong = EntityTag::strong("abc123").unwrap();
        assert_eq!(strong.to_string(), "\"abc123\"");
        assert_eq!(strong.to_string().parse::<EntityTag>().unwrap(), strong);

        let weak = EntityTag::weak("v1").unwrap();
        assert_eq!(weak.to_string(), "W/\"v1\"");
        assert_eq!(weak.to_string().parse::<EntityTag>().unwrap(), weak);
    }

    #[test]
    fn rejects_malformed() {
        assert!("abc".parse::<EntityTag>().is_err());
        assert!("\"abc".parse::<EntityTag>().is_err());
        assert!("W/abc\"".parse::<EntityTag>().is_err());
        assert!(EntityTag::strong("with\"quote").is_err());
        assert!(EntityTag::strong("with space").is_err());
    }

    #[test]
    fn comparison_semantics() {
        let s1 = EntityTag::strong("x").unwrap();
        let s2 = EntityTag::strong("x").unwrap();
        let w1 = EntityTag::weak("x").unwrap();
        let w2 = EntityTag::weak("x").unwrap();
        // RFC 9110 §8.8.3.2 example table.
        assert!(!w1.strong_eq(&w2));
        assert!(w1.weak_eq(&w2));
        assert!(!w1.strong_eq(&s1));
        assert!(w1.weak_eq(&s1));
        assert!(s1.strong_eq(&s2));
        assert!(s1.weak_eq(&s2));
    }

    #[test]
    fn content_hash_is_deterministic_and_discriminating() {
        let a = EntityTag::from_content(b"hello");
        let b = EntityTag::from_content(b"hello");
        let c = EntityTag::from_content(b"hello!");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_weak());
        assert_eq!(a.opaque().len(), 16);
    }

    #[test]
    fn if_none_match_star() {
        let inm = IfNoneMatch::parse("*").unwrap();
        assert!(inm.matches(&EntityTag::strong("anything").unwrap()));
    }

    #[test]
    fn if_none_match_list() {
        let inm = IfNoneMatch::parse("\"a\", W/\"b\" , \"c\"").unwrap();
        assert!(inm.matches(&EntityTag::strong("a").unwrap()));
        assert!(inm.matches(&EntityTag::strong("b").unwrap())); // weak compare
        assert!(inm.matches(&EntityTag::weak("c").unwrap()));
        assert!(!inm.matches(&EntityTag::strong("d").unwrap()));
    }

    #[test]
    fn if_none_match_with_commas_in_tags() {
        let inm = IfNoneMatch::parse("\"a,b\", \"c\"").unwrap();
        match &inm {
            IfNoneMatch::Tags(tags) => {
                assert_eq!(tags.len(), 2);
                assert_eq!(tags[0].opaque(), "a,b");
            }
            _ => panic!("expected tags"),
        }
    }

    #[test]
    fn if_none_match_rejects_garbage() {
        assert!(IfNoneMatch::parse("").is_err());
        assert!(IfNoneMatch::parse("not-quoted").is_err());
    }
}
