//! Request targets and a minimal absolute-URL type.
//!
//! The reproduction only needs `http` URLs with host, optional port,
//! absolute path and optional query — enough to address resources on
//! the synthetic origins and third-party hosts.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::error::WireError;

/// An `origin-form` request target: absolute path plus optional query.
///
/// Stored as the one string it is on the wire, shared by every copy
/// (a [`Request`](crate::Request) is cloned per hop; its target is
/// not re-allocated).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Target {
    /// `/path[?query]`, exactly as parsed.
    raw: Arc<str>,
    /// Byte offset of the first `?` in `raw`, if any.
    query_at: Option<usize>,
}

impl Target {
    /// Parses an origin-form target (`/path?query`).
    pub fn parse(s: &str) -> Result<Target, WireError> {
        if !s.starts_with('/') || s.bytes().any(|b| b <= b' ' || b == 0x7f) {
            return Err(WireError::InvalidTarget(s.to_owned()));
        }
        Ok(Target {
            raw: s.into(),
            query_at: s.find('?'),
        })
    }

    /// The absolute path component (always starts with `/`).
    pub fn path(&self) -> &str {
        &self.raw[..self.query_at.unwrap_or(self.raw.len())]
    }

    /// The query string without the `?`, if present.
    pub fn query(&self) -> Option<&str> {
        self.query_at.map(|at| &self.raw[at + 1..])
    }

    /// The wire form, `/path[?query]` (what `Display` writes).
    pub fn as_str(&self) -> &str {
        &self.raw
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

impl FromStr for Target {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Target::parse(s)
    }
}

/// A minimal absolute `http://` URL: host, optional port, target.
/// Both strings are shared, so a clone allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    host: Arc<str>,
    port: Option<u16>,
    target: Target,
}

impl Url {
    /// Parses `http://host[:port]/path[?query]`. A missing path is
    /// normalized to `/`.
    pub fn parse(s: &str) -> Result<Url, WireError> {
        let err = || WireError::InvalidTarget(s.to_owned());
        let rest = s.strip_prefix("http://").ok_or_else(err)?;
        let (authority, target_str) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(err());
        }
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p.parse().map_err(|_| err())?;
                (h, Some(port))
            }
            None => (authority, None),
        };
        if host.is_empty()
            || !host
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'.')
        {
            return Err(err());
        }
        Ok(Url {
            host: host.to_ascii_lowercase().into(),
            port,
            target: Target::parse(target_str)?,
        })
    }

    /// Builds a URL from components.
    pub fn new(host: &str, port: Option<u16>, target: Target) -> Url {
        Url {
            host: host.to_ascii_lowercase().into(),
            port,
            target,
        }
    }

    pub fn host(&self) -> &str {
        &self.host
    }

    /// The explicit port, if any.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// The port to connect to (explicit, or 80).
    pub fn effective_port(&self) -> u16 {
        self.port.unwrap_or(80)
    }

    pub fn target(&self) -> &Target {
        &self.target
    }

    pub fn path(&self) -> &str {
        self.target.path()
    }

    /// The `host[:port]` form used in the `Host` header (borrowed
    /// when there is no explicit port).
    pub fn authority(&self) -> Cow<'_, str> {
        match self.port {
            Some(p) => Cow::Owned(format!("{}:{p}", self.host)),
            None => Cow::Borrowed(&self.host),
        }
    }

    /// Two URLs share an origin when scheme (always http here), host
    /// and effective port are equal.
    pub fn same_origin(&self, other: &Url) -> bool {
        self.host == other.host && self.effective_port() == other.effective_port()
    }

    /// Resolves a reference against this URL as base: absolute URLs
    /// pass through, `/rooted` paths replace the target, and relative
    /// paths resolve against the base path's directory.
    pub fn join(&self, reference: &str) -> Result<Url, WireError> {
        if reference.starts_with("http://") {
            return Url::parse(reference);
        }
        if let Some(rest) = reference.strip_prefix("https://") {
            // The model is plain-http; treat https third-party refs as
            // http so they remain addressable in the simulation.
            return Url::parse(&format!("http://{rest}"));
        }
        if reference.starts_with("//") {
            return Url::parse(&format!("http:{reference}"));
        }
        if reference.starts_with('/') {
            return Ok(Url {
                host: self.host.clone(),
                port: self.port,
                target: Target::parse(reference)?,
            });
        }
        // Relative to the base's directory.
        let base_path = self.target.path();
        let dir = match base_path.rfind('/') {
            Some(i) => &base_path[..=i],
            None => "/",
        };
        Ok(Url {
            host: self.host.clone(),
            port: self.port,
            target: Target::parse(&format!("{dir}{reference}"))?,
        })
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("http://")?;
        f.write_str(&self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        f.write_str(self.target.as_str())
    }
}

impl FromStr for Url {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_parse() {
        let t = Target::parse("/a/b.css").unwrap();
        assert_eq!(t.path(), "/a/b.css");
        assert_eq!(t.query(), None);
        let t = Target::parse("/s?q=1&r=2").unwrap();
        assert_eq!(t.path(), "/s");
        assert_eq!(t.query(), Some("q=1&r=2"));
        assert_eq!(t.to_string(), "/s?q=1&r=2");
    }

    #[test]
    fn target_rejects_bad() {
        assert!(Target::parse("no-slash").is_err());
        assert!(Target::parse("/has space").is_err());
        assert!(Target::parse("").is_err());
    }

    #[test]
    fn url_parse_variants() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.host(), "example.com");
        assert_eq!(u.effective_port(), 80);
        assert_eq!(u.path(), "/");

        let u = Url::parse("http://example.com:8080/x?y=1").unwrap();
        assert_eq!(u.effective_port(), 8080);
        assert_eq!(u.authority(), "example.com:8080");
        assert_eq!(u.to_string(), "http://example.com:8080/x?y=1");
    }

    #[test]
    fn url_host_normalized() {
        let u = Url::parse("http://EXAMPLE.com/A").unwrap();
        assert_eq!(u.host(), "example.com");
        assert_eq!(u.path(), "/A"); // path stays case-sensitive
    }

    #[test]
    fn url_rejects_bad() {
        assert!(Url::parse("ftp://x/").is_err());
        assert!(Url::parse("http:///x").is_err());
        assert!(Url::parse("http://ho st/").is_err());
        assert!(Url::parse("http://h:notaport/").is_err());
    }

    #[test]
    fn same_origin_rules() {
        let a = Url::parse("http://site.com/x").unwrap();
        let b = Url::parse("http://site.com:80/y").unwrap();
        let c = Url::parse("http://site.com:81/y").unwrap();
        let d = Url::parse("http://other.com/x").unwrap();
        assert!(a.same_origin(&b));
        assert!(!a.same_origin(&c));
        assert!(!a.same_origin(&d));
    }

    #[test]
    fn join_rules() {
        let base = Url::parse("http://s.com/dir/index.html").unwrap();
        assert_eq!(
            base.join("/abs.css").unwrap().to_string(),
            "http://s.com/abs.css"
        );
        assert_eq!(
            base.join("rel.js").unwrap().to_string(),
            "http://s.com/dir/rel.js"
        );
        assert_eq!(
            base.join("http://cdn.com/lib.js").unwrap().to_string(),
            "http://cdn.com/lib.js"
        );
        assert_eq!(
            base.join("//cdn.com/lib.js").unwrap().to_string(),
            "http://cdn.com/lib.js"
        );
        assert_eq!(
            base.join("https://cdn.com/lib.js").unwrap().to_string(),
            "http://cdn.com/lib.js"
        );
    }
}
