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

    /// Resolves a reference against this URL as base (RFC 3986 §5.2):
    /// a fragment is dropped, an empty path keeps the base's, dot
    /// segments are removed, and `http`/`https` URLs (any case) and
    /// `//authority` references pass through as plain-http URLs — the
    /// model is plain-http, so https third-party references stay
    /// addressable. A reference with any other scheme (`data:`,
    /// `javascript:`, `mailto:` …) names nothing to fetch: `Err`.
    pub fn join(&self, reference: &str) -> Result<Url, WireError> {
        // A fragment names a place in the document, not a resource.
        let reference = reference.split_once('#').map_or(reference, |(r, _)| r);
        let url = match reference.split_once(':').filter(|(s, _)| is_scheme(s)) {
            Some((scheme, rest))
                if scheme.eq_ignore_ascii_case("http") || scheme.eq_ignore_ascii_case("https") =>
            {
                Url::parse(&format!("http:{rest}"))?
            }
            Some(_) => return Err(WireError::InvalidTarget(reference.to_owned())),
            None if reference.starts_with("//") => Url::parse(&format!("http:{reference}"))?,
            None if reference.is_empty() => return Ok(self.clone()),
            None => {
                let base = self.path();
                let target = match reference.as_bytes()[0] {
                    b'/' => reference.to_owned(),
                    b'?' => format!("{base}{reference}"),
                    // Relative to the base's directory.
                    _ => format!("{}{reference}", &base[..=base.rfind('/').unwrap_or(0)]),
                };
                Url {
                    target: Target::parse(&target)?,
                    ..self.clone()
                }
            }
        };
        url.without_dot_segments()
    }

    /// This URL with its path's `.` and `..` segments removed (RFC
    /// 3986 §5.2.4).
    fn without_dot_segments(self) -> Result<Url, WireError> {
        let path = self.path();
        if !path.split('/').any(|seg| seg == "." || seg == "..") {
            return Ok(self);
        }
        let mut kept: Vec<&str> = Vec::new();
        let mut segments = path.split('/').skip(1).peekable();
        while let Some(seg) = segments.next() {
            if seg == ".." {
                kept.pop();
            }
            if seg != "." && seg != ".." {
                kept.push(seg);
            } else if segments.peek().is_none() {
                // A trailing dot segment leaves its directory's slash.
                kept.push("");
            }
        }
        let query = &self.target.as_str()[path.len()..];
        let target = Target::parse(&format!("/{}{query}", kept.join("/")))?;
        Ok(Url { target, ..self })
    }
}

/// `scheme = ALPHA *( ALPHA / DIGIT / "+" / "-" / "." )` (RFC 3986 §3.1).
fn is_scheme(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_alphabetic())
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.'))
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
        // RFC 3986 §5.4: the normal and abnormal examples a plain-http
        // model can express.
        let rfc = [
            ("g", "http://a/b/c/g"),
            ("./g", "http://a/b/c/g"),
            ("g/", "http://a/b/c/g/"),
            ("/g", "http://a/g"),
            ("//g", "http://g/"),
            ("?y", "http://a/b/c/d;p?y"),
            ("g?y", "http://a/b/c/g?y"),
            ("#s", "http://a/b/c/d;p?q"),
            ("g#s", "http://a/b/c/g"),
            ("g?y#s", "http://a/b/c/g?y"),
            (";x", "http://a/b/c/;x"),
            ("g;x", "http://a/b/c/g;x"),
            ("", "http://a/b/c/d;p?q"),
            (".", "http://a/b/c/"),
            ("./", "http://a/b/c/"),
            ("..", "http://a/b/"),
            ("../", "http://a/b/"),
            ("../g", "http://a/b/g"),
            ("../..", "http://a/"),
            ("../../", "http://a/"),
            ("../../g", "http://a/g"),
            ("../../../g", "http://a/g"),
            ("../../../../g", "http://a/g"),
            ("/./g", "http://a/g"),
            ("/../g", "http://a/g"),
            ("g.", "http://a/b/c/g."),
            (".g", "http://a/b/c/.g"),
            ("g..", "http://a/b/c/g.."),
            ("..g", "http://a/b/c/..g"),
            ("./../g", "http://a/b/g"),
            ("./g/.", "http://a/b/c/g/"),
            ("g/./h", "http://a/b/c/g/h"),
            ("g/../h", "http://a/b/c/h"),
            ("g;x=1/./y", "http://a/b/c/g;x=1/y"),
            ("g;x=1/../y", "http://a/b/c/y"),
            ("g?y/./x", "http://a/b/c/g?y/./x"),
            ("g#s/./x", "http://a/b/c/g"),
        ];
        // What pages write. A fragment never reaches the wire, and
        // third-party https stays addressable as http.
        let page = [
            ("", "http://example.org/pages/index.html?x=1"),
            ("#frag", "http://example.org/pages/index.html?x=1"),
            ("?q=2", "http://example.org/pages/index.html?q=2"),
            ("a.css#f", "http://example.org/pages/a.css"),
            ("./a.css", "http://example.org/pages/a.css"),
            ("../a.css", "http://example.org/a.css"),
            ("/a.css?v=3", "http://example.org/a.css?v=3"),
            ("img/d.png", "http://example.org/pages/img/d.png"),
            ("http-img/x.png", "http://example.org/pages/http-img/x.png"),
            ("//example.org/c.png", "http://example.org/c.png"),
            ("http://example.org/b.js", "http://example.org/b.js"),
            ("HTTP://cdn.example/a.js", "http://cdn.example/a.js"),
            ("https://cdn.example/a.js", "http://cdn.example/a.js"),
            ("Https://cdn.example/x/../a.js", "http://cdn.example/a.js"),
        ];
        for (base, cases) in [
            ("http://a/b/c/d;p?q", &rfc[..]),
            ("http://example.org/pages/index.html?x=1", &page[..]),
        ] {
            let base = Url::parse(base).unwrap();
            for (reference, want) in cases {
                let got = base.join(reference).map(|u| u.to_string());
                assert_eq!(got.as_deref(), Ok(*want), "{reference:?} against {base}");
            }
        }
        // Only http(s) URLs name something to fetch; `http:g` is a
        // scheme without an authority.
        let base = Url::parse("http://example.org/pages/index.html").unwrap();
        for reference in [
            "data:image/png;base64,iVBORw0KGgo=",
            "javascript:void(0)",
            "mailto:web@example.org",
            "ftp://example.org/a.css",
            "http:g",
        ] {
            assert!(base.join(reference).is_err(), "{reference:?}");
        }
    }
}
