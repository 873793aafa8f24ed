//! `Cache-Control` directive parsing and serialization (RFC 9111 §5.2).

use std::fmt;
use std::time::Duration;

/// Parsed `Cache-Control` directives relevant to response caching.
///
/// Unknown directives are preserved verbatim so that serialization is
/// lossless for extension directives (e.g. `immutable`,
/// `stale-while-revalidate` are modeled explicitly below).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheControl {
    pub no_store: bool,
    pub no_cache: bool,
    pub no_transform: bool,
    pub must_revalidate: bool,
    pub proxy_revalidate: bool,
    pub public: bool,
    pub private: bool,
    pub immutable: bool,
    pub only_if_cached: bool,
    pub max_age: Option<Duration>,
    pub s_maxage: Option<Duration>,
    pub max_stale: Option<Option<Duration>>,
    pub min_fresh: Option<Duration>,
    pub stale_while_revalidate: Option<Duration>,
    /// Directives this implementation does not model, kept as
    /// `(name, optional value)` pairs.
    pub extensions: Vec<(String, Option<String>)>,
}

impl CacheControl {
    /// An empty directive set (no constraints).
    pub fn new() -> CacheControl {
        CacheControl::default()
    }

    /// `Cache-Control: no-store`
    pub fn no_store() -> CacheControl {
        CacheControl {
            no_store: true,
            ..Default::default()
        }
    }

    /// `Cache-Control: no-cache`
    pub fn no_cache() -> CacheControl {
        CacheControl {
            no_cache: true,
            ..Default::default()
        }
    }

    /// `Cache-Control: max-age=N`
    pub fn max_age(ttl: Duration) -> CacheControl {
        CacheControl {
            max_age: Some(ttl),
            ..Default::default()
        }
    }

    /// Parses a `Cache-Control` header value. Parsing is forgiving, as
    /// real deployments must be: unrecognized or malformed directives
    /// are kept as extensions / skipped rather than failing the whole
    /// header, but `no-store`/`no-cache` are never silently dropped.
    pub fn parse(value: &str) -> CacheControl {
        let mut cc = CacheControl::default();
        for raw in split_list(value) {
            let (name, arg) = match raw.split_once('=') {
                Some((n, v)) => (n.trim(), Some(unquote(v.trim()))),
                None => (raw, None),
            };
            let is = |directive: &str| name.eq_ignore_ascii_case(directive);
            let secs = || {
                arg.and_then(|a| a.parse::<u64>().ok())
                    .map(Duration::from_secs)
            };
            if is("no-store") {
                cc.no_store = true;
            } else if is("no-cache") {
                cc.no_cache = true;
            } else if is("no-transform") {
                cc.no_transform = true;
            } else if is("must-revalidate") {
                cc.must_revalidate = true;
            } else if is("proxy-revalidate") {
                cc.proxy_revalidate = true;
            } else if is("public") {
                cc.public = true;
            } else if is("private") {
                cc.private = true;
            } else if is("immutable") {
                cc.immutable = true;
            } else if is("only-if-cached") {
                cc.only_if_cached = true;
            } else if is("max-age") {
                cc.max_age = secs();
            } else if is("s-maxage") {
                cc.s_maxage = secs();
            } else if is("max-stale") {
                cc.max_stale = Some(secs());
            } else if is("min-fresh") {
                cc.min_fresh = secs();
            } else if is("stale-while-revalidate") {
                cc.stale_while_revalidate = secs();
            } else if !name.is_empty() {
                cc.extensions
                    .push((name.to_ascii_lowercase(), arg.map(str::to_owned)));
            }
        }
        cc
    }

    /// True when nothing at all was specified.
    pub fn is_empty(&self) -> bool {
        *self == CacheControl::default()
    }
}

/// Splits a comma-separated directive list, respecting quoted strings;
/// yields the trimmed, non-empty items.
fn split_list(value: &str) -> impl Iterator<Item = &str> {
    let mut in_quotes = false;
    value
        .split(move |c: char| {
            if c == '"' {
                in_quotes = !in_quotes;
            }
            c == ',' && !in_quotes
        })
        .map(str::trim)
        .filter(|p| !p.is_empty())
}

fn unquote(s: &str) -> &str {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(s)
}

impl fmt::Display for CacheControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut put = |f: &mut fmt::Formatter<'_>, s: &str| -> fmt::Result {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            f.write_str(s)
        };
        if self.no_store {
            put(f, "no-store")?;
        }
        if self.no_cache {
            put(f, "no-cache")?;
        }
        if self.no_transform {
            put(f, "no-transform")?;
        }
        if self.must_revalidate {
            put(f, "must-revalidate")?;
        }
        if self.proxy_revalidate {
            put(f, "proxy-revalidate")?;
        }
        if self.public {
            put(f, "public")?;
        }
        if self.private {
            put(f, "private")?;
        }
        if self.immutable {
            put(f, "immutable")?;
        }
        if self.only_if_cached {
            put(f, "only-if-cached")?;
        }
        if let Some(v) = self.max_age {
            put(f, &format!("max-age={}", v.as_secs()))?;
        }
        if let Some(v) = self.s_maxage {
            put(f, &format!("s-maxage={}", v.as_secs()))?;
        }
        if let Some(ms) = &self.max_stale {
            match ms {
                Some(v) => put(f, &format!("max-stale={}", v.as_secs()))?,
                None => put(f, "max-stale")?,
            }
        }
        if let Some(v) = self.min_fresh {
            put(f, &format!("min-fresh={}", v.as_secs()))?;
        }
        if let Some(v) = self.stale_while_revalidate {
            put(f, &format!("stale-while-revalidate={}", v.as_secs()))?;
        }
        for (name, arg) in &self.extensions {
            match arg {
                Some(a) => put(f, &format!("{name}={a}"))?,
                None => put(f, name)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_directives() {
        let cc = CacheControl::parse("no-store");
        assert!(cc.no_store);
        assert!(!cc.no_cache);

        let cc = CacheControl::parse("no-cache, must-revalidate");
        assert!(cc.no_cache && cc.must_revalidate);
    }

    #[test]
    fn parse_max_age() {
        let cc = CacheControl::parse("max-age=3600");
        assert_eq!(cc.max_age, Some(Duration::from_secs(3600)));
        let cc = CacheControl::parse("public, max-age=604800, immutable");
        assert!(cc.public && cc.immutable);
        assert_eq!(cc.max_age, Some(Duration::from_secs(604_800)));
    }

    #[test]
    fn parse_is_case_insensitive() {
        let cc = CacheControl::parse("No-Store, MAX-AGE=5");
        assert!(cc.no_store);
        assert_eq!(cc.max_age, Some(Duration::from_secs(5)));
    }

    #[test]
    fn quoted_arguments() {
        let cc = CacheControl::parse("max-age=\"60\"");
        assert_eq!(cc.max_age, Some(Duration::from_secs(60)));
    }

    #[test]
    fn max_stale_with_and_without_value() {
        let cc = CacheControl::parse("max-stale");
        assert_eq!(cc.max_stale, Some(None));
        let cc = CacheControl::parse("max-stale=30");
        assert_eq!(cc.max_stale, Some(Some(Duration::from_secs(30))));
    }

    #[test]
    fn unknown_directives_preserved() {
        let cc = CacheControl::parse("frobnicate, zap=9");
        assert_eq!(cc.extensions.len(), 2);
        assert_eq!(cc.extensions[0], ("frobnicate".into(), None));
        assert_eq!(cc.extensions[1], ("zap".into(), Some("9".into())));
    }

    #[test]
    fn malformed_number_is_dropped_not_fatal() {
        let cc = CacheControl::parse("max-age=banana, no-cache");
        assert_eq!(cc.max_age, None);
        assert!(cc.no_cache);
    }

    #[test]
    fn display_roundtrip() {
        for input in [
            "no-store",
            "no-cache, must-revalidate",
            "public, immutable, max-age=604800",
            "max-age=60, stale-while-revalidate=30",
        ] {
            let cc = CacheControl::parse(input);
            let rendered = cc.to_string();
            assert_eq!(CacheControl::parse(&rendered), cc, "{input}");
        }
    }

    #[test]
    fn empty_value() {
        let cc = CacheControl::parse("");
        assert!(cc.is_empty());
        assert_eq!(cc.to_string(), "");
    }
}
