//! Response bodies that carry what has been derived from them.
//!
//! A [`Body`] is one reference-counted allocation holding the bytes
//! and a cell of *content facts*: the XXH64 digest of the bytes and
//! the references found in them. Both are pure functions of the bytes,
//! both are computed by whoever asks first, and every clone — the
//! origin's epoch cache, the edge store, the browser's HTTP and
//! service-worker caches all pass the same allocation along — reads
//! the remembered value instead of hashing or parsing again.
//!
//! Nothing is keyed, so there is nothing to invalidate and nothing to
//! size: a body is immutable (there is no `&mut` access to its bytes;
//! a changed body is a new `Body`), and its facts are facts about
//! exactly those bytes. Every boundary at which bytes can be damaged
//! or differ — the codec reading a socket, the disk tier reading a
//! record, a fault plan's tampering, an origin stripping a `HEAD`
//! body — builds a new `Body`, which starts with an empty cell and is
//! digested again.
//!
//! **The memo is checked by every debug build.** Under
//! `cfg(debug_assertions)` [`Body::digest`] hashes the bytes on every
//! call and [`Body::links`] / [`Links::resolved`] extract and resolve
//! on every call, each asserting that the remembered value equals the
//! fresh one — so the whole test suite runs as a differential test of
//! the memo. Release builds carry no check.

use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use crate::hash::xxh64;
use crate::target::Url;

/// What a body's bytes are read as when looking for references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syntax {
    /// HTML: elements naming subresources.
    Markup,
    /// CSS: `url(..)` and `@import`.
    Stylesheet,
    /// JavaScript: the requests executing it makes.
    Script,
}

/// Finds the references in `text` read as a [`Syntax`], as written
/// (possibly relative), in discovery order. The workspace has one:
/// `webmodel::extract::hrefs`.
pub type Extractor = fn(Syntax, &str) -> Vec<String>;

/// The references found in a body, with the syntax they were read as.
#[derive(Debug, Clone)]
pub struct Links {
    syntax: Syntax,
    hrefs: Vec<String>,
    /// `hrefs` joined onto the first base URL asked for (`None` where
    /// the join fails), index for index.
    resolved: OnceLock<(Url, Vec<Option<Url>>)>,
}

impl Links {
    fn read(syntax: Syntax, bytes: &[u8], extract: Extractor) -> Links {
        Links {
            syntax,
            // Bytes that are not text reference nothing.
            hrefs: std::str::from_utf8(bytes).map_or_else(|_| Vec::new(), |t| extract(syntax, t)),
            resolved: OnceLock::new(),
        }
    }

    /// The references as written, in discovery order.
    pub fn hrefs(&self) -> &[String] {
        &self.hrefs
    }

    /// [`Links::hrefs`] resolved against `base`, index for index
    /// (`None` where [`Url::join`] fails). Remembered for the first
    /// base asked for; any other base is resolved afresh.
    pub fn resolved(&self, base: &Url) -> Cow<'_, [Option<Url>]> {
        let join = || -> Vec<_> { self.hrefs.iter().map(|h| base.join(h).ok()).collect() };
        let (known_base, urls) = self.resolved.get_or_init(|| (base.clone(), join()));
        if known_base != base {
            return Cow::Owned(join());
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            urls,
            &join(),
            "remembered resolution differs from a fresh one"
        );
        Cow::Borrowed(urls)
    }
}

/// The allocation a non-empty [`Body`] shares among its clones.
struct Shared {
    bytes: Bytes,
    facts: ContentFacts,
}

/// What has been derived from one body's bytes so far.
#[derive(Default)]
struct ContentFacts {
    digest: OnceLock<u64>,
    links: OnceLock<Links>,
}

/// An immutable response body. A clone is one reference-count
/// increment; an empty body allocates nothing. Compares and prints as
/// its bytes alone.
#[derive(Clone, Default)]
pub struct Body(Option<Arc<Shared>>);

impl Body {
    /// The empty body.
    pub const fn new() -> Body {
        Body(None)
    }

    /// XXH64 of the bytes, computed once per allocation.
    pub fn digest(&self) -> u64 {
        let Some(shared) = &self.0 else {
            return xxh64(&[]);
        };
        let digest = *shared.facts.digest.get_or_init(|| xxh64(&shared.bytes));
        #[cfg(debug_assertions)]
        assert_eq!(
            digest,
            xxh64(&shared.bytes),
            "remembered digest differs from a fresh one"
        );
        digest
    }

    /// The digest, if a holder of this allocation has taken it already
    /// (tests use this to show where a cell is shared and where it is
    /// not).
    pub fn known_digest(&self) -> Option<u64> {
        self.0.as_ref()?.facts.digest.get().copied()
    }

    /// The references in the bytes read as `syntax`, extracted once per
    /// allocation. The cell remembers the first syntax asked for; any
    /// other is extracted afresh, never answered from the cell.
    pub fn links(&self, syntax: Syntax, extract: Extractor) -> Cow<'_, Links> {
        let Some(shared) = &self.0 else {
            return Cow::Owned(Links::read(syntax, &[], extract));
        };
        let read = || Links::read(syntax, &shared.bytes, extract);
        let links = shared.facts.links.get_or_init(read);
        if links.syntax != syntax {
            return Cow::Owned(read());
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            links.hrefs,
            read().hrefs,
            "remembered links differ from a fresh extraction"
        );
        Cow::Borrowed(links)
    }

    /// Whether `self` and `other` are clones of one allocation (and so
    /// share one facts cell). Empty bodies have no allocation.
    pub fn shares_allocation_with(&self, other: &Body) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Deref for Body {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Some(shared) => &shared.bytes,
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Body {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Bytes> for Body {
    fn from(bytes: Bytes) -> Body {
        if bytes.is_empty() {
            return Body(None);
        }
        Body(Some(Arc::new(Shared {
            bytes,
            facts: ContentFacts::default(),
        })))
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Body {
        Bytes::from(bytes).into()
    }
}

impl From<String> for Body {
    fn from(text: String) -> Body {
        Bytes::from(text).into()
    }
}

impl From<&'static str> for Body {
    fn from(text: &'static str) -> Body {
        Bytes::from(text).into()
    }
}

impl From<&'static [u8]> for Body {
    fn from(bytes: &'static [u8]) -> Body {
        Bytes::from(bytes).into()
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        **self == **other
    }
}

impl Eq for Body {}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(shared) => shared.bytes.fmt(f),
            None => f.write_str("b\"\""),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A stand-in extractor: every whitespace-separated word, tagged
    /// with the syntax it was asked under.
    fn words(syntax: Syntax, text: &str) -> Vec<String> {
        text.split_whitespace()
            .map(|w| format!("{w}.{syntax:?}"))
            .collect()
    }

    #[test]
    fn an_empty_body_has_no_allocation_and_no_cell() {
        for empty in [
            Body::new(),
            Body::default(),
            Body::from(Bytes::new()),
            Body::from(Vec::new()),
            Body::from(""),
        ] {
            assert!(empty.is_empty());
            assert_eq!(empty.digest(), xxh64(&[]));
            assert_eq!(empty.known_digest(), None);
            assert!(!empty.shares_allocation_with(&empty.clone()));
            assert!(empty.links(Syntax::Markup, words).hrefs().is_empty());
            assert_eq!(format!("{empty:?}"), "b\"\"");
        }
    }

    #[test]
    fn equality_and_debug_go_by_the_bytes_alone() {
        let a = Body::from("same");
        let b = Body::from(b"same".to_vec());
        a.digest();
        assert_eq!(a, b);
        assert_ne!(a, Body::from("other"));
        assert_eq!(format!("{a:?}"), format!("{:?}", Bytes::from("same")));
        assert_eq!(&a[..], b"same");
    }

    #[test]
    fn links_are_remembered_per_syntax_and_per_base() {
        let body = Body::from("/a.css rel.js");
        let first = body.links(Syntax::Markup, words);
        assert!(matches!(first, Cow::Borrowed(_)));
        assert_eq!(first.hrefs(), ["/a.css.Markup", "rel.js.Markup"]);
        // A second syntax is read afresh and does not displace the first.
        let second = body.links(Syntax::Script, words);
        assert!(matches!(second, Cow::Owned(_)));
        assert_eq!(second.hrefs(), ["/a.css.Script", "rel.js.Script"]);
        assert!(matches!(
            body.clone().links(Syntax::Markup, words),
            Cow::Borrowed(_)
        ));

        let base = Url::parse("http://s.com/dir/index.html").unwrap();
        let urls = first.resolved(&base);
        assert!(matches!(urls, Cow::Borrowed(_)));
        let shown: Vec<String> = urls.iter().flatten().map(Url::to_string).collect();
        assert_eq!(
            shown,
            [
                "http://s.com/a.css.Markup",
                "http://s.com/dir/rel.js.Markup"
            ]
        );
        // Another base is resolved afresh, never answered from the cell.
        let other = Url::parse("http://t.com/x/y.html").unwrap();
        let moved = first.resolved(&other);
        assert!(matches!(moved, Cow::Owned(_)));
        assert_eq!(
            moved[1].as_ref().unwrap().to_string(),
            "http://t.com/x/rel.js.Markup"
        );
        assert!(matches!(first.resolved(&base), Cow::Borrowed(_)));
    }

    #[test]
    fn bytes_that_are_not_text_reference_nothing() {
        let body = Body::from(vec![0xff, 0xfe, b' ', b'a']);
        assert!(body.links(Syntax::Markup, words).hrefs().is_empty());
    }

    proptest! {
        /// The digest is XXH64 of the bytes; clones share one cell —
        /// also a clone taken before the first `digest()` — and a body
        /// rebuilt from equal bytes does not.
        #[test]
        fn the_cell_is_shared_by_clones_and_by_nothing_else(
            bytes in prop::collection::vec(any::<u8>(), 1..600),
        ) {
            let body = Body::from(bytes.clone());
            let early_clone = body.clone();
            prop_assert_eq!(early_clone.known_digest(), None);
            prop_assert_eq!(body.digest(), xxh64(&bytes));
            prop_assert_eq!(early_clone.known_digest(), Some(xxh64(&bytes)));
            prop_assert!(body.shares_allocation_with(&early_clone));

            let rebuilt = Body::from(bytes.clone());
            prop_assert_eq!(&rebuilt, &body);
            prop_assert!(!rebuilt.shares_allocation_with(&body));
            prop_assert_eq!(rebuilt.known_digest(), None);
            prop_assert_eq!(rebuilt.digest(), body.digest());
        }

        /// Links asked under a second syntax are recomputed, whatever
        /// the bytes.
        #[test]
        fn a_second_syntax_never_reads_the_first_ones_links(text in "[a-z /.]{0,80}") {
            let body = Body::from(text.clone());
            let markup = body.links(Syntax::Markup, words).hrefs().to_vec();
            let sheet = body.links(Syntax::Stylesheet, words).hrefs().to_vec();
            prop_assert_eq!(markup, words(Syntax::Markup, &text));
            prop_assert_eq!(sheet, words(Syntax::Stylesheet, &text));
        }
    }
}
