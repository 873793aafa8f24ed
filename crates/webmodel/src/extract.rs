//! Static link extraction from HTML and CSS.
//!
//! These are the same extractors the modified origin server runs to
//! build the `X-Etag-Config` map (the paper modified Caddy to
//! "traverse the entire DOM and extract all resource links", §3), and
//! the page-load engine runs to drive dependency resolution. They are
//! deliberately small — attribute scanning, not a browser-grade parser
//! — but handle the markup our generator and common sites produce:
//! `<link href>`, `<script src>`, `<img src/srcset>`, `<source
//! src/srcset>`, `<video poster>`, CSS `url(...)` and `@import`.
//!
//! Everything outside this crate that wants "the URLs this body
//! references" — the browser profile, the origin's map walk, the RDR
//! proxy — asks [`discover`], which reads them, and their resolution
//! against the body's URL, once per [`Body`] allocation.

use std::borrow::Cow;

use cachecatalyst_httpwire::{Body, Links, Syntax, Url};

use crate::jsdialect;
use crate::resource::ResourceKind;

/// The references in `text` read as `syntax`, as written, in discovery
/// order: links in markup and stylesheets, requests made by executing
/// a script. The workspace's one kind → extractor dispatch, and the
/// function a [`Body`] memoises.
pub fn hrefs(syntax: Syntax, text: &str) -> Vec<String> {
    let of = |links: Vec<ExtractedLink>| links.into_iter().map(|l| l.href).collect();
    match syntax {
        Syntax::Markup => of(extract_html_links(text)),
        Syntax::Stylesheet => of(extract_css_links(text)),
        Syntax::Script => jsdialect::evaluate(text),
    }
}

/// The references in `body`, read as what `kind` says it is (`None`
/// for kinds that reference nothing). Extracted at most once per body
/// allocation, by whoever asks first.
fn links(kind: ResourceKind, body: &Body) -> Option<Cow<'_, Links>> {
    let syntax = match kind {
        ResourceKind::Html => Syntax::Markup,
        ResourceKind::Css => Syntax::Stylesheet,
        ResourceKind::Js => Syntax::Script,
        _ => return None,
    };
    Some(body.links(syntax, hrefs))
}

/// The URLs `body`, fetched from `url` and read as `kind`, references,
/// in discovery order: every reference [`Url::join`] resolves against
/// `url`, except one naming the document itself. The workspace's one
/// way from a body to the URLs it names; the links and their
/// resolution against the first URL asked for ride with the body, so
/// a second reader of the allocation allocates the returned list only.
pub fn discover(url: &Url, kind: ResourceKind, body: &Body) -> Vec<Url> {
    let Some(links) = links(kind, body) else {
        return Vec::new();
    };
    let resolved = links.resolved(url);
    let mut urls = Vec::with_capacity(resolved.len());
    urls.extend(resolved.iter().flatten().filter(|u| *u != url).cloned());
    urls
}

/// A reference discovered in markup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedLink {
    /// The raw reference as written (may be relative).
    pub href: String,
    /// Where it appeared (element/property), for diagnostics.
    pub context: LinkContext,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkContext {
    Stylesheet,
    Script,
    Image,
    Poster,
    CssUrl,
    CssImport,
    Preload,
}

/// Extracts subresource links from an HTML document, in document order.
pub fn extract_html_links(html: &str) -> Vec<ExtractedLink> {
    let mut out = Vec::new();
    let mut i = 0;
    // Text between tags (most of a padded page) is skipped by `find`,
    // which scans for the next `<` a word at a time.
    while let Some(lt) = html[i..].find('<') {
        i += lt;
        // Skip comments.
        if html[i..].starts_with("<!--") {
            match html[i + 4..].find("-->") {
                Some(end) => {
                    i += 4 + end + 3;
                    continue;
                }
                None => break,
            }
        }
        let tag_end = match html[i..].find('>') {
            Some(e) => i + e,
            None => break,
        };
        let tag = &html[i + 1..tag_end];
        let (name, attrs) = split_tag(tag);
        let is = |element: &str| name.eq_ignore_ascii_case(element);
        let mut push = |href: &str, context| {
            out.push(ExtractedLink {
                href: href.to_owned(),
                context,
            })
        };
        if is("link") {
            let rel = get_attr(attrs, "rel").unwrap_or_default();
            let rel_has = |word: &str| rel.split_whitespace().any(|r| r.eq_ignore_ascii_case(word));
            if let Some(href) = get_attr(attrs, "href") {
                if rel_has("stylesheet") {
                    push(href, LinkContext::Stylesheet);
                } else if rel_has("preload") || rel_has("icon") {
                    push(href, LinkContext::Preload);
                }
            }
        } else if is("script") {
            if let Some(src) = get_attr(attrs, "src") {
                push(src, LinkContext::Script);
            }
        } else if is("img") || is("source") {
            if let Some(src) = get_attr(attrs, "src") {
                push(src, LinkContext::Image);
            }
            if let Some(srcset) = get_attr(attrs, "srcset") {
                for candidate in srcset.split(',') {
                    if let Some(url) = candidate.split_whitespace().next() {
                        push(url, LinkContext::Image);
                    }
                }
            }
        } else if is("video") {
            if let Some(poster) = get_attr(attrs, "poster") {
                push(poster, LinkContext::Poster);
            }
        }
        i = tag_end + 1;
    }
    out
}

/// Extracts `url(...)` and `@import` references from a CSS file.
pub fn extract_css_links(css: &str) -> Vec<ExtractedLink> {
    let mut out = Vec::new();
    let mut rest = css;
    // @import "x.css";  |  @import url(x.css);
    while let Some(pos) = rest.find("@import") {
        let after = &rest[pos + "@import".len()..];
        let after_trim = after.trim_start();
        if let Some(url) = if after_trim.starts_with("url(") {
            parse_css_url(&after_trim[3..])
        } else {
            parse_css_string(after_trim)
        } {
            out.push(ExtractedLink {
                href: url,
                context: LinkContext::CssImport,
            });
        }
        rest = after;
    }
    // url(...) occurrences (also matches the ones inside @import url();
    // dedup below removes doubles).
    let mut scan = css;
    while let Some(pos) = scan.find("url(") {
        if let Some(url) = parse_css_url(&scan[pos + 3..]) {
            out.push(ExtractedLink {
                href: url,
                context: LinkContext::CssUrl,
            });
        }
        scan = &scan[pos + 4..];
    }
    // Deduplicate while preserving order (imports first).
    let mut seen = std::collections::HashSet::new();
    out.retain(|l| seen.insert(l.href.clone()));
    out
}

/// Parses `(url)` / `("url")` / `('url')`, given input starting at `(`.
fn parse_css_url(s: &str) -> Option<String> {
    let s = s.strip_prefix('(')?;
    let end = s.find(')')?;
    let inner = s[..end].trim();
    let inner = inner
        .strip_prefix('"')
        .and_then(|x| x.strip_suffix('"'))
        .or_else(|| inner.strip_prefix('\'').and_then(|x| x.strip_suffix('\'')))
        .unwrap_or(inner);
    if inner.is_empty() || inner.starts_with("data:") {
        None
    } else {
        Some(inner.to_owned())
    }
}

/// Parses a leading quoted string.
fn parse_css_string(s: &str) -> Option<String> {
    let quote = s.chars().next()?;
    if quote != '"' && quote != '\'' {
        return None;
    }
    let rest = &s[1..];
    let end = rest.find(quote)?;
    Some(rest[..end].to_owned())
}

/// Splits a tag's content into element name and attribute slice.
fn split_tag(tag: &str) -> (&str, &str) {
    let tag = tag.trim_end_matches('/').trim();
    match tag.find(char::is_whitespace) {
        Some(i) => (&tag[..i], &tag[i + 1..]),
        None => (tag, ""),
    }
}

/// Finds the value of `name` (given lowercase) in an attribute list.
/// Handles double, single and missing quotes; attribute names are
/// case-insensitive.
fn get_attr<'a>(attrs: &'a str, name: &str) -> Option<&'a str> {
    let bytes = attrs.as_bytes();
    let mut from = 0;
    while let Some(rel) = bytes[from..]
        .windows(name.len())
        .position(|w| w.eq_ignore_ascii_case(name.as_bytes()))
    {
        let at = from + rel;
        // Must be a word boundary before, and `=` (with optional ws) after.
        let before_ok = at == 0 || !bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'-';
        let after = &attrs[at + name.len()..];
        let after_trim = after.trim_start();
        if before_ok && after_trim.starts_with('=') {
            let val = after_trim[1..].trim_start();
            return if let Some(v) = val.strip_prefix('"') {
                v.split('"').next()
            } else if let Some(v) = val.strip_prefix('\'') {
                v.split('\'').next()
            } else {
                val.split([' ', '\t', '>']).next()
            };
        }
        from = at + name.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hrefs(links: &[ExtractedLink]) -> Vec<&str> {
        links.iter().map(|l| l.href.as_str()).collect()
    }

    #[test]
    fn extracts_basic_page() {
        let html = r#"<!DOCTYPE html><html><head>
            <link rel="stylesheet" href="/a.css">
            <script src="/b.js"></script>
            </head><body>
            <img src="/d.jpg" alt="x">
            </body></html>"#;
        let links = extract_html_links(html);
        assert_eq!(hrefs(&links), vec!["/a.css", "/b.js", "/d.jpg"]);
        assert_eq!(links[0].context, LinkContext::Stylesheet);
        assert_eq!(links[1].context, LinkContext::Script);
        assert_eq!(links[2].context, LinkContext::Image);
    }

    #[test]
    fn single_quotes_and_unquoted() {
        let html = "<img src='/x.png'><script src=/y.js></script>";
        assert_eq!(hrefs(&extract_html_links(html)), vec!["/x.png", "/y.js"]);
    }

    #[test]
    fn ignores_inline_scripts_and_non_stylesheet_links() {
        let html = r#"<script>var x = 1;</script>
            <link rel="canonical" href="/page">
            <link rel="stylesheet" href="/real.css">"#;
        assert_eq!(hrefs(&extract_html_links(html)), vec!["/real.css"]);
    }

    #[test]
    fn preload_and_icon_links() {
        let html = r#"<link rel="preload" href="/f.woff2" as="font">
                      <link rel="icon" href="/favicon.ico">"#;
        assert_eq!(
            hrefs(&extract_html_links(html)),
            vec!["/f.woff2", "/favicon.ico"]
        );
    }

    #[test]
    fn srcset_candidates() {
        let html = r#"<img srcset="/small.jpg 1x, /big.jpg 2x" src="/fallback.jpg">"#;
        let links = extract_html_links(html);
        assert_eq!(
            hrefs(&links),
            vec!["/fallback.jpg", "/small.jpg", "/big.jpg"]
        );
    }

    #[test]
    fn tag_and_attribute_names_are_case_insensitive() {
        let html = r#"<IMG SRC="/Upper.PNG"><Link REL="Stylesheet" HREF="/a.css">
                      <SCRIPT Src='/b.js'></SCRIPT><link Rel="ICON" hReF=/fav.ico>"#;
        let links = extract_html_links(html);
        assert_eq!(
            hrefs(&links),
            vec!["/Upper.PNG", "/a.css", "/b.js", "/fav.ico"]
        );
        assert_eq!(links[1].context, LinkContext::Stylesheet);
        assert_eq!(links[3].context, LinkContext::Preload);
    }

    #[test]
    fn comments_are_skipped() {
        let html = r#"<!-- <script src="/ghost.js"></script> -->
                      <script src="/real.js"></script>"#;
        assert_eq!(hrefs(&extract_html_links(html)), vec!["/real.js"]);
    }

    #[test]
    fn video_poster() {
        let html = r#"<video poster="/p.jpg" src="/v.mp4"></video>"#;
        // `src` on video isn't extracted (media streaming is outside the
        // page-load model) but poster is.
        assert_eq!(hrefs(&extract_html_links(html)), vec!["/p.jpg"]);
    }

    #[test]
    fn css_urls() {
        let css = r#"
            @import "base.css";
            @import url(theme.css);
            body { background: url("/bg.png"); }
            .icon { background-image: url('/i.svg'); }
            .raw { background: url(/raw.gif); }
            .data { background: url(data:image/png;base64,AAA); }
        "#;
        let links = extract_css_links(css);
        assert_eq!(
            hrefs(&links),
            vec!["base.css", "theme.css", "/bg.png", "/i.svg", "/raw.gif"]
        );
        assert_eq!(links[0].context, LinkContext::CssImport);
    }

    #[test]
    fn css_dedup() {
        let css = ".a{background:url(/x.png)} .b{background:url(/x.png)}";
        assert_eq!(hrefs(&extract_css_links(css)), vec!["/x.png"]);
    }

    #[test]
    fn js_fetches_are_not_statically_visible() {
        // The coverage gap the paper describes: references built inside
        // JS are invisible to markup extraction.
        let html = r#"<script src="/app.js"></script>"#;
        let links = extract_html_links(html);
        assert_eq!(hrefs(&links), vec!["/app.js"]);
        let js_body = r#"fetch("/api/data.json"); new Image().src = "/lazy.jpg";"#;
        // extract_html_links on JS content finds nothing.
        assert!(extract_html_links(js_body).is_empty());
    }

    #[test]
    fn links_dispatch_on_kind_and_are_read_once_per_body() {
        let page = Body::from(r#"<script src="/app.js"></script>"#);
        let found = links(ResourceKind::Html, &page).unwrap();
        assert!(matches!(found, Cow::Borrowed(_)));
        assert_eq!(found.hrefs(), ["/app.js"]);
        let sheet = Body::from(".a{background:url(/x.png)}");
        assert_eq!(
            links(ResourceKind::Css, &sheet).unwrap().hrefs(),
            ["/x.png"]
        );
        let script = Body::from(r#"loadResource("/lazy.jpg");"#);
        assert_eq!(
            links(ResourceKind::Js, &script).unwrap().hrefs(),
            ["/lazy.jpg"]
        );
        // The same bytes under another kind are read afresh.
        assert!(links(ResourceKind::Js, &page).unwrap().hrefs().is_empty());
        assert!(links(ResourceKind::Image, &page).is_none());
    }

    #[test]
    fn malformed_html_does_not_panic() {
        for bad in [
            "<",
            "<script src=",
            "<img src=\"unterminated",
            "<!-- unterminated",
            "<<<>>>",
            "<link rel=stylesheet href>",
        ] {
            let _ = extract_html_links(bad);
        }
        let _ = extract_css_links("url(");
        let _ = extract_css_links("@import ;");
    }
}
