//! Property-based tests for the workload model: extractor robustness
//! (never panic, never miss generated links), change-model laws, and
//! generator invariants across random specs.

use std::time::Duration;

use cachecatalyst_webmodel::content::render_body;
use cachecatalyst_webmodel::jsdialect;
use cachecatalyst_webmodel::resource::{ChangeModel, Discovery, ResourceKind, ResourceSpec};
use cachecatalyst_webmodel::{
    extract_css_links, extract_html_links, DeveloperPolicyParams, Site, SiteSpec,
};
use proptest::prelude::*;

/// The renderer and the page scanner as they were before they wrote
/// into one exact-size buffer and searched for `<` with `find`: the
/// essential text assembled with `format!`, padded a filler slice at a
/// time, binary bodies drawn 8 bytes at a time and cut back, and tags
/// found by stepping one byte at a time. The rewrites must produce
/// exactly what these do.
mod reference {
    use cachecatalyst_webmodel::resource::{ResourceKind, ResourceSpec};
    use cachecatalyst_webmodel::stats::derive_seed;
    use cachecatalyst_webmodel::{ExtractedLink, LinkContext};

    pub const FILLER: &[u8] =
        b"/* lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod */\n";

    pub fn render_body(
        host: &str,
        spec: &ResourceSpec,
        version: u64,
        url_of: &dyn Fn(&str) -> String,
    ) -> Vec<u8> {
        if !spec.kind.is_textual() {
            return binary_body(host, spec, version);
        }
        let mut out = essential(host, spec, version, url_of).into_bytes();
        while out.len() < spec.size as usize {
            let take = FILLER.len().min(spec.size as usize - out.len());
            out.extend_from_slice(&FILLER[..take]);
        }
        out
    }

    /// The markup a text body starts with, before padding.
    pub fn essential(
        host: &str,
        spec: &ResourceSpec,
        version: u64,
        url_of: &dyn Fn(&str) -> String,
    ) -> String {
        let path = &spec.path;
        match spec.kind {
            ResourceKind::Html => {
                let (mut head, mut body) = (String::new(), String::new());
                for child in &spec.static_children {
                    let url = url_of(child);
                    match ResourceKind::from_path(child) {
                        ResourceKind::Css => {
                            head.push_str(&format!("<link rel=\"stylesheet\" href=\"{url}\">\n"))
                        }
                        ResourceKind::Js => {
                            head.push_str(&format!("<script src=\"{url}\"></script>\n"))
                        }
                        ResourceKind::Image => {
                            body.push_str(&format!("<img src=\"{url}\" alt=\"\">\n"))
                        }
                        ResourceKind::Font => head.push_str(&format!(
                            "<link rel=\"preload\" href=\"{url}\" as=\"font\">\n"
                        )),
                        _ => head.push_str(&format!(
                            "<link rel=\"preload\" href=\"{url}\" as=\"fetch\">\n"
                        )),
                    }
                }
                format!(
                    "<!DOCTYPE html>\n<!-- {host}{path} v{version} -->\n<html><head>\n<title>{host}</title>\n{head}</head>\n<body>\n{body}"
                )
            }
            ResourceKind::Css => {
                let mut rules = String::new();
                for (i, child) in spec.static_children.iter().enumerate() {
                    let url = url_of(child);
                    rules.push_str(&match ResourceKind::from_path(child) {
                        ResourceKind::Css => format!("@import url({url});\n"),
                        ResourceKind::Font => {
                            format!("@font-face {{ font-family: f{i}; src: url(\"{url}\"); }}\n")
                        }
                        _ => format!(".bg{i} {{ background-image: url(\"{url}\"); }}\n"),
                    });
                }
                format!("/* {host}{path} v{version} */\n{rules}")
            }
            ResourceKind::Js => {
                let mut code = String::new();
                for (i, child) in spec.dynamic_children.iter().enumerate() {
                    let url = url_of(child);
                    let (a, b) = url.split_at(url.len() / 2);
                    code.push_str(&format!(
                        "const u{i} = {a:?} + {b:?};\nloadResource(u{i});\n"
                    ));
                }
                format!("/* {host}{path} v{version} */\n\"use strict\";\n{code}")
            }
            _ => String::new(),
        }
    }

    /// The header a binary body starts with.
    pub fn binary_header(host: &str, spec: &ResourceSpec, version: u64) -> String {
        format!("BIN:{host}{}:v{version}\n", spec.path)
    }

    fn binary_body(host: &str, spec: &ResourceSpec, version: u64) -> Vec<u8> {
        let size = spec.size as usize;
        let header = binary_header(host, spec, version);
        let mut out = header.clone().into_bytes();
        let mut x = derive_seed(version, &format!("{host}{}", spec.path)) | 1;
        while out.len() < size {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.truncate(size.max(header.len()));
        out
    }

    pub fn extract_html_links(html: &str) -> Vec<ExtractedLink> {
        let mut out = Vec::new();
        let bytes = html.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] != b'<' {
                i += 1;
                continue;
            }
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
            let (name, attrs) = split_tag(&html[i + 1..tag_end]);
            let is = |element: &str| name.eq_ignore_ascii_case(element);
            let mut push = |href: &str, context| {
                out.push(ExtractedLink {
                    href: href.to_owned(),
                    context,
                })
            };
            if is("link") {
                let rel = get_attr(attrs, "rel").unwrap_or_default();
                let rel_has =
                    |word: &str| rel.split_whitespace().any(|r| r.eq_ignore_ascii_case(word));
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

    fn split_tag(tag: &str) -> (&str, &str) {
        let tag = tag.trim_end_matches('/').trim();
        match tag.find(char::is_whitespace) {
            Some(i) => (&tag[..i], &tag[i + 1..]),
            None => (tag, ""),
        }
    }

    fn get_attr<'a>(attrs: &'a str, name: &str) -> Option<&'a str> {
        let bytes = attrs.as_bytes();
        let mut from = 0;
        while let Some(rel) = bytes[from..]
            .windows(name.len())
            .position(|w| w.eq_ignore_ascii_case(name.as_bytes()))
        {
            let at = from + rel;
            let before_ok =
                at == 0 || !bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'-';
            let after_trim = attrs[at + name.len()..].trim_start();
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
}

/// A spec of `kind` with one child of each other kind (the page's
/// children are rooted, one is third-party), so every markup branch
/// is written.
fn spec_with_children(kind: ResourceKind, size: u64) -> ResourceSpec {
    let mut spec = ResourceSpec::leaf(
        &format!("/r/body.{}", kind.extension()),
        kind,
        size,
        Discovery::Base,
        ChangeModel::Immutable,
    );
    let children: Vec<String> = ResourceKind::all()
        .iter()
        .filter(|k| **k != ResourceKind::Html)
        .enumerate()
        .map(|(i, k)| format!("/c/{i}.{}", k.extension()))
        .collect();
    match kind {
        ResourceKind::Js => spec.dynamic_children = children,
        _ => spec.static_children = children,
    }
    spec
}

fn link_text(child: &str) -> String {
    if child.starts_with("/c/0") {
        format!("http://cdn.h.example{child}")
    } else {
        child.to_owned()
    }
}

/// Every kind at every size from empty to two filler lengths (text) or
/// three draws (binary) past where its fixed part ends: so every
/// residue of `size − header` mod 8, every residue mod the filler
/// length, and every size below the header or markup.
#[test]
fn render_body_equals_the_reference_at_every_residue() {
    for kind in ResourceKind::all() {
        for version in [0, 7, 1 << 40] {
            let spec = spec_with_children(kind, 0);
            let fixed = if kind.is_textual() {
                reference::essential("h.example", &spec, version, &link_text).len()
                    + 2 * reference::FILLER.len()
            } else {
                reference::binary_header("h.example", &spec, version).len() + 3 * 8
            };
            for size in 0..=fixed as u64 {
                let spec = spec_with_children(kind, size);
                let body = render_body("h.example", &spec, version, &link_text);
                assert_eq!(
                    &body[..],
                    &reference::render_body("h.example", &spec, version, &link_text)[..],
                    "{kind:?} v{version} at {size} bytes"
                );
            }
        }
    }
}

/// Generated pages, the old scanner's own test markup and truncated
/// input: the same links in the same order, every time.
#[test]
fn extract_html_links_equals_the_reference_on_pages_and_malformed_input() {
    let page = render_body(
        "h.example",
        &spec_with_children(ResourceKind::Html, 6_000),
        3,
        &link_text,
    );
    let page = std::str::from_utf8(&page).unwrap();
    let mut inputs: Vec<String> = vec![
        page.to_owned(),
        r#"<IMG SRC="/Upper.PNG"><Link REL="Stylesheet" HREF="/a.css"><video poster=/p.jpg>"#
            .to_owned(),
        r#"<img srcset="/small.jpg 1x, /big.jpg 2x" src="/fallback.jpg"><source src=/s.mp4>"#
            .to_owned(),
        r#"<!-- <script src="/ghost.js"></script> --><script src="/real.js"></script>"#.to_owned(),
    ];
    for bad in [
        "<",
        "text <",
        "<!--",
        "<!-- unterminated <script src=/x.js>",
        "<script src=",
        "<img src=\"/unterminated",
        "<<<>>>",
        "<link rel=stylesheet href>",
        "<!---->",
        "<>",
    ] {
        inputs.push(bad.to_owned());
    }
    // Every prefix of a page, so each tag and comment is also cut off
    // at every byte.
    let head = &page[..page.find("<body>").unwrap() + 6];
    inputs.extend((0..=head.len()).map(|n| head[..n].to_owned()));
    for input in &inputs {
        assert_eq!(
            extract_html_links(input),
            reference::extract_html_links(input),
            "{input:?}"
        );
    }
}

proptest! {
    /// The extractors must never panic on arbitrary input, printable
    /// or not, and the page scanner finds what the byte-at-a-time one
    /// did.
    #[test]
    fn extractors_never_panic(input in any::<String>()) {
        prop_assert_eq!(extract_html_links(&input), reference::extract_html_links(&input));
        let _ = extract_css_links(&input);
        let _ = jsdialect::evaluate(&input);
    }

    /// Markup-shaped input — tags, comments and attributes in any
    /// order, cut off anywhere — scans as the byte-at-a-time scanner
    /// scanned it.
    #[test]
    fn markup_scans_as_the_reference_scanned_it(
        input in "(<|>|<!--|-->|<img src=/i.png|<link rel=stylesheet href=\"/a.css\"|<script src='/s.js'|<video poster=p|x| |=|\"){0,40}",
    ) {
        prop_assert_eq!(extract_html_links(&input), reference::extract_html_links(&input));
    }

    /// Random sizes and versions of every kind render as the reference
    /// rendered them.
    #[test]
    fn render_body_equals_the_reference(
        kind in 0usize..7,
        size in 0u64..40_000,
        version in any::<u64>(),
    ) {
        let spec = spec_with_children(ResourceKind::all()[kind], size);
        let body = render_body("h.example", &spec, version, &link_text);
        prop_assert_eq!(&body[..], &reference::render_body("h.example", &spec, version, &link_text)[..]);
    }

    /// Generated HTML always parses back to exactly its static
    /// children, whatever the child mix.
    #[test]
    fn generated_html_roundtrips(
        n_css in 0usize..5,
        n_js in 0usize..5,
        n_img in 0usize..8,
        size in 500u64..20_000,
    ) {
        let mut children = Vec::new();
        for i in 0..n_css { children.push(format!("/c{i}.css")); }
        for i in 0..n_js { children.push(format!("/j{i}.js")); }
        for i in 0..n_img { children.push(format!("/p{i}.jpg")); }
        let mut spec = ResourceSpec::leaf(
            "/index.html", ResourceKind::Html, size, Discovery::Base, ChangeModel::Immutable,
        );
        spec.static_children = children.clone();
        let body = render_body("h.example", &spec, 0, &|p| p.to_owned());
        let text = std::str::from_utf8(&body).unwrap();
        let found: Vec<String> = extract_html_links(text).into_iter().map(|l| l.href).collect();
        let mut found_sorted = found.clone();
        found_sorted.sort();
        let mut expect = children;
        expect.sort();
        prop_assert_eq!(found_sorted, expect);
    }

    /// Generated JS always evaluates back to exactly its dynamic
    /// children, and never leaks them to the markup extractors.
    #[test]
    fn generated_js_roundtrips(n in 0usize..8, size in 300u64..10_000) {
        let children: Vec<String> = (0..n).map(|i| format!("/assets/dyn-{i}.js")).collect();
        let mut spec = ResourceSpec::leaf(
            "/app.js", ResourceKind::Js, size, Discovery::Base, ChangeModel::Immutable,
        );
        spec.dynamic_children = children.clone();
        let body = render_body("h.example", &spec, 0, &|p| p.to_owned());
        let text = std::str::from_utf8(&body).unwrap();
        prop_assert_eq!(jsdialect::evaluate(text), children);
        prop_assert!(extract_html_links(text).is_empty());
        prop_assert!(extract_css_links(text).is_empty());
    }

    /// Change-model laws: versions are monotone in time, constant
    /// within a period, and `changes_within` agrees with `version_at`.
    #[test]
    fn change_model_laws(
        period in 300u64..10_000_000,
        phase_frac in 0.0f64..1.0,
        t in 0i64..100_000_000,
        dt in 0u64..10_000_000,
    ) {
        let phase = Duration::from_secs((period as f64 * phase_frac) as u64);
        let m = ChangeModel::Periodic { period: Duration::from_secs(period), phase };
        let v0 = m.version_at(t);
        let v1 = m.version_at(t + dt as i64);
        prop_assert!(v1 >= v0, "versions must be monotone");
        prop_assert_eq!(
            m.changes_within(t, Duration::from_secs(dt)),
            v0 != v1
        );
        // Within one period starting at a boundary the version is constant.
        let boundary = (v0 as i64 + 1) * period as i64 - phase.as_secs() as i64;
        if boundary > t {
            prop_assert_eq!(m.version_at(boundary - 1), v0);
        }
    }

    /// `last_change_at(t)` is the start of the version `t` sees: no
    /// later than `t`, the same version as `t`, and — unless it is the
    /// beginning of time — a different one a second earlier.
    #[test]
    fn last_change_at_starts_the_version_t_sees(
        period in 1u64..10_000_000,
        phase_frac in 0.0f64..1.0,
        t in 0i64..100_000_000,
    ) {
        let phase = Duration::from_secs((period as f64 * phase_frac) as u64);
        let m = ChangeModel::Periodic { period: Duration::from_secs(period), phase };
        let lc = m.last_change_at(t);
        prop_assert!(lc <= t);
        prop_assert_eq!(m.version_at(lc), m.version_at(t));
        if lc > 0 {
            prop_assert_ne!(m.version_at(lc - 1), m.version_at(t));
        }
    }

    /// Site generation holds its structural invariants for arbitrary
    /// small specs: reachability, parent consistency, positive sizes.
    #[test]
    fn generated_sites_are_wellformed(
        seed in 0u64..1_000,
        n in 1usize..40,
        js_frac in 0.0f64..0.5,
        tp_frac in 0.0f64..0.5,
        n_pages in 1usize..4,
    ) {
        let site = Site::generate(SiteSpec {
            host: format!("prop{seed}.example"),
            seed,
            n_resources: n,
            js_discovered_fraction: js_frac,
            third_party_fraction: tp_frac,
            n_pages,
            fingerprinted_fraction: 0.0,
            policy: DeveloperPolicyParams::default(),
        });
        prop_assert_eq!(site.len(), n + n_pages);
        prop_assert_eq!(site.pages().len(), n_pages);
        // Reachability from the page documents.
        let mut reachable = std::collections::HashSet::new();
        let mut stack = site.pages();
        while let Some(p) = stack.pop() {
            if !reachable.insert(p.clone()) { continue; }
            let r = site.get(&p).unwrap();
            prop_assert!(r.spec.size > 0);
            stack.extend(r.spec.static_children.iter().cloned());
            stack.extend(r.spec.dynamic_children.iter().cloned());
        }
        prop_assert_eq!(reachable.len(), site.len(), "orphaned resources");
        // Parent consistency.
        for r in site.resources() {
            match &r.spec.discovery {
                Discovery::Base => prop_assert!(site.pages().contains(&r.spec.path)),
                Discovery::Static { parent } => {
                    prop_assert!(site.get(parent).unwrap().spec.static_children.contains(&r.spec.path));
                }
                Discovery::JsExecution { parent } => {
                    let p = site.get(parent).unwrap();
                    prop_assert_eq!(p.spec.kind, ResourceKind::Js);
                    prop_assert!(p.spec.dynamic_children.contains(&r.spec.path));
                }
            }
        }
    }

    /// ETags are a pure function of (path, version): same version ⇒
    /// same tag, different version ⇒ different tag.
    #[test]
    fn etags_track_versions(seed in 0u64..500, t1 in 0i64..50_000_000, t2 in 0i64..50_000_000) {
        let site = Site::generate(SiteSpec {
            host: "etag.example".into(),
            seed,
            n_resources: 10,
            ..Default::default()
        });
        for r in site.resources() {
            let p = &r.spec.path;
            let same_version = site.version_at(p, t1) == site.version_at(p, t2);
            let same_etag = site.etag_at(p, t1) == site.etag_at(p, t2);
            prop_assert_eq!(same_version, same_etag, "{}", p);
        }
    }
}
