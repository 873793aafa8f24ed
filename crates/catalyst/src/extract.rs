//! Server-side construction of the ETag map.
//!
//! When the origin serves a page, it "first inspects the file,
//! identifies the links to other resources within it, and then sends
//! the validation tokens for all those resources along with the
//! requested file" (§3). HTML is scanned for subresources; referenced
//! same-origin CSS is scanned transitively (CSS can pull in fonts,
//! images and further sheets). Resources reachable only through
//! JavaScript execution are *not* found — that coverage gap is the
//! paper's, reproduced faithfully, and closed by the map the origin
//! learns from visits, [`crate::aggregate`].

use cachecatalyst_httpwire::{Body, EntityTag};
use cachecatalyst_webmodel::extract::links;
use cachecatalyst_webmodel::ResourceKind;

use crate::config::EtagConfig;

/// Read access to the origin's same-origin resources.
pub trait ResourceProvider {
    /// Current body of the resource at `path`. Handing out the
    /// allocation the provider already holds lets the walk read links
    /// someone has extracted before.
    fn body(&self, path: &str) -> Option<Body>;
    /// Current entity tag of the resource at `path`.
    fn etag(&self, path: &str) -> Option<EntityTag>;
}

/// How deep the walk follows stylesheets into stylesheets (imports of
/// imports …).
const MAX_CSS_DEPTH: usize = 4;

/// Knobs for the extraction walk.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtractOptions {
    /// Include cross-origin references by fetching their ETags via the
    /// provider (the paper's future-work extension). When false
    /// (default, matching the paper) they are skipped.
    pub include_cross_origin: bool,
}

/// Builds the `X-Etag-Config` map for a page.
///
/// * `base_path` — the page's path (used to resolve relative links).
/// * `html` — the page's current HTML body.
///
/// The page and every stylesheet are read through
/// [`cachecatalyst_webmodel::extract::links`], so each is scanned once
/// per [`Body`] allocation — by this walk or by whoever got there first.
/// References the provider cannot resolve are left out.
pub fn build_config(
    provider: &dyn ResourceProvider,
    base_path: &str,
    html: &Body,
    opts: &ExtractOptions,
) -> EtagConfig {
    let mut config = EtagConfig::new();
    let mut visited = std::collections::HashSet::new();

    let page_links = links(ResourceKind::Html, html).expect("markup is a syntax");
    let mut queue: Vec<(String, usize)> =
        page_links.hrefs().iter().map(|h| (h.clone(), 0)).collect();

    while let Some((href, depth)) = queue.pop() {
        let Some(path) = resolve(base_path, &href, opts) else {
            continue;
        };
        if !visited.insert(path.clone()) {
            continue;
        }
        let Some(etag) = provider.etag(&path) else {
            continue;
        };
        config.insert(&path, etag);

        // Recurse into same-origin stylesheets.
        if ResourceKind::from_path(&path) == ResourceKind::Css && depth < MAX_CSS_DEPTH {
            if let Some(body) = provider.body(&path) {
                let sheet_links = links(ResourceKind::Css, &body).expect("css is a syntax");
                for href in sheet_links.hrefs() {
                    queue.push((resolve_relative(&path, href), depth + 1));
                }
            }
        }
    }

    config
}

/// Resolves an href found in the *base document* to a path to map,
/// or `None` for a cross-origin reference the options skip.
fn resolve(base_path: &str, href: &str, opts: &ExtractOptions) -> Option<String> {
    if href.starts_with("http://") || href.starts_with("https://") || href.starts_with("//") {
        // The future-work extension would fetch the third-party
        // resource itself; in this codebase the provider is handed the
        // full URL and may choose to resolve it.
        return opts.include_cross_origin.then(|| href.to_owned());
    }
    Some(resolve_relative(base_path, href))
}

/// Resolves `href` against the directory of `context_path`.
fn resolve_relative(context_path: &str, href: &str) -> String {
    if href.starts_with('/') || href.starts_with("http") {
        return href.to_owned();
    }
    let dir = match context_path.rfind('/') {
        Some(i) => &context_path[..=i],
        None => "/",
    };
    format!("{dir}{href}")
}

/// Builds the config for a page of a generated
/// [`cachecatalyst_webmodel::Site`] at virtual time `t_secs`, reading
/// bodies through `body_of` (a rooted path → its current body). The
/// origin server passes its epoch cache, so the page and its
/// stylesheets are rendered once per epoch and scanned once per
/// allocation; a caller without one passes `Site::body_at`.
pub fn build_config_with_bodies(
    site: &cachecatalyst_webmodel::Site,
    page: &str,
    t_secs: i64,
    opts: &ExtractOptions,
    body_of: &dyn Fn(&str) -> Option<Body>,
) -> EtagConfig {
    struct SiteProvider<'a> {
        site: &'a cachecatalyst_webmodel::Site,
        t: i64,
        body_of: &'a dyn Fn(&str) -> Option<Body>,
    }
    impl SiteProvider<'_> {
        /// Cross-origin references arrive as absolute URLs; the
        /// extension fetches them from the third party — here, the
        /// site model answers for its own CDN host.
        fn local_path<'p>(&self, path: &'p str) -> Option<&'p str> {
            if let Some(rest) = path.strip_prefix("http://") {
                let (host, _) = rest.split_once('/')?;
                if host != self.site.third_party_host() {
                    return None;
                }
                // Keep the leading slash: stored paths are rooted.
                return Some(&rest[host.len()..]);
            }
            Some(path)
        }
    }
    impl ResourceProvider for SiteProvider<'_> {
        fn body(&self, path: &str) -> Option<Body> {
            (self.body_of)(self.local_path(path)?)
        }
        fn etag(&self, path: &str) -> Option<EntityTag> {
            self.site.etag_at(self.local_path(path)?, self.t)
        }
    }
    let provider = SiteProvider {
        site,
        t: t_secs,
        body_of,
    };
    let html = body_of(page).unwrap_or_default();
    build_config(&provider, page, &html, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct MapProvider {
        bodies: HashMap<String, Body>,
    }

    impl MapProvider {
        fn new(entries: &[(&str, &str)]) -> MapProvider {
            MapProvider {
                bodies: entries
                    .iter()
                    .map(|(p, b)| (p.to_string(), Body::from(b.to_string())))
                    .collect(),
            }
        }
    }

    impl ResourceProvider for MapProvider {
        fn body(&self, path: &str) -> Option<Body> {
            self.bodies.get(path).cloned()
        }
        fn etag(&self, path: &str) -> Option<EntityTag> {
            self.bodies.get(path).map(|b| EntityTag::from_content(b))
        }
    }

    fn walk(provider: &MapProvider, page: &str, html: &str) -> EtagConfig {
        build_config(
            provider,
            page,
            &Body::from(html.to_owned()),
            &ExtractOptions::default(),
        )
    }

    #[test]
    fn finds_direct_links() {
        let provider = MapProvider::new(&[("/a.css", "css"), ("/b.js", "js")]);
        let html = r#"<link rel="stylesheet" href="/a.css"><script src="/b.js"></script>"#;
        let config = walk(&provider, "/index.html", html);
        assert_eq!(config.len(), 2);
        assert_eq!(
            config.get("/a.css").unwrap(),
            &EntityTag::from_content(b"css")
        );
    }

    #[test]
    fn recurses_into_css() {
        let provider = MapProvider::new(&[
            (
                "/a.css",
                r#"@import "deep.css"; .x{background:url(/img.png)}"#,
            ),
            ("/deep.css", ".y{}"),
            ("/img.png", "png"),
        ]);
        let html = r#"<link rel="stylesheet" href="/a.css">"#;
        let config = walk(&provider, "/index.html", html);
        assert_eq!(config.len(), 3, "{config}");
        assert!(config.get("/deep.css").is_some());
        assert!(config.get("/img.png").is_some());
    }

    #[test]
    fn css_depth_limit() {
        // s0 → s1 → … → s6: the walk scans sheets down to depth
        // MAX_CSS_DEPTH, so it maps s4 (found in s3) and not s5.
        let sheets: Vec<(String, String)> = (0..=6)
            .map(|i| (format!("/s{i}.css"), format!("@import \"s{}.css\";", i + 1)))
            .collect();
        let entries: Vec<(&str, &str)> = sheets
            .iter()
            .map(|(p, b)| (p.as_str(), b.as_str()))
            .collect();
        let provider = MapProvider::new(&entries);
        let config = walk(
            &provider,
            "/index.html",
            r#"<link rel="stylesheet" href="/s0.css">"#,
        );
        assert_eq!(MAX_CSS_DEPTH, 4);
        assert!(config.get("/s4.css").is_some(), "{config}");
        assert!(config.get("/s5.css").is_none(), "{config}");
    }

    #[test]
    fn cross_origin_skipped_by_default() {
        let provider = MapProvider::new(&[("/local.js", "x")]);
        let html = r#"<script src="http://cdn.other.com/lib.js"></script>
                      <script src="/local.js"></script>"#;
        let config = walk(&provider, "/index.html", html);
        assert_eq!(config.len(), 1);
        assert!(config.get("/local.js").is_some());
    }

    #[test]
    fn missing_resources_are_left_out() {
        let provider = MapProvider::new(&[]);
        let config = walk(
            &provider,
            "/index.html",
            r#"<script src="/gone.js"></script>"#,
        );
        assert!(config.is_empty());
    }

    #[test]
    fn relative_links_resolve_against_directories() {
        let provider = MapProvider::new(&[
            ("/pages/style.css", "body{background:url(img/bg.png)}"),
            ("/pages/img/bg.png", "png"),
        ]);
        let html = r#"<link rel="stylesheet" href="style.css">"#;
        let config = walk(&provider, "/pages/about.html", html);
        assert!(config.get("/pages/style.css").is_some());
        assert!(config.get("/pages/img/bg.png").is_some(), "{config}");
    }

    #[test]
    fn site_walk_covers_static_tree_only() {
        let site = cachecatalyst_webmodel::example_site();
        let config =
            build_config_with_bodies(&site, "/index.html", 0, &ExtractOptions::default(), &|p| {
                site.body_at(p, 0).map(Body::from)
            });
        // Static children a.css and b.js are covered; JS-discovered
        // c.js / d.jpg are not (the paper's coverage gap).
        assert!(config.get("/a.css").is_some());
        assert!(config.get("/b.js").is_some());
        assert!(config.get("/c.js").is_none());
        assert!(config.get("/d.jpg").is_none());
        // The tags match the site's current state.
        assert_eq!(
            config.get("/a.css").unwrap(),
            &site.etag_at("/a.css", 0).unwrap()
        );
    }

    #[test]
    fn duplicate_references_counted_once() {
        let provider = MapProvider::new(&[("/x.png", "p")]);
        let config = walk(
            &provider,
            "/i.html",
            r#"<img src="/x.png"><img src="/x.png">"#,
        );
        assert_eq!(config.len(), 1);
    }
}
