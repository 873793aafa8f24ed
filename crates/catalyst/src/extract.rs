//! Server-side construction of the ETag map.
//!
//! When the origin serves a page, it "first inspects the file,
//! identifies the links to other resources within it, and then sends
//! the validation tokens for all those resources along with the
//! requested file" (§3). HTML is scanned for subresources; referenced
//! same-origin CSS is scanned transitively (CSS can pull in fonts,
//! images and further sheets). Resources reachable only through
//! JavaScript execution are *not* found — that coverage gap is the
//! paper's, reproduced faithfully, and closed by the session-capture
//! mode in [`crate::capture`].

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

/// Knobs for the extraction walk.
#[derive(Debug, Clone, Copy)]
pub struct ExtractOptions {
    /// Maximum CSS recursion depth (imports of imports …).
    pub max_depth: usize,
    /// Include cross-origin references by fetching their ETags via the
    /// provider (the paper's future-work extension). When false
    /// (default, matching the paper) they are skipped and counted.
    pub include_cross_origin: bool,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            max_depth: 4,
            include_cross_origin: false,
        }
    }
}

/// What the walk saw, for diagnostics and the coverage experiment (E7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// Same-origin resources whose tags were included.
    pub included: usize,
    /// Cross-origin references skipped.
    pub cross_origin_skipped: usize,
    /// Referenced paths the provider could not resolve.
    pub missing: usize,
    /// CSS files scanned transitively.
    pub css_scanned: usize,
}

/// Builds the `X-Etag-Config` map for a page.
///
/// * `base_path` — the page's path (used to resolve relative links).
/// * `html` — the page's current HTML body.
///
/// The page and every stylesheet are read through
/// [`cachecatalyst_webmodel::extract::links`], so each is scanned once
/// per [`Body`] allocation — by this walk or by whoever got there first.
pub fn build_config(
    provider: &dyn ResourceProvider,
    base_path: &str,
    html: &Body,
    opts: &ExtractOptions,
) -> (EtagConfig, ExtractStats) {
    let mut config = EtagConfig::new();
    let mut stats = ExtractStats::default();
    let mut visited = std::collections::HashSet::new();

    let page_links = links(ResourceKind::Html, html).expect("markup is a syntax");
    let mut queue: Vec<(String, usize)> =
        page_links.hrefs().iter().map(|h| (h.clone(), 0)).collect();

    while let Some((href, depth)) = queue.pop() {
        let Some(path) = resolve(base_path, &href, opts, &mut stats) else {
            continue;
        };
        if !visited.insert(path.clone()) {
            continue;
        }
        let Some(etag) = provider.etag(&path) else {
            stats.missing += 1;
            continue;
        };
        config.insert(&path, etag);
        stats.included += 1;

        // Recurse into same-origin stylesheets.
        if ResourceKind::from_path(&path) == ResourceKind::Css && depth < opts.max_depth {
            if let Some(body) = provider.body(&path) {
                stats.css_scanned += 1;
                let sheet_links = links(ResourceKind::Css, &body).expect("css is a syntax");
                for href in sheet_links.hrefs() {
                    queue.push((resolve_relative(&path, href), depth + 1));
                }
            }
        }
    }

    (config, stats)
}

/// Resolves an href found in the *base document* to a same-origin
/// path, or records why it was skipped.
fn resolve(
    base_path: &str,
    href: &str,
    opts: &ExtractOptions,
    stats: &mut ExtractStats,
) -> Option<String> {
    if href.starts_with("http://") || href.starts_with("https://") || href.starts_with("//") {
        if opts.include_cross_origin {
            // The future-work extension would fetch the third-party
            // resource itself; in this codebase the provider is handed
            // the full URL and may choose to resolve it.
            return Some(href.to_owned());
        }
        stats.cross_origin_skipped += 1;
        return None;
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
/// allocation; [`build_config_for_site`] renders afresh.
pub fn build_config_with_bodies(
    site: &cachecatalyst_webmodel::Site,
    page: &str,
    t_secs: i64,
    opts: &ExtractOptions,
    body_of: &dyn Fn(&str) -> Option<Body>,
) -> (EtagConfig, ExtractStats) {
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

/// [`build_config_with_bodies`] over freshly rendered bodies — the
/// convenience entry point used by the benchmarks.
pub fn build_config_for_site(
    site: &cachecatalyst_webmodel::Site,
    page: &str,
    t_secs: i64,
    opts: &ExtractOptions,
) -> (EtagConfig, ExtractStats) {
    build_config_with_bodies(site, page, t_secs, opts, &|path| {
        site.body_at(path, t_secs).map(Body::from)
    })
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

    #[test]
    fn finds_direct_links() {
        let provider = MapProvider::new(&[("/a.css", "css"), ("/b.js", "js")]);
        let html = r#"<link rel="stylesheet" href="/a.css"><script src="/b.js"></script>"#;
        let (config, stats) = build_config(
            &provider,
            "/index.html",
            &Body::from(html),
            &ExtractOptions::default(),
        );
        assert_eq!(config.len(), 2);
        assert_eq!(stats.included, 2);
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
        let (config, stats) = build_config(
            &provider,
            "/index.html",
            &Body::from(html),
            &ExtractOptions::default(),
        );
        assert_eq!(config.len(), 3, "{config}");
        assert!(config.get("/deep.css").is_some());
        assert!(config.get("/img.png").is_some());
        assert_eq!(stats.css_scanned, 2);
    }

    #[test]
    fn css_depth_limit() {
        // a → b → c → d with max_depth 2 stops after c.
        let provider = MapProvider::new(&[
            ("/a.css", "@import \"b.css\";"),
            ("/b.css", "@import \"c.css\";"),
            ("/c.css", "@import \"d.css\";"),
            ("/d.css", ""),
        ]);
        let html = r#"<link rel="stylesheet" href="/a.css">"#;
        let opts = ExtractOptions {
            max_depth: 2,
            ..Default::default()
        };
        let (config, _) = build_config(&provider, "/index.html", &Body::from(html), &opts);
        assert!(config.get("/c.css").is_some());
        assert!(config.get("/d.css").is_none());
    }

    #[test]
    fn cross_origin_skipped_by_default() {
        let provider = MapProvider::new(&[("/local.js", "x")]);
        let html = r#"<script src="http://cdn.other.com/lib.js"></script>
                      <script src="/local.js"></script>"#;
        let (config, stats) = build_config(
            &provider,
            "/index.html",
            &Body::from(html),
            &ExtractOptions::default(),
        );
        assert_eq!(config.len(), 1);
        assert_eq!(stats.cross_origin_skipped, 1);
    }

    #[test]
    fn missing_resources_are_counted() {
        let provider = MapProvider::new(&[]);
        let html = r#"<script src="/gone.js"></script>"#;
        let (config, stats) = build_config(
            &provider,
            "/index.html",
            &Body::from(html),
            &ExtractOptions::default(),
        );
        assert!(config.is_empty());
        assert_eq!(stats.missing, 1);
    }

    #[test]
    fn relative_links_resolve_against_directories() {
        let provider = MapProvider::new(&[
            ("/pages/style.css", "body{background:url(img/bg.png)}"),
            ("/pages/img/bg.png", "png"),
        ]);
        let html = r#"<link rel="stylesheet" href="style.css">"#;
        let (config, _) = build_config(
            &provider,
            "/pages/about.html",
            &Body::from(html),
            &ExtractOptions::default(),
        );
        assert!(config.get("/pages/style.css").is_some());
        assert!(config.get("/pages/img/bg.png").is_some(), "{config}");
    }

    #[test]
    fn site_convenience_covers_static_tree_only() {
        let site = cachecatalyst_webmodel::example_site();
        let (config, _) =
            build_config_for_site(&site, "/index.html", 0, &ExtractOptions::default());
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
        let html = r#"<img src="/x.png"><img src="/x.png">"#;
        let (config, stats) = build_config(
            &provider,
            "/i.html",
            &Body::from(html),
            &ExtractOptions::default(),
        );
        assert_eq!(config.len(), 1);
        assert_eq!(stats.included, 1);
    }
}
