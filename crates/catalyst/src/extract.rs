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

use cachecatalyst_httpwire::{Body, EntityTag, Url};
use cachecatalyst_webmodel::extract::discover;
use cachecatalyst_webmodel::ResourceKind;

use crate::config::EtagConfig;

/// Read access to the origin's resources.
pub trait ResourceProvider {
    /// Current body of the resource at `url`. Handing out the
    /// allocation the provider already holds lets the walk read links
    /// someone has extracted before.
    fn body(&self, url: &Url) -> Option<Body>;
    /// Current entity tag of the resource at `url`.
    fn etag(&self, url: &Url) -> Option<EntityTag>;
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

/// Builds the `X-Etag-Config` map for the page at `page` whose
/// current HTML body is `html`.
///
/// The page and every stylesheet are read through
/// [`cachecatalyst_webmodel::extract::discover`], the browser's own
/// way from a body to the URLs it fetches, so each is scanned and
/// resolved once per [`Body`] allocation — by this walk or by whoever
/// got there first. A URL on the page's origin is keyed by its path,
/// any other by the whole URL (and only with the cross-origin
/// extension on). References the provider cannot answer are left out.
pub fn build_config(
    provider: &dyn ResourceProvider,
    page: &Url,
    html: &Body,
    opts: &ExtractOptions,
) -> EtagConfig {
    let mut config = EtagConfig::new();
    let mut visited = std::collections::HashSet::new();
    let mut queue: Vec<(Url, usize)> = discover(page, ResourceKind::Html, html)
        .into_iter()
        .map(|url| (url, 0))
        .collect();

    while let Some((url, depth)) = queue.pop() {
        let same_origin = url.same_origin(page);
        if !same_origin && !opts.include_cross_origin {
            continue;
        }
        if !visited.insert(url.clone()) {
            continue;
        }
        let Some(etag) = provider.etag(&url) else {
            continue;
        };
        if same_origin {
            config.insert(url.path(), etag);
        } else {
            config.insert(url.to_string(), etag);
        }

        // Recurse into stylesheets.
        if ResourceKind::from_path(url.path()) == ResourceKind::Css && depth < MAX_CSS_DEPTH {
            if let Some(body) = provider.body(&url) {
                let sheet_urls = discover(&url, ResourceKind::Css, &body);
                queue.extend(sheet_urls.into_iter().map(|child| (child, depth + 1)));
            }
        }
    }

    config
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
        cdn: String,
    }
    impl SiteProvider<'_> {
        /// The model serves every path on its own host and on its CDN
        /// host (which only the cross-origin extension asks about).
        fn serves(&self, url: &Url) -> bool {
            url.host() == self.site.spec.host || url.host() == self.cdn
        }
    }
    impl ResourceProvider for SiteProvider<'_> {
        fn body(&self, url: &Url) -> Option<Body> {
            self.serves(url).then(|| (self.body_of)(url.path()))?
        }
        fn etag(&self, url: &Url) -> Option<EntityTag> {
            self.serves(url)
                .then(|| self.site.etag_at(url.path(), self.t))?
        }
    }
    let provider = SiteProvider {
        site,
        t: t_secs,
        body_of,
        cdn: site.third_party_host(),
    };
    let html = body_of(page).unwrap_or_default();
    build_config(&provider, &site.url(page), &html, opts)
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

    /// Answers by path on any host.
    impl ResourceProvider for MapProvider {
        fn body(&self, url: &Url) -> Option<Body> {
            self.bodies.get(url.path()).cloned()
        }
        fn etag(&self, url: &Url) -> Option<EntityTag> {
            self.bodies
                .get(url.path())
                .map(|b| EntityTag::from_content(b))
        }
    }

    fn page_url(page: &str) -> Url {
        Url::parse(&format!("http://example.org{page}")).unwrap()
    }

    fn walk(provider: &MapProvider, page: &str, html: &str) -> EtagConfig {
        build_config(
            provider,
            &page_url(page),
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

    #[test]
    fn the_map_covers_what_the_browser_fetches_from_the_origin() {
        // Five common ways of naming a same-origin resource, one
        // third-party script, and a sheet reaching up a directory.
        let page = page_url("/pages/index.html");
        let html = Body::from(
            r#"<link rel="stylesheet" href="/a.css?v=3">
               <script src="http://example.org/b.js"></script>
               <img src="//example.org/c.png"><img src="img/d.png">
               <img src="http-img/x.png"><img src="data:image/png;base64,iVBORw0KGgo=">
               <script src="http://cdn.other/lib.js"></script>"#,
        );
        let sheet =
            "body{background:url(../img/bg.png)} i{background:url(data:image/png;base64,AA==)}";
        let provider = MapProvider::new(&[
            ("/a.css", sheet),
            ("/b.js", "js"),
            ("/c.png", "c"),
            ("/pages/img/d.png", "d"),
            ("/pages/http-img/x.png", "x"),
            ("/img/bg.png", "bg"),
            ("/lib.js", "lib"),
        ]);
        let config = build_config(&provider, &page, &html, &ExtractOptions::default());

        // What the browser fetches: the page's URLs, then the sheet's.
        let sheet_url = page.join("/a.css?v=3").unwrap();
        let fetched: Vec<Url> = discover(&page, ResourceKind::Html, &html)
            .into_iter()
            .chain(discover(&sheet_url, ResourceKind::Css, &Body::from(sheet)))
            .collect();
        let mut same_origin: Vec<&str> = fetched
            .iter()
            .filter(|u| u.same_origin(&page))
            .map(|u| u.path())
            .collect();
        same_origin.sort_unstable();
        let mut mapped: Vec<&str> = config.iter().map(|(path, _)| path).collect();
        mapped.sort_unstable();
        assert_eq!(mapped, same_origin);
        assert_eq!(
            mapped,
            [
                "/a.css",
                "/b.js",
                "/c.png",
                "/img/bg.png",
                "/pages/http-img/x.png",
                "/pages/img/d.png"
            ]
        );
        assert_eq!(config.get("/b.js"), Some(&EntityTag::from_content(b"js")));

        // The extension keys the third-party script by its URL.
        let opts = ExtractOptions {
            include_cross_origin: true,
        };
        let extended = build_config(&provider, &page, &html, &opts);
        assert_eq!(extended.len(), config.len() + 1);
        assert!(extended.get("http://cdn.other/lib.js").is_some());
    }
}
