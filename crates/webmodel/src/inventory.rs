//! Building a [`Site`] from a plain-text inventory.
//!
//! Lets a user model *their own* site instead of a synthetic one: list
//! the resources, how they change, and the cache headers currently
//! assigned, then measure what CacheCatalyst would do for it. Format —
//! one resource per line:
//!
//! ```text
//! @host www.shop.example
//! /index.html      html  42000  period=2h  policy=no-cache
//! /css/site.css    css   18000  period=30d policy=max-age:86400 parent=/index.html
//! /js/app.js       js    95000  period=7d  policy=no-cache      parent=/index.html
//! /api/prices.json json   3000  period=15m policy=no-store      js-parent=/js/app.js
//! /img/hero.jpg    image 240000 immutable  policy=max-age:604800 parent=/index.html
//! ```
//!
//! Blank lines and `#` comments are ignored. Durations accept
//! `30s 15m 2h 3d 1w`. Keys: `period=`, `phase=`, `policy=`
//! (`no-store` | `no-cache` | `max-age:SECS`), `parent=` (static),
//! `js-parent=` (discovered by executing that script), `third-party`,
//! `immutable`.

use std::time::Duration;

use cachecatalyst_httpwire::Url;

use crate::resource::{ChangeModel, Discovery, ResourceKind, ResourceSpec};
use crate::site::{GeneratedResource, Site, SiteSpec};
use crate::ttl::HeaderPolicy;

/// A parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InventoryError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for InventoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inventory line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for InventoryError {}

/// Parses `30s`, `15m`, `2h`, `3d`, `1w` (bare numbers are seconds), up
/// to `u32::MAX` seconds (≈ 136 years): past that a [`ChangeModel`]'s
/// `i64` version arithmetic could overflow.
pub fn parse_duration(s: &str) -> Option<Duration> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        's' => (&s[..s.len() - 1], 1u64),
        'm' => (&s[..s.len() - 1], 60),
        'h' => (&s[..s.len() - 1], 3600),
        'd' => (&s[..s.len() - 1], 86_400),
        'w' => (&s[..s.len() - 1], 7 * 86_400),
        _ => (s, 1),
    };
    let secs = num.parse::<u64>().ok()?.checked_mul(mult)?;
    (secs <= u64::from(u32::MAX)).then(|| Duration::from_secs(secs))
}

/// Parses an inventory into a [`Site`].
///
/// ```
/// use cachecatalyst_webmodel::site_from_inventory;
///
/// let site = site_from_inventory("
///     @host my.example
///     /index.html html 12000 period=2h policy=no-cache
///     /app.css    css   8000 period=30d policy=max-age:86400 parent=/index.html
/// ").unwrap();
/// assert_eq!(site.spec.host, "my.example");
/// assert_eq!(site.len(), 2);
/// ```
pub fn site_from_inventory(text: &str) -> Result<Site, InventoryError> {
    let err = |line: usize, message: &str| InventoryError {
        line,
        message: message.to_owned(),
    };
    let mut host = "inventory.example".to_owned();
    // One parsed inventory line: (line_no, spec, policy, static
    // parent, js parent).
    type Row = (
        usize,
        ResourceSpec,
        HeaderPolicy,
        Option<String>,
        Option<String>,
    );
    let mut rows: Vec<Row> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix("@host") {
            host = h.trim().to_owned();
            if host.is_empty() {
                return Err(err(line_no, "@host needs a value"));
            }
            // The site names its paths `http://{host}{path}` (`Site::url`).
            if Url::parse(&format!("http://{host}/")).is_err() {
                return Err(err(line_no, "@host is not a host[:port]"));
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let path = parts
            .next()
            .ok_or_else(|| err(line_no, "missing path"))?
            .to_owned();
        if !path.starts_with('/') {
            return Err(err(line_no, "path must start with '/'"));
        }
        let kind = match parts.next() {
            Some("html") => ResourceKind::Html,
            Some("css") => ResourceKind::Css,
            Some("js") => ResourceKind::Js,
            Some("image") => ResourceKind::Image,
            Some("font") => ResourceKind::Font,
            Some("json") => ResourceKind::Json,
            Some("other") => ResourceKind::Other,
            Some(other) => return Err(err(line_no, &format!("unknown kind {other:?}"))),
            None => return Err(err(line_no, "missing kind")),
        };
        let size: u64 = parts
            .next()
            .ok_or_else(|| err(line_no, "missing size"))?
            .parse()
            .map_err(|_| err(line_no, "size must be an integer"))?;

        let mut period: Option<Duration> = None;
        let mut phase = Duration::ZERO;
        let mut immutable = false;
        let mut policy = HeaderPolicy::NoCache;
        let mut static_parent: Option<String> = None;
        let mut js_parent: Option<String> = None;
        let mut third_party = false;
        for token in parts {
            match token.split_once('=') {
                Some(("period", v)) => {
                    period =
                        Some(parse_duration(v).ok_or_else(|| err(line_no, "bad period duration"))?);
                }
                Some(("phase", v)) => {
                    phase = parse_duration(v).ok_or_else(|| err(line_no, "bad phase duration"))?;
                }
                Some(("policy", v)) => {
                    policy = match v {
                        "no-store" => HeaderPolicy::NoStore,
                        "no-cache" => HeaderPolicy::NoCache,
                        other => match other.strip_prefix("max-age:") {
                            Some(secs) => HeaderPolicy::MaxAge(Duration::from_secs(
                                secs.parse()
                                    .map_err(|_| err(line_no, "max-age wants seconds"))?,
                            )),
                            None => return Err(err(line_no, &format!("unknown policy {other:?}"))),
                        },
                    };
                }
                Some(("parent", v)) => static_parent = Some(v.to_owned()),
                Some(("js-parent", v)) => js_parent = Some(v.to_owned()),
                None if token == "immutable" => immutable = true,
                None if token == "third-party" => third_party = true,
                _ => return Err(err(line_no, &format!("unknown token {token:?}"))),
            }
        }
        if static_parent.is_some() && js_parent.is_some() {
            return Err(err(line_no, "parent= and js-parent= are exclusive"));
        }
        let change = match (immutable, period) {
            (false, Some(period)) => ChangeModel::Periodic { period, phase },
            _ => ChangeModel::Immutable,
        };
        let mut spec = ResourceSpec::leaf(&path, kind, size, Discovery::Base, change);
        spec.third_party = third_party;
        rows.push((line_no, spec, policy, static_parent, js_parent));
    }

    if rows.is_empty() {
        return Err(err(0, "inventory has no resources"));
    }
    // The first HTML resource is the home page.
    let base_path = rows
        .iter()
        .find(|(_, spec, ..)| spec.kind == ResourceKind::Html)
        .map(|(_, spec, ..)| spec.path.clone())
        .ok_or_else(|| err(0, "inventory needs at least one html resource"))?;

    // Resolve parents: explicit ones as given; everything else (except
    // pages) hangs off the home page.
    let paths: std::collections::HashSet<String> =
        rows.iter().map(|(_, s, ..)| s.path.clone()).collect();
    let mut site = Site::generate(SiteSpec {
        host: host.clone(),
        n_resources: 0,
        ..Default::default()
    });

    // First pass: insert every resource with resolved discovery.
    let mut children_of: std::collections::HashMap<String, Vec<String>> = Default::default();
    let mut dynamics_of: std::collections::HashMap<String, Vec<String>> = Default::default();
    for (line_no, spec, _, static_parent, js_parent) in &rows {
        if let Some(p) = static_parent {
            if !paths.contains(p) {
                return Err(err(*line_no, &format!("unknown parent {p:?}")));
            }
            children_of
                .entry(p.clone())
                .or_default()
                .push(spec.path.clone());
        } else if let Some(p) = js_parent {
            if !paths.contains(p) {
                return Err(err(*line_no, &format!("unknown js-parent {p:?}")));
            }
            dynamics_of
                .entry(p.clone())
                .or_default()
                .push(spec.path.clone());
        } else if spec.kind != ResourceKind::Html && spec.path != base_path {
            children_of
                .entry(base_path.clone())
                .or_default()
                .push(spec.path.clone());
        }
    }

    for (_, mut spec, policy, static_parent, js_parent) in rows {
        spec.discovery = if spec.path == base_path || spec.kind == ResourceKind::Html {
            Discovery::Base
        } else if let Some(p) = js_parent {
            Discovery::JsExecution { parent: p }
        } else {
            Discovery::Static {
                parent: static_parent.unwrap_or_else(|| base_path.clone()),
            }
        };
        spec.static_children = children_of.remove(&spec.path).unwrap_or_default();
        spec.dynamic_children = dynamics_of.remove(&spec.path).unwrap_or_default();
        site.insert_resource(GeneratedResource { spec, policy });
    }
    Ok(site)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
@host www.shop.example
# the storefront
/index.html      html  42000  period=2h  policy=no-cache
/css/site.css    css   18000  period=30d policy=max-age:86400 parent=/index.html
/js/app.js       js    95000  period=7d  policy=no-cache      parent=/index.html
/api/prices.json json   3000  period=15m policy=no-store      js-parent=/js/app.js
/img/hero.jpg    image 240000 immutable  policy=max-age:604800 parent=/index.html
"#;

    #[test]
    fn parses_the_sample() {
        let site = site_from_inventory(SAMPLE).unwrap();
        assert_eq!(site.spec.host, "www.shop.example");
        assert_eq!(site.len(), 5);
        assert_eq!(site.base_path(), "/index.html");
        let index = site.get("/index.html").unwrap();
        assert_eq!(index.spec.static_children.len(), 3);
        let app = site.get("/js/app.js").unwrap();
        assert_eq!(app.spec.dynamic_children, vec!["/api/prices.json"]);
        let hero = site.get("/img/hero.jpg").unwrap();
        assert_eq!(hero.spec.change, ChangeModel::Immutable);
        assert_eq!(
            site.get("/css/site.css").unwrap().policy,
            HeaderPolicy::MaxAge(Duration::from_secs(86_400))
        );
    }

    #[test]
    fn inventory_site_loads_end_to_end() {
        // The built site must produce parseable bodies and etags.
        let site = site_from_inventory(SAMPLE).unwrap();
        let body = site.body_at("/index.html", 0).unwrap();
        let links = crate::extract::extract_html_links(std::str::from_utf8(&body).unwrap());
        assert_eq!(links.len(), 3);
        assert!(site.etag_at("/api/prices.json", 0).is_some());
        // prices.json changes every 15 minutes.
        assert_ne!(
            site.etag_at("/api/prices.json", 0),
            site.etag_at("/api/prices.json", 901)
        );
    }

    #[test]
    fn durations() {
        assert_eq!(parse_duration("30s"), Some(Duration::from_secs(30)));
        assert_eq!(parse_duration("15m"), Some(Duration::from_secs(900)));
        assert_eq!(parse_duration("2h"), Some(Duration::from_secs(7200)));
        assert_eq!(parse_duration("3d"), Some(Duration::from_secs(259_200)));
        assert_eq!(parse_duration("1w"), Some(Duration::from_secs(604_800)));
        assert_eq!(parse_duration("45"), Some(Duration::from_secs(45)));
        assert_eq!(parse_duration("x"), None);
        assert_eq!(parse_duration(""), None);
        let max = u64::from(u32::MAX);
        assert_eq!(parse_duration("4294967295"), Some(Duration::from_secs(max)));
        assert_eq!(parse_duration("4294967296"), None, "past u32::MAX s");
        assert_eq!(parse_duration("99999999999999999w"), None, "past u64 s");
    }

    #[test]
    fn error_reporting_carries_line_numbers() {
        let bad = "/index.html html 100\n/x.css stylesheet 5";
        let e = site_from_inventory(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown kind"));

        let e = site_from_inventory("relative.css css 5").unwrap_err();
        assert!(e.message.contains("start with '/'"));

        let e = site_from_inventory("/a.css css 5 parent=/nope.html\n/i.html html 9").unwrap_err();
        assert!(e.message.contains("unknown parent"));

        // A phase near 2⁶³ s would overflow `ChangeModel::version_at`.
        let huge_phase = "/i.html html 9\n/a.css css 5 period=2h phase=9223372036854775807";
        let e = site_from_inventory(huge_phase).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "bad phase duration"));

        let e = site_from_inventory("").unwrap_err();
        assert!(e.message.contains("no resources"));

        let e = site_from_inventory("@host my_site.example\n/i.html html 9").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (1, "@host is not a host[:port]")
        );

        let e = site_from_inventory("/only.css css 5").unwrap_err();
        assert!(e.message.contains("at least one html"));
    }

    #[test]
    fn defaults_hang_off_the_home_page() {
        let site = site_from_inventory(
            "/i.html html 1000 policy=no-cache\n/free.js js 500 policy=no-cache",
        )
        .unwrap();
        assert_eq!(
            site.get("/free.js").unwrap().spec.discovery,
            Discovery::Static {
                parent: "/i.html".into()
            }
        );
        assert_eq!(
            site.get("/i.html").unwrap().spec.static_children,
            vec!["/free.js"]
        );
    }
}
