//! Synthetic site generation.
//!
//! A [`Site`] is a deterministic function of its [`SiteSpec`]: the same
//! spec always yields the same resource tree, bodies, ETags and change
//! schedule. Size and composition distributions follow the
//! httparchive "state of the web" shape the paper cites (§2.2): pages
//! of a few megabytes made of dozens-to-hundreds of small resources.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Duration;

use bytes::Bytes;
use cachecatalyst_httpwire::{EntityTag, Url};

use crate::content::render_body;
use crate::resource::{ChangeModel, Discovery, ResourceKind, ResourceSpec};
use crate::stats::{derive_seed, derive_seed_fmt, rng_for, sample_lognormal, weighted_choice};
use crate::ttl::{assign_policy_for_kind, DeveloperPolicyParams, HeaderPolicy};

/// Parameters describing one synthetic site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Origin host name, e.g. `site042.example`.
    pub host: String,
    /// Master seed; every derived quantity is keyed off it.
    pub seed: u64,
    /// Approximate number of subresources on the home page.
    pub n_resources: usize,
    /// Fraction of subresources only discoverable by executing JS
    /// (the paper's static-extraction coverage gap).
    pub js_discovered_fraction: f64,
    /// Fraction of subresources hosted on a third-party origin.
    pub third_party_fraction: f64,
    /// Number of pages on the site (≥1). Pages share the site's
    /// "chrome" (stylesheets, scripts, fonts and some imagery) and
    /// split the remaining content — enabling the paper's
    /// "other pages within the same website" reuse scenario.
    pub n_pages: usize,
    /// Fraction of CSS/JS assets that are *fingerprinted* (cache
    /// busting): the URL embeds the content version and the response
    /// is served immutable with a year-long TTL — the modern
    /// build-pipeline practice the paper does not discuss.
    pub fingerprinted_fraction: f64,
    /// The developer cache-header policy model.
    pub policy: DeveloperPolicyParams,
}

impl Default for SiteSpec {
    fn default() -> Self {
        SiteSpec {
            host: "site.example".to_owned(),
            seed: 0,
            n_resources: 70,
            js_discovered_fraction: 0.15,
            // The paper's evaluation cloned each homepage onto a single
            // modified server, making everything same-origin; 0 is the
            // faithful default (cross-origin is explored as an ablation).
            third_party_fraction: 0.0,
            n_pages: 1,
            fingerprinted_fraction: 0.0,
            policy: DeveloperPolicyParams::default(),
        }
    }
}

/// A generated resource: its structural spec plus assigned headers.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedResource {
    pub spec: ResourceSpec,
    pub policy: HeaderPolicy,
}

/// A fully generated site.
///
/// ```
/// use cachecatalyst_webmodel::{Site, SiteSpec};
///
/// let site = Site::generate(SiteSpec {
///     host: "docs.example".into(),
///     seed: 7,
///     n_resources: 30,
///     ..Default::default()
/// });
/// assert_eq!(site.len(), 31); // 30 subresources + the base document
/// // Content, ETags and versions are pure functions of (path, time).
/// let e0 = site.etag_at(site.base_path(), 0).unwrap();
/// assert_eq!(site.etag_at(site.base_path(), 0).unwrap(), e0);
/// ```
#[derive(Debug, Clone)]
pub struct Site {
    pub spec: SiteSpec,
    base_path: String,
    resources: BTreeMap<String, GeneratedResource>,
}

/// Per-kind generation parameters: (mix weight, median size, size
/// sigma, P(immutable), median change period).
fn kind_params(kind: ResourceKind) -> (f64, f64, f64, f64, Duration) {
    let day = 86_400;
    match kind {
        ResourceKind::Html => (0.0, 30_000.0, 0.7, 0.0, Duration::from_secs(6 * 3600)),
        ResourceKind::Css => (0.07, 15_000.0, 1.0, 0.20, Duration::from_secs(10 * day)),
        ResourceKind::Js => (0.27, 30_000.0, 1.0, 0.25, Duration::from_secs(7 * day)),
        ResourceKind::Image => (0.42, 25_000.0, 1.2, 0.40, Duration::from_secs(30 * day)),
        ResourceKind::Font => (0.04, 40_000.0, 0.5, 0.80, Duration::from_secs(90 * day)),
        ResourceKind::Json => (0.10, 2_000.0, 1.0, 0.05, Duration::from_secs(4 * 3600)),
        ResourceKind::Other => (0.10, 5_000.0, 1.2, 0.30, Duration::from_secs(14 * day)),
    }
}

const SUB_KINDS: [ResourceKind; 6] = [
    ResourceKind::Css,
    ResourceKind::Js,
    ResourceKind::Image,
    ResourceKind::Font,
    ResourceKind::Json,
    ResourceKind::Other,
];

impl Site {
    /// Generates the site described by `spec`.
    pub fn generate(spec: SiteSpec) -> Site {
        let mut rng = rng_for(spec.seed, &format!("site:{}", spec.host));
        let mut resources: BTreeMap<String, GeneratedResource> = BTreeMap::new();

        // --- 1. Draw the subresource population. ---
        let weights: Vec<f64> = SUB_KINDS.iter().map(|k| kind_params(*k).0).collect();
        let mut by_kind: BTreeMap<ResourceKind, Vec<String>> = BTreeMap::new();
        let mut order: Vec<String> = Vec::new(); // creation order, for layout
        for i in 0..spec.n_resources {
            let kind = SUB_KINDS[weighted_choice(&mut rng, &weights)];
            let (_, med, sigma, p_imm, med_period) = kind_params(kind);
            let size = sample_lognormal(&mut rng, med, sigma).clamp(200.0, 2_000_000.0) as u64;
            let change = if rng.unit() < p_imm {
                ChangeModel::Immutable
            } else {
                let period_secs = sample_lognormal(&mut rng, med_period.as_secs_f64(), 1.0)
                    .clamp(300.0, 365.0 * 86_400.0);
                let period = Duration::from_secs(period_secs as u64);
                let phase = Duration::from_secs(rng.range(0..period.as_secs().max(1)));
                ChangeModel::Periodic { period, phase }
            };
            let path = format!("/assets/{kind}-{i:03}.{}", kind.extension());
            let third_party = rng.unit() < spec.third_party_fraction;
            let fingerprinted = matches!(kind, ResourceKind::Css | ResourceKind::Js)
                && rng.unit() < spec.fingerprinted_fraction;
            let policy = if fingerprinted {
                // Cache busting: the URL changes with the content, so
                // the representation is immutable and gets a year.
                HeaderPolicy::MaxAge(Duration::from_secs(365 * 86_400))
            } else {
                assign_policy_for_kind(&mut rng, &spec.policy, kind, &change)
            };
            let mut rspec = ResourceSpec::leaf(&path, kind, size, Discovery::Base, change);
            rspec.third_party = third_party;
            rspec.fingerprinted = fingerprinted;
            by_kind.entry(kind).or_default().push(path.clone());
            order.push(path.clone());
            resources.insert(
                path,
                GeneratedResource {
                    spec: rspec,
                    policy,
                },
            );
        }

        // --- 2. Wire the discovery graph. ---
        let empty = Vec::new();
        let css_paths = by_kind.get(&ResourceKind::Css).unwrap_or(&empty).clone();
        let js_paths = by_kind.get(&ResourceKind::Js).unwrap_or(&empty).clone();

        // Dynamic (JS-discovered) resources: choose from JS (not the
        // first, which anchors the chain), images, json, other.
        let mut dynamic: Vec<String> = Vec::new();
        if !js_paths.is_empty() {
            let mut candidates: Vec<String> = Vec::new();
            for p in &order {
                let k = resources[p].spec.kind;
                let eligible = match k {
                    ResourceKind::Js => Some(p != &js_paths[0]),
                    ResourceKind::Image | ResourceKind::Json | ResourceKind::Other => Some(true),
                    _ => None,
                };
                if eligible == Some(true) {
                    candidates.push(p.clone());
                }
            }
            let target = (spec.js_discovered_fraction * spec.n_resources as f64).round() as usize;
            for p in candidates.into_iter().take(target) {
                dynamic.push(p);
            }
        }

        // Assign parents for dynamic resources: round-robin over static
        // JS, and let dynamic JS parent later dynamic resources
        // (producing b.js → c.js → d.jpg chains like Figure 1).
        let static_js: Vec<String> = js_paths
            .iter()
            .filter(|p| !dynamic.contains(p))
            .cloned()
            .collect();
        let mut js_parents: Vec<String> = static_js.clone();
        for (i, p) in dynamic.iter().enumerate() {
            if js_parents.is_empty() {
                break;
            }
            let parent = js_parents[i % js_parents.len()].clone();
            {
                let r = resources.get_mut(p).expect("dynamic path exists");
                r.spec.discovery = Discovery::JsExecution {
                    parent: parent.clone(),
                };
            }
            resources
                .get_mut(&parent)
                .expect("parent exists")
                .spec
                .dynamic_children
                .push(p.clone());
            // A first-generation dynamic JS may parent further
            // dynamics (the Figure-1 b.js → c.js → d.jpg chain), but
            // chains stop there: homepage dependency graphs are
            // shallow (Butkiewicz et al.).
            if resources[p].spec.kind == ResourceKind::Js && static_js.contains(&parent) {
                js_parents.push(p.clone());
            }
        }

        // Fonts and ~20% of images hang off a stylesheet when one exists.
        let mut css_rr = 0usize;
        for p in &order {
            if dynamic.contains(p) || css_paths.is_empty() {
                continue;
            }
            let kind = resources[p].spec.kind;
            let to_css = match kind {
                ResourceKind::Font => true,
                ResourceKind::Image => {
                    derive_seed(spec.seed, &format!("css-img:{p}")).is_multiple_of(5)
                }
                _ => false,
            };
            if to_css {
                let parent = css_paths[css_rr % css_paths.len()].clone();
                css_rr += 1;
                {
                    let r = resources.get_mut(p).expect("path exists");
                    r.spec.discovery = Discovery::Static {
                        parent: parent.clone(),
                    };
                }
                resources
                    .get_mut(&parent)
                    .expect("css exists")
                    .spec
                    .static_children
                    .push(p.clone());
            }
        }

        // Everything still marked `Base` becomes a static child of some
        // page, in a browser-typical order: CSS, JS, then the rest in
        // creation order.
        let base_path = "/index.html".to_owned();
        let mut base_children: Vec<String> = Vec::new();
        for pass in 0..3 {
            for p in &order {
                let r = &resources[p];
                if r.spec.discovery != Discovery::Base {
                    continue;
                }
                let rank = match r.spec.kind {
                    ResourceKind::Css => 0,
                    ResourceKind::Js => 1,
                    _ => 2,
                };
                if rank == pass {
                    base_children.push(p.clone());
                }
            }
        }

        // Split into shared chrome (all CSS/JS/fonts plus every fourth
        // remaining resource) and per-page content.
        let n_pages = spec.n_pages.max(1);
        let mut chrome: Vec<String> = Vec::new();
        let mut content: Vec<String> = Vec::new();
        for (i, p) in base_children.iter().enumerate() {
            let kind = resources[p].spec.kind;
            let is_chrome = matches!(
                kind,
                ResourceKind::Css | ResourceKind::Js | ResourceKind::Font
            ) || i % 4 == 0;
            if is_chrome || n_pages == 1 {
                chrome.push(p.clone());
            } else {
                content.push(p.clone());
            }
        }

        // --- 3. The page documents. ---
        for page_idx in 0..n_pages {
            let page_path = if page_idx == 0 {
                base_path.clone()
            } else {
                format!("/page-{page_idx}.html")
            };
            let (_, med, sigma, _, base_period) = kind_params(ResourceKind::Html);
            let html_size = sample_lognormal(&mut rng, med, sigma).clamp(5_000.0, 300_000.0) as u64;
            let page_change = ChangeModel::Periodic {
                period: Duration::from_secs(
                    sample_lognormal(&mut rng, base_period.as_secs_f64(), 1.0)
                        .clamp(600.0, 30.0 * 86_400.0) as u64,
                ),
                phase: Duration::from_secs(rng.range(0..3600)),
            };
            // Developers rarely let a document be served stale.
            let page_policy = match rng.unit() {
                x if x < 0.10 => HeaderPolicy::NoStore,
                x if x < 0.80 => HeaderPolicy::NoCache,
                _ => HeaderPolicy::MaxAge(Duration::from_secs(rng.range(60..300))),
            };
            let mut children = chrome.clone();
            for (i, p) in content.iter().enumerate() {
                if i % n_pages == page_idx {
                    children.push(p.clone());
                }
            }
            for p in &children {
                let r = resources.get_mut(p).expect("page child");
                // The canonical discovery parent is the first page that
                // links the resource (chrome belongs to the index).
                if r.spec.discovery == Discovery::Base {
                    r.spec.discovery = Discovery::Static {
                        parent: page_path.clone(),
                    };
                }
            }
            let mut page_spec = ResourceSpec::leaf(
                &page_path,
                ResourceKind::Html,
                html_size,
                Discovery::Base,
                page_change,
            );
            page_spec.static_children = children;
            resources.insert(
                page_path,
                GeneratedResource {
                    spec: page_spec,
                    policy: page_policy,
                },
            );
        }

        Site {
            spec,
            base_path,
            resources,
        }
    }

    /// The site's page documents, index first.
    pub fn pages(&self) -> Vec<String> {
        let mut pages: Vec<String> = self
            .resources
            .values()
            .filter(|r| r.spec.kind == ResourceKind::Html && r.spec.discovery == Discovery::Base)
            .map(|r| r.spec.path.clone())
            .collect();
        pages.sort_by_key(|p| (p != &self.base_path, p.clone()));
        pages
    }

    /// The home-page path (`/index.html`).
    pub fn base_path(&self) -> &str {
        &self.base_path
    }

    /// Inserts (or replaces) a resource. Used by hand-built sites like
    /// the Figure-1 example page.
    pub fn insert_resource(&mut self, resource: GeneratedResource) {
        self.resources.insert(resource.spec.path.clone(), resource);
    }

    /// All resources, in path order.
    pub fn resources(&self) -> impl Iterator<Item = &GeneratedResource> {
        self.resources.values()
    }

    /// Number of resources including the base document.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// Looks up one resource by path (fingerprinted request paths
    /// resolve to their canonical resource).
    pub fn get(&self, path: &str) -> Option<&GeneratedResource> {
        self.lookup(path).map(|(r, _)| r)
    }

    /// The borrow-only resolution every accessor builds on: resolves a
    /// possibly-fingerprinted request path to `(resource,
    /// pinned_version)`. Exact-match paths — the hot-path case —
    /// allocate nothing; only a `.vN` fingerprint strip builds the
    /// canonical key.
    pub fn lookup(&self, path: &str) -> Option<(&GeneratedResource, Option<u64>)> {
        if let Some(r) = self.resources.get(path) {
            return Some((r, None));
        }
        // Try to strip a `.vN` fingerprint segment.
        let dot = path.rfind('.')?;
        let stem = &path[..dot];
        let ext = &path[dot..];
        let vdot = stem.rfind(".v")?;
        let version: u64 = stem[vdot + 2..].parse().ok()?;
        let canonical = format!("{}{}", &stem[..vdot], ext);
        let r = self.resources.get(&canonical)?;
        r.spec.fingerprinted.then_some((r, Some(version)))
    }

    /// The content version of `path` at absolute site time `t_secs`.
    /// Fingerprinted request paths return their pinned version.
    pub fn version_at(&self, path: &str, t_secs: i64) -> Option<u64> {
        let (r, pinned) = self.lookup(path)?;
        Some(pinned.unwrap_or_else(|| r.spec.version_at(t_secs)))
    }

    /// The entity tag of `path` at `t_secs`. Stable per
    /// `(host, path, version)`, strong, 16 hex digits — the shape the
    /// modified origin server hands out.
    pub fn etag_at(&self, path: &str, t_secs: i64) -> Option<EntityTag> {
        let (r, pinned) = self.lookup(path)?;
        let version = pinned.unwrap_or_else(|| r.spec.version_at(t_secs));
        Some(self.make_etag(&r.spec.path, version))
    }

    /// The labels go through the fold unbuilt, so a tag costs its own
    /// string and nothing else (a map build makes one per entry).
    fn make_etag(&self, path: &str, version: u64) -> EntityTag {
        let host = &self.spec.host;
        let id = derive_seed_fmt(
            derive_seed_fmt(self.spec.seed, format_args!("{host}{path}")),
            format_args!("v{version}"),
        );
        let mut hex = String::with_capacity(16);
        write!(hex, "{id:016x}").expect("writing to a String cannot fail");
        EntityTag::strong(hex).expect("hex is a valid etag")
    }

    /// The body of `path` at `t_secs`. Fingerprinted request paths
    /// (`….vN.ext`) resolve to that pinned version of the asset.
    pub fn body_at(&self, path: &str, t_secs: i64) -> Option<Bytes> {
        let (r, pinned) = self.lookup(path)?;
        let version = pinned.unwrap_or_else(|| r.spec.version_at(t_secs));
        Some(render_body(&self.spec.host, &r.spec, version, &|child| {
            self.link_text_at(child, t_secs)
        }))
    }

    /// How a link to `child` is written inside markup: rooted path for
    /// same-origin, absolute URL for third-party resources.
    pub fn link_text(&self, child: &str) -> String {
        self.link_text_at(child, 0)
    }

    /// Like [`Site::link_text`], but fingerprinted assets get the URL
    /// of their version current at `t_secs`.
    pub fn link_text_at(&self, child: &str, t_secs: i64) -> String {
        let path = match self.resources.get(child) {
            Some(r) if r.spec.fingerprinted => {
                Self::fingerprint_path(child, r.spec.version_at(t_secs))
            }
            _ => child.to_owned(),
        };
        match self.resources.get(child) {
            Some(r) if r.spec.third_party => {
                format!("http://{}{}", self.third_party_host(), path)
            }
            _ => path,
        }
    }

    /// The versioned URL form of a fingerprinted asset:
    /// `/assets/js-001.js` at version 3 → `/assets/js-001.v3.js`.
    pub fn fingerprint_path(path: &str, version: u64) -> String {
        match path.rfind('.') {
            Some(dot) => format!("{}.v{version}{}", &path[..dot], &path[dot..]),
            None => format!("{path}.v{version}"),
        }
    }

    /// The single CDN origin used for third-party resources.
    pub fn third_party_host(&self) -> String {
        format!("cdn.{}", self.spec.host)
    }

    /// The URL the site names `path` by: on its own host, or on
    /// [`Site::third_party_host`] for a third-party resource. `path`
    /// is a rooted site path.
    pub fn url(&self, path: &str) -> Url {
        let host = match self.resources.get(path) {
            Some(r) if r.spec.third_party => self.third_party_host(),
            _ => self.spec.host.clone(),
        };
        Url::parse(&format!("http://{host}{path}")).expect("a site's host and paths form a URL")
    }

    /// Total body bytes of all resources (page weight).
    pub fn total_bytes(&self) -> u64 {
        self.resources.values().map(|r| r.spec.size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_site(seed: u64) -> Site {
        Site::generate(SiteSpec {
            host: format!("s{seed}.example"),
            seed,
            n_resources: 40,
            js_discovered_fraction: 0.2,
            ..Default::default()
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Site::generate(SiteSpec::default());
        let b = Site::generate(SiteSpec::default());
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.resources().zip(b.resources()) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn population_size() {
        let site = small_site(1);
        assert_eq!(site.len(), 41); // 40 subresources + base
        assert!(site.get("/index.html").is_some());
    }

    #[test]
    fn every_subresource_is_reachable_from_base() {
        let site = small_site(2);
        let mut reachable = std::collections::HashSet::new();
        let mut stack = vec![site.base_path().to_owned()];
        while let Some(p) = stack.pop() {
            if !reachable.insert(p.clone()) {
                continue;
            }
            let r = site.get(&p).unwrap();
            stack.extend(r.spec.static_children.iter().cloned());
            stack.extend(r.spec.dynamic_children.iter().cloned());
        }
        assert_eq!(reachable.len(), site.len(), "orphaned resources");
    }

    #[test]
    fn discovery_parents_are_consistent() {
        let site = small_site(3);
        for r in site.resources() {
            match &r.spec.discovery {
                Discovery::Base => assert_eq!(r.spec.path, "/index.html"),
                Discovery::Static { parent } => {
                    let p = site.get(parent).expect("parent exists");
                    assert!(
                        p.spec.static_children.contains(&r.spec.path),
                        "{} not in {}'s children",
                        r.spec.path,
                        parent
                    );
                }
                Discovery::JsExecution { parent } => {
                    let p = site.get(parent).expect("parent exists");
                    assert_eq!(p.spec.kind, ResourceKind::Js);
                    assert!(p.spec.dynamic_children.contains(&r.spec.path));
                }
            }
        }
    }

    #[test]
    fn js_discovered_fraction_is_respected() {
        let site = Site::generate(SiteSpec {
            n_resources: 100,
            js_discovered_fraction: 0.2,
            ..Default::default()
        });
        let dynamic = site
            .resources()
            .filter(|r| matches!(r.spec.discovery, Discovery::JsExecution { .. }))
            .count();
        assert!(
            (10..=25).contains(&dynamic),
            "expected ≈20 dynamic, got {dynamic}"
        );
    }

    #[test]
    fn etags_change_exactly_with_versions() {
        let site = small_site(4);
        // Find a changing resource.
        let r = site
            .resources()
            .find(|r| matches!(r.spec.change, ChangeModel::Periodic { .. }))
            .expect("some resource changes");
        let path = r.spec.path.clone();
        let ChangeModel::Periodic { period, phase } = r.spec.change.clone() else {
            unreachable!()
        };
        let t0 = (period.as_secs() - phase.as_secs() % period.as_secs()) as i64 - 1;
        let e_before = site.etag_at(&path, t0).unwrap();
        let e_same = site.etag_at(&path, t0 - 10).unwrap();
        let e_after = site.etag_at(&path, t0 + 1).unwrap();
        assert_eq!(e_before, e_same);
        assert_ne!(e_before, e_after);
    }

    #[test]
    fn etags_are_the_fold_of_the_formatted_labels() {
        let site = Site::generate(SiteSpec {
            host: "pin.example".into(),
            seed: 31,
            n_resources: 40,
            n_pages: 2,
            third_party_fraction: 0.2,
            fingerprinted_fraction: 0.3,
            ..Default::default()
        });
        let formatted = |path: &str, version: u64| {
            let id = derive_seed(
                derive_seed(site.spec.seed, &format!("{}{path}", site.spec.host)),
                &format!("v{version}"),
            );
            EntityTag::strong(format!("{id:016x}")).unwrap()
        };
        for r in site.resources() {
            for version in [0, 1, 9, 10, 12_345, u64::MAX] {
                assert_eq!(
                    site.make_etag(&r.spec.path, version),
                    formatted(&r.spec.path, version)
                );
            }
        }
        // A value the `format!`-based tags produced, so a change to
        // `derive_seed` itself fails here too.
        assert_eq!(
            site.etag_at("/index.html", 0).unwrap().opaque(),
            "1af5169f7289ce50"
        );
    }

    #[test]
    fn bodies_parse_back_to_children() {
        let site = small_site(5);
        let body = site.body_at("/index.html", 0).unwrap();
        let text = std::str::from_utf8(&body).unwrap();
        let links = crate::extract::extract_html_links(text);
        let base = site.get("/index.html").unwrap();
        assert_eq!(links.len(), base.spec.static_children.len());
    }

    #[test]
    fn page_weight_is_plausible() {
        // httparchive: ~2.5 MB total. With default parameters the
        // median site should land within a factor of ~2.5.
        let mut totals = Vec::new();
        for seed in 0..20 {
            let site = Site::generate(SiteSpec {
                seed,
                host: format!("s{seed}.example"),
                ..Default::default()
            });
            totals.push(site.total_bytes() as f64);
        }
        totals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = totals[totals.len() / 2];
        assert!(
            (1_000_000.0..=6_000_000.0).contains(&median),
            "median page weight {median}"
        );
    }

    #[test]
    fn third_party_resources_get_cdn_urls() {
        let site = Site::generate(SiteSpec {
            third_party_fraction: 0.5,
            ..Default::default()
        });
        let tp = site
            .resources()
            .find(|r| r.spec.third_party)
            .expect("some third-party resource");
        let link = site.link_text(&tp.spec.path);
        assert!(link.starts_with("http://cdn."), "{link}");
        assert_eq!(site.url(&tp.spec.path).to_string(), link);
        let same = site
            .resources()
            .find(|r| !r.spec.third_party && r.spec.path != "/index.html")
            .unwrap();
        assert!(site.link_text(&same.spec.path).starts_with('/'));
        let url = site.url(&same.spec.path);
        assert_eq!(
            (url.host(), url.path()),
            (&site.spec.host[..], &same.spec.path[..])
        );
    }

    #[test]
    fn multi_page_sites_share_chrome() {
        let site = Site::generate(SiteSpec {
            n_resources: 40,
            n_pages: 3,
            js_discovered_fraction: 0.0,
            ..Default::default()
        });
        let pages = site.pages();
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[0], "/index.html");
        assert!(pages.contains(&"/page-1.html".to_owned()));

        let children = |p: &str| {
            site.get(p)
                .unwrap()
                .spec
                .static_children
                .iter()
                .cloned()
                .collect::<std::collections::HashSet<_>>()
        };
        let idx = children("/index.html");
        let p1 = children("/page-1.html");
        let shared: Vec<_> = idx.intersection(&p1).collect();
        assert!(!shared.is_empty(), "pages must share chrome");
        // All CSS is chrome (shared by every page).
        for r in site.resources() {
            if r.spec.kind == ResourceKind::Css {
                assert!(idx.contains(&r.spec.path) && p1.contains(&r.spec.path));
            }
        }
        // Pages also have exclusive content.
        assert!(idx.difference(&p1).next().is_some() || p1.difference(&idx).next().is_some());
    }

    #[test]
    fn multi_page_bodies_parse_to_their_children() {
        let site = Site::generate(SiteSpec {
            n_resources: 30,
            n_pages: 2,
            ..Default::default()
        });
        for page in site.pages() {
            let body = site.body_at(&page, 0).unwrap();
            let links = crate::extract::extract_html_links(std::str::from_utf8(&body).unwrap());
            assert_eq!(
                links.len(),
                site.get(&page).unwrap().spec.static_children.len(),
                "{page}"
            );
        }
    }

    #[test]
    fn single_page_site_has_one_page() {
        let site = small_site(1);
        assert_eq!(site.pages(), vec!["/index.html".to_owned()]);
    }

    #[test]
    fn fingerprinted_assets_version_their_urls() {
        let site = Site::generate(SiteSpec {
            host: "fp.example".into(),
            seed: 21,
            n_resources: 30,
            js_discovered_fraction: 0.0,
            fingerprinted_fraction: 1.0, // all CSS/JS
            ..Default::default()
        });
        let asset = site
            .resources()
            .find(|r| r.spec.fingerprinted)
            .expect("some fingerprinted asset")
            .spec
            .clone();
        // A year-long TTL and a versioned link.
        assert_eq!(
            site.get(&asset.path).unwrap().policy,
            HeaderPolicy::MaxAge(Duration::from_secs(365 * 86_400))
        );
        let link0 = site.link_text_at(&asset.path, 0);
        assert!(link0.contains(".v"), "{link0}");
        // The HTML embeds the versioned URL.
        let html = site.body_at("/index.html", 0).unwrap();
        assert!(std::str::from_utf8(&html).unwrap().contains(&link0));

        // Fingerprinted requests resolve and pin their version.
        let (canonical, pinned) = site.lookup(&link0).unwrap();
        assert_eq!(canonical.spec.path, asset.path);
        assert_eq!(pinned, Some(asset.version_at(0)));
        assert_eq!(
            site.etag_at(&link0, i64::MAX / 2),
            site.etag_at(&asset.path, 0),
            "a pinned URL always serves its pinned version"
        );

        // When the content changes, the link changes with it.
        if let ChangeModel::Periodic { period, phase } = asset.change {
            let t1 = (period.as_secs() - phase.as_secs() % period.as_secs()) as i64 + 1;
            let link1 = site.link_text_at(&asset.path, t1);
            assert_ne!(link0, link1);
            assert_ne!(site.body_at(&link0, t1), site.body_at(&link1, t1));
        }
    }

    #[test]
    fn fingerprint_path_roundtrip() {
        assert_eq!(
            Site::fingerprint_path("/assets/js-001.js", 3),
            "/assets/js-001.v3.js"
        );
        assert_eq!(Site::fingerprint_path("/noext", 2), "/noext.v2");
        let site = small_site(6);
        // Non-fingerprinted paths never resolve as fingerprints.
        assert!(
            site.lookup("/assets/js-000.v3.js").is_none()
                || site.get("/assets/js-000.js").map(|r| r.spec.fingerprinted) == Some(true)
        );
        assert!(site.lookup("/missing.v1.js").is_none());
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_site(10);
        let b = small_site(11);
        let pa: Vec<_> = a.resources().map(|r| r.spec.size).collect();
        let pb: Vec<_> = b.resources().map(|r| r.spec.size).collect();
        assert_ne!(pa, pb);
    }
}
