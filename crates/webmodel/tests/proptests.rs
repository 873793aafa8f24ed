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

proptest! {
    /// The extractors must never panic on arbitrary input, printable
    /// or not.
    #[test]
    fn extractors_never_panic(input in any::<String>()) {
        let _ = extract_html_links(&input);
        let _ = extract_css_links(&input);
        let _ = jsdialect::evaluate(&input);
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
