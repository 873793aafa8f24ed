//! Property-based tests for the CacheCatalyst protocol pieces.

use cachecatalyst_catalyst::config::MAX_HEADER_LEN;
use cachecatalyst_catalyst::{EtagConfig, ServiceWorker, SwDecision};
use cachecatalyst_httpwire::{EntityTag, HeaderMap, HeaderName, Response};
use proptest::prelude::*;

fn arb_path() -> impl Strategy<Value = String> {
    // Paths with every special character the escaper must handle.
    "(/[a-zA-Z0-9._%,=\" -]{1,16}){1,3}".prop_map(|s| s)
}

fn arb_tag() -> impl Strategy<Value = EntityTag> {
    ("[a-zA-Z0-9+/=._-]{1,24}", any::<bool>()).prop_map(|(opaque, weak)| {
        if weak {
            EntityTag::weak(opaque).unwrap()
        } else {
            EntityTag::strong(opaque).unwrap()
        }
    })
}

/// A navigation response carrying `config` the way the origin writes it.
fn navigation(config: &EtagConfig) -> Response {
    let mut nav = Response::ok("<html>");
    nav.headers = HeaderMap::from_entries(config.header_fields());
    nav
}

proptest! {
    /// The header codec is lossless for any path/tag mix, through the
    /// one-line form and through the head the origin writes — split
    /// into lines of at most MAX_HEADER_LEN once long paths push the
    /// map past one line, and read back through the one gate.
    #[test]
    fn config_roundtrips(entries in prop::collection::btree_map(arb_path(), arb_tag(), 0..40),
                         pad in 0usize..240) {
        let mut config = EtagConfig::new();
        for (p, t) in &entries {
            config.insert(format!("/{}{p}", "x".repeat(pad)), t.clone());
        }
        let parsed = EtagConfig::parse(&config.to_string()).unwrap();
        prop_assert_eq!(&parsed, &config);
        let head = HeaderMap::from_entries(config.header_fields());
        let lines: Vec<&str> = head.get_all(HeaderName::X_ETAG_CONFIG).collect();
        for line in &lines {
            prop_assert!(line.len() <= MAX_HEADER_LEN, "{} > {MAX_HEADER_LEN}", line.len());
        }
        prop_assert_eq!(lines.join(","), config.to_string());
        prop_assert_eq!(EtagConfig::accept(&head), Some(config));
    }

    /// Config parsing never panics on arbitrary input.
    #[test]
    fn parse_never_panics(input in any::<String>()) {
        let _ = EtagConfig::parse(&input);
    }

    /// Service-worker invariant: a locally-served response's ETag
    /// always weak-matches the installed map; mismatches and unknowns
    /// always forward.
    #[test]
    fn sw_serves_only_matching(
        mapped_tag in arb_tag(),
        cached_tag in arb_tag(),
        path in arb_path(),
    ) {
        let mut sw = ServiceWorker::new();
        let mut config = EtagConfig::new();
        config.insert(&path, mapped_tag.clone());
        let nav = navigation(&config);
        sw.on_navigation(&nav);

        let url = format!("http://h{path}");
        let stored = Response::ok("body")
            .with_header("etag", &cached_tag.to_string());
        sw.on_response(&url, &stored);
        sw.on_navigation(&nav); // reinstall (idempotent)

        match sw.intercept(&url, &path) {
            SwDecision::ServeLocal { response: resp, .. } => {
                prop_assert!(cached_tag.weak_eq(&mapped_tag));
                prop_assert_eq!(&resp.body[..], b"body");
            }
            SwDecision::Forward { if_none_match } => {
                prop_assert!(!cached_tag.weak_eq(&mapped_tag));
                prop_assert_eq!(if_none_match.unwrap(), cached_tag);
            }
        }
    }
}
