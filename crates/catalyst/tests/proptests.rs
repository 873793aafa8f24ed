//! Property-based tests for the CacheCatalyst protocol pieces.

use cachecatalyst_catalyst::{EtagConfig, ServiceWorker, SwDecision};
use cachecatalyst_httpwire::{EntityTag, Response};
use proptest::prelude::*;

fn arb_path() -> impl Strategy<Value = String> {
    // Paths with every special character the escaper must handle.
    "(/[a-zA-Z0-9._%,= -]{1,16}){1,3}".prop_map(|s| s)
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

proptest! {
    /// The header codec is lossless for any path/tag mix, through both
    /// single-value and split-value serialization.
    #[test]
    fn config_roundtrips(entries in prop::collection::btree_map(arb_path(), arb_tag(), 0..40),
                         max_len in 64usize..512) {
        let mut config = EtagConfig::new();
        for (p, t) in &entries {
            config.insert(p, t.clone());
        }
        // Single value.
        let parsed = EtagConfig::parse(&config.to_header_value()).unwrap();
        prop_assert_eq!(&parsed, &config);
        // Split values, recombined the way HeaderMap::get_combined does.
        // A single entry cannot be split, so the cap is max(max_len,
        // longest single serialized entry).
        let longest_entry = entries
            .iter()
            .map(|(p, t)| {
                let mut one = EtagConfig::new();
                one.insert(p, t.clone());
                one.to_header_value().len()
            })
            .max()
            .unwrap_or(0);
        let values = config.to_header_values(max_len);
        for v in &values {
            prop_assert!(
                v.len() <= max_len.max(longest_entry + 8),
                "{} > {max_len}",
                v.len()
            );
        }
        let recombined = values.join(",");
        let parsed = EtagConfig::parse(&recombined).unwrap();
        prop_assert_eq!(&parsed, &config);
    }

    /// Applying a config to a response and extracting it back is the
    /// identity.
    #[test]
    fn apply_extract_roundtrips(entries in prop::collection::btree_map(arb_path(), arb_tag(), 0..24)) {
        let mut config = EtagConfig::new();
        for (p, t) in &entries {
            config.insert(p, t.clone());
        }
        let mut resp = Response::ok("<html>");
        config.apply_to(&mut resp, 256);
        prop_assert_eq!(EtagConfig::from_response(&resp).unwrap(), config);
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
        let mut nav = Response::ok("<html>");
        config.apply_to(&mut nav, 4096);
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
