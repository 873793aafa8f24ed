//! Property-based tests for the browser cache: a reference model for
//! freshness decisions, and robustness of the store/lookup/304
//! lifecycle under arbitrary operation sequences.

use cachecatalyst_httpcache::{HttpCache, Lookup};
use cachecatalyst_httpwire::{HttpDate, Request, Response};
use proptest::prelude::*;

fn cacheable(max_age: u64, etag_n: u8, body_len: usize, date: i64) -> Response {
    Response::ok(vec![b'x'; body_len])
        .with_header("cache-control", &format!("max-age={max_age}"))
        .with_header("etag", &format!("\"e{etag_n}\""))
        .with_header("date", &HttpDate(date).to_imf_fixdate())
}

#[derive(Debug, Clone)]
enum Op {
    Store {
        key: u8,
        max_age: u64,
        etag: u8,
        body_len: usize,
        at: i64,
    },
    Lookup {
        key: u8,
        at: i64,
    },
    Refresh304 {
        key: u8,
        at: i64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 0u64..1_000, 0u8..4, 0usize..4_096, 0i64..10_000).prop_map(
            |(key, max_age, etag, body_len, at)| Op::Store {
                key,
                max_age,
                etag,
                body_len,
                at
            }
        ),
        (0u8..6, 0i64..20_000).prop_map(|(key, at)| Op::Lookup { key, at }),
        (0u8..6, 0i64..20_000).prop_map(|(key, at)| Op::Refresh304 { key, at }),
    ]
}

proptest! {
    /// Freshness decisions match the analytic model: an entry stored at
    /// `t` with max-age `m` is Fresh strictly before `t+m` and Stale
    /// from then on (single-key, monotone time).
    #[test]
    fn freshness_boundary_is_exact(max_age in 1u64..100_000, probe in 0u64..200_000) {
        let mut cache = HttpCache::new();
        let req = Request::get("/r");
        let stored_at = 1_000i64;
        let resp = cacheable(max_age, 0, 64, stored_at);
        prop_assert!(cache.store("u", &req, &resp, stored_at, stored_at));
        let now = stored_at + probe as i64;
        match cache.lookup("u", &req, now) {
            Lookup::Fresh(_) => prop_assert!(probe < max_age, "fresh at age {probe} ≥ {max_age}"),
            Lookup::Stale { .. } => prop_assert!(probe >= max_age, "stale at age {probe} < {max_age}"),
            Lookup::Miss => prop_assert!(false, "stored entry cannot miss"),
        }
    }

    /// Arbitrary operation sequences never corrupt the cache: it holds
    /// exactly the model's keys, lookups never panic, and a Fresh body
    /// always equals the last stored body for that key.
    #[test]
    fn model_equivalence(ops in prop::collection::vec(arb_op(), 1..64)) {
        let mut cache = HttpCache::new();
        let req = Request::get("/r");
        // Reference model: key → (etag, body_len, stored_at, max_age)
        let mut model: std::collections::HashMap<u8, (u8, usize, i64, u64)> =
            std::collections::HashMap::new();
        for op in ops {
            match op {
                Op::Store { key, max_age, etag, body_len, at } => {
                    let resp = cacheable(max_age, etag, body_len, at);
                    let stored = cache.store(&key.to_string(), &req, &resp, at, at);
                    prop_assert!(stored);
                    model.insert(key, (etag, body_len, at, max_age));
                }
                Op::Lookup { key, at } => {
                    match (cache.lookup(&key.to_string(), &req, at), model.get(&key)) {
                        (Lookup::Miss, None) => {}
                        (Lookup::Miss, Some(_)) => prop_assert!(false, "model has entry, cache missed"),
                        (_, None) => prop_assert!(false, "cache has entry, model does not"),
                        (Lookup::Fresh(resp), Some(&(etag, body_len, _, _))) => {
                            prop_assert_eq!(resp.body.len(), body_len);
                            let expect = format!("\"e{etag}\"");
                            prop_assert_eq!(resp.headers.get("etag"), Some(expect.as_str()));
                        }
                        (Lookup::Stale { etag: e, .. }, Some(&(etag, _, _, _))) => {
                            prop_assert_eq!(e, Some(format!("\"e{etag}\"")));
                        }
                    }
                }
                Op::Refresh304 { key, at } => {
                    let resp304 = Response::not_modified(None)
                        .with_header("date", &HttpDate(at).to_imf_fixdate());
                    let refreshed = cache.update_with_304(&key.to_string(), &resp304, at, at);
                    prop_assert_eq!(refreshed.is_some(), model.contains_key(&key));
                    if let Some(entry) = model.get_mut(&key) {
                        entry.2 = at; // freshness clock restarts
                    }
                }
            }
            prop_assert_eq!(cache.len(), model.len());
        }
    }
}
