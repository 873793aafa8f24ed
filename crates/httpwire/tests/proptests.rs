//! Property-based tests for the HTTP/1.1 codec and header semantics.

use bytes::Bytes;
use cachecatalyst_httpwire::codec::{
    encode_request, encode_response, parse_request, parse_response, parse_response_eof,
    parse_response_shared, ParseLimits, Parsed,
};
use cachecatalyst_httpwire::{
    CacheControl, EntityTag, HeaderMap, HeaderName, HttpDate, Method, Request, Response,
    StatusCode, WireError,
};
use proptest::prelude::*;

fn arb_token() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9\\-]{0,15}".prop_map(|s| s)
}

fn arb_header_value() -> impl Strategy<Value = String> {
    // Visible ASCII without leading/trailing whitespace.
    "[!-~]([ -~]{0,30}[!-~])?".prop_map(|s| s)
}

/// A few names in several spellings, so that random operations keep
/// hitting the same field: names `HeaderName` stores as a static
/// string (`etag`, `vary`, `x-cc-fault`) and names it has to share.
fn arb_colliding_name() -> impl Strategy<Value = String> {
    "(etag|ETag|Vary|vary|x-cc-fault|X-CC-Fault|x-custom|X-Custom|a|A)".prop_map(|s| s)
}

fn hash_of(name: &HeaderName) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut hasher);
    hasher.finish()
}

fn arb_headers() -> impl Strategy<Value = Vec<(String, String)>> {
    let name = prop_oneof![arb_token(), arb_colliding_name()];
    prop::collection::vec((name, arb_header_value()), 0..8).prop_map(|pairs| {
        // Avoid names that change framing semantics; those are
        // exercised deterministically in unit tests.
        pairs
            .into_iter()
            .filter(|(n, _)| {
                let n = n.to_ascii_lowercase();
                n != "content-length" && n != "transfer-encoding"
            })
            .collect()
    })
}

fn arb_path() -> impl Strategy<Value = String> {
    "(/[a-z0-9._\\-]{1,12}){1,4}(\\?[a-z0-9=&]{1,20})?".prop_map(|s| s)
}

fn arb_method() -> impl Strategy<Value = Method> {
    prop_oneof![
        (0usize..9).prop_map(|i| {
            [
                Method::Get,
                Method::Head,
                Method::Post,
                Method::Put,
                Method::Delete,
                Method::Connect,
                Method::Options,
                Method::Trace,
                Method::Patch,
            ][i]
                .clone()
        }),
        arb_token().prop_map(Method::Extension),
    ]
}

fn arb_body() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..2048)
}

proptest! {
    /// encode → parse is the identity for requests.
    #[test]
    fn request_roundtrips(path in arb_path(), headers in arb_headers(), body in arb_body()) {
        let mut req = Request::get(&path);
        for (n, v) in &headers {
            req.headers.append(n, v);
        }
        if !body.is_empty() {
            req.method = Method::Post;
            req.headers.insert("content-length", &body.len().to_string());
            req.body = Bytes::from(body);
        }
        let wire = encode_request(&req);
        let parsed = parse_request(&wire, &ParseLimits::default()).unwrap();
        match parsed {
            Parsed::Complete { message, consumed } => {
                prop_assert_eq!(message, req);
                prop_assert_eq!(consumed, wire.len());
            }
            Parsed::Partial => prop_assert!(false, "complete message parsed as partial"),
        }
    }

    /// `Request::wire_len` is the encoder's output length, whatever
    /// the method, target, headers and body — the request-side twin of
    /// the `Response::wire_len` guarantee.
    #[test]
    fn request_wire_len_matches_the_encoder(
        method in arb_method(),
        path in arb_path(),
        headers in arb_headers(),
        body in arb_body(),
    ) {
        let mut req = Request::get(&path);
        req.method = method;
        for (n, v) in &headers {
            req.headers.append(n, v);
        }
        req.body = Bytes::from(body);
        prop_assert_eq!(req.wire_len(), encode_request(&req).len());
    }

    /// encode → parse is the identity for responses.
    #[test]
    fn response_roundtrips(code in 200u16..=599, headers in arb_headers(), body in arb_body()) {
        let status = StatusCode::new(code).unwrap();
        let mut resp = if status.is_bodyless() {
            Response::empty(status)
        } else {
            let mut r = Response::ok(body.clone());
            r.status = status;
            r
        };
        for (n, v) in &headers {
            resp.headers.append(n, v);
        }
        let wire = encode_response(&resp);
        let parsed = parse_response(&wire, &Method::Get, &ParseLimits::default()).unwrap();
        match parsed {
            Parsed::Complete { message, consumed } => {
                // Re-encoding what was parsed gives the same bytes:
                // names come back lowercased and in wire order.
                prop_assert_eq!(encode_response(&message), wire.clone());
                prop_assert_eq!(message, resp);
                prop_assert_eq!(consumed, wire.len());
            }
            Parsed::Partial => prop_assert!(false, "complete message parsed as partial"),
        }
    }

    /// Every strict prefix of an encoded message parses as Partial —
    /// the parser never commits early or errors on valid prefixes.
    #[test]
    fn prefixes_are_partial(path in arb_path(), body in arb_body()) {
        let mut resp = Response::ok(body);
        resp.headers.insert("x-path", &path.replace('?', "-"));
        let wire = encode_response(&resp);
        // Sample a handful of cut points rather than all (perf).
        for cut in [0, 1, wire.len() / 3, wire.len() / 2, wire.len().saturating_sub(1)] {
            let r = parse_response(&wire[..cut], &Method::Get, &ParseLimits::default()).unwrap();
            prop_assert_eq!(r, Parsed::Partial);
        }
    }

    /// Chunked encode → decode is the identity regardless of chunk size.
    #[test]
    fn chunked_roundtrips(body in arb_body(), chunk in 1usize..512) {
        let encoded = cachecatalyst_httpwire::chunked::encode(&body, chunk);
        let (decoded, consumed) =
            cachecatalyst_httpwire::chunked::decode(&encoded, 1 << 20).unwrap().unwrap();
        prop_assert_eq!(&decoded[..], &body[..]);
        prop_assert_eq!(consumed, encoded.len());
    }

    /// HTTP dates roundtrip for any timestamp within 1970..=2199.
    #[test]
    fn dates_roundtrip(secs in 0i64..7_258_118_400) {
        let d = HttpDate(secs);
        let s = d.to_imf_fixdate();
        prop_assert_eq!(HttpDate::parse_imf_fixdate(&s).unwrap(), d);
    }

    /// Cache-Control parse → display → parse is a fixed point.
    #[test]
    fn cache_control_fixed_point(
        no_store: bool, no_cache: bool, public: bool, immutable: bool,
        max_age in prop::option::of(0u64..10_000_000),
    ) {
        let mut cc = CacheControl::new();
        cc.no_store = no_store;
        cc.no_cache = no_cache;
        cc.public = public;
        cc.immutable = immutable;
        cc.max_age = max_age.map(std::time::Duration::from_secs);
        let rendered = cc.to_string();
        prop_assert_eq!(CacheControl::parse(&rendered), cc);
    }

    /// Entity tags roundtrip and comparison is reflexive/symmetric.
    #[test]
    fn etag_roundtrip(opaque in "[a-zA-Z0-9+/=._\\-]{1,32}", weak: bool) {
        let tag = if weak {
            EntityTag::weak(opaque.clone()).unwrap()
        } else {
            EntityTag::strong(opaque.clone()).unwrap()
        };
        let parsed: EntityTag = tag.to_string().parse().unwrap();
        prop_assert_eq!(&parsed, &tag);
        prop_assert!(tag.weak_eq(&parsed));
        prop_assert_eq!(tag.strong_eq(&parsed), !weak);
    }

    /// HeaderMap get/insert/remove behave like a case-insensitive map.
    #[test]
    fn header_map_model(ops in prop::collection::vec(
        (arb_token(), arb_header_value(), any::<bool>()), 1..24)
    ) {
        let mut map = HeaderMap::new();
        let mut model: Vec<(String, String)> = Vec::new();
        for (name, value, is_insert) in ops {
            let lname = name.to_ascii_lowercase();
            if is_insert {
                map.insert(&name, &value);
                model.retain(|(n, _)| *n != lname);
                model.push((lname.clone(), value.clone()));
            } else {
                map.append(&name, &value);
                model.push((lname.clone(), value.clone()));
            }
            prop_assert_eq!(map.len(), model.len());
            let expect_first = model.iter().find(|(n, _)| *n == lname).map(|(_, v)| v.as_str());
            prop_assert_eq!(map.get(&lname), expect_first);
        }
    }

    /// Copy-on-write is invisible: maps cloned from one another at
    /// random points each behave like their own `Vec` of pairs, and a
    /// write through one never shows in another.
    #[test]
    fn header_map_clones_are_independent(ops in prop::collection::vec(
        (0u8..4, arb_colliding_name(), arb_header_value(), any::<usize>()), 1..40)
    ) {
        let mut maps = vec![HeaderMap::new()];
        let mut models: Vec<Vec<(String, String)>> = vec![Vec::new()];
        for (op, name, value, pick) in ops {
            let at = pick % maps.len();
            let lname = name.to_ascii_lowercase();
            match op {
                0 => {
                    maps[at].insert(&name, &value);
                    models[at].retain(|(n, _)| *n != lname);
                    models[at].push((lname, value));
                }
                1 => {
                    maps[at].append(&name, &value);
                    models[at].push((lname, value));
                }
                2 => {
                    let before = models[at].len();
                    models[at].retain(|(n, _)| *n != lname);
                    prop_assert_eq!(maps[at].remove(&name), before - models[at].len());
                }
                _ => {
                    maps.push(maps[at].clone());
                    models.push(models[at].clone());
                }
            }
            for (map, model) in maps.iter().zip(&models) {
                let seen: Vec<(&str, &str)> =
                    map.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
                let expected: Vec<(&str, &str)> =
                    model.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
                prop_assert_eq!(seen, expected);
            }
        }
    }

    /// A name compares, hashes, orders and prints by its lowercased
    /// string, whether it is held as a static string or a shared one.
    #[test]
    fn header_names_go_by_their_lowercased_string(
        a in prop_oneof![arb_colliding_name(), arb_token()],
        b in prop_oneof![arb_colliding_name(), arb_token()],
    ) {
        let (name_a, name_b) = (HeaderName::new(&a).unwrap(), HeaderName::new(&b).unwrap());
        let (lower_a, lower_b) = (a.to_ascii_lowercase(), b.to_ascii_lowercase());
        prop_assert_eq!(name_a.as_str(), lower_a.as_str());
        prop_assert_eq!(name_a.to_string(), lower_a.clone());
        prop_assert_eq!(name_a == name_b, lower_a == lower_b);
        prop_assert_eq!(name_a.cmp(&name_b), lower_a.cmp(&lower_b));
        if lower_a == lower_b {
            prop_assert_eq!(hash_of(&name_a), hash_of(&name_b));
        }
        // Every spelling of a name is the same name.
        let respelled = HeaderName::new(&a.to_ascii_uppercase()).unwrap();
        prop_assert_eq!(hash_of(&respelled), hash_of(&name_a));
        prop_assert_eq!(respelled, name_a);
    }
}

proptest! {
    /// The request parser never panics on arbitrary bytes: any input is
    /// either a complete message, a valid prefix, or a clean error.
    #[test]
    fn parse_request_never_panics(input in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = parse_request(&input, &ParseLimits::default());
    }

    /// Same for the response parser (under every request method shape).
    #[test]
    fn parse_response_never_panics(input in prop::collection::vec(any::<u8>(), 0..2048), head: bool) {
        let method = if head { Method::Head } else { Method::Get };
        let _ = parse_response(&input, &method, &ParseLimits::default());
    }

    /// Near-valid inputs (a real message with bytes mutated) also never
    /// panic — exercising deeper parser states than pure noise does.
    #[test]
    fn mutated_messages_never_panic(
        body in prop::collection::vec(any::<u8>(), 0..256),
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..8),
    ) {
        let resp = Response::ok(body).with_header("etag", "\"x\"");
        let mut wire = encode_response(&resp).to_vec();
        for (pos, byte) in flips {
            let idx = pos % wire.len().max(1);
            if idx < wire.len() {
                wire[idx] = byte;
            }
        }
        let _ = parse_response(&wire, &Method::Get, &ParseLimits::default());
        let _ = parse_response_eof(&wire, &Method::Get, &ParseLimits::default());
        let _ = parse_request(&wire, &ParseLimits::default());
        let _ = cachecatalyst_httpwire::chunked::decode(&wire, 1 << 16);
    }

    /// Every truncation point of a framed response either parses as
    /// Partial (incremental API) or fails cleanly as a truncated
    /// message (EOF API) — the parser never fabricates a message from
    /// a cut-off body and never panics. This is exactly the input the
    /// fault injector's reset-mid-body/truncate faults put on the wire.
    #[test]
    fn truncated_responses_fail_cleanly(
        body in prop::collection::vec(any::<u8>(), 1..512),
        frac in 0.0f64..1.0,
    ) {
        let resp = Response::ok(body).with_header("etag", "\"trunc\"");
        let wire = encode_response(&resp);
        let cut = ((wire.len() as f64 * frac) as usize).min(wire.len() - 1);
        let prefix = &wire[..cut];
        // Incremental parse: a strict prefix of a valid message is
        // Partial, never Complete and never an error.
        prop_assert_eq!(
            parse_response(prefix, &Method::Get, &ParseLimits::default()).unwrap(),
            Parsed::Partial
        );
        // EOF parse (connection closed mid-message): the framed body
        // never completed, so this must be a clean UnexpectedEof — not
        // a short message that silently passes for the real one.
        match parse_response_eof(prefix, &Method::Get, &ParseLimits::default()) {
            Err(WireError::UnexpectedEof) => {}
            other => prop_assert!(false, "truncated parse_response_eof gave {other:?}"),
        }
    }

    /// parse_response_eof never panics on arbitrary byte soup.
    #[test]
    fn parse_response_eof_never_panics(
        input in prop::collection::vec(any::<u8>(), 0..2048),
        head: bool,
    ) {
        let method = if head { Method::Head } else { Method::Get };
        let _ = parse_response_eof(&input, &method, &ParseLimits::default());
    }

    /// A head larger than `max_head` is rejected with HeadTooLarge —
    /// both before the terminator arrives (unbounded buffering) and
    /// after (oversized but complete) — never with a panic or an OOM.
    #[test]
    fn oversized_heads_are_rejected(
        max_head in 16usize..256,
        pad in 1usize..512,
        complete: bool,
    ) {
        let limits = ParseLimits { max_head, max_body: 1 << 20 };
        let mut wire = b"HTTP/1.1 200 OK\r\nx-pad: ".to_vec();
        wire.resize(wire.len() + max_head + pad, b'a');
        if complete {
            wire.extend_from_slice(b"\r\ncontent-length: 0\r\n\r\n");
        }
        match parse_response(&wire, &Method::Get, &limits) {
            Err(WireError::HeadTooLarge { limit }) => prop_assert_eq!(limit, max_head),
            other => prop_assert!(false, "oversized head gave {other:?}"),
        }
        match parse_response_eof(&wire, &Method::Get, &limits) {
            Err(WireError::HeadTooLarge { limit }) if complete => {
                prop_assert_eq!(limit, max_head);
            }
            // Headless input at EOF is UnexpectedEof before any size
            // check can run; both are clean rejections.
            Err(_) => {}
            other => prop_assert!(false, "oversized head at EOF gave {other:?}"),
        }
    }

    /// A declared or actual body larger than `max_body` is rejected
    /// with BodyTooLarge before the parser buffers it, for all three
    /// framings: content-length, chunked, and EOF-delimited.
    #[test]
    fn oversized_bodies_are_rejected(
        max_body in 8usize..128,
        over in 1usize..256,
        chunk in 1usize..64,
    ) {
        let limits = ParseLimits { max_head: 64 * 1024, max_body };
        let body = vec![b'b'; max_body + over];

        // content-length framing: the declaration alone trips the limit.
        let declared = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        match parse_response(declared.as_bytes(), &Method::Get, &limits) {
            Err(WireError::BodyTooLarge { limit }) => prop_assert_eq!(limit, max_body),
            other => prop_assert!(false, "oversized declared body gave {other:?}"),
        }

        // chunked framing: the decoder stops once the running total
        // crosses the limit.
        let mut chunked_wire =
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
        chunked_wire.extend_from_slice(&cachecatalyst_httpwire::chunked::encode(&body, chunk));
        match parse_response(&chunked_wire, &Method::Get, &limits) {
            Err(WireError::BodyTooLarge { limit }) => prop_assert_eq!(limit, max_body),
            other => prop_assert!(false, "oversized chunked body gave {other:?}"),
        }

        // EOF-delimited framing: the bytes actually received trip it.
        let mut eof_wire = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
        eof_wire.extend_from_slice(&body);
        match parse_response_eof(&eof_wire, &Method::Get, &limits) {
            Err(WireError::BodyTooLarge { limit }) => prop_assert_eq!(limit, max_body),
            other => prop_assert!(false, "oversized EOF body gave {other:?}"),
        }
    }
}

/// Whether `inner`'s bytes lie inside `outer`'s.
fn lies_within(inner: &[u8], outer: &[u8]) -> bool {
    let (i, o) = (inner.as_ptr_range(), outer.as_ptr_range());
    o.start <= i.start && i.end <= o.end
}

/// A `200` carrying `body` in chunks of `chunk` bytes.
fn chunked_response(body: &[u8], chunk: usize) -> Vec<u8> {
    let mut wire = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
    wire.extend_from_slice(&cachecatalyst_httpwire::chunked::encode(body, chunk));
    wire
}

/// Both response entry points over the same bytes, under both request
/// methods and under limits the input does and does not fit.
fn assert_entry_points_agree(input: &[u8]) {
    let tight = ParseLimits {
        max_head: 48,
        max_body: 24,
    };
    let shared = Bytes::from(input.to_vec());
    for limits in [ParseLimits::default(), tight] {
        for method in [Method::Get, Method::Head] {
            assert_eq!(
                parse_response_shared(&shared, &method, &limits),
                parse_response(input, &method, &limits),
                "{method:?} {limits:?} {:?}",
                Bytes::copy_from_slice(input)
            );
        }
    }
}

proptest! {
    /// One parser, two entry points: on garbage, on a valid message,
    /// on its truncations and mutations, on chunked framing and over
    /// the limits, `parse_response_shared` and `parse_response` give
    /// the same `Complete { message, consumed }`, `Partial` or error.
    #[test]
    fn both_response_entry_points_agree(
        garbage in prop::collection::vec(any::<u8>(), 0..2048),
        code in 200u16..=599,
        headers in arb_headers(),
        body in arb_body(),
        frac in 0.0f64..1.0,
        chunk in 1usize..512,
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..8),
    ) {
        assert_entry_points_agree(&garbage);

        let mut resp = Response::ok(body.clone());
        resp.status = StatusCode::new(code).unwrap();
        for (n, v) in &headers {
            resp.headers.append(n, v);
        }
        let wire = encode_response(&resp).to_vec();
        for framed in [wire, chunked_response(&body, chunk)] {
            assert_entry_points_agree(&framed);
            assert_entry_points_agree(&framed[..(framed.len() as f64 * frac) as usize]);
            // Pipelined bytes after the message are not consumed.
            assert_entry_points_agree(&[&framed[..], &garbage[..]].concat());
            let mut mutated = framed;
            for (pos, byte) in &flips {
                let at = pos % mutated.len();
                mutated[at] = *byte;
            }
            assert_entry_points_agree(&mutated);
        }
    }

    /// What differs is where the body lives: a `Content-Length` body
    /// parsed from a shared buffer is a view into it (and still the
    /// message that was encoded); the copying entry point's is not; a
    /// chunked body is decoded into a buffer of its own either way.
    /// The view is a new `Body`, with nothing remembered about it.
    #[test]
    fn a_shared_parse_aliases_a_length_framed_body_and_nothing_else(
        headers in arb_headers(),
        body in prop::collection::vec(any::<u8>(), 1..2048),
        chunk in 1usize..512,
    ) {
        let mut resp = Response::ok(body.clone());
        for (n, v) in &headers {
            resp.headers.append(n, v);
        }
        resp.body.digest();
        let wire = encode_response(&resp);
        let limits = ParseLimits::default();
        let Ok(Parsed::Complete { message, consumed }) =
            parse_response_shared(&wire, &Method::Get, &limits)
        else {
            panic!("an encoded response did not parse");
        };
        prop_assert_eq!(consumed, wire.len());
        prop_assert!(lies_within(&message.body, &wire));
        prop_assert_eq!(message.body.known_digest(), None);
        prop_assert_eq!(encode_response(&message), wire.clone());
        prop_assert_eq!(&message, &resp);
        let Ok(Parsed::Complete { message: copied, .. }) =
            parse_response(&wire, &Method::Get, &limits)
        else {
            panic!("an encoded response did not parse");
        };
        prop_assert!(!lies_within(&copied.body, &wire));

        let chunked_wire = Bytes::from(chunked_response(&body, chunk));
        let Ok(Parsed::Complete { message, consumed }) =
            parse_response_shared(&chunked_wire, &Method::Get, &limits)
        else {
            panic!("a chunked response did not parse");
        };
        prop_assert_eq!(consumed, chunked_wire.len());
        prop_assert_eq!(&message.body[..], &body[..]);
        prop_assert!(!lies_within(&message.body, &chunked_wire));
        prop_assert_eq!(message.body.known_digest(), None);
    }
}
