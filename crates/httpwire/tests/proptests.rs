//! Property-based tests for the HTTP/1.1 codec and header semantics.

use bytes::{Bytes, BytesMut};
use cachecatalyst_httpwire::codec::{
    encode_request, encode_response, parse_request, parse_response, parse_response_eof,
    ParseLimits, Parsed,
};
use cachecatalyst_httpwire::{
    chunked, Body, CacheControl, EntityTag, HeaderMap, HeaderName, HttpDate, Method, Request,
    Response, StatusCode, WireBuf, WireError, WireResult,
};
use proptest::prelude::*;

/// The head and chunk-line scanners as they were before one CRLF
/// scanner replaced them: a head's end found by `windows(4)`, its lines
/// split by `str::split("\r\n")` and appended to a map one at a time,
/// chunk lines found by `windows(2)`. `find_head_end`, `parse_head` and
/// `find_crlf` are verbatim; around them, the parsers as they were for a
/// message with no body to frame, and the chunk decoder as it was with
/// its size sums checked as they are now. The rewrite must break,
/// accept and refuse exactly as these do.
mod reference {
    use bytes::{BufMut, Bytes, BytesMut};
    use cachecatalyst_httpwire::codec::{ParseLimits, Parsed};
    use cachecatalyst_httpwire::{
        Body, HeaderMap, Method, Request, Response, StatusCode, Target, Version, WireError,
        WireResult,
    };

    pub fn find_head_end(buf: &[u8]) -> Option<usize> {
        buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
    }

    pub fn parse_head(head: &[u8]) -> WireResult<(String, HeaderMap)> {
        let text = std::str::from_utf8(head)
            .map_err(|_| WireError::InvalidHeader("non-utf8 head".to_owned()))?;
        let mut lines = text.split("\r\n");
        let start = lines
            .next()
            .ok_or_else(|| WireError::InvalidStartLine(String::new()))?
            .to_owned();
        let mut headers = HeaderMap::new();
        for line in lines {
            if line.is_empty() {
                continue; // the blank line terminating the head
            }
            // Obsolete line folding (leading whitespace) is rejected.
            if line.starts_with(' ') || line.starts_with('\t') {
                return Err(WireError::InvalidHeader(line.to_owned()));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| WireError::InvalidHeader(line.to_owned()))?;
            // RFC 9112 §5.1: no whitespace between name and colon.
            if name.ends_with(' ') || name.ends_with('\t') {
                return Err(WireError::InvalidHeader(line.to_owned()));
            }
            headers.try_append(name, value)?;
        }
        Ok((start, headers))
    }

    pub fn find_crlf(buf: &[u8]) -> Option<usize> {
        buf.windows(2).position(|w| w == b"\r\n")
    }

    /// The head stage both parsers began with: `None` while incomplete.
    fn head(buf: &[u8], limits: &ParseLimits) -> WireResult<Option<(String, HeaderMap, usize)>> {
        let head_end = match find_head_end(buf) {
            Some(i) => i,
            None => {
                if buf.len() > limits.max_head {
                    return Err(WireError::HeadTooLarge {
                        limit: limits.max_head,
                    });
                }
                return Ok(None);
            }
        };
        if head_end > limits.max_head {
            return Err(WireError::HeadTooLarge {
                limit: limits.max_head,
            });
        }
        let (start, headers) = parse_head(&buf[..head_end - 2])?;
        Ok(Some((start, headers, head_end)))
    }

    /// `parse_request` for a head that frames no body.
    pub fn parse_request(buf: &[u8], limits: &ParseLimits) -> WireResult<Parsed<Request>> {
        let Some((start, headers, head_end)) = head(buf, limits)? else {
            return Ok(Parsed::Partial);
        };
        let mut parts = start.split(' ');
        let (m, t, v) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v), None) => (m, t, v),
            _ => return Err(WireError::InvalidStartLine(start.clone())),
        };
        let method: Method = m.parse()?;
        let target = Target::parse(t)?;
        let version = Version::parse(v)?;
        let message = Request {
            method,
            target,
            version,
            headers,
            body: Bytes::new(),
        };
        Ok(Parsed::Complete {
            message,
            consumed: head_end,
        })
    }

    /// `parse_response` to a HEAD request, which frames no body.
    pub fn parse_head_response(buf: &[u8], limits: &ParseLimits) -> WireResult<Parsed<Response>> {
        let Some((start, headers, head_end)) = head(buf, limits)? else {
            return Ok(Parsed::Partial);
        };
        let mut parts = start.splitn(3, ' ');
        let (v, code) = match (parts.next(), parts.next()) {
            (Some(v), Some(c)) => (v, c),
            _ => return Err(WireError::InvalidStartLine(start.clone())),
        };
        let version = Version::parse(v)?;
        let code: u16 = code
            .parse()
            .map_err(|_| WireError::InvalidStartLine(start.clone()))?;
        let status = StatusCode::new(code)?;
        let message = Response {
            version,
            status,
            headers,
            body: Body::new(),
        };
        Ok(Parsed::Complete {
            message,
            consumed: head_end,
        })
    }

    /// `chunked::decode` on `find_crlf`, its size sums checked.
    pub fn decode(buf: &[u8], max_body: usize) -> WireResult<Option<(Bytes, usize)>> {
        let mut body = BytesMut::new();
        let mut pos = 0usize;
        loop {
            let line_end = match find_crlf(&buf[pos..]) {
                Some(i) => pos + i,
                None => return Ok(None),
            };
            let line = std::str::from_utf8(&buf[pos..line_end])
                .map_err(|_| WireError::InvalidChunkSize("non-utf8".to_owned()))?;
            let size_str = line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_str, 16)
                .map_err(|_| WireError::InvalidChunkSize(size_str.to_owned()))?;
            pos = line_end + 2;
            if size == 0 {
                loop {
                    let t_end = match find_crlf(&buf[pos..]) {
                        Some(i) => pos + i,
                        None => return Ok(None),
                    };
                    let line_len = t_end - pos;
                    pos = t_end + 2;
                    if line_len == 0 {
                        return Ok(Some((body.freeze(), pos)));
                    }
                }
            }
            let total = body.len().checked_add(size);
            let end = pos.checked_add(size).and_then(|n| n.checked_add(2));
            let (Some(total), Some(end)) = (total, end) else {
                return Err(WireError::BodyTooLarge { limit: max_body });
            };
            if total > max_body {
                return Err(WireError::BodyTooLarge { limit: max_body });
            }
            if buf.len() < end {
                return Ok(None);
            }
            body.put_slice(&buf[pos..pos + size]);
            if &buf[pos + size..end] != b"\r\n" {
                return Err(WireError::InvalidChunkFraming);
            }
            pos = end;
        }
    }
}

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

/// What can be awkward about a head or chunk line: bare CR and LF,
/// CR CR LF, obs-fold, whitespace before a colon, a stray colon, bytes
/// that are not UTF-8. No piece names a framing field.
const AWKWARD: [&[u8]; 12] = [
    b"\r",
    b"\n",
    b"\r\n",
    b"\r\r\n",
    b" ",
    b"\t",
    b"\r\n ",
    b"\r\n\t",
    b":",
    b"\xff",
    b"\xc3",
    "\u{e9}".as_bytes(),
];

/// Start lines that parse as a response's, as a request's, or as
/// neither.
const START_LINES: [&str; 3] = [
    "HTTP/1.1 200 OK",
    "GET /a?b=1 HTTP/1.1",
    "HTTP/1.1 999 Nope",
];

fn arb_awkward() -> impl Strategy<Value = &'static [u8]> {
    (0..AWKWARD.len()).prop_map(|i| AWKWARD[i])
}

/// An awkward piece one time in three, else nothing: most lines stay
/// well-formed, so a parse gets past its first line often enough to
/// reach the rest.
fn arb_flaw() -> impl Strategy<Value = &'static [u8]> {
    (0..AWKWARD.len() * 3).prop_map(|i| AWKWARD.get(i).copied().unwrap_or_default())
}

/// One field line with at most one awkward piece: before the name
/// (obs-fold), between name and colon, after the colon, inside the
/// value, or in place of the CRLF that ends it. One line in eight has
/// no colon at all.
fn arb_field_line() -> impl Strategy<Value = Vec<u8>> {
    (
        arb_token(),
        arb_header_value(),
        arb_flaw(),
        0usize..5,
        0u8..8,
    )
        .prop_map(|(name, value, awkward, at, colon)| {
            let (v1, v2) = value.split_at(value.len() / 2);
            let colon: &[u8] = if colon == 0 { b"" } else { b":" };
            let mut parts: Vec<&[u8]> = vec![
                name.as_bytes(),
                colon,
                b" ",
                v1.as_bytes(),
                v2.as_bytes(),
                b"\r\n",
            ];
            match at {
                4 if !awkward.is_empty() => parts[5] = awkward,
                4 => {}
                _ => parts.insert([0, 1, 3, 4][at], awkward),
            }
            parts.concat()
        })
}

/// Field lines, or a run of loose pieces.
fn arb_head_text() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(arb_field_line(), 0..10).prop_map(|lines| lines.concat()),
        prop::collection::vec(arb_awkward(), 0..16).prop_map(|pieces| pieces.concat()),
    ]
}

fn arb_start_line() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (0..START_LINES.len()).prop_map(|i| START_LINES[i].as_bytes().to_vec()),
        (0..START_LINES.len(), arb_awkward(), 0usize..16).prop_map(|(i, awkward, at)| {
            let line = START_LINES[i].as_bytes();
            let at = at.min(line.len());
            [&line[..at], awkward, &line[at..]].concat()
        }),
    ]
}

/// Chunked framing with an awkward piece here and there: size lines
/// (some with extensions), data that may itself hold CRs and LFs, the
/// zero chunk, trailer lines, each line end a CRLF or not quite one.
fn arb_chunked_text() -> impl Strategy<Value = Vec<u8>> {
    let chunk = (
        prop::collection::vec(any::<u8>(), 0..12),
        any::<bool>(),
        arb_flaw(),
        arb_flaw(),
    )
        .prop_map(|(data, ext, after_size, after_data)| {
            let ext = if ext { ";ext=1" } else { "" };
            let size = format!("{:x}{ext}", data.len());
            let end = |awkward: &'static [u8]| {
                if awkward.is_empty() {
                    &b"\r\n"[..]
                } else {
                    awkward
                }
            };
            [size.as_bytes(), end(after_size), &data, end(after_data)].concat()
        });
    let trailer = (arb_token(), arb_header_value(), arb_flaw()).prop_map(|(name, value, end)| {
        [format!("{name}: {value}").as_bytes(), end, b"\r\n"].concat()
    });
    (
        prop::collection::vec(chunk, 0..4),
        arb_flaw(),
        prop::collection::vec(trailer, 0..3),
        arb_flaw(),
    )
        .prop_map(|(chunks, after_zero, trailers, last)| {
            [
                chunks.concat(),
                b"0".to_vec(),
                after_zero.to_vec(),
                b"\r\n".to_vec(),
                trailers.concat(),
                last.to_vec(),
                b"\r\n".to_vec(),
            ]
            .concat()
        })
}

/// Every parser on `input` against the reference: under the default
/// limits, under `max_head`, and under limits a byte either side of
/// where the head ends and where the input ends.
fn assert_head_parses_as_before(input: &[u8], max_head: usize) {
    let shown = Bytes::copy_from_slice(input);
    let mut limits = vec![
        ParseLimits::default(),
        ParseLimits {
            max_head,
            max_body: 1 << 20,
        },
    ];
    for edge in [reference::find_head_end(input), Some(input.len())]
        .into_iter()
        .flatten()
    {
        for max_head in edge.saturating_sub(1)..=edge + 1 {
            limits.push(ParseLimits {
                max_head,
                max_body: 1 << 20,
            });
        }
    }
    for limits in limits {
        let expected = reference::parse_head_response(input, &limits);
        assert_eq!(
            parse_response(input, &Method::Head, &limits),
            expected,
            "{shown:?} {limits:?}"
        );
        let at_eof = match expected {
            Ok(Parsed::Complete { message, .. }) => Ok(message),
            Ok(Parsed::Partial) => Err(WireError::UnexpectedEof),
            Err(e) => Err(e),
        };
        assert_eq!(
            parse_response_eof(input, &Method::Head, &limits),
            at_eof,
            "{shown:?} {limits:?}"
        );
        assert_eq!(
            parse_request(input, &limits),
            reference::parse_request(input, &limits),
            "{shown:?} {limits:?}"
        );
    }
}

proptest! {
    /// One CRLF scanner breaks a head where `windows(4)` and
    /// `split("\r\n")` broke it, and the map built once holds what
    /// appending line by line held: on heads with bare CRs and LFs, CR
    /// CR LF, folded lines, missing colons and bytes that are not UTF-8,
    /// under limits the head fits, fits exactly, misses by a byte or
    /// does not fit, every parser accepts, refuses and consumes exactly
    /// as before.
    #[test]
    fn heads_break_where_the_parent_broke_them(
        heads in prop::collection::vec((arb_start_line(), arb_head_text(), any::<bool>()), 1..16),
        tail in prop::collection::vec(any::<u8>(), 0..16),
        max_head in 1usize..256,
    ) {
        for (start, fields, complete) in heads {
            let close: &[u8] = if complete { b"\r\n" } else { b"" };
            let input = [&start[..], b"\r\n", &fields, close, &tail].concat();
            assert_head_parses_as_before(&input, max_head);
        }
    }

    /// Chunk-size and trailer lines break where `windows(2)` broke them:
    /// on awkward framing, on an encoded body, on its truncations and on
    /// awkward framing after it, the decoder reads the same body,
    /// consumes the same bytes and refuses the same input as before.
    #[test]
    fn chunk_lines_break_where_the_parent_broke_them(
        awkward in arb_chunked_text(),
        body in arb_body(),
        chunk in 1usize..64,
        cut in any::<usize>(),
    ) {
        let encoded = chunked::encode(&body, chunk);
        let followed = [&encoded[..], &awkward].concat();
        let truncated = &encoded[..cut % (encoded.len() + 1)];
        for input in [&awkward[..], &encoded[..], truncated, &followed] {
            for max_body in [1 << 20, 16] {
                prop_assert_eq!(
                    chunked::decode(input, max_body),
                    reference::decode(input, max_body),
                    "{:?} {}", Bytes::copy_from_slice(input), max_body
                );
            }
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
    wire.extend_from_slice(&chunked::encode(body, chunk));
    wire
}

/// `wire` zero-padded to `N` bytes: one message, then bytes a parse of
/// it leaves unconsumed.
fn padded<const N: usize>(wire: &[u8]) -> [u8; N] {
    let mut array = [0u8; N];
    array[..wire.len()].copy_from_slice(wire);
    array
}

type Outcomes = Vec<(
    WireResult<Parsed<Request>>,
    WireResult<Parsed<Response>>,
    WireResult<Response>,
)>;

/// What all three parsers make of `buf`, under both request methods'
/// response framing and under limits the input does and does not fit.
fn outcomes<B: WireBuf + ?Sized>(buf: &B) -> Outcomes {
    let tight = ParseLimits {
        max_head: 48,
        max_body: 24,
    };
    let mut all = Vec::new();
    for limits in [ParseLimits::default(), tight] {
        for method in [Method::Get, Method::Head] {
            all.push((
                parse_request(buf, &limits),
                parse_response(buf, &method, &limits),
                parse_response_eof(buf, &method, &limits),
            ));
        }
    }
    all
}

/// The same bytes parse alike from each of the five buffer types. An
/// array holds its length in its type, so it is checked against a
/// slice of the same bytes: `input` cut or zero-padded to its length.
fn assert_buffers_agree(input: &[u8]) {
    let expected = outcomes(input);
    let shown = Bytes::copy_from_slice(input);
    assert_eq!(outcomes(&input.to_vec()), expected, "Vec<u8> {shown:?}");
    assert_eq!(
        outcomes(&BytesMut::from(input)),
        expected,
        "BytesMut {shown:?}"
    );
    assert_eq!(outcomes(&shown), expected, "Bytes {shown:?}");
    let array: [u8; 512] = padded(&input[..input.len().min(512)]);
    assert_eq!(outcomes(&array), outcomes(&array[..]), "array {shown:?}");
}

proptest! {
    /// A buffer's type decides where a body lives and nothing else: on
    /// garbage, on valid requests and responses, on their truncations,
    /// mutations and pipelined successors, on chunked framing and over
    /// tight limits, all five `WireBuf` types give the same `Parsed`,
    /// message or error from `parse_request`, `parse_response` and
    /// `parse_response_eof`.
    #[test]
    fn every_buffer_type_parses_alike(
        garbage in prop::collection::vec(any::<u8>(), 0..2048),
        code in 200u16..=599,
        path in arb_path(),
        headers in arb_headers(),
        body in arb_body(),
        frac in 0.0f64..1.0,
        chunk in 1usize..512,
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..8),
    ) {
        assert_buffers_agree(&garbage);

        let mut resp = Response::ok(body.clone());
        resp.status = StatusCode::new(code).unwrap();
        let mut req = Request::get(&path);
        req.method = Method::Post;
        for (n, v) in &headers {
            resp.headers.append(n, v);
            req.headers.append(n, v);
        }
        req.headers.insert("content-length", &body.len().to_string());
        req.body = Bytes::from(body.clone());
        let chunked_request = [
            &b"POST /up HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"[..],
            &chunked::encode(&body, chunk),
        ]
        .concat();
        for framed in [
            encode_response(&resp).to_vec(),
            chunked_response(&body, chunk),
            encode_request(&req).to_vec(),
            chunked_request,
        ] {
            assert_buffers_agree(&framed);
            assert_buffers_agree(&framed[..(framed.len() as f64 * frac) as usize]);
            // Pipelined bytes after the message are not consumed.
            assert_buffers_agree(&[&framed[..], &garbage[..]].concat());
            let mut mutated = framed;
            for (pos, byte) in &flips {
                let at = pos % mutated.len();
                mutated[at] = *byte;
            }
            assert_buffers_agree(&mutated);
        }
    }
}

/// The body of the response at the front of `buf`, and whether it lies
/// inside `buf`.
fn body_of<B: WireBuf + ?Sized>(buf: &B) -> (Body, bool) {
    let Ok(Parsed::Complete { message, .. }) =
        parse_response(buf, &Method::Get, &ParseLimits::default())
    else {
        panic!("an encoded response did not parse");
    };
    let aliased = lies_within(&message.body, buf.as_ref());
    (message.body, aliased)
}

proptest! {
    /// Where the body lives is all that differs: a `Content-Length` body
    /// parsed from a `Bytes` is a view into it (and still the message
    /// that was encoded), from the four other buffer types a copy, and a
    /// chunked body is decoded into a buffer of its own from all five.
    /// View or copy, the body is a new `Body` with nothing remembered
    /// about it.
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
        let Ok(Parsed::Complete { message, consumed }) =
            parse_response(&wire, &Method::Get, &ParseLimits::default())
        else {
            panic!("an encoded response did not parse");
        };
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(encode_response(&message), wire.clone());
        prop_assert_eq!(&message, &resp);

        for (framed, length_framed) in [(wire.to_vec(), true), (chunked_response(&body, chunk), false)] {
            let parses = [
                ("[u8]", body_of(&framed[..])),
                ("[u8; N]", body_of(&padded::<{ 1 << 14 }>(&framed))),
                ("Vec<u8>", body_of(&framed)),
                ("BytesMut", body_of(&BytesMut::from(&framed[..]))),
                ("Bytes", body_of(&Bytes::from(framed.clone()))),
            ];
            for (buffer, (parsed, aliased)) in parses {
                prop_assert_eq!(&parsed[..], &body[..], "{}", buffer);
                prop_assert_eq!(parsed.known_digest(), None, "{}", buffer);
                prop_assert_eq!(aliased, length_framed && buffer == "Bytes", "{}", buffer);
            }
        }
    }
}
