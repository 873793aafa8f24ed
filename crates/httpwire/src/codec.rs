//! Incremental HTTP/1.1 message parsing and serialization.
//!
//! The parsers are *incremental*: they take a buffer of bytes received
//! so far and either produce a complete message (plus the number of
//! bytes consumed), report that more bytes are needed, or fail. This is
//! the shape an async read loop wants — feed, try, repeat.

use std::ops::Range;

use bytes::{BufMut, Bytes, BytesMut};

use crate::chunked;
use crate::error::{WireError, WireResult};
use crate::header::HeaderMap;
use crate::message::{Request, Response, Version};
use crate::method::Method;
use crate::status::StatusCode;
use crate::target::Target;

/// Limits applied while parsing, to bound memory use.
#[derive(Debug, Clone, Copy)]
pub struct ParseLimits {
    /// Maximum size of the message head (start line + headers).
    pub max_head: usize,
    /// Maximum size of a message body.
    pub max_body: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_head: 64 * 1024,
            max_body: 64 * 1024 * 1024,
        }
    }
}

/// Outcome of an incremental parse attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed<T> {
    /// A complete message; `consumed` bytes of the input were used.
    Complete { message: T, consumed: usize },
    /// The input is a valid prefix; more bytes are required.
    Partial,
}

/// How the body of a response is delimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyFraming {
    None,
    Length(u64),
    Chunked,
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

fn parse_head(head: &[u8]) -> WireResult<(String, HeaderMap)> {
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

fn request_body_framing(headers: &HeaderMap) -> WireResult<BodyFraming> {
    if headers.is_chunked() {
        return Ok(BodyFraming::Chunked);
    }
    match headers.content_length()? {
        Some(0) | None => Ok(BodyFraming::None),
        Some(n) => Ok(BodyFraming::Length(n)),
    }
}

fn response_body_framing(
    status: StatusCode,
    request_method: &Method,
    headers: &HeaderMap,
) -> WireResult<BodyFraming> {
    if status.is_bodyless() || *request_method == Method::Head {
        return Ok(BodyFraming::None);
    }
    if headers.is_chunked() {
        return Ok(BodyFraming::Chunked);
    }
    match headers.content_length()? {
        Some(n) => Ok(BodyFraming::Length(n)),
        // No length, not chunked: body runs to connection close. The
        // incremental API cannot express that, so the caller uses
        // `parse_response_eof` when the connection closes.
        None => Ok(BodyFraming::Length(u64::MAX)),
    }
}

/// Attempts to parse one complete request from the front of `buf`.
pub fn parse_request(buf: &[u8], limits: &ParseLimits) -> WireResult<Parsed<Request>> {
    let head_end = match find_head_end(buf) {
        Some(i) => i,
        None => {
            if buf.len() > limits.max_head {
                return Err(WireError::HeadTooLarge {
                    limit: limits.max_head,
                });
            }
            return Ok(Parsed::Partial);
        }
    };
    if head_end > limits.max_head {
        return Err(WireError::HeadTooLarge {
            limit: limits.max_head,
        });
    }
    let (start, headers) = parse_head(&buf[..head_end - 2])?;
    let mut parts = start.split(' ');
    let (m, t, v) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(WireError::InvalidStartLine(start.clone())),
    };
    let method: Method = m.parse()?;
    let target = Target::parse(t)?;
    let version = Version::parse(v)?;

    let body_rest = &buf[head_end..];
    let (body, consumed) = match request_body_framing(&headers)? {
        BodyFraming::None => (Bytes::new(), head_end),
        BodyFraming::Length(n) => {
            let n = usize::try_from(n).map_err(|_| WireError::BodyTooLarge {
                limit: limits.max_body,
            })?;
            if n > limits.max_body {
                return Err(WireError::BodyTooLarge {
                    limit: limits.max_body,
                });
            }
            if body_rest.len() < n {
                return Ok(Parsed::Partial);
            }
            (Bytes::copy_from_slice(&body_rest[..n]), head_end + n)
        }
        BodyFraming::Chunked => match chunked::decode(body_rest, limits.max_body)? {
            Some((body, used)) => (body, head_end + used),
            None => return Ok(Parsed::Partial),
        },
    };

    Ok(Parsed::Complete {
        message: Request {
            method,
            target,
            version,
            headers,
            body,
        },
        consumed,
    })
}

/// Attempts to parse one complete response from the front of `buf`.
/// `request_method` is needed because HEAD responses have no body. The
/// body is a copy of its bytes: the caller's buffer is free to go.
pub fn parse_response(
    buf: &[u8],
    request_method: &Method,
    limits: &ParseLimits,
) -> WireResult<Parsed<Response>> {
    parse_response_with(buf, request_method, limits, |body| {
        Bytes::copy_from_slice(&buf[body])
    })
}

/// [`parse_response`] over a buffer that is already shared: a
/// `Content-Length` body is `buf.slice(..)`, a view that keeps all of
/// `buf` alive and copies nothing (a chunked body is decoded into a
/// buffer of its own either way). For a caller that holds the whole
/// message in one `Bytes` and would drop it after parsing — the edge's
/// disk tier reading a record back.
pub fn parse_response_shared(
    buf: &Bytes,
    request_method: &Method,
    limits: &ParseLimits,
) -> WireResult<Parsed<Response>> {
    parse_response_with(buf, request_method, limits, |body| buf.slice(body))
}

/// The response parser under both entry points, which differ only in
/// `take_body`: how a `Content-Length` body's range of `buf` becomes
/// `Bytes`.
fn parse_response_with(
    buf: &[u8],
    request_method: &Method,
    limits: &ParseLimits,
    take_body: impl FnOnce(Range<usize>) -> Bytes,
) -> WireResult<Parsed<Response>> {
    let head_end = match find_head_end(buf) {
        Some(i) => i,
        None => {
            if buf.len() > limits.max_head {
                return Err(WireError::HeadTooLarge {
                    limit: limits.max_head,
                });
            }
            return Ok(Parsed::Partial);
        }
    };
    if head_end > limits.max_head {
        return Err(WireError::HeadTooLarge {
            limit: limits.max_head,
        });
    }
    let (start, headers) = parse_head(&buf[..head_end - 2])?;
    // status-line = HTTP-version SP status-code SP [reason-phrase]
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

    let body_rest = &buf[head_end..];
    let (body, consumed) = match response_body_framing(status, request_method, &headers)? {
        BodyFraming::None => (Bytes::new(), head_end),
        BodyFraming::Length(u64::MAX) => return Ok(Parsed::Partial), // EOF-delimited
        BodyFraming::Length(n) => {
            let n = usize::try_from(n).map_err(|_| WireError::BodyTooLarge {
                limit: limits.max_body,
            })?;
            if n > limits.max_body {
                return Err(WireError::BodyTooLarge {
                    limit: limits.max_body,
                });
            }
            if body_rest.len() < n {
                return Ok(Parsed::Partial);
            }
            (take_body(head_end..head_end + n), head_end + n)
        }
        BodyFraming::Chunked => match chunked::decode(body_rest, limits.max_body)? {
            Some((body, used)) => (body, head_end + used),
            None => return Ok(Parsed::Partial),
        },
    };

    Ok(Parsed::Complete {
        message: Response {
            version,
            status,
            headers,
            body: body.into(),
        },
        consumed,
    })
}

/// Completes a response whose body is delimited by connection close:
/// call this when the peer has closed and [`parse_response`] still says
/// `Partial`.
pub fn parse_response_eof(
    buf: &[u8],
    request_method: &Method,
    limits: &ParseLimits,
) -> WireResult<Response> {
    // First try the normal path: the close may have raced a complete message.
    if let Parsed::Complete { message, .. } = parse_response(buf, request_method, limits)? {
        return Ok(message);
    }
    let head_end = find_head_end(buf).ok_or(WireError::UnexpectedEof)?;
    let (start, headers) = parse_head(&buf[..head_end - 2])?;
    let mut parts = start.splitn(3, ' ');
    let (v, code) = match (parts.next(), parts.next()) {
        (Some(v), Some(c)) => (v, c),
        _ => return Err(WireError::InvalidStartLine(start.clone())),
    };
    let version = Version::parse(v)?;
    let status = StatusCode::new(
        code.parse()
            .map_err(|_| WireError::InvalidStartLine(start.clone()))?,
    )?;
    if headers.is_chunked() || headers.content_length()?.is_some() {
        // Framed body that never completed: a truncated message.
        return Err(WireError::UnexpectedEof);
    }
    let body = &buf[head_end..];
    if body.len() > limits.max_body {
        return Err(WireError::BodyTooLarge {
            limit: limits.max_body,
        });
    }
    Ok(Response {
        version,
        status,
        headers,
        body: Bytes::copy_from_slice(body).into(),
    })
}

/// Serializes a request to wire format.
pub fn encode_request(req: &Request) -> Bytes {
    let mut out = BytesMut::with_capacity(256 + req.body.len());
    out.put_slice(req.method.as_str().as_bytes());
    out.put_u8(b' ');
    out.put_slice(req.target.as_str().as_bytes());
    out.put_u8(b' ');
    out.put_slice(req.version.as_str().as_bytes());
    out.put_slice(b"\r\n");
    encode_headers(&req.headers, &mut out);
    out.put_slice(b"\r\n");
    out.put_slice(&req.body);
    out.freeze()
}

/// Serializes a response to wire format. The body is emitted verbatim;
/// the caller is responsible for consistent framing headers (the
/// constructors in [`crate::message`] take care of that).
///
/// Exactly one allocation: the output buffer is sized up front from
/// [`response_head_len`], so head and body land in a single buffer
/// without regrowth.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut out = BytesMut::with_capacity(response_head_len(resp) + resp.body.len());
    encode_response_head_into(resp, &mut out);
    out.put_slice(&resp.body);
    out.freeze()
}

/// Serializes only the head (status line + headers + blank line) into
/// `out`. Lets a transport write head and body separately — the body
/// `Bytes` goes to the socket as-is, uncopied.
pub fn encode_response_head_into(resp: &Response, out: &mut BytesMut) {
    out.reserve(response_head_len(resp));
    out.put_slice(resp.version.as_str().as_bytes());
    out.put_u8(b' ');
    // Status codes are validated to 100..=599: always three digits.
    let code = resp.status.as_u16();
    out.put_u8(b'0' + (code / 100) as u8);
    out.put_u8(b'0' + (code / 10 % 10) as u8);
    out.put_u8(b'0' + (code % 10) as u8);
    out.put_u8(b' ');
    out.put_slice(resp.status.canonical_reason().as_bytes());
    out.put_slice(b"\r\n");
    encode_headers(&resp.headers, out);
    out.put_slice(b"\r\n");
}

/// The exact serialized size of a response head, by arithmetic rather
/// than by encoding (validated against `encode_response` in tests).
pub fn response_head_len(resp: &Response) -> usize {
    // "HTTP/1.1 200 OK\r\n" = version + SP + 3 digits + SP + reason + CRLF
    let status_line =
        resp.version.as_str().len() + 1 + 3 + 1 + resp.status.canonical_reason().len() + 2;
    status_line + headers_len(&resp.headers) + 2
}

/// The exact serialized size of a request head — the request-side twin
/// of [`response_head_len`] (validated against `encode_request` in
/// tests).
pub fn request_head_len(req: &Request) -> usize {
    // "GET /path?query HTTP/1.1\r\n"
    let target = req.target.as_str().len();
    let request_line = req.method.as_str().len() + 1 + target + 1 + req.version.as_str().len() + 2;
    request_line + headers_len(&req.headers) + 2
}

fn headers_len(headers: &HeaderMap) -> usize {
    headers
        .iter()
        .map(|(name, value)| name.as_str().len() + 2 + value.as_str().len() + 2)
        .sum()
}

fn encode_headers(headers: &HeaderMap, out: &mut BytesMut) {
    for (name, value) in headers.iter() {
        out.put_slice(name.as_str().as_bytes());
        out.put_slice(b": ");
        out.put_slice(value.as_str().as_bytes());
        out.put_slice(b"\r\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> ParseLimits {
        ParseLimits::default()
    }

    #[test]
    fn request_roundtrip() {
        let req = Request::get("/a/b?x=1")
            .with_header("host", "site.com")
            .with_header("if-none-match", "\"abc\"");
        let wire = encode_request(&req);
        match parse_request(&wire, &limits()).unwrap() {
            Parsed::Complete { message, consumed } => {
                assert_eq!(message, req);
                assert_eq!(consumed, wire.len());
            }
            Parsed::Partial => panic!("should be complete"),
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok("hello world").with_header("etag", "\"h1\"");
        let wire = encode_response(&resp);
        match parse_response(&wire, &Method::Get, &limits()).unwrap() {
            Parsed::Complete { message, consumed } => {
                assert_eq!(message, resp);
                assert_eq!(consumed, wire.len());
            }
            Parsed::Partial => panic!("should be complete"),
        }
    }

    #[test]
    fn incremental_parsing_every_split_point() {
        let resp = Response::ok("hello").with_header("x-test", "1");
        let wire = encode_response(&resp);
        for cut in 0..wire.len() {
            let r = parse_response(&wire[..cut], &Method::Get, &limits()).unwrap();
            assert_eq!(r, Parsed::Partial, "cut at {cut}");
        }
        assert!(matches!(
            parse_response(&wire, &Method::Get, &limits()).unwrap(),
            Parsed::Complete { .. }
        ));
    }

    #[test]
    fn pipelined_messages_report_consumed() {
        let a = encode_request(&Request::get("/a").with_header("host", "h"));
        let b = encode_request(&Request::get("/b").with_header("host", "h"));
        let mut buf = Vec::new();
        buf.extend_from_slice(&a);
        buf.extend_from_slice(&b);
        let Parsed::Complete { message, consumed } = parse_request(&buf, &limits()).unwrap() else {
            panic!()
        };
        assert_eq!(message.target.path(), "/a");
        assert_eq!(consumed, a.len());
        let Parsed::Complete { message, .. } = parse_request(&buf[consumed..], &limits()).unwrap()
        else {
            panic!()
        };
        assert_eq!(message.target.path(), "/b");
    }

    #[test]
    fn head_response_has_no_body() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\n";
        let Parsed::Complete { message, consumed } =
            parse_response(wire, &Method::Head, &limits()).unwrap()
        else {
            panic!()
        };
        assert!(message.body.is_empty());
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn not_modified_has_no_body_even_with_length() {
        // Some servers echo Content-Length on 304; the body must not be read.
        let wire = b"HTTP/1.1 304 Not Modified\r\ncontent-length: 5\r\n\r\n";
        let Parsed::Complete { message, .. } =
            parse_response(wire, &Method::Get, &limits()).unwrap()
        else {
            panic!()
        };
        assert_eq!(message.status, StatusCode::NOT_MODIFIED);
        assert!(message.body.is_empty());
    }

    #[test]
    fn chunked_response() {
        let wire =
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        let Parsed::Complete { message, consumed } =
            parse_response(wire, &Method::Get, &limits()).unwrap()
        else {
            panic!()
        };
        assert_eq!(&message.body[..], b"hello world");
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn eof_delimited_response() {
        let wire = b"HTTP/1.0 200 OK\r\n\r\nall the bytes until close";
        assert_eq!(
            parse_response(wire, &Method::Get, &limits()).unwrap(),
            Parsed::Partial
        );
        let resp = parse_response_eof(wire, &Method::Get, &limits()).unwrap();
        assert_eq!(&resp.body[..], b"all the bytes until close");
    }

    #[test]
    fn eof_with_truncated_framed_body_is_error() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nshort";
        assert_eq!(
            parse_response_eof(wire, &Method::Get, &limits()),
            Err(WireError::UnexpectedEof)
        );
    }

    #[test]
    fn rejects_bad_start_lines() {
        for bad in [
            "GET /\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "GET  HTTP/1.1\r\n\r\n",
            "/ GET HTTP/1.1\r\n\r\n",
        ] {
            assert!(parse_request(bad.as_bytes(), &limits()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rejects_whitespace_before_colon() {
        let wire = b"GET / HTTP/1.1\r\nhost : x\r\n\r\n";
        assert!(parse_request(wire, &limits()).is_err());
    }

    #[test]
    fn rejects_obsolete_line_folding() {
        let wire = b"GET / HTTP/1.1\r\nx: 1\r\n  2\r\n\r\n";
        assert!(parse_request(wire, &limits()).is_err());
    }

    #[test]
    fn head_size_limit_enforced() {
        let small = ParseLimits {
            max_head: 32,
            max_body: 1024,
        };
        let wire = b"GET / HTTP/1.1\r\nx-very-long-header-name: value\r\n\r\n";
        assert!(matches!(
            parse_request(wire, &small),
            Err(WireError::HeadTooLarge { .. })
        ));
        // Even without a complete head, an oversized buffer errors out.
        let junk = vec![b'a'; 64];
        assert!(matches!(
            parse_request(&junk, &small),
            Err(WireError::HeadTooLarge { .. })
        ));
    }

    #[test]
    fn body_size_limit_enforced() {
        let small = ParseLimits {
            max_head: 1024,
            max_body: 4,
        };
        let wire = b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\n0123456789";
        assert!(matches!(
            parse_request(wire, &small),
            Err(WireError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn head_length_arithmetic_matches_encoder() {
        let cases = [
            Response::ok("hello world").with_header("etag", "\"h1\""),
            Response::empty(StatusCode::NOT_FOUND),
            Response::not_modified(None),
            Response::ok("")
                .with_header("x-etag-config", "/a.css=\"t1\", /b.js=\"t2\"")
                .with_header("cache-control", "no-cache"),
        ];
        for resp in cases {
            let wire = encode_response(&resp);
            assert_eq!(
                response_head_len(&resp),
                wire.len() - resp.body.len(),
                "{resp:?}"
            );
            let mut head = BytesMut::new();
            encode_response_head_into(&resp, &mut head);
            assert_eq!(&head[..], &wire[..head.len()]);
            assert_eq!(resp.wire_len(), wire.len());
        }
    }

    #[test]
    fn request_with_body_roundtrip() {
        let mut req = Request::get("/post");
        req.method = Method::Post;
        req.body = Bytes::from_static(b"payload");
        req.headers.insert("content-length", "7");
        let wire = encode_request(&req);
        let Parsed::Complete { message, .. } = parse_request(&wire, &limits()).unwrap() else {
            panic!()
        };
        assert_eq!(message, req);
    }
}
