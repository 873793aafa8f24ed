//! Incremental HTTP/1.1 message parsing and serialization.
//!
//! The parsers are *incremental*: they take a buffer of bytes received
//! so far and either produce a complete message (plus the number of
//! bytes consumed), report that more bytes are needed, or fail. This is
//! the shape an async read loop wants — feed, try, repeat.
//!
//! The buffer's type decides where a parsed body lives ([`WireBuf`]).
//! From a [`Bytes`], which is already shared, a `Content-Length` or
//! EOF-delimited body is a view of the buffer: nothing is copied, and
//! the view keeps the whole buffer alive — head included, and a catalyst
//! page's map lines alone can be ≈ 18 KiB — for as long as the body
//! lives. From any other buffer (`[u8]`, `[u8; N]`, `Vec<u8>`,
//! `BytesMut`) the body is copied out and the buffer is free to go. A
//! chunked body is decoded into a buffer of its own either way. View or
//! copy, the body is a new [`Body`](crate::Body) with nothing remembered
//! about it.
//!
//! Every line — a head's start line and field lines, a chunk-size line —
//! breaks at the CRLFs one scanner finds, eight bytes a step, exactly
//! where `split("\r\n")` breaks it.

use std::ops::Range;

use bytes::{BufMut, Bytes, BytesMut};

use crate::chunked;
use crate::error::{WireError, WireResult};
use crate::header::{HeaderMap, HeaderName, HeaderValue};
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

/// A buffer the parsers read a message from. Its type decides whether
/// a parsed body is a view or a copy: [`WireBuf::body`] copies, except
/// from a [`Bytes`], which hands out a view.
pub trait WireBuf: AsRef<[u8]> {
    /// `self[range]` as `Bytes`. By default a copy, so the caller may
    /// reuse or drop the buffer as soon as the parse returns.
    fn body(&self, range: Range<usize>) -> Bytes {
        Bytes::copy_from_slice(&self.as_ref()[range])
    }
}

/// A view of the buffer: one reference count, no bytes copied, and all
/// of the buffer kept alive for as long as the view lives.
impl WireBuf for Bytes {
    fn body(&self, range: Range<usize>) -> Bytes {
        self.slice(range)
    }
}

impl WireBuf for [u8] {}
impl<const N: usize> WireBuf for [u8; N] {}
impl WireBuf for Vec<u8> {}
impl WireBuf for BytesMut {}

/// How the body of a response is delimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyFraming {
    None,
    Length(u64),
    Chunked,
}

/// The index of the first `\r` in `bytes`, eight bytes a step. A byte of
/// `word ^ CRS` is zero exactly where `word` holds a CR; the zero-byte
/// test sets the top bit of the first such byte, and a borrow can set
/// bits above it, never below.
fn find_cr(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const CRS: u64 = u64::from_ne_bytes([b'\r'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let word: [u8; 8] = word.try_into().expect("chunks of eight");
        let x = u64::from_le_bytes(word) ^ CRS;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = bytes.len() - tail.len();
    tail.iter().position(|&b| b == b'\r').map(|i| at + i)
}

/// The start of the first CRLF in `bytes` at or after `from`: the one
/// line scanner under heads, field lines and chunk-size lines. It steps
/// from one `\r` to the next and checks the byte after it, so lines
/// break exactly where `split("\r\n")` breaks them and a bare CR or LF
/// stays inside its line. (Stepping with `str::find('\r')` instead was
/// 2–3× slower on a ten-line head, on one x86-64 core: most lines are
/// too short for its search to pay for its set-up.)
pub(crate) fn find_crlf(bytes: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    loop {
        let cr = at + find_cr(&bytes[at..])?;
        if bytes.get(cr + 1) == Some(&b'\n') {
            return Some(cr);
        }
        at = cr + 1;
    }
}

/// Where the head at the front of `buf` ends — just past the first
/// CRLF CRLF — and how many field lines it holds, once that far has
/// arrived.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let (mut line, mut lines) = (0, 0);
    loop {
        let cr = find_crlf(buf, line)?;
        if cr == line && lines > 0 {
            return Some((cr + 2, lines - 1));
        }
        lines += 1;
        line = cr + 2;
    }
}

/// Splits `head` — a start line and `fields` field lines, each ending
/// in CRLF — into the start line and its fields, collected into one
/// `Vec` of the right size and made a map once.
fn parse_head(head: &[u8], fields: usize) -> WireResult<(&str, HeaderMap)> {
    let text = std::str::from_utf8(head)
        .map_err(|_| WireError::InvalidHeader("non-utf8 head".to_owned()))?;
    let mut at = 0;
    let mut lines = std::iter::from_fn(|| {
        let cr = find_crlf(text.as_bytes(), at)?;
        let line = &text[at..cr];
        at = cr + 2;
        Some(line)
    });
    let start = lines.next().unwrap_or_default();
    let mut entries = Vec::with_capacity(fields);
    for line in lines {
        entries.push(parse_field(line)?);
    }
    Ok((start, HeaderMap::from_entries(entries)))
}

fn parse_field(line: &str) -> WireResult<(HeaderName, HeaderValue)> {
    // Obsolete line folding (leading whitespace) is rejected.
    if line.starts_with([' ', '\t']) {
        return Err(WireError::InvalidHeader(line.to_owned()));
    }
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| WireError::InvalidHeader(line.to_owned()))?;
    // RFC 9112 §5.1: no whitespace between name and colon.
    if name.ends_with([' ', '\t']) {
        return Err(WireError::InvalidHeader(line.to_owned()));
    }
    Ok((HeaderName::new(name)?, HeaderValue::new(value)?))
}

/// A message head: its start line, its fields, and its length on the
/// wire (where the body starts).
struct Head<'a> {
    start: &'a str,
    headers: HeaderMap,
    len: usize,
}

/// Reads the head at the front of `buf`; `None` while it is incomplete.
/// Its blank line must arrive within `max_head` bytes, so no more than
/// that is ever scanned.
fn read_head<'a>(buf: &'a [u8], limits: &ParseLimits) -> WireResult<Option<Head<'a>>> {
    let Some((len, fields)) = find_head_end(&buf[..buf.len().min(limits.max_head)]) else {
        if buf.len() > limits.max_head {
            return Err(WireError::HeadTooLarge {
                limit: limits.max_head,
            });
        }
        return Ok(None);
    };
    let (start, headers) = parse_head(&buf[..len - 2], fields)?;
    Ok(Some(Head {
        start,
        headers,
        len,
    }))
}

fn parse_request_line(start: &str) -> WireResult<(Method, Target, Version)> {
    let mut parts = start.split(' ');
    let (Some(m), Some(t), Some(v), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(WireError::InvalidStartLine(start.to_owned()));
    };
    Ok((m.parse()?, Target::parse(t)?, Version::parse(v)?))
}

/// status-line = HTTP-version SP status-code SP [reason-phrase]
fn parse_status_line(start: &str) -> WireResult<(Version, StatusCode)> {
    let invalid = || WireError::InvalidStartLine(start.to_owned());
    let mut parts = start.splitn(3, ' ');
    let (Some(v), Some(code)) = (parts.next(), parts.next()) else {
        return Err(invalid());
    };
    let version = Version::parse(v)?;
    let code: u16 = code.parse().map_err(|_| invalid())?;
    Ok((version, StatusCode::new(code)?))
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

/// The body `framing` delimits after a head of `head_len` bytes, and
/// where the message ends; `None` until all of it is in `buf`. A
/// `Content-Length` body comes from [`WireBuf::body`]; a chunked one is
/// decoded into a buffer of its own.
fn framed_body<B: WireBuf + ?Sized>(
    buf: &B,
    head_len: usize,
    framing: BodyFraming,
    limits: &ParseLimits,
) -> WireResult<Option<(Bytes, usize)>> {
    let too_large = || WireError::BodyTooLarge {
        limit: limits.max_body,
    };
    let rest = &buf.as_ref()[head_len..];
    match framing {
        BodyFraming::None => Ok(Some((Bytes::new(), head_len))),
        BodyFraming::Length(n) => {
            let n = usize::try_from(n).map_err(|_| too_large())?;
            if n > limits.max_body {
                return Err(too_large());
            }
            if rest.len() < n {
                return Ok(None);
            }
            Ok(Some((buf.body(head_len..head_len + n), head_len + n)))
        }
        BodyFraming::Chunked => {
            Ok(chunked::decode(rest, limits.max_body)?.map(|(body, used)| (body, head_len + used)))
        }
    }
}

/// Attempts to parse one complete request from the front of `buf`. A
/// `Content-Length` body is a view of `buf` when `buf` is a [`Bytes`]
/// and a copy otherwise (see [`WireBuf`]).
pub fn parse_request<B: WireBuf + ?Sized>(
    buf: &B,
    limits: &ParseLimits,
) -> WireResult<Parsed<Request>> {
    let Some(head) = read_head(buf.as_ref(), limits)? else {
        return Ok(Parsed::Partial);
    };
    let (method, target, version) = parse_request_line(head.start)?;
    let framing = request_body_framing(&head.headers)?;
    let Some((body, consumed)) = framed_body(buf, head.len, framing, limits)? else {
        return Ok(Parsed::Partial);
    };
    Ok(Parsed::Complete {
        message: Request {
            method,
            target,
            version,
            headers: head.headers,
            body,
        },
        consumed,
    })
}

/// A response head, parsed and framed: what both response entry points
/// share.
struct ResponseHead {
    version: Version,
    status: StatusCode,
    headers: HeaderMap,
    framing: BodyFraming,
    len: usize,
}

impl ResponseHead {
    fn read(
        buf: &[u8],
        request_method: &Method,
        limits: &ParseLimits,
    ) -> WireResult<Option<ResponseHead>> {
        let Some(head) = read_head(buf, limits)? else {
            return Ok(None);
        };
        let (version, status) = parse_status_line(head.start)?;
        let framing = response_body_framing(status, request_method, &head.headers)?;
        Ok(Some(ResponseHead {
            version,
            status,
            headers: head.headers,
            framing,
            len: head.len,
        }))
    }

    /// No length and not chunked: the body runs to connection close.
    fn runs_to_close(&self) -> bool {
        self.framing == BodyFraming::Length(u64::MAX)
    }

    fn with_body(self, body: Bytes) -> Response {
        Response {
            version: self.version,
            status: self.status,
            headers: self.headers,
            body: body.into(),
        }
    }
}

/// Attempts to parse one complete response from the front of `buf`.
/// `request_method` is needed because HEAD responses have no body. A
/// `Content-Length` body is a view of `buf` when `buf` is a [`Bytes`] —
/// the edge's disk tier reading a record back, a client holding one
/// whole message — and a copy otherwise, so the caller's buffer is free
/// to go (see [`WireBuf`]).
pub fn parse_response<B: WireBuf + ?Sized>(
    buf: &B,
    request_method: &Method,
    limits: &ParseLimits,
) -> WireResult<Parsed<Response>> {
    let Some(head) = ResponseHead::read(buf.as_ref(), request_method, limits)? else {
        return Ok(Parsed::Partial);
    };
    if head.runs_to_close() {
        return Ok(Parsed::Partial);
    }
    let Some((body, consumed)) = framed_body(buf, head.len, head.framing, limits)? else {
        return Ok(Parsed::Partial);
    };
    Ok(Parsed::Complete {
        message: head.with_body(body),
        consumed,
    })
}

/// Completes a response whose body is delimited by connection close:
/// call this when the peer has closed and [`parse_response`] still says
/// `Partial`. The body is everything after the head, a view or a copy
/// by the same rule as [`parse_response`]'s.
pub fn parse_response_eof<B: WireBuf + ?Sized>(
    buf: &B,
    request_method: &Method,
    limits: &ParseLimits,
) -> WireResult<Response> {
    let bytes = buf.as_ref();
    let head =
        ResponseHead::read(bytes, request_method, limits)?.ok_or(WireError::UnexpectedEof)?;
    if !head.runs_to_close() {
        // The close may have raced a complete message; a framed body
        // that never completed is a truncated message.
        return match framed_body(buf, head.len, head.framing, limits)? {
            Some((body, _)) => Ok(head.with_body(body)),
            None => Err(WireError::UnexpectedEof),
        };
    }
    if head.headers.content_length()?.is_some() {
        // A declared length no buffer could hold never completes.
        return Err(WireError::UnexpectedEof);
    }
    if bytes.len() - head.len > limits.max_body {
        return Err(WireError::BodyTooLarge {
            limit: limits.max_body,
        });
    }
    let body = buf.body(head.len..bytes.len());
    Ok(head.with_body(body))
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
