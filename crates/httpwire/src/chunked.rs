//! Chunked transfer coding (RFC 9112 §7.1).

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::find_crlf;
use crate::error::{WireError, WireResult};

/// Attempts to decode a complete chunked body from the front of `buf`.
///
/// Returns `Ok(Some((body, consumed)))` when the terminating zero chunk
/// (and trailer section) has been seen, `Ok(None)` when more input is
/// required, and an error on malformed framing.
pub fn decode(buf: &[u8], max_body: usize) -> WireResult<Option<(Bytes, usize)>> {
    let mut body = BytesMut::new();
    let mut pos = 0usize;
    loop {
        // chunk-size [;ext] CRLF
        let Some(line_end) = find_crlf(buf, pos) else {
            return Ok(None);
        };
        let line = std::str::from_utf8(&buf[pos..line_end])
            .map_err(|_| WireError::InvalidChunkSize("non-utf8".to_owned()))?;
        let size_str = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| WireError::InvalidChunkSize(size_str.to_owned()))?;
        pos = line_end + 2;
        if size == 0 {
            // Trailer section: zero or more header lines, then CRLF.
            loop {
                let Some(t_end) = find_crlf(buf, pos) else {
                    return Ok(None);
                };
                let line_len = t_end - pos;
                pos = t_end + 2;
                if line_len == 0 {
                    return Ok(Some((body.freeze(), pos)));
                }
            }
        }
        // The size is the peer's: a sum that overflows is a body no
        // limit admits, not a panic.
        let fits = body.len().checked_add(size).is_some_and(|n| n <= max_body);
        let chunk_end = pos.checked_add(size).and_then(|n| n.checked_add(2));
        let (true, Some(chunk_end)) = (fits, chunk_end) else {
            return Err(WireError::BodyTooLarge { limit: max_body });
        };
        if buf.len() < chunk_end {
            return Ok(None);
        }
        let data_end = chunk_end - 2;
        body.put_slice(&buf[pos..data_end]);
        if &buf[data_end..chunk_end] != b"\r\n" {
            return Err(WireError::InvalidChunkFraming);
        }
        pos = chunk_end;
    }
}

/// Encodes `data` as a chunked body using chunks of at most
/// `chunk_size` bytes, including the terminating zero chunk.
pub fn encode(data: &[u8], chunk_size: usize) -> Bytes {
    assert!(chunk_size > 0, "chunk size must be positive");
    let mut out = BytesMut::with_capacity(data.len() + 64);
    for chunk in data.chunks(chunk_size) {
        out.put_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.put_slice(chunk);
        out.put_slice(b"\r\n");
    }
    out.put_slice(b"0\r\n\r\n");
    out.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: usize = 1 << 20;

    #[test]
    fn roundtrip() {
        for chunk_size in [1, 3, 7, 1024] {
            let data = b"The quick brown fox jumps over the lazy dog";
            let encoded = encode(data, chunk_size);
            let (decoded, consumed) = decode(&encoded, MAX).unwrap().unwrap();
            assert_eq!(&decoded[..], data);
            assert_eq!(consumed, encoded.len());
        }
    }

    #[test]
    fn empty_body() {
        let encoded = encode(b"", 8);
        assert_eq!(&encoded[..], b"0\r\n\r\n");
        let (decoded, consumed) = decode(&encoded, MAX).unwrap().unwrap();
        assert!(decoded.is_empty());
        assert_eq!(consumed, 5);
    }

    #[test]
    fn partial_input_returns_none() {
        let encoded = encode(b"hello world", 4);
        for cut in 0..encoded.len() {
            assert_eq!(decode(&encoded[..cut], MAX).unwrap(), None, "cut {cut}");
        }
    }

    #[test]
    fn chunk_extensions_are_ignored() {
        let wire = b"5;ext=1\r\nhello\r\n0\r\n\r\n";
        let (decoded, _) = decode(wire, MAX).unwrap().unwrap();
        assert_eq!(&decoded[..], b"hello");
    }

    #[test]
    fn trailers_are_skipped() {
        let wire = b"5\r\nhello\r\n0\r\nx-checksum: abc\r\n\r\n";
        let (decoded, consumed) = decode(wire, MAX).unwrap().unwrap();
        assert_eq!(&decoded[..], b"hello");
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn rejects_bad_size() {
        assert!(decode(b"zz\r\nhello\r\n0\r\n\r\n", MAX).is_err());
    }

    #[test]
    fn rejects_missing_crlf_after_data() {
        assert!(decode(b"5\r\nhelloXX0\r\n\r\n", MAX).is_err());
    }

    #[test]
    fn enforces_body_limit() {
        let encoded = encode(&[0u8; 100], 10);
        assert!(matches!(
            decode(&encoded, 50),
            Err(WireError::BodyTooLarge { .. })
        ));
    }

    /// A chunk size near `usize::MAX` is a body no limit admits, on
    /// every entry point that decodes chunks: the running total and the
    /// chunk's end are summed checked, so the peer gets `BodyTooLarge`
    /// instead of panicking the parser.
    #[test]
    fn a_chunk_size_near_usize_max_is_too_large_not_a_panic() {
        use crate::codec::{parse_request, parse_response, ParseLimits};
        use crate::method::Method;
        let huge = format!("{:x}", usize::MAX);
        let chunks = format!("1\r\na\r\n{huge}\r\nrest");
        let too_large = |limit| WireError::BodyTooLarge { limit };
        assert_eq!(decode(chunks.as_bytes(), MAX), Err(too_large(MAX)));
        // Under no limit at all, it is the chunk's end that overflows.
        let unlimited = format!("{:x}\r\nrest", usize::MAX - 2);
        assert_eq!(
            decode(unlimited.as_bytes(), usize::MAX),
            Err(too_large(usize::MAX))
        );

        let limits = ParseLimits::default();
        let framing = "transfer-encoding: chunked\r\n\r\n";
        let request = format!("POST / HTTP/1.1\r\n{framing}{chunks}");
        assert_eq!(
            parse_request(request.as_bytes(), &limits),
            Err(too_large(limits.max_body))
        );
        let response = format!("HTTP/1.1 200 OK\r\n{framing}{chunks}");
        assert_eq!(
            parse_response(response.as_bytes(), &Method::Get, &limits),
            Err(too_large(limits.max_body))
        );
    }

    #[test]
    fn trailing_bytes_left_for_next_message() {
        let mut wire = encode(b"abc", 10).to_vec();
        wire.extend_from_slice(b"NEXT");
        let (decoded, consumed) = decode(&wire, MAX).unwrap().unwrap();
        assert_eq!(&decoded[..], b"abc");
        assert_eq!(&wire[consumed..], b"NEXT");
    }
}
