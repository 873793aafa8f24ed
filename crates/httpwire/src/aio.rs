//! Async HTTP/1.1 connections over any tokio byte stream, and the one
//! server front end built on them.
//!
//! [`ServerConn`] reads requests and writes responses; [`ClientConn`]
//! writes requests and reads responses. Both are sans-IO wrappers over
//! the incremental codec in [`crate::codec`] and work with any
//! `AsyncRead + AsyncWrite` transport — a real `TcpStream`, a duplex
//! pipe in tests, or a throttled wrapper.
//!
//! [`serve_stream`] is the workspace's only connection loop and
//! [`Listener`] its only accept loop: the origin and the edge each
//! supply a [`Handler`] and nothing else (DESIGN §5 "Who owns a
//! connection").

use std::future::Future;
use std::sync::Arc;

use bytes::BytesMut;
use tokio::io::{AsyncRead, AsyncReadExt, AsyncWrite, AsyncWriteExt};
use tokio::net::TcpListener;
use tokio::sync::watch;

use crate::body::Body;
use crate::codec::{self, ParseLimits, Parsed};
use crate::date::HttpDate;
use crate::error::WireError;
use crate::header::HeaderName;
use crate::message::{Request, Response};
use crate::method::Method;
use crate::status::StatusCode;

/// IO or protocol failure on a connection.
#[derive(Debug)]
pub enum ConnError {
    Io(std::io::Error),
    Wire(WireError),
    /// Clean EOF between messages (the peer closed the connection).
    Closed,
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Io(e) => write!(f, "io error: {e}"),
            ConnError::Wire(e) => write!(f, "protocol error: {e}"),
            ConnError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ConnError {}

impl From<std::io::Error> for ConnError {
    fn from(e: std::io::Error) -> Self {
        ConnError::Io(e)
    }
}

impl From<WireError> for ConnError {
    fn from(e: WireError) -> Self {
        ConnError::Wire(e)
    }
}

const READ_CHUNK: usize = 16 * 1024;

/// Bodies at or below this size are copied into the write buffer so
/// head + body go out in one `write_all`; larger bodies are written
/// as a second uncopied slice (the `Bytes` is shared, not cloned).
const INLINE_BODY_MAX: usize = 4 * 1024;

/// Server side of an HTTP/1.1 connection.
#[derive(Debug)]
pub struct ServerConn<S> {
    stream: S,
    buf: BytesMut,
    /// Reused across responses: heads are encoded into this buffer, so
    /// steady-state writes allocate nothing.
    write_buf: BytesMut,
    limits: ParseLimits,
}

impl<S: AsyncRead + AsyncWrite + Unpin> ServerConn<S> {
    pub fn new(stream: S) -> Self {
        Self::with_limits(stream, ParseLimits::default())
    }

    pub fn with_limits(stream: S, limits: ParseLimits) -> Self {
        ServerConn {
            stream,
            buf: BytesMut::with_capacity(READ_CHUNK),
            write_buf: BytesMut::with_capacity(1024),
            limits,
        }
    }

    /// Reads the next request. Returns [`ConnError::Closed`] on a clean
    /// EOF between messages.
    pub async fn read_request(&mut self) -> Result<Request, ConnError> {
        loop {
            match codec::parse_request(&self.buf, &self.limits)? {
                Parsed::Complete { message, consumed } => {
                    let _ = self.buf.split_to(consumed);
                    return Ok(message);
                }
                Parsed::Partial => {}
            }
            let n = self.stream.read_buf(&mut self.buf).await?;
            if n == 0 {
                return if self.buf.is_empty() {
                    Err(ConnError::Closed)
                } else {
                    Err(ConnError::Wire(WireError::UnexpectedEof))
                };
            }
        }
    }

    /// Writes a response and flushes it. The head is encoded into a
    /// buffer reused across responses; small bodies ride along in the
    /// same write, large bodies are written from their shared `Bytes`
    /// without being copied.
    pub async fn write_response(&mut self, resp: &Response) -> Result<(), ConnError> {
        self.write_buf.clear();
        codec::encode_response_head_into(resp, &mut self.write_buf);
        if resp.body.len() <= INLINE_BODY_MAX {
            self.write_buf.extend_from_slice(&resp.body);
            self.stream.write_all(&self.write_buf).await?;
        } else {
            self.stream.write_all(&self.write_buf).await?;
            self.stream.write_all(&resp.body).await?;
        }
        self.stream.flush().await?;
        Ok(())
    }
}

/// Client side of an HTTP/1.1 connection.
#[derive(Debug)]
pub struct ClientConn<S> {
    stream: S,
    buf: BytesMut,
    limits: ParseLimits,
}

impl<S: AsyncRead + AsyncWrite + Unpin> ClientConn<S> {
    pub fn new(stream: S) -> Self {
        Self::with_limits(stream, ParseLimits::default())
    }

    pub fn with_limits(stream: S, limits: ParseLimits) -> Self {
        ClientConn {
            stream,
            buf: BytesMut::with_capacity(READ_CHUNK),
            limits,
        }
    }

    /// Writes a request and flushes it.
    pub async fn write_request(&mut self, req: &Request) -> Result<(), ConnError> {
        let wire = codec::encode_request(req);
        self.stream.write_all(&wire).await?;
        self.stream.flush().await?;
        Ok(())
    }

    /// Reads the response to a request sent with `method`.
    pub async fn read_response(&mut self, method: &Method) -> Result<Response, ConnError> {
        loop {
            match codec::parse_response(&self.buf, method, &self.limits)? {
                Parsed::Complete { message, consumed } => {
                    let _ = self.buf.split_to(consumed);
                    return Ok(message);
                }
                Parsed::Partial => {}
            }
            let n = self.stream.read_buf(&mut self.buf).await?;
            if n == 0 {
                // Possibly an EOF-delimited body.
                let resp = codec::parse_response_eof(&self.buf, method, &self.limits)?;
                self.buf.clear();
                return Ok(resp);
            }
        }
    }

    /// Sends a request and awaits its response.
    pub async fn round_trip(&mut self, req: &Request) -> Result<Response, ConnError> {
        self.write_request(req).await?;
        self.read_response(&req.method).await
    }

    pub fn into_inner(self) -> S {
        self.stream
    }
}

/// Supplies a server's notion of "now". Wall time by default; tests
/// inject fixed or watch-driven virtual clocks.
///
/// Internally the clock runs at **millisecond** resolution so
/// telemetry timestamps don't quantize to whole seconds (the old
/// `Fn() -> i64` seconds clock truncated with `as_secs`, collapsing
/// every sub-second request to t=0). HTTP validators and freshness
/// math still use whole seconds via [`Clock::secs`], matching the
/// one-second resolution of HTTP dates.
#[derive(Clone)]
pub struct Clock {
    millis: Arc<dyn Fn() -> i64 + Send + Sync>,
}

impl Clock {
    /// Builds a clock from a milliseconds-since-epoch function.
    pub fn from_millis_fn(f: impl Fn() -> i64 + Send + Sync + 'static) -> Clock {
        Clock {
            millis: Arc::new(f),
        }
    }

    /// Now, in milliseconds (telemetry resolution).
    pub fn millis(&self) -> i64 {
        (self.millis)()
    }

    /// Now, in whole seconds (HTTP date / freshness resolution).
    pub fn secs(&self) -> i64 {
        self.millis().div_euclid(1000)
    }
}

/// A wall clock measured from process start.
pub fn wall_clock() -> Clock {
    let start = std::time::Instant::now();
    Clock::from_millis_fn(move || start.elapsed().as_millis() as i64)
}

/// A fixed virtual clock, pinned to a whole second. Convenient for
/// HTTP-date tests; telemetry timestamps from this clock quantize to
/// 1s — use [`fixed_clock_ms`] when sub-second telemetry matters.
pub fn fixed_clock(t_secs: i64) -> Clock {
    fixed_clock_ms(t_secs.saturating_mul(1000))
}

/// A fixed virtual clock at millisecond resolution.
pub fn fixed_clock_ms(t_ms: i64) -> Clock {
    Clock::from_millis_fn(move || t_ms)
}

/// A clock readable through a watch channel carrying virtual
/// **seconds** (tests advance it). Telemetry timestamps from this
/// clock quantize to whole seconds — use [`watch_clock_ms`] when the
/// channel should drive sub-second telemetry.
pub fn watch_clock(rx: watch::Receiver<i64>) -> Clock {
    Clock::from_millis_fn(move || rx.borrow().saturating_mul(1000))
}

/// A clock readable through a watch channel carrying virtual
/// **milliseconds**: full telemetry resolution under virtual time.
pub fn watch_clock_ms(rx: watch::Receiver<i64>) -> Clock {
    Clock::from_millis_fn(move || *rx.borrow())
}

/// What a [`Handler`] tells the connection loop to do with a request.
pub enum Reply {
    /// Write the response. The connection stays open unless the
    /// request carried `Connection: close`.
    Send(Response),
    /// Announce the full length, deliver only this fraction of the
    /// encoded response (at least one byte, never all of it), close:
    /// the client's parser must see a clean unexpected-EOF, never a
    /// short "valid" body.
    SendPrefix(Response, f64),
    /// Close without answering.
    HangUp,
}

/// What differs between the servers that share [`serve_stream`]:
/// how a request is answered, and what time it is.
pub trait Handler {
    /// The time source, for the `Date` on the loop's own `400`.
    fn clock(&self) -> &Clock;

    /// Answers one well-formed request.
    fn handle(&self, req: &Request) -> impl Future<Output = Reply> + Send;
}

/// The path of `req` if it may address an operational endpoint: those
/// are opt-in (`enabled`) and answer GET only, so every other request
/// goes to site dispatch. Which paths exist, and how a site resource
/// at the same path wins, is the handler's rule.
pub fn ops_path(req: &Request, enabled: bool) -> Option<&str> {
    (enabled && req.method == Method::Get).then(|| req.target.path())
}

/// A `200` from an operational endpoint: never cacheable, dated by the
/// server's clock.
pub fn ops_response(content_type: &str, body: impl Into<Body>, clock: &Clock) -> Response {
    Response::ok(body)
        .with_header(HeaderName::CONTENT_TYPE, content_type)
        .with_header(HeaderName::CACHE_CONTROL, "no-store")
        .with_header(HeaderName::DATE, &HttpDate(clock.secs()).to_imf_fixdate())
}

fn bad_request_response(err: &WireError, clock: &Clock) -> Response {
    Response::empty(StatusCode::BAD_REQUEST)
        .with_header(HeaderName::CONTENT_TYPE, "text/plain")
        .with_header(HeaderName::CONNECTION, "close")
        .with_header(HeaderName::X_CC_ERROR, &err.to_string())
        .with_header(HeaderName::DATE, &HttpDate(clock.secs()).to_imf_fixdate())
}

/// Serves HTTP/1.1 on one byte stream (TCP, duplex pipe, emulated
/// link) until the peer closes, sends `Connection: close`, or the
/// handler ends the connection.
pub async fn serve_stream<S, H>(stream: S, handler: &H) -> Result<(), ConnError>
where
    S: AsyncRead + AsyncWrite + Unpin,
    H: Handler,
{
    let mut conn = ServerConn::new(stream);
    loop {
        let req = match conn.read_request().await {
            Ok(req) => req,
            Err(ConnError::Closed) => return Ok(()),
            Err(ConnError::Wire(e)) => {
                // Malformed or truncated request head: the peer is
                // broken, not the server. Answer 400 best-effort and
                // drop the connection instead of surfacing an error (a
                // panicking or erroring task would look like a server
                // failure in the chaos harness).
                let resp = bad_request_response(&e, handler.clock());
                let _ = conn.write_response(&resp).await;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        match handler.handle(&req).await {
            Reply::Send(resp) => conn.write_response(&resp).await?,
            Reply::SendPrefix(resp, fraction) => {
                let wire = codec::encode_response(&resp);
                let cut = ((wire.len() as f64 * fraction) as usize).clamp(1, wire.len() - 1);
                let _ = conn.stream.write_all(&wire[..cut]).await;
                let _ = conn.stream.flush().await;
                return Ok(());
            }
            Reply::HangUp => return Ok(()),
        }
        if req.headers.wants_close() {
            return Ok(());
        }
    }
}

/// How long [`Listener`] waits after a failed accept before trying again.
const ACCEPT_RETRY: std::time::Duration = std::time::Duration::from_millis(10);

/// A running HTTP/1.1 listener: one task per accepted connection,
/// each running [`serve_stream`] against the shared handler. A failed
/// accept pauses the loop; it does not end it.
pub struct Listener {
    /// The bound listening address (useful with `127.0.0.1:0`).
    pub local_addr: std::net::SocketAddr,
    shutdown: watch::Sender<bool>,
    handle: tokio::task::JoinHandle<()>,
}

impl Listener {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves until
    /// [`Listener::shutdown`] is called.
    pub async fn bind<H>(addr: &str, handler: H) -> std::io::Result<Listener>
    where
        H: Handler + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr).await?;
        let local_addr = listener.local_addr()?;
        let handler = Arc::new(handler);
        let (shutdown, mut shutdown_rx) = watch::channel(false);
        let handle = tokio::spawn(async move {
            loop {
                tokio::select! {
                    accepted = listener.accept() => {
                        let Ok((stream, _peer)) = accepted else {
                            // Out of descriptors (EMFILE, ENFILE) or a peer
                            // gone before it was taken: the listener is
                            // fine. Pause so a shortage can clear instead
                            // of spinning on it, then accept again.
                            tokio::time::sleep(ACCEPT_RETRY).await;
                            continue;
                        };
                        let handler = Arc::clone(&handler);
                        tokio::spawn(async move {
                            stream.set_nodelay(true).ok();
                            let _ = serve_stream(stream, &*handler).await;
                        });
                    }
                    _ = shutdown_rx.changed() => break,
                }
            }
        });
        Ok(Listener {
            local_addr,
            shutdown,
            handle,
        })
    }

    /// Stops accepting and waits for the accept loop to exit
    /// (in-flight connections finish on their own).
    pub async fn shutdown(self) {
        let _ = self.shutdown.send(true);
        let _ = self.handle.await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Response;

    #[tokio::test]
    async fn request_response_over_duplex() {
        let (client_io, server_io) = tokio::io::duplex(4096);
        let mut client = ClientConn::new(client_io);
        let mut server = ServerConn::new(server_io);

        let server_task = tokio::spawn(async move {
            let req = server.read_request().await.unwrap();
            assert_eq!(req.target.path(), "/hello");
            server
                .write_response(&Response::ok("hi there"))
                .await
                .unwrap();
        });

        let resp = client
            .round_trip(&Request::get("/hello").with_header("host", "test"))
            .await
            .unwrap();
        assert_eq!(&resp.body[..], b"hi there");
        server_task.await.unwrap();
    }

    #[tokio::test]
    async fn keep_alive_multiple_requests() {
        let (client_io, server_io) = tokio::io::duplex(4096);
        let mut client = ClientConn::new(client_io);
        let mut server = ServerConn::new(server_io);

        let server_task = tokio::spawn(async move {
            for _ in 0..3 {
                let req = server.read_request().await.unwrap();
                server
                    .write_response(&Response::ok(req.target.path().to_owned()))
                    .await
                    .unwrap();
            }
            // Client closes; next read sees clean EOF.
            assert!(matches!(
                server.read_request().await,
                Err(ConnError::Closed)
            ));
        });

        for path in ["/a", "/b", "/c"] {
            let resp = client.round_trip(&Request::get(path)).await.unwrap();
            assert_eq!(std::str::from_utf8(&resp.body).unwrap(), path);
        }
        drop(client);
        server_task.await.unwrap();
    }

    #[tokio::test]
    async fn clean_eof_vs_truncated_request() {
        let (client_io, server_io) = tokio::io::duplex(4096);
        let mut server = ServerConn::new(server_io);
        let mut raw = client_io;
        raw.write_all(b"GET / HT").await.unwrap();
        drop(raw);
        assert!(matches!(
            server.read_request().await,
            Err(ConnError::Wire(WireError::UnexpectedEof))
        ));
    }

    #[test]
    fn clock_keeps_millisecond_resolution() {
        let c = fixed_clock(3);
        assert_eq!(c.millis(), 3000);
        assert_eq!(c.secs(), 3);
        // Sub-second precision survives (the old seconds-typed clock
        // truncated everything below 1s to zero).
        let c = Clock::from_millis_fn(|| 1500);
        assert_eq!(c.millis(), 1500);
        assert_eq!(c.secs(), 1);
        // Negative times floor, not truncate toward zero.
        let c = Clock::from_millis_fn(|| -500);
        assert_eq!(c.secs(), -1);
        // The ms-carrying constructors keep sub-second precision end
        // to end (the seconds-carrying ones quantize by design).
        let c = fixed_clock_ms(1500);
        assert_eq!(c.millis(), 1500);
        assert_eq!(c.secs(), 1);
        let (tx, rx) = watch::channel(0i64);
        let c = watch_clock_ms(rx);
        tx.send(60_500).unwrap();
        assert_eq!(c.millis(), 60_500);
        assert_eq!(c.secs(), 60);
    }

    /// Echoes the path, or ends the connection the way the path says.
    struct Scripted(Clock);

    impl Handler for Scripted {
        fn clock(&self) -> &Clock {
            &self.0
        }

        async fn handle(&self, req: &Request) -> Reply {
            let path = req.target.path();
            let echo = Response::ok(path.to_owned());
            match path.strip_prefix("/cut/") {
                Some(fraction) => Reply::SendPrefix(echo, fraction.parse().unwrap()),
                None if path == "/hang-up" => Reply::HangUp,
                None => Reply::Send(echo),
            }
        }
    }

    /// Everything the server wrote in answer to `path`, read to EOF.
    async fn raw_answer(path: &str) -> Vec<u8> {
        let (mut client_io, server_io) = tokio::io::duplex(4096);
        let server =
            tokio::spawn(async move { serve_stream(server_io, &Scripted(fixed_clock(0))).await });
        let wire = codec::encode_request(&Request::get(path));
        client_io.write_all(&wire).await.unwrap();
        let mut answer = BytesMut::new();
        while client_io.read_buf(&mut answer).await.unwrap() > 0 {}
        server.await.unwrap().unwrap();
        answer.to_vec()
    }

    #[tokio::test]
    async fn a_handler_can_cut_the_response_short_or_hang_up() {
        let full = |path: &str| codec::encode_response(&Response::ok(path.to_owned())).to_vec();
        // A prefix is never empty and never the whole response, so the
        // client always sees bytes followed by an unexpected EOF.
        for (path, len) in [
            ("/cut/0.5", full("/cut/0.5").len() / 2),
            ("/cut/0.0", 1),
            ("/cut/1.0", full("/cut/1.0").len() - 1),
        ] {
            assert_eq!(raw_answer(path).await, full(path)[..len], "{path}");
        }
        assert_eq!(raw_answer("/hang-up").await, b"");
    }
}
