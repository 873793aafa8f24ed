//! Integration: the one HTTP/1.1 front end, probed from outside.
//!
//! `TcpOrigin` and `TcpEdge` run on the same listener and connection
//! loop (`httpwire::aio`), so what that loop owns — the `400` on a
//! malformed head, clean EOF, `Connection: close`, pipelining — is
//! checked once here against both servers, over real sockets and by
//! bytes and headers alone. What the two handlers decide differently
//! (a missing `Host`, the operational endpoints) follows; the edge's
//! operational surface has no other over-TCP test. Then the socket as
//! a content-facts boundary: what a client reads off it is a new body.
//! Last, a listener that runs out of descriptors keeps accepting once
//! they are back.

use std::net::SocketAddr;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use cachecatalyst::edge::{EdgeCache, TcpEdge};
use cachecatalyst::httpwire::aio::ClientConn;
use cachecatalyst::httpwire::{codec, ParseLimits, Parsed};
use cachecatalyst::origin::{fixed_clock, TcpOrigin};
use cachecatalyst::prelude::*;
use cachecatalyst::telemetry::json_string;
use cachecatalyst::webmodel::{
    ChangeModel, Discovery, GeneratedResource, HeaderPolicy, ResourceKind, ResourceSpec,
};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::TcpStream;

const HOST: &str = "example.org";
/// `fixed_clock(0)` as an HTTP date.
const EPOCH: &str = "Thu, 01 Jan 1970 00:00:00 GMT";

#[derive(Clone, Copy, Debug)]
enum Kind {
    Origin,
    Edge,
}

const BOTH: [Kind; 2] = [Kind::Origin, Kind::Edge];

enum Server {
    Origin(TcpOrigin),
    Edge(TcpEdge, Arc<EdgeCache<Arc<OriginServer>>>),
}

impl Server {
    /// `site` behind a catalyst origin, served directly or through an
    /// edge cache, at virtual time zero.
    async fn start(kind: Kind, site: Site, ops: bool) -> Server {
        let origin = Arc::new(OriginServer::new(site, HeaderMode::Catalyst));
        let addr = "127.0.0.1:0";
        match kind {
            Kind::Origin => Server::Origin(
                TcpOrigin::builder()
                    .server(origin)
                    .clock(fixed_clock(0))
                    .ops(ops)
                    .bind(addr)
                    .await
                    .unwrap(),
            ),
            Kind::Edge => {
                let edge = Arc::new(EdgeCache::builder(origin).build());
                let listening = TcpEdge::builder(Arc::clone(&edge))
                    .clock(fixed_clock(0))
                    .ops(ops)
                    .bind(addr)
                    .await
                    .unwrap();
                Server::Edge(listening, edge)
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Server::Origin(origin) => origin.local_addr,
            Server::Edge(edge, _) => edge.local_addr,
        }
    }

    async fn shutdown(self) {
        match self {
            Server::Origin(origin) => origin.shutdown().await,
            Server::Edge(edge, _) => edge.shutdown().await,
        }
    }
}

fn get(path: &str) -> Request {
    Request::get(path).with_header("host", HOST)
}

fn closing(req: Request) -> Request {
    req.with_header("connection", "close")
}

/// Writes `wire` in a single write, then reads until the server closes
/// the connection and parses everything it sent. A server that keeps
/// the connection open (or never answers) fails the test instead of
/// hanging it.
async fn exchange(addr: SocketAddr, wire: &[u8]) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).await.unwrap();
    stream.write_all(wire).await.unwrap();
    read_until_closed(stream).await
}

/// Everything the server sends on `stream` until it closes it, parsed.
async fn read_until_closed(mut stream: TcpStream) -> Vec<Response> {
    let mut answer = Vec::new();
    let mut chunk = [0u8; 16 << 10];
    let read_to_eof = async {
        loop {
            match stream.read(&mut chunk).await.unwrap() {
                0 => break,
                n => answer.extend_from_slice(&chunk[..n]),
            }
        }
    };
    tokio::time::timeout(Duration::from_secs(5), read_to_eof)
        .await
        .expect("the server must close the connection");
    let mut responses = Vec::new();
    let mut rest = &answer[..];
    while !rest.is_empty() {
        match codec::parse_response(rest, &Method::Get, &ParseLimits::default()).unwrap() {
            Parsed::Complete { message, consumed } => {
                responses.push(message);
                rest = &rest[consumed..];
            }
            Parsed::Partial => panic!("the server closed mid-response"),
        }
    }
    responses
}

/// One request on its own connection, which it asks the server to close.
async fn fetch(addr: SocketAddr, req: Request) -> Response {
    let mut responses = exchange(addr, &codec::encode_request(&closing(req))).await;
    assert_eq!(responses.len(), 1);
    responses.remove(0)
}

#[tokio::test]
async fn a_malformed_head_is_answered_400_and_the_connection_closed() {
    for kind in BOTH {
        let server = Server::start(kind, example_site(), false).await;
        let responses = exchange(server.addr(), b"THIS IS NOT HTTP\r\n\r\n").await;
        assert_eq!(responses.len(), 1, "{kind:?}");
        let resp = &responses[0];
        assert_eq!(resp.status, StatusCode::BAD_REQUEST, "{kind:?}");
        assert_eq!(resp.headers.get("connection"), Some("close"), "{kind:?}");
        assert_eq!(resp.headers.get("content-type"), Some("text/plain"));
        assert_eq!(resp.headers.get("date"), Some(EPOCH), "{kind:?}");
        let reason = resp.headers.get("x-cc-error");
        assert!(
            reason.is_some_and(|r| !r.is_empty()),
            "{kind:?}: {reason:?}"
        );
        server.shutdown().await;
    }
}

#[tokio::test]
async fn half_a_head_then_a_hang_up_leaves_the_listener_serving() {
    for kind in BOTH {
        let server = Server::start(kind, example_site(), false).await;
        let mut stream = TcpStream::connect(server.addr()).await.unwrap();
        stream.write_all(b"GET /index.html HT").await.unwrap();
        drop(stream);
        let resp = fetch(server.addr(), get("/index.html")).await;
        assert_eq!(resp.status, StatusCode::OK, "{kind:?}");
        server.shutdown().await;
    }
}

#[tokio::test]
async fn pipelined_requests_are_answered_in_order_and_close_is_honoured() {
    for kind in BOTH {
        let server = Server::start(kind, example_site(), false).await;
        // Three requests in one write; the second asks to close, so
        // the third must never be answered.
        let mut wire = codec::encode_request(&get("/a.css")).to_vec();
        wire.extend_from_slice(&codec::encode_request(&closing(get("/b.js"))));
        wire.extend_from_slice(&codec::encode_request(&get("/d.jpg")));
        let responses = exchange(server.addr(), &wire).await;
        let types: Vec<_> = responses
            .iter()
            .map(|r| (r.status, r.headers.get("content-type")))
            .collect();
        assert_eq!(
            types,
            [
                (StatusCode::OK, Some("text/css")),
                (StatusCode::OK, Some("application/javascript")),
            ],
            "{kind:?}"
        );
        server.shutdown().await;
    }
}

#[tokio::test]
async fn a_missing_host_is_the_handlers_call_not_the_loops() {
    for kind in BOTH {
        let server = Server::start(kind, example_site(), false).await;
        // The origin serves one site and needs no Host; the edge keys
        // by it and refuses — with its own 400, after which (unlike the
        // loop's 400 for a broken peer) the connection carries on.
        let mut wire = codec::encode_request(&Request::get("/a.css")).to_vec();
        wire.extend_from_slice(&codec::encode_request(&closing(get("/a.css"))));
        let statuses: Vec<_> = exchange(server.addr(), &wire)
            .await
            .iter()
            .map(|r| r.status)
            .collect();
        let without_host = match kind {
            Kind::Origin => StatusCode::OK,
            Kind::Edge => StatusCode::BAD_REQUEST,
        };
        assert_eq!(statuses, [without_host, StatusCode::OK], "{kind:?}");
        server.shutdown().await;
    }
}

/// The example site plus a JavaScript resource at `/metrics`.
fn site_with_a_metrics_page() -> Site {
    let mut site = example_site();
    site.insert_resource(GeneratedResource {
        spec: ResourceSpec::leaf(
            "/metrics",
            ResourceKind::Js,
            1_000,
            Discovery::Static {
                parent: "/index.html".into(),
            },
            ChangeModel::Immutable,
        ),
        policy: HeaderPolicy::NoCache,
    });
    site
}

#[tokio::test]
async fn edge_ops_endpoints_answer_over_tcp() {
    let server = Server::start(Kind::Edge, example_site(), true).await;
    let Server::Edge(_, edge) = &server else {
        unreachable!()
    };
    let paths = ["/a.css", "/b.js", "/d.jpg"];
    let mut stored = Vec::new();
    for path in paths {
        let resp = fetch(server.addr(), get(path)).await;
        let etag = resp.etag().expect("site responses carry validators");
        stored.push((
            format!(
                "{{\"key\": {}, \"tier\": \"mem\",",
                json_string(&format!("{HOST}{path}"))
            ),
            format!("\"etag\": {},", json_string(&etag.to_string())),
        ));
    }

    for (path, content_type) in [
        ("/metrics", "text/plain; version=0.0.4"),
        ("/inspect", "application/json"),
    ] {
        let resp = fetch(server.addr(), get(path)).await;
        assert_eq!(resp.status, StatusCode::OK, "{path}");
        assert_eq!(resp.headers.get("content-type"), Some(content_type));
        assert_eq!(resp.headers.get("cache-control"), Some("no-store"));
        assert_eq!(resp.headers.get("date"), Some(EPOCH), "{path}");
        let text = String::from_utf8(resp.body.to_vec()).unwrap();
        if path == "/metrics" {
            assert!(text.contains("edge_clock_milliseconds 0"), "{text}");
            assert!(text.contains("edge_requests_total"), "{text}");
            continue;
        }
        // The same document the cache renders when asked directly at
        // the same (fixed) instant, listing what was fetched and
        // nothing else — bar the probes themselves, which the site
        // answered 404 before the ops surface took over and which the
        // edge therefore holds as negative entries.
        assert_eq!(text, edge.inspect(0));
        let positive: Vec<_> = text
            .lines()
            .filter(|l| l.contains("\"key\"") && l.contains("\"negative\": false"))
            .collect();
        assert_eq!(positive.len(), stored.len(), "{text}");
        for (line, (key_and_tier, etag)) in positive.iter().zip(&stored) {
            assert!(line.trim_start().starts_with(key_and_tier), "{text}");
            assert!(line.contains(etag), "{etag}\n{text}");
        }
    }

    // Non-GET never reaches the ops surface: site dispatch rejects it.
    let mut post = get("/metrics");
    post.method = Method::Post;
    let resp = fetch(server.addr(), post).await;
    assert_eq!(resp.status, StatusCode::METHOD_NOT_ALLOWED);
    server.shutdown().await;
}

#[tokio::test]
async fn edge_ops_endpoints_are_opt_in_and_never_shadow_the_site() {
    let off = Server::start(Kind::Edge, example_site(), false).await;
    for path in ["/metrics", "/inspect"] {
        let resp = fetch(off.addr(), get(path)).await;
        assert_eq!(resp.status, StatusCode::NOT_FOUND, "{path}");
    }
    off.shutdown().await;

    let on = Server::start(Kind::Edge, site_with_a_metrics_page(), true).await;
    let resp = fetch(on.addr(), get("/metrics")).await;
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(
        resp.headers.get("content-type"),
        Some("application/javascript"),
        "the site's own /metrics wins over the scrape endpoint"
    );
    assert!(resp.etag().is_some(), "site response carries validators");
    let resp = fetch(on.addr(), get("/inspect")).await;
    assert_eq!(resp.headers.get("content-type"), Some("application/json"));
    on.shutdown().await;
}

#[tokio::test]
async fn a_body_that_crossed_the_socket_is_a_fresh_allocation() {
    let server = Server::start(Kind::Edge, example_site(), false).await;
    let Server::Edge(_, edge) = &server else {
        unreachable!()
    };
    // In process, the edge hands out the allocation it stores: the
    // digest one caller takes is there for the next.
    let held = edge.handle(HOST, &get("/a.css"), 0).body;
    let want = held.digest();
    let again = edge.handle(HOST, &get("/a.css"), 0).body;
    assert!(again.shares_allocation_with(&held));
    assert_eq!(again.known_digest(), Some(want));

    // Over TCP the same bytes arrive through the codec: a new body
    // with nothing remembered, digested again by whoever asks.
    let stream = TcpStream::connect(server.addr()).await.unwrap();
    let over_tcp = ClientConn::new(stream)
        .round_trip(&get("/a.css"))
        .await
        .unwrap();
    assert_eq!(
        over_tcp.headers.get("x-served-by"),
        Some("cachecatalyst-edge")
    );
    assert_eq!(over_tcp.body, held);
    assert!(!over_tcp.body.shares_allocation_with(&held));
    assert_eq!(over_tcp.body.known_digest(), None);
    assert_eq!(over_tcp.body.digest(), want);
    server.shutdown().await;
}

/// Set in the child process [`a_failed_accept_leaves_the_listener_serving`]
/// runs its scenario in.
const NOFILE_CHILD: &str = "CC_SERVE_LOOP_NOFILE_CHILD";

/// This process's soft open-file limit, read or set through util-linux
/// `prlimit`.
fn soft_nofile() -> String {
    let out = Command::new("prlimit")
        .args([
            &format!("--pid={}", std::process::id()),
            "--nofile",
            "--output=SOFT",
            "--noheadings",
            "--raw",
        ])
        .output()
        .expect("prlimit runs");
    String::from_utf8(out.stdout).unwrap().trim().to_owned()
}

fn set_soft_nofile(soft: &str) {
    let set = Command::new("prlimit")
        .args([
            &format!("--pid={}", std::process::id()),
            &format!("--nofile={soft}:"),
        ])
        .status()
        .expect("prlimit runs");
    assert!(set.success(), "prlimit --nofile={soft}: failed");
}

#[tokio::test]
async fn a_failed_accept_leaves_the_listener_serving() {
    if std::env::var_os(NOFILE_CHILD).is_some() {
        return failed_accepts_in_this_process().await;
    }
    if Command::new("prlimit").arg("--version").output().is_err() {
        eprintln!("skipped: no util-linux prlimit to set an open-file limit with");
        return;
    }
    // The limit is the whole process's: run alone, in a child.
    let name = "a_failed_accept_leaves_the_listener_serving";
    let out = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", name, "--nocapture", "--test-threads=1"])
        .env(NOFILE_CHILD, "1")
        .output()
        .expect("the test binary runs");
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

async fn failed_accepts_in_this_process() {
    let soft = soft_nofile();
    for kind in BOTH {
        let server = Server::start(kind, example_site(), false).await;
        assert_eq!(
            fetch(server.addr(), get("/a.css")).await.status,
            StatusCode::OK
        );

        // Leave the process a few descriptors, hold all but one, and
        // connect with that one: the server's accept finds none (EMFILE)
        // for as long as they are held.
        let open = std::fs::read_dir("/proc/self/fd").unwrap().count();
        set_soft_nofile(&(open + 8).to_string());
        let mut held = Vec::new();
        while let Ok(file) = std::fs::File::open("/dev/null") {
            held.push(file);
        }
        assert!(!held.is_empty(), "{kind:?}: the limit left nothing to hold");
        held.pop();
        let mut waiting = TcpStream::connect(server.addr()).await.unwrap();
        waiting
            .write_all(&codec::encode_request(&closing(get("/b.js"))))
            .await
            .unwrap();
        tokio::time::sleep(Duration::from_millis(100)).await;
        drop(held);
        set_soft_nofile(&soft);

        // The connection that waited is served, and so is the next.
        let statuses: Vec<_> = read_until_closed(waiting)
            .await
            .iter()
            .map(|r| r.status)
            .collect();
        assert_eq!(statuses, [StatusCode::OK], "{kind:?}");
        assert_eq!(
            fetch(server.addr(), get("/d.jpg")).await.status,
            StatusCode::OK,
            "{kind:?}"
        );
        server.shutdown().await;
    }
}
