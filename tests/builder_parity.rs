//! Builder determinism: two [`ServeOptions`] chains with the same
//! configuration must be observationally identical — same response
//! bytes, same deterministic `/metrics` series, same fault-schedule
//! consumption for the same seed.
//!
//! Two servers built alike, over TCP or over an in-memory pipe, serve
//! the same head and body for every path, expose the same seeded
//! `/metrics` series, and draw the same faults in the same order —
//! across reconnects too, when they share one `ServerFaults`. Every
//! replayable experiment in EXPERIMENTS.md leans on that.
//!
//! [`ServeOptions`]: cachecatalyst::origin::ServeOptions

use std::sync::Arc;

use cachecatalyst::httpwire::aio::ClientConn;
use cachecatalyst::httpwire::hash::xxh64;
use cachecatalyst::netsim::FaultPlan;
use cachecatalyst::origin::{fixed_clock, watch_clock, ServeOptions, ServerFaults, TcpOrigin};
use cachecatalyst::prelude::*;
use tokio::net::TcpStream;
use tokio::sync::watch;

const PATHS: [&str; 5] = ["/index.html", "/a.css", "/b.js", "/c.js", "/d.jpg"];

fn origin() -> Arc<OriginServer> {
    Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst))
}

/// The full observable surface of one response. Virtual clocks make
/// even the `Date` header deterministic, so everything is compared.
fn fingerprint(resp: &Response) -> String {
    let mut headers: Vec<String> = resp
        .headers
        .iter()
        .map(|(k, v)| format!("{}: {}", k.as_str(), v.as_str()))
        .collect();
    headers.sort();
    format!(
        "{} | {} | body[{}]={:016x}",
        resp.status,
        headers.join("; "),
        resp.body.len(),
        xxh64(&resp.body)
    )
}

/// Drives the canonical traffic pattern — a cold visit of every
/// resource, then a two-hour-later conditional revisit — against a
/// listening origin and returns every response fingerprint in order.
async fn drive(addr: std::net::SocketAddr, clock: &watch::Sender<i64>) -> Vec<String> {
    let stream = TcpStream::connect(addr).await.unwrap();
    let mut conn = ClientConn::new(stream);
    let mut prints = Vec::new();
    let mut etags = Vec::new();
    clock.send(0).unwrap();
    for path in PATHS {
        let resp = conn
            .round_trip(&Request::get(path).with_header("host", "example.org"))
            .await
            .unwrap();
        etags.push(resp.etag().expect("validator").to_string());
        prints.push(fingerprint(&resp));
    }
    clock.send(7200).unwrap();
    for (path, tag) in PATHS.iter().zip(&etags) {
        let resp = conn
            .round_trip(&Request::get(path).with_header("if-none-match", tag))
            .await
            .unwrap();
        prints.push(fingerprint(&resp));
    }
    prints
}

/// Parses a Prometheus exposition into (a) the set of metric names
/// and (b) the exact value of every monotonic-counter sample. The
/// `_total` counters are fully determined by the traffic; latency
/// histogram buckets are wall-clock-shaped and only compared by name.
fn deterministic_series(text: &str) -> (Vec<String>, Vec<(String, String)>) {
    let mut names = std::collections::BTreeSet::new();
    let mut counters = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let name = line
            .split(['{', ' '])
            .next()
            .expect("split is never empty")
            .to_owned();
        if name.ends_with("_total") {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            counters.push((series.to_owned(), value.to_owned()));
        }
        names.insert(name);
    }
    (names.into_iter().collect(), counters)
}

#[tokio::test]
async fn identical_builder_configs_serve_identical_bytes() {
    let (tx_a, rx_a) = watch::channel(0i64);
    let a = TcpOrigin::builder()
        .server(origin())
        .clock(watch_clock(rx_a))
        .bind("127.0.0.1:0")
        .await
        .unwrap();
    let (tx_b, rx_b) = watch::channel(0i64);
    let b = TcpOrigin::builder()
        .server(origin())
        .clock(watch_clock(rx_b))
        .bind("127.0.0.1:0")
        .await
        .unwrap();

    let a_prints = drive(a.local_addr, &tx_a).await;
    let b_prints = drive(b.local_addr, &tx_b).await;
    assert_eq!(a_prints.len(), 2 * PATHS.len());
    assert_eq!(a_prints, b_prints);

    // Ops endpoints stay opt-in: without `.ops(true)`, site dispatch
    // answers (and the example site has no /metrics resource).
    for addr in [a.local_addr, b.local_addr] {
        let stream = TcpStream::connect(addr).await.unwrap();
        let mut conn = ClientConn::new(stream);
        let resp = conn.round_trip(&Request::get("/metrics")).await.unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }
    a.shutdown().await;
    b.shutdown().await;
}

#[tokio::test]
async fn identical_ops_configs_expose_identical_metrics() {
    let (tx_a, rx_a) = watch::channel(0i64);
    let a = TcpOrigin::builder()
        .server(origin())
        .clock(watch_clock(rx_a))
        .ops(true)
        .bind("127.0.0.1:0")
        .await
        .unwrap();
    let (tx_b, rx_b) = watch::channel(0i64);
    let b = TcpOrigin::builder()
        .server(origin())
        .clock(watch_clock(rx_b))
        .ops(true)
        .bind("127.0.0.1:0")
        .await
        .unwrap();

    assert_eq!(
        drive(a.local_addr, &tx_a).await,
        drive(b.local_addr, &tx_b).await
    );

    let mut scrapes = Vec::new();
    for addr in [a.local_addr, b.local_addr] {
        let stream = TcpStream::connect(addr).await.unwrap();
        let mut conn = ClientConn::new(stream);
        let resp = conn.round_trip(&Request::get("/metrics")).await.unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        scrapes.push(String::from_utf8(resp.body.to_vec()).unwrap());
    }
    let (a_names, a_counters) = deterministic_series(&scrapes[0]);
    let (b_names, b_counters) = deterministic_series(&scrapes[1]);
    assert_eq!(a_names, b_names, "series sets diverge");
    assert_eq!(a_counters, b_counters, "counter values diverge");
    assert!(
        a_counters
            .iter()
            .any(|(series, value)| series.starts_with("origin_requests_total") && value == "10"),
        "traffic not accounted: {a_counters:?}"
    );
    a.shutdown().await;
    b.shutdown().await;
}

/// One request against a possibly-faulting origin, reduced to a
/// deterministic outcome tag. Connection-level faults (stalls, resets,
/// truncation) surface as client errors; those tear the connection
/// down, so the driver reconnects for the next draw.
async fn fault_outcomes(addr: std::net::SocketAddr, attempts: usize) -> Vec<String> {
    let mut outcomes = Vec::new();
    let mut conn: Option<ClientConn<TcpStream>> = None;
    for i in 0..attempts {
        if conn.is_none() {
            conn = Some(ClientConn::new(TcpStream::connect(addr).await.unwrap()));
        }
        let path = PATHS[i % PATHS.len()];
        match conn
            .as_mut()
            .expect("connected above")
            .round_trip(&Request::get(path).with_header("host", "example.org"))
            .await
        {
            Ok(resp) => outcomes.push(format!(
                "{}:{}:{:016x}",
                resp.status.as_u16(),
                resp.headers.get("x-cc-fault").unwrap_or("-"),
                xxh64(&resp.body)
            )),
            Err(_) => {
                outcomes.push("conn-error".to_owned());
                conn = None;
            }
        }
    }
    outcomes
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn identical_fault_plans_consume_identical_schedules() {
    let plan = FaultPlan::new(11)
        .with_fault_rate(0.4)
        .with_max_consecutive(2);
    let a = TcpOrigin::builder()
        .server(origin())
        .clock(fixed_clock(0))
        .faults(plan)
        .bind("127.0.0.1:0")
        .await
        .unwrap();
    let b = TcpOrigin::builder()
        .server(origin())
        .clock(fixed_clock(0))
        .faults(plan)
        .bind("127.0.0.1:0")
        .await
        .unwrap();

    let a_outcomes = fault_outcomes(a.local_addr, 30).await;
    let b_outcomes = fault_outcomes(b.local_addr, 30).await;
    assert_eq!(a_outcomes, b_outcomes, "schedule consumption diverges");
    // The comparison must not be vacuous: this seed fires visibly.
    assert!(
        a_outcomes
            .iter()
            .any(|o| o == "conn-error" || o.contains(":server-error:")),
        "no observable fault in 30 draws: {a_outcomes:?}"
    );
    a.shutdown().await;
    b.shutdown().await;
}

/// Runs `client` against a serving loop over an in-process duplex
/// pipe, returning the client's result once the server task settles.
async fn over_duplex<Srv, Fut, Out, FutC>(
    serve: Srv,
    client: impl FnOnce(ClientConn<tokio::io::DuplexStream>) -> FutC,
) -> Out
where
    Srv: FnOnce(tokio::io::DuplexStream) -> Fut,
    Fut: std::future::Future<Output = ()> + Send + 'static,
    FutC: std::future::Future<Output = Out>,
{
    let (client_end, server_end) = tokio::io::duplex(64 * 1024);
    let server = tokio::spawn(serve(server_end));
    let out = client(ClientConn::new(client_end)).await;
    // Dropping the client's pipe end lands the serving loop on a clean
    // `Closed`, so the task joins instead of lingering.
    server.await.expect("serving loop settles");
    out
}

#[tokio::test]
async fn serve_stream_is_deterministic_over_a_pipe() {
    let fetch_all = |mut conn: ClientConn<tokio::io::DuplexStream>| async move {
        let mut prints = Vec::new();
        for path in PATHS {
            let resp = conn
                .round_trip(&Request::get(path).with_header("host", "example.org"))
                .await
                .unwrap();
            prints.push(fingerprint(&resp));
        }
        prints
    };

    let mut runs = Vec::new();
    for _ in 0..2 {
        let server = origin();
        let prints = over_duplex(
            move |stream| async move {
                let _ = ServeOptions::new()
                    .server(server)
                    .clock(fixed_clock(3600))
                    .serve_stream(stream)
                    .await;
            },
            fetch_all,
        )
        .await;
        runs.push(prints);
    }
    assert_eq!(runs[0].len(), PATHS.len());
    assert_eq!(runs[0], runs[1]);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn shared_faults_keep_their_draw_order_across_pipe_reconnects() {
    let plan = FaultPlan::new(23)
        .with_fault_rate(0.4)
        .with_max_consecutive(2);

    // Each serving loop owns one stream; the shared `ServerFaults`
    // keeps the draw order across reconnects, exactly like a listener.
    async fn outcomes_via<F>(spawn_server: F) -> Vec<String>
    where
        F: Fn(tokio::io::DuplexStream),
    {
        let mut outcomes = Vec::new();
        let mut conn: Option<ClientConn<tokio::io::DuplexStream>> = None;
        for i in 0..30 {
            let mut c = match conn.take() {
                Some(c) => c,
                None => {
                    let (client_end, server_end) = tokio::io::duplex(64 * 1024);
                    spawn_server(server_end);
                    ClientConn::new(client_end)
                }
            };
            let path = PATHS[i % PATHS.len()];
            match c
                .round_trip(&Request::get(path).with_header("host", "example.org"))
                .await
            {
                Ok(resp) => {
                    outcomes.push(format!(
                        "{}:{}",
                        resp.status.as_u16(),
                        resp.headers.get("x-cc-fault").unwrap_or("-")
                    ));
                    conn = Some(c);
                }
                Err(_) => outcomes.push("conn-error".to_owned()),
            }
        }
        outcomes
    }

    let mut runs = Vec::new();
    for _ in 0..2 {
        let server = origin();
        let faults = ServerFaults::new(plan);
        let outcomes = outcomes_via(move |stream| {
            let opts = ServeOptions::new()
                .server(Arc::clone(&server))
                .clock(fixed_clock(0))
                .shared_faults(Arc::clone(&faults));
            tokio::spawn(async move {
                let _ = opts.serve_stream(stream).await;
            });
        })
        .await;
        runs.push(outcomes);
    }

    assert_eq!(runs[0], runs[1], "schedule consumption diverges");
    assert!(
        runs[0].iter().any(|o| o != "200:-"),
        "no observable fault in 30 draws: {runs:?}"
    );
}
