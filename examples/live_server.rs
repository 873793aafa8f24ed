//! End to end over real sockets: a tokio TCP origin serving the
//! CacheCatalyst protocol, spoken to with our own HTTP/1.1 client
//! through an emulated 60 Mbps / 40 ms access link.
//!
//! Run with: `cargo run --example live_server`

use std::sync::Arc;

use cachecatalyst::httpwire::aio::ClientConn;
use cachecatalyst::netsim::emu::emulated_link;
use cachecatalyst::origin::{watch_clock, TcpOrigin};
use cachecatalyst::prelude::*;
use tokio::net::TcpStream;
use tokio::sync::watch;

#[tokio::main(flavor = "current_thread")]
async fn main() {
    let (clock_tx, clock_rx) = watch::channel(0i64);
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));

    // 1. A real TCP listener on loopback.
    let server = TcpOrigin::builder()
        .server(Arc::clone(&origin))
        .clock(watch_clock(clock_rx.clone()))
        .bind("127.0.0.1:0")
        .await
        .expect("bind loopback");
    println!("origin listening on http://{}\n", server.local_addr);

    let stream = TcpStream::connect(server.local_addr).await.unwrap();
    let mut client = ClientConn::new(stream);

    // First visit: fetch the base HTML; note the X-Etag-Config map.
    let resp = client
        .round_trip(&Request::get("/index.html").with_header("host", "example.org"))
        .await
        .unwrap();
    println!(
        "GET /index.html → {} ({} bytes)",
        resp.status,
        resp.body.len()
    );
    let config = EtagConfig::accept(&resp.headers).expect("the map passes its digest");
    println!("X-Etag-Config entries: {}", config.len());
    let css_tag = config.get("/a.css").unwrap().clone();
    println!("  /a.css = {css_tag}");
    assert!(String::from_utf8_lossy(&resp.body).contains("serviceWorker"));
    println!("  (SW registration injected into the HTML)\n");

    // Fetch a subresource, then revalidate it two hours later.
    let resp = client.round_trip(&Request::get("/a.css")).await.unwrap();
    println!("GET /a.css → {} ({} bytes)", resp.status, resp.body.len());
    assert_eq!(resp.etag().unwrap(), css_tag);

    clock_tx.send(7200).unwrap(); // advance the virtual clock 2h
    let revalidate = Request::get("/a.css").with_header("if-none-match", &css_tag.to_string());
    let resp = client.round_trip(&revalidate).await.unwrap();
    println!(
        "GET /a.css (If-None-Match, +2h) → {} — unchanged, no body\n",
        resp.status
    );
    assert_eq!(resp.status, StatusCode::NOT_MODIFIED);

    // 2. The same protocol through an emulated 5G-median access link.
    let cond = NetworkConditions::five_g_median();
    println!(
        "repeating the navigation through an emulated {} link…",
        cond.label()
    );
    let (client_end, server_end) = emulated_link(cond);
    let opts = TcpOrigin::builder()
        .server(Arc::clone(&origin))
        .clock(watch_clock(clock_rx));
    tokio::spawn(async move {
        let _ = opts.serve_stream(server_end).await;
    });
    let mut emu_client = ClientConn::new(client_end);
    let start = std::time::Instant::now();
    let resp = emu_client
        .round_trip(&Request::get("/index.html").with_header("host", "example.org"))
        .await
        .unwrap();
    let elapsed = start.elapsed();
    println!(
        "GET /index.html → {} in {:.1} ms (≥ RTT {} ms plus transfer)",
        resp.status,
        elapsed.as_secs_f64() * 1000.0,
        cond.rtt.as_millis()
    );
    assert!(elapsed >= cond.rtt);

    server.shutdown().await;
    println!("\ndone.");
}
