//! The `cachecatalyst` command-line tool.
//!
//! ```text
//! cachecatalyst serve [--port P] [--mode baseline|catalyst|capture] [--seed N | --example]
//!     Serve a generated site (or the paper's example page) over real
//!     TCP with the chosen header mode.
//!
//! cachecatalyst fetch <url> [--if-none-match TAG] [--show-headers]
//!     Fetch a URL with the built-in HTTP/1.1 client (pairs with
//!     `serve`; prints the X-Etag-Config map when present).
//!
//! cachecatalyst load [--seed N] [--mode ...] [--rtt MS] [--bw MBPS]
//!                    [--revisit SECS] [--waterfall] [--har FILE] [--csv FILE]
//!     Simulate a cold visit + revisit of a generated site and print
//!     the waterfalls and PLTs (optionally exporting HAR/CSV).
//! ```

use std::sync::Arc;
use std::time::Duration;

use cachecatalyst::httpwire::aio::ClientConn;
use cachecatalyst::origin::{wall_clock, TcpOrigin};
use cachecatalyst::prelude::*;
use tokio::net::TcpStream;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => Some(it.next().unwrap()),
                    _ => None,
                };
                flags.push((name.to_owned(), value));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

fn mode_of(args: &Args) -> HeaderMode {
    match args.flag("mode").unwrap_or("catalyst") {
        "baseline" => HeaderMode::Baseline,
        "capture" => HeaderMode::CatalystWithCapture,
        "no-store" => HeaderMode::NoStore,
        _ => HeaderMode::Catalyst,
    }
}

fn site_of(args: &Args) -> Site {
    if args.has("example") {
        example_site()
    } else {
        let seed: u64 = args.flag("seed").and_then(|v| v.parse().ok()).unwrap_or(1);
        Site::generate(SiteSpec {
            host: format!("site{seed}.example"),
            seed,
            n_resources: args
                .flag("resources")
                .and_then(|v| v.parse().ok())
                .unwrap_or(70),
            ..Default::default()
        })
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    match args.positional.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args),
        Some("fetch") => cmd_fetch(&args),
        Some("load") => cmd_load(&args),
        _ => {
            eprintln!(
                "usage: cachecatalyst <serve|fetch|load> [options]\n\
                 see the crate docs or README for details"
            );
            std::process::exit(2);
        }
    }
}

fn cmd_serve(args: &Args) {
    let port = args.flag("port").unwrap_or("8080").to_owned();
    let mode = mode_of(args);
    let site = site_of(args);
    let rt = tokio::runtime::Runtime::new().expect("tokio runtime");
    rt.block_on(async move {
        let origin = Arc::new(OriginServer::new(site.clone(), mode));
        // The CLI server opts into the operational endpoints; library
        // users get them only via `.ops(true)` on the builder.
        let server = TcpOrigin::builder()
            .server(origin)
            .clock(wall_clock())
            .ops(true)
            .bind(&format!("127.0.0.1:{port}"))
            .await
            .expect("bind");
        println!(
            "serving {} ({} resources, mode {:?})",
            site.spec.host,
            site.len(),
            mode
        );
        println!("  http://{}{}", server.local_addr, site.base_path());
        println!(
            "  http://{}/metrics (Prometheus), /healthz",
            server.local_addr
        );
        println!("press ctrl-c to stop");
        tokio::signal::ctrl_c().await.ok();
        server.shutdown().await;
    });
}

fn cmd_fetch(args: &Args) {
    let Some(url) = args.positional.get(1) else {
        eprintln!("usage: cachecatalyst fetch <url>");
        std::process::exit(2);
    };
    let url = Url::parse(url).expect("invalid url");
    let rt = tokio::runtime::Runtime::new().expect("tokio runtime");
    rt.block_on(async move {
        let addr = format!("{}:{}", url.host(), url.effective_port());
        let stream = TcpStream::connect(&addr).await.unwrap_or_else(|e| {
            eprintln!("connect {addr}: {e}");
            std::process::exit(1);
        });
        let mut conn = ClientConn::new(stream);
        let mut req = Request::get(&url.target().to_string())
            .with_header("host", &url.authority())
            .with_header("user-agent", "cachecatalyst-cli/0.1");
        if let Some(tag) = args.flag("if-none-match") {
            req.headers.insert("if-none-match", tag);
        }
        let resp = conn.round_trip(&req).await.expect("request failed");
        println!("{} {}", resp.status, resp.status.canonical_reason());
        if args.has("show-headers") {
            for (n, v) in resp.headers.iter() {
                println!("{n}: {v}");
            }
        }
        match EtagConfig::accept(&resp.headers) {
            Some(config) if !config.is_empty() => {
                println!("\nX-Etag-Config ({} entries):", config.len());
                for (p, t) in config.iter() {
                    println!("  {p} = {t}");
                }
            }
            Some(_) => {}
            None => println!("\nX-Etag-Config failed its digest"),
        }
        println!("\n{} body bytes", resp.body.len());
    });
}

fn cmd_load(args: &Args) {
    let mode = mode_of(args);
    let site = site_of(args);
    let rtt = args.flag("rtt").and_then(|v| v.parse().ok()).unwrap_or(40);
    let mbps: u64 = args.flag("bw").and_then(|v| v.parse().ok()).unwrap_or(60);
    let revisit: u64 = args
        .flag("revisit")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3600);
    let cond = NetworkConditions::new(Duration::from_millis(rtt), mbps * 1_000_000);
    let base = Url::parse(&format!("http://{}{}", site.spec.host, site.base_path()))
        .expect("generated url");

    let origin = OriginServer::new(site.clone(), mode);
    let mut browser = match mode {
        HeaderMode::Baseline => Browser::baseline(),
        HeaderMode::NoStore => Browser::uncached(),
        _ => Browser::catalyst(),
    };
    let t0: i64 = 35 * 86_400;
    let cold = browser.load(&origin, cond, &base, t0);
    let warm = browser.load(&origin, cond, &base, t0 + revisit as i64);

    println!(
        "{} | mode {:?} | {} | revisit +{}s\n",
        site.spec.host,
        mode,
        cond.label(),
        revisit
    );
    println!(
        "cold: PLT {:.1} ms, FCP {:.1} ms, {} requests, {} KB",
        cold.plt_ms(),
        cold.fcp_ms(),
        cold.network_requests(),
        cold.bytes_down / 1000
    );
    println!(
        "warm: PLT {:.1} ms, FCP {:.1} ms, {} requests ({} 304s, {} cache hits, {} SW hits), {} KB\n",
        warm.plt_ms(),
        warm.fcp_ms(),
        warm.network_requests(),
        warm.not_modified,
        warm.cache_hits,
        warm.sw_hits,
        warm.bytes_down / 1000
    );
    if args.has("waterfall") {
        println!("{}", warm.trace.render_waterfall(56));
    }
    if let Some(path) = args.flag("har") {
        let har = cachecatalyst::browser::to_har(&warm, "2026-07-06T00:00:00.000Z");
        std::fs::write(path, &har).expect("write HAR file");
        println!("warm-visit HAR written to {path}");
    }
    if let Some(path) = args.flag("csv") {
        std::fs::write(path, warm.trace.to_csv()).expect("write CSV file");
        println!("warm-visit trace CSV written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_and_positionals() {
        let a = parse(&["load", "--seed", "7", "--waterfall", "--rtt", "80"]);
        assert_eq!(a.positional, vec!["load"]);
        assert_eq!(a.flag("seed"), Some("7"));
        assert_eq!(a.flag("rtt"), Some("80"));
        assert!(a.has("waterfall"));
        assert!(!a.has("nope"));
        assert_eq!(a.flag("waterfall"), None, "boolean flag has no value");
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(
            mode_of(&parse(&["x", "--mode", "baseline"])),
            HeaderMode::Baseline
        );
        assert_eq!(
            mode_of(&parse(&["x", "--mode", "capture"])),
            HeaderMode::CatalystWithCapture
        );
        assert_eq!(mode_of(&parse(&["x"])), HeaderMode::Catalyst);
    }

    #[test]
    fn site_selection() {
        let example = site_of(&parse(&["x", "--example"]));
        assert_eq!(example.len(), 5);
        let seeded = site_of(&parse(&["x", "--seed", "3", "--resources", "20"]));
        assert_eq!(seeded.len(), 21);
    }
}
