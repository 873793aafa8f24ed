//! The `cachecatalyst` command-line tool.
//!
//! ```text
//! cachecatalyst serve [--port P] [--mode baseline|catalyst|capture|no-store]
//!                     [--seed N [--resources N] | --example]
//!     Serve a generated site (or the paper's example page) over real
//!     TCP with the chosen header mode (`capture`: catalyst plus the
//!     map learned from visits).
//!
//! cachecatalyst fetch <url> [--if-none-match TAG] [--show-headers]
//!     Fetch a URL with the built-in HTTP/1.1 client (pairs with
//!     `serve`; prints the X-Etag-Config map when present).
//!
//! cachecatalyst load [--seed N [--resources N] | --example] [--mode ...] [--rtt MS] [--bw MBPS]
//!                    [--revisit SECS] [--waterfall] [--har FILE] [--csv FILE]
//!     Simulate a cold visit + revisit of a generated site and print
//!     the waterfalls and PLTs (optionally exporting HAR/CSV).
//! ```
//!
//! Flags are read by `cachecatalyst_bench::cli`, the parser the
//! `experiments` binary uses: an unknown flag, a value that does not
//! parse, `--bw 0` or a URL that is not `http://host[:port]/path` is a
//! usage error, which exits 2 before anything runs.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use cachecatalyst::httpwire::aio::ClientConn;
use cachecatalyst::origin::{wall_clock, TcpOrigin};
use cachecatalyst::prelude::*;
use cachecatalyst_bench::cli::{self, Args, Error};
use tokio::net::TcpStream;

const USAGE: &str = "usage: cachecatalyst <serve|fetch|load> [options]\n\
                     see the crate docs or README for details";

/// The header mode `--mode` names (`catalyst` when absent).
fn mode_of(args: &mut Args) -> cli::Result<HeaderMode> {
    match args.value::<String>("--mode")?.as_deref() {
        None | Some("catalyst") => Ok(HeaderMode::Catalyst),
        Some("baseline") => Ok(HeaderMode::Baseline),
        Some("capture") => Ok(HeaderMode::CatalystAggregate),
        Some("no-store") => Ok(HeaderMode::NoStore),
        Some(other) => Err(Error::Usage(format!(
            "--mode {other:?} is not one of baseline, catalyst, capture, no-store"
        ))),
    }
}

/// The site flags: `None` for the paper's example page (`--example`),
/// else a site generated from `--seed` (1) with `--resources`
/// subresources (70). [`build_site`] builds it once every flag is read.
fn site_of(args: &mut Args) -> cli::Result<Option<SiteSpec>> {
    if args.flag("--example") {
        return Ok(None);
    }
    let seed = args.value("--seed")?.unwrap_or(1);
    Ok(Some(SiteSpec {
        host: format!("site{seed}.example"),
        seed,
        n_resources: args.value("--resources")?.unwrap_or(70),
        ..Default::default()
    }))
}

fn build_site(spec: Option<SiteSpec>) -> Site {
    spec.map_or_else(example_site, Site::generate)
}

fn main() {
    cli::exit_on_error(run(&mut Args::from_env()), USAGE);
}

/// Every command reads all of its flags before it does anything, so a
/// command line it cannot read runs nothing.
fn run(args: &mut Args) -> cli::Result {
    match args.positional().as_deref() {
        Some("serve") => cmd_serve(args),
        Some("fetch") => cmd_fetch(args),
        Some("load") => cmd_load(args),
        Some(other) => Err(Error::Usage(format!("unknown command {other:?}"))),
        None => Err(Error::Usage("no command".to_owned())),
    }
}

fn cmd_serve(args: &mut Args) -> cli::Result {
    let port: u16 = args.value("--port")?.unwrap_or(8080);
    let mode = mode_of(args)?;
    let site = site_of(args)?;
    args.finish()?;
    let site = build_site(site);
    let rt = tokio::runtime::Runtime::new()?;
    rt.block_on(async move {
        let origin = Arc::new(OriginServer::new(site.clone(), mode));
        // The CLI server opts into the operational endpoints; library
        // users get them only via `.ops(true)` on the builder.
        let server = TcpOrigin::builder()
            .server(origin)
            .clock(wall_clock())
            .ops(true)
            .bind(&format!("127.0.0.1:{port}"))
            .await?;
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
        Ok(())
    })
}

fn cmd_fetch(args: &mut Args) -> cli::Result {
    let if_none_match: Option<String> = args.value("--if-none-match")?;
    let show_headers = args.flag("--show-headers");
    let url = args
        .positional()
        .ok_or_else(|| Error::Usage("fetch needs a URL".to_owned()))?;
    let url = Url::parse(&url).map_err(|e| Error::Usage(e.to_string()))?;
    args.finish()?;
    let rt = tokio::runtime::Runtime::new()?;
    rt.block_on(async move {
        let addr = format!("{}:{}", url.host(), url.effective_port());
        let stream = TcpStream::connect(&addr)
            .await
            .map_err(|e| io::Error::new(e.kind(), format!("connect {addr}: {e}")))?;
        let mut conn = ClientConn::new(stream);
        let mut req = Request::get(&url.target().to_string())
            .with_header("host", &url.authority())
            .with_header("user-agent", "cachecatalyst-cli/0.1");
        if let Some(tag) = &if_none_match {
            req.headers.insert("if-none-match", tag);
        }
        let resp = conn.round_trip(&req).await.map_err(io::Error::other)?;
        println!("{} {}", resp.status, resp.status.canonical_reason());
        if show_headers {
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
        Ok(())
    })
}

/// A cold visit to a site on day 35 and a revisit some seconds later,
/// both over the same network.
struct Visits {
    site: Option<SiteSpec>,
    cond: NetworkConditions,
    revisit: u32,
}

impl Visits {
    /// The site flags, `--rtt` ms (40), `--bw` Mbps (60, at least 1)
    /// and `--revisit` seconds (3600). The RTT and the revisit are at
    /// most `u32::MAX`, so simulated time cannot wrap.
    fn from_args(args: &mut Args) -> cli::Result<Visits> {
        let site = site_of(args)?;
        let rtt: u32 = args.value("--rtt")?.unwrap_or(40);
        let bps = args
            .value_with("--bw", |v| {
                v.parse::<u64>()
                    .ok()
                    .filter(|&mbps| mbps >= 1)
                    .and_then(|mbps| mbps.checked_mul(1_000_000))
            })?
            .unwrap_or(60_000_000);
        let revisit = args.value("--revisit")?.unwrap_or(3600);
        Ok(Visits {
            site,
            cond: NetworkConditions::new(Duration::from_millis(rtt.into()), bps),
            revisit,
        })
    }

    /// The site and both visits, cold and warm, by the browser that
    /// goes with `mode`.
    fn simulate(&self, mode: HeaderMode) -> (Site, LoadReport, LoadReport) {
        let site = build_site(self.site.clone());
        let base = Url::parse(&format!("http://{}{}", site.spec.host, site.base_path()))
            .expect("generated url");
        let origin = OriginServer::new(site.clone(), mode);
        let mut browser = match mode {
            HeaderMode::Baseline => Browser::baseline(),
            HeaderMode::NoStore => Browser::uncached(),
            HeaderMode::Catalyst | HeaderMode::CatalystAggregate => Browser::catalyst(),
        };
        let t0: i64 = 35 * 86_400;
        let cold = browser.load(&origin, self.cond, &base, t0);
        let warm = browser.load(&origin, self.cond, &base, t0 + i64::from(self.revisit));
        (site, cold, warm)
    }
}

fn cmd_load(args: &mut Args) -> cli::Result {
    let mode = mode_of(args)?;
    let visits = Visits::from_args(args)?;
    let waterfall = args.flag("--waterfall");
    let har: Option<String> = args.value("--har")?;
    let csv: Option<String> = args.value("--csv")?;
    args.finish()?;
    let (site, cold, warm) = visits.simulate(mode);

    println!(
        "{} | mode {:?} | {} | revisit +{}s\n",
        site.spec.host,
        mode,
        visits.cond.label(),
        visits.revisit
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
    if waterfall {
        println!("{}", warm.trace.render_waterfall(56));
    }
    if let Some(path) = har {
        let har = cachecatalyst::browser::to_har(&warm, "2026-07-06T00:00:00.000Z");
        std::fs::write(&path, &har)?;
        println!("warm-visit HAR written to {path}");
    }
    if let Some(path) = csv {
        std::fs::write(&path, warm.trace.to_csv())?;
        println!("warm-visit trace CSV written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        let mode = |line| mode_of(&mut Args::new(line));
        assert_eq!(mode("--mode baseline").unwrap(), HeaderMode::Baseline);
        assert_eq!(
            mode("--mode capture").unwrap(),
            HeaderMode::CatalystAggregate
        );
        assert_eq!(mode("").unwrap(), HeaderMode::Catalyst);
        assert!(matches!(mode("--mode agregate"), Err(Error::Usage(_))));
        assert!(matches!(mode("--mode"), Err(Error::Usage(_))));
    }

    /// `load --example --mode capture --revisit 60`: the first visit
    /// teaches the map the JS-discovered c.js and d.jpg, so the revisit
    /// fetches only the page and the service worker serves all four
    /// subresources.
    #[test]
    fn load_in_capture_mode_serves_every_subresource_from_the_worker() {
        let mut args = Args::new("--example --mode capture --revisit 60");
        let mode = mode_of(&mut args).unwrap();
        let (_, _, warm) = Visits::from_args(&mut args).unwrap().simulate(mode);
        args.finish().unwrap();
        assert_eq!(warm.network_requests(), 1);
        assert_eq!(warm.sw_hits, 4);
        assert_eq!(format!("{:.1}", warm.plt_ms()), "94.1");
    }

    #[test]
    fn site_selection() {
        let site = |line| build_site(site_of(&mut Args::new(line)).unwrap());
        assert_eq!(site("--example").len(), 5);
        assert_eq!(site("--seed 3 --resources 20").len(), 21);
        assert!(matches!(
            site_of(&mut Args::new("--seed x")),
            Err(Error::Usage(_))
        ));
    }

    /// A link needs a positive capacity, and the Mbps → bps product
    /// must not wrap.
    #[test]
    fn bandwidth_is_at_least_one_mbps_and_fits() {
        fn bw(line: &str) -> cli::Result<u64> {
            Visits::from_args(&mut Args::new(line)).map(|v| v.cond.down_bps)
        }
        assert_eq!(bw("--example").unwrap(), 60_000_000);
        assert_eq!(bw("--example --bw 1").unwrap(), 1_000_000);
        for bad in ["--bw 0", "--bw -5", "--bw 20000000000000", "--bw"] {
            assert!(
                matches!(bw(&format!("--example {bad}")), Err(Error::Usage(_))),
                "{bad}"
            );
        }
    }
}
