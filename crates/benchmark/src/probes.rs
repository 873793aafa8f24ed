//! Two small measurements that ride along with the traced run and
//! gate nothing.
//!
//! * TCP round trips against `TcpOrigin` / `TcpEdge` over loopback,
//!   one blocking keep-alive connection. **Report-only:** on
//!   `vendor-stubs` builds the number is `vendor/tokio`'s 250 µs poll
//!   tick, not the serve loop.
//! * `OriginServer::handle` on page requests with spans sampled
//!   `Always` and a fresh `x-cc-trace` each — the tracing cost nobody
//!   pays today because spans are off in every workload.

use std::io::{Error, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cachecatalyst_edge::{EdgeCache, TcpEdge};
use cachecatalyst_httpwire::{codec, tracectx, Method, ParseLimits, Parsed, Request};
use cachecatalyst_origin::{fixed_clock, HeaderMode, OriginServer, TcpOrigin};
use cachecatalyst_telemetry::{Sampling, SpanId, SpanSink, TraceContext, TraceId};
use tokio::sync::watch;

use crate::world::World;

/// Requests per probe.
const PROBE_REQUESTS: usize = 2000;

/// Which server the TCP probe fronts.
#[derive(Clone, Copy)]
pub enum Server {
    Origin,
    Edge,
}

/// Serves site 0 until `stop` fires, reporting the bound address.
async fn serve(
    server: Server,
    world: &World,
    addr: mpsc::Sender<SocketAddr>,
    mut stop: watch::Receiver<bool>,
) -> std::io::Result<()> {
    let bind = "127.0.0.1:0";
    match server {
        Server::Origin => {
            let origin = OriginServer::new(world.sites[0].clone(), HeaderMode::Catalyst);
            let listening = TcpOrigin::builder()
                .server(Arc::new(origin))
                .clock(fixed_clock(0))
                .bind(bind)
                .await?;
            let _ = addr.send(listening.local_addr);
            let _ = stop.changed().await;
            listening.shutdown().await;
        }
        Server::Edge => {
            let edge = EdgeCache::builder(world.origins(HeaderMode::Catalyst).0).build();
            let listening = TcpEdge::bind(bind, Arc::new(edge), fixed_clock(0)).await?;
            let _ = addr.send(listening.local_addr);
            let _ = stop.changed().await;
            listening.shutdown().await;
        }
    }
    Ok(())
}

/// Sends `requests` round-robin over one keep-alive connection and
/// times each write-to-parsed-response round trip, in microseconds.
fn round_trips(addr: SocketAddr, requests: &[Request]) -> std::io::Result<Vec<f64>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let limits = ParseLimits::default();
    let mut buffer = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    let mut rtts = Vec::with_capacity(PROBE_REQUESTS);
    for request in requests.iter().cycle().take(PROBE_REQUESTS) {
        let wire = codec::encode_request(request);
        let started = Instant::now();
        stream.write_all(&wire)?;
        loop {
            match codec::parse_response(&buffer, &Method::Get, &limits) {
                Ok(Parsed::Complete { consumed, .. }) => {
                    buffer.drain(..consumed);
                    break;
                }
                Ok(Parsed::Partial) => {
                    let n = stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(Error::new(ErrorKind::UnexpectedEof, "server closed"));
                    }
                    buffer.extend_from_slice(&chunk[..n]);
                }
                Err(e) => return Err(Error::new(ErrorKind::InvalidData, e.to_string())),
            }
        }
        rtts.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(rtts)
}

/// Round-trip times (µs) of site 0's resources against `server` over
/// loopback. The server runs on its own thread for the duration.
pub fn tcp_rtts_us(server: Server, world: &World) -> std::io::Result<Vec<f64>> {
    let requests = &world.requests()[0];
    let (addr_tx, addr_rx) = mpsc::channel();
    let (stop_tx, stop_rx) = watch::channel(false);
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || {
            tokio::runtime::Runtime::new()?.block_on(serve(server, world, addr_tx, stop_rx))
        });
        // The sender drops if binding fails, which ends the wait.
        let rtts = match addr_rx.recv() {
            Ok(addr) => round_trips(addr, requests),
            Err(_) => Err(Error::other("server did not start")),
        };
        let _ = stop_tx.send(true);
        serving
            .join()
            .map_err(|_| Error::other("server thread panicked"))??;
        rtts
    })
}

/// `OriginServer::handle` times (ns) for site 0's base page with every
/// request traced.
pub fn spans_on_ns(world: &World) -> Vec<f64> {
    let site = world.sites[0].clone();
    let page = Request::get(site.base_path()).with_header("host", &site.spec.host);
    let sink = Arc::new(SpanSink::new(Sampling::Always));
    let origin = OriginServer::new(site, HeaderMode::Catalyst).with_span_sink(Arc::clone(&sink));
    (0..PROBE_REQUESTS)
        .map(|_| {
            let mut request = page.clone();
            let ctx = TraceContext::new(TraceId::next(), SpanId::next());
            tracectx::inject(&mut request, &ctx);
            let started = Instant::now();
            std::hint::black_box(origin.handle(&request, 0));
            started.elapsed().as_nanos() as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_probe_round_trips_against_both_servers() {
        let world = World::generate(5, 0, 10, 2);
        for server in [Server::Origin, Server::Edge] {
            let rtts = tcp_rtts_us(server, &world).expect("loopback probe runs");
            assert_eq!(rtts.len(), PROBE_REQUESTS);
            assert!(rtts.iter().all(|&us| us > 0.0));
        }
    }

    #[test]
    fn spans_on_probe_records_a_span_per_request() {
        let world = World::generate(5, 0, 10, 2);
        assert_eq!(spans_on_ns(&world).len(), PROBE_REQUESTS);
    }
}
