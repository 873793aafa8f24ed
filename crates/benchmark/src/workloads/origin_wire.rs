//! `origin-wire`: `S` through the sans-IO serve path with no cache in
//! front — `encode_request` → `parse_request` → `MultiOrigin::handle`
//! → `encode_response` → `parse_response`. It is the socket path minus
//! the async runtime (which stub builds cannot measure), and the
//! paper's Caddy↔Chrome set-up with no edge: `origin` and `httpwire`
//! are all of the time; `edge` and `browser` are bypassed.
//!
//! A request carries `If-None-Match` — the last ETag any client saw
//! for that path — when its user has visited the site before, so
//! pages with config maps, full bodies and `304`s arrive in the
//! fleet's proportions.

use std::time::Instant;

use cachecatalyst_browser::Upstream;
use cachecatalyst_httpwire::{
    codec, HeaderName, Method, ParseLimits, Parsed, Request, Response, StatusCode,
};
use cachecatalyst_origin::HeaderMode;

use super::edge::classify_origin;
use crate::model::{Exact, Lap, Layers, Sizes};
use crate::oracle::Oracle;
use crate::spans::{timed, Timed, Tracer};
use crate::stats::Block;
use crate::world::{Item, World};

/// What the clients collectively remember about one path: the last
/// ETag served, that body's length, and the conditional request a
/// returning user sends — rebuilt only when the ETag changes, so the
/// timed loop builds no requests of its own.
struct Validator {
    etag: String,
    body_len: u64,
    conditional: Request,
}

/// The client and server ends of one connection, minus the socket.
struct Wire<'a, U> {
    upstream: &'a U,
    requests: &'a [Vec<Request>],
    tracer: Option<&'a Tracer>,
    limits: ParseLimits,
    validators: Vec<Vec<Option<Validator>>>,
    exact: Exact,
}

impl<U: Upstream> Wire<'_, U> {
    /// One request/response exchange; returns the response when the
    /// oracle wants its body checked. Each stage takes what it is done
    /// with by value — the encoded request into the request parser,
    /// the request and response into the response encoder (a serve
    /// loop holds both until the response is written), the encoded
    /// response and the client's bookkeeping into the response parser
    /// — so freeing a buffer is timed with the stage that consumed it.
    fn exchange(&mut self, item: &Item, oracle: &mut Oracle) -> Option<Response> {
        let (site, path) = (item.site as usize, item.path as usize);
        let tracer = self.tracer;
        let limits = self.limits;
        let request = match (item.revisit, &self.validators[site][path]) {
            (true, Some(validator)) => &validator.conditional,
            _ => &self.requests[site][path],
        };
        let sent = timed(tracer, "httpwire.encode_request", || {
            codec::encode_request(request)
        });
        let parsed = timed(tracer, "httpwire.parse_request", move || {
            codec::parse_request(&sent, &limits)
        });
        let Ok(Parsed::Complete {
            message: received, ..
        }) = parsed
        else {
            oracle.fail();
            return None;
        };
        // The serve loops route on the parsed `Host`, not on anything
        // the client knew.
        let Some(host) = received.headers.get(HeaderName::HOST) else {
            oracle.fail();
            return None;
        };
        let response = self
            .upstream
            .handle(host, &received, i64::from(item.t_secs));
        let answered = timed(tracer, "httpwire.encode_response", move || {
            let wire = codec::encode_response(&response);
            drop(received);
            wire
        });
        timed(tracer, "httpwire.parse_response", || {
            let parsed = codec::parse_response(&answered, &Method::Get, &limits);
            let Ok(Parsed::Complete { message, consumed }) = parsed else {
                oracle.fail();
                return None;
            };
            if consumed != answered.len() {
                oracle.fail();
                return None;
            }
            self.exact.bytes += answered.len() as u64;
            drop(answered);
            self.account(site, path, &message);
            oracle.observe(message.status).then_some(message)
        })
    }

    /// What the client keeps from a response: the byte accounting and
    /// the validator for the next conditional request.
    fn account(&mut self, site: usize, path: usize, message: &Response) {
        let validator = &mut self.validators[site][path];
        if message.status == StatusCode::NOT_MODIFIED {
            self.exact.hits += 1;
            self.exact.hit_bytes += validator.as_ref().map_or(0, |v| v.body_len);
        } else if message.status == StatusCode::OK {
            let body_len = message.body.len() as u64;
            self.exact.upstream_bytes += body_len;
            if let Some(etag) = message.headers.get(HeaderName::ETAG) {
                if validator.as_ref().is_none_or(|v| v.etag != etag) {
                    *validator = Some(Validator {
                        etag: etag.to_owned(),
                        body_len,
                        conditional: self.requests[site][path]
                            .clone()
                            .with_header("if-none-match", etag),
                    });
                }
            }
        }
    }
}

struct Driven {
    setup_s: f64,
    blocks: Vec<Block>,
    exact: Exact,
    failed: u64,
}

fn drive<U: Upstream>(
    upstream: &U,
    setup_started: Instant,
    world: &World,
    requests: &[Vec<Request>],
    items: &[Item],
    tracer: Option<&Tracer>,
) -> Driven {
    let mut wire = Wire {
        upstream,
        requests,
        tracer,
        limits: ParseLimits::default(),
        validators: world
            .paths
            .iter()
            .map(|p| p.iter().map(|_| None).collect())
            .collect(),
        exact: Exact::default(),
    };
    let mut oracle = Oracle::default();
    let (warm, timed_items) = super::split_warm_up(items);
    for item in warm {
        wire.exchange(item, &mut oracle);
    }
    if let Some(tracer) = tracer {
        tracer.take();
    }
    wire.exact = Exact::default();
    oracle = Oracle::default();
    let setup_s = setup_started.elapsed().as_secs_f64();

    let blocks = super::timed_blocks(world, timed_items, tracer, &mut oracle, |item, oracle| {
        wire.exchange(item, oracle)
    });
    Driven {
        setup_s,
        blocks,
        exact: wire.exact,
        failed: oracle.failed,
    }
}

/// One lap.
pub fn lap(seed: u64, lap: u32, sizes: &Sizes, tracer: Option<&Tracer>) -> Lap {
    let setup_started = Instant::now();
    let world = World::generate(seed, lap, sizes.users, sizes.sites);
    let items = world.stream();
    let requests = world.requests();
    let (multi, servers) = world.origins(HeaderMode::Catalyst);

    let driven = match tracer {
        None => drive(&multi, setup_started, &world, &requests, &items, None),
        Some(tracer) => drive(
            &Timed::new(multi, tracer, classify_origin),
            setup_started,
            &world,
            &requests,
            &items,
            Some(tracer),
        ),
    };

    let ops: u64 = driven.blocks.iter().map(|b| b.ops).sum();
    let mut layers = Layers::default();
    if tracer.is_some() {
        super::origin_counters(&mut layers, &servers);
        super::world_stats(&mut layers, &world, items.len());
        layers.add("httpwire.resp_bytes", driven.exact.bytes as f64);
        layers.add("httpwire.responses", ops as f64);
    }
    Lap {
        setup_s: driven.setup_s,
        blocks: driven.blocks,
        exact: Exact {
            ops,
            failed: driven.failed,
            // No cache in front: every request is a lookup that
            // reaches the origin; a `304` is the reuse.
            lookups: ops,
            upstream_requests: ops,
            requests: ops,
            ..driven.exact
        },
        problems: Vec::new(),
        layers,
    }
}
