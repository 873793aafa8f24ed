//! Origin hot-path throughput: hammers `OriginServer::handle` from M
//! worker threads in each header mode, then once more in catalyst mode
//! with every request traced, and reports req/s.
//!
//! The workload is the paper's §6 stress case: *revisits across
//! virtual seconds*. Every request carries its own `t_secs` inside one
//! churn epoch of the example site, so a `(page, t)`-keyed config
//! cache would miss every request while the epoch-keyed one hits every
//! request after the first. The traced pass stamps a fresh sampled
//! `x-cc-trace` context on every request against a recording sink —
//! the tracing layer's worst case.
//!
//! What one request allocates is pinned per mode in
//! `tests/alloc_budget.rs`; what one request takes, per kind, is the
//! repo benchmark's `origin.*_ns_p50` rows.

use std::io::Write;
use std::sync::Arc;

use super::hammer::{hammer, threads_arg, threads_on_cores};
use crate::cli::{self, Args};
use crate::table::render_table;
use cachecatalyst_httpwire::{tracectx, Request};
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_telemetry::span::{Sampling, SpanId, SpanSink, TraceContext, TraceId};
use cachecatalyst_webmodel::example_site;

/// Requests per timed section: fixed work, sized so that the fastest
/// section (baseline, untraced) runs for over a second on the 2-vCPU
/// build box.
const REQUESTS: usize = 600_000;

/// All versions of the example site's resources are constant for
/// `t in [0, 5400)` (index.html's 90-minute period is the shortest),
/// so every `t` below this bound lies in one churn epoch.
const EPOCH_SECS: usize = 5400;

/// The page request for one iteration.
fn request_for(t: i64, traced: bool) -> Request {
    let mut req = Request::get("/index.html").with_header("host", "bench.example");
    if traced {
        let ctx = TraceContext::new(TraceId::next(), SpanId::next()).at(t as f64 * 1000.0);
        tracectx::inject(&mut req, &ctx);
    }
    req
}

/// Requests per second of one timed section.
fn reqs_per_sec(mode: HeaderMode, threads: usize, traced: bool) -> f64 {
    let mut server = OriginServer::new(example_site(), mode);
    if traced {
        server = server.with_span_sink(Arc::new(SpanSink::new(Sampling::Always)));
    }
    // One request primes the lazy state (telemetry families, caches).
    server.handle(&request_for(0, traced), 0);

    let iters = REQUESTS / threads;
    let secs = hammer(threads, iters, |thread, i| {
        let t = ((thread * iters + i) % EPOCH_SECS) as i64;
        let resp = server.handle(&request_for(t, traced), t);
        assert!(resp.status.as_u16() < 400, "unexpected {}", resp.status);
    });
    let m = server.metrics();
    eprintln!(
        "# {}{}: {secs:.2} s; config cache {} built / {} hits over {} requests",
        mode.label(),
        if traced { ", spans always" } else { "" },
        m.configs_built,
        m.config_cache_hits,
        m.requests
    );
    (threads * iters) as f64 / secs
}

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let threads = threads_arg(args)?;
    writeln!(
        out,
        "== origin throughput: OriginServer::handle of /index.html at a new second each, \
         {} x {} requests (host wall clock) ==\n",
        threads_on_cores(threads),
        REQUESTS / threads
    )?;

    let mut rows = Vec::new();
    let mut untraced = 0.0;
    for mode in [
        HeaderMode::Baseline,
        HeaderMode::Catalyst,
        HeaderMode::CatalystAggregate,
    ] {
        let rate = reqs_per_sec(mode, threads, false);
        if mode == HeaderMode::Catalyst {
            untraced = rate;
        }
        rows.push(vec![mode.label().to_owned(), format!("{rate:.0}")]);
    }
    let traced = reqs_per_sec(HeaderMode::Catalyst, threads, true);
    rows.push(vec![
        "catalyst, spans always".to_owned(),
        format!("{traced:.0}"),
    ]);
    writeln!(out, "{}", render_table(&["mode", "reqs/sec"], &rows))?;
    writeln!(
        out,
        "Tracing every request costs {:.1} % of catalyst throughput \
         ({untraced:.0} -> {traced:.0} req/s).",
        (untraced - traced) / untraced * 100.0
    )?;
    Ok(())
}
