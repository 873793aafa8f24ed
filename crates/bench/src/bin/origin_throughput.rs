//! E18 — origin hot-path throughput: hammers `OriginServer::handle`
//! from M worker threads across the header-mode matrix and reports
//! req/s, p50/p99 handle latency (from the server's own telemetry
//! histogram), and allocations per request (counting global
//! allocator).
//!
//! The workload is the paper's §6 stress case: *revisits across
//! virtual seconds*. Every request carries a globally unique `t_secs`
//! inside one churn epoch of the example site (all subresource
//! versions constant below 5400 s), so a `(page, t)`-keyed config
//! cache misses every request while an epoch-keyed cache hits every
//! request after the first — exactly the gap this suite tracks.
//!
//! Flags: see `USAGE` below.
//!
//! `--spans always` runs the matrix with every request carrying an
//! `x-cc-trace` context against a recording span sink — the worst
//! case for the tracing layer. Full (non-smoke) runs additionally
//! measure the catalyst mode both ways and record the spans-off vs
//! spans-on delta.
//!
//! Appends a labelled section to `results/origin_throughput.txt` and
//! rewrites `BENCH_origin.json` (repo root) with machine-readable
//! rows `{mode, threads, reqs_per_sec, p50_us, p99_us}` plus the
//! tracing-overhead measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cachecatalyst_bench::cli::{self, Args};
use cachecatalyst_httpwire::{tracectx, Request};
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_telemetry::span::{Sampling, SpanId, SpanSink, TraceContext, TraceId};
use cachecatalyst_webmodel::example_site;

/// Counts every heap allocation made by the process so the harness
/// can report allocations per request (frees are not interesting
/// here; the hot path's cost is in the malloc calls).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured configuration.
#[derive(Clone)]
struct Row {
    mode: &'static str,
    threads: usize,
    reqs_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    allocs_per_req: f64,
}

/// All versions of the example site's resources are constant for
/// `t in [0, 5400)` (index.html's 90-minute period is the shortest),
/// so every `t` below this bound lies in one churn epoch.
const EPOCH_SECS: i64 = 5400;

fn run_mode(mode: HeaderMode, threads: usize, iters_per_thread: usize, traced: bool) -> Row {
    let mut server = OriginServer::new(example_site(), mode);
    if traced {
        server = server.with_span_sink(Arc::new(SpanSink::new(Sampling::Always)));
    }
    let server = Arc::new(server);

    // Warm-up: one request primes lazy state (telemetry families,
    // caches) without polluting the measured allocation count much.
    server.handle(&request_for(mode, 0, traced), 0);

    let alloc_before = ALLOCATIONS.load(Ordering::Relaxed);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for thread_id in 0..threads {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                for i in 0..iters_per_thread {
                    // Globally unique t per request, all inside one
                    // churn epoch: the revisit-across-seconds case.
                    let t = ((thread_id * iters_per_thread + i) as i64) % EPOCH_SECS;
                    let resp = server.handle(&request_for(mode, t, traced), t);
                    assert!(resp.status.as_u16() < 400, "unexpected {}", resp.status);
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let alloc_after = ALLOCATIONS.load(Ordering::Relaxed);

    // Sanity line (stderr, not part of the recorded table): the
    // epoch-keyed cache should build once and hit everything else.
    let m = server.metrics();
    eprintln!(
        "# {}: config cache {} built / {} hits over {} requests",
        mode.label(),
        m.configs_built,
        m.config_cache_hits,
        m.requests
    );
    let total = (threads * iters_per_thread) as f64;
    let hist = server.telemetry().histogram(
        "origin_handle_seconds",
        "Sans-IO request handling latency",
        &[("mode", mode.label())],
    );
    Row {
        mode: mode.label(),
        threads,
        reqs_per_sec: total / elapsed.as_secs_f64(),
        p50_us: hist.quantile(0.50) * 1e6,
        p99_us: hist.quantile(0.99) * 1e6,
        allocs_per_req: (alloc_after - alloc_before) as f64 / total,
    }
}

/// The page request for one iteration. Capture mode carries a session
/// cookie (so the per-session store engages); aggregate mode needs
/// only the visit itself. Traced iterations stamp a fresh sampled
/// `x-cc-trace` context per request (the tracing layer's worst case).
fn request_for(mode: HeaderMode, t: i64, traced: bool) -> Request {
    let mut req = Request::get("/index.html").with_header("host", "bench.example");
    if let HeaderMode::CatalystWithCapture = mode {
        req = req.with_header("cookie", "cc-session=bench");
    }
    if traced {
        let ctx = TraceContext::new(TraceId::next(), SpanId::next()).at(t as f64 * 1000.0);
        tracectx::inject(&mut req, &ctx);
    }
    req
}

/// The spans-off vs spans-on throughput comparison (catalyst mode).
struct SpansDelta {
    off_reqs_per_sec: f64,
    on_reqs_per_sec: f64,
}

impl SpansDelta {
    /// Percent of throughput lost with tracing on for every request.
    fn overhead_percent(&self) -> f64 {
        if self.off_reqs_per_sec <= 0.0 {
            return 0.0;
        }
        (self.off_reqs_per_sec - self.on_reqs_per_sec) / self.off_reqs_per_sec * 100.0
    }
}

fn render_table(rows: &[Row], threads: usize, iters: usize, label: &str, spans: bool) -> String {
    let mut out = String::new();
    let spans_note = if spans { ", spans=always" } else { "" };
    let _ = writeln!(
        out,
        "## {label} — {threads} threads x {iters} iters/thread, \
         revisit-at-new-t workload{spans_note}"
    );
    let _ = writeln!(
        out,
        "{:<20} {:>12} {:>10} {:>10} {:>12}",
        "mode", "reqs/sec", "p50_us", "p99_us", "allocs/req"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<20} {:>12.0} {:>10.1} {:>10.1} {:>12.1}",
            r.mode, r.reqs_per_sec, r.p50_us, r.p99_us, r.allocs_per_req
        );
    }
    out
}

fn render_json(rows: &[Row], label: &str, spans: Option<&SpansDelta>) -> String {
    let mut out = String::from("{\n  \"bench\": \"origin_throughput\",\n");
    let _ = writeln!(out, "  \"label\": \"{label}\",");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"threads\": {}, \"reqs_per_sec\": {:.0}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"allocs_per_req\": {:.1}}}{comma}",
            r.mode, r.threads, r.reqs_per_sec, r.p50_us, r.p99_us, r.allocs_per_req
        );
    }
    out.push_str("  ]");
    if let Some(d) = spans {
        out.push_str(",\n  \"spans\": {\n");
        let _ = writeln!(
            out,
            "    \"mode\": \"catalyst\",\n    \"off_reqs_per_sec\": {:.0},\n    \
             \"on_reqs_per_sec\": {:.0},\n    \"overhead_percent\": {:.1}",
            d.off_reqs_per_sec,
            d.on_reqs_per_sec,
            d.overhead_percent()
        );
        out.push_str("  }");
    }
    out.push_str("\n}\n");
    out
}

const USAGE: &str = "usage: origin_throughput [--smoke] [--threads M] [--iters N] [--label L] \
                     [--spans off|always]";

fn main() {
    cli::exit_on_error(run(&mut Args::from_env()), USAGE);
}

fn run(args: &mut Args) -> cli::Result {
    let smoke = args.flag("--smoke");
    let threads: usize = args
        .value("--threads")?
        .unwrap_or(if smoke { 2 } else { 8 });
    let iters: usize = args
        .value("--iters")?
        .unwrap_or(if smoke { 50 } else { 600 });
    let label: String = args.value("--label")?.unwrap_or_else(|| "run".to_owned());
    let spans_on = args
        .value_with("--spans", |v| match v {
            "off" => Some(false),
            "always" => Some(true),
            _ => None,
        })?
        .unwrap_or(false);
    args.finish()?;

    let modes = [
        HeaderMode::Baseline,
        HeaderMode::Catalyst,
        HeaderMode::CatalystWithCapture,
        HeaderMode::CatalystAggregate,
    ];
    let rows: Vec<Row> = modes
        .iter()
        .map(|&m| run_mode(m, threads, iters, spans_on))
        .collect();

    let table = render_table(&rows, threads, iters, &label, spans_on);
    print!("{table}");

    if smoke {
        // Smoke runs exist to prove the binary works (CI); their
        // numbers are noise and must not overwrite recorded results.
        return Ok(());
    }

    // The tracing-overhead measurement: catalyst mode with sampling
    // off vs a fresh traced run of the same shape. The off side
    // reuses the matrix row when the matrix itself ran untraced.
    let catalyst_off = if spans_on {
        run_mode(HeaderMode::Catalyst, threads, iters, false)
    } else {
        rows[1].clone()
    };
    let catalyst_on = if spans_on {
        rows[1].clone()
    } else {
        run_mode(HeaderMode::Catalyst, threads, iters, true)
    };
    let delta = SpansDelta {
        off_reqs_per_sec: catalyst_off.reqs_per_sec,
        on_reqs_per_sec: catalyst_on.reqs_per_sec,
    };
    println!(
        "spans overhead (catalyst): off {:.0} req/s, on {:.0} req/s, {:+.1}%",
        delta.off_reqs_per_sec,
        delta.on_reqs_per_sec,
        -delta.overhead_percent()
    );

    std::fs::create_dir_all("results").expect("create results/");
    use std::io::Write as _;
    let mut txt = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("results/origin_throughput.txt")
        .expect("open results/origin_throughput.txt");
    txt.write_all(table.as_bytes()).expect("append results");
    std::fs::write(
        "BENCH_origin.json",
        render_json(&rows, &label, Some(&delta)),
    )
    .expect("write BENCH_origin.json");
    Ok(())
}
