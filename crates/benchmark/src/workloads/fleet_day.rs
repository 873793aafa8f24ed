//! `fleet-day`: the paper's own comparison — `run_fleet` over one
//! trace, once with baseline browsers and once with catalyst ones.
//! One op is one page visit in either mode. `browser` (with the HTTP
//! cache, the service worker and `netsim` inside it) is about nine
//! tenths of the time, so browser, netsim and fleet work shows here
//! and edge/origin work barely does. Running both modes makes a
//! service-worker gain that costs the HTTP-cache path show.
//!
//! `run_fleet` builds its own edge, so the traced run cannot inject
//! decorators into it. It runs `mirror` instead — the same replay
//! loop with [`Timed`] around the edge and the origins and a span
//! around `Browser::load` — and fails unless the mirror's counters
//! equal `run_fleet`'s for the same trace.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cachecatalyst_bench::fleet::{fleet_corpus, kind_label, run_fleet, FleetOptions, FleetReport};
use cachecatalyst_bench::runner::base_url_of;
use cachecatalyst_bench::ClientKind;
use cachecatalyst_browser::{Browser, MultiOrigin};
use cachecatalyst_edge::{EdgeCache, EdgeMetrics, StoreOptions};
use cachecatalyst_netsim::{SimTime, VirtualSchedule};
use cachecatalyst_origin::OriginServer;
use cachecatalyst_telemetry::Registry;
use cachecatalyst_webmodel::workload::Trace;

use super::edge::{classify_origin, edge_counters, exact_of};
use crate::model::{Exact, Lap, Layers, Sizes};
use crate::spans::{Timed, Tracer};
use crate::stats::Block;
use crate::sys::cpu_ns;
use crate::world::World;

const MODES: [ClientKind; 2] = [ClientKind::Baseline, ClientKind::Catalyst];

/// "No worse" for the catalyst-versus-baseline checks: the same 0.1 %
/// past which an exact metric counts as changed.
pub const NO_WORSE: f64 = 1.001;

fn options(kind: ClientKind) -> FleetOptions {
    FleetOptions {
        kind,
        ..FleetOptions::default()
    }
}

fn upstream_per_req(edge: &EdgeMetrics) -> f64 {
    edge.upstream_requests as f64 / edge.requests.max(1) as f64
}

/// `run_fleet` in both modes, timed. Returns the reports, one block
/// covering both, and the per-mode wall seconds.
fn both_modes(trace: &Trace) -> ([FleetReport; 2], Block, [f64; 2]) {
    let mut wall = [0.0; 2];
    let cpu_start = cpu_ns();
    let reports = [0, 1].map(|i| {
        let started = Instant::now();
        let report = run_fleet(trace, &options(MODES[i]));
        wall[i] = started.elapsed().as_secs_f64();
        report
    });
    let block = Block {
        ops: reports[0].visits + reports[1].visits,
        wall_ns: ((wall[0] + wall[1]) * 1e9) as u64,
        cpu_ns: cpu_ns() - cpu_start,
    };
    (reports, block, wall)
}

/// The checks every fleet lap makes on `run_fleet`'s own output.
fn check_reports(trace: &Trace, reports: &[FleetReport; 2], problems: &mut Vec<String>) {
    for report in reports {
        if report.visits != trace.events.len() as u64 {
            problems.push(format!(
                "{}: replayed {} of {} visits",
                report.mode,
                report.visits,
                trace.events.len()
            ));
        }
    }
    let [baseline, catalyst] = reports;
    if upstream_per_req(&catalyst.edge) > upstream_per_req(&baseline.edge) * NO_WORSE {
        problems.push(format!(
            "catalyst sends more upstream per request ({:.4}) than baseline ({:.4})",
            upstream_per_req(&catalyst.edge),
            upstream_per_req(&baseline.edge)
        ));
    }
}

fn exact_from(reports: &[FleetReport; 2], failed: u64) -> Exact {
    let [baseline, catalyst] = reports;
    Exact {
        ops: baseline.visits + catalyst.visits,
        failed,
        bytes: baseline.bytes_down + catalyst.bytes_down,
        plt_p50_ms: catalyst.plt_p50_ms,
        plt_p99_ms: catalyst.plt_p99_ms,
        ..exact_of(&catalyst.edge)
    }
}

/// One untraced lap.
pub fn lap(seed: u64, lap: u32, sizes: &Sizes) -> Lap {
    let setup_started = Instant::now();
    let world = World::generate(seed, lap, sizes.users, sizes.sites);
    let setup_s = setup_started.elapsed().as_secs_f64();

    let (reports, block, _) = both_modes(&world.trace);
    let mut problems = Vec::new();
    check_reports(&world.trace, &reports, &mut problems);
    Lap {
        setup_s,
        blocks: vec![block],
        exact: exact_from(&reports, problems.len() as u64),
        problems,
        layers: Layers::default(),
    }
}

/// What [`mirror`] observed, in `run_fleet`'s terms.
struct Mirrored {
    visits: u64,
    users: u64,
    bytes_down: u64,
    edge: EdgeMetrics,
    plt_ms: Vec<f64>,
    wall_s: f64,
}

/// `run_fleet`'s replay, line for line, with spans: `browser.load.*`
/// around each visit, `edge.handle` around the edge, `origin.*` around
/// the origins. Per-visit browser counts go to `layers`.
fn mirror(trace: &Trace, mode: usize, tracer: &Tracer, layers: &mut Layers) -> Mirrored {
    let kind = MODES[mode];
    let started = Instant::now();
    let opts = options(kind);
    let sites = fleet_corpus(trace, opts.resources_median);
    let registry = Arc::new(Registry::new());

    let mut multi = MultiOrigin::new();
    let mut base_urls = Vec::with_capacity(sites.len());
    let mut servers = Vec::with_capacity(sites.len());
    for site in sites {
        base_urls.push(base_url_of(&site));
        let host = site.spec.host.clone();
        let origin = Arc::new(
            OriginServer::new(site, kind.header_mode()).with_registry(Arc::clone(&registry)),
        );
        multi.add(&host, Arc::clone(&origin));
        servers.push(origin);
    }
    let edge = EdgeCache::builder(Timed::new(multi, tracer, classify_origin))
        .store(StoreOptions::new().mem_budget(opts.edge_budget))
        .registry(registry)
        .try_build()
        .expect("edge store opens");
    let edge = Timed::new(edge, tracer, |_, _| "edge.handle");

    let load_span = ["browser.load.baseline", "browser.load.catalyst"][mode];
    let key = |baseline: &'static str, catalyst: &'static str| [baseline, catalyst][mode];
    let mut mirrored = Mirrored {
        visits: 0,
        users: 0,
        bytes_down: 0,
        edge: EdgeMetrics::default(),
        plt_ms: Vec::with_capacity(trace.events.len()),
        wall_s: 0.0,
    };
    let last_event = trace.last_event_of_user();
    let mut browsers: HashMap<u32, Browser> = HashMap::new();
    let mut sched = VirtualSchedule::new();
    for (idx, event) in trace.events.iter().enumerate() {
        sched.schedule(SimTime::from_millis(event.t_ms), idx);
    }
    while let Some((at, idx)) = sched.pop() {
        let event = &trace.events[idx];
        let t_secs = (at.as_nanos() / 1_000_000_000) as i64;
        let browser = browsers.entry(event.user).or_insert_with(|| {
            mirrored.users += 1;
            kind.browser()
        });
        tracer.next_op();
        let report = tracer.time(load_span, || {
            browser.load(&edge, opts.cond, &base_urls[event.site as usize], t_secs)
        });
        mirrored.plt_ms.push(report.plt.as_millis_f64());
        mirrored.bytes_down += report.bytes_down;
        mirrored.visits += 1;
        layers.add(
            key("browser.baseline.net_reqs", "browser.catalyst.net_reqs"),
            report.network_requests() as f64,
        );
        layers.add("browser.sw_hits", report.sw_hits as f64);
        layers.add("browser.cache_hits", report.cache_hits as f64);
        layers.add("browser.not_modified", report.not_modified as f64);
        if last_event.get(&event.user) == Some(&idx) {
            browsers.remove(&event.user);
        }
    }
    mirrored.edge = edge.inner().metrics();
    mirrored.wall_s = started.elapsed().as_secs_f64();
    layers.add(
        key("fleet.baseline.visits", "fleet.catalyst.visits"),
        mirrored.visits as f64,
    );
    super::origin_counters(layers, &servers);
    mirrored
}

/// One traced lap: `run_fleet` untraced for reference, then the
/// mirror, per mode. The spans stay in `tracer` for the caller.
pub fn traced_lap(seed: u64, lap: u32, sizes: &Sizes, tracer: &Tracer) -> Lap {
    let setup_started = Instant::now();
    let world = World::generate(seed, lap, sizes.users, sizes.sites);
    let setup_s = setup_started.elapsed().as_secs_f64();
    let trace = &world.trace;

    let (reports, block, plain_wall) = both_modes(trace);
    let mut problems = Vec::new();
    check_reports(trace, &reports, &mut problems);

    let mut layers = Layers::default();
    let mut mirror_wall_s = 0.0;
    for (mode, &kind) in MODES.iter().enumerate() {
        let reference = &reports[mode];
        let mut mirrored = mirror(trace, mode, tracer, &mut layers);
        mirror_wall_s += mirrored.wall_s;
        if mirrored.edge != reference.edge
            || mirrored.visits != reference.visits
            || mirrored.users != reference.users
            || mirrored.bytes_down != reference.bytes_down
        {
            problems.push(format!(
                "{}: the traced mirror diverged from run_fleet \
                 (edge {:?} vs {:?})",
                kind_label(kind),
                mirrored.edge,
                reference.edge
            ));
        }
        let plt_key = ["browser.baseline.plt_ms", "browser.catalyst.plt_ms"][mode];
        layers
            .samples
            .entry(plt_key)
            .or_default()
            .append(&mut mirrored.plt_ms);
        layers.add(
            ["fleet.baseline.wall_s", "fleet.catalyst.wall_s"][mode],
            plain_wall[mode],
        );
    }
    layers.add("fleet.users", reports[1].users as f64);
    layers.add("trace.plain_wall_ns", block.wall_ns as f64);
    layers.add("fleet.mirror_wall_ns", mirror_wall_s * 1e9);
    edge_counters(&mut layers, &reports[1].edge);
    super::world_stats(&mut layers, &world, world.stream_len());

    Lap {
        setup_s,
        blocks: vec![block],
        exact: exact_from(&reports, problems.len() as u64),
        problems,
        layers,
    }
}
