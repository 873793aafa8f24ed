//! One workload, one process: run its laps, pool them, name the
//! numbers.

use std::path::Path;
use std::time::Instant;

use crate::json::Value;
use crate::model::{Exact, Lap, Layers, Metric, Sizes, Workload, END_TO_END, PER_LAYER};
use crate::probes::{self, Server};
use crate::spans::{self, Span, Tracer, ROOT};
use crate::stats::{block_median_rate, median, percentile, Block};
use crate::sys;
use crate::workloads::{edge, fleet_day, origin_wire};
use crate::world::World;

/// Everything one run of one workload produced.
pub struct Outcome {
    pub workload: Workload,
    pub sizes: Sizes,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, in words. Empty on a correct run.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The contract line: `correct`, `attempted`, `failed`, and the
    /// metrics `BENCHMARK.json` declares for this kind of run.
    pub fn contract_json(&self) -> Value {
        let declared: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|(name, _, _)| *name).collect()
        } else {
            crate::model::contract_end_to_end()
                .map(|m| m.name)
                .collect()
        };
        Value::Obj(self.members(|name| declared.contains(&name)))
    }

    /// The full record written under `<target>/benchmark/`.
    pub fn record_json(&self, env: Value) -> Value {
        let problems = self.problems.iter().map(|p| Value::from(p.as_str()));
        let mut members = vec![
            ("env".to_owned(), env),
            ("workload".to_owned(), Value::from(self.workload.name())),
            ("sizes".to_owned(), self.sizes.to_json()),
        ];
        members.extend(self.members(|_| true));
        members.push(("problems".to_owned(), Value::Arr(problems.collect())));
        Value::Obj(members)
    }

    fn members(&self, keep: impl Fn(&str) -> bool) -> Vec<(String, Value)> {
        let metrics = self.metrics.iter().filter(|m| keep(m.name)).map(|m| {
            let value = [
                ("value", Value::from(m.value)),
                ("unit", Value::from(m.unit)),
            ];
            (m.name, Value::object(value))
        });
        vec![
            ("correct".to_owned(), Value::from(self.correct())),
            ("attempted".to_owned(), Value::from(self.attempted)),
            ("failed".to_owned(), Value::from(self.failed)),
            ("metrics".to_owned(), Value::object(metrics)),
        ]
    }
}

fn add_exact(total: &mut Exact, lap: &Exact) {
    total.ops += lap.ops;
    total.failed += lap.failed;
    total.bytes += lap.bytes;
    total.hits += lap.hits;
    total.lookups += lap.lookups;
    total.hit_bytes += lap.hit_bytes;
    total.upstream_bytes += lap.upstream_bytes;
    total.upstream_requests += lap.upstream_requests;
    total.requests += lap.requests;
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Runs lap `index` of `workload` under `seed`. With a tracer, the
/// spans of the timed section are left in it.
fn lap(
    workload: Workload,
    seed: u64,
    index: u32,
    sizes: &Sizes,
    scratch: &Path,
    tracer: Option<&Tracer>,
) -> Lap {
    match (workload, tracer) {
        (Workload::FleetDay, None) => fleet_day::lap(seed, index, sizes),
        (Workload::FleetDay, Some(tracer)) => fleet_day::traced_lap(seed, index, sizes, tracer),
        (Workload::EdgeMem, _) => edge::lap(seed, index, sizes, None, tracer),
        (Workload::EdgeHybrid, _) => {
            let dir = scratch.join(format!("disk-{}-{index}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            edge::lap(seed, index, sizes, Some(&dir), tracer)
        }
        (Workload::OriginWire, _) => origin_wire::lap(seed, index, sizes, tracer),
    }
}

/// The untraced run: laps `0..sizes.laps` under `seed` give the exact
/// metrics; if they finish before `seconds` of timed work,
/// further laps repeat the same seeds round-robin — they add timing
/// samples and must reproduce the first pass's exact outcome.
fn run_untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: Sizes,
    scratch: &Path,
) -> Outcome {
    let mut setups = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut firsts: Vec<Exact> = Vec::new();
    let mut total = Exact::default();
    let mut problems = Vec::new();
    let mut timed_s = 0.0;
    let mut index = 0u32;
    while index < sizes.laps || timed_s < seconds {
        let slot = index % sizes.laps;
        let lap = lap(workload, seed, slot, &sizes, scratch, None);
        timed_s += lap
            .blocks
            .iter()
            .map(|b| b.wall_ns as f64 / 1e9)
            .sum::<f64>();
        setups.push(lap.setup_s);
        blocks.extend(&lap.blocks);
        if index < sizes.laps {
            add_exact(&mut total, &lap.exact);
            problems.extend(lap.problems);
            firsts.push(lap.exact);
        } else if firsts[slot as usize] != lap.exact {
            problems.push(format!(
                "lap {slot} did not repeat: {:?} then {:?}",
                firsts[slot as usize], lap.exact
            ));
        }
        index += 1;
    }

    let ops: u64 = blocks.iter().map(|b| b.ops).sum();
    let cpu_ns: u64 = blocks.iter().map(|b| b.cpu_ns).sum();
    let plt = |pick: fn(&Exact) -> f64| median(&firsts.iter().map(pick).collect::<Vec<_>>());
    let value = |name: &str| match name {
        "setup_s" => median(&setups),
        "ops_per_s" => block_median_rate(&blocks),
        "cpu_us_per_op" => ratio(cpu_ns as f64 / 1e3, ops as f64),
        "peak_rss_mb" => sys::peak_rss_mb(),
        "failed_pct" => 100.0 * ratio(total.failed as f64, total.ops as f64),
        "hit_pct" => 100.0 * ratio(total.hits as f64, total.lookups as f64),
        "byte_hit_pct" => {
            100.0
                * ratio(
                    total.hit_bytes as f64,
                    (total.hit_bytes + total.upstream_bytes) as f64,
                )
        }
        "upstream_per_req" => ratio(total.upstream_requests as f64, total.requests as f64),
        "plt_p50_ms" => plt(|e| e.plt_p50_ms),
        "plt_p99_ms" => plt(|e| e.plt_p99_ms),
        "kb_per_op" => ratio(total.bytes as f64 / 1024.0, total.ops as f64),
        other => unreachable!("END_TO_END names {other}"),
    };
    let metrics = END_TO_END
        .iter()
        .filter(|m| !m.fleet_only || workload == Workload::FleetDay)
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: value(m.name),
        })
        .collect();
    Outcome {
        workload,
        sizes,
        traced: false,
        attempted: total.ops,
        failed: total.failed,
        problems,
        metrics,
    }
}

/// Files one lap's spans into `layers`: every span's self time under
/// its name, plus the splits and totals the summary needs.
fn absorb_spans(layers: &mut Layers, spans: &[Span], wall_ns: f64) {
    let own = spans::self_times(spans);
    let parents = spans::has_child(spans);
    for (i, span) in spans.iter().enumerate() {
        let own_ns = own[i] as f64;
        layers.sample(span.name, own_ns);
        if span.name == "edge.handle" {
            layers.sample(if parents[i] { "edge.miss" } else { "edge.hit" }, own_ns);
        } else if span.name.starts_with("browser.load") {
            layers.sample("browser.load", span.duration_ns() as f64);
        }
        if span.parent == ROOT {
            layers.add("trace.attributed_ns", span.duration_ns() as f64);
        }
    }
    layers.add("trace.wall_ns", wall_ns);
    layers.add("trace.spans", spans.len() as f64);
}

/// The traced run: half as many laps, each run plain and then traced
/// (`fleet-day` does both inside its traced lap), spans analysed per
/// lap and the first lap's written out.
fn run_traced(
    workload: Workload,
    seed: u64,
    sizes: Sizes,
    scratch: &Path,
    out_dir: &Path,
) -> Outcome {
    let tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut total = Exact::default();
    let mut problems = Vec::new();
    let mut plt = (Vec::new(), Vec::new());
    let wall = |lap: &Lap| lap.blocks.iter().map(|b| b.wall_ns as f64).sum::<f64>();
    for index in 0..sizes.laps.div_ceil(2) {
        // `fleet-day`'s traced lap runs `run_fleet` plain itself (it
        // needs the report to check its mirror against).
        let plain = (workload != Workload::FleetDay).then(|| {
            let plain = lap(workload, seed, index, &sizes, scratch, None);
            layers.add("trace.plain_wall_ns", wall(&plain));
            plain.exact
        });
        let traced = lap(workload, seed, index, &sizes, scratch, Some(&tracer));
        if plain.as_ref().is_some_and(|plain| *plain != traced.exact) {
            problems.push(format!(
                "tracing changed the outcome: {plain:?} then {:?}",
                traced.exact
            ));
        }
        let spans = tracer.take();
        let traced_wall_ns = match workload {
            Workload::FleetDay => traced.layers.sum("fleet.mirror_wall_ns"),
            _ => wall(&traced),
        };
        absorb_spans(&mut layers, &spans, traced_wall_ns);
        if index == 0 {
            let path = out_dir.join(format!("trace-{}.jsonl", workload.name()));
            if let Err(e) = spans::write_jsonl(&path, &spans) {
                problems.push(format!("writing {}: {e}", path.display()));
            }
        }
        add_exact(&mut total, &traced.exact);
        plt.0.push(traced.exact.plt_p50_ms);
        plt.1.push(traced.exact.plt_p99_ms);
        problems.extend(traced.problems);
        layers.merge(traced.layers);
    }

    // The probes need a world; the first lap's is as good as any.
    let world = World::generate(seed, 0, sizes.users.min(200), sizes.sites);
    let probe = |server| match probes::tcp_rtts_us(server, &world) {
        Ok(rtts) => rtts,
        Err(e) => {
            eprintln!("tcp probe skipped: {e}");
            Vec::new()
        }
    };
    if workload == Workload::EdgeMem {
        let rtts = probe(Server::Edge);
        layers.samples.insert("tcp.edge_rtt_us", rtts);
    }
    if workload == Workload::OriginWire {
        let rtts = probe(Server::Origin);
        layers.samples.insert("tcp.origin_rtt_us", rtts);
        let handled = probes::spans_on_ns(&world);
        layers.samples.insert("origin.spans_on_ns", handled);
    }

    let metrics = summarise(&mut layers, median(&plt.0), median(&plt.1));
    if workload == Workload::FleetDay {
        // Pooled over the run's laps: a single small day can tie.
        let p50 = |mode: &str| {
            let name = format!("browser.{mode}.plt_exact_p50_ms");
            metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        if p50("catalyst") > p50("baseline") * fleet_day::NO_WORSE {
            problems.push(format!(
                "catalyst's exact median PLT ({} ms) is worse than baseline's ({} ms)",
                p50("catalyst"),
                p50("baseline")
            ));
        }
    }
    Outcome {
        workload,
        sizes: Sizes {
            laps: sizes.laps.div_ceil(2),
            ..sizes
        },
        traced: true,
        attempted: total.ops,
        failed: total.failed,
        problems,
        metrics,
    }
}

/// Names the pooled observations: one value per [`PER_LAYER`] entry,
/// 0 where the workload never entered the layer.
fn summarise(layers: &mut Layers, plt_p50_ms: f64, plt_p99_ms: f64) -> Vec<Metric> {
    for samples in layers.samples.values_mut() {
        crate::stats::sort(samples);
    }
    let layers = &*layers;
    let samples = |key: &str| layers.samples.get(key).map_or(&[][..], Vec::as_slice);
    let pct = |key: &str, q: f64| percentile(samples(key), q);
    let total = |key: &str| samples(key).iter().sum::<f64>();
    let count = |key: &str| samples(key).len() as f64;
    let sum = |key: &str| layers.sum(key);

    // Origin calls are leaves, recorded under what they answered.
    let origin_kinds = ["origin.page", "origin.asset", "origin.304"];
    let mut origin_all: Vec<f64> = origin_kinds
        .iter()
        .flat_map(|k| samples(k))
        .copied()
        .collect();
    crate::stats::sort(&mut origin_all);
    let origin_total: f64 = origin_all.iter().sum();
    let browser_total = total("browser.load.baseline") + total("browser.load.catalyst");
    let visits = sum("fleet.baseline.visits") + sum("fleet.catalyst.visits");
    let wall = sum("trace.wall_ns");
    let share = |busy_ns: f64| 100.0 * ratio(busy_ns, wall);
    let per_visit_us = |ns: f64, visits: f64| ratio(ns / 1e3, visits);

    let value = |name: &str| -> f64 {
        match name {
            "plt_p50_ms" => plt_p50_ms,
            "plt_p99_ms" => plt_p99_ms,
            "fleet.baseline.visits_per_s" => {
                ratio(sum("fleet.baseline.visits"), sum("fleet.baseline.wall_s"))
            }
            "fleet.catalyst.visits_per_s" => {
                ratio(sum("fleet.catalyst.visits"), sum("fleet.catalyst.wall_s"))
            }
            "fleet.self_us_per_visit" => per_visit_us(
                sum("fleet.mirror_wall_ns") - sum("trace.attributed_ns"),
                visits,
            )
            .max(0.0),
            "fleet.visits" => visits,
            "browser.baseline.self_us_per_visit" => {
                per_visit_us(total("browser.load.baseline"), sum("fleet.baseline.visits"))
            }
            "browser.catalyst.self_us_per_visit" => {
                per_visit_us(total("browser.load.catalyst"), sum("fleet.catalyst.visits"))
            }
            "browser.load_us_p50" => pct("browser.load", 0.5) / 1e3,
            "browser.load_us_p99" => pct("browser.load", 0.99) / 1e3,
            "browser.busy_share_pct" => share(browser_total),
            "browser.baseline.net_reqs_per_visit" => ratio(
                sum("browser.baseline.net_reqs"),
                sum("fleet.baseline.visits"),
            ),
            "browser.catalyst.net_reqs_per_visit" => ratio(
                sum("browser.catalyst.net_reqs"),
                sum("fleet.catalyst.visits"),
            ),
            "browser.sw_hits_per_visit" => {
                ratio(sum("browser.sw_hits"), sum("fleet.catalyst.visits"))
            }
            "browser.cache_hits_per_visit" => {
                ratio(sum("browser.cache_hits"), sum("fleet.baseline.visits"))
            }
            "browser.not_modified_per_visit" => ratio(sum("browser.not_modified"), visits),
            "browser.baseline.plt_exact_p50_ms" => pct("browser.baseline.plt_ms", 0.5),
            "browser.baseline.plt_exact_p99_ms" => pct("browser.baseline.plt_ms", 0.99),
            "browser.baseline.plt_exact_p999_ms" => pct("browser.baseline.plt_ms", 0.999),
            "browser.catalyst.plt_exact_p50_ms" => pct("browser.catalyst.plt_ms", 0.5),
            "browser.catalyst.plt_exact_p99_ms" => pct("browser.catalyst.plt_ms", 0.99),
            "browser.catalyst.plt_exact_p999_ms" => pct("browser.catalyst.plt_ms", 0.999),
            "edge.self_ns_p50" => pct("edge.handle", 0.5),
            "edge.self_ns_p99" => pct("edge.handle", 0.99),
            "edge.hit_ns_p50" => pct("edge.hit", 0.5),
            "edge.miss_self_ns_p50" => pct("edge.miss", 0.5),
            "edge.busy_share_pct" => share(total("edge.handle")),
            "edge.handle_count" => count("edge.handle"),
            "edge.disk.hit_share_pct" => 100.0 * ratio(sum("disk.hits"), sum("disk.requests")),
            "edge.disk.bytes_held_mb" => {
                ratio(sum("disk.bytes_held"), count("disk.boot_scan_ms")) / (1 << 20) as f64
            }
            "edge.disk.file_bytes_per_held_byte" => {
                ratio(sum("disk.file_bytes"), sum("disk.bytes_held"))
            }
            "edge.disk.boot_scan_ms" => pct("disk.boot_scan_ms", 0.5),
            "origin.handle_ns_p50" => percentile(&origin_all, 0.5),
            "origin.handle_ns_p99" => percentile(&origin_all, 0.99),
            "origin.page_ns_p50" => pct("origin.page", 0.5),
            "origin.asset_ns_p50" => pct("origin.asset", 0.5),
            "origin.not_modified_ns_p50" => pct("origin.304", 0.5),
            "origin.busy_share_pct" => share(origin_total),
            "origin.handle_count" => origin_all.len() as f64,
            "origin.not_modified_pct" => {
                100.0 * ratio(count("origin.304"), origin_all.len() as f64)
            }
            "origin.config_cache_hit_pct" => {
                100.0
                    * ratio(
                        sum("origin.config_cache_hits"),
                        sum("origin.config_cache_hits") + sum("origin.configs_built"),
                    )
            }
            "origin.spans_on_ns_p50" => pct("origin.spans_on_ns", 0.5),
            "httpwire.encode_request_ns" => pct("httpwire.encode_request", 0.5),
            "httpwire.parse_request_ns" => pct("httpwire.parse_request", 0.5),
            "httpwire.encode_response_ns" => pct("httpwire.encode_response", 0.5),
            "httpwire.parse_response_ns" => pct("httpwire.parse_response", 0.5),
            "httpwire.bytes_per_resp" => {
                ratio(sum("httpwire.resp_bytes"), sum("httpwire.responses"))
            }
            "webmodel.trace_gen_ms" | "webmodel.corpus_gen_ms" | "webmodel.corpus_mb" => {
                pct(name, 0.5)
            }
            "tcp.edge_rtt_us_p50" => pct("tcp.edge_rtt_us", 0.5),
            "tcp.edge_rtt_us_p99" => pct("tcp.edge_rtt_us", 0.99),
            "tcp.origin_rtt_us_p50" => pct("tcp.origin_rtt_us", 0.5),
            "tcp.origin_rtt_us_p99" => pct("tcp.origin_rtt_us", 0.99),
            "trace.overhead_pct" => {
                100.0
                    * ratio(
                        wall - sum("trace.plain_wall_ns"),
                        sum("trace.plain_wall_ns"),
                    )
            }
            "trace.unattributed_pct" => share(wall - sum("trace.attributed_ns")),
            // Plain counters are pooled under their published names.
            counter => sum(counter),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            unit,
            // `+ 0.0` turns the empty sum's -0.0 into 0.0.
            value: value(name) + 0.0,
        })
        .collect()
}

/// Runs `workload` once, in this process, on this thread.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    traced: bool,
    out_dir: &Path,
) -> Outcome {
    let sizes = workload.sizes(seconds, smoke);
    let scratch = out_dir.join("tmp");
    std::fs::create_dir_all(&scratch).expect("the output directory is writable");
    let started = Instant::now();
    let outcome = if traced {
        run_traced(workload, seed, sizes, &scratch, out_dir)
    } else {
        // `--smoke` asks for the fixed laps only, never a top-up.
        let seconds = if smoke { 0.0 } else { seconds };
        run_untraced(workload, seed, seconds, sizes, &scratch)
    };
    eprintln!(
        "{}: {} laps of {} users x {} sites in {:.1} s",
        workload.name(),
        outcome.sizes.laps,
        sizes.users,
        sizes.sites,
        started.elapsed().as_secs_f64()
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_absorption_separates_hits_from_misses() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        };
        let spans = [
            span("edge.handle", 0, 100, ROOT),
            span("origin.asset", 10, 70, 0),
            span("edge.handle", 100, 130, ROOT),
        ];
        let mut layers = Layers::default();
        absorb_spans(&mut layers, &spans, 140.0);
        assert_eq!(layers.samples["edge.handle"], vec![40.0, 30.0]);
        assert_eq!(layers.samples["edge.miss"], vec![40.0]);
        assert_eq!(layers.samples["edge.hit"], vec![30.0]);
        assert_eq!(layers.sum("trace.attributed_ns"), 130.0);

        let metrics = summarise(&mut layers, 0.0, 0.0);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(get("edge.handle_count"), 2.0);
        assert_eq!(get("edge.hit_ns_p50"), 30.0);
        assert_eq!(get("origin.handle_ns_p50"), 60.0);
        assert!((get("trace.unattributed_pct") - 100.0 * 10.0 / 140.0).abs() < 1e-9);
        assert!((get("edge.busy_share_pct") - 50.0).abs() < 1e-9);
        assert_eq!(get("browser.load_us_p50"), 0.0, "bypassed layers read 0");
    }
}
