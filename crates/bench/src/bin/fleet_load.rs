//! E23 — fleet load: replays a population-scale workload trace
//! (Zipf site popularity, per-user sessions, diurnal arrivals, a
//! flash-crowd spike) through browser → edge → origin in netsim
//! virtual time, once per mode, and reports fleet-level PLT
//! percentiles, edge object/byte hit ratios and origin offload.
//!
//! The whole run is deterministic: the trace is a pure function of
//! `(seed, spec)`, and the replay is single-threaded in virtual time,
//! so re-running with the same seed reproduces every counter exactly.
//!
//! Flags: see `USAGE` below.
//!
//! `--disk-tier` attaches the persistent segment-file tier under the
//! edge's DRAM front (scratch directory under the system temp dir
//! unless a DIR operand follows the flag; one subdirectory per mode).
//! What is served does not change — the replay stays deterministic —
//! but demotions/promotions and the disk hit counters become visible
//! in the edge metrics, and wall-clock time pays the segment I/O.
//!
//! `--write-trace` archives the generated trace as versioned JSONL;
//! `--replay` re-runs a previously archived trace instead of
//! generating one (the seed/spec flags are then ignored — the trace
//! header carries them). Full runs append a labelled section to
//! `results/fleet_load.txt` and rewrite `BENCH_fleet.json`; smoke
//! runs write the text report only (smoke numbers never overwrite the
//! committed baseline).

use std::fmt::Write as _;
use std::time::Instant;

use cachecatalyst_bench::cli::{self, Args};
use cachecatalyst_bench::fleet::{run_fleet, FleetOptions, FleetReport};
use cachecatalyst_bench::ClientKind;
use cachecatalyst_edge::DiskTierOptions;
use cachecatalyst_webmodel::workload::{generate, FlashCrowd, Trace, WorkloadSpec};

fn render_table(rows: &[FleetReport], trace: &Trace, label: &str, wall_secs: f64) -> String {
    let s = &trace.spec;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## {label} — {} users, {} sites, {}h horizon, seed {} ({} visits, {:.1}s wall)",
        s.users,
        s.sites,
        s.horizon_secs / 3600,
        s.seed,
        trace.events.len(),
        wall_secs,
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>9} {:>8} {:>8} {:>9} {:>13} {:>12}",
        "mode",
        "plt_p50",
        "plt_p99",
        "plt_p999",
        "ohr_%",
        "bhr_%",
        "offload_%",
        "upstream/req",
        "bytes_down"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>9.1} {:>9.1} {:>9.1} {:>8.1} {:>8.1} {:>9.1} {:>13.3} {:>12}",
            r.mode,
            r.plt_p50_ms,
            r.plt_p99_ms,
            r.plt_p999_ms,
            r.object_hit_ratio() * 100.0,
            r.byte_hit_ratio() * 100.0,
            r.origin_offload() * 100.0,
            r.edge.upstream_requests as f64 / r.edge.requests.max(1) as f64,
            r.bytes_down,
        );
    }
    out
}

fn render_json(rows: &[FleetReport], trace: &Trace, label: &str) -> String {
    let s = &trace.spec;
    let mut out = String::from("{\n  \"bench\": \"fleet_load\",\n");
    let _ = writeln!(out, "  \"label\": \"{label}\",");
    let _ = writeln!(
        out,
        "  \"seed\": {}, \"users\": {}, \"sites\": {}, \"horizon_secs\": {}, \"visits\": {},",
        s.seed,
        s.users,
        s.sites,
        s.horizon_secs,
        trace.events.len()
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"visits\": {}, \"plt_p50_ms\": {:.2}, \
             \"plt_p99_ms\": {:.2}, \"plt_p999_ms\": {:.2}, \"edge_hit_pct\": {:.2}, \
             \"byte_hit_pct\": {:.2}, \"offload_pct\": {:.2}, \"upstream_per_req\": {:.4}, \
             \"upstream_requests\": {}, \"edge_requests\": {}, \"bytes_down\": {}}}{comma}",
            r.mode,
            r.visits,
            r.plt_p50_ms,
            r.plt_p99_ms,
            r.plt_p999_ms,
            r.object_hit_ratio() * 100.0,
            r.byte_hit_ratio() * 100.0,
            r.origin_offload() * 100.0,
            r.edge.upstream_requests as f64 / r.edge.requests.max(1) as f64,
            r.edge.upstream_requests,
            r.edge.requests,
            r.bytes_down,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

const USAGE: &str =
    "usage: fleet_load [--smoke] [--users N] [--sites N] [--horizon SECS] [--seed N] \
                     [--resources-median F] [--label L] [--mode baseline|catalyst|both] \
                     [--disk-tier [DIR]] [--write-trace PATH] [--replay PATH]";

fn main() {
    cli::exit_on_error(run(&mut Args::from_env()), USAGE);
}

fn run(args: &mut Args) -> cli::Result {
    let smoke = args.flag("--smoke");
    let users: u32 = args
        .value("--users")?
        .unwrap_or(if smoke { 1_000 } else { 100_000 });
    let sites: u32 = args
        .value("--sites")?
        .unwrap_or(if smoke { 20 } else { 100 });
    let horizon_secs: u64 = args.value("--horizon")?.unwrap_or(86_400);
    let seed: u64 = args.value("--seed")?.unwrap_or(2024);
    let resources_median: f64 = args.value("--resources-median")?.unwrap_or(28.0);
    let label: String = args
        .value("--label")?
        .unwrap_or_else(|| if smoke { "smoke" } else { "run" }.to_owned());
    let kinds = args
        .value_with("--mode", |v| match v {
            "baseline" => Some(vec![ClientKind::Baseline]),
            "catalyst" => Some(vec![ClientKind::Catalyst]),
            "both" => Some(vec![ClientKind::Baseline, ClientKind::Catalyst]),
            _ => None,
        })?
        .unwrap_or_else(|| vec![ClientKind::Baseline, ClientKind::Catalyst]);
    // `--disk-tier [DIR]`: without the operand a scratch directory is
    // used.
    let disk_root = args.optional_value("--disk-tier").map(|dir| {
        dir.map(std::path::PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir().join(format!("cc-fleet-disk-{}", std::process::id()))
        })
    });
    let replay: Option<String> = args.value("--replay")?;
    let write_trace: Option<String> = args.value("--write-trace")?;
    args.finish()?;

    let trace = match replay {
        Some(path) => {
            let text = std::fs::read_to_string(&path).expect("read trace file");
            Trace::from_jsonl(&text).expect("parse trace file")
        }
        None => {
            // An evening flash crowd on the hottest site — 10% of the
            // population piles onto one page over a minute, the
            // arrival burst the edge's single-flight exists for.
            let spec = WorkloadSpec {
                users,
                sites,
                horizon_secs,
                seed,
                flash_crowds: vec![FlashCrowd {
                    at_secs: (20 * 3600 + 1800).min(horizon_secs.saturating_sub(60)),
                    duration_secs: 60,
                    visits: users / 10,
                    site_rank: 0,
                }],
                ..Default::default()
            };
            generate(&spec)
        }
    };

    if let Some(path) = write_trace {
        std::fs::write(&path, trace.to_jsonl()).expect("write trace file");
        eprintln!("trace written to {path} ({} events)", trace.events.len());
    }

    let started = Instant::now();
    let rows: Vec<FleetReport> = kinds
        .into_iter()
        .map(|kind| {
            let disk = disk_root.as_ref().map(|root| {
                // One subdirectory per mode: each replay starts cold.
                let dir = root.join(format!("{kind:?}").to_lowercase());
                let _ = std::fs::remove_dir_all(&dir);
                DiskTierOptions::at(dir)
            });
            run_fleet(
                &trace,
                &FleetOptions {
                    kind,
                    resources_median,
                    disk,
                    ..Default::default()
                },
            )
        })
        .collect();
    let wall_secs = started.elapsed().as_secs_f64();

    let mut table = render_table(&rows, &trace, &label, wall_secs);
    if disk_root.is_some() {
        for r in &rows {
            let _ = writeln!(
                table,
                "  {} disk tier: hits {} promotions {} demotions {} rejects {} objects {}",
                r.mode,
                r.edge.disk_hits,
                r.edge.promotions,
                r.edge.demotions,
                r.edge.admission_rejects,
                r.edge.disk_objects,
            );
        }
    }
    print!("{table}");

    // Sanity bounds: a fleet with Zipf skew and persistent per-user
    // caches must show real reuse at every tier, and the PLT tail must
    // stay finite even through the flash crowd. These hold at smoke
    // scale too — CI runs them on every push.
    for r in &rows {
        assert!(r.visits > 0, "{}: empty replay", r.mode);
        let ohr = r.object_hit_ratio();
        assert!(
            (0.02..0.9999).contains(&ohr),
            "{}: implausible edge hit ratio {ohr:.4}",
            r.mode
        );
        assert!(
            r.origin_offload() > 0.0,
            "{}: edge offloaded nothing",
            r.mode
        );
        assert!(
            r.plt_p999_ms < 60_000.0,
            "{}: unbounded tail PLT {:.0}ms",
            r.mode,
            r.plt_p999_ms
        );
        assert!(
            r.plt_p50_ms <= r.plt_p99_ms && r.plt_p99_ms <= r.plt_p999_ms,
            "{}: percentiles out of order",
            r.mode
        );
    }

    // The text report is written for smoke runs too: CI uploads it as
    // the job artifact. The JSON baseline is full-run only — smoke
    // numbers must never overwrite the committed reference.
    std::fs::create_dir_all("results").expect("create results/");
    use std::io::Write as _;
    let mut txt = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("results/fleet_load.txt")
        .expect("open results/fleet_load.txt");
    txt.write_all(table.as_bytes()).expect("append results");

    if !smoke {
        std::fs::write("BENCH_fleet.json", render_json(&rows, &trace, &label))
            .expect("write BENCH_fleet.json");
    }
    Ok(())
}
