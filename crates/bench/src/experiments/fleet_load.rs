//! E23 — fleet load: replays a population-scale workload trace (Zipf
//! site popularity, per-user sessions, diurnal arrivals, an evening
//! flash crowd) through browser → edge → origin in netsim virtual
//! time, once per mode, and reports fleet-level PLT percentiles, edge
//! object/byte hit ratios and origin offload.
//!
//! The trace is a pure function of its spec and the replay is
//! single-threaded in virtual time, so every number printed is a pure
//! function of the arguments. How long the replay takes on this host
//! goes to stderr; as a measurement it is the repo benchmark's
//! `fleet-day` `ops_per_s`.
//!
//! `--disk-tier [DIR]` attaches the persistent segment-file tier under
//! the edge's DRAM front (a scratch directory unless DIR is given; one
//! subdirectory per mode). What is served does not change, but the
//! demotion / promotion / disk-hit counters are printed too.
//! `--write-trace PATH` archives the generated trace as versioned
//! JSONL; `--replay PATH` re-runs an archived trace instead of
//! generating one (its header carries the spec).

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use super::hammer::upstream_per_req;
use crate::cli::{self, Args, Error};
use crate::fleet::{run_fleet, FleetOptions, FleetReport};
use crate::runner::ClientKind;
use crate::table::render_table;
use cachecatalyst_edge::DiskTierOptions;
use cachecatalyst_webmodel::workload::{generate, FlashCrowd, Trace, WorkloadSpec};

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let users: u32 = args.value("--users")?.unwrap_or(100_000);
    let disk_tier = args.optional_value("--disk-tier");
    let replay: Option<String> = args.value("--replay")?;
    let write_trace: Option<String> = args.value("--write-trace")?;
    args.finish()?;

    let trace = match replay {
        Some(path) => Trace::from_jsonl(&std::fs::read_to_string(&path)?)
            .map_err(|e| Error::Usage(format!("--replay {path}: {e}")))?,
        None => {
            let spec = WorkloadSpec {
                users,
                // An evening flash crowd on the hottest site: 10% of
                // the population piles onto one page over a minute,
                // the arrival burst the edge's single-flight exists
                // for.
                flash_crowds: vec![FlashCrowd {
                    at_secs: 20 * 3600 + 1800,
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
        std::fs::write(&path, trace.to_jsonl())?;
        eprintln!("trace written to {path} ({} events)", trace.events.len());
    }

    let scratch = std::env::temp_dir().join(format!("cc-fleet-disk-{}", std::process::id()));
    let disk_root = disk_tier
        .as_ref()
        .map(|dir| dir.as_ref().map_or(scratch.clone(), PathBuf::from));
    let reports: Vec<FleetReport> = [ClientKind::Baseline, ClientKind::Catalyst]
        .into_iter()
        .map(|kind| {
            let disk = disk_root.as_ref().map(|root| {
                // One subdirectory per mode: each replay starts cold.
                let dir = root.join(format!("{kind:?}").to_lowercase());
                let _ = std::fs::remove_dir_all(&dir);
                DiskTierOptions::at(dir)
            });
            let started = Instant::now();
            let report = run_fleet(
                &trace,
                &FleetOptions {
                    kind,
                    disk,
                    ..Default::default()
                },
            );
            eprintln!(
                "# {}: {} visits replayed in {:.1} s",
                report.mode,
                report.visits,
                started.elapsed().as_secs_f64()
            );
            report
        })
        .collect();
    // A directory the caller named is theirs to look into; the scratch
    // one is not kept.
    if disk_tier == Some(None) {
        let _ = std::fs::remove_dir_all(&scratch);
    }

    // A fleet with Zipf skew and persistent per-user caches must show
    // real reuse at every tier, and the PLT tail must stay finite even
    // through the flash crowd, at any scale.
    for r in &reports {
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

    let s = &trace.spec;
    writeln!(
        out,
        "== E23: fleet day — {} users, {} sites, {} h, seed {}: {} visits per mode ==\n",
        s.users,
        s.sites,
        s.horizon_secs / 3600,
        s.seed,
        trace.events.len()
    )?;
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.mode.to_owned(),
                format!("{:.2}", r.plt_p50_ms),
                format!("{:.2}", r.plt_p99_ms),
                format!("{:.2}", r.plt_p999_ms),
                format!("{:.2}", r.object_hit_ratio() * 100.0),
                format!("{:.2}", r.byte_hit_ratio() * 100.0),
                format!("{:.2}", r.origin_offload() * 100.0),
                format!("{:.4}", upstream_per_req(&r.edge)),
                r.edge.upstream_requests.to_string(),
                r.edge.requests.to_string(),
                r.bytes_down.to_string(),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        render_table(
            &[
                "mode",
                "plt_p50_ms",
                "plt_p99_ms",
                "plt_p999_ms",
                "ohr_%",
                "bhr_%",
                "offload_%",
                "upstream/req",
                "upstream_reqs",
                "edge_reqs",
                "bytes_down",
            ],
            &rows
        )
    )?;
    if disk_root.is_some() {
        for r in &reports {
            writeln!(
                out,
                "{} disk tier: hits {} promotions {} demotions {} objects {}",
                r.mode, r.edge.disk_hits, r.edge.promotions, r.edge.demotions, r.edge.disk_objects,
            )?;
        }
    }
    writeln!(
        out,
        "The PLT percentiles are read from a histogram with 12 % buckets, so\n\
         the two modes' tails interpolate to the same figure; the repo\n\
         benchmark's `browser.*.plt_exact_*` rows are the order statistics."
    )?;
    Ok(())
}
