//! Figure 3: average % reduction in PLT of CacheCatalyst vs the
//! status-quo caching approach, across throughput × latency.
//!
//! Usage: `fig3 [--sites N] [--delays all|1m|1h|6h|1d|1w] [--cdf]
//!               [--capture] [--churn]`
//!
//! By default content is **frozen** between visits, matching the
//! paper's methodology (they cloned each homepage once and aged only
//! the client's clock, so revalidations always succeed). `--churn`
//! lets resources actually change per the workload model — the
//! extension analysis in EXPERIMENTS.md. `--cdf` prints the per-site
//! distribution at the 5G-median condition (experiment E8);
//! `--capture` uses catalyst with capture (the aggregate learned map)
//! as treatment.

use std::io::Write;
use std::time::Duration;

use super::corpus_arg;
use crate::cli::{self, Args};
use crate::runner::{reload_each, ClientKind, ContentModel, ExperimentGrid, REVISIT_DELAYS};
use crate::table::{render_series, render_table};
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_origin::OriginServer;

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let want_cdf = args.flag("--cdf");
    let treatment = if args.flag("--capture") {
        ClientKind::CatalystAggregate
    } else {
        ClientKind::Catalyst
    };
    let content = if args.flag("--churn") {
        ContentModel::Churning
    } else {
        ContentModel::Frozen
    };
    let delays = args
        .value_with("--delays", |v| match v {
            "all" => Some(REVISIT_DELAYS.to_vec()),
            "1m" => Some(vec![Duration::from_secs(60)]),
            "1h" => Some(vec![Duration::from_secs(3600)]),
            "6h" => Some(vec![Duration::from_secs(6 * 3600)]),
            "1d" => Some(vec![Duration::from_secs(86_400)]),
            "1w" => Some(vec![Duration::from_secs(7 * 86_400)]),
            _ => None,
        })?
        .unwrap_or_else(|| REVISIT_DELAYS.to_vec());
    let sites = corpus_arg(args, 100)?;

    let throughputs = NetworkConditions::figure3_throughputs();
    let latencies = NetworkConditions::figure3_latencies();

    eprintln!(
        "sweeping {} conditions × {} delays × {} sites × 2 policies…",
        throughputs.len() * latencies.len(),
        delays.len(),
        sites.len()
    );
    let grid = ExperimentGrid::run_with_content(
        &sites,
        ClientKind::Baseline,
        treatment,
        &throughputs,
        &latencies,
        &delays,
        content,
    );

    writeln!(
        out,
        "== Figure 3: PLT reduction (%) by network condition =="
    )?;
    writeln!(out,
        "   treatment: {treatment:?}; content: {content:?}; mean over {} sites × {} revisit delays\n",
        sites.len(),
        delays.len()
    )?;
    let headers: Vec<String> = std::iter::once("throughput \\ RTT".to_owned())
        .chain(latencies.iter().map(|l| format!("{}ms", l.as_millis())))
        .collect();
    let rows: Vec<Vec<String>> = grid
        .throughputs
        .iter()
        .enumerate()
        .map(|(ti, bps)| {
            std::iter::once(format!("{} Mbps", bps / 1_000_000))
                .chain(
                    grid.cells[ti]
                        .iter()
                        .map(|c| format!("{:.1}%", c.improvement_percent())),
                )
                .collect()
        })
        .collect();
    writeln!(out, "{}", render_table(&headers, &rows))?;

    writeln!(
        out,
        "== Absolute warm-visit PLT (ms), baseline → treatment ==\n"
    )?;
    let rows: Vec<Vec<String>> = grid
        .throughputs
        .iter()
        .enumerate()
        .map(|(ti, bps)| {
            std::iter::once(format!("{} Mbps", bps / 1_000_000))
                .chain(
                    grid.cells[ti]
                        .iter()
                        .map(|c| format!("{:.0}→{:.0}", c.baseline_plt_ms, c.treatment_plt_ms)),
                )
                .collect()
        })
        .collect();
    writeln!(out, "{}", render_table(&headers, &rows))?;

    // The headline claim: mean reduction at the global 5G median.
    let median_cond = NetworkConditions::five_g_median();
    let ti = grid
        .throughputs
        .iter()
        .position(|&b| b == median_cond.down_bps)
        .unwrap();
    let li = grid
        .latencies
        .iter()
        .position(|&l| l == median_cond.rtt)
        .unwrap();
    writeln!(
        out,
        "Headline (paper: ~30% at 60Mbps/40ms): {:.1}%\n",
        grid.cells[ti][li].improvement_percent()
    )?;

    if want_cdf {
        per_site_distribution(out, &sites, treatment, median_cond, &delays, content)?;
    }
    Ok(())
}

/// E8: the per-site improvement distribution at one condition.
fn per_site_distribution(
    out: &mut dyn Write,
    sites: &[cachecatalyst_webmodel::Site],
    treatment: ClientKind,
    cond: NetworkConditions,
    delays: &[Duration],
    content: ContentModel,
) -> cli::Result {
    let mut improvements: Vec<f64> = Vec::new();
    for site in sites {
        let mut plts = [0.0f64; 2];
        for (i, kind) in [ClientKind::Baseline, treatment].into_iter().enumerate() {
            let upstream = content.upstream(OriginServer::new(site.clone(), kind.header_mode()));
            for warm in reload_each(&*upstream, site, kind.browser(), cond, delays).warm {
                plts[i] += warm.plt_ms();
            }
        }
        improvements.push((plts[0] - plts[1]) / plts[0] * 100.0);
    }
    improvements.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| improvements[((improvements.len() - 1) as f64 * p) as usize];
    writeln!(out, "== E8: per-site PLT reduction at {} ==", cond.label())?;
    let series: Vec<(String, f64)> = [
        ("p10", pct(0.10)),
        ("p25", pct(0.25)),
        ("p50", pct(0.50)),
        ("p75", pct(0.75)),
        ("p90", pct(0.90)),
        (
            "mean",
            improvements.iter().sum::<f64>() / improvements.len() as f64,
        ),
    ]
    .into_iter()
    .map(|(l, v)| (l.to_owned(), v))
    .collect();
    writeln!(
        out,
        "{}",
        render_series("reduction percentiles", &series, "%")
    )?;
    Ok(())
}
