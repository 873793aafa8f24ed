//! E20 — trace a page load end to end: runs a cold visit plus a warm
//! revisit with sampling forced on and writes the full evidence set
//! for each client kind:
//!
//! * `results/trace_<kind>.txt` — the span trees rendered as
//!   indented text (browser fetch phases, proxy hops, origin handling
//!   with config-cache hit/miss and churn epoch);
//! * `results/trace_<kind>.jsonl` — every telemetry event, one JSON
//!   object per line: page-load events, per-resource cache-decision
//!   audits, and the spans themselves;
//! * `results/waterfall_<kind>.txt` — the classic Figure-1-style
//!   waterfalls of both visits for side-by-side reading.
//!
//! Usage: `experiments trace_page [--delay SECS]`

use std::io::Write;
use std::time::Duration;

use crate::cli::{self, Args};
use crate::runner::visit_pair_traced;
use crate::ClientKind;
use cachecatalyst_netsim::NetworkConditions;
use cachecatalyst_webmodel::example_site;

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let delay_secs: u64 = args.value("--delay")?.unwrap_or(3600);
    args.finish()?;

    let site = example_site();
    let cond = NetworkConditions::five_g_median();
    std::fs::create_dir_all("results")?;

    for (kind, name) in [
        (ClientKind::Baseline, "baseline"),
        (ClientKind::Catalyst, "catalyst"),
    ] {
        let traced = visit_pair_traced(&site, kind, cond, Duration::from_secs(delay_secs));
        std::fs::write(format!("results/trace_{name}.txt"), &traced.trace_text)?;
        std::fs::write(format!("results/trace_{name}.jsonl"), &traced.jsonl)?;
        std::fs::write(
            format!("results/waterfall_{name}.txt"),
            traced.waterfalls(name, delay_secs),
        )?;

        writeln!(
            out,
            "{name}: {} spans over 2 traces, cold PLT {:.1} ms, warm PLT {:.1} ms",
            traced.spans.len(),
            traced.pair.cold.plt_ms(),
            traced.pair.warm.plt_ms(),
        )?;
        writeln!(out, "{}", traced.trace_text)?;
    }
    writeln!(
        out,
        "wrote results/trace_*.txt, results/trace_*.jsonl, results/waterfall_*.txt"
    )?;
    Ok(())
}
