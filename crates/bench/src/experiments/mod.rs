//! Every figure and table of the reproduction, as a function that is
//! handed its arguments and a sink, and the one table that lists them.
//!
//! `experiments all` runs [`TABLE`] top to bottom in this process and
//! writes one `results/<file>.txt` per row; `experiments <name>
//! [flags]` writes the same bytes to stdout. The committed `results/`
//! are those bytes: CI regenerates every row that is not wall-clock
//! and compares (`tests/experiments.rs` does the quick ones in tier 1).

use std::io::Write;
use std::path::PathBuf;

use crate::cli::{self, Args, Error};
use cachecatalyst_webmodel::{generate_corpus, CorpusSpec, Site};

mod cache_busting;
mod capture_memory;
mod compare_pushes;
mod corpus_report;
mod cross_origin;
mod edge_throughput;
mod edge_tier;
mod engine_ablation;
mod fcp_metrics;
mod fig1;
mod fig2;
mod fig3;
mod fleet_load;
mod hammer;
mod header_overhead;
mod intra_site;
mod js_coverage;
mod loss_sensitivity;
mod motivation_stats;
mod origin_throughput;
mod redundant_transfer;
mod server_cost;
mod swr_comparison;
mod trace_page;
mod transport_ablation;

/// `--sites N`, the one flag every corpus experiment takes, as the
/// corpus itself. It is taken last: anything still in `args` is refused.
fn corpus_arg(args: &mut Args, default_sites: usize) -> cli::Result<Vec<Site>> {
    let n_sites = args.value("--sites")?.unwrap_or(default_sites);
    args.finish()?;
    Ok(generate_corpus(&CorpusSpec {
        n_sites,
        ..Default::default()
    }))
}

/// An experiment: takes its flags from `args` (refusing what is left),
/// then writes its report to `out`. Progress goes to stderr.
pub type Run = fn(args: &mut Args, out: &mut dyn Write) -> cli::Result;

/// One artefact under `results/`.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// `results/<file>.txt`.
    pub file: &'static str,
    /// The experiment, as `experiments <name>` spells it.
    pub name: &'static str,
    pub run: Run,
    /// The arguments the committed file was produced with.
    pub args: &'static str,
    /// The report holds host timings, so no two runs print the same
    /// bytes and nothing compares them.
    pub wall_clock: bool,
}

impl Row {
    /// Runs the experiment with the pinned arguments.
    pub fn write_to(&self, out: &mut dyn Write) -> cli::Result {
        (self.run)(&mut Args::new(self.args), out)
    }
}

const fn row(name: &'static str, run: Run, args: &'static str) -> Row {
    Row {
        file: name,
        name,
        run,
        args,
        wall_clock: false,
    }
}

/// The only list of experiments, in the order `all` runs them.
pub const TABLE: &[Row] = &[
    row("fig1", fig1::run, ""),
    row("fig2", fig2::run, ""),
    Row {
        file: "fig3_frozen",
        ..row("fig3", fig3::run, "--cdf")
    },
    Row {
        file: "fig3_churn",
        ..row("fig3", fig3::run, "--churn --cdf")
    },
    Row {
        file: "fig3_capture",
        ..row("fig3", fig3::run, "--capture --sites 50")
    },
    row("motivation_stats", motivation_stats::run, ""),
    row("redundant_transfer", redundant_transfer::run, "--sites 50"),
    row("compare_pushes", compare_pushes::run, "--sites 30"),
    row("header_overhead", header_overhead::run, ""),
    row("js_coverage", js_coverage::run, ""),
    row("cross_origin", cross_origin::run, ""),
    row("fcp_metrics", fcp_metrics::run, "--sites 30"),
    row("capture_memory", capture_memory::run, ""),
    row("intra_site", intra_site::run, ""),
    row("transport_ablation", transport_ablation::run, "--sites 25"),
    row("loss_sensitivity", loss_sensitivity::run, "--sites 20"),
    row("swr_comparison", swr_comparison::run, "--sites 25"),
    Row {
        wall_clock: true,
        ..row("server_cost", server_cost::run, "")
    },
    row("corpus_report", corpus_report::run, ""),
    row("engine_ablation", engine_ablation::run, "--sites 15"),
    row("cache_busting", cache_busting::run, ""),
    row("fleet_load", fleet_load::run, "--users 100000"),
    row("edge_tier", edge_tier::run, ""),
    Row {
        wall_clock: true,
        ..row("origin_throughput", origin_throughput::run, "")
    },
    Row {
        wall_clock: true,
        ..row("edge_throughput", edge_throughput::run, "")
    },
];

/// The one experiment that is not a row: it writes its own
/// `results/trace_*` and `results/waterfall_*` files, and they carry
/// span ids, which count up across a process.
const TRACE_PAGE: &str = "trace_page";

/// The usage line of the `experiments` binary.
pub const USAGE: &str = "usage: experiments list | all [--out DIR] | <name> [flags]";

/// The `experiments` command line: `list`, `all [--out DIR]`, or one
/// experiment by name with its own flags, written to `out`.
pub fn dispatch(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let Some(name) = args.positional() else {
        return Err(Error::Usage("which experiment?".to_owned()));
    };
    match name.as_str() {
        "list" => {
            args.finish()?;
            for row in TABLE {
                let command = format!("{} {}", row.name, row.args);
                let note = if row.wall_clock {
                    "  (host timings: not compared)"
                } else {
                    ""
                };
                writeln!(out, "{:<20} {}{note}", row.file, command.trim_end())?;
            }
            writeln!(out, "{:<20} {TRACE_PAGE}", "-")?;
            Ok(())
        }
        "all" => {
            let dir = args
                .value("--out")?
                .unwrap_or_else(|| PathBuf::from("results"));
            args.finish()?;
            std::fs::create_dir_all(&dir)?;
            for row in TABLE {
                eprintln!("=== {} ({} {})", row.file, row.name, row.args);
                let mut report = Vec::new();
                row.write_to(&mut report)?;
                let path = dir.join(format!("{}.txt", row.file));
                std::fs::write(&path, &report)?;
                eprintln!("    → {} ({} bytes)", path.display(), report.len());
            }
            eprintln!("all experiments regenerated into {}", dir.display());
            Ok(())
        }
        TRACE_PAGE => trace_page::run(args, out),
        name => match TABLE.iter().find(|row| row.name == name) {
            Some(row) => (row.run)(args, out),
            None => Err(Error::Usage(format!("unknown experiment {name:?}"))),
        },
    }
}
