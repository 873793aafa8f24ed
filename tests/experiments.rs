//! Integration: `results/*.txt` are what the experiments print. The
//! quick rows of `bench::experiments::TABLE` are regenerated here and
//! compared byte for byte (CI's `bench-smoke` job does every
//! deterministic row); the table, `results/` and EXPERIMENTS.md must
//! name the same things; the seeded parts of `trace_page`'s artefacts
//! are what a traced pair prints; and the command line refuses what it
//! cannot read instead of running the defaults.

use std::path::Path;
use std::time::Duration;

use cachecatalyst::netsim::NetworkConditions;
use cachecatalyst::webmodel::example_site;
use cachecatalyst_bench::cli::{Args, Error};
use cachecatalyst_bench::experiments::{dispatch, Row, TABLE};
use cachecatalyst_bench::{visit_pair_traced, ClientKind};

/// The rows that take at most 0.2 s in a release build. (`edge_tier`
/// takes 1.2 s there and 11 s in a debug build, and this test runs a
/// row twice: it is left to the CI compare step.)
const QUICK: [&str; 8] = [
    "fig1",
    "fig2",
    "motivation_stats",
    "header_overhead",
    "intra_site",
    "corpus_report",
    "cross_origin",
    "cache_busting",
];

fn results() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
}

fn print(row: &Row) -> String {
    let mut report = Vec::new();
    row.write_to(&mut report).expect("pinned arguments parse");
    String::from_utf8(report).expect("reports are text")
}

#[test]
fn quick_rows_print_their_committed_files_in_any_order() {
    let quick: Vec<&Row> = TABLE.iter().filter(|r| QUICK.contains(&r.file)).collect();
    assert_eq!(quick.len(), QUICK.len());
    // Forwards, then backwards: what ran before an experiment in this
    // process (span ids count up process-wide, for one) must not show
    // in what it prints.
    for row in quick.iter().chain(quick.iter().rev()) {
        assert!(!row.wall_clock);
        let committed = std::fs::read_to_string(results().join(format!("{}.txt", row.file)));
        assert_eq!(print(row), committed.unwrap(), "results/{}.txt", row.file);
    }
}

#[test]
fn the_table_results_and_experiments_md_agree() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"));
    let doc = doc.unwrap();
    for row in TABLE {
        assert!(
            results().join(format!("{}.txt", row.file)).is_file(),
            "results/{}.txt is missing",
            row.file
        );
        assert!(
            doc.contains(row.name),
            "EXPERIMENTS.md never names {}",
            row.name
        );
    }
    // Everything else under results/ is one of `trace_page`'s
    // artefacts.
    for entry in std::fs::read_dir(results()).unwrap() {
        let path = entry.unwrap().path();
        let stem = path.file_stem().unwrap().to_str().unwrap();
        assert!(
            TABLE.iter().any(|r| r.file == stem)
                || stem.starts_with("trace_")
                || stem.starts_with("waterfall_"),
            "{} is nobody's output",
            path.display()
        );
    }
}

/// `experiments trace_page` (example site, 5G median, +3600 s): every
/// event line of `results/trace_<kind>.jsonl` but the spans — page
/// loads, fetches and cache decisions, with the map's `etag`, `epoch`
/// and `body_digest` — and both waterfalls. Span ids count up across a
/// process and span durations are host time; neither is pinned.
#[test]
fn trace_page_artefacts_are_what_a_traced_pair_prints() {
    let seeded = |jsonl: &str| -> Vec<String> {
        jsonl
            .lines()
            .filter(|line| !line.starts_with("{\"event\":\"span\""))
            .map(str::to_owned)
            .collect()
    };
    for (kind, name) in [
        (ClientKind::Baseline, "baseline"),
        (ClientKind::Catalyst, "catalyst"),
    ] {
        let traced = visit_pair_traced(
            &example_site(),
            kind,
            NetworkConditions::five_g_median(),
            Duration::from_secs(3600),
        );
        let committed = |file: String| std::fs::read_to_string(results().join(file)).unwrap();
        let events = seeded(&committed(format!("trace_{name}.jsonl")));
        assert!(events
            .iter()
            .any(|l| l.contains("\"event\":\"cache_decision\"")));
        assert_eq!(seeded(&traced.jsonl), events, "results/trace_{name}.jsonl");
        assert_eq!(
            traced.waterfalls(name, 3600),
            committed(format!("waterfall_{name}.txt")),
            "results/waterfall_{name}.txt"
        );
    }
}

#[test]
fn bad_command_lines_are_usage_errors_and_run_nothing() {
    for line in [
        "fig3 --sites abc",
        "fig3 --sites",
        "fig3 --site 30",
        "fig3 --delays 2h",
        "fig1 --sites 30",
        "all --sites-scale 1.0",
        "fleet_load --usres 10",
        "edge_tier --iters x",
        "origin_throughput --threads",
        "edge_throughput --threads 0",
        "nope",
        "",
    ] {
        let mut sink = Vec::new();
        let result = dispatch(&mut Args::new(line), &mut sink);
        assert!(
            matches!(result, Err(Error::Usage(_))),
            "{line:?}: {result:?}"
        );
        assert!(sink.is_empty(), "{line:?} printed something");
    }

    let mut args = Args::new("--sites 30 --cdf --disk-tier --replay x --disk-tier /tmp/d");
    assert_eq!(args.value::<usize>("--sites").unwrap(), Some(30));
    assert!(args.flag("--cdf") && !args.flag("--cdf"), "taken once");
    assert_eq!(args.optional_value("--disk-tier"), Some(None));
    assert_eq!(
        args.optional_value("--disk-tier"),
        Some(Some("/tmp/d".into()))
    );
    assert_eq!(
        args.value::<String>("--replay").unwrap().as_deref(),
        Some("x")
    );
    args.finish().expect("nothing left over");

    let mut listing = Vec::new();
    dispatch(&mut Args::new("list"), &mut listing).unwrap();
    assert_eq!(
        listing.iter().filter(|&&b| b == b'\n').count(),
        TABLE.len() + 1
    );
}
