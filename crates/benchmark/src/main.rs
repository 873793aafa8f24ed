//! The `benchmark` command line; see the library docs for what it runs.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use cachecatalyst_benchmark::json::{self, Value};
use cachecatalyst_benchmark::model::Workload;
use cachecatalyst_benchmark::run::{self, Outcome};
use cachecatalyst_benchmark::{compare, sys};

const USAGE: &str = "usage:
  benchmark [run|trace] [--seed N] [--seconds S] [--runs N] [--smoke] [--out FILE]
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  benchmark compare A.json B.json";

/// Parsed command line.
struct Args {
    command: String,
    files: Vec<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    runs: u32,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        files: Vec::new(),
        workload: None,
        seed: 2024,
        seconds: 20.0,
        traced: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut words = argv.iter();
    let mut positional = Vec::new();
    while let Some(word) = words.next() {
        let mut value = |what: &str| {
            words
                .next()
                .ok_or_else(|| format!("{word} needs {what}"))
                .cloned()
        };
        let number = |text: String| {
            text.parse::<f64>()
                .map_err(|_| format!("{word}: not a number: {text}"))
        };
        match word.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let text = value("a number")?;
                args.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {text}"))?;
            }
            "--seconds" => {
                args.seconds = number(value("a number")?)?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--runs" => args.runs = (number(value("a count")?)? as u32).max(1),
            "--trace" => args.traced = number(value("0 or 1")?)? != 0.0,
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => positional.push(word.clone()),
        }
    }
    if let Some(first) = positional.first() {
        args.command = first.clone();
        args.files = positional[1..].to_vec();
    }
    match args.command.as_str() {
        "run" | "trace" if args.files.is_empty() => {}
        "compare" if args.files.len() == 2 => {}
        _ => return Err(format!("cannot make sense of `{}`", positional.join(" "))),
    }
    args.traced |= args.command == "trace";
    Ok(args)
}

/// `<target>/benchmark/`, found from where this executable sits
/// (`<target>/<profile>/benchmark`), so it follows `CARGO_TARGET_DIR`
/// and does not depend on the working directory.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("the executable sits under <target>/<profile>/");
    target.join("benchmark")
}

fn scale_name(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

fn print_metrics(outcome: &Outcome) {
    let sizes = outcome.sizes;
    println!(
        "## {} ({}) — op = one {}; {} laps x {} users x {} sites, edge DRAM {} MiB",
        outcome.workload.name(),
        if outcome.traced { "traced" } else { "untraced" },
        outcome.workload.op(),
        sizes.laps,
        sizes.users,
        sizes.sites,
        sizes.mem_mib,
    );
    for metric in &outcome.metrics {
        println!("{:<40} {:>18.4} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "{:<40} {:>18} of {} ops",
        "failed", outcome.failed, outcome.attempted
    );
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    if outcome.traced && outcome.workload == Workload::FleetDay {
        print_fleet_budget(outcome);
    }
}

/// Where a page visit's wall time goes, layer by layer — the row that
/// connects the edge's hundreds of thousands of requests per second to
/// the fleet's few thousand.
fn print_fleet_budget(outcome: &Outcome) {
    let get = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let visits = get("fleet.visits");
    if visits == 0.0 {
        return;
    }
    let untraced_us = 1e6 * 2.0
        / (get("fleet.baseline.visits_per_s") + get("fleet.catalyst.visits_per_s")).max(1e-9);
    let browser = (get("browser.baseline.self_us_per_visit")
        + get("browser.catalyst.self_us_per_visit"))
        / 2.0;
    let fleet = get("fleet.self_us_per_visit");
    // Shares are of the traced wall; turn them back into µs per visit.
    let traced_us = browser / (get("browser.busy_share_pct") / 100.0).max(1e-9);
    let edge = traced_us * get("edge.busy_share_pct") / 100.0;
    let origin = traced_us * get("origin.busy_share_pct") / 100.0;
    println!("-- layer budget, us per page visit (self time, both modes) --");
    println!("browser (engine, http cache, service worker, netsim) {browser:>10.1}");
    println!(
        "edge    ({:.1} requests reach it per visit)          {edge:>10.1}",
        get("edge.handle_count") / visits
    );
    println!("origin                                               {origin:>10.1}");
    println!("fleet   (replay loop, corpus, servers)               {fleet:>10.1}");
    println!(
        "sum {:.1} = traced wall per visit {traced_us:.1}; untraced run_fleet wall per visit {untraced_us:.1}",
        browser + edge + origin + fleet
    );
}

/// Runs one workload in this process; prints the table, writes the
/// record, and ends with the contract line.
fn single(args: &Args, workload: Workload) -> ExitCode {
    let dir = out_dir();
    let outcome = run::run(
        workload,
        args.seed,
        args.seconds,
        args.smoke,
        args.traced,
        &dir,
    );
    let env = sys::env_stamp(args.seed, args.seconds, scale_name(args.smoke), args.traced);
    println!("# env {env}");
    print_metrics(&outcome);
    let record = dir.join(format!(
        "last-{}-t{}.json",
        workload.name(),
        u8::from(args.traced)
    ));
    if let Err(e) = std::fs::write(&record, format!("{}\n", outcome.record_json(env))) {
        eprintln!("writing {}: {e}", record.display());
        return ExitCode::FAILURE;
    }
    println!("{}", outcome.contract_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload `args.runs` times, each in a child process,
/// and writes the combined result file.
fn suite(args: &Args) -> ExitCode {
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("creating {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let exe = std::env::current_exe().expect("the executable has a path");
    let mut results = Vec::new();
    let mut all_correct = true;
    for run in 0..args.runs {
        for workload in Workload::ALL {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            // The child's table is this run's report; pass it through.
            let status = match child.status() {
                Ok(status) => status,
                Err(e) => {
                    eprintln!("starting {}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            };
            all_correct &= status.success();
            let record = dir.join(format!(
                "last-{}-t{}.json",
                workload.name(),
                u8::from(args.traced)
            ));
            match std::fs::read_to_string(&record)
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text))
            {
                Ok(value) => results.push(value),
                Err(e) => {
                    eprintln!("run {run}: reading {}: {e}", record.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    // One environment for the file; the per-run copies agree with it.
    let env = results[0].get("env").cloned().unwrap_or(Value::Null);
    let results: Vec<Value> = results
        .into_iter()
        .map(|run| match run {
            Value::Obj(members) => {
                Value::Obj(members.into_iter().filter(|(k, _)| k != "env").collect())
            }
            other => other,
        })
        .collect();
    let file = Value::object([("env", env), ("results", Value::Arr(results))]);
    let path = args.out.clone().unwrap_or_else(|| {
        dir.join(format!(
            "result-{}-{}.json",
            if args.traced { "traced" } else { "untraced" },
            scale_name(args.smoke)
        ))
    });
    if let Err(e) = std::fs::write(&path, format!("{file}\n")) {
        eprintln!("writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("# wrote {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload failed its output checks");
        ExitCode::FAILURE
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let verdict = load(a).and_then(|a| compare::compare(&a, &load(b)?));
    match verdict {
        Ok((table, any_worse)) => {
            print!("{table}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_str(), args.workload) {
        ("compare", _) => compare_files(&args.files[0], &args.files[1]),
        (_, Some(workload)) => single(&args, workload),
        _ => suite(&args),
    }
}
