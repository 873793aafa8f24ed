//! Drives the built `benchmark` binary at `--smoke` scale: the whole
//! suite twice, the traced suite once, `compare` over the results, and
//! the single-workload form `BENCHMARK.json`'s command is driven in.
//!
//! One test function on purpose: every run of a workload rewrites the
//! same `last-<workload>-t<n>.json` under `<target>/benchmark/`, so
//! the steps must not overlap.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use cachecatalyst_benchmark::json::{self, Value};
use cachecatalyst_benchmark::model::{contract_end_to_end, Bound, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 4] = ["fleet-day", "edge-mem", "edge-hybrid", "origin-wire"];

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn load(path: &Path) -> Value {
    json::parse(&std::fs::read_to_string(path).expect("result file exists")).expect("it parses")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `(workload, metric name, value)` for every metric in a suite file.
fn rows(file: &Value) -> Vec<(String, String, f64)> {
    let mut rows = Vec::new();
    for run in file.get("results").and_then(Value::as_array).unwrap() {
        let workload = run.get("workload").and_then(Value::as_str).unwrap();
        for (name, metric) in run.get("metrics").and_then(Value::as_object).unwrap() {
            let value = metric.get("value").and_then(Value::as_f64).unwrap();
            assert!(metric.get("unit").and_then(Value::as_str).is_some());
            rows.push((workload.to_owned(), name.clone(), value));
        }
    }
    rows
}

fn metric_names(contract_line: &Value) -> Vec<String> {
    contract_line
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap()
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

fn declared(manifest: &Value, section: &str) -> Vec<(String, String, String)> {
    manifest
        .get(section)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_owned();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn smoke_suite_repeats_compares_and_matches_the_manifest() {
    // --- the untraced suite, twice -----------------------------------
    let (a_path, b_path) = (tmp("smoke-a.json"), tmp("smoke-b.json"));
    for path in [&a_path, &b_path] {
        let out = benchmark(&["run", "--smoke", "--out", path.to_str().unwrap()]);
        assert!(out.status.success(), "suite failed:\n{}", stdout(&out));
        for workload in WORKLOADS {
            assert!(stdout(&out).contains(&format!("## {workload} (untraced)")));
        }
    }
    let (a, b) = (load(&a_path), load(&b_path));
    let env = a.get("env").unwrap();
    for key in [
        "commit", "deps", "cores", "rustc", "seed", "seconds", "scale", "traced",
    ] {
        assert!(env.get(key).is_some(), "env stamp lacks {key}");
    }
    assert_eq!(env.get("scale").and_then(Value::as_str), Some("smoke"));

    let (rows_a, rows_b) = (rows(&a), rows(&b));
    assert_eq!(rows_a.len(), rows_b.len());
    for workload in WORKLOADS {
        let of: Vec<_> = rows_a.iter().filter(|r| r.0 == workload).collect();
        // 11 end-to-end metrics; the PLT pair is fleet-day's alone.
        let expected = if workload == "fleet-day" { 11 } else { 9 };
        assert_eq!(of.len(), expected, "{workload}");
    }
    for ((workload, name, value_a), (_, name_b, value_b)) in rows_a.iter().zip(&rows_b) {
        assert_eq!(name, name_b);
        assert!(name_ok(name), "{name}");
        let metric = END_TO_END.iter().find(|m| m.name == name).unwrap();
        if matches!(metric.bound, Bound::Exact | Bound::AnyRise) {
            assert_eq!(value_a, value_b, "{workload} {name} must repeat exactly");
        }
    }

    // --- compare ------------------------------------------------------
    let same = benchmark(&[
        "compare",
        a_path.to_str().unwrap(),
        b_path.to_str().unwrap(),
    ]);
    let table = stdout(&same);
    // Timing rows may be `unresolved` or `worse` at smoke scale (blocks
    // last microseconds); the exact rows may not.
    for line in table.lines().skip(1) {
        let exact = line.contains(" exact ") || line.contains("any rise");
        assert!(!exact || line.ends_with(" ok"), "{line}");
    }
    assert_eq!(table.lines().count(), 1 + 11 + 3 * 9, "{table}");

    // A file from another seed is refused outright.
    let other = tmp("smoke-seed7.json");
    let out = benchmark(&[
        "run",
        "--smoke",
        "--seed",
        "7",
        "--out",
        other.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let refused = benchmark(&["compare", a_path.to_str().unwrap(), other.to_str().unwrap()]);
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("env.seed"));

    // --- the traced suite ---------------------------------------------
    let traced_path = tmp("smoke-traced.json");
    let out = benchmark(&["trace", "--smoke", "--out", traced_path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "traced suite failed:\n{}",
        stdout(&out)
    );
    assert!(stdout(&out).contains("layer budget"));
    let traced = load(&traced_path);
    let traced_rows = rows(&traced);
    assert_eq!(traced_rows.len(), 4 * PER_LAYER.len());
    let value = |workload: &str, name: &str| {
        traced_rows
            .iter()
            .find(|r| r.0 == workload && r.1 == name)
            .unwrap_or_else(|| panic!("{workload} lacks {name}"))
            .2
    };
    // Each workload enters the layers it claims to and no others.
    assert!(value("fleet-day", "browser.busy_share_pct") > 50.0);
    assert!(value("fleet-day", "browser.catalyst.plt_exact_p999_ms") > 0.0);
    assert!(value("edge-mem", "edge.handle_count") > 0.0);
    assert_eq!(value("edge-mem", "browser.busy_share_pct"), 0.0);
    assert_eq!(value("edge-mem", "edge.disk.demotions"), 0.0);
    assert!(value("edge-hybrid", "edge.disk.boot_scan_ms") > 0.0);
    assert!(value("origin-wire", "httpwire.parse_response_ns") > 0.0);
    assert_eq!(value("origin-wire", "edge.handle_count"), 0.0);
    for workload in WORKLOADS {
        assert!(value(workload, "trace.spans") > 0.0);
        assert!(value(workload, "webmodel.stream_reqs") > 0.0);
    }
    let spans = std::fs::read_to_string(
        Path::new(env!("CARGO_BIN_EXE_benchmark"))
            .parent()
            .and_then(Path::parent)
            .unwrap()
            .join("benchmark/trace-origin-wire.jsonl"),
    )
    .expect("the traced run wrote its spans");
    let first = json::parse(spans.lines().next().unwrap()).expect("span lines are JSON");
    for key in ["id", "name", "start_ns", "end_ns", "parent", "op"] {
        assert!(first.get(key).is_some(), "span lacks {key}");
    }

    // --- the form BENCHMARK.json's command is driven in ----------------
    let manifest = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json"));
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let end_to_end = declared(&manifest, "end_to_end");
    let ours: Vec<_> = contract_end_to_end()
        .map(|m| {
            (
                m.name.to_owned(),
                m.unit.to_owned(),
                m.better.as_str().to_owned(),
            )
        })
        .collect();
    assert_eq!(
        end_to_end, ours,
        "BENCHMARK.json end_to_end drifted from model.rs"
    );
    let per_layer = declared(&manifest, "per_layer");
    let ours: Vec<_> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            (
                name.to_string(),
                unit.to_string(),
                better.as_str().to_owned(),
            )
        })
        .collect();
    assert_eq!(
        per_layer, ours,
        "BENCHMARK.json per_layer drifted from model.rs"
    );

    for (flag, section) in [("0", &end_to_end), ("1", &per_layer)] {
        let out = benchmark(&[
            "--workload",
            "edge-hybrid",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            flag,
            "--smoke",
        ]);
        assert!(out.status.success());
        let text = stdout(&out);
        let line = json::parse(text.lines().last().unwrap()).expect("the last line is JSON");
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let names: Vec<String> = section.iter().map(|m| m.0.clone()).collect();
        assert_eq!(metric_names(&line), names);
    }
}

#[test]
fn bad_command_lines_exit_2_without_a_result() {
    for args in [
        &["--workload", "no-such"][..],
        &["--seed", "x"],
        &["compare", "only-one.json"],
        &["frobnicate"],
        &["--bogus"],
    ] {
        let out = benchmark(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
