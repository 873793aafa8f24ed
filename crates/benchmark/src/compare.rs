//! `benchmark compare A.json B.json`: is B no worse than A?
//!
//! One row per (workload, end-to-end metric), judged by the rule of
//! the `choosing-metrics` guide: B's median may be worse than A's by
//! at most the metric's bound; where A's own run-to-run spread is
//! wider than the bound the row is `unresolved`, not `ok`, unless
//! every run of B reads better than every run of A.

use std::fmt::Write as _;

use crate::json::Value;
use crate::model::{Better, Bound, EndToEnd, END_TO_END};
use crate::stats::{median, quartile_spread};

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric: `a` and `b` are its values over each file's
/// runs of one workload.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (mid_a, mid_b) = (median(a), median(b));
    // How much worse B's median is, as a positive amount.
    let worse_by = match metric.better {
        Better::Lower => mid_b - mid_a,
        Better::Higher => mid_a - mid_b,
    };
    let allowed = match metric.bound {
        Bound::Relative(share) => share * mid_a.abs(),
        Bound::RelativeOrAbsolute(share, amount) => (share * mid_a.abs()).max(amount),
        Bound::Exact => 0.001 * mid_a.abs(),
        Bound::AnyRise => 0.0,
    };
    if metric.bound == Bound::Exact {
        // A pure function of the inputs must repeat within a file.
        let repeats = |values: &[f64]| values.iter().all(|v| *v == values[0]);
        if !repeats(a) || !repeats(b) {
            return Verdict::Unresolved;
        }
    }
    let spread = quartile_spread(a) * mid_a.abs();
    if spread > allowed {
        let b_always_better = a.iter().all(|&x| {
            b.iter().all(|&y| match metric.better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn env_of<'a>(file: &'a Value, key: &str) -> Option<&'a Value> {
    file.get("env")?.get(key)
}

/// The values of `metric` over `file`'s runs of `workload`.
fn values_of(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(file, workload)
        .filter_map(|run| {
            if metric == "failed_pct" {
                let failed = run.get("failed")?.as_f64()?;
                return Some(100.0 * failed / run.get("attempted")?.as_f64()?.max(1.0));
            }
            run.get("metrics")?.get(metric)?.get("value")?.as_f64()
        })
        .collect()
}

fn runs_of<'a>(file: &'a Value, workload: &'a str) -> impl Iterator<Item = &'a Value> {
    file.get("results")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(move |run| run.get("workload").and_then(Value::as_str) == Some(workload))
}

fn workloads_of(file: &Value) -> Vec<&str> {
    let mut names = Vec::new();
    for run in file.get("results").and_then(Value::as_array).unwrap_or(&[]) {
        if let Some(name) = run.get("workload").and_then(Value::as_str) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    names
}

/// Compares two suite result files. `Err` when they cannot be compared
/// at all (different flavour, seed, scale or sizes); otherwise the
/// printed table and whether any row is `worse`.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    for key in ["deps", "seed", "seconds", "scale", "traced"] {
        if env_of(a, key).is_none() || env_of(a, key) != env_of(b, key) {
            return Err(format!(
                "cannot compare: env.{key} is {} in the first file and {} in the second",
                env_of(a, key).unwrap_or(&Value::Null),
                env_of(b, key).unwrap_or(&Value::Null)
            ));
        }
    }
    let workloads = workloads_of(a);
    if workloads.is_empty() || workloads != workloads_of(b) {
        return Err("cannot compare: the files hold different workloads".into());
    }
    for &workload in &workloads {
        let sizes = |file| runs_of(file, workload).next().and_then(|r| r.get("sizes"));
        if sizes(a) != sizes(b) {
            return Err(format!("cannot compare: {workload} was sized differently"));
        }
    }

    let mut table = format!(
        "{:<12} {:<17} {:>14} {:>14} {:>9} {:>12}  verdict\n",
        "workload", "metric", "A (median)", "B (median)", "delta", "bound"
    );
    let mut any_worse = false;
    for &workload in &workloads {
        for metric in &END_TO_END {
            let (va, vb) = (
                values_of(a, workload, metric.name),
                values_of(b, workload, metric.name),
            );
            if va.is_empty() && vb.is_empty() {
                continue; // the metric does not apply to this workload
            }
            let verdict = if va.is_empty() || vb.is_empty() {
                Verdict::Unresolved
            } else {
                judge(metric, &va, &vb)
            };
            any_worse |= verdict == Verdict::Worse;
            let (mid_a, mid_b) = (median(&va), median(&vb));
            let delta = if mid_a == 0.0 {
                format!("{:+.4}", mid_b - mid_a)
            } else {
                format!("{:+.2}%", 100.0 * (mid_b - mid_a) / mid_a)
            };
            let bound = match metric.bound {
                Bound::Relative(share) => format!("{:.0}%", share * 100.0),
                Bound::RelativeOrAbsolute(share, amount) => {
                    format!("{:.0}%|{amount}{}", share * 100.0, metric.unit)
                }
                Bound::Exact => "exact".into(),
                Bound::AnyRise => "any rise".into(),
            };
            let _ = writeln!(
                table,
                "{workload:<12} {:<17} {mid_a:>14.4} {mid_b:>14.4} {delta:>9} {bound:>12}  {}",
                metric.name,
                verdict.as_str()
            );
        }
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn relative_bound_in_both_directions() {
        let ops = metric("ops_per_s"); // higher is better, 10 %
        assert_eq!(judge(ops, &[100.0], &[91.0]), Verdict::Ok);
        assert_eq!(judge(ops, &[100.0], &[89.0]), Verdict::Worse);
        assert_eq!(judge(ops, &[100.0], &[150.0]), Verdict::Ok);
        let cpu = metric("cpu_us_per_op"); // lower is better, 10 %
        assert_eq!(judge(cpu, &[10.0], &[10.9]), Verdict::Ok);
        assert_eq!(judge(cpu, &[10.0], &[11.2]), Verdict::Worse);
    }

    #[test]
    fn setup_gets_an_absolute_floor() {
        let setup = metric("setup_s");
        assert_eq!(judge(setup, &[0.010], &[0.055]), Verdict::Ok);
        assert_eq!(judge(setup, &[0.010], &[0.070]), Verdict::Worse);
        assert_eq!(judge(setup, &[2.0], &[2.19]), Verdict::Ok);
        assert_eq!(judge(setup, &[2.0], &[2.21]), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_allow_a_tenth_of_a_percent_and_must_repeat() {
        let hit = metric("hit_pct");
        assert_eq!(judge(hit, &[66.7, 66.7], &[66.7, 66.7]), Verdict::Ok);
        assert_eq!(judge(hit, &[66.7], &[66.65]), Verdict::Ok);
        assert_eq!(judge(hit, &[66.7], &[66.0]), Verdict::Worse);
        assert_eq!(judge(hit, &[66.7], &[70.0]), Verdict::Ok);
        assert_eq!(
            judge(hit, &[66.7, 66.8], &[66.7, 66.7]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn any_rise_in_failures_is_worse() {
        let failed = metric("failed_pct");
        assert_eq!(judge(failed, &[0.0], &[0.0]), Verdict::Ok);
        assert_eq!(judge(failed, &[0.0], &[0.001]), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_always_wins() {
        let ops = metric("ops_per_s");
        let noisy = [60.0, 80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(ops, &noisy, &[95.0, 100.0, 105.0]),
            Verdict::Unresolved
        );
        assert_eq!(judge(ops, &noisy, &[150.0, 160.0]), Verdict::Ok);
        let steady = [99.0, 100.0, 100.0, 100.0, 101.0];
        assert_eq!(judge(ops, &steady, &[80.0, 81.0]), Verdict::Worse);
    }

    fn file(deps: &str, users: u32, ops: f64, hit: f64) -> Value {
        parse(&format!(
            r#"{{"env": {{"deps": "{deps}", "seed": 1, "seconds": 20, "scale": "full", "traced": false}},
                "results": [{{"workload": "edge-mem", "sizes": {{"users": {users}}},
                  "attempted": 100, "failed": 0,
                  "metrics": {{"ops_per_s": {{"value": {ops}, "unit": "op/s"}},
                              "hit_pct": {{"value": {hit}, "unit": "%"}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn refuses_files_that_differ_in_flavour_or_sizes() {
        let a = file("vendor-stubs", 5000, 100.0, 66.0);
        assert!(compare(&a, &file("crates-io", 5000, 100.0, 66.0))
            .unwrap_err()
            .contains("env.deps"));
        assert!(compare(&a, &file("vendor-stubs", 100, 100.0, 66.0))
            .unwrap_err()
            .contains("sized differently"));
    }

    #[test]
    fn reports_a_row_per_metric_and_flags_worse() {
        let a = file("vendor-stubs", 5000, 100.0, 66.0);
        let (table, worse) = compare(&a, &file("vendor-stubs", 5000, 97.0, 66.0)).unwrap();
        assert!(!worse, "{table}");
        assert!(table.contains("ops_per_s") && table.contains("failed_pct"));
        let (table, worse) = compare(&a, &file("vendor-stubs", 5000, 100.0, 60.0)).unwrap();
        assert!(worse, "{table}");
        assert!(table
            .lines()
            .any(|l| l.contains("hit_pct") && l.ends_with("worse")));
    }
}
