//! Regenerates every experiment's output into `results/`.
//!
//! Usage: `cargo run --release -p cachecatalyst-bench --bin all
//!         [-- --out results] [--sites-scale 1.0]`
//!
//! Each experiment is its own binary, built alongside this one: `all`
//! spawns the sibling executable next to `current_exe()` (so build
//! the whole package first — `cargo build --release -p
//! cachecatalyst-bench` — or a missing sibling is reported as
//! "FAILED to launch") and saves its stdout, so the files match
//! exactly what the individual binaries print.

use std::path::PathBuf;
use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&out).expect("create output dir");

    let experiments: &[(&str, &[&str])] = &[
        ("fig1", &[]),
        ("fig2", &[]),
        ("fig3_frozen", &["fig3", "--cdf"]),
        ("fig3_churn", &["fig3", "--churn", "--cdf"]),
        ("fig3_capture", &["fig3", "--capture", "--sites", "50"]),
        ("motivation_stats", &[]),
        (
            "redundant_transfer",
            &["redundant_transfer", "--sites", "50"],
        ),
        ("compare_pushes", &["compare_pushes", "--sites", "30"]),
        ("header_overhead", &[]),
        ("js_coverage", &[]),
        ("cross_origin", &[]),
        ("fcp_metrics", &["fcp_metrics", "--sites", "30"]),
        ("capture_memory", &[]),
        ("intra_site", &[]),
        (
            "transport_ablation",
            &["transport_ablation", "--sites", "25"],
        ),
        ("loss_sensitivity", &["loss_sensitivity", "--sites", "20"]),
        ("swr_comparison", &["swr_comparison", "--sites", "25"]),
        ("server_cost", &[]),
        ("corpus_report", &[]),
        ("engine_ablation", &["engine_ablation", "--sites", "15"]),
        ("cache_busting", &[]),
    ];

    let mut failures = 0;
    for (name, spec) in experiments {
        let (bin, extra): (&str, &[&str]) = match spec.split_first() {
            Some((bin, extra)) => (bin, extra),
            None => (name, &[]),
        };
        eprintln!("=== {name} (bin {bin})");
        let output = Command::new(std::env::current_exe().unwrap().parent().unwrap().join(bin))
            .args(extra)
            .output();
        match output {
            Ok(o) if o.status.success() => {
                let path = out.join(format!("{name}.txt"));
                std::fs::write(&path, &o.stdout).expect("write result");
                eprintln!("    → {} ({} bytes)", path.display(), o.stdout.len());
            }
            Ok(o) => {
                eprintln!("    FAILED: {}", String::from_utf8_lossy(&o.stderr));
                failures += 1;
            }
            Err(e) => {
                eprintln!("    FAILED to launch: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
    eprintln!("all experiments regenerated into {}", out.display());
}
