//! What the operating system says about this process: on-CPU time,
//! peak resident set, and the environment stamp every result carries.

use crate::json::Value;

/// Nanoseconds the calling process's main thread has spent on a CPU
/// (`/proc/self/schedstat`, first field). Every workload drives its
/// load from the main thread, so this is the load thread's CPU time
/// and excludes time it sat runnable behind a neighbour. `0` where the
/// file does not exist (non-Linux).
pub fn cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`); `0.0` where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Which dependency flavour this binary was built against — decided
/// by `build.rs` from `Cargo.lock`. The two flavours are different
/// programs as far as exact metrics go: `vendor/rand`'s `StdRng` is
/// not stream-compatible with the real one.
pub const DEPS: &str = env!("CC_BENCH_DEPS");

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The environment stamp: everything two result files must share
/// before their numbers can be compared, plus what a reader needs to
/// place them (commit, compiler, cores).
pub fn env_stamp(seed: u64, seconds: f64, scale: &str, traced: bool) -> Value {
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::object([
        ("commit", Value::Str(commit)),
        ("deps", Value::from(DEPS)),
        ("cores", Value::from(cores as u64)),
        ("rustc", Value::from(env!("CC_BENCH_RUSTC"))),
        ("seed", Value::from(seed)),
        ("seconds", Value::from(seconds)),
        ("scale", Value::from(scale)),
        ("traced", Value::from(traced)),
    ])
}
