//! The `cachecatalyst` binary refuses a command line it cannot read:
//! usage on stderr, exit status 2, nothing run and no panic.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs the binary with `line` and returns its exit code and stderr.
/// A command that should have been refused but runs anyway (`serve`
/// waits for ctrl-c) is killed after a deadline and reported as `None`.
fn run(line: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cachecatalyst"))
        .args(line.split_whitespace())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cachecatalyst");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_command_lines_are_usage_errors() {
    for line in [
        "load --example --bw 0",
        "load --example --bw 20000000000000",
        "load --example --rtt 120ms --seed x --waterfal",
        "load --example --waterfal",
        "load --example --rtt 18446744073709551615",
        "load --example --revisit 18446744073709551615",
        "load --example --seed 3",
        "load --mode agregate",
        "fetch not-a-url",
        "fetch http://127.0.0.1:99999/",
        "fetch",
        "serve --port abc",
        "serve --port 70000",
        "unknown",
        "",
    ] {
        let (code, stderr) = run(line);
        assert_eq!(code, Some(2), "{line:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{line:?}: {stderr}");
        assert!(
            stderr.contains("usage: cachecatalyst"),
            "{line:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{line:?}: {stderr}");
    }
}
