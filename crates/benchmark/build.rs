//! Stamps the build with its dependency flavour and compiler.
//!
//! `deps` is read off the workspace `Cargo.lock`, which Cargo resolves
//! before it runs build scripts: the real `tokio` carries a registry
//! `source`, the stand-in under `vendor/` (patched in by
//! `.cargo/offline.toml`) carries none.

use std::path::Path;
use std::process::Command;

fn main() {
    let lock = Path::new(&std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets it"))
        .join("../../Cargo.lock");
    println!("cargo:rerun-if-changed={}", lock.display());
    println!("cargo:rerun-if-changed=build.rs");

    let text = std::fs::read_to_string(&lock).unwrap_or_default();
    let tokio_from_registry = text
        .split("[[package]]")
        .find(|entry| entry.contains("name = \"tokio\"\n"))
        .is_some_and(|entry| entry.contains("source = \"registry+"));
    let deps = if tokio_from_registry {
        "crates-io"
    } else {
        "vendor-stubs"
    };
    println!("cargo:rustc-env=CC_BENCH_DEPS={deps}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=CC_BENCH_RUSTC={version}");
}
