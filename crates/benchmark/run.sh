#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source in
# release mode, then hand it the arguments unchanged.
#
# It always builds against the stand-ins under vendor/ (through
# .cargo/offline.toml): the harness that drives this script has no
# registry access, and a flavour that depended on what the network or
# the local registry cache happened to offer would change the exact
# metrics from one run to the next. With registry access, run
# `cargo run --release -p cachecatalyst-benchmark -- …` instead; every
# result is stamped with the flavour it was built with.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f Cargo.toml ] || [ ! -f .cargo/offline.toml ]; then
    echo "run.sh: $(pwd) is not a checkout of the repository" >&2
    exit 1
fi
cargo --config .cargo/offline.toml build --release --quiet \
    -p cachecatalyst-benchmark >&2
exec "${CARGO_TARGET_DIR:-target}/release/benchmark" "$@"
