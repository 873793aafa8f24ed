//! # cachecatalyst-benchmark
//!
//! The one repo benchmark: four closed-loop workloads over one seeded
//! fleet trace, each peeling a layer off the one before, with an
//! outside-in per-layer time budget from a separate traced run. See
//! `README.md` in this crate for the metric tables and the reasoning.
//!
//! ```text
//! benchmark [run|trace] [--seed N] [--seconds S] [--runs N] [--smoke] [--out FILE]
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark compare A.json B.json
//! ```
//!
//! `run` and `trace` start one child process per workload (one load
//! thread each), print every metric by name with its unit, and write a
//! result file under `<target>/benchmark/`. `--workload` runs a single
//! workload in this process and ends its output with one JSON line —
//! the form `BENCHMARK.json`'s command is driven in.

pub mod compare;
pub mod json;
pub mod model;
pub mod oracle;
pub mod probes;
pub mod run;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workloads;
pub mod world;
