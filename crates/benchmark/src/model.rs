//! The benchmark's vocabulary: workloads and their sizes, what one lap
//! returns, and the metric tables (names, units, directions, bounds).

use std::collections::BTreeMap;

use crate::json::Value;
use crate::stats::Block;

/// The four workloads. Each one peels a layer off the previous: the
/// whole fleet, then the edge alone (DRAM, then DRAM + disk), then
/// origin + wire codec with no cache in front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetDay,
    EdgeMem,
    EdgeHybrid,
    OriginWire,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetDay,
        Workload::EdgeMem,
        Workload::EdgeHybrid,
        Workload::OriginWire,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDay => "fleet-day",
            Workload::EdgeMem => "edge-mem",
            Workload::EdgeHybrid => "edge-hybrid",
            Workload::OriginWire => "origin-wire",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::FleetDay => "page visit",
            _ => "request",
        }
    }

    /// Sizes of one run. A run is `laps` independent one-day traces
    /// (see `World::generate` for how each is seeded), each `users` ×
    /// `sites`;
    /// `laps` is `seconds` over the lap's nominal duration on the
    /// 2-core sizing container, so the work is a fixed function of
    /// `(workload, seconds, smoke)` — never of how fast the code ran.
    /// `--smoke` divides users by 50 (keeping at least 40, below which
    /// a fleet has no reuse to measure) and runs a single lap.
    pub fn sizes(self, seconds: f64, smoke: bool) -> Sizes {
        let (users, sites, mem_mib, nominal_lap_s) = match self {
            Workload::FleetDay => (200, 50, 256, 2.0),
            Workload::EdgeMem => (5000, 100, 64, 2.0),
            Workload::EdgeHybrid => (500, 100, 8, 2.0),
            Workload::OriginWire => (2500, 100, 0, 2.0),
        };
        if smoke {
            return Sizes {
                users: (users / 50).max(40),
                sites,
                mem_mib,
                laps: 1,
            };
        }
        Sizes {
            users,
            sites,
            mem_mib,
            laps: ((seconds / nominal_lap_s).round() as u32).max(1),
        }
    }
}

/// See [`Workload::sizes`]. `mem_mib` is the edge's DRAM budget (0
/// where there is no edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub users: u32,
    pub sites: u32,
    pub mem_mib: u32,
    pub laps: u32,
}

impl Sizes {
    pub fn to_json(self) -> Value {
        Value::object([
            ("users", Value::from(u64::from(self.users))),
            ("sites", Value::from(u64::from(self.sites))),
            ("mem_mib", Value::from(u64::from(self.mem_mib))),
            ("laps", Value::from(u64::from(self.laps))),
        ])
    }
}

/// The deterministic outcome of one lap: pure functions of (code,
/// seed, dependency flavour). Summed over a run's laps they give the
/// "exact" end-to-end metrics; a repeated lap must reproduce them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exact {
    /// Operations attempted in the timed section.
    pub ops: u64,
    /// Operations that failed the oracle.
    pub failed: u64,
    /// Response bytes delivered.
    pub bytes: u64,
    /// Requests answered without moving a body from the origin (edge
    /// hits; `304`s on `origin-wire`) …
    pub hits: u64,
    /// … out of this many.
    pub lookups: u64,
    /// Body bytes served from a cache (on `origin-wire`: bytes a `304`
    /// spared) …
    pub hit_bytes: u64,
    /// … against body bytes the origin sent.
    pub upstream_bytes: u64,
    /// Requests that reached the origin …
    pub upstream_requests: u64,
    /// … out of this many at the outermost server.
    pub requests: u64,
    /// Simulated PLT, catalyst mode (`fleet-day` only; else 0).
    pub plt_p50_ms: f64,
    pub plt_p99_ms: f64,
}

/// Raw per-layer observations of traced laps, pooled across laps:
/// counters add, duration samples concatenate. Keys are internal; the
/// published names are assigned when the run is summarised.
#[derive(Debug, Default)]
pub struct Layers {
    pub sums: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_default() += value;
    }

    pub fn sample(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: Layers) {
        for (key, value) in other.sums {
            self.add(key, value);
        }
        for (key, mut values) in other.samples {
            self.samples.entry(key).or_default().append(&mut values);
        }
    }
}

/// What one lap hands back.
pub struct Lap {
    /// Trace + corpus generation, server construction, warm-up.
    pub setup_s: f64,
    /// The timed section, cut into blocks.
    pub blocks: Vec<Block>,
    pub exact: Exact,
    /// Why the lap's own checks failed, if any did.
    pub problems: Vec<String>,
    /// Per-layer observations (traced laps only).
    pub layers: Layers,
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// By how much an end-to-end metric may worsen between two result
/// files of the same seed, sizes and flavour before `compare` calls
/// it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the first file's median.
    Relative(f64),
    /// A share of the median or an absolute amount, whichever is
    /// larger.
    RelativeOrAbsolute(f64, f64),
    /// A pure function of (code, seed, flavour): runs within a file
    /// must agree exactly and any worsening past 0.1 % is real.
    Exact,
    /// Any rise at all.
    AnyRise,
}

/// An end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Emitted by `fleet-day` only (the simulated PLT).
    pub fleet_only: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        fleet_only: false,
    }
}

/// The eleven end-to-end metrics, in print order.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e(
        "setup_s",
        "s",
        Better::Lower,
        Bound::RelativeOrAbsolute(0.10, 0.05),
    ),
    e2e("ops_per_s", "op/s", Better::Higher, Bound::Relative(0.10)),
    e2e("cpu_us_per_op", "us", Better::Lower, Bound::Relative(0.10)),
    e2e("peak_rss_mb", "MiB", Better::Lower, Bound::Relative(0.10)),
    e2e("failed_pct", "%", Better::Lower, Bound::AnyRise),
    e2e("hit_pct", "%", Better::Higher, Bound::Exact),
    e2e("byte_hit_pct", "%", Better::Higher, Bound::Exact),
    e2e("upstream_per_req", "ratio", Better::Lower, Bound::Exact),
    EndToEnd {
        fleet_only: true,
        ..e2e("plt_p50_ms", "ms", Better::Lower, Bound::Exact)
    },
    EndToEnd {
        fleet_only: true,
        ..e2e("plt_p99_ms", "ms", Better::Lower, Bound::Exact)
    },
    e2e("kb_per_op", "KiB", Better::Lower, Bound::Exact),
];

/// The end-to-end metrics `BENCHMARK.json` can carry: the driver wants
/// every one of them from every workload and none that reads 0, which
/// rules out `failed_pct` (0 on a healthy run; it travels as
/// `failed`/`attempted`) and the fleet-only PLT pair (published as
/// per-layer metrics instead).
pub fn contract_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END
        .iter()
        .filter(|m| !m.fleet_only && m.bound != Bound::AnyRise)
}

/// A per-layer metric: `(name, unit, better)`. Every traced run emits
/// every one; a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str, Better); 69] = {
    use Better::{Higher as Hi, Lower as Lo};
    [
        ("plt_p50_ms", "ms", Lo),
        ("plt_p99_ms", "ms", Lo),
        ("fleet.baseline.visits_per_s", "1/s", Hi),
        ("fleet.catalyst.visits_per_s", "1/s", Hi),
        ("fleet.self_us_per_visit", "us", Lo),
        ("fleet.visits", "count", Hi),
        ("fleet.users", "count", Hi),
        ("browser.baseline.self_us_per_visit", "us", Lo),
        ("browser.catalyst.self_us_per_visit", "us", Lo),
        ("browser.load_us_p50", "us", Lo),
        ("browser.load_us_p99", "us", Lo),
        ("browser.busy_share_pct", "%", Lo),
        ("browser.baseline.net_reqs_per_visit", "ratio", Lo),
        ("browser.catalyst.net_reqs_per_visit", "ratio", Lo),
        ("browser.sw_hits_per_visit", "ratio", Hi),
        ("browser.cache_hits_per_visit", "ratio", Hi),
        ("browser.not_modified_per_visit", "ratio", Lo),
        ("browser.baseline.plt_exact_p50_ms", "ms", Lo),
        ("browser.baseline.plt_exact_p99_ms", "ms", Lo),
        ("browser.baseline.plt_exact_p999_ms", "ms", Lo),
        ("browser.catalyst.plt_exact_p50_ms", "ms", Lo),
        ("browser.catalyst.plt_exact_p99_ms", "ms", Lo),
        ("browser.catalyst.plt_exact_p999_ms", "ms", Lo),
        ("edge.self_ns_p50", "ns", Lo),
        ("edge.self_ns_p99", "ns", Lo),
        ("edge.hit_ns_p50", "ns", Lo),
        ("edge.miss_self_ns_p50", "ns", Lo),
        ("edge.busy_share_pct", "%", Lo),
        ("edge.handle_count", "count", Lo),
        ("edge.evictions", "count", Lo),
        ("edge.revalidated_304", "count", Hi),
        ("edge.marks_fresh", "count", Hi),
        ("edge.uncacheable", "count", Lo),
        ("edge.coalesced_waiters", "count", Hi),
        ("edge.disk.hit_share_pct", "%", Hi),
        ("edge.disk.demotions", "count", Lo),
        ("edge.disk.promotions", "count", Lo),
        ("edge.disk.admission_rejects", "count", Lo),
        ("edge.disk.bytes_held_mb", "MiB", Lo),
        ("edge.disk.file_bytes_per_held_byte", "ratio", Lo),
        ("edge.disk.boot_scan_ms", "ms", Lo),
        ("edge.disk.recovered", "count", Hi),
        ("origin.handle_ns_p50", "ns", Lo),
        ("origin.handle_ns_p99", "ns", Lo),
        ("origin.page_ns_p50", "ns", Lo),
        ("origin.asset_ns_p50", "ns", Lo),
        ("origin.not_modified_ns_p50", "ns", Lo),
        ("origin.busy_share_pct", "%", Lo),
        ("origin.handle_count", "count", Lo),
        ("origin.not_modified_pct", "%", Hi),
        ("origin.configs_built", "count", Lo),
        ("origin.config_cache_hit_pct", "%", Hi),
        ("origin.spans_on_ns_p50", "ns", Lo),
        ("httpwire.encode_request_ns", "ns", Lo),
        ("httpwire.parse_request_ns", "ns", Lo),
        ("httpwire.encode_response_ns", "ns", Lo),
        ("httpwire.parse_response_ns", "ns", Lo),
        ("httpwire.bytes_per_resp", "B", Lo),
        ("webmodel.trace_gen_ms", "ms", Lo),
        ("webmodel.corpus_gen_ms", "ms", Lo),
        ("webmodel.corpus_mb", "MiB", Lo),
        ("webmodel.stream_reqs", "count", Lo),
        ("tcp.edge_rtt_us_p50", "us", Lo),
        ("tcp.edge_rtt_us_p99", "us", Lo),
        ("tcp.origin_rtt_us_p50", "us", Lo),
        ("tcp.origin_rtt_us_p99", "us", Lo),
        ("trace.overhead_pct", "%", Lo),
        ("trace.spans", "count", Lo),
        ("trace.unattributed_pct", "%", Lo),
    ]
};

/// One published number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract_alphabet() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in contract_end_to_end() {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for (name, unit, _) in PER_LAYER {
            assert!(name_ok(name) && unit_ok(unit), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn sizes_are_a_function_of_seconds_not_speed() {
        let s = Workload::EdgeMem.sizes(20.0, false);
        assert_eq!((s.users, s.laps), (5000, 10));
        assert_eq!(Workload::EdgeMem.sizes(0.0, false).laps, 1);
        let smoke = Workload::EdgeMem.sizes(20.0, true);
        assert_eq!((smoke.users, smoke.laps), (100, 1));
    }

    #[test]
    fn layers_pool_counters_and_samples() {
        let mut a = Layers::default();
        a.add("n", 2.0);
        a.sample("d", 1.0);
        let mut b = Layers::default();
        b.add("n", 3.0);
        b.sample("d", 5.0);
        a.merge(b);
        assert_eq!(a.sum("n"), 5.0);
        assert_eq!(a.samples["d"], vec![1.0, 5.0]);
        assert_eq!(a.sum("absent"), 0.0);
    }
}
