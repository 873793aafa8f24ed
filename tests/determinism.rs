//! Integration: the whole pipeline is deterministic — identical seeds
//! give bit-identical sites, bodies, ETags and nanosecond-identical
//! PLTs, which is what makes the evaluation reproducible.

use std::sync::Arc;

use cachecatalyst::prelude::*;

fn run_once(seed: u64, mode: HeaderMode) -> (Vec<u64>, u64, String) {
    let site = Site::generate(SiteSpec {
        host: "det.example".into(),
        seed,
        n_resources: 45,
        js_discovered_fraction: 0.1,
        ..Default::default()
    });
    let url = site.url(site.base_path());
    let origin = Arc::new(OriginServer::new(site.clone(), mode));
    let mut browser = match mode {
        HeaderMode::Baseline => Browser::baseline(),
        _ => Browser::catalyst(),
    };
    let cond = NetworkConditions::five_g_median();
    let cold = browser.load(&origin, cond, &url, 1_000_000);
    let warm = browser.load(&origin, cond, &url, 1_003_600);
    let etag = site
        .etag_at(site.base_path(), 1_000_000)
        .unwrap()
        .to_string();
    (
        vec![cold.plt.as_nanos(), warm.plt.as_nanos()],
        cold.bytes_down + warm.bytes_down,
        etag,
    )
}

#[test]
fn identical_seeds_are_bit_identical() {
    for mode in [HeaderMode::Baseline, HeaderMode::Catalyst] {
        let a = run_once(7, mode);
        let b = run_once(7, mode);
        assert_eq!(a, b, "mode {mode:?} not deterministic");
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_once(7, HeaderMode::Baseline);
    let b = run_once(8, HeaderMode::Baseline);
    assert_ne!(a.0, b.0);
}

/// The generator's stream, pinned where people read it: a corpus and a
/// trace. Both constants were captured at PR 16 from `vendor/rand`'s
/// `StdRng`; `webmodel::stats::SeededRng` must keep drawing that
/// stream (its doc comment says why), in every build flavour.
#[test]
fn the_seeded_stream_is_the_one_pinned_at_pr16() {
    use cachecatalyst::httpwire::hash::fnv1a64;
    use cachecatalyst::webmodel::workload::generate;

    let mut corpus = String::new();
    for site in generate_corpus(&CorpusSpec {
        n_sites: 3,
        seed: 42,
        ..Default::default()
    }) {
        for res in site.resources() {
            let (host, path) = (&site.spec.host, &res.spec.path);
            let etag = site.etag_at(path, 0).unwrap();
            corpus.push_str(&format!("{host}{path} {etag}\n"));
        }
    }
    assert_eq!(fnv1a64(corpus.as_bytes()), 0xf7e0_4309_5431_aa78);

    let trace = generate(&fleet::spec(42)).to_jsonl();
    assert_eq!(fnv1a64(trace.as_bytes()), 0x0fd0_52b4_6223_896d);
}

/// Simulated time pinned across commits, to the nanosecond: the
/// Figure-1 example's cold and +2 h loads in both modes, and the XXH64
/// of each chaos topology's seed-1 fingerprint (every fetch's start,
/// completion, bytes, round trips and decision under a fault plan).
/// `identical_seeds_are_bit_identical` compares two runs of one build
/// and `results/` rounds to 0.01 ms; only this test fails when a
/// change to the simulator moves an event by one nanosecond. A change
/// that is meant to move simulated time updates these constants and
/// says why.
#[test]
fn simulated_time_is_pinned_to_the_nanosecond() {
    use cachecatalyst::chaos::{self, Topology};
    use cachecatalyst::httpwire::hash::xxh64;
    use cachecatalyst::webmodel::revisit_delay;

    let base = Url::parse("http://example.org/index.html").unwrap();
    let revisit = revisit_delay().as_secs() as i64;
    let mut loads = Vec::new();
    for mode in [HeaderMode::Baseline, HeaderMode::Catalyst] {
        let origin = OriginServer::new(example_site(), mode);
        let mut browser = match mode {
            HeaderMode::Baseline => Browser::baseline(),
            _ => Browser::catalyst(),
        };
        for t in [0, revisit] {
            let r = browser.load(&origin, NetworkConditions::five_g_median(), &base, t);
            loads.push((r.plt.as_nanos(), r.fcp.as_nanos()));
        }
    }
    // (plt, fcp) in ns: baseline cold, baseline +2 h, catalyst cold,
    // catalyst +2 h.
    assert_eq!(
        loads,
        [
            (279_801_736, 173_108_534),
            (190_262_935, 127_820_934),
            (279_829_410, 173_137_408),
            (190_441_275, 87_036_874),
        ]
    );

    let fingerprints: Vec<u64> = Topology::ALL
        .into_iter()
        .map(|t| {
            xxh64(
                chaos::fingerprint(&chaos::run_seed(t, 1))
                    .join("\n")
                    .as_bytes(),
            )
        })
        .collect();
    // catalyst, baseline, rdr-proxy.
    assert_eq!(
        fingerprints,
        [
            0x135c_a216_e7ad_444c,
            0x015a_8e8f_1197_9abb,
            0x9e0d_12de_2ea4_e605
        ],
        "{fingerprints:#018x?}"
    );
}

mod fleet {
    //! The population-scale tier must be deterministic end to end:
    //! trace bytes, replay counters, audits — all pure functions of
    //! `(seed, spec)`.

    use cachecatalyst_bench::fleet::{run_fleet, FleetOptions};
    use cachecatalyst_bench::ClientKind;
    use cachecatalyst_webmodel::workload::{generate, Trace, WorkloadSpec};

    pub fn spec(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            users: 150,
            sites: 10,
            horizon_secs: 7_200,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_serialized_trace() {
        let a = generate(&spec(42)).to_jsonl();
        let b = generate(&spec(42)).to_jsonl();
        assert_eq!(a, b, "serialized traces differ across runs");
        // And the round trip through the parser is lossless.
        let parsed = Trace::from_jsonl(&a).unwrap();
        assert_eq!(parsed.to_jsonl(), a);
    }

    #[test]
    fn different_seeds_give_different_traces() {
        // Non-vacuity: the byte-identity test above must not be
        // passing because everything collapses to one trace.
        let a = generate(&spec(42)).to_jsonl();
        let b = generate(&spec(43)).to_jsonl();
        assert_ne!(a, b);
    }

    #[test]
    fn fleet_counters_are_identical_across_two_full_runs() {
        let trace = generate(&spec(42));
        for kind in [ClientKind::Baseline, ClientKind::Catalyst] {
            let opts = FleetOptions {
                kind,
                collect_audits: true,
                ..Default::default()
            };
            let a = run_fleet(&trace, &opts);
            let b = run_fleet(&trace, &opts);
            // FleetReport is PartialEq over every counter, the full
            // PLT histogram bucket vector, and the audit sequences.
            assert_eq!(a, b, "{kind:?} replay not deterministic");
            assert!(a.visits > 0 && a.edge.requests > 0);
        }
    }
}

#[test]
fn site_bodies_and_etags_are_stable_functions_of_time() {
    let site = example_site();
    for t in [0i64, 3599, 3600, 7200, 86_400] {
        assert_eq!(site.body_at("/a.css", t), site.body_at("/a.css", t));
        assert_eq!(site.etag_at("/a.css", t), site.etag_at("/a.css", t));
    }
    // ETag changes exactly when the body changes.
    let site = example_site();
    let b0 = site.body_at("/d.jpg", 0).unwrap();
    let b1 = site.body_at("/d.jpg", 5_999).unwrap();
    let b2 = site.body_at("/d.jpg", 6_000).unwrap();
    assert_eq!(b0, b1);
    assert_ne!(b1, b2);
    assert_eq!(site.etag_at("/d.jpg", 0), site.etag_at("/d.jpg", 5_999));
    assert_ne!(site.etag_at("/d.jpg", 0), site.etag_at("/d.jpg", 6_000));
}
