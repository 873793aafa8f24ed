//! The DST-style fault-resilience invariant harness.
//!
//! Runs hundreds of seeded fault schedules across three topologies
//! (catalyst, baseline, RDR proxy) and checks the serve-correct-bytes
//! oracle on every one: the faulted revisit must deliver bodies
//! byte-identical (by XXH64 digest) to an un-faulted reference load
//! at the same virtual time, with a complete audit trail and no stale
//! zero-RTT serves. Any failing seed is written to
//! `results/chaos_failure.txt` together with the exact replay command.

use cachecatalyst::chaos::{self, Topology};

const SEEDS_PER_TOPOLOGY: u64 = 70;

/// On failure, persist the seed and replay instructions so the
/// schedule can be replayed outside the test harness.
fn record_failure(lines: &[String]) {
    let _ = std::fs::create_dir_all("results");
    let mut body = String::from(
        "# Chaos-harness failures. Replay a line's schedule with the\n\
         # command shown; the run is fully deterministic.\n",
    );
    for l in lines {
        body.push_str(l);
        body.push('\n');
    }
    let _ = std::fs::write("results/chaos_failure.txt", body);
}

#[test]
fn oracle_holds_across_the_seed_matrix() {
    // 3 topologies × 70 seeds = 210 seeded schedules.
    let mut failures: Vec<String> = Vec::new();
    let mut faults_total = 0u64;
    let mut retries_total = 0u64;
    let mut degraded_total = 0u64;
    for topology in Topology::ALL {
        for seed in 1..=SEEDS_PER_TOPOLOGY {
            let run = chaos::run_seed(topology, seed);
            faults_total += u64::from(run.faulted.faults_injected);
            retries_total += u64::from(run.faulted.retries);
            degraded_total += run.faulted.degraded as u64;
            if let Err(verdict) = chaos::check_oracle(&run) {
                failures.push(format!(
                    "{verdict}\n    replay: {}",
                    chaos::replay_command(topology, seed)
                ));
            }
        }
    }
    if !failures.is_empty() {
        record_failure(&failures);
        panic!(
            "{} of {} chaos runs violated the oracle (see results/chaos_failure.txt):\n{}",
            failures.len(),
            3 * SEEDS_PER_TOPOLOGY,
            failures.join("\n")
        );
    }
    // The matrix must actually exercise the machinery, not vacuously
    // pass because nothing fired.
    assert!(
        faults_total > 100,
        "only {faults_total} faults fired across the whole matrix"
    );
    assert!(retries_total > 0, "no schedule forced a retry");
    assert!(degraded_total > 0, "no schedule forced a degraded path");
}

#[test]
fn replaying_a_seed_reproduces_the_identical_event_sequence() {
    let mut fired = 0u32;
    for topology in Topology::ALL {
        let first = chaos::run_seed(topology, 17);
        let second = chaos::run_seed(topology, 17);
        assert_eq!(
            chaos::fingerprint(&first),
            chaos::fingerprint(&second),
            "{}: same seed must replay byte-for-byte",
            topology.label()
        );
        fired += first.faulted.faults_injected + first.faulted.retries;
    }
    // A warm revisit makes few network requests, so a single topology
    // can legitimately draw no fault at this seed — but across all
    // three the schedule must have fired somewhere, or the replay
    // check is vacuous.
    assert!(fired > 0, "seed 17 drew no faults in any topology");
}

#[test]
fn different_seeds_explore_different_schedules() {
    let a = chaos::fingerprint(&chaos::run_seed(Topology::Catalyst, 5));
    let diverged =
        (6..=10u64).any(|s| chaos::fingerprint(&chaos::run_seed(Topology::Catalyst, s)) != a);
    assert!(diverged, "five consecutive seeds produced identical runs");
}
