//! Property-based tests for the fluid-link simulator: conservation,
//! fairness and determinism invariants that must hold for any arrival
//! pattern.

use std::time::Duration;

use cachecatalyst_netsim::{FluidLink, Network, SimTime};
use proptest::prelude::*;

fn arb_flows() -> impl Strategy<Value = Vec<(u64, u64)>> {
    // (start offset ms, size bytes)
    prop::collection::vec((0u64..2_000, 1u64..200_000), 1..24)
}

/// The driver's own event, handed back by the network. Deliberately
/// not `Copy`: the network moves it in and out, never duplicates it.
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    /// Flow `i` arrives and starts.
    Arrive(usize),
    /// Flow `i` delivered its last byte.
    Done(usize),
}

/// Runs `flows` through one link, each started by a timer at its
/// offset, and returns `(flow, completion)` in completion order.
fn replay(flows: &[(u64, u64)], capacity: u64) -> Vec<(usize, SimTime)> {
    let mut network = Network::new();
    let l = network.add_link(capacity);
    for (i, &(off, _)) in flows.iter().enumerate() {
        network.set_timer(Duration::from_millis(off), Ev::Arrive(i));
    }
    let mut log = Vec::new();
    while let Some((t, ev)) = network.next() {
        match ev {
            Ev::Arrive(i) => network.start_flow(l, flows[i].1, Ev::Done(i)),
            Ev::Done(i) => log.push((i, t)),
        }
    }
    log
}

proptest! {
    /// Work conservation: with continuous backlog, finishing all flows
    /// takes exactly total_bytes / capacity (within rounding), no
    /// matter how arrivals interleave — the link never idles while
    /// work remains and never serves faster than capacity.
    #[test]
    fn work_conservation_with_backlog(sizes in prop::collection::vec(1u64..500_000, 1..16)) {
        let capacity = 8_000_000u64; // 1 MB/s
        let mut link = FluidLink::new(capacity);
        for (i, &s) in sizes.iter().enumerate() {
            link.start_flow(SimTime::ZERO, s, i);
        }
        let mut last = SimTime::ZERO;
        let mut remaining = sizes.len();
        while remaining > 0 {
            let t = link.next_completion().expect("flows remain");
            prop_assert!(t >= last);
            link.end_flow(t);
            last = t;
            remaining -= 1;
        }
        let total_bytes: u64 = sizes.iter().sum();
        let expect = total_bytes as f64 * 8.0 / capacity as f64;
        let got = last.as_secs_f64();
        prop_assert!((got - expect).abs() < 1e-3 * expect.max(1.0),
            "expected {expect}s, got {got}s");
    }

    /// No flow finishes faster than it would alone: sharing can only
    /// slow a transfer down. Every flow's event comes back exactly
    /// once.
    #[test]
    fn sharing_never_speeds_up(flows in arb_flows()) {
        let capacity = 8_000_000u64;
        let log = replay(&flows, capacity);
        prop_assert_eq!(log.len(), flows.len());
        let mut completions = vec![None; flows.len()];
        for (i, t) in log {
            prop_assert!(completions[i].replace(t).is_none(), "flow {} woke twice", i);
        }
        for (i, &(off, size)) in flows.iter().enumerate() {
            let done = completions[i].expect("every flow completes");
            let alone = cachecatalyst_netsim::transmission_time(size, capacity);
            let started = SimTime::ZERO + Duration::from_millis(off);
            prop_assert!(
                done + Duration::from_nanos(1) >= started + alone,
                "flow {i} finished faster than line rate: started {started}, done {done}, alone {alone:?}"
            );
        }
    }

    /// Determinism: replaying the same arrival pattern yields the
    /// exact same completion sequence.
    #[test]
    fn replay_is_identical(flows in arb_flows()) {
        prop_assert_eq!(replay(&flows, 5_000_000), replay(&flows, 5_000_000));
    }

    /// Equal flows starting together finish together (fairness), in
    /// start order.
    #[test]
    fn equal_flows_tie(n in 2usize..12, size in 1_000u64..100_000) {
        let log = replay(&vec![(0, size); n], 10_000_000);
        let order: Vec<usize> = log.iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>(), "ties break by start order");
        for pair in log.windows(2) {
            // All completions within a microsecond of each other.
            prop_assert!(pair[1].1.since(pair[0].1) < Duration::from_micros(1));
        }
    }
}
