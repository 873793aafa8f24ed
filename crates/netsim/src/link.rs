//! A fluid, egalitarian processor-sharing link.
//!
//! Concurrent transfers share the link capacity equally — the standard
//! fluid approximation of TCP flows sharing a bottleneck, and the same
//! model browser throttles implement. The implementation uses the
//! *virtual service* formulation: the link maintains `s(t)`, the
//! cumulative per-flow service (in bits) any flow active since link
//! start would have received; a flow of `b` bits arriving when service
//! is `s_a` completes when `s(t) = s_a + b`. This avoids per-flow
//! decrement drift and makes the next completion O(#flows) to find.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::time::SimTime;

/// A shared link carrying fluid flows, each tagged with the caller's
/// event `E`.
#[derive(Debug, Clone)]
pub struct FluidLink<E> {
    capacity_bps: f64,
    /// Cumulative per-flow service in bits, as of `last_update`.
    service: f64,
    last_update: SimTime,
    /// Start order → (service level at which the flow completes, its
    /// event). Equal targets finish in start order.
    flows: BTreeMap<u64, (f64, E)>,
    started: u64,
}

impl<E> FluidLink<E> {
    /// Creates a link with the given capacity in bits per second.
    pub fn new(capacity_bps: u64) -> FluidLink<E> {
        assert!(capacity_bps > 0, "link capacity must be positive");
        FluidLink {
            capacity_bps: capacity_bps as f64,
            service: 0.0,
            last_update: SimTime::ZERO,
            flows: BTreeMap::new(),
            started: 0,
        }
    }

    /// Advances internal state to `now`.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "time went backwards");
        let n = self.flows.len();
        if n > 0 {
            let dt = (now - self.last_update).as_secs_f64();
            self.service += dt * self.capacity_bps / n as f64;
        }
        self.last_update = now;
    }

    /// Starts a flow of `bytes` at `now` that hands back `event` when
    /// it completes. An empty flow completes at once and is not
    /// registered: its event comes straight back.
    pub fn start_flow(&mut self, now: SimTime, bytes: u64, event: E) -> Option<E> {
        self.advance(now);
        if bytes == 0 {
            return Some(event);
        }
        let target = self.service + bytes as f64 * 8.0;
        self.flows.insert(self.started, (target, event));
        self.started += 1;
        None
    }

    /// The start order and target of the flow that completes first.
    fn first(&self) -> Option<(u64, f64)> {
        self.flows
            .iter()
            .map(|(&order, &(target, _))| (order, target))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// When the earliest active flow completes.
    pub fn next_completion(&self) -> Option<SimTime> {
        let (_, target) = self.first()?;
        let remaining_bits = (target - self.service).max(0.0);
        let secs = remaining_bits * self.flows.len() as f64 / self.capacity_bps;
        let nanos = (secs * 1e9).ceil() as u64;
        Some(self.last_update + Duration::from_nanos(nanos))
    }

    /// Ends, at `now`, the flow [`FluidLink::next_completion`] names
    /// and returns its event.
    ///
    /// # Panics
    /// Panics when no flow is active.
    pub fn end_flow(&mut self, now: SimTime) -> E {
        self.advance(now);
        let (order, _) = self.first().expect("no active flow to end");
        self.flows.remove(&order).expect("first flow is active").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MBPS: u64 = 1_000_000;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn single_flow_takes_size_over_capacity() {
        let mut link = FluidLink::new(8 * MBPS); // 1 MB/s
        link.start_flow(SimTime::ZERO, 500_000, "a"); // 0.5 MB
        let t = link.next_completion().unwrap();
        assert_eq!(t, SimTime::from_millis(500));
        assert_eq!(link.end_flow(t), "a");
        assert!(link.next_completion().is_none());
    }

    #[test]
    fn two_equal_flows_halve_throughput() {
        let mut link = FluidLink::new(8 * MBPS);
        link.start_flow(SimTime::ZERO, 500_000, "first");
        link.start_flow(SimTime::ZERO, 500_000, "second");
        let t = link.next_completion().unwrap();
        // Both need 0.5s alone; sharing → 1s. Ties break by start order.
        assert_eq!(t, SimTime::from_secs(1));
        assert_eq!(link.end_flow(t), "first");
        // Remaining flow finishes immediately after (it had equal target).
        let t2 = link.next_completion().unwrap();
        assert!(t2 >= t && t2 - t < std::time::Duration::from_micros(1));
        assert_eq!(link.end_flow(t2), "second");
    }

    #[test]
    fn late_arrival_shares_fairly() {
        // Flow A: 1 MB at t=0 on a 1 MB/s link. Flow B: 0.25 MB at t=0.5s.
        // A runs alone 0.5s (0.5 MB done), then shares: each gets 0.5 MB/s.
        // B finishes at 0.5 + 0.25/0.5 = 1.0s. A then has 0.25 MB left,
        // alone again: done at 1.25s.
        let mut link = FluidLink::new(8 * MBPS);
        link.start_flow(SimTime::ZERO, 1_000_000, 'A');
        link.start_flow(ms(500), 250_000, 'B');
        let t = link.next_completion().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
        assert_eq!(link.end_flow(t), 'B');
        let t = link.next_completion().unwrap();
        assert_eq!(t, SimTime::from_millis(1250));
        assert_eq!(link.end_flow(t), 'A');
    }

    #[test]
    fn an_empty_flow_hands_its_event_back() {
        let mut link = FluidLink::new(MBPS);
        assert_eq!(link.start_flow(SimTime::ZERO, 0, 7), Some(7));
        assert!(link.next_completion().is_none());
        assert_eq!(link.start_flow(SimTime::ZERO, 1, 8), None);
        assert!(link.next_completion().is_some());
    }

    #[test]
    fn conservation_of_bytes() {
        // Whatever the arrival pattern, total service equals capacity ×
        // busy time: finishing N flows of b bytes takes N·b·8/C seconds
        // when the link is never idle.
        let mut link = FluidLink::new(8 * MBPS);
        for i in 0..10 {
            link.start_flow(SimTime::ZERO, 100_000, i);
        }
        let mut last = SimTime::ZERO;
        for i in 0..10 {
            let t = link.next_completion().unwrap();
            assert!(t >= last);
            assert_eq!(link.end_flow(t), i);
            last = t;
        }
        // 1 MB total at 1 MB/s = 1 s (within rounding).
        let err = last.as_secs_f64() - 1.0;
        assert!(err.abs() < 1e-6, "total time {last}");
    }
}
