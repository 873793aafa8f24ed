//! The discrete-event network engine.
//!
//! [`Network`] owns virtual time, timers, and a set of fluid links.
//! A driver (the page-load engine) starts flows and timers carrying
//! its own events, then repeatedly calls [`Network::next`] to advance
//! the simulation and get back the event that fell due. All scheduling
//! is deterministic: ties resolve timers-before-flows, then the lower
//! link, then FIFO.

use std::time::Duration;

use crate::link::FluidLink;
use crate::queue::EventQueue;
use crate::time::SimTime;

/// Identifies a link within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(usize);

/// Deterministic discrete-event network: virtual clock + timers +
/// fluid links, handing back the caller's event `E` for each timer
/// that fires and each flow that delivers its last byte (transmission
/// only; propagation is the driver's timer).
///
/// ```
/// use cachecatalyst_netsim::Network;
/// use std::time::Duration;
///
/// let mut net = Network::new();
/// let link = net.add_link(8_000_000); // 1 MB/s
/// net.start_flow(link, 500_000, "download"); // 0.5 MB
/// net.set_timer(Duration::from_millis(100), "timer");
/// let events = net.drain();
/// assert_eq!(events[0].1, "timer");
/// assert_eq!(events[1].1, "download");
/// assert_eq!(events[1].0.as_millis_f64(), 500.0);
/// ```
#[derive(Debug)]
pub struct Network<E> {
    now: SimTime,
    links: Vec<FluidLink<E>>,
    timers: EventQueue<E>,
}

impl<E> Default for Network<E> {
    fn default() -> Self {
        Network {
            now: SimTime::ZERO,
            links: Vec::new(),
            timers: EventQueue::new(),
        }
    }
}

impl<E> Network<E> {
    pub fn new() -> Network<E> {
        Network::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adds a fluid link with the given capacity (bits/second).
    pub fn add_link(&mut self, capacity_bps: u64) -> LinkId {
        self.links.push(FluidLink::new(capacity_bps));
        LinkId(self.links.len() - 1)
    }

    /// Hands `event` back `after` the current time.
    pub fn set_timer(&mut self, after: Duration, event: E) {
        self.timers.push(self.now + after, event);
    }

    /// Starts a transfer of `bytes` on `link` that hands `event` back
    /// when its last byte is delivered. An empty transfer hands it
    /// back through a zero-delay timer, so the caller always gets
    /// exactly one wake-up.
    pub fn start_flow(&mut self, link: LinkId, bytes: u64, event: E) {
        if let Some(event) = self.links[link.0].start_flow(self.now, bytes, event) {
            self.set_timer(Duration::ZERO, event);
        }
    }

    /// Advances to the next event and returns it, or `None` when the
    /// simulation has quiesced.
    #[allow(clippy::should_implement_trait)] // deliberate: not an Iterator
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        // Earliest flow completion across the links (the lower link
        // wins a tie), against the earliest timer (which wins a tie).
        let mut flow: Option<(SimTime, usize)> = None;
        for (i, link) in self.links.iter().enumerate() {
            if let Some(t) = link.next_completion() {
                if flow.is_none_or(|(best, _)| t < best) {
                    flow = Some((t, i));
                }
            }
        }
        let timer = self.timers.peek_time();
        let (t, event) = match flow {
            Some((ft, link)) if timer.is_none_or(|tt| ft < tt) => {
                (ft, self.links[link].end_flow(ft))
            }
            _ => self.timers.pop()?,
        };
        self.now = t;
        Some((t, event))
    }

    /// Runs until quiescent, collecting events (testing helper).
    pub fn drain(&mut self) -> Vec<(SimTime, E)> {
        let mut out = Vec::new();
        while let Some(ev) = self.next() {
            out.push(ev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A caller event that is not `Copy`: the network moves it in and
    /// hands the same value back.
    fn ev(name: &str) -> String {
        name.to_owned()
    }

    fn names(events: &[(SimTime, String)]) -> Vec<&str> {
        events.iter().map(|(_, e)| e.as_str()).collect()
    }

    #[test]
    fn timers_fire_in_order() {
        let mut net = Network::new();
        net.set_timer(Duration::from_millis(20), ev("second"));
        net.set_timer(Duration::from_millis(10), ev("first"));
        assert_eq!(
            net.drain(),
            vec![
                (SimTime::from_millis(10), ev("first")),
                (SimTime::from_millis(20), ev("second")),
            ]
        );
    }

    #[test]
    fn flows_and_timers_interleave() {
        let mut net = Network::new();
        let down = net.add_link(8_000_000); // 1 MB/s
        net.start_flow(down, 100_000, ev("flow")); // done at 100 ms
        net.set_timer(Duration::from_millis(50), ev("timer"));
        assert_eq!(
            net.drain(),
            vec![
                (SimTime::from_millis(50), ev("timer")),
                (SimTime::from_millis(100), ev("flow")),
            ]
        );
    }

    #[test]
    fn timer_wins_ties() {
        let mut net = Network::new();
        let down = net.add_link(8_000_000);
        net.start_flow(down, 100_000, ev("flow")); // completes at 100ms
        net.set_timer(Duration::from_millis(100), ev("timer"));
        assert_eq!(names(&net.drain()), ["timer", "flow"]);
    }

    #[test]
    fn sharing_visible_through_engine() {
        let mut net = Network::new();
        let down = net.add_link(8_000_000); // 1 MB/s
        net.start_flow(down, 500_000, ev("a"));
        net.start_flow(down, 500_000, ev("b"));
        let evs = net.drain();
        // Both ~1s (shared), not 0.5s.
        assert_eq!(evs.len(), 2);
        assert!(evs[0].0 >= SimTime::from_millis(999));
    }

    #[test]
    fn equal_flows_finish_in_start_order() {
        let mut net = Network::new();
        let down = net.add_link(8_000_000);
        for name in ["c", "a", "d", "b"] {
            net.start_flow(down, 250_000, ev(name));
        }
        assert_eq!(names(&net.drain()), ["c", "a", "d", "b"]);
    }

    #[test]
    fn an_empty_flow_wakes_its_caller_once_at_now() {
        let mut net = Network::new();
        let down = net.add_link(1_000_000);
        net.set_timer(Duration::from_millis(5), ev("tick"));
        assert_eq!(net.next(), Some((SimTime::from_millis(5), ev("tick"))));
        net.start_flow(down, 0, ev("empty"));
        assert_eq!(net.drain(), vec![(SimTime::from_millis(5), ev("empty"))]);
    }

    #[test]
    fn time_is_monotonic() {
        let mut net = Network::new();
        let l = net.add_link(1_000_000);
        net.set_timer(Duration::from_millis(5), ev("a"));
        net.start_flow(l, 10_000, ev("b"));
        net.set_timer(Duration::from_millis(500), ev("c"));
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = net.next() {
            assert!(t >= last);
            last = t;
            assert_eq!(net.now(), t);
        }
    }
}
