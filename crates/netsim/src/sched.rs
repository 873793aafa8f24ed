//! Virtual-time scheduling of arrival processes.
//!
//! [`VirtualSchedule`] wraps [`EventQueue`] with a monotone virtual
//! clock: events pop in `(time, insertion)` order and the clock jumps
//! to each event's timestamp as it is delivered. Fleet-scale drivers
//! use it to replay hundreds of thousands of user arrivals in
//! microseconds of wall time — the simulation advances instantly
//! through idle gaps instead of sleeping through them.
//!
//! Scheduling strictly in the past panics: an arrival process that
//! travels backwards in time is a bug in the generator, not a state
//! the simulator should paper over.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// A monotone virtual clock over a deterministic event queue.
#[derive(Debug)]
pub struct VirtualSchedule<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for VirtualSchedule<E> {
    fn default() -> Self {
        VirtualSchedule {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }
}

impl<E> VirtualSchedule<E> {
    /// An empty schedule with the clock at zero.
    pub fn new() -> VirtualSchedule<E> {
        VirtualSchedule::default()
    }

    /// The current virtual time: the timestamp of the most recently
    /// delivered event (zero before the first delivery).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at `at`. Panics if `at` is before [`now`]:
    /// the virtual clock never runs backwards.
    ///
    /// [`now`]: VirtualSchedule::now
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling in the past: {at:?} < {:?}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Delivers the earliest event, advancing the clock to its
    /// timestamp. Same-time events arrive in insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        self.now = t;
        Some((t, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_through_events() {
        let mut s = VirtualSchedule::new();
        s.schedule(SimTime::from_secs(10), "late");
        s.schedule(SimTime::from_millis(5), "early");
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.pop(), Some((SimTime::from_millis(5), "early")));
        assert_eq!(s.now(), SimTime::from_millis(5));
        assert_eq!(s.pop(), Some((SimTime::from_secs(10), "late")));
        assert_eq!(s.now(), SimTime::from_secs(10));
        assert!(s.pop().is_none());
    }

    #[test]
    fn same_time_events_keep_insertion_order() {
        let mut s = VirtualSchedule::new();
        let t = SimTime::from_secs(1);
        for i in 0..50 {
            s.schedule(t, i);
        }
        for i in 0..50 {
            assert_eq!(s.pop(), Some((t, i)));
        }
    }

    #[test]
    fn can_schedule_at_now_while_draining() {
        let mut s = VirtualSchedule::new();
        s.schedule(SimTime::from_secs(2), 0u32);
        let (t, _) = s.pop().unwrap();
        s.schedule(t, 1); // follow-up at the same instant is legal
        assert_eq!(s.pop(), Some((t, 1)));
    }

    #[test]
    #[should_panic(expected = "scheduling in the past")]
    fn scheduling_in_the_past_panics() {
        let mut s = VirtualSchedule::new();
        s.schedule(SimTime::from_secs(5), ());
        s.pop();
        s.schedule(SimTime::from_secs(1), ());
    }
}
