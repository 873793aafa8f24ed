//! # cachecatalyst-netsim
//!
//! A deterministic discrete-event network simulator, standing in for
//! the browser throttling the paper's evaluation used (Chrome DevTools
//! network emulation): a configurable round-trip time plus downstream/
//! upstream bandwidth caps on the access link.
//!
//! * [`time`] — virtual clock ([`SimTime`]) and transmission-time math.
//! * [`queue`] — deterministic time-ordered event queue.
//! * [`sched`] — virtual-clock scheduling of arrival processes on top
//!   of the queue (fleet replay advances through idle gaps instantly).
//! * [`link`] — fluid, egalitarian processor-sharing link: concurrent
//!   transfers share capacity the way parallel browser connections do.
//! * [`network`] — the engine combining clock, timers and links;
//!   page-load drivers schedule their own events on it and get each
//!   one back when it falls due.
//! * [`conditions`] — the latency × throughput grid of the evaluation
//!   (Figure 3) and the 5G-median headline condition.
//! * [`fault`] — seeded, replayable fault plans (resets, truncation,
//!   stalls, loss bursts, config corruption, origin errors) consumed
//!   by the page-load drivers and the chaos harness.
//! * [`trace`] — waterfall traces (Figure-1-style timelines).
//! * [`emu`] (feature `aio`) — wall-clock emulation of the same link
//!   model over tokio byte streams, for end-to-end runs.
//!
//! Everything is deterministic: same inputs, same event order, same
//! timings — down to the nanosecond.

pub mod conditions;
pub mod fault;
pub mod link;
pub mod network;
pub mod queue;
pub mod sched;
pub mod time;
pub mod trace;

#[cfg(feature = "aio")]
pub mod emu;

pub use conditions::NetworkConditions;
pub use fault::{Fault, FaultPlan, FaultSchedule};
pub use link::FluidLink;
pub use network::{LinkId, Network};
pub use queue::EventQueue;
pub use sched::VirtualSchedule;
pub use time::{transmission_time, SimTime};
pub use trace::{FetchOutcome, FetchTrace, LoadTrace};
