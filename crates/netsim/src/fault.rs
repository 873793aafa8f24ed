//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a small, seeded description of *how hostile* the
//! network should be; [`FaultPlan::schedule`] expands it into a
//! [`FaultSchedule`] — a deterministic stream of per-request fault
//! draws. The same plan always produces the same schedule, so any
//! failure found under a plan replays byte-for-byte: re-run the same
//! seed and every reset, truncation, stall, loss burst, config
//! corruption and 5xx lands on exactly the same request attempt.
//!
//! The schedule is transport-agnostic: the simulated engine
//! (`browser::engine`), the live TCP server (`origin::tcp`) and the
//! proxy layer all consume the same draws, which is what lets the
//! invariant harness compare a faulted load against an un-faulted
//! reference at the same virtual time.

use std::sync::{Arc, Mutex};

/// One injected fault, applied to a single request attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The connection ends after `fraction` of the response has been
    /// transferred (a reset or a truncating close: the client cannot
    /// tell them apart). The client sees a mid-body error and must
    /// retry on a fresh connection; the partial bytes are wasted.
    ResetMidBody {
        /// Fraction of the response transferred before the end, in
        /// `(0, 1)`.
        fraction: f64,
    },
    /// The server accepts the request and then never answers. Only a
    /// client-side timeout recovers from this one.
    Stall,
    /// The response is delayed by `ms` milliseconds before the first
    /// byte (head-of-line blocking, a busy upstream, a slow start, …).
    /// Bounded well below any sane fetch timeout so it degrades
    /// latency, not correctness.
    Delay {
        /// Added first-byte delay in milliseconds.
        ms: u64,
    },
    /// A burst of consecutive packet losses on the request path: each
    /// timeout costs the client a retransmission round trip.
    LossBurst {
        /// Number of consecutive retransmission timeouts.
        timeouts: u32,
    },
    /// One entry of the `X-Etag-Config` map is corrupted in transit
    /// (bit-flipped etag). The integrity digest still describes the
    /// original map, so clients can detect the tampering and fall
    /// back to conditional fetches instead of trusting bad state.
    CorruptConfigEntry {
        /// Deterministic salt selecting which entry is corrupted and
        /// what the bogus etag looks like.
        salt: u64,
    },
    /// Two entries of the `X-Etag-Config` map swap etags: every entry
    /// still *looks* plausible, but the map is stale/wrong. Detected
    /// the same way as corruption (digest mismatch).
    StaleConfigEntry,
    /// The origin answers with a server error instead of the resource.
    ServerError {
        /// The injected status code (500, 502 or 503).
        status: u16,
    },
}

/// A seeded description of a fault campaign. `Plan` is the replay
/// artifact: persisting `(seed, fault_rate, max_consecutive)` is
/// enough to reproduce every injected fault bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the deterministic draw stream.
    pub seed: u64,
    /// Probability that any given request attempt draws a fault.
    pub fault_rate: f64,
    /// Hard cap on consecutive faulted attempts of the *same* request:
    /// attempt numbers at or beyond this are never faulted, so a
    /// client retrying more than `max_consecutive` times always
    /// completes. This is what makes the "every completed load serves
    /// correct bytes" oracle checkable — progress is guaranteed.
    pub max_consecutive: u32,
}

impl FaultPlan {
    /// A plan with the default hostility: a quarter of first attempts
    /// fault, and no request faults more than twice in a row.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            fault_rate: 0.25,
            max_consecutive: 2,
        }
    }

    /// Overrides the per-attempt fault probability (clamped to
    /// `[0, 1]`).
    pub fn with_fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Overrides the consecutive-fault cap.
    pub fn with_max_consecutive(mut self, max: u32) -> Self {
        self.max_consecutive = max;
        self
    }

    /// Expands the plan into its deterministic draw stream.
    pub fn schedule(&self) -> FaultSchedule {
        FaultSchedule {
            plan: *self,
            state: self.seed | 1,
        }
    }
}

/// The deterministic per-request draw stream of a [`FaultPlan`].
///
/// Call [`FaultSchedule::draw`] once per request *attempt*; the result
/// is `None` (no fault — proceed normally) or the fault to apply. The
/// stream is a pure function of the plan and the call sequence, so a
/// consumer that issues the same requests in the same order sees the
/// same faults every run.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    plan: FaultPlan,
    state: u64,
}

impl FaultSchedule {
    /// xorshift64* step: the engine's loss and jitter streams'
    /// xorshift64 shifts, then a multiply that scrambles the output.
    /// Chosen for determinism without external dependencies.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[0, n)`.
    fn next_below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Draws the fault (if any) for one request attempt. `attempt` is
    /// zero-based: `0` is the first try, `1` the first retry, and so
    /// on. Attempts at or beyond the plan's `max_consecutive` cap are
    /// never faulted — but still consume draws, so the stream stays
    /// aligned across replays regardless of how a consumer reacts.
    pub fn draw(&mut self, attempt: u32) -> Option<Fault> {
        let roll = self.next_f64();
        let which = self.next_below(9);
        let magnitude = self.next_u64();
        if attempt >= self.plan.max_consecutive || roll >= self.plan.fault_rate {
            return None;
        }
        let fraction = 0.1 + 0.8 * ((magnitude >> 11) as f64 / (1u64 << 53) as f64);
        // Nine arms over seven faults (the body cut and the delay each
        // have two), so that every seed keeps the schedule it names.
        Some(match which {
            0 | 1 => Fault::ResetMidBody { fraction },
            2 => Fault::Stall,
            3 => Fault::Delay {
                ms: 20 + magnitude % 180,
            },
            4 => Fault::LossBurst {
                timeouts: 1 + (magnitude % 3) as u32,
            },
            5 => Fault::CorruptConfigEntry { salt: magnitude },
            6 => Fault::StaleConfigEntry,
            7 => Fault::ServerError {
                status: [500, 502, 503][(magnitude % 3) as usize],
            },
            _ => Fault::Delay {
                ms: 30 + magnitude % 270,
            },
        })
    }
}

/// One seeded [`FaultSchedule`] shared by everything that serves
/// through it — every connection of a TCP origin, every request
/// through a chaos decorator: one draw per request, with a progress
/// guarantee. After `max_consecutive` faulted requests in a row
/// (whoever sent them), the next request is served clean, whatever
/// the clients' retry pattern looks like.
#[derive(Debug)]
pub struct ServerFaults {
    /// `(schedule, consecutive faults)`.
    state: Mutex<(FaultSchedule, u32)>,
}

impl ServerFaults {
    /// Fresh shared fault state from a seeded plan.
    pub fn new(plan: FaultPlan) -> Arc<ServerFaults> {
        Arc::new(ServerFaults {
            state: Mutex::new((plan.schedule(), 0)),
        })
    }

    /// Draws the fault (if any) for the next request served.
    pub fn draw(&self) -> Option<Fault> {
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (schedule, consecutive) = &mut *guard;
        let fault = schedule.draw(*consecutive);
        *consecutive = if fault.is_some() { *consecutive + 1 } else { 0 };
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_plan_replays_identically() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let plan = FaultPlan::new(seed).with_fault_rate(0.9);
            let mut a = plan.schedule();
            let mut b = plan.schedule();
            for attempt in 0..500u32 {
                assert_eq!(a.draw(attempt % 3), b.draw(attempt % 3), "seed {seed}");
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::new(7).with_fault_rate(1.0).schedule();
        let mut b = FaultPlan::new(8).with_fault_rate(1.0).schedule();
        let draws_a: Vec<_> = (0..64).map(|_| a.draw(0)).collect();
        let draws_b: Vec<_> = (0..64).map(|_| b.draw(0)).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn attempts_beyond_cap_are_never_faulted() {
        let mut s = FaultPlan::new(3)
            .with_fault_rate(1.0)
            .with_max_consecutive(2)
            .schedule();
        for _ in 0..200 {
            assert!(s.draw(0).is_some());
            assert!(s.draw(1).is_some());
            assert!(s.draw(2).is_none());
            assert!(s.draw(7).is_none());
        }
    }

    #[test]
    fn capped_attempts_still_consume_draws() {
        // A consumer that gives up early and one that retries past the
        // cap must stay stream-aligned: the draw at call N is the same
        // regardless of the attempt numbers passed before it.
        let plan = FaultPlan::new(99).with_fault_rate(0.5);
        let mut a = plan.schedule();
        let mut b = plan.schedule();
        for i in 0..100u32 {
            a.draw(0);
            b.draw(5); // capped: returns None, but consumes the draw
            if i % 10 == 9 {
                assert_eq!(a.state, b.state);
            }
        }
    }

    #[test]
    fn fault_rate_zero_never_faults_and_one_always_faults() {
        let mut never = FaultPlan::new(5).with_fault_rate(0.0).schedule();
        let mut always = FaultPlan::new(5).with_fault_rate(1.0).schedule();
        for _ in 0..300 {
            assert_eq!(never.draw(0), None);
            assert!(always.draw(0).is_some());
        }
    }

    #[test]
    fn draw_magnitudes_stay_in_documented_bounds() {
        let mut s = FaultPlan::new(1234).with_fault_rate(1.0).schedule();
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..2000 {
            let f = s.draw(0).unwrap();
            kinds.insert(std::mem::discriminant(&f));
            match f {
                Fault::ResetMidBody { fraction } => {
                    assert!((0.1..0.9).contains(&fraction), "{fraction}");
                }
                Fault::Delay { ms } => assert!((20..300).contains(&ms)),
                Fault::LossBurst { timeouts } => assert!((1..=3).contains(&timeouts)),
                Fault::ServerError { status } => {
                    assert!([500, 502, 503].contains(&status));
                }
                Fault::Stall | Fault::CorruptConfigEntry { .. } | Fault::StaleConfigEntry => {}
            }
        }
        // The generator exercises the whole fault vocabulary.
        assert_eq!(kinds.len(), 7, "{kinds:?}");
    }
}
