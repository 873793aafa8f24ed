//! Lock-free metric primitives: counters, gauges, and fixed-bucket
//! histograms with percentile summaries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `total` when it is below it: how a series
    /// that mirrors a total kept elsewhere follows it. One `fetch_max`,
    /// so it never decreases, repeating it changes nothing, and racing
    /// callers end at the largest total any of them saw.
    pub fn advance_to(&self, total: u64) {
        self.value.fetch_max(total, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (f64 bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram over fixed, ascending upper bounds (in seconds), plus
/// an implicit `+Inf` overflow bucket. Observation is a single
/// relaxed fetch-add per bucket — safe to share across threads with
/// no locking. Counts are per-bucket (not cumulative); rendering and
/// quantile estimation cumulate on read.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// `bounds` must be ascending, positive upper bounds in seconds.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        assert!(bounds[0] > 0.0, "histogram bounds must be positive");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Default request-latency bounds: 100µs to 10s, roughly
    /// logarithmic — wide enough for both sub-millisecond sans-IO
    /// handling and multi-second simulated page loads.
    pub fn latency() -> Histogram {
        Histogram::new(&[
            0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
            2.5, 5.0, 10.0,
        ])
    }

    pub fn observe(&self, d: Duration) {
        self.observe_secs(d.as_secs_f64());
    }

    pub fn observe_secs(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let nanos = (v.max(0.0) * 1e9) as u64;
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts including the `+Inf` overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimates the `q`-quantile (0 < q ≤ 1) in seconds by linear
    /// interpolation inside the containing bucket. Values in the
    /// overflow bucket report the largest finite bound. Returns 0 for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if cum >= rank {
                if i >= self.bounds.len() {
                    return *self.bounds.last().expect("non-empty bounds");
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let within = (rank - prev) as f64 / c.max(1) as f64;
                return lo + (hi - lo) * within;
            }
        }
        *self.bounds.last().expect("non-empty bounds")
    }

    /// The (p50, p90, p99) summary.
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn advance_to_is_monotone_and_idempotent() {
        let c = Counter::new();
        c.advance_to(7);
        c.advance_to(7);
        assert_eq!(c.get(), 7);
        c.advance_to(3);
        assert_eq!(c.get(), 7, "never decreases");
        c.advance_to(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn racing_advances_end_at_the_largest_total() {
        const N: u64 = 10_000;
        let c = Counter::new();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    for total in 1..=N {
                        c.advance_to(total);
                    }
                });
            }
        });
        assert_eq!(c.get(), N);
    }

    #[test]
    fn gauge_sets() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(3.25);
        assert_eq!(g.get(), 3.25);
    }

    #[test]
    fn bucket_boundaries_are_upper_inclusive() {
        let h = Histogram::new(&[0.01, 0.1, 1.0]);
        h.observe_secs(0.01); // exactly on the first bound → bucket 0
        h.observe_secs(0.010001); // just past it → bucket 1
        h.observe_secs(0.5); // → bucket 2
        h.observe_secs(2.0); // overflow
        assert_eq!(h.bucket_counts(), vec![1, 1, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum_secs() - 2.520001).abs() < 1e-6);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(&[0.1, 0.2, 0.4]);
        // 10 observations, all in (0.1, 0.2]: the quantile curve spans
        // that bucket linearly.
        for _ in 0..10 {
            h.observe_secs(0.15);
        }
        let p50 = h.quantile(0.5);
        assert!((0.1..=0.2).contains(&p50), "p50 {p50}");
        assert!(h.quantile(0.99) > p50);
        // An empty histogram reports zero.
        assert_eq!(Histogram::latency().quantile(0.5), 0.0);
    }

    #[test]
    fn percentile_ordering_on_spread_data() {
        let h = Histogram::latency();
        // 100 observations spread 1ms..100ms.
        for i in 1..=100u64 {
            h.observe_secs(i as f64 / 1000.0);
        }
        let (p50, p90, p99) = h.percentiles();
        assert!(p50 < p90 && p90 <= p99, "{p50} {p90} {p99}");
        // p50 of a uniform 1..100ms spread sits near 50ms.
        assert!((0.025..=0.1).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn overflow_quantile_reports_last_bound() {
        let h = Histogram::new(&[0.1, 1.0]);
        for _ in 0..5 {
            h.observe_secs(50.0);
        }
        assert_eq!(h.quantile(0.5), 1.0);
    }

    #[test]
    #[should_panic]
    fn unsorted_bounds_rejected() {
        Histogram::new(&[0.2, 0.1]);
    }

    #[test]
    fn concurrent_observations_all_land() {
        let h = std::sync::Arc::new(Histogram::latency());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = std::sync::Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    h.observe_secs(0.002);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }
}
