//! Order statistics over the benchmark's samples. Everything here is
//! exact (no interpolation, no buckets): the resolution problem this
//! benchmark inherits from `BENCH_fleet.json` came from reading tails
//! off a 12 %-wide histogram bucket.

/// One timed block of a workload: `ops` operations that took `wall_ns`
/// of wall clock and `cpu_ns` of this thread's on-CPU time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    pub ops: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

/// Sorts `values` ascending (NaN-free input).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// The median of `values`: the middle order statistic, or the mean of
/// the two middle ones. `0.0` for no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of ascending `sorted` as an exact order statistic
/// (nearest rank: the smallest sample with at least `q` of the mass at
/// or below it). `0.0` for no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of per-block throughput (ops ÷ wall seconds). A block a
/// noisy neighbour stalled moves one sample, not the result.
pub fn block_median_rate(blocks: &[Block]) -> f64 {
    let rates: Vec<f64> = blocks
        .iter()
        .filter(|b| b.wall_ns > 0)
        .map(|b| b.ops as f64 / (b.wall_ns as f64 / 1e9))
        .collect();
    median(&rates)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread rule the repeatability criterion uses (the
/// method of Python's `statistics.quantiles(values, n=4)`). `0.0` with
/// fewer than two samples.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let quartile = |k: usize| {
        // Exclusive method: position k(n+1)/4 on a 1-based axis,
        // clamped to the sample range, linearly interpolated.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        0.0
    } else {
        ((quartile(3) - quartile(1)) / mid).abs()
    }
}

/// Splits `len` items into `parts` contiguous ranges whose sizes
/// differ by at most one (fewer ranges when `len < parts`).
pub fn equal_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.min(len).max(1);
    (0..parts)
        .map(|i| (i * len / parts)..((i + 1) * len / parts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_an_order_statistic() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 0.999), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn block_median_ignores_one_stalled_block() {
        let fast = Block {
            ops: 1000,
            wall_ns: 1_000_000,
            cpu_ns: 0,
        };
        let stalled = Block {
            wall_ns: 50_000_000,
            ..fast
        };
        let rate = block_median_rate(&[fast, fast, stalled, fast, fast]);
        assert_eq!(rate, 1_000_000.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn equal_ranges_cover_everything_once() {
        let ranges = equal_ranges(103, 10);
        assert_eq!(ranges.len(), 10);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[9].end, 103);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        assert_eq!(equal_ranges(3, 10).len(), 3);
    }
}
