//! Network conditions: the latency/throughput grid of the evaluation.

use std::time::Duration;

/// End-to-end network conditions between the client and an origin.
///
/// Mirrors browser throttling knobs: a round-trip time and asymmetric
/// downstream/upstream bandwidth caps on the access link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConditions {
    /// Full round-trip time (client → server → client).
    pub rtt: Duration,
    /// Downstream capacity of the access link, bits/second.
    pub down_bps: u64,
    /// Upstream capacity of the access link, bits/second.
    pub up_bps: u64,
}

impl NetworkConditions {
    /// Conditions with symmetric labeling conventions used throughout
    /// the evaluation: `throughput` is the downstream cap; upstream is
    /// a quarter of it (typical of access links), floored at 1 Mbps.
    pub fn new(rtt: Duration, down_bps: u64) -> NetworkConditions {
        NetworkConditions {
            rtt,
            down_bps,
            up_bps: (down_bps / 4).max(1_000_000),
        }
    }

    /// One-way latency (half the RTT).
    pub fn one_way(&self) -> Duration {
        self.rtt / 2
    }

    /// The paper's headline condition: the global 5G median of
    /// 60 Mbit/s downstream at 40 ms RTT (§4).
    pub fn five_g_median() -> NetworkConditions {
        NetworkConditions::new(Duration::from_millis(40), 60_000_000)
    }

    /// The throughput values swept in Figure 3 (bits/second).
    pub fn figure3_throughputs() -> Vec<u64> {
        vec![8_000_000, 20_000_000, 60_000_000]
    }

    /// The latency values swept in Figure 3.
    pub fn figure3_latencies() -> Vec<Duration> {
        [10u64, 20, 40, 80, 120]
            .into_iter()
            .map(Duration::from_millis)
            .collect()
    }

    /// The full Figure-3 grid, in (throughput, latency) row-major order.
    pub fn figure3_grid() -> Vec<NetworkConditions> {
        let mut grid = Vec::new();
        for bps in Self::figure3_throughputs() {
            for rtt in Self::figure3_latencies() {
                grid.push(NetworkConditions::new(rtt, bps));
            }
        }
        grid
    }

    /// Human-readable label like `60Mbps/40ms`.
    pub fn label(&self) -> String {
        format!(
            "{}Mbps/{}ms",
            self.down_bps / 1_000_000,
            self.rtt.as_millis()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_g_median_matches_paper() {
        let c = NetworkConditions::five_g_median();
        assert_eq!(c.down_bps, 60_000_000);
        assert_eq!(c.rtt, Duration::from_millis(40));
        assert_eq!(c.one_way(), Duration::from_millis(20));
        assert_eq!(c.label(), "60Mbps/40ms");
    }

    #[test]
    fn grid_has_full_cross_product() {
        let grid = NetworkConditions::figure3_grid();
        assert_eq!(grid.len(), 3 * 5);
        assert!(grid.contains(&NetworkConditions::new(
            Duration::from_millis(40),
            60_000_000
        )));
    }

    #[test]
    fn upstream_is_quarter_with_floor() {
        assert_eq!(
            NetworkConditions::new(Duration::from_millis(10), 60_000_000).up_bps,
            15_000_000
        );
        assert_eq!(
            NetworkConditions::new(Duration::from_millis(10), 2_000_000).up_bps,
            1_000_000
        );
    }
}
