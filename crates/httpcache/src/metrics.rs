//! Cache effectiveness counters.

/// Counters accumulated by an [`crate::HttpCache`] across lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups served directly from a fresh entry (zero network).
    pub fresh_hits: u64,
    /// Lookups that found a stale entry (revalidation required).
    pub stale_hits: u64,
    /// Responses stored.
    pub stores: u64,
    /// Stored entries refreshed by a 304.
    pub revalidation_refreshes: u64,
}

impl CacheMetrics {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.misses + self.fresh_hits + self.stale_hits
    }

    /// Difference between two snapshots (for per-page-load deltas).
    pub fn delta_since(&self, earlier: &CacheMetrics) -> CacheMetrics {
        CacheMetrics {
            misses: self.misses - earlier.misses,
            fresh_hits: self.fresh_hits - earlier.fresh_hits,
            stale_hits: self.stale_hits - earlier.stale_hits,
            stores: self.stores - earlier.stores,
            revalidation_refreshes: self.revalidation_refreshes - earlier.revalidation_refreshes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups() {
        let m = CacheMetrics {
            misses: 2,
            fresh_hits: 6,
            stale_hits: 2,
            ..Default::default()
        };
        assert_eq!(m.lookups(), 10);
    }

    #[test]
    fn delta() {
        let a = CacheMetrics {
            misses: 1,
            fresh_hits: 2,
            ..Default::default()
        };
        let b = CacheMetrics {
            misses: 4,
            fresh_hits: 7,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.misses, 3);
        assert_eq!(d.fresh_hits, 5);
    }
}
