//! Aggregate capture: the learned map, which covers the resources
//! static extraction cannot see.
//!
//! The paper's §3 captures the URLs a session requests on its first
//! visit and maps them on its later visits; §6 flags that store's
//! memory, which grows with the visitor count. This module aggregates
//! instead: one popularity counter per (page, path), so memory is
//! `O(pages × resources)` regardless of traffic. A path enters the
//! page's map once at least a tenth (`MIN_SHARE`) of observed visits
//! requested it — filtering out user-specific one-off fetches while
//! covering the JS-discovered resources everyone loads. After a single
//! visit every path it requested is mapped, as a per-session list
//! would map it.
//!
//! Mapping a resource a particular client never cached is harmless
//! (the service worker forwards on a cache miss), so over-coverage
//! costs only header bytes; the share threshold bounds that.

use std::collections::HashMap;

use cachecatalyst_httpwire::EntityTag;

use crate::config::EtagConfig;

/// Minimum fraction of a page's visits that must have requested a path
/// for it to be mapped.
const MIN_SHARE: f64 = 0.1;

/// Popularity-aggregated capture across all sessions.
#[derive(Debug, Default)]
pub struct AggregateCapture {
    /// page → (path → number of visits that requested it).
    counts: HashMap<String, HashMap<String, u64>>,
    /// page → number of observed visits (navigations).
    visits: HashMap<String, u64>,
}

impl AggregateCapture {
    /// Records a visit (navigation) to `page`.
    pub fn record_visit(&mut self, page: &str) {
        *self.visits.entry(page.to_owned()).or_insert(0) += 1;
    }

    /// Records that some visit to `page` requested `path`.
    pub fn record(&mut self, page: &str, path: &str) {
        if path == page {
            return;
        }
        *self
            .counts
            .entry(page.to_owned())
            .or_default()
            .entry(path.to_owned())
            .or_insert(0) += 1;
    }

    /// Number of visits observed for `page`.
    pub fn visits(&self, page: &str) -> u64 {
        self.visits.get(page).copied().unwrap_or(0)
    }

    /// Builds a config from the popular paths of `page`.
    pub fn config_for(
        &self,
        page: &str,
        etag_of: &dyn Fn(&str) -> Option<EntityTag>,
    ) -> EtagConfig {
        let mut config = EtagConfig::new();
        let visits = self.visits(page);
        if visits == 0 {
            return config;
        }
        let threshold = (visits as f64 * MIN_SHARE).max(1.0);
        if let Some(paths) = self.counts.get(page) {
            // BTree ordering for determinism.
            let mut sorted: Vec<_> = paths.iter().collect();
            sorted.sort();
            for (path, &hits) in sorted {
                if hits as f64 >= threshold {
                    if let Some(tag) = etag_of(path) {
                        config.insert(path, tag);
                    }
                }
            }
        }
        config
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_footprint(&self) -> usize {
        let counters: usize = self
            .counts
            .iter()
            .map(|(page, paths)| {
                page.len() + paths.keys().map(|p| p.len() + 16).sum::<usize>() + 64
            })
            .sum();
        counters + self.visits.len() * 48
    }

    /// Number of (page, path) counters held.
    pub fn len(&self) -> usize {
        self.counts.values().map(HashMap::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(s: &str) -> EntityTag {
        EntityTag::strong(s).unwrap()
    }

    #[test]
    fn popular_paths_enter_the_map() {
        let mut agg = AggregateCapture::default();
        for i in 0..20 {
            agg.record_visit("/p");
            agg.record("/p", "/everyone.js");
            if i < 2 {
                agg.record("/p", "/tenth.js"); // 10%: at the share
            }
            if i < 1 {
                agg.record("/p", "/rare.js"); // 5% < 10% share
            }
        }
        let config = agg.config_for("/p", &|_| Some(tag("t")));
        assert!(config.get("/everyone.js").is_some());
        assert!(config.get("/tenth.js").is_some());
        assert!(config.get("/rare.js").is_none());
    }

    #[test]
    fn empty_until_first_visit() {
        let agg = AggregateCapture::default();
        assert!(agg.config_for("/p", &|_| Some(tag("t"))).is_empty());
    }

    #[test]
    fn single_visit_maps_its_resources() {
        let mut agg = AggregateCapture::default();
        agg.record_visit("/p");
        agg.record("/p", "/x.js");
        let config = agg.config_for("/p", &|_| Some(tag("t")));
        assert_eq!(config.len(), 1);
    }

    #[test]
    fn pages_are_isolated() {
        let mut agg = AggregateCapture::default();
        agg.record_visit("/a");
        agg.record("/a", "/x.js");
        agg.record_visit("/b");
        assert!(agg.config_for("/b", &|_| Some(tag("t"))).is_empty());
        assert_eq!(agg.config_for("/a", &|_| Some(tag("t"))).len(), 1);
    }

    #[test]
    fn base_page_not_recorded() {
        let mut agg = AggregateCapture::default();
        agg.record_visit("/p");
        agg.record("/p", "/p");
        assert!(agg.is_empty());
    }

    #[test]
    fn memory_is_independent_of_visitor_count() {
        let mut agg = AggregateCapture::default();
        for _ in 0..10 {
            agg.record_visit("/p");
            for i in 0..50 {
                agg.record("/p", &format!("/assets/r{i}.js"));
            }
        }
        let at_10 = agg.memory_footprint();
        for _ in 0..10_000 {
            agg.record_visit("/p");
            for i in 0..50 {
                agg.record("/p", &format!("/assets/r{i}.js"));
            }
        }
        assert_eq!(agg.memory_footprint(), at_10, "footprint must not grow");
        assert_eq!(agg.len(), 50);
    }

    #[test]
    fn vanished_resources_are_skipped() {
        let mut agg = AggregateCapture::default();
        agg.record_visit("/p");
        agg.record("/p", "/gone.js");
        agg.record("/p", "/live.js");
        let config = agg.config_for("/p", &|p| (p == "/live.js").then(|| tag("t")));
        assert_eq!(config.len(), 1);
    }
}
