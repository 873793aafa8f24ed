//! Session capture: the paper's alternative map-building strategy.
//!
//! Instead of (or in addition to) static extraction, "the server
//! captures a list of resource URLs that the client requests during a
//! user's first visit to a webpage" (§3). On later visits by the same
//! session, the config is built from that recorded list — covering the
//! dynamic, JS-discovered resources that static extraction misses, at
//! the cost of per-session server memory (the paper flags this
//! footprint as an open optimization problem; we bound it with an LRU
//! session budget).

use std::collections::{BTreeSet, HashMap, VecDeque};

use cachecatalyst_httpwire::EntityTag;

use crate::config::EtagConfig;

/// Per-(session, page) record of requested resource paths.
#[derive(Debug, Default)]
pub struct SessionCapture {
    /// (session, page) → set of same-origin paths requested.
    records: HashMap<(String, String), BTreeSet<String>>,
    /// Insertion order for LRU-ish eviction of whole sessions.
    order: VecDeque<(String, String)>,
    /// Maximum number of (session, page) records retained.
    max_records: usize,
    /// Cumulative evictions (exposed for the memory-footprint study).
    pub evicted: u64,
}

impl SessionCapture {
    /// Creates a store bounded to `max_records` (session, page) pairs.
    pub fn new(max_records: usize) -> SessionCapture {
        SessionCapture {
            max_records: max_records.max(1),
            ..Default::default()
        }
    }

    /// Records that `session` requested `path` while loading `page`.
    /// The base document itself is not recorded (it is always fetched).
    pub fn record(&mut self, session: &str, page: &str, path: &str) {
        if path == page {
            return;
        }
        let key = (session.to_owned(), page.to_owned());
        if !self.records.contains_key(&key) {
            self.order.push_back(key.clone());
            // Make room by dropping the oldest records.
            while self.records.len() >= self.max_records {
                let Some(oldest) = self.order.pop_front() else {
                    break;
                };
                if self.records.remove(&oldest).is_some() {
                    self.evicted += 1;
                }
            }
        }
        self.records.entry(key).or_default().insert(path.to_owned());
    }

    /// The recorded paths for a (session, page), if any.
    pub fn paths(&self, session: &str, page: &str) -> Option<&BTreeSet<String>> {
        self.records.get(&(session.to_owned(), page.to_owned()))
    }

    /// Builds an [`EtagConfig`] from the recorded list, looking up each
    /// path's *current* tag (paths that vanished are skipped).
    pub fn config_for(
        &self,
        session: &str,
        page: &str,
        etag_of: &dyn Fn(&str) -> Option<EntityTag>,
    ) -> EtagConfig {
        let mut config = EtagConfig::new();
        if let Some(paths) = self.paths(session, page) {
            for p in paths {
                if let Some(tag) = etag_of(p) {
                    config.insert(p, tag);
                }
            }
        }
        config
    }

    /// Number of retained (session, page) records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Approximate memory footprint in bytes (paths + keys).
    pub fn memory_footprint(&self) -> usize {
        self.records
            .iter()
            .map(|((s, p), set)| {
                s.len() + p.len() + set.iter().map(|x| x.len() + 48).sum::<usize>() + 96
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(s: &str) -> EntityTag {
        EntityTag::strong(s).unwrap()
    }

    #[test]
    fn records_and_builds_config() {
        let mut cap = SessionCapture::new(100);
        cap.record("alice", "/index.html", "/a.css");
        cap.record("alice", "/index.html", "/lazy.jpg");
        cap.record("alice", "/index.html", "/a.css"); // duplicate
        let config = cap.config_for("alice", "/index.html", &|p| {
            Some(tag(&format!("t-{}", p.len())))
        });
        assert_eq!(config.len(), 2);
        assert!(config.get("/a.css").is_some());
        assert!(config.get("/lazy.jpg").is_some());
    }

    #[test]
    fn base_page_not_recorded() {
        let mut cap = SessionCapture::new(100);
        cap.record("alice", "/index.html", "/index.html");
        assert!(cap.is_empty());
    }

    #[test]
    fn sessions_are_isolated() {
        let mut cap = SessionCapture::new(100);
        cap.record("alice", "/p", "/a.css");
        cap.record("bob", "/p", "/b.css");
        let a = cap.config_for("alice", "/p", &|_| Some(tag("t")));
        assert_eq!(a.len(), 1);
        assert!(a.get("/a.css").is_some());
        assert!(cap
            .config_for("carol", "/p", &|_| Some(tag("t")))
            .is_empty());
    }

    #[test]
    fn vanished_resources_are_skipped() {
        let mut cap = SessionCapture::new(100);
        cap.record("s", "/p", "/old.js");
        cap.record("s", "/p", "/live.js");
        let config = cap.config_for("s", "/p", &|p| (p == "/live.js").then(|| tag("t")));
        assert_eq!(config.len(), 1);
    }

    #[test]
    fn lru_bounds_memory() {
        let mut cap = SessionCapture::new(3);
        for i in 0..10 {
            cap.record(&format!("s{i}"), "/p", "/r.js");
        }
        assert!(cap.len() <= 3);
        assert_eq!(cap.evicted, 7);
        // Most recent sessions survive.
        assert!(cap.paths("s9", "/p").is_some());
        assert!(cap.paths("s0", "/p").is_none());
    }

    #[test]
    fn footprint_grows_with_records() {
        let mut cap = SessionCapture::new(1000);
        let before = cap.memory_footprint();
        for i in 0..50 {
            cap.record("s", "/p", &format!("/assets/resource-{i}.js"));
        }
        assert!(cap.memory_footprint() > before + 50 * 20);
    }
}
