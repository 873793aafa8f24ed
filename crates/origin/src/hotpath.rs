//! Lock-light primitives for the origin serve path: churn-epoch
//! computation over the site's change models, and an N-way sharded,
//! epoch-validated cache.
//!
//! The idea: a page's extracted `X-Etag-Config` (and its rendered
//! body) is a pure function of the *versions* of the page and its
//! dependency closure at time `t`. Those versions are cheap
//! arithmetic over each resource's [`ChangeModel`] — so instead of
//! keying caches by `(page, t)` (a new entry every virtual second,
//! an unbounded leak), we fold the closure's versions into a single
//! *churn epoch* and key by page. Any `t` within the same epoch is a
//! hit; a version change anywhere in the closure changes the epoch,
//! and the stale entry is replaced in place — at most one live entry
//! per page, ever.

use std::collections::{HashMap, HashSet};
use std::sync::{PoisonError, RwLock};

use cachecatalyst_httpwire::hash::fnv1a64;
use cachecatalyst_webmodel::{ChangeModel, Site};

/// Shard count for [`ShardedCache`]. Power of two, sized so that a
/// handful of worker threads rarely contend on the same shard lock.
const SHARDS: usize = 16;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Precomputed per-resource dependency closures over a [`Site`].
///
/// The closure of a path is the path itself plus its transitive
/// static *and* dynamic children: everything whose content version
/// feeds the extracted config (static subtree, including the link
/// URLs of fingerprinted and third-party children) or the rendered
/// body (child link texts, which for JS include dynamic children).
/// This is a conservative superset — an epoch may change without the
/// config changing, costing one rebuild, but never the reverse.
pub struct ChurnEpochs {
    deps: HashMap<String, Vec<ChangeModel>>,
}

impl ChurnEpochs {
    /// Walks every resource's dependency closure once, at server
    /// construction. Sites are immutable after generation, so the
    /// closures never need refreshing.
    pub fn new(site: &Site) -> ChurnEpochs {
        let mut deps = HashMap::new();
        for root in site.resources() {
            let mut models = Vec::new();
            let mut seen: HashSet<&str> = HashSet::new();
            let mut stack: Vec<&str> = vec![&root.spec.path];
            while let Some(path) = stack.pop() {
                if !seen.insert(path) {
                    continue;
                }
                let Some(r) = site.get(path) else { continue };
                models.push(r.spec.change.clone());
                stack.extend(r.spec.static_children.iter().map(String::as_str));
                stack.extend(r.spec.dynamic_children.iter().map(String::as_str));
            }
            deps.insert(root.spec.path.clone(), models);
        }
        ChurnEpochs { deps }
    }

    /// The churn epoch of `path` at `t_secs`: an FNV-1a fold of every
    /// closure member's version. Equal epochs ⇒ identical config and
    /// body; different versions anywhere ⇒ (with 2⁻⁶⁴ collision odds)
    /// a different epoch.
    pub fn epoch_at(&self, path: &str, t_secs: i64) -> Option<u64> {
        let models = self.deps.get(path)?;
        let mut h = FNV_OFFSET;
        for m in models {
            h = (h ^ m.version_at(t_secs)).wrapping_mul(FNV_PRIME);
        }
        Some(h)
    }
}

struct Entry<T> {
    epoch: u64,
    value: T,
}

/// An N-way sharded map keyed by resource path, each entry tagged
/// with the churn epoch it was built under. Reads take one shard
/// `RwLock` read guard; inserts replace per key, so the map holds at
/// most one entry per path regardless of how much virtual time the
/// server has seen.
pub struct ShardedCache<T> {
    shards: Vec<RwLock<HashMap<String, Entry<T>>>>,
}

impl<T: Clone> ShardedCache<T> {
    pub fn new() -> ShardedCache<T> {
        ShardedCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, Entry<T>>> {
        &self.shards[(fnv1a64(key.as_bytes()) as usize) % SHARDS]
    }

    /// The cached value for `key`, if it was built under `epoch`.
    pub fn get(&self, key: &str, epoch: u64) -> Option<T> {
        let shard = self
            .shard(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        shard
            .get(key)
            .filter(|e| e.epoch == epoch)
            .map(|e| e.value.clone())
    }

    /// Stores `value` for `key`, replacing (and thereby evicting) any
    /// entry from an earlier epoch.
    pub fn insert(&self, key: &str, epoch: u64, value: T) {
        self.shard(key)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key.to_owned(), Entry { epoch, value });
    }

    /// Total live entries across all shards (diagnostics; the leak
    /// regression test asserts this stays bounded by the site size).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Clone> Default for ShardedCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_webmodel::example_site;

    #[test]
    fn epoch_constant_within_a_version_window() {
        let site = example_site();
        let epochs = ChurnEpochs::new(&site);
        // All example-site periods are ≥ 90 minutes, so [0, 5400) is
        // one epoch for every resource.
        let e0 = epochs.epoch_at("/index.html", 0).unwrap();
        for t in [1, 60, 3599, 5399] {
            assert_eq!(epochs.epoch_at("/index.html", t).unwrap(), e0, "t={t}");
        }
    }

    #[test]
    fn epoch_changes_when_any_closure_member_changes() {
        let site = example_site();
        let epochs = ChurnEpochs::new(&site);
        // /index.html itself changes every 90 minutes.
        let e0 = epochs.epoch_at("/index.html", 0).unwrap();
        assert_ne!(epochs.epoch_at("/index.html", 5400).unwrap(), e0);
        // /b.js (static child) → /c.js (dynamic) → /d.jpg (dynamic,
        // 100-minute period): d.jpg churn must reach the page epoch
        // even though the page document itself is unchanged at t=6000.
        let eb0 = epochs.epoch_at("/b.js", 0).unwrap();
        assert_ne!(
            epochs.epoch_at("/b.js", 6001).unwrap(),
            eb0,
            "dynamic grandchild churn must propagate"
        );
    }

    #[test]
    fn unknown_path_has_no_epoch() {
        let epochs = ChurnEpochs::new(&example_site());
        assert!(epochs.epoch_at("/nope", 0).is_none());
    }

    #[test]
    fn sharded_cache_epoch_validation_and_replacement() {
        let cache: ShardedCache<u32> = ShardedCache::new();
        cache.insert("/p", 1, 10);
        assert_eq!(cache.get("/p", 1), Some(10));
        assert_eq!(cache.get("/p", 2), None, "stale epoch must miss");
        cache.insert("/p", 2, 20);
        assert_eq!(cache.get("/p", 2), Some(20));
        assert_eq!(cache.len(), 1, "replacement, not accumulation");
    }

    #[test]
    fn sharded_cache_is_bounded_by_key_count() {
        let cache: ShardedCache<u64> = ShardedCache::new();
        for epoch in 0..1000 {
            cache.insert("/page", epoch, epoch);
            cache.insert("/other", epoch, epoch);
        }
        assert_eq!(cache.len(), 2);
    }
}
