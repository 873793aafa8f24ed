//! The DRAM tier: sharded, ETag-keyed, LRU-evicted under a byte
//! budget.
//!
//! Keys are `host + path`. Each shard owns an independent byte budget
//! (`total / shards`) and evicts its own least-recently-used entries,
//! so eviction never takes a global lock. Evicted entries are handed
//! back to the caller, which lets [`TieredStore`](super::TieredStore)
//! demote them to the disk tier instead of dropping them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use cachecatalyst_httpwire::hash::fnv1a64;
use cachecatalyst_httpwire::{EntityTag, Response};

use super::{EntryInfo, MarkOutcome, StoredEntry};

/// One resident entry plus its recency stamp.
struct Slot {
    entry: StoredEntry,
    seq: u64,
}

struct Shard {
    map: HashMap<String, Slot>,
    bytes: usize,
}

/// Locks one shard; a holder that panicked does not make it unusable.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The sharded DRAM tier. All operations lock exactly one shard.
pub struct MemTier {
    shards: Vec<Mutex<Shard>>,
    budget_per_shard: usize,
    clock: AtomicU64,
    bytes_held: AtomicUsize,
    evictions: AtomicU64,
}

impl MemTier {
    /// A tier spreading `byte_budget` over `shards` shards. A shard
    /// whose share rounds to zero holds nothing.
    pub fn new(byte_budget: usize, shards: usize) -> MemTier {
        let shards = shards.max(1);
        MemTier {
            budget_per_shard: byte_budget / shards,
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        bytes: 0,
                    })
                })
                .collect(),
            clock: AtomicU64::new(0),
            bytes_held: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard> {
        // FNV-1a over the key picks the shard; stable across runs.
        &self.shards[(fnv1a64(key.as_bytes()) % self.shards.len() as u64) as usize]
    }

    fn touch(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores `entry`, returning whether it was retained and every
    /// entry evicted to make room (the demotion feed). An object
    /// larger than a whole shard budget is not stored.
    pub fn insert_returning_victims(
        &self,
        key: &str,
        entry: StoredEntry,
    ) -> (bool, Vec<(String, StoredEntry)>) {
        if entry.size() > self.budget_per_shard {
            return (false, Vec::new());
        }
        let seq = self.touch();
        let size = entry.size();
        let mut victims = Vec::new();
        let mut shard = lock(self.shard_of(key));
        if let Some(old) = shard.map.insert(key.to_owned(), Slot { entry, seq }) {
            shard.bytes -= old.entry.size();
            self.bytes_held
                .fetch_sub(old.entry.size(), Ordering::Relaxed);
        }
        shard.bytes += size;
        self.bytes_held.fetch_add(size, Ordering::Relaxed);
        while shard.bytes > self.budget_per_shard {
            // O(n) min-scan per eviction: shards are small and
            // eviction is the rare path; a heap would buy nothing at
            // this scale.
            let Some(victim) = shard
                .map
                .iter()
                .filter(|(k, _)| k.as_str() != key)
                .min_by_key(|(_, s)| s.seq)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(evicted) = shard.map.remove(&victim) {
                shard.bytes -= evicted.entry.size();
                self.bytes_held
                    .fetch_sub(evicted.entry.size(), Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                victims.push((victim, evicted.entry));
            }
        }
        (true, victims)
    }

    /// Replaces the stored response under `key` after a revalidation,
    /// adopting headers/validator and extending freshness. Returns
    /// `false` if the key is not resident (e.g. evicted mid-flight).
    pub fn refresh(
        &self,
        key: &str,
        response: Response,
        etag: Option<EntityTag>,
        validated_at: i64,
        fresh_until: i64,
    ) -> bool {
        let seq = self.touch();
        let mut shard = lock(self.shard_of(key));
        let shard = &mut *shard;
        let Some(slot) = shard.map.get_mut(key) else {
            return false;
        };
        let old_size = slot.entry.size();
        slot.entry.response = response;
        slot.entry.meta.etag = etag;
        slot.entry.meta.validated_at = validated_at;
        slot.entry.meta.fresh_until = fresh_until;
        slot.entry.resize();
        slot.seq = seq;
        let new_size = slot.entry.size();
        shard.bytes = shard.bytes - old_size + new_size;
        if new_size >= old_size {
            self.bytes_held
                .fetch_add(new_size - old_size, Ordering::Relaxed);
        } else {
            self.bytes_held
                .fetch_sub(old_size - new_size, Ordering::Relaxed);
        }
        true
    }

    /// Total bytes currently held across all shards.
    pub fn bytes_held(&self) -> usize {
        self.bytes_held.load(Ordering::Relaxed)
    }

    /// Cumulative count of budget evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry under `key` (fresh or stale), bumping its recency.
    pub fn get(&self, key: &str) -> Option<StoredEntry> {
        let seq = self.touch();
        let mut shard = lock(self.shard_of(key));
        let slot = shard.map.get_mut(key)?;
        slot.seq = seq;
        Some(slot.entry.clone())
    }

    /// Applies a catalyst mark ([`Meta::mark`](super::Meta::mark)) to
    /// the entry under `key`, if resident.
    pub fn mark(&self, key: &str, current: &EntityTag, now: i64, fresh_until: i64) -> MarkOutcome {
        let mut shard = lock(self.shard_of(key));
        match shard.map.get_mut(key) {
            Some(slot) => slot.entry.meta.mark(current, now, fresh_until),
            None => MarkOutcome::Absent,
        }
    }

    /// Drops `key` outright (poisoned or superseded entry).
    pub fn evict(&self, key: &str) {
        let mut shard = lock(self.shard_of(key));
        if let Some(old) = shard.map.remove(key) {
            shard.bytes -= old.entry.size();
            self.bytes_held
                .fetch_sub(old.entry.size(), Ordering::Relaxed);
        }
    }

    /// Every entry this tier holds, for the inspector endpoint.
    pub fn entries(&self) -> Vec<EntryInfo> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            for (key, slot) in shard.map.iter() {
                out.push(slot.entry.meta.info(key, "mem", slot.entry.size()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(body: &str, tag: &str) -> Response {
        Response::ok(body.as_bytes().to_vec()).with_header("etag", &format!("\"{tag}\""))
    }

    fn store_one(tier: &MemTier, key: &str, body: &str, tag: &str, t: i64, fresh: i64) {
        let r = resp(body, tag);
        let e = r.etag();
        tier.insert_returning_victims(key, StoredEntry::positive(r, e, t, fresh));
    }

    #[test]
    fn lru_eviction_surfaces_victims() {
        let unit = resp("x".repeat(100).as_str(), "v").wire_len();
        let tier = MemTier::new(unit * 3, 1);
        for key in ["h/1", "h/2", "h/3"] {
            store_one(&tier, key, &"x".repeat(100), "v", 0, 10);
        }
        tier.get("h/1");
        let r = resp(&"x".repeat(100), "v");
        let e = r.etag();
        let (stored, victims) =
            tier.insert_returning_victims("h/4", StoredEntry::positive(r, e, 0, 10));
        assert!(stored);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].0, "h/2", "LRU victim is handed back");
        assert_eq!(tier.evictions(), 1);
        assert!(tier.bytes_held() <= unit * 3);
    }

    #[test]
    fn oversized_objects_are_not_stored() {
        let tier = MemTier::new(64, 1);
        store_one(&tier, "h/big", &"x".repeat(10_000), "v", 0, 10);
        assert!(tier.is_empty());
        assert_eq!(tier.bytes_held(), 0);
    }

    #[test]
    fn refresh_reports_residency() {
        let tier = MemTier::new(1 << 20, 2);
        store_one(&tier, "h/a", "alpha", "v1", 0, 1);
        let refreshed = resp("alpha", "v1").with_header("x-new", "yes");
        let tag = refreshed.etag();
        assert!(tier.refresh("h/a", refreshed, tag, 50, 55));
        let entry = tier.get("h/a").unwrap();
        assert_eq!(entry.meta.validated_at, 50);
        assert_eq!(entry.response.headers.get("x-new"), Some("yes"));
        assert!(!tier.refresh("h/missing", resp("x", "v"), None, 0, 1));
    }
}
