//! The DRAM tier: sharded, ETag-keyed, LRU-evicted under a byte
//! budget.
//!
//! Keys are `host + path`. Each shard owns an independent byte budget
//! (`total / shards`) and evicts its own least-recently-used entries,
//! so eviction never takes a global lock. Evicted entries are handed
//! back to the caller, which lets [`TieredStore`](super::TieredStore)
//! demote them to the disk tier instead of dropping them.
//!
//! An entry is held behind one `Arc`: a hit hands out that handle (a
//! reference count, not a copy), and a mark writes through
//! `Arc::make_mut`, which copies only while a reader still holds the
//! old version. Recency is an exact LRU list threaded through a slab of
//! nodes, least recent at the head: a touch moves a node to the tail
//! and an eviction pops the head, both O(1) under the shard's lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cachecatalyst_httpwire::hash::fnv1a64;
use cachecatalyst_httpwire::EntityTag;

use super::{EntryInfo, MarkOutcome, StoredEntry};

/// An entry leaving DRAM: its key and its handle.
pub type Victim = (Arc<str>, Arc<StoredEntry>);

/// The end of the list.
const NIL: usize = usize::MAX;

/// One slab slot: its place in the recency list, and the entry it
/// holds (`None` while the slot waits on the free list).
struct Node {
    prev: usize,
    next: usize,
    item: Option<(Arc<str>, Arc<StoredEntry>)>,
}

struct Shard {
    /// Key → slab index. The key's bytes are shared with its node.
    index: HashMap<Arc<str>, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Least recently used: the next victim.
    head: usize,
    /// Most recently used.
    tail: usize,
    bytes: usize,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            index: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn item(&mut self, i: usize) -> &mut (Arc<str>, Arc<StoredEntry>) {
        self.nodes[i]
            .item
            .as_mut()
            .expect("an indexed node holds an entry")
    }

    fn unlink(&mut self, i: usize) {
        let Node { prev, next, .. } = self.nodes[i];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_back(&mut self, i: usize) {
        self.nodes[i].prev = self.tail;
        self.nodes[i].next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.nodes[t].next = i,
        }
        self.tail = i;
    }

    /// Makes node `i` the most recently used.
    fn touch(&mut self, i: usize) {
        if self.tail != i {
            self.unlink(i);
            self.push_back(i);
        }
    }

    /// Stores a new key as the most recently used.
    fn link(&mut self, key: Arc<str>, entry: Arc<StoredEntry>) -> usize {
        let node = Node {
            prev: NIL,
            next: NIL,
            item: Some((Arc::clone(&key), entry)),
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.index.insert(key, i);
        self.push_back(i);
        i
    }

    /// Takes node `i` out of the list and the index.
    fn unlink_entry(&mut self, i: usize) -> Victim {
        self.unlink(i);
        self.free.push(i);
        let (key, entry) = self.nodes[i]
            .item
            .take()
            .expect("an indexed node holds an entry");
        self.index.remove(&key);
        self.bytes -= entry.size();
        (key, entry)
    }

    /// Entries from least to most recently used.
    fn in_order(&self) -> impl Iterator<Item = &(Arc<str>, Arc<StoredEntry>)> {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(at)?;
            at = node.next;
            node.item.as_ref()
        })
    }
}

/// Locks one shard; a holder that panicked does not make it unusable.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The sharded DRAM tier. All operations lock exactly one shard.
pub struct MemTier {
    shards: Vec<Mutex<Shard>>,
    budget_per_shard: usize,
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
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            bytes_held: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard> {
        // FNV-1a over the key picks the shard; stable across runs.
        &self.shards[(fnv1a64(key.as_bytes()) % self.shards.len() as u64) as usize]
    }

    /// Evicts from the least recently used end until the shard is
    /// within budget, sparing `keep` (the entry just written, which is
    /// the most recent).
    fn evict_to_budget(&self, shard: &mut Shard, keep: usize) -> Vec<Victim> {
        let mut victims = Vec::new();
        while shard.bytes > self.budget_per_shard && shard.head != keep {
            let victim = shard.unlink_entry(shard.head);
            self.bytes_held
                .fetch_sub(victim.1.size(), Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            victims.push(victim);
        }
        victims
    }

    /// Stores `entry`, returning whether it was retained and every
    /// entry evicted to make room (the demotion feed). An object
    /// larger than a whole shard budget is not stored.
    pub fn insert_returning_victims(
        &self,
        key: &str,
        entry: Arc<StoredEntry>,
    ) -> (bool, Vec<Victim>) {
        let size = entry.size();
        if size > self.budget_per_shard {
            return (false, Vec::new());
        }
        let mut shard = lock(self.shard_of(key));
        let i = match shard.index.get(key) {
            Some(&i) => {
                let old = std::mem::replace(&mut shard.item(i).1, entry);
                shard.bytes -= old.size();
                self.bytes_held.fetch_sub(old.size(), Ordering::Relaxed);
                shard.touch(i);
                i
            }
            None => shard.link(key.into(), entry),
        };
        shard.bytes += size;
        self.bytes_held.fetch_add(size, Ordering::Relaxed);
        let victims = self.evict_to_budget(&mut shard, i);
        (true, victims)
    }

    /// Replaces the entry under `key` after a revalidation with
    /// `entry` (which keeps the old one's negative flag) and makes it
    /// the most recently used, then evicts to budget as an insert
    /// does: the victims come back for demotion, and an entry grown
    /// past a whole shard budget is itself one. `Err` hands `entry`
    /// back when `key` is not resident (e.g. evicted mid-flight).
    pub fn refresh(&self, key: &str, mut entry: StoredEntry) -> Result<Vec<Victim>, StoredEntry> {
        let mut shard = lock(self.shard_of(key));
        let Some(&i) = shard.index.get(key) else {
            return Err(entry);
        };
        let slot = &mut shard.item(i).1;
        entry.meta.negative = slot.meta.negative;
        let (old_size, new_size) = (slot.size(), entry.size());
        *slot = Arc::new(entry);
        shard.bytes = shard.bytes - old_size + new_size;
        self.bytes_held.fetch_sub(old_size, Ordering::Relaxed);
        self.bytes_held.fetch_add(new_size, Ordering::Relaxed);
        shard.touch(i);
        if new_size > self.budget_per_shard {
            let victim = shard.unlink_entry(i);
            self.bytes_held.fetch_sub(new_size, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return Ok(vec![victim]);
        }
        Ok(self.evict_to_budget(&mut shard, i))
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
        self.shards.iter().map(|s| lock(s).index.len()).sum()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry under `key` (fresh or stale), bumping its recency.
    pub fn get(&self, key: &str) -> Option<Arc<StoredEntry>> {
        let mut shard = lock(self.shard_of(key));
        let i = *shard.index.get(key)?;
        shard.touch(i);
        Some(Arc::clone(&shard.item(i).1))
    }

    /// Applies a catalyst mark ([`Meta::mark`](super::Meta::mark)) to
    /// the entry under `key`, if resident. Recency is not touched: a
    /// map names an object, it does not use it.
    pub fn mark(&self, key: &str, current: &EntityTag, now: i64, fresh_until: i64) -> MarkOutcome {
        let mut shard = lock(self.shard_of(key));
        match shard.index.get(key) {
            Some(&i) => Arc::make_mut(&mut shard.item(i).1)
                .meta
                .mark(current, now, fresh_until),
            None => MarkOutcome::Absent,
        }
    }

    /// Drops `key` outright (poisoned or superseded entry).
    pub fn evict(&self, key: &str) {
        let mut shard = lock(self.shard_of(key));
        if let Some(&i) = shard.index.get(key) {
            let (_, old) = shard.unlink_entry(i);
            self.bytes_held.fetch_sub(old.size(), Ordering::Relaxed);
        }
    }

    /// Every entry this tier holds, for the inspector endpoint: shard
    /// by shard, least recently used first.
    pub fn entries(&self) -> Vec<EntryInfo> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            for (key, entry) in shard.in_order() {
                out.push(entry.meta.info(key, "mem", entry.size()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_httpwire::Response;

    fn resp(body: &str, tag: &str) -> Response {
        Response::ok(body.as_bytes().to_vec()).with_header("etag", &format!("\"{tag}\""))
    }

    fn entry(body: &str, tag: &str, t: i64, fresh: i64) -> StoredEntry {
        let r = resp(body, tag);
        let e = r.etag();
        StoredEntry::positive(r, e, t, fresh)
    }

    fn store_one(tier: &MemTier, key: &str, body: &str, tag: &str, t: i64, fresh: i64) {
        tier.insert_returning_victims(key, Arc::new(entry(body, tag, t, fresh)));
    }

    #[test]
    fn lru_eviction_surfaces_victims() {
        let unit = resp("x".repeat(100).as_str(), "v").wire_len();
        let tier = MemTier::new(unit * 3, 1);
        for key in ["h/1", "h/2", "h/3"] {
            store_one(&tier, key, &"x".repeat(100), "v", 0, 10);
        }
        tier.get("h/1");
        let (stored, victims) =
            tier.insert_returning_victims("h/4", Arc::new(entry(&"x".repeat(100), "v", 0, 10)));
        assert!(stored);
        assert_eq!(victims.len(), 1);
        assert_eq!(&*victims[0].0, "h/2", "LRU victim is handed back");
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
        let victims = tier.refresh("h/a", StoredEntry::positive(refreshed, tag, 50, 55));
        assert!(victims.is_ok_and(|v| v.is_empty()));
        let held = tier.get("h/a").unwrap();
        assert_eq!(held.meta.validated_at, 50);
        assert_eq!(held.response.headers.get("x-new"), Some("yes"));
        assert!(tier.refresh("h/missing", entry("x", "v", 0, 1)).is_err());
    }

    fn resident(refreshed: Result<Vec<Victim>, StoredEntry>) -> Vec<Victim> {
        refreshed.unwrap_or_else(|_| panic!("the refreshed key was not resident"))
    }

    /// A 304 that grows an entry evicts to budget, and one grown past a
    /// whole shard leaves DRAM as insert would have refused it.
    #[test]
    fn a_refresh_that_grows_an_entry_evicts_to_budget() {
        let unit = resp(&"x".repeat(100), "v").wire_len();
        let tier = MemTier::new(unit * 3, 1);
        for key in ["h/1", "h/2", "h/3"] {
            store_one(&tier, key, &"x".repeat(100), "v", 0, 10);
        }
        let grown = resp(&"x".repeat(100), "v").with_header("x-pad", &"p".repeat(60));
        let victims = resident(tier.refresh("h/3", StoredEntry::positive(grown, None, 5, 10)));
        assert_eq!(victims.len(), 1);
        assert_eq!(&*victims[0].0, "h/1");
        assert!(tier.bytes_held() <= unit * 3);
        let huge = resp(&"x".repeat(100), "v").with_header("x-pad", &"p".repeat(unit * 3));
        let victims = resident(tier.refresh("h/2", StoredEntry::positive(huge, None, 5, 10)));
        assert_eq!(victims.len(), 1);
        assert_eq!(&*victims[0].0, "h/2");
        assert!(tier.get("h/2").is_none());
        assert_eq!(tier.len(), 1);
        assert_eq!(tier.evictions(), 2);
    }

    /// A hit is the stored handle; a mark while a reader holds it
    /// leaves the reader's version alone.
    #[test]
    fn a_hit_shares_the_entry_and_a_mark_copies_only_a_held_one() {
        let tier = MemTier::new(1 << 20, 1);
        store_one(&tier, "h/a", "alpha", "v1", 0, 1);
        let first = tier.get("h/a").unwrap();
        let second = tier.get("h/a").unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        drop(second);
        let tag = EntityTag::strong("v1").unwrap();
        assert_eq!(tier.mark("h/a", &tag, 7, 9), MarkOutcome::Fresh);
        let marked = tier.get("h/a").unwrap();
        assert_eq!(first.meta.fresh_until, 1);
        assert_eq!(marked.meta.fresh_until, 9);
        assert!(marked
            .response
            .body
            .shares_allocation_with(&first.response.body));
        let unheld = Arc::as_ptr(&marked);
        drop((first, marked));
        assert_eq!(tier.mark("h/a", &tag, 8, 20), MarkOutcome::Fresh);
        let remarked = tier.get("h/a").unwrap();
        assert_eq!(Arc::as_ptr(&remarked), unheld, "no reader, no copy");
        assert_eq!(remarked.meta.fresh_until, 20);
    }
}
