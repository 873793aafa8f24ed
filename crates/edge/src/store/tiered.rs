//! The composition the cache layer talks to: DRAM front, optional
//! persistent second tier, movement between them.
//!
//! * **Promotion** — a disk hit copies the entry into DRAM so repeat
//!   traffic is served at memory speed;
//! * **Demotion** — DRAM evictions are written to the disk tier
//!   instead of dropped, unless the entry is a cached 404 or the same
//!   version already sits there;
//! * **Supersession** — storing a new version of an object evicts the
//!   outdated disk copy, so a restart can never resurrect bytes a
//!   newer version replaced.
//!
//! A DRAM front that stores nothing (zero budget, or an object larger
//! than a shard) needs no case of its own: the insert is offered
//! straight to disk, and a disk hit is served without being promoted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cachecatalyst_httpwire::{EntityTag, Response};

use super::disk::{DiskStats, DiskTier};
use super::mem::{MemTier, Victim};
use super::{EntryInfo, MarkOutcome, StoredEntry};

/// Which tier served a [`TieredStore::get_traced`] hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierHit {
    /// Served from DRAM.
    Mem,
    /// Served from a segment file (and promoted into DRAM).
    Disk,
}

/// Cumulative cross-tier movement counters, snapshot via
/// [`TieredStore::counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TieredCounters {
    /// Disk hits copied up into DRAM.
    pub promotions: u64,
    /// DRAM evictions written down to disk.
    pub demotions: u64,
}

/// The tiered store. Built by
/// [`StoreOptions::build`](super::StoreOptions::build).
pub struct TieredStore {
    mem: MemTier,
    disk: Option<DiskTier>,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

/// Same object version? Only a strong validator match counts — an
/// absent validator can't prove anything, so it reads as "different".
fn same_version(a: &Option<EntityTag>, b: &Option<EntityTag>) -> bool {
    matches!((a, b), (Some(x), Some(y)) if x.strong_eq(y))
}

impl TieredStore {
    pub(super) fn assemble(mem: MemTier, disk: Option<DiskTier>) -> TieredStore {
        TieredStore {
            mem,
            disk,
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    /// The entry under `key` (fresh or stale) and which tier served
    /// it. A DRAM hit is the stored handle itself. A disk hit is
    /// promoted into DRAM; entries that promotion displaces are
    /// themselves offered for demotion.
    pub fn get_traced(&self, key: &str) -> Option<(Arc<StoredEntry>, TierHit)> {
        if let Some(entry) = self.mem.get(key) {
            return Some((entry, TierHit::Mem));
        }
        let entry = Arc::new(self.disk.as_ref()?.get(key)?);
        if self.hold_in_dram(key, &entry) {
            self.promotions.fetch_add(1, Ordering::Relaxed);
        }
        Some((entry, TierHit::Disk))
    }

    /// Puts `entry` in DRAM and offers what that displaces to the disk
    /// tier. False when DRAM did not keep it.
    fn hold_in_dram(&self, key: &str, entry: &Arc<StoredEntry>) -> bool {
        let (stored, victims) = self.mem.insert_returning_victims(key, Arc::clone(entry));
        self.demote(victims);
        stored
    }

    /// Offers every entry DRAM let go of to the disk tier.
    fn demote(&self, victims: Vec<Victim>) {
        for (key, victim) in victims {
            self.try_demote(&key, &victim);
        }
    }

    /// Offers a DRAM eviction to the disk tier. Negatives are never
    /// demoted (a 404 is cheap to rediscover, and a flood of them must
    /// not wash the second tier), and a same-version disk copy makes
    /// the write redundant.
    fn try_demote(&self, key: &str, entry: &StoredEntry) {
        let Some(disk) = &self.disk else {
            return;
        };
        if entry.meta.negative {
            return;
        }
        if let Some(on_disk) = disk.stored_etag(key) {
            if same_version(&on_disk, &entry.meta.etag) {
                return;
            }
        }
        if disk.insert(key, entry.clone()) {
            self.demotions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn insert_entry(&self, key: &str, entry: StoredEntry) {
        let entry = Arc::new(entry);
        if self.hold_in_dram(key, &entry) {
            // An outdated disk copy must not outlive the new
            // version — a restart would serve it.
            if let Some(disk) = &self.disk {
                if let Some(on_disk) = disk.stored_etag(key) {
                    if !same_version(&on_disk, &entry.meta.etag) {
                        disk.evict(key);
                    }
                }
            }
        } else {
            // Not held in DRAM: offer it straight to disk.
            self.try_demote(key, &entry);
        }
    }

    /// Stores a positive entry. `fresh_until` is absolute virtual
    /// seconds.
    pub fn insert(
        &self,
        key: &str,
        response: Response,
        etag: Option<EntityTag>,
        validated_at: i64,
        fresh_until: i64,
    ) {
        self.insert_entry(
            key,
            StoredEntry::positive(response, etag, validated_at, fresh_until),
        );
    }

    /// Stores a negatively-cached 404, fresh until `fresh_until`.
    pub fn insert_negative(
        &self,
        key: &str,
        response: Response,
        validated_at: i64,
        fresh_until: i64,
    ) {
        self.insert_entry(
            key,
            StoredEntry::negative(response, validated_at, fresh_until),
        );
    }

    /// Replaces the stored response under `key` after a revalidation.
    /// A DRAM-resident entry is replaced there, and what that evicts
    /// (the entry itself, if it grew past a whole shard) is offered for
    /// demotion as an insert's victims are; otherwise a live disk copy
    /// is superseded by appending the refreshed record.
    pub fn refresh(
        &self,
        key: &str,
        response: Response,
        etag: Option<EntityTag>,
        validated_at: i64,
        fresh_until: i64,
    ) {
        let entry = StoredEntry::positive(response, etag, validated_at, fresh_until);
        let entry = match self.mem.refresh(key, entry) {
            Ok(victims) => return self.demote(victims),
            Err(entry) => entry,
        };
        if let Some(disk) = &self.disk {
            if disk.stored_etag(key).is_some() {
                disk.insert(key, entry);
            }
        }
    }

    /// Applies a catalyst mark to *both* tiers (the disk mark is
    /// index-only — this is the zero-I/O warm-restart re-freshen
    /// path). Returns the DRAM outcome when the key is resident there,
    /// else the disk outcome.
    pub fn mark(&self, key: &str, current: &EntityTag, now: i64, fresh_until: i64) -> MarkOutcome {
        let mem_outcome = self.mem.mark(key, current, now, fresh_until);
        let disk_outcome = match &self.disk {
            Some(disk) => disk.mark(key, current, now, fresh_until),
            None => MarkOutcome::Absent,
        };
        if mem_outcome != MarkOutcome::Absent {
            mem_outcome
        } else {
            disk_outcome
        }
    }

    /// Drops `key` from every tier.
    pub fn remove(&self, key: &str) {
        self.mem.evict(key);
        if let Some(disk) = &self.disk {
            disk.evict(key);
        }
    }

    /// Bytes held by the DRAM tier (disk bytes are reported separately
    /// via [`Self::disk_stats`]).
    pub fn bytes_held(&self) -> usize {
        self.mem.bytes_held()
    }

    /// Cumulative DRAM budget evictions.
    pub fn evictions(&self) -> u64 {
        self.mem.evictions()
    }

    /// Stored objects across tiers. An object resident in both DRAM
    /// and disk counts once per tier.
    pub fn len(&self) -> usize {
        self.mem.len() + self.disk.as_ref().map_or(0, |d| d.len())
    }

    /// True when no tier holds anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cross-tier movement counters.
    pub fn counters(&self) -> TieredCounters {
        TieredCounters {
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
        }
    }

    /// The disk tier's counters, when one is configured.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(|d| d.disk_stats())
    }

    /// The entry under `key`, whichever tier holds it.
    pub fn get(&self, key: &str) -> Option<Arc<StoredEntry>> {
        self.get_traced(key).map(|(entry, _)| entry)
    }

    /// Every entry of every tier, for the inspector endpoint.
    pub fn entries(&self) -> Vec<EntryInfo> {
        let mut out = self.mem.entries();
        out.extend(self.disk.as_ref().map(|d| d.entries()).unwrap_or_default());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DiskTierOptions, Meta, StoreOptions};
    use super::*;
    use cachecatalyst_httpwire::StatusCode;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn scratch_dir(name: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "cc-edge-tiered-{}-{name}-{seq}",
            std::process::id()
        ))
    }

    fn resp(body: &str, tag: &str) -> Response {
        Response::ok(body.as_bytes().to_vec()).with_header("etag", &format!("\"{tag}\""))
    }

    fn put(store: &TieredStore, key: &str, body: &str, tag: &str, t: i64, fresh: i64) {
        let r = resp(body, tag);
        let e = r.etag();
        store.insert(key, r, e, t, fresh);
    }

    fn hybrid(dir: &PathBuf, mem_budget: usize) -> TieredStore {
        StoreOptions::new()
            .mem_budget(mem_budget)
            .shards(1)
            .disk(DiskTierOptions::at(dir))
            .build()
            .unwrap()
    }

    #[test]
    fn dram_eviction_demotes_and_disk_hit_promotes() {
        let dir = scratch_dir("demote");
        let unit = resp(&"x".repeat(200), "v").wire_len();
        let store = hybrid(&dir, unit * 2);
        for key in ["h/1", "h/2", "h/3"] {
            put(&store, key, &"x".repeat(200), "v", 0, 100);
        }
        // h/1 was LRU-evicted from DRAM and demoted to disk.
        assert_eq!(store.counters().demotions, 1);
        let (entry, hit) = store.get_traced("h/1").unwrap();
        assert_eq!(hit, TierHit::Disk);
        assert_eq!(&entry.response.body[..], b"x".repeat(200).as_slice());
        assert_eq!(store.counters().promotions, 1);
        // Promotion copied it back into DRAM.
        let (_, hit) = store.get_traced("h/1").unwrap();
        assert_eq!(hit, TierHit::Mem);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn new_version_supersedes_stale_disk_copy() {
        let dir = scratch_dir("supersede");
        let unit = resp(&"x".repeat(200), "v1").wire_len();
        let store = hybrid(&dir, unit * 2);
        put(&store, "h/a", &"x".repeat(200), "v1", 0, 100);
        put(&store, "h/b", &"x".repeat(200), "v1", 0, 100);
        put(&store, "h/c", &"x".repeat(200), "v1", 0, 100); // demotes h/a
        assert!(store.disk_stats().unwrap().objects >= 1);
        // A new version of h/a arrives while the v1 copy sits on disk.
        put(&store, "h/a", &"y".repeat(200), "v2", 10, 200);
        let stats = store.disk_stats().unwrap();
        assert!(
            !store.entries().iter().any(|e| e.tier == "disk"
                && e.key == "h/a"
                && e.meta.etag == EntityTag::strong("v1").ok()),
            "superseded v1 disk copy must be evicted, stats: {stats:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_mark_means_the_same_in_dram_and_on_disk() {
        let held = |etag: &str| {
            let r = Response::ok("body").with_header("etag", etag);
            let tag = r.etag();
            Some(StoredEntry::positive(r, tag, 5, 60))
        };
        let not_found = StoredEntry::negative(Response::empty(StatusCode::NOT_FOUND), 5, 60);
        let (absent, fresh, stale) = (
            MarkOutcome::Absent,
            MarkOutcome::Fresh,
            MarkOutcome::Mismatch,
        );
        // Stored at t=5, fresh until 60; marked at t=50 with a horizon
        // of 500 against a map entry of "v1". `after` is (fresh_until,
        // validated_at) once marked.
        let (extended, expired) = (Some((500, 50)), Some((50, 5)));
        for (case, stored, reopen_disk, outcome, after) in [
            ("absent", None, false, absent, None),
            ("negative", Some(not_found), false, stale, expired),
            ("strong match", held("\"v1\""), false, fresh, extended),
            ("weak match", held("W/\"v1\""), false, fresh, extended),
            ("mismatch", held("\"v0\""), false, stale, expired),
            ("recovered", held("\"v1\""), true, fresh, extended),
        ] {
            let dir = scratch_dir("mark");
            let mem = MemTier::new(1 << 20, 1);
            let mut disk = DiskTier::open(&DiskTierOptions::at(&dir)).unwrap();
            if let Some(entry) = stored {
                mem.insert_returning_victims("h/a", Arc::new(entry.clone()));
                disk.insert("h/a", entry);
            }
            if reopen_disk {
                drop(disk);
                disk = DiskTier::open(&DiskTierOptions::at(&dir)).unwrap();
            }
            let current = EntityTag::strong("v1").unwrap();
            assert_eq!(mem.mark("h/a", &current, 50, 500), outcome, "{case}: mem");
            assert_eq!(disk.mark("h/a", &current, 50, 500), outcome, "{case}: disk");
            let in_mem: Option<Meta> = mem.get("h/a").map(|e| e.meta.clone());
            let on_disk: Option<Meta> = disk.get("h/a").map(|e| e.meta);
            assert_eq!(in_mem, on_disk, "{case}");
            assert_eq!(
                in_mem.map(|m| (m.fresh_until, m.validated_at)),
                after,
                "{case}"
            );
            assert_eq!(
                disk.disk_stats().recovered_refreshed,
                reopen_disk as u64,
                "{case}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_zero_dram_budget_holds_nothing_and_the_disk_tier_serves() {
        let dir = scratch_dir("zero");
        let store = StoreOptions::new()
            .mem_budget(0)
            .disk(DiskTierOptions::at(&dir))
            .build()
            .unwrap();
        for key in ["h/a", "h/b", "h/c"] {
            put(&store, key, &"x".repeat(200), "v1", 0, 10);
        }
        assert_eq!(store.counters().demotions, 3, "every insert goes to disk");
        for _ in 0..2 {
            for key in ["h/a", "h/b", "h/c"] {
                let (_, hit) = store.get_traced(key).unwrap();
                assert_eq!(hit, TierHit::Disk, "{key}");
            }
        }
        assert_eq!(store.bytes_held(), 0);
        assert_eq!(store.counters().promotions, 0);
        assert!(store.entries().iter().all(|e| e.tier == "disk"));
        // A mark reaches an entry no DRAM copy stands in front of.
        let tag = EntityTag::strong("v1").unwrap();
        assert_eq!(store.mark("h/a", &tag, 50, 500), MarkOutcome::Fresh);
        assert_eq!(store.get("h/a").unwrap().meta.fresh_until, 500);
        assert_eq!(store.mark("h/missing", &tag, 50, 500), MarkOutcome::Absent);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
