//! The composition the cache layer talks to: DRAM front, optional
//! persistent second tier, movement between them.
//!
//! * **Promotion** — a disk hit copies the entry into DRAM so repeat
//!   traffic is served at memory speed;
//! * **Demotion** — DRAM evictions are offered to the disk tier
//!   instead of dropped, gated by the configured
//!   [`AdmissionPolicy`](super::AdmissionPolicy) so one-hit-wonder
//!   churn never reaches the segment files;
//! * **Supersession** — storing a new version of an object evicts the
//!   outdated disk copy, so a restart can never resurrect bytes a
//!   newer version replaced.
//!
//! The store keeps the exact inherent API the PR 5 cache layer used
//! (`get`/`insert`/`mark`/…), so a mem-only [`TieredStore`] behaves
//! byte-for-byte like the single-tier store it replaced.

use std::sync::atomic::{AtomicU64, Ordering};

use cachecatalyst_httpwire::hash::fnv1a64;
use cachecatalyst_httpwire::{EntityTag, Response};

use super::admission::Admission;
use super::disk::{DiskStats, DiskTier};
use super::mem::MemTier;
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
    /// Demotions the admission policy refused.
    pub admission_rejects: u64,
}

/// The tiered store. Built by
/// [`StoreOptions::build`](super::StoreOptions::build); both tiers are
/// optional, so mem-only (PR 5 behaviour), disk-only and hybrid
/// configurations share this one type.
pub struct TieredStore {
    mem: Option<MemTier>,
    disk: Option<DiskTier>,
    admission: Admission,
    promotions: AtomicU64,
    demotions: AtomicU64,
    admission_rejects: AtomicU64,
}

/// Same object version? Only a strong validator match counts — an
/// absent validator can't prove anything, so it reads as "different".
fn same_version(a: &Option<EntityTag>, b: &Option<EntityTag>) -> bool {
    matches!((a, b), (Some(x), Some(y)) if x.strong_eq(y))
}

impl TieredStore {
    pub(super) fn assemble(
        mem: Option<MemTier>,
        disk: Option<DiskTier>,
        admission: Admission,
    ) -> TieredStore {
        TieredStore {
            mem,
            disk,
            admission,
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            admission_rejects: AtomicU64::new(0),
        }
    }

    /// The entry under `key` (fresh or stale) and which tier served
    /// it. A disk hit is promoted into DRAM; entries that promotion
    /// displaces are themselves offered for demotion.
    pub fn get_traced(&self, key: &str) -> Option<(StoredEntry, TierHit)> {
        // Every lookup feeds the admission sketch, so popularity
        // accrues while an object is DRAM-resident — by the time it's
        // evicted, the sketch knows whether it earned a disk slot.
        // Stateless policies skip even the key hash: this is the
        // hottest line in a mem-only store.
        if self.admission.observes_accesses() {
            self.admission.record(fnv1a64(key.as_bytes()));
        }
        if let Some(mem) = &self.mem {
            if let Some(entry) = mem.get(key) {
                return Some((entry, TierHit::Mem));
            }
        }
        let entry = self.disk.as_ref()?.get(key)?;
        if let Some(mem) = &self.mem {
            let (stored, victims) = mem.insert_returning_victims(key, entry.clone());
            if stored {
                self.promotions.fetch_add(1, Ordering::Relaxed);
            }
            for (victim_key, victim) in victims {
                if victim_key != key {
                    self.try_demote(&victim_key, &victim);
                }
            }
        }
        Some((entry, TierHit::Disk))
    }

    /// Offers a DRAM eviction to the disk tier. Negatives are never
    /// demoted (a 404 is cheap to rediscover), a same-version disk
    /// copy makes the write redundant, and the admission policy has
    /// the final word.
    fn try_demote(&self, key: &str, entry: &StoredEntry) {
        let Some(disk) = &self.disk else {
            return;
        };
        if entry.negative {
            return;
        }
        if let Some(on_disk) = disk.stored_etag(key) {
            if same_version(&on_disk, &entry.etag) {
                return;
            }
        }
        if !self.admission.admit(fnv1a64(key.as_bytes())) {
            self.admission_rejects.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if disk.insert(key, entry.clone()) {
            self.demotions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn insert_entry(&self, key: &str, entry: StoredEntry) {
        match &self.mem {
            Some(mem) => {
                let (stored, victims) = mem.insert_returning_victims(key, entry.clone());
                for (victim_key, victim) in victims {
                    if victim_key != key {
                        self.try_demote(&victim_key, &victim);
                    }
                }
                if stored {
                    // An outdated disk copy must not outlive the new
                    // version — a restart would serve it.
                    if let Some(disk) = &self.disk {
                        if let Some(on_disk) = disk.stored_etag(key) {
                            if !same_version(&on_disk, &entry.etag) {
                                disk.evict(key);
                            }
                        }
                    }
                } else {
                    // Oversized for DRAM: offer it straight to disk.
                    self.try_demote(key, &entry);
                }
            }
            // Disk-only configuration: every insert is a demotion.
            None => self.try_demote(key, &entry),
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
    /// A DRAM-resident entry is updated in place; otherwise a live
    /// disk copy is superseded by appending the refreshed record.
    pub fn refresh(
        &self,
        key: &str,
        response: Response,
        etag: Option<EntityTag>,
        validated_at: i64,
        fresh_until: i64,
    ) {
        if let Some(mem) = &self.mem {
            if mem.refresh(
                key,
                response.clone(),
                etag.clone(),
                validated_at,
                fresh_until,
            ) {
                return;
            }
        }
        if let Some(disk) = &self.disk {
            if disk.stored_etag(key).is_some() {
                disk.insert(
                    key,
                    StoredEntry::positive(response, etag, validated_at, fresh_until),
                );
            }
        }
    }

    /// Applies a catalyst mark to *both* tiers (the disk mark is
    /// index-only — this is the zero-I/O warm-restart re-freshen
    /// path). Returns the DRAM outcome when the key is resident there,
    /// else the disk outcome.
    pub fn mark(&self, key: &str, current: &EntityTag, now: i64, fresh_until: i64) -> MarkOutcome {
        let mem_outcome = match &self.mem {
            Some(mem) => mem.mark(key, current, now, fresh_until),
            None => MarkOutcome::Absent,
        };
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
        if let Some(mem) = &self.mem {
            mem.evict(key);
        }
        if let Some(disk) = &self.disk {
            disk.evict(key);
        }
    }

    /// Bytes held by the DRAM tier (the budget the PR 5 gauge tracks;
    /// disk bytes are reported separately via [`Self::disk_stats`]).
    pub fn bytes_held(&self) -> usize {
        self.mem.as_ref().map_or(0, |m| m.bytes_held())
    }

    /// Cumulative DRAM budget evictions.
    pub fn evictions(&self) -> u64 {
        self.mem.as_ref().map_or(0, |m| m.evictions())
    }

    /// Stored objects across tiers. An object resident in both DRAM
    /// and disk counts once per tier.
    pub fn len(&self) -> usize {
        self.mem.as_ref().map_or(0, |m| m.len()) + self.disk.as_ref().map_or(0, |d| d.len())
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
            admission_rejects: self.admission_rejects.load(Ordering::Relaxed),
        }
    }

    /// The disk tier's counters, when one is configured.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(|d| d.disk_stats())
    }

    /// The entry under `key`, whichever tier holds it.
    pub fn get(&self, key: &str) -> Option<StoredEntry> {
        self.get_traced(key).map(|(entry, _)| entry)
    }

    /// Every entry of every tier, for the inspector endpoint.
    pub fn entries(&self) -> Vec<EntryInfo> {
        let mut out = self.mem.as_ref().map(|m| m.entries()).unwrap_or_default();
        out.extend(self.disk.as_ref().map(|d| d.entries()).unwrap_or_default());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{AdmissionPolicy, DiskTierOptions, StoreOptions};
    use super::*;
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

    fn hybrid(dir: &PathBuf, mem_budget: usize, admission: AdmissionPolicy) -> TieredStore {
        StoreOptions::new()
            .mem_budget(mem_budget)
            .shards(1)
            .disk(DiskTierOptions::at(dir).admission(admission))
            .build()
            .unwrap()
    }

    #[test]
    fn dram_eviction_demotes_and_disk_hit_promotes() {
        let dir = scratch_dir("demote");
        let unit = resp(&"x".repeat(200), "v").wire_len();
        let store = hybrid(&dir, unit * 2, AdmissionPolicy::AdmitAll);
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
    fn tiny_lfu_refuses_one_hit_wonders_but_admits_repeats() {
        let dir = scratch_dir("tinylfu");
        let unit = resp(&"x".repeat(200), "v").wire_len();
        let store = hybrid(&dir, unit, AdmissionPolicy::TinyLfuAdmit { min_hits: 2 });
        // A popular key accrues sketch counts while DRAM-resident.
        put(&store, "h/hot", &"x".repeat(200), "v", 0, 100);
        for _ in 0..3 {
            store.get("h/hot");
        }
        // A stream of one-hit wonders: each displaces the previous.
        for i in 0..10 {
            store.get(&format!("h/cold-{i}")); // miss
            put(
                &store,
                &format!("h/cold-{i}"),
                &"x".repeat(200),
                "v",
                0,
                100,
            );
        }
        let counters = store.counters();
        assert_eq!(
            counters.demotions, 1,
            "only the popular key earns a disk slot"
        );
        assert!(counters.admission_rejects >= 9);
        assert!(store.disk_stats().unwrap().objects == 1);
        let (_, hit) = store.get_traced("h/hot").unwrap();
        assert_eq!(hit, TierHit::Disk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn new_version_supersedes_stale_disk_copy() {
        let dir = scratch_dir("supersede");
        let unit = resp(&"x".repeat(200), "v1").wire_len();
        let store = hybrid(&dir, unit * 2, AdmissionPolicy::AdmitAll);
        put(&store, "h/a", &"x".repeat(200), "v1", 0, 100);
        put(&store, "h/b", &"x".repeat(200), "v1", 0, 100);
        put(&store, "h/c", &"x".repeat(200), "v1", 0, 100); // demotes h/a
        assert!(store.disk_stats().unwrap().objects >= 1);
        // A new version of h/a arrives while the v1 copy sits on disk.
        put(&store, "h/a", &"y".repeat(200), "v2", 10, 200);
        let stats = store.disk_stats().unwrap();
        assert!(
            !store
                .entries()
                .iter()
                .any(|e| e.tier == "disk" && e.key == "h/a" && e.etag.as_deref() == Some("\"v1\"")),
            "superseded v1 disk copy must be evicted, stats: {stats:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mark_reaches_both_tiers() {
        let dir = scratch_dir("mark");
        let unit = resp(&"x".repeat(200), "v1").wire_len();
        let store = hybrid(&dir, unit * 2, AdmissionPolicy::AdmitAll);
        put(&store, "h/a", &"x".repeat(200), "v1", 0, 10);
        put(&store, "h/b", &"x".repeat(200), "v1", 0, 10);
        put(&store, "h/c", &"x".repeat(200), "v1", 0, 10); // h/a now disk-only
        let tag = EntityTag::strong("v1").unwrap();
        assert_eq!(store.mark("h/a", &tag, 50, 500), MarkOutcome::Fresh);
        let (entry, hit) = store.get_traced("h/a").unwrap();
        assert_eq!(hit, TierHit::Disk);
        assert_eq!(entry.fresh_until, 500, "disk mark extended freshness");
        assert_eq!(store.mark("h/missing", &tag, 50, 500), MarkOutcome::Absent);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
