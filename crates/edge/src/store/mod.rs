//! The edge's object store, split into tiers behind one pluggable API.
//!
//! * [`MemTier`] — the DRAM front: sharded, byte-budgeted, LRU-evicted
//!   (PR 5's store, now one tier among several);
//! * [`DiskTier`] — the persistent second tier: append-friendly
//!   segment files with XXH64-checksummed records and an in-memory
//!   index, rebuilt from record headers on boot;
//! * [`TieredStore`] — the composition the cache layer talks to:
//!   promotion on disk hit, demotion on DRAM eviction, disk writes
//!   gated by a pluggable [`AdmissionPolicy`].
//!
//! Both tiers are optional, so mem-only, disk-only and hybrid
//! configurations are one code path; construction goes through
//! [`StoreOptions`]:
//!
//! ```
//! use cachecatalyst_edge::store::StoreOptions;
//! let store = StoreOptions::new().mem_budget(16 << 20).shards(4).build().unwrap();
//! assert!(store.is_empty());
//! ```

use cachecatalyst_httpwire::{EntityTag, Response};

pub mod admission;
pub mod disk;
pub mod mem;
pub mod tiered;

pub use admission::{AdmissionPolicy, FreqSketch};
pub use disk::{DiskStats, DiskTier, DiskTierOptions};
pub use mem::MemTier;
pub use tiered::{TierHit, TieredCounters, TieredStore};

/// One stored object.
#[derive(Clone)]
pub struct StoredEntry {
    /// The full response to replay (the `Bytes` body makes cloning an
    /// entry a refcount bump, not a copy).
    pub response: Response,
    /// The validator the object was stored under.
    pub etag: Option<EntityTag>,
    /// When the edge last confirmed this entry with the origin (store
    /// or revalidation), in virtual seconds.
    pub validated_at: i64,
    /// Servable without contacting the origin until this instant
    /// (exclusive). At or past it, the entry is *stale*: still held,
    /// usable as a revalidation candidate via its validator.
    pub fresh_until: i64,
    /// A negatively-cached 404.
    pub negative: bool,
    size: usize,
}

impl StoredEntry {
    /// A positive entry. Size is the wire footprint: body plus headers.
    pub fn positive(
        response: Response,
        etag: Option<EntityTag>,
        validated_at: i64,
        fresh_until: i64,
    ) -> StoredEntry {
        let size = response.wire_len();
        StoredEntry {
            response,
            etag,
            validated_at,
            fresh_until,
            negative: false,
            size,
        }
    }

    /// A negatively-cached 404, fresh until `fresh_until`.
    pub fn negative(response: Response, validated_at: i64, fresh_until: i64) -> StoredEntry {
        let size = response.wire_len();
        StoredEntry {
            response,
            etag: None,
            validated_at,
            fresh_until,
            negative: true,
            size,
        }
    }

    /// Approximate retained bytes: body plus headers on the wire.
    pub fn size(&self) -> usize {
        self.size
    }

    pub(crate) fn resize(&mut self) {
        self.size = self.response.wire_len();
    }
}

/// Outcome of a catalyst mark against one stored entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkOutcome {
    /// The stored validator matches the map: freshness extended.
    Fresh,
    /// The stored validator disagrees with the map: marked stale (the
    /// body is kept so the refetch can be a conditional GET).
    Mismatch,
    /// Nothing stored under this key.
    Absent,
}

/// One entry as the read-only inspector reports it (`GET /inspect`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryInfo {
    /// The store key (`host + path`).
    pub key: String,
    /// Which tier holds this copy: `"mem"` or `"disk"`.
    pub tier: &'static str,
    /// Wire footprint in bytes.
    pub size: usize,
    /// The stored validator, rendered (`"v1"` / `W/"v1"`), if any.
    pub etag: Option<String>,
    /// Last origin confirmation, virtual seconds.
    pub validated_at: i64,
    /// Freshness horizon (exclusive), virtual seconds.
    pub fresh_until: i64,
    /// A negatively-cached 404.
    pub negative: bool,
}

/// Configures a [`TieredStore`]: the DRAM budget/sharding and an
/// optional persistent [`DiskTierOptions`] second tier.
///
/// `mem_budget(0)` drops the DRAM tier entirely (a disk-only store);
/// omitting `.disk(..)` keeps the PR 5 mem-only behaviour.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    mem_budget: usize,
    shards: usize,
    disk: Option<DiskTierOptions>,
    admission: AdmissionPolicy,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            mem_budget: 64 << 20,
            shards: 8,
            disk: None,
            admission: AdmissionPolicy::TinyLfuAdmit { min_hits: 2 },
        }
    }
}

impl StoreOptions {
    /// Defaults: 64 MiB DRAM over 8 shards, no disk tier.
    pub fn new() -> StoreOptions {
        StoreOptions::default()
    }

    /// Total bytes the DRAM tier may hold, spread over the shards.
    /// `0` removes the DRAM tier (disk-only configurations).
    pub fn mem_budget(mut self, bytes: usize) -> StoreOptions {
        self.mem_budget = bytes;
        self
    }

    /// Number of independent DRAM shards.
    pub fn shards(mut self, shards: usize) -> StoreOptions {
        self.shards = shards.max(1);
        self
    }

    /// Attach a persistent disk tier. The admission policy configured
    /// on the [`DiskTierOptions`] gates every segment write.
    pub fn disk(mut self, disk: DiskTierOptions) -> StoreOptions {
        self.admission = disk.admission.clone();
        self.disk = Some(disk);
        self
    }

    /// Builds the store. Fails only when a disk tier was requested and
    /// its directory cannot be opened/recovered.
    pub fn build(self) -> std::io::Result<TieredStore> {
        let mem = (self.mem_budget > 0).then(|| MemTier::new(self.mem_budget, self.shards));
        let disk = match self.disk {
            Some(opts) => Some(DiskTier::open(&opts)?),
            None => None,
        };
        // Admission only gates disk writes. Without a disk tier the
        // sketch would be fed on every lookup (the DRAM hot path) and
        // never consulted — compile it away instead.
        let admission = if disk.is_some() {
            self.admission.compile()
        } else {
            AdmissionPolicy::AdmitAll.compile()
        };
        Ok(TieredStore::assemble(mem, disk, admission))
    }
}
