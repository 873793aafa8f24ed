//! The edge's object store, split into tiers behind one API.
//!
//! * [`MemTier`] — the DRAM front: sharded, byte-budgeted, LRU-evicted;
//! * [`DiskTier`] — the persistent second tier: append-friendly
//!   segment files with XXH64-checksummed records and an in-memory
//!   index, rebuilt from record headers on boot;
//! * [`TieredStore`] — the composition the cache layer talks to:
//!   promotion on disk hit, demotion on DRAM eviction.
//!
//! Both tiers keep the same [`Meta`] beside an entry's bytes — DRAM in
//! the [`StoredEntry`], disk in its index — so the catalyst mark
//! ([`Meta::mark`]) and the `/inspect` row are written once, here.
//!
//! There is one store shape: a DRAM front, whose budget may be zero
//! and then holds nothing, over an optional disk tier. Construction
//! goes through [`StoreOptions`]:
//!
//! ```
//! use cachecatalyst_edge::store::StoreOptions;
//! let store = StoreOptions::new().mem_budget(16 << 20).shards(4).build().unwrap();
//! assert!(store.is_empty());
//! ```

use std::sync::OnceLock;

use cachecatalyst_catalyst::EtagConfig;
use cachecatalyst_httpwire::{EntityTag, HeaderMap, Response};

pub mod disk;
pub mod mem;
pub mod tiered;

pub use disk::{DiskStats, DiskTier, DiskTierOptions};
pub use mem::{MemTier, Victim};
pub use tiered::{TierHit, TieredCounters, TieredStore};

/// What a tier knows about an entry besides its bytes: the validator
/// and the freshness bookkeeping every serving decision reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meta {
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
}

impl Meta {
    /// Applies a catalyst mark — the paper's one comparison, the
    /// cached validator against the map's `current` entry: a match
    /// extends freshness to at least `fresh_until`, anything else is
    /// stale as of `now`.
    pub fn mark(&mut self, current: &EntityTag, now: i64, fresh_until: i64) -> MarkOutcome {
        if self.negative {
            // The map says this path exists now; the cached 404 is out
            // of date.
            self.fresh_until = now;
            return MarkOutcome::Mismatch;
        }
        match &self.etag {
            Some(tag) if EtagConfig::entry_matches(current, tag) => {
                self.validated_at = now;
                self.fresh_until = self.fresh_until.max(fresh_until);
                MarkOutcome::Fresh
            }
            _ => {
                self.fresh_until = self.fresh_until.min(now);
                MarkOutcome::Mismatch
            }
        }
    }

    /// This entry's `/inspect` row.
    fn info(&self, key: &str, tier: &'static str, size: usize) -> EntryInfo {
        EntryInfo {
            key: key.to_owned(),
            tier,
            size,
            meta: self.clone(),
        }
    }
}

/// One stored object. The DRAM tier holds it behind an `Arc` and
/// hands that out on a hit.
#[derive(Clone)]
pub struct StoredEntry {
    /// The full response to replay (its head and body are shared, so
    /// cloning it is reference counts, not a copy).
    pub response: Response,
    /// Validator and freshness.
    pub meta: Meta,
    size: usize,
    /// The head a hit serves, built by the first DRAM hit on this
    /// version. Not part of [`StoredEntry::size`], nor of a disk
    /// record.
    served: OnceLock<HeaderMap>,
}

impl StoredEntry {
    /// Size is the wire footprint: body plus headers.
    fn new(response: Response, meta: Meta) -> StoredEntry {
        let size = response.wire_len();
        StoredEntry {
            response,
            meta,
            size,
            served: OnceLock::new(),
        }
    }

    /// A positive entry.
    pub fn positive(
        response: Response,
        etag: Option<EntityTag>,
        validated_at: i64,
        fresh_until: i64,
    ) -> StoredEntry {
        StoredEntry::new(
            response,
            Meta {
                etag,
                validated_at,
                fresh_until,
                negative: false,
            },
        )
    }

    /// A negatively-cached 404, fresh until `fresh_until`.
    pub fn negative(response: Response, validated_at: i64, fresh_until: i64) -> StoredEntry {
        StoredEntry::new(
            response,
            Meta {
                etag: None,
                validated_at,
                fresh_until,
                negative: true,
            },
        )
    }

    /// Approximate retained bytes: body plus headers on the wire.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The stored head as the edge serves it, with its `X-Served-By`
    /// ([`crate::cache::served_head`]): made on the first call and
    /// shared by every later one, so a repeat hit copies no field list.
    pub(crate) fn served_head(&self) -> &HeaderMap {
        self.served
            .get_or_init(|| crate::cache::served_head(self.response.headers.clone()))
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
    /// Validator and freshness, as that tier holds them.
    pub meta: Meta,
}

/// Configures a [`TieredStore`]: the DRAM budget/sharding and an
/// optional persistent [`DiskTierOptions`] second tier.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    mem_budget: usize,
    shards: usize,
    disk: Option<DiskTierOptions>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            mem_budget: 64 << 20,
            shards: 8,
            disk: None,
        }
    }
}

impl StoreOptions {
    /// Defaults: 64 MiB DRAM over 8 shards, no disk tier.
    pub fn new() -> StoreOptions {
        StoreOptions::default()
    }

    /// Total bytes the DRAM tier may hold, spread over the shards. At
    /// `0` it holds nothing: every insert is offered straight to the
    /// disk tier and every hit is read from it.
    pub fn mem_budget(mut self, bytes: usize) -> StoreOptions {
        self.mem_budget = bytes;
        self
    }

    /// Number of independent DRAM shards.
    pub fn shards(mut self, shards: usize) -> StoreOptions {
        self.shards = shards.max(1);
        self
    }

    /// Attach a persistent disk tier.
    pub fn disk(mut self, disk: DiskTierOptions) -> StoreOptions {
        self.disk = Some(disk);
        self
    }

    /// Builds the store. Fails only when a disk tier was requested and
    /// its directory cannot be opened/recovered.
    pub fn build(self) -> std::io::Result<TieredStore> {
        let mem = MemTier::new(self.mem_budget, self.shards);
        let disk = match self.disk {
            Some(opts) => Some(DiskTier::open(&opts)?),
            None => None,
        };
        Ok(TieredStore::assemble(mem, disk))
    }
}
