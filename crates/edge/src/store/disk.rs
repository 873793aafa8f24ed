//! The persistent tier: append-only segment files plus an in-memory
//! index.
//!
//! Writes are sequential appends of self-describing records into
//! fixed-size segment files (`seg-NNNNNNNN.seg`); reads go through an
//! index rebuilt from record headers on boot, so the only random I/O
//! is serving a hit: one seek and one `read_to_end` of exactly the
//! record, on a read handle the tier keeps per segment (opened at the
//! segment's first hit, closed when the segment is retired or a read
//! on it fails), into one allocation that is checksummed once and
//! then *becomes* the response — the served body is a view of the
//! verified record, not a copy of it. A view pins its whole record, so a body
//! served from disk holds `HEADER_LEN` + key + head + 8 bytes more than
//! its own length for as long as it lives; [`StoredEntry::size`] stays
//! the wire length. Open handles are bounded by the number of live
//! segments, `byte_budget / segment_bytes + 1` (257 at the defaults)
//! while records are small beside a segment. Superseded and evicted
//! records are left in place as garbage until their whole segment is
//! retired (oldest first) to stay under the byte budget — a
//! log-structured layout with segment granularity instead of
//! per-record compaction.
//!
//! Each record carries an XXH64 checksum
//! ([`cachecatalyst_httpwire::hash::xxh64`]) over its header, key and
//! encoded response. Recovery scans every segment sequentially,
//! stopping a segment at the first record that fails validation and
//! truncating the file back to the last valid boundary — so a crash
//! mid-append costs exactly the record being written, never an
//! earlier one. The record magic is bumped whenever the checksum
//! changes, so a segment written under another one fails at its first
//! record and recovers to nothing rather than being mis-verified.
//! Recovered entries enter the index *stale*
//! (`fresh_until = i64::MIN`): they serve as revalidation candidates
//! immediately, and the first verified catalyst config map re-freshens
//! the matching ones through [`DiskTier::mark`] with zero origin contact.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use bytes::{BufMut, Bytes, BytesMut};
use cachecatalyst_httpwire::hash::xxh64;
use cachecatalyst_httpwire::{codec, EntityTag, Method, ParseLimits, Parsed, Response};

use super::{EntryInfo, MarkOutcome, Meta, StoredEntry};

/// First four bytes of every record; the low byte counts format
/// revisions (`61` trailed an FNV-1a sum, `62` trails XXH64).
const MAGIC: u32 = 0xED6E_5E62;
/// magic + key_len + wire_len + validated_at + fresh_until + flags.
const HEADER_LEN: usize = 4 + 4 + 4 + 8 + 8 + 4;
/// Trailing XXH64 checksum.
const TRAILER_LEN: usize = 8;
const FLAG_NEGATIVE: u32 = 1;
/// Sanity bounds applied during recovery; anything larger is treated
/// as corruption (they mirror `ParseLimits::default()`).
const MAX_KEY_LEN: u32 = 1 << 16;
const MAX_WIRE_LEN: u32 = 1 << 26;

/// Configures the persistent tier of a
/// [`TieredStore`](super::TieredStore).
#[derive(Clone, Debug)]
pub struct DiskTierOptions {
    dir: PathBuf,
    segment_bytes: u64,
    byte_budget: u64,
}

impl DiskTierOptions {
    /// A disk tier rooted at `dir` (created if missing; existing
    /// segments are recovered). Defaults: 4 MiB segments, 1 GiB
    /// budget.
    pub fn at(dir: impl Into<PathBuf>) -> DiskTierOptions {
        DiskTierOptions {
            dir: dir.into(),
            segment_bytes: 4 << 20,
            byte_budget: 1 << 30,
        }
    }

    /// Bytes per segment file before rotation. The retirement
    /// granularity: smaller segments reclaim space sooner at the cost
    /// of more files.
    pub fn segment_bytes(mut self, bytes: u64) -> DiskTierOptions {
        self.segment_bytes = bytes.max(1024);
        self
    }

    /// Total bytes of segment files to keep; the oldest segment is
    /// retired (file deleted, its live entries dropped) when exceeded.
    /// Clamped to at least one segment.
    pub fn byte_budget(mut self, bytes: u64) -> DiskTierOptions {
        self.byte_budget = bytes;
        self
    }
}

/// Where one live record sits, plus the metadata the index answers
/// without touching the file.
struct IndexEntry {
    segment: u64,
    offset: u64,
    record_len: u64,
    key_len: u32,
    wire_len: u32,
    meta: Meta,
    /// Rebuilt from a segment scan and not yet re-freshened by a
    /// catalyst map.
    recovered: bool,
}

/// One live segment file (the active one included).
#[derive(Default)]
struct Segment {
    /// Bytes written to the file.
    bytes: u64,
    /// The handle hits are read through, opened by the first of them.
    /// Dropped before the file is unlinked at retirement, and after a
    /// failed read so that the next one starts from the path again.
    file: Option<File>,
}

struct DiskState {
    index: HashMap<String, IndexEntry>,
    /// Every segment file, the active one included: it is entered
    /// when opened and never retired.
    segments: BTreeMap<u64, Segment>,
    active_id: u64,
    active: File,
    /// Sum of live (indexed) wire bytes; segment files additionally
    /// hold garbage awaiting retirement.
    live_bytes: usize,
    /// Sum of `segments[..].bytes`: what the budget is enforced on.
    file_bytes: u64,
}

/// Cumulative disk-tier counters, snapshot via [`DiskTier::disk_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Live (indexed) objects.
    pub objects: usize,
    /// Live wire bytes (excludes segment-file garbage).
    pub live_bytes: usize,
    /// Total bytes across all segment files, garbage included.
    pub segment_file_bytes: u64,
    /// Number of segment files on disk.
    pub segments: usize,
    /// Successful reads served.
    pub hits: u64,
    /// Bytes appended to segment files since open.
    pub written_bytes: u64,
    /// Records that failed checksum/parse validation when read back.
    pub read_errors: u64,
    /// Entries rebuilt into the index by the boot-time recovery scan.
    pub recovered: u64,
    /// Recovered entries re-freshened by a catalyst mark with zero
    /// origin contact.
    pub recovered_refreshed: u64,
    /// Whole segments retired to stay under the byte budget.
    pub retired_segments: u64,
    /// Live entries dropped because their segment was retired.
    pub evicted_entries: u64,
}

/// The segment-file tier. One coarse lock covers index and files —
/// this is the slow path behind the DRAM tier, and serialising I/O
/// with index updates closes every read-after-retire race.
pub struct DiskTier {
    dir: PathBuf,
    segment_bytes: u64,
    byte_budget: u64,
    state: Mutex<DiskState>,
    hits: AtomicU64,
    written_bytes: AtomicU64,
    read_errors: AtomicU64,
    recovered: AtomicU64,
    recovered_refreshed: AtomicU64,
    retired_segments: AtomicU64,
    evicted_entries: AtomicU64,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.seg"))
}

fn segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// One record: header ‖ key ‖ wire-form response ‖ XXH64 of all of
/// it, written into a single buffer sized up front — the body is
/// copied once, from the entry to the bytes `write` is handed.
fn encode_record(key: &str, entry: &StoredEntry) -> BytesMut {
    let response = &entry.response;
    let wire_len = response.wire_len();
    let mut rec = BytesMut::with_capacity(HEADER_LEN + key.len() + wire_len + TRAILER_LEN);
    rec.put_slice(&MAGIC.to_le_bytes());
    rec.put_slice(&(key.len() as u32).to_le_bytes());
    rec.put_slice(&(wire_len as u32).to_le_bytes());
    rec.put_slice(&entry.meta.validated_at.to_le_bytes());
    rec.put_slice(&entry.meta.fresh_until.to_le_bytes());
    let flags = u32::from(entry.meta.negative) * FLAG_NEGATIVE;
    rec.put_slice(&flags.to_le_bytes());
    rec.put_slice(key.as_bytes());
    codec::encode_response_head_into(response, &mut rec);
    rec.put_slice(&response.body);
    let sum = xxh64(&rec);
    rec.put_slice(&sum.to_le_bytes());
    rec
}

struct RecordHeader {
    key_len: u32,
    wire_len: u32,
    validated_at: i64,
    negative: bool,
}

fn le_u32(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf[..4].try_into().unwrap())
}

fn le_i64(buf: &[u8]) -> i64 {
    i64::from_le_bytes(buf[..8].try_into().unwrap())
}

fn decode_header(buf: &[u8]) -> Option<RecordHeader> {
    if buf.len() < HEADER_LEN || le_u32(buf) != MAGIC {
        return None;
    }
    let key_len = le_u32(&buf[4..]);
    let wire_len = le_u32(&buf[8..]);
    if key_len == 0 || key_len > MAX_KEY_LEN || wire_len == 0 || wire_len > MAX_WIRE_LEN {
        return None;
    }
    let flags = le_u32(&buf[28..]);
    Some(RecordHeader {
        key_len,
        wire_len,
        validated_at: le_i64(&buf[12..]),
        // The record's fresh_until (bytes 20..28) is deliberately not
        // surfaced: no freshness claim survives a restart un-verified.
        negative: flags & FLAG_NEGATIVE != 0,
    })
}

/// Checks one whole record (header through trailer) against its
/// trailing XXH64 and parses the stored response back out; the
/// response's body is a view of `record`. Every byte that leaves a
/// segment file — into the index at boot, to a client on a hit — goes
/// through here.
fn verify_record(record: &Bytes, key_len: usize) -> Option<Response> {
    let (payload, sum) = record.split_at(record.len().checked_sub(TRAILER_LEN)?);
    if xxh64(payload) != u64::from_le_bytes(sum.try_into().ok()?) {
        return None;
    }
    let wire_at = HEADER_LEN + key_len;
    if wire_at > payload.len() {
        return None;
    }
    let wire = record.slice(wire_at..payload.len());
    match codec::parse_response(&wire, &Method::Get, &ParseLimits::default()) {
        Ok(Parsed::Complete { message, .. }) => Some(message),
        _ => None,
    }
}

impl DiskTier {
    /// Opens (or creates) the tier at `opts.dir`, recovering every
    /// valid record from existing segments into the index. Recovered
    /// entries are stale until a catalyst map or revalidation
    /// re-freshens them. A segment's first invalid record truncates
    /// that segment back to the last valid boundary.
    pub fn open(opts: &DiskTierOptions) -> std::io::Result<DiskTier> {
        fs::create_dir_all(&opts.dir)?;
        let mut ids: Vec<u64> = fs::read_dir(&opts.dir)?
            .filter_map(|e| segment_id(e.ok()?.file_name().to_str()?))
            .collect();
        ids.sort_unstable();

        let mut index: HashMap<String, IndexEntry> = HashMap::new();
        let mut segments = BTreeMap::new();
        let mut file_bytes = 0;
        for id in &ids {
            let path = segment_path(&opts.dir, *id);
            let bytes = Self::recover_segment(&path, *id, &mut index)?;
            file_bytes += bytes;
            segments.insert(*id, Segment { bytes, file: None });
        }
        let recovered = index.len() as u64;
        let live_bytes = index.values().map(|e| e.wire_len as usize).sum();

        // Resume appending to the last segment when it has room,
        // otherwise start a fresh one.
        let segment_bytes = opts.segment_bytes;
        let last = ids.last().copied();
        let active_id = match last {
            Some(id) if segments[&id].bytes < segment_bytes => id,
            Some(id) => id + 1,
            None => 0,
        };
        segments.entry(active_id).or_default();
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&opts.dir, active_id))?;

        Ok(DiskTier {
            dir: opts.dir.clone(),
            segment_bytes,
            byte_budget: opts.byte_budget.max(opts.segment_bytes),
            state: Mutex::new(DiskState {
                index,
                segments,
                active_id,
                active,
                live_bytes,
                file_bytes,
            }),
            hits: AtomicU64::new(0),
            written_bytes: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            recovered: AtomicU64::new(recovered),
            recovered_refreshed: AtomicU64::new(0),
            retired_segments: AtomicU64::new(0),
            evicted_entries: AtomicU64::new(0),
        })
    }

    /// Scans one segment sequentially, indexing every checksum-valid
    /// record (later records win duplicate keys) and truncating the
    /// file at the first invalid one. Returns the segment's valid
    /// length.
    fn recover_segment(
        path: &Path,
        id: u64,
        index: &mut HashMap<String, IndexEntry>,
    ) -> std::io::Result<u64> {
        let buf = Bytes::from(fs::read(path)?);
        let mut pos = 0usize;
        while pos < buf.len() {
            let Some(header) = decode_header(&buf[pos..]) else {
                break;
            };
            let key_len = header.key_len as usize;
            let total = HEADER_LEN + key_len + header.wire_len as usize + TRAILER_LEN;
            if pos + total > buf.len() {
                break; // crash mid-append: the tail record is incomplete
            }
            let record = buf.slice(pos..pos + total);
            let Some(response) = verify_record(&record, key_len) else {
                break;
            };
            let Ok(key) = std::str::from_utf8(&record[HEADER_LEN..HEADER_LEN + key_len]) else {
                break;
            };
            index.insert(
                key.to_owned(),
                IndexEntry {
                    segment: id,
                    offset: pos as u64,
                    record_len: total as u64,
                    key_len: header.key_len,
                    wire_len: header.wire_len,
                    meta: Meta {
                        // The validator lives in the encoded response;
                        // the index keeps it so catalyst marks can
                        // match without file I/O.
                        etag: response.etag(),
                        validated_at: header.validated_at,
                        // Recovered entries start stale: no freshness
                        // claim survives a restart un-verified.
                        fresh_until: i64::MIN,
                        negative: header.negative,
                    },
                    recovered: true,
                },
            );
            pos += total;
        }
        if pos < buf.len() {
            // Drop the invalid tail so the next append starts at a
            // clean record boundary.
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(pos as u64)?;
        }
        Ok(pos as u64)
    }

    fn remove_live(state: &mut DiskState, key: &str) -> Option<IndexEntry> {
        let old = state.index.remove(key)?;
        state.live_bytes -= old.wire_len as usize;
        Some(old)
    }

    /// Retires oldest segments until total file bytes fit the budget.
    /// The active segment is never retired.
    fn enforce_budget(&self, state: &mut DiskState) {
        while state.file_bytes > self.byte_budget && state.segments.len() > 1 {
            let oldest = *state.segments.keys().next().unwrap();
            if oldest == state.active_id {
                break;
            }
            if let Some(retired) = state.segments.remove(&oldest) {
                state.file_bytes -= retired.bytes;
            } // ...and its read handle is closed before the unlink.
            let _ = fs::remove_file(segment_path(&self.dir, oldest));
            let doomed: Vec<String> = state
                .index
                .iter()
                .filter(|(_, e)| e.segment == oldest)
                .map(|(k, _)| k.clone())
                .collect();
            self.evicted_entries
                .fetch_add(doomed.len() as u64, Ordering::Relaxed);
            for key in doomed {
                Self::remove_live(state, &key);
            }
            self.retired_segments.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Locks the index and segments; a holder that panicked does not
    /// make them unusable.
    fn state(&self) -> MutexGuard<'_, DiskState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The stored validator under `key`: `None` when absent,
    /// `Some(etag)` when live. Lets the tiered store detect
    /// supersession without reading the record back.
    pub(super) fn stored_etag(&self, key: &str) -> Option<Option<EntityTag>> {
        let state = self.state();
        state.index.get(key).map(|e| e.meta.etag.clone())
    }

    /// Live object count.
    pub fn len(&self) -> usize {
        self.state().index.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Full cumulative counter snapshot.
    pub fn disk_stats(&self) -> DiskStats {
        let state = self.state();
        DiskStats {
            objects: state.index.len(),
            live_bytes: state.live_bytes,
            segment_file_bytes: state.file_bytes,
            segments: state.segments.len(),
            hits: self.hits.load(Ordering::Relaxed),
            written_bytes: self.written_bytes.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            recovered_refreshed: self.recovered_refreshed.load(Ordering::Relaxed),
            retired_segments: self.retired_segments.load(Ordering::Relaxed),
            evicted_entries: self.evicted_entries.load(Ordering::Relaxed),
        }
    }

    /// One seek and one `read_to_end` of exactly `entry`'s record on
    /// its segment's held handle, into one allocation of that size
    /// that nothing zero-fills first (std asks a `Take` in doubling
    /// steps from 8 KiB: three `read` calls for a 46 KB record). A
    /// short read is a failed read.
    fn read_record(
        dir: &Path,
        segments: &mut BTreeMap<u64, Segment>,
        entry: &IndexEntry,
    ) -> io::Result<Vec<u8>> {
        let segment = segments
            .get_mut(&entry.segment)
            .ok_or(io::ErrorKind::NotFound)?;
        let mut file: &File = match &mut segment.file {
            Some(file) => file,
            unopened => unopened.insert(File::open(segment_path(dir, entry.segment))?),
        };
        file.seek(SeekFrom::Start(entry.offset))?;
        let mut buf = Vec::with_capacity(entry.record_len as usize);
        file.take(entry.record_len).read_to_end(&mut buf)?;
        if buf.len() as u64 != entry.record_len {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(buf)
    }

    /// Reads one record back and re-validates its checksum. A failed
    /// read drops the index entry (counted in `read_errors`) and the
    /// segment's held handle, so the cache falls through to the origin
    /// instead of looping.
    fn read_entry(&self, state: &mut DiskState, key: &str) -> Option<StoredEntry> {
        let entry = state.index.get(key)?;
        let verified = Self::read_record(&self.dir, &mut state.segments, entry)
            .ok()
            .and_then(|buf| verify_record(&Bytes::from(buf), entry.key_len as usize));
        let Some(response) = verified else {
            self.read_errors.fetch_add(1, Ordering::Relaxed);
            if let Some(segment) = state.segments.get_mut(&entry.segment) {
                segment.file = None;
            }
            Self::remove_live(state, key);
            return None;
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(StoredEntry::new(response, entry.meta.clone()))
    }

    /// The entry under `key` (fresh or stale), read back from its
    /// segment and checksum-verified.
    pub fn get(&self, key: &str) -> Option<StoredEntry> {
        let mut state = self.state();
        self.read_entry(&mut state, key)
    }

    /// Moves appends to a new, empty segment; the old one is sealed.
    fn rotate(&self, state: &mut DiskState) -> io::Result<()> {
        let next = state.active_id + 1;
        state.active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, next))?;
        state.active_id = next;
        state.segments.insert(next, Segment::default());
        Ok(())
    }

    /// Appends `entry`, rotating segments and retiring the oldest as
    /// the budget requires. Returns `false` when the write failed.
    pub fn insert(&self, key: &str, entry: StoredEntry) -> bool {
        let rec = encode_record(key, &entry);
        let len = rec.len() as u64;
        let mut state = self.state();
        // Rotate when the active segment is full (a record larger than
        // a whole segment gets a dedicated one).
        let written = state.segments[&state.active_id].bytes;
        if written > 0 && written + len > self.segment_bytes && self.rotate(&mut state).is_err() {
            return false;
        }
        let active_id = state.active_id;
        let offset = state.segments[&active_id].bytes;
        if state.active.write_all(&rec).is_err() {
            // A failed append can leave part of the record behind (a
            // short write, then EFBIG or ENOSPC). Cut it off, so that
            // the next append lands at the offset it is indexed at and
            // the boot scan keeps what follows; failing that, seal the
            // segment.
            if state.active.set_len(offset).is_err() {
                let _ = self.rotate(&mut state);
            }
            return false;
        }
        let segment = state
            .segments
            .get_mut(&active_id)
            .expect("the active segment is listed");
        segment.bytes += len;
        state.file_bytes += len;
        self.written_bytes.fetch_add(len, Ordering::Relaxed);
        // The old record (if any) becomes garbage in its segment.
        Self::remove_live(&mut state, key);
        let wire_len = (rec.len() - HEADER_LEN - key.len() - TRAILER_LEN) as u32;
        state.live_bytes += wire_len as usize;
        state.index.insert(
            key.to_owned(),
            IndexEntry {
                segment: active_id,
                offset,
                record_len: len,
                key_len: key.len() as u32,
                wire_len,
                meta: entry.meta,
                recovered: false,
            },
        );
        self.enforce_budget(&mut state);
        true
    }

    /// Applies a catalyst mark ([`Meta::mark`]) to the entry under
    /// `key`, if indexed.
    pub fn mark(&self, key: &str, current: &EntityTag, now: i64, fresh_until: i64) -> MarkOutcome {
        // Index-only: freshness metadata never rewrites the segment
        // files, which is what makes warm-restart re-freshening free.
        let mut state = self.state();
        let Some(entry) = state.index.get_mut(key) else {
            return MarkOutcome::Absent;
        };
        let outcome = entry.meta.mark(current, now, fresh_until);
        if outcome == MarkOutcome::Fresh && entry.recovered {
            entry.recovered = false;
            self.recovered_refreshed.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Drops `key` outright (poisoned or superseded entry).
    pub fn evict(&self, key: &str) {
        let mut state = self.state();
        Self::remove_live(&mut state, key);
    }

    /// Every entry this tier holds, for the inspector endpoint.
    pub fn entries(&self) -> Vec<EntryInfo> {
        let state = self.state();
        state
            .index
            .iter()
            .map(|(key, e)| e.meta.info(key, "disk", e.wire_len as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_httpwire::Response;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A unique, initially-absent directory under the OS tempdir.
    fn scratch_dir(name: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("cc-edge-disk-{}-{name}-{seq}", std::process::id()))
    }

    fn entry(body: &str, tag: &str, t: i64, fresh: i64) -> StoredEntry {
        let r = Response::ok(body.as_bytes().to_vec()).with_header("etag", &format!("\"{tag}\""));
        let e = r.etag();
        StoredEntry::positive(r, e, t, fresh)
    }

    #[test]
    fn roundtrips_positive_and_negative_records() {
        let dir = scratch_dir("roundtrip");
        let tier = DiskTier::open(&DiskTierOptions::at(&dir)).unwrap();
        tier.insert("h/a", entry("alpha", "v1", 5, 60));
        let miss = Response::empty(cachecatalyst_httpwire::StatusCode::NOT_FOUND);
        tier.insert("h/gone", StoredEntry::negative(miss, 5, 10));
        let got = tier.get("h/a").unwrap();
        assert_eq!(&got.response.body[..], b"alpha");
        assert_eq!(got.meta.validated_at, 5);
        assert_eq!(got.meta.fresh_until, 60);
        assert!(!got.meta.negative);
        let neg = tier.get("h/gone").unwrap();
        assert!(neg.meta.negative);
        assert_eq!(neg.response.status.as_u16(), 404);
        assert!(tier.get("h/missing").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_recovers_entries_stale_and_mark_refreshes_them() {
        let dir = scratch_dir("reopen");
        {
            let tier = DiskTier::open(&DiskTierOptions::at(&dir)).unwrap();
            tier.insert("h/a", entry("alpha", "v1", 5, 60));
            tier.insert("h/b", entry("beta", "v2", 5, 60));
        }
        let tier = DiskTier::open(&DiskTierOptions::at(&dir)).unwrap();
        assert_eq!(tier.disk_stats().recovered, 2);
        let got = tier.get("h/a").unwrap();
        assert_eq!(
            got.meta.fresh_until,
            i64::MIN,
            "recovered entries are stale"
        );
        assert_eq!(&got.response.body[..], b"alpha");
        // A catalyst mark with the matching validator re-freshens with
        // zero file I/O.
        let tag = EntityTag::strong("v1").unwrap();
        assert_eq!(tier.mark("h/a", &tag, 100, 400), MarkOutcome::Fresh);
        assert_eq!(tier.disk_stats().recovered_refreshed, 1);
        assert_eq!(tier.get("h/a").unwrap().meta.fresh_until, 400);
        // A mismatching validator keeps the entry stale.
        let wrong = EntityTag::strong("v9").unwrap();
        assert_eq!(tier.mark("h/b", &wrong, 100, 400), MarkOutcome::Mismatch);
        assert_eq!(tier.disk_stats().recovered_refreshed, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_retirement_bound_disk_usage() {
        let dir = scratch_dir("retire");
        let opts = DiskTierOptions::at(&dir)
            .segment_bytes(2048)
            .byte_budget(6144);
        let tier = DiskTier::open(&opts).unwrap();
        for i in 0..40 {
            tier.insert(&format!("h/{i}"), entry(&"x".repeat(400), "v", 0, 10));
        }
        let stats = tier.disk_stats();
        assert!(stats.segments > 1, "rotation must have happened");
        assert!(
            stats.segment_file_bytes <= 6144 + 2048,
            "file bytes {} exceed budget + one segment",
            stats.segment_file_bytes
        );
        assert!(stats.retired_segments > 0);
        assert!(stats.evicted_entries > 0);
        assert!(tier.get("h/0").is_none(), "oldest entries retired");
        assert!(tier.get("h/39").is_some(), "newest entries live");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_record_is_discarded_on_recovery() {
        let dir = scratch_dir("crash");
        {
            let tier = DiskTier::open(&DiskTierOptions::at(&dir)).unwrap();
            tier.insert("h/a", entry("alpha", "v1", 5, 60));
            tier.insert("h/b", entry("beta", "v2", 5, 60));
        }
        // Simulate a crash mid-append: chop bytes off the final record.
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 7)
            .unwrap();
        let tier = DiskTier::open(&DiskTierOptions::at(&dir)).unwrap();
        assert!(tier.get("h/a").is_some(), "intact record survives");
        assert!(tier.get("h/b").is_none(), "torn record is dropped");
        assert_eq!(tier.disk_stats().recovered, 1);
        // The file was truncated to the record boundary, so appends
        // land cleanly and survive another reopen.
        tier.insert("h/c", entry("gamma", "v3", 6, 70));
        drop(tier);
        let tier = DiskTier::open(&DiskTierOptions::at(&dir)).unwrap();
        assert_eq!(&tier.get("h/c").unwrap().response.body[..], b"gamma");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checksum_is_never_served() {
        let dir = scratch_dir("corrupt");
        {
            let tier = DiskTier::open(&DiskTierOptions::at(&dir)).unwrap();
            tier.insert("h/a", entry("alpha", "v1", 5, 60));
        }
        // Flip one body byte without fixing the checksum.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() - TRAILER_LEN - 2;
        bytes[mid] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        let tier = DiskTier::open(&DiskTierOptions::at(&dir)).unwrap();
        assert_eq!(tier.disk_stats().recovered, 0, "corrupt record not indexed");
        assert!(tier.get("h/a").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Segments of a few records under a budget of three of them, so
    /// that a few dozen inserts rotate and retire.
    fn small_segments(dir: &Path) -> DiskTierOptions {
        DiskTierOptions::at(dir)
            .segment_bytes(2048)
            .byte_budget(6144)
    }

    /// The running total, the per-segment lengths and the files
    /// themselves must tell one story.
    fn assert_file_bytes_accounted(tier: &DiskTier, when: &str) {
        let state = tier.state();
        let by_segment: u64 = state.segments.values().map(|s| s.bytes).sum();
        assert_eq!(state.file_bytes, by_segment, "{when}: segment lengths");
        let on_disk: u64 = fs::read_dir(&tier.dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        assert_eq!(state.file_bytes, on_disk, "{when}: file lengths");
        assert_eq!(
            fs::read_dir(&tier.dir).unwrap().count(),
            state.segments.len(),
            "{when}: one file per segment"
        );
        drop(state);
        assert_eq!(tier.disk_stats().segment_file_bytes, on_disk, "{when}");
    }

    #[test]
    fn file_bytes_is_a_running_total_of_the_segment_files() {
        let dir = scratch_dir("running-total");
        let opts = small_segments(&dir);
        let tier = DiskTier::open(&opts).unwrap();
        assert_file_bytes_accounted(&tier, "empty");
        for i in 0..40 {
            tier.insert(&format!("h/{i}"), entry(&"x".repeat(400), "v", 0, 10));
            assert_file_bytes_accounted(&tier, &format!("insert {i}"));
        }
        let stats = tier.disk_stats();
        assert!(stats.segments > 1 && stats.retired_segments > 0);
        let last = tier.state().active_id;
        drop(tier);

        let tier = DiskTier::open(&opts).unwrap();
        assert_file_bytes_accounted(&tier, "reopen");
        assert_eq!(
            tier.disk_stats().segment_file_bytes,
            stats.segment_file_bytes
        );
        drop(tier);

        // A torn tail is cut away by the boot scan: the total follows.
        let seg = segment_path(&dir, last);
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 7)
            .unwrap();
        let tier = DiskTier::open(&opts).unwrap();
        assert_file_bytes_accounted(&tier, "reopen over a torn tail");
        assert!(tier.disk_stats().segment_file_bytes < stats.segment_file_bytes);
        for i in 40..60 {
            tier.insert(&format!("h/{i}"), entry(&"y".repeat(400), "v", 0, 10));
            assert_file_bytes_accounted(&tier, &format!("insert {i}"));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    fn holds_handle(tier: &DiskTier, segment: u64) -> bool {
        tier.state().segments[&segment].file.is_some()
    }

    #[test]
    fn a_segment_is_read_through_one_held_handle_until_it_is_retired() {
        let dir = scratch_dir("handles");
        let opts = small_segments(&dir);
        let tier = DiskTier::open(&opts).unwrap();
        let body = "x".repeat(400);

        // The active segment: a hit straight after the append that
        // wrote the record, and another after the next append.
        tier.insert("h/0", entry(&body, "v", 0, 10));
        assert!(!holds_handle(&tier, 0), "opened before any hit");
        assert_eq!(&tier.get("h/0").unwrap().response.body[..], body.as_bytes());
        assert!(holds_handle(&tier, 0));
        tier.insert("h/1", entry(&body, "v", 0, 10));
        assert_eq!(&tier.get("h/1").unwrap().response.body[..], body.as_bytes());

        // A sealed segment, after rotation moved appends elsewhere.
        let mut i = 2;
        while tier.state().active_id == 0 {
            tier.insert(&format!("h/{i}"), entry(&body, "v", 0, 10));
            i += 1;
        }
        assert!(holds_handle(&tier, 0), "rotation closed a read handle");
        assert_eq!(&tier.get("h/0").unwrap().response.body[..], body.as_bytes());
        assert_eq!(tier.disk_stats().read_errors, 0);

        // Retirement: the key misses, the file is gone, and so is
        // every descriptor that pointed at it.
        while tier.disk_stats().retired_segments == 0 {
            tier.insert(&format!("h/{i}"), entry(&body, "v", 0, 10));
            i += 1;
        }
        assert!(tier.get("h/0").is_none());
        assert!(!segment_path(&dir, 0).exists());
        assert!(!tier.state().segments.contains_key(&0));
        // Where the OS lists this process's descriptors (Linux).
        if let Ok(fds) = fs::read_dir("/proc/self/fd") {
            let dir = dir.to_str().unwrap();
            for target in fds.filter_map(|fd| fs::read_link(fd.ok()?.path()).ok()) {
                let target = target.to_string_lossy();
                assert!(
                    !(target.starts_with(dir) && target.ends_with("(deleted)")),
                    "a descriptor still points at {target}"
                );
            }
        }
        assert_eq!(tier.disk_stats().read_errors, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_read_drops_the_entry_and_the_handle_and_the_segment_still_serves() {
        let dir = scratch_dir("failed-read");
        let tier = DiskTier::open(&DiskTierOptions::at(&dir)).unwrap();
        tier.insert("h/a", entry("alpha", "v1", 5, 60));
        tier.insert("h/b", entry("beta", "v2", 5, 60));
        assert!(tier.get("h/a").is_some());
        assert!(holds_handle(&tier, 0));

        // The file is rewritten under the tier: its first record with
        // one bit flipped, its second cut off. A record that fails its
        // sum and a short read must fail the same way.
        let seg = segment_path(&dir, 0);
        let bytes = fs::read(&seg).unwrap();
        let first_record = tier.state().index["h/a"].record_len as usize;
        let mut damaged = bytes[..first_record].to_vec();
        damaged[first_record / 2] ^= 0x01;
        fs::write(&seg, &damaged).unwrap();
        assert!(
            tier.get("h/a").is_none(),
            "a record failing its sum was served"
        );
        assert_eq!(tier.disk_stats().read_errors, 1);
        assert!(!holds_handle(&tier, 0), "the handle outlived a failed read");
        assert_eq!(tier.len(), 1, "only the failed entry is dropped");
        assert!(tier.get("h/b").is_none(), "a short read was served");
        assert_eq!(tier.disk_stats().read_errors, 2);
        assert!(tier.is_empty());
        assert!(!holds_handle(&tier, 0));

        // The segment goes on serving: the next insert lands at the
        // offset the tier expects once the bytes are back, and the hit
        // reopens the file.
        fs::write(&seg, &bytes).unwrap();
        tier.insert("h/c", entry("gamma", "v3", 6, 70));
        assert_eq!(&tier.get("h/c").unwrap().response.body[..], b"gamma");
        assert!(holds_handle(&tier, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_recovers_exactly_the_keys_that_were_live() {
        let dir = scratch_dir("same-keys");
        let opts = small_segments(&dir);
        let keys = |tier: &DiskTier| {
            let mut keys: Vec<String> = tier.entries().into_iter().map(|e| e.key).collect();
            keys.sort();
            keys
        };
        let tier = DiskTier::open(&opts).unwrap();
        for i in 0..40 {
            // Every third key is overwritten later: its old record is
            // garbage the scan must lose to the newer one.
            tier.insert(
                &format!("h/{}", i % 30),
                entry(&"x".repeat(300 + i), "v", 0, 10),
            );
        }
        let live = keys(&tier);
        assert!(tier.disk_stats().retired_segments > 0 && !live.is_empty());
        drop(tier);
        let tier = DiskTier::open(&opts).unwrap();
        assert_eq!(keys(&tier), live);
        assert_eq!(tier.disk_stats().recovered, live.len() as u64);
        for key in &live {
            assert!(tier.get(key).is_some(), "{key}: indexed but unreadable");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
