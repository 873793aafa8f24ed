//! Flood and crash tests for the persistent disk tier.
//!
//! * **Once-requested keys** — driven through `EdgeCache::handle`
//!   (two store lookups per miss, as in production), a flood of keys
//!   requested once each ends up on disk and is served from there;
//!   cached 404s never are, and nothing is written twice.
//! * **Crash-mid-write** — a torn record at the segment tail (the
//!   bytes a crash cut short) is discarded by the boot scan; every
//!   record before it survives byte-for-byte, and the reopened tier
//!   appends cleanly over the truncation point.
//! * **Format** — a segment written with the previous record magic
//!   and FNV-1a sum is foreign: it recovers to an empty tier that
//!   still accepts appends. A one-bit flip inside a record body is
//!   caught by the XXH64 sum on the read path (the request falls
//!   through to the origin) and again by the boot scan. And the
//!   reverse: what the tier writes is, byte for byte, the record built
//!   the way it was before the tier encoded into one buffer.
//! * **Failed append** — an append the kernel cuts short (the
//!   process's file-size limit: a short write, then `EFBIG`) leaves no
//!   partial record behind: every later record in the segment is
//!   served, accounted and recovered.
//! * **Content facts stop at the record** — a digest remembered on a
//!   DRAM-resident body does not follow it to disk: a clean disk read
//!   is a new allocation that is digested again, a damaged one is
//!   rejected by the record sum before anyone asks.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use cachecatalyst_edge::store::{DiskTierOptions, StoreOptions, TierHit, TieredStore};
use cachecatalyst_edge::{EdgeCache, Upstream};
use cachecatalyst_httpwire::hash::{fnv1a64, xxh64};
use cachecatalyst_httpwire::{codec, Request, Response, StatusCode};
use cachecatalyst_telemetry::{CacheDecision, Event, Recorder};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn scratch_dir(name: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "cc-edge-disk-it-{}-{name}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A store whose DRAM front holds nothing: every insert lands on
/// disk, which is exactly what these tests probe.
fn disk_only(dir: &PathBuf) -> TieredStore {
    StoreOptions::new()
        .mem_budget(0)
        .disk(DiskTierOptions::at(dir))
        .build()
        .expect("disk tier opens")
}

fn body_response(key: &str, tag: &str) -> Response {
    Response::ok(format!("body-of-{key}").repeat(8).into_bytes())
        .with_header("etag", &format!("\"{tag}\""))
}

/// One cache-shaped access: a lookup followed, on miss, by a store.
fn touch(store: &TieredStore, key: &str) {
    if store.get(key).is_none() {
        let resp = body_response(key, "v1");
        let etag = resp.etag();
        store.insert(key, resp, etag, 0, 100);
    }
}

/// The newest segment file in `dir` (highest sequence number) — the
/// one a crash would tear.
fn newest_segment(dir: &PathBuf) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tier directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment file")
}

#[test]
fn crash_mid_write_discards_torn_tail_and_preserves_prefix() {
    let dir = scratch_dir("torn");
    let keys: Vec<String> = (0..6).map(|i| format!("h/c-{i}")).collect();
    {
        let store = disk_only(&dir);
        for key in &keys {
            touch(&store, key);
        }
        assert_eq!(store.disk_stats().unwrap().objects, keys.len());
    } // process "exits" — nothing is flushed beyond the appends

    // The crash: the last record loses its tail (checksum and part of
    // the body never reached the platter).
    let seg = newest_segment(&dir);
    let len = std::fs::metadata(&seg).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    file.set_len(len - 11).unwrap();
    drop(file);

    // Boot scan: the torn record is discarded, everything before it
    // survives byte-for-byte.
    let store = disk_only(&dir);
    let stats = store.disk_stats().unwrap();
    assert_eq!(stats.recovered, keys.len() as u64 - 1);
    assert!(
        store.get(&keys[keys.len() - 1]).is_none(),
        "torn record served"
    );
    for key in &keys[..keys.len() - 1] {
        let entry = store.get(key).expect("intact record lost");
        assert_eq!(
            &entry.response.body[..],
            &body_response(key, "v1").body[..],
            "{key}: corrupted bytes after recovery"
        );
        assert_eq!(
            entry.meta.fresh_until,
            i64::MIN,
            "{key}: a recovered entry must come back stale"
        );
    }

    // The reopened tier appends over the truncation point cleanly...
    touch(&store, "h/after-crash");
    assert!(store.get("h/after-crash").is_some());
    drop(store);

    // ...and a second clean reopen recovers old prefix + new record.
    let store = disk_only(&dir);
    assert_eq!(
        store.disk_stats().unwrap().recovered,
        keys.len() as u64, // 5 surviving + 1 post-crash append
    );
    assert!(store.get("h/after-crash").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// One record as PR 10 wrote it: magic `0xED6E5E61`, the fixed header,
/// key, wire-form response, trailing FNV-1a sum over all of it.
fn previous_format_record(key: &str, resp: &Response) -> Vec<u8> {
    let wire = codec::encode_response(resp);
    let mut rec = Vec::new();
    rec.extend_from_slice(&0xED6E_5E61_u32.to_le_bytes());
    rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
    rec.extend_from_slice(&(wire.len() as u32).to_le_bytes());
    rec.extend_from_slice(&0_i64.to_le_bytes()); // validated_at
    rec.extend_from_slice(&100_i64.to_le_bytes()); // fresh_until
    rec.extend_from_slice(&0_u32.to_le_bytes()); // flags
    rec.extend_from_slice(key.as_bytes());
    rec.extend_from_slice(&wire);
    let sum = fnv1a64(&rec);
    rec.extend_from_slice(&sum.to_le_bytes());
    rec
}

#[test]
fn previous_format_segment_recovers_empty_and_accepts_appends() {
    let dir = scratch_dir("old-format");
    std::fs::create_dir_all(&dir).unwrap();
    let keys: Vec<String> = (0..4).map(|i| format!("h/old-{i}")).collect();
    let segment: Vec<u8> = keys
        .iter()
        .flat_map(|key| previous_format_record(key, &body_response(key, "v1")))
        .collect();
    std::fs::write(dir.join("seg-00000000.seg"), &segment).unwrap();

    let store = disk_only(&dir);
    let stats = store.disk_stats().unwrap();
    assert_eq!(stats.recovered, 0, "foreign records were indexed");
    assert_eq!(stats.objects, 0);
    for key in &keys {
        assert!(
            store.get(key).is_none(),
            "{key}: served from a foreign record"
        );
    }

    // The foreign bytes were cut away, so new records land at a clean
    // boundary and survive a reopen.
    touch(&store, "h/new");
    assert_eq!(
        &store
            .get("h/new")
            .expect("append after recovery")
            .response
            .body[..],
        &body_response("h/new", "v1").body[..]
    );
    drop(store);
    let store = disk_only(&dir);
    assert_eq!(store.disk_stats().unwrap().recovered, 1);
    assert!(store.get("h/new").is_some());
    assert!(store.get(&keys[0]).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn what_the_tier_writes_is_the_record_built_the_old_way() {
    let dir = scratch_dir("format");
    let keys: Vec<String> = (0..5).map(|i| format!("h/fmt-{i}")).collect();
    {
        let store = disk_only(&dir);
        for key in &keys {
            touch(&store, key);
        }
    }
    // The layout of `previous_format_record` (header ‖ key ‖
    // `codec::encode_response` ‖ sum, each part built on its own and
    // then copied together) under today's magic and XXH64.
    let expected: Vec<u8> = keys
        .iter()
        .flat_map(|key| {
            let mut rec = previous_format_record(key, &body_response(key, "v1"));
            rec[..4].copy_from_slice(&0xED6E_5E62_u32.to_le_bytes());
            let payload = rec.len() - 8;
            let sum = xxh64(&rec[..payload]);
            rec[payload..].copy_from_slice(&sum.to_le_bytes());
            rec
        })
        .collect();
    assert_eq!(std::fs::read(newest_segment(&dir)).unwrap(), expected);

    // And such bytes, written by anyone, are recovered in full.
    let copy = scratch_dir("format-copy");
    std::fs::create_dir_all(&copy).unwrap();
    std::fs::write(copy.join("seg-00000000.seg"), &expected).unwrap();
    let store = disk_only(&copy);
    assert_eq!(store.disk_stats().unwrap().recovered, keys.len() as u64);
    for key in &keys {
        assert_eq!(
            store.get(key).expect("record lost").response,
            body_response(key, "v1")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
}

/// An origin with one fixed cacheable body per path (a 404 under
/// `/gone`), counting the requests that reach it.
#[derive(Default)]
struct CountingOrigin {
    requests: AtomicU64,
}

impl CountingOrigin {
    fn body(path: &str) -> Vec<u8> {
        format!("<{path}>").repeat(500).into_bytes()
    }
}

impl Upstream for CountingOrigin {
    fn handle(&self, _host: &str, req: &Request, _t_secs: i64) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if req.target.path().starts_with("/gone") {
            return Response::empty(StatusCode::NOT_FOUND);
        }
        Response::ok(Self::body(req.target.path()))
            .with_header("etag", "\"v1\"")
            .with_header("cache-control", "max-age=3600")
    }
}

fn disk_only_edge(dir: &PathBuf) -> EdgeCache<CountingOrigin> {
    EdgeCache::builder(CountingOrigin::default())
        .store(
            StoreOptions::new()
                .mem_budget(0)
                .disk(DiskTierOptions::at(dir)),
        )
        .build()
}

#[test]
fn once_requested_keys_reach_the_disk_and_are_served_from_it() {
    let dir = scratch_dir("flood");
    let recorder = Arc::new(Recorder::new());
    // DRAM for about three bodies in front of the disk tier.
    let edge = EdgeCache::builder(CountingOrigin::default())
        .store(
            StoreOptions::new()
                .mem_budget(3 * CountingOrigin::body("/once-00.bin").len() + 1024)
                .shards(1)
                .disk(DiskTierOptions::at(&dir)),
        )
        .recorder(recorder.clone())
        .build();
    let (positives, negatives) = (40u64, 10u64);
    let once = |i: u64| format!("/once-{i:02}.bin");

    // The flood: every key exactly once, a 404 after every fourth.
    for i in 0..positives {
        edge.handle("h", &Request::get(&once(i)), 10);
        if i % 4 == 3 {
            edge.handle("h", &Request::get(&format!("/gone-{i:02}")), 10);
        }
    }
    let upstream = || edge.upstream().requests.load(Ordering::Relaxed);
    assert_eq!(upstream(), positives + negatives);
    recorder.take();

    // Every flooded key comes back from the segment files.
    for i in 0..positives {
        let resp = edge.handle("h", &Request::get(&once(i)), 11);
        assert_eq!(&resp.body[..], &CountingOrigin::body(&once(i))[..]);
    }
    assert_eq!(
        upstream(),
        positives + negatives,
        "a disk hit went upstream"
    );
    let decisions: Vec<CacheDecision> = recorder
        .take()
        .iter()
        .filter_map(|e| match e {
            Event::CacheDecision { audit, .. } => Some(audit.decision),
            _ => None,
        })
        .collect();
    assert_eq!(
        decisions,
        vec![CacheDecision::EdgeDiskHit; positives as usize]
    );

    // What the tiers hold afterwards, from the inspector's rows.
    let inspect = edge.inspect(11);
    let rows = |tier: &str, negative: bool| {
        let (tier, negative) = (
            format!("\"tier\": \"{tier}\""),
            format!("\"negative\": {negative}"),
        );
        inspect
            .lines()
            .filter(|l| l.contains(&tier) && l.contains(&negative))
            .count() as u64
    };
    assert_eq!(rows("disk", true), 0, "a cached 404 was demoted");
    assert_eq!(rows("disk", false), positives);

    // An eviction is a cached 404 (dropped), a key on its way out of
    // DRAM for the first time (written), or a promoted key leaving
    // again (its record is already there): each key is written once.
    let m = edge.metrics();
    let dropped_404s = negatives - rows("mem", true);
    let already_on_disk = m.promotions - rows("mem", false);
    assert_eq!(m.demotions, positives);
    assert_eq!(m.evictions - dropped_404s - already_on_disk, m.demotions);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whether the edge's registry shows exactly one failed disk read.
fn one_read_error_counted(edge: &EdgeCache<CountingOrigin>) -> bool {
    edge.metrics(); // syncs the store's counters into the registry
    edge.telemetry()
        .render_prometheus()
        .contains("edge_disk_read_errors_total 1\n")
}

#[test]
fn one_flipped_bit_is_caught_on_read_and_on_boot_scan() {
    let dir = scratch_dir("bitflip");
    let get = |edge: &EdgeCache<CountingOrigin>, path: &str| {
        let resp = edge.handle("h", &Request::get(path), 10);
        assert_eq!(
            &resp.body[..],
            &CountingOrigin::body(path)[..],
            "{path}: wrong bytes served"
        );
    };
    let edge = disk_only_edge(&dir);
    get(&edge, "/a.bin");
    get(&edge, "/b.bin");
    get(&edge, "/b.bin");
    assert_eq!(edge.upstream().requests.load(Ordering::Relaxed), 2);
    assert_eq!(edge.metrics().disk_hits, 1, "the repeat is a disk hit");

    // Flip one bit in the middle of /b.bin's stored body (the second
    // record of the segment), leaving its trailing sum alone.
    let seg = newest_segment(&dir);
    let mut bytes = std::fs::read(&seg).unwrap();
    let needle = CountingOrigin::body("/b.bin");
    let at = bytes
        .windows(needle.len())
        .position(|w| w == &needle[..])
        .expect("stored body found in the segment");
    bytes[at + needle.len() / 2] ^= 0x10;
    std::fs::write(&seg, &bytes).unwrap();

    // Read path: the sum no longer matches, the entry is dropped and
    // the request falls through to the origin with the right bytes.
    get(&edge, "/b.bin");
    assert_eq!(edge.upstream().requests.load(Ordering::Relaxed), 3);
    assert!(
        one_read_error_counted(&edge),
        "the failed read was not counted"
    );
    get(&edge, "/a.bin");
    assert_eq!(
        edge.upstream().requests.load(Ordering::Relaxed),
        3,
        "the undamaged record still serves"
    );
    drop(edge);

    // Boot scan: the damaged record still sits in the file (reads
    // never rewrite segments); the scan stops there, keeping only the
    // record before it.
    let edge = disk_only_edge(&dir);
    assert_eq!(edge.metrics().disk_recovered, 1);
    get(&edge, "/b.bin");
    assert_eq!(
        edge.upstream().requests.load(Ordering::Relaxed),
        1,
        "a damaged record was served after the restart"
    );
    assert!(
        !one_read_error_counted(&edge),
        "the scan, not a read, rejected it"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_remembered_digest_does_not_cross_the_disk_record() {
    let dir = scratch_dir("facts");
    let unit = body_response("h/0", "v1").wire_len();
    let store = StoreOptions::new()
        .mem_budget(unit * 2 + unit / 2)
        .shards(1)
        .disk(DiskTierOptions::at(&dir))
        .build()
        .expect("hybrid store opens");
    let put = |key: &str| {
        let resp = body_response(key, "v1");
        let served = resp.body.clone();
        let etag = resp.etag();
        store.insert(key, resp, etag, 0, 100);
        served
    };

    // Warm the digest while the bodies sit in DRAM: the store holds
    // the allocation the caller digested, so it sees the value too.
    let (clean, damaged) = (put("h/0"), put("h/1"));
    let want = clean.digest();
    damaged.digest();
    let (entry, hit) = store.get_traced("h/0").unwrap();
    assert_eq!(hit, TierHit::Mem);
    assert!(entry.response.body.shares_allocation_with(&clean));
    assert_eq!(entry.response.body.known_digest(), Some(want));

    // Two more inserts push both out of DRAM and onto disk.
    put("h/2");
    put("h/3");
    assert_eq!(store.counters().demotions, 2);

    // Flip one bit in h/1's stored body, leaving its trailing sum alone.
    let seg = newest_segment(&dir);
    let mut bytes = std::fs::read(&seg).unwrap();
    let at = bytes
        .windows(damaged.len())
        .position(|w| w == &damaged[..])
        .expect("stored body found in the segment");
    bytes[at + damaged.len() / 2] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();

    // The damaged record is rejected by its sum: the digest the DRAM
    // copy remembered vouches for nothing that comes back from disk.
    assert!(store.get("h/1").is_none(), "a damaged record was served");
    assert_eq!(store.disk_stats().unwrap().read_errors, 1);

    // The clean record reads back as a new allocation with nothing
    // remembered, and digests to the same value once asked.
    let (entry, hit) = store.get_traced("h/0").unwrap();
    assert_eq!(hit, TierHit::Disk);
    let reread = entry.response.body.clone();
    assert_eq!(reread, clean);
    assert!(!reread.shares_allocation_with(&clean));
    assert_eq!(reread.known_digest(), None);
    assert_eq!(reread.digest(), want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Set in the child process [`a_failed_append_leaves_its_segment_serving`]
/// runs its scenario in.
const FSIZE_CHILD: &str = "CC_EDGE_FSIZE_CHILD";

/// Sets this process's soft file-size limit through util-linux
/// `prlimit` (`None`: back up to the hard limit).
fn limit_file_size(bytes: Option<u64>) {
    let pid = format!("--pid={}", std::process::id());
    let soft = match bytes {
        Some(bytes) => bytes.to_string(),
        None => {
            let hard = Command::new("prlimit")
                .args([&pid, "--fsize", "--output=HARD", "--noheadings", "--raw"])
                .output()
                .expect("prlimit runs");
            String::from_utf8(hard.stdout).unwrap().trim().to_owned()
        }
    };
    let set = Command::new("prlimit")
        .args([&pid, &format!("--fsize={soft}:")])
        .status()
        .expect("prlimit runs");
    assert!(set.success(), "prlimit --fsize={soft}: failed");
}

#[test]
fn a_failed_append_leaves_its_segment_serving() {
    if std::env::var_os(FSIZE_CHILD).is_some() {
        return failed_append_in_this_process();
    }
    if Command::new("prlimit").arg("--version").output().is_err() {
        eprintln!("skipped: no util-linux prlimit to set a file-size limit with");
        return;
    }
    // Past its file-size limit a process is sent SIGXFSZ, which kills
    // it; the shell ignores the signal and the test binary inherits
    // that, so the append fails with a short write and then EFBIG.
    let name = "a_failed_append_leaves_its_segment_serving";
    let out = Command::new("bash")
        .args(["-c", "trap '' XFSZ; exec \"$@\"", "bash"])
        .arg(std::env::current_exe().unwrap())
        .args(["--exact", name, "--nocapture", "--test-threads=1"])
        .env(FSIZE_CHILD, "1")
        .output()
        .expect("bash runs");
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn failed_append_in_this_process() {
    let dir = scratch_dir("efbig");
    let store = disk_only(&dir);
    let before: Vec<String> = (0..3).map(|i| format!("h/before-{i}")).collect();
    for key in &before {
        touch(&store, key);
    }
    let seg = newest_segment(&dir);
    let good = std::fs::metadata(&seg).unwrap().len();
    let demotions = store.counters().demotions;

    // The next record fits only partly under the limit.
    limit_file_size(Some(good + 100));
    touch(&store, "h/cut-short");
    limit_file_size(None);
    assert_eq!(store.counters().demotions, demotions, "the append failed");
    assert!(store.get("h/cut-short").is_none());

    // Everything appended to the same segment afterwards is served.
    let after: Vec<String> = (0..5).map(|i| format!("h/after-{i}")).collect();
    for key in &after {
        touch(&store, key);
    }
    assert_eq!(newest_segment(&dir), seg);
    for key in before.iter().chain(&after) {
        let entry = store.get(key).unwrap_or_else(|| panic!("{key} not served"));
        assert_eq!(&entry.response.body[..], &body_response(key, "v1").body[..]);
    }
    let stats = store.disk_stats().unwrap();
    assert_eq!(stats.read_errors, 0);
    let on_disk: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert_eq!(stats.segment_file_bytes, on_disk);
    drop(store);

    // And the boot scan recovers every one of them.
    let store = disk_only(&dir);
    let stats = store.disk_stats().unwrap();
    assert_eq!(stats.recovered, (before.len() + after.len()) as u64);
    for key in before.iter().chain(&after) {
        assert!(store.get(key).is_some(), "{key} lost at reopen");
    }
    assert_eq!(store.disk_stats().unwrap().read_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
