//! Allocation budget for the message types and the paths that copy
//! them.
//!
//! A `Request`/`Response` is copied at every hop — edge store lookup,
//! edge replay, service-worker and HTTP-cache store and lookup — so
//! what one copy costs multiplies into every page visit. Header names
//! are static, values and the field list are shared, and the body is
//! one shared allocation that carries its digest and its links: a
//! clone is reference-count increments and nothing else, and a body
//! that has been read once is not parsed again. These tests pin that
//! with a counting allocator, so a reintroduced per-header or per-link
//! allocation fails here and not in the next benchmark run. The
//! allocator counts bytes requested as well as calls: a body copied
//! once more than the design needs is one call and a whole body's
//! bytes, which only the second count shows.
//!
//! The counter is per thread: `cargo test` runs tests on parallel
//! threads, and each test only reads what its own thread allocated.
//! CI runs this file in release (`cargo test --release --test
//! alloc_budget`). Debug builds check the body's memo by extracting
//! links afresh on every read (see `httpwire::body`), which costs the
//! very allocations the memo saves: there the page-load pins are
//! looser and the repeat-discover pin does not apply. All were
//! measured with the `vendor/` stand-ins, whose `Bytes` allocates
//! where the real crate's does (a reference count for a buffer that
//! is shared, nothing for a static or empty one, no copy on `from` a
//! `Vec`, `freeze` or `slice`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cachecatalyst::browser::profile;
use cachecatalyst::edge::store::{DiskTier, DiskTierOptions, StoredEntry};
use cachecatalyst::edge::EdgeCache;
use cachecatalyst::prelude::*;
use cachecatalyst::webmodel::EXAMPLE_HOST;
use cachecatalyst_bench::runner::ClientKind;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

/// Counts the `alloc` and `realloc` calls made by the calling thread,
/// and the bytes they ask for.
struct CountingAllocator;

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = REQUESTED.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are thread-local `Cell`s
// with const initializers, so touching them neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, allocations, _) = footprint_in(f);
    (out, allocations)
}

/// Allocations this thread makes while running `f`, and the bytes they
/// ask for in total (a `realloc` asks for its new size).
fn footprint_in<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), REQUESTED.with(Cell::get));
    let out = f();
    let after = (ALLOCATIONS.with(Cell::get), REQUESTED.with(Cell::get));
    (out, after.0 - before.0, after.1 - before.1)
}

const TEN_HEADERS: [(&str, &str); 10] = [
    ("content-type", "text/css"),
    ("date", "Thu, 01 Jan 1970 00:00:00 GMT"),
    ("last-modified", "Thu, 01 Jan 1970 00:00:00 GMT"),
    ("etag", "\"0123456789abcdef\""),
    ("cache-control", "public, max-age=604800"),
    ("expires", "Thu, 08 Jan 1970 00:00:00 GMT"),
    ("server", "cachecatalyst-origin"),
    ("vary", "accept"),
    ("x-served-by", "cachecatalyst-edge"),
    (
        "x-not-a-listed-name",
        "an unlisted name is shared, not copied",
    ),
];

#[test]
fn cloning_a_ten_header_message_allocates_nothing() {
    let mut resp = Response::ok(vec![7u8; 4096]);
    let mut req = Request::get("/assets/app.css?v=3");
    for (name, value) in TEN_HEADERS {
        resp.headers.append(name, value);
        req.headers.append(name, value);
    }
    assert!(resp.headers.len() >= 10 && req.headers.len() == 10);
    // The real `bytes` crate turns a `Vec`-backed body into a shared
    // one on its first clone; every later clone is what is pinned.
    drop(resp.clone());

    let (copy, allocations) = allocations_in(|| resp.clone());
    assert_eq!(allocations, 0, "Response::clone allocated");
    assert_eq!(copy, resp);

    let (copy, allocations) = allocations_in(|| req.clone());
    assert_eq!(allocations, 0, "Request::clone allocated");
    assert_eq!(copy, req);
}

#[test]
fn a_written_clone_pays_for_the_field_list_only() {
    let mut resp = Response::ok("body");
    for (name, value) in TEN_HEADERS {
        resp.headers.append(name, value);
    }
    let mut copy = resp.clone();
    // The copied list (its `Arc` and its buffer, plus one growth for
    // the new line) and the new value; none of the eleven shared
    // strings.
    let (_, allocations) = allocations_in(|| copy.headers.insert("age", "5"));
    assert!(allocations <= 4, "copy-on-write insert: {allocations}");
    assert_eq!(resp.headers.get("age"), None);
    assert_eq!(copy.headers.get("age"), Some("5"));
}

/// A response parsed out of the bytes it arrived in. From a shared
/// `Bytes` its body is a view of them, so the parse asks only for the
/// head: its eleven fields (ten plus `content-length`) in one `Vec` and
/// one map, their values, the one unlisted name (lowercased, then
/// shared) and the body's cell — 16 allocations and 1,155 bytes,
/// measured in debug and release alike. From a borrowed `&[u8]` the
/// body is copied out: one 32 KiB buffer more, and the reference count
/// `Bytes` puts it under (18 and 33,963). Before, both parses copied
/// the body and grew the map a line at a time: 21 allocations, 34,658
/// bytes. Pinned at what was measured.
const HEAD_PARSE_BUDGET: u64 = 16;
const BODY_COPY_SLACK_BYTES: u64 = 64;

#[test]
fn parsing_a_response_from_its_bytes_copies_no_body() {
    use cachecatalyst::httpwire::{codec, ParseLimits};
    const BODY: u64 = 32 << 10;
    let mut resp = Response::ok(vec![7u8; BODY as usize]);
    for (name, value) in TEN_HEADERS {
        resp.headers.append(name, value);
    }
    let wire = codec::encode_response(&resp);
    let limits = ParseLimits::default();

    let (view, allocations, view_bytes) =
        footprint_in(|| codec::parse_response(&wire, &Method::Get, &limits));
    assert!(
        view_bytes < BODY,
        "a parse from Bytes asked for {view_bytes} bytes: the {BODY}-byte body was copied"
    );
    assert!(
        allocations <= HEAD_PARSE_BUDGET,
        "{allocations} allocations to parse a ten-header head (budget {HEAD_PARSE_BUDGET})"
    );

    let (copy, _, copy_bytes) =
        footprint_in(|| codec::parse_response(&wire[..], &Method::Get, &limits));
    assert_eq!(copy, view);
    let extra = copy_bytes - view_bytes;
    assert!(
        (BODY..=BODY + BODY_COPY_SLACK_BYTES).contains(&extra),
        "a parse from &[u8] asked for {extra} bytes more than one from Bytes, not one {BODY}-byte body"
    );
}

/// A DRAM hit hands out the stored entry's handle and serves the head
/// the version's first hit stamped, so what is left is the request's
/// key: one allocation a hit, plus the stamped head over the hundred,
/// which rounds the count up to 2, in debug and release alike (6 when a
/// hit copied the entry and stamped a copy of its head; 47 before
/// messages shared their fields). Pinned at the next count up.
const EDGE_HIT_BUDGET: u64 = 3;

#[test]
fn an_edge_dram_hit_stays_inside_its_budget() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let edge = EdgeCache::new(origin);
    let req = Request::get("/a.css")
        .with_header("host", EXAMPLE_HOST)
        .with_header("user-agent", "cachecatalyst-browser/0.1")
        .with_header("referer", "http://example.org/index.html");
    let miss = edge.handle(EXAMPLE_HOST, &req, 0);
    assert_eq!(miss.status, StatusCode::OK);

    const HITS: u64 = 100;
    let (_, allocations) = allocations_in(|| {
        for _ in 0..HITS {
            let hit = edge.handle(EXAMPLE_HOST, &req, 0);
            assert_eq!(hit.body, miss.body);
        }
    });
    assert_eq!(edge.metrics().hits, HITS);
    let per_hit = allocations.div_ceil(HITS);
    assert!(
        per_hit <= EDGE_HIT_BUDGET,
        "{per_hit} allocations per DRAM hit (budget {EDGE_HIT_BUDGET})"
    );
}

/// A forwarded catalyst page: the edge passes the base HTML through
/// (it never stores a page) and applies the page's map to what it
/// holds, here the two stored subresources the map names. The origin's
/// warm page (6, pinned above) is inside the count. Measured 11, in
/// debug and release alike, once the map was read without joining its
/// lines and digested as it was read, and marked through one key
/// buffer (21 before); pinned ~10 % above.
const EDGE_PAGE_BUDGET: u64 = 12;

#[test]
fn an_edge_forwarding_a_catalyst_page_applies_its_map_inside_its_budget() {
    let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Catalyst));
    let edge = EdgeCache::new(origin);
    let get = |path: &str| Request::get(path).with_header("host", EXAMPLE_HOST);
    for path in ["/a.css", "/b.js"] {
        assert_eq!(
            edge.handle(EXAMPLE_HOST, &get(path), 0).status,
            StatusCode::OK
        );
    }
    let page = get("/index.html");
    edge.handle(EXAMPLE_HOST, &page, 1);

    const PAGES: u64 = 100;
    let marks = edge.metrics().marks_fresh;
    let (_, allocations) = allocations_in(|| {
        for _ in 0..PAGES {
            let resp = edge.handle(EXAMPLE_HOST, &page, 1);
            assert!(resp.headers.contains("x-etag-config"));
        }
    });
    assert_eq!(edge.metrics().marks_fresh - marks, 2 * PAGES);
    let per_page = allocations.div_ceil(PAGES);
    assert!(
        per_page <= EDGE_PAGE_BUDGET,
        "{per_page} allocations per forwarded page (budget {EDGE_PAGE_BUDGET})"
    );
}

/// A disk-tier hit is one read into one allocation and a demotion is
/// one buffer: beyond the record itself, each may ask the allocator
/// for the small things only (the parsed head, the index key, the
/// reference counts). Measured on a 65,978-byte record with ten
/// headers: a demotion asks for 10 bytes more than the record in 2
/// calls, the record and the index key (197,860 bytes in 4 calls
/// before the record was encoded in place: three copies of the body);
/// a hit for 1,211 more in 19 since the head is parsed into one `Vec`
/// (1,906 in 22 before; 133,491 in 25 before the served body became a
/// view of the record: two copies). The hit is pinned ~10 % above.
const DISK_TIER_SLACK_BYTES: u64 = 2048;
const DISK_HIT_BUDGET: u64 = 21;
const DISK_DEMOTION_BUDGET: u64 = 3;

#[test]
fn a_disk_tier_hit_and_a_demotion_each_cost_one_record() {
    let dir = std::env::temp_dir().join(format!("cc-alloc-budget-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tier = DiskTier::open(&DiskTierOptions::at(&dir)).expect("disk tier opens");
    let entry = || {
        let mut resp = Response::ok(vec![7u8; 64 << 10]);
        for (name, value) in TEN_HEADERS {
            resp.headers.append(name, value);
        }
        let etag = resp.etag();
        StoredEntry::positive(resp, etag, 0, 100)
    };
    // The first insert and the first hit also pay for the index's
    // table and for opening the segment's read handle.
    assert!(tier.insert("h/warm.bin", entry()));
    assert!(tier.get("h/warm.bin").is_some());
    let record_len = tier.disk_stats().written_bytes;
    assert!(record_len > 64 << 10);

    let demoted = entry();
    let (written, allocations, bytes) = footprint_in(|| tier.insert("h/next.bin", demoted));
    assert!(written);
    assert_eq!(tier.disk_stats().written_bytes, 2 * record_len);
    assert!(
        bytes <= record_len + DISK_TIER_SLACK_BYTES,
        "a demotion of a {record_len}-byte record asked for {bytes} bytes"
    );
    assert!(
        allocations <= DISK_DEMOTION_BUDGET,
        "{allocations} allocations per demotion (budget {DISK_DEMOTION_BUDGET})"
    );

    let (hit, allocations, bytes) = footprint_in(|| tier.get("h/next.bin"));
    assert_eq!(hit.expect("a disk hit").response, entry().response);
    assert!(
        bytes <= record_len + DISK_TIER_SLACK_BYTES,
        "a hit on a {record_len}-byte record asked for {bytes} bytes"
    );
    assert!(
        allocations <= DISK_HIT_BUDGET,
        "{allocations} allocations per disk hit (budget {DISK_HIT_BUDGET})"
    );
    drop(tier);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One warm `OriginServer::handle` of the example page at a second it
/// has not been asked about before (same churn epoch, so the head and
/// the map come from the epoch caches). Measured 6 / 6 / 7 in release,
/// once heads were built per epoch (25 / 28 / 29 before; capture mode
/// still serializes a merged map per request). Pinned one above.
const ORIGIN_PAGE_BUDGETS: [(HeaderMode, u64); 3] = [
    (HeaderMode::Baseline, 7),
    (HeaderMode::Catalyst, 7),
    (HeaderMode::CatalystAggregate, 8),
];

#[test]
fn a_warm_origin_page_stays_inside_its_budget_in_every_header_mode() {
    for (mode, budget) in ORIGIN_PAGE_BUDGETS {
        let origin = OriginServer::new(example_site(), mode);
        let req = Request::get("/index.html").with_header("host", EXAMPLE_HOST);
        assert_eq!(origin.handle(&req, 0).status, StatusCode::OK);

        const PAGES: u64 = 100;
        let (_, allocations) = allocations_in(|| {
            for t in 1..=PAGES as i64 {
                assert_eq!(origin.handle(&req, t).status, StatusCode::OK);
            }
        });
        let per_page = allocations.div_ceil(PAGES);
        assert!(
            per_page <= budget,
            "{}: {per_page} allocations per page (budget {budget})",
            mode.label()
        );
    }
}

/// The same for a warm catalyst asset, answered in full and as a 304
/// to its current ETag (the 304 also parses the request's
/// `If-None-Match`). Measured 6 and 9 (25 and 20 before); pinned one
/// above. `(what, conditional, budget)`.
const ORIGIN_ASSET_BUDGETS: [(&str, bool, u64); 2] = [("asset 200", false, 7), ("304", true, 10)];

#[test]
fn a_warm_origin_asset_and_a_304_stay_inside_their_budgets() {
    let origin = OriginServer::new(example_site(), HeaderMode::Catalyst);
    let get = Request::get("/a.css").with_header("host", EXAMPLE_HOST);
    let tag = origin
        .handle(&get, 0)
        .etag()
        .expect("an asset carries its ETag");
    for (what, conditional, budget) in ORIGIN_ASSET_BUDGETS {
        let (req, status) = if conditional {
            let req = get.clone().with_header("if-none-match", &tag.to_string());
            (req, StatusCode::NOT_MODIFIED)
        } else {
            (get.clone(), StatusCode::OK)
        };
        const REQUESTS: u64 = 100;
        let (_, allocations) = allocations_in(|| {
            for t in 1..=REQUESTS as i64 {
                assert_eq!(origin.handle(&req, t).status, status);
            }
        });
        let per_request = allocations.div_ceil(REQUESTS);
        assert!(
            per_request <= budget,
            "{what}: {per_request} allocations per request (budget {budget})"
        );
    }
}

/// A rendered body is written into one buffer of its final size: for
/// a 50 KB image, the buffer and the reference count `Bytes` puts it
/// under (2 calls, 50,040 bytes). Before, the last 8-byte draw
/// overflowed the buffer whenever the stream did not end on a draw
/// boundary, as here, and the doubled buffer was shrunk back: 200,115
/// bytes asked for.
const RENDER_SLACK_BYTES: u64 = 64;

#[test]
fn rendering_a_50_kb_image_asks_for_one_exact_size_buffer() {
    use cachecatalyst::webmodel::content::render_body;
    use cachecatalyst::webmodel::{ChangeModel, Discovery, ResourceKind, ResourceSpec};
    const SIZE: u64 = 50_000;
    let spec = ResourceSpec::leaf(
        "/d.jpg",
        ResourceKind::Image,
        SIZE,
        Discovery::Base,
        ChangeModel::Immutable,
    );
    let (body, allocations, bytes) =
        footprint_in(|| render_body(EXAMPLE_HOST, &spec, 3, &|p| p.to_owned()));
    assert_eq!(body.len() as u64, SIZE);
    assert!(
        bytes <= SIZE + RENDER_SLACK_BYTES,
        "a {SIZE}-byte image asked for {bytes} bytes"
    );
    assert!(allocations <= 2, "{allocations} allocations for one image");
}

/// Allocations per page visit of a small seeded `run_fleet` day (60
/// users, 4 sites, 6 hours: 115 visits per mode), with the replay's
/// set-up — corpus, servers, edge — measured on the same trace with
/// no events and taken off. The whole stack is inside the count:
/// browser, edge and origin. Measured (release / debug): baseline 771
/// / 833, catalyst 927 / 1,000, once the simulator handed back the
/// engine's own events instead of tokens it looked up in a table
/// (775 / 836 and 931 / 1,003 before; release 1,005 and 1,227 before
/// origin heads were built per epoch). Pinned ~10 % above.
const FLEET_VISIT_BUDGETS: [(ClientKind, u64); 2] = if cfg!(debug_assertions) {
    [(ClientKind::Baseline, 916), (ClientKind::Catalyst, 1_100)]
} else {
    [(ClientKind::Baseline, 848), (ClientKind::Catalyst, 1_020)]
};

#[test]
fn a_fleet_visit_stays_inside_its_budget() {
    use cachecatalyst::webmodel::workload::{generate, WorkloadSpec};
    use cachecatalyst_bench::fleet::{run_fleet, FleetOptions};
    let trace = generate(&WorkloadSpec {
        users: 60,
        sites: 4,
        horizon_secs: 6 * 3600,
        seed: 13,
        ..WorkloadSpec::default()
    });
    let mut setup_only = trace.clone();
    setup_only.events.clear();
    for (kind, budget) in FLEET_VISIT_BUDGETS {
        let opts = FleetOptions {
            kind,
            ..FleetOptions::default()
        };
        let (_, setup) = allocations_in(|| run_fleet(&setup_only, &opts));
        let (report, total) = allocations_in(|| run_fleet(&trace, &opts));
        assert_eq!(report.visits, 115);
        let per_visit = (total - setup).div_ceil(report.visits);
        assert!(
            per_visit <= budget,
            "{kind:?}: {per_visit} allocations per visit (budget {budget})"
        );
    }
}

/// One warm `Browser::load` of the example site (five resources), two
/// virtual hours after the cold load. Pinned ~10 % above what was
/// measured once the simulator handed back the engine's own events
/// instead of tokens it looked up in a table (release: baseline 205,
/// catalyst 279, from 206 and 280; debug, with the memo's self-check:
/// 230 and 308, from 231 and 309). Bodies carrying their links had
/// taken release from 252 and 394 to 226 and 333. The origin's work is
/// inside the count: it is called in-process.
const WARM_BASELINE_LOAD_BUDGET: u64 = if cfg!(debug_assertions) { 253 } else { 226 };
const WARM_CATALYST_LOAD_BUDGET: u64 = if cfg!(debug_assertions) { 339 } else { 307 };

fn warm_load_allocations(mut browser: Browser, mode: HeaderMode) -> u64 {
    let origin = Arc::new(OriginServer::new(example_site(), mode));
    let cond = NetworkConditions::five_g_median();
    let base = Url::parse("http://example.org/index.html").expect("literal URL");
    let cold = browser.load(&origin, cond, &base, 0);
    assert_eq!(cold.full_transfers, 5);
    let (warm, allocations) = allocations_in(|| browser.load(&origin, cond, &base, 2 * 3600));
    assert_eq!(warm.trace.fetches.len(), 5);
    allocations
}

#[test]
fn a_warm_baseline_load_stays_inside_its_budget() {
    let allocations = warm_load_allocations(Browser::baseline(), HeaderMode::Baseline);
    assert!(
        allocations <= WARM_BASELINE_LOAD_BUDGET,
        "{allocations} allocations (budget {WARM_BASELINE_LOAD_BUDGET})"
    );
}

#[test]
fn a_warm_catalyst_load_stays_inside_its_budget() {
    let allocations = warm_load_allocations(Browser::catalyst(), HeaderMode::Catalyst);
    assert!(
        allocations <= WARM_CATALYST_LOAD_BUDGET,
        "{allocations} allocations (budget {WARM_CATALYST_LOAD_BUDGET})"
    );
}

/// A body that has been through `discover` once — here as in every
/// cache hit and every repeat delivery of an epoch's allocation —
/// costs the returned list and nothing per link: no parse, no string
/// per reference, no URL join.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds extract afresh on every read to check the memo"
)]
fn a_repeat_discover_of_the_same_body_allocates_the_list_only() {
    let origin = OriginServer::new(example_site(), HeaderMode::Baseline);
    for (path, links) in [("/index.html", 2), ("/b.js", 1), ("/a.css", 0)] {
        let url = Url::parse(&format!("http://example.org{path}")).expect("literal URL");
        let body = origin.handle(&Request::get(path), 0).body;
        let first = profile::discover(&url, &body);
        assert_eq!(first.len(), links, "{path}");
        let (again, allocations) = allocations_in(|| profile::discover(&url, &body.clone()));
        assert_eq!(again, first);
        assert!(
            allocations <= 1,
            "{path}: {allocations} allocations for {links} links"
        );
    }
}
