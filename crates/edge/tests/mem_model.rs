//! The DRAM tier against a reference model.
//!
//! `MemTier` keeps recency as an exact LRU list and evicts by popping
//! its head. The model below keeps what it replaced: a sequence stamp
//! per entry, and a scan of the shard for the smallest stamp per
//! victim. Seeded runs of inserts, hits, revalidations, marks and
//! explicit evictions, over one to four shards with budgets a few
//! entries wide and sizes that straddle a shard's budget, must agree
//! after every step on what each call returns, on the victims and their
//! order, on `bytes_held`, `len`, `evictions`, and on the `entries()`
//! rows. The model also holds the refresh rule the list brought with
//! it: a revalidation that grows an entry evicts to budget, and one
//! that grows it past a whole shard evicts the entry itself, so no
//! shard is ever over its budget. A failing run prints its seed and
//! every operation up to the failure.

use std::collections::HashMap;
use std::sync::Arc;

use cachecatalyst_edge::store::{MarkOutcome, MemTier, StoredEntry, Victim};
use cachecatalyst_httpwire::hash::fnv1a64;
use cachecatalyst_httpwire::{EntityTag, Response, StatusCode};
use cachecatalyst_webmodel::stats::SeededRng;

const SEEDS: u64 = 300;
const OPS_PER_SEED: usize = 400;
const KEYS: u64 = 12;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        key: String,
        entry: Spec,
    },
    Get(String),
    Refresh {
        key: String,
        entry: Spec,
    },
    Mark {
        key: String,
        tag: String,
        now: i64,
        fresh_until: i64,
    },
    Evict(String),
}

/// Everything an entry is made from, so an op list prints readably.
#[derive(Debug, Clone)]
struct Spec {
    body: usize,
    /// Extra head bytes: a revalidation that grows the stored head.
    pad: usize,
    tag: Option<String>,
    negative: bool,
    t: i64,
    fresh_until: i64,
}

impl Spec {
    fn build(&self) -> StoredEntry {
        if self.negative {
            return StoredEntry::negative(
                Response::empty(StatusCode::NOT_FOUND),
                self.t,
                self.fresh_until,
            );
        }
        let mut resp = Response::ok(vec![b'x'; self.body]);
        if let Some(tag) = &self.tag {
            resp = resp.with_header("etag", tag);
        }
        if self.pad > 0 {
            resp = resp.with_header("x-pad", &"p".repeat(self.pad));
        }
        let etag = resp.etag();
        StoredEntry::positive(resp, etag, self.t, self.fresh_until)
    }
}

/// The tier as it was: a sequence stamp per entry, the smallest one in
/// the shard (other than the entry just written) evicted first.
struct Model {
    shards: Vec<HashMap<String, (StoredEntry, u64)>>,
    bytes: Vec<usize>,
    budget_per_shard: usize,
    clock: u64,
    evictions: u64,
}

impl Model {
    fn new(budget: usize, shards: usize) -> Model {
        Model {
            shards: (0..shards).map(|_| HashMap::new()).collect(),
            bytes: vec![0; shards],
            budget_per_shard: budget / shards,
            clock: 0,
            evictions: 0,
        }
    }

    fn shard(&self, key: &str) -> usize {
        (fnv1a64(key.as_bytes()) % self.shards.len() as u64) as usize
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn evict_to_budget(&mut self, s: usize, keep: &str) -> Vec<(String, StoredEntry)> {
        let mut victims = Vec::new();
        while self.bytes[s] > self.budget_per_shard {
            let Some(victim) = self.shards[s]
                .iter()
                .filter(|(k, _)| k.as_str() != keep)
                .min_by_key(|(_, (_, seq))| *seq)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let (entry, _) = self.shards[s].remove(&victim).unwrap();
            self.bytes[s] -= entry.size();
            self.evictions += 1;
            victims.push((victim, entry));
        }
        victims
    }

    fn insert(&mut self, key: &str, entry: StoredEntry) -> (bool, Vec<(String, StoredEntry)>) {
        if entry.size() > self.budget_per_shard {
            return (false, Vec::new());
        }
        let (s, seq, size) = (self.shard(key), self.tick(), entry.size());
        if let Some((old, _)) = self.shards[s].insert(key.to_owned(), (entry, seq)) {
            self.bytes[s] -= old.size();
        }
        self.bytes[s] += size;
        (true, self.evict_to_budget(s, key))
    }

    fn get(&mut self, key: &str) -> Option<StoredEntry> {
        let (s, seq) = (self.shard(key), self.tick());
        let (entry, stamp) = self.shards[s].get_mut(key)?;
        *stamp = seq;
        Some(entry.clone())
    }

    fn refresh(&mut self, key: &str, mut entry: StoredEntry) -> Option<Vec<(String, StoredEntry)>> {
        let (s, seq) = (self.shard(key), self.tick());
        let (held, stamp) = self.shards[s].get_mut(key)?;
        entry.meta.negative = held.meta.negative;
        let (old, new) = (held.size(), entry.size());
        *held = entry;
        *stamp = seq;
        self.bytes[s] = self.bytes[s] - old + new;
        if new > self.budget_per_shard {
            let (entry, _) = self.shards[s].remove(key).unwrap();
            self.bytes[s] -= new;
            self.evictions += 1;
            return Some(vec![(key.to_owned(), entry)]);
        }
        Some(self.evict_to_budget(s, key))
    }

    fn mark(&mut self, key: &str, tag: &EntityTag, now: i64, fresh_until: i64) -> MarkOutcome {
        let s = self.shard(key);
        match self.shards[s].get_mut(key) {
            Some((entry, _)) => entry.meta.mark(tag, now, fresh_until),
            None => MarkOutcome::Absent,
        }
    }

    fn evict(&mut self, key: &str) {
        let s = self.shard(key);
        if let Some((entry, _)) = self.shards[s].remove(key) {
            self.bytes[s] -= entry.size();
        }
    }
}

/// The parts of an entry both sides must agree on.
fn same(a: &StoredEntry, b: &StoredEntry) -> bool {
    a.meta == b.meta && a.size() == b.size() && a.response == b.response
}

fn same_victims(tier: &[Victim], model: &[(String, StoredEntry)]) -> bool {
    tier.len() == model.len()
        && tier
            .iter()
            .zip(model)
            .all(|((tk, te), (mk, me))| &**tk == mk.as_str() && same(te, me))
}

fn draw_spec(rng: &mut SeededRng, unit: usize, budget_per_shard: usize) -> Spec {
    // Bodies from a few bytes to past a whole shard's budget.
    let body = rng.range(1..(budget_per_shard + budget_per_shard / 3 + 2) as u64) as usize;
    let tag = match rng.range(0..6) {
        0 => None,
        1 => Some(format!("W/\"v{}\"", rng.range(0..3))),
        n => Some(format!("\"v{}\"", n % 3)),
    };
    let t = rng.range(0..50) as i64;
    Spec {
        body: body.saturating_sub(unit / 2).max(1),
        pad: 0,
        tag,
        negative: rng.range(0..10) == 0,
        t,
        fresh_until: t + rng.range(0..20) as i64,
    }
}

fn draw_op(rng: &mut SeededRng, unit: usize, budget_per_shard: usize) -> Op {
    let key = format!("h/k{}", rng.range(0..KEYS));
    match rng.range(0..20) {
        0..=6 => Op::Insert {
            key,
            entry: draw_spec(rng, unit, budget_per_shard),
        },
        7..=11 => Op::Get(key),
        12..=14 => {
            let mut entry = draw_spec(rng, unit, budget_per_shard);
            entry.negative = false;
            // Most 304s keep the size; some grow the head, a few past
            // the whole shard.
            entry.pad = match rng.range(0..4) {
                0 => rng.range(1..(budget_per_shard as u64 + 2)) as usize,
                _ => 0,
            };
            Op::Refresh { key, entry }
        }
        15..=18 => {
            let now = rng.range(0..60) as i64;
            Op::Mark {
                key,
                tag: format!("v{}", rng.range(0..3)),
                now,
                fresh_until: now + rng.range(0..10) as i64,
            }
        }
        _ => Op::Evict(key),
    }
}

/// One seeded run: the evictions it made, of them those a refresh made
/// (`Err` names the first disagreement).
fn run(seed: u64, ops: &mut Vec<Op>) -> Result<(u64, u64), String> {
    let mut rng = SeededRng::new(seed);
    let shards = rng.range(1..5) as usize;
    let unit = Spec {
        body: 100,
        pad: 0,
        tag: Some("\"v0\"".into()),
        negative: false,
        t: 0,
        fresh_until: 0,
    }
    .build()
    .size();
    let budget_per_shard = unit * rng.range(2..6) as usize;
    let budget = budget_per_shard * shards + rng.range(0..shards as u64) as usize;
    let tier = MemTier::new(budget, shards);
    let mut model = Model::new(budget, shards);
    let mut by_refresh = 0;
    for _ in 0..OPS_PER_SEED {
        let op = draw_op(&mut rng, unit, budget_per_shard);
        ops.push(op.clone());
        match op {
            Op::Insert { key, entry } => {
                let (held, victims) = tier.insert_returning_victims(&key, Arc::new(entry.build()));
                let (want_held, want_victims) = model.insert(&key, entry.build());
                if held != want_held || !same_victims(&victims, &want_victims) {
                    return Err(format!(
                        "insert: held {held}, victims {:?}; model: held {want_held}, victims {:?}",
                        victims.iter().map(|(k, _)| &**k).collect::<Vec<_>>(),
                        want_victims.iter().map(|(k, _)| k).collect::<Vec<_>>()
                    ));
                }
            }
            Op::Get(key) => {
                let got = tier.get(&key);
                let want = model.get(&key);
                let agree = match (&got, &want) {
                    (Some(a), Some(b)) => same(a, b),
                    (None, None) => true,
                    _ => false,
                };
                if !agree {
                    return Err(format!(
                        "get: {:?}, model {:?}",
                        got.map(|e| e.meta.clone()),
                        want.map(|e| e.meta)
                    ));
                }
            }
            Op::Refresh { key, entry } => {
                let got = tier.refresh(&key, entry.build()).ok();
                let want = model.refresh(&key, entry.build());
                by_refresh += want.as_ref().map_or(0, Vec::len) as u64;
                let agree = match (&got, &want) {
                    (Some(a), Some(b)) => same_victims(a, b),
                    (None, None) => true,
                    _ => false,
                };
                if !agree {
                    return Err(format!(
                        "refresh: victims {:?}, model {:?}",
                        got.map(|v| v.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>()),
                        want.map(|v| v.into_iter().map(|(k, _)| k).collect::<Vec<_>>())
                    ));
                }
            }
            Op::Mark {
                key,
                tag,
                now,
                fresh_until,
            } => {
                let tag = EntityTag::strong(tag).unwrap();
                let got = tier.mark(&key, &tag, now, fresh_until);
                let want = model.mark(&key, &tag, now, fresh_until);
                if got != want {
                    return Err(format!("mark: {got:?}, model {want:?}"));
                }
            }
            Op::Evict(key) => {
                tier.evict(&key);
                model.evict(&key);
            }
        }
        let want_bytes: usize = model.bytes.iter().sum();
        let want_len: usize = model.shards.iter().map(HashMap::len).sum();
        if (tier.bytes_held(), tier.len(), tier.evictions())
            != (want_bytes, want_len, model.evictions)
        {
            return Err(format!(
                "bytes_held / len / evictions: {} / {} / {}, model {want_bytes} / {want_len} / {}",
                tier.bytes_held(),
                tier.len(),
                tier.evictions(),
                model.evictions
            ));
        }
        if let Some(s) = (0..shards).find(|&s| model.bytes[s] > model.budget_per_shard) {
            return Err(format!(
                "shard {s} holds {} bytes over its budget of {}",
                model.bytes[s], model.budget_per_shard
            ));
        }
        let mut rows = tier.entries();
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        let mut want_rows: Vec<_> = model
            .shards
            .iter()
            .flat_map(|shard| shard.iter())
            .map(|(key, (entry, _))| (key.clone(), entry.size(), entry.meta.clone()))
            .collect();
        want_rows.sort_by(|a, b| a.0.cmp(&b.0));
        let rows: Vec<_> = rows
            .into_iter()
            .map(|row| {
                assert_eq!(row.tier, "mem");
                (row.key, row.size, row.meta)
            })
            .collect();
        if rows != want_rows {
            return Err(format!("entries: {rows:?}\nmodel: {want_rows:?}"));
        }
    }
    Ok((tier.evictions(), by_refresh))
}

#[test]
fn the_lru_list_evicts_what_the_min_seq_scan_evicted() {
    let (mut evictions, mut by_refresh) = (0, 0);
    for seed in 1..=SEEDS {
        let mut ops = Vec::new();
        match run(seed, &mut ops) {
            Ok((all, refreshed)) => {
                evictions += all;
                by_refresh += refreshed;
            }
            Err(why) => {
                let listed: Vec<String> = ops
                    .iter()
                    .enumerate()
                    .map(|(i, op)| format!("  {i:3}: {op:?}"))
                    .collect();
                panic!(
                    "seed {seed}: step {} disagrees with the model: {why}\nops:\n{}",
                    ops.len() - 1,
                    listed.join("\n")
                );
            }
        }
    }
    // The runs must reach the paths under test, not pass vacuously.
    assert!(evictions > 1_000, "{evictions} evictions");
    assert!(by_refresh > 50, "{by_refresh} evictions by a refresh");
}
