//! The seeded inputs every workload derives from: one fleet trace, the
//! corpus it implies, and `S`, the visit-expanded request stream.
//!
//! `--seed` enters here and nowhere else; the program under test only
//! ever sees the generated trace, sites and requests.
//!
//! A run is several laps, each an independent day. Lap `i` always
//! serves corpus `lap_seed(CORPUS_SEED, i)` — the sites are the
//! benchmark's fixed data set, ten different ones per run — while its
//! *trace* (who visits what, when) is drawn from `lap_seed(seed, i)`.
//! Seeding the corpus from `--seed` as well made most of every metric
//! a statement about how large that seed's most popular site happened
//! to be (quartile spread across seeds: 8 % on bytes per op, 12 % on
//! fleet throughput). At the default seed the two coincide, which is
//! exactly `generate` + `fleet_corpus` as the fleet engine pairs them.

use std::sync::Arc;
use std::time::Instant;

use cachecatalyst_bench::fleet::fleet_corpus;
use cachecatalyst_browser::MultiOrigin;
use cachecatalyst_httpwire::Request;
use cachecatalyst_origin::{HeaderMode, OriginServer};
use cachecatalyst_webmodel::workload::{generate, Trace, VisitEvent, WorkloadSpec};
use cachecatalyst_webmodel::Site;

/// Median subresources per page — the fleet engine's default.
pub const RESOURCES_MEDIAN: f64 = 28.0;

/// The seed the corpora are drawn from, whatever `--seed` is (it is
/// also `--seed`'s default).
pub const CORPUS_SEED: u64 = 2024;

/// One request of `S`: resource `path` of site `site` at virtual time
/// `t_secs`; `revisit` is set when the visiting user has loaded this
/// site earlier in the trace (so a browser would hold validators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    pub site: u16,
    pub path: u16,
    pub t_secs: u32,
    pub revisit: bool,
}

/// The trace, its corpus and how long each took to generate.
pub struct World {
    pub trace: Trace,
    pub sites: Vec<Site>,
    /// Per site: the base page first, then every other resource in
    /// path order — the order a visit requests them in.
    pub paths: Vec<Vec<String>>,
    pub trace_gen_ms: f64,
    pub corpus_gen_ms: f64,
}

impl World {
    /// Generates lap `lap` of a run seeded `seed`: the one-day trace
    /// for `users` × `sites` and the corpus it is served from.
    pub fn generate(seed: u64, lap: u32, users: u32, sites: u32) -> World {
        let started = Instant::now();
        let mut trace = generate(&WorkloadSpec {
            users,
            sites,
            horizon_secs: 86_400,
            seed: lap_seed(seed, lap),
            ..Default::default()
        });
        let trace_gen_ms = started.elapsed().as_secs_f64() * 1e3;
        // `fleet_corpus` (here and inside `run_fleet`) seeds the sites
        // from the trace's spec; point it at this lap's fixed corpus.
        // The events above are already drawn and do not change.
        trace.spec.seed = lap_seed(CORPUS_SEED, lap);

        let started = Instant::now();
        let sites = fleet_corpus(&trace, RESOURCES_MEDIAN);
        let corpus_gen_ms = started.elapsed().as_secs_f64() * 1e3;

        let paths = sites
            .iter()
            .map(|site| {
                let base = site.base_path();
                std::iter::once(base.to_owned())
                    .chain(
                        site.resources()
                            .map(|r| r.spec.path.clone())
                            .filter(|p| p != base),
                    )
                    .collect()
            })
            .collect();
        World {
            trace,
            sites,
            paths,
            trace_gen_ms,
            corpus_gen_ms,
        }
    }

    /// Total body bytes of the corpus at t = 0, in MiB.
    pub fn corpus_mb(&self) -> f64 {
        self.sites.iter().map(Site::total_bytes).sum::<u64>() as f64 / (1 << 20) as f64
    }

    /// How many requests `S` holds.
    pub fn stream_len(&self) -> usize {
        let per_site = |e: &VisitEvent| self.paths[e.site as usize].len();
        self.trace.events.iter().map(per_site).sum()
    }

    /// `S`: for each trace event in order, the site's base page then
    /// every other resource, at the event's second.
    pub fn stream(&self) -> Vec<Item> {
        let sites = self.sites.len();
        let mut visited = vec![false; self.trace.spec.users as usize * sites];
        let mut items = Vec::new();
        for event in &self.trace.events {
            let seen = &mut visited[event.user as usize * sites + event.site as usize];
            for path in 0..self.paths[event.site as usize].len() {
                items.push(Item {
                    site: event.site as u16,
                    path: path as u16,
                    t_secs: (event.t_ms / 1000) as u32,
                    revisit: *seen,
                });
            }
            *seen = true;
        }
        items
    }

    /// One origin per site in `mode`, routed by host. The servers are
    /// also returned so their counters can be read after a run.
    pub fn origins(&self, mode: HeaderMode) -> (MultiOrigin, Vec<Arc<OriginServer>>) {
        let mut multi = MultiOrigin::new();
        let mut servers = Vec::with_capacity(self.sites.len());
        for site in &self.sites {
            let server = Arc::new(OriginServer::new(site.clone(), mode));
            multi.add(&site.spec.host, Arc::clone(&server));
            servers.push(server);
        }
        (multi, servers)
    }

    /// The `GET` for every `(site, path)`, `Host` set, built once so
    /// the timed loops only index.
    pub fn requests(&self) -> Vec<Vec<Request>> {
        self.sites
            .iter()
            .zip(&self.paths)
            .map(|(site, paths)| {
                paths
                    .iter()
                    .map(|path| Request::get(path).with_header("host", &site.spec.host))
                    .collect()
            })
            .collect()
    }
}

/// The seed of lap `lap` under `seed`: distinct for every (seed, lap)
/// a run can reach.
pub fn lap_seed(seed: u64, lap: u32) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(u64::from(lap))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(world: &World) -> Vec<u8> {
        let mut out = Vec::new();
        for item in world.stream() {
            let path = &world.paths[item.site as usize][item.path as usize];
            out.extend_from_slice(world.sites[item.site as usize].spec.host.as_bytes());
            out.extend_from_slice(path.as_bytes());
            out.extend_from_slice(&item.t_secs.to_le_bytes());
            out.push(u8::from(item.revisit));
        }
        out
    }

    #[test]
    fn stream_is_byte_identical_per_seed_and_differs_across_seeds() {
        let a = stream_bytes(&World::generate(7, 0, 60, 8));
        let b = stream_bytes(&World::generate(7, 0, 60, 8));
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_ne!(a, stream_bytes(&World::generate(8, 0, 60, 8)));
        assert_ne!(a, stream_bytes(&World::generate(7, 1, 60, 8)));
    }

    #[test]
    fn seeds_change_the_trace_and_laps_change_the_corpus() {
        let hosts_and_sizes = |w: &World| -> Vec<(String, u64)> {
            w.sites
                .iter()
                .map(|s| (s.spec.host.clone(), s.total_bytes()))
                .collect()
        };
        let (a, b) = (World::generate(7, 0, 60, 8), World::generate(8, 0, 60, 8));
        assert_eq!(hosts_and_sizes(&a), hosts_and_sizes(&b));
        assert_ne!(a.trace.events, b.trace.events);
        let next_lap = World::generate(7, 1, 60, 8);
        assert_ne!(hosts_and_sizes(&a), hosts_and_sizes(&next_lap));
        // At the default seed the pairing is the fleet engine's own.
        let default = World::generate(CORPUS_SEED, 3, 60, 8);
        let spec = WorkloadSpec {
            users: 60,
            sites: 8,
            horizon_secs: 86_400,
            seed: lap_seed(CORPUS_SEED, 3),
            ..Default::default()
        };
        assert_eq!(default.trace, generate(&spec));
    }

    #[test]
    fn stream_expands_each_visit_base_page_first() {
        let world = World::generate(3, 0, 40, 5);
        let stream = world.stream();
        assert_eq!(stream.len(), world.stream_len());
        assert!(stream.len() > world.trace.events.len());
        let first = world.trace.events[0];
        assert_eq!(stream[0].site, first.site as u16);
        assert_eq!(stream[0].path, 0);
        assert_eq!(
            world.paths[first.site as usize][0],
            world.sites[first.site as usize].base_path()
        );
        assert!(
            !stream[0].revisit,
            "nobody has visited before the first event"
        );
        assert!(stream.windows(2).all(|w| w[0].t_secs <= w[1].t_secs));
        assert!(stream.iter().any(|i| i.revisit), "the trace has revisits");
    }

    #[test]
    fn lap_seeds_of_different_runs_do_not_collide() {
        assert_ne!(lap_seed(1, 9), lap_seed(2, 0));
        assert_eq!(lap_seed(2024, 3), 2_024_003);
    }
}
