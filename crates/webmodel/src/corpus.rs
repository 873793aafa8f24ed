//! The evaluation corpus: synthetic clones of the 100 most-visited
//! sites' homepages (§4), with heterogeneous sizes and compositions.

use crate::site::{Site, SiteSpec};
use crate::stats::{rng_for, sample_lognormal};
use crate::ttl::DeveloperPolicyParams;

/// Parameters of the corpus generator.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Number of sites (the paper uses the top 100).
    pub n_sites: usize,
    /// Master seed.
    pub seed: u64,
    /// Median number of subresources per page (httparchive: ~70).
    pub resources_median: f64,
    /// Spread of the per-site resource count.
    pub resources_sigma: f64,
    /// Range of per-site JS-discovered fractions.
    pub js_fraction_range: (f64, f64),
    /// Fraction of resources on third-party origins (0 matches the
    /// paper's cloned-onto-one-server methodology).
    pub third_party_fraction: f64,
    /// Fraction of CSS/JS served as fingerprinted (cache-busting)
    /// assets; 0 by default (the cloned pages are served as-is).
    pub fingerprinted_fraction: f64,
    /// Developer header-policy model shared by all sites.
    pub policy: DeveloperPolicyParams,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            n_sites: 100,
            seed: 2024,
            resources_median: 70.0,
            resources_sigma: 0.5,
            js_fraction_range: (0.02, 0.15),
            third_party_fraction: 0.0,
            fingerprinted_fraction: 0.0,
            policy: DeveloperPolicyParams::default(),
        }
    }
}

/// Generates the site specs for a corpus without materializing the
/// sites (cheap; callers can generate lazily or in parallel).
pub fn corpus_specs(spec: &CorpusSpec) -> Vec<SiteSpec> {
    let mut rng = rng_for(spec.seed, "corpus");
    (0..spec.n_sites)
        .map(|i| {
            let n_resources =
                sample_lognormal(&mut rng, spec.resources_median, spec.resources_sigma)
                    .clamp(10.0, 400.0) as usize;
            let (lo, hi) = spec.js_fraction_range;
            let js_discovered_fraction = rng.range_f64(lo..hi);
            SiteSpec {
                host: format!("site{i:03}.example"),
                seed: spec.seed.wrapping_mul(1000).wrapping_add(i as u64),
                n_resources,
                js_discovered_fraction,
                third_party_fraction: spec.third_party_fraction,
                n_pages: 1,
                fingerprinted_fraction: spec.fingerprinted_fraction,
                policy: spec.policy,
            }
        })
        .collect()
}

/// Generates the full corpus.
pub fn generate_corpus(spec: &CorpusSpec) -> Vec<Site> {
    corpus_specs(spec).into_iter().map(Site::generate).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn corpus_is_deterministic() {
        let a = corpus_specs(&CorpusSpec::default());
        let b = corpus_specs(&CorpusSpec::default());
        assert_eq!(a, b);
    }

    #[test]
    fn corpus_has_unique_hosts_and_seeds() {
        let specs = corpus_specs(&CorpusSpec::default());
        let hosts: std::collections::HashSet<_> = specs.iter().map(|s| &s.host).collect();
        let seeds: std::collections::HashSet<_> = specs.iter().map(|s| s.seed).collect();
        assert_eq!(hosts.len(), 100);
        assert_eq!(seeds.len(), 100);
    }

    #[test]
    fn resource_counts_are_heterogeneous_and_plausible() {
        let specs = corpus_specs(&CorpusSpec::default());
        let counts: Vec<f64> = specs.iter().map(|s| s.n_resources as f64).collect();
        let s = Summary::of(&counts);
        assert!((40.0..=110.0).contains(&s.p50), "median {:?}", s.p50);
        assert!(s.max > s.min * 2.0, "no spread");
    }

    #[test]
    fn small_corpus_generates() {
        let sites = generate_corpus(&CorpusSpec {
            n_sites: 3,
            resources_median: 20.0,
            ..Default::default()
        });
        assert_eq!(sites.len(), 3);
        for site in &sites {
            assert!(site.len() > 5);
            assert!(site.get(site.base_path()).is_some());
        }
    }
}
