//! The *developer cache-header policy* model.
//!
//! The paper's motivation (§2.2) rests on measured facts about how
//! developers set cache headers in practice: many cacheable resources
//! are served `no-store`/`no-cache` by CMS defaults, and assigned TTLs
//! are much shorter than the real change interval ("40% of resources
//! have a TTL of less than one day, but 86% of these do not change
//! within that period" — Liu et al.; "47% of resources expire in the
//! cache even though their content has not changed" — Ramanujam et
//! al.). This module assigns headers to synthetic resources so the
//! corpus reproduces those statistics (validated by experiment E3).

use std::time::Duration;

use cachecatalyst_httpwire::CacheControl;

use crate::resource::{ChangeModel, ResourceKind};
use crate::stats::{sample_lognormal, SeededRng};

/// The effective caching headers assigned to one resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderPolicy {
    /// `Cache-Control: no-store` — never cached.
    NoStore,
    /// `Cache-Control: no-cache` — cached but revalidated every use.
    NoCache,
    /// `Cache-Control: max-age=N`.
    MaxAge(Duration),
}

impl HeaderPolicy {
    /// Renders the policy as `Cache-Control` directives.
    pub fn to_cache_control(&self) -> CacheControl {
        match self {
            HeaderPolicy::NoStore => CacheControl::no_store(),
            HeaderPolicy::NoCache => CacheControl::no_cache(),
            HeaderPolicy::MaxAge(ttl) => CacheControl::max_age(*ttl),
        }
    }

    /// Whether a cache may store the response at all.
    pub fn allows_store(&self) -> bool {
        !matches!(self, HeaderPolicy::NoStore)
    }

    /// The assigned freshness lifetime (zero for no-cache).
    pub fn ttl(&self) -> Duration {
        match self {
            HeaderPolicy::MaxAge(ttl) => *ttl,
            _ => Duration::ZERO,
        }
    }
}

/// Tunable parameters of the developer-policy model.
///
/// Developers who do assign a TTL fall into two camps (a mixture
/// calibrated against the cited measurements):
///
/// * a **short-TTL camp** (CMS defaults, "just pick an hour"): TTL is
///   an *absolute* short duration, unrelated to how the resource
///   actually changes — this produces the "40% of resources have a
///   TTL of less than one day, but 86% of those do not change within
///   that period" population;
/// * a **proportional camp** that roughly tracks the real change
///   period, with error — producing the "47% expire unchanged"
///   population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeveloperPolicyParams {
    /// Fraction of resources served `no-store`.
    pub p_no_store: f64,
    /// Fraction served `no-cache` (always revalidate).
    pub p_no_cache: f64,
    /// Among TTL'd resources: probability of the short-TTL camp.
    pub p_short_ttl: f64,
    /// Short camp: absolute TTL distribution (clamped below one day).
    pub short_ttl_median: Duration,
    pub short_ttl_sigma: f64,
    /// Proportional camp: TTL = change_period × lognormal(median, σ).
    pub ttl_fraction_median: f64,
    pub ttl_fraction_sigma: f64,
    /// Proportional camp for immutable resources: the absolute TTL
    /// developers assign when content never changes.
    pub immutable_ttl_median: Duration,
    pub immutable_ttl_sigma: f64,
    /// Clamp for every assigned TTL.
    pub ttl_min: Duration,
    pub ttl_max: Duration,
}

impl Default for DeveloperPolicyParams {
    fn default() -> Self {
        DeveloperPolicyParams {
            p_no_store: 0.12,
            p_no_cache: 0.28,
            p_short_ttl: 0.32,
            short_ttl_median: Duration::from_secs(2 * 3600),
            short_ttl_sigma: 1.5,
            ttl_fraction_median: 2.4,
            ttl_fraction_sigma: 0.8,
            immutable_ttl_median: Duration::from_secs(3 * 86_400),
            immutable_ttl_sigma: 1.0,
            ttl_min: Duration::from_secs(60),
            ttl_max: Duration::from_secs(365 * 86_400),
        }
    }
}

/// Draws the header policy for one resource given how its content
/// actually changes.
pub fn assign_policy(
    rng: &mut SeededRng,
    params: &DeveloperPolicyParams,
    change: &ChangeModel,
) -> HeaderPolicy {
    assign_policy_for_kind(rng, params, ResourceKind::Other, change)
}

/// Kind-aware variant: API payloads (JSON) are overwhelmingly served
/// `no-cache`/`no-store` in the wild rather than TTL'd.
pub fn assign_policy_for_kind(
    rng: &mut SeededRng,
    params: &DeveloperPolicyParams,
    kind: ResourceKind,
    change: &ChangeModel,
) -> HeaderPolicy {
    let (p_no_store, p_no_cache) = match kind {
        ResourceKind::Json => (params.p_no_store + 0.10, params.p_no_cache + 0.40),
        _ => (params.p_no_store, params.p_no_cache),
    };
    let roll = rng.unit();
    if roll < p_no_store {
        return HeaderPolicy::NoStore;
    }
    if roll < p_no_store + p_no_cache {
        return HeaderPolicy::NoCache;
    }
    let ttl_secs = if rng.unit() < params.p_short_ttl {
        // Short camp: an absolute TTL below one day.
        sample_lognormal(
            rng,
            params.short_ttl_median.as_secs_f64(),
            params.short_ttl_sigma,
        )
        .min(86_399.0)
    } else {
        match change {
            ChangeModel::Immutable => sample_lognormal(
                rng,
                params.immutable_ttl_median.as_secs_f64(),
                params.immutable_ttl_sigma,
            ),
            ChangeModel::Periodic { period, .. } => {
                let fraction =
                    sample_lognormal(rng, params.ttl_fraction_median, params.ttl_fraction_sigma);
                period.as_secs_f64() * fraction
            }
        }
    };
    let clamped = ttl_secs.clamp(params.ttl_min.as_secs_f64(), params.ttl_max.as_secs_f64());
    HeaderPolicy::MaxAge(Duration::from_secs(clamped as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::rng_for;

    fn changing(period_secs: u64) -> ChangeModel {
        ChangeModel::Periodic {
            period: Duration::from_secs(period_secs),
            phase: Duration::ZERO,
        }
    }

    #[test]
    fn policy_category_fractions() {
        let params = DeveloperPolicyParams::default();
        let mut rng = rng_for(11, "cat");
        let n = 20_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            match assign_policy(&mut rng, &params, &changing(86_400 * 7)) {
                HeaderPolicy::NoStore => counts[0] += 1,
                HeaderPolicy::NoCache => counts[1] += 1,
                HeaderPolicy::MaxAge(_) => counts[2] += 1,
            }
        }
        let f = |c: usize| c as f64 / n as f64;
        assert!((f(counts[0]) - params.p_no_store).abs() < 0.01);
        assert!((f(counts[1]) - params.p_no_cache).abs() < 0.01);
    }

    #[test]
    fn ttl_mixture_matches_calibration_targets() {
        // The two-camp mixture must land near the measurements the
        // paper cites: ~40% of TTLs below one day, and a substantial
        // fraction of TTLs expiring before the content changes.
        let params = DeveloperPolicyParams::default();
        let mut rng = rng_for(12, "ttl");
        let period = 86_400u64 * 30; // changes monthly
        let mut under_day = 0;
        let mut conservative = 0;
        let mut total = 0;
        for _ in 0..10_000 {
            if let HeaderPolicy::MaxAge(ttl) = assign_policy(&mut rng, &params, &changing(period)) {
                total += 1;
                if ttl.as_secs() < 86_400 {
                    under_day += 1;
                }
                if ttl.as_secs() < period / 2 {
                    conservative += 1;
                }
            }
        }
        assert!(total > 0);
        let under = under_day as f64 / total as f64;
        // The short camp (32% of TTL'd resources) lands under a day;
        // the proportional camp mostly does not for monthly changers.
        assert!((0.25..=0.45).contains(&under), "TTL<1d fraction {under}");
        let cons = conservative as f64 / total as f64;
        assert!(cons > 0.3, "conservative fraction {cons}");
    }

    #[test]
    fn ttl_clamping() {
        let params = DeveloperPolicyParams {
            p_no_store: 0.0,
            p_no_cache: 0.0,
            ..Default::default()
        };
        let mut rng = rng_for(13, "clamp");
        for _ in 0..2_000 {
            let HeaderPolicy::MaxAge(ttl) =
                assign_policy(&mut rng, &params, &changing(86_400 * 365))
            else {
                panic!("must be max-age");
            };
            assert!(ttl >= params.ttl_min && ttl <= params.ttl_max);
        }
    }

    #[test]
    fn header_rendering() {
        assert_eq!(
            HeaderPolicy::NoStore.to_cache_control().to_string(),
            "no-store"
        );
        assert_eq!(
            HeaderPolicy::NoCache.to_cache_control().to_string(),
            "no-cache"
        );
        assert_eq!(
            HeaderPolicy::MaxAge(Duration::from_secs(60))
                .to_cache_control()
                .to_string(),
            "max-age=60"
        );
        assert!(!HeaderPolicy::NoStore.allows_store());
        assert!(HeaderPolicy::NoCache.allows_store());
    }
}
