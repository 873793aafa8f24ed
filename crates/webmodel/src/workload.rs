//! Population-scale workload generation: the fleet of synthetic users
//! the paper's motivation appeals to, made concrete and replayable.
//!
//! Every bench before this module hammered one origin with uniform
//! requests; production traffic is nothing like that. Following the
//! CacheLib methodology (workload characterization first, cache design
//! second), this module models the three properties that decide
//! whether a caching mechanism wins at fleet scale:
//!
//! * **Popularity skew** — site choice follows a seeded [`ZipfSampler`]
//!   over the corpus, so a handful of sites absorb most visits while a
//!   long tail stays cold.
//! * **Session structure** — each user has a home site, a visit count,
//!   and log-normally distributed revisit gaps ([`SessionParams`]), so
//!   caches are realistically warm (or cold) on each return.
//! * **Arrival dynamics** — a 24-hour [`DiurnalCurve`] shapes when
//!   sessions start, and [`FlashCrowd`] spikes inject synchronized
//!   bursts onto one hot site — the arrival pattern that stresses the
//!   edge tier's single-flight coalescing.
//!
//! [`generate`] expands a [`WorkloadSpec`] into a [`Trace`]: a sorted
//! list of [`VisitEvent`]s that replays deterministically (same seed +
//! spec ⇒ byte-identical serialization) in `netsim` virtual time, or —
//! scaled down — over real TCP. Traces serialize to versioned JSONL
//! ([`Trace::to_jsonl`] / [`Trace::from_jsonl`]) so a recorded workload
//! can be archived, diffed, and replayed bit-for-bit.

use crate::stats::{rng_for, sample_exp, sample_lognormal, weighted_choice, SeededRng};

/// Version stamp written into (and required from) serialized traces.
pub const TRACE_VERSION: u32 = 1;

/// A seeded sampler over ranks `0..n` with Zipf(s) probabilities:
/// `P(rank k) ∝ (k+1)^-s`. Rank 0 is the most popular item.
///
/// Sampling is inverse-CDF over a precomputed cumulative table —
/// `O(log n)` per draw, no rejection, and exactly one `f64` consumed
/// from the RNG per sample (which keeps traces replayable).
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    s: f64,
}

impl ZipfSampler {
    /// A sampler over `n ≥ 1` ranks with exponent `s ≥ 0` (`s = 0` is
    /// uniform; web popularity is typically 0.6–1.1).
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n >= 1, "need at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be ≥ 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf, s }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the sampler has no ranks (never: `new` requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The configured exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// The probability mass of `rank`.
    pub fn probability(&self, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SeededRng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The per-user session model: how often a user comes back, where
/// they go, and how many tabs they open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionParams {
    /// Mean number of visits per user over the horizon (≥ 1; the
    /// count is `1 + Exp(visits_mean − 1)` rounded down).
    pub visits_mean: f64,
    /// Median revisit gap in seconds (log-normal).
    pub revisit_median_secs: f64,
    /// Shape of the revisit-gap log-normal.
    pub revisit_sigma: f64,
    /// Probability a visit targets the user's home site (the rest
    /// re-draw from the popularity distribution).
    pub home_bias: f64,
    /// Probability a visit opens a second tab onto another site at
    /// the same instant.
    pub tab_prob: f64,
}

impl Default for SessionParams {
    fn default() -> SessionParams {
        SessionParams {
            visits_mean: 2.2,
            revisit_median_secs: 5400.0, // 1.5 h — revisits find warm caches
            revisit_sigma: 0.8,
            home_bias: 0.7,
            tab_prob: 0.15,
        }
    }
}

impl SessionParams {
    /// Draws one revisit gap in seconds (log-normal, always ≥ 1 s).
    pub fn sample_gap_secs(&self, rng: &mut SeededRng) -> f64 {
        sample_lognormal(rng, self.revisit_median_secs, self.revisit_sigma).max(1.0)
    }

    /// Draws the visit count for one user: `1 + Exp(visits_mean − 1)`
    /// with stochastic rounding, so the expectation is exactly
    /// `visits_mean` (plain floor would bias it low by ~0.4 visits).
    pub fn sample_visits(&self, rng: &mut SeededRng) -> usize {
        let extra = sample_exp(rng, (self.visits_mean - 1.0).max(1e-6));
        let base = extra.floor();
        let round_up = rng.unit() < extra - base;
        1 + (base as usize + usize::from(round_up)).min(200)
    }
}

/// A 24-bucket daily arrival-rate curve. Bucket `h` holds the relative
/// weight of hour `h`; [`DiurnalCurve::fraction`] normalizes, so the
/// 24 bucket masses always sum to the configured total rate exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalCurve {
    weights: [f64; 24],
}

impl DiurnalCurve {
    /// A curve from explicit per-hour weights (all ≥ 0, not all zero).
    pub fn new(weights: [f64; 24]) -> DiurnalCurve {
        assert!(
            weights.iter().all(|w| *w >= 0.0) && weights.iter().sum::<f64>() > 0.0,
            "diurnal weights must be non-negative and not all zero"
        );
        DiurnalCurve { weights }
    }

    /// Flat arrivals (every hour equally likely).
    pub fn uniform() -> DiurnalCurve {
        DiurnalCurve::new([1.0; 24])
    }

    /// A typical consumer-traffic day: a deep trough around 04:00, a
    /// daytime plateau, and an evening peak around 20:00–21:00.
    pub fn typical() -> DiurnalCurve {
        DiurnalCurve::new([
            0.35, 0.25, 0.18, 0.15, 0.15, 0.20, 0.35, 0.55, 0.75, 0.90, 1.00, 1.05, // 00–11
            1.05, 1.00, 0.95, 0.95, 1.00, 1.10, 1.25, 1.45, 1.60, 1.55, 1.20, 0.70, // 12–23
        ])
    }

    /// The raw per-hour weights.
    pub fn weights(&self) -> &[f64; 24] {
        &self.weights
    }

    /// The fraction of daily arrivals landing in hour `h` (fractions
    /// over all 24 hours sum to 1).
    pub fn fraction(&self, hour: usize) -> f64 {
        self.weights[hour] / self.weights.iter().sum::<f64>()
    }

    /// Expected arrivals per hour bucket for `total` daily arrivals;
    /// the 24 entries sum to exactly `total`.
    pub fn bucket_mass(&self, total: f64) -> [f64; 24] {
        let mut out = [0.0; 24];
        for (h, m) in out.iter_mut().enumerate() {
            *m = self.fraction(h) * total;
        }
        out
    }

    /// Draws a second-of-day: a weighted hour choice plus a uniform
    /// offset inside the hour.
    pub fn sample_offset_secs(&self, rng: &mut SeededRng) -> u64 {
        let hour = weighted_choice(rng, &self.weights);
        hour as u64 * 3600 + rng.range(0..3600)
    }
}

/// A flash-crowd spike: `visits` extra arrivals, all targeting the
/// site at popularity `site_rank`, spread uniformly over
/// `[at_secs, at_secs + duration_secs)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashCrowd {
    /// Spike start, in seconds from trace start.
    pub at_secs: u64,
    /// Spike width in seconds (≥ 1).
    pub duration_secs: u64,
    /// Number of extra visits injected.
    pub visits: u32,
    /// Popularity rank of the targeted site (0 = hottest).
    pub site_rank: u32,
}

/// The full workload specification: everything [`generate`] needs, and
/// everything the trace header records so a replay can verify it is
/// running the workload it thinks it is.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Synthetic-user population size.
    pub users: u32,
    /// Number of sites (popularity ranks map onto corpus indices).
    pub sites: u32,
    /// Trace horizon in seconds; no event lands at or beyond it.
    pub horizon_secs: u64,
    /// Master seed; with the spec it fully determines the trace.
    pub seed: u64,
    /// Popularity skew (Zipf exponent) across sites.
    pub zipf_s: f64,
    /// Per-user session model.
    pub session: SessionParams,
    /// Daily arrival-rate shape for session starts.
    pub diurnal: DiurnalCurve,
    /// Flash-crowd spikes layered on top of the organic arrivals.
    pub flash_crowds: Vec<FlashCrowd>,
}

impl Default for WorkloadSpec {
    fn default() -> WorkloadSpec {
        WorkloadSpec {
            users: 10_000,
            sites: 100,
            horizon_secs: 86_400,
            seed: 2024,
            zipf_s: 1.0,
            session: SessionParams::default(),
            diurnal: DiurnalCurve::typical(),
            flash_crowds: Vec::new(),
        }
    }
}

/// One page visit: user `user` loads the base page of site `site` at
/// `t_ms` virtual milliseconds from trace start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct VisitEvent {
    /// Virtual milliseconds from trace start.
    pub t_ms: u64,
    /// User id in `0..spec.users`.
    pub user: u32,
    /// Site index in `0..spec.sites` (also its popularity rank).
    pub site: u32,
    /// Tab index within a multi-tab visit (0 = primary tab).
    pub tab: u8,
    /// True when this event was injected by a [`FlashCrowd`].
    pub flash: bool,
}

/// A replayable workload trace: the spec it was generated from plus
/// the time-sorted visit events.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The generating spec (recorded in the serialized header).
    pub spec: WorkloadSpec,
    /// Visit events, sorted by `(t_ms, user, site, tab)`.
    pub events: Vec<VisitEvent>,
}

/// Expands `spec` into its trace. Pure function of the spec (which
/// includes the seed): calling it twice yields identical traces.
pub fn generate(spec: &WorkloadSpec) -> Trace {
    assert!(spec.users >= 1 && spec.sites >= 1 && spec.horizon_secs >= 1);
    let zipf = ZipfSampler::new(spec.sites as usize, spec.zipf_s);
    let horizon_ms = spec.horizon_secs * 1000;
    let days = (spec.horizon_secs / 86_400).max(1);
    let mut events = Vec::new();

    for user in 0..spec.users {
        let mut rng = rng_for(spec.seed, &format!("user-{user}"));
        let home = zipf.sample(&mut rng) as u32;
        let visits = spec.session.sample_visits(&mut rng);
        let day = rng.range(0..days);
        // Wrap into the horizon so sub-day traces still start every
        // user (the diurnal draw spans a full day).
        let start_secs =
            (day * 86_400 + spec.diurnal.sample_offset_secs(&mut rng)) % spec.horizon_secs;
        let mut t_ms = start_secs * 1000 + rng.range(0..1000);
        for _ in 0..visits {
            if t_ms >= horizon_ms {
                break;
            }
            let site = if rng.unit() < spec.session.home_bias {
                home
            } else {
                zipf.sample(&mut rng) as u32
            };
            events.push(VisitEvent {
                t_ms,
                user,
                site,
                tab: 0,
                flash: false,
            });
            if rng.unit() < spec.session.tab_prob {
                let other = zipf.sample(&mut rng) as u32;
                events.push(VisitEvent {
                    t_ms,
                    user,
                    site: other,
                    tab: 1,
                    flash: false,
                });
            }
            let gap = spec.session.sample_gap_secs(&mut rng);
            t_ms += (gap * 1000.0) as u64;
        }
    }

    for (i, crowd) in spec.flash_crowds.iter().enumerate() {
        let mut rng = rng_for(spec.seed, &format!("flash-{i}"));
        for _ in 0..crowd.visits {
            let t_ms = (crowd.at_secs * 1000 + rng.range(0..crowd.duration_secs.max(1) * 1000))
                .min(horizon_ms.saturating_sub(1));
            events.push(VisitEvent {
                t_ms,
                user: rng.range(0..u64::from(spec.users)) as u32,
                site: crowd.site_rank.min(spec.sites - 1),
                tab: 0,
                flash: true,
            });
        }
    }

    events.sort_unstable();
    Trace {
        spec: spec.clone(),
        events,
    }
}

impl Trace {
    /// Serializes the trace as JSONL: one header object (version, seed
    /// and the full spec) followed by one object per event. The output
    /// is a pure function of the trace — byte-identical across runs.
    pub fn to_jsonl(&self) -> String {
        let s = &self.spec;
        let mut out = String::with_capacity(64 + self.events.len() * 48);
        out.push_str(&format!(
            "{{\"trace\":\"cachecatalyst-fleet\",\"version\":{TRACE_VERSION},\
             \"seed\":{},\"users\":{},\"sites\":{},\"horizon_secs\":{},\"zipf_s\":{},\
             \"visits_mean\":{},\"revisit_median_secs\":{},\"revisit_sigma\":{},\
             \"home_bias\":{},\"tab_prob\":{},\"diurnal\":[{}],\"flash_crowds\":[{}],\
             \"events\":{}}}\n",
            s.seed,
            s.users,
            s.sites,
            s.horizon_secs,
            s.zipf_s,
            s.session.visits_mean,
            s.session.revisit_median_secs,
            s.session.revisit_sigma,
            s.session.home_bias,
            s.session.tab_prob,
            s.diurnal
                .weights()
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(","),
            s.flash_crowds
                .iter()
                .map(|f| format!(
                    "{{\"at_secs\":{},\"duration_secs\":{},\"visits\":{},\"site_rank\":{}}}",
                    f.at_secs, f.duration_secs, f.visits, f.site_rank
                ))
                .collect::<Vec<_>>()
                .join(","),
            self.events.len(),
        ));
        for e in &self.events {
            out.push_str(&format!(
                "{{\"t_ms\":{},\"user\":{},\"site\":{},\"tab\":{},\"flash\":{}}}\n",
                e.t_ms,
                e.user,
                e.site,
                e.tab,
                u8::from(e.flash)
            ));
        }
        out
    }

    /// Parses a trace serialized by [`Trace::to_jsonl`]. Rejects
    /// missing headers, version mismatches, malformed lines, an event
    /// count that disagrees with the header, events out of the
    /// `(t_ms, user, site, tab, flash)` order a replay runs them in, and
    /// values out of range (past the header's horizon or counts, or
    /// their type), so a trace that parses replays as written.
    pub fn from_jsonl(text: &str) -> Result<Trace, TraceParseError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or(TraceParseError::MissingHeader)?;
        if !header.contains("\"trace\":\"cachecatalyst-fleet\"") {
            return Err(TraceParseError::MissingHeader);
        }
        let version = field_int(header, "version", u64::MAX, 1)?;
        if version != TRACE_VERSION {
            return Err(TraceParseError::VersionMismatch(version));
        }
        let diurnal_raw = field_array(header, "diurnal")?;
        let mut weights = [0.0f64; 24];
        let parts: Vec<&str> = diurnal_raw.split(',').collect();
        if parts.len() != 24 {
            return Err(TraceParseError::Malformed("diurnal needs 24 buckets"));
        }
        for (w, p) in weights.iter_mut().zip(&parts) {
            *w = p
                .trim()
                .parse()
                .map_err(|_| TraceParseError::Malformed("bad diurnal weight"))?;
        }
        let crowds_raw = field_array(header, "flash_crowds")?;
        let mut flash_crowds = Vec::new();
        if !crowds_raw.trim().is_empty() {
            for obj in crowds_raw.split("},{") {
                flash_crowds.push(FlashCrowd {
                    at_secs: field_u64(obj, "at_secs")?,
                    duration_secs: field_u64(obj, "duration_secs")?,
                    visits: field_int(obj, "visits", u64::MAX, 1)?,
                    site_rank: field_int(obj, "site_rank", u64::MAX, 1)?,
                });
            }
        }
        if !(weights.iter().all(|w| *w >= 0.0) && weights.iter().sum::<f64>() > 0.0) {
            return Err(TraceParseError::Malformed("diurnal weights"));
        }
        let spec = WorkloadSpec {
            users: field_int(header, "users", u64::MAX, 1)?,
            sites: field_int(header, "sites", u64::MAX, 1)?,
            horizon_secs: field_u64(header, "horizon_secs")?,
            seed: field_u64(header, "seed")?,
            zipf_s: field_f64(header, "zipf_s")?,
            session: SessionParams {
                visits_mean: field_f64(header, "visits_mean")?,
                revisit_median_secs: field_f64(header, "revisit_median_secs")?,
                revisit_sigma: field_f64(header, "revisit_sigma")?,
                home_bias: field_f64(header, "home_bias")?,
                tab_prob: field_f64(header, "tab_prob")?,
            },
            diurnal: DiurnalCurve::new(weights),
            flash_crowds,
        };
        let declared = field_int(header, "events", u64::MAX, 1)?;
        let horizon_ms = spec.horizon_secs.saturating_mul(1000);
        let mut events: Vec<VisitEvent> = Vec::new();
        // The header is line 1.
        for (line_no, line) in (2..).zip(lines) {
            if line.trim().is_empty() {
                continue;
            }
            let event = VisitEvent {
                t_ms: field_int(line, "t_ms", horizon_ms, line_no)?,
                user: field_int(line, "user", spec.users.into(), line_no)?,
                site: field_int(line, "site", spec.sites.into(), line_no)?,
                tab: field_int(line, "tab", u64::MAX, line_no)?,
                flash: field_int::<u8>(line, "flash", 2, line_no)? == 1,
            };
            if events.last().is_some_and(|last| *last > event) {
                return Err(TraceParseError::OutOfOrder(line_no));
            }
            events.push(event);
        }
        if events.len() != declared {
            return Err(TraceParseError::EventCountMismatch {
                declared,
                found: events.len(),
            });
        }
        Ok(Trace { spec, events })
    }

    /// The index of each user's final event — replay engines use this
    /// to retire per-user state as soon as it can no longer be needed.
    pub fn last_event_of_user(&self) -> std::collections::HashMap<u32, usize> {
        let mut last = std::collections::HashMap::new();
        for (i, e) in self.events.iter().enumerate() {
            last.insert(e.user, i);
        }
        last
    }
}

/// Why a serialized trace failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The first line is absent or is not a fleet-trace header.
    MissingHeader,
    /// The header's version differs from [`TRACE_VERSION`].
    VersionMismatch(u32),
    /// A required field is absent or not a number.
    MissingField(&'static str),
    /// A structural problem (bad array shape, bad number).
    Malformed(&'static str),
    /// The header's event count disagrees with the body.
    EventCountMismatch {
        /// Count announced by the header.
        declared: usize,
        /// Events actually present.
        found: usize,
    },
    /// The event on this line (1-based) sorts before the one above it.
    OutOfOrder(usize),
    /// This field on this line is at or past the header's horizon or
    /// count, or too large for its type.
    OutOfRange(&'static str, usize),
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::MissingHeader => write!(f, "missing fleet-trace header line"),
            TraceParseError::VersionMismatch(v) => {
                write!(f, "trace version {v} (supported: {TRACE_VERSION})")
            }
            TraceParseError::MissingField(k) => write!(f, "missing field {k:?}"),
            TraceParseError::Malformed(what) => write!(f, "malformed trace: {what}"),
            TraceParseError::EventCountMismatch { declared, found } => {
                write!(f, "header declares {declared} events, found {found}")
            }
            TraceParseError::OutOfOrder(line) => write!(f, "line {line}: event out of order"),
            TraceParseError::OutOfRange(k, line) => write!(f, "line {line}: {k:?} out of range"),
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Extracts the raw text of `"key":<value>` from a flat JSON object
/// serialized by this module (no nested objects between key and its
/// scalar value).
fn field_raw<'a>(line: &'a str, key: &'static str) -> Result<&'a str, TraceParseError> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat).ok_or(TraceParseError::MissingField(key))? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}', ']'])
        .ok_or(TraceParseError::Malformed("unterminated value"))?;
    Ok(rest[..end].trim())
}

fn field_u64(line: &str, key: &'static str) -> Result<u64, TraceParseError> {
    field_raw(line, key)?
        .parse()
        .map_err(|_| TraceParseError::Malformed("bad integer"))
}

/// An integer field on line `n` that is below `bound` (exclusive) and
/// fits `T`: never truncated into it.
fn field_int<T: TryFrom<u64>>(
    line: &str,
    key: &'static str,
    bound: u64,
    n: usize,
) -> Result<T, TraceParseError> {
    let value = field_u64(line, key)?;
    let fits = (value < bound).then(|| T::try_from(value).ok()).flatten();
    fits.ok_or(TraceParseError::OutOfRange(key, n))
}

fn field_f64(line: &str, key: &'static str) -> Result<f64, TraceParseError> {
    field_raw(line, key)?
        .parse()
        .map_err(|_| TraceParseError::Malformed("bad float"))
}

/// Extracts the text between `"key":[` and its matching `]` (arrays
/// in this format contain no nested arrays).
fn field_array<'a>(line: &'a str, key: &'static str) -> Result<&'a str, TraceParseError> {
    let pat = format!("\"{key}\":[");
    let start = line.find(&pat).ok_or(TraceParseError::MissingField(key))? + pat.len();
    let rest = &line[start..];
    // The only `]` before a top-level close: flash-crowd objects hold
    // no arrays, so the first unmatched `]` terminates this one.
    let end = rest
        .find(']')
        .ok_or(TraceParseError::Malformed("unterminated array"))?;
    Ok(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_probabilities_decrease_and_sum_to_one() {
        let z = ZipfSampler::new(50, 1.0);
        let total: f64 = (0..50).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for k in 1..50 {
            assert!(z.probability(k) < z.probability(k - 1), "rank {k}");
        }
        assert!(z.probability(0) / z.probability(9) > 9.0);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for k in 0..10 {
            assert!((z.probability(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_samples_stay_in_range_and_skew_hot() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = rng_for(1, "zipf-range");
        let mut hot = 0;
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!(k < 100);
            if k == 0 {
                hot += 1;
            }
        }
        // P(0) ≈ 0.193 at n=100, s=1.
        assert!((1500..=2500).contains(&hot), "hot {hot}");
    }

    #[test]
    fn diurnal_fractions_sum_to_one_and_mass_to_total() {
        for curve in [DiurnalCurve::uniform(), DiurnalCurve::typical()] {
            let sum: f64 = (0..24).map(|h| curve.fraction(h)).sum();
            assert!((sum - 1.0).abs() < 1e-9);
            let mass = curve.bucket_mass(10_000.0);
            assert!((mass.iter().sum::<f64>() - 10_000.0).abs() < 1e-6);
        }
    }

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let spec = WorkloadSpec {
            users: 500,
            sites: 20,
            ..Default::default()
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        assert!(a.events.windows(2).all(|w| w[0] <= w[1]), "unsorted");
        assert!(a.events.iter().all(|e| e.t_ms < spec.horizon_secs * 1000));
        assert!(a
            .events
            .iter()
            .all(|e| e.user < spec.users && e.site < spec.sites));
    }

    #[test]
    fn flash_crowd_events_land_in_window_on_target() {
        let spec = WorkloadSpec {
            users: 100,
            sites: 10,
            flash_crowds: vec![FlashCrowd {
                at_secs: 7200,
                duration_secs: 30,
                visits: 250,
                site_rank: 0,
            }],
            ..Default::default()
        };
        let trace = generate(&spec);
        let spike: Vec<_> = trace.events.iter().filter(|e| e.flash).collect();
        assert_eq!(spike.len(), 250);
        for e in &spike {
            assert_eq!(e.site, 0);
            assert!((7_200_000..7_230_000).contains(&e.t_ms), "{}", e.t_ms);
        }
    }

    #[test]
    fn jsonl_round_trips_byte_identically() {
        let spec = WorkloadSpec {
            users: 120,
            sites: 8,
            horizon_secs: 7200,
            flash_crowds: vec![FlashCrowd {
                at_secs: 100,
                duration_secs: 10,
                visits: 40,
                site_rank: 1,
            }],
            ..Default::default()
        };
        let trace = generate(&spec);
        let text = trace.to_jsonl();
        let parsed = Trace::from_jsonl(&text).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn parser_rejects_damage() {
        let trace = generate(&WorkloadSpec {
            users: 10,
            sites: 3,
            ..Default::default()
        });
        let text = trace.to_jsonl();
        assert_eq!(Trace::from_jsonl(""), Err(TraceParseError::MissingHeader));
        let wrong_version = text.replacen("\"version\":1", "\"version\":9", 1);
        assert_eq!(
            Trace::from_jsonl(&wrong_version),
            Err(TraceParseError::VersionMismatch(9))
        );
        let mut truncated: Vec<&str> = text.lines().collect();
        truncated.pop();
        assert!(matches!(
            Trace::from_jsonl(&truncated.join("\n")),
            Err(TraceParseError::EventCountMismatch { .. })
        ));
        let huge_count = text.replacen(
            &format!("\"events\":{}", trace.events.len()),
            &format!("\"events\":{}", u64::MAX),
            1,
        );
        assert_eq!(
            Trace::from_jsonl(&huge_count),
            Err(TraceParseError::OutOfRange("events", 1))
        );
        let negative_weight = text.replacen("\"diurnal\":[0.35", "\"diurnal\":[-1", 1);
        assert_eq!(
            Trace::from_jsonl(&negative_weight),
            Err(TraceParseError::Malformed("diurnal weights"))
        );
    }

    #[test]
    fn parser_rejects_events_out_of_replay_order() {
        // `run_fleet`'s test trace with its event lines reversed: replayed
        // by index it retired profiles early and counted users twice.
        let text = generate(&WorkloadSpec {
            users: 40,
            sites: 5,
            horizon_secs: 3600,
            ..Default::default()
        })
        .to_jsonl();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1..].reverse();
        assert!(matches!(
            Trace::from_jsonl(&lines.join("\n")),
            Err(TraceParseError::OutOfOrder(_))
        ));
    }

    #[test]
    fn parser_rejects_values_outside_their_range() {
        let text = Trace {
            spec: WorkloadSpec {
                users: 2,
                sites: 2,
                horizon_secs: 10,
                ..Default::default()
            },
            events: vec![VisitEvent {
                t_ms: 5,
                user: 1,
                site: 1,
                tab: 1,
                flash: true,
            }],
        }
        .to_jsonl();
        assert!(Trace::from_jsonl(&text).is_ok());
        for (field, damaged, line) in [
            // Past the header's count or horizon.
            ("\"site\":1", "\"site\":2", 2),
            ("\"user\":1", "\"user\":2", 2),
            ("\"t_ms\":5", "\"t_ms\":10000", 2),
            // Values that `as` would have truncated to ones in range.
            ("\"user\":1", "\"user\":4294967297", 2),
            ("\"site\":1", "\"site\":4294967297", 2),
            ("\"tab\":1", "\"tab\":257", 2),
            ("\"flash\":1", "\"flash\":2", 2),
            ("\"users\":2", "\"users\":4294967298", 1),
            ("\"version\":1", "\"version\":4294967297", 1),
        ] {
            let key = field.split('"').nth(1).unwrap();
            assert_eq!(
                Trace::from_jsonl(&text.replacen(field, damaged, 1)),
                Err(TraceParseError::OutOfRange(key, line)),
                "{damaged}"
            );
        }
    }

    #[test]
    fn last_event_index_is_correct() {
        let trace = generate(&WorkloadSpec {
            users: 50,
            sites: 5,
            ..Default::default()
        });
        let last = trace.last_event_of_user();
        for (user, idx) in &last {
            assert_eq!(trace.events[*idx].user, *user);
            assert!(trace.events[*idx + 1..].iter().all(|e| e.user != *user));
        }
    }
}
