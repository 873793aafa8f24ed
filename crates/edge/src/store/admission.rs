//! Admission control for the disk tier.
//!
//! Flash wears out and segment appends are the disk tier's only write
//! path, so what gets written matters as much as what gets evicted:
//! a request stream dominated by one-hit wonders must not converted
//! into segment churn. Two policies are provided:
//!
//! * [`AdmissionPolicy::AdmitAll`] — every demotion is written (the
//!   baseline, and the right choice for small warm sets);
//! * [`AdmissionPolicy::TinyLfuAdmit`] — a frequency sketch admits
//!   only keys seen at least `min_hits` times, so one-hit-wonder
//!   traffic never touches the segment files (the TinyLFU idea, with
//!   the doorkeeper collapsed into the 4-bit count-min sketch).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use parking_lot::Mutex;

/// How demotions are admitted to the disk tier. Pluggable on
/// [`DiskTierOptions::admission`](super::DiskTierOptions::admission).
#[derive(Clone, Debug, PartialEq)]
pub enum AdmissionPolicy {
    /// Write every demotion.
    AdmitAll,
    /// Admit a candidate only when the frequency sketch has counted
    /// its key at least `min_hits` times — repeated traffic passes,
    /// one-hit wonders are refused.
    TinyLfuAdmit {
        /// Minimum sketch estimate required for admission (≥ 1).
        min_hits: u8,
    },
}

impl AdmissionPolicy {
    /// Compiles the declarative policy into runtime state.
    pub(crate) fn compile(&self) -> Admission {
        match *self {
            AdmissionPolicy::AdmitAll => Admission::All,
            AdmissionPolicy::TinyLfuAdmit { min_hits } => Admission::TinyLfu {
                sketch: FreqSketch::new(16, 1 << 16),
                min_hits: min_hits.clamp(1, 15),
            },
        }
    }
}

/// splitmix64 — one multiply-xor-shift chain, the workspace's standard
/// cheap mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Compiled admission state. Not constructed directly — see
/// [`AdmissionPolicy`].
pub(crate) enum Admission {
    All,
    TinyLfu { sketch: FreqSketch, min_hits: u8 },
}

impl Admission {
    /// Whether this policy learns from accesses at all. Lets the
    /// lookup path skip hashing the key when the answer is no — the
    /// stateless policies would only discard it.
    #[inline]
    pub(crate) fn observes_accesses(&self) -> bool {
        matches!(self, Admission::TinyLfu { .. })
    }

    /// Records one access to `key_hash` (frequency-based policies
    /// only; the others are stateless per access).
    pub(crate) fn record(&self, key_hash: u64) {
        if let Admission::TinyLfu { sketch, .. } = self {
            sketch.record(key_hash);
        }
    }

    /// Should a demotion of `key_hash` be written to disk?
    pub(crate) fn admit(&self, key_hash: u64) -> bool {
        match self {
            Admission::All => true,
            Admission::TinyLfu { sketch, min_hits } => sketch.estimate(key_hash) >= *min_hits,
        }
    }
}

/// A 4-bit count-min sketch: `DEPTH` rows of saturating 4-bit
/// counters (two per byte), with periodic halving so estimates track
/// recent popularity instead of all of history.
///
/// Increments are racy-but-monotone-ish by design: a lost update under
/// contention costs at most one count, which a sketch tolerates. The
/// halving pass runs at most once per sample window, guarded by a
/// try-lock so it never stalls the request path.
pub struct FreqSketch {
    /// `DEPTH` rows × `width` counters, packed two per byte.
    rows: Vec<Vec<AtomicU8>>,
    mask: u64,
    ops: AtomicU64,
    sample: u64,
    aging: Mutex<()>,
    ages: AtomicU64,
}

const DEPTH: usize = 4;
const ROW_SALTS: [u64; DEPTH] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x27d4_eb2f_1656_67c5,
];

impl FreqSketch {
    /// A sketch of `width` counters per row (rounded up to a power of
    /// two); counts halve every `sample_per_counter × width` recorded
    /// accesses.
    pub fn new(sample_per_counter: u64, width: usize) -> FreqSketch {
        let width = width.next_power_of_two().max(2);
        FreqSketch {
            rows: (0..DEPTH)
                .map(|_| (0..width / 2).map(|_| AtomicU8::new(0)).collect())
                .collect(),
            mask: width as u64 - 1,
            ops: AtomicU64::new(0),
            sample: sample_per_counter * width as u64,
            aging: Mutex::new(()),
            ages: AtomicU64::new(0),
        }
    }

    fn cell(&self, row: usize, key_hash: u64) -> (usize, u32) {
        let idx = mix64(key_hash ^ ROW_SALTS[row]) & self.mask;
        // Low bit picks the nibble, the rest the byte.
        ((idx >> 1) as usize, (idx as u32 & 1) * 4)
    }

    /// Counts one access to `key_hash` in every row, saturating at 15.
    pub fn record(&self, key_hash: u64) {
        for (row_idx, row) in self.rows.iter().enumerate() {
            let (byte, shift) = self.cell(row_idx, key_hash);
            let cell = &row[byte];
            let v = cell.load(Ordering::Relaxed);
            if (v >> shift) & 0xF < 15 {
                cell.store(v + (1 << shift), Ordering::Relaxed);
            }
        }
        if self.ops.fetch_add(1, Ordering::Relaxed) + 1 >= self.sample {
            self.age();
        }
    }

    /// The count-min estimate for `key_hash`: the minimum over rows.
    pub fn estimate(&self, key_hash: u64) -> u8 {
        let mut min = 15u8;
        for (row_idx, row) in self.rows.iter().enumerate() {
            let (byte, shift) = self.cell(row_idx, key_hash);
            min = min.min((row[byte].load(Ordering::Relaxed) >> shift) & 0xF);
        }
        min
    }

    /// How many halving passes have run (test observability).
    pub fn ages(&self) -> u64 {
        self.ages.load(Ordering::Relaxed)
    }

    fn age(&self) {
        // One thread halves; the rest keep serving on slightly-stale
        // counts until the pass lands.
        let Some(_guard) = self.aging.try_lock() else {
            return;
        };
        if self.ops.load(Ordering::Relaxed) < self.sample {
            return; // another pass already reset the window
        }
        for row in &self.rows {
            for cell in row {
                // Halve both packed nibbles in one byte op.
                let v = cell.load(Ordering::Relaxed);
                cell.store((v >> 1) & 0x77, Ordering::Relaxed);
            }
        }
        self.ops.store(0, Ordering::Relaxed);
        self.ages.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_all_admits() {
        let all = AdmissionPolicy::AdmitAll.compile();
        assert!(all.admit(1));
    }

    #[test]
    fn sketch_separates_hot_from_cold() {
        let sketch = FreqSketch::new(16, 1 << 12);
        for i in 0..8u64 {
            for _ in 0..5 {
                sketch.record(i);
            }
        }
        for i in 0..8u64 {
            assert!(sketch.estimate(i) >= 5, "hot key undercounted");
        }
        // A key never recorded estimates (near) zero; with 4 rows over
        // a sparsely-populated sketch, collisions across all rows are
        // vanishingly unlikely.
        assert!(sketch.estimate(0xDEAD_BEEF) < 2);
    }

    #[test]
    fn sketch_ages_and_halves() {
        let sketch = FreqSketch::new(1, 2); // tiny: sample window = 2
        for _ in 0..10 {
            sketch.record(3);
        }
        assert!(sketch.ages() > 0, "aging pass must have run");
        assert!(sketch.estimate(3) < 15, "halving keeps counts bounded");
    }

    #[test]
    fn tiny_lfu_admits_repeats_only() {
        let adm = AdmissionPolicy::TinyLfuAdmit { min_hits: 2 }.compile();
        adm.record(7);
        assert!(!adm.admit(7), "one access is not enough");
        adm.record(7);
        assert!(adm.admit(7), "second access admits");
        assert!(!adm.admit(1234), "never-seen key refused");
    }
}
