//! The workspace's two non-cryptographic hashes, and which one goes
//! where.
//!
//! * [`xxh64`] digests *content*: bodies handed to the page, bodies
//!   the edge audits, whole disk-tier records. Inputs run to hundreds
//!   of kilobytes and the value never leaves the process (or, for the
//!   disk tier, the record it trails), so the only requirements are
//!   speed and good dispersion. XXH64 consumes 32 bytes per step over
//!   four independent lanes and runs at memory speed.
//! * [`fnv1a64`] hashes *keys* and anything whose value is visible:
//!   shard choice, content-derived
//!   [`EntityTag`](crate::EntityTag)s and `x-cc-config-digest`. Those
//!   inputs are short, and their values reach wire bytes and exact
//!   metrics, so they must never change.
//!
//! Both are pure functions of the input bytes on every platform.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte slice"))
}

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge(hash: u64, acc: u64) -> u64 {
    (hash ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 with seed 0 — the bulk content digest.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() >= 32 {
        let (mut v1, mut v2, mut v3, mut v4) =
            (P1.wrapping_add(P2), P2, 0u64, 0u64.wrapping_sub(P1));
        for stripe in &mut stripes {
            v1 = round(v1, le64(stripe));
            v2 = round(v2, le64(&stripe[8..]));
            v3 = round(v3, le64(&stripe[16..]));
            v4 = round(v4, le64(&stripe[24..]));
        }
        let mixed = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        merge(merge(merge(merge(mixed, v1), v2), v3), v4)
    } else {
        P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ round(0, le64(word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("4-byte slice"));
        hash = (hash ^ u64::from(half).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &byte in tail {
        hash = (hash ^ u64::from(byte).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// FNV-1a 64 — the key hash, and the digest behind every value that
/// reaches the wire.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.write(bytes);
    hash.finish()
}

/// [`fnv1a64`] fed a piece at a time: after any sequence of writes,
/// [`Fnv1a64::finish`] is `fnv1a64` of their concatenation. It is also
/// a [`fmt::Write`](std::fmt::Write), so a value can be digested in its
/// `Display` form without being rendered into a `String` first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    pub const fn new() -> Fnv1a64 {
        Fnv1a64::with_seed(0)
    }

    /// FNV-1a started from the offset basis XOR `seed`: one hash per
    /// seed, `with_seed(0)` being [`Fnv1a64::new`].
    pub const fn with_seed(seed: u64) -> Fnv1a64 {
        Fnv1a64(0xcbf2_9ce4_8422_2325 ^ seed)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Fnv1a64 {
        Fnv1a64::new()
    }
}

impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The XXH64 specification transcribed index by index, sharing
    /// nothing with [`xxh64`] but the five primes.
    fn xxh64_reference(input: &[u8]) -> u64 {
        fn read(input: &[u8], at: usize, width: usize) -> u64 {
            (0..width).fold(0, |v, i| v | u64::from(input[at + i]) << (8 * i))
        }
        fn round(acc: u64, lane: u64) -> u64 {
            acc.wrapping_add(lane.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1)
        }
        let len = input.len();
        let mut at = 0;
        let mut hash;
        if len >= 32 {
            let mut acc = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
            while at + 32 <= len {
                for (lane, a) in acc.iter_mut().enumerate() {
                    *a = round(*a, read(input, at + 8 * lane, 8));
                }
                at += 32;
            }
            hash = acc[0]
                .rotate_left(1)
                .wrapping_add(acc[1].rotate_left(7))
                .wrapping_add(acc[2].rotate_left(12))
                .wrapping_add(acc[3].rotate_left(18));
            for a in acc {
                hash ^= round(0, a);
                hash = hash.wrapping_mul(P1).wrapping_add(P4);
            }
        } else {
            hash = P5;
        }
        hash = hash.wrapping_add(len as u64);
        while at + 8 <= len {
            hash ^= round(0, read(input, at, 8));
            hash = hash.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            at += 8;
        }
        if at + 4 <= len {
            hash ^= read(input, at, 4).wrapping_mul(P1);
            hash = hash.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            at += 4;
        }
        while at < len {
            hash ^= read(input, at, 1).wrapping_mul(P5);
            hash = hash.rotate_left(11).wrapping_mul(P1);
            at += 1;
        }
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(P2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(P3);
        hash ^ (hash >> 32)
    }

    #[test]
    fn xxh64_matches_the_published_vectors() {
        for (input, want) in [
            ("", 0xef46_db37_51d8_e999_u64),
            ("a", 0xd24e_c4f1_a98c_6e5b),
            ("abc", 0x44bc_2cf5_ad77_0999),
            ("xxhash", 0x32dd_3895_2c4b_c720),
            (
                "Nobody inspects the spammish repetition",
                0xfbce_a83c_8a37_8bf1,
            ),
        ] {
            assert_eq!(xxh64(input.as_bytes()), want, "xxh64({input:?})");
            assert_eq!(
                xxh64_reference(input.as_bytes()),
                want,
                "reference({input:?})"
            );
        }
    }

    /// Every length through eight stripes and a byte, so each of the
    /// 32-, 8-, 4- and 1-byte tails is taken in every combination.
    #[test]
    fn xxh64_agrees_with_the_reference_at_every_length() {
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                xxh64(&data[..len]),
                xxh64_reference(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn fnv1a64_is_pinned() {
        // The published FNV-1a 64 vectors; ETags, shard choice and
        // `x-cc-config-digest` are all this function of their input.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a64_fed_in_pieces_is_fnv1a64_of_the_whole() {
        use std::fmt::Write as _;
        let mut hash = Fnv1a64::new();
        hash.write(b"fo");
        let (o, rest) = ('o', "bar");
        write!(hash, "{o}{rest}").unwrap();
        assert_eq!(hash.finish(), fnv1a64(b"foobar"));
    }

    proptest! {
        #[test]
        fn xxh64_sees_every_bit_and_the_length(
            mut data in prop::collection::vec(any::<u8>(), 1..600),
            at: usize,
            bit in 0u8..8,
        ) {
            let digest = xxh64(&data);
            prop_assert_ne!(digest, xxh64(&data[..data.len() - 1]));
            let at = at % data.len();
            data[at] ^= 1 << bit;
            prop_assert_ne!(digest, xxh64(&data));
        }
    }
}
