//! The one hash function answers depend on.
//!
//! Three hashes decide what a run computes: hash partitioning routes
//! each map-output key to a reduce task ([`crate::job::default_partition`]),
//! and two drivers rank points by a seeded hash of their coordinates.
//! Reduce-task loads, and with them simulated seconds, depend on the
//! first; which points G-means splits on and which k-means‖ samples
//! depend on the others. `std`'s `DefaultHasher` documents that its
//! algorithm "is not specified" and may change between releases, so
//! none of them can use it. [`StableHasher`] is SipHash-1-3 with zero
//! keys — the algorithm `DefaultHasher::new()` runs today, so every
//! golden value pinned under it stays put — written out here so that no
//! toolchain upgrade can move it.
//!
//! [`FoldHasher`] is the other hash here, and no answer depends on it: it
//! indexes the per-attempt key maps of the map side's folding emitter,
//! which drain in key order. It is a seeded folded multiply — a few
//! cycles per key word, where SipHash takes tens of nanoseconds on the
//! one lookup every emission makes.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// SipHash-1-3 with both keys zero, over the bytes a value's `Hash`
/// impl writes: one compression round per eight-byte word, three
/// finalization rounds. Like every SipHash it is a function of the
/// concatenated byte stream, so how `Hash` splits its writes does not
/// matter.
#[derive(Clone, Debug)]
pub struct StableHasher {
    v: [u64; 4],
    /// Bytes written so far that do not yet fill a word, low first.
    tail: u64,
    /// Total bytes written.
    len: usize,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A hasher with zero keys.
    pub fn new() -> Self {
        Self {
            // "somepseudorandomlygeneratedbytes", each word xor a zero key.
            v: [
                0x736f_6d65_7073_6575,
                0x646f_7261_6e64_6f6d,
                0x6c79_6765_6e65_7261,
                0x7465_6462_7974_6573,
            ],
            tail: 0,
            len: 0,
        }
    }

    #[inline]
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[2] = v[2].rotate_left(32);
    }

    /// Absorbs one eight-byte message word (one compression round).
    #[inline]
    fn absorb(&mut self, m: u64) {
        self.v[3] ^= m;
        Self::round(&mut self.v);
        self.v[0] ^= m;
    }
}

impl Hasher for StableHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let fill = self.len % 8;
        self.len += bytes.len();
        let mut rest = bytes;
        if fill > 0 {
            let take = rest.len().min(8 - fill);
            for (i, &b) in rest[..take].iter().enumerate() {
                self.tail |= u64::from(b) << (8 * (fill + i));
            }
            rest = &rest[take..];
            if fill + take < 8 {
                return;
            }
            let m = std::mem::take(&mut self.tail);
            self.absorb(m);
        }
        let mut words = rest.chunks_exact(8);
        for w in words.by_ref() {
            self.absorb(u64::from_le_bytes(
                w.try_into().expect("an eight-byte chunk"),
            ));
        }
        for (i, &b) in words.remainder().iter().enumerate() {
            self.tail |= u64::from(b) << (8 * i);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut v = self.v;
        let b = ((self.len as u64 & 0xff) << 56) | self.tail;
        v[3] ^= b;
        Self::round(&mut v);
        v[0] ^= b;
        v[2] ^= 0xff;
        for _ in 0..3 {
            Self::round(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }
}

/// Odd 64-bit multiplier of [`FoldHasher`]: the first 64 fractional
/// bits of π.
const FOLD_MULTIPLIER: u64 = 0x243f_6a88_85a3_08d3;

/// The 128-bit product of `a` and `b`, its high word xor its low word.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Builds [`FoldHasher`]s from one seed, drawn from std's
/// [`RandomState`] when the state is made.
#[derive(Clone, Copy, Debug)]
pub struct FoldState {
    seed: u64,
}

impl FoldState {
    /// A state with a fresh random seed.
    pub fn new() -> Self {
        Self {
            seed: RandomState::new().build_hasher().finish(),
        }
    }
}

impl Default for FoldState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { acc: self.seed }
    }
}

/// A seeded folded-multiply hash for in-memory hash maps: each key word
/// is xored into the state, which becomes the folded 128-bit product of
/// itself and an odd constant, the first 64 fractional bits of π. The
/// fold carries the high word down, so every input bit reaches the low
/// bits a hash table indexes by — bit 62 too, which alone tells
/// `KMeansAndFindNewCenters`' candidate keys from its refine keys. Not
/// for anything an answer depends on: the seed differs between states.
#[derive(Clone, Debug)]
pub struct FoldHasher {
    acc: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.acc = folded_multiply(self.acc ^ word, FOLD_MULTIPLIER);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::{DefaultHasher, Hash};

    fn stable<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = StableHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    fn default<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    fn bytes(data: &[u8]) -> u64 {
        let mut h = StableHasher::new();
        h.write(data);
        h.finish()
    }

    /// SipHash-1-3, zero keys. Pinned values: a toolchain whose
    /// `DefaultHasher` moves must not move these.
    #[test]
    fn known_answers() {
        let message: Vec<u8> = (0..64).collect();
        let cases: [(&[u8], u64); 6] = [
            (b"", 0xd1fb_a762_150c_532c),
            (&message[..1], 0x68a9_1412_8e01_e473),
            (&message[..7], 0x2f09_8ab0_c751_325a),
            (&message[..8], 0xead4_11e6_7ebe_2eea),
            (&message[..15], 0xf30e_b725_bb91_c9ea),
            (&message[..64], 0x75e0_5fd5_bbc8_70c6),
        ];
        for (data, want) in cases {
            assert_eq!(bytes(data), want, "{} bytes", data.len());
        }
        assert_eq!(stable(&0i64), 0xbd60_acb6_58c7_9e45);
        assert_eq!(stable(&(3u32, 7u32)), 0x4861_8e34_7eff_3bc7);
    }

    #[test]
    fn split_writes_hash_as_one_stream() {
        let message: Vec<u8> = (0..=255).collect();
        for cut in [0, 1, 3, 7, 8, 9, 15, 16, 100, 255, 256] {
            for second in [1, 5, 8, 13] {
                let mut h = StableHasher::new();
                let (a, rest) = message.split_at(cut);
                let (b, c) = rest.split_at(second.min(rest.len()));
                h.write(a);
                h.write(b);
                h.write(c);
                assert_eq!(h.finish(), bytes(&message), "cut {cut} then {second}");
            }
        }
    }

    proptest! {
        /// Equal to `DefaultHasher` on this toolchain over the key types
        /// the shuffle partitions on and the coordinate streams the
        /// drivers rank points by.
        #[test]
        fn matches_default_hasher(
            keys in proptest::collection::vec(i64::MIN..=i64::MAX, 1..32),
            pairs in proptest::collection::vec((0..=u32::MAX, 0..=u32::MAX), 1..32),
            seed in 0..=u64::MAX,
            coords in proptest::collection::vec(-1e12..1e12f64, 0..12),
            data in proptest::collection::vec(0..=u8::MAX, 0..80),
        ) {
            for key in &keys {
                prop_assert_eq!(stable(key), default(key));
            }
            for pair in &pairs {
                prop_assert_eq!(stable(pair), default(pair));
            }
            let stream = |h: &mut dyn Hasher| {
                h.write_u64(seed);
                for c in &coords {
                    h.write_u64(c.to_bits());
                }
                h.finish()
            };
            prop_assert_eq!(stream(&mut StableHasher::new()), stream(&mut DefaultHasher::new()));
            let mut h = DefaultHasher::new();
            h.write(&data);
            prop_assert_eq!(bytes(&data), h.finish());
        }
    }

    /// The low `bits` bits of each key's hash under `state`.
    fn buckets<K: Hash>(state: &FoldState, keys: &[K], bits: u32) -> Vec<u64> {
        keys.iter()
            .map(|k| state.hash_one(k) & ((1 << bits) - 1))
            .collect()
    }

    /// Refine keys `id` and candidate keys `id + 2⁶²` differ in bit 62
    /// alone; they must still spread over a table's low-bit buckets as
    /// random keys would, not pair up in the same bucket.
    #[test]
    fn fold_hash_mixes_bit_62_into_the_low_bits() {
        const OFFSET: i64 = 1 << 62;
        for seed in [0, 1, 0x5eed, 1 << 62, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            let state = FoldState { seed };
            let ids: Vec<i64> = (0..512).collect();
            let offset: Vec<i64> = ids.iter().map(|id| id + OFFSET).collect();
            let (low, high) = (buckets(&state, &ids, 10), buckets(&state, &offset, 10));
            let paired = low.iter().zip(&high).filter(|(a, b)| a == b).count();
            assert!(
                paired <= 8,
                "seed {seed:#x}: {paired} of 512 pairs share a bucket"
            );
            let mut all: Vec<u64> = low.into_iter().chain(high).collect();
            all.sort_unstable();
            all.dedup();
            // 1024 random keys fill about 1024·(1 − 1/e) ≈ 647 of 1024.
            assert!(all.len() > 560, "seed {seed:#x}: {} buckets", all.len());
        }
    }

    /// Multi-k keys `(k index, center id)` hash as two words.
    #[test]
    fn fold_hash_spreads_pair_keys() {
        let state = FoldState { seed: 7 };
        let keys: Vec<(u32, u32)> = (0..32).flat_map(|k| (0..32).map(move |c| (k, c))).collect();
        let mut all = buckets(&state, &keys, 10);
        all.sort_unstable();
        all.dedup();
        assert!(all.len() > 560, "{} buckets", all.len());
    }

    #[test]
    fn fold_hash_is_a_function_of_seed_and_key_words() {
        let state = FoldState { seed: 42 };
        assert_eq!(state.hash_one(5i64), state.hash_one(5i64));
        assert_eq!(
            state.hash_one(5i64),
            folded_multiply(42 ^ 5, FOLD_MULTIPLIER)
        );
        let mut bytes = state.build_hasher();
        bytes.write(&5u64.to_le_bytes());
        assert_eq!(bytes.finish(), state.hash_one(5u64));
        assert_ne!(FoldState { seed: 43 }.hash_one(5i64), state.hash_one(5i64));
    }
}
