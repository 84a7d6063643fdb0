//! One fixed-key multiplicative hasher for the lookup maps of the
//! simulator and of the native backend's mailbox index (`ci.sh` fails on a
//! second `Hasher` impl anywhere under `crates/`).
//!
//! std's default `RandomState` is SipHash-1-3 under a per-process random
//! key: DoS-resistant, but several times the cost of the integer keys
//! hashed on every event and message (event `(time, pid)` pairs, tags,
//! `(src, tag)` pairs, ranks). None of those keys come
//! from an adversary, so [`FixedState`] trades the resistance for speed:
//! each word of the key is added to the state, which is then multiplied by
//! one odd constant; [`Hasher::finish`] rotates the well-mixed high bits
//! of the product down to where hashbrown picks its bucket.
//!
//! The key is a constant, so equal keys hash equally in every process.
//! That does **not** make a map's iteration order something behaviour may
//! depend on (it still follows capacity and insertion history), which is
//! why every map built on it keeps its reasoned
//! `#[allow(clippy::disallowed_types)]`: such maps are only looked up.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the constant of `rustc-hash` 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The hasher behind [`FixedState`]. Not DoS-resistant: for keys the
/// program makes itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedHasher(u64);

impl FixedHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `BuildHasher` of [`FixedHasher`]: the third type parameter of the
/// simulator's `HashMap`s and `HashSet`s.
pub type FixedState = BuildHasherDefault<FixedHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        FixedState::default().hash_one(v)
    }

    #[test]
    fn the_key_is_fixed() {
        // Pinned: a changed constant or mixing step would change which
        // bucket every key lands in, so it must be a deliberate edit.
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), K.rotate_left(26));
        assert_eq!(
            hash_of((3u64, 4usize)),
            ((3u64.wrapping_mul(K) + 4).wrapping_mul(K)).rotate_left(26)
        );
    }

    #[test]
    fn byte_writes_hash_like_the_words_they_spell() {
        let mut a = FixedHasher::default();
        a.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut b = FixedHasher::default();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn sequential_keys_spread_over_buckets() {
        // hashbrown indexes by the low bits: 4,096 consecutive keys (and
        // the same keys scaled by 1,000, like round nanosecond times, or
        // moved to bits 32.., like stream tags that differ only in their
        // channel) must fill most of 4,096 buckets, not a stride of them.
        for scale in [1u64, 1_000, 1 << 20, 1 << 32] {
            let mut hit = vec![false; 4_096];
            for k in 0..4_096u64 {
                hit[(hash_of((k * scale, 7usize)) & 4_095) as usize] = true;
            }
            let filled = hit.iter().filter(|&&h| h).count();
            assert!(filled > 2_400, "scale {scale}: {filled} of 4096 buckets");
        }
    }
}
