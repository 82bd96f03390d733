//! A fast, non-cryptographic hasher (FxHash-style) implemented locally so the
//! engine does not depend on external hashing crates.
//!
//! The std `SipHash` default is robust against HashDoS but measurably slow for
//! the short integer-heavy keys (rule encodings, bit masks) that dominate
//! SIRUM's shuffles. All hash maps in this workspace key on data we generate
//! ourselves, so DoS resistance is not required.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;
/// Final mix applied by [`FxHasher::finish`]. A multiply only carries bits
/// upward, so the raw product's low bits depend only on the key's low
/// bits. hashbrown takes the bucket index from the low bits and the
/// control-byte tag from the top 7, so packed rule codes that differ only
/// in their high fields (the first dimensions) would all share one probe
/// chain. `finish` therefore rotates the product left by 26 (rustc-hash
/// 2.0's fix), so the bucket index reads the best-mixed top 26 product
/// bits. An invertible xor-shift first folds product bits 57..63 into the
/// bits the rotation moves to the tag, which would otherwise read only
/// product bits 31..37.
const FINISH_ROTATE: u32 = 26;

/// FxHash-style multiplicative hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        (self.hash ^ (self.hash >> FINISH_ROTATE)).rotate_left(FINISH_ROTATE)
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        // Two word-mixes instead of std's default byte-slice fallback:
        // packed u128 rule codes sit on the sweep's hottest probe path.
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hash a single value with [`FxHasher`]; used for shuffle partitioning.
#[inline]
pub fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic() {
        assert_eq!(fx_hash_one(&42u64), fx_hash_one(&42u64));
        assert_eq!(fx_hash_one(&"abc"), fx_hash_one(&"abc"));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(fx_hash_one(&1u64), fx_hash_one(&2u64));
        assert_ne!(fx_hash_one(&[1u32, 2]), fx_hash_one(&[2u32, 1]));
        // u128 mixes both halves, not just the low word.
        assert_ne!(fx_hash_one(&1u128), fx_hash_one(&(1u128 << 64 | 1)));
        assert_ne!(fx_hash_one(&0u128), fx_hash_one(&(1u128 << 127)));
    }

    #[test]
    fn byte_tails_are_mixed() {
        // Inputs that differ only in a non-word-aligned tail byte must differ.
        assert_ne!(fx_hash_one(&[1u8, 2, 3]), fx_hash_one(&[1u8, 2, 4]));
        assert_ne!(
            fx_hash_one(&[1u8, 2, 3, 4, 5]),
            fx_hash_one(&[1u8, 2, 3, 4, 6])
        );
    }

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(vec![i, i + 1], u64::from(i));
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m[&vec![i, i + 1]], u64::from(i));
        }
    }

    #[test]
    fn distribution_is_reasonable() {
        // Crude avalanche check: bucketing 10k sequential integers into 64
        // buckets should not leave any bucket pathologically empty/full.
        let mut buckets = [0usize; 64];
        for i in 0..10_000u64 {
            buckets[(fx_hash_one(&i) % 64) as usize] += 1;
        }
        let min = *buckets.iter().min().unwrap();
        let max = *buckets.iter().max().unwrap();
        assert!(min > 50, "min bucket {min}");
        assert!(max < 500, "max bucket {max}");
    }

    /// Distinct values among `hashes` after `f` picks some of their bits.
    fn distinct_by(hashes: &[u64], f: impl Fn(u64) -> u64) -> usize {
        hashes.iter().map(|&h| f(h)).collect::<HashSet<u64>>().len()
    }

    #[test]
    fn high_only_keys_reach_the_bucket_and_tag_bits() {
        // Regression: `finish` used to return the raw product, whose low
        // bits depend only on the key's low bits. Packed rule codes put
        // the first dimensions in the high fields and wildcards in
        // all-ones fields, so keys shaped like `(k << 36) | 0xFFF` — equal
        // below bit 36 — all landed in one hashbrown bucket chain. They
        // must spread over both the low bits hashbrown indexes by and the
        // top 7 bits it stores as the control-byte tag.
        let hashes: Vec<u64> = (0..4096u64)
            .map(|k| fx_hash_one(&((k << 36) | 0xFFF)))
            .collect();
        let low12 = distinct_by(&hashes, |h| h & 0xFFF);
        let top7 = distinct_by(&hashes, |h| h >> 57);
        // 4096 keys into 4096 slots: a uniform hash fills ~63% of them.
        assert!(low12 > 2048, "low 12 bits take only {low12} values");
        assert_eq!(top7, 128, "top 7 bits take only {top7} values");
        // The same holds for u128 codes whose varying fields sit in the
        // upper word.
        let wide: Vec<u64> = (0..4096u128)
            .map(|k| fx_hash_one(&((k << 100) | 0xFFF)))
            .collect();
        let low12 = distinct_by(&wide, |h| h & 0xFFF);
        assert!(low12 > 2048, "u128: low 12 bits take only {low12} values");
    }
}
