//! The workspace's one hasher for hash maps and sets.
//!
//! Every `HashMap`/`HashSet` in the reproduction is keyed by small
//! integers (page numbers, tids, kernel ids, word addresses), looked up on
//! every modelled operation. std's default `RandomState` (SipHash-1-3) is
//! built to resist HashDoS, which a closed simulation does not need, and it
//! costs several times more per lookup than a multiply. [`FastHasher`] is an
//! Fx-style multiply-rotate hash with a fixed seed: the same key hashes to
//! the same value in every process, so map iteration order is fixed too
//! (the model still never observes it — ordered output sorts or uses a
//! `BTreeMap`).
//!
//! ```
//! use popcorn_sim::FastMap;
//!
//! let mut m: FastMap<u64, &str> = FastMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m[&7], "seven");
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FastHasher`]. Build one with
/// `FastMap::default()` (`HashMap::new` exists only for `RandomState`).
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed with [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// Odd multiplier (the Fx constant: ⌊2⁶⁴/π⌋ rounded up to odd).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Fx-style hasher: each word is folded in as `(h.rotl(5) ^ w) * SEED`.
///
/// A product's low bits depend only on the factors' low bits, and hashbrown
/// picks the bucket from the hash's low bits, so aligned keys (8-byte word
/// addresses) would share one bucket in eight. [`Hasher::finish`] rotates
/// the well-mixed high bits down to fix that.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
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
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    /// Same derive as the kernel's `PageNo` and `Tid` newtypes, so these
    /// hash exactly as the real keys do.
    #[derive(Hash)]
    struct PageNo(u64);
    #[derive(Hash)]
    struct Tid(u32);

    fn hash_of<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    #[test]
    fn pinned_key_hashes_to_pinned_value() {
        // Fixed across processes and hosts: a change here changes every
        // map's iteration order and must be deliberate.
        assert_eq!(hash_of(&PageNo(0x1234_5678)), 0xa19f_1c0f_6156_0ab2);
        assert_eq!(hash_of(&(7u32, 0x1000u64)), 0x8dd8_4bef_cc6d_36af);
        assert_eq!(hash_of(&"popcorn"), 0xd4a9_1901_8047_7c07);
    }

    #[test]
    fn consecutive_keys_hash_distinctly() {
        const N: u64 = 65_536;
        let pages: FastSet<u64> = (0..N).map(|p| hash_of(&PageNo(0x10_0000 + p))).collect();
        assert_eq!(pages.len(), N as usize);
        let tids: FastSet<u64> = (0..N as u32)
            .map(|t| hash_of(&Tid((3 << 24) | t)))
            .collect();
        assert_eq!(tids.len(), N as usize);
    }

    #[test]
    fn consecutive_pages_fill_every_low_bucket() {
        let mut hit = [false; 1024];
        for p in 0..65_536u64 {
            hit[(hash_of(&PageNo(0x10_0000 + p)) & 1023) as usize] = true;
        }
        let missed = hit.iter().filter(|&&h| !h).count();
        assert_eq!(missed, 0, "{missed} of 1024 low-10-bit buckets never hit");
    }

    #[test]
    fn aligned_word_addresses_fill_every_low_bucket() {
        let mut hit = [false; 1024];
        for w in 0..8_192u64 {
            hit[(hash_of(&(0x4000_0000 + 8 * w)) & 1023) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }
}
