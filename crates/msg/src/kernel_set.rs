//! [`KernelSet`]: an inline, `Copy` set of kernel ids.
//!
//! The coherence and group protocols keep many small sets of kernels —
//! a page's copyset, the holders a write fault must invalidate, the acks
//! a collection still awaits, a group's replicas. Kernel ids are small
//! and dense, so a fixed bitset holds any of these sets in 32 bytes with
//! no heap allocation, copies by value, and iterates in ascending id
//! order (the order a `BTreeSet<KernelId>` would give).

use std::fmt;

use crate::fabric::KernelId;

const WORDS: usize = 4;

/// A set of [`KernelId`]s below [`KernelSet::CAPACITY`], stored inline as
/// a bitset.
///
/// Iteration is in ascending id order. Machines with more kernels than the
/// set can hold are rejected when they are built, so a protocol never
/// meets an id it cannot store; [`KernelSet::insert`] panics on one.
///
/// # Example
///
/// ```
/// use popcorn_msg::{KernelId, KernelSet};
///
/// let mut s = KernelSet::new();
/// s.insert(KernelId(7));
/// s.insert(KernelId(2));
/// assert!(s.contains(KernelId(7)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![KernelId(2), KernelId(7)]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelSet {
    bits: [u64; WORDS],
}

impl KernelSet {
    /// Number of distinct ids a set can hold: ids `0..CAPACITY`.
    pub const CAPACITY: usize = WORDS * 64;

    /// An empty set.
    pub const fn new() -> Self {
        KernelSet { bits: [0; WORDS] }
    }

    /// A set holding only `k`.
    pub fn one(k: KernelId) -> Self {
        let mut s = KernelSet::new();
        s.insert(k);
        s
    }

    /// Checks that a machine of `kernels` kernels fits in a set.
    pub fn check_capacity(kernels: usize) -> Result<(), String> {
        if kernels > Self::CAPACITY {
            Err(format!(
                "{kernels} kernels exceed KernelSet capacity ({})",
                Self::CAPACITY
            ))
        } else {
            Ok(())
        }
    }

    #[inline]
    fn locate(k: KernelId) -> Option<(usize, u64)> {
        let i = k.0 as usize;
        (i < Self::CAPACITY).then(|| (i / 64, 1u64 << (i % 64)))
    }

    /// Adds `k`; returns true if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not below [`KernelSet::CAPACITY`].
    #[inline]
    pub fn insert(&mut self, k: KernelId) -> bool {
        let (w, bit) = Self::locate(k)
            .unwrap_or_else(|| panic!("{k} is beyond KernelSet capacity ({})", Self::CAPACITY));
        let new = self.bits[w] & bit == 0;
        self.bits[w] |= bit;
        new
    }

    /// Removes `k`; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, k: KernelId) -> bool {
        let Some((w, bit)) = Self::locate(k) else {
            return false;
        };
        let had = self.bits[w] & bit != 0;
        self.bits[w] &= !bit;
        had
    }

    /// Whether `k` is present.
    #[inline]
    pub fn contains(&self, k: KernelId) -> bool {
        Self::locate(k).is_some_and(|(w, bit)| self.bits[w] & bit != 0)
    }

    /// Number of ids present.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no id is present.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// The smallest id present.
    pub fn first(&self) -> Option<KernelId> {
        self.iter().next()
    }

    /// This set without `k` (a copy; `self` is unchanged).
    pub fn without(mut self, k: KernelId) -> Self {
        self.remove(k);
        self
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> Iter {
        Iter {
            bits: self.bits,
            word: 0,
        }
    }
}

/// Ascending-order iterator over a [`KernelSet`] (owns a copy of the set).
#[derive(Debug, Clone)]
pub struct Iter {
    bits: [u64; WORDS],
    word: usize,
}

impl Iterator for Iter {
    type Item = KernelId;

    #[inline]
    fn next(&mut self) -> Option<KernelId> {
        while self.word < WORDS {
            let w = &mut self.bits[self.word];
            if *w != 0 {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(KernelId((self.word * 64 + bit) as u16));
            }
            self.word += 1;
        }
        None
    }
}

impl IntoIterator for KernelSet {
    type Item = KernelId;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl IntoIterator for &KernelSet {
    type Item = KernelId;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl FromIterator<KernelId> for KernelSet {
    fn from_iter<I: IntoIterator<Item = KernelId>>(iter: I) -> Self {
        let mut s = KernelSet::new();
        s.extend(iter);
        s
    }
}

impl Extend<KernelId> for KernelSet {
    fn extend<I: IntoIterator<Item = KernelId>>(&mut self, iter: I) {
        for k in iter {
            self.insert(k);
        }
    }
}

impl fmt::Debug for KernelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|k| k.0)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_every_word_in_ascending_order() {
        let ids = [255u16, 0, 64, 63, 128, 191, 1];
        let s: KernelSet = ids.iter().map(|&i| KernelId(i)).collect();
        let got: Vec<u16> = s.iter().map(|k| k.0).collect();
        assert_eq!(got, vec![0, 1, 63, 64, 128, 191, 255]);
        assert_eq!(s.len(), 7);
        assert_eq!(s.first(), Some(KernelId(0)));
        assert_eq!(format!("{s:?}"), "{0, 1, 63, 64, 128, 191, 255}");
    }

    #[test]
    fn without_copies() {
        let s: KernelSet = [KernelId(1), KernelId(2)].into_iter().collect();
        let t = s.without(KernelId(1));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![KernelId(2)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn out_of_range_ids_are_absent() {
        let mut s = KernelSet::new();
        assert!(!s.contains(KernelId(256)));
        assert!(!s.remove(KernelId(1000)));
    }

    #[test]
    #[should_panic(expected = "beyond KernelSet capacity")]
    fn inserting_out_of_range_panics() {
        KernelSet::new().insert(KernelId(256));
    }

    #[test]
    fn capacity_check() {
        assert!(KernelSet::check_capacity(256).is_ok());
        let e = KernelSet::check_capacity(257).unwrap_err();
        assert!(
            e.contains("257 kernels exceed KernelSet capacity (256)"),
            "{e}"
        );
    }
}
