//! Randomized differential test of [`KernelSet`] against a
//! `BTreeSet<KernelId>` reference, driven by the deterministic [`SimRng`].

use std::collections::BTreeSet;

use popcorn_msg::{KernelId, KernelSet};
use popcorn_sim::SimRng;

/// Random insert, remove and contains over the whole id range: after every
/// op the set agrees with the reference on the op's result, ascending
/// iteration order, `len`, `is_empty` and `first`.
#[test]
fn kernel_set_matches_btreeset_reference() {
    let mut rng = SimRng::new(0x5EED_0015);
    for case in 0..200 {
        let mut set = KernelSet::new();
        let mut reference: BTreeSet<KernelId> = BTreeSet::new();
        // Some cases crowd a few ids, others spread over all 256.
        let span = if case % 2 == 0 {
            8
        } else {
            KernelSet::CAPACITY
        };
        for _ in 0..rng.range_u64(1, 400) {
            let k = KernelId(rng.index(span) as u16);
            match rng.index(3) {
                0 => assert_eq!(set.insert(k), reference.insert(k), "insert {k}"),
                1 => assert_eq!(set.remove(k), reference.remove(&k), "remove {k}"),
                _ => assert_eq!(set.contains(k), reference.contains(&k), "contains {k}"),
            }
            assert!(set.iter().eq(reference.iter().copied()), "iteration order");
            assert_eq!(set.len(), reference.len());
            assert_eq!(set.is_empty(), reference.is_empty());
            assert_eq!(set.first(), reference.first().copied());
        }
        let rebuilt: KernelSet = reference.iter().copied().collect();
        assert_eq!(rebuilt, set, "collect round-trips");
    }
}

/// The set holds exactly ids `0..CAPACITY`; a machine with more kernels is
/// refused up front.
#[test]
fn capacity_is_256_kernels() {
    assert_eq!(KernelSet::CAPACITY, 256);
    let full: KernelSet = (0..256).map(KernelId).collect();
    assert_eq!(full.len(), 256);
    assert_eq!(full.iter().last(), Some(KernelId(255)));
    assert!(KernelSet::check_capacity(256).is_ok());
    assert!(KernelSet::check_capacity(257).is_err());
}
