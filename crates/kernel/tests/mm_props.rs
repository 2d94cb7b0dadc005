//! Randomized property tests for the address-space replica: random
//! map/unmap/access sequences keep the VMA set, page residency and word
//! contents coherent. Driven by the deterministic [`SimRng`] (the build is
//! offline, so no external property-testing framework).

use popcorn_kernel::mm::{AccessCheck, Mm, PageState};
use popcorn_kernel::types::{GroupId, Tid, VAddr};
use popcorn_msg::KernelId;
use popcorn_sim::{FastMap, SimRng};

fn fresh() -> Mm {
    Mm::new(GroupId(Tid::new(KernelId(0), 1)))
}

/// A random address-space action.
#[derive(Debug, Clone, Copy)]
enum Action {
    Map {
        pages: u64,
    },
    UnmapNth {
        index: usize,
    },
    Write {
        region: usize,
        offset: u64,
        value: u64,
    },
    Read {
        region: usize,
        offset: u64,
    },
}

fn random_action(rng: &mut SimRng) -> Action {
    match rng.index(4) {
        0 => Action::Map {
            pages: rng.range_u64(1, 8),
        },
        1 => Action::UnmapNth {
            index: rng.index(8),
        },
        2 => Action::Write {
            region: rng.index(8),
            offset: rng.range_u64(0, 32) * 8,
            value: rng.range_u64(1, u64::MAX),
        },
        _ => Action::Read {
            region: rng.index(8),
            offset: rng.range_u64(0, 32) * 8,
        },
    }
}

/// A reference model (plain map of live regions and written words) stays
/// in agreement with the Mm through arbitrary action sequences.
#[test]
fn mm_agrees_with_reference_model() {
    let mut rng = SimRng::new(0x5EED_1001);
    for _ in 0..256 {
        let actions: Vec<Action> = {
            let len = rng.range_u64(1, 120) as usize;
            (0..len).map(|_| random_action(&mut rng)).collect()
        };
        let mut mm = fresh();
        let mut regions: Vec<(VAddr, u64)> = Vec::new(); // (start, len)
        let mut model: FastMap<u64, u64> = FastMap::default();

        for a in actions {
            match a {
                Action::Map { pages } => {
                    let len = pages * VAddr::PAGE_SIZE;
                    let addr = mm.map_anon(len).expect("address space is huge");
                    // New region must not overlap any live region.
                    for &(s, l) in &regions {
                        assert!(
                            addr.0 >= s.0 + l || addr.0 + len <= s.0,
                            "overlapping mapping"
                        );
                    }
                    regions.push((addr, len));
                }
                Action::UnmapNth { index } => {
                    if regions.is_empty() {
                        continue;
                    }
                    let (start, len) = regions.remove(index % regions.len());
                    mm.unmap(start, len).expect("exact unmap succeeds");
                    model.retain(|&a, _| !(start.0..start.0 + len).contains(&a));
                    assert!(matches!(mm.check_access(start, false), AccessCheck::NoVma));
                }
                Action::Write {
                    region,
                    offset,
                    value,
                } => {
                    if regions.is_empty() {
                        continue;
                    }
                    let (start, len) = regions[region % regions.len()];
                    let addr = VAddr(start.0 + offset % len);
                    // Fault in the page if needed (the OS model's job).
                    match mm.check_access(addr, true) {
                        AccessCheck::Ok => {}
                        AccessCheck::NeedPage { page, .. } => {
                            mm.install_zero_page(page, PageState::Exclusive);
                        }
                        AccessCheck::NoVma => panic!("write inside a live region had no vma"),
                    }
                    mm.write_word(addr, value);
                    model.insert(addr.0, value);
                }
                Action::Read { region, offset } => {
                    if regions.is_empty() {
                        continue;
                    }
                    let (start, len) = regions[region % regions.len()];
                    let addr = VAddr(start.0 + offset % len);
                    match mm.check_access(addr, false) {
                        AccessCheck::Ok => {
                            let expect = model.get(&addr.0).copied().unwrap_or(0);
                            assert_eq!(mm.read_word(addr), expect);
                        }
                        AccessCheck::NeedPage { page, .. } => {
                            mm.install_zero_page(page, PageState::ReadShared);
                            // Zero-fill: the model must not have a value
                            // here (a write would have installed the page).
                            assert_eq!(model.get(&addr.0), None);
                            assert_eq!(mm.read_word(addr), 0);
                        }
                        AccessCheck::NoVma => panic!("read inside a live region had no vma"),
                    }
                }
            }
            assert_eq!(mm.vma_count(), regions.len());
        }
    }
}

/// Page transfer round-trips preserve arbitrary word sets exactly.
#[test]
fn page_transfer_roundtrip_is_lossless() {
    let mut rng = SimRng::new(0x5EED_1002);
    for _ in 0..256 {
        let mut words: FastMap<u64, u64> = FastMap::default();
        for _ in 0..rng.range_u64(0, 64) {
            words.insert(rng.range_u64(0, 512), rng.next_u64());
        }
        let mut src = fresh();
        let addr = src.map_anon(4096).unwrap();
        src.install_zero_page(addr.page(), PageState::Exclusive);
        for (&slot, &v) in &words {
            src.write_word(addr.add(slot * 8), v);
        }
        let contents = src.evict_page(addr.page());
        let mut dst = src.replica_layout();
        dst.install_page(addr.page(), PageState::Exclusive, contents);
        for (&slot, &v) in &words {
            assert_eq!(dst.read_word(addr.add(slot * 8)), v);
        }
        // Untouched slots read zero.
        for slot in 0..512u64 {
            if !words.contains_key(&slot) {
                assert_eq!(dst.read_word(addr.add(slot * 8)), 0);
            }
        }
    }
}

/// `replica_layout` + later home mappings never collide with existing
/// regions (cursor coherence).
#[test]
fn replica_cursors_never_collide() {
    let mut rng = SimRng::new(0x5EED_1003);
    for _ in 0..256 {
        let lens: Vec<u64> = {
            let len = rng.range_u64(1, 20) as usize;
            (0..len).map(|_| rng.range_u64(1, 5)).collect()
        };
        let mut home = fresh();
        let mut all: Vec<(u64, u64)> = Vec::new();
        for (i, pages) in lens.iter().enumerate() {
            let len = pages * VAddr::PAGE_SIZE;
            let a = home.map_anon(len).unwrap();
            all.push((a.0, len));
            if i == lens.len() / 2 {
                // Mid-way, fork a replica and keep mapping at home.
                let replica = home.replica_layout();
                assert_eq!(replica.vma_count(), home.vma_count());
            }
        }
        // All regions pairwise disjoint.
        for (i, &(s1, l1)) in all.iter().enumerate() {
            for &(s2, l2) in &all[i + 1..] {
                assert!(s1 + l1 <= s2 || s2 + l2 <= s1);
            }
        }
    }
}
