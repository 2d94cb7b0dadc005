//! Randomized property tests for the address-space replica: random
//! map/unmap/access sequences keep the VMA set, page residency and word
//! contents coherent. Driven by the deterministic [`SimRng`] (the build is
//! offline, so no external property-testing framework).

use popcorn_kernel::mm::{AccessCheck, Mm, PageContents, PageState, Vma};
use popcorn_kernel::types::{GroupId, PageNo, Tid, VAddr};
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

/// The words of `page` in a flat reference map, as a snapshot must list
/// them: non-zero only, ascending by address.
fn reference_page(model: &FastMap<u64, u64>, page: PageNo) -> Vec<(u64, u64)> {
    let base = page.base().0;
    let mut words: Vec<(u64, u64)> = model
        .iter()
        .filter(|&(&a, &v)| v != 0 && (base..base + VAddr::PAGE_SIZE).contains(&a))
        .map(|(&a, &v)| (a, v))
        .collect();
    words.sort_unstable();
    words
}

/// Random word writes (zeros included) interleaved with snapshots, page
/// transfers between two `Mm`s and unmaps agree with one flat reference
/// map: every read matches it, and every snapshot or transferred page holds
/// exactly the page's non-zero words in ascending address order.
#[test]
fn per_page_word_storage_agrees_with_flat_reference() {
    const PAGES: u64 = 6;
    let mut rng = SimRng::new(0x5EED_1004);
    for _ in 0..128 {
        let mut mms = [fresh(), fresh()];
        let base = mms[0].map_anon(PAGES * VAddr::PAGE_SIZE).unwrap();
        mms[1] = mms[0].replica_layout();
        // Which Mm currently holds each page; every page starts at mm 0.
        let mut holder = [0usize; PAGES as usize];
        for p in 0..PAGES {
            mms[0].install_zero_page(PageNo(base.page().0 + p), PageState::Exclusive);
        }
        let mut model: FastMap<u64, u64> = FastMap::default();
        for _ in 0..rng.range_u64(1, 400) {
            let p = rng.range_u64(0, PAGES);
            let page = PageNo(base.page().0 + p);
            let owner = &mut mms[holder[p as usize]];
            match rng.index(8) {
                // Writes to a few hot slots, so overwrites and zeroing of
                // written words are common.
                0..=3 => {
                    let addr = VAddr(page.base().0 + rng.range_u64(0, 24) * 8);
                    let value = if rng.index(4) == 0 { 0 } else { rng.next_u64() };
                    owner.write_word(addr, value);
                    model.insert(addr.0, value);
                }
                4 => {
                    let addr = VAddr(page.base().0 + rng.range_u64(0, 24) * 8);
                    let want = model.get(&addr.0).copied().unwrap_or(0);
                    assert_eq!(owner.read_word(addr), want);
                }
                5 => {
                    let snap = owner.snapshot_page(page);
                    assert_eq!(snap.words.as_slice(), reference_page(&model, page));
                }
                // Transfer the page to the other Mm.
                6 => {
                    let contents = owner.evict_page(page);
                    assert_eq!(contents.words.as_slice(), reference_page(&model, page));
                    let to = 1 - holder[p as usize];
                    mms[to].install_page(page, PageState::Exclusive, contents);
                    holder[p as usize] = to;
                }
                // Every other page is untouched by a transfer.
                _ => {
                    for q in 0..PAGES {
                        let page = PageNo(base.page().0 + q);
                        let snap = mms[holder[q as usize]].snapshot_page(page);
                        assert_eq!(snap.words.as_slice(), reference_page(&model, page));
                    }
                }
            }
        }
        // Unmapping drops every page's words; a fresh mapping of the same
        // range reads zero.
        for m in &mut mms {
            m.unmap(base, PAGES * VAddr::PAGE_SIZE).unwrap();
            m.install_vma(Vma {
                start: base,
                len: PAGES * VAddr::PAGE_SIZE,
            });
        }
        for (&a, _) in model.iter() {
            for m in &mut mms {
                m.install_zero_page(VAddr(a).page(), PageState::ReadShared);
                assert_eq!(m.read_word(VAddr(a)), 0, "word survived unmap");
            }
        }
    }
}

/// `install_page` given unordered contents — duplicate addresses and zero
/// values included — reads back like a flat map applying the writes in
/// order: the last write to an address wins.
#[test]
fn unsorted_page_contents_install_last_write_wins() {
    let mut rng = SimRng::new(0x5EED_1005);
    for _ in 0..256 {
        let mut src = fresh();
        let addr = src.map_anon(4096).unwrap();
        let page = addr.page();
        let writes: Vec<(u64, u64)> = (0..rng.range_u64(0, 40))
            .map(|_| {
                let a = page.base().0 + rng.range_u64(0, 16) * 8;
                let v = if rng.index(4) == 0 { 0 } else { rng.next_u64() };
                (a, v)
            })
            .collect();
        let mut model: FastMap<u64, u64> = FastMap::default();
        for &(a, v) in &writes {
            model.insert(a, v);
        }
        let mut dst = src.replica_layout();
        dst.install_page(
            page,
            PageState::Exclusive,
            PageContents {
                version: 3,
                words: writes.into(),
            },
        );
        for slot in 0..16 {
            let a = page.base().0 + slot * 8;
            assert_eq!(dst.read_word(VAddr(a)), model.get(&a).copied().unwrap_or(0));
        }
        assert_eq!(
            dst.snapshot_page(page).words.as_slice(),
            reference_page(&model, page)
        );
    }
}
