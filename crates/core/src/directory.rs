//! The home-kernel page directory: the heart of address-space consistency.
//!
//! Each distributed thread group's home kernel tracks, per page, which
//! kernels hold copies (`copyset`), which one is the designated data
//! provider (`owner` — the last writer or first toucher), and a version
//! number. All faults are serialized through the directory; transfers in
//! flight mark the page *busy* and later requests queue behind them, which
//! makes the single-writer invariant hold by construction.
//!
//! The directory is a pure state machine: [`Directory::request`] returns a
//! [`DirStep`] describing what the machine layer must do (grant locally,
//! fetch from the owner, invalidate holders); the layer feeds collection
//! results back via [`Directory::fetched`] / [`Directory::inval_acked`] and
//! completion via [`Directory::done`]. Keeping it pure lets the property
//! tests drive millions of protocol interleavings without a simulator.

use std::collections::{BTreeSet, VecDeque};

use popcorn_kernel::mm::{PageContents, PageInfo, PageState};
use popcorn_kernel::types::PageNo;
use popcorn_msg::{KernelId, RpcId};
use popcorn_sim::FastMap;

/// One queued or in-service page request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRequest {
    /// Correlation id at the faulting kernel.
    pub rpc: RpcId,
    /// The faulting kernel.
    pub origin: KernelId,
    /// Write access required.
    pub write: bool,
}

/// What the machine layer must do for a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirStep {
    /// Grant immediately (no third party involved).
    Grant(Grant),
    /// Ask the owner for a copy (read fault); it will downgrade itself.
    Fetch {
        /// Current owner to fetch from.
        owner: KernelId,
    },
    /// Invalidate holders (write fault); the owner's ack carries the data.
    Invalidate {
        /// Kernels to invalidate (never includes the requester).
        holders: Vec<KernelId>,
    },
    /// A transfer is in flight for this page; the request is queued and
    /// will be emitted by [`Directory::done`].
    Queued,
}

/// A completed grant decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// The request being satisfied.
    pub req: PageRequest,
    /// The page.
    pub page: PageNo,
    /// State granted to the requester.
    pub state: PageState,
    /// Version the requester must record.
    pub version: u64,
    /// Data to ship (`None` = zero-fill first touch, or an in-place
    /// upgrade where the requester already holds the bytes).
    pub contents: Option<PageContents>,
}

/// In-flight collection bookkeeping for one page.
#[derive(Debug)]
struct Collection {
    req: PageRequest,
    awaiting_fetch: bool,
    awaiting_acks: BTreeSet<KernelId>,
    data: Option<PageContents>,
    /// Whether the grant should carry data once collection completes.
    needs_data: bool,
}

/// Directory entry for one page.
#[derive(Debug)]
struct DirEntry {
    owner: KernelId,
    copyset: BTreeSet<KernelId>,
    version: u64,
    busy: bool,
    collecting: Option<Collection>,
    waiting: VecDeque<PageRequest>,
    /// While `busy` with no collection in flight: the kernel whose
    /// `PageDone` the directory is waiting for. Crash recovery needs this
    /// to tell a transfer stuck on a dead grantee from a live one.
    debtor: Option<KernelId>,
}

/// Snapshot of a page's directory state (for tests and invariant checks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirView {
    /// Designated data provider.
    pub owner: KernelId,
    /// All kernels holding a copy (includes the owner).
    pub copyset: Vec<KernelId>,
    /// Current version.
    pub version: u64,
    /// Whether a transfer is in flight.
    pub busy: bool,
    /// Queued request count.
    pub queued: usize,
}

/// The per-group page directory kept at the home kernel.
#[derive(Debug, Default)]
pub struct Directory {
    entries: FastMap<PageNo, DirEntry>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Handles a fault request for `page`.
    ///
    /// State transitions happen *optimistically* here (the entry reflects
    /// the post-transfer world) while `busy` serializes overlapping
    /// traffic; the machine layer must deliver the returned step.
    pub fn request(&mut self, page: PageNo, req: PageRequest) -> DirStep {
        match self.entries.get_mut(&page) {
            None => {
                // First touch anywhere: zero-fill exclusive grant.
                let mut copyset = BTreeSet::new();
                copyset.insert(req.origin);
                self.entries.insert(
                    page,
                    DirEntry {
                        owner: req.origin,
                        copyset,
                        version: 0,
                        busy: true,
                        collecting: None,
                        waiting: VecDeque::new(),
                        debtor: Some(req.origin),
                    },
                );
                DirStep::Grant(Grant {
                    req,
                    page,
                    state: PageState::Exclusive,
                    version: 0,
                    contents: None,
                })
            }
            Some(e) if e.busy => {
                e.waiting.push_back(req);
                DirStep::Queued
            }
            Some(e) => {
                e.busy = true;
                if req.write {
                    let holders: Vec<KernelId> = e
                        .copyset
                        .iter()
                        .copied()
                        .filter(|&k| k != req.origin)
                        .collect();
                    let upgrading = e.copyset.contains(&req.origin);
                    e.version += 1;
                    let version = e.version;
                    e.owner = req.origin;
                    e.copyset.clear();
                    e.copyset.insert(req.origin);
                    if holders.is_empty() {
                        // Sole holder upgrading in place.
                        debug_assert!(upgrading, "write fault with empty copyset");
                        e.debtor = Some(req.origin);
                        DirStep::Grant(Grant {
                            req,
                            page,
                            state: PageState::Exclusive,
                            version,
                            contents: None,
                        })
                    } else {
                        e.debtor = None;
                        e.collecting = Some(Collection {
                            req,
                            awaiting_fetch: false,
                            awaiting_acks: holders.iter().copied().collect(),
                            data: None,
                            needs_data: !upgrading,
                        });
                        DirStep::Invalidate { holders }
                    }
                } else {
                    if e.copyset.contains(&req.origin) {
                        // The requester already holds a copy: this was a
                        // queued request satisfied by an earlier transfer
                        // to the same kernel. Refresh-grant without data.
                        let version = e.version;
                        e.debtor = Some(req.origin);
                        return DirStep::Grant(Grant {
                            req,
                            page,
                            state: PageState::ReadShared,
                            version,
                            contents: None,
                        });
                    }
                    // Read fault: fetch a copy from the owner (who
                    // downgrades to read-shared).
                    let owner = e.owner;
                    e.copyset.insert(req.origin);
                    e.debtor = None;
                    e.collecting = Some(Collection {
                        req,
                        awaiting_fetch: true,
                        awaiting_acks: BTreeSet::new(),
                        data: None,
                        needs_data: true,
                    });
                    DirStep::Fetch { owner }
                }
            }
        }
    }

    /// Feeds back the owner's copy for a read fetch; returns the grant.
    ///
    /// # Panics
    ///
    /// Panics if no fetch is outstanding for `page`.
    pub fn fetched(&mut self, page: PageNo, contents: PageContents) -> Grant {
        let e = self.entries.get_mut(&page).expect("fetch for unknown page");
        let c = e.collecting.as_mut().expect("no collection in flight");
        assert!(c.awaiting_fetch, "unexpected fetch completion");
        c.awaiting_fetch = false;
        c.data = Some(contents);
        let c = e.collecting.take().expect("just present");
        e.debtor = Some(c.req.origin);
        Grant {
            req: c.req,
            page,
            state: PageState::ReadShared,
            version: e.version,
            contents: c.data,
        }
    }

    /// Feeds back one invalidation acknowledgement (the previous owner's
    /// carries the data). Returns the grant once all acks are in.
    ///
    /// # Panics
    ///
    /// Panics if `from` was not expected to ack `page`.
    pub fn inval_acked(
        &mut self,
        page: PageNo,
        from: KernelId,
        contents: Option<PageContents>,
    ) -> Option<Grant> {
        let e = self.entries.get_mut(&page).expect("ack for unknown page");
        let c = e.collecting.as_mut().expect("no collection in flight");
        assert!(
            c.awaiting_acks.remove(&from),
            "unexpected inval ack from {from} for {page}"
        );
        // Every holder's copy is identical at the current version, so any
        // ack may carry the data; keep the first.
        if c.data.is_none() {
            c.data = contents;
        }
        if !c.awaiting_acks.is_empty() {
            return None;
        }
        let c = e.collecting.take().expect("just present");
        debug_assert!(
            !c.needs_data || c.data.is_some(),
            "collection finished without owner data"
        );
        e.debtor = Some(c.req.origin);
        Some(Grant {
            req: c.req,
            page,
            state: PageState::Exclusive,
            version: e.version,
            contents: if c.needs_data { c.data } else { None },
        })
    }

    /// Marks a transfer complete (the requester installed the page) and
    /// dequeues the next waiting request, if any, returning its step.
    pub fn done(&mut self, page: PageNo) -> Option<(PageRequest, DirStep)> {
        let e = self.entries.get_mut(&page)?;
        debug_assert!(e.busy, "done on a non-busy page");
        e.busy = false;
        e.debtor = None;
        let next = e.waiting.pop_front()?;
        Some((next, self.request(page, next)))
    }

    /// Drops directory entries for unmapped pages, returning for each the
    /// holders that must be invalidated (fire-and-forget; the VMA update
    /// ack protocol provides the synchronization).
    pub fn drop_pages(
        &mut self,
        pages: impl Iterator<Item = PageNo>,
    ) -> Vec<(PageNo, Vec<KernelId>)> {
        let mut out = Vec::new();
        for p in pages {
            if let Some(e) = self.entries.remove(&p) {
                out.push((p, e.copyset.into_iter().collect()));
            }
        }
        out
    }

    /// Directory view of one page (None = never touched).
    pub fn view(&self, page: PageNo) -> Option<DirView> {
        self.entries.get(&page).map(|e| DirView {
            owner: e.owner,
            copyset: e.copyset.iter().copied().collect(),
            version: e.version,
            busy: e.busy,
            queued: e.waiting.len(),
        })
    }

    /// Number of tracked pages.
    pub fn tracked_pages(&self) -> usize {
        self.entries.len()
    }

    /// All holders across all pages of this directory (for group kill
    /// bookkeeping).
    pub fn all_holders(&self) -> BTreeSet<KernelId> {
        self.entries
            .values()
            .flat_map(|e| e.copyset.iter().copied())
            .collect()
    }

    /// All tracked pages in ascending order (deterministic iteration over
    /// the backing hash map, for recovery and invariant checks).
    pub fn pages(&self) -> Vec<PageNo> {
        let mut v: Vec<PageNo> = self.entries.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Whether a read fetch is still outstanding for `page` (recovery uses
    /// this to tolerate a straggler `PageFetched` from a live old owner
    /// after the collection it answered was unwound).
    pub fn fetch_pending(&self, page: PageNo) -> bool {
        self.entries
            .get(&page)
            .and_then(|e| e.collecting.as_ref())
            .is_some_and(|c| c.awaiting_fetch)
    }

    /// Whether an invalidation ack from `from` is still expected for
    /// `page` (recovery straggler tolerance, mirroring
    /// [`Self::fetch_pending`]).
    pub fn expects_inval_ack(&self, page: PageNo, from: KernelId) -> bool {
        self.entries
            .get(&page)
            .and_then(|e| e.collecting.as_ref())
            .is_some_and(|c| c.awaiting_acks.contains(&from))
    }

    /// Excises a crashed kernel from every entry: in-flight exchanges it
    /// was party to are unwound, its copies are dropped, pages it alone
    /// held the data for are declared lost, and surviving readers are
    /// promoted to owner where possible. Pages are processed in ascending
    /// order so recovery is deterministic.
    pub fn reclaim_dead(&mut self, dead: KernelId) -> DirReclaim {
        let mut out = DirReclaim::default();
        for page in self.pages() {
            let e = self.entries.get_mut(&page).expect("listed above");
            let mut redo_req = None;
            // Queued requests from the dead kernel must never pop later —
            // a grant shipped to a frozen kernel wedges the page busy.
            e.waiting.retain(|w| w.origin != dead);
            let involved = e.collecting.as_ref().is_some_and(|c| {
                c.req.origin == dead
                    || (c.awaiting_fetch && e.owner == dead)
                    || c.awaiting_acks.contains(&dead)
            });
            if involved {
                let c = e.collecting.as_mut().expect("checked above");
                if c.req.origin == dead {
                    if c.awaiting_fetch {
                        // Dead requester's read fetch: undo its optimistic
                        // copyset entry and forget the exchange. The live
                        // owner's late `PageFetched` is tolerated by
                        // `fetch_pending` turning false.
                        e.copyset.remove(&dead);
                        e.collecting = None;
                        e.busy = false;
                    } else {
                        // Dead requester's write invalidation: the
                        // optimistic transition already named it sole
                        // owner and holders may have discarded their
                        // copies, so the current bytes cannot be located
                        // with certainty. Conservative loss.
                        let entry = self.entries.remove(&page).expect("present");
                        out.lost.push(page);
                        out.nacks
                            .extend(entry.waiting.into_iter().map(|w| (page, w)));
                        continue;
                    }
                } else if c.awaiting_fetch {
                    // The fetch target (the owner) died: undo the live
                    // requester's optimistic copyset entry and re-drive
                    // its request once the prune below picks a successor.
                    let req = c.req;
                    e.copyset.remove(&req.origin);
                    e.collecting = None;
                    e.busy = false;
                    redo_req = Some(req);
                } else {
                    // The dead kernel owes an invalidation ack that will
                    // never come.
                    c.awaiting_acks.remove(&dead);
                    if c.awaiting_acks.is_empty() {
                        let c = e.collecting.take().expect("just present");
                        if c.needs_data && c.data.is_none() {
                            // The dead kernel was the sole data provider.
                            let entry = self.entries.remove(&page).expect("present");
                            out.lost.push(page);
                            out.nacks.push((page, c.req));
                            out.nacks
                                .extend(entry.waiting.into_iter().map(|w| (page, w)));
                            continue;
                        }
                        e.debtor = Some(c.req.origin);
                        out.grants.push(Grant {
                            req: c.req,
                            page,
                            state: PageState::Exclusive,
                            version: e.version,
                            contents: if c.needs_data { c.data } else { None },
                        });
                        // `busy` stays set; the requester's `PageDone`
                        // drains the waiters as usual.
                    }
                }
            }
            // A grant whose `PageDone` debtor died leaves the page busy
            // forever; release it and re-drive the head waiter.
            let e = self.entries.get_mut(&page).expect("still present");
            if e.busy && e.collecting.is_none() && e.debtor == Some(dead) {
                e.busy = false;
                e.debtor = None;
                if let Some(next) = e.waiting.pop_front() {
                    debug_assert!(redo_req.is_none());
                    redo_req = Some(next);
                }
            }
            // Generic membership prune.
            e.copyset.remove(&dead);
            if e.owner == dead {
                match e.copyset.iter().next().copied() {
                    Some(successor) => {
                        e.owner = successor;
                        out.promoted += 1;
                        out.redo.extend(redo_req.map(|r| (page, r)));
                    }
                    None => {
                        let entry = self.entries.remove(&page).expect("present");
                        out.lost.push(page);
                        out.nacks.extend(redo_req.map(|r| (page, r)));
                        out.nacks
                            .extend(entry.waiting.into_iter().map(|w| (page, w)));
                    }
                }
            } else {
                out.redo.extend(redo_req.map(|r| (page, r)));
            }
        }
        out
    }

    /// Removes and returns the entry for `page` for handoff to another
    /// directory shard, but only when the page is quiescent: no transfer in
    /// flight, no collection, no queued requests. Returns `None` when the
    /// page is untracked or mid-exchange — callers must retry once the page
    /// drains, so an entry can never be torn out from under a live transfer.
    pub fn extract(&mut self, page: PageNo) -> Option<ExtractedEntry> {
        let idle = self
            .entries
            .get(&page)
            .is_some_and(|e| !e.busy && e.collecting.is_none() && e.waiting.is_empty());
        if !idle {
            return None;
        }
        self.entries.remove(&page).map(ExtractedEntry)
    }

    /// Installs an entry extracted from another shard. The wrapper is
    /// opaque, so the only way to obtain one is [`Self::extract`] — the
    /// handoff moves state verbatim and cannot fabricate it.
    ///
    /// # Panics
    ///
    /// Panics if this directory already tracks `page` (a page must live in
    /// exactly one shard).
    pub fn adopt(&mut self, page: PageNo, entry: ExtractedEntry) {
        let prev = self.entries.insert(page, entry.0);
        assert!(prev.is_none(), "adopt over an existing entry for {page}");
    }

    /// Rebuilds a directory from surviving kernels' page-table scans after
    /// the home itself died. `scans` must be in ascending kernel order;
    /// the lowest kernel holding a page becomes its owner unless another
    /// survivor holds it exclusively. All in-flight transfer state is
    /// gone — the protocol restarts from the rebuilt map.
    pub fn rebuild(scans: &[(KernelId, Vec<(PageNo, PageInfo)>)]) -> Directory {
        let mut d = Directory::new();
        debug_assert!(scans.windows(2).all(|w| w[0].0 < w[1].0));
        for (k, pages) in scans {
            for &(page, info) in pages {
                let e = d.entries.entry(page).or_insert_with(|| DirEntry {
                    owner: *k,
                    copyset: BTreeSet::new(),
                    version: info.version,
                    busy: false,
                    collecting: None,
                    waiting: VecDeque::new(),
                    debtor: None,
                });
                e.copyset.insert(*k);
                e.version = e.version.max(info.version);
                if info.state == PageState::Exclusive {
                    e.owner = *k;
                }
            }
        }
        d
    }
}

/// An idle directory entry in transit between shards (see
/// [`Directory::extract`] / [`Directory::adopt`]). Opaque: entry internals
/// stay private to this module.
#[derive(Debug)]
pub struct ExtractedEntry(DirEntry);

/// What [`Directory::reclaim_dead`] found and decided (all page lists in
/// ascending-page order).
#[derive(Debug, Default)]
pub struct DirReclaim {
    /// Pages whose dead owner had a surviving reader promoted in place.
    pub promoted: u64,
    /// Pages whose only copy (or only certain copy) died with the kernel.
    pub lost: Vec<PageNo>,
    /// Grants released by discounting the dead kernel's outstanding
    /// invalidation ack (ship these to their requesters).
    pub grants: Vec<Grant>,
    /// Live requests whose exchange was unwound and must be re-driven
    /// through [`Directory::request`].
    pub redo: Vec<(PageNo, PageRequest)>,
    /// Live requests for pages that are gone; fail them back explicitly.
    pub nacks: Vec<(PageNo, PageRequest)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PageNo = PageNo(0x7f000);
    const K0: KernelId = KernelId(0);
    const K1: KernelId = KernelId(1);
    const K2: KernelId = KernelId(2);

    fn req(n: u64, origin: KernelId, write: bool) -> PageRequest {
        PageRequest {
            rpc: RpcId(n),
            origin,
            write,
        }
    }

    fn data() -> PageContents {
        PageContents {
            version: 0,
            words: vec![(P.base().0, 7)].into(),
        }
    }

    #[test]
    fn first_touch_grants_zero_fill_exclusive() {
        let mut d = Directory::new();
        match d.request(P, req(1, K1, true)) {
            DirStep::Grant(g) => {
                assert_eq!(g.state, PageState::Exclusive);
                assert_eq!(g.version, 0);
                assert!(g.contents.is_none());
            }
            other => panic!("expected grant, got {other:?}"),
        }
        let v = d.view(P).unwrap();
        assert_eq!(v.owner, K1);
        assert_eq!(v.copyset, vec![K1]);
        assert!(v.busy);
    }

    #[test]
    fn read_fault_fetches_from_owner() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        match d.request(P, req(2, K1, false)) {
            DirStep::Fetch { owner } => assert_eq!(owner, K0),
            other => panic!("expected fetch, got {other:?}"),
        }
        let g = d.fetched(P, data());
        assert_eq!(g.state, PageState::ReadShared);
        assert_eq!(g.req.origin, K1);
        assert!(g.contents.is_some());
        d.done(P);
        let v = d.view(P).unwrap();
        assert_eq!(v.copyset, vec![K0, K1]);
        assert_eq!(v.owner, K0);
        assert!(!v.busy);
    }

    #[test]
    fn write_fault_invalidates_all_holders() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        d.request(P, req(2, K1, false));
        d.fetched(P, data());
        d.done(P);
        // K2 writes: both K0 (owner) and K1 (sharer) must be invalidated.
        match d.request(P, req(3, K2, true)) {
            DirStep::Invalidate { holders } => assert_eq!(holders, vec![K0, K1]),
            other => panic!("expected invalidate, got {other:?}"),
        }
        // Sharer acks without data: no grant yet.
        assert!(d.inval_acked(P, K1, None).is_none());
        // Owner acks with data: grant fires.
        let g = d.inval_acked(P, K0, Some(data())).expect("grant");
        assert_eq!(g.state, PageState::Exclusive);
        assert_eq!(g.version, 1);
        assert!(g.contents.is_some());
        d.done(P);
        let v = d.view(P).unwrap();
        assert_eq!(v.owner, K2);
        assert_eq!(v.copyset, vec![K2]);
    }

    #[test]
    fn upgrade_of_sole_sharer_needs_no_data() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        // K1 reads (K0 downgrades)...
        d.request(P, req(2, K1, false));
        d.fetched(P, data());
        d.done(P);
        // ...then K1 writes: K0 invalidated, but K1 already has the bytes.
        match d.request(P, req(3, K1, true)) {
            DirStep::Invalidate { holders } => assert_eq!(holders, vec![K0]),
            other => panic!("expected invalidate, got {other:?}"),
        }
        let g = d.inval_acked(P, K0, Some(data())).expect("grant");
        assert!(g.contents.is_none(), "upgrade must not reship data");
        assert_eq!(g.version, 1);
    }

    #[test]
    fn concurrent_requests_queue_behind_busy_page() {
        let mut d = Directory::new();
        let s1 = d.request(P, req(1, K0, true));
        assert!(matches!(s1, DirStep::Grant(_)));
        // Before K0 confirms install, K1 and K2 fault.
        assert_eq!(d.request(P, req(2, K1, true)), DirStep::Queued);
        assert_eq!(d.request(P, req(3, K2, false)), DirStep::Queued);
        assert_eq!(d.view(P).unwrap().queued, 2);
        // K0 done: K1's write is serviced next (invalidate K0).
        let (next, step) = d.done(P).expect("queued request");
        assert_eq!(next.origin, K1);
        match step {
            DirStep::Invalidate { holders } => assert_eq!(holders, vec![K0]),
            other => panic!("expected invalidate, got {other:?}"),
        }
        let g = d.inval_acked(P, K0, Some(data())).expect("grant");
        assert_eq!(g.req.origin, K1);
        assert_eq!(g.version, 1);
        // K1 done: K2's read is serviced (fetch from new owner K1).
        let (next, step) = d.done(P).expect("queued request");
        assert_eq!(next.origin, K2);
        assert_eq!(step, DirStep::Fetch { owner: K1 });
    }

    #[test]
    fn single_writer_invariant_holds_through_transfers() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        for (n, k) in [(2u64, K1), (3, K2), (4, K0), (5, K1)] {
            match d.request(P, req(n, k, true)) {
                DirStep::Invalidate { holders } => {
                    assert_eq!(holders.len(), 1, "exactly one holder before each write");
                    let owner = holders[0];
                    d.inval_acked(P, owner, Some(data())).expect("grant");
                }
                DirStep::Grant(_) => {}
                other => panic!("unexpected {other:?}"),
            }
            let v = d.view(P).unwrap();
            assert_eq!(v.copyset, vec![k], "writer is sole holder");
            assert_eq!(v.owner, k);
            d.done(P);
        }
        assert_eq!(d.view(P).unwrap().version, 4);
    }

    #[test]
    fn versions_increase_only_on_writes() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        let v0 = d.view(P).unwrap().version;
        d.request(P, req(2, K1, false));
        d.fetched(P, data());
        d.done(P);
        assert_eq!(d.view(P).unwrap().version, v0, "read must not bump version");
        d.request(P, req(3, K2, true));
        d.inval_acked(P, K0, Some(data()));
        d.inval_acked(P, K1, None);
        d.done(P);
        assert_eq!(d.view(P).unwrap().version, v0 + 1);
    }

    #[test]
    fn drop_pages_reports_holders() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        d.request(P, req(2, K1, false));
        d.fetched(P, data());
        d.done(P);
        let dropped = d.drop_pages([P, PageNo(0x9999)].into_iter());
        assert_eq!(dropped, vec![(P, vec![K0, K1])]);
        assert!(d.view(P).is_none());
        assert_eq!(d.tracked_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "unexpected inval ack")]
    fn unexpected_ack_panics() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        d.request(P, req(2, K1, true));
        d.inval_acked(P, K2, None);
    }

    #[test]
    fn done_without_waiters_just_clears_busy() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        assert!(d.done(P).is_none());
        assert!(!d.view(P).unwrap().busy);
    }

    #[test]
    fn all_holders_unions_copysets() {
        let mut d = Directory::new();
        let p2 = PageNo(0x7f001);
        d.request(P, req(1, K0, true));
        d.done(P);
        d.request(p2, req(2, K2, true));
        d.done(p2);
        let all: Vec<KernelId> = d.all_holders().into_iter().collect();
        assert_eq!(all, vec![K0, K2]);
    }

    #[test]
    fn reclaim_promotes_surviving_reader() {
        let mut d = Directory::new();
        d.request(P, req(1, K2, true));
        d.done(P);
        d.request(P, req(2, K0, false));
        d.fetched(P, data());
        d.done(P);
        // K2 owns, K0 shares. K2 dies: K0 is promoted.
        let r = d.reclaim_dead(K2);
        assert_eq!(r.promoted, 1);
        assert!(r.lost.is_empty() && r.grants.is_empty());
        let v = d.view(P).unwrap();
        assert_eq!(v.owner, K0);
        assert_eq!(v.copyset, vec![K0]);
    }

    #[test]
    fn reclaim_declares_sole_copy_lost_and_nacks_waiters() {
        let mut d = Directory::new();
        d.request(P, req(1, K2, true));
        d.done(P);
        // K0 queues behind a fresh transfer to K2...
        d.request(P, req(2, K2, true));
        assert_eq!(d.request(P, req(3, K0, false)), DirStep::Queued);
        // ...then K2 (sole holder and PageDone debtor) dies.
        let r = d.reclaim_dead(K2);
        assert_eq!(r.lost, vec![P]);
        assert_eq!(r.promoted, 0);
        assert_eq!(r.nacks, vec![(P, req(3, K0, false))]);
        assert!(d.view(P).is_none());
    }

    #[test]
    fn reclaim_releases_grant_blocked_on_dead_acker() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        d.request(P, req(2, K1, false));
        d.fetched(P, data());
        d.done(P);
        // K1 upgrades its read copy to write: only K0's ack is pending,
        // and K1 already holds the bytes.
        match d.request(P, req(3, K1, true)) {
            DirStep::Invalidate { holders } => assert_eq!(holders, vec![K0]),
            other => panic!("unexpected {other:?}"),
        }
        // K0 dies before acking: the upgrade grant is released without it.
        let r = d.reclaim_dead(K0);
        assert_eq!(r.grants.len(), 1);
        let g = &r.grants[0];
        assert_eq!(g.req, req(3, K1, true));
        assert_eq!(g.state, PageState::Exclusive);
        assert!(g.contents.is_none(), "upgrade needs no data");
        assert!(d.view(P).unwrap().busy, "PageDone still owed by K1");
    }

    #[test]
    fn reclaim_loses_page_when_dead_acker_held_the_data() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        // K1 writes: K0 must ship the data with its ack, but dies first.
        match d.request(P, req(2, K1, true)) {
            DirStep::Invalidate { holders } => assert_eq!(holders, vec![K0]),
            other => panic!("unexpected {other:?}"),
        }
        let r = d.reclaim_dead(K0);
        assert_eq!(r.lost, vec![P]);
        assert_eq!(r.nacks, vec![(P, req(2, K1, true))]);
        assert!(d.view(P).is_none());
    }

    #[test]
    fn reclaim_redrives_fetch_aimed_at_dead_owner() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        d.request(P, req(2, K1, false));
        d.fetched(P, data());
        d.done(P);
        // K2 reads from owner K0; K0 dies mid-fetch. K1's read copy
        // survives, so K2's request is re-driven against promoted K1.
        assert_eq!(
            d.request(P, req(3, K2, false)),
            DirStep::Fetch { owner: K0 }
        );
        let r = d.reclaim_dead(K0);
        assert_eq!(r.promoted, 1);
        assert_eq!(r.redo, vec![(P, req(3, K2, false))]);
        let v = d.view(P).unwrap();
        assert_eq!(v.owner, K1);
        assert!(!v.busy, "exchange unwound; redo restarts it");
        assert!(!d.fetch_pending(P), "straggler PageFetched now tolerated");
    }

    #[test]
    fn reclaim_unwinds_dead_requesters_fetch() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        // K2 reads from K0, then dies before the fetch completes.
        assert_eq!(
            d.request(P, req(2, K2, false)),
            DirStep::Fetch { owner: K0 }
        );
        assert!(d.fetch_pending(P));
        let r = d.reclaim_dead(K2);
        assert!(r.redo.is_empty() && r.lost.is_empty());
        let v = d.view(P).unwrap();
        assert_eq!(v.copyset, vec![K0], "optimistic insert undone");
        assert!(!v.busy);
    }

    #[test]
    fn reclaim_conservatively_loses_dead_writers_collection() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        // K2 writes (invalidating K0), then dies mid-collection: the
        // bytes' location is ambiguous, so the page is declared lost.
        match d.request(P, req(2, K2, true)) {
            DirStep::Invalidate { holders } => assert_eq!(holders, vec![K0]),
            other => panic!("unexpected {other:?}"),
        }
        let r = d.reclaim_dead(K2);
        assert_eq!(r.lost, vec![P]);
        assert!(d.view(P).is_none());
    }

    #[test]
    fn reclaim_releases_busy_held_by_dead_grantee() {
        let mut d = Directory::new();
        d.request(P, req(1, K0, true));
        d.done(P);
        d.request(P, req(2, K2, false));
        d.fetched(P, data());
        // Grant shipped to K2 (PageDone debtor); K1 queues behind it.
        assert_eq!(d.request(P, req(3, K1, false)), DirStep::Queued);
        let r = d.reclaim_dead(K2);
        assert_eq!(r.redo, vec![(P, req(3, K1, false))]);
        let v = d.view(P).unwrap();
        assert!(!v.busy);
        assert_eq!(v.copyset, vec![K0]);
    }

    #[test]
    fn extract_moves_idle_entry_between_shards_verbatim() {
        let mut a = Directory::new();
        a.request(P, req(1, K0, true));
        a.done(P);
        a.request(P, req(2, K1, false));
        a.fetched(P, data());
        a.done(P);
        let before = a.view(P).unwrap();
        let e = a.extract(P).expect("idle entry extracts");
        assert!(a.view(P).is_none());
        let mut b = Directory::new();
        b.adopt(P, e);
        assert_eq!(b.view(P).unwrap(), before, "handoff preserves state");
    }

    #[test]
    fn extract_refuses_busy_or_unknown_pages() {
        let mut d = Directory::new();
        assert!(d.extract(P).is_none(), "untracked page");
        d.request(P, req(1, K0, true));
        assert!(d.extract(P).is_none(), "busy page must drain first");
        d.done(P);
        assert!(d.extract(P).is_some());
    }

    #[test]
    #[should_panic(expected = "adopt over an existing entry")]
    fn adopt_over_tracked_page_panics() {
        let mut a = Directory::new();
        a.request(P, req(1, K0, true));
        a.done(P);
        let e = a.extract(P).unwrap();
        let mut b = Directory::new();
        b.request(P, req(2, K1, true));
        b.done(P);
        b.adopt(P, e);
    }

    #[test]
    fn rebuild_reconstructs_owner_copyset_and_version() {
        let info = |state, version| PageInfo { state, version };
        let p2 = PageNo(0x7f001);
        let scans = vec![
            (K0, vec![(P, info(PageState::ReadShared, 3))]),
            (
                K1,
                vec![
                    (P, info(PageState::Exclusive, 3)),
                    (p2, info(PageState::Exclusive, 0)),
                ],
            ),
        ];
        let d = Directory::rebuild(&scans);
        let v = d.view(P).unwrap();
        assert_eq!(v.owner, K1, "exclusive holder wins ownership");
        assert_eq!(v.copyset, vec![K0, K1]);
        assert_eq!(v.version, 3);
        assert!(!v.busy);
        let v2 = d.view(p2).unwrap();
        assert_eq!(v2.owner, K1);
        assert_eq!(v2.copyset, vec![K1]);
        assert_eq!(d.pages(), vec![P, p2]);
    }
}
