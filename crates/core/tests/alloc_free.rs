//! Allocation regression tests for the remote-fault path and the reliable
//! transport: a directory write fault with three holders, a one-waiter
//! page wait and a sequenced send with its accept and ack must not touch
//! the heap. A counting global allocator tallies this thread's
//! allocations, so tests running in parallel do not disturb each other's
//! counts. The event layout is pinned here too: every queued event pays
//! for its size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use popcorn_core::directory::{DirStep, Directory, PageRequest};
use popcorn_core::machine::page::{PageWait, PageWaiters};
use popcorn_core::proto::ProtoMsg;
use popcorn_core::{PopEvent, PopcornParams};
use popcorn_hw::{CoreId, HwParams, Machine, Topology};
use popcorn_kernel::mm::{PageContents, PageState};
use popcorn_kernel::types::{GroupId, PageNo, Tid};
use popcorn_msg::{Fabric, FaultPlan, KernelId, MsgParams, ReliableFabric, RpcId, SendPlan};
use popcorn_sim::SimTime;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches only a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap allocations this thread made while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const P: PageNo = PageNo(0x7f000);

fn req(n: u64, k: u16, write: bool) -> PageRequest {
    PageRequest {
        rpc: RpcId(n),
        origin: KernelId(k),
        write,
    }
}

#[test]
fn the_counter_sees_allocations() {
    assert_eq!(allocations_in(|| drop(black_box(vec![1u8; 8]))), 1);
}

#[test]
fn write_fault_invalidating_three_holders_allocates_nothing() {
    let mut d = Directory::new();
    // Kernel 0 writes the page, kernels 1 and 2 read it: three holders.
    d.request(P, req(1, 0, true));
    d.done(P);
    for k in 1..=2 {
        assert!(matches!(
            d.request(P, req(1 + u64::from(k), k, false)),
            DirStep::Fetch { .. }
        ));
        d.fetched(P, PageContents::default());
        d.done(P);
    }
    // The previous owner's ack carries the page; built outside the count
    // because the owner's kernel, not the directory, produces it.
    let mut owner_data = Some(PageContents::default());
    let n = allocations_in(|| {
        let DirStep::Invalidate { holders } = d.request(P, req(9, 3, true)) else {
            panic!("a write fault with holders invalidates them");
        };
        assert_eq!(holders.len(), 3);
        let mut grant = None;
        for h in holders {
            let data = if h == KernelId(0) {
                owner_data.take()
            } else {
                None
            };
            grant = d.inval_acked(P, h, data);
        }
        let grant = grant.expect("the last ack releases the grant");
        assert_eq!(grant.state, PageState::Exclusive);
        assert!(d.done(P).is_none());
        black_box(grant);
    });
    assert_eq!(n, 0, "the write fault round trip allocated");
    let v = d.view(P).expect("tracked");
    assert_eq!((v.owner, v.copyset), (KernelId(3), vec![KernelId(3)]));
}

#[test]
fn one_waiter_page_wait_allocates_nothing() {
    let tid = Tid::new(KernelId(1), 7);
    let n = allocations_in(|| {
        let w = PageWait {
            group: GroupId(Tid::new(KernelId(0), 1)),
            page: P,
            write: true,
            started: SimTime::from_nanos(5),
            waiters: PageWaiters::new(tid, true),
        };
        let woken: u32 = black_box(w).waiters.into_iter().map(|_| 1).sum();
        assert_eq!(woken, 1);
    });
    assert_eq!(n, 0, "a one-waiter page wait allocated");
}

#[test]
fn joined_waiters_keep_join_order() {
    let t = |n| Tid::new(KernelId(1), n);
    let mut w = PageWaiters::new(t(1), false);
    w.join(t(2), true);
    w.join(t(3), false);
    let order: Vec<_> = w.iter().collect();
    assert_eq!(order, vec![(t(1), false), (t(2), true), (t(3), false)]);
    assert_eq!(w.into_iter().collect::<Vec<_>>(), order);
}

#[test]
fn pop_event_is_88_bytes() {
    // The sequence header is a `u32` in `Delivery`'s padding; an
    // `Option<u64>` would make this 104 and a `u64` 96.
    assert_eq!(std::mem::size_of::<PopEvent>(), 88);
}

#[test]
fn sequenced_send_accept_and_ack_allocate_nothing() {
    let machine = Machine::new(Topology::new(1, 2), HwParams::default());
    let params = MsgParams {
        faults: FaultPlan::uniform_drop(1, 0.0), // active but lossless
        ..MsgParams::default()
    };
    let fabric = Fabric::new(&machine, vec![CoreId(0), CoreId(1)], params);
    let policy = PopcornParams::default().retx_policy();
    let mut net: ReliableFabric<ProtoMsg> = ReliableFabric::new(fabric, policy, true);
    let (a, b) = (KernelId(0), KernelId(1));
    let round_trip = |net: &mut ReliableFabric<ProtoMsg>, at: u64| {
        let now = SimTime::from_nanos(at);
        let msg = ProtoMsg::PageDone {
            group: GroupId(Tid::new(a, 1)),
            page: P,
        };
        let SendPlan::Deliver { delivery, .. } = net.send(now, a, b, msg) else {
            panic!("a lossless plan delivers");
        };
        assert!(net.accept(&delivery), "a fresh sequence number is accepted");
        let ack = ProtoMsg::ChanAck { seq: delivery.seq };
        let acked = net.fabric_mut().send(delivery.deliver_at, b, a, ack);
        assert_eq!(
            black_box(acked.expect_delivered()).seq,
            0,
            "acks are unsequenced"
        );
        delivery.seq
    };
    // The first round trip creates both channels' lazy entries.
    assert_eq!(round_trip(&mut net, 0), 1);
    let mut seq = 0;
    let n = allocations_in(|| seq = round_trip(&mut net, 100_000));
    assert_eq!(n, 0, "a sequenced send, accept and ack allocated");
    assert_eq!(seq, 2);
}
