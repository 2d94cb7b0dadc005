//! Criterion benches for the simulation substrate itself: event queue,
//! RNG, histogram, lock-site model, the reliable transport, the kernel
//! model's run loop and the page directory. These bound how large an
//! experiment the harness can afford.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use popcorn_core::directory::{DirStep, Directory, PageRequest};
use popcorn_core::proto::ProtoMsg;
use popcorn_core::PopcornParams;
use popcorn_hw::{CoreId, HwParams, Interconnect, LockSite, Machine, RwLockSite, Topology};
use popcorn_kernel::kernel::{Kernel, RunOutcome};
use popcorn_kernel::mm::{Mm, PageContents, PageState};
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::{Op, ProgEnv, Program, Resume, SysResult};
use popcorn_kernel::types::{GroupId, PageNo, Tid, VAddr};
use popcorn_msg::{Fabric, FaultPlan, KernelId, MsgParams, ReliableFabric, RpcId, SendPlan};
use popcorn_sim::queue::RING_WINDOW_NS;
use popcorn_sim::{CalendarQueue, Handler, Histogram, Scheduler, SimRng, SimTime, Simulator};
use popcorn_workloads::adversarial::PinnedBouncer;
use popcorn_workloads::team::SignalingWorker;

#[derive(Debug)]
enum Ev {
    Tick(u32),
}

struct Chain {
    remaining: u32,
}

impl Handler<Ev> for Chain {
    fn handle(&mut self, _now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        let Ev::Tick(n) = ev;
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.after(SimTime::from_nanos(7), Ev::Tick(n + 1));
        }
    }
}

fn bench_event_loop(c: &mut Criterion) {
    c.bench_function("engine/event_chain_100k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            sim.schedule(SimTime::ZERO, Ev::Tick(0));
            let mut h = Chain { remaining: 100_000 };
            sim.run(&mut h);
            black_box(sim.events_processed())
        })
    });

    c.bench_function("engine/queue_fanout_10k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            for i in 0..10_000u32 {
                sim.schedule(SimTime::from_nanos((i % 977) as u64), Ev::Tick(i));
            }
            let mut h = Chain { remaining: 0 };
            sim.run(&mut h);
            black_box(sim.now())
        })
    });
}

/// Zero-delay chain: every event stages its successor at the same instant
/// via `immediately()`, the pattern the engine's inline fast path serves
/// without touching the queue at all.
struct ImmediateChain {
    remaining: u32,
}

impl Handler<Ev> for ImmediateChain {
    fn handle(&mut self, _now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        let Ev::Tick(n) = ev;
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.immediately(Ev::Tick(n + 1));
        }
    }
}

/// Chain alternating between a short hop inside the calendar ring window
/// and a far-future jump through the overflow heap, so both tiers (and the
/// migration between them) stay on the measured path.
struct NearFarChain {
    remaining: u32,
}

impl Handler<Ev> for NearFarChain {
    fn handle(&mut self, _now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        let Ev::Tick(n) = ev;
        if self.remaining > 0 {
            self.remaining -= 1;
            let delay = if n % 2 == 0 { 3 } else { 6 * RING_WINDOW_NS };
            sched.after(SimTime::from_nanos(delay), Ev::Tick(n + 1));
        }
    }
}

/// The three regimes the calendar-queue rework optimizes, measured in
/// isolation: same-time burst fan-out (tie-group extraction), the
/// self-rescheduling chain (inline fast path), and mixed near/far-future
/// schedules (ring ↔ overflow traffic).
fn bench_queue_regimes(c: &mut Criterion) {
    // All 10k events at one instant: a single tie group far larger than a
    // ring bucket, drained in FIFO seq order.
    c.bench_function("engine/same_time_burst_10k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            for i in 0..10_000u32 {
                sim.schedule(SimTime::from_micros(5), Ev::Tick(i));
            }
            let mut h = Chain { remaining: 0 };
            sim.run(&mut h);
            black_box(sim.events_processed())
        })
    });

    c.bench_function("engine/immediate_chain_100k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            sim.schedule(SimTime::ZERO, Ev::Tick(0));
            let mut h = ImmediateChain { remaining: 100_000 };
            sim.run(&mut h);
            black_box(sim.events_processed())
        })
    });

    c.bench_function("engine/mixed_near_far_100k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new();
            // A standing population in both tiers while the chain runs:
            // 64 events spread over ~8 ring windows.
            for i in 0..64u32 {
                let at = i as u64 * (RING_WINDOW_NS / 8 + 1);
                sim.schedule(SimTime::from_nanos(at), Ev::Tick(i));
            }
            sim.schedule(SimTime::ZERO, Ev::Tick(0));
            let mut h = NearFarChain { remaining: 100_000 };
            sim.run(&mut h);
            black_box(sim.events_processed())
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("engine/rng_100k_draws", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(42);
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(rng.range_u64(0, 1_000_000));
            }
            black_box(acc)
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("engine/histogram_100k_records", |b| {
        b.iter(|| {
            let mut h = Histogram::new();
            let mut x = 88172645463325252u64;
            for _ in 0..100_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.record(x % 10_000_000);
            }
            black_box(h.quantile(0.99))
        })
    });
}

fn bench_lock_sites(c: &mut Criterion) {
    let params = HwParams::default();
    let ic = Interconnect::new(Topology::new(4, 16), &params);
    c.bench_function("engine/lock_site_100k_acquires", |b| {
        b.iter(|| {
            let mut site = LockSite::new("bench", &params);
            let mut t = SimTime::ZERO;
            for i in 0..100_000u32 {
                let a = site.acquire(t, CoreId((i % 64) as u16), SimTime::from_nanos(100), &ic);
                t = a.released_at.saturating_sub(SimTime::from_nanos(50));
            }
            black_box(site.acquires())
        })
    });
    c.bench_function("engine/rwlock_site_100k_reads", |b| {
        b.iter(|| {
            let mut site = RwLockSite::new("bench", &params);
            let mut t = SimTime::ZERO;
            for i in 0..100_000u32 {
                let a =
                    site.read_acquire(t, CoreId((i % 64) as u16), SimTime::from_nanos(400), &ic);
                t = a.acquired_at;
            }
            black_box(site.read_acquires())
        })
    });
}

/// Alternates a store to one of 4 resident pages with a short compute,
/// `ops` operations in all, then exits.
#[derive(Debug)]
struct StoreCompute {
    base: VAddr,
    ops: u64,
    done: u64,
}

impl Program for StoreCompute {
    fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
        if self.done == self.ops {
            return Op::Exit(0);
        }
        self.done += 1;
        if self.done % 2 == 1 {
            let page = (self.done / 2) % 4;
            Op::Store(VAddr(self.base.0 + page * VAddr::PAGE_SIZE + 8), self.done)
        } else {
            Op::Compute(50)
        }
    }
}

/// One kernel with a single core and `pages` resident exclusive pages of
/// one group: returns the kernel, the group and the pages' base.
fn resident_kernel(pages: u64) -> (Kernel, GroupId, VAddr) {
    let machine = Machine::new(Topology::new(1, 1), HwParams::default());
    let mut k = Kernel::new(KernelId(0), vec![CoreId(0)], OsParams::default(), machine);
    let group = GroupId(k.alloc_tid());
    let mut mm = Mm::new(group);
    let base = mm.map_anon(pages * VAddr::PAGE_SIZE).expect("map");
    for p in 0..pages {
        mm.install_zero_page(base.add(p * VAddr::PAGE_SIZE).page(), PageState::Exclusive);
    }
    k.adopt_mm(mm);
    (k, group, base)
}

/// Runs the only task of `k` to its exit, answering every syscall and
/// sync op with 0 at once.
fn run_to_exit(k: &mut Kernel, core: CoreId) -> SimTime {
    let mut now = SimTime::ZERO;
    loop {
        now = match k.run_core(now, core) {
            RunOutcome::Busy { until } => until,
            RunOutcome::Syscall { tid, at, .. } => {
                k.finish_syscall(tid, SysResult::Val(0), at);
                at
            }
            RunOutcome::SyncOp { tid, at, .. } => {
                k.finish_sync_op(tid, 0, at);
                at
            }
            RunOutcome::Exited { at, .. } => return at,
            other => panic!("unexpected {other:?}"),
        };
    }
}

/// `Kernel::run_core`, the per-op hot loop every modelled instruction
/// goes through: one kernel, one task, no faults, reported per modelled
/// op. The store/compute case steps a bare program; the team bouncer
/// case steps a `PinnedBouncer` inside the `SignalingWorker` every team
/// member runs in, the per-op path `lossy_cluster` spends its time on.
fn bench_run_core(c: &mut Criterion) {
    const OPS: u64 = 65_536;
    let mut g = c.benchmark_group("kernel");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("run_core_store_compute_4pages_64k_ops", |b| {
        b.iter(|| {
            let (mut k, group, base) = resident_kernel(4);
            let tid = k.alloc_tid();
            let program = StoreCompute {
                base,
                ops: OPS,
                done: 0,
            };
            let core = k.spawn(tid, group, Box::new(program), None, SimTime::ZERO);
            black_box(run_to_exit(&mut k, core))
        })
    });
    // A migrate syscall, then per round four stores and one compute, then
    // the last four stores, the inner exit and the join signal's atomic
    // add, futex wake and exit.
    const ROUNDS: u32 = 13_106;
    g.throughput(Throughput::Elements(5 * u64::from(ROUNDS) + 8));
    g.bench_function("run_core_team_bouncer", |b| {
        b.iter(|| {
            let (mut k, group, base) = resident_kernel(5);
            let tid = k.alloc_tid();
            let bouncer = PinnedBouncer::new(KernelId(0), base, 4, ROUNDS, 50);
            let join_word = base.add(4 * VAddr::PAGE_SIZE);
            let worker = SignalingWorker::new(Box::new(bouncer), join_word);
            let core = k.spawn(tid, group, Box::new(worker), None, SimTime::ZERO);
            black_box(run_to_exit(&mut k, core))
        })
    });
    g.finish();
}

/// One page transfer between two address-space replicas — `evict_page`
/// at the holder, `install_page` at the other, alternating direction —
/// with `others` further written pages resident in each. A transfer
/// touches only the page it names, so ns/op stays flat as `others` grows.
fn bench_mm_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("mm");
    for others in [16u64, 1_024] {
        let mut a = Mm::new(GroupId(Tid::new(KernelId(0), 1)));
        let base = a.map_anon((others + 1) * VAddr::PAGE_SIZE).expect("map");
        let mut b = a.replica_layout();
        let hot = base.page();
        a.install_zero_page(hot, PageState::Exclusive);
        for w in 0..8 {
            a.write_word(base.add(w * 8), w + 1);
        }
        for mm in [&mut a, &mut b] {
            for p in 1..=others {
                let page = PageNo(hot.0 + p);
                mm.install_zero_page(page, PageState::ReadShared);
                mm.write_word(page.base(), p);
                mm.write_word(page.base().add(64), p + 1);
            }
        }
        let mut at_a = true;
        g.bench_function(format!("evict_install_1page_{others}_resident"), |bch| {
            bch.iter(|| {
                let (from, to) = if at_a {
                    (&mut a, &mut b)
                } else {
                    (&mut b, &mut a)
                };
                let contents = from.evict_page(hot);
                to.install_page(hot, PageState::Exclusive, contents);
                at_a = !at_a;
                black_box(to.resident_pages())
            })
        });
    }
    g.finish();
}

/// One directory write fault that invalidates three holders: the
/// request, the three acks and the requester's `PageDone`. The writer
/// already holds a read copy, so no ack needs to carry data. Each
/// iteration then re-creates the holders with three read faults, so the
/// write always meets the same copyset.
fn bench_directory(c: &mut Criterion) {
    const PAGE: PageNo = PageNo(0x7f000);
    let req = |n: u64, k: u16, write: bool| PageRequest {
        rpc: RpcId(n),
        origin: KernelId(k),
        write,
    };
    // Kernel 3 owns the page; kernels 0-2 read it.
    let mut d = Directory::new();
    d.request(PAGE, req(0, 3, true));
    d.done(PAGE);
    let mut n = 0u64;
    let read_back = |d: &mut Directory, n: &mut u64| {
        for k in 0..3 {
            *n += 1;
            d.request(PAGE, req(*n, k, false));
            d.fetched(PAGE, PageContents::default());
            d.done(PAGE);
        }
    };
    read_back(&mut d, &mut n);
    c.bench_function("directory/write_invalidate_3_holders", |b| {
        b.iter(|| {
            n += 1;
            let DirStep::Invalidate { holders } = d.request(PAGE, req(n, 3, true)) else {
                panic!("three holders to invalidate");
            };
            let mut grant = None;
            for h in holders {
                grant = d.inval_acked(PAGE, h, None).or(grant);
            }
            black_box(grant.expect("granted"));
            d.done(PAGE);
            read_back(&mut d, &mut n);
        })
    });
}

/// Parks a far-future event beside 1,000 standing parked events, then
/// cancels it: the path an answered RPC's deadline takes.
fn bench_queue_cancel(c: &mut Criterion) {
    let mut q: CalendarQueue<u64> = CalendarQueue::new();
    let far = |i: u64| SimTime::from_nanos(10 * RING_WINDOW_NS + i * 100);
    for seq in 0..1_000u64 {
        q.push(far(seq), seq, seq);
    }
    let mut seq = 1_000u64;
    c.bench_function("queue/park_then_cancel", |b| {
        b.iter(|| {
            seq += 1;
            let key = q.push_cancellable(far(seq), seq, seq).expect("parked");
            black_box(q.cancel(key))
        })
    });
    assert_eq!(q.len(), 1_000);
}

/// One sequenced send through the reliable transport on a lossless but
/// active fault plan, the receiver's duplicate check and its channel ack:
/// the per-message transport cost under `lossy_cluster`.
fn bench_transport(c: &mut Criterion) {
    let machine = Machine::new(Topology::new(1, 2), HwParams::default());
    let params = MsgParams {
        faults: FaultPlan::uniform_drop(1, 0.0),
        ..MsgParams::default()
    };
    let fabric = Fabric::new(&machine, vec![CoreId(0), CoreId(1)], params);
    let policy = PopcornParams::default().retx_policy();
    let mut net: ReliableFabric<ProtoMsg> = ReliableFabric::new(fabric, policy, true);
    let (a, b) = (KernelId(0), KernelId(1));
    let group = GroupId(Tid::new(a, 1));
    let mut now = SimTime::ZERO;
    c.bench_function("transport/sequenced_send_accept_ack", |bch| {
        bch.iter(|| {
            // Far enough apart that no send queues behind the last one.
            now += SimTime::from_nanos(100_000);
            let msg = ProtoMsg::PageDone {
                group,
                page: PageNo(5),
            };
            let SendPlan::Deliver { delivery, .. } = net.send(now, a, b, msg) else {
                panic!("a lossless plan delivers");
            };
            assert!(net.accept(&delivery));
            let ack = ProtoMsg::ChanAck { seq: delivery.seq };
            let acked = net.fabric_mut().send(delivery.deliver_at, b, a, ack);
            black_box(acked.expect_delivered())
        })
    });
}

criterion_group!(
    benches,
    bench_transport,
    bench_event_loop,
    bench_queue_regimes,
    bench_rng,
    bench_histogram,
    bench_lock_sites,
    bench_run_core,
    bench_mm_transfer,
    bench_directory,
    bench_queue_cancel
);
criterion_main!(benches);
