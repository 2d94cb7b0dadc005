//! Criterion benches for the simulation substrate itself: event queue,
//! RNG, histogram, lock-site model, fabric and the kernel model's run
//! loop. These bound how large an experiment the harness can afford.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use popcorn_hw::{CoreId, HwParams, Interconnect, LockSite, Machine, RwLockSite, Topology};
use popcorn_kernel::kernel::{Kernel, RunOutcome};
use popcorn_kernel::mm::{Mm, PageState};
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::{Op, ProgEnv, Program, Resume};
use popcorn_kernel::types::{GroupId, PageNo, Tid, VAddr};
use popcorn_msg::KernelId;
use popcorn_sim::queue::RING_WINDOW_NS;
use popcorn_sim::{
    run_partitioned, Handler, Histogram, Partition, Scheduler, SimRng, SimTime, Simulator,
};

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

/// A partition for the conservative barrier-epoch engine: each of the
/// `n` partitions walks a local event chain at fixed `spacing` and, every
/// `cross_every` events (0 = never), forwards the token to the next
/// partition `hop` nanoseconds out instead. `hop` doubles as the
/// lookahead, so every cross-send lands at or beyond the current epoch
/// boundary — the conservative guarantee.
struct EpochPart {
    idx: usize,
    n: usize,
    spacing: u64,
    hop: u64,
    cross_every: u32,
    sim: Simulator<u32>,
    last_fire: SimTime,
}

struct EpochHandler<'a> {
    idx: usize,
    n: usize,
    spacing: u64,
    hop: u64,
    cross_every: u32,
    cross: &'a mut Vec<(usize, SimTime, u32)>,
    last_fire: &'a mut SimTime,
}

impl Handler<u32> for EpochHandler<'_> {
    fn handle(&mut self, now: SimTime, remaining: u32, sched: &mut Scheduler<'_, u32>) {
        *self.last_fire = now;
        if remaining == 0 {
            return;
        }
        if self.cross_every != 0 && remaining.is_multiple_of(self.cross_every) {
            self.cross.push((
                (self.idx + 1) % self.n,
                now + SimTime::from_nanos(self.hop),
                remaining - 1,
            ));
        } else {
            sched.after(SimTime::from_nanos(self.spacing), remaining - 1);
        }
    }
}

impl Partition for EpochPart {
    type Event = u32;
    fn next_time(&mut self) -> Option<SimTime> {
        self.sim.next_time()
    }
    fn enqueue(&mut self, at: SimTime, event: u32) {
        self.sim.schedule(at, event);
    }
    fn run_window(&mut self, upto: SimTime, cross: &mut Vec<(usize, SimTime, u32)>) -> u64 {
        let before = self.sim.events_processed();
        let mut h = EpochHandler {
            idx: self.idx,
            n: self.n,
            spacing: self.spacing,
            hop: self.hop,
            cross_every: self.cross_every,
            cross,
            last_fire: &mut self.last_fire,
        };
        // `run_until` horizons are inclusive; the window bound is exclusive.
        self.sim
            .run_until(&mut h, SimTime::from_nanos(upto.as_nanos() - 1), u64::MAX);
        self.sim.events_processed() - before
    }
    fn now(&self) -> SimTime {
        self.last_fire
    }
}

fn epoch_parts(
    n: usize,
    per_part: u32,
    spacing: u64,
    hop: u64,
    cross_every: u32,
) -> Vec<EpochPart> {
    (0..n)
        .map(|idx| {
            let mut sim = Simulator::new();
            // Stagger starts so no two partitions tick at the same instant.
            sim.schedule(SimTime::from_nanos(idx as u64), per_part);
            EpochPart {
                idx,
                n,
                spacing,
                hop,
                cross_every,
                sim,
                last_fire: SimTime::ZERO,
            }
        })
        .collect()
}

/// The conservative epoch scheduler (`run_partitioned`) in its two cost
/// regimes, at a fixed 80k events over 4 partitions. Compute-dominated: a
/// lookahead wider than the whole run and no cross traffic — one epoch,
/// measuring the window-execution floor plus fixed barrier setup.
/// Barrier-dominated: a lookahead of four event spacings with a
/// cross-send every 16 events — thousands of tiny epochs, measuring the
/// per-epoch cost (min-reduction, two barriers, mailbox drain). One
/// worker thread, so the numbers isolate scheduler overhead rather than
/// contention, and the bench stays honest on single-core hosts.
fn bench_epoch_scheduler(c: &mut Criterion) {
    const PARTS: usize = 4;
    const PER_PART: u32 = 20_000;
    const SPACING: u64 = 10;
    let horizon = SimTime::from_millis(100);

    c.bench_function("engine/epoch_compute_dominated_80k", |b| {
        b.iter(|| {
            let mut parts = epoch_parts(PARTS, PER_PART, SPACING, 1_000_000, 0);
            let out = run_partitioned(&mut parts, SimTime::from_millis(1), horizon, u64::MAX, 1);
            black_box((out.events, out.epochs))
        })
    });

    c.bench_function("engine/epoch_barrier_dominated_80k", |b| {
        b.iter(|| {
            let mut parts = epoch_parts(PARTS, PER_PART, SPACING, 4 * SPACING, 16);
            let out = run_partitioned(
                &mut parts,
                SimTime::from_nanos(4 * SPACING),
                horizon,
                u64::MAX,
                1,
            );
            black_box((out.events, out.epochs))
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

/// `Kernel::run_core`, the per-op hot loop every modelled instruction
/// goes through: one kernel, one task, a store/compute loop over 4
/// resident pages, no faults, reported per modelled op.
fn bench_run_core(c: &mut Criterion) {
    const OPS: u64 = 65_536;
    let mut g = c.benchmark_group("kernel");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("run_core_store_compute_4pages_64k_ops", |b| {
        b.iter(|| {
            let machine = Machine::new(Topology::new(1, 1), HwParams::default());
            let mut k = Kernel::new(KernelId(0), vec![CoreId(0)], OsParams::default(), machine);
            let group = GroupId(k.alloc_tid());
            let mut mm = Mm::new(group);
            let base = mm.map_anon(4 * VAddr::PAGE_SIZE).expect("map");
            for p in 0..4 {
                mm.install_zero_page(
                    VAddr(base.0 + p * VAddr::PAGE_SIZE).page(),
                    PageState::Exclusive,
                );
            }
            k.adopt_mm(mm);
            let tid = k.alloc_tid();
            let program = StoreCompute {
                base,
                ops: OPS,
                done: 0,
            };
            let core = k.spawn(tid, group, Box::new(program), None, SimTime::ZERO);
            let mut now = SimTime::ZERO;
            loop {
                match k.run_core(now, core) {
                    RunOutcome::Busy { until } => now = until,
                    RunOutcome::Exited { at, .. } => break black_box(at),
                    other => panic!("unexpected {other:?}"),
                }
            }
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

criterion_group!(
    benches,
    bench_event_loop,
    bench_queue_regimes,
    bench_rng,
    bench_histogram,
    bench_lock_sites,
    bench_epoch_scheduler,
    bench_run_core,
    bench_mm_transfer
);
criterion_main!(benches);
