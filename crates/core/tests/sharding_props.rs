//! Hierarchical home sharding: degeneracy and protocol-flow properties.
//!
//! The load-bearing property is **degeneracy**: `home_sharding` is only
//! allowed to change *where* directory work queues, never *what* the
//! protocol decides — and whenever the hierarchy collapses (every kernel
//! on one socket, or one kernel spanning every socket) turning the gate
//! on must be byte-identical to the flat home, across fault injection,
//! migration churn, and kernel crashes. The global invariant audit
//! (check 7) rides along on every run here.

use popcorn_core::{PopcornOs, PopcornParams};
use popcorn_hw::Topology;
use popcorn_kernel::osmodel::{OsModel, RunReport};
use popcorn_kernel::program::{MigrateTarget, Op, Placement, ProgEnv, Program, Resume, SyscallReq};
use popcorn_kernel::types::VAddr;
use popcorn_msg::{ChannelFaults, FaultPlan, KernelId, MsgParams};
use popcorn_sim::{SimTime, StopCondition};

/// Maps a page span, spawns `workers` [`RovingWriter`]s over disjoint
/// slices, and exits without joining (crash cases may kill any worker;
/// a join counter a dead thread can never bump would wedge the drain).
#[derive(Debug)]
struct NoJoinLeader {
    workers: usize,
    pages_each: u64,
    hops: u32,
    compute_ns: u64,
    state: u8,
    base: VAddr,
    spawned: usize,
}

impl Program for NoJoinLeader {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        match self.state {
            0 => {
                self.state = 1;
                Op::Syscall(SyscallReq::Mmap {
                    len: self.workers as u64 * self.pages_each * VAddr::PAGE_SIZE,
                })
            }
            _ => {
                if self.state == 1 {
                    let Resume::Sys(res) = r else { panic!("mmap") };
                    self.base = VAddr(res.expect_val("mmap"));
                    self.state = 2;
                }
                if self.spawned < self.workers {
                    let base = self
                        .base
                        .add(self.spawned as u64 * self.pages_each * VAddr::PAGE_SIZE);
                    self.spawned += 1;
                    Op::Syscall(SyscallReq::Clone {
                        child: Box::new(RovingWriter {
                            base,
                            pages: self.pages_each,
                            hops_left: self.hops,
                            compute_ns: self.compute_ns,
                            next_page: 0,
                            seq: 0,
                            touching: false,
                        }),
                        placement: Placement::Auto,
                    })
                } else {
                    Op::Exit(0)
                }
            }
        }
    }
}

/// Ring-hops with its private pages in tow, rewriting them after every
/// hop — the fault/migration interleaving generator (same shape as the
/// replica property tests).
#[derive(Debug)]
struct RovingWriter {
    base: VAddr,
    pages: u64,
    hops_left: u32,
    compute_ns: u64,
    next_page: u64,
    seq: u64,
    touching: bool,
}

impl Program for RovingWriter {
    fn step(&mut self, _r: Resume, env: &ProgEnv) -> Op {
        if self.touching {
            if self.next_page < self.pages {
                let addr = self.base.add(self.next_page * VAddr::PAGE_SIZE);
                self.next_page += 1;
                self.seq += 1;
                return Op::Store(addr, self.seq);
            }
            self.touching = false;
            return Op::Compute(self.compute_ns);
        }
        if self.hops_left == 0 {
            return Op::Exit(0);
        }
        self.hops_left -= 1;
        self.next_page = 0;
        self.touching = true;
        let next = KernelId((env.kernel.0 + 1) % 4);
        Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(next)))
    }
}

fn fingerprint(r: &RunReport) -> (String, SimTime, u64) {
    (format!("{:?}", r.metrics), r.finished_at, r.exited_tasks)
}

fn collapsed_run(topo: Topology, kernels: u16, plan: FaultPlan, sharding: bool) -> RunReport {
    let mut os = PopcornOs::builder()
        .topology(topo)
        .kernels(kernels)
        .msg_params(MsgParams {
            faults: plan,
            ..MsgParams::default()
        })
        .popcorn_params(PopcornParams {
            home_sharding: sharding,
            ..PopcornParams::default()
        })
        .build();
    os.load(Box::new(NoJoinLeader {
        workers: 6,
        pages_each: 2,
        hops: 10,
        compute_ns: 20_000,
        state: 0,
        base: VAddr(0),
        spawned: 0,
    }));
    os.run()
}

/// 64 seeded-random fault plans (loss, duplication, delay, and on every
/// fourth plan a kernel crash) over a migrating-and-faulting fleet on a
/// **single-socket** machine: every kernel shares the root's socket, so
/// the hierarchy collapses and `home_sharding: true` must replay the
/// flat home byte for byte — same metrics, same finish time, same exits.
#[test]
fn sharding_on_one_socket_degenerates_to_flat_byte_for_byte() {
    let mut state: u64 = 0xE14_5EED;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for case in 0..64u64 {
        let x = next();
        let drop_p = ((x >> 8) % 1000) as f64 / 10_000.0; // 0..10%
        let dup_p = ((x >> 24) % 500) as f64 / 10_000.0; // 0..5%
        let delay_p = ((x >> 40) % 2000) as f64 / 10_000.0; // 0..20%
        let mut plan = FaultPlan {
            seed: x | 1,
            uniform: Some(ChannelFaults {
                drop_p,
                dup_p,
                delay_p,
                delay_max_ns: 20_000,
            }),
            ..FaultPlan::none()
        };
        let crash = case % 4 == 3;
        if crash {
            let victim = KernelId((next() % 4) as u16);
            let at = SimTime::from_micros(200 + next() % 2_000);
            plan = plan.with_crash(victim, at);
        }
        let flat = collapsed_run(Topology::new(1, 8), 4, plan.clone(), false);
        let sharded = collapsed_run(Topology::new(1, 8), 4, plan, true);
        assert_eq!(
            flat.stop,
            StopCondition::QueueEmpty,
            "case {case} (crash={crash}) did not drain"
        );
        assert_eq!(
            fingerprint(&flat),
            fingerprint(&sharded),
            "case {case} (crash={crash}): sharding on one socket diverged from flat"
        );
        assert_eq!(
            sharded.metric("shard_delegated_pages"),
            0.0,
            "case {case}: a one-socket hierarchy must never delegate"
        );
    }
}

/// Case 11 of the property above, pinned: 8.9% drops, 17.79% delays and
/// kernel 0 — the static home of the leader's group — crashing at
/// 1.551 ms. A `PageDone` for the already-reaped group kept failing
/// toward the dead kernel, and each failure restarted it toward the same
/// dead kernel (a gone group has no adopter, so its home never moves):
/// the run livelocked into `EventBudgetExhausted`. Such a notification
/// has no consumer and must be dropped, so the queue drains.
#[test]
fn notification_for_reaped_group_does_not_rechain_to_dead_home() {
    let plan = FaultPlan {
        seed: 0x4c61_d355_c6e9_aa7d,
        uniform: Some(ChannelFaults {
            drop_p: 0.089,
            dup_p: 0.0002,
            delay_p: 0.1779,
            delay_max_ns: 20_000,
        }),
        ..FaultPlan::none()
    }
    .with_crash(KernelId(0), SimTime::from_micros(1_551));
    for sharding in [false, true] {
        let r = collapsed_run(Topology::new(1, 8), 4, plan.clone(), sharding);
        assert_eq!(r.stop, StopCondition::QueueEmpty, "sharding={sharding}");
    }
}

/// The other collapse: a single kernel spanning every socket (one
/// cluster over the whole machine). With no second kernel there is
/// nobody to delegate to, and sharded must equal flat exactly.
#[test]
fn sharding_with_one_all_sockets_kernel_degenerates_to_flat() {
    let run = |sharding: bool| {
        let mut os = PopcornOs::builder()
            .topology(Topology::new(2, 4))
            .kernels(1)
            .popcorn_params(PopcornParams {
                home_sharding: sharding,
                ..PopcornParams::default()
            })
            .build();
        os.load(Box::new(NoJoinLeader {
            workers: 4,
            pages_each: 2,
            hops: 0, // nowhere to migrate — pure local fault traffic
            compute_ns: 10_000,
            state: 0,
            base: VAddr(0),
            spawned: 0,
        }));
        os.run()
    };
    let flat = run(false);
    let sharded = run(true);
    assert!(flat.is_clean(), "stuck: {:?}", flat.stuck_tasks);
    assert_eq!(fingerprint(&flat), fingerprint(&sharded));
    assert_eq!(sharded.metric("shard_delegated_pages"), 0.0);
}

/// Visits an explicit list of kernels, rewriting the same page range at
/// each stop — the deterministic single-thread driver for the
/// delegation → escalation life cycle.
#[derive(Debug)]
struct TouringWriter {
    stops: Vec<KernelId>,
    pages: u64,
    state: u8, // 0 = mmap, 1 = touring
    base: VAddr,
    stop: usize,
    next_page: u64,
    seq: u64,
    migrating: bool,
}

impl TouringWriter {
    fn new(stops: Vec<KernelId>, pages: u64) -> Self {
        TouringWriter {
            stops,
            pages,
            state: 0,
            base: VAddr(0),
            stop: 0,
            next_page: 0,
            seq: 0,
            migrating: true,
        }
    }
}

impl Program for TouringWriter {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        if self.state == 0 {
            self.state = 1;
            return Op::Syscall(SyscallReq::Mmap {
                len: self.pages * VAddr::PAGE_SIZE,
            });
        }
        if self.base == VAddr(0) {
            let Resume::Sys(res) = r else { panic!("mmap") };
            self.base = VAddr(res.expect_val("mmap"));
        }
        if self.migrating {
            if self.stop == self.stops.len() {
                return Op::Exit(0);
            }
            self.migrating = false;
            self.next_page = 0;
            let target = self.stops[self.stop];
            self.stop += 1;
            return Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(target)));
        }
        if self.next_page < self.pages {
            let addr = self.base.add(self.next_page * VAddr::PAGE_SIZE);
            self.next_page += 1;
            self.seq += 1;
            return Op::Store(addr, self.seq);
        }
        self.migrating = true;
        self.step(Resume::Done, _env)
    }
}

/// The full delegation life cycle, single-threaded so every count is
/// exact. Two sockets, two kernels each (0,1 on the root's socket; 2,3
/// on the other). A writer first touches 4 pages from kernel 2: each
/// page is delegated to socket 1's lead (kernel 2 itself) and served
/// there. It then rewrites them from kernel 1: cross-socket traffic at
/// the delegate marks every page, and each entry escalates back into
/// the root directory as it quiesces.
#[test]
fn first_touch_delegates_and_cross_socket_traffic_escalates() {
    let mut os = PopcornOs::builder()
        .topology(Topology::new(2, 4))
        .kernels(4)
        .popcorn_params(PopcornParams {
            home_sharding: true,
            ..PopcornParams::default()
        })
        .build();
    os.load(Box::new(TouringWriter::new(
        vec![KernelId(2), KernelId(1)],
        4,
    )));
    let r = os.run();
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert_eq!(
        r.metric("shard_delegated_pages"),
        4.0,
        "every socket-1 first touch must be delegated: {:?}",
        r.metrics
    );
    assert_eq!(
        r.metric("shard_escalations"),
        4.0,
        "every cross-socket rewrite must escalate its page: {:?}",
        r.metrics
    );
    assert!(
        r.metric("shard_forwards") >= 4.0,
        "each delegated first touch is forwarded root → delegate: {:?}",
        r.metrics
    );
    // The delegate really served pages behind its own server.
    assert!(r.metric("home_servers") >= 2.0, "{:?}", r.metrics);
}

/// Flat-vs-sharded on a genuinely multi-socket fleet is *not* identical
/// (the whole point is moving queueing) — but the protocol outcome must
/// agree: same exits, same pages transferred, same faults observed.
#[test]
fn sharded_multi_socket_changes_queueing_not_outcomes() {
    let run = |sharding: bool| {
        let mut os = PopcornOs::builder()
            .topology(Topology::new(2, 4))
            .kernels(4)
            .popcorn_params(PopcornParams {
                home_sharding: sharding,
                ..PopcornParams::default()
            })
            .build();
        os.load(Box::new(TouringWriter::new(
            vec![KernelId(2), KernelId(3), KernelId(2)],
            6,
        )));
        os.run()
    };
    let flat = run(false);
    let sharded = run(true);
    assert!(flat.is_clean() && sharded.is_clean());
    assert_eq!(flat.exited_tasks, sharded.exited_tasks);
    // Mode-independent protocol outcomes: the same stores miss, and the
    // same copies get invalidated, no matter where the directory lives.
    let total_faults = |r: &RunReport| {
        r.metric("faults_local") + r.metric("faults_remote_read") + r.metric("faults_remote_write")
    };
    assert_eq!(total_faults(&flat), total_faults(&sharded));
    assert_eq!(
        flat.metric("invalidations"),
        sharded.metric("invalidations")
    );
    // What *does* change is where the work queues: the flat home funnels
    // every request through the one root server, the sharded run splits
    // it across the root plus the socket's delegate server.
    assert!(sharded.metric("home_servers") > flat.metric("home_servers"));
    assert!(sharded.metric("shard_delegated_pages") >= 6.0);
}
