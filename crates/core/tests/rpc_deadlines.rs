//! RPC deadline semantics under fault injection, observed event by event:
//! an unanswered request still times out exactly `rpc_deadline_ns` after
//! it was issued, and an answered one leaves no deadline event behind in
//! the queue. Also pins the kernel-count limit that the inline kernel sets
//! impose on a machine.

use popcorn_core::proto::ProtoMsg;
use popcorn_core::{PopEvent, PopcornMachine, PopcornOs, PopcornParams};
use popcorn_hw::{HwParams, Machine, Topology};
use popcorn_kernel::kernel::Kernel;
use popcorn_kernel::osmodel::OsEvent;
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::{MigrateTarget, Op, ProgEnv, Program, Resume, SyscallReq};
use popcorn_kernel::types::VAddr;
use popcorn_msg::{Fabric, FaultPlan, KernelId, MsgParams};
use popcorn_sim::{Handler, Scheduler, SimTime, Simulator, StopCondition};
use popcorn_workloads::micro;

/// The real machine behind a handler that watches every event.
struct Spy {
    m: PopcornMachine,
    /// `(fire time, kernel)` of each deadline that failed its request.
    timeouts: Vec<(SimTime, usize)>,
    /// `RpcDeadline` events dispatched, moot or not.
    deadlines_fired: u64,
    /// Fire time of the last event that was not a channel ack.
    last_non_ack: SimTime,
    /// `(kernel, rpc)` to watch, and the time of the event that issued it.
    watch: Option<(usize, popcorn_msg::RpcId)>,
    issued_at: Option<SimTime>,
}

impl Handler<PopEvent> for Spy {
    fn handle(&mut self, now: SimTime, ev: PopEvent, sched: &mut Scheduler<'_, PopEvent>) {
        let kernel = match &ev {
            OsEvent::Custom(d) => {
                match d.payload {
                    ProtoMsg::RpcDeadline { .. } => self.deadlines_fired += 1,
                    ProtoMsg::ChanAck { .. } => {}
                    _ => self.last_non_ack = now,
                }
                d.to.0 as usize
            }
            OsEvent::CoreRun { kernel, .. } | OsEvent::TimerWake { kernel, .. } => {
                self.last_non_ack = now;
                *kernel as usize
            }
        };
        let before = self.m.stats.rpc_timeouts.get();
        self.m.handle(now, ev, sched);
        if self.m.stats.rpc_timeouts.get() > before {
            self.timeouts.push((now, kernel));
        }
        if let Some((k, rpc)) = self.watch {
            if self.issued_at.is_none() && self.m.rpcs()[k].get(rpc).is_some() {
                self.issued_at = Some(now);
            }
        }
    }
}

/// A two-kernel machine driven by its own simulator, one program per
/// kernel starting at its home.
fn spy(
    plan: FaultPlan,
    pop: PopcornParams,
    programs: Vec<Box<dyn Program>>,
) -> (Spy, Simulator<PopEvent>) {
    let topo = Topology::new(2, 4);
    let machine = Machine::new(topo, HwParams::default());
    let parts = topo.partition(2);
    let locations = parts.iter().map(|p| p[0]).collect();
    let msg = MsgParams {
        faults: plan,
        ..MsgParams::default()
    };
    let fabric = Fabric::new(&machine, locations, msg);
    let kernels = parts
        .into_iter()
        .enumerate()
        .map(|(i, cores)| {
            Kernel::new(
                KernelId(i as u16),
                cores,
                OsParams::default(),
                machine.clone(),
            )
        })
        .collect();
    let mut m = PopcornMachine::new(kernels, fabric, machine, pop);
    let mut sim = Simulator::new();
    for (home, program) in programs.into_iter().enumerate() {
        let (_group, core) = m.create_group(home, program, SimTime::ZERO);
        sim.schedule(
            SimTime::ZERO,
            OsEvent::CoreRun {
                kernel: home as u16,
                core,
            },
        );
    }
    let spy = Spy {
        m,
        timeouts: Vec::new(),
        deadlines_fired: 0,
        last_non_ack: SimTime::ZERO,
        watch: None,
        issued_at: None,
    };
    (spy, sim)
}

/// Maps and writes a page on kernel 0, migrates to kernel 1 and reads it
/// back: the read is a request/response conversation with kernel 0.
#[derive(Debug)]
struct WriteMigrateRead {
    state: u8,
    addr: VAddr,
}

impl Program for WriteMigrateRead {
    fn step(&mut self, r: Resume, _env: &ProgEnv) -> Op {
        self.state += 1;
        match self.state {
            1 => Op::Syscall(SyscallReq::Mmap { len: 4096 }),
            2 => {
                let Resume::Sys(res) = r else { panic!("mmap") };
                self.addr = VAddr(res.expect_val("mmap"));
                Op::Store(self.addr, 0xBEEF)
            }
            3 => Op::Syscall(SyscallReq::Migrate(MigrateTarget::Kernel(KernelId(1)))),
            4 => Op::Load(self.addr),
            _ => Op::Exit(0),
        }
    }
}

fn write_migrate_read() -> Vec<Box<dyn Program>> {
    vec![Box::new(WriteMigrateRead {
        state: 0,
        addr: VAddr(0),
    })]
}

/// One attempt per message: a dropped response is abandoned at once, so
/// only the requester's deadline can end the wait.
fn one_shot(deadline_ns: u64) -> PopcornParams {
    PopcornParams {
        retx_max_attempts: 1,
        rpc_deadline_ns: deadline_ns,
        ..PopcornParams::default()
    }
}

/// Runs the program with the `nth` message on kernel 0 → 1 dropped.
fn run_dropping(nth: u64, deadline_ns: u64, watch: Option<(usize, popcorn_msg::RpcId)>) -> Spy {
    let plan = FaultPlan::none().with_drop_nth(KernelId(0), KernelId(1), nth);
    let (mut s, mut sim) = spy(plan, one_shot(deadline_ns), write_migrate_read());
    s.watch = watch;
    assert_eq!(sim.run(&mut s), StopCondition::QueueEmpty);
    s
}

#[test]
fn unanswered_request_times_out_exactly_its_deadline_after_issue() {
    const D: u64 = 100_000_000;
    // Find a dropped message whose loss leaves a request unanswered (the
    // message flow is deterministic; probing keeps the test free of
    // hard-coded protocol message counts).
    let (nth, first) = (1..=16u64)
        .map(|nth| (nth, run_dropping(nth, D, None)))
        .find(|(_, s)| !s.timeouts.is_empty())
        .expect("some lost response must leave its request to the deadline");
    assert_eq!(first.timeouts.len(), 1);
    assert_eq!(first.m.stats.rpc_timeouts.get(), 1);
    assert_eq!(
        first.deadlines_fired, 1,
        "only the unanswered deadline fires"
    );
    let (fired, kernel) = first.timeouts[0];

    // Learn which request it was from a rerun that stops right before the
    // deadline fires, then watch that request being issued.
    let plan = FaultPlan::none().with_drop_nth(KernelId(0), KernelId(1), nth);
    let (mut s, mut sim) = spy(plan, one_shot(D), write_migrate_read());
    let before = fired - SimTime::from_nanos(1);
    assert_eq!(
        sim.run_until(&mut s, before, u64::MAX),
        StopCondition::HorizonReached
    );
    assert_eq!(s.m.rpcs()[kernel].outstanding(), 1);
    let rpc = (1..=64)
        .map(popcorn_msg::RpcId)
        .find(|&id| s.m.rpcs()[kernel].get(id).is_some())
        .expect("the unanswered request is outstanding");
    assert!(
        s.m.rpcs()[kernel].timer(rpc).is_some(),
        "its deadline is armed and cancellable"
    );
    let watched = run_dropping(nth, D, Some((kernel, rpc)));
    let issued = watched.issued_at.expect("the request was issued");
    assert_eq!(watched.timeouts, first.timeouts, "reruns are deterministic");

    // The deadline fires exactly `D` after the request was issued. The
    // request is issued inside the core run that switches the migrated
    // thread in on kernel 1: one context switch after that event, the load
    // faults and registers the request.
    let switch_in = SimTime::from_nanos(OsParams::default().context_switch_ns);
    assert_eq!(fired, issued + switch_in + SimTime::from_nanos(D));
    // And moving the deadline moves the timeout by exactly as much.
    for extra in [1, 12_345, 7_000_000] {
        let later = run_dropping(nth, D + extra, None);
        assert_eq!(
            later.timeouts,
            vec![(fired + SimTime::from_nanos(extra), kernel)],
            "deadline {} ns",
            D + extra
        );
    }
}

#[test]
fn answered_requests_leave_no_deadline_in_the_queue() {
    let plan = FaultPlan::uniform_drop(1234, 0.05);
    let programs: Vec<Box<dyn Program>> = vec![
        micro::page_bounce(4, 2, 200),
        Box::new(micro::MigrationPingPong::new(10)),
    ];
    let (mut s, mut sim) = spy(plan, PopcornParams::default(), programs);
    assert_eq!(sim.run(&mut s), StopCondition::QueueEmpty);
    let stats = &s.m.stats;
    assert!(stats.retransmits.get() >= 1, "the drop plan bit");
    let issued: u64 = s.m.rpcs().iter().map(|e| e.issued()).sum();
    assert!(issued >= 40, "{issued} RPCs issued");
    assert!(s.m.rpcs().iter().all(|e| e.outstanding() == 0));
    assert!(s.timeouts.is_empty());
    assert_eq!(
        s.deadlines_fired, 0,
        "every answered request cancelled its deadline"
    );
    // Only channel acks trail the last real event: the queue drains
    // within a message latency, not a 100 ms deadline, after it.
    let trail = sim.now() - s.last_non_ack;
    assert!(
        trail < SimTime::from_nanos(1_000_000),
        "trailed by {trail:?}"
    );
}

#[test]
#[should_panic(expected = "257 kernels exceed KernelSet capacity (256)")]
fn builder_rejects_more_kernels_than_a_kernel_set_holds() {
    PopcornOs::builder()
        .topology(Topology::new(1, 257))
        .kernels(257)
        .build();
}

#[test]
#[should_panic(expected = "257 kernels exceed KernelSet capacity (256)")]
fn machine_rejects_more_kernels_than_a_kernel_set_holds() {
    let topo = Topology::new(1, 257);
    let machine = Machine::new(topo, HwParams::default());
    let parts = topo.partition(257);
    let fabric = Fabric::new(
        &machine,
        parts.iter().map(|p| p[0]).collect(),
        MsgParams::default(),
    );
    let kernels = parts
        .into_iter()
        .enumerate()
        .map(|(i, cores)| {
            Kernel::new(
                KernelId(i as u16),
                cores,
                OsParams::default(),
                machine.clone(),
            )
        })
        .collect();
    PopcornMachine::new(kernels, fabric, machine, PopcornParams::default());
}
