//! The traced loop: a second event loop, built only from public API,
//! that times each layer from outside.
//!
//! It assembles the same `PopcornMachine` that `PopcornOsBuilder::build`
//! does, owns its own `Simulator<PopEvent>`, and for every event mirrors
//! `osmodel::dispatch`: a `CoreRun` times `Kernel::run_core` apart from the
//! `OsMachine` hook its outcome selects, and a `Custom` delivery is timed
//! under its `ProtoMsg::protocol()` family. The one step of
//! `PopcornMachine`'s own `Handler` it leaves out is the crate-private
//! crash interception, which is a pass-through unless crashes are planned;
//! no workload plans one. The fidelity guard in `main` checks that this loop
//! reproduces the untraced run exactly.

use std::time::{Duration, Instant};

use popcorn_core::proto::Protocol;
use popcorn_core::{PopEvent, PopcornMachine};
use popcorn_hw::Machine;
use popcorn_kernel::kernel::{Kernel, RunOutcome};
use popcorn_kernel::osmodel::{self, ensure_core_run, OsEvent, OsMachine, DEFAULT_EVENT_BUDGET};
use popcorn_kernel::program::{Resume, SysResult};
use popcorn_msg::{Fabric, KernelId};
use popcorn_sim::{Handler, Scheduler, SimTime, Simulator, StopCondition};

use crate::workloads::Workload;

/// Host time and counts gathered at each layer boundary during one run.
#[derive(Debug, Default)]
pub struct Spans {
    pub run_core: Duration,
    pub run_core_calls: u64,
    pub busy_reruns: u64,
    pub idle_runs: u64,
    /// `CoreRun` events at the same virtual instant as that core's
    /// previous `CoreRun`.
    pub core_run_repeats: u64,
    pub syscall: Duration,
    pub fault: Duration,
    pub sync: Duration,
    pub exit: Duration,
    pub timer_wake: Duration,
    /// Custom deliveries per protocol family, indexed like `Protocol::ALL`.
    pub delivery: [Duration; 6],
    pub deliveries: [u64; 6],
}

impl Spans {
    /// Sum of every timed handler span (the run minus this is the engine's
    /// self time).
    pub fn handlers(&self) -> Duration {
        self.run_core
            + self.syscall
            + self.fault
            + self.sync
            + self.exit
            + self.timer_wake
            + self.delivery.iter().sum::<Duration>()
    }
}

/// A `PopcornMachine` behind a timing handler.
struct Traced {
    m: PopcornMachine,
    spans: Spans,
    /// Virtual time of each core's previous `CoreRun` (indexed by core id).
    last_run: Vec<u64>,
}

fn family_index(p: Protocol) -> usize {
    Protocol::ALL
        .iter()
        .position(|&q| q == p)
        .expect("every protocol is listed in Protocol::ALL")
}

impl Handler<PopEvent> for Traced {
    fn handle(&mut self, now: SimTime, ev: PopEvent, sched: &mut Scheduler<'_, PopEvent>) {
        let s = &mut self.spans;
        match ev {
            OsEvent::CoreRun { kernel, core } => {
                let ki = kernel as usize;
                let last = &mut self.last_run[core.0 as usize];
                if *last == now.as_nanos() {
                    s.core_run_repeats += 1;
                }
                *last = now.as_nanos();
                let t0 = Instant::now();
                let outcome = self.m.kernels_mut()[ki].run_core(now, core);
                let t1 = Instant::now();
                s.run_core += t1 - t0;
                s.run_core_calls += 1;
                match outcome {
                    RunOutcome::Idle => s.idle_runs += 1,
                    RunOutcome::Busy { until } => {
                        s.busy_reruns += 1;
                        ensure_core_run(sched, kernel, core, until);
                    }
                    RunOutcome::Preempted { at } => ensure_core_run(sched, kernel, core, at),
                    RunOutcome::Syscall { tid, req, at } => {
                        self.m.handle_syscall(sched, ki, core, tid, req, at);
                        s.syscall += t1.elapsed();
                    }
                    RunOutcome::SyncOp { tid, addr, op, at } => {
                        self.m.handle_sync_op(sched, ki, core, tid, addr, op, at);
                        s.sync += t1.elapsed();
                    }
                    RunOutcome::Fault {
                        tid,
                        page,
                        write,
                        no_vma,
                        at,
                    } => {
                        self.m
                            .handle_fault(sched, ki, core, tid, page, write, no_vma, at);
                        s.fault += t1.elapsed();
                    }
                    RunOutcome::Exited { tid, code, at } => {
                        self.m.handle_exit(sched, ki, core, tid, code, at);
                        ensure_core_run(sched, kernel, core, at);
                        s.exit += t1.elapsed();
                    }
                }
            }
            OsEvent::TimerWake { kernel, tid } => {
                let t0 = Instant::now();
                let k = &mut self.m.kernels_mut()[kernel as usize];
                if let Some(task) = k.task_mut(tid) {
                    task.resume = Resume::Sys(SysResult::Val(0));
                    let core = k.wake(tid, now);
                    ensure_core_run(sched, kernel, core, now);
                }
                s.timer_wake += t0.elapsed();
            }
            OsEvent::Custom(x) => {
                let f = family_index(x.payload.protocol());
                let t0 = Instant::now();
                self.m.handle_custom(sched, x, now);
                s.delivery[f] += t0.elapsed();
                s.deliveries[f] += 1;
            }
        }
    }
}

/// A finished traced run.
#[derive(Debug)]
pub struct TracedRun {
    pub machine: PopcornMachine,
    pub spans: Spans,
    pub run: Duration,
    pub events: u64,
    pub stop: StopCondition,
    pub now: SimTime,
}

/// Builds the machine the way `PopcornOsBuilder::build` does, loads the
/// programs the way `PopcornOs::load` does, and runs it under the timing
/// handler with the default event budget.
pub fn run(w: Workload, seed: u64) -> TracedRun {
    let c = w.config(seed);
    c.hw.validate().expect("hardware parameters are valid");
    c.os.validate().expect("OS parameters are valid");
    c.msg.validate().expect("message parameters are valid");
    c.pop.validate().expect("Popcorn parameters are valid");
    let machine = Machine::new(c.topology, c.hw);
    let kernel_count = c
        .clustering
        .map_or(c.kernels, |cl| cl.kernel_count(c.topology));
    let parts = c.topology.partition(kernel_count);
    let locations: Vec<_> = parts.iter().map(|p| p[0]).collect();
    let fabric = Fabric::new(&machine, locations, c.msg);
    let kernels: Vec<Kernel> = parts
        .into_iter()
        .enumerate()
        .map(|(i, cores)| Kernel::new(KernelId(i as u16), cores, c.os.clone(), machine.clone()))
        .collect();
    let mut m = PopcornMachine::new(kernels, fabric, machine, c.pop);
    let mut sim: Simulator<PopEvent> = Simulator::new();
    for (i, program) in w.programs().into_iter().enumerate() {
        let home = i % kernel_count as usize;
        let (_group, core) = m.create_group(home, program, sim.now());
        sim.schedule(
            sim.now(),
            OsEvent::CoreRun {
                kernel: home as u16,
                core,
            },
        );
        for (at, msg) in m.policy_tick_starts(sim.now()) {
            sim.schedule(at, OsEvent::Custom(msg));
        }
        for (at, msg) in m.crash_detect_starts() {
            sim.schedule(at, OsEvent::Custom(msg));
        }
    }
    let mut t = Traced {
        m,
        spans: Spans::default(),
        last_run: vec![u64::MAX; c.topology.num_cores() as usize],
    };
    let start = Instant::now();
    let stop = sim.run_until(&mut t, SimTime::MAX, DEFAULT_EVENT_BUDGET);
    let run = start.elapsed();
    TracedRun {
        machine: t.m,
        spans: t.spans,
        run,
        events: sim.events_processed(),
        stop,
        now: sim.now(),
    }
}

impl TracedRun {
    /// The correctness checks the untraced run gets: drained queue, no
    /// stuck task, every thread exited, and the invariant audit.
    pub fn check(&self, w: Workload) -> Result<(), String> {
        let kernels = self.machine.kernels();
        if self.stop != StopCondition::QueueEmpty {
            return Err(format!("traced run stopped at {:?}", self.stop));
        }
        let stuck = osmodel::stuck_tasks(kernels);
        if !stuck.is_empty() {
            return Err(format!("traced run left stuck tasks {stuck:?}"));
        }
        let exited: u64 = kernels.iter().map(|k| k.stats.exited.get()).sum();
        if exited != w.expected_exits() {
            return Err(format!(
                "traced run exited {exited} threads, expected {}",
                w.expected_exits()
            ));
        }
        if self.machine.params().check_invariants {
            popcorn_core::invariants::check(&self.machine, self.now)
                .map_err(|v| format!("traced run broke invariants: {}", v.join("; ")))?;
        }
        Ok(())
    }
}
