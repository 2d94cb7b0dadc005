//! A kernel instance: per-core scheduling, task lifecycle, memory access
//! execution, and the interaction points where an OS model takes over
//! (syscalls, faults, synchronization ops).
//!
//! `Kernel` is the *mechanism* shared by all three OS models. It never
//! touches the message fabric or another kernel — cross-kernel policy lives
//! in `popcorn-core` and `popcorn-baselines`. The OS model drives each core
//! by calling [`Kernel::run_core`], which executes the current thread's
//! operations in virtual time until something needs OS attention and
//! reports a [`RunOutcome`].

use std::collections::VecDeque;

use popcorn_hw::{CoreId, Machine};
use popcorn_msg::KernelId;
use popcorn_sim::{Counter, FastMap, Histogram, SimTime};

use crate::mm::{AccessCheck, Mm};
use crate::params::OsParams;
use crate::program::{Op, ProgEnv, Resume, RmwOp, SysResult, SyscallReq};
use crate::task::{BlockReason, Task, TaskState, TaskStats};
use crate::types::{GroupId, PageNo, Tid, VAddr};

/// Scheduling state of one core.
#[derive(Debug)]
struct CoreState {
    id: CoreId,
    current: Option<Tid>,
    runqueue: VecDeque<Tid>,
    busy_until: SimTime,
    slice_end: SimTime,
}

impl CoreState {
    fn new(id: CoreId) -> Self {
        CoreState {
            id,
            current: None,
            runqueue: VecDeque::new(),
            busy_until: SimTime::ZERO,
            slice_end: SimTime::ZERO,
        }
    }

    fn load(&self) -> usize {
        self.runqueue.len() + usize::from(self.current.is_some())
    }
}

/// What [`Kernel::run_core`] found to do.
#[derive(Debug)]
pub enum RunOutcome {
    /// Nothing to do on this poll: either no runnable task (the core
    /// sleeps until a wake kicks it), or a stale poll on a core that is
    /// still occupied — whoever occupies it kicks it when it frees (see
    /// [`crate::osmodel::ensure_core_run`]), so the poll schedules nothing.
    Idle,
    /// The running thread yielded to the event loop without giving up the
    /// core — the batching bound, or a sole runner's compute slice ending
    /// — so events due before `until` get seen; re-poll at `until`.
    Busy {
        /// When the core resumes.
        until: SimTime,
    },
    /// The time slice expired and another thread was switched in.
    Preempted {
        /// When the switched-in thread starts running.
        at: SimTime,
    },
    /// The current thread trapped into a syscall; the OS model must handle
    /// it (the task is `InSyscall`, still current on the core).
    Syscall {
        /// Calling thread.
        tid: Tid,
        /// The request.
        req: SyscallReq,
        /// Trap completion time (request is live from here).
        at: SimTime,
    },
    /// The current thread issued an atomic RMW on a synchronization word;
    /// the OS model's sync engine must produce the old value and cost.
    SyncOp {
        /// Calling thread.
        tid: Tid,
        /// Word address.
        addr: VAddr,
        /// The operation.
        op: RmwOp,
        /// When the op was issued.
        at: SimTime,
    },
    /// The current thread took a page fault the OS model must resolve
    /// (absent page, write to a read-shared page, or an access with no
    /// local VMA). The task stays current with the faulting op pending.
    Fault {
        /// Faulting thread.
        tid: Tid,
        /// Faulting page.
        page: PageNo,
        /// Whether write access is required.
        write: bool,
        /// No local VMA covers the address. On SMP this is a segfault; on
        /// the replicated kernel the VMA may simply not be replicated yet
        /// (the paper's on-demand VMA retrieval).
        no_vma: bool,
        /// Fault time.
        at: SimTime,
    },
    /// The current thread exited (voluntarily or by segfault).
    Exited {
        /// The thread.
        tid: Tid,
        /// Exit status (139 for a segfault, mirroring SIGSEGV).
        code: i32,
        /// Completion time of exit teardown.
        at: SimTime,
    },
}

/// Aggregated kernel-side statistics.
#[derive(Debug, Default)]
pub struct KernelStats {
    /// Syscalls trapped.
    pub syscalls: Counter,
    /// Page faults raised to the OS model.
    pub faults: Counter,
    /// Context switches performed.
    pub ctx_switches: Counter,
    /// Tasks spawned on this kernel.
    pub spawned: Counter,
    /// Tasks exited on this kernel.
    pub exited: Counter,
    /// Segmentation faults (accesses outside any VMA).
    pub segv: Counter,
    /// Scheduling latency: wake-to-run (recorded at dispatch).
    pub sched_latency: Histogram,
}

/// One kernel instance owning a set of cores.
#[derive(Debug)]
pub struct Kernel {
    id: KernelId,
    cores: Vec<CoreState>,
    core_index: FastMap<CoreId, usize>,
    tasks: FastMap<Tid, Task>,
    mms: FastMap<GroupId, Mm>,
    next_local_tid: u32,
    params: OsParams,
    machine: Machine,
    mem_access: SimTime,
    /// Rotating tie-breaker for spawn placement (so threads that block
    /// immediately still spread across cores).
    spawn_cursor: usize,
    /// Statistics.
    pub stats: KernelStats,
}

impl Kernel {
    /// Creates a kernel owning `cores`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty, contains duplicates or out-of-topology
    /// ids, or `params` fail validation.
    pub fn new(id: KernelId, cores: Vec<CoreId>, params: OsParams, machine: Machine) -> Self {
        assert!(!cores.is_empty(), "kernel needs at least one core");
        params.validate().expect("invalid OS parameters");
        let mut core_index = FastMap::default();
        for (i, &c) in cores.iter().enumerate() {
            assert!(machine.topology().contains(c), "{c} not in topology");
            assert!(core_index.insert(c, i).is_none(), "duplicate core {c}");
        }
        let mem_access = SimTime::from_nanos(machine.params().llc_hit_ns);
        Kernel {
            id,
            cores: cores.into_iter().map(CoreState::new).collect(),
            core_index,
            tasks: FastMap::default(),
            mms: FastMap::default(),
            next_local_tid: 1,
            params,
            machine,
            mem_access,
            spawn_cursor: 0,
            stats: KernelStats::default(),
        }
    }

    /// This kernel's id.
    pub fn id(&self) -> KernelId {
        self.id
    }

    /// The cores this kernel owns, in configuration order.
    pub fn cores(&self) -> Vec<CoreId> {
        self.cores.iter().map(|c| c.id).collect()
    }

    /// Number of cores this kernel owns (at least one).
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The configured software-cost parameters.
    pub fn params(&self) -> &OsParams {
        &self.params
    }

    /// The machine model.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Allocates a fresh, globally unique tid originating at this kernel.
    pub fn alloc_tid(&mut self) -> Tid {
        let t = Tid::new(self.id, self.next_local_tid);
        self.next_local_tid += 1;
        t
    }

    /// Registers an address-space replica for a group hosted here.
    ///
    /// # Panics
    ///
    /// Panics if the group already has a replica on this kernel.
    pub fn adopt_mm(&mut self, mm: Mm) {
        let group = mm.group();
        let prev = self.mms.insert(group, mm);
        assert!(prev.is_none(), "{group} already has an mm replica here");
    }

    /// Whether a replica for `group` exists here.
    pub fn has_mm(&self, group: GroupId) -> bool {
        self.mms.contains_key(&group)
    }

    /// The replica for `group`.
    ///
    /// # Panics
    ///
    /// Panics if no replica exists.
    pub fn mm(&self, group: GroupId) -> &Mm {
        self.mms
            .get(&group)
            .unwrap_or_else(|| panic!("no mm replica for {group} on {}", self.id))
    }

    /// Mutable access to the replica for `group`.
    ///
    /// # Panics
    ///
    /// Panics if no replica exists.
    pub fn mm_mut(&mut self, group: GroupId) -> &mut Mm {
        let id = self.id;
        self.mms
            .get_mut(&group)
            .unwrap_or_else(|| panic!("no mm replica for {group} on {id}"))
    }

    /// Drops the replica for `group` (group exit), returning it.
    pub fn drop_mm(&mut self, group: GroupId) -> Option<Mm> {
        self.mms.remove(&group)
    }

    /// A task by id.
    pub fn task(&self, tid: Tid) -> Option<&Task> {
        self.tasks.get(&tid)
    }

    /// A task by id, mutably.
    pub fn task_mut(&mut self, tid: Tid) -> Option<&mut Task> {
        self.tasks.get_mut(&tid)
    }

    /// Iterates hosted task ids in deterministic order.
    pub fn task_ids(&self) -> Vec<Tid> {
        let mut v: Vec<_> = self.tasks.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The least-loaded core; ties break round-robin so that threads that
    /// block immediately (and stop counting as load) still spread out.
    pub fn least_loaded_core(&mut self) -> CoreId {
        let n = self.cores.len();
        let cursor = self.spawn_cursor;
        let (i, id) = self
            .cores
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (c.load(), (i + n - cursor % n) % n))
            .map(|(i, c)| (i, c.id))
            .expect("kernel has cores");
        self.spawn_cursor = i + 1;
        id
    }

    /// Creates a ready task and enqueues it. Returns the core to kick.
    ///
    /// # Panics
    ///
    /// Panics if the tid already exists, the core (when given) is not owned
    /// by this kernel, or the group has no mm replica here.
    pub fn spawn(
        &mut self,
        tid: Tid,
        group: GroupId,
        program: Box<dyn crate::program::Program>,
        core: Option<CoreId>,
        now: SimTime,
    ) -> CoreId {
        assert!(self.has_mm(group), "spawn before mm replica for {group}");
        assert!(!self.tasks.contains_key(&tid), "{tid} already exists");
        let core = core.unwrap_or_else(|| self.least_loaded_core());
        let ci = *self
            .core_index
            .get(&core)
            .unwrap_or_else(|| panic!("{core} not owned by {}", self.id));
        let mut task = Task::new(tid, group, program, core);
        task.woke_at = Some(now);
        self.tasks.insert(tid, task);
        self.cores[ci].runqueue.push_back(tid);
        self.stats.spawned.incr();
        core
    }

    fn core_state_mut(&mut self, core: CoreId) -> &mut CoreState {
        let id = self.id;
        let ci = *self
            .core_index
            .get(&core)
            .unwrap_or_else(|| panic!("{core} not owned by {id}"));
        &mut self.cores[ci]
    }

    fn core_state(&self, core: CoreId) -> &CoreState {
        let ci = *self
            .core_index
            .get(&core)
            .unwrap_or_else(|| panic!("{core} not owned by {}", self.id));
        &self.cores[ci]
    }

    /// Current runnable load (running + queued) of a core.
    pub fn core_load(&self, core: CoreId) -> usize {
        self.core_state(core).load()
    }

    /// Total runnable load across all cores (for machine-wide placement).
    pub fn total_load(&self) -> usize {
        self.cores.iter().map(CoreState::load).sum()
    }

    /// Executes the given core from `now` until something needs the OS
    /// model's attention (see [`RunOutcome`]).
    pub fn run_core(&mut self, now: SimTime, core: CoreId) -> RunOutcome {
        // Split the borrow once: the core, the current task and its
        // group's address space are each looked up once per call, not once
        // per op.
        let Kernel {
            id,
            cores,
            core_index,
            tasks,
            mms,
            params,
            machine,
            mem_access,
            stats,
            ..
        } = self;
        let mem_access = *mem_access;
        let ci = *core_index
            .get(&core)
            .unwrap_or_else(|| panic!("{core} not owned by {id}"));
        let cs = &mut cores[ci];

        // A stale poll: whoever occupies the core until `busy_until` has
        // already scheduled the kick that ends the occupation, so this one
        // has nothing to do and must not re-arm itself.
        if cs.busy_until > now {
            return RunOutcome::Idle;
        }
        let mut t = now;

        // Dispatch a thread if the core is empty.
        let task = match cs.current {
            Some(tid) => tasks.get_mut(&tid).expect("current task exists"),
            None => {
                let Some(next) = cs.runqueue.pop_front() else {
                    return RunOutcome::Idle;
                };
                t += params.context_switch();
                stats.ctx_switches.incr();
                cs.current = Some(next);
                cs.slice_end = t + params.quantum();
                let task = tasks.get_mut(&next).expect("queued task exists");
                if let Some(woke) = task.woke_at.take() {
                    stats.sched_latency.record_time(t.saturating_sub(woke));
                }
                task.state = TaskState::Running;
                task.stats.ctx_switches += 1;
                task
            }
        };
        let tid = task.tid;
        debug_assert!(
            matches!(task.state, TaskState::Running),
            "current task {tid} not Running: {:?}",
            task.state
        );
        let mut mm = mms.get_mut(&task.group);

        let mut ops = 0u32;
        loop {
            // Slice renewal for a sole runner: nobody to switch to.
            if t >= cs.slice_end && cs.runqueue.is_empty() {
                cs.slice_end = t + params.quantum();
            }
            // Preemption check between ops.
            if t >= cs.slice_end && !cs.runqueue.is_empty() {
                task.state = TaskState::Ready;
                task.woke_at = Some(t);
                cs.current = None;
                cs.runqueue.push_back(tid);
                cs.busy_until = t;
                return RunOutcome::Preempted { at: t };
            }
            // Batching bound: yield to the event loop without modelling cost.
            if ops >= params.max_batched_ops {
                cs.busy_until = t;
                return RunOutcome::Busy { until: t };
            }
            ops += 1;

            // Take the pending (faulted) op if any, else step the program.
            let op = match task.pending.take() {
                Some(op) => op,
                None => {
                    let env = ProgEnv {
                        tid,
                        core,
                        kernel: *id,
                        now: t,
                    };
                    let resume = std::mem::replace(&mut task.resume, Resume::Done);
                    task.program
                        .as_mut()
                        .unwrap_or_else(|| panic!("{tid} has no program (shadow ran?)"))
                        .step(resume, &env)
                }
            };

            match op {
                Op::Compute(cycles) => {
                    let dt = machine.cycles(cycles);
                    let slice_end = cs.slice_end;
                    if t + dt > slice_end && dt > SimTime::ZERO {
                        // Compute is preemptible: run to the slice end and
                        // park the remainder as a pending op. The core
                        // re-evaluates every quantum, so a 50 ms chunk can
                        // neither monopolize the core nor hide a newly
                        // woken thread behind pre-charged busy time.
                        let available = slice_end.saturating_sub(t);
                        let consumed_cycles = ((cycles as u128 * available.as_nanos() as u128)
                            / dt.as_nanos().max(1) as u128)
                            as u64;
                        let remaining = cycles - consumed_cycles.min(cycles);
                        if remaining > 0 {
                            task.pending = Some(Op::Compute(remaining));
                            task.stats.cpu_time += available;
                            t = slice_end;
                            if cs.runqueue.is_empty() {
                                // Sole runner: yield to the event loop so
                                // arrivals within this quantum get seen.
                                cs.busy_until = t;
                                return RunOutcome::Busy { until: t };
                            }
                            continue; // the loop head performs the preemption
                        }
                    }
                    t += dt;
                    task.stats.cpu_time += dt;
                    task.resume = Resume::Done;
                }
                Op::Load(addr) | Op::Store(addr, _) => {
                    let write = matches!(op, Op::Store(..));
                    let mm = mm.as_deref_mut().expect("task group has mm");
                    match mm.check_access(addr, write) {
                        AccessCheck::Ok => {
                            t += mem_access;
                            task.resume = if let Op::Store(addr, val) = op {
                                mm.write_word(addr, val);
                                Resume::Done
                            } else {
                                Resume::Value(mm.read_word(addr))
                            };
                            task.stats.cpu_time += mem_access;
                        }
                        AccessCheck::NeedPage { page, write } => {
                            task.pending = Some(op);
                            task.stats.faults += 1;
                            stats.faults.incr();
                            cs.busy_until = t;
                            return RunOutcome::Fault {
                                tid,
                                page,
                                write,
                                no_vma: false,
                                at: t,
                            };
                        }
                        AccessCheck::NoVma => {
                            // No local VMA. The OS model decides whether
                            // this is a segfault (SMP) or a VMA to fetch
                            // from the home kernel (replicated kernel).
                            task.pending = Some(op);
                            task.stats.faults += 1;
                            stats.faults.incr();
                            cs.busy_until = t;
                            return RunOutcome::Fault {
                                tid,
                                page: addr.page(),
                                write,
                                no_vma: true,
                                at: t,
                            };
                        }
                    }
                }
                Op::AtomicRmw(addr, rmw) => {
                    task.state = TaskState::InSyscall;
                    cs.busy_until = t;
                    return RunOutcome::SyncOp {
                        tid,
                        addr,
                        op: rmw,
                        at: t,
                    };
                }
                Op::Syscall(req) => {
                    t += params.syscall_entry();
                    task.state = TaskState::InSyscall;
                    task.stats.syscalls += 1;
                    stats.syscalls.incr();
                    cs.busy_until = t;
                    return RunOutcome::Syscall { tid, req, at: t };
                }
                Op::Exit(code) => {
                    t += SimTime::from_nanos(params.exit_ns);
                    task.state = TaskState::Exited(code);
                    task.program = None;
                    cs.current = None;
                    cs.busy_until = t;
                    stats.exited.incr();
                    return RunOutcome::Exited { tid, code, at: t };
                }
            }
        }
    }

    /// Completes a syscall handled by the OS model: the task resumes on its
    /// core at `done` with `result`. Returns the core to kick.
    ///
    /// # Panics
    ///
    /// Panics if the task is not `InSyscall` and current on its core.
    pub fn finish_syscall(&mut self, tid: Tid, result: SysResult, done: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        assert!(
            matches!(task.state, TaskState::InSyscall),
            "{tid} not in syscall"
        );
        task.state = TaskState::Running;
        task.resume = Resume::Sys(result);
        let core = task.core;
        let cs = self.core_state_mut(core);
        debug_assert_eq!(cs.current, Some(tid), "syscalling task not current");
        cs.busy_until = cs.busy_until.max(done);
        core
    }

    /// Completes an atomic sync op: the task resumes with the old value.
    /// Returns the core to kick.
    ///
    /// # Panics
    ///
    /// Panics if the task is not `InSyscall` (the state sync ops park in).
    pub fn finish_sync_op(&mut self, tid: Tid, old: u64, done: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        assert!(
            matches!(task.state, TaskState::InSyscall),
            "{tid} not mid sync op"
        );
        task.state = TaskState::Running;
        task.resume = Resume::Value(old);
        let core = task.core;
        let cs = self.core_state_mut(core);
        cs.busy_until = cs.busy_until.max(done);
        core
    }

    /// Completes a fault resolved *synchronously on the core* (e.g. a local
    /// zero-fill): the task stays current and retries its pending op at
    /// `done`. Returns the core to kick.
    pub fn finish_fault_inline(&mut self, tid: Tid, done: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        debug_assert!(matches!(task.state, TaskState::Running));
        let core = task.core;
        let cs = self.core_state_mut(core);
        debug_assert_eq!(cs.current, Some(tid), "faulted task not current");
        cs.busy_until = cs.busy_until.max(done);
        core
    }

    /// Blocks the task that is current on `core` (after a `Syscall`,
    /// `SyncOp` or `Fault` outcome), freeing the core for other threads.
    /// Returns the core to kick so it can pick up queued work.
    ///
    /// # Panics
    ///
    /// Panics if the task is not current on its core.
    pub fn block_current(&mut self, tid: Tid, reason: BlockReason, now: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        task.state = TaskState::Blocked(reason);
        let core = task.core;
        let cs = self.core_state_mut(core);
        assert_eq!(cs.current, Some(tid), "blocking task that is not current");
        cs.current = None;
        cs.busy_until = cs.busy_until.max(now);
        core
    }

    /// Makes a blocked task runnable again; it re-enters its core's run
    /// queue at `now` (plus wakeup software cost to the waker, charged by
    /// the OS model). Returns the core to kick.
    ///
    /// # Panics
    ///
    /// Panics if the task is not blocked.
    pub fn wake(&mut self, tid: Tid, now: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        assert!(
            matches!(task.state, TaskState::Blocked(_)),
            "waking non-blocked {tid} ({:?})",
            task.state
        );
        task.state = TaskState::Ready;
        task.woke_at = Some(now);
        // A woken task resumes the retry of its pending op (if any) or its
        // stored resume value set by the waker.
        let core = task.core;
        self.core_state_mut(core).runqueue.push_back(tid);
        core
    }

    /// Moves the current task of `core` to the back of its run queue
    /// (`sched_yield`). Returns the core to kick.
    pub fn yield_current(&mut self, tid: Tid, now: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        assert!(
            matches!(task.state, TaskState::InSyscall),
            "yield outside syscall"
        );
        task.state = TaskState::Ready;
        task.resume = Resume::Sys(SysResult::Val(0));
        task.woke_at = Some(now);
        let core = task.core;
        let cs = self.core_state_mut(core);
        assert_eq!(cs.current, Some(tid));
        cs.current = None;
        cs.runqueue.push_back(tid);
        cs.busy_until = cs.busy_until.max(now);
        core
    }

    /// Reassigns a (non-running) task to another core of this kernel
    /// (intra-kernel migration, as SMP `sched_setaffinity` would do).
    ///
    /// # Panics
    ///
    /// Panics if the task is currently on a core or the target is not owned.
    pub fn reassign_core(&mut self, tid: Tid, core: CoreId) {
        assert!(self.core_index.contains_key(&core), "{core} not owned");
        let task = self.tasks.get_mut(&tid).expect("task exists");
        assert!(
            !matches!(task.state, TaskState::Running),
            "cannot reassign a running task"
        );
        let old = task.core;
        task.core = core;
        // If it was queued on the old core, move the queue entry.
        let old_ci = self.core_index[&old];
        if let Some(pos) = self.cores[old_ci].runqueue.iter().position(|&t| t == tid) {
            self.cores[old_ci].runqueue.remove(pos);
            let new_ci = self.core_index[&core];
            self.cores[new_ci].runqueue.push_back(tid);
        }
    }

    /// Extracts a thread for migration: takes its program, context and
    /// pending op, and leaves a dormant shadow behind (the paper's
    /// mechanism for cheap back-migration). The task must be `InSyscall`
    /// (it called `migrate`) and current on its core.
    ///
    /// Returns `(program, context, stats, pending_op)`. The pending op (if
    /// any) travels with the thread so an aborted migration can reinstate
    /// it verbatim at the origin — same carry mechanism as
    /// [`Kernel::extract_unscheduled_for_migration`].
    #[allow(clippy::type_complexity)]
    pub fn extract_for_migration(
        &mut self,
        tid: Tid,
        to: KernelId,
        now: SimTime,
    ) -> (
        Box<dyn crate::program::Program>,
        crate::types::CpuContext,
        TaskStats,
        Option<Op>,
    ) {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        assert!(
            matches!(task.state, TaskState::InSyscall),
            "migration outside syscall"
        );
        let program = task.program.take().expect("migrating shadow");
        let ctx = task.ctx.clone();
        task.stats.migrations += 1;
        let stats = task.stats;
        task.state = TaskState::MigratedAway { to };
        let pending = task.pending.take();
        let core = task.core;
        let cs = self.core_state_mut(core);
        assert_eq!(cs.current, Some(tid));
        cs.current = None;
        cs.busy_until = cs.busy_until.max(now);
        (program, ctx, stats, pending)
    }

    /// A queued (ready, not running) thread suitable for policy-initiated
    /// migration, taken from the tail of the deepest run queue — the thread
    /// that would wait longest locally loses the least by moving.
    pub fn pick_queued_task(&self) -> Option<Tid> {
        self.cores
            .iter()
            .max_by_key(|cs| cs.runqueue.len())
            .filter(|cs| !cs.runqueue.is_empty())
            .and_then(|cs| cs.runqueue.back().copied())
    }

    /// Extracts a thread that is *not* on a core for policy-initiated
    /// migration: a queued ready thread, or one blocked on a remote
    /// operation whose completion the caller is intercepting. Unlike
    /// [`Kernel::extract_for_migration`] the thread did not ask to move, so
    /// its in-flight resume value and parked pending op travel with it and
    /// are reinstated verbatim at the destination.
    ///
    /// Returns `None` when the task is in any other state (running, in a
    /// syscall, parked on a futex word — whose wait-queue entry pins it
    /// here — or sleeping with a timer due), which callers treat as "don't
    /// migrate after all".
    #[allow(clippy::type_complexity)]
    pub fn extract_unscheduled_for_migration(
        &mut self,
        tid: Tid,
        to: KernelId,
    ) -> Option<(
        Box<dyn crate::program::Program>,
        crate::types::CpuContext,
        TaskStats,
        Resume,
        Option<Op>,
    )> {
        let task = self.tasks.get_mut(&tid)?;
        match task.state {
            TaskState::Ready => {
                let core = task.core;
                let ci = self.core_index[&core];
                let pos = self.cores[ci].runqueue.iter().position(|&t| t == tid)?;
                self.cores[ci].runqueue.remove(pos);
            }
            TaskState::Blocked(BlockReason::Remote(_)) => {}
            _ => return None,
        }
        let task = self.tasks.get_mut(&tid).expect("task exists");
        let program = task.program.take().expect("migrating shadow");
        let ctx = task.ctx.clone();
        task.stats.migrations += 1;
        let stats = task.stats;
        task.state = TaskState::MigratedAway { to };
        let resume = std::mem::replace(&mut task.resume, Resume::Start);
        let pending = task.pending.take();
        task.woke_at = None;
        Some((program, ctx, stats, resume, pending))
    }

    /// Installs an arriving migrated thread. If a dormant shadow for `tid`
    /// exists (back-migration), it is revived in place — the cheap path the
    /// paper measures; otherwise a fresh task is created. The thread
    /// resumes with the migrate syscall's success result. Returns
    /// `(core_to_kick, was_back_migration)`.
    ///
    /// # Panics
    ///
    /// Panics if the group has no mm replica here yet.
    pub fn attach_migrated(
        &mut self,
        tid: Tid,
        group: GroupId,
        program: Box<dyn crate::program::Program>,
        ctx: crate::types::CpuContext,
        stats: TaskStats,
        now: SimTime,
    ) -> (CoreId, bool) {
        self.attach_migrated_with(
            tid,
            group,
            program,
            ctx,
            stats,
            Resume::Sys(SysResult::Val(0)),
            None,
            now,
        )
    }

    /// [`Kernel::attach_migrated`] with an explicit resume value and pending
    /// op: policy-initiated migrations move threads that never called
    /// `migrate`, so they resume exactly where they left off instead of
    /// with the migrate syscall's result.
    #[allow(clippy::too_many_arguments)]
    pub fn attach_migrated_with(
        &mut self,
        tid: Tid,
        group: GroupId,
        program: Box<dyn crate::program::Program>,
        ctx: crate::types::CpuContext,
        stats: TaskStats,
        resume: Resume,
        pending: Option<Op>,
        now: SimTime,
    ) -> (CoreId, bool) {
        assert!(
            self.has_mm(group),
            "migration before mm replica for {group}"
        );
        let (task, was_back) = match self.tasks.get_mut(&tid) {
            Some(task) => {
                assert!(task.is_shadow(), "{tid} exists here but is not a shadow");
                task.program = Some(program);
                task.state = TaskState::Ready;
                (task, true)
            }
            None => {
                let core = self.least_loaded_core();
                let task = self
                    .tasks
                    .entry(tid)
                    .or_insert(Task::new(tid, group, program, core));
                (task, false)
            }
        };
        task.ctx = ctx;
        task.stats = stats;
        task.resume = resume;
        task.pending = pending;
        task.woke_at = Some(now);
        let core = task.core;
        self.core_state_mut(core).runqueue.push_back(tid);
        (core, was_back)
    }

    /// Kills the thread that is current on its core (segfault policy):
    /// marks it exited with `code`, frees the core. Returns the core to
    /// kick. Counts as a segfault when `code == 139`.
    ///
    /// # Panics
    ///
    /// Panics if the task is not current on its core.
    pub fn force_exit_current(&mut self, tid: Tid, code: i32, at: SimTime) -> CoreId {
        let task = self.tasks.get_mut(&tid).expect("task exists");
        let core = task.core;
        task.state = TaskState::Exited(code);
        task.program = None;
        task.pending = None;
        let cs = self.core_state_mut(core);
        assert_eq!(cs.current, Some(tid), "force-exiting non-current task");
        cs.current = None;
        cs.busy_until = cs.busy_until.max(at);
        self.stats.exited.incr();
        if code == 139 {
            self.stats.segv.incr();
        }
        core
    }

    /// Kills a task in *any* live state (group-exit teardown): dequeues it,
    /// frees its core if running, marks it exited. Shadows and already
    /// exited tasks are left alone. Returns the core to kick when one was
    /// freed or had the task queued.
    pub fn kill_task(&mut self, tid: Tid, code: i32, at: SimTime) -> Option<CoreId> {
        let task = self.tasks.get_mut(&tid)?;
        if task.is_exited() || task.is_shadow() {
            return None;
        }
        let core = task.core;
        let was_on_core = matches!(task.state, TaskState::Running | TaskState::InSyscall);
        let was_queued = matches!(task.state, TaskState::Ready);
        task.state = TaskState::Exited(code);
        task.program = None;
        task.pending = None;
        task.woke_at = None;
        self.stats.exited.incr();
        let cs = self.core_state_mut(core);
        if was_on_core {
            debug_assert_eq!(cs.current, Some(tid));
            cs.current = None;
            cs.busy_until = cs.busy_until.max(at);
            return Some(core);
        }
        if was_queued {
            if let Some(pos) = cs.runqueue.iter().position(|&t| t == tid) {
                cs.runqueue.remove(pos);
            }
            return Some(core);
        }
        // Blocked: nothing on a core to free.
        None
    }

    /// Drops every task record of a group (after group exit), returning how
    /// many records were removed. The mm replica is dropped separately via
    /// [`Kernel::drop_mm`].
    pub fn reap_group(&mut self, group: GroupId) -> usize {
        let doomed: Vec<Tid> = self
            .tasks
            .values()
            .filter(|t| t.group == group)
            .map(|t| t.tid)
            .collect();
        for tid in &doomed {
            debug_assert!(
                self.tasks[tid].is_exited() || self.tasks[tid].is_shadow(),
                "reaping live task {tid}"
            );
            self.tasks.remove(tid);
        }
        doomed.len()
    }

    /// Live (non-exited, non-shadow) members of a group hosted here.
    pub fn group_members(&self, group: GroupId) -> Vec<Tid> {
        let mut v: Vec<Tid> = self
            .tasks
            .values()
            .filter(|t| t.group == group && !t.is_exited() && !t.is_shadow())
            .map(|t| t.tid)
            .collect();
        v.sort_unstable();
        v
    }

    /// Distinct groups with live members hosted here, ascending.
    pub fn live_groups(&self) -> Vec<GroupId> {
        let mut v: Vec<GroupId> = self
            .tasks
            .values()
            .filter(|t| !t.is_exited() && !t.is_shadow())
            .map(|t| t.group)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// A queued ready thread belonging to `group`, if any (replica-aware
    /// co-placement migrates members of a specific group; contrast
    /// [`Kernel::pick_queued_task`], which picks regardless of group).
    pub fn pick_queued_task_in(&self, group: GroupId) -> Option<Tid> {
        self.cores
            .iter()
            .flat_map(|cs| cs.runqueue.iter().rev())
            .copied()
            .find(|&tid| self.tasks.get(&tid).is_some_and(|t| t.group == group))
    }

    /// Number of tasks in any non-exited, non-shadow state.
    pub fn live_tasks(&self) -> usize {
        self.tasks
            .values()
            .filter(|t| !t.is_exited() && !t.is_shadow())
            .count()
    }

    /// Live (non-exited, non-shadow) tasks in any state, ascending. At
    /// queue drain every one of them is stuck: a blocked task lost its
    /// wake, and a ready, running or in-syscall one lost the kick of the
    /// core it is queued on or occupies.
    pub fn live_task_ids(&self) -> Vec<Tid> {
        let mut v: Vec<_> = self
            .tasks
            .values()
            .filter(|t| !t.is_exited() && !t.is_shadow())
            .map(|t| t.tid)
            .collect();
        v.sort_unstable();
        v
    }

    /// Tasks that are blocked (for stuck-detection in reports).
    pub fn blocked_tasks(&self) -> Vec<Tid> {
        let mut v: Vec<_> = self
            .tasks
            .values()
            .filter(|t| matches!(t.state, TaskState::Blocked(_)))
            .map(|t| t.tid)
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use popcorn_hw::{HwParams, Topology};

    #[derive(Debug)]
    struct Spin {
        chunks: u32,
    }
    impl Program for Spin {
        fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
            if self.chunks == 0 {
                return Op::Exit(0);
            }
            self.chunks -= 1;
            Op::Compute(2400) // 1us at 2.4GHz
        }
    }

    #[derive(Debug)]
    struct Toucher {
        addr: VAddr,
        state: u8,
    }
    impl Program for Toucher {
        fn step(&mut self, r: Resume, _e: &ProgEnv) -> Op {
            match self.state {
                0 => {
                    self.state = 1;
                    Op::Store(self.addr, 42)
                }
                1 => {
                    self.state = 2;
                    Op::Load(self.addr)
                }
                _ => {
                    if let Resume::Value(v) = r {
                        assert_eq!(v, 42);
                    } else {
                        panic!("expected load value");
                    }
                    Op::Exit(0)
                }
            }
        }
    }

    fn kernel() -> Kernel {
        kernel_id(0)
    }

    fn kernel_id(id: u16) -> Kernel {
        let machine = Machine::new(Topology::new(1, 2), HwParams::default());
        Kernel::new(
            KernelId(id),
            vec![CoreId(0), CoreId(1)],
            OsParams::default(),
            machine,
        )
    }

    fn group(k: &mut Kernel) -> GroupId {
        let leader = k.alloc_tid();
        let g = GroupId(leader);
        k.adopt_mm(Mm::new(g));
        g
    }

    #[test]
    fn idle_core_reports_idle() {
        let mut k = kernel();
        assert!(matches!(
            k.run_core(SimTime::ZERO, CoreId(0)),
            RunOutcome::Idle
        ));
    }

    #[test]
    fn spin_program_runs_to_exit() {
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(tid, g, Box::new(Spin { chunks: 3 }), None, SimTime::ZERO);
        match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Exited { tid: t, code, at } => {
                assert_eq!(t, tid);
                assert_eq!(code, 0);
                // ctx switch + 3us compute + exit teardown.
                let expect = 1_600 + 3_000 + 6_000;
                assert_eq!(at.as_nanos(), expect);
            }
            other => panic!("expected exit, got {other:?}"),
        }
        assert!(k.task(tid).unwrap().is_exited());
        assert_eq!(k.live_tasks(), 0);
    }

    #[test]
    fn memory_ops_fault_then_complete() {
        let mut k = kernel();
        let g = group(&mut k);
        let addr = k.mm_mut(g).map_anon(4096).unwrap();
        let tid = k.alloc_tid();
        let core = k.spawn(
            tid,
            g,
            Box::new(Toucher { addr, state: 0 }),
            None,
            SimTime::ZERO,
        );
        // First store faults (absent page).
        let (page, at) = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Fault {
                page, write, at, ..
            } => {
                assert!(write);
                (page, at)
            }
            other => panic!("expected fault, got {other:?}"),
        };
        // OS resolves with a zero-fill, task retries inline.
        k.mm_mut(g)
            .install_zero_page(page, crate::mm::PageState::Exclusive);
        let done = at + SimTime::from_nanos(1_100);
        let kick = k.finish_fault_inline(tid, done);
        assert_eq!(kick, core);
        match k.run_core(done, core) {
            RunOutcome::Exited { code, .. } => assert_eq!(code, 0),
            other => panic!("expected exit, got {other:?}"),
        }
        // The store value survived in the mm.
        assert_eq!(k.mm(g).read_word(addr), 42);
        assert_eq!(k.stats.faults.get(), 1);
    }

    #[test]
    fn no_vma_access_raises_fault_for_os_policy() {
        #[derive(Debug)]
        struct Wild;
        impl Program for Wild {
            fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
                Op::Store(VAddr(0xdead_beef), 1)
            }
        }
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(tid, g, Box::new(Wild), None, SimTime::ZERO);
        let at = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Fault {
                no_vma, write, at, ..
            } => {
                assert!(no_vma);
                assert!(write);
                at
            }
            other => panic!("expected no-vma fault, got {other:?}"),
        };
        // SMP policy: kill it as a segfault.
        let kick = k.force_exit_current(tid, 139, at);
        assert_eq!(kick, core);
        assert_eq!(k.stats.segv.get(), 1);
        assert!(k.task(tid).unwrap().is_exited());
        assert!(matches!(k.run_core(at, core), RunOutcome::Idle));
    }

    #[test]
    fn kill_task_in_every_state() {
        let mut k = kernel();
        let g = group(&mut k);
        // Queued task.
        let queued = k.alloc_tid();
        k.spawn(
            queued,
            g,
            Box::new(Spin { chunks: 5 }),
            Some(CoreId(0)),
            SimTime::ZERO,
        );
        // Blocked task (spawn on other core, run it into a syscall, block).
        #[derive(Debug)]
        struct Sleepy {
            asked: bool,
        }
        impl Program for Sleepy {
            fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::Syscall(SyscallReq::Nanosleep { ns: 1 });
                }
                Op::Exit(0)
            }
        }
        let blocked = k.alloc_tid();
        k.spawn(
            blocked,
            g,
            Box::new(Sleepy { asked: false }),
            Some(CoreId(1)),
            SimTime::ZERO,
        );
        let at = match k.run_core(SimTime::ZERO, CoreId(1)) {
            RunOutcome::Syscall { at, .. } => at,
            other => panic!("unexpected {other:?}"),
        };
        k.block_current(blocked, BlockReason::Sleep, at);

        assert_eq!(k.kill_task(queued, 1, at), Some(CoreId(0)));
        assert_eq!(k.kill_task(blocked, 1, at), None);
        assert!(k.task(queued).unwrap().is_exited());
        assert!(k.task(blocked).unwrap().is_exited());
        // Idempotent on exited tasks.
        assert_eq!(k.kill_task(queued, 1, at), None);
        // Unknown tid is a no-op.
        assert_eq!(k.kill_task(Tid::new(KernelId(5), 1), 1, at), None);
        assert_eq!(k.live_tasks(), 0);
    }

    #[test]
    fn reap_group_removes_exited_records() {
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(tid, g, Box::new(Spin { chunks: 0 }), None, SimTime::ZERO);
        assert_eq!(k.group_members(g), vec![tid]);
        match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Exited { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(k.group_members(g), Vec::<Tid>::new());
        assert_eq!(k.reap_group(g), 1);
        assert!(k.task(tid).is_none());
    }

    #[test]
    fn syscall_outcome_then_finish_resumes() {
        #[derive(Debug)]
        struct Getter {
            asked: bool,
        }
        impl Program for Getter {
            fn step(&mut self, r: Resume, _e: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::Syscall(SyscallReq::GetTid);
                }
                match r {
                    Resume::Sys(SysResult::Val(v)) => Op::Exit(v as i32),
                    other => panic!("unexpected resume {other:?}"),
                }
            }
        }
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(
            tid,
            g,
            Box::new(Getter { asked: false }),
            None,
            SimTime::ZERO,
        );
        let at = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Syscall { req, at, .. } => {
                assert!(matches!(req, SyscallReq::GetTid));
                at
            }
            other => panic!("expected syscall, got {other:?}"),
        };
        let done = at + SimTime::from_nanos(100);
        let kick = k.finish_syscall(tid, SysResult::Val(7), done);
        assert_eq!(kick, core);
        match k.run_core(done, core) {
            RunOutcome::Exited { code, .. } => assert_eq!(code, 7),
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn sync_op_outcome_then_finish_resumes_with_old_value() {
        #[derive(Debug)]
        struct Adder {
            asked: bool,
        }
        impl Program for Adder {
            fn step(&mut self, r: Resume, _e: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::AtomicRmw(VAddr(0x1000), RmwOp::Add(1));
                }
                match r {
                    Resume::Value(old) => Op::Exit(old as i32),
                    other => panic!("unexpected resume {other:?}"),
                }
            }
        }
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(
            tid,
            g,
            Box::new(Adder { asked: false }),
            None,
            SimTime::ZERO,
        );
        let at = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::SyncOp { addr, op, at, .. } => {
                assert_eq!(addr, VAddr(0x1000));
                assert!(matches!(op, RmwOp::Add(1)));
                at
            }
            other => panic!("expected sync op, got {other:?}"),
        };
        k.finish_sync_op(tid, 41, at + SimTime::from_nanos(20));
        match k.run_core(at + SimTime::from_nanos(20), core) {
            RunOutcome::Exited { code, .. } => assert_eq!(code, 41),
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn two_tasks_share_a_core_via_preemption() {
        let mut k = kernel();
        let g = group(&mut k);
        let t1 = k.alloc_tid();
        let t2 = k.alloc_tid();
        // Each spins 3 quanta worth of compute.
        let chunks = 3 * 1_000;
        k.spawn(
            t1,
            g,
            Box::new(Spin { chunks }),
            Some(CoreId(0)),
            SimTime::ZERO,
        );
        k.spawn(
            t2,
            g,
            Box::new(Spin { chunks }),
            Some(CoreId(0)),
            SimTime::ZERO,
        );
        let mut now = SimTime::ZERO;
        let mut exited = 0;
        let mut preemptions = 0;
        for _ in 0..100_000 {
            match k.run_core(now, CoreId(0)) {
                RunOutcome::Preempted { at } | RunOutcome::Busy { until: at } => {
                    preemptions += 1;
                    now = at;
                }
                RunOutcome::Exited { at, .. } => {
                    exited += 1;
                    now = at;
                    if exited == 2 {
                        break;
                    }
                }
                RunOutcome::Idle => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(exited, 2);
        assert!(preemptions >= 4, "expected interleaving, got {preemptions}");
        assert!(k.stats.ctx_switches.get() >= 4);
    }

    #[test]
    fn least_loaded_core_balances_spawns() {
        let mut k = kernel();
        let g = group(&mut k);
        let a = k.alloc_tid();
        let b = k.alloc_tid();
        let ca = k.spawn(a, g, Box::new(Spin { chunks: 1 }), None, SimTime::ZERO);
        let cb = k.spawn(b, g, Box::new(Spin { chunks: 1 }), None, SimTime::ZERO);
        assert_ne!(ca, cb, "second spawn should pick the other core");
    }

    #[test]
    fn block_and_wake_roundtrip() {
        #[derive(Debug)]
        struct Sleeper {
            asked: bool,
        }
        impl Program for Sleeper {
            fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::Syscall(SyscallReq::Nanosleep { ns: 1000 });
                }
                Op::Exit(0)
            }
        }
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(
            tid,
            g,
            Box::new(Sleeper { asked: false }),
            None,
            SimTime::ZERO,
        );
        let at = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Syscall { at, .. } => at,
            other => panic!("expected syscall, got {other:?}"),
        };
        k.block_current(tid, BlockReason::Sleep, at);
        // Core is free now: idle.
        assert!(matches!(k.run_core(at, core), RunOutcome::Idle));
        // Wake needs the blocked->ready transition plus a syscall result.
        let task = k.task_mut(tid).unwrap();
        task.resume = Resume::Sys(SysResult::Val(0));
        let kick = k.wake(tid, at + SimTime::from_micros(1));
        assert_eq!(kick, core);
        match k.run_core(at + SimTime::from_micros(1), core) {
            RunOutcome::Exited { code, .. } => assert_eq!(code, 0),
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn migration_extract_leaves_shadow_and_attach_revives() {
        #[derive(Debug)]
        struct Migrator {
            asked: bool,
        }
        impl Program for Migrator {
            fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
                if !self.asked {
                    self.asked = true;
                    return Op::Syscall(SyscallReq::Migrate(
                        crate::program::MigrateTarget::Kernel(KernelId(1)),
                    ));
                }
                Op::Exit(0)
            }
        }
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        let core = k.spawn(
            tid,
            g,
            Box::new(Migrator { asked: false }),
            None,
            SimTime::ZERO,
        );
        let at = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Syscall { at, .. } => at,
            other => panic!("expected syscall, got {other:?}"),
        };
        let (program, ctx, stats, pending) = k.extract_for_migration(tid, KernelId(1), at);
        assert!(pending.is_none(), "a plain migrate carries no parked op");
        assert!(k.task(tid).unwrap().is_shadow());
        assert_eq!(k.live_tasks(), 0);
        // Back-migration revives the shadow in place.
        let (kick, was_back) = k.attach_migrated(tid, g, program, ctx, stats, at);
        assert!(was_back);
        assert_eq!(kick, core);
        match k.run_core(at, core) {
            RunOutcome::Exited { code, .. } => assert_eq!(code, 0),
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn attach_without_shadow_creates_fresh_task() {
        let mut k = kernel();
        let g = group(&mut k);
        let foreign = Tid::new(KernelId(3), 9);
        let (core, was_back) = k.attach_migrated(
            foreign,
            g,
            Box::new(Spin { chunks: 0 }),
            Default::default(),
            TaskStats::default(),
            SimTime::ZERO,
        );
        assert!(!was_back);
        match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Exited { tid, .. } => assert_eq!(tid, foreign),
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn reassign_core_moves_queued_task() {
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        k.spawn(
            tid,
            g,
            Box::new(Spin { chunks: 1 }),
            Some(CoreId(0)),
            SimTime::ZERO,
        );
        k.reassign_core(tid, CoreId(1));
        assert_eq!(k.core_load(CoreId(0)), 0);
        assert_eq!(k.core_load(CoreId(1)), 1);
        assert!(matches!(
            k.run_core(SimTime::ZERO, CoreId(0)),
            RunOutcome::Idle
        ));
        assert!(matches!(
            k.run_core(SimTime::ZERO, CoreId(1)),
            RunOutcome::Exited { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_spawn_panics() {
        let mut k = kernel();
        let g = group(&mut k);
        let tid = k.alloc_tid();
        k.spawn(tid, g, Box::new(Spin { chunks: 0 }), None, SimTime::ZERO);
        k.spawn(tid, g, Box::new(Spin { chunks: 0 }), None, SimTime::ZERO);
    }

    #[test]
    fn stale_poll_on_occupied_core_is_idle() {
        let mut k = kernel();
        let g = group(&mut k);
        let first = k.alloc_tid();
        let core = k.spawn(first, g, Box::new(Spin { chunks: 1 }), None, SimTime::ZERO);
        let second = k.alloc_tid();
        k.spawn(
            second,
            g,
            Box::new(Spin { chunks: 0 }),
            Some(core),
            SimTime::ZERO,
        );
        let at = match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Exited { tid, at, .. } => {
                assert_eq!(tid, first);
                at
            }
            other => panic!("unexpected {other:?}"),
        };
        // A stale poll before `at` finds the core occupied by the exit
        // teardown: it schedules nothing (the exit's own kick at `at` ends
        // the occupation) and leaves the queued thread waiting.
        assert!(matches!(k.run_core(SimTime::ZERO, core), RunOutcome::Idle));
        assert_eq!(k.core_load(core), 1, "queued thread not dispatched early");
        // The occupant's kick at `at` runs it.
        match k.run_core(at, core) {
            RunOutcome::Exited { tid, .. } => assert_eq!(tid, second),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stuck_tasks_count_a_ready_thread_that_lost_its_kick() {
        let mut k = kernel();
        let g = group(&mut k);
        let done = k.alloc_tid();
        k.spawn(
            done,
            g,
            Box::new(Spin { chunks: 0 }),
            Some(CoreId(0)),
            SimTime::ZERO,
        );
        assert!(matches!(
            k.run_core(SimTime::ZERO, CoreId(0)),
            RunOutcome::Exited { .. }
        ));
        // Queued on core 1, whose kick never comes.
        let lost = k.alloc_tid();
        k.spawn(
            lost,
            g,
            Box::new(Spin { chunks: 0 }),
            Some(CoreId(1)),
            SimTime::ZERO,
        );
        assert!(k.blocked_tasks().is_empty(), "not blocked, just forgotten");
        assert_eq!(crate::osmodel::stuck_tasks(&[k]), vec![lost]);
    }

    /// Runs a `Toucher` on `k` into its first fault (a store to an absent
    /// page), which parks the store as the task's pending op.
    fn fault_toucher(k: &mut Kernel) -> (GroupId, Tid, VAddr, PageNo, SimTime) {
        let g = group(k);
        let addr = k.mm_mut(g).map_anon(4096).unwrap();
        let tid = k.alloc_tid();
        let core = k.spawn(
            tid,
            g,
            Box::new(Toucher { addr, state: 0 }),
            None,
            SimTime::ZERO,
        );
        match k.run_core(SimTime::ZERO, core) {
            RunOutcome::Fault {
                page,
                write: true,
                at,
                ..
            } => {
                assert!(matches!(k.task(tid).unwrap().pending, Some(Op::Store(..))));
                (g, tid, addr, page, at)
            }
            other => panic!("expected write fault, got {other:?}"),
        }
    }

    #[test]
    fn parked_op_travels_with_an_unscheduled_migration() {
        let mut a = kernel_id(0);
        let (g, tid, addr, page, at) = fault_toucher(&mut a);
        a.block_current(tid, BlockReason::Remote("page"), at);
        let (program, ctx, stats, resume, pending) = a
            .extract_unscheduled_for_migration(tid, KernelId(1))
            .expect("blocked on a remote op: movable");
        assert!(matches!(pending, Some(Op::Store(s, 42)) if s == addr));
        assert!(a.task(tid).unwrap().pending.is_none(), "shadow keeps no op");

        let mut b = kernel_id(1);
        let mut replica = a.mm(g).replica_layout();
        replica.install_zero_page(page, crate::mm::PageState::Exclusive);
        b.adopt_mm(replica);
        let (core, was_back) =
            b.attach_migrated_with(tid, g, program, ctx, stats, resume, pending, at);
        assert!(!was_back);
        // The store is retried before the program steps again: had it been
        // dropped, the program's next op (the load) would read 0 and the
        // `Toucher` would panic instead of exiting.
        match b.run_core(at, core) {
            RunOutcome::Exited { tid: t, code, .. } => assert_eq!((t, code), (tid, 0)),
            other => panic!("expected exit, got {other:?}"),
        }
        assert_eq!(b.mm(g).read_word(addr), 42);
        assert_eq!(b.stats.faults.get(), 0, "the retried store hit");
    }

    #[test]
    fn revived_task_does_not_replay_a_stale_op() {
        for force in [true, false] {
            let mut k = kernel();
            let (g, tid, _, _, at) = fault_toucher(&mut k);
            if force {
                k.force_exit_current(tid, 139, at);
            } else {
                assert_eq!(k.kill_task(tid, 9, at), Some(k.task(tid).unwrap().core));
            }
            assert!(k.task(tid).unwrap().pending.is_none());
            assert_eq!(k.reap_group(g), 1);
            // The same tid arrives again: it starts from its new program,
            // not from the store its dead predecessor parked (a replayed
            // store would fault on the still-absent page).
            let (core, was_back) = k.attach_migrated(
                tid,
                g,
                Box::new(Spin { chunks: 0 }),
                Default::default(),
                TaskStats::default(),
                at,
            );
            assert!(!was_back);
            match k.run_core(at, core) {
                RunOutcome::Exited { tid: t, code, .. } => assert_eq!((t, code), (tid, 0)),
                other => panic!("force={force}: expected exit, got {other:?}"),
            }
        }

        // A shadow revived in place carries only what the attach hands it:
        // the op that left with the thread is not replayed from the shadow.
        let mut k = kernel();
        let (g, tid, _, _, at) = fault_toucher(&mut k);
        k.block_current(tid, BlockReason::Remote("page"), at);
        let (program, ctx, stats, _, pending) = k
            .extract_unscheduled_for_migration(tid, KernelId(1))
            .unwrap();
        assert!(pending.is_some());
        let (core, was_back) = k.attach_migrated(tid, g, program, ctx, stats, at);
        assert!(was_back);
        match k.run_core(at, core) {
            // The program's next op, the load, not the parked store.
            RunOutcome::Fault { write, .. } => assert!(!write, "stale store replayed"),
            other => panic!("expected the load's fault, got {other:?}"),
        }
    }

    #[test]
    fn every_dispatch_consumes_exactly_one_wake_stamp() {
        /// Sleeps, yields and migrates (back to its own shadow) in turn.
        #[derive(Debug)]
        struct Restless {
            step: u32,
        }
        impl Program for Restless {
            fn step(&mut self, _r: Resume, _e: &ProgEnv) -> Op {
                self.step += 1;
                match self.step % 4 {
                    _ if self.step > 12 => Op::Exit(0),
                    0 => Op::Syscall(SyscallReq::Nanosleep { ns: 5_000 }),
                    1 => Op::Syscall(SyscallReq::Yield),
                    2 => Op::Syscall(SyscallReq::Migrate(crate::program::MigrateTarget::Kernel(
                        KernelId(1),
                    ))),
                    _ => Op::Compute(24_000),
                }
            }
        }

        let mut k = kernel();
        let g = group(&mut k);
        // Two long spinners share core 0 (preemption); restless threads on
        // both cores sleep/wake, yield and migrate; one thread arrives as
        // a fresh migrated task.
        for _ in 0..2 {
            let t = k.alloc_tid();
            k.spawn(
                t,
                g,
                Box::new(Spin { chunks: 2_500 }),
                Some(CoreId(0)),
                SimTime::ZERO,
            );
        }
        for c in [0, 1, 1] {
            let t = k.alloc_tid();
            k.spawn(
                t,
                g,
                Box::new(Restless { step: 0 }),
                Some(CoreId(c)),
                SimTime::ZERO,
            );
        }
        k.attach_migrated(
            Tid::new(KernelId(3), 1),
            g,
            Box::new(Spin { chunks: 50 }),
            Default::default(),
            TaskStats::default(),
            SimTime::ZERO,
        );

        let mut clock = [SimTime::ZERO; 2];
        let mut sleepers: Vec<(SimTime, Tid)> = Vec::new();
        let mut preemptions = 0;
        let mut back_migrations = 0;
        for _ in 0..1_000_000 {
            let mut progress = false;
            for (i, core) in [CoreId(0), CoreId(1)].into_iter().enumerate() {
                let (kick, at) = match k.run_core(clock[i], core) {
                    RunOutcome::Idle => continue,
                    RunOutcome::Busy { until } => (core, until),
                    RunOutcome::Preempted { at } => {
                        preemptions += 1;
                        (core, at)
                    }
                    RunOutcome::Exited { at, .. } => (core, at),
                    RunOutcome::Syscall { tid, req, at } => match req {
                        SyscallReq::Nanosleep { ns } => {
                            sleepers.push((at + SimTime::from_nanos(ns), tid));
                            (k.block_current(tid, BlockReason::Sleep, at), at)
                        }
                        SyscallReq::Yield => (k.yield_current(tid, at), at),
                        SyscallReq::Migrate(_) => {
                            let (program, ctx, stats, _) =
                                k.extract_for_migration(tid, KernelId(1), at);
                            let (kick, was_back) =
                                k.attach_migrated(tid, g, program, ctx, stats, at);
                            back_migrations += usize::from(was_back);
                            (kick, at)
                        }
                        other => panic!("unexpected syscall {other:?}"),
                    },
                    other => panic!("unexpected {other:?}"),
                };
                let j = usize::from(kick.0);
                clock[j] = clock[j].max(at);
                progress = true;
            }
            if progress {
                continue;
            }
            // Both cores idle: deliver the earliest timer.
            sleepers.sort_unstable();
            if sleepers.is_empty() {
                break;
            }
            let (due, tid) = sleepers.remove(0);
            k.task_mut(tid).unwrap().resume = Resume::Sys(SysResult::Val(0));
            let j = usize::from(k.wake(tid, due).0);
            clock[j] = clock[j].max(due);
        }

        assert_eq!(k.live_tasks(), 0, "test loop stalled");
        assert!(preemptions >= 2, "spinners interleaved ({preemptions})");
        assert_eq!(back_migrations, 9);
        // Each restless thread is dispatched at spawn and after each of its
        // three sleeps, yields and migrations; the spinners and the
        // arrival once each, plus once more per preemption.
        let switches = k.stats.ctx_switches.get();
        assert_eq!(switches, 3 * 10 + 3 + preemptions);
        assert_eq!(k.stats.sched_latency.count(), switches);
    }
}
