//! Page coherence: faults, the home directory conversation, grants and
//! invalidations.
//!
//! Every page of a distributed group has a single directory entry at the
//! group's home kernel. Remote faults send `PageReq` to the home, which
//! walks the directory ([`crate::directory`]) and answers with fetches,
//! invalidation rounds and finally a `PageGrant`; `PageDone` releases the
//! entry for queued requests. Faults at the home itself consult the
//! directory inline (the fast path the paper compares against remote
//! retrieval).

use popcorn_kernel::mm::{PageContents, PageState};
use popcorn_kernel::task::BlockReason;
use popcorn_kernel::types::{GroupId, PageNo, Tid};
use popcorn_msg::{KernelId, RpcId};
use popcorn_sim::SimTime;

use crate::directory::{DirStep, Grant, PageRequest};
use crate::proto::{ProtoMsg, Protocol};

use super::{CoreId, KernelCtx, Pending};

/// Threads waiting for a page grant (joined duplicates included).
#[derive(Debug)]
pub struct PageWait {
    /// The faulting group.
    pub group: GroupId,
    /// The page being granted.
    pub page: PageNo,
    /// Whether write access was requested.
    pub write: bool,
    /// When the first fault started (latency accounting).
    pub started: SimTime,
    /// `(tid, needs_write)`; empty for ablation prefetches.
    pub waiters: Vec<(Tid, bool)>,
}

/// In-flight page request of one kernel (fault coalescing).
#[derive(Debug, Clone, Copy)]
pub struct InFlight {
    /// The RPC waiting for the grant.
    pub rpc: RpcId,
    /// Whether the in-flight request asks for write access.
    pub write: bool,
}

impl KernelCtx<'_, '_> {
    /// Serializes a request behind the page service point of the kernel
    /// serving the conversation — the group's home page server, or the
    /// delegate's own server for a sharded page — recording the service
    /// time against the page protocol.
    pub(super) fn serve_page(
        &mut self,
        group: GroupId,
        serving: KernelId,
        now: SimTime,
        cost: SimTime,
    ) -> SimTime {
        self.stats
            .proto
            .of(Protocol::Page)
            .service
            .record_time(cost);
        if self.sharding.enabled && serving != self.home_of(group) {
            self.delegate_servers
                .entry((group, serving))
                .or_default()
                .serialize(now, cost)
        } else {
            self.servers
                .entry(group)
                .or_default()
                .page
                .serialize(now, cost)
        }
    }

    /// Tries to join an in-flight request for the same page; returns true
    /// if joined (the task is then blocked by the caller).
    fn join_inflight(
        &mut self,
        ki: usize,
        group: GroupId,
        page: PageNo,
        write: bool,
        tid: Tid,
    ) -> bool {
        let Some(inf) = self.inflight[ki].get(&(group, page)).copied() else {
            return false;
        };
        if write && !inf.write {
            return false; // a read is in flight but we need write rights
        }
        match self.rpcs[ki].get_mut(inf.rpc) {
            Some(Pending::Page(PageWait { waiters, .. })) => {
                waiters.push((tid, write));
                true
            }
            _ => false,
        }
    }

    /// Common fault path: register a waiter, record in-flight state, block
    /// the task, and return the fresh rpc id.
    fn start_page_wait(
        &mut self,
        ki: usize,
        tid: Tid,
        group: GroupId,
        page: PageNo,
        write: bool,
        home: KernelId,
        at: SimTime,
    ) -> RpcId {
        let rpc = self.register_rpc(
            ki,
            Pending::Page(PageWait {
                group,
                page,
                write,
                started: at,
                waiters: vec![(tid, write)],
            }),
            at,
            home,
        );
        self.inflight[ki].insert((group, page), InFlight { rpc, write });
        let core = self.kernels[ki].block_current(tid, BlockReason::Remote("page"), at);
        self.kick(ki, core, at);
        rpc
    }

    /// Serves a directory step at the kernel serving the page (the home,
    /// or a delegate for a sharded page).
    pub(super) fn exec_dir_step(
        &mut self,
        group: GroupId,
        page: PageNo,
        step: DirStep,
        serving: KernelId,
        at: SimTime,
    ) {
        let serving_ki = self.ki(serving);
        match step {
            DirStep::Grant(g) => self.deliver_grant(group, serving, g, at),
            DirStep::Fetch { owner } => {
                if owner == serving {
                    // The serving kernel holds the copy: snapshot +
                    // downgrade.
                    let mm = self.kernels[serving_ki].mm_mut(group);
                    let contents = if mm.page_info(page).is_some() {
                        if mm.page_info(page).expect("checked").state == PageState::Exclusive {
                            mm.set_page_state(page, PageState::ReadShared);
                        }
                        mm.snapshot_page(page)
                    } else {
                        PageContents::default()
                    };
                    let cost = SimTime::from_nanos(self.params.page_fetch_service_ns);
                    let done = self.serve_page(group, serving, at, cost);
                    let grant = self
                        .dir_mut(group, page)
                        .expect("group alive during transfer")
                        .fetched(page, contents);
                    self.deliver_grant(group, serving, grant, done);
                } else {
                    self.send(at, serving_ki, owner, ProtoMsg::PageFetch { group, page });
                }
            }
            DirStep::Invalidate { holders } => {
                for h in holders {
                    self.stats.invalidations.incr();
                    if h == serving {
                        // Defensive: evict locally and ack inline.
                        let contents = self.evict_local(serving_ki, group, page);
                        if let Some(grant) = self
                            .dir_mut(group, page)
                            .expect("group alive")
                            .inval_acked(page, serving, contents)
                        {
                            self.deliver_grant(group, serving, grant, at);
                        }
                    } else {
                        self.send(at, serving_ki, h, ProtoMsg::PageInval { group, page });
                    }
                }
            }
            DirStep::Queued => {}
        }
    }

    fn evict_local(&mut self, ki: usize, group: GroupId, page: PageNo) -> Option<PageContents> {
        if !self.kernels[ki].has_mm(group) {
            return None;
        }
        let mm = self.kernels[ki].mm_mut(group);
        if mm.page_info(page).is_some() {
            Some(mm.evict_page(page))
        } else {
            None
        }
    }

    /// Routes a completed grant to its requester.
    pub(super) fn deliver_grant(
        &mut self,
        group: GroupId,
        serving: KernelId,
        g: Grant,
        at: SimTime,
    ) {
        let serving_ki = self.ki(serving);
        if g.contents.is_some() && g.req.origin != serving {
            self.stats.page_transfers.incr();
        }
        // Every grant re-maps the page: push the new version to the other
        // page-table replica holders (no-op with replication off).
        self.push_pt_updates(group, g.page, g.version, g.req.origin, at);
        if g.req.origin == serving {
            // A (queued) local request at the serving kernel.
            self.apply_grant(
                serving_ki, group, g.page, g.state, g.version, g.contents, g.req.rpc, at,
            );
        } else {
            self.send(
                at,
                serving_ki,
                g.req.origin,
                ProtoMsg::PageGrant {
                    rpc: g.req.rpc,
                    group,
                    page: g.page,
                    state: g.state,
                    version: g.version,
                    contents: g.contents,
                },
            );
        }
    }

    /// Installs a grant at the faulting kernel, wakes the waiters, and
    /// confirms completion to the directory.
    pub(super) fn apply_grant(
        &mut self,
        ki: usize,
        group: GroupId,
        page: PageNo,
        state: PageState,
        version: u64,
        contents: Option<PageContents>,
        rpc: RpcId,
        at: SimTime,
    ) {
        if self.kernels[ki].has_mm(group) {
            self.kernels[ki]
                .mm_mut(group)
                .apply_grant(page, state, version, contents);
            self.note_pt_grant(ki, group, page, version);
            // Installing needs a local page frame: the kernel's allocator
            // lock (partitioned counterpart of SMP's global zone lock).
            let zone_hold = SimTime::from_nanos(self.kernels[ki].params().zone_lock_hold_ns);
            let machine = self.machine;
            let loc = self.net.fabric().location(self.kid(ki));
            let zone = self.zone_locks[ki].acquire(at, loc, zone_hold, machine.interconnect());
            let install = SimTime::from_nanos(self.params.page_install_ns);
            let done = zone.released_at + install;
            if let Some(Pending::Page(PageWait {
                waiters,
                started,
                write,
                ..
            })) = self.complete_rpc(ki, rpc)
            {
                if let Some(inf) = self.inflight[ki].get(&(group, page)) {
                    if inf.rpc == rpc {
                        self.inflight[ki].remove(&(group, page));
                    }
                }
                let lat = done.saturating_sub(started);
                if write {
                    self.stats.faults_remote_write.incr();
                    self.stats.fault_remote_write_lat.record_time(lat);
                } else {
                    self.stats.faults_remote_read.incr();
                    self.stats.fault_remote_read_lat.record_time(lat);
                }
                for (tid, _) in waiters {
                    if self.task_alive(ki, tid) {
                        let core = self.kernels[ki].wake(tid, done);
                        self.kick(ki, core, done);
                    }
                }
            }
        }
        // Confirm so the directory can serve queued requests. The entry is
        // busy until this lands, so the serving kernel cannot change under
        // the requester's feet.
        let serving = self.page_home(group, page);
        if self.kid(ki) == serving {
            self.page_done_at_home(group, page, serving, at);
        } else {
            self.send(at, ki, serving, ProtoMsg::PageDone { group, page });
        }
    }

    /// Releases the directory entry at the serving kernel `to` and serves
    /// the next queued request; a quiesced entry completes any pending
    /// escalation.
    pub(super) fn page_done_at_home(
        &mut self,
        group: GroupId,
        page: PageNo,
        to: KernelId,
        at: SimTime,
    ) {
        if !self.groups.contains_key(&group) {
            return;
        }
        // After a crash, a bounced grant and the requester's own `PageDone`
        // can both try to release the same entry; the second must not fire
        // on an idle (or reclaimed) page.
        if self.recovery.scheduled {
            let busy = self
                .dir_mut(group, page)
                .and_then(|d| d.view(page))
                .is_some_and(|v| v.busy);
            if !busy {
                return;
            }
        }
        match self.dir_mut(group, page).and_then(|d| d.done(page)) {
            Some((_req, step)) => {
                let cost = SimTime::from_nanos(self.params.page_dir_service_ns);
                let done = self.serve_page(group, to, at, cost);
                self.exec_dir_step(group, page, step, to, done);
            }
            None => self.try_escalate(group, page),
        }
    }

    /// Handles a page fault request arriving at kernel `to` (the home, or
    /// a delegate serving the page's shard).
    pub(super) fn home_page_request(
        &mut self,
        to: KernelId,
        group: GroupId,
        page: PageNo,
        req: PageRequest,
        at: SimTime,
    ) {
        if !self.groups.contains_key(&group) {
            return; // group already reaped; requester was killed too
        }
        // A page whose only copy died with a crashed kernel: explicit
        // negative reply, never a silent zero-fill resurrection. (Lost
        // pages are always root-served: recovery un-delegates them.)
        if self.recovery.scheduled && self.recovery.lost_pages.contains(&(group, page)) {
            self.nack_page(group, page, req, at);
            return;
        }
        let serving = self.page_home(group, page);
        if serving != to {
            // The request raced a delegation or escalation (or the sender
            // routed before the map changed): forward it to the kernel now
            // serving the page. Entries never move while busy, so the
            // forwarded request finds the page there.
            self.stats.shard_forwards.incr();
            let to_ki = self.ki(to);
            self.send(
                at,
                to_ki,
                serving,
                ProtoMsg::PageReq {
                    rpc: req.rpc,
                    origin: req.origin,
                    group,
                    page,
                    write: req.write,
                },
            );
            return;
        }
        let root = self.home_of(group);
        if self.sharding.enabled && to == root && !self.sharding.map.contains_key(&(group, page)) {
            // Root-side first touch: an untracked page faulted from
            // another socket is delegated to that socket's lead, which
            // owns its directory entry from here on. The routing decision
            // itself is served behind the root's directory server.
            let untracked = self
                .groups
                .get(&group)
                .is_some_and(|h| h.dir.view(page).is_none());
            let d = self.delegate_for(group, req.origin);
            if untracked && d != root {
                self.sharding.map.insert((group, page), d);
                self.stats.shard_delegated_pages.incr();
                self.stats.shard_forwards.incr();
                let cost = SimTime::from_nanos(self.params.page_dir_service_ns);
                let done = self.serve_page(group, root, at, cost);
                let root_ki = self.ki(root);
                self.send(
                    done,
                    root_ki,
                    d,
                    ProtoMsg::PageReq {
                        rpc: req.rpc,
                        origin: req.origin,
                        group,
                        page,
                        write: req.write,
                    },
                );
                return;
            }
        }
        if self.sharding.enabled && self.sharding.map.contains_key(&(group, page)) {
            if to != root && self.sharding.socket_of(req.origin) != self.sharding.socket_of(to) {
                // Cross-socket traffic on a delegated page: serve this
                // request here, but escalate the entry to the root once it
                // quiesces so delegates only arbitrate socket-local pages.
                self.sharding.escalate.insert((group, page));
            } else if to == root {
                // The root inherited this delegation by adopting a crashed
                // home: fold the page back into the root directory once it
                // quiesces.
                self.sharding.escalate.insert((group, page));
            }
        }
        self.groups
            .get_mut(&group)
            .expect("present above")
            .add_replica(req.origin);
        // Mitosis-style eager acquisition: a kernel's first fault into the
        // group also installs a page-table replica there (a no-op once it
        // holds one).
        if self.params.replicate_on_first_fault {
            self.on_pt_replica_req(req.origin, group, at);
        }
        let cost = SimTime::from_nanos(self.params.page_dir_service_ns);
        let done = self.serve_page(group, to, at, cost);
        let step = self
            .dir_mut(group, page)
            .expect("present above")
            .request(page, req);
        self.exec_dir_step(group, page, step, to, done);
    }

    /// The page-fault hook: local fast path at the home, coalescing with
    /// in-flight requests, or a `PageReq` conversation with the home.
    /// `no_vma` faults route into the VMA protocol's on-demand retrieval.
    pub fn fault(
        &mut self,
        ki: usize,
        core: CoreId,
        tid: Tid,
        page: PageNo,
        write: bool,
        no_vma: bool,
        at: SimTime,
    ) {
        self.note_activity(at);
        let me = self.kid(ki);
        let group = self.group_of(ki, tid);
        let serving = self.page_home(group, page);
        // The hardware walk that raised this fault traverses table levels
        // living either in a local page-table replica or in the home's
        // memory (extension; no-op when `page_table_replication` is off).
        let at = self.charge_page_walk(group, me, at);
        if no_vma {
            self.no_vma_fault(ki, tid, group, page, at);
            return;
        }
        if self.join_inflight(ki, group, page, write, tid) {
            let c = self.kernels[ki].block_current(tid, BlockReason::Remote("page"), at);
            self.kick(ki, c, at);
            return;
        }
        if me == serving {
            // A locally faulted page whose only copy died with a crashed
            // kernel fails like any other unrecoverable memory error.
            if self.recovery.scheduled && self.recovery.lost_pages.contains(&(group, page)) {
                self.fail_task(ki, tid, at);
                return;
            }
            // Consult the directory locally. Immediately grantable cases
            // resolve inline on the faulting core (the fast path the paper
            // compares against remote retrieval). While the group has no
            // remote replicas the protocol state is dormant (the paper
            // instantiates it lazily) and the fault is an ordinary local
            // one with no serialized directory service.
            let solo = self
                .groups
                .get(&group)
                .is_none_or(|h| h.remote_replicas().is_empty());
            let service = if solo {
                at
            } else {
                let dir_cost = SimTime::from_nanos(self.params.page_dir_service_ns);
                self.serve_page(group, me, at, dir_cost)
            };
            // Probe without registering: first-touch/upgrade are inline.
            let rpc = self.register_rpc(
                ki,
                Pending::Page(PageWait {
                    group,
                    page,
                    write,
                    started: at,
                    waiters: vec![(tid, write)],
                }),
                at,
                me,
            );
            let step = match self.dir_mut(group, page) {
                Some(dir) => dir.request(
                    page,
                    PageRequest {
                        rpc,
                        origin: me,
                        write,
                    },
                ),
                None => {
                    self.complete_rpc(ki, rpc);
                    return;
                }
            };
            match step {
                DirStep::Grant(g) => {
                    // Inline local fault service; allocating the backing
                    // page contends this kernel's allocator lock.
                    let version = g.version;
                    self.complete_rpc(ki, rpc);
                    self.kernels[ki]
                        .mm_mut(group)
                        .apply_grant(page, g.state, g.version, g.contents);
                    let zone_hold =
                        SimTime::from_nanos(self.kernels[ki].params().zone_lock_hold_ns);
                    let machine = self.machine;
                    let zone = self.zone_locks[ki].acquire(
                        service,
                        core,
                        zone_hold,
                        machine.interconnect(),
                    );
                    let fault_cost =
                        SimTime::from_nanos(self.kernels[ki].params().fault_service_ns);
                    let done = zone.released_at + fault_cost;
                    self.stats.faults_local.incr();
                    self.stats
                        .fault_local_lat
                        .record_time(done.saturating_sub(at));
                    self.kernels[ki].finish_fault_inline(tid, done);
                    self.kick(ki, core, done);
                    // This grant bypassed `deliver_grant`: push the new
                    // version to the replica holders from here.
                    self.push_pt_updates(group, page, version, me, done);
                    self.page_done_at_home(group, page, me, done);
                }
                step @ (DirStep::Fetch { .. } | DirStep::Invalidate { .. }) => {
                    self.inflight[ki].insert((group, page), InFlight { rpc, write });
                    let c = self.kernels[ki].block_current(tid, BlockReason::Remote("page"), at);
                    self.kick(ki, c, at);
                    self.exec_dir_step(group, page, step, me, service);
                }
                DirStep::Queued => {
                    self.inflight[ki].insert((group, page), InFlight { rpc, write });
                    let c = self.kernels[ki].block_current(tid, BlockReason::Remote("page"), at);
                    self.kick(ki, c, at);
                }
            }
        } else {
            let rpc = self.start_page_wait(ki, tid, group, page, write, serving, at);
            self.send(
                at,
                ki,
                serving,
                ProtoMsg::PageReq {
                    rpc,
                    origin: me,
                    group,
                    page,
                    write,
                },
            );
        }
    }

    /// `PageFetch` at a page's current owner: snapshot + downgrade, then
    /// ship the contents back to the serving kernel (`from`).
    pub(super) fn on_page_fetch(
        &mut self,
        from: KernelId,
        ki: usize,
        group: GroupId,
        page: PageNo,
        now: SimTime,
    ) {
        let contents = if self.kernels[ki].has_mm(group) {
            let mm = self.kernels[ki].mm_mut(group);
            match mm.page_info(page) {
                Some(info) => {
                    if info.state == PageState::Exclusive {
                        mm.set_page_state(page, PageState::ReadShared);
                    }
                    mm.snapshot_page(page)
                }
                None => PageContents::default(),
            }
        } else {
            PageContents::default()
        };
        let cost = SimTime::from_nanos(self.params.page_fetch_service_ns);
        let done = self.serve_page(group, from, now, cost);
        self.send(
            done,
            ki,
            from,
            ProtoMsg::PageFetched {
                group,
                page,
                contents,
            },
        );
    }

    /// `PageFetched` back at the serving kernel `to`: feed the directory
    /// shard and forward the resulting grant.
    pub(super) fn on_page_fetched(
        &mut self,
        to: KernelId,
        group: GroupId,
        page: PageNo,
        contents: PageContents,
        now: SimTime,
    ) {
        // A fetch answered after recovery already unwound the collection
        // (the directory no longer expects it) must be dropped, not fed in.
        if self.recovery.scheduled
            && !self
                .dir_mut(group, page)
                .is_some_and(|d| d.fetch_pending(page))
        {
            return;
        }
        if self.groups.contains_key(&group) {
            let grant = self
                .dir_mut(group, page)
                .expect("checked")
                .fetched(page, contents);
            self.deliver_grant(group, to, grant, now);
        }
    }

    /// `PageInval` at a holder: evict, TLB shootdown, ack with contents.
    pub(super) fn on_page_inval(
        &mut self,
        from: KernelId,
        ki: usize,
        group: GroupId,
        page: PageNo,
        now: SimTime,
    ) {
        let contents = self.evict_local(ki, group, page);
        let cost = SimTime::from_nanos(self.params.page_inval_service_ns);
        // IPI every other core of this kernel; a one-core kernel only
        // invalidates locally.
        let others = self.kernels[ki].num_cores() - 1;
        let sd = self.machine.shootdown().tlb_shootdown(others);
        let done = self.serve_page(group, from, now, cost + sd.initiator_busy);
        self.send(
            done,
            ki,
            from,
            ProtoMsg::PageInvalAck {
                group,
                page,
                contents,
            },
        );
    }

    /// `PageInvalAck` back at the serving kernel `to`: feed the directory
    /// shard; the last ack releases the grant.
    pub(super) fn on_page_inval_ack(
        &mut self,
        from: KernelId,
        to: KernelId,
        group: GroupId,
        page: PageNo,
        contents: Option<PageContents>,
        now: SimTime,
    ) {
        // Same late-answer hazard as `on_page_fetched`: only feed acks the
        // (possibly recovered) directory still expects.
        if self.recovery.scheduled
            && !self
                .dir_mut(group, page)
                .is_some_and(|d| d.expects_inval_ack(page, from))
        {
            return;
        }
        if self.groups.contains_key(&group) {
            let grant = self
                .dir_mut(group, page)
                .expect("checked")
                .inval_acked(page, from, contents);
            if let Some(grant) = grant {
                self.deliver_grant(group, to, grant, now);
            }
        }
    }
}
