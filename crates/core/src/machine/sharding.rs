//! Hierarchical home sharding: per-socket directory delegates under a
//! cluster-level root home.
//!
//! With `home_sharding` on, the flat home layer becomes a two-level
//! hierarchy. A group's **root home** (the [`KernelCtx::home_of`] kernel —
//! still the membership/VMA/futex serialization point and the crash
//! failover anchor) additionally owns the **shard map** deciding which
//! kernel serves each page. Every NUMA socket has a **home delegate** (its
//! lowest-numbered kernel); a page first touched from a non-root socket is
//! delegated to that socket's delegate, which from then on owns the page's
//! directory entry in its shard ([`crate::group::GroupHome::shard_dir`])
//! and serializes its coherence traffic behind its own delegate server.
//! Cross-socket traffic on a delegated page marks it for **escalation**:
//! as soon as the entry quiesces it moves back verbatim into the root
//! directory (root-owned forever after), so delegates only ever arbitrate
//! socket-local traffic.
//!
//! The shard map is root-owned state that other kernels read directly when
//! routing a fault — the same omniscient-but-deterministic shortcut the
//! crash layer's `home_override` relies on. A request that reaches a
//! kernel no longer serving the page is forwarded as a real fabric message
//! and counted (`shard_forwards`); entries cannot move while busy, so a
//! forwarded request finds the page at its destination.
//!
//! With sharding off — or with every kernel on one socket — the map stays
//! empty, every resolver degenerates to `home_of`, and no delegate server
//! is ever created: the flat home is byte-identical to a build without
//! this module (the same inertness discipline as `page_table_replication`).

use std::collections::BTreeSet;

use popcorn_hw::{Machine, SocketId};
use popcorn_kernel::kernel::Kernel;
use popcorn_kernel::types::{GroupId, PageNo};
use popcorn_msg::KernelId;
use popcorn_sim::FastMap;

use crate::directory::Directory;

use super::KernelCtx;

/// Machine-wide sharding state: the socket layout (fixed at construction)
/// plus the root-owned shard map and escalation marks.
#[derive(Debug, Default)]
pub struct ShardCtl {
    /// Mirror of `PopcornParams::home_sharding`; false keeps every page on
    /// the flat home path.
    pub enabled: bool,
    /// The socket each kernel is anchored on (by its first core).
    kernel_socket: Vec<SocketId>,
    /// Per-socket home delegate: the lowest kernel anchored on the socket.
    socket_leads: Vec<Option<KernelId>>,
    /// Pages delegated away from their group's root home, and the delegate
    /// serving them. An entry exists only while a non-root delegate serves
    /// the page; root-served pages are never listed. A hash map: nothing
    /// acts on its order (only the invariant audit walks it, to word its
    /// failure messages).
    pub map: FastMap<(GroupId, PageNo), KernelId>,
    /// Delegated pages marked for escalation after cross-socket traffic;
    /// drained (entry moved root-ward) when the page quiesces.
    pub escalate: BTreeSet<(GroupId, PageNo)>,
}

impl ShardCtl {
    /// Computes the socket layout for a kernel set. The layout is computed
    /// even when sharding is disabled: the NUMA-distance pt-replica
    /// eviction policy reuses it.
    pub fn new(kernels: &[Kernel], machine: &Machine, enabled: bool) -> Self {
        let topo = machine.topology();
        let kernel_socket: Vec<SocketId> = kernels
            .iter()
            .map(|k| topo.socket_of(k.cores()[0]))
            .collect();
        let mut socket_leads: Vec<Option<KernelId>> = vec![None; topo.num_sockets() as usize];
        for (i, &s) in kernel_socket.iter().enumerate() {
            let lead = &mut socket_leads[s.0 as usize];
            if lead.is_none() {
                *lead = Some(KernelId(i as u16));
            }
        }
        ShardCtl {
            enabled,
            kernel_socket,
            socket_leads,
            map: FastMap::default(),
            escalate: BTreeSet::new(),
        }
    }

    /// The socket kernel `k` is anchored on.
    pub fn socket_of(&self, k: KernelId) -> SocketId {
        self.kernel_socket[k.0 as usize]
    }

    /// The home delegate of `socket`: the lowest kernel anchored there, or
    /// `None` for a socket no kernel covers (per-socket clustering of a
    /// machine with idle sockets).
    pub fn lead_of(&self, socket: SocketId) -> Option<KernelId> {
        self.socket_leads[socket.0 as usize]
    }

    /// Demotes a crashed kernel from any socket-lead role: first touches
    /// from its socket fall back to the root home from now on (crash
    /// recovery; a conservative demotion rather than promoting a
    /// surviving socket-mate, which would have to reason about other
    /// in-flight crashes).
    pub fn remove_lead(&mut self, k: KernelId) {
        for lead in &mut self.socket_leads {
            if *lead == Some(k) {
                *lead = None;
            }
        }
    }

    /// Drops every map/escalation entry of `group` (group reap).
    pub fn forget_group(&mut self, group: GroupId) {
        self.map.retain(|&(g, _), _| g != group);
        self.escalate.retain(|&(g, _)| g != group);
    }

    /// Drops map/escalation entries of `group` for pages in
    /// `[start, start + len)` (VMA unmap).
    pub fn forget_range(&mut self, group: GroupId, start: PageNo, len: u64) {
        let gone = |p: PageNo| p.0 >= start.0 && p.0 < start.0 + len;
        self.map.retain(|&(g, p), _| g != group || !gone(p));
        self.escalate.retain(|&(g, p)| g != group || !gone(p));
    }
}

impl KernelCtx<'_, '_> {
    /// The single authority for "which kernel is `group`'s home": the
    /// crash layer's re-homing overrides win, then the group's recorded
    /// home kernel. Every module resolves homes through here — never via
    /// `GroupId::home()` directly — so failover re-routing is one code
    /// path, not a convention.
    pub(super) fn home_of(&self, group: GroupId) -> KernelId {
        if self.recovery.scheduled {
            if let Some(&k) = self.recovery.home_override.get(&group) {
                return k;
            }
        }
        match self.groups.get(&group) {
            Some(h) => h.home(),
            // Already-reaped groups (late messages) fall back to the
            // static derivation the home was seeded from.
            None => group.home(),
        }
    }

    /// The kernel currently serving `page`'s directory entry: the mapped
    /// delegate if the root delegated it, otherwise the root home. With
    /// sharding off this is exactly [`Self::home_of`].
    pub(super) fn page_home(&self, group: GroupId, page: PageNo) -> KernelId {
        if !self.sharding.enabled {
            return self.home_of(group);
        }
        match self.sharding.map.get(&(group, page)) {
            Some(&d) => d,
            None => self.home_of(group),
        }
    }

    /// The delegate a first touch from `origin` assigns a page to: the
    /// origin socket's lead kernel, or the root itself for root-socket
    /// origins (and for sockets without a lead).
    pub(super) fn delegate_for(&self, group: GroupId, origin: KernelId) -> KernelId {
        let root = self.home_of(group);
        let socket = self.sharding.socket_of(origin);
        if socket == self.sharding.socket_of(root) {
            return root;
        }
        self.sharding.lead_of(socket).unwrap_or(root)
    }

    /// The directory shard holding `page`'s entry: the mapped delegate's
    /// shard for a delegated page, the root directory otherwise. The map
    /// — not the caller's identity — is the single routing authority, so
    /// a delegate that inherited the root role after a crash still finds
    /// its pre-adoption entries in its own shard. `None` if the group is
    /// gone.
    pub(super) fn dir_mut(&mut self, group: GroupId, page: PageNo) -> Option<&mut Directory> {
        let delegate = if self.sharding.enabled {
            self.sharding.map.get(&(group, page)).copied()
        } else {
            None
        };
        let h = self.groups.get_mut(&group)?;
        Some(match delegate {
            Some(d) => h.shard_dir(d),
            None => &mut h.dir,
        })
    }

    /// Completes a pending escalation: once the delegate's entry for a
    /// marked page is idle, it moves verbatim into the root directory and
    /// the map forgets the delegation (the page is root-served forever
    /// after). Called whenever a delegated page may have quiesced; a
    /// still-busy entry stays marked and is retried on its next release.
    pub(super) fn try_escalate(&mut self, group: GroupId, page: PageNo) {
        if !self.sharding.escalate.contains(&(group, page)) {
            return;
        }
        let Some(&delegate) = self.sharding.map.get(&(group, page)) else {
            self.sharding.escalate.remove(&(group, page));
            return;
        };
        let Some(h) = self.groups.get_mut(&group) else {
            return;
        };
        let Some(entry) = h.shard_dir(delegate).extract(page) else {
            return; // still busy at the delegate; retried on next release
        };
        h.dir.adopt(page, entry);
        self.sharding.map.remove(&(group, page));
        self.sharding.escalate.remove(&(group, page));
        self.stats.shard_escalations.incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_hw::{CoreId, HwParams, Topology};
    use popcorn_kernel::OsParams;

    fn kernels_for(machine: &Machine, per_kernel: &[Vec<u16>]) -> Vec<Kernel> {
        per_kernel
            .iter()
            .enumerate()
            .map(|(i, cores)| {
                Kernel::new(
                    KernelId(i as u16),
                    cores.iter().map(|&c| CoreId(c)).collect(),
                    OsParams::default(),
                    machine.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn socket_layout_anchors_each_kernel_by_first_core() {
        // 2 sockets x 4 cores, one kernel per socket.
        let machine = Machine::new(Topology::new(2, 4), HwParams::default());
        let kernels = kernels_for(&machine, &[vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
        let ctl = ShardCtl::new(&kernels, &machine, true);
        assert_eq!(ctl.socket_of(KernelId(0)), SocketId(0));
        assert_eq!(ctl.socket_of(KernelId(1)), SocketId(1));
        assert_eq!(ctl.lead_of(SocketId(0)), Some(KernelId(0)));
        assert_eq!(ctl.lead_of(SocketId(1)), Some(KernelId(1)));
    }

    #[test]
    fn lead_is_lowest_kernel_on_the_socket() {
        // 2 sockets x 4 cores, one kernel per 2 cores (4 kernels).
        let machine = Machine::new(Topology::new(2, 4), HwParams::default());
        let kernels = kernels_for(&machine, &[vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]);
        let ctl = ShardCtl::new(&kernels, &machine, true);
        assert_eq!(ctl.lead_of(SocketId(0)), Some(KernelId(0)));
        assert_eq!(ctl.lead_of(SocketId(1)), Some(KernelId(2)));
        assert_eq!(ctl.socket_of(KernelId(1)), SocketId(0));
        assert_eq!(ctl.socket_of(KernelId(3)), SocketId(1));
    }

    #[test]
    fn uncovered_socket_has_no_lead() {
        // 2 sockets but both kernels sit on socket 0.
        let machine = Machine::new(Topology::new(2, 4), HwParams::default());
        let kernels = kernels_for(&machine, &[vec![0, 1], vec![2, 3]]);
        let ctl = ShardCtl::new(&kernels, &machine, true);
        assert_eq!(ctl.lead_of(SocketId(1)), None);
    }

    #[test]
    fn forget_range_drops_only_the_unmapped_pages() {
        let mut ctl = ShardCtl::default();
        let g = GroupId(popcorn_kernel::types::Tid::new(KernelId(0), 1));
        ctl.map.insert((g, PageNo(10)), KernelId(1));
        ctl.map.insert((g, PageNo(20)), KernelId(1));
        ctl.escalate.insert((g, PageNo(20)));
        ctl.forget_range(g, PageNo(15), 10);
        assert!(ctl.map.contains_key(&(g, PageNo(10))));
        assert!(!ctl.map.contains_key(&(g, PageNo(20))));
        assert!(ctl.escalate.is_empty());
    }
}
