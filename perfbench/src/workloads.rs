//! The three benchmark workloads: machine configuration plus the programs
//! each loads. Every workload is a fixed closed batch of modelled work that
//! runs to queue drain.

use popcorn_core::{PopcornOs, PopcornParams};
use popcorn_hw::{HwParams, Topology};
use popcorn_kernel::osmodel::{KernelClustering, OsModel};
use popcorn_kernel::params::OsParams;
use popcorn_kernel::program::{Placement, Program};
use popcorn_msg::{FaultPlan, KernelId, MsgParams};
use popcorn_workloads::team::{Team, TeamConfig};
use popcorn_workloads::{adversarial, micro};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E5's 4-thread row: four kernel-pinned map/touch/unmap processes.
    MmapLocal,
    /// Migrating writers, a hot shared page and a futex herd at once.
    MigrateMix,
    /// Same-socket page bouncers on a 32-kernel box with 1% message loss.
    LossyCluster,
}

/// Everything needed to build the OS model for one workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub topology: Topology,
    pub kernels: u16,
    pub clustering: Option<KernelClustering>,
    pub hw: HwParams,
    pub os: OsParams,
    pub msg: MsgParams,
    pub pop: PopcornParams,
}

// mmap_local: E5's 4-thread row (2880 total rounds / 4 threads).
const MMAP_PROCS: usize = 4;
const MMAP_ROUNDS: u32 = 720;
const MMAP_BYTES: u64 = 4 * 4096;

// lossy_cluster: E16's per-CCX box, with long-running bouncers.
const LOSSY_PAIRS_PER_SOCKET: u16 = 4;
const LOSSY_PAGES_EACH: u64 = 4;
const LOSSY_ROUNDS: u32 = 24_000;
const LOSSY_COMPUTE_NS: u64 = 10_000;
const LOSSY_DROP_P: f64 = 0.01;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MmapLocal,
        Workload::MigrateMix,
        Workload::LossyCluster,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MmapLocal => "mmap_local",
            Workload::MigrateMix => "migrate_mix",
            Workload::LossyCluster => "lossy_cluster",
        }
    }

    /// Whether the seed changes the modelled run (only the drop plan uses
    /// it; the other workloads are scripted).
    pub fn uses_seed(self) -> bool {
        self == Workload::LossyCluster
    }

    /// The machine and parameters. Only `lossy_cluster` reads `seed`.
    pub fn config(self, seed: u64) -> Config {
        let base = Config {
            topology: Topology::paper_default(),
            kernels: 4,
            clustering: None,
            hw: HwParams::default(),
            os: OsParams::default(),
            msg: MsgParams::default(),
            pop: PopcornParams::default(),
        };
        match self {
            Workload::MmapLocal | Workload::MigrateMix => base,
            Workload::LossyCluster => Config {
                topology: Topology::with_ccx(4, 8, 8),
                clustering: Some(KernelClustering::PerCcx),
                msg: MsgParams {
                    faults: FaultPlan::uniform_drop(seed, LOSSY_DROP_P),
                    ..MsgParams::default()
                },
                pop: PopcornParams {
                    home_sharding: true,
                    ..PopcornParams::default()
                },
                ..base
            },
        }
    }

    /// The processes to load, in load order (homes are assigned
    /// round-robin across kernels by load order).
    pub fn programs(self) -> Vec<Box<dyn Program>> {
        match self {
            Workload::MmapLocal => (0..MMAP_PROCS)
                .map(|_| {
                    let mut cfg = TeamConfig::new(1, 0);
                    cfg.placement = Placement::Local;
                    Team::boxed(
                        cfg,
                        Box::new(|_, _| Box::new(micro::MmapWorker::new(MMAP_ROUNDS, MMAP_BYTES))),
                    )
                })
                .collect(),
            Workload::MigrateMix => vec![
                adversarial::migrating_writers(16, 1800, 4, 8, 20_000),
                adversarial::hot_page_skew(16, 4, 3600),
                adversarial::thundering_herd(15, 3600, 5_000),
            ],
            Workload::LossyCluster => {
                vec![adversarial::kernel_pair_bouncers(
                    lossy_pairs(),
                    LOSSY_PAGES_EACH,
                    LOSSY_ROUNDS,
                    LOSSY_COMPUTE_NS,
                )]
            }
        }
    }

    /// Threads that must exit: each team's leader plus its workers.
    pub fn expected_exits(self) -> u64 {
        match self {
            Workload::MmapLocal => MMAP_PROCS as u64 * 2,
            Workload::MigrateMix => (16 + 1) + (16 + 1) + (15 + 1 + 1),
            Workload::LossyCluster => 4 * u64::from(LOSSY_PAIRS_PER_SOCKET) * 2 + 1,
        }
    }
}

/// Same-socket kernel neighbours on the per-CCX box: 8 kernels per socket,
/// `LOSSY_PAIRS_PER_SOCKET` disjoint pairs on each.
fn lossy_pairs() -> Vec<(KernelId, KernelId)> {
    let topo = Topology::with_ccx(4, 8, 8);
    let sockets = topo.num_sockets();
    let per_socket = KernelClustering::PerCcx.kernel_count(topo) / sockets;
    (0..sockets)
        .flat_map(|s| {
            (0..LOSSY_PAIRS_PER_SOCKET).map(move |j| {
                let first = s * per_socket + 2 * j;
                (KernelId(first), KernelId(first + 1))
            })
        })
        .collect()
}

/// Builds the OS model with `PopcornOs::builder()` and loads the programs:
/// the set-up that `setup_s` times.
pub fn build_os(w: Workload, seed: u64) -> PopcornOs {
    let c = w.config(seed);
    let mut b = PopcornOs::builder()
        .topology(c.topology)
        .kernels(c.kernels)
        .hw_params(c.hw)
        .os_params(c.os)
        .msg_params(c.msg)
        .popcorn_params(c.pop);
    if let Some(cl) = c.clustering {
        b = b.clustering(cl);
    }
    let mut os = b.build();
    for p in w.programs() {
        os.load(p);
    }
    os
}
