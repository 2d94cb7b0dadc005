//! Whole-system randomized tests spanning all three OS models: randomized
//! workload configurations must complete cleanly, deterministically, and
//! with behaviour equivalent across the OS designs (the single-system
//! image promise). Driven by the deterministic [`SimRng`] (the build is
//! offline, so no external property-testing framework).

use popcorn::baselines::{MultikernelOs, SmpOs};
use popcorn::core::{PopcornOs, PopcornParams};
use popcorn::hw::Topology;
use popcorn::kernel::osmodel::{OsModel, RunReport};
use popcorn::kernel::program::{Placement, Program};
use popcorn::msg::{ChannelFaults, FaultPlan, MsgParams};
use popcorn::sim::SimRng;
use popcorn::workloads::micro;
use popcorn::workloads::npb::{self, NpbConfig};
use popcorn::workloads::team::{Team, TeamConfig};

fn run_popcorn(kernels: u16, program: Box<dyn Program>) -> RunReport {
    let mut os = PopcornOs::builder()
        .topology(Topology::new(2, 4))
        .kernels(kernels)
        .build();
    os.load(program);
    os.run()
}

fn run_popcorn_with(
    kernels: u16,
    pop: PopcornParams,
    faults: FaultPlan,
    program: Box<dyn Program>,
) -> RunReport {
    let mut os = PopcornOs::builder()
        .topology(Topology::new(2, 4))
        .kernels(kernels)
        .popcorn_params(pop)
        .msg_params(MsgParams {
            faults,
            ..MsgParams::default()
        })
        .build();
    os.load(program);
    os.run()
}

fn run_smp(program: Box<dyn Program>) -> RunReport {
    let mut os = SmpOs::builder().topology(Topology::new(2, 4)).build();
    os.load(program);
    os.run()
}

fn run_mk(kernels: u16, program: Box<dyn Program>) -> RunReport {
    let mut os = MultikernelOs::builder()
        .topology(Topology::new(2, 4))
        .kernels(kernels)
        .build();
    os.load(program);
    os.run()
}

/// Random team shapes complete on every OS with the exact expected thread
/// count, no segfaults and no stuck tasks.
#[test]
fn random_teams_complete_everywhere() {
    let mut rng = SimRng::new(0x5EED_6001);
    for _ in 0..24 {
        let threads = rng.range_u64(1, 10) as usize;
        let iters = rng.range_u64(1, 12) as u32;
        let pages = rng.range_u64(1, 6);
        let kernels = rng.range_u64(1, 5) as u16;
        let make = || {
            Team::boxed(
                TeamConfig::new(threads, pages * 4096),
                Box::new(move |i, shared| {
                    Box::new(micro::PageBounceWorker::new(
                        shared.data,
                        pages,
                        iters,
                        i as u64,
                    ))
                }),
            )
        };
        for r in [
            run_popcorn(kernels, make()),
            run_smp(make()),
            run_mk(kernels, make()),
        ] {
            assert!(r.is_clean(), "{} stuck: {:?}", r.os, r.stuck_tasks);
            assert_eq!(r.exited_tasks as usize, threads + 1, "{}", r.os);
            assert_eq!(r.metric("segv"), 0.0, "{}", r.os);
        }
    }
}

/// The replicated kernel is deterministic: identical configurations finish
/// at the identical virtual nanosecond.
#[test]
fn popcorn_runs_are_deterministic() {
    let mut rng = SimRng::new(0x5EED_6002);
    for _ in 0..24 {
        let threads = rng.range_u64(1, 8) as usize;
        let iters = rng.range_u64(1, 8) as u32;
        let kernels = rng.range_u64(1, 5) as u16;
        let make = || {
            Team::boxed(
                TeamConfig::new(threads, 4 * 4096),
                Box::new(move |i, shared| {
                    Box::new(micro::PageBounceWorker::new(
                        shared.data,
                        4,
                        iters,
                        i as u64,
                    ))
                }),
            )
        };
        let a = run_popcorn(kernels, make());
        let b = run_popcorn(kernels, make());
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.events, b.events);
        assert_eq!(&a.metrics, &b.metrics);
    }
}

/// NPB-class kernels complete with the right thread counts on popcorn
/// regardless of shape.
#[test]
fn npb_kernels_complete_on_popcorn() {
    let mut rng = SimRng::new(0x5EED_6003);
    for _ in 0..24 {
        let which = rng.range_u64(0, 4) as u8;
        let threads = rng.range_u64(1, 8) as usize;
        let iterations = rng.range_u64(1, 5) as u32;
        let cfg = NpbConfig {
            threads,
            iterations,
            pages_per_thread: 2,
            compute_cycles: 20_000,
            barrier_groups: 0,
        };
        let program = match which {
            0 => npb::is_benchmark(cfg),
            1 => npb::cg_benchmark(cfg),
            2 => npb::ft_benchmark(cfg),
            _ => npb::mg_benchmark(cfg),
        };
        let r = run_popcorn(4, program);
        assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
        assert_eq!(r.exited_tasks as usize, threads + 1);
        assert_eq!(r.metric("segv"), 0.0);
    }
}

/// Popcorn's kernel-count knob never changes *what* happens, only how long
/// it takes: thread counts and mutex totals match across 1..4 kernels
/// (SSI functional equivalence).
#[test]
fn kernel_count_is_functionally_transparent() {
    let mut rng = SimRng::new(0x5EED_6004);
    for _ in 0..24 {
        let threads = rng.range_u64(2, 8) as usize;
        let iters = rng.range_u64(1, 10) as u32;
        let make = || micro::futex_contention(threads, iters, 1_000);
        let mut exits = Vec::new();
        for kernels in [1u16, 2, 4] {
            let r = run_popcorn(kernels, make());
            assert!(r.is_clean(), "k={kernels} stuck: {:?}", r.stuck_tasks);
            exits.push(r.exited_tasks);
        }
        assert!(exits.windows(2).all(|w| w[0] == w[1]));
    }
}

/// Spawn storms with random placement complete with exact accounting on
/// the replicated kernel.
#[test]
fn spawn_storms_account_exactly() {
    let mut rng = SimRng::new(0x5EED_6005);
    for _ in 0..24 {
        let children = rng.range_u64(1, 16) as usize;
        let local = rng.chance(0.5);
        let placement = if local {
            Placement::Local
        } else {
            Placement::Auto
        };
        let r = run_popcorn(4, micro::spawn_join_storm(children, placement));
        assert!(r.is_clean());
        assert_eq!(r.exited_tasks as usize, children + 1);
        assert_eq!(r.metric("spawned") as usize, children + 1);
    }
}

/// Every legal combination of the protocol feature gates (home sharding,
/// page-table replication with and without first-fault seeding,
/// first-touch sync-word homing, eager VMA replication), with and without
/// 1% message loss, runs random page-bouncing teams to a clean finish
/// under the invariant audit and exits exactly as many tasks as the
/// all-gates-off run. Sharding × replication is skipped: `validate()`
/// rejects that pair.
#[test]
fn combined_feature_gates_complete_cleanly() {
    let mut gates = Vec::new();
    for (sharding, replication, first_fault) in [
        (false, false, false),
        (true, false, false),
        (false, true, false),
        (false, true, true),
    ] {
        for first_touch in [false, true] {
            for eager_vma in [false, true] {
                gates.push(PopcornParams {
                    home_sharding: sharding,
                    page_table_replication: replication,
                    replicate_on_first_fault: first_fault,
                    sync_first_touch_homing: first_touch,
                    eager_vma_replication: eager_vma,
                    check_invariants: true,
                    ..PopcornParams::default()
                });
            }
        }
    }
    // Evidence that each gate and the loss plan actually engaged, and that
    // every gate combination suppressed duplicates by sequence header.
    let (mut drops, mut delegated, mut replica_installs) = (0.0, 0.0, 0.0);
    let mut dups_suppressed = vec![0.0; gates.len()];
    let mut rng = SimRng::new(0x5EED_6006);
    for _ in 0..24 {
        let threads = rng.range_u64(1, 10) as usize;
        let iters = rng.range_u64(1, 12) as u32;
        let pages = rng.range_u64(1, 6);
        let kernels = rng.range_u64(2, 5) as u16;
        let seed = rng.next_u64();
        let make = || {
            Team::boxed(
                TeamConfig::new(threads, pages * 4096),
                Box::new(move |i, shared| {
                    Box::new(micro::PageBounceWorker::new(
                        shared.data,
                        pages,
                        iters,
                        i as u64,
                    ))
                }),
            )
        };
        let base = run_popcorn_with(kernels, gates[0].clone(), FaultPlan::none(), make());
        assert!(base.is_clean(), "gates off stuck: {:?}", base.stuck_tasks);
        // Duplicates and extra delay on top of the 1% drops.
        let noisy = FaultPlan {
            seed,
            uniform: Some(ChannelFaults {
                drop_p: 0.01,
                dup_p: 0.05,
                delay_p: 0.05,
                delay_max_ns: 20_000,
            }),
            ..FaultPlan::none()
        };
        for (gate, pop) in gates.iter().enumerate() {
            for faults in [
                FaultPlan::none(),
                FaultPlan::uniform_drop(seed, 0.01),
                noisy.clone(),
            ] {
                let plan = faults.uniform.clone();
                let r = run_popcorn_with(kernels, pop.clone(), faults, make());
                let cell = format!(
                    "k={kernels} sharding={} replication={} first_fault={} \
                     first_touch={} eager_vma={} faults={plan:?}",
                    pop.home_sharding,
                    pop.page_table_replication,
                    pop.replicate_on_first_fault,
                    pop.sync_first_touch_homing,
                    pop.eager_vma_replication,
                );
                assert!(r.is_clean(), "{cell}: stuck {:?}", r.stuck_tasks);
                assert_eq!(r.metric("segv"), 0.0, "{cell}");
                assert_eq!(r.exited_tasks, base.exited_tasks, "{cell}");
                drops += r.metric("drops_injected");
                delegated += r.metric("shard_delegated_pages");
                replica_installs += r.metric("replica_installs");
                dups_suppressed[gate] += r.metric("dup_suppressed");
            }
        }
    }
    assert!(drops > 0.0, "the lossy plan never dropped a message");
    for (pop, dups) in gates.iter().zip(&dups_suppressed) {
        assert!(*dups > 0.0, "no duplicate was suppressed under {pop:?}");
    }
    assert!(delegated > 0.0, "home sharding never delegated a page");
    assert!(
        replica_installs > 0.0,
        "replication never installed a replica"
    );
}
