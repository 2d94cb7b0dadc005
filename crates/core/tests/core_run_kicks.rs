//! The core-kick contract at machine scale: whoever occupies a core kicks
//! it when it frees, so a stale `CoreRun` on an occupied core ends there.
//!
//! Kicks are not coalesced. When a stale poll used to re-arm itself at the
//! occupation's end, every redundant kick (one per syscall on E5's
//! map/touch/unmap storm) became a chain that lived as long as the core
//! stayed busy, and the event count grew with the square of the work:
//! E5's 4-thread row took ~12.5M events where ~23k did work. This pins
//! the count linear in the work itself.

use popcorn_core::PopcornOs;
use popcorn_hw::Topology;
use popcorn_kernel::osmodel::OsModel;
use popcorn_kernel::program::Placement;
use popcorn_sim::{SimTime, StopCondition};
use popcorn_workloads::micro;
use popcorn_workloads::team::{Team, TeamConfig};

/// E5's 4-thread row: four processes, one kernel-local `MmapWorker` each
/// (720 rounds of 16 KiB), one process per kernel of the paper box.
#[test]
fn mmap_storm_core_runs_stay_linear_in_work() {
    let mut os = PopcornOs::builder()
        .topology(Topology::paper_default())
        .kernels(4)
        .build();
    for _ in 0..4 {
        let mut cfg = TeamConfig::new(1, 0);
        cfg.placement = Placement::Local;
        os.load(Team::boxed(
            cfg,
            Box::new(|_, _| Box::new(micro::MmapWorker::new(720, 4 * 4096))),
        ));
    }
    // A budget far above the linear count but far below the quadratic
    // one, so a regression fails fast instead of grinding through it.
    let r = os.run_with(SimTime::MAX, 1_000_000);
    assert_eq!(r.stop, StopCondition::QueueEmpty, "kick chains came back");
    assert!(r.is_clean(), "stuck: {:?}", r.stuck_tasks);
    assert_eq!(r.exited_tasks, 8);
    let work = r.metric("syscalls") + r.metric("faults") + r.metric("ctx_switches");
    assert!(work > 17_000.0, "the storm ran: {work} units of work");
    // No messages cross kernels here, so (nearly) every event is a
    // `CoreRun`: at most a couple per unit of work.
    assert!(
        (r.events as f64) <= 2.0 * work,
        "{} events for {work} syscalls + faults + context switches",
        r.events
    );
}
