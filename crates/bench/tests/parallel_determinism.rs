//! The guarantee of the parallel harness: running independent simulations
//! on host threads (`--jobs`) produces byte-identical table JSON to a fully
//! serial run. Every simulation itself runs on one thread; this test checks
//! only that sweeping cells across `--jobs` workers changes no byte. One
//! test function (not several) because the knob is process-global and
//! tests in one binary run concurrently.

use popcorn_bench::experiments;
use popcorn_bench::{set_jobs, Table};

/// A named experiment entry point.
type Case = (&'static str, fn() -> Table);

#[test]
fn parallel_runs_are_byte_identical_to_serial() {
    // Six experiments with different shapes: E1 sweeps the message fabric
    // (pure latency math), E4 sweeps full-OS page-protocol sims, E5 sweeps
    // kernel-pinned mmap storms on all three OS models, E13 sweeps the
    // policy × adversarial-scenario matrix (the policy machinery —
    // telemetry ticks, steals, wake chases — must be exactly as
    // deterministic as the scripted paths), E15 sweeps the page-table
    // replication ablation (walk charges, update pushes and the
    // replica-aware policy included), and E16 sweeps hierarchical home
    // sharding on the 256-core per-CCX machine.
    let cases: [Case; 6] = [
        ("e1", experiments::e1_messaging),
        ("e4", experiments::e4_page_protocol),
        ("e5", experiments::e5_mmap_storm),
        ("e13", experiments::e13_policies),
        ("e15", popcorn_bench::e15::e15_replication),
        ("e16", popcorn_bench::e16::e16_hierarchical_homes),
    ];
    for (id, f) in cases {
        set_jobs(1);
        let serial = f().to_json_pretty();
        set_jobs(4);
        let parallel = f().to_json_pretty();
        set_jobs(0);
        assert_eq!(
            serial, parallel,
            "{id}: --jobs 4 output diverged from --serial"
        );
        // Parallel runs are also stable run-to-run.
        set_jobs(4);
        let again = f().to_json_pretty();
        set_jobs(0);
        assert_eq!(parallel, again, "{id}: parallel run not reproducible");
    }
}
