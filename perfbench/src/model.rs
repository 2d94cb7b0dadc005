//! Reading a finished run: the correctness checks, the attempted/failed
//! operation counts, and every modelled (virtual-time) or counted metric.
//! These are deterministic for a given workload and seed.

use std::collections::BTreeMap;

use popcorn_core::proto::Protocol;
use popcorn_core::PopcornOs;
use popcorn_kernel::osmodel::{self, RunReport};
use popcorn_sim::{Histogram, StopCondition};

use crate::workloads::Workload;

/// A p99 is reported only with at least this many samples, so that ten or
/// more lie above it.
pub const P99_MIN_SAMPLES: u64 = 1000;

/// What one untraced run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every modelled number the run reports, for the repeat check.
    pub fingerprint: BTreeMap<String, f64>,
    /// Named metrics, by benchmark metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Syscalls + faults + migrations.
    pub attempted: u64,
    /// Failed operations: `ops_failed + rpc_timeouts + fault_kills +
    /// migrations_aborted`.
    pub failed: u64,
    /// The fidelity-guard view: event count, `PopStats::metrics()`, the
    /// kernel counters and the fabric's send count.
    pub guard: Guard,
}

/// What the traced run must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Guard {
    pub events: u64,
    pub stats: BTreeMap<String, f64>,
    pub kernel: BTreeMap<String, f64>,
    pub sends: u64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// `q`-quantile in µs, or 0 when the histogram has fewer than `min` samples.
fn quantile_us(h: &Histogram, q: f64, min: u64) -> f64 {
    if h.count() >= min.max(1) {
        us(h.quantile(q))
    } else {
        0.0
    }
}

/// The correctness checks every run must pass: the queue drained, no task
/// is stuck, and every thread of the workload exited. (The invariant audit
/// runs inside `run_with` itself and panics on a violation.)
pub fn check(w: Workload, r: &RunReport) -> Result<(), String> {
    if r.stop != StopCondition::QueueEmpty {
        return Err(format!("run stopped at {:?}", r.stop));
    }
    if !r.stuck_tasks.is_empty() {
        return Err(format!("stuck tasks {:?}", r.stuck_tasks));
    }
    if r.exited_tasks != w.expected_exits() {
        return Err(format!(
            "{} threads exited, expected {}",
            r.exited_tasks,
            w.expected_exits()
        ));
    }
    Ok(())
}

/// Reads every modelled metric of a finished run.
pub fn read(os: &PopcornOs, r: &RunReport) -> Outcome {
    let s = os.stats();
    let fabric = os.fabric();
    let mut migrations = s.migration_first_lat.clone();
    migrations.merge(&s.migration_back_lat);
    let mut sched = Histogram::new();
    for k in os.kernels() {
        sched.merge(&k.stats.sched_latency);
    }
    let mut service = Histogram::new();
    for p in Protocol::ALL {
        service.merge(&s.proto.get(p).service);
    }
    let msg_latency = fabric.latency_histogram();
    let queue_delay = fabric.queue_delay_histogram();
    let sends = fabric.total_sends();
    let retransmits = s.retransmits.get();

    let attempted = (r.metric("syscalls") + r.metric("faults")) as u64 + migrations.count();
    let failed = s.ops_failed.get()
        + s.rpc_timeouts.get()
        + s.fault_kills.get()
        + s.migrations_aborted.get();

    let mut m = BTreeMap::new();
    m.insert("virt_ms", r.finished_at.as_millis_f64());
    m.insert(
        "fault_local_us.p50",
        quantile_us(&s.fault_local_lat, 0.5, 1),
    );
    m.insert(
        "fault_local_us.p99",
        quantile_us(&s.fault_local_lat, 0.99, P99_MIN_SAMPLES),
    );
    m.insert(
        "fault_remote_us.p50",
        quantile_us(&s.fault_remote_write_lat, 0.5, 1),
    );
    m.insert(
        "fault_remote_us.p99",
        quantile_us(&s.fault_remote_write_lat, 0.99, P99_MIN_SAMPLES),
    );
    m.insert(
        "fault_remote.samples",
        s.fault_remote_write_lat.count() as f64,
    );
    m.insert("migration_us.p50", quantile_us(&migrations, 0.5, 1));
    m.insert(
        "migration_us.p99",
        quantile_us(&migrations, 0.99, P99_MIN_SAMPLES),
    );
    m.insert("migration.samples", migrations.count() as f64);
    m.insert(
        "failed_frac",
        if attempted > 0 {
            failed as f64 / attempted as f64
        } else {
            0.0
        },
    );

    m.insert("sim.events", r.events as f64);
    m.insert("kernel.syscalls", r.metric("syscalls"));
    m.insert("kernel.faults", r.metric("faults"));
    m.insert("kernel.ctx_switches", r.metric("ctx_switches"));
    m.insert(
        "kernel.sched_latency_us.p99",
        quantile_us(&sched, 0.99, P99_MIN_SAMPLES),
    );

    m.insert("core.page_transfers", s.page_transfers.get() as f64);
    m.insert("core.invalidations", s.invalidations.get() as f64);
    m.insert(
        "core.rpcs_issued",
        Protocol::ALL
            .iter()
            .map(|&p| s.proto.get(p).rpcs_issued.get())
            .sum::<u64>() as f64,
    );
    m.insert("core.home_peak_depth", r.metric("home_peak_depth"));
    m.insert("core.home_busy_pct_max", r.metric("home_busy_pct_max"));
    m.insert("core.service_us_mean", service.mean() / 1_000.0);
    m.insert(
        "core.shard_delegated_pages",
        s.shard_delegated_pages.get() as f64,
    );
    m.insert("core.shard_escalations", s.shard_escalations.get() as f64);

    m.insert("msg.sends", sends as f64);
    m.insert("msg.latency_us.p50", quantile_us(msg_latency, 0.5, 1));
    m.insert(
        "msg.latency_us.p99",
        quantile_us(msg_latency, 0.99, P99_MIN_SAMPLES),
    );
    m.insert(
        "msg.queue_delay_us.p99",
        quantile_us(&queue_delay, 0.99, P99_MIN_SAMPLES),
    );
    m.insert("msg.retransmits", retransmits as f64);
    m.insert("msg.acks_sent", s.acks_sent.get() as f64);
    m.insert("msg.dup_suppressed", s.dup_suppressed.get() as f64);
    m.insert("msg.drops_injected", fabric.fault_counters().drops as f64);
    m.insert(
        "msg.retx_frac",
        if sends > 0 {
            retransmits as f64 / sends as f64
        } else {
            0.0
        },
    );

    let mut fingerprint = r.metrics.clone();
    fingerprint.insert("finished_at_ns".into(), r.finished_at.as_nanos() as f64);
    fingerprint.insert("events".into(), r.events as f64);
    fingerprint.insert("exited_tasks".into(), r.exited_tasks as f64);
    for (k, v) in &m {
        fingerprint.insert((*k).to_string(), *v);
    }
    Outcome {
        fingerprint,
        metrics: m,
        attempted,
        failed,
        guard: Guard {
            events: r.events,
            stats: s.metrics(),
            kernel: osmodel::base_metrics(os.kernels()),
            sends,
        },
    }
}
