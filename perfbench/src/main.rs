//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <mmap_local|migrate_mix|lossy_cluster>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload's closed batch on the serial engine for
//! `--seconds` and reports the end-to-end metrics as medians over the
//! repetitions. `--trace 1` alternates untraced runs with runs of the
//! traced loop and reports the per-layer metrics. Every run is checked;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` beside this file.

mod heap;
mod model;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use popcorn_core::proto::Protocol;
use popcorn_kernel::osmodel::{self, OsModel};

use crate::model::Outcome;
use crate::workloads::Workload;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Timed repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-up samples timed after each repetition, so that `setup_s` is the
/// median of many samples.
const SETUP_SAMPLES_PER_REP: usize = 32;
/// Calibration samples timed after each repetition (see
/// [`calibration_sample`]).
const CALIB_SAMPLES_PER_REP: usize = 8;

/// End-to-end metrics (`--trace 0`), in output order, with units.
const END_TO_END: [(&str, &str); 4] = [
    ("run_cal", "calib_loops"),
    ("setup_s", "s"),
    ("virt_ms", "virt_ms"),
    ("fault_local_us.p50", "virt_us"),
];

/// Per-layer metrics (`--trace 1`), in output order, with units.
const PER_LAYER: [(&str, &str); 58] = [
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.self_s", "s"),
    ("sim.core_run_repeat_frac", "frac"),
    ("kernel.run_core_s", "s"),
    ("kernel.run_core_calls", "count"),
    ("kernel.run_core_ns_mean", "ns"),
    ("kernel.busy_reruns", "count"),
    ("kernel.idle_runs", "count"),
    ("kernel.syscalls", "count"),
    ("kernel.faults", "count"),
    ("kernel.ctx_switches", "count"),
    ("kernel.sched_latency_us.p99", "virt_us"),
    ("core.syscall_s", "s"),
    ("core.fault_s", "s"),
    ("core.sync_s", "s"),
    ("core.exit_s", "s"),
    ("core.migrate_s", "s"),
    ("core.migrate_deliveries", "count"),
    ("core.group_s", "s"),
    ("core.group_deliveries", "count"),
    ("core.vma_s", "s"),
    ("core.vma_deliveries", "count"),
    ("core.page_s", "s"),
    ("core.page_deliveries", "count"),
    ("core.futex_s", "s"),
    ("core.futex_deliveries", "count"),
    ("core.transport_s", "s"),
    ("core.transport_deliveries", "count"),
    ("core.page_transfers", "count"),
    ("core.invalidations", "count"),
    ("core.rpcs_issued", "count"),
    ("core.home_peak_depth", "count"),
    ("core.home_busy_pct_max", "%"),
    ("core.service_us_mean", "virt_us"),
    ("core.shard_delegated_pages", "count"),
    ("core.shard_escalations", "count"),
    ("msg.sends", "count"),
    ("msg.latency_us.p50", "virt_us"),
    ("msg.latency_us.p99", "virt_us"),
    ("msg.queue_delay_us.p99", "virt_us"),
    ("msg.retransmits", "count"),
    ("msg.acks_sent", "count"),
    ("msg.dup_suppressed", "count"),
    ("msg.drops_injected", "count"),
    ("msg.retx_frac", "frac"),
    ("fault_local_us.p99", "virt_us"),
    ("fault_remote_us.p50", "virt_us"),
    ("fault_remote_us.p99", "virt_us"),
    ("fault_remote.samples", "count"),
    ("migration_us.p50", "virt_us"),
    ("migration_us.p99", "virt_us"),
    ("migration.samples", "count"),
    ("failed_frac", "frac"),
    ("peak_heap_mb", "MB"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (mmap_local, migrate_mix, lossy_cluster)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `f`, turning a panic (an invariant-audit failure, say) into an
/// error so that the run still reports.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// One untraced repetition: its run time (first event to queue drain,
/// including the drain-time invariant audit), the most heap it held at
/// once over set-up and run in MB, and what it produced.
fn untraced_rep(w: Workload, seed: u64) -> Result<(Duration, f64, Outcome), String> {
    guarded(|| {
        let base = heap::reset_peak();
        let mut os = std::hint::black_box(workloads::build_os(w, seed));
        let t0 = Instant::now();
        let report = os.run();
        let run = t0.elapsed();
        let peak_mb = (heap::peak_bytes() - base) as f64 / (1024.0 * 1024.0);
        model::check(w, &report)?;
        Ok((run, peak_mb, model::read(&os, &report)))
    })
}

/// Times one set-up: build the OS model and load the programs. The model
/// is dropped outside the timing.
fn setup_sample(w: Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    let os = std::hint::black_box(workloads::build_os(w, seed));
    let d = t0.elapsed();
    drop(os);
    d.as_secs_f64()
}

/// Times one pass of a fixed sort-and-map job that belongs to the
/// benchmark, not to the program under test.
///
/// The host's speed drifts by tens of percent over minutes, for every
/// process alike. Dividing a repetition's run time by the calibration time
/// taken right after it cancels that drift, while a change to the program
/// still moves the ratio in full.
fn calibration_sample() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<u64> = (0..200_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut m = BTreeMap::new();
    for (i, y) in v.iter().enumerate().step_by(4) {
        m.insert(y % 100_003, i);
    }
    std::hint::black_box(&m);
    t0.elapsed().as_secs_f64()
}

/// What a benchmark run has done so far, kept for the result line even
/// when a check fails part-way.
#[derive(Default)]
struct Tally {
    /// Repetitions run, untraced and traced.
    reps: u64,
    /// The warm-up repetition's outcome, which every later repetition must
    /// reproduce.
    reference: Option<Outcome>,
}

impl Tally {
    /// Runs one untraced repetition and checks it against the reference
    /// (the first repetition becomes the reference).
    fn untraced(&mut self, w: Workload, seed: u64) -> Result<(Duration, f64), String> {
        self.reps += 1;
        let (run, peak_mb, o) = untraced_rep(w, seed)?;
        match &self.reference {
            None => self.reference = Some(o),
            Some(r) if *r == o => {}
            Some(_) => return Err("modelled metrics differ between repetitions of one seed".into()),
        }
        Ok((run, peak_mb))
    }

    fn reference(&self) -> &Outcome {
        self.reference
            .as_ref()
            .expect("the warm-up repetition ran first")
    }
}

/// The result line's fields. A failed check counts every operation of
/// every repetition as failed and reports no metrics.
struct Report {
    error: Option<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn report(
    result: Result<BTreeMap<&'static str, f64>, String>,
    tally: &Tally,
    table: &[(&'static str, &'static str)],
) -> Report {
    let reps = tally.reps.max(1);
    let attempted = reps * tally.reference.as_ref().map_or(1, |o| o.attempted.max(1));
    match result {
        Err(e) => Report {
            error: Some(e),
            attempted,
            failed: attempted,
            metrics: Vec::new(),
        },
        Ok(values) => Report {
            error: None,
            attempted,
            failed: reps * tally.reference().failed,
            metrics: table
                .iter()
                .map(|&(name, unit)| {
                    let v = *values
                        .get(name)
                        .unwrap_or_else(|| panic!("metric {name} was not computed"));
                    (name, v, unit)
                })
                .collect(),
        },
    }
}

/// `--trace 0`: untraced repetitions for `--seconds`, end-to-end metrics.
fn run_plain(a: &Args, tally: &mut Tally) -> Result<BTreeMap<&'static str, f64>, String> {
    let w = a.workload;
    let start = Instant::now();
    let window = Duration::from_secs(a.seconds);
    // Warm-up repetition: its times are not used.
    tally.untraced(w, a.seed)?;
    let (mut runs, mut calibs, mut ratios, mut setups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while runs.len() < MIN_REPS || start.elapsed() < window {
        let run = tally.untraced(w, a.seed)?.0.as_secs_f64();
        let calib = median(
            (0..CALIB_SAMPLES_PER_REP)
                .map(|_| calibration_sample())
                .collect(),
        );
        runs.push(run);
        calibs.push(calib);
        ratios.push(run / calib);
        for _ in 0..SETUP_SAMPLES_PER_REP {
            setups.push(setup_sample(w, a.seed));
        }
    }
    println!(
        "{} timed runs: run_s median {:.6} s, calibration median {:.6} s, {} set-ups",
        runs.len(),
        median(runs),
        median(calibs),
        setups.len()
    );
    let mut values = BTreeMap::new();
    values.insert("run_cal", median(ratios));
    values.insert("setup_s", median(setups));
    for &(name, _) in &END_TO_END[2..] {
        values.insert(name, tally.reference().metrics[name]);
    }
    Ok(values)
}

/// Checks that a traced run reproduced the untraced one exactly.
fn fidelity(t: &traced::TracedRun, reference: &Outcome) -> Result<(), String> {
    let g = &reference.guard;
    let got = model::Guard {
        events: t.events,
        stats: t.machine.stats.metrics(),
        kernel: osmodel::base_metrics(t.machine.kernels()),
        sends: t.machine.fabric().total_sends(),
    };
    if got.events != g.events {
        return Err(format!(
            "traced run processed {} events, untraced {}",
            got.events, g.events
        ));
    }
    if got != *g {
        let differ: Vec<&String> = g
            .stats
            .iter()
            .filter(|(k, v)| got.stats.get(*k) != Some(v))
            .map(|(k, _)| k)
            .collect();
        return Err(format!(
            "traced run diverged from the untraced run (stats differing: {differ:?})"
        ));
    }
    Ok(())
}

/// `--trace 1`: untraced and traced repetitions alternate for `--seconds`;
/// per-layer metrics.
fn run_traced(a: &Args, tally: &mut Tally) -> Result<BTreeMap<&'static str, f64>, String> {
    let w = a.workload;
    let start = Instant::now();
    let window = Duration::from_secs(a.seconds);
    tally.untraced(w, a.seed)?;
    let (mut untraced_runs, mut peaks) = (Vec::new(), Vec::new());
    let mut traced_runs: Vec<traced::TracedRun> = Vec::new();
    while traced_runs.len() < 2 || start.elapsed() < window {
        let (run, peak_mb) = tally.untraced(w, a.seed)?;
        untraced_runs.push(run.as_secs_f64());
        peaks.push(peak_mb);
        tally.reps += 1;
        let reference = tally.reference();
        traced_runs.push(guarded(|| {
            let t = traced::run(w, a.seed);
            t.check(w)?;
            fidelity(&t, reference)?;
            Ok(t)
        })?);
    }
    eprintln!(
        "{}: {} traced and {} untraced runs, fidelity guard passed",
        w.name(),
        traced_runs.len(),
        untraced_runs.len()
    );

    let reference = tally.reference();
    let events = reference.guard.events as f64;
    let secs = |f: &dyn Fn(&traced::TracedRun) -> Duration| {
        median(traced_runs.iter().map(|t| f(t).as_secs_f64()).collect())
    };
    let traced_run_s = secs(&|t| t.run);
    let untraced_run_s = median(untraced_runs);
    // Counts repeat exactly (the guard checked), so any traced run gives them.
    let counts = &traced_runs[0].spans;
    let mut v = reference.metrics.clone();
    v.insert("sim.events_per_s", events / untraced_run_s);
    v.insert(
        "sim.self_s",
        secs(&|t| t.run.saturating_sub(t.spans.handlers())),
    );
    v.insert(
        "sim.core_run_repeat_frac",
        counts.core_run_repeats as f64 / events,
    );
    v.insert("kernel.run_core_s", secs(&|t| t.spans.run_core));
    v.insert("kernel.run_core_calls", counts.run_core_calls as f64);
    v.insert(
        "kernel.run_core_ns_mean",
        secs(&|t| t.spans.run_core) * 1e9 / counts.run_core_calls.max(1) as f64,
    );
    v.insert("kernel.busy_reruns", counts.busy_reruns as f64);
    v.insert("kernel.idle_runs", counts.idle_runs as f64);
    v.insert("core.syscall_s", secs(&|t| t.spans.syscall));
    v.insert("core.fault_s", secs(&|t| t.spans.fault));
    v.insert("core.sync_s", secs(&|t| t.spans.sync));
    v.insert("core.exit_s", secs(&|t| t.spans.exit));
    const FAMILY_S: [&str; 6] = [
        "core.migrate_s",
        "core.group_s",
        "core.vma_s",
        "core.page_s",
        "core.futex_s",
        "core.transport_s",
    ];
    const FAMILY_N: [&str; 6] = [
        "core.migrate_deliveries",
        "core.group_deliveries",
        "core.vma_deliveries",
        "core.page_deliveries",
        "core.futex_deliveries",
        "core.transport_deliveries",
    ];
    for (i, p) in Protocol::ALL.iter().enumerate() {
        debug_assert_eq!(FAMILY_S[i], format!("core.{}_s", p.name()));
        v.insert(FAMILY_S[i], secs(&|t| t.spans.delivery[i]));
        v.insert(FAMILY_N[i], counts.deliveries[i] as f64);
    }
    v.insert("peak_heap_mb", median(peaks));
    v.insert("trace.run_s", traced_run_s);
    v.insert("trace.untraced_run_s", untraced_run_s);
    v.insert("trace.overhead_s", traced_run_s - untraced_run_s);
    Ok(v)
}

/// Where and how the numbers were made, so that results from different
/// hosts or toolchains are not compared as if alike.
fn context_json() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let engine = if popcorn_sim::sim_threads() == 1 {
        "serial"
    } else {
        "partitioned"
    };
    format!(
        "{{\"available_parallelism\": {parallelism}, \"git_rev\": {}, \"rustc\": {}, \"engine\": {}}}",
        json_str(&git_rev()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(engine)
    )
}

/// The checked-out commit, read from `.git` in the working directory, or
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let report = if args.trace {
        report(run_traced(&args, &mut tally), &tally, &PER_LAYER)
    } else {
        report(run_plain(&args, &mut tally), &tally, &END_TO_END)
    };
    println!(
        "workload {} seed {} (seed {}used by this workload), trace {}",
        args.workload.name(),
        args.seed,
        if args.workload.uses_seed() {
            ""
        } else {
            "not "
        },
        u8::from(args.trace)
    );
    println!("context {}", context_json());
    if let Some(e) = &report.error {
        println!("CHECK FAILED: {e}");
    }
    for (name, v, unit) in &report.metrics {
        println!("  {name:<30} {v:>16.6} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.error.is_none(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
