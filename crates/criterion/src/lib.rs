#![warn(missing_docs)]
//! A minimal, dependency-free stand-in for the `criterion` bench harness.
//!
//! The build environment for this repository is fully offline, so the real
//! `criterion` crate (and its large dependency tree) cannot be fetched.
//! This crate re-implements the small API surface the benches in
//! `crates/bench/benches/` use — [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::throughput`],
//! [`Bencher::iter`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros — with plain wall-clock
//! timing: a short warm-up, then timed batches until a fixed measurement
//! budget elapses, reporting mean ns/iter.
//!
//! The numbers are not statistically filtered the way real criterion's are;
//! they exist so `cargo bench` keeps working offline and CI can track
//! large-grain simulator throughput regressions.

use std::time::{Duration, Instant};

/// Measurement budget per benchmark (after warm-up).
const MEASURE_BUDGET: Duration = Duration::from_millis(400);
/// Warm-up budget per benchmark.
const WARMUP_BUDGET: Duration = Duration::from_millis(100);

/// Times one benchmark body; handed to the closure given to
/// [`Criterion::bench_function`].
pub struct Bencher {
    iters_done: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `body` repeatedly: a warm-up phase, then timed iterations until
    /// the measurement budget is spent. The return value of `body` is
    /// dropped (wrap expressions in `std::hint::black_box` to keep them
    /// alive past the optimizer, as with real criterion).
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut body: F) {
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP_BUDGET {
            std::hint::black_box(body());
        }
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            std::hint::black_box(body());
            iters += 1;
            if start.elapsed() >= MEASURE_BUDGET {
                break;
            }
        }
        self.iters_done = iters;
        self.elapsed = start.elapsed();
    }
}

/// The harness entry point, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

/// Work done by one iteration, mirroring `criterion::Throughput`; the
/// report then adds the time per element.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Each iteration processes this many elements (ops, events, ...).
    Elements(u64),
}

impl Criterion {
    fn report(name: &str, b: &Bencher, throughput: Option<Throughput>) {
        if b.iters_done == 0 {
            println!("{name:<48} (no iterations)");
            return;
        }
        let ns = b.elapsed.as_nanos() as f64 / b.iters_done as f64;
        match throughput {
            Some(Throughput::Elements(n)) => println!(
                "{name:<48} {ns:>14.0} ns/iter  ({} iters)  {:.1} ns/elem",
                b.iters_done,
                ns / n.max(1) as f64
            ),
            None => println!("{name:<48} {ns:>14.0} ns/iter  ({} iters)", b.iters_done),
        }
    }

    fn run<F: FnMut(&mut Bencher)>(name: &str, throughput: Option<Throughput>, mut f: F) {
        let mut b = Bencher {
            iters_done: 0,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        Self::report(name, &b, throughput);
    }

    /// Runs one named benchmark.
    pub fn bench_function<S, F>(&mut self, id: S, f: F) -> &mut Self
    where
        S: Into<String>,
        F: FnMut(&mut Bencher),
    {
        Self::run(&id.into(), None, f);
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            prefix: name.into(),
            throughput: None,
        }
    }
}

/// A named group of benchmarks, mirroring `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    prefix: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; this harness sizes runs by time,
    /// not sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the work per iteration for the group's later benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one named benchmark within the group.
    pub fn bench_function<S, F>(&mut self, id: S, f: F) -> &mut Self
    where
        S: Into<String>,
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.prefix, id.into());
        Criterion::run(&full, self.throughput, f);
        self
    }

    /// Ends the group (no-op; exists for API compatibility).
    pub fn finish(self) {}
}

/// Declares a bench group function, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench main function, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            // cargo bench passes --bench (and possibly filters); this
            // harness runs everything and ignores the arguments.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_body() {
        let mut c = Criterion::default();
        let mut ran = 0u64;
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        assert!(ran > 0, "bench body never ran");
    }

    #[test]
    fn groups_prefix_names() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(10).bench_function("x", |b| b.iter(|| 1 + 1));
        g.finish();
    }

    #[test]
    fn throughput_groups_run_their_bodies() {
        let mut c = Criterion::default();
        let mut ran = 0u64;
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(8))
            .bench_function("x", |b| b.iter(|| ran += 1));
        g.finish();
        assert!(ran > 0, "bench body never ran");
    }
}
