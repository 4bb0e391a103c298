//! Offline stand-in for `criterion`.
//!
//! Provides the macro and builder API the workspace benches use
//! (`criterion_group!`, `criterion_main!`, `bench_function`,
//! `benchmark_group`, `bench_with_input`, `BenchmarkId`) backed by a
//! simple wall-clock timer: each benchmark runs one warm-up call, then
//! repeats a batch until 20 ms have passed, and prints the mean time
//! per iteration. No statistics, HTML reports, or CLI filtering — just
//! enough to keep the benches compiling, runnable, and honest about
//! relative cost.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Iterations per timed batch (after one warm-up call), unless a group
/// sets its `sample_size`.
const DEFAULT_BATCH: u32 = 10;

/// Least wall time a benchmark is timed over: batches repeat until it
/// has passed, so a sub-microsecond routine is not timed over a few
/// microseconds.
const MIN_TIME: Duration = Duration::from_millis(20);

/// Stand-in for `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { label: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { label: parameter.to_string() }
    }
}

/// Anything usable as a benchmark label.
pub trait IntoBenchmarkId {
    fn into_label(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

impl IntoBenchmarkId for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_label(self) -> String {
        self
    }
}

/// Stand-in for `criterion::Bencher`.
#[derive(Debug)]
pub struct Bencher {
    batch: u32,
    elapsed: Duration,
    iters: u32,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up, untimed
        let start = Instant::now();
        self.iters = 0;
        loop {
            for _ in 0..self.batch {
                black_box(routine());
            }
            self.iters += self.batch;
            self.elapsed = start.elapsed();
            if self.elapsed >= MIN_TIME {
                break;
            }
        }
    }
}

fn report(group: Option<&str>, label: &str, b: &Bencher) {
    let per_iter = if b.iters == 0 { Duration::ZERO } else { b.elapsed / b.iters };
    match group {
        Some(g) => println!("bench {g}/{label}: {per_iter:?}/iter ({} iters)", b.iters),
        None => println!("bench {label}: {per_iter:?}/iter ({} iters)", b.iters),
    }
}

/// Stand-in for `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, label: &str, mut f: F) -> &mut Self {
        let mut b = Bencher { batch: DEFAULT_BATCH, elapsed: Duration::ZERO, iters: 0 };
        f(&mut b);
        report(None, label, &b);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _parent: self, name: name.into(), sample_size: DEFAULT_BATCH }
    }
}

/// Stand-in for `criterion::BenchmarkGroup`.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: u32,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u32;
        self
    }

    pub fn bench_function<L: IntoBenchmarkId, F: FnMut(&mut Bencher)>(
        &mut self,
        label: L,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher { batch: self.sample_size, elapsed: Duration::ZERO, iters: 0 };
        f(&mut b);
        report(Some(&self.name), &label.into_label(), &b);
        self
    }

    pub fn bench_with_input<L: IntoBenchmarkId, I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        label: L,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher { batch: self.sample_size, elapsed: Duration::ZERO, iters: 0 };
        f(&mut b, input);
        report(Some(&self.name), &label.into_label(), &b);
        self
    }

    pub fn finish(&mut self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
