//! Offline stand-in for the subset of the `criterion` 0.5 API this
//! workspace uses: `Criterion`, benchmark groups, `Bencher::iter`,
//! `black_box`, and the `criterion_group!`/`criterion_main!` macros.
//!
//! The build environment has no registry access, so the real crate cannot
//! be resolved. This shim measures each benchmark with `std::time::Instant`
//! over an auto-scaled iteration count and prints a mean per-iteration
//! time — enough to compare hot paths and spot gross regressions, without
//! criterion's statistics, plots, or state.
//!
//! Like the real crate, passing `--test` on the bench binary's command
//! line (`cargo bench -- --test`) runs every benchmark body exactly once
//! and reports pass/fail instead of timing — the mode `scripts/check.sh`
//! uses to keep the benches compiling and panic-free without paying for
//! a full measurement.
//!
//! Any argument that is not a flag is a name filter, as in the real
//! crate: only benchmarks whose `group/name` label contains one of the
//! filters as a substring run (`cargo bench -- energy` times `energy/*`
//! only). The others are skipped before their body runs, so their setup
//! costs nothing. With no filter every benchmark runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Whether the binary was invoked with `--test` (single-shot smoke mode).
fn test_mode() -> bool {
    static MODE: OnceLock<bool> = OnceLock::new();
    *MODE.get_or_init(|| std::env::args().any(|a| a == "--test"))
}

/// The name filters: every command-line argument that is not a flag.
fn filters() -> &'static [String] {
    static FILTERS: OnceLock<Vec<String>> = OnceLock::new();
    FILTERS.get_or_init(|| {
        std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect()
    })
}

/// Whether a benchmark `label` passes the name `filters` (a substring
/// match against any of them; no filters select everything).
fn selected(label: &str, filters: &[String]) -> bool {
    filters.is_empty() || filters.iter().any(|f| label.contains(f.as_str()))
}

/// Re-export of the standard opaque value barrier.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            sample_size: 0,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(name, f);
        self
    }
}

/// A named group of benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim auto-scales iterations.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, name), f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Timer handed to each benchmark closure.
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, auto-scaling the iteration count so the
    /// measurement lasts long enough to be meaningful.
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut routine: F) {
        if test_mode() {
            black_box(routine());
            return;
        }
        // Warm up and estimate per-iteration cost.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let target = Duration::from_millis(50);
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
        self.iters = iters;
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, mut f: F) {
    if !selected(label, filters()) {
        return;
    }
    let mut bencher = Bencher::default();
    f(&mut bencher);
    if test_mode() {
        println!("test {label:<40} ok");
        return;
    }
    if bencher.iters == 0 {
        println!("bench {label:<40} (no measurement)");
        return;
    }
    let per_iter = bencher.elapsed.as_nanos() as f64 / bencher.iters as f64;
    println!(
        "bench {label:<40} {per_iter:>12.1} ns/iter ({} iters)",
        bencher.iters
    );
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    ($group:ident; $($rest:tt)*) => {
        $crate::criterion_group!($group, $($rest)*);
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(10);
        group.bench_function("add", |b| b.iter(|| black_box(2u64) + black_box(3u64)));
        group.finish();
    }

    #[test]
    fn filters_select_labels_by_substring() {
        let filters = |f: &[&str]| f.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(selected("energy/sram_lookup", &filters(&[])));
        assert!(selected("energy/sram_lookup", &filters(&["energy"])));
        assert!(selected("energy/sram_lookup", &filters(&["sram_look"])));
        assert!(!selected("trace_generator/fill_refs_64", &filters(&["energy"])));
        assert!(selected(
            "trace_generator/fill_refs_64",
            &filters(&["energy", "fill_refs"])
        ));
    }
}
