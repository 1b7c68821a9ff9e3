//! A tiny criterion-compatible benchmark harness.
//!
//! The build environment has no network access to fetch `criterion`, so the
//! bench targets (declared `harness = false`) use this drop-in subset
//! instead: [`Criterion::benchmark_group`], `sample_size`, `bench_function`,
//! `bench_with_input`, [`BenchmarkId`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros. Each benchmark takes `sample_size` timed
//! samples (after one warm-up call) and reports the **median**.
//!
//! The perf-tracker binary (`mining-bench` → `BENCH_mining.json`) uses
//! the comparative-workload machinery here: [`measure`], [`Workload`],
//! [`geomean_speedup`], [`print_workloads`], and [`write_bench_json`], so
//! its snapshot records `threads` and per-workload sample counts and
//! stays diffable across PRs. (The served system is measured by
//! `eba_benchmark`, see `BENCHMARK.json`.)

use std::time::{Duration, Instant};

/// One comparative measurement: the same work done the slow way
/// (`baseline`) and through the engine (`engine`).
#[derive(Debug, Clone)]
pub struct Workload {
    /// `group/name` identifier.
    pub name: String,
    /// Median duration of the per-query / cold path.
    pub baseline: Duration,
    /// Median duration of the engine-backed path.
    pub engine: Duration,
    /// Timed samples behind each median.
    pub samples: usize,
}

impl Workload {
    /// Measures both sides of a workload with the same sample count.
    pub fn compare(
        name: impl Into<String>,
        samples: usize,
        baseline: impl FnMut(),
        engine: impl FnMut(),
    ) -> Workload {
        Workload {
            name: name.into(),
            baseline: measure(samples, baseline),
            engine: measure(samples, engine),
            samples,
        }
    }

    /// `baseline / engine` (guarding the zero-duration case).
    pub fn speedup(&self) -> f64 {
        self.baseline.as_secs_f64() / self.engine.as_secs_f64().max(1e-12)
    }
}

/// Median duration of `samples` timed calls (after one warm-up call).
pub fn measure(samples: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let durations: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    median(&durations)
}

/// Geometric mean of the workloads' speedups.
pub fn geomean_speedup(workloads: &[Workload]) -> f64 {
    if workloads.is_empty() {
        return 1.0;
    }
    (workloads.iter().map(|w| w.speedup().ln()).sum::<f64>() / workloads.len() as f64).exp()
}

/// Prints the comparative table the perf-tracker binaries show.
pub fn print_workloads(workloads: &[Workload]) {
    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "workload", "baseline", "engine", "speedup"
    );
    for w in workloads {
        println!(
            "{:<28} {:>14} {:>14} {:>8.2}x",
            w.name,
            format_duration(w.baseline),
            format_duration(w.engine),
            w.speedup()
        );
    }
    println!("geomean speedup: {:.2}x", geomean_speedup(workloads));
}

/// Writes the `BENCH_mining.json` shape: generator, scale, thread count,
/// and one entry per workload with both medians, the speedup, and the
/// sample count.
pub fn write_bench_json(
    path: &str,
    generated_by: &str,
    scale: &str,
    threads: usize,
    workloads: &[Workload],
) -> std::io::Result<()> {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"generated_by\": \"{generated_by}\",\n"));
    json.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_median_ms\": {:.3}, \"engine_median_ms\": {:.3}, \"speedup\": {:.2}, \"samples\": {}}}{}\n",
            w.name,
            w.baseline.as_secs_f64() * 1e3,
            w.engine.as_secs_f64() * 1e3,
            w.speedup(),
            w.samples,
            if i + 1 < workloads.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"geomean_speedup\": {:.2}\n",
        geomean_speedup(workloads)
    ));
    json.push_str("}\n");
    std::fs::write(path, json)
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Summary {
    /// `group/name` identifier.
    pub id: String,
    /// Median sample duration.
    pub median: Duration,
    /// Number of timed samples.
    pub samples: usize,
}

/// Top-level driver (subset of criterion's).
#[derive(Debug, Default)]
pub struct Criterion {
    summaries: Vec<Summary>,
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            sample_size: 20,
        }
    }

    /// All measurements taken so far.
    pub fn summaries(&self) -> &[Summary] {
        &self.summaries
    }
}

/// A benchmark identifier with an input parameter, e.g. `one_way/4`.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: &str, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{name}/{parameter}"))
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

/// A named group sharing a sample size.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmarks `f`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher {
            durations: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b);
        self.record(&id, b);
        self
    }

    /// Benchmarks `f` with an input reference (criterion-style).
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            durations: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b, input);
        self.record(&id, b);
        self
    }

    /// Ends the group (report lines are printed as benchmarks run).
    pub fn finish(&mut self) {}

    fn record(&mut self, id: &BenchmarkId, b: Bencher) {
        let summary = Summary {
            id: format!("{}/{}", self.name, id.0),
            median: median(&b.durations),
            samples: b.durations.len(),
        };
        println!(
            "{:<44} median {:>12} ({} samples)",
            summary.id,
            format_duration(summary.median),
            summary.samples
        );
        self.parent.summaries.push(summary);
    }
}

/// Times closures passed to [`Bencher::iter`].
pub struct Bencher {
    durations: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Runs `f` once for warm-up, then `sample_size` timed times.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        std::hint::black_box(f());
        self.durations.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(f());
            self.durations.push(start.elapsed());
        }
    }
}

/// Median of a set of samples (zero when empty).
pub fn median(durations: &[Duration]) -> Duration {
    if durations.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = durations.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2
    }
}

/// `1.234 ms`-style rendering.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Declares a benchmark suite function (criterion-compatible shape).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::harness::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench `main` running one or more suites.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        let d = |ms| Duration::from_millis(ms);
        assert_eq!(median(&[d(3), d(1), d(2)]), d(2));
        assert_eq!(
            median(&[d(1), d(2), d(3), d(10)]),
            d(2) + Duration::from_micros(500)
        );
        assert_eq!(median(&[]), Duration::ZERO);
    }

    #[test]
    fn groups_collect_summaries() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3);
            g.bench_function("fast", |b| b.iter(|| 1 + 1));
            g.bench_with_input(BenchmarkId::new("param", 7), &7usize, |b, n| {
                b.iter(|| n * 2)
            });
            g.finish();
        }
        assert_eq!(c.summaries().len(), 2);
        assert_eq!(c.summaries()[0].id, "g/fast");
        assert_eq!(c.summaries()[1].id, "g/param/7");
        assert_eq!(c.summaries()[0].samples, 3);
    }

    #[test]
    fn workload_speedup_and_geomean() {
        let w = |b: u64, e: u64| Workload {
            name: "w".into(),
            baseline: Duration::from_millis(b),
            engine: Duration::from_millis(e),
            samples: 3,
        };
        assert!((w(40, 10).speedup() - 4.0).abs() < 1e-9);
        // geomean(4x, 1x) = 2x.
        assert!((geomean_speedup(&[w(40, 10), w(10, 10)]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean_speedup(&[]), 1.0);
    }

    #[test]
    fn bench_json_shape() {
        let w = Workload {
            name: "suite/all".into(),
            baseline: Duration::from_millis(12),
            engine: Duration::from_millis(3),
            samples: 5,
        };
        let dir = std::env::temp_dir().join("eba_bench_json_shape_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        write_bench_json(path.to_str().unwrap(), "mining-bench", "tiny", 4, &[w]).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        for needle in [
            "\"generated_by\": \"mining-bench\"",
            "\"threads\": 4",
            "\"samples\": 5",
            "\"baseline_median_ms\": 12.000",
            "\"engine_median_ms\": 3.000",
            "\"speedup\": 4.00",
            "\"geomean_speedup\": 4.00",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(format_duration(Duration::from_micros(1500)), "1.500 ms");
        assert!(format_duration(Duration::from_secs(2)).ends_with(" s"));
    }
}
