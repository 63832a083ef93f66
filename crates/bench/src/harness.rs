//! Minimal benchmark harness: a dependency-free stand-in for criterion
//! so the workspace builds (and the benches run) in offline
//! environments. Reports median / mean / min over a fixed wall-clock
//! budget per benchmark.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock spent measuring each benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(250);
/// Warm-up time before measuring.
const WARMUP_BUDGET: Duration = Duration::from_millis(50);
/// Fewest samples per benchmark, whatever the budget: a workload slower
/// than the budget (a verified sweep) still gets a median of several
/// samples rather than a single one.
const MIN_SAMPLES: usize = 5;

/// A registered group of benchmarks, printed as a table on `finish`.
pub struct Bencher {
    rows: Vec<(String, Stats)>,
}

struct Stats {
    iterations: u64,
    min: Duration,
    mean: Duration,
    median: Duration,
}

/// One benchmark's results, exposed for machine-readable reports.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Benchmark label.
    pub name: String,
    /// Total timed iterations.
    pub iterations: u64,
    /// Fastest per-iteration sample, nanoseconds.
    pub min_ns: u128,
    /// Mean per-iteration time, nanoseconds.
    pub mean_ns: u128,
    /// Median per-iteration time, nanoseconds.
    pub median_ns: u128,
}

impl Default for Bencher {
    fn default() -> Self {
        Self::new()
    }
}

impl Bencher {
    #[must_use]
    pub fn new() -> Self {
        Self { rows: Vec::new() }
    }

    /// Times `f` repeatedly, keeping per-batch samples.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Warm up and estimate a batch size that keeps sample overhead low.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARMUP_BUDGET {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = WARMUP_BUDGET
            .checked_div(u32::try_from(warm_iters.max(1)).unwrap_or(u32::MAX))
            .unwrap_or(Duration::from_nanos(1));
        let batch = (Duration::from_millis(2).as_nanos() / per_iter.as_nanos().max(1)).max(1);
        let batch = u64::try_from(batch).unwrap_or(u64::MAX);

        let mut samples: Vec<Duration> = Vec::new();
        let mut total_iters: u64 = 0;
        let run_start = Instant::now();
        while run_start.elapsed() < MEASURE_BUDGET || samples.len() < MIN_SAMPLES {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = t.elapsed();
            samples.push(elapsed / u32::try_from(batch).unwrap_or(u32::MAX));
            total_iters += batch;
        }
        samples.sort_unstable();
        let min = *samples.first().expect("at least one sample");
        let median = samples[samples.len() / 2];
        let sum: Duration = samples.iter().sum();
        let mean = sum / u32::try_from(samples.len()).unwrap_or(1);
        self.rows.push((
            name.to_string(),
            Stats {
                iterations: total_iters,
                min,
                mean,
                median,
            },
        ));
    }

    /// Times two workloads interleaved batch-by-batch inside one
    /// measurement window, registering a row for each.
    ///
    /// Back-to-back [`Bencher::bench`] calls measure their rows in
    /// disjoint wall-clock windows, so slow machine drift (frequency
    /// scaling, a noisy co-tenant) lands on one row and not the other —
    /// poison for a gated *ratio* of two rows, where a few percent of
    /// drift reads as regression. Here every batch of `f_a` is followed
    /// immediately by a batch of `f_b`, so both samples see the same
    /// machine state and the ratio of medians isolates the workloads'
    /// true difference.
    pub fn bench_pair<R, S>(
        &mut self,
        name_a: &str,
        mut f_a: impl FnMut() -> R,
        name_b: &str,
        mut f_b: impl FnMut() -> S,
    ) {
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARMUP_BUDGET {
            black_box(f_a());
            black_box(f_b());
            warm_iters += 1;
        }
        // Batch sized off the combined pair cost, so each A+B pair of
        // samples still lands in a ~4 ms window.
        let per_pair = WARMUP_BUDGET
            .checked_div(u32::try_from(warm_iters.max(1)).unwrap_or(u32::MAX))
            .unwrap_or(Duration::from_nanos(1));
        let batch = (Duration::from_millis(4).as_nanos() / per_pair.as_nanos().max(1)).max(1);
        let batch = u64::try_from(batch).unwrap_or(u64::MAX);

        let mut samples_a: Vec<Duration> = Vec::new();
        let mut samples_b: Vec<Duration> = Vec::new();
        let mut total_iters: u64 = 0;
        let run_start = Instant::now();
        while run_start.elapsed() < MEASURE_BUDGET * 2 || samples_a.len() < MIN_SAMPLES {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f_a());
            }
            samples_a.push(t.elapsed() / u32::try_from(batch).unwrap_or(u32::MAX));
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f_b());
            }
            samples_b.push(t.elapsed() / u32::try_from(batch).unwrap_or(u32::MAX));
            total_iters += batch;
        }
        for (name, samples) in [(name_a, &mut samples_a), (name_b, &mut samples_b)] {
            samples.sort_unstable();
            let min = *samples.first().expect("at least one sample");
            let median = samples[samples.len() / 2];
            let sum: Duration = samples.iter().sum();
            let mean = sum / u32::try_from(samples.len()).unwrap_or(1);
            self.rows.push((
                name.to_string(),
                Stats {
                    iterations: total_iters,
                    min,
                    mean,
                    median,
                },
            ));
        }
    }

    /// The collected results so far, in registration order.
    #[must_use]
    pub fn rows(&self) -> Vec<BenchRow> {
        self.rows
            .iter()
            .map(|(name, s)| BenchRow {
                name: name.clone(),
                iterations: s.iterations,
                min_ns: s.min.as_nanos(),
                mean_ns: s.mean.as_nanos(),
                median_ns: s.median.as_nanos(),
            })
            .collect()
    }

    /// Prints the collected table and consumes the bencher.
    pub fn finish(self) {
        let width = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(8)
            .max(8);
        println!(
            "{:width$}  {:>12}  {:>12}  {:>12}  {:>10}",
            "bench", "median", "mean", "min", "iters"
        );
        for (name, s) in &self.rows {
            println!(
                "{name:width$}  {:>12}  {:>12}  {:>12}  {:>10}",
                fmt(s.median),
                fmt(s.mean),
                fmt(s.min),
                s.iterations
            );
        }
    }
}

fn fmt(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_collects_and_formats() {
        let mut b = Bencher::new();
        b.bench("noop", || 1 + 1);
        assert_eq!(b.rows.len(), 1);
        assert!(b.rows[0].1.iterations > 0);
        b.finish();
    }

    #[test]
    fn durations_format_by_scale() {
        assert!(fmt(Duration::from_nanos(12)).ends_with("ns"));
        assert!(fmt(Duration::from_micros(12)).ends_with("µs"));
        assert!(fmt(Duration::from_millis(12)).ends_with("ms"));
        assert!(fmt(Duration::from_secs(2)).ends_with(" s"));
    }
}
