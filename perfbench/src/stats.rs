//! Order statistics for the benchmark's timings.

/// A percentile is reported only when at least this many samples lie
/// beyond it, so a tail figure never rests on a handful of requests.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it. Everything after that rank lies beyond the percentile.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of a small set of repeated measurements (set-up times,
/// probe repetitions), without the tail-sample requirement.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// `num / den`, or 0 when nothing was attempted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Splits `len` samples into consecutive windows of `window` samples;
/// a short remainder joins the last window. Empty when `len < window`.
#[must_use]
pub fn windows(len: usize, window: usize) -> Vec<std::ops::Range<usize>> {
    let count = len / window.max(1);
    (0..count)
        .map(|i| {
            let end = if i + 1 == count {
                len
            } else {
                (i + 1) * window
            };
            i * window..end
        })
        .collect()
}

/// The median over windows of `f` applied to each window's samples, or
/// `None` when there is no complete window or `f` declines one.
#[must_use]
pub fn windowed(samples: &[f64], window: usize, f: impl Fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let values = windows(samples.len(), window)
        .into_iter()
        .map(|r| f(&samples[r]))
        .collect::<Option<Vec<f64>>>()?;
    (!values.is_empty()).then(|| median(&values))
}

/// The median over windows of completions per second, from the
/// completion times `done_s` (seconds since `0`, in completion order).
#[must_use]
pub fn windowed_rate(done_s: &[f64], window: usize) -> Option<f64> {
    let rates: Vec<f64> = windows(done_s.len(), window)
        .into_iter()
        .map(|r| {
            let from = if r.start == 0 {
                0.0
            } else {
                done_s[r.start - 1]
            };
            ratio(r.len() as f64, done_s[r.end - 1] - from)
        })
        .collect();
    (!rates.is_empty()).then(|| median(&rates))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        // 99 samples leave only 9 beyond the 90th percentile.
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        // 20 samples leave exactly 10 beyond the median; 19 leave 9.
        assert_eq!(percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&hundred[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (1..=200).map(f64::from).collect();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.9), Some(180.0));
    }

    #[test]
    fn windows_cover_every_sample() {
        assert_eq!(windows(10, 3), vec![0..3, 3..6, 6..10]);
        assert_eq!(windows(6, 3), vec![0..3, 3..6]);
        assert!(windows(2, 3).is_empty());
    }

    #[test]
    fn windowed_medians_ignore_a_slow_minority() {
        // Five windows of 20; the fourth is three times slower.
        let mut samples: Vec<f64> = (0..100).map(|i| f64::from(i % 20)).collect();
        for s in &mut samples[60..80] {
            *s *= 3.0;
        }
        let p50 = windowed(&samples, 20, |w| percentile(w, 0.5));
        assert_eq!(p50, Some(9.0));
        assert_eq!(windowed(&samples[..10], 20, |w| percentile(w, 0.5)), None);
        // One completion every 0.1 s, with a 2 s stall in the second window.
        let mut t = 0.0;
        let done: Vec<f64> = (0..30)
            .map(|i| {
                t += if i == 15 { 2.0 } else { 0.1 };
                t
            })
            .collect();
        let rate = windowed_rate(&done, 10).expect("three windows");
        assert!((rate - 10.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
