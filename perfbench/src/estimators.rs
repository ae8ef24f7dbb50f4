//! In-run estimators. Every timing the benchmark reports goes through
//! one of these, so a neighbour's burst on the shared box has to spoil
//! half of a run before it moves a reported number.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule
/// on a sorted copy. `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median as the mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Quartiles by the same exclusive method as Python's
/// `statistics.quantiles(values, n=4)`, which is what the acceptance rule
/// for this benchmark is written against. Needs at least two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos as f64 / 4.0) - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median: the spread the driver
/// computes over ten runs, and the in-run noise witness over the windows.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

/// Requests per second of the median window: each window is `requests`
/// requests that took `window_secs[i]` seconds.
pub fn median_window_rate(requests: usize, window_secs: &[f64]) -> Option<f64> {
    let rates: Vec<f64> = window_secs.iter().map(|s| requests as f64 / s).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of arrival does not matter.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), Some(5.0));
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn contaminated_windows_do_not_move_the_median_rate() {
        // Ten windows of 1000 requests at 1000/s, four of them hit by a
        // neighbour's burst that makes them three times slower.
        let mut secs = vec![1.0; 10];
        let clean = median_window_rate(1000, &secs).unwrap();
        for s in secs.iter_mut().take(4) {
            *s = 3.0;
        }
        assert_eq!(median_window_rate(1000, &secs), Some(clean));
        // The mean would have dropped by more than a third.
        let mean_rate = 10_000.0 / secs.iter().sum::<f64>();
        assert!(mean_rate < 0.6 * clean);
        // The witness sees the contamination.
        let rates: Vec<f64> = secs.iter().map(|s| 1000.0 / s).collect();
        assert!(iqr_share(&rates).unwrap() > 0.2);
    }
}
