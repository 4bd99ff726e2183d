//! Order statistics for the report: percentiles with the sample-count
//! rule, and repetition medians and spreads.

/// Fewest timed rounds per repetition: keeps at least ten samples beyond
/// the 99th percentile.
pub const MIN_ROUNDS: usize = 1_100;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending, non-empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Round `i`'s time taken as the fastest of its repetitions: every
/// repetition does identical work, and interference only ever adds time.
/// Empty when there is no repetition.
pub fn fastest(reps: &[&[u64]]) -> Vec<u64> {
    let rounds = reps.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..rounds)
        .map(|i| reps.iter().map(|r| r[i]).min().unwrap_or(0))
        .collect()
}

/// [`fastest`] after each repetition has been rescaled so that its own
/// median becomes `median`. A repetition can be tens of percent slower as
/// a whole (where its heap landed, what the host was doing for those
/// seconds); unscaled, the fastest repetition would win nearly every
/// round, and its own disturbed rounds would stay in the tail.
pub fn fastest_rescaled(reps: &[&[u64]], median: u64) -> Vec<u64> {
    let rescaled: Vec<Vec<u64>> = reps
        .iter()
        .map(|rep| {
            let mut sorted = rep.to_vec();
            sorted.sort_unstable();
            let own = if sorted.is_empty() {
                1
            } else {
                percentile(&sorted, 0.5).max(1)
            };
            let scale = median as f64 / own as f64;
            rep.iter().map(|&t| (t as f64 * scale) as u64).collect()
        })
        .collect();
    fastest(&rescaled.iter().map(Vec::as_slice).collect::<Vec<_>>())
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample (mean of the middle two when even; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = ascending(values);
    let mid = v.len() / 2;
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median` over repetitions; 0 for a single repetition or
/// a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let v = ascending(values);
    let m = median(&v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn min_rounds_keeps_ten_samples_beyond_p99() {
        assert!(samples_beyond(MIN_ROUNDS, 0.99) >= 10);
        assert!(samples_beyond(900, 0.99) < 10);
    }

    #[test]
    fn fastest_keeps_shared_tail_and_drops_lone_spikes() {
        // Round 2 is heavy in every repetition; round 0 was disturbed once.
        let (a, b): (&[u64], &[u64]) = (&[90, 10, 50, 10, 10], &[10, 10, 50, 10, 10]);
        assert_eq!(fastest(&[a, b]), [10, 10, 50, 10, 10]);
        assert!(fastest(&[]).is_empty());
    }

    #[test]
    fn rescaling_cancels_a_slow_repetition() {
        // `slow` is `quick` at 1.5x throughout, but only `quick` was
        // disturbed on round 0. Unscaled, `quick` wins every round and
        // its spike stays; rescaled, `slow` supplies round 0.
        let quick: &[u64] = &[900, 100, 500, 100, 100];
        let slow: &[u64] = &[150, 150, 750, 150, 150];
        assert_eq!(fastest(&[quick, slow]), [150, 100, 500, 100, 100]);
        assert_eq!(
            fastest_rescaled(&[quick, slow], 100),
            [100, 100, 500, 100, 100]
        );
    }

    #[test]
    fn repetition_median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(spread(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(spread(&[2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!((median(&[]), spread(&[])), (0.0, 0.0));
    }
}
