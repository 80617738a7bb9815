//! Order statistics and the percentile rule every reported timing obeys.

/// Fewest samples that must lie beyond a percentile for it to be reported
/// (choosing-metrics §1): a p99 of 200 samples is two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The percentiles the benchmark ever reports, ascending, in percent.
pub const LADDER: [usize; 5] = [50, 75, 90, 95, 99];

/// Whether `samples` values leave at least [`MIN_BEYOND`] of them beyond
/// the `percent`-th percentile.
pub fn supports(samples: usize, percent: usize) -> bool {
    samples * (100 - percent) / 100 >= MIN_BEYOND
}

/// The highest [`LADDER`] percentile `samples` values support, or `None`
/// when even the median has fewer than [`MIN_BEYOND`] samples beyond it.
pub fn highest_supported(samples: usize) -> Option<usize> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&percent| supports(samples, percent))
}

/// Sorts `values` ascending in place (timings are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
}

/// Percentile `p` (a fraction in `0..=1`) of an ascending slice, by linear
/// interpolation between the two nearest ranks. Zero for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = p.clamp(0.0, 1.0) * last as f64;
    let below = rank.floor() as usize;
    let above = (below + 1).min(last);
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    percentile_sorted(&sorted, 0.5)
}

/// The smallest of `values` (timings are never NaN); zero for none.
///
/// Runs report the *quietest window*, not the median over the run: this
/// host's neighbours slow CPU-bound code by up to 1.6x for seconds to
/// minutes at a time (measured, see the README), that noise only ever adds
/// time, and over a run of half a minute the least-disturbed window repeats
/// within a few percent where the median over the run moves by 15-30 %.
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The highest percentile of an unsorted sample that [`highest_supported`]
/// allows; the median when it allows none.
pub fn supported_tail(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    percentile_sorted(
        &sorted,
        highest_supported(sorted.len()).unwrap_or(50) as f64 / 100.0,
    )
}

/// Mean of the central fifth of an ascending slice of `(key, a, b)` rows,
/// per column: the parts of "the typical sample" when a quantity is the
/// sum of two others and all three should agree at the median.
pub fn central_mean(sorted_rows: &[(f64, f64, f64)]) -> (f64, f64, f64) {
    if sorted_rows.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let n = sorted_rows.len();
    let (mid, half_width) = (n / 2, (n / 10).max(1));
    let rows = &sorted_rows[mid.saturating_sub(half_width)..(mid + half_width).min(n)];
    let k = rows.len() as f64;
    let sum = rows.iter().fold((0.0, 0.0, 0.0), |acc, row| {
        (acc.0 + row.0, acc.1 + row.1, acc.2 + row.2)
    });
    (sum.0 / k, sum.1 / k, sum.2 / k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50));
        assert_eq!(highest_supported(39), Some(50));
        assert_eq!(highest_supported(40), Some(75));
        assert_eq!(highest_supported(99), Some(75));
        assert_eq!(highest_supported(100), Some(90));
        assert_eq!(highest_supported(105), Some(90));
        assert_eq!(highest_supported(199), Some(90));
        assert_eq!(highest_supported(200), Some(95));
        assert_eq!(highest_supported(999), Some(95));
        assert_eq!(highest_supported(1000), Some(99));
        assert!(supports(105, 90) && !supports(105, 95));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 0.5), 2.5);
        assert_eq!(percentile_sorted(&sorted, 1.0), 4.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        // Nine samples support no percentile: the tail is the median.
        let few: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(supported_tail(&few), 5.0);
        let many: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&many), 90.0);
    }

    #[test]
    fn the_quietest_window_is_an_extreme() {
        assert_eq!(least(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(least(&[]), 0.0);
    }

    #[test]
    fn central_mean_keeps_the_parts_summing_to_the_whole() {
        let rows: Vec<(f64, f64, f64)> = (0..100)
            .map(|i| {
                let (a, b) = (i as f64, 2.0 * i as f64);
                (a + b, a, b)
            })
            .collect();
        let (whole, a, b) = central_mean(&rows);
        assert!((whole - (a + b)).abs() < 1e-9);
        let median = percentile_sorted(&rows.iter().map(|r| r.0).collect::<Vec<_>>(), 0.5);
        assert!((whole - median).abs() / median < 0.02);
        assert_eq!(central_mean(&[]), (0.0, 0.0, 0.0));
        assert_eq!(central_mean(&[(3.0, 1.0, 2.0)]), (3.0, 1.0, 2.0));
    }
}
