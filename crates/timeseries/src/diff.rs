//! First differencing.
//!
//! Non-stationary series (e.g. monotonically increasing counters) would make
//! Sieve's Granger F-tests find spurious regressions; the paper takes the
//! first difference of those series (§3.3).

/// First difference of `data`: `d[i] = data[i+1] - data[i]`.
///
/// The result has length `data.len() - 1` (empty for inputs shorter than 2).
///
/// ```
/// assert_eq!(sieve_timeseries::first_difference(&[1.0, 4.0, 9.0]), vec![3.0, 5.0]);
/// ```
pub fn first_difference(data: &[f64]) -> Vec<f64> {
    if data.len() < 2 {
        return Vec::new();
    }
    data.windows(2).map(|w| w[1] - w[0]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_of_counter_is_rate() {
        let counter = [0.0, 10.0, 25.0, 25.0, 40.0];
        assert_eq!(first_difference(&counter), vec![10.0, 15.0, 0.0, 15.0]);
    }

    #[test]
    fn first_difference_of_short_input_is_empty() {
        assert!(first_difference(&[]).is_empty());
        assert!(first_difference(&[1.0]).is_empty());
    }

    #[test]
    fn second_difference_removes_linear_trend() {
        let data: Vec<f64> = (0..10).map(|i| 3.0 * i as f64 + 7.0).collect();
        let d2 = first_difference(&first_difference(&data));
        assert_eq!(d2.len(), 8);
        assert!(d2.iter().all(|v| v.abs() < 1e-12));
    }
}
