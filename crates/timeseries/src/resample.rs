//! Discretization of irregular observations onto a fixed grid.
//!
//! Monitoring systems retrieve metrics at slightly different points in time;
//! Sieve discretizes them onto a common 500 ms grid before clustering and
//! causality testing (§3.2: "we discretize using 500ms instead of the
//! original 2s used in the original k-Shape paper"). This module resamples a
//! [`TimeSeries`] onto such a grid using cubic-spline (or linear)
//! interpolation.

use crate::interpolate::{linear_interpolate, CubicSpline};
use crate::series::SeriesView;
use crate::{Result, TimeSeries, TimeSeriesError};

/// Resamples `series` onto a regular grid of `interval_ms` covering the
/// original time span.
///
/// The grid starts at the first observation and extends until it *covers*
/// the last one (ceiling division of the span): when the span is not an
/// exact multiple of `interval_ms`, the final grid point lies within one
/// interval past the last observation rather than one interval before it —
/// truncating the grid at the last multiple below `end` used to silently
/// drop up to a full interval of data at the end of every series.
///
/// Grid points between observations are interpolated with a natural cubic
/// spline when at least three observations exist, otherwise linearly; the
/// at-most-one overhang point past the last observation is extrapolated
/// (linearly by the spline's boundary segment, as the boundary constant by
/// the linear fallback).
///
/// # Errors
///
/// * [`TimeSeriesError::Empty`] for an empty input series.
/// * [`TimeSeriesError::InvalidParameter`] when `interval_ms` is zero.
pub fn resample(series: &TimeSeries, interval_ms: u64) -> Result<TimeSeries> {
    resample_view(series.view(), interval_ms)
}

/// Resamples a borrowed [`SeriesView`] onto a regular grid of `interval_ms`.
///
/// This is the zero-copy entry point used when reading a retained window
/// straight out of the metric store: the grid and interpolation are computed
/// directly from the borrowed slices, and only the resampled output is
/// allocated. [`resample`] is a thin wrapper over this function, so both
/// paths are bit-identical by construction.
///
/// # Errors
///
/// Same as [`resample`].
pub fn resample_view(series: SeriesView<'_>, interval_ms: u64) -> Result<TimeSeries> {
    if series.is_empty() {
        return Err(TimeSeriesError::Empty);
    }
    if interval_ms == 0 {
        return Err(TimeSeriesError::InvalidParameter {
            name: "interval_ms",
            reason: "must be positive".to_string(),
        });
    }
    let start = series.start_ms().expect("non-empty");
    let end = series.end_ms().expect("non-empty");
    let xs: Vec<f64> = series.timestamps().iter().map(|&t| t as f64).collect();
    let ys = series.values();

    let n_points = (end - start).div_ceil(interval_ms) as usize + 1;
    let grid: Vec<u64> = (0..n_points as u64)
        .map(|i| start + i * interval_ms)
        .collect();

    let values: Vec<f64> = if xs.len() >= 3 {
        let spline = CubicSpline::fit(&xs, ys)?;
        grid.iter().map(|&t| spline.evaluate(t as f64)).collect()
    } else {
        grid.iter()
            .map(|&t| linear_interpolate(&xs, ys, t as f64).unwrap_or(ys[0]))
            .collect()
    };
    TimeSeries::from_parts(grid, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resample_preserves_regular_series() {
        let ts = TimeSeries::from_values(0, 500, vec![1.0, 2.0, 3.0, 4.0]);
        let r = resample(&ts, 500).unwrap();
        assert_eq!(r.timestamps(), ts.timestamps());
        for (a, b) in r.values().iter().zip(ts.values()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn resample_densifies_coarse_series() {
        // 2 s sampling resampled to 500 ms: 4x as many intervals.
        let ts = TimeSeries::from_values(0, 2000, vec![0.0, 4.0, 8.0, 12.0]);
        let r = resample(&ts, 500).unwrap();
        assert_eq!(r.len(), 13);
        // The underlying signal is linear, so interior points are exact.
        assert!((r.values()[1] - 1.0).abs() < 1e-9);
        assert!((r.values()[6] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn resample_grid_covers_the_final_observation() {
        // Regression: span 0..1700 at 500 ms used to stop the grid at 1500,
        // silently dropping the 1700 ms observation. The ceiling grid now
        // ends at 2000 and the final value survives (by extrapolation of the
        // boundary segment).
        let ts =
            TimeSeries::from_parts(vec![0, 600, 1200, 1700], vec![0.0, 6.0, 12.0, 17.0]).unwrap();
        let r = resample(&ts, 500).unwrap();
        assert_eq!(r.timestamps(), &[0, 500, 1000, 1500, 2000]);
        assert!(r.end_ms().unwrap() >= ts.end_ms().unwrap());
        // The signal is linear, so even the extrapolated tail is exact.
        for (t, v) in r.iter() {
            assert!((v - t as f64 / 100.0).abs() < 1e-9, "grid point {t}");
        }
    }

    #[test]
    fn resample_two_point_series_covers_end_with_boundary_value() {
        // Linear fallback: the overhang point takes the boundary value
        // (constant extrapolation of `linear_interpolate`).
        let ts = TimeSeries::from_parts(vec![0, 700], vec![0.0, 7.0]).unwrap();
        let r = resample(&ts, 500).unwrap();
        assert_eq!(r.timestamps(), &[0, 500, 1000]);
        assert!((r.values()[2] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn resample_rejects_bad_input() {
        assert!(resample(&TimeSeries::new(), 500).is_err());
        let ts = TimeSeries::from_values(0, 100, vec![1.0, 2.0]);
        assert!(resample(&ts, 0).is_err());
    }

    #[test]
    fn resample_two_point_series_uses_linear() {
        let ts = TimeSeries::from_values(0, 1000, vec![0.0, 10.0]);
        let r = resample(&ts, 500).unwrap();
        assert_eq!(r.len(), 3);
        assert!((r.values()[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn resample_view_is_bit_identical_to_resample() {
        let ts =
            TimeSeries::from_parts(vec![0, 600, 1200, 1700], vec![0.3, 6.1, 11.7, 17.2]).unwrap();
        let owned = resample(&ts, 500).unwrap();
        let viewed = resample_view(ts.view(), 500).unwrap();
        assert_eq!(owned, viewed);
        // A view over only the tail resamples exactly that tail.
        let tail = SeriesView::new(&ts.timestamps()[1..], &ts.values()[1..]);
        let tail_resampled = resample_view(tail, 500).unwrap();
        assert_eq!(tail_resampled.start_ms(), Some(600));
    }
}
