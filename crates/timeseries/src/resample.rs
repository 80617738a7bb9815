//! Discretization of irregular observations onto a fixed grid.
//!
//! Monitoring systems retrieve metrics at slightly different points in time;
//! Sieve discretizes them onto a common 500 ms grid before clustering and
//! causality testing (§3.2: "we discretize using 500ms instead of the
//! original 2s used in the original k-Shape paper"). This module resamples a
//! [`TimeSeries`] onto such a grid using cubic-spline (or linear)
//! interpolation.
//!
//! # The knot rule
//!
//! Resampling is one merge walk over the grid and the observations, which
//! are the interpolant's knots. A grid point that is a knot takes the
//! knot's value. That is exact, not an approximation: both interpolants
//! return a knot's own value at the knot (see [`crate::interpolate`]).
//! Only a grid point no knot sits on — in a gap, under jitter, or the
//! overhang past the last observation — is interpolated. It is evaluated on
//! the segment the walk stands on, and the interpolant is fitted once, at
//! the first such point. A window sampled on the grid, which is what a
//! steady scraper records, so costs one pass that copies its values and
//! fits nothing.
//!
//! Hits and misses are decided on the `f64` values of the timestamps, the
//! ones the spline is fitted on and evaluated at. So the walk returns, bit
//! for bit and for every input, what evaluating the interpolant at every
//! grid point returns; the crate's property tests keep that body as the
//! oracle.
//!
//! # Malformed windows
//!
//! A window is checked once, before any grid point is written, and each
//! fault has its own error: timestamps out of order
//! ([`TimeSeriesError::UnsortedTimestamps`]), three or more knots two of
//! which are equal as `f64` ([`TimeSeriesError::IndistinctTimestamps`]; two
//! knots need no spline, and the linear fallback takes them as they are),
//! a grid that would run past `u64::MAX`
//! ([`TimeSeriesError::GridOverflow`]), and one too long to allocate
//! ([`TimeSeriesError::GridTooLarge`]).

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
/// A grid point that is an observation keeps its value (the knot rule, see
/// the module docs). Grid points between observations are interpolated
/// with a natural cubic spline when at least three observations exist,
/// otherwise linearly; the at-most-one overhang point past the last
/// observation is extrapolated (linearly by the spline's boundary segment,
/// as the boundary constant by the linear fallback).
///
/// # Errors
///
/// * [`TimeSeriesError::Empty`] for an empty input series.
/// * [`TimeSeriesError::InvalidParameter`] when `interval_ms` is zero.
/// * [`TimeSeriesError::UnsortedTimestamps`],
///   [`TimeSeriesError::IndistinctTimestamps`],
///   [`TimeSeriesError::GridOverflow`] and
///   [`TimeSeriesError::GridTooLarge`] for the malformed windows the module
///   docs list.
pub fn resample(series: &TimeSeries, interval_ms: u64) -> Result<TimeSeries> {
    resample_view(series.view(), interval_ms)
}

/// Resamples a borrowed [`SeriesView`] onto a regular grid of `interval_ms`.
///
/// This is [`resample_values_into`] plus the grid's timestamps; [`resample`]
/// is a thin wrapper over it, so all three are bit-identical by
/// construction.
///
/// # Errors
///
/// Same as [`resample`].
pub fn resample_view(series: SeriesView<'_>, interval_ms: u64) -> Result<TimeSeries> {
    let mut values = Vec::new();
    resample_values_into(series, interval_ms, &mut values)?;
    let start = series.start_ms().unwrap_or_default();
    let grid = (0..values.len() as u64)
        .map(|i| start + i * interval_ms)
        .collect();
    TimeSeries::from_parts(grid, values)
}

/// Appends the values of `series` resampled onto the grid of `interval_ms`
/// to `out` and returns how many of them were interpolated, i.e. fell on
/// no observation.
///
/// This is the zero-copy entry point preparation uses: it reads the store's
/// borrowed window and writes straight into the caller's buffer, with no
/// grid of timestamps and no copy of the window. On error `out` is left as
/// it was.
///
/// # Errors
///
/// Same as [`resample`].
pub fn resample_values_into(
    series: SeriesView<'_>,
    interval_ms: u64,
    out: &mut Vec<f64>,
) -> Result<usize> {
    let grid = Grid::new(series, interval_ms)?;
    let before = out.len();
    grid.walk(series, out).inspect_err(|_| out.truncate(before))
}

/// Every `u64` up to this one converts to a distinct `f64`, exactly.
const EXACT_MS: u64 = 1 << 53;

/// The grid that covers a checked window.
struct Grid {
    start_ms: u64,
    interval_ms: u64,
    len: usize,
}

impl Grid {
    /// Checks a window once, before any grid point is written, and returns
    /// the grid that covers it.
    fn new(series: SeriesView<'_>, interval_ms: u64) -> Result<Self> {
        let ts = series.timestamps();
        let (Some(&start_ms), Some(&end)) = (ts.first(), ts.last()) else {
            return Err(TimeSeriesError::Empty);
        };
        if interval_ms == 0 {
            return Err(TimeSeriesError::InvalidParameter {
                name: "interval_ms",
                reason: "must be positive".to_string(),
            });
        }
        // A spline needs its knots apart as `f64` too, which only
        // timestamps past 2^53 can fail.
        let spline = ts.len() >= 3 && end > EXACT_MS;
        for (i, pair) in ts.windows(2).enumerate() {
            if pair[1] <= pair[0] {
                return Err(TimeSeriesError::UnsortedTimestamps { index: i + 1 });
            }
            if spline && pair[1] as f64 <= pair[0] as f64 {
                return Err(TimeSeriesError::IndistinctTimestamps { index: i + 1 });
            }
        }
        let steps = (end - start_ms).div_ceil(interval_ms);
        let last_fits = steps
            .checked_mul(interval_ms)
            .and_then(|span| start_ms.checked_add(span))
            .is_some();
        match usize::try_from(steps).ok().and_then(|s| s.checked_add(1)) {
            Some(len) if last_fits => Ok(Self {
                start_ms,
                interval_ms,
                len,
            }),
            _ => Err(TimeSeriesError::GridOverflow {
                last_ms: end,
                interval_ms,
            }),
        }
    }

    /// Grid point `i`.
    fn point(&self, i: usize) -> u64 {
        self.start_ms + i as u64 * self.interval_ms
    }

    /// The merge walk: appends the value at every grid point to `out`,
    /// deciding hits on the `f64` values of the timestamps, and returns the
    /// grid points interpolated.
    fn walk(&self, series: SeriesView<'_>, out: &mut Vec<f64>) -> Result<usize> {
        let (ts, ys) = (series.timestamps(), series.values());
        out.try_reserve(self.len)
            .map_err(|_| TimeSeriesError::GridTooLarge { points: self.len })?;
        let (mut interpolant, mut interpolated) = (None, 0);
        // The knots less than the grid point.
        let mut below = 0;
        for i in 0..self.len {
            let x = self.point(i) as f64;
            while below < ts.len() && (ts[below] as f64) < x {
                below += 1;
            }
            if below < ts.len() && ts[below] as f64 == x {
                out.push(ys[below]);
                continue;
            }
            let interpolant = match &mut interpolant {
                Some(interpolant) => interpolant,
                empty => empty.insert(Interpolant::fit(ts, ys)?),
            };
            out.push(interpolant.between(ys, below, x));
            interpolated += 1;
        }
        Ok(interpolated)
    }
}

/// What a window with a grid point between knots is interpolated with.
enum Interpolant {
    /// A natural cubic spline through three or more knots.
    Spline(CubicSpline),
    /// The linear fallback's knots, at most two.
    Linear(Vec<f64>),
}

impl Interpolant {
    fn fit(ts: &[u64], ys: &[f64]) -> Result<Self> {
        let xs: Vec<f64> = ts.iter().map(|&t| t as f64).collect();
        Ok(if xs.len() >= 3 {
            Interpolant::Spline(CubicSpline::fit(&xs, ys)?)
        } else {
            Interpolant::Linear(xs)
        })
    }

    /// The value at `x`, which is no knot and has `below` knots less than
    /// it.
    fn between(&self, ys: &[f64], below: usize, x: f64) -> f64 {
        match self {
            Interpolant::Spline(spline) => spline.evaluate_between(below, x),
            Interpolant::Linear(xs) => linear_interpolate(xs, ys, x).unwrap_or(ys[0]),
        }
    }
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
    fn an_unsorted_view_is_refused_before_any_grid_is_built() {
        // `SeriesView::new` checks only lengths. Ends out of order used to
        // underflow the span into a ~2^64-point grid.
        let mut out = vec![9.0];
        let view = SeriesView::new(&[1000, 0], &[1.0, 2.0]);
        assert_eq!(
            resample_values_into(view, 500, &mut out),
            Err(TimeSeriesError::UnsortedTimestamps { index: 1 })
        );
        let view = SeriesView::new(&[0, 1000, 500, 2000], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            resample_view(view, 500),
            Err(TimeSeriesError::UnsortedTimestamps { index: 2 })
        );
        assert_eq!(out, [9.0], "nothing is appended on error");
    }

    #[test]
    fn a_grid_past_u64_max_is_refused() {
        // The third grid point of this window would be u64::MAX + 300:
        // a debug build used to panic on the add, a release build wrapped.
        let view = SeriesView::new(&[u64::MAX - 700, u64::MAX - 100], &[1.0, 2.0]);
        assert_eq!(
            resample_view(view, 500),
            Err(TimeSeriesError::GridOverflow {
                last_ms: u64::MAX - 100,
                interval_ms: 500,
            })
        );
        // A grid whose last point is u64::MAX itself still fits.
        let view = SeriesView::new(&[u64::MAX - 1000, u64::MAX], &[1.0, 2.0]);
        assert_eq!(resample_view(view, 500).unwrap().len(), 3);
    }

    #[test]
    fn a_grid_too_long_to_allocate_is_refused() {
        // Two samples 2^62 ms apart ask for ~9.2e15 grid points (74 PB):
        // the allocation used to abort the process.
        let view = SeriesView::new(&[0, 1 << 62], &[1.0, 2.0]);
        let mut out = Vec::new();
        assert_eq!(
            resample_values_into(view, 500, &mut out),
            Err(TimeSeriesError::GridTooLarge {
                points: (1 << 62) / 500 + 2,
            })
        );
        assert!(out.is_empty());
    }

    #[test]
    fn timestamps_equal_as_f64_are_refused_where_a_spline_needs_them_apart() {
        // Distinct integers from 2^53 on can convert to one f64; these were
        // reported as out of order.
        let t = 1u64 << 53;
        let three = [t, t + 1, t + 1000];
        let view = SeriesView::new(&three, &[1.0, 2.0, 3.0]);
        assert_eq!(
            resample_view(view, 500),
            Err(TimeSeriesError::IndistinctTimestamps { index: 1 })
        );
        // Two knots take the linear fallback, which needs no gap between
        // them: such a window resamples as it always did.
        let two = [t, t + 1];
        let r = resample_view(SeriesView::new(&two, &[1.0, 2.0]), 500).unwrap();
        assert_eq!(r.timestamps(), &[t, t + 500]);
        assert_eq!(r.values(), &[1.0, 2.0]);
        // At 2^63 the f64 spacing is 2048 ms: both knots and all three grid
        // points are one f64, and each grid point takes the first knot's
        // value, as `linear_interpolate` does.
        let far = [1 << 63, (1 << 63) + 1000];
        let r = resample_view(SeriesView::new(&far, &[1.0, 2.0]), 500).unwrap();
        assert_eq!(r.values(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn the_walk_counts_the_grid_points_it_interpolates() {
        let mut out = Vec::new();
        // On the grid: every point is a knot, no spline is fitted.
        let on_grid = TimeSeries::from_values(250, 500, vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(resample_values_into(on_grid.view(), 500, &mut out), Ok(0));
        assert_eq!(out, on_grid.values());
        // A missing tick (1000) and an overhang point (2500) past 2200.
        let gapped = TimeSeries::from_parts(
            vec![0, 500, 1500, 2000, 2200],
            vec![0.0, 1.0, 3.0, 4.0, 4.4],
        )
        .unwrap();
        out.clear();
        assert_eq!(resample_values_into(gapped.view(), 500, &mut out), Ok(2));
        assert_eq!(out.len(), 6);
        assert_eq!([out[0], out[1], out[3], out[4]], [0.0, 1.0, 3.0, 4.0]);
        // Two knots, 700 ms apart: the middle grid point and the overhang.
        let two = TimeSeries::from_parts(vec![0, 700], vec![0.0, 7.0]).unwrap();
        out.clear();
        assert_eq!(resample_values_into(two.view(), 500, &mut out), Ok(2));
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
