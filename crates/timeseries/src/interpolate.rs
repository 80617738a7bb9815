//! Gap reconstruction by interpolation.
//!
//! Sieve preprocesses collected time series before clustering: "To
//! reconstruct missing data, we use spline interpolation of the third order
//! (cubic)" (§3.2). This module implements natural cubic splines (with a
//! tridiagonal solver) plus a simpler linear interpolator used as a fallback
//! when fewer than three knots are available.
//!
//! # The knot rule
//!
//! Where the resampler uses them, both interpolants return a knot's own
//! value at the knot, bit for bit. [`CubicSpline::evaluate`] returns
//! `ys[i]` when its search finds `x` among the knots; only a point strictly
//! between knots, or past the last one, runs the cubic.
//! [`linear_interpolate`] returns a boundary value at or past either end,
//! and the resampler gives it two knots at most, so every knot is an end
//! (at an interior knot its blend `ys[i-1] * 0.0 + ys[i]` is not bitwise
//! `ys[i]` for every input: an infinite `ys[i-1]`, or a `ys[i]` of −0.0).
//! [`crate::resample`] leans on exactly that: it copies the value of every
//! grid point that is a knot and fits an interpolant only for a window with
//! a grid point no knot sits on.

use crate::{Result, TimeSeriesError};

/// A natural cubic spline fitted to `(x, y)` knots.
///
/// # Example
///
/// ```
/// use sieve_timeseries::CubicSpline;
///
/// # fn main() -> Result<(), sieve_timeseries::TimeSeriesError> {
/// let xs = [0.0, 1.0, 2.0, 3.0];
/// let ys = [0.0, 1.0, 8.0, 27.0];
/// let spline = CubicSpline::fit(&xs, &ys)?;
/// // Exact at the knots, smooth in between.
/// assert!((spline.evaluate(2.0) - 8.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots.
    m: Vec<f64>,
}

impl CubicSpline {
    /// Fits a natural cubic spline through the given knots.
    ///
    /// # Errors
    ///
    /// * [`TimeSeriesError::LengthMismatch`] if `xs` and `ys` differ in length.
    /// * [`TimeSeriesError::TooFewObservations`] if fewer than 3 knots are given.
    /// * [`TimeSeriesError::UnsortedTimestamps`] if `xs` is not strictly increasing.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Result<Self> {
        if xs.len() != ys.len() {
            return Err(TimeSeriesError::LengthMismatch {
                left: xs.len(),
                right: ys.len(),
            });
        }
        if xs.len() < 3 {
            return Err(TimeSeriesError::TooFewObservations {
                required: 3,
                actual: xs.len(),
            });
        }
        for i in 1..xs.len() {
            if xs[i] <= xs[i - 1] {
                return Err(TimeSeriesError::UnsortedTimestamps { index: i });
            }
        }
        let n = xs.len();
        // Solve for second derivatives m[0..n] with natural boundary
        // conditions m[0] = m[n-1] = 0 using the Thomas algorithm.
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        let mut c = vec![0.0; n];
        let mut d = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = 1.0;
        for i in 1..n - 1 {
            let h_prev = xs[i] - xs[i - 1];
            let h_next = xs[i + 1] - xs[i];
            a[i] = h_prev;
            b[i] = 2.0 * (h_prev + h_next);
            c[i] = h_next;
            d[i] = 6.0 * ((ys[i + 1] - ys[i]) / h_next - (ys[i] - ys[i - 1]) / h_prev);
        }
        // Forward sweep.
        let mut c_star = vec![0.0; n];
        let mut d_star = vec![0.0; n];
        c_star[0] = c[0] / b[0];
        d_star[0] = d[0] / b[0];
        for i in 1..n {
            let denom = b[i] - a[i] * c_star[i - 1];
            c_star[i] = c[i] / denom;
            d_star[i] = (d[i] - a[i] * d_star[i - 1]) / denom;
        }
        // Back substitution.
        let mut m = vec![0.0; n];
        m[n - 1] = d_star[n - 1];
        for i in (0..n - 1).rev() {
            m[i] = d_star[i] - c_star[i] * m[i + 1];
        }
        Ok(Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            m,
        })
    }

    /// Evaluates the spline at `x`.
    ///
    /// Values outside the knot range are linearly extrapolated from the
    /// boundary segments.
    pub fn evaluate(&self, x: f64) -> f64 {
        match self
            .xs
            .binary_search_by(|probe| probe.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(idx) => self.ys[idx],
            Err(below) => self.evaluate_between(below, x),
        }
    }

    /// Evaluates the spline at an `x` that is no knot, given `below`, the
    /// number of knots less than `x` — the insertion point
    /// [`CubicSpline::evaluate`]'s binary search finds, and the knot cursor
    /// of the resampler's merge walk. Both callers run this one body, so a
    /// point costs the same arithmetic whichever way its segment was found.
    pub(crate) fn evaluate_between(&self, below: usize, x: f64) -> f64 {
        let n = self.xs.len();
        let i = match below {
            0 => 0,
            idx if idx >= n => n - 2,
            idx => idx - 1,
        };
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        a * self.ys[i]
            + b * self.ys[i + 1]
            + ((a.powi(3) - a) * self.m[i] + (b.powi(3) - b) * self.m[i + 1]) * h * h / 6.0
    }
}

/// Piecewise-linear interpolation at `x` given knots `(xs, ys)`.
///
/// Outside the knot range the boundary values are returned (constant
/// extrapolation). Returns `None` when no knots are provided or the slices
/// have different lengths.
pub(crate) fn linear_interpolate(xs: &[f64], ys: &[f64], x: f64) -> Option<f64> {
    if xs.is_empty() || xs.len() != ys.len() {
        return None;
    }
    if x <= xs[0] {
        return Some(ys[0]);
    }
    if x >= xs[xs.len() - 1] {
        return Some(ys[ys.len() - 1]);
    }
    for i in 1..xs.len() {
        if x <= xs[i] {
            let t = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
            return Some(ys[i - 1] * (1.0 - t) + ys[i] * t);
        }
    }
    Some(ys[ys.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spline_is_exact_at_knots() {
        let xs = [0.0, 1.0, 2.5, 4.0, 5.0];
        let ys = [1.0, -2.0, 0.5, 3.0, 3.0];
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!((s.evaluate(*x) - y).abs() < 1e-9, "knot ({x}, {y})");
        }
    }

    #[test]
    fn spline_reproduces_linear_function_exactly() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 2.0).collect();
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        for i in 0..90 {
            let x = i as f64 / 10.0;
            assert!((s.evaluate(x) - (3.0 * x + 2.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn spline_approximates_smooth_function_between_knots() {
        let xs: Vec<f64> = (0..21).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        for i in 0..100 {
            let x = i as f64 * 0.1;
            assert!(
                (s.evaluate(x) - x.sin()).abs() < 0.01,
                "poor approximation at {x}"
            );
        }
    }

    #[test]
    fn spline_rejects_bad_input() {
        assert!(CubicSpline::fit(&[0.0, 1.0], &[0.0, 1.0]).is_err());
        assert!(CubicSpline::fit(&[0.0, 1.0, 1.0], &[0.0, 1.0, 2.0]).is_err());
        assert!(CubicSpline::fit(&[0.0, 1.0, 2.0], &[0.0, 1.0]).is_err());
    }

    #[test]
    fn linear_interpolation_midpoint() {
        let v = linear_interpolate(&[0.0, 2.0], &[0.0, 10.0], 1.0).unwrap();
        assert!((v - 5.0).abs() < 1e-12);
        // Constant extrapolation outside the range.
        assert_eq!(
            linear_interpolate(&[0.0, 2.0], &[0.0, 10.0], -1.0),
            Some(0.0)
        );
        assert_eq!(
            linear_interpolate(&[0.0, 2.0], &[0.0, 10.0], 5.0),
            Some(10.0)
        );
    }
}
