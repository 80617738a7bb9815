//! Shape-based distance (SBD) and normalized cross-correlation (NCC).
//!
//! The distance measure of the k-Shape algorithm used by Sieve's metric
//! clustering (§3.2):
//!
//! ```text
//! SBD(x, y) = 1 - max_w NCC_w(x, y)
//! ```
//!
//! where `NCC` is the cross-correlation normalized by the geometric mean of
//! each series' autocorrelation at lag zero. `SBD` is 0 for series with
//! identical shape (regardless of amplitude scaling or time shift within the
//! window) and approaches 2 for anti-correlated series.

use crate::fft::cross_correlation;
use crate::normalize::z_normalize;
use crate::stats::sum_of_squares;
use crate::{Result, TimeSeriesError};

/// Result of a shape-based distance computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SbdResult {
    /// The shape-based distance, in `[0, 2]`.
    pub distance: f64,
    /// The optimal alignment lag in samples.
    ///
    /// Sign convention: **positive means `y` lags `x`** — `y` looks like a
    /// copy of `x` delayed by `shift` samples, so aligning moves `y`
    /// *earlier* in time. Negative means `y` *leads* `x` and alignment moves
    /// `y` later. The value lies in `-(x.len() - 1) ..= y.len() - 1`; its
    /// magnitude can therefore exceed `y.len()` when `x` is the longer
    /// series. [`align_to`] (and [`apply_shift`]) clamp the copy ranges, so
    /// any shift in that range yields a zero-padded vector of `y`'s length —
    /// an extreme lead/lag degenerates to all zeros instead of panicking.
    pub shift: isize,
    /// The maximal normalized cross-correlation value, in `[-1, 1]`.
    pub ncc: f64,
}

/// Computes the full normalized cross-correlation sequence `NCC_w(x, y)` for
/// all shifts `w`, on the z-normalized inputs.
///
/// # Errors
///
/// * [`TimeSeriesError::Empty`] if either input is empty.
pub fn ncc_sequence(x: &[f64], y: &[f64]) -> Result<Vec<f64>> {
    if x.is_empty() || y.is_empty() {
        return Err(TimeSeriesError::Empty);
    }
    let zx = z_normalize(x);
    let zy = z_normalize(y);
    // Same chunked norm kernel as the cached-spectrum path, keeping the
    // direct and cached SBD paths bitwise interchangeable.
    let norm_x = sum_of_squares(&zx).sqrt();
    let norm_y = sum_of_squares(&zy).sqrt();
    let denom = norm_x * norm_y;
    let cc = cross_correlation(&zx, &zy);
    if denom == 0.0 {
        // At least one series is constant: define NCC as all zeros so that
        // SBD becomes the maximal "no shared shape" distance of 1.
        return Ok(vec![0.0; cc.len()]);
    }
    Ok(cc.into_iter().map(|v| v / denom).collect())
}

/// Computes the shape-based distance between `x` and `y` together with the
/// optimal alignment shift.
///
/// # Errors
///
/// * [`TimeSeriesError::Empty`] if either input is empty.
///
/// # Example
///
/// ```
/// use sieve_timeseries::sbd::shape_based_distance;
///
/// # fn main() -> Result<(), sieve_timeseries::TimeSeriesError> {
/// let a = vec![0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0];
/// let b = vec![0.0, 0.0, 0.0, 2.0, 4.0, 2.0, 0.0, 0.0];
/// let r = shape_based_distance(&a, &b)?;
/// assert!(r.distance < 0.2);
/// assert_eq!(r.shift, 1); // `b` lags `a` by one sample
/// # Ok(())
/// # }
/// ```
pub fn shape_based_distance(x: &[f64], y: &[f64]) -> Result<SbdResult> {
    let ncc = ncc_sequence(x, y)?;
    Ok(peak_of_ncc(&ncc, y.len()))
}

impl SbdResult {
    /// Converts an NCC peak — the first maximum `value` of the sequence, at
    /// index `idx` in the linear shift layout — into a result; `m` is
    /// `y.len()`. The one place the clamp and the index → shift conversion
    /// live, shared by the direct path and the cached-spectrum kernel
    /// ([`crate::spectrum::sbd_oriented`]).
    pub(crate) fn from_peak(value: f64, idx: usize, m: usize) -> Self {
        // Clamp tiny numerical overshoots.
        let ncc = value.clamp(-1.0, 1.0);
        Self {
            distance: 1.0 - ncc,
            shift: (m as isize - 1) - idx as isize,
            ncc,
        }
    }
}

/// Finds the first NCC maximum and converts it into an [`SbdResult`]; `m`
/// is `y.len()`.
fn peak_of_ncc(ncc: &[f64], m: usize) -> SbdResult {
    let mut best_idx = 0usize;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &v) in ncc.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best_idx = i;
        }
    }
    SbdResult::from_peak(best_val, best_idx, m)
}

/// Convenience wrapper returning just the distance.
///
/// # Errors
///
/// Same as [`shape_based_distance`].
pub fn sbd(x: &[f64], y: &[f64]) -> Result<f64> {
    Ok(shape_based_distance(x, y)?.distance)
}

/// Aligns `y` towards the reference `x` using the optimal SBD shift: the
/// returned vector has the same length as `y`, shifted by the optimal lag and
/// zero-padded. This is the alignment step used when k-Shape recomputes
/// cluster centroids.
///
/// # Errors
///
/// Same as [`shape_based_distance`].
pub fn align_to(x: &[f64], y: &[f64]) -> Result<Vec<f64>> {
    let r = shape_based_distance(x, y)?;
    Ok(apply_shift(y, r.shift))
}

/// Shifts `y` by `shift` samples (the [`SbdResult::shift`] sign convention:
/// positive moves `y` earlier in time, negative later), zero-padding the
/// vacated positions. Both copy ranges are clamped, so *any* shift — even one
/// whose magnitude exceeds `y.len()`, which happens when the reference series
/// is longer than `y` and leads it by more than `y.len()` samples — yields a
/// well-formed (possibly all-zero) vector of `y`'s length instead of
/// panicking with an out-of-bounds slice.
pub fn apply_shift(y: &[f64], shift: isize) -> Vec<f64> {
    let n = y.len();
    let mut out = vec![0.0; n];
    let s = shift.unsigned_abs().min(n);
    let keep = n - s;
    if shift >= 0 {
        // `y` lags `x`: move `y` earlier in time.
        out[..keep].copy_from_slice(&y[s..]);
    } else {
        // `y` leads `x`: move `y` later in time.
        out[s..].copy_from_slice(&y[..keep]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbd_of_identical_series_is_zero() {
        let x = vec![1.0, 3.0, 2.0, 5.0, 4.0, 1.0];
        let r = shape_based_distance(&x, &x).unwrap();
        assert!(r.distance.abs() < 1e-9);
        assert_eq!(r.shift, 0);
    }

    #[test]
    fn sbd_is_amplitude_invariant() {
        let x = vec![0.0, 1.0, 4.0, 1.0, 0.0, 2.0, 0.0];
        let y: Vec<f64> = x.iter().map(|v| v * 37.5 + 12.0).collect();
        let d = sbd(&x, &y).unwrap();
        assert!(d < 1e-9, "distance {d} should be ~0 for scaled copy");
    }

    #[test]
    fn sbd_detects_time_shift() {
        let n = 64;
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.3).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (((i as f64) - 5.0) * 0.3).sin()).collect();
        let r = shape_based_distance(&x, &y).unwrap();
        // The overlap shrinks by the shift, so the distance is small but not
        // exactly zero.
        assert!(r.distance < 0.15, "shifted sine should still match shape");
        assert_eq!(r.shift, 5, "y lags x by 5 samples");
    }

    #[test]
    fn sbd_of_opposite_shapes_is_large() {
        // A single bump against a single dip: no shift can make these shapes
        // agree, so the distance stays far from zero.
        let x: Vec<f64> = (0..64)
            .map(|i| (-((i as f64 - 32.0) / 6.0).powi(2)).exp())
            .collect();
        let y: Vec<f64> = x.iter().map(|v| -v).collect();
        let d = sbd(&x, &y).unwrap();
        assert!(d > 0.5, "opposite-shape distance was {d}");
    }

    #[test]
    fn sbd_of_unrelated_noise_is_moderate() {
        // Deterministic pseudo-noise from different linear congruential streams.
        let mut s1: u64 = 42;
        let mut s2: u64 = 1337;
        let next = |s: &mut u64| {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((*s >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let x: Vec<f64> = (0..256).map(|_| next(&mut s1)).collect();
        let y: Vec<f64> = (0..256).map(|_| next(&mut s2)).collect();
        let d = sbd(&x, &y).unwrap();
        assert!(d > 0.5, "independent noise should have large SBD, got {d}");
    }

    #[test]
    fn sbd_with_constant_series_is_one() {
        let x = vec![3.0; 16];
        let y: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert!((sbd(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sbd_rejects_empty_input() {
        assert!(sbd(&[], &[1.0]).is_err());
        assert!(sbd(&[1.0], &[]).is_err());
    }

    #[test]
    fn ncc_is_bounded() {
        let x = vec![0.5, 2.0, -1.0, 3.0, 0.0, 1.0];
        let y = vec![1.0, -2.0, 0.5, 0.5, 2.0, -1.0];
        let seq = ncc_sequence(&x, &y).unwrap();
        for v in seq {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn align_to_shifts_series_towards_reference() {
        let reference: Vec<f64> = (0..32).map(|i| if i == 10 { 1.0 } else { 0.0 }).collect();
        let moved: Vec<f64> = (0..32).map(|i| if i == 14 { 1.0 } else { 0.0 }).collect();
        let aligned = align_to(&reference, &moved).unwrap();
        let argmax = aligned
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 10);
    }

    #[test]
    fn align_to_survives_extreme_leads_and_lags() {
        // Regression: `y` (8 points) leads `x` (64 points) by ~60 samples —
        // the optimal shift's magnitude exceeds `y.len()`, which used to
        // panic with an out-of-bounds slice in the negative-shift branch.
        let x: Vec<f64> = (0..64).map(|i| if i == 60 { 1.0 } else { 0.0 }).collect();
        let y: Vec<f64> = (0..8).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        let r = shape_based_distance(&x, &y).unwrap();
        assert!(
            r.shift < -(y.len() as isize),
            "repro needs |shift| > y.len()"
        );
        let aligned = align_to(&x, &y).unwrap();
        assert_eq!(aligned.len(), y.len());
        assert!(aligned.iter().all(|&v| v == 0.0), "fully shifted out");
        // Mirror case: `y` lags a reference that sits at the very start.
        let x2: Vec<f64> = (0..8).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        let y2: Vec<f64> = (0..64).map(|i| if i == 60 { 1.0 } else { 0.0 }).collect();
        let aligned2 = align_to(&x2, &y2).unwrap();
        assert_eq!(aligned2.len(), y2.len());
        assert_eq!(aligned2[0], 1.0, "spike moved to the reference position");
    }

    #[test]
    fn apply_shift_clamps_any_shift_magnitude() {
        let y = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(apply_shift(&y, 0), y);
        assert_eq!(apply_shift(&y, 1), vec![2.0, 3.0, 4.0, 0.0]);
        assert_eq!(apply_shift(&y, -1), vec![0.0, 1.0, 2.0, 3.0]);
        // Shifts at and beyond the length collapse to all zeros in both
        // directions instead of slicing out of bounds.
        for s in [4isize, 5, 100, -4, -5, -100] {
            assert_eq!(apply_shift(&y, s), vec![0.0; 4], "shift {s}");
        }
        assert!(apply_shift(&[], 3).is_empty());
    }

    #[test]
    fn sbd_is_symmetric_in_distance() {
        let x = vec![1.0, 2.0, 4.0, 3.0, 0.0, 1.0, 2.0, 5.0];
        let y = vec![2.0, 1.0, 0.0, 3.0, 4.0, 2.0, 1.0, 0.0];
        let dxy = sbd(&x, &y).unwrap();
        let dyx = sbd(&y, &x).unwrap();
        assert!((dxy - dyx).abs() < 1e-9);
    }
}
