//! Normalization helpers.
//!
//! k-Shape (and therefore Sieve's clustering step) compares time series after
//! *z-normalization* so that metrics with different units and amplitudes
//! become comparable (§3.2 of the paper: "k-Shape is robust against
//! distortion in amplitude because data is normalized via z-normalization").

use crate::stats;

/// Returns the z-normalized copy of `data`: `(x - mean) / std`.
///
/// A constant series (zero standard deviation) maps to all zeros, which is
/// the conventional behaviour in the k-Shape reference implementation.
///
/// ```
/// let z = sieve_timeseries::z_normalize(&[2.0, 4.0, 6.0]);
/// assert!(z[1].abs() < 1e-12);
/// ```
pub fn z_normalize(data: &[f64]) -> Vec<f64> {
    let m = stats::mean(data);
    let s = stats::std_dev(data);
    if s == 0.0 {
        return vec![0.0; data.len()];
    }
    // Hoist the division out of the loop: the scale is loop-invariant, and a
    // multiply vectorizes where a divide stalls. Part of the documented
    // epsilon tier (±1 ULP per element vs. the seed's per-element divide);
    // every z-normalizing path in the workspace shares this kernel, so all
    // pairwise bitwise asserts are unaffected.
    let inv = 1.0 / s;
    data.iter().map(|v| (v - m) * inv).collect()
}

/// z-normalizes `data` into the caller-provided `out` slice — the columnar
/// series caches use this to fill one contiguous arena without a temporary
/// allocation per series. Identical float operations to [`z_normalize`].
///
/// # Panics
///
/// Panics if `out.len() != data.len()`.
pub fn z_normalize_into(data: &[f64], out: &mut [f64]) {
    assert_eq!(out.len(), data.len(), "output slice length must match");
    let m = stats::mean(data);
    let s = stats::std_dev(data);
    if s == 0.0 {
        out.fill(0.0);
        return;
    }
    let inv = 1.0 / s;
    for (o, &v) in out.iter_mut().zip(data.iter()) {
        *o = (v - m) * inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn z_normalized_series_has_zero_mean_unit_variance() {
        let data = [1.0, 5.0, 9.0, 2.0, 8.0, 3.0];
        let z = z_normalize(&data);
        assert!(stats::mean(&z).abs() < 1e-12);
        assert!((stats::variance(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_normalize_constant_series_is_all_zero() {
        let z = z_normalize(&[4.0, 4.0, 4.0]);
        assert_eq!(z, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn z_normalize_is_scale_and_shift_invariant() {
        let data = [1.0, 2.0, 7.0, 3.0];
        let scaled: Vec<f64> = data.iter().map(|v| v * 13.0 + 100.0).collect();
        let za = z_normalize(&data);
        let zb = z_normalize(&scaled);
        for (a, b) in za.iter().zip(zb.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn z_normalize_into_is_bitwise_equal_to_allocating_version() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let alloc = z_normalize(&data);
        let mut out = vec![f64::NAN; data.len()];
        z_normalize_into(&data, &mut out);
        for (a, b) in alloc.iter().zip(out.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut zeros = vec![f64::NAN; 3];
        z_normalize_into(&[2.0, 2.0, 2.0], &mut zeros);
        assert_eq!(zeros, vec![0.0; 3]);
    }
}
