//! Descriptive statistics over slices of `f64` samples.
//!
//! These helpers back the variance pre-filter of Sieve's metric-reduction
//! step (§3.2, "Filtering unvarying metrics": drop metrics with
//! `var <= 0.002`) and the regression machinery in `sieve-causality`.

/// Number of independent accumulators in the chunked summation kernels.
///
/// Splitting a reduction across four accumulators breaks the sequential
/// dependency chain of a single-accumulator float sum, which is what allows
/// the autovectorizer to lift these loops — float addition is not
/// associative, so LLVM will never reassociate a strict left fold on its
/// own. The reassociation changes results by at most a few ULPs relative to
/// the seed's sequential sums; this is the documented *epsilon tier* of the
/// kernel layer (see `docs/ARCHITECTURE.md`). Every cached/naive model pair
/// in the workspace shares these kernels on both sides, so all bitwise
/// pair-equality asserts are unaffected.
const LANES: usize = 4;

/// Chunked sum with [`LANES`] independent accumulators.
#[inline]
fn chunked_sum(data: &[f64]) -> f64 {
    let chunks = data.chunks_exact(LANES);
    let remainder = chunks.remainder();
    let mut acc = [0.0f64; LANES];
    for chunk in chunks {
        for (a, &v) in acc.iter_mut().zip(chunk.iter()) {
            *a += v;
        }
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &v in remainder {
        total += v;
    }
    total
}

/// Chunked sum of `f(v)` over `data` with [`LANES`] accumulators; `f` must be
/// cheap and pure (it is applied once per element, in order, per lane).
#[inline]
fn chunked_sum_with(data: &[f64], f: impl Fn(f64) -> f64) -> f64 {
    let chunks = data.chunks_exact(LANES);
    let remainder = chunks.remainder();
    let mut acc = [0.0f64; LANES];
    for chunk in chunks {
        for (a, &v) in acc.iter_mut().zip(chunk.iter()) {
            *a += f(v);
        }
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &v in remainder {
        total += f(v);
    }
    total
}

/// Chunked dot product of two equally long slices.
///
/// This is the innermost kernel of the OLS normal equations
/// (`sieve-causality`) and the spectrum norms; like every chunked kernel
/// here it trades the seed's sequential summation order for a 4-lane
/// reassociated one (epsilon tier).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot product needs equal lengths");
    let x_chunks = x.chunks_exact(LANES);
    let x_rem = x_chunks.remainder();
    let y_rem = &y[y.len() - x_rem.len()..];
    let mut acc = [0.0f64; LANES];
    for (xc, yc) in x_chunks.zip(y.chunks_exact(LANES)) {
        for ((a, &xv), &yv) in acc.iter_mut().zip(xc.iter()).zip(yc.iter()) {
            *a += xv * yv;
        }
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&xv, &yv) in x_rem.iter().zip(y_rem.iter()) {
        total += xv * yv;
    }
    total
}

/// Chunked sum of squared deviations `Σ (v - center)²` — the numerator of a
/// variance, exposed for callers (the OLS total sum of squares) that already
/// hold the mean. Epsilon tier, like every chunked kernel here.
pub fn centered_sum_of_squares(data: &[f64], center: f64) -> f64 {
    chunked_sum_with(data, |v| (v - center) * (v - center))
}

/// Arithmetic mean of `data`. Returns `0.0` for an empty slice.
///
/// ```
/// assert_eq!(sieve_timeseries::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    chunked_sum(data) / data.len() as f64
}

/// Population variance (divides by `n`). Returns `0.0` for fewer than two
/// observations.
pub fn variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    chunked_sum_with(data, |v| (v - m) * (v - m)) / data.len() as f64
}

/// Population standard deviation.
pub(crate) fn std_dev(data: &[f64]) -> f64 {
    variance(data).sqrt()
}

/// Minimum value; `None` for an empty slice.
pub fn min(data: &[f64]) -> Option<f64> {
    data.iter().copied().fold(None, |acc, v| match acc {
        None => Some(v),
        Some(m) => Some(if v < m { v } else { m }),
    })
}

/// Maximum value; `None` for an empty slice.
pub fn max(data: &[f64]) -> Option<f64> {
    data.iter().copied().fold(None, |acc, v| match acc {
        None => Some(v),
        Some(m) => Some(if v > m { v } else { m }),
    })
}

/// Linear-interpolated percentile, `p` in `[0, 100]`. Returns `None` for an
/// empty slice.
///
/// This is the estimator used to evaluate the "90% of request latencies below
/// 1000 ms" SLA condition of the autoscaling case study (§4.1, §6.2).
pub fn percentile(data: &[f64], p: f64) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Pearson correlation coefficient; `0.0` when either series is constant or
/// the lengths differ.
///
/// Fused single-pass form: after the two means, one chunked sweep
/// accumulates `Σ(x-mx)²`, `Σ(y-my)²` and `Σ(x-mx)(y-my)` together instead
/// of the seed's five separate passes. The hot caller is the Granger stage's
/// `strongest_lag`, which evaluates this once per candidate lag per edge.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    if x.len() != y.len() || x.len() < 2 {
        return 0.0;
    }
    let mx = mean(x);
    let my = mean(y);
    let x_chunks = x.chunks_exact(LANES);
    let x_rem = x_chunks.remainder();
    let y_rem = &y[y.len() - x_rem.len()..];
    let mut sxx = [0.0f64; LANES];
    let mut syy = [0.0f64; LANES];
    let mut sxy = [0.0f64; LANES];
    for (xc, yc) in x_chunks.zip(y.chunks_exact(LANES)) {
        for i in 0..LANES {
            let dx = xc[i] - mx;
            let dy = yc[i] - my;
            sxx[i] += dx * dx;
            syy[i] += dy * dy;
            sxy[i] += dx * dy;
        }
    }
    let mut txx = (sxx[0] + sxx[1]) + (sxx[2] + sxx[3]);
    let mut tyy = (syy[0] + syy[1]) + (syy[2] + syy[3]);
    let mut txy = (sxy[0] + sxy[1]) + (sxy[2] + sxy[3]);
    for (&xv, &yv) in x_rem.iter().zip(y_rem.iter()) {
        let dx = xv - mx;
        let dy = yv - my;
        txx += dx * dx;
        tyy += dy * dy;
        txy += dx * dy;
    }
    let n = x.len() as f64;
    let sx = (txx / n).sqrt();
    let sy = (tyy / n).sqrt();
    if sx == 0.0 || sy == 0.0 {
        return 0.0;
    }
    (txy / n) / (sx * sy)
}

/// Sum of squared values.
pub fn sum_of_squares(data: &[f64]) -> f64 {
    chunked_sum_with(data, |v| v * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_matches_hand_computation() {
        // Population variance of [2, 4, 4, 4, 5, 5, 7, 9] is 4.
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(variance(&data), 4.0, 1e-12);
        assert_close(std_dev(&data), 2.0, 1e-12);
    }

    #[test]
    fn constant_series_has_zero_variance() {
        let data = vec![5.0; 100];
        assert_eq!(variance(&data), 0.0);
    }

    #[test]
    fn min_max_handle_negatives() {
        let data = [-3.0, 7.5, 0.0];
        assert_eq!(min(&data), Some(-3.0));
        assert_eq!(max(&data), Some(7.5));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_close(percentile(&data, 0.0).unwrap(), 1.0, 1e-12);
        assert_close(percentile(&data, 100.0).unwrap(), 4.0, 1e-12);
        assert_close(percentile(&data, 50.0).unwrap(), 2.5, 1e-12);
        assert_close(percentile(&data, 90.0).unwrap(), 3.7, 1e-12);
    }

    #[test]
    fn percentile_of_empty_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn pearson_detects_perfect_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert_close(pearson(&x, &y), 1.0, 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert_close(pearson(&x, &neg), -1.0, 1e-12);
    }

    #[test]
    fn pearson_of_constant_is_zero() {
        let x = [1.0, 1.0, 1.0];
        let y = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&x, &y), 0.0);
    }

    /// Deterministic pseudo-noise for the kernel-oracle tests.
    fn noise_series(len: usize, seed: u64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let mut s = (i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15)
                    ^ seed.wrapping_mul(0xD1B54A32D192ED03);
                s ^= s >> 33;
                s = s.wrapping_mul(0xff51afd7ed558ccd);
                s ^= s >> 29;
                100.0 * (((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5)
            })
            .collect()
    }

    /// Epsilon tier: the chunked kernels reassociate summation, so they are
    /// compared against sequential (seed-order) oracles within a relative
    /// tolerance instead of bitwise.
    #[test]
    fn chunked_kernels_match_sequential_oracles_within_epsilon() {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 64, 257, 1000] {
            for seed in 0..4u64 {
                let x = noise_series(len, seed * 2 + 1);
                let y = noise_series(len, seed * 2 + 2);
                let close = |a: f64, b: f64, what: &str| {
                    let scale = 1.0_f64.max(b.abs());
                    assert!(
                        (a - b).abs() <= 1e-9 * scale,
                        "{what}: {a} vs {b} (len {len} seed {seed})"
                    );
                };
                let seq_sum: f64 = x.iter().sum();
                close(chunked_sum(&x), seq_sum, "sum");
                if !x.is_empty() {
                    close(mean(&x), seq_sum / len as f64, "mean");
                }
                let seq_dot: f64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
                close(dot(&x, &y), seq_dot, "dot");
                close(
                    sum_of_squares(&x),
                    x.iter().map(|v| v * v).sum(),
                    "sum_of_squares",
                );
                if len >= 2 {
                    let m = mean(&x);
                    let seq_var = x.iter().map(|v| (v - m).powi(2)).sum::<f64>() / len as f64;
                    close(variance(&x), seq_var, "variance");
                    // Sequential five-pass Pearson as the oracle.
                    let mx = mean(&x);
                    let my = mean(&y);
                    let cov = x
                        .iter()
                        .zip(y.iter())
                        .map(|(a, b)| (a - mx) * (b - my))
                        .sum::<f64>()
                        / len as f64;
                    let seq_pearson = cov / (std_dev(&x) * std_dev(&y));
                    close(pearson(&x, &y), seq_pearson, "pearson");
                }
            }
        }
    }

    #[test]
    fn dot_handles_empty_and_short_slices() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn dot_rejects_mismatched_lengths() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
