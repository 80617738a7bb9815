//! Randomized property tests for the time-series primitives.
//!
//! The original suite used `proptest`; the build container has no registry
//! access, so the same properties are exercised with a deterministic
//! splitmix64 case generator — every run checks the identical set of
//! pseudo-random inputs, which also makes failures trivially reproducible.

use sieve_timeseries::{
    diff, fft, interpolate, normalize, resample, sbd, spectrum, stats, TimeSeries,
};

/// Deterministic splitmix64 generator for test data.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }

    /// A vector of finite values in `[-1e3, 1e3)` with a random length in
    /// `[min_len, max_len]`.
    fn finite_vec(&mut self, min_len: usize, max_len: usize) -> Vec<f64> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| self.range(-1.0e3, 1.0e3)).collect()
    }
}

const CASES: u64 = 50;

#[test]
fn z_normalization_yields_zero_mean() {
    for seed in 0..CASES {
        let data = Rng::new(seed).finite_vec(2, 200);
        let z = normalize::z_normalize(&data);
        assert!(stats::mean(&z).abs() < 1e-6, "seed {seed}");
    }
}

#[test]
fn z_normalization_yields_unit_variance_or_zero() {
    for seed in 0..CASES {
        let data = Rng::new(seed).finite_vec(2, 200);
        let z = normalize::z_normalize(&data);
        let var = stats::variance(&z);
        // Either the input was (numerically) constant, or variance is 1.
        assert!(var.abs() < 1e-6 || (var - 1.0).abs() < 1e-6, "seed {seed}");
    }
}

#[test]
fn variance_is_non_negative() {
    for seed in 0..CASES {
        let data = Rng::new(seed).finite_vec(0, 100);
        assert!(stats::variance(&data) >= 0.0, "seed {seed}");
    }
}

#[test]
fn percentile_is_within_min_max() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let data = rng.finite_vec(1, 100);
        let p = rng.range(0.0, 100.0);
        let v = stats::percentile(&data, p).unwrap();
        let lo = stats::min(&data).unwrap();
        let hi = stats::max(&data).unwrap();
        assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "seed {seed}");
    }
}

#[test]
fn pearson_is_bounded() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let x = rng.finite_vec(2, 100);
        let y = rng.finite_vec(2, 100);
        let n = x.len().min(y.len());
        let r = stats::pearson(&x[..n], &y[..n]);
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "seed {seed}");
    }
}

#[test]
fn fft_cross_correlation_matches_naive() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let x = rng.finite_vec(1, 40);
        let y = rng.finite_vec(1, 40);
        let fast = fft::cross_correlation(&x, &y);
        let slow = fft::cross_correlation_naive(&x, &y);
        assert_eq!(fast.len(), slow.len(), "seed {seed}");
        let scale = 1.0 + slow.iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!((a - b).abs() / scale < 1e-6, "seed {seed}: {a} vs {b}");
        }
    }
}

#[test]
fn sbd_is_in_valid_range() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let x = rng.finite_vec(2, 100);
        let y = rng.finite_vec(2, 100);
        let d = sbd::sbd(&x, &y).unwrap();
        assert!(
            (-1e-9..=2.0 + 1e-9).contains(&d),
            "seed {seed}: sbd out of range: {d}"
        );
    }
}

#[test]
fn sbd_of_series_with_itself_is_zero() {
    for seed in 0..CASES {
        let x = Rng::new(seed).finite_vec(2, 100);
        let d = sbd::sbd(&x, &x).unwrap();
        // Constant series have SBD 1 against everything including themselves
        // (defined that way); otherwise the self-distance must vanish.
        if stats::variance(&x) > 1e-12 {
            assert!(d.abs() < 1e-6, "seed {seed}: self distance {d}");
        }
    }
}

#[test]
fn sbd_is_symmetric() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let x = rng.finite_vec(2, 60);
        let y = rng.finite_vec(2, 60);
        let dxy = sbd::sbd(&x, &y).unwrap();
        let dyx = sbd::sbd(&y, &x).unwrap();
        assert!((dxy - dyx).abs() < 1e-6, "seed {seed}");
    }
}

#[test]
fn align_to_never_panics_and_preserves_length() {
    // Random reference/series lengths, including the extreme where the
    // reference is much longer than the series (the optimal shift's
    // magnitude then exceeds the series length — the out-of-bounds
    // regression this guards against).
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let x = rng.finite_vec(1, 120);
        let y = rng.finite_vec(1, 120);
        let aligned = sbd::align_to(&x, &y).unwrap();
        assert_eq!(aligned.len(), y.len(), "seed {seed}");
        assert!(aligned.iter().all(|v| v.is_finite()), "seed {seed}");
    }
    // Adversarial impulse pairs: spike far into a long reference vs a short
    // series, both lead and lag directions, across every short length.
    for len in 1..=12usize {
        let x: Vec<f64> = (0..128).map(|i| if i == 120 { 1.0 } else { 0.0 }).collect();
        let y: Vec<f64> = (0..len).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        assert_eq!(sbd::align_to(&x, &y).unwrap().len(), len);
        assert_eq!(sbd::align_to(&y, &x).unwrap().len(), x.len());
    }
}

#[test]
fn apply_shift_is_total_over_the_full_shift_range() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let y = rng.finite_vec(0, 60);
        let n = y.len() as isize;
        for shift in [-3 * n - 7, -n, -1, 0, 1, n, 3 * n + 7] {
            let out = sbd::apply_shift(&y, shift);
            assert_eq!(out.len(), y.len(), "seed {seed} shift {shift}");
            if shift.unsigned_abs() >= y.len() {
                assert!(out.iter().all(|&v| v == 0.0), "seed {seed} shift {shift}");
            }
        }
    }
}

#[test]
fn resample_grid_always_covers_the_end() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let values = rng.finite_vec(2, 50);
        // Random irregular-ish spacing via a random interval, so spans are
        // usually not multiples of the resample interval.
        let native = rng.usize_in(1, 3000) as u64;
        let interval = rng.usize_in(1, 4999) as u64;
        let ts = TimeSeries::from_values(0, native, values);
        let r = resample::resample(&ts, interval).unwrap();
        let end = ts.end_ms().unwrap();
        let last = r.end_ms().unwrap();
        assert!(last >= end, "seed {seed}: grid ends {last} before {end}");
        assert!(
            last - end < interval,
            "seed {seed}: overhang {} not below one interval",
            last - end
        );
        // Grid is exactly start + i * interval.
        for (i, &t) in r.timestamps().iter().enumerate() {
            assert_eq!(t, i as u64 * interval, "seed {seed}");
        }
    }
}

#[test]
fn resample_is_exact_at_grid_aligned_knots() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let values = rng.finite_vec(3, 40);
        let interval = rng.usize_in(1, 2000) as u64;
        // Knots on multiples of the interval: resampling must reproduce them
        // exactly (the spline interpolates through its knots).
        let ts = TimeSeries::from_values(0, interval * 3, values.clone());
        let r = resample::resample(&ts, interval).unwrap();
        let scale = 1.0 + values.iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (i, v) in values.iter().enumerate() {
            let at = r.values()[i * 3];
            assert!(
                (at - v).abs() / scale < 1e-6,
                "seed {seed} knot {i}: {at} vs {v}"
            );
        }
    }
}

#[test]
fn spectrum_sbd_matches_direct_sbd_bitwise() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let len = rng.usize_in(1, 100);
        let x: Vec<f64> = (0..len).map(|_| rng.range(-1.0e3, 1.0e3)).collect();
        let y: Vec<f64> = (0..len).map(|_| rng.range(-1.0e3, 1.0e3)).collect();
        let direct = sbd::shape_based_distance(&x, &y).unwrap();
        let sx = spectrum::SeriesSpectrum::compute(&x).unwrap();
        let sy = spectrum::SeriesSpectrum::compute(&y).unwrap();
        let cached = spectrum::sbd_from_spectra(&sx, &sy).unwrap();
        assert_eq!(
            direct.distance.to_bits(),
            cached.distance.to_bits(),
            "seed {seed}"
        );
        assert_eq!(direct.shift, cached.shift, "seed {seed}");
    }
}

#[test]
fn first_difference_reduces_length_by_one() {
    for seed in 0..CASES {
        let data = Rng::new(seed).finite_vec(2, 100);
        assert_eq!(
            diff::first_difference(&data).len(),
            data.len() - 1,
            "seed {seed}"
        );
    }
}

#[test]
fn differencing_a_cumulative_sum_recovers_the_signal() {
    for seed in 0..CASES {
        let data = Rng::new(seed).finite_vec(1, 100);
        let mut cumsum = Vec::with_capacity(data.len() + 1);
        let mut acc = 0.0;
        cumsum.push(0.0);
        for v in &data {
            acc += v;
            cumsum.push(acc);
        }
        let recovered = diff::first_difference(&cumsum);
        for (a, b) in recovered.iter().zip(data.iter()) {
            assert!((a - b).abs() < 1e-6, "seed {seed}");
        }
    }
}

#[test]
fn spline_passes_through_all_knots() {
    for seed in 0..CASES {
        let ys = Rng::new(seed).finite_vec(3, 30);
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let spline = interpolate::CubicSpline::fit(&xs, &ys).unwrap();
        let scale = 1.0 + ys.iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!(
                (spline.evaluate(*x) - y).abs() / scale < 1e-6,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn resampling_keeps_endpoints() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let values = rng.finite_vec(2, 50);
        let interval = rng.usize_in(1, 4999) as u64;
        let ts = TimeSeries::from_values(0, 1000, values.clone());
        let r = resample::resample(&ts, interval).unwrap();
        assert_eq!(r.start_ms(), ts.start_ms(), "seed {seed}");
        // First value must match exactly (grid starts at the first sample).
        let scale = 1.0 + values.iter().map(|v| v.abs()).fold(0.0, f64::max);
        assert!(
            (r.values()[0] - values[0]).abs() / scale < 1e-6,
            "seed {seed}"
        );
    }
}

#[test]
fn timeseries_roundtrips_through_parts() {
    for seed in 0..CASES {
        let values = Rng::new(seed).finite_vec(0, 50);
        let ts = TimeSeries::from_values(10, 250, values);
        let (t, v) = ts.clone().into_parts();
        let rebuilt = TimeSeries::from_parts(t, v).unwrap();
        assert_eq!(rebuilt, ts, "seed {seed}");
    }
}
