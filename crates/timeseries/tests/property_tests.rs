//! Randomized property tests for the time-series primitives.
//!
//! The original suite used `proptest`; the build container has no registry
//! access, so the same properties are exercised with a deterministic
//! splitmix64 case generator — every run checks the identical set of
//! pseudo-random inputs, which also makes failures trivially reproducible.

use sieve_timeseries::{
    align_to, apply_shift, cross_correlation, cross_correlation_naive, first_difference, max, mean,
    min, pearson, percentile, resample, sbd, shape_based_distance, spectrum, variance, z_normalize,
    CubicSpline, SeriesView, TimeSeries, TimeSeriesError,
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
        let z = z_normalize(&data);
        assert!(mean(&z).abs() < 1e-6, "seed {seed}");
    }
}

#[test]
fn z_normalization_yields_unit_variance_or_zero() {
    for seed in 0..CASES {
        let data = Rng::new(seed).finite_vec(2, 200);
        let z = z_normalize(&data);
        let var = variance(&z);
        // Either the input was (numerically) constant, or variance is 1.
        assert!(var.abs() < 1e-6 || (var - 1.0).abs() < 1e-6, "seed {seed}");
    }
}

#[test]
fn variance_is_non_negative() {
    for seed in 0..CASES {
        let data = Rng::new(seed).finite_vec(0, 100);
        assert!(variance(&data) >= 0.0, "seed {seed}");
    }
}

#[test]
fn percentile_is_within_min_max() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let data = rng.finite_vec(1, 100);
        let p = rng.range(0.0, 100.0);
        let v = percentile(&data, p).unwrap();
        let lo = min(&data).unwrap();
        let hi = max(&data).unwrap();
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
        let r = pearson(&x[..n], &y[..n]);
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "seed {seed}");
    }
}

#[test]
fn fft_cross_correlation_matches_naive() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let x = rng.finite_vec(1, 40);
        let y = rng.finite_vec(1, 40);
        let fast = cross_correlation(&x, &y);
        let slow = cross_correlation_naive(&x, &y);
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
        let d = sbd(&x, &y).unwrap();
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
        let d = sbd(&x, &x).unwrap();
        // Constant series have SBD 1 against everything including themselves
        // (defined that way); otherwise the self-distance must vanish.
        if variance(&x) > 1e-12 {
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
        let dxy = sbd(&x, &y).unwrap();
        let dyx = sbd(&y, &x).unwrap();
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
        let aligned = align_to(&x, &y).unwrap();
        assert_eq!(aligned.len(), y.len(), "seed {seed}");
        assert!(aligned.iter().all(|v| v.is_finite()), "seed {seed}");
    }
    // Adversarial impulse pairs: spike far into a long reference vs a short
    // series, both lead and lag directions, across every short length.
    for len in 1..=12usize {
        let x: Vec<f64> = (0..128).map(|i| if i == 120 { 1.0 } else { 0.0 }).collect();
        let y: Vec<f64> = (0..len).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        assert_eq!(align_to(&x, &y).unwrap().len(), len);
        assert_eq!(align_to(&y, &x).unwrap().len(), x.len());
    }
}

#[test]
fn apply_shift_is_total_over_the_full_shift_range() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let y = rng.finite_vec(0, 60);
        let n = y.len() as isize;
        for shift in [-3 * n - 7, -n, -1, 0, 1, n, 3 * n + 7] {
            let out = apply_shift(&y, shift);
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

/// The resampler as it was before the knot-hit walk, kept as its oracle:
/// fit the interpolant over the whole window and evaluate it at every grid
/// point, each one found by the spline's own binary search.
fn resample_at_every_grid_point(
    ts: &[u64],
    ys: &[f64],
    interval_ms: u64,
) -> Result<TimeSeries, TimeSeriesError> {
    let (start, end) = (ts[0], ts[ts.len() - 1]);
    let xs: Vec<f64> = ts.iter().map(|&t| t as f64).collect();
    let n_points = (end - start).div_ceil(interval_ms) as usize + 1;
    let grid: Vec<u64> = (0..n_points as u64)
        .map(|i| start + i * interval_ms)
        .collect();
    let values: Vec<f64> = if xs.len() >= 3 {
        let spline = CubicSpline::fit(&xs, ys)?;
        grid.iter().map(|&t| spline.evaluate(t as f64)).collect()
    } else {
        grid.iter().map(|&t| linear_at(&xs, ys, t as f64)).collect()
    };
    TimeSeries::from_parts(grid, values)
}

/// Piecewise-linear interpolation of one or two knots at `x`, with the
/// boundary values held outside them: the oracle's own copy of the
/// fallback the resampler takes below three samples.
fn linear_at(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    let last = xs.len() - 1;
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[last] {
        return ys[last];
    }
    let i = xs.iter().position(|&k| x <= k).unwrap();
    let t = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
    ys[i - 1] * (1.0 - t) + ys[i] * t
}

/// The window shapes the differential test draws.
#[derive(Debug, Clone, Copy)]
enum Shape {
    OnGrid,
    Gaps,
    Jitter,
    Overhang,
    TwoKnots,
    ThreeKnots,
}

/// Timestamps of one window of `shape` on the grid of `interval`, from an
/// origin that may be off any multiple of it, large, or past 2^53 (where
/// grid points and knots round as `f64`).
fn window_timestamps(rng: &mut Rng, shape: Shape, interval: u64) -> Vec<u64> {
    let origin = match rng.usize_in(0, 3) {
        0 => 0,
        1 => rng.next_u64() % 1_000_000_000_000,
        2 => (1 << 53) + rng.next_u64() % (1 << 20),
        _ => (1 << 53) + rng.next_u64() % (1 << 60),
    };
    let ticks = |rng: &mut Rng, lo, hi| -> Vec<u64> {
        (0..rng.usize_in(lo, hi) as u64)
            .map(|i| origin + i * interval)
            .collect()
    };
    match shape {
        Shape::OnGrid => ticks(rng, 1, 60),
        Shape::Gaps => {
            let all = ticks(rng, 3, 80);
            // One gap at least, most often several.
            let forced = rng.usize_in(1, all.len() - 2);
            let odds = rng.usize_in(0, 4);
            all.into_iter()
                .enumerate()
                .filter(|&(i, _)| i != forced && (odds == 0 || rng.usize_in(0, odds) != 0))
                .map(|(_, t)| t)
                .collect()
        }
        Shape::Jitter => ticks(rng, 2, 60)
            .into_iter()
            .map(|t| match rng.usize_in(0, 2) {
                0 => t + rng.next_u64() % interval.div_ceil(2),
                _ => t,
            })
            .collect(),
        Shape::Overhang => {
            let mut ts = ticks(rng, 2, 60);
            let last = ts.pop().expect("two ticks at least");
            ts.push(last + 1 + rng.next_u64() % (interval - 1).max(1));
            ts
        }
        Shape::TwoKnots | Shape::ThreeKnots => {
            let knots = if matches!(shape, Shape::TwoKnots) {
                2
            } else {
                3
            };
            let mut t = origin;
            (0..knots)
                .map(|_| {
                    let at = t;
                    t += 1 + rng.next_u64() % (3 * interval);
                    at
                })
                .collect()
        }
    }
}

/// A value that is finite most of the time, and otherwise NaN, ±∞, −0.0 or
/// subnormal.
fn hostile_value(rng: &mut Rng) -> f64 {
    match rng.usize_in(0, 11) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::MIN_POSITIVE / 3.0,
        5 => -f64::from_bits(1),
        _ => rng.range(-1.0e3, 1.0e3),
    }
}

#[test]
fn resample_is_bit_identical_to_evaluating_every_grid_point() {
    let shapes = [
        Shape::OnGrid,
        Shape::Gaps,
        Shape::Jitter,
        Shape::Overhang,
        Shape::TwoKnots,
        Shape::ThreeKnots,
    ];
    let (mut hits, mut misses, mut refused) = (0usize, 0usize, 0usize);
    for seed in 0..400 {
        for shape in shapes {
            let mut rng = Rng::new(seed * 31 + shape as u64);
            let interval = match rng.usize_in(0, 2) {
                0 => 500,
                _ => rng.usize_in(1, 3000) as u64,
            };
            let ts = window_timestamps(&mut rng, shape, interval);
            let hostile = seed % 2 == 1;
            let ys: Vec<f64> = (0..ts.len())
                .map(|_| match hostile {
                    true => hostile_value(&mut rng),
                    false => rng.range(-1.0e3, 1.0e3),
                })
                .collect();
            let case = format!("seed {seed} {shape:?} interval {interval} window {ts:?}");
            let view = SeriesView::new(&ts, &ys);
            let mut appended = vec![7.0];
            let walk = resample::resample_view(view, interval);
            let count = resample::resample_values_into(view, interval, &mut appended);
            let Ok(oracle) = resample_at_every_grid_point(&ts, &ys, interval) else {
                // Three knots equal as f64: refused by both, with the
                // walk's own error, before anything is appended.
                assert!(
                    matches!(walk, Err(TimeSeriesError::IndistinctTimestamps { .. })),
                    "{case}"
                );
                assert_eq!(appended, [7.0], "{case}");
                refused += 1;
                continue;
            };
            let walk = walk.unwrap_or_else(|e| panic!("{case}: {e}"));
            assert_eq!(walk.timestamps(), oracle.timestamps(), "{case}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(walk.values()), bits(oracle.values()), "{case}");
            assert_eq!(bits(&appended[1..]), bits(oracle.values()), "{case}");
            let knots: Vec<f64> = ts.iter().map(|&t| t as f64).collect();
            let off_knot = oracle
                .timestamps()
                .iter()
                .filter(|&&t| !knots.contains(&(t as f64)))
                .count();
            assert_eq!(count, Ok(off_knot), "{case}");
            hits += oracle.len() - off_knot;
            misses += off_knot;
        }
    }
    // Every path is taken, many times over.
    assert!(
        hits > 10_000 && misses > 10_000,
        "{hits} hits, {misses} misses"
    );
    assert!(refused > 10, "{refused} refused");
}

#[test]
fn spectrum_sbd_matches_direct_sbd_bitwise() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let len = rng.usize_in(1, 100);
        let x: Vec<f64> = (0..len).map(|_| rng.range(-1.0e3, 1.0e3)).collect();
        let y: Vec<f64> = (0..len).map(|_| rng.range(-1.0e3, 1.0e3)).collect();
        let direct = shape_based_distance(&x, &y).unwrap();
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
        assert_eq!(first_difference(&data).len(), data.len() - 1, "seed {seed}");
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
        let recovered = first_difference(&cumsum);
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
        let spline = CubicSpline::fit(&xs, &ys).unwrap();
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
