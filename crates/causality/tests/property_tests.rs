//! Randomized property tests for the statistical routines.
//!
//! The original suite used `proptest`; the build container has no registry
//! access, so the same properties are exercised with a deterministic
//! splitmix64 case generator — every run checks the identical set of
//! pseudo-random inputs, which also makes failures trivially reproducible.

use sieve_causality::dist::{f_cdf, incomplete_beta};
use sieve_causality::engine::{granger_causes_prepared, PreparedGrangerSeries};
use sieve_causality::granger::{granger_causes, GrangerConfig, GrangerResult};
use sieve_causality::linalg::{solve_with, Matrix, SolveScratch};
use sieve_causality::ols::{fit_design, Design};

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

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }

    fn vec_in(&mut self, lo: f64, hi: f64, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.range(lo, hi)).collect()
    }
}

const CASES: u64 = 64;

#[test]
fn incomplete_beta_is_monotone_and_bounded() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = rng.range(0.5, 20.0);
        let b = rng.range(0.5, 20.0);
        let x1 = rng.unit();
        let x2 = rng.unit();
        let (lo, hi) = if x1 < x2 { (x1, x2) } else { (x2, x1) };
        let vlo = incomplete_beta(a, b, lo);
        let vhi = incomplete_beta(a, b, hi);
        assert!((0.0..=1.0).contains(&vlo), "seed {seed}");
        assert!((0.0..=1.0).contains(&vhi), "seed {seed}");
        assert!(vhi >= vlo - 1e-9, "seed {seed}");
    }
}

#[test]
fn f_cdf_is_a_probability() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let f = rng.range(0.0, 100.0);
        let d1 = rng.range(1.0, 40.0);
        let d2 = rng.range(1.0, 40.0);
        let v = f_cdf(f, d1, d2);
        assert!((0.0..=1.0).contains(&v), "seed {seed}");
    }
}

#[test]
fn solve_recovers_known_solution() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let coeffs = rng.vec_in(-5.0, 5.0, 3);
        let perturb = rng.vec_in(0.1, 2.0, 3);
        // Build a diagonally dominant (hence non-singular) matrix.
        let mut a = Matrix::zeros(3, 3);
        for (i, p) in perturb.iter().enumerate() {
            for j in 0..3 {
                a.set(i, j, if i == j { 5.0 + p } else { 0.5 });
            }
        }
        let b: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| a.get(i, j) * coeffs[j]).sum())
            .collect();
        let x = solve_with(&a, &b, &mut SolveScratch::new()).unwrap();
        for (xi, ci) in x.iter().zip(coeffs.iter()) {
            assert!((xi - ci).abs() < 1e-8, "seed {seed}");
        }
    }
}

#[test]
fn ols_residuals_are_orthogonal_to_regressors() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let len = rng.usize_in(20, 59);
        let xs = rng.vec_in(-10.0, 10.0, len);
        let slope = rng.range(-3.0, 3.0);
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| slope * x + ((i as f64) * 1.7).sin())
            .collect();
        let mut design = Design::new();
        design.reset(len);
        design.push_intercept();
        design.push_column(&xs).unwrap();
        if let Ok(fit) = fit_design(&design, &ys) {
            // Residuals y - X β, recomputed from the coefficients.
            let residuals = (xs.iter().zip(ys.iter()))
                .map(|(x, y)| y - (fit.coefficients[0] + fit.coefficients[1] * x));
            let dot: f64 = residuals.zip(xs.iter()).map(|(r, x)| r * x).sum();
            let scale = 1.0
                + xs.iter().map(|v| v.abs()).fold(0.0, f64::max)
                    * ys.iter().map(|v| v.abs()).fold(0.0, f64::max);
            assert!(dot.abs() / scale < 1e-6, "seed {seed}: dot {dot}");
            assert!(fit.rss >= 0.0, "seed {seed}");
            assert!(fit.rss <= fit.tss * (1.0 + 1e-9), "seed {seed}");
        }
    }
}

/// A randomly shaped test series: a noisy sinusoid (stationary), a random
/// walk (non-stationary) or a drifting counter, so both the in-place and
/// the first-differenced Granger branches are exercised.
fn random_series(rng: &mut Rng, n: usize) -> Vec<f64> {
    match rng.next_u64() % 3 {
        0 => {
            let freq = rng.range(0.05, 0.9);
            let amp = rng.range(0.5, 20.0);
            (0..n)
                .map(|i| amp * (i as f64 * freq).sin() + rng.range(-0.5, 0.5))
                .collect()
        }
        1 => {
            let mut acc = rng.range(-5.0, 5.0);
            (0..n)
                .map(|_| {
                    acc += rng.range(-1.0, 1.0);
                    acc
                })
                .collect()
        }
        _ => {
            let mut acc = 0.0;
            let slope = rng.range(0.1, 3.0);
            (0..n)
                .map(|_| {
                    acc += slope + rng.range(0.0, 1.0);
                    acc
                })
                .collect()
        }
    }
}

fn assert_bitwise_equal(a: &GrangerResult, b: &GrangerResult, context: &str) {
    assert_eq!(a.causal, b.causal, "{context}");
    assert_eq!(a.p_value.to_bits(), b.p_value.to_bits(), "{context}");
    assert_eq!(
        a.f_statistic.to_bits(),
        b.f_statistic.to_bits(),
        "{context}"
    );
    assert_eq!(a.best_lag, b.best_lag, "{context}");
    assert_eq!(a.differenced, b.differenced, "{context}");
}

#[test]
fn prepared_engine_is_bitwise_identical_to_naive_granger() {
    for case in 0..CASES {
        let mut rng = Rng::new(case.wrapping_mul(0xA5A5_1234));
        let n = rng.usize_in(40, 220);
        let max_lag = rng.usize_in(1, 5);
        let x = random_series(&mut rng, n);
        let y = random_series(&mut rng, n);
        let config = GrangerConfig::default().with_max_lag(max_lag);

        let px = PreparedGrangerSeries::prepare(x.as_slice());
        let py = PreparedGrangerSeries::prepare(y.as_slice());
        for (naive, cached, dir) in [
            (
                granger_causes(&x, &y, &config),
                granger_causes_prepared(&px, &py, &config),
                "x->y",
            ),
            (
                granger_causes(&y, &x, &config),
                granger_causes_prepared(&py, &px, &config),
                "y->x",
            ),
        ] {
            match (naive, cached) {
                (Ok(a), Ok(b)) => {
                    assert_bitwise_equal(&a, &b, &format!("case {case} {dir} max_lag {max_lag}"))
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "case {case} {dir}"),
                (a, b) => panic!("case {case} {dir}: outcomes diverge: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn restricted_fit_memoization_is_hit_when_one_target_has_many_sources() {
    for case in 0..8u64 {
        let mut rng = Rng::new(case.wrapping_mul(0x517C_C1B7));
        let n = rng.usize_in(120, 260);
        let config = GrangerConfig::default();
        // A smooth stationary target, so every pairing lands on the same
        // (differenced = false, order) memo keys.
        let freq = rng.range(0.1, 0.6);
        let target: Vec<f64> = (0..n)
            .map(|i| 10.0 * (i as f64 * freq).sin() + rng.range(-0.5, 0.5))
            .collect();
        let pt = PreparedGrangerSeries::prepare(target.as_slice());

        let sources = 12;
        for _ in 0..sources {
            let sfreq = rng.range(0.05, 0.9);
            let source: Vec<f64> = (0..n)
                .map(|i| rng.range(0.5, 4.0) * (i as f64 * sfreq).cos() + rng.range(-0.5, 0.5))
                .collect();
            let ps = PreparedGrangerSeries::prepare(source.as_slice());
            let naive = granger_causes(&source, &target, &config).unwrap();
            let cached = granger_causes_prepared(&ps, &pt, &config).unwrap();
            assert_bitwise_equal(&naive, &cached, &format!("case {case}"));
        }
        // The naive path refits the restricted model once per source; the
        // engine computes at most one fit per distinct lag order.
        let computes = pt.restricted_fit_computations();
        assert!(computes >= 1, "case {case}: memo never filled");
        assert!(
            computes <= config.max_lag,
            "case {case}: {computes} restricted fits for {sources} sources"
        );
    }
}

#[test]
fn granger_p_values_are_probabilities() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let seed = rng.next_u64() % 500;
        let n = rng.usize_in(60, 149);
        let x: Vec<f64> = (0..n)
            .map(|i| {
                ((i as f64) * 0.3 + seed as f64).sin()
                    + ((i * 7 + seed as usize) % 13) as f64 * 0.05
            })
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                ((i as f64) * 0.21 + seed as f64 * 0.5).cos()
                    + ((i * 11 + seed as usize) % 7) as f64 * 0.07
            })
            .collect();
        let r = granger_causes(&x, &y, &GrangerConfig::default()).unwrap();
        assert!((0.0..=1.0).contains(&r.p_value), "case {case}");
        assert_eq!(r.causal, r.p_value < 0.05, "case {case}");
    }
}
