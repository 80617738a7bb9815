//! Ordinary least squares regression.
//!
//! Sieve "built two linear models using the ordinary least-square method"
//! (§3.3) — the restricted and unrestricted models of the Granger test. The
//! ADF regression that decides which series get first-differenced is the
//! same kind of fit. This module fits such models by solving the normal
//! equations `(X^T X) β = X^T y`.
//!
//! Every fit works on a [`Design`]: one flat column-major buffer holding the
//! full design matrix, built from contiguous slices without any per-row
//! allocation and reusable across fits (the Granger order-reduction loop
//! resets the same buffer for every candidate lag).

use crate::linalg::{solve_with, Matrix, SolveScratch};
use crate::{CausalityError, Result};
use sieve_timeseries::stats;
use std::cell::RefCell;

/// The result of an OLS fit.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsFit {
    /// Estimated coefficients, in the column order of the design matrix
    /// (the intercept is the first coefficient when one was requested).
    pub coefficients: Vec<f64>,
    /// Residual sum of squares.
    pub rss: f64,
    /// Total sum of squares of the centred response.
    pub tss: f64,
    /// Number of observations.
    pub n_observations: usize,
    /// Number of estimated parameters (including the intercept if present).
    pub n_parameters: usize,
}

impl OlsFit {
    /// Residual degrees of freedom, `n - k`.
    pub fn degrees_of_freedom(&self) -> usize {
        self.n_observations.saturating_sub(self.n_parameters)
    }

    /// Estimate of the residual variance `RSS / (n - k)`.
    pub fn residual_variance(&self) -> f64 {
        let df = self.degrees_of_freedom();
        if df == 0 {
            return 0.0;
        }
        self.rss / df as f64
    }
}

/// A design matrix stored as one flat column-major buffer.
///
/// Columns are appended with [`Design::push_intercept`] /
/// [`Design::push_column`]; no per-row `Vec` is ever allocated. The buffer
/// survives [`Design::reset`], so a loop that fits many designs of similar
/// size (the Granger order-reduction loop, the restricted/unrestricted pair
/// of one lag order) reuses a single allocation.
#[derive(Debug, Clone, Default)]
pub struct Design {
    n_rows: usize,
    /// Column-major storage: column `c` occupies
    /// `data[c * n_rows .. (c + 1) * n_rows]`.
    data: Vec<f64>,
}

impl Design {
    /// Creates an empty design with no backing allocation yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all columns and sets the observation count for the next fit,
    /// keeping the backing buffer.
    pub fn reset(&mut self, n_rows: usize) {
        self.n_rows = n_rows;
        self.data.clear();
    }

    /// Number of observations (rows).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns appended so far.
    pub fn n_cols(&self) -> usize {
        self.data.len().checked_div(self.n_rows).unwrap_or(0)
    }

    /// Appends a constant column of ones (the intercept).
    pub fn push_intercept(&mut self) {
        let len = self.data.len();
        self.data.resize(len + self.n_rows, 1.0);
    }

    /// Appends a regressor column.
    ///
    /// # Errors
    ///
    /// Returns [`CausalityError::DimensionMismatch`] when `column` does not
    /// have exactly [`Design::n_rows`] entries.
    pub fn push_column(&mut self, column: &[f64]) -> Result<()> {
        if column.len() != self.n_rows {
            return Err(CausalityError::DimensionMismatch {
                context: format!(
                    "column has {} entries, design has {} rows",
                    column.len(),
                    self.n_rows
                ),
            });
        }
        self.data.extend_from_slice(column);
        Ok(())
    }

    /// The contiguous storage of column `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of bounds.
    pub fn column(&self, c: usize) -> &[f64] {
        &self.data[c * self.n_rows..(c + 1) * self.n_rows]
    }
}

/// Reusable per-thread workspace of every fit: the normal-equations matrix
/// `X^T X`, the right-hand side `X^T y`, the residuals and the solver's
/// augmented buffer. A Granger sweep fits two models per candidate lag per
/// edge — with the arena, the only allocation left per fit is the
/// coefficient vector that escapes in the returned [`OlsFit`].
#[derive(Debug, Clone, Default)]
struct FitScratch {
    xtx: Matrix,
    xty: Vec<f64>,
    residual: Vec<f64>,
    solve: SolveScratch,
}

thread_local! {
    /// One scratch arena per thread: the parallel Granger stage runs one
    /// fitting loop per executor worker, and a thread-local keeps the arena
    /// out of every call signature (the public `fit_design` contract is
    /// unchanged). Reuse cannot change results — the arena is fully
    /// overwritten per fit, asserted bitwise by tests.
    static FIT_SCRATCH: RefCell<FitScratch> = RefCell::new(FitScratch::default());
}

/// Fits `y ~ design` by ordinary least squares on a flat column-major
/// design matrix. This is the single numeric core behind every OLS fit in
/// the crate — the cached and naive Granger paths and the ADF regression
/// all share it, so their float operations are identical.
///
/// The normal equations accumulate through the chunked
/// [`sieve_timeseries::stats::dot`] kernel (4-lane blocked summation, the
/// documented epsilon tier relative to the seed's sequential folds), and
/// all intermediate buffers come from a per-thread scratch arena.
///
/// # Errors
///
/// * [`CausalityError::LengthMismatch`] when `y` has a different length
///   than the design has rows.
/// * [`CausalityError::TooFewObservations`] when there are fewer
///   observations than parameters (or none at all).
/// * [`CausalityError::SingularMatrix`] when the design is collinear.
pub fn fit_design(design: &Design, y: &[f64]) -> Result<OlsFit> {
    FIT_SCRATCH.with(|scratch| fit_in(&mut scratch.borrow_mut(), design, y))
}

/// [`fit_design`] plus the standard error of coefficient `index`,
/// `sqrt(σ² · [(X^T X)^{-1}]_{index,index})`: the diagonal entry comes from
/// solving the fit's own Gram matrix against the unit vector `e_index`, so
/// the ADF t-statistic reads the same `X^T X` its coefficients came from.
///
/// # Errors
///
/// Same as [`fit_design`].
///
/// # Panics
///
/// Panics when `index` is not a column of `design`.
pub(crate) fn fit_with_standard_error(
    design: &Design,
    y: &[f64],
    index: usize,
) -> Result<(OlsFit, f64)> {
    FIT_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let fit = fit_in(scratch, design, y)?;
        // `X^T y` is spent once β is solved; its buffer becomes `e_index`.
        let unit = &mut scratch.xty;
        unit.fill(0.0);
        unit[index] = 1.0;
        let column = solve_with(&scratch.xtx, unit, &mut scratch.solve)?;
        let variance = fit.residual_variance() * column[index];
        Ok((fit, variance.max(0.0).sqrt()))
    })
}

/// The fit itself, leaving the design's Gram matrix in `scratch.xtx`.
fn fit_in(scratch: &mut FitScratch, design: &Design, y: &[f64]) -> Result<OlsFit> {
    let n = design.n_rows();
    let k = design.n_cols();
    if n != y.len() {
        return Err(CausalityError::LengthMismatch {
            left: n,
            right: y.len(),
        });
    }
    if n == 0 {
        return Err(CausalityError::TooFewObservations {
            required: 1,
            actual: 0,
        });
    }
    if n < k {
        return Err(CausalityError::TooFewObservations {
            required: k,
            actual: n,
        });
    }

    normal_equations(design, y, &mut scratch.xtx, &mut scratch.xty);
    let beta = if k == 0 {
        Vec::new()
    } else {
        solve_with(&scratch.xtx, &scratch.xty, &mut scratch.solve)?
    };

    // Fitted values accumulate column contributions in column order — the
    // same association as a row-major `X β` product — and are then turned
    // into residuals in place.
    let residual = &mut scratch.residual;
    residual.clear();
    residual.resize(n, 0.0);
    for (c, b) in beta.iter().enumerate() {
        for (slot, v) in residual.iter_mut().zip(design.column(c).iter()) {
            *slot += v * b;
        }
    }
    for (slot, target) in residual.iter_mut().zip(y.iter()) {
        *slot = target - *slot;
    }
    let rss = stats::sum_of_squares(residual);
    let tss = stats::centered_sum_of_squares(y, stats::mean(y));

    Ok(OlsFit {
        coefficients: beta,
        rss,
        tss,
        n_observations: n,
        n_parameters: k,
    })
}

/// `X^T X` and `X^T y` from pairwise column products through the blocked
/// dot kernel — the one place the crate forms a Gram matrix. `X^T X` is
/// symmetric, so only the upper triangle is computed and mirrored.
fn normal_equations(design: &Design, y: &[f64], xtx: &mut Matrix, xty: &mut Vec<f64>) {
    let k = design.n_cols();
    xtx.reshape_zeroed(k, k);
    xty.clear();
    xty.resize(k, 0.0);
    for (i, xty_slot) in xty.iter_mut().enumerate() {
        let ci = design.column(i);
        for j in i..k {
            let dot = stats::dot(ci, design.column(j));
            xtx.set(i, j, dot);
            if i != j {
                xtx.set(j, i, dot);
            }
        }
        *xty_slot = stats::dot(ci, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A design of the given columns, with an intercept first if asked.
    fn design(intercept: bool, columns: &[&[f64]]) -> Design {
        let mut design = Design::new();
        design.reset(columns.first().map_or(0, |c| c.len()));
        if intercept {
            design.push_intercept();
        }
        for column in columns {
            design.push_column(column).unwrap();
        }
        design
    }

    /// `y - X β`, recomputed from the fit's coefficients.
    fn residuals(design: &Design, y: &[f64], fit: &OlsFit) -> Vec<f64> {
        (0..y.len())
            .map(|t| {
                let prediction: f64 = (fit.coefficients.iter().enumerate())
                    .map(|(c, b)| design.column(c)[t] * b)
                    .sum();
                y[t] - prediction
            })
            .collect()
    }

    #[test]
    fn recovers_exact_linear_relationship() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 7.0).collect();
        let f = fit_design(&design(true, &[&x]), &y).unwrap();
        assert!((f.coefficients[0] - 7.0).abs() < 1e-9);
        assert!((f.coefficients[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn r_squared_is_one_for_perfect_fit_and_low_for_noise() {
        let r_squared = |f: &OlsFit| 1.0 - f.rss / f.tss;
        let x: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let y_perfect: Vec<f64> = x.iter().map(|v| 2.0 * v - 1.0).collect();
        let d = design(true, &[&x]);
        let fit_perfect = fit_design(&d, &y_perfect).unwrap();
        assert!(r_squared(&fit_perfect) > 0.999999);

        // Deterministic "noise" unrelated to x.
        let y_noise: Vec<f64> = (0..100)
            .map(|i| ((i * 2654435761_usize) % 97) as f64)
            .collect();
        let fit_noise = fit_design(&d, &y_noise).unwrap();
        assert!(r_squared(&fit_noise) < 0.2);
    }

    #[test]
    fn multivariate_regression_recovers_coefficients() {
        // y = 1 + 2*x1 - 3*x2
        let x1: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).sin() * 4.0).collect();
        let x2: Vec<f64> = (0..60)
            .map(|i| (i as f64 * 0.11).cos() * 2.0 + i as f64 * 0.01)
            .collect();
        let y: Vec<f64> = (0..60).map(|i| 1.0 + 2.0 * x1[i] - 3.0 * x2[i]).collect();
        let f = fit_design(&design(true, &[&x1, &x2]), &y).unwrap();
        assert!((f.coefficients[0] - 1.0).abs() < 1e-7);
        assert!((f.coefficients[1] - 2.0).abs() < 1e-7);
        assert!((f.coefficients[2] + 3.0).abs() < 1e-7);
        assert!(f.rss < 1e-9);
        assert_eq!(f.n_parameters, 3);
        assert_eq!(f.degrees_of_freedom(), 57);
    }

    #[test]
    fn without_intercept_the_constant_column_is_absent() {
        let x: Vec<f64> = (1..30).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 5.0 * v).collect();
        let f = fit_design(&design(false, &[&x]), &y).unwrap();
        assert_eq!(f.coefficients.len(), 1);
        assert!((f.coefficients[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(fit_design(&design(true, &[]), &[]).is_err());
        assert!(fit_design(&design(true, &[&[1.0]]), &[1.0, 2.0]).is_err());
        // A ragged column never enters a design.
        let mut ragged = design(true, &[&[1.0, 2.0]]);
        assert!(matches!(
            ragged.push_column(&[1.0]),
            Err(CausalityError::DimensionMismatch { .. })
        ));
        // Two observations, three parameters.
        assert!(matches!(
            fit_design(&design(true, &[&[1.0, 2.0], &[2.0, 3.0]]), &[1.0, 2.0]),
            Err(CausalityError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn collinear_regressors_are_singular() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let doubled: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        assert_eq!(
            fit_design(&design(true, &[&x, &doubled]), &x).unwrap_err(),
            CausalityError::SingularMatrix
        );
    }

    #[test]
    fn design_fit_matches_row_fit_bitwise() {
        // The ADF regression used to gather observation rows into a design
        // column by column; it now pushes contiguous slices. A fit depends
        // only on the column values, so both constructions agree bit for
        // bit.
        let n = 50;
        let x1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
        let x2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos() * 2.0).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 0.5 + 1.2 * x1[i] - 0.7 * x2[i] + (i as f64 * 0.9).sin() * 0.1)
            .collect();
        let rows: Vec<[f64; 2]> = (0..n).map(|t| [x1[t], x2[t]]).collect();
        let mut gathered = Design::new();
        gathered.reset(n);
        gathered.push_intercept();
        for c in 0..2 {
            let column: Vec<f64> = rows.iter().map(|row| row[c]).collect();
            gathered.push_column(&column).unwrap();
        }
        let via_rows = fit_design(&gathered, &y).unwrap();

        let sliced = design(true, &[&x1, &x2]);
        assert_eq!(sliced.n_rows(), n);
        assert_eq!(sliced.n_cols(), 3);
        let via_slices = fit_design(&sliced, &y).unwrap();

        assert_eq!(via_rows.n_parameters, via_slices.n_parameters);
        for (a, b) in (via_rows.coefficients.iter()).zip(via_slices.coefficients.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(via_rows.rss.to_bits(), via_slices.rss.to_bits());
        assert_eq!(via_rows.tss.to_bits(), via_slices.tss.to_bits());
    }

    #[test]
    fn scratch_reuse_never_changes_results() {
        // The thread-local arena is fully overwritten per fit: fitting A,
        // then B, then A again must reproduce A's result bit for bit.
        let n = 60;
        let xa: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
        let xb: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).cos() * 3.0).collect();
        let ya: Vec<f64> = (0..n)
            .map(|i| 2.0 * xa[i] + 0.1 * (i as f64).sin())
            .collect();
        let yb: Vec<f64> = (0..n)
            .map(|i| -0.5 * xb[i] + (i as f64 * 0.05).cos())
            .collect();

        let mut design = Design::new();
        design.reset(n);
        design.push_intercept();
        design.push_column(&xa).unwrap();
        let first = fit_design(&design, &ya).unwrap();

        let mut other = Design::new();
        other.reset(n);
        other.push_intercept();
        other.push_column(&xb).unwrap();
        other.push_column(&xa).unwrap();
        let _ = fit_design(&other, &yb).unwrap();

        let again = fit_design(&design, &ya).unwrap();
        for (a, b) in first.coefficients.iter().zip(again.coefficients.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(first.rss.to_bits(), again.rss.to_bits());
        assert_eq!(first.tss.to_bits(), again.tss.to_bits());
    }

    #[test]
    fn blocked_accumulation_matches_sequential_oracle_within_epsilon() {
        // Epsilon tier: the normal equations accumulate through the 4-lane
        // blocked dot kernel; the seed's strict sequential folds are the
        // oracle.
        let n = 127;
        let x1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin() * 2.0).collect();
        let x2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).cos() + 0.2).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 1.0 + 0.8 * x1[i] - 1.7 * x2[i] + (i as f64 * 0.47).sin() * 0.3)
            .collect();
        let mut design = Design::new();
        design.reset(n);
        design.push_intercept();
        design.push_column(&x1).unwrap();
        design.push_column(&x2).unwrap();
        let blocked = fit_design(&design, &y).unwrap();

        // Sequential normal equations + the crate solver, as the seed did.
        let k = design.n_cols();
        let mut xtx = Matrix::zeros(k, k);
        let mut xty = vec![0.0; k];
        for (i, target) in xty.iter_mut().enumerate() {
            let ci = design.column(i);
            for j in i..k {
                let cj = design.column(j);
                let dot = ci
                    .iter()
                    .zip(cj.iter())
                    .fold(0.0, |acc, (a, b)| acc + a * b);
                xtx.set(i, j, dot);
                xtx.set(j, i, dot);
            }
            *target = ci.iter().zip(y.iter()).fold(0.0, |acc, (a, b)| acc + a * b);
        }
        let beta = solve_with(&xtx, &xty, &mut SolveScratch::new()).unwrap();
        for (b, o) in blocked.coefficients.iter().zip(beta.iter()) {
            assert!(
                (b - o).abs() <= 1e-9 * 1.0_f64.max(o.abs()),
                "blocked {b} vs sequential {o}"
            );
        }
    }

    #[test]
    fn design_is_reusable_across_resets() {
        let mut design = Design::new();
        design.reset(3);
        design.push_intercept();
        design.push_column(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(design.n_cols(), 2);
        assert_eq!(design.column(1), &[1.0, 2.0, 3.0]);
        design.reset(2);
        assert_eq!(design.n_cols(), 0);
        design.push_column(&[5.0, 6.0]).unwrap();
        assert_eq!(design.column(0), &[5.0, 6.0]);
        // Wrong-length columns are rejected.
        assert!(design.push_column(&[1.0, 2.0, 3.0]).is_err());
        // Empty designs report zero columns.
        assert_eq!(Design::new().n_cols(), 0);
    }

    #[test]
    fn fit_design_rejects_bad_shapes() {
        let mut design = Design::new();
        design.reset(2);
        design.push_intercept();
        assert!(matches!(
            fit_design(&design, &[1.0, 2.0, 3.0]),
            Err(CausalityError::LengthMismatch { .. })
        ));
        design.reset(0);
        assert!(matches!(
            fit_design(&design, &[]),
            Err(CausalityError::TooFewObservations { .. })
        ));
        // Two observations, three parameters.
        design.reset(2);
        design.push_intercept();
        design.push_column(&[1.0, 2.0]).unwrap();
        design.push_column(&[2.0, 5.0]).unwrap();
        assert!(matches!(
            fit_design(&design, &[1.0, 2.0]),
            Err(CausalityError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn residuals_sum_to_zero_with_intercept() {
        let x: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).sin()).collect();
        let y: Vec<f64> = (0..40).map(|i| (i as f64 * 0.21).cos() + 0.5).collect();
        let d = design(true, &[&x]);
        let f = fit_design(&d, &y).unwrap();
        let sum: f64 = residuals(&d, &y, &f).iter().sum();
        assert!(sum.abs() < 1e-8);
    }
}
