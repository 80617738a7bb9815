//! Minimal dense linear algebra: just enough to solve least-squares normal
//! equations for the OLS regressions of the Granger and ADF tests.

use crate::{CausalityError, Result};

/// A dense, row-major matrix of `f64` values. `Default` is the empty
/// `0 x 0` matrix (no allocation), which scratch arenas start from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = value;
    }

    /// Reshapes the matrix in place to `rows x cols`, zeroing every element
    /// but keeping the backing allocation — the OLS scratch arena resets its
    /// normal-equations matrix this way on every fit instead of allocating a
    /// fresh one.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }
}

/// Reusable workspace for [`solve_with`]: one flat buffer holding the
/// `n x (n+1)` augmented matrix of the elimination, reshaped (never
/// reallocated once warm) on every call. A fitting loop that solves
/// thousands of small normal-equation systems — the Granger stage solves
/// two per candidate lag per edge — reuses one allocation instead of
/// building `n` fresh row vectors per solve.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    aug: Vec<f64>,
}

impl SolveScratch {
    /// Creates an empty workspace with no backing allocation yet.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Solves the linear system `A x = b` with Gaussian elimination and partial
/// pivoting, in a caller-held workspace. The elimination runs the exact
/// float operations of the seed implementation — only the storage layout of
/// the augmented matrix changed (flat rows instead of per-row `Vec`s) — so
/// results are bitwise identical regardless of scratch reuse.
///
/// # Errors
///
/// * [`CausalityError::DimensionMismatch`] if `A` is not square or `b` has
///   the wrong length.
/// * [`CausalityError::SingularMatrix`] if the matrix is (numerically)
///   singular.
pub fn solve_with(a: &Matrix, b: &[f64], scratch: &mut SolveScratch) -> Result<Vec<f64>> {
    let n = a.rows();
    if a.cols() != n {
        return Err(CausalityError::DimensionMismatch {
            context: format!(
                "solve requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            ),
        });
    }
    if b.len() != n {
        return Err(CausalityError::DimensionMismatch {
            context: format!("rhs has {} entries for a {n}x{n} system", b.len()),
        });
    }
    // Augmented matrix, one flat row-major buffer of width n+1.
    let width = n + 1;
    let aug = &mut scratch.aug;
    aug.clear();
    aug.resize(n * width, 0.0);
    for r in 0..n {
        let row = &mut aug[r * width..(r + 1) * width];
        for (c, slot) in row.iter_mut().enumerate().take(n) {
            *slot = a.get(r, c);
        }
        row[n] = b[r];
    }

    for col in 0..n {
        // Partial pivoting.
        let mut pivot = col;
        let mut best = aug[col * width + col].abs();
        for r in col + 1..n {
            let candidate = aug[r * width + col].abs();
            if candidate > best {
                best = candidate;
                pivot = r;
            }
        }
        if best < 1e-12 {
            return Err(CausalityError::SingularMatrix);
        }
        if pivot != col {
            for c in 0..width {
                aug.swap(col * width + c, pivot * width + c);
            }
        }
        // Eliminate below.
        for r in col + 1..n {
            let factor = aug[r * width + col] / aug[col * width + col];
            if factor == 0.0 {
                continue;
            }
            let (head, tail) = aug.split_at_mut(r * width);
            let pivot_row = &head[col * width..col * width + width];
            let row = &mut tail[..width];
            for (slot, pivot_value) in row.iter_mut().zip(pivot_row.iter()).skip(col) {
                *slot -= factor * pivot_value;
            }
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let row = &aug[r * width..(r + 1) * width];
        let mut acc = row[n];
        for c in r + 1..n {
            acc -= row[c] * x[c];
        }
        x[r] = acc / row[r];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a matrix from nested rows through the public setters.
    fn from_rows(rows: &[&[f64]]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), rows.first().map_or(0, |r| r.len()));
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }

    fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
        solve_with(a, b, &mut SolveScratch::new())
    }

    #[test]
    fn from_rows_and_accessors() {
        let m = from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        let mut m2 = m.clone();
        m2.set(1, 0, 7.0);
        assert_eq!(m2.get(1, 0), 7.0);
    }

    #[test]
    fn solve_simple_system() {
        // x + y = 3, x - y = 1 => x = 2, y = 1.
        let a = from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]);
        let x = solve(&a, &[3.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]);
        let x = solve(&a, &[4.0, 3.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_detects_singular_matrix() {
        let a = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(
            solve(&a, &[1.0, 2.0]).unwrap_err(),
            CausalityError::SingularMatrix
        );
    }

    #[test]
    fn solve_rejects_non_square_or_bad_rhs() {
        let a = Matrix::zeros(2, 3);
        assert!(solve(&a, &[1.0, 2.0]).is_err());
        let a = from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert!(solve(&a, &[1.0]).is_err());
    }

    #[test]
    fn solve_with_reused_scratch_is_bitwise_equal_to_fresh_solves() {
        let a = from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 5.0, 2.0], &[0.5, 2.0, 6.0]]);
        let b1 = vec![1.0, 2.0, 3.0];
        let b2 = vec![-1.0, 0.25, 7.0];
        let mut scratch = SolveScratch::new();
        let r1 = solve_with(&a, &b1, &mut scratch).unwrap();
        let r2 = solve_with(&a, &b2, &mut scratch).unwrap();
        for (got, want) in r1.iter().zip(solve(&a, &b1).unwrap().iter()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        for (got, want) in r2.iter().zip(solve(&a, &b2).unwrap().iter()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // Scratch also survives a size change (2x2 after 3x3).
        let small = from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]);
        let r = solve_with(&small, &[3.0, 1.0], &mut scratch).unwrap();
        assert!((r[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reshape_zeroed_clears_and_resizes() {
        let mut m = from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.reshape_zeroed(3, 3);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), 0.0);
            }
        }
    }

    #[test]
    fn solve_larger_well_conditioned_system() {
        // Diagonally dominant 4x4 system; verify A x = b.
        let rows: [&[f64]; 4] = [
            &[10.0, 1.0, 0.0, 2.0],
            &[1.0, 12.0, 3.0, 0.0],
            &[0.0, 3.0, 9.0, 1.0],
            &[2.0, 0.0, 1.0, 11.0],
        ];
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let x = solve(&from_rows(&rows), &b).unwrap();
        for (row, bi) in rows.iter().zip(b.iter()) {
            let back: f64 = row.iter().zip(x.iter()).map(|(a, v)| a * v).sum();
            assert!((bi - back).abs() < 1e-9);
        }
    }
}
