//! Precomputed pairwise SBD distance matrices.
//!
//! Sieve's k selection evaluates the silhouette score for every candidate
//! cluster count, and each evaluation needs all O(n²) pairwise shape-based
//! distances of a component's metrics — distances that do not depend on the
//! clustering at all. A [`DistanceMatrix`] computes them once per component
//! (from cached [`SeriesSpectrum`]s, fanned out through
//! [`sieve_exec::par_map_chunks`]) and every k in the sweep reads the same
//! matrix. The entries are bit-identical to what
//! [`sieve_timeseries::sbd::sbd`] returns on the raw series, so a
//! matrix-backed silhouette equals the direct-SBD silhouette exactly.

use crate::{ClusterError, Result};
use sieve_exec::try_par_map_chunks;
use sieve_timeseries::spectrum::{sbd_oriented, SbdScratch, SeriesSpectrum, SpectrumBatch};

/// A symmetric matrix of pairwise shape-based distances with a zero
/// diagonal.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major `n × n` storage; small per-component metric counts make the
    /// redundant lower triangle cheaper than condensed-index arithmetic in
    /// the silhouette inner loops.
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Computes all pairwise distances between the series behind the given
    /// spectra, distributing the rows over up to `workers` threads. The
    /// result is identical for every worker count.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::TimeSeries`] when the spectra have incompatible
    ///   (unequal) series lengths.
    pub fn from_spectra(spectra: &[SeriesSpectrum], workers: usize) -> Result<Self> {
        let n = spectra.len();
        let indices: Vec<usize> = (0..n).collect();
        // Row i computes the strict upper triangle i+1..n; rows come back in
        // input order, so assembly below is deterministic.
        let rows: Vec<Vec<f64>> = try_par_map_chunks(workers, &indices, |&i| {
            let mut scratch = SbdScratch::default();
            ((i + 1)..n)
                .map(|j| {
                    Ok(sbd_oriented(&spectra[i], &spectra[j], &mut scratch)?
                        .sbd
                        .distance)
                })
                .collect::<Result<Vec<f64>>>()
        })?;
        let mut data = vec![0.0; n * n];
        for (i, row) in rows.iter().enumerate() {
            for (offset, &d) in row.iter().enumerate() {
                let j = i + 1 + offset;
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        Ok(Self { n, data })
    }

    /// Computes the spectra of `series` and then the full pairwise matrix.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::NoData`] when `series` is empty.
    /// * [`ClusterError::InconsistentLengths`] when the series lengths
    ///   differ (pairwise SBD caching requires a rectangular input, exactly
    ///   like k-Shape).
    /// * [`ClusterError::TimeSeries`] for empty member series.
    pub fn compute<S: AsRef<[f64]>>(series: &[S], workers: usize) -> Result<Self> {
        let spectra = compute_spectra(series, workers)?;
        Self::from_spectra(&spectra, workers)
    }

    /// Number of series the matrix covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers zero series.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distance between series `i` and `j` (0 on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "distance index out of range");
        self.data[i * self.n + j]
    }
}

/// Computes the [`SeriesSpectrum`] of every series, validating that the
/// input is rectangular, distributing the FFTs over up to `workers`
/// threads.
///
/// # Errors
///
/// * [`ClusterError::NoData`] when `series` is empty.
/// * [`ClusterError::InconsistentLengths`] when the series lengths differ.
/// * [`ClusterError::TimeSeries`] for empty member series.
pub fn compute_spectra<S: AsRef<[f64]>>(
    series: &[S],
    workers: usize,
) -> Result<Vec<SeriesSpectrum>> {
    if series.is_empty() {
        return Err(ClusterError::NoData);
    }
    let m = series[0].as_ref().len();
    for (i, s) in series.iter().enumerate() {
        if s.as_ref().len() != m {
            return Err(ClusterError::InconsistentLengths {
                expected: m,
                index: i,
                actual: s.as_ref().len(),
            });
        }
    }
    let refs: Vec<&[f64]> = series.iter().map(|s| s.as_ref()).collect();
    // Each worker transforms its contiguous slice of series through one
    // [`SpectrumBatch`] (shared twiddle table, one arena pass). The batch is
    // bit-identical to per-series [`SeriesSpectrum::compute`], so the result
    // does not depend on how the series are grouped across workers.
    let chunk = refs.len().div_ceil(workers.max(1)).max(1);
    let groups: Vec<&[&[f64]]> = refs.chunks(chunk).collect();
    let batches: Vec<Vec<SeriesSpectrum>> = try_par_map_chunks(workers, &groups, |group| {
        SpectrumBatch::compute(group)
            .map(SpectrumBatch::into_spectra)
            .map_err(ClusterError::from)
    })?;
    Ok(batches.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_timeseries::sbd::sbd;

    fn family(count: usize, len: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|c| {
                (0..len)
                    .map(|i| ((i as f64) * (0.1 + 0.05 * c as f64)).sin() + c as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matrix_entries_equal_direct_sbd_bitwise() {
        let series = family(7, 48);
        let matrix = DistanceMatrix::compute(&series, 1).unwrap();
        assert_eq!(matrix.len(), 7);
        for i in 0..7 {
            assert_eq!(matrix.get(i, i), 0.0);
            for j in (i + 1)..7 {
                // The upper triangle matches the direct computation bit for
                // bit; the lower triangle mirrors it (exactly the convention
                // the silhouette scorer has always used — SBD is symmetric
                // as a distance but not bitwise under operand swap).
                let direct = sbd(&series[i], &series[j]).unwrap();
                assert_eq!(
                    matrix.get(i, j).to_bits(),
                    direct.to_bits(),
                    "entry ({i}, {j})"
                );
                assert_eq!(matrix.get(j, i).to_bits(), matrix.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn matrix_is_symmetric_and_worker_count_invariant() {
        let series = family(9, 32);
        let serial = DistanceMatrix::compute(&series, 1).unwrap();
        let parallel = DistanceMatrix::compute(&series, 4).unwrap();
        assert_eq!(serial, parallel);
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(serial.get(i, j).to_bits(), serial.get(j, i).to_bits());
            }
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            DistanceMatrix::compute::<Vec<f64>>(&[], 1),
            Err(ClusterError::NoData)
        ));
        let ragged = vec![vec![1.0, 2.0], vec![1.0, 2.0, 3.0]];
        assert!(matches!(
            DistanceMatrix::compute(&ragged, 1),
            Err(ClusterError::InconsistentLengths { .. })
        ));
        let with_empty: Vec<Vec<f64>> = vec![vec![], vec![]];
        assert!(matches!(
            DistanceMatrix::compute(&with_empty, 1),
            Err(ClusterError::TimeSeries(_))
        ));
    }

    #[test]
    fn single_series_yields_a_one_by_one_zero_matrix() {
        let m = DistanceMatrix::compute(&[vec![1.0, 2.0, 3.0]], 1).unwrap();
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        assert_eq!(m.get(0, 0), 0.0);
    }
}
