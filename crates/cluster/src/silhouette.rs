//! Silhouette scoring for cluster-quality assessment.
//!
//! Sieve does not know the right number of clusters per component up front;
//! it "iteratively var\[ies\] the number of clusters used by k-Shape and pick\[s\]
//! the number that gives the best silhouette value" using SBD as the distance
//! (§3.2). The silhouette value of a sample is
//!
//! ```text
//! s(i) = (b(i) - a(i)) / max(a(i), b(i))
//! ```
//!
//! where `a(i)` is the mean distance to the other members of its own cluster
//! and `b(i)` the smallest mean distance to any other cluster.

use crate::distance::DistanceMatrix;
use crate::{ClusterError, Result};
use sieve_timeseries::sbd;

/// The scoring core shared by every silhouette entry point: mean silhouette
/// of `labels` given any pairwise lookup `dist(i, j)`. Returns `0.0` when
/// fewer than two clusters are used; singletons contribute `0.0` (the
/// scikit-learn convention referenced by the paper).
fn score_from_pairwise(labels: &[usize], dist: impl Fn(usize, usize) -> f64) -> f64 {
    let n = labels.len();
    let clusters: Vec<usize> = {
        let mut c: Vec<usize> = labels.to_vec();
        c.sort_unstable();
        c.dedup();
        c
    };
    if clusters.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..n {
        let own = labels[i];
        let own_size = labels.iter().filter(|&&l| l == own).count();
        if own_size <= 1 {
            continue; // silhouette of a singleton is defined as 0
        }
        let a: f64 = (0..n)
            .filter(|&j| j != i && labels[j] == own)
            .map(|j| dist(i, j))
            .sum::<f64>()
            / (own_size - 1) as f64;

        let mut b = f64::INFINITY;
        for &c in &clusters {
            if c == own {
                continue;
            }
            let members: Vec<usize> = (0..n).filter(|&j| labels[j] == c).collect();
            if members.is_empty() {
                continue;
            }
            let mean: f64 = members.iter().map(|&j| dist(i, j)).sum::<f64>() / members.len() as f64;
            if mean < b {
                b = mean;
            }
        }
        if b.is_finite() {
            let denom = a.max(b);
            if denom > 0.0 {
                total += (b - a) / denom;
            }
        }
    }
    total / n as f64
}

/// Computes the mean silhouette score of a labeling of `data` under an
/// arbitrary *fallible* distance function; a distance error aborts the
/// computation instead of being folded into the score.
///
/// Samples in singleton clusters contribute a silhouette of `0.0` (the
/// scikit-learn convention referenced by the paper). Returns `0.0` when only
/// one cluster is used.
///
/// # Errors
///
/// * [`ClusterError::NoData`] for empty input.
/// * [`ClusterError::LabelLengthMismatch`] when `labels` and `data` differ in length.
/// * Any error returned by `distance`.
pub fn try_silhouette_score_with<S, D>(data: &[S], labels: &[usize], mut distance: D) -> Result<f64>
where
    S: AsRef<[f64]>,
    D: FnMut(&[f64], &[f64]) -> Result<f64>,
{
    if data.is_empty() {
        return Err(ClusterError::NoData);
    }
    if data.len() != labels.len() {
        return Err(ClusterError::LabelLengthMismatch {
            left: data.len(),
            right: labels.len(),
        });
    }
    // Fewer than two clusters score 0.0 by definition — bail out before
    // paying for any distance computation.
    let distinct_clusters = {
        let mut c: Vec<usize> = labels.to_vec();
        c.sort_unstable();
        c.dedup();
        c.len()
    };
    if distinct_clusters < 2 {
        return Ok(0.0);
    }
    // Precompute the symmetric distance matrix.
    let n = data.len();
    let mut dist = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = distance(data[i].as_ref(), data[j].as_ref())?;
            dist[i][j] = d;
            dist[j][i] = d;
        }
    }
    Ok(score_from_pairwise(labels, |i, j| dist[i][j]))
}

/// Silhouette score under the shape-based distance, the configuration Sieve
/// uses ("We use the SBD as a distance measure in the silhouette
/// computation", §3.2).
///
/// SBD failures (only possible for empty member series) are propagated —
/// they used to be silently mapped to the maximal distance `2.0`, which
/// could quietly inflate distances for degenerate inputs. Note that
/// *constant* series are not an error: their NCC is defined as all zeros,
/// so they keep contributing the well-defined distance `1.0`.
///
/// # Errors
///
/// * Same as [`try_silhouette_score_with`], plus
///   [`ClusterError::TimeSeries`] for empty member series.
pub fn silhouette_score_sbd<S: AsRef<[f64]>>(data: &[S], labels: &[usize]) -> Result<f64> {
    try_silhouette_score_with(data, labels, |a, b| sbd(a, b).map_err(ClusterError::from))
}

/// Silhouette score read from a precomputed [`DistanceMatrix`] instead of
/// recomputing the O(n²) pairwise distances — this is what the per-component
/// k-sweep uses: the matrix does not depend on the labeling, so every k
/// shares one matrix. Bit-identical to [`silhouette_score_sbd`] on the
/// series the matrix was computed from.
///
/// # Errors
///
/// * [`ClusterError::NoData`] for an empty matrix.
/// * [`ClusterError::LabelLengthMismatch`] when `labels` does not match the
///   matrix dimension.
pub fn silhouette_score_from_matrix(matrix: &DistanceMatrix, labels: &[usize]) -> Result<f64> {
    if matrix.is_empty() {
        return Err(ClusterError::NoData);
    }
    if matrix.len() != labels.len() {
        return Err(ClusterError::LabelLengthMismatch {
            left: matrix.len(),
            right: labels.len(),
        });
    }
    Ok(score_from_pairwise(labels, |i, j| matrix.get(i, j)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Euclidean distance, in the scorer's fallible signature.
    fn euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
        let squares: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y).powi(2)).sum();
        Ok(squares.sqrt())
    }

    #[test]
    fn well_separated_clusters_score_high() {
        // Two tight groups far apart in Euclidean space.
        let data = vec![
            vec![0.0, 0.1],
            vec![0.1, 0.0],
            vec![0.05, 0.05],
            vec![10.0, 10.1],
            vec![10.1, 10.0],
            vec![10.05, 9.95],
        ];
        let labels = vec![0, 0, 0, 1, 1, 1];
        let s = try_silhouette_score_with(&data, &labels, euclidean).unwrap();
        assert!(s > 0.9, "score {s}");
    }

    #[test]
    fn wrong_assignment_scores_lower_than_right_one() {
        let data = vec![
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![10.0, 10.0],
            vec![10.2, 10.1],
        ];
        let good = try_silhouette_score_with(&data, &[0, 0, 1, 1], euclidean).unwrap();
        let bad = try_silhouette_score_with(&data, &[0, 1, 0, 1], euclidean).unwrap();
        assert!(good > bad);
        assert!(
            bad < 0.0,
            "mixing far-apart points should be negative: {bad}"
        );
    }

    #[test]
    fn single_cluster_scores_zero() {
        let data = vec![vec![1.0], vec![2.0], vec![3.0]];
        assert_eq!(
            try_silhouette_score_with(&data, &[0, 0, 0], euclidean).unwrap(),
            0.0
        );
    }

    #[test]
    fn singleton_clusters_contribute_zero() {
        let data = vec![vec![0.0], vec![0.1], vec![9.0]];
        let s = try_silhouette_score_with(&data, &[0, 0, 1], euclidean).unwrap();
        // The two members of cluster 0 are very close compared to cluster 1,
        // so the average over 3 samples is about 2/3 * ~1.0.
        assert!(s > 0.6 && s < 0.7, "score {s}");
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(try_silhouette_score_with::<Vec<f64>, _>(&[], &[], euclidean).is_err());
        let data = vec![vec![1.0], vec![2.0]];
        assert!(matches!(
            try_silhouette_score_with(&data, &[0], euclidean),
            Err(ClusterError::LabelLengthMismatch { .. })
        ));
    }

    #[test]
    fn sbd_silhouette_prefers_shape_based_grouping() {
        // Group A: sine shapes with different amplitudes; group B: ramps.
        let len = 32;
        let mut data: Vec<Vec<f64>> = Vec::new();
        for amp in [1.0, 5.0, 0.3] {
            data.push((0..len).map(|i| amp * ((i as f64) * 0.5).sin()).collect());
        }
        for slope in [1.0, 2.0, 0.5] {
            data.push((0..len).map(|i| slope * i as f64).collect());
        }
        let by_shape = silhouette_score_sbd(&data, &[0, 0, 0, 1, 1, 1]).unwrap();
        let mixed = silhouette_score_sbd(&data, &[0, 1, 0, 1, 0, 1]).unwrap();
        assert!(by_shape > mixed);
        assert!(by_shape > 0.5);
    }

    #[test]
    fn matrix_backed_score_is_bit_identical_to_direct_sbd() {
        let data: Vec<Vec<f64>> = (0..10)
            .map(|i| {
                (0..40)
                    .map(|j| ((j as f64) * (0.2 + 0.03 * (i % 3) as f64)).sin() + i as f64)
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..10).map(|i| i % 3).collect();
        let direct = silhouette_score_sbd(&data, &labels).unwrap();
        let matrix = crate::distance::DistanceMatrix::compute(&data, 1).unwrap();
        let cached = silhouette_score_from_matrix(&matrix, &labels).unwrap();
        assert_eq!(direct.to_bits(), cached.to_bits());
    }

    #[test]
    fn matrix_backed_score_validates_inputs() {
        let data = vec![vec![1.0, 2.0, 3.0], vec![3.0, 1.0, 2.0]];
        let matrix = crate::distance::DistanceMatrix::compute(&data, 1).unwrap();
        assert!(matches!(
            silhouette_score_from_matrix(&matrix, &[0]),
            Err(ClusterError::LabelLengthMismatch { .. })
        ));
        assert_eq!(silhouette_score_from_matrix(&matrix, &[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn sbd_errors_propagate_instead_of_inflating_distances() {
        // An empty member series used to be scored as distance 2.0; now the
        // error surfaces.
        let data: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![], vec![2.0, 1.0]];
        assert!(matches!(
            silhouette_score_sbd(&data, &[0, 1, 0]),
            Err(ClusterError::TimeSeries(_))
        ));
        // Constant series stay well-defined (SBD = 1 by convention, not an
        // error).
        let with_constant: Vec<Vec<f64>> = vec![
            vec![5.0; 8],
            vec![5.0; 8],
            (0..8).map(|i| i as f64).collect(),
        ];
        let s = silhouette_score_sbd(&with_constant, &[0, 0, 1]).unwrap();
        assert!(s.is_finite());
    }

    #[test]
    fn score_is_bounded() {
        let data: Vec<Vec<f64>> = (0..8)
            .map(|i| (0..16).map(|j| ((i * j) as f64).sin()).collect())
            .collect();
        let labels = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let s = silhouette_score_sbd(&data, &labels).unwrap();
        assert!((-1.0..=1.0).contains(&s));
    }
}
