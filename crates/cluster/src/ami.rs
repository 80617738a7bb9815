//! Adjusted Mutual Information (AMI) between two cluster assignments.
//!
//! Sieve evaluates the *consistency* of its clustering across independent
//! measurement runs with the AMI score (Vinh, Epps & Bailey, ICML 2009):
//! "AMI is normalized against a random assignment and ranges from zero to
//! one: If AMI is equal to one, both clusters match perfectly. Random
//! assignments will be close to zero" (§6.1.1, Figure 3).
//!
//! The implementation follows the standard definition
//!
//! ```text
//! AMI(U, V) = (MI(U, V) - E[MI]) / (max(H(U), H(V)) - E[MI])
//! ```
//!
//! with the expected mutual information `E[MI]` computed under the
//! hypergeometric model of randomness using log-factorials.

use crate::{ClusterError, Result};
use std::collections::HashMap;

/// Contingency table between two labelings plus marginal counts.
#[derive(Debug, Clone)]
struct Contingency {
    /// counts[(i, j)] = number of samples with label i in U and j in V.
    counts: HashMap<(usize, usize), usize>,
    /// Row sums (per label of U).
    a: Vec<usize>,
    /// Column sums (per label of V).
    b: Vec<usize>,
    /// Total number of samples.
    n: usize,
}

fn contingency(u: &[usize], v: &[usize]) -> Result<Contingency> {
    if u.len() != v.len() {
        return Err(ClusterError::LabelLengthMismatch {
            left: u.len(),
            right: v.len(),
        });
    }
    if u.is_empty() {
        return Err(ClusterError::NoData);
    }
    // Re-index labels densely.
    let mut u_index: HashMap<usize, usize> = HashMap::new();
    let mut v_index: HashMap<usize, usize> = HashMap::new();
    for &label in u {
        let next = u_index.len();
        u_index.entry(label).or_insert(next);
    }
    for &label in v {
        let next = v_index.len();
        v_index.entry(label).or_insert(next);
    }
    let mut counts: HashMap<(usize, usize), usize> = HashMap::new();
    let mut a = vec![0usize; u_index.len()];
    let mut b = vec![0usize; v_index.len()];
    for (&lu, &lv) in u.iter().zip(v.iter()) {
        let i = u_index[&lu];
        let j = v_index[&lv];
        *counts.entry((i, j)).or_insert(0) += 1;
        a[i] += 1;
        b[j] += 1;
    }
    Ok(Contingency {
        counts,
        a,
        b,
        n: u.len(),
    })
}

/// Shannon entropy (natural log) of a labeling given its marginal counts.
fn entropy(marginals: &[usize], n: usize) -> f64 {
    marginals
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n as f64;
            -p * p.ln()
        })
        .sum()
}

/// Mutual information (natural log) between two labelings.
///
/// # Errors
///
/// * [`ClusterError::LabelLengthMismatch`] when the labelings differ in length.
/// * [`ClusterError::NoData`] when the labelings are empty.
pub(crate) fn mutual_information(u: &[usize], v: &[usize]) -> Result<f64> {
    let c = contingency(u, v)?;
    let n = c.n as f64;
    let mut mi = 0.0;
    for (&(i, j), &nij) in &c.counts {
        if nij == 0 {
            continue;
        }
        let nij = nij as f64;
        let ai = c.a[i] as f64;
        let bj = c.b[j] as f64;
        mi += (nij / n) * ((n * nij) / (ai * bj)).ln();
    }
    Ok(mi.max(0.0))
}

/// Natural-log factorial table: `table[i] = ln(i!)`.
fn ln_factorials(up_to: usize) -> Vec<f64> {
    let mut table = vec![0.0; up_to + 1];
    for i in 1..=up_to {
        table[i] = table[i - 1] + (i as f64).ln();
    }
    table
}

/// Expected mutual information under the permutation (hypergeometric) model.
fn expected_mutual_information(c: &Contingency) -> f64 {
    let n = c.n;
    let lf = ln_factorials(n);
    let nf = n as f64;
    let mut emi = 0.0;
    for &ai in &c.a {
        for &bj in &c.b {
            let lower = (ai + bj).saturating_sub(n).max(1);
            let upper = ai.min(bj);
            for nij in lower..=upper {
                let nij_f = nij as f64;
                let term1 = nij_f / nf * ((nf * nij_f) / (ai as f64 * bj as f64)).ln();
                // Hypergeometric probability in log space.
                // Note: nij >= ai + bj - n, so `n + nij - ai - bj` never underflows.
                let log_prob = lf[ai] + lf[bj] + lf[n - ai] + lf[n - bj]
                    - lf[n]
                    - lf[nij]
                    - lf[ai - nij]
                    - lf[bj - nij]
                    - lf[n + nij - ai - bj];
                emi += term1 * log_prob.exp();
            }
        }
    }
    emi
}

/// Adjusted Mutual Information between two labelings, normalised with
/// `max(H(U), H(V))`.
///
/// Returns `1.0` when both labelings are identical partitions (including the
/// degenerate all-in-one-cluster case), values near `0.0` for independent
/// labelings, and may be slightly negative for labelings that agree less
/// than chance.
///
/// # Errors
///
/// * [`ClusterError::LabelLengthMismatch`] when the labelings differ in length.
/// * [`ClusterError::NoData`] when the labelings are empty.
///
/// # Example
///
/// ```
/// use sieve_cluster::adjusted_mutual_information;
///
/// let a = vec![0, 0, 1, 1, 2, 2];
/// let b = vec![5, 5, 9, 9, 7, 7]; // same partition, renamed labels
/// assert!((adjusted_mutual_information(&a, &b).unwrap() - 1.0).abs() < 1e-9);
/// ```
pub fn adjusted_mutual_information(u: &[usize], v: &[usize]) -> Result<f64> {
    let c = contingency(u, v)?;
    // Identical partitions (up to label renaming) always score 1. This also
    // covers the degenerate all-singletons case in which the expected MI
    // equals the entropy and the general formula becomes 0/0.
    if same_partition(u, v) {
        return Ok(1.0);
    }
    let hu = entropy(&c.a, c.n);
    let hv = entropy(&c.b, c.n);
    // Both labelings are single clusters: identical trivial partitions.
    if hu == 0.0 && hv == 0.0 {
        return Ok(1.0);
    }
    let mi = mutual_information(u, v)?;
    let emi = expected_mutual_information(&c);
    let denom = hu.max(hv) - emi;
    if denom.abs() < 1e-15 {
        return Ok(0.0);
    }
    Ok((mi - emi) / denom)
}

/// Whether two labelings describe the same partition (ignoring label names).
fn same_partition(u: &[usize], v: &[usize]) -> bool {
    if u.len() != v.len() {
        return false;
    }
    let mut u_to_v: HashMap<usize, usize> = HashMap::new();
    let mut v_to_u: HashMap<usize, usize> = HashMap::new();
    for (&a, &b) in u.iter().zip(v.iter()) {
        if *u_to_v.entry(a).or_insert(b) != b {
            return false;
        }
        if *v_to_u.entry(b).or_insert(a) != a {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_labelings_have_ami_one() {
        let labels = vec![0, 0, 1, 1, 2, 2, 2, 3];
        assert!((adjusted_mutual_information(&labels, &labels).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn permuted_labels_have_ami_one() {
        let a = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        let b = vec![2, 2, 2, 0, 0, 0, 1, 1, 1];
        assert!((adjusted_mutual_information(&a, &b).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independent_labelings_have_ami_near_zero() {
        // A perfectly balanced independent pair of labelings.
        let n = 64;
        let a: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let b: Vec<usize> = (0..n).map(|i| (i / 2) % 2).collect();
        let ami = adjusted_mutual_information(&a, &b).unwrap();
        assert!(ami.abs() < 0.1, "ami {ami}");
    }

    #[test]
    fn ami_penalizes_chance_agreement_more_than_nmi() {
        // Many small clusters vs. few: NMI is inflated by chance, AMI less so.
        let a: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let b: Vec<usize> = (0..30).map(|i| i % 10).collect();
        // Normalized MI, `MI / max(H(U), H(V))`: the score without the
        // chance adjustment.
        let c = contingency(&a, &b).unwrap();
        let nmi = mutual_information(&a, &b).unwrap() / entropy(&c.a, c.n).max(entropy(&c.b, c.n));
        let ami = adjusted_mutual_information(&a, &b).unwrap();
        assert!(ami <= nmi + 1e-9);
    }

    #[test]
    fn partial_agreement_is_between_zero_and_one() {
        let a = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let b = vec![0, 0, 0, 1, 1, 1, 1, 0];
        let ami = adjusted_mutual_information(&a, &b).unwrap();
        assert!(ami > 0.0 && ami < 1.0, "ami {ami}");
    }

    #[test]
    fn single_cluster_against_split_is_zero() {
        let a = vec![0, 0, 0, 0];
        let b = vec![0, 1, 2, 3];
        let ami = adjusted_mutual_information(&a, &b).unwrap();
        assert!(ami.abs() < 1e-9, "ami {ami}");
    }

    #[test]
    fn both_trivial_labelings_are_identical() {
        let a = vec![0, 0, 0];
        assert_eq!(adjusted_mutual_information(&a, &a).unwrap(), 1.0);
    }

    #[test]
    fn errors_on_invalid_input() {
        assert!(adjusted_mutual_information(&[], &[]).is_err());
        assert!(adjusted_mutual_information(&[0, 1], &[0]).is_err());
        assert!(mutual_information(&[0], &[0, 1]).is_err());
    }

    #[test]
    fn mutual_information_is_non_negative_and_bounded_by_entropy() {
        let a = vec![0, 1, 0, 1, 2, 2, 0, 1];
        let b = vec![1, 1, 0, 0, 2, 0, 2, 1];
        let mi = mutual_information(&a, &b).unwrap();
        assert!(mi >= 0.0);
        let c = contingency(&a, &b).unwrap();
        let hu = entropy(&c.a, c.n);
        let hv = entropy(&c.b, c.n);
        assert!(mi <= hu.min(hv) + 1e-9);
    }

    #[test]
    fn ami_is_symmetric() {
        let a = vec![0, 1, 1, 2, 0, 2, 1, 0, 2, 2];
        let b = vec![1, 1, 0, 2, 0, 2, 2, 0, 1, 2];
        let ab = adjusted_mutual_information(&a, &b).unwrap();
        let ba = adjusted_mutual_information(&b, &a).unwrap();
        assert!((ab - ba).abs() < 1e-9);
    }
}
