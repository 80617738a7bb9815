//! RCA engine configuration.

/// Minimum cluster novelty score (number of new + discarded metrics) for a
/// cluster to count as "novel": one changed metric makes a cluster novel.
pub(crate) const NOVELTY_THRESHOLD: usize = 1;

/// Lag changes of at most this many milliseconds — one step of the
/// pipeline's default 500 ms interval (§3.2) — are ignored.
pub(crate) const LAG_TOLERANCE_MS: u64 = 500;

/// Thresholds steering the edge-filtering step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcaConfig {
    /// Minimum cluster similarity (modified Jaccard, §4.2 eq. 2) for an edge
    /// between "maintained" clusters to be considered interesting. The
    /// paper's evaluation uses 0.50.
    pub similarity_threshold: f64,
}

impl Default for RcaConfig {
    fn default() -> Self {
        Self {
            similarity_threshold: 0.5,
        }
    }
}

impl RcaConfig {
    /// Builder-style setter for the similarity threshold.
    pub fn with_similarity_threshold(mut self, threshold: f64) -> Self {
        self.similarity_threshold = threshold;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_evaluation() {
        let c = RcaConfig::default();
        assert_eq!(c.similarity_threshold, 0.5);
        assert_eq!(NOVELTY_THRESHOLD, 1);
        assert_eq!(LAG_TOLERANCE_MS, 500);
    }

    #[test]
    fn builders_set_thresholds() {
        let c = RcaConfig::default().with_similarity_threshold(0.7);
        assert_eq!(c.similarity_threshold, 0.7);
    }
}
