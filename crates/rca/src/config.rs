//! RCA engine configuration.

/// Thresholds steering the edge-filtering step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcaConfig {
    /// Minimum cluster similarity (modified Jaccard, §4.2 eq. 2) for an edge
    /// between "maintained" clusters to be considered interesting. The
    /// paper's evaluation uses 0.50.
    pub similarity_threshold: f64,
    /// Minimum cluster novelty score (number of new + discarded metrics) for
    /// a cluster to count as "novel".
    pub novelty_threshold: usize,
    /// Lag changes smaller than this (milliseconds) are ignored.
    pub lag_tolerance_ms: u64,
}

impl Default for RcaConfig {
    fn default() -> Self {
        Self {
            similarity_threshold: 0.5,
            novelty_threshold: 1,
            lag_tolerance_ms: 500,
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
        assert_eq!(c.novelty_threshold, 1);
        assert_eq!(c.lag_tolerance_ms, 500);
    }

    #[test]
    fn builders_set_thresholds() {
        let c = RcaConfig::default().with_similarity_threshold(0.7);
        assert_eq!(c.similarity_threshold, 0.7);
    }
}
