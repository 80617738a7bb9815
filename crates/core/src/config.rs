//! Pipeline configuration.

pub use sieve_causality::GrangerConfig;
pub use sieve_simulator::store::RetentionPolicy;

/// Configuration of the Sieve pipeline, defaulting to the values used in the
/// paper.
#[derive(Debug, Clone, PartialEq)]
pub struct SieveConfig {
    /// Discretisation interval for all metric time series (500 ms in §3.2).
    pub interval_ms: u64,
    /// Variance threshold below which a metric is considered unvarying and
    /// dropped before clustering (0.002 in §3.2). Applied to the
    /// scale-free *relative* variance `var / (mean² + var)`, not the raw
    /// variance — see [`crate::reduce`] for why.
    pub variance_threshold: f64,
    /// Smallest number of clusters tried per component.
    pub min_clusters: usize,
    /// Largest number of clusters tried per component ("seven clusters per
    /// component was sufficient", §3.2).
    pub max_clusters: usize,
    /// Maximum k-Shape iterations per clustering attempt.
    pub kshape_max_iterations: usize,
    /// Granger-causality test configuration (0.05 significance, ADF-based
    /// differencing).
    pub granger: GrangerConfig,
    /// Number of worker threads used by every parallel stage of one
    /// analysis: per-component series preparation, per-component
    /// clustering and per-comparison causality testing (1 runs them all
    /// serially). An explicit setting is honoured exactly by the executor;
    /// the default adapts to the hardware
    /// ([`sieve_exec::par::hardware_parallelism`], cgroup-quota aware, so
    /// a single-core container defaults to serial). Never affects results:
    /// all stages run through the input-order-preserving
    /// [`sieve_exec::par_map_chunks`], so `parallelism = 1` and
    /// `parallelism = N` emit bit-identical models. (The multi-tenant
    /// serving layer's *cross-tenant* sweep fan-out is a separate knob,
    /// `ServeConfig::sweep_parallelism` in `sieve-serve`.)
    pub parallelism: usize,
    /// How much raw history the metric store retains per series. Unbounded
    /// by default (the offline-experiment oracle mode); a bounded policy
    /// keeps each series' newest points in a fixed ring window and forgets
    /// the points it evicts. Applied
    /// by [`crate::pipeline::Sieve::analyze_application`] when loading an
    /// application, and by the serving layer when creating tenant stores.
    /// Analysis results are unchanged as long as the analysis window fits
    /// inside retention — the pipeline only ever reads retained windows.
    pub retention: RetentionPolicy,
}

impl Default for SieveConfig {
    fn default() -> Self {
        Self {
            interval_ms: 500,
            variance_threshold: 0.002,
            min_clusters: 2,
            max_clusters: 7,
            kshape_max_iterations: 50,
            granger: GrangerConfig::default(),
            parallelism: sieve_exec::par::hardware_parallelism(),
            retention: RetentionPolicy::unbounded(),
        }
    }
}

impl SieveConfig {
    /// Builder-style setter for the discretisation interval.
    pub fn with_interval_ms(mut self, interval_ms: u64) -> Self {
        self.interval_ms = interval_ms;
        self
    }

    /// Builder-style setter for the cluster-count range.
    pub fn with_cluster_range(mut self, min_clusters: usize, max_clusters: usize) -> Self {
        self.min_clusters = min_clusters;
        self.max_clusters = max_clusters;
        self
    }

    /// Builder-style setter for the parallelism degree.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Builder-style setter for the store retention policy.
    pub fn with_retention(mut self, retention: RetentionPolicy) -> Self {
        self.retention = retention;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SieveError::InvalidConfig`] when the interval is
    /// zero, the cluster range is empty, the k-Shape iteration cap is zero,
    /// the variance threshold is negative, or the Granger settings are out
    /// of range. A retention policy is always valid: its capacity cannot be
    /// zero.
    pub fn validate(&self) -> crate::Result<()> {
        if self.interval_ms == 0 {
            return Err(crate::SieveError::InvalidConfig {
                reason: "interval_ms must be positive".into(),
            });
        }
        if self.min_clusters == 0 || self.max_clusters < self.min_clusters {
            return Err(crate::SieveError::InvalidConfig {
                reason: format!(
                    "invalid cluster range {}..={}",
                    self.min_clusters, self.max_clusters
                ),
            });
        }
        if self.kshape_max_iterations == 0 {
            // Zero iterations would leave every centroid at zero and publish
            // the name pre-clustering as if it were a shape clustering.
            return Err(crate::SieveError::InvalidConfig {
                reason: "kshape_max_iterations must be positive".into(),
            });
        }
        // NaN passes `< 0.0`; `is_unvarying` then compares `<= NaN`, false for
        // every series, and the variance filter would silently be off.
        if !self.variance_threshold.is_finite() || self.variance_threshold < 0.0 {
            return Err(crate::SieveError::InvalidConfig {
                reason: "variance_threshold must be finite and non-negative".into(),
            });
        }
        if let Err(e) = self.granger.validate() {
            // Every Granger test would fail the same check and be skipped,
            // publishing an edgeless graph as if nothing were related.
            return Err(crate::SieveError::InvalidConfig {
                reason: format!("granger: {e}"),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = SieveConfig::default();
        assert_eq!(c.interval_ms, 500);
        assert_eq!(c.variance_threshold, 0.002);
        assert_eq!(c.max_clusters, 7);
        assert_eq!(c.granger.significance, 0.05);
        assert!(
            !c.retention.is_bounded(),
            "unbounded retention is the default"
        );
        assert!(c.validate().is_ok());
    }

    #[test]
    fn retention_builder_and_validation() {
        let c = SieveConfig::default().with_retention(RetentionPolicy::windowed(256));
        assert_eq!(c.retention.raw_capacity(), Some(256));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_and_validation() {
        let c = SieveConfig::default()
            .with_interval_ms(1000)
            .with_cluster_range(3, 5)
            .with_parallelism(0);
        assert_eq!(c.interval_ms, 1000);
        assert_eq!(c.min_clusters, 3);
        assert_eq!(c.parallelism, 1);
        assert!(c.validate().is_ok());

        assert!(SieveConfig::default()
            .with_interval_ms(0)
            .validate()
            .is_err());
        assert!(SieveConfig::default()
            .with_cluster_range(5, 2)
            .validate()
            .is_err());
        for variance_threshold in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = SieveConfig {
                variance_threshold,
                ..SieveConfig::default()
            };
            assert!(bad.validate().is_err(), "{variance_threshold}");
        }
        let keep_everything = SieveConfig {
            variance_threshold: 0.0,
            ..SieveConfig::default()
        };
        assert!(keep_everything.validate().is_ok());
    }

    #[test]
    fn out_of_range_granger_settings_are_rejected() {
        let with_granger = |max_lag: usize, significance: f64| SieveConfig {
            granger: GrangerConfig::default()
                .with_max_lag(max_lag)
                .with_significance(significance),
            ..SieveConfig::default()
        };
        for (max_lag, significance, field) in [
            (0, 0.05, "max_lag"),
            (3, 0.0, "significance"),
            (3, 1.0, "significance"),
            (3, 1.5, "significance"),
            (3, f64::NAN, "significance"),
        ] {
            assert!(
                matches!(
                    with_granger(max_lag, significance).validate(),
                    Err(crate::SieveError::InvalidConfig { reason }) if reason.contains(field)
                ),
                "max_lag {max_lag}, significance {significance}"
            );
        }
        assert!(with_granger(1, 0.999).validate().is_ok());
    }

    #[test]
    fn zero_kshape_iterations_are_rejected() {
        let one = SieveConfig {
            kshape_max_iterations: 1,
            ..SieveConfig::default()
        };
        assert!(one.validate().is_ok());
        let zero = SieveConfig {
            kshape_max_iterations: 0,
            ..SieveConfig::default()
        };
        assert!(matches!(
            zero.validate(),
            Err(crate::SieveError::InvalidConfig { reason }) if reason.contains("kshape_max_iterations")
        ));
    }
}
