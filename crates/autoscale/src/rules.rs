//! Scaling rules and SLA conditions.

use sieve_core::SieveModel;
use sieve_simulator::store::MetricId;

/// A service-level agreement on end-to-end request latency, e.g. "90% of all
/// request latencies below 1000 ms" (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaCondition {
    /// The percentile of latencies the condition constrains (e.g. 90.0).
    pub percentile: f64,
    /// The latency bound in milliseconds.
    pub threshold_ms: f64,
}

impl Default for SlaCondition {
    fn default() -> Self {
        Self {
            percentile: 90.0,
            threshold_ms: 1000.0,
        }
    }
}

impl SlaCondition {
    /// Whether a single latency sample violates the bound.
    pub(crate) fn is_violated_by(&self, latency_ms: f64) -> bool {
        latency_ms > self.threshold_ms
    }
}

/// A threshold-based scaling rule on one guiding metric.
///
/// The rule scales each target component by ±1 instance when the guiding
/// metric crosses the scale-out/in thresholds, subject to instance bounds
/// and a cooldown.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRule {
    /// The metric driving the decisions.
    pub guiding_metric: MetricId,
    /// Scale out (add an instance) when the metric exceeds this value.
    pub scale_out_threshold: f64,
    /// Scale in (remove an instance) when the metric falls below this value.
    pub scale_in_threshold: f64,
    /// Components whose instance counts the rule adjusts.
    pub target_components: Vec<String>,
    /// Minimum instances per target component.
    pub min_instances: usize,
    /// Maximum instances per target component.
    pub max_instances: usize,
    /// Ticks to wait between consecutive scaling actions.
    pub cooldown_ticks: usize,
}

impl ScalingRule {
    /// Creates a rule with sensible defaults (1–10 instances, 20-tick
    /// cooldown).
    pub(crate) fn new(
        guiding_metric: MetricId,
        scale_out_threshold: f64,
        scale_in_threshold: f64,
        target_components: Vec<String>,
    ) -> Self {
        Self {
            guiding_metric,
            scale_out_threshold,
            scale_in_threshold,
            target_components,
            min_instances: 1,
            max_instances: 10,
            cooldown_ticks: 20,
        }
    }

    /// Builder-style setter for the instance bounds.
    pub fn with_instance_bounds(mut self, min_instances: usize, max_instances: usize) -> Self {
        self.min_instances = min_instances.max(1);
        self.max_instances = max_instances.max(self.min_instances);
        self
    }

    /// Builder-style setter for the cooldown.
    pub fn with_cooldown_ticks(mut self, cooldown_ticks: usize) -> Self {
        self.cooldown_ticks = cooldown_ticks;
        self
    }

    /// The action the rule takes for a metric observation: `+1`, `-1` or `0`
    /// instances per target component.
    pub(crate) fn decide(&self, metric_value: f64) -> i32 {
        if metric_value > self.scale_out_threshold {
            1
        } else if metric_value < self.scale_in_threshold {
            -1
        } else {
            0
        }
    }

    /// Whether the thresholds are consistent (scale-in strictly below
    /// scale-out).
    pub(crate) fn is_consistent(&self) -> bool {
        self.scale_in_threshold < self.scale_out_threshold
            && !self.target_components.is_empty()
            && self.min_instances <= self.max_instances
    }
}

/// Selects the guiding metric from a Sieve model: the `(component, metric)`
/// pair that appears most often in the Granger-causality relations of the
/// dependency graph (§4.1, step 1). Returns `None` when the graph has no
/// edges.
pub fn select_guiding_metric(model: &SieveModel) -> Option<MetricId> {
    let hub = model.dependency_graph.most_connected_metric();
    hub.map(|(component, metric)| MetricId::new(component, metric))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_graph::{DependencyEdge, DependencyGraph};

    #[test]
    fn sla_condition_checks_samples() {
        let sla = SlaCondition::default();
        assert!(!sla.is_violated_by(900.0));
        assert!(sla.is_violated_by(1100.0));
    }

    #[test]
    fn rule_decisions_follow_thresholds() {
        let rule = ScalingRule::new(
            MetricId::new("web", "latency"),
            1400.0,
            1120.0,
            vec!["web".to_string()],
        );
        assert_eq!(rule.decide(1500.0), 1);
        assert_eq!(rule.decide(1000.0), -1);
        assert_eq!(rule.decide(1300.0), 0);
        assert!(rule.is_consistent());
    }

    #[test]
    fn inconsistent_rules_are_detected() {
        let rule = ScalingRule::new(MetricId::new("web", "m"), 10.0, 20.0, vec!["web".into()]);
        assert!(!rule.is_consistent());
        let rule = ScalingRule::new(MetricId::new("web", "m"), 20.0, 10.0, vec![]);
        assert!(!rule.is_consistent());
    }

    #[test]
    fn builders_clamp_bounds() {
        let rule = ScalingRule::new(MetricId::new("web", "m"), 2.0, 1.0, vec!["web".into()])
            .with_instance_bounds(0, 0)
            .with_cooldown_ticks(5);
        assert_eq!(rule.min_instances, 1);
        assert_eq!(rule.max_instances, 1);
        assert_eq!(rule.cooldown_ticks, 5);
    }

    #[test]
    fn guiding_metric_is_the_most_connected_one() {
        let mut graph = DependencyGraph::new();
        for (target, metric) in [
            ("mongodb", "queries"),
            ("redis", "ops"),
            ("clsi", "compiles"),
        ] {
            graph.add_edge(DependencyEdge {
                source_component: "web".into(),
                source_metric: "http_latency_mean".into(),
                target_component: target.into(),
                target_metric: metric.into(),
                p_value: 0.01,
                f_statistic: 10.0,
                lag_ms: 500,
            });
        }
        let model = SieveModel {
            application: "test".into(),
            clusterings: Default::default(),
            dependency_graph: graph,
        };
        let metric = select_guiding_metric(&model).unwrap();
        assert_eq!(metric, MetricId::new("web", "http_latency_mean"));
    }

    #[test]
    fn guiding_metric_is_none_for_an_empty_graph() {
        let model = SieveModel::default();
        assert!(select_guiding_metric(&model).is_none());
    }
}
