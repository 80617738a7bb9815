//! Threshold calibration against an SLA condition.
//!
//! §4.1 of the paper: "The scale in/out thresholds are defined from the
//! values of m according to a Service Level Agreement (SLA) condition. ...
//! The thresholds for m are iteratively refined during the application
//! loading phase." and §6.2: "To calculate the threshold values to trigger
//! autoscaling, we used a 5-minute sample from the peak load of our HTTP
//! trace and iteratively refined the values to stay within the SLA
//! condition."
//!
//! The calibration below replays a short ramp up to the expected peak load,
//! records the guiding metric alongside the end-to-end latency, and derives
//! the scale-out threshold from the metric value at which the latency first
//! approaches the SLA bound (and the scale-in threshold from the value at
//! which latency is comfortably below it).

use crate::rules::{ScalingRule, SlaCondition};
use sieve_simulator::store::MetricId;
use sieve_simulator::{AppSpec, Result, SimConfig, Simulation, SimulatorError, Workload};

/// Duration of the calibration sample (5 minutes, as in §6.2).
pub(crate) const CALIBRATION_DURATION_MS: u64 = 300_000;

/// Calibrated thresholds for one guiding metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedThresholds {
    /// Scale out above this metric value.
    pub scale_out: f64,
    /// Scale in below this metric value.
    pub scale_in: f64,
    /// The largest metric value observed during calibration.
    pub observed_max: f64,
}

/// Calibrates scale-in/out thresholds for `metric` so that the application
/// stays within `sla` under loads up to `peak_rate`.
///
/// # Errors
///
/// * [`SimulatorError::UnknownComponent`] / [`SimulatorError::InvalidSpec`]
///   when the spec is invalid or the metric does not exist.
pub fn calibrate_thresholds(
    spec: &AppSpec,
    metric: &MetricId,
    sla: &SlaCondition,
    peak_rate: f64,
    seed: u64,
) -> Result<CalibratedThresholds> {
    let component_exists = spec.component(&metric.component).is_some();
    if !component_exists {
        return Err(SimulatorError::UnknownComponent {
            name: metric.component.to_string(),
        });
    }
    let metric_exists = spec
        .component(&metric.component)
        .map(|c| c.metrics.iter().any(|m| m.name == metric.metric))
        .unwrap_or(false);
    if !metric_exists {
        return Err(SimulatorError::InvalidSpec {
            reason: format!("metric `{}` not found for calibration", metric),
        });
    }

    // Ramp from idle to 1.2x the expected peak over the calibration window.
    let workload = Workload::ramp(0.0, peak_rate * 1.2);
    let config = SimConfig::new(seed).with_duration_ms(CALIBRATION_DURATION_MS);
    let mut sim = Simulation::new(spec.clone(), workload, config)?;

    let mut pairs: Vec<(f64, f64)> = Vec::new(); // (metric value, latency)
    while let Some(snapshot) = sim.step() {
        if let Some((_, value)) = sim.store().last_value(metric) {
            pairs.push((value, snapshot.end_to_end_latency_ms));
        }
    }
    if pairs.is_empty() {
        return Err(SimulatorError::InvalidSpec {
            reason: "calibration run produced no samples".to_string(),
        });
    }

    let observed_max = pairs
        .iter()
        .map(|(v, _)| *v)
        .fold(f64::NEG_INFINITY, f64::max);
    let observed_min = pairs.iter().map(|(v, _)| *v).fold(f64::INFINITY, f64::min);

    // Both thresholds are anchored on *latency* levels and translated into
    // guiding-metric values through the calibration run, so that rules on
    // different metrics (CPU, request latency, queue depth, ...) trigger at
    // comparable operating points:
    //   * scale out at the metric value where the end-to-end latency first
    //     reaches the warning level (75% of the SLA bound);
    //   * scale in at the metric value below which latency stays comfortable
    //     (30% of the SLA bound).
    let warning_ms = 0.75 * sla.threshold_ms;
    let comfortable_ms = 0.30 * sla.threshold_ms;
    let scale_out_anchor = pairs
        .iter()
        .filter(|(_, lat)| *lat >= warning_ms)
        .map(|(v, _)| *v)
        .fold(f64::INFINITY, f64::min);
    let comfortable_value = pairs
        .iter()
        .filter(|(_, lat)| *lat < comfortable_ms)
        .map(|(v, _)| *v)
        .fold(f64::NEG_INFINITY, f64::max);

    let scale_out = if scale_out_anchor.is_finite() {
        scale_out_anchor
    } else {
        // The SLA was never at risk during calibration: scale out only near
        // the top of the observed range.
        observed_min + 0.9 * (observed_max - observed_min)
    };
    let mut scale_in = if comfortable_value.is_finite() {
        comfortable_value
    } else {
        observed_min + 0.4 * (scale_out - observed_min)
    };
    if scale_in >= scale_out {
        scale_in = observed_min + 0.7 * (scale_out - observed_min);
    }

    Ok(CalibratedThresholds {
        scale_out,
        scale_in,
        observed_max,
    })
}

/// Convenience: builds a complete [`ScalingRule`] for `metric` with
/// calibrated thresholds.
///
/// # Errors
///
/// Same as [`calibrate_thresholds`].
pub fn calibrated_rule(
    spec: &AppSpec,
    metric: &MetricId,
    sla: &SlaCondition,
    peak_rate: f64,
    target_components: Vec<String>,
    seed: u64,
) -> Result<ScalingRule> {
    let thresholds = calibrate_thresholds(spec, metric, sla, peak_rate, seed)?;
    Ok(ScalingRule::new(
        metric.clone(),
        thresholds.scale_out,
        thresholds.scale_in,
        target_components,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_simulator::{CallSpec, ComponentSpec, MetricBehavior, MetricSpec};

    fn app() -> AppSpec {
        let mut app = AppSpec::new("cal", "front");
        app.add_component(
            ComponentSpec::new("front")
                .with_capacity(80.0)
                .with_metric(MetricSpec::gauge(
                    "front_latency_ms",
                    MetricBehavior::latency(300.0, 70.0),
                ))
                .with_metric(MetricSpec::gauge(
                    "front_cpu",
                    MetricBehavior::cpu_like(1.0),
                )),
        );
        app.add_component(ComponentSpec::new("db").with_capacity(150.0).with_metric(
            MetricSpec::gauge("db_queries", MetricBehavior::load_proportional(2.0)),
        ));
        app.add_call(CallSpec::new("front", "db"));
        app
    }

    #[test]
    fn calibration_produces_consistent_thresholds() {
        let sla = SlaCondition::default();
        let metric = MetricId::new("front", "front_latency_ms");
        let t = calibrate_thresholds(&app(), &metric, &sla, 300.0, 7).unwrap();
        assert!(t.scale_in < t.scale_out, "{t:?}");
        assert!(t.scale_out <= t.observed_max);
        assert!(
            t.scale_out > 300.0,
            "threshold should be above the idle latency"
        );
    }

    #[test]
    fn calibrated_rule_is_consistent() {
        let sla = SlaCondition::default();
        let metric = MetricId::new("front", "front_cpu");
        let rule = calibrated_rule(&app(), &metric, &sla, 300.0, vec!["front".into()], 7).unwrap();
        assert!(rule.is_consistent());
    }

    #[test]
    fn low_peak_load_still_yields_thresholds() {
        // The SLA is never at risk: the fallback branch is used.
        let sla = SlaCondition::default();
        let metric = MetricId::new("front", "front_latency_ms");
        let t = calibrate_thresholds(&app(), &metric, &sla, 5.0, 7).unwrap();
        assert!(t.scale_in < t.scale_out);
    }

    #[test]
    fn unknown_metric_or_component_is_rejected() {
        let sla = SlaCondition::default();
        assert!(calibrate_thresholds(&app(), &MetricId::new("nope", "m"), &sla, 10.0, 1).is_err());
        assert!(
            calibrate_thresholds(&app(), &MetricId::new("front", "missing"), &sla, 10.0, 1)
                .is_err()
        );
    }
}
