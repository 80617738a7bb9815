//! The autoscaling runtime engine.
//!
//! The paper wires its scaling rules into Kapacitor, which streams metrics
//! out of InfluxDB and triggers the scale in/out actions. Here the engine
//! drives a [`Simulation`] tick by tick, polls the guiding metric from the
//! metric store, applies the [`ScalingRule`] (with a cooldown) and records
//! the quantities of Table 4: mean CPU usage per component, SLA violations
//! and the number of scaling actions.

use crate::rules::{ScalingRule, SlaCondition};
use sieve_simulator::store::MetricId;
use sieve_simulator::{AppSpec, Result, SimConfig, Simulation, SimulatorError, Workload};
use std::collections::BTreeMap;

/// One executed scaling action, timestamped in ticks — the record a
/// scenario score checks burst reactions against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalingAction {
    /// Tick at which the action executed (0-based).
    pub tick: usize,
    /// `+1` for scale-out, `-1` for scale-in.
    pub direction: i32,
    /// Total instances across the rule's target components after the
    /// action.
    pub total_target_instances: usize,
}

/// The outcome of one autoscaled run (one row-set of Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalingReport {
    /// The metric that drove the scaling decisions.
    pub guiding_metric: MetricId,
    /// Mean CPU usage per component over the whole run (percent).
    pub mean_cpu_usage_per_component: f64,
    /// Number of latency samples violating the SLA bound.
    pub sla_violations: usize,
    /// Total number of latency samples.
    pub total_samples: usize,
    /// Number of scaling actions executed.
    pub scaling_actions: usize,
    /// Every executed scaling action in tick order (`scaling_actions ==
    /// actions.len()` for engine-driven runs).
    pub actions: Vec<ScalingAction>,
    /// Instance count of every target component at the end of the run.
    pub final_instances: BTreeMap<String, usize>,
    /// The 90th-percentile end-to-end latency over the run, in milliseconds.
    pub latency_p90_ms: f64,
}

impl AutoscalingReport {
    /// Tick lag between `burst_start_tick` and the first scale-out action
    /// at or after it — `None` when the engine never reacted. This is the
    /// reaction-lag signal the chaos scenarios bound.
    pub fn scale_out_lag(&self, burst_start_tick: usize) -> Option<usize> {
        self.actions
            .iter()
            .find(|a| a.direction > 0 && a.tick >= burst_start_tick)
            .map(|a| a.tick - burst_start_tick)
    }

    /// Fraction of samples violating the SLA.
    pub fn violation_ratio(&self) -> f64 {
        if self.total_samples == 0 {
            return 0.0;
        }
        self.sla_violations as f64 / self.total_samples as f64
    }
}

/// Streams metrics from a running simulation and applies a scaling rule.
#[derive(Debug, Clone)]
pub struct AutoscaleEngine {
    rule: ScalingRule,
    sla: SlaCondition,
}

impl AutoscaleEngine {
    /// Creates an engine for the given rule and SLA condition.
    ///
    /// # Errors
    ///
    /// Returns [`SimulatorError::InvalidSpec`] when the rule is inconsistent
    /// (scale-in threshold not below scale-out, or no target components).
    pub fn new(rule: ScalingRule, sla: SlaCondition) -> Result<Self> {
        if !rule.is_consistent() {
            return Err(SimulatorError::InvalidSpec {
                reason: "inconsistent scaling rule".to_string(),
            });
        }
        Ok(Self { rule, sla })
    }

    /// Runs `spec` under `workload` with autoscaling enabled and reports the
    /// Table 4 quantities.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (invalid spec, unknown components).
    pub fn run(
        &self,
        spec: &AppSpec,
        workload: &Workload,
        config: SimConfig,
    ) -> Result<AutoscalingReport> {
        let mut sim = Simulation::new(spec.clone(), workload.clone(), config)?;
        // Start every target component at the rule's minimum.
        for component in &self.rule.target_components {
            sim.set_instances(component, self.rule.min_instances)?;
        }

        let mut scaling_actions = 0usize;
        let mut actions: Vec<ScalingAction> = Vec::new();
        let mut sla_violations = 0usize;
        let mut total_samples = 0usize;
        let mut last_action_tick: Option<usize> = None;
        // Sliding window of "metric below the scale-in threshold" flags used
        // to make scale-in decisions sustained rather than instantaneous.
        let scale_in_window = self.rule.cooldown_ticks.max(1) * 12;
        let mut below_history: std::collections::VecDeque<bool> =
            std::collections::VecDeque::with_capacity(scale_in_window);

        while let Some(snapshot) = sim.step() {
            total_samples += 1;
            if self.sla.is_violated_by(snapshot.end_to_end_latency_ms) {
                sla_violations += 1;
            }

            let Some((_, value)) = sim.store().last_value(&self.rule.guiding_metric) else {
                continue;
            };
            let decision = self.rule.decide(value);
            // Scale-in decisions must be *sustained*: the guiding metric has
            // to stay below the scale-in threshold for (most of) an extended
            // window. Scaling out reacts immediately (after the cooldown) so
            // SLA violations are corrected as fast as possible; this
            // asymmetry is what keeps threshold rules from flapping and
            // corresponds to the iterative refinement of §4.1.
            below_history.push_back(decision < 0);
            if below_history.len() > scale_in_window {
                below_history.pop_front();
            }
            if decision < 0 {
                let below_count = below_history.iter().filter(|&&b| b).count();
                let sustained = below_history.len() >= scale_in_window
                    && below_count * 10 >= below_history.len() * 9;
                if !sustained {
                    continue;
                }
            }
            if decision == 0 {
                continue;
            }
            let cooled_down = match last_action_tick {
                None => true,
                Some(t) => snapshot.tick.saturating_sub(t) >= self.rule.cooldown_ticks,
            };
            if !cooled_down {
                continue;
            }

            let mut changed = false;
            for component in &self.rule.target_components {
                let current = sim.instances(component);
                let desired = if decision > 0 {
                    (current + 1).min(self.rule.max_instances)
                } else {
                    current.saturating_sub(1).max(self.rule.min_instances)
                };
                if desired != current {
                    sim.set_instances(component, desired)?;
                    changed = true;
                }
            }
            if changed {
                scaling_actions += 1;
                actions.push(ScalingAction {
                    tick: snapshot.tick,
                    direction: if decision > 0 { 1 } else { -1 },
                    total_target_instances: self
                        .rule
                        .target_components
                        .iter()
                        .map(|c| sim.instances(c))
                        .sum(),
                });
                last_action_tick = Some(snapshot.tick);
                below_history.clear();
            }
        }

        let mean_cpu = mean_cpu_usage_per_component(&sim);
        let latency_p90 = sieve_timeseries::percentile(sim.latency_samples(), 90.0).unwrap_or(0.0);
        let final_instances = self
            .rule
            .target_components
            .iter()
            .map(|c| (c.clone(), sim.instances(c)))
            .collect();

        Ok(AutoscalingReport {
            guiding_metric: self.rule.guiding_metric.clone(),
            mean_cpu_usage_per_component: mean_cpu,
            sla_violations,
            total_samples,
            scaling_actions,
            actions,
            final_instances,
            latency_p90_ms: latency_p90,
        })
    }
}

/// Runs the application without any scaling rule (static deployment) and
/// reports the same quantities — the "do nothing" baseline.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_without_scaling(
    spec: &AppSpec,
    workload: &Workload,
    config: SimConfig,
    sla: &SlaCondition,
) -> Result<AutoscalingReport> {
    let mut sim = Simulation::new(spec.clone(), workload.clone(), config)?;
    let mut sla_violations = 0usize;
    let mut total_samples = 0usize;
    while let Some(snapshot) = sim.step() {
        total_samples += 1;
        if sla.is_violated_by(snapshot.end_to_end_latency_ms) {
            sla_violations += 1;
        }
    }
    Ok(AutoscalingReport {
        guiding_metric: MetricId::new("none", "none"),
        mean_cpu_usage_per_component: mean_cpu_usage_per_component(&sim),
        sla_violations,
        total_samples,
        scaling_actions: 0,
        actions: Vec::new(),
        final_instances: BTreeMap::new(),
        latency_p90_ms: sieve_timeseries::percentile(sim.latency_samples(), 90.0).unwrap_or(0.0),
    })
}

/// Mean of the `cpu_usage` metric across all components that export one.
///
/// Reads each series' *retained window* — the store visitor never exposes
/// evicted points. Under bounded retention this is the mean over the
/// newest `raw_capacity` samples (a deliberately recency-weighted
/// calibration signal); with retention off, or whenever the stream is
/// short enough to fit the window, it is bit-identical to the
/// full-history mean (pinned by
/// `mean_cpu_calibration_is_unchanged_by_ample_retention`).
fn mean_cpu_usage_per_component(sim: &Simulation) -> f64 {
    let store = sim.store();
    let mut component_means = Vec::new();
    // One pass over the store, no per-component id allocation and no
    // series copies — the visitor lends a zero-copy view of each series'
    // retained window.
    store.for_each_series_named("cpu_usage", |_, window| {
        if !window.is_empty() {
            component_means.push(sieve_timeseries::mean(window.values()));
        }
    });
    if component_means.is_empty() {
        return 0.0;
    }
    sieve_timeseries::mean(&component_means)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrated_rule;
    use sieve_apps::{sharelatex, MetricRichness};

    fn spike_workload() -> Workload {
        Workload::spike(20.0, 320.0, 60, 180)
    }

    fn sim_config() -> SimConfig {
        SimConfig::new(99).with_duration_ms(150_000)
    }

    fn scalable_components() -> Vec<String> {
        vec![
            "web".to_string(),
            "clsi".to_string(),
            "doc-updater".to_string(),
            "docstore".to_string(),
            "real-time".to_string(),
        ]
    }

    #[test]
    fn engine_rejects_inconsistent_rules() {
        let rule = ScalingRule::new(MetricId::new("web", "m"), 1.0, 2.0, vec!["web".into()]);
        assert!(AutoscaleEngine::new(rule, SlaCondition::default()).is_err());
    }

    #[test]
    fn autoscaling_scales_out_under_a_spike_and_reduces_violations() {
        let app = sharelatex::app_spec(MetricRichness::Minimal);
        let sla = SlaCondition::default();
        let metric = MetricId::new(sharelatex::GUIDING_COMPONENT, sharelatex::GUIDING_METRIC);
        let rule = calibrated_rule(&app, &metric, &sla, 320.0, scalable_components(), 5)
            .unwrap()
            .with_instance_bounds(1, 12)
            .with_cooldown_ticks(10);
        let engine = AutoscaleEngine::new(rule, sla).unwrap();

        let scaled = engine.run(&app, &spike_workload(), sim_config()).unwrap();
        let baseline = run_without_scaling(&app, &spike_workload(), sim_config(), &sla).unwrap();

        // The engine must scale out during the spike (scale-in may or may not
        // happen before the run ends, because scale-in decisions are
        // deliberately conservative).
        assert!(
            scaled.scaling_actions >= 1,
            "expected at least one scaling action, got {}",
            scaled.scaling_actions
        );
        assert!(
            scaled.sla_violations < baseline.sla_violations,
            "autoscaling should reduce SLA violations ({} vs baseline {})",
            scaled.sla_violations,
            baseline.sla_violations
        );
        assert_eq!(scaled.total_samples, baseline.total_samples);
        assert!(scaled.violation_ratio() <= 1.0);

        // The action log lines up with the counter and the spike timing:
        // the first scale-out comes at or after the spike start (tick 60)
        // and within a bounded reaction lag.
        assert_eq!(scaled.actions.len(), scaled.scaling_actions);
        assert!(scaled.actions.windows(2).all(|w| w[0].tick < w[1].tick));
        let lag = scaled.scale_out_lag(60).expect("reacted to the spike");
        assert!(lag <= 40, "reaction lag {lag} ticks");
        assert!(scaled.scale_out_lag(0).is_some());
        assert!(scaled.scale_out_lag(usize::MAX).is_none());
        assert_eq!(baseline.actions, Vec::new());
    }

    #[test]
    fn mean_cpu_calibration_is_unchanged_by_ample_retention() {
        use sieve_simulator::store::RetentionPolicy;
        let app = sharelatex::app_spec(MetricRichness::Minimal);
        let sla = SlaCondition::default();
        let workload = Workload::constant(10.0);
        // Short stream: 30 s at 500 ms ticks is 60 points per series, so a
        // 60-point ring window retains every point and the windowed run
        // must report the same calibration signal bit for bit.
        let config = SimConfig::new(7).with_duration_ms(30_000);
        let unbounded = run_without_scaling(&app, &workload, config, &sla).unwrap();
        let windowed = run_without_scaling(
            &app,
            &workload,
            config.with_retention(RetentionPolicy::windowed(60)),
            &sla,
        )
        .unwrap();
        assert_eq!(
            windowed.mean_cpu_usage_per_component,
            unbounded.mean_cpu_usage_per_component
        );
        assert_eq!(windowed.sla_violations, unbounded.sla_violations);
        assert_eq!(windowed.latency_p90_ms, unbounded.latency_p90_ms);
    }

    #[test]
    fn report_fields_are_consistent() {
        let app = sharelatex::app_spec(MetricRichness::Minimal);
        let sla = SlaCondition::default();
        let baseline =
            run_without_scaling(&app, &Workload::constant(10.0), sim_config(), &sla).unwrap();
        assert_eq!(baseline.scaling_actions, 0);
        assert!(baseline.sla_violations <= baseline.total_samples);
        assert!(baseline.mean_cpu_usage_per_component >= 0.0);
        assert!(baseline.latency_p90_ms > 0.0);
        assert_eq!(
            baseline.violation_ratio(),
            baseline.sla_violations as f64 / baseline.total_samples as f64
        );
    }
}
