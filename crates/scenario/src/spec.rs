//! Scenario specifications: the script an adversarial run follows.
//!
//! A [`ScenarioSpec`] is seed-free — it names the application, the workload
//! *plan* (instantiated with a concrete seed at generation time) and the
//! scripted events per epoch. One spec plus many seeds yields a matrix of
//! deterministic runs.

use crate::{Result, ScenarioError};
use sieve_core::SieveConfig;
use sieve_simulator::store::RetentionPolicy;
use sieve_simulator::{AppSpec, Burst, FaultScenario, Workload};
use std::collections::BTreeMap;

/// A seed-free workload plan, instantiated into a concrete
/// [`Workload`] once the run seed is known.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadPlan {
    /// Smooth sinusoidal load with deterministic noise.
    Oscillating {
        /// Baseline requests per tick.
        base: f64,
        /// Amplitude of the oscillation.
        amplitude: f64,
        /// Period in ticks.
        period_ticks: usize,
        /// Relative noise amplitude.
        noise: f64,
    },
    /// Bursty M/M/c-style arrivals: per-tick counts drawn from a Poisson
    /// distribution.
    Poisson {
        /// Mean arrivals per tick.
        lambda_per_tick: f64,
    },
    /// Diurnal sine-modulated Poisson arrivals with scripted load bursts —
    /// the bursts double as the autoscaling ground truth.
    DiurnalBursts {
        /// Baseline mean arrivals per tick.
        base: f64,
        /// Relative amplitude of the diurnal curve.
        relative_amplitude: f64,
        /// Diurnal period in ticks.
        period_ticks: usize,
        /// Scripted bursts (ground truth for [`crate::score::score_autoscale`]).
        bursts: Vec<Burst>,
    },
}

impl WorkloadPlan {
    /// Instantiates the plan into a concrete workload for one seeded run.
    pub(crate) fn instantiate(&self, total_ticks: usize, seed: u64) -> Workload {
        match self {
            WorkloadPlan::Oscillating {
                base,
                amplitude,
                period_ticks,
                noise,
            } => Workload::Oscillating {
                base: *base,
                amplitude: *amplitude,
                period_ticks: *period_ticks,
                noise: *noise,
                seed,
            },
            WorkloadPlan::Poisson { lambda_per_tick } => Workload::poisson(*lambda_per_tick, seed),
            WorkloadPlan::DiurnalBursts {
                base,
                relative_amplitude,
                period_ticks,
                bursts,
            } => Workload::diurnal_bursts(
                total_ticks,
                *base,
                *relative_amplitude,
                *period_ticks,
                bursts,
                seed,
            ),
        }
    }

    /// The scripted bursts, if the plan has any.
    pub(crate) fn bursts(&self) -> &[Burst] {
        match self {
            WorkloadPlan::DiurnalBursts { bursts, .. } => bursts,
            _ => &[],
        }
    }
}

/// One scripted action, applied at the *start* of its epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioAction {
    /// Enable a call edge (dependency appears).
    EdgeUp {
        /// Calling component.
        caller: String,
        /// Called component.
        callee: String,
    },
    /// Disable a call edge (dependency disappears).
    EdgeDown {
        /// Calling component.
        caller: String,
        /// Called component.
        callee: String,
    },
    /// Crash a component: it stops exporting metrics and serving calls.
    Crash {
        /// The crashed component.
        component: String,
    },
    /// Restore a crashed component.
    Restore {
        /// The restored component.
        component: String,
    },
    /// A metric exporter dies: the series stops reporting.
    DropMetric {
        /// Component exporting the metric.
        component: String,
        /// The dropped metric.
        metric: String,
    },
    /// The metric exporter comes back.
    RestoreMetric {
        /// Component exporting the metric.
        component: String,
        /// The restored metric.
        metric: String,
    },
    /// Skew a component's monitoring clock (0 removes the skew; a removal
    /// makes the store drop reports until real time catches up — the
    /// adversarial part).
    ClockSkew {
        /// The skewed component.
        component: String,
        /// Skew in milliseconds (positive = clock runs ahead).
        skew_ms: i64,
    },
    /// Change the load regime: multiply the offered workload.
    RegimeChange {
        /// Multiplier applied to the workload rate (1.0 = nominal).
        multiplier: f64,
    },
    /// Inject a fault scenario and record `component` as the true root
    /// cause of the run.
    InjectFault {
        /// The component the fault blames (the RCA ground truth).
        component: String,
        /// The fault to apply to the live simulation.
        fault: FaultScenario,
    },
}

/// An action scheduled at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptedEvent {
    /// Epoch (0-based) at whose start the action fires.
    pub epoch: usize,
    /// The action.
    pub action: ScenarioAction,
}

impl ScriptedEvent {
    /// Creates a scheduled event.
    pub(crate) fn at(epoch: usize, action: ScenarioAction) -> Self {
        Self { epoch, action }
    }
}

/// A complete scenario script.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario (and tenant/application) name.
    pub name: String,
    /// The application under test; lists every *potential* call edge.
    pub app: AppSpec,
    /// True number of behaviourally distinct metric families per component.
    pub true_cluster_counts: BTreeMap<String, usize>,
    /// The workload plan.
    pub workload: WorkloadPlan,
    /// Number of analysis epochs.
    pub epochs: usize,
    /// Simulation ticks per epoch.
    pub ticks_per_epoch: usize,
    /// Milliseconds per tick (also the analysis sampling interval).
    pub tick_ms: u64,
    /// Ring-window retention, in epochs of raw points.
    pub window_epochs: usize,
    /// Call edges disabled before the first tick (drift scenarios flip
    /// them on later).
    pub initially_inactive: Vec<(String, String)>,
    /// The scripted events.
    pub events: Vec<ScriptedEvent>,
}

impl ScenarioSpec {
    /// Total simulated ticks.
    pub(crate) fn total_ticks(&self) -> usize {
        self.epochs * self.ticks_per_epoch
    }

    /// Total simulated duration in milliseconds.
    pub(crate) fn duration_ms(&self) -> u64 {
        self.total_ticks() as u64 * self.tick_ms
    }

    /// The ring-window retention policy of the run.
    pub(crate) fn retention(&self) -> RetentionPolicy {
        RetentionPolicy::windowed(self.window_epochs.max(1) * self.ticks_per_epoch)
    }

    /// The analysis configuration matching this scenario's cadence.
    pub fn analysis_config(&self, parallelism: usize) -> SieveConfig {
        SieveConfig::default()
            .with_interval_ms(self.tick_ms)
            .with_retention(self.retention())
            .with_parallelism(parallelism)
    }

    /// The scripted bursts (autoscaling ground truth), if any.
    pub fn bursts(&self) -> &[Burst] {
        self.workload.bursts()
    }

    /// The scripted root cause: `(component, epoch)` of the first
    /// [`ScenarioAction::InjectFault`], if the script has one.
    #[cfg(test)]
    pub(crate) fn root_cause(&self) -> Option<(&str, usize)> {
        self.events.iter().find_map(|e| match &e.action {
            ScenarioAction::InjectFault { component, .. } => Some((component.as_str(), e.epoch)),
            _ => None,
        })
    }

    /// The actions scheduled at `epoch`, in script order.
    pub(crate) fn events_at(&self, epoch: usize) -> impl Iterator<Item = &ScenarioAction> {
        self.events
            .iter()
            .filter(move |e| e.epoch == epoch)
            .map(|e| &e.action)
    }

    /// Validates the script against the application.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidSpec`] when the shape is degenerate,
    /// an event references an unknown component/metric/edge, or a fault is
    /// injected at epoch 0 (no pre-fault baseline would exist).
    pub(crate) fn validate(&self) -> Result<()> {
        if self.epochs == 0 || self.ticks_per_epoch < 2 || self.tick_ms == 0 {
            return Err(ScenarioError::invalid(
                "scenario needs at least one epoch, two ticks per epoch and a nonzero tick",
            ));
        }
        if self.window_epochs == 0 {
            return Err(ScenarioError::invalid("window_epochs must be positive"));
        }
        self.app
            .validate()
            .map_err(|e| ScenarioError::invalid(format!("application spec: {e}")))?;
        for (caller, callee) in &self.initially_inactive {
            self.require_edge(caller, callee)?;
        }
        for event in &self.events {
            if event.epoch >= self.epochs {
                return Err(ScenarioError::invalid(format!(
                    "event scheduled at epoch {} but the scenario has {}",
                    event.epoch, self.epochs
                )));
            }
            match &event.action {
                ScenarioAction::EdgeUp { caller, callee }
                | ScenarioAction::EdgeDown { caller, callee } => {
                    self.require_edge(caller, callee)?;
                }
                ScenarioAction::Crash { component } | ScenarioAction::Restore { component } => {
                    self.require_component(component)?;
                }
                ScenarioAction::DropMetric { component, metric }
                | ScenarioAction::RestoreMetric { component, metric } => {
                    let spec = self.require_component(component)?;
                    if !spec.metrics.iter().any(|m| m.name == *metric) {
                        return Err(ScenarioError::invalid(format!(
                            "component {component} has no metric {metric}"
                        )));
                    }
                }
                ScenarioAction::ClockSkew { component, .. } => {
                    self.require_component(component)?;
                }
                ScenarioAction::RegimeChange { multiplier } => {
                    if !multiplier.is_finite() || *multiplier < 0.0 {
                        return Err(ScenarioError::invalid(
                            "regime multiplier must be finite and non-negative",
                        ));
                    }
                }
                ScenarioAction::InjectFault { component, .. } => {
                    self.require_component(component)?;
                    if event.epoch == 0 {
                        return Err(ScenarioError::invalid(
                            "a fault at epoch 0 leaves no pre-fault baseline to compare against",
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn require_component(&self, name: &str) -> Result<&sieve_simulator::ComponentSpec> {
        self.app
            .component(name)
            .ok_or_else(|| ScenarioError::invalid(format!("unknown component {name}")))
    }

    fn require_edge(&self, caller: &str, callee: &str) -> Result<()> {
        if self
            .app
            .calls()
            .iter()
            .any(|c| c.caller == caller && c.callee == callee)
        {
            Ok(())
        } else {
            Err(ScenarioError::invalid(format!(
                "the application has no call edge {caller} -> {callee}"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_apps::{chaos_app, root_cause_fault, MetricRichness, SVC_A, SVC_B, WORKER};

    fn base_spec() -> ScenarioSpec {
        let chaos = chaos_app(MetricRichness::Minimal);
        ScenarioSpec {
            name: "spec-test".to_string(),
            app: chaos.spec,
            true_cluster_counts: chaos.true_cluster_counts,
            workload: WorkloadPlan::Oscillating {
                base: 40.0,
                amplitude: 14.0,
                period_ticks: 12,
                noise: 0.2,
            },
            epochs: 4,
            ticks_per_epoch: 8,
            tick_ms: 500,
            window_epochs: 2,
            initially_inactive: vec![(SVC_B.to_string(), WORKER.to_string())],
            events: vec![ScriptedEvent::at(
                2,
                ScenarioAction::InjectFault {
                    component: SVC_A.to_string(),
                    fault: root_cause_fault(SVC_A),
                },
            )],
        }
    }

    #[test]
    fn a_well_formed_spec_validates_and_exposes_its_shape() {
        let spec = base_spec();
        spec.validate().unwrap();
        assert_eq!(spec.total_ticks(), 32);
        assert_eq!(spec.duration_ms(), 16_000);
        assert_eq!(spec.retention().raw_capacity(), Some(16));
        assert_eq!(spec.root_cause(), Some((SVC_A, 2)));
        assert_eq!(spec.events_at(2).count(), 1);
        assert_eq!(spec.events_at(0).count(), 0);
        assert!(spec.bursts().is_empty());
        let config = spec.analysis_config(4);
        assert_eq!(config.interval_ms, 500);
        assert_eq!(config.parallelism, 4);
        assert_eq!(config.retention.raw_capacity(), Some(16));
    }

    #[test]
    fn validation_rejects_bad_scripts() {
        let mut late = base_spec();
        late.events[0].epoch = 9;
        assert!(late.validate().is_err());

        let mut early_fault = base_spec();
        early_fault.events[0].epoch = 0;
        assert!(early_fault.validate().is_err());

        let mut unknown_edge = base_spec();
        unknown_edge
            .initially_inactive
            .push(("db".to_string(), "gateway".to_string()));
        assert!(unknown_edge.validate().is_err());

        let mut unknown_metric = base_spec();
        unknown_metric.events.push(ScriptedEvent::at(
            1,
            ScenarioAction::DropMetric {
                component: WORKER.to_string(),
                metric: "nope".to_string(),
            },
        ));
        assert!(unknown_metric.validate().is_err());

        let mut bad_regime = base_spec();
        bad_regime.events.push(ScriptedEvent::at(
            1,
            ScenarioAction::RegimeChange {
                multiplier: f64::NAN,
            },
        ));
        assert!(bad_regime.validate().is_err());
    }

    #[test]
    fn workload_plans_instantiate_deterministically() {
        let plans = [
            WorkloadPlan::Oscillating {
                base: 40.0,
                amplitude: 10.0,
                period_ticks: 12,
                noise: 0.1,
            },
            WorkloadPlan::Poisson {
                lambda_per_tick: 30.0,
            },
            WorkloadPlan::DiurnalBursts {
                base: 30.0,
                relative_amplitude: 0.3,
                period_ticks: 24,
                bursts: vec![Burst::new(10, 6, 120.0)],
            },
        ];
        for plan in &plans {
            let a = plan.instantiate(48, 7);
            let b = plan.instantiate(48, 7);
            assert_eq!(a, b, "same seed must instantiate identically");
            for t in 0..48 {
                assert!(a.rate_at(t, 48).is_finite());
            }
        }
        assert_eq!(plans[2].bursts().len(), 1);
    }
}
