//! Fault injection.
//!
//! The RCA case study of the paper compares the dependency graphs of a
//! *correct* and a *faulty* version of OpenStack, where the fault is the
//! crash of the Neutron Open vSwitch agent (Launchpad bug #1533942). This
//! module provides the generic fault primitives the `sieve-apps` crate uses
//! to construct that faulty version: metrics can appear or disappear, change
//! their response to load, and call edges can change their latency or vanish
//! entirely — the observable consequences of a real component failure.

use crate::app::AppSpec;
use crate::metrics::MetricSpec;
use crate::{Result, SimulatorError};

/// A single observable fault applied to an application specification.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// A metric stops being exported (e.g. an agent crashed).
    RemoveMetric {
        /// Component exporting the metric.
        component: String,
        /// Name of the metric to remove.
        metric: String,
    },
    /// A new metric appears (e.g. an error counter becomes non-trivial).
    AddMetric {
        /// Component to receive the metric.
        component: String,
        /// The new metric.
        metric: MetricSpec,
    },
    /// A metric's behaviour is replaced (e.g. an ACTIVE-state gauge flips to
    /// an ERROR-state gauge).
    ReplaceMetricBehavior {
        /// Component exporting the metric.
        component: String,
        /// Metric whose behaviour changes.
        metric: String,
        /// The replacement specification (keeps the same name).
        replacement: MetricSpec,
    },
    /// The latency of a call edge changes (e.g. retries and timeouts).
    ChangeCallLag {
        /// Calling component.
        caller: String,
        /// Called component.
        callee: String,
        /// New propagation lag in milliseconds.
        lag_ms: u64,
    },
    /// A call edge disappears entirely (the callee no longer receives work).
    DropCall {
        /// Calling component.
        caller: String,
        /// Called component.
        callee: String,
    },
    /// A component's capacity degrades by the given factor in `(0, 1]`.
    DegradeCapacity {
        /// Affected component.
        component: String,
        /// Multiplier applied to the per-instance capacity.
        factor: f64,
    },
}

/// A named set of faults representing one failure scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultScenario {
    /// Human-readable scenario name (e.g. "neutron-ovs-agent-crash").
    pub name: String,
    /// The faults to apply.
    pub faults: Vec<Fault>,
}

impl FaultScenario {
    /// Creates an empty scenario.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            faults: Vec::new(),
        }
    }

    /// Adds a fault (builder style).
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Applies every fault to `spec`, producing the "faulty version" of the
    /// application.
    ///
    /// # Errors
    ///
    /// * [`SimulatorError::UnknownComponent`] when a fault references a
    ///   component that does not exist.
    /// * [`SimulatorError::InvalidSpec`] when a referenced metric or call
    ///   edge does not exist, or a capacity factor is out of range.
    pub(crate) fn apply(&self, spec: &mut AppSpec) -> Result<()> {
        for fault in &self.faults {
            apply_fault(spec, fault)?;
        }
        Ok(())
    }

    /// Convenience: clones `spec`, applies the scenario and returns the
    /// faulty copy.
    ///
    /// # Errors
    ///
    /// * [`SimulatorError::UnknownComponent`] when a fault references a
    ///   component that does not exist.
    /// * [`SimulatorError::InvalidSpec`] when a referenced metric or call
    ///   edge does not exist, or a capacity factor is out of range.
    pub fn applied_to(&self, spec: &AppSpec) -> Result<AppSpec> {
        let mut faulty = spec.clone();
        self.apply(&mut faulty)?;
        Ok(faulty)
    }
}

fn apply_fault(spec: &mut AppSpec, fault: &Fault) -> Result<()> {
    match fault {
        Fault::RemoveMetric { component, metric } => {
            let comp =
                spec.component_mut(component)
                    .ok_or_else(|| SimulatorError::UnknownComponent {
                        name: component.clone(),
                    })?;
            let before = comp.metrics.len();
            comp.metrics.retain(|m| m.name != *metric);
            if comp.metrics.len() == before {
                return Err(SimulatorError::InvalidSpec {
                    reason: format!("metric `{metric}` not found in component `{component}`"),
                });
            }
            Ok(())
        }
        Fault::AddMetric { component, metric } => {
            let comp =
                spec.component_mut(component)
                    .ok_or_else(|| SimulatorError::UnknownComponent {
                        name: component.clone(),
                    })?;
            if comp.metrics.iter().any(|m| m.name == metric.name) {
                return Err(SimulatorError::InvalidSpec {
                    reason: format!(
                        "metric `{}` already exists in component `{component}`",
                        metric.name
                    ),
                });
            }
            comp.metrics.push(metric.clone());
            Ok(())
        }
        Fault::ReplaceMetricBehavior {
            component,
            metric,
            replacement,
        } => {
            let comp =
                spec.component_mut(component)
                    .ok_or_else(|| SimulatorError::UnknownComponent {
                        name: component.clone(),
                    })?;
            match comp.metrics.iter_mut().find(|m| m.name == *metric) {
                Some(slot) => {
                    *slot = MetricSpec {
                        name: slot.name.clone(),
                        ..replacement.clone()
                    };
                    Ok(())
                }
                None => Err(SimulatorError::InvalidSpec {
                    reason: format!("metric `{metric}` not found in component `{component}`"),
                }),
            }
        }
        Fault::ChangeCallLag {
            caller,
            callee,
            lag_ms,
        } => {
            let found = spec
                .calls_mut()
                .iter_mut()
                .find(|c| c.caller == *caller && c.callee == *callee);
            match found {
                Some(call) => {
                    call.lag_ms = *lag_ms;
                    Ok(())
                }
                None => Err(SimulatorError::InvalidSpec {
                    reason: format!("call edge `{caller}` -> `{callee}` not found"),
                }),
            }
        }
        Fault::DropCall { caller, callee } => {
            let before = spec.calls().len();
            spec.calls_mut()
                .retain(|c| !(c.caller == *caller && c.callee == *callee));
            if spec.calls().len() == before {
                return Err(SimulatorError::InvalidSpec {
                    reason: format!("call edge `{caller}` -> `{callee}` not found"),
                });
            }
            Ok(())
        }
        Fault::DegradeCapacity { component, factor } => {
            if !(*factor > 0.0 && *factor <= 1.0) {
                return Err(SimulatorError::InvalidSpec {
                    reason: format!("capacity factor {factor} must be in (0, 1]"),
                });
            }
            let comp =
                spec.component_mut(component)
                    .ok_or_else(|| SimulatorError::UnknownComponent {
                        name: component.clone(),
                    })?;
            comp.capacity_per_instance *= factor;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{CallSpec, ComponentSpec};
    use crate::metrics::MetricBehavior;

    fn app() -> AppSpec {
        let mut app = AppSpec::new("test", "api");
        app.add_component(
            ComponentSpec::new("api")
                .with_metric(MetricSpec::gauge(
                    "instances_active",
                    MetricBehavior::load_proportional(1.0),
                ))
                .with_metric(MetricSpec::gauge("cpu", MetricBehavior::cpu_like(1.0))),
        );
        app.add_component(
            ComponentSpec::new("agent")
                .with_metric(MetricSpec::gauge(
                    "ports_active",
                    MetricBehavior::load_proportional(2.0),
                ))
                .with_capacity(40.0),
        );
        app.add_call(CallSpec::new("api", "agent").with_lag_ms(500));
        app
    }

    #[test]
    fn remove_and_add_metrics() {
        let scenario = FaultScenario::new("crash")
            .with_fault(Fault::RemoveMetric {
                component: "agent".into(),
                metric: "ports_active".into(),
            })
            .with_fault(Fault::AddMetric {
                component: "agent".into(),
                metric: MetricSpec::gauge("ports_down", MetricBehavior::load_proportional(2.0)),
            });
        let faulty = scenario.applied_to(&app()).unwrap();
        let agent = faulty.component("agent").unwrap();
        assert_eq!(agent.metrics.len(), 1);
        assert_eq!(agent.metrics[0].name, "ports_down");
        assert_eq!(scenario.faults.len(), 2);
        // The original spec is untouched.
        assert_eq!(
            app().component("agent").unwrap().metrics[0].name,
            "ports_active"
        );
    }

    #[test]
    fn replace_behavior_keeps_the_name() {
        let scenario = FaultScenario::new("flip").with_fault(Fault::ReplaceMetricBehavior {
            component: "api".into(),
            metric: "instances_active".into(),
            replacement: MetricSpec::gauge("ignored", MetricBehavior::constant(0.0)),
        });
        let faulty = scenario.applied_to(&app()).unwrap();
        let api = faulty.component("api").unwrap();
        let m = api
            .metrics
            .iter()
            .find(|m| m.name == "instances_active")
            .unwrap();
        assert_eq!(m.behavior, MetricBehavior::constant(0.0));
    }

    #[test]
    fn change_lag_and_drop_call() {
        let lag = FaultScenario::new("lag").with_fault(Fault::ChangeCallLag {
            caller: "api".into(),
            callee: "agent".into(),
            lag_ms: 3000,
        });
        let faulty = lag.applied_to(&app()).unwrap();
        assert_eq!(faulty.calls()[0].lag_ms, 3000);

        let drop = FaultScenario::new("drop").with_fault(Fault::DropCall {
            caller: "api".into(),
            callee: "agent".into(),
        });
        let faulty = drop.applied_to(&app()).unwrap();
        assert!(faulty.calls().is_empty());
    }

    #[test]
    fn degrade_capacity_multiplies() {
        let scenario = FaultScenario::new("slow").with_fault(Fault::DegradeCapacity {
            component: "agent".into(),
            factor: 0.25,
        });
        let faulty = scenario.applied_to(&app()).unwrap();
        assert!((faulty.component("agent").unwrap().capacity_per_instance - 10.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_faults_are_rejected() {
        let unknown_component = FaultScenario::new("x").with_fault(Fault::RemoveMetric {
            component: "nope".into(),
            metric: "m".into(),
        });
        assert!(matches!(
            unknown_component.applied_to(&app()),
            Err(SimulatorError::UnknownComponent { .. })
        ));

        let unknown_metric = FaultScenario::new("x").with_fault(Fault::RemoveMetric {
            component: "api".into(),
            metric: "nope".into(),
        });
        assert!(unknown_metric.applied_to(&app()).is_err());

        let duplicate_metric = FaultScenario::new("x").with_fault(Fault::AddMetric {
            component: "api".into(),
            metric: MetricSpec::gauge("cpu", MetricBehavior::constant(1.0)),
        });
        assert!(duplicate_metric.applied_to(&app()).is_err());

        let missing_edge = FaultScenario::new("x").with_fault(Fault::DropCall {
            caller: "agent".into(),
            callee: "api".into(),
        });
        assert!(missing_edge.applied_to(&app()).is_err());

        let bad_factor = FaultScenario::new("x").with_fault(Fault::DegradeCapacity {
            component: "api".into(),
            factor: 0.0,
        });
        assert!(bad_factor.applied_to(&app()).is_err());
    }

    #[test]
    fn faulty_spec_still_validates() {
        let scenario = FaultScenario::new("crash").with_fault(Fault::AddMetric {
            component: "api".into(),
            metric: MetricSpec::gauge("instances_error", MetricBehavior::load_proportional(0.5)),
        });
        let faulty = scenario.applied_to(&app()).unwrap();
        assert!(faulty.validate().is_ok());
    }
}
