//! Declarative application models: components, metrics and RPC topology.
//!
//! An [`AppSpec`] is the simulator's stand-in for a deployed
//! microservices-based application: a set of [`ComponentSpec`]s (each
//! exporting metrics) connected by [`CallSpec`] edges along which request
//! load propagates. The concrete ShareLatex- and OpenStack-like models live
//! in the `sieve-apps` crate.

use crate::metrics::MetricSpec;
use crate::{Result, SimulatorError};
use std::collections::BTreeMap;

/// One microservice component and the metrics it exports.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSpec {
    /// Component name (unique within the application).
    pub name: String,
    /// Metrics exported by this component.
    pub metrics: Vec<MetricSpec>,
    /// Number of instances initially deployed (autoscaling changes this at
    /// runtime).
    pub instances: usize,
    /// Per-instance load at which the component saturates; used by the
    /// built-in latency model.
    pub capacity_per_instance: f64,
}

impl ComponentSpec {
    /// Creates a component with one instance and a default capacity of 100
    /// load units per instance.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            metrics: Vec::new(),
            instances: 1,
            capacity_per_instance: 100.0,
        }
    }

    /// Adds a metric (builder style).
    pub fn with_metric(mut self, metric: MetricSpec) -> Self {
        self.metrics.push(metric);
        self
    }

    /// Adds several metrics (builder style).
    pub fn with_metrics(mut self, metrics: impl IntoIterator<Item = MetricSpec>) -> Self {
        self.metrics.extend(metrics);
        self
    }

    /// Sets the per-instance capacity (builder style).
    pub fn with_capacity(mut self, capacity: f64) -> Self {
        self.capacity_per_instance = capacity.max(1e-6);
        self
    }

    /// Number of metrics exported by this component.
    pub fn metric_count(&self) -> usize {
        self.metrics.len()
    }
}

/// A caller→callee RPC relationship along which load propagates.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSpec {
    /// The calling component.
    pub caller: String,
    /// The called component.
    pub callee: String,
    /// How many downstream requests each incoming request at the caller
    /// generates on this edge.
    pub fanout: f64,
    /// Propagation delay of the load effect, in milliseconds.
    pub lag_ms: u64,
}

impl CallSpec {
    /// Creates a call edge with fanout 1.0 and a 500 ms lag (one tick at the
    /// default discretisation).
    pub fn new(caller: impl Into<String>, callee: impl Into<String>) -> Self {
        Self {
            caller: caller.into(),
            callee: callee.into(),
            fanout: 1.0,
            lag_ms: 500,
        }
    }

    /// Sets the fanout (builder style).
    pub fn with_fanout(mut self, fanout: f64) -> Self {
        self.fanout = fanout.max(0.0);
        self
    }

    /// Sets the propagation lag (builder style).
    pub fn with_lag_ms(mut self, lag_ms: u64) -> Self {
        self.lag_ms = lag_ms;
        self
    }
}

/// A complete application model.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Application name (e.g. "sharelatex").
    pub name: String,
    /// Name of the component that receives the external workload.
    pub entrypoint: String,
    components: BTreeMap<String, ComponentSpec>,
    calls: Vec<CallSpec>,
}

impl AppSpec {
    /// Creates an application with the given name and entrypoint component
    /// (the entrypoint must still be added via [`AppSpec::add_component`]).
    pub fn new(name: impl Into<String>, entrypoint: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            entrypoint: entrypoint.into(),
            components: BTreeMap::new(),
            calls: Vec::new(),
        }
    }

    /// Adds (or replaces) a component.
    pub fn add_component(&mut self, component: ComponentSpec) {
        self.components.insert(component.name.clone(), component);
    }

    /// Adds a call edge.
    pub fn add_call(&mut self, call: CallSpec) {
        self.calls.push(call);
    }

    /// All components, sorted by name.
    pub fn components(&self) -> impl Iterator<Item = &ComponentSpec> {
        self.components.values()
    }

    /// Looks up a component by name.
    pub fn component(&self, name: &str) -> Option<&ComponentSpec> {
        self.components.get(name)
    }

    /// Mutable access to a component (used by fault injection).
    pub(crate) fn component_mut(&mut self, name: &str) -> Option<&mut ComponentSpec> {
        self.components.get_mut(name)
    }

    /// All call edges.
    pub fn calls(&self) -> &[CallSpec] {
        &self.calls
    }

    /// Mutable access to the call edges (used by fault injection).
    pub(crate) fn calls_mut(&mut self) -> &mut Vec<CallSpec> {
        &mut self.calls
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Component names, sorted.
    pub fn component_names(&self) -> Vec<String> {
        self.components.keys().cloned().collect()
    }

    /// Total number of metrics exported by the whole application (the
    /// quantity reported in Table 1 of the paper).
    pub fn total_metric_count(&self) -> usize {
        self.components.values().map(|c| c.metrics.len()).sum()
    }

    /// Validates the specification: the entrypoint and every call endpoint
    /// must exist, every component must export at least one metric and
    /// metric names must be unique within a component.
    ///
    /// # Errors
    ///
    /// * [`SimulatorError::UnknownComponent`] for dangling references.
    /// * [`SimulatorError::InvalidSpec`] for empty/duplicate metric sets.
    pub fn validate(&self) -> Result<()> {
        if self.components.is_empty() {
            return Err(SimulatorError::InvalidSpec {
                reason: "application has no components".to_string(),
            });
        }
        if !self.components.contains_key(&self.entrypoint) {
            return Err(SimulatorError::UnknownComponent {
                name: self.entrypoint.clone(),
            });
        }
        for call in &self.calls {
            for endpoint in [&call.caller, &call.callee] {
                if !self.components.contains_key(endpoint) {
                    return Err(SimulatorError::UnknownComponent {
                        name: endpoint.clone(),
                    });
                }
            }
        }
        for component in self.components.values() {
            if component.metrics.is_empty() {
                return Err(SimulatorError::InvalidSpec {
                    reason: format!("component `{}` exports no metrics", component.name),
                });
            }
            let mut names: Vec<&str> = component.metrics.iter().map(|m| m.name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            if names.len() != before {
                return Err(SimulatorError::InvalidSpec {
                    reason: format!("component `{}` has duplicate metric names", component.name),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricBehavior;

    fn metric(name: &str) -> MetricSpec {
        MetricSpec::gauge(name, MetricBehavior::load_proportional(1.0))
    }

    fn valid_app() -> AppSpec {
        let mut app = AppSpec::new("test", "frontend");
        app.add_component(ComponentSpec::new("frontend").with_metric(metric("requests")));
        app.add_component(
            ComponentSpec::new("backend")
                .with_metric(metric("queries"))
                .with_capacity(50.0),
        );
        app.add_call(
            CallSpec::new("frontend", "backend")
                .with_fanout(2.0)
                .with_lag_ms(1000),
        );
        app
    }

    #[test]
    fn valid_spec_passes_validation() {
        let app = valid_app();
        assert!(app.validate().is_ok());
        assert_eq!(app.component_count(), 2);
        assert_eq!(app.total_metric_count(), 2);
        assert_eq!(app.component_names(), vec!["backend", "frontend"]);
    }

    #[test]
    fn builders_apply_settings() {
        let app = valid_app();
        let backend = app.component("backend").unwrap();
        assert_eq!(backend.capacity_per_instance, 50.0);
        let call = &app.calls()[0];
        assert_eq!(call.fanout, 2.0);
        assert_eq!(call.lag_ms, 1000);
    }

    #[test]
    fn missing_entrypoint_is_rejected() {
        let mut app = AppSpec::new("test", "missing");
        app.add_component(ComponentSpec::new("a").with_metric(metric("m")));
        assert!(matches!(
            app.validate(),
            Err(SimulatorError::UnknownComponent { .. })
        ));
    }

    #[test]
    fn dangling_call_is_rejected() {
        let mut app = valid_app();
        app.add_call(CallSpec::new("backend", "nowhere"));
        assert!(matches!(
            app.validate(),
            Err(SimulatorError::UnknownComponent { name }) if name == "nowhere"
        ));
    }

    #[test]
    fn component_without_metrics_is_rejected() {
        let mut app = valid_app();
        app.add_component(ComponentSpec::new("empty"));
        assert!(matches!(
            app.validate(),
            Err(SimulatorError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn duplicate_metric_names_are_rejected() {
        let mut app = valid_app();
        app.add_component(
            ComponentSpec::new("dupe")
                .with_metric(metric("m"))
                .with_metric(metric("m")),
        );
        assert!(matches!(
            app.validate(),
            Err(SimulatorError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn empty_application_is_rejected() {
        let app = AppSpec::new("empty", "x");
        assert!(matches!(
            app.validate(),
            Err(SimulatorError::InvalidSpec { .. })
        ));
    }
}
