//! The discrete-time simulation engine.
//!
//! The engine advances an [`AppSpec`] tick by tick (default 500 ms, the
//! discretisation Sieve itself uses):
//!
//! 1. the [`Workload`] offers an external request rate at the entrypoint;
//! 2. load propagates along every [`CallSpec`](crate::app::CallSpec) edge
//!    with the edge's fanout and lag, so downstream components react *after*
//!    their callers — which is exactly the temporal structure the Granger
//!    step later rediscovers;
//! 3. every component's metrics are sampled from its per-instance load and
//!    written to the [`MetricStore`];
//! 4. the tracer records the caller→callee calls of the tick.
//!
//! The engine is deterministic for a given seed, supports changing instance
//! counts while running (for the autoscaling case study) and reports an
//! end-to-end request latency per tick (for SLA evaluation).
//!
//! All per-tick bookkeeping is keyed by interned [`Name`]s, and the
//! [`MetricId`] of every exported metric is interned once at construction —
//! the tick loop never touches the interner or clones a `String`.

use crate::app::AppSpec;
use crate::metrics::{MetricBehavior, MetricState};
use crate::store::{MetricId, MetricStore, RetentionPolicy};
use crate::tracer::Tracer;
use crate::workload::Workload;
use crate::{Result, SimulatorError};
use sieve_exec::Name;
use sieve_graph::CallGraph;
use std::collections::{BTreeMap, BTreeSet};

/// What tracing the call graph with sysdig costs every request end to end:
/// the paper's Figure 5 measures +22 % over no tracing. A constant of the
/// latency model, not a measurement.
const SYSDIG_OVERHEAD: f64 = 1.22;

/// A component's base processing latency when it exports no latency
/// metric, in milliseconds.
const DEFAULT_LATENCY_BASE_MS: f64 = 10.0;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Seed for all deterministic noise.
    pub seed: u64,
    /// Tick length in milliseconds (500 ms by default, matching Sieve's
    /// discretisation).
    pub tick_ms: u64,
    /// Total simulated duration in milliseconds.
    pub duration_ms: u64,
    /// How much history the simulation's metric store retains per series
    /// (unbounded by default — the offline-experiment oracle mode).
    pub retention: RetentionPolicy,
}

impl SimConfig {
    /// Creates a configuration with the default 500 ms tick and a 2-minute
    /// duration.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            tick_ms: 500,
            duration_ms: 120_000,
            retention: RetentionPolicy::unbounded(),
        }
    }

    /// Sets the simulated duration (builder style).
    pub fn with_duration_ms(mut self, duration_ms: u64) -> Self {
        self.duration_ms = duration_ms;
        self
    }

    /// Sets the metric store's retention policy (builder style).
    pub fn with_retention(mut self, retention: RetentionPolicy) -> Self {
        self.retention = retention;
        self
    }

    /// Sets the tick length (builder style).
    pub fn with_tick_ms(mut self, tick_ms: u64) -> Self {
        self.tick_ms = tick_ms;
        self
    }

    /// Number of ticks in a full run.
    pub(crate) fn total_ticks(&self) -> usize {
        (self.duration_ms / self.tick_ms.max(1)) as usize
    }
}

/// Per-tick state exposed to interactive drivers such as the autoscaler.
#[derive(Debug, Clone, PartialEq)]
pub struct TickSnapshot {
    /// Tick index (0-based).
    pub tick: usize,
    /// Simulated time at the end of this tick, in milliseconds.
    pub time_ms: u64,
    /// External request rate offered to the entrypoint during this tick.
    pub offered_load: f64,
    /// Per-instance load of every component.
    pub component_loads: BTreeMap<Name, f64>,
    /// Modelled end-to-end latency of a request entering at the entrypoint
    /// during this tick, in milliseconds.
    pub end_to_end_latency_ms: f64,
}

/// A running simulation of one application under one workload.
#[derive(Debug)]
pub struct Simulation {
    spec: AppSpec,
    workload: Workload,
    config: SimConfig,
    store: MetricStore,
    tracer: Tracer,
    /// Per component: every exported metric's interned id and evaluation
    /// state, resolved once so the tick loop records without interning.
    metric_states: BTreeMap<Name, Vec<(MetricId, MetricState)>>,
    /// Interned caller/callee names of `spec.calls()`, index-aligned.
    call_edges: Vec<(Name, Name)>,
    /// Per-edge enabled flag, index-aligned with `call_edges`. Disabled
    /// edges propagate no load and record no calls (dependency drift).
    call_enabled: Vec<bool>,
    /// Components currently crashed: they process no load, export no
    /// metrics and issue no calls until brought back online.
    offline: BTreeSet<Name>,
    /// Metrics whose export is suppressed (monitoring-agent dropout).
    disabled_metrics: BTreeSet<MetricId>,
    /// Per-component clock skew applied to recorded timestamps, in
    /// milliseconds (a skewed monitoring agent's wall clock).
    clock_skew_ms: BTreeMap<Name, i64>,
    /// Multiplier on the external workload (load-regime change).
    rate_multiplier: f64,
    request_history: BTreeMap<Name, Vec<f64>>,
    load_history: BTreeMap<Name, Vec<f64>>,
    instances: BTreeMap<Name, usize>,
    reachable: BTreeSet<Name>,
    latency_base_ms: BTreeMap<Name, f64>,
    current_tick: usize,
    total_ticks: usize,
    latency_samples: Vec<f64>,
}

impl Simulation {
    /// Creates a new simulation.
    ///
    /// # Errors
    ///
    /// * Propagates [`AppSpec::validate`] failures.
    /// * [`SimulatorError::InvalidParameter`] when the tick length is zero or
    ///   the duration yields no ticks.
    pub fn new(spec: AppSpec, workload: Workload, config: SimConfig) -> Result<Self> {
        spec.validate()?;
        if config.tick_ms == 0 {
            return Err(SimulatorError::InvalidParameter {
                name: "tick_ms",
                reason: "must be positive".to_string(),
            });
        }
        let total_ticks = config.total_ticks();
        if total_ticks == 0 {
            return Err(SimulatorError::InvalidParameter {
                name: "duration_ms",
                reason: "duration must cover at least one tick".to_string(),
            });
        }

        let mut metric_states = BTreeMap::new();
        let mut instances = BTreeMap::new();
        let mut tracer = Tracer::new();
        for (ci, component) in spec.components().enumerate() {
            let component_name = Name::new(&component.name);
            let states: Vec<(MetricId, MetricState)> = component
                .metrics
                .iter()
                .enumerate()
                .map(|(mi, m)| {
                    (
                        MetricId::new(component_name.clone(), m.name.as_str()),
                        MetricState::new(
                            m.clone(),
                            config
                                .seed
                                .wrapping_add((ci as u64) << 32)
                                .wrapping_add(mi as u64),
                        ),
                    )
                })
                .collect();
            metric_states.insert(component_name.clone(), states);
            instances.insert(component_name.clone(), component.instances.max(1));
            tracer.register_component(component_name);
        }
        let (call_edges, latency_base_ms, reachable) = spec_tables(&spec);

        Ok(Self {
            request_history: metric_states
                .keys()
                .map(|n| (n.clone(), Vec::new()))
                .collect(),
            load_history: metric_states
                .keys()
                .map(|n| (n.clone(), Vec::new()))
                .collect(),
            metric_states,
            call_enabled: vec![true; call_edges.len()],
            call_edges,
            offline: BTreeSet::new(),
            disabled_metrics: BTreeSet::new(),
            clock_skew_ms: BTreeMap::new(),
            rate_multiplier: 1.0,
            instances,
            reachable,
            latency_base_ms,
            spec,
            workload,
            config,
            store: MetricStore::with_retention(config.retention),
            tracer,
            current_tick: 0,
            total_ticks,
            latency_samples: Vec::new(),
        })
    }

    /// The application specification being simulated.
    #[cfg(test)]
    pub(crate) fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// The metric store receiving all samples.
    pub fn store(&self) -> &MetricStore {
        &self.store
    }

    /// The call graph observed so far.
    pub fn call_graph(&self) -> CallGraph {
        self.tracer.call_graph().clone()
    }

    /// Consumes the finished simulation and hands out its recorded data —
    /// the metric store and the observed call graph — without copying
    /// either. This is what the pipeline's loading step uses.
    pub fn into_parts(self) -> (MetricStore, CallGraph) {
        (self.store, self.tracer.into_call_graph())
    }

    /// Current instance count of a component (0 if unknown).
    pub fn instances(&self, component: &str) -> usize {
        self.instances.get(component).copied().unwrap_or(0)
    }

    /// Changes the instance count of a component (autoscaling). Counts are
    /// clamped to at least 1.
    ///
    /// # Errors
    ///
    /// Returns [`SimulatorError::UnknownComponent`] for unknown components.
    pub fn set_instances(&mut self, component: &str, count: usize) -> Result<()> {
        match self.instances.get_mut(component) {
            Some(slot) => {
                *slot = count.max(1);
                Ok(())
            }
            None => Err(SimulatorError::UnknownComponent {
                name: component.to_string(),
            }),
        }
    }

    /// Enables or disables every call edge between `caller` and `callee`
    /// at runtime — the dependency-drift primitive. A disabled edge
    /// propagates no load and records no calls; re-enabling it restores
    /// the original behaviour. Returns the number of edges toggled.
    ///
    /// # Errors
    ///
    /// Returns [`SimulatorError::InvalidSpec`] when no such edge exists.
    pub fn set_call_enabled(&mut self, caller: &str, callee: &str, enabled: bool) -> Result<usize> {
        let mut toggled = 0;
        for (i, (from, to)) in self.call_edges.iter().enumerate() {
            if from == caller && to == callee {
                self.call_enabled[i] = enabled;
                toggled += 1;
            }
        }
        if toggled == 0 {
            return Err(SimulatorError::InvalidSpec {
                reason: format!("call edge `{caller}` -> `{callee}` not found"),
            });
        }
        Ok(toggled)
    }

    /// Crashes a component (`online = false`) or brings it back. While
    /// offline it processes no load, issues and receives no calls, and
    /// exports no metrics; its load histories keep advancing at zero so
    /// tick alignment survives the outage.
    ///
    /// # Errors
    ///
    /// Returns [`SimulatorError::UnknownComponent`] for unknown components.
    pub fn set_component_online(&mut self, component: &str, online: bool) -> Result<()> {
        let name = self.known_component(component)?;
        if online {
            self.offline.remove(&name);
        } else {
            self.offline.insert(name);
        }
        Ok(())
    }

    /// Suppresses (or restores) the export of one metric — a monitoring
    /// agent dropout. While disabled the metric records nothing and its
    /// internal state freezes, so a counter resumes from its last value.
    ///
    /// # Errors
    ///
    /// * [`SimulatorError::UnknownComponent`] for unknown components.
    /// * [`SimulatorError::InvalidSpec`] when the metric does not exist.
    pub fn set_metric_enabled(
        &mut self,
        component: &str,
        metric: &str,
        enabled: bool,
    ) -> Result<()> {
        let name = self.known_component(component)?;
        let id = self
            .metric_states
            .get(&name)
            .and_then(|states| states.iter().find(|(id, _)| id.metric == metric))
            .map(|(id, _)| id.clone())
            .ok_or_else(|| SimulatorError::InvalidSpec {
                reason: format!("metric `{metric}` not found in component `{component}`"),
            })?;
        if enabled {
            self.disabled_metrics.remove(&id);
        } else {
            self.disabled_metrics.insert(id);
        }
        Ok(())
    }

    /// Sets the clock skew of a component's monitoring agent, in
    /// milliseconds. Recorded timestamps are shifted by the skew
    /// (saturating at zero); when a skew is later reduced, the store's
    /// monotone-timestamp rule drops the agent's reports until simulated
    /// time catches up with the previously reported clock — exactly how a
    /// stepped-back NTP clock looks to a monitoring pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`SimulatorError::UnknownComponent`] for unknown components.
    pub fn set_clock_skew_ms(&mut self, component: &str, skew_ms: i64) -> Result<()> {
        let name = self.known_component(component)?;
        if skew_ms == 0 {
            self.clock_skew_ms.remove(&name);
        } else {
            self.clock_skew_ms.insert(name, skew_ms);
        }
        Ok(())
    }

    /// Multiplies the external workload by `multiplier` from the next tick
    /// on (load-regime change). Clamped to be nonnegative; 1.0 restores
    /// the configured workload.
    pub fn set_rate_multiplier(&mut self, multiplier: f64) {
        self.rate_multiplier = if multiplier.is_finite() {
            multiplier.max(0.0)
        } else {
            1.0
        };
    }

    /// Applies a [`FaultScenario`](crate::fault::FaultScenario) to the *running* simulation — the
    /// mid-stream counterpart of building a faulty [`AppSpec`] up front.
    /// Metric states whose specification is unchanged keep their internal
    /// state (counters keep counting); added or behaviour-replaced metrics
    /// get fresh deterministic states seeded from the component and metric
    /// names, so two runs applying the same scenario at the same tick stay
    /// bitwise identical. Call edges, reachability, latency bases and
    /// per-edge enable flags are re-resolved against the faulty spec.
    ///
    /// # Errors
    ///
    /// Propagates the failures of applying the scenario and of
    /// [`AppSpec::validate`]; on error the simulation is unchanged.
    pub fn apply_faults(&mut self, scenario: &crate::fault::FaultScenario) -> Result<()> {
        let new_spec = scenario.applied_to(&self.spec)?;
        new_spec.validate()?;

        for component in new_spec.components() {
            let component_name = Name::new(&component.name);
            let old_states = self
                .metric_states
                .remove(&component_name)
                .unwrap_or_default();
            let mut old_by_name: BTreeMap<&str, &(MetricId, MetricState)> = BTreeMap::new();
            for entry in &old_states {
                old_by_name.insert(entry.0.metric.as_str(), entry);
            }
            let states: Vec<(MetricId, MetricState)> = component
                .metrics
                .iter()
                .map(|m| match old_by_name.get(m.name.as_str()) {
                    Some((id, state)) if state.spec() == m => (id.clone(), (*state).clone()),
                    _ => (
                        MetricId::new(component_name.clone(), m.name.as_str()),
                        MetricState::new(
                            m.clone(),
                            chaos_metric_seed(self.config.seed, &component.name, &m.name),
                        ),
                    ),
                })
                .collect();
            self.metric_states.insert(component_name, states);
        }

        let old_enabled: BTreeMap<(Name, Name), bool> = self
            .call_edges
            .iter()
            .cloned()
            .zip(self.call_enabled.iter().copied())
            .collect();
        (self.call_edges, self.latency_base_ms, self.reachable) = spec_tables(&new_spec);
        self.call_enabled = self
            .call_edges
            .iter()
            .map(|edge| old_enabled.get(edge).copied().unwrap_or(true))
            .collect();
        self.spec = new_spec;
        Ok(())
    }

    fn known_component(&self, component: &str) -> Result<Name> {
        self.metric_states
            .keys()
            .find(|n| n.as_str() == component)
            .cloned()
            .ok_or_else(|| SimulatorError::UnknownComponent {
                name: component.to_string(),
            })
    }

    /// Whether the simulation has processed all ticks.
    pub(crate) fn is_finished(&self) -> bool {
        self.current_tick >= self.total_ticks
    }

    /// End-to-end latency samples recorded so far (one per tick).
    pub fn latency_samples(&self) -> &[f64] {
        &self.latency_samples
    }

    /// Advances the simulation by one tick. Returns `None` once the
    /// configured duration has been simulated.
    pub fn step(&mut self) -> Option<TickSnapshot> {
        self.step_observed(|_, _, _| {})
    }

    /// Like [`Simulation::step`], but invokes `observer` for every metric
    /// point offered to the store — `(id, timestamp_ms, value)`, in record
    /// order. Feeding the observed stream to a fresh [`MetricStore`] (or a
    /// serving layer's ingest path) reproduces this simulation's store
    /// contents exactly, including the points a skewed clock makes the
    /// store drop: the observer sees what the monitoring agent *sent*, the
    /// store decides what survives.
    pub fn step_observed(
        &mut self,
        mut observer: impl FnMut(&MetricId, u64, f64),
    ) -> Option<TickSnapshot> {
        if self.is_finished() {
            return None;
        }
        let tick = self.current_tick;
        let time_ms = (tick as u64 + 1) * self.config.tick_ms;
        let offered = self.workload.rate_at(tick, self.total_ticks) * self.rate_multiplier;

        // 1. Request rates: external load at the entrypoint plus propagated
        //    load from callers at earlier ticks. Disabled edges propagate
        //    nothing; crashed components neither issue nor receive calls.
        let mut rates: BTreeMap<Name, f64> = self
            .request_history
            .keys()
            .map(|n| (n.clone(), 0.0))
            .collect();
        *rates
            .get_mut(self.spec.entrypoint.as_str())
            .expect("validated") += offered;
        for (i, (call, (caller, callee))) in self
            .spec
            .calls()
            .iter()
            .zip(self.call_edges.iter())
            .enumerate()
        {
            if !self.call_enabled[i]
                || self.offline.contains(caller)
                || self.offline.contains(callee)
            {
                continue;
            }
            let lag_ticks = (call.lag_ms / self.config.tick_ms).max(1) as usize;
            if tick < lag_ticks {
                continue;
            }
            let caller_rate = self
                .request_history
                .get(caller)
                .and_then(|h| h.get(tick - lag_ticks))
                .copied()
                .unwrap_or(0.0);
            let propagated = call.fanout * caller_rate;
            if let Some(slot) = rates.get_mut(callee) {
                *slot += propagated;
            }
            // Tracing: record the calls made during this tick.
            self.tracer
                .record(caller, callee, propagated.round() as u64);
        }
        // A crashed component processes nothing, wherever the load came from.
        for component in &self.offline {
            if let Some(slot) = rates.get_mut(component) {
                *slot = 0.0;
            }
        }

        // 2. Per-instance loads and metric sampling. Histories are pushed
        //    for every component every tick (crashed ones at zero) so tick
        //    alignment survives outages; crashed components and disabled
        //    metrics export nothing, and a metric skipped this tick keeps
        //    its internal state (a counter resumes from its last value).
        let mut component_loads = BTreeMap::new();
        for (component, rate) in &rates {
            let instances = self.instances.get(component).copied().unwrap_or(1).max(1);
            let load = rate / instances as f64;
            self.request_history
                .get_mut(component)
                .expect("component registered")
                .push(*rate);
            let history = self
                .load_history
                .get_mut(component)
                .expect("component registered");
            history.push(load);
            component_loads.insert(component.clone(), load);

            if self.offline.contains(component) {
                continue;
            }
            let skew = self.clock_skew_ms.get(component).copied().unwrap_or(0);
            let stamp = if skew >= 0 {
                time_ms.saturating_add(skew as u64)
            } else {
                time_ms.saturating_sub(skew.unsigned_abs())
            };
            let states = self
                .metric_states
                .get_mut(component)
                .expect("component registered");
            for (id, state) in states.iter_mut() {
                if self.disabled_metrics.contains(id) {
                    continue;
                }
                let value = state.sample(tick, history);
                self.store.record(id, stamp, value);
                observer(id, stamp, value);
            }
        }

        // 3. End-to-end latency across all components reachable from the
        //    entrypoint (crashed components fail requests instead of
        //    serving them, so they contribute no latency sample).
        let mut latency = 0.0;
        for component in &self.reachable {
            if self.offline.contains(component) {
                continue;
            }
            let load = component_loads.get(component).copied().unwrap_or(0.0);
            let capacity = self
                .spec
                .component(component)
                .map(|c| c.capacity_per_instance)
                .unwrap_or(100.0);
            // `spec_tables` gives every component of the validated spec a
            // base, and a reachable component is one of them.
            let base = self.latency_base_ms[component];
            let utilisation = load / capacity.max(1e-9);
            latency += base * (1.0 + utilisation * utilisation);
        }
        latency *= SYSDIG_OVERHEAD;
        self.latency_samples.push(latency);

        self.current_tick += 1;
        Some(TickSnapshot {
            tick,
            time_ms,
            offered_load: offered,
            component_loads,
            end_to_end_latency_ms: latency,
        })
    }

    /// Runs the remaining ticks to completion and returns the number of
    /// ticks executed.
    pub fn run_to_completion(&mut self) -> usize {
        let mut executed = 0;
        while self.step().is_some() {
            executed += 1;
        }
        executed
    }

    /// Snapshots the series touched since the last drain and advances the
    /// store's epoch watermark — the streaming counterpart of
    /// [`Simulation::run_to_completion`]: a driver alternates
    /// [`Simulation::step`] calls with `drain_delta` and feeds each delta
    /// to an incremental analysis session.
    pub(crate) fn drain_delta(&self) -> crate::store::StoreDelta {
        self.store.drain_delta()
    }

    /// Advances the simulation by up to `ticks` ticks and drains the
    /// resulting delta in one call — one "observation epoch" of a
    /// streaming monitoring loop. Returns the delta and the number of
    /// ticks actually executed (less than `ticks` at the end of the run).
    pub fn step_epoch(&mut self, ticks: usize) -> (crate::store::StoreDelta, usize) {
        let mut executed = 0;
        while executed < ticks && self.step().is_some() {
            executed += 1;
        }
        (self.drain_delta(), executed)
    }
}

/// Deterministic per-metric seed for states created by a mid-run fault:
/// derived from the simulation seed and the component/metric names (an
/// FNV-style byte fold), so the stream a fault introduces is independent
/// of metric ordering and reproducible across runs.
fn chaos_metric_seed(base: u64, component: &str, metric: &str) -> u64 {
    let mut h = base ^ 0xC3A5_C85C_97CB_3127;
    for b in component
        .bytes()
        .chain(std::iter::once(0xFF))
        .chain(metric.bytes())
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

/// The tables the engine derives from a spec's topology: the interned
/// `(caller, callee)` of each call edge (index-aligned with `spec.calls()`),
/// each component's base processing latency (its exported latency metric's
/// `base_ms`, else [`DEFAULT_LATENCY_BASE_MS`]), and the components
/// reachable from the entrypoint along call edges (the entrypoint included).
type SpecTables = (Vec<(Name, Name)>, BTreeMap<Name, f64>, BTreeSet<Name>);

/// Derives a spec's [`SpecTables`], at construction and after every fault.
fn spec_tables(spec: &AppSpec) -> SpecTables {
    let call_edges = spec
        .calls()
        .iter()
        .map(|c| (Name::new(&c.caller), Name::new(&c.callee)))
        .collect();
    let latency_base_ms = spec
        .components()
        .map(|component| {
            let base = component.metrics.iter().find_map(|m| match &m.behavior {
                MetricBehavior::Latency { base_ms, .. } => Some(*base_ms),
                _ => None,
            });
            let base = base.unwrap_or(DEFAULT_LATENCY_BASE_MS);
            (Name::new(&component.name), base)
        })
        .collect();
    let mut visited: BTreeSet<Name> = BTreeSet::new();
    let mut stack = vec![Name::new(&spec.entrypoint)];
    while let Some(node) = stack.pop() {
        if !visited.insert(node.clone()) {
            continue;
        }
        for call in spec.calls() {
            if call.caller == node && !visited.contains(call.callee.as_str()) {
                stack.push(Name::new(&call.callee));
            }
        }
    }
    (call_edges, latency_base_ms, visited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{CallSpec, ComponentSpec};
    use crate::metrics::{MetricBehavior, MetricSpec};

    fn three_tier_app() -> AppSpec {
        let mut app = AppSpec::new("threetier", "lb");
        app.add_component(
            ComponentSpec::new("lb")
                .with_metric(MetricSpec::gauge(
                    "requests_per_s",
                    MetricBehavior::load_proportional(1.0),
                ))
                .with_metric(MetricSpec::gauge("cpu", MetricBehavior::cpu_like(0.5))),
        );
        app.add_component(
            ComponentSpec::new("web")
                .with_metric(MetricSpec::gauge(
                    "http_latency_ms",
                    MetricBehavior::latency(20.0, 80.0),
                ))
                .with_metric(MetricSpec::gauge("cpu", MetricBehavior::cpu_like(1.0)))
                .with_metric(MetricSpec::gauge(
                    "constant_buffer",
                    MetricBehavior::constant(64.0),
                )),
        );
        app.add_component(
            ComponentSpec::new("db")
                .with_metric(MetricSpec::gauge(
                    "queries_per_s",
                    MetricBehavior::load_proportional(3.0),
                ))
                .with_metric(MetricSpec::counter(
                    "bytes_written_total",
                    MetricBehavior::counter(10.0),
                )),
        );
        app.add_call(CallSpec::new("lb", "web").with_lag_ms(500));
        app.add_call(CallSpec::new("web", "db").with_fanout(2.0).with_lag_ms(500));
        app
    }

    fn run_sim(workload: Workload, duration_ms: u64, seed: u64) -> Simulation {
        let config = SimConfig::new(seed).with_duration_ms(duration_ms);
        let mut sim = Simulation::new(three_tier_app(), workload, config).unwrap();
        sim.run_to_completion();
        sim
    }

    #[test]
    fn records_every_metric_for_every_tick() {
        let sim = run_sim(Workload::constant(30.0), 30_000, 1);
        let store = sim.store();
        assert_eq!(store.series_count(), 7);
        let id = MetricId::new("web", "cpu");
        assert_eq!(store.series(&id).unwrap().len(), 60);
    }

    #[test]
    fn call_graph_matches_the_topology() {
        let sim = run_sim(Workload::constant(30.0), 20_000, 2);
        let g = sim.call_graph();
        assert!(g.callees("lb").iter().any(|c| c == "web"));
        assert!(g.callees("web").iter().any(|c| c == "db"));
        assert!(!g.callees("db").iter().any(|c| c == "web"));
        assert_eq!(g.component_count(), 3);
        let calls = |from: &str, to: &str| {
            (g.edges()
                .find(|&(caller, callee, _)| caller == from && callee == to))
            .map_or(0, |(_, _, calls)| calls)
        };
        assert!(
            calls("web", "db") > calls("lb", "web"),
            "fanout 2 doubles calls"
        );
    }

    #[test]
    fn load_propagates_downstream_with_lag() {
        // A spike starting at tick 10 must reach the db (two hops, one tick
        // lag each) around tick 12, not earlier.
        let workload = Workload::spike(0.0, 100.0, 10, 40);
        let sim = run_sim(workload, 30_000, 3);
        let db_series = sim
            .store()
            .series(&MetricId::new("db", "queries_per_s"))
            .unwrap();
        let values = db_series.values();
        assert!(
            values[..11].iter().all(|&v| v < 10.0),
            "no load before the spike propagates"
        );
        assert!(
            values[13] > 100.0,
            "db sees the fanned-out spike after two lag ticks"
        );
    }

    #[test]
    fn latency_increases_under_overload() {
        let light = run_sim(Workload::constant(5.0), 30_000, 4);
        let heavy = run_sim(Workload::constant(500.0), 30_000, 4);
        let light_p90 = sieve_timeseries::percentile(light.latency_samples(), 90.0).unwrap();
        let heavy_p90 = sieve_timeseries::percentile(heavy.latency_samples(), 90.0).unwrap();
        assert!(
            heavy_p90 > 3.0 * light_p90,
            "p90 {heavy_p90} vs {light_p90}"
        );
    }

    #[test]
    fn adding_instances_reduces_latency() {
        let config = SimConfig::new(5).with_duration_ms(30_000);
        let mut scaled =
            Simulation::new(three_tier_app(), Workload::constant(300.0), config).unwrap();
        scaled.set_instances("web", 8).unwrap();
        scaled.set_instances("db", 8).unwrap();
        scaled.run_to_completion();
        let unscaled = run_sim(Workload::constant(300.0), 30_000, 5);
        let scaled_mean: f64 =
            scaled.latency_samples().iter().sum::<f64>() / scaled.latency_samples().len() as f64;
        let unscaled_mean: f64 = unscaled.latency_samples().iter().sum::<f64>()
            / unscaled.latency_samples().len() as f64;
        assert!(scaled_mean < unscaled_mean);
        assert_eq!(scaled.instances("web"), 8);
        let total: usize = ["lb", "web", "db"]
            .iter()
            .map(|c| scaled.instances(c))
            .sum();
        assert_eq!(total, 17);
    }

    #[test]
    fn modelled_latency_carries_the_sysdig_factor_bit_for_bit() {
        // One component, no latency metric (so the 10 ms base), capacity
        // 80 per instance, offered 30 requests per tick.
        let mut app = AppSpec::new("solo", "solo");
        app.add_component(
            ComponentSpec::new("solo")
                .with_capacity(80.0)
                .with_metric(MetricSpec::gauge("cpu", MetricBehavior::cpu_like(1.0))),
        );
        let config = SimConfig::new(3).with_duration_ms(5_000);
        let mut sim = Simulation::new(app, Workload::constant(30.0), config).unwrap();
        let u: f64 = 30.0 / 80.0;
        let expected = 10.0 * (1.0 + u * u) * 1.22;
        while let Some(snap) = sim.step() {
            assert_eq!(snap.end_to_end_latency_ms.to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn set_instances_rejects_unknown_component_and_clamps_to_one() {
        let config = SimConfig::new(6).with_duration_ms(10_000);
        let mut sim = Simulation::new(three_tier_app(), Workload::constant(1.0), config).unwrap();
        assert!(sim.set_instances("nope", 3).is_err());
        sim.set_instances("web", 0).unwrap();
        assert_eq!(sim.instances("web"), 1);
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let a = run_sim(Workload::randomized(40.0, 9), 20_000, 77);
        let b = run_sim(Workload::randomized(40.0, 9), 20_000, 77);
        let id = MetricId::new("db", "queries_per_s");
        assert_eq!(
            a.store().series(&id).unwrap(),
            b.store().series(&id).unwrap()
        );
        // A different seed changes the noise.
        let c = run_sim(Workload::randomized(40.0, 9), 20_000, 78);
        assert_ne!(
            a.store().series(&id).unwrap(),
            c.store().series(&id).unwrap()
        );
    }

    #[test]
    fn step_reports_snapshots_until_finished() {
        let config = SimConfig::new(1).with_duration_ms(5_000);
        let mut sim = Simulation::new(three_tier_app(), Workload::constant(10.0), config).unwrap();
        let mut count = 0;
        while let Some(snap) = sim.step() {
            assert_eq!(snap.tick, count);
            assert!(snap.end_to_end_latency_ms > 0.0);
            assert_eq!(snap.component_loads.len(), 3);
            count += 1;
        }
        assert_eq!(count, 10);
        assert!(sim.is_finished());
        assert!(sim.step().is_none());
    }

    #[test]
    fn step_epoch_streams_deltas_matching_a_batch_run() {
        // Streaming mode: alternating step/drain must record exactly the
        // same store content as one uninterrupted run.
        let config = SimConfig::new(21).with_duration_ms(20_000);
        let mut streamed =
            Simulation::new(three_tier_app(), Workload::randomized(30.0, 2), config).unwrap();
        let mut epochs = 0;
        loop {
            let (delta, executed) = streamed.step_epoch(7);
            if executed == 0 {
                assert!(delta.is_empty());
                break;
            }
            epochs += 1;
            assert_eq!(delta.epoch, epochs);
            // Every tick touches every metric, so each non-final epoch
            // reports all seven series.
            assert_eq!(delta.touched.len(), 7);
            assert_eq!(delta.touched_components().len(), 3);
        }
        assert_eq!(epochs, 6, "40 ticks in epochs of 7");

        let batch = run_sim(Workload::randomized(30.0, 2), 20_000, 21);
        let id = MetricId::new("db", "queries_per_s");
        assert_eq!(
            streamed.store().series(&id).unwrap(),
            batch.store().series(&id).unwrap()
        );
        assert_eq!(
            streamed.store().fingerprint(&id),
            batch.store().fingerprint(&id)
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let app = three_tier_app();
        assert!(Simulation::new(
            app.clone(),
            Workload::constant(1.0),
            SimConfig::new(1).with_tick_ms(0)
        )
        .is_err());
        assert!(Simulation::new(
            app,
            Workload::constant(1.0),
            SimConfig::new(1).with_duration_ms(0)
        )
        .is_err());
    }

    #[test]
    fn windowed_simulation_bounds_retained_points() {
        let config = SimConfig::new(9)
            .with_duration_ms(60_000)
            .with_retention(RetentionPolicy::windowed(20));
        let mut sim = Simulation::new(three_tier_app(), Workload::constant(25.0), config).unwrap();
        sim.run_to_completion();
        let store = sim.store();
        assert_eq!(store.point_count(), 120 * 7, "every tick still recorded");
        assert_eq!(store.retained_point_count(), 20 * 7);
        let series = store.series(&MetricId::new("web", "cpu")).unwrap();
        assert_eq!(series.len(), 20);
        // The retained window is the exact tail of an unbounded run.
        let oracle = run_sim(Workload::constant(25.0), 60_000, 9);
        let full = oracle.store().series(&MetricId::new("web", "cpu")).unwrap();
        assert_eq!(series.timestamps(), &full.timestamps()[100..]);
        assert_eq!(series.values(), &full.values()[100..]);
    }

    #[test]
    fn disabling_a_call_edge_starves_the_downstream_component() {
        let config = SimConfig::new(31).with_duration_ms(30_000);
        let mut sim = Simulation::new(three_tier_app(), Workload::constant(50.0), config).unwrap();
        for _ in 0..20 {
            sim.step();
        }
        assert_eq!(sim.set_call_enabled("web", "db", false).unwrap(), 1);
        sim.run_to_completion();
        let db = sim
            .store()
            .series(&MetricId::new("db", "queries_per_s"))
            .unwrap();
        let values = db.values();
        assert!(values[15] > 100.0, "db loaded before the edge went down");
        assert!(
            values[25..].iter().all(|&v| v < 10.0),
            "no load after the edge went down"
        );
        assert!(sim.set_call_enabled("db", "lb", false).is_err());
    }

    #[test]
    fn crashed_component_exports_nothing_until_restored() {
        let config = SimConfig::new(32).with_duration_ms(30_000);
        let mut sim = Simulation::new(three_tier_app(), Workload::constant(50.0), config).unwrap();
        for _ in 0..20 {
            sim.step();
        }
        sim.set_component_online("web", false).unwrap();
        for _ in 0..20 {
            sim.step();
        }
        sim.set_component_online("web", true).unwrap();
        sim.run_to_completion();
        let web = sim.store().series(&MetricId::new("web", "cpu")).unwrap();
        // 60 ticks total, 20 of them down: only 40 samples recorded.
        assert_eq!(web.len(), 40);
        // Downstream load collapses while the middle tier is dead: the db
        // receives nothing once in-flight lag drains.
        let db = sim
            .store()
            .series(&MetricId::new("db", "queries_per_s"))
            .unwrap();
        let during_outage: Vec<f64> = db
            .timestamps()
            .iter()
            .zip(db.values())
            .filter(|(&ts, _)| (12_000..20_000).contains(&ts))
            .map(|(_, &v)| v)
            .collect();
        assert!(!during_outage.is_empty());
        assert!(during_outage.iter().all(|&v| v < 10.0));
        assert!(sim.set_component_online("nope", false).is_err());
    }

    #[test]
    fn disabled_metric_drops_out_and_resumes() {
        let config = SimConfig::new(33).with_duration_ms(30_000);
        let mut sim = Simulation::new(three_tier_app(), Workload::constant(20.0), config).unwrap();
        for _ in 0..10 {
            sim.step();
        }
        sim.set_metric_enabled("db", "bytes_written_total", false)
            .unwrap();
        for _ in 0..30 {
            sim.step();
        }
        sim.set_metric_enabled("db", "bytes_written_total", true)
            .unwrap();
        sim.run_to_completion();
        let series = sim
            .store()
            .series(&MetricId::new("db", "bytes_written_total"))
            .unwrap();
        assert_eq!(series.len(), 30, "30 of 60 ticks exported");
        // The counter froze during the dropout instead of jumping.
        let values = series.values();
        assert!(values.windows(2).all(|w| w[1] >= w[0]), "still monotone");
        // Sibling metric is unaffected.
        let sibling = sim
            .store()
            .series(&MetricId::new("db", "queries_per_s"))
            .unwrap();
        assert_eq!(sibling.len(), 60);
        assert!(sim.set_metric_enabled("db", "nope", false).is_err());
        assert!(sim.set_metric_enabled("nope", "x", false).is_err());
    }

    #[test]
    fn clock_skew_shifts_stamps_and_skew_reversal_drops_points() {
        let config = SimConfig::new(34).with_duration_ms(30_000);
        let mut sim = Simulation::new(three_tier_app(), Workload::constant(20.0), config).unwrap();
        sim.set_clock_skew_ms("web", 5_000).unwrap();
        for _ in 0..20 {
            sim.step();
        }
        // The agent's clock steps back to true time: its next reports are
        // older than what it already reported and get dropped until
        // simulated time passes the old skewed watermark.
        sim.set_clock_skew_ms("web", 0).unwrap();
        sim.run_to_completion();
        let web = sim.store().series(&MetricId::new("web", "cpu")).unwrap();
        // Ticks 1..=20 recorded at +5s; ticks 21..30 (10.5s..15s) are below
        // the 15s watermark and dropped; ticks 31..60 advance again.
        assert_eq!(web.len(), 20 + 30);
        assert_eq!(web.timestamps()[0], 5_500);
        assert_eq!(web.timestamps()[19], 15_000);
        assert_eq!(web.timestamps()[20], 15_500);
        // Unskewed components are untouched.
        let lb = sim
            .store()
            .series(&MetricId::new("lb", "requests_per_s"))
            .unwrap();
        assert_eq!(lb.len(), 60);
        assert!(sim.set_clock_skew_ms("nope", 1).is_err());
    }

    #[test]
    fn rate_multiplier_changes_the_load_regime() {
        let config = SimConfig::new(35).with_duration_ms(30_000);
        let mut sim = Simulation::new(three_tier_app(), Workload::constant(40.0), config).unwrap();
        for _ in 0..30 {
            sim.step();
        }
        sim.set_rate_multiplier(3.0);
        assert_eq!(sim.rate_multiplier, 3.0);
        sim.run_to_completion();
        let lb = sim
            .store()
            .series(&MetricId::new("lb", "requests_per_s"))
            .unwrap();
        let before = lb.values()[..30].iter().sum::<f64>() / 30.0;
        let after = lb.values()[30..].iter().sum::<f64>() / 30.0;
        assert!(
            (after / before - 3.0).abs() < 0.2,
            "regime shift visible at the entrypoint: {before} -> {after}"
        );
        sim.set_rate_multiplier(f64::NAN);
        assert_eq!(sim.rate_multiplier, 1.0);
        sim.set_rate_multiplier(-2.0);
        assert_eq!(sim.rate_multiplier, 0.0);
    }

    #[test]
    fn apply_faults_mid_run_swaps_metrics_and_stays_deterministic() {
        use crate::fault::{Fault, FaultScenario};
        let scenario = FaultScenario::new("agent-crash")
            .with_fault(Fault::RemoveMetric {
                component: "db".into(),
                metric: "queries_per_s".into(),
            })
            .with_fault(Fault::AddMetric {
                component: "db".into(),
                metric: MetricSpec::gauge("queries_failed", MetricBehavior::load_proportional(2.0)),
            });
        let run = |seed: u64| {
            let config = SimConfig::new(seed).with_duration_ms(30_000);
            let mut sim =
                Simulation::new(three_tier_app(), Workload::constant(30.0), config).unwrap();
            for _ in 0..30 {
                sim.step();
            }
            sim.apply_faults(&scenario).unwrap();
            sim.run_to_completion();
            sim
        };
        let sim = run(41);
        let removed = sim
            .store()
            .series(&MetricId::new("db", "queries_per_s"))
            .unwrap();
        assert_eq!(removed.len(), 30, "removed metric stops mid-run");
        let added = sim
            .store()
            .series(&MetricId::new("db", "queries_failed"))
            .unwrap();
        assert_eq!(added.len(), 30, "added metric starts mid-run");
        // The surviving counter kept its internal state across the fault.
        let counter = sim
            .store()
            .series(&MetricId::new("db", "bytes_written_total"))
            .unwrap();
        assert_eq!(counter.len(), 60);
        assert!(counter.values().windows(2).all(|w| w[1] >= w[0]));
        // Bitwise deterministic across identical chaos runs.
        let again = run(41);
        for id in [
            MetricId::new("db", "queries_failed"),
            MetricId::new("db", "bytes_written_total"),
            MetricId::new("web", "cpu"),
        ] {
            assert_eq!(sim.store().series(&id), again.store().series(&id));
        }
        // Unknown references fail without corrupting the simulation.
        let mut sim = run(42);
        let bad = FaultScenario::new("bad").with_fault(Fault::RemoveMetric {
            component: "nope".into(),
            metric: "x".into(),
        });
        assert!(sim.apply_faults(&bad).is_err());
        assert_eq!(sim.spec().component_count(), 3);
    }

    #[test]
    fn observed_stream_reproduces_the_store() {
        let config = SimConfig::new(36).with_duration_ms(20_000);
        let mut sim =
            Simulation::new(three_tier_app(), Workload::randomized(30.0, 4), config).unwrap();
        sim.set_clock_skew_ms("web", 2_000).unwrap();
        let mut observed: Vec<(MetricId, u64, f64)> = Vec::new();
        let mut skew_dropped = false;
        let mut tick = 0;
        loop {
            if tick == 15 {
                sim.set_clock_skew_ms("web", 0).unwrap();
                skew_dropped = true;
            }
            let stepped = sim
                .step_observed(|id, ts, v| observed.push((id.clone(), ts, v)))
                .is_some();
            if !stepped {
                break;
            }
            tick += 1;
        }
        assert!(skew_dropped);
        // Replaying the observed stream into a fresh store reproduces the
        // simulation's store exactly — including the skew-reverted points
        // both stores drop by the same monotone-timestamp rule.
        let replay = MetricStore::new();
        for (id, ts, v) in &observed {
            replay.record(id, *ts, *v);
        }
        assert!(
            observed.len() as u64 > replay.point_count(),
            "some points dropped"
        );
        for id in sim.store().export().into_keys() {
            assert_eq!(sim.store().series(&id), replay.series(&id));
        }
    }

    #[test]
    fn constant_metric_stays_constant_under_load() {
        let sim = run_sim(Workload::randomized(80.0, 11), 30_000, 8);
        let series = sim
            .store()
            .series(&MetricId::new("web", "constant_buffer"))
            .unwrap();
        assert!(series.values().iter().all(|&v| v == 64.0));
    }
}
