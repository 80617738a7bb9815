//! The scenario generator: a seeded discrete-event run of the simulator
//! under a scripted adversarial timeline.
//!
//! [`generate`] drives one [`Simulation`] for `epochs * ticks_per_epoch`
//! ticks, applying scripted actions at epoch boundaries and recording the
//! *offered* metric stream through
//! [`Simulation::step_observed`] — the same stream any store (windowed,
//! durable, sharded) would see, so every downstream consumer can replay it
//! bit-identically. Alongside the stream it assembles the per-epoch
//! [`CallGraph`] handed to the analysis and the [`GroundTruth`] answer
//! sheet the scores grade against.

use crate::spec::{ScenarioAction, ScenarioSpec};
use crate::truth::{EpochTruth, GroundTruth};
use crate::Result;
use sieve_exec::Name;
use sieve_graph::CallGraph;
use sieve_serve::MetricPoint;
use sieve_simulator::engine::{SimConfig, Simulation};
use sieve_simulator::store::{MetricId, RetentionPolicy};
use std::collections::{BTreeMap, BTreeSet};

/// Everything one analysis epoch consumes, plus its slice of the truth.
#[derive(Debug, Clone)]
pub struct EpochData {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// The metric points offered to monitoring during the epoch, in
    /// emission order.
    pub points: Vec<MetricPoint>,
    /// The call graph in force during the epoch (scripted-active edges
    /// between online components).
    pub call_graph: CallGraph,
    /// The true state of the world during the epoch.
    pub truth: EpochTruth,
}

/// A complete generated scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioData {
    /// Scenario (and tenant/application) name.
    pub name: String,
    /// The run seed.
    pub seed: u64,
    /// Milliseconds per tick.
    pub tick_ms: u64,
    /// Ticks per epoch.
    pub ticks_per_epoch: usize,
    /// The retention policy the scenario was designed for.
    pub retention: RetentionPolicy,
    /// Per-epoch data in order.
    pub epochs: Vec<EpochData>,
    /// The answer sheet.
    pub truth: GroundTruth,
}

impl ScenarioData {
    /// All metric points across epochs, in emission order.
    pub fn all_points(&self) -> impl Iterator<Item = &MetricPoint> {
        self.epochs.iter().flat_map(|e| e.points.iter())
    }

    /// Total number of offered points.
    pub fn point_count(&self) -> usize {
        self.epochs.iter().map(|e| e.points.len()).sum()
    }

    /// The call graph of the final epoch.
    pub fn final_call_graph(&self) -> &CallGraph {
        &self
            .epochs
            .last()
            .expect("a validated scenario has at least one epoch")
            .call_graph
    }

    /// An order-sensitive FNV-style fingerprint of the full metric stream
    /// (series identity, timestamps and exact value bits) plus each
    /// epoch's call-graph edges — two runs with equal fingerprints offered
    /// bitwise-identical data to monitoring.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for epoch in &self.epochs {
            for p in &epoch.points {
                eat(p.id.component.as_str().as_bytes());
                eat(&[0xfe]);
                eat(p.id.metric.as_str().as_bytes());
                eat(&p.timestamp_ms.to_le_bytes());
                eat(&p.value.to_bits().to_le_bytes());
            }
            for (from, to, count) in epoch.call_graph.edges() {
                eat(from.as_str().as_bytes());
                eat(&[0xfd]);
                eat(to.as_str().as_bytes());
                eat(&count.to_le_bytes());
            }
        }
        h
    }
}

/// Generates one seeded scenario run: the metric stream, the per-epoch
/// call graphs and the ground truth.
///
/// # Errors
///
/// Returns an error when the spec does not validate or a scripted action
/// is rejected by the simulator.
pub fn generate(spec: &ScenarioSpec, seed: u64) -> Result<ScenarioData> {
    spec.validate()?;
    let workload = spec.workload.instantiate(spec.total_ticks(), seed);
    let sim_config = SimConfig::new(seed)
        .with_tick_ms(spec.tick_ms)
        .with_duration_ms(spec.duration_ms());
    let mut sim = Simulation::new(spec.app.clone(), workload, sim_config)?;

    // Scripted edge state, keyed by (caller, callee).
    let mut edge_enabled: BTreeMap<(String, String), bool> = spec
        .app
        .calls()
        .iter()
        .map(|c| ((c.caller.clone(), c.callee.clone()), true))
        .collect();
    for (caller, callee) in &spec.initially_inactive {
        edge_enabled.insert((caller.clone(), callee.clone()), false);
        sim.set_call_enabled(caller, callee, false)?;
    }

    let mut offline: BTreeSet<String> = BTreeSet::new();
    let mut dropped: BTreeSet<(String, String)> = BTreeSet::new();
    let mut skew: BTreeMap<String, i64> = BTreeMap::new();
    let mut regime = 1.0_f64;
    let mut root_cause: Option<Name> = None;
    let mut fault_epoch: Option<usize> = None;
    let mut fault_active = false;

    let mut epochs = Vec::with_capacity(spec.epochs);
    for epoch in 0..spec.epochs {
        for action in spec.events_at(epoch) {
            match action {
                ScenarioAction::EdgeUp { caller, callee } => {
                    sim.set_call_enabled(caller, callee, true)?;
                    edge_enabled.insert((caller.clone(), callee.clone()), true);
                }
                ScenarioAction::EdgeDown { caller, callee } => {
                    sim.set_call_enabled(caller, callee, false)?;
                    edge_enabled.insert((caller.clone(), callee.clone()), false);
                }
                ScenarioAction::Crash { component } => {
                    sim.set_component_online(component, false)?;
                    offline.insert(component.clone());
                }
                ScenarioAction::Restore { component } => {
                    sim.set_component_online(component, true)?;
                    offline.remove(component);
                }
                ScenarioAction::DropMetric { component, metric } => {
                    sim.set_metric_enabled(component, metric, false)?;
                    dropped.insert((component.clone(), metric.clone()));
                }
                ScenarioAction::RestoreMetric { component, metric } => {
                    sim.set_metric_enabled(component, metric, true)?;
                    dropped.remove(&(component.clone(), metric.clone()));
                }
                ScenarioAction::ClockSkew { component, skew_ms } => {
                    sim.set_clock_skew_ms(component, *skew_ms)?;
                    if *skew_ms == 0 {
                        skew.remove(component);
                    } else {
                        skew.insert(component.clone(), *skew_ms);
                    }
                }
                ScenarioAction::RegimeChange { multiplier } => {
                    sim.set_rate_multiplier(*multiplier);
                    regime = *multiplier;
                }
                ScenarioAction::InjectFault { component, fault } => {
                    sim.apply_faults(fault)?;
                    if root_cause.is_none() {
                        root_cause = Some(Name::from(component.as_str()));
                        fault_epoch = Some(epoch);
                    }
                    fault_active = true;
                }
            }
        }

        let mut points = Vec::new();
        for _ in 0..spec.ticks_per_epoch {
            sim.step_observed(|id, timestamp_ms, value| {
                points.push(MetricPoint {
                    id: id.clone(),
                    timestamp_ms,
                    value,
                });
            });
        }

        let mut call_graph = CallGraph::new();
        for name in spec.app.component_names() {
            call_graph.add_component(name);
        }
        for ((caller, callee), enabled) in &edge_enabled {
            if *enabled && !offline.contains(caller) && !offline.contains(callee) {
                call_graph.record_calls(
                    caller.as_str(),
                    callee.as_str(),
                    spec.ticks_per_epoch as u64,
                );
            }
        }

        let truth = EpochTruth {
            epoch,
            active_edges: edge_enabled
                .iter()
                .filter(|(_, &enabled)| enabled)
                .map(|((caller, callee), _)| {
                    (Name::from(caller.as_str()), Name::from(callee.as_str()))
                })
                .collect(),
            offline: offline.iter().map(|c| Name::from(c.as_str())).collect(),
            dropped_metrics: dropped
                .iter()
                .map(|(c, m)| MetricId::new(c.as_str(), m.as_str()))
                .collect(),
            clock_skew_ms: skew
                .iter()
                .map(|(c, &s)| (Name::from(c.as_str()), s))
                .collect(),
            regime_multiplier: regime,
            fault_active,
        };

        epochs.push(EpochData {
            epoch,
            points,
            call_graph,
            truth,
        });
    }

    let truth = GroundTruth {
        scenario: spec.name.clone(),
        seed,
        root_cause,
        fault_epoch,
        true_cluster_counts: spec
            .true_cluster_counts
            .iter()
            .map(|(c, &k)| (Name::from(c.as_str()), k))
            .collect(),
        epochs: epochs.iter().map(|e| e.truth.clone()).collect(),
    };

    Ok(ScenarioData {
        name: spec.name.clone(),
        seed,
        tick_ms: spec.tick_ms,
        ticks_per_epoch: spec.ticks_per_epoch,
        retention: spec.retention(),
        epochs,
        truth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ScriptedEvent, WorkloadPlan};
    use sieve_apps::chaos::{chaos_app, SVC_A, SVC_B, WORKER};
    use sieve_apps::MetricRichness;

    fn drift_spec() -> ScenarioSpec {
        let chaos = chaos_app(MetricRichness::Minimal);
        ScenarioSpec {
            name: "engine-test".to_string(),
            app: chaos.spec,
            true_cluster_counts: chaos.true_cluster_counts,
            workload: WorkloadPlan::Oscillating {
                base: 40.0,
                amplitude: 14.0,
                period_ticks: 12,
                noise: 0.2,
            },
            epochs: 4,
            ticks_per_epoch: 6,
            tick_ms: 500,
            window_epochs: 2,
            initially_inactive: vec![(SVC_B.to_string(), WORKER.to_string())],
            events: vec![
                ScriptedEvent::at(
                    1,
                    ScenarioAction::EdgeUp {
                        caller: SVC_B.to_string(),
                        callee: WORKER.to_string(),
                    },
                ),
                ScriptedEvent::at(
                    2,
                    ScenarioAction::Crash {
                        component: WORKER.to_string(),
                    },
                ),
                ScriptedEvent::at(
                    3,
                    ScenarioAction::Restore {
                        component: WORKER.to_string(),
                    },
                ),
            ],
        }
    }

    #[test]
    fn generate_reflects_the_script_in_graphs_and_truth() {
        let data = generate(&drift_spec(), 42).unwrap();
        assert_eq!(data.epochs.len(), 4);
        // Epoch 0: drift edge inactive; epoch 1: active.
        assert!(!data.epochs[0]
            .call_graph
            .callees(SVC_B)
            .iter()
            .any(|c| c == WORKER));
        assert!(data.epochs[1]
            .call_graph
            .callees(SVC_B)
            .iter()
            .any(|c| c == WORKER));
        // Epoch 2: worker crashed — its edges leave the call graph, but the
        // scripted edge state (the drift truth) still lists it as active.
        assert!(!data.epochs[2]
            .call_graph
            .callees(SVC_B)
            .iter()
            .any(|c| c == WORKER));
        assert!(!data.epochs[2]
            .call_graph
            .callees(SVC_A)
            .iter()
            .any(|c| c == WORKER));
        let key = (Name::from(SVC_B), Name::from(WORKER));
        assert!(data.epochs[2].truth.active_edges.contains(&key));
        assert!(data.epochs[2].truth.offline.contains(&Name::from(WORKER)));
        // Epoch 3: restored.
        assert!(data.epochs[3]
            .call_graph
            .callees(SVC_B)
            .iter()
            .any(|c| c == WORKER));
        assert!(data.epochs[3].truth.offline.is_empty());
        // The crashed epoch offers no worker points.
        assert!(data.epochs[2]
            .points
            .iter()
            .all(|p| p.id.component != WORKER));
        assert!(data.epochs[3]
            .points
            .iter()
            .any(|p| p.id.component == WORKER));
        // The single scripted flip is derived from the truth.
        let flips = data.truth.edge_flips();
        assert_eq!(flips.len(), 1);
        assert!(flips[0].up);
        assert_eq!(flips[0].epoch, 1);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = drift_spec();
        let a = generate(&spec, 7).unwrap();
        let b = generate(&spec, 7).unwrap();
        let c = generate(&spec, 8).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.truth, b.truth);
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(a.point_count() > 0);
        assert_eq!(a.point_count(), a.all_points().count());
    }
}
