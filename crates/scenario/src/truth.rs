//! Ground truth: the answer sheet a scenario run is scored against.

use sieve_exec::Name;
use sieve_simulator::store::MetricId;
use std::collections::{BTreeMap, BTreeSet};

/// The true state of the world during one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTruth {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Scripted-active call edges (`caller -> callee`), independent of
    /// crashes — drift scoring grades tracking of *these* flips.
    pub active_edges: BTreeSet<(Name, Name)>,
    /// Components offline (crashed) during the epoch.
    pub offline: BTreeSet<Name>,
    /// Metrics whose exporter is down during the epoch.
    pub dropped_metrics: BTreeSet<MetricId>,
    /// Per-component monitoring-clock skew in milliseconds.
    pub clock_skew_ms: BTreeMap<Name, i64>,
    /// Workload multiplier in force (1.0 = nominal regime).
    pub regime_multiplier: f64,
    /// Whether the injected fault is active during this epoch.
    pub fault_active: bool,
}

/// One scripted dependency flip, derived from consecutive epoch truths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeFlip {
    /// Epoch at whose start the flip happened.
    pub epoch: usize,
    /// Calling component.
    pub caller: Name,
    /// Called component.
    pub callee: Name,
    /// `true` if the edge appeared, `false` if it disappeared.
    pub up: bool,
}

/// The complete answer sheet of one seeded run.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// Scenario name.
    pub scenario: String,
    /// The run seed.
    pub seed: u64,
    /// The true root-cause component, if the script injects a fault.
    pub root_cause: Option<Name>,
    /// Epoch at whose start the fault was injected.
    pub fault_epoch: Option<usize>,
    /// True number of behaviourally distinct metric families per component.
    pub true_cluster_counts: BTreeMap<Name, usize>,
    /// Per-epoch truth, one entry per epoch in order.
    pub epochs: Vec<EpochTruth>,
}

impl GroundTruth {
    /// The scripted edge flips: differences between consecutive epochs'
    /// `active_edges` sets (the initial epoch-0 state is not a flip).
    pub(crate) fn edge_flips(&self) -> Vec<EdgeFlip> {
        let mut flips = Vec::new();
        for window in self.epochs.windows(2) {
            let (prev, next) = (&window[0], &window[1]);
            for edge in next.active_edges.difference(&prev.active_edges) {
                flips.push(EdgeFlip {
                    epoch: next.epoch,
                    caller: edge.0.clone(),
                    callee: edge.1.clone(),
                    up: true,
                });
            }
            for edge in prev.active_edges.difference(&next.active_edges) {
                flips.push(EdgeFlip {
                    epoch: next.epoch,
                    caller: edge.0.clone(),
                    callee: edge.1.clone(),
                    up: false,
                });
            }
        }
        flips
    }

    /// The truth for one epoch, if in range.
    #[cfg(test)]
    pub(crate) fn epoch(&self, epoch: usize) -> Option<&EpochTruth> {
        self.epochs.get(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(epoch: usize, edges: &[(&str, &str)]) -> EpochTruth {
        EpochTruth {
            epoch,
            active_edges: edges
                .iter()
                .map(|(a, b)| (Name::from(*a), Name::from(*b)))
                .collect(),
            offline: BTreeSet::new(),
            dropped_metrics: BTreeSet::new(),
            clock_skew_ms: BTreeMap::new(),
            regime_multiplier: 1.0,
            fault_active: false,
        }
    }

    #[test]
    fn edge_flips_are_derived_from_consecutive_epochs() {
        let truth = GroundTruth {
            scenario: "t".to_string(),
            seed: 1,
            root_cause: None,
            fault_epoch: None,
            true_cluster_counts: BTreeMap::new(),
            epochs: vec![
                epoch(0, &[("a", "b")]),
                epoch(1, &[("a", "b"), ("b", "c")]),
                epoch(2, &[("b", "c")]),
                epoch(3, &[("b", "c")]),
            ],
        };
        let flips = truth.edge_flips();
        assert_eq!(flips.len(), 2);
        assert_eq!(
            flips[0],
            EdgeFlip {
                epoch: 1,
                caller: Name::from("b"),
                callee: Name::from("c"),
                up: true,
            }
        );
        assert_eq!(
            flips[1],
            EdgeFlip {
                epoch: 2,
                caller: Name::from("a"),
                callee: Name::from("b"),
                up: false,
            }
        );
        assert!(truth.epoch(3).is_some());
        assert!(truth.epoch(4).is_none());
    }
}
