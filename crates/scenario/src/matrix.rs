//! The named scenario catalogue and the regression matrix built from it.
//!
//! Each scenario is a [`ScenarioSpec`] over the chaos application
//! ([`sieve_apps::chaos_app`]) plus the seeds it is run with and the score
//! thresholds it is graded against. [`scenario_matrix`] is the full
//! regression matrix; [`smoke_matrix`] is the one-seed CI subset.

use crate::spec::{ScenarioAction, ScenarioSpec, ScriptedEvent, WorkloadPlan};
use sieve_apps::{chaos_app, root_cause_fault, MetricRichness, DB, SVC_A, SVC_B, WORKER};
use sieve_simulator::Burst;

/// Epochs per scenario run.
pub(crate) const EPOCHS: usize = 8;
/// Simulation ticks per epoch.
pub(crate) const TICKS_PER_EPOCH: usize = 24;
/// Milliseconds per tick.
pub(crate) const TICK_MS: u64 = 500;
/// Ring-window retention in epochs.
pub(crate) const WINDOW_EPOCHS: usize = 2;
/// Top-k bound for the RCA score: the injected root cause must rank in
/// the top 3.
pub const RCA_TOP_K: usize = 3;
/// Drift bound: every scripted edge flip must be tracked within 3 epochs.
pub const DRIFT_WINDOW_EPOCHS: usize = 3;
/// Autoscale bound: a scale-out within 40 ticks of each scripted burst.
pub(crate) const AUTOSCALE_MAX_LAG_TICKS: usize = 40;

/// One named scenario plus its seeds and grading thresholds.
#[derive(Debug, Clone)]
pub struct ScenarioCase {
    /// The scenario script.
    pub spec: ScenarioSpec,
    /// Seeds the full matrix runs the scenario with.
    pub seeds: Vec<u64>,
    /// Whether the scenario belongs to the CI smoke subset.
    pub smoke: bool,
    /// Top-k bound for [`crate::score::score_rca`].
    pub rca_top_k: usize,
    /// Epoch bound for [`crate::score::score_drift`].
    pub drift_window_epochs: usize,
    /// Tick bound for [`crate::score::score_autoscale`], if the scenario
    /// scripts bursts.
    pub autoscale_max_lag_ticks: Option<usize>,
}

fn base_spec(
    name: &str,
    workload: WorkloadPlan,
    initially_inactive: Vec<(String, String)>,
    events: Vec<ScriptedEvent>,
) -> ScenarioSpec {
    let chaos = chaos_app(MetricRichness::Minimal);
    ScenarioSpec {
        name: name.to_string(),
        app: chaos.spec,
        true_cluster_counts: chaos.true_cluster_counts,
        workload,
        epochs: EPOCHS,
        ticks_per_epoch: TICKS_PER_EPOCH,
        tick_ms: TICK_MS,
        window_epochs: WINDOW_EPOCHS,
        initially_inactive,
        events,
    }
}

fn oscillating() -> WorkloadPlan {
    WorkloadPlan::Oscillating {
        base: 40.0,
        amplitude: 14.0,
        period_ticks: 16,
        noise: 0.2,
    }
}

fn edge(caller: &str, callee: &str) -> (String, String) {
    (caller.to_string(), callee.to_string())
}

/// A well-behaved diurnal baseline: no faults, no drift — the control run
/// every equality and clustering assertion must hold on.
pub fn steady_diurnal() -> ScenarioSpec {
    base_spec("steady-diurnal", oscillating(), Vec::new(), Vec::new())
}

/// Bursty Poisson arrivals with a mid-run load-regime change (the offered
/// rate nearly doubles at epoch 4).
pub(crate) fn poisson_regime() -> ScenarioSpec {
    base_spec(
        "poisson-regime",
        WorkloadPlan::Poisson {
            lambda_per_tick: 40.0,
        },
        Vec::new(),
        vec![ScriptedEvent::at(
            4,
            ScenarioAction::RegimeChange { multiplier: 1.8 },
        )],
    )
}

/// Dependency drift: the `svc-b -> worker` edge appears at epoch 2, the
/// `svc-a -> worker` edge disappears at epoch 5 — the incremental session
/// must track both flips within [`DRIFT_WINDOW_EPOCHS`].
pub fn edge_drift() -> ScenarioSpec {
    base_spec(
        "edge-drift",
        oscillating(),
        vec![edge(SVC_B, WORKER)],
        vec![
            ScriptedEvent::at(
                2,
                ScenarioAction::EdgeUp {
                    caller: SVC_B.to_string(),
                    callee: WORKER.to_string(),
                },
            ),
            ScriptedEvent::at(
                5,
                ScenarioAction::EdgeDown {
                    caller: SVC_A.to_string(),
                    callee: WORKER.to_string(),
                },
            ),
        ],
    )
}

/// Root-cause injection: at epoch 5 `svc-a`'s `req_rate` exporter dies, a
/// `req_errors` gauge appears and its capacity halves — the RCA comparison
/// must rank `svc-a` in the top [`RCA_TOP_K`].
pub fn root_cause() -> ScenarioSpec {
    base_spec(
        "root-cause",
        oscillating(),
        Vec::new(),
        vec![ScriptedEvent::at(
            5,
            ScenarioAction::InjectFault {
                component: SVC_A.to_string(),
                fault: root_cause_fault(SVC_A),
            },
        )],
    )
}

/// Monitoring adversity on the leaf worker: a metric exporter dies, the
/// component's clock skews ahead by 3 s, then both revert (the skew
/// reversal makes the store drop reports until time catches up). Nothing
/// is scored beyond the run completing with the equality invariants —
/// the faults target a component off every scored path.
pub(crate) fn dropout_skew() -> ScenarioSpec {
    base_spec(
        "dropout-skew",
        oscillating(),
        Vec::new(),
        vec![
            ScriptedEvent::at(
                2,
                ScenarioAction::DropMetric {
                    component: WORKER.to_string(),
                    metric: "io_ops".to_string(),
                },
            ),
            ScriptedEvent::at(
                3,
                ScenarioAction::ClockSkew {
                    component: WORKER.to_string(),
                    skew_ms: 3_000,
                },
            ),
            ScriptedEvent::at(
                5,
                ScenarioAction::ClockSkew {
                    component: WORKER.to_string(),
                    skew_ms: 0,
                },
            ),
            ScriptedEvent::at(
                6,
                ScenarioAction::RestoreMetric {
                    component: WORKER.to_string(),
                    metric: "io_ops".to_string(),
                },
            ),
        ],
    )
}

/// Everything at once: Poisson arrivals, an edge disappearing, a regime
/// change, a root-cause fault on `svc-b` and a crash+restore of the
/// datastore — RCA and drift must both survive the noise.
pub(crate) fn kitchen_sink() -> ScenarioSpec {
    base_spec(
        "kitchen-sink",
        WorkloadPlan::Poisson {
            lambda_per_tick: 40.0,
        },
        Vec::new(),
        vec![
            ScriptedEvent::at(
                2,
                ScenarioAction::EdgeDown {
                    caller: SVC_A.to_string(),
                    callee: WORKER.to_string(),
                },
            ),
            ScriptedEvent::at(3, ScenarioAction::RegimeChange { multiplier: 1.5 }),
            ScriptedEvent::at(
                4,
                ScenarioAction::InjectFault {
                    component: SVC_B.to_string(),
                    fault: root_cause_fault(SVC_B),
                },
            ),
            ScriptedEvent::at(
                6,
                ScenarioAction::Crash {
                    component: DB.to_string(),
                },
            ),
            ScriptedEvent::at(
                7,
                ScenarioAction::Restore {
                    component: DB.to_string(),
                },
            ),
        ],
    )
}

/// A diurnal curve with one scripted load burst — the autoscaling ground
/// truth: the engine must scale out within
/// [`AUTOSCALE_MAX_LAG_TICKS`] of the burst's onset.
pub(crate) fn burst_autoscale() -> ScenarioSpec {
    base_spec(
        "burst-autoscale",
        WorkloadPlan::DiurnalBursts {
            base: 30.0,
            relative_amplitude: 0.25,
            period_ticks: 48,
            bursts: vec![Burst::new(60, 36, 110.0)],
        },
        Vec::new(),
        Vec::new(),
    )
}

fn case(
    spec: ScenarioSpec,
    seeds: Vec<u64>,
    smoke: bool,
    autoscale_max_lag_ticks: Option<usize>,
) -> ScenarioCase {
    ScenarioCase {
        spec,
        seeds,
        smoke,
        rca_top_k: RCA_TOP_K,
        drift_window_epochs: DRIFT_WINDOW_EPOCHS,
        autoscale_max_lag_ticks,
    }
}

/// The full regression matrix: every named scenario with its seeds.
pub fn scenario_matrix() -> Vec<ScenarioCase> {
    vec![
        case(steady_diurnal(), vec![11, 12], true, None),
        case(poisson_regime(), vec![21, 22], false, None),
        case(edge_drift(), vec![31, 32, 33], true, None),
        case(root_cause(), vec![41, 42, 43], true, None),
        case(dropout_skew(), vec![51, 52], false, None),
        case(kitchen_sink(), vec![61, 62], false, None),
        case(
            burst_autoscale(),
            vec![71],
            false,
            Some(AUTOSCALE_MAX_LAG_TICKS),
        ),
    ]
}

/// The CI smoke subset: the smoke-tagged scenarios, first seed only.
pub fn smoke_matrix() -> Vec<ScenarioCase> {
    scenario_matrix()
        .into_iter()
        .filter(|c| c.smoke)
        .map(|mut c| {
            c.seeds.truncate(1);
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cataloged_scenario_validates() {
        let matrix = scenario_matrix();
        assert!(matrix.len() >= 6);
        for case in &matrix {
            case.spec
                .validate()
                .unwrap_or_else(|e| panic!("{} invalid: {e}", case.spec.name));
            assert!(!case.seeds.is_empty());
        }
        let mut names: Vec<&str> = matrix.iter().map(|c| c.spec.name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "scenario names must be unique");
    }

    #[test]
    fn smoke_subset_is_a_one_seed_projection_of_the_matrix() {
        let smoke = smoke_matrix();
        assert!(!smoke.is_empty());
        assert!(smoke.len() < scenario_matrix().len());
        let full: Vec<String> = scenario_matrix()
            .iter()
            .map(|c| c.spec.name.clone())
            .collect();
        for case in &smoke {
            assert_eq!(case.seeds.len(), 1);
            assert!(full.contains(&case.spec.name));
        }
    }

    #[test]
    fn scored_scenarios_script_what_their_scores_need() {
        assert!(root_cause().root_cause().is_some());
        assert!(kitchen_sink().root_cause().is_some());
        assert!(steady_diurnal().root_cause().is_none());
        assert_eq!(burst_autoscale().bursts().len(), 1);
        assert!(edge_drift().bursts().is_empty());
    }
}
