//! Chaos/scenario engine: adversarial workloads with ground-truth scoring.
//!
//! The paper evaluates Sieve on live systems where the "right answer" —
//! which component misbehaved, which dependencies are real, how many
//! behaviourally distinct metric groups a component has — is only known
//! anecdotally. This crate turns that around: a seeded discrete-event
//! scenario engine drives the `sieve-simulator` substrate through scripted
//! adversity (Poisson/M-M-c bursty arrivals, diurnal load curves, component
//! crashes, metric dropout, clock skew, load-regime changes, and dependency
//! edges that appear and disappear at scripted epochs) and emits **both**
//! the observable metric stream *and* the ground truth it was generated
//! from. Scoring harnesses then grade the pipeline's answers against that
//! truth:
//!
//! * [`score_rca`] — is the injected root cause ranked in the top-k
//!   of the five-step RCA comparison?
//! * [`score_drift`] — does an incremental [`sieve_core::AnalysisSession`]
//!   track every scripted edge flip within a bounded number of epochs?
//! * [`score_autoscale`] — does the autoscaling engine react to each
//!   scripted burst within a bounded tick lag?
//! * [`score_clusters`] — how close is the chosen `k` to the true
//!   per-component family count?
//!
//! The `matrix` module ([`scenario_matrix`]) names a small catalogue of scenarios (steady
//! diurnal, Poisson regime change, edge drift, root cause, dropout+skew,
//! kitchen sink) that the regression suite runs across seeds, asserting
//! score thresholds plus streamed==batch and parallelism-invariance
//! equalities. Everything is deterministic from `(spec, seed)` — same seed,
//! bitwise-identical stream and truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]

mod engine;
mod matrix;
mod runner;
mod score;
mod spec;
mod truth;

mod error;

pub use engine::{generate, EpochData, ScenarioData};
pub use error::ScenarioError;
pub use matrix::{
    edge_drift, root_cause, scenario_matrix, smoke_matrix, steady_diurnal, ScenarioCase,
    DRIFT_WINDOW_EPOCHS, RCA_TOP_K,
};
pub use runner::{run_autoscale, run_batch, run_served, run_streamed};
pub use score::{
    score_autoscale, score_clusters, score_drift, score_rca, AutoscaleScore, ClusterScore,
    DriftOutcome, DriftScore, RcaScore,
};
pub use spec::{ScenarioAction, ScenarioSpec, ScriptedEvent, WorkloadPlan};
pub use truth::{EdgeFlip, EpochTruth, GroundTruth};

/// Convenient result alias for scenario operations.
pub type Result<T> = std::result::Result<T, ScenarioError>;
