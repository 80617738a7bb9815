//! Case study 1: orchestration of autoscaling (§4.1 and §6.2 of the paper).
//!
//! Sieve's dependency graph tells the operator *which metric to scale on*:
//! the metric that appears most often in Granger-causality relations between
//! components (`http-requests_Project_id_GET_mean` for ShareLatex) instead
//! of the traditional CPU-usage trigger. This crate implements the three
//! ingredients of the case study:
//!
//! * [`ScalingRule`] — scaling rules (guiding metric, scale-in/out thresholds,
//!   ±1-instance actions) and their synthesis from a [`sieve_core::SieveModel`];
//! * [`calibrate_thresholds`] — iterative threshold refinement against an SLA
//!   condition ("90% of all request latencies below 1000 ms") using a short
//!   peak-load sample, mirroring §4.1 step 3;
//! * [`AutoscaleEngine`] — the runtime engine that streams metric values from the
//!   simulation (the reproduction's Kapacitor stand-in), applies the rule
//!   with a cooldown and records the quantities reported in Table 4: mean
//!   CPU usage per component, SLA violations and number of scaling actions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]

mod calibrate;
mod engine;
mod rules;

pub use calibrate::{calibrate_thresholds, calibrated_rule, CalibratedThresholds};
pub use engine::{run_without_scaling, AutoscaleEngine, AutoscalingReport, ScalingAction};
pub use rules::{select_guiding_metric, ScalingRule, SlaCondition};
