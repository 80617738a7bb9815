//! Scenario runners: feed a generated stream through the pipeline's three
//! ingestion paths.
//!
//! * [`run_streamed`] — an incremental [`AnalysisSession`] over a shared
//!   windowed store, one delta per epoch (the serving layer's machinery,
//!   driven directly);
//! * [`run_served`] — the full multi-tenant [`SieveService`] front door
//!   (ingest → per-epoch call-graph swap → sweep);
//! * [`run_batch`] — a from-scratch [`Sieve`] analysis over the final
//!   retained window, the determinism oracle the streamed paths must match.
//!
//! [`run_autoscale`] additionally replays the scenario's workload under the
//! autoscaling engine with a rule calibrated from a scenario model.

use crate::engine::ScenarioData;
use crate::spec::ScenarioSpec;
use crate::{Result, ScenarioError};
use sieve_autoscale::{
    calibrated_rule, select_guiding_metric, AutoscaleEngine, AutoscalingReport, SlaCondition,
};
use sieve_core::{AnalysisSession, Sieve, SieveConfig, SieveModel};
use sieve_serve::{ServeConfig, SieveService};
use sieve_simulator::store::MetricStore;
use sieve_simulator::SimConfig;
use std::sync::Arc;

/// Runs the scenario through an incremental [`AnalysisSession`]: one
/// drained delta and one model per epoch, with the scripted call graph
/// swapped in at each epoch boundary.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn run_streamed(data: &ScenarioData, config: &SieveConfig) -> Result<Vec<Arc<SieveModel>>> {
    let store = MetricStore::with_retention(data.retention);
    let first_graph = data
        .epochs
        .first()
        .ok_or_else(|| ScenarioError::invalid("scenario has no epochs"))?
        .call_graph
        .clone();
    let mut session = AnalysisSession::new(&data.name, store.clone(), first_graph, config.clone())?;
    let mut models = Vec::with_capacity(data.epochs.len());
    for epoch in &data.epochs {
        store.record_batch(
            epoch
                .points
                .iter()
                .map(|p| (&p.id, p.timestamp_ms, p.value)),
        );
        session.set_call_graph(epoch.call_graph.clone());
        let delta = store.drain_delta();
        models.push(session.update_shared(&delta)?);
    }
    Ok(models)
}

/// Runs the scenario through the serving front door: a single tenant on a
/// [`SieveService`], one ingest + call-graph swap + full sweep per epoch.
///
/// The service's analysis config (and therefore parallelism and retention
/// defaults) comes from `config`; the tenant's retention is pinned to the
/// scenario's window so the served run sees the same data as
/// [`run_streamed`].
///
/// # Errors
///
/// Propagates serving-layer errors; fails if a sweep publishes no model.
pub fn run_served(data: &ScenarioData, config: ServeConfig) -> Result<Vec<Arc<SieveModel>>> {
    let service = SieveService::new(config)?;
    let first_graph = data
        .epochs
        .first()
        .ok_or_else(|| ScenarioError::invalid("scenario has no epochs"))?
        .call_graph
        .clone();
    service.create_tenant_with_retention(&data.name, first_graph, data.retention)?;
    let mut models = Vec::with_capacity(data.epochs.len());
    for epoch in &data.epochs {
        service.ingest(&data.name, &epoch.points)?;
        service.set_call_graph(&data.name, epoch.call_graph.clone())?;
        service.refresh_all()?;
        let model = service
            .model(&data.name)?
            .ok_or_else(|| ScenarioError::invalid("sweep published no model"))?;
        models.push(model);
    }
    Ok(models)
}

/// Runs a from-scratch batch analysis over the scenario's full stream
/// (under the same windowed retention) with the final epoch's call graph —
/// the oracle the final streamed model must equal.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn run_batch(data: &ScenarioData, config: &SieveConfig) -> Result<SieveModel> {
    let store = MetricStore::with_retention(data.retention);
    store.record_batch(data.all_points().map(|p| (&p.id, p.timestamp_ms, p.value)));
    let model = Sieve::new(config.clone()).analyze(&data.name, &store, data.final_call_graph())?;
    Ok(model)
}

/// Replays the scenario's workload under the autoscaling engine, with a
/// scaling rule whose guiding metric is selected from `model` (the most
/// connected metric of the dependency graph, §4.1) and whose thresholds
/// are calibrated against the given peak rate.
///
/// # Errors
///
/// Fails if the model's dependency graph is empty (no guiding metric) or
/// the simulator rejects the run.
pub fn run_autoscale(
    spec: &ScenarioSpec,
    model: &SieveModel,
    targets: Vec<String>,
    peak_rate: f64,
    seed: u64,
) -> Result<AutoscalingReport> {
    let guiding = select_guiding_metric(model).ok_or_else(|| {
        ScenarioError::invalid("the model has no dependency edges to select a guiding metric from")
    })?;
    let sla = SlaCondition {
        percentile: 90.0,
        threshold_ms: 1000.0,
    };
    let rule = calibrated_rule(&spec.app, &guiding, &sla, peak_rate, targets, seed)?
        .with_instance_bounds(1, 12)
        .with_cooldown_ticks(8);
    let engine = AutoscaleEngine::new(rule, sla)?;
    let workload = spec.workload.instantiate(spec.total_ticks(), seed);
    let config = SimConfig::new(seed)
        .with_tick_ms(spec.tick_ms)
        .with_duration_ms(spec.duration_ms());
    Ok(engine.run(&spec.app, &workload, config)?)
}
