//! Benchmark of the epoch-based incremental analysis path: an
//! [`AnalysisSession`] absorbing a one-component delta against a full
//! batch re-analysis of the same store — plus the full-model equality
//! sweep (streamed == batch == `oracle::analyze` at parallelism 1/4/8).
//!
//! Run with: `cargo bench -p sieve-bench --bench incremental`
//!
//! `SIEVE_BENCH_SMOKE=1` (used by CI) shrinks the workload and skips the
//! wall-clock assertion while keeping every model-equality assertion.

use sieve_apps::{sharelatex, MetricRichness};
use sieve_bench::harness::{smoke_mode, Runner};
use sieve_bench::ledger::Ledger;
use sieve_core::config::SieveConfig;
use sieve_core::oracle;
use sieve_core::pipeline::{load_application, Sieve};
use sieve_core::session::AnalysisSession;
use sieve_simulator::engine::{SimConfig, Simulation};
use sieve_simulator::store::MetricStore;
use sieve_simulator::workload::Workload;
use std::hint::black_box;

/// Appends one tick of synthetic points to every metric of `component`,
/// so exactly that component is dirty in the next delta.
fn touch_component(store: &MetricStore, component: &str, round: u64) {
    let mut writes = Vec::new();
    store.for_each_series_of(component, |id, series| {
        let last = series.end_ms().unwrap_or(0);
        let value = *series.values().last().unwrap_or(&0.0);
        writes.push((id.clone(), last + 500, value + (round % 7) as f64));
    });
    for (id, t, v) in writes {
        store.record(&id, t, v);
    }
}

/// Streams the deterministic simulation into a session epoch by epoch and
/// returns the final model.
fn stream_model(
    config: &SieveConfig,
    duration_ms: u64,
    epoch_ticks: usize,
) -> sieve_core::model::SieveModel {
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let sim_config = SimConfig::new(5)
        .with_tick_ms(500)
        .with_duration_ms(duration_ms);
    let mut sim = Simulation::new(app, Workload::randomized(70.0, 3), sim_config).unwrap();
    let mut session = AnalysisSession::new(
        "sharelatex",
        sim.store().clone(),
        sim.call_graph(),
        config.clone(),
    )
    .unwrap();
    let mut model = None;
    loop {
        let (delta, executed) = sim.step_epoch(epoch_ticks);
        if executed == 0 {
            break;
        }
        session.set_call_graph(sim.call_graph());
        model = Some(session.update_shared(&delta).unwrap());
    }
    (*model.expect("at least one epoch ran")).clone()
}

fn main() {
    let mut runner = Runner::new();
    let equality_duration = if smoke_mode() { 20_000 } else { 60_000 };

    // Full-`SieveModel` equality sweep: neither streaming nor the executor
    // degree may change a bit of the output. One store, one oracle model;
    // every streamed and every batch model must equal it.
    let (store, call_graph) = load_application(
        &sharelatex::app_spec(MetricRichness::Minimal),
        &Workload::randomized(70.0, 3),
        5,
        equality_duration,
        500,
    )
    .unwrap();
    let reference =
        oracle::analyze("sharelatex", &store, &call_graph, &SieveConfig::default()).unwrap();
    assert!(
        reference.dependency_graph.edge_count() > 0,
        "the workload must produce dependency edges"
    );
    for parallelism in [1usize, 4, 8] {
        let config = SieveConfig::default().with_parallelism(parallelism);
        let streamed = stream_model(&config, equality_duration, 40);
        let batch = Sieve::new(config)
            .analyze("sharelatex", &store, &call_graph)
            .unwrap();
        assert_eq!(
            streamed, reference,
            "streamed model must equal the oracle (parallelism {parallelism})"
        );
        assert_eq!(
            batch, reference,
            "batch model must equal the oracle (parallelism {parallelism})"
        );
    }
    println!("incremental: 3/3 streamed==batch==oracle equality checks passed");

    // Timed comparison: one dirty component out of 15 vs a full batch
    // re-analysis. parallelism = 1 so the win is purely the dirty-tracking
    // reuse, not threads.
    let duration = if smoke_mode() { 30_000 } else { 120_000 };
    let config = SieveConfig::default().with_parallelism(1);
    let (store, call_graph) = load_application(
        &sharelatex::app_spec(MetricRichness::Minimal),
        &Workload::randomized(70.0, 3),
        5,
        duration,
        500,
    )
    .unwrap();
    let components = store.components();
    assert!(
        components.len() >= 6,
        "the speedup scenario needs at least 6 components, got {}",
        components.len()
    );
    let sieve = Sieve::new(config.clone());
    let mut session = AnalysisSession::new(
        "sharelatex",
        store.clone(),
        call_graph.clone(),
        config.clone(),
    )
    .unwrap();
    store.drain_delta();
    let full = session.refresh().unwrap();

    // `web` sits in the middle of the ShareLatex call graph, so its delta
    // re-tests real comparisons, not a leaf's empty set.
    let dirty_component = "web";
    let mut round = 0u64;
    let iters = if smoke_mode() { 1 } else { 5 };
    runner.bench("incremental/one-dirty-update", iters, || {
        round += 1;
        touch_component(&store, dirty_component, round);
        let delta = store.drain_delta();
        black_box(session.update_shared(black_box(&delta)).unwrap())
    });
    let stats = session.last_stats();
    println!(
        "incremental: last update re-prepared {}/{} components, re-clustered {}, \
         re-tested {}/{} comparisons",
        stats.components_prepared,
        stats.components_total,
        stats.components_reclustered,
        stats.comparisons_tested,
        stats.comparisons_planned
    );
    assert_eq!(stats.components_prepared, 1, "exactly one component dirty");

    runner.bench("incremental/batch-reanalysis", iters, || {
        black_box(
            sieve
                .analyze("sharelatex", black_box(&store), &call_graph)
                .unwrap(),
        )
    });

    // The incremental model keeps matching a from-scratch analysis of the
    // store including every appended point.
    let final_model = session.update_shared(&store.drain_delta()).unwrap();
    let batch_model = sieve.analyze("sharelatex", &store, &call_graph).unwrap();
    assert_eq!(*final_model, batch_model, "incremental state never drifts");
    assert_eq!(full.application, "sharelatex");

    let update = runner
        .measurement("incremental/one-dirty-update")
        .unwrap()
        .min();
    let batch = runner
        .measurement("incremental/batch-reanalysis")
        .unwrap()
        .min();
    let speedup = batch.as_secs_f64() / update.as_secs_f64().max(1e-12);
    println!(
        "incremental: one-dirty-of-{} update speedup over batch (best of {iters}): \
         {speedup:.2}x (batch {batch:.3?}, update {update:.3?})",
        components.len()
    );
    if smoke_mode() {
        println!("incremental: smoke mode — wall-clock assertion skipped");
    } else {
        assert!(
            speedup >= 2.0,
            "a one-dirty-component update must be at least 2x faster than a \
             full re-analysis, got {speedup:.2}x"
        );
    }

    let ledger = Ledger::new("incremental");
    ledger.record_all(
        runner.measurements(),
        "sharelatex minimal, one dirty component of 15, parallelism=1",
    );
    println!("incremental: {}", ledger.outcome());
}
