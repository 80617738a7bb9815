//! Benchmark of the multi-tenant serving layer: a sharded
//! [`SieveService`] hosting a fleet of tenants, its dirty-sweep cost when
//! one tenant of sixteen changed, and the cross-tenant equality matrix
//! (served models == per-tenant batch analysis, across sweep parallelism
//! 1/4/8).
//!
//! Run with: `cargo bench -p sieve-bench --bench serve`
//!
//! `SIEVE_BENCH_SMOKE=1` (used by CI) shrinks the fleet and skips the
//! wall-clock assertion while keeping every model-equality assertion. The
//! wall-clock assertion additionally requires a multi-core host (the sweep
//! speedup at parallelism 8 is meaningless on one core).

use sieve_apps::tenants::{tenant_fleet, TenantMix, TenantWorkload};
use sieve_bench::harness::{smoke_mode, Runner};
use sieve_bench::ledger::Ledger;
use sieve_core::config::SieveConfig;
use sieve_core::model::SieveModel;
use sieve_core::pipeline::Sieve;
use sieve_exec::par_map_chunks;
use sieve_serve::{MetricPoint, ServeConfig, SieveService};
use sieve_simulator::engine::{SimConfig, Simulation};
use sieve_simulator::store::MetricStore;
use std::hint::black_box;

const FLEET_SEED: u64 = 0x5EEDBEEF;

/// Per-tenant analysis configuration: serial inside a tenant so the sweep
/// fan-out is the only parallelism under measurement.
fn analysis_config() -> SieveConfig {
    SieveConfig::default()
        .with_cluster_range(2, 3)
        .with_parallelism(1)
}

/// Runs each tenant's simulation to completion and returns the recorded
/// `(store, call_graph)` pairs, index-aligned with the fleet.
fn record_fleet(
    fleet: &[TenantWorkload],
    duration_ms: u64,
) -> Vec<(MetricStore, sieve_graph::CallGraph)> {
    fleet
        .iter()
        .map(|tenant| {
            let config = SimConfig::new(tenant.seed)
                .with_tick_ms(500)
                .with_duration_ms(duration_ms);
            let mut sim =
                Simulation::new(tenant.spec.clone(), tenant.workload.clone(), config).unwrap();
            sim.run_to_completion();
            sim.into_parts()
        })
        .collect()
}

/// Builds a service over freshly recorded copies of the fleet (each
/// service must own its stores' delta streams, so stores are re-recorded
/// per service — simulations are deterministic, so every copy is
/// bit-identical).
fn build_service(
    fleet: &[TenantWorkload],
    recordings: Vec<(MetricStore, sieve_graph::CallGraph)>,
    sweep_parallelism: usize,
) -> SieveService {
    let service = SieveService::new(
        ServeConfig::default()
            .with_shard_count(16)
            .with_sweep_parallelism(sweep_parallelism)
            .with_analysis(analysis_config()),
    )
    .unwrap();
    for (tenant, (store, graph)) in fleet.iter().zip(recordings) {
        service.adopt_tenant(&tenant.name, store, graph).unwrap();
    }
    service
}

/// Appends one synthetic tick to every series of one tenant, so exactly
/// that tenant is dirty in the next sweep.
fn touch_tenant(store: &MetricStore, round: u64) {
    let mut writes = Vec::new();
    for component in store.components() {
        store.for_each_series_of(component.as_str(), |id, series| {
            let last = series.end_ms().unwrap_or(0);
            let value = *series.values().last().unwrap_or(&0.0);
            writes.push(MetricPoint {
                id: id.clone(),
                timestamp_ms: last + 500,
                value: value + (round % 5) as f64,
            });
        });
    }
    for point in writes {
        store.record(&point.id, point.timestamp_ms, point.value);
    }
}

fn main() {
    let mut runner = Runner::new();
    let tenant_count = if smoke_mode() { 4 } else { 16 };
    let duration_ms = if smoke_mode() { 20_000 } else { 60_000 };
    let fleet = tenant_fleet(TenantMix::ManySmall, tenant_count, FLEET_SEED);

    // Cross-tenant equality matrix: for every sweep parallelism degree the
    // service must publish, per tenant, exactly the model a from-scratch
    // per-tenant batch analysis produces — and all degrees must agree with
    // each other bit for bit.
    let sieve = Sieve::new(analysis_config());
    let batch_reference: Vec<SieveModel> = record_fleet(&fleet, duration_ms)
        .into_iter()
        .zip(&fleet)
        .map(|((store, graph), tenant)| sieve.analyze(&tenant.name, &store, &graph).unwrap())
        .collect();
    assert!(
        batch_reference
            .iter()
            .any(|m| m.dependency_graph.edge_count() > 0),
        "the fleet must produce dependency edges"
    );
    for sweep_parallelism in [1usize, 4, 8] {
        let service = build_service(&fleet, record_fleet(&fleet, duration_ms), sweep_parallelism);
        let stats = service.refresh_dirty().unwrap();
        assert_eq!(stats.tenants_refreshed, fleet.len(), "first sweep sees all");
        for (tenant, reference) in fleet.iter().zip(&batch_reference) {
            let served = service.model(&tenant.name).unwrap().unwrap();
            assert_eq!(
                *served, *reference,
                "tenant {} at sweep parallelism {sweep_parallelism} must match \
                 per-tenant batch analysis",
                tenant.name
            );
        }
    }
    println!(
        "serve: {} tenants x sweep parallelism {{1,4,8}}: served==batch equality passed",
        fleet.len()
    );

    // Timed comparison at sweep parallelism 8: one dirty tenant of N
    // (refresh_dirty) vs batch-analysing the whole fleet with the same
    // 8-way fan-out — the cost a model consumer would pay without the
    // serving layer's dirty tracking.
    let recordings = record_fleet(&fleet, duration_ms);
    let graphs: Vec<sieve_graph::CallGraph> =
        recordings.iter().map(|(_, graph)| graph.clone()).collect();
    let service = build_service(&fleet, recordings, 8);
    service.refresh_dirty().unwrap();
    let dirty_tenant = &fleet[fleet.len() / 2];
    let dirty_store = service.store(&dirty_tenant.name).unwrap();

    let iters = if smoke_mode() { 1 } else { 5 };
    let mut round = 0u64;
    runner.bench("serve/one-dirty-tenant-sweep-p8", iters, || {
        round += 1;
        touch_tenant(&dirty_store, round);
        black_box(service.refresh_dirty().unwrap())
    });
    let swept = service.stats();
    assert_eq!(swept.tenants_total, fleet.len());
    assert_eq!(
        service.last_stats(&dirty_tenant.name).unwrap().epoch,
        service.store(&dirty_tenant.name).unwrap().epoch(),
        "the dirty tenant's session is current"
    );

    // Baseline: batch re-analysis of every tenant through the same
    // executor at the same fan-out. The stores are the service's own live
    // handles (clones share data), so the baseline analyses exactly the
    // data the sweep analysed; the call graphs were kept from the same
    // recording the service adopted.
    let tenant_inputs: Vec<(String, MetricStore, sieve_graph::CallGraph)> = fleet
        .iter()
        .zip(graphs)
        .map(|(tenant, graph)| {
            (
                tenant.name.clone(),
                service.store(&tenant.name).unwrap(),
                graph,
            )
        })
        .collect();
    runner.bench("serve/batch-analyze-fleet-p8", iters, || {
        let models = par_map_chunks(8, &tenant_inputs, |(name, store, graph)| {
            sieve.analyze(name, store, graph).unwrap()
        });
        black_box(models.len())
    });

    // The sweep's published models still match batch analysis of the
    // touched stores.
    for (name, store, graph) in &tenant_inputs {
        let served = service.model(name).unwrap().unwrap();
        let batch = sieve.analyze(name, store, graph).unwrap();
        assert_eq!(*served, batch, "tenant {name} drifted after touch rounds");
    }

    let sweep = runner
        .measurement("serve/one-dirty-tenant-sweep-p8")
        .unwrap()
        .min();
    let batch = runner
        .measurement("serve/batch-analyze-fleet-p8")
        .unwrap()
        .min();
    let speedup = batch.as_secs_f64() / sweep.as_secs_f64().max(1e-12);
    println!(
        "serve: 1-dirty-of-{} sweep speedup over fleet batch analysis (best of {iters}): \
         {speedup:.2}x (batch {batch:.3?}, sweep {sweep:.3?})",
        fleet.len()
    );
    if smoke_mode() {
        println!("serve: smoke mode — wall-clock assertion skipped");
    } else if sieve_exec::par::hardware_parallelism() > 1 {
        assert!(
            speedup >= 2.0,
            "a one-dirty-tenant sweep must be at least 2x faster than \
             batch-analysing the fleet, got {speedup:.2}x"
        );
    } else {
        println!(
            "serve: single-core host — wall-clock assertion enforced \
             on multi-core hosts only"
        );
    }

    let ledger = Ledger::new("serve");
    ledger.record_all(
        runner.measurements(),
        "many-small tenant fleet, sweep parallelism=8",
    );
    println!("serve: {}", ledger.outcome());
}
