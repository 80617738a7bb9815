//! Bounded-memory fleet: a long-running multi-tenant monitoring loop whose
//! memory footprint stays flat no matter how long it runs.
//!
//! Every store in the pipeline carries a [`RetentionPolicy`]: the
//! per-tenant simulations keep only a short ring of recent points (the
//! collector side), and the serving layer keeps a one-minute analysis
//! window per tenant (the server side). An evicted point is forgotten, and
//! every eviction is *dirt* — it advances the series fingerprint and marks
//! the series touched, so the next `refresh_dirty()` sweep re-analyses
//! exactly the series whose retained window changed.
//!
//! Each observation round advances every simulation one epoch
//! ([`Simulation::step_epoch`]), forwards the new tail points of the
//! touched series through the service's ingest API, and runs one sweep.
//! The per-sweep report shows the two invariants this example exists to
//! demonstrate: the fleet's retained-point count pins to
//! `series x window` and stays there, and process RSS stops growing once
//! every ring is full — while the evicted counter climbs without bound.
//! Once every window is full, the example asserts the first and the last:
//! the retained count stays the same from round to round, and the evicted
//! count grows every round.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example bounded_memory_fleet
//! ```

use sieve::apps::tenants::{tenant_fleet, TenantMix};
use sieve::exec::mem::current_rss_kb;
use sieve::prelude::*;
use sieve::serve::MetricPoint;

/// Points each tenant's analysis window retains per series (1 min @ 500 ms).
const SERVE_WINDOW: usize = 120;
/// Points each simulation's collector-side ring retains per series — only
/// enough to cover the tail forwarded since the previous sweep.
const SIM_WINDOW: usize = 64;
/// Simulation ticks advanced per observation round (10 s @ 500 ms).
const TICKS_PER_ROUND: usize = 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fleet = tenant_fleet(TenantMix::ManySmall, 12, 0xB0D1E5);
    let service = SieveService::new(
        ServeConfig::default()
            .with_shard_count(16)
            .with_analysis(SieveConfig::default().with_cluster_range(2, 3))
            .with_retention(RetentionPolicy::windowed(SERVE_WINDOW)),
    )?;

    // Register the fleet. The first tenant gets a deliberately tighter
    // budget than the service default, to show per-tenant overrides.
    let mut simulations = Vec::new();
    for (i, tenant) in fleet.iter().enumerate() {
        let config = SimConfig::new(tenant.seed)
            .with_tick_ms(500)
            .with_duration_ms(u64::MAX / 2)
            .with_retention(RetentionPolicy::windowed(SIM_WINDOW));
        let sim = Simulation::new(tenant.spec.clone(), tenant.workload.clone(), config)?;
        if i == 0 {
            service.create_tenant_with_retention(
                tenant.name.as_str(),
                sim.call_graph(),
                RetentionPolicy::windowed(SERVE_WINDOW / 2),
            )?;
        } else {
            service.create_tenant(tenant.name.as_str(), sim.call_graph())?;
        }
        // Per-tenant high-water mark of forwarded timestamps, so each
        // round only ships the points recorded since the previous one.
        simulations.push((tenant.name.clone(), sim, 0u64));
    }
    println!(
        "Serving {} tenants, window {SERVE_WINDOW} points/series (tenant 0: {}); \
         retained pins at series x window while evicted grows:\n",
        service.tenant_count(),
        SERVE_WINDOW / 2
    );

    // `(retained, evicted)` of the previous round, from the first round
    // that found every window full.
    let mut full: Option<(u64, u64)> = None;
    for round in 0usize..12 {
        let mut forwarded = 0usize;
        for (name, sim, last_forwarded_ms) in &mut simulations {
            // One observation epoch: advance the simulation and learn
            // which series changed from its delta — the same signal an
            // incremental session would consume.
            let (delta, _ticks) = sim.step_epoch(TICKS_PER_ROUND);
            let mut points = Vec::new();
            let store = sim.store();
            for id in &delta.touched {
                let Some(series) = store.series(id) else {
                    continue;
                };
                for (t, v) in series.iter() {
                    if t > *last_forwarded_ms {
                        points.push(MetricPoint {
                            id: id.clone(),
                            timestamp_ms: t,
                            value: v,
                        });
                    }
                }
            }
            if let Some(newest) = points.iter().map(|p| p.timestamp_ms).max() {
                *last_forwarded_ms = newest;
            }
            forwarded += service.ingest(name, &points)?;
        }

        let stats = service.refresh_dirty()?;
        let rss = current_rss_kb().map_or_else(|| "n/a".to_string(), |kb| format!("{kb} kB"));
        println!(
            "round {round:>2}: {forwarded:>6} points in | retained {:>6}, evicted {:>6} | rss {rss}",
            stats.points_retained, stats.points_evicted
        );

        if let Some((retained, evicted)) = full {
            assert_eq!(
                stats.points_retained, retained,
                "round {round}: a full fleet's retained count stays flat"
            );
            assert!(
                stats.points_evicted > evicted,
                "round {round}: a full fleet evicts every round"
            );
        }
        if full.is_some() || stats.points_retained == windows_capacity(&service)? {
            full = Some((stats.points_retained, stats.points_evicted));
        }
    }
    assert!(full.is_some(), "every window fills within the run");

    // Read side: the published models only ever see the retained window,
    // and each one is bit-identical to a batch analysis of that window.
    println!("\nPublished models (analysed over each tenant's retained window):");
    for tenant in service.tenants() {
        let model = service
            .model(tenant.as_str())?
            .expect("every tenant published a model");
        println!(
            "  {:<12} retention {:>3?} | {:>3} metrics -> {:>2} representatives ({:.1}x)",
            tenant,
            service.retention(tenant.as_str())?.raw_capacity,
            model.total_metric_count(),
            model.total_representative_count(),
            model.overall_reduction_factor(),
        );
    }
    println!("\nFleet aggregate: {}", service.stats());
    Ok(())
}

/// Points the fleet retains once every window is full: each tenant's series
/// count times its window.
fn windows_capacity(service: &SieveService) -> Result<u64, Box<dyn std::error::Error>> {
    let mut capacity = 0;
    for tenant in service.tenants() {
        let window = service.retention(tenant.as_str())?.raw_capacity;
        let series = service.store(tenant.as_str())?.series_count();
        capacity += (series * window.expect("every tenant is windowed")) as u64;
    }
    Ok(capacity)
}
