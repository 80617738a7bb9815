//! Crash-safe serving: ingest into a durable [`SieveService`], kill it,
//! and recover the whole fleet from its write-ahead logs and snapshots.
//!
//! Every accepted ingest batch and tenant-admin event is group-committed
//! to a per-shard append-only log (checksummed frames, fsync on commit),
//! and shards snapshot periodically to bound replay work. Dropping the
//! service without any shutdown protocol loses nothing:
//! `SieveService::recover` replays snapshot + log tail through the
//! ordinary store machinery and the recovered service publishes models
//! bit-identical to the pre-crash live ones.
//!
//! The recovery is warm: every sweep that computed something new also
//! checkpointed each affected shard's analysis caches (a cache beside the
//! logs, with no fsync), and recovery seeds each tenant's session from it.
//! The first sweep after the crash re-prepares every component but has
//! nothing to re-cluster or re-test, and the example asserts that.
//!
//! The second half corrupts the log tail on purpose (a torn write, as a
//! crashing kernel would leave behind) and shows recovery degrading
//! gracefully: the corrupt suffix is detected by checksum and dropped,
//! the surviving prefix is served, and resumed ingest re-converges.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example durable_serving
//! ```

use sieve::prelude::*;
use sieve::serve::{DurabilityConfig, FsyncPolicy};

fn wave(tenant_index: usize, ticks: std::ops::Range<u64>) -> Vec<MetricPoint> {
    let bias = tenant_index as f64 * 0.8;
    ticks
        .flat_map(|t| {
            let x = t as f64 * 0.17 + bias;
            [
                MetricPoint::new("web", "requests", t * 500, x.sin() * 4.0),
                MetricPoint::new("web", "latency", t * 500, x.cos() * 9.0),
                MetricPoint::new("db", "queries", t * 500, (x * 0.5).sin() * 2.0),
                MetricPoint::new("db", "io_wait", t * 500, (x * 0.5).cos()),
            ]
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("sieve-durable-serving-{}", std::process::id()));
    let config = ServeConfig::default()
        .with_shard_count(16)
        .with_analysis(SieveConfig::default().with_cluster_range(2, 3))
        .with_durability(
            DurabilityConfig::new(&dir)
                .with_fsync(FsyncPolicy::Always)
                .with_snapshot_every_events(64),
        );

    // Phase 1: a durable service takes traffic for three tenants.
    let tenants = ["checkout", "search", "billing"];
    let service = SieveService::new(config.clone())?;
    let mut call_graph = CallGraph::new();
    call_graph.record_calls("web", "db", 100);
    for name in tenants {
        service.create_tenant(name, call_graph.clone())?;
    }
    for round in 0u64..5 {
        for (i, name) in tenants.iter().enumerate() {
            service.ingest(name, &wave(i, round * 20..(round + 1) * 20))?;
        }
    }
    service.refresh_dirty()?;
    let live: Vec<_> = tenants
        .iter()
        .map(|name| service.model(name).map(Option::unwrap))
        .collect::<Result<_, _>>()?;
    let stats = service.stats();
    println!("live service: {stats}");
    println!(
        "dataplane:    {} fsync calls for the ingest above; {} commits rode \
         another thread's leader write; pool ran {} chunk tasks on {} workers",
        stats.fsync_calls,
        stats.commits_coalesced,
        stats.pool_tasks_executed,
        stats.pool_workers_spawned
    );

    // Phase 2: "kill" the process — no flush, no shutdown handshake — and
    // recover from the directory alone.
    drop(service);
    let (recovered, report) = SieveService::recover(config.clone())?;
    println!("recovery:     {report}");
    let seeding = report.checkpoint();
    println!(
        "checkpoints:  {} cache entries seeded into {} of {} tenants",
        seeding.entries_seeded,
        seeding.tenants_seeded,
        tenants.len()
    );
    let first = recovered.refresh_dirty()?;
    println!("first sweep:  {first}");
    assert_eq!(
        (first.components_reclustered, first.comparisons_tested),
        (0, 0),
        "the warm restart re-clusters and re-tests nothing the crashed service had"
    );
    assert_eq!(
        first.grid_points_interpolated, 0,
        "windows sampled on the grid are resampled without interpolation"
    );
    for (name, live_model) in tenants.iter().zip(&live) {
        let model = recovered.model(name)?.expect("tenant republished");
        assert_eq!(
            *model, **live_model,
            "{name}: recovered model must be bit-identical to the live one"
        );
    }
    println!("recovered models are bit-identical to the pre-crash live models\n");

    // Phase 3: simulate a torn write — more ingest, then chop bytes off
    // one shard's log tail, as a crash mid-write would.
    for (i, name) in tenants.iter().enumerate() {
        recovered.ingest(name, &wave(i, 100..130))?;
    }
    drop(recovered);
    let torn = sieve::exec::hash::shard_index("search", config.shard_count);
    let log_path = dir.join(sieve::wal::log_file_name(torn));
    let bytes = std::fs::read(&log_path)?;
    std::fs::write(&log_path, &bytes[..bytes.len().saturating_sub(7)])?;
    println!("tore {} bytes off {}", 7, log_path.display());

    let (degraded, report) = SieveService::recover(config)?;
    println!("recovery:     {report}");
    degraded.refresh_dirty()?;

    // Phase 4: resumed ingest re-converges the degraded tenant.
    for (i, name) in tenants.iter().enumerate() {
        degraded.ingest(name, &wave(i, 130..160))?;
    }
    degraded.refresh_dirty()?;
    for name in tenants {
        let model = degraded.model(name)?.expect("tenant republished");
        println!(
            "  {:<9} {:>3} metrics -> {:>2} representatives, {} dependency edges",
            name,
            model.total_metric_count(),
            model.total_representative_count(),
            model.dependency_graph.edge_count()
        );
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
