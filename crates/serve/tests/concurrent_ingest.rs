//! Multi-threaded durable-ingest property test.
//!
//! N writer threads ingest interleaved batches for disjoint tenant
//! partitions of one durable service while a background thread runs
//! `refresh_dirty` sweeps the whole time — the ingest dataplane at its
//! most contended: concurrent stores, cross-thread WAL group commit,
//! snapshot cadence trips racing writers, sweeps draining deltas
//! mid-stream. The properties checked:
//!
//! * Every point lands: each tenant's refreshed model is **bit-identical**
//!   to a single-threaded oracle service fed the same per-tenant batch
//!   sequence (batches of one tenant are issued in order by its one
//!   writer, so the oracle stream is well-defined however threads
//!   interleave across tenants).
//! * Durability survives the interleaving: dropping the service and
//!   recovering the directory reproduces the live models bit-identically,
//!   with a clean recovery report.
//!
//! Deterministic splitmix64 data generation, like the sibling property
//! suites (the container has no registry access for `proptest`).

use sieve_core::SieveConfig;
use sieve_graph::CallGraph;
use sieve_serve::{DurabilityConfig, FsyncPolicy, MetricPoint, ServeConfig, SieveService};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WRITERS: usize = 4;
const TENANTS: usize = 8;
const BATCHES_PER_TENANT: u64 = 12;
const TICKS_PER_BATCH: u64 = 8;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn tenant_name(tenant: usize) -> String {
    format!("tenant-{tenant:02}")
}

fn graph() -> CallGraph {
    let mut graph = CallGraph::new();
    graph.record_calls("web", "db", 100);
    graph
}

/// One tenant's batch `round`: four series advancing monotonically, with
/// one deliberately out-of-order point per batch so the rejected-index
/// skip path of the streaming WAL encoder runs under contention too.
fn batch(tenant: usize, round: u64) -> Vec<MetricPoint> {
    let mut seed = (tenant as u64) << 32 | round;
    let mut points = Vec::new();
    for tick in 0..TICKS_PER_BATCH {
        let t = round * TICKS_PER_BATCH + tick;
        let x = splitmix64(&mut seed) as f64 / u64::MAX as f64;
        points.push(MetricPoint::new("web", "requests", t * 500, x.sin() * 4.0));
        points.push(MetricPoint::new("web", "latency", t * 500, x.cos() * 9.0));
        points.push(MetricPoint::new("db", "queries", t * 500, (x * 0.5).sin()));
        points.push(MetricPoint::new("db", "io_wait", t * 500, (x * 0.5).cos()));
    }
    // A stale timestamp the store must reject (and the WAL must skip).
    points.push(MetricPoint::new("web", "requests", round * 250, -1.0));
    points
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig::default()
        .with_shard_count(4)
        .with_sweep_parallelism(4)
        .with_analysis(
            SieveConfig::default()
                .with_cluster_range(2, 2)
                .with_parallelism(1),
        )
        .with_durability(
            DurabilityConfig::new(dir)
                .with_fsync(FsyncPolicy::EveryN(4))
                .with_snapshot_every_events(16),
        )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sieve-concurrent-ingest-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn concurrent_writers_match_the_single_threaded_oracle_and_recover() {
    let dir = temp_dir("oracle");
    let service = Arc::new(SieveService::new(config(&dir)).unwrap());
    for tenant in 0..TENANTS {
        service.create_tenant(tenant_name(tenant), graph()).unwrap();
    }

    // Writer i owns tenants { t | t % WRITERS == i }: per-tenant batch
    // order is fixed, cross-tenant interleaving is whatever the scheduler
    // does. A background sweeper refreshes concurrently throughout.
    let sweeping = Arc::new(AtomicBool::new(true));
    let sweeper = {
        let service = Arc::clone(&service);
        let sweeping = Arc::clone(&sweeping);
        std::thread::spawn(move || {
            while sweeping.load(Ordering::Relaxed) {
                service.refresh_dirty().unwrap();
                std::thread::yield_now();
            }
        })
    };
    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for round in 0..BATCHES_PER_TENANT {
                    for tenant in (writer..TENANTS).step_by(WRITERS) {
                        let points = batch(tenant, round);
                        let accepted = service.ingest(&tenant_name(tenant), &points).unwrap();
                        assert_eq!(accepted, points.len() - 1, "only the stale point drops");
                    }
                }
            });
        }
    });
    sweeping.store(false, Ordering::Relaxed);
    sweeper.join().unwrap();
    service.refresh_dirty().unwrap();

    // Oracle: same batches, one thread, fresh (non-durable) service.
    let mut oracle_config = config(&dir);
    oracle_config.durability = None;
    let oracle = SieveService::new(oracle_config).unwrap();
    for tenant in 0..TENANTS {
        oracle.create_tenant(tenant_name(tenant), graph()).unwrap();
        for round in 0..BATCHES_PER_TENANT {
            oracle
                .ingest(&tenant_name(tenant), &batch(tenant, round))
                .unwrap();
        }
    }
    oracle.refresh_dirty().unwrap();
    for tenant in 0..TENANTS {
        let name = tenant_name(tenant);
        assert_eq!(
            *service.model(&name).unwrap().unwrap(),
            *oracle.model(&name).unwrap().unwrap(),
            "{name}: concurrent ingest must equal the single-threaded oracle"
        );
    }

    // The dataplane counters are observable: every accepted frame was
    // committed, and with 4 writers racing 4 shards at EveryN(4) fsync,
    // commits are far fewer than frames on any multi-core box (equality
    // is allowed — a 1-core CI container serializes the writers).
    let stats = service.stats();
    assert!(
        stats.fsync_calls > 0,
        "EveryN fsync must have synced something"
    );

    // Crash + recover: the recovered service republishes bit-identical
    // models for every tenant.
    let live: Vec<_> = (0..TENANTS)
        .map(|tenant| service.model(&tenant_name(tenant)).unwrap().unwrap())
        .collect();
    drop(sweeping);
    drop(service);
    let (recovered, report) = SieveService::recover(config(&dir)).unwrap();
    assert!(report.is_clean(), "{report}");
    recovered.refresh_dirty().unwrap();
    for (tenant, live_model) in live.iter().enumerate() {
        let name = tenant_name(tenant);
        assert_eq!(
            *recovered.model(&name).unwrap().unwrap(),
            **live_model,
            "{name}: recovery must reproduce the live model bit-identically"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_admin_and_ingest_keep_per_tenant_apply_order() {
    // One tenant, one writer streaming batches, another thread tightening
    // and loosening retention concurrently: whatever the interleaving,
    // recovery must replay to exactly the live store (the per-tenant
    // apply-order lock is what makes the logged order match).
    use sieve_core::RetentionPolicy;
    let dir = temp_dir("admin-race");
    let service = Arc::new(SieveService::new(config(&dir)).unwrap());
    service.create_tenant("acme", graph()).unwrap();

    std::thread::scope(|scope| {
        let writer = Arc::clone(&service);
        scope.spawn(move || {
            for round in 0..BATCHES_PER_TENANT {
                writer.ingest("acme", &batch(0, round)).unwrap();
            }
        });
        let admin = Arc::clone(&service);
        scope.spawn(move || {
            for i in 0..6u64 {
                let window = 40 + i * 8;
                admin
                    .set_retention("acme", RetentionPolicy::windowed(window as usize))
                    .unwrap();
                std::thread::yield_now();
            }
        });
    });
    service.refresh_dirty().unwrap();
    let live = service.model("acme").unwrap().unwrap();
    drop(service);

    let (recovered, report) = SieveService::recover(config(&dir)).unwrap();
    assert!(report.is_clean(), "{report}");
    recovered.refresh_dirty().unwrap();
    assert_eq!(
        *recovered.model("acme").unwrap().unwrap(),
        *live,
        "replay must reproduce the admin/ingest interleaving exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
