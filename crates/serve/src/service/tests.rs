//! Tests of [`SieveService`] through its public methods. Each drives the
//! whole service — ingest, sweeps, durability, recovery — so they stay
//! together under `service` rather than next to one of the modules
//! (`durable`, `sweep`, `recovery`) a given test happens to lean on most.

use super::*;
use crate::TenantRecovery;
use sieve_core::{Sieve, SieveConfig};
use sieve_wal::{IngestBatch, WalEvent};
use std::collections::BTreeMap;

fn tiny_config() -> ServeConfig {
    ServeConfig::default()
        .with_shard_count(4)
        .with_sweep_parallelism(2)
        .with_analysis(
            SieveConfig::default()
                .with_cluster_range(2, 2)
                .with_parallelism(1),
        )
}

fn ingest_wave(service: &SieveService, tenant: &str, ticks: std::ops::Range<u64>, bias: f64) {
    let points: Vec<MetricPoint> = ticks
        .flat_map(|t| {
            let x = t as f64 * 0.17 + bias;
            [
                MetricPoint::new("web", "requests", t * 500, x.sin() * 4.0),
                MetricPoint::new("web", "latency", t * 500, x.cos() * 9.0),
                MetricPoint::new("db", "queries", t * 500, (x * 0.5).sin() * 2.0),
                MetricPoint::new("db", "io_wait", t * 500, (x * 0.5).cos()),
            ]
        })
        .collect();
    service.ingest(tenant, &points).unwrap();
}

#[test]
#[cfg(target_pointer_width = "64")]
fn a_metric_point_is_four_words() {
    // Two one-word names, the timestamp and the value: buffered batches
    // cost 32 bytes a point.
    assert_eq!(std::mem::size_of::<MetricPoint>(), 32);
}

fn web_db_graph() -> CallGraph {
    let mut graph = CallGraph::new();
    graph.record_calls("web", "db", 100);
    graph
}

#[test]
fn tenants_are_isolated_and_models_match_batch_analysis() {
    let service = SieveService::new(tiny_config()).unwrap();
    service.create_tenant("alpha", web_db_graph()).unwrap();
    service.create_tenant("beta", web_db_graph()).unwrap();
    assert_eq!(service.tenant_count(), 2);
    assert_eq!(service.tenants(), vec!["alpha", "beta"]);

    ingest_wave(&service, "alpha", 0..80, 0.0);
    ingest_wave(&service, "beta", 0..80, 1.3);
    let stats = service.refresh_dirty().unwrap();
    assert_eq!(stats.tenants_total, 2);
    assert_eq!(stats.tenants_refreshed, 2);

    // Each tenant's published model equals a from-scratch batch
    // analysis of its own store — and the two differ from each other
    // (different data, no cross-tenant bleed).
    let sieve = Sieve::new(service.config().analysis.clone());
    let alpha = service.model("alpha").unwrap().unwrap();
    let beta = service.model("beta").unwrap().unwrap();
    let alpha_batch = sieve
        .analyze("alpha", &service.store("alpha").unwrap(), &web_db_graph())
        .unwrap();
    let beta_batch = sieve
        .analyze("beta", &service.store("beta").unwrap(), &web_db_graph())
        .unwrap();
    assert_eq!(*alpha, alpha_batch);
    assert_eq!(*beta, beta_batch);
    assert_ne!(alpha.clusterings, beta.clusterings);
}

#[test]
fn refresh_dirty_touches_only_dirty_tenants() {
    let service = SieveService::new(tiny_config()).unwrap();
    for tenant in ["a", "b", "c"] {
        service.create_tenant(tenant, web_db_graph()).unwrap();
        ingest_wave(&service, tenant, 0..80, 0.0);
    }
    assert_eq!(service.refresh_dirty().unwrap().tenants_refreshed, 3);

    // Only `b` receives new points.
    ingest_wave(&service, "b", 80..90, 0.0);
    let stats = service.refresh_dirty().unwrap();
    assert_eq!(stats.tenants_refreshed, 1);
    assert!(stats.components_prepared >= 1);
    assert_eq!(service.last_stats("a").unwrap().epoch, 1);
    assert_eq!(service.last_stats("b").unwrap().epoch, 2);

    // Aggregate stats cover all tenants' last refreshes.
    let agg = service.stats();
    assert_eq!(agg.tenants_total, 3);
    assert_eq!(agg.tenants_refreshed, 3);
    assert_eq!(agg.epoch_high_watermark, 2);
}

#[test]
fn model_snapshots_survive_later_refreshes() {
    let service = SieveService::new(tiny_config()).unwrap();
    service.create_tenant("acme", web_db_graph()).unwrap();
    ingest_wave(&service, "acme", 0..80, 0.0);
    service.refresh_dirty().unwrap();
    let first = service.model("acme").unwrap().unwrap();
    let first_copy = (*first).clone();

    ingest_wave(&service, "acme", 80..120, 0.4);
    service.refresh_dirty().unwrap();
    let second = service.model("acme").unwrap().unwrap();
    assert!(!Arc::ptr_eq(&first, &second), "a refresh swaps the Arc");
    assert_eq!(*first, first_copy, "old snapshots are never mutated");
}

#[test]
fn empty_tenants_stay_unpublished_until_data_arrives() {
    let service = SieveService::new(tiny_config()).unwrap();
    service.create_tenant("acme", web_db_graph()).unwrap();
    // No data yet: a sweep publishes nothing (batch analysis of an
    // empty store is an error, so an empty model would break the
    // served==batch guarantee).
    let stats = service.refresh_dirty().unwrap();
    assert_eq!(stats.tenants_refreshed, 0);
    assert!(service.model("acme").unwrap().is_none());

    ingest_wave(&service, "acme", 0..80, 0.0);
    assert_eq!(service.refresh_dirty().unwrap().tenants_refreshed, 1);
    assert!(service.model("acme").unwrap().is_some());
}

#[test]
fn replacing_the_call_graph_refreshes_the_tenant_without_new_ingest() {
    let service = SieveService::new(tiny_config()).unwrap();
    // Start with no topology: the first model has no comparison plan.
    service.create_tenant("acme", CallGraph::new()).unwrap();
    ingest_wave(&service, "acme", 0..80, 0.0);
    service.refresh_dirty().unwrap();
    assert_eq!(service.last_stats("acme").unwrap().comparisons_planned, 0);

    // Replace the topology; no series changes, but the next sweep must
    // still re-plan so the published model catches up.
    service.set_call_graph("acme", web_db_graph()).unwrap();
    let stats = service.refresh_dirty().unwrap();
    assert_eq!(stats.tenants_refreshed, 1, "replanned tenant is swept");
    assert!(
        service.last_stats("acme").unwrap().comparisons_planned > 0,
        "the new topology produced a comparison plan"
    );
    // And the request is consumed: the next sweep is a no-op again.
    assert_eq!(service.refresh_dirty().unwrap().tenants_refreshed, 0);
}

#[test]
fn a_failed_replan_only_refresh_is_retried() {
    let service = SieveService::new(tiny_config().with_sweep_parallelism(1)).unwrap();
    service.create_tenant("acme", CallGraph::new()).unwrap();
    ingest_wave(&service, "acme", 0..80, 0.0);
    service.refresh_dirty().unwrap();
    assert_eq!(service.last_stats("acme").unwrap().comparisons_planned, 0);

    // A re-plan with no new series, whose first refresh fails: the
    // request must outlive the failure.
    service.set_call_graph("acme", web_db_graph()).unwrap();
    service
        .refresh_failpoint
        .write()
        .unwrap()
        .insert("acme".to_string());
    assert!(service.refresh_dirty().is_err());
    service.refresh_failpoint.write().unwrap().clear();

    let refreshes: usize = (0..4)
        .map(|_| service.refresh_dirty().unwrap().tenants_refreshed)
        .sum();
    assert_eq!(refreshes, 1, "the lost re-plan is retried exactly once");
    assert!(
        service.last_stats("acme").unwrap().comparisons_planned > 0,
        "the retried refresh planned over the new topology"
    );
}

#[test]
fn unknown_and_duplicate_tenants_error() {
    let service = SieveService::new(tiny_config()).unwrap();
    service.create_tenant("acme", CallGraph::new()).unwrap();
    assert!(matches!(
        service.create_tenant("acme", CallGraph::new()),
        Err(ServeError::DuplicateTenant { .. })
    ));
    assert!(matches!(
        service.ingest("ghost", &[]),
        Err(ServeError::UnknownTenant { .. })
    ));
    assert!(matches!(
        service.model("ghost"),
        Err(ServeError::UnknownTenant { .. })
    ));
    assert!(matches!(
        service.set_call_graph("ghost", CallGraph::new()),
        Err(ServeError::UnknownTenant { .. })
    ));
}

#[test]
fn ingest_reports_accepted_points_only() {
    let service = SieveService::new(tiny_config()).unwrap();
    service.create_tenant("acme", CallGraph::new()).unwrap();
    let accepted = service
        .ingest(
            "acme",
            &[
                MetricPoint::new("web", "cpu", 1000, 1.0),
                // Out of order: dropped by the store.
                MetricPoint::new("web", "cpu", 500, 2.0),
                MetricPoint::new("web", "cpu", 1500, 3.0),
            ],
        )
        .unwrap();
    assert_eq!(accepted, 2);
}

#[test]
fn sweep_parallelism_does_not_change_published_models() {
    let build = |sweep_parallelism: usize| {
        let service =
            SieveService::new(tiny_config().with_sweep_parallelism(sweep_parallelism)).unwrap();
        for (i, tenant) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            service.create_tenant(*tenant, web_db_graph()).unwrap();
            ingest_wave(&service, tenant, 0..80, i as f64 * 0.7);
        }
        service.refresh_dirty().unwrap();
        // A second, interleaved wave exercises the incremental path.
        for (i, tenant) in ["b", "d"].iter().enumerate() {
            ingest_wave(&service, tenant, 80..100, i as f64 * 0.3);
        }
        service.refresh_dirty().unwrap();
        service
    };
    let serial = build(1);
    let parallel = build(8);
    for tenant in ["a", "b", "c", "d", "e"] {
        let s = serial.model(tenant).unwrap().unwrap();
        let p = parallel.model(tenant).unwrap().unwrap();
        assert_eq!(*s, *p, "tenant {tenant} differs across sweep degrees");
    }
}

#[test]
fn retention_budgets_bound_tenant_stores_and_surface_in_stats() {
    let service =
        SieveService::new(tiny_config().with_retention(RetentionPolicy::windowed(40))).unwrap();
    // `bounded` inherits the service default; `oracle` overrides it.
    service.create_tenant("bounded", web_db_graph()).unwrap();
    service
        .create_tenant_with_retention("oracle", web_db_graph(), RetentionPolicy::unbounded())
        .unwrap();
    ingest_wave(&service, "bounded", 0..80, 0.0);
    ingest_wave(&service, "oracle", 0..80, 0.0);

    let stats = service.refresh_dirty().unwrap();
    assert_eq!(stats.tenants_refreshed, 2);
    // 4 series x 80 points per tenant; the bounded tenant keeps 40 each.
    assert_eq!(stats.points_retained, 4 * 40 + 4 * 80);
    assert_eq!(stats.points_evicted, 4 * 40);
    assert_eq!(service.stats().points_evicted, 4 * 40);
    assert_eq!(
        service.store("bounded").unwrap().retained_point_count(),
        4 * 40
    );
    // A sweep's gauges are the ones `stats()` reports right after it —
    // and so is the rest when the sweep refreshed every tenant. (The
    // executor pool is process-wide: other tests move its counters.)
    let without_pool = |stats: ServiceStats| ServiceStats {
        pool_workers_spawned: 0,
        pool_tasks_executed: 0,
        ..stats
    };
    assert_eq!(without_pool(service.stats()), without_pool(stats));
    let stats = service.refresh_all().unwrap();
    assert_eq!(stats.points_evicted, 4 * 40);
    assert_eq!(without_pool(service.stats()), without_pool(stats));

    // The bounded tenant's published model is the batch analysis of
    // its retained window — served==batch holds under eviction.
    let sieve = Sieve::new(service.config().analysis.clone());
    let model = service.model("bounded").unwrap().unwrap();
    let batch = sieve
        .analyze(
            "bounded",
            &service.store("bounded").unwrap(),
            &web_db_graph(),
        )
        .unwrap();
    assert_eq!(*model, batch);
}

#[test]
fn set_retention_dirties_the_tenant_for_the_next_sweep() {
    let service = SieveService::new(tiny_config()).unwrap();
    service.create_tenant("acme", web_db_graph()).unwrap();
    ingest_wave(&service, "acme", 0..80, 0.0);
    service.refresh_dirty().unwrap();
    let wide = service.model("acme").unwrap().unwrap();

    // Tighten the budget: points are evicted immediately and the
    // tenant is dirty again without any new ingest.
    service
        .set_retention("acme", RetentionPolicy::windowed(40))
        .unwrap();
    assert_eq!(
        service.retention("acme").unwrap(),
        RetentionPolicy::windowed(40)
    );
    let stats = service.refresh_dirty().unwrap();
    assert_eq!(stats.tenants_refreshed, 1, "eviction counts as dirt");
    assert_eq!(stats.points_evicted, 4 * 40);
    let narrow = service.model("acme").unwrap().unwrap();
    assert!(!Arc::ptr_eq(&wide, &narrow), "the sweep republished");

    // The republished model is the batch analysis of the narrow window.
    let sieve = Sieve::new(service.config().analysis.clone());
    let batch = sieve
        .analyze("acme", &service.store("acme").unwrap(), &web_db_graph())
        .unwrap();
    assert_eq!(*narrow, batch);

    assert!(matches!(
        service.set_retention("ghost", RetentionPolicy::unbounded()),
        Err(ServeError::UnknownTenant { .. })
    ));
    assert!(matches!(
        service.retention("ghost"),
        Err(ServeError::UnknownTenant { .. })
    ));
}

#[test]
fn set_retention_refuses_an_out_of_range_policy() {
    let dir = temp_dir("refused-retention");
    let config = tiny_config()
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(1_000_000));
    let service = SieveService::new(config.clone()).unwrap();
    service
        .create_tenant_with_retention("acme", web_db_graph(), RetentionPolicy::windowed(60))
        .unwrap();
    ingest_wave(&service, "acme", 0..40, 0.0);
    let log = dir.join(sieve_wal::log_file_name(sieve_exec::hash::shard_index(
        "acme", 4,
    )));
    let logged = std::fs::metadata(&log).unwrap().len();

    // The field is public, so a policy that would evict every point it
    // accepts can be built: neither the store nor the log may see it.
    let zero_window = RetentionPolicy {
        raw_capacity: Some(0),
    };
    assert!(matches!(
        service.set_retention("acme", zero_window),
        Err(ServeError::InvalidConfig { .. })
    ));
    assert_eq!(
        service.retention("acme").unwrap(),
        RetentionPolicy::windowed(60)
    );
    assert_eq!(service.store("acme").unwrap().point_count(), 4 * 40);
    assert_eq!(std::fs::metadata(&log).unwrap().len(), logged);
    drop(service);

    let (recovered, report) = SieveService::recover(config).unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(
        recovered.retention("acme").unwrap(),
        RetentionPolicy::windowed(60)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_refused_creation_leaves_no_tenant_and_no_record() {
    let dir = temp_dir("refused-creation");
    let config = tiny_config()
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(1_000_000));
    let service = SieveService::new(config.clone()).unwrap();
    service.create_tenant("acme", web_db_graph()).unwrap();
    ingest_wave(&service, "acme", 0..40, 0.0);
    let log_len = |name: &str| {
        let shard = sieve_exec::hash::shard_index(name, 4);
        std::fs::metadata(dir.join(sieve_wal::log_file_name(shard)))
            .unwrap()
            .len()
    };
    let logged = [log_len("acme"), log_len("zero")];

    let zero_window = RetentionPolicy {
        raw_capacity: Some(0),
    };
    assert!(matches!(
        service.create_tenant_with_retention("zero", web_db_graph(), zero_window),
        Err(ServeError::Analysis { .. })
    ));
    assert!(matches!(
        service.create_tenant("acme", CallGraph::new()),
        Err(ServeError::DuplicateTenant { .. })
    ));
    assert_eq!(service.tenant_count(), 1);
    assert_eq!([log_len("acme"), log_len("zero")], logged);
    drop(service);

    let (recovered, report) = SieveService::recover(config).unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(recovered.tenants(), vec!["acme"]);
    assert_eq!(recovered.store("acme").unwrap().point_count(), 4 * 40);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A unique temp directory per test (tests run in parallel).
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sieve-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config(dir: &std::path::Path) -> ServeConfig {
    tiny_config().with_durability(crate::DurabilityConfig::new(dir))
}

#[test]
fn durable_service_recovers_bit_identical_models() {
    let dir = temp_dir("clean-recovery");
    let service = SieveService::new(durable_config(&dir)).unwrap();
    service.create_tenant("alpha", web_db_graph()).unwrap();
    service
        .create_tenant_with_retention("beta", web_db_graph(), RetentionPolicy::windowed(60))
        .unwrap();
    ingest_wave(&service, "alpha", 0..80, 0.0);
    ingest_wave(&service, "beta", 0..90, 1.3);
    service.refresh_dirty().unwrap();
    // Admin events are durable too.
    service
        .set_retention("beta", RetentionPolicy::windowed(40))
        .unwrap();
    service.set_call_graph("alpha", CallGraph::new()).unwrap();
    ingest_wave(&service, "alpha", 80..100, 0.2);
    service.refresh_dirty().unwrap();
    let live_alpha = service.model("alpha").unwrap().unwrap();
    let live_beta = service.model("beta").unwrap().unwrap();
    drop(service); // "crash": nothing flushed beyond what committed

    let (recovered, report) = SieveService::recover(durable_config(&dir)).unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(recovered.tenants(), vec!["alpha", "beta"]);
    assert_eq!(
        recovered.retention("beta").unwrap(),
        RetentionPolicy::windowed(40),
        "replayed admin event"
    );
    // Recovered tenants republish on the first sweep, bit-identical
    // to the pre-crash live models.
    recovered.refresh_dirty().unwrap();
    assert_eq!(*recovered.model("alpha").unwrap().unwrap(), *live_alpha);
    assert_eq!(*recovered.model("beta").unwrap().unwrap(), *live_beta);

    // And the service re-converges: post-recovery ingest behaves like
    // an uncrashed service fed the same stream.
    ingest_wave(&recovered, "beta", 90..110, 1.3);
    recovered.refresh_dirty().unwrap();
    let sieve = Sieve::new(recovered.config().analysis.clone());
    let batch = sieve
        .analyze("beta", &recovered.store("beta").unwrap(), &web_db_graph())
        .unwrap();
    assert_eq!(*recovered.model("beta").unwrap().unwrap(), batch);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_truncates_at_the_torn_tail_and_reports_the_lost_suffix() {
    let dir = temp_dir("torn-tail");
    // A huge snapshot cadence keeps everything in the log so the test
    // can tear it.
    let config = tiny_config()
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(1_000_000));
    let service = SieveService::new(config.clone()).unwrap();
    service.create_tenant("acme", web_db_graph()).unwrap();
    for round in 0..6u64 {
        ingest_wave(&service, "acme", round * 10..(round + 1) * 10, 0.0);
    }
    drop(service);

    // Tear the last 5 bytes off the shard log: the final ingest frame
    // is torn, everything before it is intact.
    let shard = sieve_exec::hash::shard_index("acme", config.shard_count);
    let log_path = dir.join(sieve_wal::log_file_name(shard));
    let bytes = std::fs::read(&log_path).unwrap();
    std::fs::write(&log_path, &bytes[..bytes.len() - 5]).unwrap();

    let (recovered, report) = SieveService::recover(config.clone()).unwrap();
    assert!(!report.is_clean());
    // A torn *final* frame is unreadable, so nobody can say which
    // tenant it belonged to: the loss is accounted at the shard level
    // in bytes, and the tenant is clean for its surviving prefix — no
    // readable event of it was dropped.
    let shard_report = report.shards.iter().find(|s| s.shard == shard).unwrap();
    let corruption = shard_report.corruption.as_ref().unwrap();
    assert!(corruption.lost_bytes > 0, "{corruption:?}");
    match report.tenant("acme").unwrap() {
        TenantRecovery::Clean { points_replayed } => {
            // 5 intact waves of 40 points; the 6th wave's frame is torn.
            assert_eq!(*points_replayed, 5 * 40);
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    // The recovered model for the intact prefix equals an uncrashed
    // oracle fed only the surviving waves.
    recovered.refresh_dirty().unwrap();
    let oracle = SieveService::new(tiny_config()).unwrap();
    oracle.create_tenant("acme", web_db_graph()).unwrap();
    for round in 0..5u64 {
        ingest_wave(&oracle, "acme", round * 10..(round + 1) * 10, 0.0);
    }
    oracle.refresh_dirty().unwrap();
    assert_eq!(
        *recovered.model("acme").unwrap().unwrap(),
        *oracle.model("acme").unwrap().unwrap(),
        "recovered prefix model must equal the uncrashed oracle"
    );

    // Recovery re-anchored the directory: a second recovery is clean
    // and the loss is not double-reported.
    drop(recovered);
    let (again, second) = SieveService::recover(config).unwrap();
    assert!(second.is_clean(), "{second}");
    again.refresh_dirty().unwrap();
    assert_eq!(
        *again.model("acme").unwrap().unwrap(),
        *oracle.model("acme").unwrap().unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bit_flip_mid_log_degrades_only_the_affected_tenant() {
    let dir = temp_dir("bit-flip");
    let config = tiny_config()
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(1_000_000));
    // Two tenants in different WAL shards: the flip lands in a shard
    // hosting exactly one of them. Beta's history is many small
    // frames, so a mid-file flip kills one frame and the frames after
    // it resync — a per-tenant accountable lost suffix.
    let service = SieveService::new(config.clone()).unwrap();
    service.create_tenant("alpha", web_db_graph()).unwrap();
    service.create_tenant("beta", web_db_graph()).unwrap();
    ingest_wave(&service, "alpha", 0..80, 0.0);
    for round in 0..6u64 {
        ingest_wave(&service, "beta", round * 10..(round + 1) * 10, 1.1);
    }
    drop(service);

    let alpha_shard = sieve_exec::hash::shard_index("alpha", config.shard_count);
    let beta_shard = sieve_exec::hash::shard_index("beta", config.shard_count);
    assert_ne!(alpha_shard, beta_shard, "tenants picked to hash apart");
    let log_path = dir.join(sieve_wal::log_file_name(beta_shard));
    let mut bytes = std::fs::read(&log_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&log_path, &bytes).unwrap();

    let (recovered, report) = SieveService::recover(config).unwrap();
    assert!(report.tenant("alpha").unwrap().is_clean());
    let (survived_waves, lost) = match report.tenant("beta").unwrap() {
        TenantRecovery::Recovered {
            points_replayed,
            lost_suffix,
        } => {
            // Whole 40-point waves survive or are lost — never a
            // partially applied frame.
            assert_eq!(points_replayed % 40, 0);
            (points_replayed / 40, *lost_suffix)
        }
        other => panic!("expected a lost suffix, got {other:?}"),
    };
    assert!(lost.events >= 1, "{lost:?}");
    assert!(survived_waves < 6);
    recovered.refresh_dirty().unwrap();
    // Alpha is untouched by beta's corruption, and beta's model is the
    // one an uncrashed service would publish for the surviving prefix.
    let oracle = SieveService::new(tiny_config()).unwrap();
    oracle.create_tenant("alpha", web_db_graph()).unwrap();
    oracle.create_tenant("beta", web_db_graph()).unwrap();
    ingest_wave(&oracle, "alpha", 0..80, 0.0);
    for round in 0..survived_waves {
        ingest_wave(&oracle, "beta", round * 10..(round + 1) * 10, 1.1);
    }
    oracle.refresh_dirty().unwrap();
    assert_eq!(
        *recovered.model("alpha").unwrap().unwrap(),
        *oracle.model("alpha").unwrap().unwrap()
    );
    assert_eq!(
        *recovered.model("beta").unwrap().unwrap(),
        *oracle.model("beta").unwrap().unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_batch_whose_watermark_list_repeats_a_series_degrades_only_its_tenant() {
    let dir = temp_dir("repeated-watermark");
    let config = tiny_config()
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(1_000_000));
    let service = SieveService::new(config.clone()).unwrap();
    service.create_tenant("alpha", web_db_graph()).unwrap();
    service.create_tenant("beta", web_db_graph()).unwrap();
    ingest_wave(&service, "alpha", 0..40, 0.0);
    ingest_wave(&service, "beta", 0..40, 1.3);
    service.refresh_dirty().unwrap();
    let live_alpha = service.model("alpha").unwrap().unwrap();
    let live_beta = service.model("beta").unwrap().unwrap();
    drop(service);

    // Live ingest never writes this frame: its checksum verifies and it
    // decodes (every slot is within the list), but the watermark list
    // names `web/requests` twice.
    let shard = sieve_exec::hash::shard_index("beta", config.shard_count);
    let requests = sieve_simulator::store::MetricId::new("web", "requests");
    use sieve_simulator::store::Named;
    let batch = WalEvent::IngestBatch(IngestBatch {
        tenant: "beta".into(),
        points: vec![(0, 40 * 500, 1.0), (1, 41 * 500, 2.0), (0, 42 * 500, 3.0)],
        series_before: None,
        watermarks: vec![Named::Spelled(0), Named::Spelled(1)],
        digest: 2,
        spelled: vec![requests.clone(), requests],
    });
    let mut payload = Vec::new();
    batch.encode(&mut payload);
    append_verified_frame(&dir, &config, "beta", &payload);

    let (recovered, report) = SieveService::recover(config).unwrap();
    let shard_report = report.shards.iter().find(|s| s.shard == shard).unwrap();
    assert!(
        shard_report.corruption.is_none(),
        "the log itself is intact"
    );
    assert!(report.tenant("alpha").unwrap().is_clean());
    assert_eq!(
        report.tenant("beta"),
        Some(&TenantRecovery::Recovered {
            points_replayed: 160,
            lost_suffix: crate::LostSuffix {
                events: 1,
                points: 3
            },
        })
    );
    recovered.refresh_dirty().unwrap();
    assert_eq!(*recovered.model("alpha").unwrap().unwrap(), *live_alpha);
    assert_eq!(*recovered.model("beta").unwrap().unwrap(), *live_beta);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_snapshot_costs_only_its_shard_and_names_the_tenants_it_held() {
    let dir = temp_dir("torn-snapshot");
    let config = tiny_config()
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(3));
    let shard = |name: &str| sieve_exec::hash::shard_index(name, config.shard_count);
    let tenants = ["alpha", "beta", "epsilon", "gamma"];
    assert_eq!(
        tenants.map(shard),
        [0, 1, 1, 3],
        "tenants picked to share shard 1"
    );
    let service = SieveService::new(config.clone()).unwrap();
    for name in tenants {
        service.create_tenant(name, web_db_graph()).unwrap();
    }
    // Shard 1's third event, beta's first wave, trips its snapshot; the
    // two waves after it are the log tail. Alpha's shard snapshots after
    // its second wave and keeps one in its tail; gamma's never snapshots.
    ingest_wave(&service, "beta", 0..10, 0.3);
    ingest_wave(&service, "alpha", 0..20, 0.0);
    ingest_wave(&service, "alpha", 20..40, 0.0);
    ingest_wave(&service, "epsilon", 0..10, 0.7);
    ingest_wave(&service, "beta", 10..20, 0.3);
    ingest_wave(&service, "gamma", 0..40, 1.1);
    ingest_wave(&service, "alpha", 40..60, 0.0);
    service.refresh_dirty().unwrap();
    let live_alpha = service.model("alpha").unwrap().unwrap();
    let live_gamma = service.model("gamma").unwrap().unwrap();
    drop(service);

    // One byte of the body, past the 20-byte magic, version and checksum.
    let snapshot_path = dir.join(sieve_wal::snapshot_file_name(1));
    let mut bytes = std::fs::read(&snapshot_path).unwrap();
    let at = 20 + (bytes.len() - 20) / 2;
    bytes[at] ^= 0x04;
    std::fs::write(&snapshot_path, &bytes).unwrap();

    let (recovered, report) = SieveService::recover(config).unwrap();
    let corrupt: Vec<usize> = report
        .shards
        .iter()
        .filter(|s| s.snapshot_corrupt)
        .map(|s| s.shard)
        .collect();
    assert_eq!(corrupt, vec![1]);
    // Beta and epsilon were created inside the lost snapshot: each tail
    // wave is an event of a name no surviving record introduces.
    let one_wave_lost = TenantRecovery::Recovered {
        points_replayed: 0,
        lost_suffix: crate::LostSuffix {
            events: 1,
            points: 40,
        },
    };
    assert_eq!(report.tenant("beta"), Some(&one_wave_lost));
    assert_eq!(report.tenant("epsilon"), Some(&one_wave_lost));
    assert_eq!(report.degraded_tenants(), vec!["beta", "epsilon"]);
    assert_eq!(recovered.tenants(), vec!["alpha", "gamma"]);
    recovered.refresh_dirty().unwrap();
    assert_eq!(*recovered.model("alpha").unwrap().unwrap(), *live_alpha);
    assert_eq!(*recovered.model("gamma").unwrap().unwrap(), *live_gamma);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_counts_the_metric_ids_it_decodes_and_the_watermarks_it_places() {
    let dir = temp_dir("id-counts");
    // One shard: a single log holding three tenants' batches, interleaved.
    let config = tiny_config()
        .with_shard_count(1)
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(1_000_000));
    let service = SieveService::new(config.clone()).unwrap();
    for name in ["alpha", "beta", "gamma"] {
        service.create_tenant(name, web_db_graph()).unwrap();
    }
    for round in 0..3u64 {
        for (bias, name) in ["alpha", "beta", "gamma"].into_iter().enumerate() {
            ingest_wave(&service, name, round * 10..(round + 1) * 10, bias as f64);
        }
    }
    service.set_call_graph("beta", CallGraph::new()).unwrap();
    drop(service);
    let log_len = std::fs::metadata(dir.join(sieve_wal::log_file_name(0)))
        .unwrap()
        .len();

    let (_, report) = SieveService::recover(config).unwrap();
    assert!(report.is_clean(), "{report}");
    let shard = &report.shards[0];
    assert_eq!(shard.log_bytes, log_len, "the whole log was read");
    // Nine batches of 40 points and 4 watermarks over the same 4 series,
    // none per point, which names its series by slot. Each tenant's first
    // batch creates its 4 series and spells their ids; the other six name
    // them by place.
    assert_eq!(shard.ids_decoded, 3 * 4);
    assert_eq!(shard.watermarks_placed, 6 * 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_log_tail_spells_only_the_series_created_after_its_snapshot() {
    let dir = temp_dir("tail-bytes");
    // One shard whose fourth event trips the snapshot and empties its log.
    let config = tiny_config()
        .with_shard_count(1)
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(4));
    let service = SieveService::new(config.clone()).unwrap();
    service.create_tenant("alpha", web_db_graph()).unwrap();
    for ticks in [0..10, 10..20, 20..30] {
        ingest_wave(&service, "alpha", ticks, 0.0);
    }
    // The tail: ten ticks of `cache/hits`, which they create, a wave of the
    // four snapshot series, and ten more ticks of `cache/hits`.
    let hits = |ticks: std::ops::Range<u64>| -> Vec<MetricPoint> {
        ticks
            .map(|t| MetricPoint::new("cache", "hits", t * 500, (t % 7) as f64))
            .collect()
    };
    service.ingest("alpha", &hits(30..40)).unwrap();
    ingest_wave(&service, "alpha", 30..40, 0.0);
    service.ingest("alpha", &hits(40..50)).unwrap();
    drop(service);

    let (_, report) = SieveService::recover(config).unwrap();
    assert!(report.is_clean(), "{report}");
    let shard = &report.shards[0];
    assert_eq!(shard.frames_replayed, 3);
    // `cache/hits` is spelled once, where it was created; every other
    // watermark of the tail is a place.
    assert_eq!(shard.ids_decoded, 1);
    assert_eq!(shard.watermarks_placed, 4 + 1);
    // Each frame is a 20-byte header and a payload of the tag, the tenant
    // (4 + 5), the one-byte series count and watermark count, its
    // watermarks — a one-byte place, or a spelled id (1 + 4 + 5 + 4 + 4) —
    // the digest (8), the one-byte point count, the base timestamp (8) and
    // 10 bytes a point: a one-byte slot, its distance from the base and its
    // value. The distance takes one byte at the base, the first tick's
    // points, and two from 500 to 4,500 ms after it, the `later` points.
    let frame = |watermarks: usize, spelled: usize, points: usize, later: usize| {
        20 + 1 + 9 + 1 + 1 + watermarks + spelled * 17 + 8 + 1 + 8 + 10 * points + later
    };
    let tail = frame(1, 1, 10, 9) + frame(4, 0, 40, 36) + frame(1, 0, 10, 9);
    assert_eq!(tail, 824);
    assert_eq!(shard.log_bytes, tail as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_series_written_past_the_log_refuses_its_tenant_s_later_batches() {
    let dir = temp_dir("unlogged-series");
    let config = tiny_config()
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(1_000_000));
    let service = SieveService::new(config.clone()).unwrap();
    service.create_tenant("alpha", web_db_graph()).unwrap();
    service.create_tenant("beta", web_db_graph()).unwrap();
    ingest_wave(&service, "alpha", 0..40, 0.0);
    ingest_wave(&service, "beta", 0..40, 1.3);
    // A series no log record creates. It sorts before every logged one, so
    // each place beta's later batches log is one past the series that
    // held it when replay reaches them.
    let unlogged = sieve_simulator::store::MetricId::new("app", "boot");
    service.store("beta").unwrap().record(&unlogged, 0, 1.0);
    ingest_wave(&service, "beta", 40..50, 1.3);
    ingest_wave(&service, "alpha", 40..60, 0.0);
    ingest_wave(&service, "beta", 50..60, 1.3);
    service.refresh_dirty().unwrap();
    let live_alpha = service.model("alpha").unwrap().unwrap();
    drop(service);

    let (recovered, report) = SieveService::recover(config).unwrap();
    assert!(report.tenant("alpha").unwrap().is_clean());
    assert_eq!(
        report.tenant("beta"),
        Some(&TenantRecovery::Recovered {
            points_replayed: 160,
            lost_suffix: crate::LostSuffix {
                events: 2,
                points: 80
            },
        })
    );
    // Beta holds its logged prefix, on its own series, and nothing else.
    let beta = recovered.store("beta").unwrap();
    assert_eq!((beta.series_count(), beta.point_count()), (4, 160));
    recovered.refresh_dirty().unwrap();
    assert_eq!(*recovered.model("alpha").unwrap().unwrap(), *live_alpha);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appends to the log of `tenant`'s shard a whole frame, checksum and all,
/// whose payload is `payload`, numbered after the log's last frame; returns
/// the shard and the frame's offset.
fn append_verified_frame(
    dir: &std::path::Path,
    config: &ServeConfig,
    tenant: &str,
    payload: &[u8],
) -> (usize, u64) {
    let shard = sieve_exec::hash::shard_index(tenant, config.shard_count);
    let log_path = dir.join(sieve_wal::log_file_name(shard));
    let bytes = std::fs::read(&log_path).unwrap();
    let seq = sieve_wal::scan_log(&bytes).last_seq().unwrap() + 1;
    let log = sieve_wal::GroupCommitLog::open(&log_path, seq, crate::FsyncPolicy::Never).unwrap();
    log.commit_through(log.stage_encoded(payload)).unwrap();
    (shard, bytes.len() as u64)
}

/// Asserts that recovering `dir` is refused as another build's frame of
/// `tag` at the given shard and offset, and that the refusal changed no
/// byte on disk.
fn assert_recover_refuses_tag(
    dir: &std::path::Path,
    config: ServeConfig,
    (shard, offset): (usize, u64),
    tag: u8,
) {
    let before = dir_bytes(dir);
    match SieveService::recover(config) {
        Err(ServeError::UnknownEventTag {
            shard: found_shard,
            offset: found_offset,
            tag: found_tag,
        }) => assert_eq!((found_shard, found_offset, found_tag), (shard, offset, tag)),
        other => panic!(
            "expected tag {tag} refused, got {:?}",
            other.map(|(_, report)| report.to_string())
        ),
    }
    assert_eq!(
        dir_bytes(dir),
        before,
        "a refusal leaves the directory as found"
    );
}

/// A durable directory of two tenants whose logs end in ingest frames.
fn directory_to_extend(dir: &std::path::Path) -> ServeConfig {
    let config = tiny_config()
        .with_durability(crate::DurabilityConfig::new(dir).with_snapshot_every_events(1_000_000));
    let service = SieveService::new(config.clone()).unwrap();
    for name in ["alpha", "beta"] {
        service.create_tenant(name, web_db_graph()).unwrap();
        ingest_wave(&service, name, 0..20, 0.5);
    }
    config
}

#[test]
fn a_verified_frame_of_an_unknown_tag_is_refused_not_truncated() {
    let dir = temp_dir("unknown-tag-7");
    let config = directory_to_extend(&dir);
    // A tag no build has written yet, with a body this build cannot judge.
    let at = append_verified_frame(&dir, &config, "beta", &[7, 0xA5, 0x5A, 0x00]);
    assert_recover_refuses_tag(&dir, config, at, 7);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_verified_frame_of_the_retired_tag_1_is_refused_not_truncated() {
    let dir = temp_dir("unknown-tag-1");
    let config = directory_to_extend(&dir);
    // A tenant-created record in tag 1's framing: tag 5's, with two bytes
    // more after the configuration. A call-graph record ends in the same
    // graph bytes, after its tag and the name.
    let (mut payload, mut graph) = (Vec::new(), Vec::new());
    let tenant = Name::new("gamma");
    let call_graph = web_db_graph();
    WalEvent::TenantCreated {
        tenant: tenant.clone(),
        config: Box::new(config.analysis.clone()),
        call_graph: call_graph.clone(),
    }
    .encode(&mut payload);
    WalEvent::CallGraphReplaced { tenant, call_graph }.encode(&mut graph);
    let configured = payload.len() - (graph.len() - (1 + 4 + "gamma".len()));
    payload[0] = 1;
    payload.splice(configured..configured, [0, 0]);
    let at = append_verified_frame(&dir, &config, "alpha", &payload);
    assert_recover_refuses_tag(&dir, config, at, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts that recovering `dir` is refused as being of another on-disk
/// format, as `expected` names it, and that the refusal changed no byte on
/// disk.
fn assert_recover_refuses_format(dir: &std::path::Path, config: ServeConfig, expected: &str) {
    let before = dir_bytes(dir);
    match SieveService::recover(config) {
        Err(error @ (ServeError::FormatTooOld { .. } | ServeError::FormatTooNew { .. })) => {
            assert_eq!(format!("{error:?}"), expected);
        }
        other => panic!(
            "expected {expected}, got {:?}",
            other.map(|(_, report)| report.to_string())
        ),
    }
    assert_eq!(
        dir_bytes(dir),
        before,
        "a refusal leaves the directory as found"
    );
}

#[test]
fn a_directory_of_another_format_is_refused_and_left_untouched() {
    let dir = temp_dir("other-format");
    let config = directory_to_extend(&dir);
    let record = dir.join(sieve_wal::FORMAT_FILE_NAME);
    let ours = std::fs::read(&record).unwrap();
    assert_eq!(ours[8..], sieve_wal::FORMAT.to_le_bytes());
    // The record names the number after its eight-byte magic.
    let naming = |format: u32| [&ours[..8], &format.to_le_bytes()].concat();

    // Shard files beside no record: every build before format records.
    std::fs::remove_file(&record).unwrap();
    assert_recover_refuses_format(&dir, config.clone(), "FormatTooOld { found: None }");
    std::fs::write(&record, naming(sieve_wal::FORMAT - 1)).unwrap();
    assert_recover_refuses_format(&dir, config.clone(), "FormatTooOld { found: Some(7) }");
    // The next format: a later build wrote the directory, and rolling back
    // to this one refuses it rather than reading its snapshots as corrupt.
    std::fs::write(&record, naming(sieve_wal::FORMAT + 1)).unwrap();
    assert_recover_refuses_format(&dir, config.clone(), "FormatTooNew { found: 9 }");

    // Named right again, the same directory recovers clean.
    std::fs::write(&record, &ours).unwrap();
    let (recovered, report) = SieveService::recover(config.clone()).unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(recovered.tenants(), vec!["alpha", "beta"]);
    drop(recovered);

    // A directory without shard files is fresh, whatever record it holds,
    // and recovering it writes this build's record.
    for (name, _) in dir_bytes(&dir) {
        if name.to_string_lossy().starts_with("wal-shard-") {
            std::fs::remove_file(dir.join(name)).unwrap();
        }
    }
    std::fs::write(&record, naming(sieve_wal::FORMAT + 1)).unwrap();
    let (fresh, report) = SieveService::recover(config).unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(fresh.tenant_count(), 0);
    assert_eq!(std::fs::read(&record).unwrap(), ours);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_version_other_than_the_directory_s_format_is_corruption() {
    let dir = temp_dir("snapshot-version");
    // One shard, snapshotted after its third event: `acme`'s creation and
    // two waves are in the snapshot, the third wave is the log tail.
    let config = tiny_config()
        .with_shard_count(1)
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(3));
    let service = SieveService::new(config.clone()).unwrap();
    service.create_tenant("acme", web_db_graph()).unwrap();
    for round in 0..3u64 {
        ingest_wave(&service, "acme", round * 10..(round + 1) * 10, 0.0);
    }
    drop(service);
    let crashed = dir_bytes(&dir);
    let path = dir.join(sieve_wal::snapshot_file_name(0));
    let ours = std::fs::read(&path).unwrap();
    assert_eq!(ours[8..12], sieve_wal::FORMAT.to_le_bytes());

    // The directory names this build's format, so a snapshot that names
    // another is damaged, not foreign: a flipped bit of the field, or the
    // next format's number. Recovery falls back to the log, which no
    // longer holds `acme`'s creation record.
    for version in [sieve_wal::FORMAT ^ 1, sieve_wal::FORMAT + 1] {
        let mut flipped = ours.clone();
        flipped[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &flipped).unwrap();
        let (recovered, report) = SieveService::recover(config.clone()).unwrap();
        let shard = &report.shards[0];
        assert!(shard.snapshot_corrupt, "version {version}");
        assert_eq!(shard.snapshot_last_seq, 0, "version {version}");
        assert_eq!(recovered.tenant_count(), 0, "version {version}");
        assert_eq!(
            report.tenant("acme").and_then(|t| t.lost_suffix()).copied(),
            Some(crate::LostSuffix {
                events: 1,
                points: 40
            }),
            "version {version}: the tail wave of a tenant no record introduces"
        );
        drop(recovered);
        // Recovery re-anchored the shard whose snapshot was corrupt; put the
        // crashed files back.
        for (name, bytes) in &crashed {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_times_its_stages_within_its_own_elapsed_time() {
    let dir = temp_dir("stage-times");
    let config = tiny_config()
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(1_000_000));
    let service = SieveService::new(config.clone()).unwrap();
    for (bias, name) in ["alpha", "beta", "gamma"].into_iter().enumerate() {
        service.create_tenant(name, web_db_graph()).unwrap();
        ingest_wave(&service, name, 0..40, bias as f64);
    }
    drop(service);

    let started = std::time::Instant::now();
    let (_, report) = SieveService::recover(config).unwrap();
    let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap();
    assert!(report.is_clean(), "{report}");
    assert!(report.shards.iter().any(|shard| shard.frames_replayed > 0));
    let mut staged = report.reanchor_ns;
    for shard in &report.shards {
        if shard.frames_replayed > 0 {
            assert!(shard.replay_ns > 0, "shard {}", shard.shard);
        }
        staged += shard.snapshot_ns + shard.log_read_ns + shard.replay_ns + shard.rehydrate_ns;
    }
    assert!(report.reanchor_ns > 0);
    assert!(
        staged <= elapsed,
        "the stages sum to {staged} ns of the call's {elapsed} ns"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshots_bound_replay_and_recovery_reads_snapshot_plus_tail() {
    let dir = temp_dir("snapshot-cadence");
    let config = tiny_config()
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(3));
    let service = SieveService::new(config.clone()).unwrap();
    service.create_tenant("acme", web_db_graph()).unwrap(); // event 1
    for event in 2..=6u64 {
        // Events 2..=6, one of every mutation kind: each is exactly one
        // cadence event, so snapshots fire after events 3 and 6, each
        // truncating the log.
        match event {
            3 => service.set_call_graph("acme", CallGraph::new()).unwrap(),
            5 => service
                .set_retention("acme", RetentionPolicy::windowed(30))
                .unwrap(),
            _ => ingest_wave(&service, "acme", event * 20..(event + 1) * 20, 0.0),
        }
    }
    service.refresh_dirty().unwrap();
    let live = service.model("acme").unwrap().unwrap();
    drop(service);

    let (recovered, report) = SieveService::recover(config).unwrap();
    assert!(report.is_clean(), "{report}");
    let shard = sieve_exec::hash::shard_index("acme", 4);
    let shard_report = report.shards.iter().find(|s| s.shard == shard).unwrap();
    assert_eq!(
        shard_report.snapshot_last_seq, 6,
        "recovery restored from the latest snapshot"
    );
    assert_eq!(
        shard_report.frames_replayed, 0,
        "the snapshot covered the whole history, nothing to replay"
    );
    recovered.refresh_dirty().unwrap();
    assert_eq!(*recovered.model("acme").unwrap().unwrap(), *live);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file of a durable directory with its bytes, sorted by name.
fn dir_bytes(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .map(|entry| (entry.file_name(), std::fs::read(entry.path()).unwrap()))
        .collect();
    files.sort();
    files
}

/// Asserts that recovering `dir` under `config` is refused with a reason
/// containing `expected`, and that the refusal changed no byte on disk.
fn assert_recover_refuses(dir: &std::path::Path, config: ServeConfig, expected: &str) {
    let before = dir_bytes(dir);
    match SieveService::recover(config) {
        Err(ServeError::InvalidConfig { reason }) => {
            assert!(reason.contains(expected), "{reason}");
        }
        other => panic!(
            "expected a refusal naming `{expected}`, got {:?}",
            other.map(|(_, report)| report.to_string())
        ),
    }
    assert_eq!(
        dir_bytes(dir),
        before,
        "a refusal leaves the directory as found"
    );
}

#[test]
fn a_new_durable_service_wipes_the_previous_incarnation() {
    let dir = temp_dir("wipe");
    // Each tenant's creation and wave are two events: every shard holding a
    // tenant snapshots, and its log ends empty.
    let with_shards = |shard_count: usize| {
        tiny_config()
            .with_shard_count(shard_count)
            .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(2))
    };
    let first = SieveService::new(with_shards(8)).unwrap();
    let names: Vec<String> = (0..16).map(|i| format!("tenant-{i}")).collect();
    for name in &names {
        first.create_tenant(name.as_str(), web_db_graph()).unwrap();
        ingest_wave(&first, name, 0..40, 0.0);
    }
    drop(first);
    let populated: Vec<usize> = names
        .iter()
        .map(|name| sieve_exec::hash::shard_index(name, 8))
        .collect();
    assert!(populated.contains(&0) && populated.contains(&1));
    let layout: Vec<(usize, &[&str])> = (0..8)
        .map(|shard| {
            let kinds: &[&str] = if populated.contains(&shard) {
                &["log", "snap"]
            } else {
                &["log"]
            };
            (shard, kinds)
        })
        .collect();
    assert_layout(&dir, "the first service", &layout);

    // A directory is recovered under the shard count that wrote it, or
    // not at all. A smaller count would leave the shard files beyond it
    // unread; a larger one routes tenants away from the shard whose files
    // hold them — both used to come back "clean".
    assert_recover_refuses(&dir, with_shards(2), "shard_count is 2");
    assert_recover_refuses(&dir, with_shards(2), "the files of 8 shards");
    assert_recover_refuses(&dir, with_shards(16), "shard_count is 16");
    let (same, report) = SieveService::recover(with_shards(8)).unwrap();
    assert_eq!(same.tenant_count(), 16);
    assert!(report.is_clean(), "{report}");
    drop(same);
    assert_layout(&dir, "a clean recovery", &layout);
    // A snapshot sitting in another shard's file is refused too.
    let misplaced = dir.join(sieve_wal::snapshot_file_name(1));
    let own = std::fs::read(&misplaced).unwrap();
    std::fs::copy(dir.join(sieve_wal::snapshot_file_name(0)), &misplaced).unwrap();
    assert_recover_refuses(
        &dir,
        with_shards(8),
        "a snapshot of shard 0 in shard 1's file",
    );
    std::fs::write(&misplaced, own).unwrap();

    // `new` starts fresh: the old tenants are gone from disk too — from
    // all 8 shards, though the new service only has 2 of its own.
    let second = SieveService::new(with_shards(2)).unwrap();
    assert_eq!(second.tenant_count(), 0);
    drop(second);
    for shard_count in [2, 8] {
        let (recovered, report) = SieveService::recover(with_shards(shard_count)).unwrap();
        assert_eq!(recovered.tenant_count(), 0, "under {shard_count} shards");
        assert!(report.is_clean());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts that `dir` holds the format record and, per `(shard, kinds)`,
/// the shard's files of those kinds (`log`, `snap`, `ckpt`) — nothing else,
/// no temp file in particular.
fn assert_layout(dir: &std::path::Path, step: &str, shards: &[(usize, &[&str])]) {
    let mut expected = vec![sieve_wal::FORMAT_FILE_NAME.to_string()];
    for &(shard, kinds) in shards {
        for kind in kinds {
            expected.push(match *kind {
                "log" => sieve_wal::log_file_name(shard),
                "snap" => sieve_wal::snapshot_file_name(shard),
                _ => sieve_wal::checkpoint_file_name(shard),
            });
        }
    }
    expected.sort();
    let mut found: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    found.sort();
    assert!(
        !found.iter().any(|name| name.ends_with(".tmp")),
        "{step}: {found:?}"
    );
    assert_eq!(found, expected, "after {step}");
}

#[test]
fn a_clean_lifecycle_leaves_only_the_layout_s_files() {
    let dir = temp_dir("layout");
    let config = |shard_count| {
        tiny_config().with_shard_count(shard_count).with_durability(
            crate::DurabilityConfig::new(&dir)
                .with_fsync(crate::FsyncPolicy::Never)
                .with_snapshot_every_events(3),
        )
    };
    let route = |tenant| sieve_exec::hash::shard_index(tenant, 2);
    let (a, b) = (route("alpha"), route("gamma"));
    assert_ne!(a, b, "the two tenants live in different shards");

    let service = SieveService::new(config(2)).unwrap();
    assert_layout(&dir, "create", &[(0, &["log"]), (1, &["log"])]);

    // alpha's creation and two ingests are its shard's third event: a
    // cadence snapshot. gamma's creation is its shard's first.
    service.create_tenant("alpha", web_db_graph()).unwrap();
    ingest_wave(&service, "alpha", 0..30, 0.0);
    ingest_wave(&service, "alpha", 30..60, 0.0);
    service.create_tenant("gamma", web_db_graph()).unwrap();
    assert_layout(
        &dir,
        "a cadence snapshot",
        &[(a, &["log", "snap"]), (b, &["log"])],
    );

    // Only alpha has data, so only its shard's checkpoint is written.
    assert_eq!(service.refresh_dirty().unwrap().checkpoint_writes, 1);
    let swept: &[(usize, &[&str])] = &[(a, &["log", "snap", "ckpt"]), (b, &["log"])];
    assert_layout(&dir, "a checkpointing sweep", swept);
    drop(service);
    assert_layout(&dir, "drop", swept);

    // A clean recovery keeps every shard's files as found.
    let (recovered, report) = SieveService::recover(config(2)).unwrap();
    assert!(report.is_clean(), "{report}");
    assert!(
        report.shards.iter().all(|shard| !shard.anchored),
        "{report}"
    );
    assert_eq!(recovered.tenant_count(), 2);
    assert_layout(&dir, "recover", swept);
    drop(recovered);
    assert_layout(&dir, "drop", swept);

    let fewer = SieveService::new(config(1)).unwrap();
    assert_layout(&dir, "new with fewer shards", &[(0, &["log"])]);
    drop(fewer);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_clean_recovery_leaves_the_directory_byte_for_byte_as_found() {
    let dir = temp_dir("clean-untouched");
    // A cadence of 3: some shards recover from a snapshot plus a tail, some
    // from the log alone.
    let config = tiny_config()
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(3));
    let service = SieveService::new(config.clone()).unwrap();
    for (bias, name) in ["alpha", "beta", "gamma", "delta"].into_iter().enumerate() {
        service.create_tenant(name, web_db_graph()).unwrap();
        for round in 0..=bias as u64 {
            ingest_wave(&service, name, round * 10..(round + 1) * 10, bias as f64);
        }
    }
    service.refresh_dirty().unwrap();
    drop(service);
    let found = dir_bytes(&dir);

    let (recovered, report) = SieveService::recover(config).unwrap();
    assert!(report.is_clean(), "{report}");
    assert!(report
        .shards
        .iter()
        .any(|shard| shard.snapshot_last_seq > 0));
    assert!(report.shards.iter().any(|shard| shard.frames_replayed > 0));
    assert_eq!(
        report.shards.iter().filter(|shard| shard.anchored).count(),
        0,
        "{report}"
    );
    assert!(report.to_string().contains("(0 anchored)"), "{report}");
    assert!(
        dir_bytes(&dir) == found,
        "recover wrote to a clean directory"
    );
    drop(recovered);
    assert!(
        dir_bytes(&dir) == found,
        "the recovered service's drop wrote"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn only_the_shard_with_a_torn_tail_is_anchored() {
    let dir = temp_dir("torn-one-shard");
    let config = tiny_config()
        .with_shard_count(2)
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(1_000_000));
    let route = |tenant| sieve_exec::hash::shard_index(tenant, 2);
    let (torn, kept) = (route("alpha"), route("gamma"));
    assert_ne!(torn, kept, "the two tenants live in different shards");
    let service = SieveService::new(config.clone()).unwrap();
    for name in ["alpha", "gamma"] {
        service.create_tenant(name, web_db_graph()).unwrap();
        ingest_wave(&service, name, 0..10, 0.0);
        ingest_wave(&service, name, 10..20, 0.0);
    }
    drop(service);
    let log = dir.join(sieve_wal::log_file_name(torn));
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();
    let files = || -> BTreeMap<String, Vec<u8>> {
        let named = dir_bytes(&dir).into_iter();
        named
            .map(|(name, bytes)| (name.into_string().unwrap(), bytes))
            .collect()
    };
    let mut found = files();

    let (recovered, report) = SieveService::recover(config).unwrap();
    let anchored: Vec<usize> = report
        .shards
        .iter()
        .filter(|shard| shard.anchored)
        .map(|shard| shard.shard)
        .collect();
    assert_eq!(anchored, [torn], "{report}");
    assert!(report.shards[torn].corruption.is_some());
    // The torn shard: its log emptied, a snapshot where there was none.
    let mut now = files();
    assert_eq!(
        now.remove(&sieve_wal::log_file_name(torn)),
        Some(Vec::new())
    );
    assert!(now.remove(&sieve_wal::snapshot_file_name(torn)).is_some());
    assert!(found.remove(&sieve_wal::log_file_name(torn)).is_some());
    assert_eq!(found.remove(&sieve_wal::snapshot_file_name(torn)), None);
    // Every other file, the kept shard's log and the format record among
    // them, is byte for byte as found.
    assert!(!now[&sieve_wal::log_file_name(kept)].is_empty());
    assert!(now == found, "a file besides the torn shard's changed");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_clean_shard_is_anchored_when_its_files_need_it() {
    let dir = temp_dir("needs-anchor");
    let config = |every| {
        tiny_config()
            .with_shard_count(1)
            .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(every))
    };
    let write = |every| {
        let service = SieveService::new(config(every)).unwrap();
        service.create_tenant("acme", web_db_graph()).unwrap();
        ingest_wave(&service, "acme", 0..10, 0.0);
        ingest_wave(&service, "acme", 10..20, 0.0);
        service.refresh_dirty().unwrap();
        service.model("acme").unwrap().unwrap()
    };
    let log = dir.join(sieve_wal::log_file_name(0));
    let snapshot = dir.join(sieve_wal::snapshot_file_name(0));
    let recover = |every| {
        let (recovered, report) = SieveService::recover(config(every)).unwrap();
        assert!(report.is_clean(), "{report}");
        recovered.refresh_dirty().unwrap();
        let model = recovered.model("acme").unwrap().unwrap();
        (report.shards[0].clone(), model)
    };

    // Three frames in the log and no snapshot, recovered under a cadence
    // of three: a second crash would replay a whole cadence.
    let live = write(1_000_000);
    let logged = std::fs::read(&log).unwrap();
    let (shard, model) = recover(3);
    assert_eq!((shard.frames_replayed, shard.anchored), (3, true));
    assert_eq!(*model, *live);
    assert_eq!(std::fs::metadata(&log).unwrap().len(), 0);

    // A crash between a snapshot's rename and its log's truncation: every
    // frame of the log is at or below the snapshot's watermark.
    let live = write(3);
    assert_eq!(std::fs::metadata(&log).unwrap().len(), 0);
    std::fs::write(&log, &logged).unwrap();
    let (shard, model) = recover(1_000_000);
    assert_eq!(
        (
            shard.snapshot_last_seq,
            shard.frames_replayed,
            shard.anchored
        ),
        (3, 0, true)
    );
    assert_eq!(*model, *live);
    assert_eq!(std::fs::metadata(&log).unwrap().len(), 0);

    // A snapshot without its log: the log is created, and the directory
    // synced, by the anchor.
    std::fs::remove_file(&log).unwrap();
    let (shard, model) = recover(1_000_000);
    assert_eq!((shard.frames_replayed, shard.anchored), (0, true));
    assert_eq!(*model, *live);
    assert!(log.exists() && snapshot.exists());

    // And with log and snapshot in order, the same shard keeps its files.
    let (shard, _) = recover(1_000_000);
    assert!(!shard.anchored);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_clean_recovery_keeps_the_snapshot_cadence_of_its_predecessor() {
    let dir = temp_dir("kept-cadence");
    const EVERY: u64 = 6;
    let config = tiny_config()
        .with_shard_count(1)
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(EVERY));
    let service = SieveService::new(config.clone()).unwrap();
    service.create_tenant("acme", web_db_graph()).unwrap();
    ingest_wave(&service, "acme", 0..10, 0.0);
    ingest_wave(&service, "acme", 10..20, 0.0);
    drop(service);

    let (recovered, report) = SieveService::recover(config.clone()).unwrap();
    let replayed = report.shards[0].frames_replayed;
    assert_eq!((replayed, report.shards[0].anchored), (3, false));
    let snapshot = dir.join(sieve_wal::snapshot_file_name(0));
    let log = dir.join(sieve_wal::log_file_name(0));
    // The predecessor's three events count towards the cadence: the shard
    // anchors on the `EVERY - 3`-th event after recovery, not before.
    for tick in 0..EVERY - replayed {
        assert!(!snapshot.exists(), "anchored after {tick} events");
        ingest_wave(&recovered, "acme", 20 + tick * 10..30 + tick * 10, 0.0);
    }
    assert!(snapshot.exists());
    assert_eq!(std::fs::metadata(&log).unwrap().len(), 0);
    recovered.refresh_dirty().unwrap();
    let live = recovered.model("acme").unwrap().unwrap();
    drop(recovered);

    let (again, report) = SieveService::recover(config).unwrap();
    assert!(report.is_clean(), "{report}");
    let shard = &report.shards[0];
    assert_eq!((shard.snapshot_last_seq, shard.frames_replayed), (EVERY, 0));
    again.refresh_dirty().unwrap();
    assert_eq!(*again.model("acme").unwrap().unwrap(), *live);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_counts_the_points_replay_appended_and_retention_evicted() {
    let dir = temp_dir("replay-evictions");
    // One shard snapshotted after its second event: acme's creation and
    // first wave are in the snapshot, the second wave is the log tail.
    let config = tiny_config()
        .with_shard_count(1)
        .with_durability(crate::DurabilityConfig::new(&dir).with_snapshot_every_events(2));
    let service = SieveService::new(config.clone()).unwrap();
    service
        .create_tenant_with_retention("acme", web_db_graph(), RetentionPolicy::windowed(20))
        .unwrap();
    // 30 ticks of 4 series into windows of 20: 40 points evicted before
    // the snapshot, then 10 ticks more evict 40 more.
    ingest_wave(&service, "acme", 0..30, 0.0);
    ingest_wave(&service, "acme", 30..40, 0.0);
    assert_eq!(service.store("acme").unwrap().evicted_point_count(), 80);
    drop(service);

    let (recovered, report) = SieveService::recover(config).unwrap();
    let shard = &report.shards[0];
    assert_eq!((shard.snapshot_last_seq, shard.frames_replayed), (2, 1));
    assert_eq!(report.tenant("acme").unwrap().points_replayed(), 40);
    assert_eq!(shard.points_evicted, 40, "only the tail's evictions count");
    assert_eq!(recovered.store("acme").unwrap().evicted_point_count(), 80);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_file_past_every_shard_count_is_refused_by_name() {
    let dir = temp_dir("stray-shard");
    let service = SieveService::new(durable_config(&dir)).unwrap();
    service.create_tenant("acme", web_db_graph()).unwrap();
    ingest_wave(&service, "acme", 0..20, 0.0);
    drop(service);
    // One past this index is no shard count: counting the directory's
    // shards must refuse the file, not overflow.
    let stray = format!("wal-shard-{}.log", usize::MAX);
    std::fs::write(dir.join(&stray), b"").unwrap();
    assert_recover_refuses(&dir, durable_config(&dir), &stray);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failing_tenants_back_off_exponentially_and_heal() {
    let service = SieveService::new(tiny_config().with_sweep_parallelism(1)).unwrap();
    service.create_tenant("bad", web_db_graph()).unwrap();
    service.create_tenant("good", web_db_graph()).unwrap();
    ingest_wave(&service, "bad", 0..80, 0.0);
    ingest_wave(&service, "good", 0..80, 0.3);
    service
        .refresh_failpoint
        .write()
        .unwrap()
        .insert("bad".to_string());

    // Sweep 1: the bad tenant fails (the error is surfaced), the good
    // tenant still publishes.
    let err = service.refresh_dirty().unwrap_err();
    assert!(matches!(err, ServeError::Analysis { ref tenant, .. } if tenant == "bad"));
    assert!(service.model("good").unwrap().is_some());
    assert!(service.model("bad").unwrap().is_none());
    let stats = service.stats();
    assert_eq!(stats.refresh_failures, 1);
    assert_eq!(stats.tenants_degraded, 1);

    // Sweep 2: streak 1 delays by 1 sweep, so the tenant is retried —
    // and fails again (streak 2, delay 2).
    assert!(service.refresh_dirty().is_err());
    assert_eq!(service.stats().refresh_failures, 2);
    // Sweep 3: inside the backoff window — skipped, so the sweep is
    // clean and cheap.
    let stats = service.refresh_dirty().unwrap();
    assert_eq!(stats.tenants_refreshed, 0);
    assert_eq!(stats.tenants_degraded, 1);
    // Sweep 4: window over, retried, fails (streak 3, delay 4).
    assert!(service.refresh_dirty().is_err());
    assert_eq!(service.stats().refresh_failures, 3);

    // Heal the tenant. It is still in backoff for sweeps 5..=7 — the
    // deferred work survives the wait — and succeeds at sweep 8.
    service.refresh_failpoint.write().unwrap().clear();
    for _ in 0..3 {
        assert_eq!(service.refresh_dirty().unwrap().tenants_refreshed, 0);
    }
    let stats = service.refresh_dirty().unwrap();
    assert_eq!(stats.tenants_refreshed, 1, "healed tenant republished");
    assert_eq!(stats.tenants_degraded, 0, "backoff reset on success");
    assert_eq!(stats.refresh_failures, 3, "cumulative count remains");
    assert!(service.model("bad").unwrap().is_some());
}

#[test]
fn refresh_all_ignores_backoff() {
    let service = SieveService::new(tiny_config().with_sweep_parallelism(1)).unwrap();
    service.create_tenant("bad", web_db_graph()).unwrap();
    ingest_wave(&service, "bad", 0..80, 0.0);
    service
        .refresh_failpoint
        .write()
        .unwrap()
        .insert("bad".to_string());
    assert!(service.refresh_dirty().is_err()); // streak 1
    assert!(service.refresh_dirty().is_err()); // streak 2 → backoff 2
                                               // refresh_dirty would skip the tenant now; refresh_all retries it
                                               // anyway and surfaces the failure.
    assert!(service.refresh_all().is_err());
    assert_eq!(service.stats().refresh_failures, 3);
}

#[test]
fn refresh_all_matches_refresh_dirty_results() {
    let service = SieveService::new(tiny_config()).unwrap();
    service.create_tenant("acme", web_db_graph()).unwrap();
    ingest_wave(&service, "acme", 0..80, 0.0);
    service.refresh_dirty().unwrap();
    let dirty_model = service.model("acme").unwrap().unwrap();

    let stats = service.refresh_all().unwrap();
    assert_eq!(stats.tenants_refreshed, 1);
    let all_model = service.model("acme").unwrap().unwrap();
    assert_eq!(*dirty_model, *all_model);
}
