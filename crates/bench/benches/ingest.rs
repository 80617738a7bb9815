//! Benchmark of the durable ingest dataplane: N concurrent writers per
//! service, cross-thread WAL group commit, background refresh sweeps.
//!
//! Run with: `cargo bench -p sieve-bench --bench ingest`
//!
//! Grids {1, 4, 8} writer threads against fsync policies
//! {always, every8, never}, each with a `refresh_dirty` sweeper running
//! concurrently — the contended steady state of a durable service. A
//! *serialized* baseline (one global mutex around every ingest call,
//! i.e. the pre-group-commit behaviour of one writer's critical section
//! at a time) anchors the speedup claim: on a multi-core box the
//! group-committed dataplane must clear 2x the serialized throughput at
//! 8 writers under `FsyncPolicy::Always`.
//!
//! `SIEVE_BENCH_SMOKE=1` (used by CI) shrinks the workload and skips the
//! wall-clock assertion, but keeps the correctness checks: accepted
//! point counts are exact, and a mid-bench kill must recover models
//! bit-identical to the live service's.

use sieve_bench::harness::{smoke_mode, Runner};
use sieve_bench::ledger::Ledger;
use sieve_core::config::SieveConfig;
use sieve_exec::par::hardware_parallelism;
use sieve_serve::{DurabilityConfig, FsyncPolicy, MetricPoint, ServeConfig, SieveService};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TENANTS: usize = 8;

fn serve_config(dir: &Path, fsync: FsyncPolicy) -> ServeConfig {
    ServeConfig::default()
        .with_shard_count(4)
        .with_sweep_parallelism(2)
        .with_analysis(
            SieveConfig::default()
                .with_cluster_range(2, 2)
                .with_parallelism(1),
        )
        .with_durability(
            DurabilityConfig::new(dir)
                .with_fsync(fsync)
                // Mid-bench cadence trips exercise snapshot-vs-writer
                // contention on the shard admin locks.
                .with_snapshot_every_events(32),
        )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sieve-bench-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tenant_name(tenant: usize) -> String {
    format!("tenant-{tenant:02}")
}

fn call_graph() -> sieve_graph::CallGraph {
    let mut graph = sieve_graph::CallGraph::new();
    graph.record_calls("web", "db", 100);
    graph
}

/// One tenant's batch `round`: four monotone series plus one stale point
/// the store rejects (so the WAL encoder's rejected-index skip is on the
/// measured path).
fn batch(tenant: usize, round: u64, ticks: u64) -> Vec<MetricPoint> {
    let bias = tenant as f64 * 0.9;
    let mut points: Vec<MetricPoint> = (round * ticks..(round + 1) * ticks)
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
    points.push(MetricPoint::new("web", "requests", round * 250, -1.0));
    points
}

/// Runs the full workload against a fresh durable service: `writers`
/// threads ingesting disjoint tenant partitions (tenant `t` belongs to
/// writer `t % writers`), a sweeper refreshing throughout, and — when
/// `serialize` is set — a global mutex forcing one ingest call at a time
/// (the baseline the group-commit dataplane is measured against).
/// Returns the total accepted point count.
fn run_workload(
    dir: &Path,
    fsync: FsyncPolicy,
    writers: usize,
    rounds: u64,
    ticks: u64,
    serialize: bool,
) -> u64 {
    let service = Arc::new(SieveService::new(serve_config(dir, fsync)).unwrap());
    for tenant in 0..TENANTS {
        service
            .create_tenant(tenant_name(tenant), call_graph())
            .unwrap();
    }
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
    let gate = Mutex::new(());
    let accepted: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for writer in 0..writers {
            let service = Arc::clone(&service);
            let gate = &gate;
            handles.push(scope.spawn(move || {
                let mut accepted = 0u64;
                for round in 0..rounds {
                    for tenant in (writer..TENANTS).step_by(writers) {
                        let points = batch(tenant, round, ticks);
                        let _serialized = serialize.then(|| gate.lock().unwrap());
                        accepted += service.ingest(&tenant_name(tenant), &points).unwrap() as u64;
                    }
                }
                accepted
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    sweeping.store(false, Ordering::Relaxed);
    sweeper.join().unwrap();
    assert_eq!(
        accepted,
        TENANTS as u64 * rounds * ticks * 4,
        "every monotone point must be accepted, every stale one rejected"
    );
    accepted
}

/// Kills a service halfway through the workload (drop without any
/// orderly shutdown) and asserts recovery republishes every tenant's
/// model bit-identically.
fn kill_and_recover(rounds: u64, ticks: u64) {
    let dir = temp_dir("kill");
    let service = SieveService::new(serve_config(&dir, FsyncPolicy::EveryN(8))).unwrap();
    for tenant in 0..TENANTS {
        service
            .create_tenant(tenant_name(tenant), call_graph())
            .unwrap();
    }
    std::thread::scope(|scope| {
        for writer in 0..4usize {
            let service = &service;
            scope.spawn(move || {
                for round in 0..rounds.div_ceil(2) {
                    for tenant in (writer..TENANTS).step_by(4) {
                        service
                            .ingest(&tenant_name(tenant), &batch(tenant, round, ticks))
                            .unwrap();
                    }
                }
            });
        }
    });
    service.refresh_all().unwrap();
    let live: Vec<_> = (0..TENANTS)
        .map(|tenant| service.model(&tenant_name(tenant)).unwrap().unwrap())
        .collect();
    drop(service); // the kill: nothing beyond committed frames survives

    let (recovered, report) =
        SieveService::recover(serve_config(&dir, FsyncPolicy::EveryN(8))).unwrap();
    assert!(report.is_clean(), "{report}");
    recovered.refresh_dirty().unwrap();
    for (tenant, live_model) in live.iter().enumerate() {
        let name = tenant_name(tenant);
        assert_eq!(
            *recovered.model(&name).unwrap().unwrap(),
            **live_model,
            "{name}: mid-bench kill must recover bit-identically"
        );
    }
    println!("ingest: mid-bench kill recovered {TENANTS} tenants bit-identically");
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let mut runner = Runner::new();
    let (rounds, ticks, iters) = if smoke_mode() {
        (4u64, 10u64, 1usize)
    } else {
        (24u64, 40u64, 3usize)
    };
    let points_per_run = TENANTS as u64 * rounds * ticks * 4;

    let policies = [
        ("always", FsyncPolicy::Always),
        ("every8", FsyncPolicy::EveryN(8)),
        ("never", FsyncPolicy::Never),
    ];
    for (tag, fsync) in policies {
        for writers in [1usize, 4, 8] {
            let dir = temp_dir(&format!("{tag}-w{writers}"));
            runner.bench(&format!("ingest/{tag}/w{writers}"), iters, || {
                run_workload(&dir, fsync, writers, rounds, ticks, false)
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
        // The serialized baseline: 8 writer threads, one global ingest
        // mutex — what the dataplane would do if every durable mutation
        // still serialized on a per-shard log lock end to end.
        let dir = temp_dir(&format!("{tag}-serial"));
        runner.bench(&format!("ingest/{tag}/w8-serialized"), iters, || {
            run_workload(&dir, fsync, 8, rounds, ticks, true)
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    kill_and_recover(rounds, ticks);

    let throughput = |name: &str| -> f64 {
        let best: Duration = runner.measurement(name).unwrap().min();
        points_per_run as f64 / best.as_secs_f64().max(1e-12)
    };
    for (tag, _) in policies {
        println!(
            "ingest/{tag}: w1 {:.0} pts/s | w8 {:.0} pts/s | w8-serialized {:.0} pts/s",
            throughput(&format!("ingest/{tag}/w1")),
            throughput(&format!("ingest/{tag}/w8")),
            throughput(&format!("ingest/{tag}/w8-serialized")),
        );
    }
    if !smoke_mode() && hardware_parallelism() >= 4 {
        let grouped = throughput("ingest/always/w8");
        let serialized = throughput("ingest/always/w8-serialized");
        assert!(
            grouped >= 2.0 * serialized,
            "group-committed ingest must clear 2x the serialized baseline \
             at 8 writers under fsync=always: got {grouped:.0} vs {serialized:.0} pts/s"
        );
        println!(
            "ingest: multi-writer speedup {:.2}x over serialized (threshold 2x)",
            grouped / serialized
        );
    } else {
        println!("ingest: wall-clock assertion skipped (smoke mode or <4 cores)");
    }

    let ledger = Ledger::new("ingest");
    ledger.record_all(
        runner.measurements(),
        "8 tenants, 4 shards, concurrent sweeps; writers x fsync grid vs serialized baseline",
    );
    println!("ingest: {}", ledger.outcome());
}
