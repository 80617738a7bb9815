//! Benchmark of crash recovery: replay throughput of the per-shard
//! write-ahead log, with and without a snapshot bounding the log tail.
//!
//! Run with: `cargo bench -p sieve-bench --bench recovery`
//!
//! `SIEVE_BENCH_SMOKE=1` (used by CI) shrinks the workload while keeping
//! the correctness assertion: every recovered service must publish models
//! bit-identical to the crashed live service's.

use sieve_bench::harness::{smoke_mode, Runner};
use sieve_bench::ledger::Ledger;
use sieve_core::config::SieveConfig;
use sieve_core::model::SieveModel;
use sieve_serve::{DurabilityConfig, FsyncPolicy, MetricPoint, ServeConfig, SieveService};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Serial per-tenant analysis; the bench measures durability, not the
/// analysis fan-out.
fn analysis_config() -> SieveConfig {
    SieveConfig::default()
        .with_cluster_range(2, 3)
        .with_parallelism(1)
}

fn serve_config(dir: &Path, snapshot_every: u64) -> ServeConfig {
    ServeConfig::default()
        .with_shard_count(16)
        .with_sweep_parallelism(4)
        .with_analysis(analysis_config())
        .with_durability(
            // The bench measures replay, not the disk's sync latency.
            DurabilityConfig::new(dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_events(snapshot_every),
        )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sieve-bench-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn tenant_names(count: usize) -> Vec<String> {
    (0..count).map(|i| format!("tenant-{i:02}")).collect()
}

fn wave(tenant_index: usize, ticks: std::ops::Range<u64>) -> Vec<MetricPoint> {
    let bias = tenant_index as f64 * 0.9;
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

fn call_graph() -> sieve_graph::CallGraph {
    let mut graph = sieve_graph::CallGraph::new();
    graph.record_calls("web", "db", 100);
    graph
}

/// Builds a durable service, runs the ingest workload against it, captures
/// its live models and "crashes" it. Returns the total accepted points.
fn crash_workload(
    dir: &Path,
    snapshot_every: u64,
    names: &[String],
    waves: u64,
    ticks_per_wave: u64,
) -> (u64, BTreeMap<String, SieveModel>) {
    let service = SieveService::new(serve_config(dir, snapshot_every)).unwrap();
    for name in names {
        service.create_tenant(name.as_str(), call_graph()).unwrap();
    }
    let mut total = 0u64;
    for round in 0..waves {
        for (i, name) in names.iter().enumerate() {
            let points = wave(i, round * ticks_per_wave..(round + 1) * ticks_per_wave);
            total += service.ingest(name, &points).unwrap() as u64;
        }
    }
    service.refresh_all().unwrap();
    let live = names
        .iter()
        .map(|name| {
            let model = service.model(name).unwrap().unwrap();
            (name.clone(), (*model).clone())
        })
        .collect();
    (total, live)
}

/// Prepares one directory copy per bench call (warm-up + measured runs):
/// `SieveService::recover` re-anchors the directory it recovers, so every
/// call needs a pristine crashed copy.
fn prepare_copies(master: &Path, tag: &str, calls: usize) -> Vec<PathBuf> {
    (0..calls)
        .map(|i| {
            let copy = temp_dir(&format!("{tag}-copy{i}"));
            copy_dir(master, &copy);
            copy
        })
        .collect()
}

fn main() {
    let mut runner = Runner::new();
    let (tenant_count, waves, ticks) = if smoke_mode() {
        (3usize, 4u64, 40u64)
    } else {
        (8usize, 10u64, 200u64)
    };
    let iters = if smoke_mode() { 1 } else { 5 };
    let names = tenant_names(tenant_count);

    // Scenario 1: the whole history lives in the log (no snapshot fired) —
    // recovery is pure frame-by-frame replay through the store machinery.
    let log_dir = temp_dir("log-only");
    let (log_points, live) = crash_workload(&log_dir, u64::MAX, &names, waves, ticks);
    let copies = prepare_copies(&log_dir, "log-only", iters + 1);
    let mut call = 0usize;
    runner.bench("recovery/replay-log", iters, || {
        let copy = &copies[call];
        call += 1;
        let (service, report) = SieveService::recover(serve_config(copy, u64::MAX)).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.points_replayed(), log_points);
        black_box(service.tenant_count())
    });

    // Scenario 2: a tight snapshot cadence keeps the log tail short —
    // recovery is dominated by snapshot decoding, not replay.
    let snap_dir = temp_dir("snapshotted");
    let (snap_points, snap_live) = crash_workload(&snap_dir, 8, &names, waves, ticks);
    assert_eq!(snap_points, log_points);
    let snap_copies = prepare_copies(&snap_dir, "snapshotted", iters + 1);
    let mut snap_call = 0usize;
    runner.bench("recovery/snapshot-plus-tail", iters, || {
        let copy = &snap_copies[snap_call];
        snap_call += 1;
        let (service, report) = SieveService::recover(serve_config(copy, 8)).unwrap();
        assert!(report.is_clean(), "{report}");
        black_box(service.tenant_count())
    });

    // Correctness: a recovered service (either path) publishes models
    // bit-identical to the crashed live service's.
    for (dir, cadence, reference) in [(&log_dir, u64::MAX, &live), (&snap_dir, 8, &snap_live)] {
        let verify = temp_dir("verify");
        copy_dir(dir, &verify);
        let (service, report) = SieveService::recover(serve_config(&verify, cadence)).unwrap();
        assert!(report.is_clean(), "{report}");
        service.refresh_dirty().unwrap();
        for name in &names {
            let recovered = service.model(name).unwrap().unwrap();
            assert_eq!(
                *recovered,
                reference[name.as_str()],
                "tenant {name}: recovered model must equal the live one"
            );
        }
        let _ = std::fs::remove_dir_all(&verify);
    }
    assert_eq!(live, snap_live, "snapshot cadence must not change models");
    println!(
        "recovery: {} tenants, {} points: recovered==live equality passed (log-only and snapshotted)",
        names.len(),
        log_points
    );

    let replay = runner.measurement("recovery/replay-log").unwrap().min();
    let throughput = log_points as f64 / replay.as_secs_f64().max(1e-12);
    println!(
        "recovery: replayed {log_points} points in {replay:.3?} ({throughput:.0} points/s, best of {iters})"
    );

    let ledger = Ledger::new("recovery");
    ledger.record_all(
        runner.measurements(),
        "per-shard WAL replay vs snapshot+tail, fsync=never",
    );
    println!("recovery: {}", ledger.outcome());

    for dir in copies.iter().chain(&snap_copies) {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(&log_dir);
    let _ = std::fs::remove_dir_all(&snap_dir);
}
