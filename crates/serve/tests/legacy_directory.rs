//! A durable directory written by the build before ingest frames named
//! their series by slot and snapshots checksummed their body in four lanes:
//! a version-3 snapshot covering three events and a log tail of two tag-4
//! ingest frames, pinned as the bytes that build wrote
//! (`fixtures/parent-tag4-v3`: `write_history` run on that build, under
//! `config`).
//!
//! Today's build must recover it clean, publish the models a live service
//! fed the same points publishes, and re-anchor it in today's formats: the
//! next snapshot is version 4 and the next ingest frame tag 6.

use sieve_core::config::SieveConfig;
use sieve_graph::CallGraph;
use sieve_serve::{DurabilityConfig, FsyncPolicy, MetricPoint, ServeConfig, SieveService};
use sieve_wal::frame::HEADER_LEN;
use sieve_wal::{log_file_name, snapshot_file_name};
use std::path::{Path, PathBuf};

const LOG: &[u8] = include_bytes!("fixtures/parent-tag4-v3/wal-shard-0.log");
const SNAPSHOT: &[u8] = include_bytes!("fixtures/parent-tag4-v3/wal-shard-0.snap");

fn analysis() -> SieveConfig {
    SieveConfig::default()
        .with_cluster_range(2, 2)
        .with_parallelism(1)
}

/// The configuration the fixture was written under: one shard, a snapshot
/// every three events.
fn config(dir: &Path) -> ServeConfig {
    ServeConfig::default()
        .with_shard_count(1)
        .with_sweep_parallelism(1)
        .with_analysis(analysis())
        .with_durability(
            DurabilityConfig::new(dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_events(3),
        )
}

/// Four series over `ticks`, in exact arithmetic so every host computes
/// the values the fixture holds.
fn wave(ticks: std::ops::Range<u64>) -> Vec<MetricPoint> {
    ticks
        .flat_map(|t| {
            [
                MetricPoint::new("web", "requests", t * 500, (t * 7 % 11) as f64 * 0.5),
                MetricPoint::new("web", "latency", t * 500, (t * 5 % 13) as f64 - 6.0),
                MetricPoint::new("db", "queries", t * 500, (t * 3 % 7) as f64 * 1.25),
                MetricPoint::new("db", "io_wait", t * 500, (t * t % 17) as f64 / 4.0),
            ]
        })
        .collect()
}

/// What the fixture's service was told: create `acme`, then four waves of
/// eight ticks. The third event tripped the snapshot; waves three and four
/// are the log tail.
fn write_history(service: &SieveService) {
    let mut graph = CallGraph::new();
    graph.record_calls("web", "db", 100);
    service.create_tenant("acme", graph).unwrap();
    for index in 0..4u64 {
        let points = wave(index * 8..(index + 1) * 8);
        assert_eq!(service.ingest("acme", &points).unwrap(), points.len());
    }
}

/// The event tag of every frame of `log`.
fn frame_tags(log: &[u8]) -> Vec<u8> {
    let (mut tags, mut at) = (Vec::new(), 0);
    while at < log.len() {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        tags.push(log[at + HEADER_LEN]);
        at += HEADER_LEN + len;
    }
    tags
}

fn snapshot_version(snapshot: &[u8]) -> u32 {
    u32::from_le_bytes(snapshot[8..12].try_into().unwrap())
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sieve-legacy-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_directory_written_before_slots_recovers_clean_in_today_s_formats() {
    assert_eq!(snapshot_version(SNAPSHOT), 3);
    assert_eq!(frame_tags(LOG), vec![4, 4]);
    let dir = temp_dir();
    std::fs::write(dir.join(log_file_name(0)), LOG).unwrap();
    std::fs::write(dir.join(snapshot_file_name(0)), SNAPSHOT).unwrap();

    let live = SieveService::new(
        ServeConfig::default()
            .with_shard_count(1)
            .with_analysis(analysis()),
    )
    .unwrap();
    write_history(&live);
    live.refresh_dirty().unwrap();

    let (recovered, report) = SieveService::recover(config(&dir)).unwrap();
    assert!(report.is_clean(), "{report}");
    let shard = &report.shards[0];
    assert_eq!((shard.snapshot_last_seq, shard.frames_replayed), (3, 2));
    assert_eq!(shard.log_bytes, LOG.len() as u64);
    // A tag-4 frame spells out each point's id: 64 points, 8 watermarks.
    assert_eq!(shard.ids_decoded, 64 + 8);
    assert_eq!(report.points_replayed(), 64);
    recovered.refresh_dirty().unwrap();
    assert_eq!(
        *recovered.model("acme").unwrap().unwrap(),
        *live.model("acme").unwrap().unwrap()
    );

    // The re-anchor wrote today's snapshot, and the next ingest today's
    // frame.
    let snapshot = std::fs::read(dir.join(snapshot_file_name(0))).unwrap();
    assert_eq!(snapshot_version(&snapshot), 4);
    for service in [&recovered, &live] {
        service.ingest("acme", &wave(32..40)).unwrap();
    }
    let log = std::fs::read(dir.join(log_file_name(0))).unwrap();
    assert_eq!(frame_tags(&log), vec![6]);
    drop(recovered);

    let (again, report) = SieveService::recover(config(&dir)).unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(
        report.shards[0].ids_decoded, 4,
        "a slotted frame reads its watermarks"
    );
    again.refresh_dirty().unwrap();
    live.refresh_dirty().unwrap();
    assert_eq!(
        *again.model("acme").unwrap().unwrap(),
        *live.model("acme").unwrap().unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
