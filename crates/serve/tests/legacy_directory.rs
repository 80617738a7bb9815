//! A durable directory written by the build before format records: a
//! version-3 snapshot covering three events and a log tail of two tag-4
//! ingest frames, pinned as the bytes that build wrote
//! (`fixtures/parent-tag4-v3`). That build ran one shard under `config`,
//! created `acme` over a `web -> db` call graph, then ingested four waves
//! of eight ticks of four series; the third event tripped the snapshot, and
//! waves three and four are the log tail.
//!
//! This build has no reader for those layouts, and the directory names no
//! format. Recovery must refuse it as `FormatTooOld` before it reads
//! anything else, and leave every file byte for byte as it was found.

use sieve_core::config::SieveConfig;
use sieve_serve::{DurabilityConfig, FsyncPolicy, ServeConfig, ServeError, SieveService};
use sieve_wal::frame::HEADER_LEN;
use sieve_wal::{log_file_name, snapshot_file_name};
use std::path::{Path, PathBuf};

const LOG: &[u8] = include_bytes!("fixtures/parent-tag4-v3/wal-shard-0.log");
const SNAPSHOT: &[u8] = include_bytes!("fixtures/parent-tag4-v3/wal-shard-0.snap");

/// The configuration the fixture was written under: one shard, a snapshot
/// every three events.
fn config(dir: &Path) -> ServeConfig {
    ServeConfig::default()
        .with_shard_count(1)
        .with_sweep_parallelism(1)
        .with_analysis(
            SieveConfig::default()
                .with_cluster_range(2, 2)
                .with_parallelism(1),
        )
        .with_durability(
            DurabilityConfig::new(dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_events(3),
        )
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

/// Every file of `dir` with its bytes, sorted by name.
fn dir_bytes(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .map(|entry| (entry.file_name(), std::fs::read(entry.path()).unwrap()))
        .collect();
    files.sort();
    files
}

#[test]
fn a_directory_without_a_format_record_is_refused_untouched() {
    assert_eq!(snapshot_version(SNAPSHOT), 3);
    assert_eq!(frame_tags(LOG), vec![4, 4]);
    let dir = temp_dir();
    std::fs::write(dir.join(log_file_name(0)), LOG).unwrap();
    std::fs::write(dir.join(snapshot_file_name(0)), SNAPSHOT).unwrap();
    let found = dir_bytes(&dir);

    // Refused, and refused again: the first refusal changed nothing.
    for attempt in 0..2 {
        match SieveService::recover(config(&dir)) {
            Err(ServeError::FormatTooOld { found: None }) => {}
            other => panic!(
                "attempt {attempt}: expected FormatTooOld, got {:?}",
                other.map(|(_, report)| report.to_string())
            ),
        }
        assert_eq!(dir_bytes(&dir), found, "attempt {attempt}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
