//! Durable directories written by older builds, pinned as the bytes those
//! builds wrote. This build has no reader for their layouts, so recovery
//! must refuse each as `FormatTooOld` before it reads anything else, and
//! leave every file byte for byte as it was found.
//!
//! `fixtures/parent-tag4-v3` was written by the build before format
//! records: a version-3 snapshot covering three events and a log tail of
//! two tag-4 ingest frames, and no format record. That build ran one shard
//! under `config`, created `acme` over a `web -> db` call graph, then
//! ingested four waves of eight ticks of four series; the third event
//! tripped the snapshot, and waves three and four are the log tail.
//!
//! `fixtures/parent-format5` was written by the last format-5 build
//! (commit 3621356), whose windowed stores kept two 10x / 100x aggregate
//! tiers in every snapshot and whose retention records carried their
//! capacity. It ran one shard under `config`. A wave of ticks `a..b` there
//! is one `ingest` of four series, a point each at `t * 500` ms for every
//! tick `t`, with `x = 0.17 t`: `web/requests` `4 sin x`, `web/latency`
//! `9 cos x`, `db/queries` `2 sin(x / 2)` and `db/io_wait` `cos(x / 2)`.
//! In order, it:
//!
//! 1. created `acme` over a `web -> db` call graph (100 calls) with
//!    `create_tenant_with_retention` and a window of 8;
//! 2. ingested the wave of ticks 0..32;
//! 3. ingested the wave of ticks 32..64. This third event tripped the
//!    snapshot: each series had evicted 56 points, and the snapshot holds
//!    five closed 10x tier buckets per series;
//! 4. narrowed `acme`'s window to 6 (`set_retention`), a `RetentionChanged`
//!    frame (tag 3);
//! 5. ingested the wave of ticks 64..72, a slotted ingest frame (tag 6);
//!
//! then dropped the service. Events 4 and 5 are the log tail, and the
//! format record names 5.
//!
//! `fixtures/parent-format6` was written by the last format-6 build
//! (commit 1bf4620), whose ingest frames spelled out the id of every
//! series they touched. It ran the same five steps under the same `config`
//! and the same waves; there the stores kept no tiers, so its snapshot
//! holds each series' window of 8 alone. Events 4 and 5 are the log tail,
//! and the format record names 6.
//!
//! `fixtures/parent-format7` was written by the last format-7 build
//! (commit 164f265), whose ingest frames carried a fingerprint per
//! watermark and a full timestamp per point, and whose checksums stepped
//! with two `splitmix64` calls a word. It ran the same five steps under the
//! same `config`, each wave's points tick by tick in the order the series
//! are listed above. Its snapshot body is format 6's; events 4 and 5 are
//! the log tail, and the format record names 7.
//!
//! `fixtures/parent-format8` was written by the last format-8 build
//! (commit e2a4c95), whose store fingerprints stepped with two `mix` calls
//! a point, so every fingerprint its snapshot holds and every digest its
//! log holds is of another chain than this build's. It ran the same five
//! steps under the same `config`, the waves' points in format 7's order.
//! Its frames have format 8's layout and its snapshot body is format 7's;
//! events 4 and 5 are the log tail, and the format record names 8.
//!
//! `fixtures/parent-format9` was written by the last format-9 build
//! (commit cbaebc0), whose frames were checksummed by one chain over the
//! payload and whose snapshot's four lane sums folded with `mix`. It ran
//! the same five steps under the same `config`, the waves' points in
//! format 7's order. Its frames have format 8's layout and its snapshot
//! body this build's; events 4 and 5 are the log tail, and the format
//! record names 9.

use sieve_core::SieveConfig;
use sieve_serve::{DurabilityConfig, FsyncPolicy, ServeConfig, ServeError, SieveService};
use sieve_wal::{log_file_name, snapshot_file_name, FORMAT_FILE_NAME};
use std::path::{Path, PathBuf};

/// Bytes of a frame header: the payload length (u32), the sequence number
/// and the checksum (u64 each).
const HEADER_LEN: usize = 4 + 8 + 8;

const LOG: &[u8] = include_bytes!("fixtures/parent-tag4-v3/wal-shard-0.log");
const SNAPSHOT: &[u8] = include_bytes!("fixtures/parent-tag4-v3/wal-shard-0.snap");
const FORMAT5_RECORD: &[u8] = include_bytes!("fixtures/parent-format5/wal-format");
const FORMAT5_LOG: &[u8] = include_bytes!("fixtures/parent-format5/wal-shard-0.log");
const FORMAT5_SNAPSHOT: &[u8] = include_bytes!("fixtures/parent-format5/wal-shard-0.snap");
const FORMAT6_RECORD: &[u8] = include_bytes!("fixtures/parent-format6/wal-format");
const FORMAT6_LOG: &[u8] = include_bytes!("fixtures/parent-format6/wal-shard-0.log");
const FORMAT6_SNAPSHOT: &[u8] = include_bytes!("fixtures/parent-format6/wal-shard-0.snap");
const FORMAT7_RECORD: &[u8] = include_bytes!("fixtures/parent-format7/wal-format");
const FORMAT7_LOG: &[u8] = include_bytes!("fixtures/parent-format7/wal-shard-0.log");
const FORMAT7_SNAPSHOT: &[u8] = include_bytes!("fixtures/parent-format7/wal-shard-0.snap");
const FORMAT8_RECORD: &[u8] = include_bytes!("fixtures/parent-format8/wal-format");
const FORMAT8_LOG: &[u8] = include_bytes!("fixtures/parent-format8/wal-shard-0.log");
const FORMAT8_SNAPSHOT: &[u8] = include_bytes!("fixtures/parent-format8/wal-shard-0.snap");
const FORMAT9_RECORD: &[u8] = include_bytes!("fixtures/parent-format9/wal-format");
const FORMAT9_LOG: &[u8] = include_bytes!("fixtures/parent-format9/wal-shard-0.log");
const FORMAT9_SNAPSHOT: &[u8] = include_bytes!("fixtures/parent-format9/wal-shard-0.snap");

/// The configuration every fixture was written under: one shard, a
/// snapshot every three events.
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

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sieve-legacy-{name}-{}", std::process::id()));
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

/// Writes `files` into a fresh directory and asserts that recovering it
/// is refused as `FormatTooOld { found }`, twice, and that neither refusal
/// changed a byte of it.
fn assert_refused_untouched(name: &str, files: &[(String, &[u8])], found: Option<u32>) {
    let dir = temp_dir(name);
    for (file, bytes) in files {
        std::fs::write(dir.join(file), bytes).unwrap();
    }
    let before = dir_bytes(&dir);

    // Refused, and refused again: the first refusal changed nothing.
    for attempt in 0..2 {
        match SieveService::recover(config(&dir)) {
            Err(ServeError::FormatTooOld { found: refused }) if refused == found => {}
            other => panic!(
                "attempt {attempt}: expected FormatTooOld {{ found: {found:?} }}, got {:?}",
                other.map(|(_, report)| report.to_string())
            ),
        }
        assert_eq!(dir_bytes(&dir), before, "attempt {attempt}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_directory_without_a_format_record_is_refused_untouched() {
    assert_eq!(snapshot_version(SNAPSHOT), 3);
    assert_eq!(frame_tags(LOG), vec![4, 4]);
    let files = [(log_file_name(0), LOG), (snapshot_file_name(0), SNAPSHOT)];
    assert_refused_untouched("tag4-v3", &files, None);
}

#[test]
fn a_format_5_directory_is_refused_untouched() {
    assert_eq!(FORMAT5_RECORD[8..], 5u32.to_le_bytes());
    assert_eq!(snapshot_version(FORMAT5_SNAPSHOT), 5);
    assert_eq!(frame_tags(FORMAT5_LOG), vec![3, 6]);
    let files = [
        (FORMAT_FILE_NAME.to_string(), FORMAT5_RECORD),
        (log_file_name(0), FORMAT5_LOG),
        (snapshot_file_name(0), FORMAT5_SNAPSHOT),
    ];
    assert_refused_untouched("format5", &files, Some(5));
}

#[test]
fn a_format_6_directory_is_refused_untouched() {
    assert_eq!(FORMAT6_RECORD[8..], 6u32.to_le_bytes());
    assert_eq!(snapshot_version(FORMAT6_SNAPSHOT), 6);
    assert_eq!(frame_tags(FORMAT6_LOG), vec![3, 6]);
    let files = [
        (FORMAT_FILE_NAME.to_string(), FORMAT6_RECORD),
        (log_file_name(0), FORMAT6_LOG),
        (snapshot_file_name(0), FORMAT6_SNAPSHOT),
    ];
    assert_refused_untouched("format6", &files, Some(6));
}

#[test]
fn a_format_7_directory_is_refused_untouched() {
    assert_eq!(FORMAT7_RECORD[8..], 7u32.to_le_bytes());
    assert_eq!(snapshot_version(FORMAT7_SNAPSHOT), 7);
    assert_eq!(frame_tags(FORMAT7_LOG), vec![3, 6]);
    // The snapshot body is format 6's: only the version and the checksum
    // differ.
    assert_eq!(FORMAT7_SNAPSHOT[20..], FORMAT6_SNAPSHOT[20..]);
    let files = [
        (FORMAT_FILE_NAME.to_string(), FORMAT7_RECORD),
        (log_file_name(0), FORMAT7_LOG),
        (snapshot_file_name(0), FORMAT7_SNAPSHOT),
    ];
    assert_refused_untouched("format7", &files, Some(7));
}

#[test]
fn a_format_8_directory_is_refused_untouched() {
    assert_eq!(FORMAT8_RECORD[8..], 8u32.to_le_bytes());
    assert_eq!(snapshot_version(FORMAT8_SNAPSHOT), 8);
    assert_eq!(frame_tags(FORMAT8_LOG), vec![3, 6]);
    // The snapshot body is format 7's: only the version and the checksum
    // differ.
    assert_eq!(FORMAT8_SNAPSHOT[20..], FORMAT7_SNAPSHOT[20..]);
    let files = [
        (FORMAT_FILE_NAME.to_string(), FORMAT8_RECORD),
        (log_file_name(0), FORMAT8_LOG),
        (snapshot_file_name(0), FORMAT8_SNAPSHOT),
    ];
    assert_refused_untouched("format8", &files, Some(8));
}

#[test]
fn a_format_9_directory_is_refused_untouched() {
    assert_eq!(FORMAT9_RECORD[8..], 9u32.to_le_bytes());
    assert_eq!(snapshot_version(FORMAT9_SNAPSHOT), 9);
    assert_eq!(frame_tags(FORMAT9_LOG), vec![3, 6]);
    // Format 9 re-stepped the store fingerprints a snapshot holds, and its
    // log frames kept format 8's layout: the files are as long as format
    // 8's, and the snapshot bodies differ.
    assert_eq!(FORMAT9_LOG.len(), FORMAT8_LOG.len());
    assert_eq!(FORMAT9_SNAPSHOT.len(), FORMAT8_SNAPSHOT.len());
    assert_ne!(FORMAT9_SNAPSHOT[20..], FORMAT8_SNAPSHOT[20..]);
    let files = [
        (FORMAT_FILE_NAME.to_string(), FORMAT9_RECORD),
        (log_file_name(0), FORMAT9_LOG),
        (snapshot_file_name(0), FORMAT9_SNAPSHOT),
    ];
    assert_refused_untouched("format9", &files, Some(9));
}
