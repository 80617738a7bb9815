//! Per-shard write-ahead log and atomic snapshots for crash-safe serving.
//!
//! The serving layer keeps every tenant in memory; this crate is what
//! makes a restart survivable. The design leans entirely on the
//! determinism the rest of the workspace already proves: a [`SieveModel`]
//! is a pure function of store content, and store content is a pure
//! function of the accepted event stream — so durability reduces to
//! *persisting the event stream* and replaying it on boot. No model bytes
//! are ever written; recovery re-derives them bit-identically.
//!
//! [`SieveModel`]: sieve_core::model::SieveModel
//!
//! # Layout on disk
//!
//! One directory holds the whole service: per shard, an append-only log
//! (`wal-shard-<i>.log`) of [`event::WalEvent`]s in length-prefixed,
//! checksummed [`frame`]s, and at most one snapshot
//! (`wal-shard-<i>.snap`) capturing every tenant of the shard (frozen
//! store image, configuration, call graph) plus the log sequence number
//! it covers. Snapshots are written atomically (temp file + fsync +
//! rename) and let the log be truncated, bounding replay work.
//!
//! A shard may also hold an analysis checkpoint (`wal-shard-<i>.ckpt`,
//! [`checkpoint`]): its tenants' content-keyed analysis caches, which
//! recovery seeds sessions from. It is a cache, not state — written with no
//! fsync, and read as a miss whenever it is absent, damaged or stale.
//!
//! Beside them sits one format record (`wal-format`, [`mod@format`]) naming
//! the directory's format number: every structure in the directory has
//! that number's layout and one decoder, and a directory of another number
//! is refused rather than read.
//!
//! # Torn writes and corruption
//!
//! A crash can tear the last frame, and disks can flip bits. Every frame
//! carries a [`hash::splitmix64`]-mixed checksum over its sequence number
//! and payload; [`reader::LogFrames`] stops at the first frame that fails
//! verification and then *resynchronizes* — scanning forward for valid
//! frame headers — so the events lost to a mid-file corruption are
//! counted per tenant instead of silently discarded. Recovery applies
//! only the intact prefix and reports the exact lost suffix.
//!
//! The [`failpoint::FailpointFs`] media wrapper makes all of this
//! testable deterministically: it kills the writer at a chosen byte
//! offset and flips chosen bits in flight, so the crash/torn-write
//! property suite can replay thousands of failure scenarios without a
//! real power cut.
//!
//! [`hash::splitmix64`]: sieve_exec::hash::splitmix64

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod event;
pub mod failpoint;
pub mod format;
pub mod frame;
pub mod group;
pub mod reader;
pub mod snapshot;
pub mod writer;

pub use checkpoint::{CheckpointRead, ShardCheckpoint, TenantCheckpoint};
pub use error::WalError;
pub use event::{IngestRef, WalEvent};
pub use failpoint::FailpointFs;
pub use format::{read_format, write_format, FORMAT, FORMAT_FILE_NAME};
pub use group::{GroupCommitLog, GroupCommitStats};
pub use reader::{scan_log, Frame, LogCorruption, LogFrames, ScannedLog};
pub use snapshot::{ShardSnapshot, TenantSnapshot};
pub use writer::{FsyncPolicy, WalMedia};

/// Convenience alias for fallible WAL operations.
pub type Result<T> = std::result::Result<T, WalError>;

/// File name of shard `i`'s append-only log inside a durability
/// directory.
pub fn log_file_name(shard: usize) -> String {
    format!("wal-shard-{shard}.log")
}

/// File name of shard `i`'s snapshot inside a durability directory.
pub fn snapshot_file_name(shard: usize) -> String {
    format!("wal-shard-{shard}.snap")
}

/// File name of shard `i`'s analysis checkpoint inside a durability
/// directory.
pub fn checkpoint_file_name(shard: usize) -> String {
    format!("wal-shard-{shard}.ckpt")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_are_stable() {
        assert_eq!(log_file_name(3), "wal-shard-3.log");
        assert_eq!(snapshot_file_name(0), "wal-shard-0.snap");
        assert_eq!(checkpoint_file_name(1), "wal-shard-1.ckpt");
    }
}
