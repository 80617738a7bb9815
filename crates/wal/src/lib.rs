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
//! [`SieveModel`]: sieve_core::SieveModel
//!
//! # Layout on disk
//!
//! One directory holds the whole service: per shard, an append-only log of
//! [`WalEvent`]s in length-prefixed, checksummed frames, at most one
//! snapshot ([`ShardSnapshot`]: every tenant of the shard plus the log
//! sequence number it covers, which lets the log be truncated) and at most
//! one analysis checkpoint ([`ShardCheckpoint`], a cache recovery seeds
//! sessions from); beside them, one format record naming the directory's
//! [`FORMAT`], whose layouts alone this build reads. [`ShardDir`] is the
//! one door to it: every file, its name and the order of its writes.
//!
//! A logged ingest batch has one shape, [`IngestBatch`]: owned inside a
//! [`WalEvent`], or lent by [`LogFrames`], which decodes every batch of a
//! log into one reused buffer. Every interned name the crate decodes — an
//! admin event's tenant, a metric id's two parts, a checkpoint's members —
//! is interned at its sight, with no decode-side cache.
//!
//! # Torn writes and corruption
//!
//! A crash can tear the last frame, and disks can flip bits. Every frame
//! carries a checksum over its sequence number and payload, one
//! [`hash::fold_word`] step per word; [`LogFrames`] stops at the first
//! frame that fails
//! verification and then *resynchronizes* — scanning forward for valid
//! frame headers — so the events lost to a mid-file corruption are
//! counted per tenant instead of silently discarded. Recovery applies
//! only the intact prefix and reports the exact lost suffix.
//!
//! The serving layer's crash/torn-write property suite
//! (`crates/serve/tests/recovery_property.rs`) tests all of this
//! deterministically without a real power cut: it truncates a written log
//! at seeded offsets and flips bits in the files themselves, then checks
//! that recovery applies exactly the intact prefix.
//!
//! [`hash::fold_word`]: sieve_exec::hash::fold_word

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]

mod checkpoint;
mod codec;
mod dir;
mod error;
mod event;
mod format;
mod frame;
mod group;
mod reader;
mod snapshot;
mod writer;

pub use checkpoint::{CheckpointRead, ShardCheckpoint, TenantCheckpoint};
pub use dir::{
    checkpoint_file_name, log_file_name, snapshot_file_name, ShardDir, FORMAT_FILE_NAME,
};
pub use error::WalError;
pub use event::{IngestBatch, WalEvent};
pub use format::FORMAT;
pub use group::{GroupCommitLog, GroupCommitStats};
pub use reader::{scan_log, Frame, LogCorruption, LogFrames, ScannedLog};
pub use snapshot::{ShardSnapshot, TenantSnapshot};
pub use writer::FsyncPolicy;

/// Convenience alias for fallible WAL operations.
pub type Result<T> = std::result::Result<T, WalError>;

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
