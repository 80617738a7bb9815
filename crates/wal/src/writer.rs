//! Where a shard log's bytes go and when they are forced to disk.
//!
//! The one log writer, [`crate::group::GroupCommitLog`], flushes every
//! batch of staged frames with one media write. The durability/latency
//! trade-off is the [`FsyncPolicy`]: sync every write, every N frames, or
//! never (leaving flushing to the OS — crash-unsafe but fast, fine for
//! tests and benchmarks).
//!
//! All byte traffic goes through the [`WalMedia`] trait so the group
//! commit's tests can substitute an in-memory media for the file, whose
//! media lives behind the directory's door ([`crate::dir`]).

/// When a shard log issues `fsync` after flushing buffered frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync on every write: no acknowledged event is ever lost to a
    /// crash (torn *unacknowledged* tails remain possible, and recovery
    /// handles them).
    Always,
    /// Sync once at least this many frames have been flushed since the
    /// last sync: bounded loss, amortized cost.
    EveryN(u64),
    /// Never sync; the OS flushes when it pleases. Crash-unsafe, but the
    /// log still protects against clean-process-kill and is the right
    /// mode for benchmarks.
    Never,
}

/// Destination of a shard log's bytes. The file media behind the
/// directory's door is the real thing; the in-memory test media implements
/// it too.
pub(crate) trait WalMedia: Send + std::fmt::Debug {
    /// Appends bytes at the end of the media.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Forces everything appended so far to stable storage.
    fn sync(&mut self) -> std::io::Result<()>;
}

#[cfg(test)]
pub(crate) mod testing {
    use super::WalMedia;
    use crate::event::WalEvent;
    use sieve_simulator::store::MetricId;
    use std::io;
    use std::sync::{Arc, Mutex};

    /// A one-point ingest batch stamped `t`.
    pub(crate) fn ingest(t: u64) -> WalEvent {
        WalEvent::IngestBatch {
            tenant: "acme".into(),
            points: vec![(0, t, t as f64)],
            watermarks: vec![(MetricId::new("web", "cpu"), t)],
        }
    }

    /// Shared in-memory media for unit tests: the "disk" is a `Vec` the
    /// test can inspect, syncs and successful appends are counted, and the
    /// next append can be made to fail.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct MemMedia {
        pub(crate) bytes: Arc<Mutex<Vec<u8>>>,
        pub(crate) syncs: Arc<Mutex<u64>>,
        pub(crate) appends: Arc<Mutex<u64>>,
        pub(crate) fail_next_append: Arc<Mutex<bool>>,
    }

    impl WalMedia for MemMedia {
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            if std::mem::take(&mut *self.fail_next_append.lock().unwrap()) {
                return Err(io::Error::other("injected append failure"));
            }
            *self.appends.lock().unwrap() += 1;
            self.bytes.lock().unwrap().extend_from_slice(bytes);
            Ok(())
        }

        fn sync(&mut self) -> io::Result<()> {
            *self.syncs.lock().unwrap() += 1;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::ingest;
    use super::*;
    use crate::group::GroupCommitLog;
    use crate::reader::scan_log;

    #[test]
    fn file_media_roundtrips_through_a_real_file() {
        let dir = std::env::temp_dir().join(format!("sieve-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-shard-0.log");
        let _ = std::fs::remove_file(&path);

        let log = GroupCommitLog::open(&path, 1, FsyncPolicy::Always).unwrap();
        log.stage(&ingest(500));
        log.stage(&ingest(1000));
        log.commit_all().unwrap();
        drop(log);

        let bytes = std::fs::read(&path).unwrap();
        let scanned = scan_log(&bytes);
        assert!(scanned.corruption.is_none());
        assert_eq!(scanned.applied.len(), 2);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
