//! The durable directory's one door: no other production code of `wal` or
//! `serve` touches the filesystem. [`ShardDir`] is the directory in terms
//! of shards; the path-level entry points ([`crate::ShardSnapshot::read`],
//! [`crate::ShardSnapshot::write_atomic`], [`crate::GroupCommitLog::open`])
//! use the same primitives.
//!
//! ```text
//! wal-format           format record (crate::FORMAT)
//! wal-shard-<i>.log    shard i's append-only log
//! wal-shard-<i>.snap   shard i's snapshot
//! wal-shard-<i>.ckpt   shard i's analysis checkpoint, a cache
//! <file>.tmp           a whole-file write of <file> in flight
//! ```
//!
//! The write orders, call by call:
//! - **create** ([`ShardDir::create`]): create the directory; remove every
//!   shard file (`log`, `snap`, `snap.tmp`, `ckpt`, `ckpt.tmp`) whatever
//!   shard count wrote it; `wal-format.tmp` create, write, `fdatasync`,
//!   rename over `wal-format`; open (create) each shard's log for
//!   appending; sync the directory.
//! - **anchor** ([`ShardDir::anchor`]): per shard, `snapshot(i)` (which
//!   commits the log), `wal-shard-<i>.snap.tmp` create, write,
//!   `fdatasync`, rename over `wal-shard-<i>.snap`; one directory sync;
//!   per shard, truncate the log and `fdatasync` it. Without the directory
//!   sync a crash could keep a truncation but not the rename before it; a
//!   crash after it leaves frames the snapshot covers, which replay skips.
//! - **re-anchor** (recovery): [`ShardDir::reopen_logs`] writes the format
//!   record as create does if the directory held no shard file, then opens
//!   each log for appending; an anchor of the shards whose files need it
//!   follows. A shard keeps its snapshot and log as found, and its writer
//!   appends after the log's last frame, when its log existed, recovery
//!   found it clean (no corrupt frame or snapshot, no tenant that lost an
//!   event), every frame it read was past the snapshot's watermark, and it
//!   replayed fewer frames than one snapshot cadence. Every other shard is
//!   anchored, every shard of a directory that held no shard file among
//!   them, so that anchor's directory sync covers the record. When every
//!   shard keeps its files, recovery writes and syncs nothing.
//! - **checkpoint** ([`ShardDir::write_checkpoint`]): `wal-shard-<i>.ckpt.tmp`
//!   create and write, remove `wal-shard-<i>.ckpt`, rename. No sync: it is
//!   a cache.
//!
//! The format record, snapshots and checkpoints are read whole
//! ([`read_whole`]) once, at recovery; a log only through
//! [`ShardDir::log_frames`]' bounded window.

use crate::checkpoint::{CheckpointRead, ShardCheckpoint};
use crate::format;
use crate::group::GroupCommitLog;
use crate::reader::LogFrames;
use crate::snapshot::ShardSnapshot;
use crate::writer::{FsyncPolicy, WalMedia};
use crate::{Result, WalError};
use std::ffi::OsString;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

/// File name of the format record inside a durability directory.
pub const FORMAT_FILE_NAME: &str = "wal-format";

/// Extensions of a shard's durable files; they make a directory written.
const DURABLE: &[&str] = &["log", "snap", "snap.tmp"];

/// Extensions of a shard's analysis checkpoint, a cache.
const CACHE: &[&str] = &["ckpt", "ckpt.tmp"];

/// File name of shard `i`'s append-only log.
pub fn log_file_name(shard: usize) -> String {
    format!("wal-shard-{shard}.log")
}

/// File name of shard `i`'s snapshot.
pub fn snapshot_file_name(shard: usize) -> String {
    format!("wal-shard-{shard}.snap")
}

/// File name of shard `i`'s analysis checkpoint.
pub fn checkpoint_file_name(shard: usize) -> String {
    format!("wal-shard-{shard}.ckpt")
}

/// A durable directory, in terms of shards; the module docs list the order
/// of every write.
#[derive(Debug)]
pub struct ShardDir {
    path: PathBuf,
    /// One past the highest shard index a durable file carried when opened.
    written: usize,
    /// Per shard index, whether its log exists: found when opened, or
    /// opened since.
    logs: Vec<bool>,
}

impl ShardDir {
    /// Creates a fresh directory of `shard_count` empty logs at sequence 1,
    /// wiping every shard file of a previous incarnation.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn create(
        path: impl Into<PathBuf>,
        shard_count: usize,
        fsync: FsyncPolicy,
    ) -> Result<(Self, Vec<GroupCommitLog>)> {
        let path = path.into();
        std::fs::create_dir_all(&path)?;
        for (_, _, file) in shard_files(&path, &[DURABLE, CACHE].concat())? {
            std::fs::remove_file(file)?;
        }
        let dir = Self {
            path,
            written: shard_count,
            logs: vec![true; shard_count],
        };
        dir.stamp_format()?;
        let logs = dir.open_logs(std::iter::repeat(1).take(shard_count), fsync)?;
        sync_dir(&dir.path)?;
        Ok((dir, logs))
    }

    /// Opens the directory for recovery (creating it if absent) and counts
    /// its shards, writing nothing.
    ///
    /// # Errors
    ///
    /// Filesystem failures, and [`WalError::Corrupt`] naming a shard file
    /// whose index is `usize::MAX`: no shard count is one past it.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        std::fs::create_dir_all(&path)?;
        let files = shard_files(&path, DURABLE)?;
        let mut written = 0;
        for (index, _, file) in &files {
            let Some(past) = index.checked_add(1) else {
                let reason = format!("{} names a shard past any shard count", file.display());
                return Err(WalError::Corrupt { offset: 0, reason });
            };
            written = written.max(past);
        }
        let mut logs = vec![false; written];
        for (index, extension, _) in files {
            logs[index] |= extension == "log";
        }
        Ok(Self {
            path,
            written,
            logs,
        })
    }

    /// The shard count that wrote the directory, 0 for one with no shard
    /// file: every shard has a log from the moment a service runs.
    pub fn written_shards(&self) -> usize {
        self.written
    }

    /// Whether shard `shard`'s log exists: it did when the directory was
    /// opened, or it was opened since.
    pub fn has_log(&self, shard: usize) -> bool {
        self.logs.get(shard).copied().unwrap_or(false)
    }

    /// The format number the record names, `None` without a record.
    ///
    /// # Errors
    ///
    /// I/O failures, and [`WalError::Corrupt`] for a record shorter than
    /// its header or without its magic.
    pub fn format(&self) -> Result<Option<u32>> {
        read_whole(&self.path.join(FORMAT_FILE_NAME))?
            .map(|record| format::parse(&record))
            .transpose()
    }

    /// Shard `shard`'s analysis checkpoint; an unreadable file is
    /// [`CheckpointRead::Corrupt`].
    pub fn read_checkpoint(&self, shard: usize) -> CheckpointRead {
        match read_whole(&self.path.join(checkpoint_file_name(shard))) {
            Ok(Some(bytes)) => ShardCheckpoint::decode(&bytes),
            Ok(None) => CheckpointRead::Missing,
            Err(e) => CheckpointRead::Corrupt {
                reason: e.to_string(),
            },
        }
    }

    /// Shard `shard`'s snapshot, `None` if it has none.
    ///
    /// # Errors
    ///
    /// As [`ShardSnapshot::read`].
    pub fn read_snapshot(&self, shard: usize) -> Result<Option<ShardSnapshot>> {
        ShardSnapshot::read(&self.path.join(snapshot_file_name(shard)))
    }

    /// The frames of shard `shard`'s log, read through a window no longer
    /// than the file; a missing log has none.
    ///
    /// # Errors
    ///
    /// I/O failures other than not-found.
    pub fn log_frames(&self, shard: usize) -> Result<LogFrames<Box<dyn Read>>> {
        let (len, log): (u64, Box<dyn Read>) =
            match File::open(self.path.join(log_file_name(shard))) {
                Ok(file) => (file.metadata()?.len(), Box::new(file)),
                Err(e) if e.kind() == ErrorKind::NotFound => (0, Box::new(std::io::empty())),
                Err(e) => return Err(e.into()),
            };
        Ok(LogFrames::new(log, len))
    }

    /// A re-anchor's first half: stamps the format record if the directory
    /// held no shard file, then opens shard `i`'s log at the `i`-th
    /// sequence number, appending after the frames it holds. An
    /// [`ShardDir::anchor`] of the shards whose files need it (the module
    /// docs' rule) must follow; for a directory that held no shard file
    /// that is every shard, and its directory sync covers the record.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn reopen_logs(
        &mut self,
        next_seqs: impl IntoIterator<Item = u64>,
        fsync: FsyncPolicy,
    ) -> Result<Vec<GroupCommitLog>> {
        if self.written == 0 {
            self.stamp_format()?;
        }
        let logs = self.open_logs(next_seqs, fsync)?;
        self.written = logs.len();
        self.logs = vec![true; logs.len()];
        Ok(logs)
    }

    /// Anchors each of the quiesced `shards` at the snapshot `snapshot(i)`
    /// returns and empties its log, in the module docs' order. No shard is
    /// no write, not even the directory sync.
    ///
    /// # Errors
    ///
    /// What `snapshot` returns, and filesystem failures: no log is emptied
    /// before its snapshot's rename is durable.
    pub fn anchor(
        &self,
        shards: impl Iterator<Item = usize> + Clone,
        mut snapshot: impl FnMut(usize) -> Result<ShardSnapshot>,
    ) -> Result<()> {
        if shards.clone().next().is_none() {
            return Ok(());
        }
        for shard in shards.clone() {
            let path = self.path.join(snapshot_file_name(shard));
            write_durable(&path, &snapshot(shard)?.encode())?;
        }
        sync_dir(&self.path)?;
        for shard in shards {
            File::create(self.path.join(log_file_name(shard)))?.sync_data()?;
        }
        Ok(())
    }

    /// Rewrites shard `shard`'s analysis checkpoint and returns its bytes.
    /// Writers of one shard take turns; a reader then finds the previous
    /// checkpoint, this one or none.
    ///
    /// # Errors
    ///
    /// Filesystem failures, leaving the previous checkpoint or none.
    pub fn write_checkpoint(&self, shard: usize, checkpoint: &ShardCheckpoint) -> Result<u64> {
        let bytes = checkpoint.encode();
        write_cache(&self.path.join(checkpoint_file_name(shard)), &bytes)?;
        Ok(bytes.len() as u64)
    }

    fn stamp_format(&self) -> Result<()> {
        write_durable(&self.path.join(FORMAT_FILE_NAME), &format::record())
    }

    fn open_logs(
        &self,
        next_seqs: impl IntoIterator<Item = u64>,
        fsync: FsyncPolicy,
    ) -> Result<Vec<GroupCommitLog>> {
        let opened = next_seqs.into_iter().enumerate().map(|(shard, next_seq)| {
            GroupCommitLog::open(&self.path.join(log_file_name(shard)), next_seq, fsync)
        });
        opened.collect()
    }
}

/// Every `wal-shard-<i>.<extension>` in `dir`, for one of `extensions`,
/// with its `i` and its extension.
fn shard_files<'e>(dir: &Path, extensions: &[&'e str]) -> Result<Vec<(usize, &'e str, PathBuf)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let found = path.file_name().and_then(|name| {
            let (index, extension) = name.to_str()?.strip_prefix("wal-shard-")?.split_once('.')?;
            let extension = extensions.iter().find(|known| **known == extension)?;
            Some((index.parse().ok()?, *extension))
        });
        if let Some((index, extension)) = found {
            files.push((index, extension, path));
        }
    }
    Ok(files)
}

/// `<path>.tmp`, built in one allocation.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = OsString::with_capacity(path.as_os_str().len() + ".tmp".len());
    name.push(path);
    name.push(".tmp");
    PathBuf::from(name)
}

/// Writes `bytes` over `path` atomically and durably: the temp file,
/// `fdatasync`, rename (durable once the directory is synced).
pub(crate) fn write_durable(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = temp_path(path);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Writes `bytes` over `path` atomically with no sync, for a cache: the
/// temp file, the removal of the old file, a rename onto the free name.
/// Renaming over an existing file makes ext4 (`auto_da_alloc`) start the
/// new file's writeback inside the `rename` — 0.3–0.5 ms for an 80 KB file
/// on a 2-vCPU ext4 host, against ~40 µs for removal and rename — and a
/// crash between the two costs only a cache.
fn write_cache(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = temp_path(path);
    File::create(&tmp)?.write_all(bytes)?;
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != ErrorKind::NotFound => return Err(e.into()),
        _ => {}
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// The file at `path`, whole; `None` if it does not exist.
///
/// # Errors
///
/// I/O failures other than not-found.
pub(crate) fn read_whole(path: &Path) -> std::io::Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Syncs the directory itself, so its entries so far survive a crash.
fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// A group-commit log's file: `O_APPEND` writes (which land at the new end
/// after a truncation), `fdatasync`.
#[derive(Debug)]
pub(crate) struct FileMedia {
    file: File,
}

impl FileMedia {
    /// Opens `path` for appending, creating it if absent.
    ///
    /// # Errors
    ///
    /// The open's failure.
    pub(crate) fn open_append(path: &Path) -> Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self { file })
    }
}

impl WalMedia for FileMedia {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sieve-dir-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_wipes_every_file_the_writers_leave_whatever_shard_count_wrote_them() {
        let path = temp_dir("wipe");
        std::fs::create_dir_all(&path).unwrap();
        // What the writers leave behind, the whole-file writers' temp files
        // included, under a larger shard count than the new directory's;
        // and one file that is no shard file.
        for shard in [0, 5] {
            std::fs::write(path.join(log_file_name(shard)), b"old").unwrap();
            for name in [snapshot_file_name(shard), checkpoint_file_name(shard)] {
                std::fs::write(path.join(&name), b"old").unwrap();
                std::fs::write(temp_path(&path.join(&name)), b"torn").unwrap();
            }
        }
        std::fs::write(path.join("notes.txt"), b"kept").unwrap();
        let found = ShardDir::open(&path).unwrap();
        assert_eq!(found.written_shards(), 6);
        let logs: Vec<bool> = (0..7).map(|shard| found.has_log(shard)).collect();
        assert_eq!(logs, [true, false, false, false, false, true, false]);

        let (dir, logs) = ShardDir::create(&path, 2, FsyncPolicy::Never).unwrap();
        assert_eq!((dir.written_shards(), logs.len()), (2, 2));
        let mut listing: Vec<_> = std::fs::read_dir(&path)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        listing.sort();
        assert_eq!(
            listing,
            [
                "notes.txt",
                "wal-format",
                "wal-shard-0.log",
                "wal-shard-1.log"
            ]
        );
        assert_eq!(std::fs::read(path.join("wal-shard-0.log")).unwrap(), b"");
        assert_eq!(dir.format().unwrap(), Some(crate::FORMAT));
        let _ = std::fs::remove_dir_all(&path);
    }
}
