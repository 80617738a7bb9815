//! Cross-thread group commit: one leader write for many ingests.
//!
//! A log behind a plain mutex makes *concurrent* callers serialize end to
//! end, each paying its own write + fsync. [`GroupCommitLog`] coalesces
//! them instead:
//!
//! 1. **Stage.** Every caller encodes its payload outside any lock, then
//!    takes a short staging lock to get a sequence number, checksum the
//!    frame and append it to the shared staging buffer. Sequence
//!    assignment and frame bytes are produced under the same lock, so
//!    the in-buffer order always equals the sequence order (recovery
//!    requires in-file monotonicity).
//! 2. **Elect.** The caller then calls [`GroupCommitLog::commit_through`]
//!    with its sequence number. Whoever wins a `try_lock` on the
//!    committer becomes the *leader*: it swaps the whole staging buffer
//!    out (draining every frame staged so far, its own and everybody
//!    else's), performs **one** media write and at most one fsync per
//!    [`FsyncPolicy`], and publishes the outcome.
//! 3. **Ride.** Losers are *followers*: they block until the committed
//!    watermark passes their sequence number. Their frames reach disk in
//!    the leader's write — zero syscalls on their thread.
//!
//! Whatever the interleaving, the byte stream on the media is the
//! concatenation of `frame::encode(seq, event)` in sequence order
//! (asserted by unit test) — exactly what [`crate::reader::scan_log`]
//! reads back.
//!
//! **Failure semantics**: the staging buffer is drained *before* the
//! write is attempted, so a failed media write drops the drained frames
//! (recovery's checksum scan handles whatever fraction reached disk) and
//! retrying an ingest is safe. A leader failure is reported to every
//! rider of that write via a recorded failed-sequence range; the
//! committed watermark still advances past the range, so later commits
//! are not poisoned and no follower hangs.
//!
//! [`FsyncPolicy`]: crate::writer::FsyncPolicy

use crate::dir::FileMedia;
use crate::frame;
use crate::writer::{FsyncPolicy, WalMedia};
use crate::Result;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Failed-range history cap. Ranges are only recorded on media errors;
/// the cap exists so persistently failing media cannot grow the history
/// without bound. A waiter whose failed range was pruned past this cap
/// observes success — acceptable, because by then the error has been
/// reported to every rider of the failed write itself.
const MAX_FAILED_RANGES: usize = 1024;

/// Frames staged but not yet drained by a leader.
#[derive(Debug)]
struct Staging {
    /// Sequence number the next staged frame receives (≥ 1).
    next_seq: u64,
    /// Encoded frames in sequence order, swapped out whole by a leader.
    buf: Vec<u8>,
    /// Number of frames currently in `buf` (for fsync cadence).
    frames: u64,
}

/// The media side, owned by whichever thread currently leads.
#[derive(Debug)]
struct Committer {
    media: Box<dyn WalMedia>,
    /// Frames written since the last sync ([`FsyncPolicy::EveryN`]
    /// counts across leader writes).
    frames_since_sync: u64,
    fsync: FsyncPolicy,
    /// Recycled staging buffer: the leader swaps this (empty) vector in
    /// when draining, so steady-state staging allocates nothing.
    spare: Vec<u8>,
}

/// Commit progress, shared with waiting followers.
#[derive(Debug)]
struct Progress {
    /// Every frame with `seq <= committed_seq` has a known outcome.
    committed_seq: u64,
    /// High-water sequence a leader has drained from staging. A frame at
    /// or below this mark is owned by an active (or finished) leader
    /// whose outcome will be published — waiting on the condvar is safe.
    drained_seq: u64,
    /// Inclusive `(first, last, reason)` ranges whose media write
    /// failed. `committed_seq` advances past them (non-sticky).
    failed: Vec<(u64, u64, String)>,
    /// Followers blocked on the condvar right now. A leader wakes them only
    /// when there are any: a `notify_all` nobody waits for still costs a
    /// futex call on Linux, and a lone writer would pay it on every commit.
    parked: usize,
}

impl Progress {
    fn failure_for(&self, seq: u64) -> Option<&str> {
        self.failed
            .iter()
            .find(|(first, last, _)| (*first..=*last).contains(&seq))
            .map(|(_, _, reason)| reason.as_str())
    }
}

/// Monotone counters describing a log's commit traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupCommitStats {
    /// Frames durably committed (or failed — frames a leader drained).
    pub frames_committed: u64,
    /// Media writes leaders performed.
    pub leader_writes: u64,
    /// Frames that reached the media in *another* thread's write:
    /// `frames_committed - leader_writes`. The cross-thread coalescing
    /// payoff.
    pub commits_coalesced: u64,
    /// `fsync` calls issued.
    pub fsync_calls: u64,
    /// Total nanoseconds followers spent blocked on a leader.
    pub commit_wait_ns_total: u64,
}

/// A shard log with cross-thread group commit. See the module docs for
/// the stage → elect → ride protocol.
#[derive(Debug)]
pub struct GroupCommitLog {
    staging: Mutex<Staging>,
    committer: Mutex<Committer>,
    progress: Mutex<Progress>,
    committed: Condvar,
    frames_committed: AtomicU64,
    leader_writes: AtomicU64,
    fsync_calls: AtomicU64,
    commit_wait_ns_total: AtomicU64,
}

impl GroupCommitLog {
    /// Wraps `media`, continuing the sequence at `next_seq` (1 for a
    /// fresh log; recovery passes one past the last replayed frame).
    pub(crate) fn new(media: Box<dyn WalMedia>, next_seq: u64, fsync: FsyncPolicy) -> Self {
        let next_seq = next_seq.max(1);
        Self {
            staging: Mutex::new(Staging {
                next_seq,
                buf: Vec::new(),
                frames: 0,
            }),
            committer: Mutex::new(Committer {
                media,
                frames_since_sync: 0,
                fsync,
                spare: Vec::new(),
            }),
            progress: Mutex::new(Progress {
                committed_seq: next_seq - 1,
                drained_seq: next_seq - 1,
                failed: Vec::new(),
                parked: 0,
            }),
            committed: Condvar::new(),
            frames_committed: AtomicU64::new(0),
            leader_writes: AtomicU64::new(0),
            fsync_calls: AtomicU64::new(0),
            commit_wait_ns_total: AtomicU64::new(0),
        }
    }

    /// Opens a file-backed group-commit log at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying open failure.
    pub fn open(path: &Path, next_seq: u64, fsync: FsyncPolicy) -> Result<Self> {
        Ok(Self::new(
            Box::new(FileMedia::open_append(path)?),
            next_seq,
            fsync,
        ))
    }

    /// Encodes `event` and stages it. Convenience wrapper over
    /// [`GroupCommitLog::stage_encoded`] for admin-path events; the
    /// ingest hot path encodes into a pooled scratch buffer instead.
    #[cfg(test)]
    pub(crate) fn stage(&self, event: &crate::WalEvent) -> u64 {
        let mut payload = Vec::new();
        event.encode(&mut payload);
        self.stage_encoded(&payload)
    }

    /// Stages one already-encoded event payload: assigns the next
    /// sequence number, frames and checksums the payload, and appends
    /// the frame to the staging buffer. Returns the assigned sequence
    /// number — pass it to [`GroupCommitLog::commit_through`] to make it
    /// durable. The staging lock is held only for the header arithmetic
    /// and two buffer appends.
    pub fn stage_encoded(&self, payload: &[u8]) -> u64 {
        assert!(
            payload.len() <= frame::MAX_PAYLOAD,
            "event payload of {} bytes exceeds the frame cap",
            payload.len()
        );
        let mut staging = self.staging.lock().expect("wal staging poisoned");
        let seq = staging.next_seq;
        staging.next_seq += 1;
        staging.buf.reserve(frame::HEADER_LEN + payload.len());
        staging
            .buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        staging.buf.extend_from_slice(&seq.to_le_bytes());
        staging
            .buf
            .extend_from_slice(&frame::checksum(seq, payload).to_le_bytes());
        staging.buf.extend_from_slice(payload);
        staging.frames += 1;
        seq
    }

    /// Blocks until the frame staged as `seq` is committed (written, and
    /// synced per policy) — by this thread as an elected leader, or by
    /// riding another leader's write.
    ///
    /// # Errors
    ///
    /// Returns the media error of the write that covered `seq`, on every
    /// thread that staged into that write. Later commits are unaffected
    /// (the failure is not sticky); the failed frames are dropped and
    /// retrying the ingest is safe.
    pub fn commit_through(&self, seq: u64) -> Result<()> {
        loop {
            {
                let progress = self.progress.lock().expect("wal progress poisoned");
                if let Some(reason) = progress.failure_for(seq) {
                    return Err(std::io::Error::other(reason.to_string()).into());
                }
                if progress.committed_seq >= seq {
                    return Ok(());
                }
            }
            if let Ok(mut committer) = self.committer.try_lock() {
                self.lead(&mut committer);
                continue;
            }
            // Follower: wait only while some leader owns our frame;
            // otherwise re-race for leadership (the active leader drained
            // before we staged, so nobody else will commit us).
            let started = Instant::now();
            let mut progress = self.progress.lock().expect("wal progress poisoned");
            while progress.committed_seq < seq
                && progress.failure_for(seq).is_none()
                && progress.drained_seq >= seq
            {
                progress.parked += 1;
                progress = self
                    .committed
                    .wait(progress)
                    .expect("wal progress poisoned");
                progress.parked -= 1;
            }
            drop(progress);
            let waited = started.elapsed().as_nanos() as u64;
            if waited > 0 {
                self.commit_wait_ns_total
                    .fetch_add(waited, Ordering::Relaxed);
            }
            std::thread::yield_now();
        }
    }

    /// Drains and commits everything staged so far (the snapshot path's
    /// quiesce barrier).
    ///
    /// # Errors
    ///
    /// As [`GroupCommitLog::commit_through`].
    pub fn commit_all(&self) -> Result<()> {
        let staged_through = {
            let staging = self.staging.lock().expect("wal staging poisoned");
            staging.next_seq - 1
        };
        if staged_through == 0 {
            return Ok(());
        }
        self.commit_through(staged_through)
    }

    /// One leader turn: drain the staging buffer, write it with one
    /// media call, sync per policy, publish the outcome.
    fn lead(&self, committer: &mut Committer) {
        let (mut bytes, frames, staged_through) = {
            let mut staging = self.staging.lock().expect("wal staging poisoned");
            if staging.frames == 0 {
                return;
            }
            let spare = std::mem::take(&mut committer.spare);
            let bytes = std::mem::replace(&mut staging.buf, spare);
            let frames = staging.frames;
            staging.frames = 0;
            (bytes, frames, staging.next_seq - 1)
        };
        // Publish ownership of the drained range before the (slow) write
        // so followers in it park on the condvar instead of spinning.
        {
            let mut progress = self.progress.lock().expect("wal progress poisoned");
            progress.drained_seq = progress.drained_seq.max(staged_through);
        }
        let outcome = self.write_and_sync(committer, &bytes, frames);
        self.leader_writes.fetch_add(1, Ordering::Relaxed);
        self.frames_committed.fetch_add(frames, Ordering::Relaxed);
        {
            let mut progress = self.progress.lock().expect("wal progress poisoned");
            let first = progress.committed_seq + 1;
            if let Err(error) = outcome {
                progress
                    .failed
                    .push((first, staged_through, error.to_string()));
                let excess = progress.failed.len().saturating_sub(MAX_FAILED_RANGES);
                if excess > 0 {
                    progress.failed.drain(..excess);
                }
            }
            // The watermark advances even over a failed range: the
            // drained frames are gone either way, and followers of later
            // writes must not block behind a dead range.
            progress.committed_seq = staged_through;
            // A follower counts itself parked under this lock before it
            // waits, so none can be missed here.
            if progress.parked > 0 {
                self.committed.notify_all();
            }
        }
        bytes.clear();
        committer.spare = bytes;
    }

    /// The media half of a leader turn: one append of the `frames` drained
    /// frames in `bytes`, then a sync if the policy calls for one.
    fn write_and_sync(
        &self,
        committer: &mut Committer,
        bytes: &[u8],
        frames: u64,
    ) -> std::io::Result<()> {
        committer.media.append(bytes)?;
        committer.frames_since_sync += frames;
        let should_sync = match committer.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => committer.frames_since_sync >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if should_sync {
            committer.media.sync()?;
            committer.frames_since_sync = 0;
            self.fsync_calls.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Sequence number of the last staged event (0 if none yet).
    pub fn last_seq(&self) -> u64 {
        self.staging.lock().expect("wal staging poisoned").next_seq - 1
    }

    /// Sequence number the next staged event will receive.
    #[cfg(test)]
    pub(crate) fn next_seq(&self) -> u64 {
        self.staging.lock().expect("wal staging poisoned").next_seq
    }

    /// Snapshot of the log's commit-traffic counters.
    pub fn stats(&self) -> GroupCommitStats {
        let frames_committed = self.frames_committed.load(Ordering::Relaxed);
        let leader_writes = self.leader_writes.load(Ordering::Relaxed);
        GroupCommitStats {
            frames_committed,
            leader_writes,
            commits_coalesced: frames_committed.saturating_sub(leader_writes),
            fsync_calls: self.fsync_calls.load(Ordering::Relaxed),
            commit_wait_ns_total: self.commit_wait_ns_total.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::scan_log;
    use crate::writer::testing::{ingest, MemMedia};
    use crate::WalEvent;
    use std::sync::{Arc, Barrier};

    #[test]
    fn byte_stream_is_the_concatenation_of_the_frames_in_sequence_order() {
        let events: Vec<WalEvent> = (1..=5).map(|i| ingest(i * 500)).collect();
        let expected: Vec<u8> = (1u64..)
            .zip(&events)
            .flat_map(|(seq, event)| frame::encode(seq, event))
            .collect();

        let media = MemMedia::default();
        let log = GroupCommitLog::new(Box::new(media.clone()), 1, FsyncPolicy::Always);
        let mut last = 0;
        for event in &events {
            last = log.stage(event);
        }
        log.commit_through(last).unwrap();

        let written = media.bytes.lock().unwrap().clone();
        assert_eq!(written, expected);
        let scanned = scan_log(&written);
        assert!(scanned.corruption.is_none());
        let replayed: Vec<WalEvent> = scanned.applied.into_iter().map(|(_, e)| e).collect();
        assert_eq!(replayed, events);
    }

    #[test]
    fn concurrent_commits_coalesce_into_few_writes() {
        let media = MemMedia::default();
        let log = Arc::new(GroupCommitLog::new(
            Box::new(media.clone()),
            1,
            FsyncPolicy::Always,
        ));
        let writers = 4;
        let per_writer = 25;
        let barrier = Arc::new(Barrier::new(writers));
        std::thread::scope(|scope| {
            for w in 0..writers {
                let log = Arc::clone(&log);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..per_writer {
                        let seq = log.stage(&ingest((w * per_writer + i + 1) as u64));
                        log.commit_through(seq).unwrap();
                    }
                });
            }
        });

        let total = (writers * per_writer) as u64;
        let scanned_bytes = media.bytes.lock().unwrap().clone();
        let scanned = scan_log(&scanned_bytes);
        assert!(scanned.corruption.is_none());
        assert_eq!(scanned.last_seq(), Some(total), "all frames on media");

        let stats = log.stats();
        assert_eq!(stats.frames_committed, total);
        assert_eq!(
            stats.frames_committed,
            stats.leader_writes + stats.commits_coalesced
        );
        // Under Always, syncs == leader writes — the whole point is that
        // leader writes (and so fsyncs) can be far fewer than frames.
        assert_eq!(*media.syncs.lock().unwrap(), stats.leader_writes);
        assert_eq!(stats.fsync_calls, stats.leader_writes);
    }

    #[test]
    fn every_n_counts_frames_across_leader_writes() {
        let media = MemMedia::default();
        let log = GroupCommitLog::new(Box::new(media.clone()), 1, FsyncPolicy::EveryN(4));
        for i in 1..=10u64 {
            let seq = log.stage(&ingest(i * 500));
            log.commit_through(seq).unwrap();
        }
        // 10 single-frame leader writes, sync after frames 4 and 8.
        assert_eq!(*media.syncs.lock().unwrap(), 2);
        assert_eq!(log.stats().fsync_calls, 2);

        for (policy, expected_syncs) in [(FsyncPolicy::Always, 10), (FsyncPolicy::Never, 0)] {
            let media = MemMedia::default();
            let log = GroupCommitLog::new(Box::new(media.clone()), 1, policy);
            for i in 1..=10u64 {
                let seq = log.stage(&ingest(i * 500));
                log.commit_through(seq).unwrap();
            }
            assert_eq!(*media.syncs.lock().unwrap(), expected_syncs, "{policy:?}");
        }
    }

    #[test]
    fn failed_writes_report_to_riders_and_are_not_sticky() {
        let media = MemMedia::default();
        let log = GroupCommitLog::new(Box::new(media.clone()), 1, FsyncPolicy::Always);

        let seq = log.stage(&ingest(500));
        *media.fail_next_append.lock().unwrap() = true;
        let err = log.commit_through(seq).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // The same seq keeps reporting its failure deterministically.
        assert!(log.commit_through(seq).is_err());

        // The next staged frame commits cleanly: the failure did not
        // poison the log, and the sequence keeps advancing.
        let seq2 = log.stage(&ingest(1000));
        assert_eq!(seq2, seq + 1);
        log.commit_through(seq2).unwrap();
        let bytes = media.bytes.lock().unwrap().clone();
        let scanned = scan_log(&bytes);
        assert!(scanned.corruption.is_none());
        assert_eq!(scanned.applied.len(), 1, "only the retried frame landed");
    }

    #[test]
    fn commit_all_flushes_everything_staged() {
        let media = MemMedia::default();
        let log = GroupCommitLog::new(Box::new(media.clone()), 1, FsyncPolicy::Always);
        log.commit_all().unwrap();
        assert_eq!(*media.appends.lock().unwrap(), 0);
        log.stage(&ingest(500));
        log.stage(&ingest(1000));
        assert!(
            media.bytes.lock().unwrap().is_empty(),
            "nothing flushed yet"
        );
        log.commit_all().unwrap();
        assert_eq!(log.last_seq(), 2);
        assert_eq!(*media.appends.lock().unwrap(), 1, "one write for both");
        // With nothing newly staged a commit is free: no write, no sync.
        log.commit_all().unwrap();
        assert_eq!(*media.appends.lock().unwrap(), 1);
        assert_eq!(*media.syncs.lock().unwrap(), 1);
    }

    #[test]
    fn sequence_continues_where_recovery_left_off() {
        let log = GroupCommitLog::new(Box::new(MemMedia::default()), 43, FsyncPolicy::Never);
        assert_eq!(log.last_seq(), 42);
        assert_eq!(log.next_seq(), 43);
        assert_eq!(log.stage(&ingest(500)), 43);

        let fresh = GroupCommitLog::new(Box::new(MemMedia::default()), 0, FsyncPolicy::Never);
        assert_eq!(fresh.next_seq(), 1);
        assert_eq!(fresh.last_seq(), 0);
    }
}
