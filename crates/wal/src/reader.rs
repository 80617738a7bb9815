//! Log scanning: the read half of crash recovery.
//!
//! [`LogFrames`] walks a shard log byte-for-byte and splits it into the
//! *intact prefix* — the longest run of checksum-verified frames with
//! strictly increasing sequence numbers from the start of the file — and,
//! after the first bad frame, the *resynchronized suffix*: frames the
//! scanner can still locate by sliding forward one byte at a time and
//! re-validating headers. Resynchronized frames are **never applied**
//! (the events between them are gone, so applying them could violate the
//! ordering the fingerprint watermarks were computed against); they exist
//! so recovery can report *exactly* which tenants lost *how many* events
//! and points, instead of a vague "the tail is gone".
//!
//! The walk reads the log through one reused window, refilled from any
//! [`Read`] straight into its spare capacity, so each byte is copied once
//! and the log is never resident whole. The window is as long as the log,
//! up to 1 MiB, and grows only when a single frame does not fit in it, and
//! then to that frame. A frame is judged — its header, its checksum, its
//! payload, by [`judge_at`] — only once it is held whole, or once the log
//! is known to end inside it, so every verdict — the prefix, the
//! corruption report — is the one a walk over the whole log in memory
//! reaches, wherever the refills fall. The prefix is judged one frame at a
//! time, and resynchronization one byte at a time.
//!
//! A first bad frame that is whole and verifies its checksum but carries
//! an event tag this build does not read is no torn write: another build
//! wrote it. [`LogCorruption::unknown_tag`] names the tag, so recovery can
//! refuse the log instead of truncating what it cannot judge. A directory
//! of another format is refused by its format record before its logs are
//! read, so the one build that can have written such a frame is one that
//! changed the set of event tags without bumping [`crate::FORMAT`].
//!
//! The walk lends rather than yields: an ingest frame, nearly every frame
//! of a log, is decoded into the one [`IngestBatch`] the walk reuses and
//! handed out as a [`Frame::Ingest`] borrowing it until the next call, so
//! replaying a log allocates nothing per batch. [`scan_log`] materialises
//! the same walk over a log held in memory into owned events.

use crate::event::{AdminEvent, Decoded, IngestBatch, WalEvent};
use crate::frame::{judge_at, parse_at, stated_len, unknown_tag_at, Parsed, HEADER_LEN};
use std::io::{self, Read};
use std::time::Instant;

/// Bytes of a log [`LogFrames`] holds and refills at once at most, unless a
/// single frame is longer.
const WINDOW: usize = 1 << 20;

/// The outcome of scanning one shard log.
#[derive(Debug)]
pub struct ScannedLog {
    /// The intact prefix: checksum-verified frames with strictly
    /// increasing sequence numbers, in log order. These are safe to
    /// replay.
    pub applied: Vec<(u64, WalEvent)>,
    /// Present iff the log did not end cleanly after the intact prefix.
    pub corruption: Option<LogCorruption>,
}

impl ScannedLog {
    /// Sequence number of the last intact frame (`None` for an empty
    /// prefix).
    pub fn last_seq(&self) -> Option<u64> {
        self.applied.last().map(|(seq, _)| *seq)
    }
}

/// Everything known about the corrupt region of a scanned log.
#[derive(Debug)]
pub struct LogCorruption {
    /// Byte offset of the first bad frame.
    pub offset: u64,
    /// What failed first (checksum mismatch, torn header, …).
    pub reason: String,
    /// Frames recovered *after* the bad region by resynchronization —
    /// structurally valid and checksummed, but unsafe to apply because
    /// the events before them are missing. Recovery accounts them as the
    /// per-tenant lost suffix.
    pub resynced: Vec<(u64, WalEvent)>,
    /// Bytes of the corrupt region not accounted for by resynchronized
    /// frames (the unparseable wreckage itself).
    pub lost_bytes: u64,
    /// Set when the first bad frame is whole and its checksum verifies but
    /// it carries an event tag this build does not read: the frame was
    /// written by another build, and what follows it is not corruption but
    /// a format this build cannot judge.
    pub unknown_tag: Option<u8>,
}

/// The stretch of a log a [`LogFrames`] holds: the bytes from log offset
/// `base` on, read from `log` into the spare capacity of one reused buffer.
#[derive(Debug)]
struct Window<R> {
    log: R,
    bytes: Vec<u8>,
    /// Log offset of `bytes[0]`.
    base: usize,
    /// Set once a read returned nothing: `bytes` ends where the log does.
    ended: bool,
    /// Nanoseconds spent reading `log`.
    read_ns: u64,
}

impl<R: Read> Window<R> {
    fn new(log: R, capacity: usize) -> Self {
        Self {
            log,
            bytes: Vec::with_capacity(capacity),
            base: 0,
            ended: false,
            read_ns: 0,
        }
    }

    /// Log offset one past the last byte held.
    fn end(&self) -> usize {
        self.base + self.bytes.len()
    }

    /// Holds the log's bytes up to offset `end`, or all of them to the
    /// log's end if that comes first. The bytes before offset `keep` may be
    /// dropped to make room, and the window may grow.
    fn hold(&mut self, keep: usize, end: usize) -> io::Result<()> {
        while self.end() < end && !self.ended {
            let capacity = self.bytes.capacity();
            if end - self.base > capacity {
                self.bytes.drain(..keep - self.base);
                self.base = keep;
                if end - keep > capacity {
                    // At most doubling per refill: a length prefix that
                    // garbage spells is believed only as far as the log
                    // actually goes.
                    let grown = (end - keep).min(2 * capacity.max(1));
                    self.bytes.reserve_exact(grown - self.bytes.len());
                }
            }
            let room = self.bytes.capacity() - self.bytes.len();
            let started = Instant::now();
            let read = (&mut self.log)
                .take(room as u64)
                .read_to_end(&mut self.bytes)?;
            self.read_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.ended = read == 0;
        }
        Ok(())
    }

    /// [`Window::hold`] for the frame at log offset `at`: its header, then
    /// the payload the header states, if the length is plausible — what
    /// judging the frame reads.
    fn hold_frame(&mut self, keep: usize, at: usize) -> io::Result<()> {
        self.hold(keep, at + HEADER_LEN)?;
        match stated_len(&self.bytes, at - self.base) {
            Some(len) => self.hold(keep, at + HEADER_LEN + len),
            None => Ok(()),
        }
    }
}

/// The intact prefix of a shard log, one decoded frame at a time.
///
/// [`LogFrames::next`] lends the checksum-verified frames with strictly
/// increasing sequence numbers from the start of the log, in log order —
/// the frames that are safe to replay — and ends at a clean end of file, at
/// the first frame that is not one of them, or at a failed read.
/// A caller that applies each frame as it arrives (recovery does) never
/// holds more than one decoded frame, nor more of the log than the window;
/// [`scan_log`] is the collector for callers that want them all at once,
/// owned. [`LogFrames::finish`] then reports how the log ended.
///
/// Every ingest frame decodes into one reused [`IngestBatch`]; a spelled
/// metric id is interned at its sight, like every name the crate decodes.
/// Never panics: arbitrary garbage is an empty prefix with everything
/// accounted as lost.
#[derive(Debug)]
pub struct LogFrames<R> {
    window: Window<R>,
    /// Log offset of the first frame not yet lent.
    offset: usize,
    last_seq: Option<u64>,
    /// What the last ingest frame decoded to.
    ingest: IngestBatch,
    /// Set once the prefix has ended anywhere but at a clean end of file.
    corruption: Option<LogCorruption>,
    /// The read that failed, ending the walk.
    failed: Option<io::Error>,
}

/// One intact frame, as [`LogFrames::next`] lends it.
#[derive(Debug)]
pub enum Frame<'f> {
    /// A tenant-admin event — creation, call graph, retention — decoded
    /// owned: the three kinds are rare.
    Admin(AdminEvent),
    /// An ingest batch, borrowed from the walk's buffer until its next
    /// call.
    Ingest(&'f IngestBatch),
}

impl Frame<'_> {
    /// The tenant the frame's event mutates.
    pub fn tenant(&self) -> &str {
        match self {
            Self::Admin(event) => event.tenant(),
            Self::Ingest(batch) => &batch.tenant,
        }
    }

    /// Number of ingest points the frame carries (0 for admin events).
    pub fn point_count(&self) -> usize {
        match self {
            Self::Admin(_) => 0,
            Self::Ingest(batch) => batch.points.len(),
        }
    }

    /// The owned event the frame decodes to.
    pub(crate) fn into_event(self) -> WalEvent {
        match self {
            Self::Admin(event) => WalEvent::Admin(event),
            Self::Ingest(batch) => WalEvent::IngestBatch(batch.clone()),
        }
    }
}

impl<R: Read> LogFrames<R> {
    /// Starts at the first byte of a shard log, which `log` reads from the
    /// start and which is `len` bytes long: the window reserves no more
    /// than that, and at most 1 MiB. A log longer than `len` is still read
    /// to its end, by refills.
    pub fn new(log: R, len: u64) -> Self {
        let capacity = usize::try_from(len).map_or(WINDOW, |len| len.min(WINDOW));
        Self {
            window: Window::new(log, capacity),
            offset: 0,
            last_seq: None,
            ingest: IngestBatch::default(),
            corruption: None,
            failed: None,
        }
    }

    /// The next frame of the intact prefix with its sequence number, or
    /// `None` once the prefix has ended (and on every call after that).
    // A lending walk, which `Iterator` cannot express: an ingest frame
    // borrows the buffers the next call overwrites.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(u64, Frame<'_>)> {
        if self.corruption.is_some() || self.failed.is_some() {
            return None;
        }
        if let Err(error) = self.window.hold_frame(self.offset, self.offset) {
            self.failed = Some(error);
            return None;
        }
        let (bytes, base) = (&self.window.bytes[..], self.window.base);
        let ingest = &mut self.ingest;
        let parsed = judge_at(bytes, self.offset - base, |payload| {
            WalEvent::decode_into(payload, ingest)
        });
        let reason = match parsed {
            Parsed::Eof => return None,
            Parsed::Frame { seq, event, end } => match self.last_seq {
                Some(last) if seq <= last => format!("non-monotone sequence {seq} after {last}"),
                _ => {
                    self.last_seq = Some(seq);
                    self.offset = base + end;
                    let frame = match event {
                        Decoded::Admin(event) => Frame::Admin(event),
                        Decoded::Ingest => Frame::Ingest(&self.ingest),
                    };
                    return Some((seq, frame));
                }
            },
            Parsed::Bad { reason } => reason,
        };
        match self.resync(reason) {
            Ok(corruption) => self.corruption = Some(corruption),
            Err(error) => self.failed = Some(error),
        }
        None
    }

    /// How the log ended after its intact prefix: `None` at a clean end of
    /// file, otherwise the corrupt region with the frames resynchronized
    /// past it. Frames of the prefix not yet lent are skipped.
    ///
    /// # Errors
    ///
    /// The error of a failed read: the walk then judged nothing past it.
    pub fn finish(mut self) -> io::Result<Option<LogCorruption>> {
        while self.next().is_some() {}
        match self.failed {
            Some(error) => Err(error),
            None => Ok(self.corruption),
        }
    }

    /// Bytes of the log read so far: its length once the walk has ended.
    pub fn bytes_read(&self) -> u64 {
        self.window.end() as u64
    }

    /// Nanoseconds spent reading the log so far, the window's refills.
    pub fn read_ns(&self) -> u64 {
        self.window.read_ns
    }

    /// Slides forward from one byte past the first bad frame, at `offset`
    /// and held whole, collecting every later frame that still verifies
    /// and keeps the sequence strictly monotone. The slide resumes after
    /// each recovered frame, so several corrupt regions still account most
    /// of the surviving frames.
    fn resync(&mut self, reason: String) -> io::Result<LogCorruption> {
        let corrupt_at = self.offset;
        let unknown_tag = unknown_tag_at(&self.window.bytes, corrupt_at - self.window.base);
        let mut last_seq = self.last_seq;
        let mut resynced: Vec<(u64, WalEvent)> = Vec::new();
        let mut resynced_bytes = 0usize;
        let mut pos = corrupt_at + 1;
        loop {
            self.window.hold_frame(pos, pos)?;
            if pos >= self.window.end() {
                break;
            }
            let base = self.window.base;
            match parse_at(&self.window.bytes, pos - base) {
                Parsed::Frame { seq, event, end } if last_seq.map_or(true, |last| seq > last) => {
                    resynced.push((seq, event));
                    resynced_bytes += base + end - pos;
                    last_seq = Some(seq);
                    pos = base + end;
                }
                _ => pos += 1,
            }
        }
        Ok(LogCorruption {
            offset: corrupt_at as u64,
            reason,
            resynced,
            lost_bytes: (self.window.end() - corrupt_at - resynced_bytes) as u64,
            unknown_tag,
        })
    }
}

/// Scans a shard log held in memory into its intact prefix and (if
/// corrupt) the accounted loss: [`LogFrames`] over the bytes, collected
/// into owned events.
pub fn scan_log(bytes: &[u8]) -> ScannedLog {
    let mut frames = LogFrames::new(bytes, bytes.len() as u64);
    let mut applied = Vec::new();
    while let Some((seq, frame)) = frames.next() {
        applied.push((seq, frame.into_event()));
    }
    ScannedLog {
        applied,
        corruption: frames.finish().expect("reading a byte slice never fails"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode, frame_payload};
    use sieve_simulator::store::{BatchOutcome, MetricId, MetricStore, Named, RetentionPolicy};

    fn ingest(tenant: &str, t: u64) -> WalEvent {
        WalEvent::IngestBatch(IngestBatch {
            tenant: tenant.into(),
            points: vec![(0, t, t as f64)],
            series_before: None,
            watermarks: vec![Named::Spelled(0)],
            digest: t ^ 0xABCD,
            spelled: vec![MetricId::new("web", "cpu")],
        })
    }

    /// A batch of `ticks` points over two series, one placed and one
    /// spelled: a frame of another length than the one-point batches around
    /// it.
    fn wide_ingest(tenant: &str, t: u64, ticks: u64) -> WalEvent {
        WalEvent::IngestBatch(IngestBatch {
            tenant: tenant.into(),
            points: (0..ticks)
                .map(|i| ((i % 2) as u32, t + i / 2 * 500, i as f64 * 0.5))
                .collect(),
            series_before: Some(1),
            watermarks: vec![Named::Placed(0), Named::Spelled(0)],
            digest: t ^ 0x1234,
            spelled: vec![MetricId::new("web", "cpu")],
        })
    }

    fn log_of(events: &[(u64, WalEvent)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (seq, event) in events {
            bytes.extend_from_slice(&encode(*seq, event));
        }
        bytes
    }

    #[test]
    fn clean_log_scans_fully() {
        let events = vec![
            (1, ingest("a", 500)),
            (2, ingest("b", 500)),
            (3, ingest("a", 1000)),
        ];
        let scanned = scan_log(&log_of(&events));
        assert!(scanned.corruption.is_none());
        assert_eq!(scanned.applied, events);
        assert_eq!(scanned.last_seq(), Some(3));

        let empty = scan_log(&[]);
        assert!(empty.applied.is_empty() && empty.corruption.is_none());
        assert_eq!(empty.last_seq(), None);
    }

    #[test]
    fn torn_tail_keeps_the_prefix_and_counts_the_wreckage() {
        let events = vec![(1, ingest("a", 500)), (2, ingest("a", 1000))];
        let mut bytes = log_of(&events);
        let torn = 7;
        bytes.truncate(bytes.len() - torn);
        let scanned = scan_log(&bytes);
        assert_eq!(scanned.applied, events[..1]);
        let corruption = scanned.corruption.expect("the tail is torn");
        assert!(
            corruption.resynced.is_empty(),
            "nothing valid after a torn tail"
        );
        assert_eq!(
            corruption.offset as usize + corruption.lost_bytes as usize,
            bytes.len()
        );
    }

    #[test]
    fn mid_file_bit_flip_resyncs_to_the_surviving_frames() {
        let events = vec![
            (1, ingest("a", 500)),
            (2, ingest("b", 500)),
            (3, ingest("a", 1000)),
            (4, ingest("b", 1000)),
        ];
        let mut bytes = log_of(&events);
        // Flip one payload bit inside frame 2.
        let frame1_len = encode(1, &events[0].1).len();
        bytes[frame1_len + 25] ^= 0x10;
        let scanned = scan_log(&bytes);
        assert_eq!(scanned.applied, events[..1], "prefix stops at the flip");
        let corruption = scanned.corruption.expect("flip detected");
        assert_eq!(corruption.offset as usize, frame1_len);
        assert_eq!(
            corruption.resynced,
            events[2..],
            "later frames are found but not applied"
        );
        assert_eq!(
            corruption.lost_bytes as usize,
            encode(2, &events[1].1).len(),
            "exactly the flipped frame is wreckage"
        );
    }

    #[test]
    fn non_monotone_sequences_stop_the_prefix() {
        // A stale frame (seq 1 again) after seq 2: replaying it would
        // apply events in an order the watermarks never saw.
        let events = vec![
            (1, ingest("a", 500)),
            (2, ingest("a", 1000)),
            (1, ingest("a", 1500)),
        ];
        let scanned = scan_log(&log_of(&events));
        assert_eq!(scanned.applied, events[..2]);
        let corruption = scanned.corruption.expect("non-monotone detected");
        assert!(
            corruption.reason.contains("non-monotone"),
            "{}",
            corruption.reason
        );
    }

    #[test]
    fn arbitrary_garbage_degrades_to_an_empty_prefix() {
        let garbage: Vec<u8> = (0..256u32).map(|i| (i * 37 % 251) as u8).collect();
        let scanned = scan_log(&garbage);
        assert!(scanned.applied.is_empty());
        let corruption = scanned.corruption.expect("garbage is corrupt");
        assert_eq!(corruption.lost_bytes, 256);

        // An admin event buried in garbage is resynchronized, not applied.
        let mut bytes = vec![0xFFu8; 13];
        bytes.extend_from_slice(&encode(
            5,
            &WalEvent::Admin(AdminEvent::RetentionChanged {
                tenant: "a".into(),
                retention: RetentionPolicy::windowed(8),
            }),
        ));
        let scanned = scan_log(&bytes);
        assert!(scanned.applied.is_empty());
        let corruption = scanned.corruption.expect("prefix is garbage");
        assert_eq!(corruption.resynced.len(), 1);
        assert_eq!(corruption.lost_bytes, 13);
    }

    /// `scan_log` as it was when it materialised the log itself.
    fn scan_log_reference(bytes: &[u8]) -> ScannedLog {
        let parse = |offset| parse_at(bytes, offset);
        let mut applied: Vec<(u64, WalEvent)> = Vec::new();
        let mut offset = 0usize;
        let (corrupt_at, reason) = loop {
            match parse(offset) {
                Parsed::Eof => {
                    return ScannedLog {
                        applied,
                        corruption: None,
                    }
                }
                Parsed::Frame { seq, event, end } => {
                    let monotone = applied.last().map_or(true, |&(last, _)| seq > last);
                    if monotone {
                        applied.push((seq, event));
                        offset = end;
                        continue;
                    }
                    let last = applied.last().map(|&(last, _)| last).unwrap_or(0);
                    break (offset, format!("non-monotone sequence {seq} after {last}"));
                }
                Parsed::Bad { reason } => break (offset, reason),
            }
        };
        let mut last_seq = applied.last().map(|&(seq, _)| seq);
        let mut resynced: Vec<(u64, WalEvent)> = Vec::new();
        let mut resynced_bytes = 0usize;
        let mut pos = corrupt_at + 1;
        while pos < bytes.len() {
            match parse(pos) {
                Parsed::Frame { seq, event, end } if last_seq.map_or(true, |last| seq > last) => {
                    resynced.push((seq, event));
                    resynced_bytes += end - pos;
                    last_seq = Some(seq);
                    pos = end;
                }
                _ => pos += 1,
            }
        }
        // A frame whose checksum verified and whose payload then failed on
        // its tag, read back from the reason `parse_at` gives.
        let unknown_tag = reason
            .strip_prefix("checksummed payload failed to decode: unknown event tag ")
            .map(|tag| tag.parse().expect("a tag byte"));
        ScannedLog {
            applied,
            corruption: Some(LogCorruption {
                offset: corrupt_at as u64,
                reason,
                resynced,
                lost_bytes: (bytes.len() - corrupt_at - resynced_bytes) as u64,
                unknown_tag,
            }),
        }
    }

    type CorruptionView<'a> = Option<(u64, &'a str, &'a [(u64, WalEvent)], u64, Option<u8>)>;

    fn view(corruption: &Option<LogCorruption>) -> CorruptionView<'_> {
        let c = corruption.as_ref()?;
        Some((
            c.offset,
            &c.reason,
            &c.resynced,
            c.lost_bytes,
            c.unknown_tag,
        ))
    }

    /// Walks `bytes` one lent frame at a time — each materialised and
    /// dropped before the next is decoded into the same buffers, as
    /// recovery consumes a log — through a window of each size in
    /// `windows`, read a few bytes at a time, and checks prefix and
    /// corruption report against both the reference and the collector.
    fn assert_streamed_equals_scanned(bytes: &[u8], windows: &[usize], what: &str) {
        let reference = scan_log_reference(bytes);
        for &window in windows {
            let what = format!("{what}, window {window}");
            // Told the log is `window` bytes long, the walk reserves that
            // much, so refills fall inside headers, checksums, payloads and
            // resync regions of a short log.
            let mut frames = LogFrames::new(Trickle(bytes), window as u64);
            let mut streamed = 0;
            while let Some((seq, frame)) = frames.next() {
                let lent = (seq, frame.into_event());
                assert_eq!(Some(&lent), reference.applied.get(streamed), "{what}");
                streamed += 1;
            }
            assert_eq!(streamed, reference.applied.len(), "{what}");
            assert!(frames.next().is_none(), "{what}: exhausted stays exhausted");
            assert_eq!(frames.bytes_read(), bytes.len() as u64, "{what}");
            let corruption = frames.finish().unwrap();
            assert_eq!(view(&corruption), view(&reference.corruption), "{what}");
        }

        let scanned = scan_log(bytes);
        assert_eq!(scanned.applied, reference.applied, "{what}");
        assert_eq!(
            view(&scanned.corruption),
            view(&reference.corruption),
            "{what}"
        );
    }

    /// A reader that hands out at most five bytes per call, as a pipe or a
    /// slow disk may: a refill then takes several reads.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(5);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn streamed_frames_equal_the_materialised_scan_under_every_truncation_and_bit_flip() {
        let admin = |tenant: &str| {
            WalEvent::Admin(AdminEvent::RetentionChanged {
                tenant: tenant.into(),
                retention: RetentionPolicy::windowed(8),
            })
        };
        // Ten frames of several sizes and kinds, so that truncations and
        // flips land in each with intact frames before and after it.
        let log = log_of(&[
            (1, ingest("a", 500)),
            (2, wide_ingest("b", 500, 3)),
            (3, admin("c")),
            (5, ingest("a", 1000)),
            (6, wide_ingest("c", 500, 1)),
            (9, ingest("b", 1000)),
            (10, admin("a")),
            (11, wide_ingest("a", 1500, 4)),
            (12, ingest("c", 1000)),
            (14, wide_ingest("b", 1500, 3)),
        ]);
        // Windows that refill inside a header, right after one, a frame
        // short of or past the longest frame, and the default.
        let longest = encode(11, &wide_ingest("a", 1500, 4)).len();
        let windows = [
            1,
            7,
            HEADER_LEN,
            HEADER_LEN + 1,
            longest - 1,
            longest + 1,
            WINDOW,
        ];
        assert_streamed_equals_scanned(&log, &windows, "intact");
        for len in 0..log.len() {
            assert_streamed_equals_scanned(&log[..len], &windows, &format!("truncated to {len}"));
        }
        let mut flipped = log.clone();
        for byte in 0..log.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                let what = format!("byte {byte} bit {bit}");
                assert_streamed_equals_scanned(&flipped, &windows, &what);
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn a_verified_frame_of_a_tag_this_build_does_not_read_is_named() {
        let events = vec![(1, ingest("a", 500)), (2, ingest("a", 1000))];
        let mut bytes = log_of(&events);
        let offset = bytes.len() as u64;
        let foreign = frame_payload(3, &[7, 0xAB, 0xCD]);
        bytes.extend_from_slice(&foreign);
        bytes.extend_from_slice(&encode(4, &ingest("b", 500)));
        let scanned = scan_log(&bytes);
        assert_eq!(scanned.applied, events);
        let corruption = scanned.corruption.expect("tag 7 ends the prefix");
        assert_eq!(
            (corruption.offset, corruption.unknown_tag),
            (offset, Some(7))
        );
        // Resynchronization is what it always was.
        assert_eq!(corruption.resynced, vec![(4, ingest("b", 500))]);
        assert_eq!(corruption.lost_bytes, foreign.len() as u64);

        // A flipped bit is corruption, whatever tag it leaves behind.
        let at = offset as usize + HEADER_LEN + 1;
        bytes[at] ^= 0x01;
        let corruption = scan_log(&bytes).corruption.expect("flipped");
        assert_eq!(corruption.unknown_tag, None);
        assert!(corruption.reason.contains("checksum mismatch"));
    }

    /// A reader that fails once `left` bytes are read.
    struct Failing<'a> {
        bytes: &'a [u8],
        left: usize,
    }

    impl Read for Failing<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("the disk went away"));
            }
            let n = buf.len().min(self.bytes.len()).min(self.left);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.left -= n;
            Ok(n)
        }
    }

    #[test]
    fn a_failed_read_ends_the_walk_as_an_error_never_as_corruption() {
        let events = vec![(1, ingest("a", 500)), (2, ingest("a", 1000))];
        let bytes = log_of(&events);
        let first = encode(1, &events[0].1).len();
        // Failing inside the second frame, at its first byte, and at the
        // end of the log: the frames before the failure are lent, and
        // nothing is judged after it.
        for left in [first + 9, first, bytes.len()] {
            let log = Failing {
                bytes: &bytes,
                left,
            };
            let mut frames = LogFrames::new(log, HEADER_LEN as u64);
            assert_eq!(frames.next().map(|(seq, _)| seq), Some(1), "{left}");
            if left == bytes.len() {
                assert_eq!(frames.next().map(|(seq, _)| seq), Some(2));
            }
            assert!(frames.next().is_none(), "{left}");
            let error = frames.finish().expect_err("the read failed");
            assert_eq!(error.to_string(), "the disk went away");
        }
    }

    #[test]
    fn a_spelled_id_of_a_held_series_decodes_to_the_names_the_store_keys() {
        // The store's index keys a series by the addresses of its interned
        // names, so an id spelled in a log must decode to the very names a
        // store holding the series keys it by.
        let store = MetricStore::new();
        for i in 0..6u64 {
            store.record(&MetricId::new("web", format!("m{i}")), 500, i as f64);
        }
        let copy = MetricStore::restore(store.freeze());
        // Three held series, one of them twice, and one the batch creates.
        let ids: Vec<MetricId> = [("web", "m4"), ("db", "new"), ("web", "m1"), ("web", "m5")]
            .iter()
            .map(|&(component, metric)| MetricId::new(component, metric.to_string()))
            .collect();
        let triples: Vec<(&MetricId, u64, f64)> = (1..=3u64)
            .flat_map(|tick| {
                ids.iter()
                    .map(move |id| (id, 500 + tick * 500, tick as f64))
            })
            .chain([(&ids[2], 2_500, 9.5)])
            .collect();
        let mut outcome = BatchOutcome::default();
        store.record_batch_detailed_into(&mut outcome, triples.iter().copied());
        assert!(outcome.rejected.is_empty());
        let list = &outcome.watermarks.list;
        assert_eq!(list.iter().filter(|w| w.place.is_some()).count(), 3);

        // Logged with no series count, so every watermark is spelled.
        let slot = |id: &MetricId| list.iter().position(|w| w.id == *id).unwrap() as u32;
        let event = WalEvent::IngestBatch(IngestBatch {
            tenant: "acme".into(),
            points: triples
                .iter()
                .map(|&(id, timestamp_ms, value)| (slot(id), timestamp_ms, value))
                .collect(),
            series_before: None,
            watermarks: (0..list.len() as u32).map(Named::Spelled).collect(),
            digest: outcome.watermarks.digest(),
            spelled: list.iter().map(|w| w.id.clone()).collect(),
        });
        let log = encode(1, &event);

        let mut frames = LogFrames::new(&log[..], log.len() as u64);
        let Some((1, Frame::Ingest(batch))) = frames.next() else {
            panic!("one ingest frame");
        };
        let applied = copy.record_batch_verified(&batch.points, None, batch.names(), batch.digest);
        assert_eq!(applied, Some(outcome.accepted));
        assert_eq!(copy.series_count(), 7);
        assert_eq!(copy.freeze(), store.freeze());
    }

    #[test]
    fn finish_before_exhaustion_still_reports_how_the_log_ended() {
        let mut bytes = log_of(&[(1, ingest("a", 500)), (2, ingest("a", 1000))]);
        bytes.extend_from_slice(&[0xFF; 5]);
        let mut frames = LogFrames::new(&bytes[..], bytes.len() as u64);
        assert_eq!(frames.next().map(|(seq, _)| seq), Some(1));
        let corruption = frames.finish().unwrap().expect("the tail is garbage");
        assert_eq!(corruption.lost_bytes, 5);
    }
}
