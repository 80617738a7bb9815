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
//! The intact prefix is read four frames at a time: their headers are
//! parsed and their checksums computed in one [`crate::frame::checksums`]
//! call, then each verified frame is decoded as it is lent. A frame
//! outside such a verified run — a torn or implausible header, a checksum
//! mismatch — is judged alone by [`parse_at`]'s rules, after every frame
//! before it has been lent, so the prefix and the corruption report are
//! those of a frame-by-frame scan. Resynchronization stays byte-by-byte.
//!
//! A first bad frame that is whole and verifies its checksum but carries
//! an event tag this build does not read is no torn write: another build
//! wrote it. [`LogCorruption::unknown_tag`] names the tag, so recovery can
//! refuse the log instead of truncating what it cannot judge.
//!
//! The walk lends rather than yields: an ingest frame, nearly every frame
//! of a log, is decoded into buffers the walk reuses and handed out as a
//! [`Frame::Ingest`] borrowing them until the next call, so replaying a log
//! allocates nothing per batch. [`scan_log`] materialises the same walk
//! into owned events.

use crate::codec::IdMemo;
use crate::event::{Decoded, IngestBuf, IngestRef, WalEvent};
use crate::frame::{
    checksums, decode_verified, judge_at, parse_at, unknown_tag_at, Header, Parsed,
};
use std::collections::VecDeque;

/// Frames whose checksums [`LogFrames`] computes in one call.
const READ_AHEAD: usize = 4;

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

/// The intact prefix of a shard log, one decoded frame at a time.
///
/// [`LogFrames::next`] lends the checksum-verified frames with strictly
/// increasing sequence numbers from the start of `bytes`, in log order —
/// the frames that are safe to replay — and ends at a clean end of file or
/// at the first frame that is not one of them. A caller that applies each
/// frame as it arrives (recovery does) never holds more than one decoded
/// frame; [`scan_log`] is the collector for callers that want them all at
/// once, owned. [`LogFrames::finish`] then reports how the log ended.
///
/// Every frame decodes through one [`IdMemo`] over `bytes`, so a metric id
/// is interned on its first sight in the log and looked up thereafter, and
/// every ingest frame into one pair of reused buffers. Never fails and
/// never panics: arbitrary garbage is an empty prefix with everything
/// accounted as lost.
#[derive(Debug)]
pub struct LogFrames<'a> {
    bytes: &'a [u8],
    offset: usize,
    last_seq: Option<u64>,
    memo: IdMemo<'a>,
    /// What the last ingest frame decoded to.
    ingest: IngestBuf,
    /// Headers of the frames from `offset` on whose checksums verified,
    /// not yet decoded.
    verified: VecDeque<Header>,
    /// Set once the prefix has ended anywhere but at a clean end of file.
    corruption: Option<LogCorruption>,
}

/// One intact frame, as [`LogFrames::next`] lends it.
#[derive(Debug)]
pub enum Frame<'f> {
    /// A tenant-admin event — creation, call graph, retention — decoded
    /// owned: the three kinds are rare. Never an ingest batch.
    Admin(WalEvent),
    /// An ingest batch, borrowed from the walk's buffers until its next
    /// call.
    Ingest(IngestRef<'f>),
}

impl Frame<'_> {
    /// The tenant the frame's event mutates.
    pub fn tenant(&self) -> &str {
        match self {
            Self::Admin(event) => event.tenant(),
            Self::Ingest(batch) => batch.tenant(),
        }
    }

    /// Number of ingest points the frame carries (0 for admin events).
    pub fn point_count(&self) -> usize {
        match self {
            Self::Admin(event) => event.point_count(),
            Self::Ingest(batch) => batch.points().len(),
        }
    }

    /// The owned event the frame decodes to.
    pub fn into_event(self) -> WalEvent {
        match self {
            Self::Admin(event) => event,
            Self::Ingest(batch) => batch.to_event(),
        }
    }
}

impl<'a> LogFrames<'a> {
    /// Starts at the first byte of a shard log.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            offset: 0,
            last_seq: None,
            memo: IdMemo::default(),
            ingest: IngestBuf::default(),
            verified: VecDeque::with_capacity(READ_AHEAD),
            corruption: None,
        }
    }

    /// The next frame of the intact prefix with its sequence number, or
    /// `None` once the prefix has ended (and on every call after that).
    // A lending walk, which `Iterator` cannot express: an ingest frame
    // borrows the buffers the next call overwrites.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(u64, Frame<'_>)> {
        if self.corruption.is_some() {
            return None;
        }
        if self.verified.is_empty() {
            self.read_ahead();
        }
        let (memo, ingest) = (&mut self.memo, &mut self.ingest);
        let decode = |payload| WalEvent::decode_into(payload, memo, ingest);
        let parsed = match self.verified.pop_front() {
            Some(header) => decode_verified(self.bytes, header, decode),
            None => judge_at(self.bytes, self.offset, decode),
        };
        let reason = match parsed {
            Parsed::Eof => return None,
            Parsed::Frame { seq, event, end } => match self.last_seq {
                Some(last) if seq <= last => format!("non-monotone sequence {seq} after {last}"),
                _ => {
                    self.last_seq = Some(seq);
                    self.offset = end;
                    let frame = match event {
                        Decoded::Admin(event) => Frame::Admin(event),
                        Decoded::Ingest(tenant) => {
                            Frame::Ingest(IngestRef::new(tenant, &self.ingest, &self.memo))
                        }
                    };
                    return Some((seq, frame));
                }
            },
            Parsed::Bad { reason } => reason,
        };
        self.corruption = Some(resync(
            self.bytes,
            self.offset,
            reason,
            self.last_seq,
            &mut self.memo,
        ));
        None
    }

    /// How the log ended after its intact prefix: `None` at a clean end of
    /// file, otherwise the corrupt region with the frames resynchronized
    /// past it. Frames of the prefix not yet lent are skipped.
    pub fn finish(mut self) -> Option<LogCorruption> {
        while self.next().is_some() {}
        self.corruption
    }

    /// The memo the frames decode through: its counts cover every frame
    /// decoded so far, and the whole log, resynchronized frames included,
    /// once the walk has ended.
    pub fn ids(&self) -> &IdMemo<'a> {
        &self.memo
    }

    /// Parses up to [`READ_AHEAD`] complete headers from `offset` on,
    /// checksums their frames in one call, and keeps the run that verifies
    /// up to the first that does not.
    fn read_ahead(&mut self) {
        let mut headers = [Header::default(); READ_AHEAD];
        let mut found = 0;
        let mut at = self.offset;
        while found < READ_AHEAD {
            let Ok(Some(header)) = Header::at(self.bytes, at) else {
                break;
            };
            headers[found] = header;
            at = header.end;
            found += 1;
        }
        if found == 0 {
            return;
        }
        // Lanes past the last header repeat it, so the words stepped in
        // lockstep are still those of the shortest real frame; the repeated
        // sums are ignored.
        let sums = checksums::<READ_AHEAD>(std::array::from_fn(|lane| {
            let header = headers[lane.min(found - 1)];
            (header.seq, header.payload(self.bytes))
        }));
        let run = headers[..found].iter().zip(sums);
        self.verified.extend(
            run.take_while(|(header, sum)| header.stored == *sum)
                .map(|(header, _)| *header),
        );
    }
}

/// Scans a shard log into its intact prefix and (if corrupt) the
/// accounted loss: [`LogFrames`], collected into owned events.
pub fn scan_log(bytes: &[u8]) -> ScannedLog {
    let mut frames = LogFrames::new(bytes);
    let mut applied = Vec::new();
    while let Some((seq, frame)) = frames.next() {
        applied.push((seq, frame.into_event()));
    }
    ScannedLog {
        applied,
        corruption: frames.finish(),
    }
}

/// Slides forward from one byte past the corruption, collecting every
/// later frame that still verifies and keeps the sequence strictly
/// monotone. The slide resumes after each recovered frame, so several
/// corrupt regions still account most of the surviving frames.
fn resync<'a>(
    bytes: &'a [u8],
    corrupt_at: usize,
    reason: String,
    mut last_seq: Option<u64>,
    memo: &mut IdMemo<'a>,
) -> LogCorruption {
    let mut resynced: Vec<(u64, WalEvent)> = Vec::new();
    let mut resynced_bytes = 0usize;
    let mut pos = corrupt_at + 1;
    while pos < bytes.len() {
        match parse_at(bytes, pos, memo) {
            Parsed::Frame { seq, event, end } if last_seq.map_or(true, |last| seq > last) => {
                resynced.push((seq, event));
                resynced_bytes += end - pos;
                last_seq = Some(seq);
                pos = end;
            }
            _ => pos += 1,
        }
    }
    LogCorruption {
        offset: corrupt_at as u64,
        reason,
        resynced,
        lost_bytes: (bytes.len() - corrupt_at - resynced_bytes) as u64,
        unknown_tag: unknown_tag_at(bytes, corrupt_at),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode, frame_payload, HEADER_LEN};
    use sieve_simulator::store::{MetricId, RetentionPolicy};

    fn ingest(tenant: &str, t: u64) -> WalEvent {
        WalEvent::IngestBatch {
            tenant: tenant.into(),
            points: vec![(0, t, t as f64)],
            watermarks: vec![(MetricId::new("web", "cpu"), t ^ 0xABCD)],
        }
    }

    /// A batch of `ticks` points over two series: a frame of another
    /// length than the one-point batches around it.
    fn wide_ingest(tenant: &str, t: u64, ticks: u64) -> WalEvent {
        WalEvent::IngestBatch {
            tenant: tenant.into(),
            points: (0..ticks)
                .map(|i| ((i % 2) as u32, t + i / 2 * 500, i as f64 * 0.5))
                .collect(),
            watermarks: vec![
                (MetricId::new("db", "mem"), t ^ 0x1234),
                (MetricId::new("web", "cpu"), t ^ 0xABCD),
            ],
        }
    }

    fn log_of(events: &[(u64, WalEvent)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (seq, event) in events {
            bytes.extend_from_slice(&encode(*seq, event));
        }
        bytes
    }

    /// A log of `events` as a build before slotted points wrote it: every
    /// ingest batch in the tag-4 layout.
    fn legacy_log_of(events: &[(u64, WalEvent)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (seq, event) in events {
            let mut payload = Vec::new();
            crate::event::encode_legacy(event, &mut payload);
            bytes.extend_from_slice(&frame_payload(*seq, &payload));
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
            &WalEvent::RetentionChanged {
                tenant: "a".into(),
                retention: RetentionPolicy::windowed(8),
            },
        ));
        let scanned = scan_log(&bytes);
        assert!(scanned.applied.is_empty());
        let corruption = scanned.corruption.expect("prefix is garbage");
        assert_eq!(corruption.resynced.len(), 1);
        assert_eq!(corruption.lost_bytes, 13);
    }

    /// `scan_log` as it was when it materialised the log itself, verbatim
    /// but for the memo argument: a fresh one per parse, so no id is ever
    /// answered from memory.
    fn scan_log_reference(bytes: &[u8]) -> ScannedLog {
        let parse = |offset| parse_at(bytes, offset, &mut IdMemo::default());
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
    /// recovery consumes a log — and checks prefix and corruption report
    /// against both the reference and the collector.
    fn assert_streamed_equals_scanned(bytes: &[u8], what: &str) {
        let reference = scan_log_reference(bytes);
        let mut frames = LogFrames::new(bytes);
        let mut streamed = 0;
        while let Some((seq, frame)) = frames.next() {
            let lent = (seq, frame.into_event());
            assert_eq!(Some(&lent), reference.applied.get(streamed), "{what}");
            streamed += 1;
        }
        assert_eq!(streamed, reference.applied.len(), "{what}");
        assert!(frames.next().is_none(), "{what}: exhausted stays exhausted");
        let corruption = frames.finish();
        assert_eq!(view(&corruption), view(&reference.corruption), "{what}");

        let scanned = scan_log(bytes);
        assert_eq!(scanned.applied, reference.applied, "{what}");
        assert_eq!(
            view(&scanned.corruption),
            view(&reference.corruption),
            "{what}"
        );
    }

    #[test]
    fn streamed_frames_equal_the_materialised_scan_under_every_truncation_and_bit_flip() {
        let admin = |tenant: &str| WalEvent::RetentionChanged {
            tenant: tenant.into(),
            retention: RetentionPolicy::windowed(8),
        };
        // Ten frames of seven sizes, so every truncation and flip lands at
        // every position of a four-frame read-ahead window. A build that
        // reads this log may have written its second half, after one that
        // spelled out every point's id wrote the first: the tag-4 and tag-6
        // forms of one batch alternate.
        let mut log = legacy_log_of(&[
            (1, ingest("a", 500)),
            (2, wide_ingest("b", 500, 3)),
            (3, admin("c")),
            (5, ingest("a", 1000)),
        ]);
        log.extend(log_of(&[
            (6, wide_ingest("c", 500, 1)),
            (9, ingest("b", 1000)),
        ]));
        log.extend(legacy_log_of(&[
            (10, admin("a")),
            (11, wide_ingest("a", 1500, 4)),
        ]));
        log.extend(log_of(&[
            (12, ingest("c", 1000)),
            (14, wide_ingest("b", 1500, 3)),
        ]));
        assert_streamed_equals_scanned(&log, "intact");
        for len in 0..log.len() {
            assert_streamed_equals_scanned(&log[..len], &format!("truncated to {len}"));
        }
        let mut flipped = log.clone();
        for byte in 0..log.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_streamed_equals_scanned(&flipped, &format!("byte {byte} bit {bit}"));
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

    #[test]
    fn finish_before_exhaustion_still_reports_how_the_log_ended() {
        let mut bytes = log_of(&[(1, ingest("a", 500)), (2, ingest("a", 1000))]);
        bytes.extend_from_slice(&[0xFF; 5]);
        let mut frames = LogFrames::new(&bytes);
        assert_eq!(frames.next().map(|(seq, _)| seq), Some(1));
        let corruption = frames.finish().expect("the tail is garbage");
        assert_eq!(corruption.lost_bytes, 5);
    }
}
