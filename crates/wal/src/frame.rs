//! Length-prefixed, checksummed log frames, and the one checksum of a
//! durable directory.
//!
//! Every event appended to a shard log is wrapped in one frame:
//!
//! ```text
//! [payload length: u32 LE][sequence: u64 LE][checksum: u64 LE][payload]
//! ```
//!
//! The checksum is [`lane_checksum`] of the payload under a seed of the
//! sequence number; snapshot bodies and checkpoint records take the same
//! function under seeds of their own. It steps four chains of
//! [`sieve_exec::hash::fold_word`] in lockstep, one per lane of the bytes,
//! which keeps the processor's multipliers busy where one chain would wait
//! on its own previous step. Every step is a bijection of the word it
//! takes, so any change confined to one word — every single-bit flip among
//! them — changes the sum, and the step's fold-down keeps two one-bit flips
//! in consecutive words from cancelling (the tests flip every pair of bits
//! of a frame). The batch digest inside an ingest payload folds
//! fingerprints with the same step, so the WAL adds no second hashing
//! scheme.
//!
//! A frame is accepted only if it is fully present, its length is
//! plausible, its checksum verifies, *and* its payload decodes as a
//! [`WalEvent`] with no trailing bytes: the three steps [`judge_at`] takes
//! in turn for one offset, and the only way a frame is judged.

use crate::codec::{le_words, DecodeResult};
use crate::event::{reads_tag, WalEvent};
use sieve_exec::hash::fold_word;

/// Fixed byte length of a frame header (length + sequence + checksum).
pub(crate) const HEADER_LEN: usize = 4 + 8 + 8;

/// Upper bound on a plausible payload length. Real frames are kilobytes;
/// the cap exists so a corrupted length prefix cannot make the resync
/// scanner treat half the file as one giant torn frame.
pub(crate) const MAX_PAYLOAD: usize = 1 << 28;

/// Seed of a frame's checksum, before its sequence number ("SIEVWALF" in
/// ASCII).
const FRAME_SEED: u64 = 0x5349_4556_5741_4C46;

/// The checksum of `bytes` under `seed`: a log frame's payload, a snapshot
/// body, a checkpoint record.
///
/// The bytes are cut into four lanes of `len / 32 * 8` bytes, the last
/// lane taking the remainder. Lane `i`'s chain starts at `fold_word(seed,
/// len) + i`, so equal lanes sum apart and the length is covered (a short
/// last word is zero-padded), and the four chains step in lockstep over the
/// words every lane has; the last then steps on over its remainder. The
/// four sums fold into `seed`, in lane order, with the same step.
pub(crate) fn lane_checksum(seed: u64, bytes: &[u8]) -> u64 {
    let start = fold_word(seed, bytes.len() as u64);
    let quarter = bytes.len() / 32 * 8;
    let lanes: [&[u8]; 4] = std::array::from_fn(|lane| &bytes[lane * quarter..]);
    let mut sums: [u64; 4] = std::array::from_fn(|lane| start.wrapping_add(lane as u64));
    for at in (0..quarter).step_by(8) {
        for (sum, lane) in sums.iter_mut().zip(lanes) {
            let word = lane[at..at + 8].try_into().expect("8 bytes");
            *sum = fold_word(*sum, u64::from_le_bytes(word));
        }
    }
    le_words(&lanes[3][quarter..], |word| {
        sums[3] = fold_word(sums[3], word)
    });
    sums.into_iter().fold(seed, fold_word)
}

/// The checksum of the frame of sequence number `seq` around `payload`.
pub(crate) fn checksum(seq: u64, payload: &[u8]) -> u64 {
    lane_checksum(fold_word(FRAME_SEED, seq), payload)
}

/// Encodes one event as a complete frame with sequence number `seq`.
#[cfg(test)]
pub(crate) fn encode(seq: u64, event: &WalEvent) -> Vec<u8> {
    let mut payload = Vec::new();
    event.encode(&mut payload);
    frame_payload(seq, &payload)
}

/// Wraps an encoded event in a frame with sequence number `seq`.
#[cfg(test)]
pub(crate) fn frame_payload(seq: u64, payload: &[u8]) -> Vec<u8> {
    use crate::codec::{put_u32, put_u64};
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "event payload of {} bytes exceeds the frame cap",
        payload.len()
    );
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u64(&mut frame, seq);
    put_u64(&mut frame, checksum(seq, payload));
    frame.extend_from_slice(payload);
    frame
}

/// What [`parse_at`] found at a given byte offset; `E` is what the payload
/// decoded to.
#[derive(Debug)]
pub(crate) enum Parsed<E = WalEvent> {
    /// A complete, checksum-verified, fully-decoded frame ending at `end`.
    Frame {
        /// The frame's sequence number.
        seq: u64,
        /// The decoded event.
        event: E,
        /// Byte offset one past the frame's last byte.
        end: usize,
    },
    /// The offset is exactly the end of the log: a clean EOF.
    Eof,
    /// The bytes at the offset do not form a valid frame (torn tail, bit
    /// flip, or garbage).
    Bad {
        /// What failed first.
        reason: String,
    },
}

/// A complete frame header with a plausible length, its payload present.
#[derive(Debug)]
struct Header {
    seq: u64,
    /// The checksum the frame carries.
    stored: u64,
    payload_start: usize,
    /// Byte offset one past the frame's last byte.
    end: usize,
}

impl Header {
    /// Reads the frame header at `offset`: `Ok(None)` exactly at the end
    /// of the log, the reason for a torn header, an implausible length or
    /// a torn payload.
    fn at(bytes: &[u8], offset: usize) -> Result<Option<Self>, String> {
        if offset == bytes.len() {
            return Ok(None);
        }
        if offset + HEADER_LEN > bytes.len() {
            return Err(format!(
                "torn frame header: {} bytes present, {HEADER_LEN} needed",
                bytes.len() - offset
            ));
        }
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD {
            return Err(format!("implausible payload length {len}"));
        }
        let seq = u64::from_le_bytes(bytes[offset + 4..offset + 12].try_into().expect("8 bytes"));
        let stored =
            u64::from_le_bytes(bytes[offset + 12..offset + 20].try_into().expect("8 bytes"));
        let payload_start = offset + HEADER_LEN;
        let Some(end) = payload_start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            return Err(format!(
                "torn frame payload: {} of {len} bytes present",
                bytes.len() - payload_start
            ));
        };
        Ok(Some(Self {
            seq,
            stored,
            payload_start,
            end,
        }))
    }

    /// The frame's payload within `bytes`, the log the header was read
    /// from.
    fn payload<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[self.payload_start..self.end]
    }
}

/// The payload length the frame header at `offset` states, when the header
/// is whole and the length plausible: how far a reader holding only part
/// of a log must read before the frame can be judged.
pub(crate) fn stated_len(bytes: &[u8], offset: usize) -> Option<usize> {
    let header = bytes.get(offset..)?.get(..HEADER_LEN)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    (len <= MAX_PAYLOAD).then_some(len)
}

/// [`parse_at`] with the payload decoder `decode`: the log reader's walk
/// passes one that lends ingest batches instead of materialising them.
pub(crate) fn judge_at<'a, E>(
    bytes: &'a [u8],
    offset: usize,
    decode: impl FnOnce(&'a [u8]) -> DecodeResult<E>,
) -> Parsed<E> {
    let header = match Header::at(bytes, offset) {
        Ok(Some(header)) => header,
        Ok(None) => return Parsed::Eof,
        Err(reason) => return Parsed::Bad { reason },
    };
    let payload = header.payload(bytes);
    if checksum(header.seq, payload) != header.stored {
        return Parsed::Bad {
            reason: format!("checksum mismatch in frame seq {}", header.seq),
        };
    }
    match decode(payload) {
        Ok(event) => Parsed::Frame {
            seq: header.seq,
            event,
            end: header.end,
        },
        Err(reason) => Parsed::Bad {
            reason: format!("checksummed payload failed to decode: {reason}"),
        },
    }
}

/// The event tag of the frame at `offset` when the frame is whole and its
/// checksum verifies but this build reads no event of that tag: a frame
/// another build wrote, not a torn or flipped one.
pub(crate) fn unknown_tag_at(bytes: &[u8], offset: usize) -> Option<u8> {
    let header = Header::at(bytes, offset).ok()??;
    let payload = header.payload(bytes);
    let tag = *payload.first()?;
    (!reads_tag(tag) && checksum(header.seq, payload) == header.stored).then_some(tag)
}

/// Attempts to parse one frame starting at `offset`.
///
/// Never panics on any input; every malformation — torn header, torn
/// payload, implausible length, checksum mismatch, undecodable payload —
/// comes back as [`Parsed::Bad`].
pub(crate) fn parse_at(bytes: &[u8], offset: usize) -> Parsed {
    judge_at(bytes, offset, WalEvent::decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::unhex;
    use crate::event::{AdminEvent, IngestBatch};
    use crate::testing::{mutate, rng};
    use sieve_core::{GrangerConfig, SieveConfig};
    use sieve_exec::hash::splitmix64;
    use sieve_graph::CallGraph;
    use sieve_simulator::store::{MetricId, Named, RetentionPolicy};

    fn event() -> WalEvent {
        WalEvent::IngestBatch(IngestBatch {
            tenant: "acme".into(),
            points: vec![(0, 500, 1.5)],
            series_before: None,
            watermarks: vec![Named::Spelled(0)],
            digest: 0x1234,
            spelled: vec![MetricId::new("web", "cpu")],
        })
    }

    #[test]
    fn frames_roundtrip_and_checksums_are_order_sensitive() {
        let frame = encode(7, &event());
        match parse_at(&frame, 0) {
            Parsed::Frame {
                seq,
                event: decoded,
                end,
            } => {
                assert_eq!(seq, 7);
                assert_eq!(decoded, event());
                assert_eq!(end, frame.len());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        // The same payload under a different sequence number has a
        // different checksum — a frame cannot be replayed out of place.
        let other = encode(8, &event());
        assert_ne!(frame[12..20], other[12..20]);
        assert!(matches!(parse_at(&frame, frame.len()), Parsed::Eof));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = encode(3, &event());
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut torn = frame.clone();
                torn[byte] ^= 1 << bit;
                assert!(
                    matches!(parse_at(&torn, 0), Parsed::Bad { .. }),
                    "flip of byte {byte} bit {bit} must not verify"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let frame = encode(3, &event());
        // Truncation to zero bytes is a clean EOF (an empty log is valid);
        // every other prefix is a torn frame.
        assert!(matches!(parse_at(&frame[..0], 0), Parsed::Eof));
        for len in 1..frame.len() {
            assert!(
                matches!(parse_at(&frame[..len], 0), Parsed::Bad { .. }),
                "truncation to {len} bytes must not verify"
            );
        }
    }

    #[test]
    fn implausible_length_prefix_is_rejected() {
        let mut frame = encode(1, &event());
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        match parse_at(&frame, 0) {
            Parsed::Bad { reason } => assert!(reason.contains("implausible"), "{reason}"),
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn admin_frames_roundtrip_too() {
        let admin = WalEvent::Admin(AdminEvent::RetentionChanged {
            tenant: "acme".into(),
            retention: RetentionPolicy::windowed(32),
        });
        let frame = encode(1, &admin);
        assert!(matches!(parse_at(&frame, 0), Parsed::Frame { seq: 1, .. }));
    }

    /// The admin frames of [`golden_events`], sequence numbers 1..=3, as
    /// this build writes them. Their payloads are format 7's, byte for
    /// byte: the call-graph payload (tag 2) is what every build since the
    /// decoder was rewritten around borrowed strings (commit 8310c95)
    /// wrote, and the tenant-created (tag 5) and retention (tag 3) payloads
    /// are format 6's, each retention policy without the tier capacity that
    /// format 5 wrote after it. Format 8 changed their checksums only (the
    /// one-multiply step), format 9 nothing of them, and format 10 their
    /// checksums again (four lanes of the payload). A change that
    /// makes one of them stop decoding to its event, or encode differently,
    /// strands the directories holding them.
    const GOLDEN_FRAMES: [&str; 3] = [
        "8e0000000100000000000000c884597e9f9a8e11050400000061636d65fa000000000000007b14ae47e17a843f03\
         000000000000000400000000000000110000000000000005000000000000007b14ae47e17a843f03000000000000\
         000180000000000000000300000000000000020000006462060000006c6f6e656c79030000007765620100000000\
         000000030000007765620200000064620c00000000000000",
        "450000000200000000000000673e953214f9247d020400000061636d650300000000000000020000006462060000\
         006c6f6e656c79030000007765620100000000000000030000007765620200000064620c00000000000000",
        "1200000003000000000000008575b40ec1b23b3a030400000061636d65014000000000000000",
    ];

    /// The events [`GOLDEN_FRAMES`] and [`GOLDEN_SLOTTED_FRAME`] encode.
    /// Every configuration field is spelled out: a default would follow the
    /// host's core count.
    fn golden_events() -> [WalEvent; 4] {
        let mut graph = CallGraph::new();
        graph.add_component("lonely");
        graph.record_calls("web", "db", 12);
        let config = SieveConfig {
            interval_ms: 250,
            variance_threshold: 0.01,
            min_clusters: 3,
            max_clusters: 4,
            kshape_max_iterations: 17,
            granger: GrangerConfig {
                max_lag: 5,
                significance: 0.01,
            },
            parallelism: 3,
            retention: RetentionPolicy::windowed(128),
        };
        [
            WalEvent::Admin(AdminEvent::TenantCreated {
                tenant: "acme".into(),
                config: Box::new(config),
                call_graph: graph.clone(),
            }),
            WalEvent::Admin(AdminEvent::CallGraphReplaced {
                tenant: "acme".into(),
                call_graph: graph,
            }),
            WalEvent::Admin(AdminEvent::RetentionChanged {
                tenant: "acme".into(),
                retention: RetentionPolicy::windowed(64),
            }),
            WalEvent::IngestBatch(IngestBatch {
                tenant: "acme".into(),
                points: vec![(1, 500, 1.5), (0, 500, -3.25)],
                series_before: Some(5),
                watermarks: vec![Named::Spelled(0), Named::Placed(3)],
                digest: 0xABCD_1234,
                spelled: vec![MetricId::new("db", "mem")],
            }),
        ]
    }

    /// `encode(4, &golden_events()[3])`: the ingest batch as formats 8 to 10
    /// write it (tag 6; format 9 changed the fingerprints a digest folds and
    /// format 10 the checksum, not the layout) — the store held five series before it, `db/mem` is
    /// created and spelled, the series at place 3 is named by it, one digest
    /// stands for both fingerprints, both points sit at the base timestamp
    /// 500 and each point is a one-byte slot, a one-byte distance and its
    /// value. This is what a directory written today holds: 63 bytes of
    /// payload, where format 7 spent 91 (a fingerprint per watermark, a
    /// timestamp per point and 8-byte counts) and format 6 102 (both ids
    /// spelled, no series count).
    const GOLDEN_SLOTTED_FRAME: &str =
        "3f00000004000000000000000bd1cdb9156668d4060400000061636d65060200020000006462030000006d656d04\
         3412cdab0000000002f4010000000000000100000000000000f83f00000000000000000ac0";

    /// Asserts that `golden` is one whole frame of sequence `seq` that
    /// decodes to `event`.
    fn assert_decodes_to(golden: &[u8], seq: u64, event: &WalEvent) {
        match parse_at(golden, 0) {
            Parsed::Frame {
                seq: parsed,
                event: decoded,
                end,
            } => {
                assert_eq!(parsed, seq);
                assert_eq!(decoded, *event, "frame {seq} decodes to its event");
                assert_eq!(end, golden.len());
            }
            other => panic!("golden frame {seq} no longer parses: {other:?}"),
        }
    }

    #[test]
    fn golden_frames_decode_to_their_events_and_reencode_as_written_today() {
        let goldens = GOLDEN_FRAMES.iter().chain([&GOLDEN_SLOTTED_FRAME]);
        for (index, (hex, event)) in goldens.zip(golden_events()).enumerate() {
            let seq = index as u64 + 1;
            let golden = unhex(hex);
            assert_eq!(encode(seq, &event), golden, "frame {seq} encodes");
            assert_decodes_to(&golden, seq, &event);
        }
    }

    #[test]
    fn a_slotted_golden_frame_encodes_from_and_decodes_to_its_event() {
        let golden = unhex(GOLDEN_SLOTTED_FRAME);
        let event = golden_events()[3].clone();
        assert_eq!(golden[HEADER_LEN], 6, "event tag");
        assert_eq!(encode(4, &event), golden);
        assert_decodes_to(&golden, 4, &event);
    }

    #[test]
    fn every_one_and_two_bit_flip_of_a_frame_is_refused() {
        // The golden ingest frame, as encoded: a 20-byte header and a
        // 63-byte payload, 664 bits, so 664 single flips and 220,116 pairs,
        // across the length, the sequence number, the checksum and the
        // payload. A pair is refused by the checksum itself, not by a
        // decode that happens to fail.
        let frame = encode(4, &golden_events()[3]);
        assert_eq!(frame.len(), HEADER_LEN + 63);
        let bits = 8 * frame.len();
        let verifies = |torn: &[u8]| match Header::at(torn, 0) {
            Ok(Some(header)) => checksum(header.seq, header.payload(torn)) == header.stored,
            _ => false,
        };
        let refused =
            |torn: &[u8]| !verifies(torn) && matches!(parse_at(torn, 0), Parsed::Bad { .. });
        assert!(verifies(&frame));
        let mut torn = frame.clone();
        let mut pairs = 0;
        for first in 0..bits {
            torn[first / 8] ^= 1 << (first % 8);
            assert!(refused(&torn), "flip of bit {first}");
            for second in first + 1..bits {
                torn[second / 8] ^= 1 << (second % 8);
                assert!(refused(&torn), "flips of bits {first} and {second}");
                torn[second / 8] ^= 1 << (second % 8);
                pairs += 1;
            }
            torn[first / 8] ^= 1 << (first % 8);
        }
        assert_eq!((torn, pairs), (frame, 220_116));
    }

    /// Whether `payload` decodes, asserting that an ingest batch it decodes
    /// to re-encodes to exactly `payload`: a batch has one spelling.
    fn decodes_to_its_one_spelling(payload: &[u8], reused: &mut IngestBatch) -> bool {
        match WalEvent::decode_into(payload, reused) {
            Ok(crate::event::Decoded::Ingest) => {
                let mut again = Vec::new();
                WalEvent::IngestBatch(reused.clone()).encode(&mut again);
                assert_eq!(
                    again, payload,
                    "a decoded ingest payload re-encodes to its bytes"
                );
                true
            }
            Ok(crate::event::Decoded::Admin(_)) => true,
            Err(_) => false,
        }
    }

    #[test]
    fn mutated_golden_payloads_and_frames_decode_or_are_refused_without_panicking() {
        // 100,000 mutations of each golden payload — the ingest batch and
        // the three admin events — and of the golden ingest frame, whose
        // checksum is recomputed after the edit so that every mutation
        // reaches the decoder. Run in the debug build, so every
        // `debug_assert!` on the way counts.
        const MUTATIONS: usize = 100_000;
        let mut rand = rng(0x0B5E_55ED);
        let mut reused = IngestBatch::default();
        let payloads = GOLDEN_FRAMES
            .iter()
            .chain([&GOLDEN_SLOTTED_FRAME])
            .map(|hex| unhex(hex)[HEADER_LEN..].to_vec());
        let mut accepted = Vec::new();
        for golden in payloads {
            let decoded = (0..MUTATIONS)
                .filter(|_| decodes_to_its_one_spelling(&mutate(&golden, &mut rand), &mut reused))
                .count();
            accepted.push(decoded);
        }

        let frame = unhex(GOLDEN_SLOTTED_FRAME);
        let mut framed = 0;
        for _ in 0..MUTATIONS {
            let mut torn = mutate(&frame, &mut rand);
            if let Ok(Some(header)) = Header::at(&torn, 0) {
                let sum = checksum(header.seq, header.payload(&torn));
                torn[12..20].copy_from_slice(&sum.to_le_bytes());
            }
            if let Parsed::Frame { event, end, .. } = parse_at(&torn, 0) {
                if let WalEvent::IngestBatch(batch) = &event {
                    let mut again = Vec::new();
                    WalEvent::IngestBatch(batch.clone()).encode(&mut again);
                    assert_eq!(again, torn[HEADER_LEN..end], "one spelling");
                }
                framed += 1;
            }
        }
        // Not vacuous: a share of each kind decodes — a value or the
        // digest flipped, a name's byte changed — and is held to its
        // spelling.
        assert!(accepted.iter().all(|&n| n > 1_000), "{accepted:?}");
        assert!(framed > 1_000, "{framed}");
    }

    /// [`lane_checksum`] as its doc defines it, one lane after another:
    /// each lane's chain over its words, copied out one by one (the last
    /// zero-padded), then the four sums folded in lane order.
    fn lane_checksum_written_out(seed: u64, bytes: &[u8]) -> u64 {
        let start = fold_word(seed, bytes.len() as u64);
        let quarter = bytes.len() / 32 * 8;
        let lane_sum = |lane: usize| {
            let end = if lane == 3 {
                bytes.len()
            } else {
                (lane + 1) * quarter
            };
            let mut sum = start.wrapping_add(lane as u64);
            for chunk in bytes[lane * quarter..end].chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                sum = fold_word(sum, u64::from_le_bytes(word));
            }
            sum
        };
        (0..4).map(lane_sum).fold(seed, fold_word)
    }

    #[test]
    fn lane_checksum_equals_its_four_chains_written_out() {
        let mut state = 0x1A4E5_u64;
        let mut rand = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(state)
        };
        // Every length from 0 to 600 bytes: every residue mod 32, empty
        // lanes (under 32 bytes, all in the last lane's remainder) and
        // short last words.
        for len in 0..=600 {
            let bytes: Vec<u8> = (0..len).map(|_| rand() as u8).collect();
            let seed = rand();
            assert_eq!(
                lane_checksum(seed, &bytes),
                lane_checksum_written_out(seed, &bytes),
                "{len} bytes"
            );
        }
        // The frame's checksum is the lane checksum under its sequence
        // number's seed.
        let payload = unhex(GOLDEN_SLOTTED_FRAME)[HEADER_LEN..].to_vec();
        let seed = fold_word(0x5349_4556_5741_4C46, 4);
        assert_eq!(
            checksum(4, &payload),
            lane_checksum_written_out(seed, &payload)
        );
    }
}
