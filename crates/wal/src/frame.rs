//! Length-prefixed, checksummed log frames.
//!
//! Every event appended to a shard log is wrapped in one frame:
//!
//! ```text
//! [payload length: u32 LE][sequence: u64 LE][checksum: u64 LE][payload]
//! ```
//!
//! The checksum is a chain of [`sieve_exec::hash::fold_word`] steps seeded
//! with the sequence number and payload length and folded over the payload
//! in 8-byte little-endian chunks: one multiply per word, the product's high
//! half folded onto its low half. Every step is a bijection of the word it
//! takes, so any change confined to one word — every single-bit flip among
//! them — changes the sum, and the fold-down keeps two one-bit flips in
//! consecutive words from cancelling (the tests flip every pair of bits of
//! a frame). The batch digest inside an ingest payload folds fingerprints
//! with the same step, so the WAL adds no second hashing scheme. A frame is
//! accepted only if it is fully present, its length is plausible, its
//! checksum verifies, *and* its payload decodes as a [`WalEvent`] with no
//! trailing bytes.
//!
//! Judging a frame is three steps — parse the header, verify the
//! checksum, decode the payload — that [`parse_at`] takes in turn for one
//! offset. A scan of a whole log verifies a few frames at a time instead:
//! [`checksums`] steps several independent chains in lockstep, which keeps
//! the processor's multipliers busy where one chain would wait on its own
//! previous step.

use crate::codec::{le_words, DecodeResult};
use crate::event::{reads_tag, WalEvent};
use sieve_exec::hash::fold_word;

/// Fixed byte length of a frame header (length + sequence + checksum).
pub(crate) const HEADER_LEN: usize = 4 + 8 + 8;

/// Upper bound on a plausible payload length. Real frames are kilobytes;
/// the cap exists so a corrupted length prefix cannot make the resync
/// scanner treat half the file as one giant torn frame.
pub(crate) const MAX_PAYLOAD: usize = 1 << 28;

/// Seed of the frame checksum chain ("SIEVWALF" in ASCII).
const CHECKSUM_SEED: u64 = 0x5349_4556_5741_4C46;

/// Checksum of one frame: seeded with the sequence number and payload
/// length, folded over the payload in 8-byte LE chunks (the final partial
/// chunk zero-padded).
pub(crate) fn checksum(seq: u64, payload: &[u8]) -> u64 {
    let [fp] = checksums([(seq, payload)]);
    fp
}

/// [`checksum`] of `N` frames at once: the `N` chains step in lockstep
/// over the words every payload has, then each folds its own tail.
pub(crate) fn checksums<const N: usize>(frames: [(u64, &[u8]); N]) -> [u64; N] {
    let mut fps =
        frames.map(|(seq, payload)| fold_word(fold_word(CHECKSUM_SEED, seq), payload.len() as u64));
    let common = frames
        .iter()
        .map(|(_, payload)| payload.len() / 8)
        .min()
        .unwrap_or(0)
        * 8;
    for at in (0..common).step_by(8) {
        for (fp, (_, payload)) in fps.iter_mut().zip(&frames) {
            let word = payload[at..at + 8].try_into().expect("8 bytes");
            *fp = fold_word(*fp, u64::from_le_bytes(word));
        }
    }
    for (fp, (_, payload)) in fps.iter_mut().zip(&frames) {
        le_words(&payload[common..], |word| *fp = fold_word(*fp, word));
    }
    fps
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
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Header {
    pub(crate) seq: u64,
    /// The checksum the frame carries.
    pub(crate) stored: u64,
    payload_start: usize,
    /// Byte offset one past the frame's last byte.
    pub(crate) end: usize,
}

impl Header {
    /// Reads the frame header at `offset`: `Ok(None)` exactly at the end
    /// of the log, the reason for a torn header, an implausible length or
    /// a torn payload.
    pub(crate) fn at(bytes: &[u8], offset: usize) -> Result<Option<Self>, String> {
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
    pub(crate) fn payload<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
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

/// Decodes with `decode` the payload of the frame `header` describes, whose
/// checksum has verified.
pub(crate) fn decode_verified<'a, E>(
    bytes: &'a [u8],
    header: Header,
    decode: impl FnOnce(&'a [u8]) -> DecodeResult<E>,
) -> Parsed<E> {
    match decode(header.payload(bytes)) {
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
    if checksum(header.seq, header.payload(bytes)) != header.stored {
        return Parsed::Bad {
            reason: format!("checksum mismatch in frame seq {}", header.seq),
        };
    }
    decode_verified(bytes, header, decode)
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
    use crate::event::IngestBatch;
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
        let admin = WalEvent::RetentionChanged {
            tenant: "acme".into(),
            retention: RetentionPolicy::windowed(32),
        };
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
    /// one-multiply step). A change that makes one of them stop decoding to
    /// its event, or encode differently, strands the directories holding
    /// them.
    const GOLDEN_FRAMES: [&str; 3] = [
        "8e0000000100000000000000727ffcf95c692dfe050400000061636d65fa000000000000007b14ae47e17a843f03\
         000000000000000400000000000000110000000000000005000000000000007b14ae47e17a843f03000000000000\
         000180000000000000000300000000000000020000006462060000006c6f6e656c79030000007765620100000000\
         000000030000007765620200000064620c00000000000000",
        "450000000200000000000000785a7dc9f925a380020400000061636d650300000000000000020000006462060000\
         006c6f6e656c79030000007765620100000000000000030000007765620200000064620c00000000000000",
        "120000000300000000000000ca105c05a8e808c8030400000061636d65014000000000000000",
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
            WalEvent::TenantCreated {
                tenant: "acme".into(),
                config: Box::new(config),
                call_graph: graph.clone(),
            },
            WalEvent::CallGraphReplaced {
                tenant: "acme".into(),
                call_graph: graph,
            },
            WalEvent::RetentionChanged {
                tenant: "acme".into(),
                retention: RetentionPolicy::windowed(64),
            },
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

    /// `encode(4, &golden_events()[3])`: the ingest batch as format 8 writes
    /// it (tag 6) — the store held five series before it, `db/mem` is
    /// created and spelled, the series at place 3 is named by it, one digest
    /// stands for both fingerprints, both points sit at the base timestamp
    /// 500 and each point is a one-byte slot, a one-byte distance and its
    /// value. This is what a directory written today holds: 63 bytes of
    /// payload, where format 7 spent 91 (a fingerprint per watermark, a
    /// timestamp per point and 8-byte counts) and format 6 102 (both ids
    /// spelled, no series count).
    const GOLDEN_SLOTTED_FRAME: &str =
        "3f00000004000000000000005b99eb6726f5778d060400000061636d65060200020000006462030000006d656d04\
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

    /// A deterministic stream of pseudo-random words.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(state)
        }
    }

    /// `bytes` after one to four random edits: a bit flipped, a byte set
    /// (often to a varint's or a count's edge), a cut, or a byte inserted.
    fn mutate(bytes: &[u8], rand: &mut impl FnMut() -> u64) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for _ in 0..1 + rand() % 4 {
            let at = |len: usize, r: u64| (r % (len as u64 + 1)) as usize;
            match rand() % 4 {
                0 if !out.is_empty() => {
                    let byte = at(out.len() - 1, rand());
                    out[byte] ^= 1 << (rand() % 8);
                }
                1 if !out.is_empty() => {
                    let byte = at(out.len() - 1, rand());
                    out[byte] = [0x00, 0x01, 0x7F, 0x80, 0xFF, rand() as u8][(rand() % 6) as usize];
                }
                2 => out.truncate(at(out.len(), rand())),
                _ => {
                    let byte = at(out.len(), rand());
                    out.insert(byte, rand() as u8);
                }
            }
        }
        out
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

    /// [`checksum`] as one chain over chunks copied out one by one.
    fn checksum_reference(seq: u64, payload: &[u8]) -> u64 {
        let mut fp = fold_word(fold_word(CHECKSUM_SEED, seq), payload.len() as u64);
        for chunk in payload.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            fp = fold_word(fp, u64::from_le_bytes(word));
        }
        fp
    }

    #[test]
    fn checksum_equals_the_chunk_copy_loop_it_replaced() {
        let mut state = 0x5EED_u64;
        let mut rand = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(state)
        };
        let lengths: Vec<usize> = (0..=17)
            .chain((0..200).map(|_| (rand() % 600) as usize))
            .collect();
        for len in lengths {
            let payload: Vec<u8> = (0..len).map(|_| rand() as u8).collect();
            let seq = rand();
            assert_eq!(
                checksum(seq, &payload),
                checksum_reference(seq, &payload),
                "payload of {len} bytes"
            );
        }
    }

    #[test]
    fn four_lane_checksums_equal_one_chain_per_frame() {
        let mut state = 0x1A4E5_u64;
        let mut rand = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(state)
        };
        // Unequal lanes of 0..600 bytes, then quads whose shortest lane has
        // fewer than 8 bytes: no common word, every lane all tail.
        for quad in 0..260 {
            let cap = if quad < 200 { 600 } else { 8 };
            let payloads: Vec<Vec<u8>> = (0..4)
                .map(|_| (0..rand() % cap).map(|_| rand() as u8).collect())
                .collect();
            let seqs = [rand(), rand(), rand(), rand()];
            let lanes = std::array::from_fn(|lane| (seqs[lane], payloads[lane].as_slice()));
            let sums = checksums::<4>(lanes);
            for (lane, sum) in sums.into_iter().enumerate() {
                let (seq, payload) = lanes[lane];
                let what = format!("quad {quad} lane {lane}: {} bytes", payload.len());
                assert_eq!(sum, checksum(seq, payload), "{what}");
                assert_eq!(sum, checksum_reference(seq, payload), "{what}");
            }
        }
    }
}
