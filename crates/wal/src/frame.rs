//! Length-prefixed, checksummed log frames.
//!
//! Every event appended to a shard log is wrapped in one frame:
//!
//! ```text
//! [payload length: u32 LE][sequence: u64 LE][checksum: u64 LE][payload]
//! ```
//!
//! The checksum is a [`sieve_exec::hash::splitmix64`]-based mix chain
//! seeded with the sequence number and payload length and folded over the
//! payload in 8-byte little-endian chunks — the same mixing primitive the
//! rest of the workspace uses for content fingerprints, so the WAL adds
//! no second hashing scheme. A frame is accepted only if it is fully
//! present, its length is plausible, its checksum verifies, *and* its
//! payload decodes as a [`WalEvent`] with no trailing bytes.
//!
//! Judging a frame is three steps — parse the header, verify the
//! checksum, decode the payload — that [`parse_at`] takes in turn for one
//! offset. A scan of a whole log verifies a few frames at a time instead:
//! [`checksums`] steps several independent chains in lockstep, which keeps
//! the processor's multipliers busy where one chain would wait on its own
//! previous step.

use crate::codec::{le_words, DecodeResult};
use crate::event::{reads_tag, WalEvent};
use sieve_exec::hash::mix;

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
    let mut fps = frames.map(|(seq, payload)| mix(mix(CHECKSUM_SEED, seq), payload.len() as u64));
    let common = frames
        .iter()
        .map(|(_, payload)| payload.len() / 8)
        .min()
        .unwrap_or(0)
        * 8;
    for at in (0..common).step_by(8) {
        for (fp, (_, payload)) in fps.iter_mut().zip(&frames) {
            let word = payload[at..at + 8].try_into().expect("8 bytes");
            *fp = mix(*fp, u64::from_le_bytes(word));
        }
    }
    for (fp, (_, payload)) in fps.iter_mut().zip(&frames) {
        le_words(&payload[common..], |word| *fp = mix(*fp, word));
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
            watermarks: vec![(Named::Spelled(0), 0x1234)],
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
    /// this build writes them. The call-graph frame (tag 2) is the bytes
    /// every build since the decoder was rewritten around borrowed strings
    /// (commit 8310c95) wrote. The tenant-created (tag 5) and retention
    /// (tag 3) frames are format 6's: each retention policy without the
    /// tier capacity that format 5 wrote after it, 8 bytes shorter. A
    /// change that makes one of them stop decoding to its event, or encode
    /// differently, strands the directories holding them.
    const GOLDEN_FRAMES: [&str; 3] = [
        "8e0000000100000000000000fdf1d737d1c08fcd050400000061636d65fa000000000000007b14ae47e17a843f03\
         000000000000000400000000000000110000000000000005000000000000007b14ae47e17a843f03000000000000\
         000180000000000000000300000000000000020000006462060000006c6f6e656c79030000007765620100000000\
         000000030000007765620200000064620c00000000000000",
        "4500000002000000000000005c55f27383411102020400000061636d650300000000000000020000006462060000\
         006c6f6e656c79030000007765620100000000000000030000007765620200000064620c00000000000000",
        "120000000300000000000000a3f74cc913de0346030400000061636d65014000000000000000",
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
                watermarks: vec![(Named::Spelled(0), 0xABCD), (Named::Placed(3), 0x1234)],
                spelled: vec![MetricId::new("db", "mem")],
            }),
        ]
    }

    /// `encode(4, &golden_events()[3])`: the ingest batch as format 7 writes
    /// it (tag 6) — the store held five series before it, `db/mem` is
    /// created and spelled, the series at place 3 is named by it, and each
    /// point is a one-byte slot. This is what a directory written today
    /// holds; the format-6 frame of the same points spelled both ids and
    /// had no series count (102 bytes of payload here, 91 now).
    const GOLDEN_SLOTTED_FRAME: &str =
        "5b00000004000000000000008fe962b8f41b95bc060400000061636d650602000000000000000002000000646203\
         0000006d656dcdab000000000000043412000000000000020000000000000001f401000000000000000000000000\
         f83f00f4010000000000000000000000000ac0";

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

    /// [`checksum`] as it was before it folded whole words without a copy,
    /// verbatim.
    fn checksum_reference(seq: u64, payload: &[u8]) -> u64 {
        let mut fp = mix(mix(CHECKSUM_SEED, seq), payload.len() as u64);
        for chunk in payload.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            fp = mix(fp, u64::from_le_bytes(word));
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
