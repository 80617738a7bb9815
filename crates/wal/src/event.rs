//! The logged event vocabulary: everything that mutates a tenant.
//!
//! A [`WalEvent`] is the unit the serving layer appends to a shard's log.
//! The set is deliberately exhaustive over tenant-mutating operations —
//! tenant creation, call-graph replacement, retention changes, ingest
//! batches — because the recovery guarantee ("replayed == live, bitwise")
//! only holds if *every* input to the pure store→model function is in the
//! stream.
//!
//! Ingest batches carry only the *accepted* sub-batch (the store's
//! detailed batch API reports rejections before logging) plus the
//! post-apply fingerprint watermark of each touched series. Replay
//! applies a batch only if it would reproduce those watermarks (the
//! store's `record_batch_verified` checks before it writes), so a batch
//! logged against a store state that no longer matches degrades the tenant
//! loudly instead of corrupting it silently.
//!
//! Every accepted point's series has a watermark, so a batch names each
//! series once, in memory and on disk: a point holds the *slot* of its
//! series in the watermark list. An ingest payload (event tag 6) is
//!
//! ```text
//! [6][tenant: u32 len + UTF-8][watermark count: u64]
//!    watermark count × [component: u32 len + UTF-8][metric: u32 len + UTF-8][fingerprint: u64]
//!    [point count: u64]
//!    point count × [slot: LEB128 varint][timestamp: u64][value bits: u64]
//! ```
//!
//! every integer little-endian, the watermarks sorted by [`MetricId`]. A
//! slot takes one byte below 128 watermarks and two below 16,384. Decoding
//! refuses a slot at or past the watermark count, a varint that is not the
//! shortest spelling of its value, and a point count the bytes left cannot
//! hold.
//!
//! Each event kind has one layout, the one of the directory's format
//! number ([`crate::format::FORMAT`]): a layout change bumps that number,
//! not the tag, and tags only name event kinds. An ingest body decodes into
//! reused buffers, in the `(slot, timestamp, value)` form.
//! [`WalEvent::decode`] materialises it as an owned event; the log reader
//! lends it instead, as an [`IngestRef`] whose watermark ids are read
//! through the log's id memo, so replaying a batch allocates, interns and
//! reference-counts nothing.

use crate::codec::{
    put_call_graph, put_metric_id, put_retention, put_sieve_config, put_str, put_u64, put_u8,
    put_usize, put_varint, take_call_graph, take_retention, take_sieve_config, Cursor,
    DecodeResult, IdMemo,
};
use sieve_core::SieveConfig;
use sieve_exec::hash::addr_pair_hash;
use sieve_exec::Name;
use sieve_graph::CallGraph;
use sieve_simulator::store::{MetricId, RetentionPolicy};
use std::cell::Cell;

/// One durable, replayable mutation of one tenant.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEvent {
    /// A tenant was created with this configuration and
    /// initial call graph. Replay recreates the tenant before any of its
    /// later events apply.
    TenantCreated {
        /// Tenant name (interned — staging an event never clones the
        /// string).
        tenant: Name,
        /// Analysis configuration of the tenant.
        config: Box<SieveConfig>,
        /// Call graph at creation time.
        call_graph: CallGraph,
    },
    /// The tenant's call graph was replaced.
    CallGraphReplaced {
        /// Tenant name (interned — staging an event never clones the
        /// string).
        tenant: Name,
        /// The new call graph.
        call_graph: CallGraph,
    },
    /// The tenant's retention policy changed (and the store trimmed
    /// accordingly — replay re-trims deterministically).
    RetentionChanged {
        /// Tenant name (interned — staging an event never clones the
        /// string).
        tenant: Name,
        /// The new policy.
        retention: RetentionPolicy,
    },
    /// An ingest batch whose points were all *accepted* live.
    IngestBatch {
        /// Tenant name (interned — staging an event never clones the
        /// string).
        tenant: Name,
        /// The accepted `(slot, timestamp, value)` points, in apply order;
        /// the point's series is `watermarks[slot].0`.
        points: Vec<(u32, u64, f64)>,
        /// Post-apply content fingerprint of every series the batch
        /// touched, sorted by [`MetricId`] — the replay verification
        /// anchor.
        watermarks: Vec<(MetricId, u64)>,
    },
}

/// The event tag names an event kind; its layout is the directory's
/// format's. A tag no longer written is retired, never reused, so a frame
/// carrying it fails as an unknown tag: tag 1 (a tenant creation record
/// two bytes longer) and tag 4 (an ingest batch whose points spelled out
/// their ids) are retired.
const TAG_TENANT_CREATED: u8 = 5;
const TAG_CALL_GRAPH_REPLACED: u8 = 2;
const TAG_RETENTION_CHANGED: u8 = 3;
/// An ingest batch whose points name their series by slot.
const TAG_INGEST_BATCH: u8 = 6;

/// Whether this build decodes events of `tag`. A checksum-verified frame of
/// any other tag was written by another build.
pub(crate) fn reads_tag(tag: u8) -> bool {
    matches!(
        tag,
        TAG_TENANT_CREATED | TAG_CALL_GRAPH_REPLACED | TAG_RETENTION_CHANGED | TAG_INGEST_BATCH
    )
}

impl WalEvent {
    /// The tenant this event mutates.
    pub fn tenant(&self) -> &str {
        match self {
            Self::TenantCreated { tenant, .. }
            | Self::CallGraphReplaced { tenant, .. }
            | Self::RetentionChanged { tenant, .. }
            | Self::IngestBatch { tenant, .. } => tenant,
        }
    }

    /// Number of ingest points the event carries (0 for admin events) —
    /// what recovery reports as "points lost" when an event cannot be
    /// applied.
    pub fn point_count(&self) -> usize {
        match self {
            Self::IngestBatch { points, .. } => points.len(),
            _ => 0,
        }
    }

    /// Appends the event's tagged byte encoding to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Self::TenantCreated {
                tenant,
                config,
                call_graph,
            } => {
                put_u8(buf, TAG_TENANT_CREATED);
                put_str(buf, tenant);
                put_sieve_config(buf, config);
                put_call_graph(buf, call_graph);
            }
            Self::CallGraphReplaced { tenant, call_graph } => {
                put_u8(buf, TAG_CALL_GRAPH_REPLACED);
                put_str(buf, tenant);
                put_call_graph(buf, call_graph);
            }
            Self::RetentionChanged { tenant, retention } => {
                put_u8(buf, TAG_RETENTION_CHANGED);
                put_str(buf, tenant);
                put_retention(buf, retention);
            }
            Self::IngestBatch {
                tenant,
                points,
                watermarks,
            } => {
                debug_assert!(
                    points
                        .iter()
                        .all(|&(slot, ..)| (slot as usize) < watermarks.len()),
                    "every point's slot indexes the watermark list"
                );
                put_ingest(
                    buf,
                    tenant,
                    watermarks,
                    points.len(),
                    points.iter().copied(),
                );
            }
        }
    }

    /// Appends the encoding of an [`WalEvent::IngestBatch`] to `buf`
    /// without materialising the event: the hot ingest path streams its
    /// accepted `(id, timestamp, value)` triples straight from the
    /// caller's point buffer (skipping rejected indices) instead of
    /// cloning them into a `Vec`.
    ///
    /// Each point is written as the slot of its id in `watermarks`, the
    /// bytes [`WalEvent::encode`] writes for the equivalent `IngestBatch`.
    /// The slot is found without a search: the list is indexed by the
    /// addresses of its ids' interned names, which a point's id shares
    /// because the store's watermarks are clones of the ids it was given.
    /// The index lives in a per-thread table reused from batch to batch, so
    /// a warm ingest thread encodes without allocating.
    ///
    /// `accepted` must equal the number of triples the iterator yields,
    /// and every point's id must be listed in `watermarks` (live ingest
    /// lists every accepted point's series). An unlisted id is a caller bug:
    /// it fails a debug assertion, and a release build writes it as slot
    /// `watermarks.len()`, which decoding refuses — never another series'
    /// slot.
    pub fn encode_ingest_batch_into<'a, I>(
        buf: &mut Vec<u8>,
        tenant: &str,
        accepted: usize,
        points: I,
        watermarks: &[(MetricId, u64)],
    ) where
        I: IntoIterator<Item = (&'a MetricId, u64, f64)>,
    {
        // Taken rather than borrowed: nothing the caller's iterator does can
        // make this panic, and the table goes back warm.
        let mut index = SLOT_INDEX.take();
        index.build(watermarks);
        let points = points
            .into_iter()
            .map(|(id, timestamp_ms, value)| (index.slot(id), timestamp_ms, value));
        put_ingest(buf, tenant, watermarks, accepted, points);
        SLOT_INDEX.set(index);
    }

    /// Decodes one event from `bytes`; the whole slice must be consumed.
    /// Metric ids resolve through `memo`, which may have read any other
    /// event of the same log first.
    ///
    /// # Errors
    ///
    /// Returns a descriptive reason for truncated, malformed, or
    /// trailing-garbage input (the frame layer attaches the file offset).
    pub(crate) fn decode(bytes: &[u8], memo: &mut IdMemo) -> DecodeResult<Self> {
        let mut ingest = IngestBuf::default();
        Ok(match Self::decode_into(bytes, memo, &mut ingest)? {
            Decoded::Admin(event) => event,
            Decoded::Ingest => IngestRef::new(&ingest, memo).to_event(),
        })
    }

    /// [`WalEvent::decode`] without materialising an ingest batch: its
    /// tenant, points and watermarks land in `ingest`. An admin event is
    /// decoded owned.
    pub(crate) fn decode_into(
        bytes: &[u8],
        memo: &mut IdMemo,
        ingest: &mut IngestBuf,
    ) -> DecodeResult<Decoded> {
        let mut cur = Cursor::new(bytes);
        let decoded = match cur.take_u8("event tag")? {
            TAG_TENANT_CREATED => Decoded::Admin(Self::TenantCreated {
                tenant: cur.take_str("tenant name")?.into(),
                config: Box::new(take_sieve_config(&mut cur)?),
                call_graph: take_call_graph(&mut cur)?,
            }),
            TAG_CALL_GRAPH_REPLACED => Decoded::Admin(Self::CallGraphReplaced {
                tenant: cur.take_str("tenant name")?.into(),
                call_graph: take_call_graph(&mut cur)?,
            }),
            TAG_RETENTION_CHANGED => Decoded::Admin(Self::RetentionChanged {
                tenant: cur.take_str("tenant name")?.into(),
                retention: take_retention(&mut cur)?,
            }),
            TAG_INGEST_BATCH => {
                decode_ingest(&mut cur, memo, ingest)?;
                Decoded::Ingest
            }
            other => return Err(format!("unknown event tag {other}")),
        };
        if !cur.is_empty() {
            return Err(format!(
                "trailing garbage after event at {}",
                cur.position()
            ));
        }
        Ok(decoded)
    }
}

/// What [`WalEvent::decode_into`] read: an admin event, or an ingest batch
/// now in the [`IngestBuf`] it was given.
#[derive(Debug)]
pub(crate) enum Decoded {
    Admin(WalEvent),
    Ingest,
}

/// The buffers an ingest body decodes into, reused from batch to batch: a
/// warm set takes every batch of a log without allocating.
#[derive(Debug, Default)]
pub(crate) struct IngestBuf {
    /// The tenant the batch was ingested for, copied out of the bytes it
    /// was read from, which may be refilled before the batch is applied.
    tenant: String,
    /// `(slot, timestamp, value)` of every point, as in
    /// [`WalEvent::IngestBatch`].
    points: Vec<(u32, u64, f64)>,
    /// `(memo entry, fingerprint)` of every watermark, in log order.
    watermarks: Vec<(u32, u64)>,
}

/// Appends an ingest payload (tag 6): the one ingest encoder, fed
/// `(slot, timestamp, value)` points by both [`WalEvent::encode`] and
/// [`WalEvent::encode_ingest_batch_into`].
fn put_ingest(
    buf: &mut Vec<u8>,
    tenant: &str,
    watermarks: &[(MetricId, u64)],
    accepted: usize,
    points: impl Iterator<Item = (u32, u64, f64)>,
) {
    put_u8(buf, TAG_INGEST_BATCH);
    put_str(buf, tenant);
    put_usize(buf, watermarks.len());
    for (id, fingerprint) in watermarks {
        put_metric_id(buf, id);
        put_u64(buf, *fingerprint);
    }
    put_usize(buf, accepted);
    buf.reserve(accepted * MIN_POINT_LEN);
    let mut written = 0usize;
    for (slot, timestamp_ms, value) in points {
        put_varint(buf, slot);
        put_u64(buf, timestamp_ms);
        put_u64(buf, value.to_bits());
        written += 1;
    }
    debug_assert_eq!(written, accepted, "accepted count must match the stream");
}

/// Bytes of the shortest slotted point: a one-byte slot, a timestamp and a
/// value.
const MIN_POINT_LEN: usize = 1 + 8 + 8;

thread_local! {
    /// The slot index [`WalEvent::encode_ingest_batch_into`] reuses.
    static SLOT_INDEX: Cell<SlotIndex> = const {
        Cell::new(SlotIndex {
            cells: Vec::new(),
            mask: 0,
            shift: 0,
            stamp: 0,
            listed: 0,
        })
    };
}

/// A batch's watermark list, indexed by the addresses of each id's two
/// interned names: open addressing with linear probing, at most half full.
/// The list keeps its ids alive, so equal addresses are equal ids (see
/// [`Name::addr`]) and a point's id — a clone of the one its watermark was
/// cloned from — is found in one or two probes, without comparing a byte
/// of either name.
#[derive(Default)]
struct SlotIndex {
    /// The first `mask + 1` cells index the current list. A cell is in it
    /// only if it carries the list's `stamp`, so a new list clears nothing.
    cells: Vec<SlotCell>,
    mask: usize,
    /// 64 less the bits of `mask`.
    shift: u32,
    stamp: u32,
    /// The current list's length: the slot an unlisted id is written as.
    listed: u32,
}

/// A listed id's name addresses and slot, valid under one stamp.
#[derive(Clone, Copy, Default)]
struct SlotCell {
    key: (usize, usize),
    slot: u32,
    stamp: u32,
}

impl SlotIndex {
    /// The addresses that key `id`.
    fn key(id: &MetricId) -> (usize, usize) {
        (id.component.addr(), id.metric.addr())
    }

    /// The first cell to probe for `key`: the top bits of its
    /// [`addr_pair_hash`].
    fn home(&self, (component, metric): (usize, usize)) -> usize {
        (addr_pair_hash(component, metric) >> self.shift) as usize & self.mask
    }

    /// Indexes `watermarks`; an id listed twice keeps its first slot.
    fn build(&mut self, watermarks: &[(MetricId, u64)]) {
        let cells = (2 * watermarks.len()).next_power_of_two().max(8);
        if self.cells.len() < cells {
            self.cells.resize(cells, SlotCell::default());
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Every 2^32 lists, cells of the list stamped 0 come due.
            self.cells.fill(SlotCell::default());
            self.stamp = 1;
        }
        self.mask = cells - 1;
        self.shift = 64 - cells.trailing_zeros();
        self.listed = watermarks.len() as u32;
        for (slot, (id, _)) in (0u32..).zip(watermarks) {
            let key = Self::key(id);
            let mut at = self.home(key);
            loop {
                let cell = &mut self.cells[at];
                if cell.stamp != self.stamp {
                    *cell = SlotCell {
                        key,
                        slot,
                        stamp: self.stamp,
                    };
                    break;
                }
                if cell.key == key {
                    break;
                }
                at = (at + 1) & self.mask;
            }
        }
    }

    /// The slot of `id` in the list last built; the list's length for an
    /// id it does not name.
    fn slot(&self, id: &MetricId) -> u32 {
        let key = Self::key(id);
        let mut at = self.home(key);
        loop {
            let cell = self.cells[at];
            if cell.stamp != self.stamp {
                debug_assert!(false, "a point of {id} has no watermark");
                return self.listed;
            }
            if cell.key == key {
                return cell.slot;
            }
            at = (at + 1) & self.mask;
        }
    }
}

/// Reads an ingest body (everything after tag 6) into `buf`, whose
/// buffers keep their capacity from batch to batch.
fn decode_ingest(cur: &mut Cursor<'_>, memo: &mut IdMemo, buf: &mut IngestBuf) -> DecodeResult<()> {
    let tenant = cur.take_str("tenant name")?;
    buf.tenant.clear();
    buf.tenant.push_str(tenant);
    let slots = cur.take_usize("watermark count")?;
    u32::try_from(slots).map_err(|_| "watermark count overflows u32")?;
    buf.watermarks.clear();
    buf.watermarks.reserve(slots.min(65_536));
    for _ in 0..slots {
        let entry = memo.sight(cur)?;
        let fingerprint = cur.take_u64("watermark fingerprint")?;
        buf.watermarks.push((entry, fingerprint));
    }
    let point_count = cur.take_usize("point count")?;
    if point_count > cur.remaining() / MIN_POINT_LEN {
        return Err(format!(
            "point count {point_count} runs past the end: {} bytes left",
            cur.remaining()
        ));
    }
    buf.points.clear();
    buf.points.reserve(point_count);
    for _ in 0..point_count {
        let slot = cur.take_varint("point slot")?;
        if slot as usize >= slots {
            return Err(format!("point slot {slot} is past the {slots} watermarks"));
        }
        let timestamp_ms = cur.take_u64("point timestamp")?;
        let value = cur.take_f64("point value")?;
        buf.points.push((slot, timestamp_ms, value));
    }
    Ok(())
}

/// An ingest batch lent by the buffers it was decoded into: the fields of
/// [`WalEvent::IngestBatch`], with nothing allocated, interned or
/// reference-counted to read them.
#[derive(Clone, Copy)]
pub struct IngestRef<'f> {
    tenant: &'f str,
    points: &'f [(u32, u64, f64)],
    watermarks: &'f [(u32, u64)],
    memo: &'f IdMemo,
}

impl<'f> IngestRef<'f> {
    pub(crate) fn new(buf: &'f IngestBuf, memo: &'f IdMemo) -> Self {
        Self {
            tenant: &buf.tenant,
            points: &buf.points,
            watermarks: &buf.watermarks,
            memo,
        }
    }

    /// The tenant the batch was ingested for.
    pub(crate) fn tenant(&self) -> &'f str {
        self.tenant
    }

    /// The accepted `(slot, timestamp, value)` points, in apply order; the
    /// point's series is the `slot`-th of [`IngestRef::watermarks`].
    pub fn points(&self) -> &'f [(u32, u64, f64)] {
        self.points
    }

    /// The post-apply fingerprint of every series the batch touched, in
    /// log order (sorted by [`MetricId`] when the live store wrote it).
    pub fn watermarks(&self) -> impl ExactSizeIterator<Item = (&'f MetricId, u64)> + Clone + 'f {
        let memo = self.memo;
        self.watermarks
            .iter()
            .map(move |&(entry, fingerprint)| (memo.id(entry), fingerprint))
    }

    /// The owned [`WalEvent::IngestBatch`] this batch decodes to.
    pub(crate) fn to_event(self) -> WalEvent {
        WalEvent::IngestBatch {
            tenant: Name::new(self.tenant),
            points: self.points.to_vec(),
            watermarks: self
                .watermarks()
                .map(|(id, fingerprint)| (id.clone(), fingerprint))
                .collect(),
        }
    }
}

impl std::fmt::Debug for IngestRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestRef")
            .field("tenant", &self.tenant)
            .field("points", &self.points)
            .field("watermarks", &self.watermarks().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_exec::hash::splitmix64;

    /// Decodes through a fresh memo.
    fn decode(bytes: &[u8]) -> DecodeResult<WalEvent> {
        WalEvent::decode(bytes, &mut IdMemo::default())
    }

    /// A deterministic stream of pseudo-random words.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(state)
        }
    }

    fn sample_events() -> Vec<WalEvent> {
        let mut graph = CallGraph::new();
        graph.record_calls("web", "db", 12);
        vec![
            WalEvent::TenantCreated {
                tenant: "acme".into(),
                config: Box::new(SieveConfig::default().with_cluster_range(2, 3)),
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
            WalEvent::IngestBatch {
                tenant: "acme".into(),
                points: vec![(1, 500, 1.5), (0, 500, -3.25)],
                watermarks: vec![
                    (MetricId::new("db", "mem"), 0xABCD),
                    (MetricId::new("web", "cpu"), 0x1234),
                ],
            },
        ]
    }

    #[test]
    fn the_tags_read_are_those_of_this_format() {
        // A directory's format record names the layout of every frame, so
        // a build reading another set of tags must read another format.
        // Recovery refuses a verified frame of a tag outside this set as
        // written by another build; that guard holds only while the set
        // and the format number change together.
        let read: Vec<u8> = (0..=255u8).filter(|t| reads_tag(*t)).collect();
        assert_eq!(crate::FORMAT, 6, "a new format re-pins the tags it reads");
        assert_eq!(
            read,
            [2, 3, 5, 6],
            "a change to the event tags read needs a bump of FORMAT"
        );
    }

    #[test]
    fn every_event_roundtrips() {
        for event in sample_events() {
            let mut buf = Vec::new();
            event.encode(&mut buf);
            assert_eq!(decode(&buf).unwrap(), event);
        }
    }

    #[test]
    fn accessors_report_tenant_and_points() {
        let events = sample_events();
        assert!(events.iter().all(|e| e.tenant() == "acme"));
        assert_eq!(events[0].point_count(), 0);
        assert_eq!(events[3].point_count(), 2);
    }

    #[test]
    fn streaming_ingest_encoder_matches_the_materialised_event() {
        let points = [
            (MetricId::new("web", "cpu"), 500, 1.5),
            (MetricId::new("web", "mem"), 500, f64::NAN), // rejected live
            (MetricId::new("db", "mem"), 1000, -3.25),
        ];
        let watermarks = vec![
            (MetricId::new("db", "mem"), 0xABCD),
            (MetricId::new("web", "cpu"), 0x1234),
        ];
        let event = WalEvent::IngestBatch {
            tenant: "acme".into(),
            points: vec![(1, 500, 1.5), (0, 1000, -3.25)],
            watermarks: watermarks.clone(),
        };
        let mut materialised = Vec::new();
        event.encode(&mut materialised);

        // The streaming path walks the original buffer, skipping index 1.
        let mut streamed = Vec::new();
        WalEvent::encode_ingest_batch_into(
            &mut streamed,
            "acme",
            2,
            points
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 1)
                .map(|(_, (id, ts, v))| (id, *ts, *v)),
            &watermarks,
        );
        assert_eq!(streamed, materialised);
        assert_eq!(decode(&streamed).unwrap(), event);
    }

    #[test]
    fn malformed_events_error_instead_of_panicking() {
        assert!(decode(&[]).is_err(), "empty input");
        assert!(decode(&[99]).is_err(), "unknown tag");
        for retired in [1, 4] {
            assert_eq!(
                decode(&[retired, 0, 0, 0, 0]).unwrap_err(),
                format!("unknown event tag {retired}"),
                "tags 1 and 4 are retired, never reused"
            );
        }

        let mut buf = Vec::new();
        sample_events()[2].encode(&mut buf);
        buf.push(0); // trailing garbage
        assert!(decode(&buf).unwrap_err().contains("trailing"));
        // Every truncation of a valid encoding is rejected cleanly.
        for len in 0..buf.len() - 1 {
            assert!(decode(&buf[..len]).is_err(), "truncated at {len}");
        }
    }

    /// A slotted payload built by hand: one watermark for each of
    /// `watermarks` ids, the point count, then `points` verbatim.
    fn slotted(watermarks: usize, point_count: u64, points: &[u8]) -> Vec<u8> {
        let mut buf = vec![TAG_INGEST_BATCH];
        put_str(&mut buf, "acme");
        put_usize(&mut buf, watermarks);
        for i in 0..watermarks {
            put_metric_id(&mut buf, &MetricId::new("web", format!("m{i}")));
            put_u64(&mut buf, i as u64);
        }
        put_u64(&mut buf, point_count);
        buf.extend_from_slice(points);
        buf
    }

    /// A point's bytes after its slot: timestamp 500, value 1.5.
    fn point_tail() -> Vec<u8> {
        let mut tail = Vec::new();
        put_u64(&mut tail, 500);
        put_u64(&mut tail, 1.5f64.to_bits());
        tail
    }

    #[test]
    fn a_slotted_batch_is_refused_for_each_rule_it_breaks() {
        let point = |slot: &[u8]| [slot, &point_tail()].concat();
        let refusal = |bytes: Vec<u8>| decode(&bytes).unwrap_err();

        // Well formed: two watermarks, one point of slot 1.
        let good = slotted(2, 1, &point(&[1]));
        let WalEvent::IngestBatch { points, .. } = decode(&good).unwrap() else {
            panic!("an ingest batch");
        };
        assert_eq!(points, vec![(1, 500, 1.5)]);

        // A slot at or past the watermark count, short or long.
        assert_eq!(
            refusal(slotted(2, 1, &point(&[2]))),
            "point slot 2 is past the 2 watermarks"
        );
        assert_eq!(
            refusal(slotted(0, 1, &point(&[0]))),
            "point slot 0 is past the 0 watermarks"
        );
        assert_eq!(
            refusal(slotted(2, 1, &point(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]))),
            "point slot 4294967295 is past the 2 watermarks"
        );
        // A varint that is not the shortest spelling of its value.
        assert_eq!(
            refusal(slotted(2, 1, &point(&[0x81, 0x00]))),
            "point slot: overlong varint"
        );
        assert_eq!(
            refusal(slotted(2, 1, &point(&[0x80, 0x80, 0x00]))),
            "point slot: overlong varint"
        );
        // One past 32 bits.
        assert_eq!(
            refusal(slotted(2, 1, &point(&[0xFF, 0xFF, 0xFF, 0xFF, 0x10]))),
            "point slot: varint overflows u32"
        );
        // A point count the bytes left cannot hold, small or absurd.
        assert_eq!(
            refusal(slotted(2, 2, &point(&[1]))),
            "point count 2 runs past the end: 17 bytes left"
        );
        assert_eq!(
            refusal(slotted(2, u64::MAX, &point(&[1]))),
            "point count 18446744073709551615 runs past the end: 17 bytes left"
        );
        // A slot past the end. The count allows 17 bytes a point, but
        // seventeen points of slot 129 take 18 bytes each: the eighteenth
        // point's slot is where the bytes run out.
        let wide = point(&[0x81, 0x01]).repeat(17);
        assert!(refusal(slotted(130, 18, &wide)).starts_with("truncated point slot"));
        assert_eq!(
            refusal(slotted(130, 18, &wide[..wide.len() - 1])),
            "point count 18 runs past the end: 305 bytes left"
        );
        // Trailing garbage after the last point.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(refusal(trailing).starts_with("trailing garbage after event"));
    }

    /// A batch of `series` distinct series, sorted as the store lists them,
    /// whose points draw their slots at random.
    fn random_batch(rand: &mut impl FnMut() -> u64, series: usize) -> WalEvent {
        let mut watermarks: Vec<(MetricId, u64)> = (0..series)
            .map(|i| {
                (
                    MetricId::new(format!("c{}", i % 7), format!("m{i}")),
                    rand(),
                )
            })
            .collect();
        watermarks.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let points = match series {
            0 => Vec::new(),
            _ => (0..rand() % 300)
                .map(|_| {
                    let slot = (rand() % series as u64) as u32;
                    (slot, rand(), f64::from_bits(rand()))
                })
                .collect(),
        };
        WalEvent::IngestBatch {
            tenant: "acme".into(),
            points,
            watermarks,
        }
    }

    #[test]
    fn random_slotted_batches_roundtrip_through_both_encoders() {
        let mut rand = rng(0x5107);
        // 129 and more series make slots of two bytes.
        let mut sizes = vec![0, 1, 2, 127, 128, 129, 300];
        sizes.extend((0..60).map(|_| (rand() % 200) as usize));
        for series in sizes {
            let event = random_batch(&mut rand, series);
            let WalEvent::IngestBatch {
                points, watermarks, ..
            } = &event
            else {
                unreachable!()
            };
            let mut encoded = Vec::new();
            event.encode(&mut encoded);
            let decoded = decode(&encoded).unwrap();
            // Values are random bit patterns, NaNs among them: compare bits.
            let mut again = Vec::new();
            decoded.encode(&mut again);
            assert_eq!(again, encoded, "{series} series");
            assert_eq!(decoded.point_count(), points.len());

            let mut streamed = Vec::new();
            let triples = points.iter().map(|&(slot, timestamp_ms, value)| {
                (&watermarks[slot as usize].0, timestamp_ms, value)
            });
            WalEvent::encode_ingest_batch_into(
                &mut streamed,
                "acme",
                points.len(),
                triples,
                watermarks,
            );
            assert_eq!(streamed, encoded, "{series} series, streamed");

            // Tag, tenant, the two counts; each watermark's id and
            // fingerprint; each point's slot, one byte below 128 and two
            // from there, then 16 bytes.
            let listed: usize = watermarks
                .iter()
                .map(|(id, _)| 4 + id.component.len() + 4 + id.metric.len() + 8)
                .sum();
            let slots: usize = points
                .iter()
                .map(|&(slot, ..)| 1 + usize::from(slot >= 128))
                .sum();
            assert_eq!(
                encoded.len(),
                1 + (4 + 4) + 8 + listed + 8 + slots + 16 * points.len(),
                "{series} series"
            );
        }
    }

    #[test]
    fn a_point_of_an_unlisted_series_is_written_as_a_slot_decoding_refuses() {
        let (listed, unlisted) = (MetricId::new("web", "cpu"), MetricId::new("db", "mem"));
        let encoded = std::panic::catch_unwind(|| {
            let mut buf = Vec::new();
            WalEvent::encode_ingest_batch_into(
                &mut buf,
                "acme",
                2,
                [(&listed, 500, 1.5), (&unlisted, 500, 2.5)],
                &[(listed.clone(), 0x1234)],
            );
            buf
        });
        if cfg!(debug_assertions) {
            assert!(encoded.is_err(), "a debug build asserts");
        } else {
            assert_eq!(
                decode(&encoded.unwrap()).unwrap_err(),
                "point slot 1 is past the 1 watermarks"
            );
        }
        // The thread's slot index is intact either way.
        let mut buf = Vec::new();
        WalEvent::encode_ingest_batch_into(
            &mut buf,
            "acme",
            1,
            [(&listed, 500, 1.5)],
            &[(listed.clone(), 0x1234)],
        );
        assert_eq!(decode(&buf).unwrap().point_count(), 1);
    }

    #[test]
    fn the_slot_index_holds_only_the_last_list_across_its_stamp_wrapping() {
        let list = |names: &[&str]| -> Vec<(MetricId, u64)> {
            names
                .iter()
                .map(|name| (MetricId::new("web", *name), 0))
                .collect()
        };
        let (first, second) = (list(&["a", "b", "c"]), list(&["d", "b", "e", "f"]));
        let mut index = SlotIndex {
            stamp: u32::MAX - 3,
            ..SlotIndex::default()
        };
        for (round, listed) in [&first, &second, &first, &second].into_iter().enumerate() {
            index.build(listed);
            for (slot, (id, _)) in (0u32..).zip(listed) {
                assert_eq!(index.slot(id), slot, "round {round}, {id}");
            }
            let current = index.cells.iter().filter(|c| c.stamp == index.stamp);
            assert_eq!(current.count(), listed.len(), "round {round}");
        }
        assert_eq!(index.stamp, 1, "the last list wrapped the stamp past zero");
    }

    /// Encodes `events` back to back into one buffer, as in a log, with
    /// the byte range of each.
    fn encode_log(events: &[WalEvent]) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
        let mut log = Vec::new();
        let ranges = events
            .iter()
            .map(|event| {
                let start = log.len();
                event.encode(&mut log);
                start..log.len()
            })
            .collect();
        (log, ranges)
    }

    /// A random event over a small pool of ids, so sequences repeat them.
    /// A batch's watermark list may repeat an id and need not be sorted;
    /// its points draw their slots from it in random order, so the memo's
    /// predictions also miss.
    fn random_event(rand: &mut impl FnMut() -> u64, ids: &[MetricId]) -> WalEvent {
        let tenant: Name = ["acme", "globex", "initech"][(rand() % 3) as usize].into();
        match rand() % 8 {
            0 => WalEvent::RetentionChanged {
                tenant,
                retention: RetentionPolicy::windowed((rand() % 64) as usize + 1),
            },
            1 => {
                let mut call_graph = CallGraph::new();
                call_graph.record_calls("ab", "a", rand() % 9 + 1);
                WalEvent::CallGraphReplaced { tenant, call_graph }
            }
            _ => {
                let pick = |r: u64| ids[(r % ids.len() as u64) as usize].clone();
                let watermarks: Vec<(MetricId, u64)> =
                    (0..rand() % 4).map(|_| (pick(rand()), rand())).collect();
                let points = match watermarks.len() {
                    0 => Vec::new(),
                    listed => (0..rand() % 6)
                        .map(|_| {
                            let slot = (rand() % listed as u64) as u32;
                            (slot, rand() % 9 * 500, (rand() % 100) as f64 / 4.0)
                        })
                        .collect(),
                };
                WalEvent::IngestBatch {
                    tenant,
                    points,
                    watermarks,
                }
            }
        }
    }

    #[test]
    fn memoised_decode_equals_a_fresh_memo_decode() {
        // ("ab", "c") and ("a", "bc") concatenate to the same bytes: only a
        // key that covers the length prefixes tells them apart.
        let ids = [
            MetricId::new("ab", "c"),
            MetricId::new("a", "bc"),
            MetricId::new("web", "cpu"),
            MetricId::new("web", "mem ♥"),
            MetricId::new("", ""),
        ];
        let mut rand = rng(0xA11CE);
        for _ in 0..200 {
            let events: Vec<WalEvent> = (0..rand() % 12 + 1)
                .map(|_| random_event(&mut rand, &ids))
                .collect();
            let (log, ranges) = encode_log(&events);
            let mut memo = IdMemo::default();
            for (event, range) in events.iter().zip(ranges) {
                let memoised = WalEvent::decode(&log[range.clone()], &mut memo).unwrap();
                assert_eq!(memoised, decode(&log[range]).unwrap());
                assert_eq!(memoised, *event);
            }
            assert!(memo.interned() <= ids.len() as u64);
        }
    }

    #[test]
    fn an_id_with_invalid_utf8_is_rejected_at_every_sight_and_never_memoised() {
        let good = MetricId::new("web", "cpu");
        let mut buf = Vec::new();
        WalEvent::encode_ingest_batch_into(
            &mut buf,
            "acme",
            1,
            [(&good, 500, 1.5)],
            &[(good.clone(), 7)],
        );
        let at = buf.windows(3).position(|w| w == b"web").unwrap();
        buf[at] = 0xFF;

        let mut memo = IdMemo::default();
        for sight in 0..2 {
            let err = WalEvent::decode(&buf, &mut memo).unwrap_err();
            assert!(err.contains("invalid utf-8"), "sight {sight}: {err}");
            assert_eq!(memo.interned(), 0, "sight {sight}");
        }
        assert_eq!(memo.decoded(), 2, "both sights went through the memo");
    }

    #[test]
    fn the_memo_interns_each_id_once_however_often_it_is_read() {
        // F events of P points and P watermarks over D = P distinct ids.
        let (events, points) = (7u64, 5u64);
        let ids: Vec<MetricId> = (0..points)
            .map(|i| MetricId::new("web", format!("metric-{i}")))
            .collect();
        let batches: Vec<WalEvent> = (1..=events)
            .map(|tick| WalEvent::IngestBatch {
                tenant: "acme".into(),
                points: (0..points as u32)
                    .map(|slot| (slot, tick * 500, 1.0))
                    .collect(),
                watermarks: ids.iter().map(|id| (id.clone(), tick)).collect(),
            })
            .collect();
        let (log, ranges) = encode_log(&batches);
        let mut memo = IdMemo::default();
        for range in ranges {
            WalEvent::decode(&log[range], &mut memo).unwrap();
        }
        // A batch reads an id per watermark.
        assert_eq!(memo.decoded(), events * points);
        assert_eq!(memo.interned(), points);
        // One lane reads ids 0..P in order, once per batch. The first P
        // sights are new and hashed. The next one (id 0 again, the second
        // batch's) follows id P-1, which has no successor yet, so it is
        // hashed too and links P-1 -> 0. From then on every sight is its
        // predecessor's successor: P + 1 hashes.
        assert_eq!(memo.hashed(), points + 1);
    }
}
