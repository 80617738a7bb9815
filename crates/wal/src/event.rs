//! The logged event vocabulary: everything that mutates a tenant.
//!
//! A [`WalEvent`] is the unit the serving layer appends to a shard's log.
//! The set is deliberately exhaustive over tenant-mutating operations —
//! tenant creation, call-graph replacement and retention changes (the
//! three kinds of [`AdminEvent`]), and ingest batches — because the
//! recovery guarantee ("replayed == live, bitwise") only holds if *every*
//! input to the pure store→model function is in the stream.
//!
//! Ingest batches carry only the *accepted* sub-batch (the store's
//! detailed batch API reports rejections before logging), the series it
//! touched, and one *digest* of their post-apply fingerprints, folded in
//! list order (the store's `Watermarks::digest`). Replay applies a batch
//! only if it would reproduce that digest (the store's
//! `record_batch_verified` checks before it writes), so a batch logged
//! against a store state that no longer matches degrades the tenant loudly
//! instead of corrupting it silently.
//!
//! Every accepted point's series is listed, so a batch names each series
//! once, in memory and on disk: a point holds the *slot* of its series in
//! the list. The list names a series the batch did not create by its
//! *place* — its index in the tenant store's id order before the batch —
//! and spells out only the series the batch creates; the store's series
//! count before the batch, logged beside the places, is what makes them
//! safe (see [`Watermarks`]). A frame carries one *base* timestamp, its
//! first point's, and each point its timestamp's distance from it, so the
//! points of one scrape, which share a timestamp, spend one byte on it.
//! Nothing is carried from one frame to the next. An ingest payload (event
//! tag 6) is
//!
//! ```text
//! [6][tenant: u32 len + UTF-8][series before + 1: varint][watermark count: varint]
//!    watermark count × [name]
//!    [digest: u64]
//!    [point count: varint]
//!    [base timestamp: u64]                                    only if a point follows
//!    point count × [slot: varint][timestamp − base: zigzag varint][value bits: u64]
//!
//! name = [place + 1: varint]                                        a placed series
//!      | [0][component: u32 len + UTF-8][metric: u32 len + UTF-8]   a spelled one
//! ```
//!
//! every varint LEB128, every other integer little-endian, the names sorted
//! by [`MetricId`]. A timestamp's distance is its wrapping difference from
//! the base read as an `i64` and zigzagged (0, −1, 1, −2, … become 0, 1, 2,
//! 3, …), so a point within 63 ms of the base takes one byte and every
//! `u64` timestamp has a spelling. A series count of 0 stands for
//! none, and is allowed only when no watermark is placed: a store of more
//! series than a `u32` counts is logged with none, every id spelled. A slot
//! or place takes one byte below 128 and two below 16,384. Decoding refuses
//! a slot at or past the watermark count, a place at or past the series
//! count, a varint that is not the shortest spelling of its value, a point
//! count the bytes left cannot hold, and a first point off the base, so
//! each batch has exactly one spelling. Replay refuses the batch when the
//! store's series count is not the logged one (the store's
//! `record_batch_verified`).
//!
//! Each event kind has one layout, the one of the directory's format
//! number ([`crate::format::FORMAT`]): a layout change bumps that number,
//! not the tag, and tags only name event kinds. An ingest body decodes into
//! one [`IngestBatch`], in the `(slot, timestamp, value)` form, whose
//! buffers keep their capacity: [`WalEvent::decode`] moves it into an owned
//! event, and the log reader keeps one for its whole log and lends it, so
//! replaying a batch allocates nothing once the buffers are warm. A
//! decoded name is one word, a place or the index of its id in the batch's
//! side list of spelled ids: a spelled id is interned as it is read, like
//! every name this crate decodes, and lands in that list. A place written
//! in one byte below the series count, and a point whose slot and distance
//! are one byte each, are read behind one bounds check; everything else
//! takes the field-by-field path, which makes every refusal.

use crate::codec::{
    put_call_graph, put_metric_id, put_retention, put_sieve_config, put_str, put_u64, put_u8,
    put_varint, put_varint64, take_call_graph, take_metric_id, take_name, take_retention,
    take_sieve_config, Cursor, DecodeResult,
};
use sieve_core::SieveConfig;
use sieve_exec::hash::addr_pair_hash;
use sieve_exec::Name;
use sieve_graph::CallGraph;
use sieve_simulator::store::{MetricId, Named, RetentionPolicy, Watermarks};
use std::cell::Cell;

/// One durable, replayable mutation of one tenant.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEvent {
    /// A tenant-admin event: a creation, a call-graph swap or a retention
    /// change.
    Admin(AdminEvent),
    /// An ingest batch whose points were all *accepted* live.
    IngestBatch(IngestBatch),
}

/// A tenant-admin mutation: one of the three rare kinds of event, decoded
/// owned. Never an ingest batch.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminEvent {
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
}

/// An ingest batch whose points were all *accepted* live: the one shape of
/// a logged batch, owned in a [`WalEvent::IngestBatch`] and lent by the log
/// reader, which decodes every batch of a log into one of these.
///
/// A watermark is one word, the name of a series the batch touched: a
/// place or an index into [`IngestBatch::spelled`], which holds the few ids
/// a log spells (the series a batch creates), so the common placed
/// watermark is decoded without building an id. The fingerprints the
/// series reached are not listed one by one: [`IngestBatch::digest`] folds
/// them. [`IngestBatch::names`] reads the list with the ids looked up, the
/// form the store's verified apply takes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestBatch {
    /// The tenant the batch was ingested for, copied out of the bytes it
    /// was read from: the log reader refills those before the batch is
    /// applied, and reuses this buffer for the next batch.
    pub tenant: String,
    /// The accepted `(slot, timestamp, value)` points, in apply order; the
    /// point's series is the one `watermarks[slot]` names.
    pub points: Vec<(u32, u64, f64)>,
    /// The tenant store's series count before the batch: what a placed
    /// watermark's place indexes. `None` when no watermark is placed.
    pub series_before: Option<u32>,
    /// Every series the batch touched, sorted by [`MetricId`] when the live
    /// store wrote it, each named by its place or by `Named::Spelled(i)`:
    /// the id `spelled[i]`.
    pub watermarks: Vec<Named<u32>>,
    /// The listed series' post-apply content fingerprints, folded in list
    /// order into one word (the store's `Watermarks::digest`): the replay
    /// verification anchor.
    pub digest: u64,
    /// The ids of the spelled watermarks, in list order: the decoder
    /// pushes one per `Named::Spelled` it reads, so `Named::Spelled(i)` is
    /// the `i`-th of them. Every index a watermark holds must be in range.
    pub spelled: Vec<MetricId>,
}

impl IngestBatch {
    /// The watermarks' names, each spelled one with its id borrowed from
    /// [`IngestBatch::spelled`].
    ///
    /// # Panics
    ///
    /// When a `Named::Spelled` index is past `spelled`: a batch built by
    /// hand that breaks the field's rule. A decoded batch keeps it.
    pub fn names(&self) -> impl ExactSizeIterator<Item = Named<&MetricId>> + Clone + '_ {
        self.watermarks.iter().map(|&name| match name {
            Named::Placed(place) => Named::Placed(place),
            Named::Spelled(i) => Named::Spelled(&self.spelled[i as usize]),
        })
    }
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

impl AdminEvent {
    /// The tenant this event mutates.
    pub fn tenant(&self) -> &str {
        match self {
            Self::TenantCreated { tenant, .. }
            | Self::CallGraphReplaced { tenant, .. }
            | Self::RetentionChanged { tenant, .. } => tenant,
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
        }
    }

    /// Reads an admin body, everything after its `tag`.
    fn decode(tag: u8, cur: &mut Cursor<'_>) -> DecodeResult<Self> {
        Ok(match tag {
            TAG_TENANT_CREATED => Self::TenantCreated {
                tenant: take_name(cur, "tenant name")?,
                config: Box::new(take_sieve_config(cur)?),
                call_graph: take_call_graph(cur)?,
            },
            TAG_CALL_GRAPH_REPLACED => Self::CallGraphReplaced {
                tenant: take_name(cur, "tenant name")?,
                call_graph: take_call_graph(cur)?,
            },
            TAG_RETENTION_CHANGED => Self::RetentionChanged {
                tenant: take_name(cur, "tenant name")?,
                retention: take_retention(cur)?,
            },
            other => return Err(format!("unknown event tag {other}")),
        })
    }
}

impl WalEvent {
    /// The tenant this event mutates.
    pub fn tenant(&self) -> &str {
        match self {
            Self::Admin(event) => event.tenant(),
            Self::IngestBatch(batch) => &batch.tenant,
        }
    }

    /// Number of ingest points the event carries (0 for admin events) —
    /// what recovery reports as "points lost" when an event cannot be
    /// applied.
    pub fn point_count(&self) -> usize {
        match self {
            Self::Admin(_) => 0,
            Self::IngestBatch(batch) => batch.points.len(),
        }
    }

    /// Appends the event's tagged byte encoding to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Self::Admin(event) => event.encode(buf),
            Self::IngestBatch(batch) => {
                let IngestBatch {
                    tenant,
                    points,
                    series_before,
                    watermarks,
                    digest,
                    ..
                } = batch;
                debug_assert!(
                    points
                        .iter()
                        .all(|&(slot, ..)| (slot as usize) < watermarks.len()),
                    "every point's slot indexes the watermark list"
                );
                put_ingest(
                    buf,
                    tenant,
                    *series_before,
                    batch.names(),
                    *digest,
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
    /// Each listed series the store held before the batch is written as its
    /// place, each one the batch created by its id, the list's fingerprints
    /// as their [`Watermarks::digest`], and each point as the slot of its id
    /// in the list: the bytes [`WalEvent::encode`] writes for the equivalent
    /// `IngestBatch`.
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
        watermarks: &Watermarks,
    ) where
        I: IntoIterator<Item = (&'a MetricId, u64, f64)>,
    {
        // A count whose successor does not fit a `u32` is logged as none,
        // and then nothing is placed.
        let series_before = u32::try_from(watermarks.series_before)
            .ok()
            .filter(|&count| count < u32::MAX);
        let names =
            watermarks
                .list
                .iter()
                .map(|watermark| match (series_before, watermark.place) {
                    (Some(_), Some(place)) => Named::Placed(place),
                    _ => Named::Spelled(&watermark.id),
                });
        // Taken rather than borrowed: nothing the caller's iterator does can
        // make this panic, and the table goes back warm.
        let mut index = SLOT_INDEX.take();
        index.build(watermarks.list.iter().map(|watermark| &watermark.id));
        let points = points
            .into_iter()
            .map(|(id, timestamp_ms, value)| (index.slot(id), timestamp_ms, value));
        let digest = watermarks.digest();
        put_ingest(buf, tenant, series_before, names, digest, accepted, points);
        SLOT_INDEX.set(index);
    }

    /// Decodes one event from `bytes`; the whole slice must be consumed.
    ///
    /// # Errors
    ///
    /// Returns a descriptive reason for truncated, malformed, or
    /// trailing-garbage input (the frame layer attaches the file offset).
    pub(crate) fn decode(bytes: &[u8]) -> DecodeResult<Self> {
        let mut ingest = IngestBatch::default();
        Ok(match Self::decode_into(bytes, &mut ingest)? {
            Decoded::Admin(event) => Self::Admin(event),
            Decoded::Ingest => Self::IngestBatch(ingest),
        })
    }

    /// [`WalEvent::decode`] without moving an ingest batch into an event:
    /// it lands in `ingest`, whose buffers keep their capacity. An admin
    /// event is decoded owned.
    pub(crate) fn decode_into(bytes: &[u8], ingest: &mut IngestBatch) -> DecodeResult<Decoded> {
        let mut cur = Cursor::new(bytes);
        let decoded = match cur.take_u8("event tag")? {
            TAG_INGEST_BATCH => {
                decode_ingest(&mut cur, ingest)?;
                Decoded::Ingest
            }
            tag => Decoded::Admin(AdminEvent::decode(tag, &mut cur)?),
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
/// now in the [`IngestBatch`] it was given.
#[derive(Debug)]
pub(crate) enum Decoded {
    Admin(AdminEvent),
    Ingest,
}

/// Appends an ingest payload (tag 6): the one ingest encoder, fed
/// `(slot, timestamp, value)` points, the watermarks' names and their
/// digest by both [`WalEvent::encode`] and
/// [`WalEvent::encode_ingest_batch_into`].
fn put_ingest<'a>(
    buf: &mut Vec<u8>,
    tenant: &str,
    series_before: Option<u32>,
    names: impl ExactSizeIterator<Item = Named<&'a MetricId>>,
    digest: u64,
    accepted: usize,
    points: impl Iterator<Item = (u32, u64, f64)>,
) {
    put_u8(buf, TAG_INGEST_BATCH);
    put_str(buf, tenant);
    debug_assert!(
        series_before != Some(u32::MAX),
        "the count is logged plus one"
    );
    put_varint(buf, series_before.map_or(0, |count| count + 1));
    put_varint(buf, logged_count(names.len()));
    for name in names {
        match name {
            Named::Placed(place) => {
                debug_assert!(series_before.is_some_and(|count| place < count));
                put_varint(buf, place + 1);
            }
            Named::Spelled(id) => {
                put_u8(buf, 0);
                put_metric_id(buf, id);
            }
        }
    }
    put_u64(buf, digest);
    put_varint(buf, logged_count(accepted));
    let mut points = points.peekable();
    let Some(&(_, base, _)) = points.peek() else {
        debug_assert_eq!(accepted, 0, "accepted count must match the stream");
        return;
    };
    put_u64(buf, base);
    buf.reserve(accepted * MIN_POINT_LEN);
    let mut written = 0usize;
    for (slot, timestamp_ms, value) in points {
        put_varint(buf, slot);
        put_varint64(buf, zigzag(timestamp_ms.wrapping_sub(base)));
        put_u64(buf, value.to_bits());
        written += 1;
    }
    debug_assert_eq!(written, accepted, "accepted count must match the stream");
}

/// A list or point count as the `u32` varint it is logged as. A frame
/// holds at most `MAX_PAYLOAD` bytes, so no loggable count is larger.
fn logged_count(len: usize) -> u32 {
    u32::try_from(len).expect("a logged batch counts fewer than 2^32 entries")
}

/// A timestamp's wrapping distance from its frame's base, read as an `i64`
/// and zigzagged: 0, −1, 1, −2, … become 0, 1, 2, 3, …
fn zigzag(distance: u64) -> u64 {
    (distance << 1) ^ ((distance as i64 >> 63) as u64)
}

/// The distance [`zigzag`] spelled.
fn unzigzag(spelled: u64) -> u64 {
    (spelled >> 1) ^ (spelled & 1).wrapping_neg()
}

/// Bytes of the shortest point: a one-byte slot, a one-byte distance and a
/// value.
const MIN_POINT_LEN: usize = 1 + 1 + 8;

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

    /// Indexes the listed `ids`; an id listed twice keeps its first slot.
    fn build<'a>(&mut self, ids: impl ExactSizeIterator<Item = &'a MetricId>) {
        let cells = (2 * ids.len()).next_power_of_two().max(8);
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
        self.listed = ids.len() as u32;
        for (slot, id) in (0u32..).zip(ids) {
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
fn decode_ingest(cur: &mut Cursor<'_>, buf: &mut IngestBatch) -> DecodeResult<()> {
    let tenant = cur.take_str("tenant name")?;
    buf.tenant.clear();
    buf.tenant.push_str(tenant);
    let series_before = cur.take_varint("series count")?.checked_sub(1);
    buf.series_before = series_before;
    let slots = cur.take_varint("watermark count")?;
    buf.watermarks.clear();
    // A watermark takes at least a byte, so a damaged count reserves no
    // more than the bytes left could hold.
    let reserved = (slots as usize).min(cur.remaining());
    buf.watermarks.reserve(reserved);
    buf.spelled.clear();
    // A place written in one byte (`place + 1` in 1..0x80) and below the
    // series count, `place < one_byte_places`, is read behind one bounds
    // check. Every other name, each one refused among them, takes the
    // field-by-field path.
    let one_byte_places = series_before.map_or(0, |count| count.min(0x7F));
    for _ in 0..slots {
        let name = match cur.peek::<1>() {
            Some(&[byte]) if u32::from(byte).wrapping_sub(1) < one_byte_places => {
                cur.skip(1);
                Named::Placed(u32::from(byte) - 1)
            }
            _ => match cur.take_varint("watermark place")?.checked_sub(1) {
                None => {
                    buf.spelled.push(take_metric_id(cur)?);
                    // At most `slots` ids, and `slots` is a `u32`.
                    Named::Spelled(buf.spelled.len() as u32 - 1)
                }
                Some(place) => match series_before {
                    Some(count) if place < count => Named::Placed(place),
                    Some(count) => {
                        return Err(format!(
                            "watermark place {place} is past the {count} series"
                        ))
                    }
                    None => return Err(format!("watermark place {place} with no series count")),
                },
            },
        };
        buf.watermarks.push(name);
    }
    buf.digest = cur.take_u64("batch digest")?;
    let point_count = cur.take_varint("point count")? as usize;
    buf.points.clear();
    if point_count == 0 {
        return Ok(());
    }
    let base = cur.take_u64("base timestamp")?;
    if point_count > cur.remaining() / MIN_POINT_LEN {
        return Err(format!(
            "point count {point_count} runs past the end: {} bytes left",
            cur.remaining()
        ));
    }
    buf.points.reserve(point_count);
    for _ in 0..point_count {
        // A record whose slot and distance are one byte each is read
        // behind one bounds check.
        let point = match cur.peek::<MIN_POINT_LEN>() {
            Some(record) if record[0] < 0x80 && record[1] < 0x80 => {
                cur.skip(MIN_POINT_LEN);
                let value = u64::from_le_bytes(record[2..].try_into().expect("8"));
                let distance = unzigzag(u64::from(record[1]));
                (
                    u32::from(record[0]),
                    base.wrapping_add(distance),
                    f64::from_bits(value),
                )
            }
            _ => (
                cur.take_varint("point slot")?,
                base.wrapping_add(unzigzag(cur.take_varint64("point timestamp")?)),
                cur.take_f64("point value")?,
            ),
        };
        let slot = point.0;
        if slot >= slots {
            return Err(format!("point slot {slot} is past the {slots} watermarks"));
        }
        buf.points.push(point);
    }
    // The base is the first point's timestamp: another would spell the
    // same batch twice.
    let first = buf.points[0].1;
    if first != base {
        return Err(format!(
            "first point timestamp {first} is off the base {base}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::rng;
    use sieve_simulator::store::Watermark;

    fn sample_events() -> Vec<WalEvent> {
        let mut graph = CallGraph::new();
        graph.record_calls("web", "db", 12);
        vec![
            WalEvent::Admin(AdminEvent::TenantCreated {
                tenant: "acme".into(),
                config: Box::new(SieveConfig::default().with_cluster_range(2, 3)),
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
                points: vec![(1, 500, 1.5), (0, 440, -3.25)],
                series_before: Some(2),
                watermarks: vec![Named::Spelled(0), Named::Placed(1)],
                digest: 0xABCD,
                spelled: vec![MetricId::new("db", "mem")],
            }),
        ]
    }

    /// The watermarks a store of `series_before` series reports for a
    /// batch touching `list`: `(id, place, fingerprint)` each.
    fn live(series_before: usize, list: &[(&MetricId, Option<u32>, u64)]) -> Watermarks {
        Watermarks {
            series_before,
            list: list
                .iter()
                .map(|&(id, place, fingerprint)| Watermark {
                    id: id.clone(),
                    place,
                    fingerprint,
                })
                .collect(),
        }
    }

    #[test]
    fn the_tags_read_are_those_of_this_format() {
        // A directory's format record names the layout of every frame, so
        // a build reading another set of tags must read another format.
        // Recovery refuses a verified frame of a tag outside this set as
        // written by another build; that guard holds only while the set
        // and the format number change together.
        let read: Vec<u8> = (0..=255u8).filter(|t| reads_tag(*t)).collect();
        assert_eq!(crate::FORMAT, 10, "a new format re-pins the tags it reads");
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
            assert_eq!(WalEvent::decode(&buf).unwrap(), event);
        }
    }

    #[test]
    fn a_retention_change_to_a_capacity_of_0_is_refused() {
        let mut buf = Vec::new();
        WalEvent::Admin(AdminEvent::RetentionChanged {
            tenant: "acme".into(),
            retention: RetentionPolicy::windowed(64),
        })
        .encode(&mut buf);
        // The capacity is the payload's last eight bytes.
        let end = buf.len();
        buf[end - 8..].fill(0);
        assert_eq!(
            WalEvent::decode(&buf).unwrap_err(),
            "retention raw capacity: 0"
        );
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
        // `db/mem` is new; `web/cpu` was the third of four series.
        let watermarks = live(
            4,
            &[
                (&points[2].0, None, 0xABCD),
                (&points[0].0, Some(2), 0x1234),
            ],
        );
        let event = WalEvent::IngestBatch(IngestBatch {
            tenant: "acme".into(),
            points: vec![(1, 500, 1.5), (0, 1000, -3.25)],
            series_before: Some(4),
            watermarks: vec![Named::Spelled(0), Named::Placed(2)],
            digest: watermarks.digest(),
            spelled: vec![MetricId::new("db", "mem")],
        });
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
        assert_eq!(WalEvent::decode(&streamed).unwrap(), event);
    }

    #[test]
    fn malformed_events_error_instead_of_panicking() {
        assert!(WalEvent::decode(&[]).is_err(), "empty input");
        assert!(WalEvent::decode(&[99]).is_err(), "unknown tag");
        for retired in [1, 4] {
            assert_eq!(
                WalEvent::decode(&[retired, 0, 0, 0, 0]).unwrap_err(),
                format!("unknown event tag {retired}"),
                "tags 1 and 4 are retired, never reused"
            );
        }

        let mut buf = Vec::new();
        sample_events()[2].encode(&mut buf);
        buf.push(0); // trailing garbage
        assert!(WalEvent::decode(&buf).unwrap_err().contains("trailing"));
        // Every truncation of a valid encoding is rejected cleanly.
        for len in 0..buf.len() - 1 {
            assert!(WalEvent::decode(&buf[..len]).is_err(), "truncated at {len}");
        }
    }

    /// A slotted payload built by hand: no series count, one spelled
    /// watermark for each of `watermarks` ids, a digest, the point count,
    /// base timestamp 500 unless the count is 0, then `points` verbatim.
    fn slotted(watermarks: u32, point_count: u32, points: &[u8]) -> Vec<u8> {
        let mut buf = vec![TAG_INGEST_BATCH];
        put_str(&mut buf, "acme");
        put_varint(&mut buf, 0);
        put_varint(&mut buf, watermarks);
        for i in 0..watermarks {
            put_u8(&mut buf, 0);
            put_metric_id(&mut buf, &MetricId::new("web", format!("m{i}")));
        }
        put_u64(&mut buf, 0xD16E57);
        put_varint(&mut buf, point_count);
        if point_count > 0 {
            put_u64(&mut buf, 500);
        }
        buf.extend_from_slice(points);
        buf
    }

    /// A point's bytes after its slot: at the base (distance 0), value 1.5.
    fn point_tail() -> Vec<u8> {
        let mut tail = vec![0];
        put_u64(&mut tail, 1.5f64.to_bits());
        tail
    }

    #[test]
    fn a_slotted_batch_is_refused_for_each_rule_it_breaks() {
        let point = |slot: &[u8]| [slot, &point_tail()].concat();
        let refusal = |bytes: Vec<u8>| WalEvent::decode(&bytes).unwrap_err();

        // Well formed: two watermarks, one point of slot 1.
        let good = slotted(2, 1, &point(&[1]));
        let WalEvent::IngestBatch(IngestBatch { points, .. }) = WalEvent::decode(&good).unwrap()
        else {
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
        assert_eq!(
            refusal(slotted(2, 1, &[&[1, 0x80, 0x00][..], &[0; 8]].concat())),
            "point timestamp: overlong varint"
        );
        // One past 32 bits.
        assert_eq!(
            refusal(slotted(2, 1, &point(&[0xFF, 0xFF, 0xFF, 0xFF, 0x10]))),
            "point slot: varint overflows u32"
        );
        // A point count the bytes left cannot hold, small or absurd.
        assert_eq!(
            refusal(slotted(2, 2, &point(&[1]))),
            "point count 2 runs past the end: 10 bytes left"
        );
        assert_eq!(
            refusal(slotted(2, u32::MAX, &point(&[1]))),
            "point count 4294967295 runs past the end: 10 bytes left"
        );
        // A slot past the end. The count allows 10 bytes a point, but
        // ten points of slot 129 take 11 bytes each: the eleventh point's
        // slot is where the bytes run out.
        let wide = point(&[0x81, 0x01]).repeat(10);
        assert!(refusal(slotted(130, 11, &wide)).starts_with("truncated point slot"));
        assert_eq!(
            refusal(slotted(130, 11, &wide[..wide.len() - 1])),
            "point count 11 runs past the end: 109 bytes left"
        );
        // A first point off the base, either way: the base is the first
        // point's timestamp, and one batch has one spelling.
        for (distance, timestamp) in [(1, 499), (2, 501)] {
            let off = [&[1, distance][..], &1.5f64.to_bits().to_le_bytes()].concat();
            assert_eq!(
                refusal(slotted(2, 1, &off)),
                format!("first point timestamp {timestamp} is off the base 500")
            );
        }
        // Trailing garbage after the last point, or after an empty batch's
        // point count, where a base would be.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(refusal(trailing).starts_with("trailing garbage after event"));
        let mut based = slotted(2, 0, &[]);
        put_u64(&mut based, 500);
        assert!(refusal(based).starts_with("trailing garbage after event"));
    }

    /// Bytes of the shortest varint spelling of `value`.
    fn varint_len(value: u32) -> usize {
        varint64_len(u64::from(value))
    }

    /// [`varint_len`] of a `u64`.
    fn varint64_len(value: u64) -> usize {
        let mut buf = Vec::new();
        put_varint64(&mut buf, value);
        buf.len()
    }

    #[test]
    fn a_placed_watermark_is_refused_for_each_rule_it_breaks() {
        // `[series count + 1][one watermark: place + 1][digest]`, one
        // point of slot 0: the bytes after the tenant.
        let placed = |count: &[u8], place: &[u8]| {
            let mut buf = vec![TAG_INGEST_BATCH];
            put_str(&mut buf, "acme");
            buf.extend_from_slice(count);
            put_varint(&mut buf, 1);
            buf.extend_from_slice(place);
            put_u64(&mut buf, 0x1234);
            put_varint(&mut buf, 1);
            put_u64(&mut buf, 500);
            buf.push(0);
            buf.extend_from_slice(&point_tail());
            buf
        };
        let refusal = |bytes: Vec<u8>| WalEvent::decode(&bytes).unwrap_err();

        // Well formed: place 2 of a store of 3 series.
        let WalEvent::IngestBatch(IngestBatch {
            series_before,
            watermarks,
            digest,
            ..
        }) = WalEvent::decode(&placed(&[4], &[3])).unwrap()
        else {
            panic!("an ingest batch");
        };
        assert_eq!(series_before, Some(3));
        assert_eq!((watermarks, digest), (vec![Named::Placed(2)], 0x1234));

        // A place at or past the series count, or with no count at all.
        assert_eq!(
            refusal(placed(&[4], &[4])),
            "watermark place 3 is past the 3 series"
        );
        assert_eq!(
            refusal(placed(&[1], &[1])),
            "watermark place 0 is past the 0 series"
        );
        assert_eq!(
            refusal(placed(&[0], &[1])),
            "watermark place 0 with no series count"
        );
        // Overlong or oversized varints, in either field.
        assert_eq!(
            refusal(placed(&[0x84, 0x00], &[3])),
            "series count: overlong varint"
        );
        assert_eq!(
            refusal(placed(&[4], &[0x83, 0x00])),
            "watermark place: overlong varint"
        );
        assert_eq!(
            refusal(placed(&[0xFF, 0xFF, 0xFF, 0xFF, 0x1F], &[3])),
            "series count: varint overflows u32"
        );
    }

    #[test]
    fn a_decoded_watermark_is_one_word() {
        assert_eq!(std::mem::size_of::<Named<u32>>(), 8);
    }

    #[test]
    fn a_decoded_batch_holds_one_id_per_spelled_watermark() {
        // Two spelled ids around a placed series: each index is the id's
        // rank among the spelled ones.
        let event = WalEvent::IngestBatch(IngestBatch {
            tenant: "acme".into(),
            points: vec![(2, 500, 1.5), (0, 500, -3.25), (1, 500, 0.5)],
            series_before: Some(2),
            watermarks: vec![Named::Spelled(0), Named::Placed(1), Named::Spelled(1)],
            digest: 0x5678,
            spelled: vec![MetricId::new("db", "mem"), MetricId::new("web", "new")],
        });
        let mut buf = Vec::new();
        event.encode(&mut buf);
        let WalEvent::IngestBatch(batch) = WalEvent::decode(&buf).unwrap() else {
            panic!("an ingest batch");
        };
        let spelled = batch
            .watermarks
            .iter()
            .filter(|name| matches!(name, Named::Spelled(_)))
            .count();
        assert_eq!(batch.spelled.len(), spelled);
        assert_eq!(spelled, 2);
        assert_eq!(WalEvent::IngestBatch(batch), event);
    }

    /// The ingest decoder with no fast path: every watermark and every
    /// point is read field by field, as the format describes it. The
    /// production decoder must agree with it on every input.
    fn decode_field_by_field(bytes: &[u8]) -> DecodeResult<IngestBatch> {
        let mut cur = Cursor::new(bytes);
        assert_eq!(cur.take_u8("event tag")?, TAG_INGEST_BATCH);
        let mut batch = IngestBatch {
            tenant: cur.take_str("tenant name")?.to_string(),
            series_before: cur.take_varint("series count")?.checked_sub(1),
            ..IngestBatch::default()
        };
        let slots = cur.take_varint("watermark count")?;
        for _ in 0..slots {
            let name = match cur.take_varint("watermark place")?.checked_sub(1) {
                None => {
                    batch.spelled.push(take_metric_id(&mut cur)?);
                    Named::Spelled(batch.spelled.len() as u32 - 1)
                }
                Some(place) => match batch.series_before {
                    Some(count) if place < count => Named::Placed(place),
                    Some(count) => {
                        return Err(format!(
                            "watermark place {place} is past the {count} series"
                        ))
                    }
                    None => return Err(format!("watermark place {place} with no series count")),
                },
            };
            batch.watermarks.push(name);
        }
        batch.digest = cur.take_u64("batch digest")?;
        let point_count = cur.take_varint("point count")? as usize;
        if point_count > 0 {
            let base = cur.take_u64("base timestamp")?;
            if point_count > cur.remaining() / MIN_POINT_LEN {
                return Err(format!(
                    "point count {point_count} runs past the end: {} bytes left",
                    cur.remaining()
                ));
            }
            for _ in 0..point_count {
                let slot = cur.take_varint("point slot")?;
                let spelled = cur.take_varint64("point timestamp")?;
                // Zigzag undone by hand: an even spelling is a distance
                // forward, an odd one backward.
                let timestamp = match spelled % 2 {
                    0 => base.wrapping_add(spelled / 2),
                    _ => base.wrapping_sub(spelled / 2 + 1),
                };
                let point = (slot, timestamp, cur.take_f64("point value")?);
                if slot >= slots {
                    return Err(format!("point slot {slot} is past the {slots} watermarks"));
                }
                batch.points.push(point);
            }
            let first = batch.points[0].1;
            if first != base {
                return Err(format!(
                    "first point timestamp {first} is off the base {base}"
                ));
            }
        }
        if !cur.is_empty() {
            return Err(format!(
                "trailing garbage after event at {}",
                cur.position()
            ));
        }
        Ok(batch)
    }

    /// Decodes `bytes` both ways, through one reused batch as the log
    /// reader does, and asserts the same batch or the same refusal.
    fn assert_both_paths_agree(bytes: &[u8], reused: &mut IngestBatch, case: &str) {
        let decoded = WalEvent::decode_into(bytes, reused).map(|_| reused.clone());
        assert_eq!(decoded, decode_field_by_field(bytes), "{case}");
    }

    #[test]
    fn both_watermark_decode_paths_agree() {
        // `[series count + 1]`, then three watermarks — a spelled id, the
        // place under test and another spelled id — a digest, then one
        // point of each slot.
        let frame = |count: Option<u32>, place: &[u8]| {
            let mut buf = vec![TAG_INGEST_BATCH];
            put_str(&mut buf, "acme");
            put_varint(&mut buf, count.map_or(0, |count| count + 1));
            put_varint(&mut buf, 3);
            for (i, name) in [None, Some(place), None].into_iter().enumerate() {
                match name {
                    Some(place) => buf.extend_from_slice(place),
                    None => {
                        put_u8(&mut buf, 0);
                        put_metric_id(&mut buf, &MetricId::new("web", format!("m{i}")));
                    }
                }
            }
            put_u64(&mut buf, 0x0102_0304_0506_0700);
            put_varint(&mut buf, 3);
            put_u64(&mut buf, 500);
            for slot in 0..3u8 {
                buf.push(slot);
                buf.extend_from_slice(&point_tail());
            }
            buf
        };
        let mut reused = IngestBatch::default();
        let mut decoded = 0;
        let places = (0..=130).chain(16_380..=16_390);
        for place in places {
            let mut spelling = Vec::new();
            put_varint(&mut spelling, place + 1);
            for count in [None, Some(0), Some(place), Some(place + 1), Some(200)] {
                let bytes = frame(count, &spelling);
                let case = format!("place {place}, count {count:?}");
                assert_both_paths_agree(&bytes, &mut reused, &case);
                decoded += usize::from(WalEvent::decode(&bytes).is_ok());
            }
        }
        // Places below 200 decode under a count of 200 as well as of
        // `place + 1`; the rest only under `place + 1`.
        assert_eq!(decoded, 2 * 131 + 11);

        // Every cut of a frame whose place is one byte, through the place,
        // the digest and past them.
        let whole = frame(Some(40), &[8]);
        for len in 0..=whole.len() {
            assert_both_paths_agree(&whole[..len], &mut reused, &format!("cut at {len}"));
        }
        // A one-byte place as the last watermark, followed by fewer than
        // the 8 bytes of the digest and nothing else.
        let mut head = vec![TAG_INGEST_BATCH];
        put_str(&mut head, "acme");
        put_varint(&mut head, 41);
        put_varint(&mut head, 1);
        head.push(8);
        for tail in 0..8 {
            let bytes = [&head[..], &[0xEE; 8][..tail]].concat();
            let case = format!("{tail} bytes after the place");
            assert_both_paths_agree(&bytes, &mut reused, &case);
            assert_eq!(
                WalEvent::decode(&bytes).unwrap_err(),
                format!(
                    "truncated batch digest: need 8 bytes at offset {}, have {tail}",
                    head.len()
                ),
                "{case}"
            );
        }
    }

    #[test]
    fn both_point_decode_paths_agree() {
        // Three spelled watermarks, base 10,000, then the point under
        // test — its slot and its timestamp's spelling — after a first
        // point at the base.
        let frame = |slot: &[u8], spelled: &[u8]| {
            let mut buf = vec![TAG_INGEST_BATCH];
            put_str(&mut buf, "acme");
            put_varint(&mut buf, 0);
            put_varint(&mut buf, 3);
            for i in 0..3 {
                put_u8(&mut buf, 0);
                put_metric_id(&mut buf, &MetricId::new("web", format!("m{i}")));
            }
            put_u64(&mut buf, 0xD16E57);
            put_varint(&mut buf, 2);
            put_u64(&mut buf, 10_000);
            buf.push(0);
            buf.extend_from_slice(&point_tail());
            buf.extend_from_slice(slot);
            buf.extend_from_slice(spelled);
            put_u64(&mut buf, (-2.5f64).to_bits());
            buf
        };
        let mut reused = IngestBatch::default();
        let distances = (-70i64..=70).chain([-8_193, 8_191, 8_192, i64::MIN, i64::MAX]);
        for distance in distances {
            let mut spelled = Vec::new();
            put_varint64(&mut spelled, zigzag(distance as u64));
            for slot in [&[0][..], &[2], &[3], &[0x7F], &[0x80, 0x00], &[0x81, 0x01]] {
                let bytes = frame(slot, &spelled);
                let case = format!("slot {slot:?}, distance {distance}");
                assert_both_paths_agree(&bytes, &mut reused, &case);
                let expected = 10_000u64.wrapping_add(distance as u64);
                match WalEvent::decode(&bytes) {
                    Ok(WalEvent::IngestBatch(batch)) => {
                        assert!(slot[0] < 3, "{case}");
                        assert_eq!(batch.points[1].1, expected, "{case}");
                    }
                    other => assert!(other.is_err() && slot[0] >= 3, "{case}"),
                }
            }
            // One byte for a distance of −64 to 63.
            assert_eq!(
                spelled.len() == 1,
                (-64..=63).contains(&distance),
                "{distance}"
            );
        }
        // Every cut of a frame, through the second point's slot, its
        // distance and its value.
        let whole = frame(&[1], &[0x81, 0x01]);
        for len in 0..=whole.len() {
            assert_both_paths_agree(&whole[..len], &mut reused, &format!("cut at {len}"));
        }
    }

    /// A batch of `series` distinct series, sorted as the store lists them,
    /// whose points draw their slots at random, as the live store reports
    /// it and as the log holds it: the store held `series_before` series,
    /// about half the listed ones among them, at places that run past 128.
    fn random_batch(rand: &mut impl FnMut() -> u64, series: usize) -> (Watermarks, WalEvent) {
        let series_before = 2 * series + (rand() % 300) as usize;
        let mut ids: Vec<MetricId> = (0..series)
            .map(|i| MetricId::new(format!("c{}", i % 7), format!("m{i}")))
            .collect();
        ids.sort_unstable();
        let mut place = 0;
        let list: Vec<(&MetricId, Option<u32>, u64)> = ids
            .iter()
            .map(|id| {
                place += 1 + (rand() % 2) as u32;
                let held = rand() % 2 == 0;
                (id, held.then_some(place), rand())
            })
            .collect();
        let watermarks = live(series_before, &list);
        // Timestamps near one another, a few far off and some past either
        // end of the `u64` range from the first.
        let near = rand();
        let points = match series {
            0 => Vec::new(),
            _ => (0..rand() % 300)
                .map(|_| {
                    let slot = (rand() % series as u64) as u32;
                    let timestamp = match rand() % 8 {
                        0 => rand(),
                        _ => near.wrapping_add(rand() % 20_000).wrapping_sub(10_000),
                    };
                    (slot, timestamp, f64::from_bits(rand()))
                })
                .collect(),
        };
        let mut spelled = Vec::new();
        let logged = list
            .iter()
            .map(|&(id, place, _)| {
                place.map_or_else(
                    || {
                        spelled.push(id.clone());
                        Named::Spelled(spelled.len() as u32 - 1)
                    },
                    Named::Placed,
                )
            })
            .collect();
        let event = WalEvent::IngestBatch(IngestBatch {
            tenant: "acme".into(),
            points,
            series_before: Some(series_before as u32),
            watermarks: logged,
            digest: watermarks.digest(),
            spelled,
        });
        (watermarks, event)
    }

    #[test]
    fn random_slotted_batches_roundtrip_through_both_encoders() {
        let mut rand = rng(0x5107);
        // 129 and more series make slots of two bytes.
        let mut sizes = vec![0, 1, 2, 127, 128, 129, 300];
        sizes.extend((0..60).map(|_| (rand() % 200) as usize));
        for series in sizes {
            let (live, event) = random_batch(&mut rand, series);
            let WalEvent::IngestBatch(batch) = &event else {
                unreachable!()
            };
            let IngestBatch {
                points,
                series_before,
                ..
            } = batch;
            let mut encoded = Vec::new();
            event.encode(&mut encoded);
            let decoded = WalEvent::decode(&encoded).unwrap();
            // Values are random bit patterns, NaNs among them: compare bits.
            let mut again = Vec::new();
            decoded.encode(&mut again);
            assert_eq!(again, encoded, "{series} series");
            assert_eq!(decoded.point_count(), points.len());

            let mut streamed = Vec::new();
            let triples = points.iter().map(|&(slot, timestamp_ms, value)| {
                (&live.list[slot as usize].id, timestamp_ms, value)
            });
            WalEvent::encode_ingest_batch_into(&mut streamed, "acme", points.len(), triples, &live);
            assert_eq!(streamed, encoded, "{series} series, streamed");

            // Tag, tenant, the series count and the watermark count; each
            // watermark's place or spelled id; the digest, the point count
            // and, for any point, the base; each point's slot, one byte
            // below 128 and two from there, its distance from the base,
            // then 8 bytes.
            let listed: usize = batch
                .names()
                .map(|name| match name {
                    Named::Placed(place) => varint_len(place + 1),
                    Named::Spelled(id) => 1 + 4 + id.component.len() + 4 + id.metric.len(),
                })
                .sum();
            let base = points.first().map_or(0, |&(_, timestamp, _)| timestamp);
            let each: usize = points
                .iter()
                .map(|&(slot, timestamp, _)| {
                    let distance = zigzag(timestamp.wrapping_sub(base));
                    varint_len(slot) + varint64_len(distance) + 8
                })
                .sum();
            let count = varint_len(series_before.unwrap() + 1);
            let based = if points.is_empty() { 0 } else { 8 };
            assert_eq!(
                encoded.len(),
                1 + (4 + 4)
                    + count
                    + varint_len(series as u32)
                    + listed
                    + 8
                    + varint_len(points.len() as u32)
                    + based
                    + each,
                "{series} series"
            );
        }
    }

    #[test]
    fn a_batch_that_creates_no_series_logs_no_id() {
        // Four series of a store of 40, ten ticks each: the scraper's
        // steady state, and the bytes the log pays per batch for it.
        let ids: Vec<MetricId> = ["cpu", "latency", "mem", "requests"]
            .into_iter()
            .map(|metric| MetricId::new("web", metric))
            .collect();
        let places = [3, 17, 18, 39];
        let list: Vec<_> = ids
            .iter()
            .zip(places)
            .map(|(id, place)| (id, Some(place), u64::from(place)))
            .collect();
        let triples: Vec<(&MetricId, u64, f64)> = (0..10u64)
            .flat_map(|tick| ids.iter().map(move |id| (id, tick * 500, tick as f64)))
            .collect();
        let encode = |watermarks: &Watermarks| {
            let mut buf = Vec::new();
            WalEvent::encode_ingest_batch_into(
                &mut buf,
                "acme",
                triples.len(),
                triples.iter().copied(),
                watermarks,
            );
            buf
        };
        let placed = encode(&live(40, &list));
        // Tag 1, tenant 4 + 4, series count 1, watermark count 1, four
        // one-byte places, digest 8, point count 1, base 8; the four
        // points at the base of 10 bytes, the 36 later ones, 500 to 4,500
        // ms on, of 11 (a two-byte distance).
        assert_eq!(
            placed.len(),
            1 + 8 + 1 + 1 + 4 + 8 + 1 + 8 + 4 * 10 + 36 * 11
        );
        assert_eq!(placed.len(), 468);
        assert_eq!(
            crate::frame::encode(1, &WalEvent::decode(&placed).unwrap()).len(),
            488
        );
        // The same batch with every id spelled: each watermark longer by
        // its id, 4 + 3 + 4 + 3..8 bytes.
        let unplaced: Vec<_> = list.iter().map(|&(id, _, fp)| (id, None, fp)).collect();
        let spelled = encode(&live(40, &unplaced));
        let ids_bytes: usize = ids.iter().map(|id| 4 + 3 + 4 + id.metric.len()).sum();
        assert_eq!(spelled.len(), placed.len() + ids_bytes);
        assert_eq!(WalEvent::decode(&placed).unwrap().point_count(), 40);
    }

    #[test]
    fn a_one_tick_batch_of_placed_series_costs_its_formula_to_the_byte() {
        // One scrape of a tenant's 231 series, all held: every point at
        // one timestamp. Per point a slot, a one-byte distance (0) and a
        // value; per watermark its place; per frame the fixed fields. A
        // slot or place + 1 takes one byte below 128 and two up to 16,383.
        let ids: Vec<MetricId> = (0..231)
            .map(|i| MetricId::new(format!("c{}", i / 10), format!("m{i:03}")))
            .collect();
        let list: Vec<_> = (0u32..)
            .zip(&ids)
            .map(|(place, id)| (id, Some(place), u64::from(place) * 0x9E37))
            .collect();
        let watermarks = live(231, &list);
        let mut payload = Vec::new();
        WalEvent::encode_ingest_batch_into(
            &mut payload,
            "tenant-07",
            ids.len(),
            ids.iter().map(|id| (id, 1_760_000_000_000, 0.25)),
            &watermarks,
        );
        let one_or_two = |value: u32| 1 + usize::from(value >= 128);
        let points: usize = (0..231).map(|slot| one_or_two(slot) + 1 + 8).sum();
        let places: usize = (0..231).map(|place| one_or_two(place + 1)).sum();
        let fixed = 1 + (4 + 9) + one_or_two(232) + one_or_two(231) + 8 + one_or_two(231) + 8;
        assert_eq!(payload.len(), fixed + places + points);
        assert_eq!((fixed, places, points), (36, 335, 2_413));
        assert_eq!(payload.len(), 2_784);
        let WalEvent::IngestBatch(batch) = WalEvent::decode(&payload).unwrap() else {
            panic!("an ingest batch");
        };
        assert_eq!(batch.digest, watermarks.digest());
        assert!(batch.points.iter().all(|&(_, t, _)| t == 1_760_000_000_000));
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
                &live(0, &[(&listed, None, 0x1234)]),
            );
            buf
        });
        if cfg!(debug_assertions) {
            assert!(encoded.is_err(), "a debug build asserts");
        } else {
            assert_eq!(
                WalEvent::decode(&encoded.unwrap()).unwrap_err(),
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
            &live(0, &[(&listed, None, 0x1234)]),
        );
        assert_eq!(WalEvent::decode(&buf).unwrap().point_count(), 1);
    }

    #[test]
    fn the_slot_index_holds_only_the_last_list_across_its_stamp_wrapping() {
        let list = |names: &[&str]| -> Vec<MetricId> {
            names
                .iter()
                .map(|name| MetricId::new("web", *name))
                .collect()
        };
        let (first, second) = (list(&["a", "b", "c"]), list(&["d", "b", "e", "f"]));
        let mut index = SlotIndex {
            stamp: u32::MAX - 3,
            ..SlotIndex::default()
        };
        for (round, listed) in [&first, &second, &first, &second].into_iter().enumerate() {
            index.build(listed.iter());
            for (slot, id) in (0u32..).zip(listed) {
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
    /// A batch's watermark list may repeat an id and need not be sorted,
    /// and places some of its series when it carries a series count; its
    /// points draw their slots from it in random order.
    fn random_event(rand: &mut impl FnMut() -> u64, ids: &[MetricId]) -> WalEvent {
        let tenant: Name = ["acme", "globex", "initech"][(rand() % 3) as usize].into();
        match rand() % 8 {
            0 => WalEvent::Admin(AdminEvent::RetentionChanged {
                tenant,
                retention: RetentionPolicy::windowed((rand() % 64) as usize + 1),
            }),
            1 => {
                let mut call_graph = CallGraph::new();
                call_graph.record_calls("ab", "a", rand() % 9 + 1);
                WalEvent::Admin(AdminEvent::CallGraphReplaced { tenant, call_graph })
            }
            _ => {
                let pick = |r: u64| ids[(r % ids.len() as u64) as usize].clone();
                let series_before = (rand() % 2 == 0).then(|| (rand() % 5) as u32 + 1);
                let mut spelled = Vec::new();
                let watermarks: Vec<Named<u32>> = (0..rand() % 4)
                    .map(|_| match series_before {
                        Some(count) if rand() % 2 == 0 => {
                            Named::Placed((rand() % u64::from(count)) as u32)
                        }
                        _ => {
                            spelled.push(pick(rand()));
                            Named::Spelled(spelled.len() as u32 - 1)
                        }
                    })
                    .collect();
                let points = match watermarks.len() {
                    0 => Vec::new(),
                    listed => (0..rand() % 6)
                        .map(|_| {
                            let slot = (rand() % listed as u64) as u32;
                            (slot, rand() % 9 * 500, (rand() % 100) as f64 / 4.0)
                        })
                        .collect(),
                };
                WalEvent::IngestBatch(IngestBatch {
                    tenant: tenant.to_string(),
                    points,
                    series_before,
                    watermarks,
                    digest: rand(),
                    spelled,
                })
            }
        }
    }

    #[test]
    fn random_logs_decode_event_by_event_to_what_was_encoded() {
        // ("ab", "c") and ("a", "bc") concatenate to the same bytes: only
        // the length prefixes tell them apart.
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
            for (event, range) in events.iter().zip(ranges) {
                assert_eq!(WalEvent::decode(&log[range]).unwrap(), *event);
            }
        }
    }

    #[test]
    fn an_id_with_invalid_utf8_is_rejected_at_every_sight() {
        let good = MetricId::new("web", "cpu");
        let mut buf = Vec::new();
        WalEvent::encode_ingest_batch_into(
            &mut buf,
            "acme",
            1,
            [(&good, 500, 1.5)],
            &live(0, &[(&good, None, 7)]),
        );
        let at = buf.windows(3).position(|w| w == b"web").unwrap();
        buf[at] = 0xFF;

        for sight in 0..2 {
            let err = WalEvent::decode(&buf).unwrap_err();
            assert_eq!(err, "metric id component: invalid utf-8", "sight {sight}");
        }
    }
}
