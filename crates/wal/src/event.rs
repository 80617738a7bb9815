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
//! Every accepted point's series has a watermark, so in memory a batch
//! names each series once: a point holds the *slot* of its series in the
//! watermark list, and the encoder writes that slot's id in the point's
//! place. Decoding maps each point's id back to the first slot listing it;
//! a checksummed batch with a point whose series no watermark names is
//! malformed.
//!
//! Those rules live in one ingest decoder, which writes into reused
//! buffers. [`WalEvent::decode`] materialises its output as an owned event;
//! the log reader lends it instead, as an [`IngestRef`] whose watermark ids
//! are read through the log's id memo, so replaying a batch allocates,
//! interns and reference-counts nothing.

use crate::codec::{
    put_call_graph, put_metric_id, put_retention, put_sieve_config, put_str, put_u64, put_u8,
    put_usize, take_call_graph, take_retention, take_sieve_config, Cursor, DecodeResult, IdMemo,
    Section,
};
use sieve_core::config::SieveConfig;
use sieve_exec::Name;
use sieve_graph::CallGraph;
use sieve_simulator::store::{MetricId, RetentionPolicy};

/// One durable, replayable mutation of one tenant.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEvent {
    /// A tenant was created (or adopted) with this configuration and
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

/// Tag 1 is retired, not reused: it framed a tenant configuration two bytes
/// longer, and logs carry no format version, so a frame written with it must
/// fail as an unknown tag instead of decoding shifted.
const TAG_TENANT_CREATED: u8 = 5;
const TAG_CALL_GRAPH_REPLACED: u8 = 2;
const TAG_RETENTION_CHANGED: u8 = 3;
const TAG_INGEST_BATCH: u8 = 4;

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
            } => Self::encode_ingest_batch_into(
                buf,
                tenant,
                points.len(),
                points.iter().map(|&(slot, timestamp_ms, value)| {
                    (&watermarks[slot as usize].0, timestamp_ms, value)
                }),
                watermarks,
            ),
        }
    }

    /// Appends the encoding of an [`WalEvent::IngestBatch`] to `buf`
    /// without materialising the event: the hot ingest path streams its
    /// accepted `(id, timestamp, value)` triples straight from the
    /// caller's point buffer (skipping rejected indices) instead of
    /// cloning them into a `Vec`.
    ///
    /// [`WalEvent::encode`] of the equivalent `IngestBatch` calls this, so
    /// there is one encoder and replay cannot tell the two paths apart.
    /// `accepted` must equal the number of triples the iterator yields.
    pub fn encode_ingest_batch_into<'a, I>(
        buf: &mut Vec<u8>,
        tenant: &str,
        accepted: usize,
        points: I,
        watermarks: &[(MetricId, u64)],
    ) where
        I: IntoIterator<Item = (&'a MetricId, u64, f64)>,
    {
        put_u8(buf, TAG_INGEST_BATCH);
        put_str(buf, tenant);
        put_usize(buf, accepted);
        let mut written = 0usize;
        for (id, timestamp_ms, value) in points {
            put_metric_id(buf, id);
            put_u64(buf, timestamp_ms);
            put_u64(buf, value.to_bits());
            written += 1;
        }
        debug_assert_eq!(written, accepted, "accepted count must match the stream");
        put_usize(buf, watermarks.len());
        for (id, fingerprint) in watermarks {
            put_metric_id(buf, id);
            put_u64(buf, *fingerprint);
        }
    }

    /// Decodes one event from `bytes`; the whole slice must be consumed.
    /// Metric ids resolve through `memo`, which may have seen any other
    /// part of the buffer `bytes` is a slice of.
    ///
    /// # Errors
    ///
    /// Returns a descriptive reason for truncated, malformed, or
    /// trailing-garbage input (the frame layer attaches the file offset).
    pub fn decode<'a>(bytes: &'a [u8], memo: &mut IdMemo<'a>) -> DecodeResult<Self> {
        let mut ingest = IngestBuf::default();
        Ok(match Self::decode_into(bytes, memo, &mut ingest)? {
            Decoded::Admin(event) => event,
            Decoded::Ingest(tenant) => IngestRef::new(tenant, &ingest, memo).to_event(),
        })
    }

    /// [`WalEvent::decode`] without materialising an ingest batch: its
    /// points and watermarks land in `ingest`, and only the tenant, borrowed
    /// from `bytes`, comes back. An admin event is decoded owned.
    pub(crate) fn decode_into<'a>(
        bytes: &'a [u8],
        memo: &mut IdMemo<'a>,
        ingest: &mut IngestBuf,
    ) -> DecodeResult<Decoded<'a>> {
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
            TAG_INGEST_BATCH => Decoded::Ingest(decode_ingest(&mut cur, memo, ingest)?),
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

/// What [`WalEvent::decode_into`] read: an admin event, or the tenant of an
/// ingest batch whose body is in the [`IngestBuf`] it was given.
#[derive(Debug)]
pub(crate) enum Decoded<'a> {
    Admin(WalEvent),
    Ingest(&'a str),
}

/// The buffers an ingest body decodes into, reused from batch to batch: a
/// warm pair takes every batch of a log without allocating.
#[derive(Debug, Default)]
pub(crate) struct IngestBuf {
    /// `(slot, timestamp, value)` of every point, as in
    /// [`WalEvent::IngestBatch`].
    points: Vec<(u32, u64, f64)>,
    /// `(memo entry, fingerprint)` of every watermark, in log order.
    watermarks: Vec<(u32, u64)>,
}

/// Reads an ingest body (everything after the tag) into `buf` and returns
/// its tenant, borrowed from the log. Each point's id is mapped to the
/// first watermark slot that lists it; a point of an unlisted series is an
/// error.
pub(crate) fn decode_ingest<'a>(
    cur: &mut Cursor<'a>,
    memo: &mut IdMemo<'a>,
    buf: &mut IngestBuf,
) -> DecodeResult<&'a str> {
    let tenant = cur.take_str("tenant name")?;
    let point_count = cur.take_usize("point count")?;
    buf.points.clear();
    buf.points.reserve(point_count.min(65_536));
    // A point holds its id's memo entry until the watermark list has given
    // every entry its slot.
    for _ in 0..point_count {
        let entry = memo.sight(cur, Section::Points)?;
        let timestamp_ms = cur.take_u64("point timestamp")?;
        let value = f64::from_bits(cur.take_u64("point value")?);
        buf.points.push((entry, timestamp_ms, value));
    }
    let watermark_count = cur.take_usize("watermark count")?;
    buf.watermarks.clear();
    buf.watermarks.reserve(watermark_count.min(65_536));
    memo.begin_listing();
    for slot in 0..watermark_count {
        let entry = memo.sight(cur, Section::Watermarks)?;
        let fingerprint = cur.take_u64("watermark fingerprint")?;
        let slot = u32::try_from(slot).map_err(|_| "watermark count overflows u32")?;
        memo.list(entry, slot);
        buf.watermarks.push((entry, fingerprint));
    }
    for point in &mut buf.points {
        point.0 = memo
            .slot(point.0)
            .ok_or_else(|| format!("a point of {} has no watermark", memo.id(point.0)))?;
    }
    Ok(tenant)
}

/// An ingest batch lent by the buffers it was decoded into: the fields of
/// [`WalEvent::IngestBatch`], with nothing allocated, interned or
/// reference-counted to read them.
#[derive(Clone, Copy)]
pub struct IngestRef<'f> {
    tenant: &'f str,
    points: &'f [(u32, u64, f64)],
    watermarks: &'f [(u32, u64)],
    memo: &'f IdMemo<'f>,
}

impl<'f> IngestRef<'f> {
    pub(crate) fn new(tenant: &'f str, buf: &'f IngestBuf, memo: &'f IdMemo<'f>) -> Self {
        Self {
            tenant,
            points: &buf.points,
            watermarks: &buf.watermarks,
            memo,
        }
    }

    /// The tenant the batch was ingested for.
    pub fn tenant(&self) -> &'f str {
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
    pub fn to_event(&self) -> WalEvent {
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

    /// Decodes through a fresh memo.
    fn decode(bytes: &[u8]) -> DecodeResult<WalEvent> {
        WalEvent::decode(bytes, &mut IdMemo::default())
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
        assert_eq!(
            decode(&[1, 0, 0, 0, 0]).unwrap_err(),
            "unknown event tag 1",
            "the retired tenant-created layout"
        );

        let mut buf = Vec::new();
        sample_events()[2].encode(&mut buf);
        buf.push(0); // trailing garbage
        assert!(decode(&buf).unwrap_err().contains("trailing"));
        // Every truncation of a valid encoding is rejected cleanly.
        for len in 0..buf.len() - 1 {
            assert!(decode(&buf[..len]).is_err(), "truncated at {len}");
        }
    }

    /// Encodes `events` back to back into one buffer, as in a log (a memo's
    /// keys borrow from it), with the byte range of each.
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
    /// its points draw their series from it in random order, each naming
    /// the first slot that lists it, so the memo's predictions also miss.
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
                let first_listing = |r: u64| {
                    let id = &watermarks[(r % watermarks.len() as u64) as usize].0;
                    watermarks
                        .iter()
                        .position(|(listed, _)| listed == id)
                        .unwrap() as u32
                };
                let points = match watermarks.len() {
                    0 => Vec::new(),
                    _ => (0..rand() % 6)
                        .map(|_| {
                            let slot = first_listing(rand());
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
        use sieve_exec::hash::splitmix64;
        // ("ab", "c") and ("a", "bc") concatenate to the same bytes: only a
        // key that covers the length prefixes tells them apart.
        let ids = [
            MetricId::new("ab", "c"),
            MetricId::new("a", "bc"),
            MetricId::new("web", "cpu"),
            MetricId::new("web", "mem ♥"),
            MetricId::new("", ""),
        ];
        let mut state = 0xA11CE_u64;
        let mut rand = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(state)
        };
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
        WalEvent::encode_ingest_batch_into(&mut buf, "acme", 1, [(&good, 500, 1.5)], &[]);
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
        assert_eq!(memo.decoded(), 2 * events * points);
        assert_eq!(memo.interned(), points);
        // Each section hashes its first batch and the first id of its
        // second (the link back from the last id); every later sight is
        // predicted.
        assert_eq!(memo.hashed(), 2 * (points + 1));
    }
}
