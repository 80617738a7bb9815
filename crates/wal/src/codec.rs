//! Little-endian byte codecs for everything the durability layer
//! persists.
//!
//! The workspace bakes in zero external dependencies, so serialization is
//! hand-rolled: fixed-width little-endian scalars, `u32`-length-prefixed
//! strings, and explicit field order. The encoding is *exact* — `f64`s
//! round-trip through [`f64::to_bits`], so a decoded store image is
//! bit-identical to the frozen one, which is what makes "replayed == live,
//! bitwise" provable rather than approximate.
//!
//! Decoding never panics on malformed input: every `take_*` returns a
//! descriptive `Err(String)` that the frame/snapshot layers convert into
//! checksummed-corruption accounting.
//!
//! Nor does it hand back what no build writes. A bug or a checksum
//! collision can leave an image whose checksum verifies and which is still
//! wrong, so what enters through here is held to the rule its type keeps
//! elsewhere: a retention capacity of 0 ([`take_retention`], the one place
//! a logged capacity becomes one), a configuration
//! [`SieveConfig::validate`] refuses, and a store image that breaks the
//! store's rule ([`StoreState::validate`]) are refused like a torn field,
//! so such a frame reads as corrupt and such a snapshot as absent.
//!
//! A [`Name`] — an admin event's tenant, a metric id's component or metric,
//! a checkpoint's cluster member — has one decode rule, [`take_name`]: it
//! is interned through the process-wide pool ([`Name::new`]) at each sight,
//! with no decode-side cache. Interning an existing name hands out the pool's allocation, so a
//! decoded id keys the store's address index like the ids the store holds.
//! A log spells an id only in the batch that creates its series and names
//! every other by place, and a snapshot names each series once, so a
//! recovery interns a few hundred names, not one per point.

use sieve_core::{GrangerConfig, SieveConfig};
use sieve_exec::Name;
use sieve_graph::CallGraph;
use sieve_simulator::store::{MetricId, RetentionPolicy, SeriesState, StoreState};

/// Decode-side cursor over an immutable byte slice.
#[derive(Debug)]
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Shorthand for decode results: the error is a human-readable reason.
pub(crate) type DecodeResult<T> = std::result::Result<T, String>;

impl<'a> Cursor<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Current byte position.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> DecodeResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(format!(
                "truncated {what}: need {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            )),
        }
    }

    /// The next `N` bytes, borrowed from the input and not consumed, if
    /// that many are left.
    pub(crate) fn peek<const N: usize>(&self) -> Option<&'a [u8; N]> {
        self.bytes[self.pos..].first_chunk()
    }

    /// Consumes `n` bytes [`Cursor::peek`] showed.
    pub(crate) fn skip(&mut self, n: usize) {
        debug_assert!(n <= self.remaining());
        self.pos += n;
    }

    /// Reads `n` raw bytes, borrowed from the input.
    pub(crate) fn take_bytes(&mut self, n: usize, what: &str) -> DecodeResult<&'a [u8]> {
        self.take(n, what)
    }

    /// Reads one byte.
    pub(crate) fn take_u8(&mut self, what: &str) -> DecodeResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub(crate) fn take_u32(&mut self, what: &str) -> DecodeResult<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub(crate) fn take_u64(&mut self, what: &str) -> DecodeResult<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `u32` persisted by [`put_varint`]. Only the canonical
    /// encoding is accepted — an overlong one (a zero last byte after the
    /// first) or one past `u32::MAX` is an error — so every value has
    /// exactly one spelling on disk.
    pub(crate) fn take_varint(&mut self, what: &str) -> DecodeResult<u32> {
        // At most 32 bits were read.
        Ok(self.take_leb128(what, 32)? as u32)
    }

    /// [`Cursor::take_varint`] for a `u64` persisted by [`put_varint64`].
    pub(crate) fn take_varint64(&mut self, what: &str) -> DecodeResult<u64> {
        self.take_leb128(what, 64)
    }

    /// Reads a canonical LEB128 varint of at most `bits` bits.
    fn take_leb128(&mut self, what: &str, bits: u32) -> DecodeResult<u64> {
        let (mut value, mut shift) = (0u64, 0);
        loop {
            let byte = self.take_u8(what)?;
            // The byte that reaches bit `bits` carries the top bits and
            // ends the varint.
            if shift + 7 >= bits && u32::from(byte) >> (bits - shift) != 0 {
                return Err(format!("{what}: varint overflows u{bits}"));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(format!("{what}: overlong varint"));
                }
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a `usize` persisted as a little-endian `u64`.
    pub(crate) fn take_usize(&mut self, what: &str) -> DecodeResult<usize> {
        let v = self.take_u64(what)?;
        usize::try_from(v).map_err(|_| format!("{what}: {v} overflows usize"))
    }

    /// Reads an `f64` persisted via [`f64::to_bits`].
    pub(crate) fn take_f64(&mut self, what: &str) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.take_u64(what)?))
    }

    /// Reads a `bool` persisted as one byte (0 or 1).
    pub(crate) fn take_bool(&mut self, what: &str) -> DecodeResult<bool> {
        match self.take_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("{what}: invalid bool byte {other}")),
        }
    }

    /// Reads a `u32`-length-prefixed UTF-8 string, validated and borrowed
    /// from the input: a caller that keeps it interns or copies it.
    pub(crate) fn take_str(&mut self, what: &str) -> DecodeResult<&'a str> {
        let len = self.take_u32(what)? as usize;
        std::str::from_utf8(self.take(len, what)?).map_err(|_| format!("{what}: invalid utf-8"))
    }
}

/// Feeds `bytes` to `fold` as little-endian 64-bit words, a short last
/// word zero-padded.
pub(crate) fn le_words(bytes: &[u8], mut fold: impl FnMut(u64)) {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        fold(u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        fold(u64::from_le_bytes(word));
    }
}

/// Appends one byte.
pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u32`.
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` as a canonical LEB128 varint: seven bits a byte, low
/// bits first, the high bit set on every byte but the last, in the fewest
/// bytes — one byte below 128, two below 16,384.
pub(crate) fn put_varint(buf: &mut Vec<u8>, v: u32) {
    put_varint64(buf, u64::from(v));
}

/// [`put_varint`] for a `u64`: ten bytes at most.
pub(crate) fn put_varint64(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends a `usize` as a little-endian `u64`.
pub(crate) fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

/// Appends an `f64` via [`f64::to_bits`] (bit-exact, NaN-safe).
pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `bool` as one byte.
pub(crate) fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, u8::from(v));
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a [`MetricId`] (component, metric).
pub(crate) fn put_metric_id(buf: &mut Vec<u8>, id: &MetricId) {
    put_str(buf, id.component.as_str());
    put_str(buf, id.metric.as_str());
}

/// Reads a `u32`-length-prefixed UTF-8 name and interns it: the one way
/// this crate decodes a name.
pub(crate) fn take_name(cur: &mut Cursor<'_>, what: &str) -> DecodeResult<Name> {
    Ok(Name::new(cur.take_str(what)?))
}

/// Reads a [`MetricId`] (component, metric), interning both names.
pub(crate) fn take_metric_id(cur: &mut Cursor<'_>) -> DecodeResult<MetricId> {
    Ok(MetricId {
        component: take_name(cur, "metric id component")?,
        metric: take_name(cur, "metric id metric")?,
    })
}

/// Appends a [`RetentionPolicy`].
pub(crate) fn put_retention(buf: &mut Vec<u8>, policy: &RetentionPolicy) {
    match policy.raw_capacity() {
        None => put_u8(buf, 0),
        Some(cap) => {
            put_u8(buf, 1);
            put_usize(buf, cap);
        }
    }
}

/// Reads a [`RetentionPolicy`]: the one place a logged capacity becomes
/// one, for a snapshot's store, a creation record's configuration and a
/// retention change alike. A capacity of 0 is refused.
pub(crate) fn take_retention(cur: &mut Cursor<'_>) -> DecodeResult<RetentionPolicy> {
    match cur.take_u8("retention tag")? {
        0 => Ok(RetentionPolicy::unbounded()),
        1 => match cur.take_usize("retention raw capacity")? {
            0 => Err("retention raw capacity: 0".to_string()),
            raw_capacity => Ok(RetentionPolicy::windowed(raw_capacity)),
        },
        other => Err(format!("retention tag: invalid byte {other}")),
    }
}

/// Appends a full [`SieveConfig`], every result-affecting and
/// result-invariant field alike, so a recovered tenant analyses exactly
/// as configured.
pub(crate) fn put_sieve_config(buf: &mut Vec<u8>, config: &SieveConfig) {
    // Destructured without `..`, and rebuilt from struct literals in
    // `take_sieve_config`: a field added to either type and not persisted
    // here fails to compile instead of resetting to its default on recovery.
    let SieveConfig {
        interval_ms,
        variance_threshold,
        min_clusters,
        max_clusters,
        kshape_max_iterations,
        granger,
        parallelism,
        retention,
    } = config;
    let GrangerConfig {
        max_lag,
        significance,
    } = granger;
    put_u64(buf, *interval_ms);
    put_f64(buf, *variance_threshold);
    put_usize(buf, *min_clusters);
    put_usize(buf, *max_clusters);
    put_usize(buf, *kshape_max_iterations);
    put_usize(buf, *max_lag);
    put_f64(buf, *significance);
    put_usize(buf, *parallelism);
    put_retention(buf, retention);
}

/// Reads a full [`SieveConfig`], in the field order of
/// [`put_sieve_config`], and refuses one [`SieveConfig::validate`] refuses:
/// a session could not be opened over it.
pub(crate) fn take_sieve_config(cur: &mut Cursor<'_>) -> DecodeResult<SieveConfig> {
    let config = SieveConfig {
        interval_ms: cur.take_u64("interval_ms")?,
        variance_threshold: cur.take_f64("variance_threshold")?,
        min_clusters: cur.take_usize("min_clusters")?,
        max_clusters: cur.take_usize("max_clusters")?,
        kshape_max_iterations: cur.take_usize("kshape_max_iterations")?,
        granger: GrangerConfig {
            max_lag: cur.take_usize("granger max_lag")?,
            significance: cur.take_f64("granger significance")?,
        },
        parallelism: cur.take_usize("parallelism")?,
        retention: take_retention(cur)?,
    };
    config.validate().map_err(|error| error.to_string())?;
    Ok(config)
}

/// Appends a [`CallGraph`] as its component list plus per-caller edge
/// lists with call counts.
pub(crate) fn put_call_graph(buf: &mut Vec<u8>, graph: &CallGraph) {
    let components = graph.components();
    put_usize(buf, components.len());
    for component in &components {
        put_str(buf, component.as_str());
    }
    let edges: Vec<_> = graph.edges().collect();
    put_usize(buf, edges.len());
    for (caller, callee, count) in edges {
        put_str(buf, caller.as_str());
        put_str(buf, callee.as_str());
        put_u64(buf, count);
    }
}

/// Reads a [`CallGraph`].
pub(crate) fn take_call_graph(cur: &mut Cursor<'_>) -> DecodeResult<CallGraph> {
    let mut graph = CallGraph::new();
    let components = cur.take_usize("call graph component count")?;
    for _ in 0..components {
        graph.add_component(cur.take_str("call graph component")?);
    }
    let edges = cur.take_usize("call graph edge count")?;
    for _ in 0..edges {
        let caller = cur.take_str("call graph caller")?;
        let callee = cur.take_str("call graph callee")?;
        let count = cur.take_u64("call graph call count")?;
        graph.record_calls(caller, callee, count);
    }
    Ok(graph)
}

fn put_series(buf: &mut Vec<u8>, series: &SeriesState) {
    put_metric_id(buf, &series.id);
    put_usize(buf, series.timestamps_ms.len());
    for &t in &series.timestamps_ms {
        put_u64(buf, t);
    }
    for &v in &series.values {
        put_f64(buf, v);
    }
    put_u64(buf, series.fingerprint);
    put_bool(buf, series.touched);
}

fn take_series(cur: &mut Cursor<'_>) -> DecodeResult<SeriesState> {
    let id = take_metric_id(cur)?;
    let len = cur.take_usize("series point count")?;
    // A point takes 16 bytes, so a damaged count reserves no more than the
    // bytes left could hold.
    let reserved = len.min(cur.remaining() / 16);
    let mut timestamps_ms = Vec::with_capacity(reserved);
    for _ in 0..len {
        timestamps_ms.push(cur.take_u64("series timestamp")?);
    }
    let mut values = Vec::with_capacity(reserved);
    for _ in 0..len {
        values.push(cur.take_f64("series value")?);
    }
    Ok(SeriesState {
        id,
        timestamps_ms,
        values,
        fingerprint: cur.take_u64("series fingerprint")?,
        touched: cur.take_bool("series touched")?,
    })
}

/// Appends a complete frozen store image.
pub(crate) fn put_store_state(buf: &mut Vec<u8>, state: &StoreState) {
    put_retention(buf, &state.retention);
    put_u64(buf, state.epoch);
    put_u64(buf, state.points_written);
    put_u64(buf, state.points_evicted);
    put_usize(buf, state.series.len());
    for series in &state.series {
        put_series(buf, series);
    }
}

/// Reads a complete frozen store image, and refuses one that breaks the
/// store's rule ([`StoreState::validate`]): ingest could not have built it.
pub(crate) fn take_store_state(cur: &mut Cursor<'_>) -> DecodeResult<StoreState> {
    let retention = take_retention(cur)?;
    let epoch = cur.take_u64("store epoch")?;
    let points_written = cur.take_u64("store points_written")?;
    let points_evicted = cur.take_u64("store points_evicted")?;
    let series_len = cur.take_usize("store series count")?;
    // Grown as series decode, so a damaged count reserves nothing.
    let mut series = Vec::new();
    for _ in 0..series_len {
        series.push(take_series(cur)?);
    }
    let state = StoreState {
        retention,
        epoch,
        points_written,
        points_evicted,
        series,
    };
    state
        .validate()
        .map_err(|reason| format!("store image: {reason}"))?;
    Ok(state)
}

/// The bytes a golden fixture spells in hex.
#[cfg(test)]
pub(crate) fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|at| u8::from_str_radix(&hex[at..at + 2], 16).expect("two hex digits"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_simulator::store::MetricStore;

    #[test]
    fn scalar_roundtrips_are_exact() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX);
        put_f64(&mut buf, f64::NAN);
        put_f64(&mut buf, -0.0);
        put_bool(&mut buf, true);
        put_str(&mut buf, "wal ♥");

        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.take_u8("a").unwrap(), 7);
        assert_eq!(cur.take_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(cur.take_u64("c").unwrap(), u64::MAX);
        assert!(cur.take_f64("d").unwrap().is_nan());
        assert_eq!(cur.take_f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(cur.take_bool("f").unwrap());
        assert_eq!(cur.take_str("g").unwrap(), "wal ♥");
        assert!(cur.is_empty());
    }

    #[test]
    fn varints_take_the_fewest_bytes_and_only_those_decode() {
        let cases: [(u32, &[u8]); 7] = [
            (0, &[0x00]),
            (1, &[0x01]),
            (127, &[0x7F]),
            (128, &[0x80, 0x01]),
            (129, &[0x81, 0x01]),
            (16_383, &[0xFF, 0x7F]),
            (u32::MAX, &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
        ];
        for (value, bytes) in cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            assert_eq!(buf, bytes, "{value}");
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.take_varint("slot").unwrap(), value);
            assert!(cur.is_empty());
        }
        let refused = |bytes: &[u8]| Cursor::new(bytes).take_varint("slot").unwrap_err();
        assert_eq!(refused(&[0x80, 0x00]), "slot: overlong varint");
        assert_eq!(refused(&[0xFF, 0x80, 0x00]), "slot: overlong varint");
        assert_eq!(
            refused(&[0x80, 0x80, 0x80, 0x80, 0x10]),
            "slot: varint overflows u32"
        );
        assert_eq!(
            refused(&[0x80, 0x80, 0x80, 0x80, 0x80]),
            "slot: varint overflows u32"
        );
        assert!(refused(&[0x80]).starts_with("truncated slot"));
        assert!(refused(&[]).starts_with("truncated slot"));

        // The same rule at 64 bits: ten bytes at most, the tenth carrying
        // one bit.
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        for (value, bytes) in [(0, &[0x00][..]), (300, &[0xAC, 0x02]), (u64::MAX, &max)] {
            let mut buf = Vec::new();
            put_varint64(&mut buf, value);
            assert_eq!(buf, bytes, "{value}");
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.take_varint64("delta").unwrap(), value);
            assert!(cur.is_empty());
        }
        let refused = |bytes: &[u8]| Cursor::new(bytes).take_varint64("delta").unwrap_err();
        let mut past = max;
        past[9] = 0x02;
        assert_eq!(refused(&past), "delta: varint overflows u64");
        past[9] = 0x81;
        assert_eq!(refused(&past), "delta: varint overflows u64");
        assert_eq!(refused(&[0xAC, 0x82, 0x00]), "delta: overlong varint");
        assert!(refused(&max[..9]).starts_with("truncated delta"));
    }

    #[test]
    fn truncated_and_malformed_input_errors_instead_of_panicking() {
        let mut cur = Cursor::new(&[1, 2]);
        let err = cur.take_u64("watermark").unwrap_err();
        assert!(err.contains("truncated watermark"), "{err}");

        let mut cur = Cursor::new(&[9]);
        assert!(cur.take_bool("flag").unwrap_err().contains("invalid bool"));

        // A length prefix pointing past the end must not wrap around.
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        let mut cur = Cursor::new(&huge);
        assert!(cur.take_str("name").is_err());
    }

    #[test]
    fn config_and_graph_roundtrip() {
        // Every field differs from its default, so a field the codec
        // forgot — or swapped with a neighbour — cannot round-trip.
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
            parallelism: SieveConfig::default().parallelism + 1,
            retention: RetentionPolicy::windowed(128),
        };
        let mut buf = Vec::new();
        put_sieve_config(&mut buf, &config);
        let decoded = take_sieve_config(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(decoded, config);

        let mut graph = CallGraph::new();
        graph.add_component("lonely");
        graph.record_calls("web", "db", 41);
        graph.record_calls("web", "cache", 7);
        let mut buf = Vec::new();
        put_call_graph(&mut buf, &graph);
        let decoded = take_call_graph(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(decoded, graph);
    }

    #[test]
    fn a_zero_capacity_a_refused_config_or_a_broken_image_does_not_decode() {
        let zero = "retention raw capacity: 0";
        let mut policy = vec![1];
        put_usize(&mut policy, 0);
        assert_eq!(take_retention(&mut Cursor::new(&policy)).unwrap_err(), zero);

        // A configuration ends with its retention policy.
        let config = SieveConfig::default().with_retention(RetentionPolicy::windowed(128));
        let mut buf = Vec::new();
        put_sieve_config(&mut buf, &config);
        let end = buf.len();
        buf[end - 8..].fill(0);
        assert_eq!(take_sieve_config(&mut Cursor::new(&buf)).unwrap_err(), zero);
        buf.clear();
        put_sieve_config(&mut buf, &config.with_interval_ms(0));
        let refused = take_sieve_config(&mut Cursor::new(&buf)).unwrap_err();
        assert!(refused.contains("interval_ms"), "{refused}");

        // A store image begins with its retention policy.
        let store = MetricStore::with_retention(RetentionPolicy::windowed(2));
        for t in 0..5u64 {
            store.record(&MetricId::new("web", "cpu"), t * 500, 1.0);
        }
        let mut state = store.freeze();
        buf.clear();
        put_store_state(&mut buf, &state);
        buf[1..9].fill(0);
        assert_eq!(take_store_state(&mut Cursor::new(&buf)).unwrap_err(), zero);
        state.points_evicted += 1;
        buf.clear();
        put_store_state(&mut buf, &state);
        assert_eq!(
            take_store_state(&mut Cursor::new(&buf)).unwrap_err(),
            "store image: windows of 2 points in all, but 5 written less 4 evicted"
        );
    }

    #[test]
    fn frozen_store_roundtrips_bit_identically() {
        let store = MetricStore::with_retention(RetentionPolicy::windowed(5));
        let id = MetricId::new("web", "cpu");
        for t in 0..37u64 {
            store.record(&id, t * 500, (t as f64 * 0.37).sin());
        }
        store.drain_delta();
        store.record(&MetricId::new("db", "mem"), 0, 1.25);

        let state = store.freeze();
        let mut buf = Vec::new();
        put_store_state(&mut buf, &state);
        let decoded = take_store_state(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(decoded, state);
        assert_eq!(
            MetricStore::restore(decoded).freeze(),
            state,
            "decode → restore → freeze is the identity"
        );
    }
}
