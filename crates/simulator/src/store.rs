//! The metric store: the simulator's InfluxDB/Telegraf stand-in.
//!
//! Besides holding every recorded time series, the store keeps a resource
//! accounting model (CPU time, database size, network traffic per reported
//! point) so that the monitoring-overhead comparison of Table 3 — "Sieve
//! reduces the monitoring overhead for computation, storage and network by
//! 80%, 90% and 50%" — can be regenerated by re-playing a run with the full
//! and the reduced metric set.
//!
//! Series are keyed by [`MetricId`], a pair of interned [`Name`]s: the hot
//! ingestion path (`record` runs once per metric per simulation tick) clones
//! reference counts instead of strings, and key comparisons inside the map
//! hit the interner's pointer-identity fast path.
//!
//! # Epochs and deltas
//!
//! The store is the source of truth for the incremental analysis path:
//! every accepted point advances the series' running *content fingerprint*
//! (a deterministic 64-bit hash of the accepted `(timestamp, value)`
//! sequence) and marks the series as touched.
//! [`MetricStore::drain_delta`] snapshots the touched set, clears it, and
//! advances a monotone *epoch watermark* — so a streaming consumer (one per
//! store) can ask "what changed since I last looked?" instead of re-reading
//! the world. Fingerprints are pure functions of the accepted point
//! sequence *and* the eviction history: two series fed the same stream
//! under the same [`RetentionPolicy`] always carry the same fingerprint,
//! regardless of which store recorded them.
//!
//! # Bounded memory: ring windows and tiered downsampling
//!
//! By default a store is unbounded and keeps every accepted point forever —
//! the right mode for offline experiments, and the *oracle* that the
//! windowed mode is property-tested against. Under a bounded
//! [`RetentionPolicy`], each series keeps only the newest
//! `raw_capacity` points at full resolution. The retained window lives as
//! a contiguous suffix of a slack buffer (logical start offset + amortized
//! compaction), so reads hand out zero-copy [`SeriesView`]s and physical
//! memory never exceeds twice the capacity.
//!
//! Every evicted point is folded into two downsampled tiers before it is
//! forgotten: tier 1 closes a mean/min/max [`AggregateBucket`] per
//! [`TIER_FANOUT`] (10) raw points, tier 2 per 10 tier-1 buckets (100 raw
//! points). Bucketing is count-based, so the tiers are a deterministic pure
//! function of the accepted stream — independent of batch boundaries, drain
//! timing, or wall-clock.
//!
//! Eviction participates in the epoch machinery exactly like ingestion:
//! each evicted point advances the series fingerprint (with a dedicated
//! eviction tag) and marks the series touched, so the analysis session
//! treats a trimmed series like any other dirty one. Given the same
//! retained window, windowed and unbounded stores produce bit-identical
//! analysis results; they diverge — deterministically — only once the
//! analysis window no longer fits inside retention.

use sieve_exec::hash::{mix, mix_f64, FINGERPRINT_SEED};
use sieve_exec::Name;
use sieve_timeseries::{SeriesView, TimeSeries};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, RwLock};

/// Identifies one metric of one component.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    /// Component exporting the metric.
    pub component: Name,
    /// Metric name.
    pub metric: Name,
}

impl MetricId {
    /// Creates a metric identifier (interning both parts).
    pub fn new(component: impl Into<Name>, metric: impl Into<Name>) -> Self {
        Self {
            component: component.into(),
            metric: metric.into(),
        }
    }
}

impl std::fmt::Display for MetricId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.component, self.metric)
    }
}

/// Resource usage accounted by the store, mirroring the rows of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceUsage {
    /// CPU time spent ingesting and indexing points, in seconds.
    pub cpu_time_s: f64,
    /// On-disk database size, in kilobytes.
    pub db_size_kb: f64,
    /// Network traffic into the store (agent → DB), in megabytes.
    pub network_in_mb: f64,
    /// Network traffic out of the store (DB → dashboards), in kilobytes.
    pub network_out_kb: f64,
}

impl ResourceUsage {
    /// Relative reduction (in percent) of each resource from `self` to
    /// `after`, as reported in Table 3.
    pub fn reduction_percent(&self, after: &ResourceUsage) -> ResourceUsage {
        fn pct(before: f64, after: f64) -> f64 {
            if before <= 0.0 {
                0.0
            } else {
                (1.0 - after / before) * 100.0
            }
        }
        ResourceUsage {
            cpu_time_s: pct(self.cpu_time_s, after.cpu_time_s),
            db_size_kb: pct(self.db_size_kb, after.db_size_kb),
            network_in_mb: pct(self.network_in_mb, after.network_in_mb),
            network_out_kb: pct(self.network_out_kb, after.network_out_kb),
        }
    }
}

/// Per-point ingestion costs of the store.
///
/// The defaults are calibrated so that a full ShareLatex-like run produces
/// overheads of the same order as Table 3 of the paper; only the *relative*
/// savings matter for the reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// CPU seconds consumed per ingested point.
    pub cpu_s_per_point: f64,
    /// Storage bytes consumed per ingested point (after compression).
    pub bytes_per_point: f64,
    /// Network bytes transferred into the store per ingested point
    /// (line protocol is more verbose than the stored form).
    pub network_in_bytes_per_point: f64,
    /// Network bytes transferred out of the store per point that is read by
    /// dashboards/queries.
    pub network_out_bytes_per_point: f64,
    /// Fixed per-series overhead in bytes (schema, index).
    pub bytes_per_series: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            cpu_s_per_point: 25e-6,
            bytes_per_point: 12.0,
            network_in_bytes_per_point: 120.0,
            network_out_bytes_per_point: 8.0,
            bytes_per_series: 600.0,
        }
    }
}

/// Number of source units folded into one downsampled bucket: tier 1
/// closes a bucket per 10 raw points, tier 2 per 10 tier-1 buckets
/// (100 raw points).
pub const TIER_FANOUT: usize = 10;

/// Default number of closed buckets kept per downsampled tier when a
/// policy does not specify one.
pub const DEFAULT_TIER_CAPACITY: usize = 64;

/// How much history each series of a store retains.
///
/// The default ([`RetentionPolicy::unbounded`]) keeps every accepted point
/// forever — the oracle mode used by offline experiments and by the
/// property suite that validates the windowed mode. A bounded policy
/// ([`RetentionPolicy::windowed`]) keeps the newest `raw_capacity` points
/// per series at full resolution and folds evicted points into mean/min/max
/// aggregate tiers at 10x and 100x granularity (see [`AggregateBucket`]).
///
/// Eviction is count-based and happens on the ingestion path: the moment an
/// accepted point would push a series past its capacity, exactly the oldest
/// retained point is evicted. The retained window, the downsampled tiers
/// and the series fingerprint are therefore deterministic pure functions of
/// `(policy, accepted stream)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Maximum raw points retained per series; `None` means unbounded.
    pub raw_capacity: Option<usize>,
    /// Closed [`AggregateBucket`]s kept per downsampled tier.
    pub tier_capacity: usize,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl RetentionPolicy {
    /// Keep everything (the default, and the determinism oracle).
    pub fn unbounded() -> Self {
        Self {
            raw_capacity: None,
            tier_capacity: DEFAULT_TIER_CAPACITY,
        }
    }

    /// Keep the newest `raw_capacity` raw points per series; evicted points
    /// survive as tiered aggregates (up to `raw_capacity` buckets per
    /// tier).
    ///
    /// # Panics
    ///
    /// Panics if `raw_capacity` is zero.
    pub fn windowed(raw_capacity: usize) -> Self {
        assert!(raw_capacity > 0, "raw_capacity must be positive");
        Self {
            raw_capacity: Some(raw_capacity),
            tier_capacity: raw_capacity,
        }
    }

    /// Overrides how many closed buckets each downsampled tier keeps.
    ///
    /// # Panics
    ///
    /// Panics if `tier_capacity` is zero.
    pub fn with_tier_capacity(mut self, tier_capacity: usize) -> Self {
        assert!(tier_capacity > 0, "tier_capacity must be positive");
        self.tier_capacity = tier_capacity;
        self
    }

    /// Whether this policy evicts at all.
    pub fn is_bounded(&self) -> bool {
        self.raw_capacity.is_some()
    }

    /// Validates the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.raw_capacity == Some(0) {
            return Err("retention raw_capacity must be positive when set".to_string());
        }
        if self.tier_capacity == 0 {
            return Err("retention tier_capacity must be positive".to_string());
        }
        Ok(())
    }
}

/// One closed mean/min/max summary of [`TIER_FANOUT`]^tier consecutive raw
/// points, produced when those points were evicted from the raw window.
///
/// Tier-1 buckets always summarize exactly 10 raw points and tier-2 buckets
/// exactly 100 (buckets only close when full), so the tier-2 mean-of-means
/// equals the true mean of its raw points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateBucket {
    /// Timestamp of the first summarized point.
    pub start_ms: u64,
    /// Timestamp of the last summarized point.
    pub end_ms: u64,
    /// Number of raw points summarized.
    pub count: u32,
    /// Arithmetic mean of the summarized values.
    pub mean: f64,
    /// Minimum of the summarized values.
    pub min: f64,
    /// Maximum of the summarized values.
    pub max: f64,
}

/// Selects one of the two downsampled tiers of a windowed series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownsampleTier {
    /// One bucket per 10 raw points.
    TenX,
    /// One bucket per 100 raw points.
    HundredX,
}

/// Why the ingestion path dropped a point.
///
/// The detailed batch API ([`MetricStore::record_batch_detailed`]) reports
/// one of these per rejected point, so a durability layer can log exactly
/// the accepted sub-batch — a replay of the log then applies bit-identically
/// (rejected points never reach the log, so they can never replay
/// differently than they applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The timestamp does not advance the series' time (out-of-order or
    /// duplicate), mirroring how monitoring agents drop duplicate reports.
    NonMonotoneTimestamp,
    /// The value is NaN or infinite. Non-finite observations would poison
    /// every downstream statistic (means, variances, spectra), so the
    /// store rejects them at the door.
    NonFiniteValue,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonMonotoneTimestamp => write!(f, "non-monotone timestamp"),
            Self::NonFiniteValue => write!(f, "non-finite value"),
        }
    }
}

/// What one [`MetricStore::record_batch_detailed`] call did, point by
/// point: how many points were accepted, why each rejected point was
/// dropped (by batch index), and the post-apply content fingerprint of
/// every series that accepted at least one point.
///
/// The watermarks are what a write-ahead log persists next to the batch:
/// on replay, matching fingerprints prove the batch applied to the same
/// store state it was logged against.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchOutcome {
    /// Number of accepted points.
    pub accepted: usize,
    /// `(batch index, reason)` of every rejected point, in batch order.
    pub rejected: Vec<(usize, RejectReason)>,
    /// Post-apply fingerprint of every series that accepted at least one
    /// point in this batch, sorted by [`MetricId`].
    pub watermarks: Vec<(MetricId, u64)>,
}

/// Serializable image of one downsampled tier of a frozen series: the
/// closed buckets plus the open accumulator, captured exactly so a
/// restored tier continues filling the very same bucket.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TierState {
    /// Closed buckets, oldest first.
    pub closed: Vec<AggregateBucket>,
    /// Source units (raw points for tier 1, child buckets for tier 2)
    /// folded into the open bucket so far.
    pub open_sources: u32,
    /// Raw points folded into the open bucket so far.
    pub open_count: u32,
    /// Running sum of the open bucket's averaged units.
    pub open_sum: f64,
    /// Running minimum of the open bucket.
    pub open_min: f64,
    /// Running maximum of the open bucket.
    pub open_max: f64,
    /// Timestamp of the open bucket's first source unit.
    pub open_start_ms: u64,
    /// Timestamp of the open bucket's last source unit.
    pub open_end_ms: u64,
}

/// Serializable image of one frozen series: the retained window
/// (start-normalized), the running fingerprint, the dirty mark, and both
/// downsample tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesState {
    /// The series identifier.
    pub id: MetricId,
    /// Timestamps of the retained window, oldest first.
    pub timestamps_ms: Vec<u64>,
    /// Values of the retained window, oldest first.
    pub values: Vec<f64>,
    /// Running content fingerprint at freeze time.
    pub fingerprint: u64,
    /// Whether the series was touched (dirty since the last
    /// [`MetricStore::drain_delta`]) at freeze time.
    pub touched: bool,
    /// 10x downsample tier image.
    pub tier1: TierState,
    /// 100x downsample tier image.
    pub tier2: TierState,
}

/// A complete serializable image of a [`MetricStore`], as captured by
/// [`MetricStore::freeze`] and revived by [`MetricStore::restore`].
///
/// The image is exact: a restored store continues bit-identically to the
/// frozen one — same fingerprints, same epoch watermark, same pending
/// dirt, same tier contents, same accounting counters. This is what a
/// durability snapshot persists per tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreState {
    /// Retention policy at freeze time.
    pub retention: RetentionPolicy,
    /// Cost model at freeze time (`None` if the store never had one).
    pub cost_model: Option<CostModel>,
    /// Epoch watermark at freeze time.
    pub epoch: u64,
    /// Cumulative accepted-point count.
    pub points_written: u64,
    /// Cumulative evicted-point count.
    pub points_evicted: u64,
    /// Cumulative read-point count.
    pub points_read: u64,
    /// Every stored series, sorted by [`MetricId`].
    pub series: Vec<SeriesState>,
}

/// The changes between two epoch watermarks of a [`MetricStore`], as
/// returned by [`MetricStore::drain_delta`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreDelta {
    /// The watermark this drain advanced the store to. Strictly increasing
    /// across consecutive drains of one store.
    pub epoch: u64,
    /// The series that accepted at least one point — or evicted at least
    /// one point — since the previous drain, sorted by [`MetricId`].
    pub touched: Vec<MetricId>,
}

impl StoreDelta {
    /// Whether no series changed in this epoch.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// The distinct components with at least one touched series, sorted.
    pub fn touched_components(&self) -> Vec<Name> {
        let mut out: Vec<Name> = self.touched.iter().map(|id| id.component.clone()).collect();
        // `drain_delta` emits `touched` sorted, but the field is public —
        // sort before dedup so hand-built deltas get the documented result.
        out.sort();
        out.dedup();
        out
    }
}

/// An in-memory, thread-safe time-series store with resource accounting and
/// an optional bounded-memory [`RetentionPolicy`].
///
/// Cloning the store is cheap (it is backed by an `Arc`); clones share the
/// same underlying data, like handles to one database. The epoch/delta
/// state ([`MetricStore::drain_delta`]) is shared too, so a store should
/// have exactly one streaming consumer draining it.
#[derive(Debug, Clone, Default)]
pub struct MetricStore {
    inner: Arc<RwLock<StoreInner>>,
}

#[derive(Debug, Default)]
struct StoreInner {
    series: BTreeMap<MetricId, StoredSeries>,
    /// Monotone watermark: the number of deltas drained so far.
    epoch: u64,
    cost_model: Option<CostModel>,
    retention: RetentionPolicy,
    points_written: u64,
    points_evicted: u64,
    points_read: u64,
    /// Monotone stamp handed to each detailed batch, so per-batch
    /// "first touch of this series" detection is a field compare instead
    /// of a set insertion (transient — never serialized).
    batch_stamp: u64,
}

impl StoreInner {
    /// The one ingestion path: appends an observation, advancing the
    /// fingerprint and touched mark on acceptance and enforcing the
    /// retention policy (evicting exactly the oldest retained point when
    /// the window overflows). Returns why the point was dropped, or `None`
    /// on acceptance.
    ///
    /// The non-finite gate runs before the series entry is created, so a
    /// rejected first point never materializes an empty series.
    fn record_one(&mut self, id: &MetricId, timestamp_ms: u64, value: f64) -> Option<RejectReason> {
        self.record_one_stamped(id, timestamp_ms, value, 0).0
    }

    /// [`StoreInner::record_one`] over a batch; returns how many points
    /// were accepted.
    fn record_all<'a>(&mut self, points: impl Iterator<Item = (&'a MetricId, u64, f64)>) -> usize {
        let mut accepted = 0;
        for (id, timestamp_ms, value) in points {
            if self.record_one(id, timestamp_ms, value).is_none() {
                accepted += 1;
            }
        }
        accepted
    }

    /// [`StoreInner::record_one`] plus per-batch first-touch detection:
    /// on acceptance, the second return is `true` iff this is the first
    /// accepted point of the series under `stamp` — the detailed batch
    /// path uses it to collect watermark entries with one map lookup per
    /// point and no per-call set allocation.
    fn record_one_stamped(
        &mut self,
        id: &MetricId,
        timestamp_ms: u64,
        value: f64,
        stamp: u64,
    ) -> (Option<RejectReason>, bool) {
        if !value.is_finite() {
            return (Some(RejectReason::NonFiniteValue), false);
        }
        let retention = self.retention;
        // The id is cloned only for a series' first point.
        let series = match self.series.get_mut(id) {
            Some(series) => series,
            None => self.series.entry(id.clone()).or_default(),
        };
        if !series.push(timestamp_ms, value) {
            return (Some(RejectReason::NonMonotoneTimestamp), false);
        }
        let first_touch = series.last_batch != stamp;
        series.last_batch = stamp;
        series.fingerprint = extend_fingerprint(series.fingerprint, timestamp_ms, value);
        series.touched = true;
        self.points_written += 1;
        if let Some(cap) = retention.raw_capacity {
            if series.window_len() > cap {
                series.evict_oldest(retention.tier_capacity);
                series.compact_if_due(cap);
                self.points_evicted += 1;
            }
        }
        (None, first_touch)
    }
}

/// One stored series with its incremental-analysis bookkeeping co-located,
/// so the per-point ingestion path pays a single map lookup.
///
/// The raw points live in plain vectors with a logical `start` offset: the
/// retained window is always the contiguous suffix `[start..]`, so reads
/// are zero-copy slices. Eviction advances `start`; once `start` reaches
/// the raw capacity the dead prefix is drained in one amortized-O(1)
/// compaction, bounding physical memory at twice the capacity.
#[derive(Debug)]
struct StoredSeries {
    timestamps_ms: Vec<u64>,
    values: Vec<f64>,
    /// Physical index of the first retained point.
    start: usize,
    /// Running content fingerprint, advanced on every accepted point and
    /// every eviction.
    fingerprint: u64,
    /// Whether a point was accepted or evicted since the last
    /// [`MetricStore::drain_delta`].
    touched: bool,
    /// 10x mean/min/max aggregates of evicted points.
    tier1: TierRing,
    /// 100x mean/min/max aggregates of evicted points.
    tier2: TierRing,
    /// Stamp of the last detailed batch that accepted a point here
    /// (transient bookkeeping — not part of [`SeriesState`]).
    last_batch: u64,
}

impl Default for StoredSeries {
    fn default() -> Self {
        Self {
            timestamps_ms: Vec::new(),
            values: Vec::new(),
            start: 0,
            fingerprint: FINGERPRINT_SEED,
            touched: false,
            tier1: TierRing::default(),
            tier2: TierRing::default(),
            last_batch: 0,
        }
    }
}

impl StoredSeries {
    /// Appends an observation if its timestamp is strictly newer than the
    /// last accepted one.
    fn push(&mut self, timestamp_ms: u64, value: f64) -> bool {
        if let Some(&last) = self.timestamps_ms.last() {
            if timestamp_ms <= last {
                return false;
            }
        }
        self.timestamps_ms.push(timestamp_ms);
        self.values.push(value);
        true
    }

    /// Number of retained points.
    fn window_len(&self) -> usize {
        self.values.len() - self.start
    }

    /// Zero-copy view of the retained window.
    fn window(&self) -> SeriesView<'_> {
        SeriesView::new(
            &self.timestamps_ms[self.start..],
            &self.values[self.start..],
        )
    }

    /// Evicts the oldest retained point: folds it into the downsampled
    /// tiers, advances the fingerprint with the eviction tag, and moves the
    /// window start forward.
    fn evict_oldest(&mut self, tier_capacity: usize) {
        let t = self.timestamps_ms[self.start];
        let v = self.values[self.start];
        self.start += 1;
        self.fingerprint = mix(self.fingerprint, EVICTION_TAG);
        if let Some(full) = self.tier1.feed(t, t, 1, v, v, v, tier_capacity) {
            // A full tier-1 bucket fell off the ring: cascade it into
            // tier 2. A bucket falling off tier 2 is forgotten for good.
            let _ = self.tier2.feed(
                full.start_ms,
                full.end_ms,
                full.count,
                full.mean,
                full.min,
                full.max,
                tier_capacity,
            );
        }
    }

    /// Drains the dead prefix once it has grown to the raw capacity, so
    /// each point is moved at most once on average and physical length
    /// stays below twice the capacity.
    fn compact_if_due(&mut self, raw_capacity: usize) {
        if self.start >= raw_capacity.max(1) {
            self.timestamps_ms.drain(..self.start);
            self.values.drain(..self.start);
            self.start = 0;
        }
    }
}

/// One downsampled tier: a bounded ring of closed buckets plus the open
/// accumulator for the bucket currently being filled. Feeding is
/// count-based ([`TIER_FANOUT`] source units per bucket), which is what
/// makes the tiers a pure function of the evicted point sequence.
#[derive(Debug, Default)]
struct TierRing {
    closed: VecDeque<AggregateBucket>,
    /// Source units (raw points for tier 1, child buckets for tier 2)
    /// folded into the open bucket so far.
    open_sources: u32,
    open_count: u32,
    open_sum: f64,
    open_min: f64,
    open_max: f64,
    open_start_ms: u64,
    open_end_ms: u64,
}

impl TierRing {
    /// Folds one source unit (a raw point or a child bucket) into the open
    /// bucket; closes the bucket after [`TIER_FANOUT`] units. Returns the
    /// bucket that fell off the ring, if closing overflowed `capacity`.
    ///
    /// `unit` is the value that the tier averages: the raw value for
    /// tier 1, the child bucket's mean for tier 2. Since buckets only close
    /// when full, every child carries the same number of raw points and the
    /// mean-of-units equals the true mean over raw points.
    #[allow(clippy::too_many_arguments)]
    fn feed(
        &mut self,
        start_ms: u64,
        end_ms: u64,
        count: u32,
        unit: f64,
        min: f64,
        max: f64,
        capacity: usize,
    ) -> Option<AggregateBucket> {
        if self.open_sources == 0 {
            self.open_start_ms = start_ms;
            self.open_count = count;
            self.open_sum = unit;
            self.open_min = min;
            self.open_max = max;
        } else {
            self.open_count += count;
            self.open_sum += unit;
            self.open_min = self.open_min.min(min);
            self.open_max = self.open_max.max(max);
        }
        self.open_end_ms = end_ms;
        self.open_sources += 1;
        if self.open_sources as usize == TIER_FANOUT {
            let bucket = AggregateBucket {
                start_ms: self.open_start_ms,
                end_ms: self.open_end_ms,
                count: self.open_count,
                mean: self.open_sum / f64::from(self.open_sources),
                min: self.open_min,
                max: self.open_max,
            };
            self.open_sources = 0;
            self.closed.push_back(bucket);
            if self.closed.len() > capacity {
                return self.closed.pop_front();
            }
        }
        None
    }

    /// Captures the ring — closed buckets and open accumulator — exactly.
    fn freeze(&self) -> TierState {
        TierState {
            closed: self.closed.iter().copied().collect(),
            open_sources: self.open_sources,
            open_count: self.open_count,
            open_sum: self.open_sum,
            open_min: self.open_min,
            open_max: self.open_max,
            open_start_ms: self.open_start_ms,
            open_end_ms: self.open_end_ms,
        }
    }

    /// Revives a ring from its frozen image.
    fn thaw(state: TierState) -> Self {
        Self {
            closed: state.closed.into(),
            open_sources: state.open_sources,
            open_count: state.open_count,
            open_sum: state.open_sum,
            open_min: state.open_min,
            open_max: state.open_max,
            open_start_ms: state.open_start_ms,
            open_end_ms: state.open_end_ms,
        }
    }
}

/// Advances a series' running content fingerprint by one accepted point.
fn extend_fingerprint(fp: u64, timestamp_ms: u64, value: f64) -> u64 {
    mix_f64(mix(fp, timestamp_ms), value)
}

/// Tag mixed into a series fingerprint for every evicted point, so two
/// series with the same retained window but different eviction histories
/// never compare equal ("WINDOWED" in ASCII).
const EVICTION_TAG: u64 = 0x5749_4E44_4F57_4544;

impl MetricStore {
    /// Creates an empty, unbounded store with the default cost model.
    pub fn new() -> Self {
        let store = Self::default();
        store.write().cost_model = Some(CostModel::default());
        store
    }

    /// Creates an empty store with a custom cost model.
    pub fn with_cost_model(cost_model: CostModel) -> Self {
        let store = Self::default();
        store.write().cost_model = Some(cost_model);
        store
    }

    /// Creates an empty store with the default cost model and the given
    /// retention policy.
    pub fn with_retention(policy: RetentionPolicy) -> Self {
        let store = Self::new();
        store.write().retention = policy;
        store
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, StoreInner> {
        self.inner.read().expect("metric store poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, StoreInner> {
        self.inner.write().expect("metric store poisoned")
    }

    /// The store's current retention policy.
    pub fn retention(&self) -> RetentionPolicy {
        self.read().retention
    }

    /// Replaces the retention policy, immediately evicting whatever the new
    /// policy no longer retains.
    ///
    /// Series that lose points are marked touched — to the epoch machinery
    /// a runtime trim is dirt like any other, so the next
    /// [`MetricStore::drain_delta`] reports them and the analysis session
    /// recomputes them. Tightening is irreversible (evicted points only
    /// survive as tier aggregates); loosening simply stops future eviction.
    pub fn set_retention(&self, policy: RetentionPolicy) {
        let mut inner = self.write();
        inner.retention = policy;
        let Some(cap) = policy.raw_capacity else {
            return;
        };
        let mut evicted = 0u64;
        for series in inner.series.values_mut() {
            let excess = series.window_len().saturating_sub(cap);
            for _ in 0..excess {
                series.evict_oldest(policy.tier_capacity);
            }
            if excess > 0 {
                series.touched = true;
                series.compact_if_due(cap);
                evicted += excess as u64;
            }
        }
        inner.points_evicted += evicted;
    }

    /// Appends one observation to the series identified by `id`; returns
    /// whether the point was accepted.
    ///
    /// Out-of-order points (timestamp not greater than the last one) and
    /// non-finite values (NaN, ±infinity) are dropped (returning `false`),
    /// mirroring how monitoring agents handle duplicate or corrupt
    /// reports. Every *accepted* point advances the series' content
    /// fingerprint and marks the series as touched in the current epoch;
    /// dropped points leave both untouched. Under a bounded
    /// [`RetentionPolicy`], a point that overflows the window also evicts
    /// the oldest retained point into the downsampled tiers.
    pub fn record(&self, id: &MetricId, timestamp_ms: u64, value: f64) -> bool {
        self.write().record_one(id, timestamp_ms, value).is_none()
    }

    /// Appends a batch of observations under a single write-lock
    /// acquisition and returns how many points were accepted; the
    /// per-point semantics (ordering, fingerprints, touched marks,
    /// eviction) are exactly those of [`MetricStore::record`].
    ///
    /// This is the ingestion hot path of batch producers (the serving
    /// layer's `ingest`): a collector forwarding hundreds of points per
    /// observation round pays one lock round-trip instead of one per
    /// point. Callers that need to know *which* points were dropped and
    /// why use [`MetricStore::record_batch_detailed`].
    pub fn record_batch<'a>(
        &self,
        points: impl IntoIterator<Item = (&'a MetricId, u64, f64)>,
    ) -> usize {
        self.write().record_all(points.into_iter())
    }

    /// Like [`MetricStore::record_batch`], but reports the per-point
    /// [`RejectReason`] of every dropped point and the post-apply
    /// fingerprint watermark of every series that accepted at least one
    /// point.
    ///
    /// This is the durability entry point: a write-ahead log persists only
    /// the accepted sub-batch (so replaying it can never apply differently
    /// than it did live) together with the watermarks, which let recovery
    /// prove — before applying — that a logged batch is being replayed
    /// against the same store state it was written against (see
    /// [`MetricStore::record_batch_verified`]).
    pub fn record_batch_detailed<'a>(
        &self,
        points: impl IntoIterator<Item = (&'a MetricId, u64, f64)>,
    ) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        self.record_batch_detailed_into(&mut outcome, points);
        outcome
    }

    /// [`MetricStore::record_batch_detailed`] into a caller-owned
    /// [`BatchOutcome`], reusing its buffers.
    ///
    /// This is the zero-allocation form behind the serving layer's ingest
    /// hot path: the outcome's vectors are cleared but keep their
    /// capacity, a fully-accepted batch (the overwhelmingly common case)
    /// pushes nothing to `rejected`, and first-touch detection is a
    /// per-series stamp compare instead of a per-call `BTreeSet` — so a
    /// warm scratch outcome makes the whole call allocation-free apart
    /// from the store's own series growth.
    pub fn record_batch_detailed_into<'a>(
        &self,
        outcome: &mut BatchOutcome,
        points: impl IntoIterator<Item = (&'a MetricId, u64, f64)>,
    ) {
        outcome.accepted = 0;
        outcome.rejected.clear();
        outcome.watermarks.clear();
        let mut guard = self.write();
        guard.batch_stamp += 1;
        let stamp = guard.batch_stamp;
        for (index, (id, timestamp_ms, value)) in points.into_iter().enumerate() {
            match guard.record_one_stamped(id, timestamp_ms, value, stamp) {
                (None, first_touch) => {
                    outcome.accepted += 1;
                    if first_touch {
                        // Fingerprint placeholder — filled in below, once
                        // the batch's last write to the series is in.
                        outcome.watermarks.push((id.clone(), 0));
                    }
                }
                (Some(reason), _) => outcome.rejected.push((index, reason)),
            }
        }
        outcome.watermarks.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (id, fingerprint) in &mut outcome.watermarks {
            *fingerprint = guard
                .series
                .get(id)
                .expect("series exists after accepting a point")
                .fingerprint;
        }
    }

    /// Applies `points` only if doing so reproduces `expected` — the
    /// watermarks [`MetricStore::record_batch_detailed`] reported when the
    /// batch was first applied — and returns how many points were accepted;
    /// `None`, with the store untouched, if it would not.
    ///
    /// Recovery replays every logged batch through this call: if the
    /// watermarks logged next to a batch cannot be reproduced, this store
    /// has diverged from the one the log was written against, and applying
    /// the batch would silently corrupt the tenant instead of loudly
    /// degrading it.
    ///
    /// Both phases run under one write-lock hold. The first simulates the
    /// full acceptance pipeline — the non-finite and monotone-timestamp
    /// gates, the per-point fingerprint chain, and the eviction tags the
    /// current retention policy would mix in — starting from each series'
    /// live state, into one slot per entry of `expected` (a point usually
    /// belongs to the slot after the previous point's; otherwise the slot
    /// is found by binary search). An accepted point of a series `expected`
    /// does not list, a listed series that accepts nothing or ends on
    /// another fingerprint, or an `expected` not strictly ascending by
    /// [`MetricId`] is a mismatch. Only when every slot matches does the
    /// second phase apply the points, exactly as
    /// [`MetricStore::record_batch`] would. `Some` is returned precisely
    /// when `record_batch_detailed(points).watermarks == expected`
    /// (property-tested against a copy of the store).
    pub fn record_batch_verified<'a>(
        &self,
        points: impl IntoIterator<Item = (&'a MetricId, u64, f64), IntoIter: Clone>,
        expected: &[(MetricId, u64)],
    ) -> Option<usize> {
        /// One listed series mid-simulation.
        #[derive(Clone, Copy)]
        struct Sim {
            last_ts: Option<u64>,
            fingerprint: u64,
            window_len: usize,
            accepted: bool,
        }
        if !expected.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            return None;
        }
        let points = points.into_iter();
        let mut inner = self.write();
        let cap = inner.retention.raw_capacity;
        // A slot stays `None` until a finite point of its series loads the
        // live state.
        let mut slots: Vec<Option<Sim>> = vec![None; expected.len()];
        let mut guess = 0;
        for (id, timestamp_ms, value) in points.clone() {
            if !value.is_finite() {
                continue;
            }
            let slot = if expected.get(guess).is_some_and(|(listed, _)| listed == id) {
                Some(guess)
            } else {
                expected.binary_search_by(|(listed, _)| listed.cmp(id)).ok()
            };
            let Some(slot) = slot else {
                // An unlisted series must accept nothing: all its points
                // stale against the live state.
                let live = inner.series.get(id);
                let last = live.and_then(|series| series.timestamps_ms.last());
                if last.is_some_and(|&last| timestamp_ms <= last) {
                    continue;
                }
                return None;
            };
            guess = slot + 1;
            let sim = slots[slot].get_or_insert_with(|| {
                let series = inner.series.get(id);
                Sim {
                    last_ts: series.and_then(|s| s.timestamps_ms.last().copied()),
                    fingerprint: series.map_or(FINGERPRINT_SEED, |s| s.fingerprint),
                    window_len: series.map_or(0, StoredSeries::window_len),
                    accepted: false,
                }
            });
            if sim.last_ts.is_some_and(|last| timestamp_ms <= last) {
                continue;
            }
            sim.last_ts = Some(timestamp_ms);
            sim.fingerprint = extend_fingerprint(sim.fingerprint, timestamp_ms, value);
            sim.window_len += 1;
            sim.accepted = true;
            if cap.is_some_and(|cap| sim.window_len > cap) {
                sim.fingerprint = mix(sim.fingerprint, EVICTION_TAG);
                sim.window_len -= 1;
            }
        }
        let reproduced = slots.iter().zip(expected).all(|(sim, (_, fingerprint))| {
            sim.is_some_and(|sim| sim.accepted && sim.fingerprint == *fingerprint)
        });
        if !reproduced {
            return None;
        }
        Some(inner.record_all(points))
    }

    /// The current epoch watermark: the number of deltas drained so far.
    pub fn epoch(&self) -> u64 {
        self.read().epoch
    }

    /// Snapshots and clears the set of series touched since the previous
    /// drain, advancing the epoch watermark by one (even when nothing
    /// changed, so the watermark counts observation rounds, not writes).
    ///
    /// The epoch/touched state is shared by all clones of the store, so
    /// exactly one consumer should drain a given store.
    pub fn drain_delta(&self) -> StoreDelta {
        let mut inner = self.write();
        inner.epoch += 1;
        let epoch = inner.epoch;
        let mut touched = Vec::new();
        for (id, series) in inner.series.iter_mut() {
            if series.touched {
                series.touched = false;
                touched.push(id.clone());
            }
        }
        StoreDelta { epoch, touched }
    }

    /// The running content fingerprint of the series for `id`, if present.
    /// Equal fingerprints mean equal accepted `(timestamp, value)`
    /// sequences *and* equal eviction histories (up to 64-bit hash
    /// collisions); any accepted point — and any eviction — changes the
    /// fingerprint.
    pub fn fingerprint(&self, id: &MetricId) -> Option<u64> {
        self.read().series.get(id).map(|s| s.fingerprint)
    }

    /// Returns the most recent `(timestamp_ms, value)` observation of the
    /// series for `id`, if present. Unlike [`MetricStore::series`] this does
    /// not copy the series, so streaming consumers (e.g. the autoscaling
    /// engine) can poll it every tick. Eviction never drops the newest
    /// point, so this is retention-independent.
    pub fn last_value(&self, id: &MetricId) -> Option<(u64, f64)> {
        let inner = self.read();
        let series = inner.series.get(id)?;
        let t = *series.timestamps_ms.last()?;
        let v = *series.values.last()?;
        Some((t, v))
    }

    /// Returns a copy of the *retained window* of the series for `id`, if
    /// present.
    pub fn series(&self, id: &MetricId) -> Option<TimeSeries> {
        let inner = self.read();
        let found = inner.series.get(id).map(|s| s.window().to_series());
        if let Some(s) = &found {
            drop(inner);
            self.write().points_read += s.len() as u64;
        }
        found
    }

    /// The closed buckets of one downsampled tier of the series for `id`,
    /// oldest first. Empty for an unknown series, and for any series that
    /// has not yet evicted enough points to close a bucket.
    pub fn downsampled(&self, id: &MetricId, tier: DownsampleTier) -> Vec<AggregateBucket> {
        let inner = self.read();
        match inner.series.get(id) {
            None => Vec::new(),
            Some(series) => {
                let ring = match tier {
                    DownsampleTier::TenX => &series.tier1,
                    DownsampleTier::HundredX => &series.tier2,
                };
                ring.closed.iter().copied().collect()
            }
        }
    }

    /// All metric identifiers currently stored, sorted.
    pub fn metric_ids(&self) -> Vec<MetricId> {
        self.read().series.keys().cloned().collect()
    }

    /// Metric identifiers belonging to one component.
    pub fn metric_ids_of(&self, component: &str) -> Vec<MetricId> {
        let mut out = Vec::new();
        self.for_each_metric_id_of(component, |id| out.push(id.clone()));
        out
    }

    /// Names of all components that have at least one stored series.
    pub fn components(&self) -> Vec<Name> {
        let mut names = Vec::new();
        self.for_each_component(|name| names.push(name.clone()));
        names
    }

    /// Visits every component name (sorted, deduplicated) without building
    /// a `Vec`. The read lock is held for the whole traversal, so the
    /// callback must not call back into this store.
    pub fn for_each_component(&self, mut f: impl FnMut(&Name)) {
        let inner = self.read();
        let mut last: Option<&Name> = None;
        for id in inner.series.keys() {
            if last != Some(&id.component) {
                f(&id.component);
                last = Some(&id.component);
            }
        }
    }

    /// Visits the metric identifiers of one component in sorted order
    /// without building a `Vec`. The read lock is held for the whole
    /// traversal, so the callback must not call back into this store.
    pub fn for_each_metric_id_of(&self, component: &str, mut f: impl FnMut(&MetricId)) {
        let inner = self.read();
        for id in inner.series.keys() {
            if id.component == component {
                f(id);
            }
        }
    }

    /// Visits the `(id, view)` pairs of one component in sorted order
    /// without copying any series. Each view observes **only the retained
    /// window** of its series — under a bounded [`RetentionPolicy`] that is
    /// the newest `raw_capacity` points, not the full history (older points
    /// survive only as [`MetricStore::downsampled`] aggregates). Visited
    /// points count towards the read-traffic accounting exactly like
    /// [`MetricStore::series`]. The lock is held for the whole traversal,
    /// so the callback must not call back into this store.
    pub fn for_each_series_of(
        &self,
        component: &str,
        mut f: impl FnMut(&MetricId, SeriesView<'_>),
    ) {
        let mut visited_points = 0u64;
        {
            let inner = self.read();
            for (id, series) in &inner.series {
                if id.component == component {
                    visited_points += series.window_len() as u64;
                    f(id, series.window());
                }
            }
        }
        if visited_points > 0 {
            self.write().points_read += visited_points;
        }
    }

    /// Visits every stored series with the given metric name (across all
    /// components, sorted by component) without copying any series. Each
    /// view observes **only the retained window** of its series — under a
    /// bounded [`RetentionPolicy`] that is the newest `raw_capacity`
    /// points, not the full history. Visited points count towards the
    /// read-traffic accounting exactly like [`MetricStore::series`]. The
    /// lock is held for the whole traversal, so the callback must not call
    /// back into this store.
    pub fn for_each_series_named(
        &self,
        metric: &str,
        mut f: impl FnMut(&MetricId, SeriesView<'_>),
    ) {
        let mut visited_points = 0u64;
        {
            let inner = self.read();
            for (id, series) in &inner.series {
                if id.metric == metric {
                    visited_points += series.window_len() as u64;
                    f(id, series.window());
                }
            }
        }
        if visited_points > 0 {
            self.write().points_read += visited_points;
        }
    }

    /// Number of stored series.
    pub fn series_count(&self) -> usize {
        self.read().series.len()
    }

    /// Total number of points accepted since the store was created.
    /// Monotone: eviction does not decrease it (see
    /// [`MetricStore::retained_point_count`]).
    pub fn point_count(&self) -> u64 {
        self.read().points_written
    }

    /// Number of points currently retained at full resolution across all
    /// series (accepted minus evicted). Under a bounded policy this is what
    /// bounds memory.
    pub fn retained_point_count(&self) -> u64 {
        let inner = self.read();
        inner.points_written - inner.points_evicted
    }

    /// Total number of raw points evicted from retained windows so far.
    pub fn evicted_point_count(&self) -> u64 {
        self.read().points_evicted
    }

    /// Storage bytes reclaimed by eviction so far, under the store's cost
    /// model.
    pub fn evicted_bytes(&self) -> u64 {
        let inner = self.read();
        let cost = inner.cost_model.unwrap_or_default();
        (inner.points_evicted as f64 * cost.bytes_per_point) as u64
    }

    /// Exports the retained window of every series as a map (used by the
    /// Sieve pipeline).
    pub fn export(&self) -> BTreeMap<MetricId, TimeSeries> {
        self.read()
            .series
            .iter()
            .map(|(id, s)| (id.clone(), s.window().to_series()))
            .collect()
    }

    /// Resource usage of everything ingested so far under the store's cost
    /// model. CPU and network-in are cumulative ingest costs; the database
    /// size reflects what is currently held (retained raw points plus
    /// closed aggregate buckets, each bucket costing three stored values).
    pub fn resource_usage(&self) -> ResourceUsage {
        let inner = self.read();
        let cost = inner.cost_model.unwrap_or_default();
        let points = inner.points_written as f64;
        let retained = (inner.points_written - inner.points_evicted) as f64;
        let buckets: usize = inner
            .series
            .values()
            .map(|s| s.tier1.closed.len() + s.tier2.closed.len())
            .sum();
        let series = inner.series.len() as f64;
        let read_points = inner.points_read.max(inner.points_written) as f64;
        ResourceUsage {
            cpu_time_s: points * cost.cpu_s_per_point,
            db_size_kb: (retained * cost.bytes_per_point
                + buckets as f64 * 3.0 * cost.bytes_per_point
                + series * cost.bytes_per_series)
                / 1024.0,
            network_in_mb: points * cost.network_in_bytes_per_point / (1024.0 * 1024.0),
            network_out_kb: read_points * cost.network_out_bytes_per_point / 1024.0,
        }
    }

    /// Captures a complete serializable image of the store: every series'
    /// retained window, fingerprint, touched mark and downsample tiers,
    /// plus the epoch watermark, retention policy, cost model and
    /// accounting counters.
    ///
    /// Freezing holds the read lock for the duration of the copy; the
    /// image is start-normalized (window offsets are not preserved, only
    /// window *content*), which is invisible to every public API.
    pub fn freeze(&self) -> StoreState {
        let inner = self.read();
        StoreState {
            retention: inner.retention,
            cost_model: inner.cost_model,
            epoch: inner.epoch,
            points_written: inner.points_written,
            points_evicted: inner.points_evicted,
            points_read: inner.points_read,
            series: inner
                .series
                .iter()
                .map(|(id, s)| SeriesState {
                    id: id.clone(),
                    timestamps_ms: s.timestamps_ms[s.start..].to_vec(),
                    values: s.values[s.start..].to_vec(),
                    fingerprint: s.fingerprint,
                    touched: s.touched,
                    tier1: s.tier1.freeze(),
                    tier2: s.tier2.freeze(),
                })
                .collect(),
        }
    }

    /// Revives a store from a [`StoreState`] image. The restored store
    /// continues bit-identically to the frozen one: identical
    /// fingerprints, epoch watermark, pending dirt, tier contents and
    /// accounting under any subsequent sequence of operations.
    pub fn restore(state: StoreState) -> MetricStore {
        let mut series = BTreeMap::new();
        for s in state.series {
            series.insert(
                s.id,
                StoredSeries {
                    timestamps_ms: s.timestamps_ms,
                    values: s.values,
                    start: 0,
                    fingerprint: s.fingerprint,
                    touched: s.touched,
                    tier1: TierRing::thaw(s.tier1),
                    tier2: TierRing::thaw(s.tier2),
                    last_batch: 0,
                },
            );
        }
        MetricStore {
            inner: Arc::new(RwLock::new(StoreInner {
                series,
                epoch: state.epoch,
                cost_model: state.cost_model,
                retention: state.retention,
                points_written: state.points_written,
                points_evicted: state.points_evicted,
                points_read: state.points_read,
                batch_stamp: 0,
            })),
        }
    }

    /// Builds a new store containing only the series whose identifiers are
    /// in `keep`, re-ingesting their retained windows under the same cost
    /// model and retention policy. This is how the Table 3 experiment
    /// simulates "a run with the reduced metrics".
    pub fn retain_only(&self, keep: &[MetricId]) -> MetricStore {
        let (cost, retention) = {
            let inner = self.read();
            (inner.cost_model.unwrap_or_default(), inner.retention)
        };
        let reduced = MetricStore::with_cost_model(cost);
        reduced.write().retention = retention;
        for id in keep {
            let window = {
                let inner = self.read();
                inner.series.get(id).map(|s| s.window().to_series())
            };
            if let Some(series) = window {
                for (t, v) in series.iter() {
                    reduced.record(id, t, v);
                }
            }
        }
        reduced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> MetricStore {
        let store = MetricStore::new();
        for c in ["web", "db"] {
            for m in ["cpu", "mem", "requests"] {
                let id = MetricId::new(c, m);
                for t in 0..100u64 {
                    store.record(&id, t * 500, t as f64);
                }
            }
        }
        store
    }

    #[test]
    fn record_and_query_roundtrip() {
        let store = populated();
        assert_eq!(store.series_count(), 6);
        assert_eq!(store.point_count(), 600);
        let s = store.series(&MetricId::new("web", "cpu")).unwrap();
        assert_eq!(s.len(), 100);
        assert_eq!(s.values()[10], 10.0);
        assert!(store.series(&MetricId::new("web", "missing")).is_none());
    }

    #[test]
    fn last_value_returns_the_latest_observation() {
        let store = populated();
        let (t, v) = store.last_value(&MetricId::new("web", "cpu")).unwrap();
        assert_eq!(t, 99 * 500);
        assert_eq!(v, 99.0);
        assert!(store.last_value(&MetricId::new("web", "missing")).is_none());
    }

    #[test]
    fn out_of_order_points_are_dropped() {
        let store = MetricStore::new();
        let id = MetricId::new("a", "m");
        assert!(store.record(&id, 1000, 1.0));
        assert!(!store.record(&id, 500, 2.0), "out-of-order is rejected");
        assert!(store.record(&id, 1500, 3.0));
        let s = store.series(&id).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(store.point_count(), 2);
    }

    #[test]
    fn record_batch_matches_per_point_recording() {
        let a = MetricId::new("web", "cpu");
        let b = MetricId::new("db", "mem");
        let points = [
            (&a, 0u64, 1.0),
            (&a, 500, 2.0),
            (&b, 0, 3.0),
            (&a, 250, 9.0),
        ];

        let batched = MetricStore::new();
        assert_eq!(batched.record_batch(points), 3, "out-of-order dropped");

        let sequential = MetricStore::new();
        for (id, t, v) in points {
            sequential.record(id, t, v);
        }
        assert_eq!(batched.point_count(), sequential.point_count());
        assert_eq!(batched.fingerprint(&a), sequential.fingerprint(&a));
        assert_eq!(batched.fingerprint(&b), sequential.fingerprint(&b));
        assert_eq!(batched.drain_delta(), sequential.drain_delta());
    }

    #[test]
    fn metric_ids_are_filtered_by_component() {
        let store = populated();
        assert_eq!(store.metric_ids_of("web").len(), 3);
        assert_eq!(store.components(), vec!["db", "web"]);
        assert_eq!(store.metric_ids().len(), 6);
    }

    #[test]
    fn resource_usage_scales_with_points() {
        let store = populated();
        let usage = store.resource_usage();
        assert!(usage.cpu_time_s > 0.0);
        assert!(usage.db_size_kb > 0.0);
        assert!(usage.network_in_mb > 0.0);

        // A store with half the metrics uses roughly half the resources.
        let keep: Vec<MetricId> = store
            .metric_ids()
            .into_iter()
            .filter(|id| id.metric != "cpu" && id.metric != "mem")
            .collect();
        let reduced = store.retain_only(&keep);
        let reduced_usage = reduced.resource_usage();
        assert!(reduced_usage.cpu_time_s < usage.cpu_time_s);
        let savings = usage.reduction_percent(&reduced_usage);
        assert!(
            savings.cpu_time_s > 60.0,
            "cpu saving {}",
            savings.cpu_time_s
        );
        assert!(savings.db_size_kb > 50.0);
    }

    #[test]
    fn reduction_percent_handles_zero_baseline() {
        let zero = ResourceUsage::default();
        let r = zero.reduction_percent(&zero);
        assert_eq!(r.cpu_time_s, 0.0);
    }

    #[test]
    fn clones_share_the_same_data() {
        let store = MetricStore::new();
        let clone = store.clone();
        clone.record(&MetricId::new("a", "m"), 0, 1.0);
        assert_eq!(store.series_count(), 1);
    }

    #[test]
    fn export_contains_all_series() {
        let store = populated();
        let exported = store.export();
        assert_eq!(exported.len(), 6);
        assert!(exported.contains_key(&MetricId::new("db", "requests")));
    }

    #[test]
    fn metric_id_display_is_readable() {
        assert_eq!(MetricId::new("web", "cpu").to_string(), "web/cpu");
    }

    #[test]
    fn metric_id_clones_share_interned_names() {
        let a = MetricId::new("web", "cpu");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.component.as_str(), "web");
    }

    #[test]
    fn drain_delta_reports_touched_series_and_advances_the_watermark() {
        let store = MetricStore::new();
        assert_eq!(store.epoch(), 0);
        let a = MetricId::new("web", "cpu");
        let b = MetricId::new("db", "mem");
        store.record(&a, 0, 1.0);
        store.record(&b, 0, 2.0);
        store.record(&a, 500, 3.0);

        let delta = store.drain_delta();
        assert_eq!(delta.epoch, 1);
        assert_eq!(store.epoch(), 1);
        // Sorted by MetricId, each series once no matter how many points.
        assert_eq!(delta.touched, vec![b.clone(), a.clone()]);
        assert_eq!(delta.touched_components(), vec!["db", "web"]);

        // Nothing new: the delta is empty but the watermark still advances.
        let empty = store.drain_delta();
        assert!(empty.is_empty());
        assert_eq!(empty.epoch, 2);

        // A dropped out-of-order point does not touch the series.
        store.record(&a, 100, 9.0);
        assert!(store.drain_delta().is_empty());
        store.record(&a, 1000, 9.0);
        let next = store.drain_delta();
        assert_eq!(next.touched, vec![a]);
        assert_eq!(next.epoch, 4);
    }

    #[test]
    fn fingerprints_track_accepted_content_only() {
        let store = MetricStore::new();
        let id = MetricId::new("web", "cpu");
        assert_eq!(store.fingerprint(&id), None);
        store.record(&id, 0, 1.0);
        let fp1 = store.fingerprint(&id).unwrap();
        store.record(&id, 500, 2.0);
        let fp2 = store.fingerprint(&id).unwrap();
        assert_ne!(fp1, fp2, "an accepted point changes the fingerprint");
        // A dropped point leaves the fingerprint unchanged.
        store.record(&id, 250, 7.0);
        assert_eq!(store.fingerprint(&id), Some(fp2));

        // Same accepted content in another store yields the same fingerprint.
        let other = MetricStore::new();
        other.record(&id, 0, 1.0);
        other.record(&id, 500, 2.0);
        assert_eq!(other.fingerprint(&id), Some(fp2));

        // Same timestamps, different value: different fingerprint.
        let third = MetricStore::new();
        third.record(&id, 0, 1.0);
        third.record(&id, 500, 2.5);
        assert_ne!(third.fingerprint(&id), Some(fp2));
    }

    #[test]
    fn retain_only_preserves_fingerprints_of_kept_series() {
        let store = populated();
        let keep = vec![MetricId::new("web", "cpu")];
        let reduced = store.retain_only(&keep);
        assert_eq!(
            reduced.fingerprint(&keep[0]),
            store.fingerprint(&keep[0]),
            "fingerprints are pure functions of the accepted point sequence"
        );
        assert_eq!(reduced.fingerprint(&MetricId::new("web", "mem")), None);
    }

    #[test]
    fn visitors_match_the_allocating_accessors() {
        let store = populated();
        let mut visited = Vec::new();
        store.for_each_component(|c| visited.push(c.clone()));
        assert_eq!(visited, store.components());

        let mut ids = Vec::new();
        store.for_each_metric_id_of("db", |id| ids.push(id.clone()));
        assert_eq!(ids, store.metric_ids_of("db"));
        assert_eq!(ids.len(), 3);

        let mut seen = 0;
        store.for_each_series_of("web", |id, series| {
            assert_eq!(id.component, "web");
            assert_eq!(series.len(), 100);
            seen += 1;
        });
        assert_eq!(seen, 3);
        // No series for an unknown component.
        store.for_each_series_of("nope", |_, _| panic!("must not be called"));
    }

    #[test]
    fn windowed_store_retains_exactly_the_newest_points() {
        let store = MetricStore::with_retention(RetentionPolicy::windowed(10));
        let id = MetricId::new("web", "cpu");
        for t in 0..25u64 {
            store.record(&id, t * 500, t as f64);
        }
        let s = store.series(&id).unwrap();
        assert_eq!(s.len(), 10);
        assert_eq!(s.timestamps()[0], 15 * 500, "oldest retained point");
        assert_eq!(s.values()[9], 24.0, "newest point is never evicted");
        assert_eq!(store.point_count(), 25, "accepted count is cumulative");
        assert_eq!(store.retained_point_count(), 10);
        assert_eq!(store.evicted_point_count(), 15);
        assert!(store.evicted_bytes() > 0);
        // The retained window equals the exact tail of an unbounded oracle.
        let oracle = MetricStore::new();
        for t in 0..25u64 {
            oracle.record(&id, t * 500, t as f64);
        }
        let full = oracle.series(&id).unwrap();
        assert_eq!(s.timestamps(), &full.timestamps()[15..]);
        assert_eq!(s.values(), &full.values()[15..]);
    }

    #[test]
    fn downsampled_tiers_summarize_evicted_points() {
        let policy = RetentionPolicy::windowed(1).with_tier_capacity(16);
        let store = MetricStore::with_retention(policy);
        let id = MetricId::new("web", "cpu");
        // 21 points with capacity 1: exactly 20 evictions = 2 full tier-1
        // buckets; tier 2 needs 10 tier-1 evictions, so it is still open.
        for t in 0..21u64 {
            store.record(&id, t * 500, t as f64);
        }
        let tier1 = store.downsampled(&id, DownsampleTier::TenX);
        assert_eq!(tier1.len(), 2);
        assert_eq!(tier1[0].count, 10);
        assert_eq!(tier1[0].start_ms, 0);
        assert_eq!(tier1[0].end_ms, 9 * 500);
        assert!((tier1[0].mean - 4.5).abs() < 1e-12);
        assert_eq!(tier1[0].min, 0.0);
        assert_eq!(tier1[0].max, 9.0);
        assert!((tier1[1].mean - 14.5).abs() < 1e-12);
        assert!(store.downsampled(&id, DownsampleTier::HundredX).is_empty());
        assert!(store
            .downsampled(&MetricId::new("no", "pe"), DownsampleTier::TenX)
            .is_empty());
    }

    #[test]
    fn tier_two_cascades_from_tier_one_overflow() {
        // Tier capacity 1: each tier-1 close past the first pushes the
        // previous bucket off the ring and into tier 2, which closes after
        // 10 such cascades = 11 tier-1 closes = 110 evictions = 111 points.
        let policy = RetentionPolicy::windowed(1).with_tier_capacity(1);
        let store = MetricStore::with_retention(policy);
        let id = MetricId::new("web", "cpu");
        for t in 0..112u64 {
            store.record(&id, t * 500, t as f64);
        }
        let tier2 = store.downsampled(&id, DownsampleTier::HundredX);
        assert_eq!(tier2.len(), 1);
        assert_eq!(tier2[0].count, 100);
        // The first 10 tier-1 buckets cover points 0..100, so the mean of
        // their means is the true mean of 0..=99.
        assert!((tier2[0].mean - 49.5).abs() < 1e-12);
        assert_eq!(tier2[0].min, 0.0);
        assert_eq!(tier2[0].max, 99.0);
    }

    #[test]
    fn eviction_advances_fingerprint_and_marks_touched() {
        let id = MetricId::new("web", "cpu");
        let windowed = MetricStore::with_retention(RetentionPolicy::windowed(5));
        let oracle = MetricStore::new();
        for t in 0..5u64 {
            windowed.record(&id, t * 500, t as f64);
            oracle.record(&id, t * 500, t as f64);
        }
        assert_eq!(
            windowed.fingerprint(&id),
            oracle.fingerprint(&id),
            "no eviction yet: identical to the unbounded oracle"
        );
        windowed.record(&id, 5 * 500, 5.0);
        oracle.record(&id, 5 * 500, 5.0);
        assert_ne!(
            windowed.fingerprint(&id),
            oracle.fingerprint(&id),
            "first eviction diverges the fingerprint"
        );
    }

    #[test]
    fn set_retention_trims_and_dirties_like_any_other_write() {
        let store = populated();
        store.drain_delta();
        assert!(store.drain_delta().is_empty(), "quiescent before the trim");

        let before = store.fingerprint(&MetricId::new("web", "cpu")).unwrap();
        store.set_retention(RetentionPolicy::windowed(10));
        let delta = store.drain_delta();
        assert_eq!(delta.touched.len(), 6, "every trimmed series is dirty");
        assert_eq!(store.retained_point_count(), 60);
        assert_eq!(store.evicted_point_count(), 540);
        let after = store.fingerprint(&MetricId::new("web", "cpu")).unwrap();
        assert_ne!(before, after, "trimming advances the fingerprint");

        let s = store.series(&MetricId::new("db", "mem")).unwrap();
        assert_eq!(s.len(), 10);
        assert_eq!(s.values()[0], 90.0);

        // Loosening afterwards changes nothing retroactively.
        store.set_retention(RetentionPolicy::unbounded());
        assert!(store.drain_delta().is_empty());
        assert_eq!(store.retained_point_count(), 60);
    }

    #[test]
    fn windowed_ingestion_bounds_physical_memory() {
        // White-box: after many evictions the backing buffers must have
        // been compacted — the window start can never exceed the capacity.
        let store = MetricStore::with_retention(RetentionPolicy::windowed(8));
        let id = MetricId::new("web", "cpu");
        for t in 0..10_000u64 {
            store.record(&id, t, t as f64);
        }
        let inner = store.read();
        let series = inner.series.get(&id).unwrap();
        assert!(
            series.start < 8,
            "start {} must stay below cap",
            series.start
        );
        assert!(
            series.values.len() <= 16,
            "physical length {} must stay below twice the cap",
            series.values.len()
        );
        assert_eq!(series.window_len(), 8);
    }

    #[test]
    fn non_finite_values_are_rejected_without_side_effects() {
        let store = MetricStore::new();
        let id = MetricId::new("web", "cpu");
        assert!(!store.record(&id, 0, f64::NAN), "NaN is rejected");
        assert_eq!(store.series_count(), 0, "no empty series materializes");
        assert!(store.record(&id, 0, 1.0));
        let fp = store.fingerprint(&id);
        assert!(!store.record(&id, 500, f64::INFINITY));
        assert!(!store.record(&id, 500, f64::NEG_INFINITY));
        assert_eq!(store.fingerprint(&id), fp, "rejections leave no trace");
        assert_eq!(store.point_count(), 1);
        // The timestamp a non-finite point carried stays available.
        assert!(store.record(&id, 500, 2.0));
    }

    #[test]
    fn record_batch_detailed_reports_reasons_and_watermarks() {
        let a = MetricId::new("web", "cpu");
        let b = MetricId::new("db", "mem");
        let store = MetricStore::new();
        store.record(&a, 0, 1.0);
        let outcome = store.record_batch_detailed([
            (&a, 500, 2.0),
            (&a, 250, 9.0),    // non-monotone
            (&b, 0, f64::NAN), // non-finite
            (&b, 0, 3.0),
            (&a, 500, 4.0), // duplicate timestamp
        ]);
        assert_eq!(outcome.accepted, 2);
        assert_eq!(
            outcome.rejected,
            vec![
                (1, RejectReason::NonMonotoneTimestamp),
                (2, RejectReason::NonFiniteValue),
                (4, RejectReason::NonMonotoneTimestamp),
            ]
        );
        // Watermarks are the live post-apply fingerprints, sorted by id.
        assert_eq!(
            outcome.watermarks,
            vec![
                (b.clone(), store.fingerprint(&b).unwrap()),
                (a.clone(), store.fingerprint(&a).unwrap()),
            ]
        );

        // A batch with no accepted points reports no watermarks.
        let empty = store.record_batch_detailed([(&a, 100, 1.0)]);
        assert_eq!(empty.accepted, 0);
        assert!(empty.watermarks.is_empty());
    }

    #[test]
    fn verified_apply_agrees_with_the_detailed_oracle_for_any_expected_list() {
        use sieve_exec::hash::splitmix64;
        // Property: `record_batch_verified(points, expected)` applies iff
        // `record_batch_detailed(points)` on a copy of the store reports
        // exactly `expected` — across retention policies, repeated series,
        // stale timestamps, non-finite values and eviction boundaries, for
        // the true list and five kinds of wrong one.
        const KINDS: usize = 6;
        let (mut applied, mut refused) = ([0usize; KINDS], [0usize; KINDS]);
        for (round, policy) in [
            RetentionPolicy::unbounded(),
            RetentionPolicy::windowed(7),
            RetentionPolicy::windowed(1).with_tier_capacity(3),
        ]
        .into_iter()
        .enumerate()
        {
            let store = MetricStore::with_retention(policy);
            let ids = [
                MetricId::new("web", "cpu"),
                MetricId::new("web", "mem"),
                MetricId::new("db", "cpu"),
                MetricId::new("db", "mem"),
            ];
            let mut state = 0x9E37_79B9 + round as u64;
            let mut rand = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                splitmix64(state)
            };
            for step in 0..120 {
                let mut batch = Vec::new();
                for _ in 0..(rand() % 20) {
                    let id = &ids[(rand() % 4) as usize];
                    // Half a batch's span overlaps the previous batch's.
                    let t = (step * 5 + rand() % 10) * 500;
                    let v = match rand() % 11 {
                        0 => f64::NAN,
                        1 => f64::NEG_INFINITY,
                        _ => (rand() % 1000) as f64 / 10.0,
                    };
                    batch.push((id, t, v));
                }
                let before = store.freeze();
                let copy = MetricStore::restore(before.clone());
                let outcome = copy.record_batch_detailed(batch.iter().copied());
                let truth = outcome.watermarks;

                let kind = (step % KINDS as u64) as usize;
                let at = |r: u64, len: usize| (r % len.max(1) as u64) as usize;
                let mut expected = truth.clone();
                match kind {
                    0 => {}
                    1 if !expected.is_empty() => {
                        let entry = at(rand(), expected.len());
                        expected[entry].1 ^= 1 << (rand() % 64);
                    }
                    2 if !expected.is_empty() => {
                        expected.remove(at(rand(), expected.len()));
                    }
                    3 => {
                        // A series the batch leaves alone, in sorted place
                        // with its live fingerprint.
                        let unlisted = ids.iter().find(|id| truth.iter().all(|(t, _)| t != *id));
                        if let Some(id) = unlisted {
                            let fingerprint = store.fingerprint(id).unwrap_or(FINGERPRINT_SEED);
                            expected.push((id.clone(), fingerprint));
                            expected.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                        }
                    }
                    4 if expected.len() > 1 => {
                        let entry = at(rand(), expected.len() - 1);
                        expected.swap(entry, entry + 1);
                    }
                    5 if !expected.is_empty() => {
                        let entry = at(rand(), expected.len());
                        expected.insert(entry, expected[entry].clone());
                    }
                    _ => {}
                }

                let verdict = store.record_batch_verified(batch.iter().copied(), &expected);
                assert_eq!(
                    verdict.is_some(),
                    expected == truth,
                    "round {round} step {step} kind {kind}: {expected:?} vs {truth:?}"
                );
                match verdict {
                    Some(accepted) => {
                        applied[kind] += 1;
                        assert_eq!(accepted, outcome.accepted);
                    }
                    None => {
                        refused[kind] += 1;
                        assert_eq!(store.freeze(), before, "a refusal leaves no trace");
                        // Keep the stream moving: the true list applies.
                        let accepted = store.record_batch_verified(batch.iter().copied(), &truth);
                        assert_eq!(accepted, Some(outcome.accepted));
                    }
                }
                assert_eq!(store.freeze(), copy.freeze(), "verified apply == detailed");
            }
        }
        // Not vacuous: the true list always applies, and every kind of wrong
        // list was refused many times.
        assert_eq!((applied[0], refused[0]), (60, 0));
        assert!(refused[1..].iter().all(|&n| n >= 30), "{refused:?}");
    }

    #[test]
    fn restored_store_continues_bit_identically() {
        let id = MetricId::new("web", "cpu");
        let policy = RetentionPolicy::windowed(5).with_tier_capacity(4);
        let live = MetricStore::with_retention(policy);
        for t in 0..37u64 {
            live.record(&id, t * 500, t as f64);
        }
        live.drain_delta();
        live.record(&id, 37 * 500, 37.0); // leave the series dirty

        let restored = MetricStore::restore(live.freeze());
        assert_eq!(restored.epoch(), live.epoch());
        assert_eq!(restored.fingerprint(&id), live.fingerprint(&id));
        assert_eq!(restored.retained_point_count(), live.retained_point_count());
        assert_eq!(restored.evicted_point_count(), live.evicted_point_count());
        assert_eq!(restored.retention(), live.retention());
        assert_eq!(
            restored.downsampled(&id, DownsampleTier::TenX),
            live.downsampled(&id, DownsampleTier::TenX)
        );

        // The frozen dirty mark survives: both report the series touched.
        assert_eq!(restored.drain_delta(), live.drain_delta());

        // Continuing the stream on both sides stays bit-identical — the
        // open tier accumulators were captured mid-bucket.
        for t in 38..80u64 {
            assert!(live.record(&id, t * 500, (t % 13) as f64));
            assert!(restored.record(&id, t * 500, (t % 13) as f64));
        }
        assert_eq!(restored.fingerprint(&id), live.fingerprint(&id));
        assert_eq!(
            restored.downsampled(&id, DownsampleTier::TenX),
            live.downsampled(&id, DownsampleTier::TenX)
        );
        assert_eq!(
            restored.downsampled(&id, DownsampleTier::HundredX),
            live.downsampled(&id, DownsampleTier::HundredX)
        );
        assert_eq!(
            restored.series(&id).unwrap().values(),
            live.series(&id).unwrap().values()
        );
        assert_eq!(restored.freeze(), live.freeze());
    }

    #[test]
    fn windowed_db_size_is_flat_under_sustained_ingest() {
        let store = MetricStore::with_retention(RetentionPolicy::windowed(16));
        let id = MetricId::new("web", "cpu");
        for t in 0..2_000u64 {
            store.record(&id, t, t as f64);
        }
        let mid = store.resource_usage().db_size_kb;
        for t in 2_000..4_000u64 {
            store.record(&id, t, t as f64);
        }
        let later = store.resource_usage().db_size_kb;
        assert_eq!(mid, later, "retained + tier footprint reaches steady state");
    }
}
