//! The metric store: the InfluxDB/Telegraf stand-in that holds every
//! recorded time series, and nothing else. What monitoring *costs* (Table 3)
//! is not the store's business: the experiment prices
//! [`MetricStore::point_count`] and [`MetricStore::series_count`] in
//! `sieve_bench::table3`.
//!
//! Series are keyed by [`MetricId`], a pair of interned [`Name`]s, and held
//! once each, in id order. The hot ingestion path (`record` runs once per
//! metric per simulation tick) finds a point's series by one probe keyed on
//! the addresses of its two names ([`Name::addr`]) and compares no string:
//! only placing a new series does, once.
//!
//! # Epochs and deltas
//!
//! The store is the source of truth for the incremental analysis path:
//! every accepted point advances the series' running *content fingerprint*
//! (a deterministic 64-bit hash of the accepted `(timestamp, value)`
//! sequence) and marks the series as touched.
//! The fingerprint is a chain of one-multiply [`fold_word`] steps, three
//! per point at most (the timestamp, the value's bits and an eviction
//! tag): it keys no cache — the analysis session fingerprints the series it
//! prepares itself — and its one job is to let a replayed log prove it
//! rebuilt the store it was written against (a snapshot holds each series'
//! fingerprint, and a logged batch one digest of those it touched).
//! [`MetricStore::drain_delta`] snapshots the touched set, clears it, and
//! advances a monotone *epoch watermark* — so a streaming consumer (one per
//! store) can ask "what changed since I last looked?" instead of re-reading
//! the world. Fingerprints are pure functions of the accepted point
//! sequence *and* the eviction history: two series fed the same stream
//! under the same [`RetentionPolicy`] always carry the same fingerprint,
//! regardless of which store recorded them.
//!
//! # Bounded memory: ring windows
//!
//! By default a store is unbounded and keeps every accepted point forever —
//! the right mode for offline experiments, and the *oracle* that the
//! windowed mode is property-tested against. Under a bounded
//! [`RetentionPolicy`], each series keeps only the newest
//! `raw_capacity` points, and an evicted point is forgotten. The retained
//! window lives as a contiguous suffix of a slack buffer (logical start
//! offset + amortized compaction), so reads hand out zero-copy
//! [`SeriesView`]s and physical memory never exceeds twice the capacity
//! between batches (a replayed batch compacts once its verdict is in, so
//! while it applies a series may hold its points on top of that).
//!
//! Eviction participates in the epoch machinery exactly like ingestion:
//! each evicted point advances the series fingerprint (with a dedicated
//! eviction tag) and marks the series touched, so the analysis session
//! treats a trimmed series like any other dirty one. Given the same
//! retained window, windowed and unbounded stores produce bit-identical
//! analysis results; they diverge — deterministically — only once the
//! analysis window no longer fits inside retention.
//!
//! # What a store may hold
//!
//! A store holds what ingest could have built, and the rule for that is
//! stated once, as [`StoreState::validate`]: ids strictly ascending, as
//! many values as timestamps, every point past the gate ingest runs (a
//! finite value, strictly newer than the one before), no window longer
//! than the capacity, and windows that sum to the points written less
//! those evicted. A capacity is never zero ([`RetentionPolicy`] cannot
//! hold one). Ingest keeps the rule point by point; an image read back
//! from disk is checked against it where it is decoded, so
//! [`MetricStore::restore`] trusts its input and repairs nothing.

use sieve_exec::hash::{addr_pair_hash, fold_word, FINGERPRINT_SEED};
use sieve_exec::Name;
use sieve_timeseries::{SeriesView, TimeSeries};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
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

/// How much history each series of a store retains.
///
/// The default ([`RetentionPolicy::unbounded`]) keeps every accepted point
/// forever — the oracle mode used by offline experiments and by the
/// property suite that validates the windowed mode. A bounded policy
/// ([`RetentionPolicy::windowed`]) keeps the newest
/// [`raw_capacity`](RetentionPolicy::raw_capacity) points per series; an
/// evicted point is forgotten. A capacity is never zero: no policy that
/// would evict every point it accepts can be built.
///
/// Eviction is count-based and happens on the ingestion path: the moment an
/// accepted point would push a series past its capacity, exactly the oldest
/// retained point is evicted. The retained window and the series
/// fingerprint are therefore deterministic pure functions of
/// `(policy, accepted stream)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    raw_capacity: Option<NonZeroUsize>,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl RetentionPolicy {
    /// Keep everything (the default, and the determinism oracle).
    pub fn unbounded() -> Self {
        Self { raw_capacity: None }
    }

    /// Keep the newest `raw_capacity` raw points per series.
    ///
    /// # Panics
    ///
    /// Panics if `raw_capacity` is zero.
    pub fn windowed(raw_capacity: usize) -> Self {
        let raw_capacity = NonZeroUsize::new(raw_capacity).expect("raw_capacity must be positive");
        Self {
            raw_capacity: Some(raw_capacity),
        }
    }

    /// Maximum raw points retained per series; `None` means unbounded.
    pub fn raw_capacity(&self) -> Option<usize> {
        self.raw_capacity.map(NonZeroUsize::get)
    }

    /// Whether this policy evicts at all.
    pub fn is_bounded(&self) -> bool {
        self.raw_capacity.is_some()
    }
}

/// Why the ingestion path dropped a point.
///
/// The detailed batch API ([`MetricStore::record_batch_detailed_into`]) reports
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

/// What one [`MetricStore::record_batch_detailed_into`] call did, point by
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
    /// point in this batch, and the store's series count before it.
    pub watermarks: Watermarks,
}

/// The watermark list of one detailed batch, with the series count that
/// makes its places meaningful.
///
/// Series are never removed from a store, and a log spells the id of every
/// series a batch creates, so two stores that hold as many series after
/// replaying the same log hold the same series, in the same order: a place
/// names one series in both.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Watermarks {
    /// Series the store held before the batch.
    pub series_before: usize,
    /// One entry per series that accepted a point, sorted by [`MetricId`].
    pub list: Vec<Watermark>,
}

impl Watermarks {
    /// The batch digest of the list: its fingerprints folded in list order,
    /// one [`fold_word`] each from a fixed seed. A log stores this one word
    /// for the whole list, and [`MetricStore::record_batch_verified`]
    /// checks it.
    pub fn digest(&self) -> u64 {
        batch_digest(self.list.iter().map(|watermark| watermark.fingerprint))
    }
}

/// Seed of a batch digest ("SIEVEDIG" in ASCII).
const DIGEST_SEED: u64 = 0x5349_4556_4544_4947;

/// The one batch digest: `fingerprints` folded in order, one
/// [`fold_word`] each, from a fixed seed. Each step is a bijection of the
/// fingerprint it takes, so a list that differs from another in one
/// fingerprint has another digest; lists that differ in more (two swapped,
/// say) share a digest with a chance of about 2⁻⁶⁴.
fn batch_digest(fingerprints: impl IntoIterator<Item = u64>) -> u64 {
    fingerprints.into_iter().fold(DIGEST_SEED, fold_word)
}

/// One series' watermark: its post-apply fingerprint, and its place in the
/// store before the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Watermark {
    /// The series.
    pub id: MetricId,
    /// The series' index in the store's id order before the batch; `None`
    /// for a series the batch created, or one whose index does not fit a
    /// `u32`.
    pub place: Option<u32>,
    /// The series' fingerprint after the batch.
    pub fingerprint: u64,
}

impl Watermark {
    fn of(series: &StoredSeries, place: Option<u32>) -> Self {
        Self {
            id: series.id.clone(),
            place,
            fingerprint: series.fingerprint,
        }
    }
}

/// How a logged watermark names its series: by its place in the store
/// the batch applied to (see [`Watermarks`]), or spelled out by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Named<Id> {
    /// The series' index in the store's id order before the batch.
    Placed(u32),
    /// The series' id.
    Spelled(Id),
}

/// Serializable image of one frozen series: the retained window
/// (start-normalized), the running fingerprint and the dirty mark.
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
}

/// A complete serializable image of a [`MetricStore`], as captured by
/// [`MetricStore::freeze`] and revived by [`MetricStore::restore`].
///
/// The image is exact: a restored store continues bit-identically to the
/// frozen one — same windows, same fingerprints, same epoch watermark,
/// same pending dirt, same written/evicted counters. This is what a
/// durability snapshot persists per tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreState {
    /// Retention policy at freeze time.
    pub retention: RetentionPolicy,
    /// Epoch watermark at freeze time.
    pub epoch: u64,
    /// Cumulative accepted-point count.
    pub points_written: u64,
    /// Cumulative evicted-point count.
    pub points_evicted: u64,
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

/// An in-memory, thread-safe time-series store with an optional
/// bounded-memory [`RetentionPolicy`].
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
    /// Every stored series, in [`MetricId`] order: the ordered readers walk
    /// it as it is.
    series: Vec<StoredSeries>,
    /// The position of each stored series in `series`.
    index: SeriesIndex,
    /// Monotone watermark: the number of deltas drained so far.
    epoch: u64,
    retention: RetentionPolicy,
    points_written: u64,
    points_evicted: u64,
    /// Monotone stamp handed to each detailed batch, so per-batch
    /// "first touch of this series" detection is a field compare instead
    /// of a set insertion (transient — never serialized).
    batch_stamp: u64,
    /// The positions of the series the current detailed batch touched,
    /// empty between batches (transient — never serialized).
    batch_touched: Vec<usize>,
    /// One slot per listed series of the batch
    /// [`MetricStore::record_batch_verified`] is applying, kept so a
    /// replayed batch allocates nothing once it is warm (transient — never
    /// serialized).
    verify: Vec<Slot>,
}

/// The store's one lookup rule: the position of each series in the
/// id-ordered `Vec`, keyed by the [`Name::addr`] of its id's two names —
/// open addressing with linear probing, at most half full.
///
/// The store keeps every id it keyed alive, so by [`Name::addr`]'s
/// argument a probe with an id equal to a stored one meets that series'
/// cell, and a probe that meets an empty cell first names a series the
/// store does not hold. Either way no byte of a name is compared.
#[derive(Debug, Default)]
struct SeriesIndex {
    /// A power of two in length once anything is stored. An empty cell's
    /// component address is zero, which no allocation has.
    cells: Vec<IndexCell>,
    /// 64 less the bits of the cell count.
    shift: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct IndexCell {
    key: (usize, usize),
    at: usize,
}

impl SeriesIndex {
    fn key(id: &MetricId) -> (usize, usize) {
        (id.component.addr(), id.metric.addr())
    }

    /// The position of `id`'s series, if the store holds one.
    fn get(&self, id: &MetricId) -> Option<usize> {
        if self.cells.is_empty() {
            return None;
        }
        let key = Self::key(id);
        let mut probe = self.home(key);
        loop {
            let cell = self.cells[probe];
            if cell.key == key {
                return Some(cell.at);
            }
            if cell.key.0 == 0 {
                return None;
            }
            probe = (probe + 1) & (self.cells.len() - 1);
        }
    }

    /// Indexes `series[at]`, just inserted there: the series after it
    /// each moved one place on.
    fn insert(&mut self, series: &[StoredSeries], at: usize) {
        if 2 * series.len() > self.cells.len() {
            self.rebuild(series);
            return;
        }
        if at + 1 < series.len() {
            // An empty cell's `at` is never read, so it may move too.
            for cell in &mut self.cells {
                cell.at += usize::from(cell.at >= at);
            }
        }
        self.put(Self::key(&series[at].id), at);
    }

    /// Re-indexes all of `series` in a table twice its length (rounded up
    /// to a power of two).
    fn rebuild(&mut self, series: &[StoredSeries]) {
        let cells = (2 * series.len()).next_power_of_two().max(8);
        self.cells.clear();
        self.cells.resize(cells, IndexCell::default());
        self.shift = 64 - cells.trailing_zeros();
        for (at, stored) in series.iter().enumerate() {
            self.put(Self::key(&stored.id), at);
        }
    }

    /// Writes `key` into the first empty cell of its probe sequence.
    fn put(&mut self, key: (usize, usize), at: usize) {
        let mut probe = self.home(key);
        while self.cells[probe].key.0 != 0 {
            probe = (probe + 1) & (self.cells.len() - 1);
        }
        self.cells[probe] = IndexCell { key, at };
    }

    /// The first cell to probe for `key`.
    fn home(&self, (component, metric): (usize, usize)) -> usize {
        (addr_pair_hash(component, metric) >> self.shift) as usize
    }
}

/// What the store's acceptance rule reads and advances of one series: its
/// newest timestamp, its content fingerprint and its retained window's
/// length.
#[derive(Debug, Clone, Copy)]
struct Head {
    last_ts: Option<u64>,
    fingerprint: u64,
    window_len: usize,
}

impl Head {
    /// The head of a series that holds no point yet.
    const EMPTY: Self = Self {
        last_ts: None,
        fingerprint: FINGERPRINT_SEED,
        window_len: 0,
    };

    /// The store's one acceptance rule, which live ingest and the
    /// verified apply of [`MetricStore::record_batch_verified`] both run: a
    /// point must pass [`admit`]; an accepted point extends the fingerprint
    /// and the window, and a window that outgrows `raw_capacity` evicts its
    /// oldest point.
    fn accept(
        &mut self,
        timestamp_ms: u64,
        value: f64,
        raw_capacity: Option<usize>,
    ) -> Result<(), RejectReason> {
        admit(self.last_ts, timestamp_ms, value)?;
        self.last_ts = Some(timestamp_ms);
        self.fingerprint = extend_fingerprint(self.fingerprint, timestamp_ms, value);
        self.window_len += 1;
        if raw_capacity.is_some_and(|cap| self.window_len > cap) {
            self.evict();
        }
        Ok(())
    }

    /// What evicting the window's oldest point does to the head, on ingest
    /// and on a retention trim alike: the fingerprint mixes in the eviction
    /// tag and the window shrinks by one.
    fn evict(&mut self) {
        self.fingerprint = fold_word(self.fingerprint, EVICTION_TAG);
        self.window_len -= 1;
    }
}

/// The gate every stored point passes, on ingest ([`Head::accept`]) and in
/// an image ([`StoreState::validate`]) alike: a non-finite value is
/// refused, then a timestamp not strictly newer than its series' last,
/// `last_ts`.
fn admit(last_ts: Option<u64>, timestamp_ms: u64, value: f64) -> Result<(), RejectReason> {
    if !value.is_finite() {
        return Err(RejectReason::NonFiniteValue);
    }
    if last_ts.is_some_and(|last| timestamp_ms <= last) {
        return Err(RejectReason::NonMonotoneTimestamp);
    }
    Ok(())
}

impl StoreState {
    /// The one rule of what a store may hold: whether ingest could have
    /// built this image. Every image [`MetricStore::freeze`] takes holds
    /// it, and an image read back from disk is held to it before
    /// [`MetricStore::restore`] trusts it:
    ///
    /// - the series' ids ascend strictly;
    /// - each series holds as many values as timestamps;
    /// - each point passes the gate ingest runs (`admit`): a finite
    ///   value, at a timestamp strictly newer than the one before it;
    /// - no window is longer than the retention's capacity;
    /// - the windows hold `points_written − points_evicted` points in all.
    ///
    /// # Errors
    ///
    /// The first clause the image breaks, and where.
    pub fn validate(&self) -> Result<(), String> {
        let capacity = self.retention.raw_capacity();
        let mut retained = 0u64;
        let mut previous: Option<&MetricId> = None;
        for series in &self.series {
            let id = &series.id;
            if let Some(before) = previous.filter(|&before| before >= id) {
                return Err(format!("ids not strictly ascending: {id} after {before}"));
            }
            previous = Some(id);
            let len = series.timestamps_ms.len();
            if series.values.len() != len {
                let values = series.values.len();
                return Err(format!("{id}: {len} timestamps but {values} values"));
            }
            let mut last_ts = None;
            for (&timestamp_ms, &value) in series.timestamps_ms.iter().zip(&series.values) {
                if let Err(reason) = admit(last_ts, timestamp_ms, value) {
                    return Err(format!("{id}: {reason} at {timestamp_ms}"));
                }
                last_ts = Some(timestamp_ms);
            }
            if let Some(cap) = capacity.filter(|&cap| len > cap) {
                return Err(format!("{id}: a window of {len} past the capacity {cap}"));
            }
            retained += len as u64;
        }
        let (written, evicted) = (self.points_written, self.points_evicted);
        if written.checked_sub(evicted) != Some(retained) {
            return Err(format!(
                "windows of {retained} points in all, but {written} written less {evicted} evicted"
            ));
        }
        Ok(())
    }
}

/// What [`MetricStore::record_batch_verified`] knows about one listed
/// series mid-batch: where it is, its head advanced by the points accepted
/// so far, and what undoes the batch on it. The store's own fingerprint,
/// touched mark and window start of the series are written only once the
/// batch is accepted, so undoing a refused batch is cutting the series
/// back to its length before the batch, or removing it if the batch
/// created it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The series' position in the store, once the batch has placed the
    /// series it creates.
    at: usize,
    head: Head,
    accepted: usize,
    /// How many points the series' buffers held before the batch.
    len_before: usize,
    /// Whether the batch created the series.
    created: bool,
}

impl StoreInner {
    /// The one ingestion path: finds the point's series by one probe of
    /// the address index (a miss means a new series), runs the acceptance
    /// step on its head and, on acceptance, appends the observation, stores
    /// the head's fingerprint, sets the touched mark and evicts exactly the
    /// oldest retained point when the window overflows. Returns the
    /// series' position, or why the point was dropped.
    ///
    /// A series entry is created only for an accepted point, so a rejected
    /// first point never materializes an empty series.
    fn record_one(
        &mut self,
        id: &MetricId,
        timestamp_ms: u64,
        value: f64,
    ) -> Result<usize, RejectReason> {
        let retention = self.retention;
        let found = self.index.get(id);
        let mut head = found.map_or(Head::EMPTY, |at| self.series[at].head());
        head.accept(timestamp_ms, value, retention.raw_capacity())?;
        // The id is cloned only for a series' first point.
        let at = found.unwrap_or_else(|| self.insert(StoredSeries::new(id.clone())));
        let series = &mut self.series[at];
        series.fingerprint = head.fingerprint;
        series.touched = true;
        self.points_written += 1;
        if series.append(timestamp_ms, value, retention) {
            self.points_evicted += 1;
        }
        Ok(at)
    }

    /// The series of `id`, if the store holds one.
    fn get(&self, id: &MetricId) -> Option<&StoredSeries> {
        self.index.get(id).map(|at| &self.series[at])
    }

    /// Stores `series`, whose id the store does not hold, at its place in
    /// id order and returns that place. The series after it each move one
    /// place on, in the index and in the current detailed batch alike. This
    /// is the one step that compares names, once per new series.
    fn insert(&mut self, series: StoredSeries) -> usize {
        let at = match self.series.last() {
            Some(last) if last.id > series.id => {
                self.series.partition_point(|stored| stored.id < series.id)
            }
            _ => self.series.len(),
        };
        self.series.insert(at, series);
        self.index.insert(&self.series, at);
        for touched in &mut self.batch_touched {
            *touched += usize::from(*touched >= at);
        }
        at
    }

    /// Undoes what a refused [`MetricStore::record_batch_verified`] wrote:
    /// each listed series the batch created is removed, and each other one
    /// cut back to the points it held before. The series come off last
    /// first, so a removal moves none still to undo; the index is rebuilt
    /// only if a series was removed.
    fn undo_verified(&mut self) {
        let mut removed = false;
        for slot in self.verify.iter().rev() {
            if slot.created {
                self.series.remove(slot.at);
                removed = true;
            } else {
                let series = &mut self.series[slot.at];
                series.timestamps_ms.truncate(slot.len_before);
                series.values.truncate(slot.len_before);
            }
        }
        if removed {
            self.index.rebuild(&self.series);
        }
    }
}

/// One stored series — its id, its points and its incremental-analysis
/// bookkeeping — co-located, so the per-point ingestion path pays a single
/// index probe.
///
/// The raw points live in plain vectors with a logical `start` offset: the
/// retained window is always the contiguous suffix `[start..]`, so reads
/// are zero-copy slices. Eviction advances `start`; once `start` reaches
/// the raw capacity the dead prefix is drained in one amortized-O(1)
/// compaction, bounding physical memory at twice the capacity, plus one
/// batch: [`MetricStore::record_batch_verified`] appends a batch's points
/// before it knows whether it keeps them, and drops the evicted prefix
/// only then.
#[derive(Debug)]
struct StoredSeries {
    id: MetricId,
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
    /// Stamp of the last detailed batch that accepted a point here
    /// (transient bookkeeping — not part of [`SeriesState`]).
    last_batch: u64,
    /// Stamp of the detailed batch that created the series, 0 if none did
    /// (transient bookkeeping — not part of [`SeriesState`]).
    born_in_batch: u64,
}

impl StoredSeries {
    /// A series of `id` that holds no point yet.
    fn new(id: MetricId) -> Self {
        Self {
            id,
            timestamps_ms: Vec::new(),
            values: Vec::new(),
            start: 0,
            fingerprint: FINGERPRINT_SEED,
            touched: false,
            last_batch: 0,
            born_in_batch: 0,
        }
    }

    /// What the acceptance step reads of this series.
    fn head(&self) -> Head {
        Head {
            last_ts: self.timestamps_ms.last().copied(),
            fingerprint: self.fingerprint,
            window_len: self.window_len(),
        }
    }

    /// Appends a point the acceptance step took and, when the window has
    /// outgrown `retention`'s raw capacity (as the step's head did), evicts
    /// the oldest retained point; returns whether it did. The fingerprint
    /// is the caller's to store: the head it reached carries it.
    fn append(&mut self, timestamp_ms: u64, value: f64, retention: RetentionPolicy) -> bool {
        self.push(timestamp_ms, value);
        let Some(cap) = retention
            .raw_capacity()
            .filter(|&cap| self.window_len() > cap)
        else {
            return false;
        };
        self.evict_oldest(1, cap);
        true
    }

    /// Appends a point to the buffers, evicting nothing.
    fn push(&mut self, timestamp_ms: u64, value: f64) {
        self.timestamps_ms.push(timestamp_ms);
        self.values.push(value);
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

    /// Evicts the `count` oldest retained points by moving the window
    /// start forward, then drains the dead prefix once it has grown to the
    /// raw capacity, so each point is moved at most once on average and
    /// physical length stays below twice the capacity. The eviction tag is
    /// [`Head::evict`]'s to mix in.
    fn evict_oldest(&mut self, count: usize, raw_capacity: usize) {
        self.start += count;
        if self.start >= raw_capacity {
            self.timestamps_ms.drain(..self.start);
            self.values.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Advances a series' running content fingerprint by one accepted point.
fn extend_fingerprint(fp: u64, timestamp_ms: u64, value: f64) -> u64 {
    fold_word(fold_word(fp, timestamp_ms), value.to_bits())
}

/// Tag mixed into a series fingerprint for every evicted point, so two
/// series with the same retained window but different eviction histories
/// never compare equal ("WINDOWED" in ASCII).
const EVICTION_TAG: u64 = 0x5749_4E44_4F57_4544;

impl MetricStore {
    /// Creates an empty, unbounded store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store with the given retention policy.
    pub fn with_retention(policy: RetentionPolicy) -> Self {
        let inner = StoreInner {
            retention: policy,
            ..StoreInner::default()
        };
        Self {
            inner: Arc::new(RwLock::new(inner)),
        }
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
    /// recomputes them. Tightening is irreversible (evicted points are
    /// forgotten); loosening simply stops future eviction.
    pub fn set_retention(&self, policy: RetentionPolicy) {
        let mut inner = self.write();
        inner.retention = policy;
        let Some(cap) = policy.raw_capacity() else {
            return;
        };
        let mut evicted = 0u64;
        for series in &mut inner.series {
            let excess = series.window_len().saturating_sub(cap);
            if excess == 0 {
                continue;
            }
            let mut head = series.head();
            for _ in 0..excess {
                head.evict();
            }
            series.evict_oldest(excess, cap);
            series.fingerprint = head.fingerprint;
            series.touched = true;
            evicted += excess as u64;
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
    /// the oldest retained point.
    pub fn record(&self, id: &MetricId, timestamp_ms: u64, value: f64) -> bool {
        self.write().record_one(id, timestamp_ms, value).is_ok()
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
    /// why use [`MetricStore::record_batch_detailed_into`].
    pub fn record_batch<'a>(
        &self,
        points: impl IntoIterator<Item = (&'a MetricId, u64, f64)>,
    ) -> usize {
        let mut inner = self.write();
        points
            .into_iter()
            .filter(|&(id, timestamp_ms, value)| inner.record_one(id, timestamp_ms, value).is_ok())
            .count()
    }

    /// Like [`MetricStore::record_batch`], but reports into a caller-owned
    /// [`BatchOutcome`] the per-point [`RejectReason`] of every dropped
    /// point and the post-apply fingerprint watermark of every series that
    /// accepted at least one point.
    ///
    /// This is the durability entry point: a write-ahead log persists only
    /// the accepted sub-batch (so replaying it can never apply differently
    /// than it did live) together with the watermarks, which let recovery
    /// prove — before applying — that a logged batch is being replayed
    /// against the same store state it was written against (see
    /// [`MetricStore::record_batch_verified`]).
    ///
    /// The serving layer's ingest hot path allocates nothing here: the
    /// outcome's vectors are cleared but keep their capacity, a
    /// fully-accepted batch (the overwhelmingly common case) pushes nothing
    /// to `rejected`, and first-touch detection is a per-series stamp
    /// compare instead of a per-call `BTreeSet` — so a warm scratch outcome
    /// makes the whole call allocation-free apart from the store's own
    /// series growth.
    ///
    /// Nor does it compare a name, except to place a new series: each point
    /// finds its series by one probe of the store's address index, the
    /// batch collects the positions of the series it touched, and the
    /// watermarks are those series in position order — which is id order.
    /// An id is cloned only for an entry whose place held another series in
    /// the outcome's previous list, so a batch naming the series its
    /// predecessor named moves no reference count.
    ///
    /// The same lock hold reports the store's series count before the batch
    /// and each listed series' place in it: its position less the series
    /// the batch created before it in id order.
    pub fn record_batch_detailed_into<'a>(
        &self,
        outcome: &mut BatchOutcome,
        points: impl IntoIterator<Item = (&'a MetricId, u64, f64)>,
    ) {
        outcome.accepted = 0;
        outcome.rejected.clear();
        let mut guard = self.write();
        let inner = &mut *guard;
        inner.batch_stamp += 1;
        let stamp = inner.batch_stamp;
        let series_before = inner.series.len();
        for (index, (id, timestamp_ms, value)) in points.into_iter().enumerate() {
            let held = inner.series.len();
            match inner.record_one(id, timestamp_ms, value) {
                Ok(at) => {
                    outcome.accepted += 1;
                    let created = inner.series.len() != held;
                    let series = &mut inner.series[at];
                    if series.last_batch != stamp {
                        series.last_batch = stamp;
                        inner.batch_touched.push(at);
                    }
                    if created {
                        series.born_in_batch = stamp;
                    }
                }
                Err(reason) => outcome.rejected.push((index, reason)),
            }
        }
        inner.batch_touched.sort_unstable();
        // The list is rewritten in place: an entry that names the same
        // series as the previous outcome's entry in its place keeps its id.
        let watermarks = &mut outcome.watermarks;
        watermarks.series_before = series_before;
        let list = &mut watermarks.list;
        list.truncate(inner.batch_touched.len());
        // Every series the batch created is listed, so the ones before an
        // entry are the created entries before it.
        let mut created = 0;
        for (entry, at) in inner.batch_touched.drain(..).enumerate() {
            let series = &inner.series[at];
            let place = if series.born_in_batch == stamp {
                created += 1;
                None
            } else {
                u32::try_from(at - created).ok()
            };
            match list.get_mut(entry) {
                Some(kept) if SeriesIndex::key(&kept.id) == SeriesIndex::key(&series.id) => {
                    kept.place = place;
                    kept.fingerprint = series.fingerprint;
                }
                Some(stale) => *stale = Watermark::of(series, place),
                None => list.push(Watermark::of(series, place)),
            }
        }
    }

    /// Applies a logged batch only if doing so reproduces the watermarks
    /// [`MetricStore::record_batch_detailed_into`] reported when the batch
    /// was first applied — the series `names` lists, in order, ending on
    /// fingerprints whose [`Watermarks::digest`] is `digest` — and returns
    /// how many points were accepted; `None`, with the store untouched, if
    /// it would not.
    ///
    /// The batch is in the log's form: each point is `(slot, timestamp,
    /// value)`, and its series is the one the `slot`-th entry of `names`
    /// names — by its place in this store, which holds `series_before`
    /// series if the store is the one the batch was logged against, or by
    /// id. Recovery replays every logged batch through this call: if the
    /// watermarks logged next to a batch cannot be reproduced, this store
    /// has diverged from the one the log was written against, and applying
    /// the batch would silently corrupt the tenant instead of loudly
    /// degrading it.
    ///
    /// Everything runs under one write-lock hold. A placed entry finds its
    /// series by index; a spelled one by one probe of the store's address
    /// index. A series count other than `series_before`, a placed entry
    /// with no `series_before` or past the store's series, or `names` not
    /// strictly ascending by [`MetricId`] is a mismatch found before
    /// anything is written. Then the series the batch creates are placed,
    /// and one pass over the points runs the acceptance step live ingest
    /// runs — the non-finite and monotone-timestamp gates, the fingerprint
    /// chain, and the eviction tags the current retention policy would mix
    /// in — on each listed series' head, appending each accepted point to
    /// its series at once. A slot out of range, a listed series that
    /// accepts nothing, or heads whose digest is not `digest` is a
    /// mismatch: the appended points are cut off again and the created
    /// series removed. Only on a match are the heads' fingerprints stored,
    /// the series marked touched and the evicted prefixes dropped (the
    /// compaction waits for the verdict, so a window may hold one batch
    /// past twice the capacity until then). `Some` is returned precisely
    /// when the count matches and `record_batch_detailed_into` on the
    /// triples `(id of names[slot], timestamp, value)` reports each listed
    /// series in order, at the place a placed entry names, with
    /// fingerprints of the logged digest (property-tested against a copy of
    /// the store) — which, for a digest folded from the live fingerprints,
    /// is the live fingerprint of every listed series but with a chance of
    /// about 2⁻⁶⁴.
    ///
    /// The count is what makes a place safe: equal counts mean equal series
    /// (see [`Watermarks`]), so a series written here but never logged
    /// refuses the batch instead of shifting its places onto neighbours.
    ///
    /// # Cost
    ///
    /// O(p + s) for `p` points and `s` listed series, whatever else the
    /// store holds: one index or one probe per listed series, and no name
    /// compared between two listed series the store already holds. A listed
    /// series the store does not hold yet also pays to be placed — a binary
    /// search over the stored ids and a move of every series after it — and
    /// a refused batch that created one pays to rebuild the index.
    pub fn record_batch_verified<'a>(
        &self,
        points: &[(u32, u64, f64)],
        series_before: Option<usize>,
        names: impl IntoIterator<Item = Named<&'a MetricId>, IntoIter: Clone>,
        digest: u64,
    ) -> Option<usize> {
        let names = names.into_iter();
        let mut guard = self.write();
        let inner = &mut *guard;
        if series_before.is_some_and(|count| count != inner.series.len()) {
            return None;
        }
        inner.verify.clear();
        let mut created = 0;
        let mut previous: Option<(&MetricId, Option<usize>)> = None;
        for name in names.clone() {
            let (id, at) = match name {
                Named::Placed(place) => {
                    let place = place as usize;
                    // A place without the count that guards it names nothing.
                    series_before?;
                    (&inner.series.get(place)?.id, Some(place))
                }
                Named::Spelled(id) => (id, inner.index.get(id)),
            };
            if let Some((before, before_at)) = previous {
                let ascending = match (before_at, at) {
                    (Some(before_at), Some(at)) => before_at < at,
                    _ => before < id,
                };
                if !ascending {
                    return None;
                }
            }
            previous = Some((id, at));
            created += usize::from(at.is_none());
            let stored = at.map(|at| &inner.series[at]);
            inner.verify.push(Slot {
                at: at.unwrap_or(0),
                head: stored.map_or(Head::EMPTY, StoredSeries::head),
                accepted: 0,
                len_before: stored.map_or(0, |stored| stored.values.len()),
                created: at.is_none(),
            });
        }

        // The list ascends, so every series created so far was placed
        // before the listed series that come after it.
        if created > 0 {
            let mut placed = 0;
            for (slot, name) in names.enumerate() {
                inner.verify[slot].at = match name {
                    Named::Spelled(id) if inner.verify[slot].created => {
                        placed += 1;
                        inner.insert(StoredSeries::new(id.clone()))
                    }
                    _ => inner.verify[slot].at + placed,
                };
            }
        }

        let capacity = inner.retention.raw_capacity();
        let (slots, series) = (&mut inner.verify, &mut inner.series);
        let mut in_range = true;
        for &(slot, timestamp_ms, value) in points {
            let Some(slot) = slots.get_mut(slot as usize) else {
                in_range = false;
                break;
            };
            if slot.head.accept(timestamp_ms, value, capacity).is_ok() {
                slot.accepted += 1;
                series[slot.at].push(timestamp_ms, value);
            }
        }
        if !in_range
            || slots.iter().any(|slot| slot.accepted == 0)
            || batch_digest(slots.iter().map(|slot| slot.head.fingerprint)) != digest
        {
            inner.undo_verified();
            return None;
        }

        let (mut accepted, mut evicted) = (0, 0);
        for slot in slots.iter() {
            let stored = &mut series[slot.at];
            stored.fingerprint = slot.head.fingerprint;
            stored.touched = true;
            let dropped = stored.window_len() - slot.head.window_len;
            if let Some(cap) = capacity.filter(|_| dropped > 0) {
                stored.evict_oldest(dropped, cap);
            }
            accepted += slot.accepted;
            evicted += dropped;
        }
        inner.points_written += accepted as u64;
        inner.points_evicted += evicted as u64;
        Some(accepted)
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
        for series in &mut inner.series {
            if series.touched {
                series.touched = false;
                touched.push(series.id.clone());
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
        self.read().get(id).map(|s| s.fingerprint)
    }

    /// Returns the most recent `(timestamp_ms, value)` observation of the
    /// series for `id`, if present. Unlike [`MetricStore::series`] this does
    /// not copy the series, so streaming consumers (e.g. the autoscaling
    /// engine) can poll it every tick. Eviction never drops the newest
    /// point, so this is retention-independent.
    pub fn last_value(&self, id: &MetricId) -> Option<(u64, f64)> {
        let inner = self.read();
        let series = inner.get(id)?;
        let t = *series.timestamps_ms.last()?;
        let v = *series.values.last()?;
        Some((t, v))
    }

    /// Returns a copy of the *retained window* of the series for `id`, if
    /// present.
    pub fn series(&self, id: &MetricId) -> Option<TimeSeries> {
        let inner = self.read();
        inner.get(id).map(|s| s.window().to_series())
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
        for series in &inner.series {
            let component = &series.id.component;
            if last != Some(component) {
                f(component);
                last = Some(component);
            }
        }
    }

    /// Visits the `(id, view)` pairs of one component in sorted order
    /// without copying any series. Each view observes **only the retained
    /// window** of its series — under a bounded [`RetentionPolicy`] that is
    /// the newest `raw_capacity` points, not the full history. The read
    /// lock is held for the whole traversal, so the callback must not call
    /// back into this store.
    pub fn for_each_series_of(
        &self,
        component: &str,
        mut f: impl FnMut(&MetricId, SeriesView<'_>),
    ) {
        let inner = self.read();
        // Ids sort by component first, so the component's series are one
        // run.
        let first = inner
            .series
            .partition_point(|series| series.id.component.as_str() < component);
        for series in inner.series[first..]
            .iter()
            .take_while(|series| series.id.component == component)
        {
            f(&series.id, series.window());
        }
    }

    /// Visits every stored series with the given metric name (across all
    /// components, sorted by component) without copying any series. Each
    /// view observes **only the retained window** of its series — under a
    /// bounded [`RetentionPolicy`] that is the newest `raw_capacity`
    /// points, not the full history. The read lock is held for the whole
    /// traversal, so the callback must not call back into this store.
    pub fn for_each_series_named(
        &self,
        metric: &str,
        mut f: impl FnMut(&MetricId, SeriesView<'_>),
    ) {
        let inner = self.read();
        for series in inner
            .series
            .iter()
            .filter(|series| series.id.metric == metric)
        {
            f(&series.id, series.window());
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

    /// Exports the retained window of every series as a map (used by the
    /// Sieve pipeline).
    pub fn export(&self) -> BTreeMap<MetricId, TimeSeries> {
        self.read()
            .series
            .iter()
            .map(|s| (s.id.clone(), s.window().to_series()))
            .collect()
    }

    /// Captures a complete serializable image of the store: every series'
    /// retained window, fingerprint and touched mark, plus the epoch
    /// watermark, retention policy and written/evicted counters.
    ///
    /// Freezing holds the read lock for the duration of the copy; the
    /// image is start-normalized (window offsets are not preserved, only
    /// window *content*), which is invisible to every public API.
    pub fn freeze(&self) -> StoreState {
        let inner = self.read();
        StoreState {
            retention: inner.retention,
            epoch: inner.epoch,
            points_written: inner.points_written,
            points_evicted: inner.points_evicted,
            series: inner
                .series
                .iter()
                .map(|s| SeriesState {
                    id: s.id.clone(),
                    timestamps_ms: s.timestamps_ms[s.start..].to_vec(),
                    values: s.values[s.start..].to_vec(),
                    fingerprint: s.fingerprint,
                    touched: s.touched,
                })
                .collect(),
        }
    }

    /// Revives a store from a [`StoreState`] image. The restored store
    /// continues bit-identically to the frozen one: identical
    /// windows, fingerprints, epoch watermark, pending dirt and counters
    /// under any subsequent sequence of operations.
    ///
    /// The image must hold [`StoreState::validate`]'s rule, as every image
    /// [`MetricStore::freeze`] takes and every image the durable decoder
    /// returns does; a debug build asserts it. The series move in as they
    /// are and the index is built once.
    pub fn restore(state: StoreState) -> MetricStore {
        debug_assert_eq!(state.validate(), Ok(()), "an image ingest cannot build");
        let series: Vec<StoredSeries> = state
            .series
            .into_iter()
            .map(|s| StoredSeries {
                id: s.id,
                timestamps_ms: s.timestamps_ms,
                values: s.values,
                start: 0,
                fingerprint: s.fingerprint,
                touched: s.touched,
                last_batch: 0,
                born_in_batch: 0,
            })
            .collect();
        let mut index = SeriesIndex::default();
        index.rebuild(&series);
        let inner = StoreInner {
            series,
            index,
            epoch: state.epoch,
            retention: state.retention,
            points_written: state.points_written,
            points_evicted: state.points_evicted,
            ..StoreInner::default()
        };
        MetricStore {
            inner: Arc::new(RwLock::new(inner)),
        }
    }

    /// Builds a new store containing only the series whose identifiers are
    /// in `keep`, re-ingesting their retained windows under the same
    /// retention policy. This is how the Table 3 experiment simulates "a
    /// run with the reduced metrics".
    pub fn retain_only(&self, keep: &[MetricId]) -> MetricStore {
        let inner = self.read();
        let reduced = MetricStore::with_retention(inner.retention);
        for id in keep {
            if let Some(series) = inner.get(id) {
                reduced.record_batch(series.window().iter().map(|(t, v)| (id, t, v)));
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

    fn detailed<'a>(
        store: &MetricStore,
        points: impl IntoIterator<Item = (&'a MetricId, u64, f64)>,
    ) -> BatchOutcome {
        // An outcome a previous batch used: the call rewrites all of it.
        let stale = Watermark {
            id: MetricId::new("stale", "entry"),
            place: Some(9),
            fingerprint: 1,
        };
        let mut outcome = BatchOutcome {
            accepted: 7,
            rejected: vec![(0, RejectReason::NonFiniteValue)],
            watermarks: Watermarks {
                series_before: 99,
                list: vec![stale; 3],
            },
        };
        store.record_batch_detailed_into(&mut outcome, points);
        outcome
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_metric_id_is_two_words() {
        assert_eq!(std::mem::size_of::<MetricId>(), 16);
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
        let ids = store.export().into_keys().collect::<Vec<_>>();
        let web = ids.iter().filter(|id| id.component == "web");
        assert_eq!(web.count(), 3);
        assert_eq!(store.components(), vec!["db", "web"]);
        assert_eq!(ids.len(), 6);
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
        let series = inner.get(&id).unwrap();
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
        let outcome = detailed(
            &store,
            [
                (&a, 500, 2.0),
                (&a, 250, 9.0),    // non-monotone
                (&b, 0, f64::NAN), // non-finite
                (&b, 0, 3.0),
                (&a, 500, 4.0), // duplicate timestamp
            ],
        );
        assert_eq!(outcome.accepted, 2);
        assert_eq!(
            outcome.rejected,
            vec![
                (1, RejectReason::NonMonotoneTimestamp),
                (2, RejectReason::NonFiniteValue),
                (4, RejectReason::NonMonotoneTimestamp),
            ]
        );
        // Watermarks are the live post-apply fingerprints, sorted by id,
        // with each series' place before the batch: `db/mem` is new, and
        // `web/cpu` was the store's only series.
        assert_eq!(
            outcome.watermarks,
            Watermarks {
                series_before: 1,
                list: vec![
                    Watermark {
                        id: b.clone(),
                        place: None,
                        fingerprint: store.fingerprint(&b).unwrap(),
                    },
                    Watermark {
                        id: a.clone(),
                        place: Some(0),
                        fingerprint: store.fingerprint(&a).unwrap(),
                    },
                ],
            }
        );

        // A batch with no accepted points reports no watermarks.
        let empty = detailed(&store, [(&a, 100, 1.0)]);
        assert_eq!(empty.accepted, 0);
        assert_eq!(empty.watermarks.series_before, 2);
        assert!(empty.watermarks.list.is_empty());
    }

    #[test]
    fn places_count_the_series_a_batch_creates_before_them() {
        // Stored: b, d, f. The batch creates a, c, e, g around them.
        let store = MetricStore::new();
        let id = |m: &str| MetricId::new("web", m);
        for m in ["b", "d", "f"] {
            store.record(&id(m), 0, 1.0);
        }
        let ids: Vec<MetricId> = ["g", "f", "e", "d", "c", "b", "a"].map(id).into();
        let outcome = detailed(&store, ids.iter().map(|id| (id, 500, 2.0)));
        let places: Vec<(&str, Option<u32>)> = outcome
            .watermarks
            .list
            .iter()
            .map(|w| (w.id.metric.as_str(), w.place))
            .collect();
        assert_eq!(outcome.watermarks.series_before, 3);
        assert_eq!(
            places,
            [
                ("a", None),
                ("b", Some(0)),
                ("c", None),
                ("d", Some(1)),
                ("e", None),
                ("f", Some(2)),
                ("g", None),
            ]
        );
    }

    /// A watermark list as a detailed batch reports it, in the log's
    /// names: the store's series count before the batch, if logged, and
    /// each entry's name and fingerprint.
    type Logged = (Option<usize>, Vec<(Named<MetricId>, u64)>);

    /// `record_batch_verified` with `logged` as a log holds it: the names,
    /// and one digest of the fingerprints.
    fn verified(
        store: &MetricStore,
        points: &[(u32, u64, f64)],
        (series_before, expected): &Logged,
    ) -> Option<usize> {
        let names = expected.iter().map(|(name, _)| match name {
            Named::Placed(place) => Named::Placed(*place),
            Named::Spelled(id) => Named::Spelled(id),
        });
        let digest = batch_digest(expected.iter().map(|&(_, fingerprint)| fingerprint));
        store.record_batch_verified(points, *series_before, names, digest)
    }

    /// `watermarks` as live ingest logs them: the series count, each series
    /// the store held by its place, the others by id.
    fn placed(watermarks: &Watermarks) -> Logged {
        let list = watermarks.list.iter().map(|w| {
            let name = w
                .place
                .map_or_else(|| Named::Spelled(w.id.clone()), Named::Placed);
            (name, w.fingerprint)
        });
        (Some(watermarks.series_before), list.collect())
    }

    /// `watermarks` with every id spelled and no series count.
    fn spelled(watermarks: &Watermarks) -> Logged {
        let list = watermarks.list.iter();
        let list = list.map(|w| (Named::Spelled(w.id.clone()), w.fingerprint));
        (None, list.collect())
    }

    /// The id each entry of `expected` names in a store frozen as `state`.
    fn resolved(state: &StoreState, expected: &[(Named<MetricId>, u64)]) -> Vec<MetricId> {
        let id = |name: &Named<MetricId>| match name {
            Named::Placed(place) => state.series[*place as usize].id.clone(),
            Named::Spelled(id) => id.clone(),
        };
        expected.iter().map(|(name, _)| id(name)).collect()
    }

    /// Whether a detailed batch `reported` what `logged` lists: the logged
    /// series count, if any, and entry by entry the same series with the
    /// same fingerprint, at the place a placed entry names.
    fn lists((series_before, expected): &Logged, reported: &Watermarks) -> bool {
        let entry = |(name, fingerprint): &(Named<MetricId>, u64), w: &Watermark| {
            *fingerprint == w.fingerprint
                && match name {
                    Named::Placed(place) => w.place == Some(*place),
                    Named::Spelled(id) => *id == w.id,
                }
        };
        series_before.map_or(true, |count| count == reported.series_before)
            && expected.len() == reported.list.len()
            && expected
                .iter()
                .zip(&reported.list)
                .all(|(e, w)| entry(e, w))
    }

    /// `batch` in the log's form against the series `listed`: each point
    /// names the first slot listing its series. A point of an unlisted
    /// series is left out (a log holds none).
    fn slotted(batch: &[(&MetricId, u64, f64)], listed: &[MetricId]) -> Vec<(u32, u64, f64)> {
        batch
            .iter()
            .filter_map(|&(id, timestamp_ms, value)| {
                let slot = listed.iter().position(|listed| listed == id)?;
                Some((slot as u32, timestamp_ms, value))
            })
            .collect()
    }

    /// The acceptance rule written out apart from `Head`: advances each
    /// series' (last timestamp, fingerprint, window length) in `heads` by
    /// the points a store under `policy` would accept.
    fn reference_heads<'a>(
        heads: &mut BTreeMap<MetricId, (u64, u64, usize)>,
        policy: RetentionPolicy,
        points: impl IntoIterator<Item = (&'a MetricId, u64, f64)>,
    ) {
        for (id, t, v) in points {
            let head = heads.get(id).copied();
            if !v.is_finite() || head.is_some_and(|(last, ..)| t <= last) {
                continue;
            }
            let (_, fingerprint, len) = head.unwrap_or((0, FINGERPRINT_SEED, 0));
            let fingerprint = fold_word(fold_word(fingerprint, t), v.to_bits());
            let mut next = (t, fingerprint, len + 1);
            if policy.raw_capacity().is_some_and(|cap| next.2 > cap) {
                next = (t, fold_word(next.1, EVICTION_TAG), next.2 - 1);
            }
            heads.insert(id.clone(), next);
        }
    }

    #[test]
    fn verified_apply_agrees_with_the_detailed_oracle_for_any_expected_list() {
        use sieve_exec::hash::splitmix64;
        // Property: `record_batch_verified(points, series_before, expected)`
        // applies iff `record_batch_detailed_into` of the triples `(the id
        // expected[slot] names, timestamp, value)`, on a copy of the store,
        // reports what `expected` lists — across retention policies,
        // repeated series, stale timestamps, non-finite values, eviction
        // boundaries and series created between stored ones, for lists
        // logged as live ingest logs them (placed) and all spelled, the true
        // one and eleven kinds of wrong one. The log holds one digest of the
        // fingerprints (`verified`); the oracle compares them one by one.
        // The last two kinds are refused only after every point was
        // appended: one batch creates series between stored ones, the other
        // carries a window past its compaction point, and each refusal must
        // undo all of it.
        const KINDS: usize = 12;
        let (mut applied, mut refused) = ([0usize; KINDS], [0usize; KINDS]);
        for (round, policy) in [
            RetentionPolicy::unbounded(),
            RetentionPolicy::windowed(7),
            RetentionPolicy::windowed(1),
        ]
        .into_iter()
        .enumerate()
        {
            let store = MetricStore::with_retention(policy);
            // Batches draw from the first four ids, then six, then all
            // eight: the later ones sort between and around the first, so
            // their creation moves stored series on.
            let ids = [
                MetricId::new("web", "cpu"),
                MetricId::new("web", "mem"),
                MetricId::new("db", "cpu"),
                MetricId::new("db", "mem"),
                MetricId::new("db", "disk"),
                MetricId::new("web", "io"),
                MetricId::new("app", "x"),
                MetricId::new("zz", "y"),
            ];
            let mut state = 0x9E37_79B9 + round as u64;
            let mut rand = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                splitmix64(state)
            };
            let mut heads = BTreeMap::new();
            for step in 0..192 {
                let drawn = (4 + 2 * (step / 40) as usize).min(ids.len());
                let mut batch = Vec::new();
                for _ in 0..(rand() % 20) {
                    let id = &ids[(rand() % drawn as u64) as usize];
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
                let live = MetricStore::restore(before.clone());
                let truth = detailed(&live, batch.iter().copied());
                let kind = (step % KINDS as u64) as usize;
                // Every other run of the kinds spells every id, but for the
                // one that moves a place.
                let spell = kind != 7 && (step / KINDS as u64) % 2 == 1;
                let log = |w: &Watermarks| if spell { spelled(w) } else { placed(w) };
                let true_list = log(&truth.watermarks);
                let true_ids: Vec<MetricId> =
                    truth.watermarks.list.iter().map(|w| w.id.clone()).collect();
                let true_points = slotted(&batch, &true_ids);

                let at = |r: u64, len: usize| (r % len.max(1) as u64) as usize;
                let (mut expected, mut points) = (true_list.clone(), true_points.clone());
                let entries = expected.1.len();
                match kind {
                    0 => {}
                    1 if entries > 0 => {
                        let entry = at(rand(), entries);
                        expected.1[entry].1 ^= 1 << (rand() % 64);
                    }
                    2 if entries > 1 => {
                        // A point the store accepts, re-slotted to another
                        // listed series.
                        let mut last: Vec<Option<u64>> = true_ids
                            .iter()
                            .map(|id| store.last_value(id).map(|(t, _)| t))
                            .collect();
                        let accepted: Vec<usize> = (0..points.len())
                            .filter(|&point| {
                                let (slot, t, v) = points[point];
                                let last = &mut last[slot as usize];
                                let accepts = v.is_finite() && last.map_or(true, |last| t > last);
                                if accepts {
                                    *last = Some(t);
                                }
                                accepts
                            })
                            .collect();
                        if let Some(&point) = accepted.get(at(rand(), accepted.len())) {
                            let shift = 1 + at(rand(), entries - 1) as u32;
                            points[point].0 = (points[point].0 + shift) % entries as u32;
                        }
                    }
                    3 => {
                        // A series the batch leaves alone, in sorted place
                        // with its live fingerprint, named as the list names
                        // the series the store holds.
                        let unlisted = ids.iter().find(|id| !true_ids.contains(id));
                        if let Some(id) = unlisted {
                            let fingerprint = store.fingerprint(id).unwrap_or(FINGERPRINT_SEED);
                            let place = before.series.iter().position(|s| s.id == *id);
                            let name = match place {
                                Some(place) if !spell => Named::Placed(place as u32),
                                _ => Named::Spelled(id.clone()),
                            };
                            let mut named: Vec<_> = true_ids.iter().zip(expected.1).collect();
                            named.push((id, (name, fingerprint)));
                            named.sort_unstable_by(|a, b| a.0.cmp(b.0));
                            expected.1 = named.into_iter().map(|(_, entry)| entry).collect();
                        }
                    }
                    4 if entries > 1 => {
                        let entry = at(rand(), entries - 1);
                        expected.1.swap(entry, entry + 1);
                    }
                    5 if entries > 0 => {
                        let entry = at(rand(), entries);
                        expected.1.insert(entry, expected.1[entry].clone());
                    }
                    6 => {
                        // Another series count: a series written to one
                        // store and not the other.
                        let held = before.series.len();
                        expected.0 = Some(match rand() % 2 {
                            0 if held > 0 => held - 1,
                            _ => held + 1,
                        });
                    }
                    8 if entries > 1 => {
                        // Two listed fingerprints swapped, the names kept.
                        let first = at(rand(), entries - 1);
                        let second = first + 1 + at(rand(), entries - 1 - first);
                        let (a, b) = (expected.1[first].1, expected.1[second].1);
                        expected.1[first].1 = b;
                        expected.1[second].1 = a;
                    }
                    9 if entries > 0 => {
                        // One series logged with the fingerprint it had
                        // before the batch, as if its points were lost.
                        let entry = at(rand(), entries);
                        let id = &true_ids[entry];
                        expected.1[entry].1 = store.fingerprint(id).unwrap_or(FINGERPRINT_SEED);
                    }
                    7 => {
                        // A place one off, onto a stored neighbour: the
                        // points stay in their slot.
                        let held = before.series.len() as u32;
                        let placed: Vec<usize> = (0..entries)
                            .filter(|&e| matches!(expected.1[e].0, Named::Placed(_)))
                            .collect();
                        if let Some(&entry) = placed.get(at(rand(), placed.len())) {
                            if let Named::Placed(place) = &mut expected.1[entry].0 {
                                *place = match rand() % 2 {
                                    0 if *place > 0 => *place - 1,
                                    _ if *place + 1 < held => *place + 1,
                                    _ => place.saturating_sub(1),
                                };
                            }
                        }
                    }
                    _ => {}
                }
                // Two series no batch names, sorting between stored ones.
                let fresh = [
                    MetricId::new("db", format!("new{step}")),
                    MetricId::new("web", format!("d{step}")),
                ];
                let mut extended = batch.clone();
                match kind {
                    10 => extended.extend(fresh.iter().map(|id| (id, step * 500, 1.0))),
                    11 => {
                        // Enough points on one series to evict more than a
                        // whole window, past the previous batches' times.
                        let id = &ids[(rand() % drawn as u64) as usize];
                        let cap = policy.raw_capacity().unwrap_or(7) as u64;
                        let ticks = (step * 5 + 10)..(step * 5 + 11 + 2 * cap);
                        extended.extend(ticks.map(|t| (id, t * 500, (t % 7) as f64)));
                    }
                    _ => {}
                }
                if matches!(kind, 10 | 11) {
                    // The list of the longer batch, one fingerprint off.
                    let longer = detailed(&MetricStore::restore(before.clone()), extended.clone());
                    expected = log(&longer.watermarks);
                    let entry = at(rand(), expected.1.len());
                    expected.1[entry].1 ^= 1 << (rand() % 64);
                }
                let named = resolved(&before, &expected.1);
                if matches!(kind, 3..=5 | 10 | 11) {
                    // The points still name their own series.
                    points = slotted(&extended, &named);
                }

                let oracle_store = MetricStore::restore(before.clone());
                let oracle = detailed(
                    &oracle_store,
                    points
                        .iter()
                        .map(|&(slot, t, v)| (&named[slot as usize], t, v)),
                );
                let verdict = verified(&store, &points, &expected);
                assert_eq!(
                    verdict.is_some(),
                    lists(&expected, &oracle.watermarks),
                    "round {round} step {step} kind {kind}: {expected:?} vs {:?}",
                    oracle.watermarks
                );
                match verdict {
                    Some(accepted) => {
                        applied[kind] += 1;
                        assert_eq!(accepted, oracle.accepted);
                        let oracle = oracle_store.freeze();
                        assert_eq!(store.freeze(), oracle, "verified apply == detailed");
                        let triples = points
                            .iter()
                            .map(|&(slot, t, v)| (&named[slot as usize], t, v));
                        reference_heads(&mut heads, policy, triples);
                    }
                    None => {
                        refused[kind] += 1;
                        assert_eq!(store.freeze(), before, "a refusal leaves no trace");
                        assert_eq!(store.series_count(), before.series.len());
                        assert_eq!(store.point_count(), before.points_written);
                        assert_eq!(store.evicted_point_count(), before.points_evicted);
                        // Every id still finds its own series, or none.
                        for id in ids.iter().chain(&fresh) {
                            let held = before.series.iter().find(|s| s.id == *id);
                            let fingerprint = held.map(|s| s.fingerprint);
                            assert_eq!(store.fingerprint(id), fingerprint, "step {step}");
                        }
                        // Keep the stream moving: the true list applies.
                        let accepted = verified(&store, &true_points, &true_list);
                        assert_eq!(accepted, Some(truth.accepted));
                        assert_eq!(store.freeze(), live.freeze(), "verified apply == detailed");
                        reference_heads(&mut heads, policy, batch.iter().copied());
                    }
                }
                // Both paths follow the rule as written out apart from them.
                for (id, &(_, fingerprint, _)) in &heads {
                    assert_eq!(store.fingerprint(id), Some(fingerprint), "step {step}");
                }
            }
        }
        // Not vacuous: the true list always applies, and every kind of wrong
        // list was refused many times.
        assert_eq!((applied[0], refused[0]), (48, 0));
        assert_eq!(applied[10..], [0, 0]);
        assert!(refused[1..].iter().all(|&n| n >= 30), "{refused:?}");
    }

    #[test]
    fn a_batch_naming_one_of_4096_series_applies_as_the_detailed_path_does() {
        let store = MetricStore::with_retention(RetentionPolicy::windowed(3));
        let ids: Vec<MetricId> = (0..4096)
            .map(|i| MetricId::new(format!("c{:02}", i % 64), format!("m{i:04}")))
            .collect();
        store.record_batch(
            ids.iter()
                .flat_map(|id| (0..4u64).map(move |t| (id, t * 500, t as f64))),
        );
        let new = MetricId::new("c31", "m2048a");
        // One series of 4,096; a series the store does not hold yet, placed
        // mid-store; and the store's first and last series.
        let named: [&[&MetricId]; 3] = [&[&ids[2049]], &[&new], &[&ids[0], &ids[4095]]];
        for (case, named) in named.into_iter().enumerate() {
            let batch: Vec<(&MetricId, u64, f64)> = named
                .iter()
                .flat_map(|&id| {
                    [
                        (id, 2000, 1.5),
                        (id, 1500, 9.0), // stale
                        (id, 2500, f64::NAN),
                        (id, 3000, -2.0),
                    ]
                })
                .collect();
            let before = store.freeze();
            let copy = MetricStore::restore(before.clone());
            let outcome = detailed(&copy, batch.iter().copied());
            assert_eq!(outcome.watermarks.list.len(), named.len(), "case {case}");
            let listed: Vec<MetricId> = named.iter().map(|&id| id.clone()).collect();
            let points = slotted(&batch, &listed);
            // Spelled, against a copy of the store as the case found it;
            // then placed, as live ingest logs it, against the store.
            for (log, target) in [
                (
                    spelled as fn(&Watermarks) -> Logged,
                    MetricStore::restore(before.clone()),
                ),
                (placed, store.clone()),
            ] {
                let logged = log(&outcome.watermarks);
                // A slot past the listed series names nothing.
                let past = named.len() as u32;
                assert_eq!(verified(&target, &[(past, 3500, 1.0)], &logged), None);
                assert_eq!(target.freeze(), before, "case {case}");
                let accepted = verified(&target, &points, &logged);
                assert_eq!(accepted, Some(outcome.accepted), "case {case}");
                assert_eq!(target.freeze(), copy.freeze(), "case {case}");
            }
        }
    }

    #[test]
    fn a_list_naming_a_series_twice_is_refused_even_if_each_slot_reproduces() {
        let id = MetricId::new("web", "cpu");
        for stored in [false, true] {
            let store = MetricStore::new();
            if stored {
                store.record(&id, 0, 0.5);
            }
            // Each slot's watermark is what its own point alone would leave.
            let alone = |t: u64, v: f64| {
                let copy = MetricStore::restore(store.freeze());
                copy.record(&id, t, v);
                copy.fingerprint(&id).unwrap()
            };
            let twice = |name: Named<MetricId>| -> Logged {
                let count = Some(store.series_count());
                let list = vec![(name.clone(), alone(500, 1.0)), (name, alone(1000, 2.0))];
                (count, list)
            };
            let mut lists = vec![twice(Named::Spelled(id.clone()))];
            if stored {
                lists.push(twice(Named::Placed(0)));
            }
            let before = store.freeze();
            let points = [(0, 500, 1.0), (1, 1000, 2.0)];
            for logged in lists {
                assert_eq!(verified(&store, &points, &logged), None, "{logged:?}");
                assert_eq!(store.freeze(), before);
            }
        }
    }

    #[test]
    fn a_refused_batch_leaves_every_id_its_own_series_and_every_window_as_it_was() {
        // Stored under a window of 3: b, d, f, five points each, so each
        // window starts two points short of its compaction point. The
        // batch creates a, c, e, g between and around them and carries d
        // past its compaction point; its list is one fingerprint off, so
        // it is refused once every point is appended.
        let store = MetricStore::with_retention(RetentionPolicy::windowed(3));
        let all = ["a", "b", "c", "d", "e", "f", "g"].map(|m| MetricId::new("web", m));
        for id in [&all[1], &all[3], &all[5]] {
            store.record_batch((0..5u64).map(|t| (id, t * 500, t as f64)));
        }
        assert_eq!(store.read().get(&all[3]).unwrap().start, 2);
        let before = store.freeze();
        let batch: Vec<(&MetricId, u64, f64)> = all
            .iter()
            .map(|id| (id, 5000, 1.0))
            .chain((6..14u64).map(|t| (&all[3], t * 1000, t as f64)))
            .collect();
        let outcome = detailed(&MetricStore::restore(before.clone()), batch.iter().copied());
        let listed: Vec<MetricId> = outcome
            .watermarks
            .list
            .iter()
            .map(|w| w.id.clone())
            .collect();
        assert_eq!(listed, all);
        let mut logged = placed(&outcome.watermarks);
        logged.1[6].1 ^= 1;
        assert_eq!(verified(&store, &slotted(&batch, &listed), &logged), None);
        assert_eq!(store.freeze(), before, "the store is untouched");
        let counts = (
            store.series_count(),
            store.point_count(),
            store.evicted_point_count(),
        );
        assert_eq!(counts, (3, 15, 6));

        // `record` of every id finds its own series, or creates it: the
        // store goes on as one that never saw the batch.
        let reference = MetricStore::restore(before);
        for (t, id) in (20_000u64..).zip(&all) {
            assert!(store.record(id, t, 2.0));
            assert!(reference.record(id, t, 2.0));
        }
        assert_eq!(store.freeze(), reference.freeze());
    }

    #[test]
    fn a_digest_refuses_two_fingerprints_swapped_or_one_changed_anywhere_in_a_long_list() {
        // A hundred stored series and a batch of one point each: the
        // digest folds a hundred fingerprints, so a swap can pair slot 0
        // with slot 64, where a fold keyed by the slot modulo a word's
        // bits would see the same position twice.
        let store = MetricStore::with_retention(RetentionPolicy::windowed(4));
        let ids: Vec<MetricId> = (0..100)
            .map(|i| MetricId::new(format!("c{}", i % 5), format!("m{i:03}")))
            .collect();
        store.record_batch(ids.iter().map(|id| (id, 500, 1.0)));
        let batch: Vec<(&MetricId, u64, f64)> = (0u32..)
            .zip(&ids)
            .map(|(i, id)| (id, 1000, f64::from(i)))
            .collect();
        let before = store.freeze();
        let copy = MetricStore::restore(before.clone());
        let outcome = detailed(&copy, batch.iter().copied());
        assert_eq!(outcome.watermarks.list.len(), 100);
        let logged = placed(&outcome.watermarks);
        let listed: Vec<MetricId> = outcome
            .watermarks
            .list
            .iter()
            .map(|w| w.id.clone())
            .collect();
        let points = slotted(&batch, &listed);

        let swapped = |first: usize, second: usize| {
            let mut wrong = logged.clone();
            let fingerprint = wrong.1[first].1;
            wrong.1[first].1 = wrong.1[second].1;
            wrong.1[second].1 = fingerprint;
            wrong
        };
        let changed = |entry: usize, fingerprint: u64| {
            let mut wrong = logged.clone();
            wrong.1[entry].1 = fingerprint;
            wrong
        };
        let mut wrongs = vec![
            swapped(0, 64),
            swapped(0, 1),
            swapped(63, 64),
            swapped(98, 99),
        ];
        wrongs.push(swapped(0, 99));
        for entry in [0, 64, 99] {
            wrongs.push(changed(entry, logged.1[entry].1 ^ 1));
            wrongs.push(changed(entry, before.series[entry].fingerprint));
        }
        for (case, wrong) in wrongs.iter().enumerate() {
            assert_ne!(wrong.1, logged.1, "case {case}");
            assert_eq!(verified(&store, &points, wrong), None, "case {case}");
            assert_eq!(
                store.freeze(),
                before,
                "case {case}: the store is untouched"
            );
        }
        assert_eq!(verified(&store, &points, &logged), Some(100));
        assert_eq!(store.freeze(), copy.freeze());
    }

    #[test]
    fn a_place_in_a_store_holding_an_unlogged_series_is_refused_not_misapplied() {
        // The logged store holds `web/b` and `web/c`, of equal content; the
        // batch appends to `web/c`, its place 1.
        let (a, b, c) = (
            MetricId::new("web", "a"),
            MetricId::new("web", "b"),
            MetricId::new("web", "c"),
        );
        let store = MetricStore::new();
        for id in [&b, &c] {
            store.record_batch((0..4u64).map(|t| (id, t * 500, t as f64)));
        }
        let copy = MetricStore::restore(store.freeze());
        let outcome = detailed(&store, [(&c, 2000, 9.0)]);
        let logged = placed(&outcome.watermarks);
        assert_eq!(
            logged,
            (
                Some(2),
                vec![(Named::Placed(1), outcome.watermarks.list[0].fingerprint)]
            )
        );

        // The copy also holds `web/a`, written and never logged: it sorts
        // first, so place 1 there is `web/b`, whose head is `web/c`'s.
        copy.record_batch((0..4u64).map(|t| (&a, t * 500, t as f64)));
        let before = copy.freeze();
        assert_eq!(verified(&copy, &[(0, 2000, 9.0)], &logged), None);
        assert_eq!(copy.freeze(), before, "the store is untouched");
        // Nor does a place without the count that guards it name anything.
        let unguarded = (None, logged.1.clone());
        assert_eq!(verified(&copy, &[(0, 2000, 9.0)], &unguarded), None);
        assert_eq!(copy.freeze(), before, "the store is untouched");

        // The count is what refuses it: the same places under the copy's own
        // count reproduce every fingerprint, on the wrong series.
        let misplaced = (Some(3), logged.1.clone());
        assert_eq!(verified(&copy, &[(0, 2000, 9.0)], &misplaced), Some(1));
        assert_eq!(copy.fingerprint(&b), store.fingerprint(&c));
        assert_ne!(copy.fingerprint(&c), store.fingerprint(&c));
    }

    /// One batch of `round` as owned strings: a point of each of `series`
    /// series, newest component first, so the batch is not in id order.
    fn owned_batch(round: u64, series: u64) -> Vec<(String, String, u64, f64)> {
        (0..series)
            .rev()
            .map(|i| {
                let value = ((round * 17 + i * 5) % 23) as f64;
                (
                    format!("c{}", i % 3),
                    format!("m{i:02}"),
                    round * 500,
                    value,
                )
            })
            .collect()
    }

    /// A store fed `points` in one go, through ids built once per series.
    fn reference_store(
        retention: RetentionPolicy,
        points: &[(String, String, u64, f64)],
    ) -> MetricStore {
        let store = MetricStore::with_retention(retention);
        let ids: BTreeMap<(&str, &str), MetricId> = points
            .iter()
            .map(|(c, m, ..)| ((c.as_str(), m.as_str()), MetricId::new(c, m)))
            .collect();
        for (c, m, t, v) in points {
            store.record(&ids[&(c.as_str(), m.as_str())], *t, *v);
        }
        store
    }

    #[test]
    fn ids_built_from_fresh_strings_land_in_the_series_the_first_batch_created() {
        let retention = RetentionPolicy::windowed(8);
        let store = MetricStore::with_retention(retention);
        let mut fed = Vec::new();
        let mut outcome = BatchOutcome::default();
        for round in 0..20 {
            // Every id of every batch is interned anew from a fresh
            // `String`, so only the interner ties it to the stored one.
            let batch = owned_batch(round, 12);
            let ids: Vec<MetricId> = batch
                .iter()
                .map(|(c, m, ..)| MetricId::new(c.clone(), m.clone()))
                .collect();
            store.record_batch_detailed_into(
                &mut outcome,
                ids.iter().zip(&batch).map(|(id, (.., t, v))| (id, *t, *v)),
            );
            assert_eq!(outcome.accepted, 12, "round {round}");
            assert_eq!(store.series_count(), 12, "round {round}");
            // The first round creates every series; the later ones find
            // each in its place.
            let live: Vec<Watermark> = (0u32..)
                .zip(store.export().into_keys())
                .map(|(place, id)| Watermark {
                    fingerprint: store.fingerprint(&id).unwrap(),
                    id,
                    place: (round > 0).then_some(place),
                })
                .collect();
            assert_eq!(outcome.watermarks.list, live, "round {round}");
            fed.extend(batch);
        }
        assert_eq!(store.freeze(), reference_store(retention, &fed).freeze());
    }

    #[test]
    fn an_interner_sweep_between_batches_moves_no_point_to_another_series() {
        let retention = RetentionPolicy::unbounded();
        let store = MetricStore::with_retention(retention);
        let mut fed = Vec::new();
        let mut churned = 0usize;
        for round in 0..4 {
            let mut batch = owned_batch(round, 6);
            // A series first seen this round, named after the churn freed
            // the allocations it could reuse.
            batch.push((format!("new{round}"), "m".to_string(), round * 500, 1.0));
            let ids: Vec<MetricId> = batch
                .iter()
                .map(|(c, m, ..)| MetricId::new(c.as_str(), m.as_str()))
                .collect();
            store.record_batch(ids.iter().zip(&batch).map(|(id, (.., t, v))| (id, *t, *v)));
            fed.extend(batch);
            drop(ids);

            // Churn throwaway names — each probed against the store and
            // dropped — until the interner has swept, and at least twice
            // its sweep floor (1,024) of them.
            let mut swept = false;
            let mut this_round = 0usize;
            while !(swept && this_round > 2 * 1024) {
                assert!(this_round < 1 << 20, "the interner never swept");
                let before = Name::interned_count();
                let throwaway = MetricId::new(format!("churn{churned}"), "m");
                assert_eq!(store.fingerprint(&throwaway), None);
                drop(throwaway);
                swept |= Name::interned_count() <= before;
                churned += 1;
                this_round += 1;
            }
        }
        assert_eq!(store.series_count(), 6 + 4);
        assert_eq!(store.freeze(), reference_store(retention, &fed).freeze());
    }

    #[test]
    fn restored_store_continues_bit_identically() {
        let id = MetricId::new("web", "cpu");
        let live = MetricStore::with_retention(RetentionPolicy::windowed(5));
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

        // The frozen dirty mark survives: both report the series touched.
        assert_eq!(restored.drain_delta(), live.drain_delta());

        // Continuing the stream on both sides stays bit-identical — the
        // restored window starts at offset 0, the live one mid-buffer.
        for t in 38..80u64 {
            assert!(live.record(&id, t * 500, (t % 13) as f64));
            assert!(restored.record(&id, t * 500, (t % 13) as f64));
        }
        assert_eq!(restored.fingerprint(&id), live.fingerprint(&id));
        assert_eq!(
            restored.series(&id).unwrap().values(),
            live.series(&id).unwrap().values()
        );
        assert_eq!(restored.freeze(), live.freeze());
    }

    #[test]
    fn an_image_ingest_cannot_build_is_refused_by_the_clause_it_breaks() {
        // Under a window of 3, `web/cpu` retains three of its five points
        // and `db/mem` both of its two: 7 written, 2 evicted, 5 retained.
        let store = MetricStore::with_retention(RetentionPolicy::windowed(3));
        let (cpu, mem) = (MetricId::new("web", "cpu"), MetricId::new("db", "mem"));
        for t in 0..5u64 {
            store.record(&cpu, t * 500, t as f64);
        }
        store.record_batch([(&mem, 0, 1.0), (&mem, 500, 2.0)]);
        let image = store.freeze();
        assert_eq!(image.validate(), Ok(()));
        assert_eq!(image.series[1].timestamps_ms, [1000, 1500, 2000]);
        type Edit = fn(&mut StoreState);
        let refused = |edit: Edit| {
            let mut broken = image.clone();
            edit(&mut broken);
            broken.validate().unwrap_err()
        };
        let cases: [(Edit, &str); 8] = [
            (
                |s| s.series.swap(0, 1),
                "ids not strictly ascending: db/mem after web/cpu",
            ),
            (
                |s| s.series.insert(1, s.series[0].clone()),
                "ids not strictly ascending: db/mem after db/mem",
            ),
            (
                |s| s.series[1].values.truncate(2),
                "web/cpu: 3 timestamps but 2 values",
            ),
            (
                |s| s.series[1].timestamps_ms[2] = 1500,
                "web/cpu: non-monotone timestamp at 1500",
            ),
            (
                |s| s.series[1].values[1] = f64::NAN,
                "web/cpu: non-finite value at 1500",
            ),
            (
                |s| s.retention = RetentionPolicy::windowed(2),
                "web/cpu: a window of 3 past the capacity 2",
            ),
            (
                |s| s.points_written -= 1,
                "windows of 5 points in all, but 6 written less 2 evicted",
            ),
            // Unchecked, `retained_point_count` would underflow.
            (
                |s| s.points_evicted = s.points_written + 1,
                "windows of 5 points in all, but 7 written less 8 evicted",
            ),
        ];
        for (edit, reason) in cases {
            assert_eq!(refused(edit), reason);
        }
    }

    #[test]
    fn windowed_db_size_is_flat_under_sustained_ingest() {
        let store = MetricStore::with_retention(RetentionPolicy::windowed(16));
        let id = MetricId::new("web", "cpu");
        for t in 0..2_000u64 {
            store.record(&id, t, t as f64);
        }
        assert_eq!(store.retained_point_count(), 16, "the window is full");
        for t in 2_000..4_000u64 {
            store.record(&id, t, t as f64);
        }
        assert_eq!(store.retained_point_count(), 16, "and stays flat");
        assert_eq!(store.evicted_point_count(), 4_000 - 16);
    }

    #[test]
    fn a_reader_never_waits_for_another_reader() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        // One thread sits inside a `for_each_component` callback (read guard
        // held) until a second thread has finished every copying and
        // visiting read. A read that took the write lock for any reason
        // would wait for the callback to return.
        let store = &populated();
        let id = MetricId::new("web", "cpu");
        let (inside_tx, inside_rx) = channel();
        let (done_tx, done_rx) = channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut finished_in_time = None;
                store.for_each_component(|_| {
                    finished_in_time.get_or_insert_with(|| {
                        inside_tx.send(()).unwrap();
                        done_rx.recv_timeout(Duration::from_secs(10)).is_ok()
                    });
                });
                assert_eq!(
                    finished_in_time,
                    Some(true),
                    "the reads blocked behind a held read guard"
                );
            });
            inside_rx.recv().unwrap();
            let mut visited = 0;
            store.for_each_series_of("web", |_, series| visited += series.len());
            store.for_each_series_named("cpu", |_, series| visited += series.len());
            visited += store.series(&id).unwrap().len();
            assert_eq!(visited, 300 + 200 + 100);
            done_tx.send(()).unwrap();
        });
    }
}
