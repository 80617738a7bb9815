//! What [`crate::service::SieveService::recover`] found on disk and what
//! it could (and could not) bring back.
//!
//! Recovery is per shard and per tenant: a torn or bit-flipped region in
//! one shard's log costs exactly the events that were in it — the
//! affected tenants are marked [`TenantRecovery::Recovered`] with their
//! precise lost suffix, every other tenant (and every other shard) comes
//! back [`TenantRecovery::Clean`], and the service as a whole always
//! boots. "Never a panic, never a silently wrong model": a tenant either
//! republishes a bit-identical model for its intact prefix or tells you
//! exactly how many events and points it lost.
//!
//! The read half of recovery lives here next to its report:
//! `recover_shard` turns one shard's snapshot and log into a
//! [`ShardRecovery`] and the tenants it could restore, without changing a
//! byte on disk, and decides whether the shard's files must be re-anchored
//! ([`ShardRecovery::anchored`]).

use crate::checkpoint::Seeds;
use crate::registry::ShardedRegistry;
use crate::tenant::{Mutation, Tenant};
use crate::{Result, ServeError};
use sieve_core::SieveConfig;
use sieve_exec::hash::shard_index;
use sieve_exec::Name;
use sieve_graph::CallGraph;
use sieve_simulator::store::MetricStore;
use sieve_wal::{AdminEvent, Frame, IngestBatch, ShardDir, WalError, WalEvent};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The per-tenant outcome of a recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantRecovery {
    /// Every logged event of the tenant was replayed; the next sweep
    /// republishes a model bit-identical to the pre-crash live one.
    Clean {
        /// Points replayed from snapshot-tail log frames (points already
        /// inside the snapshot image are not counted — they were not
        /// replayed).
        points_replayed: u64,
    },
    /// The tenant came back, but a suffix of its history is gone: events
    /// after the first corrupt log frame (or events whose replay did not
    /// reproduce the logged digest of their fingerprints) were discarded. The
    /// tenant serves its intact prefix and re-converges as ingest
    /// resumes.
    Recovered {
        /// Points replayed from the intact log prefix.
        points_replayed: u64,
        /// Exactly what was lost after the intact prefix.
        lost_suffix: LostSuffix,
    },
}

impl TenantRecovery {
    /// Points replayed from the log, whichever variant.
    pub fn points_replayed(&self) -> u64 {
        match self {
            Self::Clean { points_replayed }
            | Self::Recovered {
                points_replayed, ..
            } => *points_replayed,
        }
    }

    /// Whether the tenant lost nothing.
    pub(crate) fn is_clean(&self) -> bool {
        matches!(self, Self::Clean { .. })
    }

    /// The lost suffix, if any.
    pub(crate) fn lost_suffix(&self) -> Option<&LostSuffix> {
        match self {
            Self::Clean { .. } => None,
            Self::Recovered { lost_suffix, .. } => Some(lost_suffix),
        }
    }
}

/// The accounted loss of one tenant: how many logged events (and the
/// ingest points inside them) could not be replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LostSuffix {
    /// Logged events (ingest batches and admin operations) discarded.
    pub events: u64,
    /// Ingest points inside the discarded events.
    pub points: u64,
}

/// A summary of the corrupt region of one shard's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionSummary {
    /// Byte offset of the first bad frame.
    pub offset: u64,
    /// What failed first (checksum mismatch, torn header, …).
    pub reason: String,
    /// Bytes of the corrupt region that no surviving frame accounts for.
    pub lost_bytes: u64,
}

/// What a shard's analysis checkpoint gave the tenants recovery opened.
/// Every opened tenant is counted once: seeded, or a miss for one reason.
/// A seeded tenant's first sweep still recomputes each entry whose content
/// key no longer matches (a checkpoint older than the crash), and its
/// `SessionStats` count those.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointSeeding {
    /// Tenants whose session was seeded from their record.
    pub tenants_seeded: usize,
    /// Cache entries — clusterings plus Granger verdicts — seeded into them.
    pub entries_seeded: u64,
    /// Tenants with no record: there was no checkpoint, or it held none
    /// for them.
    pub missing: usize,
    /// Tenants with no record in a checkpoint that was unreadable, or that
    /// held a damaged record (theirs may have been it).
    pub corrupt: usize,
    /// Tenants of a shard whose checkpoint is of another on-disk format.
    pub other_format: usize,
    /// Tenants whose record was computed under another configuration
    /// fingerprint: another analysis configuration or another build's
    /// analysis code.
    pub key_mismatch: usize,
}

impl CheckpointSeeding {
    /// Adds `other`'s counts to these.
    fn add(&mut self, other: &Self) {
        self.tenants_seeded += other.tenants_seeded;
        self.entries_seeded += other.entries_seeded;
        self.missing += other.missing;
        self.corrupt += other.corrupt;
        self.other_format += other.other_format;
        self.key_mismatch += other.key_mismatch;
    }
}

/// The recovery outcome of one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecovery {
    /// The shard index.
    pub shard: usize,
    /// `last_seq` of the snapshot the shard was restored from (0 when no
    /// snapshot existed).
    pub snapshot_last_seq: u64,
    /// Whether a snapshot file existed but failed verification. The
    /// shard then recovered from the log alone; tenants whose creation
    /// record lived only in the snapshot are reported but cannot be
    /// re-registered.
    pub snapshot_corrupt: bool,
    /// Highest log sequence number whose effects are in the recovered
    /// state.
    pub recovered_through_seq: u64,
    /// Log frames replayed (frames at or below the snapshot watermark
    /// are skipped, not replayed).
    pub frames_replayed: u64,
    /// Points the tenants' retention windows evicted while replay appended
    /// to them — replayed points, and snapshot points they pushed out: the
    /// growth of each tenant store's evicted count from the moment
    /// recovery opened it, summed.
    pub points_evicted: u64,
    /// The corrupt region of the log, if the log did not end cleanly.
    pub corruption: Option<CorruptionSummary>,
    /// Bytes of log read: the length of the shard's log file (0 when there
    /// was none).
    pub log_bytes: u64,
    /// Metric ids read from the log, each interned at its sight: one per
    /// spelled watermark — a series its batch created — of every intact
    /// ingest frame, replayed or not, and every resynchronized one.
    pub ids_decoded: u64,
    /// Watermarks read as a place in their tenant's store, with no id to
    /// decode: every other watermark of the same frames.
    pub watermarks_placed: u64,
    /// Wall time spent reading and decoding the shard's analysis
    /// checkpoint, in nanoseconds (seeding a session happens when the
    /// snapshot or a creation record opens its tenant).
    pub checkpoint_ns: u64,
    /// What the checkpoint gave the tenants this shard opened.
    pub checkpoint: CheckpointSeeding,
    /// Wall time spent reading the snapshot and restoring its tenants —
    /// stores and sessions — in nanoseconds.
    pub snapshot_ns: u64,
    /// Wall time spent inside the log file's `read` calls: the refills of
    /// the window the walk reads the log through.
    pub log_read_ns: u64,
    /// Wall time spent walking the log, its reads aside — opening the file,
    /// checksums, decode, opening the tenants creation records introduce,
    /// applying every other frame — and accounting the resynchronized
    /// frames.
    pub replay_ns: u64,
    /// Wall time spent checking that every tenant the shard holds routes
    /// to it and registering the recovered ones (their sessions were built
    /// when the snapshot or a creation record introduced them).
    pub rehydrate_ns: u64,
    /// Per-tenant outcomes, keyed by tenant name. A tenant present here
    /// but absent from [`crate::service::SieveService::tenants`] lost its
    /// creation record entirely (corrupt snapshot plus truncated log) and
    /// must be re-created to resume.
    pub tenants: BTreeMap<String, TenantRecovery>,
    /// Whether recovery re-anchored the shard: wrote a fresh snapshot and
    /// emptied its log. A shard keeps its files as found when its log
    /// existed, it recovered clean, every frame read was past the
    /// snapshot's watermark and it replayed fewer frames than one snapshot
    /// cadence; its writer then appends after the log's last frame.
    pub anchored: bool,
}

impl ShardRecovery {
    /// Whether the shard lost nothing: its log ended cleanly, its snapshot
    /// (if any) verified, and every tenant replayed every logged event.
    fn is_clean(&self) -> bool {
        self.corruption.is_none()
            && !self.snapshot_corrupt
            && self.tenants.values().all(TenantRecovery::is_clean)
    }
}

/// The complete outcome of a [`crate::service::SieveService::recover`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// One entry per registry shard, in shard order.
    pub shards: Vec<ShardRecovery>,
    /// Wall time spent re-anchoring the directory once every shard was
    /// read — reopening the logs, then one fresh snapshot and an emptied
    /// log per [`ShardRecovery::anchored`] shard — in nanoseconds.
    pub reanchor_ns: u64,
}

impl RecoveryReport {
    /// Whether every tenant of every shard recovered cleanly.
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(ShardRecovery::is_clean)
    }

    /// The outcome of one tenant, if it appears in any shard.
    pub fn tenant(&self, name: &str) -> Option<&TenantRecovery> {
        self.shards.iter().find_map(|shard| shard.tenants.get(name))
    }

    /// Total points replayed from logs across all shards.
    pub fn points_replayed(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|shard| shard.tenants.values())
            .map(TenantRecovery::points_replayed)
            .sum()
    }

    /// What the shards' checkpoints gave the recovered tenants, summed.
    pub fn checkpoint(&self) -> CheckpointSeeding {
        let mut total = CheckpointSeeding::default();
        for shard in &self.shards {
            total.add(&shard.checkpoint);
        }
        total
    }

    /// Total accounted loss across all shards.
    pub(crate) fn lost(&self) -> LostSuffix {
        let mut total = LostSuffix::default();
        for recovery in self.shards.iter().flat_map(|shard| shard.tenants.values()) {
            if let Some(lost) = recovery.lost_suffix() {
                total.events += lost.events;
                total.points += lost.points;
            }
        }
        total
    }

    /// Tenants that did not recover cleanly, sorted by name.
    pub(crate) fn degraded_tenants(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .shards
            .iter()
            .flat_map(|shard| shard.tenants.iter())
            .filter(|(_, recovery)| !recovery.is_clean())
            .map(|(name, _)| name.as_str())
            .collect();
        names.sort_unstable();
        names
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tenants: usize = self.shards.iter().map(|s| s.tenants.len()).sum();
        let frames: u64 = self.shards.iter().map(|s| s.frames_replayed).sum();
        let anchored = self.shards.iter().filter(|s| s.anchored).count();
        let lost = self.lost();
        write!(
            f,
            "recovered {} tenants from {} shards ({} anchored): {} frames, \
             {} points replayed, {} cache entries seeded",
            tenants,
            self.shards.len(),
            anchored,
            frames,
            self.points_replayed(),
            self.checkpoint().entries_seeded
        )?;
        if self.is_clean() {
            write!(f, "; clean")
        } else {
            write!(
                f,
                "; lost {} events ({} points) across {} degraded tenants",
                lost.events,
                lost.points,
                self.degraded_tenants().len()
            )?;
            // A torn or corrupt region nobody resynced past is loss that
            // cannot be pinned on a tenant — surface it in bytes.
            let unattributable: u64 = self
                .shards
                .iter()
                .filter_map(|shard| shard.corruption.as_ref())
                .map(|corruption| corruption.lost_bytes)
                .sum();
            if unattributable > 0 {
                write!(f, ", {unattributable} corrupt bytes discarded")?;
            }
            Ok(())
        }
    }
}

/// The refusal for a directory that a different `shard_count` wrote: tenant
/// routing depends on the count, so recovering under another one would
/// lose tenants (or route their new frames to a log whose snapshot does
/// not hold them) while reporting a clean recovery.
pub(crate) fn shard_count_mismatch(shard_count: usize, found: String) -> ServeError {
    ServeError::InvalidConfig {
        reason: format!(
            "shard_count is {shard_count} but the durable directory holds {found}: \
             recover a directory with the shard count that wrote it"
        ),
    }
}

/// One tenant mid-replay: what recovery knows about it so far. The
/// default is a phantom — a name no creation record introduced, reported
/// but never restored.
#[derive(Default)]
struct Replaying {
    /// The tenant, `None` when it is known only by name from orphaned
    /// frames (its creation record was lost).
    tenant: Option<Arc<Tenant>>,
    /// The tenant store's evicted count when recovery opened it.
    evicted_at_open: u64,
    points_replayed: u64,
    /// Once anything is lost the tenant is degraded: no further event of
    /// it is applied — every later one joins the lost suffix (applying
    /// events after a gap would order history differently than the
    /// watermarks were computed against).
    lost: LostSuffix,
}

impl Replaying {
    /// A tenant recovery just opened.
    fn opened(tenant: Arc<Tenant>) -> Self {
        Self {
            evicted_at_open: tenant.store.evicted_point_count(),
            tenant: Some(tenant),
            ..Self::default()
        }
    }

    /// An event of `points` points cannot be applied: it joins the lost
    /// suffix.
    fn lose(&mut self, points: usize) {
        self.lost.events += 1;
        self.lost.points += points as u64;
    }

    fn outcome(&self) -> TenantRecovery {
        if self.lost.events > 0 {
            TenantRecovery::Recovered {
                points_replayed: self.points_replayed,
                lost_suffix: self.lost,
            }
        } else {
            TenantRecovery::Clean {
                points_replayed: self.points_replayed,
            }
        }
    }
}

/// Replays one frame of the log's intact prefix into the shard state, if
/// it still can be applied: a creation record of a new name opens the
/// tenant, any other frame is applied to it as the [`Mutation`] the live
/// service applied. An ingest batch is verified *before* being applied,
/// straight from the buffers the frame is lent from: the store writes it
/// only if that reproduces the digest of fingerprints logged with it —
/// a mismatch means replay would diverge from what the live service
/// applied, so the tenant degrades instead of silently rebuilding a
/// wrong model.
fn replay(replaying: &mut BTreeMap<String, Replaying>, seeds: &mut Seeds, frame: Frame<'_>) {
    let points = frame.point_count();
    let Some(replayed) = replaying.get_mut(frame.tenant()) else {
        // Only an intact creation record may introduce a name; any other
        // event of an unknown name makes it a phantom. The name is copied
        // only the first time it is seen.
        let name = frame.tenant().to_string();
        let mut introduced = Replaying::default();
        match frame {
            Frame::Admin(AdminEvent::TenantCreated {
                tenant,
                config,
                call_graph,
            }) => {
                let store = MetricStore::with_retention(config.retention);
                introduced = Replaying::opened(open(seeds, tenant, store, call_graph, *config));
            }
            _ => introduced.lose(points),
        }
        replaying.insert(name, introduced);
        return;
    };
    let applied = match (&replayed.tenant, frame) {
        // A degraded tenant applies nothing more.
        _ if replayed.lost.events > 0 => None,
        // A second creation record means the log and the snapshot
        // disagree: degrade rather than guess.
        (_, Frame::Admin(AdminEvent::TenantCreated { .. })) | (None, _) => None,
        (Some(tenant), Frame::Admin(event)) => tenant.apply(Mutation::Admin(event), None),
        (Some(tenant), Frame::Ingest(batch)) => tenant.apply(Mutation::Replay(batch), None),
    };
    match applied {
        Some(accepted) => replayed.points_replayed += accepted as u64,
        None => replayed.lose(points),
    }
}

/// A frame the scanner resynchronized after a corrupt region is
/// structurally sound but never applied (the events before it are gone):
/// it joins its tenant's lost suffix.
fn lose(replaying: &mut BTreeMap<String, Replaying>, event: &WalEvent) {
    let tenant = replaying.entry(event.tenant().to_string()).or_default();
    tenant.lose(event.point_count());
}

/// How the watermarks of a shard log's ingest frames name their series.
#[derive(Debug, Default)]
struct NameCounts {
    /// By id: [`ShardRecovery::ids_decoded`].
    spelled: u64,
    /// By place: [`ShardRecovery::watermarks_placed`].
    placed: u64,
}

impl NameCounts {
    fn count(&mut self, batch: &IngestBatch) {
        let spelled = batch.spelled.len();
        self.spelled += spelled as u64;
        self.placed += (batch.watermarks.len() - spelled) as u64;
    }
}

/// Opens a recovered tenant through [`Tenant::open`], seeded with its
/// checkpoint record if `seeds` holds one, and counts what it got.
///
/// Opening a recovered tenant cannot fail. Its `config` was decoded, from
/// a creation record or a snapshot, and the decoder refuses every
/// configuration [`SieveConfig::validate`] refuses, as a corrupt frame or
/// snapshot; the session refuses no other
/// (`a_session_refuses_only_what_the_decoder_refuses` pins this).
fn open(
    seeds: &mut Seeds,
    name: Name,
    store: MetricStore,
    call_graph: CallGraph,
    config: SieveConfig,
) -> Arc<Tenant> {
    let cache = seeds.take(name.as_str());
    let offered = cache.is_some();
    let (tenant, seeded) = Tenant::open(name, store, call_graph, config, cache)
        .expect("a decoded configuration passed the only check a session makes");
    seeds.count(offered, seeded);
    tenant
}

/// Nanoseconds since `start`.
pub(crate) fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Opens the tenants of shard `shard`'s snapshot in `dir`, seeded from
/// `seeds`. Returns the log watermark the snapshot covers (0 without one),
/// whether a snapshot file failed verification (recovery then falls back
/// to the log alone) and the opened tenants by name.
///
/// # Errors
///
/// [`ServeError::InvalidConfig`] for a snapshot of another shard,
/// [`ServeError::Wal`] on I/O failures.
fn restore_snapshot(
    dir: &ShardDir,
    shard: usize,
    shard_count: usize,
    seeds: &mut Seeds,
) -> Result<(u64, bool, BTreeMap<String, Replaying>)> {
    let mut replaying = BTreeMap::new();
    let snapshot = match dir.read_snapshot(shard) {
        Ok(Some(snapshot)) => snapshot,
        Ok(None) => return Ok((0, false, replaying)),
        Err(WalError::Corrupt { .. }) => return Ok((0, true, replaying)),
        Err(error) => return Err(error.into()),
    };
    if snapshot.shard != shard {
        let found = format!(
            "a snapshot of shard {} in shard {shard}'s file",
            snapshot.shard
        );
        return Err(shard_count_mismatch(shard_count, found));
    }
    for tenant in snapshot.tenants {
        let store = MetricStore::restore(tenant.store);
        let name = Name::new(&tenant.tenant);
        let opened = open(seeds, name, store, tenant.call_graph, *tenant.config);
        replaying.insert(tenant.tenant, Replaying::opened(opened));
    }
    Ok((snapshot.last_seq, false, replaying))
}

/// Reads shard `shard` of the durable directory `dir`: its analysis
/// checkpoint is read first, so that each tenant is seeded as it opens;
/// the snapshot's tenants are opened, the log's intact prefix past the
/// snapshot watermark is replayed through [`Tenant::apply`], the fold the
/// live service applies, and every tenant whose creation record survived
/// enters `registry`. Nothing on disk changes — re-anchoring the shards
/// whose files need it ([`ShardRecovery::anchored`], against the snapshot
/// cadence `snapshot_every_events`) is the caller's second step, taken only
/// once every shard has been read. Each of the five stages the report times
/// reads the clock twice; the log walk reads it twice more per refill of
/// its window, not per frame.
///
/// # Errors
///
/// [`ServeError::InvalidConfig`] when the shard's files were written under
/// a different shard count, [`ServeError::UnknownEventTag`] when its log
/// holds a frame another build wrote, [`ServeError::Wal`] on I/O failures.
pub(crate) fn recover_shard(
    dir: &ShardDir,
    shard: usize,
    shard_count: usize,
    snapshot_every_events: u64,
    registry: &ShardedRegistry,
) -> Result<ShardRecovery> {
    // A checkpoint is a cache: reading it cannot fail, and whatever it
    // lacks is a miss.
    let started = Instant::now();
    let mut seeds = Seeds::read(dir, shard);
    let checkpoint_ns = ns_since(started);

    let started = Instant::now();
    let (snapshot_last_seq, snapshot_corrupt, mut replaying) =
        restore_snapshot(dir, shard, shard_count, &mut seeds)?;
    let snapshot_ns = ns_since(started);

    // The log is read through the walk's window: each intact frame is
    // decoded into the walk's buffers, applied and released in turn, so
    // neither the log nor its decoded events are ever resident whole.
    let started = Instant::now();
    let mut frames = dir.log_frames(shard)?;
    let (mut frames_read, mut frames_replayed) = (0u64, 0u64);
    let mut recovered_through_seq = snapshot_last_seq;
    let mut names = NameCounts::default();
    while let Some((seq, frame)) = frames.next() {
        frames_read += 1;
        if let Frame::Ingest(batch) = &frame {
            names.count(batch);
        }
        if seq > snapshot_last_seq {
            frames_replayed += 1;
            recovered_through_seq = seq;
            replay(&mut replaying, &mut seeds, frame);
        }
    }
    let (log_bytes, log_read_ns) = (frames.bytes_read(), frames.read_ns());
    let corruption = frames.finish().map_err(WalError::from)?;
    if let Some(corruption) = &corruption {
        if let Some(tag) = corruption.unknown_tag {
            let offset = corruption.offset;
            return Err(ServeError::UnknownEventTag { shard, offset, tag });
        }
    }
    for (seq, event) in corruption.iter().flat_map(|c| &c.resynced) {
        if let WalEvent::IngestBatch(batch) = event {
            names.count(batch);
        }
        if *seq > snapshot_last_seq {
            lose(&mut replaying, event);
        }
    }
    let replay_ns = ns_since(started).saturating_sub(log_read_ns);

    let started = Instant::now();
    let mut report_tenants = BTreeMap::new();
    let mut points_evicted = 0;
    for (name, replayed) in replaying {
        let routed = shard_index(&name, shard_count);
        if routed != shard {
            let found =
                format!("tenant `{name}` in shard {shard}, which it routes to shard {routed}");
            return Err(shard_count_mismatch(shard_count, found));
        }
        report_tenants.insert(name, replayed.outcome());
        // Without its creation record (corrupt snapshot plus truncated
        // log) a tenant is reported but cannot be re-registered.
        if let Some(tenant) = replayed.tenant {
            points_evicted += tenant.store.evicted_point_count() - replayed.evicted_at_open;
            registry.insert(tenant)?;
        }
    }
    let rehydrate_ns = ns_since(started);
    let mut recovery = ShardRecovery {
        shard,
        snapshot_last_seq,
        snapshot_corrupt,
        recovered_through_seq,
        frames_replayed,
        points_evicted,
        corruption: corruption.map(|corruption| CorruptionSummary {
            offset: corruption.offset,
            reason: corruption.reason,
            lost_bytes: corruption.lost_bytes,
        }),
        log_bytes,
        ids_decoded: names.spelled,
        watermarks_placed: names.placed,
        checkpoint_ns,
        checkpoint: seeds.tally(),
        snapshot_ns,
        log_read_ns,
        replay_ns,
        rehydrate_ns,
        tenants: report_tenants,
        anchored: true,
    };
    // The files describe exactly the recovered state, and the writer can
    // append after the last frame without a second crash replaying more
    // than one cadence: nothing to re-anchor.
    recovery.anchored = !(dir.has_log(shard)
        && recovery.is_clean()
        && frames_read == frames_replayed
        && frames_replayed < snapshot_every_events);
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RecoveryReport {
        let mut tenants = BTreeMap::new();
        tenants.insert(
            "alpha".to_string(),
            TenantRecovery::Clean {
                points_replayed: 40,
            },
        );
        tenants.insert(
            "beta".to_string(),
            TenantRecovery::Recovered {
                points_replayed: 12,
                lost_suffix: LostSuffix {
                    events: 3,
                    points: 9,
                },
            },
        );
        RecoveryReport {
            shards: vec![ShardRecovery {
                shard: 0,
                snapshot_last_seq: 5,
                snapshot_corrupt: false,
                recovered_through_seq: 17,
                frames_replayed: 12,
                points_evicted: 0,
                corruption: Some(CorruptionSummary {
                    offset: 4096,
                    reason: "checksum mismatch in frame seq 18".to_string(),
                    lost_bytes: 96,
                }),
                log_bytes: 0,
                ids_decoded: 0,
                watermarks_placed: 0,
                checkpoint_ns: 0,
                checkpoint: CheckpointSeeding {
                    tenants_seeded: 1,
                    entries_seeded: 7,
                    missing: 1,
                    ..CheckpointSeeding::default()
                },
                snapshot_ns: 0,
                log_read_ns: 0,
                replay_ns: 0,
                rehydrate_ns: 0,
                tenants,
                anchored: true,
            }],
            reanchor_ns: 0,
        }
    }

    #[test]
    fn a_session_refuses_only_what_the_decoder_refuses() {
        // `open` expects every recovered tenant to open, because the
        // decoder refuses what `SieveConfig::validate` refuses: each clause
        // broken alone, and configurations it accepts.
        let valid = SieveConfig::default();
        let granger = || valid.granger.clone();
        let configs = [
            valid.clone(),
            SieveConfig {
                parallelism: 1,
                retention: sieve_simulator::store::RetentionPolicy::windowed(1),
                ..valid.clone().with_cluster_range(1, 1)
            },
            SieveConfig {
                interval_ms: 0,
                ..valid.clone()
            },
            valid.clone().with_cluster_range(0, 3),
            valid.clone().with_cluster_range(4, 3),
            SieveConfig {
                kshape_max_iterations: 0,
                ..valid.clone()
            },
            SieveConfig {
                variance_threshold: f64::NAN,
                ..valid.clone()
            },
            SieveConfig {
                variance_threshold: -0.5,
                ..valid.clone()
            },
            SieveConfig {
                granger: sieve_core::GrangerConfig {
                    max_lag: 0,
                    ..granger()
                },
                ..valid.clone()
            },
            SieveConfig {
                granger: sieve_core::GrangerConfig {
                    significance: 1.0,
                    ..granger()
                },
                ..valid.clone()
            },
        ];
        for config in configs {
            let store = MetricStore::with_retention(config.retention);
            let graph = CallGraph::new();
            let opened = Tenant::open(Name::new("t"), store, graph, config.clone(), None);
            assert_eq!(opened.is_ok(), config.validate().is_ok(), "{config:?}");
        }
    }

    #[test]
    fn aggregates_and_display() {
        let report = report();
        assert!(!report.is_clean());
        assert_eq!(report.points_replayed(), 52);
        assert_eq!(
            report.lost(),
            LostSuffix {
                events: 3,
                points: 9
            }
        );
        assert_eq!(report.degraded_tenants(), vec!["beta"]);
        assert!(report.tenant("alpha").unwrap().is_clean());
        assert_eq!(report.tenant("beta").unwrap().points_replayed(), 12);
        assert!(report.tenant("ghost").is_none());
        let text = report.to_string();
        assert!(text.contains("lost 3 events (9 points)"), "{text}");
        assert!(text.contains("7 cache entries seeded"), "{text}");
        assert!(text.contains("from 1 shards (1 anchored)"), "{text}");
        assert_eq!(report.checkpoint().missing, 1);

        let clean = RecoveryReport {
            shards: vec![],
            reanchor_ns: 0,
        };
        assert!(clean.is_clean());
        assert!(clean.to_string().contains("clean"));
    }
}
