//! The durability glue: one logged shard per registry shard, the one path
//! a tenant mutation takes to become durable, the snapshot cadence and
//! the one snapshot writer.
//!
//! The dataplane's lock order is this module's code rather than a
//! convention its callers keep: [`SieveService::mutate`] is the only
//! function that takes a shard's `admin` lock around a tenant's
//! apply-order lock, and the only one that stages a frame — so a frame
//! staged outside the apply-order lock, or a cadence bump with `admin`
//! still held, cannot be written.

use crate::checkpoint::Checkpoints;
use crate::config::DurabilityConfig;
use crate::registry::ShardedRegistry;
use crate::service::SieveService;
use crate::stats::ServiceStats;
use crate::tenant::{Mutation, Tenant};
use crate::{Result, ServeError};
use sieve_exec::hash::shard_index;
use sieve_wal::{
    log_file_name, read_format, snapshot_file_name, write_format, GroupCommitLog, ShardSnapshot,
    TenantSnapshot, WalError, WalEvent, FORMAT,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One shard's durable state: a cross-thread group-commit log, the
/// admin/snapshot coordination lock and the snapshot-cadence counter.
///
/// Concurrency layout: ingest and single-tenant admin mutations hold
/// `admin` for *read* across apply-to-memory + stage-to-log + commit, so
/// many writers proceed in parallel and group-commit through one
/// leader's write. Tenant creation and shard snapshots hold `admin` for
/// *write*: they observe a quiesced shard whose in-memory stores match
/// the staged log exactly. Per-tenant apply order — the shard log's
/// per-tenant frame order must equal the store's apply order, which is
/// what replay verification checks — is protected by the finer
/// [`Tenant::apply_order`] lock, not by this one.
#[derive(Debug)]
struct DurableShard {
    log: GroupCommitLog,
    admin: RwLock<()>,
    events_since_snapshot: AtomicU64,
}

/// The durability side of a service: one logged shard per registry shard
/// (same deterministic routing hash, so "log shard" and "registry shard"
/// are the same partition of the tenant space).
#[derive(Debug)]
pub(crate) struct DurableLog {
    config: DurabilityConfig,
    shards: Vec<DurableShard>,
    /// The shards' analysis checkpoints: a cache beside the durable state,
    /// written after sweeps, never on this module's mutation path.
    pub(crate) checkpoints: Checkpoints,
}

impl SieveService {
    /// The one path by which a tenant mutation is applied and, on a
    /// durable service, logged: *admin → the tenant's apply-order lock →
    /// [`Tenant::apply`] → stage → release apply-order → commit → release
    /// admin → cadence*. Returns the ingest points the mutation accepted.
    ///
    /// A `TenantCreated` record registers `tenant` before it is applied,
    /// holding `admin` for *write*: between registering the tenant and
    /// staging its creation record, no snapshot may list the shard's tenants and no
    /// ingest may stage a frame for the new name ahead of the record that
    /// introduces it. Every other mutation holds it for *read*, in
    /// parallel with the shard's other writers.
    ///
    /// On a service without durability the mutation is applied under no
    /// lock at all (the memory-only ingest fast path). Otherwise `apply`
    /// encodes the event into the tenant's scratch `payload`, and staging
    /// it is done here, under the apply-order lock: what a mutation does
    /// to the store or the session and the frame that records it happen
    /// atomically per tenant, so the shard log's per-tenant frame order
    /// equals the apply order replay verifies against, and a snapshot
    /// (which takes `admin` for write) never observes an event that is
    /// applied but not yet staged. The commit wait comes after the
    /// apply-order lock is released, so concurrent writers of one shard
    /// group-commit together.
    ///
    /// # Errors
    ///
    /// [`crate::ServeError::DuplicateTenant`] when a created tenant's name
    /// is taken; [`crate::ServeError::Wal`] when the commit (or a snapshot
    /// the cadence tripped) fails: the mutation *is* applied in memory but
    /// not durable.
    pub(crate) fn mutate(&self, tenant: &Arc<Tenant>, mutation: Mutation<'_>) -> Result<usize> {
        let creating = matches!(mutation, Mutation::Admin(WalEvent::TenantCreated { .. }));
        // `apply` returns `None` only for a replayed batch, which never
        // comes this way.
        let Some(durable) = &self.durable else {
            if creating {
                self.registry.insert(Arc::clone(tenant))?;
            }
            return Ok(tenant.apply(mutation, None).unwrap_or_default());
        };
        let shard = shard_index(tenant.name.as_str(), durable.shards.len());
        let dshard = &durable.shards[shard];
        let shared = (!creating).then(|| dshard.admin.read().expect(ADMIN_POISONED));
        let exclusive = creating.then(|| dshard.admin.write().expect(ADMIN_POISONED));
        let (accepted, staged) = {
            let mut scratch = tenant.apply_order();
            if creating {
                self.registry.insert(Arc::clone(tenant))?;
            }
            scratch.payload.clear();
            let accepted = tenant.apply(mutation, Some(&mut scratch));
            let payload = &scratch.payload;
            let staged = (!payload.is_empty()).then(|| dshard.log.stage_encoded(payload));
            (accepted.unwrap_or_default(), staged)
        };
        if let Some(seq) = staged {
            dshard.log.commit_through(seq)?;
            // The cadence takes `admin` for write when it trips.
            drop((shared, exclusive));
            durable.note_logged_event(&self.registry, shard)?;
        }
        Ok(accepted)
    }
}

const ADMIN_POISONED: &str = "shard admin lock poisoned";

impl DurableLog {
    /// Creates a fresh durable directory for a *new* service: every shard
    /// file of a previous incarnation is wiped, its analysis checkpoints
    /// included, whatever shard count wrote it (a new service must not
    /// inherit a predecessor's tenants — that's what
    /// [`SieveService::recover`] is for).
    pub(crate) fn create(durability: &DurabilityConfig, shard_count: usize) -> Result<Self> {
        std::fs::create_dir_all(&durability.dir).map_err(WalError::from)?;
        let wiped = [DURABLE_EXTENSIONS, CHECKPOINT_EXTENSIONS].concat();
        for (_, path) in shard_files(&durability.dir, &wiped)? {
            std::fs::remove_file(path).map_err(WalError::from)?;
        }
        write_format(&durability.dir)?;
        let durable = Self::open(durability, std::iter::repeat(1).take(shard_count))?;
        // The format record's and the fresh logs' entries are on disk
        // before a frame is committed into them.
        sync_dir(&durability.dir)?;
        Ok(durable)
    }

    /// Re-anchors a recovered directory at the tenants in `registry`: per
    /// shard a writer continuing at the recovered sequence, one fresh
    /// snapshot and an empty log — a corrupt tail is physically gone. Every
    /// snapshot is renamed into place and the directory synced once before
    /// any log is truncated.
    pub(crate) fn reanchor(
        durability: &DurabilityConfig,
        registry: &ShardedRegistry,
        next_seqs: impl IntoIterator<Item = u64>,
    ) -> Result<Self> {
        let durable = Self::open(durability, next_seqs)?;
        // Nothing else can reach `durable` yet: every shard is quiesced.
        for shard in 0..durable.shards.len() {
            durable.write_snapshot(registry, shard)?;
        }
        sync_dir(&durability.dir)?;
        for shard in 0..durable.shards.len() {
            durable.truncate_log(shard)?;
        }
        Ok(durable)
    }

    /// Opens shard `i`'s log for appending at the `i`-th sequence number.
    fn open(
        durability: &DurabilityConfig,
        next_seqs: impl IntoIterator<Item = u64>,
    ) -> Result<Self> {
        let mut shards = Vec::new();
        for (shard, next_seq) in next_seqs.into_iter().enumerate() {
            let path = durability.dir.join(log_file_name(shard));
            shards.push(DurableShard {
                log: GroupCommitLog::open(&path, next_seq, durability.fsync)?,
                admin: RwLock::new(()),
                events_since_snapshot: AtomicU64::new(0),
            });
        }
        Ok(Self {
            checkpoints: Checkpoints::new(&durability.dir, shards.len()),
            config: durability.clone(),
            shards,
        })
    }

    /// Counts one committed event towards the shard's snapshot cadence
    /// and snapshots the shard when it trips. Must be called with no shard
    /// admin guard held: tripping acquires the admin lock for *write* to
    /// quiesce the shard first.
    fn note_logged_event(&self, registry: &ShardedRegistry, shard: usize) -> Result<()> {
        let dshard = &self.shards[shard];
        let due = |since_snapshot: u64| since_snapshot >= self.config.snapshot_every_events;
        let counter = &dshard.events_since_snapshot;
        if due(counter.fetch_add(1, Ordering::AcqRel) + 1) {
            let _quiesced = dshard.admin.write().expect(ADMIN_POISONED);
            // Several writers can trip the cadence at once; whoever gets
            // the write lock first snapshots (resetting the counter), the
            // rest find the counter already settled and do nothing.
            if due(counter.load(Ordering::Acquire)) {
                self.snapshot_quiesced_shard(registry, shard)?;
            }
        }
        Ok(())
    }

    /// Writes an atomic snapshot of every tenant of `shard`, syncs the
    /// directory so the snapshot's rename is durable, then truncates the
    /// shard log — replay work after a crash is bounded by the snapshot
    /// cadence, not by service uptime. Without the directory sync, a crash
    /// could persist the truncation but not the rename, leaving the old
    /// snapshot (or none) beside an empty log.
    ///
    /// The caller holds the shard's admin lock for *write*: no ingest or
    /// admin mutation is mid-flight between a store and the log, so after
    /// the quiesce in [`DurableLog::write_snapshot`] the snapshot is
    /// consistent with exactly the log prefix it claims to cover.
    fn snapshot_quiesced_shard(&self, registry: &ShardedRegistry, shard: usize) -> Result<()> {
        self.write_snapshot(registry, shard)?;
        sync_dir(&self.config.dir)?;
        self.truncate_log(shard)
    }

    /// Writes an atomic snapshot of every tenant of the quiesced `shard`
    /// (frozen store image, session config, call graph, covering the log
    /// watermark `last_seq`): it is renamed into place, but its directory
    /// entry is durable only once the directory is synced.
    fn write_snapshot(&self, registry: &ShardedRegistry, shard: usize) -> Result<()> {
        let dshard = &self.shards[shard];
        // Quiesce the log: every staged frame is on media (or reported
        // failed to its writer) before the snapshot claims to cover it.
        dshard.log.commit_all()?;
        let snapshot = ShardSnapshot {
            shard,
            last_seq: dshard.log.last_seq(),
            tenants: registry
                .all_in_shard(shard)
                .iter()
                .map(|tenant| {
                    let session = tenant.session();
                    TenantSnapshot {
                        tenant: tenant.name.to_string(),
                        config: Box::new(session.config().clone()),
                        call_graph: session.call_graph().clone(),
                        store: tenant.store.freeze(),
                    }
                })
                .collect(),
        };
        snapshot.write_atomic(&self.config.dir.join(snapshot_file_name(shard)))?;
        Ok(())
    }

    /// Empties `shard`'s log, whose frames a snapshot made durable covers.
    /// (A crash between the snapshot's directory sync and this truncation
    /// is benign — the leftover frames carry sequence numbers at or below
    /// the snapshot's `last_seq` and recovery skips them.) `create`
    /// truncates the file in place, and the shard's append-mode log handle
    /// keeps working: `O_APPEND` writes land at the new end of file.
    fn truncate_log(&self, shard: usize) -> Result<()> {
        std::fs::File::create(self.config.dir.join(log_file_name(shard)))
            .and_then(|log| log.sync_data())
            .map_err(WalError::from)?;
        self.shards[shard]
            .events_since_snapshot
            .store(0, Ordering::Release);
        Ok(())
    }

    /// Folds the shard logs' group-commit counters and the checkpoint
    /// writer's counters into `stats`.
    pub(crate) fn absorb_commit_stats(&self, stats: &mut ServiceStats) {
        for shard in &self.shards {
            let log = shard.log.stats();
            stats.commits_coalesced += log.commits_coalesced;
            stats.fsync_calls += log.fsync_calls;
            stats.commit_wait_ns_total += log.commit_wait_ns_total;
        }
        self.checkpoints.absorb_stats(stats);
    }
}

/// The extensions of a shard's durable files: its log and its snapshot.
const DURABLE_EXTENSIONS: &[&str] = &["log", "snap", "snap.tmp"];

/// The extensions of a shard's analysis checkpoint, a cache: no durable
/// state, so it never makes a directory written.
const CHECKPOINT_EXTENSIONS: &[&str] = &["ckpt", "ckpt.tmp"];

/// Every shard file (`wal-shard-<i>.<extension>`, for one of `extensions`)
/// directly inside `dir`, with the shard index `i` its name carries.
fn shard_files(dir: &Path, extensions: &[&str]) -> Result<Vec<(usize, PathBuf)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(WalError::from)? {
        let path = entry.map_err(WalError::from)?.path();
        let index = path.file_name().and_then(|name| {
            let (index, extension) = name.to_str()?.strip_prefix("wal-shard-")?.split_once('.')?;
            extensions
                .contains(&extension)
                .then(|| index.parse().ok())?
        });
        if let Some(index) = index {
            files.push((index, path));
        }
    }
    Ok(files)
}

/// The shard count that wrote the durable directory `dir` (0 for an empty
/// one): every shard's log exists from the moment a service runs, so it
/// is one past the highest shard index a file in `dir` carries.
///
/// # Errors
///
/// [`ServeError::InvalidConfig`], naming the file, when a shard file's
/// index is `usize::MAX`: no shard count is one past it.
pub(crate) fn written_shard_count(dir: &Path) -> Result<usize> {
    let mut count = 0;
    for (index, path) in shard_files(dir, DURABLE_EXTENSIONS)? {
        let Some(past) = index.checked_add(1) else {
            let reason = format!("{} names a shard past any shard count", path.display());
            return Err(ServeError::InvalidConfig { reason });
        };
        count = count.max(past);
    }
    Ok(count)
}

/// Refuses the durable directory `dir`, which holds shard files, unless its
/// format record names this build's format. Reads the record's fixed-size
/// header and changes nothing.
///
/// # Errors
///
/// [`ServeError::FormatTooOld`] when there is no record or it names an
/// older format, [`ServeError::FormatTooNew`] when it names a newer one,
/// [`ServeError::Wal`] when it cannot be read or is not a format record.
pub(crate) fn check_format(dir: &Path) -> Result<()> {
    match read_format(dir)? {
        Some(FORMAT) => Ok(()),
        Some(found) if found > FORMAT => Err(ServeError::FormatTooNew { found }),
        found => Err(ServeError::FormatTooOld { found }),
    }
}

/// Syncs the directory `dir` itself, so the entries created, renamed or
/// removed in it so far survive a crash.
fn sync_dir(dir: &Path) -> Result<()> {
    std::fs::File::open(dir)
        .and_then(|dir| dir.sync_all())
        .map_err(WalError::from)?;
    Ok(())
}
