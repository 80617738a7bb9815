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
use crate::recovery::ShardRecovery;
use crate::registry::ShardedRegistry;
use crate::service::SieveService;
use crate::stats::ServiceStats;
use crate::tenant::{Mutation, Tenant};
use crate::Result;
use sieve_exec::hash::shard_index;
use sieve_wal::{AdminEvent, FsyncPolicy, GroupCommitLog, ShardDir, ShardSnapshot, TenantSnapshot};
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
    /// The durable directory: every file operation goes through it.
    pub(crate) dir: ShardDir,
    snapshot_every_events: u64,
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
        let creating = matches!(mutation, Mutation::Admin(AdminEvent::TenantCreated { .. }));
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
    /// Creates a fresh durable directory for a *new* service, which must
    /// not inherit a predecessor's tenants ([`SieveService::recover`]
    /// does that).
    pub(crate) fn create(durability: &DurabilityConfig, shard_count: usize) -> Result<Self> {
        let (dir, logs) = ShardDir::create(&durability.dir, shard_count, durability.fsync)?;
        Ok(Self::assemble(dir, logs, durability.snapshot_every_events))
    }

    /// Re-anchors the recovered directory `dir` at the tenants in
    /// `registry`, per shard as `recovered` found it: a writer continuing
    /// at the recovered sequence, and, for each [`ShardRecovery::anchored`]
    /// shard, one fresh snapshot and an empty log, so a corrupt tail is
    /// physically gone. Every other shard keeps its snapshot and log as
    /// found, and its cadence counter starts at the frames it replayed, so
    /// its next snapshot falls where its predecessor's would have and a
    /// second crash still replays less than one cadence.
    pub(crate) fn reanchor(
        mut dir: ShardDir,
        fsync: FsyncPolicy,
        snapshot_every_events: u64,
        registry: &ShardedRegistry,
        recovered: &[ShardRecovery],
    ) -> Result<Self> {
        let next_seqs = recovered
            .iter()
            .map(|shard| shard.recovered_through_seq + 1);
        let logs = dir.reopen_logs(next_seqs, fsync)?;
        let mut durable = Self::assemble(dir, logs, snapshot_every_events);
        for (dshard, shard) in durable.shards.iter_mut().zip(recovered) {
            if !shard.anchored {
                *dshard.events_since_snapshot.get_mut() = shard.frames_replayed;
            }
        }
        // Nothing else can reach `durable` yet: every shard is quiesced.
        let anchored = recovered.iter().filter(|shard| shard.anchored);
        durable
            .dir
            .anchor(anchored.map(|shard| shard.shard), |shard| {
                durable.snapshot(registry, shard)
            })?;
        Ok(durable)
    }

    /// The durable half of a service over `dir` and its open shard logs.
    fn assemble(dir: ShardDir, logs: Vec<GroupCommitLog>, snapshot_every_events: u64) -> Self {
        let shards: Vec<_> = logs
            .into_iter()
            .map(|log| DurableShard {
                log,
                admin: RwLock::new(()),
                events_since_snapshot: AtomicU64::new(0),
            })
            .collect();
        Self {
            checkpoints: Checkpoints::new(shards.len()),
            dir,
            snapshot_every_events,
            shards,
        }
    }

    /// Counts one committed event towards the shard's snapshot cadence
    /// and, when it trips, anchors the shard at a fresh snapshot
    /// ([`ShardDir::anchor`]), so replay work after a crash is bounded by
    /// the cadence, not by uptime. Must be called with no shard admin guard
    /// held: tripping takes the admin lock for *write*, so no mutation is
    /// mid-flight between a store and the log and the snapshot covers
    /// exactly the log prefix it claims to.
    fn note_logged_event(&self, registry: &ShardedRegistry, shard: usize) -> Result<()> {
        let dshard = &self.shards[shard];
        let due = |since_snapshot: u64| since_snapshot >= self.snapshot_every_events;
        let counter = &dshard.events_since_snapshot;
        if due(counter.fetch_add(1, Ordering::AcqRel) + 1) {
            let _quiesced = dshard.admin.write().expect(ADMIN_POISONED);
            // Several writers can trip the cadence at once; whoever gets
            // the write lock first snapshots (resetting the counter), the
            // rest find the counter already settled and do nothing.
            if due(counter.load(Ordering::Acquire)) {
                let anchored = std::iter::once(shard);
                self.dir
                    .anchor(anchored, |shard| self.snapshot(registry, shard))?;
                counter.store(0, Ordering::Release);
            }
        }
        Ok(())
    }

    /// The snapshot of every tenant of the quiesced `shard` (frozen store
    /// image, session config, call graph), covering the log watermark
    /// `last_seq`.
    fn snapshot(
        &self,
        registry: &ShardedRegistry,
        shard: usize,
    ) -> sieve_wal::Result<ShardSnapshot> {
        let dshard = &self.shards[shard];
        // Quiesce the log: every staged frame is on media (or reported
        // failed to its writer) before the snapshot claims to cover it.
        dshard.log.commit_all()?;
        Ok(ShardSnapshot {
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
        })
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
