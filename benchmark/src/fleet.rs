//! What the four service workloads share: the durable service
//! configuration, fleet set-up, the background sweeper and the
//! streamed-equals-batch check.

use crate::fresh::Sweep;
use crate::inputs::{Tape, WINDOW_TICKS};
use crate::report::Outcome;
use sieve::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Fsync policy of every durable service in the benchmark.
pub const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(8);
/// Registry and log shards of every service.
pub const SHARDS: usize = 4;
/// Snapshot cadence of the streaming and ingest workloads, in events.
pub const SNAPSHOT_EVERY: u64 = 256;

/// Analysis configuration of every workload: serial inside an analysis,
/// so no workload ever runs more threads than the host's two cores (and
/// the gated ones run one).
pub fn analysis_config() -> SieveConfig {
    SieveConfig::default().with_parallelism(1)
}

/// The durable service configuration every service workload runs under.
pub fn serve_config(dir: &Path, snapshot_every: u64) -> ServeConfig {
    serve_config_with_fsync(dir, snapshot_every, FSYNC)
}

/// [`serve_config`] under another fsync policy.
pub fn serve_config_with_fsync(dir: &Path, snapshot_every: u64, fsync: FsyncPolicy) -> ServeConfig {
    ServeConfig::default()
        .with_shard_count(SHARDS)
        .with_sweep_parallelism(1)
        .with_analysis(analysis_config())
        .with_retention(RetentionPolicy::windowed(WINDOW_TICKS))
        .with_durability(
            DurabilityConfig::new(dir)
                .with_fsync(fsync)
                .with_snapshot_every_events(snapshot_every),
        )
}

/// Boxed error of anything the harness itself (not the measured system)
/// can fail at.
pub type Failure = Box<dyn std::error::Error + Send + Sync>;

/// A batch as the `(id, timestamp, value)` triples the store and the WAL
/// encoder take.
pub fn triples(
    points: &[MetricPoint],
) -> impl Iterator<Item = (&sieve::simulator::store::MetricId, u64, f64)> {
    points.iter().map(|p| (&p.id, p.timestamp_ms, p.value))
}

/// Ingests one batch and checks the exact accepted count.
pub fn ingest_checked(
    service: &SieveService,
    tenant: &str,
    points: &[MetricPoint],
    outcome: &mut Outcome,
) {
    let result = service.ingest(tenant, points);
    outcome.check(matches!(result, Ok(n) if n == points.len()), || {
        format!(
            "ingest of {} points into {tenant}: {result:?}",
            points.len()
        )
    });
}

/// Starts a fresh durable service under `config`, registers one tenant
/// per tape, writes each tape's first `preload_ticks` ticks in the order
/// `tenant_order` gives, and runs sweeps until every tenant has published.
pub fn start_fleet(
    config: ServeConfig,
    tapes: &[Tape],
    preload_ticks: usize,
    tenant_order: &[usize],
    outcome: &mut Outcome,
) -> Result<SieveService, Failure> {
    let service = SieveService::new(config)?;
    for tape in tapes {
        service.create_tenant(tape.name.as_str(), tape.graph.clone())?;
    }
    for tick in 0..preload_ticks {
        for &tenant in tenant_order {
            let tape = &tapes[tenant];
            ingest_checked(&service, &tape.name, &tape.ticks[tick], outcome);
        }
    }
    let stats = service.refresh_dirty()?;
    outcome.check(stats.tenants_refreshed == tapes.len(), || {
        format!(
            "first sweep refreshed {} of {} tenants",
            stats.tenants_refreshed,
            tapes.len()
        )
    });
    Ok(service)
}

/// The background sweeper: loops `refresh_dirty`, sleeping `idle_sleep`
/// after a sweep that found nothing dirty, until `stop` is set — and then
/// runs one last sweep, which therefore starts after every acknowledged
/// batch and covers all of them. Times are seconds since `clock`.
pub fn run_sweeper(
    service: &SieveService,
    clock: Instant,
    stop: &AtomicBool,
    idle_sleep: Duration,
) -> Result<Vec<Sweep>, Failure> {
    let mut sweeps = Vec::new();
    loop {
        // SeqCst pairs with the writer's store after its last ack: a
        // sweep that reads `true` here started after that ack.
        let last = stop.load(Ordering::SeqCst);
        let start = clock.elapsed().as_secs_f64();
        let refreshed = service.refresh_dirty()?.tenants_refreshed;
        let end = clock.elapsed().as_secs_f64();
        sweeps.push(Sweep {
            start,
            end,
            refreshed,
        });
        if last {
            return Ok(sweeps);
        }
        if refreshed == 0 {
            std::thread::sleep(idle_sleep);
        }
    }
}

/// Sums what a series of sweeps recomputed into per-layer metrics
/// (`core.*`).
pub fn sweep_counters(sweeps: &[ServiceStats], outcome: &mut Outcome) {
    let sum = |f: fn(&ServiceStats) -> usize| sweeps.iter().map(|s| f(s) as f64).sum::<f64>();
    let planned = sum(|s| s.comparisons_planned);
    let tested = sum(|s| s.comparisons_tested);
    let reuse = if planned > 0.0 {
        1.0 - tested / planned
    } else {
        0.0
    };
    let n = sweeps.len();
    outcome.layer(
        "core.components_prepared",
        sum(|s| s.components_prepared),
        n,
    );
    outcome.layer(
        "core.components_reclustered",
        sum(|s| s.components_reclustered),
        n,
    );
    outcome.layer("core.comparisons_planned", planned, n);
    outcome.layer("core.comparisons_tested", tested, n);
    outcome.layer("core.edge_reuse_ratio", reuse, n);
}

/// Dataplane counters of a service (`wal.*`, `store.*`, `exec.*`).
pub fn dataplane_counters(stats: &ServiceStats, outcome: &mut Outcome) {
    outcome.layer("wal.fsync_calls", stats.fsync_calls as f64, 1);
    outcome.layer("wal.commits_coalesced", stats.commits_coalesced as f64, 1);
    outcome.layer(
        "wal.commit_wait_ms",
        stats.commit_wait_ns_total as f64 / 1e6,
        1,
    );
    outcome.layer("store.points_evicted", stats.points_evicted as f64, 1);
    outcome.layer("store.points_retained", stats.points_retained as f64, 1);
    outcome.layer(
        "exec.pool_workers_spawned",
        stats.pool_workers_spawned as f64,
        1,
    );
    outcome.layer("exec.pool_tasks", stats.pool_tasks_executed as f64, 1);
}

/// Streamed equals batch: after a quiescing sweep, every tenant's served
/// model must equal a from-scratch `Sieve::analyze` of its store.
pub fn check_served_equals_batch(
    service: &SieveService,
    tapes: &[Tape],
    outcome: &mut Outcome,
) -> Result<(), Failure> {
    service.refresh_dirty()?;
    let sieve = Sieve::new(analysis_config());
    for tape in tapes {
        let served = service.model(&tape.name)?;
        let batch = sieve.analyze(&tape.name, &service.store(&tape.name)?, &tape.graph);
        outcome.check(
            matches!((&served, &batch), (Some(served), Ok(batch)) if **served == *batch),
            || {
                format!(
                    "{}: served model differs from Sieve::analyze of its store",
                    tape.name
                )
            },
        );
    }
    Ok(())
}

/// Shadow instances for the traced pass: a second store and session per
/// tenant and a second log under the same fsync policy, fed exactly what
/// the service is fed, so that each layer's own entry point can be timed
/// alone on the same input.
pub struct Shadow {
    tenants: Vec<ShadowTenant>,
    log: sieve::wal::GroupCommitLog,
    payload_bytes: u64,
    points: u64,
}

struct ShadowTenant {
    store: MetricStore,
    session: AnalysisSession,
    batch: sieve::simulator::store::BatchOutcome,
    payload: Vec<u8>,
}

impl Shadow {
    /// Shadows a fleet started by [`start_fleet`] with the same arguments:
    /// same pre-load, one refresh.
    pub fn start(
        dir: &Path,
        tapes: &[Tape],
        preload_ticks: usize,
        tenant_order: &[usize],
    ) -> Result<Self, Failure> {
        let retention = RetentionPolicy::windowed(WINDOW_TICKS);
        let mut tenants = Vec::with_capacity(tapes.len());
        for tape in tapes {
            let store = MetricStore::with_retention(retention);
            let session = AnalysisSession::new(
                tape.name.as_str(),
                store.clone(),
                tape.graph.clone(),
                analysis_config().with_retention(retention),
            )?;
            tenants.push(ShadowTenant {
                store,
                session,
                batch: Default::default(),
                payload: Vec::new(),
            });
        }
        for tick in 0..preload_ticks {
            for &tenant in tenant_order {
                let points = &tapes[tenant].ticks[tick];
                tenants[tenant].store.record_batch(triples(points));
            }
        }
        for tenant in &mut tenants {
            let delta = tenant.store.drain_delta();
            tenant.session.update_shared(&delta)?;
        }
        Ok(Self {
            tenants,
            log: sieve::wal::GroupCommitLog::open(&dir.join("shadow.log"), 1, FSYNC)?,
            payload_bytes: 0,
            points: 0,
        })
    }

    /// The three layer calls inside one `SieveService::ingest`, each
    /// alone, as shadow children of the span `of`.
    pub fn ingest(
        &mut self,
        tracer: &mut crate::trace::Tracer,
        of: crate::trace::SpanId,
        tenant: usize,
        name: &str,
        points: &[MetricPoint],
    ) -> Result<(), Failure> {
        let ShadowTenant {
            store,
            batch,
            payload,
            ..
        } = &mut self.tenants[tenant];
        tracer.shadow(of, "store.record_batch", || {
            store.record_batch_detailed_into(batch, triples(points));
        });
        tracer.shadow(of, "wal.encode", || {
            payload.clear();
            sieve::wal::WalEvent::encode_ingest_batch_into(
                payload,
                name,
                batch.accepted,
                triples(points),
                &batch.watermarks,
            );
        });
        let log = &self.log;
        tracer
            .shadow(of, "wal.commit", || {
                log.commit_through(log.stage_encoded(payload))
            })
            .1?;
        self.payload_bytes += payload.len() as u64;
        self.points += batch.accepted as u64;
        Ok(())
    }

    /// The two layer calls inside one busy `refresh_dirty`, each alone, as
    /// shadow children of the span `of`; then checks that the shadow
    /// sessions publish what the service publishes.
    pub fn sweep(
        &mut self,
        tracer: &mut crate::trace::Tracer,
        of: crate::trace::SpanId,
        service: &SieveService,
        tapes: &[Tape],
        outcome: &mut Outcome,
    ) -> Result<(), Failure> {
        for (tenant, tape) in self.tenants.iter_mut().zip(tapes) {
            let ShadowTenant { store, session, .. } = tenant;
            let delta = tracer
                .shadow(of, "store.drain_delta", || store.drain_delta())
                .1;
            if delta.is_empty() {
                continue;
            }
            let model = tracer
                .shadow(of, "core.session_update", || session.update_shared(&delta))
                .1?;
            let served = service.model(&tape.name)?;
            outcome.check(served.is_some_and(|served| *served == *model), || {
                format!("{}: shadow session and service disagree", tape.name)
            });
        }
        Ok(())
    }

    /// Encoded WAL payload bytes per point, over every shadowed batch.
    pub fn payload_bytes_per_point(&self) -> f64 {
        self.payload_bytes as f64 / self.points.max(1) as f64
    }

    /// A shadow tenant's store (for freeze/snapshot timing).
    pub fn store(&self, tenant: usize) -> &MetricStore {
        &self.tenants[tenant].store
    }
}
