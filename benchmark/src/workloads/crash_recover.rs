//! `crash-recover`: how long a node is down after a crash. Set-up builds
//! the durable directory of a 32-tenant service killed mid-life; one op
//! recovers a fresh copy of it and sweeps until every tenant has
//! published again.

use super::{Ctx, SetupTimes, Sizing};
use crate::fleet::{
    dataplane_counters, serve_config, serve_config_with_fsync, start_fleet, sweep_counters,
    Failure, SHARDS,
};
use crate::host::{copy_dir, peak_rss_mb};
use crate::inputs::{fleet_tapes, Schedule, TAPE_TICKS};
use crate::report::{Outcome, Roles};
use crate::stats::{least, median, supported_tail};
use crate::trace::Tracer;
use sieve::apps::tenants::TenantMix;
use sieve::prelude::*;
use sieve::wal::{log_file_name, scan_log, snapshot_file_name, ShardSnapshot};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Tenants in the crashed service.
const TENANTS: usize = 32;
/// Snapshot cadence of the crashed service, in events: sparse, so most of
/// what recovery reads is log tail.
const SNAPSHOT_EVERY: u64 = 8192;
/// Ops the traced pass replays.
const TRACED_OPS: usize = 2;

/// The crashed directory and what its service last published.
struct Crashed {
    dir: PathBuf,
    live: Vec<(String, Arc<SieveModel>)>,
    points: u64,
}

/// Runs a durable service through the whole tape, keeps the models it
/// published, and drops it without any shutdown.
fn setup(dir: &Path, schedule: &mut Schedule, outcome: &mut Outcome) -> Result<Crashed, Failure> {
    let tapes = fleet_tapes(
        TenantMix::ManySmall,
        TENANTS,
        TAPE_TICKS,
        schedule.origin_ms,
    );
    let order = schedule.permutation(TENANTS);
    // The doomed service never fsyncs: a killed process loses nothing the
    // kernel already has, so the directory holds the same bytes either way,
    // and `setup_s` is spared 4800 waits on this VM's disk (2.5 s to 4.5 s
    // from one set of ten runs to the next; recovery itself, which is what
    // is measured, runs under the benchmark's policy).
    let config = serve_config_with_fsync(dir, SNAPSHOT_EVERY, FsyncPolicy::Never);
    let service = start_fleet(config, &tapes, TAPE_TICKS, &order, outcome)?;
    let live = tapes
        .iter()
        .map(|tape| {
            Ok((
                tape.name.clone(),
                service.model(&tape.name)?.ok_or("unpublished tenant")?,
            ))
        })
        .collect::<Result<_, Failure>>()?;
    let points = tapes
        .iter()
        .map(|t| (t.points_per_tick() * TAPE_TICKS) as u64)
        .sum();
    drop(service); // the crash: nothing beyond committed frames survives
    Ok(Crashed {
        dir: dir.to_path_buf(),
        live,
        points,
    })
}

/// Sweeps until every tenant has published; returns the sweeps it took.
fn sweep_until_serving(
    service: &SieveService,
    crashed: &Crashed,
) -> Result<Vec<ServiceStats>, Failure> {
    let mut records = Vec::new();
    loop {
        records.push(service.refresh_dirty()?);
        let mut serving = true;
        for (name, _) in &crashed.live {
            serving &= service.model(name)?.is_some();
        }
        if serving || records.len() >= 8 {
            return Ok(records);
        }
    }
}

/// Recovered equals live: a clean report and bit-identical models.
fn check_recovery(
    service: &SieveService,
    report: &RecoveryReport,
    crashed: &Crashed,
    outcome: &mut Outcome,
) {
    outcome.check(report.is_clean(), || format!("unclean recovery: {report}"));
    let same = crashed.live.iter().all(
        |(name, live)| matches!(service.model(name), Ok(Some(recovered)) if *recovered == **live),
    );
    outcome.check(same, || {
        "a recovered model differs from the live one".to_string()
    });
}

/// The untraced pass.
pub fn measure(ctx: &Ctx<'_>, sizing: Sizing) -> Result<Outcome, Failure> {
    let mut outcome = Outcome::default();
    let mut schedule = ctx.schedule();
    let dir = ctx.workdir.fresh("crashed")?;
    let mut setups = SetupTimes::default();
    let crashed = setups.time(|| setup(&dir, &mut schedule, &mut outcome))?;
    let copy = ctx.workdir.fresh("recovering")?;

    let clock = Instant::now();
    let (mut recover_s, mut serving_s) = (Vec::new(), Vec::new());
    while !sizing.budget.spent(recover_s.len() as u64, clock) {
        // `recover` re-snapshots and truncates, so a directory recovers
        // from its crashed state only once: every op gets its own copy.
        copy_dir(&crashed.dir, &copy)?;
        let started = Instant::now();
        let (service, report) = SieveService::recover(serve_config(&copy, SNAPSHOT_EVERY))?;
        recover_s.push(started.elapsed().as_secs_f64());
        sweep_until_serving(&service, &crashed)?;
        serving_s.push(started.elapsed().as_secs_f64());
        check_recovery(&service, &report, &crashed, &mut outcome);
    }

    outcome.metric("rss_mb", peak_rss_mb(), 1);
    let points = crashed.points;
    drop(crashed);
    setups.repeat(sizing.setup_reps, || {
        setup(&dir, &mut schedule, &mut outcome)
    })?;
    setups.report(&mut outcome);

    // Every op recovers the same directory, so the quietest window is the
    // fastest op.
    let (recover, serving) = (least(&recover_s), least(&serving_s));
    outcome.ops = recover_s.len() as u64;
    outcome.metric("recover_s", recover, recover_s.len());
    outcome.metric("recover_to_serving_s", serving, serving_s.len());
    outcome.roles = Roles {
        op_ms: serving * 1e3,
        // Points brought back per second the node refuses ingest.
        work_per_s: points as f64 / recover,
    };
    outcome.layer(
        "bench.op_median_ms",
        median(&serving_s) * 1e3,
        serving_s.len(),
    );
    outcome.layer(
        "bench.op_tail_ms",
        supported_tail(&serving_s) * 1e3,
        serving_s.len(),
    );
    Ok(outcome)
}

/// The traced pass: recover and first sweep under spans, then — on a
/// second copy, since recovery rewrites the first — every layer call
/// recovery makes, alone.
pub fn trace(ctx: &Ctx<'_>, tracer: &mut Tracer) -> Result<Outcome, Failure> {
    let mut outcome = Outcome::default();
    let mut schedule = ctx.schedule();
    let dir = ctx.workdir.fresh("crashed-traced")?;
    let crashed = setup(&dir, &mut schedule, &mut outcome)?;
    let copy = ctx.workdir.fresh("recovering-traced")?;
    let scratch_snapshot = ctx.workdir.path().join("shadow.snap");

    // One op untraced, for the tracing overhead.
    copy_dir(&crashed.dir, &copy)?;
    let started = Instant::now();
    let (service, _) = SieveService::recover(serve_config(&copy, SNAPSHOT_EVERY))?;
    sweep_until_serving(&service, &crashed)?;
    let plain_s = started.elapsed().as_secs_f64();
    drop(service);

    let (mut records, mut frames, mut stats) = (Vec::new(), 0usize, ServiceStats::default());
    for _ in 0..TRACED_OPS {
        tracer.next_op();
        copy_dir(&crashed.dir, &copy)?;
        let (recover_id, recovered) = tracer.span("serve.recover", |_| {
            SieveService::recover(serve_config(&copy, SNAPSHOT_EVERY))
        });
        let (service, report) = recovered?;
        let (_, swept) = tracer.span("serve.first_sweep", |_| {
            sweep_until_serving(&service, &crashed)
        });
        records.extend(swept?);
        check_recovery(&service, &report, &crashed, &mut outcome);
        stats = service.stats();
        drop(service);

        copy_dir(&crashed.dir, &copy)?;
        for shard in 0..SHARDS {
            let bytes = match std::fs::read(copy.join(log_file_name(shard))) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e.into()),
            };
            let scanned = tracer
                .shadow(recover_id, "wal.scan_log", || scan_log(&bytes))
                .1;
            outcome.check(scanned.corruption.is_none(), || {
                format!("shard {shard}: corrupt log")
            });
            frames += scanned.applied.len();
            let path = copy.join(snapshot_file_name(shard));
            let Some(snapshot) = tracer
                .shadow(recover_id, "wal.snapshot_read", || {
                    ShardSnapshot::read(&path)
                })
                .1?
            else {
                continue;
            };
            for tenant in &snapshot.tenants {
                let image = tenant.store.clone();
                let store = tracer
                    .shadow(recover_id, "store.restore", || MetricStore::restore(image))
                    .1;
                tracer.shadow(recover_id, "store.freeze", || black_box(store.freeze()));
            }
            tracer
                .shadow(recover_id, "wal.snapshot_write", || {
                    snapshot.write_atomic(&scratch_snapshot)
                })
                .1?;
        }
    }
    let traced_s = (tracer.total_ns("serve.recover") + tracer.total_ns("serve.first_sweep")) / 1e9;

    let ops = TRACED_OPS as f64;
    let per_op_ms = |name: &str| tracer.total_ns(name) / 1e6 / ops;
    let count = |name: &str| tracer.durations_ns(name).len();
    outcome.layer("serve.recover_ms", per_op_ms("serve.recover"), TRACED_OPS);
    outcome.layer(
        "serve.first_sweep_ms",
        per_op_ms("serve.first_sweep"),
        TRACED_OPS,
    );
    outcome.layer(
        "wal.scan_log_ms",
        per_op_ms("wal.scan_log"),
        count("wal.scan_log"),
    );
    outcome.layer("wal.frames_scanned", frames as f64 / ops, TRACED_OPS);
    outcome.layer(
        "wal.snapshot_read_ms",
        per_op_ms("wal.snapshot_read"),
        count("wal.snapshot_read"),
    );
    outcome.layer(
        "wal.snapshot_write_ms",
        per_op_ms("wal.snapshot_write"),
        count("wal.snapshot_write"),
    );
    outcome.layer(
        "store.restore_ms",
        per_op_ms("store.restore"),
        count("store.restore"),
    );
    outcome.layer(
        "store.freeze_ms",
        per_op_ms("store.freeze"),
        count("store.freeze"),
    );
    sweep_counters(&records, &mut outcome);
    dataplane_counters(&stats, &mut outcome);
    outcome.layer(
        "bench.trace_overhead_frac",
        (traced_s / ops - plain_s) / plain_s,
        TRACED_OPS,
    );
    outcome.layer("bench.ops_traced", tracer.ops() as f64, 1);
    Ok(outcome)
}
