//! `stream-fresh`: the product path. Agents flush partial batches into
//! four durable tenants on an open-loop schedule while one sweeper
//! publishes models; what is measured is how long after a batch was due
//! its points are visible in a published model.

use super::{Budget, Ctx, SetupTimes, Sizing};
use crate::fleet::{
    check_served_equals_batch, dataplane_counters, run_sweeper, serve_config, start_fleet,
    sweep_counters, Failure, Shadow, SNAPSHOT_EVERY,
};
use crate::fresh::{freshness, Sweep};
use crate::host::peak_rss_mb;
use crate::inputs::{fleet_tapes, Schedule, Tape, TAPE_TICKS, WINDOW_TICKS};
use crate::report::{Outcome, Roles};
use crate::stats::{central_mean, median, percentile_sorted, sort, supports};
use crate::trace::Tracer;
use sieve::apps::tenants::TenantMix;
use sieve::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Tenants in the fleet.
const TENANTS: usize = 4;
/// Agent flushes per second, all tenants together: ~0.4 sweeper
/// utilisation here. Arrivals are periodic, so a flush waits only when a
/// sweep outlasts the period; the dearest sweeps take ~110 ms, and at 143 ms
/// they still fit when a noisy neighbour slows this VM by a third. (At
/// 10/s they just do not, and one slow sweep cascades: p50 was measured
/// anywhere between 66 and 180 ms within ten minutes. The sweeper saturates
/// at ~17/s.)
const BATCHES_PER_SECOND: f64 = 7.0;
/// Component groups an application's agents are spread over; one flush
/// carries one group's series.
const GROUPS: usize = 3;
/// Ticks one flush carries.
const TICKS_PER_FLUSH: usize = 2;
/// The sweeper's nap after a sweep that found nothing dirty.
const IDLE_SLEEP: Duration = Duration::from_millis(2);
/// Batches the traced pass replays.
const TRACED_BATCHES: usize = 48;
/// The reported tail of freshness, in percent.
const TAIL: usize = 90;

struct Fleet {
    tapes: Vec<Tape>,
    service: SieveService,
}

fn setup(dir: &Path, schedule: &mut Schedule, outcome: &mut Outcome) -> Result<Fleet, Failure> {
    let tapes = fleet_tapes(TenantMix::FewLarge, TENANTS, TAPE_TICKS, schedule.origin_ms);
    let order = schedule.permutation(TENANTS);
    let service = start_fleet(
        serve_config(dir, SNAPSHOT_EVERY),
        &tapes,
        WINDOW_TICKS,
        &order,
        outcome,
    )?;
    Ok(Fleet { tapes, service })
}

/// One agent flush: `tenant`'s components of one group, their next ticks.
struct Flush {
    tenant: usize,
    points: Vec<MetricPoint>,
}

/// The first `count` flushes after the pre-loaded window. Tenants take
/// turns in a seeded order that is redrawn every round; a tenant's three
/// groups flush the same ticks in consecutive rounds, then it moves on.
fn flushes(tapes: &[Tape], schedule: &mut Schedule, count: usize) -> Vec<Flush> {
    let mut out = Vec::with_capacity(count);
    let mut round = 0;
    while out.len() < count {
        let group = round % GROUPS;
        let first_tick = WINDOW_TICKS + (round / GROUPS) * TICKS_PER_FLUSH;
        assert!(
            tapes
                .iter()
                .all(|tape| first_tick + TICKS_PER_FLUSH <= tape.ticks.len()),
            "the run outlasts the tape"
        );
        for tenant in schedule.permutation(tapes.len()) {
            let tape = &tapes[tenant];
            let points = tape.ticks[first_tick..first_tick + TICKS_PER_FLUSH]
                .iter()
                .flatten()
                .filter(|p| tape.component_index(&p.id.component) % GROUPS == group)
                .cloned()
                .collect();
            out.push(Flush { tenant, points });
        }
        round += 1;
    }
    out.truncate(count);
    out
}

/// Sleeps, then spins the last stretch, until `clock` reads `due`.
fn wait_until(clock: Instant, due: f64) {
    loop {
        let remaining = due - clock.elapsed().as_secs_f64();
        if remaining <= 0.0 {
            return;
        }
        if remaining > 0.001 {
            std::thread::sleep(Duration::from_secs_f64(remaining - 0.0005));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The untraced pass: the generator on this thread, the sweeper on one
/// other.
pub fn measure(ctx: &Ctx<'_>, sizing: Sizing) -> Result<Outcome, Failure> {
    let mut outcome = Outcome::default();
    let mut schedule = ctx.schedule();
    let dir = ctx.workdir.fresh("stream-fresh")?;
    let mut setups = SetupTimes::default();
    let fleet = setups.time(|| setup(&dir, &mut schedule, &mut outcome))?;
    let count = match sizing.budget {
        Budget::Seconds(seconds) => (seconds * BATCHES_PER_SECOND).round() as usize,
        Budget::Ops(ops) => ops as usize,
    };
    let batches = flushes(&fleet.tapes, &mut schedule, count);
    let service = &fleet.service;

    let stop = AtomicBool::new(false);
    let clock = Instant::now();
    let mut timeline = Vec::with_capacity(count); // (due, sent, acked)
    let sweeps = std::thread::scope(|scope| {
        let sweeper = scope.spawn(|| run_sweeper(service, clock, &stop, IDLE_SLEEP));
        for (i, batch) in batches.iter().enumerate() {
            let due = i as f64 / BATCHES_PER_SECOND;
            wait_until(clock, due);
            let sent = clock.elapsed().as_secs_f64();
            let accepted = service.ingest(&fleet.tapes[batch.tenant].name, &batch.points);
            let acked = clock.elapsed().as_secs_f64();
            timeline.push((due, sent, acked));
            outcome.check(matches!(accepted, Ok(n) if n == batch.points.len()), || {
                format!(
                    "flush {i}: {accepted:?} of {} points accepted",
                    batch.points.len()
                )
            });
        }
        stop.store(true, Ordering::SeqCst);
        sweeper.join().expect("the sweeper does not panic")
    })?;
    let elapsed = clock.elapsed().as_secs_f64();
    outcome.metric("rss_mb", peak_rss_mb(), 1);
    outcome.passed(sweeps.len() as u64);
    outcome.ops = count as u64;

    let mut rows = Vec::with_capacity(count); // (fresh, wait, service), in ms
    for &(due, _, acked) in &timeline {
        let fresh = freshness(&sweeps, due, acked);
        outcome.check(fresh.is_some(), || {
            "a flush was never covered by a sweep".to_string()
        });
        if let Some(f) = fresh {
            rows.push((f.total() * 1e3, f.wait * 1e3, f.service * 1e3));
        }
    }
    rows.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let fresh_ms: Vec<f64> = rows.iter().map(|r| r.0).collect();
    let (fresh_p50, fresh_tail) = (
        percentile_sorted(&fresh_ms, 0.5),
        percentile_sorted(&fresh_ms, TAIL as f64 / 100.0),
    );
    if !supports(fresh_ms.len(), TAIL) {
        eprintln!(
            "warning: {} flushes leave fewer than 10 beyond p{TAIL}; run at least 15 s",
            fresh_ms.len()
        );
    }

    check_served_equals_batch(service, &fleet.tapes, &mut outcome)?;
    drop(fleet);
    setups.repeat(sizing.setup_reps, || {
        setup(&dir, &mut schedule, &mut outcome)
    })?;
    setups.report(&mut outcome);

    let busy: Vec<&Sweep> = sweeps.iter().filter(|s| s.refreshed > 0).collect();
    let busy_s: f64 = busy.iter().map(|s| s.end - s.start).sum();
    let (_, wait_ms, service_ms) = central_mean(&rows);
    let mut late_ms: Vec<f64> = timeline
        .iter()
        .map(|&(due, sent, _)| (sent - due) * 1e3)
        .collect();
    sort(&mut late_ms);

    outcome.metric("fresh_p50_ms", fresh_p50, fresh_ms.len());
    outcome.metric("fresh_p90_ms", fresh_tail, fresh_ms.len());
    // Over the whole run: the work of a flush varies from one cycle of
    // tenants and groups to the next (their median freshness runs from 35
    // to 80 ms on a quiet host, the same cycle the same on every run), so
    // this workload has no quietest window to read — and is not gated.
    outcome.roles = Roles {
        op_ms: fresh_p50,
        // The open loop fixes the offered rate; what the system decides is
        // how many flushes one second of sweeping absorbs — the rate at
        // which the sweeper would saturate.
        work_per_s: count as f64 / busy_s,
    };
    outcome.layer("serve.fresh_wait_ms", wait_ms, rows.len());
    outcome.layer("serve.fresh_service_ms", service_ms, rows.len());
    outcome.layer("serve.sweeps", busy.len() as f64, 1);
    outcome.layer(
        "serve.batches_per_sweep",
        count as f64 / busy.len().max(1) as f64,
        busy.len(),
    );
    outcome.layer("serve.sweeper_busy_frac", busy_s / elapsed, busy.len());
    outcome.layer("bench.op_median_ms", fresh_p50, fresh_ms.len());
    outcome.layer("bench.op_tail_ms", fresh_tail, fresh_ms.len());
    outcome.layer(
        "bench.sched_late_p95_ms",
        percentile_sorted(&late_ms, 0.95),
        late_ms.len(),
    );
    Ok(outcome)
}

/// The traced pass: the same flushes, one at a time — ingest, busy sweep,
/// idle sweep — with every layer shadowed.
pub fn trace(ctx: &Ctx<'_>, tracer: &mut Tracer) -> Result<Outcome, Failure> {
    let mut outcome = Outcome::default();
    let mut schedule = ctx.schedule();
    let dir = ctx.workdir.fresh("stream-fresh-traced")?;
    let tapes = fleet_tapes(TenantMix::FewLarge, TENANTS, TAPE_TICKS, schedule.origin_ms);
    let order = schedule.permutation(TENANTS);
    let service = start_fleet(
        serve_config(&dir, SNAPSHOT_EVERY),
        &tapes,
        WINDOW_TICKS,
        &order,
        &mut outcome,
    )?;
    let mut shadow = Shadow::start(&dir, &tapes, WINDOW_TICKS, &order)?;
    let batches = flushes(&tapes, &mut schedule, 2 * TRACED_BATCHES);
    let (traced, plain) = batches.split_at(TRACED_BATCHES);

    let mut swept = Vec::with_capacity(traced.len());
    for batch in traced {
        tracer.next_op();
        let name = &tapes[batch.tenant].name;
        let (ingest_id, accepted) =
            tracer.span("serve.ingest", |_| service.ingest(name, &batch.points));
        outcome.check(matches!(accepted, Ok(n) if n == batch.points.len()), || {
            format!("{accepted:?}")
        });
        let (sweep_id, stats) = tracer.span("serve.refresh_dirty", |_| service.refresh_dirty());
        let stats = stats?;
        outcome.check(stats.tenants_refreshed == 1, || {
            format!("a flush dirtied {} tenants", stats.tenants_refreshed)
        });
        let idle = tracer
            .span("serve.idle_sweep", |_| service.refresh_dirty())
            .1?;
        outcome.check(idle.tenants_refreshed == 0, || {
            "an idle sweep found work".to_string()
        });
        swept.push(stats);
        shadow.ingest(tracer, ingest_id, batch.tenant, name, &batch.points)?;
        shadow.sweep(tracer, sweep_id, &service, &tapes, &mut outcome)?;
    }
    // The same kind of ops untraced, for the tracing overhead.
    let started = Instant::now();
    for batch in plain {
        let accepted = service.ingest(&tapes[batch.tenant].name, &batch.points);
        outcome.check(matches!(accepted, Ok(n) if n == batch.points.len()), || {
            format!("{accepted:?}")
        });
        service.refresh_dirty()?;
        service.refresh_dirty()?;
    }
    let plain_s = started.elapsed().as_secs_f64();
    let traced_s = (tracer.total_ns("serve.ingest")
        + tracer.total_ns("serve.refresh_dirty")
        + tracer.total_ns("serve.idle_sweep"))
        / 1e9;

    let n = traced.len();
    let median_of = |name: &str, unit: f64| median(&tracer.durations_ns(name)) / unit;
    outcome.layer("serve.ingest_us", median_of("serve.ingest", 1e3), n);
    outcome.layer(
        "serve.ingest_self_us",
        median(&tracer.self_durations_ns("serve.ingest")) / 1e3,
        n,
    );
    outcome.layer(
        "serve.refresh_dirty_ms",
        median_of("serve.refresh_dirty", 1e6),
        n,
    );
    outcome.layer(
        "serve.sweep_self_ms",
        median(&tracer.self_durations_ns("serve.refresh_dirty")) / 1e6,
        n,
    );
    outcome.layer("serve.idle_sweep_us", median_of("serve.idle_sweep", 1e3), n);
    outcome.layer(
        "core.session_update_ms",
        median_of("core.session_update", 1e6),
        n,
    );
    outcome.layer(
        "store.record_batch_us",
        median_of("store.record_batch", 1e3),
        n,
    );
    outcome.layer(
        "store.drain_delta_us",
        median_of("store.drain_delta", 1e3),
        n * TENANTS,
    );
    outcome.layer("wal.encode_us", median_of("wal.encode", 1e3), n);
    outcome.layer("wal.commit_us", median_of("wal.commit", 1e3), n);
    outcome.layer(
        "wal.payload_bytes_per_point",
        shadow.payload_bytes_per_point(),
        n,
    );
    sweep_counters(&swept, &mut outcome);
    dataplane_counters(&service.stats(), &mut outcome);
    outcome.layer(
        "bench.trace_overhead_frac",
        (traced_s - plain_s) / plain_s,
        n,
    );
    outcome.layer("bench.ops_traced", tracer.ops() as f64, 1);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flushes_cover_every_series_of_a_tick_pair_once_per_three_rounds() {
        let tapes = fleet_tapes(TenantMix::FewLarge, 2, WINDOW_TICKS + 4, 0);
        let batches = flushes(&tapes, &mut Schedule::new(3), 2 * GROUPS * 2);
        for (tenant, tape) in tapes.iter().enumerate() {
            let mine: Vec<&Flush> = batches.iter().filter(|b| b.tenant == tenant).collect();
            assert_eq!(mine.len(), 2 * GROUPS);
            let first_cycle: usize = mine[..GROUPS].iter().map(|b| b.points.len()).sum();
            assert_eq!(first_cycle, TICKS_PER_FLUSH * tape.points_per_tick());
            // The next cycle moved on by exactly the flushed ticks.
            let step = mine[GROUPS].points[0].timestamp_ms - mine[0].points[0].timestamp_ms;
            assert_eq!(step, TICKS_PER_FLUSH as u64 * crate::inputs::TICK_MS);
        }
        // Every round serves every tenant once.
        for round in batches.chunks(2) {
            let mut tenants: Vec<usize> = round.iter().map(|b| b.tenant).collect();
            tenants.sort_unstable();
            assert_eq!(tenants, vec![0, 1]);
        }
    }
}
