//! Bounded-memory fleet benchmark: a million-series multi-tenant service
//! under sustained ingest.
//!
//! The tentpole claim of the bounded-memory store is that a serving fleet
//! can ingest forever: every series lives in a fixed ring window (evicted
//! points folded into 10x/100x aggregate tiers), so resident memory stays
//! flat while the dirty-sweep machinery keeps publishing models. This
//! bench drives that end to end:
//!
//! 1. **Equality gate** (always on, even in smoke mode): a windowed store
//!    with ample retention must produce a `SieveModel` bit-identical to
//!    the unbounded oracle at parallelism 1, 4 and 8.
//! 2. **Fill**: ≥ 1M series across the tenant fleet are ingested past
//!    their window capacity, then the first sweep analyses every tenant.
//! 3. **Sustained cycles**: three ingest-everything → full-sweep cycles;
//!    RSS is sampled after each sweep and must stay flat (non-smoke).
//! 4. **Dirty sweeps**: a rotating slice of hot tenants is dirtied and
//!    swept many times; the p99 sweep latency must stay within a small
//!    multiple of the median (non-smoke) — no degradation tail under
//!    steady-state eviction.
//!
//! Every measurement is appended to `BENCH_fleet.json` through the ledger.
//!
//! Run with: `cargo bench -p sieve-bench --bench fleet`
//! (`SIEVE_BENCH_SMOKE=1` shrinks the fleet and keeps only the equality
//! and accounting assertions.)

use sieve_bench::harness::{smoke_mode, Measurement, Runner};
use sieve_bench::ledger::Ledger;
use sieve_core::config::{RetentionPolicy, SieveConfig};
use sieve_core::pipeline::Sieve;
use sieve_exec::hash::splitmix64;
use sieve_exec::mem::current_rss_kb;
use sieve_graph::CallGraph;
use sieve_serve::{MetricPoint, ServeConfig, SieveService};
use sieve_simulator::store::{MetricId, MetricStore};
use std::time::{Duration, Instant};

/// Fleet dimensions, shrunk drastically in smoke mode.
struct Shape {
    tenants: usize,
    components: usize,
    metrics: usize,
    window: usize,
    fill_ticks: u64,
    cycles: usize,
    ticks_per_cycle: u64,
    dirty_sweeps: usize,
    dirty_slice: usize,
    ticks_per_dirty_sweep: u64,
}

impl Shape {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                tenants: 16,
                components: 4,
                metrics: 8,
                window: 16,
                fill_ticks: 24,
                cycles: 3,
                ticks_per_cycle: 4,
                dirty_sweeps: 6,
                dirty_slice: 4,
                ticks_per_dirty_sweep: 2,
            }
        } else {
            Self {
                tenants: 2048,
                components: 16,
                metrics: 32,
                window: 48,
                fill_ticks: 64,
                cycles: 3,
                ticks_per_cycle: 8,
                dirty_sweeps: 32,
                dirty_slice: 8,
                ticks_per_dirty_sweep: 4,
            }
        }
    }

    fn series_per_tenant(&self) -> usize {
        self.components * self.metrics
    }

    fn series_total(&self) -> usize {
        self.tenants * self.series_per_tenant()
    }
}

/// Deterministic white-noise sample for one (series, tick) pair.
fn point_value(series: u64, tick: u64) -> f64 {
    let bits = splitmix64(series.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tick);
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The per-tenant analysis configuration: single-k clustering, short
/// k-Shape budget, bounded retention — sized so a full fleet sweep is
/// dominated by honest per-series work, not by the cluster-count search.
fn analysis_config(window: usize, parallelism: usize) -> SieveConfig {
    SieveConfig {
        kshape_max_iterations: 15,
        ..SieveConfig::default()
    }
    .with_cluster_range(2, 2)
    .with_parallelism(parallelism)
    .with_retention(RetentionPolicy::windowed(window))
}

/// The always-on equality gate: with retention wide enough that nothing is
/// evicted, the windowed store and the unbounded oracle must yield
/// bit-identical models at every parallelism degree.
fn assert_windowed_matches_oracle() {
    let ids: Vec<MetricId> = (0..2)
        .flat_map(|c| (0..4).map(move |m| MetricId::new(format!("comp{c}"), format!("m{m}"))))
        .collect();
    let oracle = MetricStore::new();
    let windowed = MetricStore::with_retention(RetentionPolicy::windowed(200));
    for tick in 0..120u64 {
        for (i, id) in ids.iter().enumerate() {
            let v = point_value(i as u64, tick);
            oracle.record(id, tick * 500, v);
            windowed.record(id, tick * 500, v);
        }
    }
    let mut graph = CallGraph::new();
    graph.record_calls("comp0", "comp1", 10);
    let reference = Sieve::new(analysis_config(200, 1))
        .analyze("fleet-eq", &oracle, &graph)
        .expect("oracle analysis succeeds");
    for parallelism in [1usize, 4, 8] {
        let model = Sieve::new(analysis_config(200, parallelism))
            .analyze("fleet-eq", &windowed, &graph)
            .expect("windowed analysis succeeds");
        assert_eq!(
            model, reference,
            "windowed(ample) must equal the unbounded oracle at parallelism {parallelism}"
        );
    }
    println!("fleet: 3/3 windowed==oracle equality checks passed");
}

/// Appends `ticks` ticks to every series of the selected tenants (one
/// batched ingest per tenant per tick) and returns the number of points.
fn ingest_ticks(
    service: &SieveService,
    names: &[String],
    ids: &[Vec<MetricId>],
    tenants: &[usize],
    start_tick: u64,
    ticks: u64,
) -> u64 {
    let mut points = 0u64;
    let mut batch: Vec<MetricPoint> = Vec::new();
    for tick in start_tick..start_tick + ticks {
        for &t in tenants {
            batch.clear();
            batch.extend(ids[t].iter().enumerate().map(|(s, id)| MetricPoint {
                id: id.clone(),
                timestamp_ms: tick * 500,
                value: point_value((t * ids[t].len() + s) as u64, tick),
            }));
            let accepted = service.ingest(&names[t], &batch).unwrap();
            assert_eq!(accepted, batch.len(), "monotone stream: nothing dropped");
            points += accepted as u64;
        }
    }
    points
}

fn p99(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() * 99).div_ceil(100).saturating_sub(1)]
}

fn main() {
    let smoke = smoke_mode();
    let shape = Shape::new(smoke);
    assert!(
        smoke || shape.series_total() >= 1_000_000,
        "the non-smoke fleet must carry at least one million series"
    );

    assert_windowed_matches_oracle();

    let service = SieveService::new(
        ServeConfig::default()
            .with_shard_count(64)
            .with_sweep_parallelism(1)
            .with_analysis(analysis_config(shape.window, 1)),
    )
    .unwrap();
    let names: Vec<String> = (0..shape.tenants).map(|t| format!("t-{t:04}")).collect();
    let ids: Vec<Vec<MetricId>> = (0..shape.tenants)
        .map(|_| {
            (0..shape.components)
                .flat_map(|c| {
                    (0..shape.metrics).map(move |m| MetricId::new(format!("c{c}"), format!("m{m}")))
                })
                .collect()
        })
        .collect();
    for name in &names {
        service
            .create_tenant(name.as_str(), CallGraph::new())
            .unwrap();
    }
    println!(
        "fleet: {} tenants x {} series = {} series, window {} (smoke: {smoke})",
        shape.tenants,
        shape.series_per_tenant(),
        shape.series_total(),
        shape.window
    );

    // Fill past the window so steady state (every ring full, every ingest
    // evicting) is reached before anything is measured.
    let all: Vec<usize> = (0..shape.tenants).collect();
    let mut tick = 0u64;
    let mut ingested = 0u64;
    let fill_start = Instant::now();
    ingested += ingest_ticks(&service, &names, &ids, &all, tick, shape.fill_ticks);
    tick += shape.fill_ticks;
    let fill_elapsed = fill_start.elapsed();
    println!(
        "fleet: fill ingested {ingested} points in {fill_elapsed:.2?} \
         ({:.2}M points/s)",
        ingested as f64 / fill_elapsed.as_secs_f64().max(1e-9) / 1e6
    );

    let first_sweep_start = Instant::now();
    let first = service.refresh_dirty().unwrap();
    let first_sweep = first_sweep_start.elapsed();
    assert_eq!(
        first.tenants_refreshed, shape.tenants,
        "first sweep sees all"
    );
    println!("fleet: first sweep {first_sweep:.2?} | {first}");

    // Sustained cycles: ingest into *every* series, sweep the whole fleet,
    // sample RSS. Ring windows are full, so each cycle's points are pure
    // churn — an unbounded store would grow by the full ingest volume.
    let mut ingest_samples = Vec::new();
    let mut sweep_samples = Vec::new();
    let mut rss_kb = Vec::new();
    for cycle in 0..shape.cycles {
        let start = Instant::now();
        ingested += ingest_ticks(&service, &names, &ids, &all, tick, shape.ticks_per_cycle);
        tick += shape.ticks_per_cycle;
        ingest_samples.push(start.elapsed());

        let start = Instant::now();
        let stats = service.refresh_dirty().unwrap();
        sweep_samples.push(start.elapsed());
        assert_eq!(stats.tenants_refreshed, shape.tenants);
        let rss = current_rss_kb();
        rss_kb.extend(rss);
        println!(
            "fleet: cycle {cycle}: ingest {:.2?}, sweep {:.2?}, rss {:?} kB, \
             retained {} evicted {}",
            ingest_samples[cycle],
            sweep_samples[cycle],
            rss,
            stats.points_retained,
            stats.points_evicted
        );
    }

    // Retention accounting is exact: every ring is full, so the fleet
    // retains window x series points; everything else was evicted.
    let stats = service.stats();
    assert_eq!(
        stats.points_retained,
        (shape.series_total() * shape.window) as u64,
        "every ring window is exactly full"
    );
    assert_eq!(
        stats.points_evicted,
        ingested - stats.points_retained,
        "accepted points are either retained or evicted"
    );
    assert!(stats.bytes_evicted > 0);

    if !smoke && rss_kb.len() >= 3 {
        let (first_rss, last_rss) = (rss_kb[0], *rss_kb.last().unwrap());
        // Flat = no trend: the final cycle may not sit more than 5% (plus
        // a small allocator-jitter allowance) above the first.
        assert!(
            last_rss as f64 <= first_rss as f64 * 1.05 + 65_536.0,
            "RSS must stay flat across sustained full-fleet cycles \
             (first {first_rss} kB, last {last_rss} kB)"
        );
        println!(
            "fleet: RSS flat across {} cycles: {rss_kb:?} kB",
            rss_kb.len()
        );
    } else if smoke {
        println!("fleet: smoke mode — RSS and wall-clock assertions skipped");
    }

    // Dirty sweeps: only a rotating slice of tenants is dirtied, so sweep
    // cost must track the slice, with no eviction-driven latency tail.
    let mut runner = Runner::new();
    let mut sweep_round = 0usize;
    runner.bench("fleet/dirty-sweep", shape.dirty_sweeps, || {
        let slice: Vec<usize> = (0..shape.dirty_slice)
            .map(|i| (sweep_round * shape.dirty_slice + i) % shape.tenants)
            .collect();
        sweep_round += 1;
        ingested += ingest_ticks(
            &service,
            &names,
            &ids,
            &slice,
            tick,
            shape.ticks_per_dirty_sweep,
        );
        tick += shape.ticks_per_dirty_sweep;
        let stats = service.refresh_dirty().unwrap();
        assert_eq!(stats.tenants_refreshed, shape.dirty_slice);
        stats.points_evicted
    });
    let dirty = runner.measurement("fleet/dirty-sweep").unwrap().clone();
    let (median, tail) = (dirty.median(), p99(&dirty.samples));
    println!(
        "fleet: dirty-sweep median {median:.2?}, p99 {tail:.2?} over {} sweeps",
        dirty.samples.len()
    );
    if !smoke {
        assert!(
            tail <= median.saturating_mul(5),
            "p99 dirty-sweep latency must stay within 5x the median \
             (median {median:?}, p99 {tail:?})"
        );
    }

    let ledger = Ledger::new("fleet");
    let config_note = format!(
        "tenants={} series={} window={} fill_ticks={} cycles={}",
        shape.tenants,
        shape.series_total(),
        shape.window,
        shape.fill_ticks,
        shape.cycles
    );
    ledger.record(
        &Measurement {
            name: "fleet/sustained-ingest".to_string(),
            samples: ingest_samples,
        },
        &config_note,
    );
    ledger.record(
        &Measurement {
            name: "fleet/full-sweep".to_string(),
            samples: sweep_samples,
        },
        &config_note,
    );
    ledger.record(&dirty, &config_note);
    println!("fleet: {}", ledger.outcome());
}
