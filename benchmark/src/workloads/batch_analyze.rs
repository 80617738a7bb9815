//! `batch-analyze`: the paper's three-step pipeline alone, from scratch,
//! on both paper applications at `Full` metric richness.

use super::{Ctx, SetupTimes, Sizing};
use crate::fleet::{analysis_config, triples, Failure};
use crate::host::peak_rss_mb;
use crate::inputs::{paper_application_tapes, Tape, TICK_MS};
use crate::report::{Outcome, Roles};
use crate::stats::{least, median, supported_tail};
use crate::trace::Tracer;
use sieve::cluster::distance::DistanceMatrix;
use sieve::cluster::jaro::pre_cluster_names;
use sieve::cluster::silhouette::silhouette_score_from_matrix;
use sieve::core::columnar::PreparedComponent;
use sieve::core::dependencies::identify_dependencies;
use sieve::core::reduce::{is_unvarying, reduce_component};
use sieve::prelude::*;
use sieve::timeseries::resample::resample;
use sieve::timeseries::spectrum::{sbd_distance_from_spectra, SpectrumBatch};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One recorded application and what analysing it must produce.
struct App {
    tape: Tape,
    store: MetricStore,
    reference: SieveModel,
}

/// Records both applications and analyses each once: that fills the
/// twiddle tables, and its model is what every measured analysis is
/// checked against.
fn setup(origin_ms: u64, config: &SieveConfig) -> Result<Vec<App>, Failure> {
    let sieve = Sieve::new(config.clone());
    paper_application_tapes(origin_ms)
        .into_iter()
        .map(|tape| {
            let store = MetricStore::new();
            for tick in &tape.ticks {
                store.record_batch(triples(tick));
            }
            let reference = sieve.analyze(&tape.name, &store, &tape.graph)?;
            Ok(App {
                tape,
                store,
                reference,
            })
        })
        .collect()
}

/// The untraced pass: one op analyses both applications, in seeded order,
/// each under its own stopwatch, on one thread. (At hardware parallelism
/// the two threads sit on two shared vCPUs and the same analysis reads
/// anywhere between 0.85 s and 1.4 s — its serial time — from one op to the
/// next, as the host does or does not run them side by side.)
pub fn measure(ctx: &Ctx<'_>, sizing: Sizing) -> Result<Outcome, Failure> {
    let mut outcome = Outcome::default();
    let mut schedule = ctx.schedule();
    let config = analysis_config();
    let mut setups = SetupTimes::default();
    let apps = setups.time(|| setup(schedule.origin_ms, &config))?;
    let sieve = Sieve::new(config.clone());
    let series: usize = apps.iter().map(|app| app.store.series_count()).sum();

    let clock = Instant::now();
    let mut app_seconds = vec![Vec::new(); apps.len()];
    let mut op_seconds = Vec::new();
    while !sizing.budget.spent(op_seconds.len() as u64, clock) {
        let mut op = 0.0;
        for i in schedule.permutation(apps.len()) {
            let app = &apps[i];
            let started = Instant::now();
            let model = sieve.analyze(&app.tape.name, &app.store, &app.tape.graph);
            let seconds = started.elapsed().as_secs_f64();
            app_seconds[i].push(seconds);
            op += seconds;
            outcome.check(
                matches!(&model, Ok(model) if *model == app.reference),
                || {
                    format!(
                        "{}: Sieve::analyze did not reproduce its own model",
                        app.tape.name
                    )
                },
            );
        }
        op_seconds.push(op);
    }

    outcome.metric("rss_mb", peak_rss_mb(), 1);
    drop(apps);
    setups.repeat(sizing.setup_reps, || setup(schedule.origin_ms, &config))?;
    setups.report(&mut outcome);

    // Every analysis of an application is the same work, so the quietest
    // window is each application's fastest analysis.
    let analyze_s: f64 = app_seconds.iter().map(|seconds| least(seconds)).sum();
    outcome.ops = op_seconds.len() as u64;
    outcome.metric("analyze_s", analyze_s, op_seconds.len());
    outcome.roles = Roles {
        op_ms: analyze_s * 1e3,
        work_per_s: series as f64 / analyze_s,
    };
    outcome.layer(
        "bench.op_median_ms",
        median(&op_seconds) * 1e3,
        op_seconds.len(),
    );
    outcome.layer(
        "bench.op_tail_ms",
        supported_tail(&op_seconds) * 1e3,
        op_seconds.len(),
    );
    Ok(outcome)
}

/// Prepared series of one component that survive the variance filter,
/// with their names — what `reduce_component` clusters.
fn kept_series<'a>(
    prepared: &'a PreparedComponent,
    config: &SieveConfig,
) -> (Vec<&'a str>, Vec<&'a [f64]>) {
    (0..prepared.len())
        .filter(|&i| {
            let values = prepared.series(i);
            values.len() >= 4 && !is_unvarying(values, config.variance_threshold)
        })
        .map(|i| (prepared.name(i).as_str(), prepared.series(i)))
        .unzip()
}

/// The traced pass: the pipeline stage by stage at parallelism 1, then
/// each kernel alone on the inputs the stage gave it.
pub fn trace(ctx: &Ctx<'_>, tracer: &mut Tracer) -> Result<Outcome, Failure> {
    let mut outcome = Outcome::default();
    let config = analysis_config();
    let apps = setup(ctx.schedule().origin_ms, &config)?;
    let sieve = Sieve::new(config.clone());
    let pool_before = sieve::exec::pool::pool_stats();

    // The same op untraced, for the staged share and the tracing overhead.
    let started = Instant::now();
    for app in &apps {
        black_box(sieve.analyze(&app.tape.name, &app.store, &app.tape.graph)?);
    }
    let untraced_s = started.elapsed().as_secs_f64();

    tracer.next_op();
    let (mut kshape_iters, mut granger_tests) = (0usize, 0usize);
    for app in &apps {
        let mut stage_ids = (0, 0, 0);
        let (_, staged) = tracer.span("core.analyze_staged", |t| {
            let (prepare_id, prepared) = t.span("core.prepare", |_| sieve.prepare(&app.store));
            let (reduce_id, clusterings) = t.span("core.reduce", |_| {
                prepared
                    .iter()
                    .map(|(name, component)| {
                        Ok((
                            name.clone(),
                            reduce_component(name.clone(), component, &config)?,
                        ))
                    })
                    .collect::<Result<BTreeMap<_, _>, sieve::core::SieveError>>()
            });
            let clusterings = clusterings?;
            let (dependencies_id, graph) = t.span("core.dependencies", |_| {
                identify_dependencies(&prepared, &clusterings, &app.tape.graph, &config)
            });
            stage_ids = (prepare_id, reduce_id, dependencies_id);
            Ok::<_, sieve::core::SieveError>((prepared, clusterings, graph?))
        });
        let (prepared, clusterings, dependency_graph) = staged?;
        let (prepare_id, reduce_id, dependencies_id) = stage_ids;
        let staged_model = SieveModel {
            application: app.tape.name.clone(),
            clusterings,
            dependency_graph,
        };
        outcome.check(staged_model == app.reference, || {
            format!(
                "{}: staged pipeline differs from Sieve::analyze",
                app.tape.name
            )
        });

        // timeseries alone: every raw series onto the grid.
        for series in app.store.export().values() {
            tracer
                .shadow(prepare_id, "timeseries.resample", || {
                    resample(series, TICK_MS)
                })
                .1?;
        }

        // timeseries + cluster alone, per component, on what reduce saw.
        for component in prepared.values() {
            let (names, kept) = kept_series(component, &config);
            if kept.len() < 2 {
                continue;
            }
            let batch = tracer
                .shadow(reduce_id, "timeseries.spectra", || {
                    SpectrumBatch::compute(&kept)
                })
                .1?;
            let (matrix_id, matrix) = tracer.shadow(reduce_id, "cluster.distance_matrix", || {
                DistanceMatrix::from_spectra(batch.spectra(), 1)
            });
            let matrix = matrix?;
            for pair in batch.spectra().windows(2) {
                tracer
                    .shadow(matrix_id, "timeseries.sbd", || {
                        sbd_distance_from_spectra(&pair[0], &pair[1])
                    })
                    .1?;
            }
            let max_k = config.max_clusters.min(kept.len() - 1).max(1);
            for k in config.min_clusters.min(max_k)..=max_k {
                let kshape = KShape::new(
                    KShapeConfig::new(k)
                        .with_max_iterations(config.kshape_max_iterations)
                        .with_initial_assignment(pre_cluster_names(&names, k)),
                );
                let fit = tracer
                    .shadow(reduce_id, "cluster.kshape_fit", || kshape.fit(&kept))
                    .1?;
                kshape_iters += fit.iterations;
                tracer
                    .shadow(reduce_id, "cluster.silhouette", || {
                        silhouette_score_from_matrix(&matrix, &fit.assignments)
                    })
                    .1?;
            }
        }

        // causality alone: every representative prepared once, every
        // planned comparison tested in both directions.
        let mut representatives: BTreeMap<&Name, Vec<PreparedGrangerSeries>> = BTreeMap::new();
        for (component, clustering) in &staged_model.clusterings {
            let series = &prepared[component];
            for representative in clustering.representatives() {
                let Some(i) = series.names().iter().position(|n| *n == representative) else {
                    continue;
                };
                let values = series.series(i).to_vec();
                let state = tracer
                    .shadow(dependencies_id, "causality.prepare", || {
                        PreparedGrangerSeries::prepare(values)
                    })
                    .1;
                representatives.entry(component).or_default().push(state);
            }
        }
        for (caller, callee) in app.tape.graph.communicating_pairs() {
            let (Some(sources), Some(targets)) =
                (representatives.get(&caller), representatives.get(&callee))
            else {
                continue;
            };
            if caller == callee {
                continue;
            }
            for source in sources {
                for target in targets {
                    for (x, y) in [(source, target), (target, source)] {
                        tracer.shadow(dependencies_id, "causality.granger_test", || {
                            black_box(granger_causes_prepared(x, y, &config.granger).ok())
                        });
                        granger_tests += 1;
                    }
                }
            }
        }
    }

    // exec alone: the fan-out over a no-op, two workers against one.
    let items = [0u64; 64];
    let fan_out = |workers: usize| {
        let samples: Vec<f64> = (0..200)
            .map(|_| {
                let started = Instant::now();
                black_box(par_map_chunks(workers, &items, |x| *x));
                started.elapsed().as_nanos() as f64
            })
            .collect();
        median(&samples)
    };
    let par_map_overhead_ns = fan_out(2) - fan_out(1);
    let pool_after = sieve::exec::pool::pool_stats();

    let per_op_ms = |name: &str| tracer.total_ns(name) / 1e6;
    let median_us = |name: &str| median(&tracer.durations_ns(name)) / 1e3;
    let count = |name: &str| tracer.durations_ns(name).len();
    let staged_ms =
        per_op_ms("core.prepare") + per_op_ms("core.reduce") + per_op_ms("core.dependencies");
    outcome.layer(
        "timeseries.resample_us",
        median_us("timeseries.resample"),
        count("timeseries.resample"),
    );
    outcome.layer(
        "timeseries.spectra_ms",
        per_op_ms("timeseries.spectra"),
        count("timeseries.spectra"),
    );
    outcome.layer(
        "timeseries.sbd_us",
        median_us("timeseries.sbd"),
        count("timeseries.sbd"),
    );
    outcome.layer(
        "cluster.distance_matrix_ms",
        per_op_ms("cluster.distance_matrix"),
        count("cluster.distance_matrix"),
    );
    outcome.layer(
        "cluster.kshape_fit_ms",
        per_op_ms("cluster.kshape_fit"),
        count("cluster.kshape_fit"),
    );
    outcome.layer(
        "cluster.kshape_iters",
        kshape_iters as f64,
        count("cluster.kshape_fit"),
    );
    outcome.layer(
        "cluster.silhouette_ms",
        per_op_ms("cluster.silhouette"),
        count("cluster.silhouette"),
    );
    outcome.layer(
        "causality.prepare_ms",
        per_op_ms("causality.prepare"),
        count("causality.prepare"),
    );
    outcome.layer(
        "causality.granger_test_us",
        median_us("causality.granger_test"),
        granger_tests,
    );
    outcome.layer("causality.tests", granger_tests as f64, 1);
    outcome.layer("core.prepare_ms", per_op_ms("core.prepare"), apps.len());
    outcome.layer("core.reduce_ms", per_op_ms("core.reduce"), apps.len());
    outcome.layer(
        "core.dependencies_ms",
        per_op_ms("core.dependencies"),
        apps.len(),
    );
    outcome.layer("core.staged_share", staged_ms / 1e3 / untraced_s, 1);
    outcome.layer("exec.par_map_overhead_us", par_map_overhead_ns / 1e3, 200);
    outcome.layer(
        "exec.pool_workers_spawned",
        (pool_after.workers_spawned - pool_before.workers_spawned) as f64,
        1,
    );
    outcome.layer(
        "exec.pool_tasks",
        (pool_after.tasks_executed - pool_before.tasks_executed) as f64,
        1,
    );
    outcome.layer(
        "bench.trace_overhead_frac",
        (per_op_ms("core.analyze_staged") / 1e3 - untraced_s) / untraced_s,
        1,
    );
    outcome.layer("bench.ops_traced", tracer.ops() as f64, 1);
    Ok(outcome)
}
