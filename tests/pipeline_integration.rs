//! Cross-crate integration tests: the full Sieve pipeline on the ShareLatex
//! application model (steps 1–3 of the paper).

use sieve::core::{load_application, Sieve, SieveConfig};
use sieve::prelude::*;
use sieve_apps::sharelatex;

// Table 3's cost model lives with the experiment harness; the umbrella crate
// has no `sieve-bench` edge, and the file imports nothing.
#[path = "../crates/bench/src/table3.rs"]
mod table3;
use table3::monitoring_overhead;

fn fast_config() -> SieveConfig {
    SieveConfig::default()
        .with_cluster_range(2, 5)
        .with_parallelism(4)
}

fn analyzed_model(seed: u64, workload_seed: u64) -> SieveModel {
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    Sieve::new(fast_config())
        .analyze_application_for(
            &app,
            &Workload::randomized(90.0, workload_seed),
            seed,
            120_000,
        )
        .expect("pipeline run succeeds")
}

#[test]
fn loading_records_all_metrics_and_the_call_graph() {
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let (store, call_graph) =
        load_application(&app, &Workload::randomized(60.0, 2), 7, 90_000, 500).unwrap();
    // Every exported metric is recorded as a time series.
    assert_eq!(store.series_count(), app.total_metric_count());
    // The observed call graph matches the modelled topology.
    assert_eq!(call_graph.component_count(), 15);
    assert!(call_graph.callees("haproxy").iter().any(|c| c == "web"));
    assert!(call_graph.callees("web").iter().any(|c| c == "mongodb"));
    assert!(call_graph
        .callees("doc-updater")
        .iter()
        .any(|c| c == "redis"));
    assert!(!call_graph.callees("mongodb").iter().any(|c| c == "web"));
}

#[test]
fn pipeline_reduces_metrics_by_a_large_factor() {
    let model = analyzed_model(0xAB, 3);
    // Every component got a clustering.
    assert_eq!(model.clusterings.len(), 15);
    // The reduction is at least ~2.5x even on the minimal model (the paper
    // reports 10-100x on the full 889-metric deployment, which
    // `fig4_metric_reduction` reproduces at `Full` richness).
    assert!(
        model.overall_reduction_factor() >= 2.5,
        "reduction factor {:.2}",
        model.overall_reduction_factor()
    );
    // No component keeps more representatives than metrics.
    for clustering in model.clusterings.values() {
        assert!(clustering.clusters.len() <= clustering.total_metrics);
        // Representatives are members of their clusters.
        for cluster in &clustering.clusters {
            assert!(cluster.contains(&cluster.representative));
        }
    }
    // Constant metrics (e.g. num_cpus) never survive the variance filter.
    let web = model.clustering_of("web").expect("web clustering");
    assert!(web
        .clusters
        .iter()
        .all(|c| !c.contains("num_cpus") && !c.contains("open_file_limit")));
}

#[test]
fn dependency_graph_follows_the_call_topology() {
    let model = analyzed_model(0xCD, 5);
    let graph = &model.dependency_graph;
    assert!(graph.edge_count() > 0, "dependency graph is empty");
    // Edges only connect components that actually communicate.
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let calls: Vec<(String, String)> = app
        .calls()
        .iter()
        .map(|c| (c.caller.clone(), c.callee.clone()))
        .collect();
    for edge in graph.edges() {
        let pair_communicates = calls.iter().any(|(a, b)| {
            (a == &edge.source_component && b == &edge.target_component)
                || (a == &edge.target_component && b == &edge.source_component)
        });
        assert!(
            pair_communicates,
            "edge between non-communicating components: {} -> {}",
            edge.source_component, edge.target_component
        );
        // Detected lags are small multiples of the 500 ms interval.
        assert!(edge.lag_ms >= 500 && edge.lag_ms <= 5 * 500);
        assert!(edge.p_value < 0.05);
    }
    // The front of the application is connected to the web tier.
    assert!(
        !graph.edges_between("haproxy", "web").is_empty()
            || !graph.edges_between("web", "haproxy").is_empty(),
        "no dependency between haproxy and web"
    );
}

#[test]
fn clustering_is_consistent_across_independent_runs() {
    // Two runs with different workload seeds and measurement seeds — the
    // cluster assignments should still agree well above chance (Figure 3 of
    // the paper; its reported average AMI is 0.597).
    use sieve::cluster::adjusted_mutual_information;

    let run_a = analyzed_model(0x01, 10);
    let run_b = analyzed_model(0x02, 20);

    let mut amis = Vec::new();
    for (component, clustering_a) in &run_a.clusterings {
        let Some(clustering_b) = run_b.clustering_of(component) else {
            continue;
        };
        // Build label vectors over the metrics clustered in both runs.
        let metrics_a = clustering_a.clustered_metrics();
        let mut labels_a = Vec::new();
        let mut labels_b = Vec::new();
        for (idx_a, metric) in metrics_a.iter().enumerate() {
            let cluster_a = clustering_a
                .clusters
                .iter()
                .position(|c| c.contains(metric))
                .unwrap_or(idx_a);
            if let Some(cluster_b) = clustering_b
                .clusters
                .iter()
                .position(|c| c.contains(metric))
            {
                labels_a.push(cluster_a);
                labels_b.push(cluster_b);
            }
        }
        if labels_a.len() >= 4 {
            amis.push(adjusted_mutual_information(&labels_a, &labels_b).unwrap());
        }
    }
    assert!(!amis.is_empty(), "no comparable components");
    let mean_ami: f64 = amis.iter().sum::<f64>() / amis.len() as f64;
    assert!(
        mean_ami > 0.3,
        "mean AMI across components too low: {mean_ami:.3} ({amis:?})"
    );
}

#[test]
fn cached_granger_engine_equals_direct_path_on_a_full_model() {
    // Regression for the shared SBD engine (spectra, distance matrix,
    // memoised k-Shape), the shared causality engine (cached ADF verdicts,
    // differenced buffers, memoized restricted fits), the session's caches
    // and the executor at once: on three full application runs the
    // production analysis at every executor degree must equal, bit for bit,
    // the stateless serial oracle that recomputes every distance and every
    // Granger test directly. Two runs use the fast config; the third uses
    // the shipped one (k from 2 to 7) and is also streamed into a session
    // epoch by epoch. (The runs are independent and the oracle is serial,
    // so each gets a thread.)
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let workload = Workload::randomized(80.0, 6);
    let check = |seed: u64, base: SieveConfig, stream: bool| {
        let (store, call_graph) = load_application(&app, &workload, seed, 120_000, 500).unwrap();
        let reference =
            sieve::core::oracle_analyze("sharelatex", &store, &call_graph, &base).unwrap();
        assert!(
            reference.dependency_graph.edge_count() > 0,
            "the run must infer dependency edges"
        );
        for parallelism in [1usize, 4, 8] {
            let config = base.clone().with_parallelism(parallelism);
            let model = Sieve::new(config.clone())
                .analyze("sharelatex", &store, &call_graph)
                .unwrap();
            assert_eq!(reference.clusterings, model.clusterings);
            assert_eq!(
                reference.dependency_graph.edges(),
                model.dependency_graph.edges()
            );
            assert_eq!(
                reference, model,
                "seed {seed:#x}, parallelism {parallelism}"
            );
            if stream {
                assert_eq!(
                    reference,
                    streamed_model(&app, &workload, seed, config),
                    "streamed, seed {seed:#x}, parallelism {parallelism}"
                );
            }
        }
    };
    std::thread::scope(|scope| {
        scope.spawn(|| check(0x51, fast_config(), false));
        scope.spawn(|| check(0x52, fast_config(), false));
        check(0x53, SieveConfig::default(), true);
    });
}

/// Runs the simulation `load_application` runs for `seed` (120 s at 500 ms
/// ticks), streaming it into an [`AnalysisSession`] 40 ticks at a time with
/// the call graph following the simulation, and returns the last model.
fn streamed_model(
    app: &AppSpec,
    workload: &Workload,
    seed: u64,
    config: SieveConfig,
) -> SieveModel {
    let sim_config = SimConfig::new(seed)
        .with_tick_ms(500)
        .with_duration_ms(120_000);
    let mut sim = Simulation::new(app.clone(), workload.clone(), sim_config).unwrap();
    let mut session =
        AnalysisSession::new("sharelatex", sim.store().clone(), sim.call_graph(), config).unwrap();
    let mut model = None;
    loop {
        let (delta, executed) = sim.step_epoch(40);
        if executed == 0 {
            break;
        }
        session.set_call_graph(sim.call_graph());
        model = Some(session.update_shared(&delta).unwrap());
    }
    (*model.expect("at least one epoch ran")).clone()
}

#[test]
fn monitoring_cost_drops_after_reduction() {
    // Table 3's mechanism: re-ingesting only the representative metrics
    // costs a fraction of ingesting everything.
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let (store, call_graph) =
        load_application(&app, &Workload::randomized(70.0, 4), 0x77, 120_000, 500).unwrap();
    let model = Sieve::new(fast_config())
        .analyze("sharelatex", &store, &call_graph)
        .unwrap();

    let keep: Vec<MetricId> = model
        .representative_metrics()
        .into_iter()
        .map(|(component, metric)| MetricId::new(component, metric))
        .collect();
    let reduced = store.retain_only(&keep);
    let before = monitoring_overhead(store.point_count(), store.series_count());
    let after = monitoring_overhead(reduced.point_count(), reduced.series_count());
    for ((row, before), (_, after)) in before.into_iter().zip(after) {
        let savings = (1.0 - after / before) * 100.0;
        assert!(savings > 50.0, "{row}: savings {savings:.1}%");
    }
}
