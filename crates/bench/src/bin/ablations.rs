//! Ablation experiments for the design choices called out in
//! `docs/ARCHITECTURE.md`:
//!
//! * Jaro name-similarity warm start vs random initial assignment for
//!   k-Shape (convergence iterations, §3.2's "this adjustment is only for
//!   performance reasons");
//! * silhouette-driven selection of `k` vs a fixed `k`;
//! * the variance pre-filter on/off (how many metrics it removes and what
//!   clustering would have to process without it);
//! * call-graph-restricted pairwise Granger testing vs the naive all-pairs
//!   plan (§3.3's search-space reduction).
//!
//! Run with: `cargo run --release -p sieve-bench --bin ablations`

use sieve_apps::{sharelatex, MetricRichness};
use sieve_bench::{experiment_config, load_sharelatex, print_header};
use sieve_cluster::jaro::pre_cluster_names;
use sieve_cluster::silhouette::silhouette_score_sbd;
use sieve_cluster::{KShape, KShapeConfig};
use sieve_core::dependencies::{naive_comparison_count, planned_comparison_count};
use sieve_core::reduce::is_unvarying;
use sieve_core::Sieve;

fn main() {
    print_header("Ablations: warm start, k selection, variance filter, call-graph restriction");
    let config = experiment_config();
    let (store, call_graph) = load_sharelatex(MetricRichness::Full, 0xAB1, 17);

    // Prepare the web component's series once.
    let component = "web";
    let prepared = Sieve::new(config.clone())
        .prepare(&store)
        .remove(component)
        .expect("the web component has metrics");
    let varying: Vec<usize> = (0..prepared.len())
        .filter(|&i| !is_unvarying(prepared.series(i), config.variance_threshold))
        .collect();
    let data: Vec<&[f64]> = varying.iter().map(|&i| prepared.series(i)).collect();
    let names: Vec<&str> = varying.iter().map(|&i| prepared.name(i).as_str()).collect();

    // 1. Variance filter on/off.
    println!("\n[1] Variance pre-filter (component `{component}`):");
    println!("    metrics exported:          {}", prepared.len());
    println!("    metrics after the filter:  {}", varying.len());
    println!(
        "    removed as unvarying:      {} ({}%)",
        prepared.len() - varying.len(),
        100 * (prepared.len() - varying.len()) / prepared.len().max(1)
    );

    // 2. Jaro warm start vs random initial assignment.
    println!("\n[2] k-Shape initial assignment (k = 5, component `{component}`):");
    let k = 5.min(data.len().saturating_sub(1)).max(1);
    let warm_init = pre_cluster_names(&names, k);
    let warm = KShape::new(KShapeConfig::new(k).with_initial_assignment(warm_init))
        .fit(&data)
        .expect("warm-start clustering succeeds");
    let cold = KShape::new(KShapeConfig::new(k))
        .fit(&data)
        .expect("cold-start clustering succeeds");
    let warm_sil = silhouette_score_sbd(&data, &warm.assignments).unwrap_or(0.0);
    let cold_sil = silhouette_score_sbd(&data, &cold.assignments).unwrap_or(0.0);
    println!(
        "    Jaro warm start:  {} iterations, silhouette {:.3}",
        warm.iterations, warm_sil
    );
    println!(
        "    default start:    {} iterations, silhouette {:.3}",
        cold.iterations, cold_sil
    );

    // 3. Silhouette-driven k vs fixed k.
    println!("\n[3] Cluster-count selection (component `{component}`):");
    let mut best: Option<(usize, f64)> = None;
    for k in config.min_clusters..=config.max_clusters.min(data.len().saturating_sub(1)) {
        let init = pre_cluster_names(&names, k);
        let result = KShape::new(KShapeConfig::new(k).with_initial_assignment(init))
            .fit(&data)
            .expect("clustering succeeds");
        let sil = silhouette_score_sbd(&data, &result.assignments).unwrap_or(0.0);
        println!("    k = {k}: silhouette {sil:.3}");
        if best.map_or(true, |(_, b)| sil > b) {
            best = Some((k, sil));
        }
    }
    if let Some((k, sil)) = best {
        println!("    chosen k = {k} (silhouette {sil:.3})");
    }

    // 4. Call-graph restriction of the pairwise Granger plan.
    println!("\n[4] Pairwise Granger comparison plan (whole application):");
    let model = Sieve::new(config.clone())
        .analyze("sharelatex", &store, &call_graph)
        .expect("analysis succeeds");
    let planned = planned_comparison_count(&call_graph, &model.clusterings);
    let naive = naive_comparison_count(&model.clusterings);
    println!("    call-graph-restricted tests (representatives): {planned}");
    println!("    naive all-pairs tests (all clustered metrics): {naive}");
    println!(
        "    reduction factor: {:.1}x",
        naive as f64 / planned.max(1) as f64
    );
    println!(
        "    (paper argument: the call graph plus representative metrics shrink the search space)"
    );

    // Keep the spec import used (sanity print of the component list).
    println!(
        "\nComponents analysed: {}",
        sharelatex::COMPONENTS.join(", ")
    );
}
