//! Quickstart: run the full Sieve pipeline against the ShareLatex-like
//! application model and print what an operator gets out of it — the reduced
//! metric set and the inferred dependency graph.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sieve::core::config::SieveConfig;
use sieve::core::pipeline::Sieve;
use sieve::graph::dot::dependency_graph_to_dot;
use sieve::prelude::*;
use sieve_apps::sharelatex;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step 1: model the application. `MetricRichness::Minimal` keeps this
    // example fast; `Full` approximates the paper's 889-metric deployment.
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    println!(
        "Application `{}`: {} components, {} exported metrics",
        app.name,
        app.component_count(),
        app.total_metric_count()
    );

    // Steps 2-3: load the application under a randomized workload, reduce
    // the metric space and identify dependencies.
    let sieve = Sieve::new(SieveConfig::default());
    let model = sieve.analyze_application(&app, &Workload::randomized(80.0, 7), 0xC0FFEE)?;

    println!(
        "\nMetric reduction: {} metrics -> {} representatives ({:.1}x)",
        model.total_metric_count(),
        model.total_representative_count(),
        model.overall_reduction_factor()
    );
    println!("\nPer-component clusters:");
    for (component, clustering) in &model.clusterings {
        println!(
            "  {:<14} {:>3} metrics -> {:>2} clusters (silhouette {:.2}), representatives: {}",
            component,
            clustering.total_metrics,
            clustering.clusters.len(),
            clustering.silhouette,
            clustering.representatives().join(", ")
        );
    }

    println!(
        "\nDependency graph: {} components, {} edges",
        model.dependency_graph.component_count(),
        model.dependency_graph.edge_count()
    );
    for edge in model.dependency_graph.edges().iter().take(10) {
        println!(
            "  {}::{} -> {}::{} (lag {} ms, p = {:.4})",
            edge.source_component,
            edge.source_metric,
            edge.target_component,
            edge.target_metric,
            edge.lag_ms,
            edge.p_value
        );
    }
    if model.dependency_graph.edge_count() > 10 {
        println!(
            "  ... and {} more",
            model.dependency_graph.edge_count() - 10
        );
    }

    if let Some((component, metric)) = model.dependency_graph.most_connected_metric() {
        println!("\nMost connected metric (autoscaling candidate): {component}/{metric}");
    }

    // The graph can be exported to Graphviz DOT for visual inspection
    // (Figure 6 of the paper).
    let dot = dependency_graph_to_dot(&model.dependency_graph);
    println!(
        "\nDOT export: {} bytes (pipe into `dot -Tpng` to render)",
        dot.len()
    );

    Ok(())
}
