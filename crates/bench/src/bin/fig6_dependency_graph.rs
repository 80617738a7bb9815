//! Figure 6 — the ShareLatex dependency graph inferred by Granger causality.
//!
//! The paper's figure shows the relations between the 15 ShareLatex
//! components, with the `http-requests_Project_id_GET_mean` metric of the
//! web component participating in many of them (which is why the autoscaling
//! case study selects it as the guiding metric).
//!
//! Run with: `cargo run --release -p sieve-bench --bin fig6_dependency_graph`

use sieve_apps::MetricRichness;
use sieve_bench::{print_header, sharelatex_model};
use sieve_graph::dependency_graph_to_dot;

fn main() {
    print_header("Figure 6: ShareLatex dependency graph (Granger causality relations)");
    println!("Running the full Sieve analysis of ShareLatex (full model) ...\n");
    let model = sharelatex_model(MetricRichness::Full, 0x66, 11);

    let graph = &model.dependency_graph;
    println!(
        "Dependency graph: {} components, {} metric-level edges\n",
        graph.component_count(),
        graph.edge_count()
    );

    println!("Component-level relations (direction = Granger causality):");
    let mut component_pairs: Vec<(sieve_exec::Name, sieve_exec::Name, usize)> = Vec::new();
    for source in graph.components() {
        for target in graph.components() {
            let edges = graph.edges_between(&source, &target);
            if !edges.is_empty() {
                component_pairs.push((source.clone(), target.clone(), edges.len()));
            }
        }
    }
    for (source, target, count) in &component_pairs {
        println!(
            "  {:<14} -> {:<14} ({} metric pairs)",
            source, target, count
        );
    }

    println!("\nMetrics appearing most often in the relations:");
    for ((component, metric), count) in graph.metric_appearance_counts().into_iter().take(8) {
        println!(
            "  {:<44} {count:>3} relations",
            format!("{component}/{metric}")
        );
    }
    if let Some((component, metric)) = graph.most_connected_metric() {
        println!(
            "\nGuiding-metric candidate (paper: web/http-requests_Project_id_GET_mean): \
             {component}/{metric}"
        );
    }

    println!("\nGraphviz DOT output:\n");
    println!("{}", dependency_graph_to_dot(graph));
}
