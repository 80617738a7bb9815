//! Graphviz DOT rendering of dependency graphs.
//!
//! Useful for reproducing visualisations such as Figure 6 of the paper (the
//! ShareLatex dependency graph).

use crate::DependencyGraph;
use std::fmt::Write as _;

/// Renders a dependency graph as a DOT digraph. Edges are labelled with the
/// causing/affected metrics and the detected lag.
pub fn dependency_graph_to_dot(graph: &DependencyGraph) -> String {
    let mut out = String::from("digraph dependencies {\n");
    for component in graph.components() {
        let _ = writeln!(out, "    \"{}\";", escape(&component));
    }
    for e in graph.edges() {
        let _ = writeln!(
            out,
            "    \"{}\" -> \"{}\" [label=\"{} => {} ({} ms)\"];",
            escape(&e.source_component),
            escape(&e.target_component),
            escape(&e.source_metric),
            escape(&e.target_metric),
            e.lag_ms
        );
    }
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::DependencyEdge;

    fn graph_with_edge(source: &str, target: &str) -> DependencyGraph {
        let mut g = DependencyGraph::new();
        g.add_edge(DependencyEdge {
            source_component: source.into(),
            source_metric: "http_requests_mean".into(),
            target_component: target.into(),
            target_metric: "queries".into(),
            p_value: 0.01,
            f_statistic: 12.0,
            lag_ms: 500,
        });
        g
    }

    #[test]
    fn dependency_graph_dot_labels_metrics_and_lag() {
        let dot = dependency_graph_to_dot(&graph_with_edge("web", "mongodb"));
        assert!(dot.starts_with("digraph dependencies {"));
        assert!(dot.contains("\"web\" -> \"mongodb\""));
        assert!(dot.contains("http_requests_mean => queries (500 ms)"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn quotes_in_names_are_escaped() {
        let dot = dependency_graph_to_dot(&graph_with_edge("a\"b", "c"));
        assert!(dot.contains("a\\\"b"));
    }

    #[test]
    fn empty_graphs_render_valid_dot() {
        assert_eq!(
            dependency_graph_to_dot(&DependencyGraph::new()),
            "digraph dependencies {\n}\n"
        );
    }
}
