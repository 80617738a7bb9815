//! The metric dependency graph produced by Sieve's causality step.
//!
//! "If Sieve determines that there is a relationship between a metric of one
//! component and another metric of another component, a dependency edge
//! between these components is created using the corresponding metrics. The
//! direction of the edge depends on which component is affecting the other."
//! (§2.3/§3.3). Each edge also records the Granger p-value, F statistic and
//! the time lag at which the relation was found — the RCA engine compares
//! these attributes across application versions.
//!
//! Endpoints are interned [`Name`]s, so edge keys, bidirectional filtering
//! and the cross-version diffs below clone reference counts, not strings.

use sieve_exec::Name;
use std::collections::{BTreeMap, BTreeSet};

/// A directed dependency between two representative metrics of two
/// components.
#[derive(Debug, Clone, PartialEq)]
pub struct DependencyEdge {
    /// Component whose metric Granger-causes the target metric.
    pub source_component: Name,
    /// The causing (representative) metric.
    pub source_metric: Name,
    /// Component whose metric is affected.
    pub target_component: Name,
    /// The affected (representative) metric.
    pub target_metric: Name,
    /// p-value of the Granger F-test.
    pub p_value: f64,
    /// F statistic of the Granger test.
    pub f_statistic: f64,
    /// Time lag (in milliseconds) at which the dependency was detected.
    pub lag_ms: u64,
}

impl DependencyEdge {
    /// Key identifying the component-level direction of this edge.
    pub fn component_pair(&self) -> (Name, Name) {
        (self.source_component.clone(), self.target_component.clone())
    }

    /// Key identifying the full metric-level edge.
    pub fn metric_key(&self) -> (Name, Name, Name, Name) {
        (
            self.source_component.clone(),
            self.source_metric.clone(),
            self.target_component.clone(),
            self.target_metric.clone(),
        )
    }
}

/// A dependency graph: a set of [`DependencyEdge`]s plus the set of
/// components known to the analysis (components can exist without edges).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DependencyGraph {
    components: BTreeSet<Name>,
    edges: Vec<DependencyEdge>,
}

impl DependencyGraph {
    /// Creates an empty dependency graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a component.
    pub fn add_component(&mut self, name: impl Into<Name>) {
        self.components.insert(name.into());
    }

    /// Adds an edge, registering its endpoint components.
    pub fn add_edge(&mut self, edge: DependencyEdge) {
        self.components.insert(edge.source_component.clone());
        self.components.insert(edge.target_component.clone());
        self.edges.push(edge);
    }

    /// All registered components, sorted.
    pub fn components(&self) -> Vec<Name> {
        self.components.iter().cloned().collect()
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[DependencyEdge] {
        &self.edges
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Edges from `source` to `target` (component level).
    pub fn edges_between(&self, source: &str, target: &str) -> Vec<&DependencyEdge> {
        self.edges
            .iter()
            .filter(|e| e.source_component == source && e.target_component == target)
            .collect()
    }

    /// Removes *bidirectional metric pairs*: when metric A Granger-causes
    /// metric B **and** B Granger-causes A, both edges are dropped, because
    /// such relations usually indicate a hidden common cause ("an indicator
    /// of such a situation is that both metrics will Granger-cause each
    /// other ... Sieve filters these edges out", §3.3). Returns the number of
    /// removed edges.
    pub fn filter_bidirectional(&mut self) -> usize {
        let keys: BTreeSet<(Name, Name, Name, Name)> =
            self.edges.iter().map(|e| e.metric_key()).collect();
        let before = self.edges.len();
        self.edges.retain(|e| {
            let reverse = (
                e.target_component.clone(),
                e.target_metric.clone(),
                e.source_component.clone(),
                e.source_metric.clone(),
            );
            !keys.contains(&reverse)
        });
        before - self.edges.len()
    }

    /// Counts, per `(component, metric)`, in how many edges (either
    /// endpoint) the metric participates — the statistic Sieve's autoscaling
    /// case study uses to pick the guiding metric ("We pick a metric m that
    /// appears the most in Granger Causality relations between components",
    /// §4.1). A name several components export is several metrics: each
    /// counts on its own. Returns the counts sorted descending by count,
    /// then by component and name.
    pub fn metric_appearance_counts(&self) -> Vec<((Name, Name), usize)> {
        let mut counts: BTreeMap<(Name, Name), usize> = BTreeMap::new();
        for e in &self.edges {
            let source = (e.source_component.clone(), e.source_metric.clone());
            let target = (e.target_component.clone(), e.target_metric.clone());
            *counts.entry(source).or_insert(0) += 1;
            *counts.entry(target).or_insert(0) += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// The `(component, metric)` that appears most often in dependency
    /// relations, if any.
    pub fn most_connected_metric(&self) -> Option<(Name, Name)> {
        self.metric_appearance_counts()
            .into_iter()
            .next()
            .map(|(id, _)| id)
    }

    /// Edges present in `self` but not in `other` (compared by full metric
    /// key, ignoring the statistical attributes).
    pub fn edges_not_in<'a>(&'a self, other: &DependencyGraph) -> Vec<&'a DependencyEdge> {
        let other_keys: BTreeSet<_> = other.edges.iter().map(|e| e.metric_key()).collect();
        self.edges
            .iter()
            .filter(|e| !other_keys.contains(&e.metric_key()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(sc: &str, sm: &str, tc: &str, tm: &str, p: f64, lag: u64) -> DependencyEdge {
        DependencyEdge {
            source_component: sc.into(),
            source_metric: sm.into(),
            target_component: tc.into(),
            target_metric: tm.into(),
            p_value: p,
            f_statistic: 10.0,
            lag_ms: lag,
        }
    }

    fn sample() -> DependencyGraph {
        let mut g = DependencyGraph::new();
        g.add_edge(edge(
            "haproxy",
            "http_requests_mean",
            "web",
            "cpu_usage",
            0.01,
            500,
        ));
        g.add_edge(edge(
            "web",
            "http_requests_mean",
            "mongodb",
            "queries",
            0.02,
            500,
        ));
        g.add_edge(edge(
            "web",
            "http_requests_mean",
            "redis",
            "ops",
            0.03,
            1000,
        ));
        g.add_component("spelling");
        g
    }

    #[test]
    fn components_include_isolated_ones() {
        let g = sample();
        assert_eq!(g.component_count(), 5);
        assert!(g.components().iter().any(|c| c == "spelling"));
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn edge_queries_work() {
        let g = sample();
        assert!(!g.edges_between("haproxy", "web").is_empty());
        assert!(g.edges_between("web", "haproxy").is_empty());
        assert_eq!(g.edges_between("web", "redis").len(), 1);
        assert_eq!(g.edges_between("web", "mongodb").len(), 1);
        assert!(g.edges_between("spelling", "web").is_empty());
    }

    #[test]
    fn bidirectional_pairs_are_filtered() {
        let mut g = DependencyGraph::new();
        g.add_edge(edge("a", "m1", "b", "m2", 0.01, 500));
        g.add_edge(edge("b", "m2", "a", "m1", 0.02, 500));
        g.add_edge(edge("a", "m1", "c", "m3", 0.01, 500));
        let removed = g.filter_bidirectional();
        assert_eq!(removed, 2);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.edges_between("a", "c").is_empty());
    }

    #[test]
    fn one_directional_edges_survive_filtering() {
        let mut g = sample();
        assert_eq!(g.filter_bidirectional(), 0);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn metric_appearance_counts_rank_the_hub_metric_first() {
        let g = sample();
        let counts = g.metric_appearance_counts();
        let hub: (Name, Name) = ("web".into(), "http_requests_mean".into());
        // haproxy exports a metric of the same name: it counts separately.
        assert_eq!(counts[0], (hub.clone(), 2));
        assert_eq!(g.most_connected_metric(), Some(hub));
    }

    #[test]
    fn a_name_every_component_exports_does_not_outvote_a_real_hub() {
        // `gc_pause_ms` sits on four edge endpoints, but as two metrics of
        // two components with two each; `web/requests` sits on three.
        let mut g = DependencyGraph::new();
        g.add_edge(edge("web", "requests", "db", "queries", 0.01, 500));
        g.add_edge(edge("web", "requests", "cache", "ops", 0.01, 500));
        g.add_edge(edge("web", "requests", "db", "gc_pause_ms", 0.01, 500));
        g.add_edge(edge("cache", "gc_pause_ms", "db", "gc_pause_ms", 0.01, 500));
        g.add_edge(edge("cache", "gc_pause_ms", "db", "connections", 0.01, 500));
        let counts = g.metric_appearance_counts();
        assert_eq!(counts[0], (("web".into(), "requests".into()), 3));
        // Ties order by component, then name.
        assert_eq!(counts[1], (("cache".into(), "gc_pause_ms".into()), 2));
        assert_eq!(counts[2], (("db".into(), "gc_pause_ms".into()), 2));
        assert_eq!(
            g.most_connected_metric(),
            Some(("web".into(), "requests".into()))
        );
    }

    #[test]
    fn empty_graph_has_no_most_connected_metric() {
        assert!(DependencyGraph::new().most_connected_metric().is_none());
    }

    #[test]
    fn graph_diff_finds_new_and_discarded_edges() {
        let correct = sample();
        let mut faulty = sample();
        faulty.add_edge(edge(
            "nova_api",
            "instances_error",
            "neutron",
            "ports_down",
            0.001,
            500,
        ));
        let new_edges = faulty.edges_not_in(&correct);
        assert_eq!(new_edges.len(), 1);
        assert_eq!(new_edges[0].source_component, "nova_api");
        assert!(correct.edges_not_in(&faulty).is_empty());
    }

    #[test]
    fn clone_equality_roundtrip() {
        let g = sample();
        let copy = g.clone();
        assert_eq!(copy, g);
    }
}
