//! The component call graph.
//!
//! While the application is loaded, Sieve records which components talk to
//! which (via sysdig in the paper, via the simulator's tracer in this
//! reproduction) and models the communication "as a directed graph, where the
//! vertices represent the microservice components and the edges point from
//! the caller to the callee providing the service" (§3.1). The call graph
//! restricts the pairwise Granger comparisons to components that actually
//! communicate.
//!
//! Components are identified by interned [`Name`]s: recording a call interns
//! the endpoint names once, and every later lookup or comparison is a
//! pointer-fast operation instead of a `String` clone-and-compare.

use sieve_exec::Name;
use std::collections::{BTreeMap, BTreeSet};

/// A directed graph of component-to-component calls with call counts.
///
/// # Example
///
/// ```
/// use sieve_graph::CallGraph;
///
/// let mut g = CallGraph::new();
/// g.record_call("haproxy", "web");
/// g.record_call("web", "mongodb");
/// g.record_call("web", "mongodb");
/// assert_eq!(g.callees("haproxy"), vec!["web".to_string()]);
/// assert_eq!(g.callees("web"), vec!["mongodb".to_string()]);
/// let calls: Vec<u64> = g.edges().map(|(_, _, calls)| calls).collect();
/// assert_eq!(calls, vec![1, 2]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallGraph {
    components: BTreeSet<Name>,
    /// caller -> callee -> number of observed calls.
    edges: BTreeMap<Name, BTreeMap<Name, u64>>,
}

impl CallGraph {
    /// Creates an empty call graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a component even if it never communicates.
    pub fn add_component(&mut self, name: impl Into<Name>) {
        self.components.insert(name.into());
    }

    /// Records one call from `caller` to `callee`, registering both
    /// components as needed.
    pub fn record_call(&mut self, caller: impl Into<Name>, callee: impl Into<Name>) {
        self.record_calls(caller, callee, 1);
    }

    /// Records `count` calls from `caller` to `callee`.
    pub fn record_calls(&mut self, caller: impl Into<Name>, callee: impl Into<Name>, count: u64) {
        let caller = caller.into();
        let callee = callee.into();
        self.components.insert(caller.clone());
        self.components.insert(callee.clone());
        *self
            .edges
            .entry(caller)
            .or_default()
            .entry(callee)
            .or_insert(0) += count;
    }

    /// All registered components, sorted by name.
    pub fn components(&self) -> Vec<Name> {
        self.components.iter().cloned().collect()
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Number of distinct caller→callee edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(|m| m.len()).sum()
    }

    /// Components directly called by `caller`, sorted by name.
    pub fn callees(&self, caller: &str) -> Vec<Name> {
        self.edges
            .get(caller)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Iterator over `(caller, callee, call_count)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (&Name, &Name, u64)> + '_ {
        self.edges
            .iter()
            .flat_map(|(from, callees)| callees.iter().map(move |(to, &count)| (from, to, count)))
    }

    /// The communicating component pairs Sieve must examine in its pairwise
    /// Granger comparison: each directed caller→callee edge.
    pub fn communicating_pairs(&self) -> Vec<(Name, Name)> {
        self.edges()
            .map(|(from, to, _)| (from.clone(), to.clone()))
            .collect()
    }
}

impl FromIterator<(String, String)> for CallGraph {
    fn from_iter<I: IntoIterator<Item = (String, String)>>(iter: I) -> Self {
        let mut g = CallGraph::new();
        for (from, to) in iter {
            g.record_call(from, to);
        }
        g
    }
}

impl FromIterator<(Name, Name)> for CallGraph {
    fn from_iter<I: IntoIterator<Item = (Name, Name)>>(iter: I) -> Self {
        let mut g = CallGraph::new();
        for (from, to) in iter {
            g.record_call(from, to);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CallGraph {
        let mut g = CallGraph::new();
        g.record_call("haproxy", "web");
        g.record_call("web", "mongodb");
        g.record_call("web", "redis");
        g.record_call("web", "docstore");
        g.record_call("docstore", "mongodb");
        g.add_component("spelling");
        g
    }

    #[test]
    fn components_and_edges_are_tracked() {
        let g = sample();
        assert_eq!(g.component_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert!(g.callees("haproxy").iter().any(|c| c == "web"));
        assert!(!g.callees("web").iter().any(|c| c == "haproxy"));
        assert_eq!(g.edges().map(|(_, _, calls)| calls).sum::<u64>(), 5);
    }

    #[test]
    fn call_counts_accumulate() {
        let mut g = CallGraph::new();
        g.record_calls("a", "b", 10);
        g.record_call("a", "b");
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(&Name::new("a"), &Name::new("b"), 11)]);
        assert!(g.callees("b").is_empty());
    }

    #[test]
    fn callees_and_callers_are_directional() {
        let g = sample();
        assert_eq!(g.callees("web"), vec!["docstore", "mongodb", "redis"]);
        assert_eq!(g.callees("docstore"), vec!["mongodb"]);
        assert!(g.callees("mongodb").is_empty(), "an edge is one-way");
        assert!(g.callees("spelling").is_empty());
    }

    #[test]
    fn isolated_component_appears_without_edges() {
        let g = sample();
        assert!(g.components().iter().any(|c| c == "spelling"));
        assert!(g.callees("spelling").is_empty());
        assert!(g
            .edges()
            .all(|(from, to, _)| from != "spelling" && to != "spelling"));
    }

    #[test]
    fn from_iterator_builds_graph() {
        let g: CallGraph = vec![
            ("a".to_string(), "b".to_string()),
            ("b".to_string(), "c".to_string()),
        ]
        .into_iter()
        .collect();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.communicating_pairs().len(), 2);

        let h: CallGraph = vec![(Name::new("a"), Name::new("b"))].into_iter().collect();
        assert!(h.callees("a").iter().any(|c| c == "b"));
    }

    #[test]
    fn self_calls_are_representable() {
        let mut g = CallGraph::new();
        g.record_call("worker", "worker");
        assert!(g.callees("worker").iter().any(|c| c == "worker"));
        assert_eq!(g.callees("worker"), vec!["worker"]);
        assert_eq!(g.component_count(), 1);
    }

    #[test]
    fn clone_equality_roundtrip() {
        let g = sample();
        let copy = g.clone();
        assert_eq!(copy, g);
    }
}
