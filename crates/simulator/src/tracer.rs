//! Call-graph tracing.
//!
//! Sieve obtains the component call graph by observing network-related
//! system calls with sysdig. The simulator's tracer records RPC edges
//! exactly; what tracing costs is a constant factor on the engine's
//! modelled latency (the paper's Figure 5 measures sysdig at +22 %), an
//! input to the simulation rather than something it measures.

use sieve_exec::Name;
use sieve_graph::CallGraph;

/// Records component-to-component calls during a simulation run.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    graph: CallGraph,
}

impl Tracer {
    /// Creates an idle tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` calls from `caller` to `callee`. Accepts anything
    /// that interns to a [`Name`]; passing `&Name`s (as the simulation
    /// engine does every tick) skips the interner entirely.
    pub fn record(&mut self, caller: impl Into<Name>, callee: impl Into<Name>, count: u64) {
        if count == 0 {
            return;
        }
        self.graph.record_calls(caller, callee, count);
    }

    /// Registers a component that may never communicate.
    pub fn register_component(&mut self, name: impl Into<Name>) {
        self.graph.add_component(name);
    }

    /// The call graph observed so far.
    pub fn call_graph(&self) -> &CallGraph {
        &self.graph
    }

    /// Consumes the tracer and returns the call graph.
    pub fn into_call_graph(self) -> CallGraph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_builds_call_graph() {
        let mut t = Tracer::new();
        t.record("haproxy", "web", 5);
        t.record("web", "mongodb", 3);
        t.record("web", "mongodb", 2);
        t.register_component("spelling");
        let g = t.call_graph();
        let calls: Vec<(&str, &str, u64)> = (g.edges())
            .map(|(caller, callee, calls)| (caller.as_str(), callee.as_str(), calls))
            .collect();
        assert_eq!(calls, vec![("haproxy", "web", 5), ("web", "mongodb", 5)]);
        assert!(g.components().iter().any(|c| c == "spelling"));
        let owned = t.into_call_graph();
        assert_eq!(owned.edge_count(), 2);
    }

    #[test]
    fn zero_count_records_are_ignored() {
        let mut t = Tracer::new();
        t.record("a", "b", 0);
        assert_eq!(t.call_graph().edge_count(), 0);
    }
}
