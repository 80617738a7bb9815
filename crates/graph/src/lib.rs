//! Graph data structures for Sieve.
//!
//! Two graphs matter in the Sieve pipeline (§3 of the paper):
//!
//! * the **call graph** recorded while loading the application — vertices
//!   are microservice components, edges point from caller to callee
//!   ([`CallGraph`]), and
//! * the **dependency graph** produced by the Granger-causality step —
//!   edges connect *representative metrics* of neighbouring components and
//!   carry the causality direction, p-value and time lag ([`DependencyGraph`]).
//!
//! The dependency graph can be rendered to Graphviz DOT ([`dependency_graph_to_dot`]) for the
//! kind of visualisation shown in Figure 6 of the paper, and supports the
//! structural diffing the RCA engine builds on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]

mod callgraph;
mod depgraph;
mod dot;

pub use callgraph::CallGraph;
pub use depgraph::{DependencyEdge, DependencyGraph};
pub use dot::dependency_graph_to_dot;
