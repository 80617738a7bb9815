//! Application models used by the Sieve evaluation.
//!
//! The paper deploys two real microservices-based systems:
//!
//! * **ShareLatex** (§4.1, §6.2) — a collaborative LaTeX editor with a load
//!   balancer, a KV store, two databases and 11 node.js services, exporting
//!   889 metrics in total; used for the metric-reduction, overhead and
//!   autoscaling experiments.
//! * **OpenStack Kolla** (§4.2, §6.3) — a cloud manager whose main services
//!   (Nova, Neutron, Glance, …) plus auxiliary components expose ~500
//!   metrics in the paper's measurement setup (Table 5 reports 508); used
//!   for the root-cause-analysis experiment around Launchpad bug #1533942.
//!
//! This crate models both applications for the `sieve-simulator` substrate:
//! the same component names, realistic per-component metric families whose
//! values are causally driven by request flow along the real call topology,
//! and — for OpenStack — a fault scenario that reproduces the observable
//! symptoms of the Open vSwitch agent crash.
//!
//! Each model comes in two sizes via [`MetricRichness`]: `Minimal` keeps a
//! handful of metrics per component so unit tests stay fast, `Full`
//! approximates the paper's metric counts for the benchmark harness.
//!
//! The [`tenants`] module additionally generates deterministic
//! *multi-tenant fleets* (many small applications vs few large ones) for
//! the serving-layer benchmarks and examples, and the `chaos` module
//! ([`chaos_app`]) provides the adversarial profile with a built-in answer sheet (true
//! cluster counts, flippable call edges, a canonical root-cause fault)
//! that the `sieve-scenario` engine scores the pipeline against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]

mod chaos;
pub mod openstack;
mod profiles;
pub mod sharelatex;
pub mod tenants;

pub use chaos::{chaos_app, root_cause_fault, ChaosApp, DB, SVC_A, SVC_B, WORKER};
pub use profiles::MetricRichness;
