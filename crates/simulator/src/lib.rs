//! A discrete-time microservice application simulator.
//!
//! The Sieve paper evaluates its pipeline on two real deployments
//! (ShareLatex on EC2/Rancher and OpenStack Kolla), loaded with Locust/Rally,
//! traced with sysdig and monitored with Telegraf + InfluxDB. None of that
//! infrastructure is available to a library reproduction, so this crate
//! provides the behaviour-preserving substitute (`docs/ARCHITECTURE.md`):
//!
//! * [`AppSpec`] — declarative application models: components, their metrics and
//!   the RPC topology connecting them;
//! * [`MetricBehavior`] — metric behaviours (load-proportional gauges, saturating
//!   latencies, counters, constants, periodic and random-walk signals);
//! * [`Workload`] — load generators: constant, ramp, spike, sessions and a
//!   WorldCup-98-like one-hour trace;
//! * [`Simulation`] — the discrete-time simulation that propagates load along
//!   the call graph (with per-edge lag) and emits every metric as a time
//!   series;
//! * `tracer` — the call-graph recorder (sysdig's overhead is a constant
//!   factor on the engine's modelled latency);
//! * [`store`] — the in-memory metric store: series, content
//!   fingerprints, the epoch/delta API, and the bounded-memory retention
//!   layer (ring windows) that lets long-running services ingest forever
//!   with flat memory (Table 3's cost
//!   model is not here: `sieve_bench::monitoring_overhead` prices the store's point and
//!   series counts);
//! * [`FaultScenario`] — fault injection used by the RCA case study to produce a
//!   "faulty version" of an application.
//!
//! # Example
//!
//! ```
//! use sieve_simulator::{
//!     AppSpec, CallSpec, ComponentSpec, MetricBehavior, MetricSpec, SimConfig, Simulation,
//!     Workload,
//! };
//!
//! let mut app = AppSpec::new("demo", "frontend");
//! app.add_component(
//!     ComponentSpec::new("frontend")
//!         .with_metric(MetricSpec::gauge("requests", MetricBehavior::load_proportional(1.0))),
//! );
//! app.add_component(
//!     ComponentSpec::new("db")
//!         .with_metric(MetricSpec::gauge("queries", MetricBehavior::load_proportional(2.0))),
//! );
//! app.add_call(CallSpec::new("frontend", "db"));
//!
//! let config = SimConfig::new(0xC0FFEE).with_duration_ms(60_000);
//! let mut sim = Simulation::new(app, Workload::constant(20.0), config).unwrap();
//! sim.run_to_completion();
//! let store = sim.store();
//! assert_eq!(store.series_count(), 2);
//! assert!(sim.call_graph().callees("frontend").iter().any(|c| c == "db"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]

mod app;
mod engine;
mod fault;
mod metrics;
pub mod store;
mod tracer;
mod workload;

mod error;

pub use app::{AppSpec, CallSpec, ComponentSpec};
pub use engine::{SimConfig, Simulation, TickSnapshot};
pub use error::SimulatorError;
pub use fault::{Fault, FaultScenario};
pub use metrics::{MetricBehavior, MetricKind, MetricSpec};
pub use workload::{Burst, Workload};

/// Convenient result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimulatorError>;
