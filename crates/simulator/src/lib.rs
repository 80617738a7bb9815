//! A discrete-time microservice application simulator.
//!
//! The Sieve paper evaluates its pipeline on two real deployments
//! (ShareLatex on EC2/Rancher and OpenStack Kolla), loaded with Locust/Rally,
//! traced with sysdig and monitored with Telegraf + InfluxDB. None of that
//! infrastructure is available to a library reproduction, so this crate
//! provides the behaviour-preserving substitute (`docs/ARCHITECTURE.md`):
//!
//! * [`app`] — declarative application models: components, their metrics and
//!   the RPC topology connecting them;
//! * [`metrics`] — metric behaviours (load-proportional gauges, saturating
//!   latencies, counters, constants, periodic and random-walk signals);
//! * [`workload`] — load generators: constant, ramp, spike, sessions and a
//!   WorldCup-98-like one-hour trace;
//! * [`engine`] — the discrete-time simulation that propagates load along
//!   the call graph (with per-edge lag) and emits every metric as a time
//!   series;
//! * [`tracer`] — the call-graph recorder (sysdig's overhead is a constant
//!   factor on the engine's modelled latency);
//! * [`store`] — the in-memory metric store: series, content
//!   fingerprints, the epoch/delta API, and the bounded-memory retention
//!   layer (ring windows) that lets long-running services ingest forever
//!   with flat memory (Table 3's cost
//!   model is not here: `sieve_bench::table3` prices the store's point and
//!   series counts);
//! * [`fault`] — fault injection used by the RCA case study to produce a
//!   "faulty version" of an application.
//!
//! # Example
//!
//! ```
//! use sieve_simulator::app::{AppSpec, CallSpec, ComponentSpec};
//! use sieve_simulator::engine::{SimConfig, Simulation};
//! use sieve_simulator::metrics::{MetricBehavior, MetricSpec};
//! use sieve_simulator::workload::Workload;
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

pub mod app;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod store;
pub mod tracer;
pub mod workload;

mod error;

pub use error::SimulatorError;

/// Convenient result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimulatorError>;
