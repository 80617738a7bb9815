//! Dependency inference on a small call graph, end to end on the cached
//! causality engine: model a three-tier application, load it under a
//! randomized workload, and print the Granger-inferred dependency edges
//! (step 3 of the paper, §3.3).
//!
//! The example also runs the reference analysis (`sieve::core::oracle`,
//! every Granger test re-run per pair) and verifies that the engine changed
//! nothing but the work schedule — the inferred model is bit-identical.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example dependency_inference
//! ```

use sieve::core::config::SieveConfig;
use sieve::core::dependencies::planned_comparison_count;
use sieve::core::oracle;
use sieve::core::pipeline::{load_application, Sieve};
use sieve::prelude::*;

/// A small load balancer -> api -> db topology with per-tier metric
/// families: enough structure for real Granger edges, small enough to run
/// in a couple of seconds.
fn three_tier_app() -> AppSpec {
    let mut app = AppSpec::new("three-tier", "lb");
    app.add_component(
        ComponentSpec::new("lb")
            .with_capacity(200.0)
            .with_metric(MetricSpec::gauge(
                "lb_requests_per_second",
                MetricBehavior::load_proportional(1.0),
            ))
            .with_metric(MetricSpec::gauge(
                "lb_cpu_usage",
                MetricBehavior::cpu_like(0.4),
            )),
    );
    app.add_component(
        ComponentSpec::new("api")
            .with_capacity(100.0)
            .with_metric(MetricSpec::gauge(
                "api_requests_per_second",
                MetricBehavior::load_proportional(1.0),
            ))
            .with_metric(MetricSpec::gauge(
                "api_latency_ms",
                MetricBehavior::latency(40.0, 90.0),
            ))
            .with_metric(MetricSpec::gauge(
                "api_cpu_usage",
                MetricBehavior::cpu_like(1.0),
            )),
    );
    app.add_component(
        ComponentSpec::new("db")
            .with_capacity(300.0)
            .with_metric(MetricSpec::gauge(
                "db_queries_per_second",
                MetricBehavior::load_proportional(2.0),
            ))
            .with_metric(MetricSpec::gauge(
                "db_query_time_ms",
                MetricBehavior::latency(5.0, 250.0),
            ))
            .with_metric(MetricSpec::counter(
                "db_bytes_written_total",
                MetricBehavior::counter(100.0),
            )),
    );
    app.add_call(CallSpec::new("lb", "api").with_lag_ms(500));
    app.add_call(CallSpec::new("api", "db").with_fanout(2.0).with_lag_ms(500));
    app
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = three_tier_app();
    println!(
        "Application `{}`: {} components, {} metrics, calls lb->api->db",
        app.name,
        app.component_count(),
        app.total_metric_count()
    );

    // Step 1 once; steps 2–3 run twice below on the same recorded data.
    let (store, call_graph) =
        load_application(&app, &Workload::randomized(80.0, 3), 0xD1CE, 120_000, 500)?;

    // The pipeline runs the dependency stage on the cached causality
    // engine: one prepared state (ADF verdict, differenced buffer, memoized
    // restricted fits) per representative series. The oracle re-runs the
    // full Granger test per pair and direction.
    let config = SieveConfig::default();
    let cached = Sieve::new(config.clone()).analyze(&app.name, &store, &call_graph)?;
    let naive = oracle::analyze(&app.name, &store, &call_graph, &config)?;
    assert_eq!(
        cached, naive,
        "the engines must not change the inferred model"
    );

    println!(
        "\nPlanned Granger comparisons (call-graph-restricted): {}",
        planned_comparison_count(&call_graph, &cached.clusterings)
    );
    println!(
        "Inferred dependency graph: {} components, {} edges \
         (cached engines == oracle: verified)",
        cached.dependency_graph.component_count(),
        cached.dependency_graph.edge_count()
    );
    for edge in cached.dependency_graph.edges() {
        println!(
            "  {}::{} -> {}::{}  (lag {} ms, p = {:.4}, F = {:.1})",
            edge.source_component,
            edge.source_metric,
            edge.target_component,
            edge.target_metric,
            edge.lag_ms,
            edge.p_value,
            edge.f_statistic
        );
    }
    Ok(())
}
